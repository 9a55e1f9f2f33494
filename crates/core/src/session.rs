//! The staged compilation-session API (paper Fig. 9 as typed stages).
//!
//! [`Ecmas::session`] starts a pipeline that advances through three typed
//! stages, each exposing its artifact and accepting overrides before the
//! next stage runs:
//!
//! * [`Profiled`] — the circuit's DAG, communication graph, and
//!   Para-Finding execution scheme (`ĝPM`). Override: [`Profiled::with_chip`].
//! * [`Mapped`] — the qubit → tile mapping and (double defect) the initial
//!   cut types. Overrides: [`Mapped::with_mapping`], [`Mapped::with_cuts`].
//! * [`Scheduled`] — the encoded circuit plus a structured
//!   [`CompileReport`].
//!
//! [`Mapped::schedule_auto`] makes the paper's resource-adaptive choice:
//! Ecmas-ReSu (Algorithm 2) when the chip's communication capacity reaches
//! `ĝPM`, the limited-resources scheduler (Algorithm 1) otherwise.
//!
//! The [`Compiler`] trait is the workspace-wide front door — `Ecmas` and
//! the `AutoBraid`/`Edpci` baselines all implement it, so harnesses drive
//! every compiler through one interface. Fan-out lives a layer up, in
//! `ecmas-serve`: its `CompileService` worker pool runs these stages with
//! a cancellation/deadline checkpoint at every boundary, and its
//! `compile_batch` facade fans independent compilations across scoped
//! threads.
//!
//! # Example
//!
//! ```
//! use ecmas::session::Algorithm;
//! use ecmas::Ecmas;
//! use ecmas_chip::{Chip, CodeModel};
//! use ecmas_circuit::benchmarks::ghz;
//!
//! let circuit = ghz(9);
//! let chip = Chip::min_viable(CodeModel::LatticeSurgery, 9, 3)?;
//!
//! // Staged: inspect ĝPM, then the mapping, then schedule.
//! let profiled = Ecmas::default().session(&circuit, &chip)?;
//! assert_eq!(profiled.gpm(), 1); // a chain is fully serial
//! let mapped = profiled.map()?;
//! assert_eq!(mapped.mapping().len(), 9);
//! let outcome = mapped.schedule_auto()?.into_outcome();
//! assert_eq!(outcome.encoded.cycles() as usize, circuit.depth());
//! assert_eq!(outcome.report.algorithm, Algorithm::ReSu); // capacity 3 ≥ ĝPM 1
//! assert!(outcome.report.router.paths_found > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::{Circuit, CommGraph, GateDag};
pub use ecmas_route::RouterStats;

use crate::compiler::Ecmas;
use crate::cut::{initialize_cuts, CutType};
use crate::diag::{diagnostics_to_json, Diagnostic};
use crate::encoded::EncodedCircuit;
use crate::engine::{schedule_limited, ScheduleConfig};
use crate::error::CompileError;
use crate::mapping::{adjust_bandwidth, initial_mapping, LocationStrategy};
use crate::profile::{para_finding, ExecutionScheme};
use crate::resources::ResourceEstimate;
use crate::resu::schedule_sufficient;

/// Which scheduling algorithm produced the encoded circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Algorithm {
    /// Algorithm 1 — the limited-resources cycle-driven scheduler.
    Limited,
    /// Algorithm 2 — Ecmas-ReSu on sufficient communication capacity.
    ReSu,
}

impl Algorithm {
    /// Stable lowercase label (used in reports and JSON).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Limited => "limited",
            Algorithm::ReSu => "resu",
        }
    }
}

/// What the bandwidth-adjusting pre-processing step did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BandwidthDecision {
    /// The config disabled the step.
    Disabled,
    /// The step ran but left the chip unchanged (no slack to move).
    Unchanged,
    /// The adjusted chip was scheduled and won (fewer cycles). Only the
    /// limited-resources path produces this: it schedules both chips and
    /// keeps the cheaper result.
    Adopted,
    /// The adjusted chip was scheduled and lost; the base chip's schedule
    /// was kept (Algorithm 1 treats the adjustment as a candidate).
    Rejected,
    /// The adjusted chip was used without a comparison run — the ReSu
    /// path applies the adjustment up front, when the adjusted chip's
    /// capacity still reaches `ĝPM`, and schedules once.
    Applied,
    /// The adjusted chip was set aside without a run because a bound
    /// settles the outcome. On the limited-resources path the base
    /// schedule already takes `Δ = α` cycles, which no schedule can beat,
    /// so the candidate could not win. On the ReSu path the adjustment
    /// would drop the communication capacity below `ĝPM` and forfeit
    /// Theorem 2's one-cycle-per-layer guarantee.
    Bounded,
}

impl BandwidthDecision {
    /// Stable lowercase label (used in reports and JSON).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BandwidthDecision::Disabled => "disabled",
            BandwidthDecision::Unchanged => "unchanged",
            BandwidthDecision::Adopted => "adopted",
            BandwidthDecision::Rejected => "rejected",
            BandwidthDecision::Applied => "applied",
            BandwidthDecision::Bounded => "bounded",
        }
    }
}

/// Wall time spent in each pipeline stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Circuit profiling: DAG + communication graph + Para-Finding.
    pub profile: Duration,
    /// Initial mapping (shape determining + placement restarts) and cut
    /// initialization.
    pub map: Duration,
    /// Scheduling, including the bandwidth-adjust candidate run when one
    /// was made.
    pub schedule: Duration,
}

impl StageTimings {
    /// Sum over all stages.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.profile + self.map + self.schedule
    }
}

/// Where a compilation's result came from, compile-cache-wise.
///
/// `Disabled` is the default for every compile that never passed through
/// a cache (direct `Ecmas` calls, `compile_batch`, services configured
/// with `cache_bytes: 0`); the other variants are stamped by the
/// `ecmas-cache` integration in `ecmas-serve`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum CacheSource {
    /// No cache in front of this compilation.
    #[default]
    Disabled,
    /// Looked up, not found: compiled from scratch and inserted.
    Miss,
    /// Served verbatim from the cache without compiling.
    Hit,
    /// An identical compile was already in flight; this request waited
    /// for it and shares its result.
    Coalesced,
    /// A cached profile artifact was reused; mapping and scheduling ran.
    ProfileReuse,
    /// A cached map artifact (and its profile) was reused; only
    /// scheduling ran.
    MapReuse,
}

impl CacheSource {
    /// Stable lowercase label (used in reports and JSON).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CacheSource::Disabled => "disabled",
            CacheSource::Miss => "miss",
            CacheSource::Hit => "hit",
            CacheSource::Coalesced => "coalesced",
            CacheSource::ProfileReuse => "profile_reuse",
            CacheSource::MapReuse => "map_reuse",
        }
    }
}

/// Compile-cache observability attached to every [`CompileReport`]:
/// how this result was obtained plus a snapshot of the cache-wide
/// counters at the time it was produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheInfo {
    /// How this particular result was obtained.
    pub source: CacheSource,
    /// Full-result cache hits so far (including coalesced waits).
    pub hits: u64,
    /// Full-result cache misses so far.
    pub misses: u64,
    /// Stage-artifact (profile/map) reuses so far.
    pub stage_hits: u64,
    /// Entries evicted by the byte-budget LRU so far.
    pub evictions: u64,
    /// Estimated bytes currently resident in the cache.
    pub resident_bytes: u64,
    /// Requests that waited on an identical in-flight compile so far.
    pub coalesced_waits: u64,
}

impl CacheInfo {
    /// The no-cache placeholder every direct compilation carries.
    #[must_use]
    pub fn disabled() -> Self {
        CacheInfo::default()
    }
}

/// Structured diagnostics for one compilation: what ran, how long each
/// stage took, and how hard the router worked.
#[derive(Clone, Debug)]
pub struct CompileReport {
    /// Which scheduler produced the result.
    pub algorithm: Algorithm,
    /// Per-stage wall time.
    pub timings: StageTimings,
    /// Estimated Circuit Parallelism Degree `ĝPM` from Para-Finding.
    pub gpm: usize,
    /// The chip's communication capacity `⌊(b−1)/2⌋ + 3` (Theorem 2).
    pub capacity: usize,
    /// Randomized placement restarts actually performed (0 when a mapping
    /// was injected or the strategy is deterministic, e.g. the trivial
    /// snake).
    pub placement_restarts: usize,
    /// What the bandwidth-adjusting step did.
    pub bandwidth_adjust: BandwidthDecision,
    /// Router effort/conflict counters, summed over every scheduling run
    /// this compilation performed (including a rejected bandwidth-adjust
    /// candidate).
    pub router: RouterStats,
    /// Clock cycles Δ of the encoded circuit.
    pub cycles: u64,
    /// Scheduled events.
    pub events: usize,
    /// Cut-type modification events.
    pub cut_modifications: usize,
    /// Compile-cache provenance and counters ([`CacheInfo::disabled`]
    /// when no cache fronted this compilation).
    pub cache: CacheInfo,
    /// The job's space–time and channel-pressure footprint, computed
    /// deterministically from the schedule and router counters.
    pub resources: ResourceEstimate,
    /// Findings from the static analyzer, empty unless the caller ran
    /// an analyze pass (`ecmasc --analyze`, the daemon's analyze mode).
    /// The analyzer only observes — populating this never changes the
    /// schedule or its fingerprint.
    pub diagnostics: Vec<Diagnostic>,
    /// Service attempts this result took (1 = succeeded first try).
    /// Only the fault-tolerant compile service retries, so direct
    /// compilation always reports 1. Retried results are bit-identical
    /// to first-try results in everything but this provenance pair.
    pub attempts: u32,
    /// Provenance of the last transient failure the service retried
    /// away (`None` when the job succeeded on its first attempt).
    pub last_fault: Option<String>,
}

impl CompileReport {
    /// Serializes the report as a self-contained JSON object (no external
    /// serializer in this workspace — see `vendor/README.md`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        format!(
            concat!(
                "{{\"algorithm\":\"{}\",\"cycles\":{},\"events\":{},",
                "\"cut_modifications\":{},\"gpm\":{},\"capacity\":{},",
                "\"placement_restarts\":{},\"bandwidth_adjust\":\"{}\",",
                "\"timings_ms\":{{\"profile\":{:.3},\"map\":{:.3},",
                "\"schedule\":{:.3},\"total\":{:.3}}},",
                "\"router\":{{\"paths_found\":{},\"conflicts\":{},",
                "\"cells_expanded\":{},\"pruned_expansions\":{},",
                "\"path_cells\":{},\"peak_cycle_path_cells\":{},",
                "\"failed_searches\":{},",
                "\"cache_hits\":{},\"recolor_cells\":{}}},",
                "\"cache\":{{\"source\":\"{}\",\"hits\":{},\"misses\":{},",
                "\"stage_hits\":{},\"evictions\":{},\"resident_bytes\":{},",
                "\"coalesced_waits\":{}}},",
                "\"resources\":{},\"diagnostics\":{},",
                "\"attempts\":{},\"last_fault\":{}}}"
            ),
            self.algorithm.label(),
            self.cycles,
            self.events,
            self.cut_modifications,
            self.gpm,
            self.capacity,
            self.placement_restarts,
            self.bandwidth_adjust.label(),
            ms(self.timings.profile),
            ms(self.timings.map),
            ms(self.timings.schedule),
            ms(self.timings.total()),
            self.router.paths_found,
            self.router.conflicts,
            self.router.cells_expanded,
            self.router.pruned_expansions,
            self.router.path_cells,
            self.router.peak_cycle_path_cells,
            self.router.failed_searches,
            self.router.cache_hits,
            self.router.recolor_cells,
            self.cache.source.label(),
            self.cache.hits,
            self.cache.misses,
            self.cache.stage_hits,
            self.cache.evictions,
            self.cache.resident_bytes,
            self.cache.coalesced_waits,
            self.resources.to_json(),
            diagnostics_to_json(&self.diagnostics),
            self.attempts,
            self.last_fault
                .as_deref()
                .map_or_else(|| "null".to_string(), |f| format!("\"{}\"", crate::diag::escape(f)),),
        )
    }
}

/// What a compilation returns: the schedule plus its report.
#[derive(Clone, Debug)]
pub struct CompileOutcome {
    /// The encoded circuit (mapping + conflict-free event schedule).
    pub encoded: EncodedCircuit,
    /// Structured diagnostics for this run.
    pub report: CompileReport,
}

/// The workspace-wide compiler interface: every compiler — `Ecmas` and
/// the baselines — turns a circuit + chip into a [`CompileOutcome`].
///
/// Object-safe, so harnesses can hold `&dyn Compiler` and benchmark all
/// compilers through one code path; `Sync` implementors work with the
/// `ecmas-serve` service layer (`compile_batch`, `CompileService`).
pub trait Compiler {
    /// Short display name for reports ("ecmas", "autobraid", "edpci").
    fn name(&self) -> &'static str;

    /// Compiles `circuit` for `chip`, returning the schedule and report.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::TooManyQubits`] when the circuit does not
    /// fit, or an internal scheduling error.
    fn compile_outcome(
        &self,
        circuit: &Circuit,
        chip: &Chip,
    ) -> Result<CompileOutcome, CompileError>;
}

impl Compiler for Ecmas {
    fn name(&self) -> &'static str {
        "ecmas"
    }

    /// The limited-resources pipeline (Algorithm 1) — the same semantics
    /// as [`Ecmas::compile`], with the report attached. Use
    /// [`Ecmas::compile_auto`] for the paper's resource-adaptive choice.
    fn compile_outcome(
        &self,
        circuit: &Circuit,
        chip: &Chip,
    ) -> Result<CompileOutcome, CompileError> {
        Ok(self.session(circuit, chip)?.map()?.schedule()?.into_outcome())
    }
}

/// The detachable output of the profiling stage: everything
/// [`Profiled`] computed from the circuit alone, without the borrowed
/// circuit or the target chip.
///
/// Validity domain: an artifact is reusable for any compilation of the
/// *same CNOT stream on the same qubit count* — profiling never looks at
/// the chip or the config, so the chip and every config knob may differ.
/// Captured by [`Profiled::artifact`], resumed by
/// [`Ecmas::resume_session`]; the recorded `profile` timing in a resumed
/// report is the original compute time, not the (near-zero) reuse time.
#[derive(Clone, Debug)]
pub struct ProfileArtifact {
    dag: GateDag,
    comm: CommGraph,
    scheme: ExecutionScheme,
    profile_time: Duration,
}

impl ProfileArtifact {
    /// The estimated Circuit Parallelism Degree `ĝPM`.
    #[must_use]
    pub fn gpm(&self) -> usize {
        self.scheme.gpm()
    }

    /// Qubit count of the circuit this artifact was profiled from (used
    /// to sanity-check a resume against a different circuit).
    #[must_use]
    pub fn qubits(&self) -> usize {
        self.comm.qubits()
    }

    /// Rough resident-size estimate in bytes, for byte-budgeted caches.
    /// Counts the DAG's adjacency (parents + children + per-gate levels),
    /// the communication graph's edge and neighbor lists, and the
    /// execution scheme's layer vectors.
    #[must_use]
    pub fn estimated_bytes(&self) -> u64 {
        let dag = 64 * self.dag.len() as u64;
        let comm = 48 * self.comm.edges().len() as u64 + 16 * self.comm.qubits() as u64;
        let scheme = 8 * self.dag.len() as u64 + 32 * self.scheme.depth() as u64;
        128 + dag + comm + scheme
    }
}

/// The detachable output of the mapping stage: the placement plus
/// (double defect) initial cut types, without the borrowed pipeline.
///
/// Validity domain: reusable only for the same circuit *and* the same
/// chip *and* the same mapping-relevant config knobs
/// (`location`, `cut_init` — see `stable::write_mapping_config`);
/// schedule-only knobs (`order`, `cut_policy`, `adjust_bandwidth`) may
/// differ. Captured by [`Mapped::artifact`], resumed by
/// [`Profiled::resume_mapped`], which re-validates the mapping and cuts
/// against the resuming pipeline's circuit and chip.
#[derive(Clone, Debug)]
pub struct MapArtifact {
    mapping: Vec<usize>,
    cuts: Option<Vec<CutType>>,
    cuts_injected: bool,
    placement_restarts: usize,
    map_time: Duration,
}

impl MapArtifact {
    /// The qubit → tile-slot mapping.
    #[must_use]
    pub fn mapping(&self) -> &[usize] {
        &self.mapping
    }

    /// Rough resident-size estimate in bytes, for byte-budgeted caches.
    #[must_use]
    pub fn estimated_bytes(&self) -> u64 {
        let cuts = self.cuts.as_ref().map_or(0, |c| c.len() as u64);
        96 + 8 * self.mapping.len() as u64 + cuts
    }
}

/// Stage 1 — the profiled circuit: DAG, communication graph, and the
/// Para-Finding execution scheme. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Profiled<'c> {
    config: crate::compiler::EcmasConfig,
    circuit: &'c Circuit,
    // Shared, not owned: this one Arc flows through every scheduling run
    // into the resulting `EncodedCircuit`, so a compilation clones the
    // chip exactly once (here), however many schedule candidates it runs.
    chip: Arc<Chip>,
    dag: GateDag,
    comm: CommGraph,
    scheme: ExecutionScheme,
    profile_time: Duration,
}

impl<'c> Profiled<'c> {
    pub(crate) fn start(
        config: crate::compiler::EcmasConfig,
        circuit: &'c Circuit,
        chip: &Chip,
    ) -> Result<Self, CompileError> {
        check_fit(circuit.qubits(), chip)?;
        let t = Instant::now();
        let dag = circuit.dag();
        let comm = circuit.comm_graph();
        let scheme = para_finding(&dag);
        Ok(Profiled {
            config,
            circuit,
            chip: Arc::new(chip.clone()),
            dag,
            comm,
            scheme,
            profile_time: t.elapsed(),
        })
    }

    pub(crate) fn resume(
        config: crate::compiler::EcmasConfig,
        circuit: &'c Circuit,
        chip: &Chip,
        artifact: &ProfileArtifact,
    ) -> Result<Self, CompileError> {
        check_fit(circuit.qubits(), chip)?;
        if artifact.qubits() != circuit.qubits() {
            return Err(CompileError::InvalidMapping {
                reason: format!(
                    "profile artifact covers {} qubits, circuit has {}",
                    artifact.qubits(),
                    circuit.qubits()
                ),
            });
        }
        Ok(Profiled {
            config,
            circuit,
            chip: Arc::new(chip.clone()),
            dag: artifact.dag.clone(),
            comm: artifact.comm.clone(),
            scheme: artifact.scheme.clone(),
            profile_time: artifact.profile_time,
        })
    }

    /// Detaches the profiling outputs for caching; the stage itself is
    /// untouched. See [`ProfileArtifact`] for the reuse rules.
    #[must_use]
    pub fn artifact(&self) -> ProfileArtifact {
        ProfileArtifact {
            dag: self.dag.clone(),
            comm: self.comm.clone(),
            scheme: self.scheme.clone(),
            profile_time: self.profile_time,
        }
    }

    /// Skips the mapping stage by resuming a cached [`MapArtifact`],
    /// re-validating its mapping and cuts against this pipeline's circuit
    /// and chip. The caller is responsible for the semantic validity
    /// rules (same circuit, chip, `location`, and `cut_init` as the run
    /// that produced the artifact — see [`MapArtifact`]).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::InvalidMapping`] when the mapping does not
    /// assign every qubit a distinct in-range tile slot, or
    /// [`CompileError::CutTypesMismatch`] when the cuts disagree with the
    /// chip's code model.
    pub fn resume_mapped(self, artifact: &MapArtifact) -> Result<Mapped<'c>, CompileError> {
        let cuts_ok = match self.chip.model() {
            CodeModel::DoubleDefect => {
                artifact.cuts.as_ref().is_some_and(|c| c.len() == self.circuit.qubits())
            }
            CodeModel::LatticeSurgery => artifact.cuts.is_none(),
        };
        if !cuts_ok {
            return Err(CompileError::CutTypesMismatch);
        }
        let mapped = Mapped {
            profiled: self,
            mapping: Vec::new(),
            cuts: artifact.cuts.clone(),
            cuts_injected: artifact.cuts_injected,
            placement_restarts: artifact.placement_restarts,
            map_time: artifact.map_time,
        };
        // `with_mapping` re-validates length, range, and uniqueness but
        // zeroes `placement_restarts` (its injected-mapping contract), so
        // restore the artifact's recorded value afterwards.
        let mut mapped = mapped.with_mapping(artifact.mapping.clone())?;
        mapped.placement_restarts = artifact.placement_restarts;
        Ok(mapped)
    }

    /// The circuit being compiled.
    #[must_use]
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The target chip.
    #[must_use]
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// The Para-Finding execution scheme (layered, depth `α`).
    #[must_use]
    pub fn scheme(&self) -> &ExecutionScheme {
        &self.scheme
    }

    /// The estimated Circuit Parallelism Degree `ĝPM`.
    #[must_use]
    pub fn gpm(&self) -> usize {
        self.scheme.gpm()
    }

    /// `true` when the chip's communication capacity reaches `ĝPM` — the
    /// condition under which [`Mapped::schedule_auto`] picks Ecmas-ReSu.
    #[must_use]
    pub fn resources_sufficient(&self) -> bool {
        self.chip.communication_capacity() >= self.scheme.gpm()
    }

    /// Replaces the target chip (e.g. to re-plan the same profile on a
    /// wider lattice) and re-checks that the circuit fits.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::TooManyQubits`] if it does not.
    pub fn with_chip(mut self, chip: Chip) -> Result<Self, CompileError> {
        check_fit(self.circuit.qubits(), &chip)?;
        self.chip = Arc::new(chip);
        Ok(self)
    }

    /// Advances to the mapping stage: shape determining + placement (with
    /// the configured restarts) and, for double defect, cut-type
    /// initialization.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::TooManyQubits`] if the circuit does not fit
    /// the chip.
    pub fn map(self) -> Result<Mapped<'c>, CompileError> {
        let t = Instant::now();
        let mapping = initial_mapping(&self.comm, &self.chip, self.config.location)?;
        let cuts = match self.chip.model() {
            CodeModel::DoubleDefect => {
                Some(initialize_cuts(&self.dag, &self.comm, self.config.cut_init))
            }
            CodeModel::LatticeSurgery => None,
        };
        // Randomized placement restarts actually performed: the Ecmas
        // strategy runs its configured multi-start, the partitioner is one
        // run, and the trivial snake performs no placement at all.
        let placement_restarts = match self.config.location {
            LocationStrategy::Ecmas { restarts, .. } => restarts,
            LocationStrategy::Partitioner { .. } => 1,
            _ => 0,
        };
        Ok(Mapped {
            profiled: self,
            mapping,
            cuts,
            cuts_injected: false,
            placement_restarts,
            map_time: t.elapsed(),
        })
    }
}

/// Stage 2 — the mapped circuit: qubit → tile assignment plus (double
/// defect) initial cut types, both overridable before scheduling.
#[derive(Clone, Debug)]
pub struct Mapped<'c> {
    profiled: Profiled<'c>,
    mapping: Vec<usize>,
    cuts: Option<Vec<CutType>>,
    cuts_injected: bool,
    placement_restarts: usize,
    map_time: Duration,
}

impl<'c> Mapped<'c> {
    /// Detaches the mapping outputs for caching; the stage itself is
    /// untouched. See [`MapArtifact`] for the reuse rules.
    #[must_use]
    pub fn artifact(&self) -> MapArtifact {
        MapArtifact {
            mapping: self.mapping.clone(),
            cuts: self.cuts.clone(),
            cuts_injected: self.cuts_injected,
            placement_restarts: self.placement_restarts,
            map_time: self.map_time,
        }
    }

    /// The qubit → tile-slot mapping.
    #[must_use]
    pub fn mapping(&self) -> &[usize] {
        &self.mapping
    }

    /// The pipeline's initial cut types (`None` for lattice surgery).
    ///
    /// These are what [`schedule`](Self::schedule) (Algorithm 1) uses.
    /// [`schedule_resu`](Self::schedule_resu) chooses its own first-batch
    /// coloring — the paper's Algorithm 2 treats it as free — and only
    /// honors cuts explicitly injected via [`with_cuts`](Self::with_cuts),
    /// so on the ReSu path the scheduled `initial_cuts()` may differ from
    /// this accessor.
    #[must_use]
    pub fn cuts(&self) -> Option<&[CutType]> {
        self.cuts.as_deref()
    }

    /// The target chip.
    #[must_use]
    pub fn chip(&self) -> &Chip {
        &self.profiled.chip
    }

    /// The Para-Finding execution scheme.
    #[must_use]
    pub fn scheme(&self) -> &ExecutionScheme {
        &self.profiled.scheme
    }

    /// The estimated Circuit Parallelism Degree `ĝPM`.
    #[must_use]
    pub fn gpm(&self) -> usize {
        self.profiled.gpm()
    }

    /// Injects a mapping (ablation studies, externally computed
    /// placements). The report's `placement_restarts` becomes 0.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::InvalidMapping`] unless `mapping` assigns
    /// every qubit a distinct in-range *live* tile slot (defective slots
    /// cannot hold a qubit).
    pub fn with_mapping(mut self, mapping: Vec<usize>) -> Result<Self, CompileError> {
        let n = self.profiled.circuit.qubits();
        let slots = self.profiled.chip.tile_slots();
        if mapping.len() != n {
            return Err(CompileError::InvalidMapping {
                reason: format!("{} entries for {n} qubits", mapping.len()),
            });
        }
        let mut seen = vec![false; slots];
        for &slot in &mapping {
            if slot >= slots {
                return Err(CompileError::InvalidMapping {
                    reason: format!("tile slot {slot} out of range (chip has {slots})"),
                });
            }
            if self.profiled.chip.is_dead(slot) {
                return Err(CompileError::InvalidMapping {
                    reason: format!("tile slot {slot} is defective"),
                });
            }
            if std::mem::replace(&mut seen[slot], true) {
                return Err(CompileError::InvalidMapping {
                    reason: format!("tile slot {slot} assigned twice"),
                });
            }
        }
        self.mapping = mapping;
        self.placement_restarts = 0;
        Ok(self)
    }

    /// Injects initial cut types (Table III-style ablations).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::CutTypesMismatch`] unless the chip is
    /// double defect and `cuts` has one entry per qubit.
    pub fn with_cuts(mut self, cuts: Vec<CutType>) -> Result<Self, CompileError> {
        if self.profiled.chip.model() != CodeModel::DoubleDefect
            || cuts.len() != self.profiled.circuit.qubits()
        {
            return Err(CompileError::CutTypesMismatch);
        }
        self.cuts = Some(cuts);
        self.cuts_injected = true;
        Ok(self)
    }

    /// Schedules with Algorithm 1 (limited resources), running the
    /// bandwidth-adjust candidate when the config enables it and keeping
    /// whichever schedule is cheaper. The candidate is skipped
    /// ([`BandwidthDecision::Bounded`]) when the base schedule already
    /// meets the critical-path depth `α`: the adjusted chip is adopted
    /// only on strictly fewer cycles, and no schedule takes fewer than
    /// `α`.
    ///
    /// # Errors
    ///
    /// Returns a scheduling error on internal model violations.
    pub fn schedule(self) -> Result<Scheduled, CompileError> {
        let t = Instant::now();
        let config = ScheduleConfig {
            order: self.profiled.config.order,
            cut_policy: self.profiled.config.cut_policy,
        };
        let chip = &self.profiled.chip;
        let (base, base_stats) = schedule_limited(
            &self.profiled.dag,
            chip,
            &self.mapping,
            self.cuts.as_deref(),
            config,
        )?;
        let (encoded, stats, decision) = if !self.profiled.config.adjust_bandwidth {
            (base, base_stats, BandwidthDecision::Disabled)
        } else {
            // Bandwidth adjusting is a candidate, not a commitment:
            // stealing a lane from a lightly-used channel can cost
            // node-disjoint detours more than the hot channel gains, so
            // the cheaper schedule wins (the paper's
            // select-best-candidate spirit, Fig. 10c).
            let adjusted_chip = adjust_bandwidth(chip, &self.mapping, &self.profiled.comm);
            if adjusted_chip == **chip {
                (base, base_stats, BandwidthDecision::Unchanged)
            } else if base.cycles() <= self.profiled.dag.depth() as u64 {
                (base, base_stats, BandwidthDecision::Bounded)
            } else {
                let (adjusted, adj_stats) = schedule_limited(
                    &self.profiled.dag,
                    &Arc::new(adjusted_chip),
                    &self.mapping,
                    self.cuts.as_deref(),
                    config,
                )?;
                let stats = base_stats.merged(adj_stats);
                if adjusted.cycles() < base.cycles() {
                    (adjusted, stats, BandwidthDecision::Adopted)
                } else {
                    (base, stats, BandwidthDecision::Rejected)
                }
            }
        };
        Ok(self.finish(Algorithm::Limited, encoded, stats, decision, t.elapsed()))
    }

    /// Schedules with Algorithm 2 (Ecmas-ReSu). Intended for chips built
    /// with `Chip::sufficient`; on smaller chips congested layers spill
    /// into extra cycles but the result stays valid.
    ///
    /// Cut types injected with [`with_cuts`](Self::with_cuts) seed the
    /// tiles' starting assignment: the first batch then pays the usual
    /// 3-cycle remap where its bipartition disagrees. Without an
    /// injection Algorithm 2 chooses the initial coloring freely (its
    /// first batch is free), as the paper describes.
    ///
    /// # Errors
    ///
    /// As [`schedule`](Self::schedule).
    pub fn schedule_resu(self) -> Result<Scheduled, CompileError> {
        let t = Instant::now();
        let chip = &self.profiled.chip;
        let (chip, decision) = if self.profiled.config.adjust_bandwidth {
            let adjusted = adjust_bandwidth(chip, &self.mapping, &self.profiled.comm);
            if adjusted == **chip {
                (Arc::clone(chip), BandwidthDecision::Unchanged)
            } else if adjusted.communication_capacity() < self.profiled.scheme.gpm() {
                // Theorem 2 routes every layer in one cycle only while the
                // capacity reaches ĝPM; an adjustment that drops below it
                // would trade that guarantee for spilled layers.
                (Arc::clone(chip), BandwidthDecision::Bounded)
            } else {
                // No comparison run on this path (unlike `schedule`): the
                // adjusted chip is simply used.
                (Arc::new(adjusted), BandwidthDecision::Applied)
            }
        } else {
            (Arc::clone(chip), BandwidthDecision::Disabled)
        };
        let injected = if self.cuts_injected { self.cuts.as_deref() } else { None };
        let (encoded, stats) = schedule_sufficient(
            &self.profiled.dag,
            &self.profiled.scheme,
            &chip,
            &self.mapping,
            injected,
        )?;
        Ok(self.finish(Algorithm::ReSu, encoded, stats, decision, t.elapsed()))
    }

    /// The paper's resource-adaptive choice (Fig. 9): Ecmas-ReSu when the
    /// chip's communication capacity reaches `ĝPM`, Algorithm 1 otherwise.
    ///
    /// # Errors
    ///
    /// As [`schedule`](Self::schedule).
    pub fn schedule_auto(self) -> Result<Scheduled, CompileError> {
        if self.profiled.resources_sufficient() {
            self.schedule_resu()
        } else {
            self.schedule()
        }
    }

    fn finish(
        self,
        algorithm: Algorithm,
        encoded: EncodedCircuit,
        router: RouterStats,
        bandwidth_adjust: BandwidthDecision,
        schedule_time: Duration,
    ) -> Scheduled {
        let resources = ResourceEstimate::compute(
            &self.profiled.chip,
            self.mapping.len(),
            self.profiled.circuit.cnot_count(),
            self.placement_restarts,
            encoded.cycles(),
            &router,
        );
        let report = CompileReport {
            algorithm,
            timings: StageTimings {
                profile: self.profiled.profile_time,
                map: self.map_time,
                schedule: schedule_time,
            },
            gpm: self.profiled.scheme.gpm(),
            capacity: self.profiled.chip.communication_capacity(),
            placement_restarts: self.placement_restarts,
            bandwidth_adjust,
            router,
            cycles: encoded.cycles(),
            events: encoded.events().len(),
            cut_modifications: encoded.modification_count(),
            cache: CacheInfo::disabled(),
            resources,
            diagnostics: Vec::new(),
            attempts: 1,
            last_fault: None,
        };
        Scheduled { outcome: CompileOutcome { encoded, report } }
    }
}

/// Stage 3 — the scheduled circuit: the encoded result plus its report.
#[derive(Clone, Debug)]
pub struct Scheduled {
    outcome: CompileOutcome,
}

impl Scheduled {
    /// The encoded circuit.
    #[must_use]
    pub fn encoded(&self) -> &EncodedCircuit {
        &self.outcome.encoded
    }

    /// The structured report.
    #[must_use]
    pub fn report(&self) -> &CompileReport {
        &self.outcome.report
    }

    /// Consumes the stage and returns the outcome.
    #[must_use]
    pub fn into_outcome(self) -> CompileOutcome {
        self.outcome
    }
}

fn check_fit(qubits: usize, chip: &Chip) -> Result<(), CompileError> {
    // Capacity is the *live* tile count: defective slots hold no qubit.
    if qubits > chip.live_tiles() {
        return Err(CompileError::TooManyQubits { qubits, slots: chip.live_tiles() });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::EcmasConfig;
    use crate::encoded::validate_encoded;
    use ecmas_circuit::benchmarks;

    #[test]
    fn staged_equals_one_shot() {
        let c = benchmarks::qft_n10();
        let chip = Chip::min_viable(CodeModel::DoubleDefect, 10, 3).unwrap();
        let compiler = Ecmas::default();
        let one_shot = compiler.compile(&c, &chip).unwrap();
        let staged = compiler.session(&c, &chip).unwrap().map().unwrap().schedule().unwrap();
        assert_eq!(staged.encoded().events(), one_shot.events());
        assert_eq!(staged.encoded().mapping(), one_shot.mapping());
        assert_eq!(staged.report().cycles, one_shot.cycles());
    }

    #[test]
    fn report_is_populated() {
        let c = benchmarks::qft_n10();
        let chip = Chip::min_viable(CodeModel::DoubleDefect, 10, 3).unwrap();
        let outcome =
            Ecmas::default().session(&c, &chip).unwrap().map().unwrap().schedule().unwrap();
        let report = outcome.report();
        assert_eq!(report.algorithm, Algorithm::Limited);
        assert_eq!(report.capacity, 3);
        assert!(report.gpm >= 1);
        assert_eq!(report.placement_restarts, 8, "the default config's restarts");
        assert!(report.router.paths_found > 0);
        assert_eq!(report.cycles, outcome.encoded().cycles());
        assert_eq!(report.events, outcome.encoded().events().len());
        // Min-viable chips have no slack: the adjust step must be a no-op.
        assert_eq!(report.bandwidth_adjust, BandwidthDecision::Unchanged);
    }

    #[test]
    fn report_json_has_the_contract_keys() {
        let c = benchmarks::ghz(6);
        let chip = Chip::min_viable(CodeModel::LatticeSurgery, 6, 3).unwrap();
        let outcome = Ecmas::default().compile_auto(&c, &chip).unwrap();
        let json = outcome.report.to_json();
        for key in [
            "\"algorithm\"",
            "\"cycles\"",
            "\"timings_ms\"",
            "\"router\"",
            "\"gpm\"",
            "\"capacity\"",
            "\"bandwidth_adjust\"",
            "\"placement_restarts\"",
            "\"paths_found\"",
            "\"conflicts\"",
            "\"pruned_expansions\"",
            "\"failed_searches\"",
            "\"cache_hits\"",
            "\"recolor_cells\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn with_chip_replans_on_the_new_lattice() {
        let c = benchmarks::ghz(9);
        let small = Chip::min_viable(CodeModel::LatticeSurgery, 9, 3).unwrap();
        let wide = Chip::four_x(CodeModel::LatticeSurgery, 9, 3).unwrap();
        let outcome = Ecmas::default()
            .session(&c, &small)
            .unwrap()
            .with_chip(wide.clone())
            .unwrap()
            .map()
            .unwrap()
            .schedule()
            .unwrap();
        assert_eq!(outcome.encoded().chip(), &wide);
    }

    #[test]
    fn with_chip_rejects_a_too_small_lattice() {
        let c = benchmarks::qft_n10();
        let chip = Chip::min_viable(CodeModel::DoubleDefect, 10, 3).unwrap();
        let tiny = Chip::uniform(CodeModel::DoubleDefect, 2, 2, 1, 3).unwrap();
        let err = Ecmas::default().session(&c, &chip).unwrap().with_chip(tiny).unwrap_err();
        assert_eq!(err, CompileError::TooManyQubits { qubits: 10, slots: 4 });
    }

    #[test]
    fn injected_mapping_is_validated_and_used() {
        let c = benchmarks::ghz(4);
        let chip = Chip::uniform(CodeModel::LatticeSurgery, 2, 2, 1, 3).unwrap();
        let mapped = Ecmas::default().session(&c, &chip).unwrap().map().unwrap();

        // Wrong length.
        let err = mapped.clone().with_mapping(vec![0, 1, 2]).unwrap_err();
        assert!(matches!(err, CompileError::InvalidMapping { .. }));
        // Out of range.
        let err = mapped.clone().with_mapping(vec![0, 1, 2, 4]).unwrap_err();
        assert!(matches!(err, CompileError::InvalidMapping { .. }));
        // Duplicate slot.
        let err = mapped.clone().with_mapping(vec![0, 1, 1, 2]).unwrap_err();
        assert!(matches!(err, CompileError::InvalidMapping { .. }));

        let custom = mapped.with_mapping(vec![3, 2, 1, 0]).unwrap();
        assert_eq!(custom.mapping(), &[3, 2, 1, 0]);
        let outcome = custom.schedule().unwrap();
        assert_eq!(outcome.encoded().mapping(), &[3, 2, 1, 0]);
        assert_eq!(outcome.report().placement_restarts, 0, "injected mapping: no restarts");
        validate_encoded(&c, outcome.encoded()).unwrap();
    }

    #[test]
    fn injected_cuts_are_validated_and_used() {
        let c = benchmarks::ghz(4);
        let dd = Chip::min_viable(CodeModel::DoubleDefect, 4, 3).unwrap();
        let ls = Chip::min_viable(CodeModel::LatticeSurgery, 4, 3).unwrap();

        let err = Ecmas::default()
            .session(&c, &ls)
            .unwrap()
            .map()
            .unwrap()
            .with_cuts(vec![CutType::X; 4])
            .unwrap_err();
        assert_eq!(err, CompileError::CutTypesMismatch, "cuts are a double-defect concept");

        let mapped = Ecmas::default().session(&c, &dd).unwrap().map().unwrap();
        let err = mapped.clone().with_cuts(vec![CutType::X; 3]).unwrap_err();
        assert_eq!(err, CompileError::CutTypesMismatch);

        // All-same cuts force the 3α signature on a chain — visibly worse
        // than the pipeline's greedy bipartite coloring.
        let all_same = mapped.clone().with_cuts(vec![CutType::X; 4]).unwrap().schedule().unwrap();
        let greedy = mapped.schedule().unwrap();
        validate_encoded(&c, all_same.encoded()).unwrap();
        assert!(all_same.report().cycles > greedy.report().cycles);
    }

    #[test]
    fn injected_cuts_seed_the_resu_scheduler() {
        // A bipartite chain: ReSu's free first-batch coloring needs no
        // remap, but seeding it with all-same cuts forces one 3-cycle
        // remap batch before the layers run.
        let c = benchmarks::ghz(6);
        let scheme = para_finding(&c.dag());
        let chip = Chip::sufficient(CodeModel::DoubleDefect, 6, scheme.gpm().max(1), 3).unwrap();
        let mapped = Ecmas::default().session(&c, &chip).unwrap().map().unwrap();

        let free = mapped.clone().schedule_resu().unwrap();
        assert_eq!(free.report().cut_modifications, 0, "free initial coloring");

        let seeded =
            mapped.with_cuts(vec![CutType::X; 6]).unwrap().schedule_resu().unwrap().into_outcome();
        validate_encoded(&c, &seeded.encoded).unwrap();
        assert_eq!(
            seeded.encoded.initial_cuts(),
            Some(&[CutType::X; 6][..]),
            "the injected cuts are the schedule's initial cuts"
        );
        assert!(seeded.report.cut_modifications > 0, "all-same seed forces a remap");
        assert_eq!(seeded.report.cycles, free.report().cycles + 3, "one remap batch: +3 cycles");
    }

    #[test]
    fn auto_picks_resu_exactly_when_capacity_reaches_gpm() {
        let c = benchmarks::dnn_n8();
        let scheme = para_finding(&c.dag());
        assert!(scheme.gpm() > 3, "dnn_n8 must exceed the bandwidth-1 capacity");

        let min = Chip::min_viable(CodeModel::LatticeSurgery, 8, 3).unwrap();
        assert!(min.communication_capacity() < scheme.gpm());
        let limited = Ecmas::default().compile_auto(&c, &min).unwrap();
        assert_eq!(limited.report.algorithm, Algorithm::Limited);

        let sufficient = Chip::sufficient(CodeModel::LatticeSurgery, 8, scheme.gpm(), 3).unwrap();
        assert!(sufficient.communication_capacity() >= scheme.gpm());
        let resu = Ecmas::default().compile_auto(&c, &sufficient).unwrap();
        assert_eq!(resu.report.algorithm, Algorithm::ReSu);
        assert_eq!(resu.encoded.cycles() as usize, c.depth(), "LS ReSu is depth-optimal");
    }

    /// On a sufficient chip the adjustment would steal lanes until the
    /// capacity drops below ĝPM (dnn_n8: 4 → 3), so ReSu keeps the base
    /// chip and its Theorem 2 guarantee.
    #[test]
    fn resu_keeps_the_capacity_theorem_2_needs() {
        let c = benchmarks::dnn_n8();
        let gpm = para_finding(&c.dag()).gpm();
        for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
            let chip = Chip::sufficient(model, 8, gpm, 3).unwrap();
            let mapped = Ecmas::default().session(&c, &chip).unwrap().map().unwrap();
            let adjusted = adjust_bandwidth(&chip, mapped.mapping(), &mapped.profiled.comm);
            assert!(adjusted.communication_capacity() < gpm, "{model:?}");
            let resu = mapped.schedule_resu().unwrap().into_outcome();
            assert_eq!(resu.report.bandwidth_adjust, BandwidthDecision::Bounded, "{model:?}");
            assert_eq!(*resu.encoded.chip(), chip, "{model:?}: the base chip is scheduled");
        }
    }

    /// Algorithm 1 with the bandwidth-adjust candidate run whenever the
    /// adjustment changes the chip, bound or no bound: the reference the
    /// depth-bound skip must agree with. Returns the kept schedule, the
    /// base schedule's Δ and whether the adjustment changed the chip.
    fn schedule_always_running_candidate(mapped: &Mapped<'_>) -> (EncodedCircuit, u64, bool) {
        let profiled = &mapped.profiled;
        let config =
            ScheduleConfig { order: profiled.config.order, cut_policy: profiled.config.cut_policy };
        let run = |chip: &Arc<Chip>| {
            schedule_limited(&profiled.dag, chip, &mapped.mapping, mapped.cuts.as_deref(), config)
                .unwrap()
                .0
        };
        let base = run(&profiled.chip);
        let base_cycles = base.cycles();
        let adjusted = adjust_bandwidth(&profiled.chip, &mapped.mapping, &profiled.comm);
        if adjusted == *profiled.chip {
            return (base, base_cycles, false);
        }
        let candidate = run(&Arc::new(adjusted));
        let kept = if candidate.cycles() < base_cycles { candidate } else { base };
        (kept, base_cycles, true)
    }

    #[test]
    fn depth_bound_keeps_every_table1_schedule_on_wide_chips() {
        use crate::stable::fingerprint_encoded;
        for c in benchmarks::table1_suite() {
            for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
                let chip = Chip::four_x(model, c.qubits(), 3).unwrap();
                let mapped = Ecmas::default().session(&c, &chip).unwrap().map().unwrap();
                let (reference, base_cycles, adjusted) = schedule_always_running_candidate(&mapped);
                let scheduled = mapped.schedule().unwrap();
                let row = format!("{}/{model:?}", c.name());
                assert_eq!(scheduled.report().cycles, reference.cycles(), "{row}");
                assert_eq!(
                    fingerprint_encoded(scheduled.encoded()),
                    fingerprint_encoded(&reference),
                    "{row}"
                );
                assert!(base_cycles >= c.depth() as u64, "{row}: Δ below α");
                let bounded = adjusted && base_cycles == c.depth() as u64;
                assert_eq!(
                    scheduled.report().bandwidth_adjust == BandwidthDecision::Bounded,
                    bounded,
                    "{row}"
                );
            }
        }
    }

    #[test]
    fn adjust_candidate_is_reported_on_wide_chips() {
        let c = benchmarks::dnn_n8();
        let chip = Chip::four_x(CodeModel::DoubleDefect, 8, 3).unwrap();
        let on = Ecmas::default().compile_outcome(&c, &chip).unwrap();
        assert_eq!(on.report.bandwidth_adjust, BandwidthDecision::Bounded);
        let off = Ecmas::new(EcmasConfig { adjust_bandwidth: false, ..EcmasConfig::default() })
            .compile_outcome(&c, &chip)
            .unwrap();
        assert_eq!(off.report.bandwidth_adjust, BandwidthDecision::Disabled);
    }
}
