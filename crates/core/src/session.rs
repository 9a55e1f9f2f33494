//! The staged compilation-session API (paper Fig. 9 as typed stages).
//!
//! [`Ecmas::session`] starts a pipeline that advances through three typed
//! stages, each exposing its artifact before the next stage runs:
//!
//! * [`Profiled`] — the circuit's DAG, communication graph, and
//!   Para-Finding execution scheme (`ĝPM`).
//! * [`Mapped`] — the qubit → tile mapping and (double defect) the initial
//!   cut types, both chosen by the [`EcmasConfig`](crate::EcmasConfig)
//!   strategies (the Table II/III ablations).
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
//! `compile_jobs` fans independent compilations across scoped threads.
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
use crate::diag::{diagnostics_to_json, object, Diagnostic};
use crate::encoded::EncodedCircuit;
use crate::engine::{schedule_limited, ScheduleConfig};
use crate::error::CompileError;
use crate::mapping::{initial_mapping, LocationStrategy};
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

/// The report's `bandwidth_adjust` field. The paper's bandwidth-adjusting
/// step (§IV-B1, Fig. 10c) is not implemented (DESIGN.md, "Bandwidth
/// adjusting is not implemented"), so every report says
/// [`Disabled`](Self::Disabled).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BandwidthDecision {
    /// No bandwidth adjustment ran: the label of every report.
    Disabled,
    /// Never produced. Kept only because the repository benchmark
    /// (`benchmark/src/paper_suite.rs`) still names it.
    Adopted,
    /// Never produced. Kept only because the repository benchmark
    /// (`benchmark/src/paper_suite.rs`) still names it.
    Rejected,
}

impl BandwidthDecision {
    /// Stable lowercase label (used in reports and JSON).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BandwidthDecision::Disabled => "disabled",
            BandwidthDecision::Adopted => "adopted",
            BandwidthDecision::Rejected => "rejected",
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
    /// Scheduling.
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
/// a cache (direct `Ecmas` calls, `compile_jobs`, services configured
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
    /// Full-result cache hits so far. A request that waited on an
    /// identical in-flight compile counts in
    /// [`coalesced_waits`](Self::coalesced_waits) instead.
    pub hits: u64,
    /// Full-result cache misses so far.
    pub misses: u64,
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
    /// Randomized placement restarts actually performed (0 when the
    /// strategy is deterministic, e.g. the trivial snake, and for the
    /// baselines).
    pub placement_restarts: usize,
    /// Always [`BandwidthDecision::Disabled`]: bandwidth adjusting is not
    /// implemented. Kept so the JSON schema keeps its `bandwidth_adjust`
    /// key.
    pub bandwidth_adjust: BandwidthDecision,
    /// Router effort/conflict counters of the scheduling run.
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
        let ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3);
        let (t, r, c) = (&self.timings, &self.router, &self.cache);
        let json = object()
            .str("algorithm", self.algorithm.label())
            .field("cycles", self.cycles)
            .field("events", self.events)
            .field("cut_modifications", self.cut_modifications)
            .field("gpm", self.gpm)
            .field("capacity", self.capacity)
            .field("placement_restarts", self.placement_restarts)
            .str("bandwidth_adjust", self.bandwidth_adjust.label())
            .field(
                "timings_ms",
                object()
                    .field("profile", ms(t.profile))
                    .field("map", ms(t.map))
                    .field("schedule", ms(t.schedule))
                    .field("total", ms(t.total())),
            )
            .field(
                "router",
                object()
                    .field("paths_found", r.paths_found)
                    .field("conflicts", r.conflicts)
                    .field("cells_expanded", r.cells_expanded)
                    .field("pruned_expansions", r.pruned_expansions)
                    .field("path_cells", r.path_cells)
                    .field("peak_cycle_path_cells", r.peak_cycle_path_cells)
                    .field("failed_searches", r.failed_searches)
                    .field("cache_hits", r.cache_hits)
                    .field("recolor_cells", r.recolor_cells),
            )
            .field(
                "cache",
                object()
                    .str("source", c.source.label())
                    .field("hits", c.hits)
                    .field("misses", c.misses)
                    .field("evictions", c.evictions)
                    .field("resident_bytes", c.resident_bytes)
                    .field("coalesced_waits", c.coalesced_waits),
            )
            .field("resources", self.resources.to_json())
            .field("diagnostics", diagnostics_to_json(&self.diagnostics))
            .field("attempts", self.attempts);
        match &self.last_fault {
            Some(fault) => json.str("last_fault", fault),
            None => json.field("last_fault", "null"),
        }
        .to_string()
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

impl CompileOutcome {
    /// The outcome of a direct compilation of `circuit` for the target
    /// `chip`: `scheduled` is the scheduler's result, and the report's
    /// capacity and [`ResourceEstimate`] are computed against `chip`. No
    /// cache, analyzer or retry was involved, so the report carries
    /// [`CacheInfo::disabled`], no diagnostics and one attempt.
    #[must_use]
    pub fn direct(
        algorithm: Algorithm,
        circuit: &Circuit,
        chip: &Chip,
        (encoded, router): (EncodedCircuit, RouterStats),
        gpm: usize,
        placement_restarts: usize,
        timings: StageTimings,
    ) -> Self {
        let resources = ResourceEstimate::compute(
            chip,
            circuit.qubits(),
            circuit.cnot_count(),
            placement_restarts,
            encoded.cycles(),
            &router,
        );
        let report = CompileReport {
            algorithm,
            timings,
            gpm,
            capacity: chip.communication_capacity(),
            placement_restarts,
            bandwidth_adjust: BandwidthDecision::Disabled,
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
        CompileOutcome { encoded, report }
    }
}

/// The workspace-wide compiler interface: every compiler — `Ecmas` and
/// the baselines — turns a circuit + chip into a [`CompileOutcome`].
///
/// Object-safe, so harnesses can hold `&dyn Compiler` and benchmark all
/// compilers through one code path; `Sync` implementors work with the
/// `ecmas-serve` service layer (`compile_jobs`, `CompileService`).
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

/// Stage 1 — the profiled circuit: DAG, communication graph, and the
/// Para-Finding execution scheme. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Profiled<'c> {
    config: crate::compiler::EcmasConfig,
    circuit: &'c Circuit,
    // Shared, not owned: this one Arc flows through the scheduling run
    // into the resulting `EncodedCircuit`, so a compilation clones the
    // chip exactly once (here).
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
        Ok(Mapped { profiled: self, mapping, cuts, placement_restarts, map_time: t.elapsed() })
    }
}

/// Stage 2 — the mapped circuit: qubit → tile assignment plus (double
/// defect) initial cut types.
#[derive(Clone, Debug)]
pub struct Mapped<'c> {
    profiled: Profiled<'c>,
    mapping: Vec<usize>,
    cuts: Option<Vec<CutType>>,
    placement_restarts: usize,
    map_time: Duration,
}

impl<'c> Mapped<'c> {
    /// The qubit → tile-slot mapping.
    #[must_use]
    pub fn mapping(&self) -> &[usize] {
        &self.mapping
    }

    /// The pipeline's initial cut types (`None` for lattice surgery).
    ///
    /// These are what [`schedule`](Self::schedule) (Algorithm 1) uses.
    /// [`schedule_resu`](Self::schedule_resu) chooses its own first-batch
    /// coloring — the paper's Algorithm 2 treats it as free — so on the
    /// ReSu path the scheduled `initial_cuts()` may differ from this
    /// accessor.
    #[must_use]
    pub fn cuts(&self) -> Option<&[CutType]> {
        self.cuts.as_deref()
    }

    /// Schedules with Algorithm 1 (limited resources).
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
        let scheduled = schedule_limited(
            &self.profiled.dag,
            &self.profiled.chip,
            &self.mapping,
            self.cuts.as_deref(),
            config,
        )?;
        Ok(self.finish(Algorithm::Limited, scheduled, t.elapsed()))
    }

    /// Schedules with Algorithm 2 (Ecmas-ReSu). Intended for chips built
    /// with `Chip::sufficient`; on smaller chips congested layers spill
    /// into extra cycles but the result stays valid. Algorithm 2 chooses
    /// the initial coloring freely (its first batch is free), as the
    /// paper describes.
    ///
    /// # Errors
    ///
    /// As [`schedule`](Self::schedule).
    pub fn schedule_resu(self) -> Result<Scheduled, CompileError> {
        let t = Instant::now();
        let scheduled = schedule_sufficient(
            &self.profiled.dag,
            &self.profiled.scheme,
            &self.profiled.chip,
            &self.mapping,
        )?;
        Ok(self.finish(Algorithm::ReSu, scheduled, t.elapsed()))
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
        scheduled: (EncodedCircuit, RouterStats),
        schedule_time: Duration,
    ) -> Scheduled {
        let Profiled { circuit, chip, scheme, profile_time, .. } = self.profiled;
        let timings =
            StageTimings { profile: profile_time, map: self.map_time, schedule: schedule_time };
        let outcome = CompileOutcome::direct(
            algorithm,
            circuit,
            &chip,
            scheduled,
            scheme.gpm(),
            self.placement_restarts,
            timings,
        );
        Scheduled { outcome }
    }
}

/// Stage 3 — the scheduled circuit: the encoded result plus its report.
#[derive(Clone, Debug)]
pub struct Scheduled {
    outcome: CompileOutcome,
}

impl Scheduled {
    /// Consumes the stage and returns the outcome.
    #[must_use]
    pub fn into_outcome(self) -> CompileOutcome {
        self.outcome
    }
}

/// The widest register the compiler accepts. Placement refinement keeps
/// an `n²` `i64` weight table and the limited scheduler an `n²` `u32`
/// table, 192 MiB together at this width; both grow with the square, so
/// a 200 000-qubit program would ask for 480 GB and abort on the failed
/// allocation. Every width compiled today is at most 200 qubits.
pub const MAX_COMPILE_QUBITS: usize = 4096;

fn check_fit(qubits: usize, chip: &Chip) -> Result<(), CompileError> {
    if qubits > MAX_COMPILE_QUBITS {
        return Err(CompileError::TooWide { qubits, max: MAX_COMPILE_QUBITS });
    }
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
    use crate::cut::CutInitStrategy;
    use crate::encoded::validate_encoded;
    use ecmas_circuit::benchmarks;

    #[test]
    fn staged_equals_one_shot() {
        let c = benchmarks::qft_n10();
        let chip = Chip::min_viable(CodeModel::DoubleDefect, 10, 3).unwrap();
        let compiler = Ecmas::default();
        let one_shot = compiler.compile(&c, &chip).unwrap();
        let staged =
            compiler.session(&c, &chip).unwrap().map().unwrap().schedule().unwrap().into_outcome();
        assert_eq!(staged.encoded.events(), one_shot.events());
        assert_eq!(staged.encoded.mapping(), one_shot.mapping());
        assert_eq!(staged.report.cycles, one_shot.cycles());
    }

    #[test]
    fn report_is_populated() {
        let c = benchmarks::qft_n10();
        let chip = Chip::min_viable(CodeModel::DoubleDefect, 10, 3).unwrap();
        let outcome = Ecmas::default()
            .session(&c, &chip)
            .unwrap()
            .map()
            .unwrap()
            .schedule()
            .unwrap()
            .into_outcome();
        let report = &outcome.report;
        assert_eq!(report.algorithm, Algorithm::Limited);
        assert_eq!(report.capacity, 3);
        assert!(report.gpm >= 1);
        assert_eq!(report.placement_restarts, 8, "the default config's restarts");
        assert!(report.router.paths_found > 0);
        assert_eq!(report.cycles, outcome.encoded.cycles());
        assert_eq!(report.events, outcome.encoded.events().len());
        assert_eq!(report.bandwidth_adjust, BandwidthDecision::Disabled);
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

    /// Table III's all-same cut initialization forces the 3α signature
    /// on a chain: visibly worse than the pipeline's greedy bipartite
    /// coloring, on the same mapping.
    #[test]
    fn all_same_cut_init_costs_cycles_on_a_chain() {
        let c = benchmarks::ghz(4);
        let dd = Chip::min_viable(CodeModel::DoubleDefect, 4, 3).unwrap();
        let map = |cut_init| {
            Ecmas::new(EcmasConfig { cut_init, ..EcmasConfig::default() })
                .session(&c, &dd)
                .unwrap()
                .map()
                .unwrap()
        };
        let all_same = map(CutInitStrategy::AllSame);
        assert_eq!(all_same.cuts(), Some(&[CutType::X; 4][..]));
        let greedy = map(CutInitStrategy::GreedyBipartitePrefix);
        assert_eq!(all_same.mapping(), greedy.mapping());
        let all_same = all_same.schedule().unwrap().into_outcome();
        let greedy = greedy.schedule().unwrap().into_outcome();
        validate_encoded(&c, &all_same.encoded).unwrap();
        assert!(all_same.report.cycles > greedy.report.cycles);
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

    /// ReSu schedules the chip it is given, so a `Chip::sufficient` chip
    /// keeps the capacity Theorem 2 needs (at least ĝPM).
    #[test]
    fn resu_keeps_the_capacity_theorem_2_needs() {
        let c = benchmarks::dnn_n8();
        let gpm = para_finding(&c.dag()).gpm();
        for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
            let chip = Chip::sufficient(model, 8, gpm, 3).unwrap();
            let mapped = Ecmas::default().session(&c, &chip).unwrap().map().unwrap();
            let resu = mapped.schedule_resu().unwrap().into_outcome();
            assert_eq!(*resu.encoded.chip(), chip, "{model:?}: the given chip is scheduled");
            assert!(resu.encoded.chip().communication_capacity() >= gpm, "{model:?}");
            assert_eq!(resu.report.bandwidth_adjust, BandwidthDecision::Disabled, "{model:?}");
        }
    }
}
