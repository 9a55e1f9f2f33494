//! The Ecmas compiler facade: pre-processing + transforming (Fig. 9).

use ecmas_chip::Chip;
use ecmas_circuit::Circuit;

use crate::cut::CutInitStrategy;
use crate::encoded::EncodedCircuit;
use crate::engine::{CutPolicy, GateOrder};
use crate::error::CompileError;
use crate::mapping::LocationStrategy;
use crate::session::{CompileOutcome, Profiled};

/// Compiler configuration: every knob the paper ablates, with the paper's
/// choices as [`Default`].
///
/// # Example
///
/// ```
/// use ecmas::{Ecmas, EcmasConfig};
/// use ecmas_chip::{Chip, CodeModel};
/// use ecmas_circuit::benchmarks::ghz;
///
/// let circuit = ghz(9);
/// let chip = Chip::min_viable(CodeModel::LatticeSurgery, 9, 3)?;
/// let encoded = Ecmas::new(EcmasConfig::default()).compile(&circuit, &chip)?;
/// assert_eq!(encoded.cycles() as usize, circuit.depth()); // Δ = α here
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EcmasConfig {
    /// Initial tile-location strategy (Table II).
    pub location: LocationStrategy,
    /// Initial cut-type strategy for double defect (Table III).
    pub cut_init: CutInitStrategy,
    /// Gate ordering within a cycle (Table IV).
    pub order: GateOrder,
    /// Same-cut-type decision policy (Table V).
    pub cut_policy: CutPolicy,
}

impl Default for EcmasConfig {
    fn default() -> Self {
        EcmasConfig {
            location: LocationStrategy::Ecmas { restarts: 8, seed: 0xEC4A5 },
            cut_init: CutInitStrategy::GreedyBipartitePrefix,
            order: GateOrder::Priority,
            cut_policy: CutPolicy::Adaptive,
        }
    }
}

/// An ordered set of heterogeneous candidate target chips for
/// [`Ecmas::compile_auto_fleet`].
///
/// A fleet models a hardware pool: several chips of different sizes,
/// bandwidths, code models, or defect masks, any of which could host a
/// job. Selection is cheapest-first by [`Chip::physical_qubits`] (ties
/// broken by insertion order), so a job lands on the smallest target
/// whose live capacity fits it — larger chips are held for jobs that
/// need them.
///
/// # Example
///
/// ```
/// use ecmas::{ChipFleet, Ecmas};
/// use ecmas_chip::{Chip, CodeModel};
/// use ecmas_circuit::benchmarks::ghz;
///
/// let fleet = ChipFleet::new(vec![
///     Chip::uniform(CodeModel::LatticeSurgery, 2, 2, 1, 3)?, // too small
///     Chip::min_viable(CodeModel::LatticeSurgery, 9, 3)?,
/// ]);
/// let selected = Ecmas::default().compile_auto_fleet(&ghz(9), &fleet)?;
/// assert_eq!(selected.chip_index, 1); // the 2x2 chip cannot hold 9 qubits
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct ChipFleet {
    chips: Vec<Chip>,
    by_cost: Vec<usize>,
}

impl ChipFleet {
    /// Builds a fleet from candidate chips (insertion order is the
    /// identity callers see in [`FleetSelection::chip_index`]). An empty
    /// fleet is allowed; compiling against it reports
    /// [`CompileError::FleetExhausted`].
    #[must_use]
    pub fn new(chips: Vec<Chip>) -> Self {
        let mut by_cost: Vec<usize> = (0..chips.len()).collect();
        by_cost.sort_by_key(|&i| chips[i].physical_qubits());
        ChipFleet { chips, by_cost }
    }

    /// The candidate chips in insertion order.
    #[must_use]
    pub fn chips(&self) -> &[Chip] {
        &self.chips
    }

    /// Candidate indices cheapest-first (the order
    /// [`Ecmas::compile_auto_fleet`] tries them).
    #[must_use]
    pub fn cost_order(&self) -> &[usize] {
        &self.by_cost
    }

    /// Number of candidate chips.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// Whether the fleet has no candidates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }
}

/// What [`Ecmas::compile_auto_fleet`] returns: which candidate won and
/// the compilation outcome on it.
#[derive(Clone, Debug)]
pub struct FleetSelection {
    /// Index of the winning chip in [`ChipFleet::chips`] (insertion
    /// order, not cost order).
    pub chip_index: usize,
    /// The outcome compiled on that chip.
    pub outcome: CompileOutcome,
}

/// The resource-adaptive mapping-and-scheduling compiler (§IV).
///
/// [`session`](Self::session) starts the staged pipeline (profile → map →
/// schedule, with per-stage artifacts — see [`crate::session`]); its
/// `schedule_resu` runs Ecmas-ReSu (Algorithm 2) on a
/// sufficient-resources chip (see [`Chip::sufficient`]). The one-shot
/// entry points are thin wrappers over it: [`compile`](Self::compile)
/// runs the limited-resources pipeline (Algorithm 1), and
/// [`compile_auto`](Self::compile_auto) makes the paper's limited-vs-ReSu
/// choice from the chip's communication capacity and returns the outcome
/// with its structured report.
#[derive(Clone, Debug, Default)]
pub struct Ecmas {
    config: EcmasConfig,
}

impl Ecmas {
    /// Creates a compiler with the given configuration.
    #[must_use]
    pub fn new(config: EcmasConfig) -> Self {
        Ecmas { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &EcmasConfig {
        &self.config
    }

    /// Starts a staged compilation session: profiling runs immediately and
    /// the returned [`Profiled`] stage exposes `ĝPM` before mapping and
    /// scheduling (see [`crate::session`]).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::TooManyQubits`] if the circuit does not fit
    /// the chip.
    pub fn session<'c>(
        &self,
        circuit: &'c Circuit,
        chip: &Chip,
    ) -> Result<Profiled<'c>, CompileError> {
        Profiled::start(self.config, circuit, chip)
    }

    /// Full pipeline for limited resources: profile, map, initialize cut
    /// types, schedule with Algorithm 1. A thin wrapper over
    /// [`session`](Self::session) that discards the report.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::TooManyQubits`] if the circuit does not fit
    /// the chip, or a scheduling error on internal model violations.
    pub fn compile(&self, circuit: &Circuit, chip: &Chip) -> Result<EncodedCircuit, CompileError> {
        Ok(self.session(circuit, chip)?.map()?.schedule()?.into_outcome().encoded)
    }

    /// The paper's resource-adaptive entry point (Fig. 9): compares the
    /// chip's communication capacity against the profiled `ĝPM` and runs
    /// Ecmas-ReSu when resources are sufficient, Algorithm 1 otherwise.
    /// Returns the encoded circuit together with its [`CompileReport`]
    /// (which records the choice).
    ///
    /// [`CompileReport`]: crate::session::CompileReport
    ///
    /// # Errors
    ///
    /// As [`compile`](Self::compile).
    pub fn compile_auto(
        &self,
        circuit: &Circuit,
        chip: &Chip,
    ) -> Result<CompileOutcome, CompileError> {
        Ok(self.session(circuit, chip)?.map()?.schedule_auto()?.into_outcome())
    }

    /// Heterogeneous target selection: tries the fleet's candidates
    /// cheapest-first (by [`Chip::physical_qubits`]), skips chips whose
    /// live tile capacity cannot hold the circuit, and runs
    /// [`compile_auto`](Self::compile_auto) on each remaining candidate
    /// until one succeeds. A candidate that fails to compile (e.g. a
    /// routing stall on a heavily defective chip) is fallen through, not
    /// fatal — the next-cheapest chip gets the job.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::FleetExhausted`] when no candidate fits or
    /// every fitting candidate failed to compile.
    pub fn compile_auto_fleet(
        &self,
        circuit: &Circuit,
        fleet: &ChipFleet,
    ) -> Result<FleetSelection, CompileError> {
        let qubits = circuit.qubits();
        for &chip_index in fleet.cost_order() {
            let chip = &fleet.chips()[chip_index];
            if qubits > chip.live_tiles() {
                continue;
            }
            if let Ok(outcome) = self.compile_auto(circuit, chip) {
                return Ok(FleetSelection { chip_index, outcome });
            }
        }
        Err(CompileError::FleetExhausted { candidates: fleet.len(), qubits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoded::validate_encoded;
    use ecmas_chip::CodeModel;
    use ecmas_circuit::benchmarks;

    #[test]
    fn default_pipeline_compiles_and_validates_dd() {
        let c = benchmarks::ising_n10();
        let chip = Chip::min_viable(CodeModel::DoubleDefect, 10, 3).unwrap();
        let enc = Ecmas::default().compile(&c, &chip).unwrap();
        validate_encoded(&c, &enc).unwrap();
        assert_eq!(enc.cycles() as usize, c.depth(), "bipartite ising hits α");
    }

    #[test]
    fn default_pipeline_compiles_and_validates_ls() {
        let c = benchmarks::ising_n10();
        let chip = Chip::min_viable(CodeModel::LatticeSurgery, 10, 3).unwrap();
        let enc = Ecmas::default().compile(&c, &chip).unwrap();
        validate_encoded(&c, &enc).unwrap();
        assert!(enc.cycles() as usize >= c.depth());
    }

    #[test]
    fn resu_ls_hits_alpha() {
        let c = benchmarks::dnn_n8();
        let scheme = crate::para_finding(&c.dag());
        let chip = Chip::sufficient(CodeModel::LatticeSurgery, 8, scheme.gpm(), 3).unwrap();
        let mapped = Ecmas::default().session(&c, &chip).unwrap().map().unwrap();
        let enc = mapped.schedule_resu().unwrap().into_outcome().encoded;
        validate_encoded(&c, &enc).unwrap();
        assert_eq!(enc.cycles() as usize, c.depth());
    }

    #[test]
    fn qubits_overflow_is_reported() {
        let c = benchmarks::qft_n10();
        let chip = Chip::uniform(CodeModel::DoubleDefect, 2, 2, 1, 3).unwrap();
        assert!(matches!(
            Ecmas::default().compile(&c, &chip),
            Err(CompileError::TooManyQubits { qubits: 10, slots: 4 })
        ));
    }

    #[test]
    fn fleet_skips_chips_without_live_capacity() {
        let c = benchmarks::ising_n10();
        // Cheapest candidate has 12 slots but only 8 live — it must be
        // skipped even though it is first in cost order.
        let holey = Chip::uniform(CodeModel::LatticeSurgery, 3, 4, 1, 3)
            .unwrap()
            .with_defects(&[(0, 0), (1, 1), (2, 2), (0, 3)])
            .unwrap();
        let big = Chip::uniform(CodeModel::LatticeSurgery, 4, 4, 1, 3).unwrap();
        assert!(holey.physical_qubits() < big.physical_qubits());
        let fleet = ChipFleet::new(vec![holey, big]);
        let selected = Ecmas::default().compile_auto_fleet(&c, &fleet).unwrap();
        assert_eq!(selected.chip_index, 1);
        validate_encoded(&c, &selected.outcome.encoded).unwrap();
    }

    #[test]
    fn fleet_prefers_the_cheapest_fitting_chip() {
        let c = benchmarks::ising_n10();
        let small = Chip::uniform(CodeModel::LatticeSurgery, 3, 4, 1, 3).unwrap();
        let big = Chip::uniform(CodeModel::LatticeSurgery, 8, 8, 2, 3).unwrap();
        // Insertion order is expensive-first; cost order must win.
        let fleet = ChipFleet::new(vec![big, small]);
        assert_eq!(fleet.cost_order(), &[1, 0]);
        let selected = Ecmas::default().compile_auto_fleet(&c, &fleet).unwrap();
        assert_eq!(selected.chip_index, 1);
    }

    #[test]
    fn exhausted_fleet_is_reported() {
        let c = benchmarks::qft_n10();
        let tiny = Chip::uniform(CodeModel::DoubleDefect, 2, 2, 1, 3).unwrap();
        let fleet = ChipFleet::new(vec![tiny]);
        assert!(matches!(
            Ecmas::default().compile_auto_fleet(&c, &fleet),
            Err(CompileError::FleetExhausted { candidates: 1, qubits: 10 })
        ));
        let empty = ChipFleet::new(Vec::new());
        assert!(matches!(
            Ecmas::default().compile_auto_fleet(&c, &empty),
            Err(CompileError::FleetExhausted { candidates: 0, qubits: 10 })
        ));
    }
}
