//! Reimplementations of the paper's two state-of-the-art baselines.
//!
//! * [`AutoBraid`] (Hua et al., MICRO '21) for the double-defect model:
//!   criticality-driven scheduling of braiding paths. Two properties the
//!   Ecmas paper singles out are modeled faithfully:
//!   1. **No cut-type awareness** — all tiles are created with the same
//!      cut type, so *every* CNOT is a 3-cycle direct execution. This is
//!      the source of the `≈ 3α` signature visible in the paper's Table I
//!      AutoBraid column.
//!   2. **Whole-channel path occupation** — channels are used as a single
//!      lane no matter how wide they are (the motivating observation of
//!      the Ecmas paper), so extra chip resources do not help.
//! * [`Edpci`] (Beverland et al., PRX Quantum 3, 020342) for lattice
//!   surgery: long-range CNOTs in one clock cycle via edge-disjoint
//!   Bell-state paths, with the *trivial snake mapping* the Ecmas paper
//!   criticizes — which is why EDPCI sometimes gets *worse* when the chip
//!   grows (the qubits just move farther apart).
//!
//! Both reuse the workspace's scheduling engine and routing substrate, so
//! their outputs pass the same independent [`validate_encoded`] checker as
//! Ecmas itself — and both implement the workspace-wide
//! [`ecmas::Compiler`] trait, so harnesses (and
//! [`ecmas::compile_jobs`]) drive all three compilers through one
//! interface.
//!
//! [`validate_encoded`]: ecmas::encoded::validate_encoded
//!
//! # Example
//!
//! ```
//! use ecmas_baselines::AutoBraid;
//! use ecmas_chip::{Chip, CodeModel};
//! use ecmas_circuit::benchmarks::ghz;
//!
//! let circuit = ghz(9);
//! let chip = Chip::min_viable(CodeModel::DoubleDefect, 9, 3)?;
//! let encoded = AutoBraid::new().compile(&circuit, &chip)?;
//! // Every CNOT costs 3 cycles on the chain: the 3α signature.
//! assert_eq!(encoded.cycles() as usize, 3 * circuit.depth());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use std::time::Instant;

use ecmas::cut::CutType;
use ecmas::encoded::EncodedCircuit;
use ecmas::engine::{schedule_limited, CutPolicy, GateOrder, ScheduleConfig};
use ecmas::error::CompileError;
use ecmas::mapping::snake_mapping;
use ecmas::session::{
    Algorithm, BandwidthDecision, CacheInfo, CompileReport, RouterStats, StageTimings,
};
use ecmas::ResourceEstimate;
use ecmas::{CompileOutcome, Compiler};
use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::Circuit;

/// Assembles the baseline [`CompileReport`]: baselines run no profiling,
/// so `gpm`/`placement_restarts` are 0, and like every report the
/// adjust decision is [`BandwidthDecision::Disabled`]; the router counters
/// and stage timings are real. `capacity` is the *target* chip's
/// communication capacity (not the internal clamped/dense view's), so
/// reports stay comparable across compilers on the same hardware — and
/// the [`ResourceEstimate`] is likewise computed against the target
/// chip, so per-job footprints are comparable too.
fn baseline_outcome(
    circuit: &Circuit,
    chip: &Chip,
    encoded: EncodedCircuit,
    stats: RouterStats,
    capacity: usize,
    map_time: std::time::Duration,
    schedule_time: std::time::Duration,
) -> CompileOutcome {
    let resources = ResourceEstimate::compute(
        chip,
        circuit.qubits(),
        circuit.cnot_count(),
        0,
        encoded.cycles(),
        &stats,
    );
    let report = CompileReport {
        algorithm: Algorithm::Limited,
        timings: StageTimings {
            profile: std::time::Duration::ZERO,
            map: map_time,
            schedule: schedule_time,
        },
        gpm: 0,
        capacity,
        placement_restarts: 0,
        bandwidth_adjust: BandwidthDecision::Disabled,
        router: stats,
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

/// The AutoBraid baseline compiler (double defect).
///
/// See the [module docs](self) for the modeling choices.
#[derive(Clone, Copy, Debug, Default)]
pub struct AutoBraid {
    _private: (),
}

impl AutoBraid {
    /// Creates the baseline with its canonical settings.
    #[must_use]
    pub fn new() -> Self {
        AutoBraid { _private: () }
    }

    /// Compiles `circuit` for the double-defect model on `chip`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::TooManyQubits`] when the circuit does not
    /// fit, or an internal scheduling error.
    pub fn compile(&self, circuit: &Circuit, chip: &Chip) -> Result<EncodedCircuit, CompileError> {
        Ok(self.compile_outcome(circuit, chip)?.encoded)
    }
}

impl Compiler for AutoBraid {
    fn name(&self) -> &'static str {
        "autobraid"
    }

    fn compile_outcome(
        &self,
        circuit: &Circuit,
        chip: &Chip,
    ) -> Result<CompileOutcome, CompileError> {
        let n = circuit.qubits();
        if n > chip.tile_slots() {
            return Err(CompileError::TooManyQubits { qubits: n, slots: chip.tile_slots() });
        }
        let t_map = Instant::now();
        // Whole-channel occupation: operate on a bandwidth-1 view of the
        // chip regardless of its real channel widths.
        let clamped = Chip::uniform(
            CodeModel::DoubleDefect,
            chip.tile_rows(),
            chip.tile_cols(),
            1,
            chip.code_distance(),
        )?;
        let mapping = snake_mapping(n, &clamped);
        let cuts = vec![CutType::X; n];
        let map_time = t_map.elapsed();
        let t_schedule = Instant::now();
        let (encoded, stats) = schedule_limited(
            &circuit.dag(),
            &Arc::new(clamped),
            &mapping,
            Some(&cuts),
            ScheduleConfig { order: GateOrder::Priority, cut_policy: CutPolicy::NeverModify },
        )?;
        let capacity = chip.communication_capacity();
        Ok(baseline_outcome(
            circuit,
            chip,
            encoded,
            stats,
            capacity,
            map_time,
            t_schedule.elapsed(),
        ))
    }
}

/// The EDPCI baseline compiler (lattice surgery).
///
/// See the [module docs](self) for the modeling choices.
#[derive(Clone, Copy, Debug, Default)]
pub struct Edpci {
    _private: (),
}

impl Edpci {
    /// Creates the baseline with its canonical settings.
    #[must_use]
    pub fn new() -> Self {
        Edpci { _private: () }
    }

    /// Compiles `circuit` for the lattice-surgery model on `chip`.
    ///
    /// EDPC has no notion of software-defined channel widths: every tile of
    /// the chip is uniformly a data slot or an ancilla. A chip with wide
    /// channels is therefore re-read as a *denser* array of unit-bandwidth
    /// tiles covering the same physical area, and the snake spreads the
    /// qubits across all of it — which is exactly why the Ecmas paper
    /// observes that EDPCI fails to capitalize on (and can even lose from)
    /// extra chip resources.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::TooManyQubits`] when the circuit does not
    /// fit, or an internal scheduling error.
    pub fn compile(&self, circuit: &Circuit, chip: &Chip) -> Result<EncodedCircuit, CompileError> {
        Ok(self.compile_outcome(circuit, chip)?.encoded)
    }

    /// Converts a chip into the equivalent-area array of tiles with
    /// unit-bandwidth channels: in tile-width units one side measures
    /// `R + Σ bandwidths`, and a dense array of `R'` slots with b=1
    /// channels measures `2·R' + 1`.
    fn dense_view(chip: &Chip) -> Result<Chip, CompileError> {
        let width_units = |tiles: usize, lanes: u32| tiles + lanes as usize;
        let h: u32 = chip.h_bandwidths().iter().sum();
        let v: u32 = chip.v_bandwidths().iter().sum();
        let rows = (width_units(chip.tile_rows(), h).saturating_sub(1)) / 2;
        let cols = (width_units(chip.tile_cols(), v).saturating_sub(1)) / 2;
        Ok(Chip::uniform(
            CodeModel::LatticeSurgery,
            rows.max(chip.tile_rows()),
            cols.max(chip.tile_cols()),
            1,
            chip.code_distance(),
        )?)
    }
}

impl Compiler for Edpci {
    fn name(&self) -> &'static str {
        "edpci"
    }

    fn compile_outcome(
        &self,
        circuit: &Circuit,
        chip: &Chip,
    ) -> Result<CompileOutcome, CompileError> {
        let n = circuit.qubits();
        if n > chip.tile_slots() {
            return Err(CompileError::TooManyQubits { qubits: n, slots: chip.tile_slots() });
        }
        let t_map = Instant::now();
        let dense = Self::dense_view(chip)?;
        let mapping = snake_mapping(n, &dense);
        let map_time = t_map.elapsed();
        let t_schedule = Instant::now();
        let (encoded, stats) = schedule_limited(
            &circuit.dag(),
            &Arc::new(dense),
            &mapping,
            None,
            ScheduleConfig { order: GateOrder::Priority, cut_policy: CutPolicy::NeverModify },
        )?;
        let capacity = chip.communication_capacity();
        Ok(baseline_outcome(
            circuit,
            chip,
            encoded,
            stats,
            capacity,
            map_time,
            t_schedule.elapsed(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecmas::encoded::validate_encoded;
    use ecmas_circuit::benchmarks;

    #[test]
    fn autobraid_is_three_alpha_on_serial_circuits() {
        for c in [benchmarks::ghz(9), benchmarks::bv(10, 5)] {
            let chip = Chip::min_viable(CodeModel::DoubleDefect, c.qubits(), 3).unwrap();
            let enc = AutoBraid::new().compile(&c, &chip).unwrap();
            assert_eq!(
                enc.cycles() as usize,
                3 * c.depth(),
                "{}: serial circuits show the exact 3α signature",
                c.name()
            );
            validate_encoded(&c, &enc).unwrap();
        }
    }

    #[test]
    fn autobraid_ignores_extra_bandwidth() {
        let c = benchmarks::dnn_n8();
        let min = Chip::min_viable(CodeModel::DoubleDefect, 8, 3).unwrap();
        let wide = Chip::four_x(CodeModel::DoubleDefect, 8, 3).unwrap();
        let on_min = AutoBraid::new().compile(&c, &min).unwrap();
        let on_wide = AutoBraid::new().compile(&c, &wide).unwrap();
        assert_eq!(
            on_min.cycles(),
            on_wide.cycles(),
            "whole-channel occupation: wider channels change nothing"
        );
    }

    #[test]
    fn autobraid_never_modifies_cut_types() {
        let c = benchmarks::qft(8);
        let chip = Chip::min_viable(CodeModel::DoubleDefect, 8, 3).unwrap();
        let enc = AutoBraid::new().compile(&c, &chip).unwrap();
        assert_eq!(enc.modification_count(), 0);
        validate_encoded(&c, &enc).unwrap();
    }

    #[test]
    fn edpci_handles_snake_friendly_circuits_optimally() {
        // The ising chain is exactly the snake's best case: all CNOT pairs
        // adjacent after mapping.
        let c = benchmarks::ising_n10();
        let chip = Chip::min_viable(CodeModel::LatticeSurgery, 10, 3).unwrap();
        let enc = Edpci::new().compile(&c, &chip).unwrap();
        assert_eq!(enc.cycles() as usize, c.depth(), "snake-friendly ising runs at α");
        validate_encoded(&c, &enc).unwrap();
    }

    #[test]
    fn edpci_validates_on_nontrivial_benchmarks() {
        for c in [benchmarks::qft_n10(), benchmarks::swap_test_n25()] {
            let chip = Chip::min_viable(CodeModel::LatticeSurgery, c.qubits(), 3).unwrap();
            let enc = Edpci::new().compile(&c, &chip).unwrap();
            validate_encoded(&c, &enc).unwrap();
            assert!(enc.cycles() as usize >= c.depth());
        }
    }

    #[test]
    fn trait_outcomes_match_inherent_compiles_and_carry_stats() {
        let c = benchmarks::qft(8);
        let dd = Chip::min_viable(CodeModel::DoubleDefect, 8, 3).unwrap();
        let ls = Chip::min_viable(CodeModel::LatticeSurgery, 8, 3).unwrap();
        let compilers: [(&dyn Compiler, &Chip); 2] =
            [(&AutoBraid::new(), &dd), (&Edpci::new(), &ls)];
        for (compiler, chip) in compilers {
            let outcome = compiler.compile_outcome(&c, chip).unwrap();
            validate_encoded(&c, &outcome.encoded).unwrap();
            assert_eq!(outcome.report.cycles, outcome.encoded.cycles());
            assert!(outcome.report.router.paths_found > 0, "{}", compiler.name());
            assert_eq!(outcome.report.gpm, 0, "baselines do not profile");
        }
        assert_eq!(AutoBraid::new().name(), "autobraid");
        assert_eq!(Edpci::new().name(), "edpci");
    }

    #[test]
    fn both_reject_oversized_circuits() {
        let c = benchmarks::qft_n10();
        let tiny_dd = Chip::uniform(CodeModel::DoubleDefect, 2, 2, 1, 3).unwrap();
        let tiny_ls = Chip::uniform(CodeModel::LatticeSurgery, 2, 2, 1, 3).unwrap();
        assert!(matches!(
            AutoBraid::new().compile(&c, &tiny_dd),
            Err(CompileError::TooManyQubits { .. })
        ));
        assert!(matches!(
            Edpci::new().compile(&c, &tiny_ls),
            Err(CompileError::TooManyQubits { .. })
        ));
    }
}
