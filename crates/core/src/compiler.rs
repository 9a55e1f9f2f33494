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
        // Capacity is the live tile count: 12 slots with 4 dead hold 8.
        let holey = Chip::uniform(CodeModel::LatticeSurgery, 3, 4, 1, 3)
            .unwrap()
            .with_defects(&[(0, 0), (1, 1), (2, 2), (0, 3)])
            .unwrap();
        assert!(matches!(
            Ecmas::default().compile_auto(&c, &holey),
            Err(CompileError::TooManyQubits { qubits: 10, slots: 8 })
        ));
    }
}
