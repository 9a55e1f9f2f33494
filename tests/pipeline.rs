//! End-to-end integration tests: every compiler in the workspace, on real
//! benchmarks, cross-checked by the independent schedule validator and by
//! the paper's analytical signatures.

use ecmas::{para_finding, validate_encoded, Compiler, Ecmas, EcmasConfig};
use ecmas_baselines::{AutoBraid, Edpci};
use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::benchmarks;

/// The mid-sized circuits used across these tests (the two 14k-gate rows
/// are exercised by the bench harness instead).
fn suite() -> Vec<ecmas_circuit::Circuit> {
    benchmarks::table1_suite().into_iter().filter(|c| c.cnot_count() <= 1000).collect()
}

#[test]
fn every_compiler_produces_valid_schedules_on_the_suite() {
    // One code path for all three compilers: the workspace-wide trait.
    let ecmas = Ecmas::default();
    let (autobraid, edpci) = (AutoBraid::new(), Edpci::new());
    for circuit in suite() {
        let n = circuit.qubits();
        let dd = Chip::min_viable(CodeModel::DoubleDefect, n, 3).unwrap();
        let ls = Chip::min_viable(CodeModel::LatticeSurgery, n, 3).unwrap();
        let runs: [(&dyn Compiler, &Chip); 4] =
            [(&autobraid, &dd), (&ecmas, &dd), (&edpci, &ls), (&ecmas, &ls)];
        for (compiler, chip) in runs {
            let outcome = compiler.compile_outcome(&circuit, chip).unwrap();
            validate_encoded(&circuit, &outcome.encoded)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", compiler.name(), circuit.name()));
            assert!(
                outcome.report.cycles as usize >= circuit.depth(),
                "{} on {}: Δ below the depth lower bound",
                compiler.name(),
                circuit.name()
            );
            assert_eq!(outcome.report.cycles, outcome.encoded.cycles());
        }
    }
}

#[test]
fn ecmas_dominates_autobraid_on_every_benchmark() {
    // The paper's headline Table I claim (51.5% average reduction). We
    // assert domination per circuit plus a ≥40% aggregate reduction.
    let mut autobraid_total = 0u64;
    let mut ecmas_total = 0u64;
    for circuit in suite() {
        let chip = Chip::min_viable(CodeModel::DoubleDefect, circuit.qubits(), 3).unwrap();
        let ab = AutoBraid::new().compile(&circuit, &chip).unwrap().cycles();
        let ec = Ecmas::default().compile(&circuit, &chip).unwrap().cycles();
        assert!(ec <= ab, "{}: ecmas {ec} > autobraid {ab}", circuit.name());
        autobraid_total += ab;
        ecmas_total += ec;
    }
    let reduction = 1.0 - ecmas_total as f64 / autobraid_total as f64;
    assert!(reduction >= 0.40, "aggregate reduction only {:.1}%", reduction * 100.0);
}

#[test]
fn bipartite_circuits_hit_depth_on_double_defect() {
    // Bipartite communication graph ⇒ perfect cut-type init ⇒ every CNOT
    // braids in one cycle; with light traffic Δ = α exactly.
    for name in ["ising_n10", "ghz_state_n23", "wstate_n27", "bv_n10"] {
        let circuit = benchmarks::by_name(name).unwrap();
        assert!(circuit.comm_graph().bipartition().is_some(), "{name} must be bipartite");
        let chip = Chip::min_viable(CodeModel::DoubleDefect, circuit.qubits(), 3).unwrap();
        let enc = Ecmas::default().compile(&circuit, &chip).unwrap();
        assert_eq!(enc.cycles() as usize, circuit.depth(), "{name}");
    }
}

#[test]
fn autobraid_shows_three_alpha_signature() {
    for name in ["ghz_state_n23", "bv_n50", "qpe_n9", "ising_n10"] {
        let circuit = benchmarks::by_name(name).unwrap();
        let chip = Chip::min_viable(CodeModel::DoubleDefect, circuit.qubits(), 3).unwrap();
        let enc = AutoBraid::new().compile(&circuit, &chip).unwrap();
        assert_eq!(enc.cycles() as usize, 3 * circuit.depth(), "{name}");
    }
}

#[test]
fn lattice_surgery_resu_is_depth_optimal_on_the_suite() {
    for circuit in suite() {
        let scheme = para_finding(&circuit.dag());
        let chip =
            Chip::sufficient(CodeModel::LatticeSurgery, circuit.qubits(), scheme.gpm(), 3).unwrap();
        let mapped = Ecmas::default().session(&circuit, &chip).unwrap().map().unwrap();
        let enc = mapped.schedule_resu().unwrap().into_outcome().encoded;
        validate_encoded(&circuit, &enc).unwrap();
        assert_eq!(
            enc.cycles() as usize,
            circuit.depth(),
            "{}: LS ReSu must hit α",
            circuit.name()
        );
    }
}

#[test]
fn double_defect_resu_meets_the_approximation_bound() {
    for circuit in suite() {
        let scheme = para_finding(&circuit.dag());
        let chip =
            Chip::sufficient(CodeModel::DoubleDefect, circuit.qubits(), scheme.gpm(), 3).unwrap();
        let mapped = Ecmas::default().session(&circuit, &chip).unwrap().map().unwrap();
        let enc = mapped.schedule_resu().unwrap().into_outcome().encoded;
        validate_encoded(&circuit, &enc).unwrap();
        // Theorem 3: 5/2-approximation against the optimum (≥ α); allow
        // the +3 initial-remap slack.
        let bound = (5 * circuit.depth()).div_ceil(2) + 3;
        assert!(
            (enc.cycles() as usize) <= bound,
            "{}: ReSu {} exceeds bound {bound}",
            circuit.name(),
            enc.cycles()
        );
    }
}

#[test]
fn four_x_resources_never_hurt_ecmas() {
    // The paper: "All results on the 4x resources are superior to or equal
    // to the minimal viable chip" for Ecmas.
    for circuit in suite() {
        for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
            let min = Chip::min_viable(model, circuit.qubits(), 3).unwrap();
            let four = Chip::four_x(model, circuit.qubits(), 3).unwrap();
            let on_min = Ecmas::default().compile(&circuit, &min).unwrap().cycles();
            let on_four = Ecmas::default().compile(&circuit, &four).unwrap().cycles();
            assert!(
                on_four <= on_min,
                "{} on {}: 4x {} > min {}",
                circuit.name(),
                model.label(),
                on_four,
                on_min
            );
        }
    }
}

#[test]
fn compilation_is_deterministic() {
    let circuit = benchmarks::qft_n10();
    let chip = Chip::min_viable(CodeModel::DoubleDefect, 10, 3).unwrap();
    let a = Ecmas::new(EcmasConfig::default()).compile_outcome(&circuit, &chip).unwrap();
    let b = Ecmas::new(EcmasConfig::default()).compile_outcome(&circuit, &chip).unwrap();
    assert_eq!(a.encoded.cycles(), b.encoded.cycles());
    assert_eq!(a.encoded.mapping(), b.encoded.mapping());
    assert_eq!(a.encoded.events(), b.encoded.events());
    // Everything in the report except wall time is deterministic too.
    assert_eq!(a.report.router, b.report.router);
    assert_eq!(a.report.algorithm, b.report.algorithm);
    assert_eq!(a.report.bandwidth_adjust, b.report.bandwidth_adjust);
}

#[test]
fn cut_modifications_only_appear_in_double_defect() {
    let circuit = benchmarks::qft_n10();
    let ls = Chip::min_viable(CodeModel::LatticeSurgery, 10, 3).unwrap();
    let enc = Ecmas::default().compile(&circuit, &ls).unwrap();
    assert_eq!(enc.modification_count(), 0);
    assert!(enc.initial_cuts().is_none());
}
