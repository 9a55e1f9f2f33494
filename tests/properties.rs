//! Property-based integration tests: random circuits through the full
//! pipeline, checking the invariants the paper's formulation demands.

use ecmas::{para_finding, validate_encoded, Ecmas};
use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::{random, Circuit};
use proptest::prelude::*;

/// Random circuit as (qubits, gate list) with arbitrary dependency shape.
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (4usize..10, proptest::collection::vec((0usize..10, 0usize..10), 1..60)).prop_map(
        |(n, pairs)| {
            let mut c = Circuit::new(n);
            for (a, b) in pairs {
                let (a, b) = (a % n, b % n);
                if a != b {
                    c.cnot(a, b);
                }
            }
            c
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any random circuit compiles to a validator-clean schedule on both
    /// models, with Δ at least the depth lower bound.
    #[test]
    fn random_circuits_compile_valid(circuit in arb_circuit()) {
        for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
            let chip = Chip::min_viable(model, circuit.qubits(), 3).unwrap();
            let enc = Ecmas::default().compile(&circuit, &chip).unwrap();
            prop_assert!(validate_encoded(&circuit, &enc).is_ok());
            prop_assert!(enc.cycles() as usize >= circuit.depth());
        }
    }

    /// Para-Finding layerings are always valid execution schemes with the
    /// averaging lower bound respected.
    #[test]
    fn para_finding_schemes_are_valid(circuit in arb_circuit()) {
        let dag = circuit.dag();
        let scheme = para_finding(&dag);
        prop_assert_eq!(scheme.depth(), dag.depth());
        // Every gate exactly once, parents strictly earlier.
        let mut layer_of = vec![usize::MAX; dag.len()];
        for (l, layer) in scheme.layers().enumerate() {
            for &g in layer {
                prop_assert_eq!(layer_of[g], usize::MAX);
                layer_of[g] = l;
            }
        }
        for g in 0..dag.len() {
            prop_assert_ne!(layer_of[g], usize::MAX);
            for &p in dag.parents(g) {
                prop_assert!(layer_of[p] < layer_of[g]);
            }
        }
        if dag.depth() > 0 {
            prop_assert!(scheme.gpm() >= dag.len().div_ceil(dag.depth()));
        }
    }

    /// Lattice-surgery ReSu hits the α optimum on layered random circuits.
    #[test]
    fn ls_resu_optimal_on_layered_circuits(
        pm in 1usize..6,
        depth in 2usize..12,
        seed in 0u64..1000,
    ) {
        let circuit = random::layered(16, depth, pm, seed);
        let scheme = para_finding(&circuit.dag());
        let chip =
            Chip::sufficient(CodeModel::LatticeSurgery, 16, scheme.gpm(), 3).unwrap();
        let mapped = Ecmas::default().session(&circuit, &chip).unwrap().map().unwrap();
        let enc = mapped.schedule_resu().unwrap().into_outcome().encoded;
        prop_assert!(validate_encoded(&circuit, &enc).is_ok());
        prop_assert_eq!(enc.cycles() as usize, depth);
    }

    /// Widening every channel never makes Ecmas slower.
    #[test]
    fn more_bandwidth_never_hurts(
        pm in 1usize..7,
        seed in 0u64..500,
    ) {
        let circuit = random::layered(16, 8, pm, seed);
        let narrow = Chip::min_viable(CodeModel::LatticeSurgery, 16, 3).unwrap();
        let wide = Chip::four_x(CodeModel::LatticeSurgery, 16, 3).unwrap();
        let slow = Ecmas::default().compile(&circuit, &narrow).unwrap().cycles();
        let fast = Ecmas::default().compile(&circuit, &wide).unwrap().cycles();
        prop_assert!(fast <= slow, "wide {fast} > narrow {slow}");
    }
}
