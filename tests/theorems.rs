//! Empirical checks of the paper's structural results: Theorem 2 (Chip
//! Communication Capacity), Lemma 1 (two-layer bipartiteness) and
//! Theorem 3 (Ecmas-ReSu's 5/2-approximation) on randomized instances.

use ecmas::para_finding;
use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::{random, Circuit};
use ecmas_partition::ParityDsu;
use ecmas_route::{Disjointness, Router};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{rngs::SmallRng, SeedableRng};

/// Routes `pairs` simultaneously at cycle 0, trying a few random orders
/// (the theorem guarantees existence; greedy order-sensitivity is ours).
fn routes_simultaneously(
    chip: &Chip,
    mapped: &[usize],
    pairs: &[(usize, usize)],
    seed: u64,
) -> bool {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    'attempt: for _ in 0..6 {
        let mut router = Router::new(chip.grid(), Disjointness::Node);
        for &slot in mapped {
            router.block_tile(slot);
        }
        for &k in &order {
            let (a, b) = pairs[k];
            if router.route_tiles(a, b, 0, 1).is_none() {
                order.shuffle(&mut rng);
                continue 'attempt;
            }
        }
        return true;
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Theorem 2: on a bandwidth-b chip, any ⌊(b−1)/2⌋+3 independent CNOTs
    /// with arbitrary operand placement admit simultaneous disjoint paths.
    #[test]
    fn theorem2_capacity_is_routable(
        bandwidth in 1u32..4,
        seed in 0u64..500,
    ) {
        let chip = Chip::uniform(CodeModel::DoubleDefect, 4, 4, bandwidth, 3).unwrap();
        let capacity = chip.communication_capacity();
        let mut rng = SmallRng::seed_from_u64(seed);
        // Random placement of 2·capacity distinct operand tiles.
        let mut slots: Vec<usize> = (0..16).collect();
        slots.shuffle(&mut rng);
        let operands = &slots[..2 * capacity];
        let pairs: Vec<(usize, usize)> =
            operands.chunks(2).map(|c| (c[0], c[1])).collect();
        prop_assert!(
            routes_simultaneously(&chip, operands, &pairs, seed),
            "capacity {capacity} gates must route at bandwidth {bandwidth}"
        );
    }

    /// Lemma 1: the communication subgraph of any two adjacent layers of a
    /// Para-Finding scheme is bipartite.
    #[test]
    fn lemma1_two_layers_are_bipartite(
        n in 4usize..12,
        gates in proptest::collection::vec((0usize..12, 0usize..12), 4..60),
    ) {
        let mut circuit = Circuit::new(n);
        for (a, b) in gates {
            let (a, b) = (a % n, b % n);
            if a != b {
                circuit.cnot(a, b);
            }
        }
        let dag = circuit.dag();
        let scheme = para_finding(&dag);
        let layers: Vec<&[usize]> = scheme.layers().collect();
        for window in layers.windows(2) {
            let mut dsu = ParityDsu::new(n);
            for layer in window {
                for &g in layer.iter() {
                    let gate = dag.gate(g);
                    prop_assert!(
                        dsu.union_different(gate.control, gate.target),
                        "two adjacent layers must 2-color"
                    );
                }
            }
        }
    }

    /// Theorem 3: double-defect ReSu stays within the 5/2 bound on layered
    /// random circuits (plus the initial-remap slack).
    #[test]
    fn theorem3_resu_bound_on_random_circuits(
        pm in 1usize..5,
        depth in 2usize..10,
        seed in 0u64..300,
    ) {
        let circuit = random::layered(12, depth, pm, seed);
        let scheme = para_finding(&circuit.dag());
        let chip =
            Chip::sufficient(CodeModel::DoubleDefect, 12, scheme.gpm(), 3).unwrap();
        let mapped = ecmas::Ecmas::default().session(&circuit, &chip).unwrap().map().unwrap();
        let enc = mapped.schedule_resu().unwrap().into_outcome().encoded;
        ecmas::validate_encoded(&circuit, &enc).unwrap();
        let bound = (5 * depth).div_ceil(2) + 3;
        prop_assert!(
            enc.cycles() as usize <= bound,
            "ReSu {} exceeds 5/2 bound {bound}",
            enc.cycles()
        );
    }
}
