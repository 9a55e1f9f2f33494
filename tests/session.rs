//! Integration tests for the staged session API: stage overrides, the
//! resource-adaptive auto choice, parallel batch compilation, and the
//! congested-chip ablations the one-shot API could not express.

use ecmas::session::Algorithm;
use ecmas::{
    compile_batch, compile_batch_with_threads, validate_encoded, Compiler, Ecmas, EcmasConfig,
    GateOrder, LocationStrategy,
};
use ecmas_baselines::{AutoBraid, Edpci};
use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::{benchmarks, random, Circuit};
use proptest::prelude::*;

/// `compile_auto` must pick ReSu exactly when the chip's communication
/// capacity reaches the profiled ĝPM, and Algorithm 1 otherwise — the
/// paper's Fig. 9 decision.
#[test]
fn auto_choice_follows_capacity_vs_gpm() {
    for circuit in [benchmarks::ghz(9), benchmarks::dnn_n8(), benchmarks::qft_n10()] {
        let gpm = ecmas::para_finding(&circuit.dag()).gpm();
        for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
            for chip in [
                Chip::min_viable(model, circuit.qubits(), 3).unwrap(),
                Chip::sufficient(model, circuit.qubits(), gpm, 3).unwrap(),
            ] {
                let outcome = Ecmas::default().compile_auto(&circuit, &chip).unwrap();
                validate_encoded(&circuit, &outcome.encoded).unwrap();
                let expect = if chip.communication_capacity() >= gpm {
                    Algorithm::ReSu
                } else {
                    Algorithm::Limited
                };
                assert_eq!(
                    outcome.report.algorithm,
                    expect,
                    "{}: capacity {} vs gpm {gpm}",
                    circuit.name(),
                    chip.communication_capacity()
                );
            }
        }
    }
}

/// The one-shot entry points are thin wrappers: staged compilation with no
/// overrides must reproduce them event for event.
#[test]
fn session_stages_reproduce_the_one_shot_wrappers() {
    let circuit = benchmarks::qft_n10();
    for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
        let chip = Chip::min_viable(model, 10, 3).unwrap();
        let one_shot = Ecmas::default().compile(&circuit, &chip).unwrap();
        let staged = Ecmas::default()
            .session(&circuit, &chip)
            .unwrap()
            .map()
            .unwrap()
            .schedule()
            .unwrap()
            .into_outcome();
        assert_eq!(staged.encoded.events(), one_shot.events());
        assert_eq!(staged.encoded.mapping(), one_shot.mapping());
    }
}

/// The congested-chip ablations (ROADMAP: "Tables II and IV measure
/// nothing" on min-viable chips). On `Chip::congested` the knobs finally
/// discriminate:
///
/// * Table II (location init): injecting the trivial snake mapping through
///   the session API costs real cycles against the pipeline's placement.
/// * Table IV (gate order): circuit-order scheduling costs real cycles
///   against the priority function.
#[test]
fn congested_chip_gives_the_ablations_nonzero_spread() {
    // Table II — location initialization, on the heaviest-traffic circuit
    // in the suite (qft_n50: all-to-all communication). The A* router
    // erased the spread the smaller dnn_n16 used to show here — its
    // corridor-hugging shortest paths resolve that circuit's congestion
    // even under the snake mapping — so the discriminating workload has
    // to saturate the congested chip for real (see EXPERIMENTS.md).
    let circuit = benchmarks::qft_n50();
    let chip = Chip::congested(CodeModel::LatticeSurgery, circuit.qubits(), 3).unwrap();
    let ours = Ecmas::default().compile_auto(&circuit, &chip).unwrap();
    validate_encoded(&circuit, &ours.encoded).unwrap();
    // The saturating run exercises the failed-search path: the report
    // must surface the new counters — every exhausted search is counted,
    // and within congested cycles the reachability cache answers repeats
    // without re-flooding.
    assert!(ours.report.router.failed_searches > 0, "saturation implies failed searches");
    assert!(ours.report.router.cache_hits > 0, "repeat failures must hit the cache");
    assert!(ours.report.router.recolor_cells > 0, "cache misses flood-fill the region");
    assert!(
        ours.report.router.failed_searches <= ours.report.router.conflicts,
        "failed searches are the region-exhaustion subset of conflicts"
    );

    // Inject the snake mapping (what LocationStrategy::Trivial computes)
    // into the session mid-flight — the ablation the one-shot API could
    // only reach by rebuilding the whole config.
    let snake = ecmas::mapping::snake_mapping(circuit.qubits(), &chip);
    let injected = Ecmas::default()
        .session(&circuit, &chip)
        .unwrap()
        .map()
        .unwrap()
        .with_mapping(snake)
        .unwrap()
        .schedule_auto()
        .unwrap()
        .into_outcome();
    validate_encoded(&circuit, &injected.encoded).unwrap();
    assert!(
        injected.report.cycles > ours.report.cycles,
        "location init must discriminate on the congested chip: snake {} !> ours {}",
        injected.report.cycles,
        ours.report.cycles
    );
    // And the injected mapping must agree with the Trivial strategy run.
    let trivial =
        Ecmas::new(EcmasConfig { location: LocationStrategy::Trivial, ..EcmasConfig::default() })
            .compile_auto(&circuit, &chip)
            .unwrap();
    assert_eq!(trivial.report.cycles, injected.report.cycles);

    // Table IV — gate ordering, on a parallelism-6 random circuit whose
    // congestion makes the within-cycle order matter.
    let circuit = random::layered(16, 20, 6, 7);
    let chip = Chip::congested(CodeModel::LatticeSurgery, circuit.qubits(), 3).unwrap();
    let priority = Ecmas::default().compile(&circuit, &chip).unwrap();
    let circuit_order =
        Ecmas::new(EcmasConfig { order: GateOrder::CircuitOrder, ..EcmasConfig::default() })
            .compile(&circuit, &chip)
            .unwrap();
    validate_encoded(&circuit, &priority).unwrap();
    validate_encoded(&circuit, &circuit_order).unwrap();
    assert!(
        circuit_order.cycles() > priority.cycles(),
        "gate order must discriminate on the congested chip: circuit-order {} !> priority {}",
        circuit_order.cycles(),
        priority.cycles()
    );
}

/// Batch compilation across every workspace compiler returns results in
/// input order with per-circuit reports attached.
#[test]
fn batch_works_for_all_three_compilers() {
    let circuits: Vec<Circuit> = vec![benchmarks::ghz(9), benchmarks::ising_n10()];
    let compilers: [(&(dyn Compiler + Sync), CodeModel); 3] = [
        (&Ecmas::default(), CodeModel::DoubleDefect),
        (&AutoBraid::new(), CodeModel::DoubleDefect),
        (&Edpci::new(), CodeModel::LatticeSurgery),
    ];
    for (compiler, model) in compilers {
        let chip = Chip::min_viable(model, 10, 3).unwrap();
        let outcomes = compile_batch(compiler, &circuits, &chip);
        assert_eq!(outcomes.len(), circuits.len());
        for (circuit, outcome) in circuits.iter().zip(outcomes) {
            let outcome = outcome.unwrap();
            validate_encoded(circuit, &outcome.encoded)
                .unwrap_or_else(|e| panic!("{}: {e}", compiler.name()));
            assert_eq!(outcome.report.cycles, outcome.encoded.cycles());
        }
    }
}

/// The 50-circuit QUEKO-style batch of the acceptance criteria: parallel
/// compilation must produce bit-identical `EncodedCircuit`s to the
/// sequential loop. (The ≥4× wall-clock speedup materializes on multi-core
/// hosts; determinism is asserted unconditionally, and a sanity timing
/// check runs only when enough cores are available.)
#[test]
fn fifty_circuit_batch_is_bit_identical_to_sequential() {
    let circuits: Vec<Circuit> = (0..50).map(|s| random::layered(25, 20, 5, 0x0B5E + s)).collect();
    let chip = Chip::min_viable(CodeModel::LatticeSurgery, 25, 3).unwrap();
    let compiler = Ecmas::default();

    let t = std::time::Instant::now();
    let sequential: Vec<_> =
        circuits.iter().map(|c| compiler.compile_outcome(c, &chip).unwrap()).collect();
    let sequential_time = t.elapsed();

    let t = std::time::Instant::now();
    let batched = compile_batch(&compiler, &circuits, &chip);
    let batch_time = t.elapsed();

    for (seq, par) in sequential.iter().zip(batched) {
        let par = par.unwrap();
        assert_eq!(par.encoded.events(), seq.encoded.events(), "bit-identical schedules");
        assert_eq!(par.encoded.mapping(), seq.encoded.mapping());
        assert_eq!(par.encoded.initial_cuts(), seq.encoded.initial_cuts());
    }

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!("batch {batch_time:?} vs sequential {sequential_time:?} on {cores} reported cores");
    if cores >= 4 {
        // Loose sanity bound only (the acceptance run on a real 8-core
        // host sees ≥4×): `available_parallelism` can report cores a
        // cgroup-limited CI container does not actually deliver, so the
        // hard determinism assertions above are the contract and the
        // timing check merely guards against pathological serialization
        // overhead.
        assert!(
            batch_time < sequential_time * 2,
            "batch {batch_time:?} vs sequential {sequential_time:?} on {cores} cores: \
             parallel dispatch overhead is pathological"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: for random circuit batches, `compile_batch` is
    /// event-for-event identical to sequential `compile` on the same
    /// inputs, across worker counts.
    #[test]
    fn batch_equals_sequential_event_for_event(
        seed in 0u64..1000,
        pm in 1usize..5,
        threads in 2usize..5,
    ) {
        let circuits: Vec<Circuit> =
            (0..5).map(|k| random::layered(12, 8, pm, seed * 31 + k)).collect();
        let chip = Chip::min_viable(CodeModel::LatticeSurgery, 12, 3).unwrap();
        let compiler = Ecmas::default();
        let batched = compile_batch_with_threads(&compiler, &circuits, &chip, threads);
        for (circuit, outcome) in circuits.iter().zip(batched) {
            let outcome = outcome.unwrap();
            let sequential = compiler.compile(circuit, &chip).unwrap();
            prop_assert_eq!(outcome.encoded.events(), sequential.events());
            prop_assert_eq!(outcome.encoded.mapping(), sequential.mapping());
            prop_assert_eq!(outcome.encoded.cycles(), sequential.cycles());
        }
    }
}
