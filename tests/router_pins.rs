//! Router pins: the schedule *and* every routing-effort counter of the
//! paper workloads, so a router rework that keeps schedules but changes
//! how much searching, recoloring or caching it takes shows up here.
//!
//! Each row hashes Δ, the full event-stream fingerprint and all nine
//! [`RouterStats`] fields. A search that expands one cell more, a cache
//! hit that turns into a flood, or a recolor that visits a different
//! region moves a pin even when every path comes out the same.

use ecmas::session::{CompileOutcome, Compiler, RouterStats};
use ecmas::stable::{fingerprint_encoded, StableHasher};
use ecmas::{CutPolicy, Ecmas, EcmasConfig, GateOrder};
use ecmas_baselines::{AutoBraid, Edpci};
use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::{benchmarks, Circuit};

fn write_stats(h: &mut StableHasher, s: &RouterStats) {
    for v in [
        s.paths_found,
        s.conflicts,
        s.cells_expanded,
        s.pruned_expansions,
        s.path_cells,
        s.peak_cycle_path_cells,
        s.failed_searches,
        s.cache_hits,
        s.recolor_cells,
    ] {
        h.write_u64(v);
    }
}

fn write_outcome(h: &mut StableHasher, outcome: &CompileOutcome) {
    h.write_u64(outcome.report.cycles);
    h.write_u64(fingerprint_encoded(&outcome.encoded));
    write_stats(h, &outcome.report.router);
}

/// FNV-1a over one model's half of the `paper_suite` rows: the 22
/// Table I circuits × {min, 4×, congested}, each through the full
/// Algorithm 1 pipeline.
fn table1_hash(model: CodeModel) -> u64 {
    let mut h = StableHasher::new();
    for circuit in benchmarks::table1_suite() {
        let n = circuit.qubits();
        for chip in
            [Chip::min_viable(model, n, 3), Chip::four_x(model, n, 3), Chip::congested(model, n, 3)]
        {
            let outcome = Ecmas::default().compile_outcome(&circuit, &chip.unwrap()).unwrap();
            write_outcome(&mut h, &outcome);
        }
    }
    h.finish()
}

#[test]
fn table1_dd_rows_routing_is_pinned() {
    let got = table1_hash(CodeModel::DoubleDefect);
    assert_eq!(got, TABLE1_DD_PIN, "Table I double-defect routing drifted");
}

#[test]
fn table1_ls_rows_routing_is_pinned() {
    let got = table1_hash(CodeModel::LatticeSurgery);
    assert_eq!(got, TABLE1_LS_PIN, "Table I lattice-surgery routing drifted");
}

/// FNV-1a over Ecmas-ReSu on each Table I circuit's sufficient chip:
/// the distance-ordered layer batches of the sufficient-resources path.
fn resu_hash(model: CodeModel) -> u64 {
    let mut h = StableHasher::new();
    for circuit in benchmarks::table1_suite() {
        let gpm = ecmas::para_finding(&circuit.dag()).gpm();
        let chip = Chip::sufficient(model, circuit.qubits(), gpm, 3).unwrap();
        let outcome = Ecmas::default()
            .session(&circuit, &chip)
            .unwrap()
            .map()
            .unwrap()
            .schedule_resu()
            .unwrap()
            .into_outcome();
        write_outcome(&mut h, &outcome);
    }
    h.finish()
}

#[test]
fn resu_dd_rows_routing_is_pinned() {
    let got = resu_hash(CodeModel::DoubleDefect);
    assert_eq!(got, RESU_DD_PIN, "ReSu double-defect routing drifted");
}

#[test]
fn resu_ls_rows_routing_is_pinned() {
    let got = resu_hash(CodeModel::LatticeSurgery);
    assert_eq!(got, RESU_LS_PIN, "ReSu lattice-surgery routing drifted");
}

/// `qft(200)` in lattice surgery on its min-viable chip: thousands of
/// long edge-mode searches on a 400-tile grid.
#[test]
fn qft_200_ls_routing_is_pinned() {
    let circuit: Circuit = benchmarks::qft(200);
    let chip = Chip::min_viable(CodeModel::LatticeSurgery, circuit.qubits(), 3).unwrap();
    let outcome = Ecmas::default().compile_outcome(&circuit, &chip).unwrap();
    let mut h = StableHasher::new();
    write_outcome(&mut h, &outcome);
    assert_eq!(h.finish(), QFT200_PIN, "qft(200) routing drifted");
}

/// FNV-1a over one compiler's Algorithm 1 runs on the Table I suite:
/// each circuit on its min-viable and congested chips, both models. The
/// configs the default-config pins above never reach — circuit order,
/// the three baseline cut policies, and the two baselines (both drive
/// `schedule_limited` with `NeverModify`).
fn ablation_hash(compiler: &dyn Compiler) -> u64 {
    let mut h = StableHasher::new();
    for circuit in benchmarks::table1_suite() {
        let n = circuit.qubits();
        for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
            for chip in [Chip::min_viable(model, n, 3), Chip::congested(model, n, 3)] {
                let outcome = compiler.compile_outcome(&circuit, &chip.unwrap()).unwrap();
                write_outcome(&mut h, &outcome);
            }
        }
    }
    h.finish()
}

fn ecmas_with(order: GateOrder, cut_policy: CutPolicy) -> Ecmas {
    Ecmas::new(EcmasConfig { order, cut_policy, ..EcmasConfig::default() })
}

#[test]
fn table1_ablation_and_baseline_routing_is_pinned() {
    let compilers: [(&str, Box<dyn Compiler>, u64); 6] = [
        (
            "circuit order",
            Box::new(ecmas_with(GateOrder::CircuitOrder, CutPolicy::Adaptive)),
            CIRCUIT_ORDER_PIN,
        ),
        (
            "time first",
            Box::new(ecmas_with(GateOrder::Priority, CutPolicy::TimeFirst)),
            TIME_FIRST_PIN,
        ),
        (
            "channel first",
            Box::new(ecmas_with(GateOrder::Priority, CutPolicy::ChannelFirst)),
            CHANNEL_FIRST_PIN,
        ),
        (
            "never modify",
            Box::new(ecmas_with(GateOrder::Priority, CutPolicy::NeverModify)),
            NEVER_MODIFY_PIN,
        ),
        ("autobraid", Box::new(AutoBraid::new()), AUTOBRAID_PIN),
        ("edpci", Box::new(Edpci::new()), EDPCI_PIN),
    ];
    let got: Vec<(&str, u64)> =
        compilers.iter().map(|(name, c, _)| (*name, ablation_hash(c.as_ref()))).collect();
    let want: Vec<(&str, u64)> = compilers.iter().map(|(name, _, pin)| (*name, *pin)).collect();
    assert_eq!(got, want, "Table I ablation/baseline routing drifted");
}

// Captured on the router that recovered (row, col) by division on every
// expansion, before the neighbour table replaced it. The two Table I pins
// were re-captured there with the bandwidth-adjust step switched off,
// which changes no schedule but drops its candidate runs' counters.
const TABLE1_DD_PIN: u64 = 15_300_147_507_942_249_854;
const TABLE1_LS_PIN: u64 = 4_563_180_854_006_775_243;
const RESU_DD_PIN: u64 = 8_750_766_032_086_242_354;
const RESU_LS_PIN: u64 = 3_380_265_826_393_579_716;
const QFT200_PIN: u64 = 16_050_876_913_513_803_168;
// Captured on the scheduler that queued each cycle's unconditional
// gates into one routing batch, flushed before every same-cut decision.
const CIRCUIT_ORDER_PIN: u64 = 11_305_312_520_606_713_043;
const TIME_FIRST_PIN: u64 = 3_065_312_922_711_879_926;
const CHANNEL_FIRST_PIN: u64 = 9_360_457_339_464_553_511;
const NEVER_MODIFY_PIN: u64 = 617_384_981_063_192_913;
const AUTOBRAID_PIN: u64 = 9_784_129_580_054_798_125;
const EDPCI_PIN: u64 = 15_472_813_549_287_730_501;
