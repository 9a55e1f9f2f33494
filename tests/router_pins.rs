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
use ecmas::Ecmas;
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
/// Algorithm 1 pipeline (bandwidth candidate included, so its router
/// counters are summed in).
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

// Captured on the router that recovered (row, col) by division on every
// expansion, before the neighbour table replaced it.
const TABLE1_DD_PIN: u64 = 9_319_346_501_238_071_787;
const TABLE1_LS_PIN: u64 = 8_368_909_607_980_288_365;
const RESU_DD_PIN: u64 = 8_750_766_032_086_242_354;
const RESU_LS_PIN: u64 = 3_380_265_826_393_579_716;
const QFT200_PIN: u64 = 16_050_876_913_513_803_168;
