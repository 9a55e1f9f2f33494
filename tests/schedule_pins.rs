//! Schedule-identity pins: fingerprints of complete event schedules on
//! fixed workloads, captured under the PR 3 heap-based A* router.
//!
//! The bucket-queue router and the reachability cache (PR 5) must leave
//! every schedule bit-identical — same events, same paths, same cycle
//! counts. These tests hash the full event stream (gate ids, start
//! cycles, event kinds, and every path cell) so any deviation in routing
//! order, tie-breaking, or search outcome shows up as a fingerprint
//! mismatch, not just a cycle-count drift.

use ecmas::session::Compiler;
use ecmas::stable::{fingerprint_encoded as fingerprint, StableHasher};
use ecmas::{CutType, Ecmas, EcmasConfig};
use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::{benchmarks, random};

fn compile_fingerprint(circuit: &ecmas_circuit::Circuit, chip: &Chip) -> (u64, u64) {
    let outcome = Ecmas::new(EcmasConfig::default()).compile_outcome(circuit, chip).unwrap();
    (outcome.report.cycles, fingerprint(&outcome.encoded))
}

/// The fig12 bottom-panel workload (49 qubits, depth 50, ĝPM 11) on the
/// bandwidth-1 chip — the compile-time acceptance series of PR 3.
#[test]
fn fig12_schedule_is_pinned() {
    let circuit = random::layered(49, 50, 11, 0xF16);
    let chip = Chip::uniform(CodeModel::DoubleDefect, 7, 7, 1, 3).unwrap();
    let (cycles, hash) = compile_fingerprint(&circuit, &chip);
    assert_eq!((cycles, hash), (FIG12_PIN.0, FIG12_PIN.1), "fig12 schedule drifted");
}

/// The saturating congested workload (qft_n50 on `Chip::congested`) —
/// the Table II/IV discriminator row and the failed-search worst case
/// the reachability cache targets.
#[test]
fn qft_n50_congested_schedule_is_pinned() {
    let circuit = benchmarks::qft_n50();
    let chip = Chip::congested(CodeModel::LatticeSurgery, circuit.qubits(), 3).unwrap();
    let (cycles, hash) = compile_fingerprint(&circuit, &chip);
    assert_eq!((cycles, hash), (QFT50_PIN.0, QFT50_PIN.1), "congested qft_n50 drifted");
}

/// A Table I row (qft_n10, double defect, min viable) — the limited
/// scheduler's same-cut decision path with modifications.
#[test]
fn table1_qft_n10_schedule_is_pinned() {
    let circuit = benchmarks::qft_n10();
    let chip = Chip::min_viable(CodeModel::DoubleDefect, 10, 3).unwrap();
    let (cycles, hash) = compile_fingerprint(&circuit, &chip);
    assert_eq!((cycles, hash), (QFT10_PIN.0, QFT10_PIN.1), "qft_n10 schedule drifted");
}

/// A ReSu path pin (sufficient resources, distance-ordered layer
/// batches).
#[test]
fn resu_dnn_n8_schedule_is_pinned() {
    let circuit = benchmarks::dnn_n8();
    let scheme = ecmas::para_finding(&circuit.dag());
    let chip =
        Chip::sufficient(CodeModel::LatticeSurgery, circuit.qubits(), scheme.gpm(), 3).unwrap();
    let outcome = Ecmas::default().compile_auto(&circuit, &chip).unwrap();
    let (cycles, hash) = (outcome.report.cycles, fingerprint(&outcome.encoded));
    assert_eq!((cycles, hash), (DNN8_PIN.0, DNN8_PIN.1), "ReSu dnn_n8 schedule drifted");
}

// Pinned (cycles, event-stream FNV-1a) captured under the PR 3 router
// before the bucket-queue rework landed. There is deliberately no
// print-fresh-values escape hatch: a drift must be a conscious re-pin
// with its reason recorded in EXPERIMENTS.md, exactly like the
// Tables I/III/V re-pin of PR 4.
const FIG12_PIN: (u64, u64) = (96, 2_927_398_374_242_846_396);
const QFT50_PIN: (u64, u64) = (218, 2_382_745_220_330_678_997);
const QFT10_PIN: (u64, u64) = (67, 3_604_089_234_610_369_876);
// Re-pinned when ReSu stopped applying a bandwidth adjustment that drops
// the capacity below ĝPM (Δ unchanged; see EXPERIMENTS.md).
const DNN8_PIN: (u64, u64) = (48, 260_754_012_369_727_285);

/// FNV-1a over `Profiled::map()`'s mapping and initial cut types.
fn map_fingerprint(h: &mut StableHasher, circuit: &ecmas_circuit::Circuit, chip: &Chip) {
    let mapped = Ecmas::default().session(circuit, chip).unwrap().map().unwrap();
    h.write_usize(mapped.mapping().len());
    for &slot in mapped.mapping() {
        h.write_usize(slot);
    }
    match mapped.cuts() {
        None => h.write_u8(2),
        Some(cuts) => {
            for &cut in cuts {
                h.write_bool(cut == CutType::X);
            }
        }
    }
}

/// Placement pin: the mappings and cut types of the 132 Table I rows
/// (22 circuits × {dd, ls} × {min, 4×, congested}) plus one layered
/// n = 100 circuit on a lattice-surgery min-viable chip. Any change to
/// bisection, refinement or restart selection that moves a single qubit
/// shows up here before it reaches a schedule.
#[test]
fn table1_and_layered_n100_mappings_are_pinned() {
    let mut h = StableHasher::new();
    for circuit in benchmarks::table1_suite() {
        let n = circuit.qubits();
        for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
            for chip in [
                Chip::min_viable(model, n, 3),
                Chip::four_x(model, n, 3),
                Chip::congested(model, n, 3),
            ] {
                map_fingerprint(&mut h, &circuit, &chip.unwrap());
            }
        }
    }
    let table1 = h.finish();
    let mut h = StableHasher::new();
    let layered = random::layered(100, 50, 25, 1);
    map_fingerprint(
        &mut h,
        &layered,
        &Chip::min_viable(CodeModel::LatticeSurgery, 100, 3).unwrap(),
    );
    assert_eq!((table1, h.finish()), MAPPING_PIN, "placement mappings drifted");
}

// Captured on the pre-rework KL placement (HashMap subgraphs, O(n²) pair
// scan); the view-based pruned search must reproduce it exactly.
const MAPPING_PIN: (u64, u64) = (3_696_931_160_761_119_761, 17_787_248_104_688_351_033);

/// FNV-1a over a Para-Finding execution scheme: depth, ĝPM, and every
/// layer's gate ids in order.
fn scheme_fingerprint(h: &mut StableHasher, circuit: &ecmas_circuit::Circuit) {
    let scheme = ecmas::para_finding(&circuit.dag());
    h.write_usize(scheme.depth());
    h.write_usize(scheme.gpm());
    for layer in scheme.layers() {
        h.write_usize(layer.len());
        for &g in layer {
            h.write_usize(g);
        }
    }
}

/// Para-Finding pin: the execution schemes (layers and ĝPM) of the 22
/// Table I circuits, and of layered random circuits from 1.2k to 20k
/// gates. Any change to the slack-order pick, the layer choice, the
/// window cascade, rebalancing or the EDF refinement shows up here.
#[test]
fn table1_and_layered_schemes_are_pinned() {
    let mut h = StableHasher::new();
    for circuit in benchmarks::table1_suite() {
        scheme_fingerprint(&mut h, &circuit);
    }
    let table1 = h.finish();
    let mut h = StableHasher::new();
    for (n, depth, pm, seed) in [
        (24, 240, 6, 7),
        (100, 50, 25, 1),
        (200, 100, 50, 2),
        (400, 50, 100, 3),
        (400, 100, 200, 4),
    ] {
        scheme_fingerprint(&mut h, &random::layered(n, depth, pm, seed));
    }
    assert_eq!((table1, h.finish()), SCHEME_PIN, "Para-Finding schemes drifted");
}

// Captured on the rescanning Para-Finding (one O(g) scan per pick).
const SCHEME_PIN: (u64, u64) = (15_554_482_426_561_887_790, 1_845_817_948_163_856_484);
