//! Defective-chip properties across the whole pipeline: a defect mask
//! with no defects must be *invisible* (bit-identical schedules, reports,
//! and cache keys versus the uniform chip), and a mask with real defects
//! must be *inviolable* (no qubit placed on a dead tile, no path routed
//! through one), with the per-job `ResourceEstimate` agreeing exactly
//! with the router counters it summarizes.

use ecmas::session::Compiler;
use ecmas::stable::fingerprint_encoded;
use ecmas::{
    validate_encoded, CacheSource, CompileOutcome, CompileRequest, CompileService, Ecmas,
    ServiceConfig,
};
use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::{benchmarks, random};
use proptest::prelude::*;

/// Removes `,"<key>":{...}` from a flat-ish JSON object string, so the
/// two run-dependent report fields (timings, cache provenance) drop out
/// before byte-for-byte comparison.
fn strip_object(json: &str, key: &str) -> String {
    let pattern = format!(",\"{key}\":{{");
    let start = json.find(&pattern).unwrap_or_else(|| panic!("report has no {key:?}: {json}"));
    let mut depth = 0usize;
    for (offset, b) in json[start + pattern.len() - 1..].bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    let end = start + pattern.len() - 1 + offset;
                    return format!("{}{}", &json[..start], &json[end + 1..]);
                }
            }
            _ => {}
        }
    }
    panic!("unterminated {key:?} object in {json}");
}

fn canonical_report(outcome: &CompileOutcome) -> String {
    strip_object(&strip_object(&outcome.report.to_json(), "timings_ms"), "cache")
}

/// Every tile slot the mapping uses is alive, and every committed path
/// stays off dead channel cells. `validate_encoded` checks the same
/// invariants; this spells them out against the chip directly so a
/// validator regression cannot mask a pipeline one.
fn assert_avoids_defects(chip: &Chip, outcome: &CompileOutcome) {
    let grid = chip.grid();
    for (q, &slot) in outcome.encoded.mapping().iter().enumerate() {
        assert!(!chip.is_dead(slot), "qubit {q} mapped to dead tile slot {slot}");
    }
    for event in outcome.encoded.events() {
        if let Some(path) = event.kind.path() {
            for &cell in path.cells() {
                assert!(!grid.is_dead(cell), "event path crosses dead cell {cell}");
            }
        }
    }
}

/// The defect-free masked chip is the *same hardware* as the uniform
/// chip: schedules, fingerprints, and full canonical reports (resources
/// included) are bit-identical, end to end, on both code models.
#[test]
fn all_false_masks_are_bit_identical_to_uniform_chips() {
    for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
        for seed in [1u64, 17, 99] {
            let circuit = random::layered(12, 10, 3, seed);
            let uniform = Chip::congested(model, circuit.qubits(), 3).unwrap();
            let masked =
                Chip::congested(model, circuit.qubits(), 3).unwrap().with_defects(&[]).unwrap();
            assert_eq!(masked.defect_count(), 0);

            let compiler = Ecmas::default();
            let base = compiler.compile_outcome(&circuit, &uniform).unwrap();
            let same = compiler.compile_outcome(&circuit, &masked).unwrap();
            assert_eq!(
                fingerprint_encoded(&base.encoded),
                fingerprint_encoded(&same.encoded),
                "all-false mask changed the schedule ({model:?}, seed {seed})"
            );
            assert_eq!(
                canonical_report(&base),
                canonical_report(&same),
                "all-false mask changed the report ({model:?}, seed {seed})"
            );
        }
    }
}

/// Cache identity follows hardware identity: a defect-free mask *hits*
/// the uniform chip's entry, a real defect *misses* it.
#[test]
fn clean_masks_share_cache_entries_and_dirty_masks_do_not() {
    let circuit = random::layered(9, 8, 2, 0xDE);
    let uniform = Chip::congested(CodeModel::LatticeSurgery, circuit.qubits(), 3).unwrap();
    let masked_clean = uniform.clone().with_defects(&[]).unwrap();
    let masked_dirty = uniform.clone().with_defects(&[(5, 5)]).unwrap();

    let service = CompileService::new(ServiceConfig {
        workers: 1,
        cache_bytes: 16 * 1024 * 1024,
        ..ServiceConfig::default()
    });
    let source = |chip: &Chip| {
        let handle = service.submit(CompileRequest::new(circuit.clone(), chip.clone())).unwrap();
        handle.wait().unwrap().report.cache.source
    };
    assert_eq!(source(&uniform), CacheSource::Miss);
    assert_eq!(source(&masked_clean), CacheSource::Hit, "clean mask should share the entry");
    assert_eq!(
        source(&masked_dirty),
        CacheSource::Miss,
        "defects are distinct hardware: full-result reuse would be wrong"
    );
}

/// The acceptance sweep: congested qft_n50 with 0%, 5%, and 10% of the
/// tile array dead. Every schedule validates, avoids the dead hardware,
/// and carries a `ResourceEstimate` that agrees *exactly* with the
/// chip facts and router counters it is derived from.
#[test]
fn defect_sweep_keeps_qft_n50_off_dead_hardware() {
    let circuit = benchmarks::qft_n50();
    for percent in [0usize, 5, 10] {
        let mut chip = Chip::congested(CodeModel::LatticeSurgery, circuit.qubits(), 3).unwrap();
        let slots = chip.tile_rows() * chip.tile_cols();
        chip.seed_defects(slots * percent / 100, 0xD5EED);
        assert_eq!(chip.defect_count(), slots * percent / 100);

        let outcome = Ecmas::default().compile_auto(&circuit, &chip).unwrap();
        validate_encoded(&circuit, &outcome.encoded).unwrap();
        assert_avoids_defects(&chip, &outcome);

        let report = &outcome.report;
        let r = &report.resources;
        assert_eq!(r.logical_qubits, circuit.qubits());
        assert_eq!(r.live_tiles, chip.live_tiles());
        assert_eq!(r.physical_qubits, chip.physical_qubits());
        assert_eq!(r.cycles, report.cycles);
        assert_eq!(r.space_time_volume, circuit.qubits() as u64 * report.cycles);
        assert_eq!(r.channel_cells, chip.grid().free_cells() as u64);
        let ppm =
            |cells: u64, denom: u128| u64::try_from(u128::from(cells) * 1_000_000 / denom).unwrap();
        assert_eq!(
            r.channel_mean_utilization_ppm,
            ppm(report.router.path_cells, u128::from(r.channel_cells) * u128::from(r.cycles)),
        );
        assert_eq!(
            r.channel_peak_utilization_ppm,
            ppm(report.router.peak_cycle_path_cells, u128::from(r.channel_cells)),
        );
        assert_eq!(r.stage_cost.profile, circuit.cnot_count() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized masks on randomized workloads: whatever the damage
    /// (up to the placement limit), the compiled schedule validates and
    /// never touches a dead tile or channel cell, on either model.
    #[test]
    fn randomized_masks_never_touch_dead_hardware(
        seed in 0u64..500,
        pm in 1usize..4,
        model_pick in 0u8..2,
        defects in 0usize..8,
    ) {
        let model =
            if model_pick == 0 { CodeModel::DoubleDefect } else { CodeModel::LatticeSurgery };
        let circuit = random::layered(9, 8, pm, seed);
        let mut chip = Chip::congested(model, circuit.qubits(), 3).unwrap();
        chip.seed_defects(defects, seed ^ 0xBAD_C0DE);
        prop_assert_eq!(chip.defect_count(), defects);

        let outcome = Ecmas::default().compile_auto(&circuit, &chip).unwrap();
        prop_assert!(validate_encoded(&circuit, &outcome.encoded).is_ok());
        assert_avoids_defects(&chip, &outcome);
    }
}
