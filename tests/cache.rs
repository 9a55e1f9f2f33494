//! Integration tests for the `ecmas-cache` compile cache behind the
//! service layer: cached results must be bit-identical to cold compiles
//! (the cache is an optimization, never an answer change), the resident
//! byte total must respect the budget with real eviction, a miss must
//! store exactly one entry, and a burst of identical jobs must coalesce
//! into exactly one compile.

use ecmas::{
    fingerprint_encoded, para_finding, CacheSource, CompileOutcome, CompileRequest, CompileService,
    Ecmas, ServiceConfig,
};
use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::random;
use proptest::prelude::*;

fn service_with_cache(workers: usize, cache_bytes: u64) -> CompileService {
    CompileService::new(ServiceConfig { workers, cache_bytes, ..ServiceConfig::default() })
}

/// Removes `,"<key>":{...}` (the comma through the matching close brace)
/// from a flat-ish JSON object string. Used to drop the two
/// run-dependent report fields — wall-clock timings and cache provenance
/// — before comparing reports byte-for-byte.
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

/// A report with timings and cache provenance removed: everything left
/// (cycles, events, ĝPM, router counters, algorithm, …) must be
/// identical between cached and uncached compiles.
fn canonical_report(outcome: &CompileOutcome) -> String {
    strip_object(&strip_object(&outcome.report.to_json(), "timings_ms"), "cache")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: across random circuits, both code models, min-viable
    /// and sufficient chips (so both schedulers), and 1- or 4-worker
    /// pools, a cache-fronted service returns results bit-identical to
    /// `compile_auto` — on the cold pass (miss) and the warm pass (hit).
    #[test]
    fn cached_results_are_bit_identical_to_uncached(
        seed in 0u64..1000,
        pm in 1usize..5,
        workers_pick in 0usize..2,
        model_pick in 0u8..2,
        sufficient in 0u8..2,
    ) {
        let circuit = random::layered(12, 8, pm, seed);
        let model =
            if model_pick == 0 { CodeModel::DoubleDefect } else { CodeModel::LatticeSurgery };
        let chip = if sufficient == 0 {
            Chip::min_viable(model, 12, 3).unwrap()
        } else {
            let gpm = para_finding(&circuit.dag()).gpm();
            Chip::sufficient(model, 12, gpm.max(1), 3).unwrap()
        };
        let workers = [1usize, 4][workers_pick];
        let request = || CompileRequest::new(circuit.clone(), chip.clone());

        let cold = Ecmas::default().compile_auto(&circuit, &chip).unwrap();

        let cached = service_with_cache(workers, 16 * 1024 * 1024);
        let first = cached.submit(request()).unwrap().wait().unwrap();
        let second = cached.submit(request()).unwrap().wait().unwrap();
        prop_assert_eq!(first.report.cache.source, CacheSource::Miss);
        prop_assert_eq!(second.report.cache.source, CacheSource::Hit);

        for warm in [&first, &second] {
            prop_assert_eq!(canonical_report(warm), canonical_report(&cold));
            prop_assert_eq!(warm.encoded.events(), cold.encoded.events());
            prop_assert_eq!(warm.encoded.mapping(), cold.encoded.mapping());
            prop_assert_eq!(
                fingerprint_encoded(&warm.encoded),
                fingerprint_encoded(&cold.encoded)
            );
        }
        let stats = cached.cache_stats().unwrap();
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(stats.hits, 1);
    }
}

/// A miss stores one entry, its full result: N distinct circuits under a
/// budget that holds them all leave exactly N entries and N misses, and
/// resubmitting each one is a hit.
#[test]
fn each_miss_stores_one_entry() {
    const N: u64 = 6;
    let service = service_with_cache(1, 16 * 1024 * 1024);
    let chip = Chip::min_viable(CodeModel::LatticeSurgery, 10, 3).unwrap();
    let circuits: Vec<_> = (0..N).map(|seed| random::layered(10, 8, 3, seed)).collect();
    let source = |circuit: &ecmas_circuit::Circuit| {
        let request = CompileRequest::new(circuit.clone(), chip.clone());
        service.submit(request).unwrap().wait().unwrap().report.cache.source
    };
    for circuit in &circuits {
        assert_eq!(source(circuit), CacheSource::Miss);
    }
    let stats = service.cache_stats().unwrap();
    assert_eq!((stats.entries as u64, stats.misses, stats.evictions), (N, N, 0), "{stats:?}");
    for circuit in &circuits {
        assert_eq!(source(circuit), CacheSource::Hit);
    }
    assert_eq!(service.cache_stats().unwrap().hits, N);
}

/// The resident byte estimate never exceeds the configured budget, and a
/// stream of distinct jobs through a small budget actually evicts.
#[test]
fn resident_bytes_respect_the_budget_and_eviction_happens() {
    // Small enough that a handful of outcomes overflow it, large enough
    // that a single outcome fits (an oversized insert would be refused
    // and nothing would ever be resident).
    let budget = 24 * 1024u64;
    let service = service_with_cache(2, budget);
    let chip = |q: usize| Chip::min_viable(CodeModel::LatticeSurgery, q, 3).unwrap();
    for seed in 0..12u64 {
        let circuit = random::layered(10, 8, 3, seed);
        let outcome =
            service.submit(CompileRequest::new(circuit.clone(), chip(10))).unwrap().wait().unwrap();
        let stats = service.cache_stats().unwrap();
        assert!(
            stats.resident_bytes <= budget,
            "resident {} exceeds budget {budget} after seed {seed}",
            stats.resident_bytes
        );
        assert!(stats.resident_bytes > 0, "something must be resident");
        drop(outcome);
    }
    let stats = service.cache_stats().unwrap();
    assert!(stats.evictions > 0, "12 distinct jobs through {budget} bytes must evict: {stats:?}");
    assert_eq!(stats.misses, 12, "distinct jobs never hit");
}

/// A burst of identical jobs on a multi-worker pool runs the compiler
/// exactly once: one miss, and every other job served as a hit or a
/// coalesced wait — all bit-identical.
#[test]
fn identical_burst_coalesces_into_one_compile() {
    let burst = 8usize;
    let circuit = random::layered(12, 10, 4, 0xB0057);
    let chip = Chip::min_viable(CodeModel::DoubleDefect, 12, 3).unwrap();
    let service = service_with_cache(4, 16 * 1024 * 1024);
    let handles: Vec<_> = (0..burst)
        .map(|_| service.submit(CompileRequest::new(circuit.clone(), chip.clone())).unwrap())
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
    for outcome in &outcomes[1..] {
        assert_eq!(canonical_report(outcome), canonical_report(&outcomes[0]));
        assert_eq!(outcome.encoded.events(), outcomes[0].encoded.events());
    }
    let stats = service.cache_stats().unwrap();
    assert_eq!(stats.misses, 1, "one compile for the whole burst: {stats:?}");
    assert_eq!(
        stats.hits + stats.coalesced_waits,
        burst as u64 - 1,
        "everyone else was served from the cache or the in-flight compile: {stats:?}"
    );
    let sources: Vec<_> = outcomes.iter().map(|o| o.report.cache.source).collect();
    assert!(sources.contains(&CacheSource::Miss), "{sources:?}");
    assert!(
        sources
            .iter()
            .all(|s| matches!(s, CacheSource::Miss | CacheSource::Hit | CacheSource::Coalesced)),
        "{sources:?}"
    );
}
