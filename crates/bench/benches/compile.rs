//! Criterion microbenches for the paper's efficiency claims: compile time
//! should grow roughly linearly with chip area (Fig. 12 bottom), and the
//! pipeline's stages should each stay cheap at benchmark scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecmas::{
    compile_jobs, para_finding, BatchJob, CompileRequest, CompileService, Ecmas, EcmasConfig,
    ServiceConfig,
};
use ecmas_baselines::{AutoBraid, Edpci};
use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::random::{StressSpec, StressWorkload};
use ecmas_circuit::{benchmarks, qasm, random};
use ecmas_partition::{place, WeightedGraph};
use ecmas_route::{Disjointness, RouteRequest, Router};

fn bench_para_finding(c: &mut Criterion) {
    let qft = benchmarks::qft_n50();
    let dag = qft.dag();
    c.bench_function("para_finding/qft_n50", |b| b.iter(|| para_finding(&dag)));
    // The largest Table I row: 14 356 CNOTs.
    let walk = benchmarks::quantum_walk_n11().dag();
    c.bench_function("para_finding/quantum_walk_n11", |b| b.iter(|| para_finding(&walk)));
    // The daemon-shaped DAGs: the regime where a per-pick scan is short
    // and a heavier index would lose.
    let dags = daemon_shaped_dags();
    c.bench_function("para_finding/layered_daemon_mix", |b| {
        b.iter(|| dags.iter().map(|dag| para_finding(dag).gpm()).sum::<usize>());
    });
}

/// 60 small layered DAGs shaped like the daemon benchmark's jobs (widths
/// 8–24, depths 40–240).
fn daemon_shaped_dags() -> Vec<ecmas_circuit::GateDag> {
    let spec = StressSpec {
        jobs: 60,
        min_qubits: 8,
        max_qubits: 24,
        min_depth: 40,
        max_depth: 240,
        mean_burst: 1,
        dup_percent: 0,
        defect_percent: 0,
        seed: 7,
    };
    StressWorkload::new(&spec).jobs().iter().map(|job| job.circuit().dag()).collect()
}

/// Algorithm 1's descendant-count tie-break, computed once per schedule
/// run: the largest Table I row, a deep all-pairs circuit (40 100 CNOTs
/// over 200 wires) and the daemon-shaped DAGs.
fn bench_descendants(c: &mut Criterion) {
    let walk = benchmarks::quantum_walk_n11().dag();
    c.bench_function("descendants/quantum_walk_n11", |b| b.iter(|| walk.descendant_counts()));
    let qft = benchmarks::qft(200).dag();
    c.bench_function("descendants/qft_200", |b| b.iter(|| qft.descendant_counts()));
    let dags = daemon_shaped_dags();
    c.bench_function("descendants/layered_daemon_mix", |b| {
        b.iter(|| dags.iter().map(|dag| dag.descendant_counts().len()).sum::<usize>());
    });
}

/// The QASM front end on the largest Table I text (≈408 KB).
fn bench_parse(c: &mut Criterion) {
    let source = qasm::to_qasm(&benchmarks::quantum_walk_n11());
    c.bench_function("parse/quantum_walk_n11", |b| {
        b.iter(|| qasm::parse(&source).expect("writer output parses").op_count());
    });
}

fn bench_placement(c: &mut Criterion) {
    let graph_of = |circuit: &ecmas_circuit::Circuit| {
        let comm = circuit.comm_graph();
        WeightedGraph::from_edges(
            comm.qubits(),
            comm.edges().iter().map(|e| (e.a, e.b, u64::from(e.weight))),
        )
    };
    let qft = graph_of(&benchmarks::qft_n10());
    c.bench_function("placement/qft_n10_4x4", |b| {
        b.iter(|| place(&qft, 4, 4, 4, 7, true, &[false; 16]));
    });
    // Paper-scale placement with the compiler's 8 restarts: a sparse
    // communication graph (a chain) and a dense one (all pairs).
    let ising = graph_of(&benchmarks::ising_n50());
    c.bench_function("placement/ising_n50_8x8", |b| {
        b.iter(|| place(&ising, 8, 8, 8, 7, true, &[false; 64]));
    });
    let qft = graph_of(&benchmarks::qft_n50());
    c.bench_function("placement/qft_n50_8x8", |b| {
        b.iter(|| place(&qft, 8, 8, 8, 7, true, &[false; 64]));
    });
}

fn bench_router(c: &mut Criterion) {
    let chip = Chip::uniform(CodeModel::DoubleDefect, 8, 8, 2, 3).unwrap();
    c.bench_function("router/64_random_pairs_8x8_b2", |b| {
        b.iter(|| {
            let mut router = Router::new(chip.grid(), Disjointness::Node);
            for t in 0..64 {
                router.block_tile(t);
            }
            let mut routed = 0;
            for k in 0..64u64 {
                let from = (k * 17 % 64) as usize;
                let to = (k * 29 % 64) as usize;
                if from != to && router.route_tiles(from, to, k / 8, 1).is_some() {
                    routed += 1;
                }
            }
            routed
        });
    });
    // The same workload through the per-cycle batch API (8 requests per
    // cycle, distance-ordered) — what the schedulers actually drive.
    c.bench_function("router/64_pairs_batched_8x8_b2", |b| {
        b.iter(|| {
            let mut router = Router::new(chip.grid(), Disjointness::Node);
            for t in 0..64 {
                router.block_tile(t);
            }
            let mut routed = 0;
            let mut outcomes = Vec::new();
            for cycle in 0..8u64 {
                let requests: Vec<RouteRequest> = (8 * cycle..8 * (cycle + 1))
                    .filter_map(|k| {
                        let from = (k * 17 % 64) as usize;
                        let to = (k * 29 % 64) as usize;
                        (from != to).then(|| RouteRequest::route(from, to, 1))
                    })
                    .collect();
                router.route_ready_by_distance(&requests, cycle, &mut outcomes);
                routed += outcomes.iter().flatten().count();
            }
            routed
        });
    });
}

/// The congested worst case the reachability cache targets: qft_n50's
/// all-to-all pair traffic on `Chip::congested` (16×16 tiles, every
/// channel at the bandwidth-1 floor), with the mapped tiles spread far
/// apart. Every cycle submits a saturating 50-request batch; a handful
/// route, the channels jam, and the rest provably cannot — without the
/// cache each of those failures floods the entire reachable region
/// before returning `None`.
fn bench_congested_router(c: &mut Criterion) {
    let qubits = 50usize;
    let chip = Chip::congested(CodeModel::DoubleDefect, qubits, 3).unwrap();
    let stride = chip.tile_slots() / qubits; // spread the mapping out
    let slot = |q: usize| q * stride;
    // qft-style traffic: each cycle pairs every qubit i with qubits i+k
    // and i+k+11 — a 100-request saturating batch per cycle (roughly 40
    // route, the rest fail; the cache answers >90% of the failures).
    let cycles = 8u64;
    let batches: Vec<Vec<RouteRequest>> = (0..cycles)
        .map(|cycle| {
            let k = cycle as usize + 1;
            (0..qubits)
                .flat_map(|i| {
                    [
                        RouteRequest::route(slot(i), slot((i + k) % qubits), 1),
                        RouteRequest::route(slot(i), slot((i + k + 11) % qubits), 1),
                    ]
                })
                .collect()
        })
        .collect();
    c.bench_function("router/qft_n50_congested", |b| {
        b.iter(|| {
            let mut router = Router::new(chip.grid(), Disjointness::Node);
            for q in 0..qubits {
                router.block_tile(slot(q));
            }
            let mut routed = 0;
            let mut outcomes = Vec::new();
            for (cycle, batch) in batches.iter().enumerate() {
                router.route_ready_by_distance(batch, cycle as u64, &mut outcomes);
                routed += outcomes.iter().flatten().count();
            }
            (routed, router.stats().cache_hits)
        });
    });
}

/// Algorithm 1's schedule stage alone (`Mapped::schedule` on a fixed
/// mapping), where the router's searches dominate: `qft_n50` on a 4×
/// double-defect chip (the base run plus its rejected bandwidth-adjusted
/// candidate), `quantum_walk_n11` on its min-viable chip (about 14k
/// short searches, so the fixed cost per search dominates), and
/// `qft(200)` in lattice surgery (long edge-mode searches at scale).
fn bench_schedule(c: &mut Criterion) {
    let rows = [
        ("schedule/qft_n50_dd_4x", benchmarks::qft_n50(), CodeModel::DoubleDefect, true),
        (
            "schedule/quantum_walk_n11_dd_min",
            benchmarks::quantum_walk_n11(),
            CodeModel::DoubleDefect,
            false,
        ),
        ("scale/qft_200_ls_schedule", benchmarks::qft(200), CodeModel::LatticeSurgery, false),
    ];
    for (id, circuit, model, four_x) in rows {
        let n = circuit.qubits();
        let chip = if four_x { Chip::four_x(model, n, 3) } else { Chip::min_viable(model, n, 3) };
        let mapped = Ecmas::default().session(&circuit, &chip.unwrap()).unwrap().map().unwrap();
        c.bench_function(id, |b| {
            b.iter(|| mapped.clone().schedule().unwrap().into_outcome().report.cycles);
        });
    }
}

/// Service-layer throughput on a congested chip: a 100-job seeded
/// stress mix (widths 8–25, depths 40–160, bursty arrival order) fanned
/// out through `compile_jobs` — the dispatch machine `ecmasd` and the
/// table harnesses share. One iteration is the whole drain.
fn bench_service_stress(c: &mut Criterion) {
    let chip = Chip::congested(CodeModel::LatticeSurgery, 25, 3).unwrap();
    let spec = StressSpec {
        jobs: 100,
        min_qubits: 8,
        max_qubits: 25,
        min_depth: 40,
        max_depth: 160,
        mean_burst: 8,
        dup_percent: 0,
        defect_percent: 0,
        seed: 7,
    };
    let circuits: Vec<_> =
        StressWorkload::new(&spec).jobs().iter().map(|job| job.circuit()).collect();
    let compiler = Ecmas::new(EcmasConfig::default());
    let jobs: Vec<BatchJob<'_>> = circuits
        .iter()
        .map(|circuit| BatchJob { compiler: &compiler, circuit, chip: &chip })
        .collect();
    c.bench_function("service/stress_100_jobs", |b| {
        b.iter(|| {
            let outcomes = compile_jobs(&jobs);
            assert!(outcomes.iter().all(Result::is_ok), "stress jobs must all compile");
            outcomes.len()
        });
    });

    // The same 100-job mix through the persistent `CompileService` with
    // the fault-injection/retry/shedding hooks compiled in but disabled
    // (`faults: None`, shedding off): the hook layer must be near zero-cost
    // when off, which the bench-compare gate enforces against the
    // baseline row.
    c.bench_function("service/stress_100_jobs_faults_off", |b| {
        b.iter(|| {
            let service = CompileService::new(ServiceConfig {
                workers: 4,
                queue_capacity: 128,
                ..ServiceConfig::default()
            });
            let handles: Vec<_> = circuits
                .iter()
                .map(|circuit| {
                    service
                        .submit(CompileRequest::new(circuit.clone(), chip.clone()))
                        .expect("queue holds the whole mix")
                })
                .collect();
            let mut done = 0usize;
            for handle in handles {
                handle.wait().expect("stress jobs must all compile");
                done += 1;
            }
            done
        });
    });
}

/// The compile-cache A/B: a 1000-job seeded stress mix where 90% of
/// jobs are Zipf-skewed exact repeats of earlier ones (a shared service
/// recompiling a few hot kernels), drained through a `CompileService`
/// with the content-addressed cache off vs on. One iteration is the
/// whole drain from a cold service, so the on/off ratio is the
/// mean-latency improvement the cache buys on duplicated traffic — the
/// headline claim is ≥5×.
fn bench_service_stress_dup(c: &mut Criterion) {
    let spec = StressSpec {
        jobs: 1000,
        min_qubits: 8,
        max_qubits: 14,
        min_depth: 40,
        max_depth: 120,
        mean_burst: 8,
        dup_percent: 90,
        defect_percent: 0,
        seed: 21,
    };
    let workload = StressWorkload::new(&spec);
    let jobs: Vec<_> = workload
        .jobs()
        .iter()
        .map(|job| {
            let circuit = job.circuit();
            let chip = Chip::min_viable(CodeModel::LatticeSurgery, circuit.qubits(), 3).unwrap();
            (circuit, chip)
        })
        .collect();
    let run = |cache_bytes: u64| {
        let service = CompileService::new(ServiceConfig {
            workers: 4,
            cache_bytes,
            ..ServiceConfig::default()
        });
        let handles: Vec<_> = jobs
            .iter()
            .map(|(circuit, chip)| {
                service.submit(CompileRequest::new(circuit.clone(), chip.clone())).unwrap()
            })
            .collect();
        let mut done = 0usize;
        for handle in handles {
            handle.wait().expect("stress jobs must all compile");
            done += 1;
        }
        done
    };
    c.bench_function("service/stress_dup_1000_cache_off", |b| b.iter(|| run(0)));
    c.bench_function("service/stress_dup_1000_cache_on", |b| {
        b.iter(|| run(64 * 1024 * 1024));
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile");
    for name in ["qft_n10", "ising_n10", "swap_test_n25"] {
        let circuit = benchmarks::by_name(name).expect("known benchmark");
        let dd = Chip::min_viable(CodeModel::DoubleDefect, circuit.qubits(), 3).unwrap();
        let ls = Chip::min_viable(CodeModel::LatticeSurgery, circuit.qubits(), 3).unwrap();
        group.bench_with_input(BenchmarkId::new("ecmas_dd", name), &circuit, |b, circ| {
            b.iter(|| Ecmas::new(EcmasConfig::default()).compile(circ, &dd).unwrap().cycles());
        });
        group.bench_with_input(BenchmarkId::new("ecmas_ls", name), &circuit, |b, circ| {
            b.iter(|| Ecmas::new(EcmasConfig::default()).compile(circ, &ls).unwrap().cycles());
        });
        group.bench_with_input(BenchmarkId::new("autobraid", name), &circuit, |b, circ| {
            b.iter(|| AutoBraid::new().compile(circ, &dd).unwrap().cycles());
        });
        group.bench_with_input(BenchmarkId::new("edpci", name), &circuit, |b, circ| {
            b.iter(|| Edpci::new().compile(circ, &ls).unwrap().cycles());
        });
    }
    group.finish();
}

/// The defective-chip worst case: congested qft_n50 with 10% of the
/// tile array dead (seeded mask). Placement has to skip dead tiles and
/// the router detours around dead channel cells, so this row prices the
/// whole defect-aware path against the uniform `router/qft_n50_congested`
/// and pin workloads.
fn bench_defective_compile(c: &mut Criterion) {
    let circuit = benchmarks::qft_n50();
    let mut chip = Chip::congested(CodeModel::LatticeSurgery, circuit.qubits(), 3).unwrap();
    let slots = chip.tile_rows() * chip.tile_cols();
    chip.seed_defects(slots / 10, 0xD5EED);
    c.bench_function("compile/qft_n50_defect10", |b| {
        b.iter(|| Ecmas::default().compile_auto(&circuit, &chip).unwrap().report.cycles);
    });
}

/// Fig. 12 bottom panel: compile time as the chip grows (bandwidth 1..5).
fn bench_chip_size_scaling(c: &mut Criterion) {
    let circuit = random::layered(49, 50, 11, 0xF16);
    let mut group = c.benchmark_group("fig12_compile_time");
    group.sample_size(10);
    for bw in 1..=5u32 {
        let chip = Chip::uniform(CodeModel::DoubleDefect, 7, 7, bw, 3).unwrap();
        group.bench_with_input(BenchmarkId::new("ecmas_dd_pm11", bw), &chip, |b, chip| {
            b.iter(|| Ecmas::new(EcmasConfig::default()).compile(&circuit, chip).unwrap().cycles());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_para_finding,
    bench_descendants,
    bench_parse,
    bench_placement,
    bench_router,
    bench_congested_router,
    bench_schedule,
    bench_end_to_end,
    bench_defective_compile,
    bench_chip_size_scaling,
    bench_service_stress,
    bench_service_stress_dup
);
criterion_main!(benches);
