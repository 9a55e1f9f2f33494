//! Integration tests for the `ecmas-serve` service layer: worker-count
//! determinism, cooperative cancellation, structured deadline errors,
//! backpressure, panic containment, and the property that service
//! results are bit-identical to driving the compiler directly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ecmas::session::Algorithm;
use ecmas::{
    compile_jobs, validate_encoded, Backpressure, BatchJob, CompileError, CompileOutcome,
    CompileRequest, CompileService, Compiler, Ecmas, JobError, JobStatus, ServiceConfig,
};
use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::random::{self, StressSpec, StressWorkload};
use ecmas_circuit::{benchmarks, Circuit};
use proptest::prelude::*;

fn service(workers: usize) -> CompileService {
    CompileService::new(ServiceConfig { workers, ..ServiceConfig::default() })
}

/// A compiler whose `compile_outcome` blocks on a gate until released —
/// the deterministic way to keep a worker busy while the queue fills.
struct GatedCompiler {
    released: Mutex<bool>,
    releases: Condvar,
    entered: AtomicUsize,
    inner: Ecmas,
}

impl GatedCompiler {
    fn new() -> Arc<Self> {
        Arc::new(GatedCompiler {
            released: Mutex::new(false),
            releases: Condvar::new(),
            entered: AtomicUsize::new(0),
            inner: Ecmas::default(),
        })
    }

    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.releases.notify_all();
    }
}

impl Compiler for GatedCompiler {
    fn name(&self) -> &'static str {
        "gated"
    }

    fn compile_outcome(
        &self,
        circuit: &Circuit,
        chip: &Chip,
    ) -> Result<CompileOutcome, CompileError> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut released = self.released.lock().unwrap();
        while !*released {
            released = self.releases.wait(released).unwrap();
        }
        drop(released);
        self.inner.compile_outcome(circuit, chip)
    }
}

/// A deterministic mixed workload: the service must produce bit-identical
/// schedules whether the pool has 1, 4, or 8 workers — and identical to
/// driving the compiler directly.
#[test]
fn results_are_deterministic_under_1_4_8_workers() {
    let workload = StressWorkload::new(&StressSpec {
        jobs: 12,
        max_depth: 60,
        ..StressSpec::new(12, 16, 0xD15C)
    });
    let circuits: Vec<Circuit> = (0..workload.len()).map(|i| workload.circuit(i)).collect();
    let chips: Vec<Chip> = circuits
        .iter()
        .map(|c| Chip::min_viable(CodeModel::LatticeSurgery, c.qubits(), 3).unwrap())
        .collect();

    let run = |workers: usize| -> Vec<CompileOutcome> {
        let service = service(workers);
        let handles: Vec<_> = circuits
            .iter()
            .zip(&chips)
            .map(|(circuit, chip)| {
                service.submit(CompileRequest::new(circuit.clone(), chip.clone())).unwrap()
            })
            .collect();
        handles.into_iter().map(|h| h.wait().unwrap()).collect()
    };

    let single = run(1);
    for (circuit, outcome) in circuits.iter().zip(&single) {
        validate_encoded(circuit, &outcome.encoded).unwrap();
    }
    for workers in [4usize, 8] {
        let multi = run(workers);
        for ((circuit, seq), par) in circuits.iter().zip(&single).zip(multi) {
            assert_eq!(
                par.encoded.events(),
                seq.encoded.events(),
                "{}: {workers}-worker events differ from 1-worker",
                circuit.name()
            );
            assert_eq!(par.encoded.mapping(), seq.encoded.mapping());
            assert_eq!(par.report.cycles, seq.report.cycles);
        }
    }
    // And the 1-worker service equals the direct compiler call.
    for ((circuit, chip), outcome) in circuits.iter().zip(&chips).zip(&single) {
        let direct = Ecmas::default().compile_auto(circuit, chip).unwrap();
        assert_eq!(outcome.encoded.events(), direct.encoded.events());
        assert_eq!(outcome.report.cycles, direct.report.cycles);
    }
}

/// Cancelling queued jobs must actually stop them: with one worker parked
/// inside a gated compile, the queued jobs behind it are cancelled and
/// must never enter the compiler.
#[test]
fn cancellation_stops_queued_jobs() {
    let gate = GatedCompiler::new();
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 16,
        backpressure: Backpressure::Block,
        ..ServiceConfig::default()
    });
    let chip = Chip::min_viable(CodeModel::LatticeSurgery, 9, 3).unwrap();
    let submit = || {
        service
            .submit(
                CompileRequest::new(benchmarks::ghz(9), chip.clone())
                    .with_compiler(gate.clone() as Arc<dyn Compiler + Send + Sync>),
            )
            .unwrap()
    };
    let running = submit();
    let queued: Vec<_> = (0..3).map(|_| submit()).collect();
    for handle in &queued {
        assert!(handle.cancel(), "job had not finished, so the cancel counts");
        assert!(handle.is_cancelled());
    }
    gate.release();
    let outcome = running.wait().unwrap();
    validate_encoded(&benchmarks::ghz(9), &outcome.encoded).unwrap();
    for handle in queued {
        assert_eq!(handle.wait().unwrap_err(), JobError::Cancelled);
    }
    assert_eq!(
        gate.entered.load(Ordering::SeqCst),
        1,
        "cancelled queued jobs must never enter the compiler"
    );
}

/// A job whose deadline lapses while queued reports the structured
/// timeout error — promptly, even though the only worker is still busy —
/// and never runs.
#[test]
fn expired_deadline_reports_structured_timeout_instead_of_hanging() {
    let gate = GatedCompiler::new();
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 16,
        backpressure: Backpressure::Block,
        ..ServiceConfig::default()
    });
    let chip = Chip::min_viable(CodeModel::DoubleDefect, 10, 3).unwrap();
    let blocker = service
        .submit(
            CompileRequest::new(benchmarks::qft_n10(), chip.clone())
                .with_compiler(gate.clone() as Arc<dyn Compiler + Send + Sync>),
        )
        .unwrap();
    let doomed = service
        .submit(
            CompileRequest::new(benchmarks::qft_n10(), chip.clone()).with_deadline(Duration::ZERO),
        )
        .unwrap();
    // The worker is parked in the gate; the wait must still return.
    let err = doomed.wait().unwrap_err();
    assert_eq!(err, JobError::DeadlineExceeded { budget: Duration::ZERO });
    gate.release();
    blocker.wait().unwrap();
    assert_eq!(gate.entered.load(Ordering::SeqCst), 1, "the expired job never ran");
}

/// Reject-mode backpressure hands the request back intact; once the queue
/// drains the same request is accepted.
#[test]
fn reject_backpressure_returns_the_request_for_retry() {
    let gate = GatedCompiler::new();
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        backpressure: Backpressure::Reject,
        ..ServiceConfig::default()
    });
    let chip = Chip::min_viable(CodeModel::LatticeSurgery, 9, 3).unwrap();
    let gated_request = || {
        CompileRequest::new(benchmarks::ghz(9), chip.clone())
            .with_compiler(gate.clone() as Arc<dyn Compiler + Send + Sync>)
    };
    let running = service.submit(gated_request()).unwrap();
    // Wait until the worker has actually picked the first job up, so the
    // single queue slot is free and its occupancy is deterministic.
    while gate.entered.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    let queued = service.submit(gated_request()).unwrap();
    let rejected = service.submit(gated_request());
    let request = match rejected {
        Err(ecmas::SubmitError::Saturated(request)) => *request,
        other => panic!("a full queue under Reject must refuse the job: {other:?}"),
    };
    assert_eq!(request.circuit().qubits(), 9, "the request comes back intact");
    gate.release();
    running.wait().unwrap();
    queued.wait().unwrap();
    let retried = service.submit(request).unwrap();
    retried.wait().unwrap();
}

/// Reject-mode backpressure under a concurrent thundering herd: with the
/// single worker parked and the queue empty at capacity 4, exactly 4 of
/// 8 simultaneous submitters are admitted and exactly 4 are handed their
/// requests back — no lost jobs, no double-admits, and every admitted
/// job completes once the gate opens.
#[test]
fn reject_backpressure_is_exact_under_concurrent_submitters() {
    let gate = GatedCompiler::new();
    const CAPACITY: usize = 4;
    const SUBMITTERS: usize = 8;
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        queue_capacity: CAPACITY,
        backpressure: Backpressure::Reject,
        ..ServiceConfig::default()
    });
    let chip = Chip::min_viable(CodeModel::LatticeSurgery, 9, 3).unwrap();
    let gated_request = || {
        CompileRequest::new(benchmarks::ghz(9), chip.clone())
            .with_compiler(gate.clone() as Arc<dyn Compiler + Send + Sync>)
    };
    let running = service.submit(gated_request()).unwrap();
    // Park the worker so queue occupancy is deterministic.
    while gate.entered.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }

    let barrier = std::sync::Barrier::new(SUBMITTERS);
    let (admitted, rejected): (Vec<_>, Vec<_>) = std::thread::scope(|scope| {
        let results: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    service.submit(gated_request())
                })
            })
            .collect();
        results.into_iter().map(|t| t.join().unwrap()).partition(Result::is_ok)
    });
    assert_eq!(admitted.len(), CAPACITY, "exactly the queue capacity is admitted");
    assert_eq!(rejected.len(), SUBMITTERS - CAPACITY);
    for result in &rejected {
        match result {
            Err(ecmas::SubmitError::Saturated(request)) => {
                assert_eq!(request.circuit().qubits(), 9, "requests come back intact");
            }
            other => panic!("concurrent overflow must be Saturated: {other:?}"),
        }
    }

    gate.release();
    running.wait().unwrap();
    for handle in admitted {
        handle.unwrap().wait().unwrap();
    }
}

/// A panicking compile is contained: the job reports `Panicked`, the
/// worker survives, and the next job on the same worker completes.
#[test]
fn panics_are_contained_and_the_worker_survives() {
    struct Bomb;
    impl Compiler for Bomb {
        fn name(&self) -> &'static str {
            "bomb"
        }
        fn compile_outcome(
            &self,
            _circuit: &Circuit,
            _chip: &Chip,
        ) -> Result<CompileOutcome, CompileError> {
            panic!("boom");
        }
    }
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        backpressure: Backpressure::Block,
        ..ServiceConfig::default()
    });
    let chip = Chip::min_viable(CodeModel::LatticeSurgery, 9, 3).unwrap();
    let bombed = service
        .submit(CompileRequest::new(benchmarks::ghz(9), chip.clone()).with_compiler(Arc::new(Bomb)))
        .unwrap();
    let healthy = service.submit(CompileRequest::new(benchmarks::ghz(9), chip)).unwrap();
    match bombed.wait().unwrap_err() {
        JobError::Panicked { message } => assert!(message.contains("boom")),
        other => panic!("expected Panicked, got {other:?}"),
    }
    healthy.wait().unwrap();
}

/// The service's one built-in pipeline makes the paper's
/// resource-adaptive choice on both sides of Theorem 2: Algorithm 1 on a
/// min-viable chip, Ecmas-ReSu on a sufficient one, each event for event
/// what `compile_auto` gives. A compile error surfaces as
/// `JobError::Compile`.
#[test]
fn schedule_modes_and_compile_errors_round_trip() {
    let circuit = benchmarks::dnn_n8();
    let gpm = ecmas::para_finding(&circuit.dag()).gpm();
    let service = service(2);
    for (chip, algorithm) in [
        (Chip::min_viable(CodeModel::LatticeSurgery, 8, 3).unwrap(), Algorithm::Limited),
        (Chip::sufficient(CodeModel::LatticeSurgery, 8, gpm, 3).unwrap(), Algorithm::ReSu),
    ] {
        let outcome = service
            .submit(CompileRequest::new(circuit.clone(), chip.clone()))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(outcome.report.algorithm, algorithm);
        let direct = Ecmas::default().compile_auto(&circuit, &chip).unwrap();
        assert_eq!(outcome.encoded.events(), direct.encoded.events());
        assert_eq!(outcome.encoded.cycles(), direct.encoded.cycles());
    }

    let tiny = Chip::uniform(CodeModel::LatticeSurgery, 2, 2, 1, 3).unwrap();
    let err = service
        .submit(CompileRequest::new(benchmarks::qft_n10(), tiny))
        .unwrap()
        .wait()
        .unwrap_err();
    assert_eq!(err, JobError::Compile(CompileError::TooManyQubits { qubits: 10, slots: 4 }));
}

/// Status transitions are observable through the handle.
#[test]
fn job_status_progresses_to_finished() {
    let gate = GatedCompiler::new();
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        backpressure: Backpressure::Block,
        ..ServiceConfig::default()
    });
    let chip = Chip::min_viable(CodeModel::LatticeSurgery, 9, 3).unwrap();
    let first = service
        .submit(
            CompileRequest::new(benchmarks::ghz(9), chip.clone())
                .with_compiler(gate.clone() as Arc<dyn Compiler + Send + Sync>),
        )
        .unwrap();
    let second = service.submit(CompileRequest::new(benchmarks::ghz(9), chip)).unwrap();
    while gate.entered.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    assert_eq!(first.status(), JobStatus::Running);
    assert_eq!(second.status(), JobStatus::Queued);
    gate.release();
    first.wait().unwrap();
    second.wait().unwrap();
}

/// A batch surfaces per-circuit errors in order.
#[test]
fn batch_surfaces_per_circuit_errors_in_order() {
    let circuits = [benchmarks::ghz(4), benchmarks::qft_n10(), benchmarks::ghz(4)];
    let chip = Chip::uniform(CodeModel::LatticeSurgery, 2, 2, 1, 3).unwrap();
    let compiler = Ecmas::default();
    let jobs: Vec<BatchJob<'_>> = circuits
        .iter()
        .map(|circuit| BatchJob { compiler: &compiler, circuit, chip: &chip })
        .collect();
    let results = compile_jobs(&jobs);
    assert!(results[0].is_ok());
    assert!(matches!(results[1], Err(CompileError::TooManyQubits { qubits: 10, slots: 4 })));
    assert!(results[2].is_ok());
    // And the trivial empty batch.
    assert!(compile_jobs(&[]).is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property: for random circuits, chips, and pool sizes, the service
    /// result is bit-identical to `Compiler::compile_outcome` (and the
    /// report carries the same deterministic counters).
    #[test]
    fn service_results_equal_direct_compilation(
        seed in 0u64..500,
        pm in 1usize..5,
        workers in 1usize..5,
        model_pick in 0u8..2,
    ) {
        let circuit = random::layered(12, 8, pm, seed);
        let model =
            if model_pick == 0 { CodeModel::DoubleDefect } else { CodeModel::LatticeSurgery };
        let chip = Chip::min_viable(model, 12, 3).unwrap();
        let service = service(workers);
        let outcome = service
            .submit(CompileRequest::new(circuit.clone(), chip.clone()))
            .unwrap()
            .wait()
            .unwrap();
        let direct = Ecmas::default().compile_auto(&circuit, &chip).unwrap();
        prop_assert_eq!(outcome.encoded.events(), direct.encoded.events());
        prop_assert_eq!(outcome.encoded.mapping(), direct.encoded.mapping());
        prop_assert_eq!(outcome.encoded.initial_cuts(), direct.encoded.initial_cuts());
        prop_assert_eq!(outcome.report.cycles, direct.report.cycles);
        prop_assert_eq!(outcome.report.router, direct.report.router);
        prop_assert_eq!(outcome.report.algorithm, direct.report.algorithm);
    }
}
