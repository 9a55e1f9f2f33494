//! The compile service: a persistent worker pool over the bounded queue.
//!
//! [`CompileService`] is the long-running front end of the workspace: it
//! owns `workers` OS threads that drain a bounded job queue, and hands
//! every submission back as a [`JobHandle`]. Requests carry their own
//! circuit, chip, and optional deadline, so one service instance serves
//! heterogeneous traffic — exactly what the `ecmasd` daemon needs. (Batch experiments use the plain scoped loop of
//! [`compile_jobs`](crate::compile_jobs) instead.)
//!
//! Built-in [`CompileRequest`]s run the staged session pipeline
//! (profile → map → schedule) with a cancellation/deadline checkpoint at
//! every stage boundary, so cooperative cancellation has real teeth
//! without the compiler having to poll flags in its inner loops. Custom
//! compilers (the baselines, or anything implementing
//! [`Compiler`]) run as a single opaque stage.
//!
//! Determinism: the service adds no randomness — every compiler in the
//! workspace is deterministic and jobs share no mutable state — so a
//! job's result is bit-identical whether the pool has 1 worker or 16,
//! and identical to calling the compiler directly.
//!
//! With [`ServiceConfig::cache_bytes`] set, built-in requests run behind
//! the `ecmas-cache` content-addressed cache: full-result hits skip the
//! pipeline, identical concurrent jobs coalesce into one compile, and a
//! miss runs the whole pipeline and stores its result. Determinism makes
//! this transparent — a cached result is bit-identical (schedule and
//! report, minus wall-clock timings and the `report.cache` provenance
//! block) to a cold compile.
//!
//! # Failure handling
//!
//! - **Panic containment**: a compiler panic is caught on the worker and
//!   surfaces as [`JobError::Panicked`]; the worker goes on to the next
//!   job, so one bad compile cannot take the pool (or the queue behind
//!   it) down.
//! - **Cancellation and deadlines** ([`JobHandle::cancel`],
//!   [`CompileRequest::with_deadline`]): checked at pickup and at every
//!   stage boundary of the built-in pipeline.
//! - **Backpressure** ([`ServiceConfig::backpressure`]): a full queue
//!   blocks the submitter or hands the request back.
//! - **Load shedding** ([`ServiceConfig::shed_cost_budget`]): when the
//!   aggregate estimated cost of accepted-but-unfinished jobs exceeds
//!   the budget, submissions are shed with
//!   [`SubmitError::Overloaded`] and a `retry_after_ms` hint.
//! - **Graceful drain** ([`CompileService::drain`]): stop admitting,
//!   wait until every accepted job has settled, keep serving results.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ecmas_cache::{full_key, Begin, CacheStats, CompileCache, FollowStatus};
use ecmas_chip::Chip;
use ecmas_circuit::Circuit;
use ecmas_core::session::{CacheSource, CompileOutcome, Compiler};
use ecmas_core::Ecmas;

use crate::job::{JobError, JobHandle, Slot};
use crate::queue::{Backpressure, JobQueue, PushError};

/// How long a coalesced follower parks before running its own
/// cancellation/deadline checkpoint and parking again.
const COALESCE_POLL: Duration = Duration::from_millis(25);

/// Sizing, backpressure, caching and load-shedding policy of a
/// [`CompileService`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Bounded queue capacity; `0` means `4 × workers`. The bound is what
    /// keeps queue memory constant no matter how fast clients submit.
    pub queue_capacity: usize,
    /// What a submission does when the queue is at capacity.
    pub backpressure: Backpressure,
    /// Byte budget of the content-addressed compile cache of full
    /// results in front of the built-in Ecmas pipeline; `0` (the
    /// default) disables caching entirely. Requests that run a custom
    /// compiler ([`CompileRequest::with_compiler`]) bypass the cache.
    pub cache_bytes: u64,
    /// Load-shedding budget: when the summed
    /// [`CompileRequest::estimated_cost`] of accepted-but-unfinished
    /// jobs would exceed this, new submissions are shed with
    /// [`SubmitError::Overloaded`]. `0` (the default) disables shedding.
    pub shed_cost_budget: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_capacity: 0,
            backpressure: Backpressure::Block,
            cache_bytes: 0,
            shed_cost_budget: 0,
        }
    }
}

impl ServiceConfig {
    fn resolved(self) -> (usize, usize) {
        let workers = if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.workers
        };
        let capacity =
            if self.queue_capacity == 0 { workers.saturating_mul(4) } else { self.queue_capacity };
        (workers, capacity)
    }
}

#[derive(Clone)]
enum Pipeline {
    Ecmas,
    Custom(Arc<dyn Compiler + Send + Sync>),
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Pipeline::Ecmas => f.write_str("Ecmas"),
            Pipeline::Custom(c) => write!(f, "Custom({})", c.name()),
        }
    }
}

/// One unit of service work: a circuit, the chip to compile it for, the
/// pipeline to run, and an optional deadline.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use ecmas_serve::CompileRequest;
/// use ecmas_chip::{Chip, CodeModel};
/// use ecmas_circuit::benchmarks::ghz;
///
/// let chip = Chip::min_viable(CodeModel::LatticeSurgery, 9, 3)?;
/// let request = CompileRequest::new(ghz(9), chip)
///     .with_analyze(true)
///     .with_deadline(Duration::from_secs(5));
/// assert_eq!(request.circuit().qubits(), 9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct CompileRequest {
    circuit: Circuit,
    chip: Chip,
    pipeline: Pipeline,
    deadline: Option<Duration>,
    analyze: bool,
}

impl CompileRequest {
    /// A request for the built-in pipeline, with no deadline: the
    /// default [`Ecmas`] config and the paper's resource-adaptive choice
    /// of scheduler (`Mapped::schedule_auto`).
    #[must_use]
    pub fn new(circuit: Circuit, chip: Chip) -> Self {
        CompileRequest { circuit, chip, pipeline: Pipeline::Ecmas, deadline: None, analyze: false }
    }

    /// Runs an arbitrary [`Compiler`] (e.g. a baseline) instead of the
    /// staged Ecmas pipeline. Custom compilers execute as one opaque
    /// stage: cancellation and deadlines are only checked before it runs.
    #[must_use]
    pub fn with_compiler(mut self, compiler: Arc<dyn Compiler + Send + Sync>) -> Self {
        self.pipeline = Pipeline::Custom(compiler);
        self
    }

    /// Sets the deadline, measured from submission. A job that cannot
    /// finish inside it reports [`JobError::DeadlineExceeded`].
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Runs the static analyzer on this job's result: circuit lints
    /// against the target chip plus full schedule verification and
    /// metrics, delivered in the report's `diagnostics`. The analyzer
    /// only observes — the schedule is identical with or without it.
    #[must_use]
    pub fn with_analyze(mut self, analyze: bool) -> Self {
        self.analyze = analyze;
        self
    }

    /// The circuit to compile.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The target chip.
    #[must_use]
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// A cheap, deterministic proxy for how much work this request
    /// represents (`qubits × ops`, at least 1). Admission control sums
    /// this over accepted-but-unfinished jobs and sheds when the sum
    /// would exceed [`ServiceConfig::shed_cost_budget`].
    #[must_use]
    pub fn estimated_cost(&self) -> u64 {
        (self.circuit.qubits() as u64).saturating_mul(self.circuit.ops().len() as u64).max(1)
    }
}

/// Why a submission was not accepted.
#[derive(Debug)]
#[non_exhaustive]
pub enum SubmitError {
    /// The queue is at capacity under [`Backpressure::Reject`]; the
    /// request is handed back so the caller can retry or shed load.
    Saturated(Box<CompileRequest>),
    /// Admission control shed this request: the aggregate estimated
    /// cost of accepted-but-unfinished jobs exceeds
    /// [`ServiceConfig::shed_cost_budget`]. `retry_after_ms` is a
    /// coarse hint (derived from the current backlog) for when a retry
    /// is likely to be admitted.
    Overloaded {
        /// The request, handed back untouched.
        request: Box<CompileRequest>,
        /// Suggested client-side backoff before resubmitting.
        retry_after_ms: u64,
    },
    /// The service is draining ([`CompileService::drain`]) and no longer
    /// admits new work; in-flight jobs still run to completion.
    Draining(Box<CompileRequest>),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Saturated(_) => write!(f, "service queue is at capacity"),
            SubmitError::Overloaded { retry_after_ms, .. } => {
                write!(f, "service overloaded; retry after {retry_after_ms}ms")
            }
            SubmitError::Draining(_) => write!(f, "service is draining"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Shared state between submitters and workers: the queue plus the
/// admission counters.
struct ServiceCore {
    queue: JobQueue<(Arc<Slot>, OwnedJob)>,
    backpressure: Backpressure,
    next_id: AtomicU64,
    /// Summed [`CompileRequest::estimated_cost`] of accepted jobs that
    /// have not yet settled; `0` cost per job when shedding is off.
    pending_cost: AtomicU64,
    /// Budget over `pending_cost`; `0` disables shedding.
    shed_cost_budget: u64,
    /// Submissions shed by admission control.
    shed: AtomicU64,
    /// Jobs admitted (or being admitted) that have not yet settled.
    unsettled: AtomicUsize,
    /// Set by [`CompileService::drain`]: reject new work.
    draining: AtomicBool,
}

impl ServiceCore {
    fn submit(&self, job: OwnedJob) -> Result<JobHandle, SubmitError> {
        // Count the job before reading the drain flag, which `drain`
        // raises before reading the count: with both sides `SeqCst`,
        // either this submit sees the flag or `drain` waits for the job.
        self.unsettled.fetch_add(1, Ordering::SeqCst);
        if self.draining.load(Ordering::SeqCst) {
            self.release(0);
            return Err(SubmitError::Draining(Box::new(job.request)));
        }
        let mut cost = 0;
        if self.shed_cost_budget > 0 {
            cost = job.request.estimated_cost();
            // Optimistically claim the cost; back out when over budget.
            // The claim-then-check keeps concurrent submitters from all
            // sneaking under the bar together.
            let prev = self.pending_cost.fetch_add(cost, Ordering::AcqRel);
            if prev.saturating_add(cost) > self.shed_cost_budget {
                self.release(cost);
                self.shed.fetch_add(1, Ordering::Relaxed);
                // Coarse hint: scale with the backlog the request would
                // have waited behind.
                let retry_after_ms = ((self.queue.len() as u64 + 1) * 25).min(2_000);
                return Err(SubmitError::Overloaded {
                    request: Box::new(job.request),
                    retry_after_ms,
                });
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(Slot::new(job.request.deadline, cost));
        match self.queue.push((Arc::clone(&slot), job), self.backpressure) {
            Ok(()) => Ok(JobHandle::new(id, slot)),
            Err(PushError::Full((_, job))) => {
                self.release(cost);
                Err(SubmitError::Saturated(Box::new(job.request)))
            }
            Err(PushError::Closed(_)) => unreachable!("queue closes only on shutdown/drop"),
        }
    }

    /// A job settled, or its admission was refused: drop it from the
    /// unsettled count and release its cost claim.
    fn release(&self, cost: u64) {
        if self.shed_cost_budget > 0 {
            self.pending_cost.fetch_sub(cost, Ordering::AcqRel);
        }
        self.unsettled.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One worker: drain the queue until it closes. Cancelled or expired jobs
/// are skipped at pickup; compiler panics are caught so one bad compile
/// cannot take a worker (or the queue behind it) down.
fn worker_loop(core: &ServiceCore) {
    while let Some((slot, job)) = core.queue.pop() {
        slot.finish(run_job(&slot, &job));
        core.release(slot.cost());
    }
}

fn run_job(slot: &Slot, job: &OwnedJob) -> Result<CompileOutcome, JobError> {
    slot.begin()?;
    catch_unwind(AssertUnwindSafe(|| job.run(slot)))
        // `&*panic`, not `&panic`: a `&Box<dyn Any>` would itself unsize
        // into the `dyn Any` and hide the payload behind a second
        // indirection.
        .unwrap_or_else(|panic| Err(JobError::Panicked { message: panic_message(&*panic) }))
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// An owned service job: the request plus the service's shared compile
/// cache (when one is configured), ready to run on a 'static worker.
struct OwnedJob {
    request: CompileRequest,
    cache: Option<Arc<CompileCache>>,
}

impl OwnedJob {
    fn run(&self, slot: &Slot) -> Result<CompileOutcome, JobError> {
        let CompileRequest { circuit, chip, pipeline, .. } = &self.request;
        let mut outcome = match pipeline {
            Pipeline::Ecmas => {
                if let Some(cache) = &self.cache {
                    run_cached(cache, circuit, chip, slot)?
                } else {
                    run_stages(circuit, chip, slot)?
                }
            }
            Pipeline::Custom(compiler) => {
                // Custom compilers bypass the cache: their identity is an
                // opaque trait object the content hash cannot see.
                slot.checkpoint()?;
                compiler.compile_outcome(circuit, chip)?
            }
        };
        if self.request.analyze {
            // After the cache on purpose: cached outcomes stay
            // diagnostic-free and every analyze-mode response (hit or
            // miss) carries a freshly computed set.
            let mut diags = ecmas_analyze::lint_circuit(circuit, Some(chip));
            diags.extend(ecmas_analyze::analyze_encoded(circuit, &outcome.encoded));
            outcome.report.diagnostics = diags;
        }
        Ok(outcome)
    }
}

/// The built-in pipeline, `Ecmas::default()` with the resource-adaptive
/// scheduler, with a checkpoint at every stage boundary: a cancel or
/// deadline lapse stops the job at the next boundary instead of after
/// the whole compile.
fn run_stages(circuit: &Circuit, chip: &Chip, slot: &Slot) -> Result<CompileOutcome, JobError> {
    slot.checkpoint()?;
    let profiled = Ecmas::default().session(circuit, chip)?;
    slot.checkpoint()?;
    let mapped = profiled.map()?;
    slot.checkpoint()?;
    Ok(mapped.schedule_auto()?.into_outcome())
}

/// The cached dispatch path: full-result lookup with in-flight
/// coalescing in front of [`run_stages`]. Every parked wait is bounded
/// by [`COALESCE_POLL`] so followers keep honoring their own deadlines
/// and cancellations while the leader compiles.
fn run_cached(
    cache: &Arc<CompileCache>,
    circuit: &Circuit,
    chip: &Chip,
    slot: &Slot,
) -> Result<CompileOutcome, JobError> {
    let key = full_key(circuit, chip);
    loop {
        slot.checkpoint()?;
        match cache.begin(key) {
            Begin::Hit(shared) => {
                let mut outcome = (*shared).clone();
                outcome.report.cache = cache.info(CacheSource::Hit);
                return Ok(outcome);
            }
            Begin::Lead(lead) => {
                match run_stages(circuit, chip, slot) {
                    Ok(mut outcome) => {
                        outcome.report.cache = cache.info(CacheSource::Miss);
                        let shared = lead.complete(outcome);
                        return Ok((*shared).clone());
                    }
                    Err(JobError::Compile(error)) => {
                        lead.fail(error.clone());
                        return Err(JobError::Compile(error));
                    }
                    // Cancelled / deadline / panic: dropping the guard abandons the flight and wakes
                    // the followers, whose next poll elects a new leader.
                    Err(other) => return Err(other),
                }
            }
            Begin::Follow(follow) => loop {
                match follow.poll(COALESCE_POLL) {
                    FollowStatus::Ready(Ok(shared)) => {
                        let mut outcome = (*shared).clone();
                        outcome.report.cache = cache.info(CacheSource::Coalesced);
                        return Ok(outcome);
                    }
                    FollowStatus::Ready(Err(error)) => return Err(JobError::Compile(error)),
                    FollowStatus::Abandoned => break,
                    FollowStatus::Pending => slot.checkpoint()?,
                }
            },
        }
    }
}

/// A persistent compile service: worker pool + bounded job queue.
///
/// Dropping (or [`shutdown`](Self::shutdown)ting) the service closes the
/// queue, lets the workers drain every job already accepted, and joins
/// them — submitted work is never silently lost; cancel handles first for
/// a fast exit.
///
/// # Example
///
/// ```
/// use ecmas_serve::{CompileRequest, CompileService, ServiceConfig};
/// use ecmas_chip::{Chip, CodeModel};
/// use ecmas_circuit::benchmarks::ghz;
///
/// let service = CompileService::new(ServiceConfig { workers: 2, ..ServiceConfig::default() });
/// let chip = Chip::min_viable(CodeModel::LatticeSurgery, 9, 3)?;
/// let handle = service.submit(CompileRequest::new(ghz(9), chip))?;
/// let outcome = handle.wait()?;
/// assert_eq!(outcome.encoded.cycles(), 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct CompileService {
    core: Arc<ServiceCore>,
    cache: Option<Arc<CompileCache>>,
    workers: Vec<JoinHandle<()>>,
}

impl CompileService {
    /// Starts the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread cannot be spawned.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        let (workers, capacity) = config.resolved();
        let core = Arc::new(ServiceCore {
            queue: JobQueue::new(capacity),
            backpressure: config.backpressure,
            next_id: AtomicU64::new(1),
            pending_cost: AtomicU64::new(0),
            shed_cost_budget: config.shed_cost_budget,
            shed: AtomicU64::new(0),
            unsettled: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
        });
        let cache = (config.cache_bytes > 0).then(|| {
            CompileCache::new(ecmas_cache::CacheConfig { byte_budget: config.cache_bytes })
        });
        let workers = (0..workers)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("ecmas-serve-{i}"))
                    .spawn(move || worker_loop(&core))
                    .expect("spawn service worker")
            })
            .collect();
        CompileService { core, cache, workers }
    }

    /// Submits a request; returns immediately with the job's handle
    /// (under [`Backpressure::Block`] "immediately" means once the
    /// bounded queue has room).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Saturated`] when the queue is full under
    /// [`Backpressure::Reject`]; [`SubmitError::Overloaded`] when
    /// admission control sheds the request; [`SubmitError::Draining`]
    /// after [`drain`](Self::drain) begins.
    pub fn submit(&self, request: CompileRequest) -> Result<JobHandle, SubmitError> {
        self.core.submit(OwnedJob { request, cache: self.cache.clone() })
    }

    /// A point-in-time snapshot of the compile-cache counters, or `None`
    /// when the service was configured with `cache_bytes: 0`.
    #[must_use]
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Submissions shed by admission control so far.
    #[must_use]
    pub fn shed_count(&self) -> u64 {
        self.core.shed.load(Ordering::Relaxed)
    }

    /// Summed estimated cost of accepted-but-unfinished jobs (always `0`
    /// when shedding is disabled).
    #[must_use]
    pub fn pending_cost(&self) -> u64 {
        self.core.pending_cost.load(Ordering::Acquire)
    }

    /// Jobs accepted but not yet picked up by a worker.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.core.queue.len()
    }

    /// Worker threads in the pool.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Whether [`drain`](Self::drain) has stopped admission.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.core.draining.load(Ordering::Acquire)
    }

    /// Graceful drain: stop admitting new work (submissions return
    /// [`SubmitError::Draining`]) and block until every accepted job has
    /// settled. The workers stay alive and results stay claimable — only
    /// admission is gone. Idempotent.
    pub fn drain(&self) {
        self.core.draining.store(true, Ordering::SeqCst);
        while self.core.unsettled.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Graceful shutdown: stop accepting, drain accepted jobs, join the
    /// workers. (Dropping the service does the same.)
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for CompileService {
    fn drop(&mut self) {
        self.core.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}
