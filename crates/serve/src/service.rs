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
//! # Fault tolerance
//!
//! The service is built to survive production failure modes, and to let
//! chaos harnesses *prove* it does:
//!
//! - **Fault injection** ([`ServiceConfig::faults`]): a seeded
//!   [`FaultPlan`] from `ecmas-faults` fires at queue admission, cache
//!   lookup, every stage boundary, and worker pickup. With faults off
//!   (the default) every hook is an `Option` check on a `None`.
//! - **Retry** ([`ServiceConfig::retry`]): transient failures (injected
//!   faults, and panics while a fault plan is active) re-run on the same
//!   worker with exponential, deterministically-jittered backoff, up to
//!   `max_attempts` and a service-wide retry budget. Retried results are
//!   bit-identical to first-try results; `report.attempts` and
//!   `report.last_fault` carry the provenance.
//! - **Supervision**: a worker thread that dies mid-pickup requeues its
//!   job and is respawned, so pool capacity never degrades. Counters are
//!   exposed via [`CompileService::supervisor_stats`].
//! - **Load shedding** ([`ServiceConfig::shed_cost_budget`]): when the
//!   aggregate estimated cost of accepted-but-unfinished jobs exceeds
//!   the budget, submissions are shed with
//!   [`SubmitError::Overloaded`] and a `retry_after_ms` hint.
//! - **Graceful drain** ([`CompileService::drain`]): stop admitting,
//!   finish everything in flight, keep serving results.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ecmas_cache::{full_key, Begin, CacheStats, CompileCache, FollowStatus};
use ecmas_chip::Chip;
use ecmas_circuit::Circuit;
use ecmas_core::compiler::EcmasConfig;
use ecmas_core::session::{CacheSource, CompileOutcome, Compiler};
use ecmas_core::Ecmas;
use ecmas_faults::{
    Fault, FaultConfig, FaultPlan, FaultSite, FaultSnapshot, RetryConfig, RetryPolicy,
};

use crate::job::{JobError, JobHandle, JobId, Slot};
use crate::queue::{Backpressure, JobQueue, PushError};

/// How long a coalesced follower parks before running its own
/// cancellation/deadline checkpoint and parking again.
const COALESCE_POLL: Duration = Duration::from_millis(25);

/// Sizing, backpressure, and fault-tolerance policy of a
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
    /// Seeded fault injection for chaos testing; `None` (the default)
    /// disables every injection site.
    pub faults: Option<FaultConfig>,
    /// Retry policy for transiently-failed jobs (injected faults, and
    /// panics while a fault plan is active). The default allows 3
    /// attempts; set `max_attempts: 1` to disable retries.
    pub retry: RetryConfig,
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
            faults: None,
            retry: RetryConfig::default(),
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
        let capacity = if self.queue_capacity == 0 { 4 * workers } else { self.queue_capacity };
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

/// Checkpoint and fault-hook access handed to running jobs.
struct JobCtl<'a> {
    slot: &'a Slot,
    faults: Option<&'a FaultPlan>,
    job: JobId,
    attempt: u32,
}

impl JobCtl<'_> {
    fn checkpoint(&self) -> Result<(), JobError> {
        self.slot.checkpoint()
    }

    /// The staged pipeline's per-boundary hook: the plain checkpoint,
    /// plus the `Stage` fault-injection site. With no fault plan this is
    /// exactly `checkpoint` — the zero-cost-when-off guarantee the
    /// `service/stress_100_jobs_faults_off` bench row pins.
    fn stage_boundary(&self, stage: u8) -> Result<(), JobError> {
        self.checkpoint()?;
        if let Some(plan) = self.faults {
            let site = FaultSite::Stage { job: self.job, attempt: self.attempt, stage };
            if let Some(fault) = plan.decide(site) {
                plan.record(fault);
                match fault {
                    Fault::Latency(d) => std::thread::sleep(d),
                    Fault::SpuriousError => {
                        return Err(JobError::Faulted {
                            site: format!("stage {stage} (attempt {})", self.attempt),
                        });
                    }
                    Fault::Panic => panic!(
                        "injected fault: stage {stage} (job {} attempt {})",
                        self.job, self.attempt
                    ),
                    Fault::PoisonCache => {}
                }
            }
        }
        Ok(())
    }

    /// The `CacheLookup` fault site: drop the resident full-result entry
    /// for `key` so this attempt recompiles (and must still produce a
    /// bit-identical result).
    fn maybe_poison(&self, cache: &CompileCache, key: ecmas_cache::CompileKey) {
        if let Some(plan) = self.faults {
            let site = FaultSite::CacheLookup { job: self.job, attempt: self.attempt };
            if let Some(fault @ Fault::PoisonCache) = plan.decide(site) {
                plan.record(fault);
                cache.poison(key);
            }
        }
    }
}

/// Worker-pool supervision state: the live thread handles plus lifetime
/// counters. Respawns happen from a dying worker's drop guard; the
/// shutdown path joins `handles` repeatedly until no replacement appears.
struct Supervisor {
    handles: Mutex<Vec<JoinHandle<()>>>,
    spawned: AtomicU64,
    panics: AtomicU64,
    respawns: AtomicU64,
}

impl Supervisor {
    fn new() -> Self {
        Supervisor {
            handles: Mutex::new(Vec::new()),
            spawned: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
        }
    }
}

/// A point-in-time snapshot of worker supervision counters
/// ([`CompileService::supervisor_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Worker threads the pool is configured to keep alive.
    pub workers: usize,
    /// Threads spawned over the service's lifetime (initial + respawns).
    pub spawned: u64,
    /// Worker threads that died to a panic.
    pub panics: u64,
    /// Replacement workers spawned after a panic.
    pub respawns: u64,
    /// Jobs handed back to the queue by a dying worker.
    pub requeued: u64,
}

/// Service-wide retry counters ([`CompileService::retry_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Retry-budget tokens consumed so far.
    pub spent: u64,
    /// The configured service-wide budget.
    pub budget: u64,
}

/// Shared state between submitters and workers: the queue plus id counter
/// plus the fault-tolerance policy objects.
struct ServiceCore {
    queue: JobQueue<(JobId, Arc<Slot>, OwnedJob)>,
    backpressure: Backpressure,
    next_id: AtomicU64,
    faults: Option<FaultPlan>,
    retry: RetryPolicy,
    /// Summed [`CompileRequest::estimated_cost`] of accepted jobs that
    /// have not yet settled; `0` cost per job when shedding is off.
    pending_cost: AtomicU64,
    /// Budget over `pending_cost`; `0` disables shedding.
    shed_cost_budget: u64,
    /// Submissions shed by admission control.
    shed: AtomicU64,
    /// Jobs a worker has picked up but not yet settled.
    inflight: AtomicUsize,
    /// Jobs handed back to the queue by a dying worker.
    requeued: AtomicU64,
    /// Set by [`begin_drain`](Self::begin_drain): reject new work.
    draining: AtomicBool,
}

impl ServiceCore {
    fn new(
        capacity: usize,
        backpressure: Backpressure,
        faults: Option<FaultConfig>,
        retry: RetryConfig,
        shed_cost_budget: u64,
    ) -> Self {
        ServiceCore {
            queue: JobQueue::new(capacity),
            backpressure,
            next_id: AtomicU64::new(1),
            faults: faults.filter(FaultConfig::enabled).map(FaultPlan::new),
            retry: RetryPolicy::new(retry),
            pending_cost: AtomicU64::new(0),
            shed_cost_budget,
            shed: AtomicU64::new(0),
            inflight: AtomicUsize::new(0),
            requeued: AtomicU64::new(0),
            draining: AtomicBool::new(false),
        }
    }

    fn submit(&self, job: OwnedJob) -> Result<JobHandle, SubmitError> {
        if self.draining.load(Ordering::Acquire) {
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
                self.pending_cost.fetch_sub(cost, Ordering::AcqRel);
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
        if let Some(plan) = &self.faults {
            // Admission faults are latency-only: a spurious rejection
            // here would lose the job from the caller's perspective,
            // which the chaos acceptance run forbids.
            if let Some(fault @ Fault::Latency(d)) = plan.decide(FaultSite::Admission { job: id }) {
                plan.record(fault);
                std::thread::sleep(d);
            }
        }
        let slot = Arc::new(Slot::new(job.request.deadline, cost));
        match self.queue.push((id, Arc::clone(&slot), job), self.backpressure) {
            Ok(()) => Ok(JobHandle::new(id, slot)),
            Err(PushError::Full((_, _, job))) => {
                self.pending_cost.fetch_sub(cost, Ordering::AcqRel);
                Err(SubmitError::Saturated(Box::new(job.request)))
            }
            Err(PushError::Closed(_)) => unreachable!("queue closes only on shutdown/drop"),
        }
    }

    /// Whether `error` should be retried rather than surfaced. Injected
    /// spurious errors always are; panics only while a fault plan is
    /// active (a panic from a deterministic compiler would just repeat).
    fn transient(&self, error: &JobError) -> bool {
        match error {
            JobError::Faulted { .. } => true,
            JobError::Panicked { .. } => self.faults.is_some(),
            _ => false,
        }
    }

    fn fault_seed(&self) -> u64 {
        self.faults.as_ref().map_or(0x9bad_cafe, |p| p.config().seed)
    }

    /// A job settled (result stored, or skipped): release its cost claim.
    fn settle(&self, slot: &Slot) {
        if self.shed_cost_budget > 0 {
            self.pending_cost.fetch_sub(slot.cost(), Ordering::AcqRel);
        }
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn close(&self) {
        self.queue.close();
    }

    fn queued(&self) -> usize {
        self.queue.len()
    }

    fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    fn pending_cost(&self) -> u64 {
        self.pending_cost.load(Ordering::Acquire)
    }
}

/// One worker: drain the queue until it closes. Cancelled or expired jobs
/// are skipped at pickup; compiler panics are caught so one bad compile
/// cannot take a worker (or the queue behind it) down. Transient failures
/// retry in place, per the core's [`RetryPolicy`]. The one deliberate
/// exception: an injected `WorkerPickup` fault requeues the job and kills
/// the worker thread itself — that is the supervision path under test.
fn worker_loop(core: &ServiceCore) {
    while let Some((id, slot, job)) = core.queue.pop() {
        let delivery = slot.next_delivery();
        // Cap pickup kills per job: the decision is keyed on the delivery
        // counter so a requeued job normally escapes, but at
        // `--fault-percent 100` every delivery would fire and the job
        // would ping-pong between dying workers forever.
        const MAX_PICKUP_KILLS: u32 = 3;
        if let (Some(plan), true) = (&core.faults, delivery < MAX_PICKUP_KILLS) {
            let site = FaultSite::WorkerPickup { job: id, delivery };
            if let Some(fault @ Fault::Panic) = plan.decide(site) {
                plan.record(fault);
                // Hand the job back before dying so it is never lost; a
                // closed queue means shutdown, so settle it as faulted
                // instead of requeueing into the void.
                match core.queue.requeue((id, slot, job)) {
                    Ok(()) => {
                        core.requeued.fetch_add(1, Ordering::AcqRel);
                    }
                    Err(PushError::Closed((_, slot, _)) | PushError::Full((_, slot, _))) => {
                        slot.finish(Err(JobError::Faulted {
                            site: format!("worker_pickup (delivery {delivery})"),
                        }));
                        core.settle(&slot);
                    }
                }
                panic!("injected fault: worker pickup (job {id} delivery {delivery})");
            }
        }
        core.inflight.fetch_add(1, Ordering::AcqRel);
        let result = run_attempts(core, id, &slot, &job);
        slot.finish(result);
        core.settle(&slot);
        core.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The per-job attempt loop: run the job, and while failures are
/// transient, the job is still wanted, and the retry policy grants a
/// token, back off deterministically and run it again. Retried successes
/// are stamped with their attempt count and last-fault provenance.
fn run_attempts(
    core: &ServiceCore,
    id: JobId,
    slot: &Arc<Slot>,
    job: &OwnedJob,
) -> Result<CompileOutcome, JobError> {
    slot.begin()?;
    let mut attempt: u32 = 1;
    let mut last_fault: Option<String> = None;
    loop {
        let ctl = JobCtl { slot, faults: core.faults.as_ref(), job: id, attempt };
        let result = match catch_unwind(AssertUnwindSafe(|| job.run(&ctl))) {
            Ok(result) => result,
            // `&*panic`, not `&panic`: a `&Box<dyn Any>` would itself
            // unsize into the `dyn Any` and hide the payload behind a
            // second indirection.
            Err(panic) => Err(JobError::Panicked { message: panic_message(&*panic) }),
        };
        match result {
            Ok(mut outcome) => {
                outcome.report.attempts = attempt;
                outcome.report.last_fault = last_fault;
                return Ok(outcome);
            }
            Err(error) => {
                let retry = core.transient(&error)
                    && slot.still_wanted().is_ok()
                    && core.retry.try_retry(attempt);
                if !retry {
                    return Err(error);
                }
                last_fault = Some(error.to_string());
                std::thread::sleep(core.retry.backoff(core.fault_seed(), id, attempt));
                attempt += 1;
            }
        }
    }
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
    /// One attempt at the job. It borrows the job so that a
    /// transiently-failed attempt can be retried in place.
    fn run(&self, ctl: &JobCtl<'_>) -> Result<CompileOutcome, JobError> {
        let CompileRequest { circuit, chip, pipeline, .. } = &self.request;
        let mut outcome = match pipeline {
            Pipeline::Ecmas => {
                if let Some(cache) = &self.cache {
                    run_cached(cache, circuit, chip, ctl)?
                } else {
                    run_stages(circuit, chip, ctl)?
                }
            }
            Pipeline::Custom(compiler) => {
                // Custom compilers bypass the cache: their identity is an
                // opaque trait object the content hash cannot see.
                ctl.checkpoint()?;
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
/// scheduler, with a checkpoint (and fault-injection hook) at every stage
/// boundary: a cancel or deadline lapse stops the job at the next
/// boundary instead of after the whole compile.
fn run_stages(
    circuit: &Circuit,
    chip: &Chip,
    ctl: &JobCtl<'_>,
) -> Result<CompileOutcome, JobError> {
    ctl.stage_boundary(0)?;
    let profiled = Ecmas::default().session(circuit, chip)?;
    ctl.stage_boundary(1)?;
    let mapped = profiled.map()?;
    ctl.stage_boundary(2)?;
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
    ctl: &JobCtl<'_>,
) -> Result<CompileOutcome, JobError> {
    // The built-in pipeline's config and scheduler label stay in the
    // key, so keys keep their values (`ecmas-cache` pins four).
    let key = full_key(circuit, chip, &EcmasConfig::default(), "auto");
    ctl.maybe_poison(cache, key);
    loop {
        ctl.checkpoint()?;
        match cache.begin(key) {
            Begin::Hit(shared) => {
                let mut outcome = (*shared).clone();
                outcome.report.cache = cache.info(CacheSource::Hit);
                return Ok(outcome);
            }
            Begin::Lead(lead) => {
                match run_stages(circuit, chip, ctl) {
                    Ok(mut outcome) => {
                        outcome.report.cache = cache.info(CacheSource::Miss);
                        let shared = lead.complete(outcome);
                        return Ok((*shared).clone());
                    }
                    Err(JobError::Compile(error)) => {
                        lead.fail(error.clone());
                        return Err(JobError::Compile(error));
                    }
                    // Cancelled / deadline / fault / panic-adjacent:
                    // dropping the guard abandons the flight and wakes
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
                    FollowStatus::Pending => ctl.checkpoint()?,
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
    worker_count: usize,
    supervisor: Arc<Supervisor>,
}

/// Spawn one worker thread and register its handle with the supervisor.
/// The thread carries a [`RespawnGuard`]: if it dies to a panic while the
/// queue is still open, the guard spawns a replacement, so pool capacity
/// never degrades.
fn spawn_worker(core: &Arc<ServiceCore>, supervisor: &Arc<Supervisor>) {
    let generation = supervisor.spawned.fetch_add(1, Ordering::AcqRel);
    let thread_core = Arc::clone(core);
    let thread_sup = Arc::clone(supervisor);
    let handle = std::thread::Builder::new()
        .name(format!("ecmas-serve-{generation}"))
        .spawn(move || {
            let _guard = RespawnGuard { core: thread_core.clone(), supervisor: thread_sup };
            worker_loop(&thread_core);
        })
        .expect("spawn service worker");
    supervisor.handles.lock().expect("supervisor lock").push(handle);
}

struct RespawnGuard {
    core: Arc<ServiceCore>,
    supervisor: Arc<Supervisor>,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        self.supervisor.panics.fetch_add(1, Ordering::AcqRel);
        // No respawn once the queue is closed: shutdown's join loop
        // would chase replacements forever. A replacement spawned just
        // before close() is harmless — it drains and exits cleanly.
        if !self.core.queue.is_closed() {
            self.supervisor.respawns.fetch_add(1, Ordering::AcqRel);
            spawn_worker(&self.core, &self.supervisor);
        }
    }
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
        let core = Arc::new(ServiceCore::new(
            capacity,
            config.backpressure,
            config.faults,
            config.retry,
            config.shed_cost_budget,
        ));
        let cache = (config.cache_bytes > 0).then(|| {
            CompileCache::new(ecmas_cache::CacheConfig { byte_budget: config.cache_bytes })
        });
        let supervisor = Arc::new(Supervisor::new());
        for _ in 0..workers {
            spawn_worker(&core, &supervisor);
        }
        CompileService { core, cache, worker_count: workers, supervisor }
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

    /// Worker supervision counters: threads spawned, panics seen,
    /// replacements spawned, jobs requeued by dying workers.
    #[must_use]
    pub fn supervisor_stats(&self) -> SupervisorStats {
        SupervisorStats {
            workers: self.worker_count,
            spawned: self.supervisor.spawned.load(Ordering::Acquire),
            panics: self.supervisor.panics.load(Ordering::Acquire),
            respawns: self.supervisor.respawns.load(Ordering::Acquire),
            requeued: self.core.requeued.load(Ordering::Acquire),
        }
    }

    /// Injected-fault counters, or `None` when no fault plan is active.
    #[must_use]
    pub fn fault_stats(&self) -> Option<FaultSnapshot> {
        self.core.faults.as_ref().map(FaultPlan::snapshot)
    }

    /// Service-wide retry-budget counters.
    #[must_use]
    pub fn retry_stats(&self) -> RetryStats {
        RetryStats { spent: self.core.retry.spent(), budget: self.core.retry.config().budget }
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
        self.core.pending_cost()
    }

    /// Jobs accepted but not yet picked up by a worker.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.core.queued()
    }

    /// Worker threads in the pool.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Whether [`drain`](Self::drain) (or a prior `begin_drain`) has
    /// stopped admission.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.core.is_draining()
    }

    /// Graceful drain: stop admitting new work (submissions return
    /// [`SubmitError::Draining`]) and block until every accepted job has
    /// settled. The workers stay alive and results stay claimable — only
    /// admission is gone. Idempotent.
    pub fn drain(&self) {
        self.core.begin_drain();
        while self.core.queued() > 0 || self.core.inflight() > 0 {
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
        self.core.close();
        // Join until no handle remains: a panicking worker pushes its
        // replacement's handle before its own join returns, so repeated
        // drains observe every generation.
        loop {
            let drained: Vec<JoinHandle<()>> = {
                let mut handles = self.supervisor.handles.lock().expect("supervisor lock");
                handles.drain(..).collect()
            };
            if drained.is_empty() {
                break;
            }
            for worker in drained {
                let _ = worker.join();
            }
        }
    }
}
