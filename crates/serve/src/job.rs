//! Job handles: the client's view of one submitted compilation.
//!
//! A [`JobHandle`] supports the three interaction styles a service client
//! needs — non-blocking poll ([`JobHandle::status`] /
//! [`JobHandle::try_wait`]), blocking wait ([`JobHandle::wait`]), and
//! cooperative cancellation ([`JobHandle::cancel`]). The result of a job
//! is owned, not shared: exactly one `wait`/`try_wait` takes it, which is
//! why both consume the handle.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ecmas_core::error::CompileError;
use ecmas_core::session::CompileOutcome;

/// Service-assigned job identifier (1-based, in submission order).
pub type JobId = u64;

/// Observable lifecycle stage of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum JobStatus {
    /// Waiting in the service queue.
    Queued,
    /// A worker is compiling it.
    Running,
    /// The result (outcome or error) is available.
    Finished,
}

/// Why a job finished without a [`CompileOutcome`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum JobError {
    /// The compiler itself failed.
    Compile(CompileError),
    /// The job's deadline lapsed before it finished; `budget` is the
    /// deadline it was submitted with. A queued job reports this the
    /// moment a worker (or a waiting client) notices the lapse; a running
    /// staged job stops at its next stage boundary.
    DeadlineExceeded {
        /// The deadline the job was submitted with.
        budget: Duration,
    },
    /// [`JobHandle::cancel`] stopped the job before it produced a result.
    Cancelled,
    /// The compiler panicked; the payload is the panic message. The
    /// worker survives and keeps serving.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Compile(e) => write!(f, "compile error: {e}"),
            JobError::DeadlineExceeded { budget } => {
                write!(f, "deadline of {budget:?} exceeded")
            }
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::Panicked { message } => write!(f, "compiler panicked: {message}"),
        }
    }
}

impl Error for JobError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JobError::Compile(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CompileError> for JobError {
    fn from(e: CompileError) -> Self {
        JobError::Compile(e)
    }
}

enum State {
    Queued,
    Running,
    /// `Some` until the (unique) handle takes the result. Boxed so the
    /// enum (alive for every queued job) stays pointer-sized.
    Finished(Option<Box<Result<CompileOutcome, JobError>>>),
}

/// Shared slot between one [`JobHandle`] and the worker that runs the job.
pub(crate) struct Slot {
    state: Mutex<State>,
    done: Condvar,
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    budget: Option<Duration>,
    /// The request's estimated cost, claimed against the service's
    /// shed budget at admission and released when the job settles.
    cost: u64,
}

impl Slot {
    pub(crate) fn new(budget: Option<Duration>, cost: u64) -> Self {
        Slot {
            state: Mutex::new(State::Queued),
            done: Condvar::new(),
            cancelled: AtomicBool::new(false),
            deadline: budget.and_then(|b| Instant::now().checked_add(b)),
            budget,
            cost,
        }
    }

    pub(crate) fn cost(&self) -> u64 {
        self.cost
    }

    /// Cancel/deadline check, used both when a worker picks the job up and
    /// at every stage boundary while it runs.
    pub(crate) fn checkpoint(&self) -> Result<(), JobError> {
        if self.cancelled.load(Ordering::Acquire) {
            return Err(JobError::Cancelled);
        }
        if let (Some(deadline), Some(budget)) = (self.deadline, self.budget) {
            if Instant::now() >= deadline {
                return Err(JobError::DeadlineExceeded { budget });
            }
        }
        Ok(())
    }

    /// Worker-side: the job was dequeued. Runs the checkpoint; on success
    /// the job transitions to `Running`. The transition is checked under
    /// the state lock: a waiter that claimed the slot at its deadline in
    /// the meantime wins, and the worker must not run the job.
    pub(crate) fn begin(&self) -> Result<(), JobError> {
        self.checkpoint()?;
        let mut state = self.state.lock().expect("job lock");
        match *state {
            State::Queued => {
                *state = State::Running;
                Ok(())
            }
            // A deadline-waiter claimed the outcome between the checkpoint
            // and this lock; skip the job (finish() keeps their verdict).
            State::Finished(_) => Err(JobError::Cancelled),
            State::Running => unreachable!("a job is dequeued by exactly one worker"),
        }
    }

    /// Worker-side: store the result and wake every waiter.
    pub(crate) fn finish(&self, result: Result<CompileOutcome, JobError>) {
        let mut state = self.state.lock().expect("job lock");
        // A waiter that gave up at the deadline already consumed the
        // outcome slot; keep its verdict.
        if !matches!(*state, State::Finished(_)) {
            *state = State::Finished(Some(Box::new(result)));
        }
        drop(state);
        self.done.notify_all();
    }
}

/// A submitted job: poll it, wait on it, or cancel it.
///
/// The handle is the *only* owner of the job's result, so the waiting
/// methods consume it. Dropping the handle abandons the result (the job
/// itself still runs to completion unless cancelled first).
pub struct JobHandle {
    id: JobId,
    slot: Arc<Slot>,
}

impl fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle").field("id", &self.id).field("status", &self.status()).finish()
    }
}

impl JobHandle {
    pub(crate) fn new(id: JobId, slot: Arc<Slot>) -> Self {
        JobHandle { id, slot }
    }

    /// The service-assigned job id (1-based, in submission order).
    #[must_use]
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Non-blocking lifecycle probe.
    #[must_use]
    pub fn status(&self) -> JobStatus {
        match *self.slot.state.lock().expect("job lock") {
            State::Queued => JobStatus::Queued,
            State::Running => JobStatus::Running,
            State::Finished(_) => JobStatus::Finished,
        }
    }

    /// Requests cooperative cancellation. Returns `true` when the request
    /// was registered before the job finished — a still-queued job is then
    /// guaranteed to be skipped (it reports [`JobError::Cancelled`]); a
    /// running staged job stops at its next stage boundary. Returns
    /// `false` when the job had already finished.
    pub fn cancel(&self) -> bool {
        self.slot.cancelled.store(true, Ordering::Release);
        !matches!(self.status(), JobStatus::Finished)
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.slot.cancelled.load(Ordering::Acquire)
    }

    /// Non-blocking result take: the outcome if the job has finished,
    /// the handle back otherwise.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` while the job is still queued or running.
    pub fn try_wait(self) -> Result<Result<CompileOutcome, JobError>, JobHandle> {
        {
            let mut state = self.slot.state.lock().expect("job lock");
            if let State::Finished(result) = &mut *state {
                return Ok(*result.take().expect("job result taken twice"));
            }
        }
        Err(self)
    }

    /// Blocks until the job finishes and returns its result.
    ///
    /// A job with a deadline never blocks past it, whether the job is
    /// still queued or already running: at the lapse the wait claims the
    /// outcome as [`JobError::DeadlineExceeded`] and requests
    /// cancellation. A still-queued job is then guaranteed to be skipped;
    /// a running staged job aborts at its next stage boundary (a custom
    /// compiler runs to completion, its late result discarded).
    ///
    /// # Errors
    ///
    /// Returns [`JobError`] when the job was cancelled, timed out, or the
    /// compiler failed.
    pub fn wait(self) -> Result<CompileOutcome, JobError> {
        let mut state = self.slot.state.lock().expect("job lock");
        loop {
            if let State::Finished(result) = &mut *state {
                return *result.take().expect("job result taken twice");
            }
            if let (Some(deadline), Some(budget)) = (self.slot.deadline, self.slot.budget) {
                let now = Instant::now();
                if now >= deadline {
                    // Deadline lapsed with no result: claim the outcome
                    // and tell the job to stop. finish() keeps this
                    // verdict even if a late result arrives.
                    self.slot.cancelled.store(true, Ordering::Release);
                    *state = State::Finished(None);
                    return Err(JobError::DeadlineExceeded { budget });
                }
                let (next, _) =
                    self.slot.done.wait_timeout(state, deadline - now).expect("job lock");
                state = next;
            } else {
                state = self.slot.done.wait(state).expect("job lock");
            }
        }
    }
}
