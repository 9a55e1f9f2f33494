//! Batch compilation as a thin convenience over the service.
//!
//! [`compile_batch`] used to be a hand-rolled `thread::scope` fan-out in
//! `ecmas-core`; it is now a facade over the same dispatch machine that
//! powers [`CompileService`](crate::CompileService) — the bounded queue,
//! the worker loop, the job slots — instantiated with *borrowed* payloads
//! on scoped threads instead of owned payloads on a persistent pool. The
//! observable contract is unchanged: results come back in input order and
//! are bit-identical to a sequential loop, because every compiler in the
//! workspace is deterministic and jobs share nothing.
//!
//! [`compile_jobs`] is the heterogeneous variant the experiment harness
//! uses: every job names its own compiler *and* chip, which is what the
//! `table1`–`table5` rows need (their chips are sized per circuit, so the
//! single-chip [`compile_batch`] shape cannot express them).

use ecmas_chip::Chip;
use ecmas_circuit::Circuit;
use ecmas_core::error::CompileError;
use ecmas_core::session::{CompileOutcome, Compiler};

use crate::job::JobError;
use crate::queue::Backpressure;
use crate::service::{worker_loop, JobCtl, RunJob, ServiceCore};

/// A borrowed unit of batch work: compiler + circuit + chip, all by
/// reference into the caller's scope.
struct BorrowedJob<'a, C: Compiler + Sync + ?Sized> {
    compiler: &'a C,
    circuit: &'a Circuit,
    chip: &'a Chip,
}

impl<C: Compiler + Sync + ?Sized> RunJob for BorrowedJob<'_, C> {
    fn run(&self, ctl: &JobCtl<'_>) -> Result<CompileOutcome, JobError> {
        ctl.checkpoint()?;
        Ok(self.compiler.compile_outcome(self.circuit, self.chip)?)
    }
}

/// One heterogeneous batch job for [`compile_jobs`]: its own compiler,
/// circuit, and chip.
#[derive(Clone, Copy)]
pub struct BatchJob<'a> {
    /// The compiler to run.
    pub compiler: &'a (dyn Compiler + Sync),
    /// The circuit to compile.
    pub circuit: &'a Circuit,
    /// The chip to compile it for.
    pub chip: &'a Chip,
}

/// Compiles every circuit with the same compiler and chip through the
/// service dispatch machine (one scoped worker per available core, capped
/// by the batch size). Results come back in input order and are
/// bit-identical to a sequential loop.
pub fn compile_batch<C: Compiler + Sync + ?Sized>(
    compiler: &C,
    circuits: &[Circuit],
    chip: &Chip,
) -> Vec<Result<CompileOutcome, CompileError>> {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    compile_batch_with_threads(compiler, circuits, chip, threads)
}

/// [`compile_batch`] with an explicit worker count (`1` runs inline).
pub fn compile_batch_with_threads<C: Compiler + Sync + ?Sized>(
    compiler: &C,
    circuits: &[Circuit],
    chip: &Chip,
    threads: usize,
) -> Vec<Result<CompileOutcome, CompileError>> {
    run_scoped(circuits.len(), threads, |i| BorrowedJob { compiler, circuit: &circuits[i], chip })
}

/// Compiles a heterogeneous job list — each with its own compiler and
/// chip — through the service dispatch machine. Results in input order.
pub fn compile_jobs(jobs: &[BatchJob<'_>]) -> Vec<Result<CompileOutcome, CompileError>> {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    run_scoped(jobs.len(), threads, |i| BorrowedJob {
        compiler: jobs[i].compiler,
        circuit: jobs[i].circuit,
        chip: jobs[i].chip,
    })
}

/// The scoped service: the persistent pool's queue + worker loop + job
/// slots, with borrowed payloads and `thread::scope` workers. The queue
/// is kept deliberately smaller than the batch (2 jobs per worker) so the
/// bounded-queue backpressure path is exercised on every large batch.
fn run_scoped<P, F>(
    count: usize,
    threads: usize,
    make: F,
) -> Vec<Result<CompileOutcome, CompileError>>
where
    P: RunJob,
    F: Fn(usize) -> P,
{
    let threads = threads.clamp(1, count.max(1));
    let unwrap_job_error = |e: JobError| match e {
        JobError::Compile(e) => e,
        // The worker loop catches compiler panics; surface them as a
        // panic here too, so batch callers see the same failure mode as
        // the single-threaded inline path (where the panic propagates
        // uncaught).
        JobError::Panicked { message } => panic!("batch compile panicked: {message}"),
        other => unreachable!("batch jobs neither cancel nor expire: {other}"),
    };
    if threads == 1 {
        let slot = crate::job::Slot::new(None, 0);
        let ctl = JobCtl::for_slot(&slot);
        return (0..count).map(|i| make(i).run(&ctl).map_err(unwrap_job_error)).collect();
    }
    let core = ServiceCore::new(2 * threads, Backpressure::Block);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| worker_loop(&core));
        }
        let handles: Vec<_> = (0..count)
            .map(|i| {
                core.submit(None, 0, make(i)).unwrap_or_else(|_| {
                    unreachable!("blocking backpressure on an open queue cannot refuse")
                })
            })
            .collect();
        core.close();
        handles.into_iter().map(|h| h.wait().map_err(unwrap_job_error)).collect()
    })
}
