//! Batch compilation: independent jobs fanned out over scoped threads.
//!
//! [`compile_jobs`] is the workspace's one batch entry point. Every job
//! names its own compiler, circuit and chip, which covers both the
//! single-chip sample groups of `fig11`/`fig12` and the per-circuit chips
//! of the `table1`–`table5` rows. Results come back in input order and
//! are bit-identical to a sequential loop, because every compiler in the
//! workspace is deterministic and jobs share nothing.
//!
//! The loop shares no machinery with [`CompileService`](crate::CompileService):
//! a batch job has no deadline, cannot be cancelled and is never shed,
//! so it needs none of the service's queue or slots. A compiler panic
//! propagates to the caller.

use std::sync::atomic::{AtomicUsize, Ordering};

use ecmas_chip::Chip;
use ecmas_circuit::Circuit;
use ecmas_core::error::CompileError;
use ecmas_core::session::{CompileOutcome, Compiler};

/// One batch job for [`compile_jobs`]: its own compiler, circuit, and
/// chip.
#[derive(Clone, Copy)]
pub struct BatchJob<'a> {
    /// The compiler to run.
    pub compiler: &'a (dyn Compiler + Sync),
    /// The circuit to compile.
    pub circuit: &'a Circuit,
    /// The chip to compile it for.
    pub chip: &'a Chip,
}

impl BatchJob<'_> {
    fn compile(&self) -> Result<CompileOutcome, CompileError> {
        self.compiler.compile_outcome(self.circuit, self.chip)
    }
}

/// Compiles every job on scoped threads, one per available core and at
/// most one per job. Results come back in input order and are
/// bit-identical to a sequential loop.
///
/// # Panics
///
/// Re-raises the panic of any compiler that panics.
pub fn compile_jobs(jobs: &[BatchJob<'_>]) -> Vec<Result<CompileOutcome, CompileError>> {
    run(jobs, std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// [`compile_jobs`] on `threads` threads (capped by the job count); one
/// thread runs inline.
fn run(jobs: &[BatchJob<'_>], threads: usize) -> Vec<Result<CompileOutcome, CompileError>> {
    let threads = threads.clamp(1, jobs.len().max(1));
    if threads == 1 {
        return jobs.iter().map(BatchJob::compile).collect();
    }
    // Each thread claims the next unclaimed index and keeps its results
    // tagged with it; sorting the tags restores input order. `Relaxed`
    // suffices: the counter publishes no data, and results come back
    // through `join`.
    let next = AtomicUsize::new(0);
    let mut done: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break done };
                        done.push((i, job.compile()));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| {
                worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecmas_chip::CodeModel;
    use ecmas_circuit::{benchmarks, random};
    use ecmas_core::Ecmas;

    /// Every worker count, the inline one included, returns the
    /// sequential loop's schedules in input order; so does the empty
    /// batch.
    #[test]
    fn every_thread_count_matches_the_sequential_loop() {
        let circuits: Vec<Circuit> =
            (0..5).map(|k| random::layered(12, 8, 1 + k % 4, 0x5EED + k as u64)).collect();
        let chip = Chip::min_viable(CodeModel::LatticeSurgery, 12, 3).unwrap();
        let compiler = Ecmas::default();
        let jobs: Vec<BatchJob<'_>> = circuits
            .iter()
            .map(|circuit| BatchJob { compiler: &compiler, circuit, chip: &chip })
            .collect();
        let sequential: Vec<_> =
            circuits.iter().map(|c| compiler.compile(c, &chip).unwrap()).collect();
        for threads in 1..=4 {
            let batched = run(&jobs, threads);
            assert_eq!(batched.len(), jobs.len());
            for (outcome, seq) in batched.into_iter().zip(&sequential) {
                let outcome = outcome.unwrap();
                assert_eq!(outcome.encoded.events(), seq.events(), "{threads} threads");
                assert_eq!(outcome.encoded.mapping(), seq.mapping(), "{threads} threads");
                assert_eq!(outcome.encoded.cycles(), seq.cycles(), "{threads} threads");
            }
            assert!(run(&[], threads).is_empty());
        }
    }

    /// Panics on the one 10-qubit circuit, compiles the rest.
    struct PanicsOnTenQubits;

    impl Compiler for PanicsOnTenQubits {
        fn name(&self) -> &'static str {
            "panics-on-ten-qubits"
        }

        fn compile_outcome(
            &self,
            circuit: &Circuit,
            chip: &Chip,
        ) -> Result<CompileOutcome, CompileError> {
            assert_ne!(circuit.qubits(), 10, "test compiler refuses ten qubits");
            Ecmas::default().compile_outcome(circuit, chip)
        }
    }

    #[test]
    #[should_panic(expected = "test compiler refuses ten qubits")]
    fn a_compiler_panic_reaches_the_caller() {
        let circuits = [benchmarks::ghz(4), benchmarks::qft_n10(), benchmarks::ghz(6)];
        let chip = Chip::min_viable(CodeModel::LatticeSurgery, 10, 3).unwrap();
        let jobs: Vec<BatchJob<'_>> = circuits
            .iter()
            .map(|circuit| BatchJob { compiler: &PanicsOnTenQubits, circuit, chip: &chip })
            .collect();
        let _ = run(&jobs, 2);
    }
}
