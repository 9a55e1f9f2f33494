//! **ecmas-serve** — the workload-facing service layer of the workspace.
//!
//! Everything upstream of this crate compiles *one* circuit; everything
//! downstream of it serves *traffic*. The centerpiece is
//! [`CompileService`]: a persistent worker pool (sharded over cores)
//! draining a bounded job queue with configurable [`Backpressure`].
//! Submissions are [`CompileRequest`]s — circuit + chip + config
//! overrides + optional deadline — and come back as [`JobHandle`]s
//! supporting non-blocking poll, blocking wait, and cooperative
//! cancellation. Built-in requests run the staged session pipeline with
//! a cancel/deadline checkpoint at every stage boundary.
//!
//! [`compile_batch`] — the workspace's original batch API — is a thin
//! facade over the same dispatch machine, instantiated with borrowed
//! jobs on scoped threads, so batch callers (the fig11/fig12 harness,
//! the examples) keep their exact semantics: results in input order,
//! bit-identical to a sequential loop. [`compile_jobs`] is the
//! heterogeneous variant (per-job compiler *and* chip) the `table*`
//! binaries fan out over.
//!
//! A [`CompileService`] can front its built-in pipeline with the
//! `ecmas-cache` content-addressed compile cache
//! ([`ServiceConfig::cache_bytes`]): repeated requests are served from
//! the byte-budgeted LRU, identical concurrent requests coalesce into
//! one compile, and partially-matching requests reuse cached
//! profile/map stage artifacts. Every report then carries its cache
//! provenance (`report.cache`), and [`CompileService::cache_stats`]
//! snapshots the service-wide counters.
//!
//! The [`daemon`] module implements the `ecmasd` newline-delimited JSON
//! protocol (submit / status / cancel / result / drain / stats) over a
//! [`CompileService`], and [`daemon::stress_stream`] renders an
//! `ecmas_circuit::random::StressWorkload` as a ready-to-pipe job
//! stream.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use ecmas_serve::{CompileRequest, CompileService, ServiceConfig};
//! use ecmas_chip::{Chip, CodeModel};
//! use ecmas_circuit::benchmarks::qft_n10;
//!
//! let service = CompileService::new(ServiceConfig { workers: 2, ..ServiceConfig::default() });
//! let circuit = qft_n10();
//! let chip = Chip::min_viable(CodeModel::DoubleDefect, 10, 3)?;
//!
//! let fast = service.submit(CompileRequest::new(circuit.clone(), chip.clone()))?;
//! let slow = service.submit(
//!     CompileRequest::new(circuit, chip).with_deadline(Duration::from_secs(30)),
//! )?;
//! let outcome = fast.wait()?;
//! assert!(outcome.report.cycles >= 37);
//! slow.cancel(); // cooperative; a queued job is guaranteed to be skipped
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod daemon;
pub mod job;
pub mod json;
mod queue;
pub mod service;

pub use batch::{compile_batch, compile_batch_with_threads, compile_jobs, BatchJob};
pub use job::{JobError, JobHandle, JobId, JobStatus};
pub use queue::Backpressure;
pub use service::{
    CompileRequest, CompileService, RetryStats, ScheduleMode, ServiceConfig, SubmitError,
    SupervisorStats,
};
// Fault-tolerance policy types, re-exported so service callers configure
// chaos runs without naming the policy crate.
pub use ecmas_faults::{FaultConfig, FaultSnapshot, RetryConfig};
