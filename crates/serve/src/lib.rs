//! **ecmas-serve** — the workload-facing service layer of the workspace.
//!
//! Everything upstream of this crate compiles *one* circuit; everything
//! downstream of it serves *traffic*. The centerpiece is
//! [`CompileService`]: a persistent worker pool (sharded over cores)
//! draining a bounded job queue with configurable [`Backpressure`].
//! Submissions are [`CompileRequest`]s — circuit + chip + optional
//! deadline — and come back as [`JobHandle`]s supporting non-blocking
//! poll, blocking wait, and cooperative cancellation. Built-in requests
//! run the default staged session pipeline, with the paper's
//! resource-adaptive choice of scheduler, and a cancel/deadline
//! checkpoint at every stage boundary.
//!
//! [`compile_jobs`] is the batch entry point the experiment binaries and
//! the examples fan out over: each [`BatchJob`] names its own compiler
//! and chip, and the jobs run on scoped threads with results in input
//! order, bit-identical to a sequential loop. It is a plain loop that
//! shares none of the service's dispatch machine.
//!
//! A [`CompileService`] can front its built-in pipeline with the
//! `ecmas-cache` content-addressed compile cache
//! ([`ServiceConfig::cache_bytes`]): repeated requests are served from
//! the byte-budgeted LRU of full results, and identical concurrent
//! requests coalesce into one compile. Every report then carries its cache
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

pub use batch::{compile_jobs, BatchJob};
pub use job::{JobError, JobHandle, JobId, JobStatus};
pub use queue::Backpressure;
pub use service::{CompileRequest, CompileService, ServiceConfig, SubmitError};
