//! **Ecmas** — the umbrella facade of the workspace.
//!
//! This crate re-exports the whole public surface of
//! [`ecmas_core`] and the [`ecmas_serve`] service layer under the short
//! name every consumer uses (`ecmas::…`), and owns the workspace-level
//! artifacts: the `ecmasc` CLI and `ecmasd` daemon (`src/bin/`), the
//! runnable `examples/`, and the cross-crate integration tests in
//! `tests/`.
//!
//! Start from [`Ecmas`] (the pipeline driver), [`Ecmas::session`] (the
//! staged API: profile → map → schedule, with per-stage artifacts and a
//! structured [`CompileReport`] per run), and
//! [`EcmasConfig`] (every ablation knob of the paper's Tables II–V), or
//! from the repo-level `README.md` for the map of the eight
//! implementation crates. The [`Compiler`] trait is the interface every
//! compiler in the workspace (Ecmas and both baselines) implements.
//!
//! Workload-facing traffic goes through the service layer
//! ([`serve`](mod@serve)): [`CompileService`] owns a persistent worker
//! pool over a bounded job queue and hands back [`JobHandle`]s with
//! poll/wait/cancel and deadline support; [`compile_jobs`] fans a batch of
//! independent compiles over scoped threads; the `ecmasd` binary speaks
//! the service's newline-delimited JSON protocol. The pipeline itself —
//! profiling, mapping, cut-type initialization, scheduling, validation —
//! is documented in depth on [`ecmas_core`].
//!
//! # Example
//!
//! ```
//! use ecmas::{validate_encoded, Ecmas};
//! use ecmas_chip::{Chip, CodeModel};
//! use ecmas_circuit::Circuit;
//!
//! let mut circuit = Circuit::new(4);
//! circuit.cnot(0, 1);
//! circuit.cnot(2, 3);
//! circuit.cnot(1, 2);
//!
//! let chip = Chip::min_viable(CodeModel::LatticeSurgery, circuit.qubits(), 3)?;
//! let encoded = Ecmas::default().compile(&circuit, &chip)?;
//! validate_encoded(&circuit, &encoded)?;
//! assert!(encoded.cycles() as usize >= circuit.depth());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ecmas_core::{
    compiler, cut, encoded, engine, error, hardness, mapping, profile, resources, resu, session,
    stable, viz,
};

pub use ecmas_core::{
    analyze_encoded, collect_violations, diagnostics_to_json, fingerprint_encoded, para_finding,
    schedule_limited, schedule_sufficient, validate_encoded, Algorithm, CacheInfo, CacheSource,
    ChipFleet, Code, CompileError, CompileOutcome, CompileReport, Compiler, CutInitStrategy,
    CutPolicy, CutType, Diagnostic, Ecmas, EcmasConfig, EncodedCircuit, Event, EventKind,
    ExecutionScheme, FleetSelection, GateOrder, LocationStrategy, ResourceEstimate, ScheduleConfig,
    Severity, Span, StableHasher, StageCost, ValidateError,
};

/// The static-analysis layer (`ecmas-analyze`), re-exported whole:
/// source/circuit/schedule-level lints over the shared diagnostic
/// registry (see `ecmas_analyze` for the code table).
pub use ecmas_analyze as analyze;

pub use ecmas_analyze::{has_errors, lint_circuit, lint_gates, lint_qasm};

/// The compile-cache layer (`ecmas-cache`), re-exported whole:
/// content-addressed keys, the byte-budgeted LRU, and in-flight
/// coalescing (see `ecmas_cache` for the design).
pub use ecmas_cache as cache;

pub use ecmas_cache::{CacheConfig, CacheStats, CompileCache, CompileKey};

/// The service layer (`ecmas-serve`), re-exported whole: job queue,
/// handles, deadlines, batch compiles, and the `ecmasd` protocol engine.
pub use ecmas_serve as serve;

pub use ecmas_serve::{
    compile_jobs, Backpressure, BatchJob, CompileRequest, CompileService, FaultConfig,
    FaultSnapshot, JobError, JobHandle, JobId, JobStatus, RetryConfig, RetryStats, ServiceConfig,
    SubmitError, SupervisorStats,
};
