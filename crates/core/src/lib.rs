//! **Ecmas** — efficient circuit mapping and scheduling for surface code.
//!
//! A from-scratch reproduction of the CGO 2024 paper by Zhu et al.
//! (arXiv:2312.15254): a fault-tolerant compiler pass that maps a logical
//! circuit's qubits onto surface-code tiles and schedules its CNOTs as
//! braiding operations (double-defect model) or Bell-state ancilla paths
//! (lattice surgery), minimizing the clock-cycle count Δ. Finding the
//! optimum is NP-hard (Theorem 1, reconstructed in [`hardness`]); Ecmas is
//! the paper's resource-adaptive heuristic answer.
//!
//! # Pipeline (paper Fig. 9)
//!
//! 1. **Circuit profiling** ([`profile`]) — Algorithm Para-Finding
//!    estimates the Circuit Parallelism Degree `ĝPM` and produces a
//!    balanced depth-`α` execution scheme.
//! 2. **Chip analyzing** — Theorem 2's Chip Communication Capacity
//!    `⌊(b−1)/2⌋ + 3` decides whether resources are "limited" or
//!    "sufficient" (see `ecmas_chip::Chip::communication_capacity`).
//! 3. **Initial mapping** ([`mapping`]) — shape determining, placement by
//!    communication cost `f = Σ γ_ij · l_ij`.
//! 4. **Cut-type initialization** ([`cut`]) — greedy bipartite-prefix
//!    2-coloring (double defect only).
//! 5. **Scheduling** — [`engine`] (Algorithm 1, limited resources, with
//!    the M-value cut-modification policy) or [`resu`] (Algorithm 2,
//!    Ecmas-ReSu, performance-guaranteed on sufficient resources).
//!
//! The [`Ecmas`] facade runs the whole pipeline. [`Ecmas::session`] exposes
//! it as typed stages ([`session::Profiled`] → [`session::Mapped`] →
//! [`session::Scheduled`]) whose artifacts can be inspected and overridden
//! mid-flight; every run can return a structured [`session::CompileReport`]
//! (per-stage wall time, router effort, the limited-vs-ReSu choice), and
//! every ablation knob of the paper's Tables II–V is a field of
//! [`EcmasConfig`]. The [`session::Compiler`] trait is the workspace-wide
//! interface baselines implement too; batch and service-style fan-out
//! (`compile_jobs`, `CompileService`, the `ecmasd` daemon) live a layer
//! up in `ecmas-serve`.
//!
//! # Example
//!
//! ```
//! use ecmas::Ecmas;
//! use ecmas_chip::{Chip, CodeModel};
//! use ecmas_circuit::benchmarks::ising_n10;
//!
//! let circuit = ising_n10();
//! let chip = Chip::min_viable(CodeModel::DoubleDefect, circuit.qubits(), 3)?;
//! let encoded = Ecmas::default().compile(&circuit, &chip)?;
//! // The ising chain's communication graph is bipartite, so every CNOT
//! // braids in one cycle and the schedule hits the depth lower bound.
//! assert_eq!(encoded.cycles() as usize, circuit.depth());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Every compiler in the workspace — including the AutoBraid and EDPCI
//! baselines in `ecmas-baselines` — emits the same
//! [`encoded::EncodedCircuit`], checked by the independent
//! [`encoded::validate_encoded`] oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiler;
pub mod cut;
pub mod diag;
pub mod encoded;
pub mod engine;
pub mod error;
pub mod hardness;
pub mod mapping;
pub mod profile;
pub mod resources;
pub mod resu;
pub mod session;
pub mod stable;
pub mod viz;

pub use compiler::{Ecmas, EcmasConfig};
pub use cut::{CutInitStrategy, CutType};
pub use diag::{diagnostics_to_json, Code, Diagnostic, Severity, Span};
pub use encoded::{
    analyze_encoded, collect_violations, validate_encoded, EncodedCircuit, Event, EventKind,
    ValidateError,
};
pub use engine::{schedule_limited, CutPolicy, GateOrder, ScheduleConfig};
pub use error::CompileError;
pub use mapping::LocationStrategy;
pub use profile::{para_finding, ExecutionScheme};
pub use resources::{ResourceEstimate, StageCost};
pub use resu::schedule_sufficient;
pub use session::{Algorithm, CacheInfo, CacheSource, CompileOutcome, CompileReport, Compiler};
pub use stable::{fingerprint_encoded, StableHasher};
