//! The `ecmasd` line protocol: newline-delimited JSON over stdin/stdout.
//!
//! The daemon binary (`src/bin/ecmasd.rs` in the workspace root) is a
//! thin loop around [`Daemon`]: one request object per input line, one or
//! more response objects per output line. Keeping the protocol engine
//! here makes it testable without spawning a process.
//!
//! ## Requests
//!
//! | op       | fields |
//! |----------|--------|
//! | `submit` | a circuit source — `"qasm"` (inline source), `"file"` (path), or `"random"` (`{qubits, depth, parallelism, seed}`; `seed` defaults to 0; at most `MAX_COMPILE_QUBITS` qubits and [`MAX_RANDOM_CNOTS`] CNOTs, `depth × parallelism`) — plus optional `"chip"`, `"model"`, `"deadline_ms"`, `"tag"`, `"analyze"` (run the static analyzer; the result line's report carries the diagnostics), and a defect mask: `"defects"` (explicit `"r,c;r,c"` coordinates) or `"defect_percent"` + `"defect_seed"` (seeded random dead tiles, capped so the circuit still fits). A missing optional field takes its default; a present one of the wrong type or range gets an `error` line naming it: `chip`, `model`, `tag` and `defects` are strings, `analyze` is a bool, and `seed`, `deadline_ms`, `defect_percent` and `defect_seed` are integers in [0, 2^53) |
//! | `status` | `"job"` — non-blocking lifecycle probe |
//! | `cancel` | `"job"` — cooperative cancellation |
//! | `result` | `"job"` — blocking wait; emits the job's result line now |
//! | `drain`  | emit every unreported result (submission order) + a summary |
//! | `stats`  | non-blocking service + compile-cache counter snapshot |
//!
//! Job numbers are assigned sequentially from 1 in submission order, so a
//! stream producer can refer to its own jobs without reading responses.
//!
//! ## Responses
//!
//! Every response is one JSON object with an `"op"` key: `submitted`,
//! `status`, `cancel`, `result`, `drained`, `stats`, or `error`. A `result` line
//! for a completed job embeds the same `CompileReport` JSON object that
//! `ecmasc --json` emits (and that CI validates against the report
//! schema), including its per-job `"resources"` estimate; cancelled /
//! deadline-expired / failed jobs report a `"status"` of `cancelled` /
//! `deadline` / `error` instead. The `stats` line aggregates the
//! resource estimates of every completed job in a `"resources"` object
//! and the analyzer findings of analyze-mode jobs in a `"diagnostics"`
//! object (`errors`/`warnings`/`hints` counts). A `submit` whose QASM
//! source fails to parse gets an `error` line carrying a
//! `"diagnostics"` array with the `E010` finding and its line/column
//! span.

use std::fmt::Write as _;
use std::time::Duration;

use ecmas_analyze::lint_qasm;
use ecmas_chip::{Chip, ChipError, CodeModel};
use ecmas_circuit::random::{layered, StressSpec, StressWorkload};
use ecmas_circuit::Circuit;
use ecmas_core::diag::{object, JsonObject};
use ecmas_core::session::{CompileOutcome, MAX_COMPILE_QUBITS};
use ecmas_core::{diagnostics_to_json, para_finding, Diagnostic, Severity};

use crate::job::{JobError, JobHandle, JobStatus};
use crate::json::{self, Value};
use crate::service::{CompileRequest, CompileService, ServiceConfig, SubmitError};

/// Hard cap on one protocol line: stdin is untrusted, and the daemon
/// must bound its allocations before parsing. The binary's reader
/// enforces the same cap without buffering the oversized line.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The most CNOTs (`depth × parallelism`) a `random` source may ask
/// for: as many as an inline `qasm` submit can carry under
/// [`MAX_LINE_BYTES`] at 13 bytes for the shortest statement,
/// `cx q[0],q[1];` (≈80k). A `random` submit is a few dozen bytes at any
/// size, so without this bound one line could make the daemon build a
/// circuit of any size.
pub const MAX_RANDOM_CNOTS: usize = MAX_LINE_BYTES / "cx q[0],q[1];".len();

/// The chip families `ecmasc`/`ecmasd` can build per circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChipKind {
    /// `Chip::min_viable` — the paper's minimum viable chip.
    Min,
    /// `Chip::four_x` — 4× the minimum resources.
    FourX,
    /// `Chip::congested` — double-side array, bandwidth-1 channels.
    Congested,
    /// `Chip::sufficient` for the circuit's profiled `ĝPM`.
    Sufficient,
}

impl ChipKind {
    /// Parses the CLI/protocol spelling (`min|4x|congested|sufficient`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "min" => Some(ChipKind::Min),
            "4x" => Some(ChipKind::FourX),
            "congested" => Some(ChipKind::Congested),
            "sufficient" => Some(ChipKind::Sufficient),
            _ => None,
        }
    }

    /// The CLI/protocol spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ChipKind::Min => "min",
            ChipKind::FourX => "4x",
            ChipKind::Congested => "congested",
            ChipKind::Sufficient => "sufficient",
        }
    }

    /// Builds the chip of this family sized for `circuit`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`ChipError`].
    pub fn build(self, model: CodeModel, circuit: &Circuit) -> Result<Chip, ChipError> {
        let n = circuit.qubits();
        match self {
            ChipKind::Min => Chip::min_viable(model, n, 3),
            ChipKind::FourX => Chip::four_x(model, n, 3),
            ChipKind::Congested => Chip::congested(model, n, 3),
            ChipKind::Sufficient => {
                let gpm = para_finding(&circuit.dag()).gpm();
                Chip::sufficient(model, n, gpm.max(1), 3)
            }
        }
    }
}

/// Daemon defaults: the code model and chip family used when a submit
/// request does not override them, plus the service sizing.
#[derive(Clone, Copy, Debug)]
pub struct DaemonOptions {
    /// Default code model for submitted circuits.
    pub model: CodeModel,
    /// Default chip family, sized per circuit.
    pub chip: ChipKind,
    /// Worker-pool and queue sizing.
    pub service: ServiceConfig,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            model: CodeModel::DoubleDefect,
            chip: ChipKind::Min,
            // Unlike the embeddable `CompileService` (cache off unless
            // asked), a daemon serves a long-lived repetitive stream, so
            // the compile cache defaults on at a modest budget.
            service: ServiceConfig { cache_bytes: 64 * 1024 * 1024, ..ServiceConfig::default() },
        }
    }
}

enum EntryState {
    /// Job in flight; the handle owns the future result.
    Pending(JobHandle),
    /// Finished and reaped: the result line is already rendered and the
    /// heavyweight `EncodedCircuit` dropped; the line waits to be emitted.
    Ready { label: &'static str, line: String },
    /// Result line emitted; the label is the final protocol status.
    Reported(&'static str),
}

struct Entry {
    tag: Option<String>,
    name: String,
    qubits: usize,
    state: EntryState,
}

impl Entry {
    /// The fields every line about job number `job` starts with.
    fn line(&self, op: &str, job: usize) -> JsonObject {
        object().str("op", op).field("job", job).opt_str("tag", self.tag.as_deref())
    }
}

/// Job counts by state: in flight, then by final protocol status.
#[derive(Default)]
struct Tally {
    pending: usize,
    done: usize,
    cancelled: usize,
    deadline: usize,
    failed: usize,
}

/// Running totals over the [`ResourceEstimate`]s of completed jobs,
/// reported in the `stats` line's `"resources"` object.
///
/// [`ResourceEstimate`]: ecmas_core::ResourceEstimate
#[derive(Clone, Copy, Debug, Default)]
struct ResourceTotals {
    jobs: u64,
    logical_qubits: u64,
    cycles: u64,
    space_time_volume: u64,
    stage_cost: u64,
    peak_channel_utilization_ppm: u64,
}

impl ResourceTotals {
    fn absorb(&mut self, r: &ecmas_core::ResourceEstimate) {
        self.jobs += 1;
        self.logical_qubits += r.logical_qubits as u64;
        self.cycles += r.cycles;
        self.space_time_volume += r.space_time_volume;
        self.stage_cost += r.stage_cost.profile + r.stage_cost.map + r.stage_cost.schedule;
        self.peak_channel_utilization_ppm =
            self.peak_channel_utilization_ppm.max(r.channel_peak_utilization_ppm);
    }
}

/// Running analyzer-finding counts over completed analyze-mode jobs,
/// reported in the `stats` line's `"diagnostics"` object.
#[derive(Clone, Copy, Debug, Default)]
struct DiagTotals {
    errors: u64,
    warnings: u64,
    hints: u64,
}

impl DiagTotals {
    fn absorb(&mut self, diags: &[Diagnostic]) {
        for d in diags {
            match d.severity {
                Severity::Error => self.errors += 1,
                Severity::Warning => self.warnings += 1,
                Severity::Hint => self.hints += 1,
            }
        }
    }
}

/// The protocol engine: owns the [`CompileService`] and the job registry.
pub struct Daemon {
    options: DaemonOptions,
    service: CompileService,
    entries: Vec<Entry>,
    totals: ResourceTotals,
    diag_totals: DiagTotals,
}

impl Daemon {
    /// Starts the service with the given options.
    #[must_use]
    pub fn new(options: DaemonOptions) -> Self {
        Daemon {
            options,
            service: CompileService::new(options.service),
            entries: Vec::new(),
            totals: ResourceTotals::default(),
            diag_totals: DiagTotals::default(),
        }
    }

    /// Jobs submitted so far.
    #[must_use]
    pub fn submitted(&self) -> usize {
        self.entries.len()
    }

    /// `true` while some job's result has not been reported yet — the
    /// binary's cue to [`drain`](Self::drain) at EOF.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        self.entries.iter().any(|e| !matches!(e.state, EntryState::Reported(_)))
    }

    /// Converts every finished-but-unreported job's outcome into its
    /// rendered result line right away, dropping the schedule. This is
    /// what keeps daemon memory bounded on long job streams: without it,
    /// every completed `EncodedCircuit` would sit in its slot until the
    /// final drain. Runs on every handled line.
    fn reap(&mut self) {
        for index in 0..self.entries.len() {
            if !matches!(self.entries[index].state, EntryState::Pending(_)) {
                continue;
            }
            let EntryState::Pending(handle) =
                std::mem::replace(&mut self.entries[index].state, EntryState::Reported("done"))
            else {
                unreachable!("matched Pending above");
            };
            self.entries[index].state = match handle.try_wait() {
                Ok(result) => {
                    let (label, line) = self.settle(index, result);
                    EntryState::Ready { label, line }
                }
                Err(handle) => EntryState::Pending(handle),
            };
        }
    }

    /// Handles one input line, returning the response lines to emit.
    /// Blank lines produce no response.
    pub fn handle_line(&mut self, line: &str) -> Vec<String> {
        if line.len() > MAX_LINE_BYTES {
            // Refuse before parsing: an unbounded line is an unbounded
            // allocation, and stdin is untrusted.
            return vec![error_line(&format!(
                "line of {} bytes exceeds the {MAX_LINE_BYTES}-byte cap",
                line.len()
            ))];
        }
        let line = line.trim();
        if line.is_empty() {
            return Vec::new();
        }
        self.reap();
        let request = match json::parse(line) {
            Ok(v) => v,
            Err(e) => return vec![error_line(&e.to_string())],
        };
        let Some(op) = request.get("op").and_then(Value::as_str) else {
            return vec![error_line("missing \"op\"")];
        };
        match op {
            "submit" => self.submit(&request),
            "status" => self.status(&request),
            "cancel" => self.cancel(&request),
            "result" => self.result(&request),
            "drain" => {
                // `{"op":"drain","final":true}` additionally stops
                // admission for good: the service finishes everything in
                // flight and later submits get a "service draining"
                // error. Without the flag, drain only flushes results.
                if request.get("final").and_then(Value::as_bool).unwrap_or(false) {
                    self.service.drain();
                }
                self.drain()
            }
            "stats" => vec![self.stats_line()],
            other => vec![error_line(&format!("unknown op {other:?}"))],
        }
    }

    /// Emits every unreported result in submission order, then a summary
    /// line. Called on an explicit `drain` op and by the binary at EOF.
    pub fn drain(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        for index in 0..self.entries.len() {
            if !matches!(self.entries[index].state, EntryState::Reported(_)) {
                lines.push(self.take_result(index));
            }
        }
        let tally = self.tally();
        let drained = object()
            .str("op", "drained")
            .field("jobs", self.entries.len())
            .field("done", tally.done)
            .field("cancelled", tally.cancelled)
            .field("deadline", tally.deadline)
            .field("failed", tally.failed);
        lines.push(drained.to_string());
        lines
    }

    fn submit(&mut self, request: &Value) -> Vec<String> {
        let (compile_request, tag, name, qubits) = match self.build_request(request) {
            Ok(parts) => parts,
            Err(e) => return vec![e.into_line()],
        };
        match self.service.submit(compile_request) {
            Ok(handle) => {
                self.entries.push(Entry { tag, name, qubits, state: EntryState::Pending(handle) });
                let job = self.entries.len();
                let entry = &self.entries[job - 1];
                let submitted = entry
                    .line("submitted", job)
                    .str("circuit", &entry.name)
                    .field("qubits", entry.qubits)
                    .field("queued", self.service.queued());
                vec![submitted.to_string()]
            }
            Err(SubmitError::Saturated(_)) => vec![error_line("queue saturated")],
            Err(SubmitError::Overloaded { retry_after_ms, .. }) => {
                vec![error_object("overloaded").field("retry_after_ms", retry_after_ms).to_string()]
            }
            Err(SubmitError::Draining(_)) => vec![error_line("service draining")],
        }
    }

    /// Builds a submit's compile request from its fields, with the tag,
    /// circuit name and width the protocol lines echo back.
    fn build_request(
        &self,
        request: &Value,
    ) -> Result<(CompileRequest, Option<String>, String, usize), BuildError> {
        let tag = opt_field(request, "tag", Value::as_str, "a string")?.map(str::to_string);
        let model = match opt_field(request, "model", Value::as_str, "a string")? {
            None => self.options.model,
            Some("dd" | "double-defect") => CodeModel::DoubleDefect,
            Some("ls" | "lattice-surgery") => CodeModel::LatticeSurgery,
            Some(other) => return Err(format!("unknown model {other:?}").into()),
        };
        let chip_kind = match opt_field(request, "chip", Value::as_str, "a string")? {
            None => self.options.chip,
            Some(s) => ChipKind::parse(s).ok_or_else(|| format!("unknown chip {s:?}"))?,
        };
        let deadline_ms = opt_field(request, "deadline_ms", Value::as_u64, WIRE_INTEGER)?;
        let analyze = opt_field(request, "analyze", Value::as_bool, "a bool")?;
        let circuit = build_circuit(request)?;
        let chip = chip_kind
            .build(model, &circuit)
            .map_err(|e| format!("chip construction failed: {e}"))?;
        let chip = apply_defect_fields(chip, request, circuit.qubits())?;
        let (name, qubits) = (circuit.name().to_string(), circuit.qubits());
        let mut compile_request = CompileRequest::new(circuit, chip);
        if let Some(ms) = deadline_ms {
            compile_request = compile_request.with_deadline(Duration::from_millis(ms));
        }
        if let Some(analyze) = analyze {
            compile_request = compile_request.with_analyze(analyze);
        }
        Ok((compile_request, tag, name, qubits))
    }

    fn job_index(&self, request: &Value) -> Result<usize, String> {
        let job = request
            .get("job")
            .and_then(Value::as_usize)
            .ok_or_else(|| "missing or invalid \"job\"".to_string())?;
        if job == 0 || job > self.entries.len() {
            return Err(format!("no such job {job}"));
        }
        Ok(job - 1)
    }

    fn status(&mut self, request: &Value) -> Vec<String> {
        let index = match self.job_index(request) {
            Ok(i) => i,
            Err(message) => return vec![error_line(&message)],
        };
        let entry = &self.entries[index];
        let status = match &entry.state {
            EntryState::Pending(handle) => match handle.status() {
                JobStatus::Queued => "queued",
                JobStatus::Running => "running",
                JobStatus::Finished => "finished",
            },
            EntryState::Ready { .. } => "finished",
            EntryState::Reported(label) => label,
        };
        vec![entry.line("status", index + 1).str("status", status).to_string()]
    }

    fn cancel(&mut self, request: &Value) -> Vec<String> {
        let index = match self.job_index(request) {
            Ok(i) => i,
            Err(message) => return vec![error_line(&message)],
        };
        let entry = &self.entries[index];
        let accepted = match &entry.state {
            EntryState::Pending(handle) => handle.cancel(),
            EntryState::Ready { .. } | EntryState::Reported(_) => false,
        };
        vec![entry.line("cancel", index + 1).field("accepted", accepted).to_string()]
    }

    fn result(&mut self, request: &Value) -> Vec<String> {
        let index = match self.job_index(request) {
            Ok(i) => i,
            Err(message) => return vec![error_line(&message)],
        };
        if let EntryState::Reported(label) = self.entries[index].state {
            return vec![error_line(&format!("job {} already reported ({label})", index + 1))];
        }
        vec![self.take_result(index)]
    }

    /// Renders the `stats` response: submission/lifecycle tallies, the
    /// service-wide compile-cache counters, and aggregate resource
    /// totals over every *completed* job (sums of logical qubits,
    /// cycles, space–time volume, and stage cost; max of per-job peak
    /// channel utilization). Non-blocking — in-flight jobs count as
    /// pending and are not yet in the totals. With the cache disabled
    /// the `"cache"` object is present with `"enabled":false` and zeroed
    /// counters, so consumers can parse one shape unconditionally.
    fn stats_line(&self) -> String {
        let tally = self.tally();
        let cache = self.service.cache_stats();
        let c = cache.unwrap_or_default();
        let sup = self.service.supervisor_stats();
        let faults = self.service.fault_stats();
        let f = faults.unwrap_or_default();
        let retries = self.service.retry_stats();
        let (r, d) = (&self.totals, &self.diag_totals);
        object()
            .str("op", "stats")
            .field("jobs", self.entries.len())
            .field("pending", tally.pending)
            .field("done", tally.done)
            .field("cancelled", tally.cancelled)
            .field("deadline", tally.deadline)
            .field("failed", tally.failed)
            .field("queued", self.service.queued())
            .field("workers", self.service.workers())
            .field(
                "cache",
                object()
                    .field("enabled", cache.is_some())
                    .field("hits", c.hits)
                    .field("misses", c.misses)
                    .field("evictions", c.evictions)
                    .field("resident_bytes", c.resident_bytes)
                    .field("coalesced_waits", c.coalesced_waits)
                    .field("entries", c.entries),
            )
            .field(
                "supervisor",
                object()
                    .field("workers", sup.workers)
                    .field("spawned", sup.spawned)
                    .field("panics", sup.panics)
                    .field("respawns", sup.respawns)
                    .field("requeued", sup.requeued),
            )
            .field(
                "faults",
                object()
                    .field("enabled", faults.is_some())
                    .field("spurious_errors", f.spurious_errors)
                    .field("panics", f.panics)
                    .field("latencies", f.latencies)
                    .field("poisoned", f.poisoned),
            )
            .field(
                "retries",
                object().field("spent", retries.spent).field("budget", retries.budget),
            )
            .field("shed", self.service.shed_count())
            .field("draining", self.service.is_draining())
            .field(
                "resources",
                object()
                    .field("jobs", r.jobs)
                    .field("logical_qubits", r.logical_qubits)
                    .field("cycles", r.cycles)
                    .field("space_time_volume", r.space_time_volume)
                    .field("stage_cost", r.stage_cost)
                    .field("peak_channel_utilization_ppm", r.peak_channel_utilization_ppm),
            )
            .field(
                "diagnostics",
                object()
                    .field("errors", d.errors)
                    .field("warnings", d.warnings)
                    .field("hints", d.hints),
            )
            .to_string()
    }

    /// Counts the jobs by state; a reaped job counts under its final
    /// status before its line is emitted.
    fn tally(&self) -> Tally {
        let mut tally = Tally::default();
        for entry in &self.entries {
            match entry.state {
                EntryState::Pending(_) => tally.pending += 1,
                EntryState::Ready { label, .. } | EntryState::Reported(label) => match label {
                    "done" => tally.done += 1,
                    "cancelled" => tally.cancelled += 1,
                    "deadline" => tally.deadline += 1,
                    _ => tally.failed += 1,
                },
            }
        }
        tally
    }

    /// Reports job `index` (it must not be reported yet): waits if the
    /// job is still in flight, records its final status, and returns its
    /// result line.
    fn take_result(&mut self, index: usize) -> String {
        let state = std::mem::replace(&mut self.entries[index].state, EntryState::Reported("done"));
        let (label, line) = match state {
            EntryState::Pending(handle) => self.settle(index, handle.wait()),
            EntryState::Ready { label, line } => (label, line),
            EntryState::Reported(_) => unreachable!("caller checked the entry is unreported"),
        };
        self.entries[index].state = EntryState::Reported(label);
        line
    }

    /// Absorbs finished job `index`'s totals and renders its result line,
    /// returned with its final protocol status label.
    fn settle(
        &mut self,
        index: usize,
        result: Result<CompileOutcome, JobError>,
    ) -> (&'static str, String) {
        let label = match &result {
            Ok(outcome) => {
                self.totals.absorb(&outcome.report.resources);
                self.diag_totals.absorb(&outcome.report.diagnostics);
                "done"
            }
            Err(JobError::Cancelled) => "cancelled",
            Err(JobError::DeadlineExceeded { .. }) => "deadline",
            Err(_) => "error",
        };
        let entry = &self.entries[index];
        let line = entry
            .line("result", index + 1)
            .str("circuit", &entry.name)
            .field("qubits", entry.qubits)
            .str("status", label);
        let line = match result {
            Ok(CompileOutcome { report, .. }) => line.field("report", report.to_json()),
            Err(JobError::Cancelled) => line,
            Err(e) => line.str("error", &e.to_string()),
        };
        (label, line.to_string())
    }
}

/// What an integer field must be: the integers an f64 wire number
/// carries exactly.
const WIRE_INTEGER: &str = "an integer in [0, 2^53)";

/// Reads optional field `key`: `Ok(None)` when absent, an error naming
/// the field when present with the wrong type or range — a malformed
/// value is refused rather than silently replaced by the default.
fn opt_field<'a, T>(
    request: &'a Value,
    key: &str,
    read: impl Fn(&'a Value) -> Option<T>,
    want: &str,
) -> Result<Option<T>, String> {
    request.get(key).map(|v| read(v).ok_or_else(|| format!("\"{key}\" must be {want}"))).transpose()
}

/// An `error` response with its message; callers may add fields.
fn error_object(message: &str) -> JsonObject {
    object().str("op", "error").str("error", message)
}

fn error_line(message: &str) -> String {
    error_object(message).to_string()
}

/// The error response the `ecmasd` binary emits for a stdin line it
/// refused to buffer past [`MAX_LINE_BYTES`] (the line itself was
/// discarded unread, so [`Daemon::handle_line`] never sees it).
#[must_use]
pub fn oversized_line_error() -> String {
    error_line(&format!("line exceeds the {MAX_LINE_BYTES}-byte cap"))
}

/// Parses an explicit defect-mask spec: semicolon-separated `row,col`
/// tile coordinates, e.g. `"1,2;3,0"`. Shared by the `ecmasd` protocol
/// (`"defects"` field) and `ecmasc --defects`. Coordinates are validated
/// against the chip later (by [`Chip::with_defects`]), not here.
///
/// # Errors
///
/// Returns a human-readable message for malformed input.
pub fn parse_defect_spec(spec: &str) -> Result<Vec<(usize, usize)>, String> {
    let mut coords = Vec::new();
    for part in spec.split(';').filter(|p| !p.trim().is_empty()) {
        let (row, col) =
            part.split_once(',').ok_or_else(|| format!("defect {part:?} is not \"row,col\""))?;
        let parse = |s: &str, what: &str| {
            s.trim()
                .parse::<usize>()
                .map_err(|_| format!("defect {part:?} has a non-integer {what}"))
        };
        coords.push((parse(row, "row")?, parse(col, "col")?));
    }
    Ok(coords)
}

/// Applies a submit request's optional defect fields to the built chip:
/// `"defects"` (explicit coordinates) and/or `"defect_percent"` +
/// `"defect_seed"` (seeded random dead tiles, capped so `qubits` still
/// fit on the live tiles). Out-of-range coordinates and over-defected
/// chips are reported as errors, not deferred to a compile failure.
fn apply_defect_fields(mut chip: Chip, request: &Value, qubits: usize) -> Result<Chip, String> {
    if let Some(spec) = opt_field(request, "defects", Value::as_str, "a string")? {
        let coords = parse_defect_spec(spec)?;
        chip = chip.with_defects(&coords).map_err(|e| e.to_string())?;
    }
    let seed = opt_field(request, "defect_seed", Value::as_u64, WIRE_INTEGER)?.unwrap_or(0);
    if let Some(percent) = opt_field(request, "defect_percent", Value::as_u64, WIRE_INTEGER)? {
        if percent > 100 {
            return Err(format!("defect_percent {percent} exceeds 100"));
        }
        let slots = chip.tile_slots();
        // Cap the dead count so the circuit still fits: a stress knob
        // should degrade the chip, not reject the job.
        let want = (slots * usize::try_from(percent).expect("<= 100")) / 100;
        let cap = chip.live_tiles().saturating_sub(qubits);
        chip.seed_defects(want.min(cap), seed);
    }
    if qubits > chip.live_tiles() {
        return Err(format!(
            "defect mask leaves {} live tiles for {qubits} qubits",
            chip.live_tiles()
        ));
    }
    Ok(chip)
}

/// A circuit-construction failure: the message every error line
/// carries, plus structured analyzer diagnostics when the source was
/// QASM (an `E010` with the line/column span of the parse failure).
struct BuildError {
    message: String,
    diagnostics: Vec<Diagnostic>,
}

impl BuildError {
    fn plain(message: impl Into<String>) -> Self {
        BuildError { message: message.into(), diagnostics: Vec::new() }
    }

    /// Renders the protocol `error` line, appending a `"diagnostics"`
    /// array when structured findings exist.
    fn into_line(self) -> String {
        let diagnostics =
            (!self.diagnostics.is_empty()).then(|| diagnostics_to_json(&self.diagnostics));
        error_object(&self.message).opt("diagnostics", diagnostics).to_string()
    }
}

impl From<String> for BuildError {
    fn from(message: String) -> Self {
        BuildError::plain(message)
    }
}

/// Parses QASM through the analyzer front-end so a failure carries its
/// `E010` diagnostic (with span) alongside the human-readable message.
fn parse_qasm_source(source: &str, origin: &str) -> Result<Circuit, BuildError> {
    match lint_qasm(source) {
        (Some(circuit), _) => Ok(circuit),
        (None, diagnostics) => {
            let detail = diagnostics.first().map_or_else(String::new, ToString::to_string);
            Err(BuildError { message: format!("{origin}: {detail}"), diagnostics })
        }
    }
}

/// Builds the circuit named by a submit request's source field.
fn build_circuit(request: &Value) -> Result<Circuit, BuildError> {
    if let Some(source) = request.get("qasm").and_then(Value::as_str) {
        return parse_qasm_source(source, "qasm");
    }
    if let Some(path) = request.get("file").and_then(Value::as_str) {
        let source = std::fs::read_to_string(path)
            .map_err(|e| BuildError::plain(format!("cannot read {path}: {e}")))?;
        return parse_qasm_source(&source, path);
    }
    if let Some(random) = request.get("random") {
        let field = |key: &str| {
            random
                .get(key)
                .and_then(Value::as_usize)
                .ok_or_else(|| format!("random source needs a non-negative integer {key:?}"))
        };
        let qubits = field("qubits")?;
        let depth = field("depth")?;
        let parallelism = field("parallelism")?;
        let seed = opt_field(random, "seed", Value::as_u64, WIRE_INTEGER)?.unwrap_or(0);
        let cnots = depth.checked_mul(parallelism).filter(|&c| c <= MAX_RANDOM_CNOTS);
        if parallelism == 0
            || 2 * parallelism > qubits
            || depth == 0
            || qubits > MAX_COMPILE_QUBITS
            || cnots.is_none()
        {
            return Err(BuildError::plain(format!(
                "random source out of range: qubits={qubits} depth={depth} \
                 parallelism={parallelism} (at most {MAX_COMPILE_QUBITS} qubits and \
                 {MAX_RANDOM_CNOTS} CNOTs)"
            )));
        }
        return Ok(layered(qubits, depth, parallelism, seed));
    }
    Err(BuildError::plain("submit needs a circuit source: \"qasm\", \"file\", or \"random\""))
}

/// The integers below 2^53: the seeds an `ecmasd` line carries exactly.
const WIRE_SEED_MASK: u64 = (1 << 53) - 1;

/// Renders a seeded [`StressWorkload`] as an `ecmasd` input stream:
/// one `submit` per job (via the `random` source, so the daemon
/// regenerates the identical circuit), a `cancel` after every
/// `cancel_every`-th submit (targeting the job just submitted — it is
/// honored whenever the job is still queued when the daemon reads the
/// next line), and a final `drain`.
///
/// Job seeds are masked to their low 53 bits, the integers the protocol's
/// f64 numbers carry exactly, so the daemon builds the circuit of the
/// emitted seed.
///
/// With a nonzero `spec.defect_percent` every submit also carries
/// `"defect_percent"` and its per-job `"defect_seed"`, so each job's
/// target chip arrives with that fraction of tiles dead. At `0` (the
/// default) the emitted stream is byte-identical to the legacy format.
#[must_use]
pub fn stress_stream(
    spec: &StressSpec,
    cancel_every: Option<usize>,
    deadline_ms: Option<u64>,
) -> String {
    let workload = StressWorkload::new(spec);
    let percent = workload.defect_percent();
    let mut out = String::new();
    for (i, job) in workload.jobs().iter().enumerate() {
        let number = i + 1;
        let random = object()
            .field("qubits", job.qubits)
            .field("depth", job.depth)
            .field("parallelism", job.parallelism)
            .field("seed", job.seed & WIRE_SEED_MASK);
        let submit = object()
            .str("op", "submit")
            .str("tag", &format!("stress{i}"))
            .field("random", random)
            .opt("defect_percent", (percent > 0).then_some(percent))
            .opt("defect_seed", (percent > 0).then(|| workload.defect_seed(i)))
            .opt("deadline_ms", deadline_ms);
        let _ = writeln!(out, "{submit}");
        if let Some(every) = cancel_every {
            if every > 0 && number % every == 0 {
                let _ = writeln!(out, "{}", object().str("op", "cancel").field("job", number));
            }
        }
    }
    let _ = writeln!(out, "{}", object().str("op", "drain"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Backpressure;

    fn daemon(workers: usize) -> Daemon {
        Daemon::new(DaemonOptions {
            model: CodeModel::LatticeSurgery,
            chip: ChipKind::Min,
            service: ServiceConfig {
                workers,
                queue_capacity: 64,
                backpressure: Backpressure::Block,
                ..ServiceConfig::default()
            },
        })
    }

    fn one(lines: Vec<String>) -> Value {
        assert_eq!(lines.len(), 1, "{lines:?}");
        json::parse(&lines[0]).expect("response is valid JSON")
    }

    #[test]
    fn submit_status_result_roundtrip() {
        let mut d = daemon(2);
        let resp = one(d.handle_line(
            r#"{"op":"submit","tag":"t1","random":{"qubits":10,"depth":8,"parallelism":2,"seed":5}}"#,
        ));
        assert_eq!(resp.get("op").unwrap().as_str(), Some("submitted"));
        assert_eq!(resp.get("job").unwrap().as_u64(), Some(1));
        assert_eq!(resp.get("tag").unwrap().as_str(), Some("t1"));

        let status = one(d.handle_line(r#"{"op":"status","job":1}"#));
        assert!(matches!(
            status.get("status").unwrap().as_str(),
            Some("queued" | "running" | "finished")
        ));

        let result = one(d.handle_line(r#"{"op":"result","job":1}"#));
        assert_eq!(result.get("op").unwrap().as_str(), Some("result"));
        assert_eq!(result.get("status").unwrap().as_str(), Some("done"));
        let report = result.get("report").expect("report embedded");
        assert!(report.get("cycles").unwrap().as_u64().unwrap() >= 8);
        assert!(report.get("router").is_some());

        // Second take is a protocol error, and the status is now final.
        let again = one(d.handle_line(r#"{"op":"result","job":1}"#));
        assert_eq!(again.get("op").unwrap().as_str(), Some("error"));
        let status = one(d.handle_line(r#"{"op":"status","job":1}"#));
        assert_eq!(status.get("status").unwrap().as_str(), Some("done"));
    }

    #[test]
    fn qasm_source_and_drain_summary() {
        let mut d = daemon(1);
        let qasm = "OPENQASM 2.0;\nqreg q[3];\ncx q[0],q[1];\ncx q[1],q[2];\n";
        let line = format!(
            "{{\"op\":\"submit\",\"qasm\":\"{}\"}}",
            qasm.replace('\n', "\\n").replace('"', "\\\"")
        );
        one(d.handle_line(&line));
        let lines = d.drain();
        assert_eq!(lines.len(), 2, "{lines:?}");
        let result = json::parse(&lines[0]).unwrap();
        assert_eq!(result.get("status").unwrap().as_str(), Some("done"));
        assert_eq!(result.get("qubits").unwrap().as_u64(), Some(3));
        let summary = json::parse(&lines[1]).unwrap();
        assert_eq!(summary.get("op").unwrap().as_str(), Some("drained"));
        assert_eq!(summary.get("jobs").unwrap().as_u64(), Some(1));
        assert_eq!(summary.get("done").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn malformed_lines_report_errors_not_panics() {
        let mut d = daemon(1);
        for bad in [
            "not json",
            "{\"no\":\"op\"}",
            "{\"op\":\"warp\"}",
            "{\"op\":\"submit\"}",
            "{\"op\":\"submit\",\"random\":{\"qubits\":4,\"depth\":3,\"parallelism\":9}}",
            "{\"op\":\"status\",\"job\":99}",
            "{\"op\":\"result\"}",
            "{\"op\":\"submit\",\"random\":{\"qubits\":4,\"depth\":3,\"parallelism\":1},\
             \"chip\":\"warp\"}",
            "{\"op\":\"submit\",\"random\":{\"qubits\":4,\"depth\":3,\"parallelism\":1},\
             \"model\":\"xx\"}",
            "{\"op\":\"submit\",\"random\":{\"qubits\":4,\"depth\":3,\"parallelism\":1,\
             \"seed\":-1}}",
        ] {
            let resp = one(d.handle_line(bad));
            assert_eq!(resp.get("op").unwrap().as_str(), Some("error"), "{bad}");
        }
        // A present optional field of the wrong type or range is refused
        // with an error naming it, never replaced by its default.
        for (field, value) in [
            ("defect_seed", "-3"),
            ("defect_seed", "1.5"),
            ("defect_percent", "\"50\""),
            ("deadline_ms", "-1"),
            ("deadline_ms", "9007199254740992"),
            ("model", "1"),
            ("chip", "null"),
            ("tag", "7"),
            ("defects", "[\"0,0\"]"),
            ("analyze", "\"yes\""),
        ] {
            let bad = format!(
                "{{\"op\":\"submit\",\"random\":{{\"qubits\":4,\"depth\":3,\
                 \"parallelism\":1}},\"{field}\":{value}}}"
            );
            let resp = one(d.handle_line(&bad));
            assert_eq!(resp.get("op").unwrap().as_str(), Some("error"), "{bad}");
            let message = resp.get("error").unwrap().as_str().unwrap();
            assert!(message.contains(&format!("\"{field}\"")), "{bad}: {message}");
        }
        assert!(d.handle_line("").is_empty());
        assert_eq!(d.submitted(), 0);
    }

    #[test]
    fn stats_reports_zeroed_disabled_cache() {
        let mut d = daemon(1);
        let stats = one(d.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(stats.get("op").unwrap().as_str(), Some("stats"));
        assert_eq!(stats.get("jobs").unwrap().as_u64(), Some(0));
        assert_eq!(stats.get("workers").unwrap().as_u64(), Some(1));
        let cache = stats.get("cache").expect("cache object present even when disabled");
        assert_eq!(cache.get("enabled").unwrap().as_bool(), Some(false));
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(0));
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn stats_counts_cache_hits_on_duplicate_submits() {
        // Default daemon options enable the cache.
        let mut d = Daemon::new(DaemonOptions::default());
        let submit = r#"{"op":"submit","random":{"qubits":8,"depth":6,"parallelism":2,"seed":11}}"#;
        for _ in 0..3 {
            let resp = one(d.handle_line(submit));
            assert_eq!(resp.get("op").unwrap().as_str(), Some("submitted"));
        }
        let lines = d.drain();
        assert_eq!(lines.len(), 4, "{lines:?}");
        for line in &lines[..3] {
            let result = json::parse(line).unwrap();
            assert_eq!(result.get("status").unwrap().as_str(), Some("done"));
        }
        let stats = one(d.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(stats.get("done").unwrap().as_u64(), Some(3));
        let cache = stats.get("cache").expect("cache object");
        assert_eq!(cache.get("enabled").unwrap().as_bool(), Some(true));
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1));
        let hits = cache.get("hits").unwrap().as_u64().unwrap();
        let coalesced = cache.get("coalesced_waits").unwrap().as_u64().unwrap();
        assert_eq!(hits + coalesced, 2, "duplicates served from the cache");
        assert!(cache.get("resident_bytes").unwrap().as_u64().unwrap() > 0);
    }

    #[test]
    fn defect_fields_shape_the_submitted_chip() {
        let mut d = daemon(1);
        // Explicit coordinates: compiles fine on the remaining live tiles.
        let resp = one(d.handle_line(
            r#"{"op":"submit","random":{"qubits":4,"depth":4,"parallelism":1,"seed":1},"chip":"congested","defects":"0,0;1,1"}"#,
        ));
        assert_eq!(resp.get("op").unwrap().as_str(), Some("submitted"));
        let result = one(d.handle_line(r#"{"op":"result","job":1}"#));
        assert_eq!(result.get("status").unwrap().as_str(), Some("done"));
        let resources = result.get("report").unwrap().get("resources").expect("resources");
        let live = resources.get("live_tiles").unwrap().as_u64().unwrap();
        let slots = live + 2;
        assert!(slots >= 8, "congested chip for 4 qubits has at least 8 slots");

        // Out-of-range coordinates: a clear error, not a job failure.
        let resp = one(d.handle_line(
            r#"{"op":"submit","random":{"qubits":4,"depth":4,"parallelism":1,"seed":1},"defects":"99,0"}"#,
        ));
        assert_eq!(resp.get("op").unwrap().as_str(), Some("error"));
        assert!(resp.get("error").unwrap().as_str().unwrap().contains("outside"));

        // Malformed spec.
        let resp = one(d.handle_line(
            r#"{"op":"submit","random":{"qubits":4,"depth":4,"parallelism":1,"seed":1},"defects":"1;2"}"#,
        ));
        assert_eq!(resp.get("op").unwrap().as_str(), Some("error"));

        // A mask that leaves no room for the circuit.
        let resp = one(d.handle_line(
            r#"{"op":"submit","random":{"qubits":4,"depth":4,"parallelism":1,"seed":1},"defects":"0,0;0,1;1,0"}"#,
        ));
        assert_eq!(resp.get("op").unwrap().as_str(), Some("error"));
        assert!(resp.get("error").unwrap().as_str().unwrap().contains("live tiles"));
    }

    #[test]
    fn seeded_defect_percent_caps_to_keep_the_job_viable() {
        let mut d = daemon(1);
        // 90% dead on a min chip would leave too few tiles; the cap must
        // keep exactly enough live tiles for the circuit.
        let resp = one(d.handle_line(
            r#"{"op":"submit","random":{"qubits":6,"depth":5,"parallelism":2,"seed":9},"chip":"congested","defect_percent":90,"defect_seed":7}"#,
        ));
        assert_eq!(resp.get("op").unwrap().as_str(), Some("submitted"), "{resp:?}");
        let result = one(d.handle_line(r#"{"op":"result","job":1}"#));
        assert_eq!(result.get("status").unwrap().as_str(), Some("done"));
        let resources = result.get("report").unwrap().get("resources").expect("resources");
        assert_eq!(resources.get("logical_qubits").unwrap().as_u64(), Some(6));
        assert_eq!(resources.get("live_tiles").unwrap().as_u64(), Some(6), "capped at qubits");

        // Over 100% is rejected up front.
        let resp = one(d.handle_line(
            r#"{"op":"submit","random":{"qubits":6,"depth":5,"parallelism":2,"seed":9},"defect_percent":101}"#,
        ));
        assert_eq!(resp.get("op").unwrap().as_str(), Some("error"));
    }

    #[test]
    fn stats_aggregates_completed_resources() {
        let mut d = daemon(2);
        let before = one(d.handle_line(r#"{"op":"stats"}"#));
        let resources = before.get("resources").expect("resources object always present");
        assert_eq!(resources.get("jobs").unwrap().as_u64(), Some(0));
        assert_eq!(resources.get("space_time_volume").unwrap().as_u64(), Some(0));

        one(d.handle_line(
            r#"{"op":"submit","random":{"qubits":8,"depth":6,"parallelism":2,"seed":2}}"#,
        ));
        one(d.handle_line(
            r#"{"op":"submit","random":{"qubits":10,"depth":8,"parallelism":3,"seed":3}}"#,
        ));
        d.drain();
        let stats = one(d.handle_line(r#"{"op":"stats"}"#));
        let resources = stats.get("resources").expect("resources object");
        assert_eq!(resources.get("jobs").unwrap().as_u64(), Some(2));
        assert_eq!(resources.get("logical_qubits").unwrap().as_u64(), Some(18));
        let cycles = resources.get("cycles").unwrap().as_u64().unwrap();
        assert!(cycles >= 6 + 8, "summed cycles cover both jobs");
        let stv = resources.get("space_time_volume").unwrap().as_u64().unwrap();
        assert!(stv >= 8 * 6 + 10 * 8);
        assert!(resources.get("stage_cost").unwrap().as_u64().unwrap() > 0);
        assert!(
            resources.get("peak_channel_utilization_ppm").unwrap().as_u64().unwrap() > 0,
            "routed jobs have a busiest cycle"
        );
    }

    #[test]
    fn analyze_mode_fills_report_diagnostics_and_stats() {
        let mut d = daemon(1);
        // 6 declared qubits, only 4 used → the analyzer reports W001
        // (plus schedule hints); without "analyze" the array is empty.
        let qasm = "OPENQASM 2.0;\\nqreg q[6];\\ncx q[0],q[1];\\ncx q[2],q[3];\\ncx q[1],q[2];\\n";
        one(d.handle_line(&format!("{{\"op\":\"submit\",\"qasm\":\"{qasm}\"}}")));
        one(d.handle_line(&format!("{{\"op\":\"submit\",\"qasm\":\"{qasm}\",\"analyze\":true}}")));

        let plain = one(d.handle_line(r#"{"op":"result","job":1}"#));
        let diags = plain.get("report").unwrap().get("diagnostics").expect("key always present");
        assert_eq!(diags.as_array().map(<[Value]>::len), Some(0), "no analyze: empty array");

        let analyzed = one(d.handle_line(r#"{"op":"result","job":2}"#));
        assert_eq!(analyzed.get("status").unwrap().as_str(), Some("done"));
        let diags = analyzed.get("report").unwrap().get("diagnostics").unwrap();
        let items = diags.as_array().expect("diagnostics array");
        let codes: Vec<&str> =
            items.iter().filter_map(|d| d.get("code").and_then(Value::as_str)).collect();
        assert!(codes.contains(&"W001"), "unused qubits flagged: {codes:?}");
        assert!(
            !items.iter().any(|d| d.get("severity").and_then(Value::as_str) == Some("error")),
            "a valid compile must carry no error diagnostics"
        );

        let stats = one(d.handle_line(r#"{"op":"stats"}"#));
        let totals = stats.get("diagnostics").expect("diagnostics totals object");
        assert_eq!(totals.get("errors").unwrap().as_u64(), Some(0));
        assert!(totals.get("warnings").unwrap().as_u64().unwrap() >= 1);
    }

    #[test]
    fn malformed_qasm_submit_carries_e010_span() {
        let mut d = daemon(1);
        // Line 3, col 7: q[9] is out of range for q[2].
        let resp = one(d.handle_line(
            "{\"op\":\"submit\",\"qasm\":\"OPENQASM 2.0;\\nqreg q[2];\\nh   q[9];\\n\"}",
        ));
        assert_eq!(resp.get("op").unwrap().as_str(), Some("error"));
        let diags = resp.get("diagnostics").expect("structured qasm diagnostics");
        let items = diags.as_array().unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].get("code").unwrap().as_str(), Some("E010"));
        let span = items[0].get("span").expect("span present");
        assert_eq!(span.get("line").unwrap().as_u64(), Some(3));
        assert_eq!(span.get("col").unwrap().as_u64(), Some(7));
        // Lexer garbage reachable from stdin: still a structured error.
        let resp = one(d.handle_line("{\"op\":\"submit\",\"qasm\":\"qreg q[2]; @\"}"));
        assert_eq!(resp.get("op").unwrap().as_str(), Some("error"));
        let items = resp.get("diagnostics").unwrap().as_array().unwrap();
        assert_eq!(items[0].get("code").unwrap().as_str(), Some("E010"));
    }

    #[test]
    fn defect_spec_parses_and_rejects() {
        assert_eq!(parse_defect_spec("1,2;3,0").unwrap(), vec![(1, 2), (3, 0)]);
        assert_eq!(parse_defect_spec(" 1 , 2 ; ").unwrap(), vec![(1, 2)]);
        assert_eq!(parse_defect_spec("").unwrap(), vec![]);
        assert!(parse_defect_spec("7").is_err());
        assert!(parse_defect_spec("a,b").is_err());
        assert!(parse_defect_spec("1,-2").is_err());
    }

    #[test]
    fn stress_stream_defect_knob_is_optional_and_seeded() {
        let base = StressSpec { jobs: 5, ..StressSpec::new(5, 16, 3) };
        let legacy = stress_stream(&base, None, None);
        assert!(!legacy.contains("defect"), "0% emits the legacy byte stream");

        let spec = StressSpec { defect_percent: 10, ..base };
        let stream = stress_stream(&spec, None, None);
        assert_eq!(stream, stress_stream(&spec, None, None));
        let workload = StressWorkload::new(&spec);
        for (i, line) in stream.lines().take(5).enumerate() {
            let v = json::parse(line).expect("valid JSON");
            assert_eq!(v.get("defect_percent").unwrap().as_u64(), Some(10));
            assert_eq!(v.get("defect_seed").unwrap().as_u64(), Some(workload.defect_seed(i)));
        }
        // And a daemon accepts the whole defective stream.
        let mut d = daemon(2);
        let mut lines = Vec::new();
        for line in stream.lines() {
            lines.extend(d.handle_line(line));
        }
        let summary = json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(summary.get("op").unwrap().as_str(), Some("drained"));
        assert_eq!(summary.get("done").unwrap().as_u64(), Some(5));
    }

    #[test]
    fn stress_stream_is_deterministic_and_well_formed() {
        let spec = StressSpec { jobs: 7, ..StressSpec::new(7, 16, 3) };
        let a = stress_stream(&spec, Some(3), Some(60_000));
        assert_eq!(a, stress_stream(&spec, Some(3), Some(60_000)));
        let lines: Vec<&str> = a.lines().collect();
        // 7 submits + 2 cancels (jobs 3 and 6) + drain.
        assert_eq!(lines.len(), 10);
        for line in &lines {
            json::parse(line).expect("stream line is valid JSON");
        }
        assert!(lines[3].contains("\"cancel\"") && lines[3].contains("\"job\":3"));
        assert!(lines.last().unwrap().contains("drain"));
    }

    #[test]
    fn stress_stream_seeds_survive_the_wire() {
        let spec = StressSpec { jobs: 200, ..StressSpec::new(200, 16, 5) };
        let jobs = StressWorkload::new(&spec);
        let stream = stress_stream(&spec, None, None);
        let submits = stream.lines().filter(|line| line.contains("\"submit\""));
        let mut wide = 0;
        for (job, line) in jobs.jobs().iter().zip(submits) {
            let v = json::parse(line).unwrap();
            let seed = v.get("random").unwrap().get("seed").unwrap().as_u64();
            assert_eq!(seed, Some(job.seed & WIRE_SEED_MASK), "{line}");
            wide += usize::from(job.seed > WIRE_SEED_MASK);
        }
        assert!(wide > 150, "the workload's seeds are mostly wider than 53 bits");
    }

    #[test]
    fn unrepresentable_seeds_are_refused_and_a_missing_seed_is_zero() {
        let mut d = daemon(1);
        for seed in ["1152921504606846976", "9007199254740992", "-1", "1.5", "\"7\""] {
            let line = format!(
                r#"{{"op":"submit","random":{{"qubits":4,"depth":4,"parallelism":1,"seed":{seed}}}}}"#
            );
            let resp = one(d.handle_line(&line));
            assert_eq!(resp.get("op").unwrap().as_str(), Some("error"), "seed {seed}");
            assert!(resp.get("error").unwrap().as_str().unwrap().contains("seed"), "seed {seed}");
        }
        let submit = |random: &str| {
            format!(
                r#"{{"op":"submit","random":{{"qubits":4,"depth":4,"parallelism":1{random}}}}}"#
            )
        };
        let mut reports = Vec::new();
        for line in [submit(""), submit(r#","seed":0"#), submit(r#","seed":9007199254740991"#)] {
            let resp = one(d.handle_line(&line));
            assert_eq!(resp.get("op").unwrap().as_str(), Some("submitted"), "{line}");
            let job = resp.get("job").unwrap().as_u64().unwrap();
            let result = one(d.handle_line(&format!(r#"{{"op":"result","job":{job}}}"#)));
            assert_eq!(result.get("status").unwrap().as_str(), Some("done"), "{line}");
            let report = result.get("report").unwrap();
            let count = |key: &str| report.get(key).unwrap().as_u64();
            reports.push((count("cycles"), count("events")));
        }
        assert_eq!(reports[0], reports[1], "a missing seed is seed 0");
    }
}
