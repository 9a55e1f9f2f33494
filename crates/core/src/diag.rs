//! Workspace-wide diagnostics: stable-coded findings from the static
//! analyzer.
//!
//! Every analysis in the workspace — the schedule validator in
//! [`encoded`](crate::encoded), the circuit lints and QASM frontend in
//! `ecmas-analyze` — reports through one type: a [`Diagnostic`] carrying
//! a stable [`Code`], a [`Severity`], a human-readable message, and
//! (for source-level findings) a line/column [`Span`]. Codes are a
//! machine-readable contract: `E0xx` legality errors, `W0xx` lints,
//! `H0xx` hints. Tools match on the code, never the message text.
//!
//! The registry lives here, in one enum, so a code can never be reused
//! with two meanings; see ARCHITECTURE.md for the full table and the
//! policy for adding new ones.

use std::fmt;

/// How serious a diagnostic is.
///
/// The severity is a function of the [`Code`] class — every `E` code is
/// an error, every `W` a warning, every `H` a hint — so gating logic
/// ("fail CI on errors") never needs a per-code table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The artifact is illegal: an invalid schedule or unparseable /
    /// unmappable circuit. Gates (CI, the daemon's analyze mode) fail on
    /// these.
    Error,
    /// Legal but suspicious: dead qubits, self-cancelling gate pairs,
    /// congestion predictors. Never fails a gate.
    Warning,
    /// Informational metrics: idle bubbles, critical-path slack.
    Hint,
}

impl Severity {
    /// Lower-case label used in JSON output and CLI rendering.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Hint => "hint",
        }
    }
}

/// A 1-based line/column source location for circuit-text diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Span {
    /// 1-based source line.
    pub line: usize,
    /// 1-based column within the line (0 when unknown — e.g. an
    /// end-of-file error after the last token).
    pub col: usize,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// The stable diagnostic-code registry.
///
/// A code's number is forever: removing a lint retires its code,
/// never frees it for reuse. The enum is `#[non_exhaustive]` so new
/// codes can be added without breaking downstream matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Code {
    /// E001 — mapping malformed: slot out of range, reused, wrong arity,
    /// or on a defective tile.
    BadMapping,
    /// E002 — a DAG gate is missing from the schedule or scheduled twice.
    GateCoverage,
    /// E003 — event kind incompatible with the chip's code model (or the
    /// schedule's qubit bookkeeping does not fit the circuit).
    WrongModel,
    /// E004 — a gate starts before one of its DAG parents finishes.
    DependencyOrder,
    /// E005 — two events overlap on the same logical qubit.
    QubitOverlap,
    /// E006 — braid between equal cut types, or direct-same-cut CNOT
    /// between different ones.
    CutTypeRule,
    /// E007 — structurally invalid path (non-adjacent steps, wrong
    /// endpoints, interior on a mapped tile, any cell on a defect).
    MalformedPath,
    /// E008 — two simultaneous paths violate the model's disjointness
    /// rule.
    PathConflict,
    /// E009 — per-cycle per-channel bandwidth conservation violated
    /// (more concurrent paths through a channel section than it has
    /// lanes; any crossing of a disabled channel's seam).
    ChannelOversubscribed,
    /// E010 — QASM source failed to lex or parse.
    QasmParse,
    /// E011 — a gate references a qubit index outside the circuit's
    /// declared width.
    QubitOutOfRange,
    /// E012 — the circuit is wider than the chip has live tiles.
    WidthExceedsChip,
    /// W001 — a declared qubit is touched by no gate.
    UnusedQubit,
    /// W002 — two adjacent identical CNOTs cancel to the identity.
    SelfCancellingCnots,
    /// W003 — the communication graph splits into multiple components.
    DisconnectedCommGraph,
    /// W004 — a qubit's communication degree is an outlier that predicts
    /// router congestion around its tile.
    DegreeHotspot,
    /// H001 — idle bubbles: cycles where mapped qubits sit between
    /// events.
    IdleBubbles,
    /// H002 — slack between the schedule's Δ and the dependency-chain
    /// lower bound.
    CriticalPathSlack,
}

impl Code {
    /// The stable code string (`"E007"`, `"W002"`, …).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Code::BadMapping => "E001",
            Code::GateCoverage => "E002",
            Code::WrongModel => "E003",
            Code::DependencyOrder => "E004",
            Code::QubitOverlap => "E005",
            Code::CutTypeRule => "E006",
            Code::MalformedPath => "E007",
            Code::PathConflict => "E008",
            Code::ChannelOversubscribed => "E009",
            Code::QasmParse => "E010",
            Code::QubitOutOfRange => "E011",
            Code::WidthExceedsChip => "E012",
            Code::UnusedQubit => "W001",
            Code::SelfCancellingCnots => "W002",
            Code::DisconnectedCommGraph => "W003",
            Code::DegreeHotspot => "W004",
            Code::IdleBubbles => "H001",
            Code::CriticalPathSlack => "H002",
        }
    }

    /// The severity class the code's prefix letter encodes.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self.as_str().as_bytes()[0] {
            b'E' => Severity::Error,
            b'W' => Severity::Warning,
            _ => Severity::Hint,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding from an analysis pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code (the machine-readable identity of the finding).
    pub code: Code,
    /// Severity, always `code.severity()`.
    pub severity: Severity,
    /// Human-readable description of this particular instance.
    pub message: String,
    /// Source location, for findings anchored in circuit text.
    pub span: Option<Span>,
}

impl Diagnostic {
    /// A diagnostic with the code's canonical severity and no span.
    #[must_use]
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic { code, severity: code.severity(), message: message.into(), span: None }
    }

    /// Attaches a source span.
    #[must_use]
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// `true` for error-severity findings (the gating class).
    #[must_use]
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Serializes the diagnostic as a self-contained JSON object
    /// (`{"code":"E007","severity":"error","message":"…","span":{"line":3,"col":7}}`;
    /// the `span` key is omitted when absent).
    #[must_use]
    pub fn to_json(&self) -> String {
        let span = self
            .span
            .map(|s| format!(",\"span\":{{\"line\":{},\"col\":{}}}", s.line, s.col))
            .unwrap_or_default();
        format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"{span}}}",
            self.code,
            self.severity.label(),
            escape(&self.message),
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.severity.label(), self.code)?;
        if let Some(span) = self.span {
            write!(f, " {span}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Serializes a diagnostic list as a JSON array.
#[must_use]
pub fn diagnostics_to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&d.to_json());
    }
    out.push(']');
    out
}

/// Escapes `s` for embedding in a JSON string literal: quotes,
/// backslash, and the control characters JSON forbids raw (`\n`, `\r`,
/// `\t` by name, the rest as `\u00XX`). The one string escape every
/// JSON writer in the workspace uses.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_follows_code_class() {
        assert_eq!(Code::MalformedPath.severity(), Severity::Error);
        assert_eq!(Code::UnusedQubit.severity(), Severity::Warning);
        assert_eq!(Code::IdleBubbles.severity(), Severity::Hint);
    }

    #[test]
    fn code_strings_are_unique() {
        let all = [
            Code::BadMapping,
            Code::GateCoverage,
            Code::WrongModel,
            Code::DependencyOrder,
            Code::QubitOverlap,
            Code::CutTypeRule,
            Code::MalformedPath,
            Code::PathConflict,
            Code::ChannelOversubscribed,
            Code::QasmParse,
            Code::QubitOutOfRange,
            Code::WidthExceedsChip,
            Code::UnusedQubit,
            Code::SelfCancellingCnots,
            Code::DisconnectedCommGraph,
            Code::DegreeHotspot,
            Code::IdleBubbles,
            Code::CriticalPathSlack,
        ];
        let strings: std::collections::HashSet<&str> = all.iter().map(|c| c.as_str()).collect();
        assert_eq!(strings.len(), all.len());
    }

    #[test]
    fn json_escapes_and_spans() {
        let d = Diagnostic::new(Code::QasmParse, "unexpected \"tok\"")
            .with_span(Span { line: 3, col: 7 });
        assert_eq!(
            d.to_json(),
            "{\"code\":\"E010\",\"severity\":\"error\",\
             \"message\":\"unexpected \\\"tok\\\"\",\
             \"span\":{\"line\":3,\"col\":7}}"
        );
        let plain = Diagnostic::new(Code::IdleBubbles, "x");
        assert!(!plain.to_json().contains("span"));
        assert_eq!(plain.to_string(), "hint [H001]: x");
        assert_eq!(d.to_string(), "error [E010] 3:7: unexpected \"tok\"");
    }

    #[test]
    fn diagnostics_array_renders() {
        let list =
            vec![Diagnostic::new(Code::UnusedQubit, "a"), Diagnostic::new(Code::PathConflict, "b")];
        assert_eq!(
            diagnostics_to_json(&list),
            "[{\"code\":\"W001\",\"severity\":\"warning\",\"message\":\"a\"},\
             {\"code\":\"E008\",\"severity\":\"error\",\"message\":\"b\"}]"
        );
        assert_eq!(diagnostics_to_json(&[]), "[]");
    }
}
