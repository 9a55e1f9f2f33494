//! **ecmas-analyze** — static analysis and diagnostics for the Ecmas
//! workspace.
//!
//! Three analysis layers, all reporting through the shared
//! [`Diagnostic`] type (registry in `ecmas_core::diag`):
//!
//! 1. **Source level** — [`lint_qasm`] parses OpenQASM and surfaces
//!    lexer/parser failures as `E010` diagnostics with line/column
//!    spans, then runs the circuit lints on the parse result.
//! 2. **Circuit level** (pre-compile) — [`lint_circuit`] checks a
//!    built circuit against an optional target chip: width-vs-capacity
//!    early reject (`E012`), dead qubits (`W001`), adjacent
//!    self-cancelling CNOT pairs (`W002`), and communication-graph
//!    structure (`W003` disconnected, `W004` degree hotspots).
//! 3. **Schedule level** (post-compile) — re-exported from
//!    `ecmas-core`: [`collect_violations`] gathers *every* legality
//!    violation of an encoded schedule (not just the first, as the
//!    [`validate_encoded`](ecmas_core::validate_encoded) facade does)
//!    and [`analyze_encoded`] adds the hint-severity metrics (`H001`
//!    idle bubbles, `H002` critical-path slack).
//!
//! Severity policy: gates (CI, the daemon's analyze mode) fail only on
//! [`Severity::Error`]. Warnings and hints are advisory — see
//! [`has_errors`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ecmas_chip::Chip;
use ecmas_circuit::{qasm, Circuit, Op};

pub use ecmas_core::diag::{diagnostics_to_json, Code, Diagnostic, Severity, Span};
pub use ecmas_core::encoded::{analyze_encoded, collect_violations};

/// `true` if any diagnostic is error severity (the gating predicate).
#[must_use]
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(Diagnostic::is_error)
}

/// Runs the circuit-level lints, optionally against a target chip.
///
/// Emitted codes: `E012` (circuit wider than the chip's live tiles —
/// the compile would be rejected, so this is an early, cheap
/// equivalent), `W001` (unused qubits), `W002` (adjacent
/// self-cancelling CNOT pairs), `W003` (disconnected communication
/// graph), `W004` (communication-degree hotspots that predict router
/// congestion).
#[must_use]
pub fn lint_circuit(circuit: &Circuit, chip: Option<&Chip>) -> Vec<Diagnostic> {
    let n = circuit.qubits();
    let mut out = Vec::new();

    if let Some(chip) = chip {
        let live = chip.live_tiles();
        if n > live {
            out.push(Diagnostic::new(
                Code::WidthExceedsChip,
                format!("circuit has {n} qubits but the chip only has {live} live tiles"),
            ));
        }
    }

    // W001 — dead qubits: declared but touched by no op.
    let mut touched = vec![false; n];
    for op in circuit.ops() {
        match *op {
            Op::Cnot { control, target } => {
                touched[control] = true;
                touched[target] = true;
            }
            Op::Single { qubit, .. } => touched[qubit] = true,
            _ => {}
        }
    }
    let unused: Vec<usize> = (0..n).filter(|&q| !touched[q]).collect();
    if !unused.is_empty() {
        out.push(Diagnostic::new(
            Code::UnusedQubit,
            format!(
                "{} of {n} declared qubits are touched by no gate: {}",
                unused.len(),
                fmt_list(&unused)
            ),
        ));
    }

    // W002 — adjacent self-cancelling CNOT pairs: two identical CNOTs
    // with no intervening op touching either operand cancel to the
    // identity. Barriers count as intervening (they exist to prevent
    // exactly this kind of reordering/cancellation reasoning).
    let mut last_touch: Vec<Option<usize>> = vec![None; n];
    let mut cancelling = 0usize;
    let mut first_pair = None;
    for (i, op) in circuit.ops().iter().enumerate() {
        match *op {
            Op::Cnot { control, target } => {
                if let (Some(a), Some(b)) = (last_touch[control], last_touch[target]) {
                    if a == b && circuit.ops()[a] == *op {
                        cancelling += 1;
                        first_pair.get_or_insert((a, i));
                    }
                }
                last_touch[control] = Some(i);
                last_touch[target] = Some(i);
            }
            Op::Single { qubit, .. } => last_touch[qubit] = Some(i),
            _ => {
                // Barrier (or future variants): conservatively touches
                // every qubit.
                last_touch.fill(Some(i));
            }
        }
    }
    if cancelling > 0 {
        let (a, b) = first_pair.expect("counted pairs imply a first pair");
        out.push(Diagnostic::new(
            Code::SelfCancellingCnots,
            format!(
                "{cancelling} adjacent identical CNOT pair(s) cancel to the identity \
                 (first: ops {a} and {b})"
            ),
        ));
    }

    // Communication-graph lints. Only qubits with at least one CNOT
    // partner participate (isolated qubits are W001's business).
    let comm = circuit.comm_graph();
    let active: Vec<usize> = (0..n).filter(|&q| comm.weighted_degree(q) > 0).collect();

    // W003 — disconnected components among the active qubits.
    if active.len() > 1 {
        let mut seen = vec![false; n];
        let mut components = 0usize;
        let mut largest = 0usize;
        for &start in &active {
            if seen[start] {
                continue;
            }
            components += 1;
            let mut size = 0usize;
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(q) = stack.pop() {
                size += 1;
                for &(peer, _) in comm.neighbors(q) {
                    if !seen[peer] {
                        seen[peer] = true;
                        stack.push(peer);
                    }
                }
            }
            largest = largest.max(size);
        }
        if components > 1 {
            out.push(Diagnostic::new(
                Code::DisconnectedCommGraph,
                format!(
                    "communication graph splits into {components} components \
                     (largest {largest} of {} active qubits); the sub-circuits \
                     never interact and could compile independently",
                    active.len()
                ),
            ));
        }
    }

    // W004 — degree hotspots: a qubit whose weighted communication
    // degree is far above the mean concentrates braid traffic around
    // one tile. Threshold: ≥ 3× the active mean, minimum degree 4, and
    // enough active qubits for "mean" to mean anything.
    if active.len() >= 4 {
        let total: u64 = active.iter().map(|&q| u64::from(comm.weighted_degree(q))).sum();
        #[allow(clippy::cast_precision_loss)]
        let mean = total as f64 / active.len() as f64;
        let hot: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&q| {
                let d = f64::from(comm.weighted_degree(q));
                d >= 4.0 && d >= 3.0 * mean
            })
            .collect();
        if !hot.is_empty() {
            let worst = hot
                .iter()
                .copied()
                .max_by_key(|&q| comm.weighted_degree(q))
                .expect("non-empty hotspot list");
            out.push(Diagnostic::new(
                Code::DegreeHotspot,
                format!(
                    "{} qubit(s) have outlier communication degree \
                     (worst: qubit {worst} at {}, mean {mean:.1}); expect router \
                     congestion around their tiles",
                    hot.len(),
                    comm.weighted_degree(worst),
                ),
            ));
        }
    }

    out
}

/// Parses QASM source and lints the result.
///
/// A lexer or parser failure becomes a single `E010` diagnostic whose
/// span carries the error's 1-based line/column (column 0 when only
/// the line is known), and no circuit is returned. On success the
/// circuit-level lints run (without a chip — pair with
/// [`lint_circuit`] directly when one is in hand).
#[must_use]
pub fn lint_qasm(src: &str) -> (Option<Circuit>, Vec<Diagnostic>) {
    match qasm::parse(src) {
        Ok(circuit) => {
            let diags = lint_circuit(&circuit, None);
            (Some(circuit), diags)
        }
        Err(err) => {
            let diag = Diagnostic::new(Code::QasmParse, err.message())
                .with_span(Span { line: err.line(), col: err.col() });
            (None, vec![diag])
        }
    }
}

fn fmt_list(items: &[usize]) -> String {
    const SHOWN: usize = 8;
    let mut s = items.iter().take(SHOWN).map(ToString::to_string).collect::<Vec<_>>().join(", ");
    if items.len() > SHOWN {
        s.push_str(&format!(", … ({} more)", items.len() - SHOWN));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecmas_chip::CodeModel;

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn unused_qubits_warn() {
        let mut c = Circuit::new(5);
        c.cnot(0, 1);
        c.h(2);
        let diags = lint_circuit(&c, None);
        assert!(codes(&diags).contains(&"W001"));
        let w = diags.iter().find(|d| d.code == Code::UnusedQubit).unwrap();
        assert!(w.message.contains("3, 4"));
        assert!(!has_errors(&diags));
    }

    #[test]
    fn self_cancelling_pair_detected() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        c.cnot(0, 1);
        let diags = lint_circuit(&c, None);
        assert!(codes(&diags).contains(&"W002"));
    }

    #[test]
    fn intervening_op_suppresses_cancellation() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        c.h(1);
        c.cnot(0, 1);
        assert!(!codes(&lint_circuit(&c, None)).contains(&"W002"));
        // A barrier also blocks the pairing.
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        c.barrier();
        c.cnot(0, 1);
        assert!(!codes(&lint_circuit(&c, None)).contains(&"W002"));
        // Reversed orientation is not self-cancelling.
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        c.cnot(1, 0);
        assert!(!codes(&lint_circuit(&c, None)).contains(&"W002"));
    }

    #[test]
    fn disconnected_comm_graph_warns() {
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        c.cnot(2, 3);
        let diags = lint_circuit(&c, None);
        let w = diags.iter().find(|d| d.code == Code::DisconnectedCommGraph).unwrap();
        assert!(w.message.contains("2 components"));
        // Bridge the halves: no warning.
        c.cnot(1, 2);
        assert!(!codes(&lint_circuit(&c, None)).contains(&"W003"));
    }

    #[test]
    fn degree_hotspot_flags_star_center() {
        // A star: qubit 0 talks to everyone, everyone else only to 0.
        let mut c = Circuit::new(9);
        for q in 1..9 {
            c.cnot(0, q);
        }
        let diags = lint_circuit(&c, None);
        let w = diags.iter().find(|d| d.code == Code::DegreeHotspot).unwrap();
        assert!(w.message.contains("qubit 0"));
        // A ring is perfectly balanced: no hotspot.
        let mut ring = Circuit::new(8);
        for q in 0..8 {
            ring.cnot(q, (q + 1) % 8);
        }
        assert!(!codes(&lint_circuit(&ring, None)).contains(&"W004"));
    }

    #[test]
    fn width_exceeds_chip_is_an_error() {
        let chip = Chip::min_viable(CodeModel::LatticeSurgery, 4, 1).unwrap();
        let live = chip.live_tiles();
        let too_wide = Circuit::new(live + 1);
        let diags = lint_circuit(&too_wide, Some(&chip));
        assert!(codes(&diags).contains(&"E012"));
        assert!(has_errors(&diags));
        let fits = Circuit::new(live);
        assert!(!codes(&lint_circuit(&fits, Some(&chip))).contains(&"E012"));
    }

    #[test]
    fn qasm_parse_error_becomes_e010_with_span() {
        let (circuit, diags) = lint_qasm("OPENQASM 2.0;\nqreg q[2];\nh   q[9];\n");
        assert!(circuit.is_none());
        assert_eq!(codes(&diags), ["E010"]);
        let span = diags[0].span.expect("parse errors carry spans");
        assert_eq!(span.line, 3);
        assert_eq!(span.col, 7);
        assert!(has_errors(&diags));
    }

    #[test]
    fn qasm_success_runs_circuit_lints() {
        let (circuit, diags) = lint_qasm("OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0], q[1];\n");
        assert_eq!(circuit.unwrap().qubits(), 3);
        assert!(codes(&diags).contains(&"W001")); // q[2] unused
        assert!(!has_errors(&diags));
    }
}
