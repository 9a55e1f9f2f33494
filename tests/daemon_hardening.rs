//! Stdin-hardening tests for the `ecmasd` protocol layer: a seeded
//! corpus of malformed input — binary garbage, truncated JSON, wrong
//! types, unknown ops, oversized lines — must always produce a
//! structured `error` response (never a panic, never silence), and the
//! daemon must keep serving real work afterwards and drain cleanly.

use ecmas::serve::daemon::{ChipKind, Daemon, DaemonOptions, MAX_LINE_BYTES};
use ecmas::serve::json::{self, Value};
use ecmas::ServiceConfig;
use ecmas_chip::CodeModel;
use ecmas_faults::splitmix64;

fn daemon() -> Daemon {
    Daemon::new(DaemonOptions {
        model: CodeModel::LatticeSurgery,
        chip: ChipKind::Min,
        service: ServiceConfig { workers: 2, queue_capacity: 64, ..ServiceConfig::default() },
    })
}

fn parse(line: &str) -> Value {
    json::parse(line).unwrap_or_else(|e| panic!("daemon emitted invalid JSON ({e}): {line}"))
}

/// Seeded generator of hostile input lines. Families are chosen by the
/// hash so the corpus is reproducible from the seed alone.
fn garbage_line(seed: u64, i: u64) -> String {
    let h = splitmix64(seed ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
    match h % 12 {
        // Raw non-JSON noise, including control characters.
        0 => format!("\u{1}\u{2}garbage-{h:x}\u{7f}"),
        // Truncated object.
        1 => format!("{{\"op\":\"submit\",\"random\":{{\"qubits\":{}", h % 64),
        // Unknown op.
        2 => format!("{{\"op\":\"frobnicate\",\"id\":{}}}", h % 1000),
        // op with the wrong type.
        3 => format!("{{\"op\":{}}}", h % 1000),
        // Wrong-typed fields on a real op.
        4 => "{\"op\":\"submit\",\"random\":{\"qubits\":\"ten\",\"depth\":[]}}".to_string(),
        5 => "{\"op\":\"status\",\"job\":\"first\"}".to_string(),
        6 => "{\"op\":\"result\",\"job\":-3}".to_string(),
        // Valid JSON, not an object.
        7 => format!("[{}, {}]", h % 10, h % 7),
        8 => format!("{}", h),
        9 => "\"just a string\"".to_string(),
        // Nonsense values for real submit knobs.
        10 => format!(
            "{{\"op\":\"submit\",\"random\":{{\"qubits\":{},\"depth\":0,\"seed\":{}}}}}",
            h % 3, // below any viable size
            h % 97
        ),
        // Deeply dubious defect spec.
        _ => "{\"op\":\"submit\",\"random\":{\"qubits\":8,\"depth\":4,\"seed\":1},\"defects\":\"x;y;;,\"}".to_string(),
    }
}

/// 120 seeded hostile lines: each gets exactly one structured `error`
/// response, and after the whole barrage the daemon still compiles a
/// real job and drains with the right accounting.
#[test]
fn malformed_corpus_gets_structured_errors_and_daemon_survives() {
    let mut d = daemon();
    for i in 0..120 {
        let line = garbage_line(0xBAD_F00D, i);
        let responses = d.handle_line(&line);
        assert_eq!(responses.len(), 1, "one error per bad line: {line:?} -> {responses:?}");
        let response = parse(&responses[0]);
        assert_eq!(
            response.get("op").and_then(Value::as_str),
            Some("error"),
            "hostile input must yield op=error: {line:?} -> {responses:?}"
        );
        assert!(
            response.get("error").and_then(Value::as_str).is_some(),
            "the error payload is a string: {responses:?}"
        );
    }

    // The daemon is still alive and correct.
    let submit = d
        .handle_line(r#"{"op":"submit","random":{"qubits":8,"depth":6,"parallelism":2,"seed":3}}"#);
    assert_eq!(parse(&submit[0]).get("op").and_then(Value::as_str), Some("submitted"));
    let drained = d.drain();
    let summary = parse(drained.last().expect("drain emits a summary"));
    assert_eq!(summary.get("op").and_then(Value::as_str), Some("drained"));
    assert_eq!(summary.get("done").and_then(Value::as_u64), Some(1));
}

/// Oversized input is refused by byte length before any parsing: a line
/// one byte over the cap gets a structured error, one exactly at the cap
/// is parsed normally (and then rejected as garbage JSON, proving it got
/// through to the parser).
#[test]
fn oversized_lines_are_refused_at_the_cap() {
    let mut d = daemon();
    let over = "x".repeat(MAX_LINE_BYTES + 1);
    let responses = d.handle_line(&over);
    assert_eq!(responses.len(), 1);
    let response = parse(&responses[0]);
    assert_eq!(response.get("op").and_then(Value::as_str), Some("error"));
    let message = response.get("error").and_then(Value::as_str).unwrap();
    assert!(message.contains("exceeds"), "names the cap: {message}");

    let at_cap = "y".repeat(MAX_LINE_BYTES);
    let responses = d.handle_line(&at_cap);
    let response = parse(&responses[0]);
    assert_eq!(response.get("op").and_then(Value::as_str), Some("error"));
    let message = response.get("error").and_then(Value::as_str).unwrap();
    assert!(!message.contains("exceeds"), "a line at the cap reaches the JSON parser: {message}");

    // And the daemon still works.
    let submit = d
        .handle_line(r#"{"op":"submit","random":{"qubits":8,"depth":6,"parallelism":2,"seed":3}}"#);
    assert_eq!(parse(&submit[0]).get("op").and_then(Value::as_str), Some("submitted"));
    d.drain();
}

/// QASM nested far past the parser's expression limit, sent inline in a
/// submit line, gets an `E010` error carrying its position instead of
/// overflowing the daemon's stack, and the daemon keeps serving.
#[test]
fn deeply_nested_qasm_gets_a_positioned_error() {
    let mut d = daemon();
    let qasm = format!("OPENQASM 2.0;\\nqreg q[1];\\nrz({}1) q[0];\\n", "(".repeat(200_000));
    let responses = d.handle_line(&format!("{{\"op\":\"submit\",\"qasm\":\"{qasm}\"}}"));
    assert_eq!(responses.len(), 1);
    let response = parse(&responses[0]);
    assert_eq!(response.get("op").and_then(Value::as_str), Some("error"));
    let diagnostics = response.get("diagnostics").and_then(Value::as_array).expect("diagnostics");
    assert_eq!(diagnostics[0].get("code").and_then(Value::as_str), Some("E010"));
    let span = diagnostics[0].get("span").expect("span");
    // Line 3: the nesting starts at column 4, and its 257th `(` is past
    // the 256-level limit.
    assert_eq!(span.get("line").and_then(Value::as_u64), Some(3));
    assert_eq!(span.get("col").and_then(Value::as_u64), Some(260));

    let submit = d
        .handle_line(r#"{"op":"submit","random":{"qubits":8,"depth":6,"parallelism":2,"seed":3}}"#);
    assert_eq!(parse(&submit[0]).get("op").and_then(Value::as_str), Some("submitted"));
    d.drain();
}
