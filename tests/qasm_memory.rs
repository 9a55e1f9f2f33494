//! The front end's memory, measured by a counting global allocator: the
//! live heap peak of one `qasm::parse` call on the largest Table I text
//! (`quantum_walk_n11`, ≈408 KB), where the token list and the circuit
//! under construction dominate, of the descendant counts on a wide,
//! nearly idle register, which must not grow with the register squared,
//! of a wide program refused by `ecmasd` and `ecmasc` before any `n²`
//! table is built, and of oversized `random` sources refused by `ecmasd`
//! before any circuit is built.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use ecmas::serve::daemon::{Daemon, DaemonOptions, MAX_RANDOM_CNOTS};
use ecmas::serve::json::{self, Value};
use ecmas::session::MAX_COMPILE_QUBITS;
use ecmas::ServiceConfig;
use ecmas_circuit::{benchmarks, qasm};
use ecmas_core::diag::object;

/// Forwards to the system allocator, tracking live bytes and their peak.
/// A request above [`CEILING`] is refused (the process aborts) instead
/// of being passed on, so a regression that builds an `n²` table over a
/// wide register fails here without asking the host for gigabytes.
struct Counting;

const CEILING: usize = 1 << 30;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters never influence the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CEILING {
            return std::ptr::null_mut();
        }
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > CEILING {
            return std::ptr::null_mut();
        }
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            let live = LIVE.fetch_add(new_size, Ordering::SeqCst) + new_size;
            PEAK.fetch_max(live, Ordering::SeqCst);
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counters are process-wide, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn parse_live_peak_on_quantum_walk_stays_under_8_mb() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let source = qasm::to_qasm(&benchmarks::quantum_walk_n11());
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let circuit = qasm::parse(&source).expect("writer output parses");
    let peak = PEAK.load(Ordering::SeqCst) - before;
    println!("qasm::parse live peak on quantum_walk_n11: {:.2} MB", peak as f64 / 1e6);
    assert_eq!(circuit.cnot_count(), 14_356);
    assert!(peak < 8_000_000, "live peak {peak} bytes");
}

/// Two CNOTs on a 200 000-qubit register: the counts index only the
/// wires that carry a gate, so their peak is the per-qubit wire map
/// (0.8 MB), not a table over the whole register squared.
#[test]
fn descendant_counts_on_a_200k_qubit_register_stay_under_2_mb() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let source = "OPENQASM 2.0;\nqreg q[200000];\ncx q[0],q[1];\ncx q[1],q[199999];\n";
    let dag = qasm::parse(source).expect("valid program").dag();
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let counts = dag.descendant_counts();
    let peak = PEAK.load(Ordering::SeqCst) - before;
    println!("descendant_counts live peak on 200 000 qubits: {:.2} MB", peak as f64 / 1e6);
    assert_eq!(counts, [1, 0]);
    assert!(peak < 2_000_000, "live peak {peak} bytes");
}

/// A 200 000-qubit program is past [`MAX_COMPILE_QUBITS`]: an `ecmasd`
/// submit answers with an error result and `ecmasc` exits 1 with a
/// message, where the compiler's `n²` tables would have asked for 480 GB.
#[test]
fn a_register_past_the_width_limit_gets_an_error_not_an_abort() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let source = "OPENQASM 2.0;\nqreg q[200000];\ncx q[0],q[1];\n";
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let mut daemon = Daemon::new(DaemonOptions {
        service: ServiceConfig { workers: 1, ..ServiceConfig::default() },
        ..DaemonOptions::default()
    });
    let submit = object().str("op", "submit").str("qasm", source).to_string();
    let submitted = daemon.handle_line(&submit);
    assert!(submitted[0].contains(r#""op":"submitted""#), "{submitted:?}");
    let result = daemon.handle_line(r#"{"op":"result","job":1}"#);
    drop(daemon);
    let peak = PEAK.load(Ordering::SeqCst) - before;
    println!("daemon live peak on a refused 200 000-qubit submit: {:.2} MB", peak as f64 / 1e6);
    let result = json::parse(&result[0]).expect("result line is JSON");
    assert_eq!(result.get("status").and_then(Value::as_str), Some("error"));
    let error = result.get("error").and_then(Value::as_str).unwrap();
    assert!(error.contains(&format!("limit of {MAX_COMPILE_QUBITS}")), "{error}");
    assert!(peak < 32_000_000, "live peak {peak} bytes");

    let path = std::env::temp_dir().join(format!("ecmas-wide-{}.qasm", std::process::id()));
    std::fs::write(&path, source).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ecmasc")).arg(&path).output().unwrap();
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("limit of {MAX_COMPILE_QUBITS}")), "{stderr}");
}

/// A `random` source is a few dozen bytes whatever circuit it names. One
/// past [`MAX_COMPILE_QUBITS`] (a 1.6 TB qubit pool) or past
/// [`MAX_RANDOM_CNOTS`] (CNOTs pushed until memory runs out) gets an
/// `error` line before anything is built, and the daemon keeps serving.
#[test]
fn an_oversized_random_source_gets_an_error_line_not_an_abort() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut daemon = Daemon::new(DaemonOptions {
        service: ServiceConfig { workers: 1, ..ServiceConfig::default() },
        ..DaemonOptions::default()
    });
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    for random in [
        r#"{"qubits":200000000000,"depth":1,"parallelism":1}"#,
        r#"{"qubits":8,"depth":9000000000000,"parallelism":1}"#,
    ] {
        let response = daemon.handle_line(&format!(r#"{{"op":"submit","random":{random}}}"#));
        let response = json::parse(&response[0]).expect("response line is JSON");
        assert_eq!(response.get("op").and_then(Value::as_str), Some("error"), "{random}");
        let error = response.get("error").and_then(Value::as_str).unwrap();
        assert!(error.contains(&format!("{MAX_RANDOM_CNOTS} CNOTs")), "{error}");
    }
    let peak = PEAK.load(Ordering::SeqCst) - before;
    println!("daemon live peak on two refused random submits: {:.2} MB", peak as f64 / 1e6);
    assert!(peak < 1_000_000, "live peak {peak} bytes");
    let submitted =
        daemon.handle_line(r#"{"op":"submit","random":{"qubits":8,"depth":4,"parallelism":2}}"#);
    assert!(submitted[0].contains(r#""op":"submitted","job":1"#), "{submitted:?}");
    let result = daemon.handle_line(r#"{"op":"result","job":1}"#);
    assert!(result[0].contains(r#""status":"done""#), "{result:?}");
}
