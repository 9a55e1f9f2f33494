//! The front end's memory, measured by a counting global allocator: the
//! live heap peak of one `qasm::parse` call on the largest Table I text
//! (`quantum_walk_n11`, ≈408 KB), where the token list and the circuit
//! under construction dominate, and of the descendant counts on a wide,
//! nearly idle register, which must not grow with the register squared.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use ecmas_circuit::{benchmarks, qasm};

/// Forwards to the system allocator, tracking live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters never influence the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
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
