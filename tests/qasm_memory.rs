//! The QASM front end's memory: the live heap peak of one `qasm::parse`
//! call on the largest Table I text (`quantum_walk_n11`, ≈408 KB),
//! measured by a counting global allocator. The token list and the
//! circuit under construction dominate it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

#[test]
fn parse_live_peak_on_quantum_walk_stays_under_8_mb() {
    let source = qasm::to_qasm(&benchmarks::quantum_walk_n11());
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let circuit = qasm::parse(&source).expect("writer output parses");
    let peak = PEAK.load(Ordering::SeqCst) - before;
    println!("qasm::parse live peak on quantum_walk_n11: {:.2} MB", peak as f64 / 1e6);
    assert_eq!(circuit.cnot_count(), 14_356);
    assert!(peak < 8_000_000, "live peak {peak} bytes");
}
