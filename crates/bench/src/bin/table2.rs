//! Regenerates the paper's Table II: location-initialization comparison
//! (Trivial / Metis / Ours), first on the minimum viable lattice-surgery
//! chip (the paper's configuration — no spread: everything schedules at
//! the depth bound), then on the congested chip where placement actually
//! discriminates. All cells fan out across cores through one batch
//! (`ecmas::compile_jobs`).

use ecmas_bench::{print_rows, table2_plan, table2_plan_congested, table_rows};

fn main() {
    let suite = ecmas_circuit::benchmarks::ablation_suite();
    let rows = table_rows(&suite, table2_plan);
    print_rows("Table II: comparison of location initialization methods (cycles)", &rows);
    println!();
    // The ablation suite ties even here (the A* router resolves its
    // congestion under every knob setting); qft_n50's all-to-all traffic
    // is what actually saturates the congested chip.
    let mut congested = suite;
    congested.push(ecmas_circuit::benchmarks::qft_n50());
    let rows = table_rows(&congested, table2_plan_congested);
    print_rows("Table II (congested chip): 2x-side tile array, bandwidth-1 channels", &rows);
}
