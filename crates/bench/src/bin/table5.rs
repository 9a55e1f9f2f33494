//! Regenerates the paper's Table V: cut-type-scheduling comparison
//! (Channel-first / Time-first / Ours) on the minimum viable
//! double-defect chip. All cells fan out across cores through one
//! batch (`ecmas::compile_jobs`).

use ecmas_bench::{print_rows, table5_plan, table_rows};

fn main() {
    let rows = table_rows(&ecmas_circuit::benchmarks::ablation_suite(), table5_plan);
    print_rows("Table V: comparison of cut type scheduling strategies (cycles)", &rows);
}
