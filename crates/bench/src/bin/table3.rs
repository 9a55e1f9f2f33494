//! Regenerates the paper's Table III: cut-type-initialization comparison
//! (Random / Max-cut / Ours) on the minimum viable double-defect chip.
//! All cells fan out across cores through one batch
//! (`ecmas::compile_jobs`).

use ecmas_bench::{print_rows, table3_plan, table_rows};

fn main() {
    let rows = table_rows(&ecmas_circuit::benchmarks::ablation_suite(), table3_plan);
    print_rows("Table III: comparison of cut type initialization methods (cycles)", &rows);
}
