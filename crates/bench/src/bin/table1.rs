//! Regenerates the paper's Table I: overview of cycle counts for
//! AutoBraid vs Ecmas (double defect, minimum viable + sufficient chips)
//! and EDPCI vs Ecmas (lattice surgery, minimum viable + 4x chips).
//! All rows' cells fan out across cores through one batch
//! (`ecmas::compile_jobs`); results are identical to a sequential run.

use ecmas_bench::{print_rows, table1_plan, table_rows};

fn main() {
    let rows = table_rows(&ecmas_circuit::benchmarks::table1_suite(), table1_plan);
    print_rows("Table I: overview of experiment results (cycles)", &rows);
}
