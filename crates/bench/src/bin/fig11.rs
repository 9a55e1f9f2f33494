//! Regenerates the paper's Fig. 11: mean cycles vs Circuit Parallelism
//! Degree (1..=21) over groups of random 49-qubit, depth-50 circuits.
//! Set `ECMAS_SAMPLES` to change the group size (default 50, as in the
//! paper). Each group's independent compilations fan out across cores
//! via `ecmas::compile_jobs`; results are identical to a sequential run.

use ecmas_bench::{fig11_point, sample_count};
use ecmas_chip::CodeModel;

fn main() {
    let samples = sample_count();
    println!("Fig. 11: effect of circuit parallelism ({samples} circuits per point)");
    println!("(a) lattice surgery: EDPCI vs Ours | (b) double defect: AutoBraid vs Ours");
    println!(
        "{:>3} {:>12} {:>12} | {:>12} {:>12}",
        "PM", "EDPCI", "Ours-ls", "AutoBraid", "Ours-dd"
    );
    for pm in 1..=21 {
        let (edpci, ours_ls) = fig11_point(CodeModel::LatticeSurgery, pm, samples);
        let (autobraid, ours_dd) = fig11_point(CodeModel::DoubleDefect, pm, samples);
        println!("{pm:>3} {edpci:>12.1} {ours_ls:>12.1} | {autobraid:>12.1} {ours_dd:>12.1}");
    }
}
