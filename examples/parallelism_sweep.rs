//! Miniature of the paper's Fig. 11: how cycle counts scale with the
//! Circuit Parallelism Degree on a fixed chip, for Ecmas and both
//! baselines. Each point's sample group compiles in parallel with
//! [`compile_jobs`] — the compilers are deterministic, so the results
//! are identical to a sequential loop, only faster on multi-core hosts.
//!
//! ```sh
//! cargo run --release --example parallelism_sweep
//! ```

use ecmas::{compile_jobs, para_finding, BatchJob, Compiler, Ecmas};
use ecmas_baselines::{AutoBraid, Edpci};
use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::{random, Circuit};

fn mean_cycles(
    compiler: &(dyn Compiler + Sync),
    group: &[Circuit],
    chip: &Chip,
) -> Result<f64, Box<dyn std::error::Error>> {
    let jobs: Vec<BatchJob<'_>> =
        group.iter().map(|circuit| BatchJob { compiler, circuit, chip }).collect();
    let mut sum = 0u64;
    for outcome in compile_jobs(&jobs) {
        sum += outcome?.report.cycles;
    }
    Ok(sum as f64 / group.len() as f64)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (qubits, depth, samples) = (25, 30, 5);
    let dd = Chip::min_viable(CodeModel::DoubleDefect, qubits, 3)?;
    let ls = Chip::min_viable(CodeModel::LatticeSurgery, qubits, 3)?;
    println!("random circuits: {qubits} qubits, depth {depth}, {samples} samples per point");
    println!(
        "{:>3} {:>6} | {:>10} {:>9} | {:>7} {:>9}",
        "PM", "gPM", "AutoBraid", "Ecmas-dd", "EDPCI", "Ecmas-ls"
    );
    let ecmas = Ecmas::default();
    for pm in [1, 2, 4, 6, 8, 10, 12] {
        let group = random::test_group(qubits, depth, pm, samples, 99);
        let gpm_sum: usize = group.iter().map(|c| para_finding(&c.dag()).gpm()).sum();
        println!(
            "{:>3} {:>6.1} | {:>10.1} {:>9.1} | {:>7.1} {:>9.1}",
            pm,
            gpm_sum as f64 / group.len() as f64,
            mean_cycles(&AutoBraid::new(), &group, &dd)?,
            mean_cycles(&ecmas, &group, &dd)?,
            mean_cycles(&Edpci::new(), &group, &ls)?,
            mean_cycles(&ecmas, &group, &ls)?,
        );
    }
    println!("\n(see `cargo run -p ecmas-bench --bin fig11` for the full-size experiment)");
    Ok(())
}
