//! Regenerates the paper's Fig. 12: mean cycles (top) and compile-time
//! ratio vs the minimum viable chip (bottom) as the chip grows from
//! bandwidth 1 to 5, for parallelism 11 and 21, in both models. The
//! x-axis is physical qubits per d², matching the paper's values
//! (3025..18225 double defect, 450..4418 lattice surgery). Sample groups
//! compile in parallel via `ecmas::compile_jobs`; per-circuit compile
//! seconds come from each run's own `CompileReport` stage timings.

use ecmas_bench::{fig12_point, sample_count};
use ecmas_chip::CodeModel;

fn main() {
    let samples = sample_count();
    println!("Fig. 12: effect of chip size ({samples} circuits per point)");
    for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
        println!("--- {} ---", model.label());
        println!(
            "{:>3} {:>4} {:>10} {:>12} {:>10} {:>14} {:>12}",
            "PM", "bw", "qubits/d2", "base cycles", "ours", "base t-ratio", "ours t-ratio"
        );
        for pm in [11usize, 21] {
            let mut base_t0 = None;
            let mut ours_t0 = None;
            for bw in 1..=5u32 {
                let p = fig12_point(model, pm, bw, samples);
                let bt0 = *base_t0.get_or_insert(p.baseline_secs);
                let ot0 = *ours_t0.get_or_insert(p.ours_secs);
                println!(
                    "{pm:>3} {bw:>4} {:>10.0} {:>12.1} {:>10.1} {:>14.2} {:>12.2}",
                    p.qubits_per_d2,
                    p.baseline_cycles,
                    p.ours_cycles,
                    p.baseline_secs / bt0.max(1e-12),
                    p.ours_secs / ot0.max(1e-12),
                );
            }
        }
    }
}
