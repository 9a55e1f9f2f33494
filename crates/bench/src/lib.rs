//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section (§V).
//!
//! Each `table*`/`fig*` binary prints the same rows/series the paper
//! reports, computed with this workspace's implementations. Absolute cycle
//! counts differ where the benchmark generators are synthetic stand-ins
//! (see `DESIGN.md`), but the comparisons the paper draws — who wins, by
//! roughly what factor, where the crossovers sit — are reproduced.
//! `EXPERIMENTS.md` records paper-vs-measured for every experiment.
//!
//! | Binary  | Paper artifact |
//! |---------|----------------|
//! | `table1`| Table I — overview: AutoBraid vs Ecmas (double defect), EDPCI vs Ecmas (lattice surgery) |
//! | `table2`| Table II — location initialization ablation |
//! | `table3`| Table III — cut-type initialization ablation |
//! | `table4`| Table IV — gate scheduling ablation |
//! | `table5`| Table V — cut-type scheduling ablation |
//! | `fig11` | Fig. 11 — cycles vs Circuit Parallelism Degree |
//! | `fig12` | Fig. 12 — cycles & compile-time ratio vs chip size |
//!
//! Every compiler is driven through the workspace-wide [`Compiler`]
//! trait, and every experiment fans out over `ecmas-serve`'s batch entry
//! point, [`compile_jobs`]: the random-circuit experiments
//! (`fig11`/`fig12`) batch each sample group on one chip
//! ([`run_batch`]), and the `table1`–`table5` binaries flatten *all*
//! their rows' cells — each with its own compiler and per-circuit chip —
//! into one batch ([`table_rows`]). Results are bit-identical to a
//! sequential loop (every compiler is deterministic), only the wall
//! clock changes.
//!
//! The criterion benches (`cargo bench`) measure compile-time scaling —
//! the paper's efficiency claim — on the same workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ecmas::{
    compile_jobs, validate_encoded, BatchJob, CompileError, CompileOutcome, Compiler,
    CutInitStrategy, CutPolicy, Ecmas, EcmasConfig, GateOrder, LocationStrategy,
};
use ecmas_baselines::{AutoBraid, Edpci};
use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::Circuit;

/// One labeled measurement series for a report table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Circuit name.
    pub name: String,
    /// Logical qubits.
    pub n: usize,
    /// Circuit depth α.
    pub alpha: usize,
    /// CNOT count g.
    pub g: usize,
    /// `(column label, cycles)` measurements.
    pub cells: Vec<(&'static str, u64)>,
}

/// Environment-tunable sample count for the random-circuit experiments
/// (`ECMAS_SAMPLES`, default matching the paper's 50).
#[must_use]
pub fn sample_count() -> usize {
    std::env::var("ECMAS_SAMPLES").ok().and_then(|v| v.parse().ok()).unwrap_or(50)
}

/// Fans a circuit group through [`compile_jobs`] (scoped threads, one
/// per core), validates every schedule, and returns the summed
/// cycles and summed per-circuit compile seconds (measured inside each
/// compilation by its report, so the numbers are comparable whether the
/// batch ran on one core or many).
///
/// # Panics
///
/// Panics if a compilation fails or a schedule is invalid — the harness
/// treats both as experiment-infrastructure bugs.
#[must_use]
pub fn run_batch(compiler: &(dyn Compiler + Sync), group: &[Circuit], chip: &Chip) -> (u64, f64) {
    let jobs: Vec<BatchJob<'_>> =
        group.iter().map(|circuit| BatchJob { compiler, circuit, chip }).collect();
    let mut cycles = 0u64;
    let mut secs = 0.0f64;
    for (circuit, outcome) in group.iter().zip(compile_jobs(&jobs)) {
        let outcome =
            outcome.unwrap_or_else(|e| panic!("{}: batch compile failed: {e}", circuit.name()));
        validate_encoded(circuit, &outcome.encoded)
            .unwrap_or_else(|e| panic!("{}: invalid batch schedule: {e}", circuit.name()));
        cycles += outcome.encoded.cycles();
        secs += outcome.report.timings.total().as_secs_f64();
    }
    (cycles, secs)
}

/// One planned table cell: which compiler to run on which chip. The
/// chips are sized per circuit, so every cell is its own [`BatchJob`].
pub struct Cell {
    /// Column label.
    pub label: &'static str,
    /// The compiler this cell measures.
    pub compiler: Box<dyn Compiler + Sync>,
    /// The chip it runs on.
    pub chip: Chip,
}

impl Cell {
    fn new(label: &'static str, compiler: impl Compiler + Sync + 'static, chip: Chip) -> Self {
        Cell { label, compiler: Box::new(compiler), chip }
    }
}

/// `Ecmas` driven through Algorithm 2 (Ecmas-ReSu) instead of the
/// [`Compiler`] trait's default Algorithm 1 pipeline — the Table I
/// "ReSu" column as a trait object.
struct ResuCompiler(Ecmas);

impl Compiler for ResuCompiler {
    fn name(&self) -> &'static str {
        "ecmas-resu"
    }

    fn compile_outcome(
        &self,
        circuit: &Circuit,
        chip: &Chip,
    ) -> Result<CompileOutcome, CompileError> {
        Ok(self.0.session(circuit, chip)?.map()?.schedule_resu()?.into_outcome())
    }
}

fn row_shell(circuit: &Circuit, cells: Vec<(&'static str, u64)>) -> Row {
    Row {
        name: circuit.name().to_string(),
        n: circuit.qubits(),
        alpha: circuit.depth(),
        g: circuit.cnot_count(),
        cells,
    }
}

/// Builds every row of a table by flattening all `(circuit, cell)` pairs
/// of the whole suite into one heterogeneous service fan-out
/// ([`compile_jobs`]): rows and columns compile concurrently across
/// cores, every schedule is validated, and the assembled rows are
/// bit-identical to compiling each cell on its own.
///
/// # Panics
///
/// As [`run_batch`].
#[must_use]
pub fn table_rows(suite: &[Circuit], plan: impl Fn(&Circuit) -> Vec<Cell>) -> Vec<Row> {
    let plans: Vec<Vec<Cell>> = suite.iter().map(&plan).collect();
    let jobs: Vec<BatchJob<'_>> = suite
        .iter()
        .zip(&plans)
        .flat_map(|(circuit, cells)| {
            cells.iter().map(move |cell| BatchJob {
                compiler: &*cell.compiler,
                circuit,
                chip: &cell.chip,
            })
        })
        .collect();
    let mut outcomes = compile_jobs(&jobs).into_iter();
    suite
        .iter()
        .zip(&plans)
        .map(|(circuit, cells)| {
            let measured = cells
                .iter()
                .map(|cell| {
                    let outcome =
                        outcomes.next().expect("one outcome per job").unwrap_or_else(|e| {
                            panic!("{}: {} compile failed: {e}", circuit.name(), cell.label)
                        });
                    validate_encoded(circuit, &outcome.encoded).unwrap_or_else(|e| {
                        panic!("{}: invalid {} schedule: {e}", circuit.name(), cell.label)
                    });
                    (cell.label, outcome.encoded.cycles())
                })
                .collect();
            row_shell(circuit, measured)
        })
        .collect()
}

/// Table I plan: the full overview comparison for one circuit.
///
/// # Panics
///
/// Panics if a chip cannot be constructed.
#[must_use]
pub fn table1_plan(circuit: &Circuit) -> Vec<Cell> {
    let n = circuit.qubits();
    let dd_min = Chip::min_viable(CodeModel::DoubleDefect, n, 3).expect("chip");
    let ls_min = Chip::min_viable(CodeModel::LatticeSurgery, n, 3).expect("chip");
    let ls_4x = Chip::four_x(CodeModel::LatticeSurgery, n, 3).expect("chip");
    let gpm = ecmas::para_finding(&circuit.dag()).gpm();
    let dd_sufficient = Chip::sufficient(CodeModel::DoubleDefect, n, gpm.max(1), 3).expect("chip");
    vec![
        Cell::new("AutoBraid Min", AutoBraid::new(), dd_min.clone()),
        Cell::new("Ecmas-dd Min", Ecmas::default(), dd_min),
        Cell::new("Ecmas-dd ReSu", ResuCompiler(Ecmas::default()), dd_sufficient),
        Cell::new("EDPCI Min", Edpci::new(), ls_min.clone()),
        Cell::new("EDPCI 4X", Edpci::new(), ls_4x.clone()),
        Cell::new("Ecmas-ls Min", Ecmas::default(), ls_min),
        Cell::new("Ecmas-ls 4X", Ecmas::default(), ls_4x),
    ]
}

fn location_plan(chip: Chip) -> Vec<Cell> {
    let with_location = |location| EcmasConfig { location, ..EcmasConfig::default() };
    vec![
        Cell::new("Trivial", Ecmas::new(with_location(LocationStrategy::Trivial)), chip.clone()),
        Cell::new(
            "Metis",
            Ecmas::new(with_location(LocationStrategy::Partitioner { seed: 11 })),
            chip.clone(),
        ),
        Cell::new("Ours", Ecmas::default(), chip),
    ]
}

/// Table II plan: location-initialization ablation (lattice surgery, min
/// chip).
///
/// # Panics
///
/// Panics if a chip cannot be constructed.
#[must_use]
pub fn table2_plan(circuit: &Circuit) -> Vec<Cell> {
    let chip = Chip::min_viable(CodeModel::LatticeSurgery, circuit.qubits(), 3).expect("chip");
    location_plan(chip)
}

/// [`table2_plan`] on the congested chip (double-side tile array, every
/// channel at the bandwidth-1 floor): the configuration where placement
/// actually discriminates — min-viable chips schedule the whole ablation
/// suite at the depth bound regardless of location strategy.
///
/// # Panics
///
/// Panics if a chip cannot be constructed.
#[must_use]
pub fn table2_plan_congested(circuit: &Circuit) -> Vec<Cell> {
    let chip = Chip::congested(CodeModel::LatticeSurgery, circuit.qubits(), 3).expect("chip");
    location_plan(chip)
}

/// Table III plan: cut-type-initialization ablation (double defect, min
/// chip).
///
/// # Panics
///
/// Panics if a chip cannot be constructed.
#[must_use]
pub fn table3_plan(circuit: &Circuit) -> Vec<Cell> {
    let chip = Chip::min_viable(CodeModel::DoubleDefect, circuit.qubits(), 3).expect("chip");
    let with_init = |cut_init| EcmasConfig { cut_init, ..EcmasConfig::default() };
    vec![
        Cell::new(
            "Random",
            Ecmas::new(with_init(CutInitStrategy::Random { seed: 23 })),
            chip.clone(),
        ),
        Cell::new(
            "Max-cut",
            Ecmas::new(with_init(CutInitStrategy::MaxCut { seed: 23 })),
            chip.clone(),
        ),
        Cell::new("Ours", Ecmas::default(), chip),
    ]
}

fn order_plan(chip: Chip) -> Vec<Cell> {
    let with_order = |order| EcmasConfig { order, ..EcmasConfig::default() };
    vec![
        Cell::new("Circuit-order", Ecmas::new(with_order(GateOrder::CircuitOrder)), chip.clone()),
        Cell::new("Ours", Ecmas::default(), chip),
    ]
}

/// Table IV plan: gate-scheduling ablation (lattice surgery, min chip).
///
/// # Panics
///
/// Panics if a chip cannot be constructed.
#[must_use]
pub fn table4_plan(circuit: &Circuit) -> Vec<Cell> {
    let chip = Chip::min_viable(CodeModel::LatticeSurgery, circuit.qubits(), 3).expect("chip");
    order_plan(chip)
}

/// [`table4_plan`] on the congested chip — see [`table2_plan_congested`];
/// gate order only matters when gates actually compete for channels.
///
/// # Panics
///
/// Panics if a chip cannot be constructed.
#[must_use]
pub fn table4_plan_congested(circuit: &Circuit) -> Vec<Cell> {
    let chip = Chip::congested(CodeModel::LatticeSurgery, circuit.qubits(), 3).expect("chip");
    order_plan(chip)
}

/// Table V plan: cut-type-scheduling ablation (double defect, min chip).
///
/// # Panics
///
/// Panics if a chip cannot be constructed.
#[must_use]
pub fn table5_plan(circuit: &Circuit) -> Vec<Cell> {
    let chip = Chip::min_viable(CodeModel::DoubleDefect, circuit.qubits(), 3).expect("chip");
    let with_policy = |cut_policy| EcmasConfig { cut_policy, ..EcmasConfig::default() };
    vec![
        Cell::new("Channel-first", Ecmas::new(with_policy(CutPolicy::ChannelFirst)), chip.clone()),
        Cell::new("Time-first", Ecmas::new(with_policy(CutPolicy::TimeFirst)), chip.clone()),
        Cell::new("Ours", Ecmas::default(), chip),
    ]
}

/// The model's paper baseline as a trait object (AutoBraid for double
/// defect, EDPCI for lattice surgery).
#[must_use]
pub fn baseline_for(model: CodeModel) -> Box<dyn Compiler + Sync> {
    match model {
        CodeModel::DoubleDefect => Box::new(AutoBraid::new()),
        CodeModel::LatticeSurgery => Box::new(Edpci::new()),
    }
}

/// Fig. 11 point: mean cycles over a test group of random circuits at one
/// parallelism degree, for baseline and Ecmas, on the given model's minimum
/// viable chip. The group's independent compilations fan out across cores
/// via [`run_batch`].
#[must_use]
pub fn fig11_point(model: CodeModel, parallelism: usize, samples: usize) -> (f64, f64) {
    let group = ecmas_circuit::random::test_group(49, 50, parallelism, samples, 0x000F_1611);
    let chip = Chip::min_viable(model, 49, 3).expect("chip");
    let (base_sum, _) = run_batch(&*baseline_for(model), &group, &chip);
    let (ours_sum, _) = run_batch(&Ecmas::default(), &group, &chip);
    (base_sum as f64 / group.len() as f64, ours_sum as f64 / group.len() as f64)
}

/// Fig. 12 point: mean cycles and mean compile seconds at one `(model,
/// parallelism, bandwidth)` cell, for the model's baseline and Ecmas.
/// Compilations fan out across cores; compile seconds come from each
/// run's own [`CompileReport`](ecmas::CompileReport) stage timings.
#[must_use]
pub fn fig12_point(
    model: CodeModel,
    parallelism: usize,
    bandwidth: u32,
    samples: usize,
) -> Fig12Point {
    let group = ecmas_circuit::random::test_group(49, 50, parallelism, samples, 0x000F_1612);
    let chip = Chip::uniform(model, 7, 7, bandwidth, 3).expect("chip");
    let (base_cycles, base_secs) = run_batch(&*baseline_for(model), &group, &chip);
    let (ours_cycles, ours_secs) = run_batch(&Ecmas::default(), &group, &chip);
    let k = group.len() as f64;
    Fig12Point {
        qubits_per_d2: chip.physical_qubits_per_d2(),
        baseline_cycles: base_cycles as f64 / k,
        ours_cycles: ours_cycles as f64 / k,
        baseline_secs: base_secs / k,
        ours_secs: ours_secs / k,
    }
}

/// One cell of the Fig. 12 sweep.
#[derive(Clone, Copy, Debug)]
pub struct Fig12Point {
    /// Physical qubit count in units of d² (the paper's x-axis).
    pub qubits_per_d2: f64,
    /// Mean baseline cycles (AutoBraid or EDPCI).
    pub baseline_cycles: f64,
    /// Mean Ecmas cycles.
    pub ours_cycles: f64,
    /// Mean baseline compile time in seconds.
    pub baseline_secs: f64,
    /// Mean Ecmas compile time in seconds.
    pub ours_secs: f64,
}

/// Prints rows in the paper's table style, with a geometric-mean summary
/// of each column's ratio against the last column ("Ours").
pub fn print_rows(title: &str, rows: &[Row]) {
    println!("{title}");
    if rows.is_empty() {
        return;
    }
    print!("{:<18} {:>4} {:>6} {:>6}", "Circuit", "n", "alpha", "g");
    for (label, _) in &rows[0].cells {
        print!(" {label:>14}");
    }
    println!();
    for row in rows {
        print!("{:<18} {:>4} {:>6} {:>6}", row.name, row.n, row.alpha, row.g);
        for (_, v) in &row.cells {
            print!(" {v:>14}");
        }
        println!();
    }
    // Geometric mean of ours/column over rows (improvement factor).
    let last = rows[0].cells.len() - 1;
    print!("{:<36}", "geo-mean (ours / column)");
    for col in 0..rows[0].cells.len() {
        let mut log_sum = 0.0f64;
        let mut count = 0usize;
        for row in rows {
            let ours = row.cells[last].1;
            let theirs = row.cells[col].1;
            if ours > 0 && theirs > 0 {
                log_sum += (ours as f64 / theirs as f64).ln();
                count += 1;
            }
        }
        let gm = if count == 0 { 1.0 } else { (log_sum / count as f64).exp() };
        print!(" {gm:>14.3}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecmas_circuit::benchmarks;

    #[test]
    fn table1_row_has_all_columns() {
        let row = &table_rows(&[benchmarks::bv_n10()], table1_plan)[0];
        assert_eq!(row.cells.len(), 7);
        // BV is a serial star: AutoBraid = 3α, Ecmas = α on both models.
        assert_eq!(row.cells[0].1, 3 * row.alpha as u64);
        assert_eq!(row.cells[1].1, row.alpha as u64);
        assert_eq!(row.cells[5].1, row.alpha as u64);
    }

    #[test]
    fn ablation_rows_have_expected_columns() {
        let c = [benchmarks::ghz(8)];
        assert_eq!(table_rows(&c, table2_plan)[0].cells.len(), 3);
        assert_eq!(table_rows(&c, table3_plan)[0].cells.len(), 3);
        assert_eq!(table_rows(&c, table4_plan)[0].cells.len(), 2);
        assert_eq!(table_rows(&c, table5_plan)[0].cells.len(), 3);
    }

    #[test]
    fn ours_wins_or_ties_on_ghz_cut_init() {
        // The paper's headline Table III example: greedy cut init is
        // optimal on ghz (path graph) while random/max-cut are not
        // guaranteed to be.
        let row = &table_rows(&[benchmarks::ghz_state_n23()], table3_plan)[0];
        let ours = row.cells[2].1;
        assert_eq!(ours, row.alpha as u64);
        assert!(row.cells[0].1 >= ours);
        assert!(row.cells[1].1 >= ours);
    }

    #[test]
    fn run_batch_sums_match_sequential_runs() {
        let group = ecmas_circuit::random::test_group(10, 6, 2, 3, 42);
        let chip = Chip::min_viable(CodeModel::LatticeSurgery, 10, 3).unwrap();
        let (batch_cycles, batch_secs) = run_batch(&Ecmas::default(), &group, &chip);
        let sequential: u64 = group
            .iter()
            .map(|c| Ecmas::default().compile_outcome(c, &chip).unwrap().encoded.cycles())
            .sum();
        assert_eq!(batch_cycles, sequential, "batch must be bit-identical to sequential");
        assert!(batch_secs > 0.0);
        assert_eq!(baseline_for(CodeModel::DoubleDefect).name(), "autobraid");
        assert_eq!(baseline_for(CodeModel::LatticeSurgery).name(), "edpci");
    }

    #[test]
    fn parallel_table_rows_match_the_sequential_rows() {
        let suite = vec![benchmarks::ghz(8), benchmarks::bv_n10(), benchmarks::ising_n10()];
        // Table I, and one ablation plan as a spot check of the others.
        for plan in [table1_plan, table5_plan] {
            let rows = table_rows(&suite, plan);
            assert_eq!(rows.len(), suite.len());
            for (row, circuit) in rows.iter().zip(&suite) {
                assert_eq!(row.name, circuit.name());
                let cells = plan(circuit);
                assert_eq!(row.cells.len(), cells.len());
                for ((label, cycles), cell) in row.cells.iter().zip(&cells) {
                    let alone = cell.compiler.compile_outcome(circuit, &cell.chip).unwrap();
                    assert_eq!(*label, cell.label);
                    assert_eq!(*cycles, alone.encoded.cycles(), "{}: {label}", row.name);
                }
            }
        }
    }

    #[test]
    fn fig11_point_runs_small_sample() {
        let (base, ours) = fig11_point(CodeModel::LatticeSurgery, 3, 3);
        assert!(base >= 50.0, "cycles at least depth");
        assert!(ours >= 50.0);
        assert!(ours <= base + 1e-9, "ecmas should not lose on average");
    }

    #[test]
    fn fig12_point_reports_paper_x_axis() {
        let p = fig12_point(CodeModel::DoubleDefect, 4, 1, 2);
        assert!((p.qubits_per_d2 - 3025.0).abs() < 1e-9);
        assert!(p.baseline_cycles > 0.0 && p.ours_cycles > 0.0);
    }
}
