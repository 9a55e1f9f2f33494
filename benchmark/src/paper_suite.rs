//! The `paper_suite` workload: the paper's Table I circuits, compiled
//! from QASM text on one thread with no service and no cache.
//!
//! A compile is `qasm::parse` → `Ecmas::session` → `Profiled::map` →
//! `Mapped::schedule`. `validate_encoded` runs after the compile, outside
//! its timing, and its result gates correctness.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::{benchmarks, qasm, Circuit};
use ecmas_core::session::{BandwidthDecision, CompileReport};
use ecmas_core::{validate_encoded, Ecmas, EncodedCircuit};

use crate::stats::{geomean, quantile};
use crate::trace::Tracer;
use crate::{Metric, Outcome, Run};

/// One compile of the workload: a circuit's QASM text on a chip.
struct Row {
    label: String,
    qasm: String,
    chip: Chip,
    /// Critical-path depth α of the circuit, the lower bound on Δ.
    depth: usize,
}

/// The paper's Table I suite × {dd, ls} × {min, 4×, congested}: 132 rows.
fn paper_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for circuit in benchmarks::table1_suite() {
        let text = qasm::to_qasm(&circuit);
        for model in [CodeModel::DoubleDefect, CodeModel::LatticeSurgery] {
            let n = circuit.qubits();
            let chips = [
                ("min", Chip::min_viable(model, n, 3)),
                ("4x", Chip::four_x(model, n, 3)),
                ("congested", Chip::congested(model, n, 3)),
            ];
            for (kind, chip) in chips {
                rows.push(Row {
                    label: format!("{}/{}/{kind}", circuit.name(), model_label(model)),
                    qasm: text.clone(),
                    chip: chip.expect("Table I circuits fit their chips"),
                    depth: circuit.depth(),
                });
            }
        }
    }
    rows
}

fn model_label(model: CodeModel) -> &'static str {
    match model {
        CodeModel::DoubleDefect => "dd",
        _ => "ls",
    }
}

/// Per-row results of one compile, checked across passes.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    cycles: u64,
    events: usize,
}

/// Everything one pass measures.
#[derive(Default)]
struct Pass {
    /// Wall seconds of the whole pass: every compile, its validation and
    /// the checks.
    wall_s: f64,
    /// Per row: compile wall ms.
    compile_ms: Vec<f64>,
    /// Per row: compile + validate wall ms.
    validated_ms: Vec<f64>,
    counts: BTreeMap<&'static str, f64>,
    /// The reports' own profile, map and schedule times, summed.
    reported: [f64; 3],
}

/// A process's timed passes, summed row by row; the parent pools them
/// over its processes with [`RowTimes::pool`] and reports the run's
/// means.
///
/// The host runs in two states, one about 1.6× slower than the other,
/// and the share of time in each drifts from run to run. A row's median
/// jumps from one state to the other as that share crosses one half; a
/// mean over the whole run moves only in proportion to it (see
/// `README.md`).
#[derive(Clone, Debug, PartialEq)]
pub struct RowTimes {
    /// Passes summed.
    pub passes: u64,
    /// Wall seconds of those passes: compiles, validation and checks.
    pub wall_s: f64,
    /// Per row: summed compile ms.
    pub compile_ms: Vec<f64>,
    /// Per row: summed compile + validate ms.
    pub validated_ms: Vec<f64>,
}

impl RowTimes {
    /// `compiles_per_s` (rows compiled over the timed wall time),
    /// `compile_ms_geomean` (the geometric mean over rows of each row's
    /// mean compile time) and `latency_ms_p50`/`_p90` (quantiles over
    /// the rows' mean validated-compile times: the rows are a fixed set,
    /// not a sample, so no tail rule applies).
    pub fn metrics(&self) -> [Metric; 4] {
        let passes = self.passes as f64;
        let mean = |sums: &[f64]| -> Vec<f64> { sums.iter().map(|s| s / passes).collect() };
        let validated = mean(&self.validated_ms);
        let compiles = self.compile_ms.len() as f64 * passes;
        [
            Metric::measured("compiles_per_s", compiles / self.wall_s),
            Metric::measured("compile_ms_geomean", geomean(&mean(&self.compile_ms)).unwrap_or(0.0)),
            Metric::measured("latency_ms_p50", quantile(&validated, 0.5).unwrap_or(0.0)),
            Metric::measured("latency_ms_p90", quantile(&validated, 0.9).unwrap_or(0.0)),
        ]
    }

    /// The sums over the processes of a run; `None` when there are none
    /// or their row counts differ.
    pub fn pool(all: &[RowTimes]) -> Option<RowTimes> {
        let first = all.first()?;
        let n = first.compile_ms.len();
        if all.iter().any(|t| t.compile_ms.len() != n || t.validated_ms.len() != n) {
            return None;
        }
        let sum_of = |pick: fn(&RowTimes) -> &Vec<f64>| -> Vec<f64> {
            (0..n).map(|i| all.iter().map(|t| pick(t)[i]).sum()).collect()
        };
        Some(RowTimes {
            passes: all.iter().map(|t| t.passes).sum(),
            wall_s: all.iter().map(|t| t.wall_s).sum(),
            compile_ms: sum_of(|t| &t.compile_ms),
            validated_ms: sum_of(|t| &t.validated_ms),
        })
    }
}

/// Runs one compile of `row`, recording layer spans under `request`.
/// Returns the parsed circuit, the schedule and the report.
fn compile(
    ecmas: &Ecmas,
    row: &Row,
    tracer: &mut Tracer,
    request: u64,
) -> Result<(Circuit, EncodedCircuit, CompileReport), String> {
    let span = tracer.begin("circuit.parse", request);
    let circuit = qasm::parse(black_box(&row.qasm)).map_err(|e| format!("parse: {e}"))?;
    tracer.end(span);
    let span = tracer.begin("core.profile", request);
    let profiled = ecmas.session(&circuit, &row.chip).map_err(|e| format!("session: {e}"))?;
    tracer.end(span);
    let span = tracer.begin("partition.map", request);
    let mapped = profiled.map().map_err(|e| format!("map: {e}"))?;
    tracer.end(span);
    let span = tracer.begin("core.schedule", request);
    let scheduled = mapped.schedule().map_err(|e| format!("schedule: {e}"))?;
    tracer.end(span);
    let outcome = scheduled.into_outcome();
    Ok((circuit, outcome.encoded, outcome.report))
}

fn add_counts(counts: &mut BTreeMap<&'static str, f64>, report: &CompileReport) {
    let mut add = |k: &'static str, v: u64| *counts.entry(k).or_insert(0.0) += v as f64;
    add("partition.placement_restarts", report.placement_restarts as u64);
    let second_run =
        matches!(report.bandwidth_adjust, BandwidthDecision::Adopted | BandwidthDecision::Rejected);
    add("core.bw_candidate_runs", u64::from(second_run));
    add("route.cells_expanded", report.router.cells_expanded);
    add("route.recolor_cells", report.router.recolor_cells);
    add("route.failed_searches", report.router.failed_searches);
    add("route.cache_hits", report.router.cache_hits);
}

/// Builds the workload's inputs and warms up (the set-up, repeated for
/// its median), then runs whole passes for `run.seconds`.
pub fn run(run: &Run, tracer: &mut Tracer) -> Outcome {
    let ((rows, warm_up), setup_s) = crate::timed_setup(|| {
        let rows = paper_rows();
        // Untimed warm-up, counted in set-up: the smallest row once.
        let smallest = rows.iter().min_by_key(|row| row.qasm.len()).expect("rows");
        let warm_up = compile(&Ecmas::default(), smallest, &mut Tracer::new(false), 0)
            .err()
            .map(|e| format!("warm-up {}: {e}", smallest.label));
        (rows, warm_up)
    });
    let mut out = run_rows(&rows, run, tracer);
    out.setup_s = setup_s;
    if let Some(e) = warm_up {
        out.fail(e);
    }
    out
}

fn run_rows(rows: &[Row], run: &Run, tracer: &mut Tracer) -> Outcome {
    let ecmas = Ecmas::default();
    let mut out = Outcome::default();
    let timed = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut reference: Vec<Option<Fingerprint>> = vec![None; rows.len()];
    while run.another_pass(passes.len(), timed) {
        let pass_start = Instant::now();
        let mut pass = Pass {
            compile_ms: vec![0.0; rows.len()],
            validated_ms: vec![0.0; rows.len()],
            ..Pass::default()
        };
        for (i, row) in rows.iter().enumerate() {
            let request = (passes.len() * rows.len() + i) as u64;
            out.attempted += 1;
            let t0 = Instant::now();
            let span = tracer.begin("compile", request);
            let result = compile(&ecmas, row, tracer, request);
            tracer.end(span);
            let compiled = t0.elapsed();
            let (circuit, encoded, report) = match result {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("{}: {e}", row.label));
                    continue;
                }
            };
            let span = tracer.begin("core.validate", request);
            let valid = validate_encoded(&circuit, &encoded);
            tracer.end(span);
            pass.compile_ms[i] = compiled.as_secs_f64() * 1e3;
            pass.validated_ms[i] = t0.elapsed().as_secs_f64() * 1e3;
            let print = Fingerprint { cycles: encoded.cycles(), events: encoded.events().len() };
            if let Err(e) = valid {
                out.fail(format!("{}: invalid schedule: {e}", row.label));
            } else if (print.cycles as usize) < row.depth {
                out.fail(format!("{}: Δ={} below depth {}", row.label, print.cycles, row.depth));
            } else if *reference[i].get_or_insert(print) != print {
                out.fail(format!("{}: schedule changed between passes", row.label));
            }
            if passes.is_empty() {
                add_counts(&mut pass.counts, &report);
            }
            pass.reported[0] += report.timings.profile.as_secs_f64() * 1e3;
            pass.reported[1] += report.timings.map.as_secs_f64() * 1e3;
            pass.reported[2] += report.timings.schedule.as_secs_f64() * 1e3;
        }
        pass.wall_s = pass_start.elapsed().as_secs_f64();
        passes.push(pass);
    }
    out.digest = crate::digest(
        reference.iter().flat_map(|r| r.map_or([u64::MAX; 2], |f| [f.cycles, f.events as u64])),
    );
    summarize(rows, &passes, &reference, tracer, &mut out);
    out
}

fn summarize(
    rows: &[Row],
    passes: &[Pass],
    reference: &[Option<Fingerprint>],
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let row_sum = |pick: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        (0..rows.len()).map(|i| passes.iter().map(|p| pick(p)[i]).sum()).collect()
    };
    let times = RowTimes {
        passes: passes.len() as u64,
        wall_s: passes.iter().map(|p| p.wall_s).sum(),
        compile_ms: row_sum(|p| &p.compile_ms),
        validated_ms: row_sum(|p| &p.validated_ms),
    };
    let [compiles_per_s, ..] = times.metrics().map(|m| m.value);
    let cycles: Vec<f64> = reference.iter().flatten().map(|f| f.cycles as f64).collect();

    for metric in times.metrics() {
        out.push(metric);
    }
    out.row_times = Some(times);
    out.push(Metric::exact("cycles_geomean", geomean(&cycles).unwrap_or(0.0)));

    for (name, value) in &passes[0].counts {
        out.push(Metric::exact(name, *value));
    }
    // Per-pass means, comparable with the span self times below.
    let per_pass_mean =
        |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).sum::<f64>() / passes.len() as f64;
    for (k, name) in
        ["reported.profile_ms", "reported.map_ms", "reported.schedule_ms"].into_iter().enumerate()
    {
        out.push(Metric::measured(name, per_pass_mean(&|p| p.reported[k])));
    }
    if tracer.enabled() {
        // Layer self time per pass, from the spans of every pass.
        let selfs = tracer.self_ms();
        let per_pass = |name: &str| selfs.get(name).copied().unwrap_or(0.0) / passes.len() as f64;
        for (span, name) in [
            ("circuit.parse", "circuit.parse_ms"),
            ("core.profile", "core.profile_ms"),
            ("partition.map", "partition.map_ms"),
            ("core.schedule", "core.schedule_ms"),
            ("core.validate", "core.validate_ms"),
            ("compile", "trace.remainder_ms"),
        ] {
            out.push(Metric::measured(name, per_pass(span)));
        }
        let layers: f64 = ["circuit.parse", "core.profile", "partition.map", "core.schedule"]
            .iter()
            .map(|n| per_pass(n))
            .sum();
        out.push(Metric::measured("trace.coverage_frac", layers / (layers + per_pass("compile"))));
        out.push(Metric::measured("trace.compiles_per_s", compiles_per_s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_runs_repeat_every_count() {
        // A cheap slice of the workload: its first six Table I rows.
        let quick = || {
            let rows: Vec<Row> = paper_rows().into_iter().take(6).collect();
            let run = Run { seed: 0, seconds: 0.0, min_passes: 2 };
            run_rows(&rows, &run, &mut Tracer::new(false))
        };
        let a = quick();
        let b = quick();
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert_eq!((a.attempted, a.failed), (12, 0));
        assert_eq!(a.exact_values(), b.exact_values());
        assert_eq!(a.digest, b.digest);
        assert!(a.exact_values().iter().any(|(n, _)| n == "route.cells_expanded"));
        let times = a.row_times.expect("paper_suite reports row times");
        assert_eq!((times.passes, times.compile_ms.len()), (2, 6));
        assert!(times.compile_ms.iter().zip(&times.validated_ms).all(|(c, v)| 0.0 < *c && c <= v));
    }

    #[test]
    fn pooled_row_times_are_means_over_every_pass() {
        let a = RowTimes {
            passes: 1,
            wall_s: 1.0,
            compile_ms: vec![2.0, 9.0],
            validated_ms: vec![3.0, 10.0],
        };
        let b = RowTimes {
            passes: 3,
            wall_s: 3.0,
            compile_ms: vec![6.0, 3.0],
            validated_ms: vec![9.0, 6.0],
        };
        let pooled = RowTimes::pool(&[a.clone(), b]).unwrap();
        assert_eq!((pooled.passes, pooled.wall_s), (4, 4.0));
        // Row means 2 and 3 ms; validated means 3 and 4 ms.
        let [rate, geo, p50, p90] = pooled.metrics().map(|m| m.value);
        assert_eq!(rate, 2.0);
        assert!((geo - 6f64.sqrt()).abs() < 1e-12);
        assert_eq!(p50, 3.5);
        assert!((p90 - 3.9).abs() < 1e-12);
        let short =
            RowTimes { passes: 1, wall_s: 1.0, compile_ms: vec![1.0], validated_ms: vec![1.0] };
        assert_eq!(RowTimes::pool(&[a, short]), None);
        assert_eq!(RowTimes::pool(&[]), None);
    }
}
