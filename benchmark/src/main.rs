//! Benchmark of the Ecmas compiler and its `ecmasd` protocol engine.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper_suite|daemon_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! The command runs the workload in `PROCESSES` child processes, one
//! after another, each measuring for S/`PROCESSES` seconds, and prints
//! the median over them as one JSON object on the last line of stdout;
//! `paper_suite`'s timing metrics instead are means over the passes of
//! all of them.
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! each child records layer spans, writes them to
//! `.bench_trace/<workload>-seed<N>-<child>.json`, and the command
//! prints the per-layer metrics. Any failed check, or children whose
//! per-compile results differ, makes `correct` false and the exit code 1. See `README.md` beside this file.

mod daemon_mix;
mod paper_suite;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::os::unix::process::CommandExt;
use std::process::{Command, ExitCode};
use std::time::Instant;

use ecmas_serve::json::{self, Value};

use paper_suite::RowTimes;
use trace::Tracer;

/// Child processes per run. Each is a fresh address space and heap, so
/// the median over them does not inherit one process's layout luck.
/// Three leave each a third of the run: two to four `daemon_mix` passes
/// of 3000 jobs, where a sixth held only one and sat idle for the rest.
const PROCESSES: usize = 3;

/// What a workload is asked to do.
pub struct Run {
    /// Workload seed; `daemon_mix` draws its inputs from it.
    pub seed: u64,
    /// Seconds of timed passes: whole passes, as many as fit.
    pub seconds: f64,
    /// Passes to run however short `seconds` is.
    pub min_passes: usize,
}

impl Run {
    /// Whether to start another pass, `done` passes after `timed`: yes
    /// until `min_passes` ran, then while a pass of the mean length so
    /// far still ends within `seconds`.
    pub fn another_pass(&self, done: usize, timed: Instant) -> bool {
        let elapsed = timed.elapsed().as_secs_f64();
        done < self.min_passes.max(1) || elapsed + elapsed / done as f64 <= self.seconds
    }
}

/// Set-ups per process: `setup_s` is the median of their times.
const SETUPS: usize = 5;

/// Runs a workload's set-up (input generation, chips, daemon, warm-up)
/// `SETUPS` times and returns the last result with the median time in
/// seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS > 0"), stats::median(&times).expect("SETUPS > 0"))
}

/// FNV-1a over the bytes of `words`: a digest of a run's per-compile
/// results, which the parent requires to be equal in every child.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// One reported metric; its unit is in [`E2E`] or [`LAYERS`].
#[derive(Clone, Debug)]
pub struct Metric {
    name: String,
    value: f64,
    /// Deterministic for a seed: must repeat exactly in every process.
    exact: bool,
}

impl Metric {
    /// A measured metric (a time, rate or size).
    pub fn measured(name: &str, value: f64) -> Self {
        Metric { name: name.to_string(), value, exact: false }
    }

    /// A count or other value that must repeat exactly for a seed.
    pub fn exact(name: &str, value: f64) -> Self {
        Metric { name: name.to_string(), value, exact: true }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Median seconds of the work before the first timed operation.
    pub setup_s: f64,
    /// Operations attempted (compiles, jobs, direct rechecks).
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// [`digest`] of every compile's or job's result in the first pass.
    pub digest: u64,
    /// `paper_suite`: its timed passes summed row by row, which the
    /// parent pools over its children.
    pub row_times: Option<RowTimes>,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(message);
        }
    }

    /// Records a metric; the mode's table picks the ones to print.
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Every exact metric, by name, for determinism checks.
    pub fn exact_values(&self) -> Vec<(String, f64)> {
        let mut v: Vec<_> =
            self.metrics.iter().filter(|m| m.exact).map(|m| (m.name.clone(), m.value)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

/// Workloads the command runs, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["paper_suite", "daemon_mix"];

/// End-to-end metrics and their units: every workload reports each of
/// them with `--trace 0`.
const E2E: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("compiles_per_s", "1/s"),
    ("compile_ms_geomean", "ms"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("cycles_geomean", "cycles"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, reported with `--trace 1`; a
/// layer a workload does not exercise reports 0.
const LAYERS: [(&str, &str); 26] = [
    ("circuit.parse_ms", "ms"),
    ("core.profile_ms", "ms"),
    ("partition.map_ms", "ms"),
    ("partition.placement_restarts", "count"),
    ("core.schedule_ms", "ms"),
    ("core.bw_candidate_runs", "count"),
    ("route.cells_expanded", "count"),
    ("route.recolor_cells", "count"),
    ("route.failed_searches", "count"),
    ("route.cache_hits", "count"),
    ("core.validate_ms", "ms"),
    ("daemon.submit_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("cache.hit_frac", "frac"),
    ("cache.hit_service_ms_p50", "ms"),
    ("cache.miss_service_ms_p50", "ms"),
    ("analyze.service_ms_p50", "ms"),
    ("reported.profile_ms", "ms"),
    ("reported.map_ms", "ms"),
    ("reported.schedule_ms", "ms"),
    ("trace.remainder_ms", "ms"),
    ("trace.coverage_frac", "frac"),
    ("trace.compiles_per_s", "1/s"),
    ("trace.setup_s", "s"),
    ("trace.peak_rss_mb", "MB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `Some(i)`: this process is child `i` and runs the workload itself.
    child: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, child: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--child" => args.child = Some(value()?.parse().map_err(|e| format!("--child: {e}"))?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ecmas-perf: {e}");
            return ExitCode::from(2);
        }
    };
    match args.child {
        Some(index) => child(&args, index),
        None => parent(&args),
    }
}

/// Runs child `index` of the workload and returns its last stdout line.
/// `output` waits for the child to exit.
fn spawn(args: &Args, index: usize, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        // A fixed argv[0]: the heap layout, and so the peak RSS, must
        // not depend on where the checkout lives.
        .arg0("ecmas-perf")
        .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if args.trace { "1" } else { "0" }])
        .args(["--child", &index.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    if line.is_empty() {
        return Err(format!("child exited with {} and no result", output.status));
    }
    Ok(line)
}

/// The metrics a run in this mode reports.
fn reported(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &LAYERS
    } else {
        &E2E
    }
}

/// Runs the workload in `PROCESSES` children, one at a time, and prints
/// the median of each metric over them, or the pooled [`RowTimes`]
/// metrics where the children report row times.
fn parent(args: &Args) -> ExitCode {
    let names = reported(args.trace);
    let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut exact: BTreeMap<&str, bool> = BTreeMap::new();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    // Per child: result digest, operations attempted and failed.
    let mut children: Vec<(String, u64, u64)> = Vec::new();
    let mut row_times: Vec<RowTimes> = Vec::new();
    for i in 0..PROCESSES {
        let line = match spawn(args, i, args.seconds / PROCESSES as f64) {
            Ok(line) => line,
            Err(e) => {
                eprintln!("ecmas-perf: {}: child {i}: {e}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        let Ok(v) = json::parse(&line) else {
            eprintln!("ecmas-perf: child {i} printed no JSON: {line}");
            return ExitCode::FAILURE;
        };
        correct &= v.get("correct").and_then(Value::as_bool) == Some(true);
        let count = |key| v.get(key).and_then(Value::as_u64).unwrap_or(0);
        let digest = v.get("digest").and_then(Value::as_str).unwrap_or("").to_string();
        children.push((digest, count("attempted"), count("failed")));
        attempted += count("attempted");
        failed += count("failed");
        if let Some(t) = v.get("row_times") {
            let column = |key| -> Vec<f64> {
                let values = t.get(key).and_then(Value::as_array).unwrap_or(&[]);
                values.iter().map(|x| x.as_f64().unwrap_or(0.0)).collect()
            };
            row_times.push(RowTimes {
                passes: t.get("passes").and_then(Value::as_u64).unwrap_or(0),
                wall_s: t.get("wall_s").and_then(Value::as_f64).unwrap_or(0.0),
                compile_ms: column("compile_ms"),
                validated_ms: column("validated_ms"),
            });
        }
        for &(name, _) in names {
            let m = v.get("metrics").and_then(|m| m.get(name));
            let Some(value) = m.and_then(|m| m.get("value")).and_then(Value::as_f64) else {
                eprintln!("ecmas-perf: child {i} did not report {name}");
                return ExitCode::FAILURE;
            };
            values.entry(name).or_default().push(value);
            let is_exact = m.and_then(|m| m.get("exact")).and_then(Value::as_bool) == Some(true);
            exact.insert(name, is_exact);
        }
    }
    // Every child ran the same seed: each compile's result, and so every
    // exact metric, must agree with child 0's. A child that disagrees
    // counts every operation it ran as failed.
    for (i, (digest, child_attempted, child_failed)) in children.iter().enumerate().skip(1) {
        let differ: Vec<&str> = values
            .iter()
            .filter(|(name, vs)| exact[*name] && vs[i].to_bits() != vs[0].to_bits())
            .map(|(name, _)| *name)
            .collect();
        if *digest != children[0].0 || !differ.is_empty() {
            eprintln!(
                "ecmas-perf: child {i} disagrees with child 0: digest {digest} vs {}, \
                 metrics {differ:?}",
                children[0].0
            );
            failed += child_attempted - child_failed;
            correct = false;
        }
    }
    // Row times pool over all children: means over every pass of the
    // run, not the median of six shorter runs' means. A traced run
    // reports the rate as its traced twin.
    let twin = |name: String| if args.trace { format!("trace.{name}") } else { name };
    let pooled: BTreeMap<String, f64> = RowTimes::pool(&row_times)
        .map_or_else(BTreeMap::new, |t| {
            t.metrics().into_iter().map(|m| (twin(m.name), m.value)).collect()
        });
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let v = if name == "ok_frac" {
                (attempted - failed) as f64 / attempted.max(1) as f64
            } else if let Some(&v) = pooled.get(name) {
                v
            } else {
                stats::median(&values[name]).unwrap_or(0.0)
            };
            let each: Vec<String> = values[name].iter().map(|x| format!("{x:.4}")).collect();
            eprintln!("{name:>30} {v:>14.4} {unit:<6} [{}]", each.join(" "));
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(v))
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the workload in this process and prints its metrics as JSON.
fn child(args: &Args, index: usize) -> ExitCode {
    let mut tracer = Tracer::new(args.trace);
    let run = Run { seed: args.seed, seconds: args.seconds, min_passes: 1 };
    let mut out = match args.workload.as_str() {
        "paper_suite" => paper_suite::run(&run, &mut tracer),
        _ => daemon_mix::run(&run, &mut tracer),
    };
    let ok_frac = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
    let rss = peak_rss_mb();
    let (setup_name, rss_name) = if args.trace {
        ("trace.setup_s", "trace.peak_rss_mb")
    } else {
        ("setup_s", "peak_rss_mb")
    };
    out.push(Metric::measured(setup_name, out.setup_s));
    out.push(Metric::measured("ok_frac", ok_frac));
    out.push(Metric::measured(rss_name, rss));
    for e in &out.errors {
        eprintln!("ecmas-perf: {}: {e}", args.workload);
    }
    if args.trace {
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-seed{}-{index}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.to_chrome_json(&args.workload)));
        if let Err(e) = written {
            out.fail(format!("writing {}: {e}", path.display()));
        }
    }
    let correct = out.failed == 0;
    let metrics: BTreeMap<&str, &Metric> =
        out.metrics.iter().map(|m| (m.name.as_str(), m)).collect();
    // A layer this workload does not exercise reports 0.
    let body: Vec<String> = reported(args.trace)
        .iter()
        .map(|&(name, _)| {
            let (v, exact) = metrics.get(name).map_or((0.0, true), |m| (m.value, m.exact));
            format!("\"{name}\":{{\"value\":{},\"exact\":{exact}}}", num(v))
        })
        .collect();
    let rows = out.row_times.as_ref().map_or(String::new(), |t| {
        let list = |v: &[f64]| v.iter().map(|&x| num(x)).collect::<Vec<_>>().join(",");
        format!(
            ",\"row_times\":{{\"passes\":{},\"wall_s\":{},\"compile_ms\":[{}],\"validated_ms\":[{}]}}",
            t.passes,
            num(t.wall_s),
            list(&t.compile_ms),
            list(&t.validated_ms)
        )
    });
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"digest\":\"{:016x}\",\
         \"metrics\":{{{}}}{rows}}}",
        out.attempted,
        out.failed,
        out.digest,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A finite JSON number with every digit the value has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `VmHWM` of this process in MB (0 when `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists the same metrics,
    /// in the same order and units, as the tables the command prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", &E2E[..]), ("per_layer", &LAYERS[..])] {
            let listed: Vec<(&str, &str)> = spec
                .get(key)
                .and_then(Value::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Value::as_str).expect(f);
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, table, "{key}");
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
