//! The `daemon_mix` workload: an in-process `ecmasd` protocol engine
//! (`Daemon`, one worker, the daemon's default 64 MiB compile cache,
//! double-defect min-viable chips) driven through `Daemon::handle_line`
//! by a closed loop that keeps two requests outstanding.
//!
//! The job stream is a seeded `StressWorkload` (widths 8–24, depths
//! 40–240, bursts of one, 50% Zipf repeats); every 4th job asks for the
//! in-service analyzer. Each pass replays the same stream on a fresh
//! daemon, so every pass does identical work and the cache starts cold.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::random::{layered, StressJob, StressSpec, StressWorkload};
use ecmas_circuit::Circuit;
use ecmas_core::{validate_encoded, Ecmas};
use ecmas_serve::daemon::{Daemon, DaemonOptions};
use ecmas_serve::json::{self, Value};
use ecmas_serve::ServiceConfig;

use crate::stats::{geomean, geomean_of_row_means, percentile};
use crate::trace::Tracer;
use crate::{Metric, Outcome, Run};

/// Jobs per pass. Fewer jobs would fit more passes into a process's
/// share of a run, but with 1000 the seed moved peak RSS by 6% and
/// `cycles_geomean` by 5% (interquartile, five seeds), against 2–3%
/// with 3000.
pub const JOBS: usize = 3000;
/// Requests the closed loop keeps outstanding.
const OUTSTANDING: usize = 2;
/// Distinct jobs recompiled directly after the timed phase.
const RECHECKS: usize = 12;

fn spec(jobs: usize, seed: u64) -> StressSpec {
    StressSpec {
        jobs,
        min_qubits: 8,
        max_qubits: 24,
        min_depth: 40,
        max_depth: 240,
        mean_burst: 1,
        dup_percent: 50,
        defect_percent: 0,
        seed,
    }
}

/// The job seed as sent on the wire. The `ecmasd` protocol carries
/// numbers as `f64`, so a seed must fit in 53 bits to reach the daemon
/// unchanged; a wider one would make the daemon build another circuit
/// than the one the client meant.
fn wire_seed(seed: u64) -> u64 {
    seed & ((1 << 53) - 1)
}

/// The circuit the daemon builds for job `job`.
fn job_circuit(job: &StressJob) -> Circuit {
    layered(job.qubits, job.depth, job.parallelism, wire_seed(job.seed))
}

/// One submit line per job, `"analyze":true` on every 4th.
fn submit_lines(workload: &StressWorkload) -> Vec<String> {
    workload
        .jobs()
        .iter()
        .enumerate()
        .map(|(i, job)| {
            format!(
                "{{\"op\":\"submit\",\"tag\":\"j{i}\",\"random\":{{\"qubits\":{},\"depth\":{},\
                 \"parallelism\":{},\"seed\":{}}}{}}}",
                job.qubits,
                job.depth,
                job.parallelism,
                wire_seed(job.seed),
                if i % 4 == 3 { ",\"analyze\":true" } else { "" },
            )
        })
        .collect()
}

fn daemon() -> Daemon {
    Daemon::new(DaemonOptions {
        service: ServiceConfig { workers: 1, ..DaemonOptions::default().service },
        ..DaemonOptions::default()
    })
}

/// What a job's result line says.
#[derive(Clone, Debug, PartialEq)]
struct JobResult {
    cycles: u64,
    events: u64,
    /// `cache.source` of the report.
    source: String,
    analyze: bool,
    errors: usize,
    /// Program-reported `timings_ms` (profile, map, schedule, total).
    timings: [f64; 4],
    counts: [u64; 6],
}

/// Outside timestamps of one job.
struct Stamps {
    submit_start: Instant,
    submit_end: Instant,
    result_end: Instant,
}

fn parse_result(line: &str) -> Result<JobResult, String> {
    let v = json::parse(line).map_err(|e| format!("bad result line: {e}"))?;
    let status = v.get("status").and_then(Value::as_str);
    if v.get("op").and_then(Value::as_str) != Some("result") || status != Some("done") {
        return Err(format!("job not done: {line}"));
    }
    let report = v.get("report").ok_or("result without report")?;
    let num = |obj: &Value, key: &str| obj.get(key).and_then(Value::as_f64).unwrap_or(-1.0);
    let timings = report.get("timings_ms").ok_or("no timings_ms")?;
    let router = report.get("router").ok_or("no router")?;
    let diagnostics = report.get("diagnostics").and_then(Value::as_array).unwrap_or(&[]);
    let bw = report.get("bandwidth_adjust").and_then(Value::as_str).unwrap_or("");
    Ok(JobResult {
        cycles: num(report, "cycles") as u64,
        events: num(report, "events") as u64,
        source: report
            .get("cache")
            .and_then(|c| c.get("source"))
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        analyze: false,
        errors: diagnostics
            .iter()
            .filter(|d| d.get("severity").and_then(Value::as_str) == Some("error"))
            .count(),
        timings: ["profile", "map", "schedule", "total"].map(|k| num(timings, k)),
        counts: [
            num(report, "placement_restarts") as u64,
            u64::from(bw == "adopted" || bw == "rejected"),
            num(router, "cells_expanded") as u64,
            num(router, "recolor_cells") as u64,
            num(router, "failed_searches") as u64,
            num(router, "cache_hits") as u64,
        ],
    })
}

/// One closed-loop pass over `lines` on a fresh daemon.
fn pass(
    daemon: &mut Daemon,
    lines: &[String],
    tracer: &mut Tracer,
    first_request: u64,
    out: &mut Outcome,
) -> (Vec<Option<JobResult>>, Vec<Stamps>) {
    let n = lines.len();
    let mut stamps: Vec<Stamps> = Vec::with_capacity(n);
    let mut results = vec![None; n];
    let submit = |daemon: &mut Daemon, tracer: &mut Tracer, k: usize, stamps: &mut Vec<Stamps>| {
        let request = first_request + k as u64;
        let submit_start = Instant::now();
        let span = tracer.begin("daemon.submit", request);
        let response = daemon.handle_line(&lines[k]);
        tracer.end(span);
        let submit_end = Instant::now();
        stamps.push(Stamps { submit_start, submit_end, result_end: submit_end });
        response
    };
    for k in 0..OUTSTANDING.min(n) {
        let _ = submit(daemon, tracer, k, &mut stamps);
    }
    for k in 0..n {
        out.attempted += 1;
        let span = tracer.begin("daemon.result", first_request + k as u64);
        let response = daemon.handle_line(&format!("{{\"op\":\"result\",\"job\":{}}}", k + 1));
        tracer.end(span);
        stamps[k].result_end = Instant::now();
        match response.first().map(|l| parse_result(l)) {
            Some(Ok(mut r)) => {
                r.analyze = k % 4 == 3;
                if r.analyze && r.errors > 0 {
                    out.fail(format!("job {k}: analyzer reported {} errors", r.errors));
                }
                results[k] = Some(r);
            }
            Some(Err(e)) => out.fail(format!("job {k}: {e}")),
            None => out.fail(format!("job {k}: no result line")),
        }
        if k + OUTSTANDING < n {
            let response = submit(daemon, tracer, k + OUTSTANDING, &mut stamps);
            let ok = response.first().is_some_and(|l| l.contains("\"op\":\"submitted\""));
            if !ok {
                out.fail(format!("job {}: submit refused: {response:?}", k + OUTSTANDING));
            }
        }
    }
    (results, stamps)
}

/// Builds the stream and daemon, warms up, runs passes for
/// `run.seconds`, then recompiles a sample of distinct jobs directly.
pub fn run(run: &Run, tracer: &mut Tracer) -> Outcome {
    run_jobs(JOBS, run, tracer)
}

fn run_jobs(jobs: usize, run: &Run, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let ((workload, lines, first), setup_s) = crate::timed_setup(|| {
        let workload = StressWorkload::new(&spec(jobs, run.seed));
        let lines = submit_lines(&workload);
        // Warm-up on a throwaway daemon with a fixed stream, so set-up
        // time does not vary with the seed's job mix.
        let warm = submit_lines(&StressWorkload::new(&spec(16, 0)));
        let _ = pass(&mut daemon(), &warm, &mut Tracer::new(false), 0, &mut Outcome::default());
        (workload, lines, daemon())
    });
    out.setup_s = setup_s;
    let mut next = Some(first);

    let timed = Instant::now();
    let mut reference: Option<Vec<Option<JobResult>>> = None;
    let mut latency = Vec::new();
    let mut submit_ms = Vec::new();
    let mut queue_ms = Vec::new();
    let mut service = Vec::new();
    let mut wall_s = 0.0;
    let mut passes = 0usize;
    let mut reported_rows: Vec<Vec<f64>> = vec![Vec::new(); jobs];
    // The reports' own profile, map and schedule times, summed.
    let mut reported = [0.0; 3];
    while run.another_pass(passes, timed) {
        let mut d = next.take().unwrap_or_else(daemon);
        let start = Instant::now();
        let (results, stamps) = pass(&mut d, &lines, tracer, (passes * jobs) as u64, &mut out);
        wall_s += start.elapsed().as_secs_f64();
        drop(d);
        for (k, s) in stamps.iter().enumerate() {
            latency.push(ms(s.result_end - s.submit_start));
            submit_ms.push(ms(s.submit_end - s.submit_start));
            // One FIFO worker: job k starts when job k-1 finishes, which
            // the loop sees as result k-1 returning.
            let begin =
                if k == 0 { s.submit_end } else { s.submit_end.max(stamps[k - 1].result_end) };
            queue_ms.push(ms(begin - s.submit_end));
            tracer.record("serve.queue_wait", (passes * jobs + k) as u64, s.submit_end, begin);
            tracer.record("serve.service", (passes * jobs + k) as u64, begin, s.result_end);
            if let Some(r) = &results[k] {
                service.push((ms(s.result_end - begin), r.source.clone(), r.analyze));
                if compiled(r) {
                    reported_rows[k].push(r.timings[3]);
                    for (sum, t) in reported.iter_mut().zip(r.timings) {
                        *sum += t;
                    }
                }
            }
        }
        match &reference {
            None => reference = Some(results),
            Some(r) if !same_schedules(r, &results) => {
                out.fail("daemon results changed between passes".to_string());
            }
            Some(_) => {}
        }
        passes += 1;
    }
    let reference = reference.expect("at least one pass");
    // A pass usually fills a process's share of the run, so results are
    // compared across processes, job by job, through this digest.
    out.digest = crate::digest(reference.iter().flat_map(|r| match r {
        Some(r) => [r.cycles, r.events, source_code(&r.source)],
        None => [u64::MAX; 3],
    }));
    recheck(&workload, &reference, run.seed, tracer, &mut out);

    let done: Vec<&JobResult> = reference.iter().flatten().collect();
    // Over distinct jobs (the ones the service compiled): repeats of the
    // Zipf head would otherwise weigh a few circuits' Δ many times.
    let cycles: Vec<f64> = done.iter().filter(|r| compiled(r)).map(|r| r.cycles as f64).collect();
    let compile_rows: Vec<Vec<f64>> = reported_rows.into_iter().filter(|r| !r.is_empty()).collect();
    // Closed-loop capacity: jobs over the passes' wall time. Means, like
    // the per-job compile times, move in proportion to the share of the
    // run the host spent in its slow state (see `README.md`).
    let compiles_per_s = (passes * jobs) as f64 / wall_s;
    out.push(Metric::measured("compiles_per_s", compiles_per_s));
    out.push(Metric::measured(
        "compile_ms_geomean",
        geomean_of_row_means(&compile_rows).unwrap_or(0.0),
    ));
    out.push(Metric::measured("latency_ms_p50", percentile(&latency, 50.0).unwrap_or(0.0)));
    out.push(Metric::measured("latency_ms_p90", percentile(&latency, 90.0).unwrap_or(0.0)));
    out.push(Metric::exact("cycles_geomean", geomean(&cycles).unwrap_or(0.0)));

    let mut counts = [0u64; 6];
    for r in done.iter().filter(|r| compiled(r)) {
        for (c, v) in counts.iter_mut().zip(r.counts) {
            *c += v;
        }
    }
    let names = [
        "partition.placement_restarts",
        "core.bw_candidate_runs",
        "route.cells_expanded",
        "route.recolor_cells",
        "route.failed_searches",
        "route.cache_hits",
    ];
    for (name, v) in names.into_iter().zip(counts) {
        out.push(Metric::exact(name, v as f64));
    }
    let hits = done.iter().filter(|r| r.source == "hit").count();
    out.push(Metric::exact("cache.hit_frac", hits as f64 / jobs as f64));
    let p50 = |v: &[f64]| percentile(v, 50.0).unwrap_or(0.0);
    let service_where = |keep: &dyn Fn(&str, bool) -> bool| -> Vec<f64> {
        service.iter().filter(|(_, s, a)| keep(s, *a)).map(|(t, _, _)| *t).collect()
    };
    out.push(Metric::measured("daemon.submit_ms_p50", p50(&submit_ms)));
    out.push(Metric::measured("serve.queue_wait_ms_p50", p50(&queue_ms)));
    out.push(Metric::measured("serve.service_ms_p50", p50(&service_where(&|_, _| true))));
    out.push(Metric::measured("cache.hit_service_ms_p50", p50(&service_where(&|s, _| s == "hit"))));
    out.push(Metric::measured(
        "cache.miss_service_ms_p50",
        p50(&service_where(&|s, _| s != "hit")),
    ));
    out.push(Metric::measured(
        "analyze.service_ms_p50",
        p50(&service_where(&|s, a| a && s != "hit")),
    ));
    for (k, name) in
        ["reported.profile_ms", "reported.map_ms", "reported.schedule_ms"].into_iter().enumerate()
    {
        out.push(Metric::measured(name, reported[k] / passes as f64));
    }
    if tracer.enabled() {
        out.push(Metric::measured("trace.compiles_per_s", compiles_per_s));
    }
    out
}

/// splitmix64, for the seeded draw of the jobs to recheck.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A job that ran stages in the service (anything but a full hit).
fn compiled(r: &JobResult) -> bool {
    r.source != "hit" && r.source != "coalesced"
}

/// A number per `cache.source` label, for the digest.
fn source_code(source: &str) -> u64 {
    ["miss", "hit", "coalesced", "profile_reuse", "map_reuse", "disabled"]
        .iter()
        .position(|&s| s == source)
        .map_or(u64::MAX, |i| i as u64)
}

fn same_schedules(a: &[Option<JobResult>], b: &[Option<JobResult>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => {
                (x.cycles, x.events, &x.source) == (y.cycles, y.events, &y.source)
            }
            _ => false,
        })
}

/// Recompiles a seeded sample of distinct jobs directly (same circuit,
/// chip, and schedule mode as the daemon) and checks the daemon's result
/// lines agree on cycles and events and the schedule validates.
fn recheck(
    workload: &StressWorkload,
    results: &[Option<JobResult>],
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let mut firsts: BTreeMap<_, usize> = BTreeMap::new();
    for (i, job) in workload.jobs().iter().enumerate() {
        firsts.entry((job.qubits, job.depth, job.parallelism, job.seed)).or_insert(i);
    }
    let mut distinct: Vec<usize> = firsts.into_values().collect();
    distinct.sort_unstable();
    let mut state = splitmix(seed ^ 0x5EED);
    let mut picked = BTreeSet::new();
    while picked.len() < RECHECKS.min(distinct.len()) {
        state = splitmix(state);
        picked.insert(distinct[(state % distinct.len() as u64) as usize]);
    }
    let ecmas = Ecmas::default();
    for i in picked {
        out.attempted += 1;
        let circuit = job_circuit(&workload.jobs()[i]);
        let chip = Chip::min_viable(CodeModel::DoubleDefect, circuit.qubits(), 3)
            .expect("stress circuits fit their chips");
        let span = tracer.begin("recheck", i as u64);
        let direct = ecmas
            .session(&circuit, &chip)
            .and_then(|p| p.map())
            .and_then(|m| m.schedule_auto())
            .map(|s| s.into_outcome().encoded);
        tracer.end(span);
        let Ok(encoded) = direct else {
            out.fail(format!("recheck job {i}: direct compile failed"));
            continue;
        };
        let Some(r) = &results[i] else { continue };
        if let Err(e) = validate_encoded(&circuit, &encoded) {
            out.fail(format!("recheck job {i}: invalid schedule: {e}"));
        } else if (r.cycles, r.events) != (encoded.cycles(), encoded.events().len() as u64) {
            out.fail(format!(
                "recheck job {i}: daemon Δ={} events={} vs direct Δ={} events={}",
                r.cycles,
                r.events,
                encoded.cycles(),
                encoded.events().len()
            ));
        } else if (r.cycles as usize) < circuit.depth() {
            out.fail(format!("recheck job {i}: Δ below depth"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_runs_repeat_every_count() {
        let quick = || {
            let run = Run { seed: 11, seconds: 0.0, min_passes: 2 };
            run_jobs(60, &run, &mut Tracer::new(false))
        };
        let a = quick();
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert_eq!(a.failed, 0);
        let values = a.exact_values();
        let b = quick();
        assert_eq!(values, b.exact_values());
        assert_eq!(a.digest, b.digest);
        let hit_frac = values.iter().find(|(n, _)| n == "cache.hit_frac").unwrap().1;
        assert!(hit_frac > 0.0 && hit_frac < 1.0, "hit_frac {hit_frac}");
    }

    #[test]
    fn result_lines_parse() {
        let mut d = daemon();
        let lines = submit_lines(&StressWorkload::new(&spec(1, 4)));
        assert!(d.handle_line(&lines[0])[0].contains("submitted"));
        let line = d.handle_line("{\"op\":\"result\",\"job\":1}").remove(0);
        let r = parse_result(&line).unwrap();
        assert!(r.cycles > 0 && r.events > 0 && r.timings[3] >= 0.0);
        assert_eq!(r.source, "miss");
        assert!(parse_result("{\"op\":\"result\",\"status\":\"error\"}").is_err());
    }
}
