//! `ecmasc` — command-line front end: compile OpenQASM 2.0 files to
//! surface-code schedules and report the results.
//!
//! ```sh
//! ecmasc program.qasm [--model dd|ls] [--chip min|4x|congested|sufficient]
//!                     [--defects "1,2;3,0"] [--timeline N] [--json] [--analyze]
//! ecmasc program.qasm --fleet min,4x,congested [--model dd|ls] [--json]
//! ecmasc lint program.qasm [--model dd|ls] [--chip …] [--json]
//! ecmasc --jobs list.txt [--workers N] [--repeat N] [--cache-mb M]
//!        [--model …] [--chip …] [--defects …] [--analyze]
//! ```
//!
//! By default the resource-adaptive pipeline runs (`Ecmas::compile_auto`:
//! Ecmas-ReSu when the chip's communication capacity reaches the profiled
//! `ĝPM`, Algorithm 1 otherwise) and a human-readable summary is printed.
//! `--json` instead emits the structured `CompileReport` — per-stage wall
//! times, router path/conflict counters, the bandwidth-adjust decision,
//! the chosen algorithm, and the per-job `resources` estimate — as a
//! single JSON object on stdout, wrapped with the input's circuit/chip
//! facts.
//!
//! `--defects "r,c;r,c"` marks tile slots dead before compiling — the
//! compiler places and routes around them. Coordinates outside the chip
//! are rejected up front. `--fleet a,b,…` instead hands the compiler a
//! list of candidate chips (the same names `--chip` takes) and lets it
//! pick the cheapest one — fewest physical qubits — that compiles the
//! circuit (`Ecmas::compile_auto_fleet`); it conflicts with `--chip` and
//! `--defects`, which pin a single target.
//!
//! `ecmasc lint <file>` runs the static analyzer without compiling:
//! QASM parse errors surface as `E010` diagnostics with line/column
//! spans, and a parsed circuit gets the full circuit-level lint pass
//! against the `--chip` target (dead qubits, self-cancelling CNOT
//! pairs, width-vs-capacity, communication-graph structure). The exit
//! code fails on error-severity findings, so `lint` slots directly
//! into CI. `--analyze` on a compile run additionally verifies the
//! schedule and embeds every finding in the report's `"diagnostics"`
//! array (also printed, one per line, in human mode).
//!
//! `--jobs <file>` switches to the service path: every non-blank,
//! non-`#` line of the file is a QASM path, all of them are submitted to
//! an `ecmas-serve` `CompileService` (`--workers` threads, one per core
//! by default), and one `--json`-shaped line per job is printed in
//! submission order. `--repeat N` submits the whole list N times and
//! `--cache-mb M` fronts the service with the content-addressed compile
//! cache, so repeated paths come back as cache hits (visible in each
//! report's `"cache"` object). For a long-running stdin-driven service,
//! see `ecmasd`.

use std::process::ExitCode;

use ecmas::serve::daemon::{parse_defect_spec, ChipKind};
use ecmas::{
    analyze_encoded, diagnostics_to_json, has_errors, lint_circuit, lint_qasm, validate_encoded,
    viz, ChipFleet, CompileRequest, CompileService, Ecmas, ServiceConfig,
};
use ecmas_chip::{Chip, CodeModel};
use ecmas_circuit::Circuit;
use ecmas_core::diag::escape;

struct Args {
    path: String,
    model: CodeModel,
    chip: ChipKind,
    defects: Vec<(usize, usize)>,
    fleet: Vec<ChipKind>,
    timeline: u64,
    json: bool,
    jobs: bool,
    lint: bool,
    analyze: bool,
    workers: usize,
    repeat: usize,
    cache_bytes: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut model = CodeModel::DoubleDefect;
    let mut chip = None;
    let mut defects = Vec::new();
    let mut fleet = Vec::new();
    let mut timeline = 0;
    let mut json = false;
    let mut jobs = false;
    let mut lint = false;
    let mut analyze = false;
    let mut workers = 0usize;
    let mut repeat = 1usize;
    let mut cache_bytes = 0u64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--model" => {
                model = match args.next().as_deref() {
                    Some("dd") | Some("double-defect") => CodeModel::DoubleDefect,
                    Some("ls") | Some("lattice-surgery") => CodeModel::LatticeSurgery,
                    other => return Err(format!("unknown model {other:?} (want dd|ls)")),
                };
            }
            "--chip" => {
                let v = args.next().ok_or("missing value for --chip")?;
                chip = Some(
                    ChipKind::parse(&v)
                        .ok_or(format!("unknown chip {v:?} (want min|4x|congested|sufficient)"))?,
                );
            }
            "--defects" => {
                let v = args.next().ok_or("missing value for --defects")?;
                defects = parse_defect_spec(&v)?;
            }
            "--fleet" => {
                let v = args.next().ok_or("missing value for --fleet")?;
                fleet = v
                    .split(',')
                    .map(str::trim)
                    .filter(|k| !k.is_empty())
                    .map(|k| {
                        ChipKind::parse(k).ok_or(format!(
                            "unknown fleet candidate {k:?} (want min|4x|congested|sufficient)"
                        ))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if fleet.is_empty() {
                    return Err("--fleet wants a comma-separated list of chip kinds".into());
                }
            }
            "--timeline" => {
                timeline = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("missing/invalid value for --timeline")?;
            }
            "--json" => json = true,
            "--analyze" => analyze = true,
            "lint" if !lint && path.is_none() && !jobs => lint = true,
            "--jobs" => {
                if path.is_some() {
                    return Err("--jobs conflicts with a positional input file".into());
                }
                jobs = true;
                let v = args.next().ok_or("missing value for --jobs")?;
                path = Some(v);
            }
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("missing/invalid value for --workers")?;
            }
            "--repeat" => {
                repeat = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("missing/invalid value for --repeat (want a positive count)")?;
            }
            "--cache-mb" => {
                let mb: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("missing/invalid value for --cache-mb")?;
                cache_bytes = mb * 1024 * 1024;
            }
            "--help" | "-h" => {
                return Err("usage: ecmasc <file.qasm> [--model dd|ls] \
                            [--chip min|4x|congested|sufficient] [--defects \"r,c;r,c\"] \
                            [--timeline N] [--json] [--analyze] | \
                            ecmasc <file.qasm> --fleet min,4x,… [--model …] [--json] | \
                            ecmasc lint <file.qasm> [--model …] [--chip …] [--json] | \
                            ecmasc --jobs <list.txt> [--workers N] [--repeat N] [--cache-mb M] \
                            [--model …] [--chip …] [--defects …] [--analyze]"
                    .into());
            }
            other if path.is_none() && !jobs && !other.starts_with('-') => {
                path = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let path = path.ok_or("missing input file (see --help)")?;
    if !fleet.is_empty() {
        if chip.is_some() {
            return Err("--fleet conflicts with --chip (the fleet lists the candidates)".into());
        }
        if !defects.is_empty() {
            return Err("--fleet conflicts with --defects (masks pin one target)".into());
        }
        if jobs {
            return Err("--fleet conflicts with --jobs".into());
        }
    }
    if lint && jobs {
        return Err("lint conflicts with --jobs (lint one file at a time)".into());
    }
    if lint && !fleet.is_empty() {
        return Err("lint conflicts with --fleet (lint targets one chip)".into());
    }
    Ok(Args {
        path,
        model,
        chip: chip.unwrap_or(ChipKind::Min),
        defects,
        fleet,
        timeline,
        json,
        jobs,
        lint,
        analyze,
        workers,
        repeat,
        cache_bytes,
    })
}

fn load_circuit(path: &str) -> Result<Circuit, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    ecmas_circuit::qasm::parse(&source).map_err(|e| format!("{path}: {e}"))
}

/// The `--json` wrapper line: input facts + chip facts + the report.
fn json_line(
    path: &str,
    circuit: &Circuit,
    chip_kind: ChipKind,
    chip: &Chip,
    report: &str,
) -> String {
    format!(
        "{{\"file\":\"{}\",\"qubits\":{},\"cnots\":{},\"depth\":{},\
         \"model\":\"{}\",\"chip\":{{\"kind\":\"{}\",\"tile_rows\":{},\"tile_cols\":{},\
         \"bandwidth\":{},\"defects\":{},\"live_tiles\":{}}},\"report\":{report}}}",
        escape(path),
        circuit.qubits(),
        circuit.cnot_count(),
        circuit.depth(),
        chip.model().label(),
        chip_kind.label(),
        chip.tile_rows(),
        chip.tile_cols(),
        chip.bandwidth(),
        chip.defect_count(),
        chip.live_tiles(),
    )
}

/// Build the `--chip` target for a circuit and apply any `--defects`
/// mask, rejecting coordinates outside the chosen chip up front.
fn build_chip(args: &Args, circuit: &Circuit) -> Result<Chip, String> {
    let chip = args.chip.build(args.model, circuit).map_err(|e| e.to_string())?;
    if args.defects.is_empty() {
        Ok(chip)
    } else {
        let (rows, cols) = (chip.tile_rows(), chip.tile_cols());
        chip.with_defects(&args.defects)
            .map_err(|e| format!("--defects: {e} (chip is {rows}×{cols} tiles)"))
    }
}

/// `ecmasc lint`: parse and static-analyze a QASM file without
/// compiling. Parse failures surface as `E010` diagnostics with
/// line/column spans; a parsed circuit gets the full circuit-level
/// lint pass against the `--chip` target. Exits nonzero when any
/// error-severity diagnostic fires.
fn run_lint(args: &Args) -> Result<(), String> {
    let source = std::fs::read_to_string(&args.path)
        .map_err(|e| format!("cannot read {}: {e}", args.path))?;
    let (circuit, mut diagnostics) = lint_qasm(&source);
    if let Some(circuit) = &circuit {
        // Re-lint against the actual `--chip` target so the
        // width-vs-capacity check (E012) participates; the chip-free
        // pass from `lint_qasm` is a strict subset of this one.
        if let Ok(chip) = build_chip(args, circuit) {
            diagnostics = lint_circuit(circuit, Some(&chip));
        }
    }
    if args.json {
        println!(
            "{{\"file\":\"{}\",\"diagnostics\":{}}}",
            escape(&args.path),
            diagnostics_to_json(&diagnostics)
        );
    } else {
        for d in &diagnostics {
            println!("{}: {d}", args.path);
        }
        let errors = diagnostics.iter().filter(|d| d.is_error()).count();
        println!("{}: {} diagnostic(s), {} error(s)", args.path, diagnostics.len(), errors);
    }
    if has_errors(&diagnostics) {
        return Err(format!("lint: error-severity diagnostics in {}", args.path));
    }
    Ok(())
}

/// `--jobs`: fan a file of QASM paths through the compile service.
fn run_jobs(args: &Args) -> Result<(), String> {
    let list = std::fs::read_to_string(&args.path)
        .map_err(|e| format!("cannot read {}: {e}", args.path))?;
    let paths: Vec<&str> =
        list.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')).collect();
    let service = CompileService::new(ServiceConfig {
        workers: args.workers,
        cache_bytes: args.cache_bytes,
        ..ServiceConfig::default()
    });
    let mut submitted = Vec::new();
    for _ in 0..args.repeat {
        for path in &paths {
            let circuit = load_circuit(path)?;
            let chip = build_chip(args, &circuit)?;
            let handle = service
                .submit(
                    CompileRequest::new(circuit.clone(), chip.clone()).with_analyze(args.analyze),
                )
                .map_err(|e| e.to_string())?;
            submitted.push((*path, circuit, chip, handle));
        }
    }
    for (path, circuit, chip, handle) in submitted {
        let outcome = handle.wait().map_err(|e| format!("{path}: {e}"))?;
        validate_encoded(&circuit, &outcome.encoded)
            .map_err(|e| format!("internal: invalid schedule for {path}: {e}"))?;
        println!("{}", json_line(path, &circuit, args.chip, &chip, &outcome.report.to_json()));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.lint {
        return run_lint(&args);
    }
    if args.jobs {
        return run_jobs(&args);
    }
    let circuit = load_circuit(&args.path)?;
    if !args.json {
        eprintln!(
            "parsed {}: {} qubits, {} CNOTs, {} single-qubit gates, {} T gates, depth α = {}",
            args.path,
            circuit.qubits(),
            circuit.cnot_count(),
            circuit.single_gate_count(),
            circuit.t_count(),
            circuit.depth()
        );
    }

    // `--fleet`: heterogeneous target selection — try candidates from
    // cheapest (fewest physical qubits) to priciest, keep the first that
    // compiles. The selected candidate then flows into the same report
    // and summary paths a pinned `--chip` would.
    let (chip_kind, chip, mut outcome) = if args.fleet.is_empty() {
        let chip = build_chip(&args, &circuit)?;

        // The resource-adaptive session pipeline: profile, map, then pick
        // limited vs ReSu from capacity vs ĝPM. `--chip sufficient` sizes
        // the chip so the auto choice lands on ReSu, as before.
        let outcome = Ecmas::default().compile_auto(&circuit, &chip).map_err(|e| e.to_string())?;
        (args.chip, chip, outcome)
    } else {
        let candidates = args
            .fleet
            .iter()
            .map(|kind| kind.build(args.model, &circuit).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let selection = Ecmas::default()
            .compile_auto_fleet(&circuit, &ChipFleet::new(candidates.clone()))
            .map_err(|e| e.to_string())?;
        let kind = args.fleet[selection.chip_index];
        let chip = candidates[selection.chip_index].clone();
        if !args.json {
            eprintln!(
                "fleet: selected candidate {} of {} ({})",
                selection.chip_index + 1,
                candidates.len(),
                kind.label(),
            );
        }
        (kind, chip, selection.outcome)
    };
    validate_encoded(&circuit, &outcome.encoded)
        .map_err(|e| format!("internal: invalid schedule: {e}"))?;

    if args.analyze {
        // Observe-only: the schedule and its fingerprint are already
        // final; this just fills the report's diagnostics array.
        let mut diags = lint_circuit(&circuit, Some(&chip));
        diags.extend(analyze_encoded(&circuit, &outcome.encoded));
        outcome.report.diagnostics = diags;
    }

    if args.json {
        println!(
            "{}",
            json_line(&args.path, &circuit, chip_kind, &chip, &outcome.report.to_json())
        );
        return Ok(());
    }

    let report = &outcome.report;
    println!(
        "model={} chip={} ({}×{} tiles, bandwidth {}, {} dead) algorithm={} Δ = {} cycles \
         ({} events, {} cut modifications)",
        chip.model().label(),
        chip_kind.label(),
        chip.tile_rows(),
        chip.tile_cols(),
        chip.bandwidth(),
        chip.defect_count(),
        report.algorithm.label(),
        report.cycles,
        report.events,
        report.cut_modifications,
    );
    println!(
        "ĝPM={} capacity={} restarts={} bandwidth-adjust={} | profile {:.2?} map {:.2?} \
         schedule {:.2?} | router: {} paths, {} conflicts ({} failed searches, \
         {} cache hits)",
        report.gpm,
        report.capacity,
        report.placement_restarts,
        report.bandwidth_adjust.label(),
        report.timings.profile,
        report.timings.map,
        report.timings.schedule,
        report.router.paths_found,
        report.router.conflicts,
        report.router.failed_searches,
        report.router.cache_hits,
    );
    for d in &report.diagnostics {
        println!("{d}");
    }
    if args.timeline > 0 {
        print!("{}", viz::render_timeline(&outcome.encoded, args.timeline));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ecmasc: {message}");
            ExitCode::FAILURE
        }
    }
}
