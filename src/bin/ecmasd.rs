//! `ecmasd` — the Ecmas compile daemon: newline-delimited JSON over
//! stdin/stdout, backed by the `ecmas-serve` worker pool.
//!
//! ```sh
//! ecmasd [--model dd|ls] [--chip min|4x|congested|sufficient]
//!        [--workers N] [--queue N] [--reject] [--cache-mb M]
//!        [--shed-budget C]
//! ```
//!
//! `--workers` takes at most `MAX_WORKERS` (1024; `0`, the default,
//! means one per core). `--shed-budget` turns on admission control
//! (submits beyond the aggregate cost budget get an `overloaded` error
//! with a `retry_after_ms` hint). Stdin lines beyond 1 MiB are refused
//! with a structured error without ever being buffered.
//!
//! One request object per input line (`submit` / `status` / `cancel` /
//! `result` / `drain` / `stats` — see `ecmas_serve::daemon` for the
//! schema), one response object per output line. The content-addressed
//! compile cache defaults on at 64 MiB; `--cache-mb` resizes it and
//! `--cache-mb 0` disables it (`stats` reports the hit/miss/eviction
//! counters either way). At EOF the daemon drains: every
//! unreported job gets its `result` line (the same `CompileReport` JSON
//! `ecmasc --json` emits) followed by a `drained` summary. The job queue
//! is bounded: when it is full, reading stdin stalls — backpressure
//! propagates out through the pipe — unless `--reject` sheds load
//! instead.
//!
//! A second mode generates work rather than serving it:
//!
//! ```sh
//! ecmasd --emit-stress 1000 --seed 7 [--qubits-max 49] [--depth-max 1500]
//!        [--dup-percent 60] [--defect-percent 10] [--cancel-every 50]
//!        [--deadline-ms 60000]
//! ```
//!
//! prints a deterministic seeded `StressWorkload` as a ready-to-pipe job
//! stream (`--dup-percent` makes that percentage of jobs exact repeats
//! of earlier ones, Zipf-skewed toward a few hot circuits — the shape
//! that exercises the compile cache; `--defect-percent` stamps each
//! submit with a seeded fraction of dead tiles so the receiving daemon
//! compiles onto damaged hardware, without perturbing the job stream
//! itself), so a full service exercise is one shell line:
//!
//! ```sh
//! ecmasd --emit-stress 1000 --seed 7 --dup-percent 60 \
//!     | ecmasd --chip congested --model ls
//! ```

use std::io::{BufRead, Write};
use std::process::ExitCode;

use ecmas::serve::daemon::{
    oversized_line_error, stress_stream, ChipKind, Daemon, DaemonOptions, MAX_LINE_BYTES,
};
use ecmas::serve::Backpressure;
use ecmas_chip::CodeModel;
use ecmas_circuit::random::StressSpec;

/// The most worker threads `--workers` may ask for: each is an OS
/// thread, and an unchecked count would also size the default queue.
const MAX_WORKERS: usize = 1024;

struct Args {
    options: DaemonOptions,
    emit_stress: Option<usize>,
    seed: u64,
    qubits_max: usize,
    depth_max: usize,
    dup_percent: u8,
    defect_percent: u8,
    cancel_every: Option<usize>,
    deadline_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut options = DaemonOptions::default();
    let mut emit_stress = None;
    let mut seed = 0u64;
    let mut qubits_max = 49usize;
    let mut depth_max = 1500usize;
    let mut dup_percent = 0u8;
    let mut defect_percent = 0u8;
    let mut cancel_every = None;
    let mut deadline_ms = None;
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("missing value for {flag}"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--model" => {
                options.model = match value(&mut args, "--model")?.as_str() {
                    "dd" | "double-defect" => CodeModel::DoubleDefect,
                    "ls" | "lattice-surgery" => CodeModel::LatticeSurgery,
                    other => return Err(format!("unknown model {other:?} (want dd|ls)")),
                };
            }
            "--chip" => {
                let v = value(&mut args, "--chip")?;
                options.chip = ChipKind::parse(&v).ok_or_else(|| {
                    format!("unknown chip {v:?} (want min|4x|congested|sufficient)")
                })?;
            }
            "--workers" => {
                let workers = parse_num(&value(&mut args, "--workers")?, "--workers")?;
                if workers > MAX_WORKERS {
                    return Err(format!("--workers {workers} exceeds the limit of {MAX_WORKERS}"));
                }
                options.service.workers = workers;
            }
            "--queue" => {
                options.service.queue_capacity =
                    parse_num(&value(&mut args, "--queue")?, "--queue")?;
            }
            "--reject" => options.service.backpressure = Backpressure::Reject,
            "--cache-mb" => {
                let mb: u64 = parse_num(&value(&mut args, "--cache-mb")?, "--cache-mb")?;
                options.service.cache_bytes = mb
                    .checked_mul(1024 * 1024)
                    .ok_or_else(|| format!("--cache-mb {mb} overflows the byte count"))?;
            }
            "--shed-budget" => {
                options.service.shed_cost_budget =
                    parse_num(&value(&mut args, "--shed-budget")?, "--shed-budget")?;
            }
            "--emit-stress" => {
                emit_stress =
                    Some(parse_num(&value(&mut args, "--emit-stress")?, "--emit-stress")?);
            }
            "--seed" => seed = parse_num(&value(&mut args, "--seed")?, "--seed")?,
            "--qubits-max" => {
                qubits_max = parse_num(&value(&mut args, "--qubits-max")?, "--qubits-max")?;
            }
            "--depth-max" => {
                depth_max = parse_num(&value(&mut args, "--depth-max")?, "--depth-max")?;
            }
            "--dup-percent" => {
                dup_percent = parse_num(&value(&mut args, "--dup-percent")?, "--dup-percent")?;
                if dup_percent > 100 {
                    return Err("--dup-percent must be 0..=100".into());
                }
            }
            "--defect-percent" => {
                defect_percent =
                    parse_num(&value(&mut args, "--defect-percent")?, "--defect-percent")?;
                if defect_percent > 100 {
                    return Err("--defect-percent must be 0..=100".into());
                }
            }
            "--cancel-every" => {
                cancel_every =
                    Some(parse_num(&value(&mut args, "--cancel-every")?, "--cancel-every")?);
            }
            "--deadline-ms" => {
                deadline_ms =
                    Some(parse_num(&value(&mut args, "--deadline-ms")?, "--deadline-ms")?);
            }
            "--help" | "-h" => {
                return Err("usage: ecmasd [--model dd|ls] \
                            [--chip min|4x|congested|sufficient] [--workers N] [--queue N] \
                            [--reject] [--cache-mb M] [--shed-budget C] \
                            | ecmasd --emit-stress N [--seed S] \
                            [--qubits-max Q] [--depth-max D] [--dup-percent P] \
                            [--defect-percent P] [--cancel-every K] [--deadline-ms MS]"
                    .into());
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Args {
        options,
        emit_stress,
        seed,
        qubits_max,
        depth_max,
        dup_percent,
        defect_percent,
        cancel_every,
        deadline_ms,
    })
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("invalid value {value:?} for {flag}"))
}

enum InputLine {
    /// A complete line within the cap (terminator stripped).
    Text(String),
    /// A line that blew past [`MAX_LINE_BYTES`]; its bytes were consumed
    /// and discarded without ever being buffered whole.
    Oversized,
}

/// Reads one `\n`-terminated line without ever holding more than
/// [`MAX_LINE_BYTES`] of it in memory. `BufRead::lines` would buffer an
/// arbitrarily long line before the daemon could refuse it — a single
/// terabyte "line" from a misbehaving client must cost a bounded buffer,
/// not the daemon's address space.
fn read_line_capped(reader: &mut impl BufRead) -> Result<Option<InputLine>, String> {
    let mut buf = Vec::new();
    let mut oversized = false;
    loop {
        let chunk = reader.fill_buf().map_err(|e| format!("stdin: {e}"))?;
        if chunk.is_empty() {
            if buf.is_empty() && !oversized {
                return Ok(None);
            }
            break;
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if !oversized {
            if buf.len() + take > MAX_LINE_BYTES {
                oversized = true;
                buf = Vec::new();
            } else {
                buf.extend_from_slice(&chunk[..take]);
            }
        }
        let done = newline.is_some();
        reader.consume(take + usize::from(done));
        if done {
            break;
        }
    }
    if oversized {
        Ok(Some(InputLine::Oversized))
    } else {
        Ok(Some(InputLine::Text(String::from_utf8_lossy(&buf).into_owned())))
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    if let Some(jobs) = args.emit_stress {
        if args.qubits_max < 4 {
            return Err("--qubits-max must be at least 4 (a stress layer needs two pairs)".into());
        }
        if args.depth_max == 0 {
            return Err("--depth-max must be positive".into());
        }
        let base = StressSpec::new(jobs, args.qubits_max, args.seed);
        let spec = StressSpec {
            max_depth: args.depth_max,
            min_depth: base.min_depth.min(args.depth_max),
            dup_percent: args.dup_percent,
            defect_percent: args.defect_percent,
            ..base
        };
        print!("{}", stress_stream(&spec, args.cancel_every, args.deadline_ms));
        return Ok(());
    }

    let mut daemon = Daemon::new(args.options);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut out = stdout.lock();
    while let Some(line) = read_line_capped(&mut input)? {
        match line {
            InputLine::Text(line) => {
                for response in daemon.handle_line(&line) {
                    writeln!(out, "{response}").map_err(|e| format!("stdout: {e}"))?;
                }
            }
            InputLine::Oversized => {
                writeln!(out, "{}", oversized_line_error()).map_err(|e| format!("stdout: {e}"))?;
            }
        }
        out.flush().map_err(|e| format!("stdout: {e}"))?;
    }
    if daemon.has_pending() {
        for response in daemon.drain() {
            writeln!(out, "{response}").map_err(|e| format!("stdout: {e}"))?;
        }
        out.flush().map_err(|e| format!("stdout: {e}"))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ecmasd: {message}");
            ExitCode::FAILURE
        }
    }
}
