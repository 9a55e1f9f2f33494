//! The two front ends as processes: `ecmasc` compiles one file (and
//! picks a `--fleet` candidate itself), and `ecmasd` serves streams of
//! jobs, `file` submits included, through the compile service.

use std::io::Write;
use std::process::{Command, Output, Stdio};

use ecmas::serve::json::{self, Value};
use ecmas_core::diag::object;

const PROGRAM: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs/toffoli_chain.qasm");

fn ecmasc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ecmasc")).args(args).output().unwrap()
}

fn parse(line: &str) -> Value {
    json::parse(line).unwrap_or_else(|e| panic!("invalid JSON ({e}): {line}"))
}

/// What `ecmasc --jobs list.txt --repeat 2 --cache-mb M` used to show:
/// one path submitted twice compiles once, then hits the cache, and both
/// reports match a single-file `ecmasc --json` run.
#[test]
fn ecmasd_file_jobs_hit_the_cache_and_match_ecmasc() {
    let single = ecmasc(&[PROGRAM, "--json"]);
    assert!(single.status.success(), "{}", String::from_utf8_lossy(&single.stderr));
    let single = parse(String::from_utf8(single.stdout).unwrap().trim_end());
    let want = single.get("report").unwrap();

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_ecmasd"))
        .args(["--model", "dd", "--chip", "min", "--workers", "1", "--cache-mb", "8"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let submit = object().str("op", "submit").str("file", PROGRAM).to_string();
    let stream = format!("{submit}\n").repeat(2);
    daemon.stdin.take().unwrap().write_all(stream.as_bytes()).unwrap();
    let out = daemon.wait_with_output().unwrap();
    assert!(out.status.success());

    let results: Vec<Value> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(parse)
        .filter(|v| v.get("op").and_then(Value::as_str) == Some("result"))
        .collect();
    assert_eq!(results.len(), 2);
    for (result, source) in results.iter().zip(["miss", "hit"]) {
        assert_eq!(result.get("status").and_then(Value::as_str), Some("done"));
        let report = result.get("report").unwrap();
        let cache = report.get("cache").unwrap();
        assert_eq!(cache.get("source").and_then(Value::as_str), Some(source));
        for key in ["algorithm", "cycles", "router", "resources"] {
            assert_eq!(report.get(key), want.get(key), "{source}: {key}");
        }
    }
}

/// Candidates are tried cheapest first, whatever order the list gives;
/// equal costs keep list order (the sufficient chip for this circuit is
/// the min-viable one).
#[test]
fn fleet_prefers_the_cheapest_fitting_chip() {
    for (fleet, selected) in [
        ("congested,4x,min", "candidate 3 of 3 (min)"),
        ("sufficient,min", "candidate 1 of 2 (sufficient)"),
        ("min,sufficient", "candidate 1 of 2 (min)"),
    ] {
        let out = ecmasc(&[PROGRAM, "--fleet", fleet]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        assert!(stderr.contains(&format!("fleet: selected {selected}")), "{fleet}: {stderr}");
    }
}

/// A register wider than the compiler accepts fits no candidate; the
/// message names the fleet size and the width.
#[test]
fn exhausted_fleet_is_reported() {
    let path = std::env::temp_dir().join(format!("ecmas-cli-wide-{}.qasm", std::process::id()));
    std::fs::write(&path, "OPENQASM 2.0;\nqreg q[5000];\ncx q[0],q[1];\n").unwrap();
    let out = ecmasc(&[path.to_str().unwrap(), "--fleet", "min,4x", "--json"]);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "ecmasc: no chip in a fleet of 2 candidates could compile the 5000-qubit circuit\n"
    );
}
