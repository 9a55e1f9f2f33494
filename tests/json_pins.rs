//! Byte pins for every JSON shape the workspace emits: the
//! `CompileReport`, its `ResourceEstimate` and diagnostics, every
//! `ecmasd` response line, `stress_stream`'s request lines, and the
//! `ecmasc --json` and `lint --json` lines. Wall-clock `timings_ms` and
//! the race-dependent `queued` count are masked; every other byte is
//! compared exactly, so a change to how JSON is assembled must leave
//! the output unchanged.

use std::process::Command;
use std::time::Duration;

use ecmas::serve::daemon::{
    oversized_line_error, stress_stream, ChipKind, Daemon, DaemonOptions, MAX_LINE_BYTES,
};
use ecmas::{
    diagnostics_to_json, Algorithm, Backpressure, CacheInfo, CacheSource, Code, CompileReport,
    Diagnostic, ResourceEstimate, ServiceConfig, Span, StageCost,
};
use ecmas_chip::CodeModel;
use ecmas_circuit::random::StressSpec;
use ecmas_core::session::{BandwidthDecision, StageTimings};
use ecmas_route::RouterStats;

/// Replaces the value under every `"key":` with `_`: a flat `{…}`
/// object or a bare scalar.
fn mask(line: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let mut out = String::new();
    let mut rest = line;
    while let Some(at) = rest.find(&needle) {
        let value = &rest[at + needle.len()..];
        let end = if value.starts_with('{') {
            value.find('}').map_or(value.len(), |e| e + 1)
        } else {
            value.find([',', '}']).unwrap_or(value.len())
        };
        out.push_str(&rest[..at + needle.len()]);
        out.push('_');
        rest = &value[end..];
    }
    out.push_str(rest);
    out
}

/// Masks the wall-clock and race-dependent values of one emitted line.
fn masked(line: &str) -> String {
    mask(&mask(line, "timings_ms"), "queued")
}

fn check(got: &[String], want: &[&str]) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "line {i}");
    }
    assert_eq!(got.len(), want.len(), "{got:#?}");
}

fn daemon(service: ServiceConfig) -> Daemon {
    Daemon::new(DaemonOptions { model: CodeModel::LatticeSurgery, chip: ChipKind::Min, service })
}

fn one_worker() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        backpressure: Backpressure::Block,
        ..ServiceConfig::default()
    }
}

fn estimate() -> ResourceEstimate {
    ResourceEstimate {
        logical_qubits: 9,
        live_tiles: 12,
        physical_qubits: 3_456,
        cycles: 17,
        space_time_volume: 153,
        channel_cells: 40,
        channel_mean_utilization_ppm: 130_882,
        channel_peak_utilization_ppm: 525_000,
        stage_cost: StageCost { profile: 20, map: 96, schedule: 474 },
    }
}

fn report() -> CompileReport {
    CompileReport {
        algorithm: Algorithm::ReSu,
        timings: StageTimings {
            profile: Duration::from_micros(1_250),
            map: Duration::from_nanos(333_333),
            schedule: Duration::from_millis(12),
        },
        gpm: 4,
        capacity: 5,
        placement_restarts: 8,
        bandwidth_adjust: BandwidthDecision::Disabled,
        router: RouterStats {
            paths_found: 11,
            conflicts: 2,
            cells_expanded: 345,
            pruned_expansions: 67,
            path_cells: 89,
            peak_cycle_path_cells: 21,
            failed_searches: 1,
            cache_hits: 3,
            recolor_cells: 40,
        },
        cycles: 17,
        events: 13,
        cut_modifications: 2,
        cache: CacheInfo {
            source: CacheSource::Coalesced,
            hits: 5,
            misses: 6,
            evictions: 1,
            resident_bytes: 4096,
            coalesced_waits: 2,
        },
        resources: estimate(),
        diagnostics: vec![Diagnostic::new(Code::QasmParse, "bad \"tok\"\there")
            .with_span(Span { line: 3, col: 7 })],
    }
}

#[test]
fn compile_report_json_is_pinned() {
    let report = report();
    let mut plain = report.clone();
    plain.diagnostics.clear();
    check(&[report.to_json(), plain.to_json()], REPORTS);
}

#[test]
fn estimate_and_diagnostics_json_are_pinned() {
    let diags = [
        Diagnostic::new(Code::UnusedQubit, "q[3] is \\ unused"),
        Diagnostic::new(Code::PathConflict, "x").with_span(Span { line: 1, col: 0 }),
    ];
    let got = [
        estimate().to_json(),
        diagnostics_to_json(&diags),
        diagnostics_to_json(&[]),
        diags[0].to_json(),
    ];
    check(&got, ESTIMATE_AND_DIAGNOSTICS);
}

#[test]
fn daemon_lines_are_pinned() {
    let mut got = Vec::new();
    let mut send =
        |d: &mut Daemon, line: &str| got.extend(d.handle_line(line).iter().map(|l| masked(l)));
    let submit = |source: &str, extra: &str| {
        format!(r#"{{"op":"submit","tag":"q\"t\\x\n\u0001",{source}{extra}}}"#)
    };
    let small = r#""random":{"qubits":6,"depth":5,"parallelism":2,"seed":3}"#;
    // Job 2 keeps the one worker busy while job 3 is cancelled in the
    // queue behind it.
    let blocker = r#""random":{"qubits":60,"depth":300,"parallelism":20,"seed":1}"#;

    let mut d = daemon(one_worker());
    send(&mut d, r#"{"op":"stats"}"#);
    send(&mut d, &submit(small, ""));
    send(&mut d, r#"{"op":"result","job":1}"#);
    send(&mut d, r#"{"op":"status","job":1}"#);
    send(&mut d, r#"{"op":"cancel","job":1}"#);
    send(&mut d, &submit(blocker, ""));
    send(&mut d, &submit(small, ""));
    send(&mut d, r#"{"op":"cancel","job":3}"#);
    // Job 4's deadline has lapsed by the time any worker sees it.
    send(&mut d, &submit(small, r#","deadline_ms":0"#));
    send(&mut d, &submit(small, r#","analyze":true"#));
    send(&mut d, r#"{"op":"drain"}"#);
    send(&mut d, r#"{"op":"result","job":3}"#);
    send(&mut d, r#"{"op":"warp"}"#);
    send(&mut d, "not json");
    send(&mut d, r#"{"op":"submit","qasm":"OPENQASM 2.0;\nqreg q[2];\nh   q[9];\n"}"#);
    send(&mut d, &" ".repeat(MAX_LINE_BYTES + 1));
    send(&mut d, r#"{"op":"drain","final":true}"#);
    send(&mut d, &submit(small, ""));

    let mut shed = daemon(ServiceConfig { shed_cost_budget: 1, ..one_worker() });
    send(&mut shed, &submit(small, ""));

    // A register past the compiler's width limit: the job fails.
    let mut wide = daemon(one_worker());
    send(&mut wide, &submit(r#""qasm":"OPENQASM 2.0;\nqreg q[4097];\ncx q[0],q[1];\n""#, ""));
    send(&mut wide, r#"{"op":"result","job":1}"#);

    got.push(oversized_line_error());
    check(&got, DAEMON_LINES);
}

#[test]
fn stress_stream_is_pinned() {
    let spec = StressSpec { jobs: 4, defect_percent: 10, ..StressSpec::new(4, 12, 7) };
    let plain = StressSpec { jobs: 2, ..StressSpec::new(2, 12, 7) };
    let got = [stress_stream(&spec, Some(2), Some(250)), stress_stream(&plain, None, None)];
    let lines: Vec<String> = got.iter().flat_map(|s| s.lines()).map(str::to_string).collect();
    assert!(got.iter().all(|s| s.ends_with('\n')));
    check(&lines, STRESS_STREAMS);
}

#[test]
fn ecmasc_json_lines_are_pinned() {
    let dir = std::env::temp_dir().join(format!("ecmas-json-pins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("good \"q\".qasm"),
        "OPENQASM 2.0;\nqreg q[5];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[3],q[0];\n",
    )
    .unwrap();
    std::fs::write(dir.join("bad.qasm"), "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[7];\n").unwrap();
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_ecmasc"))
            .current_dir(&dir)
            .args(args)
            .output()
            .unwrap();
        masked(String::from_utf8(out.stdout).unwrap().trim_end())
    };
    let good = "good \"q\".qasm";
    let got = [
        run(&[good, "--json", "--analyze"]),
        run(&[good, "--json", "--model", "ls", "--chip", "4x", "--defects", "0,0"]),
        run(&[good, "--json", "--fleet", "4x,min"]),
        run(&["lint", good, "--json"]),
        run(&["lint", "bad.qasm", "--json"]),
    ];
    std::fs::remove_dir_all(&dir).unwrap();
    check(&got, ECMASC_LINES);
}

const REPORTS: &[&str] = &[
    "{\"algorithm\":\"resu\",\"cycles\":17,\"events\":13,\"cut_modifications\":2,\"gpm\":4,\"capacity\":5,\"placement_restarts\":8,\"bandwidth_adjust\":\"disabled\",\"timings_ms\":{\"profile\":1.250,\"map\":0.333,\"schedule\":12.000,\"total\":13.583},\"router\":{\"paths_found\":11,\"conflicts\":2,\"cells_expanded\":345,\"pruned_expansions\":67,\"path_cells\":89,\"peak_cycle_path_cells\":21,\"failed_searches\":1,\"cache_hits\":3,\"recolor_cells\":40},\"cache\":{\"source\":\"coalesced\",\"hits\":5,\"misses\":6,\"evictions\":1,\"resident_bytes\":4096,\"coalesced_waits\":2},\"resources\":{\"logical_qubits\":9,\"live_tiles\":12,\"physical_qubits\":3456,\"cycles\":17,\"space_time_volume\":153,\"channel_cells\":40,\"channel_mean_utilization_ppm\":130882,\"channel_peak_utilization_ppm\":525000,\"stage_cost\":{\"profile\":20,\"map\":96,\"schedule\":474}},\"diagnostics\":[{\"code\":\"E010\",\"severity\":\"error\",\"message\":\"bad \\\"tok\\\"\\there\",\"span\":{\"line\":3,\"col\":7}}]}",
    "{\"algorithm\":\"resu\",\"cycles\":17,\"events\":13,\"cut_modifications\":2,\"gpm\":4,\"capacity\":5,\"placement_restarts\":8,\"bandwidth_adjust\":\"disabled\",\"timings_ms\":{\"profile\":1.250,\"map\":0.333,\"schedule\":12.000,\"total\":13.583},\"router\":{\"paths_found\":11,\"conflicts\":2,\"cells_expanded\":345,\"pruned_expansions\":67,\"path_cells\":89,\"peak_cycle_path_cells\":21,\"failed_searches\":1,\"cache_hits\":3,\"recolor_cells\":40},\"cache\":{\"source\":\"coalesced\",\"hits\":5,\"misses\":6,\"evictions\":1,\"resident_bytes\":4096,\"coalesced_waits\":2},\"resources\":{\"logical_qubits\":9,\"live_tiles\":12,\"physical_qubits\":3456,\"cycles\":17,\"space_time_volume\":153,\"channel_cells\":40,\"channel_mean_utilization_ppm\":130882,\"channel_peak_utilization_ppm\":525000,\"stage_cost\":{\"profile\":20,\"map\":96,\"schedule\":474}},\"diagnostics\":[]}",
];

const ESTIMATE_AND_DIAGNOSTICS: &[&str] = &[
    "{\"logical_qubits\":9,\"live_tiles\":12,\"physical_qubits\":3456,\"cycles\":17,\"space_time_volume\":153,\"channel_cells\":40,\"channel_mean_utilization_ppm\":130882,\"channel_peak_utilization_ppm\":525000,\"stage_cost\":{\"profile\":20,\"map\":96,\"schedule\":474}}",
    "[{\"code\":\"W001\",\"severity\":\"warning\",\"message\":\"q[3] is \\\\ unused\"},{\"code\":\"E008\",\"severity\":\"error\",\"message\":\"x\",\"span\":{\"line\":1,\"col\":0}}]",
    "[]",
    "{\"code\":\"W001\",\"severity\":\"warning\",\"message\":\"q[3] is \\\\ unused\"}",
];

const DAEMON_LINES: &[&str] = &[
    "{\"op\":\"stats\",\"jobs\":0,\"pending\":0,\"done\":0,\"cancelled\":0,\"deadline\":0,\"failed\":0,\"queued\":_,\"workers\":1,\"cache\":{\"enabled\":false,\"hits\":0,\"misses\":0,\"evictions\":0,\"resident_bytes\":0,\"coalesced_waits\":0,\"entries\":0},\"shed\":0,\"draining\":false,\"resources\":{\"jobs\":0,\"logical_qubits\":0,\"cycles\":0,\"space_time_volume\":0,\"stage_cost\":0,\"peak_channel_utilization_ppm\":0},\"diagnostics\":{\"errors\":0,\"warnings\":0,\"hints\":0}}",
    "{\"op\":\"submitted\",\"job\":1,\"tag\":\"q\\\"t\\\\x\\n\\u0001\",\"circuit\":\"random_n6_d5_p2\",\"qubits\":6,\"queued\":_}",
    "{\"op\":\"result\",\"job\":1,\"tag\":\"q\\\"t\\\\x\\n\\u0001\",\"circuit\":\"random_n6_d5_p2\",\"qubits\":6,\"status\":\"done\",\"report\":{\"algorithm\":\"resu\",\"cycles\":5,\"events\":10,\"cut_modifications\":0,\"gpm\":2,\"capacity\":3,\"placement_restarts\":8,\"bandwidth_adjust\":\"disabled\",\"timings_ms\":_,\"router\":{\"paths_found\":10,\"conflicts\":0,\"cells_expanded\":36,\"pruned_expansions\":47,\"path_cells\":38,\"peak_cycle_path_cells\":10,\"failed_searches\":0,\"cache_hits\":0,\"recolor_cells\":0},\"cache\":{\"source\":\"disabled\",\"hits\":0,\"misses\":0,\"evictions\":0,\"resident_bytes\":0,\"coalesced_waits\":0},\"resources\":{\"logical_qubits\":6,\"live_tiles\":9,\"physical_qubits\":882,\"cycles\":5,\"space_time_volume\":30,\"channel_cells\":40,\"channel_mean_utilization_ppm\":190000,\"channel_peak_utilization_ppm\":250000,\"stage_cost\":{\"profile\":10,\"map\":72,\"schedule\":74}},\"diagnostics\":[]}}",
    "{\"op\":\"status\",\"job\":1,\"tag\":\"q\\\"t\\\\x\\n\\u0001\",\"status\":\"done\"}",
    "{\"op\":\"cancel\",\"job\":1,\"tag\":\"q\\\"t\\\\x\\n\\u0001\",\"accepted\":false}",
    "{\"op\":\"submitted\",\"job\":2,\"tag\":\"q\\\"t\\\\x\\n\\u0001\",\"circuit\":\"random_n60_d300_p20\",\"qubits\":60,\"queued\":_}",
    "{\"op\":\"submitted\",\"job\":3,\"tag\":\"q\\\"t\\\\x\\n\\u0001\",\"circuit\":\"random_n6_d5_p2\",\"qubits\":6,\"queued\":_}",
    "{\"op\":\"cancel\",\"job\":3,\"tag\":\"q\\\"t\\\\x\\n\\u0001\",\"accepted\":true}",
    "{\"op\":\"submitted\",\"job\":4,\"tag\":\"q\\\"t\\\\x\\n\\u0001\",\"circuit\":\"random_n6_d5_p2\",\"qubits\":6,\"queued\":_}",
    "{\"op\":\"submitted\",\"job\":5,\"tag\":\"q\\\"t\\\\x\\n\\u0001\",\"circuit\":\"random_n6_d5_p2\",\"qubits\":6,\"queued\":_}",
    "{\"op\":\"result\",\"job\":2,\"tag\":\"q\\\"t\\\\x\\n\\u0001\",\"circuit\":\"random_n60_d300_p20\",\"qubits\":60,\"status\":\"done\",\"report\":{\"algorithm\":\"limited\",\"cycles\":430,\"events\":6000,\"cut_modifications\":0,\"gpm\":21,\"capacity\":3,\"placement_restarts\":8,\"bandwidth_adjust\":\"disabled\",\"timings_ms\":_,\"router\":{\"paths_found\":6000,\"conflicts\":3079,\"cells_expanded\":218337,\"pruned_expansions\":56853,\"path_cells\":80716,\"peak_cycle_path_cells\":239,\"failed_searches\":3079,\"cache_hits\":2309,\"recolor_cells\":176330},\"cache\":{\"source\":\"disabled\",\"hits\":0,\"misses\":0,\"evictions\":0,\"resident_bytes\":0,\"coalesced_waits\":0},\"resources\":{\"logical_qubits\":60,\"live_tiles\":64,\"physical_qubits\":5202,\"cycles\":430,\"space_time_volume\":25800,\"channel_cells\":225,\"channel_mean_utilization_ppm\":834273,\"channel_peak_utilization_ppm\":1062222,\"stage_cost\":{\"profile\":6000,\"map\":512,\"schedule\":475383}},\"diagnostics\":[]}}",
    "{\"op\":\"result\",\"job\":3,\"tag\":\"q\\\"t\\\\x\\n\\u0001\",\"circuit\":\"random_n6_d5_p2\",\"qubits\":6,\"status\":\"cancelled\"}",
    "{\"op\":\"result\",\"job\":4,\"tag\":\"q\\\"t\\\\x\\n\\u0001\",\"circuit\":\"random_n6_d5_p2\",\"qubits\":6,\"status\":\"deadline\",\"error\":\"deadline of 0ns exceeded\"}",
    "{\"op\":\"result\",\"job\":5,\"tag\":\"q\\\"t\\\\x\\n\\u0001\",\"circuit\":\"random_n6_d5_p2\",\"qubits\":6,\"status\":\"done\",\"report\":{\"algorithm\":\"resu\",\"cycles\":5,\"events\":10,\"cut_modifications\":0,\"gpm\":2,\"capacity\":3,\"placement_restarts\":8,\"bandwidth_adjust\":\"disabled\",\"timings_ms\":_,\"router\":{\"paths_found\":10,\"conflicts\":0,\"cells_expanded\":36,\"pruned_expansions\":47,\"path_cells\":38,\"peak_cycle_path_cells\":10,\"failed_searches\":0,\"cache_hits\":0,\"recolor_cells\":0},\"cache\":{\"source\":\"disabled\",\"hits\":0,\"misses\":0,\"evictions\":0,\"resident_bytes\":0,\"coalesced_waits\":0},\"resources\":{\"logical_qubits\":6,\"live_tiles\":9,\"physical_qubits\":882,\"cycles\":5,\"space_time_volume\":30,\"channel_cells\":40,\"channel_mean_utilization_ppm\":190000,\"channel_peak_utilization_ppm\":250000,\"stage_cost\":{\"profile\":10,\"map\":72,\"schedule\":74}},\"diagnostics\":[{\"code\":\"W002\",\"severity\":\"warning\",\"message\":\"1 adjacent identical CNOT pair(s) cancel to the identity (first: ops 4 and 6)\"},{\"code\":\"H001\",\"severity\":\"hint\",\"message\":\"4 idle bubbles totalling 5 qubit-cycles (qubit utilization 66.7%)\"},{\"code\":\"H002\",\"severity\":\"hint\",\"message\":\"critical-path lower bound 5 cycles, schedule Δ 5 (slack 0)\"}]}}",
    "{\"op\":\"drained\",\"jobs\":5,\"done\":3,\"cancelled\":1,\"deadline\":1,\"failed\":0}",
    "{\"op\":\"error\",\"error\":\"job 3 already reported (cancelled)\"}",
    "{\"op\":\"error\",\"error\":\"unknown op \\\"warp\\\"\"}",
    "{\"op\":\"error\",\"error\":\"invalid JSON at byte 0: invalid keyword\"}",
    "{\"op\":\"error\",\"error\":\"qasm: error [E010] 3:7: index 9 out of range for qreg `q[2]`\",\"diagnostics\":[{\"code\":\"E010\",\"severity\":\"error\",\"message\":\"index 9 out of range for qreg `q[2]`\",\"span\":{\"line\":3,\"col\":7}}]}",
    "{\"op\":\"error\",\"error\":\"line of 1048577 bytes exceeds the 1048576-byte cap\"}",
    "{\"op\":\"drained\",\"jobs\":5,\"done\":3,\"cancelled\":1,\"deadline\":1,\"failed\":0}",
    "{\"op\":\"error\",\"error\":\"service draining\"}",
    "{\"op\":\"error\",\"error\":\"overloaded\",\"retry_after_ms\":25}",
    "{\"op\":\"submitted\",\"job\":1,\"tag\":\"q\\\"t\\\\x\\n\\u0001\",\"circuit\":\"\",\"qubits\":4097,\"queued\":_}",
    "{\"op\":\"result\",\"job\":1,\"tag\":\"q\\\"t\\\\x\\n\\u0001\",\"circuit\":\"\",\"qubits\":4097,\"status\":\"error\",\"error\":\"compile error: 4097 logical qubits exceed the compiler's limit of 4096\"}",
    "{\"op\":\"error\",\"error\":\"line exceeds the 1048576-byte cap\"}",
];

const STRESS_STREAMS: &[&str] = &[
    "{\"op\":\"submit\",\"tag\":\"stress0\",\"random\":{\"qubits\":12,\"depth\":244,\"parallelism\":6,\"seed\":3269812880781140},\"defect_percent\":10,\"defect_seed\":3344595609062871,\"deadline_ms\":250}",
    "{\"op\":\"submit\",\"tag\":\"stress1\",\"random\":{\"qubits\":12,\"depth\":248,\"parallelism\":6,\"seed\":6200554586213029},\"defect_percent\":10,\"defect_seed\":3444597933762076,\"deadline_ms\":250}",
    "{\"op\":\"cancel\",\"job\":2}",
    "{\"op\":\"submit\",\"tag\":\"stress2\",\"random\":{\"qubits\":12,\"depth\":258,\"parallelism\":6,\"seed\":3042623952199319},\"defect_percent\":10,\"defect_seed\":6826321073220098,\"deadline_ms\":250}",
    "{\"op\":\"submit\",\"tag\":\"stress3\",\"random\":{\"qubits\":12,\"depth\":236,\"parallelism\":6,\"seed\":5074626162290541},\"defect_percent\":10,\"defect_seed\":7577217395468747,\"deadline_ms\":250}",
    "{\"op\":\"cancel\",\"job\":4}",
    "{\"op\":\"drain\"}",
    "{\"op\":\"submit\",\"tag\":\"stress0\",\"random\":{\"qubits\":12,\"depth\":244,\"parallelism\":6,\"seed\":3269812880781140}}",
    "{\"op\":\"submit\",\"tag\":\"stress1\",\"random\":{\"qubits\":12,\"depth\":248,\"parallelism\":6,\"seed\":6200554586213029}}",
    "{\"op\":\"drain\"}",
];

const ECMASC_LINES: &[&str] = &[
    "{\"file\":\"good \\\"q\\\".qasm\",\"qubits\":5,\"cnots\":3,\"depth\":2,\"model\":\"double defect\",\"chip\":{\"kind\":\"min\",\"tile_rows\":3,\"tile_cols\":3,\"bandwidth\":1,\"defects\":0,\"live_tiles\":9},\"report\":{\"algorithm\":\"resu\",\"cycles\":2,\"events\":3,\"cut_modifications\":0,\"gpm\":2,\"capacity\":3,\"placement_restarts\":8,\"bandwidth_adjust\":\"disabled\",\"timings_ms\":_,\"router\":{\"paths_found\":3,\"conflicts\":0,\"cells_expanded\":6,\"pruned_expansions\":13,\"path_cells\":9,\"peak_cycle_path_cells\":6,\"failed_searches\":0,\"cache_hits\":0,\"recolor_cells\":0},\"cache\":{\"source\":\"disabled\",\"hits\":0,\"misses\":0,\"evictions\":0,\"resident_bytes\":0,\"coalesced_waits\":0},\"resources\":{\"logical_qubits\":5,\"live_tiles\":9,\"physical_qubits\":5625,\"cycles\":2,\"space_time_volume\":10,\"channel_cells\":40,\"channel_mean_utilization_ppm\":112500,\"channel_peak_utilization_ppm\":150000,\"stage_cost\":{\"profile\":3,\"map\":72,\"schedule\":15}},\"diagnostics\":[{\"code\":\"W001\",\"severity\":\"warning\",\"message\":\"1 of 5 declared qubits are touched by no gate: 4\"},{\"code\":\"H002\",\"severity\":\"hint\",\"message\":\"critical-path lower bound 2 cycles, schedule Δ 2 (slack 0)\"}]}}",
    "{\"file\":\"good \\\"q\\\".qasm\",\"qubits\":5,\"cnots\":3,\"depth\":2,\"model\":\"lattice surgery\",\"chip\":{\"kind\":\"4x\",\"tile_rows\":3,\"tile_cols\":3,\"bandwidth\":2,\"defects\":1,\"live_tiles\":8},\"report\":{\"algorithm\":\"resu\",\"cycles\":2,\"events\":3,\"cut_modifications\":0,\"gpm\":2,\"capacity\":3,\"placement_restarts\":8,\"bandwidth_adjust\":\"disabled\",\"timings_ms\":_,\"router\":{\"paths_found\":3,\"conflicts\":0,\"cells_expanded\":9,\"pruned_expansions\":19,\"path_cells\":12,\"peak_cycle_path_cells\":8,\"failed_searches\":0,\"cache_hits\":0,\"recolor_cells\":0},\"cache\":{\"source\":\"disabled\",\"hits\":0,\"misses\":0,\"evictions\":0,\"resident_bytes\":0,\"coalesced_waits\":0},\"resources\":{\"logical_qubits\":5,\"live_tiles\":8,\"physical_qubits\":2178,\"cycles\":2,\"space_time_volume\":10,\"channel_cells\":112,\"channel_mean_utilization_ppm\":53571,\"channel_peak_utilization_ppm\":71428,\"stage_cost\":{\"profile\":3,\"map\":64,\"schedule\":21}},\"diagnostics\":[]}}",
    "{\"file\":\"good \\\"q\\\".qasm\",\"qubits\":5,\"cnots\":3,\"depth\":2,\"model\":\"double defect\",\"chip\":{\"kind\":\"min\",\"tile_rows\":3,\"tile_cols\":3,\"bandwidth\":1,\"defects\":0,\"live_tiles\":9},\"report\":{\"algorithm\":\"resu\",\"cycles\":2,\"events\":3,\"cut_modifications\":0,\"gpm\":2,\"capacity\":3,\"placement_restarts\":8,\"bandwidth_adjust\":\"disabled\",\"timings_ms\":_,\"router\":{\"paths_found\":3,\"conflicts\":0,\"cells_expanded\":6,\"pruned_expansions\":13,\"path_cells\":9,\"peak_cycle_path_cells\":6,\"failed_searches\":0,\"cache_hits\":0,\"recolor_cells\":0},\"cache\":{\"source\":\"disabled\",\"hits\":0,\"misses\":0,\"evictions\":0,\"resident_bytes\":0,\"coalesced_waits\":0},\"resources\":{\"logical_qubits\":5,\"live_tiles\":9,\"physical_qubits\":5625,\"cycles\":2,\"space_time_volume\":10,\"channel_cells\":40,\"channel_mean_utilization_ppm\":112500,\"channel_peak_utilization_ppm\":150000,\"stage_cost\":{\"profile\":3,\"map\":72,\"schedule\":15}},\"diagnostics\":[]}}",
    "{\"file\":\"good \\\"q\\\".qasm\",\"diagnostics\":[{\"code\":\"W001\",\"severity\":\"warning\",\"message\":\"1 of 5 declared qubits are touched by no gate: 4\"}]}",
    "{\"file\":\"bad.qasm\",\"diagnostics\":[{\"code\":\"E010\",\"severity\":\"error\",\"message\":\"index 7 out of range for qreg `q[2]`\",\"span\":{\"line\":3,\"col\":11}}]}",
];
