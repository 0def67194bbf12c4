//! Pin the `xar` binary's exit-code contract: CI and operators branch
//! on these, so a renumbering is a breaking change. 0 = ok, 1 = generic
//! error (including an unknown command or flag), 2 = unreadable /
//! invalid trace JSON, 3 = trace with no complete request timeline,
//! 4 = trace missing the drop counter, 8 = `--slo-fail` with a fired
//! SLO, 9 = invalid flag value (`--threads`, `--shards`, `--walk`,
//! `--window`, `--detour`, `--rows`, `--cols`, `--clusters`, `--delta`,
//! or an `xar logs` filter), 10 = `--max-backlog` snapshot
//! retire-backlog gate. Code 7 is retired and stays unused.
//! `xar logs` reuses 2 (unreadable / invalid events file) and 3 (no
//! events, or none matching the filters). The full table lives in
//! README.md § Exit codes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn xar(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xar")).args(args).output().expect("spawn xar")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

fn write(path: &Path, text: &str) {
    std::fs::write(path, text).expect("write fixture");
}

/// A per-test scratch directory under the target dir.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

#[test]
fn trace_check_exit_codes_are_distinct_per_failure_class() {
    let dir = scratch("trace_codes");

    // 2: file unreadable.
    let out = xar(&["trace", "--check", "--in", dir.join("missing.json").to_str().unwrap()]);
    assert_eq!(code(&out), 2, "{out:?}");

    // 2: not valid Chrome JSON.
    let bad = dir.join("bad.json");
    write(&bad, "this is not json");
    let out = xar(&["trace", "--check", "--in", bad.to_str().unwrap()]);
    assert_eq!(code(&out), 2, "{out:?}");

    // 3: valid JSON, drop counter present, but no request timeline.
    let empty = dir.join("empty.json");
    write(&empty, r#"{"traceEvents":[],"xar":{"dropped_events":0}}"#);
    let out = xar(&["trace", "--check", "--in", empty.to_str().unwrap()]);
    assert_eq!(code(&out), 3, "{out:?}");

    // 4: a complete request timeline but no "xar" drop-counter block.
    let nodrop = dir.join("nodrop.json");
    write(
        &nodrop,
        r#"{"traceEvents":[
            {"name":"request","ph":"B","ts":0,"pid":1,"tid":1,"args":{"trace":1,"span":1}},
            {"name":"request","ph":"E","ts":100,"pid":1,"tid":1}
        ]}"#,
    );
    let out = xar(&["trace", "--check", "--in", nodrop.to_str().unwrap()]);
    assert_eq!(code(&out), 4, "{out:?}");

    // 1: generic CLI error (missing required flag).
    let out = xar(&["trace", "--check"]);
    assert_eq!(code(&out), 1, "{out:?}");
}

#[test]
fn invalid_threads_or_shards_exit_9_with_a_clear_message() {
    // Concurrency flags are validated before the region file is even
    // opened, so none of these need a fixture. Each failure names the
    // offending flag and the accepted range.
    for args in [
        ["simulate", "--threads", "0"],
        ["simulate", "--threads", "abc"],
        ["simulate", "--threads", "-4"],
        ["simulate", "--shards", "0"],
        ["simulate", "--shards", "999"],
    ] {
        let out = xar(&args);
        assert_eq!(code(&out), 9, "{args:?} -> {out:?}");
        let msg = String::from_utf8_lossy(&out.stderr);
        assert!(msg.contains(args[1].trim_start_matches('-')), "{args:?}: {msg}");
    }

    // A valid value on the same flags does not trip the validator: a
    // tiny parallel simulation exits 0.
    let dir = scratch("valid_threads");
    let region = dir.join("region.xarr");
    let out = xar(&[
        "build-region", "--rows", "10", "--cols", "10", "--seed", "7", "--out",
        region.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let out = xar(&[
        "simulate", "--region", region.to_str().unwrap(), "--trips", "60", "--threads", "2",
        "--shards", "2",
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
}

#[test]
fn hostile_size_and_limit_flags_exit_9_naming_the_flag() {
    // Each of these used to panic (exit 101) or be silently accepted.
    // All are validated before any file is read or written, so none
    // needs a fixture.
    for (args, flag) in [
        (&["build-region", "--rows", "0", "--cols", "0"][..], "--rows"),
        (&["build-region", "--rows", "1", "--cols", "1"][..], "--rows"),
        (&["build-region", "--cols", "1"][..], "--cols"),
        (&["build-region", "--clusters", "0"][..], "--clusters"),
        (&["build-region", "--delta", "-1"][..], "--delta"),
        (&["build-region", "--delta", "NaN"][..], "--delta"),
        (&["profile", "--rows", "0", "--cols", "0"][..], "--rows"),
        (&["simulate", "--walk", "NaN"][..], "--walk"),
        (&["simulate", "--walk", "-1"][..], "--walk"),
        (&["simulate", "--window", "-3"][..], "--window"),
        (&["simulate", "--detour", "-1"][..], "--detour"),
        (&["simulate", "--detour", "inf"][..], "--detour"),
    ] {
        let out = xar(args);
        assert_eq!(code(&out), 9, "{args:?} -> {out:?}");
        let msg = String::from_utf8_lossy(&out.stderr);
        assert!(msg.contains(flag), "{args:?}: {msg}");
    }
}

#[test]
fn simulate_slo_fail_exits_8_and_trace_check_passes_on_real_output() {
    let dir = scratch("slo_fail");
    let region = dir.join("region.xarr");
    let out = xar(&[
        "build-region", "--rows", "14", "--cols", "14", "--seed", "5", "--clusters", "10",
        "--out", region.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "build-region failed: {out:?}");

    // An unmeetable SLO (1 ns search budget, tiny error allowance, tiny
    // burn threshold) must fire and, under --slo-fail, exit 8.
    let trace = dir.join("trace.json");
    let out = xar(&[
        "simulate", "--region", region.to_str().unwrap(), "--trips", "300",
        "--trace-out", trace.to_str().unwrap(), "--trace-sample", "1.0",
        "--tick-ms", "20", "--slo-fail",
        "--slo", "name=impossible hist=sim.search_ns max_ns=1 target=0.999 fast=1 slow=1 burn=0.001",
    ]);
    assert_eq!(code(&out), 8, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("slo fired      : impossible"), "{stdout}");

    // The same run's trace file passes --check (exit 0) — the healthy
    // path for the codes pinned above.
    let out = xar(&["trace", "--check", "--in", trace.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{out:?}");

    // And the same simulation with a generous SLO exits 0.
    let out = xar(&[
        "simulate", "--region", region.to_str().unwrap(), "--trips", "300",
        "--tick-ms", "20", "--slo-fail",
        "--slo", "name=relaxed hist=sim.search_ns max_ms=60000 target=0.5 fast=1 slow=1",
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
}

#[test]
fn top_renders_one_plain_frame_from_a_served_simulation() {
    let dir = scratch("top_frame");
    let region = dir.join("region.xarr");
    let out = xar(&[
        "build-region", "--rows", "14", "--cols", "14", "--seed", "9", "--clusters", "10",
        "--out", region.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "build-region failed: {out:?}");

    // Serve on an ephemeral port, lingering long enough for `xar top`
    // to scrape one frame; read the bound address off stdout.
    let mut child = Command::new(env!("CARGO_BIN_EXE_xar"))
        .args([
            "simulate", "--region", region.to_str().unwrap(), "--trips", "300",
            "--serve", "127.0.0.1:0", "--tick-ms", "50", "--linger-s", "20",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn simulate --serve");
    let addr = {
        use std::io::{BufRead, BufReader};
        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = BufReader::new(stdout).lines();
        let line = loop {
            match lines.next() {
                Some(Ok(l)) if l.contains("http://") => break l,
                Some(Ok(_)) => continue,
                other => panic!("no ops-plane line before stdout closed: {other:?}"),
            }
        };
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        line.split("http://").nth(1).expect("address").trim().to_string()
    };

    // The first window tick lands ~tick-ms after startup; retry until
    // the frame carries rolling data (bounded by the linger window).
    let mut frame = String::new();
    let mut ok = false;
    for _ in 0..40 {
        let out = xar(&["top", "--connect", &addr, "--frames", "1", "--plain"]);
        assert_eq!(code(&out), 0, "{out:?}");
        frame = String::from_utf8_lossy(&out.stdout).into_owned();
        if frame.contains("rolling series") {
            ok = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let _ = child.kill();
    let _ = child.wait();
    assert!(ok, "no rolling data ever appeared:\n{frame}");
    assert!(frame.contains("requests:"), "{frame}");
    assert!(!frame.contains('\x1b'), "--plain must not emit ANSI escapes: {frame}");
}

#[test]
fn simulate_max_backlog_gate_exits_10() {
    let dir = scratch("backlog_gate");
    let region = dir.join("region.xarr");
    let out = xar(&[
        "build-region", "--rows", "14", "--cols", "14", "--seed", "3", "--clusters", "10",
        "--out", region.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "build-region failed: {out:?}");

    // A healthy run drains its backlog to 0 by exit, so any sane gate
    // passes…
    let out = xar(&[
        "simulate", "--region", region.to_str().unwrap(), "--trips", "200",
        "--max-backlog", "64",
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("backlog gate   :"), "{stdout}");

    // …and an impossible gate (-1 < the drained backlog of 0) pins the
    // exit code deterministically without needing a stuck reader.
    let out = xar(&[
        "simulate", "--region", region.to_str().unwrap(), "--trips", "200",
        "--max-backlog", "-1",
    ]);
    assert_eq!(code(&out), 10, "{out:?}");
    let msg = String::from_utf8_lossy(&out.stderr);
    assert!(msg.contains("exceeds --max-backlog"), "{msg}");

    // Unparseable gate value is a generic CLI error, not code 10.
    let out = xar(&[
        "simulate", "--region", region.to_str().unwrap(), "--max-backlog", "soon",
    ]);
    assert_eq!(code(&out), 1, "{out:?}");
}

#[test]
fn profile_writes_validated_artifacts_in_both_formats() {
    let dir = scratch("profile_cli");

    // Collapsed stacks: the command must self-validate (re-parse its
    // own artifact) and say so.
    let collapsed = dir.join("xar.collapsed");
    let out = xar(&[
        "profile", "--out", collapsed.to_str().unwrap(), "--rows", "14", "--cols", "14",
        "--trips", "300", "--seed", "11",
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("validated      : round-trip ok"), "{stdout}");
    let text = std::fs::read_to_string(&collapsed).expect("collapsed artifact");
    // Every line is `frame;frame;... weight` — spot-check the shape and
    // that engine spans made it into the stacks.
    assert!(text.lines().all(|l| l.rsplit_once(' ').is_some_and(
        |(stack, w)| !stack.is_empty() && w.parse::<u64>().is_ok()
    )), "malformed collapsed output:\n{text}");
    assert!(text.contains("request;"), "no request root frames:\n{text}");

    // Speedscope JSON, with allocation attribution enabled.
    let speedscope = dir.join("xar.speedscope.json");
    let out = xar(&[
        "profile", "--out", speedscope.to_str().unwrap(), "--format", "speedscope",
        "--alloc", "--rows", "14", "--cols", "14", "--trips", "300", "--seed", "11",
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("validated      : round-trip ok"), "{stdout}");
    assert!(stdout.contains("span (allocations)"), "{stdout}");
    let json = std::fs::read_to_string(&speedscope).expect("speedscope artifact");
    assert!(json.contains("\"$schema\""), "not a speedscope document:\n{json}");

    // An unknown format is rejected before any simulation runs.
    let out = xar(&["profile", "--out", collapsed.to_str().unwrap(), "--format", "svg"]);
    assert_eq!(code(&out), 1, "{out:?}");
}

#[test]
fn logs_exit_codes_are_distinct_per_failure_class() {
    let dir = scratch("logs_codes");

    // 2: file unreadable.
    let out = xar(&["logs", "--in", dir.join("missing.jsonl").to_str().unwrap()]);
    assert_eq!(code(&out), 2, "{out:?}");

    // 2: not a valid events file.
    let bad = dir.join("bad.jsonl");
    write(&bad, "this is not an events file");
    let out = xar(&["logs", "--in", bad.to_str().unwrap()]);
    assert_eq!(code(&out), 2, "{out:?}");

    // 3: structurally valid file with zero events.
    let empty = dir.join("empty.jsonl");
    write(
        &empty,
        "{\"type\":\"meta\",\"version\":1,\"segment_len\":4096}\n\
         {\"type\":\"drops\",\"emitted\":0,\"dropped\":0,\"kept\":0}\n",
    );
    let out = xar(&["logs", "--in", empty.to_str().unwrap()]);
    assert_eq!(code(&out), 3, "{out:?}");

    // 9: invalid filter values, each naming the offending flag. These
    // are validated before the file is opened.
    let missing = dir.join("missing.jsonl").to_str().unwrap().to_string();
    for args in [
        ["logs", "--in", &missing, "--outcome", "rejected"],
        ["logs", "--in", &missing, "--reason", "bad_luck"],
        ["logs", "--in", &missing, "--slower-than", "fast"],
        ["logs", "--in", &missing, "--slower-than", "-5"],
        ["logs", "--in", &missing, "--request", "abc"],
        ["logs", "--in", &missing, "--top", "-1"],
    ] {
        let out = xar(&args);
        assert_eq!(code(&out), 9, "{args:?} -> {out:?}");
        let msg = String::from_utf8_lossy(&out.stderr);
        assert!(msg.contains(args[3].trim_start_matches('-')), "{args:?}: {msg}");
    }

    // 1: missing required flag.
    let out = xar(&["logs"]);
    assert_eq!(code(&out), 1, "{out:?}");
}

#[test]
fn logs_answers_why_for_every_unserved_request_of_a_real_run() {
    let dir = scratch("logs_real");
    let region = dir.join("region.xarr");
    let out = xar(&[
        "build-region", "--rows", "14", "--cols", "14", "--seed", "21", "--clusters", "10",
        "--out", region.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "build-region failed: {out:?}");

    // A run with the event sink on writes the JSONL file and reports
    // conserved accounting on stdout.
    let events = dir.join("events.jsonl");
    let out = xar(&[
        "simulate", "--region", region.to_str().unwrap(), "--trips", "400",
        "--events-out", events.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("events         :"), "{stdout}");

    // The healthy path: the file parses, histograms print, exit 0.
    let out = xar(&["logs", "--in", events.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{out:?}");
    let summary = String::from_utf8_lossy(&out.stdout);
    assert!(summary.contains("outcomes       :"), "{summary}");

    // The acceptance property: every unserved request carries a typed
    // reason — filtering for reason=unknown matches nothing (exit 3).
    let out = xar(&["logs", "--in", events.to_str().unwrap(), "--reason", "unknown"]);
    assert_eq!(code(&out), 3, "unknown reasons leaked into a real run: {out:?}");

    // And any single request id can be interrogated (exit 0 when the
    // id exists in the file, with its full record printed).
    let out = xar(&["logs", "--in", events.to_str().unwrap(), "--request", "0"]);
    assert_eq!(code(&out), 0, "{out:?}");
    let record = String::from_utf8_lossy(&out.stdout);
    assert!(record.contains("req 0"), "{record}");
}

#[test]
fn unknown_commands_and_flags_exit_1_naming_them() {
    // A typo, a flag another subcommand reads, and flags that no
    // subcommand accepts any more are all rejected before any work
    // starts, each naming the offending flag.
    for args in [
        &["simulate", "--thread", "4"][..],
        &["simulate", "--publish-coalesce-us", "500"][..],
        &["simulate", "--check"][..],
        &["inspect", "--trips", "5"][..],
        &["simulate", "--against", "baseline.json"][..],
        &["simulate", "--tolerance", "10"][..],
        &["simulate", "--min-scaling", "0.8"][..],
        &["simulate", "--max-p50-us", "200"][..],
        &["simulate", "--max-p99-ratio", "25"][..],
        &["simulate", "--searches", "4000"][..],
        &["simulate", "--storm", "400"][..],
        &["simulate", "--dispatch", "nonsense"][..],
        &["simulate", "--dispatch", "batch:"][..],
        &["simulate", "--dispatch", "batch:-50"][..],
        &["simulate", "--dispatch", "batch:1.5"][..],
    ] {
        let out = xar(args);
        assert_eq!(code(&out), 1, "{args:?} -> {out:?}");
        let msg = String::from_utf8_lossy(&out.stderr);
        assert!(msg.contains(&format!("unknown flag {}", args[1])), "{args:?}: {msg}");
    }

    // `bench` is no longer a command.
    let out = xar(&["bench", "--threads", "1"]);
    assert_eq!(code(&out), 1, "{out:?}");
    let msg = String::from_utf8_lossy(&out.stderr);
    assert!(msg.contains("unknown command 'bench'"), "{msg}");
}
