//! Command line of the serving-engine benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload day_replay --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints the run's environment, one `name = value unit` line per
//! metric, and as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exits 0 when every
//! audit passed, 1 when one failed (the result is still printed) and 2
//! on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use xar_perfbench::{run, Options, Size, Workload};

const USAGE: &str = "usage: xar-perfbench --workload <day_replay|look_to_book|metro_write> \
--seed <u64> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not '{v}'")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    // Spans go beside the benchmark's sources, inside the checkout; one
    // file per workload, replaced by its next traced run, so repeated
    // runs do not pile up files of tens of megabytes.
    let spans_out = trace.then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.tsv", workload.name()))
    });
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
        setups: 3,
        spans_out,
    })
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let r = run(&opts);
    let e = &r.env;
    println!(
        "# env {{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"clients\": {}, \"shards\": {}, \
         \"git_commit\": \"{}\", \"trips\": {}, \"replays\": {}, \"decision_samples\": {}, \"trace\": {}}}",
        e.workload,
        e.seed,
        e.nproc,
        e.clients,
        e.shards,
        git_commit(),
        e.trips,
        e.replays,
        e.decision_samples,
        u8::from(opts.trace)
    );
    for note in &r.notes {
        println!("# {note}");
    }
    for v in &r.violations {
        println!("# AUDIT FAILED: {v}");
    }
    for m in &r.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", r.to_json());
    if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
