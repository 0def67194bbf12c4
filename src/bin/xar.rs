//! `xar` — command-line front-end to the Xhare-a-Ride system.
//!
//! ```text
//! xar build-region [--rows N] [--cols N] [--seed S] [--delta M]
//!                  [--clusters C] --out region.xarr
//!     Generate a synthetic city, run the pre-processing pipeline and
//!     persist the region index.
//!
//! xar inspect --region region.xarr
//!     Print the discretization summary of a persisted region.
//!
//! xar simulate --region region.xarr [--trips N] [--seed S] [--k N]
//!              [--walk M] [--window S] [--detour M] [--json FILE]
//!              [--metrics-out FILE] [--trace-out FILE]
//!              [--trace-slow-ms F] [--trace-sample P] [--trace-buffer N]
//!              [--events-out FILE] [--baseline tshare] [--threads N]
//!              [--shards N]
//!     Run the paper's §X.A.2 ride-sharing simulation over a synthetic
//!     taxi day and report outcome + latency statistics. `--json` dumps
//!     the full report (counters, percentiles, metrics) as JSON;
//!     `--metrics-out` dumps just the metric-registry snapshot
//!     (schema in EXPERIMENTS.md). `--trace-out` enables the flight
//!     recorder and writes Chrome trace-event JSON (Perfetto-loadable;
//!     tail sampling keeps every request slower than `--trace-slow-ms`,
//!     default 1.0, plus a `--trace-sample` fraction of the rest,
//!     default 0.01). `--baseline tshare` replays the same trips
//!     through the T-Share baseline so the trace and metrics cover
//!     both systems. `--threads N` (default 1) drives the replay from
//!     N closed-loop workers against the cluster-sharded engine
//!     (`--shards`, default 8). An invalid `--threads` or `--shards`
//!     value, or a `--walk`, `--window` or `--detour` that is not a
//!     finite non-negative number, exits with code 9.
//!     `--events-out FILE` turns on the wide-event sink and writes one
//!     structured decision record per request (outcome, typed rejection
//!     reason, search tier, candidate count, latencies) as segmented
//!     JSONL — the input of `xar logs`.
//!
//! xar logs --in events.jsonl [--outcome X] [--reason Y]
//!          [--slower-than MS] [--request ID] [--top N]
//!     Forensics over a `--events-out` file: per-request decision
//!     records with outcome / rejection-reason / latency filters.
//!     Prints the outcome and rejection-reason histograms, then the
//!     matching records (slowest first, `--top N`, default 10, 0 =
//!     all). `--request ID` answers "why was request R rejected" with
//!     R's full record. Exit codes: 2 = unreadable / invalid file,
//!     3 = no events (or none matching the filters), 9 = invalid
//!     filter value.
//!
//! xar trace --in trace.json [--top N] [--check]
//!     Print the N slowest request timelines (per-span self-time,
//!     lifecycle milestones) from a `--trace-out` file — or, with
//!     `--check`, validate the file and exit with a distinct code per
//!     failure class: 2 = unreadable / invalid JSON, 3 = no complete
//!     request timeline, 4 = missing drop counter.
//!
//! xar top --connect ADDR [--interval-ms N] [--frames N] [--plain]
//!     Live terminal dashboard over a process started with
//!     `xar simulate --serve ADDR`: scrapes `/metrics`, renders rolling
//!     p50/p99/throughput, per-cluster ride occupancy, the
//!     rejection-reason breakdown, the snapshot publication plane
//!     (publishes / freed / retire backlog), tail latency exemplars
//!     (trace ids of the slowest recent requests) and firing SLO
//!     alerts. `--frames N` exits after N refreshes
//!     (CI); `--plain` skips the ANSI screen clearing.
//!
//! xar profile --out FILE [--format collapsed|speedscope] [--alloc]
//!             [--rows N] [--cols N] [--seed S] [--trips N] [--top N]
//!     Continuous-profiling artifact: run an in-process simulation with
//!     the flight recorder keeping every trace, fold the span trees
//!     into a hierarchical self/total-time profile, and write it as
//!     collapsed stacks (flamegraph.pl / inferno) or speedscope JSON.
//!     The written artifact is re-parsed with the in-repo reader before
//!     the command reports success. `--alloc` additionally attributes
//!     heap bytes/allocations to the innermost open span and prints the
//!     per-span table. A top-N self-time summary is always printed.
//! ```
//!
//! Live operational flags on `simulate`: `--serve ADDR` starts the
//! embedded ops-plane HTTP server (`/metrics` with OpenMetrics latency
//! exemplars, `/snapshot`, `/health`, `/alerts`, `/debug/profile`,
//! `/debug/epoch`, `/debug/shards`, `/debug/events`; `ADDR` may use
//! port 0 — the bound
//! address is printed); `--slo RULE` (repeatable) installs burn-rate
//! SLO rules (syntax in EXPERIMENTS.md); `--slo-fail` exits with code 8
//! when any rule fired during the run; `--tick-ms N` sets the windowing
//! tick; `--linger-s F` keeps the process (and server) alive after the
//! simulation so scrapers can observe the final state; `--max-backlog N`
//! turns `/health` 503 while the snapshot retire backlog exceeds `N`
//! and exits with code 10 when it still does at the end of the run.
//!
//! Each subcommand accepts exactly the flags listed above; any other
//! flag — a typo, or one a subcommand does not read — exits with code 1
//! and names the flag.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::process::ExitCode;
use std::sync::Arc;

use xar_obs::serve::OpsPlane;
use xar_obs::slo::{SloEngine, SloRule};
use xar_obs::window::{WindowConfig, WindowStore};

use xar_obs::chrome::{export_chrome, parse_chrome, Attrs, Timeline};
use xar_obs::json::JsonValue;
use xar_obs::TraceConfig;
use xhare_a_ride::core::{
    EngineConfig, Reason, ShardedXarEngine, XarEngine, DEFAULT_SHARDS, MAX_SHARDS,
};
use xhare_a_ride::discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xhare_a_ride::roadnet::{sample_pois, CityConfig, PoiConfig};
use xhare_a_ride::tshare::{TShareConfig, TShareEngine};
use xhare_a_ride::workload::{
    generate_trips, percentile_ns, run_parallel_dispatch, run_simulation, DispatchSpec,
    ShardedXarBackend, SimConfig, TShareBackend, TripGenConfig, XarBackend,
};

/// Flags that take no value (presence alone means `true`).
const SWITCHES: &[&str] = &["check", "slo-fail", "plain", "alloc"];

/// A subcommand's entry point.
type Command = fn(&Flags) -> Result<(), CmdError>;

/// Every subcommand, the flags it reads, and its entry point. A flag
/// outside a subcommand's list is rejected before the command runs.
const COMMANDS: &[(&str, &[&str], Command)] = &[
    ("build-region", &["rows", "cols", "seed", "delta", "clusters", "out"], build_region),
    ("inspect", &["region"], inspect),
    (
        "simulate",
        &[
            "region", "trips", "seed", "k", "walk", "window", "detour", "threads", "shards",
            "json", "metrics-out", "trace-out", "trace-slow-ms", "trace-sample", "trace-buffer",
            "events-out", "baseline", "serve", "slo", "slo-fail", "tick-ms", "linger-s",
            "max-backlog",
        ],
        simulate,
    ),
    ("logs", &["in", "outcome", "reason", "slower-than", "request", "top"], logs_cmd),
    ("trace", &["in", "top", "check"], trace_cmd),
    ("top", &["connect", "interval-ms", "frames", "plain"], top_cmd),
    (
        "profile",
        &["out", "format", "alloc", "rows", "cols", "seed", "trips", "top"],
        profile_cmd,
    ),
];

/// Global allocator: the profiling pass-through. When `xar profile
/// --alloc` is off (the default, and every other subcommand) the hook
/// is one relaxed atomic load per allocation — the disabled-path cost
/// is pinned to zero extra allocations by `crates/obs/tests/
/// profile_overhead.rs`.
#[global_allocator]
static GLOBAL_ALLOC: xar_obs::profile::ProfilingAlloc = xar_obs::profile::ProfilingAlloc::system();

/// A command error carrying its process exit code, so callers (CI, the
/// smoke tests) can branch on the failure class.
struct CmdError {
    code: u8,
    msg: String,
}

impl CmdError {
    /// A generic failure (exit code 1).
    fn general(msg: impl Into<String>) -> Self {
        Self { code: 1, msg: msg.into() }
    }

    /// A failure with a specific exit code.
    fn coded(code: u8, msg: impl Into<String>) -> Self {
        Self { code, msg: msg.into() }
    }
}

impl From<String> for CmdError {
    fn from(msg: String) -> Self {
        CmdError::general(msg)
    }
}

/// Minimal `--key value` flag parser (with a fixed set of valueless
/// switches). Repeated flags accumulate: `get`/`get_opt` read the last
/// occurrence, [`Flags::get_all`] returns every one (`--slo` rules).
struct Flags {
    values: HashMap<String, Vec<String>>,
}

impl Flags {
    /// Parse `args`, rejecting any flag not in `accepted`.
    fn parse(args: &[String], accepted: &[&str]) -> Result<Self, String> {
        let mut values: HashMap<String, Vec<String>> = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected positional argument '{a}'"));
            };
            if !accepted.contains(&key) {
                return Err(format!("unknown flag --{key}"));
            }
            if SWITCHES.contains(&key) {
                values.entry(key.to_string()).or_default().push("true".to_string());
                continue;
            }
            let Some(v) = it.next() else {
                return Err(format!("flag --{key} is missing a value"));
            };
            values.entry(key.to_string()).or_default().push(v.clone());
        }
        Ok(Self { values })
    }

    fn switch(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get_opt(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }

    fn get_opt(&self, key: &str) -> Option<&str> {
        self.values.get(key).and_then(|v| v.last()).map(String::as_str)
    }

    fn get_all(&self, key: &str) -> &[String] {
        self.values.get(key).map(Vec::as_slice).unwrap_or_default()
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get_opt(key).ok_or_else(|| format!("missing required flag --{key}"))
    }
}

fn usage() -> &'static str {
    "usage:\n  xar build-region [--rows N] [--cols N] [--seed S] [--delta M | --clusters C] --out FILE\n  xar inspect --region FILE\n  xar simulate --region FILE [--trips N] [--seed S] [--k N] [--walk M] [--window S] [--detour M] [--threads N] [--shards N] [--json FILE] [--metrics-out FILE] [--trace-out FILE] [--trace-slow-ms F] [--trace-sample P] [--trace-buffer N] [--events-out FILE] [--baseline tshare] [--serve ADDR] [--slo RULE]... [--slo-fail] [--tick-ms N] [--linger-s F] [--max-backlog N]\n  xar logs --in FILE [--outcome X] [--reason Y] [--slower-than MS] [--request ID] [--top N]\n  xar trace --in FILE [--top N] [--check]\n  xar top --connect ADDR [--interval-ms N] [--frames N] [--plain]\n  xar profile --out FILE [--format collapsed|speedscope] [--alloc] [--rows N] [--cols N] [--seed S] [--trips N] [--top N]"
}

fn build_region(flags: &Flags) -> Result<(), CmdError> {
    let rows = lattice_flag(flags, "rows", 60)?;
    let cols = lattice_flag(flags, "cols", 60)?;
    let seed: u64 = flags.get("seed", 1)?;
    let goal = if flags.get_opt("clusters").is_some() {
        ClusterGoal::FixedCount(checked_flag(
            flags,
            "clusters",
            1,
            |c| c >= 1,
            "a positive integer",
        )?)
    } else {
        ClusterGoal::Delta(non_negative_flag(flags, "delta", 250.0)?)
    };
    let out = flags.require("out")?;

    eprintln!("generating {rows}x{cols} city (seed {seed})...");
    let graph = Arc::new(CityConfig::manhattan(rows, cols, seed).generate());
    let pois = sample_pois(&graph, &PoiConfig { count: rows * cols / 2, ..Default::default() });
    eprintln!(
        "pre-processing: {} nodes, {} POIs -> landmarks -> clusters...",
        graph.node_count(),
        pois.len()
    );
    let region =
        RegionIndex::build(graph, &pois, RegionConfig { cluster_goal: goal, ..Default::default() });
    region.save(out).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "region saved to {out}: {} landmarks, {} clusters, epsilon {:.0} m, tables {:.1} MiB",
        region.landmark_count(),
        region.cluster_count(),
        region.epsilon_m(),
        region.heap_bytes() as f64 / (1024.0 * 1024.0),
    );
    Ok(())
}

fn inspect(flags: &Flags) -> Result<(), CmdError> {
    let path = flags.require("region")?;
    let region = RegionIndex::load(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let g = region.graph();
    println!("region file    : {path}");
    println!("road network   : {} way-points, {} segments", g.node_count(), g.edge_count());
    println!("grid           : {} x {} cells of {:.0} m", region.grid().cols(), region.grid().rows(), region.grid().cell_m());
    println!("landmarks      : {}", region.landmark_count());
    println!("clusters       : {}", region.cluster_count());
    println!("epsilon        : {:.0} m (worst intra-cluster driving distance)", region.epsilon_m());
    println!("tables in RAM  : {:.1} MiB", region.heap_bytes() as f64 / (1024.0 * 1024.0));
    let sizes: Vec<usize> = (0..region.cluster_count() as u32)
        .map(|c| region.cluster_members(xhare_a_ride::discretize::ClusterId(c)).len())
        .collect();
    let max = sizes.iter().max().copied().unwrap_or(0);
    let avg = sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64;
    println!("cluster sizes  : avg {avg:.1} landmarks, max {max}");
    Ok(())
}

/// Parse the numeric flag `key` (absent: `default`). A value that
/// does not parse, or fails `ok`, exits with the distinct code 9 and a
/// message naming the flag and `expected`, so scripts can tell a bad
/// invocation from a failed run.
fn checked_flag<T: std::str::FromStr + Copy>(
    flags: &Flags,
    key: &str,
    default: T,
    ok: impl Fn(T) -> bool,
    expected: &str,
) -> Result<T, CmdError> {
    match flags.get_opt(key) {
        None => Ok(default),
        Some(v) => match v.parse::<T>() {
            Ok(x) if ok(x) => Ok(x),
            _ => Err(CmdError::coded(9, format!("--{key} must be {expected}, got '{v}'"))),
        },
    }
}

/// [`checked_flag`] for a distance or duration: finite and ≥ 0.
fn non_negative_flag(flags: &Flags, key: &str, default: f64) -> Result<f64, CmdError> {
    let ok = |x: f64| x.is_finite() && x >= 0.0;
    checked_flag(flags, key, default, ok, "a finite non-negative number")
}

/// [`checked_flag`] for a city lattice side: the generator needs at
/// least a 2×2 grid.
fn lattice_flag(flags: &Flags, key: &str, default: usize) -> Result<usize, CmdError> {
    checked_flag(flags, key, default, |n| n >= 2, "an integer of at least 2")
}

/// The simulation's system under test: the serial single-engine
/// backend (default; carries the full request-tracing path) or the
/// sharded engine driven by N closed-loop workers.
enum SimUnderTest {
    Serial(Box<XarBackend>),
    Parallel(ShardedXarBackend),
}

fn simulate(flags: &Flags) -> Result<(), CmdError> {
    // Validated before any heavy work so a bad value fails fast with
    // its distinct exit code.
    let threads = checked_flag(
        flags,
        "threads",
        1,
        |n| (1..=256).contains(&n),
        "an integer in 1..=256 (use --threads 1 for the serial driver)",
    )?;
    let shards = checked_flag(
        flags,
        "shards",
        DEFAULT_SHARDS,
        |n| (1..=MAX_SHARDS).contains(&n),
        &format!("an integer in 1..={MAX_SHARDS}"),
    )?;
    let walk = non_negative_flag(flags, "walk", 800.0)?;
    let window = non_negative_flag(flags, "window", 1_200.0)?;
    let detour = non_negative_flag(flags, "detour", 4_000.0)?;
    let path = flags.require("region")?;
    let trips_n: usize = flags.get("trips", 10_000)?;
    let seed: u64 = flags.get("seed", 0x7A11)?;
    let k: usize = flags.get("k", usize::MAX)?;

    let events_out = flags.get_opt("events-out").map(str::to_string);
    if events_out.is_some() {
        xar_obs::events::configure(xar_obs::events::DEFAULT_CAPACITY);
        xar_obs::events::set_enabled(true);
    }
    let trace_out = flags.get_opt("trace-out").map(str::to_string);
    if trace_out.is_some() {
        let slow_ms: f64 = flags.get("trace-slow-ms", 1.0)?;
        let sample: f64 = flags.get("trace-sample", 0.01)?;
        let buffer: usize = flags.get("trace-buffer", 262_144)?;
        if !(0.0..=1.0).contains(&sample) {
            return Err(CmdError::general("--trace-sample must be a probability in [0, 1]"));
        }
        let rec = xar_obs::trace::recorder();
        rec.configure(TraceConfig {
            slow_threshold_ns: (slow_ms * 1e6).max(0.0) as u64,
            sample_per_mille: (sample * 1000.0).round() as u32,
            capacity_events: buffer,
            ..TraceConfig::default()
        });
        rec.set_enabled(true);
    }

    let region =
        Arc::new(RegionIndex::load(path).map_err(|e| format!("cannot read {path}: {e}"))?);
    let trips = generate_trips(
        region.graph(),
        &TripGenConfig { count: trips_n, seed, ..Default::default() },
    );
    eprintln!("simulating {} trips on {} clusters...", trips.len(), region.cluster_count());
    let mut sim = if threads == 1 {
        SimUnderTest::Serial(Box::new(XarBackend::new(XarEngine::new(
            Arc::clone(&region),
            EngineConfig::default(),
        ))))
    } else {
        eprintln!("parallel driver: {threads} worker threads over {shards} shards");
        SimUnderTest::Parallel(ShardedXarBackend::new(ShardedXarEngine::new(
            Arc::clone(&region),
            EngineConfig::default(),
            shards,
        )))
    };
    let cfg = SimConfig { walk_limit_m: walk, window_s: window, detour_limit_m: detour, k, ..Default::default() };

    // Live operational plane: windowed series + SLO rules + optionally
    // the embedded HTTP server, all over the backend's own registry.
    let serve_addr = flags.get_opt("serve").map(str::to_string);
    let slo_fail = flags.switch("slo-fail");
    let tick_ms: u64 = flags.get("tick-ms", 1_000)?;
    let linger_s: f64 = flags.get("linger-s", 0.0)?;
    let max_backlog: Option<i64> = match flags.get_opt("max-backlog") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| {
            CmdError::general(format!("invalid value '{v}' for --max-backlog"))
        })?),
    };
    if tick_ms == 0 {
        return Err(CmdError::general("--tick-ms must be positive"));
    }
    let mut rules = Vec::new();
    for spec in flags.get_all("slo") {
        rules.push(SloRule::parse(spec).map_err(|e| format!("--slo '{spec}': {e}"))?);
    }
    let plane = if serve_addr.is_some() || !rules.is_empty() || slo_fail {
        let registry = match &sim {
            SimUnderTest::Serial(b) => b.engine.metrics().registry(),
            SimUnderTest::Parallel(b) => b.engine.registry(),
        };
        // Ring capacity: enough ticks to cover the 60 s rolling window.
        let capacity = (60_000_u64.div_ceil(tick_ms) as usize + 1).clamp(8, 4_096);
        let mut plane = OpsPlane::new(
            registry,
            Arc::new(WindowStore::new(WindowConfig { tick_ms, capacity })),
            Arc::new(SloEngine::new(rules)),
        );
        plane.max_backlog = max_backlog;
        // Live debug introspection: the epoch domain is process-global;
        // the shard map exists only on the parallel driver.
        plane.debug.epoch =
            Some(Arc::new(|| xhare_a_ride::core::snapshot::epoch_debug().to_json()));
        if let SimUnderTest::Parallel(b) = &sim {
            let engine = b.engine.clone();
            plane.debug.shards = Some(Arc::new(move || engine.shard_debug_json()));
        }
        Some(plane)
    } else {
        None
    };
    let mut server = None;
    let mut inline_ticker = None;
    if let Some(plane) = &plane {
        if let Some(addr) = &serve_addr {
            let s = xar_obs::serve::serve(addr.as_str(), plane.clone())
                .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
            // The bound address line is machine-read (CI, `xar top`
            // scripts) — keep its shape stable and flush it promptly.
            println!("ops plane      : http://{}", s.local_addr());
            std::io::stdout().flush().ok();
            server = Some(s);
        } else {
            // SLO rules without a server still need a ticker so the
            // burn-rate windows advance during the run.
            let plane = plane.clone();
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let stop2 = Arc::clone(&stop);
            let handle = std::thread::spawn(move || {
                let tick = std::time::Duration::from_millis(plane.window.tick_ms());
                let slice = tick.min(std::time::Duration::from_millis(25));
                let mut elapsed = std::time::Duration::ZERO;
                while !stop2.load(std::sync::atomic::Ordering::SeqCst) {
                    std::thread::sleep(slice);
                    elapsed += slice;
                    if elapsed >= tick {
                        elapsed = std::time::Duration::ZERO;
                        plane.tick();
                    }
                }
            });
            inline_ticker = Some((stop, handle));
        }
    }

    let report = match &mut sim {
        SimUnderTest::Serial(b) => run_simulation(b.as_mut(), &trips, &cfg),
        SimUnderTest::Parallel(b) => {
            run_parallel_dispatch(&*b, &trips, &cfg, threads, DispatchSpec::First)
        }
    };

    // Snapshot the wide-event plane before the baseline replay so the
    // file covers exactly the system under test.
    if let Some(path) = &events_out {
        xar_obs::events::set_enabled(false);
        let snap = xar_obs::events::snapshot();
        std::fs::write(path, xar_obs::events::to_jsonl(&snap))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "events         : {path} ({} of {} events kept, {} dropped)",
            snap.kept(),
            snap.emitted,
            snap.dropped,
        );
    }

    println!("trips          : {}", trips.len());
    println!("booked         : {} ({:.1}% share rate)", report.booked, report.share_rate() * 100.0);
    println!("created        : {}", report.created);
    println!("unservable     : {}", report.unservable);
    println!(
        "search latency : avg {:.1} µs, p95 {:.1} µs, p99 {:.1} µs",
        report.mean_search_ms() * 1e3,
        percentile_ns(&report.search_ns, 95.0) / 1e3,
        percentile_ns(&report.search_ns, 99.0) / 1e3,
    );
    println!(
        "create latency : p50 {:.1} µs   book latency: p50 {:.1} µs",
        percentile_ns(&report.create_ns, 50.0) / 1e3,
        percentile_ns(&report.book_ns, 50.0) / 1e3,
    );
    let (sps, heap_bytes) = match &sim {
        SimUnderTest::Serial(b) => {
            (b.engine.stats().snapshot().shortest_paths, b.engine.heap_bytes())
        }
        SimUnderTest::Parallel(b) => {
            (b.engine.stats().snapshot().shortest_paths, b.engine.heap_bytes())
        }
    };
    println!("shortest paths : {sps} (never during search)");
    println!("runtime memory : {:.1} MiB", heap_bytes as f64 / (1024.0 * 1024.0));
    for line in report.phase_summary() {
        println!("phase          : {line}");
    }
    if let Some(json) = flags.get_opt("json") {
        std::fs::write(json, report.to_json())
            .map_err(|e| format!("cannot write {json}: {e}"))?;
        println!("raw report     : {json}");
    }
    if let Some(path) = flags.get_opt("metrics-out") {
        let registry = report.registry.as_ref().expect("simulation attaches a registry");
        std::fs::write(path, registry.snapshot_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("metrics        : {path}");
    }

    if let Some(baseline) = flags.get_opt("baseline") {
        if baseline != "tshare" {
            return Err(CmdError::general(format!(
                "unknown baseline '{baseline}' (only 'tshare' is supported)"
            )));
        }
        eprintln!("replaying {} trips through the T-Share baseline...", trips.len());
        let mut ts = TShareBackend::new(TShareEngine::new(
            Arc::clone(region.graph()),
            TShareConfig::default(),
        ));
        let tr = run_simulation(&mut ts, &trips, &cfg);
        println!(
            "baseline       : tshare booked {} ({:.1}% share rate), search p95 {:.1} µs",
            tr.booked,
            tr.share_rate() * 100.0,
            percentile_ns(&tr.search_ns, 95.0) / 1e3,
        );
    }

    if let Some(path) = trace_out {
        let rec = xar_obs::trace::recorder();
        rec.set_enabled(false);
        std::fs::write(&path, export_chrome(&rec.snapshot()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let st = rec.stats();
        println!(
            "trace          : {path} ({} of {} traces kept, {} sampled out, {} events dropped)",
            st.kept_traces, st.started_traces, st.sampled_out_traces, st.dropped_events,
        );
    }

    if let Some(plane) = &plane {
        // Keep the process (and server) alive so scrapers can observe
        // the post-run state, then fold the final partial interval into
        // the windows before the SLO verdict.
        if linger_s > 0.0 {
            eprintln!("lingering {linger_s} s for scrapers...");
            std::thread::sleep(std::time::Duration::from_secs_f64(linger_s));
        }
        plane.tick();
        if let Some(mut s) = server.take() {
            s.shutdown();
        }
        if let Some((stop, handle)) = inline_ticker.take() {
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
            let _ = handle.join();
        }
        let fired: Vec<String> = plane
            .slo
            .statuses()
            .into_iter()
            .filter(|s| s.ever_fired)
            .map(|s| s.name)
            .collect();
        if !fired.is_empty() {
            println!("slo fired      : {}", fired.join(", "));
            if slo_fail {
                return Err(CmdError::coded(8, format!("SLO burn-rate alert(s) fired: {}", fired.join(", "))));
            }
        } else if !plane.slo.rules().is_empty() {
            println!("slo fired      : none");
        }
    }
    if let Some(max) = max_backlog {
        let registry = match &sim {
            SimUnderTest::Serial(b) => b.engine.metrics().registry(),
            SimUnderTest::Parallel(b) => b.engine.registry(),
        };
        let backlog = registry.gauge("engine.snapshot_backlog").get();
        println!("backlog gate   : {backlog} retired snapshot(s) pending (gate {max})");
        if backlog > max {
            return Err(CmdError::coded(
                10,
                format!(
                    "snapshot retire backlog {backlog} exceeds --max-backlog {max} — \
                     a reader is stuck pinned to an old epoch"
                ),
            ));
        }
    }
    Ok(())
}

/// Render one attribute value compactly (`3`, `2.5`, `booked`, ...).
fn attr_value(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Number(n) => format!("{n}"),
        JsonValue::String(s) => s.clone(),
        JsonValue::Array(_) | JsonValue::Object(_) => "...".into(),
    }
}

fn attr_line(attrs: &Attrs) -> String {
    let mut out = String::new();
    for (k, v) in attrs {
        out.push_str(&format!(" {k}={}", attr_value(v)));
    }
    out
}

/// Recursive span printer: duration, self-time, attrs, then nested
/// spans and the instants that fired while this span was innermost.
fn print_span(node: &xar_obs::chrome::SpanNode, root_start_us: f64, depth: usize) {
    let indent = "  ".repeat(depth);
    println!(
        "  {indent}{:<24} +{:9.1} µs  dur {:9.1} µs  self {:9.1} µs{}",
        node.name,
        node.start_us - root_start_us,
        node.dur_us,
        node.self_us,
        attr_line(&node.attrs),
    );
    for (name, ts_us, attrs) in &node.instants {
        println!(
            "  {indent}  * {:<20} +{:9.1} µs{}",
            name,
            ts_us - root_start_us,
            attr_line(attrs),
        );
    }
    for child in &node.children {
        print_span(child, root_start_us, depth + 1);
    }
}

/// `xar trace`: inspect (or, with `--check`, validate) a Chrome trace
/// file written by `xar simulate --trace-out`. Check failures exit
/// with a distinct code per class: 2 = unreadable / invalid JSON,
/// 3 = no complete request timeline, 4 = missing drop counter.
fn trace_cmd(flags: &Flags) -> Result<(), CmdError> {
    let path = flags.require("in")?;
    let top: usize = flags.get("top", 10)?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CmdError::coded(2, format!("cannot read {path}: {e}")))?;
    let parsed =
        parse_chrome(&text).map_err(|e| CmdError::coded(2, format!("{path}: {e}")))?;
    let timelines = Timeline::build(&parsed);
    let requests: Vec<&Timeline> =
        timelines.iter().filter(|t| t.root.name == "request").collect();

    if flags.switch("check") {
        // The in-tree CI validator: a trace file is healthy when it is
        // valid Chrome JSON (parse_chrome above), carries at least one
        // complete request timeline, and self-describes its drop
        // accounting.
        if requests.is_empty() {
            return Err(CmdError::coded(3, format!("{path}: no complete 'request' timeline")));
        }
        if !parsed.has_drop_counter {
            return Err(CmdError::coded(4, format!("{path}: missing 'xar' drop-counter block")));
        }
        println!(
            "ok: {} events, {} timelines ({} requests), {}/{} traces kept, {} events dropped",
            parsed.events.len(),
            timelines.len(),
            requests.len(),
            parsed.kept_traces,
            parsed.started_traces,
            parsed.dropped_events,
        );
        return Ok(());
    }

    println!(
        "{path}: {} events, {} traces kept of {} started ({} sampled out), {} events dropped",
        parsed.events.len(),
        parsed.kept_traces,
        parsed.started_traces,
        parsed.sampled_out_traces,
        parsed.dropped_events,
    );
    let mut slowest = requests;
    slowest.sort_by(|a, b| {
        b.root.dur_us.partial_cmp(&a.root.dur_us).unwrap_or(std::cmp::Ordering::Equal)
    });
    println!("{} request timelines; {} slowest:", slowest.len(), top.min(slowest.len()));
    for (i, t) in slowest.iter().take(top).enumerate() {
        println!(
            "\n#{:<2} trace {}  {:.1} µs  {} spans{}",
            i + 1,
            t.trace,
            t.root.dur_us,
            t.span_count(),
            attr_line(&t.root.attrs),
        );
        print_span(&t.root, t.root.start_us, 0);
        for (name, ts_us, attrs) in &t.lifecycle {
            println!(
                "    ~ {:<20} +{:9.1} µs{}",
                name,
                ts_us - t.root.start_us,
                attr_line(attrs),
            );
        }
    }
    Ok(())
}

/// Render one parsed wide event as a single forensics line.
fn event_line(e: &xar_obs::events::ParsedEvent) -> String {
    let mut line = format!(
        "req {:<8} t={:>8.1}s  {:<10} reason={:<24} tier={} cand={:<4} matches={:<3} \
         stale={:<2} search={:>8.1}µs book={:>7.1}µs",
        e.request_id,
        e.sim_t_s,
        e.outcome,
        e.reason,
        e.tier,
        e.candidates,
        e.matches,
        e.stale,
        e.search_ns as f64 / 1e3,
        e.book_ns as f64 / 1e3,
    );
    if let Some(ride) = e.ride {
        line.push_str(&format!(
            "  ride={ride} walk={:.0}m detour={:.0}m wait={:.0}s",
            e.walk_m, e.detour_m, e.wait_s
        ));
    }
    line
}

/// `xar logs`: query a `--events-out` JSONL file. Prints the outcome
/// and rejection-reason histograms plus the matching records, slowest
/// (search + book time) first. Exit codes: 2 = unreadable / invalid
/// file, 3 = no events (or none matching the filters), 9 = invalid
/// filter value.
fn logs_cmd(flags: &Flags) -> Result<(), CmdError> {
    let path = flags.require("in")?;

    // Validate filters before touching the file so a bad invocation
    // fails fast with its distinct code.
    let outcome = match flags.get_opt("outcome") {
        None => None,
        Some(v) if ["booked", "created", "unservable"].contains(&v) => Some(v.to_string()),
        Some(v) => {
            return Err(CmdError::coded(
                9,
                format!("--outcome must be booked|created|unservable, got '{v}'"),
            ))
        }
    };
    let reason = match flags.get_opt("reason") {
        None => None,
        // Accept exactly the closed taxonomy ("unknown" included — a
        // healthy file has none, which is precisely what one greps for).
        Some(v) if Reason::from_code(v).code() == v => Some(v.to_string()),
        Some(v) => {
            let all: Vec<&str> = Reason::ALL.iter().map(|r| r.code()).collect();
            return Err(CmdError::coded(
                9,
                format!("--reason '{v}' is not in the taxonomy ({})", all.join(", ")),
            ));
        }
    };
    let slower_than_ns = match flags.get_opt("slower-than") {
        None => None,
        Some(v) => match v.parse::<f64>() {
            Ok(ms) if ms.is_finite() && ms >= 0.0 => Some((ms * 1e6) as u64),
            _ => {
                return Err(CmdError::coded(
                    9,
                    format!("--slower-than must be a non-negative number of ms, got '{v}'"),
                ))
            }
        },
    };
    let request: Option<u64> = match flags.get_opt("request") {
        None => None,
        Some(v) => match v.parse() {
            Ok(id) => Some(id),
            Err(_) => {
                return Err(CmdError::coded(
                    9,
                    format!("--request must be a numeric request id, got '{v}'"),
                ))
            }
        },
    };
    let top: usize = flags
        .get_opt("top")
        .map_or(Ok(10), |v| {
            v.parse().map_err(|_| {
                CmdError::coded(9, format!("--top must be a non-negative integer, got '{v}'"))
            })
        })?;

    let text = std::fs::read_to_string(path)
        .map_err(|e| CmdError::coded(2, format!("cannot read {path}: {e}")))?;
    let log = xar_obs::events::parse_jsonl(&text)
        .map_err(|e| CmdError::coded(2, format!("{path}: {e}")))?;
    if log.events.is_empty() {
        return Err(CmdError::coded(3, format!("{path}: no events recorded")));
    }

    println!(
        "{path}: {} events kept of {} emitted ({} dropped)",
        log.events.len(),
        log.emitted,
        log.dropped,
    );
    let fmt_hist = |hist: &[(String, u64)]| {
        hist.iter().map(|(k, n)| format!("{k} {n}")).collect::<Vec<_>>().join("   ")
    };
    println!("outcomes       : {}", fmt_hist(&log.outcome_histogram()));
    let rejections: Vec<(String, u64)> = log
        .reason_histogram()
        .into_iter()
        .filter(|(r, _)| r != Reason::Served.code())
        .collect();
    if !rejections.is_empty() {
        println!("rejections     : {}", fmt_hist(&rejections));
    }

    let mut matched: Vec<&xar_obs::events::ParsedEvent> = log
        .events
        .iter()
        .filter(|e| outcome.as_deref().is_none_or(|o| e.outcome == o))
        .filter(|e| reason.as_deref().is_none_or(|r| e.reason == r))
        .filter(|e| slower_than_ns.is_none_or(|ns| e.search_ns + e.book_ns > ns))
        .filter(|e| request.is_none_or(|id| e.request_id == id))
        .collect();
    if matched.is_empty() {
        return Err(CmdError::coded(3, format!("{path}: no events match the filters")));
    }
    matched.sort_by_key(|e| std::cmp::Reverse(e.search_ns + e.book_ns));
    let shown = if top == 0 { matched.len() } else { top.min(matched.len()) };
    println!("matched        : {} event(s), showing {shown} (slowest first)", matched.len());
    for e in matched.iter().take(shown) {
        println!("  {}", event_line(e));
    }
    Ok(())
}

/// `xar profile`: run an in-process simulation with the flight recorder
/// keeping every trace, fold the recorded span trees into a
/// hierarchical self/total-time profile, and write a flamegraph
/// artifact (collapsed stacks or speedscope JSON). The written file is
/// re-parsed with the in-repo reader and its total self-time compared
/// against the in-memory profile before success is reported — CI greps
/// the `validated` line.
fn profile_cmd(flags: &Flags) -> Result<(), CmdError> {
    let rows = lattice_flag(flags, "rows", 24)?;
    let cols = lattice_flag(flags, "cols", 24)?;
    let out = flags.require("out")?.to_string();
    let format = flags.get_opt("format").unwrap_or("collapsed").to_string();
    if format != "collapsed" && format != "speedscope" {
        return Err(CmdError::general(format!(
            "unknown --format '{format}' (expected 'collapsed' or 'speedscope')"
        )));
    }
    let seed: u64 = flags.get("seed", 0x9F0F)?;
    let trips_n: usize = flags.get("trips", 2_000)?;
    let top: usize = flags.get("top", 10)?;
    let alloc = flags.switch("alloc");

    // Keep every trace: the profile wants the whole run, not the
    // tail-sampled slice the flight recorder defaults to.
    let rec = xar_obs::trace::recorder();
    rec.configure(TraceConfig::keep_all());
    rec.set_enabled(true);
    if alloc {
        xar_obs::profile::reset_alloc_profile();
        xar_obs::profile::set_alloc_profiling(true);
    }

    eprintln!("profile city: {rows}x{cols} (seed {seed}), {trips_n} trips");
    let graph = Arc::new(CityConfig::manhattan(rows, cols, seed).generate());
    let pois = sample_pois(&graph, &PoiConfig { count: rows * cols / 2, ..Default::default() });
    let region = Arc::new(RegionIndex::build(
        Arc::clone(&graph),
        &pois,
        RegionConfig { cluster_goal: ClusterGoal::Delta(200.0), ..Default::default() },
    ));
    let trips =
        generate_trips(&graph, &TripGenConfig { count: trips_n, seed, ..Default::default() });
    let mut backend =
        XarBackend::new(XarEngine::new(Arc::clone(&region), EngineConfig::default()));
    let report = run_simulation(&mut backend, &trips, &SimConfig::default());

    if alloc {
        xar_obs::profile::set_alloc_profiling(false);
    }
    rec.set_enabled(false);
    let profile = xar_obs::profile::Profile::from_snapshot(&rec.snapshot());
    if profile.spans == 0 {
        return Err(CmdError::general("the run recorded no spans — nothing to profile"));
    }
    println!("simulated      : {} trips ({} booked, {} created)", trips.len(), report.booked, report.created);

    let doc = if format == "collapsed" {
        profile.to_collapsed()
    } else {
        profile.to_speedscope()
    };
    std::fs::write(&out, &doc).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "profile        : {out} ({format}, {} traces, {} spans, {:.1} ms total)",
        profile.traces,
        profile.spans,
        profile.total_ns() as f64 / 1e6,
    );

    // Self-validation: what we just wrote must round-trip through the
    // in-repo parser and reconstruct the same total self-time.
    let entries = if format == "collapsed" {
        xar_obs::profile::parse_collapsed(&doc)
    } else {
        xar_obs::profile::parse_speedscope(&doc)
    }
    .map_err(|e| CmdError::general(format!("{out}: written artifact does not re-parse: {e}")))?;
    let reparsed = xar_obs::profile::Profile::from_entries(&entries);
    if reparsed.total_ns() != profile.total_ns() {
        return Err(CmdError::general(format!(
            "{out}: re-parsed total {} ns != profiled total {} ns",
            reparsed.total_ns(),
            profile.total_ns(),
        )));
    }
    println!(
        "validated      : round-trip ok ({} stacks, {} ns total self-time)",
        reparsed.collapsed_entries().len(),
        reparsed.total_ns(),
    );

    println!("\n{:<28} {:>12} {:>10}", "span (self-time)", "self ms", "count");
    for (name, self_ns, count) in profile.top_self(top) {
        println!("{:<28} {:>12.2} {:>10}", name, self_ns as f64 / 1e6, count);
    }

    if alloc {
        let by_span = xar_obs::profile::alloc_profile();
        println!("\n{:<28} {:>14} {:>12}", "span (allocations)", "bytes", "allocs");
        for a in by_span.iter().take(top) {
            println!("{:<28} {:>14} {:>12}", a.name, a.bytes, a.allocs);
        }
        if by_span.is_empty() {
            println!("(no allocations attributed — allocator hook saw no traffic)");
        }
    }
    Ok(())
}

/// One HTTP GET over a plain `TcpStream` (the dashboard needs no HTTP
/// client). Returns the response body; errors on any non-200 status.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).ok();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("cannot write to {addr}: {e}"))?;
    let mut buf = String::new();
    stream
        .read_to_string(&mut buf)
        .map_err(|e| format!("cannot read from {addr}: {e}"))?;
    let (head, body) = buf
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}{path}: malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains(" 200 ") {
        return Err(format!("{addr}{path}: {status}"));
    }
    Ok(body.to_string())
}

/// Render one `xar top` dashboard frame from a parsed `/metrics`
/// scrape: request counts by outcome, the rolling-window table,
/// per-cluster ride occupancy, and SLO alert state.
fn render_top_frame(p: &xar_obs::promtext::PromText) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();

    // Request outcomes (cumulative counters from the simulation).
    let total = p.with_name("sim_requests_total").next().map(|s| s.value).unwrap_or(0.0);
    let mut outcomes: Vec<(String, f64)> = p
        .with_name("sim_requests")
        .filter_map(|s| s.label("outcome").map(|o| (o.to_string(), s.value)))
        .collect();
    outcomes.sort_by(|a, b| a.0.cmp(&b.0));
    let _ = write!(out, "requests: {total:.0}");
    for (o, v) in &outcomes {
        let _ = write!(out, "   {o} {v:.0}");
    }
    out.push('\n');

    // Rejection-reason breakdown (the wide-event taxonomy, counted by
    // the dispatch driver into sim_reject_reason{reason=...}).
    let mut rejects: Vec<(String, f64)> = p
        .with_name("sim_reject_reason")
        .filter_map(|s| s.label("reason").map(|r| (r.to_string(), s.value)))
        .filter(|&(_, v)| v > 0.0)
        .collect();
    rejects.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    if !rejects.is_empty() {
        out.push_str("rejections:");
        for (r, v) in &rejects {
            let _ = write!(out, "  {r}={v:.0}");
        }
        out.push('\n');
    }

    // Rolling windows: group xar_rolling samples by (metric, window).
    let mut metrics: Vec<String> = Vec::new();
    let mut table: HashMap<(String, String), HashMap<String, f64>> = HashMap::new();
    for s in p.with_name("xar_rolling") {
        let (Some(m), Some(w), Some(st)) = (s.label("metric"), s.label("window"), s.label("stat"))
        else {
            continue;
        };
        if !metrics.iter().any(|x| x == m) {
            metrics.push(m.to_string());
        }
        table
            .entry((m.to_string(), w.to_string()))
            .or_default()
            .insert(st.to_string(), s.value);
    }
    metrics.sort();
    if !metrics.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<46} {:>6} {:>12} {:>12} {:>12}",
            "rolling series", "window", "rate/s", "p50", "p99"
        );
        for m in &metrics {
            // Latency histograms record nanoseconds; show them in µs.
            let (scale, unit) = if m.contains("_ns") { (1e3, " µs") } else { (1.0, "") };
            let mut first = true;
            for &(w, _) in xar_obs::serve::ROLLING_WINDOWS {
                let Some(stats) = table.get(&(m.clone(), w.to_string())) else { continue };
                let fmt = |k: &str| {
                    stats
                        .get(k)
                        .map(|v| format!("{:.1}{unit}", v / scale))
                        .unwrap_or_else(|| "-".into())
                };
                let rate = stats
                    .get("rate_per_s")
                    .map(|v| format!("{v:.1}"))
                    .unwrap_or_else(|| "-".into());
                let name_col = if first { m.as_str() } else { "" };
                first = false;
                let _ = writeln!(
                    out,
                    "{:<46} {:>6} {:>12} {:>12} {:>12}",
                    name_col,
                    w,
                    rate,
                    fmt("p50"),
                    fmt("p99")
                );
            }
        }
    }

    // Snapshot-publication plane: write-path cost of the lock-free
    // search path, plus the epoch-reclamation backlog.
    let metric = |n: &str| {
        p.with_name(n)
            .find(|s| s.labels.is_empty())
            .map(|s| s.value)
    };
    if let Some(publishes) = metric("engine_snapshot_publishes") {
        let freed = metric("engine_snapshot_retired_freed").unwrap_or(0.0);
        let backlog = metric("engine_snapshot_backlog").unwrap_or(0.0);
        let p99 = p
            .find("engine_snapshot_publish_ns", &[("quantile", "0.99")])
            .map(|s| s.value)
            .unwrap_or(0.0);
        let _ = writeln!(
            out,
            "\nsnapshots: published {publishes:.0}   freed {freed:.0}   backlog {backlog:.0}   publish p99 {:.1} µs",
            p99 / 1e3,
        );
    }

    // Tail exemplars: trace ids of the slowest recent samples, straight
    // from the OpenMetrics `# {trace_id=...}` annotations.
    let mut exemplars: Vec<(String, String, f64)> = p
        .samples
        .iter()
        .filter_map(|s| {
            let e = s.exemplar.as_ref()?;
            let trace = e.trace_id()?.to_string();
            let mut series = s.name.clone();
            if let Some(tier) = s.label("tier") {
                series.push_str(&format!("{{tier={tier}}}"));
            }
            Some((series, trace, e.value))
        })
        .collect();
    exemplars.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    exemplars.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
    if !exemplars.is_empty() {
        out.push_str("\nslow exemplars:\n");
        for (series, trace, value) in exemplars.iter().take(6) {
            let _ = writeln!(out, "  {series:<40} trace {trace:<20} {:.1} µs", value / 1e3);
        }
    }

    // Per-cluster live-ride occupancy.
    let mut occ: Vec<(String, f64)> = p
        .with_name("engine_cluster_rides")
        .filter_map(|s| s.label("cluster").map(|c| (c.to_string(), s.value)))
        .collect();
    occ.sort_by(|a, b| a.0.cmp(&b.0));
    if !occ.is_empty() {
        out.push_str("\nrides/cluster:");
        for (c, v) in &occ {
            let _ = write!(out, "  {c}={v:.0}");
        }
        out.push('\n');
    }

    // SLO alert state with burn rates.
    let mut alerts = String::new();
    for s in p.with_name("xar_alert_firing") {
        let Some(name) = s.label("name") else { continue };
        let burn = |fam: &str| {
            p.find(fam, &[("name", name)]).map(|b| b.value).unwrap_or(0.0)
        };
        let state = if s.value >= 1.0 { "FIRING" } else { "ok" };
        let _ = writeln!(
            alerts,
            "  {name:<28} {state:<8} fast burn {:.2}   slow burn {:.2}",
            burn("xar_alert_fast_burn"),
            burn("xar_alert_slow_burn"),
        );
    }
    if !alerts.is_empty() {
        out.push_str("\nalerts:\n");
        out.push_str(&alerts);
    }
    out
}

/// `xar top`: poll a live ops plane's `/metrics` and render a terminal
/// dashboard every `--interval-ms`.
fn top_cmd(flags: &Flags) -> Result<(), CmdError> {
    let addr = flags.require("connect")?;
    let addr = addr.strip_prefix("http://").unwrap_or(addr).trim_end_matches('/').to_string();
    let interval_ms: u64 = flags.get("interval-ms", 1_000)?;
    let frames: u64 = flags.get("frames", 0)?;
    let plain = flags.switch("plain");
    let mut shown = 0u64;
    loop {
        let body = http_get(&addr, "/metrics").map_err(CmdError::general)?;
        let parsed = xar_obs::promtext::parse(&body)
            .map_err(|e| CmdError::general(format!("{addr}/metrics does not parse: {e}")))?;
        let frame = render_top_frame(&parsed);
        if !plain {
            // ANSI clear-screen + home, so the frame repaints in place.
            print!("\x1b[2J\x1b[H");
        }
        println!("xar top — {addr}  (refresh {interval_ms} ms)\n");
        print!("{frame}");
        std::io::stdout().flush().ok();
        shown += 1;
        if frames != 0 && shown >= frames {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let result = match COMMANDS.iter().find(|(name, _, _)| name == cmd) {
        None => Err(CmdError::general(format!("unknown command '{cmd}'\n{}", usage()))),
        Some((_, accepted, run)) => match Flags::parse(rest, accepted) {
            Ok(flags) => run(&flags),
            Err(e) => Err(CmdError::general(format!("{cmd}: {e}\n{}", usage()))),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.msg);
            ExitCode::from(e.code.max(1))
        }
    }
}
