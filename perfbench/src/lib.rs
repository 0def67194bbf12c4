//! One benchmark for the sharded XAR serving engine.
//!
//! A run sets the workload up several times from its seed (reporting
//! the median set-up time), then replays the seeded trip stream through
//! [`xar_workload::run_parallel_dispatch`] under the first-match policy
//! against a fresh [`xar_core::ShardedXarEngine`], again and again until
//! the measuring time is spent, auditing every replay. Untraced runs
//! report the end-to-end metrics; traced runs report per-layer metrics
//! from the benchmark's own spans and the engine's registry series.
//! `README.md` beside this crate documents the workloads and metrics.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use xar_workload::{
    percentile, percentile_ns, run_parallel_dispatch, DispatchSpec, SimReport, Trip,
};

mod idle;
mod layers;
mod stamp;
mod workload;

use layers::{LayerContext, RegistryTotals, SpanTotals};
use stamp::{ClientLog, Stamped};
use workload::Inputs;
pub use workload::{Size, Spec, Workload};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the city and the trip stream.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Where a traced run writes its spans (none when `None`).
    pub spans_out: Option<std::path::PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The run's environment, recorded with every result.
#[derive(Debug, Clone)]
pub struct Env {
    /// Workload name.
    pub workload: &'static str,
    /// Seed of the inputs.
    pub seed: u64,
    /// Cores available to the process.
    pub nproc: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Engine shards.
    pub shards: usize,
    /// Trips per replay.
    pub trips: usize,
    /// Measured replays (untraced and traced together).
    pub replays: usize,
    /// Decision-latency samples behind the end-to-end percentiles.
    pub decision_samples: usize,
}

/// Outcome of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every audit passed.
    pub correct: bool,
    /// Requests attempted over all measured replays.
    pub attempted: u64,
    /// Requests unservable, errored, or caught by an audit.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Where the run was made.
    pub env: Env,
    /// One line per audit violation.
    pub violations: Vec<String>,
    /// Free-form observations printed with the result.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`. A value that is
    /// not a finite number (JSON has none) reads 0.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Post-replay correctness checks.
#[derive(Debug, Clone, Default)]
struct Audit {
    /// Rides holding more bookings than seats.
    overbooked: u64,
    /// Published snapshots differ from a rebuild of engine state.
    snapshots_inconsistent: bool,
    /// Trip ids that got no decision or more than one.
    decision_mismatches: u64,
}

impl Audit {
    fn violations(&self) -> u64 {
        self.overbooked + u64::from(self.snapshots_inconsistent) + self.decision_mismatches
    }

    fn describe(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.overbooked > 0 {
            v.push(format!(
                "{} rides hold more bookings than seats",
                self.overbooked
            ));
        }
        if self.snapshots_inconsistent {
            v.push("a published snapshot differs from a rebuild of its shard".to_string());
        }
        if self.decision_mismatches > 0 {
            v.push(format!(
                "{} trips did not get exactly one decision",
                self.decision_mismatches
            ));
        }
        v
    }
}

/// One replay of the trip stream against a fresh engine.
struct Replay {
    wall_s: f64,
    report: SimReport,
    logs: Vec<ClientLog>,
    registry: RegistryTotals,
    audit: Audit,
    heap_bytes: usize,
    live_rides: usize,
}

fn replay(
    region: &std::sync::Arc<xar_discretize::RegionIndex>,
    trips: &[Trip],
    spec: &Spec,
    clients: usize,
    traced: bool,
) -> Replay {
    let backend = Stamped::new(workload::engine(region, spec), trips, clients, traced);
    let t0 = Instant::now();
    let report = run_parallel_dispatch(&backend, trips, &spec.sim, clients, DispatchSpec::First);
    let wall_s = t0.elapsed().as_secs_f64();
    let (engine, logs) = backend.into_logs();
    // Registry first: the audit below takes read locks only, but keep
    // the series exactly what the replay recorded.
    let registry = RegistryTotals::read(&engine.registry());

    let mut audit = Audit::default();
    engine.for_each_ride(|r| {
        if r.bookings.len() > usize::from(spec.sim.seats) {
            audit.overbooked += 1;
        }
    });
    audit.snapshots_inconsistent = !engine.snapshots_consistent();
    let mut balance: HashMap<u64, i64> = trips.iter().map(|t| (t.id, 1)).collect();
    for d in &report.decisions {
        *balance.entry(d.trip_id).or_insert(0) -= 1;
    }
    audit.decision_mismatches = balance.values().filter(|&&b| b != 0).count() as u64;
    if report.booked + report.created + report.unservable != trips.len() as u64 {
        audit.decision_mismatches = audit.decision_mismatches.max(1);
    }
    let heap_bytes = engine.heap_bytes();
    let live_rides = engine.ride_count();
    Replay {
        wall_s,
        report,
        logs,
        registry,
        audit,
        heap_bytes,
        live_rides,
    }
}

/// The measured replays of one phase.
#[derive(Default)]
struct Phase {
    replays: usize,
    wall_s: f64,
    decisions: u64,
    booked: u64,
    failed: u64,
    detour_m: Vec<f64>,
    /// Decision latency of every request, ns.
    decision_ns: Vec<u64>,
    violations: Vec<String>,
    spans: SpanTotals,
    registry: Option<RegistryTotals>,
    heap_bytes: usize,
    live_rides: usize,
    span_logs: Vec<Vec<ClientLog>>,
}

impl Phase {
    fn add(&mut self, r: Replay, keep_spans: bool) {
        let rep = &r.report;
        let decisions = rep.booked + rep.created + rep.unservable;
        let search_errors: u64 = r.logs.iter().map(|l| l.search_errors).sum();
        for log in &r.logs {
            self.decision_ns.extend_from_slice(&log.decision_ns);
        }
        self.replays += 1;
        self.wall_s += r.wall_s;
        self.decisions += decisions;
        self.booked += rep.booked;
        self.failed += rep.unservable + search_errors + r.audit.violations();
        self.detour_m.extend_from_slice(&rep.detour_actual_m);
        self.violations.extend(r.audit.describe());
        self.spans.add(&r.logs);
        match self.registry.as_mut() {
            Some(t) => t.add(&r.registry),
            None => self.registry = Some(r.registry),
        }
        self.heap_bytes = r.heap_bytes;
        self.live_rides = r.live_rides;
        if keep_spans {
            self.span_logs.push(r.logs);
        }
    }

    /// Decisions per second over the whole phase.
    fn rps(&self) -> f64 {
        layers::ratio(self.decisions as f64, self.wall_s)
    }
}

/// Replay day after day of the seed's trip stream (day 0 first, each
/// against a fresh engine) until about `seconds` have passed, at least
/// once: stop once another day would end further from the target than
/// stopping now. Averaging over days keeps one day's layout of hotspots
/// from deciding a run's figures. With `trace`, every day is replayed
/// untraced and then traced, so the two phases cover the same days and
/// drifting machine speed hits both alike.
fn measure(
    inputs: &Inputs,
    spec: &Spec,
    seed: u64,
    clients: usize,
    seconds: f64,
    trace: bool,
    keep_spans: bool,
) -> (Phase, Option<Phase>) {
    let mut untraced = Phase::default();
    let mut traced = trace.then(Phase::default);
    let t0 = Instant::now();
    for day in 0u64.. {
        let other;
        let trips = if day == 0 {
            &inputs.trips
        } else {
            // Generating a day is not part of its replay's wall time.
            other = workload::day(spec, inputs.region.graph(), seed, day);
            &other
        };
        untraced.add(replay(&inputs.region, trips, spec, clients, false), false);
        if let Some(t) = traced.as_mut() {
            t.add(
                replay(&inputs.region, trips, spec, clients, true),
                keep_spans,
            );
        }
        let spent = t0.elapsed().as_secs_f64();
        if spent + spent / (day + 1) as f64 / 2.0 >= seconds {
            break;
        }
    }
    (untraced, traced)
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Run the benchmark.
pub fn run(opts: &Options) -> RunResult {
    let spec = Spec::of(opts.workload, opts.size);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = spec.clients.min(nproc).max(1);
    // Only clients block each other; a lone client never waits.
    let _keepers = (clients > 1).then(|| idle::IdleKeepers::start(nproc));

    let mut times = Vec::new();
    let mut inputs = None;
    for _ in 0..opts.setups.max(1) {
        let (i, t) = workload::setup(&spec, opts.seed);
        times.push(t);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up");
    let median_setup = |f: fn(&workload::SetupTimes) -> f64| {
        percentile(&times.iter().map(f).collect::<Vec<_>>(), 50.0)
    };

    // Warm caches and the allocator on a prefix of the stream.
    let warm = &inputs.trips[..inputs.trips.len().min(1_000)];
    drop(replay(&inputs.region, warm, &spec, clients, false));

    let (untraced, traced) = measure(
        &inputs,
        &spec,
        opts.seed,
        clients,
        opts.seconds,
        opts.trace,
        opts.spans_out.is_some(),
    );

    let attempted = untraced.decisions + traced.as_ref().map_or(0, |t| t.decisions);
    let failed = untraced.failed + traced.as_ref().map_or(0, |t| t.failed);
    let mut violations = untraced.violations.clone();
    let mut notes = Vec::new();
    let decision_samples = untraced.decision_ns.len();
    let replays = untraced.replays + traced.as_ref().map_or(0, |t| t.replays);

    let metrics: Vec<Metric> = match traced {
        None => {
            let detour_mean = layers::ratio(
                untraced.detour_m.iter().sum(),
                untraced.detour_m.len() as f64,
            );
            vec![
                ("setup_s", "s", median_setup(|t| t.total_s)),
                ("requests_per_s", "req/s", untraced.rps()),
                (
                    "decision_p50_us",
                    "us",
                    percentile_ns(&untraced.decision_ns, 50.0) / 1e3,
                ),
                (
                    "decision_p99_us",
                    "us",
                    percentile_ns(&untraced.decision_ns, 99.0) / 1e3,
                ),
                (
                    "share_rate",
                    "ratio",
                    layers::ratio(untraced.booked as f64, untraced.decisions as f64),
                ),
                (
                    "success_rate",
                    "ratio",
                    1.0 - layers::ratio(failed as f64, attempted as f64),
                ),
                ("mean_detour_m", "m", detour_mean),
                ("peak_rss_mib", "MiB", peak_rss_mib()),
            ]
            .into_iter()
            .map(|(name, unit, value)| Metric { name, unit, value })
            .collect()
        }
        Some(t) => {
            violations.extend(t.violations.iter().cloned());
            let reg = t.registry.clone().unwrap_or_default();
            let ([search, book, create, track], [routing, publish]) =
                layers::breakdown(&t.spans, &reg);
            notes.push(format!(
                "engine-call time: search {:.1}%, book {:.1}%, create {:.1}%, track {:.1}%",
                search * 100.0,
                book * 100.0,
                create * 100.0,
                track * 100.0
            ));
            notes.push(format!(
                "write-lock hold: routing {:.1}%, snapshot publish {:.1}%, together {:.1}%",
                routing * 100.0,
                publish * 100.0,
                (routing + publish) * 100.0
            ));
            let ctx = LayerContext {
                region_build_s: median_setup(|t| t.region_build_s),
                tripgen_s: median_setup(|t| t.tripgen_s),
                walkable_clusters_mean: workload::walkable_clusters_mean(
                    &inputs,
                    spec.sim.walk_limit_m,
                ),
                replays: t.replays,
                heap_bytes: t.heap_bytes,
                live_rides: t.live_rides,
                untraced_rps: untraced.rps(),
                traced_rps: t.rps(),
            };
            if let Some(path) = &opts.spans_out {
                match write_spans(path, &t.span_logs) {
                    Ok(n) => notes.push(format!("{n} spans written to {}", path.display())),
                    Err(e) => notes.push(format!("spans not written to {}: {e}", path.display())),
                }
            }
            layers::metrics(&t.spans, &reg, &ctx)
                .into_iter()
                .map(|(name, unit, value)| Metric { name, unit, value })
                .collect()
        }
    };

    RunResult {
        correct: violations.is_empty(),
        attempted,
        failed,
        metrics,
        env: Env {
            workload: opts.workload.name(),
            seed: opts.seed,
            nproc,
            clients,
            shards: spec.shards,
            trips: inputs.trips.len(),
            replays,
            decision_samples,
        },
        violations,
        notes,
    }
}

/// Write the spans of every traced replay as tab-separated lines:
/// `replay client request span parent start_ns end_ns arg`. A root's
/// parent is `-`; a child's parent is its request's root. Returns the
/// number of spans written.
fn write_spans(path: &Path, replays: &[Vec<ClientLog>]) -> std::io::Result<usize> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "replay\tclient\trequest\tspan\tparent\tstart_ns\tend_ns\targ"
    )?;
    let mut n = 0;
    for (r, logs) in replays.iter().enumerate() {
        for (c, log) in logs.iter().enumerate() {
            for s in &log.spans {
                let parent = if s.kind == stamp::Kind::Request {
                    "-".to_string()
                } else {
                    s.req.to_string()
                };
                writeln!(
                    out,
                    "{r}\t{c}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                    s.req,
                    s.kind.name(),
                    s.start_ns,
                    s.end_ns,
                    s.arg
                )?;
                n += 1;
            }
        }
    }
    out.flush()?;
    Ok(n)
}
