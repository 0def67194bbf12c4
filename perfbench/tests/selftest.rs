//! Self-tests of the benchmark at tiny size: every workload reports
//! every metric `BENCHMARK.json` names, with its unit, and the counts a
//! one-client replay determines repeat exactly under one seed and move
//! under another.

use std::collections::BTreeMap;

use xar_perfbench::{run, Options, RunResult, Size, Spec, Workload};

fn tiny(workload: Workload, seed: u64, trace: bool) -> RunResult {
    let r = run(&Options {
        workload,
        seed,
        seconds: 0.05,
        trace,
        size: Size::Tiny,
        setups: 1,
        spans_out: None,
    });
    assert!(
        r.correct,
        "{} seed {seed}: {:?}",
        workload.name(),
        r.violations
    );
    assert_eq!(
        r.failed,
        0,
        "{} seed {seed} failed requests",
        workload.name()
    );
    assert!(r.attempted > 0);
    r
}

fn values(r: &RunResult) -> BTreeMap<&'static str, f64> {
    r.metrics.iter().map(|m| (m.name, m.value)).collect()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn every_workload_reports_every_declared_metric_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(section);
        assert!(!want.is_empty(), "{section} declares metrics");
        for w in Workload::ALL {
            let r = tiny(w, 7, trace);
            let got: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{} {section}", w.name());
            assert!(
                r.metrics.iter().all(|m| m.value.is_finite()),
                "{} {section}",
                w.name()
            );
        }
    }
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let r = tiny(Workload::DayReplay, 7, false);
    let line = r.to_json();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(
        line.contains(", \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "),
        "{line}"
    );
    assert_eq!(line.matches("\"unit\"").count(), r.metrics.len());
}

#[test]
fn one_client_counts_repeat_under_a_seed_and_move_under_another() {
    let e2e = |seed| values(&tiny(Workload::DayReplay, seed, false));
    let layer = |seed| values(&tiny(Workload::DayReplay, seed, true));
    let (a, b, other) = (e2e(11), e2e(11), e2e(12));
    assert_eq!(a["share_rate"], b["share_rate"]);
    assert_ne!(a["share_rate"], other["share_rate"]);

    let (a, b, other) = (layer(11), layer(11), layer(12));
    for name in [
        "core.searches",
        "core.snapshot.publishes",
        "roadnet.sp_calls_per_write",
    ] {
        assert_eq!(a[name], b[name], "{name} must repeat under one seed");
    }
    for name in ["core.snapshot.publishes", "roadnet.sp_calls_per_write"] {
        assert_ne!(a[name], other[name], "{name} must depend on the seed");
    }
    // One search per request on this workload: the count is the trip
    // count under every seed, so it cannot move with the seed.
    let trips = Spec::of(Workload::DayReplay, Size::Tiny).trips.count as f64;
    assert_eq!(a["core.searches"], trips);
    assert_eq!(other["core.searches"], trips);
}
