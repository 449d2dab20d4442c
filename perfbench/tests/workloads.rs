//! Reduced-size runs of every workload: each emits every metric
//! BENCHMARK.json names, with its unit and a finite value; simulated
//! metrics repeat exactly at one seed; each workload exercises the layer
//! it was chosen for.

use perfbench::{arrivals, run, Metric, RunConfig, RunResult, Size, Workload};

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section is declared");
    let body = &spec[start..start + spec[start..].find(']').expect("section is a list")];
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn reduced(workload: Workload, seed: u64, trace: bool) -> RunResult {
    let res = run(&RunConfig {
        workload,
        seed,
        seconds: 0.0,
        trace,
        size: Size::Reduced,
    });
    assert!(
        res.failures.is_empty(),
        "{} seed {seed}: {:?}",
        workload.name(),
        res.failures
    );
    assert!(res.attempted > 0 && res.failed == 0);
    res
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is emitted"))
        .value
}

fn assert_declared(w: Workload, section: &str, metrics: &[Metric]) {
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(emitted, declared(section), "{} {section}", w.name());
    for m in metrics {
        assert!(m.value.is_finite(), "{} {}: {}", w.name(), m.name, m.value);
    }
}

/// Simulated end-to-end metrics, rendered exactly.
fn sim_digest(metrics: &[Metric]) -> String {
    [
        "sim_p50_ms",
        "sim_p99_ms",
        "slo_goodput",
        "ok_frac",
        "paper_err_pct",
    ]
    .map(|n| format!("{n}={:?}", value(metrics, n)))
    .join(" ")
}

fn check_workload(w: Workload) -> Vec<Metric> {
    let a = reduced(w, 11, false);
    assert_declared(w, "end_to_end", &a.metrics);
    let b = reduced(w, 11, false);
    assert_eq!(
        sim_digest(&a.metrics),
        sim_digest(&b.metrics),
        "{}",
        w.name()
    );
    assert_eq!(a.sim, b.sim);

    let traced = reduced(w, 11, true);
    assert_declared(w, "per_layer", &traced.metrics);
    assert!(!traced.tracer.spans().is_empty());
    traced.metrics
}

#[test]
fn flat_timing_walks_every_dispatch() {
    let m = check_workload(Workload::FlatTiming);
    assert_eq!(
        value(&m, "device.memo_bypassed"),
        value(&m, "queue.dispatches")
    );
    assert!(value(&m, "device.walk_ns_per_batch") > 0.0);
    assert_eq!(value(&m, "ivf.build_s"), 0.0);
}

#[test]
fn ann_ivf_prunes_and_keeps_recall() {
    let m = check_workload(Workload::AnnIvf);
    let frac = value(&m, "ivf.candidate_frac");
    assert!(frac > 0.0 && frac < 0.5, "candidate fraction {frac}");
    assert!(value(&m, "ivf.recall_at_10") >= perfbench::RECALL_FLOOR);
    assert!(value(&m, "gvml.kernel_ns_per_batch") > 0.0);
    assert_eq!(value(&m, "device.memo_hits"), 0.0);
}

#[test]
fn churn_ff_replays_and_compacts() {
    let m = check_workload(Workload::ChurnFf);
    assert!(value(&m, "device.memo_hit_ratio") > 0.0);
    assert!(value(&m, "mutable.compactions") > 0.0);
    assert_eq!(value(&m, "mutable.compaction_failures"), 0.0);
    assert!(value(&m, "mutable.delta_segments") > 0.0);
}

#[test]
fn the_seed_alone_fixes_the_arrival_stream() {
    for w in Workload::ALL {
        let a = arrivals(w, Size::Reduced, 1);
        assert_eq!(a, arrivals(w, Size::Reduced, 1), "{}", w.name());
        assert_ne!(a, arrivals(w, Size::Reduced, 2), "{}", w.name());
        assert!(
            a.windows(2).all(|p| p[0] <= p[1]),
            "{} arrivals sorted",
            w.name()
        );
    }
}
