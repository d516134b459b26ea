//! Per-layer metrics of a traced run, and the table of every metric the
//! benchmark reports.
//!
//! Each per-layer figure names the end-to-end metric and workload it
//! should move (see `hostbench/README.md`). Span and count figures are the
//! median over the run's traced passes of the workload's per-pass sums. A
//! workload that never calls a layer (model checking makes no `svc`
//! calls) takes that layer's figure from one traced reference pass of the
//! first other workload that does, in `WorkloadId::ALL` order.

use std::collections::BTreeMap;

use crate::stats::median;
use crate::trace::{PassKind, Trace};

/// End-to-end metrics, measured with tracing off: (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sys_s", "s"),
    ("sim_events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 45] = [
    ("svc.traffic.generate_s", "s"),
    ("svc.sched.handoff_us", "us"),
    ("svc.verify_s", "s"),
    ("model.explore_s", "s"),
    ("model.controller.handoff_us", "us"),
    ("model.schedules", "count"),
    ("model.steps", "count"),
    ("model.sleep_pruned", "count"),
    ("runtime.run_parallel_s", "s"),
    ("runtime.run_sequential_s", "s"),
    ("runtime.us_per_commit", "us"),
    ("runtime.sim_new_us", "us"),
    ("runtime.commit_ns.lock", "ns"),
    ("runtime.commit_ns.stm", "ns"),
    ("runtime.commit_ns.rot", "ns"),
    ("runtime.commit_ns.adaptive", "ns"),
    ("runtime.commit_ns.bgq", "ns"),
    ("runtime.commit_ns.zec12", "ns"),
    ("runtime.commit_ns.intel", "ns"),
    ("runtime.commit_ns.p8", "ns"),
    ("runtime.commit_contended_ns", "ns"),
    ("runtime.commits.hw", "count"),
    ("runtime.commits.lock", "count"),
    ("runtime.commits.stm", "count"),
    ("runtime.commits.rot", "count"),
    ("runtime.commits.spill", "count"),
    ("runtime.aborts.capacity", "count"),
    ("runtime.aborts.data_conflict", "count"),
    ("runtime.aborts.other", "count"),
    ("runtime.aborts.lock_conflict", "count"),
    ("runtime.aborts.unclassified", "count"),
    ("runtime.commit_ratio", "ratio"),
    ("runtime.tier_switches", "count"),
    ("runtime.lock_wait_cycles", "cycles"),
    ("core.mem.tx_read_line_ns", "ns"),
    ("core.mem.tx_claim_line_ns", "ns"),
    ("machine.tracker.first_load_ns.bgq", "ns"),
    ("machine.tracker.first_load_ns.zec12", "ns"),
    ("machine.tracker.first_load_ns.intel", "ns"),
    ("machine.tracker.first_load_ns.p8", "ns"),
    ("tm_structs.hashtable.get_ns", "ns"),
    ("tm_structs.hashtable.insert_ns", "ns"),
    ("tm_structs.rbtree.insert_ns", "ns"),
    ("stamp.setup_s", "s"),
    ("trace.overhead", "ratio"),
];

/// Span sums reported in seconds: (metric, span name).
const SPAN_SECONDS: [(&str, &str); 6] = [
    ("svc.traffic.generate_s", "svc.traffic.generate"),
    ("svc.verify_s", "svc.verify"),
    ("model.explore_s", "model.explore"),
    ("runtime.run_parallel_s", "runtime.run_parallel"),
    ("runtime.run_sequential_s", "runtime.run_sequential"),
    ("stamp.setup_s", "stamp.setup"),
];

/// `RunStats` commit counters, in `workloads::record_stats` order.
pub(crate) const COMMIT_COUNTS: [&str; 5] = [
    "runtime.commits.hw",
    "runtime.commits.lock",
    "runtime.commits.stm",
    "runtime.commits.rot",
    "runtime.commits.spill",
];

/// `RunStats` abort counters, in `AbortCategory::ALL` order.
pub(crate) const ABORT_COUNTS: [&str; 5] = [
    "runtime.aborts.capacity",
    "runtime.aborts.data_conflict",
    "runtime.aborts.other",
    "runtime.aborts.lock_conflict",
    "runtime.aborts.unclassified",
];

/// Counters reported as they are, besides commits and aborts.
const OTHER_COUNTS: [&str; 5] = [
    "model.schedules",
    "model.steps",
    "model.sleep_pruned",
    "runtime.tier_switches",
    "runtime.lock_wait_cycles",
];

/// Pass groups in lookup order: the workload's own traced passes, then
/// each reference pass.
fn groups(trace: &Trace) -> Vec<Vec<usize>> {
    let own = (0..trace.passes.len()).filter(|&p| trace.passes[p].kind == PassKind::Own).collect();
    let refs = (0..trace.passes.len()).filter(|&p| trace.passes[p].kind == PassKind::Reference);
    std::iter::once(own).chain(refs.map(|p| vec![p])).collect()
}

/// Median over the first group with any value of a per-pass series.
fn first_median(groups: &[Vec<usize>], per_pass: &[Option<f64>]) -> Option<f64> {
    groups.iter().find_map(|g| {
        let v: Vec<f64> = g.iter().filter_map(|&p| per_pass[p]).collect();
        (!v.is_empty()).then(|| median(&v))
    })
}

/// Element-wise sum of per-pass series.
fn sum_series(trace: &Trace, names: &[&str]) -> Vec<Option<f64>> {
    let mut acc = vec![None; trace.passes.len()];
    for name in names {
        for (a, v) in acc.iter_mut().zip(trace.count_sums(name)) {
            if let Some(v) = v {
                *a.get_or_insert(0.0) += v;
            }
        }
    }
    acc
}

/// Per-layer metrics of a traced run. `probes` holds the micro-probe
/// figures by metric name; `sim_new_probe_us` is used when the workload
/// constructs no `Sim` itself.
pub fn per_layer(
    trace: &Trace,
    probes: &[(String, f64)],
    sim_new_probe_us: f64,
    overhead: f64,
) -> BTreeMap<String, f64> {
    let groups = groups(trace);
    let mut out = BTreeMap::new();
    for (metric, span) in SPAN_SECONDS {
        if let Some(ns) = first_median(&groups, &trace.span_sums(span)) {
            out.insert(metric.to_string(), ns / 1e9);
        }
    }
    for name in COMMIT_COUNTS.iter().chain(&ABORT_COUNTS).chain(&OTHER_COUNTS) {
        if let Some(v) = first_median(&groups, &trace.count_sums(name)) {
            out.insert(name.to_string(), v);
        }
    }
    let committed = sum_series(trace, &COMMIT_COUNTS);
    let aborted = sum_series(trace, &ABORT_COUNTS);
    let ratio: Vec<Option<f64>> = committed
        .iter()
        .zip(&aborted)
        .map(|(c, a)| Some(c.as_ref()? / (c.as_ref()? + a.as_ref()?)))
        .collect();
    if let Some(r) = first_median(&groups, &ratio) {
        out.insert("runtime.commit_ratio".to_string(), r);
    }
    let per_commit: Vec<Option<f64>> = trace
        .span_sums("runtime.run_parallel")
        .iter()
        .zip(&committed)
        .map(|(ns, c)| Some(ns.as_ref()? / 1e3 / c.as_ref()?))
        .collect();
    if let Some(us) = first_median(&groups, &per_commit) {
        out.insert("runtime.us_per_commit".to_string(), us);
    }
    let own = &groups[0];
    let sim_new = trace.span_calls("runtime.sim_new", |p| own.contains(&p));
    let sim_new_us = if sim_new.is_empty() { sim_new_probe_us } else { median(&sim_new) / 1e3 };
    out.insert("runtime.sim_new_us".to_string(), sim_new_us);
    for (name, v) in probes {
        out.insert(name.clone(), *v);
    }
    out.insert("trace.overhead".to_string(), overhead);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_metric_name_is_unique() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn a_layer_the_workload_never_calls_comes_from_a_reference_pass() {
        use crate::trace;
        trace::start();
        trace::pass("model_dpor", Some(PassKind::Own), || trace::count("model.schedules", 7.0));
        trace::pass("svc_skewed", Some(PassKind::Reference), || {
            trace::count("model.schedules", 99.0);
            trace::count("runtime.tier_switches", 3.0);
        });
        trace::pass("probes", Some(PassKind::Probe), || {
            trace::count("runtime.lock_wait_cycles", 1.0)
        });
        let t = trace::finish().unwrap();
        let m = per_layer(&t, &[("svc.sched.handoff_us".to_string(), 4.0)], 1.5, 1.0);
        assert_eq!(m["model.schedules"], 7.0, "the workload's own figure wins");
        assert_eq!(m["runtime.tier_switches"], 3.0, "missing layers fall back");
        assert!(!m.contains_key("runtime.lock_wait_cycles"), "probe passes are not counted");
        assert_eq!((m["runtime.sim_new_us"], m["svc.sched.handoff_us"]), (1.5, 4.0));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside hostbench/");
        let listed: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(listed.contains(name), "{name} missing from BENCHMARK.json");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} must have unit {unit} in BENCHMARK.json");
        }
        let workloads: Vec<&str> =
            crate::workloads::WorkloadId::ALL.iter().map(|w| w.name()).collect();
        for name in listed {
            assert!(
                workloads.contains(&name)
                    || END_TO_END.iter().chain(PER_LAYER.iter()).any(|(n, _)| *n == name),
                "BENCHMARK.json lists {name}, which the benchmark never reports"
            );
        }
    }
}
