//! `htm-hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs passes of one workload for `--seconds` seconds and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A line
//! `digest <workload> <hex>` before it fingerprints the simulated outputs.
//! Progress and a readable summary go to standard error.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use htm_hostbench::layers::{self, END_TO_END, PER_LAYER};
use htm_hostbench::stats::{median, quartiles};
use htm_hostbench::trace::{self, PassKind};
use htm_hostbench::workloads::{run_pass, Pass, WorkloadId};
use htm_hostbench::{host, probes};

/// Fewest passes of each kind a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    workload: WorkloadId,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(WorkloadId::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
            eprintln!("error: {e}");
            eprintln!(
                "usage: htm-hostbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    run(&args);
    ExitCode::SUCCESS
}

fn run(args: &Args) {
    let name = args.workload.name();
    let cells = args.workload.cells();
    if args.trace {
        trace::start();
    }
    let start = Instant::now();
    let (mut untraced, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    loop {
        // A traced run alternates untraced and traced passes, so the
        // tracing overhead is measured on the same host minute.
        let tracing = args.trace && untraced.len() > traced.len();
        let kind = tracing.then_some(PassKind::Own);
        let pass = trace::pass(name, kind, || run_pass(&cells, args.seed));
        eprintln!(
            "{name} pass {}{}: setup {:.3} s, measured {:.3} s",
            untraced.len() + traced.len() + 1,
            if tracing { " (traced)" } else { "" },
            pass.setup.as_secs_f64(),
            pass.measured.as_secs_f64()
        );
        if tracing { &mut traced } else { &mut untraced }.push(pass);
        let enough = untraced.len() >= MIN_PASSES && (!args.trace || traced.len() >= MIN_PASSES);
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let own: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    let digest = own[0].digest;
    let consistent = own.iter().all(|p| p.digest == digest);
    if !consistent {
        eprintln!("{name}: simulated outputs differ between passes at one seed");
    }
    let mut attempted: u64 = own.iter().map(|p| p.cells).sum();
    let mut failed: u64 = own.iter().map(|p| p.failed).sum();

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        for other in WorkloadId::ALL.into_iter().filter(|&w| w != args.workload) {
            let p = trace::pass(other.name(), Some(PassKind::Reference), || {
                run_pass(&other.cells(), args.seed)
            });
            attempted += p.cells;
            failed += p.failed;
        }
        let (probe_figures, sim_new_us) = trace::pass("probes", Some(PassKind::Probe), run_probes);
        let overhead = median(&secs(&traced, |p| p.measured.as_secs_f64()))
            / median(&secs(&untraced, |p| p.measured.as_secs_f64()));
        let t = trace::finish().expect("tracing was started");
        let values = layers::per_layer(&t, &probe_figures, sim_new_us, overhead);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let file = dir.join(format!("{name}-seed{}.tsv", args.seed));
        match t.write_tsv(&file) {
            Ok(()) => eprintln!("spans written to {}", file.display()),
            Err(e) => eprintln!("could not write {}: {e}", file.display()),
        }
        PER_LAYER
            .iter()
            .map(|&(n, unit)| {
                let v =
                    *values.get(n).unwrap_or_else(|| panic!("per-layer metric {n} not measured"));
                (n, unit, v)
            })
            .collect()
    } else {
        end_to_end(&untraced)
    };

    eprintln!(
        "{name}: {} passes, {failed} of {attempted} cells failed (fail_frac {})",
        own.len(),
        failed as f64 / attempted as f64
    );
    for (n, unit, v) in &metrics {
        eprintln!("  {n:<40} {v:>14.6} {unit}");
    }
    println!("digest {name} {:016x}", digest.value());
    println!("{}", result_json(failed == 0 && consistent, attempted, failed, &metrics));
}

fn secs(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Vec<f64> {
    passes.iter().map(f).collect()
}

/// End-to-end metrics over the untraced passes. Wall, set-up and rate are
/// medians over passes; CPU and kernel time are totals over the measured
/// regions divided by the pass count, which keeps the 10 ms tick of
/// `/proc/self/stat` out of the figure.
fn end_to_end(passes: &[Pass]) -> Vec<(&'static str, &'static str, f64)> {
    let n = passes.len() as f64;
    let wall = secs(passes, |p| p.measured.as_secs_f64());
    let [q1, q2, q3] = quartiles(&wall);
    eprintln!(
        "  wall per pass: q1 {q1:.4} s, median {q2:.4} s, q3 {q3:.4} s over {} passes",
        wall.len()
    );
    let values: BTreeMap<&str, f64> = [
        ("wall_s", median(&wall)),
        ("cpu_s", passes.iter().map(|p| p.cpu.total_s()).sum::<f64>() / n),
        ("sys_s", passes.iter().map(|p| p.cpu.sys_s).sum::<f64>() / n),
        ("sim_events_per_s", median(&secs(passes, |p| p.events as f64 / p.measured.as_secs_f64()))),
        ("setup_s", median(&secs(passes, |p| p.setup.as_secs_f64()))),
        ("peak_rss_mb", host::peak_rss_mb()),
    ]
    .into_iter()
    .collect();
    END_TO_END.iter().map(|&(n, unit)| (n, unit, values[n])).collect()
}

/// Runs every layer micro-probe; returns the figures by metric name and
/// the model-shaped `Sim::new` cost.
fn run_probes() -> (Vec<(String, f64)>, f64) {
    let mut out: Vec<(String, f64)> = vec![
        ("svc.sched.handoff_us".to_string(), probes::svc_handoff_us(2_000)),
        ("model.controller.handoff_us".to_string(), probes::controller_handoff_us(2_000)),
    ];
    out.extend(probes::tier_commit_ns(2_000).into_iter().map(|(n, v)| (n.to_string(), v)));
    out.extend(probes::platform_commit_ns(20_000));
    out.push(("runtime.commit_contended_ns".to_string(), probes::contended_commit_ns(10_000)));
    let (read, claim) = probes::mem_line_ns(20_000, 16);
    out.push(("core.mem.tx_read_line_ns".to_string(), read));
    out.push(("core.mem.tx_claim_line_ns".to_string(), claim));
    out.extend(probes::tracker_first_load_ns(20_000));
    let (get, insert) = probes::hashtable_ns();
    out.push(("tm_structs.hashtable.get_ns".to_string(), get));
    out.push(("tm_structs.hashtable.insert_ns".to_string(), insert));
    out.push(("tm_structs.rbtree.insert_ns".to_string(), probes::rbtree_insert_ns()));
    (out, probes::sim_new_us(200))
}

/// The result line. Values print with every digit Rust's shortest
/// round-trip formatting gives.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, unit, v)| {
            assert!(v.is_finite(), "metric {n} is not finite: {v}");
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv("--workload stamp_2t --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload, WorkloadId::Stamp2t);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload svc_skewed --trace 2",
            "--workload svc_skewed --seconds 0",
            "--workload svc_skewed --seconds",
            "--workload svc_skewed --seed -1",
            "--workload svc_skewed --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[("wall_s", "s", 1.25), ("peak_rss_mb", "MiB", 64.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 64, \"unit\": \"MiB\"}}}"
        );
    }
}
