//! Self-tests of the benchmark: its digests repeat at one seed and follow
//! the seed, and failed cells are counted instead of ending the run.
//!
//! Each test runs a few cells of a workload's grid, not a whole pass; run
//! them with `cargo test --release --manifest-path hostbench/Cargo.toml`.

use htm_hostbench::workloads::{
    run_pass, run_workload_cell, CellSpec, ParallelRun, Pass, WorkloadId, STAMP_LAYER,
};
use htm_machine::Platform;
use htm_model::SeededBug;
use htm_runtime::{FallbackPolicy, RetryPolicy, Sim, ThreadCtx};

/// The first `n` cells of a workload's grid.
fn cells(w: WorkloadId, n: usize) -> Vec<CellSpec> {
    w.cells().into_iter().take(n).collect()
}

fn pass(cells: &[CellSpec], seed: u64) -> Pass {
    let p = run_pass(cells, seed);
    assert_eq!((p.cells, p.failed), (cells.len() as u64, 0), "stock cells must pass");
    p
}

#[test]
fn svc_digest_repeats_at_a_seed_and_follows_it() {
    let cells = cells(WorkloadId::SvcSkewed, 2);
    let a = pass(&cells, 11);
    assert_eq!(a.digest, pass(&cells, 11).digest, "svc must be deterministic");
    assert_ne!(a.digest, pass(&cells, 12).digest, "another seed must change the traffic");
    assert!(a.events > 0);
}

#[test]
fn stamp_digest_repeats_at_a_seed_and_follows_it() {
    // intruder on BG/Q and zEC12: the sequential baselines repeat.
    let cells: Vec<CellSpec> = WorkloadId::Stamp2t.cells().into_iter().skip(8).take(2).collect();
    assert!(matches!(cells[0], CellSpec::Stamp { bench: stamp::BenchId::Intruder, .. }));
    let a = pass(&cells, 5);
    assert_eq!(a.digest, pass(&cells, 5).digest, "sequential cycles must repeat");
    assert_ne!(a.digest, pass(&cells, 6).digest, "another seed must change the inputs");
}

#[test]
fn model_digest_repeats_at_a_seed() {
    let cells = cells(WorkloadId::ModelDpor, 5);
    let a = pass(&cells, 3);
    assert_eq!(a.digest, pass(&cells, 3).digest, "schedule counts and digest sets repeat");
    assert!(a.events >= 5, "every cell explores at least one schedule");
}

#[test]
fn a_seeded_engine_bug_fails_its_model_cell() {
    let buggy = CellSpec::Model {
        kernel: htm_model::kernel::counter(),
        platform: Platform::IntelCore,
        tier: htm_model::Tier::Hw,
        bug: SeededBug::SkipReaderDoom,
    };
    let mut cells = cells(WorkloadId::ModelDpor, 1);
    cells.push(buggy);
    let p = run_pass(&cells, 1);
    assert_eq!((p.cells, p.failed), (2, 1), "the lost update must count as one failed cell");
}

/// A workload whose result check always fails.
struct BrokenVerify;

impl stamp::Workload for BrokenVerify {
    fn name(&self) -> String {
        "broken-verify".to_string()
    }
    fn mem_words(&self) -> u32 {
        1 << 12
    }
    fn setup(&self, _sim: &Sim) {}
    fn work(&self, ctx: &mut ThreadCtx) {
        ctx.atomic(|_| Ok(()));
    }
    fn verify(&self, _sim: &Sim) {
        panic!("deliberately corrupt result");
    }
}

#[test]
fn a_panicking_verify_is_caught_and_the_run_goes_on() {
    let mut p = Pass::default();
    let run =
        ParallelRun { threads: 2, policy: RetryPolicy::default(), fallback: FallbackPolicy::Lock };
    let r = run_workload_cell(
        &mut p,
        &STAMP_LAYER,
        &|| BrokenVerify,
        &Platform::Power8.config(),
        run,
        1,
        &|_, _| Ok(()),
    );
    let err = r.expect_err("verify panicked");
    assert!(err.contains("deliberately corrupt"), "{err}");
    // The run continues: the next cell measures normally.
    pass(&cells(WorkloadId::SvcSkewed, 1), 2);
}
