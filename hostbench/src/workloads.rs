//! The benchmark's three workloads, each a fixed grid of cells run as one
//! pass, with set-up timed apart from the measured work.
//!
//! Why these three: each loads a different part of the simulator, so an
//! optimisation of one part has a workload that exercises it and one that
//! bypasses it.
//!
//! * `svc_skewed` — the cooperative-scheduler handoff and every tier's
//!   small-transaction commit path (service traffic under `RoundRobin`).
//! * `stamp_2t` — the simulated-access path (conflict table, capacity
//!   tracker, write buffer, hardware commit, lock fallback) on large
//!   footprints with real cross-thread aborts and no coop scheduler.
//! * `model_dpor` — thousands of tiny `Sim` lifetimes under the model
//!   checker's `Controller`, with footprint capture and opacity and
//!   serializability checks; the access path barely matters.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use htm_core::AbortCategory;
use htm_machine::{MachineConfig, Platform};
use htm_model::{Kernel, ModelConfig, Tier};
use htm_runtime::{FallbackPolicy, RetryPolicy, RunStats, Sim, SimConfig};
use stamp::{BenchId, Scale, Variant, Workload};

use crate::host::CpuTimes;
use crate::layers::{ABORT_COUNTS, COMMIT_COUNTS};
use crate::trace;

/// Simulated client sessions per svc cell. With the Tiny shape (4 shards
/// of 128 keys) a 16-cell pass takes 1–2 host seconds.
const SVC_SESSIONS: u64 = 200;

/// Zipf skew of `svc_skewed` in permille: the skew at which the svc
/// experiment's tail latency collapses.
const SVC_SKEW_PERMILLE: u32 = 1100;

/// Worker threads of each `stamp_2t` parallel run.
const STAMP_THREADS: u32 = 2;

/// The svc tiers, in grid order.
const SVC_TIERS: [FallbackPolicy; 4] =
    [FallbackPolicy::Lock, FallbackPolicy::Stm, FallbackPolicy::Rot, FallbackPolicy::Adaptive];

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    /// svc traffic at Zipf 1.1 on 4 platforms × 4 tiers.
    SvcSkewed,
    /// The 10 modified STAMP kernels × 4 platforms, 2 threads.
    Stamp2t,
    /// DPOR model checking of the kernel suite × 4 platforms × 5 tiers.
    ModelDpor,
}

impl WorkloadId {
    /// Every workload, in the order traced runs use as reference passes.
    pub const ALL: [WorkloadId; 3] =
        [WorkloadId::SvcSkewed, WorkloadId::Stamp2t, WorkloadId::ModelDpor];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::SvcSkewed => "svc_skewed",
            WorkloadId::Stamp2t => "stamp_2t",
            WorkloadId::ModelDpor => "model_dpor",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The cells of one pass.
    pub fn cells(self) -> Vec<CellSpec> {
        match self {
            WorkloadId::SvcSkewed => Platform::ALL
                .into_iter()
                .flat_map(|p| SVC_TIERS.map(|tier| CellSpec::Svc { platform: p, tier }))
                .collect(),
            WorkloadId::Stamp2t => BenchId::ALL
                .into_iter()
                .flat_map(|b| Platform::ALL.map(|p| CellSpec::Stamp { bench: b, platform: p }))
                .collect(),
            WorkloadId::ModelDpor => htm_model::kernel::suite()
                .into_iter()
                .flat_map(|k| {
                    Platform::ALL.into_iter().flat_map(move |p| {
                        let k = k.clone();
                        htm_model::ALL_TIERS.map(move |tier| CellSpec::Model {
                            kernel: k.clone(),
                            platform: p,
                            tier,
                            bug: htm_model::SeededBug::None,
                        })
                    })
                })
                .collect(),
        }
    }
}

/// One cell of a workload's grid.
#[derive(Clone, Debug)]
pub enum CellSpec {
    /// One svc (platform, tier) cell: sequential baseline plus the
    /// 5-thread round-robin run.
    Svc {
        /// Simulated platform.
        platform: Platform,
        /// Fallback tier.
        tier: FallbackPolicy,
    },
    /// One STAMP (kernel, platform) cell: sequential baseline plus a
    /// free-running 2-thread run under the lock tier.
    Stamp {
        /// STAMP kernel.
        bench: BenchId,
        /// Simulated platform.
        platform: Platform,
    },
    /// One DPOR exploration.
    Model {
        /// Kernel to explore.
        kernel: Kernel,
        /// Simulated platform.
        platform: Platform,
        /// Fallback tier.
        tier: Tier,
        /// Seeded engine bug (`None` in the benchmark; the self-test arms
        /// one to prove that failures are counted).
        bug: htm_model::SeededBug,
    },
}

/// STAMP input scale per kernel. Labyrinth at `Sim` scale would take
/// about three quarters of the pass by itself, so it runs at `Tiny`.
fn stamp_scale(bench: BenchId) -> Scale {
    match bench {
        BenchId::Labyrinth => Scale::Tiny,
        _ => Scale::Sim,
    }
}

/// FNV-1a over 64-bit words: the digest of a pass's simulated outputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `w` into the digest.
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }

    /// Folds a string into the digest.
    fn text(&mut self, s: &str) {
        for chunk in s.as_bytes().chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(b));
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Host cost and simulated outcome of one pass.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Wall time of input generation, `Sim` construction and
    /// `Workload::setup` (not part of `measured`).
    pub setup: Duration,
    /// Wall time of the measured work: runs, verification, teardown.
    pub measured: Duration,
    /// Process CPU time over the measured regions.
    pub cpu: CpuTimes,
    /// Simulated events: committed atomic blocks of the parallel runs
    /// (svc, STAMP) or explored schedules (model).
    pub events: u64,
    /// Cells attempted.
    pub cells: u64,
    /// Cells that failed.
    pub failed: u64,
    /// Digest of the deterministic simulated outputs.
    pub digest: Digest,
}

impl Pass {
    fn setup<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.setup += t.elapsed();
        r
    }

    fn measure<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let cpu = CpuTimes::now();
        let t = Instant::now();
        let r = f();
        self.measured += t.elapsed();
        self.cpu.add(CpuTimes::now().since(cpu));
        r
    }
}

/// The seed of cell `index` in a run seeded with `seed` (SplitMix64).
/// Each cell draws its own inputs, so how heavy one seed's inputs happen
/// to be averages out over the grid instead of repeating in every cell.
fn cell_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(index as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs every cell once with inputs drawn from `seed`.
pub fn run_pass(cells: &[CellSpec], seed: u64) -> Pass {
    let mut pass = Pass::default();
    for (index, cell) in cells.iter().enumerate() {
        let seed = cell_seed(seed, index);
        pass.cells += 1;
        let ok = match cell {
            CellSpec::Svc { platform, tier } => svc_cell(&mut pass, *platform, *tier, seed),
            CellSpec::Stamp { bench, platform } => stamp_cell(&mut pass, *bench, *platform, seed),
            CellSpec::Model { kernel, platform, tier, bug } => {
                model_cell(&mut pass, kernel, *platform, *tier, *bug, seed)
            }
        };
        if !ok {
            pass.failed += 1;
            pass.digest.word(u64::MAX);
        }
    }
    pass
}

/// Span names for one `stamp::Workload` layer's calls.
pub struct Layer {
    make: &'static str,
    setup: &'static str,
    verify: &'static str,
}

/// The svc layer: the constructor generates the traffic.
const SVC_LAYER: Layer =
    Layer { make: "svc.traffic.generate", setup: "svc.setup", verify: "svc.verify" };
/// The STAMP layer: constructor and `Workload::setup` both count as set-up.
pub const STAMP_LAYER: Layer =
    Layer { make: "stamp.setup", setup: "stamp.setup", verify: "stamp.verify" };

/// Outcome of one [`run_workload_cell`].
#[derive(Debug)]
pub struct CellRun {
    /// Simulated cycles of the sequential baseline.
    pub seq_cycles: u64,
    /// Statistics of the parallel run.
    pub stats: RunStats,
}

/// How one parallel run is configured.
#[derive(Clone, Copy, Debug)]
pub struct ParallelRun {
    /// Worker threads.
    pub threads: u32,
    /// Retry-counter maxima.
    pub policy: RetryPolicy,
    /// Fallback tier.
    pub fallback: FallbackPolicy,
}

/// Measures one `stamp::Workload` cell the way `stamp::measure` does — a
/// sequential baseline and a parallel run, each on a fresh instance — but
/// with input generation, `Sim` construction and `Workload::setup` timed
/// as set-up. `check` inspects the parallel run after `verify`.
///
/// A panic anywhere in the cell (a failed `verify`, a worker panic) is
/// caught and reported as `Err`, so one bad cell cannot end the run.
pub fn run_workload_cell<W: Workload>(
    pass: &mut Pass,
    layer: &Layer,
    make: &dyn Fn() -> W,
    machine: &MachineConfig,
    run: ParallelRun,
    seed: u64,
    check: &dyn Fn(&W, &RunStats) -> Result<(), String>,
) -> Result<CellRun, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let (w, sim) = pass.setup(|| build(layer, make, machine, FallbackPolicy::Lock, seed, 1));
        let seq_cycles = pass.measure(|| {
            let cycles =
                trace::span("runtime.run_sequential", || sim.run_sequential(|ctx| w.work(ctx)));
            trace::span(layer.verify, || w.verify(&sim));
            drop((w, sim));
            cycles
        });
        let (w, sim) = pass.setup(|| build(layer, make, machine, run.fallback, seed, run.threads));
        pass.measure(|| {
            let stats = trace::span("runtime.run_parallel", || {
                sim.run_parallel(run.threads, run.policy, |ctx| w.work(ctx))
            });
            trace::span(layer.verify, || w.verify(&sim));
            let checked = check(&w, &stats);
            drop((w, sim));
            checked.map(|()| CellRun { seq_cycles, stats })
        })
    }))
    .unwrap_or_else(|p| Err(htm_core::panic_message(&*p)))
}

fn build<W: Workload>(
    layer: &Layer,
    make: &dyn Fn() -> W,
    machine: &MachineConfig,
    fallback: FallbackPolicy,
    seed: u64,
    threads: u32,
) -> (W, Sim) {
    let w = trace::span(layer.make, make);
    // The same configuration `stamp::measure` builds, with the same 1 Mi
    // word floor.
    let cfg = SimConfig::new(machine.clone())
        .mem_words(w.mem_words().max(1 << 20))
        .seed(seed)
        .fallback(fallback);
    let sim = trace::span("runtime.sim_new", || Sim::new(cfg));
    trace::span(layer.setup, || w.setup(&sim));
    w.prepare(threads);
    (w, sim)
}

/// Counts a parallel run's commits and aborts into the trace and its
/// committed blocks into the pass's events.
fn record_stats(pass: &mut Pass, stats: &RunStats) {
    let commits = [
        stats.hw_commits(),
        stats.irrevocable_commits(),
        stats.stm_commits(),
        stats.rot_commits(),
        stats.spill_commits(),
    ];
    for (name, v) in COMMIT_COUNTS.into_iter().zip(commits) {
        trace::count(name, v as f64);
    }
    for (name, cat) in ABORT_COUNTS.into_iter().zip(AbortCategory::ALL) {
        trace::count(name, stats.aborts_in(cat) as f64);
    }
    trace::count("runtime.tier_switches", stats.tier_switches() as f64);
    trace::count(
        "runtime.lock_wait_cycles",
        stats.threads.iter().map(|t| t.lock_wait_cycles).sum::<u64>() as f64,
    );
    pass.events += stats.committed_blocks();
}

fn svc_cell(pass: &mut Pass, platform: Platform, tier: FallbackPolicy, seed: u64) -> bool {
    let params = htm_svc::SvcParams {
        sessions: SVC_SESSIONS,
        ..htm_svc::params_for(Scale::Tiny, SVC_SKEW_PERMILLE)
    };
    let make = || htm_svc::SvcWorkload::new(params, seed);
    let run = ParallelRun {
        threads: htm_svc::threads_for(&params),
        policy: RetryPolicy::default(),
        fallback: tier,
    };
    let check = |w: &htm_svc::SvcWorkload, stats: &RunStats| {
        let (got, want) = (stats.latency().count(), w.total_requests());
        if got < want {
            return Err(format!("latency histogram holds {got} of {want} requests"));
        }
        Ok(())
    };
    match run_workload_cell(pass, &SVC_LAYER, &make, &platform.config(), run, seed, &check) {
        Ok(r) => {
            record_stats(pass, &r.stats);
            let s = &r.stats;
            let lat = s.latency();
            for w in [
                r.seq_cycles,
                s.hw_commits(),
                s.irrevocable_commits(),
                s.stm_commits(),
                s.rot_commits(),
                s.spill_commits(),
                lat.count(),
            ] {
                pass.digest.word(w);
            }
            for cat in AbortCategory::ALL {
                pass.digest.word(s.aborts_in(cat));
            }
            pass.digest.text(&format!("{lat:?}"));
            true
        }
        Err(e) => {
            eprintln!("svc cell {platform:?}/{}: FAILED: {e}", tier.key());
            false
        }
    }
}

fn stamp_cell(pass: &mut Pass, bench: BenchId, platform: Platform, seed: u64) -> bool {
    let machine = htm_exp::machine_for(platform, bench);
    let make =
        stamp::workload_factory(bench, Variant::Modified, &machine, stamp_scale(bench), seed);
    let run = ParallelRun {
        threads: STAMP_THREADS,
        policy: htm_exp::tuned_policy(platform, bench),
        fallback: FallbackPolicy::Lock,
    };
    match run_workload_cell(pass, &STAMP_LAYER, &*make, &machine, run, seed, &|_, _| Ok(())) {
        Ok(r) => {
            record_stats(pass, &r.stats);
            // Only the sequential baseline repeats exactly; the parallel
            // run races two free-running threads.
            pass.digest.word(r.seq_cycles);
            true
        }
        Err(e) => {
            eprintln!("stamp cell {bench}/{platform:?}: FAILED: {e}");
            false
        }
    }
}

fn model_cell(
    pass: &mut Pass,
    kernel: &Kernel,
    platform: Platform,
    tier: Tier,
    bug: htm_model::SeededBug,
    seed: u64,
) -> bool {
    let cfg = pass.setup(|| ModelConfig {
        seed,
        ..ModelConfig::new(kernel.clone(), platform, tier).bug(bug)
    });
    let report = pass.measure(|| {
        catch_unwind(AssertUnwindSafe(|| trace::span("model.explore", || htm_model::explore(&cfg))))
    });
    match report {
        Ok(r) => {
            trace::count("model.schedules", r.schedules as f64);
            trace::count("model.steps", r.steps_total as f64);
            trace::count("model.sleep_pruned", r.sleep_pruned as f64);
            pass.events += r.schedules;
            for w in [r.schedules, r.steps_total, r.sleep_pruned, r.digests.len() as u64] {
                pass.digest.word(w);
            }
            for &d in &r.digests {
                pass.digest.word(d);
            }
            if !r.ok() {
                eprintln!("model cell {}/{platform:?}/{}: FAILED:\n{r}", kernel.name, tier.key());
            }
            r.ok()
        }
        Err(p) => {
            eprintln!(
                "model cell {}/{platform:?}/{}: FAILED: {}",
                kernel.name,
                tier.key(),
                htm_core::panic_message(&*p)
            );
            false
        }
    }
}
