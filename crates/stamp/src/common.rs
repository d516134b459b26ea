//! Benchmark framework shared by all eight STAMP ports.
//!
//! The measurement protocol replicates the paper's (Section 5): for one
//! (platform × benchmark × thread count) cell, the workload is built and run
//! once *sequentially* (no transactional overhead — the speed-up baseline)
//! and once with N worker threads under the Figure-1 retry mechanism; the
//! speed-up ratio is sequential cycles over the slowest worker's cycles, and
//! the abort statistics come from the parallel run.

use std::sync::{Barrier, Mutex};

use htm_core::SyncClock;
use htm_machine::MachineConfig;
use htm_runtime::{
    FallbackPolicy, FaultPlan, RetryPolicy, RunStats, SeqTracer, Sim, SimConfig, ThreadCtx,
};

/// Input scale for a benchmark.
///
/// `Sim` keeps full-figure regeneration to minutes while preserving the
/// contention and footprint regimes that drive the paper's findings; `Full`
/// approaches the paper's non-simulator inputs; `Tiny` is for unit tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Scale {
    /// Minimal inputs for fast unit tests.
    Tiny,
    /// Reduced inputs for figure regeneration (default).
    #[default]
    Sim,
    /// Paper-scale inputs (slow).
    Full,
}

/// Common parameters of one benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct BenchParams {
    /// Worker threads for the parallel run.
    pub threads: u32,
    /// Retry-counter maxima (tuned per cell, as in the paper).
    pub policy: RetryPolicy,
    /// Input scale.
    pub scale: Scale,
    /// Input-generation seed.
    pub seed: u64,
    /// Run atomic blocks through Intel hardware lock elision instead of
    /// RTM (the Figure-7 comparison; Intel Core only).
    pub use_hle: bool,
    /// Fault-injection plan for the parallel run (empty by default; the
    /// sequential baseline is never injected).
    pub faults: FaultPlan,
    /// Run the parallel phase under the correctness certifier and panic if
    /// the committed schedule is not conflict-serializable (the report also
    /// lands in [`RunStats::certify`]).
    pub certify: bool,
    /// Run the parallel phase under the happens-before race sanitizer; the
    /// report lands in [`RunStats::race`] (not asserted here — the lint
    /// layer decides severity).
    pub sanitize: bool,
    /// What exhausted retry counters fall back to: the global lock (the
    /// paper's mechanism), a NOrec-style software transaction, or a POWER8
    /// rollback-only commit (see [`FallbackPolicy`]).
    pub fallback: FallbackPolicy,
}

impl Default for BenchParams {
    fn default() -> BenchParams {
        BenchParams {
            threads: 4,
            policy: RetryPolicy::default(),
            scale: Scale::Sim,
            seed: 42,
            use_hle: false,
            faults: FaultPlan::none(),
            certify: false,
            sanitize: false,
            fallback: FallbackPolicy::Lock,
        }
    }
}

/// Result of measuring one benchmark cell.
#[derive(Debug)]
pub struct BenchResult {
    /// Simulated cycles of the sequential baseline.
    pub seq_cycles: u64,
    /// Statistics of the parallel run (cycles, aborts, serialization).
    pub stats: RunStats,
}

impl BenchResult {
    /// Speed-up of transactional execution over sequential execution.
    pub fn speedup(&self) -> f64 {
        let par = self.stats.cycles();
        if par == 0 {
            return 0.0;
        }
        self.seq_cycles as f64 / par as f64
    }

    /// The run's transaction-abort ratio (Figure 3 definition).
    pub fn abort_ratio(&self) -> f64 {
        self.stats.abort_ratio()
    }
}

/// One STAMP workload instance: built fresh for every run.
///
/// `work` is executed by every worker; it partitions by
/// `ctx.thread_id()` / `ctx.num_threads()`. Multi-phase benchmarks
/// synchronize phases on the [`PhaseBarrier`] installed by the framework.
pub trait Workload: Sync {
    /// Human-readable benchmark name (e.g. `"genome (modified)"`).
    fn name(&self) -> String;

    /// Words of simulated memory this workload needs.
    fn mem_words(&self) -> u32 {
        1 << 22
    }

    /// Builds inputs and shared structures (runs on one thread, before
    /// timing starts).
    fn setup(&self, sim: &Sim);

    /// Called once per run with the worker count, before `work` starts on
    /// any thread (multi-phase workloads size their [`PhaseBarrier`] here).
    fn prepare(&self, threads: u32) {
        let _ = threads;
    }

    /// Per-thread measured work.
    fn work(&self, ctx: &mut ThreadCtx);

    /// Checks the run's result; panics on corruption.
    fn verify(&self, sim: &Sim);

    /// Optional *schedule-independent* digest of the workload's result,
    /// used by the differential oracle ([`run_oracle`]) to cross-check a
    /// sequential and a parallel run of the same inputs. `None` (the
    /// default) skips the cross-check: most workloads' raw memory images
    /// legitimately depend on commit order (e.g. insertion order inside a
    /// bucket), so the digest must hash an order-normalized view.
    fn result_digest(&self, sim: &Sim) -> Option<u64> {
        let _ = sim;
        None
    }
}

impl Workload for Box<dyn Workload> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn mem_words(&self) -> u32 {
        (**self).mem_words()
    }
    fn setup(&self, sim: &Sim) {
        (**self).setup(sim)
    }
    fn prepare(&self, threads: u32) {
        (**self).prepare(threads)
    }
    fn work(&self, ctx: &mut ThreadCtx) {
        (**self).work(ctx)
    }
    fn verify(&self, sim: &Sim) {
        (**self).verify(sim)
    }
    fn result_digest(&self, sim: &Sim) -> Option<u64> {
        (**self).result_digest(sim)
    }
}

/// Re-usable inter-phase barrier for multi-phase workloads (genome's three
/// phases). Sized by the framework before each run.
#[derive(Debug, Default)]
pub struct PhaseBarrier {
    inner: Mutex<Option<std::sync::Arc<Barrier>>>,
    max_clock: std::sync::atomic::AtomicU64,
    /// Vector clock of the barrier for the race sanitizer: every thread
    /// releases into it before blocking and acquires from it after, so all
    /// pre-barrier accesses happen-before all post-barrier accesses.
    sync: SyncClock,
}

impl PhaseBarrier {
    /// Creates an unsized barrier (sized by [`PhaseBarrier::size_for`]).
    pub fn new() -> PhaseBarrier {
        PhaseBarrier::default()
    }

    /// Sizes the barrier for `threads` workers.
    pub fn size_for(&self, threads: u32) {
        // Poison recovery: the guarded value is just a handle, valid even if
        // a panicking worker died mid-access.
        *self.inner.lock().unwrap_or_else(|p| p.into_inner()) =
            Some(std::sync::Arc::new(Barrier::new(threads as usize)));
    }

    /// Waits for all workers (no-op when sized for one thread).
    ///
    /// # Panics
    ///
    /// Panics if the barrier was never sized.
    pub fn wait(&self) {
        let b = self
            .inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .as_ref()
            .expect("phase barrier not sized")
            .clone();
        b.wait();
    }

    /// Waits for all workers and synchronizes simulated clocks: every
    /// thread resumes at the latest arriving thread's simulated time
    /// (without this, time spent waiting at a barrier would be free and
    /// serial sections would not cost simulated time).
    ///
    /// Clock maxima are monotone, so the accumulator never needs resetting.
    ///
    /// # Panics
    ///
    /// Panics if the barrier was never sized.
    pub fn wait_sync(&self, ctx: &htm_runtime::ThreadCtx) {
        use std::sync::atomic::Ordering;
        self.max_clock.fetch_max(ctx.now(), Ordering::SeqCst);
        ctx.hb_release(&self.sync);
        self.wait();
        ctx.hb_acquire(&self.sync);
        ctx.advance_clock_to(self.max_clock.load(Ordering::SeqCst));
    }
}

/// Builds `make()`'s workload on a fresh simulation (its configuration
/// refined by `adjust`), runs the workload's setup and sizes it for
/// `threads` workers. Every driver below starts here.
fn build<W: Workload>(
    make: &dyn Fn() -> W,
    machine: &MachineConfig,
    seed: u64,
    threads: u32,
    adjust: impl FnOnce(SimConfig) -> SimConfig,
) -> (W, Sim) {
    let w = make();
    // Floor of 1 M words (8 MiB): per-thread allocator chunks and retry
    // churn need headroom beyond the workload's own estimate.
    let cfg = SimConfig::new(machine.clone()).mem_words(w.mem_words().max(1 << 20)).seed(seed);
    let sim = Sim::new(adjust(cfg));
    w.setup(&sim);
    w.prepare(threads);
    (w, sim)
}

/// Runs `make()`'s workload once sequentially; returns its cycles.
pub fn run_sequential<W: Workload>(
    make: &dyn Fn() -> W,
    machine: &MachineConfig,
    seed: u64,
) -> u64 {
    let (w, sim) = build(make, machine, seed, 1, |c| c);
    let cycles = sim.run_sequential(|ctx| w.work(ctx));
    w.verify(&sim);
    cycles
}

/// Runs `make()`'s workload once with `params.threads` workers under every
/// run option of `params`: retry policy, fault plan, certifier, race
/// sanitizer (its report lands in the returned stats' `race` and is not
/// asserted here), fallback tier and HLE. `params.scale` is not read:
/// `make` already fixes the inputs.
///
/// # Panics
///
/// Panics on workload corruption, on certifier violations when
/// `params.certify` is set, and when `params.use_hle` is set on a machine
/// without hardware lock elision.
pub fn run_parallel<W: Workload>(
    make: &dyn Fn() -> W,
    machine: &MachineConfig,
    params: &BenchParams,
) -> RunStats {
    parallel(make, machine, params).2
}

/// [`run_parallel`], keeping the workload and simulation for inspection.
fn parallel<W: Workload>(
    make: &dyn Fn() -> W,
    machine: &MachineConfig,
    p: &BenchParams,
) -> (W, Sim, RunStats) {
    let (w, sim) = build(make, machine, p.seed, p.threads, |c| {
        c.faults(p.faults).certify(p.certify).sanitize(p.sanitize).fallback(p.fallback)
    });
    let stats = sim.run_parallel(p.threads, p.policy, |ctx| {
        ctx.set_hle(p.use_hle);
        w.work(ctx)
    });
    w.verify(&sim);
    if let Some(report) = &stats.certify {
        assert!(report.ok(), "{}: certifier found violations:\n{report}", w.name());
    }
    (w, sim, stats)
}

/// Full measurement of one cell: sequential baseline + parallel run.
pub fn measure<W: Workload>(
    make: &dyn Fn() -> W,
    machine: &MachineConfig,
    params: &BenchParams,
) -> BenchResult {
    let seq_cycles = run_sequential(make, machine, params.seed);
    BenchResult { seq_cycles, stats: run_parallel(make, machine, params) }
}

/// Differential oracle for one cell: runs the workload sequentially (the
/// reference), then in parallel as [`run_parallel`] does with the
/// correctness certifier forced on; both runs pass the workload's own
/// `verify`, the parallel schedule must be conflict-serializable, and —
/// when the workload defines a schedule-independent
/// [`Workload::result_digest`] — the two results must hash identically.
/// The parallel run commits through `params.fallback` while the reference
/// stays tier-free, so digest equality across fallback policies is exactly
/// the hybrid-TM differential oracle. Returns the certified parallel
/// statistics.
///
/// # Panics
///
/// Panics on any oracle failure: workload corruption, certifier
/// violations, or a sequential/parallel digest mismatch.
pub fn run_oracle<W: Workload>(
    make: &dyn Fn() -> W,
    machine: &MachineConfig,
    params: &BenchParams,
) -> RunStats {
    // Sequential reference: no faults and no certifier, since it defines
    // correctness.
    let (w, sim) = build(make, machine, params.seed, 1, |c| c);
    sim.run_sequential(|ctx| w.work(ctx));
    w.verify(&sim);
    let seq_digest = w.result_digest(&sim);

    let (w, sim, stats) = parallel(make, machine, &BenchParams { certify: true, ..*params });
    if let (Some(s), Some(p)) = (seq_digest, w.result_digest(&sim)) {
        assert_eq!(s, p, "{}: sequential and parallel result digests differ", w.name());
    }
    stats
}

/// Runs the workload sequentially on the traced context `ctx_of` creates
/// and returns its tracer.
fn trace<W: Workload>(
    make: &dyn Fn() -> W,
    machine: &MachineConfig,
    seed: u64,
    ctx_of: impl FnOnce(&Sim) -> ThreadCtx,
) -> SeqTracer {
    let (w, sim) = build(make, machine, seed, 1, |c| c);
    let mut ctx = ctx_of(&sim);
    w.work(&mut ctx);
    let tracer = sim.take_tracer(&mut ctx);
    w.verify(&sim);
    tracer
}

/// Runs the workload sequentially under the footprint tracer, recording
/// per-transaction load/store sizes at each granularity (Figures 10–11).
pub fn trace_footprints<W: Workload>(
    make: &dyn Fn() -> W,
    machine: &MachineConfig,
    granularities: &[u32],
    seed: u64,
) -> SeqTracer {
    trace(make, machine, seed, |sim| sim.seq_ctx_traced(granularities))
}

/// Like [`trace_footprints`], but also keeps each block's distinct line
/// IDs ([`SeqTracer::line_sets`]) so the capacity analyzer can replay the
/// footprints against each platform's tracking-structure model.
pub fn trace_line_sets<W: Workload>(
    make: &dyn Fn() -> W,
    machine: &MachineConfig,
    granularities: &[u32],
    seed: u64,
) -> SeqTracer {
    trace(make, machine, seed, |sim| sim.seq_ctx_traced_sets(granularities))
}

/// Deterministically splits `0..total` into `num_threads` contiguous chunks
/// and returns the half-open range of `thread_id`.
pub fn partition(total: u64, thread_id: u32, num_threads: u32) -> std::ops::Range<u64> {
    let n = num_threads as u64;
    let t = thread_id as u64;
    let base = total / n;
    let extra = total % n;
    let start = t * base + t.min(extra);
    let len = base + (t < extra) as u64;
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_everything_disjointly() {
        for total in [0u64, 1, 7, 100, 101] {
            for threads in [1u32, 2, 3, 8] {
                let mut covered = Vec::new();
                for t in 0..threads {
                    covered.extend(partition(total, t, threads));
                }
                assert_eq!(covered, (0..total).collect::<Vec<_>>(), "{total}/{threads}");
            }
        }
    }

    #[test]
    fn phase_barrier_single_thread_is_noop() {
        let b = PhaseBarrier::new();
        b.size_for(1);
        b.wait();
        b.wait();
    }

    #[test]
    fn phase_barrier_synchronizes_threads() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let b = std::sync::Arc::new(PhaseBarrier::new());
        b.size_for(4);
        let phase1_done = std::sync::Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let b = std::sync::Arc::clone(&b);
            let p = std::sync::Arc::clone(&phase1_done);
            handles.push(std::thread::spawn(move || {
                p.fetch_add(1, Ordering::SeqCst);
                b.wait();
                assert_eq!(p.load(Ordering::SeqCst), 4, "phase 1 incomplete after barrier");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn bench_result_speedup() {
        let r = BenchResult {
            seq_cycles: 1000,
            stats: RunStats::new(vec![htm_runtime::ThreadStats {
                cycles: 250,
                ..Default::default()
            }]),
        };
        assert!((r.speedup() - 4.0).abs() < 1e-12);
    }
}
