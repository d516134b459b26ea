//! Determinism regression tests (DESIGN.md §5).
//!
//! Two guarantees are pinned here:
//!
//! 1. With the empty fault plan and disjoint per-thread data, repeated runs
//!    of the same configuration are bit-identical in every
//!    schedule-independent counter and in the final memory image.
//! 2. A run recorded under a seeded fault plan replays bit-identically from
//!    its [`ScheduleTrace`]: same commits, aborts, injected faults,
//!    watchdog trips, and the same memory digest — including after a
//!    save/load round trip of the trace through disk.

use htm_core::{AbortCategory, WordAddr};
use htm_machine::Platform;
use htm_runtime::{
    FallbackPolicy, FaultPlan, RetryPolicy, RunStats, ScheduleTrace, Sim, SimConfig, ThreadCtx,
    WatchdogConfig,
};

/// One thread's schedule-independent counters: commits (hardware,
/// irrevocable), the five abort classes, injected faults, watchdog trips,
/// degraded commits, and the software-tier triple (STM commits, STM
/// validation aborts, ROT commits).
type CounterRow = (u64, u64, [u64; 5], u64, u64, u64, [u64; 3]);

/// The schedule-independent slice of the statistics: everything except the
/// simulated clocks and lock-wait times, which legitimately vary with OS
/// scheduling.
fn deterministic_counters(stats: &RunStats) -> Vec<CounterRow> {
    stats
        .threads
        .iter()
        .map(|t| {
            (
                t.hw_commits,
                t.irrevocable_commits,
                t.aborts,
                t.injected_faults,
                t.watchdog_trips,
                t.degraded_commits,
                [t.stm_commits, t.stm_validation_aborts, t.rot_commits],
            )
        })
        .collect()
}

#[test]
fn empty_fault_plan_runs_are_bit_identical_across_three_runs() {
    let run = || {
        let cfg = SimConfig::new(Platform::IntelCore.config()).mem_words(1 << 18).seed(0xD5EED);
        let sim = Sim::new(cfg);
        // One isolated line per thread, pre-allocated before the parallel
        // phase, eight lines apart: Intel's streamer prefetches two lines
        // past a confirmed stride (and the lock-line-then-data-line access
        // pattern confirms one), so narrow spacing would let one thread's
        // prefetch land in the other's write set and race.
        let base = sim.alloc().alloc_aligned(2 * 64, 64);
        let stats = sim.run_parallel(2, RetryPolicy::default(), |ctx| {
            let a = base.offset(64 * ctx.thread_id());
            for i in 0..400u64 {
                ctx.atomic(|tx| {
                    let v = tx.load(a)?;
                    tx.store(a, v.wrapping_mul(31).wrapping_add(i))
                });
            }
        });
        (deterministic_counters(&stats), sim.memory_digest())
    };
    let first = run();
    assert_eq!(first, run());
    assert_eq!(first, run());
}

fn contended_sim(plan: FaultPlan, watchdog: WatchdogConfig) -> (Sim, WordAddr) {
    let cfg = SimConfig::new(Platform::IntelCore.config())
        .mem_words(1 << 18)
        .seed(0x7EC0)
        .faults(plan)
        .watchdog(watchdog);
    let sim = Sim::new(cfg);
    // Eight words on one conflict-detection line: every block conflicts.
    let base = sim.alloc().alloc_aligned(8, 64);
    (sim, base)
}

/// Schedule-sensitive workload: each block mixes the thread id into a
/// randomly chosen shared word, so the final memory image depends on the
/// exact commit interleaving — which is exactly what replay must reproduce.
/// The in-transaction RNG draw also exercises the recorded draw-skip logic
/// for aborted attempts.
fn contended_work(base: WordAddr) -> impl Fn(&mut ThreadCtx) + Sync {
    move |ctx: &mut ThreadCtx| {
        let tid = ctx.thread_id() as u64;
        for _ in 0..150 {
            ctx.atomic(|tx| {
                let idx = rand::Rng::gen_range(tx.rng(), 0..8u32);
                let v = tx.load(base.offset(idx))?;
                tx.store(base.offset(idx), v.wrapping_mul(31).wrapping_add(tid + 1))
            });
        }
    }
}

#[test]
fn recorded_fault_injected_run_replays_bit_identically() {
    let plan = FaultPlan::none()
        .transient_abort_per_begin(0.2)
        .capacity_abort_per_begin(0.05)
        .doom_at_commit(0.05);

    let (sim, base) = contended_sim(plan, WatchdogConfig::default());
    let (recorded, trace) =
        sim.record_parallel(4, RetryPolicy::default(), contended_work(base)).expect("record");
    let recorded_digest = sim.memory_digest();
    assert!(recorded.injected_faults() > 0, "the plan must actually fire");
    assert!(trace.blocks() == 600, "150 blocks x 4 threads");
    assert_eq!(trace.aborted_attempts() as u64, recorded.total_aborts());

    // Round-trip the trace through disk before replaying it.
    let path = std::env::temp_dir().join("htm-determinism-replay-trace.txt");
    trace.save(&path).expect("save trace");
    let trace = ScheduleTrace::load(&path).expect("load trace");
    let _ = std::fs::remove_file(&path);

    let (sim2, base2) = contended_sim(plan, WatchdogConfig::default());
    assert_eq!(base, base2, "identical setup must allocate identically");
    let replayed =
        sim2.replay(&trace, RetryPolicy::default(), contended_work(base2)).expect("replay");

    assert_eq!(deterministic_counters(&recorded), deterministic_counters(&replayed));
    assert_eq!(recorded_digest, sim2.memory_digest(), "memory images must match");
}

#[test]
fn watchdog_trips_and_degraded_blocks_replay_faithfully() {
    // 100% abort storm + huge retry budget: progress comes only from
    // watchdog trips and degraded execution — the rarest paths in the
    // retry machine, all of which must round-trip through the trace.
    let plan = FaultPlan::none().transient_abort_per_begin(1.0);
    let watchdog = WatchdogConfig { starvation_bound: 16, degraded_blocks: 4, escalation_cap: 3 };

    let (sim, base) = contended_sim(plan, watchdog);
    let (recorded, trace) = sim
        .record_parallel(2, RetryPolicy::uniform(1_000_000), contended_work(base))
        .expect("record");
    let recorded_digest = sim.memory_digest();
    assert!(recorded.watchdog_trips() > 0, "the storm must trip the watchdog");
    assert_eq!(recorded.hw_commits(), 0);

    let (sim2, base2) = contended_sim(plan, watchdog);
    let replayed = sim2
        .replay(&trace, RetryPolicy::uniform(1_000_000), contended_work(base2))
        .expect("replay");

    assert_eq!(deterministic_counters(&recorded), deterministic_counters(&replayed));
    assert_eq!(recorded_digest, sim2.memory_digest());
}

#[test]
fn replay_rejects_a_mismatched_workload() {
    let (sim, base) = contended_sim(FaultPlan::none(), WatchdogConfig::default());
    let (_, trace) =
        sim.record_parallel(2, RetryPolicy::default(), contended_work(base)).expect("record");

    // A workload that executes no atomic blocks leaves every recorded
    // block unconsumed — reported as divergence, not silently accepted.
    let (sim2, _) = contended_sim(FaultPlan::none(), WatchdogConfig::default());
    let err = sim2.replay(&trace, RetryPolicy::default(), |_ctx: &mut ThreadCtx| {}).unwrap_err();
    assert!(err.to_string().contains("replay diverged"), "{err}");

    // A workload that executes more atomic blocks than the trace recorded
    // runs off the end of its decision stream.
    let (sim3, base3) = contended_sim(FaultPlan::none(), WatchdogConfig::default());
    let err = sim3
        .replay(&trace, RetryPolicy::default(), |ctx: &mut ThreadCtx| {
            contended_work(base3)(ctx);
            ctx.atomic(|tx| {
                let v = tx.load(base3)?;
                tx.store(base3, v + 1)
            });
        })
        .unwrap_err();
    assert!(err.to_string().contains("replay diverged"), "{err}");
}

/// [`contended_work`] entering every block through `entry`.
fn entry_work(base: WordAddr, entry: Entry) -> impl Fn(&mut ThreadCtx) + Sync {
    move |ctx: &mut ThreadCtx| {
        if let Entry::Hle = entry {
            ctx.set_hle(true);
        }
        let tid = ctx.thread_id() as u64;
        for _ in 0..150 {
            let body = |tx: &mut htm_runtime::Tx<'_>| {
                let idx = rand::Rng::gen_range(tx.rng(), 0..8u32);
                let v = tx.load(base.offset(idx))?;
                tx.store(base.offset(idx), v.wrapping_mul(31).wrapping_add(tid + 1))
            };
            match entry {
                Entry::Constrained => ctx.atomic_constrained(body),
                _ => ctx.atomic(body),
            }
        }
    }
}

#[test]
fn software_fallback_runs_replay_bit_identically() {
    // Every retry path round-trips through the trace: recorded STM and
    // ROT blocks replay as software commits, Blue Gene/Q's single-counter
    // blocks, HLE's elided and lock-taking blocks, and zEC12 constrained
    // blocks replay on their recorded paths, with identical counters and
    // memory image, trace disk round trip included. The constrained row
    // runs a low starvation bound: a constrained block counts a watchdog
    // trip without leaving its loop, and replay must count it too.
    let low_bound = WatchdogConfig { starvation_bound: 2, ..WatchdogConfig::default() };
    let rows = [
        (Platform::IntelCore, Entry::Atomic(FallbackPolicy::Stm), WatchdogConfig::default()),
        (Platform::Power8, Entry::Atomic(FallbackPolicy::Rot), WatchdogConfig::default()),
        (Platform::BlueGeneQ, Entry::Atomic(FallbackPolicy::Lock), WatchdogConfig::default()),
        (Platform::IntelCore, Entry::Hle, WatchdogConfig::default()),
        (Platform::Zec12, Entry::Constrained, low_bound),
    ];
    for (i, (platform, entry, watchdog)) in rows.into_iter().enumerate() {
        let plan = FaultPlan::none().transient_abort_per_begin(0.4).doom_at_commit(0.05);
        let make = || {
            let mut cfg = SimConfig::new(platform.config())
                .mem_words(1 << 18)
                .seed(0x50F7)
                .faults(plan)
                .watchdog(watchdog);
            if let Entry::Atomic(fallback) = entry {
                cfg = cfg.fallback(fallback);
            }
            let sim = Sim::new(cfg);
            let base = sim.alloc().alloc_aligned(8, 64);
            (sim, base)
        };

        let (sim, base) = make();
        let (recorded, trace) = sim
            .record_parallel(4, RetryPolicy::uniform(1), entry_work(base, entry))
            .expect("record");
        let recorded_digest = sim.memory_digest();
        assert_eq!(trace.blocks(), 600, "{platform} {entry:?}: 150 blocks x 4 threads");
        assert!(trace.aborted_attempts() > 0, "{platform} {entry:?}: attempts must abort");
        let reached = match entry {
            Entry::Atomic(FallbackPolicy::Rot) => recorded.rot_commits(),
            Entry::Atomic(FallbackPolicy::Stm) => recorded.stm_commits(),
            Entry::Atomic(_) => recorded.aborts_in(AbortCategory::Unclassified),
            Entry::Hle => recorded.irrevocable_commits(),
            Entry::Constrained => recorded.watchdog_trips(),
        };
        assert!(reached > 0, "{platform} {entry:?}: the path under test must be reached");

        let path = std::env::temp_dir().join(format!("htm-determinism-replay-{i}-trace.txt"));
        trace.save(&path).expect("save trace");
        let trace = ScheduleTrace::load(&path).expect("load trace");
        let _ = std::fs::remove_file(&path);

        let (sim2, base2) = make();
        assert_eq!(base, base2);
        let replayed =
            sim2.replay(&trace, RetryPolicy::uniform(1), entry_work(base2, entry)).expect("replay");
        assert_eq!(
            deterministic_counters(&recorded),
            deterministic_counters(&replayed),
            "{platform} {entry:?}"
        );
        assert_eq!(recorded_digest, sim2.memory_digest(), "{platform} {entry:?}");
    }
}

#[test]
fn certified_record_and_replay_both_certify_clean() {
    // Certification composes with record/replay: the recorded schedule and
    // its serialized replay must both be conflict-serializable.
    let cfg =
        SimConfig::new(Platform::IntelCore.config()).mem_words(1 << 18).seed(0xCE47).certify(true);
    let sim = Sim::new(cfg.clone());
    let base = sim.alloc().alloc_aligned(8, 64);
    let (recorded, trace) =
        sim.record_parallel(4, RetryPolicy::default(), contended_work(base)).expect("record");
    let report = recorded.certify.as_ref().expect("certifier on");
    assert!(report.ok(), "{report}");

    let sim2 = Sim::new(cfg);
    let base2 = sim2.alloc().alloc_aligned(8, 64);
    let replayed =
        sim2.replay(&trace, RetryPolicy::default(), contended_work(base2)).expect("replay");
    let report = replayed.certify.as_ref().expect("certifier on");
    assert!(report.ok(), "{report}");
    assert_eq!(sim.memory_digest(), sim2.memory_digest());
}

/// FNV-1a over a stream of `u64` words (little-endian bytes).
fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// How one pinned cell enters its atomic blocks.
#[derive(Clone, Copy, Debug)]
enum Entry {
    Atomic(FallbackPolicy),
    Hle,
    Constrained,
}

/// Runs one single-threaded cell under a heavy seeded fault plan and
/// returns every counter the retry paths feed, plus the memory digest.
/// One thread makes every simulated clock schedule-independent, so the
/// cycle counts are pinned too.
fn pinned_cell(platform: Platform, entry: Entry) -> Vec<u64> {
    let plan = FaultPlan::none()
        .seed(0x9147)
        .transient_abort_per_begin(0.5)
        .capacity_abort_per_begin(0.1)
        .doom_at_commit(0.05)
        .transient_abort_per_access(0.02)
        .lock_release_delay(100);
    let mut cfg =
        SimConfig::new(platform.config()).mem_words(1 << 18).seed(0x9147_0001).faults(plan);
    if let Entry::Atomic(fallback) = entry {
        cfg = cfg.fallback(fallback);
    }
    let sim = Sim::new(cfg);
    // Eight words on one 64-byte block: a constrained body stays inside
    // zEC12's 256-byte footprint limit.
    let base = sim.alloc().alloc_aligned(8, 64);
    let stats = sim.run_parallel(1, RetryPolicy::uniform(1), |ctx| {
        if let Entry::Hle = entry {
            ctx.set_hle(true);
        }
        for i in 0..200u64 {
            let body = |tx: &mut htm_runtime::Tx<'_>| {
                let a = base.offset(rand::Rng::gen_range(tx.rng(), 0..8u32));
                let b = base.offset(rand::Rng::gen_range(tx.rng(), 0..8u32));
                let v = tx.load(a)?;
                let w = tx.load(b)?;
                tx.store(a, v.wrapping_mul(31).wrapping_add(i))?;
                tx.store(b, w ^ v)
            };
            match entry {
                Entry::Constrained => ctx.atomic_constrained(body),
                _ => ctx.atomic(body),
            }
        }
    });
    let t = &stats.threads[0];
    let mut row = vec![
        t.cycles,
        t.hw_commits,
        t.irrevocable_commits,
        t.stm_commits,
        t.rot_commits,
        t.spill_commits,
    ];
    row.extend_from_slice(&t.aborts);
    row.extend([
        t.injected_faults,
        t.stm_validation_aborts,
        t.tier_switches,
        t.backoff_cycles,
        t.capacity_spills,
        t.fallback_lock_waits,
        t.watchdog_trips,
        t.degraded_commits,
        sim.memory_digest(),
    ]);
    row
}

/// Every atomic-block entry point on one thread under one seeded fault
/// plan: the figure-1 loop on all four platforms and all four fallback
/// tiers (STM and ROT fallback loops, the adaptive loop with POWER8's
/// spill escalation, Blue Gene/Q's single counter), Intel HLE and zEC12
/// constrained transactions. The digest pins each retry path's exact
/// budget, backoff draws, abort classification and commit kind.
#[test]
fn every_entry_point_is_pinned_on_one_thread() {
    let mut cells = Vec::new();
    for platform in Platform::ALL {
        for fallback in [
            FallbackPolicy::Lock,
            FallbackPolicy::Stm,
            FallbackPolicy::Rot,
            FallbackPolicy::Adaptive,
        ] {
            cells.push((platform, Entry::Atomic(fallback)));
        }
    }
    cells.push((Platform::IntelCore, Entry::Hle));
    cells.push((Platform::Zec12, Entry::Constrained));
    let rows: Vec<Vec<u64>> = cells.iter().map(|&(p, e)| pinned_cell(p, e)).collect();
    for ((p, e), row) in cells.iter().zip(&rows) {
        println!("{p} {e:?}: {row:?}");
    }
    let digest = fnv64(rows.into_iter().flatten());
    assert_eq!(digest, 0xe6e4_7049_012c_efa3, "pinned digest {digest:#018x}");
}
