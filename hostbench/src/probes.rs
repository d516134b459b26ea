//! Layer micro-probes: each calls one layer's public functions in a tight
//! loop and reports host time per operation.
//!
//! Every probe runs [`BATCHES`] batches and reports the median batch, so
//! a single preempted batch does not move the figure. The commit and
//! data-structure probes carry over the cases of the former criterion
//! suite (commit per platform, the contended commit, rbtree and hashtable
//! operations).

use std::sync::Arc;
use std::time::Instant;

use htm_core::coop::{self, CoopPoint};
use htm_core::{ConflictPolicy, Geometry, LineId, SlotId, TxMemory, WordAddr};
use htm_machine::{Machine, Platform};
use htm_runtime::{FallbackPolicy, RetryPolicy, Sim, SimConfig};
use tm_structs::{TmHashTable, TmRbTree};

use crate::stats::median;
use crate::trace;

/// Batches per probe.
const BATCHES: usize = 5;

/// Lowercase platform key used in metric names.
fn platform_key(p: Platform) -> &'static str {
    match p {
        Platform::BlueGeneQ => "bgq",
        Platform::Zec12 => "zec12",
        Platform::IntelCore => "intel",
        Platform::Power8 => "p8",
    }
}

/// Runs `batch` [`BATCHES`] times inside a span named `name`; each call
/// returns (elapsed seconds, operations). Returns the median seconds per
/// operation.
fn per_op(name: &'static str, mut batch: impl FnMut() -> (f64, u64)) -> f64 {
    trace::span(name, || {
        let v: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let (secs, ops) = batch();
                secs / ops as f64
            })
            .collect();
        median(&v)
    })
}

/// Round trip of the svc `RoundRobin` scheduler: 5 registered threads
/// (the svc cell's shape) each call `coop::point` `rounds` times; every
/// call hands the grant to the next thread. Microseconds per handoff.
pub fn svc_handoff_us(rounds: u64) -> f64 {
    const THREADS: u32 = 5;
    per_op("probe.svc.sched.handoff", || {
        let sched = htm_svc::sched::RoundRobin::new(THREADS);
        let t = Instant::now();
        std::thread::scope(|s| {
            for tid in 0..THREADS {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let _hooks = coop::install(sched.hooks(tid));
                    let _done = sched.finish_guard(tid);
                    sched.register(tid);
                    for _ in 0..rounds {
                        coop::point(CoopPoint::BlockStart);
                    }
                });
            }
        });
        (t.elapsed().as_secs_f64(), THREADS as u64 * rounds)
    }) * 1e6
}

/// Round trip of the model checker's `Controller`: 2 threads, with a
/// forced schedule that alternates them at every `coop::point`.
/// Microseconds per handoff.
pub fn controller_handoff_us(rounds: u64) -> f64 {
    per_op("probe.model.controller.handoff", || {
        let steps = 2 * rounds + 1;
        let forced: Vec<u32> = (0..steps).map(|i| (i % 2) as u32).collect();
        let ctrl = htm_model::Controller::new(2, forced, steps + 8);
        let t = Instant::now();
        std::thread::scope(|s| {
            for tid in 0..2 {
                let ctrl = Arc::clone(&ctrl);
                s.spawn(move || {
                    let _hooks = coop::install(ctrl.hooks(tid));
                    let _done = ctrl.finish_guard(tid);
                    ctrl.register(tid);
                    for _ in 0..rounds {
                        coop::point(CoopPoint::BlockStart);
                    }
                });
            }
        });
        let secs = t.elapsed().as_secs_f64();
        let (log, abort) = ctrl.take_result();
        assert!(abort.is_none(), "controller probe aborted: {abort:?}");
        assert!(log.len() as u64 >= 2 * rounds, "controller probe lost grants");
        (secs, 2 * rounds)
    }) * 1e6
}

/// `Sim::new` at the shape the model explorer builds for every schedule
/// (4 Ki words, certifier on). Microseconds per construction.
pub fn sim_new_us(iters: u64) -> f64 {
    per_op("probe.runtime.sim_new", || {
        let t = Instant::now();
        for _ in 0..iters {
            let sim = Sim::new(
                SimConfig::new(Platform::Power8.config()).mem_words(1 << 12).certify(true),
            );
            std::hint::black_box(&sim);
        }
        (t.elapsed().as_secs_f64(), iters)
    }) * 1e6
}

/// `threads` workers each commit `iters` load-and-store atomic blocks on
/// one shared word under the lock tier. Nanoseconds per committed block,
/// counting thread start-up, which `iters` amortises.
fn commit_ns(name: &'static str, platform: Platform, threads: u32, iters: u64) -> f64 {
    per_op(name, || {
        let sim = Sim::new(SimConfig::new(platform.config()).mem_words(1 << 16));
        let a = sim.alloc().alloc(1);
        let t = Instant::now();
        let stats = sim.run_parallel(threads, RetryPolicy::default(), |ctx| {
            for _ in 0..iters {
                ctx.atomic(|tx| {
                    let v = tx.load(a)?;
                    tx.store(a, v + 1)
                });
            }
        });
        let secs = t.elapsed().as_secs_f64();
        let n = threads as u64 * iters;
        assert_eq!(sim.read_word(a), n, "{name}: lost updates");
        assert_eq!(stats.committed_blocks(), n, "{name}: commit count");
        (secs, n)
    }) * 1e9
}

/// Lines each tier-probe block loads: more than POWER8's 64-entry TMCAM
/// holds, so the hardware attempt aborts on capacity and the tier's own
/// path commits the block. (A lone thread's small block always commits in
/// hardware and never reaches a tier.)
const TIER_PROBE_LINES: u32 = 72;

/// Single-thread blocks of [`TIER_PROBE_LINES`] loads and one store per
/// tier on POWER8, with no hardware retries (the adaptive controller keeps
/// its own ladder). Nanoseconds per block, the refused hardware attempt
/// included. Each tier must commit every block itself: lock → irrevocable,
/// stm → software, rot → rollback-only, adaptive → capacity spill.
pub fn tier_commit_ns(iters: u64) -> Vec<(&'static str, f64)> {
    type Committed = fn(&htm_runtime::RunStats) -> u64;
    let none = RetryPolicy::uniform(0);
    let tiers: [(&str, FallbackPolicy, RetryPolicy, Committed); 4] = [
        ("runtime.commit_ns.lock", FallbackPolicy::Lock, none, |s| s.irrevocable_commits()),
        ("runtime.commit_ns.stm", FallbackPolicy::Stm, none, |s| s.stm_commits()),
        ("runtime.commit_ns.rot", FallbackPolicy::Rot, none, |s| s.rot_commits()),
        ("runtime.commit_ns.adaptive", FallbackPolicy::Adaptive, RetryPolicy::default(), |s| {
            s.spill_commits()
        }),
    ];
    let cfg = Platform::Power8.config();
    let wpl = cfg.granularity / 8;
    tiers
        .into_iter()
        .map(|(name, fallback, policy, committed)| {
            let ns = per_op("probe.runtime.commit_tier", || {
                let sim =
                    Sim::new(SimConfig::new(cfg.clone()).mem_words(1 << 16).fallback(fallback));
                let base = sim.alloc().alloc(wpl * TIER_PROBE_LINES).0;
                let t = Instant::now();
                let stats = sim.run_parallel(1, policy, |ctx| {
                    for _ in 0..iters {
                        ctx.atomic(|tx| {
                            let mut sum = 0u64;
                            for l in 0..TIER_PROBE_LINES {
                                sum = sum.wrapping_add(tx.load(WordAddr(base + l * wpl))?);
                            }
                            tx.store(WordAddr(base), sum.wrapping_add(1))
                        });
                    }
                });
                let secs = t.elapsed().as_secs_f64();
                assert_eq!(committed(&stats), iters, "{name}: blocks committed off-tier");
                (secs, iters)
            });
            (name, ns * 1e9)
        })
        .collect()
}

/// Single-thread hardware commit per platform under the lock tier.
pub fn platform_commit_ns(iters: u64) -> Vec<(String, f64)> {
    Platform::ALL
        .into_iter()
        .map(|p| {
            let name = format!("runtime.commit_ns.{}", platform_key(p));
            (name, commit_ns("probe.runtime.commit_platform", p, 1, iters))
        })
        .collect()
}

/// Two threads committing to the same word on Intel Core.
pub fn contended_commit_ns(iters: u64) -> f64 {
    commit_ns("probe.runtime.commit_contended", Platform::IntelCore, 2, iters)
}

/// `TxMemory::tx_read_line` and `tx_claim_line` on POWER8's geometry: one
/// transaction touches `lines` lines, then releases them. Nanoseconds per
/// line, release included.
pub fn mem_line_ns(iters: u64, lines: u32) -> (f64, f64) {
    let geometry = Geometry::new(Platform::Power8.config().granularity);
    let mem = TxMemory::new(1 << 16, geometry);
    let slot = SlotId(0);
    let policy = ConflictPolicy::RequesterWins;
    let run = |claim: bool| {
        let t = Instant::now();
        for _ in 0..iters {
            mem.begin_slot(slot);
            for l in 0..lines {
                let line = LineId(l);
                if claim {
                    mem.tx_claim_line(slot, line, policy).expect("uncontended claim");
                } else {
                    mem.tx_read_line(slot, line, policy).expect("uncontended read");
                }
            }
            for l in 0..lines {
                if claim {
                    mem.release_writer(LineId(l), slot);
                } else {
                    mem.clear_reader(LineId(l), slot);
                }
            }
            mem.finish_slot(slot);
        }
        (t.elapsed().as_secs_f64(), iters * lines as u64)
    };
    let read = per_op("probe.core.mem.tx_read_line", || run(false));
    let claim = per_op("probe.core.mem.tx_claim_line", || run(true));
    (read * 1e9, claim * 1e9)
}

/// `Tracker::on_first_load` per platform: transactions of 32 distinct
/// lines (inside every platform's capacity). Nanoseconds per call.
pub fn tracker_first_load_ns(iters: u64) -> Vec<(String, f64)> {
    const LINES: u32 = 32;
    Platform::ALL
        .into_iter()
        .map(|p| {
            let mut tracker = Machine::new(p.config()).new_tracker();
            let ns = per_op("probe.machine.tracker.first_load", || {
                let t = Instant::now();
                for _ in 0..iters {
                    tracker.begin(1);
                    for l in 0..LINES {
                        tracker.on_first_load(LineId(l), false).expect("within capacity");
                    }
                }
                (t.elapsed().as_secs_f64(), iters * LINES as u64)
            });
            (format!("machine.tracker.first_load_ns.{}", platform_key(p)), ns * 1e9)
        })
        .collect()
}

/// Keys of the data-structure probes: 1000 scattered keys out of 4096.
fn probe_key(k: u64) -> u64 {
    (k * 2_654_435_761) % 4096
}

/// Hashtable insert and get, 1000 keys in one sequential atomic block
/// each, on Intel Core. Nanoseconds per operation: (get, insert).
pub fn hashtable_ns() -> (f64, f64) {
    const KEYS: u64 = 1000;
    let mut get = Vec::new();
    let insert = per_op("probe.tm_structs.hashtable", || {
        let sim = Sim::new(SimConfig::new(Platform::IntelCore.config()).mem_words(1 << 18));
        let mut ctx = sim.seq_ctx();
        let table = ctx.atomic(|tx| TmHashTable::create(tx, 1024));
        let t = Instant::now();
        ctx.atomic(|tx| {
            for k in 0..KEYS {
                table.insert(tx, probe_key(k), k)?;
            }
            Ok(())
        });
        let ins = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let found = ctx.atomic(|tx| {
            let mut found = 0;
            for k in 0..KEYS {
                found += table.get(tx, probe_key(k))?.is_some() as u64;
            }
            Ok(found)
        });
        get.push(t.elapsed().as_secs_f64() / KEYS as f64);
        assert_eq!(found, KEYS, "hashtable lost keys");
        (ins, KEYS)
    });
    (median(&get) * 1e9, insert * 1e9)
}

/// Red-black tree insert, 1000 keys in one sequential atomic block, on
/// Intel Core (vacation's tables are red-black trees). Nanoseconds per
/// insert.
pub fn rbtree_insert_ns() -> f64 {
    const KEYS: u64 = 1000;
    per_op("probe.tm_structs.rbtree", || {
        let sim = Sim::new(SimConfig::new(Platform::IntelCore.config()).mem_words(1 << 18));
        let mut ctx = sim.seq_ctx();
        let tree = ctx.atomic(TmRbTree::create);
        let t = Instant::now();
        ctx.atomic(|tx| {
            for k in 0..KEYS {
                tree.insert(tx, probe_key(k), k)?;
            }
            Ok(())
        });
        let secs = t.elapsed().as_secs_f64();
        let present = ctx.atomic(|tx| tree.get(tx, probe_key(KEYS - 1)));
        assert_eq!(present, Some(KEYS - 1), "rbtree lost a key");
        (secs, KEYS)
    }) * 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_runs_and_checks_its_own_result() {
        assert_eq!(tier_commit_ns(20).len(), 4, "each tier commits its own blocks");
        assert!(platform_commit_ns(50).iter().all(|(_, ns)| *ns > 0.0));
        assert!(contended_commit_ns(50) > 0.0);
        assert!(svc_handoff_us(20) > 0.0);
        assert!(controller_handoff_us(20) > 0.0);
        assert!(sim_new_us(2) > 0.0);
        let (read, claim) = mem_line_ns(20, 8);
        assert!(read > 0.0 && claim > 0.0);
        assert_eq!(tracker_first_load_ns(20).len(), 4);
        let (get, insert) = hashtable_ns();
        assert!(get > 0.0 && insert > 0.0 && rbtree_insert_ns() > 0.0);
    }
}
