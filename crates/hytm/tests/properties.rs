//! Property tests for the hybrid-TM subsystem (DESIGN.md §8).
//!
//! Three properties over random inputs:
//!
//! 1. **Snapshot validation ≡ atomic snapshot** — `SoftLog::validate`
//!    passes exactly when the current memory agrees with every logged
//!    first value, and pinpoints the first divergent address otherwise.
//! 2. **No lost updates under fault storms** — random fault plans with the
//!    STM (and, on POWER8, ROT) fallback tier never lose a counter
//!    increment: hardware, software, and irrevocable commits interleave on
//!    the same hot words and the final values are exact.
//! 3. **Hardware/software coexistence** — a software commit whose
//!    write-back overlaps a live hardware transaction's read set must
//!    doom that hardware transaction (the subscription protocol); if it
//!    did not, the mixed workload below would lose updates.

use htm_core::fxhash::FxHashMap;
use htm_core::WordAddr;
use htm_hytm::adapt::{AdaptSignal, AdaptiveController, Tier, BACKOFF_CAP, OBSERVATION_WINDOW};
use htm_hytm::{FallbackPolicy, SoftLog};
use htm_machine::Platform;
use htm_runtime::{FaultPlan, RetryPolicy, Sim, SimConfig};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Property 1: SoftLog validation is exactly the atomic-snapshot check.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After arbitrary re-reads and arbitrary later writes, `validate`
    /// succeeds iff no logged address changed, and otherwise reports the
    /// first logged address whose current value diverges.
    #[test]
    fn validation_is_equivalent_to_an_atomic_snapshot(
        initial in proptest::collection::vec(0u64..16, 1..24),
        reads in proptest::collection::vec(0usize..24, 0..48),
        writes in proptest::collection::vec((0usize..24, 0u64..16), 0..24),
    ) {
        let mut mem: Vec<u64> = initial;
        let n = mem.len();
        let addr = |i: usize| WordAddr((i % n) as u32 * 8);

        // Record first values, exactly as instrumented STM loads do.
        let mut log = SoftLog::new();
        for &r in &reads {
            let a = addr(r);
            let first = log.record(a, mem[(a.0 / 8) as usize]);
            // Every later read of the same address keeps observing the
            // logged first value (the NOrec read rule).
            prop_assert_eq!(log.get(a), Some(first));
        }

        // Concurrent writers move memory underneath the log.
        for &(w, v) in &writes {
            mem[(addr(w).0 / 8) as usize] = v;
        }

        // The oracle: compare logged entries against current memory in
        // first-read order.
        let expected = log
            .entries()
            .iter()
            .find(|&&(a, v)| mem[(a.0 / 8) as usize] != v)
            .map(|&(a, _)| a);
        prop_assert_eq!(log.validate(|a| mem[(a.0 / 8) as usize]), expected);
    }

    /// A log is a function of the *first* read per address: re-recording
    /// never changes it, so validation is insensitive to duplicate reads.
    #[test]
    fn duplicate_reads_never_change_the_snapshot(
        pairs in proptest::collection::vec((0u32..16, 0u64..100), 1..32),
    ) {
        let mut log = SoftLog::new();
        let mut first: FxHashMap<u32, u64> = FxHashMap::default();
        for &(slot, v) in &pairs {
            let got = log.record(WordAddr(slot * 8), v);
            let want = *first.entry(slot).or_insert(v);
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(log.len(), first.len());
        // Validation against the first values passes regardless of what
        // the duplicate reads tried to record.
        prop_assert_eq!(log.validate(|a| first[&(a.0 / 8)]), None);
    }
}

// ---------------------------------------------------------------------------
// Property 2: no lost updates under seeded fault storms.
// ---------------------------------------------------------------------------

fn storm(seed: u64, tb: f64, cb: f64, delay: u64) -> FaultPlan {
    FaultPlan::none()
        .seed(seed)
        .transient_abort_per_begin(tb * 0.8)
        .capacity_abort_per_begin(cb * 0.6)
        .lock_release_delay(delay)
}

fn run_storm(platform: Platform, fallback: FallbackPolicy, plan: FaultPlan) {
    let sim = Sim::new(
        SimConfig::new(platform.config()).mem_words(1 << 18).fallback(fallback).faults(plan),
    );
    let counters = sim.alloc().alloc_aligned(8, 64);
    let stats = sim.run_parallel(4, RetryPolicy::uniform(1), move |ctx| {
        let t = ctx.thread_id() as u64;
        for i in 0..200u64 {
            ctx.atomic(|tx| {
                let a = counters.offset(((i * 3 + t) % 8) as u32);
                let v = tx.load(a)?;
                tx.store(a, v + 1)
            });
        }
    });
    let total: u64 = (0..8).map(|i| sim.read_word(counters.offset(i))).sum();
    assert_eq!(total, 4 * 200, "{platform} {fallback}: lost updates under fault storm");
    assert_eq!(stats.committed_blocks(), 4 * 200, "{platform} {fallback}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random fault storms on random platforms: the STM tier keeps every
    /// increment.
    #[test]
    fn stm_fallback_loses_no_updates_under_fault_storms(
        platform_idx in 0u8..4,
        seed in any::<u64>(),
        tb in 0.0..1.0f64,
        cb in 0.0..1.0f64,
        delay in 0u64..1500,
    ) {
        let platform = Platform::ALL[platform_idx as usize % Platform::ALL.len()];
        run_storm(platform, FallbackPolicy::Stm, storm(seed, tb, cb, delay));
    }

    /// The same storms through the ROT tier (degrading to the lock away
    /// from POWER8) are equally exact.
    #[test]
    fn rot_fallback_loses_no_updates_under_fault_storms(
        platform_idx in 0u8..4,
        seed in any::<u64>(),
        tb in 0.0..1.0f64,
        cb in 0.0..1.0f64,
        delay in 0u64..1500,
    ) {
        let platform = Platform::ALL[platform_idx as usize % Platform::ALL.len()];
        run_storm(platform, FallbackPolicy::Rot, storm(seed, tb, cb, delay));
    }

    /// The same storms under the adaptive contention manager: whatever
    /// mix of tiers the controller walks through (including POWER8
    /// capacity spilling), every increment survives.
    #[test]
    fn adaptive_fallback_loses_no_updates_under_fault_storms(
        platform_idx in 0u8..4,
        seed in any::<u64>(),
        tb in 0.0..1.0f64,
        cb in 0.0..1.0f64,
        delay in 0u64..1500,
    ) {
        let platform = Platform::ALL[platform_idx as usize % Platform::ALL.len()];
        run_storm(platform, FallbackPolicy::Adaptive, storm(seed, tb, cb, delay));
    }
}

// ---------------------------------------------------------------------------
// Adaptive-controller invariants (DESIGN.md §9).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hysteresis: under arbitrary observation streams the controller
    /// changes tier at most once per observation window, and never picks
    /// a tier the platform lacks.
    #[test]
    fn controller_never_flips_more_than_once_per_window(
        has_rot in any::<bool>(),
        has_spill in any::<bool>(),
        blocks in proptest::collection::vec(0u8..12, 16..384),
    ) {
        let signals = [
            AdaptSignal::Conflict,
            AdaptSignal::Capacity,
            AdaptSignal::LockPressure,
            AdaptSignal::Fault,
        ];
        let mut c = AdaptiveController::new(has_rot, has_spill);
        let mut last_switches = 0;
        for (w, window) in blocks.chunks(OBSERVATION_WINDOW as usize).enumerate() {
            for &obs in window {
                // 0-2 aborts per block, with the signal and the fallback
                // bit drawn from the same byte: an adversarial but
                // deterministic mix.
                for k in 0..(obs % 3) {
                    c.observe_abort(signals[((obs / 3 + k) % 4) as usize]);
                }
                c.block_done(obs & 1 == 1);
            }
            let s = c.tier_switches();
            prop_assert!(s - last_switches <= 1, "window {w} flipped more than once");
            last_switches = s;
            let tier = c.block_tier();
            prop_assert!(has_rot || tier != Tier::Rot, "picked ROT without rollback-only");
            prop_assert!(has_spill || tier != Tier::Spill, "picked Spill without suspend/resume");
        }
    }

    /// The backoff ceiling never exceeds its hard cap, for any attempt
    /// depth and watchdog escalation, and is monotone in the attempt.
    #[test]
    fn backoff_ceiling_stays_within_its_cap(
        attempt in 0u32..10_000,
        trip_shift in 0u32..64,
    ) {
        let b = AdaptiveController::backoff_ceiling(attempt, trip_shift);
        prop_assert!(b > 0);
        prop_assert!(b <= BACKOFF_CAP);
        prop_assert!(b <= AdaptiveController::backoff_ceiling(attempt + 1, trip_shift));
    }
}

// ---------------------------------------------------------------------------
// Property 3: software commits doom overlapping live hardware readers.
// ---------------------------------------------------------------------------

/// Hardware and software transactions increment the *same* hot word. A
/// hardware transaction that read the word before a software commit
/// wrote it back must abort (value-based subscription); if it committed
/// anyway, its stale read would erase the software increment. Exactness
/// of the final count is therefore a direct witness of the
/// hardware-subscription abort.
#[test]
fn software_commits_doom_overlapping_live_hardware_readers() {
    for (platform, fallback) in [
        (Platform::IntelCore, FallbackPolicy::Stm),
        (Platform::Zec12, FallbackPolicy::Stm),
        (Platform::BlueGeneQ, FallbackPolicy::Stm),
        (Platform::Power8, FallbackPolicy::Stm),
        (Platform::Power8, FallbackPolicy::Rot),
    ] {
        // A 70% per-begin abort storm keeps both tiers active: ~30% of
        // blocks commit in hardware while the rest drain through the
        // software tier, all contending on one word.
        let plan = FaultPlan::none().seed(7).transient_abort_per_begin(0.7);
        let sim = Sim::new(
            SimConfig::new(platform.config()).mem_words(1 << 18).fallback(fallback).faults(plan),
        );
        let a = sim.alloc().alloc(1);
        let stats = sim.run_parallel(4, RetryPolicy::uniform(0), move |ctx| {
            for _ in 0..400 {
                ctx.atomic(|tx| {
                    let v = tx.load(a)?;
                    tx.store(a, v + 1)
                });
            }
        });
        let soft = match fallback {
            FallbackPolicy::Rot => stats.rot_commits(),
            _ => stats.stm_commits(),
        };
        assert!(stats.hw_commits() > 0, "{platform} {fallback}: hardware tier never committed");
        assert!(soft > 0, "{platform} {fallback}: software tier never committed");
        assert_eq!(
            sim.read_word(a),
            4 * 400,
            "{platform} {fallback}: a hardware transaction survived an overlapping software \
             commit and erased its update"
        );
    }
}
