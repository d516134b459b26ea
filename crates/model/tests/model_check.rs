//! End-to-end model-checker acceptance tests: stock-engine cleanliness
//! across the full tier ladder, the seeded-bug regression corpus, DPOR
//! soundness against naive enumeration, and deterministic counterexample
//! replay.

use htm_machine::Platform;
use htm_model::{
    explore, kernel, Mode, ModelConfig, ModelTrace, SeededBug, Tier, ViolationClass, ALL_TIERS,
};

/// The acceptance kernel: 2 threads, 3 atomic blocks total, explored
/// exhaustively under every tier of the fallback ladder. The stock engine
/// must come out clean everywhere.
#[test]
fn stock_counter_kernel_is_clean_under_all_five_tiers() {
    for tier in ALL_TIERS {
        let platform = match tier {
            // ROT needs POWER8; run the rest on Intel Core (zEC12 and
            // Blue Gene/Q are covered by the cross-platform smoke below).
            Tier::Rot => Platform::Power8,
            _ => Platform::IntelCore,
        };
        let cfg = ModelConfig::new(kernel::counter(), platform, tier);
        let r = explore(&cfg);
        assert!(!r.truncated, "{tier:?}: exploration must be exhaustive");
        assert!(r.schedules > 1, "{tier:?}: must branch ({} schedules)", r.schedules);
        assert!(r.ok(), "{tier:?}: stock engine must be clean, found:\n{r}");
        // Every completed schedule must land in a serial final state; for
        // commuting increments that is exactly one digest.
        assert_eq!(r.digests.len(), 1, "{tier:?}: all schedules reach the serial sum");
    }
}

/// Regression: the dirty-read kernel drives one thread into an
/// irrevocable spin on a line whose hardware owner is mid-commit. The
/// scheduler's deadlock prober used to re-probe only the last-run thread,
/// so the spinner — whose condition had long since cleared — was never
/// granted and every tier reported a phantom deadlock. The stock engine
/// must come out clean on the whole suite, not just the two easy kernels.
#[test]
fn stock_chain_and_dirty_read_kernels_are_clean() {
    for k in [kernel::chain, kernel::dirty_read] {
        for tier in ALL_TIERS {
            let platform = match tier {
                Tier::Rot => Platform::Power8,
                _ => Platform::IntelCore,
            };
            let cfg = ModelConfig::new(k(), platform, tier);
            let r = explore(&cfg);
            assert!(!r.truncated, "{}/{tier:?}: exploration must be exhaustive", cfg.kernel.name);
            assert!(
                r.ok(),
                "{}/{tier:?}: stock engine must be clean, found:\n{r}",
                cfg.kernel.name
            );
        }
    }
}

#[test]
fn stock_snapshot_kernel_is_clean_on_every_platform() {
    for platform in [Platform::BlueGeneQ, Platform::Zec12, Platform::IntelCore, Platform::Power8] {
        let cfg = ModelConfig::new(kernel::snapshot(), platform, Tier::Stm);
        let r = explore(&cfg);
        assert!(!r.truncated, "{platform:?}: exploration must be exhaustive");
        assert!(r.ok(), "{platform:?}: stock engine must be opaque, found:\n{r}");
    }
}

#[test]
fn seeded_reader_doom_skip_is_caught_as_lost_update() {
    let cfg = ModelConfig::new(kernel::counter(), Platform::IntelCore, Tier::Hw)
        .bug(SeededBug::SkipReaderDoom);
    let r = explore(&cfg);
    assert!(
        r.has(ViolationClass::Certify) || r.has(ViolationClass::NonSerializable),
        "reader-doom skip must surface as a lost update:\n{r}"
    );
    let cx = &r.counterexamples[0];
    assert!(!cx.schedule.is_empty() && !cx.diagram.is_empty());
}

#[test]
fn seeded_epoch_bump_skip_is_caught_by_the_opacity_checker() {
    let cfg = ModelConfig::new(kernel::snapshot(), Platform::IntelCore, Tier::Stm)
        .bug(SeededBug::SkipEpochBump);
    let r = explore(&cfg);
    assert!(
        r.has(ViolationClass::Opacity),
        "epoch-bump skip must produce a torn (non-opaque) snapshot:\n{r}"
    );
}

#[test]
fn seeded_early_rot_publish_is_caught() {
    let cfg = ModelConfig::new(kernel::dirty_read(), Platform::Power8, Tier::Rot)
        .bug(SeededBug::EarlyRotPublish);
    let r = explore(&cfg);
    assert!(!r.ok(), "pre-validation publish must leak dirty values to some schedule:\n{r}");
}

/// DPOR soundness: pruned exploration must find the same violation classes
/// and the same set of reachable final states as the naive enumeration,
/// while (on conflict-light kernels) actually pruning.
#[test]
fn dpor_matches_naive_enumeration() {
    // (kernel, bug, DPOR schedules, naive schedules): the exact counts pin
    // the controller's schedule space, not just DPOR's soundness.
    for (kern, bug, dpor_count, naive_count) in [
        (kernel::snapshot(), SeededBug::None, 18, 213),
        (kernel::chain(), SeededBug::None, 23, 149),
        (kernel::counter(), SeededBug::SkipReaderDoom, 11, 55),
    ] {
        let name = kern.name;
        let naive = explore(
            &ModelConfig::new(kern.clone(), Platform::IntelCore, Tier::Hw)
                .bug(bug)
                .mode(Mode::Naive),
        );
        let dpor = explore(
            &ModelConfig::new(kern, Platform::IntelCore, Tier::Hw).bug(bug).mode(Mode::Dpor),
        );
        assert!(!naive.truncated && !dpor.truncated, "{name}: both must be exhaustive");
        let classes = |r: &htm_model::ExploreReport| {
            let mut c: Vec<&str> = r.counterexamples.iter().map(|x| x.class.key()).collect();
            c.sort_unstable();
            c
        };
        assert_eq!(
            classes(&naive),
            classes(&dpor),
            "{name}: violation classes must agree\nnaive:\n{naive}\ndpor:\n{dpor}"
        );
        assert_eq!(naive.digests, dpor.digests, "{name}: reachable final states must agree");
        assert!(
            dpor.schedules <= naive.schedules,
            "{name}: DPOR must not explore more than naive ({} vs {})",
            dpor.schedules,
            naive.schedules
        );
        assert_eq!(
            (dpor.schedules, naive.schedules),
            (dpor_count, naive_count),
            "{name}: (DPOR, naive) schedule counts moved"
        );
    }
}

#[test]
fn bounded_preemption_explores_a_subset() {
    let full = explore(
        &ModelConfig::new(kernel::counter(), Platform::IntelCore, Tier::Hw).mode(Mode::Naive),
    );
    let bounded = explore(
        &ModelConfig::new(kernel::counter(), Platform::IntelCore, Tier::Hw)
            .mode(Mode::BoundedPreemption(1)),
    );
    assert!(!bounded.truncated);
    assert!(bounded.ok());
    assert!(
        bounded.schedules < full.schedules,
        "a 1-preemption bound must shrink the space ({} vs {})",
        bounded.schedules,
        full.schedules
    );
    assert!(bounded.digests.is_subset(&full.digests));
}

/// Counterexamples replay deterministically through the saved trace.
#[test]
fn counterexample_replays_from_a_round_tripped_trace() {
    let cfg = ModelConfig::new(kernel::counter(), Platform::IntelCore, Tier::Hw)
        .bug(SeededBug::SkipReaderDoom);
    let r = explore(&cfg);
    assert!(!r.ok(), "need a counterexample to replay:\n{r}");
    let cx = &r.counterexamples[0];
    let trace = ModelTrace::from_counterexample(&cfg, cx);
    let parsed = ModelTrace::from_text(&trace.to_text()).expect("trace text round-trips");
    assert_eq!(parsed, trace);
    for _ in 0..3 {
        parsed.replay().expect("the recorded schedule must reproduce the violation");
    }
}

/// The replay must notice when the violation does *not* reproduce (stock
/// engine + a schedule recorded against a seeded bug).
#[test]
fn replay_reports_divergence_when_the_bug_is_absent() {
    let cfg = ModelConfig::new(kernel::counter(), Platform::IntelCore, Tier::Hw)
        .bug(SeededBug::SkipReaderDoom);
    let r = explore(&cfg);
    let cx = &r.counterexamples[0];
    let mut trace = ModelTrace::from_counterexample(&cfg, cx);
    trace.bug = SeededBug::None;
    assert!(trace.replay().is_err(), "stock engine must not reproduce the seeded violation");
}
