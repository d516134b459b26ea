//! End-to-end integration: every STAMP benchmark builds, runs and verifies
//! on every platform model, through the public workspace API.

use htm_compare::machine::Platform;
use htm_compare::stamp::{run_bench, BenchId, BenchParams, Scale, Variant};

fn tiny_params(threads: u32) -> BenchParams {
    BenchParams { threads, scale: Scale::Tiny, ..Default::default() }
}

#[test]
fn every_benchmark_verifies_on_every_platform_modified() {
    for bench in BenchId::ALL {
        for platform in Platform::ALL {
            let r = run_bench(bench, Variant::Modified, &platform.config(), &tiny_params(2));
            assert!(r.stats.committed_blocks() > 0, "{bench} on {platform} did no work");
            assert!(r.seq_cycles > 0, "{bench} on {platform} has no baseline");
        }
    }
}

#[test]
fn every_benchmark_verifies_original_variant() {
    for bench in BenchId::ALL {
        let r = run_bench(bench, Variant::Original, &Platform::Power8.config(), &tiny_params(2));
        assert!(r.stats.committed_blocks() > 0, "{bench} original did no work");
    }
}

#[test]
fn four_thread_runs_on_full_suite_zec12() {
    for bench in BenchId::ALL {
        let r = run_bench(bench, Variant::Modified, &Platform::Zec12.config(), &tiny_params(4));
        assert!(r.speedup() > 0.0, "{bench}");
    }
}

#[test]
fn hle_runs_the_suite_on_intel() {
    for bench in [BenchId::KmeansLow, BenchId::VacationHigh, BenchId::Ssca2] {
        let params = BenchParams { use_hle: true, ..tiny_params(4) };
        let r = run_bench(bench, Variant::Modified, &Platform::IntelCore.config(), &params);
        assert!(r.stats.committed_blocks() > 0, "{bench} under HLE");
    }
}

#[test]
#[should_panic(expected = "no hardware lock elision")]
fn hle_rejected_on_power8() {
    let params = BenchParams { use_hle: true, ..tiny_params(2) };
    let _ = run_bench(BenchId::Ssca2, Variant::Modified, &Platform::Power8.config(), &params);
}

#[test]
fn footprint_tracing_matches_capacity_expectations() {
    // The labyrinth grid snapshot must dwarf every other benchmark's
    // footprint, as in the paper's Figure 10.
    let machine = Platform::IntelCore.config();
    let lb = htm_compare::stamp::trace_bench(
        BenchId::Labyrinth,
        Variant::Modified,
        &machine,
        Scale::Tiny,
        &[64],
        42,
    );
    let km = htm_compare::stamp::trace_bench(
        BenchId::KmeansLow,
        Variant::Modified,
        &machine,
        Scale::Tiny,
        &[64],
        42,
    );
    assert!(
        lb.p90_load_bytes(0) > 10 * km.p90_load_bytes(0),
        "labyrinth {} B vs kmeans {} B",
        lb.p90_load_bytes(0),
        km.p90_load_bytes(0)
    );
}
