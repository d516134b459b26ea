//! Registry pin: every benchmark constructor reachable through the public
//! cell entry points (`run_bench`, `trace_bench`, `run_bench_oracle`, and
//! `run_bench` with HLE on) builds the same workload it always has.
//!
//! One thread makes every simulated clock schedule-independent, so cycle
//! counts are pinned along with commit and abort counts and the traced
//! footprint percentiles.

use htm_machine::Platform;
use stamp::{
    run_bench, run_bench_oracle, trace_bench, BenchId, BenchParams, BenchResult, Scale, Variant,
};

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

const SEED: u64 = 7;
const GRANULARITIES: [u32; 2] = [64, 256];

fn params() -> BenchParams {
    BenchParams { threads: 1, scale: Scale::Tiny, seed: SEED, ..Default::default() }
}

fn measured(r: &BenchResult) -> Vec<u64> {
    vec![r.seq_cycles, r.stats.cycles(), r.stats.committed_blocks(), r.stats.total_aborts()]
}

#[test]
fn every_registry_entry_point_is_pinned() {
    let mut rows: Vec<Vec<u64>> = Vec::new();
    for platform in Platform::ALL {
        let machine = platform.config();
        for id in BenchId::ALL {
            for variant in [Variant::Original, Variant::Modified] {
                let mut row = measured(&run_bench(id, variant, &machine, &params()));
                let tracer = trace_bench(id, variant, &machine, Scale::Tiny, &GRANULARITIES, SEED);
                for i in 0..GRANULARITIES.len() {
                    row.extend([tracer.p90_load_bytes(i), tracer.p90_store_bytes(i)]);
                }
                let oracle = run_bench_oracle(id, variant, &machine, &params());
                row.push(oracle.committed_blocks());
                println!("{platform}/{id}/{variant:?}: {row:?}");
                rows.push(row);
            }
        }
    }
    let intel = Platform::IntelCore.config();
    for id in BenchId::ALL {
        let hle = BenchParams { use_hle: true, ..params() };
        let row = measured(&run_bench(id, Variant::Modified, &intel, &hle));
        println!("{id}/hle: {row:?}");
        rows.push(row);
    }
    let digest = fnv64(rows.into_iter().flatten());
    assert_eq!(digest, 0x0e78_0f78_8fdc_6708, "pinned digest {digest:#018x}");
}
