//! Easy-tier decode throughput: the packed bit-sliced path against the
//! retained per-lane reference, one tier at a time.
//!
//! Each workload is a synthetic tile whose every shot sits in exactly
//! one tier — trivial (HW 0), HW-1, HW-2, or the k ∈ {3, 4} closed
//! forms — so the ratio between the `packed` and `per_lane` series is
//! the isolated win of keeping that tier in the packed domain: per-key
//! cache resolution for HW-1, one cache probe per lane for HW-2,
//! plane-XOR failure accounting for both, and same-weight batched GWT
//! gathers for the closed forms. Both paths are
//! bit-identical (enforced by `tests/easy_tier_equivalence.rs`); this
//! bench only prices them.

use astrea_bench::synthetic_tier_tile;
use astrea_core::pipeline::{decode_tile, decode_tile_reference, StreamOutcome, TileScratch};
use astrea_experiments::ExperimentContext;
use blossom_mwpm::MwpmDecoder;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use decoding_graph::DecodeScratch;
use std::hint::black_box;

const TILE_SHOTS: usize = 8192;

fn bench_easy_tiers(c: &mut Criterion) {
    let ctx = ExperimentContext::new(5, 1e-3);
    let mut group = c.benchmark_group("easy_tier");
    group.sample_size(30);
    group.throughput(Throughput::Elements(TILE_SHOTS as u64));
    for (tier, hw) in [
        ("trivial", 0usize),
        ("hw1", 1),
        ("hw2", 2),
        ("cf3", 3),
        ("cf4", 4),
    ] {
        let tile = synthetic_tier_tile(&ctx, hw, TILE_SHOTS, 11 + hw as u64);
        group.bench_with_input(BenchmarkId::new("packed", tier), &tile, |b, tile| {
            let mut decoder = MwpmDecoder::new(ctx.gwt());
            let mut scratch = DecodeScratch::new();
            let mut ts = TileScratch::new();
            b.iter(|| {
                let mut out = StreamOutcome::default();
                decode_tile(&mut decoder, &mut scratch, &mut ts, tile, &mut out);
                black_box(out)
            })
        });
        group.bench_with_input(BenchmarkId::new("per_lane", tier), &tile, |b, tile| {
            let mut decoder = MwpmDecoder::new(ctx.gwt());
            let mut scratch = DecodeScratch::new();
            let mut ts = TileScratch::new();
            b.iter(|| {
                let mut out = StreamOutcome::default();
                decode_tile_reference(&mut decoder, &mut scratch, &mut ts, tile, &mut out, None);
                black_box(out)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_easy_tiers);
criterion_main!(benches);
