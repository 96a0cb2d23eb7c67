//! GWT-free local weight path throughput: the staged per-shot Dijkstra
//! provider against the precomputed Global Weight Table, on identical
//! shot streams.
//!
//! At d ≤ 13 both backends exist, so the `gwt`/`local` ratio prices what
//! the table's O(ℓ²) memory actually buys per shot; the `d15` series has
//! no GWT comparison — at that distance the table would be ~40 MB and the
//! local path is the only one that runs. Both backends agree (bit for
//! bit through the DP band, in matching weight on deep shots, which the
//! local backend stages with the default graph-pd engine; enforced by
//! `tests/local_vs_gwt.rs`); this bench only prices them.

use astrea_core::decode_slice;
use astrea_experiments::{sample_batch, ExperimentContext};
use blossom_mwpm::MwpmDecoder;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use decoding_graph::{DecodeScratch, WeightSource};
use std::hint::black_box;

const SHOTS: u64 = 4096;

fn bench_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_path");
    group.sample_size(20);
    group.throughput(Throughput::Elements(SHOTS));
    for (d, p) in [(5usize, 1e-3), (7, 5e-3)] {
        let gctx = ExperimentContext::with_source(d, p, WeightSource::Gwt);
        let lctx = ExperimentContext::with_source(d, p, WeightSource::Local);
        let batch = sample_batch(&gctx, SHOTS, 4, 11);
        let label = format!("d{d}_p{p:.0e}");
        group.bench_with_input(BenchmarkId::new("gwt", &label), &batch, |b, batch| {
            let mut decoder = MwpmDecoder::for_context(gctx.decoding());
            let mut scratch = DecodeScratch::new();
            b.iter(|| {
                black_box(decode_slice(
                    &mut decoder,
                    &mut scratch,
                    batch,
                    0..batch.len(),
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("local", &label), &batch, |b, batch| {
            let mut decoder = MwpmDecoder::for_context(lctx.decoding());
            let mut scratch = DecodeScratch::new();
            b.iter(|| {
                black_box(decode_slice(
                    &mut decoder,
                    &mut scratch,
                    batch,
                    0..batch.len(),
                ))
            })
        });
    }
    group.finish();
}

fn bench_large_distance(c: &mut Criterion) {
    // The distance the GWT cannot reach under the auto budget: only the
    // local series exists. Fewer shots — each carries ~25 fired
    // detectors through staged expansions.
    const D15_SHOTS: u64 = 256;
    let ctx = ExperimentContext::new(15, 1e-3);
    assert_eq!(ctx.weight_source(), WeightSource::Local);
    let batch = sample_batch(&ctx, D15_SHOTS, 4, 11);
    let mut group = c.benchmark_group("local_path");
    group.sample_size(10);
    group.throughput(Throughput::Elements(D15_SHOTS));
    group.bench_with_input(
        BenchmarkId::new("local", "d15_p1e-3"),
        &batch,
        |b, batch| {
            let mut decoder = MwpmDecoder::for_context(ctx.decoding());
            let mut scratch = DecodeScratch::new();
            b.iter(|| {
                black_box(decode_slice(
                    &mut decoder,
                    &mut scratch,
                    batch,
                    0..batch.len(),
                ))
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_backends, bench_large_distance);
criterion_main!(benches);
