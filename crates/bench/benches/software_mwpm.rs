//! Software MWPM latency versus syndrome weight (paper Figure 3).
//!
//! The paper's argument: software MWPM (BlossomV) has an unbounded,
//! workload-dependent latency tail — 96% of nonzero d = 7 syndromes took
//! longer than the 1 µs budget on their setup. This bench measures the
//! two exact algorithms in this workspace (subset DP and dense blossom)
//! across Hamming weights, exposing the same super-linear growth that
//! makes a fixed-latency hardware design attractive.

use astrea_bench::SyndromeCorpus;
use astrea_experiments::ExperimentContext;
use blossom_mwpm::{dense_blossom, subset_dp, MwpmDecoder};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_exact_solvers_by_weight(c: &mut Criterion) {
    let ctx = ExperimentContext::new(7, 1e-3);
    let mut group = c.benchmark_group("exact_mwpm_by_weight");
    group.sample_size(20);
    for hw in [4usize, 8, 12, 16, 20, 24] {
        let dets = SyndromeCorpus::synthetic(&ctx, hw);
        let gwt = ctx.gwt();
        if hw <= 16 {
            group.bench_with_input(BenchmarkId::new("subset_dp", hw), &dets, |b, dets| {
                b.iter(|| {
                    black_box(subset_dp::solve(
                        dets.len(),
                        |i, j| gwt.pair_weight(dets[i], dets[j]).min(1e4),
                        |i| gwt.boundary_weight(dets[i]),
                    ))
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("blossom", hw), &dets, |b, dets| {
            let n = dets.len() + dets.len() % 2;
            b.iter(|| {
                black_box(dense_blossom::min_weight_perfect_matching(n, |i, j| {
                    let w = |x: usize| -> f64 {
                        if x >= dets.len() {
                            0.0
                        } else {
                            gwt.boundary_weight(dets[x]).min(1e4)
                        }
                    };
                    if i >= dets.len() || j >= dets.len() {
                        (w(i.min(j)) * 1024.0) as i64 + 1
                    } else {
                        (gwt.pair_weight(dets[i], dets[j]).min(1e4) * 1024.0) as i64 + 1
                    }
                }))
            })
        });
    }
    group.finish();
}

fn bench_full_decoder_on_sampled_stream(c: &mut Criterion) {
    // End-to-end software decode throughput over a realistic syndrome
    // stream — the quantity that would have to beat 1 µs per round for
    // real-time software decoding.
    let ctx = ExperimentContext::new(7, 1e-3);
    let corpus = SyndromeCorpus::sample(&ctx, 512, 3);
    let mut group = c.benchmark_group("software_stream");
    group.sample_size(20);
    group.throughput(criterion::Throughput::Elements(
        corpus.syndromes.len() as u64
    ));
    group.bench_function("mwpm_d7_p1e-3", |b| {
        let dec = MwpmDecoder::new(ctx.gwt());
        b.iter(|| {
            for s in &corpus.syndromes {
                black_box(dec.decode_full(black_box(s)));
            }
        })
    });
    group.bench_function("gwt_free_mwpm_d7_p1e-3", |b| {
        let dec = MwpmDecoder::new_local(ctx.graph(), ctx.decoding().boundary());
        b.iter(|| {
            for s in &corpus.syndromes {
                black_box(dec.decode_full(black_box(s)));
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_exact_solvers_by_weight,
    bench_full_decoder_on_sampled_stream
);
criterion_main!(benches);
