//! Deep-tail matching latency: the sparse scratch blossom against the
//! dense allocating oracle at Hamming weights past the DP crossover, and
//! the DP↔blossom crossover itself.
//!
//! The sparse solver keeps its state in a persistent arena reused across
//! shots and starts every solve from greedy duals and a greedy tight-edge
//! matching; the dense oracle stages a `(2n+1)²` edge matrix per shot
//! and starts cold. Both reach the same optimum (their mates may differ
//! on ties). Both solvers are fed the exact fixed-point weight closure
//! the production decoder uses, so the ratio here is the deep-tail
//! speedup per blossom-band shot. `dp_blossom_crossover` times the subset
//! DP and the sparse blossom on the same real d = 7 matching clusters,
//! per cluster size, which is what places `DP_NODE_LIMIT`.

use astrea_bench::SyndromeCorpus;
use astrea_experiments::ExperimentContext;
use blossom_mwpm::{sparse_blossom, subset_dp, MwpmDecoder};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use decoding_graph::{DecodeScratch, Decoder, GlobalWeightTable, SparseBlossomScratch};
use mwpm_oracle::dense_blossom;
use std::hint::black_box;

/// Mirrors of the decoder's private fixed-point scale and weight clamp.
const BLOSSOM_SCALE: f64 = 65_536.0;
const WEIGHT_CLAMP: f64 = 1e4;

fn bench_sparse_vs_dense_solver(c: &mut Criterion) {
    let ctx = ExperimentContext::new(7, 1e-3);
    let gwt = ctx.gwt();
    let mut group = c.benchmark_group("deep_tail_solver");
    group.sample_size(30);
    for hw in [12usize, 16, 20, 24] {
        let dets = SyndromeCorpus::synthetic(&ctx, hw);
        let k = dets.len();
        let n = k + k % 2;
        let wi = |i: usize, j: usize| -> i64 {
            let eff = if i >= k || j >= k {
                let real = if i >= k { j } else { i };
                gwt.boundary_weight(dets[real]).min(WEIGHT_CLAMP)
            } else {
                let direct = gwt.pair_weight(dets[i], dets[j]);
                let via = gwt.boundary_weight(dets[i]) + gwt.boundary_weight(dets[j]);
                direct.min(via).min(WEIGHT_CLAMP)
            };
            (eff * BLOSSOM_SCALE).round() as i64 + 1
        };
        group.bench_with_input(BenchmarkId::new("dense", hw), &hw, |b, _| {
            b.iter(|| black_box(dense_blossom::min_weight_perfect_matching(n, wi)))
        });
        group.bench_with_input(BenchmarkId::new("sparse", hw), &hw, |b, _| {
            let mut scratch = SparseBlossomScratch::new();
            b.iter(|| {
                black_box(sparse_blossom::min_weight_perfect_matching_scratch(
                    n,
                    wi,
                    &mut scratch,
                ))
            })
        });
    }
    group.finish();
}

fn bench_deep_decode_paths(c: &mut Criterion) {
    // Decoder-level view of the same band: the allocating `decode`
    // (dense oracle, cluster Vecs re-allocated per shot) against
    // `decode_with_scratch` (arena-resident cluster decomposition plus
    // the sparse solver).
    let ctx = ExperimentContext::new(7, 1e-3);
    let mut group = c.benchmark_group("deep_tail_decode");
    group.sample_size(30);
    for hw in [12usize, 16, 20, 24] {
        let dets = SyndromeCorpus::synthetic(&ctx, hw);
        group.bench_with_input(BenchmarkId::new("allocating", hw), &dets, |b, dets| {
            let mut decoder = MwpmDecoder::new(ctx.gwt());
            b.iter(|| black_box(decoder.decode(black_box(dets))))
        });
        group.bench_with_input(BenchmarkId::new("scratch", hw), &dets, |b, dets| {
            let mut decoder = MwpmDecoder::new(ctx.gwt());
            let mut scratch = DecodeScratch::new();
            b.iter(|| black_box(decoder.decode_with_scratch(black_box(dets), &mut scratch)))
        });
    }
    group.finish();
}

/// Splits `dets` into the decoder's matching clusters: connected
/// components of "pairing is strictly cheaper than both boundaries".
fn clusters(gwt: &GlobalWeightTable, dets: &[u32]) -> Vec<Vec<u32>> {
    let k = dets.len();
    let mut root: Vec<usize> = (0..k).collect();
    fn find(root: &mut [usize], mut x: usize) -> usize {
        while root[x] != x {
            root[x] = root[root[x]];
            x = root[x];
        }
        x
    }
    for i in 0..k {
        for j in (i + 1)..k {
            let via = gwt.boundary_weight(dets[i]) + gwt.boundary_weight(dets[j]);
            if gwt.pair_weight(dets[i], dets[j]) < via {
                let (a, b) = (find(&mut root, i), find(&mut root, j));
                root[a] = b;
            }
        }
    }
    let mut out: Vec<Vec<u32>> = Vec::new();
    let mut slot = vec![usize::MAX; k];
    for (i, &det) in dets.iter().enumerate() {
        let r = find(&mut root, i);
        if slot[r] == usize::MAX {
            slot[r] = out.len();
            out.push(Vec::new());
        }
        out[slot[r]].push(det);
    }
    out
}

fn bench_dp_blossom_crossover(c: &mut Criterion) {
    // Per-cluster solve time of the two exact solvers on the same real
    // matching clusters (d = 7, p = 5×10⁻³, GWT weights), staging
    // included: the DP as `dp` runs it (staged block, `solve_staged`),
    // the blossom on the decoder's fixed-point reduction with a virtual
    // boundary node for odd sizes. `DP_NODE_LIMIT` sits where they cross.
    const PER_SIZE: usize = 32;
    let ctx = ExperimentContext::new(7, 5e-3);
    let gwt = ctx.gwt();
    let corpus = SyndromeCorpus::sample(&ctx, 60_000, 7);
    let sizes = 6usize..=16;
    let mut by_size: Vec<Vec<Vec<u32>>> = vec![Vec::new(); *sizes.end() + 1];
    for shot in &corpus.syndromes {
        for cluster in clusters(gwt, shot) {
            let c = cluster.len();
            if sizes.contains(&c) && by_size[c].len() < PER_SIZE {
                by_size[c].push(cluster);
            }
        }
    }
    let stage = |dets: &[u32], scratch: &mut DecodeScratch| {
        let k = dets.len();
        scratch.weights.clear();
        scratch.boundary.clear();
        for &a in dets {
            scratch.boundary.push(gwt.boundary_weight(a));
            for &b in dets {
                let w = if a == b { 0.0 } else { gwt.pair_weight(a, b) };
                scratch.weights.push(w.min(2.0 * WEIGHT_CLAMP));
            }
        }
        debug_assert_eq!(scratch.weights.len(), k * k);
    };
    let mut group = c.benchmark_group("dp_blossom_crossover");
    group.sample_size(20);
    for size in sizes {
        let corpus = &by_size[size];
        if corpus.is_empty() {
            continue;
        }
        group.throughput(Throughput::Elements(corpus.len() as u64));
        group.bench_with_input(BenchmarkId::new("dp", size), corpus, |b, corpus| {
            let mut scratch = DecodeScratch::new();
            b.iter(|| {
                let mut total = 0.0;
                for dets in corpus {
                    stage(dets, &mut scratch);
                    total += subset_dp::solve_staged(dets.len(), &mut scratch);
                }
                black_box(total)
            })
        });
        group.bench_with_input(BenchmarkId::new("blossom", size), corpus, |b, corpus| {
            let mut scratch = DecodeScratch::new();
            b.iter(|| {
                let mut total = 0i64;
                for dets in corpus {
                    stage(dets, &mut scratch);
                    let k = dets.len();
                    let (w, bd) = (&scratch.weights, &scratch.boundary);
                    let eff = |i: usize, j: usize| -> f64 {
                        if i >= k || j >= k {
                            bd[if i >= k { j } else { i }].min(WEIGHT_CLAMP)
                        } else {
                            w[i * k + j].min(bd[i] + bd[j]).min(WEIGHT_CLAMP)
                        }
                    };
                    total += sparse_blossom::min_weight_perfect_matching_scratch(
                        k + k % 2,
                        |i, j| (eff(i, j) * BLOSSOM_SCALE).round() as i64 + 1,
                        &mut scratch.sparse,
                    );
                }
                black_box(total)
            })
        });
        println!("  size {size}: {} clusters", corpus.len());
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sparse_vs_dense_solver,
    bench_deep_decode_paths,
    bench_dp_blossom_crossover
);
criterion_main!(benches);
