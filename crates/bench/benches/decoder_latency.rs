//! Decoder latency by Hamming-weight class (paper Figure 9 and the
//! Astrea §5.4 latency bands), measured as wall-clock software time and
//! cross-checked against the hardware cycle model.
//!
//! The hardware claims (1 ns mean, 456 ns worst case) come from the cycle
//! model — asserted in `tests/latency_contracts.rs`; this bench shows the
//! *software* cost of each decoder on identical syndromes, which is what
//! a simulator user experiences. Each class decodes through the shared
//! [`decode_slice`] batch loop with a reused scratch arena, i.e. exactly
//! the hot path the scoped-thread harness workers run.

use astrea_bench::SyndromeCorpus;
use astrea_core::{decode_slice, AstreaDecoder, AstreaGDecoder, SyndromeBatch};
use astrea_experiments::ExperimentContext;
use blossom_mwpm::MwpmDecoder;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use decoding_graph::{DecodeScratch, Decoder};
use std::hint::black_box;
use union_find_decoder::UnionFindDecoder;

/// Packs a weight-class slice of the corpus into a batch.
fn class_batch(corpus: &SyndromeCorpus, lo: usize, hi: usize, cap: usize) -> SyndromeBatch {
    let mut builder = SyndromeBatch::builder();
    for s in corpus.with_weight(lo, hi).into_iter().take(cap) {
        builder.push(s, 0);
    }
    builder.finish()
}

fn bench_by_weight_class(c: &mut Criterion) {
    let ctx = ExperimentContext::new(7, 1e-3);
    let corpus = SyndromeCorpus::sample(&ctx, 3000, 7);

    let mut group = c.benchmark_group("decode_by_hw_class");
    group.sample_size(30);
    for (label, lo, hi) in [
        ("hw_1_2", 1, 2),
        ("hw_3_6", 3, 6),
        ("hw_7_10", 7, 10),
        ("hw_11_20", 11, 20),
    ] {
        let batch = class_batch(&corpus, lo, hi, 64);
        if batch.is_empty() {
            continue;
        }
        group.throughput(Throughput::Elements(batch.len() as u64));
        group.bench_with_input(BenchmarkId::new("astrea", label), &batch, |b, batch| {
            let mut dec = AstreaDecoder::new(ctx.gwt());
            let mut scratch = DecodeScratch::new();
            b.iter(|| black_box(decode_slice(&mut dec, &mut scratch, batch, 0..batch.len())))
        });
        group.bench_with_input(BenchmarkId::new("astrea_g", label), &batch, |b, batch| {
            let mut dec = AstreaGDecoder::new(ctx.gwt());
            let mut scratch = DecodeScratch::new();
            b.iter(|| black_box(decode_slice(&mut dec, &mut scratch, batch, 0..batch.len())))
        });
        group.bench_with_input(BenchmarkId::new("mwpm", label), &batch, |b, batch| {
            let mut dec = MwpmDecoder::new(ctx.gwt());
            let mut scratch = DecodeScratch::new();
            b.iter(|| black_box(decode_slice(&mut dec, &mut scratch, batch, 0..batch.len())))
        });
        group.bench_with_input(BenchmarkId::new("union_find", label), &batch, |b, batch| {
            let mut dec = UnionFindDecoder::new(ctx.graph());
            let mut scratch = DecodeScratch::new();
            b.iter(|| black_box(decode_slice(&mut dec, &mut scratch, batch, 0..batch.len())))
        });
    }
    group.finish();
}

fn bench_modeled_cycles(c: &mut Criterion) {
    // The cycle model itself (used millions of times per LER run) must be
    // fast; also prints the paper's cycle counts for visibility.
    let ctx = ExperimentContext::new(7, 1e-4);
    let mut group = c.benchmark_group("astrea_cycle_bands");
    group.sample_size(30);
    for hw in [4usize, 8, 10] {
        let dets = SyndromeCorpus::synthetic(&ctx, hw);
        group.bench_with_input(BenchmarkId::from_parameter(hw), &dets, |b, dets| {
            let mut dec = AstreaDecoder::new(ctx.gwt());
            b.iter(|| black_box(dec.decode(black_box(dets))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_by_weight_class, bench_modeled_cycles);
criterion_main!(benches);
