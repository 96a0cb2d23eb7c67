//! Equivalence of the hard-shot fast paths with their references.
//!
//! PR 4 rebuilt how hard shots (Hamming weight ≥ 3) reach the matching
//! solver: HW ≤ 4 syndromes decode through a GWT-direct closed form (one
//! batched triangular gather, no weight-matrix staging), HW 5..=11 stage
//! a dense matrix with one batched row gather and run the memoized
//! subset DP, and cacheable weights may be served from a per-worker
//! [`HardSyndromeCache`]. None of that may change a single decoded bit:
//!
//! * every `decode_with_scratch` result must equal the closure-staged
//!   reference (`subset_dp::solve` reading the weight table entry-wise)
//!   *and* the decoder's allocating `decode` path, for the exact and the
//!   quantized decoder alike;
//! * the full streamed pipeline must produce bit-identical [`LerResult`]s
//!   whether the hard-syndrome cache is disabled, tiny (evicting
//!   constantly), or large.
//!
//! PR 5 extends the scratch path past the DP crossover: deep shots
//! (HW > 11) now run the cluster decomposition and the sparse blossom
//! solver entirely in the per-worker arena. The deep axis below checks
//! `decode_full` against an independent whole-syndrome dense blossom
//! oracle (a perfect matching of optimal weight), and pins one reused
//! scratch to the fresh-arena `decode` path bit-for-bit.

use astrea::prelude::*;
use blossom_mwpm::{dense_blossom, subset_dp};
use decoding_graph::DecodeScratch;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Mirrors the decoder's private pair-weight clamp (`2 × WEIGHT_CLAMP`
/// in `blossom_mwpm::decoder`); the reference closure must clamp the
/// same way to stay bit-identical.
const PAIR_CLAMP: f64 = 2.0e4;

/// Contexts for d ∈ {3, 5, 7} at p = 10⁻³, built once (the d = 7
/// all-pairs Dijkstra is the expensive part).
fn grid() -> &'static [ExperimentContext] {
    static GRID: OnceLock<Vec<ExperimentContext>> = OnceLock::new();
    GRID.get_or_init(|| {
        [3usize, 5, 7]
            .into_iter()
            .map(|d| ExperimentContext::new(d, 1e-3))
            .collect()
    })
}

/// Draws `hw` distinct detector indices from the candidate pool, topping
/// up with the smallest unused indices if the pool repeats (every grid
/// context has far more than 8 detectors, so this always succeeds).
fn distinct_detectors(candidates: &[u32], num_detectors: usize, hw: usize) -> Vec<u32> {
    let mut dets: Vec<u32> = Vec::with_capacity(hw);
    for &c in candidates {
        let d = c % num_detectors as u32;
        if !dets.contains(&d) {
            dets.push(d);
            if dets.len() == hw {
                return dets;
            }
        }
    }
    for d in 0..num_detectors as u32 {
        if !dets.contains(&d) {
            dets.push(d);
            if dets.len() == hw {
                break;
            }
        }
    }
    dets
}

/// Pair and boundary weights read one entry at a time from the table,
/// exact or dequantized.
fn entry_weights(
    gwt: &decoding_graph::GlobalWeightTable,
    quantized: bool,
) -> (impl Fn(u32, u32) -> f64 + '_, impl Fn(u32) -> f64 + '_) {
    let pair = move |a: u32, b: u32| {
        if quantized {
            gwt.pair_weight_q(a, b) as f64 / gwt.scale()
        } else {
            gwt.pair_weight(a, b)
        }
    };
    let boundary = move |d: u32| {
        if quantized {
            gwt.boundary_weight_q(d) as f64 / gwt.scale()
        } else {
            gwt.boundary_weight(d)
        }
    };
    (pair, boundary)
}

/// The closure-staged reference decode: `subset_dp::solve` reading the
/// weight table one entry at a time, observable mask folded off the
/// mate assignment — the path every batched-gather and closed-form
/// shortcut must reproduce bit-for-bit.
fn reference_decode(gwt: &decoding_graph::GlobalWeightTable, dets: &[u32], quantized: bool) -> u32 {
    let (pair, boundary) = entry_weights(gwt, quantized);
    let (mate, _) = subset_dp::solve(
        dets.len(),
        |i, j| pair(dets[i], dets[j]).min(PAIR_CLAMP),
        |i| boundary(dets[i]),
    );
    let mut observables = 0u32;
    for (i, m) in mate.iter().enumerate() {
        match m {
            None => observables ^= gwt.boundary_obs(dets[i]),
            Some(j) if *j > i => observables ^= gwt.pair_obs(dets[i], dets[*j]),
            Some(_) => {}
        }
    }
    observables
}

/// Whole-syndrome MWPM optimum from the dense blossom oracle, with no
/// cluster split: detectors may pair directly or both through the
/// boundary (`min(pair, b_i + b_j)`), and an odd one out matches a
/// virtual boundary node. Solved on a 2³² integer grid, so the rounding
/// is far below the comparison tolerance.
fn dense_optimum(gwt: &decoding_graph::GlobalWeightTable, dets: &[u32], quantized: bool) -> f64 {
    let (pair, boundary) = entry_weights(gwt, quantized);
    let k = dets.len();
    let reduced = |i: usize, j: usize| -> f64 {
        if i >= k || j >= k {
            boundary(dets[i.min(j)])
        } else {
            pair(dets[i], dets[j]).min(boundary(dets[i]) + boundary(dets[j]))
        }
    };
    let n = k + k % 2;
    let (mate, _) = dense_blossom::min_weight_perfect_matching(n, |i, j| {
        (reduced(i, j) * 4_294_967_296.0).round() as i64
    });
    (0..n)
        .filter(|&i| mate[i] > i)
        .map(|i| reduced(i, mate[i]))
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GWT-direct closed forms (HW 3–4) and the batched-gather memoized
    /// DP band (HW 5–8) both reproduce the closure-staged reference and
    /// the allocating decode path, for exact and quantized weights.
    #[test]
    fn scratch_decode_matches_closure_staged_reference(
        ctx_idx in 0usize..3,
        hw in 3usize..=8,
        candidates in prop::collection::vec(any::<u32>(), 32),
    ) {
        let ctx = &grid()[ctx_idx];
        let gwt = ctx.gwt();
        let dets = distinct_detectors(&candidates, gwt.len(), hw);
        prop_assert_eq!(dets.len(), hw);
        let mut scratch = DecodeScratch::new();
        for quantized in [false, true] {
            let mut decoder = if quantized {
                MwpmDecoder::with_quantized_weights(gwt)
            } else {
                MwpmDecoder::new(gwt)
            };
            let fast = decoder.decode_with_scratch(&dets, &mut scratch);
            let reference = reference_decode(gwt, &dets, quantized);
            prop_assert_eq!(
                fast.observables, reference,
                "scratch path diverged from closure reference on {:?} (quantized: {})",
                &dets, quantized
            );
            let plain = decoder.decode(&dets);
            prop_assert_eq!(
                fast, plain,
                "scratch path diverged from allocating path on {:?} (quantized: {})",
                &dets, quantized
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Deep-band axis: above the DP crossover the engine switches to
    /// cluster decomposition plus the sparse blossom solver. Its full
    /// matching must be perfect over the syndrome and as light as the
    /// whole-syndrome dense blossom optimum, and one reused scratch must
    /// reproduce the fresh-arena `decode` path bit-for-bit — exact and
    /// quantized.
    #[test]
    fn deep_scratch_decode_matches_allocating_path(
        ctx_idx in 0usize..3,
        hw in 12usize..=24,
        candidates in prop::collection::vec(any::<u32>(), 48),
    ) {
        let ctx = &grid()[ctx_idx];
        let gwt = ctx.gwt();
        let hw = hw.min(gwt.len());
        let dets = distinct_detectors(&candidates, gwt.len(), hw);
        prop_assert_eq!(dets.len(), hw);
        let mut scratch = DecodeScratch::new();
        for quantized in [false, true] {
            let mut decoder = if quantized {
                MwpmDecoder::with_quantized_weights(gwt)
            } else {
                MwpmDecoder::new(gwt)
            };
            let full = decoder.decode_full(&dets);
            prop_assert!(full.is_perfect_over(&dets), "not perfect on {:?}", &dets);
            let optimum = dense_optimum(gwt, &dets, quantized);
            prop_assert!(
                (full.weight - optimum).abs() <= 1e-6 * optimum.max(1.0),
                "engine weight {} vs dense optimum {} on {:?} (quantized: {})",
                full.weight, optimum, &dets, quantized
            );

            let fast = decoder.decode_with_scratch(&dets, &mut scratch);
            prop_assert_eq!(
                fast.observables, full.observables,
                "scratch prediction diverged from the full matching on {:?} (quantized: {})",
                &dets, quantized
            );
            let plain = decoder.decode(&dets);
            prop_assert_eq!(
                fast, plain,
                "deep scratch path diverged from allocating path on {:?} (quantized: {})",
                &dets, quantized
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The hard-syndrome prediction cache is invisible in the result:
    /// disabled, thrashing-small, and comfortably-large configurations
    /// all produce the same `LerResult` through the full pipeline.
    #[test]
    fn hard_cache_capacity_never_changes_the_result(
        seed in any::<u64>(),
        trials in 500u64..2_500,
        consumers in 1usize..4,
    ) {
        // d = 5 at a rate high enough that HW 5–8 shots (the cacheable
        // band) actually occur.
        static CTX: OnceLock<ExperimentContext> = OnceLock::new();
        let ctx = CTX.get_or_init(|| ExperimentContext::new(5, 6e-3));
        let factory: Box<astrea_experiments::DecoderFactory> =
            Box::new(|c: &ExperimentContext| Box::new(MwpmDecoder::new(c.gwt())) as Box<dyn Decoder + '_>);
        let config = |entries: usize| PipelineConfig {
            tile_words: 4,
            producers: 1,
            consumers,
            channel_depth: 2,
            source: SyndromeSource::Dem,
            hard_cache_entries: entries,
        };
        let off = estimate_ler_streamed(ctx, trials, seed, &*factory, config(0));
        for entries in [1usize, 64, 8192] {
            let on = estimate_ler_streamed(ctx, trials, seed, &*factory, config(entries));
            prop_assert_eq!(&on, &off, "cache with {} entries changed the result", entries);
        }
    }
}
