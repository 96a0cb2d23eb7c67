//! Stratified logical-error-rate estimation (paper Appendix A).
//!
//! For operating points whose LER is too small to reach by direct
//! Monte-Carlo (the paper quotes `10⁻¹³` at `d = 11`; their evaluation
//! used up to 10¹¹ trials on a 1024-core cluster), the paper estimates
//!
//! ```text
//! LER ≈ Σₖ P_fail(k) · P_occ(k)
//! ```
//!
//! where `P_occ(k)` is the probability that exactly `k` error mechanisms
//! trigger in one logical cycle (a Poisson–binomial distribution computed
//! exactly by convolution here) and `P_fail(k)` is the decoder's failure
//! probability conditioned on `k` triggers (estimated by Monte-Carlo over
//! syndromes generated from exactly `k` mechanisms, drawn with probability
//! proportional to their rates).

use crate::harness::{run_streamed, DecoderFactory, ExperimentContext, PipelineConfig};
use astrea_core::batch::shot_seed;
use qec_circuit::tiles::PackedSyndromeSource;
use qec_circuit::{BitTable, DetectorErrorModel, ErrorMechanism};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One stratum of the estimate: syndromes with exactly `k` triggered
/// mechanisms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KStratum {
    /// Number of triggered mechanisms.
    pub k: usize,
    /// Monte-Carlo trials in this stratum.
    pub trials: u64,
    /// Decoding failures in this stratum.
    pub failures: u64,
    /// `P_occ(k)`: probability of exactly `k` triggers per logical cycle.
    pub p_occ: f64,
}

impl KStratum {
    /// The conditional failure probability `P_fail(k)`.
    pub fn p_fail(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.failures as f64 / self.trials as f64
        }
    }
}

/// The result of a stratified LER estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct StratifiedEstimate {
    /// Per-`k` strata, `k = 1..=max_k`.
    pub strata: Vec<KStratum>,
    /// Probability mass beyond `max_k` (bounds the truncation error:
    /// the missing contribution is at most this value).
    pub truncated_mass: f64,
}

impl StratifiedEstimate {
    /// The stratified logical-error-rate estimate `Σₖ P_fail(k)·P_occ(k)`.
    pub fn ler(&self) -> f64 {
        self.strata.iter().map(|s| s.p_fail() * s.p_occ).sum()
    }

    /// Upper bound including the truncated tail (assumes every shot with
    /// more than `max_k` errors fails).
    pub fn ler_upper_bound(&self) -> f64 {
        self.ler() + self.truncated_mass
    }
}

/// Exact Poisson–binomial distribution `P(K = k)` for `k = 0..=max_k`
/// over independent mechanism probabilities, plus the truncated tail mass.
pub fn poisson_binomial(probabilities: &[f64], max_k: usize) -> (Vec<f64>, f64) {
    let mut dist = vec![0.0f64; max_k + 1];
    dist[0] = 1.0;
    let mut tail = 0.0f64;
    for &p in probabilities {
        // dist'[k] = dist[k]·(1−p) + dist[k−1]·p, processed descending.
        let spill = dist[max_k] * p;
        for k in (1..=max_k).rev() {
            dist[k] = dist[k] * (1.0 - p) + dist[k - 1] * p;
        }
        dist[0] *= 1.0 - p;
        // Mass leaving the tracked range. (Tail re-entry is impossible:
        // counts never decrease.)
        tail += spill;
    }
    (dist, tail)
}

/// Runs the stratified estimator on the streamed tile pipeline.
///
/// For each `k ∈ [1, max_k]`, draws `trials_per_k` syndromes from exactly
/// `k` distinct mechanisms (selected with probability proportional to
/// their rates), decodes each, and combines the conditional failure rates
/// with the exact Poisson–binomial occurrence probabilities. Each trial
/// seeds its own RNG from its `(stratum, trial)` index, so the estimate
/// is bit-identical for every thread count and tile split. Every stratum
/// runs through the same streamed driver as the direct Monte-Carlo
/// estimator ([`PipelineConfig::for_threads`]`(threads)`), with producers
/// packing trials into tiles (XOR-toggling mechanism symptoms into the
/// bit-planes, so duplicate detectors cancel): word-parallel screening,
/// GWT-direct closed forms, and the hard-syndrome cache all apply, and
/// sampling overlaps decoding.
pub fn estimate_stratified<'a>(
    ctx: &'a ExperimentContext,
    max_k: usize,
    trials_per_k: u64,
    threads: usize,
    seed: u64,
    factory: &DecoderFactory<'a>,
) -> StratifiedEstimate {
    let mechanisms = ctx.dem().mechanisms();
    let probs: Vec<f64> = mechanisms.iter().map(|m| m.probability).collect();
    let (occ, tail) = poisson_binomial(&probs, max_k);
    let cumulative = cumulative_rates(mechanisms);
    let config = PipelineConfig::for_threads(threads);
    let strata = (1..=max_k)
        .map(|k| {
            let stratum_seed = seed ^ ((k as u64) << 32);
            let (result, _) =
                run_streamed(ctx, trials_per_k, stratum_seed, factory, config, || {
                    Box::new(StratumSource::new(ctx.dem(), &cumulative, k))
                });
            KStratum {
                k,
                trials: trials_per_k,
                failures: result.failures,
                p_occ: occ[k],
            }
        })
        .collect();

    StratifiedEstimate {
        strata,
        truncated_mass: tail,
    }
}

/// Running sums of the mechanism rates, for weighted sampling.
fn cumulative_rates(mechanisms: &[ErrorMechanism]) -> Vec<f64> {
    let mut acc = 0.0;
    mechanisms
        .iter()
        .map(|m| {
            acc += m.probability;
            acc
        })
        .collect()
}

/// Packs syndromes of exactly `k` triggered mechanisms into tiles: shot
/// `i` of the run seeded by `seed` draws its mechanisms from a fresh RNG
/// seeded with [`shot_seed`]`(seed, i)` and XOR-toggles their symptoms
/// into the bit-planes.
struct StratumSource<'m> {
    dem: &'m DetectorErrorModel,
    cumulative: &'m [f64],
    k: usize,
    chosen: Vec<usize>,
}

impl<'m> StratumSource<'m> {
    fn new(dem: &'m DetectorErrorModel, cumulative: &'m [f64], k: usize) -> StratumSource<'m> {
        StratumSource {
            dem,
            cumulative,
            k,
            chosen: Vec::with_capacity(k),
        }
    }
}

impl PackedSyndromeSource for StratumSource<'_> {
    fn num_detectors(&self) -> usize {
        self.dem.num_detectors()
    }

    fn num_observables(&self) -> usize {
        self.dem.num_observables()
    }

    fn fill_words(
        &mut self,
        seed: u64,
        first_word: usize,
        detectors: &mut BitTable,
        observables: &mut BitTable,
    ) {
        detectors.clear();
        observables.clear();
        let total_rate = self.cumulative.last().copied().unwrap_or(0.0);
        for s in 0..detectors.num_shots() {
            let shot = (first_word * 64 + s) as u64;
            let mut rng = StdRng::seed_from_u64(shot_seed(seed, shot));
            sample_k_mechanisms(
                &mut rng,
                self.cumulative,
                total_rate,
                self.k,
                &mut self.chosen,
            );
            for &i in &self.chosen {
                let m = &self.dem.mechanisms()[i];
                for &d in &m.detectors {
                    detectors.toggle(d as usize, s);
                }
                for b in 0..observables.num_bits() {
                    if m.observables >> b & 1 == 1 {
                        observables.toggle(b, s);
                    }
                }
            }
        }
    }
}

/// Draws `k` distinct mechanism indices with probability proportional to
/// their rates (rejection on duplicates; fine for `k ≪ mechanisms`).
fn sample_k_mechanisms(
    rng: &mut StdRng,
    cumulative: &[f64],
    total: f64,
    k: usize,
    out: &mut Vec<usize>,
) {
    out.clear();
    while out.len() < k {
        let r = rng.gen::<f64>() * total;
        let idx = cumulative
            .partition_point(|&c| c < r)
            .min(cumulative.len() - 1);
        if !out.contains(&idx) {
            out.push(idx);
        }
    }
}

/// XORs the symptom sets of the chosen mechanisms into a sorted detector
/// list and an observable mask — the scalar reference for the packed
/// bit-plane toggling in [`StratumSource`], kept for the differential
/// tests.
#[cfg(test)]
fn combine(mechanisms: &[ErrorMechanism], chosen: &[usize]) -> (Vec<u32>, u32) {
    let mut dets: Vec<u32> = Vec::new();
    let mut obs = 0u32;
    for &i in chosen {
        dets.extend_from_slice(&mechanisms[i].detectors);
        obs ^= mechanisms[i].observables;
    }
    dets.sort_unstable();
    // XOR semantics: detectors hit an even number of times cancel.
    let mut folded = Vec::with_capacity(dets.len());
    let mut i = 0;
    while i < dets.len() {
        let mut j = i + 1;
        while j < dets.len() && dets[j] == dets[i] {
            j += 1;
        }
        if (j - i) % 2 == 1 {
            folded.push(dets[i]);
        }
        i = j;
    }
    (folded, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blossom_mwpm::MwpmDecoder;
    use decoding_graph::DecodeScratch;

    #[test]
    fn poisson_binomial_matches_binomial_for_uniform_probs() {
        let probs = vec![0.1; 20];
        let (dist, tail) = poisson_binomial(&probs, 20);
        for (k, &d) in dist.iter().enumerate() {
            let expected = crate::analytic::binomial_pmf(20, k as u64, 0.1);
            assert!((d - expected).abs() < 1e-12, "k={k}: {d} vs {expected}");
        }
        assert!(tail.abs() < 1e-15);
    }

    #[test]
    fn poisson_binomial_truncation_tracks_lost_mass() {
        let probs = vec![0.5; 10];
        let (dist, tail) = poisson_binomial(&probs, 3);
        let kept: f64 = dist.iter().sum();
        assert!((kept + tail - 1.0).abs() < 1e-12);
        assert!(tail > 0.5); // most mass is above k = 3 here
    }

    #[test]
    fn single_error_stratum_never_fails_under_mwpm() {
        // P_fail(1) = 0: one mechanism is always decoded correctly by MWPM
        // (its own edge is the minimum-weight explanation)... except for
        // rare degenerate ties; require ≈ 0.
        let ctx = ExperimentContext::new(3, 1e-3);
        let factory: Box<DecoderFactory> = Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())));
        let est = estimate_stratified(&ctx, 2, 2_000, 2, 5, &*factory);
        let s1 = &est.strata[0];
        assert_eq!(s1.k, 1);
        assert!(
            s1.p_fail() < 0.01,
            "single errors misdecoded at rate {}",
            s1.p_fail()
        );
    }

    #[test]
    fn p_fail_increases_with_k() {
        let ctx = ExperimentContext::new(3, 1e-3);
        let factory: Box<DecoderFactory> = Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())));
        let est = estimate_stratified(&ctx, 4, 3_000, 2, 6, &*factory);
        let f: Vec<f64> = est.strata.iter().map(|s| s.p_fail()).collect();
        assert!(f[3] > f[0], "P_fail should grow with k: {f:?}");
    }

    #[test]
    fn stratified_ler_is_consistent_with_direct_monte_carlo() {
        // At a high error rate both estimators are viable; they must agree
        // within Monte-Carlo tolerance (factor ~2 here given the modest
        // trial counts and the conditional-sampling approximation).
        use crate::harness::estimate_ler;
        let ctx = ExperimentContext::new(3, 3e-3);
        let factory: Box<DecoderFactory> = Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())));
        let direct = estimate_ler(&ctx, 400_000, 4, 7, &*factory);
        let strat = estimate_stratified(&ctx, 8, 20_000, 4, 7, &*factory);
        let (a, b) = (direct.ler(), strat.ler());
        assert!(
            direct.failures > 20,
            "need failures, got {}",
            direct.failures
        );
        assert!(
            a / b < 2.5 && b / a < 2.5,
            "direct {a:.3e} vs stratified {b:.3e}"
        );
    }

    /// The barrier implementation this module used before the tile port:
    /// scalar [`combine`] into a `SyndromeBatch`, then [`decode_slice`].
    fn barrier_stratum_failures(ctx: &ExperimentContext, k: usize, trials: u64, seed: u64) -> u64 {
        use astrea_core::batch::{decode_slice, SyndromeBatchBuilder};
        let mechanisms = ctx.dem().mechanisms();
        let cumulative = cumulative_rates(mechanisms);
        let acc = *cumulative.last().unwrap();
        let stratum_seed = seed ^ ((k as u64) << 32);
        let mut chosen = Vec::with_capacity(k);
        let mut builder = SyndromeBatchBuilder::default();
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(shot_seed(stratum_seed, t));
            sample_k_mechanisms(&mut rng, &cumulative, acc, k, &mut chosen);
            let (dets, obs) = combine(mechanisms, &chosen);
            builder.push(&dets, obs);
        }
        let batch = builder.finish();
        let mut decoder = MwpmDecoder::new(ctx.gwt());
        let mut scratch = DecodeScratch::new();
        decode_slice(&mut decoder, &mut scratch, &batch, 0..batch.len()).failures
    }

    #[test]
    fn streamed_stratified_matches_barrier_reference() {
        // The tile-pipeline port must reproduce the retired batch-barrier
        // implementation bit-for-bit: same per-trial seeds, same XOR
        // cancellation, same decoder predictions through the screen and
        // caches.
        let ctx = ExperimentContext::new(3, 2e-3);
        let factory: Box<DecoderFactory> = Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())));
        let est = estimate_stratified(&ctx, 4, 1_500, 3, 9, &*factory);
        for s in &est.strata {
            let reference = barrier_stratum_failures(&ctx, s.k, 1_500, 9);
            assert_eq!(s.failures, reference, "k = {}", s.k);
        }
    }

    #[test]
    fn stratum_source_through_the_driver_matches_decode_slice() {
        // The shared streamed driver fed by the k-mechanism source must
        // account exactly like `decode_slice` over the same tiles
        // converted to a batch: same failures, deferrals and stats.
        use crate::harness::{LerResult, SyndromeSource};
        use astrea_core::batch::{decode_slice, SyndromeBatch};
        use astrea_core::pipeline::DEFAULT_HARD_CACHE_ENTRIES;
        use qec_circuit::tiles::TileLayout;

        let ctx = ExperimentContext::new(3, 2e-3);
        let factory: Box<DecoderFactory> = Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())));
        let cumulative = cumulative_rates(ctx.dem().mechanisms());
        let trials = 700u64;
        for k in [1usize, 3, 6] {
            let seed = 9 ^ ((k as u64) << 32);
            let new_source = || StratumSource::new(ctx.dem(), &cumulative, k);
            for (tile_words, consumers) in [(1usize, 1usize), (3, 2)] {
                let config = PipelineConfig {
                    tile_words,
                    producers: 2,
                    consumers,
                    channel_depth: 2,
                    source: SyndromeSource::Dem,
                    hard_cache_entries: DEFAULT_HARD_CACHE_ENTRIES,
                };
                let (streamed, _) = run_streamed(&ctx, trials, seed, &*factory, config, || {
                    Box::new(new_source())
                });

                let layout = TileLayout::for_consumers(trials as usize, tile_words, consumers);
                let mut source = new_source();
                let mut decoder = MwpmDecoder::new(ctx.gwt());
                let mut scratch = DecodeScratch::new();
                let mut reference = LerResult {
                    trials,
                    ..LerResult::default()
                };
                for t in 0..layout.num_tiles() {
                    let tile = source.sample_tile(seed, &layout, t);
                    let batch = SyndromeBatch::from_packed(tile.detectors(), tile.observables());
                    let s = decode_slice(&mut decoder, &mut scratch, &batch, 0..batch.len());
                    reference.failures += s.failures;
                    reference.deferred += s.deferred;
                    reference.latency.merge(&s.stats);
                }
                assert_eq!(reference.latency.shots, trials);
                assert_eq!(streamed, reference, "k = {k}, tile_words = {tile_words}");
            }
        }
    }

    #[test]
    fn stratified_is_thread_count_invariant() {
        let ctx = ExperimentContext::new(3, 2e-3);
        let factory: Box<DecoderFactory> = Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())));
        let a = estimate_stratified(&ctx, 3, 1_000, 1, 21, &*factory);
        let b = estimate_stratified(&ctx, 3, 1_000, 4, 21, &*factory);
        assert_eq!(a, b);
    }

    #[test]
    fn combine_cancels_duplicate_detectors() {
        let mechanisms = vec![
            ErrorMechanism {
                detectors: vec![1, 2],
                observables: 1,
                probability: 0.1,
            },
            ErrorMechanism {
                detectors: vec![2, 3],
                observables: 0,
                probability: 0.1,
            },
        ];
        let (dets, obs) = combine(&mechanisms, &[0, 1]);
        assert_eq!(dets, vec![1, 3]);
        assert_eq!(obs, 1);
    }
}
