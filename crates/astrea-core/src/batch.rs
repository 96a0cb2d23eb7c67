//! Batched decoding: a shared column of shots and the one shot loop.
//!
//! * [`SyndromeBatch`] — a flattened, cheaply shareable column of shots
//!   (detector lists + expected observable masks) behind an `Arc`.
//!   Batches are built shot-by-shot, or ingested 64 shots per word from
//!   the bit-packed samplers via
//!   [`SyndromeBatchBuilder::push_packed`] / [`SyndromeBatch::from_packed`],
//!   which screen out all-zero (trivial) shots at word level before
//!   materializing sparse detector lists.
//! * [`decode_slice`] — the single shot loop every per-shot decode path
//!   runs (the scoped-thread harnesses in `astrea-experiments` and the
//!   reference side of every differential test), so they share one
//!   definition of "decode a shot and account for it". The streamed
//!   [`crate::pipeline`] must reproduce it bit-for-bit.
//! * [`BatchDecoderFactory`] — how long-lived workers (the
//!   `astrea-serve` `DecodeService`) build one decoder each against a
//!   shared [`DecodingContext`].
//!
//! Determinism: shots are decoded independently and all [`LatencyStats`]
//! counters are sums or maxima, so splitting a batch across threads and
//! merging the outcomes is bit-identical to a sequential run. Harnesses
//! that sample shots seed a fresh RNG per shot from
//! [`shot_seed`]`(seed, shot_index)`, which makes the *sampled batches*
//! thread-count-independent too.

use std::ops::Range;
use std::sync::Arc;

use crate::latency::LatencyStats;
use decoding_graph::{DecodeScratch, Decoder, DecodingContext, Prediction};
use qec_circuit::BitTable;

/// Derives the per-shot RNG seed for shot `index` of a run seeded with
/// `seed` (a SplitMix64 mix of the pair).
///
/// Seeding each shot's RNG independently — instead of one stream per
/// worker — is what makes sampled results identical for every thread
/// count and lets batched runs reproduce sequential ones bit-for-bit.
pub fn shot_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Default)]
struct BatchInner {
    /// `offsets[i]..offsets[i + 1]` indexes shot `i`'s detectors.
    offsets: Vec<u32>,
    detectors: Vec<u32>,
    observables: Vec<u32>,
}

/// A column of syndromes to decode: per-shot detector lists (flattened)
/// plus the actual observable-flip mask of each shot.
///
/// Cloning is an `Arc` bump; a batch can be shared across threads
/// without copying shot data.
#[derive(Debug, Clone, Default)]
pub struct SyndromeBatch {
    inner: Arc<BatchInner>,
}

impl SyndromeBatch {
    /// An incremental builder for a batch.
    pub fn builder() -> SyndromeBatchBuilder {
        SyndromeBatchBuilder::default()
    }

    /// Number of shots in the batch.
    pub fn len(&self) -> usize {
        self.inner.observables.len()
    }

    /// True if the batch holds no shots.
    pub fn is_empty(&self) -> bool {
        self.inner.observables.is_empty()
    }

    /// The sorted fired-detector indices of shot `i`.
    pub fn detectors(&self, i: usize) -> &[u32] {
        let lo = self.inner.offsets[i] as usize;
        let hi = self.inner.offsets[i + 1] as usize;
        &self.inner.detectors[lo..hi]
    }

    /// The actual observable-flip mask of shot `i`.
    pub fn observables(&self, i: usize) -> u32 {
        self.inner.observables[i]
    }

    /// The Hamming weight (fired-detector count) of shot `i`.
    pub fn hamming_weight(&self, i: usize) -> usize {
        (self.inner.offsets[i + 1] - self.inner.offsets[i]) as usize
    }

    /// Converts packed detector/observable tables (from the word-parallel
    /// samplers in `qec-circuit`) into a batch — see
    /// [`SyndromeBatchBuilder::push_packed`].
    pub fn from_packed(detectors: &BitTable, observables: &BitTable) -> SyndromeBatch {
        let mut builder = SyndromeBatch::builder();
        builder.push_packed(detectors, observables);
        builder.finish()
    }
}

/// Builds a [`SyndromeBatch`] shot by shot.
#[derive(Debug, Default)]
pub struct SyndromeBatchBuilder {
    detectors: Vec<u32>,
    // Lazily seeded with the leading 0 on first use.
    offsets: Vec<u32>,
    observables: Vec<u32>,
    // Reusable scratch for `push_packed`: `(shot << 32 | detector)`
    // pairs in detector-major extraction order, and the per-shot
    // counting-sort histogram/cursor.
    pairs: Vec<u64>,
    counts: Vec<u32>,
}

impl SyndromeBatchBuilder {
    /// Appends one shot.
    ///
    /// # Panics
    ///
    /// Panics if the flattened detector column would overflow the `u32`
    /// offset space (> 4 billion fired detectors per batch).
    pub fn push(&mut self, detectors: &[u32], observables: u32) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.detectors.extend_from_slice(detectors);
        let end: u32 = self
            .detectors
            .len()
            .try_into()
            .expect("batch detector column exceeds u32 offsets");
        self.offsets.push(end);
        self.observables.push(observables);
    }

    /// Appends every shot of packed detector/observable tables, in shot
    /// order — the bridge from the word-parallel samplers
    /// (`qec_circuit::BatchDemSampler` / `BatchFrameSimulator`) into the
    /// decode path.
    ///
    /// The conversion is a counting sort: one row-major sweep over the
    /// detector table extracts `(shot, detector)` pairs from the set
    /// bits (a zero word — no shot in the column fired this detector,
    /// the common case at low p — costs one compare, which doubles as
    /// the trivial-shot screen) while histogramming fired counts per
    /// shot, then a prefix sum fixes every shot's slice and a stable
    /// scatter drops each pair into place. Row-ascending extraction
    /// keeps every shot's detector list sorted. Padding lanes of a
    /// partial final word are masked off during extraction.
    ///
    /// Callers converting large runs should feed tables tile-by-tile
    /// (as `astrea-experiments::sample_batch` does): the scatter's
    /// working set is the current table, so cache-resident tiles keep
    /// it out of DRAM.
    ///
    /// # Panics
    ///
    /// Panics if the two tables disagree on shot count, if `observables`
    /// has more than 32 rows (observable masks are `u32`), or if the
    /// flattened detector column would overflow the `u32` offset space.
    pub fn push_packed(&mut self, detectors: &BitTable, observables: &BitTable) {
        let num_shots = detectors.num_shots();
        assert_eq!(
            num_shots,
            observables.num_shots(),
            "detector/observable tables disagree on shot count"
        );
        assert!(
            observables.num_bits() <= 32,
            "observable masks are u32 (≤ 32 observables)"
        );
        if num_shots == 0 {
            return;
        }
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        let num_words = detectors.num_words();
        let last = num_words - 1;
        let last_mask = detectors.valid_lanes(last);

        // Pass 1: extract (shot, detector) pairs row-major and histogram
        // the per-shot fired counts into `counts[shot + 1]`.
        let mut pairs = std::mem::take(&mut self.pairs);
        pairs.clear();
        self.counts.clear();
        self.counts.resize(num_shots + 1, 0);
        for d in 0..detectors.num_bits() {
            let row = detectors.row(d);
            let mut extract = |w: usize, word: u64| {
                let mut m = word;
                while m != 0 {
                    let shot = w * 64 + m.trailing_zeros() as usize;
                    m &= m - 1;
                    pairs.push((shot as u64) << 32 | d as u64);
                    self.counts[shot + 1] += 1;
                }
            };
            for (w, &word) in row[..last].iter().enumerate() {
                extract(w, word);
            }
            extract(last, row[last] & last_mask);
        }

        // Pass 2: prefix-sum into per-shot cursors and stable-scatter the
        // pairs; afterwards `counts[shot]` is the end of `shot`'s slice.
        let base = self.detectors.len();
        assert!(
            u32::try_from(base + pairs.len()).is_ok(),
            "batch detector column exceeds u32 offsets"
        );
        for s in 0..num_shots {
            self.counts[s + 1] += self.counts[s];
        }
        self.detectors.resize(base + pairs.len(), 0);
        let out = &mut self.detectors[base..];
        for &pair in &pairs {
            let shot = (pair >> 32) as usize;
            out[self.counts[shot] as usize] = pair as u32;
            self.counts[shot] += 1;
        }
        self.pairs = pairs;
        self.offsets.reserve(num_shots);
        let base = base as u32;
        self.offsets
            .extend((0..num_shots).map(|s| base + self.counts[s]));

        // Pass 3: per-shot observable masks from the packed rows.
        let obs_base = self.observables.len();
        self.observables.resize(obs_base + num_shots, 0);
        let obs_out = &mut self.observables[obs_base..];
        for i in 0..observables.num_bits() {
            let row = observables.row(i);
            for (w, &word) in row.iter().enumerate() {
                let mut m = word & observables.valid_lanes(w);
                while m != 0 {
                    let shot = w * 64 + m.trailing_zeros() as usize;
                    m &= m - 1;
                    obs_out[shot] |= 1 << i;
                }
            }
        }
    }

    /// Appends every shot of `other` after this builder's shots —
    /// used to concatenate per-thread partial batches in index order.
    pub fn append(&mut self, other: SyndromeBatchBuilder) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        let base: u32 = self
            .detectors
            .len()
            .try_into()
            .expect("batch detector column exceeds u32 offsets");
        self.detectors.extend_from_slice(&other.detectors);
        self.offsets
            .extend(other.offsets.iter().skip(1).map(|&o| base + o));
        self.observables.extend_from_slice(&other.observables);
    }

    /// Number of shots pushed so far.
    pub fn len(&self) -> usize {
        self.observables.len()
    }

    /// True if no shots have been pushed.
    pub fn is_empty(&self) -> bool {
        self.observables.is_empty()
    }

    /// Finalizes the batch.
    pub fn finish(mut self) -> SyndromeBatch {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        SyndromeBatch {
            inner: Arc::new(BatchInner {
                offsets: self.offsets,
                detectors: self.detectors,
                observables: self.observables,
            }),
        }
    }
}

/// The accounting produced by decoding a contiguous slice of a batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SliceOutcome {
    /// One prediction per shot, in shot order.
    pub predictions: Vec<Prediction>,
    /// Latency statistics over the slice (HW histogram, cycle bands,
    /// trivial shots included).
    pub stats: LatencyStats,
    /// Shots whose predicted observable mask missed the actual one.
    pub failures: u64,
    /// Shots the decoder declined to decode in real time.
    pub deferred: u64,
}

/// Decodes shots `range` of `batch` with one decoder + scratch arena,
/// accumulating predictions and statistics.
///
/// This is the single shot loop every per-shot decode path shares:
/// scoped-thread harnesses call it on borrowed decoders, and it is the
/// reference the streamed tile path is checked against. Trivial (empty)
/// syndromes are counted with zero cycles and an identity prediction
/// without touching the decoder, matching the hardware model.
pub fn decode_slice(
    decoder: &mut dyn Decoder,
    scratch: &mut DecodeScratch,
    batch: &SyndromeBatch,
    range: Range<usize>,
) -> SliceOutcome {
    let mut out = SliceOutcome {
        predictions: Vec::with_capacity(range.len()),
        ..SliceOutcome::default()
    };
    for i in range {
        let detectors = batch.detectors(i);
        let actual = batch.observables(i);
        if detectors.is_empty() {
            out.stats.record(0, 0);
            out.failures += u64::from(actual != 0);
            out.predictions.push(Prediction::identity());
            continue;
        }
        let p = decoder.decode_with_scratch(detectors, scratch);
        out.stats.record(detectors.len(), p.cycles);
        out.deferred += u64::from(p.deferred);
        out.failures += u64::from(p.observables != actual);
        out.predictions.push(p);
    }
    out
}

/// Builds one decoder per long-lived worker against a shared context —
/// the factory `astrea-serve`'s `DecodeService` workers build their
/// decoders from. The returned decoder may borrow from the context
/// (every decoder in the workspace borrows its weight table), hence the
/// HRTB.
pub type BatchDecoderFactory =
    dyn for<'c> Fn(&'c DecodingContext) -> Box<dyn Decoder + 'c> + Send + Sync;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AstreaDecoder;
    use blossom_mwpm::MwpmDecoder;
    use qec_circuit::{DemSampler, NoiseModel, Shot};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use surface_code::SurfaceCode;

    fn ctx(d: usize, p: f64) -> DecodingContext {
        let code = SurfaceCode::new(d).unwrap();
        DecodingContext::for_memory_experiment(&code, NoiseModel::depolarizing(p))
    }

    fn sample_batch(ctx: &DecodingContext, shots: usize, seed: u64) -> SyndromeBatch {
        let mut sampler = DemSampler::new(ctx.dem());
        let mut builder = SyndromeBatch::builder();
        let mut shot = Shot::default();
        for i in 0..shots {
            let mut rng = StdRng::seed_from_u64(shot_seed(seed, i as u64));
            sampler.sample_into(&mut rng, &mut shot);
            builder.push(&shot.detectors, shot.observables);
        }
        builder.finish()
    }

    /// Decodes the whole batch on one fresh decoder from `factory`.
    fn decode_all(
        ctx: &DecodingContext,
        batch: &SyndromeBatch,
        factory: &BatchDecoderFactory,
    ) -> SliceOutcome {
        let mut decoder = factory(ctx);
        let mut scratch = DecodeScratch::new();
        decode_slice(decoder.as_mut(), &mut scratch, batch, 0..batch.len())
    }

    fn mwpm(c: &DecodingContext) -> Box<dyn Decoder + '_> {
        // Backend-aware: resolves to the GWT or the staged local provider
        // according to the context, so the same factory serves both.
        Box::new(MwpmDecoder::for_context(c))
    }

    #[test]
    fn gwt_free_context_decodes_identically() {
        let code = SurfaceCode::new(3).unwrap();
        let noise = NoiseModel::depolarizing(5e-3);
        let gctx = DecodingContext::for_memory_experiment(&code, noise);
        let lctx = DecodingContext::for_memory_experiment_with(
            &code,
            noise,
            decoding_graph::WeightSource::Local,
        );
        assert!(lctx.try_gwt().is_none());
        let batch = sample_batch(&gctx, 1_000, 17);
        assert_eq!(
            decode_all(&gctx, &batch, &mwpm),
            decode_all(&lctx, &batch, &mwpm)
        );
    }

    #[test]
    fn empty_batch_decodes_to_nothing() {
        let ctx = ctx(3, 1e-3);
        let result = decode_all(&ctx, &SyndromeBatch::builder().finish(), &mwpm);
        assert_eq!(result, SliceOutcome::default());
    }

    #[test]
    fn stats_count_every_shot_and_trivial_ones_are_free() {
        let ctx = ctx(3, 5e-3);
        let batch = sample_batch(&ctx, 4_000, 7);
        let result = decode_all(&ctx, &batch, &|c: &DecodingContext| {
            Box::new(AstreaDecoder::new(c.gwt())) as Box<dyn Decoder>
        });
        assert_eq!(result.stats.shots, 4_000);
        let hist = result.stats.hw_histogram();
        let nontrivial: u64 = hist.iter().skip(3).sum();
        assert_eq!(result.stats.nontrivial_shots, nontrivial);
        // Trivial shots decode in 0 cycles; the histogram's bucket 0
        // must cover at least the HW ≤ 2 population.
        assert!(result.stats.cycle_histogram()[0] >= hist[0] + hist[1] + hist[2]);
        assert!(result.stats.max_cycles <= 114);
    }

    #[test]
    fn batch_indexing_round_trips() {
        let mut builder = SyndromeBatch::builder();
        builder.push(&[1, 5, 9], 0b10);
        builder.push(&[], 0);
        builder.push(&[2], 1);
        let batch = builder.finish();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.detectors(0), &[1, 5, 9]);
        assert_eq!(batch.hamming_weight(0), 3);
        assert_eq!(batch.observables(0), 0b10);
        assert_eq!(batch.detectors(1), &[] as &[u32]);
        assert_eq!(batch.detectors(2), &[2]);
        assert_eq!(batch.observables(2), 1);
    }

    #[test]
    fn append_preserves_shot_order_and_offsets() {
        let mut a = SyndromeBatch::builder();
        a.push(&[1, 2], 1);
        let mut b = SyndromeBatch::builder();
        b.push(&[3], 2);
        b.push(&[4, 5, 6], 3);
        a.append(b);
        let batch = a.finish();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.detectors(0), &[1, 2]);
        assert_eq!(batch.detectors(1), &[3]);
        assert_eq!(batch.detectors(2), &[4, 5, 6]);
        assert_eq!(batch.observables(1), 2);
        // Appending into an empty builder must also work.
        let mut empty = SyndromeBatch::builder();
        let mut c = SyndromeBatch::builder();
        c.push(&[7], 4);
        empty.append(c);
        let batch = empty.finish();
        assert_eq!(batch.detectors(0), &[7]);
    }

    #[test]
    fn push_packed_round_trips_sparse_shots() {
        // 3 detectors, 2 observables, 70 shots (partial final word).
        let num_shots = 70;
        let mut det = BitTable::new(3, num_shots);
        let mut obs = BitTable::new(2, num_shots);
        let shots: Vec<(Vec<u32>, u32)> = (0..num_shots)
            .map(|s| match s % 5 {
                0 => (vec![0, 2], 0b01),
                1 => (vec![], 0b10),
                2 => (vec![1], 0),
                _ => (vec![], 0),
            })
            .collect();
        for (s, (dets, mask)) in shots.iter().enumerate() {
            for &d in dets {
                det.set(d as usize, s, true);
            }
            for bit in 0..2 {
                if mask >> bit & 1 == 1 {
                    obs.set(bit, s, true);
                }
            }
        }
        let batch = SyndromeBatch::from_packed(&det, &obs);
        assert_eq!(batch.len(), num_shots);
        for (s, (dets, mask)) in shots.iter().enumerate() {
            assert_eq!(batch.detectors(s), dets.as_slice(), "shot {s}");
            assert_eq!(batch.observables(s), *mask, "shot {s}");
        }
    }

    #[test]
    fn push_packed_all_zero_words_yield_trivial_shots() {
        let det = BitTable::new(5, 130);
        let mut obs = BitTable::new(1, 130);
        obs.set(0, 129, true);
        let batch = SyndromeBatch::from_packed(&det, &obs);
        assert_eq!(batch.len(), 130);
        for s in 0..130 {
            assert!(batch.detectors(s).is_empty());
            assert_eq!(batch.observables(s), u32::from(s == 129));
        }
    }

    #[test]
    fn push_packed_matches_scalar_push_on_sampled_data() {
        let ctx = ctx(3, 5e-3);
        let sampler = qec_circuit::BatchDemSampler::new(ctx.dem());
        let (det, obs) = sampler.sample(17, 500);
        let packed = SyndromeBatch::from_packed(&det, &obs);
        let mut scalar = SyndromeBatch::builder();
        for s in 0..500 {
            let dets: Vec<u32> = (0..det.num_bits())
                .filter(|&d| det.get(d, s))
                .map(|d| d as u32)
                .collect();
            let mask = u32::from(obs.get(0, s));
            scalar.push(&dets, mask);
        }
        let scalar = scalar.finish();
        assert_eq!(packed.len(), scalar.len());
        for s in 0..500 {
            assert_eq!(packed.detectors(s), scalar.detectors(s), "shot {s}");
            assert_eq!(packed.observables(s), scalar.observables(s), "shot {s}");
        }
    }

    #[test]
    fn shot_seed_decorrelates_neighbours() {
        let a = shot_seed(42, 0);
        let b = shot_seed(42, 1);
        let c = shot_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stable across calls.
        assert_eq!(shot_seed(42, 0), a);
    }
}
