//! Word-parallel pre-decode screening over packed syndrome tiles.
//!
//! At realistic error rates almost every shot is easy: the syndrome is
//! all-zero (trivial), or it has Hamming weight 1–2 and is decided by a
//! single matching-graph edge. The barrier decode path still pays a
//! per-shot sparse-list materialization and a full decoder call for each
//! of them. This module screens shots *while they are still bit-packed*:
//!
//! * the tile decoder ([`decode_tile`](crate::pipeline::decode_tile))
//!   runs a bit-sliced ripple adder over the detector rows of a packed
//!   tile, classifying all 64 shots of a word into Hamming-weight buckets
//!   {0, 1, 2, ≥3} with two bitwise ops per detector row per word — no
//!   per-shot work at all;
//! * trivial shots are *counted* (popcount) and their failures read off a
//!   word-parallel observable OR, never materialized;
//! * [`ScreenCache`] memoizes the wrapped decoder's [`Prediction`] for
//!   HW-1 and HW-2 syndromes, so easy nontrivial shots are decided by a
//!   table lookup that replays exactly what the decoder would have
//!   produced — predictions, modeled cycles, and deferral flags included.
//!
//! Because the cache replays the real decoder (it fills lazily by calling
//! it once per distinct syndrome), a screened run is bit-identical to the
//! unscreened one. This relies on decoders being deterministic pure
//! functions of the fired-detector list, which the [`Decoder`] contract's
//! batch-invariance already demands.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use decoding_graph::{DecodeScratch, Decoder, Prediction};

/// A multiplicative word hasher for the screen cache's packed integer
/// keys.
///
/// The HW-2 cache is keyed by `(a << 32) | b` over detector indices that
/// are already uniformly spread; SipHash's per-lookup cost (keyed rounds
/// for HashDoS resistance) is pure overhead on a table whose keys the
/// process generates itself. One odd-constant multiply plus a xor-fold
/// of the high half mixes every input bit into the table index bits at
/// ~1 ns per lookup.
#[derive(Debug, Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // Fibonacci hashing: multiply by 2^64/φ, then fold the
        // well-mixed high bits down onto the low (table-index) bits.
        let h = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }
}

/// [`HashMap`] state plugging [`WordHasher`] into the screen caches.
pub type WordHashState = BuildHasherDefault<WordHasher>;

/// A lazy memo of the wrapped decoder's [`Prediction`]s for Hamming
/// weight 1 and 2 syndromes.
///
/// On first sight of a syndrome the real decoder is called once (through
/// the normal scratch-arena path) and the result cached; afterwards the
/// shot costs a vector index (HW 1) or one hash lookup (HW 2). Replayed
/// predictions are the decoder's own, so screening never changes any
/// result — see the [module docs](self) for the determinism requirement.
///
/// Keep one cache per worker thread, next to its decoder instance; a
/// cache outlives batches and keeps paying off across calls.
#[derive(Debug, Default)]
pub struct ScreenCache {
    hw1: Vec<Option<Prediction>>,
    hw2: HashMap<u64, Prediction, WordHashState>,
}

impl ScreenCache {
    /// An empty cache for syndromes over `num_detectors` detectors.
    pub fn new(num_detectors: usize) -> ScreenCache {
        ScreenCache {
            hw1: vec![None; num_detectors],
            hw2: HashMap::default(),
        }
    }

    /// Number of detectors the cache is sized for.
    pub fn num_detectors(&self) -> usize {
        self.hw1.len()
    }

    /// The decoder's prediction for the weight-1 syndrome `{d}`.
    #[inline]
    pub fn single(
        &mut self,
        d: u32,
        decoder: &mut dyn Decoder,
        scratch: &mut DecodeScratch,
    ) -> Prediction {
        let slot = &mut self.hw1[d as usize];
        match slot {
            Some(p) => *p,
            None => {
                let p = decoder.decode_with_scratch(&[d], scratch);
                *slot = Some(p);
                p
            }
        }
    }

    /// The decoder's prediction for the weight-2 syndrome `{a, b}`
    /// (`a < b`, as extracted in ascending detector order).
    #[inline]
    pub fn pair(
        &mut self,
        a: u32,
        b: u32,
        decoder: &mut dyn Decoder,
        scratch: &mut DecodeScratch,
    ) -> Prediction {
        debug_assert!(a < b);
        let key = (a as u64) << 32 | b as u64;
        match self.hw2.get(&key) {
            Some(p) => *p,
            None => {
                let p = decoder.decode_with_scratch(&[a, b], scratch);
                self.hw2.insert(key, p);
                p
            }
        }
    }
}

/// Smallest Hamming weight the [`HardSyndromeCache`] memoizes. Below
/// this the GWT-direct closed form decides the shot in registers for
/// less than the cost of hashing the key.
pub const HARD_CACHE_MIN_HW: usize = 5;

/// Largest Hamming weight the [`HardSyndromeCache`] memoizes: 10 sorted
/// detector indices pack exactly into the 12-bit fields of a `u128` key.
///
/// The original cache keyed 16-bit fields and stopped at HW 8, which
/// left most of the subset-DP band (HW 5..=11 at d = 7, p = 5×10⁻³ is
/// dominated by HW 9–11 shots) uncacheable — one reason profiled runs
/// reported zero hits. 12-bit fields cover every surface-code distance
/// in this workspace (d = 9 has 400 detectors; the fields hold 4094)
/// while extending the band through HW 10.
pub const HARD_CACHE_MAX_HW: usize = 10;

/// A bounded memo of hard-shot [`Prediction`]s, keyed by the full sparse
/// detector list.
///
/// Distinct hard syndromes repeat far less often than HW ≤ 2 ones, so
/// unlike [`ScreenCache`] this cache must be *bounded*: it is organized
/// as a 2-way set-associative array with one LRU bit per set, giving
/// O(1) lookup and eviction with no allocation after construction. Keys
/// pack the sorted detector list (each index stored as `d + 1` in a
/// 12-bit field, so the all-zero key never collides with a real
/// syndrome) for Hamming weights [`HARD_CACHE_MIN_HW`]`..=`
/// [`HARD_CACHE_MAX_HW`].
///
/// Like the screen cache it fills lazily from the real decoder, so a
/// cached run is bit-identical to an uncached one; only the time to
/// produce a repeated prediction changes. Keep one per worker thread —
/// hit rates are workload-dependent, and that is a property of the
/// *stream*, not a cache defect: on a cold i.i.d. sampled stream the
/// number of distinct probable HW ≥ 5 syndromes dwarfs any bounded
/// window, so near-zero hit rates are expected, while replayed,
/// correlated, or long-running streams hit freely (the repeat-stream
/// regression test in `pipeline` pins this down). Lookups are
/// instrumented and reported per run so the tradeoff stays visible.
#[derive(Debug)]
pub struct HardSyndromeCache {
    /// Packed keys, two ways per set; 0 = empty slot.
    keys: Vec<[u128; 2]>,
    preds: Vec<[Prediction; 2]>,
    /// Per-set way to evict next (flipped on hit/fill).
    lru: Vec<bool>,
    /// `sets.len() - 1` for power-of-two indexing; `usize::MAX` when
    /// disabled.
    mask: usize,
}

impl HardSyndromeCache {
    /// A cache holding at most `entries` predictions (rounded up to a
    /// power of two; two ways per set) over `num_detectors` detectors.
    ///
    /// `entries == 0` disables the cache, as does a detector count too
    /// large for the 12-bit key fields — every lookup then misses
    /// without storing anything.
    pub fn new(entries: usize, num_detectors: usize) -> HardSyndromeCache {
        if entries == 0 || num_detectors >= 0xFFF {
            return HardSyndromeCache {
                keys: Vec::new(),
                preds: Vec::new(),
                lru: Vec::new(),
                mask: usize::MAX,
            };
        }
        let sets = entries.div_ceil(2).next_power_of_two();
        HardSyndromeCache {
            keys: vec![[0; 2]; sets],
            preds: vec![[Prediction::default(); 2]; sets],
            lru: vec![false; sets],
            mask: sets - 1,
        }
    }

    /// Whether lookups can ever hit (nonzero capacity and packable keys).
    pub fn is_enabled(&self) -> bool {
        self.mask != usize::MAX
    }

    /// Number of predictions the cache can hold.
    pub fn capacity(&self) -> usize {
        self.keys.len() * 2
    }

    /// Whether `k` fired detectors are worth caching at all.
    #[inline]
    pub fn caches(&self, k: usize) -> bool {
        self.mask != usize::MAX && (HARD_CACHE_MIN_HW..=HARD_CACHE_MAX_HW).contains(&k)
    }

    /// The packed key for a sorted detector list (distinct lists map to
    /// distinct keys; never 0).
    #[inline]
    fn key(dets: &[u32]) -> u128 {
        let mut key = 0u128;
        for (slot, &d) in dets.iter().enumerate() {
            debug_assert!(d < 0xFFF);
            key |= ((d as u128) + 1) << (12 * slot);
        }
        key
    }

    /// The set index for `key`, by Fibonacci-hashing the folded halves.
    #[inline]
    fn set_of(&self, key: u128) -> usize {
        let folded = (key as u64) ^ ((key >> 64) as u64);
        let h = folded.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) ^ h) as usize & self.mask
    }

    /// The decoder's prediction for the hard syndrome `dets` (sorted
    /// ascending), consulting the cache when the weight is cacheable.
    ///
    /// Returns the prediction and whether it was served from the cache;
    /// a miss calls the decoder once and (if cacheable) fills the
    /// set's LRU way.
    #[inline]
    pub fn get_or_decode(
        &mut self,
        dets: &[u32],
        decoder: &mut dyn Decoder,
        scratch: &mut DecodeScratch,
    ) -> (Prediction, bool) {
        if !self.caches(dets.len()) {
            return (decoder.decode_with_scratch(dets, scratch), false);
        }
        let key = Self::key(dets);
        let set = self.set_of(key);
        for way in 0..2 {
            if self.keys[set][way] == key {
                // Protect the hit way: mark the other one for eviction.
                self.lru[set] = way == 0;
                return (self.preds[set][way], true);
            }
        }
        let p = decoder.decode_with_scratch(dets, scratch);
        let way = usize::from(self.lru[set]);
        self.keys[set][way] = key;
        self.preds[set][way] = p;
        self.lru[set] = way == 0;
        (p, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AstreaDecoder;
    use blossom_mwpm::MwpmDecoder;
    use decoding_graph::DecodingContext;
    use qec_circuit::NoiseModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use surface_code::SurfaceCode;

    fn check_cache_replay(
        num_detectors: usize,
        mut cached: Box<dyn Decoder + '_>,
        mut direct: Box<dyn Decoder + '_>,
    ) {
        let mut scratch = DecodeScratch::new();
        let mut cache = ScreenCache::new(num_detectors);
        let n = num_detectors as u32;
        for d in 0..n {
            // Twice: once filling, once replaying from the memo.
            for _ in 0..2 {
                let p = cache.single(d, cached.as_mut(), &mut scratch);
                assert_eq!(p, direct.decode(&[d]), "hw1 {d}");
            }
        }
        for a in 0..n.min(8) {
            for b in (a + 1)..n.min(8) {
                for _ in 0..2 {
                    let p = cache.pair(a, b, cached.as_mut(), &mut scratch);
                    assert_eq!(p, direct.decode(&[a, b]), "hw2 ({a},{b})");
                }
            }
        }
    }

    #[test]
    fn hard_cache_replays_decoder_predictions_exactly() {
        let code = SurfaceCode::new(5).unwrap();
        let ctx = DecodingContext::for_memory_experiment(&code, NoiseModel::depolarizing(1e-3));
        let n = ctx.dem().num_detectors() as u32;
        let mut cached = MwpmDecoder::new(ctx.gwt());
        let mut direct = MwpmDecoder::new(ctx.gwt());
        let mut scratch = DecodeScratch::new();
        let mut cache = HardSyndromeCache::new(64, n as usize);
        assert!(cache.is_enabled());
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let k = rng.gen_range(HARD_CACHE_MIN_HW..=HARD_CACHE_MAX_HW);
            let mut dets: Vec<u32> = Vec::new();
            while dets.len() < k {
                let d = rng.gen_range(0..n);
                if !dets.contains(&d) {
                    dets.push(d);
                }
            }
            dets.sort_unstable();
            let (p, _) = cache.get_or_decode(&dets, &mut cached, &mut scratch);
            assert_eq!(p, direct.decode(&dets));
            // Immediate repeat must hit and replay the same prediction.
            let (p2, hit) = cache.get_or_decode(&dets, &mut cached, &mut scratch);
            assert!(hit);
            assert_eq!(p2, p);
        }
    }

    #[test]
    fn hard_cache_skips_uncacheable_weights_and_disabled_instances() {
        let code = SurfaceCode::new(3).unwrap();
        let ctx = DecodingContext::for_memory_experiment(&code, NoiseModel::depolarizing(1e-3));
        let mut decoder = MwpmDecoder::new(ctx.gwt());
        let mut scratch = DecodeScratch::new();

        let mut enabled = HardSyndromeCache::new(16, ctx.dem().num_detectors());
        assert!(!enabled.caches(HARD_CACHE_MIN_HW - 1));
        assert!(!enabled.caches(HARD_CACHE_MAX_HW + 1));
        let low: Vec<u32> = (0..HARD_CACHE_MIN_HW as u32 - 1).collect();
        let (_, hit) = enabled.get_or_decode(&low, &mut decoder, &mut scratch);
        assert!(!hit);
        let (_, hit) = enabled.get_or_decode(&low, &mut decoder, &mut scratch);
        assert!(!hit, "below-threshold weights must never be stored");

        let mut disabled = HardSyndromeCache::new(0, ctx.dem().num_detectors());
        assert!(!disabled.is_enabled());
        assert_eq!(disabled.capacity(), 0);
        let dets: Vec<u32> = (0..HARD_CACHE_MIN_HW as u32).collect();
        for _ in 0..2 {
            let (p, hit) = disabled.get_or_decode(&dets, &mut decoder, &mut scratch);
            assert!(!hit);
            assert_eq!(p, decoder.decode(&dets));
        }
    }

    #[test]
    fn hard_cache_evicts_within_bounds() {
        // A 1-entry request rounds to one set × two ways; hammering many
        // distinct syndromes must stay bounded and keep replaying
        // correct predictions whether it hits or misses.
        let code = SurfaceCode::new(5).unwrap();
        let ctx = DecodingContext::for_memory_experiment(&code, NoiseModel::depolarizing(1e-3));
        let n = ctx.dem().num_detectors() as u32;
        let mut decoder = MwpmDecoder::new(ctx.gwt());
        let mut direct = MwpmDecoder::new(ctx.gwt());
        let mut scratch = DecodeScratch::new();
        let mut cache = HardSyndromeCache::new(1, n as usize);
        assert_eq!(cache.capacity(), 2);
        for start in 0..40u32 {
            let dets: Vec<u32> = (start..start + HARD_CACHE_MIN_HW as u32).collect();
            let (p, _) = cache.get_or_decode(&dets, &mut decoder, &mut scratch);
            assert_eq!(p, direct.decode(&dets), "start {start}");
        }
    }

    #[test]
    fn cache_replays_decoder_predictions_exactly() {
        let code = SurfaceCode::new(3).unwrap();
        let ctx = DecodingContext::for_memory_experiment(&code, NoiseModel::depolarizing(1e-3));
        let n = ctx.dem().num_detectors();
        check_cache_replay(
            n,
            Box::new(MwpmDecoder::new(ctx.gwt())),
            Box::new(MwpmDecoder::new(ctx.gwt())),
        );
        check_cache_replay(
            n,
            Box::new(AstreaDecoder::new(ctx.gwt())),
            Box::new(AstreaDecoder::new(ctx.gwt())),
        );
    }
}
