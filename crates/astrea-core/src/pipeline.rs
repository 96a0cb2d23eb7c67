//! Streaming sampler→decoder pipeline over packed syndrome tiles.
//!
//! The barrier path (`sample → SyndromeBatch → decode`) materializes
//! every shot as a sparse detector list before any decoder runs, and
//! sampling finishes before decoding starts. This module streams instead:
//! producer threads emit fixed-size packed [`SyndromeTile`]s over a
//! bounded channel, and consumers pull tiles as they arrive, screen them
//! word-parallel (the bit-sliced adder of
//! [`TileScreen`](crate::screen::TileScreen), fused inline with
//! extraction into one pass over the packed columns), and only
//! build sparse lists for shots of Hamming weight ≥ 3 ([`decode_tile`]).
//! Sampling and decoding overlap end-to-end, and the ~99% of shots that
//! are trivial or HW ≤ 2 at low physical error rate never touch a batch
//! structure at all.
//!
//! # The packed easy tier
//!
//! Shots stay bit-packed *through decode*, not just through screening,
//! for every tier that admits it:
//!
//! * **Trivial** shots are popcounted; their failures read off a
//!   word-parallel OR of the observable rows.
//! * **HW-1** shots are decided per *distinct syndrome key per word*,
//!   not per lane: during the extraction sweep the lane mask
//!   `row(d)[w] & hw1_mask` names every shot of the word whose only
//!   fired detector is `d`, so one [`ScreenCache`] lookup covers them
//!   all. **HW-2** shots collect their two detectors in the same lane
//!   buckets as hard shots and take one [`ScreenCache`] probe each
//!   after the sweep (distinct pair keys per word are ~98–100 % of HW-2
//!   shots on sampled and replayed streams, so grouping them saved
//!   nothing). Both tiers accumulate predictions as per-observable-bit
//!   planes, and failures fall out of one XOR + popcount against the
//!   packed observable rows — no per-lane `actual` gather. The
//!   [`PipelineCounters`] `hw1_key_lookups`/`hw2_key_lookups` fields
//!   count the cache probes.
//! * **Closed forms (HW 3–4)** are grouped per tile by weight and
//!   dispatched through [`Decoder::decode_same_weight_batch`]. On the
//!   exact weight table the MWPM decoder uses it to gather every shot's
//!   operands contiguously before solving; every other decoder and
//!   weight view decodes the batch shot by shot.
//! * The word sweeps themselves (ripple adder, observable OR-fold,
//!   bucket extraction) run over 4-word chunks (`[u64; 4]` lanes that
//!   stable rustc autovectorizes) with the `det.row(d)` slice hoisted
//!   out of the per-word loop.
//!
//! The per-lane path this replaces is retained as
//! [`decode_tile_reference`] and exercised by the differential tests:
//! both paths must agree bit-for-bit on predictions, accounting, and the
//! shot-partition counters.
//!
//! # Exactness
//!
//! The streamed path reproduces the barrier path *bit-identically*, for
//! every tile size, producer count, and consumer count:
//!
//! * tiles inherit the `column_seed` contract (see `qec_circuit::tiles`),
//!   so the sampled shot stream is one fixed function of `(seed, shot)`;
//! * every per-shot quantity the barrier path accounts (Hamming weight,
//!   predicted observables, modeled cycles, deferral) is reproduced
//!   exactly — trivial shots by word-parallel counting, HW ≤ 2 shots by
//!   replaying the decoder through a [`ScreenCache`], hard shots by the
//!   same `decode_with_scratch` call (batched closed forms must match it
//!   by the [`Decoder::decode_same_weight_batch`] contract);
//! * all accounting ([`StreamOutcome`], [`LatencyStats`]) is sums and
//!   maxima, so any interleaving of tiles across consumers merges to the
//!   same totals.
//!
//! Consumers share one [`TileQueue`], so a tile is decoded by whichever
//! worker is free — there is no static shot-to-worker assignment to
//! imbalance. The cost is that per-shot predictions are not returned in
//! order (use [`decode_slice`](crate::batch::decode_slice), or
//! [`decode_tile_with_predictions`] tile by tile, when predictions
//! matter); LER estimation only needs the totals.

use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex};

use crate::latency::LatencyStats;
use crate::screen::{HardSyndromeCache, ScreenCache};
use decoding_graph::{
    DecodeScratch, Decoder, GraphPdStats, LocalWeightStats, OndemandStats, Prediction,
};
use qec_circuit::{BitTable, SyndromeTile};

/// Default tile size in packed words (8192 shots): large enough to
/// amortize channel traffic, small enough that a tile's detector table
/// stays cache-resident through screening and extraction.
pub const DEFAULT_TILE_WORDS: usize = 128;

/// Default bound on the tile channel: producers run at most this many
/// tiles ahead of the consumers, capping pipeline memory at
/// `depth + producers + consumers` tiles in flight.
pub const DEFAULT_CHANNEL_DEPTH: usize = 8;

/// Default per-worker capacity of the hard-syndrome prediction cache
/// (predictions, not bytes; ~40 bytes each). Sized to stay L2-resident.
/// On cold i.i.d. sampled streams distinct hard syndromes dominate and
/// hits stay near zero whatever the size — that is a workload property,
/// not a defect — but replayed, correlated, or long-running streams hit
/// in proportion to the retention window, so the default keeps 4k
/// predictions (≈4× the pre-widening size, matching the HW ≤ 10 band).
pub const DEFAULT_HARD_CACHE_ENTRIES: usize = 4096;

/// Largest Hamming weight the `MwpmDecoder` still routes to the subset
/// DP; everything above goes to blossom. Mirrors
/// [`blossom_mwpm::DP_NODE_LIMIT`] — the counters classify hard shots
/// by the band they land in.
const DP_BAND_MAX: usize = blossom_mwpm::DP_NODE_LIMIT;

/// Words per chunk of the widened sweeps: classification, observable
/// OR-fold, and extraction process `[u64; CHUNK_WORDS]` lanes at a time
/// (256 shots), sized so stable rustc autovectorizes the lane loops.
const CHUNK_WORDS: usize = 4;

/// Per-stage shot counters for the screened decode path: how many shots
/// each stage of the hard-shot fast path absorbed.
///
/// Kept separate from [`LatencyStats`] / [`StreamOutcome`] on purpose:
/// those are part of the bit-identity contract between the streamed and
/// barrier paths (compared with `==` in tests and the harness), while
/// these counters describe *stages that only exist on the streamed
/// path*. They accumulate in the worker's [`TileScratch`] and are
/// summed across workers by the harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineCounters {
    /// Shots classified by the word-parallel screen (every shot).
    pub shots_screened: u64,
    /// Shots with an all-zero syndrome (counted, never materialized).
    pub trivial_shots: u64,
    /// Shots decided by the HW-1 lookup cache.
    pub hw1_shots: u64,
    /// Shots decided by the HW-2 lookup cache.
    pub hw2_shots: u64,
    /// Hard shots (HW 3–4) decided by the GWT-direct closed form.
    pub closed_form_shots: u64,
    /// Hard shots served from the [`HardSyndromeCache`].
    pub hard_cache_hits: u64,
    /// Cacheable hard shots that missed and paid a real decode.
    pub hard_cache_misses: u64,
    /// Hard shots decoded by the subset DP band (HW 5..=11, cache
    /// misses included).
    pub dp_shots: u64,
    /// Hard shots beyond the DP band (HW ≥ 12), solved by the sparse
    /// scratch-reusing blossom solver on the arena path.
    pub sparse_blossom_shots: u64,
    /// Distinct HW-1 syndrome keys the packed easy tier resolved (one
    /// [`ScreenCache`] probe may cover many lanes of a word). Zero on
    /// the per-lane [`decode_tile_reference`] path; diagnostic only —
    /// excluded from the shot-partition identity.
    pub hw1_key_lookups: u64,
    /// HW-2 [`ScreenCache`] probes the packed easy tier made: one per
    /// HW-2 shot, so this equals `hw2_shots`. Zero on the per-lane
    /// reference path.
    pub hw2_key_lookups: u64,
    /// Work counters of the on-demand deep-tail staging engine
    /// (GWT-free backends only; idle on the GWT path). Diagnostic —
    /// excluded from the shot-partition identity.
    pub ondemand: OndemandStats,
    /// Work counters of the local weight provider's staged path
    /// (GWT-free backends only; idle on the GWT path). Diagnostic —
    /// excluded from the shot-partition identity.
    pub local_weights: LocalWeightStats,
    /// Work counters of the graph-native primal-dual deep-tail engine,
    /// the default `DeepBackend::GraphPd` (GWT-free backends only; idle
    /// on the GWT path or when another deep backend is pinned).
    /// Diagnostic — excluded from the shot-partition identity.
    pub graphpd: GraphPdStats,
}

impl PipelineCounters {
    /// Folds another worker's counters in (order-independent).
    pub fn merge(&mut self, other: &PipelineCounters) {
        self.shots_screened += other.shots_screened;
        self.trivial_shots += other.trivial_shots;
        self.hw1_shots += other.hw1_shots;
        self.hw2_shots += other.hw2_shots;
        self.closed_form_shots += other.closed_form_shots;
        self.hard_cache_hits += other.hard_cache_hits;
        self.hard_cache_misses += other.hard_cache_misses;
        self.dp_shots += other.dp_shots;
        self.sparse_blossom_shots += other.sparse_blossom_shots;
        self.hw1_key_lookups += other.hw1_key_lookups;
        self.hw2_key_lookups += other.hw2_key_lookups;
        self.ondemand.merge(&other.ondemand);
        self.local_weights.merge(&other.local_weights);
        self.graphpd.merge(&other.graphpd);
    }

    /// The nine shot-accounting fields as one array — everything except
    /// the packed-path key-resolution diagnostics. The packed and
    /// per-lane reference paths must agree on exactly these.
    pub fn shot_partition(&self) -> [u64; 9] {
        [
            self.shots_screened,
            self.trivial_shots,
            self.hw1_shots,
            self.hw2_shots,
            self.closed_form_shots,
            self.hard_cache_hits,
            self.hard_cache_misses,
            self.dp_shots,
            self.sparse_blossom_shots,
        ]
    }

    /// Sum of the per-tier shot counters; equals [`shots_screened`]
    /// (`dp_shots` already includes the hard-cache misses, so misses are
    /// not added separately).
    ///
    /// [`shots_screened`]: PipelineCounters::shots_screened
    pub fn tier_sum(&self) -> u64 {
        self.trivial_shots
            + self.hw1_shots
            + self.hw2_shots
            + self.closed_form_shots
            + self.hard_cache_hits
            + self.dp_shots
            + self.sparse_blossom_shots
    }
}

/// Creates the bounded tile channel connecting producers to consumers.
pub fn tile_channel(depth: usize) -> (SyncSender<SyndromeTile>, Receiver<SyndromeTile>) {
    mpsc::sync_channel(depth.max(1))
}

/// The consumer end of a tile channel, shareable across decode workers.
///
/// Workers pull tiles whenever they finish one — dynamic load balancing
/// with no assignment step. The queue yields `None` once every producer
/// has dropped its sender and the channel drained.
#[derive(Clone)]
pub struct TileQueue {
    shared: Arc<Mutex<Receiver<SyndromeTile>>>,
}

impl TileQueue {
    /// Wraps a channel receiver for shared consumption.
    pub fn new(tiles: Receiver<SyndromeTile>) -> TileQueue {
        TileQueue {
            shared: Arc::new(Mutex::new(tiles)),
        }
    }

    /// Blocks for the next tile; `None` when the stream is exhausted.
    pub fn next_tile(&self) -> Option<SyndromeTile> {
        self.shared.lock().expect("tile queue poisoned").recv().ok()
    }
}

/// The accounting produced by streaming tiles through a decoder: exactly
/// the totals `estimate_ler` needs, without per-shot predictions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Latency statistics over every consumed shot (trivial included).
    pub stats: LatencyStats,
    /// Shots whose predicted observable mask missed the actual one.
    pub failures: u64,
    /// Shots the decoder declined to decode in real time.
    pub deferred: u64,
}

impl StreamOutcome {
    /// Folds another partial outcome in (order-independent).
    pub fn merge(&mut self, other: &StreamOutcome) {
        self.stats.merge(&other.stats);
        self.failures += other.failures;
        self.deferred += other.deferred;
    }
}

/// One hard shot staged for HW-sorted dispatch: its detector list lives
/// in the scratch's flat arena at `dets_start..dets_start + hw`,
/// `actual` is the shot's true observable-flip mask, and `shot` is its
/// index within the tile (for routing per-shot predictions).
#[derive(Debug, Clone, Copy)]
struct HardShot {
    dets_start: u32,
    hw: u32,
    actual: u32,
    shot: u32,
}

/// Number of Hamming-weight dispatch buckets; the last one collects the
/// whole tail.
const HW_DISPATCH_BUCKETS: usize = 16;

/// The warm decoding context of a [`TileScratch`]: the lazy HW ≤ 2
/// [`ScreenCache`] and the bounded [`HardSyndromeCache`], built for one
/// detector count.
#[derive(Debug)]
struct ScreenContext {
    cache: ScreenCache,
    hard_cache: HardSyndromeCache,
}

/// Reusable per-worker scratch for tile decoding: the [`ScreenCache`] +
/// [`HardSyndromeCache`] context (rebuilt when a tile's detector count
/// differs from the one it was built for), the flat hard-shot staging
/// arena, the closed-form batch buffers, and the per-stage
/// [`PipelineCounters`].
/// (Screening itself is fused into [`decode_tile`]'s word loop and needs
/// no buffers — see [`TileScreen`](crate::screen::TileScreen) for the
/// standalone reference implementation.)
///
/// Keep one per consumer thread and decoding context; the caches warm
/// and the counters accumulate across tiles and batches.
#[derive(Debug)]
pub struct TileScratch {
    /// The warm screen/hard-cache context (`None` before the first tile).
    context: Option<ScreenContext>,
    hard_cache_entries: usize,
    /// Per-lane detector lists for the chunk being extracted
    /// (`CHUNK_WORDS × 64` lanes).
    buckets: Vec<Vec<u32>>,
    /// Flat arena of hard-shot detector lists for the tile in flight —
    /// one growable buffer reused across words and tiles instead of
    /// per-word allocations.
    hard_dets: Vec<u32>,
    /// Hard shots staged for dispatch, indexing into `hard_dets`.
    hard_shots: Vec<HardShot>,
    /// Dispatch order: indices into `hard_shots`, bucketed by Hamming
    /// weight so same-weight shots decode back-to-back.
    by_hw: Vec<Vec<u32>>,
    /// Concatenated same-weight detector lists staged for one
    /// [`Decoder::decode_same_weight_batch`] call.
    cf_dets: Vec<u32>,
    /// Prediction slots for the staged closed-form batch.
    cf_preds: Vec<Prediction>,
    counters: PipelineCounters,
    /// Weight-backend counter totals at the last harvest: the decoder
    /// and decode scratch accumulate across the worker's whole life, so
    /// each tile's contribution is the delta against these snapshots.
    last_ondemand: OndemandStats,
    last_local: LocalWeightStats,
    last_graphpd: GraphPdStats,
}

impl Default for TileScratch {
    fn default() -> TileScratch {
        TileScratch::with_hard_cache(DEFAULT_HARD_CACHE_ENTRIES)
    }
}

impl TileScratch {
    /// Empty scratch; buffers and caches size to the first tile decoded.
    pub fn new() -> TileScratch {
        TileScratch::default()
    }

    /// Empty scratch whose hard-syndrome cache holds at most `entries`
    /// predictions (0 disables it).
    pub fn with_hard_cache(entries: usize) -> TileScratch {
        TileScratch {
            context: None,
            hard_cache_entries: entries,
            buckets: Vec::new(),
            hard_dets: Vec::new(),
            hard_shots: Vec::new(),
            by_hw: Vec::new(),
            cf_dets: Vec::new(),
            cf_preds: Vec::new(),
            counters: PipelineCounters::default(),
            last_ondemand: OndemandStats::default(),
            last_local: LocalWeightStats::default(),
            last_graphpd: GraphPdStats::default(),
        }
    }

    /// The warmed HW ≤ 2 prediction cache (`None` before the first
    /// tile).
    pub fn cache(&self) -> Option<&ScreenCache> {
        self.context.as_ref().map(|c| &c.cache)
    }

    /// Per-stage counters accumulated over every tile this scratch
    /// decoded.
    pub fn counters(&self) -> &PipelineCounters {
        &self.counters
    }

    /// Builds the context for `num_detectors` unless the current one
    /// already serves that detector count.
    fn touch_context(&mut self, num_detectors: usize) {
        if self
            .context
            .as_ref()
            .is_some_and(|c| c.cache.num_detectors() == num_detectors)
        {
            return;
        }
        self.context = Some(ScreenContext {
            cache: ScreenCache::new(num_detectors),
            hard_cache: HardSyndromeCache::new(self.hard_cache_entries, num_detectors),
        });
    }
}

/// Screens and decodes one packed tile, folding the accounting into
/// `out`.
///
/// Classification and extraction are **fused into one pass over the
/// packed columns**, widened to [`CHUNK_WORDS`]-word chunks: per chunk,
/// a register-resident bit-sliced ripple add over `[u64; 4]` lanes
/// classifies 256 shots by Hamming weight (the same adder as
/// [`TileScreen`](crate::screen::TileScreen), without its buffers), and
/// the extraction micro-sweep immediately re-reads the same columns —
/// still L1-hot — with the `det.row(d)` slice hoisted out of the word
/// loop. Trivial shots are popcounted (their failures read off a
/// word-level observable OR) without being materialized.
///
/// HW ≤ 2 shots never leave the packed domain: each distinct HW-1 key is
/// resolved once per word through the scratch's [`ScreenCache`] and
/// applied to its whole lane mask, each HW-2 lane takes one cache probe
/// after the sweep, and failures accumulate as per-observable-bit
/// prediction planes XORed against the packed observable rows (see the
/// module docs). HW ≥ 3 shots are staged into
/// a flat arena and dispatched *after* the sweep in ascending
/// Hamming-weight order: HW 3–4 as per-weight batches through
/// [`Decoder::decode_same_weight_batch`], cacheable DP weights through
/// the [`HardSyndromeCache`], then the deep tail.
///
/// Every prediction still comes from the decoder itself (caches only
/// replay it, batches must match `decode_with_scratch` by contract) and
/// all accounting is sums and maxima, so the result is bit-identical to
/// pushing the tile through a [`SyndromeBatch`](crate::SyndromeBatch)
/// and [`decode_slice`](crate::batch::decode_slice) — dispatch order and
/// cache hits never show through. The per-lane
/// [`decode_tile_reference`] path checks this in the differential
/// tests.
pub fn decode_tile(
    decoder: &mut dyn Decoder,
    scratch: &mut DecodeScratch,
    tile_scratch: &mut TileScratch,
    tile: &SyndromeTile,
    out: &mut StreamOutcome,
) {
    decode_tile_inner(decoder, scratch, tile_scratch, tile, out, None);
}

/// [`decode_tile`], additionally writing each shot's [`Prediction`] into
/// `predictions` by its index within the tile — the serving path's entry
/// point, where callers need per-shot corrections routed back to clients
/// rather than aggregate totals only.
///
/// Trivial shots receive [`Prediction::identity`]; every other slot is
/// the decoder's own prediction (caches only replay it), so
/// `predictions[i]` is bit-identical to what
/// [`decode_slice`](crate::batch::decode_slice) would have produced for
/// the same shot. The packed HW-1 tier fans one per-key resolution out
/// to every matching lane's slot. The aggregate accounting in `out` is
/// unchanged from [`decode_tile`].
///
/// # Panics
///
/// Panics if `predictions.len() != tile.num_shots()`.
pub fn decode_tile_with_predictions(
    decoder: &mut dyn Decoder,
    scratch: &mut DecodeScratch,
    tile_scratch: &mut TileScratch,
    tile: &SyndromeTile,
    out: &mut StreamOutcome,
    predictions: &mut [Prediction],
) {
    assert_eq!(
        predictions.len(),
        tile.num_shots(),
        "prediction buffer does not match tile shot count"
    );
    decode_tile_inner(decoder, scratch, tile_scratch, tile, out, Some(predictions));
}

fn decode_tile_inner(
    decoder: &mut dyn Decoder,
    scratch: &mut DecodeScratch,
    tile_scratch: &mut TileScratch,
    tile: &SyndromeTile,
    out: &mut StreamOutcome,
    mut predictions: Option<&mut [Prediction]>,
) {
    let det = tile.detectors();
    let obs = tile.observables();
    if tile.num_shots() == 0 {
        return;
    }
    tile_scratch.touch_context(det.num_bits());
    let TileScratch {
        context,
        buckets,
        hard_dets,
        hard_shots,
        by_hw,
        cf_dets,
        cf_preds,
        counters,
        last_ondemand,
        last_local,
        last_graphpd,
        ..
    } = tile_scratch;
    let ScreenContext { cache, hard_cache } = context.as_mut().expect("context built above");
    buckets.resize_with(CHUNK_WORDS * 64, Vec::new);
    by_hw.resize_with(HW_DISPATCH_BUCKETS, Vec::new);
    hard_dets.clear();
    hard_shots.clear();
    for bucket in by_hw.iter_mut() {
        bucket.clear();
    }
    counters.shots_screened += tile.num_shots() as u64;

    let words = det.num_words();
    let mut c = 0;
    while c < words {
        let len = (words - c).min(CHUNK_WORDS);
        decode_chunk(
            decoder,
            scratch,
            cache,
            buckets,
            hard_dets,
            hard_shots,
            by_hw,
            counters,
            out,
            &mut predictions,
            det,
            obs,
            c,
            len,
        );
        c += len;
    }

    // Hard dispatch, one Hamming-weight band at a time.
    for (band, bucket) in by_hw.iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        if band <= 4 {
            // GWT-direct closed forms, batched: every shot in this band
            // has exactly `band` detectors (the bucket index saturates
            // only at the tail band), so one same-weight batch call lets
            // an exact-table decoder gather the operands contiguously.
            let k = band;
            cf_dets.clear();
            for &idx in bucket.iter() {
                let shot = &hard_shots[idx as usize];
                cf_dets.extend_from_slice(&hard_dets[shot.dets_start as usize..][..k]);
            }
            cf_preds.clear();
            cf_preds.resize(bucket.len(), Prediction::identity());
            decoder.decode_same_weight_batch(k, cf_dets, cf_preds, scratch);
            counters.closed_form_shots += bucket.len() as u64;
            for (&idx, &p) in bucket.iter().zip(cf_preds.iter()) {
                let shot = hard_shots[idx as usize];
                if let Some(preds) = predictions.as_deref_mut() {
                    preds[shot.shot as usize] = p;
                }
                out.stats.record(k, p.cycles);
                out.deferred += u64::from(p.deferred);
                out.failures += u64::from(p.observables != shot.actual);
            }
            continue;
        }
        for &idx in bucket.iter() {
            let shot = hard_shots[idx as usize];
            let k = shot.hw as usize;
            let dets = &hard_dets[shot.dets_start as usize..shot.dets_start as usize + k];
            let p = if hard_cache.caches(k) {
                let (p, hit) = hard_cache.get_or_decode(dets, decoder, scratch);
                if hit {
                    counters.hard_cache_hits += 1;
                } else {
                    counters.hard_cache_misses += 1;
                    counters.dp_shots += 1;
                }
                p
            } else {
                if k <= DP_BAND_MAX {
                    counters.dp_shots += 1;
                } else {
                    counters.sparse_blossom_shots += 1;
                }
                decoder.decode_with_scratch(dets, scratch)
            };
            if let Some(preds) = predictions.as_deref_mut() {
                preds[shot.shot as usize] = p;
            }
            out.stats.record(k, p.cycles);
            out.deferred += u64::from(p.deferred);
            out.failures += u64::from(p.observables != shot.actual);
        }
    }

    // Attribute the weight-backend work this tile triggered: the decode
    // scratch and the decoder's provider count cumulatively across the
    // worker's life, so the tile's share is the delta since the last
    // harvest.
    let od = scratch.ondemand.stats;
    counters.ondemand.merge(&od.delta_since(last_ondemand));
    *last_ondemand = od;
    let gp = scratch.graphpd.stats;
    counters.graphpd.merge(&gp.delta_since(last_graphpd));
    *last_graphpd = gp;
    if let Some(lw) = decoder.local_weight_stats() {
        counters.local_weights.merge(&lw.delta_since(last_local));
        *last_local = lw;
    }
}

/// Screens and decodes one `len ≤ CHUNK_WORDS`-word chunk of a tile:
/// wide classification, packed easy-tier resolution, hard-shot staging.
#[allow(clippy::too_many_arguments)]
fn decode_chunk(
    decoder: &mut dyn Decoder,
    scratch: &mut DecodeScratch,
    cache: &mut ScreenCache,
    buckets: &mut [Vec<u32>],
    hard_dets: &mut Vec<u32>,
    hard_shots: &mut Vec<HardShot>,
    by_hw: &mut [Vec<u32>],
    counters: &mut PipelineCounters,
    out: &mut StreamOutcome,
    predictions: &mut Option<&mut [Prediction]>,
    det: &BitTable,
    obs: &BitTable,
    c: usize,
    len: usize,
) {
    debug_assert!((1..=CHUNK_WORDS).contains(&len));
    let num_dets = det.num_bits();
    let num_obs = obs.num_bits();

    // Wide classification: one register-resident bit-sliced 2-bit
    // ripple add over the chunk's detector columns, all lanes at once.
    // This is the only cache-cold traversal of the columns — the
    // extraction sweep below rereads them from L1.
    let mut ones = [0u64; CHUNK_WORDS];
    let mut twos = [0u64; CHUNK_WORDS];
    let mut fours = [0u64; CHUNK_WORDS];
    if len == CHUNK_WORDS {
        // Full chunks take the fixed-width path so the lane loop
        // autovectorizes; the ragged tail below is at most one chunk.
        for d in 0..num_dets {
            let bits = <&[u64; CHUNK_WORDS]>::try_from(&det.row(d)[c..c + CHUNK_WORDS]).unwrap();
            for i in 0..CHUNK_WORDS {
                let carry1 = ones[i] & bits[i];
                ones[i] ^= bits[i];
                let carry2 = twos[i] & carry1;
                twos[i] ^= carry1;
                fours[i] |= carry2;
            }
        }
    } else {
        for d in 0..num_dets {
            for (i, &bits) in det.row(d)[c..c + len].iter().enumerate() {
                let carry1 = ones[i] & bits;
                ones[i] ^= bits;
                let carry2 = twos[i] & carry1;
                twos[i] ^= carry1;
                fours[i] |= carry2;
            }
        }
    }

    // Word-parallel observable OR-fold, chunk-wide: a trivial shot fails
    // iff any observable flipped with no syndrome.
    let mut obs_any = [0u64; CHUNK_WORDS];
    if len == CHUNK_WORDS {
        for b in 0..num_obs {
            let bits = <&[u64; CHUNK_WORDS]>::try_from(&obs.row(b)[c..c + CHUNK_WORDS]).unwrap();
            for i in 0..CHUNK_WORDS {
                obs_any[i] |= bits[i];
            }
        }
    } else {
        for b in 0..num_obs {
            for (i, &bits) in obs.row(b)[c..c + len].iter().enumerate() {
                obs_any[i] |= bits;
            }
        }
    }

    // Per-word tier masks, trivial accounting, and lane-bucket reset.
    let mut hw1 = [0u64; CHUNK_WORDS];
    let mut hw2 = [0u64; CHUNK_WORDS];
    let mut hard = [0u64; CHUNK_WORDS];
    let mut listed = [0u64; CHUNK_WORDS];
    let mut sweep = [0u64; CHUNK_WORDS];
    let mut need_sweep = false;
    for i in 0..len {
        let valid = det.valid_lanes(c + i);
        let nonzero = (ones[i] | twos[i] | fours[i]) & valid;
        hw1[i] = ones[i] & !twos[i] & !fours[i] & valid;
        hw2[i] = twos[i] & !ones[i] & !fours[i] & valid;
        hard[i] = nonzero & !hw1[i] & !hw2[i];
        listed[i] = nonzero & !hw1[i];
        sweep[i] = nonzero;
        need_sweep |= nonzero != 0;

        let trivial = !nonzero & valid;
        let tcount = u64::from(trivial.count_ones());
        out.stats.record_many(0, 0, tcount);
        out.failures += u64::from((trivial & obs_any[i]).count_ones());
        counters.trivial_shots += tcount;
        if let Some(preds) = predictions.as_deref_mut() {
            let mut m = trivial;
            while m != 0 {
                preds[(c + i) * 64 + m.trailing_zeros() as usize] = Prediction::identity();
                m &= m - 1;
            }
        }
        let mut m = listed[i];
        while m != 0 {
            buckets[i * 64 + m.trailing_zeros() as usize].clear();
            m &= m - 1;
        }
    }
    if !need_sweep {
        return;
    }

    // Per-observable-bit prediction planes of the packed easy tier.
    let mut planes = [[0u64; 32]; CHUNK_WORDS];

    // Fused extraction + packed easy resolution: one AND sweep over the
    // detector rows, the whole chunk per row read, row slice hoisted.
    for d in 0..num_dets {
        let row = &det.row(d)[c..c + len];
        let mut any = 0u64;
        for (i, &bits) in row.iter().enumerate() {
            any |= bits & sweep[i];
        }
        if any == 0 {
            continue;
        }
        for (i, &bits) in row.iter().enumerate() {
            // HW-2 and hard lanes: collect this detector into their
            // buckets.
            let mut mh = bits & listed[i];
            while mh != 0 {
                buckets[i * 64 + mh.trailing_zeros() as usize].push(d as u32);
                mh &= mh - 1;
            }

            // HW-1 lanes firing d have syndrome exactly {d}: resolve the
            // key once, apply to the whole lane group.
            let m1 = bits & hw1[i];
            if m1 != 0 {
                let p = cache.single(d as u32, decoder, scratch);
                counters.hw1_key_lookups += 1;
                counters.hw1_shots += u64::from(m1.count_ones());
                apply_packed_prediction(p, m1, 1, c + i, &mut planes[i], out, predictions);
            }
        }
    }

    // Per word: each HW-2 lane takes one cache probe, folded into the
    // planes. Then easy-tier failure accounting, word-parallel: a lane
    // fails iff any observable bit of its applied prediction disagrees
    // with the packed actual row — one XOR + popcount per plane, no
    // per-lane gather. Hard lanes then stage per-lane in (word, lane)
    // order, so the hard-cache access pattern is unchanged.
    for i in 0..len {
        let mut m = hw2[i];
        while m != 0 {
            let lane = m & m.wrapping_neg();
            m &= m - 1;
            let [a, b] = buckets[i * 64 + lane.trailing_zeros() as usize][..] else {
                unreachable!("HW-2 lane without exactly two detectors");
            };
            let p = cache.pair(a, b, decoder, scratch);
            apply_packed_prediction(p, lane, 2, c + i, &mut planes[i], out, predictions);
        }
        let n2 = u64::from(hw2[i].count_ones());
        counters.hw2_key_lookups += n2;
        counters.hw2_shots += n2;

        let easy = hw1[i] | hw2[i];
        if easy != 0 {
            let mut mismatch = 0u64;
            for (b, plane) in planes[i].iter().enumerate() {
                let actual = if b < num_obs { obs.word(b, c + i) } else { 0 };
                mismatch |= plane ^ actual;
            }
            // Observables beyond the plane width can never be predicted;
            // any actual flip there is a mismatch (unreachable for real
            // codes — Prediction caps observables at 32 bits).
            for b in 32..num_obs {
                mismatch |= obs.word(b, c + i);
            }
            out.failures += u64::from((mismatch & easy).count_ones());
        }

        let mut m = hard[i];
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            let dets = &buckets[i * 64 + lane];
            let mut actual = 0u32;
            for b in 0..num_obs {
                actual |= ((obs.word(b, c + i) >> lane & 1) as u32) << b;
            }
            let start = hard_dets.len() as u32;
            hard_dets.extend_from_slice(dets);
            by_hw[dets.len().min(HW_DISPATCH_BUCKETS - 1)].push(hard_shots.len() as u32);
            hard_shots.push(HardShot {
                dets_start: start,
                hw: dets.len() as u32,
                actual,
                shot: ((c + i) * 64 + lane) as u32,
            });
        }
    }
}

/// Applies one resolved easy-tier prediction to every lane in `group`
/// of tile word `word`: accounting by lane count, observable bits
/// scattered into the word's prediction planes, and (when routing
/// per-shot predictions) one store per lane.
fn apply_packed_prediction(
    p: Prediction,
    group: u64,
    hw: usize,
    word: usize,
    planes: &mut [u64; 32],
    out: &mut StreamOutcome,
    predictions: &mut Option<&mut [Prediction]>,
) {
    let n = u64::from(group.count_ones());
    out.stats.record_many(hw, p.cycles, n);
    out.deferred += u64::from(p.deferred) * n;
    let mut ob = p.observables;
    while ob != 0 {
        planes[ob.trailing_zeros() as usize] |= group;
        ob &= ob - 1;
    }
    if let Some(preds) = predictions.as_deref_mut() {
        let mut m = group;
        while m != 0 {
            preds[word * 64 + m.trailing_zeros() as usize] = p;
            m &= m - 1;
        }
    }
}

/// The per-lane reference implementation of [`decode_tile`] /
/// [`decode_tile_with_predictions`] (pass `None` / `Some` predictions):
/// one word at a time, every nontrivial shot peeled into its own
/// bucket, every easy shot resolved by its own cache probe, every
/// closed form decoded by its own `decode_with_scratch` call.
///
/// This is the pre-packing decode path, kept as the differential oracle:
/// the packed path must reproduce its predictions, [`StreamOutcome`],
/// and shot-partition counters bit-for-bit (only the `*_key_lookups`
/// diagnostics differ — they stay zero here). It shares the
/// [`TileScratch`] caches, so mixing the two paths on one worker is
/// also exact. Not used on any hot path.
pub fn decode_tile_reference(
    decoder: &mut dyn Decoder,
    scratch: &mut DecodeScratch,
    tile_scratch: &mut TileScratch,
    tile: &SyndromeTile,
    out: &mut StreamOutcome,
    mut predictions: Option<&mut [Prediction]>,
) {
    if let Some(preds) = predictions.as_deref_mut() {
        assert_eq!(
            preds.len(),
            tile.num_shots(),
            "prediction buffer does not match tile shot count"
        );
    }
    let det = tile.detectors();
    let obs = tile.observables();
    if tile.num_shots() == 0 {
        return;
    }
    tile_scratch.touch_context(det.num_bits());
    let TileScratch {
        context,
        buckets,
        hard_dets,
        hard_shots,
        by_hw,
        counters,
        last_ondemand,
        last_local,
        last_graphpd,
        ..
    } = tile_scratch;
    let ScreenContext { cache, hard_cache } = context.as_mut().expect("context built above");
    buckets.resize_with(CHUNK_WORDS * 64, Vec::new);
    by_hw.resize_with(HW_DISPATCH_BUCKETS, Vec::new);
    hard_dets.clear();
    hard_shots.clear();
    for bucket in by_hw.iter_mut() {
        bucket.clear();
    }
    counters.shots_screened += tile.num_shots() as u64;

    let words = det.num_words();
    for w in 0..words {
        let (mut ones, mut twos, mut fours) = (0u64, 0u64, 0u64);
        for d in 0..det.num_bits() {
            let bits = det.row(d)[w];
            let carry1 = ones & bits;
            ones ^= bits;
            let carry2 = twos & carry1;
            twos ^= carry1;
            fours |= carry2;
        }

        let valid = det.valid_lanes(w);
        let mut obs_any = 0u64;
        for i in 0..obs.num_bits() {
            obs_any |= obs.word(i, w);
        }
        let nonzero = ones | twos | fours;
        let trivial = !nonzero & valid;
        out.stats.record_many(0, 0, u64::from(trivial.count_ones()));
        out.failures += u64::from((trivial & obs_any).count_ones());
        counters.trivial_shots += u64::from(trivial.count_ones());
        if let Some(preds) = predictions.as_deref_mut() {
            let mut m = trivial;
            while m != 0 {
                preds[w * 64 + m.trailing_zeros() as usize] = Prediction::identity();
                m &= m - 1;
            }
        }

        let mask = nonzero & valid;
        if mask == 0 {
            continue;
        }
        let mut m = mask;
        while m != 0 {
            buckets[m.trailing_zeros() as usize].clear();
            m &= m - 1;
        }
        for d in 0..det.num_bits() {
            let mut m = det.row(d)[w] & mask;
            while m != 0 {
                buckets[m.trailing_zeros() as usize].push(d as u32);
                m &= m - 1;
            }
        }

        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            let dets = &buckets[lane];
            let mut actual = 0u32;
            for b in 0..obs.num_bits() {
                actual |= ((obs.word(b, w) >> lane & 1) as u32) << b;
            }
            let p = match dets[..] {
                [d] => {
                    counters.hw1_shots += 1;
                    cache.single(d, decoder, scratch)
                }
                [a, b] => {
                    counters.hw2_shots += 1;
                    cache.pair(a, b, decoder, scratch)
                }
                _ => {
                    let start = hard_dets.len() as u32;
                    hard_dets.extend_from_slice(dets);
                    by_hw[dets.len().min(HW_DISPATCH_BUCKETS - 1)].push(hard_shots.len() as u32);
                    hard_shots.push(HardShot {
                        dets_start: start,
                        hw: dets.len() as u32,
                        actual,
                        shot: (w * 64 + lane) as u32,
                    });
                    continue;
                }
            };
            if let Some(preds) = predictions.as_deref_mut() {
                preds[w * 64 + lane] = p;
            }
            out.stats.record(dets.len(), p.cycles);
            out.deferred += u64::from(p.deferred);
            out.failures += u64::from(p.observables != actual);
        }
    }

    for bucket in by_hw.iter() {
        for &idx in bucket {
            let shot = hard_shots[idx as usize];
            let k = shot.hw as usize;
            let dets = &hard_dets[shot.dets_start as usize..shot.dets_start as usize + k];
            let p = if k <= 4 {
                counters.closed_form_shots += 1;
                decoder.decode_with_scratch(dets, scratch)
            } else if hard_cache.caches(k) {
                let (p, hit) = hard_cache.get_or_decode(dets, decoder, scratch);
                if hit {
                    counters.hard_cache_hits += 1;
                } else {
                    counters.hard_cache_misses += 1;
                    counters.dp_shots += 1;
                }
                p
            } else {
                if k <= DP_BAND_MAX {
                    counters.dp_shots += 1;
                } else {
                    counters.sparse_blossom_shots += 1;
                }
                decoder.decode_with_scratch(dets, scratch)
            };
            if let Some(preds) = predictions.as_deref_mut() {
                preds[shot.shot as usize] = p;
            }
            out.stats.record(k, p.cycles);
            out.deferred += u64::from(p.deferred);
            out.failures += u64::from(p.observables != shot.actual);
        }
    }

    // Same weight-backend harvest as the packed path (diagnostic only —
    // tier routing differs between the paths, so these are not part of
    // the bit-identity contract).
    let od = scratch.ondemand.stats;
    counters.ondemand.merge(&od.delta_since(last_ondemand));
    *last_ondemand = od;
    let gp = scratch.graphpd.stats;
    counters.graphpd.merge(&gp.delta_since(last_graphpd));
    *last_graphpd = gp;
    if let Some(lw) = decoder.local_weight_stats() {
        counters.local_weights.merge(&lw.delta_since(last_local));
        *last_local = lw;
    }
}

/// Drains `queue` through one decoder, returning the aggregate outcome —
/// the consumer loop of the streamed estimators in `astrea-experiments`
/// (direct and stratified Monte-Carlo alike).
pub fn consume_tiles(
    decoder: &mut dyn Decoder,
    scratch: &mut DecodeScratch,
    tile_scratch: &mut TileScratch,
    queue: &TileQueue,
) -> StreamOutcome {
    let mut out = StreamOutcome::default();
    while let Some(tile) = queue.next_tile() {
        decode_tile(decoder, scratch, tile_scratch, &tile, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{decode_slice, SyndromeBatch};
    use crate::AstreaDecoder;
    use blossom_mwpm::MwpmDecoder;
    use decoding_graph::DecodingContext;
    use qec_circuit::tiles::{PackedSyndromeSource, TileLayout};
    use qec_circuit::{BatchDemSampler, NoiseModel};
    use std::sync::Arc;
    use surface_code::SurfaceCode;

    fn ctx(d: usize, p: f64) -> Arc<DecodingContext> {
        let code = SurfaceCode::new(d).unwrap();
        Arc::new(DecodingContext::for_memory_experiment(
            &code,
            NoiseModel::depolarizing(p),
        ))
    }

    /// Barrier reference: same tiles, pushed through a batch and
    /// `decode_slice`.
    fn barrier_reference(ctx: &DecodingContext, shots: usize, seed: u64) -> StreamOutcome {
        let sampler = BatchDemSampler::new(ctx.dem());
        let (det, obs) = sampler.sample(seed, shots);
        let batch = SyndromeBatch::from_packed(&det, &obs);
        let mut decoder = MwpmDecoder::new(ctx.gwt());
        let mut scratch = DecodeScratch::new();
        let s = decode_slice(&mut decoder, &mut scratch, &batch, 0..batch.len());
        StreamOutcome {
            stats: s.stats,
            failures: s.failures,
            deferred: s.deferred,
        }
    }

    #[test]
    fn decode_tile_matches_barrier_for_any_tile_size() {
        let ctx = ctx(3, 8e-3);
        let shots = 700;
        let reference = barrier_reference(&ctx, shots, 5);
        for tile_words in [1usize, 7, 64] {
            let layout = TileLayout::new(shots, tile_words);
            let mut sampler = BatchDemSampler::new(ctx.dem());
            let mut decoder = MwpmDecoder::new(ctx.gwt());
            let mut scratch = DecodeScratch::new();
            let mut ts = TileScratch::new();
            let mut out = StreamOutcome::default();
            for t in 0..layout.num_tiles() {
                let tile = sampler.sample_tile(5, &layout, t);
                decode_tile(&mut decoder, &mut scratch, &mut ts, &tile, &mut out);
            }
            assert_eq!(out, reference, "tile_words {tile_words}");
        }
    }

    #[test]
    fn decode_tile_predictions_match_decode_slice_per_shot() {
        // Per-shot predictions routed out of the fused tile path must be
        // bit-identical to the barrier path's, trivial shots included,
        // for every decoder family (caches only replay the decoder).
        let ctx = ctx(3, 1.5e-2);
        let shots = 450;
        let sampler = BatchDemSampler::new(ctx.dem());
        let (det, obs) = sampler.sample(31, shots);
        let batch = SyndromeBatch::from_packed(&det, &obs);

        for astrea in [false, true] {
            let mut decoder: Box<dyn Decoder> = if astrea {
                Box::new(AstreaDecoder::new(ctx.gwt()))
            } else {
                Box::new(MwpmDecoder::new(ctx.gwt()))
            };
            let mut scratch = DecodeScratch::new();
            let reference = decode_slice(decoder.as_mut(), &mut scratch, &batch, 0..batch.len());

            let layout = TileLayout::new(shots, 3);
            let mut sampler = BatchDemSampler::new(ctx.dem());
            let mut decoder: Box<dyn Decoder> = if astrea {
                Box::new(AstreaDecoder::new(ctx.gwt()))
            } else {
                Box::new(MwpmDecoder::new(ctx.gwt()))
            };
            let mut scratch = DecodeScratch::new();
            let mut ts = TileScratch::new();
            let mut out = StreamOutcome::default();
            let mut preds = Vec::new();
            for t in 0..layout.num_tiles() {
                let tile = sampler.sample_tile(31, &layout, t);
                let mut tile_preds = vec![Prediction::identity(); tile.num_shots()];
                decode_tile_with_predictions(
                    decoder.as_mut(),
                    &mut scratch,
                    &mut ts,
                    &tile,
                    &mut out,
                    &mut tile_preds,
                );
                preds.extend_from_slice(&tile_preds);
            }
            assert_eq!(preds, reference.predictions, "astrea={astrea}");
            assert_eq!(out.stats, reference.stats);
            assert_eq!(out.failures, reference.failures);
            assert_eq!(out.deferred, reference.deferred);
        }
    }

    #[test]
    fn packed_path_matches_per_lane_reference() {
        // The packed path's differential contract, checked in-crate at
        // a rate high enough to exercise every tier: packed easy-tier
        // decode must reproduce the per-lane reference path's
        // predictions, outcome, and shot-partition counters exactly,
        // with HW-1 key lookups bounded by the shots they dedupe and one
        // HW-2 probe per HW-2 shot. (p chosen so the mix spans trivial
        // through the DP band — at 2e-2 the easy tiers are empty at this
        // distance.)
        let ctx = ctx(5, 5e-3);
        let shots = 1800;
        let layout = TileLayout::new(shots, 4);
        let run = |packed: bool| {
            let mut sampler = BatchDemSampler::new(ctx.dem());
            let mut decoder = MwpmDecoder::new(ctx.gwt());
            let mut scratch = DecodeScratch::new();
            let mut ts = TileScratch::new();
            let mut out = StreamOutcome::default();
            let mut preds = Vec::new();
            for t in 0..layout.num_tiles() {
                let tile = sampler.sample_tile(17, &layout, t);
                let mut tile_preds = vec![Prediction::identity(); tile.num_shots()];
                if packed {
                    decode_tile_with_predictions(
                        &mut decoder,
                        &mut scratch,
                        &mut ts,
                        &tile,
                        &mut out,
                        &mut tile_preds,
                    );
                } else {
                    decode_tile_reference(
                        &mut decoder,
                        &mut scratch,
                        &mut ts,
                        &tile,
                        &mut out,
                        Some(&mut tile_preds),
                    );
                }
                preds.extend_from_slice(&tile_preds);
            }
            (preds, out, *ts.counters())
        };
        let (preds_packed, out_packed, c_packed) = run(true);
        let (preds_ref, out_ref, c_ref) = run(false);
        assert_eq!(preds_packed, preds_ref);
        assert_eq!(out_packed, out_ref);
        assert_eq!(c_packed.shot_partition(), c_ref.shot_partition());
        assert_eq!(c_packed.tier_sum(), c_packed.shots_screened);
        assert_eq!(c_ref.hw1_key_lookups + c_ref.hw2_key_lookups, 0);
        assert!(
            c_packed.hw1_shots > 0 && c_packed.hw2_shots > 0,
            "{c_packed:?}"
        );
        assert!(c_packed.hw1_key_lookups > 0 && c_packed.hw1_key_lookups <= c_packed.hw1_shots);
        assert_eq!(c_packed.hw2_key_lookups, c_packed.hw2_shots);
    }

    #[test]
    fn alternating_contexts_replay_exactly() {
        // A scratch switched between two decoding contexts rebuilds its
        // screen/hard caches on each switch; replaying context A's tiles
        // after an interleaved B stream must equal the first A pass.
        let ctx_a = ctx(5, 2e-2);
        let ctx_b = ctx(3, 2e-2);
        let shots = 1200;
        let layout = TileLayout::new(shots, 4);
        let mut decoder_a = MwpmDecoder::new(ctx_a.gwt());
        let mut decoder_b = MwpmDecoder::new(ctx_b.gwt());
        let mut scratch = DecodeScratch::new();
        let mut ts = TileScratch::new();
        let mut passes = [StreamOutcome::default(), StreamOutcome::default()];
        for out in passes.iter_mut() {
            let mut sampler = BatchDemSampler::new(ctx_a.dem());
            for t in 0..layout.num_tiles() {
                let tile = sampler.sample_tile(23, &layout, t);
                decode_tile(&mut decoder_a, &mut scratch, &mut ts, &tile, out);
            }
            // Interleave the other context between the passes.
            let mut sampler = BatchDemSampler::new(ctx_b.dem());
            let mut out_b = StreamOutcome::default();
            for t in 0..layout.num_tiles() {
                let tile = sampler.sample_tile(29, &layout, t);
                decode_tile(&mut decoder_b, &mut scratch, &mut ts, &tile, &mut out_b);
            }
        }
        assert_eq!(passes[0], passes[1], "rebuilt caches must replay exactly");
    }

    #[test]
    fn decode_tile_accounts_astrea_cycles_and_deferrals_exactly() {
        // Astrea models nonzero cycles for HW ≤ 2 lookups and defers
        // beyond HW 10; both must survive the screened path bit-for-bit.
        let ctx = ctx(3, 2e-2);
        let shots = 600;
        let sampler = BatchDemSampler::new(ctx.dem());
        let (det, obs) = sampler.sample(3, shots);
        let batch = SyndromeBatch::from_packed(&det, &obs);
        let mut decoder = AstreaDecoder::new(ctx.gwt());
        let mut scratch = DecodeScratch::new();
        let s = decode_slice(&mut decoder, &mut scratch, &batch, 0..batch.len());

        let layout = TileLayout::new(shots, 3);
        let mut sampler = BatchDemSampler::new(ctx.dem());
        let mut decoder = AstreaDecoder::new(ctx.gwt());
        let mut scratch = DecodeScratch::new();
        let mut ts = TileScratch::new();
        let mut out = StreamOutcome::default();
        for t in 0..layout.num_tiles() {
            let tile = sampler.sample_tile(3, &layout, t);
            decode_tile(&mut decoder, &mut scratch, &mut ts, &tile, &mut out);
        }
        assert_eq!(out.stats, s.stats);
        assert_eq!(out.failures, s.failures);
        assert_eq!(out.deferred, s.deferred);
        assert!(out.deferred > 0 || out.stats.max_cycles > 0);
    }

    #[test]
    fn hard_cache_hits_on_a_repeated_syndrome_stream() {
        // Regression for the dead-cache symptom (hard_cache_hits: 0 in
        // every profiled point): drive the *same* tiles through one
        // worker twice — a repeated-syndrome stream — and require real
        // hits the second time around, with accounting bit-identical to
        // the first (cached) pass, hit or miss.
        let ctx = ctx(5, 2e-2);
        let shots = 1500;
        let layout = TileLayout::new(shots, 4);
        let mut decoder = MwpmDecoder::new(ctx.gwt());
        let mut scratch = DecodeScratch::new();
        let mut ts = TileScratch::new();
        let mut passes = [StreamOutcome::default(), StreamOutcome::default()];
        for out in passes.iter_mut() {
            let mut sampler = BatchDemSampler::new(ctx.dem());
            for t in 0..layout.num_tiles() {
                let tile = sampler.sample_tile(23, &layout, t);
                decode_tile(&mut decoder, &mut scratch, &mut ts, &tile, out);
            }
        }
        let c = ts.counters();
        assert!(
            c.hard_cache_hits > 0,
            "repeated stream produced no cache hits: {c:?}"
        );
        assert!(c.hard_cache_misses > 0);
        assert_eq!(
            passes[0], passes[1],
            "cache hits must replay the decoder bit-for-bit"
        );
    }

    #[test]
    fn counters_account_for_every_screened_shot() {
        // Two streams through one scratch: p = 3e-2 populates the DP,
        // hard-cache and deep sparse-blossom bands, p = 1e-3 the trivial,
        // HW ≤ 2 and closed-form tiers. The merged per-stage counters
        // must sum back to the number of screened shots, with every tier
        // non-idle.
        let shots = 4000;
        let layout = TileLayout::new(shots, 8);
        let mut scratch = DecodeScratch::new();
        let mut ts = TileScratch::new();
        for p in [3e-2, 1e-3] {
            let ctx = ctx(5, p);
            let mut sampler = BatchDemSampler::new(ctx.dem());
            let mut decoder = MwpmDecoder::new(ctx.gwt());
            let mut out = StreamOutcome::default();
            for t in 0..layout.num_tiles() {
                let tile = sampler.sample_tile(29, &layout, t);
                decode_tile(&mut decoder, &mut scratch, &mut ts, &tile, &mut out);
            }
        }
        let c = *ts.counters();
        assert_eq!(c.shots_screened, 2 * shots as u64);
        assert_eq!(
            c.tier_sum(),
            c.shots_screened,
            "stage counters do not partition the stream: {c:?}"
        );
        for (tier, n) in [
            ("trivial", c.trivial_shots),
            ("HW-1", c.hw1_shots),
            ("HW-2", c.hw2_shots),
            ("closed-form", c.closed_form_shots),
            ("subset-DP", c.dp_shots),
            ("deep sparse-blossom", c.sparse_blossom_shots),
            ("hard-cache lookup", c.hard_cache_hits + c.hard_cache_misses),
        ] {
            assert!(n > 0, "{tier} tier idle: {c:?}");
        }
        // On GWT weights every deep shot is one whole-shot blossom solve
        // (no unsearched pair, so no re-solve): the arena's solve count
        // must match the deep tier's shot count exactly.
        assert_eq!(
            scratch.sparse.solves, c.sparse_blossom_shots,
            "deep shots and sparse-blossom solves disagree: {c:?}"
        );
    }

    #[test]
    fn queue_distributes_every_tile_exactly_once() {
        let ctx = ctx(3, 5e-3);
        let shots = 1000;
        let reference = barrier_reference(&ctx, shots, 11);
        let layout = TileLayout::new(shots, 2);
        let (tx, rx) = tile_channel(4);
        let queue = TileQueue::new(rx);
        let outcome: StreamOutcome = std::thread::scope(|scope| {
            let producer_ctx = Arc::clone(&ctx);
            scope.spawn(move || {
                let mut sampler = BatchDemSampler::new(producer_ctx.dem());
                for t in 0..layout.num_tiles() {
                    tx.send(sampler.sample_tile(11, &layout, t)).unwrap();
                }
            });
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    let queue = queue.clone();
                    let ctx = Arc::clone(&ctx);
                    scope.spawn(move || {
                        let mut decoder = MwpmDecoder::new(ctx.gwt());
                        let mut scratch = DecodeScratch::new();
                        let mut ts = TileScratch::new();
                        consume_tiles(&mut decoder, &mut scratch, &mut ts, &queue)
                    })
                })
                .collect();
            let mut total = StreamOutcome::default();
            for c in consumers {
                total.merge(&c.join().unwrap());
            }
            total
        });
        assert_eq!(outcome, reference);
        assert_eq!(outcome.stats.shots, shots as u64);
    }
}
