//! Parallel Monte-Carlo memory experiments, built on the streaming
//! sampler→decoder pipeline in [`astrea_core::pipeline`], the batched
//! decode engine in [`astrea_core::batch`], and the word-parallel
//! samplers in `qec-circuit`.
//!
//! [`estimate_ler`] runs the streamed path: producer threads cut the run
//! into packed tiles ([`qec_circuit::TileLayout`]) and feed them over a
//! bounded channel to consumers that screen shots word-parallel and
//! decode only the hard ones, so sampling and decoding overlap
//! end-to-end. The barrier reference path ([`estimate_ler_barrier`]:
//! sample everything, then decode everything) is kept for benchmarking
//! and differential testing — the two are bit-identical by construction.
//!
//! Sampling and decoding are both deterministic in `seed` *alone*: the
//! packed samplers seed every 64-shot word column from
//! [`qec_circuit::column_seed`]`(seed, word)` (the scalar reference path
//! seeds every shot from [`shot_seed`]`(seed, shot_index)`) and all
//! counters merge order-independently, so results are bit-identical for
//! any thread count, producer/consumer split, and tile size.

use astrea_core::batch::{decode_slice, shot_seed, SyndromeBatch, SyndromeBatchBuilder};
use astrea_core::pipeline::{
    consume_tiles, tile_channel, PipelineCounters, StreamOutcome, TileQueue, TileScratch,
    DEFAULT_CHANNEL_DEPTH, DEFAULT_HARD_CACHE_ENTRIES, DEFAULT_TILE_WORDS,
};
use decoding_graph::{DecodeScratch, Decoder, DecodingContext};
use qec_circuit::tiles::{FrameSimSource, PackedSyndromeSource, TileLayout};
use qec_circuit::{BatchDemSampler, BitTable, DemSampler, NoiseModel, Shot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use surface_code::SurfaceCode;

pub use astrea_core::LatencyStats;

/// A decoding context plus the experiment parameters that produced it.
///
/// Building one is expensive (detector-error-model extraction and all-pairs
/// Dijkstra); reuse it across every decoder and trial count for the same
/// `(distance, p)` point.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// Code distance.
    pub distance: usize,
    /// Physical error rate.
    pub physical_error_rate: f64,
    ctx: DecodingContext,
}

impl ExperimentContext {
    /// Builds the context for a `(d, p)` memory experiment with `d` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `distance` is not an odd number ≥ 3 or `p` is not a
    /// probability.
    pub fn new(distance: usize, p: f64) -> ExperimentContext {
        ExperimentContext::with_source(distance, p, decoding_graph::WeightSource::Auto)
    }

    /// [`Self::new`] with an explicit weight backend: force
    /// [`decoding_graph::WeightSource::Gwt`] for table-backed decoders at
    /// any distance, or [`decoding_graph::WeightSource::Local`] to run a
    /// small distance GWT-free (large distances go GWT-free automatically
    /// under `Auto` — see [`decoding_graph::GWT_AUTO_BUDGET_BYTES`]).
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::new`].
    pub fn with_source(
        distance: usize,
        p: f64,
        source: decoding_graph::WeightSource,
    ) -> ExperimentContext {
        let code = SurfaceCode::new(distance).expect("valid surface code distance");
        let ctx =
            DecodingContext::for_memory_experiment_with(&code, NoiseModel::depolarizing(p), source);
        ExperimentContext {
            distance,
            physical_error_rate: p,
            ctx,
        }
    }

    /// Builds the context from an arbitrary annotated circuit — e.g. an
    /// X-basis memory experiment, a non-uniform [`qec_circuit::NoiseMap`]
    /// circuit, or a custom round count. `distance` and `p` are recorded
    /// for reporting only.
    pub fn from_circuit(
        distance: usize,
        p: f64,
        circuit: &qec_circuit::Circuit,
    ) -> ExperimentContext {
        ExperimentContext {
            distance,
            physical_error_rate: p,
            ctx: DecodingContext::from_circuit(circuit),
        }
    }

    /// The underlying decoding context.
    pub fn decoding(&self) -> &DecodingContext {
        &self.ctx
    }

    /// Shorthand for the Global Weight Table.
    ///
    /// # Panics
    ///
    /// Panics when the context is GWT-free (see
    /// [`DecodingContext::gwt`]); backend-agnostic callers should go
    /// through [`Self::decoding`] and a `for_context` constructor.
    pub fn gwt(&self) -> &decoding_graph::GlobalWeightTable {
        self.ctx.gwt()
    }

    /// The resolved weight backend of the underlying context.
    pub fn weight_source(&self) -> decoding_graph::WeightSource {
        self.ctx.weight_source()
    }

    /// Shorthand for the matching graph.
    pub fn graph(&self) -> &decoding_graph::MatchingGraph {
        self.ctx.graph()
    }

    /// Shorthand for the detector error model.
    pub fn dem(&self) -> &qec_circuit::DetectorErrorModel {
        self.ctx.dem()
    }
}

/// A thread-safe factory producing one decoder instance per worker thread.
pub type DecoderFactory<'a> = dyn Fn(&'a ExperimentContext) -> Box<dyn Decoder + 'a> + Sync + 'a;

/// A [`DecoderFactory`] producing backend-agnostic MWPM decoders with an
/// explicit deep-tail engine — the one-liner that lets batch, pipeline,
/// and serving runs pin `Ondemand` (bit-identical to the GWT) or
/// `Staged` (the oracle) instead of the default
/// [`DeepBackend::GraphPd`](blossom_mwpm::DeepBackend), or name the
/// default explicitly, without hand-writing a closure:
///
/// ```ignore
/// let f = mwpm_factory(DeepBackend::Ondemand);
/// let (res, counters) = estimate_ler_streamed_counted(&ctx, n, seed, &f, cfg);
/// ```
pub fn mwpm_factory(
    backend: blossom_mwpm::DeepBackend,
) -> impl for<'a> Fn(&'a ExperimentContext) -> Box<dyn Decoder + 'a> + Sync {
    move |c: &ExperimentContext| {
        Box::new(blossom_mwpm::MwpmDecoder::for_context(c.decoding()).with_deep_backend(backend))
            as Box<dyn Decoder + '_>
    }
}

/// Which packed sampler feeds the pipeline's producers.
///
/// Both honour the `column_seed` determinism contract, so either source
/// yields thread/tile-invariant runs; their shot *streams* differ (they
/// consume randomness differently) but sample the same distribution —
/// cross-validating them end-to-end is exactly the point of offering
/// both (see ROADMAP item 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SyndromeSource {
    /// Geometric-skip sampling over the extracted detector error model —
    /// the fast path.
    #[default]
    Dem,
    /// Full circuit-level Pauli-frame simulation
    /// ([`qec_circuit::BatchFrameSimulator`]) — slower, but exercises the
    /// whole circuit rather than the extracted model.
    FrameSim,
}

impl SyndromeSource {
    /// Builds one producer-owned sampler over the context's model or
    /// circuit.
    pub fn sampler(&self, ctx: &ExperimentContext) -> Box<dyn PackedSyndromeSource> {
        match self {
            SyndromeSource::Dem => Box::new(BatchDemSampler::new(ctx.dem())),
            SyndromeSource::FrameSim => Box::new(FrameSimSource::new(ctx.decoding().circuit())),
        }
    }
}

/// Shape of the streamed [`estimate_ler_streamed`] pipeline.
///
/// Every field only affects *performance*: the result is bit-identical
/// for any tile size, producer count, consumer count, and channel depth
/// (per-word-column seeding plus order-independent accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Upper bound on packed words per tile (≤ 64·`tile_words` shots
    /// each). Runs are cut with [`TileLayout::for_consumers`], so a run
    /// shorter than one full tile per consumer gets narrower tiles
    /// instead of leaving consumers idle.
    pub tile_words: usize,
    /// Sampler (producer) threads.
    pub producers: usize,
    /// Decoder (consumer) threads.
    pub consumers: usize,
    /// Bound on tiles buffered between producers and consumers.
    pub channel_depth: usize,
    /// Which packed sampler produces the tiles.
    pub source: SyndromeSource,
    /// Per-consumer capacity of the hard-syndrome prediction cache
    /// (0 disables it). Purely a performance knob: cached predictions
    /// replay the decoder's own, so results are bit-identical either
    /// way.
    pub hard_cache_entries: usize,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig::for_threads(1)
    }
}

impl PipelineConfig {
    /// The default split of a `threads`-sized budget: all `threads` as
    /// consumers (decoding dominates once sampling is packed) plus a
    /// quarter as many producers, which overlap with consumers blocking
    /// on the bounded channel rather than oversubscribing the CPU.
    ///
    /// The budget is clamped to the machine's available parallelism
    /// first: threads beyond physical cores cannot overlap anything and
    /// only add context-switch and allocation overhead to a
    /// latency-sensitive loop (results are bit-identical either way).
    pub fn for_threads(threads: usize) -> PipelineConfig {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = threads.max(1).min(cores);
        PipelineConfig {
            tile_words: DEFAULT_TILE_WORDS,
            producers: (threads / 4).max(1),
            consumers: threads,
            channel_depth: DEFAULT_CHANNEL_DEPTH,
            source: SyndromeSource::Dem,
            hard_cache_entries: DEFAULT_HARD_CACHE_ENTRIES,
        }
    }

    /// Same shape, different syndrome source.
    pub fn with_source(mut self, source: SyndromeSource) -> PipelineConfig {
        self.source = source;
        self
    }

    /// Same shape, different hard-syndrome cache capacity (0 disables).
    pub fn with_hard_cache(mut self, entries: usize) -> PipelineConfig {
        self.hard_cache_entries = entries;
        self
    }
}

/// The outcome of a logical-error-rate estimation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LerResult {
    /// Monte-Carlo trials run.
    pub trials: u64,
    /// Trials where the decoder's prediction missed the actual logical
    /// flip (logical errors).
    pub failures: u64,
    /// Trials the decoder declined to decode in real time (Astrea beyond
    /// its Hamming-weight ceiling, Clique deferrals). These still count as
    /// failures when the uncorrected observable flipped.
    pub deferred: u64,
    /// Latency statistics over the modeled hardware cycles.
    pub latency: LatencyStats,
}

impl LerResult {
    /// The logical error rate per `d`-round logical cycle.
    pub fn ler(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.failures as f64 / self.trials as f64
        }
    }

    /// Binomial standard error of [`LerResult::ler`].
    pub fn std_err(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        let p = self.ler();
        (p * (1.0 - p) / self.trials as f64).sqrt()
    }
}

/// Samples `trials` shots from the context's detector error model into a
/// [`SyndromeBatch`] with the bit-packed, word-parallel
/// [`BatchDemSampler`] (64 shots per bitwise op), splitting the work
/// across `threads` threads at word boundaries.
///
/// Word column `w` (shots `64w .. 64w + 64`) is drawn from a fresh RNG
/// seeded with [`qec_circuit::column_seed`]`(seed, w)`, threads take
/// word-aligned chunks, and the per-thread partial batches are
/// concatenated in index order — so the batch depends only on `(trials,
/// seed)`, never on the thread count, and the first `n` shots agree with
/// any longer run with the same seed.
///
/// The packed stream intentionally differs from the per-shot stream of
/// [`sample_batch_scalar`]; both are statistically identical samples of
/// the model (see the `packed_bridge` tests in `qec-circuit`).
pub fn sample_batch(
    ctx: &ExperimentContext,
    trials: u64,
    threads: usize,
    seed: u64,
) -> SyndromeBatch {
    let threads = threads.max(1);
    let n = trials as usize;
    let total_words = n.div_ceil(64);
    if total_words == 0 {
        return SyndromeBatch::builder().finish();
    }
    let words_per_chunk = total_words.div_ceil(threads).max(1);
    let sampler = BatchDemSampler::new(ctx.dem());
    let parts: Vec<SyndromeBatchBuilder> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for first_word in (0..total_words).step_by(words_per_chunk) {
            let last_word = (first_word + words_per_chunk).min(total_words);
            let sampler = &sampler;
            handles.push(scope.spawn(move || {
                // Tile the chunk: sampling writes and conversion reads
                // both sweep the whole packed table, so a 128-word tile
                // (8192 shots, ~200 KB at d = 7) keeps the working set
                // cache-resident instead of streaming through DRAM. The
                // column-seeding contract makes tiling invisible in the
                // output.
                const TILE_WORDS: usize = 128;
                let mut builder = SyndromeBatchBuilder::default();
                let mut det = BitTable::new(sampler.num_detectors(), TILE_WORDS * 64);
                let mut obs = BitTable::new(sampler.num_observables(), TILE_WORDS * 64);
                let mut w = first_word;
                while w < last_word {
                    let tile_end = (w + TILE_WORDS).min(last_word);
                    let tile_shots = (tile_end * 64).min(n) - w * 64;
                    if tile_shots < TILE_WORDS * 64 {
                        det = BitTable::new(sampler.num_detectors(), tile_shots);
                        obs = BitTable::new(sampler.num_observables(), tile_shots);
                    }
                    sampler.sample_words(seed, w, &mut det, &mut obs);
                    builder.push_packed(&det, &obs);
                    w = tile_end;
                }
                builder
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("sampler thread panicked"))
            .collect()
    });
    let mut all = SyndromeBatch::builder();
    for part in parts {
        all.append(part);
    }
    all.finish()
}

/// The scalar (shot-at-a-time) reference sampler the packed
/// [`sample_batch`] replaced: one fresh RNG per shot from
/// [`shot_seed`]`(seed, i)`, one [`DemSampler::sample_into`] call per
/// shot.
///
/// Kept as the baseline for the `sampling_throughput` bench and for
/// statistical cross-checks; its stream differs from the packed one, but
/// both are exact samples of the same model and are thread-count- and
/// shot-count-invariant.
pub fn sample_batch_scalar(
    ctx: &ExperimentContext,
    trials: u64,
    threads: usize,
    seed: u64,
) -> SyndromeBatch {
    let threads = threads.max(1);
    let n = trials as usize;
    let chunk = n.div_ceil(threads).max(1);
    let parts: Vec<SyndromeBatchBuilder> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for start in (0..n).step_by(chunk) {
            let end = (start + chunk).min(n);
            let dem = ctx.dem();
            handles.push(scope.spawn(move || {
                let mut sampler = DemSampler::new(dem);
                let mut builder = SyndromeBatchBuilder::default();
                let mut shot = Shot::default();
                for i in start..end {
                    let mut rng = StdRng::seed_from_u64(shot_seed(seed, i as u64));
                    sampler.sample_into(&mut rng, &mut shot);
                    builder.push(&shot.detectors, shot.observables);
                }
                builder
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("sampler thread panicked"))
            .collect()
    });
    let mut all = SyndromeBatch::builder();
    for part in parts {
        all.append(part);
    }
    all.finish()
}

/// Decodes a prepared batch with scoped worker threads, one decoder from
/// `factory` plus one scratch arena per worker, and folds the outcome
/// into a [`LerResult`].
///
/// Each worker runs the shared [`decode_slice`] loop over one contiguous
/// shot range and the outcomes merge order-independently, so the totals
/// equal one sequential `decode_slice` pass for any thread count.
/// Decoders may borrow from the experiment context; threads are spawned
/// per call.
pub fn decode_batch_ler<'a>(
    ctx: &'a ExperimentContext,
    batch: &SyndromeBatch,
    threads: usize,
    factory: &DecoderFactory<'a>,
) -> LerResult {
    let threads = threads.max(1);
    let n = batch.len();
    let mut result = LerResult {
        trials: n as u64,
        ..LerResult::default()
    };
    if n == 0 {
        return result;
    }
    let chunk = n.div_ceil(threads);
    let outcomes = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for start in (0..n).step_by(chunk) {
            let end = (start + chunk).min(n);
            handles.push(scope.spawn(move || {
                let mut decoder = factory(ctx);
                let mut scratch = DecodeScratch::new();
                decode_slice(decoder.as_mut(), &mut scratch, batch, start..end)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("decode worker panicked"))
            .collect::<Vec<_>>()
    });
    for outcome in &outcomes {
        result.failures += outcome.failures;
        result.deferred += outcome.deferred;
        result.latency.merge(&outcome.stats);
    }
    result
}

/// Estimates the logical error rate with the streaming pipeline:
/// producers sample packed tiles and consumers screen + decode them
/// concurrently, overlapping sampling and decoding end-to-end.
///
/// The run is cut with [`TileLayout::for_consumers`], so every consumer
/// gets a tile even when the run is shorter than one full tile per
/// consumer; producer and consumer threads are both clamped to the tile
/// count. Producer `p` samples tiles `p, p + P, p + 2P, …` of the
/// layout and sends them over a bounded channel; consumers pull
/// from a shared [`TileQueue`] (dynamic load balancing), screen each tile
/// word-parallel, and decode only the Hamming-weight ≥ 3 shots with the
/// real decoder ([`astrea_core::pipeline::decode_tile`]). The result is
/// bit-identical to [`estimate_ler_barrier`] for every `config`: tiles
/// inherit the `column_seed` contract, screening replays the decoder
/// exactly, and all accounting merges order-independently.
pub fn estimate_ler_streamed<'a>(
    ctx: &'a ExperimentContext,
    trials: u64,
    seed: u64,
    factory: &DecoderFactory<'a>,
    config: PipelineConfig,
) -> LerResult {
    estimate_ler_streamed_counted(ctx, trials, seed, factory, config).0
}

/// [`estimate_ler_streamed`] plus the summed per-stage
/// [`PipelineCounters`] from every consumer — how many shots the screen,
/// the closed forms, the hard-syndrome cache, and the DP/blossom tail
/// each absorbed. The counters describe stages that only exist on the
/// streamed path, so they ride alongside the [`LerResult`] instead of
/// inside it (which stays comparable to the barrier path's).
pub fn estimate_ler_streamed_counted<'a>(
    ctx: &'a ExperimentContext,
    trials: u64,
    seed: u64,
    factory: &DecoderFactory<'a>,
    config: PipelineConfig,
) -> (LerResult, PipelineCounters) {
    run_streamed(ctx, trials, seed, factory, config, || {
        config.source.sampler(ctx)
    })
}

/// The streamed driver behind [`estimate_ler_streamed_counted`] and the
/// stratified estimator: `trials` shots of the run seeded by `seed`, cut
/// by `config` into tiles that each producer samples from its own
/// `new_source()` and consumers decode through [`consume_tiles`].
/// `config.source` is ignored here; the caller picks the sampler through
/// `new_source`.
pub(crate) fn run_streamed<'a, 's>(
    ctx: &'a ExperimentContext,
    trials: u64,
    seed: u64,
    factory: &DecoderFactory<'a>,
    config: PipelineConfig,
    new_source: impl Fn() -> Box<dyn PackedSyndromeSource + 's>,
) -> (LerResult, PipelineCounters) {
    let mut result = LerResult {
        trials,
        ..LerResult::default()
    };
    if trials == 0 {
        return (result, PipelineCounters::default());
    }
    let consumers = config.consumers.max(1);
    let layout = TileLayout::for_consumers(trials as usize, config.tile_words.max(1), consumers);
    let producers = config.producers.max(1).min(layout.num_tiles());
    let consumers = consumers.min(layout.num_tiles());
    let (tx, rx) = tile_channel(config.channel_depth);
    let queue = TileQueue::new(rx);
    let (outcome, counters) = std::thread::scope(|scope| {
        for p in 0..producers {
            let tx = tx.clone();
            let mut source = new_source();
            scope.spawn(move || {
                let mut t = p;
                while t < layout.num_tiles() {
                    let tile = source.sample_tile(seed, &layout, t);
                    // A send error means every consumer is gone (one
                    // panicked); stop producing and let join surface it.
                    if tx.send(tile).is_err() {
                        return;
                    }
                    t += producers;
                }
            });
        }
        // Drop the original sender so the queue drains to `None` once the
        // producers finish.
        drop(tx);
        let handles: Vec<_> = (0..consumers)
            .map(|_| {
                let queue = queue.clone();
                scope.spawn(move || {
                    let mut decoder = factory(ctx);
                    let mut scratch = DecodeScratch::new();
                    let mut tile_scratch = TileScratch::with_hard_cache(config.hard_cache_entries);
                    let out =
                        consume_tiles(decoder.as_mut(), &mut scratch, &mut tile_scratch, &queue);
                    (out, *tile_scratch.counters())
                })
            })
            .collect();
        let mut total = StreamOutcome::default();
        let mut counters = PipelineCounters::default();
        for h in handles {
            let (out, c) = h.join().expect("decode consumer panicked");
            total.merge(&out);
            counters.merge(&c);
        }
        (total, counters)
    });
    result.failures = outcome.failures;
    result.deferred = outcome.deferred;
    result.latency = outcome.stats;
    (result, counters)
}

/// The barrier reference path: sample *everything* into a
/// [`SyndromeBatch`], then decode it — no overlap, full per-shot sparse
/// materialization.
///
/// Kept as the differential-testing and benchmarking reference for
/// [`estimate_ler`]; the streamed path reproduces it bit-identically.
pub fn estimate_ler_barrier<'a>(
    ctx: &'a ExperimentContext,
    trials: u64,
    threads: usize,
    seed: u64,
    factory: &DecoderFactory<'a>,
) -> LerResult {
    let batch = sample_batch(ctx, trials, threads, seed);
    decode_batch_ler(ctx, &batch, threads, factory)
}

/// Estimates the logical error rate of a decoder by running `trials`
/// memory experiments across `threads` worker threads.
///
/// Runs the streaming pipeline ([`estimate_ler_streamed`] with
/// [`PipelineConfig::for_threads`]): shots are sampled from the detector
/// error model with the word-parallel packed sampler into fixed-size
/// tiles that stream straight into screening consumers — sampling and
/// decoding overlap, and only Hamming-weight ≥ 3 shots pay a real decoder
/// call. A failure is counted whenever the predicted observable flip
/// disagrees with the actual one. Results depend only on `(trials,
/// seed)`: any thread count produces bit-identical output, equal to the
/// barrier path's ([`estimate_ler_barrier`]).
pub fn estimate_ler<'a>(
    ctx: &'a ExperimentContext,
    trials: u64,
    threads: usize,
    seed: u64,
    factory: &DecoderFactory<'a>,
) -> LerResult {
    estimate_ler_streamed(
        ctx,
        trials,
        seed,
        factory,
        PipelineConfig::for_threads(threads),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use blossom_mwpm::MwpmDecoder;

    #[test]
    fn results_are_reproducible_across_runs() {
        let ctx = ExperimentContext::new(3, 5e-3);
        let factory: Box<DecoderFactory> = Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())));
        let a = estimate_ler(&ctx, 10_000, 3, 42, &*factory);
        let b = estimate_ler(&ctx, 10_000, 3, 42, &*factory);
        assert_eq!(a, b);
        assert_eq!(a.trials, 10_000);
    }

    #[test]
    fn different_seeds_differ() {
        let ctx = ExperimentContext::new(3, 8e-3);
        let factory: Box<DecoderFactory> = Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())));
        let a = estimate_ler(&ctx, 5_000, 2, 1, &*factory);
        let b = estimate_ler(&ctx, 5_000, 2, 2, &*factory);
        assert_ne!(a.failures, b.failures);
    }

    #[test]
    fn thread_count_does_not_change_any_result() {
        // Stronger than trial-count preservation: per-shot seeding makes
        // the whole LerResult (failures, latency histograms, everything)
        // identical for every thread count.
        let ctx = ExperimentContext::new(3, 5e-3);
        let factory: Box<DecoderFactory> = Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())));
        let reference = estimate_ler(&ctx, 1_003, 1, 9, &*factory);
        assert_eq!(reference.trials, 1_003);
        for threads in [2, 5, 16] {
            let r = estimate_ler(&ctx, 1_003, threads, 9, &*factory);
            assert_eq!(r, reference, "diverged at {threads} threads");
        }
    }

    #[test]
    fn sampled_batches_are_thread_count_independent() {
        let ctx = ExperimentContext::new(3, 5e-3);
        let a = sample_batch(&ctx, 501, 1, 7);
        let b = sample_batch(&ctx, 501, 4, 7);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.detectors(i), b.detectors(i), "shot {i}");
            assert_eq!(a.observables(i), b.observables(i), "shot {i}");
        }
    }

    #[test]
    fn scalar_sampler_is_thread_count_invariant() {
        let ctx = ExperimentContext::new(3, 5e-3);
        let a = sample_batch_scalar(&ctx, 501, 1, 7);
        let b = sample_batch_scalar(&ctx, 501, 4, 7);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.detectors(i), b.detectors(i), "shot {i}");
            assert_eq!(a.observables(i), b.observables(i), "shot {i}");
        }
    }

    #[test]
    fn packed_sampler_trial_count_is_a_prefix_property() {
        let ctx = ExperimentContext::new(3, 5e-3);
        let short = sample_batch(&ctx, 70, 2, 13);
        let long = sample_batch(&ctx, 500, 3, 13);
        for i in 0..short.len() {
            assert_eq!(short.detectors(i), long.detectors(i), "shot {i}");
            assert_eq!(short.observables(i), long.observables(i), "shot {i}");
        }
    }

    #[test]
    fn ler_decreases_with_distance_at_fixed_p() {
        // The defining property of a working code + decoder stack: error
        // suppression with distance (below threshold).
        let p = 2e-3;
        let ctx3 = ExperimentContext::new(3, p);
        let ctx5 = ExperimentContext::new(5, p);
        let factory: Box<DecoderFactory> = Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())));
        let r3 = estimate_ler(&ctx3, 40_000, 4, 11, &*factory);
        let r5 = estimate_ler(&ctx5, 40_000, 4, 11, &*factory);
        assert!(
            r3.failures > 20,
            "need statistics at d=3, got {}",
            r3.failures
        );
        assert!(
            r5.ler() < r3.ler() / 2.0,
            "no error suppression: d=3 {} vs d=5 {}",
            r3.ler(),
            r5.ler()
        );
    }

    #[test]
    fn streamed_is_bit_identical_to_barrier() {
        let ctx = ExperimentContext::new(3, 5e-3);
        let factory: Box<DecoderFactory> = Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())));
        let barrier = estimate_ler_barrier(&ctx, 4_003, 2, 17, &*factory);
        for (tile_words, producers, consumers) in [(1, 1, 1), (3, 2, 3), (64, 1, 2)] {
            let config = PipelineConfig {
                tile_words,
                producers,
                consumers,
                channel_depth: 2,
                source: SyndromeSource::Dem,
                hard_cache_entries: DEFAULT_HARD_CACHE_ENTRIES,
            };
            let streamed = estimate_ler_streamed(&ctx, 4_003, 17, &*factory, config);
            assert_eq!(streamed, barrier, "config {config:?}");
        }
    }

    #[test]
    fn framesim_source_is_config_invariant() {
        let ctx = ExperimentContext::new(3, 5e-3);
        let factory: Box<DecoderFactory> = Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())));
        let reference = estimate_ler_streamed(
            &ctx,
            1_003,
            23,
            &*factory,
            PipelineConfig::default().with_source(SyndromeSource::FrameSim),
        );
        let config = PipelineConfig {
            tile_words: 2,
            producers: 2,
            consumers: 3,
            channel_depth: 2,
            source: SyndromeSource::FrameSim,
            hard_cache_entries: DEFAULT_HARD_CACHE_ENTRIES,
        };
        let other = estimate_ler_streamed(&ctx, 1_003, 23, &*factory, config);
        assert_eq!(other, reference);
        assert_eq!(reference.trials, 1_003);
        assert_eq!(reference.latency.shots, 1_003);
    }

    #[test]
    fn dem_and_framesim_sources_cross_validate() {
        // The DEM sampler and the full circuit-level frame simulator are
        // independent implementations of the same error process; their LER
        // estimates must agree statistically at every distance.
        for (d, p, trials) in [(3usize, 8e-3, 30_000u64), (5, 8e-3, 20_000)] {
            let ctx = ExperimentContext::new(d, p);
            let factory: Box<DecoderFactory> = Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())));
            let dem =
                estimate_ler_streamed(&ctx, trials, 101, &*factory, PipelineConfig::for_threads(4));
            let frame = estimate_ler_streamed(
                &ctx,
                trials,
                202,
                &*factory,
                PipelineConfig::for_threads(4).with_source(SyndromeSource::FrameSim),
            );
            assert!(dem.failures > 10, "d={d}: too few DEM failures");
            assert!(frame.failures > 10, "d={d}: too few frame-sim failures");
            let tolerance = 5.0 * (dem.std_err().powi(2) + frame.std_err().powi(2)).sqrt();
            assert!(
                (dem.ler() - frame.ler()).abs() <= tolerance,
                "d={d}: DEM {} vs frame-sim {} (tolerance {tolerance})",
                dem.ler(),
                frame.ler(),
            );
        }
    }

    #[test]
    fn std_err_shrinks_with_trials() {
        let a = LerResult {
            trials: 100,
            failures: 10,
            ..LerResult::default()
        };
        let b = LerResult {
            trials: 10_000,
            failures: 1000,
            ..LerResult::default()
        };
        assert!(b.std_err() < a.std_err());
    }

    #[test]
    fn latency_stats_track_max_and_means() {
        let mut s = LatencyStats::default();
        s.record(0, 0);
        s.record(4, 6);
        s.record(10, 114);
        assert_eq!(s.max_cycles, 114);
        assert_eq!(s.shots, 3);
        assert_eq!(s.nontrivial_shots, 2);
        assert_eq!(s.mean_ns(250.0), 160.0);
        assert_eq!(s.mean_nontrivial_ns(250.0), 240.0);
        assert_eq!(s.max_ns(250.0), 456.0);
    }
}
