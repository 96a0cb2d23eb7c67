//! The offline workloads: streamed logical-error-rate estimation.
//!
//! Untraced, a run measures `estimate_ler_streamed_counted` throughput
//! (median of timed reps on one `(trials, seed)`) and the latency of
//! decoding each syndrome of a fixed corpus on its own. Traced, it
//! alternates untraced reps with a twin of the streamed pipeline rebuilt
//! from its public pieces, with a timer at every layer boundary, then
//! replays deep syndromes to split the deep tail into staging and solve.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use astrea_core::{
    decode_tile, tile_channel, PipelineCounters, StreamOutcome, SyndromeBatch, TileQueue,
    TileScratch,
};
use astrea_experiments::{
    estimate_ler_barrier, estimate_ler_streamed_counted, DecoderFactory, ExperimentContext,
    LerResult, PipelineConfig,
};
use blossom_mwpm::{DeepBackend, MwpmDecoder};
use decoding_graph::{DecodeScratch, Decoder, Prediction};
use qec_circuit::{BatchDemSampler, TileLayout};

use crate::layers::{
    deep_corpus, replay_deep, report_counters, report_decoder, report_replay, SetupTimer,
};
use crate::stats::{
    median, overhead_pct, peak_rss_mb, quartiles, ratio, windowed_percentile, Report, WINDOWS,
};
use crate::timed::{DecoderTrace, TimedDecoder};
use crate::Run;

/// How much work one run of a workload does.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Trials per `estimate_ler` rep; every rep repeats the same stream.
    pub trials_per_rep: u64,
    /// Syndromes decoded one at a time for the latency metrics.
    pub latency_shots: usize,
    /// Prefix on which the streamed and barrier paths must agree (0: off).
    pub barrier_trials: u64,
    /// Deep shots checked against the staged oracle (0: off).
    pub certificate_shots: usize,
    /// Deep syndromes replayed for the staging/solve split.
    pub replay_shots: usize,
}

/// One offline workload.
#[derive(Debug, Clone, Copy)]
pub struct LerSpec {
    pub name: &'static str,
    pub distance: usize,
    pub p: f64,
    /// The percentile `latency_tail_us` reports: p99 where the corpus is
    /// large, p90 at d = 15, where 320 shots (a few seconds) is what a
    /// run affords and each of three windows keeps ten samples beyond.
    pub tail: f64,
    pub full: Sizes,
    pub smoke: Sizes,
}

pub const WORKLOADS: [LerSpec; 3] = [
    LerSpec {
        name: "ler-d7-low",
        distance: 7,
        p: 1e-3,
        tail: 0.99,
        full: Sizes {
            trials_per_rep: 8_000_000,
            latency_shots: 500_000,
            barrier_trials: 262_144,
            certificate_shots: 0,
            replay_shots: 64,
        },
        smoke: Sizes {
            trials_per_rep: 200_000,
            latency_shots: 20_000,
            barrier_trials: 16_384,
            certificate_shots: 0,
            replay_shots: 8,
        },
    },
    LerSpec {
        name: "ler-d7-high",
        distance: 7,
        p: 5e-3,
        tail: 0.99,
        full: Sizes {
            trials_per_rep: 250_000,
            latency_shots: 200_000,
            barrier_trials: 262_144,
            certificate_shots: 0,
            replay_shots: 64,
        },
        smoke: Sizes {
            trials_per_rep: 10_000,
            latency_shots: 5_000,
            barrier_trials: 16_384,
            certificate_shots: 0,
            replay_shots: 8,
        },
    },
    LerSpec {
        name: "ler-d15-deep",
        distance: 15,
        p: 5e-3,
        tail: 0.9,
        full: Sizes {
            trials_per_rep: 128,
            latency_shots: 320,
            barrier_trials: 0,
            certificate_shots: 8,
            replay_shots: 32,
        },
        smoke: Sizes {
            trials_per_rep: 4,
            latency_shots: 100,
            barrier_trials: 0,
            certificate_shots: 2,
            replay_shots: 4,
        },
    },
];

/// Share of `--seconds` after which no new timed rep starts.
const THROUGHPUT_SHARE: f64 = 0.8;

fn factory() -> impl for<'a> Fn(&'a ExperimentContext) -> Box<dyn Decoder + 'a> + Sync {
    |c: &ExperimentContext| {
        Box::new(MwpmDecoder::for_context(c.decoding())) as Box<dyn Decoder + '_>
    }
}

/// The counters that do not depend on which consumer drew which tile.
/// Screen and hard caches live per consumer, so hit/miss splits and the
/// staging that cache fills trigger move with the schedule; everything
/// here is a pure function of the shot stream.
fn schedule_free(c: &PipelineCounters) -> [u64; 11] {
    [
        c.shots_screened,
        c.trivial_shots,
        c.hw1_shots,
        c.hw2_shots,
        c.closed_form_shots,
        c.hard_cache_hits + c.dp_shots,
        c.sparse_blossom_shots,
        c.hw1_key_lookups,
        c.hw2_key_lookups,
        c.ondemand.stages,
        c.graphpd.stages,
    ]
}

/// Per-layer timing of traced pipeline reps.
#[derive(Debug, Clone, Default)]
struct PipelineTrace {
    sample_ns: u64,
    sample_shots: u64,
    producer_wait_ns: u64,
    consumer_wait_ns: u64,
    decode_tile_ns: u64,
    tiles: u64,
    /// Per rep: the least busy consumer's `decode_tile` time over its
    /// wall time.
    util_min: Vec<f64>,
}

impl PipelineTrace {
    fn merge(&mut self, o: &PipelineTrace) {
        self.sample_ns += o.sample_ns;
        self.sample_shots += o.sample_shots;
        self.producer_wait_ns += o.producer_wait_ns;
        self.consumer_wait_ns += o.consumer_wait_ns;
        self.decode_tile_ns += o.decode_tile_ns;
        self.tiles += o.tiles;
        self.util_min.extend_from_slice(&o.util_min);
    }
}

fn nanos(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// `estimate_ler_streamed_counted` rebuilt from the pipeline's public
/// pieces — same layout, producer striding, channel, queue and consumer
/// loop — with timers around the sampler, the channel on both sides, and
/// `decode_tile`, and a [`TimedDecoder`] inside every consumer.
fn traced_twin(
    ctx: &ExperimentContext,
    trials: u64,
    seed: u64,
    config: PipelineConfig,
    sink: &Arc<Mutex<DecoderTrace>>,
) -> (LerResult, PipelineCounters, PipelineTrace) {
    let layout = TileLayout::new(trials as usize, config.tile_words.max(1));
    let producers = config.producers.max(1).min(layout.num_tiles());
    let (tx, rx) = tile_channel(config.channel_depth);
    let queue = TileQueue::new(rx);
    std::thread::scope(|scope| {
        let producer_handles: Vec<_> = (0..producers)
            .map(|p| {
                let tx = tx.clone();
                let mut source = config.source.sampler(ctx);
                scope.spawn(move || {
                    let mut trace = PipelineTrace::default();
                    let mut t = p;
                    while t < layout.num_tiles() {
                        let started = Instant::now();
                        let tile = source.sample_tile(seed, &layout, t);
                        trace.sample_ns += nanos(started);
                        trace.sample_shots += tile.num_shots() as u64;
                        let sending = Instant::now();
                        let sent = tx.send(tile).is_ok();
                        trace.producer_wait_ns += nanos(sending);
                        if !sent {
                            break;
                        }
                        t += producers;
                    }
                    trace
                })
            })
            .collect();
        drop(tx);
        let consumer_handles: Vec<_> = (0..config.consumers.max(1))
            .map(|_| {
                let queue = queue.clone();
                let sink = Arc::clone(sink);
                scope.spawn(move || {
                    let started = Instant::now();
                    let mut decoder =
                        TimedDecoder::new(Box::new(MwpmDecoder::for_context(ctx.decoding())), sink);
                    let mut scratch = DecodeScratch::new();
                    let mut tiles = TileScratch::with_hard_cache(config.hard_cache_entries);
                    let mut out = StreamOutcome::default();
                    let mut trace = PipelineTrace::default();
                    loop {
                        let waiting = Instant::now();
                        let tile = queue.next_tile();
                        trace.consumer_wait_ns += nanos(waiting);
                        let Some(tile) = tile else { break };
                        let decoding = Instant::now();
                        decode_tile(&mut decoder, &mut scratch, &mut tiles, &tile, &mut out);
                        trace.decode_tile_ns += nanos(decoding);
                        trace.tiles += 1;
                    }
                    let util = ratio(trace.decode_tile_ns as f64, nanos(started) as f64);
                    (out, *tiles.counters(), trace, util)
                })
            })
            .collect();
        let mut trace = PipelineTrace::default();
        for h in producer_handles {
            trace.merge(&h.join().expect("traced producer panicked"));
        }
        let mut total = StreamOutcome::default();
        let mut counters = PipelineCounters::default();
        let mut util_min = f64::INFINITY;
        for h in consumer_handles {
            let (out, c, t, util) = h.join().expect("traced consumer panicked");
            total.merge(&out);
            counters.merge(&c);
            trace.merge(&t);
            util_min = util_min.min(util);
        }
        trace.util_min.push(util_min);
        let result = LerResult {
            trials,
            failures: total.failures,
            deferred: total.deferred,
            latency: total.stats,
        };
        (result, counters, trace)
    })
}

/// Deep shots checked against the staged oracle: the total matching
/// weight of `decode_full` must agree within 1e-9 relative (a
/// certificate that survives graph-pd's tie-breaks), and a backend that
/// promises bit-identity with the oracle must also predict identically
/// on the production `decode_with_scratch` path.
fn certificate_gate(r: &mut Report, ctx: &ExperimentContext, corpus: &[Vec<u32>]) {
    let mut prod = MwpmDecoder::for_context(ctx.decoding());
    let mut oracle =
        MwpmDecoder::for_context(ctx.decoding()).with_deep_backend(DeepBackend::Staged);
    let bit_identical = prod.deep_backend() != DeepBackend::GraphPd;
    let (mut ps, mut os) = (DecodeScratch::new(), DecodeScratch::new());
    let mut bad = 0;
    for dets in corpus {
        let (w, want) = (
            prod.decode_full(dets).weight,
            oracle.decode_full(dets).weight,
        );
        let weight_ok = (w - want).abs() <= 1e-9 * want.abs().max(f64::MIN_POSITIVE);
        let prediction_ok = !bit_identical
            || prod.decode_with_scratch(dets, &mut ps) == oracle.decode_with_scratch(dets, &mut os);
        bad += u64::from(!(weight_ok && prediction_ok));
    }
    r.gate(corpus.len() as u64, bad, || {
        format!("{bad} deep shots disagree with the staged oracle")
    });
}

/// Decodes a corpus one syndrome at a time (the per-shot loop of
/// `decode_slice`) on a decoder of its own, one chunk per call, timing
/// every shot. Chunks run between throughput reps, so the latency
/// samples span the run instead of one short burst of it.
struct LatencyProbe<'a> {
    decoder: MwpmDecoder<'a>,
    scratch: DecodeScratch,
    corpus: &'a SyndromeBatch,
    latencies: Vec<u64>,
    failures: u64,
}

impl<'a> LatencyProbe<'a> {
    fn new(ctx: &'a ExperimentContext, corpus: &'a SyndromeBatch) -> LatencyProbe<'a> {
        let mut probe = LatencyProbe {
            decoder: MwpmDecoder::for_context(ctx.decoding()),
            scratch: DecodeScratch::new(),
            corpus,
            latencies: Vec::with_capacity(corpus.len()),
            failures: 0,
        };
        // Warm the arenas and tables on a prefix first.
        for i in 0..(corpus.len() / 10).min(1000) {
            black_box(probe.decode(i));
        }
        probe
    }

    fn decode(&mut self, i: usize) -> Prediction {
        let dets = self.corpus.detectors(i);
        if dets.is_empty() {
            Prediction::identity()
        } else {
            self.decoder.decode_with_scratch(dets, &mut self.scratch)
        }
    }

    fn done(&self) -> bool {
        self.latencies.len() == self.corpus.len()
    }

    /// Decodes the next of [`WINDOWS`] equal chunks.
    fn next_chunk(&mut self) {
        let start = self.latencies.len();
        let end = (start + self.corpus.len().div_ceil(WINDOWS)).min(self.corpus.len());
        for i in start..end {
            let t = Instant::now();
            let p = black_box(self.decode(i));
            self.latencies.push(nanos(t));
            self.failures += u64::from(p.observables != self.corpus.observables(i));
        }
    }
}

/// The repeated `estimate_ler` call every rep makes, and the first
/// rep's outcome every later rep must reproduce exactly.
struct Reps<'a> {
    ctx: &'a ExperimentContext,
    trials: u64,
    seed: u64,
    config: PipelineConfig,
    factory: &'a DecoderFactory<'a>,
    reference: LerResult,
    counters: PipelineCounters,
}

impl<'a> Reps<'a> {
    fn new(
        ctx: &'a ExperimentContext,
        trials: u64,
        seed: u64,
        config: PipelineConfig,
        factory: &'a DecoderFactory<'a>,
    ) -> Reps<'a> {
        let (reference, counters) =
            estimate_ler_streamed_counted(ctx, trials, seed, factory, config);
        Reps {
            ctx,
            trials,
            seed,
            config,
            factory,
            reference,
            counters,
        }
    }

    /// One untraced rep, checked; returns its rate in shots/s.
    fn untraced(&self, r: &mut Report) -> f64 {
        let t = Instant::now();
        let (res, c) = estimate_ler_streamed_counted(
            self.ctx,
            self.trials,
            self.seed,
            self.factory,
            self.config,
        );
        let rate = self.trials as f64 / t.elapsed().as_secs_f64();
        self.check(r, &res, &c);
        rate
    }

    /// Every rep decodes the same `(trials, seed)`: its result must equal
    /// the first rep's, and the tiers must partition its shots.
    fn check(&self, r: &mut Report, res: &LerResult, c: &PipelineCounters) {
        let ok = *res == self.reference
            && c.tier_sum() == c.shots_screened
            && c.shots_screened == self.trials
            && schedule_free(c) == schedule_free(&self.counters);
        let trials = self.trials;
        r.gate(trials, if ok { 0 } else { trials }, || {
            format!(
                "rep diverged: {res:?} {c:?} vs {:?} {:?}",
                self.reference, self.counters
            )
        });
    }
}

/// The first `n` shots of the workload's stream, as a batch.
fn stream_head(ctx: &ExperimentContext, seed: u64, n: usize) -> SyndromeBatch {
    let (det, obs) = BatchDemSampler::new(ctx.dem()).sample(seed, n);
    SyndromeBatch::from_packed(&det, &obs)
}

pub fn run(spec: &LerSpec, run: &Run) -> Report {
    let sizes = if run.smoke { spec.smoke } else { spec.full };
    let mut r = Report::new(spec.name, run.trace);
    let ctx = ExperimentContext::new(spec.distance, spec.p);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = PipelineConfig::for_threads(threads);
    let factory = factory();
    let reps = Reps::new(&ctx, sizes.trials_per_rep, run.seed, config, &factory);
    reps.check(&mut r, &reps.reference, &reps.counters);
    r.detail("ler_failures", reps.reference.failures as f64, "count");
    r.detail("trials_per_rep", reps.trials as f64, "count");
    r.detail("threads", threads as f64, "count");

    let mut setup = SetupTimer::new(&r, spec.distance, spec.p, || {
        ExperimentContext::new(spec.distance, spec.p)
    });
    let budget = THROUGHPUT_SHARE * run.seconds;
    if run.trace {
        traced(&mut r, &reps, budget, sizes.replay_shots, &mut setup);
    } else {
        let started = Instant::now();
        let mut rates = vec![reps.untraced(&mut r)];
        // Set-up plus two reps is the decoder stack's own footprint; read
        // it before the latency corpus and the oracle gates allocate.
        r.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
        let corpus = stream_head(&ctx, run.seed, sizes.latency_shots);
        let mut probe = LatencyProbe::new(&ctx, &corpus);
        loop {
            let more_reps = rates.len() < 3 || started.elapsed().as_secs_f64() < budget;
            if !more_reps && probe.done() {
                break;
            }
            if more_reps {
                rates.push(reps.untraced(&mut r));
            }
            probe.next_chunk();
            setup.burst();
        }
        let [q1, q2, q3] = quartiles(&rates);
        r.set("shots_per_s", q2);
        r.detail("shots_per_s.q1", q1, "shots/s");
        r.detail("shots_per_s.q3", q3, "shots/s");
        r.detail("reps", rates.len() as f64, "count");

        r.gate(corpus.len() as u64, 0, String::new);
        r.detail("latency_samples", probe.latencies.len() as f64, "count");
        r.detail("latency_failures", probe.failures as f64, "count");
        r.detail("latency_tail_quantile", spec.tail, "quantile");
        for (name, q) in [("latency_p50_us", 0.5), ("latency_tail_us", spec.tail)] {
            match windowed_percentile(&probe.latencies, q) {
                Ok(ns) => r.set(name, ns / 1e3),
                Err(e) => r.errors.push(e),
            }
        }
    }

    // The oracle gates run last: they allocate more than production does.
    if sizes.barrier_trials > 0 {
        let n = sizes.barrier_trials;
        let barrier = estimate_ler_barrier(&ctx, n, threads, run.seed, &factory);
        let (streamed, _) = estimate_ler_streamed_counted(&ctx, n, run.seed, &factory, config);
        r.gate(n, if streamed == barrier { 0 } else { n }, || {
            format!("streamed {streamed:?} != barrier {barrier:?} on a {n}-trial prefix")
        });
    }
    if sizes.certificate_shots > 0 {
        let corpus = deep_corpus(&stream_head(&ctx, run.seed, 4096), sizes.certificate_shots);
        certificate_gate(&mut r, &ctx, &corpus);
    }
    setup.report(&mut r);
    r
}

/// Traced: untraced reps and traced-twin reps alternate (which goes first
/// flips every pair) so both see the same host conditions, with a set-up
/// burst after each pair; then the deep replay.
fn traced<T>(
    r: &mut Report,
    reps: &Reps,
    budget: f64,
    replay_shots: usize,
    setup: &mut SetupTimer<impl Fn() -> T>,
) {
    let sink = Arc::new(Mutex::new(DecoderTrace::default()));
    let (mut rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut counters = PipelineCounters::default();
    let mut pipeline = PipelineTrace::default();
    let started = Instant::now();
    while traced_rates.len() < 2 || started.elapsed().as_secs_f64() < budget {
        for traced in [traced_rates.len() % 2 == 1, traced_rates.len() % 2 == 0] {
            if !traced {
                rates.push(reps.untraced(r));
                continue;
            }
            let t = Instant::now();
            let (res, c, trace) = traced_twin(reps.ctx, reps.trials, reps.seed, reps.config, &sink);
            traced_rates.push(reps.trials as f64 / t.elapsed().as_secs_f64());
            reps.check(r, &res, &c);
            counters.merge(&c);
            pipeline.merge(&trace);
        }
        setup.burst();
    }
    let n = traced_rates.len() as f64;
    let decoder = *sink.lock().expect("decoder trace sink poisoned");
    r.set("trace_overhead_pct", overhead_pct(&rates, &traced_rates));
    r.set("sample.busy_s", pipeline.sample_ns as f64 / 1e9 / n);
    r.set(
        "sample.ns_per_shot",
        ratio(pipeline.sample_ns as f64, pipeline.sample_shots as f64),
    );
    r.set(
        "pipeline.producer_wait_s",
        pipeline.producer_wait_ns as f64 / 1e9 / n,
    );
    r.set(
        "pipeline.consumer_wait_s",
        pipeline.consumer_wait_ns as f64 / 1e9 / n,
    );
    r.set(
        "pipeline.decode_tile.busy_s",
        pipeline.decode_tile_ns as f64 / 1e9 / n,
    );
    r.set("pipeline.consumer_util_min", median(&pipeline.util_min));
    r.set("pipeline.tiles", pipeline.tiles as f64 / n);
    r.set(
        "pipeline.screen.self_ns_per_shot",
        ratio(
            (pipeline.decode_tile_ns as f64 - decoder.busy_ns()).max(0.0),
            counters.shots_screened as f64,
        ),
    );
    report_counters(r, &counters);
    report_decoder(r, &decoder, n, pipeline.decode_tile_ns as f64);

    // Deep shots are rare at low p: widen the scanned head until the
    // corpus fills (or a million shots yield what they yield).
    let mut head = 4096;
    let corpus = loop {
        let corpus = deep_corpus(&stream_head(reps.ctx, reps.seed, head), replay_shots);
        if corpus.len() == replay_shots || head >= 1 << 20 {
            break corpus;
        }
        head *= 4;
    };
    let replay = replay_deep(reps.ctx.decoding(), &corpus);
    report_replay(r, &replay, decoder.deep.ns_per_shot());
    r.zero_prefix("serve.");
}
