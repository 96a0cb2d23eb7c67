//! The serving workload: an in-process `DecodeService` driven by one
//! client through `ClientSession::into_split` — a submitter thread and a
//! receiver thread.
//!
//! Open loop, shots are due on a fixed schedule and latency runs from
//! the due instant to delivery, so a stall is charged to every shot it
//! delays; how late the submitter itself ran is reported separately.
//! Saturated, the submitter sends as fast as the session's credits
//! allow and the achieved rate is the service's capacity.

use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use astrea_core::{decode_slice, BatchDecoderFactory, PipelineCounters, SyndromeBatch};
use astrea_serve::{
    build_workload, ArrivalMode, DecodeService, LoadGenConfig, ServeConfig, ServiceStats,
    SubmitPolicy,
};
use blossom_mwpm::MwpmDecoder;
use decoding_graph::{DecodeScratch, Decoder, DecodingContext, Prediction};
use qec_circuit::NoiseModel;
use surface_code::SurfaceCode;

use crate::layers::{
    deep_corpus, replay_deep, report_counters, report_decoder, report_replay, SetupTimer,
};
use crate::stats::{overhead_pct, peak_rss_mb, quartiles, ratio, windowed_percentile, Report};
use crate::timed::{DecoderTrace, TimedDecoder};
use crate::Run;

pub const NAME: &str = "serve-d5";
const DISTANCE: usize = 5;
const P: f64 = 5e-3;
/// Share of shots that repeat an earlier shot of the stream — replayed
/// syndromes are what the hard cache is for.
const REPLAY_FRACTION: f64 = 0.3;
const LIGHT_RATE: f64 = 25_000.0;
/// Default open-loop rate of the heavy phase (`--heavy-rate`).
pub const HEAVY_RATE: f64 = 75_000.0;
/// The percentile `latency_tail_us` reports. About one run in ten reads
/// p99 30 % or more high, at every heavy rate from 25 k to 75 k shots/s,
/// where p98 of the same run stays within about 10 %
/// (`results/benchmark/serve-heavy-rate-sweep.json`); p99 is printed as
/// a diagnostic line.
const TAIL: f64 = 0.98;
/// Shots per saturated rep, and reps per run (median reported).
const SATURATED_SHOTS: usize = 200_000;
const SMOKE_SATURATED_SHOTS: usize = 20_000;
/// Shots of the short saturated drive after which `peak_rss_mb` is read:
/// twice the session's credit budget, so the service reaches its full
/// in-flight load while the stream and per-shot records stay near 1 MB.
const FOOTPRINT_SHOTS: usize = 8192;
const SATURATED_REPS: usize = 15;
/// Fresh-service segments the untraced heavy phase is split into, with
/// a share of the saturated reps between consecutive segments.
const HEAVY_SEGMENTS: usize = 5;
/// Leading share of an open-loop phase left out of its percentiles while
/// the service's caches fill.
const WARMUP_SHARE: f64 = 0.1;
const REPLAY_SHOTS: usize = 64;

/// What one phase observed, per shot, in nanoseconds since it began.
struct Phase {
    /// When each shot was due (open loop) or submission began.
    due: Vec<u64>,
    submit_start: Vec<u64>,
    submit_done: Vec<u64>,
    /// When the in-order delivery returned it; `u64::MAX` if it never did.
    reply: Vec<u64>,
    predictions: Vec<Prediction>,
    submit_errors: u64,
    stats: ServiceStats,
    decoder: DecoderTrace,
    /// First submission to last delivery.
    wall_ns: u64,
}

fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Plain sleeps: spinning would take a core from the service on a small
/// host. Wake-up jitter shows up as generator lag, reported on its own.
fn sleep_until(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        std::thread::sleep(target - now);
    }
}

fn factory(sink: Option<Arc<Mutex<DecoderTrace>>>) -> Arc<BatchDecoderFactory> {
    Arc::new(move |c: &DecodingContext| {
        let decoder: Box<dyn Decoder + '_> = Box::new(MwpmDecoder::for_context(c));
        match &sink {
            Some(sink) => {
                Box::new(TimedDecoder::new(decoder, Arc::clone(sink))) as Box<dyn Decoder + '_>
            }
            None => decoder,
        }
    })
}

/// Runs shots `shots` of `stream` through a fresh service, open loop at
/// `rate` shots/s or saturated when `rate` is `None`.
fn drive(
    ctx: &Arc<DecodingContext>,
    stream: &SyndromeBatch,
    shots: Range<usize>,
    rate: Option<f64>,
    traced: bool,
) -> Phase {
    let (first, n) = (shots.start, shots.len());
    let sink = traced.then(|| Arc::new(Mutex::new(DecoderTrace::default())));
    let workers = std::thread::available_parallelism().map_or(1, |c| c.get()) - 1;
    let service = DecodeService::new(
        Arc::clone(ctx),
        ServeConfig {
            workers: workers.max(1),
            ..ServeConfig::default()
        },
        factory(sink.clone()),
    );
    let (mut submit, mut recv) = service.session(SubmitPolicy::Block).into_split();
    let t0 = Instant::now();
    let (due, submit_start, submit_done, submit_errors, reply, predictions) =
        std::thread::scope(|scope| {
            let submitter = scope.spawn(move || {
                let (mut due, mut start, mut done) = (vec![0; n], vec![0; n], vec![0; n]);
                let mut errors = 0u64;
                for i in 0..n {
                    if let Some(rate) = rate {
                        due[i] = (i as f64 * 1e9 / rate) as u64;
                        sleep_until(t0 + Duration::from_nanos(due[i]));
                    }
                    start[i] = since(t0);
                    if rate.is_none() {
                        due[i] = start[i];
                    }
                    errors += u64::from(
                        submit
                            .submit(stream.detectors(first + i), stream.observables(first + i))
                            .is_err(),
                    );
                    done[i] = since(t0);
                }
                let _ = submit.flush();
                // Dropping the submit half here is what lets the receiver
                // see the end of the stream.
                (due, start, done, errors)
            });
            let mut reply = vec![u64::MAX; n];
            let mut predictions = vec![Prediction::identity(); n];
            // A service that stops answering fails the gate (its shots
            // count as lost) instead of hanging the run.
            while let Ok((seq, p)) = recv.recv_timeout(Duration::from_secs(10)) {
                let at = since(t0);
                if let Some(slot) = reply.get_mut(seq as usize) {
                    *slot = at;
                    predictions[seq as usize] = p;
                }
            }
            // Closes the credit gate, so a submitter parked on it returns.
            drop(recv);
            let (due, start, done, errors) = submitter.join().expect("submitter panicked");
            (due, start, done, errors, reply, predictions)
        });
    let stats = service.stats();
    service.shutdown();
    let decoder = sink.map_or_else(DecoderTrace::default, |s| {
        *s.lock().expect("decoder trace sink poisoned")
    });
    let last = reply.iter().copied().filter(|&t| t != u64::MAX).max();
    let wall_ns = last
        .unwrap_or(0)
        .saturating_sub(submit_start.first().copied().unwrap_or(0));
    Phase {
        due,
        submit_start,
        submit_done,
        reply,
        predictions,
        submit_errors,
        stats,
        decoder,
        wall_ns,
    }
}

impl Phase {
    fn shots(&self) -> usize {
        self.reply.len()
    }

    /// Counts the phase's shots and fails every one that errored, never
    /// came back, or differs from `offline` (the offline decode of the
    /// same shots); the service's tier counters must also account for
    /// each shot exactly once.
    fn gate(&self, r: &mut Report, label: &str, offline: &[Prediction]) {
        let n = self.shots();
        let lost = self.reply.iter().filter(|&&t| t == u64::MAX).count() as u64;
        let wrong = (0..n)
            .filter(|&i| self.reply[i] != u64::MAX && self.predictions[i] != offline[i])
            .count() as u64;
        let c = &self.stats.counters;
        let counted = c.tier_sum() == c.shots_screened && c.shots_screened == n as u64;
        let bad = (self.submit_errors + lost + wrong).max(u64::from(!counted));
        r.gate(n as u64, bad, || {
            format!(
                "{label}: {} submit errors, {lost} lost, {wrong} wrong predictions, \
                 tier sum {} over {} screened of {n}",
                self.submit_errors,
                c.tier_sum(),
                c.shots_screened
            )
        });
    }

    /// Per-shot samples of `end − begin` in submission order, skipping
    /// the warm-up head in open-loop phases.
    fn samples(&self, begin: &[u64], end: &[u64], skip_warmup: bool) -> Vec<u64> {
        let skip = if skip_warmup {
            (self.shots() as f64 * WARMUP_SHARE) as usize
        } else {
            0
        };
        (skip..self.shots())
            .filter(|&i| self.reply[i] != u64::MAX)
            .map(|i| end[i].saturating_sub(begin[i]))
            .collect()
    }

    fn latencies(&self) -> Vec<u64> {
        self.samples(&self.due, &self.reply, true)
    }

    /// Delivered shots per second over the middle 80 % of deliveries,
    /// clear of the ramp-up and the drain. Delivery is in submission
    /// order, so `reply` is already ascending.
    fn capacity(&self) -> f64 {
        let (lo, hi) = (self.shots() / 10, self.shots() * 9 / 10);
        if self.reply.get(hi).is_none_or(|&t| t == u64::MAX) {
            return 0.0;
        }
        ratio(
            (hi - lo) as f64 * 1e9,
            self.reply[hi].saturating_sub(self.reply[lo]) as f64,
        )
    }
}

/// A diagnostic percentile in µs; a refused one reads 0 and says why.
fn diagnostic_us(r: &Report, name: &str, samples: &[u64], q: f64) -> f64 {
    match windowed_percentile(samples, q) {
        Ok(ns) => ns / 1e3,
        Err(e) => {
            r.detail(&format!("{name}.refused"), samples.len() as f64, "samples");
            eprintln!("{}: {name}: {e}", r.workload);
            0.0
        }
    }
}

/// An open-loop phase's latency, generator and submit-side percentiles.
fn report_open(r: &mut Report, phase: &str, p: &Phase) {
    let lat = p.latencies();
    let lag = p.samples(&p.due, &p.submit_start, true);
    let block = p.samples(&p.submit_start, &p.submit_done, true);
    for (m, samples, q) in [
        ("p50_us", &lat, 0.5),
        ("p99_us", &lat, 0.99),
        ("p999_us", &lat, 0.999),
        ("gen_lag_us_p50", &lag, 0.5),
        ("gen_lag_us_p99", &lag, 0.99),
        ("submit_block_us_p99", &block, 0.99),
    ] {
        let name = format!("serve.{phase}.{m}");
        let v = diagnostic_us(r, &name, samples, q);
        r.set(name, v);
    }
    report_service(r, phase, p);
}

/// Tile occupancy, decoder busy time and cache hits inside the service.
fn report_service(r: &mut Report, phase: &str, p: &Phase) {
    let c = &p.stats.counters;
    r.set(
        format!("serve.{phase}.shots_per_tile"),
        ratio(p.shots() as f64, p.stats.tiles as f64),
    );
    r.set(
        format!("serve.{phase}.decoder_busy_share"),
        ratio(p.decoder.busy_ns(), p.wall_ns as f64),
    );
    r.set(
        format!("serve.{phase}.hard_cache_hit_ratio"),
        ratio(
            c.hard_cache_hits as f64,
            (c.hard_cache_hits + c.hard_cache_misses) as f64,
        ),
    );
}

/// The workload's shot stream: `shots` shots, [`REPLAY_FRACTION`] of them
/// repeats of earlier ones.
fn stream(ctx: &DecodingContext, seed: u64, shots: usize) -> SyndromeBatch {
    let cfg = LoadGenConfig {
        clients: 1,
        shots_per_client: shots,
        mode: ArrivalMode::Closed,
        replay_fraction: REPLAY_FRACTION,
        seed,
    };
    build_workload(ctx, &cfg).remove(0)
}

/// The offline decode every served prediction must equal.
fn offline(ctx: &DecodingContext, stream: &SyndromeBatch) -> Vec<Prediction> {
    let mut decoder = MwpmDecoder::for_context(ctx);
    let mut scratch = DecodeScratch::new();
    decode_slice(&mut decoder, &mut scratch, stream, 0..stream.len()).predictions
}

fn context() -> Arc<DecodingContext> {
    let code = SurfaceCode::new(DISTANCE).expect("valid distance");
    Arc::new(DecodingContext::for_memory_experiment(
        &code,
        NoiseModel::depolarizing(P),
    ))
}

pub fn run(run: &Run) -> Report {
    let mut r = Report::new(NAME, run.trace);
    let ctx = context();
    let mut setup = SetupTimer::new(&r, DISTANCE, P, context);
    let s = run.seconds;
    let heavy_rate = run.heavy_rate;
    let (light_n, heavy_n) = if run.trace {
        (
            (LIGHT_RATE * 0.2 * s) as usize,
            (heavy_rate * 0.3 * s) as usize,
        )
    } else {
        (0, (heavy_rate * 0.45 * s) as usize)
    };
    let saturated_n = if run.smoke {
        SMOKE_SATURATED_SHOTS
    } else {
        SATURATED_SHOTS
    };

    if !run.trace {
        // Set-up plus one short saturated drive is the service's own
        // footprint; read it before the long stream, its offline decode
        // and the per-shot records allocate.
        let short = stream(&ctx, run.seed, FOOTPRINT_SHOTS);
        let want = offline(&ctx, &short);
        let p = drive(&ctx, &short, 0..short.len(), None, false);
        p.gate(&mut r, "footprint", &want);
        r.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    }

    let built = Instant::now();
    let stream = stream(&ctx, run.seed, light_n.max(heavy_n).max(saturated_n));
    let build_s = built.elapsed().as_secs_f64();
    let offline = offline(&ctx, &stream);
    r.detail("stream_shots", stream.len() as f64, "count");
    r.detail("heavy_rate", heavy_rate, "shots/s");

    let saturated = 0..saturated_n;
    if !run.trace {
        // Heavy segments and saturated reps interleave, so both sample
        // the host across the whole run rather than in one burst.
        let segment = heavy_n / HEAVY_SEGMENTS;
        let (mut capacities, mut latencies) = (Vec::new(), Vec::new());
        for k in 0..HEAVY_SEGMENTS {
            for _ in 0..SATURATED_REPS / HEAVY_SEGMENTS {
                let p = drive(&ctx, &stream, saturated.clone(), None, false);
                p.gate(&mut r, "saturated", &offline[saturated.clone()]);
                capacities.push(p.capacity());
                setup.burst();
            }
            let shots = k * segment..(k + 1) * segment;
            let p = drive(&ctx, &stream, shots.clone(), Some(heavy_rate), false);
            p.gate(&mut r, "heavy", &offline[shots]);
            latencies.extend(p.latencies());
        }
        r.detail("latency_samples", latencies.len() as f64, "count");
        r.detail("latency_tail_quantile", TAIL, "quantile");
        for (name, q) in [("latency_p50_us", 0.5), ("latency_tail_us", TAIL)] {
            match windowed_percentile(&latencies, q) {
                Ok(ns) => r.set(name, ns / 1e3),
                Err(e) => r.errors.push(e),
            }
        }
        let p99 = diagnostic_us(&r, "latency_p99_us", &latencies, 0.99);
        r.detail("latency_p99_us", p99, "us");
        let [q1, q2, q3] = quartiles(&capacities);
        r.set("shots_per_s", q2);
        r.detail("shots_per_s.q1", q1, "shots/s");
        r.detail("shots_per_s.q3", q3, "shots/s");
        setup.report(&mut r);
        return r;
    }

    // Traced: each saturated rep is an untraced and a traced run whose
    // order flips from rep to rep.
    let (mut capacities, mut traced_capacities) = (Vec::new(), Vec::new());
    let mut traced = TracedPhases::default();
    for rep in 0..SATURATED_REPS {
        let order = if rep % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for trace in order {
            let p = drive(&ctx, &stream, saturated.clone(), None, trace);
            p.gate(&mut r, "saturated", &offline[saturated.clone()]);
            if trace {
                traced_capacities.push(p.capacity());
                traced.absorb(p);
            } else {
                capacities.push(p.capacity());
            }
        }
        setup.burst();
    }

    let light = drive(&ctx, &stream, 0..light_n, Some(LIGHT_RATE), true);
    light.gate(&mut r, "light", &offline[..light_n]);
    report_open(&mut r, "light", &light);
    let heavy = drive(&ctx, &stream, 0..heavy_n, Some(heavy_rate), true);
    heavy.gate(&mut r, "heavy", &offline[..heavy_n]);
    report_open(&mut r, "heavy", &heavy);
    let saturated = traced.last.take().expect("a traced saturated rep ran");
    let block = saturated.samples(&saturated.submit_start, &saturated.submit_done, false);
    let v = diagnostic_us(&r, "serve.saturated.submit_block_us_p99", &block, 0.99);
    r.set("serve.saturated.submit_block_us_p99", v);
    report_service(&mut r, "saturated", &saturated);
    traced.absorb(light);
    traced.absorb(heavy);

    r.set(
        "trace_overhead_pct",
        overhead_pct(&capacities, &traced_capacities),
    );
    r.set("sample.busy_s", build_s);
    r.set("sample.ns_per_shot", build_s * 1e9 / stream.len() as f64);
    r.zero_prefix("pipeline.");
    report_counters(&mut r, &traced.counters);
    report_decoder(
        &mut r,
        &traced.decoder,
        traced.phases as f64,
        traced.wall_ns as f64,
    );
    let replay = replay_deep(&ctx, &deep_corpus(&stream, REPLAY_SHOTS));
    report_replay(&mut r, &replay, traced.decoder.deep.ns_per_shot());
    setup.report(&mut r);
    r
}

/// Service counters and decoder time summed over every traced phase.
#[derive(Default)]
struct TracedPhases {
    phases: usize,
    counters: PipelineCounters,
    decoder: DecoderTrace,
    wall_ns: u64,
    /// The latest phase absorbed, kept for its per-phase metrics.
    last: Option<Phase>,
}

impl TracedPhases {
    fn absorb(&mut self, p: Phase) {
        self.phases += 1;
        self.counters.merge(&p.stats.counters);
        self.decoder.merge(&p.decoder);
        self.wall_ns += p.wall_ns;
        self.last = Some(p);
    }
}
