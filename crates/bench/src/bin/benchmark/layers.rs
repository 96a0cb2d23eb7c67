//! Pieces both workload families share: set-up timing, the deep-tail
//! replay, and the per-layer metrics derived from counters and decoder
//! time.

use std::hint::black_box;
use std::time::Instant;

use astrea_core::{PipelineCounters, SyndromeBatch};
use blossom_mwpm::{DeepBackend, MwpmDecoder, DP_NODE_LIMIT};
use decoding_graph::{
    DecodeScratch, Decoder, DecodingContext, GraphPdScratch, LocalWeightProvider, OndemandScratch,
};
use qec_circuit::{build_memory_z_circuit, NoiseModel};
use surface_code::SurfaceCode;

use crate::stats::{median, ratio, Report};
use crate::timed::DecoderTrace;

/// Least time one [`SetupTimer::burst`] spends building.
const BURST_S: f64 = 0.02;
/// Fewest builds a set-up time is the median of.
const MIN_BUILDS: usize = 5;

/// Times a workload's context construction in short bursts spread over
/// the run, and reports the median build as `setup_s` — or, traced, its
/// split into `setup.dem_s` (circuit construction plus
/// `Circuit::detector_error_model` alone) and `setup.context_s` (the
/// rest). On a shared host a core runs up to half again as slow for a
/// second or so at a time; builds spread over the whole run let the
/// median see through such a spell, where one burst at the start reads
/// whatever that first second was.
pub struct SetupTimer<F> {
    build: F,
    distance: usize,
    p: f64,
    split: bool,
    builds: Vec<f64>,
    dems: Vec<f64>,
}

impl<T, F: Fn() -> T> SetupTimer<F> {
    pub fn new(r: &Report, distance: usize, p: f64, build: F) -> SetupTimer<F> {
        SetupTimer {
            build,
            distance,
            p,
            split: r.traced(),
            builds: Vec::new(),
            dems: Vec::new(),
        }
    }

    fn build_once(&mut self) {
        if self.split {
            let t = Instant::now();
            let code = SurfaceCode::new(self.distance).expect("valid distance");
            let noise = NoiseModel::depolarizing(self.p);
            let circuit = build_memory_z_circuit(&code, self.distance, noise);
            black_box(circuit.detector_error_model());
            self.dems.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        black_box((self.build)());
        self.builds.push(t.elapsed().as_secs_f64());
    }

    /// Builds once, then again until [`BURST_S`] has passed.
    pub fn burst(&mut self) {
        let started = Instant::now();
        self.build_once();
        while started.elapsed().as_secs_f64() < BURST_S {
            self.build_once();
        }
    }

    /// Records the set-up metrics, first topping the builds up to
    /// [`MIN_BUILDS`].
    pub fn report(mut self, r: &mut Report) {
        while self.builds.len() < MIN_BUILDS {
            self.build_once();
        }
        r.detail("setup_builds", self.builds.len() as f64, "count");
        if self.split {
            // The rest is taken per round, against the DEM timed just
            // before it: at d = 15 the DEM is ~95 % of a build, and the
            // difference of two medians taken seconds apart drowns in
            // the host's drift.
            let rest: Vec<f64> = self
                .builds
                .iter()
                .zip(&self.dems)
                .map(|(b, d)| b - d)
                .collect();
            r.set("setup.dem_s", median(&self.dems));
            r.set("setup.context_s", median(&rest).max(0.0));
        } else {
            r.set("setup_s", median(&self.builds));
        }
    }
}

/// Up to `max` distinct deep syndromes (more than [`DP_NODE_LIMIT`]
/// fired detectors) from `batch`, in stream order. Stream order is what
/// makes the sample unbiased: inside the pipeline the deep tier sees a
/// tile's shots in ascending weight.
pub fn deep_corpus(batch: &SyndromeBatch, max: usize) -> Vec<Vec<u32>> {
    let mut out: Vec<Vec<u32>> = Vec::new();
    for i in 0..batch.len() {
        if out.len() == max {
            break;
        }
        let dets = batch.detectors(i);
        if dets.len() > DP_NODE_LIMIT && !out.iter().any(|o| o == dets) {
            out.push(dets.to_vec());
        }
    }
    out
}

/// Deep-tail time split by layer on a replayed corpus.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub shots: usize,
    /// Mean per-shot time of the staging engine alone.
    pub stage_ns: f64,
    /// Mean per-shot time of a whole `decode_with_scratch` (staging,
    /// cluster split, solve).
    pub decode_ns: f64,
}

/// Passes over the deep corpus in the replay (per-shot median).
const REPLAY_PASSES: usize = 3;

/// Replays `corpus` through the staging engine the default decoder
/// selects (on a provider of its own) and through a fresh decoder,
/// [`REPLAY_PASSES`] times each, keeping each shot's median. Whole passes
/// of one kind run back to back, so neither side inherits a cache the
/// other warmed with the same shot. On a table-backed context nothing is
/// staged and the stage time is zero.
pub fn replay_deep(ctx: &DecodingContext, corpus: &[Vec<u32>]) -> Replay {
    let n = corpus.len();
    // A single syndrome restaged back to back would hit the memo.
    let passes = if n < 2 { 1 } else { REPLAY_PASSES };
    let mut decoder = MwpmDecoder::for_context(ctx);
    let backend = decoder.deep_backend();
    let mut provider = ctx
        .try_gwt()
        .is_none()
        .then(|| LocalWeightProvider::new(ctx.graph(), ctx.boundary()));
    let (mut od, mut gp) = (OndemandScratch::new(), GraphPdScratch::new());
    let mut scratch = DecodeScratch::new();
    let (mut stage, mut decode) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    for _ in 0..passes {
        if let Some(provider) = provider.as_mut() {
            for (dets, times) in corpus.iter().zip(stage.iter_mut()) {
                let t = Instant::now();
                match backend {
                    DeepBackend::Ondemand => provider.stage_ondemand(dets, &mut od),
                    DeepBackend::GraphPd => provider.stage_graph_pd(dets, &mut gp),
                    DeepBackend::Staged => provider.stage(dets),
                }
                times.push(t.elapsed().as_nanos() as f64);
            }
        }
        for (dets, times) in corpus.iter().zip(decode.iter_mut()) {
            let t = Instant::now();
            black_box(decoder.decode_with_scratch(dets, &mut scratch));
            times.push(t.elapsed().as_nanos() as f64);
        }
    }
    let mean_of_medians = |v: &[Vec<f64>]| {
        let total = v
            .iter()
            .filter(|t| !t.is_empty())
            .fold(0.0, |sum, t| sum + median(t));
        ratio(total, n as f64)
    };
    Replay {
        shots: n,
        stage_ns: mean_of_medians(&stage),
        decode_ns: mean_of_medians(&decode),
    }
}

/// Tier shares, screen-cache ratios and staging-engine work per stage,
/// all exact counts from the pipeline counters.
pub fn report_counters(r: &mut Report, c: &PipelineCounters) {
    let shots = c.shots_screened as f64;
    r.set("tier.trivial", ratio(c.trivial_shots as f64, shots));
    r.set("tier.hw1", ratio(c.hw1_shots as f64, shots));
    r.set("tier.hw2", ratio(c.hw2_shots as f64, shots));
    r.set("tier.closed_form", ratio(c.closed_form_shots as f64, shots));
    r.set(
        "tier.hard_cache_hit",
        ratio(c.hard_cache_hits as f64, shots),
    );
    r.set("tier.dp", ratio(c.dp_shots as f64, shots));
    r.set("tier.deep", ratio(c.sparse_blossom_shots as f64, shots));
    r.set(
        "screen.hard_cache.hit_ratio",
        ratio(
            c.hard_cache_hits as f64,
            (c.hard_cache_hits + c.hard_cache_misses) as f64,
        ),
    );
    r.set(
        "screen.hw2_keys_per_shot",
        ratio(c.hw2_key_lookups as f64, c.hw2_shots as f64),
    );
    let (od, gp) = (&c.ondemand, &c.graphpd);
    r.set(
        "ondemand.settled_per_stage",
        ratio(od.settled as f64, (od.stages - od.memo_hits) as f64),
    );
    let gp_stages = (gp.stages - gp.memo_hits) as f64;
    r.set("graphpd.grows_per_stage", ratio(gp.grows as f64, gp_stages));
    r.set(
        "graphpd.merges_per_stage",
        ratio(gp.merges as f64, gp_stages),
    );
    // Every pair of a non-memo stage is resolved exactly one way.
    let pairs = (od.collisions
        + od.deadline_pruned
        + od.excluded
        + gp.merges
        + gp.deadline_pruned
        + gp.excluded) as f64;
    r.set(
        "staging.excluded_ratio",
        ratio((od.excluded + gp.excluded) as f64, pairs),
    );
    r.set(
        "staging.pruned_ratio",
        ratio((od.deadline_pruned + gp.deadline_pruned) as f64, pairs),
    );
}

/// Decoder-layer metrics: calls per run, time per shot by band, and the
/// share of `busy_ns` (the time of whatever called the decoder) spent
/// inside it.
pub fn report_decoder(r: &mut Report, t: &DecoderTrace, runs: f64, busy_ns: f64) {
    r.set(
        "decoder.easy_fill.calls",
        ratio(t.easy_fill.calls as f64, runs),
    );
    r.set(
        "decoder.closed_form.ns_per_shot",
        t.closed_form.ns_per_shot(),
    );
    r.set(
        "decoder.closed_form.batch_len",
        ratio(t.closed_form.shots as f64, t.closed_form.calls as f64),
    );
    r.set("decoder.dp.ns_per_shot", t.dp.ns_per_shot());
    r.set("decoder.deep.ns_per_shot", t.deep.ns_per_shot());
    r.set(
        "decoder.deep.mean_k",
        ratio(t.deep.k_sum as f64, t.deep.shots as f64),
    );
    r.set("decoder.busy_share", ratio(t.busy_ns(), busy_ns));
}

/// Deep-replay metrics; `deep_ns_per_shot` is the decoder's own deep
/// time per shot from the traced run, which the replay should explain.
pub fn report_replay(r: &mut Report, replay: &Replay, deep_ns_per_shot: f64) {
    r.set("deep.replay_shots", replay.shots as f64);
    r.set("deep.stage_ns_per_shot", replay.stage_ns);
    r.set(
        "deep.solve_ns_per_shot",
        (replay.decode_ns - replay.stage_ns).max(0.0),
    );
    r.set("deep.stage_share", ratio(replay.stage_ns, replay.decode_ns));
    r.set(
        "deep.explained_share",
        ratio(replay.decode_ns, deep_ns_per_shot),
    );
}
