//! Certificates and statistical gates for the price-and-repair deep-tail
//! backend.
//!
//! [`DeepBackend::GraphPd`] is explicitly **not** bit-identical to the
//! on-demand/staged engines: a pair settled from its higher slot rounds
//! its f64 sum differently, unsearched pairs are solved at their
//! via-boundary weight, and equal-weight matchings may tie-break
//! differently. Its contract is therefore proven three ways:
//!
//! 1. **Per-shot weight certificates** — every graph-pd matching is a
//!    perfect matching over the shot's detectors whose total weight,
//!    re-evaluated under the *oracle's* staged weights, equals the
//!    on-demand optimum in both weight domains (exact and quantized).
//!    Distinct matchings differ by whole error mechanisms (≥ ~10⁻³ in
//!    −log₁₀ P units), so the 10⁻⁶-relative tolerance separates "same
//!    optimum, different rounding" from any real suboptimality.
//! 2. **Self-consistency** — the backend is deterministic per detector
//!    list, so scratch, allocating, batched, streamed (any tile size ×
//!    thread split), and served decodes must agree bit for bit *with
//!    each other*.
//! 3. **A statistical LER gate** — two-proportion equivalence against
//!    the on-demand backend on the same sampled stream at deep-tier-hot
//!    p, which is what bounds the tie-break surface's effect on logical
//!    accuracy.
//!
//! Counter drift guards ride along: a graph-pd run must leave the
//! on-demand counters idle and vice versa, so a dispatch regression
//! cannot silently decode on the wrong engine.

use std::sync::{Arc, OnceLock};

use astrea::prelude::*;
use blossom_mwpm::MatchingSolution;
use decoding_graph::quantize;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Debug builds (the tier-1 `cargo test -q` gate) run a scaled-down
/// sweep; CI's dedicated `cargo test --release --test graphpd_vs_ondemand`
/// step runs the full count. Thresholds scale through the same helper.
fn shots(full: usize) -> usize {
    if cfg!(debug_assertions) {
        full.div_ceil(8)
    } else {
        full
    }
}

/// GWT-free contexts per (d, p), deliberately hot so the deep tier
/// (k > `DP_NODE_LIMIT`) actually fires (d = 3 rides along for
/// trivial-agreement coverage).
fn grid() -> &'static [ExperimentContext] {
    static GRID: OnceLock<Vec<ExperimentContext>> = OnceLock::new();
    GRID.get_or_init(|| {
        [(3usize, 3e-2), (5, 3e-2), (7, 1.5e-2), (9, 1e-2)]
            .into_iter()
            .map(|(d, p)| {
                let ctx = ExperimentContext::with_source(d, p, WeightSource::Local);
                assert!(
                    ctx.decoding().try_gwt().is_none(),
                    "local context built a GWT"
                );
                ctx
            })
            .collect()
    })
}

/// A graph-pd decoder and an on-demand reference over the same context,
/// on the chosen weight axis.
fn decoder_pair(ctx: &ExperimentContext, quantized: bool) -> (MwpmDecoder<'_>, MwpmDecoder<'_>) {
    let ond = if quantized {
        MwpmDecoder::for_context_quantized(ctx.decoding())
    } else {
        MwpmDecoder::for_context(ctx.decoding())
    }
    .with_deep_backend(DeepBackend::Ondemand);
    let gpd = ond.clone().with_deep_backend(DeepBackend::GraphPd);
    assert_eq!(ond.deep_backend(), DeepBackend::Ondemand);
    assert_eq!(gpd.deep_backend(), DeepBackend::GraphPd);
    (gpd, ond)
}

/// Re-evaluates a matching under the oracle's staged weights: the sum of
/// its pair weights (clamped exactly as the deep solvers clamp them) and
/// boundary weights on the chosen axis. The oracle must have staged a
/// superset of the solution's detectors.
fn matching_weight(sol: &MatchingSolution, oracle: &LocalWeightProvider, quantized: bool) -> f64 {
    // The deep solvers substitute 2 × WEIGHT_CLAMP (= 2e4) for dominated
    // pairs; no finite surface-code weight approaches it, so the clamp
    // only normalizes the INFINITY sentinels.
    let clamp = 2e4;
    let bt = oracle.boundary();
    let scale = bt.scale();
    let mut w = 0.0;
    for &(a, b) in &sol.pairs {
        let pw = if quantized {
            quantize(oracle.pair_weight(a, b), scale) as f64 / scale
        } else {
            oracle.pair_weight(a, b)
        };
        w += pw.min(clamp);
    }
    for &a in &sol.to_boundary {
        w += if quantized {
            bt.weight_q(a) as f64 / scale
        } else {
            bt.weight(a)
        };
    }
    w
}

#[test]
fn weight_certificates_hold_on_both_axes() {
    // Sampled deep syndromes plus randomized detector subsets (the
    // proptest-style sweep: arbitrary densities and k well past the DP
    // band, not just what the noise model produces). For every shot,
    // both backends' full matchings are perfect over the detectors and
    // carry equal total weight under one canonical staged oracle, on
    // both weight axes; the graph-pd scratch prediction agrees with its
    // own allocating path bit for bit.
    let mut deep_total = 0u32;
    for ctx in grid() {
        let boundary = ctx.decoding().boundary();
        let mut oracle = LocalWeightProvider::new(ctx.graph(), boundary);
        for quantized in [false, true] {
            let (mut gpd, mut ond) = decoder_pair(ctx, quantized);
            let mut sg = DecodeScratch::new();
            let mut so = DecodeScratch::new();
            let mut sampler = DemSampler::new(ctx.dem());
            let mut rng = StdRng::seed_from_u64(6000 + ctx.distance as u64);
            let n = ctx.graph().num_detectors() as u32;
            for round in 0..shots(240) {
                let detectors: Vec<u32> = if round % 3 == 2 {
                    // Random subset at a random density (possibly far
                    // above what sampling produces).
                    let density = rng.gen_range(0.02..0.25);
                    (0..n).filter(|_| rng.gen_bool(density)).collect()
                } else {
                    sampler.sample(&mut rng).detectors.clone()
                };
                deep_total += (detectors.len() > DP_NODE_LIMIT) as u32;
                let pg = gpd.decode_with_scratch(&detectors, &mut sg);
                let fg = gpd.decode_full(&detectors);
                let fo = ond.decode_full(&detectors);
                assert_eq!(
                    pg.observables, fg.observables,
                    "d = {}, quantized = {quantized}: scratch != full",
                    ctx.distance
                );
                assert!(fg.is_perfect_over(&detectors), "d = {}", ctx.distance);
                assert!(fo.is_perfect_over(&detectors), "d = {}", ctx.distance);
                oracle.stage(&detectors);
                let wg = matching_weight(&fg, &oracle, quantized);
                let wo = matching_weight(&fo, &oracle, quantized);
                assert!(
                    (wg - wo).abs() <= 1e-6 * (1.0 + wo.abs()),
                    "d = {}, quantized = {quantized}: graph-pd matching weighs {wg}, \
                     oracle optimum {wo} ({detectors:?})",
                    ctx.distance
                );
                ond.decode_with_scratch(&detectors, &mut so);
            }
            if ctx.distance >= 5 {
                // Drift guard: each backend drives only its own engine.
                assert!(!sg.graphpd.stats.is_idle(), "d = {}", ctx.distance);
                assert!(sg.graphpd.stats.merges > 0, "d = {}", ctx.distance);
                assert!(sg.ondemand.stats.is_idle(), "d = {}", ctx.distance);
                assert!(!so.ondemand.stats.is_idle(), "d = {}", ctx.distance);
                assert!(so.graphpd.stats.is_idle(), "d = {}", ctx.distance);
            }
        }
    }
    assert!(
        deep_total as usize > shots(1_000),
        "only {deep_total} deep syndromes exercised"
    );

    // The regime the default engine exists for: d = 15 at p = 5×10⁻³,
    // past the GWT budget, where every shot is deep. The default decoder
    // (graph-pd) must return a perfect matching whose weight equals the
    // staged oracle's optimum, both as the decoders report it and
    // re-evaluated under the oracle's own staged weights. The release
    // corpus is large enough to hold shots whose seed-only solve is
    // suboptimal, so a pricer that never repairs fails here.
    let ctx = ExperimentContext::new(15, 5e-3);
    assert!(ctx.decoding().try_gwt().is_none(), "d = 15 built a GWT");
    let mut oracle = LocalWeightProvider::new(ctx.graph(), ctx.decoding().boundary());
    let mut sampler = DemSampler::new(ctx.dem());
    let mut rng = StdRng::seed_from_u64(6015);
    let corpus: Vec<Vec<u32>> =
        std::iter::repeat_with(|| sampler.sample(&mut rng).detectors.clone())
            .filter(|d| d.len() > DP_NODE_LIMIT)
            .take(shots(160))
            .collect();
    for quantized in [false, true] {
        let prod = if quantized {
            MwpmDecoder::for_context_quantized(ctx.decoding())
        } else {
            MwpmDecoder::for_context(ctx.decoding())
        };
        assert_eq!(prod.deep_backend(), DeepBackend::GraphPd);
        let staged = prod.clone().with_deep_backend(DeepBackend::Staged);
        for detectors in &corpus {
            let fp = prod.decode_full(detectors);
            let fs = staged.decode_full(detectors);
            assert!(
                fp.is_perfect_over(detectors),
                "d = 15, quantized = {quantized}"
            );
            oracle.stage(detectors);
            let want = fs.weight;
            for (what, got) in [
                ("reported", fp.weight),
                ("re-evaluated", matching_weight(&fp, &oracle, quantized)),
            ] {
                assert!(
                    (got - want).abs() <= 1e-6 * want.abs().max(1.0),
                    "d = 15, quantized = {quantized}: default decoder's {what} weight {got}, \
                     staged optimum {want} (k = {})",
                    detectors.len()
                );
            }
        }
    }
}

#[test]
fn graphpd_counters_partition_the_pair_count() {
    // Every pair of a non-memo graph-pd stage ends counted exactly once
    // when the price-and-repair loop exits: exact (merge), proved
    // dominated by a search, or never searched (excluded). The three
    // counters must sum to k·(k−1)/2 per stage, and a replay of the same
    // list must be a pure memo hit.
    for ctx in grid().iter().filter(|c| c.distance >= 5) {
        let (mut gpd, _) = decoder_pair(ctx, false);
        let mut scratch = DecodeScratch::new();
        let mut sampler = DemSampler::new(ctx.dem());
        let mut rng = StdRng::seed_from_u64(7000 + ctx.distance as u64);
        let mut checked = 0u32;
        for _ in 0..shots(300) {
            let shot = sampler.sample(&mut rng);
            let k = shot.detectors.len() as u64;
            if k as usize <= DP_NODE_LIMIT {
                continue;
            }
            let before = scratch.graphpd.stats;
            gpd.decode_with_scratch(&shot.detectors, &mut scratch);
            let delta = scratch.graphpd.stats.delta_since(&before);
            assert_eq!(delta.stages, 1, "d = {}", ctx.distance);
            if delta.memo_hits > 0 {
                continue;
            }
            let pairs = k * (k - 1) / 2;
            assert_eq!(
                delta.merges + delta.deadline_pruned + delta.excluded,
                pairs,
                "d = {}, k = {k}: counters do not partition the pair count",
                ctx.distance
            );
            assert!(delta.regions <= k, "d = {}", ctx.distance);
            assert!(delta.grows >= delta.regions, "d = {}", ctx.distance);
            checked += 1;

            let before = scratch.graphpd.stats;
            gpd.decode_with_scratch(&shot.detectors, &mut scratch);
            let replay = scratch.graphpd.stats.delta_since(&before);
            assert_eq!(replay.memo_hits, 1, "d = {}", ctx.distance);
            assert_eq!(replay.grows + replay.regions + replay.merges, 0);
        }
        assert!(
            checked as usize > shots(50),
            "d = {}: only {checked} deep stages checked",
            ctx.distance
        );
        // The whole sweep must never have touched the on-demand engine.
        assert!(scratch.ondemand.stats.is_idle(), "d = {}", ctx.distance);
    }
}

#[test]
fn batched_decodes_match_per_shot_decodes() {
    // decode_slice routes shots through the closed-form batches and the
    // tiered per-shot path; under graph-pd the batched predictions must
    // equal a fresh per-shot sweep of the same decoder bit for bit.
    for ctx in grid() {
        let batch = sample_batch(ctx, shots(3_000) as u64, 4, 911);
        let (mut gpd, _) = decoder_pair(ctx, false);
        let mut sb = DecodeScratch::new();
        let outcome = decode_slice(&mut gpd, &mut sb, &batch, 0..batch.len());
        let mut sp = DecodeScratch::new();
        let mut failures = 0u64;
        for i in 0..batch.len() {
            let p = gpd.decode_with_scratch(batch.detectors(i), &mut sp);
            assert_eq!(p, outcome.predictions[i], "d = {}, shot {i}", ctx.distance);
            failures += u64::from(p.observables != batch.observables(i));
        }
        assert_eq!(outcome.failures, failures, "d = {}", ctx.distance);
        if ctx.distance >= 5 {
            assert!(!sb.graphpd.stats.is_idle(), "d = {}", ctx.distance);
            assert!(sb.ondemand.stats.is_idle(), "d = {}", ctx.distance);
        }
    }
}

#[test]
fn streamed_pipeline_is_invariant_and_ler_equivalent() {
    use astrea::experiments::estimate_ler_streamed_counted;

    // Graph-pd is deterministic per detector list, so the streamed
    // result must be invariant across tile sizes × thread splits; and on
    // the same sampled stream its failure count must be statistically
    // indistinguishable from the on-demand backend's (two-proportion
    // z-gate — the backends may differ on individual tie shots, but any
    // systematic accuracy gap would show here).
    let gpd = mwpm_factory(DeepBackend::GraphPd);
    let ond = mwpm_factory(DeepBackend::Ondemand);
    for ctx in grid() {
        let trials = shots(4_400) as u64;
        let mut reference = None;
        let mut gpd_failures = 0u64;
        let mut ond_failures = 0u64;
        for (tile_words, threads) in [(1usize, 1usize), (2, 3), (5, 2)] {
            let config = PipelineConfig {
                tile_words,
                producers: 1 + threads / 2,
                consumers: threads,
                channel_depth: 2,
                source: SyndromeSource::Dem,
                hard_cache_entries: 256,
            };
            let (rg, cg) = estimate_ler_streamed_counted(ctx, trials, 37, &gpd, config);
            // Backend drift guard at the pipeline level.
            if ctx.distance >= 5 {
                assert!(!cg.graphpd.is_idle(), "d = {}", ctx.distance);
                assert!(cg.graphpd.merges > 0, "d = {}", ctx.distance);
            }
            assert!(cg.ondemand.is_idle(), "d = {}", ctx.distance);
            match &reference {
                None => {
                    let (ro, co) = estimate_ler_streamed_counted(ctx, trials, 37, &ond, config);
                    assert!(co.graphpd.is_idle(), "d = {}", ctx.distance);
                    if ctx.distance >= 5 {
                        assert!(!co.ondemand.is_idle(), "d = {}", ctx.distance);
                    }
                    gpd_failures = rg.failures;
                    ond_failures = ro.failures;
                    reference = Some(rg);
                }
                Some(r) => assert_eq!(
                    &rg, r,
                    "d = {}: tile_words {tile_words} × {threads} threads",
                    ctx.distance
                ),
            }
        }
        // Two-proportion z-gate on the same stream. Outcomes are paired
        // (only tie shots can differ), so the unpaired variance estimate
        // is conservative.
        let (f1, f2, n) = (gpd_failures as f64, ond_failures as f64, trials as f64);
        let pooled = (f1 + f2) / (2.0 * n);
        if pooled > 0.0 {
            let se = (2.0 * pooled * (1.0 - pooled) / n).sqrt();
            let z = (f1 - f2) / se;
            assert!(
                z.abs() < 5.0,
                "d = {}: graph-pd LER diverges from on-demand \
                 ({gpd_failures} vs {ond_failures} failures in {trials} shots, z = {z:.2})",
                ctx.distance
            );
        }
    }
}

#[test]
fn serving_front_end_matches_offline_decodes() {
    // A decode service running the graph-pd backend must return, shot
    // for shot, exactly what an offline scratch decode of the same
    // stream produces.
    for ctx in grid().iter().filter(|c| c.distance == 5 || c.distance == 7) {
        let stream = {
            let (det, obs) = BatchDemSampler::new(ctx.dem()).sample(5, 700);
            SyndromeBatch::from_packed(&det, &obs)
        };
        let factory: Arc<BatchDecoderFactory> = Arc::new(move |c: &DecodingContext| {
            Box::new(MwpmDecoder::for_context(c).with_deep_backend(DeepBackend::GraphPd))
                as Box<dyn Decoder>
        });
        let service = DecodeService::new(
            Arc::new(ctx.decoding().clone()),
            ServeConfig {
                workers: 3,
                tile_words: 2,
                ..ServeConfig::default()
            },
            factory,
        );
        let mut session = service.session(SubmitPolicy::Block);
        for i in 0..stream.len() {
            session
                .submit(stream.detectors(i), stream.observables(i))
                .expect("submit");
        }
        let mut got: Vec<(u64, Prediction)> = Vec::with_capacity(stream.len());
        for _ in 0..stream.len() {
            got.push(session.recv().expect("recv"));
        }
        drop(session);
        service.shutdown();
        got.sort_unstable_by_key(|&(id, _)| id);
        let (mut offline, _) = decoder_pair(ctx, false);
        let mut scratch = DecodeScratch::new();
        for (id, served) in got {
            let want = offline.decode_with_scratch(stream.detectors(id as usize), &mut scratch);
            assert_eq!(served, want, "d = {}, shot {id}", ctx.distance);
        }
        if ctx.distance >= 5 {
            assert!(!scratch.graphpd.stats.is_idle(), "d = {}", ctx.distance);
        }
    }
}
