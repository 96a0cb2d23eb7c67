//! Bit-identity of the on-demand deep-tail staging backend with the
//! staged-local oracle.
//!
//! The tentpole contract of `stage_ondemand`: a deep syndrome decoded
//! through [`DeepBackend::Ondemand`] — landmark exclusion, upper-triangle
//! rows, per-pair deadline certificates — must be indistinguishable,
//! prediction by prediction and matching by matching, from the same
//! decoder reading the staged dense block ([`DeepBackend::Staged`], the
//! PR 8 oracle). The on-demand engine reuses the staged path's exact
//! relaxation loop (same heap order, same strict-`<` rule, same bound
//! formulas), so equality is exact, not approximate. These tests enforce
//! it at d ∈ {3, 5, 7, 9} under defect densities high enough that the
//! deep tier (k > `DP_NODE_LIMIT`) actually fires: scratch decodes in
//! both weight domains, same-weight batches, the streamed pipeline
//! across tile sizes × thread splits, the serving front-end, and the
//! counters-sum invariant that proves every upper-triangle pair of a
//! non-memo stage is resolved exactly once.

use std::sync::{Arc, OnceLock};

use astrea::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Debug builds (the tier-1 `cargo test -q` gate) run a scaled-down
/// sweep so the suite stays in the seconds range; CI's dedicated
/// `cargo test --release --test ondemand_vs_staged` step runs the full
/// count. Coverage thresholds scale through the same helper so they
/// stay proportional to the shots actually taken.
fn shots(full: usize) -> usize {
    if cfg!(debug_assertions) {
        full.div_ceil(8)
    } else {
        full
    }
}

/// GWT-free contexts per (d, p). The p values are deliberately hot — at
/// these densities a large fraction of shots exceed `DP_NODE_LIMIT`
/// and exercise the deep backends (d = 3 cannot reach the deep tier at
/// any sane p — its 16 detectors rarely fire 12+ — and rides along for
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

/// An on-demand decoder and its staged oracle over the same context, on
/// the chosen weight axis.
fn decoder_pair(ctx: &ExperimentContext, quantized: bool) -> (MwpmDecoder<'_>, MwpmDecoder<'_>) {
    let ond = if quantized {
        MwpmDecoder::for_context_quantized(ctx.decoding())
    } else {
        MwpmDecoder::for_context(ctx.decoding())
    }
    .with_deep_backend(DeepBackend::Ondemand);
    let stg = ond.clone().with_deep_backend(DeepBackend::Staged);
    assert_eq!(ond.deep_backend(), DeepBackend::Ondemand);
    assert_eq!(stg.deep_backend(), DeepBackend::Staged);
    (ond, stg)
}

#[test]
fn scratch_decodes_agree_on_both_weight_axes() {
    let mut deep_total = 0u32;
    for ctx in grid() {
        for quantized in [false, true] {
            let (mut ond, mut stg) = decoder_pair(ctx, quantized);
            let mut so = DecodeScratch::new();
            let mut ss = DecodeScratch::new();
            let mut sampler = DemSampler::new(ctx.dem());
            let mut rng = StdRng::seed_from_u64(3000 + ctx.distance as u64);
            for _ in 0..shots(400) {
                let shot = sampler.sample(&mut rng);
                deep_total += (shot.detectors.len() > DP_NODE_LIMIT) as u32;
                let po = ond.decode_with_scratch(&shot.detectors, &mut so);
                let ps = stg.decode_with_scratch(&shot.detectors, &mut ss);
                assert_eq!(
                    po, ps,
                    "d = {}, quantized = {quantized}: {:?}",
                    ctx.distance, shot.detectors
                );
            }
            if ctx.distance >= 5 {
                // The comparison only means something if the deep tier
                // actually ran, and ran on-demand on exactly one side.
                assert!(!so.ondemand.stats.is_idle(), "d = {}", ctx.distance);
                assert!(so.ondemand.stats.collisions > 0, "d = {}", ctx.distance);
                assert!(ss.ondemand.stats.is_idle(), "d = {}", ctx.distance);
            }
        }
    }
    assert!(
        deep_total as usize > shots(1_000),
        "only {deep_total} deep syndromes sampled"
    );
}

#[test]
fn full_matchings_agree_with_ondemand_predictions() {
    // `decode_full` runs the same engine as the scratch path, so each
    // decoder stages deep shots with its own backend: the on-demand and
    // staged full matchings must be the same object bit for bit, and
    // the on-demand scratch prediction must land on the same observables.
    // Dispatch guard: on a deep shot the on-demand decoder never runs the
    // full per-row sweep (the provider's `stages` counter stays put),
    // while the staged decoder runs it exactly once.
    let stages = |d: &MwpmDecoder<'_>| d.local_stats().unwrap().stages;
    let mut deep = 0u64;
    for ctx in grid() {
        let (mut ond, stg) = decoder_pair(ctx, false);
        let mut so = DecodeScratch::new();
        let mut sampler = DemSampler::new(ctx.dem());
        let mut rng = StdRng::seed_from_u64(4000 + ctx.distance as u64);
        for _ in 0..shots(200) {
            let shot = sampler.sample(&mut rng);
            let (before_o, before_s) = (stages(&ond), stages(&stg));
            let fo = ond.decode_full(&shot.detectors);
            let fs = stg.decode_full(&shot.detectors);
            if shot.detectors.len() > DP_NODE_LIMIT {
                deep += 1;
                assert_eq!(stages(&ond), before_o, "d = {}", ctx.distance);
                assert_eq!(stages(&stg), before_s + 1, "d = {}", ctx.distance);
            }
            assert_eq!(
                fo.pairs, fs.pairs,
                "d = {}: {:?}",
                ctx.distance, shot.detectors
            );
            assert_eq!(fo.to_boundary, fs.to_boundary, "d = {}", ctx.distance);
            assert_eq!(fo.observables, fs.observables, "d = {}", ctx.distance);
            assert_eq!(
                fo.weight.to_bits(),
                fs.weight.to_bits(),
                "d = {}",
                ctx.distance
            );
            let po = ond.decode_with_scratch(&shot.detectors, &mut so);
            assert_eq!(po.observables, fo.observables, "d = {}", ctx.distance);
        }
    }
    assert!(
        deep as usize > shots(100),
        "only {deep} deep syndromes sampled"
    );
}

#[test]
fn ondemand_counters_partition_the_pair_count() {
    // Every upper-triangle pair of a non-memo stage is resolved exactly
    // once: excluded up front by a coordinate/landmark bound, settled
    // within its deadline (collision), or certified dominated by an
    // expired deadline. The three counters must therefore sum to
    // k·(k−1)/2 per stage — no pair double-counted, none dropped.
    for ctx in grid().iter().filter(|c| c.distance >= 5) {
        let (mut ond, _) = decoder_pair(ctx, false);
        let mut scratch = DecodeScratch::new();
        let mut sampler = DemSampler::new(ctx.dem());
        let mut rng = StdRng::seed_from_u64(5000 + ctx.distance as u64);
        let mut checked = 0u32;
        for _ in 0..shots(300) {
            let shot = sampler.sample(&mut rng);
            let k = shot.detectors.len() as u64;
            if k as usize <= DP_NODE_LIMIT {
                continue;
            }
            let before = scratch.ondemand.stats;
            ond.decode_with_scratch(&shot.detectors, &mut scratch);
            let delta = scratch.ondemand.stats.delta_since(&before);
            assert_eq!(
                delta.stages, 1,
                "d = {}: one stage per deep decode",
                ctx.distance
            );
            if delta.memo_hits > 0 {
                continue;
            }
            let pairs = k * (k - 1) / 2;
            assert_eq!(
                delta.collisions + delta.deadline_pruned + delta.excluded,
                pairs,
                "d = {}, k = {k}: counters do not partition the pair count",
                ctx.distance
            );
            assert!(delta.regions <= k, "d = {}", ctx.distance);
            assert!(delta.settled >= delta.collisions, "d = {}", ctx.distance);
            checked += 1;

            // An immediate replay of the same detector list must hit the
            // staged-block memo and do no graph work at all.
            let before = scratch.ondemand.stats;
            ond.decode_with_scratch(&shot.detectors, &mut scratch);
            let replay = scratch.ondemand.stats.delta_since(&before);
            assert_eq!(replay.memo_hits, 1, "d = {}", ctx.distance);
            assert_eq!(replay.settled + replay.regions + replay.collisions, 0);
        }
        assert!(
            checked as usize > shots(50),
            "d = {}: only {checked} deep stages checked",
            ctx.distance
        );
    }
}

#[test]
fn batched_decodes_agree() {
    // decode_slice routes same-weight runs through the fused closed-form
    // batch and everything past the closed forms through the tiered
    // per-shot path — at these densities that includes the deep tier on
    // both backends.
    for ctx in grid() {
        let batch = sample_batch(ctx, shots(3_000) as u64, 4, 177);
        let (mut ond, mut stg) = decoder_pair(ctx, false);
        let mut so = DecodeScratch::new();
        let mut ss = DecodeScratch::new();
        let ro = decode_slice(&mut ond, &mut so, &batch, 0..batch.len());
        let rs = decode_slice(&mut stg, &mut ss, &batch, 0..batch.len());
        assert_eq!(ro, rs, "d = {}", ctx.distance);
        if ctx.distance >= 5 {
            assert!(!so.ondemand.stats.is_idle(), "d = {}", ctx.distance);
            assert!(ss.ondemand.stats.is_idle(), "d = {}", ctx.distance);
        }
    }
}

#[test]
fn streamed_pipeline_agrees_across_tiles_and_threads() {
    use astrea::experiments::estimate_ler_streamed_counted;

    let ondemand: Box<astrea_experiments::DecoderFactory> = Box::new(|c: &ExperimentContext| {
        Box::new(MwpmDecoder::for_context(c.decoding()).with_deep_backend(DeepBackend::Ondemand))
            as Box<dyn Decoder + '_>
    });
    let staged: Box<astrea_experiments::DecoderFactory> = Box::new(|c: &ExperimentContext| {
        Box::new(MwpmDecoder::for_context(c.decoding()).with_deep_backend(DeepBackend::Staged))
            as Box<dyn Decoder + '_>
    });
    for ctx in grid() {
        let mut reference = None;
        for tile_words in [1usize, 2, 5] {
            for threads in [1usize, 3] {
                let config = PipelineConfig {
                    tile_words,
                    producers: 1 + threads / 2,
                    consumers: threads,
                    channel_depth: 2,
                    source: SyndromeSource::Dem,
                    hard_cache_entries: 256,
                };
                let (ro, co) =
                    estimate_ler_streamed_counted(ctx, shots(1_103) as u64, 29, &*ondemand, config);
                let (rs, cs) =
                    estimate_ler_streamed_counted(ctx, shots(1_103) as u64, 29, &*staged, config);
                assert_eq!(
                    ro, rs,
                    "d = {}: tile_words {tile_words} × {threads} threads",
                    ctx.distance
                );
                // The backend switch must be visible in the counters: the
                // on-demand run stages on-demand, the oracle never does,
                // and both surface live local-provider counters.
                if ctx.distance >= 5 {
                    assert!(!co.ondemand.is_idle(), "d = {}", ctx.distance);
                    assert!(co.ondemand.collisions > 0, "d = {}", ctx.distance);
                }
                assert!(cs.ondemand.is_idle(), "d = {}", ctx.distance);
                // The oracle stages every non-easy shot through the
                // staged path; the on-demand run's provider work is
                // visible through whichever engine its shots used (at
                // these densities d ≥ 7 is deep-only, so its staged
                // counters are legitimately zero).
                assert!(!cs.local_weights.is_idle(), "d = {}", ctx.distance);
                assert!(
                    !co.local_weights.is_idle() || !co.ondemand.is_idle(),
                    "d = {}",
                    ctx.distance
                );
                match &reference {
                    None => reference = Some(ro),
                    Some(r) => assert_eq!(&ro, r, "d = {}", ctx.distance),
                }
            }
        }
    }
}

#[test]
fn serving_front_end_agrees() {
    // The decode service running the on-demand backend must return
    // exactly the responses the staged-oracle service returns for the
    // same stream.
    for ctx in grid().iter().filter(|c| c.distance == 5 || c.distance == 7) {
        let stream = {
            let (det, obs) = BatchDemSampler::new(ctx.dem()).sample(5, 700);
            SyndromeBatch::from_packed(&det, &obs)
        };
        let mut responses: Vec<Vec<(u64, Prediction)>> = Vec::new();
        for backend in [DeepBackend::Ondemand, DeepBackend::Staged] {
            let factory: Arc<BatchDecoderFactory> = Arc::new(move |c: &DecodingContext| {
                Box::new(MwpmDecoder::for_context(c).with_deep_backend(backend)) as Box<dyn Decoder>
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
            let mut got = Vec::with_capacity(stream.len());
            for _ in 0..stream.len() {
                got.push(session.recv().expect("recv"));
            }
            drop(session);
            service.shutdown();
            responses.push(got);
        }
        assert_eq!(responses[0], responses[1], "d = {}", ctx.distance);
    }
}
