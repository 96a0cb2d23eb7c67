//! Bit-identity of the GWT-free local weight path with the Global
//! Weight Table path.
//!
//! The tentpole contract of the staged `LocalWeightProvider`: a decoder
//! reading per-shot truncated-Dijkstra weights must be indistinguishable
//! — prediction by prediction, matching by matching, bit by bit — from
//! the same decoder reading the precomputed O(ℓ²) table. The provider
//! replays the GWT's exact relaxation order over a truncated frontier
//! and stages `INFINITY` for pairs it can prove boundary-dominated, so
//! equality is exact, not approximate. These tests enforce it at
//! d ∈ {3, 5, 7, 9, 11} — the last two still inside the 32 MiB GWT
//! auto-budget, so the truncation and settle-bound edge cases between
//! the toy distances and the GWT-free regime are differentially
//! covered — across the full decode surface: allocating decodes
//! (`decode_full`), scratch decodes on both the exact and quantized
//! weight axes, same-weight batches, the streamed pipeline across tile
//! sizes × thread splits, and the serving front-end.

use std::sync::{Arc, OnceLock};

use astrea::prelude::*;
use astrea_core::PipelineCounters;
use astrea_experiments::estimate_ler_streamed_counted;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Debug builds (the tier-1 `cargo test -q` gate) run a scaled-down
/// sweep so the suite stays in the seconds range; CI's dedicated
/// `cargo test --release --test local_vs_gwt` step runs the full count.
fn shots(full: usize) -> usize {
    if cfg!(debug_assertions) {
        full.div_ceil(8)
    } else {
        full
    }
}

/// (GWT-backed, GWT-free) context pairs per (d, p); built once — DEM
/// extraction dominates and both contexts share it logically.
fn grid() -> &'static [(ExperimentContext, ExperimentContext)] {
    static GRID: OnceLock<Vec<(ExperimentContext, ExperimentContext)>> = OnceLock::new();
    GRID.get_or_init(|| {
        [(3usize, 8e-3), (5, 5e-3), (7, 3e-3), (9, 3e-3), (11, 2e-3)]
            .into_iter()
            .map(|(d, p)| {
                let g = ExperimentContext::with_source(d, p, WeightSource::Gwt);
                let l = ExperimentContext::with_source(d, p, WeightSource::Local);
                assert!(
                    l.decoding().try_gwt().is_none(),
                    "local context built a GWT"
                );
                (g, l)
            })
            .collect()
    })
}

/// Pins the deep-tail engine that is bit-identical to the table. The
/// default engine (graph-pd) is weight-certified instead, which
/// [`default_decoder_deep_weights_match_the_gwt`] checks. A no-op on the
/// GWT backend, so factories shared by both contexts pin it too.
fn ondemand(decoder: MwpmDecoder<'_>) -> MwpmDecoder<'_> {
    decoder.with_deep_backend(DeepBackend::Ondemand)
}

#[test]
fn full_matchings_are_bit_identical() {
    for (g, l) in grid() {
        let gdec = MwpmDecoder::for_context(g.decoding());
        let ldec = ondemand(MwpmDecoder::for_context(l.decoding()));
        let mut sampler = DemSampler::new(g.dem());
        let mut rng = StdRng::seed_from_u64(1000 + g.distance as u64);
        for _ in 0..shots(600) {
            let shot = sampler.sample(&mut rng);
            let sg = gdec.decode_full(&shot.detectors);
            let sl = ldec.decode_full(&shot.detectors);
            assert_eq!(
                sg.pairs, sl.pairs,
                "d = {}: {:?}",
                g.distance, shot.detectors
            );
            assert_eq!(sg.to_boundary, sl.to_boundary, "d = {}", g.distance);
            assert_eq!(sg.observables, sl.observables, "d = {}", g.distance);
            assert_eq!(
                sg.weight.to_bits(),
                sl.weight.to_bits(),
                "d = {}: weights differ beyond the last ulp",
                g.distance
            );
        }
    }
}

#[test]
fn default_decoder_deep_weights_match_the_gwt() {
    // The default GWT-free decoder stages deep shots with graph-pd, which
    // may break equal-weight ties differently from the table's one-sided
    // chains; what it must keep is the optimum. On every deep shot its
    // full matching is perfect over the detectors and weighs what the GWT
    // decoder's does, within 1e-6 relative, on both weight axes.
    let mut deep = 0u32;
    for (g, l) in grid() {
        for quantized in [false, true] {
            let (gdec, ldec) = if quantized {
                (
                    MwpmDecoder::for_context_quantized(g.decoding()),
                    MwpmDecoder::for_context_quantized(l.decoding()),
                )
            } else {
                (
                    MwpmDecoder::for_context(g.decoding()),
                    MwpmDecoder::for_context(l.decoding()),
                )
            };
            assert_eq!(ldec.deep_backend(), DeepBackend::GraphPd);
            let mut sampler = DemSampler::new(g.dem());
            let mut rng = StdRng::seed_from_u64(2500 + g.distance as u64);
            for _ in 0..shots(600) {
                let shot = sampler.sample(&mut rng);
                if shot.detectors.len() <= DP_NODE_LIMIT {
                    continue;
                }
                deep += 1;
                let sg = gdec.decode_full(&shot.detectors);
                let sl = ldec.decode_full(&shot.detectors);
                assert!(sl.is_perfect_over(&shot.detectors), "d = {}", g.distance);
                assert!(
                    (sl.weight - sg.weight).abs() <= 1e-6 * sg.weight.abs().max(1.0),
                    "d = {}, quantized = {quantized}: default decoder weighs {}, GWT {} ({:?})",
                    g.distance,
                    sl.weight,
                    sg.weight,
                    shot.detectors
                );
            }
        }
    }
    assert!(
        deep as usize > shots(400),
        "only {deep} deep syndromes sampled"
    );
}

#[test]
fn scratch_decodes_agree_on_both_weight_axes() {
    for (g, l) in grid() {
        for quantized in [false, true] {
            let (mut gdec, mut ldec) = if quantized {
                (
                    MwpmDecoder::for_context_quantized(g.decoding()),
                    ondemand(MwpmDecoder::for_context_quantized(l.decoding())),
                )
            } else {
                (
                    MwpmDecoder::for_context(g.decoding()),
                    ondemand(MwpmDecoder::for_context(l.decoding())),
                )
            };
            let mut sg = DecodeScratch::new();
            let mut sl = DecodeScratch::new();
            let mut sampler = DemSampler::new(g.dem());
            let mut rng = StdRng::seed_from_u64(2000 + g.distance as u64);
            for _ in 0..shots(600) {
                let shot = sampler.sample(&mut rng);
                assert_eq!(
                    gdec.decode_with_scratch(&shot.detectors, &mut sg),
                    ldec.decode_with_scratch(&shot.detectors, &mut sl),
                    "d = {}, quantized = {quantized}: {:?}",
                    g.distance,
                    shot.detectors
                );
            }
            // The local provider must actually have worked for the
            // comparison to mean anything.
            let stats = ldec.local_stats().expect("local decoder");
            assert!(stats.stages > 0 && stats.expansions > 0);
            assert!(gdec.local_stats().is_none());
        }
    }
}

#[test]
fn batched_decodes_agree() {
    // decode_slice routes same-weight runs through the fused closed-form
    // batch; the sorted slice layout exercises k ∈ {0..=4} batches plus
    // the per-shot tail on both backends.
    for (g, l) in grid() {
        let batch = sample_batch(g, shots(3_000) as u64, 4, 77);
        let mut gdec = MwpmDecoder::for_context(g.decoding());
        let mut ldec = ondemand(MwpmDecoder::for_context(l.decoding()));
        let mut sg = DecodeScratch::new();
        let mut sl = DecodeScratch::new();
        let rg = decode_slice(&mut gdec, &mut sg, &batch, 0..batch.len());
        let rl = decode_slice(&mut ldec, &mut sl, &batch, 0..batch.len());
        assert_eq!(rg, rl, "d = {}", g.distance);
    }
}

#[test]
fn streamed_pipeline_agrees_across_tiles_and_threads() {
    let factory: Box<astrea_experiments::DecoderFactory> = Box::new(|c: &ExperimentContext| {
        Box::new(ondemand(MwpmDecoder::for_context(c.decoding()))) as Box<dyn Decoder + '_>
    });
    for (g, l) in grid() {
        let mut reference = None;
        for tile_words in [1usize, 2, 5] {
            for threads in [1usize, 2, 3] {
                let config = PipelineConfig {
                    tile_words,
                    producers: 1 + threads / 2,
                    consumers: threads,
                    channel_depth: 2,
                    source: SyndromeSource::Dem,
                    hard_cache_entries: 256,
                };
                let rg = estimate_ler_streamed(g, shots(2_003) as u64, 13, &*factory, config);
                let rl = estimate_ler_streamed(l, shots(2_003) as u64, 13, &*factory, config);
                assert_eq!(
                    rg, rl,
                    "d = {}: tile_words {tile_words} × {threads} threads",
                    g.distance
                );
                // Every configuration must also agree with every other —
                // the local path preserves the pipeline's invariance.
                match &reference {
                    None => reference = Some(rl),
                    Some(r) => assert_eq!(&rl, r, "d = {}", g.distance),
                }
            }
        }
    }
}

/// Runs shorter than one full tile per consumer: with the default tile
/// cap every such run used to be one tile, so only one consumer decoded.
/// Cut across 1–3 consumers, a GWT-free run must still reproduce the
/// barrier path, and the counters that do not depend on which consumer
/// drew which tile must not move either.
#[test]
fn small_runs_split_across_consumers_match_barrier() {
    let factory: Box<astrea_experiments::DecoderFactory> = Box::new(|c: &ExperimentContext| {
        Box::new(ondemand(MwpmDecoder::for_context(c.decoding()))) as Box<dyn Decoder + '_>
    });
    let schedule_free = |c: &PipelineCounters| {
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
        ]
    };
    for (_, l) in grid().iter().filter(|(g, _)| g.distance <= 9) {
        for trials in [64u64, 128, 200] {
            let barrier = estimate_ler_barrier(l, trials, 2, 29, &*factory);
            let mut reference = None;
            for consumers in [1usize, 2, 3] {
                let config = PipelineConfig {
                    consumers,
                    ..PipelineConfig::for_threads(1)
                };
                let (streamed, counters) =
                    estimate_ler_streamed_counted(l, trials, 29, &*factory, config);
                let label = format!(
                    "d = {}: {trials} trials × {consumers} consumers",
                    l.distance
                );
                assert_eq!(streamed, barrier, "{label}");
                assert_eq!(counters.shots_screened, trials, "{label}");
                match &reference {
                    None => reference = Some(schedule_free(&counters)),
                    Some(r) => assert_eq!(&schedule_free(&counters), r, "{label}"),
                }
            }
        }
    }
}

#[test]
fn serving_front_end_agrees() {
    // The decode service on a GWT-free context must return exactly the
    // responses the GWT-backed service returns for the same stream.
    for (g, l) in grid().iter().take(2) {
        let stream = {
            let (det, obs) = BatchDemSampler::new(g.dem()).sample(5, 600);
            SyndromeBatch::from_packed(&det, &obs)
        };
        let mut responses: Vec<Vec<(u64, Prediction)>> = Vec::new();
        for ctx in [g, l] {
            let factory: Arc<BatchDecoderFactory> = Arc::new(|c: &DecodingContext| {
                Box::new(ondemand(MwpmDecoder::for_context(c))) as Box<dyn Decoder>
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
        assert_eq!(responses[0], responses[1], "d = {}", g.distance);
    }
}

#[test]
fn auto_context_resolves_by_budget() {
    // The tested distances all fit the auto budget; the first GWT-free
    // distance is d = 15 (≈ 40 MB projected). Verify the boundary from
    // both sides without building a d = 15 circuit (slow in debug) by
    // checking the projection arithmetic the budget compares against.
    for (g, _) in grid() {
        assert_eq!(g.weight_source(), WeightSource::Gwt);
        assert!(g.decoding().gwt_projected_bytes() <= decoding_graph::GWT_AUTO_BUDGET_BYTES);
    }
    let n15 = (15usize * 15 - 1) * (15 + 1) / 2;
    assert!(n15 * n15 * 13 > decoding_graph::GWT_AUTO_BUDGET_BYTES);
}
