//! Bit-identity of the packed easy-tier decode with the per-lane
//! reference path.
//!
//! The tile pipeline keeps shots bit-packed *through decode* for the
//! easy tiers: HW-1 predictions are resolved once per distinct syndrome
//! key per word and fanned out to whole lane masks, HW-2 lanes take one
//! cache probe each, failures of both are accumulated as XORed
//! prediction planes, and the k ≤ 4 closed
//! forms are dispatched as same-weight batches. None of that may change
//! a single bit: these properties pit the packed path against the
//! retained per-lane [`decode_tile_reference`] oracle — predictions,
//! `StreamOutcome` accounting, and the shot-partition counters must all
//! agree — with per-shot fired-detector counts
//! ([`SyndromeBatch::hamming_weight`], from the batch extraction, which
//! shares no code with either path's bit-sliced adder) as the
//! independent classification oracle for how many shots each tier must
//! absorb. A thread axis (streamed vs barrier across producer/consumer
//! splits) and a serving axis (concurrent clients vs offline
//! `decode_slice`) check that the packed tiers stay invisible end-to-end.

use std::sync::{Arc, OnceLock};

use astrea::prelude::*;
use astrea_core::pipeline::{
    decode_tile_reference, decode_tile_with_predictions, StreamOutcome, TileScratch,
};
use astrea_experiments::estimate_ler_streamed_counted;
use proptest::prelude::*;
use qec_circuit::tiles::{PackedSyndromeSource, TileLayout};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distances × error rates covered by the properties; contexts are built
/// once and shared across cases (DEM extraction is the expensive part).
fn grid() -> &'static [ExperimentContext] {
    static GRID: OnceLock<Vec<ExperimentContext>> = OnceLock::new();
    GRID.get_or_init(|| {
        [(3, 8e-3), (5, 6e-3), (7, 5e-3)]
            .into_iter()
            .map(|(d, p)| ExperimentContext::new(d, p))
            .collect()
    })
}

fn mwpm_factory() -> Box<astrea_experiments::DecoderFactory<'static>> {
    Box::new(|c: &ExperimentContext| Box::new(MwpmDecoder::new(c.gwt())) as Box<dyn Decoder + '_>)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole contract: for arbitrary contexts, tile sizes, shot
    /// counts, decoder families, and seeds, the packed path reproduces
    /// the per-lane reference bit-for-bit — per-shot predictions,
    /// aggregate outcome, and every shot-partition counter — while
    /// per-shot Hamming weights independently pin how many shots each
    /// tier must have absorbed.
    #[test]
    fn packed_easy_tier_matches_per_lane_reference(
        ctx_idx in 0usize..3,
        tile_words in prop::sample::select(vec![1usize, 2, 5]),
        shots in 1usize..600,
        astrea in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let ctx = &grid()[ctx_idx];
        let mut decoder_packed: Box<dyn Decoder> = if astrea {
            Box::new(AstreaDecoder::new(ctx.gwt()))
        } else {
            Box::new(MwpmDecoder::new(ctx.gwt()))
        };
        let mut decoder_ref: Box<dyn Decoder> = if astrea {
            Box::new(AstreaDecoder::new(ctx.gwt()))
        } else {
            Box::new(MwpmDecoder::new(ctx.gwt()))
        };
        let mut scratch_packed = DecodeScratch::new();
        let mut scratch_ref = DecodeScratch::new();
        let mut ts_packed = TileScratch::new();
        let mut ts_ref = TileScratch::new();
        let mut out_packed = StreamOutcome::default();
        let mut out_ref = StreamOutcome::default();
        // Oracle tallies from per-shot Hamming weights: [trivial, hw1, hw2, hard].
        let mut oracle = [0u64; 4];

        let layout = TileLayout::new(shots, tile_words);
        let mut sampler = BatchDemSampler::new(ctx.dem());
        for t in 0..layout.num_tiles() {
            let tile = sampler.sample_tile(seed, &layout, t);
            let batch = SyndromeBatch::from_packed(tile.detectors(), tile.observables());
            for i in 0..batch.len() {
                oracle[batch.hamming_weight(i).min(3)] += 1;
            }

            let mut preds_packed = vec![Prediction::identity(); tile.num_shots()];
            let mut preds_ref = vec![Prediction::identity(); tile.num_shots()];
            decode_tile_with_predictions(
                decoder_packed.as_mut(),
                &mut scratch_packed,
                &mut ts_packed,
                &tile,
                &mut out_packed,
                &mut preds_packed,
            );
            decode_tile_reference(
                decoder_ref.as_mut(),
                &mut scratch_ref,
                &mut ts_ref,
                &tile,
                &mut out_ref,
                Some(&mut preds_ref),
            );
            prop_assert_eq!(preds_packed, preds_ref, "tile {} diverged", t);
        }
        prop_assert_eq!(&out_packed, &out_ref);

        let (cp, cr) = (*ts_packed.counters(), *ts_ref.counters());
        prop_assert_eq!(cp.shot_partition(), cr.shot_partition());
        prop_assert_eq!(cp.shots_screened, shots as u64);
        prop_assert_eq!(cp.tier_sum(), cp.shots_screened);

        // Per-shot Hamming weights as the classification oracle for the
        // packed tiers.
        prop_assert_eq!(cp.trivial_shots, oracle[0]);
        prop_assert_eq!(cp.hw1_shots, oracle[1]);
        prop_assert_eq!(cp.hw2_shots, oracle[2]);
        prop_assert_eq!(
            cp.closed_form_shots + cp.hard_cache_hits + cp.dp_shots + cp.sparse_blossom_shots,
            oracle[3]
        );

        // Key-resolution diagnostics: the reference path never probes
        // per key; the packed path probes at most once per HW-1 shot and
        // exactly once per HW-2 shot.
        prop_assert_eq!(cr.hw1_key_lookups + cr.hw2_key_lookups, 0);
        prop_assert!(cp.hw1_key_lookups <= cp.hw1_shots);
        prop_assert_eq!(cp.hw2_key_lookups, cp.hw2_shots);
        prop_assert!(cp.hw1_shots == 0 || cp.hw1_key_lookups > 0);
    }

    /// Thread axis: the packed tiers stay invisible under the streaming
    /// harness for every producer/consumer split and tile size — the
    /// streamed `LerResult` equals the barrier path's, and the summed
    /// worker counters still partition the stream.
    #[test]
    fn streamed_packed_decode_matches_barrier_across_threads(
        ctx_idx in 0usize..3,
        trials in 1u64..1200,
        tile_words in prop::sample::select(vec![1usize, 2, 5]),
        producers in 1usize..=2,
        consumers in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let ctx = &grid()[ctx_idx];
        let factory = mwpm_factory();
        let barrier = estimate_ler_barrier(ctx, trials, 2, seed, &factory);
        let config = PipelineConfig {
            tile_words,
            producers,
            consumers,
            channel_depth: 2,
            source: SyndromeSource::Dem,
            hard_cache_entries: astrea_core::DEFAULT_HARD_CACHE_ENTRIES,
        };
        let (streamed, counters) =
            estimate_ler_streamed_counted(ctx, trials, seed, &factory, config);
        prop_assert_eq!(streamed, barrier);
        prop_assert_eq!(counters.shots_screened, trials);
        prop_assert_eq!(counters.tier_sum(), counters.shots_screened);
    }
}

/// Serving axis: concurrent clients over the batching service receive
/// exactly the offline `decode_slice` predictions — the packed per-key
/// fan-out in `decode_tile_with_predictions` must route the right
/// prediction to every lane of every client, flush timing included.
#[test]
fn serving_inherits_packed_easy_tier_bit_identically() {
    let code = SurfaceCode::new(3).expect("valid distance");
    let ctx = Arc::new(DecodingContext::for_memory_experiment(
        &code,
        NoiseModel::depolarizing(8e-3),
    ));
    let factory: Arc<BatchDecoderFactory> =
        Arc::new(|c: &DecodingContext| Box::new(MwpmDecoder::new(c.gwt())) as Box<dyn Decoder>);

    let clients = 3;
    let streams: Vec<SyndromeBatch> = (0..clients)
        .map(|c| {
            let (det, obs) = BatchDemSampler::new(ctx.dem()).sample(900 + c as u64, 300);
            SyndromeBatch::from_packed(&det, &obs)
        })
        .collect();

    let config = astrea_serve::ServeConfig {
        workers: 2,
        tile_words: 2,
        ..astrea_serve::ServeConfig::default()
    };
    let service = DecodeService::new(Arc::clone(&ctx), config, factory);
    let mut per_client: Vec<Vec<Prediction>> = Vec::with_capacity(streams.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(streams.len());
        for (client, stream) in streams.iter().enumerate() {
            let mut session = service.session(astrea_serve::SubmitPolicy::Block);
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(77 ^ ((client as u64) << 9));
                for i in 0..stream.len() {
                    session
                        .submit(stream.detectors(i), stream.observables(i))
                        .expect("submit");
                    if rng.gen_bool(0.2) {
                        session.flush().expect("flush");
                    }
                }
                session.flush().expect("final flush");
                let mut got = Vec::with_capacity(stream.len());
                while got.len() < stream.len() {
                    let (seq, p) = session.recv().expect("recv");
                    assert_eq!(seq, got.len() as u64, "out-of-order delivery");
                    got.push(p);
                }
                got
            }));
        }
        for h in handles {
            per_client.push(h.join().expect("client thread panicked"));
        }
    });
    service.shutdown();

    for (stream, got) in streams.iter().zip(&per_client) {
        let mut dec = MwpmDecoder::new(ctx.gwt());
        let mut scratch = DecodeScratch::new();
        let offline = decode_slice(&mut dec, &mut scratch, stream, 0..stream.len());
        assert_eq!(
            got, &offline.predictions,
            "serving diverged from offline decode_slice"
        );
    }
}
