//! The `HardSyndromeCache` meets its intended workload: a correlated,
//! replayed serving stream.
//!
//! The cache memoizes full predictions for Hamming-weight 5–10
//! syndromes. On the cold i.i.d. streams of the profiling harness it
//! mostly misses; serving traffic is different — clients replay
//! correlated syndromes, so the same hard shot recurs. This regression
//! test drives a load-gen workload with a high replay fraction through
//! a single-worker service and asserts, via `PipelineCounters`, the
//! hit/miss split implied by the stream: every hard shot consults the
//! cache exactly once, and every distinct hard syndrome misses exactly
//! once, so the replayed stream hits on every repeat. Predictions stay
//! replay-exact: bit-identical to the offline decode, equal across
//! repeats and across runs.
//!
//! The clients submit concurrently, so the order in which their shots
//! reach the worker is up to the scheduler. Under 2-way set conflicts
//! that order decides which syndromes LRU evicts, and with them the hit
//! count; the cache here is sized so the workload's distinct hard
//! syndromes never overflow a set, which makes the split independent of
//! the interleaving.

use std::collections::HashSet;
use std::sync::Arc;

use astrea_core::{decode_slice, BatchDecoderFactory, SyndromeBatch};
use astrea_serve::{
    build_workload, run_load, ArrivalMode, DecodeService, LoadGenConfig, ServeConfig,
};
use blossom_mwpm::MwpmDecoder;
use decoding_graph::{DecodeScratch, Decoder, DecodingContext, Prediction};
use qec_circuit::NoiseModel;
use surface_code::SurfaceCode;

const HARD_MIN: usize = astrea_core::HARD_CACHE_MIN_HW;
const HARD_MAX: usize = astrea_core::HARD_CACHE_MAX_HW;

fn context() -> Arc<DecodingContext> {
    let code = SurfaceCode::new(5).expect("valid distance");
    Arc::new(DecodingContext::for_memory_experiment(
        &code,
        NoiseModel::depolarizing(5e-3),
    ))
}

fn factory() -> Arc<BatchDecoderFactory> {
    Arc::new(|c: &DecodingContext| Box::new(MwpmDecoder::new(c.gwt())) as Box<dyn Decoder>)
}

fn offline(ctx: &DecodingContext, stream: &SyndromeBatch) -> Vec<Prediction> {
    let mut dec = MwpmDecoder::new(ctx.gwt());
    let mut scratch = DecodeScratch::new();
    decode_slice(&mut dec, &mut scratch, stream, 0..stream.len()).predictions
}

/// Hard-cache capacity of [`run`]: 131 072 two-way sets for the 624
/// distinct hard syndromes of the seed-2024 workload, which hash to no
/// set more than two of them (at the default 4 096 entries fourteen sets
/// overflow, at 65 536 one still does), so nothing is ever evicted.
const CACHE_ENTRIES: usize = 1 << 18;

fn run(ctx: &Arc<DecodingContext>, streams: &[SyndromeBatch]) -> astrea_serve::LoadReport {
    // One worker: one cache, so the hit/miss split is exactly the
    // stream's repeat structure (no cross-worker partitioning).
    let service = DecodeService::new(
        Arc::clone(ctx),
        ServeConfig {
            workers: 1,
            hard_cache_entries: CACHE_ENTRIES,
            ..ServeConfig::default()
        },
        factory(),
    );
    let report = run_load(&service, streams, ArrivalMode::Closed);
    service.shutdown();
    report
}

#[test]
fn replayed_serving_stream_hits_the_hard_cache_exactly() {
    let ctx = context();
    let cfg = LoadGenConfig {
        clients: 2,
        shots_per_client: 1_500,
        mode: ArrivalMode::Closed,
        replay_fraction: 0.5,
        seed: 2024,
    };
    let streams = build_workload(&ctx, &cfg);

    // The repeat structure of the workload, counted over every client
    // (one worker serves them all): every hard shot consults the cache
    // once, and a distinct syndrome cannot hit before it has missed.
    let mut hard_total = 0u64;
    let mut distinct: HashSet<Vec<u32>> = HashSet::new();
    for s in &streams {
        for i in 0..s.len() {
            let hw = s.hamming_weight(i);
            if (HARD_MIN..=HARD_MAX).contains(&hw) {
                hard_total += 1;
                distinct.insert(s.detectors(i).to_vec());
            }
        }
    }
    assert!(
        hard_total > 100,
        "workload produced only {hard_total} hard shots — not a cache test"
    );
    assert!(
        hard_total > distinct.len() as u64,
        "replay fraction produced no repeated hard syndromes"
    );

    let report = run(&ctx, &streams);
    let c = &report.stats.counters;
    assert_eq!(
        c.hard_cache_hits + c.hard_cache_misses,
        hard_total,
        "every hard shot must consult the cache exactly once"
    );
    assert_eq!(
        c.hard_cache_misses,
        distinct.len() as u64,
        "every distinct hard syndrome must miss exactly once (a phantom hit, \
         or an eviction the sizing should rule out)"
    );
    assert!(c.hard_cache_hits > 0, "the replayed stream never hit");

    // Replay-exact: serving predictions equal the offline decode, and
    // repeats of a syndrome (cache hits included) predict identically.
    for (stream, outcome) in streams.iter().zip(&report.outcomes) {
        assert_eq!(outcome.predictions, offline(&ctx, stream));
        let mut by_syndrome: std::collections::HashMap<Vec<u32>, Prediction> =
            std::collections::HashMap::new();
        for i in 0..stream.len() {
            let p = outcome.predictions[i];
            let prev = by_syndrome.insert(stream.detectors(i).to_vec(), p);
            if let Some(prev) = prev {
                assert_eq!(prev, p, "a replayed syndrome changed its prediction");
            }
        }
    }

    // And across services: a cold second run reproduces the first
    // bit-for-bit (the cache only replays the decoder).
    let second = run(&ctx, &streams);
    for (a, b) in report.outcomes.iter().zip(&second.outcomes) {
        assert_eq!(
            a.predictions, b.predictions,
            "serving is not run-reproducible"
        );
    }
    assert_eq!(second.stats.counters.hard_cache_hits, c.hard_cache_hits);
    assert_eq!(second.stats.counters.hard_cache_misses, c.hard_cache_misses);
}

#[test]
fn disabling_the_cache_changes_counters_but_not_predictions() {
    let ctx = context();
    let cfg = LoadGenConfig {
        clients: 1,
        shots_per_client: 600,
        mode: ArrivalMode::Closed,
        replay_fraction: 0.6,
        seed: 77,
    };
    let streams = build_workload(&ctx, &cfg);

    let with_cache = run(&ctx, &streams);
    let service = DecodeService::new(
        Arc::clone(&ctx),
        ServeConfig {
            workers: 1,
            hard_cache_entries: 0,
            ..ServeConfig::default()
        },
        factory(),
    );
    let without_cache = run_load(&service, &streams, ArrivalMode::Closed);
    service.shutdown();

    assert!(with_cache.stats.counters.hard_cache_hits > 0);
    assert_eq!(without_cache.stats.counters.hard_cache_hits, 0);
    assert_eq!(without_cache.stats.counters.hard_cache_misses, 0);
    assert_eq!(
        with_cache.outcomes[0].predictions, without_cache.outcomes[0].predictions,
        "the cache must be invisible in the predictions"
    );
}
