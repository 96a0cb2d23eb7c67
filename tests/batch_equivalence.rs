//! Batched decoding must be indistinguishable from sequential decoding.
//!
//! The batch engine's whole contract is determinism: for the same seed,
//! a run sharded over any number of workers — `DecodeService`'s
//! persistent pool or `decode_batch_ler`'s scoped threads — produces
//! the same corrections, failure counts, and latency statistics as one
//! sequential `decode_slice` pass. These properties hold for *arbitrary*
//! `(distance, p, seed, threads)` combinations, enforced by proptest.

use astrea::prelude::*;
use astrea_serve::{DecodeService, ServeConfig, ServiceStats, SubmitPolicy};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Distances × error rates covered by the properties. Contexts are built
/// once (all-pairs Dijkstra is the expensive part) and shared by every
/// case; the *decode* inputs remain fully random.
fn grid() -> &'static [ExperimentContext] {
    static GRID: OnceLock<Vec<ExperimentContext>> = OnceLock::new();
    GRID.get_or_init(|| {
        [(3, 2e-3), (3, 8e-3), (5, 2e-3), (5, 6e-3)]
            .into_iter()
            .map(|(d, p)| ExperimentContext::new(d, p))
            .collect()
    })
}

fn mwpm_factory<'a>() -> Box<astrea_experiments::DecoderFactory<'a>> {
    Box::new(|c: &ExperimentContext| Box::new(MwpmDecoder::new(c.gwt())) as Box<dyn Decoder>)
}

/// Decodes `batch` through a [`DecodeService`] pool of `workers`
/// persistent workers from one client session, returning the
/// predictions in submission order and the pool's final accounting.
fn decode_on_pool(
    ctx: &ExperimentContext,
    batch: &SyndromeBatch,
    workers: usize,
) -> (Vec<Prediction>, ServiceStats) {
    let factory: Arc<BatchDecoderFactory> =
        Arc::new(|c: &DecodingContext| Box::new(MwpmDecoder::new(c.gwt())) as Box<dyn Decoder>);
    let config = ServeConfig {
        workers,
        max_inflight: batch.len().max(1),
        ..ServeConfig::default()
    };
    let service = DecodeService::new(Arc::new(ctx.decoding().clone()), config, factory);
    let mut session = service.session(SubmitPolicy::Block);
    for i in 0..batch.len() {
        session
            .submit(batch.detectors(i), batch.observables(i))
            .expect("submit");
    }
    session.flush().expect("flush");
    let predictions = (0..batch.len())
        .map(|i| {
            let (seq, p) = session.recv().expect("recv");
            assert_eq!(seq, i as u64, "out-of-order delivery");
            p
        })
        .collect();
    // Joining every worker first makes the accounting final.
    service.shutdown();
    (predictions, service.stats())
}

fn astrea_g_factory<'a>() -> Box<astrea_experiments::DecoderFactory<'a>> {
    Box::new(|c: &ExperimentContext| Box::new(AstreaGDecoder::new(c.gwt())) as Box<dyn Decoder>)
}

proptest! {
    // Each case decodes hundreds of shots twice; a modest case count
    // keeps the whole file inside the tier-1 time budget.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn estimate_ler_is_thread_count_invariant(
        ctx_idx in 0usize..4,
        seed in any::<u64>(),
        threads in 2usize..9,
        trials in 301u64..900,
        use_astrea_g in any::<bool>(),
    ) {
        let ctx = &grid()[ctx_idx];
        let factory = if use_astrea_g { astrea_g_factory() } else { mwpm_factory() };
        let sequential = estimate_ler(ctx, trials, 1, seed, &*factory);
        let batched = estimate_ler(ctx, trials, threads, seed, &*factory);
        prop_assert_eq!(sequential, batched, "threads {} diverged", threads);
        prop_assert_eq!(sequential.trials, trials);
    }

    #[test]
    fn sampling_is_thread_count_invariant(
        ctx_idx in 0usize..4,
        seed in any::<u64>(),
        threads in 2usize..9,
        shots in 1u64..700,
    ) {
        let ctx = &grid()[ctx_idx];
        let a = sample_batch(ctx, shots, 1, seed);
        let b = sample_batch(ctx, shots, threads, seed);
        prop_assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            prop_assert_eq!(a.detectors(i), b.detectors(i), "shot {}", i);
            prop_assert_eq!(a.observables(i), b.observables(i), "shot {}", i);
        }
    }

    #[test]
    fn pool_predictions_match_sequential_decode(
        ctx_idx in 0usize..4,
        seed in any::<u64>(),
        threads in 1usize..9,
        shots in 100u64..600,
    ) {
        let ctx = &grid()[ctx_idx];
        let batch = sample_batch(ctx, shots, threads, seed);

        // Sequential reference: one decoder, one scratch arena, in order.
        let mut decoder = MwpmDecoder::new(ctx.gwt());
        let mut scratch = DecodeScratch::new();
        let reference = decode_slice(&mut decoder, &mut scratch, &batch, 0..batch.len());

        // Persistent worker pool with an arbitrary worker count.
        let (predictions, pooled) = decode_on_pool(ctx, &batch, threads);

        prop_assert_eq!(&predictions, &reference.predictions);
        prop_assert_eq!(pooled.outcome.stats, reference.stats);
        prop_assert_eq!(pooled.outcome.failures, reference.failures);
        prop_assert_eq!(pooled.outcome.deferred, reference.deferred);
    }

    #[test]
    fn scoped_and_persistent_paths_agree(
        ctx_idx in 0usize..4,
        seed in any::<u64>(),
        threads in 1usize..9,
        shots in 50u64..400,
    ) {
        // `decode_batch_ler` (scoped threads, borrowed factory) and
        // `DecodeService` (persistent pool, HRTB factory) must account
        // identically: same failures, same deferrals, same stats.
        let ctx = &grid()[ctx_idx];
        let batch = sample_batch(ctx, shots, threads, seed);
        let ler = decode_batch_ler(ctx, &batch, threads, &*mwpm_factory());
        let (_, pooled) = decode_on_pool(ctx, &batch, threads);

        prop_assert_eq!(ler.trials, shots);
        prop_assert_eq!(ler.failures, pooled.outcome.failures);
        prop_assert_eq!(ler.deferred, pooled.outcome.deferred);
        prop_assert_eq!(ler.latency, pooled.outcome.stats);
    }
}
