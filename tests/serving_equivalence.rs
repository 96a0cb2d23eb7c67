//! Bit-identity of the decode service with the offline batch path.
//!
//! The serving contract: for any number of concurrent clients, any
//! cross-client tile packing, any worker count, and any flush timing,
//! each client's response stream equals exactly what offline
//! `decode_slice` produces for its shots alone, and the
//! aggregate service accounting (the `LerResult` fields: trials,
//! failures, deferrals, latency statistics) equals the offline totals.
//! These tests replay identical packed syndrome streams through both
//! paths — with randomized flush timing and thread interleavings — and
//! assert equality, deterministic decode by deterministic decode.

use std::sync::{Arc, OnceLock};

use astrea::prelude::*;
use astrea_serve::{ArrivalMode, DecodeService, LoadGenConfig, ServeConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shared decoding contexts (DEM extraction is the expensive part).
fn grid() -> &'static [Arc<DecodingContext>] {
    static GRID: OnceLock<Vec<Arc<DecodingContext>>> = OnceLock::new();
    GRID.get_or_init(|| {
        [(3usize, 8e-3), (3, 2e-2), (5, 6e-3)]
            .into_iter()
            .map(|(d, p)| {
                let code = SurfaceCode::new(d).expect("valid distance");
                Arc::new(DecodingContext::for_memory_experiment(
                    &code,
                    NoiseModel::depolarizing(p),
                ))
            })
            .collect()
    })
}

fn mwpm_factory() -> Arc<BatchDecoderFactory> {
    Arc::new(|c: &DecodingContext| Box::new(MwpmDecoder::new(c.gwt())) as Box<dyn Decoder>)
}

fn sample_stream(ctx: &DecodingContext, seed: u64, shots: usize) -> SyndromeBatch {
    let (det, obs) = BatchDemSampler::new(ctx.dem()).sample(seed, shots);
    SyndromeBatch::from_packed(&det, &obs)
}

/// Runs every stream through the service concurrently — one thread per
/// client, each flushing at `flush_prob`-random points of its stream —
/// and returns per-client predictions in submission order.
fn serve_streams(
    ctx: &Arc<DecodingContext>,
    config: ServeConfig,
    streams: &[SyndromeBatch],
    flush_prob: f64,
    seed: u64,
) -> Vec<Vec<Prediction>> {
    let service = DecodeService::new(Arc::clone(ctx), config, mwpm_factory());
    let mut per_client: Vec<Vec<Prediction>> = Vec::with_capacity(streams.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(streams.len());
        for (client, stream) in streams.iter().enumerate() {
            let mut session = service.session(astrea_serve::SubmitPolicy::Block);
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ ((client as u64) << 17));
                let mut got = Vec::with_capacity(stream.len());
                for i in 0..stream.len() {
                    session
                        .submit(stream.detectors(i), stream.observables(i))
                        .expect("submit");
                    if rng.gen_bool(flush_prob) {
                        session.flush().expect("flush");
                    }
                    // Occasionally drain a response early so submission
                    // and consumption interleave differently per run.
                    if rng.gen_bool(0.25) {
                        if let Some((_, p)) = drain_one(&mut session) {
                            got.push(p);
                        }
                    }
                }
                session.flush().expect("final flush");
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

    // The service accounting must equal the offline totals before we
    // hand predictions back (asserted here so every caller checks it).
    let stats = service.stats();
    let mut offline = StreamTotals::default();
    for s in streams {
        offline.absorb(ctx, s);
    }
    let serving = LerResult {
        trials: stats.outcome.stats.shots,
        failures: stats.outcome.failures,
        deferred: stats.outcome.deferred,
        latency: stats.outcome.stats,
    };
    assert_eq!(
        serving,
        offline.ler(),
        "service LerResult diverged from offline"
    );
    service.shutdown();
    per_client
}

fn drain_one(session: &mut astrea_serve::ClientSession) -> Option<(u64, Prediction)> {
    session
        .recv_timeout(std::time::Duration::from_millis(1))
        .ok()
}

/// Offline reference accounting accumulated across streams.
#[derive(Default)]
struct StreamTotals {
    stats: LatencyStats,
    failures: u64,
    deferred: u64,
}

impl StreamTotals {
    fn absorb(&mut self, ctx: &DecodingContext, stream: &SyndromeBatch) {
        let mut dec = MwpmDecoder::new(ctx.gwt());
        let mut scratch = DecodeScratch::new();
        let out = decode_slice(&mut dec, &mut scratch, stream, 0..stream.len());
        self.stats.merge(&out.stats);
        self.failures += out.failures;
        self.deferred += out.deferred;
    }

    fn ler(&self) -> LerResult {
        LerResult {
            trials: self.stats.shots,
            failures: self.failures,
            deferred: self.deferred,
            latency: self.stats,
        }
    }
}

fn offline_predictions(ctx: &DecodingContext, stream: &SyndromeBatch) -> Vec<Prediction> {
    let mut dec = MwpmDecoder::new(ctx.gwt());
    let mut scratch = DecodeScratch::new();
    decode_slice(&mut dec, &mut scratch, stream, 0..stream.len()).predictions
}

#[test]
fn concurrent_clients_match_offline_decode_batch() {
    let ctx = &grid()[1];
    let clients = 4;
    let streams: Vec<SyndromeBatch> = (0..clients)
        .map(|c| sample_stream(ctx, 1000 + c as u64, 400))
        .collect();

    let config = ServeConfig {
        workers: 2,
        tile_words: 2,
        ..ServeConfig::default()
    };
    let served = serve_streams(ctx, config, &streams, 0.15, 42);

    // Per-client bit-identity against the offline per-shot loop.
    for (stream, got) in streams.iter().zip(&served) {
        assert_eq!(
            got,
            &offline_predictions(ctx, stream),
            "serving diverged from decode_slice"
        );
    }
}

#[test]
fn load_gen_streams_match_offline_for_both_modes() {
    let ctx = &grid()[0];
    let cfg = LoadGenConfig {
        clients: 3,
        shots_per_client: 250,
        mode: ArrivalMode::Closed,
        replay_fraction: 0.4,
        seed: 31,
    };
    let streams = astrea_serve::build_workload(ctx, &cfg);
    for mode in [
        ArrivalMode::Closed,
        ArrivalMode::Open {
            shots_per_sec: 60_000.0,
        },
    ] {
        let service = DecodeService::new(Arc::clone(ctx), ServeConfig::default(), mwpm_factory());
        let report = astrea_serve::run_load(&service, &streams, mode);
        for (stream, outcome) in streams.iter().zip(&report.outcomes) {
            assert_eq!(
                outcome.predictions,
                offline_predictions(ctx, stream),
                "load-gen serving diverged from offline"
            );
        }
        service.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary interleavings of 2–8 client streams × tile sizes ×
    /// worker counts produce the same per-client outputs as each stream
    /// decoded alone.
    #[test]
    fn cross_client_batching_is_invisible(
        ctx_idx in 0usize..3,
        clients in 2usize..=8,
        shots_per_client in 1usize..150,
        tile_words in prop::sample::select(vec![1usize, 2, 5]),
        workers in 1usize..=3,
        flush_prob in prop::sample::select(vec![0.0, 0.1, 0.5]),
        seed in any::<u64>(),
    ) {
        let ctx = &grid()[ctx_idx];
        let streams: Vec<SyndromeBatch> = (0..clients)
            .map(|c| sample_stream(ctx, seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9), shots_per_client))
            .collect();
        let config = ServeConfig {
            workers,
            tile_words,
            ..ServeConfig::default()
        };
        let served = serve_streams(ctx, config, &streams, flush_prob, seed);
        for (stream, got) in streams.iter().zip(&served) {
            prop_assert_eq!(got, &offline_predictions(ctx, stream));
        }
    }
}
