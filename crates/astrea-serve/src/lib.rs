//! Decode-as-a-service front-end for the Astrea streaming pipeline.
//!
//! Every other entry point in this workspace is a batch harness: one
//! caller, a fixed shot count, results at the end. This crate turns the
//! same machinery into a long-running service for the "heavy traffic
//! from many users" leg of the paper's real-time story:
//!
//! * [`DecodeService`] — a persistent batcher + decode-worker pool.
//!   Shots submitted by any number of concurrent client sessions are
//!   batched **across clients** into packed
//!   [`SyndromeTile`](qec_circuit::SyndromeTile)s and decoded by the
//!   fused word-parallel tile pass
//!   ([`decode_tile_with_predictions`](astrea_core::decode_tile_with_predictions)),
//!   with per-worker scratch arenas and screen/hard caches that stay
//!   warm for the life of the service.
//! * [`ClientSession`] — the in-process client API: validated
//!   submission under an explicit backpressure policy
//!   ([`SubmitPolicy::Block`] or [`SubmitPolicy::Reject`] against a
//!   bounded in-flight budget), responses strictly in submission order.
//! * [`serve_tcp`] / `serve_unix` — a framed socket front-end speaking
//!   the little-endian protocol documented in [`wire`]-module docs,
//!   with [`WireClient`] as the matching client.
//! * [`run_load`] / [`build_workload`] — open- and closed-loop load
//!   generation with correlated (replayed) streams, measuring
//!   p50/p99/p999 serving latency without coordinated omission.
//!
//! The service contract is *bit-identical serving*: for any client
//! interleaving, tile size, worker count, and flush timing, each client
//! receives exactly the predictions offline
//! [`decode_slice`](astrea_core::decode_slice) would have produced for
//! its stream, and the aggregate [`ServiceStats`] equal
//! the offline totals. The serving equivalence and fault-injection
//! suites enforce this.
//!
//! ```
//! use std::sync::Arc;
//! use astrea_core::AstreaDecoder;
//! use astrea_serve::{DecodeService, ServeConfig, SubmitPolicy};
//! use decoding_graph::{Decoder, DecodingContext};
//! use qec_circuit::NoiseModel;
//! use surface_code::SurfaceCode;
//!
//! let code = SurfaceCode::new(3)?;
//! let ctx = Arc::new(DecodingContext::for_memory_experiment(
//!     &code,
//!     NoiseModel::depolarizing(1e-3),
//! ));
//! let service = DecodeService::new(
//!     ctx,
//!     ServeConfig { workers: 1, ..ServeConfig::default() },
//!     Arc::new(|c: &DecodingContext| Box::new(AstreaDecoder::new(c.gwt())) as Box<dyn Decoder>),
//! );
//! let mut session = service.session(SubmitPolicy::Block);
//! session.submit(&[0, 1], 0)?;
//! let (seq, prediction) = session.recv().expect("service answered");
//! assert_eq!(seq, 0);
//! # let _ = prediction;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod loadgen;
mod service;
mod session;
pub mod wire;

pub use loadgen::{
    build_workload, run_load, ArrivalMode, ClientOutcome, LoadGenConfig, LoadReport,
};
pub use service::{DecodeService, ServeConfig, ServiceStats};
pub use session::{
    ClientSession, ReceiveHandle, RecvError, SubmitError, SubmitHandle, SubmitPolicy,
};
#[cfg(unix)]
pub use wire::serve_unix;
pub use wire::{serve_tcp, WireClient, WireServer};

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use astrea_core::{decode_slice, AstreaDecoder, SyndromeBatch};
    use blossom_mwpm::MwpmDecoder;
    use decoding_graph::{DecodeScratch, Decoder, DecodingContext};
    use qec_circuit::{BatchDemSampler, NoiseModel};
    use surface_code::SurfaceCode;

    use crate::*;

    fn test_ctx(d: usize, p: f64) -> Arc<DecodingContext> {
        let code = SurfaceCode::new(d).expect("valid distance");
        Arc::new(DecodingContext::for_memory_experiment(
            &code,
            NoiseModel::depolarizing(p),
        ))
    }

    fn mwpm_factory() -> Arc<astrea_core::BatchDecoderFactory> {
        // Backend-aware: the same factory drives GWT-backed and GWT-free
        // (WeightSource::Local) contexts.
        Arc::new(|c: &DecodingContext| Box::new(MwpmDecoder::for_context(c)) as Box<dyn Decoder>)
    }

    fn sample_stream(ctx: &DecodingContext, seed: u64, shots: usize) -> SyndromeBatch {
        let (det, obs) = BatchDemSampler::new(ctx.dem()).sample(seed, shots);
        SyndromeBatch::from_packed(&det, &obs)
    }

    /// Offline reference: the exact predictions `decode_slice` produces
    /// for this stream.
    fn offline(ctx: &DecodingContext, stream: &SyndromeBatch) -> Vec<decoding_graph::Prediction> {
        let mut dec = MwpmDecoder::new(ctx.gwt());
        let mut scratch = DecodeScratch::new();
        decode_slice(&mut dec, &mut scratch, stream, 0..stream.len()).predictions
    }

    #[test]
    fn single_client_round_trip_matches_offline() {
        let ctx = test_ctx(3, 2e-2);
        let stream = sample_stream(&ctx, 7, 300);
        let service = DecodeService::new(
            Arc::clone(&ctx),
            ServeConfig {
                workers: 2,
                tile_words: 1,
                ..ServeConfig::default()
            },
            mwpm_factory(),
        );
        let mut session = service.session(SubmitPolicy::Block);
        let mut got = Vec::with_capacity(stream.len());
        for i in 0..stream.len() {
            session
                .submit(stream.detectors(i), stream.observables(i))
                .expect("submit");
        }
        for i in 0..stream.len() {
            let (seq, pred) = session.recv().expect("recv");
            assert_eq!(seq, i as u64, "responses must arrive in submission order");
            got.push(pred);
        }
        assert_eq!(got, offline(&ctx, &stream));
    }

    #[test]
    fn astrea_decoder_serves_identically() {
        let ctx = test_ctx(3, 1e-2);
        let stream = sample_stream(&ctx, 11, 200);
        let factory: Arc<astrea_core::BatchDecoderFactory> = Arc::new(|c: &DecodingContext| {
            Box::new(AstreaDecoder::new(c.gwt())) as Box<dyn Decoder>
        });
        let service = DecodeService::new(
            Arc::clone(&ctx),
            ServeConfig {
                workers: 1,
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
        let mut dec = AstreaDecoder::new(ctx.gwt());
        let mut scratch = DecodeScratch::new();
        let want = decode_slice(&mut dec, &mut scratch, &stream, 0..stream.len()).predictions;
        for (i, w) in want.iter().enumerate() {
            let (seq, pred) = session.recv().expect("recv");
            assert_eq!(seq, i as u64);
            assert_eq!(&pred, w);
        }
    }

    #[test]
    fn invalid_shots_are_rejected_without_consuming_credits() {
        let ctx = test_ctx(3, 1e-3);
        let service = DecodeService::new(
            Arc::clone(&ctx),
            ServeConfig {
                workers: 1,
                max_inflight: 1,
                ..ServeConfig::default()
            },
            mwpm_factory(),
        );
        let nd = service.num_detectors() as u32;
        let mut session = service.session(SubmitPolicy::Reject);
        assert!(matches!(
            session.submit(&[nd], 0),
            Err(SubmitError::Invalid(_))
        ));
        assert!(matches!(
            session.submit(&[1, 1], 0),
            Err(SubmitError::Invalid(_))
        ));
        assert!(matches!(
            session.submit(&[2, 1], 0),
            Err(SubmitError::Invalid(_))
        ));
        assert!(matches!(
            session.submit(&[0], u32::MAX),
            Err(SubmitError::Invalid(_))
        ));
        // The budget of 1 is still intact after the rejections.
        session.submit(&[0, 1], 0).expect("valid submit");
        let (_, p) = session.recv().expect("recv");
        assert!(!p.deferred);
    }

    #[test]
    fn reject_policy_reports_full_then_recovers() {
        let ctx = test_ctx(3, 1e-3);
        let service = DecodeService::new(
            Arc::clone(&ctx),
            ServeConfig {
                workers: 1,
                max_inflight: 2,
                // A long window keeps shots staged so credits stay
                // pinned until we flush.
                batch_window: Duration::from_secs(30),
                tile_words: 4,
                ..ServeConfig::default()
            },
            mwpm_factory(),
        );
        let mut session = service.session(SubmitPolicy::Reject);
        session.submit(&[0], 0).expect("first");
        session.submit(&[1], 0).expect("second");
        // recv() would block (nothing flushed); submit must not.
        assert_eq!(session.submit(&[2], 0), Err(SubmitError::Full));
        session.flush().expect("flush");
        let (seq, _) = session.recv().expect("recv");
        assert_eq!(seq, 0);
        // A credit came back with the response.
        session.submit(&[2], 0).expect("third");
        service.flush();
        assert_eq!(session.recv().expect("recv").0, 1);
        assert_eq!(session.recv().expect("recv").0, 2);
    }

    #[test]
    fn stats_match_offline_totals() {
        let ctx = test_ctx(3, 2e-2);
        let stream = sample_stream(&ctx, 21, 500);
        let service = DecodeService::new(
            Arc::clone(&ctx),
            ServeConfig {
                workers: 2,
                tile_words: 2,
                ..ServeConfig::default()
            },
            mwpm_factory(),
        );
        let mut session = service.session(SubmitPolicy::Block);
        for i in 0..stream.len() {
            session
                .submit(stream.detectors(i), stream.observables(i))
                .expect("submit");
        }
        for _ in 0..stream.len() {
            session.recv().expect("recv");
        }
        let stats = service.stats();

        let mut dec = MwpmDecoder::new(ctx.gwt());
        let mut scratch = DecodeScratch::new();
        let want = decode_slice(&mut dec, &mut scratch, &stream, 0..stream.len());
        assert_eq!(stats.outcome.stats, want.stats);
        assert_eq!(stats.outcome.failures, want.failures);
        assert_eq!(stats.outcome.deferred, want.deferred);
        assert_eq!(stats.counters.shots_screened, stream.len() as u64);
    }

    #[test]
    fn service_shuts_down_cleanly_with_idle_sessions() {
        let ctx = test_ctx(3, 1e-3);
        let service = DecodeService::new(Arc::clone(&ctx), ServeConfig::default(), mwpm_factory());
        let mut session = service.session(SubmitPolicy::Block);
        session.submit(&[0, 1], 0).expect("submit");
        let _ = session.recv().expect("recv");
        service.shutdown();
        // After shutdown every path reports Closed rather than hanging.
        assert_eq!(session.submit(&[0], 0), Err(SubmitError::Closed));
        assert_eq!(session.recv(), Err(RecvError::Closed));
    }

    #[test]
    fn wire_round_trip_over_tcp() {
        let ctx = test_ctx(3, 2e-2);
        let stream = sample_stream(&ctx, 3, 64);
        let service = Arc::new(DecodeService::new(
            Arc::clone(&ctx),
            ServeConfig {
                workers: 1,
                tile_words: 1,
                ..ServeConfig::default()
            },
            mwpm_factory(),
        ));
        let server = serve_tcp(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("tcp addr");
        let mut client = WireClient::connect_tcp(addr).expect("connect");
        let want = offline(&ctx, &stream);
        // Ping-pong a prefix, then batch the rest and drain.
        for (i, w) in want.iter().enumerate().take(16) {
            client
                .submit(stream.detectors(i), stream.observables(i))
                .expect("submit");
            let (seq, pred) = client.recv().expect("recv");
            assert_eq!(seq, i as u64);
            assert_eq!(&pred, w);
        }
        for i in 16..stream.len() {
            client
                .submit(stream.detectors(i), stream.observables(i))
                .expect("submit");
        }
        client.flush().expect("flush");
        for (i, w) in want.iter().enumerate().skip(16) {
            let (seq, pred) = client.recv().expect("recv");
            assert_eq!(seq, i as u64);
            assert_eq!(&pred, w);
        }
        drop(client);
        server.shutdown();
        service.shutdown();
    }

    #[cfg(unix)]
    #[test]
    fn wire_round_trip_over_unix_socket() {
        let ctx = test_ctx(3, 2e-2);
        let stream = sample_stream(&ctx, 5, 32);
        let service = Arc::new(DecodeService::new(
            Arc::clone(&ctx),
            ServeConfig {
                workers: 1,
                tile_words: 1,
                ..ServeConfig::default()
            },
            mwpm_factory(),
        ));
        let path =
            std::env::temp_dir().join(format!("astrea-serve-test-{}.sock", std::process::id()));
        let server = serve_unix(Arc::clone(&service), &path).expect("bind unix");
        let mut client = WireClient::connect_unix(&path).expect("connect unix");
        let want = offline(&ctx, &stream);
        for (i, w) in want.iter().enumerate() {
            client
                .submit(stream.detectors(i), stream.observables(i))
                .expect("submit");
            let (seq, pred) = client.recv().expect("recv");
            assert_eq!(seq, i as u64);
            assert_eq!(&pred, w);
        }
        drop(client);
        server.shutdown();
        assert!(!path.exists(), "socket file removed at shutdown");
    }

    #[test]
    fn closed_loop_load_gen_is_replay_exact() {
        let ctx = test_ctx(3, 2e-2);
        let cfg = LoadGenConfig {
            clients: 2,
            shots_per_client: 120,
            mode: ArrivalMode::Closed,
            replay_fraction: 0.5,
            seed: 99,
        };
        let streams = build_workload(&ctx, &cfg);
        assert_eq!(streams.len(), 2);
        let service = DecodeService::new(Arc::clone(&ctx), ServeConfig::default(), mwpm_factory());
        let report = run_load(&service, &streams, cfg.mode);
        assert_eq!(report.shots, 240);
        assert!(report.shots_per_sec > 0.0);
        for (stream, outcome) in streams.iter().zip(&report.outcomes) {
            assert_eq!(outcome.predictions, offline(&ctx, stream));
        }
        // The replayed halves revisit earlier shots, so identical
        // syndromes must predict identically (spot-check the workload
        // builder actually produced repeats).
        let s = &streams[0];
        let repeats = (1..s.len())
            .filter(|&i| (0..i).any(|j| s.detectors(i) == s.detectors(j)))
            .count();
        assert!(repeats > 20, "replay fraction produced {repeats} repeats");
    }

    #[test]
    fn open_loop_load_gen_measures_from_intended_arrival() {
        let ctx = test_ctx(3, 1e-2);
        let cfg = LoadGenConfig {
            clients: 2,
            shots_per_client: 60,
            mode: ArrivalMode::Open {
                shots_per_sec: 20_000.0,
            },
            replay_fraction: 0.0,
            seed: 5,
        };
        let streams = build_workload(&ctx, &cfg);
        let service = DecodeService::new(Arc::clone(&ctx), ServeConfig::default(), mwpm_factory());
        let report = run_load(&service, &streams, cfg.mode);
        assert_eq!(report.shots, 120);
        assert!(report.p50_ns <= report.p99_ns && report.p99_ns <= report.p999_ns);
        assert!(report.p999_ns <= report.max_ns);
        for (stream, outcome) in streams.iter().zip(&report.outcomes) {
            assert_eq!(outcome.predictions, offline(&ctx, stream));
            assert_eq!(outcome.modeled_ns.len(), stream.len());
        }
    }
}
