//! # Astrea: accurate quantum error-decoding via practical MWPM
//!
//! A from-scratch Rust reproduction of *Vittal, Das & Qureshi, "Astrea:
//! Accurate Quantum Error-Decoding via Practical Minimum-Weight
//! Perfect-Matching" (ISCA 2023)* — the real-time surface-code decoders
//! **Astrea** (exhaustive MWPM to Hamming weight 10) and **Astrea-G**
//! (filtered greedy MWPM to distance 9), together with the full evaluation
//! stack they require: a rotated-surface-code model, a circuit-level
//! noise simulator with detector error models, exact software MWPM
//! baselines (subset DP and a dense blossom algorithm), a Union-Find
//! decoder, LILLIPUT- and Clique-style baselines, and a Monte-Carlo /
//! stratified logical-error-rate harness.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! roof so applications can depend on a single crate.
//!
//! ## Quickstart
//!
//! ```
//! use astrea::prelude::*;
//! use rand::SeedableRng;
//!
//! // A distance-3 surface code memory experiment at p = 10⁻³.
//! let code = SurfaceCode::new(3)?;
//! let ctx = DecodingContext::for_memory_experiment(&code, NoiseModel::depolarizing(1e-3));
//!
//! // Sample one noisy shot and decode it in real time with Astrea.
//! let mut sampler = DemSampler::new(ctx.dem());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let shot = sampler.sample(&mut rng);
//! let mut decoder = AstreaDecoder::new(ctx.gwt());
//! let prediction = decoder.decode(&shot.detectors);
//! assert!(prediction.latency_ns(250.0) <= 456.0); // the paper's worst case
//! # Ok::<(), surface_code::InvalidDistance>(())
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and the
//! `astrea-exp` binary for the paper's tables and figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use astrea_core;
pub use astrea_experiments as experiments;
pub use astrea_serve;
pub use blossom_mwpm;
pub use decoding_graph;
pub use qec_circuit;
pub use surface_code;
pub use union_find_decoder;

/// The most common imports, bundled.
pub mod prelude {
    pub use astrea_core::{
        decode_slice, shot_seed, AstreaConfig, AstreaDecoder, AstreaGConfig, AstreaGDecoder,
        BatchDecoderFactory, CliqueDecoder, CycleModel, LatencyStats, LutDecoder, SliceOutcome,
        SyndromeBatch, SyndromeBatchBuilder, SyndromeCompressor,
    };
    pub use astrea_experiments::{
        decode_batch_ler, estimate_ler, estimate_ler_barrier, estimate_ler_streamed, mwpm_factory,
        sample_batch, sample_batch_scalar, ExperimentContext, LerResult, PipelineConfig,
        SyndromeSource,
    };
    pub use astrea_serve::{
        ClientSession, DecodeService, ServeConfig, ServiceStats, SubmitPolicy, WireClient,
    };
    pub use blossom_mwpm::{DeepBackend, MwpmDecoder, DP_NODE_LIMIT};
    pub use decoding_graph::{
        BoundaryTable, DecodeScratch, Decoder, DecodingContext, GlobalWeightTable, GraphPdScratch,
        GraphPdStats, LocalWeightProvider, LocalWeightStats, MatchingGraph, OndemandStats,
        PathReconstructor, Prediction, WeightSource,
    };
    pub use qec_circuit::{
        build_memory_x_circuit, build_memory_z_circuit, column_seed, BatchDemSampler,
        BatchFrameSimulator, BitTable, Circuit, DemSampler, DetectorErrorModel, FrameSimulator,
        NoiseMap, NoiseModel, Shot, TableauSimulator,
    };
    pub use surface_code::{Basis, CodeResources, Coord, Pauli, SurfaceCode};
    pub use union_find_decoder::{GrowthPolicy, UnionFindDecoder};
}
