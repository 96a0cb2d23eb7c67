//! Matching graphs, all-pairs shortest paths, and the Global Weight Table.
//!
//! Surface-code decoding reduces to minimum-weight perfect matching over the
//! *detectors* that fired. This crate provides the shared infrastructure
//! every decoder in the workspace consumes:
//!
//! * [`MatchingGraph`] — the sparse detector graph derived from a circuit's
//!   [detector error model](qec_circuit::DetectorErrorModel): one node per
//!   detector, one weighted edge per elementary error mechanism (with
//!   multi-detector mechanisms decomposed into edges), plus boundary edges.
//! * [`GlobalWeightTable`] — the paper's GWT (§5.1): an ℓ×ℓ table of 8-bit
//!   quantized weights `−log₁₀ P(pair)` for every detector pair, produced by
//!   all-pairs Dijkstra over the matching graph, with the boundary weight of
//!   each detector on the diagonal. An observable-parity matrix rides along
//!   so that any matching implies a logical-correction prediction.
//! * [`Decoder`] / [`Prediction`] — the trait every decoder implements.
//!
//! ```
//! use decoding_graph::DecodingContext;
//! use qec_circuit::{build_memory_z_circuit, NoiseModel};
//! use surface_code::SurfaceCode;
//!
//! let code = SurfaceCode::new(3)?;
//! let circuit = build_memory_z_circuit(&code, 3, NoiseModel::depolarizing(1e-3));
//! let ctx = DecodingContext::from_circuit(&circuit);
//! assert_eq!(ctx.gwt().len(), 16); // Table 1: syndrome-vector length at d=3
//! # Ok::<(), surface_code::InvalidDistance>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod decoder;
mod dijkstra;
mod graph;
pub mod graph_pd;
mod gwt;
mod local;
pub mod ondemand;
mod paths;
mod scratch;

pub use context::{DecodingContext, GWT_AUTO_BUDGET_BYTES};
pub use decoder::{Decoder, Prediction};
pub use graph::{Edge, EdgeKind, MatchingGraph};
pub use graph_pd::{GraphPdScratch, GraphPdStats};
pub use gwt::{quantize, GlobalWeightTable};
pub use local::{BoundaryTable, LocalWeightProvider, LocalWeightStats, WeightSource};
pub use ondemand::{OndemandScratch, OndemandStats};
pub use paths::PathReconstructor;
pub use scratch::{DecodeScratch, RepEdge, SparseBlossomScratch};
