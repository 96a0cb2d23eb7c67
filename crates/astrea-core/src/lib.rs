//! Astrea and Astrea-G: practical real-time MWPM decoding for surface codes.
//!
//! This crate implements the Astrea paper's contributions as
//! cycle-modeled software equivalents of the proposed FPGA designs:
//!
//! * [`AstreaDecoder`] (§5) — brute-force MWPM for syndromes of Hamming
//!   weight ≤ 10, built from the combinational [`hw6`] block exactly like
//!   the hardware: HW 3–6 decode in one pass, HW 7–8 pre-match one pair
//!   (7 HW6 accesses), HW 9–10 pre-match two pairs (63 accesses). The cycle
//!   model reproduces the paper's 114-cycle worst case (456 ns at 250 MHz).
//! * [`AstreaGDecoder`] (§7) — the greedy pipeline for higher Hamming
//!   weights: a weight-threshold-filtered Local Weight Table, `F` priority
//!   queues of `E` pre-matchings scored by weight-per-matched-bit, a
//!   Fetch/Sort/Commit pipeline, and the HW6 block to finish each
//!   pre-matching, all under a 1 µs (250-cycle) real-time budget.
//! * [`LutDecoder`] (§2.3.2) — a LILLIPUT-style lookup-table decoder.
//! * [`CliqueDecoder`] (§2.3.4) — a Clique-style hierarchical pre-decoder
//!   with software-MWPM fallback.
//! * [`overheads`] — the storage and bandwidth models behind Tables 6–7.
//!
//! Bulk decoding runs through one of two paths. The [`batch`] module's
//! [`decode_slice`] decodes a [`SyndromeBatch`] shot by shot and returns
//! per-shot predictions. The streaming [`pipeline`] is the fast path:
//! packed syndrome tiles flow from sampler producers over a bounded
//! channel into consumers that screen shots word-parallel ([`screen`])
//! and only materialize sparse detector lists for Hamming weight ≥ 3.
//!
//! ```
//! use astrea_core::{AstreaDecoder, AstreaGDecoder};
//! use decoding_graph::{Decoder, DecodingContext};
//! use qec_circuit::NoiseModel;
//! use surface_code::SurfaceCode;
//!
//! let code = SurfaceCode::new(3)?;
//! let ctx = DecodingContext::for_memory_experiment(&code, NoiseModel::depolarizing(1e-3));
//! let mut astrea = AstreaDecoder::new(ctx.gwt());
//! let p = astrea.decode(&[0, 1, 4, 5]);
//! assert!(p.latency_ns(250.0) <= 456.0);
//! # Ok::<(), surface_code::InvalidDistance>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod astrea;
mod astrea_g;
pub mod batch;
mod clique;
pub mod compression;
pub mod hw6;
mod latency;
mod lut;
pub mod overheads;
pub mod pipeline;
pub mod screen;

pub use astrea::{AstreaConfig, AstreaDecoder};
pub use astrea_g::{AstreaGConfig, AstreaGDecoder};
pub use batch::{
    decode_slice, shot_seed, BatchDecoderFactory, SliceOutcome, SyndromeBatch, SyndromeBatchBuilder,
};
pub use clique::CliqueDecoder;
pub use compression::SyndromeCompressor;
pub use latency::{
    astrea_decode_cycles, astrea_fetch_cycles, CycleModel, LatencyStats, CYCLE_BUCKETS,
    DEFAULT_FREQ_MHZ, HW_BUCKETS,
};
pub use lut::{lilliput_table_bytes, LutDecoder, MAX_LUT_BITS};
pub use pipeline::{
    consume_tiles, decode_tile, decode_tile_reference, decode_tile_with_predictions, tile_channel,
    PipelineCounters, StreamOutcome, TileQueue, TileScratch, DEFAULT_CHANNEL_DEPTH,
    DEFAULT_HARD_CACHE_ENTRIES, DEFAULT_TILE_WORDS,
};
pub use screen::{HardSyndromeCache, ScreenCache, HARD_CACHE_MAX_HW, HARD_CACHE_MIN_HW};
