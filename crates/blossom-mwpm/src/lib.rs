//! Exact minimum-weight perfect matching, and the idealized software MWPM
//! decoder the Astrea paper uses as its gold-standard baseline (§3.3).
//!
//! Two independent exact algorithms are provided:
//!
//! * [`subset_dp`] — an `O(2^k · k)` dynamic program over subsets of the
//!   active detectors that *natively* supports matching to the lattice
//!   boundary. Provably optimal; practical for `k ≤ 22`.
//! * [`dense_blossom`] — a from-scratch `O(n³)` primal–dual blossom
//!   algorithm for maximum-weight matching on dense graphs (the same
//!   algorithmic family as BlossomV). Minimum-weight *perfect* matching is
//!   obtained by the standard weight reflection, and boundary matching by
//!   the reduction `w'ᵢⱼ = min(wᵢⱼ, bᵢ + bⱼ)` plus one virtual boundary
//!   node when the syndrome weight is odd.
//!
//! A third solver, [`sparse_blossom`], is the production deep-tail path:
//! the same primal–dual algorithm with all per-shot staging removed
//! (virtual adjacency + persistent scratch arena). Its mate assignment is
//! bit-identical to [`dense_blossom`]'s, which stays in place as the
//! differential oracle.
//!
//! The two are cross-validated against each other by property tests, which
//! is the crate's correctness argument. [`MwpmDecoder`] wraps them behind
//! the [`Decoder`](decoding_graph::Decoder) trait, using the unquantized
//! weights of the [`GlobalWeightTable`](decoding_graph::GlobalWeightTable)
//! — this is the paper's "idealized MWPM" reference decoder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decoder;
pub mod dense_blossom;
pub mod ondemand;
mod solution;
pub mod sparse_blossom;
pub mod subset_dp;

pub use decoder::{MwpmDecoder, DP_NODE_LIMIT};
pub use ondemand::DeepBackend;
pub use solution::MatchingSolution;
