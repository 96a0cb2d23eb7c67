//! Exact minimum-weight perfect matching, and the idealized software MWPM
//! decoder the Astrea paper uses as its gold-standard baseline (§3.3).
//!
//! Three exact solvers run in production, all over weights staged once
//! per shot:
//!
//! * the register-only closed form
//!   ([`subset_dp::solve_closed_form`]) for up to four detectors;
//! * [`subset_dp`] — an `O(2^k · k)` dynamic program over subsets of the
//!   active detectors that *natively* supports matching to the lattice
//!   boundary, with exact pruning and memoization. Provably optimal;
//!   used up to [`DP_NODE_LIMIT`] detectors per shot;
//! * [`sparse_blossom`] — an `O(n³)` primal–dual blossom algorithm (the
//!   same algorithmic family as BlossomV) on a virtual adjacency with a
//!   persistent scratch arena, for the deep tail: one solve over the
//!   whole shot, priced and repaired on the default GWT-free engine
//!   until its duals certify the exact-weight optimum. It starts each solve
//!   from greedy duals and a greedy tight-edge matching, as Blossom V
//!   does. Minimum-weight *perfect* matching comes from the standard
//!   weight reflection (staged doubled), and boundary matching from the
//!   reduction `w'ᵢⱼ = min(wᵢⱼ, bᵢ + bⱼ)` plus one virtual boundary node
//!   when the syndrome weight is odd.
//!
//! A fourth, [`dense_blossom`], is the oracle: the same primal–dual
//! algorithm, cold-started, over a fully materialized weight matrix. The
//! decoder never calls it. The crate's correctness argument is that the
//! sparse solver's total weight equals it exactly on every tested
//! instance, that every such sparse solve carries a dual certificate of
//! optimality (checked by the tests), and that the decoder's optima equal
//! it. The sparse solver starts from a greedy state, so its mates may
//! differ from the oracle's where matchings tie.
//!
//! [`MwpmDecoder`] wraps the production solvers behind the
//! [`Decoder`](decoding_graph::Decoder) trait, using the unquantized
//! weights of the [`GlobalWeightTable`](decoding_graph::GlobalWeightTable)
//! or their GWT-free local equivalent — this is the paper's "idealized
//! MWPM" reference decoder.

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
