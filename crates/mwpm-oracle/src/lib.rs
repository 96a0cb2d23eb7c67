//! Oracles for the exact matching solvers, kept out of the production
//! build.
//!
//! Nothing here runs when a syndrome is decoded. The crate is a
//! dev-dependency of `blossom-mwpm`, of the `astrea` facade's suites and
//! of the criterion benches, and never a normal dependency of any crate.
//!
//! * [`dense_blossom`] — the primal–dual blossom algorithm, cold-started,
//!   over a fully materialized weight matrix. The tests hold the
//!   production solvers' optima equal to it; the benches time it as the
//!   software-MWPM baseline.
//! * [`certificate`] — the dual-certificate checker that proves a
//!   `sparse_blossom` solve optimal from the arena it leaves behind
//!   (LP duality for Edmonds' perfect-matching polytope, the argument
//!   Sparse Blossom rests on), against the solve's own weights or a
//!   caller's exact ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certificate;
pub mod dense_blossom;
