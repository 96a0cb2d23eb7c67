//! Deep-tail backend selection: price-and-repair staging (the default),
//! on-demand sparse staging, and the full staged sweep.
//!
//! On the GWT-free backend every deep shot (`k > DP_NODE_LIMIT`) must
//! produce its pair-weight block before any matching runs. The staged
//! sweep ([`LocalWeightProvider::stage`](decoding_graph::LocalWeightProvider::stage))
//! runs one truncated Dijkstra per fired detector out to the *maximum*
//! settle bound over all of its targets, so at large distances each
//! source floods most of the lattice.
//!
//! The on-demand engine
//! ([`LocalWeightProvider::stage_ondemand`](decoding_graph::LocalWeightProvider::stage_ondemand))
//! is the Sparse Blossom move (Higgott & Gidney, arXiv:2303.15933)
//! applied to this staging architecture: grow each source region only as
//! far as a *per-pair* deadline certificate requires, discover pair
//! edges lazily when a region reaches a target, and certify every other
//! pair dominated the moment the nondecreasing settle frontier passes
//! its bound. Values come from the same search kernel, so the
//! block the matching tiers consume is bit-compatible with the staged
//! one: settled entries bit-equal, and the extra `INFINITY` entries all
//! provably behind boundary matching in both weight domains (see the
//! [`decoding_graph::ondemand`] module docs for the full argument).
//!
//! [`DeepBackend::GraphPd`] stages far less: price-and-repair
//! ([`LocalWeightProvider::stage_graph_pd`](decoding_graph::LocalWeightProvider::stage_graph_pd)
//! seeds each detector's nearest few neighbours, and the deep solve
//! resolves exactly only the pairs its duals flag, through
//! [`LocalWeightProvider::repair_graph_pd`](decoding_graph::LocalWeightProvider::repair_graph_pd)).
//! It is the default wherever a local provider is active. It gives up
//! bit-identity with the other engines: its contract is the loop's exit
//! test, an optimality certificate under the exact weights, checked per
//! shot against the staged oracle (`tests/graphpd_vs_ondemand.rs`,
//! `tests/deep_certificate.rs`) plus a statistical LER gate.
//!
//! [`DeepBackend`] selects between the engines, for every entry point
//! of the decoder alike: `decode`, `decode_with_scratch`,
//! [`MwpmDecoder::decode_full`](crate::MwpmDecoder::decode_full) and the
//! tile pipeline all stage a deep shot with the selected engine, so the
//! differential suites compare two real engines, never one engine with
//! itself. [`DeepBackend::Ondemand`] stays available for bit-identity
//! with the GWT path (the `ondemand_vs_staged` and `local_vs_gwt` suites
//! pin it), and [`DeepBackend::Staged`] runs the full sweep on deep shots
//! too, which makes it the differential oracle.

/// Which staging engine the deep tail (`k > DP_NODE_LIMIT`) uses on the
/// GWT-free backend. Irrelevant (unread) when the decoder is backed by
/// the Global Weight Table, which holds every pair already.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DeepBackend {
    /// On-demand sparse staging: upper-triangle targets, per-pair
    /// deadline certificates.
    /// Bit-identical to the staged oracle and hence to the GWT path;
    /// pinned wherever a check needs that identity.
    Ondemand,
    /// The full per-row staged sweep, which every backend also stages
    /// the DP band (`k ≤ DP_NODE_LIMIT`) with; selecting it runs the
    /// sweep on deep shots as well. The differential oracle.
    Staged,
    /// Price-and-repair staging: each fired detector searches until it
    /// has settled its 4 nearest fired detectors, the whole shot is
    /// solved once with every unsearched pair at its via-boundary
    /// weight, and the pairs the final duals flag are resolved exactly
    /// and re-solved until none is flagged. The default. **Not
    /// bit-identical** to the
    /// other backends — a pair settled from its higher slot rounds its
    /// f64 sum differently, and equal-weight matchings may tie-break
    /// differently — but the loop's exit certifies each shot optimal
    /// under the exact weights (checked against the staged oracle by the
    /// `graphpd_vs_ondemand` and `deep_certificate` suites, d = 15 and
    /// d = 21 included), and LER is statistically indistinguishable.
    #[default]
    GraphPd,
}
