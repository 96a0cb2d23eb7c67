//! Price-and-repair staging for the deep tail: search a few neighbours
//! per fired detector, solve the whole shot, and resolve exactly only the
//! pairs the solve's duals ask about.
//!
//! Minimum-weight perfect matching reads only low-weight pairs. The
//! optimum of a deep shot uses its matched pairs plus a handful of pairs
//! the dual solution could be wrong about; every other pair weight is
//! work the matching never reads. Price-and-repair (Cook & Rohe's
//! Blossom IV, INFORMS J. Computing 1999) and Sparse Blossom (Higgott &
//! Gidney, arXiv:2303.15933) both rest on this. The engine behind
//! [`DeepBackend::GraphPd`] runs it in four steps, the first in
//! [`stage_graph_pd`](crate::LocalWeightProvider::stage_graph_pd), the
//! rest in the decoder's deep solve:
//!
//! 1. **Seed.** One capped Dijkstra per fired detector, on the search
//!    kernel of [`stage`](crate::LocalWeightProvider::stage). It stops once
//!    it has settled its `SEED_NEIGHBOURS` (4) nearest fired detectors, or
//!    once its frontier passes `bᵢ + max b` (in both weight domains), the
//!    largest dominance bound any of its pairs can have. A settled
//!    detector's cell gets its exact distance, or `INFINITY` when that
//!    distance lies past the pair's dominance bound
//!    `bound(i,j) = max(bᵢ + bⱼ, (qbᵢ + qbⱼ + 1)/scale)`. Each search
//!    also proves every pair whose bound lies below its final frontier
//!    dominated (`INFINITY`), and so does a coordinate or ALT landmark
//!    lower bound past the dominance bound. Every other cell is
//!    **unsearched** (`NaN`), and the provider keeps it on a list with
//!    its lower bound, computed once per shot.
//! 2. **Solve.** One `sparse_blossom` solve over the whole shot. An
//!    unsearched pair enters at its via-boundary weight `min(bᵢ + bⱼ,
//!    WEIGHT_CLAMP)`, which is an upper bound `U` on its true effective
//!    weight: every decode consumer treats a `NaN` cell exactly as it
//!    treats `INFINITY`.
//! 3. **Price.** For each unsearched pair the decoder converts the lower
//!    bound into the solve's fixed point, `L`, exactly as it staged `U`.
//!    On the final reflected arena (`w' = 2·(W − w + 1)`), the pair's true
//!    reflected weight is at most `w'_used + 2·(U − L)`, so the duals stay
//!    feasible for every weight the pair can truly have unless
//!    `lab[u] + lab[v] < 2·(w'_used + 2·(U − L))`. Blossom duals are
//!    non-negative, so leaving them out only makes the test stricter.
//! 4. **Repair.** The violators are resolved exactly by
//!    [`repair_graph_pd`](crate::LocalWeightProvider::repair_graph_pd):
//!    one capped Dijkstra per distinct lower slot, out to the largest
//!    dominance bound among that slot's violators. Then the shot is
//!    solved again.
//!
//! **Why the exit is a certificate.** The loop stops when no unsearched
//! pair violates. The final duals are then feasible for every pair at
//! its true weight: exact pairs are solved at their true weight, and an
//! unsearched pair's true weight is at least `L`, which the test covered.
//! The mate is tight under the weights it was solved with, and its
//! matched pairs weigh no less there than under the true weights, so by
//! LP duality it is a minimum-weight perfect matching under the exact
//! weights, at any distance. Each pass resolves at least one unsearched
//! pair, so the loop terminates. The GWT backend and the other
//! deep-tail engines run the same loop; none of their cells is
//! unsearched, so they stop after one solve.
//!
//! **Unsearched versus dominated.** `INFINITY` means *proved dominated*:
//! matching both detectors to the boundary wins in both weight domains.
//! `NaN` means *not looked at*: the pair may be cheap, and only the
//! pricing step may decide that it does not matter. Both read as the
//! via-boundary weight everywhere a decoder reads a pair, so a decode
//! stays a pure function of the detector list: a memo hit restarts from
//! the repaired block, whose solve is the first decode's last solve, bit
//! for bit.
//!
//! The block is not bit-identical to the staged oracle's: a pair first
//! settled from its higher slot carries that direction's f64 sum, and
//! pricing leaves unsearched pairs the oracle resolves. The contract is
//! the per-shot optimality certificate above, checked against the staged
//! oracle's exact weights by `tests/graphpd_vs_ondemand.rs` and
//! `tests/deep_certificate.rs`.
//!
//! [`DeepBackend::GraphPd`]: https://docs.rs/blossom-mwpm

/// Fired detectors each seed search settles before it stops. At d = 15,
/// p = 5×10⁻³ two neighbours left 1.60 solves and 19 repaired pairs per
/// shot, four leave 1.07 solves and 0.14 repairs, and eight double the
/// seed's settles and decode 30–50 % slower than four
/// (EXPERIMENTS.md, "Price-and-repair deep staging").
pub(crate) const SEED_NEIGHBOURS: usize = 4;

/// Work counters for the price-and-repair engine, threaded through the
/// pipeline's counters so benches and smoke tests can see the backend
/// working (and assert the *other* deep backends stayed idle — the
/// dispatch drift guard). Every pair of a stage that is not a memo hit
/// lands in exactly one of `merges`, `deadline_pruned` and `excluded`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphPdStats {
    /// Calls to
    /// [`stage_graph_pd`](crate::LocalWeightProvider::stage_graph_pd)
    /// (one per deep shot that reaches the backend).
    pub stages: u64,
    /// Stagings answered by the staged-block memo (identical detector
    /// list staged again — replayed shots on served streams).
    pub memo_hits: u64,
    /// Seed searches run: one per fired detector of a stage.
    pub regions: u64,
    /// Nodes settled by the seed and repair searches.
    pub grows: u64,
    /// Pairs that ended with an exact weight.
    pub merges: u64,
    /// Whole-shot blossom solves, re-solves included.
    pub blossoms: u64,
    /// Pairs a seed or repair search proved dominated.
    pub deadline_pruned: u64,
    /// Pairs never searched: dominated by a lower bound, or left
    /// unsearched because pricing never flagged them.
    pub excluded: u64,
    /// Pairs searched because pricing flagged them.
    pub repairs: u64,
}

impl GraphPdStats {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &GraphPdStats) {
        self.stages += other.stages;
        self.memo_hits += other.memo_hits;
        self.regions += other.regions;
        self.grows += other.grows;
        self.merges += other.merges;
        self.blossoms += other.blossoms;
        self.deadline_pruned += other.deadline_pruned;
        self.excluded += other.excluded;
        self.repairs += other.repairs;
    }

    /// True when no graph-pd staging ran (used by smoke asserts).
    pub fn is_idle(&self) -> bool {
        self.stages == 0
    }

    /// The work done since `baseline` was captured (saturating, so a
    /// counter reset between captures reads as zero rather than
    /// wrapping). The pipeline uses this to attribute a worker's
    /// cumulative counters to individual tiles.
    pub fn delta_since(&self, baseline: &GraphPdStats) -> GraphPdStats {
        GraphPdStats {
            stages: self.stages.saturating_sub(baseline.stages),
            memo_hits: self.memo_hits.saturating_sub(baseline.memo_hits),
            regions: self.regions.saturating_sub(baseline.regions),
            grows: self.grows.saturating_sub(baseline.grows),
            merges: self.merges.saturating_sub(baseline.merges),
            blossoms: self.blossoms.saturating_sub(baseline.blossoms),
            deadline_pruned: self
                .deadline_pruned
                .saturating_sub(baseline.deadline_pruned),
            excluded: self.excluded.saturating_sub(baseline.excluded),
            repairs: self.repairs.saturating_sub(baseline.repairs),
        }
    }
}

/// One unsearched pair of the staged shot: its slots (`i < j`) and a
/// lower bound on its exact distance, computed once per shot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unsearched {
    pub(crate) i: u32,
    pub(crate) j: u32,
    pub(crate) lb: f64,
}

/// Per-worker buffers for the repair step, plus the engine's work
/// counters. Owned by `DecodeScratch` so the buffers persist across
/// shots. The per-shot state a memo hit needs (the unsearched list and
/// each slot's search frontier) lives with the staged block in the
/// provider instead.
#[derive(Debug, Clone, Default)]
pub struct GraphPdScratch {
    /// Indices into the provider's unsearched list that pricing flagged.
    pub(crate) flagged: Vec<u32>,
    /// Per-slot mark of the current repair search's targets.
    pub(crate) want: Vec<u32>,
    /// Tag of the current repair search in `want`.
    pub(crate) tag: u32,
    /// Work counters accumulated by this worker since construction (the
    /// pipeline harvests deltas per tile).
    pub stats: GraphPdStats,
}

impl GraphPdScratch {
    /// A fresh, empty arena.
    pub fn new() -> GraphPdScratch {
        GraphPdScratch::default()
    }

    /// Clears the buffers (not the accumulated stats) without releasing
    /// capacity.
    pub fn clear(&mut self) {
        self.flagged.clear();
        self.want.clear();
        self.tag = 0;
    }
}
