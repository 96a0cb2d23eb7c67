//! On-demand sparse staging for the deep tail: per-pair deadline
//! certificates over the decoding graph.
//!
//! [`LocalWeightProvider::stage`](crate::LocalWeightProvider::stage) runs
//! one truncated Dijkstra per fired detector out to the *maximum* settle
//! bound over all of its pair targets. At large distances that radius is
//! dominated by the few far pairs of the giant bulk cluster, so every
//! source search floods most of the lattice: `O(k · ℓ)` settles per shot.
//!
//! [`stage_ondemand`](crate::LocalWeightProvider::stage_ondemand) keeps
//! the block bit-compatible while touching a fraction of that graph, by
//! exploiting three provable facts about what the decoders actually read:
//!
//! * **Landmark (ALT) exclusion.** The provider precomputes exact
//!   Dijkstra distances from a handful of farthest-point-sampled
//!   detectors; the triangle inequality `d(i,j) ≥ |d(l,i) − d(l,j)|`
//!   then certifies most far pairs dominated in O(landmarks) per pair —
//!   no graph search at all, and far tighter than the coordinate slopes
//!   on the diagonal error mechanisms that dominate bulk chains.
//! * **Upper-triangle contract.** Every decode consumer — the cluster
//!   decomposition, the subset DP's adjacency and transitions, the closed
//!   forms, the sparse blossom's staging loop (which queries `(u, v)` only
//!   for `u < v` and mirrors), and the mate folds — reads pair `(i, j)`
//!   exclusively through the row of `min(i, j)`. Row `i` therefore only
//!   searches for targets `j > i`, halving the settle volume outright.
//! * **Per-pair deadline certificates.** Dijkstra settles nodes in
//!   nondecreasing distance, so the moment the settle frontier passes
//!   `bound(i, j) = max(bᵢ + bⱼ, (qbᵢ + qbⱼ + 1)/scale)` with `j` still
//!   unsettled, `d(i, j) > bound(i, j)` is *proven* — the pair is
//!   dominated by boundary matching in both weight domains and its entry
//!   can be left `INFINITY` immediately (the same substitution argument
//!   the staged path already relies on for its radius truncation, applied
//!   per target instead of per row). Each search keeps a deadline queue of
//!   its unresolved targets sorted by bound, and stops once every
//!   target has settled or expired.
//!
//! The settled entries themselves come from the search kernel `stage`
//! uses, with the same bound and exclusion formulas, so every value and
//! parity the decoders consume is bit-identical to the staged (and GWT)
//! path. CI enforces this differentially at d ∈ {3, 5, 7, 9} on top of
//! the in-crate block-equivalence tests.
//!
//! All per-shot bookkeeping lives in an [`OndemandScratch`] owned by the
//! worker's `DecodeScratch`: buffers grow once and are reused, so
//! steady-state staging performs no allocation.

/// Work counters for the on-demand staging engine, threaded through the
/// pipeline's counters so benches and smoke tests can see the deep tail
/// working (and assert it is non-idle).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OndemandStats {
    /// Calls to
    /// [`stage_ondemand`](crate::LocalWeightProvider::stage_ondemand)
    /// (one per deep shot that reaches the backend).
    pub stages: u64,
    /// Stagings answered by the staged-block memo (identical detector
    /// list staged on-demand again — replayed shots on served streams).
    pub memo_hits: u64,
    /// Regions grown: per-source deadline-bounded Dijkstra searches.
    pub regions: u64,
    /// Nodes settled across all regions (the grown volume).
    pub settled: u64,
    /// Pair edges discovered: targets settled within their bound, i.e.
    /// pairs staged with an exact weight (region/target collisions).
    pub collisions: u64,
    /// Pairs certified dominated by an expired deadline — left
    /// `INFINITY` without the frontier ever reaching the target.
    pub deadline_pruned: u64,
    /// Pairs excluded up front by a coordinate or landmark lower bound
    /// (never searched for at all).
    pub excluded: u64,
}

impl OndemandStats {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &OndemandStats) {
        self.stages += other.stages;
        self.memo_hits += other.memo_hits;
        self.regions += other.regions;
        self.settled += other.settled;
        self.collisions += other.collisions;
        self.deadline_pruned += other.deadline_pruned;
        self.excluded += other.excluded;
    }

    /// True when no on-demand staging ran (used by smoke asserts).
    pub fn is_idle(&self) -> bool {
        self.stages == 0
    }

    /// The work done since `baseline` was captured (saturating, so a
    /// counter reset between captures reads as zero rather than
    /// wrapping). The pipeline uses this to attribute a worker's
    /// cumulative counters to individual tiles.
    pub fn delta_since(&self, baseline: &OndemandStats) -> OndemandStats {
        OndemandStats {
            stages: self.stages.saturating_sub(baseline.stages),
            memo_hits: self.memo_hits.saturating_sub(baseline.memo_hits),
            regions: self.regions.saturating_sub(baseline.regions),
            settled: self.settled.saturating_sub(baseline.settled),
            collisions: self.collisions.saturating_sub(baseline.collisions),
            deadline_pruned: self
                .deadline_pruned
                .saturating_sub(baseline.deadline_pruned),
            excluded: self.excluded.saturating_sub(baseline.excluded),
        }
    }
}

/// Per-worker bookkeeping arena for
/// [`stage_ondemand`](crate::LocalWeightProvider::stage_ondemand): the
/// per-source deadline queue plus its resolution state. Owned by
/// `DecodeScratch` so the buffers persist across shots — grown once,
/// reused forever, zero steady-state allocation.
#[derive(Debug, Clone, Default)]
pub struct OndemandScratch {
    /// Deadline queue of the current search: `(bound, target slot)`
    /// sorted ascending by bound (ties by slot).
    pub(crate) deadlines: Vec<(f64, u32)>,
    /// Position of target slot `j` in `deadlines` (`u32::MAX` when `j`
    /// is not a target of the current search).
    pub(crate) pos: Vec<u32>,
    /// Resolution flags paired with `deadlines` (settled or expired).
    pub(crate) resolved: Vec<bool>,
    /// Work counters accumulated by this worker since construction (the
    /// pipeline harvests deltas per tile).
    pub stats: OndemandStats,
}

impl OndemandScratch {
    /// A fresh, empty arena.
    pub fn new() -> OndemandScratch {
        OndemandScratch::default()
    }

    /// Clears the bookkeeping (not the accumulated stats) without
    /// releasing capacity.
    pub fn clear(&mut self) {
        self.deadlines.clear();
        self.pos.clear();
        self.resolved.clear();
    }
}
