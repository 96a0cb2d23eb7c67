//! Graph-native primal-dual pair discovery for the deep tail: grow every
//! region a capped ball, collect meets where the balls co-settle, never
//! materialize a pair weight that matching can't use.
//!
//! [`stage_ondemand`](crate::LocalWeightProvider::stage_ondemand) already
//! certifies most pairs dominated without touching the graph, but every
//! *genuine* collision pair still costs a one-sided search: the region of
//! detector `i` must grow until it swallows detector `j`, a ball of
//! radius `d(i, j)` — and a dominated-but-unexcluded pair costs the full
//! bound radius. At d = 31 those balls pin ~1.8 M settles per shot — the
//! measured floor of the one-sided contract (EXPERIMENTS.md, "Why not
//! 10×").
//!
//! [`stage_graph_pd`](crate::LocalWeightProvider::stage_graph_pd) is the
//! Sparse Blossom move (Higgott & Gidney, arXiv:2303.15933) applied to
//! pair discovery: *both* endpoints of a pair grow toward each other, so
//! each pays a fraction of the distance — and in the 3-D space-time
//! lattice a fractional radius costs a cubed fraction of the volume. It is
//! the default deep-tail engine ([`DeepBackend::GraphPd`]). The stage
//! runs five passes over packed per-shot state:
//!
//! 1. **Envelope.** A k×k distance upper bound `ub(i,j) ≥ d(i,j)` from
//!    the best sum over the ALT landmark rows of the graph's shared
//!    index, sharpened by a metric closure through the fired detectors
//!    themselves (sound because every `ub(i,m) + ub(m,j)` overestimates a
//!    real path). It is held in the provider's own k×k pair block, which
//!    has nothing to hold until resolution overwrites it.
//! 2. **Census.** Pairs whose coordinate or landmark lower bound (the best
//!    difference over the same rows, recomputed per pair rather than
//!    stored) clears the dominance bound
//!    `bound(i,j) = max(bᵢ + bⱼ, (qbᵢ + qbⱼ + 1)/scale)` are excluded
//!    outright; each survivor records its joint growth requirement
//!    `need(i,j) = min(bound, ub) + w_max`, where `w_max` is the largest
//!    internal edge weight.
//! 3. **Share passes.** The joint requirement is split between the two
//!    endpoint regions. Any split works — whenever the two radius caps
//!    sum to `need`, the first shortest-chain node inside the walked cap
//!    is settled by both balls (the split-edge argument below) — so the
//!    split is a pure cost knob, and a few fixed-point rounds of
//!    proportional sharing let regions that already grow far for one
//!    pair absorb their other pairs' shares for free. The last round
//!    assigns roles: the side with the larger previous-round cap
//!    becomes the *dense* (probed) side, the other the *walked* side,
//!    with the split skewed further toward dense because region caps are
//!    shared across a region's pairs while the walk is paid per pair.
//!    Roles therefore follow one total order over regions.
//! 4. **Growth.** One capped Dijkstra per region over the provider's
//!    stamped `NodeState` arrays, in that total order (ascending cap), so
//!    every pair's walked side grows before its dense side. A region
//!    logs only the prefix of its ball that some pair walks, as a
//!    contiguous `(dist, node, parity)` run; a region no pair walks logs
//!    nothing. Frontier pushes beyond the cap are skipped — with positive
//!    weights nothing outside the cap re-enters it, so capped balls stay
//!    prefix-exact (the on-demand radius argument). The frontier is a
//!    Dial bucket queue with granularity strictly below the smallest
//!    edge weight: draining a bucket can never push back into it, so
//!    settle order is exact Dijkstra order at O(1) per queue operation
//!    instead of a binary-heap log.
//! 5. **Meet sweep.** Right after a region grows, its pairs as dense
//!    side are swept: the ball is still the live stamp in the node
//!    arrays (settled exactly where the distance is within the cap), so
//!    each pair walks its partner's logged prefix (up to its own cutoff,
//!    with one granule of slack for within-bucket disorder) and probes
//!    the node arrays directly for co-settled nodes, keeping the minimum
//!    witness `μ = d_dense(x) + d_walk(x)`. No dense image is painted.
//!
//! **Why the witnesses are exact.** For a pair with true distance
//! `D ≤ min(bound, ub)` and caps `c_dense + c_walk ≥ D + w_max`, take
//! the first node `y` on the shortest `i → j` chain with
//! `suffix(y) ≤ c_walk`. Its predecessor has `suffix > c_walk`, so
//! `prefix(y) < D - c_walk + w_max ≤ c_dense` — `y` is settled by both
//! capped balls, both distances are prefix-exact, and the witness sums
//! to exactly `D`. Any witness anywhere is `≥ D` by the triangle
//! inequality, so the sweep minimum is exactly `d(i, j)` for every pair
//! that matters; a pair whose balls never co-settle within its bound is
//! certified dominated — the staged oracle's settled/`INFINITY` split.
//!
//! The discovered block is *semantically* identical to the staged
//! oracle's (same settled-pair set, same dominance certificates) but not
//! *bit*-identical: a meet weight is the sum of two partial chains
//! rather than one source-rooted chain, so the f64 rounds differently in
//! the last ulp, and an equal-weight meet may surface a different
//! shortest chain (different observable parity) than the one-sided
//! relaxation order picks. [`DeepBackend::GraphPd`] is therefore
//! validated by per-shot optimality certificates (equal total matching
//! weight under the oracle's weights, d = 15 included) and a statistical
//! LER gate rather than matching-for-matching equality — see
//! `tests/graphpd_vs_ondemand.rs`.
//!
//! All per-shot bookkeeping lives in a [`GraphPdScratch`] owned by the
//! worker's `DecodeScratch`: buffers grow once and are reused, so
//! steady-state discovery performs no allocation. The arena holds no k×k
//! matrix, and the syndrome-independent search index is the graph's,
//! shared by every worker.
//!
//! [`DeepBackend::GraphPd`]: https://docs.rs/blossom-mwpm

/// Work counters for the graph-native primal-dual discovery engine,
/// threaded through the pipeline's counters so benches and smoke tests
/// can see the backend working (and assert the *other* deep backends
/// stayed idle — the dispatch drift guard).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphPdStats {
    /// Calls to
    /// [`stage_graph_pd`](crate::LocalWeightProvider::stage_graph_pd)
    /// (one per deep shot that reaches the backend).
    pub stages: u64,
    /// Stagings answered by the staged-block memo (identical detector
    /// list discovered again — replayed shots on served streams).
    pub memo_hits: u64,
    /// Growth regions seeded (fired detectors with at least one
    /// non-excluded pair).
    pub regions: u64,
    /// Region grow steps: nodes settled across all regions (the grown
    /// volume — the number the one-sided engine pays a multiple of).
    pub grows: u64,
    /// Adjacency entries scanned while growing (relaxations attempted).
    pub edge_events: u64,
    /// Region merges: pairs whose half-radius balls co-settled within
    /// the bound, i.e. pairs discovered with an exact weight.
    pub merges: u64,
    /// Regions grown to their cap and retired (every region retires —
    /// kept distinct from `regions` so a dispatch bug that seeds but
    /// never grows shows up as a counter mismatch).
    pub frozen: u64,
    /// Deep clusters handed to the blossom solver under graph-pd
    /// staging (the matching-side cost of what discovery found).
    pub blossoms: u64,
    /// Pairs certified dominated: the capped balls never co-settled
    /// within the pair's bound, so boundary matching provably wins in
    /// both weight domains.
    pub deadline_pruned: u64,
    /// Pairs excluded up front by a coordinate or landmark lower bound
    /// (never tracked at all).
    pub excluded: u64,
}

impl GraphPdStats {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &GraphPdStats) {
        self.stages += other.stages;
        self.memo_hits += other.memo_hits;
        self.regions += other.regions;
        self.grows += other.grows;
        self.edge_events += other.edge_events;
        self.merges += other.merges;
        self.frozen += other.frozen;
        self.blossoms += other.blossoms;
        self.deadline_pruned += other.deadline_pruned;
        self.excluded += other.excluded;
    }

    /// True when no graph-pd discovery ran (used by smoke asserts).
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
            edge_events: self.edge_events.saturating_sub(baseline.edge_events),
            merges: self.merges.saturating_sub(baseline.merges),
            frozen: self.frozen.saturating_sub(baseline.frozen),
            blossoms: self.blossoms.saturating_sub(baseline.blossoms),
            deadline_pruned: self
                .deadline_pruned
                .saturating_sub(baseline.deadline_pruned),
            excluded: self.excluded.saturating_sub(baseline.excluded),
        }
    }
}

/// One tracked (non-excluded) pair of the current shot, in 16 bytes.
/// Its other numbers are not stored here: the dominance bound is
/// recomputed from the boundary table, and the growth requirement, the
/// sweep cutoff and the witness parity live in the pair's cells of the
/// provider's k×k blocks until resolution overwrites them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairRec {
    /// Best co-settlement witness so far (`INFINITY` until the balls
    /// touch); exactly `d(i, j)` once the sweep completes, for every
    /// pair within its bound.
    pub(crate) mu: f64,
    /// Endpoint slots: `i < j` from the census, then the dense side `i`
    /// and the walked side `j` once the share passes assign roles.
    pub(crate) i: u32,
    pub(crate) j: u32,
}

/// One logged node of a walked region's ball: distance, node, and chain
/// parity in 16 bytes, so growth writes and sweep walks touch a single
/// stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BallEntry {
    /// Settled distance from the region source.
    pub(crate) dist: f64,
    /// The settled node.
    pub(crate) node: u32,
    /// Chain parity behind `dist`.
    pub(crate) par: u32,
}

/// Entries per ball-log segment (1 MiB), unless the graph needs more to
/// hold one region's whole prefix. One segment holds the largest log of
/// a d = 15, p = 5×10⁻³ shot (about 11 k entries) several times over.
const BALL_SEGMENT: usize = 1 << 16;

/// The ball log: each walked region's logged prefix, in growth order,
/// contiguous per region. It lives in fixed-capacity segments that are
/// allocated once and filled in place, never reallocated: no doubling
/// chain of copies and freed intermediate blocks, and only the pages the
/// entries are written to become resident. A segment is large enough
/// that the allocator maps it on its own rather than carving it from a
/// worker's heap, so dropping an arena returns it whole (EXPERIMENTS.md
/// records the peak-RSS effect of smaller segments). A segment holds
/// more entries than the graph has nodes, so when one fills mid-region
/// the region's partial prefix moves to the next segment whole.
#[derive(Debug, Clone, Default)]
pub(crate) struct BallLog {
    segs: Vec<Vec<BallEntry>>,
    /// Segment being appended to.
    cur: usize,
    /// Where the region being logged starts in `segs[cur]`.
    start: usize,
    /// Capacity of a new segment.
    seg_cap: usize,
}

impl BallLog {
    /// Empties the log (keeping its segments) for a graph of `nodes`
    /// detectors.
    pub(crate) fn reset(&mut self, nodes: usize) {
        for seg in &mut self.segs {
            seg.clear();
        }
        self.cur = 0;
        self.start = 0;
        self.seg_cap = BALL_SEGMENT.max(nodes + 1);
    }

    /// Starts logging a new region.
    pub(crate) fn begin(&mut self) {
        self.start = self.segs.get(self.cur).map_or(0, Vec::len);
    }

    /// Appends one entry to the region being logged.
    #[inline]
    pub(crate) fn push(&mut self, entry: BallEntry) {
        if self.segs.is_empty() {
            self.segs.push(Vec::with_capacity(self.seg_cap));
        }
        if self.segs[self.cur].len() == self.segs[self.cur].capacity() {
            self.cur += 1;
            if self.cur == self.segs.len() {
                self.segs.push(Vec::with_capacity(self.seg_cap));
            }
            let (done, next) = self.segs.split_at_mut(self.cur);
            let full = &mut done[self.cur - 1];
            next[0].extend_from_slice(&full[self.start..]);
            full.truncate(self.start);
            self.start = 0;
        }
        self.segs[self.cur].push(entry);
    }

    /// Ends the region being logged; its prefix is [`Self::span`] of the
    /// returned handle.
    pub(crate) fn end(&self) -> [u32; 3] {
        let len = self.segs.get(self.cur).map_or(0, Vec::len);
        [self.cur as u32, self.start as u32, len as u32]
    }

    /// A logged region's prefix.
    #[inline]
    pub(crate) fn span(&self, [seg, start, end]: [u32; 3]) -> &[BallEntry] {
        match self.segs.get(seg as usize) {
            Some(s) => &s[start as usize..end as usize],
            None => &[],
        }
    }
}

/// Per-region growth state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegionRec {
    /// Radius cap: the largest share of a joint pair requirement
    /// `min(bound, ub) + w_max` charged to this region by the share
    /// passes. Frontier pushes beyond the cap are skipped — the same
    /// prefix-exactness argument as the on-demand radius skip, since
    /// with positive weights any path into the capped ball stays inside
    /// it.
    pub(crate) cap: f64,
    /// Farthest distance any pair walks this ball to (its largest cut
    /// plus one granule); `NEG_INFINITY` when no pair walks it. The
    /// ball log keeps the growth-order prefix up to it.
    pub(crate) walk: f64,
    /// Tracked pairs charged to this region; zero-pair regions are
    /// never grown.
    pub(crate) pairs: u32,
    /// Handle of the region's logged prefix in the [`BallLog`].
    pub(crate) log: [u32; 3],
    /// The pairs whose dense side this region is: `pairs[dense[0]..dense[1]]`.
    pub(crate) dense: [u32; 2],
}

impl RegionRec {
    /// A region no pair has touched yet.
    pub(crate) const EMPTY: RegionRec = RegionRec {
        cap: 0.0,
        walk: f64::NEG_INFINITY,
        pairs: 0,
        log: [0, 0, 0],
        dense: [0, 0],
    };
}

/// Per-worker bookkeeping arena for
/// [`stage_graph_pd`](crate::LocalWeightProvider::stage_graph_pd): the
/// pair/region tables, the growth order, the walked-prefix ball log, and
/// the Dial queue. Owned by `DecodeScratch` so the buffers persist
/// across shots — grown once, reused forever, zero steady-state
/// allocation. The k×k distance envelope is not here: it lives in the
/// provider's own pair-weight block until resolution overwrites it.
#[derive(Debug, Clone, Default)]
pub struct GraphPdScratch {
    /// Tracked pairs of the current shot, grouped by dense endpoint once
    /// roles are assigned.
    pub(crate) pairs: Vec<PairRec>,
    /// Per-region growth state.
    pub(crate) regions: Vec<RegionRec>,
    /// Regions with tracked pairs, in growth order: every pair's walked
    /// side before its dense side.
    pub(crate) order: Vec<u32>,
    /// Ball log: the walked prefix of each region, in growth order
    /// (contiguous per region, bucket-ordered — distances are
    /// nondecreasing up to one Dial granule of within-bucket disorder).
    pub(crate) ball: BallLog,
    /// Dial (bucket) queue for the capped growths: bucket `b` holds
    /// frontier keys with distance in `[b·gran, (b+1)·gran)` where
    /// `gran` is strictly below the smallest edge weight, so draining a
    /// bucket can never push back into it and settle order is exact
    /// Dijkstra order at O(1) per operation.
    pub(crate) dial: Vec<Vec<u128>>,
    /// Row buffer for the metric-closure pass (the pivot row is copied
    /// out so the relaxation can scan it while rewriting other rows),
    /// then the share passes' previous-round caps.
    pub(crate) closure_row: Vec<f64>,
    /// Work counters accumulated by this worker since construction (the
    /// pipeline harvests deltas per tile).
    pub stats: GraphPdStats,
}

impl GraphPdScratch {
    /// A fresh, empty arena.
    pub fn new() -> GraphPdScratch {
        GraphPdScratch::default()
    }

    /// Clears the bookkeeping (not the accumulated stats) without
    /// releasing capacity.
    pub fn clear(&mut self) {
        self.pairs.clear();
        self.regions.clear();
        self.order.clear();
        self.ball.reset(0);
        self.dial.clear();
        self.closure_row.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: usize) -> BallEntry {
        BallEntry {
            dist: i as f64,
            node: i as u32,
            par: (i % 2) as u32,
        }
    }

    #[test]
    fn ball_log_keeps_each_prefix_contiguous_across_segments() {
        // Region A nearly fills the first segment; region B overflows it
        // and must move to the second segment whole; region C logs
        // nothing. No segment ever grows past its capacity.
        let mut log = BallLog::default();
        log.reset(16);
        let mut spans = Vec::new();
        for len in [BALL_SEGMENT - 5, 12, 0, 3] {
            log.begin();
            for i in 0..len {
                log.push(entry(i));
            }
            spans.push((len, log.end()));
        }
        for (len, span) in &spans {
            let got = log.span(*span);
            assert_eq!(got.len(), *len);
            for (i, e) in got.iter().enumerate() {
                assert_eq!(
                    (e.dist, e.node, e.par),
                    (i as f64, i as u32, (i % 2) as u32)
                );
            }
        }
        assert_eq!(
            spans[1].1[0], 1,
            "the overflowing prefix moved to segment 1"
        );
        assert!(log.segs.iter().all(|s| s.capacity() == BALL_SEGMENT));
        // Reset keeps the segments (and their capacity) for the next shot.
        log.reset(16);
        assert!(log.segs.iter().all(Vec::is_empty));
        assert_eq!(log.segs.len(), 2);
    }
}
