//! Reusable decode scratch buffers.
//!
//! Batched decoding runs millions of shots through one decoder instance;
//! allocating working memory per shot dominates the runtime of the
//! software decoders (the subset DP alone needs `O(2^k)` floats). A
//! [`DecodeScratch`] is an arena of growable buffers that a worker owns
//! alongside its decoder and passes into
//! [`Decoder::decode_with_scratch`](crate::Decoder::decode_with_scratch)
//! for every shot: buffers are cleared, never shrunk, so steady-state
//! decoding performs no allocation.
//!
//! The buffers are deliberately generic (weight tables, per-node costs,
//! index maps) so that any decoder in the workspace can reuse the same
//! arena without this crate knowing its internals.

use crate::graph_pd::GraphPdScratch;
use crate::ondemand::OndemandScratch;
use std::collections::VecDeque;

/// A staged representative edge for a contracted-blossom row of the
/// sparse blossom solver's virtual adjacency.
///
/// `u` and `v` are the **original** (pre-contraction, 1-based) endpoints
/// of the edge the row entry represents; `w == 0` marks "no edge staged"
/// (original-pair weights are strictly positive after the doubled
/// reflection, so the zero is unambiguous).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepEdge {
    /// Original 1-based endpoint on the row side.
    pub u: usize,
    /// Original 1-based endpoint on the column side.
    pub v: usize,
    /// Doubled reflected integer edge weight; `0` means absent.
    pub w: i64,
}

/// Persistent per-worker arena for the sparse scratch-reusing blossom
/// solver (`blossom_mwpm::sparse_blossom`).
///
/// The dense formulation stages a `(2n+1)²` edge matrix per shot; this
/// arena instead keeps only the `(n+1)²` doubled reflected weight block
/// (read anyway by the greedy start) plus **blossom-row tables** with one row
/// per blossom id a solve has formed, added only when a new id is first
/// used. Buffers grow monotonically and are re-stamped per solve, so
/// consecutive hard shots in a tile reuse every allocation: steady-state
/// deep-tail decoding performs no heap traffic at all.
///
/// Stale contents are deliberately allowed to survive between solves —
/// the solver's invariant is that every blossom-indexed slot is written
/// before it is read within a solve, which is what makes the reuse safe
/// *and* keeps the result a pure function of the current shot (required
/// by the pipeline's streamed == barrier bit-identity contract; the
/// greedy start reads only the current shot, so dual values never carry
/// across shots, only the allocations and the `vis` stamping epoch do).
///
/// After a solve, `weights`, `lab`, `mate`, `st`, `flower` and
/// `blossom_ids` together hold the dual certificate of its optimum.
#[derive(Debug, Clone, Default)]
pub struct SparseBlossomScratch {
    /// Doubled reflected pair weights `2·(W − w + 1)`, `(n+1)²` flat,
    /// 1-based rows/columns (row 0 / column 0 are the "no vertex"
    /// sentinel; `weights[0] == 0`).
    pub weights: Vec<i64>,
    /// Dual variables (`lab`), indexed by vertex/blossom id up to `2n`.
    pub lab: Vec<i64>,
    /// Mate assignment, 1-based; `0` means unmatched.
    pub mate: Vec<usize>,
    /// Best non-tight neighbour per tree vertex (slack bookkeeping).
    pub slack: Vec<usize>,
    /// Surface (outermost-blossom) pointer per vertex; `0` = free id.
    pub st: Vec<usize>,
    /// Alternating-tree parent pointers (by original endpoint).
    pub pa: Vec<usize>,
    /// Tree side per surface node: `-1` out, `0` even/S, `1` odd/T.
    pub s: Vec<i8>,
    /// LCA visit stamps, validated against [`Self::vis_epoch`].
    pub vis: Vec<usize>,
    /// Monotone stamp for `vis`; never reset, so `vis` itself is never
    /// cleared between solves.
    pub vis_epoch: usize,
    /// Representative edges for blossom rows `g[b][x]`: one `(2n+1)`-wide
    /// row (row `b - n - 1`) per blossom id a solve has formed, grown when
    /// a new id is first used.
    pub rep_row: Vec<RepEdge>,
    /// Representative edges for blossom columns `g[x][b]` with `x ≤ n`,
    /// same per-formed-blossom row layout.
    pub rep_col: Vec<RepEdge>,
    /// For each formed blossom: which member subsumed original vertex `x`
    /// (`0` = none), one `(n+1)`-wide row per blossom id.
    pub flower_from: Vec<usize>,
    /// Blossom member cycles (index `b`); member vectors keep capacity.
    pub flower: Vec<Vec<usize>>,
    /// BFS queue over tree growth.
    pub queue: VecDeque<usize>,
    /// Blossom ids the last solve used: ids `n+1..=n+blossom_ids` hold
    /// its blossoms (live ones have `st[b] != 0`), later ids are stale.
    pub blossom_ids: usize,
    /// Number of solves served by this arena (reuse telemetry).
    pub solves: u64,
}

impl SparseBlossomScratch {
    /// A fresh, empty arena.
    pub fn new() -> SparseBlossomScratch {
        SparseBlossomScratch::default()
    }

    /// Clears every buffer without releasing capacity.
    pub fn clear(&mut self) {
        self.weights.clear();
        self.lab.clear();
        self.mate.clear();
        self.slack.clear();
        self.st.clear();
        self.pa.clear();
        self.s.clear();
        self.vis.clear();
        self.vis_epoch = 0;
        self.rep_row.clear();
        self.rep_col.clear();
        self.flower_from.clear();
        for f in &mut self.flower {
            f.clear();
        }
        self.queue.clear();
        self.blossom_ids = 0;
        self.solves = 0;
    }
}

/// A reusable arena of decode working buffers.
///
/// All buffers keep their capacity across calls. A decoder using the
/// arena must not assume the buffers are empty on entry — clear (or
/// `resize`) what it uses.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    /// Dense pairwise weight matrix (row-major, `k × k`): the subset DP
    /// band's block, and the exact table's batched closed-form operands.
    /// The deep solve reads its weights in place and leaves it alone.
    pub weights: Vec<f64>,
    /// Per-node boundary weights.
    pub boundary: Vec<f64>,
    /// Per-state cost table (e.g. the subset DP's `2^k` entries).
    pub cost: Vec<f64>,
    /// Per-node mate assignment; `usize::MAX` means "boundary".
    pub mate: Vec<usize>,
    /// Per-node bitmask working buffer (the subset DP's pruned
    /// adjacency masks).
    pub parent: Vec<u32>,
    /// Per-state validity stamps paired with `cost`: `stamp[s] == epoch`
    /// marks `cost[s]` as computed in the current solve, which lets a
    /// memoized solver reuse the table across calls without an `O(2^k)`
    /// clear.
    pub stamp: Vec<u32>,
    /// Current stamp epoch for `stamp` (bumped once per solve).
    pub epoch: u32,
    /// Persistent arena for the sparse blossom solver (deep tail).
    pub sparse: SparseBlossomScratch,
    /// Persistent arena (and work counters) for the on-demand staging
    /// engine (deep tail under [`WeightSource`](crate::WeightSource)
    /// `::Local`).
    pub ondemand: OndemandScratch,
    /// Repair buffers and work counters of the price-and-repair engine
    /// (the default deep tail under [`WeightSource`](crate::WeightSource)
    /// `::Local`).
    pub graphpd: GraphPdScratch,
}

impl DecodeScratch {
    /// A fresh, empty arena.
    pub fn new() -> DecodeScratch {
        DecodeScratch::default()
    }

    /// Clears every buffer without releasing capacity.
    pub fn clear(&mut self) {
        self.weights.clear();
        self.boundary.clear();
        self.cost.clear();
        self.mate.clear();
        self.parent.clear();
        self.stamp.clear();
        self.epoch = 0;
        self.sparse.clear();
        self.ondemand.clear();
        self.graphpd.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_keeps_capacity() {
        let mut s = DecodeScratch::new();
        s.cost.resize(1 << 10, 0.0);
        s.mate.resize(16, usize::MAX);
        let cap = s.cost.capacity();
        s.clear();
        assert!(s.cost.is_empty());
        assert!(s.mate.is_empty());
        assert_eq!(s.cost.capacity(), cap);
    }
}
