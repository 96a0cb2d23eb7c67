//! GWT-free weight provision: the boundary table and the staged local
//! weight provider behind [`WeightSource::Local`].
//!
//! The Global Weight Table stores all `ℓ²` pair weights up front, which
//! caps the reachable distance: 13 bytes per entry (quantized + exact +
//! observables) is ~42 MB at d = 15 and ~3 GB at d = 31. The local
//! provider keeps only `O(ℓ)` state — per-detector boundary distances
//! plus stamped Dijkstra scratch — and computes the pair weights a shot
//! actually needs on demand, by truncated per-source Dijkstra over the
//! sparse matching graph (the Sparse Blossom insight: matching never
//! looks past a small local ball).
//!
//! **Bit-identity contract.** Every staged entry is either *bit-identical*
//! to the corresponding Global Weight Table entry, or `f64::INFINITY` for
//! a pair whose true weight provably exceeds every threshold a decoder
//! compares it against (see [`LocalWeightProvider::stage`]). Staging and
//! the table's row build run the crate's one Dijkstra kernel, so a
//! settled entry equals the table's by construction. The decode paths in
//! `blossom-mwpm` only ever compare pair weights against
//! boundary-sum alternatives, so a dominated `INFINITY` and the true
//! (large) value take the same branch everywhere — predictions and
//! matchings are bit-identical to the GWT path, which CI enforces with a
//! differential suite at d ∈ {3, 5, 7}. The default deep-tail block of
//! [`LocalWeightProvider::stage_graph_pd`] is the exception: it also
//! holds unsearched (`NaN`) cells, and its decodes are certified optimal
//! rather than bit-identical (see the [`graph_pd`](crate::graph_pd)
//! module docs).

use crate::dijkstra::Dijkstra;
use crate::graph::MatchingGraph;
use crate::graph_pd::{GraphPdScratch, Unsearched, SEED_NEIGHBOURS};
use crate::gwt::{quantize, DEFAULT_WEIGHT_SCALE};
use crate::ondemand::OndemandScratch;

/// Number of ALT landmarks a [`LocalWeightProvider`] precomputes
/// (farthest-point sampled; clamped to the detector count on tiny
/// graphs). 16 keeps the per-pair filter at a few dozen subtractions and
/// the table under 2 MB even at d = 31 — `O(ℓ)`, built once per graph.
const NUM_LANDMARKS: usize = 16;

/// Which engine produced the currently staged block. The flavors fill
/// different cell subsets (full rows, upper-triangle on demand, met
/// pairs only), so a memo of one kind must never serve another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageFlavor {
    /// Full per-row staging ([`LocalWeightProvider::stage`]).
    Full,
    /// On-demand upper-triangle staging
    /// ([`LocalWeightProvider::stage_ondemand`]).
    Ondemand,
    /// Price-and-repair seed staging
    /// ([`LocalWeightProvider::stage_graph_pd`]), plus its repairs.
    GraphPd,
}

/// Which weight backend a [`DecodingContext`](crate::DecodingContext)
/// materializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightSource {
    /// Build the Global Weight Table only while its projected footprint
    /// fits [`GWT_AUTO_BUDGET_BYTES`](crate::GWT_AUTO_BUDGET_BYTES);
    /// beyond that, go GWT-free. This is the default.
    Auto,
    /// Always materialize the Global Weight Table (the paper's §5.1
    /// hardware structure).
    Gwt,
    /// Never materialize the table: decoders draw pair weights from a
    /// [`LocalWeightProvider`] on demand.
    Local,
}

/// Per-detector boundary distances: the cheapest error chain from each
/// detector to the lattice boundary, with its observable parity and the
/// 8-bit quantized view. Syndrome-independent, `O(ℓ)` memory — this is
/// the only precomputed table the GWT-free path keeps.
///
/// Computed by the same multi-source Dijkstra (seeded at every boundary
/// edge) that fills the Global Weight Table's diagonal, so the values are
/// bit-identical to `gwt.boundary_weight(i)` — the GWT builder itself
/// consumes a `BoundaryTable` for its diagonal.
#[derive(Debug, Clone)]
pub struct BoundaryTable {
    weight: Vec<f64>,
    obs: Vec<u32>,
    quantized: Vec<u8>,
    scale: f64,
}

impl BoundaryTable {
    /// Builds the table with the default fixed-point scale.
    pub fn new(graph: &MatchingGraph) -> BoundaryTable {
        BoundaryTable::with_scale(graph, DEFAULT_WEIGHT_SCALE)
    }

    /// Builds the table with a custom fixed-point scale (subunits per
    /// unit weight).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn with_scale(graph: &MatchingGraph, scale: f64) -> BoundaryTable {
        assert!(scale > 0.0 && scale.is_finite(), "invalid scale {scale}");
        let n = graph.num_detectors();
        let mut weight = vec![f64::INFINITY; n];
        let mut obs = vec![0u32; n];
        let seeds = (0..n as u32).filter_map(|det| {
            graph
                .boundary_edge(det)
                .map(|be| (det, be.weight, be.observables))
        });
        Dijkstra::new(n).run(graph, seeds, f64::INFINITY, |u, d, parity| {
            weight[u as usize] = d;
            obs[u as usize] = parity;
            true
        });
        let quantized = weight.iter().map(|&w| quantize(w, scale)).collect();
        BoundaryTable {
            weight,
            obs,
            quantized,
            scale,
        }
    }

    /// Number of detectors.
    pub fn len(&self) -> usize {
        self.weight.len()
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.weight.is_empty()
    }

    /// The fixed-point scale (subunits per unit weight).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Exact boundary weight of detector `i` in `−log₁₀ P` units.
    #[inline]
    pub fn weight(&self, i: u32) -> f64 {
        self.weight[i as usize]
    }

    /// Observable-parity mask of the cheapest boundary chain of `i`.
    #[inline]
    pub fn obs(&self, i: u32) -> u32 {
        self.obs[i as usize]
    }

    /// Quantized boundary weight of detector `i`.
    #[inline]
    pub fn weight_q(&self, i: u32) -> u8 {
        self.quantized[i as usize]
    }

    /// The dominance bound of a pair, `max(bₐ + b_b, (qbₐ + qb_b + 1)/scale)`:
    /// past it, matching both detectors to the boundary wins in both
    /// weight domains (the quantized bound is padded by one subunit so
    /// rounding can never under-settle).
    #[inline]
    pub(crate) fn pair_bound(&self, a: u32, b: u32) -> f64 {
        let exact_bound = self.weight(a) + self.weight(b);
        let quant_bound = (self.weight_q(a) as f64 + self.weight_q(b) as f64 + 1.0) / self.scale;
        exact_bound.max(quant_bound)
    }
}

/// Work counters for a [`LocalWeightProvider`] — how much graph the
/// truncated searches actually touch, and how often the staged-block memo
/// short-circuits a restage. Exposed so benches and smoke tests can
/// assert the local path is non-idle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalWeightStats {
    /// Calls to [`LocalWeightProvider::stage`].
    pub stages: u64,
    /// Stages answered by the already-staged block (identical detector
    /// list — the repeated singles/pairs of the screen cache, and
    /// replayed shots on served streams).
    pub memo_hits: u64,
    /// Per-source truncated Dijkstra expansions actually run.
    pub expansions: u64,
    /// Nodes settled (popped final) across all expansions.
    pub settled: u64,
    /// Pair targets skipped outright by the coordinate lower bound —
    /// provably dominated by boundary matching, never searched for.
    pub excluded_targets: u64,
}

impl LocalWeightStats {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &LocalWeightStats) {
        self.stages += other.stages;
        self.memo_hits += other.memo_hits;
        self.expansions += other.expansions;
        self.settled += other.settled;
        self.excluded_targets += other.excluded_targets;
    }

    /// True when no staging ran (used by smoke asserts).
    pub fn is_idle(&self) -> bool {
        self.stages == 0
    }

    /// The work done since `baseline` was captured (saturating, so a
    /// counter reset between captures reads as zero rather than
    /// wrapping). The pipeline uses this to attribute a worker's
    /// cumulative counters to individual tiles.
    pub fn delta_since(&self, baseline: &LocalWeightStats) -> LocalWeightStats {
        LocalWeightStats {
            stages: self.stages.saturating_sub(baseline.stages),
            memo_hits: self.memo_hits.saturating_sub(baseline.memo_hits),
            expansions: self.expansions.saturating_sub(baseline.expansions),
            settled: self.settled.saturating_sub(baseline.settled),
            excluded_targets: self
                .excluded_targets
                .saturating_sub(baseline.excluded_targets),
        }
    }
}

/// The syndrome-independent lower bounds of GWT-free staging: the
/// coordinate slopes and the ALT landmark rows. It depends on the graph
/// alone, so the [`MatchingGraph`] owns one, built on first use, and
/// every [`LocalWeightProvider`] over that graph borrows it: a pool of
/// decoders pays for the landmark Dijkstras once, not once per decoder,
/// and a GWT context never builds it.
#[derive(Debug, Clone)]
pub(crate) struct GraphIndex {
    /// Minimum edge weight per unit of Chebyshev lattice displacement
    /// (deflated by 1 − 1e-9 to stay a valid bound under f64 rounding);
    /// zero disables the spatial lower bound.
    space_cost: f64,
    /// Minimum edge weight per unit of round displacement, deflated
    /// likewise; zero disables the temporal lower bound.
    time_cost: f64,
    /// ALT landmark distances, node-major: `land[v][l]` is the exact
    /// internal-graph Dijkstra distance from landmark `l` to detector
    /// `v`. By the triangle inequality `d(i, j) ≥ |d(l, i) − d(l, j)|`
    /// for every landmark, which (after the same 1e-9 deflation the
    /// coordinate bound uses) lower-bounds any pair distance in O(L) — no
    /// graph search. Syndrome-independent `O(L·ℓ)` memory, so the
    /// GWT-free footprint story is unchanged. Graphs with fewer detectors
    /// than landmarks pad the rows with `NaN`, which both bounds discard.
    land: Vec<[f64; NUM_LANDMARKS]>,
}

impl GraphIndex {
    /// Computes the index of a graph: one pass over the edges for the
    /// slopes, one Dijkstra per landmark.
    pub(crate) fn build(graph: &MatchingGraph) -> GraphIndex {
        let n = graph.num_detectors();
        // Lower-bound slopes: every internal edge moving r lattice units
        // (Chebyshev) costs at least `space_cost·r`, every edge moving t
        // rounds at least `time_cost·t`; coordinate deltas telescope
        // along any path, so `max(space_cost·Δspace, time_cost·Δround)`
        // lower-bounds every pair distance. The 1e-9 deflation keeps the
        // bound valid under floating-point division/multiplication
        // rounding.
        let (mut space, mut time) = (f64::INFINITY, f64::INFINITY);
        for e in graph.edges() {
            let Some(v) = e.v else { continue };
            let (cu, cv) = (graph.coord(e.u), graph.coord(v));
            let r = (cu.row - cv.row).abs().max((cu.col - cv.col).abs());
            if r > 0 {
                space = space.min(e.weight / r as f64);
            }
            let t = (cu.round - cv.round).abs();
            if t > 0 {
                time = time.min(e.weight / t as f64);
            }
        }
        let deflate = |slope: f64| {
            if slope.is_finite() {
                (slope * (1.0 - 1e-9)).max(0.0)
            } else {
                0.0
            }
        };
        // ALT landmarks: exact Dijkstra distances from a handful of
        // farthest-point-sampled detectors. The coordinate slopes above
        // are weak exactly where the on-demand engine hurts most — bulk
        // pairs whose cheapest chains run along diagonal mechanisms —
        // while `|d(l,i) − d(l,j)|` is near-tight whenever some landmark
        // lies roughly behind one endpoint, so together they certify
        // most far pairs without growing a region.
        let num_land = n.min(NUM_LANDMARKS);
        let mut land = vec![[f64::NAN; NUM_LANDMARKS]; n];
        if num_land > 0 {
            let mut search = Dijkstra::new(n);
            let mut dist = vec![f64::INFINITY; n];
            let mut mindist = vec![f64::INFINITY; n];
            let mut seed = 0u32;
            for l in 0..num_land {
                dist.fill(f64::INFINITY);
                search.run(graph, [(seed, 0.0, 0)], f64::INFINITY, |u, d, _| {
                    dist[u as usize] = d;
                    true
                });
                // Next seed: the detector farthest (in graph metric) from
                // every landmark chosen so far; unreachable components
                // sort first so each gets its own landmark. Ties break to
                // the lowest index for determinism.
                let mut best = (f64::NEG_INFINITY, 0u32);
                for (v, row) in land.iter_mut().enumerate() {
                    row[l] = dist[v];
                    let m = mindist[v].min(dist[v]);
                    mindist[v] = m;
                    if m > best.0 {
                        best = (m, v as u32);
                    }
                }
                seed = best.1;
            }
        }
        GraphIndex {
            space_cost: deflate(space),
            time_cost: deflate(time),
            land,
        }
    }

    /// ALT landmark lower bound on the shortest-path weight: the triangle
    /// inequality gives `d(a, b) ≥ |d(l, a) − d(l, b)|` for every
    /// landmark `l`, deflated by the usual 1e-9 so the bound stays valid
    /// under f64 rounding of the landmark distances. A landmark that
    /// reaches exactly one endpoint proves the pair disconnected (the
    /// bound is `INFINITY`); one that reaches neither contributes nothing
    /// (the `NaN` difference is discarded by `max`). The maximum is taken
    /// in four interleaved lanes: the same set of terms, so the same
    /// value, at a quarter of the dependency chain.
    #[inline]
    fn landmark_bound(&self, a: u32, b: u32) -> f64 {
        let (da, db) = (&self.land[a as usize], &self.land[b as usize]);
        let mut lanes = [0.0f64; 4];
        for l in 0..NUM_LANDMARKS {
            lanes[l % 4] = lanes[l % 4].max((da[l] - db[l]).abs());
        }
        let lb = lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3]));
        lb * (1.0 - 1e-9) - 1e-9
    }
}

/// On-demand staged pair weights over the sparse matching graph — the
/// GWT-free backend decoders use under [`WeightSource::Local`].
///
/// [`stage`](Self::stage) runs one truncated Dijkstra per fired detector
/// and records, for every pair of the shot, either the exact
/// shortest-path weight (bit-identical to the Global Weight Table entry)
/// or `INFINITY` when the pair is provably dominated. All scratch is
/// stamped and reused: zero steady-state allocations once warm. One
/// provider lives inside each per-worker decoder; the graph's adjacency
/// and lower-bound index are shared by all of them.
#[derive(Debug, Clone)]
pub struct LocalWeightProvider<'a> {
    graph: &'a MatchingGraph,
    boundary: &'a BoundaryTable,
    /// The graph's shared lower-bound index (slopes, landmarks).
    index: &'a GraphIndex,
    /// Stamped Dijkstra scratch over the whole graph (O(ℓ), reused).
    dijkstra: Dijkstra,
    // The staged k×k block for the current detector list.
    dets: Vec<u32>,
    slot: Vec<u32>,
    slot_stamp: Vec<u32>,
    slot_epoch: u32,
    weights: Vec<f64>,
    obs: Vec<u32>,
    /// Per-target settle bound of the current expansion (NaN = excluded).
    bound: Vec<f64>,
    /// Price-and-repair state of a graph-pd block: its unsearched pairs
    /// and, per slot, how far its searches have proved distances.
    pending: Vec<Unsearched>,
    frontier: Vec<f64>,
    staged: bool,
    /// Which engine produced the staged block (see [`StageFlavor`]).
    flavor: StageFlavor,
    stats: LocalWeightStats,
}

impl<'a> LocalWeightProvider<'a> {
    /// Creates a provider over a matching graph and its boundary table.
    /// The graph's lower-bound index is built on the first call for a
    /// graph and shared by every later provider over it.
    ///
    /// # Panics
    ///
    /// Panics if the boundary table was built for a different number of
    /// detectors.
    pub fn new(graph: &'a MatchingGraph, boundary: &'a BoundaryTable) -> LocalWeightProvider<'a> {
        let n = graph.num_detectors();
        assert_eq!(
            boundary.len(),
            n,
            "boundary table size does not match the graph"
        );
        LocalWeightProvider {
            graph,
            boundary,
            index: graph.local_index(),
            dijkstra: Dijkstra::new(n),
            dets: Vec::new(),
            slot: vec![0; n],
            slot_stamp: vec![0; n],
            slot_epoch: 0,
            weights: Vec::new(),
            obs: Vec::new(),
            bound: Vec::new(),
            pending: Vec::new(),
            frontier: Vec::new(),
            staged: false,
            flavor: StageFlavor::Full,
            stats: LocalWeightStats::default(),
        }
    }

    /// The boundary table this provider reads.
    pub fn boundary(&self) -> &'a BoundaryTable {
        self.boundary
    }

    /// Work counters since construction.
    pub fn stats(&self) -> LocalWeightStats {
        self.stats
    }

    /// Stages the pair-weight block for one detector list (ascending,
    /// deduplicated — how syndrome extraction produces it). Staging the
    /// identical list again is a memoized no-op.
    ///
    /// After staging, entry `(i, j)` of the block is the weight of the
    /// cheapest error chain from `dets[i]` to `dets[j]` as found by a
    /// Dijkstra search *from* `dets[i]` — the crate's one search kernel,
    /// which also fills GWT row `dets[i]`, so settled values are
    /// bit-identical to the table's. A search from `i` may stop early:
    /// any target `j` whose distance exceeds
    /// `max(bᵢ + bⱼ, (qbᵢ + qbⱼ + 1)/scale)` is left at `INFINITY`.
    /// Such a pair can never be preferred over matching both detectors to
    /// the boundary — in the exact domain its weight exceeds `bᵢ + bⱼ`,
    /// and in the quantized domain its rounded weight exceeds
    /// `qbᵢ + qbⱼ` — so every decoder comparison takes the same branch it
    /// would with the true value (all decode paths compare pair weights
    /// only against boundary sums or clamps at least as large).
    pub fn stage(&mut self, dets: &[u32]) {
        self.stats.stages += 1;
        if self.staged && self.flavor == StageFlavor::Full && self.dets == dets {
            self.stats.memo_hits += 1;
            return;
        }
        self.load(dets, f64::INFINITY);
        let k = dets.len();
        for i in 0..k {
            self.expand(i);
        }
        self.staged = true;
        self.flavor = StageFlavor::Full;
    }

    /// One truncated per-source Dijkstra: fills row `i` of the staged
    /// block with settled distances from `dets[i]`.
    fn expand(&mut self, i: usize) {
        let k = self.dets.len();
        let src = self.dets[i];
        // Per-target settle bounds: a pair is only interesting while it
        // can beat boundary-plus-boundary in *either* weight domain;
        // over-settling is always sound.
        self.bound.clear();
        self.bound.resize(k, f64::NAN);
        let mut radius = f64::NEG_INFINITY;
        let mut remaining = 0usize;
        for j in 0..k {
            if j == i {
                continue;
            }
            let dst = self.dets[j];
            let b = self.boundary.pair_bound(src, dst);
            if self.lower_bound(src, dst) > b * (1.0 + 1e-9) + 1e-9 {
                // Even the coordinate lower bound on the path weight
                // exceeds the settle bound: dominated, never searched.
                self.stats.excluded_targets += 1;
                continue;
            }
            self.bound[j] = b;
            radius = radius.max(b);
            remaining += 1;
        }
        if remaining == 0 {
            return;
        }
        self.stats.expansions += 1;
        self.dijkstra
            .run(self.graph, [(src, 0.0, 0)], radius, |u, d, parity| {
                self.stats.settled += 1;
                if u != src && self.slot_stamp[u as usize] == self.slot_epoch {
                    let j = self.slot[u as usize] as usize;
                    let cell = &mut self.weights[i * k + j];
                    if cell.is_infinite() {
                        *cell = d;
                        self.obs[i * k + j] = parity;
                        if !self.bound[j].is_nan() {
                            remaining -= 1;
                            return remaining > 0;
                        }
                    }
                }
                true
            });
    }

    /// Stages the pair-weight block for one detector list with the
    /// on-demand engine: upper-triangle targets only, per-pair deadline
    /// certificates (see the [`ondemand`](crate::ondemand) module docs).
    /// Every cell a decoder reads holds exactly the value
    /// [`stage`](Self::stage) would have put there: settled entries come
    /// from the same search kernel, and the extra `INFINITY` entries are
    /// all certified dominated, the same substitution `stage` already
    /// relies on for its radius truncation.
    ///
    /// Restaging the identical list on demand is a memoized no-op; the
    /// memo is keyed by staging flavor, so a block staged by `stage`
    /// never masks an on-demand restage or vice versa.
    pub fn stage_ondemand(&mut self, dets: &[u32], od: &mut OndemandScratch) {
        od.stats.stages += 1;
        if self.staged && self.flavor == StageFlavor::Ondemand && self.dets == dets {
            od.stats.memo_hits += 1;
            return;
        }
        self.load(dets, f64::INFINITY);
        let k = dets.len();
        od.pos.clear();
        od.pos.resize(k, u32::MAX);
        for i in 0..k {
            self.expand_ondemand(i, od);
        }
        self.staged = true;
        self.flavor = StageFlavor::Ondemand;
    }

    /// One deadline-bounded per-source Dijkstra: fills the settled part
    /// of row `i` (targets `j > i` only — the pair `(i, j)` is consumed
    /// exclusively through row `min(i, j)`) and mirrors each settled
    /// cell so the block stays symmetric.
    fn expand_ondemand(&mut self, i: usize, od: &mut OndemandScratch) {
        let k = self.dets.len();
        let src = self.dets[i];
        // Same per-target settle bounds and coordinate exclusion as
        // `expand`, restricted to the upper triangle, kept as a deadline
        // queue sorted ascending by bound.
        od.deadlines.clear();
        for j in (i + 1)..k {
            let dst = self.dets[j];
            let b = self.boundary.pair_bound(src, dst);
            let cutoff = b * (1.0 + 1e-9) + 1e-9;
            if self.lower_bound(src, dst) > cutoff || self.index.landmark_bound(src, dst) > cutoff {
                od.stats.excluded += 1;
                continue;
            }
            od.deadlines.push((b, j as u32));
        }
        if od.deadlines.is_empty() {
            return;
        }
        od.deadlines
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        od.resolved.clear();
        od.resolved.resize(od.deadlines.len(), false);
        for (p, &(_, j)) in od.deadlines.iter().enumerate() {
            od.pos[j as usize] = p as u32;
        }
        let mut remaining = od.deadlines.len();
        // All deadlines before `cursor` are resolved (settled or
        // expired). No target's bound lies past the last deadline.
        let mut cursor = 0usize;
        let radius = od.deadlines[remaining - 1].0;
        od.stats.regions += 1;
        self.dijkstra
            .run(self.graph, [(src, 0.0, 0)], radius, |u, d, parity| {
                // Expire deadlines the frontier has passed: settles are
                // nondecreasing in distance, so `bound < d` with the target
                // unsettled proves its distance exceeds its bound —
                // dominated, leave `INFINITY`.
                while cursor < od.deadlines.len() && od.deadlines[cursor].0 < d {
                    if !od.resolved[cursor] {
                        od.resolved[cursor] = true;
                        od.pos[od.deadlines[cursor].1 as usize] = u32::MAX;
                        od.stats.deadline_pruned += 1;
                        remaining -= 1;
                    }
                    cursor += 1;
                }
                if remaining == 0 {
                    return false;
                }
                od.stats.settled += 1;
                if u != src && self.slot_stamp[u as usize] == self.slot_epoch {
                    let j = self.slot[u as usize] as usize;
                    let p = od.pos[j];
                    if p != u32::MAX {
                        // An active target settled within its bound: record
                        // the exact pair edge (and its mirror).
                        self.weights[i * k + j] = d;
                        self.obs[i * k + j] = parity;
                        self.weights[j * k + i] = d;
                        self.obs[j * k + i] = parity;
                        od.resolved[p as usize] = true;
                        od.pos[j] = u32::MAX;
                        od.stats.collisions += 1;
                        remaining -= 1;
                        return remaining > 0;
                    }
                }
                true
            });
        // Targets the frontier never reached are dominated by the same
        // certificate: clear their queue slots.
        for p in cursor..od.deadlines.len() {
            if !od.resolved[p] {
                od.resolved[p] = true;
                od.pos[od.deadlines[p].1 as usize] = u32::MAX;
                od.stats.deadline_pruned += 1;
            }
        }
    }

    /// Stages the seed block of the price-and-repair engine, the default
    /// deep-tail engine [`DeepBackend::GraphPd`] (see the
    /// [`graph_pd`](crate::graph_pd) module docs for the whole loop).
    ///
    /// One capped search per fired detector, on the kernel
    /// [`stage`](Self::stage) uses, stops after its 4 nearest fired
    /// detectors (`SEED_NEIGHBOURS`) or past its largest dominance bound.
    /// Afterwards each cell of the block is one of three things:
    ///
    /// * an exact weight, from the search that settled the pair first
    ///   (the lower slot's when both did);
    /// * `INFINITY`: proved dominated, by a search or by a lower bound;
    /// * `NaN`: **unsearched**. The pair is kept, with its lower bound,
    ///   for [`repair_graph_pd`](Self::repair_graph_pd) to price.
    ///
    /// Every decode consumer reads a `NaN` cell as it reads `INFINITY`,
    /// so an unsearched pair enters a solve at its via-boundary weight,
    /// an upper bound on its true effective weight. The block is not
    /// bit-identical to the staged oracle's; the decoder's exit test is
    /// what makes its answer optimal under the exact weights.
    ///
    /// Restaging the identical list is a memoized no-op that keeps any
    /// repairs made since, keyed by staging flavor like the other
    /// engines.
    ///
    /// [`DeepBackend::GraphPd`]: https://docs.rs/blossom-mwpm
    pub fn stage_graph_pd(&mut self, dets: &[u32], gp: &mut GraphPdScratch) {
        gp.stats.stages += 1;
        if self.staged && self.flavor == StageFlavor::GraphPd && self.dets == dets {
            gp.stats.memo_hits += 1;
            return;
        }
        self.load(dets, f64::NAN);
        let k = dets.len();
        // No pair of this shot has a dominance bound past
        // `max(bᵢ + max b, (qbᵢ + max qb + 1)/scale)`.
        let bt = self.boundary;
        let (b_max, qb_max) = dets.iter().fold((0.0f64, 0u8), |(b, q), &d| {
            (b.max(bt.weight(d)), q.max(bt.weight_q(d)))
        });
        self.frontier.clear();
        for (i, &src) in dets.iter().enumerate() {
            let radius = (bt.weight(src) + b_max)
                .max((bt.weight_q(src) as f64 + qb_max as f64 + 1.0) / bt.scale());
            let frontier = self.search(i, radius, SEED_NEIGHBOURS, |_| true, &mut gp.stats.grows);
            self.frontier.push(frontier);
        }
        gp.stats.regions += k as u64;

        // Census: count what the searches resolved, prove what their
        // frontiers or a lower bound place past the dominance bound, and
        // list the rest as unsearched.
        self.pending.clear();
        for i in 0..k {
            for j in (i + 1)..k {
                let w = self.weights[i * k + j];
                if !w.is_nan() {
                    *if w.is_finite() {
                        &mut gp.stats.merges
                    } else {
                        &mut gp.stats.deadline_pruned
                    } += 1;
                    continue;
                }
                let (a, b) = (dets[i], dets[j]);
                let bound = self.boundary.pair_bound(a, b);
                if bound < self.frontier[i].max(self.frontier[j]) {
                    self.set_cell(i, j, f64::INFINITY, 0);
                    gp.stats.deadline_pruned += 1;
                    continue;
                }
                gp.stats.excluded += 1;
                // The coordinate bound is a few flops; the ALT bound only
                // runs when it does not already settle the pair.
                let cutoff = bound * (1.0 + 1e-9) + 1e-9;
                let mut lb = self.lower_bound(a, b);
                if lb <= cutoff {
                    lb = lb.max(self.index.landmark_bound(a, b));
                }
                if lb > cutoff {
                    self.set_cell(i, j, f64::INFINITY, 0);
                } else {
                    self.pending.push(Unsearched {
                        i: i as u32,
                        j: j as u32,
                        lb,
                    });
                }
            }
        }
        self.staged = true;
        self.flavor = StageFlavor::GraphPd;
    }

    /// Prices and repairs the unsearched pairs of a
    /// [`stage_graph_pd`](Self::stage_graph_pd) block, one pass of the
    /// decoder's price-and-repair loop. `violates(i, j, lb)` is the
    /// pricing test for the unsearched pair of slots `i < j` whose exact
    /// distance is at least `lb`. Every flagged pair is resolved exactly:
    /// one capped Dijkstra per distinct lower slot, out to the largest
    /// dominance bound among that slot's flagged pairs, which either
    /// settles each of them or proves it dominated. Other unsearched
    /// pairs those searches settle or prove are resolved too.
    ///
    /// Returns the number of flagged pairs; zero ends the loop. On any
    /// other staged flavor there is nothing unsearched and it returns
    /// zero at once.
    pub fn repair_graph_pd(
        &mut self,
        gp: &mut GraphPdScratch,
        mut violates: impl FnMut(usize, usize, f64) -> bool,
    ) -> usize {
        if !self.staged || self.flavor != StageFlavor::GraphPd {
            return 0;
        }
        gp.flagged.clear();
        for (p, u) in self.pending.iter().enumerate() {
            if violates(u.i as usize, u.j as usize, u.lb) {
                gp.flagged.push(p as u32);
            }
        }
        let flagged = gp.flagged.len();
        if flagged == 0 {
            return 0;
        }
        gp.stats.repairs += flagged as u64;
        let k = self.dets.len();
        gp.want.resize(k, 0);
        // The unsearched list stays in census order, so the flagged
        // pairs arrive grouped by lower slot.
        let mut start = 0;
        while start < flagged {
            let i = self.pending[gp.flagged[start] as usize].i;
            gp.tag = bump_epoch(gp.tag, &mut gp.want);
            let mut radius = f64::NEG_INFINITY;
            let mut end = start;
            while end < flagged && self.pending[gp.flagged[end] as usize].i == i {
                let u = self.pending[gp.flagged[end] as usize];
                gp.want[u.j as usize] = gp.tag;
                radius = radius.max(
                    self.boundary
                        .pair_bound(self.dets[i as usize], self.dets[u.j as usize]),
                );
                end += 1;
            }
            let (want, tag) = (&gp.want, gp.tag);
            let frontier = self.search(
                i as usize,
                radius,
                end - start,
                |j| want[j] == tag,
                &mut gp.stats.grows,
            );
            let f = &mut self.frontier[i as usize];
            *f = f.max(frontier);
            start = end;
        }

        // Resolve every unsearched pair the searches reached.
        let mut pending = std::mem::take(&mut self.pending);
        pending.retain(|u| {
            let (i, j) = (u.i as usize, u.j as usize);
            let w = self.weights[i * k + j];
            let resolved = if !w.is_nan() {
                w.is_finite()
            } else if self.boundary.pair_bound(self.dets[i], self.dets[j])
                < self.frontier[i].max(self.frontier[j])
            {
                self.set_cell(i, j, f64::INFINITY, 0);
                false
            } else {
                return true;
            };
            gp.stats.excluded = gp.stats.excluded.saturating_sub(1);
            *if resolved {
                &mut gp.stats.merges
            } else {
                &mut gp.stats.deadline_pruned
            } += 1;
            false
        });
        self.pending = pending;
        flagged
    }

    /// One capped Dijkstra from slot `i` for the price-and-repair engine,
    /// on the kernel [`Self::expand`] uses, so a pair settled from its
    /// lower slot is bit-identical to the staged oracle's. Each settled fired detector whose cell is still
    /// unsearched gets its exact distance, or `INFINITY` past its
    /// dominance bound. The search stops once it has settled `quota`
    /// detectors that `wanted` accepts, or once its frontier passes
    /// `radius`. Returns the frontier: every node it left unsettled is at
    /// least that far from the source (`INFINITY` when the graph ran out).
    fn search(
        &mut self,
        i: usize,
        radius: f64,
        mut quota: usize,
        wanted: impl Fn(usize) -> bool,
        settled: &mut u64,
    ) -> f64 {
        let k = self.dets.len();
        let src = self.dets[i];
        let bt = self.boundary;
        self.dijkstra
            .run(self.graph, [(src, 0.0, 0)], radius, |u, d, parity| {
                *settled += 1;
                if u == src || self.slot_stamp[u as usize] != self.slot_epoch {
                    return true;
                }
                let j = self.slot[u as usize] as usize;
                if self.weights[i * k + j].is_nan() {
                    let w = if d <= bt.pair_bound(src, u) {
                        d
                    } else {
                        f64::INFINITY
                    };
                    self.weights[i * k + j] = w;
                    self.weights[j * k + i] = w;
                    self.obs[i * k + j] = parity;
                    self.obs[j * k + i] = parity;
                }
                if wanted(j) {
                    quota -= 1;
                    return quota > 0;
                }
                true
            })
    }

    /// Writes a pair's weight and parity into both mirror cells.
    #[inline]
    fn set_cell(&mut self, i: usize, j: usize, w: f64, par: u32) {
        let k = self.dets.len();
        self.weights[i * k + j] = w;
        self.weights[j * k + i] = w;
        self.obs[i * k + j] = par;
        self.obs[j * k + i] = par;
    }

    /// Starts a new staged block for `dets`: records the list and its
    /// slot map, and fills every off-diagonal cell with `fill` (the
    /// diagonal is zero, parities zero).
    fn load(&mut self, dets: &[u32], fill: f64) {
        self.staged = false;
        let k = dets.len();
        self.dets.clear();
        self.dets.extend_from_slice(dets);
        self.slot_epoch = bump_epoch(self.slot_epoch, &mut self.slot_stamp);
        for (s, &d) in dets.iter().enumerate() {
            self.slot[d as usize] = s as u32;
            self.slot_stamp[d as usize] = self.slot_epoch;
        }
        self.weights.clear();
        self.weights.resize(k * k, fill);
        self.obs.clear();
        self.obs.resize(k * k, 0);
        for i in 0..k {
            self.weights[i * k + i] = 0.0;
        }
    }

    /// Coordinate lower bound on the shortest-path weight between two
    /// detectors; zero when the graph offers no usable slope.
    #[inline]
    fn lower_bound(&self, a: u32, b: u32) -> f64 {
        let (ca, cb) = (self.graph.coord(a), self.graph.coord(b));
        let dr = (ca.row - cb.row).abs().max((ca.col - cb.col).abs()) as f64;
        let dt = (ca.round - cb.round).abs() as f64;
        (self.index.space_cost * dr).max(self.index.time_cost * dt)
    }

    /// Slot of a staged detector.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `det` was not part of the staged list.
    #[inline]
    fn slot_of(&self, det: u32) -> usize {
        debug_assert!(
            self.staged && self.slot_stamp[det as usize] == self.slot_epoch,
            "detector {det} not staged"
        );
        self.slot[det as usize] as usize
    }

    /// Raw exact pair weight from the staged block: the exact weight
    /// when settled (bit-identical to `gwt.pair_weight(i, j)` except for
    /// a graph-pd pair settled from its higher slot, which may differ in
    /// the last ulp), `INFINITY` when proved dominated, and `NaN` when a
    /// graph-pd block left the pair unsearched. Every decode consumer
    /// reads `NaN` as it reads `INFINITY`: `f64::min` drops it, `<=`
    /// rejects it, and it quantizes to `u8::MAX`.
    #[inline]
    pub fn pair_weight(&self, i: u32, j: u32) -> f64 {
        self.weights[self.slot_of(i) * self.dets.len() + self.slot_of(j)]
    }

    /// Observable parity of the staged shortest path `i → j`. Only
    /// meaningful for settled pairs; decoders read it only for pairs they
    /// mate, which are always settled.
    #[inline]
    pub fn pair_obs(&self, i: u32, j: u32) -> u32 {
        self.obs[self.slot_of(i) * self.dets.len() + self.slot_of(j)]
    }
}

/// Advances a stamp epoch, clearing the stamp array on wraparound so a
/// stale stamp can never alias a live one.
fn bump_epoch(epoch: u32, stamps: &mut [u32]) -> u32 {
    let next = epoch.wrapping_add(1);
    if next == 0 {
        stamps.fill(0);
        return 1;
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gwt::GlobalWeightTable;
    use qec_circuit::{build_memory_z_circuit, NoiseModel};
    use surface_code::SurfaceCode;

    fn graph(d: usize, p: f64) -> MatchingGraph {
        let code = SurfaceCode::new(d).unwrap();
        let circuit = build_memory_z_circuit(&code, d, NoiseModel::depolarizing(p));
        MatchingGraph::from_circuit(&circuit)
    }

    #[test]
    fn boundary_table_matches_gwt_diagonal() {
        for (d, p) in [(3, 1e-3), (5, 5e-3), (7, 1e-3)] {
            let g = graph(d, p);
            let gwt = GlobalWeightTable::new(&g);
            let bt = BoundaryTable::new(&g);
            assert_eq!(bt.len(), gwt.len());
            for i in 0..gwt.len() as u32 {
                assert_eq!(bt.weight(i).to_bits(), gwt.boundary_weight(i).to_bits());
                assert_eq!(bt.obs(i), gwt.boundary_obs(i));
                assert_eq!(bt.weight_q(i), gwt.boundary_weight_q(i));
            }
        }
    }

    #[test]
    fn staged_entries_are_bit_identical_or_dominated() {
        let g = graph(5, 2e-3);
        let gwt = GlobalWeightTable::new(&g);
        let bt = BoundaryTable::new(&g);
        let mut p = LocalWeightProvider::new(&g, &bt);
        let n = g.num_detectors() as u32;
        let lists: Vec<Vec<u32>> = vec![
            vec![0],
            vec![0, 1],
            vec![0, n - 1],
            vec![3, 17, 40, 41],
            (0..n).step_by(7).collect(),
            (0..n).collect(),
        ];
        for dets in &lists {
            p.stage(dets);
            for &a in dets {
                for &b in dets {
                    if a == b {
                        continue;
                    }
                    let staged = p.pair_weight(a, b);
                    let truth = gwt.pair_weight(a, b);
                    if staged.is_finite() {
                        assert_eq!(
                            staged.to_bits(),
                            truth.to_bits(),
                            "settled ({a},{b}) differs"
                        );
                        assert_eq!(p.pair_obs(a, b), gwt.pair_obs(a, b));
                        assert_eq!(quantize(staged, bt.scale()), gwt.pair_weight_q(a, b));
                    } else {
                        // Dominated: the true weight must exceed the
                        // boundary alternative in both weight domains.
                        assert!(
                            truth > bt.weight(a) + bt.weight(b),
                            "unsettled ({a},{b}) not dominated: {truth}"
                        );
                        assert!(
                            gwt.pair_weight_q(a, b) as u16
                                > bt.weight_q(a) as u16 + bt.weight_q(b) as u16,
                            "unsettled ({a},{b}) not dominated in quantized domain"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn full_list_stage_settles_every_useful_pair() {
        // Every pair that could participate in an optimal matching
        // (weight at most the boundary sum) must be settled exactly.
        let g = graph(5, 1e-3);
        let gwt = GlobalWeightTable::new(&g);
        let bt = BoundaryTable::new(&g);
        let mut p = LocalWeightProvider::new(&g, &bt);
        let dets: Vec<u32> = (0..g.num_detectors() as u32).collect();
        p.stage(&dets);
        for &a in &dets {
            for &b in &dets {
                if a != b && gwt.pair_weight(a, b) <= bt.weight(a) + bt.weight(b) {
                    assert_eq!(
                        p.pair_weight(a, b).to_bits(),
                        gwt.pair_weight(a, b).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn gathers_match_gwt_gathers() {
        // The decoder reads the staged block through `pair_weight` alone
        // and derives its quantized view with `quantize`, so each staged
        // cell must carry the GWT's value in both domains, or be
        // dominated in both.
        let g = graph(5, 2e-3);
        let gwt = GlobalWeightTable::new(&g);
        let bt = BoundaryTable::new(&g);
        let mut p = LocalWeightProvider::new(&g, &bt);
        let scale = bt.scale();
        let dets = vec![2u32, 9, 15, 33];
        p.stage(&dets);
        for (i, &a) in dets.iter().enumerate() {
            assert_eq!(bt.weight(a).to_bits(), gwt.boundary_weight(a).to_bits());
            for &b in &dets[i + 1..] {
                let staged = p.pair_weight(a, b);
                if staged.is_finite() {
                    // Settled: bit-equal to the GWT in both domains.
                    assert_eq!(staged.to_bits(), gwt.pair_weight(a, b).to_bits());
                    assert_eq!(quantize(staged, scale), gwt.pair_weight_q(a, b));
                } else {
                    // Dominated: saturates, and the true value must beat
                    // the boundary sum in both domains.
                    assert_eq!(quantize(staged, scale), u8::MAX);
                    assert!(gwt.pair_weight(a, b) > bt.weight(a) + bt.weight(b));
                    assert!(
                        gwt.pair_weight_q(a, b) as u16
                            > bt.weight_q(a) as u16 + bt.weight_q(b) as u16
                    );
                }
            }
        }
        // A sub-list of the staged one reads the block through the slot
        // map: both mirror cells, equal to the full list's read.
        let (a, b) = (9u32, 33u32);
        let cell = p.pair_weight(a, b);
        assert_eq!(p.pair_weight(b, a).to_bits(), cell.to_bits());
        assert_eq!(p.pair_obs(b, a), p.pair_obs(a, b));
        if cell.is_finite() {
            assert_eq!(cell.to_bits(), gwt.pair_weight(a, b).to_bits());
            assert_eq!(p.pair_obs(a, b), gwt.pair_obs(a, b));
        }
    }

    #[test]
    fn providers_on_one_graph_share_one_index() {
        // The index is the graph's, built lazily by the first provider
        // and borrowed by every later one: constructing the graph does not
        // build it, and a second provider neither rebuilds nor copies it.
        let g = graph(5, 5e-3);
        let bt = BoundaryTable::new(&g);
        assert!(!g.local_index_built(), "graph construction built the index");
        let a = LocalWeightProvider::new(&g, &bt);
        assert!(g.local_index_built());
        let b = LocalWeightProvider::new(&g, &bt);
        assert!(std::ptr::eq(a.index, b.index));
        assert!(std::ptr::eq(a.index, g.local_index()));
        // A clone of the provider (one per worker decoder) borrows it too.
        assert!(std::ptr::eq(a.clone().index, a.index));
        // Both providers still stage independently over the shared index.
        let (mut a, mut b) = (a, b);
        let dets: Vec<u32> = (0..g.num_detectors() as u32).step_by(5).collect();
        a.stage(&dets);
        b.stage(&dets);
        for &x in &dets {
            for &y in &dets {
                assert_eq!(a.pair_weight(x, y).to_bits(), b.pair_weight(x, y).to_bits());
            }
        }
    }

    #[test]
    fn restaging_identical_list_is_memoized() {
        let g = graph(3, 1e-3);
        let bt = BoundaryTable::new(&g);
        let mut p = LocalWeightProvider::new(&g, &bt);
        p.stage(&[0, 5]);
        let after_first = p.stats();
        p.stage(&[0, 5]);
        let after_second = p.stats();
        assert_eq!(after_second.memo_hits, after_first.memo_hits + 1);
        assert_eq!(after_second.expansions, after_first.expansions);
        p.stage(&[0, 6]);
        assert!(p.stats().expansions > after_second.expansions);
    }

    #[test]
    fn ondemand_block_matches_staged_block_where_consumed() {
        // Differential ground truth for the on-demand engine: for every
        // upper-triangle pair, the on-demand cell is either bit-equal to
        // the staged cell (weight, parity, quantized view, and the
        // mirror), or `INFINITY` with the staged value certified
        // dominated (strictly above the pair's settle bound). Any pair
        // the decoders could actually prefer over boundary matching —
        // staged value at or below the bound — must be settled exactly.
        for (d, p) in [(3, 1e-3), (5, 5e-3), (5, 1e-3), (7, 2e-3)] {
            let g = graph(d, p);
            let bt = BoundaryTable::new(&g);
            let mut staged = LocalWeightProvider::new(&g, &bt);
            let mut ondemand = LocalWeightProvider::new(&g, &bt);
            let mut od = OndemandScratch::new();
            let n = g.num_detectors() as u32;
            let lists: Vec<Vec<u32>> = vec![
                vec![0, 1],
                vec![0, n - 1],
                (0..n).step_by(7).collect(),
                (0..n).step_by(3).collect(),
                (0..n).collect(),
            ];
            for dets in &lists {
                staged.stage(dets);
                ondemand.stage_ondemand(dets, &mut od);
                let k = dets.len();
                let scale = bt.scale();
                for i in 0..k {
                    for j in (i + 1)..k {
                        let (a, b) = (dets[i], dets[j]);
                        let sv = staged.pair_weight(a, b);
                        let ov = ondemand.pair_weight(a, b);
                        let bound = (bt.weight(a) + bt.weight(b))
                            .max((bt.weight_q(a) as f64 + bt.weight_q(b) as f64 + 1.0) / scale);
                        if ov.is_finite() {
                            assert_eq!(ov.to_bits(), sv.to_bits(), "({a},{b}) value differs");
                            assert_eq!(
                                ondemand.pair_obs(a, b),
                                staged.pair_obs(a, b),
                                "({a},{b}) parity differs"
                            );
                            assert_eq!(quantize(ov, scale), quantize(sv, scale));
                            // Mirror is symmetric.
                            assert_eq!(ondemand.pair_weight(b, a).to_bits(), ov.to_bits());
                            assert_eq!(ondemand.pair_obs(b, a), ondemand.pair_obs(a, b));
                        } else {
                            assert!(
                                sv > bound,
                                "({a},{b}) pruned but staged {sv} <= bound {bound}"
                            );
                        }
                        if sv <= bound {
                            assert!(ov.is_finite(), "({a},{b}) consumable pair not settled");
                        }
                    }
                }
            }
            assert!(!od.stats.is_idle());
            assert!(od.stats.collisions > 0);
        }
    }

    #[test]
    fn graph_pd_block_matches_staged_semantics() {
        // Differential ground truth for the price-and-repair seed. Every
        // cell is exact (equal to the staged oracle's up to f64
        // association noise, from whichever side settled it), proved
        // dominated (`INFINITY`, and the oracle agrees), or unsearched
        // (`NaN`), and mirrors are symmetric. Once a pricer flags every
        // unsearched pair, one repair pass leaves none, and every pair
        // the decoders could prefer over boundary matching is exact.
        for (d, p) in [(3, 1e-3), (5, 5e-3), (5, 1e-3), (7, 2e-3)] {
            let g = graph(d, p);
            let bt = BoundaryTable::new(&g);
            let mut staged = LocalWeightProvider::new(&g, &bt);
            let mut graphpd = LocalWeightProvider::new(&g, &bt);
            let mut gp = GraphPdScratch::new();
            let n = g.num_detectors() as u32;
            let lists: Vec<Vec<u32>> = vec![
                vec![0, 1],
                vec![0, n - 1],
                (0..n).step_by(7).collect(),
                (0..n).step_by(3).collect(),
                (0..n).collect(),
            ];
            let mut unsearched = 0;
            for dets in &lists {
                staged.stage(dets);
                graphpd.stage_graph_pd(dets, &mut gp);
                let k = dets.len();
                for repaired in [false, true] {
                    if repaired {
                        let pending = graphpd.pending.len();
                        assert_eq!(graphpd.repair_graph_pd(&mut gp, |_, _, _| true), pending);
                        assert!(graphpd.pending.is_empty());
                        assert_eq!(graphpd.repair_graph_pd(&mut gp, |_, _, _| true), 0);
                    }
                    for i in 0..k {
                        for j in (i + 1)..k {
                            let (a, b) = (dets[i], dets[j]);
                            let sv = staged.pair_weight(a, b);
                            let gv = graphpd.pair_weight(a, b);
                            let bound = bt.pair_bound(a, b);
                            assert_eq!(graphpd.pair_weight(b, a).to_bits(), gv.to_bits());
                            if gv.is_nan() {
                                assert!(!repaired, "({a},{b}) unsearched after repair");
                                unsearched += 1;
                            } else if gv.is_finite() {
                                let tol = 1e-9 * (1.0 + sv.abs());
                                assert!(
                                    (gv - sv).abs() <= tol,
                                    "({a},{b}) weight {gv} vs oracle {sv}"
                                );
                                assert_eq!(graphpd.pair_obs(b, a), graphpd.pair_obs(a, b));
                            } else {
                                assert!(
                                    sv > bound * (1.0 - 1e-9),
                                    "({a},{b}) pruned but oracle {sv} <= bound {bound}"
                                );
                            }
                            if repaired && sv <= bound * (1.0 - 1e-9) {
                                assert!(gv.is_finite(), "({a},{b}) consumable pair not exact");
                            }
                        }
                    }
                }
            }
            assert!(unsearched > 0, "d = {d}: the seed searched every pair");
            assert!(!gp.stats.is_idle());
            assert!(gp.stats.merges > 0);
            assert!(gp.stats.grows > 0);
            assert!(gp.stats.repairs > 0);
        }
    }

    #[test]
    fn graph_pd_pair_accounting_partitions() {
        // excluded + merges + deadline_pruned covers every pair of every
        // staging exactly once, and a memoized restage does no work.
        let g = graph(5, 3e-3);
        let bt = BoundaryTable::new(&g);
        let mut p = LocalWeightProvider::new(&g, &bt);
        let mut gp = GraphPdScratch::new();
        let n = g.num_detectors() as u32;
        let dets: Vec<u32> = (0..n).step_by(3).collect();
        let k = dets.len() as u64;
        p.stage_graph_pd(&dets, &mut gp);
        let s = gp.stats;
        assert_eq!(s.stages, 1);
        assert_eq!(s.excluded + s.merges + s.deadline_pruned, k * (k - 1) / 2);
        // A repair moves pairs out of `excluded` without double counting.
        let repaired = p.repair_graph_pd(&mut gp, |i, j, _| (i + j) % 2 == 0) as u64;
        let s = gp.stats;
        assert!(repaired > 0);
        assert_eq!(s.repairs, repaired);
        assert_eq!(s.excluded + s.merges + s.deadline_pruned, k * (k - 1) / 2);
        p.stage_graph_pd(&dets, &mut gp);
        let s2 = gp.stats;
        assert_eq!(s2.memo_hits, 1);
        assert_eq!(s2.grows, s.grows);
        assert_eq!(s2.merges, s.merges);
        // The graph-pd flavor must not serve the other engines' memos.
        let before = p.stats();
        p.stage(&dets);
        assert_eq!(p.stats().memo_hits, before.memo_hits);
        let mut od = OndemandScratch::new();
        p.stage_ondemand(&dets, &mut od);
        assert_eq!(od.stats.memo_hits, 0);
        p.stage_graph_pd(&dets, &mut gp);
        assert_eq!(gp.stats.memo_hits, 1);
        assert_eq!(gp.stats.stages, 3);
    }

    #[test]
    fn ondemand_memo_is_keyed_by_staging_flavor() {
        let g = graph(3, 1e-3);
        let bt = BoundaryTable::new(&g);
        let mut p = LocalWeightProvider::new(&g, &bt);
        let mut od = OndemandScratch::new();
        let dets = [0u32, 3, 5, 9];
        // A full-staged block must not serve an on-demand memo...
        p.stage(&dets);
        p.stage_ondemand(&dets, &mut od);
        assert_eq!(od.stats.memo_hits, 0);
        assert!(od.stats.regions > 0);
        // ...nor an on-demand block a full-staged memo...
        let before = p.stats();
        p.stage(&dets);
        assert_eq!(p.stats().memo_hits, before.memo_hits);
        assert!(p.stats().expansions > before.expansions);
        // ...while same-flavor restaging memoizes.
        p.stage_ondemand(&dets, &mut od);
        let regions = od.stats.regions;
        p.stage_ondemand(&dets, &mut od);
        assert_eq!(od.stats.memo_hits, 1);
        assert_eq!(od.stats.regions, regions);
    }

    #[test]
    fn lower_bound_never_exceeds_true_distance() {
        let g = graph(5, 5e-3);
        let gwt = GlobalWeightTable::new(&g);
        let bt = BoundaryTable::new(&g);
        let p = LocalWeightProvider::new(&g, &bt);
        let n = g.num_detectors() as u32;
        for a in 0..n {
            for b in 0..n {
                if a != b && gwt.pair_weight(a, b).is_finite() {
                    assert!(
                        p.lower_bound(a, b) <= gwt.pair_weight(a, b) * (1.0 + 1e-9) + 1e-9,
                        "LB({a},{b}) = {} > dist {}",
                        p.lower_bound(a, b),
                        gwt.pair_weight(a, b)
                    );
                }
            }
        }
    }
}
