//! A sparse, scratch-reusing blossom solver for the deep decode tail.
//!
//! Same primal–dual algorithm as the dense test oracle
//! `mwpm_oracle::dense_blossom` (defect-rooted alternating-tree growth
//! under a global tree-growth schedule, dual updates restricted to the
//! explored forest, blossom shrink/expand via the surface/parent-pointer
//! forest), but warm-started per solve and with the per-shot staging
//! cost removed:
//!
//! * each solve starts from a greedy state, as Blossom V does: vertex
//!   duals are lowered from their row maxima until every vertex has a
//!   tight edge, and the tight edges are matched greedily. The phases
//!   that remain only augment from the vertices the greedy pass left
//!   exposed. The weights are staged doubled, so every dual stays even
//!   and every `delta / 2` exact, and the solver targets maximum-weight
//!   *perfect* matching: exposed duals may go negative,
//! * the dense path allocates and fills a `(2n+1)²` edge matrix per shot;
//!   here the original-pair block is **virtual** — endpoints are implicit
//!   and only the doubled reflected `(n+1)²` weight block is staged,
//! * representative edges for contracted blossoms live in tables holding
//!   one `(2n+1)`-wide row per blossom id the solve has formed; a row is
//!   added only when a new id is first used (rare on decoding-graph
//!   syndromes), so a blossom-free solve touches none of them,
//! * all state lives in a persistent [`SparseBlossomScratch`] arena:
//!   buffers grow monotonically, the LCA `vis` stamps are epoch-validated
//!   instead of cleared, and member walks iterate in place instead of
//!   cloning — steady-state solves perform **zero** heap allocation.
//!
//! Reuse safety rests on one invariant, inherited from the dense
//! formulation: every blossom-indexed slot is written before it is read
//! within a solve (rows are zeroed and then unconditionally overwritten by
//! the first member's representative edge on creation). Stale contents
//! from previous shots therefore never influence the result, which keeps
//! each solve a pure function of its inputs — required by the pipeline's
//! streamed == barrier bit-identity contract. For the same reason the
//! greedy start reads only the current shot's weights: dual *values* are
//! never carried across shots, only allocations and the `vis` epoch.
//!
//! The result is an exact optimum: its total weight equals the dense
//! oracle's on every tested instance (the oracle crate is a
//! dev-dependency, outside the production build). The mate assignment
//! may differ from the cold-start dense solver's where several matchings
//! tie. What the tests check instead is a per-solve proof: the final
//! arena (duals, mates, blossom family) is a dual certificate of
//! optimality (`mwpm_oracle::certificate`), verified on every solve of
//! this module's tests and of the cross-solver property tests.

use decoding_graph::{RepEdge, SparseBlossomScratch};

const INF: i64 = i64::MAX / 4;

/// The in-flight solve: geometry (`n`, strides) plus the borrowed arena.
struct SparseSolver<'s> {
    n: usize,
    n_x: usize,
    /// Row stride of the staged weight block (`n + 1`).
    wn: usize,
    /// Id-space size (`2n + 1`): vertices `1..=n`, blossoms `n+1..=2n`.
    stride: usize,
    sc: &'s mut SparseBlossomScratch,
}

impl SparseSolver<'_> {
    /// Virtual edge lookup: original pairs come from the weight block
    /// with implicit endpoints, blossom rows/columns from the compact
    /// representative tables. `w == 0` means absent.
    #[inline]
    fn e(&self, u: usize, v: usize) -> RepEdge {
        if u > self.n {
            self.sc.rep_row[(u - self.n - 1) * self.stride + v]
        } else if v > self.n {
            self.sc.rep_col[(v - self.n - 1) * self.stride + u]
        } else {
            RepEdge {
                u,
                v,
                w: self.sc.weights[u * self.wn + v],
            }
        }
    }

    #[inline]
    fn set_edge(&mut self, u: usize, v: usize, e: RepEdge) {
        if u > self.n {
            self.sc.rep_row[(u - self.n - 1) * self.stride + v] = e;
        } else {
            debug_assert!(v > self.n, "original-pair block is immutable");
            self.sc.rep_col[(v - self.n - 1) * self.stride + u] = e;
        }
    }

    #[inline]
    fn zero_edge(&mut self, u: usize, v: usize) {
        if u > self.n {
            self.sc.rep_row[(u - self.n - 1) * self.stride + v].w = 0;
        } else {
            debug_assert!(v > self.n, "original-pair block is immutable");
            self.sc.rep_col[(v - self.n - 1) * self.stride + u].w = 0;
        }
    }

    #[inline]
    fn ff(&self, b: usize, x: usize) -> usize {
        self.sc.flower_from[(b - self.n - 1) * self.wn + x]
    }

    #[inline]
    fn ff_set(&mut self, b: usize, x: usize, m: usize) {
        self.sc.flower_from[(b - self.n - 1) * self.wn + x] = m;
    }

    /// Slack of an edge under the current duals. Every [`RepEdge`]
    /// handed out by [`Self::e`] carries `w == e(e.u, e.v).w` (the
    /// original block is immutable and representative edges are built
    /// from it), so the dense formulation's second lookup is skipped —
    /// same value, one load.
    #[inline]
    fn e_delta(&self, e: RepEdge) -> i64 {
        self.sc.lab[e.u] + self.sc.lab[e.v] - e.w * 2
    }

    fn update_slack(&mut self, u: usize, x: usize) {
        // Slack candidates are always original vertices; when the tree
        // root `x` is original too, both deltas come straight off the
        // immutable weight block — no representative lookups.
        debug_assert!(u <= self.n, "slack candidates are original vertices");
        if x <= self.n {
            let lab_x = self.sc.lab[x];
            let d_new = self.sc.lab[u] + lab_x - self.sc.weights[u * self.wn + x] * 2;
            let s = self.sc.slack[x];
            if s == 0 || d_new < self.sc.lab[s] + lab_x - self.sc.weights[s * self.wn + x] * 2 {
                self.sc.slack[x] = u;
            }
        } else if self.sc.slack[x] == 0
            || self.e_delta(self.e(u, x)) < self.e_delta(self.e(self.sc.slack[x], x))
        {
            self.sc.slack[x] = u;
        }
    }

    fn set_slack(&mut self, x: usize) {
        self.sc.slack[x] = 0;
        // Running-best slack delta: same strict-< candidate selection as
        // the dense scan, without re-deriving the incumbent's delta per
        // candidate. For original `x` the mirrored weight row is walked
        // sequentially (`w(u, x) == w(x, u)` by staging), for blossom
        // `x` the compact representative column already is sequential.
        let mut best = 0i64;
        if x <= self.n {
            let base = x * self.wn;
            let lab_x = self.sc.lab[x];
            for u in 1..=self.n {
                let w = self.sc.weights[base + u];
                if w > 0 && self.sc.st[u] != x && self.sc.s[self.sc.st[u]] == 0 {
                    let d = self.sc.lab[u] + lab_x - w * 2;
                    if self.sc.slack[x] == 0 || d < best {
                        self.sc.slack[x] = u;
                        best = d;
                    }
                }
            }
        } else {
            let base = (x - self.n - 1) * self.stride;
            for u in 1..=self.n {
                let e = self.sc.rep_col[base + u];
                if e.w > 0 && self.sc.st[u] != x && self.sc.s[self.sc.st[u]] == 0 {
                    let d = self.e_delta(e);
                    if self.sc.slack[x] == 0 || d < best {
                        self.sc.slack[x] = u;
                        best = d;
                    }
                }
            }
        }
    }

    fn q_push(&mut self, x: usize) {
        if x <= self.n {
            self.sc.queue.push_back(x);
        } else {
            for i in 0..self.sc.flower[x].len() {
                let t = self.sc.flower[x][i];
                self.q_push(t);
            }
        }
    }

    fn set_st(&mut self, x: usize, b: usize) {
        self.sc.st[x] = b;
        if x > self.n {
            for i in 0..self.sc.flower[x].len() {
                let t = self.sc.flower[x][i];
                self.set_st(t, b);
            }
        }
    }

    fn get_pr(&mut self, b: usize, xr: usize) -> usize {
        let pr = self.sc.flower[b]
            .iter()
            .position(|&x| x == xr)
            .expect("xr must be a member of blossom b");
        if pr % 2 == 1 {
            self.sc.flower[b][1..].reverse();
            self.sc.flower[b].len() - pr
        } else {
            pr
        }
    }

    fn set_match(&mut self, u: usize, v: usize) {
        let e = self.e(u, v);
        self.sc.mate[u] = e.v;
        if u > self.n {
            let xr = self.ff(u, e.u);
            let pr = self.get_pr(u, xr);
            for i in 0..pr {
                let (a, b) = (self.sc.flower[u][i], self.sc.flower[u][i ^ 1]);
                self.set_match(a, b);
            }
            self.set_match(xr, v);
            self.sc.flower[u].rotate_left(pr);
        }
    }

    fn augment(&mut self, mut u: usize, mut v: usize) {
        loop {
            let xnv = self.sc.st[self.sc.mate[u]];
            self.set_match(u, v);
            if xnv == 0 {
                return;
            }
            let pa_xnv = self.sc.pa[xnv];
            self.set_match(xnv, self.sc.st[pa_xnv]);
            let (nu, nv) = (self.sc.st[pa_xnv], xnv);
            u = nu;
            v = nv;
        }
    }

    fn get_lca(&mut self, mut u: usize, mut v: usize) -> usize {
        self.sc.vis_epoch += 1;
        let t = self.sc.vis_epoch;
        while u != 0 || v != 0 {
            if u != 0 {
                if self.sc.vis[u] == t {
                    return u;
                }
                self.sc.vis[u] = t;
                u = self.sc.st[self.sc.mate[u]];
                if u != 0 {
                    u = self.sc.st[self.sc.pa[u]];
                }
            }
            std::mem::swap(&mut u, &mut v);
        }
        0
    }

    /// Makes sure blossom ids `n+1..=n_x` each have a representative row,
    /// a representative column and a `flower_from` row. Rows are only
    /// added when a new id is first used, so a solve touches memory in
    /// proportion to the blossoms it forms; new rows are zeroed by the
    /// resize and then overwritten by `add_blossom` before any read.
    fn grow_blossom_rows(&mut self) {
        let rows = self.n_x - self.n;
        if self.sc.rep_row.len() < rows * self.stride {
            self.sc
                .rep_row
                .resize(rows * self.stride, RepEdge::default());
            self.sc
                .rep_col
                .resize(rows * self.stride, RepEdge::default());
        }
        if self.sc.flower_from.len() < rows * self.wn {
            self.sc.flower_from.resize(rows * self.wn, 0);
        }
    }

    fn add_blossom(&mut self, u: usize, lca: usize, v: usize) {
        let mut b = self.n + 1;
        while b <= self.n_x && self.sc.st[b] != 0 {
            b += 1;
        }
        if b > self.n_x {
            self.n_x += 1;
            self.grow_blossom_rows();
        }
        self.sc.lab[b] = 0;
        self.sc.s[b] = 0;
        self.sc.mate[b] = self.sc.mate[lca];
        self.sc.flower[b].clear();
        self.sc.flower[b].push(lca);
        // Walk u's side of the cycle up to the LCA.
        let mut x = u;
        while x != lca {
            self.sc.flower[b].push(x);
            let y = self.sc.st[self.sc.mate[x]];
            self.sc.flower[b].push(y);
            self.q_push(y);
            x = self.sc.st[self.sc.pa[y]];
        }
        self.sc.flower[b][1..].reverse();
        // Walk v's side.
        let mut x = v;
        while x != lca {
            self.sc.flower[b].push(x);
            let y = self.sc.st[self.sc.mate[x]];
            self.sc.flower[b].push(y);
            self.q_push(y);
            x = self.sc.st[self.sc.pa[y]];
        }
        self.set_st(b, b);
        for x in 1..=self.n_x {
            self.zero_edge(b, x);
            self.zero_edge(x, b);
        }
        for x in 1..=self.n {
            self.ff_set(b, x, 0);
        }
        for i in 0..self.sc.flower[b].len() {
            let xs = self.sc.flower[b][i];
            for x in 1..=self.n_x {
                let eb = self.e(b, x);
                let exs = self.e(xs, x);
                if eb.w == 0 || self.e_delta(exs) < self.e_delta(eb) {
                    self.set_edge(b, x, exs);
                    let esx = self.e(x, xs);
                    self.set_edge(x, b, esx);
                }
            }
            if xs <= self.n {
                // An original member subsumes only itself.
                self.ff_set(b, xs, xs);
            } else {
                for x in 1..=self.n {
                    if self.ff(xs, x) != 0 {
                        self.ff_set(b, x, xs);
                    }
                }
            }
        }
        self.set_slack(b);
    }

    fn expand_blossom(&mut self, b: usize) {
        for i in 0..self.sc.flower[b].len() {
            let xs = self.sc.flower[b][i];
            self.set_st(xs, xs);
        }
        let xr = self.ff(b, self.e(b, self.sc.pa[b]).u);
        let pr = self.get_pr(b, xr);
        let mut i = 0;
        while i < pr {
            let xs = self.sc.flower[b][i];
            let xns = self.sc.flower[b][i + 1];
            self.sc.pa[xs] = self.e(xns, xs).u;
            self.sc.s[xs] = 1;
            self.sc.s[xns] = 0;
            self.sc.slack[xs] = 0;
            self.set_slack(xns);
            self.q_push(xns);
            i += 2;
        }
        self.sc.s[xr] = 1;
        self.sc.pa[xr] = self.sc.pa[b];
        for i in (pr + 1)..self.sc.flower[b].len() {
            let xs = self.sc.flower[b][i];
            self.sc.s[xs] = -1;
            self.set_slack(xs);
        }
        self.sc.st[b] = 0;
    }

    /// Handles one candidate edge of the tree-growth scan: grows the
    /// forest / augments on tight edges, records slack otherwise.
    /// Returns `true` if the matching grew.
    #[inline]
    fn scan_edge(&mut self, u: usize, v: usize, e: RepEdge) -> bool {
        if self.sc.st[u] != self.sc.st[v] {
            if self.e_delta(e) == 0 {
                if self.on_found_edge(e) {
                    return true;
                }
            } else {
                let stv = self.sc.st[v];
                self.update_slack(u, stv);
            }
        }
        false
    }

    /// Returns `true` if an augmenting path was found and applied.
    fn on_found_edge(&mut self, e: RepEdge) -> bool {
        let u = self.sc.st[e.u];
        let v = self.sc.st[e.v];
        if self.sc.s[v] == -1 {
            self.sc.pa[v] = e.u;
            self.sc.s[v] = 1;
            let nu = self.sc.st[self.sc.mate[v]];
            self.sc.slack[v] = 0;
            self.sc.slack[nu] = 0;
            self.sc.s[nu] = 0;
            self.q_push(nu);
        } else if self.sc.s[v] == 0 {
            let lca = self.get_lca(u, v);
            if lca == 0 {
                self.augment(u, v);
                self.augment(v, u);
                return true;
            }
            self.add_blossom(u, lca, v);
        }
        false
    }

    /// One phase: returns `true` if the matching grew by one pair.
    fn matching_phase(&mut self) -> bool {
        for x in 1..=self.n_x {
            self.sc.s[x] = -1;
            self.sc.slack[x] = 0;
        }
        self.sc.queue.clear();
        for x in 1..=self.n_x {
            if self.sc.st[x] == x && self.sc.mate[x] == 0 {
                self.sc.pa[x] = 0;
                self.sc.s[x] = 0;
                self.q_push(x);
            }
        }
        if self.sc.queue.is_empty() {
            return false;
        }
        loop {
            while let Some(u) = self.sc.queue.pop_front() {
                if self.sc.s[self.sc.st[u]] == 1 {
                    continue;
                }
                // The queue only ever holds original vertices (`q_push`
                // recurses into blossom members), so `u`'s weight row is
                // the immutable original block: read it directly, one
                // load per candidate. `st` is re-read per candidate —
                // `on_found_edge` can contract blossoms mid-scan.
                debug_assert!(u <= self.n, "queue must hold original vertices");
                let base = u * self.wn;
                for v in 1..=self.n {
                    let w = self.sc.weights[base + v];
                    if w > 0 && self.scan_edge(u, v, RepEdge { u, v, w }) {
                        return true;
                    }
                }
            }
            // Dual adjustment, restricted to the explored forest.
            let mut d = INF;
            for b in (self.n + 1)..=self.n_x {
                if self.sc.st[b] == b && self.sc.s[b] == 1 {
                    d = d.min(self.sc.lab[b] / 2);
                }
            }
            for x in 1..=self.n_x {
                if self.sc.st[x] == x && self.sc.slack[x] != 0 {
                    let delta = self.e_delta(self.e(self.sc.slack[x], x));
                    if self.sc.s[x] == -1 {
                        d = d.min(delta);
                    } else if self.sc.s[x] == 0 {
                        d = d.min(delta / 2);
                    }
                }
            }
            // An even complete graph always has an augmenting path, so
            // an exposed tree always has a bounding edge. Exposed duals
            // may go negative: the target is a perfect matching.
            debug_assert!(d < INF, "no edge bounds the dual adjustment");
            for u in 1..=self.n {
                match self.sc.s[self.sc.st[u]] {
                    0 => self.sc.lab[u] -= d,
                    1 => self.sc.lab[u] += d,
                    _ => {}
                }
            }
            for b in (self.n + 1)..=self.n_x {
                if self.sc.st[b] == b {
                    match self.sc.s[b] {
                        0 => self.sc.lab[b] += 2 * d,
                        1 => self.sc.lab[b] -= 2 * d,
                        _ => {}
                    }
                }
            }
            self.sc.queue.clear();
            for x in 1..=self.n_x {
                if self.sc.st[x] == x && self.sc.slack[x] != 0 {
                    let e = self.e(self.sc.slack[x], x);
                    if self.sc.st[self.sc.slack[x]] != x
                        && self.e_delta(e) == 0
                        && self.on_found_edge(e)
                    {
                        return true;
                    }
                }
            }
            for b in (self.n + 1)..=self.n_x {
                if self.sc.st[b] == b && self.sc.s[b] == 1 && self.sc.lab[b] == 0 {
                    self.expand_blossom(b);
                }
            }
        }
    }
}

/// Greedy start on the staged block: each dual begins at its row maximum
/// (feasible: `lab[u] + lab[v] ≥ 2w'`), then drops in index order to the
/// least feasible value, so every vertex ends with a tight edge; the
/// tight edges are then matched greedily in index order. Staged weights
/// are even, hence so is every dual, which keeps every later `delta / 2`
/// exact. Exposed vertices may keep unequal duals.
fn greedy_start(n: usize, sc: &mut SparseBlossomScratch) {
    let wn = n + 1;
    for u in 1..=n {
        let row = &sc.weights[u * wn + 1..u * wn + wn];
        sc.lab[u] = row.iter().copied().max().unwrap_or(0);
        sc.st[u] = u;
        sc.mate[u] = 0;
    }
    for u in 1..=n {
        let base = u * wn;
        let mut lab_u = i64::MIN;
        for v in (1..=n).filter(|&v| v != u) {
            lab_u = lab_u.max(2 * sc.weights[base + v] - sc.lab[v]);
        }
        sc.lab[u] = lab_u;
    }
    for u in 1..=n {
        if sc.mate[u] != 0 {
            continue;
        }
        let base = u * wn;
        for v in (u + 1)..=n {
            if sc.mate[v] == 0 && sc.lab[u] + sc.lab[v] == 2 * sc.weights[base + v] {
                sc.mate[u] = v;
                sc.mate[v] = u;
                break;
            }
        }
    }
}

/// Computes a **minimum-weight perfect matching** on the complete graph
/// over an even number of vertices, reusing `scratch` across calls.
///
/// The mate assignment is left in `scratch.mate[1..=n]` (1-based, `0`
/// never occurs on success); the returned value is the total weight of
/// the matching under the original `weights`, equal to the cold-start
/// dense oracle's (`mwpm_oracle::dense_blossom`) on every tested
/// instance. The final duals, the blossom family (`flower`, `st`, with
/// `scratch.blossom_ids` ids in use) and the doubled reflected weights
/// stay in the arena and certify the optimum. The result is a pure
/// function of `(n, weights)` regardless of what the arena held before
/// the call; on ties the mates may differ from the dense solver's.
///
/// # Panics
///
/// Panics if `n` is odd or zero.
pub fn min_weight_perfect_matching_scratch(
    n: usize,
    weights: impl Fn(usize, usize) -> i64,
    scratch: &mut SparseBlossomScratch,
) -> i64 {
    assert!(
        n > 0 && n.is_multiple_of(2),
        "need an even, positive vertex count, got {n}"
    );
    let wn = n + 1;
    let stride = 2 * n + 1;
    // Stage the original weights once (the dense path reads every pair
    // for its dual bound anyway), tracking the reflection pivot.
    if scratch.weights.len() < wn * wn {
        scratch.weights.resize(wn * wn, 0);
    }
    scratch.weights[0] = 0; // the e(0,0) "absent edge" sentinel
    let mut w_max_orig = i64::MIN;
    for u in 1..=n {
        scratch.weights[u * wn + u] = 0;
        for v in (u + 1)..=n {
            let w = weights(u - 1, v - 1);
            scratch.weights[u * wn + v] = w;
            scratch.weights[v * wn + u] = w;
            w_max_orig = w_max_orig.max(w);
        }
    }
    // Reflect in place, doubled: w' = 2·(W − w + 1) > 0 turns
    // minimum-weight perfect matching into maximum-weight perfect
    // matching, and keeps every staged weight even.
    for u in 1..=n {
        for v in (u + 1)..=n {
            let r = 2 * (w_max_orig - scratch.weights[u * wn + v] + 1);
            scratch.weights[u * wn + v] = r;
            scratch.weights[v * wn + u] = r;
        }
    }
    // Re-stamp the per-solve state; blossom-indexed slots keep stale
    // contents (written-before-read) and `vis` keeps its epoch.
    macro_rules! grow {
        ($buf:expr, $fill:expr) => {
            if $buf.len() < stride {
                $buf.resize(stride, $fill);
            }
        };
    }
    grow!(scratch.lab, 0);
    grow!(scratch.mate, 0);
    grow!(scratch.slack, 0);
    grow!(scratch.st, 0);
    grow!(scratch.pa, 0);
    grow!(scratch.s, -1);
    grow!(scratch.vis, 0);
    scratch.lab[0] = 0;
    scratch.st[0] = 0;
    scratch.mate[0] = 0;
    greedy_start(n, scratch);
    // Blossom rows (`rep_row`, `rep_col`, `flower_from`) are grown by
    // `add_blossom` as ids are first used, never up front.
    while scratch.flower.len() < stride {
        scratch.flower.push(Vec::new());
    }
    scratch.solves += 1;

    let mut solver = SparseSolver {
        n,
        n_x: n,
        wn,
        stride,
        sc: scratch,
    };
    while solver.matching_phase() {}
    solver.sc.blossom_ids = solver.n_x - n;

    let mut total = 0i64;
    for u in 1..=n {
        let m = scratch.mate[u];
        assert!(
            m != 0,
            "vertex {} left unmatched — not a perfect matching",
            u - 1
        );
        if u < m {
            total += weights(u - 1, m - 1);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{BLOSSOM_SCALE, WEIGHT_CLAMP};
    use mwpm_oracle::certificate::check_certificate;
    use mwpm_oracle::dense_blossom;

    #[test]
    fn two_vertices() {
        let mut scratch = SparseBlossomScratch::new();
        assert_eq!(
            min_weight_perfect_matching_scratch(2, |_, _| 7, &mut scratch),
            7
        );
        assert_eq!(scratch.mate[1..=2], [2, 1]);
        check_certificate(2, &scratch).unwrap();
    }

    #[test]
    fn four_vertices_prefers_cheap_pairs() {
        let w = |u: usize, v: usize| {
            let (u, v) = (u.min(v), u.max(v));
            match (u, v) {
                (0, 1) | (2, 3) => 1,
                _ => 10,
            }
        };
        let mut scratch = SparseBlossomScratch::new();
        let total = min_weight_perfect_matching_scratch(4, w, &mut scratch);
        let mate: Vec<usize> = (1..=4).map(|u| scratch.mate[u] - 1).collect();
        assert_eq!(total, 2);
        assert_eq!(mate[0], 1);
        assert_eq!(mate[2], 3);
    }

    #[test]
    fn forced_blossom_case_matches_dense() {
        let w = |u: usize, v: usize| {
            let (u, v) = (u.min(v), u.max(v));
            match (u, v) {
                (0, 1) | (1, 2) | (2, 3) | (3, 4) => 2,
                (0, 4) => 2,
                (0, 5) => 3,
                _ => 50,
            }
        };
        let mut scratch = SparseBlossomScratch::new();
        assert_optimal_and_certified(6, w, &mut scratch, "forced blossom");
        // The optimum (7) is unique here, so the mates are the dense ones.
        let (dense_mate, dense_total) = dense_blossom::min_weight_perfect_matching(6, w);
        assert_eq!(dense_total, 7);
        let mate: Vec<usize> = (1..=6).map(|u| scratch.mate[u] - 1).collect();
        assert_eq!(mate, dense_mate);
    }

    /// Solves `(n, w)` on `scratch` and asserts the solve is optimal and
    /// proven: the total equals the dense oracle's exactly, the solve-half
    /// certificate holds (its first check: the mate is a perfect
    /// involution), and a fresh arena gives bit-identical mates (each
    /// solve is a pure function of its inputs, which the streamed ==
    /// barrier contract relies on). Mates may differ from the dense
    /// oracle's on ties.
    fn assert_optimal_and_certified(
        n: usize,
        w: impl Fn(usize, usize) -> i64 + Copy,
        scratch: &mut SparseBlossomScratch,
        label: &str,
    ) {
        let total = min_weight_perfect_matching_scratch(n, w, scratch);
        let (_, dense_total) = dense_blossom::min_weight_perfect_matching(n, w);
        assert_eq!(total, dense_total, "total diverged at {label}");
        if let Err(e) = check_certificate(n, scratch) {
            panic!("certificate failed at {label}: {e}");
        }
        let mut fresh = SparseBlossomScratch::new();
        assert_eq!(min_weight_perfect_matching_scratch(n, w, &mut fresh), total);
        assert_eq!(
            fresh.mate[1..=n],
            scratch.mate[1..=n],
            "reused arena diverged from a fresh one at {label}"
        );
    }

    /// Weights in 1..=8: low spread → many tight edges, frequent blossoms.
    fn low_spread(seed: u64) -> impl Fn(usize, usize) -> i64 + Copy {
        move |u: usize, v: usize| {
            let (u, v) = (u.min(v), u.max(v));
            ((((u as u64).wrapping_mul(7919)
                ^ (v as u64).wrapping_mul(104729)
                ^ seed.wrapping_mul(0x9e3779b97f4a7c15))
            .wrapping_mul(0x2545f4914f6cdd1d))
                >> 61) as i64
                + 1
        }
    }

    /// Wide-range hashed weights in `1..=1_000_000`: ties are rare, so a
    /// perturbed matching is suboptimal and its certificate must fail.
    fn wide(seed: u64) -> impl Fn(usize, usize) -> i64 + Copy {
        move |u: usize, v: usize| {
            let (u, v) = (u.min(v) as u64, u.max(v) as u64);
            let h = (u << 32 | v) ^ seed.wrapping_mul(0x9e3779b97f4a7c15);
            (h.wrapping_mul(0x2545f4914f6cdd1d) >> 40) as i64 % 1_000_000 + 1
        }
    }

    /// The reuse contract: optimal, certified solves that are a pure
    /// function of their inputs on pseudo-random complete graphs, with
    /// ONE arena reused across every instance and the vertex count
    /// varying between calls (stressing the stale-slot and resize paths).
    #[test]
    fn mate_identical_to_dense_with_reused_scratch() {
        let mut scratch = SparseBlossomScratch::new();
        for round in 0..3u64 {
            for &n in &[12usize, 2, 8, 16, 4, 14, 6, 10, 20] {
                for seed in 0..12u64 {
                    let seed = seed + 100 * round;
                    let w = move |u: usize, v: usize| {
                        let (u, v) = (u.min(v), u.max(v));
                        ((u as u64 * 2654435761 + v as u64 * 40503 + seed * 9176)
                            .wrapping_mul(2246822519)
                            >> 33) as i64
                            % 251
                            + 1
                    };
                    assert_optimal_and_certified(n, w, &mut scratch, &format!("n={n} seed={seed}"));
                }
            }
        }
        assert_eq!(scratch.solves, 3 * 9 * 12);

        // Blossom rows are only grown for ids a solve forms: solves
        // without a blossom leave the tables untouched.
        let mut fresh = SparseBlossomScratch::new();
        assert_optimal_and_certified(2, |_, _| 7, &mut fresh, "blossom-free n=2");
        let pairs = |u: usize, v: usize| match (u.min(v), u.max(v)) {
            (0, 1) | (2, 3) => 1,
            _ => 10,
        };
        assert_optimal_and_certified(4, pairs, &mut fresh, "blossom-free n=4");
        assert!(fresh.rep_row.is_empty());
        assert!(fresh.rep_col.is_empty());
        assert!(fresh.flower_from.is_empty());
        assert_eq!(fresh.blossom_ids, 0);

        // Large n with many blossoms, then a small n, then large again:
        // rows left by a wider stride never leak into a later solve.
        let mut reused = SparseBlossomScratch::new();
        for (i, &n) in [40usize, 6, 40, 10, 32].iter().enumerate() {
            for seed in 0..6u64 {
                let seed = seed + 1000 * i as u64;
                assert_optimal_and_certified(
                    n,
                    low_spread(seed),
                    &mut reused,
                    &format!("large/small/large n={n} seed={seed}"),
                );
            }
        }
        assert!(
            reused.rep_row.len() > 2 * 81,
            "the n = 40 solves must form blossoms for this case to mean anything"
        );
    }

    /// Low-spread weights force many tight edges and frequent blossoms;
    /// the rep-table and expand paths must still reach the optimum with a
    /// valid certificate.
    #[test]
    fn blossom_heavy_instances_match_dense() {
        let mut scratch = SparseBlossomScratch::new();
        let mut blossoms = 0;
        for &n in &[6usize, 8, 10, 12, 14, 16, 18, 24] {
            for seed in 0..20u64 {
                assert_optimal_and_certified(
                    n,
                    low_spread(seed),
                    &mut scratch,
                    &format!("n={n} seed={seed}"),
                );
                blossoms += scratch.blossom_ids;
            }
        }
        assert!(blossoms > 0, "no instance formed a blossom");
    }

    /// The greedy start can leave exposed vertices with unequal duals.
    /// Here vertices 5 and 6 stay exposed with duals 18 and 14; the
    /// max-weight-matching exit (`lab[u] <= d`) stopped this solve with
    /// both unmatched.
    #[test]
    fn unequal_exposed_duals_still_reach_a_perfect_matching() {
        const W: [[i64; 6]; 6] = [
            [0, 8, 9, 1, 2, 3],
            [8, 0, 7, 9, 1, 2],
            [9, 7, 0, 7, 8, 9],
            [1, 9, 7, 0, 7, 8],
            [2, 1, 8, 7, 0, 4],
            [3, 2, 9, 8, 4, 0],
        ];
        let w = |u: usize, v: usize| W[u][v];
        let mut scratch = SparseBlossomScratch::new();
        assert_optimal_and_certified(6, w, &mut scratch, "unequal exposed duals");

        // Re-run the greedy start alone on the staged block.
        greedy_start(6, &mut scratch);
        let exposed: Vec<usize> = (1..=6).filter(|&u| scratch.mate[u] == 0).collect();
        assert_eq!(exposed, [5, 6]);
        assert_eq!((scratch.lab[5], scratch.lab[6]), (18, 14));
    }

    /// All-equal weights: every pair is tight from the start and the
    /// greedy pass alone is a perfect matching.
    #[test]
    fn all_equal_weights() {
        let mut scratch = SparseBlossomScratch::new();
        for &n in &[2usize, 4, 10, 16, 30] {
            assert_optimal_and_certified(n, |_, _| 5, &mut scratch, &format!("n={n}"));
            assert_eq!(scratch.blossom_ids, 0);
            let mates: Vec<usize> = scratch.mate[1..=n].to_vec();
            let greedy: Vec<usize> = (1..=n)
                .map(|u| if u % 2 == 1 { u + 1 } else { u - 1 })
                .collect();
            assert_eq!(mates, greedy, "n={n}");
        }
    }

    /// Odd syndrome weights: the decoder's boundary reduction
    /// `min(w_ij, b_i + b_j)` plus one virtual boundary node, in the
    /// decoder's fixed point.
    #[test]
    fn odd_k_with_virtual_boundary_node() {
        let mut scratch = SparseBlossomScratch::new();
        for &k in &[1usize, 3, 5, 11, 13, 21] {
            for seed in 0..10u64 {
                let pair = wide(seed);
                let bound = move |i: usize| pair(i, i + 1_000) / 2;
                let n = k + 1;
                let w = move |i: usize, j: usize| -> i64 {
                    let eff = if i >= k || j >= k {
                        bound(if i >= k { j } else { i })
                    } else {
                        pair(i, j).min(bound(i) + bound(j))
                    };
                    eff + 1
                };
                assert_optimal_and_certified(n, w, &mut scratch, &format!("k={k} seed={seed}"));
            }
        }
    }

    /// Weights at the decoder's ceiling `WEIGHT_CLAMP · BLOSSOM_SCALE + 1`
    /// mixed with unit weights: the doubled reflection and every dual
    /// stay far inside `i64` (debug builds check every operation).
    #[test]
    fn clamp_scale_weights_do_not_overflow() {
        let top = (WEIGHT_CLAMP * BLOSSOM_SCALE).round() as i64 + 1;
        let mut scratch = SparseBlossomScratch::new();
        for &n in &[2usize, 6, 12, 24, 40] {
            for seed in 0..8u64 {
                let spread = wide(seed);
                let w = move |u: usize, v: usize| match spread(u, v) % 3 {
                    0 => top,
                    1 => 1,
                    _ => spread(u, v) * (top / 1_000_000),
                };
                assert_optimal_and_certified(n, w, &mut scratch, &format!("n={n} seed={seed}"));
            }
            assert_optimal_and_certified(n, |_, _| top, &mut scratch, &format!("n={n} all top"));
        }
    }

    /// Mutation check of the certificate itself: lowering one matched
    /// pair's reflected weight by one granule, or swapping two mates,
    /// must be rejected.
    #[test]
    fn certificate_rejects_mutations() {
        for &n in &[4usize, 8, 12, 20, 32] {
            for seed in 0..10u64 {
                let mut scratch = SparseBlossomScratch::new();
                min_weight_perfect_matching_scratch(n, wide(seed), &mut scratch);
                check_certificate(n, &scratch).unwrap();
                let wn = n + 1;

                // One granule of the original weight is 2 once doubled.
                for delta in [-2, 2] {
                    let mut bad = scratch.clone();
                    let (u, v) = (1, bad.mate[1]);
                    bad.weights[u * wn + v] += delta;
                    bad.weights[v * wn + u] += delta;
                    assert!(
                        check_certificate(n, &bad).is_err(),
                        "weight mutation {delta} accepted at n={n} seed={seed}"
                    );
                }

                let mut bad = scratch.clone();
                let (a, b) = (1, bad.mate[1]);
                let c = (1..=n).find(|&x| x != a && x != b).unwrap();
                let d = bad.mate[c];
                bad.mate[a] = c;
                bad.mate[c] = a;
                bad.mate[b] = d;
                bad.mate[d] = b;
                assert!(
                    check_certificate(n, &bad).is_err(),
                    "mate swap accepted at n={n} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn matching_is_a_permutation() {
        let w = |u: usize, v: usize| ((u * 31 + v * 17) % 23 + 1) as i64;
        let mut scratch = SparseBlossomScratch::new();
        min_weight_perfect_matching_scratch(14, |u, v| w(u.min(v), u.max(v)), &mut scratch);
        let mate: Vec<usize> = (1..=14).map(|u| scratch.mate[u] - 1).collect();
        for (u, &v) in mate.iter().enumerate() {
            assert_ne!(u, v);
            assert_eq!(mate[v], u, "mate is not an involution at {u}");
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn rejects_odd_vertex_count() {
        min_weight_perfect_matching_scratch(3, |_, _| 1, &mut SparseBlossomScratch::new());
    }
}
