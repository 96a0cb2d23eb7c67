//! A dense `O(n³)` primal–dual blossom algorithm for maximum-weight
//! matching on general graphs.
//!
//! This is the classical Edmonds blossom-shrinking algorithm in its dense
//! formulation (the same algorithmic family as Kolmogorov's BlossomV, which
//! the Astrea paper uses as its software baseline). Vertices are 1-based
//! internally; contracted blossoms occupy ids `n+1..=2n`. Duals (`lab`) are
//! maintained so that every tight edge (`e_delta == 0`) can join the
//! alternating forest; each phase either augments the matching, grows the
//! forest, shrinks a blossom, expands a zero-dual blossom, or adjusts duals.
//!
//! On a complete graph with strictly positive weights, the maximum-weight
//! matching is perfect, which [`min_weight_perfect_matching`] exploits via
//! the standard weight reflection `w' = W − w`.
//!
//! Correctness is established by exhaustive cross-validation against the
//! independent subset-DP solver in `blossom-mwpm`'s property tests.

use std::collections::VecDeque;

const INF: i64 = i64::MAX / 4;

#[derive(Debug, Clone, Copy, Default)]
struct EdgeT {
    u: usize,
    v: usize,
    w: i64,
}

/// Scratch state for one maximum-weight matching computation.
#[derive(Debug)]
struct Solver {
    n: usize,
    n_x: usize,
    g: Vec<EdgeT>,
    stride: usize,
    lab: Vec<i64>,
    mate: Vec<usize>,
    slack: Vec<usize>,
    st: Vec<usize>,
    pa: Vec<usize>,
    flower_from: Vec<usize>,
    ff_stride: usize,
    s: Vec<i8>,
    vis: Vec<usize>,
    vis_t: usize,
    flower: Vec<Vec<usize>>,
    q: VecDeque<usize>,
}

impl Solver {
    fn new(n: usize, weights: impl Fn(usize, usize) -> i64) -> Solver {
        let stride = 2 * n + 1;
        let mut g = vec![EdgeT::default(); stride * stride];
        for u in 1..=n {
            for v in 1..=n {
                g[u * stride + v] = EdgeT {
                    u,
                    v,
                    w: if u == v { 0 } else { weights(u - 1, v - 1) },
                };
            }
        }
        let ff_stride = n + 1;
        let mut flower_from = vec![0usize; stride * ff_stride];
        for u in 1..=n {
            flower_from[u * ff_stride + u] = u;
        }
        let mut st = vec![0usize; stride];
        for (u, slot) in st.iter_mut().enumerate().take(n + 1) {
            *slot = u;
        }
        let w_max = (1..=n)
            .flat_map(|u| (1..=n).map(move |v| (u, v)))
            .map(|(u, v)| g[u * stride + v].w)
            .max()
            .unwrap_or(0);
        let mut lab = vec![0i64; stride];
        for l in lab.iter_mut().take(n + 1).skip(1) {
            *l = w_max;
        }
        Solver {
            n,
            n_x: n,
            g,
            stride,
            lab,
            mate: vec![0; stride],
            slack: vec![0; stride],
            st,
            pa: vec![0; stride],
            flower_from,
            ff_stride,
            s: vec![-1; stride],
            vis: vec![0; stride],
            vis_t: 0,
            flower: vec![Vec::new(); stride],
            q: VecDeque::new(),
        }
    }

    #[inline]
    fn e(&self, u: usize, v: usize) -> EdgeT {
        self.g[u * self.stride + v]
    }

    #[inline]
    fn e_delta(&self, e: EdgeT) -> i64 {
        self.lab[e.u] + self.lab[e.v] - self.e(e.u, e.v).w * 2
    }

    fn update_slack(&mut self, u: usize, x: usize) {
        if self.slack[x] == 0 || self.e_delta(self.e(u, x)) < self.e_delta(self.e(self.slack[x], x))
        {
            self.slack[x] = u;
        }
    }

    fn set_slack(&mut self, x: usize) {
        self.slack[x] = 0;
        for u in 1..=self.n {
            if self.e(u, x).w > 0 && self.st[u] != x && self.s[self.st[u]] == 0 {
                self.update_slack(u, x);
            }
        }
    }

    fn q_push(&mut self, x: usize) {
        if x <= self.n {
            self.q.push_back(x);
        } else {
            let members = self.flower[x].clone();
            for t in members {
                self.q_push(t);
            }
        }
    }

    fn set_st(&mut self, x: usize, b: usize) {
        self.st[x] = b;
        if x > self.n {
            let members = self.flower[x].clone();
            for t in members {
                self.set_st(t, b);
            }
        }
    }

    fn get_pr(&mut self, b: usize, xr: usize) -> usize {
        let pr = self.flower[b]
            .iter()
            .position(|&x| x == xr)
            .expect("xr must be a member of blossom b");
        if pr % 2 == 1 {
            self.flower[b][1..].reverse();
            self.flower[b].len() - pr
        } else {
            pr
        }
    }

    fn set_match(&mut self, u: usize, v: usize) {
        let e = self.e(u, v);
        self.mate[u] = e.v;
        if u > self.n {
            let xr = self.flower_from[u * self.ff_stride + e.u];
            let pr = self.get_pr(u, xr);
            for i in 0..pr {
                let (a, b) = (self.flower[u][i], self.flower[u][i ^ 1]);
                self.set_match(a, b);
            }
            self.set_match(xr, v);
            self.flower[u].rotate_left(pr);
        }
    }

    fn augment(&mut self, mut u: usize, mut v: usize) {
        loop {
            let xnv = self.st[self.mate[u]];
            self.set_match(u, v);
            if xnv == 0 {
                return;
            }
            let pa_xnv = self.pa[xnv];
            self.set_match(xnv, self.st[pa_xnv]);
            let (nu, nv) = (self.st[pa_xnv], xnv);
            u = nu;
            v = nv;
        }
    }

    fn get_lca(&mut self, mut u: usize, mut v: usize) -> usize {
        self.vis_t += 1;
        let t = self.vis_t;
        while u != 0 || v != 0 {
            if u != 0 {
                if self.vis[u] == t {
                    return u;
                }
                self.vis[u] = t;
                u = self.st[self.mate[u]];
                if u != 0 {
                    u = self.st[self.pa[u]];
                }
            }
            std::mem::swap(&mut u, &mut v);
        }
        0
    }

    fn add_blossom(&mut self, u: usize, lca: usize, v: usize) {
        let mut b = self.n + 1;
        while b <= self.n_x && self.st[b] != 0 {
            b += 1;
        }
        if b > self.n_x {
            self.n_x += 1;
        }
        self.lab[b] = 0;
        self.s[b] = 0;
        self.mate[b] = self.mate[lca];
        self.flower[b].clear();
        self.flower[b].push(lca);
        // Walk u's side of the cycle up to the LCA.
        let mut x = u;
        while x != lca {
            self.flower[b].push(x);
            let y = self.st[self.mate[x]];
            self.flower[b].push(y);
            self.q_push(y);
            x = self.st[self.pa[y]];
        }
        self.flower[b][1..].reverse();
        // Walk v's side.
        let mut x = v;
        while x != lca {
            self.flower[b].push(x);
            let y = self.st[self.mate[x]];
            self.flower[b].push(y);
            self.q_push(y);
            x = self.st[self.pa[y]];
        }
        self.set_st(b, b);
        for x in 1..=self.n_x {
            self.g[b * self.stride + x].w = 0;
            self.g[x * self.stride + b].w = 0;
        }
        for x in 1..=self.n {
            self.flower_from[b * self.ff_stride + x] = 0;
        }
        let members = self.flower[b].clone();
        for &xs in &members {
            for x in 1..=self.n_x {
                if self.g[b * self.stride + x].w == 0
                    || self.e_delta(self.e(xs, x)) < self.e_delta(self.e(b, x))
                {
                    self.g[b * self.stride + x] = self.e(xs, x);
                    self.g[x * self.stride + b] = self.e(x, xs);
                }
            }
            for x in 1..=self.n {
                if self.flower_from[xs * self.ff_stride + x] != 0 {
                    self.flower_from[b * self.ff_stride + x] = xs;
                }
            }
        }
        self.set_slack(b);
    }

    fn expand_blossom(&mut self, b: usize) {
        let members = self.flower[b].clone();
        for &xs in &members {
            self.set_st(xs, xs);
        }
        let xr = self.flower_from[b * self.ff_stride + self.e(b, self.pa[b]).u];
        let pr = self.get_pr(b, xr);
        let mut i = 0;
        while i < pr {
            let xs = self.flower[b][i];
            let xns = self.flower[b][i + 1];
            self.pa[xs] = self.e(xns, xs).u;
            self.s[xs] = 1;
            self.s[xns] = 0;
            self.slack[xs] = 0;
            self.set_slack(xns);
            self.q_push(xns);
            i += 2;
        }
        self.s[xr] = 1;
        self.pa[xr] = self.pa[b];
        for i in (pr + 1)..self.flower[b].len() {
            let xs = self.flower[b][i];
            self.s[xs] = -1;
            self.set_slack(xs);
        }
        self.st[b] = 0;
    }

    /// Returns `true` if an augmenting path was found and applied.
    fn on_found_edge(&mut self, e: EdgeT) -> bool {
        let u = self.st[e.u];
        let v = self.st[e.v];
        if self.s[v] == -1 {
            self.pa[v] = e.u;
            self.s[v] = 1;
            let nu = self.st[self.mate[v]];
            self.slack[v] = 0;
            self.slack[nu] = 0;
            self.s[nu] = 0;
            self.q_push(nu);
        } else if self.s[v] == 0 {
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
            self.s[x] = -1;
            self.slack[x] = 0;
        }
        self.q.clear();
        for x in 1..=self.n_x {
            if self.st[x] == x && self.mate[x] == 0 {
                self.pa[x] = 0;
                self.s[x] = 0;
                self.q_push(x);
            }
        }
        if self.q.is_empty() {
            return false;
        }
        loop {
            while let Some(u) = self.q.pop_front() {
                if self.s[self.st[u]] == 1 {
                    continue;
                }
                for v in 1..=self.n {
                    if self.e(u, v).w > 0 && self.st[u] != self.st[v] {
                        if self.e_delta(self.e(u, v)) == 0 {
                            if self.on_found_edge(self.e(u, v)) {
                                return true;
                            }
                        } else {
                            let stv = self.st[v];
                            self.update_slack(u, stv);
                        }
                    }
                }
            }
            // Dual adjustment.
            let mut d = INF;
            for b in (self.n + 1)..=self.n_x {
                if self.st[b] == b && self.s[b] == 1 {
                    d = d.min(self.lab[b] / 2);
                }
            }
            for x in 1..=self.n_x {
                if self.st[x] == x && self.slack[x] != 0 {
                    let delta = self.e_delta(self.e(self.slack[x], x));
                    if self.s[x] == -1 {
                        d = d.min(delta);
                    } else if self.s[x] == 0 {
                        d = d.min(delta / 2);
                    }
                }
            }
            for u in 1..=self.n {
                match self.s[self.st[u]] {
                    0 => {
                        if self.lab[u] <= d {
                            return false; // Duals exhausted: no augmenting path.
                        }
                        self.lab[u] -= d;
                    }
                    1 => self.lab[u] += d,
                    _ => {}
                }
            }
            for b in (self.n + 1)..=self.n_x {
                if self.st[b] == b {
                    match self.s[b] {
                        0 => self.lab[b] += 2 * d,
                        1 => self.lab[b] -= 2 * d,
                        _ => {}
                    }
                }
            }
            self.q.clear();
            for x in 1..=self.n_x {
                if self.st[x] == x
                    && self.slack[x] != 0
                    && self.st[self.slack[x]] != x
                    && self.e_delta(self.e(self.slack[x], x)) == 0
                    && self.on_found_edge(self.e(self.slack[x], x))
                {
                    return true;
                }
            }
            for b in (self.n + 1)..=self.n_x {
                if self.st[b] == b && self.s[b] == 1 && self.lab[b] == 0 {
                    self.expand_blossom(b);
                }
            }
        }
    }

    fn run(&mut self) -> Vec<usize> {
        while self.matching_phase() {}
        self.mate[1..=self.n].to_vec()
    }
}

/// Computes a maximum-weight matching on the complete graph over `n`
/// vertices with the given strictly-positive edge weights.
///
/// Returns `mate`, where `mate[i] = Some(j)` means vertices `i` and `j`
/// (0-based) are matched; unmatched vertices map to `None`.
///
/// # Panics
///
/// Panics if any weight is non-positive or if `n == 0`.
pub fn max_weight_matching(n: usize, weights: impl Fn(usize, usize) -> i64) -> Vec<Option<usize>> {
    assert!(n > 0, "empty graph");
    let w = |u: usize, v: usize| {
        let x = weights(u, v);
        assert!(
            x > 0,
            "weights must be strictly positive, got {x} for ({u}, {v})"
        );
        x
    };
    let mut solver = Solver::new(n, w);
    let mate = solver.run();
    mate.iter().map(|&m| (m != 0).then(|| m - 1)).collect()
}

/// Computes a **minimum-weight perfect matching** on the complete graph
/// over an even number of vertices.
///
/// Uses the weight reflection `w' = W − w` with `W > max(w)`, under which
/// the maximum-weight matching of the reflected graph is the minimum-weight
/// perfect matching of the original (a maximum-weight matching on a
/// complete graph with positive weights is always perfect).
///
/// Returns `(mate, total_weight)` with `mate[i] = j`.
///
/// ```
/// use mwpm_oracle::dense_blossom::min_weight_perfect_matching;
///
/// // (0,1) and (2,3) cheap, everything else expensive.
/// let cheap = [(0usize, 1usize), (2, 3)];
/// let (mate, total) = min_weight_perfect_matching(4, |u, v| {
///     let e = (u.min(v), u.max(v));
///     if cheap.contains(&e) { 1 } else { 10 }
/// });
/// assert_eq!(total, 2);
/// assert_eq!(mate[0], 1);
/// assert_eq!(mate[2], 3);
/// ```
///
/// # Panics
///
/// Panics if `n` is odd or zero.
pub fn min_weight_perfect_matching(
    n: usize,
    weights: impl Fn(usize, usize) -> i64,
) -> (Vec<usize>, i64) {
    assert!(
        n > 0 && n.is_multiple_of(2),
        "need an even, positive vertex count, got {n}"
    );
    let weights = &weights;
    let w_max = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .map(|(u, v)| weights(u, v))
        .max()
        .expect("at least one edge");
    let reflect = move |u: usize, v: usize| w_max - weights(u, v) + 1;
    let mate = max_weight_matching(n, reflect);
    let mut out = vec![usize::MAX; n];
    let mut total = 0i64;
    for (u, m) in mate.iter().enumerate() {
        let v = m.unwrap_or_else(|| panic!("vertex {u} left unmatched — not a perfect matching"));
        out[u] = v;
        if u < v {
            total += weights(u, v);
        }
    }
    (out, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_vertices() {
        let (mate, w) = min_weight_perfect_matching(2, |_, _| 7);
        assert_eq!(mate, vec![1, 0]);
        assert_eq!(w, 7);
    }

    #[test]
    fn four_vertices_prefers_cheap_pairs() {
        // (0,1) and (2,3) cheap; everything else expensive.
        let w = |u: usize, v: usize| {
            let (u, v) = (u.min(v), u.max(v));
            match (u, v) {
                (0, 1) | (2, 3) => 1,
                _ => 10,
            }
        };
        let (mate, total) = min_weight_perfect_matching(4, w);
        assert_eq!(total, 2);
        assert_eq!(mate[0], 1);
        assert_eq!(mate[2], 3);
    }

    #[test]
    fn forced_blossom_case() {
        // A 6-vertex instance engineered so the greedy pairing is suboptimal
        // and an odd cycle (blossom) forms during the search: a 5-cycle
        // 0-1-2-3-4 of cheap edges plus vertex 5 attached to 0.
        let w = |u: usize, v: usize| {
            let (u, v) = (u.min(v), u.max(v));
            match (u, v) {
                (0, 1) | (1, 2) | (2, 3) | (3, 4) => 2,
                (0, 4) => 2,
                (0, 5) => 3,
                _ => 50,
            }
        };
        let (mate, total) = min_weight_perfect_matching(6, w);
        // Optimal: (0,5)=3, (1,2)=2, (3,4)=2 → 7.
        assert_eq!(total, 7);
        assert_eq!(mate[5], 0);
    }

    #[test]
    fn matching_is_a_permutation() {
        let w = |u: usize, v: usize| ((u * 31 + v * 17) % 23 + 1) as i64;
        let (mate, _) = min_weight_perfect_matching(14, |u, v| w(u.min(v), u.max(v)));
        for (u, &v) in mate.iter().enumerate() {
            assert_ne!(u, v);
            assert_eq!(mate[v], u, "mate is not an involution at {u}");
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn rejects_odd_vertex_count() {
        min_weight_perfect_matching(3, |_, _| 1);
    }

    #[test]
    fn max_weight_matching_leaves_negative_value_edges_out() {
        // With only some edges attractive, max-weight matching need not be
        // perfect; here only (0,1) has meaningful weight on 4 vertices.
        // (All weights must be positive, so "unattractive" means weight 1
        // that still gets picked on a complete graph — instead verify the
        // high-weight pair is chosen.)
        let w = |u: usize, v: usize| {
            let (u, v) = (u.min(v), u.max(v));
            if (u, v) == (0, 1) {
                100
            } else {
                1
            }
        };
        let mate = max_weight_matching(4, w);
        assert_eq!(mate[0], Some(1));
        assert_eq!(mate[1], Some(0));
    }
}
