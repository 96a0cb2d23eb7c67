//! Exact minimum-weight matching with boundary via subset dynamic
//! programming.
//!
//! For `k` active detectors, state `S ⊆ {0..k}` holds the minimum cost of
//! resolving exactly the detectors in `S`, where each detector is either
//! paired with another in `S` or matched to the boundary. Fixing the lowest
//! set bit of `S` as the next detector to resolve makes each state's
//! transition set `O(k)` — exact and fast for the Hamming weights the
//! Astrea paper targets (`k ≤ 20`).
//!
//! Two exact prunings cut the naive `O(2^k · k)` well below it on real
//! syndromes without changing the optimal weight:
//!
//! * **Transition filter** — a pair `(i, j)` with
//!   `w(i, j) ≥ b(i) + b(j)` can always be replaced by two boundary
//!   matches at no extra cost (within any subset), so such transitions
//!   are skipped. On surface-code syndromes roughly half of all pairs
//!   are filtered.
//! * **Cluster decomposition** — the optimum decomposes over connected
//!   components of the surviving pair graph: a cross-component pair is
//!   filtered by definition. Components of ≤ 4 nodes are decided by a
//!   register-only closed form; bigger ones run their own DP over the
//!   submask states of the component's member mask, so an 8-detector
//!   syndrome made of four local 2-detector clusters costs four
//!   closed-form evaluations instead of a `2⁸` table walk.
//! * **Reachable-state memoization** — the per-component DP runs
//!   top-down with memoization, so only states *reachable* from the
//!   full component under the lowest-bit pairing rule are ever
//!   computed. Resolving the lowest set bit removes it alone or with
//!   one adjacent partner, which leaves most of the `2^c` submasks
//!   unreachable: on d = 7 surface-code syndromes the reachable set is
//!   3–11 % of `2^c` across the Hamming-weight-6..10 tail.
//!
//! All three prunings are exact: the first two only drop pair options
//! that tie or lose against boundary matches, and the third skips
//! states whose value could never be read. At exact weight ties the
//! returned *assignment* prefers boundary matches, deterministically.

use decoding_graph::DecodeScratch;

/// Hard cap on the number of nodes the DP will accept (memory is `O(2^k)`).
pub const MAX_DP_NODES: usize = 26;

/// Computes a minimum-weight matching-with-boundary over `k` nodes.
///
/// `pair_weight(i, j)` is the cost of matching nodes `i` and `j` together;
/// `boundary_weight(i)` the cost of matching `i` to the boundary alone.
/// Returns the per-node assignment: `mate[i] = Some(j)` for a pair, `None`
/// for a boundary match, plus the optimal total weight.
///
/// ```
/// use blossom_mwpm::subset_dp::solve;
///
/// // Nodes 0 and 1 are close; node 2 sits next to the boundary.
/// let (mate, cost) = solve(
///     3,
///     |i, j| if (i, j) == (0, 1) || (i, j) == (1, 0) { 1.0 } else { 9.0 },
///     |i| if i == 2 { 0.5 } else { 9.0 },
/// );
/// assert_eq!(mate, vec![Some(1), Some(0), None]);
/// assert_eq!(cost, 1.5);
/// ```
///
/// # Panics
///
/// Panics if `k > MAX_DP_NODES`.
pub fn solve(
    k: usize,
    pair_weight: impl FnMut(usize, usize) -> f64,
    boundary_weight: impl FnMut(usize) -> f64,
) -> (Vec<Option<usize>>, f64) {
    let mut scratch = DecodeScratch::new();
    let cost = solve_with_scratch(k, pair_weight, boundary_weight, &mut scratch);
    let mate = scratch.mate[..k]
        .iter()
        .map(|&m| if m == usize::MAX { None } else { Some(m) })
        .collect();
    (mate, cost)
}

/// [`solve`] with caller-provided working memory — the batched hot path.
///
/// All `O(2^k)` tables live in `scratch` and keep their capacity across
/// calls; steady-state decoding performs no allocation. On return,
/// `scratch.mate[..k]` holds the assignment (`usize::MAX` = boundary
/// match) and the optimal total weight is returned.
///
/// # Panics
///
/// Panics if `k > MAX_DP_NODES`.
pub fn solve_with_scratch(
    k: usize,
    mut pair_weight: impl FnMut(usize, usize) -> f64,
    mut boundary_weight: impl FnMut(usize) -> f64,
    scratch: &mut DecodeScratch,
) -> f64 {
    assert!(
        k <= MAX_DP_NODES,
        "subset DP limited to {MAX_DP_NODES} nodes, got {k}"
    );
    scratch.mate.clear();
    if k == 0 {
        return 0.0;
    }
    if k <= 4 {
        scratch.mate.resize(k, usize::MAX);
        let (cost, mate) = solve_closed_form(k, pair_weight, boundary_weight);
        for (i, &m) in mate[..k].iter().enumerate() {
            scratch.mate[i] = m;
        }
        return cost;
    }

    // Cache the weight oracle into dense arrays.
    let w = &mut scratch.weights;
    let b = &mut scratch.boundary;
    w.clear();
    w.resize(k * k, 0.0);
    b.clear();
    b.resize(k, 0.0);
    for i in 0..k {
        b[i] = boundary_weight(i);
        for j in (i + 1)..k {
            let wij = pair_weight(i, j);
            w[i * k + j] = wij;
            w[j * k + i] = wij;
        }
    }
    solve_staged(k, scratch)
}

/// The solve phase of [`solve_with_scratch`] over *pre-staged* operands:
/// `scratch.weights` must hold the symmetric `k × k` pair-weight matrix
/// (diagonal ignored) and `scratch.boundary` the `k` boundary weights.
///
/// Splitting staging from solving lets a caller gather the block in one
/// row-by-row pass over its weight backend (the MWPM decoder's DP band
/// does, on either backend) and skip the per-entry closure protocol.
/// Components of ≤ 4 nodes — the common case once the adjacency pruning
/// decomposes a realistic syndrome — are solved by the register-only
/// closed form instead of the submask DP.
///
/// On return `scratch.mate[..k]` holds the assignment (`usize::MAX` =
/// boundary) and the optimal total weight is returned.
///
/// # Panics
///
/// Panics if `k == 0` or `k > MAX_DP_NODES`.
pub fn solve_staged(k: usize, scratch: &mut DecodeScratch) -> f64 {
    assert!(
        (1..=MAX_DP_NODES).contains(&k),
        "subset DP limited to 1..={MAX_DP_NODES} nodes, got {k}"
    );
    let DecodeScratch {
        weights: w,
        boundary: b,
        cost,
        mate,
        parent: adj,
        stamp,
        epoch,
        ..
    } = scratch;

    // Adjacency masks: bit j of adj[i] is set iff pairing (i, j) can
    // strictly beat sending both nodes to the boundary. Everything else
    // is pruned from the DP transitions (exact — see module docs).
    adj.clear();
    adj.resize(k, 0u32);
    for i in 0..k {
        for j in (i + 1)..k {
            if w[i * k + j] < b[i] + b[j] {
                adj[i] |= 1 << j;
                adj[j] |= 1 << i;
            }
        }
    }

    // k ≤ MAX_DP_NODES = 26, so component masks fit in u32.
    let full: u32 = (1u32 << k) - 1;
    // The cost table is never cleared: `stamp[s] == epoch` marks which
    // entries were computed by the *current* solve, so the table (and
    // any stale values from earlier calls) is reused as-is. Epochs are
    // bumped per solve; stamps only need the one-off zero-fill on grow.
    if *epoch == u32::MAX {
        stamp.clear();
        *epoch = 0;
    }
    *epoch += 1;
    if cost.len() <= full as usize {
        cost.resize(full as usize + 1, f64::INFINITY);
    }
    if stamp.len() <= full as usize {
        stamp.resize(full as usize + 1, 0);
    }
    cost[0] = 0.0;
    stamp[0] = *epoch;
    mate.clear();
    mate.resize(k, usize::MAX);

    let mut total = 0.0;
    let mut unvisited = full;
    while unvisited != 0 {
        // Flood-fill one connected component of the surviving pair graph
        // from the lowest unvisited node.
        let mut comp = unvisited & unvisited.wrapping_neg();
        loop {
            let mut grown = comp;
            let mut bits = comp;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                grown |= adj[i];
            }
            if grown == comp {
                break;
            }
            comp = grown;
        }
        unvisited &= !comp;

        let c = comp.count_ones() as usize;
        if c == 1 {
            let i = comp.trailing_zeros() as usize;
            total += b[i];
            continue;
        }

        if c <= 4 {
            // Small component: the closed form decides it in registers,
            // skipping the 2^c table walk and the backtrack entirely.
            let mut idx = [0usize; 4];
            let mut bits = comp;
            for slot in idx[..c].iter_mut() {
                *slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
            }
            let (cost_c, mate4) =
                solve_closed_form(c, |a, bb| w[idx[a] * k + idx[bb]], |a| b[idx[a]]);
            for (a, &m) in mate4[..c].iter().enumerate() {
                if m != usize::MAX {
                    mate[idx[a]] = idx[m];
                }
            }
            total += cost_c;
            continue;
        }

        // Top-down DP over only the states *reachable* from `comp` under
        // the lowest-bit pairing rule: resolving the lowest set bit either
        // removes it alone (boundary) or together with one surviving
        // partner, so most of `comp`'s 2^c submasks can never appear. On
        // d = 7 syndromes the reachable set is 3–11 % of 2^c for the
        // Hamming-weight-6..10 tail (the ascending bottom-up sweep touches
        // all of it). Candidates are evaluated in the same order as the
        // old sweep — boundary first, then partners ascending — so every
        // computed state holds the bit-identical cost. No backtracking
        // table: the argmin of the few states on the reconstruction path
        // is re-derived afterwards, which keeps the per-state work to one
        // table write.
        total += dp_cost(comp, k, w, b, adj, cost, stamp, *epoch);

        // Reconstruct by re-deriving each path state's argmin: the first
        // candidate (boundary, then partners in ascending order) whose
        // re-computed cost equals the stored optimum is exactly the last
        // strict improvement of the forward pass — identical expressions
        // over identical operands compare bit-equal.
        let mut s = comp;
        while s != 0 {
            let i = s.trailing_zeros() as usize;
            let without_i = s & !(1 << i);
            let c_s = cost[s as usize];
            if cost[without_i as usize] + b[i] == c_s {
                s = without_i;
                continue;
            }
            let mut rest = without_i & adj[i];
            let mut next = without_i;
            while rest != 0 {
                let j = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if cost[(without_i & !(1 << j)) as usize] + w[i * k + j] == c_s {
                    mate[i] = j;
                    mate[j] = i;
                    next = without_i & !(1 << j);
                    break;
                }
            }
            debug_assert_ne!(next, without_i, "backtrack failed to re-derive a choice");
            s = next;
        }
    }

    total
}

/// Memoized cost of resolving exactly the detectors in `s`, recursing
/// only into states reachable under the lowest-bit pairing rule.
/// `stamp[x] == epoch` marks `cost[x]` as already computed this solve.
/// Candidate order (boundary, then partners ascending) matches the
/// retired bottom-up sweep, so computed entries are bit-identical to the
/// values that sweep produced. Recursion depth is bounded by the
/// component size (≤ [`MAX_DP_NODES`]).
#[allow(clippy::too_many_arguments)]
fn dp_cost(
    s: u32,
    k: usize,
    w: &[f64],
    b: &[f64],
    adj: &[u32],
    cost: &mut [f64],
    stamp: &mut [u32],
    epoch: u32,
) -> f64 {
    if stamp[s as usize] == epoch {
        return cost[s as usize];
    }
    // `s != 0` here: the empty state is stamped before the first call.
    let i = s.trailing_zeros() as usize;
    let without_i = s & !(1 << i);
    // Pre-check the memo before recursing: most successors are already
    // stamped, and the inline check is much cheaper than a call.
    #[inline]
    fn memo_or_recurse(
        s: u32,
        k: usize,
        w: &[f64],
        b: &[f64],
        adj: &[u32],
        cost: &mut [f64],
        stamp: &mut [u32],
        epoch: u32,
    ) -> f64 {
        if stamp[s as usize] == epoch {
            cost[s as usize]
        } else {
            dp_cost(s, k, w, b, adj, cost, stamp, epoch)
        }
    }
    // Option 1: match i to the boundary.
    let mut best = memo_or_recurse(without_i, k, w, b, adj, cost, stamp, epoch) + b[i];
    // Option 2: match i with a surviving partner j in s.
    let mut rest = without_i & adj[i];
    while rest != 0 {
        let j = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        let c =
            memo_or_recurse(without_i & !(1 << j), k, w, b, adj, cost, stamp, epoch) + w[i * k + j];
        if c < best {
            best = c;
        }
    }
    cost[s as usize] = best;
    stamp[s as usize] = epoch;
    best
}

/// Exhaustive matching for `k ≤ 4`: every matching-with-boundary is one
/// of at most 10 candidate sums, decided in registers — no tables, no
/// adjacency pass. Candidates are evaluated boundary-heaviest first with
/// strict improvement, so exact ties prefer boundary matches like the DP.
///
/// Generic over the weight domain: `f64` for the staged decoders, an
/// unsigned integer for the GWT-direct quantized fast path (fixed-point
/// weights compare identically to their dequantized `f64` images because
/// the scale is a power of two, so integer sums stay exact in both
/// domains). Returns the optimal cost and the mate assignment over local
/// indices (`usize::MAX` = boundary).
///
/// # Panics
///
/// Panics if `k == 0` or `k > 4`.
pub fn solve_closed_form<T>(
    k: usize,
    mut pair_weight: impl FnMut(usize, usize) -> T,
    mut boundary_weight: impl FnMut(usize) -> T,
) -> (T, [usize; 4])
where
    T: Copy + PartialOrd + std::ops::Add<Output = T>,
{
    let mut mate = [usize::MAX; 4];
    let cost = match k {
        1 => boundary_weight(0),
        2 => {
            let (b0, b1) = (boundary_weight(0), boundary_weight(1));
            let w01 = pair_weight(0, 1);
            if w01 < b0 + b1 {
                mate[0] = 1;
                mate[1] = 0;
                w01
            } else {
                b0 + b1
            }
        }
        3 => {
            let b = [boundary_weight(0), boundary_weight(1), boundary_weight(2)];
            let mut best = b[0] + b[1] + b[2];
            let mut pick = usize::MAX;
            for (idx, (i, j)) in [(0usize, 1usize), (0, 2), (1, 2)].into_iter().enumerate() {
                let spare = 3 - i - j;
                let c = pair_weight(i, j) + b[spare];
                if c < best {
                    best = c;
                    pick = idx;
                }
            }
            if pick != usize::MAX {
                let (i, j) = [(0, 1), (0, 2), (1, 2)][pick];
                mate[i] = j;
                mate[j] = i;
            }
            best
        }
        4 => {
            let b = [
                boundary_weight(0),
                boundary_weight(1),
                boundary_weight(2),
                boundary_weight(3),
            ];
            let w = [
                pair_weight(0, 1),
                pair_weight(0, 2),
                pair_weight(0, 3),
                pair_weight(1, 2),
                pair_weight(1, 3),
                pair_weight(2, 3),
            ];
            solve_closed_form_4(&w, &b, &mut mate)
        }
        _ => unreachable!("closed form limited to 1 ≤ k ≤ 4, got {k}"),
    };
    (cost, mate)
}

/// The `k = 4` closed form over pre-gathered operands: pair weights in
/// the triangular order `(0,1), (0,2), (0,3), (1,2), (1,3), (2,3)` —
/// exactly the order the MWPM decoder's closed-form operand gather
/// writes.
pub fn solve_closed_form_4<T>(w: &[T; 6], b: &[T; 4], mate: &mut [usize; 4]) -> T
where
    T: Copy + PartialOrd + std::ops::Add<Output = T>,
{
    // Pair order above; PAIRS[p] = (i, j), COMPLEMENT[p] = the
    // opposite pair's index in the same order.
    const PAIRS: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
    const COMPLEMENT: [usize; 3] = [5, 4, 3]; // (0,1)↔(2,3), (0,2)↔(1,3), (0,3)↔(1,2)
    let mut best = b[0] + b[1] + b[2] + b[3];
    let mut pick = usize::MAX; // 0..6 single pair, 6..9 double pairing
    for (p, &(i, j)) in PAIRS.iter().enumerate() {
        let (u, v) = PAIRS[5 - p]; // the two nodes not in pair p
        debug_assert_eq!(i + j + u + v, 6);
        let c = w[p] + b[u] + b[v];
        if c < best {
            best = c;
            pick = p;
        }
    }
    for p in 0..3 {
        let c = w[p] + w[COMPLEMENT[p]];
        if c < best {
            best = c;
            pick = 6 + p;
        }
    }
    if pick != usize::MAX {
        let (i, j) = PAIRS[if pick < 6 { pick } else { pick - 6 }];
        mate[i] = j;
        mate[j] = i;
        if pick >= 6 {
            let (u, v) = PAIRS[COMPLEMENT[pick - 6]];
            mate[u] = v;
            mate[v] = u;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        let (mate, cost) = solve(0, |_, _| 0.0, |_| 0.0);
        assert!(mate.is_empty());
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn single_node_goes_to_boundary() {
        let (mate, cost) = solve(1, |_, _| unreachable!(), |_| 2.5);
        assert_eq!(mate, vec![None]);
        assert_eq!(cost, 2.5);
    }

    #[test]
    fn pair_beats_two_boundaries_when_cheaper() {
        let (mate, cost) = solve(2, |_, _| 1.0, |_| 5.0);
        assert_eq!(mate, vec![Some(1), Some(0)]);
        assert_eq!(cost, 1.0);
    }

    #[test]
    fn boundaries_beat_expensive_pair() {
        let (mate, cost) = solve(2, |_, _| 100.0, |_| 5.0);
        assert_eq!(mate, vec![None, None]);
        assert_eq!(cost, 10.0);
    }

    #[test]
    fn odd_count_sends_one_to_boundary() {
        // Three nodes in a line: 0 -1- 1 -1- 2, boundary cost 10 except
        // node 2 (cost 1). Optimal: pair (0,1), node 2 to boundary.
        let w = |i: usize, j: usize| {
            let (i, j) = (i.min(j), i.max(j));
            match (i, j) {
                (0, 1) | (1, 2) => 1.0,
                (0, 2) => 2.0,
                _ => unreachable!(),
            }
        };
        let b = |i: usize| if i == 2 { 1.0 } else { 10.0 };
        let (mate, cost) = solve(3, w, b);
        assert_eq!(mate, vec![Some(1), Some(0), None]);
        assert_eq!(cost, 2.0);
    }

    #[test]
    fn four_node_optimal_pairing() {
        // Weights favour (0,2) + (1,3) over the other pairings.
        let weights = [
            [0.0, 9.0, 1.0, 9.0],
            [9.0, 0.0, 9.0, 1.0],
            [1.0, 9.0, 0.0, 9.0],
            [9.0, 1.0, 9.0, 0.0],
        ];
        let (mate, cost) = solve(4, |i, j| weights[i][j], |_| 100.0);
        assert_eq!(cost, 2.0);
        assert_eq!(mate[0], Some(2));
        assert_eq!(mate[1], Some(3));
    }

    #[test]
    fn mixed_boundary_and_pair() {
        // 0 and 1 near opposite boundaries; 2 and 3 close together in the
        // middle. Optimal: 0→boundary, 1→boundary, (2,3).
        let w = |i: usize, j: usize| {
            let (i, j) = (i.min(j), i.max(j));
            match (i, j) {
                (2, 3) => 1.0,
                (0, 1) => 8.0,
                _ => 6.0,
            }
        };
        let b = |i: usize| if i < 2 { 1.0 } else { 7.0 };
        let (mate, cost) = solve(4, w, b);
        assert_eq!(mate, vec![None, None, Some(3), Some(2)]);
        assert!((cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cost_is_optimal_vs_brute_force() {
        // Exhaustively verify against brute-force enumeration for k = 5
        // with pseudo-random weights.
        let k = 5;
        let w = |i: usize, j: usize| (((i * 7 + j * 13) % 11) + 1) as f64;
        let b = |i: usize| (((i * 5) % 7) + 2) as f64;
        let (_, dp_cost) = solve(k, w, b);

        // Brute force: every assignment encoded as recursive pairing.
        fn brute(
            nodes: &[usize],
            w: &dyn Fn(usize, usize) -> f64,
            b: &dyn Fn(usize) -> f64,
        ) -> f64 {
            match nodes {
                [] => 0.0,
                [first, rest @ ..] => {
                    let mut best = b(*first) + brute(rest, w, b);
                    for (idx, &j) in rest.iter().enumerate() {
                        let mut remaining = rest.to_vec();
                        remaining.remove(idx);
                        best = best.min(w(*first, j) + brute(&remaining, w, b));
                    }
                    best
                }
            }
        }
        let nodes: Vec<usize> = (0..k).collect();
        let brute_cost = brute(&nodes, &w, &b);
        assert!((dp_cost - brute_cost).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn rejects_oversized_input() {
        solve(MAX_DP_NODES + 1, |_, _| 0.0, |_| 0.0);
    }

    #[test]
    fn scratch_reuse_matches_fresh_solve() {
        // A dirty arena from a bigger problem must not leak into later,
        // smaller solves.
        let w = |i: usize, j: usize| (((i * 7 + j * 13) % 11) + 1) as f64;
        let b = |i: usize| (((i * 5) % 7) + 2) as f64;
        let mut scratch = DecodeScratch::new();
        let _ = solve_with_scratch(7, w, b, &mut scratch);
        for k in [0usize, 1, 3, 5] {
            let (mate, cost) = solve(k, w, b);
            let cost_s = solve_with_scratch(k, w, b, &mut scratch);
            assert_eq!(cost, cost_s, "k={k}");
            let mate_s: Vec<Option<usize>> = scratch.mate[..k]
                .iter()
                .map(|&m| if m == usize::MAX { None } else { Some(m) })
                .collect();
            assert_eq!(mate, mate_s, "k={k}");
        }
    }
}
