//! Optimality certificate for the sparse blossom solver.
//!
//! [`check_certificate`] reads the arena that
//! `sparse_blossom::min_weight_perfect_matching_scratch` leaves behind —
//! `weights`, `lab`, `mate`, `st`, `flower` and `blossom_ids` — and
//! checks, in integers on the doubled reflected weights `w'`, that the
//! final duals prove the mate a maximum-weight perfect matching of `w'`,
//! i.e. a minimum-weight perfect matching of the original weights:
//!
//! * the mate is a perfect involution on `1..=n`;
//! * every pair has reduced cost
//!   `lab[u] + lab[v] + Σ_{live B ∋ u,v} lab[B] − 2w'(u, v) ≥ 0`;
//! * every matched pair is tight (reduced cost `0`);
//! * every live blossom dual is `≥ 0`, and the live blossoms are odd
//!   vertex sets forming a laminar family;
//! * every blossom with a positive dual is crossed by exactly one
//!   matched edge.
//!
//! With `y = lab / 2` on vertices and `z = lab / 2` on blossoms this is
//! LP duality for Edmonds' perfect-matching polytope: for any perfect
//! matching `M`, `w'(M) ≤ Σ y + Σ z_B·(|B| − 1)/2`, with equality for
//! the solver's mate exactly when the last two checks hold.
//!
//! [`check_certificate_against`] runs the same checks with the solve's
//! weights replaced by the caller's, in the solve's fixed point before
//! reflection. That is how a deep decode is certified against weights
//! it was not solved with, such as the staged oracle's exact block. The
//! reflection pivot `W` of those weights is not stored anywhere, and
//! duals are only defined up to it, so the pivot is read off the first
//! matched pair; every other matched pair must then be tight at the
//! same pivot. The checker is test support; no production path calls
//! it.

use decoding_graph::SparseBlossomScratch;

/// Checks the solve-half certificate of the last `n`-vertex solve held
/// in `sc`; `Err` names the first violated condition.
#[allow(dead_code)]
pub fn check_certificate(n: usize, sc: &SparseBlossomScratch) -> Result<(), String> {
    let wn = n + 1;
    check_duals(n, sc, |u, v| 2 * sc.weights[u * wn + v], Some(0))
}

/// Checks that the duals and mate of the last `n`-vertex solve held in
/// `sc` certify the mate a minimum-weight perfect matching under the
/// fixed-point weights `weight(u, v)` (1-based arena vertices, before
/// reflection); `Err` names the first violated condition.
#[allow(dead_code)]
pub fn check_certificate_against(
    n: usize,
    sc: &SparseBlossomScratch,
    weight: impl Fn(usize, usize) -> i64,
) -> Result<(), String> {
    // Reflected at pivot `W`, `2w'(u, v) = 4(W + 1) − 4·weight(u, v)`;
    // the constant `4(W + 1)` is the pivot the first matched pair fixes.
    check_duals(n, sc, |u, v| -4 * weight(u, v), None)
}

/// The checks behind both entry points. The reduced cost of a pair is
/// `lab[u] + lab[v] + Σ_{live B ∋ u,v} lab[B] − pair(u, v) − pivot`;
/// `pivot` is `None` when the first matched pair fixes it.
fn check_duals(
    n: usize,
    sc: &SparseBlossomScratch,
    pair: impl Fn(usize, usize) -> i64,
    pivot: Option<i64>,
) -> Result<(), String> {
    let wn = n + 1;
    for u in 1..=n {
        let m = sc.mate[u];
        if m == 0 || m > n || m == u || sc.mate[m] != u {
            return Err(format!(
                "mate is not a perfect involution at {u} (mate {m})"
            ));
        }
    }

    // Live blossoms and the original vertices each one contains.
    let live: Vec<usize> = (n + 1..=n + sc.blossom_ids)
        .filter(|&b| sc.st[b] != 0)
        .collect();
    let mut sets: Vec<Vec<bool>> = Vec::with_capacity(live.len());
    for &b in &live {
        let mut set = vec![false; wn];
        let mut stack = vec![b];
        let mut visits = 0usize;
        while let Some(x) = stack.pop() {
            visits += 1;
            if visits > 2 * n + 1 {
                return Err(format!("blossom {b} does not nest (member cycle)"));
            }
            if x <= n {
                if set[x] {
                    return Err(format!("vertex {x} appears twice in blossom {b}"));
                }
                set[x] = true;
                continue;
            }
            if x > n + sc.blossom_ids || sc.st[x] == 0 {
                return Err(format!("blossom {b} holds a dead member {x}"));
            }
            let cycle = &sc.flower[x];
            if cycle.len() < 3 || cycle.len().is_multiple_of(2) {
                return Err(format!("blossom {x} has a {}-cycle", cycle.len()));
            }
            stack.extend_from_slice(cycle);
        }
        if set.iter().filter(|&&m| m).count().is_multiple_of(2) {
            return Err(format!("blossom {b} is not an odd set"));
        }
        sets.push(set);
    }
    for (i, &b) in live.iter().enumerate() {
        if sc.lab[b] < 0 {
            return Err(format!("blossom {b} has negative dual {}", sc.lab[b]));
        }
        for (j, &c) in live.iter().enumerate().skip(i + 1) {
            let (a, o) = (&sets[i], &sets[j]);
            let both = (1..=n).any(|x| a[x] && o[x]);
            let a_in_o = (1..=n).all(|x| !a[x] || o[x]);
            let o_in_a = (1..=n).all(|x| !o[x] || a[x]);
            if both && !a_in_o && !o_in_a {
                return Err(format!("blossoms {b} and {c} cross: not laminar"));
            }
        }
    }

    // Reduced costs on every pair; matched pairs tight.
    let slack = |u: usize, v: usize| {
        let mut s = sc.lab[u] + sc.lab[v] - pair(u, v);
        for (set, &b) in sets.iter().zip(&live) {
            if set[u] && set[v] {
                s += sc.lab[b];
            }
        }
        s
    };
    let pivot = pivot.unwrap_or_else(|| slack(1, sc.mate[1]));
    for u in 1..=n {
        for v in (u + 1)..=n {
            let reduced = slack(u, v) - pivot;
            if reduced < 0 {
                return Err(format!("pair ({u}, {v}) has reduced cost {reduced} < 0"));
            }
            if sc.mate[u] == v && reduced != 0 {
                return Err(format!("matched pair ({u}, {v}) has slack {reduced}"));
            }
        }
    }

    // Complementary slackness on the odd-set constraints.
    for (set, &b) in sets.iter().zip(&live) {
        if sc.lab[b] > 0 {
            let crossing = (1..=n).filter(|&u| set[u] && !set[sc.mate[u]]).count();
            if crossing != 1 {
                return Err(format!(
                    "blossom {b} has dual {} but {crossing} crossing matched edges",
                    sc.lab[b]
                ));
            }
        }
    }
    Ok(())
}
