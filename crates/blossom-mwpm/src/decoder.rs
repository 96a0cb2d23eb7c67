//! The idealized software MWPM decoder (the paper's baseline).
//!
//! Every entry point runs one staged engine over one read path: per pair
//! and per detector the exact weight from whichever backend holds it,
//! mapped into the active domain at one point (`MwpmDecoder::active`:
//! itself, or its 8-bit [`quantize`] view). The closed form (k ≤ 4) and
//! the subset DP (k ≤ [`DP_NODE_LIMIT`]) gather it; one whole-shot
//! [`sparse_blossom`] solve, priced and repaired on a graph-pd block,
//! reads it in place. One fold reports the matching: the observable mask
//! or the whole [`MatchingSolution`] ([`MwpmDecoder::decode_full`]).

use crate::ondemand::DeepBackend;
use crate::solution::MatchingSolution;
use crate::{sparse_blossom, subset_dp};
use decoding_graph::{
    quantize, BoundaryTable, DecodeScratch, Decoder, DecodingContext, GlobalWeightTable,
    LocalWeightProvider, LocalWeightStats, MatchingGraph, Prediction, WeightSource,
};
use std::cell::RefCell;

/// Above this many active detectors in one shot the decoder switches
/// from the subset DP to one whole-shot blossom solve: the DP's time and
/// memory are `O(2^k)`. Measured on real d = 7, p = 5×10⁻³ matching
/// clusters (`deep_tail` bench, `dp_blossom_crossover`), the DP is ahead
/// up to 11 detectors and the greedy-started `O(k³)` blossom solver from
/// 12 on.
pub const DP_NODE_LIMIT: usize = 11;

/// Fixed-point sub-units per weight unit when converting `f64` weights to
/// the blossom solver's `i64` domain.
pub(crate) const BLOSSOM_SCALE: f64 = 65_536.0;

/// Weights above this (in `−log₁₀ P` units) are clamped before integer
/// conversion; far beyond any realistic matching weight.
pub(crate) const WEIGHT_CLAMP: f64 = 1e4;

/// Index of pair `(i, j)` (`i < j < k`) in the triangular pair order
/// `(0,1), (0,2), …` that [`gather_small`] writes.
#[inline]
fn tri_index(k: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < k);
    i * k - i * (i + 1) / 2 + (j - i - 1)
}

/// Where the solve reports its matching: `u32` keeps only the observable
/// mask (the production path), [`MatchingSolution`] keeps the pairs,
/// boundary list and total weight as well. Callers report pairs and
/// boundary matches in mate order and the cost once, so both sinks see
/// the same sequence.
trait MatchFold {
    fn pair(&mut self, a: u32, b: u32, obs: u32);
    fn boundary(&mut self, a: u32, obs: u32);
    fn cost(&mut self, weight: f64);
}

impl MatchFold for u32 {
    fn pair(&mut self, _: u32, _: u32, obs: u32) {
        *self ^= obs;
    }
    fn boundary(&mut self, _: u32, obs: u32) {
        *self ^= obs;
    }
    fn cost(&mut self, _: f64) {}
}

impl MatchFold for MatchingSolution {
    fn pair(&mut self, a: u32, b: u32, obs: u32) {
        self.pairs.push((a, b));
        self.observables ^= obs;
    }
    fn boundary(&mut self, a: u32, obs: u32) {
        self.to_boundary.push(a);
        self.observables ^= obs;
    }
    fn cost(&mut self, weight: f64) {
        self.weight += weight;
    }
}

/// The weight backend: the precomputed Global Weight Table, or the
/// GWT-free staged local provider (truncated per-source Dijkstra over the
/// sparse graph, staged once per shot). The provider sits behind a
/// `RefCell` so the read-only decode paths keep their `&self` signatures;
/// the decoder is per-worker (`Send`, not `Sync`), so the single-threaded
/// interior mutability is free of contention by construction.
// One `Weights` lives per decoder (never in a collection), so the size
// spread between the borrowed-table variant and the inline provider
// scratch costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Weights<'a> {
    Gwt(&'a GlobalWeightTable),
    Local {
        provider: RefCell<LocalWeightProvider<'a>>,
        boundary: &'a BoundaryTable,
    },
}

/// The idealized software MWPM decoder.
///
/// Decodes with the **unquantized** weights of the
/// [`GlobalWeightTable`], exactly as the paper's "idealized MWPM"
/// baseline: every pair weight is the true shortest-path `−log₁₀ P`.
/// Syndromes of up to four detectors are solved by a closed form, up to
/// [`DP_NODE_LIMIT`] by the exact subset DP, and deeper ones by one
/// sparse blossom solve over the whole shot after the boundary reduction
/// `w'ᵢⱼ = min(wᵢⱼ, bᵢ + bⱼ)` (+ one virtual node for odd weights).
/// `decode`, `decode_with_scratch`, [`MwpmDecoder::decode_full`] and the
/// tile pipeline all run this one engine.
///
/// The weights can come from two backends: the GWT itself, or — via
/// [`MwpmDecoder::for_context`] on a GWT-free
/// [`DecodingContext`] — a [`LocalWeightProvider`] that computes each
/// shot's pair weights on demand from the sparse matching graph; the
/// local one is what makes d ≥ 15 reachable, since it never
/// materializes the O(ℓ²) table. Through the DP band (`k ≤
/// DP_NODE_LIMIT`) the two backends produce bit-identical predictions
/// and matchings. Deep shots are staged by the selected [`DeepBackend`]:
/// the default graph-pd engine stages a few neighbours per detector and
/// prices and repairs its solve until the duals certify it optimal under
/// the exact weights — its matching weighs the staged oracle's optimum,
/// possibly breaking ties differently — while pinning
/// [`DeepBackend::Ondemand`] keeps the bit-identity all the way (both
/// enforced by the `local_vs_gwt` differential suite).
///
/// ```
/// use blossom_mwpm::MwpmDecoder;
/// use decoding_graph::{Decoder, DecodingContext};
/// use qec_circuit::NoiseModel;
/// use surface_code::SurfaceCode;
///
/// let code = SurfaceCode::new(3)?;
/// let ctx = DecodingContext::for_memory_experiment(&code, NoiseModel::depolarizing(1e-3));
/// let mut decoder = MwpmDecoder::for_context(&ctx);
/// let prediction = decoder.decode(&[]);
/// assert_eq!(prediction.observables, 0);
/// # Ok::<(), surface_code::InvalidDistance>(())
/// ```
///
/// The quantized siblings ([`MwpmDecoder::with_quantized_weights`] and
/// the others) read the same exact weights and map each to its 8-bit
/// [`quantize`] view, so both backends see the view the table stores.
#[derive(Debug, Clone)]
pub struct MwpmDecoder<'a> {
    weights: Weights<'a>,
    use_quantized: bool,
    /// Staging engine for deep shots on the local backend (see
    /// [`DeepBackend`]); unread on the GWT backend.
    deep_backend: DeepBackend,
}

impl<'a> MwpmDecoder<'a> {
    /// Creates the idealized (full-precision) MWPM decoder on the GWT.
    pub fn new(gwt: &'a GlobalWeightTable) -> MwpmDecoder<'a> {
        MwpmDecoder {
            weights: Weights::Gwt(gwt),
            use_quantized: false,
            deep_backend: DeepBackend::default(),
        }
    }

    /// Creates an MWPM decoder that reads the 8-bit quantized weights
    /// instead — useful for isolating the accuracy cost of quantization.
    pub fn with_quantized_weights(gwt: &'a GlobalWeightTable) -> MwpmDecoder<'a> {
        MwpmDecoder {
            use_quantized: true,
            ..MwpmDecoder::new(gwt)
        }
    }

    /// Creates the GWT-free decoder: pair weights are staged per shot by
    /// a [`LocalWeightProvider`] over the sparse matching graph.
    pub fn new_local(graph: &'a MatchingGraph, boundary: &'a BoundaryTable) -> MwpmDecoder<'a> {
        MwpmDecoder {
            weights: Weights::Local {
                provider: RefCell::new(LocalWeightProvider::new(graph, boundary)),
                boundary,
            },
            use_quantized: false,
            deep_backend: DeepBackend::default(),
        }
    }

    /// The GWT-free sibling of [`Self::with_quantized_weights`].
    pub fn with_quantized_weights_local(
        graph: &'a MatchingGraph,
        boundary: &'a BoundaryTable,
    ) -> MwpmDecoder<'a> {
        MwpmDecoder {
            use_quantized: true,
            ..MwpmDecoder::new_local(graph, boundary)
        }
    }

    /// Creates the decoder matching a context's resolved weight backend:
    /// table-backed when the context materialized a GWT, local otherwise.
    pub fn for_context(ctx: &'a DecodingContext) -> MwpmDecoder<'a> {
        match ctx.weight_source() {
            WeightSource::Local => MwpmDecoder::new_local(ctx.graph(), ctx.boundary()),
            _ => MwpmDecoder::new(ctx.gwt()),
        }
    }

    /// The quantized-weights sibling of [`Self::for_context`].
    pub fn for_context_quantized(ctx: &'a DecodingContext) -> MwpmDecoder<'a> {
        match ctx.weight_source() {
            WeightSource::Local => {
                MwpmDecoder::with_quantized_weights_local(ctx.graph(), ctx.boundary())
            }
            _ => MwpmDecoder::with_quantized_weights(ctx.gwt()),
        }
    }

    /// Selects the staging engine for deep shots (`k > DP_NODE_LIMIT`)
    /// on the local backend; a no-op setting on the GWT backend, which
    /// never stages. Builder-style so construction reads
    /// `MwpmDecoder::for_context(&ctx).with_deep_backend(DeepBackend::Staged)`
    /// — which is exactly how the differential suites pin the oracle.
    pub fn with_deep_backend(mut self, backend: DeepBackend) -> MwpmDecoder<'a> {
        self.deep_backend = backend;
        self
    }

    /// The active deep-tail staging engine.
    pub fn deep_backend(&self) -> DeepBackend {
        self.deep_backend
    }

    /// Work counters of the local weight provider; `None` on the GWT
    /// backend. Lets benches and smoke tests assert the local path is
    /// actually engaged.
    pub fn local_stats(&self) -> Option<LocalWeightStats> {
        match &self.weights {
            Weights::Gwt(_) => None,
            Weights::Local { provider, .. } => Some(provider.borrow().stats()),
        }
    }

    /// Decodes a syndrome and returns the full matching (pairs, boundary
    /// assignments, weight, and predicted observable flips). Runs the
    /// same engine as `decode_with_scratch`, on a fresh arena.
    pub fn decode_full(&self, detectors: &[u32]) -> MatchingSolution {
        let mut solution = MatchingSolution::default();
        self.solve(detectors, &mut DecodeScratch::new(), &mut solution);
        solution
    }

    /// The fixed-point scale of the quantized weight view.
    #[inline]
    fn scale(&self) -> f64 {
        match &self.weights {
            Weights::Gwt(gwt) => gwt.scale(),
            Weights::Local { boundary, .. } => boundary.scale(),
        }
    }

    /// Pair weight in the active domain (staged-local or table);
    /// `INFINITY` on the local backend means "provably dominated by
    /// boundary matching", `NaN` "left unsearched by a graph-pd block".
    #[inline]
    fn pair_w(&self, i: u32, j: u32) -> f64 {
        self.active(match &self.weights {
            Weights::Gwt(gwt) => gwt.pair_weight(i, j),
            Weights::Local { provider, .. } => provider.borrow().pair_weight(i, j),
        })
    }

    /// Boundary weight in the active domain.
    #[inline]
    fn boundary_w(&self, i: u32) -> f64 {
        self.active(match &self.weights {
            Weights::Gwt(gwt) => gwt.boundary_weight(i),
            Weights::Local { boundary, .. } => boundary.weight(i),
        })
    }

    /// Observable parity of the pair's shortest path (only read for
    /// mated pairs, which are always settled on the local backend).
    #[inline]
    fn p_obs(&self, i: u32, j: u32) -> u32 {
        match &self.weights {
            Weights::Gwt(gwt) => gwt.pair_obs(i, j),
            Weights::Local { provider, .. } => provider.borrow().pair_obs(i, j),
        }
    }

    /// Observable parity of the cheapest boundary chain.
    #[inline]
    fn b_obs(&self, i: u32) -> u32 {
        match &self.weights {
            Weights::Gwt(gwt) => gwt.boundary_obs(i),
            Weights::Local { boundary, .. } => boundary.obs(i),
        }
    }

    /// Stages the shot's weights on the local backend: the deep engine
    /// for `k > DP_NODE_LIMIT`, the full sweep below it; the table holds
    /// every pair already. Returns whether the graph-pd engine staged,
    /// so the deep solve prices and repairs its block.
    fn stage_shot(&self, detectors: &[u32], scratch: &mut DecodeScratch) -> bool {
        let Weights::Local { provider, .. } = &self.weights else {
            return false;
        };
        let mut provider = provider.borrow_mut();
        let deep = detectors.len() > DP_NODE_LIMIT;
        match self.deep_backend {
            DeepBackend::Ondemand if deep => {
                provider.stage_ondemand(detectors, &mut scratch.ondemand)
            }
            DeepBackend::GraphPd if deep => {
                provider.stage_graph_pd(detectors, &mut scratch.graphpd);
                return true;
            }
            _ => provider.stage(detectors),
        }
        false
    }

    /// Gathers the subset DP's k×k weight block of `dets` (pairs clamped
    /// to `2 · WEIGHT_CLAMP`, diagonal zero) and the boundary vector into
    /// the arena, in the active weight domain. The backend is matched
    /// once, so each backend runs one monomorphic [`gather_block`].
    fn stage_block(&self, dets: &[u32], scratch: &mut DecodeScratch) {
        let (w, b) = (&mut scratch.weights, &mut scratch.boundary);
        let pair = |raw: f64| self.active(raw).min(2.0 * WEIGHT_CLAMP);
        let boundary = |raw: f64| self.active(raw);
        match &self.weights {
            Weights::Gwt(gwt) => gather_block(
                dets,
                |i, j| pair(gwt.pair_weight(i, j)),
                |i| boundary(gwt.boundary_weight(i)),
                w,
                b,
            ),
            Weights::Local {
                provider,
                boundary: bt,
            } => {
                let provider = provider.borrow();
                gather_block(
                    dets,
                    |i, j| pair(provider.pair_weight(i, j)),
                    |i| boundary(bt.weight(i)),
                    w,
                    b,
                )
            }
        }
    }

    /// The closed form's operands for `k ≤ 4` detectors: every exact pair
    /// and boundary weight read once from the backend, through `pair` and
    /// `boundary` into the operand domain `T`. The backend is matched
    /// once, so each backend runs one monomorphic [`gather_small`].
    #[inline(always)]
    fn small_operands<T: Copy + Default>(
        &self,
        dets: &[u32],
        pair: impl Fn(f64) -> T,
        boundary: impl Fn(f64) -> T,
    ) -> ([T; 6], [T; 4]) {
        match &self.weights {
            Weights::Gwt(gwt) => gather_small(
                dets,
                |i, j| pair(gwt.pair_weight(i, j)),
                |i| boundary(gwt.boundary_weight(i)),
            ),
            Weights::Local {
                provider,
                boundary: bt,
            } => {
                let provider = provider.borrow();
                gather_small(
                    dets,
                    |i, j| pair(provider.pair_weight(i, j)),
                    |i| boundary(bt.weight(i)),
                )
            }
        }
    }

    /// [`Self::small_operands`] of the exact decoder: pairs clamped to
    /// `2 · WEIGHT_CLAMP` as the staged block clamps them, boundary
    /// weights raw.
    #[inline(always)]
    fn exact_small_operands(&self, dets: &[u32]) -> ([f64; 6], [f64; 4]) {
        self.small_operands(dets, |w| w.min(2.0 * WEIGHT_CLAMP), |w| w)
    }

    /// The one solve behind every entry point: stage, then closed form,
    /// subset DP or the whole-shot deep solve, folding the matching into
    /// `out`.
    fn solve<F: MatchFold>(&self, detectors: &[u32], scratch: &mut DecodeScratch, out: &mut F) {
        let k = detectors.len();
        if k == 0 {
            return;
        }
        let graphpd = self.stage_shot(detectors, scratch);
        match k {
            1..=4 => self.closed_form(detectors, out),
            // The subset DP prunes and decomposes into clusters
            // internally.
            _ if k <= DP_NODE_LIMIT => self.dp(detectors, scratch, out),
            _ => self.solve_deep(detectors, scratch, graphpd, out),
        }
    }

    /// Backend-direct closed form for `1 ≤ k ≤ 4`: one triangular gather,
    /// then the register-only closed form — no weight-matrix staging. The
    /// quantized decoder stays in the integer domain until the reported
    /// cost: its operands are `quantize(w, scale)`, the active weights
    /// times the scale, and integer sums are exact in f64, so that cost is
    /// the active-domain optimum.
    fn closed_form<F: MatchFold>(&self, dets: &[u32], out: &mut F) {
        let k = dets.len();
        let (cost, mate) = if self.use_quantized {
            let scale = self.scale();
            let q = |w: f64| quantize(w, scale) as u16;
            let (w, b) = self.small_operands(dets, q, q);
            let (cost, mate) =
                subset_dp::solve_closed_form(k, |i, j| w[tri_index(k, i, j)], |i| b[i]);
            (cost as f64 / scale, mate)
        } else {
            let (w, b) = self.exact_small_operands(dets);
            subset_dp::solve_closed_form(k, |i, j| w[tri_index(k, i, j)], |i| b[i])
        };
        self.fold_mate(dets, &mate[..k], out);
        out.cost(cost);
    }

    /// Staged block plus the memoized subset DP for `k ≤ DP_NODE_LIMIT`.
    fn dp<F: MatchFold>(&self, dets: &[u32], scratch: &mut DecodeScratch, out: &mut F) {
        let k = dets.len();
        self.stage_block(dets, scratch);
        let cost = subset_dp::solve_staged(k, scratch);
        self.fold_mate(dets, &scratch.mate[..k], out);
        out.cost(cost);
    }

    /// Folds a mate assignment over local indices (`usize::MAX` =
    /// boundary) into `out`, pairs reported from their lower index.
    /// Always inlined, so the closed-form callers' `k ≤ 4` bound reaches
    /// the loop and it unrolls.
    #[inline(always)]
    fn fold_mate<F: MatchFold>(&self, dets: &[u32], mate: &[usize], out: &mut F) {
        let dets = &dets[..mate.len()];
        for (i, &m) in mate.iter().enumerate() {
            if m == usize::MAX {
                out.boundary(dets[i], self.b_obs(dets[i]));
            } else if m > i {
                out.pair(dets[i], dets[m], self.p_obs(dets[i], dets[m]));
            }
        }
    }

    /// The reduced weight the deep solve stages for a pair whose direct
    /// weight (active domain, possibly `INFINITY` or `NaN`) is `direct`:
    /// `min(direct, bᵢ + bⱼ, WEIGHT_CLAMP)`. `f64::min` drops a `NaN`, so
    /// an unsearched pair enters at its via-boundary weight.
    #[inline]
    fn reduce(direct: f64, bi: f64, bj: f64) -> f64 {
        direct.min(bi + bj).min(WEIGHT_CLAMP)
    }

    /// A reduced weight in the blossom solver's fixed point.
    #[inline]
    fn fixed(w: f64) -> i64 {
        (w * BLOSSOM_SCALE).round() as i64 + 1
    }

    /// A raw exact weight seen in the active domain: itself, or its
    /// quantized view dequantized (the table's `u8` cell over the scale,
    /// bit for bit). The decoder's one domain map; only the quantized
    /// closed form skips it, to sum `quantize(w, scale)` in integers.
    /// Monotone, so bounds stay bounds.
    #[inline]
    fn active(&self, w: f64) -> f64 {
        if self.use_quantized {
            quantize(w, self.scale()) as f64 / self.scale()
        } else {
            w
        }
    }

    /// Deep syndromes (`k > DP_NODE_LIMIT`): one whole-shot
    /// [`sparse_blossom`] solve, after the boundary reduction
    /// `min(wᵢⱼ, bᵢ + bⱼ)` and one virtual boundary node for odd `k`.
    /// Only the boundary vector goes to the arena; the solver reads each
    /// pair once, row by row in ascending order, in place from the table
    /// or the provider's staged block, so the deep tail keeps no k×k copy
    /// of the weights per worker. There is no cluster split, so
    /// [`DP_NODE_LIMIT`] is a per-shot limit. On a graph-pd block the
    /// solve is priced and repaired until no unsearched pair violates
    /// the final duals (see the `decoding_graph::graph_pd` module docs),
    /// which certifies the matching optimal under the exact weights; the
    /// table and the other engines hold no unsearched pair and stop after
    /// one solve. No allocation on the steady-state path.
    fn solve_deep<F: MatchFold>(
        &self,
        dets: &[u32],
        scratch: &mut DecodeScratch,
        graphpd: bool,
        out: &mut F,
    ) {
        let k = dets.len();
        let n = k + k % 2; // virtual boundary node last
        scratch.boundary.clear();
        scratch
            .boundary
            .extend(dets.iter().map(|&d| self.boundary_w(d)));
        loop {
            let boundary = &scratch.boundary;
            sparse_blossom::min_weight_perfect_matching_scratch(
                n,
                |i, j| {
                    Self::fixed(if i >= k || j >= k {
                        boundary[i.min(j)].min(WEIGHT_CLAMP)
                    } else {
                        Self::reduce(self.pair_w(dets[i], dets[j]), boundary[i], boundary[j])
                    })
                },
                &mut scratch.sparse,
            );
            if !graphpd {
                break;
            }
            scratch.graphpd.stats.blossoms += 1;
            if self.repair(scratch) == 0 {
                break;
            }
        }
        self.fold_blossom(dets, scratch, out);
    }

    /// One pricing pass over the solve in `scratch.sparse`: flags every
    /// unsearched pair whose true weight could make the final duals
    /// infeasible, and has the provider resolve the flagged pairs
    /// exactly. Returns how many it flagged.
    ///
    /// A pair of slots `i < j` was solved at `U`, its via-boundary
    /// weight, and truly weighs at least `L`, its lower bound reduced
    /// and converted exactly as the solve staged `U`. In the reflected
    /// arena its true weight is at most `w'_used + 2·(U − L)`, so it
    /// violates iff `lab[u] + lab[v] < 2·(w'_used + 2·(U − L))`. Blossom
    /// duals are non-negative; leaving them out makes the test stricter.
    fn repair(&self, scratch: &mut DecodeScratch) -> usize {
        let Weights::Local { provider, .. } = &self.weights else {
            return 0;
        };
        let (sc, boundary) = (&scratch.sparse, &scratch.boundary);
        let wn = boundary.len() + boundary.len() % 2 + 1;
        let unsearched = self.active(f64::NAN);
        provider
            .borrow_mut()
            .repair_graph_pd(&mut scratch.graphpd, |i, j, lb| {
                let (bi, bj) = (boundary[i], boundary[j]);
                let u_fx = Self::fixed(Self::reduce(unsearched, bi, bj));
                let l_fx = Self::fixed(Self::reduce(self.active(lb), bi, bj));
                let (u, v) = (i + 1, j + 1);
                l_fx < u_fx
                    && sc.lab[u] + sc.lab[v] < 2 * (sc.weights[u * wn + v] + 2 * (u_fx - l_fx))
            })
    }

    /// Folds the mate of the last deep solve into `out`. It reads the
    /// unclamped backend: its `direct <= via_boundary` tie-break must see
    /// the raw pair weight, and it only touches `k/2` pairs. The cost
    /// sums the chosen edges in mate order.
    fn fold_blossom<F: MatchFold>(&self, dets: &[u32], scratch: &DecodeScratch, out: &mut F) {
        let k = dets.len();
        let mut cost = 0.0;
        for i in 0..k {
            let j = scratch.sparse.mate[i + 1] - 1;
            if j >= k {
                out.boundary(dets[i], self.b_obs(dets[i]));
                cost += self.boundary_w(dets[i]);
            } else if j > i {
                let direct = self.pair_w(dets[i], dets[j]);
                let via_boundary = self.boundary_w(dets[i]) + self.boundary_w(dets[j]);
                if direct <= via_boundary {
                    out.pair(dets[i], dets[j], self.p_obs(dets[i], dets[j]));
                    cost += direct;
                } else {
                    out.boundary(dets[i], self.b_obs(dets[i]));
                    out.boundary(dets[j], self.b_obs(dets[j]));
                    cost += via_boundary;
                }
            }
        }
        out.cost(cost);
    }
}

/// The closed form's operands for a `k ≤ 4` detector list: the pair
/// weights in the triangular order `(0,1), (0,2), (0,3), (1,2), (1,3),
/// (2,3)` and the boundary weights, each read once through the
/// accessors, row by row in ascending order.
#[inline(always)]
fn gather_small<T: Copy + Default>(
    dets: &[u32],
    pair: impl Fn(u32, u32) -> T,
    boundary: impl Fn(u32) -> T,
) -> ([T; 6], [T; 4]) {
    debug_assert!(dets.len() <= 4);
    let mut pairs = [T::default(); 6];
    let mut bounds = [T::default(); 4];
    let mut p = 0;
    for (i, &di) in dets.iter().enumerate() {
        bounds[i] = boundary(di);
        for &dj in &dets[i + 1..] {
            pairs[p] = pair(di, dj);
            p += 1;
        }
    }
    (pairs, bounds)
}

/// The subset DP's operands for a detector list: the row-major k×k pair
/// block (diagonal zero) into `weights` and the boundary vector into
/// `bounds`, each cell read once through the accessors, row by row.
fn gather_block(
    dets: &[u32],
    pair: impl Fn(u32, u32) -> f64,
    boundary: impl Fn(u32) -> f64,
    weights: &mut Vec<f64>,
    bounds: &mut Vec<f64>,
) {
    let k = dets.len();
    weights.clear();
    weights.resize(k * k, 0.0);
    bounds.clear();
    bounds.extend(dets.iter().map(|&d| boundary(d)));
    for (i, &di) in dets.iter().enumerate() {
        let row = &mut weights[i * k..][..k];
        for (j, &dj) in dets.iter().enumerate() {
            if j != i {
                row[j] = pair(di, dj);
            }
        }
    }
}

impl Decoder for MwpmDecoder<'_> {
    fn decode(&mut self, detectors: &[u32]) -> Prediction {
        self.decode_with_scratch(detectors, &mut DecodeScratch::new())
    }

    fn decode_with_scratch(
        &mut self,
        detectors: &[u32],
        scratch: &mut DecodeScratch,
    ) -> Prediction {
        let mut observables = 0u32;
        self.solve(detectors, scratch, &mut observables);
        Prediction {
            observables,
            cycles: 0,
            deferred: false,
        }
    }

    /// Batched closed forms on the exact table: gather every shot's
    /// triangular operands into the arena first, then run the
    /// register-only closed form over them. This two-pass shape measured
    /// faster than per-shot decoding on the benchmark's traced
    /// closed-form tier (`decoder.closed_form.ns_per_shot`,
    /// `ler-d7-low`). Every other case — the quantized view, the staged
    /// local backend, `k > 4` — decodes per shot, exactly like the
    /// trait's default. The operands come from the per-shot closed
    /// form's own gather, so every prediction is bit-identical to
    /// `decode_with_scratch` on the same list.
    fn decode_same_weight_batch(
        &mut self,
        k: usize,
        detectors: &[u32],
        out: &mut [Prediction],
        scratch: &mut DecodeScratch,
    ) {
        assert_eq!(
            detectors.len(),
            k * out.len(),
            "batch detector buffer does not hold out.len() lists of {k}"
        );
        let table = matches!(self.weights, Weights::Gwt(_));
        if !(table && (1..=4).contains(&k) && !self.use_quantized) {
            for (s, slot) in out.iter_mut().enumerate() {
                *slot = self.decode_with_scratch(&detectors[s * k..][..k], scratch);
            }
            return;
        }
        scratch.weights.clear();
        scratch.boundary.clear();
        for list in detectors.chunks_exact(k) {
            let (w, b) = self.exact_small_operands(list);
            scratch.weights.extend_from_slice(&w);
            scratch.boundary.extend_from_slice(&b);
        }
        for (s, (list, slot)) in detectors.chunks_exact(k).zip(out.iter_mut()).enumerate() {
            let w = &scratch.weights[s * 6..][..6];
            let b = &scratch.boundary[s * 4..][..4];
            let (_, mate) = subset_dp::solve_closed_form(k, |i, j| w[tri_index(k, i, j)], |i| b[i]);
            let mut observables = 0u32;
            self.fold_mate(list, &mate[..k], &mut observables);
            *slot = Prediction {
                observables,
                cycles: 0,
                deferred: false,
            };
        }
    }

    fn name(&self) -> &'static str {
        "MWPM"
    }

    fn local_weight_stats(&self) -> Option<LocalWeightStats> {
        self.local_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoding_graph::DecodingContext;
    use qec_circuit::NoiseModel;
    use surface_code::SurfaceCode;

    fn ctx(d: usize, p: f64) -> DecodingContext {
        let code = SurfaceCode::new(d).unwrap();
        DecodingContext::for_memory_experiment(&code, NoiseModel::depolarizing(p))
    }

    fn local_ctx(d: usize, p: f64) -> DecodingContext {
        let code = SurfaceCode::new(d).unwrap();
        DecodingContext::for_memory_experiment_with(
            &code,
            NoiseModel::depolarizing(p),
            WeightSource::Local,
        )
    }

    #[test]
    fn empty_syndrome_is_identity() {
        let ctx = ctx(3, 1e-3);
        let mut dec = MwpmDecoder::new(ctx.gwt());
        assert_eq!(dec.decode(&[]), Prediction::identity());
    }

    #[test]
    fn two_adjacent_detectors_pair_up() {
        // Pick the cheapest pair in the table; MWPM must match them
        // together rather than to the boundary (their pair weight is a
        // single error, boundary paths are longer).
        let ctx = ctx(5, 1e-3);
        let gwt = ctx.gwt();
        let n = gwt.len() as u32;
        let (mut bi, mut bj, mut bw) = (0, 0, f64::INFINITY);
        for i in 0..n {
            for j in (i + 1)..n {
                if gwt.pair_weight(i, j) < bw
                    && gwt.pair_weight(i, j) < gwt.boundary_weight(i) + gwt.boundary_weight(j)
                {
                    (bi, bj, bw) = (i, j, gwt.pair_weight(i, j));
                }
            }
        }
        let dec = MwpmDecoder::new(gwt);
        let sol = dec.decode_full(&[bi, bj]);
        assert_eq!(sol.pairs, vec![(bi, bj)]);
        assert!(sol.to_boundary.is_empty());
        assert!((sol.weight - bw).abs() < 1e-9);
    }

    /// Optimal matching weight from the dense blossom over the whole
    /// syndrome (no cluster split), under the decoder's boundary
    /// reduction and weight view, reading every weight per entry.
    /// GWT-backed decoders only: the local backend would need the
    /// syndrome staged first.
    fn dense_oracle(dec: &MwpmDecoder<'_>, dets: &[u32]) -> f64 {
        let k = dets.len();
        let n = if k.is_multiple_of(2) { k } else { k + 1 };
        // Unclamped reduced edge weight; index `k` is the virtual
        // boundary node.
        let reduced = |i: usize, j: usize| -> f64 {
            if i >= k || j >= k {
                dec.boundary_w(dets[i.min(j)])
            } else {
                let via_boundary = dec.boundary_w(dets[i]) + dec.boundary_w(dets[j]);
                dec.pair_w(dets[i], dets[j]).min(via_boundary)
            }
        };
        let (mate, _) = mwpm_oracle::dense_blossom::min_weight_perfect_matching(n, |i, j| {
            (reduced(i, j).min(WEIGHT_CLAMP) * BLOSSOM_SCALE).round() as i64 + 1
        });
        (0..k)
            .filter(|&i| mate[i] > i)
            .map(|i| reduced(i, mate[i]))
            .sum()
    }

    #[test]
    fn dp_and_blossom_agree_on_real_syndromes() {
        use qec_circuit::DemSampler;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // The engine against two independent oracles: the dense blossom
        // over the whole syndrome and the monolithic subset DP, both fed
        // per-entry weights. At p = 10⁻² multi-defect syndromes are the
        // norm; the DP optimum must be reproduced exactly.
        for (p, seed) in [(5e-3, 99), (1e-2, 31)] {
            let ctx = ctx(5, p);
            let dec = MwpmDecoder::new(ctx.gwt());
            let mut sampler = DemSampler::new(ctx.dem());
            let mut rng = StdRng::seed_from_u64(seed);
            let mut compared = 0;
            for _ in 0..400 {
                let shot = sampler.sample(&mut rng);
                let dets = &shot.detectors;
                let k = dets.len();
                if k == 0 || k > DP_NODE_LIMIT {
                    continue;
                }
                let sol = dec.decode_full(dets);
                let bl = dense_oracle(&dec, dets);
                let (_, dp) = subset_dp::solve(
                    k,
                    |i, j| dec.pair_w(dets[i], dets[j]).min(2.0 * WEIGHT_CLAMP),
                    |i| dec.boundary_w(dets[i]),
                );
                for (name, want, tol) in [("dp", dp, 1e-9), ("blossom", bl, 1e-3)] {
                    assert!(
                        (sol.weight - want).abs() < tol,
                        "weights differ: engine {} vs {name} {want} on {dets:?}",
                        sol.weight
                    );
                }
                assert!(sol.is_perfect_over(dets));
                compared += 1;
            }
            assert!(compared > 50, "only {compared} nonzero syndromes sampled");
        }
    }

    #[test]
    fn odd_syndromes_use_the_boundary() {
        let ctx = ctx(3, 1e-3);
        let dec = MwpmDecoder::new(ctx.gwt());
        let sol = dec.decode_full(&[0]);
        assert_eq!(sol.to_boundary, vec![0]);
        assert!(sol.pairs.is_empty());
        // Odd coverage requires at least one boundary match.
        let sol3 = dec.decode_full(&[0, 1, 2]);
        assert!(sol3.to_boundary.len() % 2 == 1);
        assert!(sol3.is_perfect_over(&[0, 1, 2]));
    }

    #[test]
    fn quantized_variant_stays_close_to_exact() {
        let ctx = ctx(3, 1e-3);
        let exact = MwpmDecoder::new(ctx.gwt());
        let quant = MwpmDecoder::with_quantized_weights(ctx.gwt());
        let sol_e = exact.decode_full(&[0, 5, 9, 12]);
        let sol_q = quant.decode_full(&[0, 5, 9, 12]);
        assert!((sol_e.weight - sol_q.weight).abs() < 1.0);
    }

    #[test]
    fn scratch_path_matches_allocating_path() {
        use qec_circuit::DemSampler;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let ctx = ctx(5, 5e-3);
        let mut dec = MwpmDecoder::new(ctx.gwt());
        let mut sampler = DemSampler::new(ctx.dem());
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = DecodeScratch::new();
        for _ in 0..300 {
            let shot = sampler.sample(&mut rng);
            let plain = dec.decode(&shot.detectors);
            let fast = dec.decode_with_scratch(&shot.detectors, &mut scratch);
            assert_eq!(plain, fast, "diverged on {:?}", shot.detectors);
        }
    }

    #[test]
    fn deep_scratch_path_matches_allocating_path() {
        use qec_circuit::DemSampler;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // Error rate high enough that k > DP_NODE_LIMIT syndromes are
        // the norm, so the sparse cluster path (not the staged DP) is
        // what's being checked: one scratch arena reused across every
        // shot must predict what a fresh arena does, and the matching
        // weight must equal the dense-blossom oracle's.
        for quantized in [false, true] {
            let ctx = ctx(7, 2e-2);
            let mut dec = if quantized {
                MwpmDecoder::with_quantized_weights(ctx.gwt())
            } else {
                MwpmDecoder::new(ctx.gwt())
            };
            let mut sampler = DemSampler::new(ctx.dem());
            let mut rng = StdRng::seed_from_u64(41);
            let mut scratch = DecodeScratch::new();
            let mut deep = 0;
            for _ in 0..150 {
                let shot = sampler.sample(&mut rng);
                deep += (shot.detectors.len() > DP_NODE_LIMIT) as u32;
                let plain = dec.decode(&shot.detectors);
                let fast = dec.decode_with_scratch(&shot.detectors, &mut scratch);
                assert_eq!(plain, fast, "diverged on {:?}", shot.detectors);
                let full = dec.decode_full(&shot.detectors);
                let want = dense_oracle(&dec, &shot.detectors);
                assert!(
                    (full.weight - want).abs() <= 1e-6 * want.abs().max(1.0),
                    "engine {} vs dense oracle {want} on {:?}",
                    full.weight,
                    shot.detectors
                );
                assert_eq!(full.observables, fast.observables);
            }
            assert!(deep > 100, "only {deep} deep syndromes sampled");
            assert!(
                scratch.sparse.solves > 0,
                "sparse solver never engaged on the deep path"
            );
        }
    }

    #[test]
    fn table_deep_solve_reads_weights_in_place() {
        use qec_circuit::DemSampler;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // The deep solve reads the table in place, as it reads the
        // provider's staged block: a deep shot decoded on a fresh arena
        // leaves the DP band's k×k block unallocated and still reaches
        // the dense blossom's optimum, in both weight domains.
        let ctx = ctx(7, 2e-2);
        let mut sampler = DemSampler::new(ctx.dem());
        let mut rng = StdRng::seed_from_u64(12);
        let dets = std::iter::repeat_with(|| sampler.sample(&mut rng).detectors.clone())
            .find(|d| d.len() > DP_NODE_LIMIT)
            .unwrap();
        for quantized in [false, true] {
            let mut dec = if quantized {
                MwpmDecoder::with_quantized_weights(ctx.gwt())
            } else {
                MwpmDecoder::new(ctx.gwt())
            };
            let mut scratch = DecodeScratch::new();
            dec.decode_with_scratch(&dets, &mut scratch);
            assert_eq!(scratch.sparse.solves, 1);
            assert!(
                scratch.weights.is_empty(),
                "the deep solve copied {} weights",
                scratch.weights.len()
            );
            assert_eq!(scratch.boundary.len(), dets.len());
            let full = dec.decode_full(&dets);
            let want = dense_oracle(&dec, &dets);
            assert!(
                (full.weight - want).abs() <= 1e-6 * want.abs().max(1.0),
                "engine {} vs dense oracle {want} on {dets:?}",
                full.weight
            );
        }
    }

    #[test]
    fn local_backend_matches_gwt_backend_bit_for_bit() {
        use qec_circuit::DemSampler;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // The in-crate spot check of the tentpole contract (the full
        // sweep lives in the workspace `local_vs_gwt` suite): same
        // syndromes, same predictions and matchings, from a context that
        // never built a GWT.
        for (d, p) in [(3usize, 5e-3), (5, 1e-2)] {
            let gctx = ctx(d, p);
            let lctx = local_ctx(d, p);
            assert!(lctx.try_gwt().is_none());
            for quantized in [false, true] {
                let mut g = if quantized {
                    MwpmDecoder::for_context_quantized(&gctx)
                } else {
                    MwpmDecoder::for_context(&gctx)
                };
                // On-demand staging is the engine bit-identical to the
                // table; the default graph-pd engine is weight-certified.
                let mut l = if quantized {
                    MwpmDecoder::for_context_quantized(&lctx)
                } else {
                    MwpmDecoder::for_context(&lctx)
                }
                .with_deep_backend(DeepBackend::Ondemand);
                assert!(g.local_stats().is_none());
                assert!(l.local_stats().is_some());
                let mut sampler = DemSampler::new(gctx.dem());
                let mut rng = StdRng::seed_from_u64(4242 + d as u64);
                let mut scratch_g = DecodeScratch::new();
                let mut scratch_l = DecodeScratch::new();
                for _ in 0..400 {
                    let shot = sampler.sample(&mut rng);
                    let sg = g.decode_full(&shot.detectors);
                    let sl = l.decode_full(&shot.detectors);
                    assert_eq!(sg.pairs, sl.pairs, "mates diverged on {:?}", shot.detectors);
                    assert_eq!(sg.to_boundary, sl.to_boundary);
                    assert_eq!(sg.observables, sl.observables);
                    assert_eq!(sg.weight.to_bits(), sl.weight.to_bits());
                    let pg = g.decode_with_scratch(&shot.detectors, &mut scratch_g);
                    let pl = l.decode_with_scratch(&shot.detectors, &mut scratch_l);
                    assert_eq!(pg, pl, "scratch diverged on {:?}", shot.detectors);
                }
                let stats = l.local_stats().unwrap();
                assert!(stats.stages > 0 && stats.expansions > 0);
            }
        }
    }

    #[test]
    fn ondemand_deep_backend_matches_staged_oracle() {
        use qec_circuit::DemSampler;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // In-crate spot check of the deep-tail contract (the full sweep
        // lives in the workspace `ondemand_vs_staged` suite): real deep
        // syndromes, one scratch arena per decoder reused across shots,
        // on-demand predictions and `decode_full` matchings bit-equal to
        // the staged oracle's, in both weight domains.
        for quantized in [false, true] {
            let lctx = local_ctx(7, 2e-2);
            let mut ond = if quantized {
                MwpmDecoder::for_context_quantized(&lctx)
            } else {
                MwpmDecoder::for_context(&lctx)
            }
            .with_deep_backend(DeepBackend::Ondemand);
            let mut stg = ond.clone().with_deep_backend(DeepBackend::Staged);
            assert_eq!(ond.deep_backend(), DeepBackend::Ondemand);
            assert_eq!(stg.deep_backend(), DeepBackend::Staged);
            let mut sampler = DemSampler::new(lctx.dem());
            let mut rng = StdRng::seed_from_u64(271);
            let mut scratch_o = DecodeScratch::new();
            let mut scratch_s = DecodeScratch::new();
            let mut deep = 0;
            for _ in 0..150 {
                let shot = sampler.sample(&mut rng);
                let is_deep = shot.detectors.len() > DP_NODE_LIMIT;
                deep += is_deep as u32;
                let po = ond.decode_with_scratch(&shot.detectors, &mut scratch_o);
                let ps = stg.decode_with_scratch(&shot.detectors, &mut scratch_s);
                assert_eq!(po, ps, "backends diverged on {:?}", shot.detectors);
                // Dispatch guard: `decode_full` stages deep shots with
                // the decoder's own engine, so the on-demand decoder
                // never runs the full sweep and the staged one does.
                let stages = |d: &MwpmDecoder<'_>| d.local_stats().unwrap().stages;
                let (before_o, before_s) = (stages(&ond), stages(&stg));
                let fo = ond.decode_full(&shot.detectors);
                let fs = stg.decode_full(&shot.detectors);
                if is_deep {
                    assert_eq!(
                        stages(&ond),
                        before_o,
                        "on-demand decode_full ran the sweep"
                    );
                    assert!(
                        stages(&stg) > before_s,
                        "staged decode_full skipped the sweep"
                    );
                }
                assert_eq!(fo, fs, "full matchings diverged on {:?}", shot.detectors);
                assert_eq!(po.observables, fo.observables);
            }
            assert!(deep > 100, "only {deep} deep syndromes sampled");
            assert!(!scratch_o.ondemand.stats.is_idle());
            assert!(scratch_o.ondemand.stats.collisions > 0);
            assert!(scratch_s.ondemand.stats.is_idle());
        }
    }

    #[test]
    fn graph_pd_deep_backend_is_optimal_and_self_consistent() {
        use qec_circuit::DemSampler;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // In-crate spot check of the graph-pd contract (the certificate
        // suite lives in the workspace `graphpd_vs_ondemand` tests):
        // matchings may differ from the on-demand oracle's on ties, so
        // the asserts are (1) equal total matching weight up to f64
        // association noise — distinct matchings differ by whole error
        // mechanisms, orders of magnitude above the tolerance — and
        // (2) bit-equal predictions between the scratch and allocating
        // paths of the graph-pd backend itself.
        for quantized in [false, true] {
            let lctx = local_ctx(7, 2e-2);
            let mut ond = if quantized {
                MwpmDecoder::for_context_quantized(&lctx)
            } else {
                MwpmDecoder::for_context(&lctx)
            }
            .with_deep_backend(DeepBackend::Ondemand);
            let mut gpd = ond.clone().with_deep_backend(DeepBackend::GraphPd);
            assert_eq!(gpd.deep_backend(), DeepBackend::GraphPd);
            let mut sampler = DemSampler::new(lctx.dem());
            let mut rng = StdRng::seed_from_u64(314);
            let mut scratch_o = DecodeScratch::new();
            let mut scratch_g = DecodeScratch::new();
            let mut deep = 0;
            for _ in 0..150 {
                let shot = sampler.sample(&mut rng);
                deep += (shot.detectors.len() > DP_NODE_LIMIT) as u32;
                // Scratch first: the provider memoizes the staged block
                // per flavor, so `decode_full` replays it and the real
                // discovery work lands in the persistent arena's stats.
                let pg = gpd.decode_with_scratch(&shot.detectors, &mut scratch_g);
                let fg = gpd.decode_full(&shot.detectors);
                let fo = ond.decode_full(&shot.detectors);
                assert!(
                    (fo.weight - fg.weight).abs() <= 1e-6 * (1.0 + fo.weight.abs()),
                    "weight certificate failed on {:?}: {} vs {}",
                    shot.detectors,
                    fg.weight,
                    fo.weight
                );
                assert_eq!(pg.observables, fg.observables);
                ond.decode_with_scratch(&shot.detectors, &mut scratch_o);
            }
            assert!(deep > 100, "only {deep} deep syndromes sampled");
            // Dispatch drift guard: each backend drives only its own
            // engine.
            assert!(!scratch_g.graphpd.stats.is_idle());
            assert!(scratch_g.graphpd.stats.merges > 0);
            assert!(scratch_g.graphpd.stats.blossoms > 0);
            assert!(scratch_g.ondemand.stats.is_idle());
            assert!(!scratch_o.ondemand.stats.is_idle());
            assert!(scratch_o.graphpd.stats.is_idle());
        }
    }

    #[test]
    fn repair_path_resolves_a_pair_the_seed_left_unsearched() {
        use decoding_graph::GraphPdScratch;

        // A sampled d = 7, p = 2×10⁻² syndrome (k = 19) whose optimum
        // pairs detectors 1 and 41: neither is among the other's four
        // nearest fired detectors, so the seed leaves the pair
        // unsearched, and the seed block's optimum is heavier (22.23
        // against 22.11). Only pricing and repair can find the optimum.
        let dets = [
            1u32, 41, 67, 77, 82, 88, 95, 99, 100, 102, 118, 122, 128, 134, 137, 144, 146, 172, 176,
        ];
        let (lctx, gctx) = (local_ctx(7, 2e-2), ctx(7, 2e-2));
        let mut seed = LocalWeightProvider::new(lctx.graph(), lctx.boundary());
        seed.stage_graph_pd(&dets, &mut GraphPdScratch::new());
        assert!(
            seed.pair_weight(1, 41).is_nan(),
            "the seed searched (1, 41)"
        );

        let mut dec = MwpmDecoder::for_context(&lctx);
        assert_eq!(dec.deep_backend(), DeepBackend::GraphPd);
        let mut scratch = DecodeScratch::new();
        let pred = dec.decode_with_scratch(&dets, &mut scratch);
        let s = scratch.graphpd.stats;
        assert_eq!(s.stages, 1);
        assert!(s.repairs > 0, "pricing flagged nothing: {s:?}");
        assert!(s.blossoms > s.stages, "no re-solve: {s:?}");

        // The replayed decode (a memo hit on the repaired block) reports
        // the matching: it uses a pair the seed left unsearched, and it
        // weighs the staged oracle's optimum and the whole-shot dense
        // blossom's on the GWT weights.
        let full = dec.decode_full(&dets);
        assert_eq!(full.observables, pred.observables);
        assert!(
            full.pairs
                .iter()
                .any(|&(a, b)| seed.pair_weight(a, b).is_nan()),
            "the optimum {:?} uses no unsearched pair",
            full.pairs
        );
        let staged = dec.clone().with_deep_backend(DeepBackend::Staged);
        let dense = dense_oracle(&MwpmDecoder::new(gctx.gwt()), &dets);
        for (what, want) in [
            ("staged", staged.decode_full(&dets).weight),
            ("dense", dense),
        ] {
            assert!(
                (full.weight - want).abs() <= 1e-9 * want,
                "weight {} vs {what} optimum {want}",
                full.weight
            );
        }
    }

    #[test]
    fn local_backend_batch_matches_per_shot() {
        let lctx = local_ctx(5, 1e-3);
        let mut dec = MwpmDecoder::for_context(&lctx);
        let mut scratch = DecodeScratch::new();
        // Three HW-2 lists batched as one same-weight run.
        let lists: [[u32; 2]; 3] = [[0, 1], [5, 17], [40, 41]];
        let flat: Vec<u32> = lists.iter().flatten().copied().collect();
        let mut out = vec![Prediction::identity(); 3];
        dec.decode_same_weight_batch(2, &flat, &mut out, &mut scratch);
        for (list, got) in lists.iter().zip(&out) {
            let want = dec.decode_with_scratch(list, &mut scratch);
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn decoder_name() {
        let ctx = ctx(3, 1e-3);
        let dec = MwpmDecoder::new(ctx.gwt());
        assert_eq!(Decoder::name(&dec), "MWPM");
    }
}
