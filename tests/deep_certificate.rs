//! Per-shot optimality certificates of the default deep decoder against
//! exact weights, past the GWT budget.
//!
//! The default engine ([`DeepBackend::GraphPd`]) solves each deep shot on
//! a block where most pairs were never searched, and stops once its
//! pricing step finds no unsearched pair that could break the final
//! duals. This suite checks that claim from the outside, shot by shot:
//! after each production `decode_with_scratch` it reads the final solve
//! in `DecodeScratch::sparse` and the staged oracle's exact block, and
//! proves in integers, with live blossom duals included, that
//!
//! * every pair has reduced cost ≥ 0 under the exact effective weights
//!   `min(w, bᵢ + bⱼ, WEIGHT_CLAMP)` in the solve's fixed point, and
//! * every matched pair is tight under them,
//!
//! so the mate is a minimum-weight perfect matching of the exact
//! weights (`mwpm_oracle::certificate::check_certificate_against`). Both
//! weight domains run, at d = 15 and d = 21, and in release builds at
//! d = 31 for p = 10⁻³ and p = 5×10⁻³.
//!
//! A chain check backs the matched pairs at d = 15 (and, in release
//! builds, at d = 31, p = 10⁻³) on the exact axis:
//! every pair `decode_full` reports must have a reconstructed shortest
//! chain whose weight, summed from its first detector in path order,
//! equals the staged oracle's cell bit for bit, and whose parity equals
//! the oracle's observable; the decode's observables must be the XOR of
//! those parities and the boundary chains'.

use astrea::prelude::*;
use decoding_graph::quantize;
use mwpm_oracle::certificate::check_certificate_against;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mirrors of the decoder's private fixed-point scale and weight clamp
/// (`blossom_mwpm::decoder`).
const BLOSSOM_SCALE: f64 = 65_536.0;
const WEIGHT_CLAMP: f64 = 1e4;

/// Shot counts of the d = 31 axis, which runs in release builds only
/// (CI's certificate step). Measured on one core of a two-vCPU host, a
/// deep d = 31 shot costs about 0.2 s at p = 10⁻³ and about 1 s at
/// p = 5×10⁻³ per weight axis, staged oracle included, after about 3 s
/// of context setup per test.
const D31_LOW_P_SHOTS: usize = 16;
const D31_HIGH_P_SHOTS: usize = 4;

/// Debug builds (the tier-1 `cargo test -q` gate) run a scaled-down
/// count; CI's release step runs the full one.
fn shots(full: usize) -> usize {
    if cfg!(debug_assertions) {
        full.div_ceil(8)
    } else {
        full
    }
}

/// The GWT-free context of (d, p) and `shots(full)` sampled deep shots
/// (more than `DP_NODE_LIMIT` fired detectors) from `seed`.
fn deep_corpus(d: usize, p: f64, seed: u64, full: usize) -> (ExperimentContext, Vec<Vec<u32>>) {
    let ctx = ExperimentContext::new(d, p);
    assert!(ctx.decoding().try_gwt().is_none(), "d = {d} built a GWT");
    let mut sampler = DemSampler::new(ctx.dem());
    let mut rng = StdRng::seed_from_u64(seed);
    let corpus = std::iter::repeat_with(|| sampler.sample(&mut rng).detectors.clone())
        .filter(|d| d.len() > DP_NODE_LIMIT)
        .take(shots(full))
        .collect();
    (ctx, corpus)
}

/// Decodes `shots(full)` sampled deep shots of a GWT-free (d, p) point
/// with the production decoder on both weight axes, and certifies every
/// final solve against the staged oracle's exact weights.
fn certify(d: usize, p: f64, seed: u64, full: usize) {
    let (ctx, corpus) = deep_corpus(d, p, seed, full);
    let bt = ctx.decoding().boundary();
    let scale = bt.scale();
    let mut oracle = LocalWeightProvider::new(ctx.graph(), bt);
    for quantized in [false, true] {
        let mut prod = if quantized {
            MwpmDecoder::for_context_quantized(ctx.decoding())
        } else {
            MwpmDecoder::for_context(ctx.decoding())
        };
        assert_eq!(prod.deep_backend(), DeepBackend::GraphPd);
        let mut scratch = DecodeScratch::new();
        for dets in &corpus {
            prod.decode_with_scratch(dets, &mut scratch);
            oracle.stage(dets);
            let k = dets.len();
            let (pair, boundary) = (
                |a: u32, b: u32| {
                    if quantized {
                        quantize(oracle.pair_weight(a, b), scale) as f64 / scale
                    } else {
                        oracle.pair_weight(a, b)
                    }
                },
                |a: u32| {
                    if quantized {
                        bt.weight_q(a) as f64 / scale
                    } else {
                        bt.weight(a)
                    }
                },
            );
            // Exact effective weight of arena vertices `u < v` (1-based;
            // vertex `k + 1` is the virtual boundary node of odd `k`).
            let exact = |u: usize, v: usize| -> i64 {
                let (i, j) = (u.min(v) - 1, u.max(v) - 1);
                let w = if j >= k {
                    boundary(dets[i])
                } else {
                    let (a, b) = (dets[i], dets[j]);
                    pair(a, b).min(boundary(a) + boundary(b))
                };
                (w.min(WEIGHT_CLAMP) * BLOSSOM_SCALE).round() as i64 + 1
            };
            if let Err(e) = check_certificate_against(k + k % 2, &scratch.sparse, exact) {
                panic!("d = {d}, quantized = {quantized}, k = {k}: {e} on {dets:?}");
            }
        }
        let gp = scratch.graphpd.stats;
        assert_eq!(gp.stages as usize, corpus.len(), "d = {d}");
        assert!(gp.blossoms >= gp.stages, "d = {d}");
    }
}

#[test]
fn deep_decodes_are_optimal_under_exact_weights_at_d15() {
    certify(15, 5e-3, 1515, 64);
}

#[test]
fn deep_decodes_are_optimal_under_exact_weights_at_d21() {
    certify(21, 5e-3, 2121, 32);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: CI certificate step")]
fn deep_decodes_are_optimal_under_exact_weights_at_d31_p1e3() {
    certify(31, 1e-3, 3131, D31_LOW_P_SHOTS);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: CI certificate step")]
fn deep_decodes_are_optimal_under_exact_weights_at_d31_p5e3() {
    certify(31, 5e-3, 3131, D31_HIGH_P_SHOTS);
}

#[test]
fn matched_pairs_are_backed_by_reconstructed_chains_at_d15() {
    check_chains(15, 5e-3, 1515, 64);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: CI certificate step")]
fn matched_pairs_are_backed_by_reconstructed_chains_at_d31() {
    check_chains(31, 1e-3, 3131, D31_LOW_P_SHOTS);
}

/// Decodes `shots(full)` sampled deep shots of a GWT-free (d, p) point
/// with the production decoder on the exact axis, and backs every
/// matched pair of `decode_full` by a reconstructed chain of the staged
/// oracle's weight and parity.
fn check_chains(d: usize, p: f64, seed: u64, full: usize) {
    let (ctx, corpus) = deep_corpus(d, p, seed, full);
    let (graph, bt) = (ctx.graph(), ctx.decoding().boundary());
    let paths = PathReconstructor::new(graph);
    let mut oracle = LocalWeightProvider::new(graph, bt);
    let mut prod = MwpmDecoder::for_context(ctx.decoding());
    assert_eq!(prod.deep_backend(), DeepBackend::GraphPd);
    let mut scratch = DecodeScratch::new();
    let mut chains = 0;
    for dets in &corpus {
        let full = prod.decode_full(dets);
        assert!(full.is_perfect_over(dets), "not perfect over {dets:?}");
        oracle.stage(dets);
        let mut obs = 0;
        for &(a, b) in &full.pairs {
            let chain = paths.pair_path(a, b).expect("a matched pair is connected");
            let (weight, parity) = chain.iter().fold((0.0, 0), |(w, o), &e| {
                let edge = &graph.edges()[e as usize];
                (w + edge.weight, o ^ edge.observables)
            });
            assert_eq!(
                weight.to_bits(),
                oracle.pair_weight(a, b).to_bits(),
                "chain ({a}, {b}) weighs {weight}, staged {} on {dets:?}",
                oracle.pair_weight(a, b)
            );
            assert_eq!(
                parity,
                oracle.pair_obs(a, b),
                "chain ({a}, {b}) on {dets:?}"
            );
            obs ^= parity;
            chains += 1;
        }
        for &a in &full.to_boundary {
            obs ^= bt.obs(a);
        }
        assert_eq!(full.observables, obs, "folded parity on {dets:?}");
        let pred = prod.decode_with_scratch(dets, &mut scratch);
        assert_eq!(
            full.observables, pred.observables,
            "decode paths on {dets:?}"
        );
    }
    assert!(
        chains > corpus.len(),
        "{chains} chains over {} shots",
        corpus.len()
    );
}
