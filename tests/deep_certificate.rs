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
//! weights (`check_certificate_against` in the matching crate's test
//! support). Both weight domains run, at d = 15 and d = 21.

#[path = "../crates/blossom-mwpm/tests/support/certificate.rs"]
mod certificate;

use astrea::prelude::*;
use certificate::check_certificate_against;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mirrors of the decoder's private fixed-point scale and weight clamp
/// (`blossom_mwpm::decoder`).
const BLOSSOM_SCALE: f64 = 65_536.0;
const WEIGHT_CLAMP: f64 = 1e4;

/// Debug builds (the tier-1 `cargo test -q` gate) run a scaled-down
/// count; CI's release step runs the full one.
fn shots(full: usize) -> usize {
    if cfg!(debug_assertions) {
        full.div_ceil(8)
    } else {
        full
    }
}

/// Decodes `shots(full)` sampled deep shots of a GWT-free (d, p) point
/// with the production decoder on both weight axes, and certifies every
/// final solve against the staged oracle's exact weights.
fn certify(d: usize, p: f64, seed: u64, full: usize) {
    let ctx = ExperimentContext::new(d, p);
    assert!(ctx.decoding().try_gwt().is_none(), "d = {d} built a GWT");
    let bt = ctx.decoding().boundary();
    let scale = bt.scale();
    let mut oracle = LocalWeightProvider::new(ctx.graph(), bt);
    let mut sampler = DemSampler::new(ctx.dem());
    let mut rng = StdRng::seed_from_u64(seed);
    let corpus: Vec<Vec<u32>> =
        std::iter::repeat_with(|| sampler.sample(&mut rng).detectors.clone())
            .filter(|d| d.len() > DP_NODE_LIMIT)
            .take(shots(full))
            .collect();
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
                        oracle.pair_weight_q(a, b) as f64 / scale
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
