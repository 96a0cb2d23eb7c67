//! Property tests: the dense blossom oracle (`mwpm_oracle`) against the
//! independent subset-DP solver, the sparse scratch solver against the
//! dense oracle's optimum and its own solve-half certificate on real
//! decoding-graph syndromes, and structural invariants of the MWPM
//! decoder.

use blossom_mwpm::{sparse_blossom, subset_dp, MwpmDecoder};
use decoding_graph::{DecodingContext, MatchingGraph, SparseBlossomScratch};
use mwpm_oracle::{certificate, dense_blossom};
use proptest::prelude::*;
use qec_circuit::NoiseModel;
use std::cell::RefCell;
use std::sync::OnceLock;
use surface_code::SurfaceCode;

/// Mirrors of the decoder's private fixed-point scale and weight clamp
/// (`blossom_mwpm::decoder`): the sparse-vs-dense tests below feed both
/// solvers the exact integer weights the production deep-tail path uses.
const BLOSSOM_SCALE: f64 = 65_536.0;
const WEIGHT_CLAMP: f64 = 1e4;

/// Decoding contexts for d ∈ {3, 5, 7, 9} at p = 10⁻³, built once (the
/// d = 9 all-pairs Dijkstra is the expensive part).
fn grid() -> &'static [DecodingContext] {
    static GRID: OnceLock<Vec<DecodingContext>> = OnceLock::new();
    GRID.get_or_init(|| {
        [3usize, 5, 7, 9]
            .into_iter()
            .map(|d| {
                let code = SurfaceCode::new(d).unwrap();
                DecodingContext::for_memory_experiment(&code, NoiseModel::depolarizing(1e-3))
            })
            .collect()
    })
}

/// Random error-chain syndrome: short walks along matching-graph edges
/// XOR-flip their endpoints (interior detectors cancel pairwise), which
/// reproduces the clustered detector sets real noise generates. Chains
/// are added until at least `target` detectors are hot, so the result
/// has Hamming weight in `target..target + 2`.
fn chain_syndrome(g: &MatchingGraph, target: usize, seed: u64) -> Vec<u32> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.num_detectors() as u32;
    let mut hot = vec![false; n as usize];
    let mut count = 0usize;
    let flip = |hot: &mut Vec<bool>, count: &mut usize, d: u32| {
        let slot = &mut hot[d as usize];
        *count = if *slot { *count - 1 } else { *count + 1 };
        *slot = !*slot;
    };
    while count < target {
        let mut at = rng.gen_range(0..n);
        flip(&mut hot, &mut count, at);
        for _ in 0..rng.gen_range(1usize..=4) {
            let neighbors: Vec<u32> = g.neighbors(at).map(|(v, _)| v).collect();
            let Some(&next) = neighbors.get(rng.gen_range(0..neighbors.len().max(1))) else {
                break;
            };
            flip(&mut hot, &mut count, at);
            flip(&mut hot, &mut count, next);
            at = next;
        }
    }
    (0..n).filter(|&d| hot[d as usize]).collect()
}

/// Random even-sized complete graphs with positive integer weights.
fn weight_matrix(n: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(1i64..1000, n), n).prop_map(move |mut m| {
        // Mirror the upper triangle onto the lower one and zero the
        // diagonal (symmetric indexing keeps the range loop readable).
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            for j in 0..i {
                m[i][j] = m[j][i];
            }
            m[i][i] = 0;
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn blossom_equals_dp_on_random_graphs(
        n in prop::sample::select(vec![2usize, 4, 6, 8, 10, 12]),
        seed in any::<u32>(),
    ) {
        let w = move |u: usize, v: usize| {
            let (u, v) = (u.min(v) as u64, u.max(v) as u64);
            ((u * 2654435761 + v * 40503 + seed as u64)
                .wrapping_mul(2246822519) >> 33) as i64 % 997 + 1
        };
        let (mate, blossom_cost) = dense_blossom::min_weight_perfect_matching(n, w);
        let (_, dp_cost) = subset_dp::solve(n, |i, j| w(i, j) as f64, |_| 1e15);
        prop_assert_eq!(blossom_cost as f64, dp_cost);
        // The matching must be a perfect involution.
        for (u, &v) in mate.iter().enumerate() {
            prop_assert_ne!(u, v);
            prop_assert_eq!(mate[v], u);
        }
    }

    #[test]
    fn blossom_equals_dp_on_explicit_matrices(m in weight_matrix(8)) {
        let (_, blossom_cost) =
            dense_blossom::min_weight_perfect_matching(8, |u, v| m[u][v]);
        let (_, dp_cost) = subset_dp::solve(8, |i, j| m[i][j] as f64, |_| 1e15);
        prop_assert_eq!(blossom_cost as f64, dp_cost);
    }

    #[test]
    fn dp_with_boundary_never_beats_or_loses_to_exhaustive_small(
        n in 1usize..6,
        seed in any::<u32>(),
    ) {
        // For tiny n compare against brute-force enumeration including
        // boundary choices.
        let w = move |u: usize, v: usize| {
            let (u, v) = (u.min(v) as u64, u.max(v) as u64);
            ((u * 31 + v * 17 + seed as u64) % 50 + 1) as f64
        };
        let b = move |u: usize| ((u as u64 * 13 + seed as u64) % 50 + 1) as f64;
        let (mate, cost) = subset_dp::solve(n, w, b);

        fn brute(nodes: &[usize], w: &dyn Fn(usize, usize) -> f64, b: &dyn Fn(usize) -> f64) -> f64 {
            match nodes {
                [] => 0.0,
                [first, rest @ ..] => {
                    let mut best = b(*first) + brute(rest, w, b);
                    for (idx, &j) in rest.iter().enumerate() {
                        let mut rem = rest.to_vec();
                        rem.remove(idx);
                        best = best.min(w(*first, j) + brute(&rem, w, b));
                    }
                    best
                }
            }
        }
        let nodes: Vec<usize> = (0..n).collect();
        prop_assert!((cost - brute(&nodes, &w, &b)).abs() < 1e-9);
        // Mate must be an involution with boundary slots.
        for (u, m) in mate.iter().enumerate() {
            if let Some(v) = m {
                prop_assert_eq!(mate[*v], Some(u));
            }
        }
    }
}

thread_local! {
    /// One scratch arena reused across every proptest case below —
    /// exactly the per-worker reuse pattern of the streamed pipeline, so
    /// the fresh-arena comparison covers cross-solve state carried in the
    /// arena (stale blossom rows, vis epochs, grown allocations).
    static SCRATCH: RefCell<SparseBlossomScratch> = RefCell::new(SparseBlossomScratch::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The sparse scratch solver reaches the dense oracle's optimum
    /// exactly and proves it, on random decoding-graph syndromes across
    /// d ∈ {3, 5, 7, 9}, Hamming weights up to 24, for exact and
    /// quantized weights, through one reused scratch arena: identical
    /// integer total, a valid solve-half certificate (which first checks
    /// that the mate is a perfect involution), and mates bit-identical to
    /// a fresh arena's. Mates may
    /// differ from the dense oracle's on ties.
    #[test]
    fn sparse_matches_dense_on_decoding_graph_syndromes(
        ctx_idx in 0usize..4,
        target_hw in 5usize..=22,
        seed in any::<u64>(),
        quantized in any::<bool>(),
    ) {
        let ctx = &grid()[ctx_idx];
        let gwt = ctx.gwt();
        let target = target_hw.min(ctx.graph().num_detectors().saturating_sub(2));
        let dets = chain_syndrome(ctx.graph(), target, seed);
        prop_assert!(!dets.is_empty());
        prop_assert!(dets.len() <= 24);

        // The production deep-tail weight closure: clamped effective
        // weights in fixed point, with a virtual boundary node when the
        // syndrome weight is odd (mirrors the decoder's blossom reduction).
        let k = dets.len();
        let n = if k.is_multiple_of(2) { k } else { k + 1 };
        let pair_w = |i: u32, j: u32| -> f64 {
            if quantized {
                gwt.pair_weight_q(i, j) as f64 / gwt.scale()
            } else {
                gwt.pair_weight(i, j)
            }
        };
        let boundary_w = |i: u32| -> f64 {
            if quantized {
                gwt.boundary_weight_q(i) as f64 / gwt.scale()
            } else {
                gwt.boundary_weight(i)
            }
        };
        let wi = |i: usize, j: usize| -> i64 {
            let eff = if i >= k || j >= k {
                let real = if i >= k { j } else { i };
                boundary_w(dets[real]).min(WEIGHT_CLAMP)
            } else {
                let direct = pair_w(dets[i], dets[j]);
                let via_boundary = boundary_w(dets[i]) + boundary_w(dets[j]);
                direct.min(via_boundary).min(WEIGHT_CLAMP)
            };
            (eff * BLOSSOM_SCALE).round() as i64 + 1
        };

        let (_, dense_total) = dense_blossom::min_weight_perfect_matching(n, wi);
        let (sparse_total, sparse_mate, certified, mutant_rejected) = SCRATCH.with(|s| {
            let mut scratch = s.borrow_mut();
            let total = sparse_blossom::min_weight_perfect_matching_scratch(n, wi, &mut scratch);
            let mate = scratch.mate[1..=n].to_vec();
            let certified = certificate::check_certificate(n, &scratch);
            // Mutation check: one granule (2 once doubled) off one
            // matched pair's staged weight must break the certificate.
            let mut bad = scratch.clone();
            let (u, v, wn) = (1, bad.mate[1], n + 1);
            bad.weights[u * wn + v] -= 2;
            bad.weights[v * wn + u] -= 2;
            (total, mate, certified, certificate::check_certificate(n, &bad).is_err())
        });
        prop_assert_eq!(dense_total, sparse_total,
            "total weight diverged on {:?} (quantized: {})", &dets, quantized);
        prop_assert!(certified.is_ok(),
            "certificate failed on {:?} (quantized: {}): {:?}", &dets, quantized, certified);
        prop_assert!(mutant_rejected, "a mutated weight kept the certificate on {:?}", &dets);
        let mut fresh = SparseBlossomScratch::new();
        prop_assert_eq!(
            sparse_blossom::min_weight_perfect_matching_scratch(n, wi, &mut fresh),
            sparse_total
        );
        prop_assert_eq!(&fresh.mate[1..=n], &sparse_mate[..],
            "reused arena diverged from a fresh one on {:?}", &dets);
    }
}

#[test]
fn mwpm_solution_weight_is_minimal_over_random_alternatives() {
    // On real sampled syndromes, no random valid alternative assignment may
    // have lower weight than the decoder's solution.
    use qec_circuit::DemSampler;
    use rand::seq::SliceRandom;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let code = SurfaceCode::new(5).unwrap();
    let ctx = DecodingContext::for_memory_experiment(&code, NoiseModel::depolarizing(5e-3));
    let decoder = MwpmDecoder::new(ctx.gwt());
    let mut sampler = DemSampler::new(ctx.dem());
    let mut rng = StdRng::seed_from_u64(2024);

    let mut checked = 0;
    for _ in 0..300 {
        let shot = sampler.sample(&mut rng);
        if shot.detectors.is_empty() || shot.detectors.len() > 12 {
            continue;
        }
        let sol = decoder.decode_full(&shot.detectors);
        assert!(sol.is_perfect_over(&shot.detectors));

        // Generate random alternatives: shuffle, pair greedily, send a
        // random subset to the boundary.
        for _ in 0..20 {
            let mut order = shot.detectors.clone();
            order.shuffle(&mut rng);
            let mut alt_weight = 0.0;
            let mut i = 0;
            while i < order.len() {
                if i + 1 < order.len() && rng.gen_bool(0.7) {
                    alt_weight += ctx.gwt().pair_weight(order[i], order[i + 1]);
                    i += 2;
                } else {
                    alt_weight += ctx.gwt().boundary_weight(order[i]);
                    i += 1;
                }
            }
            assert!(
                sol.weight <= alt_weight + 1e-6,
                "random alternative ({alt_weight}) beat MWPM ({}) on {:?}",
                sol.weight,
                shot.detectors
            );
        }
        checked += 1;
    }
    assert!(checked > 30, "too few syndromes checked: {checked}");
}

#[test]
fn certificate_against_other_weights_pins_the_optimum() {
    // The exact-weight certificate that deep decodes are checked with:
    // it accepts the solved weights at any reflection pivot, and rejects
    // one granule more or less on a matched pair.
    use certificate::check_certificate_against;
    for (d, ctx) in grid().iter().enumerate() {
        let k = 2 * (d + 6);
        for seed in 0..8u64 {
            let dets = chain_syndrome(ctx.graph(), k, 300 + seed);
            let n = dets.len() + dets.len() % 2;
            let w = |i: usize, j: usize| -> i64 {
                let gwt = ctx.gwt();
                let (a, b) = (i.min(j), i.max(j));
                let eff = if b >= dets.len() {
                    gwt.boundary_weight(dets[a])
                } else {
                    gwt.pair_weight(dets[a], dets[b])
                        .min(gwt.boundary_weight(dets[a]) + gwt.boundary_weight(dets[b]))
                };
                (eff.min(WEIGHT_CLAMP) * BLOSSOM_SCALE).round() as i64 + 1
            };
            let arena = |u: usize, v: usize| w(u - 1, v - 1);
            let mut scratch = SparseBlossomScratch::new();
            sparse_blossom::min_weight_perfect_matching_scratch(n, w, &mut scratch);
            check_certificate_against(n, &scratch, arena).unwrap();
            check_certificate_against(n, &scratch, |u, v| arena(u, v) + 7).unwrap();
            let (a, b) = (1, scratch.mate[1]);
            for delta in [-1, 1] {
                let bad = |u: usize, v: usize| {
                    arena(u, v)
                        + if u.min(v) == a.min(b) && u.max(v) == a.max(b) {
                            delta
                        } else {
                            0
                        }
                };
                assert!(
                    check_certificate_against(n, &scratch, bad).is_err(),
                    "granule {delta} on a matched pair accepted on {dets:?}"
                );
            }
        }
    }
}

#[test]
fn matches_subset_dp_on_fixed_instances() {
    // Deterministic pseudo-random complete graphs, compared against the
    // independent subset-DP solver (boundary disabled via huge cost).
    for n in [2usize, 4, 6, 8, 10, 12] {
        for seed in 0..8u64 {
            let w = move |u: usize, v: usize| {
                let (u, v) = (u.min(v), u.max(v));
                ((u as u64 * 2654435761 + v as u64 * 40503 + seed * 9176).wrapping_mul(2246822519)
                    >> 33) as i64
                    % 97
                    + 1
            };
            let (_, blossom_cost) = dense_blossom::min_weight_perfect_matching(n, w);
            let (_, dp_cost) = subset_dp::solve(n, |i, j| w(i, j) as f64, |_| 1e15);
            assert_eq!(
                blossom_cost as f64, dp_cost,
                "n={n} seed={seed}: blossom {blossom_cost} vs dp {dp_cost}"
            );
        }
    }
}
