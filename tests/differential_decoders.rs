//! Cross-decoder differential conformance suite.
//!
//! Every future hot-path rewrite is trusted only because this suite pins
//! the decoders against each other on the *same* syndromes in the *same*
//! quantized weight units:
//!
//! * **Astrea vs subset DP** — Astrea's staged brute force must land on
//!   the exact MWPM optimum for every syndrome of Hamming weight ≤ 10.
//! * **Dense blossom vs subset DP** — the two exact software baselines
//!   must agree on the total matching weight (they share no code).
//! * **Astrea-G vs Astrea** — with a weight threshold too large to filter
//!   anything, the greedy pipeline must never beat Astrea's exact weight,
//!   and for HW ≤ 10 (where it routes to the same brute force) must tie.
//!
//! The corpus mixes noise-model-sampled syndromes with adversarial
//! uniform-random detector subsets at d ∈ {3, 5, 7} — over 10 000
//! syndromes per run, all checked for exactness with zero tolerance.

use astrea::prelude::*;
use blossom_mwpm::{subset_dp, MatchingSolution};
use mwpm_oracle::dense_blossom;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Quantized weight of a matching solution, in GWT table units.
fn quantized_weight(gwt: &GlobalWeightTable, sol: &MatchingSolution) -> u64 {
    let pairs: u64 = sol
        .pairs
        .iter()
        .map(|&(a, b)| gwt.pair_weight_q(a, b) as u64)
        .sum();
    let boundary: u64 = sol
        .to_boundary
        .iter()
        .map(|&a| gwt.boundary_weight_q(a) as u64)
        .sum();
    pairs + boundary
}

/// Exact optimum over the quantized weights via the subset DP, using the
/// same effective pair weight Astrea sees (direct edge or boundary detour,
/// whichever is cheaper).
fn dp_optimum(gwt: &GlobalWeightTable, dets: &[u32]) -> u64 {
    let (_, cost) = subset_dp::solve(
        dets.len(),
        |i, j| {
            let direct = gwt.pair_weight_q(dets[i], dets[j]) as f64;
            let via = gwt.boundary_weight_q(dets[i]) as f64 + gwt.boundary_weight_q(dets[j]) as f64;
            direct.min(via)
        },
        |i| gwt.boundary_weight_q(dets[i]) as f64,
    );
    cost.round() as u64
}

/// Exact optimum via the dense blossom algorithm on the standard
/// boundary-doubled graph: `k` real nodes plus one virtual boundary twin
/// per real node; twins connect to their real node at the boundary weight
/// and to each other for free.
fn blossom_optimum(gwt: &GlobalWeightTable, dets: &[u32]) -> u64 {
    let k = dets.len();
    let n = 2 * k;
    let weight = |u: usize, v: usize| -> i64 {
        let (u, v) = (u.min(v), u.max(v));
        match (u < k, v < k) {
            (true, true) => {
                let direct = gwt.pair_weight_q(dets[u], dets[v]) as i64;
                let via =
                    gwt.boundary_weight_q(dets[u]) as i64 + gwt.boundary_weight_q(dets[v]) as i64;
                direct.min(via)
            }
            // A real node may take any twin at its own boundary cost:
            // twins are interchangeable, and leftover twins pair among
            // themselves for free, so parity always works out.
            (true, false) => gwt.boundary_weight_q(dets[u]) as i64,
            (false, false) => 0,
            (false, true) => unreachable!("u <= v after normalization"),
        }
    };
    let (_, total) = dense_blossom::min_weight_perfect_matching(n, weight);
    total as u64
}

/// The differential corpus for one distance: noise-sampled syndromes plus
/// uniform-random detector subsets, all with Hamming weight in `[1, 10]`.
fn corpus(ctx: &ExperimentContext, sampled: usize, random: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut out = Vec::with_capacity(sampled + random);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sampler = DemSampler::new(ctx.dem());
    while out.len() < sampled {
        let shot = sampler.sample(&mut rng);
        if (1..=10).contains(&shot.detectors.len()) {
            out.push(shot.detectors.clone());
        }
    }
    let detectors = ctx.gwt().len() as u32;
    for _ in 0..random {
        let hw = rng.gen_range(1..=10usize).min(detectors as usize);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < hw {
            set.insert(rng.gen_range(0..detectors));
        }
        out.push(set.into_iter().collect());
    }
    out
}

#[test]
fn exactness_holds_across_decoders_and_distances() {
    // Large enough to never filter an edge: quantized weights are u8, so
    // every pre-matching survives and Astrea-G's low-HW route is intact.
    let huge_wth = AstreaGConfig {
        weight_threshold: 1e6,
        ..AstreaGConfig::default()
    };

    let mut checked = 0u64;
    for (d, p, sampled, random) in [
        (3, 8e-3, 2000, 1600),
        (5, 4e-3, 2000, 1600),
        (7, 2e-3, 2000, 1600),
    ] {
        let ctx = ExperimentContext::new(d, p);
        let gwt = ctx.gwt();
        let astrea = AstreaDecoder::new(gwt);
        let astrea_g = AstreaGDecoder::with_config(gwt, huge_wth);

        for dets in corpus(&ctx, sampled, random, 0xD1FF + d as u64) {
            let hw = dets.len();

            // Astrea is exact MWPM over the quantized table.
            let sol = astrea
                .decode_full(&dets)
                .unwrap_or_else(|| panic!("Astrea refused HW {hw} syndrome {dets:?} at d={d}"));
            assert!(sol.is_perfect_over(&dets), "imperfect matching on {dets:?}");
            let astrea_w = quantized_weight(gwt, &sol);
            let dp_w = dp_optimum(gwt, &dets);
            assert_eq!(
                astrea_w, dp_w,
                "Astrea suboptimal at d={d} on {dets:?} (hw {hw})"
            );

            // The two independent exact baselines agree.
            let blossom_w = blossom_optimum(gwt, &dets);
            assert_eq!(
                blossom_w, dp_w,
                "dense blossom diverged from subset DP at d={d} on {dets:?} (hw {hw})"
            );

            // Greedy with an unfiltered weight table never beats exact —
            // and ties on the low-HW route it shares with Astrea.
            let (_, greedy) = astrea_g.decode_full(&dets);
            let greedy = greedy
                .unwrap_or_else(|| panic!("Astrea-G produced no matching on {dets:?} at d={d}"));
            let greedy_w = quantized_weight(gwt, &greedy);
            assert!(
                greedy_w >= astrea_w,
                "Astrea-G ({greedy_w}) beat exact MWPM ({astrea_w}) at d={d} on {dets:?}"
            );
            assert_eq!(
                greedy_w, astrea_w,
                "Astrea-G must tie Astrea below the brute-force cutoff at d={d} on {dets:?}"
            );

            checked += 1;
        }
    }
    assert!(
        checked >= 10_000,
        "conformance corpus too small: {checked} syndromes"
    );
}

#[test]
fn boundary_only_and_adjacent_pairs_are_exact() {
    // Focused edge geometry: single detectors (pure boundary matches) and
    // nearest-neighbour pairs, where quantization rounding is most likely
    // to produce ties that decoders must still break optimally.
    let ctx = ExperimentContext::new(5, 3e-3);
    let gwt = ctx.gwt();
    let astrea = AstreaDecoder::new(gwt);
    let n = gwt.len() as u32;
    for a in 0..n {
        let dets = vec![a];
        let sol = astrea.decode_full(&dets).expect("single detector");
        assert_eq!(quantized_weight(gwt, &sol), dp_optimum(gwt, &dets));
    }
    for a in 0..n {
        for b in (a + 1)..n.min(a + 9) {
            let dets = vec![a, b];
            let sol = astrea.decode_full(&dets).expect("detector pair");
            assert_eq!(
                quantized_weight(gwt, &sol),
                dp_optimum(gwt, &dets),
                "pair ({a}, {b})"
            );
            assert_eq!(blossom_optimum(gwt, &dets), dp_optimum(gwt, &dets));
        }
    }
}
