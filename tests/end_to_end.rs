//! End-to-end integration tests: the full stack from lattice to logical
//! error rates, across crates.

use astrea::prelude::*;
use astrea_experiments::DecoderFactory;
use rand::SeedableRng;

fn factories<'a>() -> Vec<(&'static str, Box<DecoderFactory<'a>>)> {
    let mwpm: Box<DecoderFactory<'a>> =
        Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())) as Box<dyn Decoder>);
    let astrea: Box<DecoderFactory<'a>> =
        Box::new(|c| Box::new(AstreaDecoder::new(c.gwt())) as Box<dyn Decoder>);
    let astrea_g: Box<DecoderFactory<'a>> =
        Box::new(|c| Box::new(AstreaGDecoder::new(c.gwt())) as Box<dyn Decoder>);
    let uf: Box<DecoderFactory<'a>> =
        Box::new(|c| Box::new(UnionFindDecoder::new(c.graph())) as Box<dyn Decoder>);
    let clique: Box<DecoderFactory<'a>> =
        Box::new(|c| Box::new(CliqueDecoder::new(c.graph(), c.gwt())) as Box<dyn Decoder>);
    vec![
        ("MWPM", mwpm),
        ("Astrea", astrea),
        ("Astrea-G", astrea_g),
        ("UF", uf),
        ("Clique", clique),
    ]
}

#[test]
fn every_decoder_beats_the_trivial_decoder_at_d3() {
    // The trivial decoder (no correction) fails whenever the observable
    // flips; every real decoder must do better.
    let ctx = ExperimentContext::new(3, 5e-3);
    let trivial_failures = {
        let mut sampler = DemSampler::new(ctx.dem());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        (0..30_000)
            .filter(|_| sampler.sample(&mut rng).observables != 0)
            .count() as u64
    };
    for (name, factory) in factories() {
        let r = estimate_ler(&ctx, 30_000, 4, 1, &*factory);
        assert!(
            r.failures * 2 < trivial_failures,
            "{name}: {} failures vs trivial {trivial_failures}",
            r.failures
        );
    }
}

#[test]
fn accuracy_ordering_matches_the_paper() {
    // MWPM ≈ Astrea ≈ Astrea-G ≤ Clique < UF, within Monte-Carlo noise.
    let ctx = ExperimentContext::new(5, 5e-3);
    let trials = 150_000;
    let mut lers = std::collections::HashMap::new();
    for (name, factory) in factories() {
        let r = estimate_ler(&ctx, trials, 4, 17, &*factory);
        lers.insert(name, r.ler());
    }
    let mwpm = lers["MWPM"];
    assert!(mwpm > 0.0, "need failures for comparison");
    // Astrea-G matches MWPM. Plain Astrea trails slightly at this (high)
    // p because it ignores the now-nonnegligible HW > 10 syndromes — its
    // design point is p = 1e-4, where that tail is below the LER.
    assert!(
        (lers["Astrea-G"] / mwpm - 1.0).abs() < 0.2,
        "Astrea-G LER {} vs MWPM {}",
        lers["Astrea-G"],
        mwpm
    );
    assert!(
        lers["Astrea"] >= mwpm * 0.95 && lers["Astrea"] < mwpm * 2.0,
        "Astrea LER {} vs MWPM {}",
        lers["Astrea"],
        mwpm
    );
    // At p this close to threshold all decoders compress together; the
    // UF-vs-MWPM gap is asserted separately at the paper's operating
    // point below.
    assert!(
        lers["UF"] >= mwpm * 0.95,
        "UF ({}) should not beat MWPM ({})",
        lers["UF"],
        mwpm
    );
}

#[test]
fn uf_is_measurably_worse_than_mwpm_at_the_paper_operating_point() {
    // Figure 4's qualitative claim: the approximate Union-Find decoder is
    // less accurate than MWPM in the low-p regime. Direct Monte-Carlo
    // cannot reach these rates, so use the paper's own Appendix-A
    // stratified estimator. (Deviation note, recorded in EXPERIMENTS.md:
    // a faithful Delfosse–Nickerson UF lands ~1.3–2× behind MWPM here,
    // not the 100× the paper reports for the full AFS hardware system —
    // our baseline is *stronger* than theirs, which only makes Astrea's
    // parity with MWPM harder to achieve, not easier.)
    use astrea_experiments::stratified::estimate_stratified;
    let ctx = ExperimentContext::new(5, 1e-4);
    let mwpm: Box<DecoderFactory> =
        Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())) as Box<dyn Decoder>);
    let uf: Box<DecoderFactory> =
        Box::new(|c| Box::new(UnionFindDecoder::new(c.graph())) as Box<dyn Decoder>);
    let m = estimate_stratified(&ctx, 8, 12_000, 4, 21, &*mwpm).ler();
    let u = estimate_stratified(&ctx, 8, 12_000, 4, 21, &*uf).ler();
    assert!(m > 0.0);
    assert!(
        u > 1.2 * m,
        "UF ({u:.3e}) should be measurably worse than MWPM ({m:.3e}) at p = 1e-4"
    );
}

#[test]
fn astrea_equals_mwpm_shot_by_shot_at_low_weight() {
    // Not just equal rates: on syndromes within its reach, Astrea must
    // produce the same weight-optimal prediction as quantized MWPM except
    // for exact ties.
    let ctx = ExperimentContext::new(3, 3e-3);
    let mut astrea = AstreaDecoder::new(ctx.gwt());
    let mut mwpm = MwpmDecoder::with_quantized_weights(ctx.gwt());
    let mut sampler = DemSampler::new(ctx.dem());
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let (mut n, mut same) = (0, 0);
    for _ in 0..30_000 {
        let shot = sampler.sample(&mut rng);
        if shot.detectors.is_empty() || shot.detectors.len() > 10 {
            continue;
        }
        n += 1;
        same += (astrea.decode(&shot.detectors).observables
            == mwpm.decode(&shot.detectors).observables) as u32;
    }
    assert!(n > 500);
    assert!(same as f64 / n as f64 > 0.995, "{same}/{n}");
}

#[test]
fn logical_error_rate_shrinks_with_distance_for_astrea_g() {
    // Exponential error suppression (below threshold) must survive the
    // full Astrea-G path, not just ideal MWPM.
    let p = 2e-3;
    let ctx3 = ExperimentContext::new(3, p);
    let ctx5 = ExperimentContext::new(5, p);
    let factory: Box<DecoderFactory> =
        Box::new(|c| Box::new(AstreaGDecoder::new(c.gwt())) as Box<dyn Decoder>);
    let r3 = estimate_ler(&ctx3, 60_000, 4, 3, &*factory);
    let r5 = estimate_ler(&ctx5, 60_000, 4, 3, &*factory);
    assert!(r3.failures > 30, "{}", r3.failures);
    assert!(
        r5.ler() < r3.ler() / 2.0,
        "d=3 {} vs d=5 {}",
        r3.ler(),
        r5.ler()
    );
}

#[test]
fn frame_simulator_and_dem_sampler_agree_end_to_end() {
    // Decoding statistics must be the same whether shots come from the
    // fast DEM sampler or from full circuit-level frame simulation.
    let code = SurfaceCode::new(3).unwrap();
    let noise = NoiseModel::depolarizing(4e-3);
    let circuit = build_memory_z_circuit(&code, 3, noise);
    let ctx = DecodingContext::from_circuit(&circuit);
    let mut decoder = MwpmDecoder::new(ctx.gwt());

    let trials = 40_000;
    let mut frame_failures = 0u32;
    let mut sim = FrameSimulator::new(&circuit);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for _ in 0..trials {
        let (dets, obs) = sim.sample(&circuit, &mut rng);
        let active: Vec<u32> = dets
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i as u32))
            .collect();
        frame_failures += (decoder.decode(&active).observables != obs) as u32;
    }

    let mut dem_failures = 0u32;
    let mut sampler = DemSampler::new(ctx.dem());
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    for _ in 0..trials {
        let shot = sampler.sample(&mut rng);
        dem_failures += (decoder.decode(&shot.detectors).observables != shot.observables) as u32;
    }

    let (a, b) = (frame_failures as f64, dem_failures as f64);
    assert!(a > 20.0 && b > 20.0, "need failures: frame {a}, dem {b}");
    // 5-sigma Poisson agreement.
    assert!(
        (a - b).abs() < 5.0 * (a + b).sqrt(),
        "frame {a} vs dem {b} failures"
    );
}

#[test]
fn full_run_is_deterministic() {
    let ctx = ExperimentContext::new(3, 5e-3);
    for (_, factory) in factories() {
        let a = estimate_ler(&ctx, 5_000, 3, 77, &*factory);
        let b = estimate_ler(&ctx, 5_000, 3, 77, &*factory);
        assert_eq!(a, b);
    }
}

#[test]
fn more_rounds_means_more_exposure() {
    // A memory experiment over 3d rounds accumulates roughly three logical
    // cycles of error exposure; its failure rate must exceed the d-round
    // experiment's.
    use qec_circuit::build_memory_z_circuit;
    let code = SurfaceCode::new(3).unwrap();
    let noise = NoiseModel::depolarizing(4e-3);
    let short = build_memory_z_circuit(&code, 3, noise);
    let long = build_memory_z_circuit(&code, 9, noise);
    let ctx_short = ExperimentContext::from_circuit(3, 4e-3, &short);
    let ctx_long = ExperimentContext::from_circuit(3, 4e-3, &long);
    let factory: Box<DecoderFactory> =
        Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())) as Box<dyn Decoder>);
    let r_short = estimate_ler(&ctx_short, 40_000, 4, 8, &*factory);
    let r_long = estimate_ler(&ctx_long, 40_000, 4, 8, &*factory);
    assert!(r_short.failures > 20);
    assert!(
        r_long.ler() > 1.5 * r_short.ler(),
        "3 rounds: {}, 9 rounds: {}",
        r_short.ler(),
        r_long.ler()
    );
}

#[test]
fn x_and_z_memory_have_statistically_equal_ler() {
    // §3.4: the bases are functionally equivalent under symmetric noise.
    use qec_circuit::{build_memory_x_circuit, build_memory_z_circuit};
    let code = SurfaceCode::new(3).unwrap();
    let noise = NoiseModel::depolarizing(5e-3);
    let zc = build_memory_z_circuit(&code, 3, noise);
    let xc = build_memory_x_circuit(&code, 3, noise);
    let zctx = ExperimentContext::from_circuit(3, 5e-3, &zc);
    let xctx = ExperimentContext::from_circuit(3, 5e-3, &xc);
    let factory: Box<DecoderFactory> =
        Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())) as Box<dyn Decoder>);
    let z = estimate_ler(&zctx, 60_000, 4, 4, &*factory);
    let x = estimate_ler(&xctx, 60_000, 4, 4, &*factory);
    let (zf, xf) = (z.failures as f64, x.failures as f64);
    assert!(zf > 30.0 && xf > 30.0, "need failures: z {zf}, x {xf}");
    assert!(
        (zf - xf).abs() < 6.0 * (zf + xf).sqrt(),
        "basis asymmetry: Z {zf} failures vs X {xf}"
    );
}

#[test]
fn stale_gwt_is_worse_than_reprogrammed_gwt_under_drift() {
    // §8.2: the GWT adapts to non-uniform error rates.
    use qec_circuit::{build_memory_circuit, NoiseMap};
    use surface_code::Basis;
    let code = SurfaceCode::new(3).unwrap();
    let base = 2e-3;
    let mut hot = NoiseMap::uniform(&code, NoiseModel::depolarizing(base));
    for q in [0usize, 1, 3, 4] {
        hot.scale_qubit(q, 10.0);
    }
    let true_circuit = build_memory_circuit(&code, 3, &hot, Basis::Z);
    let true_ctx = ExperimentContext::from_circuit(3, base, &true_circuit);
    let stale_ctx = ExperimentContext::new(3, base);

    let stale_gwt = stale_ctx.gwt();
    let stale: Box<DecoderFactory> =
        Box::new(move |_c| Box::new(MwpmDecoder::new(stale_gwt)) as Box<dyn Decoder>);
    let fresh: Box<DecoderFactory> =
        Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())) as Box<dyn Decoder>);
    let r_stale = estimate_ler(&true_ctx, 150_000, 4, 6, &*stale);
    let r_fresh = estimate_ler(&true_ctx, 150_000, 4, 6, &*fresh);
    assert!(r_fresh.failures > 30);
    assert!(
        r_stale.ler() >= r_fresh.ler(),
        "stale {} vs fresh {}",
        r_stale.ler(),
        r_fresh.ler()
    );
}
