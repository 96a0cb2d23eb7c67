//! The full decoder stack on the 1-D repetition code: every decoder in
//! the workspace is code-agnostic, so the bring-up code of the hardware
//! demos the paper cites must work end-to-end without modification.

use astrea::prelude::*;
use astrea_experiments::DecoderFactory;
use qec_circuit::build_repetition_memory_circuit;
use surface_code::RepetitionCode;

fn rep_ctx(d: usize, p: f64) -> ExperimentContext {
    let code = RepetitionCode::new(d).unwrap();
    let circuit = build_repetition_memory_circuit(&code, d, NoiseModel::depolarizing(p));
    ExperimentContext::from_circuit(d, p, &circuit)
}

#[test]
fn every_decoder_decodes_the_repetition_code() {
    let ctx = rep_ctx(5, 5e-3);
    let mwpm: Box<DecoderFactory> =
        Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())) as Box<dyn Decoder>);
    let astrea: Box<DecoderFactory> =
        Box::new(|c| Box::new(AstreaDecoder::new(c.gwt())) as Box<dyn Decoder>);
    let astrea_g: Box<DecoderFactory> =
        Box::new(|c| Box::new(AstreaGDecoder::new(c.gwt())) as Box<dyn Decoder>);
    let uf: Box<DecoderFactory> =
        Box::new(|c| Box::new(UnionFindDecoder::new(c.graph())) as Box<dyn Decoder>);
    let gwt_free: Box<DecoderFactory> = Box::new(|c| {
        Box::new(MwpmDecoder::new_local(c.graph(), c.decoding().boundary())) as Box<dyn Decoder>
    });

    let trivial = {
        let mut sampler = DemSampler::new(ctx.dem());
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        (0..30_000)
            .filter(|_| sampler.sample(&mut rng).observables != 0)
            .count() as u64
    };
    assert!(trivial > 100, "need raw failures to compare against");

    for (name, factory) in [
        ("MWPM", mwpm),
        ("Astrea", astrea),
        ("Astrea-G", astrea_g),
        ("UF", uf),
        ("MWPM (GWT-free)", gwt_free),
    ] {
        let r = estimate_ler(&ctx, 30_000, 2, 3, &*factory);
        assert!(
            r.failures * 3 < trivial,
            "{name} barely beats no decoding on the repetition code: \
             {} vs {trivial} raw flips",
            r.failures
        );
    }
}

#[test]
fn repetition_code_suppresses_errors_with_distance() {
    let p = 1e-2;
    let ctx3 = rep_ctx(3, p);
    let ctx7 = rep_ctx(7, p);
    let factory: Box<DecoderFactory> =
        Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())) as Box<dyn Decoder>);
    let r3 = estimate_ler(&ctx3, 60_000, 2, 5, &*factory);
    let r7 = estimate_ler(&ctx7, 60_000, 2, 5, &*factory);
    assert!(r3.failures > 30, "{}", r3.failures);
    assert!(
        r7.ler() < r3.ler() / 3.0,
        "d=3 {} vs d=7 {}",
        r3.ler(),
        r7.ler()
    );
}

#[test]
fn repetition_gwt_is_one_dimensional_and_tiny() {
    // ℓ = (d − 1)(rounds + 1): 24 detectors at d = 5 → a 576-byte GWT,
    // the scale LILLIPUT-era hardware targeted.
    let ctx = rep_ctx(5, 1e-3);
    assert_eq!(ctx.gwt().len(), 4 * 6);
    assert_eq!(ctx.gwt().quantized_bytes(), 576);
}
