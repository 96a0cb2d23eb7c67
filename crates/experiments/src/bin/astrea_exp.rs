//! `astrea-exp`: regenerates every table and figure of the Astrea paper's
//! evaluation section. See `DESIGN.md` for the experiment index.
//!
//! Usage:
//!
//! ```text
//! astrea-exp <experiment> [--trials N] [--threads N] [--seed N] [--fast]
//! ```
//!
//! where `<experiment>` is a paper artifact (`table1 table2 table4 table5
//! table6 table7 table9 fig3 fig4 fig6 fig9 fig10 fig12 fig13 fig14`, or
//! `all`) or an extension study (`basis drift quantization ablation
//! compression edgekinds latency`, or `extensions`). `--trials` (direct
//! Monte-Carlo shots) and `--per-k` (stratified trials per error-count
//! stratum) accept scientific notation (`1e7`); `--fast` divides all
//! presets by 10 for smoke runs.

use astrea_core::{
    overheads::StorageModel, AstreaDecoder, AstreaGConfig, AstreaGDecoder, CliqueDecoder,
    CycleModel, LutDecoder,
};
use astrea_experiments::{
    analytic, estimate_ler, hamming::HammingHistogram, report, stratified, DecoderFactory,
    ExperimentContext,
};
use blossom_mwpm::MwpmDecoder;
use decoding_graph::Decoder;
use qec_circuit::DemSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use surface_code::CodeResources;
use union_find_decoder::UnionFindDecoder;

#[derive(Debug, Clone)]
struct Options {
    experiment: String,
    trials: Option<u64>,
    per_k: Option<u64>,
    threads: usize,
    seed: u64,
    fast: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let experiment = args.next().ok_or_else(usage)?;
    let mut opts = Options {
        experiment,
        trials: None,
        per_k: None,
        threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        seed: 0x00A5_7EA0,
        fast: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trials" => {
                let v = args.next().ok_or("--trials needs a value")?;
                opts.trials = Some(report::parse_trials(&v)?);
            }
            "--per-k" => {
                let v = args.next().ok_or("--per-k needs a value")?;
                opts.per_k = Some(report::parse_trials(&v)?);
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                opts.threads = v.parse().map_err(|_| format!("bad thread count {v}"))?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--fast" => opts.fast = true,
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    Ok(opts)
}

fn usage() -> String {
    "usage: astrea-exp <experiment> [--trials N] [--per-k N] [--threads N] [--seed N] [--fast]\n\
     paper artifacts: table1 table2 table4 table5 table6 table7 table9\n\
                      fig3 fig4 fig6 fig9 fig10 fig12 fig13 fig14 | all\n\
     extensions:      basis drift quantization ablation compression\n\
                      edgekinds latency backlog | extensions"
        .to_string()
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    run(&opts.experiment.clone(), &opts);
    eprintln!("[{}] done in {:.1?}", opts.experiment, start.elapsed());
}

fn run(experiment: &str, opts: &Options) {
    match experiment {
        "table1" => table1(),
        "table2" => table2(opts),
        "table4" => table4(opts),
        "table5" => table5(opts),
        "table6" => table6(),
        "table7" => table7(opts),
        "table9" => table9(opts),
        "fig3" => fig3(opts),
        "fig4" => fig4(opts),
        "fig6" => fig6(opts),
        "fig9" => fig9(opts),
        "fig10" => fig10(opts),
        "fig12" => fig12(opts),
        "fig13" => fig13(opts),
        "fig14" => fig14(opts),
        "basis" => basis_symmetry(opts),
        "edgekinds" => edge_kinds(opts),
        "latency" => latency_profile(opts),
        "backlog" => backlog(opts),
        "drift" => drift(opts),
        "quantization" => quantization(opts),
        "ablation" => ablation(opts),
        "compression" => compression(opts),
        "all" => {
            for e in [
                "table1", "table2", "table4", "table5", "table6", "table7", "table9", "fig3",
                "fig4", "fig6", "fig9", "fig10", "fig12", "fig13", "fig14",
            ] {
                println!("\n================ {e} ================");
                run(e, opts);
            }
        }
        "extensions" => {
            for e in [
                "basis",
                "drift",
                "quantization",
                "ablation",
                "compression",
                "edgekinds",
                "latency",
            ] {
                println!("\n================ {e} ================");
                run(e, opts);
            }
        }
        other => {
            eprintln!("unknown experiment {other}\n{}", usage());
            std::process::exit(2);
        }
    }
}

fn preset(opts: &Options, default: u64) -> u64 {
    let t = opts.trials.unwrap_or(default);
    if opts.fast {
        (t / 10).max(1000)
    } else {
        t
    }
}

/// Per-stratum trial count for the stratified estimator (`--per-k`).
fn preset_per_k(opts: &Options, default: u64) -> u64 {
    let t = opts.per_k.unwrap_or(default);
    if opts.fast {
        (t / 10).max(500)
    } else {
        t
    }
}

// ---------------------------------------------------------------- factories

fn mwpm_factory<'a>() -> Box<DecoderFactory<'a>> {
    Box::new(|c: &ExperimentContext| Box::new(MwpmDecoder::new(c.gwt())) as Box<dyn Decoder>)
}

fn astrea_factory<'a>() -> Box<DecoderFactory<'a>> {
    Box::new(|c: &ExperimentContext| Box::new(AstreaDecoder::new(c.gwt())) as Box<dyn Decoder>)
}

fn astrea_g_factory<'a>(config: AstreaGConfig) -> Box<DecoderFactory<'a>> {
    Box::new(move |c: &ExperimentContext| {
        Box::new(AstreaGDecoder::with_config(c.gwt(), config)) as Box<dyn Decoder>
    })
}

fn uf_factory<'a>() -> Box<DecoderFactory<'a>> {
    Box::new(|c: &ExperimentContext| Box::new(UnionFindDecoder::new(c.graph())) as Box<dyn Decoder>)
}

fn clique_factory<'a>() -> Box<DecoderFactory<'a>> {
    Box::new(|c: &ExperimentContext| {
        Box::new(CliqueDecoder::new(c.graph(), c.gwt())) as Box<dyn Decoder>
    })
}

/// Stratified LER (Appendix A method) — usable even when the LER is far
/// below direct Monte-Carlo reach.
fn strat_ler<'a>(
    ctx: &'a ExperimentContext,
    opts: &Options,
    trials_per_k: u64,
    factory: &DecoderFactory<'a>,
) -> f64 {
    stratified::estimate_stratified(ctx, 14, trials_per_k, opts.threads, opts.seed, factory).ler()
}

// ---------------------------------------------------------------- table 1

fn table1() {
    println!("Table 1: Resources required for surface code logical qubits\n");
    let rows: Vec<Vec<String>> = [3usize, 5, 7, 9]
        .iter()
        .map(|&d| {
            let r = CodeResources::for_distance(d);
            vec![
                d.to_string(),
                r.data_qubits.to_string(),
                format!(
                    "{} + {} = {}",
                    r.parity_qubits_x,
                    r.parity_qubits_z,
                    r.parity_qubits_x + r.parity_qubits_z
                ),
                r.total_qubits.to_string(),
                format!(
                    "{} / {}",
                    r.syndrome_len_per_basis, r.syndrome_len_per_basis
                ),
            ]
        })
        .collect();
    print!(
        "{}",
        report::render_table(
            &["d", "Data", "Parity (X+Z)", "Total", "Syndrome (X/Z)"],
            &rows
        )
    );
}

// ---------------------------------------------------------------- table 2

fn table2(opts: &Options) {
    println!("Table 2: Syndrome-vector probability by Hamming weight (p = 1e-4)\n");
    let trials = preset(opts, 3_000_000);
    let groups: [(usize, usize); 5] = [(1, 2), (3, 4), (5, 6), (7, 10), (11, usize::MAX)];
    let mut rows: Vec<Vec<String>> = vec![
        vec!["0".into()],
        vec!["1,2".into()],
        vec!["3,4".into()],
        vec!["5,6".into()],
        vec!["7-10".into()],
        vec![">10".into()],
        vec!["LER (MWPM)".into()],
    ];
    for d in [3usize, 5, 7] {
        let ctx = ExperimentContext::new(d, 1e-4);
        let h = HammingHistogram::sample(&ctx, trials, opts.threads, opts.seed);
        rows[0].push(report::prob(h.probability(0)));
        for (i, (a, b)) in groups.iter().enumerate() {
            let p = if *b == usize::MAX {
                h.tail_probability(*a - 1)
            } else {
                h.probability_range(*a, *b)
            };
            rows[i + 1].push(report::prob(p));
        }
        let ler = strat_ler(&ctx, opts, preset_per_k(opts, 40_000), &*mwpm_factory());
        rows[6].push(report::sci(ler));
    }
    print!(
        "{}",
        report::render_table(&["Hamming Weight", "d=3", "d=5", "d=7"], &rows)
    );
    println!(
        "\n({} sampled syndromes per distance; LER via stratified estimator)",
        trials
    );
}

// ---------------------------------------------------------------- table 4

fn table4(opts: &Options) {
    println!("Table 4: Logical error rate by decoder at p = 1e-4, d rounds\n");
    let per_k = preset_per_k(opts, 40_000);
    let mut rows = Vec::new();
    for d in [3usize, 5, 7] {
        let ctx = ExperimentContext::new(d, 1e-4);
        let mwpm = strat_ler(&ctx, opts, per_k, &*mwpm_factory());
        let astrea = strat_ler(&ctx, opts, per_k, &*astrea_factory());
        let lilliput = if d == 3 {
            let lut = LutDecoder::build(ctx.gwt());
            let factory: Box<DecoderFactory> =
                Box::new(move |_c: &ExperimentContext| Box::new(lut.clone()) as Box<dyn Decoder>);
            report::sci(strat_ler(&ctx, opts, per_k, &*factory))
        } else {
            "N/A".to_string()
        };
        let clique = strat_ler(&ctx, opts, per_k, &*clique_factory());
        let afs = strat_ler(&ctx, opts, per_k, &*uf_factory());
        rows.push(vec![
            d.to_string(),
            report::sci(mwpm),
            report::sci(astrea),
            lilliput,
            report::sci(clique),
            report::sci(afs),
        ]);
    }
    print!(
        "{}",
        report::render_table(
            &["d", "MWPM", "Astrea", "LILLIPUT", "Clique", "AFS (UF)"],
            &rows
        )
    );
    println!("\n(stratified estimator, {per_k} trials per error-count stratum)");
}

// ---------------------------------------------------------------- table 5

fn table5(opts: &Options) {
    println!("Table 5: Syndrome-vector probability by Hamming weight, d = 7\n");
    let trials = preset(opts, 3_000_000);
    let mut rows: Vec<Vec<String>> = vec![
        vec!["0".into()],
        vec!["1 to 10".into()],
        vec![">10".into()],
        vec!["LER (MWPM)".into()],
    ];
    for p in [1e-3, 1e-4] {
        let ctx = ExperimentContext::new(7, p);
        let h = HammingHistogram::sample(&ctx, trials, opts.threads, opts.seed);
        rows[0].push(report::prob(h.probability(0)));
        rows[1].push(report::prob(h.probability_range(1, 10)));
        rows[2].push(report::sci(h.tail_probability(10)));
        let ler = strat_ler(&ctx, opts, preset_per_k(opts, 40_000), &*mwpm_factory());
        rows[3].push(report::sci(ler));
    }
    print!(
        "{}",
        report::render_table(&["Hamming Weight", "p=1e-3", "p=1e-4"], &rows)
    );
}

// ---------------------------------------------------------------- table 6

fn table6() {
    println!("Table 6: SRAM overheads for Astrea-G (per stabilizer basis)\n");
    let model = StorageModel::default();
    let (o7, o9) = (model.overheads(7), model.overheads(9));
    let fmt = |b: usize| {
        if b >= 1024 {
            format!("{:.1}KB", b as f64 / 1024.0)
        } else {
            format!("{b}B")
        }
    };
    let rows = vec![
        vec![
            "Global Weight Table (GWT)".to_string(),
            fmt(o7.gwt_bytes),
            fmt(o9.gwt_bytes),
        ],
        vec![
            "Local Weight Table (LWT)".to_string(),
            fmt(o7.lwt_bytes),
            fmt(o9.lwt_bytes),
        ],
        vec![
            "Priority Queues".to_string(),
            fmt(o7.priority_queue_bytes),
            fmt(o9.priority_queue_bytes),
        ],
        vec![
            "Pipeline Latches".to_string(),
            fmt(o7.pipeline_latch_bytes),
            fmt(o9.pipeline_latch_bytes),
        ],
        vec![
            "MWPM Register".to_string(),
            fmt(o7.mwpm_register_bytes),
            fmt(o9.mwpm_register_bytes),
        ],
        vec![
            "Total".to_string(),
            fmt(o7.total_bytes()),
            fmt(o9.total_bytes()),
        ],
    ];
    print!(
        "{}",
        report::render_table(&["Component", "d=7", "d=9"], &rows)
    );
}

// ---------------------------------------------------------------- table 7

fn table7(opts: &Options) {
    println!("Table 7: Bandwidth requirements for Astrea-G (d = 9, p = 1e-3)\n");
    let ctx = ExperimentContext::new(9, 1e-3);
    let per_k = preset_per_k(opts, 20_000);
    let model = CycleModel::default();
    let baseline_budget = model.cycles_within_ns(1000.0);
    let baseline = strat_ler(
        &ctx,
        opts,
        per_k,
        &*astrea_g_factory(AstreaGConfig {
            cycle_budget: baseline_budget,
            ..AstreaGConfig::default()
        }),
    );
    let mut rows = vec![vec![
        "0".to_string(),
        "Unlimited".to_string(),
        "1.00x".to_string(),
    ]];
    for trans_ns in [50.0, 100.0, 200.0, 300.0, 400.0, 500.0] {
        let budget = model.cycles_within_ns(1000.0 - trans_ns);
        let ler = strat_ler(
            &ctx,
            opts,
            per_k,
            &*astrea_g_factory(AstreaGConfig {
                cycle_budget: budget,
                ..AstreaGConfig::default()
            }),
        );
        let bw = astrea_core::overheads::required_bandwidth_mbps(9, trans_ns);
        rows.push(vec![
            format!("{trans_ns:.0}"),
            format!("{bw:.0}"),
            format!("{:.2}x", ler / baseline.max(1e-300)),
        ]);
    }
    print!(
        "{}",
        report::render_table(
            &["Transmission (ns)", "Bandwidth (MBps)", "Relative LER"],
            &rows
        )
    );
}

// ---------------------------------------------------------------- table 9

fn table9(opts: &Options) {
    println!("Table 9 (Appendix A): stratified LER at p = 1e-4\n");
    let per_k = preset_per_k(opts, 20_000);
    let mut rows = Vec::new();
    for d in [7usize, 9, 11] {
        eprintln!("[table9] building d={d} context...");
        let ctx = ExperimentContext::new(d, 1e-4);
        let mwpm = strat_ler(&ctx, opts, per_k, &*mwpm_factory());
        let g = strat_ler(
            &ctx,
            opts,
            per_k,
            &*astrea_g_factory(AstreaGConfig::default()),
        );
        rows.push(vec![d.to_string(), report::sci(mwpm), report::sci(g)]);
    }
    print!(
        "{}",
        report::render_table(&["d", "MWPM LER", "Astrea-G LER"], &rows)
    );
}

// ---------------------------------------------------------------- fig 3

fn fig3(opts: &Options) {
    println!("Figure 3: software MWPM decoding latency (d = 7, p = 1e-3)\n");
    let ctx = ExperimentContext::new(7, 1e-3);
    let trials = preset(opts, 20_000);
    let decoder = MwpmDecoder::new(ctx.gwt());
    let local = MwpmDecoder::new_local(ctx.graph(), ctx.decoding().boundary());
    let mut sampler = DemSampler::new(ctx.dem());
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut table_us: Vec<f64> = Vec::new();
    let mut local_us: Vec<f64> = Vec::new();
    for _ in 0..trials {
        let shot = sampler.sample(&mut rng);
        if shot.detectors.is_empty() {
            continue;
        }
        let t = Instant::now();
        let _ = decoder.decode_full(&shot.detectors);
        table_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let _ = local.decode_full(&shot.detectors);
        local_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    for (name, latencies_us) in [
        ("exact MWPM", &mut table_us),
        ("GWT-free exact MWPM", &mut local_us),
    ] {
        latencies_us.sort_by(f64::total_cmp);
        let n = latencies_us.len().max(1);
        let pct = |q: f64| latencies_us[((n as f64 * q) as usize).min(n - 1)];
        let over_1us = latencies_us.iter().filter(|&&t| t > 1.0).count();
        println!("{name}: {n} nonzero syndromes decoded");
        println!(
            "  p50 = {:.2} us, p90 = {:.2} us, p99 = {:.2} us, max = {:.2} us",
            pct(0.5),
            pct(0.9),
            pct(0.99),
            latencies_us.last().copied().unwrap_or(0.0)
        );
        println!(
            "  fraction exceeding the 1 us real-time budget: {:.1}%",
            100.0 * over_1us as f64 / n as f64
        );
    }
    println!("\n(notes: both rows time decode_full, the production engine: closed form,");
    println!(" staged subset DP, or one whole-shot sparse blossom. The first row reads");
    println!(" the precomputed GWT, so its average case is far faster than the paper's");
    println!(" 2023-era BlossomV baseline, which missed 1 us on 96% of nonzero");
    println!(" syndromes; the qualitative point — a worst-case tail hundreds of times");
    println!(" the median, which no software decoder can bound — reproduces in both");
    println!(" rows. The GWT-free row is the same exact matcher with no table: it");
    println!(" stages pair weights by truncated Dijkstra on the O(edges) graph. A deep");
    println!(" shot is seeded with each fired detector's 4 nearest neighbours, then");
    println!(" priced and repaired until its matching is certified optimal, so it");
    println!(" returns a matching of the table's weight and is how software scales to");
    println!(" large d.)");
}

// ---------------------------------------------------------------- fig 4

fn fig4(opts: &Options) {
    println!("Figure 4: LER vs distance at p = 1e-4 (MWPM / AFS-UF / Clique)\n");
    let per_k = preset_per_k(opts, 40_000);
    let mut rows = Vec::new();
    for d in [3usize, 5, 7] {
        let ctx = ExperimentContext::new(d, 1e-4);
        rows.push(vec![
            d.to_string(),
            report::sci(strat_ler(&ctx, opts, per_k, &*mwpm_factory())),
            report::sci(strat_ler(&ctx, opts, per_k, &*uf_factory())),
            report::sci(strat_ler(&ctx, opts, per_k, &*clique_factory())),
        ]);
    }
    print!(
        "{}",
        report::render_table(&["d", "MWPM", "AFS (UF)", "Clique+MWPM"], &rows)
    );
}

// ---------------------------------------------------------------- fig 6

fn fig6(opts: &Options) {
    println!("Figure 6: Hamming-weight probabilities, analytic bound vs observed");
    println!("(d = 5, p = 1e-4)\n");
    let ctx = ExperimentContext::new(5, 1e-4);
    let trials = preset(opts, 3_000_000);
    let h = HammingHistogram::sample(&ctx, trials, opts.threads, opts.seed);
    let mut rows = Vec::new();
    for hw in (0..=12usize).step_by(2) {
        rows.push(vec![
            hw.to_string(),
            report::sci(analytic::hamming_weight_probability(5, 1e-4, hw)),
            report::sci(h.probability(hw) + if hw > 0 { h.probability(hw - 1) } else { 0.0 }),
        ]);
    }
    print!(
        "{}",
        report::render_table(&["HW", "Upper bound (model)", "Observed (hw, hw-1)"], &rows)
    );
    println!("\n(observed column groups odd weights with the even weight above them;");
    println!(" the analytic model only produces even weights)");
}

// ---------------------------------------------------------------- fig 9

fn fig9(opts: &Options) {
    println!("Figure 9: Astrea decode latency at p = 1e-4 (250 MHz cycle model)\n");
    let trials = preset(opts, 2_000_000);
    let mut rows = Vec::new();
    for d in [3usize, 5, 7] {
        let ctx = ExperimentContext::new(d, 1e-4);
        let r = estimate_ler(&ctx, trials, opts.threads, opts.seed, &*astrea_factory());
        rows.push(vec![
            d.to_string(),
            format!("{:.2}", r.latency.mean_ns(250.0)),
            format!("{:.1}", r.latency.mean_nontrivial_ns(250.0)),
            format!("{:.0}", r.latency.max_ns(250.0)),
        ]);
    }
    print!(
        "{}",
        report::render_table(&["d", "Mean (ns)", "Mean HW>2 (ns)", "Max (ns)"], &rows)
    );
    println!("\n(paper: mean ≤ 1 ns, max 32/80/456 ns for d = 3/5/7)");
}

// ---------------------------------------------------------------- fig 10

fn fig10(opts: &Options) {
    println!("Figure 10a: distribution of GWT pair weights (d = 7, p = 1e-3)\n");
    let ctx = ExperimentContext::new(7, 1e-3);
    let gwt = ctx.gwt();
    let n = gwt.len() as u32;
    let mut hist = vec![0u64; 33];
    let mut total = 0u64;
    for i in 0..n {
        for j in 0..n {
            let w = if i == j {
                gwt.boundary_weight(i)
            } else {
                gwt.pair_weight(i, j)
            };
            let bucket = w.clamp(0.0, 32.0) as usize;
            hist[bucket.min(32)] += 1;
            total += 1;
        }
    }
    let mut rows = Vec::new();
    for (w, &c) in hist.iter().enumerate() {
        if c > 0 {
            rows.push(vec![
                w.to_string(),
                format!("{:.3}", c as f64 / total as f64),
                "#".repeat((60 * c / total.max(1)) as usize + usize::from(c > 0)),
            ]);
        }
    }
    print!(
        "{}",
        report::render_table(&["Weight", "Frequency", ""], &rows)
    );

    println!("\nFigure 10b: pairs per syndrome bit after filtering (Wth = 8)\n");
    // Sample a Hamming-weight-16 syndrome like the paper's example.
    let mut sampler = DemSampler::new(ctx.dem());
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let shot = loop {
        let s = sampler.sample(&mut rng);
        if s.detectors.len() == 16 {
            break s.clone();
        }
    };
    let wth = 8.0;
    let mut kept_total = 0usize;
    let mut rows = Vec::new();
    for (bi, &i) in shot.detectors.iter().enumerate() {
        let kept = shot
            .detectors
            .iter()
            .filter(|&&j| {
                j != i
                    && gwt
                        .pair_weight(i, j)
                        .min(gwt.boundary_weight(i) + gwt.boundary_weight(j))
                        <= wth
            })
            .count();
        kept_total += kept;
        rows.push(vec![bi.to_string(), 15.to_string(), kept.to_string()]);
    }
    print!(
        "{}",
        report::render_table(
            &["Syndrome bit", "Pairs (unfiltered)", "Pairs (W ≤ 8)"],
            &rows
        )
    );
    let reduction = 1.0 - kept_total as f64 / (16.0 * 15.0);
    println!(
        "\npair reduction: {:.0}% (paper: 58% fewer pairs → ~953x fewer matchings)",
        reduction * 100.0
    );
}

// ---------------------------------------------------------------- fig 12 / fig 14

fn ler_sweep(opts: &Options, d: usize, label: &str) {
    println!("{label}: LER of MWPM vs Astrea-G, d = {d}\n");
    let per_k = preset_per_k(opts, 20_000);
    let mut rows = Vec::new();
    for i in 1..=10 {
        let p = i as f64 * 1e-4;
        let ctx = ExperimentContext::new(d, p);
        let mwpm = strat_ler(&ctx, opts, per_k, &*mwpm_factory());
        let g = strat_ler(
            &ctx,
            opts,
            per_k,
            &*astrea_g_factory(AstreaGConfig::default()),
        );
        rows.push(vec![
            format!("{:.0e}", p),
            report::sci(mwpm),
            report::sci(g),
            format!("{:.2}x", g / mwpm.max(1e-300)),
        ]);
        eprintln!("[{label}] p = {p:.0e} done");
    }
    print!(
        "{}",
        report::render_table(&["p", "MWPM", "Astrea-G", "ratio"], &rows)
    );
}

fn fig12(opts: &Options) {
    ler_sweep(opts, 7, "Figure 12");
}

fn fig14(opts: &Options) {
    ler_sweep(opts, 9, "Figure 14");
}

// ---------------------------------------------------------------- fig 13

fn fig13(opts: &Options) {
    println!("Figure 13: Astrea-G LER vs weight threshold (d = 7, p = 1e-3)\n");
    let ctx = ExperimentContext::new(7, 1e-3);
    let per_k = preset_per_k(opts, 20_000);
    let mwpm = strat_ler(&ctx, opts, per_k, &*mwpm_factory());
    let mut rows = Vec::new();
    for wth10 in (40..=80).step_by(5) {
        let wth = wth10 as f64 / 10.0;
        let ler = strat_ler(
            &ctx,
            opts,
            per_k,
            &*astrea_g_factory(AstreaGConfig {
                weight_threshold: wth,
                ..AstreaGConfig::default()
            }),
        );
        rows.push(vec![
            format!("{wth:.1}"),
            report::sci(ler),
            format!("{:.2}x", ler / mwpm.max(1e-300)),
        ]);
    }
    print!(
        "{}",
        report::render_table(&["Wth", "Astrea-G LER", "vs MWPM"], &rows)
    );
    println!("\n(MWPM reference LER: {})", report::sci(mwpm));
}

// ------------------------------------------------------ extension: basis

/// X-basis vs Z-basis memory experiments (§3.4 claims they are
/// functionally equivalent under the symmetric noise model; verify it).
fn basis_symmetry(opts: &Options) {
    use qec_circuit::{build_memory_x_circuit, build_memory_z_circuit, NoiseModel};
    use surface_code::SurfaceCode;
    println!("Extension: X-basis vs Z-basis memory LER (d = 3, 5)\n");
    let trials = preset(opts, 400_000);
    let p = 3e-3;
    let mut rows = Vec::new();
    for d in [3usize, 5] {
        let code = SurfaceCode::new(d).expect("valid distance");
        let zc = build_memory_z_circuit(&code, d, NoiseModel::depolarizing(p));
        let xc = build_memory_x_circuit(&code, d, NoiseModel::depolarizing(p));
        let zctx = ExperimentContext::from_circuit(d, p, &zc);
        let xctx = ExperimentContext::from_circuit(d, p, &xc);
        let z = estimate_ler(&zctx, trials, opts.threads, opts.seed, &*mwpm_factory()).ler();
        let x = estimate_ler(&xctx, trials, opts.threads, opts.seed, &*mwpm_factory()).ler();
        rows.push(vec![
            d.to_string(),
            report::sci(z),
            report::sci(x),
            format!("{:.2}", x / z.max(1e-300)),
        ]);
    }
    print!(
        "{}",
        report::render_table(&["d", "Z-memory LER", "X-memory LER", "X/Z"], &rows)
    );
    println!("\n(p = {p}; the ratio should be ≈ 1 — the bases are symmetric)");
}

// ------------------------------------------------------ extension: drift

/// Non-uniform error rates and drift (§8.2): a decoder whose GWT was
/// programmed for uniform noise loses accuracy when a region of the chip
/// runs hot; reprogramming the GWT from the true rates recovers it.
fn drift(opts: &Options) {
    use qec_circuit::{build_memory_circuit, NoiseMap, NoiseModel};
    use surface_code::{Basis, SurfaceCode};
    println!("Extension: GWT reprogramming under non-uniform noise (§8.2)\n");
    let trials = preset(opts, 400_000);
    let d = 5;
    let base = 1e-3;
    let code = SurfaceCode::new(d).expect("valid distance");

    // True device: one quadrant of the data qubits runs 8x hotter.
    let mut hot = NoiseMap::uniform(&code, NoiseModel::depolarizing(base));
    for r in 0..d / 2 {
        for c in 0..d / 2 {
            hot.scale_qubit(r * d + c, 8.0);
        }
    }
    let true_circuit = build_memory_circuit(&code, d, &hot, Basis::Z);
    let true_ctx = ExperimentContext::from_circuit(d, base, &true_circuit);

    // Stale decoder: GWT built assuming uniform noise.
    let stale_ctx = ExperimentContext::new(d, base);

    let stale_gwt = stale_ctx.gwt();
    let stale_factory: Box<DecoderFactory> =
        Box::new(move |_c| Box::new(MwpmDecoder::new(stale_gwt)) as Box<dyn Decoder>);
    let fresh_factory = mwpm_factory();

    let stale = estimate_ler(&true_ctx, trials, opts.threads, opts.seed, &*stale_factory);
    let fresh = estimate_ler(&true_ctx, trials, opts.threads, opts.seed, &*fresh_factory);

    let rows = vec![
        vec![
            "uniform-noise GWT (stale)".to_string(),
            report::sci(stale.ler()),
        ],
        vec![
            "reprogrammed GWT (true rates)".to_string(),
            report::sci(fresh.ler()),
        ],
    ];
    print!(
        "{}",
        report::render_table(&["decoder weights", "LER"], &rows)
    );
    println!(
        "\n(d = {d}, base p = {base}, one quadrant 8x hotter, {trials} trials; \
         reprogramming gain: {:.2}x)",
        stale.ler() / fresh.ler().max(1e-300)
    );
}

// ------------------------------------------------ extension: quantization

/// Weight-quantization ablation: the paper stores 8-bit weights in the
/// GWT (§5.1); sweep the fixed-point scale to confirm 8 bits at Q5.3 is
/// accuracy-neutral.
fn quantization(opts: &Options) {
    use decoding_graph::GlobalWeightTable;
    println!("Extension: GWT quantization scale vs accuracy (d = 5, p = 3e-3)\n");
    let trials = preset(opts, 400_000);
    let ctx = ExperimentContext::new(5, 3e-3);
    let exact = estimate_ler(&ctx, trials, opts.threads, opts.seed, &*mwpm_factory());
    let mut rows = vec![vec![
        "exact (f64)".to_string(),
        report::sci(exact.ler()),
        "1.00x".to_string(),
    ]];
    for scale in [1.0f64, 2.0, 4.0, 8.0, 16.0] {
        let gwt = GlobalWeightTable::with_scale(ctx.graph(), scale);
        let gwt_ref = &gwt;
        let factory: Box<DecoderFactory> = Box::new(move |_c| {
            Box::new(MwpmDecoder::with_quantized_weights(gwt_ref)) as Box<dyn Decoder>
        });
        let r = estimate_ler(&ctx, trials, opts.threads, opts.seed, &*factory);
        rows.push(vec![
            format!("u8 @ {scale} subunits/weight"),
            report::sci(r.ler()),
            format!("{:.2}x", r.ler() / exact.ler().max(1e-300)),
        ]);
    }
    print!(
        "{}",
        report::render_table(&["weight representation", "LER", "vs exact"], &rows)
    );
    println!("\n(coarser scales lose resolution; the paper's 8-bit table is lossless in LER)");
}

// ----------------------------------------------------- extension: ablation

/// Fetch-width / queue-capacity ablation (§7.1: "larger fetch widths and
/// priority queues improve accuracy but require more logic").
fn ablation(opts: &Options) {
    println!("Extension: Astrea-G fetch width F and queue capacity E (d = 7, p = 1e-3)\n");
    let per_k = preset_per_k(opts, 10_000);
    let ctx = ExperimentContext::new(7, 1e-3);
    let mwpm = strat_ler(&ctx, opts, per_k, &*mwpm_factory());
    let mut rows = Vec::new();
    for (f, e) in [(1usize, 4usize), (1, 8), (2, 4), (2, 8), (4, 8), (4, 16)] {
        let ler = strat_ler(
            &ctx,
            opts,
            per_k,
            &*astrea_g_factory(AstreaGConfig {
                fetch_width: f,
                queue_capacity: e,
                ..AstreaGConfig::default()
            }),
        );
        rows.push(vec![
            f.to_string(),
            e.to_string(),
            report::sci(ler),
            format!("{:.2}x", ler / mwpm.max(1e-300)),
        ]);
    }
    print!(
        "{}",
        report::render_table(&["F", "E", "Astrea-G LER", "vs MWPM"], &rows)
    );
    println!(
        "\n(MWPM reference: {}; paper default F = 2, E = 8)",
        report::sci(mwpm)
    );
}

// -------------------------------------------------- extension: compression

/// Syndrome compression (§7.6): sparse index coding shrinks the per-round
/// transmission and thus the bandwidth needed to preserve the decode
/// budget of Table 7.
fn compression(opts: &Options) {
    use astrea_core::SyndromeCompressor;
    use qec_circuit::Shot;
    println!("Extension: syndrome compression and bandwidth (d = 9, p = 1e-3)\n");
    let trials = preset(opts, 300_000);
    let ctx = ExperimentContext::new(9, 1e-3);
    // Per-round syndromes: (d² − 1) = 80 parity bits per round at d = 9
    // (both bases, matching §7.6's 80-bit figure).
    let round_bits = ctx.distance * ctx.distance - 1;
    let codec = SyndromeCompressor::new(round_bits);

    // Sample logical-cycle syndromes and derive per-round Hamming weights.
    let mut sampler = DemSampler::new(ctx.dem());
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut shot = Shot::default();
    let per_layer = ctx.gwt().len() / (ctx.distance + 1);
    let (mut total_raw, mut total_sparse) = (0u64, 0u64);
    let mut worst_round_bits = 0usize;
    for _ in 0..trials {
        sampler.sample_into(&mut rng, &mut shot);
        // Detector ids are round-major; count per round and double to
        // approximate both-basis traffic.
        for round in 0..=ctx.distance {
            let hw = shot
                .detectors
                .iter()
                .filter(|&&d| (d as usize) / per_layer == round)
                .count()
                * 2;
            total_raw += codec.raw_bits() as u64;
            let bits = codec.encoded_bits(hw);
            total_sparse += bits as u64;
            worst_round_bits = worst_round_bits.max(bits);
        }
    }
    let ratio = total_raw as f64 / total_sparse as f64;
    let rows = vec![
        vec![
            "raw bitmap".to_string(),
            format!("{}", codec.raw_bits()),
            "1.0x".to_string(),
        ],
        vec![
            "sparse (mean)".to_string(),
            format!(
                "{:.1}",
                total_sparse as f64 / (trials * (ctx.distance as u64 + 1)) as f64
            ),
            format!("{ratio:.1}x"),
        ],
        vec![
            "sparse (worst observed)".to_string(),
            worst_round_bits.to_string(),
            format!("{:.1}x", codec.raw_bits() as f64 / worst_round_bits as f64),
        ],
    ];
    print!(
        "{}",
        report::render_table(&["encoding", "bits/round", "bandwidth saving"], &rows)
    );
    println!(
        "\n(Table 7 needs 50 MBps for raw 80-bit rounds in 200 ns; a {ratio:.0}x \
         compression cuts that to ~{:.0} MBps)",
        50.0 / ratio
    );
}

// -------------------------------------------------- extension: edge kinds

/// How the circuit-level noise mass splits across §4.1's event classes
/// (space / time / space-time / boundary) at each distance.
fn edge_kinds(_opts: &Options) {
    println!("Extension: error-probability mass by space-time event class (p = 1e-3)\n");
    let mut rows = Vec::new();
    for d in [3usize, 5, 7] {
        let ctx = ExperimentContext::new(d, 1e-3);
        let kinds = ctx.graph().probability_by_kind();
        let total: f64 = kinds.iter().map(|&(_, p, _)| p).sum();
        for (kind, p, count) in kinds {
            rows.push(vec![
                d.to_string(),
                kind.to_string(),
                count.to_string(),
                report::sci(p),
                format!("{:.0}%", 100.0 * p / total),
            ]);
        }
    }
    print!(
        "{}",
        report::render_table(
            &["d", "event class", "edges", "total prob.", "share"],
            &rows
        )
    );
    println!("\n(every class of Figure 5 is populated; CNOT hooks dominate edge count)");
}

// ------------------------------------------------ extension: latency

/// Astrea-G latency profile by Hamming weight (§7.2/§7.4: "average
/// decoding latency of about 131 ns for p = 10⁻³ [d = 7] ... 450 ns
/// [d = 9] with the worst case being 1 µs").
fn latency_profile(opts: &Options) {
    use qec_circuit::Shot;
    println!("Extension: Astrea-G latency by Hamming weight (250 MHz model)\n");
    let trials = preset(opts, 300_000);
    let model = CycleModel::default();
    let mut rows = Vec::new();
    for d in [7usize, 9] {
        let ctx = ExperimentContext::new(d, 1e-3);
        let mut dec = AstreaGDecoder::new(ctx.gwt());
        let mut sampler = DemSampler::new(ctx.dem());
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut shot = Shot::default();
        // (count, total cycles, max cycles) per HW bucket.
        let mut buckets = [(0u64, 0u64, 0u64); 4]; // 0-2, 3-10, 11-20, >20
        let (mut total_cycles, mut shots, mut max_cycles) = (0u64, 0u64, 0u64);
        for _ in 0..trials {
            sampler.sample_into(&mut rng, &mut shot);
            let hw = shot.detectors.len();
            let p = dec.decode(&shot.detectors);
            let b = match hw {
                0..=2 => 0,
                3..=10 => 1,
                11..=20 => 2,
                _ => 3,
            };
            buckets[b].0 += 1;
            buckets[b].1 += p.cycles;
            buckets[b].2 = buckets[b].2.max(p.cycles);
            total_cycles += p.cycles;
            shots += 1;
            max_cycles = max_cycles.max(p.cycles);
        }
        for (label, (n, sum, max)) in ["HW 0-2", "HW 3-10", "HW 11-20", "HW >20"]
            .iter()
            .zip(buckets)
        {
            if n == 0 {
                continue;
            }
            rows.push(vec![
                d.to_string(),
                label.to_string(),
                n.to_string(),
                format!("{:.1}", model.to_ns(sum) / n as f64),
                format!("{:.0}", model.to_ns(max)),
            ]);
        }
        rows.push(vec![
            d.to_string(),
            "all".to_string(),
            shots.to_string(),
            format!("{:.1}", model.to_ns(total_cycles) / shots as f64),
            format!("{:.0}", model.to_ns(max_cycles)),
        ]);
    }
    print!(
        "{}",
        report::render_table(&["d", "bucket", "shots", "mean ns", "max ns"], &rows)
    );
    println!("\n(paper §7.2/§7.4: mean 131 ns at d = 7, 450 ns at d = 9, worst case 1 us)");
}

// ------------------------------------------------- extension: backlog

/// Real-time queueing: feed each decoder's latency stream into a FIFO
/// server clocked at the syndrome cadence (d µs per decoding window) and
/// measure the backlog — the quantitative version of §1's "software
/// decoders are too slow" argument (Figure 1b).
fn backlog(opts: &Options) {
    use astrea_experiments::realtime::simulate_backlog;
    println!("Extension: decode backlog at the real-time cadence (d = 7, p = 1e-3)\n");
    let windows = preset(opts, 60_000) as usize;
    let ctx = ExperimentContext::new(7, 1e-3);
    let period_ns = ctx.distance as f64 * 1000.0; // one window per logical cycle

    let mut sampler = DemSampler::new(ctx.dem());
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mwpm = MwpmDecoder::new(ctx.gwt());
    let mut astrea_g = AstreaGDecoder::new(ctx.gwt());
    let clock = CycleModel::default();

    let mut sw_lat = Vec::with_capacity(windows);
    let mut hw_lat = Vec::with_capacity(windows);
    for _ in 0..windows {
        let shot = sampler.sample(&mut rng);
        if shot.detectors.is_empty() {
            sw_lat.push(0.0);
            hw_lat.push(0.0);
            continue;
        }
        let t = Instant::now();
        let _ = mwpm.decode_full(&shot.detectors);
        sw_lat.push(t.elapsed().as_secs_f64() * 1e9);
        let p = astrea_g.decode(&shot.detectors);
        hw_lat.push(clock.to_ns(p.cycles));
    }

    let sw = simulate_backlog(period_ns, &sw_lat);
    let hw = simulate_backlog(period_ns, &hw_lat);
    let rows = vec![
        vec![
            "software MWPM (measured)".to_string(),
            sw.max_backlog.to_string(),
            format!("{:.0}", sw.p99_sojourn_ns),
            format!("{:.0}", sw.max_sojourn_ns),
            format!("{:.3}%", 100.0 * sw.late_fraction),
        ],
        vec![
            "Astrea-G (cycle model)".to_string(),
            hw.max_backlog.to_string(),
            format!("{:.0}", hw.p99_sojourn_ns),
            format!("{:.0}", hw.max_sojourn_ns),
            format!("{:.3}%", 100.0 * hw.late_fraction),
        ],
    ];
    print!(
        "{}",
        report::render_table(
            &[
                "decoder",
                "max backlog",
                "p99 sojourn ns",
                "max sojourn ns",
                "late windows"
            ],
            &rows
        )
    );
    println!(
        "\n({windows} decoding windows at one per {:.0} ns; a \"late\" window's \
         correction misses the next logical cycle. Astrea-G's bounded worst \
         case keeps the queue empty by construction.)",
        period_ns
    );
}
