//! Large-distance profiler for the GWT-free local weight path: runs
//! memory-experiment LER estimates at d ∈ {15, 21, 31} — distances whose
//! Global Weight Table would occupy ~42 MB, ~304 MB, and ~3.1 GB — on
//! contexts that never materialize one, and records throughput plus the
//! per-point peak RSS against the quadratic GWT projection in
//! `results/BENCH_local.json`. Every (distance, p) point is measured once
//! per deep-tail backend — `graph-pd` (the default graph-native
//! primal-dual engine) and `ondemand` (the on-demand staged discovery
//! engine, bit-identical to the GWT) — so the artifact carries the A/B
//! comparison directly.
//!
//! Usage: `profile_local [--smoke] [--p <prob>] [trials] [output.json]` —
//! `trials` is the d = 15 trial count (defaults 20 000); larger distances
//! scale down with their per-shot cost. Each (distance, p, backend) point
//! runs in a fresh child process, so `peak_rss_bytes` is that point's own
//! VmHWM rather than the running maximum of every point before it. By
//! default every distance is measured at p = 10⁻³ *and* p = 5×10⁻³ (the
//! latter exercises real defect densities instead of a structurally-zero
//! LER column); `--p` restricts the sweep to a single probability.
//! `--smoke` runs a CI-sized d = 15 check (seconds, not minutes): it
//! asserts the context is GWT-free, that the staging engines actually
//! engaged (non-zero provider counters through the pipeline), that each
//! backend's point beat a loose throughput floor so a staging regression
//! can't land silently, that backend dispatch does not drift (a graph-pd
//! run leaves the on-demand counters idle and vice versa), and that a d = 5
//! point decoded GWT-free with the on-demand engine pinned agrees with the
//! GWT-backed one bit-for-bit — and skips the JSON artifact so smoke
//! numbers never overwrite full-size results.

use astrea_experiments::{
    estimate_ler_streamed_counted, sample_batch, DecoderFactory, ExperimentContext, PipelineConfig,
};
use blossom_mwpm::{DeepBackend, MwpmDecoder};
use decoding_graph::{DecodeScratch, WeightSource};
use std::fmt::Write as _;
use std::time::Instant;

const SEED: u64 = 7;
const THREADS: usize = 8;
const DEFAULT_PS: [f64; 2] = [1e-3, 5e-3];
/// Smoke throughput floor: the d = 15 point must decode its shots inside
/// this budget (per backend). The measured rates on the reference host
/// are ≥ 40× the floor, so only a catastrophic staging regression (or a
/// return of the all-pairs wall) trips it.
const SMOKE_TRIALS: u64 = 2_000;
const SMOKE_BUDGET_S: f64 = 120.0;

/// Process high-water-mark RSS from `/proc/self/status` (Linux); `None`
/// elsewhere. Monotone over the process lifetime — which is why every
/// full-run point gets a process of its own.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

fn backend_name(backend: DeepBackend) -> &'static str {
    match backend {
        DeepBackend::Ondemand => "ondemand",
        DeepBackend::GraphPd => "graph-pd",
        DeepBackend::Staged => "staged",
    }
}

fn parse_backend(name: &str) -> DeepBackend {
    match name {
        "ondemand" => DeepBackend::Ondemand,
        "graph-pd" => DeepBackend::GraphPd,
        "staged" => DeepBackend::Staged,
        other => panic!("unknown backend {other:?}"),
    }
}

struct Point {
    distance: usize,
    p: f64,
    backend: DeepBackend,
    trials: u64,
    failures: u64,
    wall_s: f64,
    peak_rss: Option<u64>,
    gwt_projected: usize,
    detectors: usize,
    local_stages: u64,
    ondemand_stages: u64,
    ondemand_settled: u64,
    graphpd_stages: u64,
    graphpd_grows: u64,
    graphpd_merges: u64,
}

fn measure(distance: usize, p: f64, trials: u64, backend: DeepBackend) -> Point {
    let build = Instant::now();
    let ctx = ExperimentContext::new(distance, p);
    println!(
        "d={distance} p={p} [{}]: context built in {:?} (ℓ = {}, GWT projection {:.1} MB, \
         source {:?})",
        backend_name(backend),
        build.elapsed(),
        ctx.graph().num_detectors(),
        ctx.decoding().gwt_projected_bytes() as f64 / (1024.0 * 1024.0),
        ctx.weight_source(),
    );
    assert_eq!(
        ctx.weight_source(),
        WeightSource::Local,
        "d = {distance} must resolve GWT-free under the auto budget"
    );
    assert!(ctx.decoding().try_gwt().is_none());
    let factory: Box<DecoderFactory> = Box::new(move |c| {
        Box::new(MwpmDecoder::for_context(c.decoding()).with_deep_backend(backend))
    });
    let t = Instant::now();
    let (result, counters) = estimate_ler_streamed_counted(
        &ctx,
        trials,
        SEED,
        &*factory,
        PipelineConfig::for_threads(THREADS),
    );
    let wall_s = t.elapsed().as_secs_f64();
    assert_eq!(counters.shots_screened, trials);
    println!(
        "d={distance} p={p} [{}]: {} trials in {:.1}s ({:.0} shots/s), {} failures (LER \
         {:.2e}), peak RSS {:.1} MB, staged: {} stages / {} settled, on-demand: {} stages / {} \
         regions / {} settled / {} collisions / {} pruned / {} excluded, graph-pd: {} stages / \
         {} regions / {} grows / {} merges / {} pruned / {} excluded",
        backend_name(backend),
        trials,
        wall_s,
        trials as f64 / wall_s,
        result.failures,
        result.ler(),
        peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0)),
        counters.local_weights.stages,
        counters.local_weights.settled,
        counters.ondemand.stages,
        counters.ondemand.regions,
        counters.ondemand.settled,
        counters.ondemand.collisions,
        counters.ondemand.deadline_pruned,
        counters.ondemand.excluded,
        counters.graphpd.stages,
        counters.graphpd.regions,
        counters.graphpd.grows,
        counters.graphpd.merges,
        counters.graphpd.deadline_pruned,
        counters.graphpd.excluded,
    );
    Point {
        distance,
        p,
        backend,
        trials,
        failures: result.failures,
        wall_s,
        peak_rss: peak_rss_bytes(),
        gwt_projected: ctx.decoding().gwt_projected_bytes(),
        detectors: ctx.graph().num_detectors(),
        local_stages: counters.local_weights.stages,
        ondemand_stages: counters.ondemand.stages,
        ondemand_settled: counters.ondemand.settled,
        graphpd_stages: counters.graphpd.stages,
        graphpd_grows: counters.graphpd.grows,
        graphpd_merges: counters.graphpd.merges,
    }
}

fn point_json(pt: &Point) -> String {
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"distance\": {}, \"p\": {:e}, \"backend\": \"{}\", \"detectors\": {}, \
         \"trials\": {}, \"failures\": {}, \"ler\": {:.6e}, \"wall_s\": {:.3}, \
         \"shots_per_s\": {:.1}, \"gwt_projected_bytes\": {}, \"local_stages\": {}, \
         \"ondemand_stages\": {}, \"ondemand_settled\": {}, \"graphpd_stages\": {}, \
         \"graphpd_grows\": {}, \"graphpd_merges\": {}",
        pt.distance,
        pt.p,
        backend_name(pt.backend),
        pt.detectors,
        pt.trials,
        pt.failures,
        pt.failures as f64 / pt.trials as f64,
        pt.wall_s,
        pt.trials as f64 / pt.wall_s,
        pt.gwt_projected,
        pt.local_stages,
        pt.ondemand_stages,
        pt.ondemand_settled,
        pt.graphpd_stages,
        pt.graphpd_grows,
        pt.graphpd_merges,
    );
    if let Some(rss) = pt.peak_rss {
        let _ = write!(
            json,
            ", \"peak_rss_bytes\": {rss}, \"rss_over_projection\": {:.4}",
            rss as f64 / pt.gwt_projected as f64
        );
    }
    json.push('}');
    json
}

/// Runs one point in a fresh child process (`--point d p trials backend`)
/// so its VmHWM belongs to that point alone, and returns the child's JSON
/// line.
fn measure_in_child(distance: usize, p: f64, trials: u64, backend: DeepBackend) -> String {
    let exe = std::env::current_exe().expect("resolve own executable");
    let out = std::process::Command::new(exe)
        .args([
            "--point",
            &distance.to_string(),
            &format!("{p:e}"),
            &trials.to_string(),
            backend_name(backend),
        ])
        .output()
        .expect("spawn point child process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines() {
        if let Some(json) = line.strip_prefix("POINT ") {
            return json.to_string();
        }
        println!("{line}");
    }
    panic!(
        "child for d = {distance}, p = {p} emitted no POINT line (status {}):\n{}{}",
        out.status,
        stdout,
        String::from_utf8_lossy(&out.stderr)
    );
}

fn smoke() {
    // Differential gate first: at d = 5 the auto budget keeps the GWT, so
    // force both weight sources and compare predictions bit-for-bit. The
    // GWT-free side pins the on-demand engine, the one bit-identical to
    // the table (the default graph-pd engine is weight-certified instead).
    let gctx = ExperimentContext::with_source(5, 2e-3, WeightSource::Gwt);
    let lctx = ExperimentContext::with_source(5, 2e-3, WeightSource::Local);
    let batch = sample_batch(&gctx, 4_000, THREADS, SEED);
    let mut g = MwpmDecoder::for_context(gctx.decoding());
    let mut l = MwpmDecoder::for_context(lctx.decoding()).with_deep_backend(DeepBackend::Ondemand);
    let mut sg = DecodeScratch::new();
    let mut sl = DecodeScratch::new();
    let rg = astrea_core::decode_slice(&mut g, &mut sg, &batch, 0..batch.len());
    let rl = astrea_core::decode_slice(&mut l, &mut sl, &batch, 0..batch.len());
    assert_eq!(
        rg.predictions, rl.predictions,
        "local weights diverged from the GWT at d = 5"
    );

    // Backend accuracy gate: graph-pd is not bit-identical (ties may
    // break differently), but on the same stream its failure count must
    // sit within two-proportion noise of the on-demand backend's.
    let mut gp = MwpmDecoder::for_context(lctx.decoding()).with_deep_backend(DeepBackend::GraphPd);
    let mut sgp = DecodeScratch::new();
    let rgp = astrea_core::decode_slice(&mut gp, &mut sgp, &batch, 0..batch.len());
    let (f1, f2, n) = (rgp.failures as f64, rl.failures as f64, batch.len() as f64);
    let pooled = (f1 + f2) / (2.0 * n);
    let gate = 5.0 * (2.0 * pooled * (1.0 - pooled) / n).sqrt() * n;
    assert!(
        (f1 - f2).abs() <= gate.max(1.0),
        "graph-pd failures {} vs on-demand {} in {} shots exceeds the equivalence gate",
        rgp.failures,
        rl.failures,
        batch.len()
    );
    // Drift guard at the batch level: the forced backend did all the deep
    // work, the other engine stayed idle.
    assert!(sgp.ondemand.stats.is_idle(), "graph-pd run drove on-demand");
    assert!(sl.graphpd.stats.is_idle(), "on-demand run drove graph-pd");

    // The large-distance gate, once per backend: a d = 15 decode stream
    // completes inside a loose wall-clock budget with no GWT allocated,
    // the selected engine demonstrably live through the pipeline counters
    // and the other engine idle (dispatch drift guard).
    for backend in [DeepBackend::Ondemand, DeepBackend::GraphPd] {
        let pt = measure(15, 1e-3, SMOKE_TRIALS, backend);
        match backend {
            DeepBackend::GraphPd => {
                assert!(pt.graphpd_stages > 0, "graph-pd staging idle at d = 15");
                assert_eq!(
                    pt.ondemand_stages, 0,
                    "graph-pd run drove the on-demand engine at d = 15"
                );
            }
            _ => {
                assert!(pt.ondemand_stages > 0, "on-demand staging idle at d = 15");
                assert_eq!(
                    pt.graphpd_stages, 0,
                    "on-demand run drove the graph-pd engine at d = 15"
                );
            }
        }
        assert!(pt.local_stages > 0, "staged provider idle at d = 15");
        assert!(
            pt.wall_s < SMOKE_BUDGET_S,
            "throughput regression: {} shots took {:.1}s at d = 15 under {} \
             (budget {SMOKE_BUDGET_S}s)",
            pt.trials,
            pt.wall_s,
            backend_name(backend),
        );
        if let Some(rss) = pt.peak_rss {
            assert!(
                (rss as usize) < pt.gwt_projected * 4,
                "peak RSS {rss} not credibly below a GWT-carrying footprint"
            );
        }
    }
    println!(
        "smoke OK: d = 15 decoded GWT-free under both deep backends (budget {SMOKE_BUDGET_S}s \
         each), engines engaged without dispatch drift"
    );
}

fn main() {
    let mut smoke_mode = false;
    let mut p_override: Option<f64> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke_mode = true,
            "--p" => {
                let v = args.next().expect("--p requires a value");
                p_override = Some(v.parse().expect("--p value must be a float"));
            }
            "--point" => {
                // Child mode: measure one (d, p, trials, backend) point
                // and emit it as a machine-readable line for the parent.
                let d: usize = args.next().unwrap().parse().expect("--point distance");
                let p: f64 = args.next().unwrap().parse().expect("--point probability");
                let trials: u64 = args.next().unwrap().parse().expect("--point trials");
                let backend = args
                    .next()
                    .map_or(DeepBackend::Ondemand, |b| parse_backend(&b));
                let pt = measure(d, p, trials, backend);
                println!("POINT {}", point_json(&pt));
                return;
            }
            _ => positional.push(arg),
        }
    }
    if smoke_mode {
        smoke();
        return;
    }
    let base: u64 = positional
        .first()
        .map(|a| a.parse().expect("trials must be an integer"))
        .unwrap_or(20_000);
    let out_path = positional
        .get(1)
        .cloned()
        .unwrap_or_else(|| "results/BENCH_local.json".to_string());

    // Per-shot decode cost grows steeply with distance (more rounds, more
    // detectors per shot, larger matchings); scale trials to keep each
    // point in the ~minute range on one host. Each point runs in its own
    // child process so the VmHWM readings are per-point, not cumulative.
    let ps: Vec<f64> = p_override.map_or_else(|| DEFAULT_PS.to_vec(), |p| vec![p]);
    let schedule = [(15usize, base), (21, base / 4), (31, base / 40)];
    let mut point_lines: Vec<String> = Vec::new();
    for (d, trials) in schedule {
        for &p in &ps {
            for backend in [DeepBackend::Ondemand, DeepBackend::GraphPd] {
                point_lines.push(measure_in_child(d, p, trials.max(100), backend));
            }
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"threads\": {THREADS},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(
        json,
        "  \"note\": \"GWT-free local weight path; each point ran in its own process, so \
         peak_rss_bytes is that point's VmHWM alone; gwt_projected_bytes = 13 * detectors^2 \
         is what the table would have cost; backend is the deep-tail engine (ondemand = \
         staged discovery, graph-pd = graph-native primal-dual)\","
    );
    json.push_str("  \"points\": [\n");
    for (i, line) in point_lines.iter().enumerate() {
        let _ = write!(json, "    {line}");
        json.push_str(if i + 1 < point_lines.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]\n}\n");
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
