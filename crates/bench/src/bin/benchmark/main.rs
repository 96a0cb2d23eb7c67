//! One benchmark for the decoder stack: four workloads, end-to-end
//! throughput and serving latency, per-layer time from a traced run.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!           [--smoke] [--out PATH] [--heavy-rate R]
//! ```
//!
//! With `--workload`, one workload runs in this process: it prints one
//! `workload metric value unit` line per metric (plus diagnostics in the
//! same format) and, last, one JSON result line with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Untraced, the metrics are the
//! end-to-end ones; with `--trace 1` they are the per-layer ones.
//!
//! Without `--workload`, every workload runs in a child process of its
//! own (so each `peak_rss_mb` is that workload's own high-water mark),
//! and the collected lines are written as one JSON document to `--out`
//! (default `results/benchmark/latest.json`). `--smoke` runs every
//! workload untraced and traced at tiny sizes — every correctness gate,
//! no artifact. The exit code is non-zero when any gate fails.

mod layers;
mod ler;
mod serve;
mod stats;
mod timed;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// The knobs one workload run takes.
pub struct Run {
    pub seed: u64,
    /// Measurement budget; the phases of a run split it.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes: exercise every gate in seconds.
    pub smoke: bool,
    /// Open-loop rate of `serve-d5`'s heavy phase, in shots/s.
    pub heavy_rate: f64,
}

const DEFAULT_SEED: u64 = 7;
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 1.0;
const DEFAULT_OUT: &str = "results/benchmark/latest.json";
const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--smoke] [--out PATH] [--heavy-rate R]";

fn workload_names() -> Vec<&'static str> {
    let mut names: Vec<&str> = ler::WORKLOADS.iter().map(|w| w.name).collect();
    names.push(serve::NAME);
    names
}

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: String,
    heavy_rate: f64,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: DEFAULT_OUT.to_string(),
        heavy_rate: serve::HEAVY_RATE,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(
                    workload_names()
                        .into_iter()
                        .find(|w| *w == name)
                        .ok_or_else(|| {
                            format!("unknown workload {name:?}; one of {:?}", workload_names())
                        })?,
                );
            }
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" | "--heavy-rate" => {
                let x: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("{flag}: {e}"))?;
                if !(x.is_finite() && x > 0.0) {
                    return Err(format!("{flag} must be positive, got {x}"));
                }
                if flag == "--seconds" {
                    args.seconds = x;
                } else {
                    args.heavy_rate = x;
                }
            }
            // `--trace` alone means `--trace 1`.
            "--trace" => {
                args.trace = it.peek().map(|s| s.as_str()) != Some("0");
                if matches!(it.peek().map(|s| s.as_str()), Some("0" | "1")) {
                    it.next();
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = value("a path")?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, run: &Run) -> stats::Report {
    match ler::WORKLOADS.iter().find(|w| w.name == name) {
        Some(spec) => ler::run(spec, run),
        None => serve::run(run),
    }
}

/// What one child run printed.
struct ChildRun {
    name: &'static str,
    trace: bool,
    ok: bool,
    /// The JSON result line (`null` if the child printed none).
    result: String,
    /// `(metric, value, unit)` from every `workload metric value unit` line.
    lines: Vec<(String, String, String)>,
}

fn run_child(name: &'static str, args: &Args, trace: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--heavy-rate", &args.heavy_rate.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .expect("run a workload child process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = Vec::new();
    for line in stdout.lines() {
        println!("{line}");
        if let [w, metric, value, unit] = line.split_whitespace().collect::<Vec<_>>()[..] {
            if w == name && value.parse::<f64>().is_ok() {
                lines.push((metric.to_string(), value.to_string(), unit.to_string()));
            }
        }
    }
    let result = stdout
        .lines()
        .last()
        .filter(|l| l.starts_with('{'))
        .unwrap_or("null")
        .to_string();
    ChildRun {
        name,
        trace,
        ok: out.status.success() && result.starts_with("{\"correct\": true"),
        result,
        lines,
    }
}

fn document(args: &Args, runs: &[ChildRun]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"seconds\": {},", args.seconds);
    let _ = writeln!(json, "  \"trace\": {},", args.trace);
    let _ = writeln!(json, "  \"nproc\": {nproc},");
    json.push_str("  \"workloads\": {\n");
    for (i, run) in runs.iter().enumerate() {
        let _ = writeln!(json, "    \"{}\": {{", run.name);
        let _ = writeln!(json, "      \"result\": {},", run.result);
        json.push_str("      \"lines\": {");
        for (j, (metric, value, unit)) in run.lines.iter().enumerate() {
            let sep = if j == 0 { "\n" } else { ",\n" };
            let _ = write!(
                json,
                "{sep}        \"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("\n      }\n    }");
        json.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    json.push_str("  }\n}\n");
    json
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(name) = args.workload {
        let run = Run {
            seed: args.seed,
            seconds: if args.smoke {
                SMOKE_SECONDS
            } else {
                args.seconds
            },
            trace: args.trace,
            smoke: args.smoke,
            heavy_rate: args.heavy_rate,
        };
        let mut report = run_workload(name, &run);
        println!("{}", report.finish());
        return if report.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Smoke covers both modes: every gate, the traced twin's included.
    let modes: &[bool] = if args.smoke {
        &[false, true]
    } else if args.trace {
        &[true]
    } else {
        &[false]
    };
    let mut runs = Vec::new();
    for name in workload_names() {
        for &trace in modes {
            runs.push(run_child(name, &args, trace));
        }
    }
    let failed: Vec<String> = runs
        .iter()
        .filter(|r| !r.ok)
        .map(|r| format!("{}{}", r.name, if r.trace { " (traced)" } else { "" }))
        .collect();
    if !args.smoke {
        if let Some(dir) = std::path::Path::new(&args.out).parent() {
            std::fs::create_dir_all(dir).expect("create the output directory");
        }
        std::fs::write(&args.out, document(&args, &runs)).expect("write the result document");
        eprintln!("wrote {}", args.out);
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload serve-d5 --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some("serve-d5"));
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert_eq!(a.heavy_rate, serve::HEAVY_RATE);
        assert_eq!(parse("--heavy-rate 45000").unwrap().heavy_rate, 45_000.0);
        assert!(parse("--heavy-rate -1").is_err());
        assert!(!parse("--trace 0").unwrap().trace);
        assert!(parse("--trace --seed 1").unwrap().trace);
        assert!(parse("--trace").unwrap().trace);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--bogus").is_err());
    }

    #[test]
    fn document_is_balanced_json() {
        let args = parse("--seed 1").unwrap();
        let runs = [ChildRun {
            name: "ler-d7-low",
            trace: false,
            ok: true,
            result: "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}".into(),
            lines: vec![("shots_per_s".into(), "1.5".into(), "shots/s".into())],
        }];
        let doc = document(&args, &runs);
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert!(doc.contains("\"shots_per_s\": {\"value\": 1.5, \"unit\": \"shots/s\"}"));
    }
}
