//! Order statistics, the metric catalogue, and the one-line JSON result.

use std::fmt::Write as _;

/// Unit of every end-to-end metric, in the order they are printed.
pub const END_TO_END: &[(&str, &str)] = &[
    ("shots_per_s", "shots/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Unit of every per-layer metric a traced run reports. Every workload
/// reports every name; a layer the workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace_overhead_pct", "%"),
    ("setup.dem_s", "s"),
    ("setup.context_s", "s"),
    ("sample.busy_s", "s"),
    ("sample.ns_per_shot", "ns"),
    ("pipeline.producer_wait_s", "s"),
    ("pipeline.consumer_wait_s", "s"),
    ("pipeline.decode_tile.busy_s", "s"),
    ("pipeline.consumer_util_min", "ratio"),
    ("pipeline.tiles", "count"),
    ("pipeline.screen.self_ns_per_shot", "ns"),
    ("tier.trivial", "share"),
    ("tier.hw1", "share"),
    ("tier.hw2", "share"),
    ("tier.closed_form", "share"),
    ("tier.hard_cache_hit", "share"),
    ("tier.dp", "share"),
    ("tier.deep", "share"),
    ("screen.hard_cache.hit_ratio", "ratio"),
    ("screen.hw2_keys_per_shot", "ratio"),
    ("decoder.easy_fill.calls", "count"),
    ("decoder.closed_form.ns_per_shot", "ns"),
    ("decoder.closed_form.batch_len", "shots"),
    ("decoder.dp.ns_per_shot", "ns"),
    ("decoder.deep.ns_per_shot", "ns"),
    ("decoder.deep.mean_k", "detectors"),
    ("decoder.busy_share", "share"),
    ("deep.replay_shots", "count"),
    ("deep.stage_ns_per_shot", "ns"),
    ("deep.solve_ns_per_shot", "ns"),
    ("deep.stage_share", "share"),
    ("deep.explained_share", "share"),
    ("ondemand.settled_per_stage", "nodes"),
    ("graphpd.grows_per_stage", "nodes"),
    ("graphpd.merges_per_stage", "pairs"),
    ("staging.excluded_ratio", "ratio"),
    ("staging.pruned_ratio", "ratio"),
    ("serve.light.p50_us", "us"),
    ("serve.light.p99_us", "us"),
    ("serve.light.p999_us", "us"),
    ("serve.light.gen_lag_us_p50", "us"),
    ("serve.light.gen_lag_us_p99", "us"),
    ("serve.light.submit_block_us_p99", "us"),
    ("serve.light.shots_per_tile", "shots"),
    ("serve.light.decoder_busy_share", "share"),
    ("serve.light.hard_cache_hit_ratio", "ratio"),
    ("serve.heavy.p50_us", "us"),
    ("serve.heavy.p99_us", "us"),
    ("serve.heavy.p999_us", "us"),
    ("serve.heavy.gen_lag_us_p50", "us"),
    ("serve.heavy.gen_lag_us_p99", "us"),
    ("serve.heavy.submit_block_us_p99", "us"),
    ("serve.heavy.shots_per_tile", "shots"),
    ("serve.heavy.decoder_busy_share", "share"),
    ("serve.heavy.hard_cache_hit_ratio", "ratio"),
    ("serve.saturated.submit_block_us_p99", "us"),
    ("serve.saturated.shots_per_tile", "shots"),
    ("serve.saturated.decoder_busy_share", "share"),
    ("serve.saturated.hard_cache_hit_ratio", "ratio"),
];

/// True for a name the result schema accepts: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("median of a NaN"));
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile by the rule Python's
/// `statistics.quantiles(values, n=4)` applies (the default "exclusive"
/// method), so spreads computed here and by the A/B scripts agree.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("quartiles of a NaN"));
    let len = v.len();
    assert!(len > 0, "quartiles of no values");
    if len == 1 {
        return [v[0]; 3];
    }
    // Python extrapolates past the ends for tiny samples: `delta` may be
    // negative or exceed 4.
    let m = len as i64 + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Fewest samples a reported percentile must leave beyond itself.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of ascending `sorted`: the mean of the
/// samples within `n / 1000` ranks of the nearest rank, so a median of a
/// million nanosecond-resolution timings is not stuck on one integer.
/// Refused when fewer than [`MIN_BEYOND`] samples lie beyond the nearest
/// rank — a tail read off a handful of samples repeats only by luck.
pub fn percentile(sorted: &[u64], q: f64) -> Result<f64, String> {
    let n = sorted.len();
    // The epsilon keeps an exact rank (0.99 · 1000) from rounding up.
    let rank = (q * n as f64 - 1e-9).ceil() as usize;
    if n == 0 || rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it, have {n} samples",
            q * 100.0
        ));
    }
    let w = n / 1000;
    let window = &sorted[rank - 1 - w.min(rank - 1)..(rank + w).min(n)];
    Ok(window.iter().map(|&x| x as f64).sum::<f64>() / window.len() as f64)
}

/// Windows a latency phase is cut into by [`windowed_percentile`].
pub const WINDOWS: usize = 10;

/// The `q`-quantile of time-ordered `samples` as the median, over up to
/// [`WINDOWS`] consecutive windows, of each window's [`percentile`] —
/// fewer windows when a window could not leave [`MIN_BEYOND`] samples
/// beyond its percentile. A host stall then moves the one window it
/// lands in instead of the whole tail.
pub fn windowed_percentile(samples: &[u64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let supports = |w: usize| {
        let m = n / w;
        m - (q * m as f64 - 1e-9).ceil() as usize >= MIN_BEYOND
    };
    let windows = (1..=WINDOWS).rev().find(|&w| supports(w)).unwrap_or(1);
    let size = n / windows;
    let mut per_window = Vec::with_capacity(windows);
    for w in 0..windows {
        let end = if w + 1 == windows { n } else { (w + 1) * size };
        let mut v = samples[w * size..end].to_vec();
        v.sort_unstable();
        per_window.push(percentile(&v, q)?);
    }
    Ok(median(&per_window))
}

/// Peak resident set size of this process in MB (`VmHWM`; Linux only).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Tracing overhead in percent from paired rates: the median over pairs
/// of untraced rate / traced rate, minus one. Pairing cancels host drift
/// that a ratio of the two medians would keep.
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let ratios: Vec<f64> = untraced.iter().zip(traced).map(|(u, t)| u / t).collect();
    (median(&ratios) - 1.0) * 100.0
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One workload run's outcome: the declared metrics, diagnostics, and
/// the operation counts behind `attempted` / `failed`.
pub struct Report {
    pub workload: &'static str,
    trace: bool,
    metrics: Vec<(String, f64)>,
    /// Operations (shots, or whole-run comparisons) the run attempted.
    pub attempted: u64,
    /// Operations that failed a correctness gate or errored.
    pub failed: u64,
    /// Why each failed gate failed (printed, never part of the result).
    pub errors: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, trace: bool) -> Report {
        Report {
            workload,
            trace,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Whether this run reports per-layer metrics.
    pub fn traced(&self) -> bool {
        self.trace
    }

    /// The catalogue this run must fill: per-layer when traced,
    /// end-to-end otherwise.
    pub fn catalogue(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced() {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Records a declared metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Records 0 for every catalogue metric under `prefix`: the layers a
    /// workload never enters.
    pub fn zero_prefix(&mut self, prefix: &str) {
        for &(name, _) in self.catalogue() {
            if name.starts_with(prefix) {
                self.set(name, 0.0);
            }
        }
    }

    /// Prints a diagnostic in the `workload metric value unit` format;
    /// diagnostics are not part of the result line.
    pub fn detail(&self, name: &str, value: f64, unit: &str) {
        println!("{} {name} {value} {unit}", self.workload);
    }

    /// Counts `ops` attempted operations, `bad` of which failed, with the
    /// reason when any did.
    pub fn gate(&mut self, ops: u64, bad: u64, why: impl FnOnce() -> String) {
        self.attempted += ops;
        if bad > 0 {
            self.failed += bad;
            self.errors.push(why());
        }
    }

    /// Checks the recorded metrics against the catalogue (every name
    /// exactly once, every value finite), prints one line per metric and
    /// returns the result line.
    pub fn finish(&mut self) -> String {
        let catalogue = self.catalogue();
        let mut body = String::new();
        for &(name, unit) in catalogue {
            let values: Vec<f64> = self
                .metrics
                .iter()
                .filter(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .collect();
            let value = match values[..] {
                [v] if v.is_finite() && valid_metric_name(name) => v,
                _ => {
                    self.errors
                        .push(format!("metric {name} recorded as {values:?}"));
                    self.failed += 1;
                    0.0
                }
            };
            println!("{} {name} {value} {unit}", self.workload);
            if !body.is_empty() {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        for (name, _) in &self.metrics {
            if !catalogue.iter().any(|(n, _)| n == name) {
                self.errors.push(format!("undeclared metric {name}"));
                self.failed += 1;
            }
        }
        for e in &self.errors {
            eprintln!("{}: GATE FAILED: {e}", self.workload);
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_follow_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[2.0]), [2.0, 2.0, 2.0]);
    }

    #[test]
    fn percentile_is_nearest_rank_smoothed_over_a_thousandth() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), Ok(500.0));
        assert_eq!(percentile(&v, 0.99), Ok(990.0));
        assert_eq!(percentile(&v, 0.9), Ok(900.0));
        // Ranks 499..=501 of 1000 are averaged: (3 + 3 + 6) / 3.
        let mut lumpy = vec![1u64; 498];
        lumpy.extend([3, 3, 6]);
        lumpy.extend(vec![9u64; 499]);
        assert_eq!(percentile(&lumpy, 0.5), Ok(4.0));
        // Under 1000 samples the nearest rank stands alone.
        let small: Vec<u64> = (0..100).map(|i| i * i).collect();
        assert_eq!(percentile(&small, 0.9), Ok(89.0 * 89.0));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<u64> = (1..=1000).collect();
        // p99 of 1000 leaves exactly 10 beyond; p99.9 leaves 1.
        assert!(percentile(&v, 0.99).is_ok());
        assert!(percentile(&v, 0.999).is_err());
        assert!(percentile(&v[..999], 0.99).is_err());
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&v[..19], 0.5).is_err());
        assert_eq!(percentile(&v[..20], 0.5), Ok(10.0));
        assert_eq!(percentile(&v[..21], 0.5), Ok(11.0));
    }

    #[test]
    fn windowed_percentile_shrugs_off_one_stalled_window() {
        // Ten windows of 1000: one is a stall where every sample is slow.
        let mut v: Vec<u64> = (0..10_000).map(|i| 100 + i % 7).collect();
        for x in &mut v[3000..4000] {
            *x = 1_000_000;
        }
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(percentile(&sorted, 0.99), Ok(1_000_000.0));
        let p99 = windowed_percentile(&v, 0.99).unwrap();
        assert!((100.0..=106.0).contains(&p99), "{p99}");
    }

    #[test]
    fn windowed_percentile_uses_as_many_windows_as_the_tail_supports() {
        // 300 samples support three p90 windows of 100 (10 beyond each);
        // the windows' p90s are 90, 190, 290 and their median is 190.
        let v: Vec<u64> = (1..=300).collect();
        assert_eq!(windowed_percentile(&v, 0.9), Ok(190.0));
        // Too few for even one window.
        assert!(windowed_percentile(&v[..99], 0.9).is_err());
        assert!(windowed_percentile(&[], 0.5).is_err());
        // Ten medians of ten windows of 100: 50, 150, …, 950.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(windowed_percentile(&v, 0.5), Ok(500.0));
    }

    #[test]
    fn metric_names_use_the_result_charset() {
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("µs"));
        assert!(!valid_metric_name(&"x".repeat(65)));
        assert!(valid_metric_name("9lives_a.b-c"));
    }

    #[test]
    fn metric_names_are_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for (i, a) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(a), "{a} declared twice");
        }
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut r = Report::new("w", false);
        for &(name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.gate(10, 0, String::new);
        let line = r.finish();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"shots_per_s\": {\"value\": 1.5, \"unit\": \"shots/s\"}"));
        assert!(line.ends_with("}}}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn missing_undeclared_or_non_finite_metrics_fail_the_run() {
        let mut r = Report::new("w", false);
        r.set("shots_per_s", f64::NAN);
        r.set("bogus", 1.0);
        let line = r.finish();
        assert!(line.starts_with("{\"correct\": false"));
        assert!(!r.correct());
        // NaN and the four missing metrics print as 0, never as NaN; the
        // NaN, the four missing and the undeclared one each count.
        assert!(!line.contains("NaN"));
        assert_eq!(r.failed, 6);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        // The repository root is an ancestor of either manifest that
        // builds this file.
        let found = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find_map(|dir| std::fs::read_to_string(dir.join("BENCHMARK.json")).ok());
        let Some(json) = found else {
            return; // outside a full checkout
        };
        // `(name, unit)` of every entry of one section, in order.
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            let field = |entry: &str, f: &str| -> String {
                let at = entry.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
                entry[at..].split('"').next().unwrap().to_string()
            };
            json[start..end]
                .split('{')
                .skip(1)
                .map(|entry| (field(entry, "name"), field(entry, "unit")))
                .collect()
        };
        let want = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), want(END_TO_END));
        assert_eq!(section("per_layer"), want(PER_LAYER));
    }
}
