//! Metric bookkeeping, order statistics and the benchmark's result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports with `--trace 0`: the names
/// and units of `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics every workload reports with `--trace 1`: the names
/// and units of `per_layer` in `BENCHMARK.json`. A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ugraph.io.read_s", "s"),
    ("ugraph.io.write_s", "s"),
    ("reliability.sample_s", "s"),
    ("reliability.analyze_s", "s"),
    ("reliability.pairs_s", "s"),
    ("reliability.worlds", "count"),
    ("reliability.union_find_ops", "count"),
    ("reliability.arena_bytes", "bytes"),
    ("reliability.stream_bytes", "bytes"),
    ("core.err_s", "s"),
    ("core.anonymize_s", "s"),
    ("core.genobf.select_s", "s"),
    ("core.genobf.perturb_s", "s"),
    ("core.genobf.clone_s", "s"),
    ("core.anonymity.check_s", "s"),
    ("core.residual_s", "s"),
    ("core.releases", "count"),
    ("core.genobf.calls", "count"),
    ("core.genobf.candidate_attempts", "count"),
    ("core.anonymity.pmfs_built", "count"),
    ("core.genobf.trials_per_release", "ratio"),
    ("stats.parallel.speedup", "ratio"),
    ("quality.disc_avg", "prob"),
    ("inputs.private_share", "ratio"),
    ("server.protocol.parse_us", "us"),
    ("server.job.execute_ms", "ms"),
    ("server.queue.depth_mean", "count"),
    ("server.worker.busy_share", "ratio"),
    ("server.cache.hit_ratio", "ratio"),
    ("server.journal.appends_per_req", "ratio"),
    ("server.journal.syncs", "count"),
    ("server.reactor.ticks_per_req", "ratio"),
    ("gateway.reactor.ticks_per_req", "ratio"),
    ("gateway.forwarded", "count"),
    ("gateway.hop_ms", "ms"),
    ("gateway.ring.min_share", "ratio"),
    ("service.hit_share", "ratio"),
    ("service.hit_p50_ms", "ms"),
    ("service.hit_p95_ms", "ms"),
    ("service.miss_p50_ms", "ms"),
    ("service.miss_p60_ms", "ms"),
    ("client.late_p95_ms", "ms"),
    ("obs.overhead", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (runs, passes, requests, releases).
    pub samples: usize,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    /// Operations and correctness checks attempted.
    pub attempted: u64,
    /// Operations that failed plus checks that did not hold.
    pub failed: u64,
    /// One line per failure, printed before the result line.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result line: metrics the
    /// result line does not carry, and property shares.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `name`; `unit` must be the one the metric tables give.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not in the metric tables"));
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Counts one operation or check; a false `ok` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
        ok
    }

    /// Counts one attempted operation that failed.
    pub fn fail_op(&mut self, what: String) {
        self.attempted += 1;
        self.fail(what);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Keeps only the metrics of one table; a metric of the table that
    /// was never set is a failed check (0 for per-layer metrics, whose
    /// layer a workload may not touch).
    pub fn select(&mut self, table: &[(&str, &'static str)], zero_allowed: bool) {
        let mut kept = BTreeMap::new();
        for (name, unit) in table {
            match self.metrics.remove(*name) {
                Some(m) => {
                    let valid = m.value.is_finite() && (zero_allowed || m.value > 0.0);
                    if !valid {
                        self.fail_op(format!("metric {name} has no valid value ({})", m.value));
                    }
                    kept.insert(name.to_string(), m);
                }
                None if zero_allowed => {
                    kept.insert(
                        name.to_string(),
                        Metric {
                            value: 0.0,
                            unit,
                            samples: 0,
                        },
                    );
                }
                None => self.fail_op(format!("metric {name} was not measured")),
            }
        }
        self.metrics = kept;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The last line of standard output: the machine-readable result.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Lines printed before the result line: every metric measured, with
    /// its unit and sample count, then the notes.
    pub fn human_lines(&self, workload: &str) -> Vec<String> {
        let mut lines = vec![format!("== {workload}")];
        for (name, m) in &self.metrics {
            lines.push(format!(
                "metric {name} = {} {} (samples {})",
                m.value, m.unit, m.samples
            ));
        }
        lines.extend(self.notes.iter().cloned());
        lines
    }
}

/// Linear-interpolation quantile of unsorted values (`q` in `[0, 1]`).
/// Returns NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// True when `samples` values put at least ten beyond percentile `q`.
pub fn percentile_supported(samples: usize, q: f64) -> bool {
    (samples as f64 * (1.0 - q)).floor() >= 10.0
}

/// Peak resident set size (`VmHWM`) of a process in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn ten_samples_beyond_a_percentile() {
        assert!(percentile_supported(200, 0.95));
        assert!(!percentile_supported(199, 0.95));
        assert!(percentile_supported(34, 0.70));
        assert!(!percentile_supported(33, 0.70));
    }

    #[test]
    fn result_line_carries_the_selected_table() {
        let mut r = Report::new();
        r.set("setup_s", 0.5, 3);
        r.set("wall_s", 1.25, 4);
        r.set("core.genobf.calls", 9.0, 1);
        r.check(true, || unreachable!());
        r.select(END_TO_END, false);
        // peak_rss_mb was never set: the run fails instead of printing 0.
        assert_eq!(r.failed, 1);
        assert!(!r.metrics.contains_key("core.genobf.calls"));
        assert_eq!(
            r.result_line(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn per_layer_metrics_default_to_zero() {
        let mut r = Report::new();
        r.set("obs.overhead", 1.01, 2);
        r.select(PER_LAYER, true);
        assert!(r.correct());
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        assert_eq!(r.metrics["gateway.hop_ms"].value, 0.0);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb(None).expect("VmHWM") > 0.0);
    }
}
