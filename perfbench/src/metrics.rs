//! Metric values, the robust statistics behind them, and the result line.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics (printed in insertion order).
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The median of `values` (mean of the middle pair for even lengths);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in percent) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p99, p95, p90, p75 and p50 that leaves at least ten
/// samples above it, for a sample of `n` values.
pub fn tail_percentile(n: usize) -> f64 {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A JSON number for `v`: Rust's shortest round-trip decimal, which never
/// uses an exponent; non-finite values (never produced by a correct run)
/// print as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The benchmark's result line: one JSON object with `correct`,
/// `attempted`, `failed` and `metrics` (`{"name": {"value", "unit"}}`).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(500), 95.0);
        assert_eq!(tail_percentile(10), 50.0);
    }

    #[test]
    fn result_line_is_json_with_units() {
        let mut m = Metrics::default();
        m.push("a", 1.5, "ms");
        m.push("b", f64::NAN, "s");
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        let parsed: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert!(parsed.as_object().is_some());
    }
}
