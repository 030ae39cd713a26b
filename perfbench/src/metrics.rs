//! Sample sets, percentiles and the metric report.
//!
//! A latency sample set counts failed operations next to the measured
//! ones: a failed, shed or typed-error operation misses every latency
//! limit, so it sorts above every measured sample. A percentile that lands
//! on a failure reads as the whole run's length, the largest latency the
//! run could have shown.

use std::fmt::Write as _;

/// Latency samples (µs) plus the number of operations that failed.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    failed: u64,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn fail(&mut self) {
        self.failed += 1;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.failed += other.failed;
    }

    /// Operations attempted: measured plus failed.
    pub fn attempted(&self) -> u64 {
        self.values.len() as u64 + self.failed
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Nearest-rank percentile over measured and failed operations;
    /// `None` when the rank lands on a failure (or nothing was attempted).
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.attempted();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        if rank > self.values.len() as u64 {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        Some(sorted[rank as usize - 1])
    }

    /// [`Samples::percentile`] with a failure read as `miss`.
    pub fn percentile_or(&self, q: f64, miss: f64) -> f64 {
        self.percentile(q).unwrap_or(miss)
    }

    /// Mean of the measured samples (0 when there are none).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }
}

/// Median of a non-empty slice (mean of the middle pair for even length).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub samples: u64,
}

/// Every metric a run measured, in insertion order.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: u64) {
        let name = name.into();
        assert!(valid_name(&name), "illegal metric name `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        assert!(self.get(&name).is_none(), "metric `{name}` reported twice");
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// `{prefix}latency_p50_us` and `{prefix}latency_p99_us`: the median
    /// over `segments` of each segment's percentile, a failure reading as
    /// `miss`. One segment gives the plain percentile.
    pub fn add_latency(&mut self, prefix: &str, segments: &[Samples], miss: f64) {
        let n = segments.iter().map(Samples::attempted).sum();
        for (q, tag) in [(0.50, "p50"), (0.99, "p99")] {
            let per: Vec<f64> = segments.iter().map(|s| s.percentile_or(q, miss)).collect();
            self.add(format!("{prefix}latency_{tag}_us"), median(&per), "us", n);
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// One human-readable line per metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<40} {:>16.4} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }

    /// The result line: exactly the metrics named in `wanted`, in that
    /// order. A wanted metric the run did not produce is a bug in the
    /// benchmark, reported as an error.
    pub fn result_json(
        &self,
        wanted: &[(&str, &str)],
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let m = self
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if m.unit != *unit {
                return Err(format!("metric `{name}` has unit {} not {unit}", m.unit));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                // `{:?}` keeps every digit; its `1.0` and `1e-7` forms are
                // valid JSON numbers.
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
                m.value
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_as_misses_in_percentiles() {
        let mut s = Samples::default();
        for v in 1..=98 {
            s.push(v as f64);
        }
        s.fail();
        s.fail();
        assert_eq!(s.attempted(), 100);
        assert_eq!(s.percentile(0.50), Some(50.0));
        assert_eq!(s.percentile(0.98), Some(98.0));
        // The 99th of 100 ranks is a failure: it misses every limit.
        assert_eq!(s.percentile(0.99), None);
        assert_eq!(s.percentile_or(0.99, 1e6), 1e6);
    }

    #[test]
    fn all_failed_has_no_percentile() {
        let mut s = Samples::default();
        s.fail();
        assert_eq!(s.percentile(0.5), None);
        assert_eq!(Samples::default().percentile(0.5), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("io.pool.fetch_us.p99"));
        assert!(valid_name("setup_s"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name("serve/request_ns"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(""));
    }

    #[test]
    fn result_line_holds_exactly_the_wanted_metrics() {
        let mut r = Report::default();
        r.add("latency_ms", 1.25, "ms", 10);
        r.add("extra", 2.0, "count", 1);
        let line = r.result_json(&[("latency_ms", "ms")], 10, 0).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(r.result_json(&[("missing", "s")], 1, 0).is_err());
    }
}
