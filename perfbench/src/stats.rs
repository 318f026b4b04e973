//! Order statistics over raw samples, and the JSON result line.
//!
//! Samples are kept raw (not bucketed) so a quantile reads the measured
//! value with all its digits rather than a histogram bucket edge.

/// Nearest-rank quantile of `samples` (sorted in place). `None` when
/// there are no samples.
pub fn quantile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1])
}

/// The tail percentile reported for a class: the highest of p99, p95,
/// p90 and p50 that still has at least ten samples beyond it. Returns
/// the quantile used and its value.
pub fn tail(samples: &mut [u64]) -> Option<(f64, u64)> {
    let n = samples.len() as f64;
    let q = [0.99, 0.95, 0.90, 0.50]
        .into_iter()
        .find(|q| n * (1.0 - q) >= 10.0)?;
    quantile(samples, q).map(|v| (q, v))
}

/// Median of a small set of floating-point measurements.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Interquartile mean: the mean after dropping the lowest and the
/// highest quarter of the values (at least one each side from four
/// values on). Trials of a run spread wide, where a mean is steadier
/// than a median, but a host stall can slow a few of them, which must
/// not move the result.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let cut = v.len() / 4;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len().max(1) as f64
}

/// One named metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in print order.
#[derive(Default)]
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

/// The benchmark's last output line: `correct`, `attempted`, `failed`
/// and every metric with its unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut s, 0.5), Some(50));
        assert_eq!(quantile(&mut s, 0.99), Some(99));
        assert_eq!(quantile(&mut s, 1.0), Some(100));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn trimmed_mean_drops_the_extremes() {
        assert_eq!(trimmed_mean(&[1.0, 2.0, 3.0, 100.0]), 2.5);
        assert_eq!(trimmed_mean(&[0.0, 0.0, 5.0, 5.0, 5.0, 5.0, 9.0, 9.0]), 5.0);
        assert_eq!(trimmed_mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut s: Vec<u64> = (0..1000).collect();
        assert_eq!(tail(&mut s).map(|t| t.0), Some(0.99));
        let mut s: Vec<u64> = (0..200).collect();
        assert_eq!(tail(&mut s).map(|t| t.0), Some(0.95));
        let mut s: Vec<u64> = (0..15).collect();
        assert_eq!(tail(&mut s), None);
    }
}
