//! Order statistics and the result line.

/// The nearest-rank percentile of ascending `sorted` (`p` in 0..=1):
/// the value and its 1-based rank.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], rank)
}

/// The median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One metric of the result line.
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The last line of standard output: one JSON object.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // Rust's float Display is the shortest string that reads back
            // to the same f64: every measured digit, nothing invented.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Parse Prometheus text into `series → value` (series keeps its labels).
pub fn parse_prometheus(text: &str) -> std::collections::BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}
