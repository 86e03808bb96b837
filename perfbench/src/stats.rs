//! Order statistics for the reported timings.

/// The `q`-quantile (0..=1) by nearest rank; `None` on no samples.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// A latency summary: median, 99th percentile, sample count, and how many
/// samples lie beyond the 99th percentile.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub beyond_p99: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let p99 = quantile(values, 0.99).unwrap_or(f64::NAN);
    Summary {
        n: values.len(),
        p50: median(values).unwrap_or(f64::NAN),
        p99,
        beyond_p99: values.iter().filter(|&&v| v > p99).count(),
    }
}
