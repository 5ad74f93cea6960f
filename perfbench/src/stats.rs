//! Exact order statistics over raw samples.
//!
//! Every latency the benchmark reports is computed here from the full list
//! of per-request samples — never from bucketed histograms — so a quantile
//! is always a value some request actually measured.

/// The nearest-rank `q`-quantile of `samples` (`0 < q <= 1`): the smallest
/// sample such that at least `q·n` samples are at or below it. Reorders
/// `samples` in place (selection, not a full sort). `None` when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let idx = rank_index(samples.len(), q);
    let (_, v, _) = samples.select_nth_unstable_by(idx, |a, b| a.total_cmp(b));
    Some(*v)
}

/// Zero-based index of the nearest-rank `q`-quantile in a sorted list of
/// `n` samples.
pub fn rank_index(n: usize, q: f64) -> usize {
    let q = q.clamp(0.0, 1.0);
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Median (nearest-rank 0.5-quantile); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(&mut samples.to_vec(), 0.5)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The quantiles one latency series is reported with.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile (printed, never gated).
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarizes `samples` (all zeros when empty).
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable_by(|a, b| a.total_cmp(b));
        let at = |q: f64| sorted[rank_index(sorted.len(), q)];
        Summary {
            n: sorted.len(),
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
            mean: mean(&sorted).unwrap_or(0.0),
        }
    }
}
