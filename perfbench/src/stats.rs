//! Order statistics over one run's operation records.

use std::time::Instant;

/// One timed operation: when it completed, how long it took, and whether
/// it returned success and passed its output check.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub end: Instant,
    pub ms: f64,
    pub ok: bool,
}

/// Linear-interpolated quantile `q ∈ [0, 1]` (the NumPy default).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Completion rates of consecutive windows of `k` completions, the first
/// window opening at `start`. A trailing partial window is dropped.
pub fn window_rates(start: Instant, ops: &[Op], k: usize) -> Vec<f64> {
    let mut ends: Vec<Instant> = ops.iter().map(|o| o.end).collect();
    ends.sort();
    let mut rates = Vec::new();
    let mut open = start;
    for chunk in ends.chunks_exact(k) {
        let close = chunk[k - 1];
        rates.push(k as f64 / (close - open).as_secs_f64());
        open = close;
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn windows_count_completions() {
        let t0 = Instant::now();
        let ops: Vec<Op> = (1..=7)
            .map(|i| Op {
                end: t0 + Duration::from_millis(100 * i),
                ms: 100.0,
                ok: true,
            })
            .collect();
        let rates = window_rates(t0, &ops, 3);
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 10.0).abs() < 1e-6);
        assert!((rates[1] - 10.0).abs() < 1e-6);
    }
}
