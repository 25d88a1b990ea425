//! Order statistics over latency samples.

/// Nearest-rank percentile of `v` (sorted in place), `q` in `(0, 1]`.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(median(&mut [3.0]), 3.0);
    }
}
