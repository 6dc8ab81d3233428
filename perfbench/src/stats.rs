//! Order statistics over samples and over `ptb-serve`'s log₂-µs
//! latency histograms.

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `0..1` and how many samples lie
/// beyond it. A tail percentile is only reported when at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> (f64, usize) {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

pub const MIN_BEYOND: usize = 10;

/// Fewest samples for which percentile `q` has [`MIN_BEYOND`] beyond it.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| percentile_rank_beyond(n, q) >= MIN_BEYOND)
        .expect("some sample count suffices")
}

fn percentile_rank_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// Quantile `q` of a bucket-count delta of a `ptb_serve::metrics`
/// histogram (bucket `i` covers `[2^i, 2^(i+1))` µs): the bucket's
/// `(lower, upper)` edges in milliseconds and the value interpolated
/// linearly inside it. `None` when the delta is empty.
pub fn histogram_quantile_ms(counts: &[u64], q: f64) -> Option<(f64, f64, f64)> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = (q * total as f64).ceil().clamp(1.0, total as f64);
    let mut before = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        let c = c as f64;
        if before + c >= rank {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = (1u64 << (i + 1)) as f64;
            let frac = (rank - before - 0.5) / c;
            return Some((lo / 1e3, hi / 1e3, (lo + frac * (hi - lo)) / 1e3));
        }
        before += c;
    }
    None
}

/// Element-wise `after - before` of two histogram snapshots.
pub fn delta(after: &[u64], before: &[u64]) -> Vec<u64> {
    after.iter().zip(before).map(|(a, b)| a - b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_count_what_lies_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), (990.0, 10));
        assert_eq!(percentile(&v, 0.5), (500.0, 500));
        assert_eq!(median(&v), 500.5);
        assert_eq!(min_samples_for(0.99), 1000);
        assert_eq!(min_samples_for(0.9), 100);
    }

    #[test]
    fn histogram_quantiles_interpolate_inside_the_bucket() {
        let mut counts = vec![0u64; 32];
        counts[10] = 4; // [1024, 2048) µs
        let (lo, hi, p50) = histogram_quantile_ms(&counts, 0.5).unwrap();
        assert_eq!((lo, hi), (1.024, 2.048));
        assert!((lo..hi).contains(&p50), "{p50}");
        assert_eq!(histogram_quantile_ms(&[0; 32], 0.5), None);
    }
}
