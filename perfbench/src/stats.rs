//! Order statistics for latency samples, and the tail-percentile rule: a
//! tail is reported at the highest percentile of a fixed ladder that still
//! has at least [`MIN_BEYOND`] samples beyond it.

/// Percentiles a tail may be reported at, lowest first.  It stops at p90:
/// on a shared 2-core VM a p99 is set by host steal and fsync spikes that
/// hit about 1% of ops, and swung by 40-70% between runs of the same code,
/// more than any regression bound the benchmark may set.
pub const LADDER: [f64; 2] = [50.0, 90.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of the `p`-th percentile in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // In integer per-mille, so that e.g. p99.9 of 10 000 is exactly rank 9990.
    let per_mille = (p * 10.0).round() as usize;
    (n * per_mille).div_ceil(1000).clamp(1, n) - 1
}

/// How many of `n` samples lie beyond the `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] of `n`
/// samples beyond it, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Most windows a tail is taken over.
pub const TAIL_WINDOWS: usize = 5;

/// The tail of `samples` (in time order): the percentile
/// [`tail_percentile`] picks for all of them, taken in each of up to
/// [`TAIL_WINDOWS`] equal consecutive windows that still have
/// [`MIN_BEYOND`] samples beyond it, and the median of those.  One burst of
/// interference on a shared machine then moves one window, not the
/// result.  Returns the percentile and the tail; `None` when too few.
pub fn windowed_tail(samples: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile(samples.len())?;
    let windows = (1..=TAIL_WINDOWS).rev().find(|&k| beyond(samples.len() / k, p) >= MIN_BEYOND)?;
    let size = samples.len() / windows;
    let tails: Vec<f64> = samples
        .chunks_exact(size)
        .take(windows)
        .filter_map(|chunk| percentile(chunk, p))
        .collect();
    Some((p, median(&tails)?))
}

/// The `p`-th percentile (nearest rank) of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p)])
}

/// The median (nearest rank) of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The arithmetic mean of `samples`; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None, "the median of 10 has only 5 beyond it");
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(100_000), Some(90.0));
        for n in 0..5000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
                if let Some(&higher) = LADDER.iter().find(|&&q| q > p) {
                    assert!(beyond(n, higher) < MIN_BEYOND, "n={n}: p{higher} also qualifies");
                }
            }
        }
    }

    #[test]
    fn windowed_tails_take_the_median_of_window_tails() {
        assert_eq!(windowed_tail(&[1.0; 10]), None);
        // 150 samples: p90, in one window (a window of 75 has 7 beyond it).
        let ramp: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(windowed_tail(&ramp), Some((90.0, 135.0)));
        // 300 samples: p90 in three windows of 100 (not four of 75).
        let ramp: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(windowed_tail(&ramp), Some((90.0, 190.0)));
        // 5000 samples: p90 in each of five windows of 1000.  A burst in one
        // window does not move the median of the window tails.
        let mut samples = vec![1.0; 5000];
        for (i, sample) in samples.iter_mut().enumerate() {
            *sample = (i % 100) as f64;
        }
        assert_eq!(windowed_tail(&samples), Some((90.0, 89.0)));
        for sample in &mut samples[1000..2000] {
            *sample = 1000.0;
        }
        assert_eq!(windowed_tail(&samples), Some((90.0, 89.0)));
        assert_eq!(percentile(&samples, 90.0), Some(1000.0), "the plain tail moves");
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 99.9), Some(100.0));
        assert_eq!(beyond(10_000, 99.9), 10);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
