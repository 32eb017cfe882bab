//! Medians and tail percentiles of timing samples.
//!
//! A percentile is only reported when at least [`TAIL_SAMPLES`] samples
//! lie beyond it; with fewer, one slow sample would be the whole tail.
//! A metric named for a percentile reports the highest percentile up to
//! that one which the samples support, and the median when they support
//! none (fewer than `2 * TAIL_SAMPLES` samples); every metric line
//! prints its sample count.

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the middle pair for an even count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some(0.5 * (s[n / 2 - 1] + s[n / 2])),
    }
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`), returned only when
/// at least [`TAIL_SAMPLES`] samples rank beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    let rank = (p * n as f64 / 100.0).ceil().max(1.0) as usize;
    (n >= rank && n - rank >= TAIL_SAMPLES).then(|| s[rank - 1])
}

/// The highest percentile up to the `p`-th that has [`TAIL_SAMPLES`]
/// samples beyond it, or the median when even that one lacks them;
/// `None` when empty.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    percentile(samples, p).or_else(|| {
        let s = sorted(samples);
        let n = s.len();
        if n >= 2 * TAIL_SAMPLES {
            Some(s[n - TAIL_SAMPLES - 1])
        } else {
            median(samples)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the helpers must sort.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 1..=100 is 90, with exactly ten samples (91..=100) beyond.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        // 99 samples: rank 90 leaves only nine beyond.
        assert_eq!(percentile(&ramp(99), 90.0), None);
        // The median needs twenty samples.
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        for n in 1..300 {
            let data = ramp(n);
            if let Some(v) = percentile(&data, 90.0) {
                let beyond = data.iter().filter(|&&x| x > v).count();
                assert!(beyond >= TAIL_SAMPLES, "n={n}: {beyond} beyond p90");
            }
        }
    }

    #[test]
    fn tail_caps_the_percentile_at_what_the_samples_support() {
        // Enough samples: the percentile itself.
        assert_eq!(tail(&ramp(100), 90.0), Some(90.0));
        assert_eq!(tail(&ramp(1000), 90.0), percentile(&ramp(1000), 90.0));
        // 60 samples support at most rank 50 (p83): ten lie beyond it.
        assert_eq!(tail(&ramp(60), 90.0), Some(50.0));
        // Fewer than twenty: no tail at all, so the median.
        assert_eq!(tail(&ramp(19), 90.0), Some(10.0));
        assert_eq!(tail(&[3.0, 9.0, 4.0], 90.0), Some(4.0));
        assert_eq!(tail(&[], 90.0), None);
        // Never above the requested percentile, never below the median.
        for n in 1..300 {
            let data = ramp(n);
            let v = tail(&data, 90.0).unwrap();
            let beyond = data.iter().filter(|&&x| x > v).count();
            assert!(v >= median(&data).unwrap() - 0.5, "n={n}");
            assert!(n < 20 || beyond >= TAIL_SAMPLES, "n={n}: {beyond} beyond");
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
