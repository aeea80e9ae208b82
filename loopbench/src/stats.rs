//! Order statistics over latency samples.

/// Percentiles the tail report climbs through, as `(numerator,
/// denominator)` fractions so rank arithmetic stays exact.
const TAIL_LADDER: [(u64, u64); 6] = [
    (50, 100),
    (90, 100),
    (99, 100),
    (999, 1000),
    (9_999, 10_000),
    (99_999, 100_000),
];

/// Samples a reported percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: u64 = 10;

/// The 1-based nearest rank of fraction `num/den` among `n` samples.
fn rank(n: u64, num: u64, den: u64) -> u64 {
    (n * num).div_ceil(den).max(1)
}

/// The nearest-rank percentile `num/den` of ascending `sorted` samples
/// (`0` for an empty slice).
pub fn percentile_frac(sorted: &[u64], num: u64, den: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let r = rank(sorted.len() as u64, num, den);
    sorted[(r - 1) as usize]
}

/// The nearest-rank percentile `p` (in percent) of ascending `sorted`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    let num = (p * 1000.0).round() as u64;
    percentile_frac(sorted, num, 100_000)
}

/// The highest percentile a sample supports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in percent (e.g. `99.9`).
    pub percentile: f64,
    /// Its value.
    pub value: u64,
    /// Samples in the set.
    pub samples: u64,
}

/// The highest percentile of ascending `sorted` with at least
/// [`TAIL_MIN_BEYOND`] samples above its rank, together with the sample
/// count; `None` when even the median has fewer beyond it.
pub fn supported_tail(sorted: &[u64]) -> Option<Tail> {
    let n = sorted.len() as u64;
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&(num, den)| n >= rank(n, num, den) + TAIL_MIN_BEYOND)
        .map(|&(num, den)| Tail {
            percentile: 100.0 * num as f64 / den as f64,
            value: percentile_frac(sorted, num, den),
            samples: n,
        })
}

/// Deliveries per window of [`window_percentiles`]: the fewest that leave
/// [`TAIL_MIN_BEYOND`] samples beyond a p99.
pub const WINDOW: usize = 1000;

/// Splits `samples` (in arrival order) into consecutive windows of at
/// least `window` samples and returns the nearest-rank percentile `p` of
/// each. A remainder shorter than `window` joins the last window.
///
/// The median of these values is the tail of a typical window: a stall
/// that delays a burst of deliveries spoils the windows it falls in, not
/// the whole figure.
pub fn window_percentiles(samples: &[u64], window: usize, p: f64) -> Vec<f64> {
    let n = samples.len() / window;
    (0..n)
        .map(|i| {
            let end = if i + 1 == n {
                samples.len()
            } else {
                (i + 1) * window
            };
            let mut w = samples[i * window..end].to_vec();
            w.sort_unstable();
            percentile(&w, p) as f64
        })
        .collect()
}

/// Events per second among `times_ns` in each whole window of
/// `window_ns` that fits in `[start_ns, end_ns)`.
pub fn window_rates(times_ns: &[u64], start_ns: u64, end_ns: u64, window_ns: u64) -> Vec<f64> {
    let n = (end_ns.saturating_sub(start_ns) / window_ns) as usize;
    let mut counts = vec![0u64; n];
    for &t in times_ns {
        if let Some(c) = t
            .checked_sub(start_ns)
            .and_then(|d| counts.get_mut((d / window_ns) as usize))
        {
            *c += 1;
        }
    }
    counts
        .into_iter()
        .map(|c| c as f64 * 1e9 / window_ns as f64)
        .collect()
}

/// The arithmetic mean of `values` (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&ramp(1000), 99.9), 999);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: rank(p99) = 990 leaves exactly 10 beyond.
        let t = supported_tail(&ramp(1000)).expect("tail");
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990, 1000));
        // 999 samples: p99 leaves only 9, so p90 is the highest supported.
        let t = supported_tail(&ramp(999)).expect("tail");
        assert_eq!((t.percentile, t.samples), (90.0, 999));
        // 10 000 samples support p99.9 (rank 9990, 10 beyond).
        let t = supported_tail(&ramp(10_000)).expect("tail");
        assert_eq!((t.percentile, t.value), (99.9, 9990));
        // 20 samples support the median only; 19 support nothing.
        assert_eq!(supported_tail(&ramp(20)).expect("tail").percentile, 50.0);
        assert_eq!(supported_tail(&ramp(19)), None);
    }

    #[test]
    fn windowed_percentile_ignores_a_stalled_minority_of_windows() {
        // Five windows of 100: three clean (p99 = 99), two hit by a stall
        // that delays half their samples by 10 000.
        let mut s = Vec::new();
        for w in 0..5 {
            for i in 1..=100u64 {
                s.push(if w % 2 == 1 && i > 50 { i + 10_000 } else { i });
            }
        }
        let pooled = {
            let mut all = s.clone();
            all.sort_unstable();
            percentile(&all, 99.0)
        };
        assert!(pooled > 10_000, "the pooled p99 is the stall");
        let mut windows = window_percentiles(&s, 100, 99.0);
        assert_eq!(windows.len(), 5);
        assert_eq!(median(&mut windows), 99.0);
        // A short remainder joins the last window; too few samples: none.
        assert_eq!(
            window_percentiles(&s[..250], 100, 100.0),
            vec![100.0, 10_100.0]
        );
        assert!(window_percentiles(&s[..99], 100, 50.0).is_empty());
    }

    #[test]
    fn window_rates_count_whole_windows_only() {
        // Windows of 100 ns from 1000: [1000,1100) has 3 events, [1100,1200)
        // has 1, [1200,1300) has 2; 1300.. is a partial window, 999 is early.
        let t = [999, 1000, 1050, 1099, 1150, 1200, 1201, 1300, 1350];
        assert_eq!(window_rates(&t, 1000, 1350, 100), vec![3e7, 1e7, 2e7]);
        assert!(window_rates(&t, 1000, 1050, 100).is_empty());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&mut []).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(mean(&[]).is_nan());
    }
}
