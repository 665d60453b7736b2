//! Order statistics for timings: the median, the quartiles, and the
//! highest percentile the sample supports, always with the sample count.

/// Summary of one timing sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of values summarised.
    pub count: usize,
    /// The median.
    pub p50: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// The highest of [`TAIL_PERCENTILES`] with at least
    /// [`TAIL_MIN_BEYOND`] values beyond it, and its value; `None` when
    /// even the lowest one lacks that many.
    pub tail: Option<(f64, f64)>,
}

/// Tail percentiles tried, highest first.
pub const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Values that must lie beyond a tail percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0..=100) of `sorted` by linear interpolation
/// between closest ranks, the definition `statistics.quantiles(...,
/// method="inclusive")` uses.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Number of ranks strictly above the `p`-th percentile's interpolation
/// position in a sample of `count`: the values that percentile rests on.
#[must_use]
pub fn beyond(count: usize, p: f64) -> usize {
    if count == 0 {
        return 0;
    }
    let rank = p / 100.0 * (count - 1) as f64;
    count - 1 - rank.floor() as usize
}

/// The highest of [`TAIL_PERCENTILES`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it in a sample of `count`.
#[must_use]
pub fn supported_tail(count: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| beyond(count, p) >= TAIL_MIN_BEYOND)
}

/// Summarises `values` (any order). `None` for an empty sample.
#[must_use]
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail = supported_tail(sorted.len()).map(|p| (p, percentile(&sorted, p)));
    Some(Summary {
        count: sorted.len(),
        p50: percentile(&sorted, 50.0),
        q1: percentile(&sorted, 25.0),
        q3: percentile(&sorted, 75.0),
        tail,
    })
}

/// The median of `values`, 0 for an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.p50)
}

/// The `p`-th percentile of each consecutive slice of `in_order`, with as
/// many slices as hold at least `min_slice` values each (at least one).
/// Empty for an empty sample.
#[must_use]
pub fn slice_percentiles(in_order: &[f64], p: f64, min_slice: usize) -> Vec<f64> {
    if in_order.is_empty() {
        return Vec::new();
    }
    let slices = (in_order.len() / min_slice.max(1)).max(1);
    let per = in_order.len() / slices;
    (0..slices)
        .map(|i| {
            let end = if i + 1 == slices {
                in_order.len()
            } else {
                (i + 1) * per
            };
            let mut s = in_order[i * per..end].to_vec();
            s.sort_by(f64::total_cmp);
            percentile(&s, p)
        })
        .collect()
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p50 {:.4} (q1 {:.4}, q3 {:.4})",
            self.p50, self.q1, self.q3
        )?;
        if let Some((p, v)) = self.tail {
            write!(f, ", p{p} {v:.4}")?;
        }
        write!(f, ", n={}", self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.p50, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(summarize(&[7.0]).unwrap().p50, 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 values: p99 sits at rank 989.01, so ranks 990..=999 lie beyond.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(supported_tail(1000), Some(99.0));
        // 901 values: p99 sits exactly on rank 891, leaving 9 beyond.
        assert_eq!(beyond(902, 99.0), 10);
        assert_eq!(beyond(901, 99.0), 9);
        assert_eq!(supported_tail(901), Some(90.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(9_000), Some(99.0));
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let s = summarize(&ramp(1000)).unwrap();
        let (p, v) = s.tail.unwrap();
        assert_eq!(p, 99.0);
        assert!((v - 990.01).abs() < 1e-9, "p99 of 1..=1000 was {v}");
        assert!(summarize(&ramp(5)).unwrap().tail.is_none());
    }

    #[test]
    fn slice_percentiles_cut_consecutive_slices() {
        // Three slices of 1000; one stall in the first slice only.
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut v[0..50] {
            *x = 1e6;
        }
        let p99s = slice_percentiles(&v, 99.0, 1000);
        assert_eq!(p99s.len(), 3);
        assert_eq!(p99s[0], 1e6);
        assert!((p99s[1] - 989.01).abs() < 1e-9, "slice p99 was {}", p99s[1]);
        // The remainder joins the last slice.
        assert_eq!(slice_percentiles(&v[..2999], 99.0, 1000).len(), 2);
        // Fewer values than one slice: the plain percentile.
        let short: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(slice_percentiles(&short, 50.0, 1000), vec![50.5]);
        assert!(slice_percentiles(&[], 50.0, 1000).is_empty());
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let mut v = ramp(101);
        let a = summarize(&v).unwrap();
        v.reverse();
        assert_eq!(summarize(&v).unwrap(), a);
        assert_eq!(a.p50, 51.0);
    }
}
