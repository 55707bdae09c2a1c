//! Latency samples and the percentile rules every reported timing follows.

/// The percentiles a tail is chosen from, above the median.
pub const TAIL_LADDER: [f64; 2] = [0.75, 0.9];

/// Durations in nanoseconds, kept whole so medians and tails are exact.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> u64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<u64> {
        let mut v = self.0.clone();
        v.sort_unstable();
        v
    }

    /// The median, in nanoseconds (0 when empty).
    pub fn median(&self) -> f64 {
        median_of(&self.sorted())
    }

    /// The tail: the highest of p75 and p90 that has at least ten samples
    /// beyond it, and that percentile (as a fraction). With fewer than forty
    /// samples there is no tail, so the median stands in. The ladder stops
    /// at p90: on a shared two-core machine, p99 and beyond of a run's
    /// samples moved by 50-100 % from run to run.
    pub fn tail_with_percentile(&self) -> (f64, f64) {
        let v = self.sorted();
        let n = v.len();
        let mut best = (median_of(&v), 0.5);
        for q in TAIL_LADDER {
            // Nearest-rank percentile: the sample at rank ceil(q * n).
            let rank = (q * n as f64).ceil() as usize;
            if rank == 0 || n - rank < 10 {
                break;
            }
            best = (v[rank - 1] as f64, q);
        }
        best
    }

    pub fn tail(&self) -> f64 {
        self.tail_with_percentile().0
    }
}

fn median_of(sorted: &[u64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2] as f64,
        n => (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0,
    }
}

/// Median of a list of measurements (seconds, milliseconds, ratios).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let mut s = Samples::default();
        for ns in 1..=100 {
            s.push(ns);
        }
        assert_eq!(s.tail_with_percentile(), (90.0, 0.9));
        assert_eq!(s.median(), 50.5);
        for ns in 101..=100_000 {
            s.push(ns);
        }
        assert_eq!(s.tail_with_percentile(), (90_000.0, 0.9));
    }

    #[test]
    fn short_series_report_the_median_as_tail() {
        let mut s = Samples::default();
        for ns in [5, 1, 3] {
            s.push(ns);
        }
        assert_eq!(s.tail(), 3.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
