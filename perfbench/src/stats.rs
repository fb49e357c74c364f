//! Order statistics and failure counting for the benchmark's metrics.

/// The median of `xs` (mean of the two middle values for an even
/// count); `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// A tail latency: the highest percentile of a sample that still has
/// at least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile rank, `100 · (n − TAIL_BEYOND) / n`.
    pub percentile: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// Samples a reported tail must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `xs`: the value at sorted index `n − 11`, which exactly
/// [`TAIL_BEYOND`] samples exceed in rank. `None` with fewer than
/// `TAIL_BEYOND + 1` samples, where no such rank exists.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    Some(Tail {
        value: s[n - TAIL_BEYOND - 1],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Operations attempted and failed across every phase of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Count `attempted` operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.add(1, u64::from(!ok));
    }

    /// `failed ÷ attempted`; `0` when nothing was attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None, "10 samples leave none with 10 beyond");

        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);

        // 100 samples 1..=100: the 90th value has exactly 10 above it.
        let mut hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        hundred.reverse();
        let t = tail(&hundred).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        let beyond = hundred.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_counts_ties_by_rank() {
        let mut xs = vec![5.0; 20];
        xs.push(9.0);
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 5.0);
        assert!((t.percentile - 100.0 * 11.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn failed_frac_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        t.add(1000, 0); // devices, all absorbed
        t.record(true); // an acked push
        t.record(false); // a push answered with an error frame
        t.add(8, 1); // GETs, one torn
        assert_eq!(
            t,
            Tally {
                attempted: 1010,
                failed: 2
            }
        );
        assert!((t.failed_frac() - 2.0 / 1010.0).abs() < 1e-15);
    }
}
