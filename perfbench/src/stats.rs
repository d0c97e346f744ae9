//! Latency histograms and the order statistics the report is built from.

/// Sub-buckets per power of two: 128 keeps every quantile within 0.8 % of
/// the recorded value.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const NBUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// A log-linear histogram of nanosecond values with exact count and sum.
#[derive(Clone)]
pub struct LatHist {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
}

impl Default for LatHist {
    fn default() -> LatHist {
        LatHist {
            counts: vec![0; NBUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// Midpoint of the values that land in bucket `i`.
fn bucket_mid(i: usize) -> f64 {
    let i = i as u64;
    if i < 2 * SUB {
        return i as f64;
    }
    let shift = i / SUB - 1;
    let m = i % SUB + SUB;
    let lo = (m << shift) as f64;
    let hi = ((m + 1) << shift) as f64;
    (lo + hi - 1.0) / 2.0
}

impl LatHist {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
    }

    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q`; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        unreachable!("rank is at most count")
    }
}

/// Per-window histograms of one operation type, so a tail quantile can be
/// taken per window and summarised by its median across windows.
#[derive(Clone)]
pub struct Windowed {
    window_ns: u64,
    windows: Vec<LatHist>,
}

impl Windowed {
    pub fn new(window_ns: u64, windows: usize) -> Windowed {
        Windowed {
            window_ns,
            windows: vec![LatHist::default(); windows],
        }
    }

    /// Records `v` into the window holding time `at_ns` (relative to the
    /// phase start); samples past the last window land in it.
    pub fn record(&mut self, at_ns: u64, v: u64) {
        let w = ((at_ns / self.window_ns) as usize).min(self.windows.len() - 1);
        self.windows[w].record(v);
    }

    pub fn merge(&mut self, other: &Windowed) {
        for (a, b) in self.windows.iter_mut().zip(&other.windows) {
            a.merge(b);
        }
    }

    pub fn total(&self) -> LatHist {
        let mut all = LatHist::default();
        for w in &self.windows {
            all.merge(w);
        }
        all
    }

    /// Median over windows of each window's `q` quantile. Consecutive
    /// windows are grouped until a group holds at least ten samples beyond
    /// the quantile; a trailing group short of that is left out. Falls back
    /// to the quantile of all samples when fewer than three groups form.
    pub fn windowed_quantile(&self, q: f64) -> f64 {
        let need = (10.0 / (1.0 - q)).ceil() as u64;
        let mut per = Vec::new();
        let mut group = LatHist::default();
        for w in &self.windows {
            group.merge(w);
            if group.count() >= need {
                per.push(group.quantile(q));
                group = LatHist::default();
            }
        }
        if per.len() < 3 {
            return self.total().quantile(q);
        }
        median(&mut per)
    }
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_tight() {
        let mut prev = 0;
        for v in [
            0u64,
            1,
            255,
            256,
            257,
            511,
            512,
            1000,
            1 << 20,
            u64::MAX / 3,
        ] {
            let b = bucket_of(v);
            assert!(b >= prev);
            prev = b;
            let mid = bucket_mid(b);
            assert!(
                (mid - v as f64).abs() <= v as f64 * 0.008 + 0.5,
                "{v} -> {mid}"
            );
        }
        assert!(bucket_of(u64::MAX) < NBUCKETS);
    }

    #[test]
    fn quantiles_and_windows() {
        let mut w = Windowed::new(100, 5);
        for at in 0..500u64 {
            for _ in 0..300 {
                w.record(at, 1000);
            }
            // One slow window must not move the windowed p99.
            if at / 100 == 2 {
                for _ in 0..30 {
                    w.record(at, 1_000_000);
                }
            }
        }
        let p99 = w.windowed_quantile(0.99);
        assert!((p99 - 1000.0).abs() < 10.0, "{p99}");
        assert!(w.total().quantile(0.999) > 100_000.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
