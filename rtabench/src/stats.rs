//! Order statistics and the parent-vs-change comparison rule.

/// Nearest-rank percentile `p ∈ (0, 100]` of an ascending slice: the
/// smallest sample with at least `p`% of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// Nearest rank `⌈p·n/100⌉`, in exact integer arithmetic on hundredths of
/// a percent so that e.g. the 99th percentile of 1000 samples is rank 990
/// and not a floating-point neighbour.
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as usize;
    (hundredths * n).div_ceil(10_000)
}

/// The percentiles a tail is reported at, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_CANDIDATES`] that leaves at least ten
/// samples beyond it — the tail a run of `n` samples can actually resolve.
/// `None` when even the median has fewer than ten samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Sub-buckets per power of two in [`LatencyHistogram`].
const SUB_BITS: u32 = 10;

/// A log-linear latency histogram: exact below 1024 ns, then 1024
/// sub-buckets per power of two (relative resolution under 0.1%). Its
/// memory is fixed, so the benchmark's own footprint does not grow with
/// the number of operations a run completes.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: vec![0; ((64 - SUB_BITS + 1) as usize) << SUB_BITS],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    fn index(ns: u64) -> usize {
        if ns < 1 << SUB_BITS {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        (((shift + 1) as usize) << SUB_BITS) + ((ns >> shift) as usize & ((1 << SUB_BITS) - 1))
    }

    /// The midpoint of bucket `i`, in nanoseconds.
    fn value(i: usize) -> f64 {
        if i < 2 << SUB_BITS {
            return i as f64;
        }
        let shift = (i >> SUB_BITS) - 1;
        let lower = ((1 << SUB_BITS) + (i & ((1 << SUB_BITS) - 1))) << shift;
        lower as f64 + (1u64 << shift) as f64 / 2.0
    }

    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile in microseconds (0 without samples).
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = rank(self.total as usize, p).max(1) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i) / 1e3;
            }
        }
        unreachable!("rank ≤ total")
    }
}

/// Median of unsorted values (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let q = quartiles(values);
    q.1
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them, so spreads read the same as the acceptance check computes
/// them. One value yields that value three times.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        // CPython's exclusive method, integer arithmetic included: the
        // clamped index may extrapolate past the outermost samples.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput).
    Higher,
    /// Smaller values are better (latency, cost, memory).
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    fn improves(self, change: f64, parent: f64) -> bool {
        match self {
            Better::Higher => change > parent,
            Better::Lower => change < parent,
        }
    }
}

/// How one metric of one workload compares between two sets of runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// The change wins ≥ 9/10 of the pairs and the medians differ by more
    /// than the parent's own interquartile distance.
    Gain,
    /// The change's median is worse than the parent's by more than the bound.
    Regression,
    /// Neither: within the bound, with spreads inside it.
    Unchanged,
    /// A spread exceeds the bound, so "unchanged" cannot be claimed.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for the comparison table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "regression",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The measuring rule for a claimed change: `parent[i]` and `change[i]`
/// are the i-th pair (same seed, same run length, run index i).
///
/// * a **gain** needs the change to win at least nine tenths of the pairs
///   (ties count for neither side) *and* medians that differ by more than
///   the parent's interquartile distance;
/// * otherwise, if either side's relative spread exceeds `bound`, the
///   metric is **unresolved** — unless every change run beats every
///   parent run, which no spread can explain away;
/// * otherwise a median worse than the parent's by more than `bound` (as a
///   share of the parent's median) is a **regression**, anything else is
///   **unchanged**.
///
/// # Panics
///
/// Panics if the sides are empty or of different lengths.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    assert!(!parent.is_empty(), "no parent runs");
    assert_eq!(parent.len(), change.len(), "runs must pair up");
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better.improves(c, p))
        .count();
    let (p1, pmed, p3) = quartiles(parent);
    let cmed = median(change);
    if wins * 10 >= parent.len() * 9 && better.improves(cmed, pmed) && (cmed - pmed).abs() > p3 - p1
    {
        return Verdict::Gain;
    }
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better.improves(c, p)));
    if (relative_spread(parent) > bound || relative_spread(change) > bound) && !all_better {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Higher => (pmed - cmed) / pmed.abs(),
        Better::Lower => (cmed - pmed) / pmed.abs(),
    };
    if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 above it, p99.9 only 1.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        // The rule holds for every n: ≥ 10 beyond the chosen percentile and
        // < 10 beyond the next higher candidate.
        for n in 20..5000 {
            let p = tail_percentile(n).expect("n ≥ 20");
            assert!(samples_beyond(n, p) >= 10, "n={n}");
            let i = TAIL_CANDIDATES.iter().position(|&c| c == p).unwrap();
            if i > 0 {
                assert!(samples_beyond(n, TAIL_CANDIDATES[i - 1]) < 10, "n={n}");
            }
        }
    }

    #[test]
    fn histogram_percentiles_are_within_a_tenth_of_a_percent() {
        let mut h = LatencyHistogram::default();
        let mut exact = Vec::new();
        for i in 0..100_000u64 {
            let ns = 500 + (i * 7919) % 10_000_000; // 0.5 µs .. 10 ms
            h.record(ns);
            exact.push(ns);
        }
        exact.sort_unstable();
        for p in [50.0, 90.0, 99.0, 99.9] {
            let want = percentile(&exact, p) as f64 / 1e3;
            let got = h.percentile_us(p);
            assert!((got - want).abs() <= want * 1e-3, "p{p}: {got} vs {want}");
        }
        // Small values are exact; buckets are contiguous across the
        // exact/log boundary.
        let mut small = LatencyHistogram::default();
        small.record(7);
        assert_eq!(small.percentile_us(50.0), 0.007);
        for ns in [1023u64, 1024, 2047, 2048, 4095, 4096, u64::MAX] {
            let i = LatencyHistogram::index(ns);
            assert!(LatencyHistogram::value(i) <= ns as f64 * 1.001, "{ns}");
            assert!(LatencyHistogram::value(i) >= ns as f64 * 0.999, "{ns}");
        }
        assert_eq!(h.len(), 100_000);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 2.5, 3.75));
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn comparison_rule() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        // Clear gain on a higher-is-better metric.
        let faster: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(
            compare(&parent, &faster, Better::Higher, 0.1),
            Verdict::Gain
        );
        // The same numbers on a lower-is-better metric are a regression.
        assert_eq!(
            compare(&parent, &faster, Better::Lower, 0.1),
            Verdict::Regression
        );
        // Identical runs: unchanged.
        assert_eq!(
            compare(&parent, &parent, Better::Higher, 0.1),
            Verdict::Unchanged
        );
        // Wins 8 of 10 pairs only: no gain, and within the bound.
        let mut mixed: Vec<f64> = parent.iter().map(|p| p + 0.6).collect();
        mixed[0] = 90.0;
        mixed[1] = 90.0;
        assert_eq!(
            compare(&parent, &mixed, Better::Higher, 0.1),
            Verdict::Unchanged
        );
        // A spread wider than the bound makes the metric unresolved.
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 100.0, 70.0, 130.0, 90.0, 110.0,
        ];
        assert_eq!(
            compare(&parent, &noisy, Better::Higher, 0.1),
            Verdict::Unresolved
        );
    }
}
