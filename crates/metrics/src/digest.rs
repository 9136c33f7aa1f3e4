//! A streaming, mergeable summary of repeated measurements.

/// Default capacity of the quantile sketch: below this many samples quantiles are
/// exact; beyond it the sketch compacts to bounded memory.
const DEFAULT_CAPACITY: usize = 4096;

/// A streaming summary of a sample set: count, mean, standard deviation, min/max, and
/// approximate quantiles, in bounded memory.
///
/// * **Moments** (mean, variance) are maintained with the weighted incremental form of
///   Welford's online algorithm; [`record`](Self::record) keeps them exact regardless
///   of sketch compaction.
/// * **Quantiles** come from a compacting sketch: raw `(value, weight)` pairs are kept
///   until the capacity is reached, then the sorted buffer is halved by merging
///   adjacent pairs. Up to the capacity (default 4096) quantiles are *exact*
///   nearest-rank statistics; past it they are approximate with rank error bounded by
///   the number of compactions.
/// * **Merging** ([`Digest::merge`]) replays the other digest's retained entries
///   through the *same* weighted update as `record`. Two consequences: the merge is
///   deterministic (a pure function of the operand states), and while the merged-in
///   digests have not compacted, reducing per-seed digests in seed order is
///   **bit-identical** to recording the concatenated stream sequentially — the
///   property the parallel scenario runner's determinism contract extends to. Merging
///   digests that *have* compacted remains deterministic but approximate (each
///   retained entry stands in for `weight` nearby samples).
///
/// Empty-digest statistics return `0.0` (matching the `Samples` type this replaces),
/// except [`Digest::quantile`] which returns `None`.
///
/// # Example
///
/// ```
/// use sdn_metrics::Digest;
///
/// let mut d = Digest::default();
/// for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
///     d.record(v);
/// }
/// assert_eq!(d.len(), 5);
/// assert_eq!(d.mean(), 3.0);
/// assert_eq!(d.median(), 3.0);
/// assert_eq!(d.p99(), 5.0);
/// assert!((d.stddev() - 2.5f64.sqrt()).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Digest {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    /// `(value, weight)` pairs in insertion order; compacted once `capacity` is hit.
    entries: Vec<(f64, u64)>,
    capacity: usize,
}

impl Default for Digest {
    fn default() -> Self {
        Digest::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Digest {
    /// An empty digest with the default sketch capacity.
    pub fn new() -> Self {
        Digest::default()
    }

    /// An empty digest whose quantile sketch holds at most `capacity` entries
    /// (clamped to at least 8). Quantiles are exact until `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        Digest {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            entries: Vec::new(),
            capacity: capacity.max(8),
        }
    }

    /// A digest over the given samples.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut d = Digest::default();
        for v in samples {
            d.record(v);
        }
        d
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics on non-finite values: NaN/infinity would silently poison every
    /// downstream statistic, so they fail loudly at the source.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "digest values must be finite: {value}");
        self.add_weighted(value, 1);
    }

    /// Folds another digest into this one by replaying its retained entries. The
    /// other digest's exact min/max are folded in directly: compaction drops entries
    /// but `min`/`max` never lose the true extremes.
    pub fn merge(&mut self, other: &Digest) {
        for &(value, weight) in &other.entries {
            self.add_weighted(value, weight);
        }
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// The single moment/sketch update both [`record`](Self::record) and
    /// [`merge`](Self::merge) go through — shared so a seed-order merge of
    /// uncompacted digests executes the exact scalar operation sequence of a
    /// sequential record stream.
    fn add_weighted(&mut self, value: f64, weight: u64) {
        if weight == 0 {
            return;
        }
        let new_count = self.count + weight;
        let delta = value - self.mean;
        self.mean += delta * (weight as f64 / new_count as f64);
        self.m2 += delta * delta * (self.count as f64 * weight as f64 / new_count as f64);
        self.count = new_count;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.entries.push((value, weight));
        if self.entries.len() >= self.capacity {
            self.compact();
        }
    }

    /// Halves the sketch: sort by value, then merge each adjacent pair into its lower
    /// member with the pair's combined weight. Deterministic (stable sort via the
    /// IEEE total order, fixed pairing), which keeps [`merge`](Self::merge)
    /// deterministic too.
    fn compact(&mut self) {
        self.entries.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut compacted = Vec::with_capacity(self.entries.len() / 2 + 1);
        let mut pairs = self.entries.chunks_exact(2);
        for pair in &mut pairs {
            compacted.push((pair[0].0, pair[0].1 + pair[1].1));
        }
        compacted.extend_from_slice(pairs.remainder());
        self.entries = compacted;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Number of recorded samples as the raw counter.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation, with Bessel's correction (0 with fewer than two
    /// samples).
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Minimum sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The nearest-rank `q`-quantile (`q` clamped to `[0, 1]`), or `None` when empty.
    /// Exact while the sketch has not compacted (fewer samples than the capacity).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(self.quantiles(&[q])[0])
    }

    /// Several nearest-rank quantiles over a single sort of the sketch (0.0 each when
    /// empty) — what artifact emitters use to render p50/p90/p99 without re-sorting
    /// per rank.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<f64> {
        if self.count == 0 {
            return vec![0.0; qs.len()];
        }
        let mut sorted = self.entries.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: u64 = sorted.iter().map(|&(_, w)| w).sum();
        qs.iter()
            .map(|&q| {
                let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
                let mut cumulative = 0;
                for &(value, weight) in &sorted {
                    cumulative += weight;
                    if cumulative >= target {
                        return value;
                    }
                }
                unreachable!("cumulative weight covers every target rank")
            })
            .collect()
    }

    /// The summary every benchmark artifact records, in artifact order: count, mean,
    /// stddev, min, the p50/p90/p99 quantiles (one sort) and max.
    pub fn summary(&self) -> [(&'static str, f64); 8] {
        let q = self.quantiles(&[0.5, 0.9, 0.99]);
        [
            ("n", self.len() as f64),
            ("mean", self.mean()),
            ("stddev", self.stddev()),
            ("min", self.min()),
            ("p50", q[0]),
            ("p90", q[1]),
            ("p99", q[2]),
            ("max", self.max()),
        ]
    }

    /// Median — the 0.5 quantile (0 when empty).
    pub fn median(&self) -> f64 {
        self.quantile(0.5).unwrap_or(0.0)
    }

    /// 50th percentile (0 when empty).
    pub fn p50(&self) -> f64 {
        self.median()
    }

    /// 90th percentile (0 when empty).
    pub fn p90(&self) -> f64 {
        self.quantile(0.9).unwrap_or(0.0)
    }

    /// 99th percentile (0 when empty).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* generator — enough randomness for property-style
    /// tests without a dependency.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn next_f64(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The exact nearest-rank quantile of a sorted slice — the reference the digest is
    /// checked against.
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let target = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[target - 1]
    }

    #[test]
    fn empty_digest_statistics() {
        let d = Digest::default();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.stddev(), 0.0);
        assert_eq!(d.min(), 0.0);
        assert_eq!(d.max(), 0.0);
        assert_eq!(d.median(), 0.0);
        assert_eq!(d.quantile(0.5), None);
    }

    #[test]
    fn basic_statistics() {
        let d = Digest::from_samples([2.0, 4.0, 9.0]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.mean(), 5.0);
        assert_eq!(d.median(), 4.0);
        assert_eq!(d.min(), 2.0);
        assert_eq!(d.max(), 9.0);
        // Sample stddev of {2, 4, 9}: sqrt(((2-5)^2 + (4-5)^2 + (9-5)^2) / 2).
        assert!((d.stddev() - (13.0f64).sqrt()).abs() < 1e-12);
        // Negative-only samples: max must not report the old Samples fold default 0.
        let neg = Digest::from_samples([-3.0, -1.0]);
        assert_eq!(neg.max(), -1.0);
        assert_eq!(neg.min(), -3.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_values_are_rejected() {
        Digest::default().record(f64::NAN);
    }

    /// Property: while the sketch has not compacted, p50/p90/p99 equal the exact
    /// nearest-rank quantiles of the sorted sample slice — over many random sample
    /// sets of random sizes.
    #[test]
    fn quantiles_exact_below_capacity() {
        let mut rng = Rng(0x5EED_1234_5678_9ABC);
        for case in 0..200 {
            let n = 1 + (rng.next() % 512) as usize;
            let samples: Vec<f64> = (0..n).map(|_| rng.next_f64() * 1e4 - 5e3).collect();
            let digest = Digest::from_samples(samples.iter().copied());
            let mut sorted = samples.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(
                    digest.quantile(q),
                    Some(exact_quantile(&sorted, q)),
                    "case {case}: n={n} q={q}"
                );
            }
            assert_eq!(digest.min(), sorted[0]);
            assert_eq!(digest.max(), sorted[n - 1]);
        }
    }

    /// Property: past the capacity the sketch stays within a small rank error of the
    /// exact quantiles (values are drawn from [0, 1], so rank error shows up as value
    /// error of the same order), while the moments stay exact.
    #[test]
    fn quantiles_approximate_above_capacity() {
        let mut rng = Rng(0xFACE_CAFE_0000_0001);
        let n = 50_000;
        let mut digest = Digest::with_capacity(1024);
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let v = rng.next_f64();
            samples.push(v);
            digest.record(v);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.9, 0.99] {
            let exact = exact_quantile(&samples, q);
            let approx = digest.quantile(q).unwrap();
            assert!(
                (approx - exact).abs() < 0.05,
                "q={q}: exact {exact} vs sketch {approx}"
            );
        }
        // Moments are not affected by sketch compaction on the record path.
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        assert!((digest.mean() - mean).abs() < 1e-9);
        assert_eq!(digest.len(), n);
    }

    /// Determinism: reducing per-seed digests in seed order is bit-identical no matter
    /// how often it is done, and — while below capacity — bit-identical to recording
    /// the whole stream sequentially.
    #[test]
    fn seed_order_merge_is_bit_identical_to_sequential() {
        let mut rng = Rng(42);
        let per_seed: Vec<Vec<f64>> = (0..8)
            .map(|_| (0..100).map(|_| rng.next_f64() * 100.0).collect())
            .collect();

        let mut sequential = Digest::default();
        for chunk in &per_seed {
            for &v in chunk {
                sequential.record(v);
            }
        }

        // Two independent "parallel" reductions: per-seed digests merged in seed order.
        let reduce = || {
            let mut merged = Digest::default();
            for chunk in &per_seed {
                let worker = Digest::from_samples(chunk.iter().copied());
                merged.merge(&worker);
            }
            merged
        };
        let merged_a = reduce();
        let merged_b = reduce();
        assert_eq!(merged_a, merged_b, "merge must be deterministic");
        assert_eq!(
            merged_a, sequential,
            "below capacity, seed-order merge must equal the sequential stream bit for bit"
        );
    }

    /// Merging above capacity still agrees with the exact statistics to sketch
    /// tolerance and stays deterministic.
    #[test]
    fn merge_with_compaction_is_deterministic_and_accurate() {
        let mut rng = Rng(7);
        let chunks: Vec<Vec<f64>> = (0..16)
            .map(|_| (0..1000).map(|_| rng.next_f64()).collect())
            .collect();
        let reduce = || {
            let mut merged = Digest::with_capacity(512);
            for chunk in &chunks {
                let mut worker = Digest::with_capacity(512);
                for &v in chunk {
                    worker.record(v);
                }
                merged.merge(&worker);
            }
            merged
        };
        let a = reduce();
        let b = reduce();
        assert_eq!(a, b);
        assert_eq!(a.len(), 16_000);
        let mut all: Vec<f64> = chunks.iter().flatten().copied().collect();
        let exact_mean = all.iter().sum::<f64>() / all.len() as f64;
        all.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for q in [0.5, 0.9, 0.99] {
            assert!((a.quantile(q).unwrap() - exact_quantile(&all, q)).abs() < 0.08);
        }
        // Merging compacted operands replays weighted entries, so the mean is
        // approximate — but adjacent-pair compaction keeps it close.
        assert!((a.mean() - exact_mean).abs() < 0.01);
    }

    #[test]
    fn merge_preserves_exact_extremes_of_compacted_operands() {
        // Capacity 8: recording 1..=8 compacts, keeping the LOWER member of each
        // adjacent pair — 8.0 disappears from the entries...
        let mut other = Digest::with_capacity(8);
        for v in 1..=8 {
            other.record(v as f64);
        }
        assert!(other.entries.len() < 8, "sketch must have compacted");
        assert_eq!(other.max(), 8.0);
        // ...but min/max are folded in exactly, not replayed from the lossy sketch.
        let mut merged = Digest::default();
        merged.merge(&other);
        assert_eq!(merged.max(), 8.0);
        assert_eq!(merged.min(), 1.0);
        assert_eq!(merged.len(), 8);
    }

    #[test]
    fn batched_quantiles_match_single_calls() {
        let d = Digest::from_samples([5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            d.quantiles(&[0.5, 0.9, 0.99]),
            vec![d.median(), d.p90(), d.p99()]
        );
        assert_eq!(Digest::default().quantiles(&[0.5, 0.9]), vec![0.0, 0.0]);
    }

    #[test]
    fn merge_into_empty_and_with_empty() {
        let full = Digest::from_samples([1.0, 2.0]);
        let mut d = Digest::default();
        d.merge(&full);
        assert_eq!(d.len(), 2);
        assert_eq!(d.mean(), 1.5);
        let before = d.clone();
        d.merge(&Digest::default());
        assert_eq!(d, before);
    }
}
