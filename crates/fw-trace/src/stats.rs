//! Measurement plumbing: power-of-two histograms and the windowed
//! time-series sampler behind the Figure 8 resource-consumption curves.

use crate::time::SimTime;

/// A power-of-two-bucketed latency/size histogram. Bucket `i` holds values
/// in `[2^i, 2^(i+1))`, with bucket 0 holding `{0, 1}`.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        let b = if v <= 1 {
            0
        } else {
            63 - v.leading_zeros() as usize
        };
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Approximate quantile: the upper bound of the bucket containing
    /// quantile `q`, clamped to [`Histogram::max`] so the estimate never
    /// exceeds any recorded value (an un-clamped power-of-two bound can
    /// overshoot `max()` by up to 2x).
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return (1u64 << (i + 1).min(63)).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate (`quantile(0.5)`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 95th-percentile estimate (`quantile(0.95)`).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (`quantile(0.99)`).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold `other`'s samples into this histogram (used when merging
    /// per-component tracer aggregates into a per-name summary).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, &v) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += v;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Windowed time series: accumulates `(time, value)` samples into
/// fixed-width windows. Figure 8 plots bytes moved per window as bandwidth
/// and walks finished per window as progression.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    window_ns: u64,
    windows: Vec<f64>,
}

impl TimeSeries {
    /// A series with the given window width.
    ///
    /// # Panics
    /// Panics if `window_ns == 0`.
    pub fn new(window_ns: u64) -> Self {
        let mut series = TimeSeries {
            window_ns,
            windows: Vec::new(),
        };
        series.reset(window_ns);
        series
    }

    /// Drop every sample and take window width `window_ns`: the series
    /// [`Self::new`] builds, keeping the window array's allocation.
    ///
    /// # Panics
    /// Panics if `window_ns == 0`.
    pub fn reset(&mut self, window_ns: u64) {
        assert!(window_ns > 0, "zero-width window");
        self.window_ns = window_ns;
        self.windows.clear();
    }

    /// Accumulate `value` into the window containing `at`.
    pub fn add(&mut self, at: SimTime, value: f64) {
        let idx = (at.as_nanos() / self.window_ns) as usize;
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, 0.0);
        }
        self.windows[idx] += value;
    }

    /// Spread `value` uniformly over `[start, end)` across the windows it
    /// overlaps — used for transfers that span window boundaries so the
    /// bandwidth curve doesn't show spurious spikes.
    ///
    /// # Contract
    ///
    /// * The span is half-open: a span ending exactly on a window edge
    ///   contributes nothing to the window starting at `end`.
    /// * A degenerate span with `end == start` (a zero-duration event,
    ///   e.g. a zero-byte transfer completing instantly at a window
    ///   boundary) is attributed entirely to the window containing
    ///   `start` — never split, never shifted into the next window.
    /// * Reversed spans (`end < start`) are a caller bug: they would
    ///   silently mis-attribute the value to `start`'s window while the
    ///   event actually spans other windows. Debug builds panic.
    pub fn add_spread(&mut self, start: SimTime, end: SimTime, value: f64) {
        debug_assert!(end >= start, "reversed span: [{start:?}, {end:?})");
        if end <= start {
            self.add(start, value);
            return;
        }
        let total = (end.as_nanos() - start.as_nanos()) as f64;
        let first = start.as_nanos() / self.window_ns;
        let last = (end.as_nanos() - 1) / self.window_ns;
        for w in first..=last {
            let w_start = w * self.window_ns;
            let w_end = w_start + self.window_ns;
            let overlap = (end.as_nanos().min(w_end) - start.as_nanos().max(w_start)) as f64;
            self.add(SimTime(w_start), value * overlap / total);
        }
    }

    /// Per-window sums.
    pub fn windows(&self) -> &[f64] {
        &self.windows
    }

    /// Total of all samples.
    pub fn total(&self) -> f64 {
        self.windows.iter().sum()
    }

    /// Fold another series into this one, window by window.
    ///
    /// # Panics
    /// Panics if the window widths differ.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.window_ns, other.window_ns,
            "merging series with different window widths"
        );
        if other.windows.len() > self.windows.len() {
            self.windows.resize(other.windows.len(), 0.0);
        }
        for (w, &v) in self.windows.iter_mut().zip(other.windows.iter()) {
            *w += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_max_quantile() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 4, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 1024);
        assert!((h.mean() - 207.8).abs() < 0.01);
        assert!(h.quantile(0.5) <= 8);
        assert!(h.quantile(1.0) >= 1024);
    }

    #[test]
    fn histogram_empty_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.p50(), 0);
    }

    #[test]
    fn histogram_quantile_never_exceeds_max() {
        // Regression: the raw bucket upper bound 1 << (i+1) overshoots the
        // largest recorded value — e.g. a single sample of 1000 lives in
        // bucket [512, 1024) whose bound is 1024 > 1000.
        let mut h = Histogram::new();
        h.record(1000);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.p99(), 1000);
        // Every quantile of any distribution is bounded by max().
        let mut h2 = Histogram::new();
        for v in [3u64, 7, 100, 129, 5000] {
            h2.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert!(h2.quantile(q) <= h2.max(), "q={q}");
        }
    }

    #[test]
    fn histogram_percentile_conveniences_are_ordered() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert!(h.p50() <= h.p95());
        assert!(h.p95() <= h.p99());
        assert!(h.p99() <= h.max());
        assert_eq!(h.p50(), h.quantile(0.5));
    }

    #[test]
    fn histogram_sum_and_quantiles_follow_buckets() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.sum(), 1006);
        assert_eq!(h.count(), 4);
        // 1 → bucket 0, 2 and 3 → bucket 1, 1000 → bucket 9; a quantile
        // reports its bucket's power-of-two bound, clamped to max.
        assert_eq!(h.quantile(0.25), 2);
        assert_eq!(h.quantile(0.75), 4);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn histogram_merge_combines_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 4, 16] {
            a.record(v);
        }
        for v in [64u64, 256] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.max(), 256);
        assert!((a.mean() - (1.0 + 4.0 + 16.0 + 64.0 + 256.0) / 5.0).abs() < 1e-9);
    }

    #[test]
    fn timeseries_buckets_by_window() {
        let mut ts = TimeSeries::new(100);
        ts.add(SimTime(0), 1.0);
        ts.add(SimTime(99), 1.0);
        ts.add(SimTime(100), 5.0);
        ts.add(SimTime(350), 2.0);
        assert_eq!(ts.windows(), &[2.0, 5.0, 0.0, 2.0]);
        assert_eq!(ts.total(), 9.0);
    }

    #[test]
    fn timeseries_spread_conserves_mass() {
        let mut ts = TimeSeries::new(100);
        // Transfer spanning [50, 250): 200 units over three windows
        ts.add_spread(SimTime(50), SimTime(250), 200.0);
        let w = ts.windows();
        assert!((w[0] - 50.0).abs() < 1e-9);
        assert!((w[1] - 100.0).abs() < 1e-9);
        assert!((w[2] - 50.0).abs() < 1e-9);
        assert!((ts.total() - 200.0).abs() < 1e-9);
        // Degenerate zero-length span lands in one window
        let mut ts2 = TimeSeries::new(100);
        ts2.add_spread(SimTime(40), SimTime(40), 7.0);
        assert_eq!(ts2.windows(), &[7.0]);
    }

    #[test]
    fn timeseries_spread_span_ending_on_window_edge() {
        // Regression: a span ending exactly on a window boundary must not
        // leak mass into the following window (the span is half-open).
        let mut ts = TimeSeries::new(100);
        ts.add_spread(SimTime(50), SimTime(100), 10.0);
        assert_eq!(ts.windows(), &[10.0], "no spill into window 1");
        // A span covering exactly one full window stays in that window.
        let mut ts2 = TimeSeries::new(100);
        ts2.add_spread(SimTime(100), SimTime(200), 4.0);
        assert_eq!(ts2.windows(), &[0.0, 4.0]);
        // A zero-duration event *at* a window boundary belongs to the
        // window it starts (== the boundary's own window).
        let mut ts3 = TimeSeries::new(100);
        ts3.add_spread(SimTime(100), SimTime(100), 1.0);
        assert_eq!(ts3.windows(), &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "reversed span")]
    #[cfg(debug_assertions)]
    fn timeseries_spread_rejects_reversed_span() {
        let mut ts = TimeSeries::new(100);
        ts.add_spread(SimTime(200), SimTime(100), 1.0);
    }

    /// Tiny deterministic generator for the sharded-merge property tests
    /// (no rng dependency in this crate; SplitMix64's finalizer).
    fn mix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    #[test]
    fn timeseries_sharded_merge_matches_single_series() {
        // `TimeSeries::merge` of disjoint sample sets must give the
        // exact windows of one series holding them all, as
        // `Tracer::merge` needs when it folds the SSD/DRAM gauge series
        // in — including spread samples landing exactly on window
        // boundaries, which is where the half-open bucketing could
        // diverge between the two paths. Merge must also be
        // order-independent.
        let window = 100u64;
        let mut whole = TimeSeries::new(window);
        let mut shards: Vec<TimeSeries> = (0..4).map(|_| TimeSeries::new(window)).collect();
        let mut seed = 42u64;
        for i in 0..500u64 {
            let lane = (mix(&mut seed) % 16) as usize;
            // Bias starts/ends onto exact window edges every few samples.
            let mut start = mix(&mut seed) % 2_000;
            let mut len = mix(&mut seed) % 350;
            if i % 5 == 0 {
                start -= start % window; // start on a boundary
            }
            if i % 7 == 0 {
                let end = start + len;
                len += window - (end % window); // end on a boundary
            }
            let value = (mix(&mut seed) % 100) as f64;
            whole.add_spread(SimTime(start), SimTime(start + len), value);
            shards[lane % 4].add_spread(SimTime(start), SimTime(start + len), value);
        }
        let mut fwd = TimeSeries::new(window);
        for s in &shards {
            fwd.merge(s);
        }
        let mut rev = TimeSeries::new(window);
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        // Window *structure* must match exactly; window *sums* are f64
        // accumulated in a different order per path, so compare within a
        // tight relative tolerance instead of bit equality.
        let close = |a: &[f64], b: &[f64]| {
            assert_eq!(a.len(), b.len(), "window count");
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                let scale = x.abs().max(y.abs()).max(1.0);
                assert!((x - y).abs() <= 1e-9 * scale, "window {i}: {x} vs {y}");
            }
        };
        close(fwd.windows(), whole.windows());
        close(fwd.windows(), rev.windows());
        assert!((fwd.total() - whole.total()).abs() <= 1e-9 * whole.total().abs().max(1.0));
    }

    #[test]
    fn histogram_sharded_merge_preserves_percentiles() {
        // Property-style: 4 shard histograms over a seeded skewed stream
        // merge to *bucket-identical* state (merge adds buckets), so
        // p50/p95/p99 match the single histogram exactly; and each
        // percentile stays within the power-of-two bin resolution of the
        // true sorted-order percentile.
        for seed0 in [1u64, 7, 42, 1234] {
            let mut whole = Histogram::new();
            let mut shards: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
            let mut values: Vec<u64> = Vec::new();
            let mut seed = seed0;
            for i in 0..2_000u64 {
                // Skewed latency-like distribution spanning many buckets.
                let v = 1 + (mix(&mut seed) % (1 << (1 + (mix(&mut seed) % 20))));
                values.push(v);
                whole.record(v);
                shards[(i % 4) as usize].record(v);
            }
            let mut merged = Histogram::new();
            for s in &shards {
                merged.merge(s);
            }
            values.sort_unstable();
            for q in [0.5, 0.95, 0.99] {
                let m = merged.quantile(q);
                assert_eq!(m, whole.quantile(q), "seed {seed0} q {q}: merge is exact");
                let rank = (((values.len() as f64) * q).ceil() as usize).clamp(1, values.len()) - 1;
                let exact = values[rank];
                // Power-of-two buckets: the reported quantile is the
                // bucket's upper bound (clamped to max), so it can sit at
                // most one doubling away from the true order statistic.
                assert!(
                    m >= exact / 2 && m <= exact.saturating_mul(2),
                    "seed {seed0} q {q}: {m} vs exact {exact}"
                );
            }
            assert_eq!(merged.count(), whole.count());
            assert_eq!(merged.max(), whole.max());
            assert_eq!(merged.sum(), whole.sum());
        }
    }
}
