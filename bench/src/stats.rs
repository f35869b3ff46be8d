//! Order statistics and the serving SLO rule.
//!
//! Written independently of the crates under test: the benchmark checks
//! `fw-serve`'s percentiles against [`nearest_rank`] rather than reusing
//! the code it checks.

/// Median of a sample; the mean of the two middle values for an even
/// count. Panics on an empty sample, which would be a bug in the caller.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank `ceil(pct × n / 100)`, clamped to `[1, n]`. Integer arithmetic,
/// so the rank is exact for every `n`. Returns 0 for an empty sample.
pub fn nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    let n = sorted.len() as u64;
    if n == 0 {
        return 0;
    }
    let rank = (pct * n).div_ceil(100).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Percentile over every *offered* query: a refused query counts as an
/// infinite latency, so it misses any limit.
pub fn percentile_over_offered(admitted_ns: &[u64], refused: u64, pct: u64) -> u64 {
    let mut all = admitted_ns.to_vec();
    all.extend(std::iter::repeat_n(u64::MAX, refused as usize));
    all.sort_unstable();
    nearest_rank(&all, pct)
}

/// The highest offered rate whose point met the SLO, or 0 if none did.
pub fn max_rate_meeting_slo(points: &[(f64, bool)]) -> f64 {
    points
        .iter()
        .filter(|(_, met)| *met)
        .map(|(rate, _)| *rate)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_three_ignores_one_outlier() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 100.0, 1.1]), 1.1);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50), 50);
        assert_eq!(nearest_rank(&v, 99), 99);
        assert_eq!(nearest_rank(&v, 100), 100);
        // n = 10: p99 is rank ceil(9.9) = 10, p50 is rank 5.
        let w: Vec<u64> = (10..20).collect();
        assert_eq!(nearest_rank(&w, 99), 19);
        assert_eq!(nearest_rank(&w, 50), 14);
        assert_eq!(nearest_rank(&[5], 1), 5);
        assert_eq!(nearest_rank(&[], 50), 0);
    }

    #[test]
    fn refused_queries_miss_the_slo() {
        // 99 fast admitted queries: p99 over offered is fast.
        let fast = vec![1_000u64; 99];
        assert_eq!(percentile_over_offered(&fast, 0, 99), 1_000);
        // One refusal out of 100 still leaves rank 99 fast...
        assert_eq!(percentile_over_offered(&fast, 1, 99), 1_000);
        // ...two push the p99 onto a refusal.
        assert_eq!(percentile_over_offered(&fast[..98], 2, 99), u64::MAX);
    }

    #[test]
    fn max_rate_is_the_highest_passing_point() {
        let ladder = [(1000.0, true), (2000.0, true), (3000.0, false)];
        assert_eq!(max_rate_meeting_slo(&ladder), 2000.0);
        assert_eq!(max_rate_meeting_slo(&[(1000.0, false)]), 0.0);
        assert_eq!(max_rate_meeting_slo(&[]), 0.0);
    }
}
