//! Order statistics over latency samples and over rounds.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank position of
/// percentile `p`.  A percentile is only worth reporting with at least
/// [`MIN_BEYOND`] there.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - (((p / 100.0) * n as f64).ceil() as usize).min(n)
}

/// Median of a non-empty set of values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, by the exclusive method (the one Python's
/// `statistics.quantiles(values, n=4)` uses, and so the benchmark's driver).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles of fewer than two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// How far the rounds of one pass disagree: the distance between their
/// first and third quartile, as a share of their median.  0 for one round.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if values.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / med
}

/// Samples a round needs before a percentile is read from it alone.
const MIN_ROUND_SAMPLES: usize = 10;

/// The op latencies of one round, reduced to what the report needs: a
/// round of at least [`MIN_ROUND_SAMPLES`] keeps its two percentiles only,
/// so that a workload of a million short ops does not carry a million samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundLatencies {
    pub samples: usize,
    /// Sum of the samples, for the mean.
    pub total_ns: u64,
    /// Nearest-rank percentiles of this round; `None` when it is too short.
    p50: Option<u64>,
    p90: Option<u64>,
    /// Ascending; empty unless the round is too short.
    kept: Vec<u64>,
}

impl RoundLatencies {
    pub fn of(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        let long_enough = samples.len() >= MIN_ROUND_SAMPLES;
        RoundLatencies {
            samples: samples.len(),
            total_ns: samples.iter().sum(),
            p50: long_enough.then(|| nearest_rank(&samples, 50.0)),
            p90: long_enough.then(|| nearest_rank(&samples, 90.0)),
            kept: if long_enough { Vec::new() } else { samples },
        }
    }
}

/// Which percentile of a round to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    P50,
    P90,
}

/// A percentile over the rounds of one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundPercentile {
    pub value: f64,
    /// Spread of the per-round percentiles; 0 when the rounds were pooled.
    pub spread: f64,
    /// Samples the value was read from, over all rounds.
    pub samples: usize,
    /// Whether at least [`MIN_BEYOND`] of those samples lie beyond the
    /// percentile: a tail read from fewer is noise.
    pub supported: bool,
}

/// The median over rounds of each round's percentile.  A slow stretch of
/// the machine spoils the rounds it covers and no others, so the median of
/// the rounds stands where a percentile of all samples together would move
/// with the share of spoilt ones.  Rounds of fewer than
/// [`MIN_ROUND_SAMPLES`] are pooled instead.  (The rounds of one pass run
/// the same number of ops, so all of them are long enough or none is.)
pub fn percentile_over_rounds(rounds: &[RoundLatencies], tail: Tail) -> RoundPercentile {
    let samples: usize = rounds.iter().map(|r| r.samples).sum();
    let (p, pick): (f64, fn(&RoundLatencies) -> Option<u64>) = match tail {
        Tail::P50 => (50.0, |r| r.p50),
        Tail::P90 => (90.0, |r| r.p90),
    };
    let supported = samples_beyond(samples, p) >= MIN_BEYOND;
    let per_round: Option<Vec<f64>> = rounds.iter().map(|r| pick(r).map(|v| v as f64)).collect();
    if let Some(per_round) = per_round.filter(|v| !v.is_empty()) {
        return RoundPercentile {
            value: median(&per_round),
            spread: spread(&per_round),
            samples,
            supported,
        };
    }
    let mut pooled: Vec<u64> = rounds.iter().flat_map(|r| r.kept.iter().copied()).collect();
    pooled.sort_unstable();
    RoundPercentile {
        value: nearest_rank(&pooled, p) as f64,
        spread: 0.0,
        samples,
        supported,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_takes_the_smallest_sample_covering_p() {
        let s: Vec<u64> = (1..=20).collect();
        assert_eq!(nearest_rank(&s, 50.0), 10);
        assert_eq!(nearest_rank(&s, 90.0), 18);
        assert_eq!(nearest_rank(&s, 100.0), 20);
        assert_eq!(nearest_rank(&s, 0.0), 1);
        assert_eq!(nearest_rank(&[7], 99.0), 7);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(20, 50.0), 10);
        assert_eq!(samples_beyond(20, 55.0), 9);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn round_median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(spread(&ten), 1.0);
        // statistics.quantiles([9, 10, 12], n=4) == [9.0, 10.0, 12.0]
        assert_eq!(quartiles(&[12.0, 9.0, 10.0]), (9.0, 12.0));
        assert_eq!(spread(&[9.0, 10.0, 12.0]), 0.3);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn a_percentile_is_the_median_of_the_rounds_percentiles() {
        let long: Vec<RoundLatencies> = (0..5)
            .map(|r| RoundLatencies::of((1..=100).rev().map(|i| i + r).collect()))
            .collect();
        assert!(long.iter().all(|r| r.kept.is_empty() && r.samples == 100));
        let p = percentile_over_rounds(&long, Tail::P90);
        assert_eq!((p.value, p.samples, p.supported), (92.0, 500, true));
        assert!(p.spread > 0.0);
        assert_eq!(percentile_over_rounds(&long, Tail::P50).value, 52.0);

        // One spoilt round in five does not move the median of the rounds.
        let mut spoilt = long.clone();
        spoilt[4] = RoundLatencies::of((1..=100).map(|i| i * 10).collect());
        assert_eq!(percentile_over_rounds(&spoilt, Tail::P90).value, 92.0);
    }

    #[test]
    fn short_rounds_are_read_alone_from_ten_samples_and_pooled_below() {
        // 20 samples a round: each round's p90 is its 18th sample.
        let rounds: Vec<RoundLatencies> = (0..5)
            .map(|r| RoundLatencies::of((1..=20).map(|i| i * 5 + r).collect()))
            .collect();
        let p = percentile_over_rounds(&rounds, Tail::P90);
        assert_eq!(
            (p.value, p.samples, p.supported),
            (92.0, 100, true),
            "18 * 5 + 2, ten of 100 beyond"
        );

        // 9 samples a round: pooled, 45 samples, rank 41, too few beyond.
        let tiny: Vec<RoundLatencies> = (0..5)
            .map(|r| RoundLatencies::of((1..=9).map(|i| i * 5 + r).collect()))
            .collect();
        assert!(tiny.iter().all(|r| r.kept.len() == 9));
        let p = percentile_over_rounds(&tiny, Tail::P90);
        assert_eq!((p.value, p.spread, p.supported), (45.0, 0.0, false));
        assert!(
            percentile_over_rounds(&tiny, Tail::P50).supported,
            "22 of 45 beyond the median"
        );
    }
}
