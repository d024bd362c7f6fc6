//! The benchmark's arithmetic: percentile pick, best-of-rounds,
//! quartiles as the driver computes them, and the cross-round
//! exactness check.

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Nearest-rank percentile: the smallest sample with at least a share
/// `q` of all samples at or below it. Reorders `samples`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let n = samples.len();
    let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
    *samples.select_nth_unstable(rank - 1).1
}

/// Quartiles (q1, median, q3) as Python's
/// `statistics.quantiles(values, n=4)` gives them — the driver's
/// spread is `(q3 - q1) / median` of these.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        let v = x.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// One host-time metric over the rounds of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rounds {
    /// The reported value: the best round.
    pub best: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub worst: f64,
}

/// Best-of-rounds: a round is slowed by the box (a neighbour on the
/// memory system, a hypervisor pause) but never sped up by it, so the
/// best round is the one closest to what the program costs.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn best_of_rounds(values: &[f64], better: Better) -> Rounds {
    assert!(!values.is_empty(), "a run has at least one round");
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (best, worst) = match better {
        Better::Higher => (hi, lo),
        Better::Lower => (lo, hi),
    };
    let (q1, median, q3) = quartiles(values);
    Rounds {
        best,
        q1,
        median,
        q3,
        worst,
    }
}

/// Every round starts from the same state and replays the same script,
/// so a metric that does not depend on the host clock must come out
/// bit-identical in every round.
///
/// # Errors
///
/// Names the first round that differs from round 0.
pub fn exact_across_rounds(name: &str, values: &[f64]) -> Result<f64, String> {
    let first = *values.first().ok_or_else(|| format!("{name}: no rounds"))?;
    match values.iter().position(|v| v.to_bits() != first.to_bits()) {
        None => Ok(first),
        Some(round) => Err(format!(
            "{name} is not exact: round 0 gave {first}, round {round} gave {}",
            values[round]
        )),
    }
}

/// Quantile of a log2-ns histogram (bucket 0 holds 0 ns, bucket `b`
/// holds `[2^(b-1), 2^b)`), interpolated linearly inside the bucket
/// the rank falls in. `cxl-serve` reports the bucket's upper bound,
/// which reads 128/1024 ns on every run; the interpolated rank moves
/// with the distribution.
pub fn log2_hist_quantile(hist: &[u64], q: f64) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = total as f64 * q;
    let mut below = 0u64;
    for (bucket, &count) in hist.iter().enumerate() {
        if count > 0 && (below + count) as f64 >= rank {
            if bucket == 0 {
                return 0.0;
            }
            let lo = (1u64 << (bucket - 1)) as f64;
            let share = ((rank - below as f64) / count as f64).clamp(0.0, 1.0);
            return lo + lo * share;
        }
        below += count;
    }
    (1u64 << (hist.len() - 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
        let mut one = vec![7];
        assert_eq!(percentile(&mut one, 0.99), 7);
        // 10^6 samples leave 10^4 beyond p99.
        let mut big: Vec<u64> = (0..1_000_000).collect();
        let p99 = percentile(&mut big, 0.99);
        assert_eq!(big.iter().filter(|&&s| s > p99).count(), 10_000);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn best_round_follows_the_direction() {
        let rates = [90.0, 100.0, 60.0, 95.0];
        let r = best_of_rounds(&rates, Better::Higher);
        assert_eq!((r.best, r.worst), (100.0, 60.0));
        let times = [1.2, 1.0, 1.9];
        let t = best_of_rounds(&times, Better::Lower);
        assert_eq!((t.best, t.worst, t.median), (1.0, 1.9, 1.2));
    }

    #[test]
    fn exactness_check_names_the_round_that_differs() {
        assert_eq!(exact_across_rounds("m", &[1.5, 1.5, 1.5]), Ok(1.5));
        let err = exact_across_rounds("m", &[1.5, 1.5, 1.5000000000000002]).unwrap_err();
        assert!(err.contains("round 2"), "{err}");
        assert!(exact_across_rounds("m", &[]).is_err());
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        let mut hist = [0u64; 64];
        hist[7] = 100; // [64, 128)
        assert_eq!(log2_hist_quantile(&hist, 0.5), 96.0);
        hist[10] = 100; // [512, 1024)
        assert_eq!(log2_hist_quantile(&hist, 0.5), 128.0);
        assert_eq!(log2_hist_quantile(&hist, 0.75), 768.0);
        assert_eq!(log2_hist_quantile(&[0u64; 64], 0.5), 0.0);
    }
}
