//! The statistics the gates rest on. Everything here is a pure function of
//! its samples so the unit tests below can pin it to hand-computed fixtures.

/// Percentile `p` (0..=100) of `samples` by linear interpolation between
/// closest ranks (the "inclusive" method: p=0 is the minimum, p=100 the
/// maximum, p=50 of an even count the mean of the two middle values).
///
/// # Panics
/// Panics on an empty sample: every caller measures at least one op.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// The median (`percentile(samples, 50)`).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// One timed op of a measured phase, in seconds since the phase began.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpInterval {
    pub start_s: f64,
    pub end_s: f64,
    /// Failed ops keep their latency sample but earn no throughput credit.
    pub ok: bool,
}

impl OpInterval {
    pub fn wall_ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1e3
    }
}

/// Ops completed in each of `buckets` consecutive one-second buckets. An op
/// straddling a bucket boundary is credited to each bucket in proportion to
/// the share of its duration spent there, so a 350 ms op never makes a
/// bucket read 2 or 3 by the accident of where it ended; the part of an op
/// that lies beyond the last bucket earns nothing.
pub fn bucket_credits(ops: &[OpInterval], buckets: usize) -> Vec<f64> {
    let mut credit = vec![0.0; buckets];
    for op in ops.iter().filter(|op| op.ok) {
        let duration = op.end_s - op.start_s;
        if duration <= 0.0 {
            // Instantaneous on the clock's resolution: whole credit where it ended.
            if let Some(slot) = credit.get_mut(op.end_s.max(0.0) as usize) {
                *slot += 1.0;
            }
            continue;
        }
        let first = op.start_s.max(0.0) as usize;
        let last = (op.end_s as usize).min(buckets.saturating_sub(1));
        for (bucket, slot) in credit.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = op.start_s.max(bucket as f64);
            let hi = op.end_s.min((bucket + 1) as f64);
            if hi > lo {
                *slot += (hi - lo) / duration;
            }
        }
    }
    credit
}

/// Largest pairwise relative difference of a set of values:
/// `(max - min) / min`. This is what `aa.sh` compares against a bound.
pub fn largest_pairwise_rel_diff(values: &[f64]) -> f64 {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if min > 0.0 {
        (max - min) / min
    } else if max == min {
        0.0
    } else {
        f64::INFINITY
    }
}

/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method): the quartile cut points the driver computes spreads from.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_closest_ranks() {
        let s = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 40.0);
        // rank = 0.5 * 3 = 1.5 -> halfway between 20 and 30.
        assert_eq!(median(&s), 25.0);
        // rank = 0.9 * 3 = 2.7 -> 30 + 0.7 * 10.
        assert!((percentile(&s, 90.0) - 37.0).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn an_op_spanning_three_buckets_is_credited_in_proportion() {
        // 0.5 s .. 2.5 s: 2 s long; 0.5 s in bucket 0, 1 s in 1, 0.5 s in 2.
        let op = OpInterval {
            start_s: 0.5,
            end_s: 2.5,
            ok: true,
        };
        let credit = bucket_credits(&[op], 4);
        assert_eq!(credit, vec![0.25, 0.5, 0.25, 0.0]);
        assert!((credit.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn buckets_sum_whole_ops_and_skip_failures_and_overhang() {
        let ops = [
            OpInterval {
                start_s: 0.0,
                end_s: 0.25,
                ok: true,
            },
            OpInterval {
                start_s: 0.25,
                end_s: 0.75,
                ok: true,
            },
            // Failed: latency sample elsewhere, no credit here.
            OpInterval {
                start_s: 0.75,
                end_s: 1.0,
                ok: false,
            },
            // Half of it overhangs the 2-bucket window.
            OpInterval {
                start_s: 1.5,
                end_s: 2.5,
                ok: true,
            },
        ];
        assert_eq!(bucket_credits(&ops, 2), vec![2.0, 0.5]);
    }

    #[test]
    fn pairwise_difference_is_relative_to_the_smallest() {
        assert!((largest_pairwise_rel_diff(&[100.0, 104.0, 102.0]) - 0.04).abs() < 1e-12);
        assert_eq!(largest_pairwise_rel_diff(&[5.0, 5.0]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
    }
}
