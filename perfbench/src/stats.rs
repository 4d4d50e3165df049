//! The arithmetic behind the end-to-end metrics, kept apart from the runs so
//! it can be tested on synthetic completion lists.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// The `q` percentile taken per group of consecutive samples, and the
/// median of those. Groups hold at least `min_group` samples (the last one
/// takes the remainder); with fewer samples than that it is the pooled
/// percentile. A burst of slow samples then moves one group, not the result.
pub fn grouped_percentile(samples: &[f64], q: f64, min_group: usize) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let groups = (samples.len() / min_group.max(1)).max(1);
    let size = samples.len() / groups;
    let per_group: Vec<f64> = (0..groups)
        .filter_map(|g| {
            let end = if g + 1 == groups {
                samples.len()
            } else {
                (g + 1) * size
            };
            let mut group = samples[g * size..end].to_vec();
            group.sort_by(f64::total_cmp);
            percentile(&group, q)
        })
        .collect();
    median(&per_group)
}

/// Median of unsorted values (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// For each probe instant, the wait until the first operation issued at or
/// after it completed; returns the median wait in the same unit. `ops` are
/// `(issued, done)` pairs of answered operations, ascending by issue time.
/// A probe after which nothing completes waits until `horizon`, so a
/// service that never came back still counts.
pub fn median_wait(probes: &[u64], ops: &[(u64, u64)], horizon: u64) -> Option<f64> {
    // first_done[i]: the earliest completion among ops[i..].
    let mut first_done = vec![u64::MAX; ops.len() + 1];
    for i in (0..ops.len()).rev() {
        first_done[i] = first_done[i + 1].min(ops[i].1);
    }
    let waits: Vec<f64> = probes
        .iter()
        .map(|&probe| {
            let next = ops.partition_point(|&(issued, _)| issued < probe);
            let until = match first_done[next] {
                u64::MAX => horizon.max(probe),
                done => done,
            };
            (until - probe) as f64
        })
        .collect();
    median(&waits)
}

/// Share of issued operations that completed with a valid reply.
pub fn completed_share(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    (attempted - failed.min(attempted)) as f64 / attempted as f64
}

/// The stretches of `[start, end)` between consecutive completions, as
/// `(from, to)` pairs, given every completion instant in ascending order:
/// from `start` to the first completion inside, between each two, and
/// from the last to `end`.
pub fn gaps(done: &[u64], start: u64, end: u64) -> Vec<(u64, u64)> {
    let from = done.partition_point(|&d| d < start);
    let to = done.partition_point(|&d| d < end);
    let mut edges = vec![start];
    edges.extend_from_slice(&done[from..to]);
    edges.push(end.max(start));
    edges.windows(2).map(|w| (w[0], w[1])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(500.0));
        assert_eq!(percentile(&sorted, 0.99), Some(990.0));
        assert_eq!(percentile(&sorted, 0.999), Some(999.0));
        assert_eq!(percentile(&sorted, 1.0), Some(1000.0));
        assert_eq!(percentile(&[7.0], 0.999), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // 10 samples: p99.9 is the largest, p50 the fifth.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.999), Some(10.0));
        assert_eq!(percentile(&ten, 0.5), Some(5.0));
    }

    #[test]
    fn grouped_percentiles_ignore_a_burst_in_one_group() {
        // Three groups of 1000; the first holds a burst of 20 slow samples.
        let mut samples: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for slow in samples.iter_mut().take(20) {
            *slow = 1e6;
        }
        assert_eq!(percentile(&sorted_copy(&samples), 0.999), Some(1e6));
        assert_eq!(grouped_percentile(&samples, 0.999, 1000), Some(998.0));
        // Too few samples for two groups: the pooled percentile.
        assert_eq!(
            grouped_percentile(&samples[..1500], 0.5, 1000),
            percentile(&sorted_copy(&samples[..1500]), 0.5)
        );
        assert_eq!(grouped_percentile(&[], 0.5, 10), None);
    }

    fn sorted_copy(values: &[f64]) -> Vec<f64> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn unavailability_waits_for_an_operation_issued_after_the_probe() {
        // Ops of 10 units back to back; the op issued at 100 was already
        // agreed and completes at 110 after a crash at 105, then service
        // stops until an op issued at 110 completes at 310.
        let mut ops: Vec<(u64, u64)> = (0..=10).map(|i| (i * 10, i * 10 + 10)).collect();
        ops.push((110, 310));
        ops.extend((0..10).map(|i| (310 + i * 10, 320 + i * 10)));
        let crashes = [105, 150, 311];
        // Waits: 310 - 105, 320 - 150 (first op issued after 150 is at
        // 310), 330 - 311.
        assert_eq!(median_wait(&crashes, &ops, 1000), Some(170.0));
        // A probe after the last issue waits until the horizon.
        assert_eq!(median_wait(&[405], &ops, 1000), Some(595.0));
        // A probe exactly at an issue waits for that op.
        assert_eq!(median_wait(&[40], &ops, 1000), Some(10.0));
        assert_eq!(median_wait(&[], &ops, 1000), None);
    }

    #[test]
    fn gaps_cover_the_span_between_completions() {
        let done = [5, 20, 30, 70, 95, 130];
        assert_eq!(
            gaps(&done, 10, 100),
            vec![(10, 20), (20, 30), (30, 70), (70, 95), (95, 100)]
        );
        assert_eq!(gaps(&done, 131, 200), vec![(131, 200)]);
        assert_eq!(gaps(&[], 0, 10), vec![(0, 10)]);
    }

    #[test]
    fn completed_share_counts_failures_against_attempts() {
        assert_eq!(completed_share(1000, 0), 1.0);
        assert_eq!(completed_share(1000, 25), 0.975);
        assert_eq!(completed_share(4, 9), 0.0);
        assert_eq!(completed_share(0, 0), 0.0);
    }
}
