//! The benchmark's own arithmetic: percentiles that carry their sample
//! count, generator lateness, backlog detection and the rate-at-SLO
//! interpolation over a ladder of open-loop rates.

/// A distribution summary. Every percentile is reported with `n`, the
/// number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p95: f64,
    pub max: f64,
    pub mean: f64,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted values (nearest-rank). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Summarizes unsorted values. `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Summary {
        n: v.len(),
        p50: percentile(&v, 0.5)?,
        p90: percentile(&v, 0.9)?,
        p95: percentile(&v, 0.95)?,
        max: *v.last()?,
        mean: v.iter().sum::<f64>() / v.len() as f64,
    })
}

pub fn values(samples: &[(f64, f64)]) -> Vec<f64> {
    samples.iter().map(|s| s.1).collect()
}

/// A closed-loop phase's JSON line: counts, then latency percentiles
/// over all samples as measured and at the reference host speed, each
/// with its count.
pub fn phase_line(name: &str, raw: &[(f64, f64)], scaled: &[(f64, f64)], extra: &str) -> String {
    let n = raw.len();
    format!(
        r#"{{"phase":"{name}","attempted":{n},"succeeded":{n},"failed":0,"shed":0{extra},"latency_ms":{},"reference_ms":{}}}"#,
        pct_json(&values(raw)),
        pct_json(&values(scaled))
    )
}

/// `{"n":…,"p50":…,"p95":…,"max":…}` of some values (`null` if none).
pub fn pct_json(v: &[f64]) -> String {
    summarize(v).map_or("null".to_string(), |s| {
        format!(
            r#"{{"n":{},"p50":{:.4},"p90":{:.4},"p95":{:.4},"max":{:.4}}}"#,
            s.n, s.p50, s.p90, s.p95, s.max
        )
    })
}

/// Traced minus untraced median, as a percentage of untraced.
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    match (median(untraced), median(traced)) {
        (Some(u), Some(t)) if u > 0.0 => (t - u) / u * 100.0,
        _ => 0.0,
    }
}

/// How late the generator sent each request: `sent - due`, floored at
/// zero (sending early is impossible by construction; a negative value
/// is clock jitter). Both in milliseconds from the same origin.
pub fn lateness_ms(due_ms: &[f64], sent_ms: &[f64]) -> Vec<f64> {
    due_ms.iter().zip(sent_ms).map(|(d, s)| (s - d).max(0.0)).collect()
}

/// Whether a phase's backlog grew: the median latency of its last
/// quarter of requests (in arrival order) exceeds twice that of its
/// first quarter plus `slack_ms`. A stable queue keeps both quarters
/// alike; a queue fed faster than it drains makes later requests wait
/// for every earlier one.
pub fn backlog_grows(latencies_in_arrival_order: &[f64], slack_ms: f64) -> bool {
    let n = latencies_in_arrival_order.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let first = median(&latencies_in_arrival_order[..q]).unwrap_or(0.0);
    let last = median(&latencies_in_arrival_order[n - q..]).unwrap_or(0.0);
    last > 2.0 * first + slack_ms
}

/// One rung of a rate ladder, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate (requests per second).
    pub offered: f64,
    /// Completed requests per second over the rung's window.
    pub achieved: f64,
    /// Client-side tail (p90) latency, milliseconds.
    pub tail_ms: f64,
    /// No request failed.
    pub healthy: bool,
}

impl Rung {
    fn meets(&self, slo_ms: f64) -> bool {
        self.healthy && self.tail_ms <= slo_ms
    }
}

/// The highest rate whose tail latency meets `slo_ms` with no failures,
/// over rungs in ascending offered rate. A backlog that grows within a
/// rung shows as a rising tail.
///
/// Between the last rung that meets the limit and the next one, the
/// rate is interpolated linearly in the tail to where it equals the limit,
/// so the result moves continuously with the measured latencies
/// instead of jumping between rungs. When the next rung fails for
/// another reason than its tail (or every rung passes), the result is
/// the passing rung's achieved rate. When no rung passes, the first
/// rung's rate is scaled down by how far its tail overshoots.
pub fn rate_at_slo(rungs: &[Rung], slo_ms: f64) -> f64 {
    let Some(first) = rungs.first() else {
        return 0.0;
    };
    let Some(last_ok) = rungs.iter().rposition(|r| r.meets(slo_ms)) else {
        return first.achieved * (slo_ms / first.tail_ms.max(slo_ms)).min(1.0);
    };
    let ok = rungs[last_ok];
    match rungs.get(last_ok + 1) {
        Some(next) if next.tail_ms > slo_ms && next.tail_ms > ok.tail_ms => {
            let frac = (slo_ms - ok.tail_ms) / (next.tail_ms - ok.tail_ms);
            ok.achieved + (next.offered - ok.offered) * frac
        }
        _ => ok.achieved,
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children count once; parts of a
/// child outside the parent do not count).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_with_its_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        let s = summarize(&[3.0, 1.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.n, s.p50, s.p90, s.p95, s.max, s.mean), (4, 2.0, 4.0, 4.0, 4.0, 2.5));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn lateness_floors_at_zero() {
        assert_eq!(lateness_ms(&[0.0, 10.0, 20.0], &[0.5, 9.9, 23.0]), vec![0.5, 0.0, 3.0]);
    }

    #[test]
    fn backlog_detects_a_growing_queue() {
        let steady: Vec<f64> = (0..40).map(|i| 20.0 + f64::from(i % 3)).collect();
        assert!(!backlog_grows(&steady, 20.0));
        let growing: Vec<f64> = (0..40).map(|i| 20.0 + 10.0 * f64::from(i)).collect();
        assert!(backlog_grows(&growing, 20.0));
        assert!(!backlog_grows(&[1.0, 500.0], 20.0), "too few samples to judge");
    }

    #[test]
    fn rate_at_slo_interpolates_between_rungs() {
        let rung =
            |offered, tail_ms, healthy| Rung { offered, achieved: offered, tail_ms, healthy };
        let ladder = [rung(10.0, 50.0, true), rung(20.0, 80.0, true), rung(30.0, 280.0, true)];
        // 150 ms sits 35% of the way from 80 to 280 ms.
        assert!((rate_at_slo(&ladder, 150.0) - 23.5).abs() < 1e-9);
        // Every rung passes: the top rung's achieved rate.
        assert_eq!(rate_at_slo(&ladder, 300.0), 30.0);
        // The next rung fails on health, not latency: no interpolation.
        let sick = [rung(10.0, 50.0, true), rung(20.0, 60.0, false)];
        assert_eq!(rate_at_slo(&sick, 150.0), 10.0);
        // Nothing passes: scaled below the first rung, never zero.
        let v = rate_at_slo(&[rung(10.0, 300.0, true)], 150.0);
        assert!((v - 5.0).abs() < 1e-9);
        assert_eq!(rate_at_slo(&[], 150.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Children [1,3] and [2,5] overlap (union 4); [8,12] sticks out
        // of the parent, so only [8,10] counts.
        assert_eq!(self_time(0, 10, &[(1, 3), (2, 5), (8, 12)]), 4);
        assert_eq!(self_time(0, 10, &[]), 10);
        assert_eq!(self_time(0, 10, &[(0, 10), (3, 4)]), 0);
        assert_eq!(self_time(5, 10, &[(0, 2)]), 5, "a child outside the parent covers nothing");
    }
}
