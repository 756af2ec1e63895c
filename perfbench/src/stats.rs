//! Order statistics and open-loop schedule arithmetic.

use std::time::{Duration, Instant};

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks (NumPy's default method); `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `values`, or `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// How many samples lie strictly above the `q`-quantile. A percentile is
/// only reported when at least ten samples lie beyond it.
pub fn samples_beyond(values: &[f64], q: f64) -> usize {
    match quantile(values, q) {
        Some(cut) => values.iter().filter(|&&v| v > cut).count(),
        None => 0,
    }
}

/// `a / b`, or `0.0` when `b` is not positive.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The fixed send schedule of an open-loop client: request `k` is due at
/// `start + k * interval`, whether or not earlier requests have finished.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    interval: Duration,
}

impl Schedule {
    /// A schedule whose first request is due at `start`.
    pub fn new(start: Instant, interval: Duration) -> Schedule {
        Schedule { start, interval }
    }

    /// When request `k` is due.
    pub fn due(&self, k: u32) -> Instant {
        self.start + self.interval * k
    }

    /// Latency of request `k` that completed at `done`, timed from its
    /// due time, so a stall also charges the requests queued behind it.
    pub fn latency(&self, k: u32, done: Instant) -> Duration {
        done.saturating_duration_since(self.due(k))
    }

    /// How late request `k` was sent at `sent` (zero when on time).
    pub fn lateness(&self, k: u32, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.0), Some(1.0));
        assert_eq!(quantile(&values, 1.0), Some(4.0));
        assert_eq!(quantile(&values, 0.5), Some(2.5));
        assert_eq!(quantile(&values, 0.25), Some(1.75));
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p99_of_a_thousand_samples_has_ten_beyond_it() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = quantile(&values, 0.99).unwrap();
        assert!((p99 - 990.01).abs() < 1e-9, "{p99}");
        assert_eq!(samples_beyond(&values, 0.99), 10);
        let short: Vec<f64> = (1..=500).map(f64::from).collect();
        assert!(samples_beyond(&short, 0.99) < 10);
    }

    #[test]
    fn ratio_guards_a_zero_base() {
        assert_eq!(ratio(3.0, 2.0), 1.5);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let start = Instant::now();
        let schedule = Schedule::new(start, Duration::from_millis(10));
        assert_eq!(schedule.due(0), start);
        assert_eq!(schedule.due(3), start + Duration::from_millis(30));
        // Request 2 was sent 5 ms late and answered 2 ms after sending:
        // its latency includes the 5 ms it waited behind a stall.
        let sent = start + Duration::from_millis(25);
        let done = sent + Duration::from_millis(2);
        assert_eq!(schedule.lateness(2, sent), Duration::from_millis(5));
        assert_eq!(schedule.latency(2, done), Duration::from_millis(7));
        // Early is never negative.
        assert_eq!(schedule.lateness(3, sent), Duration::ZERO);
    }
}
