//! Minimal wall-clock benchmark harness.
//!
//! The workspace builds hermetically (no registry access), so the bench
//! targets cannot link `criterion`. This module provides the small slice
//! of it they need: run a closure for a warmup round plus a fixed number
//! of timed samples, report min / median / mean. Every `[[bench]]` target
//! sets `harness = false` and drives this directly from `main`.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark's sampled timings.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Benchmark label (`group/name`).
    pub label: String,
    /// Per-sample wall-clock durations, sorted ascending.
    pub times: Vec<Duration>,
}

impl Sample {
    /// Fastest sample.
    pub fn min(&self) -> Duration {
        self.times.first().copied().unwrap_or_default()
    }

    /// Median sample.
    pub fn median(&self) -> Duration {
        self.times
            .get(self.times.len() / 2)
            .copied()
            .unwrap_or_default()
    }

    /// Mean of all samples.
    pub fn mean(&self) -> Duration {
        if self.times.is_empty() {
            return Duration::ZERO;
        }
        self.times.iter().sum::<Duration>() / self.times.len() as u32
    }
}

/// Runs `f` untimed `warmups` times (to settle allocator state, caches
/// and branch predictors), then `samples` timed times, and returns the
/// median duration together with that run's result, so figures read off
/// the result (phase splits) describe the run whose time is reported.
/// With an even count the upper median is taken, so the time is always
/// one real run's. A single run of a sub-second workload on a shared
/// machine is noise in both directions (a lucky minimum of two runs read
/// identical work as 0.88x to 1.18x), so the median of several runs is
/// the figure to compare. `samples` is clamped to at least 1.
pub fn measure_median<R>(
    warmups: usize,
    samples: usize,
    mut f: impl FnMut() -> R,
) -> (Duration, R) {
    for _ in 0..warmups {
        black_box(f());
    }
    let mut runs: Vec<(Duration, R)> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            let result = black_box(f());
            (start.elapsed(), result)
        })
        .collect();
    runs.sort_by_key(|(elapsed, _)| *elapsed);
    let middle = runs.len() / 2;
    runs.swap_remove(middle)
}

/// Runs `f` once as warmup and `samples` timed times, printing one
/// aligned result line. The closure's result is passed through
/// [`black_box`] so the work is not optimized away.
pub fn bench<R>(label: &str, samples: usize, mut f: impl FnMut() -> R) -> Sample {
    black_box(f());
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        black_box(f());
        times.push(start.elapsed());
    }
    times.sort();
    let sample = Sample {
        label: label.to_string(),
        times,
    };
    println!(
        "{:<40} min {:>10.3?}  median {:>10.3?}  mean {:>10.3?}  ({} samples)",
        sample.label,
        sample.min(),
        sample.median(),
        sample.mean(),
        sample.times.len()
    );
    sample
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_and_orders_samples() {
        let mut n = 0u64;
        let s = bench("test/spin", 5, || {
            n += 1;
            std::hint::black_box(n)
        });
        assert_eq!(s.times.len(), 5);
        assert!(s.min() <= s.median() && s.median() <= *s.times.last().unwrap());
        assert!(n >= 6, "warmup plus samples all ran");
    }

    #[test]
    fn measure_median_runs_warmups_and_returns_the_median_run() {
        let mut n = 0u64;
        // Run k sleeps 5 * (k % 5) ms: samples 4..=8 take 20, 0, 5, 10
        // and 15 ms, so the median run is the one that slept 10 ms,
        // sample 7.
        let (median, result) = measure_median(3, 5, || {
            n += 1;
            std::thread::sleep(Duration::from_millis(5 * (n % 5)));
            std::hint::black_box(n)
        });
        assert_eq!(n, 8, "3 warmups + 5 samples");
        assert_eq!(result, 7, "the result of the median run");
        assert!(median >= Duration::from_millis(10));
        // Zero samples still measures once (the clamp).
        let mut m = 0u64;
        let _ = measure_median(0, 0, || {
            m += 1;
            std::hint::black_box(m)
        });
        assert_eq!(m, 1);
    }
}
