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
/// fastest duration together with that run's result, so figures read
/// off the result (phase splits) describe the run whose time is
/// reported. Best-of-N is the standard noise filter for wall-clock
/// scaling measurements: interference from the rest of the machine only
/// ever slows a run down, so the minimum is the closest observable to
/// the true cost. `samples` is clamped to at least 1.
pub fn measure_best<R>(warmups: usize, samples: usize, mut f: impl FnMut() -> R) -> (Duration, R) {
    for _ in 0..warmups {
        black_box(f());
    }
    let mut best: Option<(Duration, R)> = None;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        let result = black_box(f());
        let elapsed = start.elapsed();
        if best.as_ref().is_none_or(|(b, _)| elapsed < *b) {
            best = Some((elapsed, result));
        }
    }
    best.expect("at least one sample ran")
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
    fn measure_best_runs_warmups_and_returns_a_sampled_time() {
        let mut n = 0u64;
        let (best, result) = measure_best(3, 4, || {
            n += 1;
            std::hint::black_box(n)
        });
        assert_eq!(n, 7, "3 warmups + 4 samples");
        assert!(best < Duration::MAX);
        assert!((4..=7).contains(&result), "the result of a timed sample");
        // Zero samples still measures once (the clamp).
        let mut m = 0u64;
        let _ = measure_best(0, 0, || {
            m += 1;
            std::hint::black_box(m)
        });
        assert_eq!(m, 1);
    }
}
