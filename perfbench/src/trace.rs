//! In-memory span recorder for the traced run.
//!
//! Spans are taken by the benchmark itself around each call into a
//! public layer function; nothing inside the analyzed system is
//! instrumented. Every span carries the sample (one verdict or one
//! request) it belongs to and the span that caused it, and the whole
//! record is written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The sample (verdict or request) this span belongs to.
    pub sample: u64,
    /// Layer metric name, e.g. `effects.analyze_us`.
    pub layer: &'static str,
    /// The span that caused this one.
    pub parent: &'static str,
    /// Start, in microseconds since the recorder was created.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// One work counter observed at a layer boundary.
#[derive(Clone, Debug)]
pub struct Count {
    /// The sample it belongs to.
    pub sample: u64,
    /// Counter metric name, e.g. `flows.edges`.
    pub name: &'static str,
    /// Observed value.
    pub value: f64,
}

/// Spans and counters of one traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    sample: u64,
    /// Spans in recording order.
    pub spans: Vec<Span>,
    /// Counters in recording order.
    pub counts: Vec<Count>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            sample: 0,
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }
}

impl Recorder {
    /// A recorder whose sample ids start after `base`, so that records
    /// of concurrent clients can be merged without colliding.
    pub fn with_base(base: u64) -> Recorder {
        Recorder {
            sample: base,
            ..Recorder::default()
        }
    }

    /// Appends another recorder's spans and counters.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
        self.counts.extend(other.counts);
    }

    /// The current sample.
    pub fn sample(&self) -> u64 {
        self.sample
    }

    /// Makes an earlier sample current again, so that work replayed
    /// later is recorded against the request that caused it.
    pub fn resume(&mut self, sample: u64) {
        self.sample = sample;
    }

    /// Starts a new sample; later spans and counters belong to it.
    pub fn next_sample(&mut self) -> u64 {
        self.sample += 1;
        self.sample
    }

    /// Times `f` as a span of `layer` caused by `parent`.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let dur_us = start.elapsed().as_secs_f64() * 1e6;
        let start_us = start.duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            sample: self.sample,
            layer,
            parent,
            start_us,
            dur_us,
        });
        out
    }

    /// Records a span whose duration was derived from other spans of the
    /// current sample (a residual or a difference of round trips).
    pub fn derived(&mut self, layer: &'static str, parent: &'static str, dur_us: f64) {
        self.spans.push(Span {
            sample: self.sample,
            layer,
            parent,
            start_us: -1.0,
            dur_us,
        });
    }

    /// Records a work counter for the current sample.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push(Count {
            sample: self.sample,
            name,
            value,
        });
    }

    /// Duration of `layer` in the current sample (summed over repeats).
    pub fn current(&self, layer: &str) -> f64 {
        self.current_under(layer, None)
    }

    /// [`Recorder::current`], counting only spans caused by `parent`
    /// when one is given.
    pub fn current_under(&self, layer: &str, parent: Option<&str>) -> f64 {
        self.spans
            .iter()
            .rev()
            .take_while(|s| s.sample == self.sample)
            .filter(|s| s.layer == layer && parent.is_none_or(|p| s.parent == p))
            .map(|s| s.dur_us)
            .sum()
    }

    /// Per-sample totals of `layer`, one value per sample that has it.
    pub fn per_sample(&self, layer: &str) -> Vec<f64> {
        self.per_sample_under(layer, None)
    }

    /// [`Recorder::per_sample`], counting only spans caused by `parent`
    /// when one is given.
    pub fn per_sample_under(&self, layer: &str, parent: Option<&str>) -> Vec<f64> {
        self.by_sample_under(layer, parent).into_values().collect()
    }

    /// [`Recorder::per_sample_under`], keyed by sample.
    pub fn by_sample_under(&self, layer: &str, parent: Option<&str>) -> BTreeMap<u64, f64> {
        let mut by_sample: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.layer == layer && parent.is_none_or(|p| s.parent == p))
        {
            *by_sample.entry(s.sample).or_default() += s.dur_us;
        }
        by_sample
    }

    /// Every observed value of counter `name`.
    pub fn count_values(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .collect()
    }

    /// Sum of `layer` over every sample.
    pub fn total(&self, layer: &str) -> f64 {
        self.total_under(layer, None)
    }

    /// [`Recorder::total`], counting only spans caused by `parent` when
    /// one is given.
    pub fn total_under(&self, layer: &str, parent: Option<&str>) -> f64 {
        self.per_sample_under(layer, parent).iter().sum()
    }

    /// The record as JSON lines, one span or counter per line.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"workload\": \"{workload}\", \"sample\": {}, \"span\": \"{}\", \
                 \"parent\": \"{}\", \"start_us\": {:.3}, \"dur_us\": {:.3}}}",
                s.sample, s.layer, s.parent, s.start_us, s.dur_us
            );
        }
        for c in &self.counts {
            let _ = writeln!(
                out,
                "{{\"workload\": \"{workload}\", \"sample\": {}, \"count\": \"{}\", \"value\": {}}}",
                c.sample, c.name, c.value
            );
        }
        out
    }
}

/// Checks that a layer split adds up: the parts must sum to `total`
/// within `tolerance` (a share of `total`). A negative part means a
/// residual went below zero — the timed sub-calls took longer than the
/// call that contains them — and fails the check on its own.
///
/// # Errors
///
/// Describes the mismatch.
pub fn reconcile(parts: &[(&str, f64)], total: f64, tolerance: f64) -> Result<(), String> {
    if total <= 0.0 {
        return Err(format!("traced total is {total}"));
    }
    if let Some((name, v)) = parts.iter().find(|(_, v)| *v < -tolerance * total) {
        return Err(format!("layer {name} is negative ({v:.1} us)"));
    }
    let sum: f64 = parts.iter().map(|(_, v)| v.max(0.0)).sum();
    let gap = (sum - total).abs() / total;
    if gap > tolerance {
        return Err(format!(
            "layers sum to {sum:.1} us against a traced total of {total:.1} us ({:.1}% apart)",
            gap * 100.0
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconciliation_rejects_a_split_that_does_not_add_up() {
        let split = [("a", 40.0), ("b", 50.0), ("rest", 10.0)];
        assert!(reconcile(&split, 100.0, 0.05).is_ok());
        assert!(reconcile(&split, 103.0, 0.05).is_ok());
        // Parts missing a fifth of the total.
        assert!(reconcile(&split[..2], 112.0, 0.05).is_err());
        // Sub-calls longer than their parent: a negative residual.
        assert!(reconcile(&[("a", 70.0), ("b", 50.0), ("rest", -20.0)], 100.0, 0.05).is_err());
        assert!(reconcile(&split, 0.0, 0.05).is_err());
    }

    #[test]
    fn spans_group_by_sample() {
        let mut rec = Recorder::default();
        rec.next_sample();
        rec.span("x", "root", || ());
        rec.derived("x", "root", 5.0);
        rec.next_sample();
        rec.derived("x", "root", 7.0);
        assert_eq!(rec.per_sample("x").len(), 2);
        assert_eq!(rec.current("x"), 7.0);
        assert!(rec.to_jsonl("w").lines().count() == 3);
    }
}
