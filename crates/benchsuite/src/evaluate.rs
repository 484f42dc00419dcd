//! Mechanical scoring of detector output against ground-truth labels.
//!
//! Subject programs annotate allocation sites with `@leak` (a genuine
//! leak) or `@fp("cause")` (an expected false positive with the cause the
//! paper identified). The Table 1 harness uses these labels to compute
//! the LS / FP / FPR columns without manual inspection.

use leakchecker::AnalysisResult;
use leakchecker_ir::stmt::SiteLabel;
use leakchecker_ir::Program;
use std::collections::BTreeMap;

/// Scored outcome of one detector run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Score {
    /// Reported allocation sites (site-level, context-insensitive).
    pub reported_sites: usize,
    /// Reported context-sensitive sites (the LS column).
    pub reported_ctx_sites: usize,
    /// Reported sites labeled `@leak` (true positives).
    pub true_positives: usize,
    /// Reported sites *not* labeled `@leak` (false positives; the FP
    /// column counts their context-sensitive weight).
    pub false_positives: usize,
    /// Context-sensitive false positives.
    pub false_positives_ctx: usize,
    /// `@leak` sites the detector missed (false negatives).
    pub missed_leaks: usize,
    /// Expected-FP causes observed, with counts (e.g. "singleton" → 2).
    pub fp_causes: BTreeMap<String, usize>,
}

impl Score {
    /// The false-positive rate FP / LS over context-sensitive sites,
    /// as a fraction in `[0, 1]` (0 when nothing was reported).
    pub fn fpr(&self) -> f64 {
        if self.reported_ctx_sites == 0 {
            0.0
        } else {
            self.false_positives_ctx as f64 / self.reported_ctx_sites as f64
        }
    }
}

/// Scores a detector result against the program's site labels.
///
/// The `program` must be the one embedded in `result` (regions augment
/// the program; allocation-site labels are preserved by the augmentation).
pub fn score(program: &Program, result: &AnalysisResult) -> Score {
    let mut s = Score::default();
    let reported = result.reported_sites();

    for report in &result.reports {
        let ctx_weight = report.context_count.max(1);
        s.reported_sites += 1;
        s.reported_ctx_sites += ctx_weight;
        match &program.alloc(report.site).label {
            SiteLabel::Leak => s.true_positives += 1,
            SiteLabel::FalsePositive(cause) => {
                s.false_positives += 1;
                s.false_positives_ctx += ctx_weight;
                *s.fp_causes.entry(cause.clone()).or_default() += 1;
            }
            SiteLabel::None => {
                s.false_positives += 1;
                s.false_positives_ctx += ctx_weight;
                *s.fp_causes.entry("unlabeled".to_string()).or_default() += 1;
            }
        }
    }

    // A `@leak` site counts as covered when it is reported directly or
    // when it is a member of a reported leaking structure: pivot mode
    // deliberately suppresses members in favor of the root (paper
    // Section 4), and inspecting the root fixes the member's leak too.
    let mut covered = reported.clone();
    for &root in &reported {
        covered.extend(result.flows.members_of(root));
    }
    for (i, alloc) in program.allocs().iter().enumerate() {
        if alloc.label.is_leak() {
            let site = leakchecker_ir::AllocSite::from_index(i);
            if !covered.contains(&site) {
                s.missed_leaks += 1;
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakchecker::{check, CheckTarget, DetectorConfig};
    use leakchecker_frontend::compile;

    #[test]
    fn scores_true_and_false_positives() {
        let unit = compile(
            "class Item { }
             class Decoy { }
             class Holder { Item item; Decoy decoy; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item it = @leak new Item();
                   h.item = it;
                   Decoy d = @fp(\"test-decoy\") new Decoy();
                   h.decoy = d;
                 }
               }
             }",
        )
        .unwrap();
        let result = check(
            &unit.program,
            CheckTarget::Loop(unit.checked_loops[0]),
            DetectorConfig::default(),
        )
        .unwrap();
        let s = score(&result.program, &result);
        assert_eq!(s.reported_sites, 2);
        assert_eq!(s.true_positives, 1);
        assert_eq!(s.false_positives, 1);
        assert_eq!(s.missed_leaks, 0);
        assert_eq!(s.fp_causes.get("test-decoy"), Some(&1));
        assert!((s.fpr() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn counts_missed_leaks() {
        // A leak the detector cannot see: labeled @leak but never
        // escaping (a deliberately wrong label to exercise the scorer).
        let unit = compile(
            "class Item { }
             class Main {
               static void main() {
                 @check while (nondet()) {
                   Item it = @leak new Item();
                 }
               }
             }",
        )
        .unwrap();
        let result = check(
            &unit.program,
            CheckTarget::Loop(unit.checked_loops[0]),
            DetectorConfig::default(),
        )
        .unwrap();
        let s = score(&result.program, &result);
        assert_eq!(s.reported_sites, 0);
        assert_eq!(s.missed_leaks, 1);
        assert_eq!(s.fpr(), 0.0);
    }
}
