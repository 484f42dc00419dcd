//! The verdict gate: every answer is compared with a reference that
//! does not come from the detector.
//!
//! * Table-1 subjects: the `@leak`/`@fp` labels scored by
//!   `evaluate::score` must give the LS/FP published in EXPERIMENTS.md's
//!   Table 1, with no missed leak.
//! * Fuzz programs: the coverage closure must contain the must-leak set
//!   the interpreter observed (the fuzz oracle's ground truth).
//! * Large generated subjects: exactly the `@leak`-labelled sites of a
//!   separate compile of the source reported, no false positive, no
//!   missed leak.
//! * Fleet frames: the report text must equal an in-process `check` of
//!   the same source, computed in set-up.

use leakchecker::{oracle_compare, AnalysisResult};
use leakchecker_benchsuite::evaluate::score;
use leakchecker_cli::protocol::{parse_json, Json};
use leakchecker_ir::ids::AllocSite;
use std::collections::BTreeSet;

/// Table 1 of EXPERIMENTS.md: (subject, LS, FP).
pub const TABLE1: [(&str, usize, usize); 8] = [
    ("specjbb", 3, 1),
    ("eclipse-diff", 4, 3),
    ("eclipse-cp", 6, 3),
    ("mysql-connectorj", 4, 3),
    ("log4j", 1, 0),
    ("findbugs", 8, 7),
    ("derby", 3, 2),
    ("mikou", 2, 1),
];

/// What a verdict must satisfy.
#[derive(Clone, Debug)]
pub enum Expect {
    /// A Table-1 row: context-sensitive LS and FP, zero missed.
    Table1 {
        /// Reported context-sensitive leaking sites.
        ls: usize,
        /// Context-sensitive false positives.
        fp: usize,
    },
    /// Sites the interpreter saw leak; all must be covered.
    MustLeak(BTreeSet<AllocSite>),
    /// A generated subject whose planted leaks are the `@leak`-labelled
    /// sites of a separate compile of its source, made in set-up.
    Planted {
        /// The labelled sites.
        leaks: BTreeSet<AllocSite>,
    },
}

/// Judges one in-process verdict.
///
/// # Errors
///
/// Describes the wrong answer.
pub fn judge(expect: &Expect, result: &AnalysisResult) -> Result<(), String> {
    match expect {
        Expect::Table1 { ls, fp } => {
            let s = score(&result.program, result);
            if (s.reported_ctx_sites, s.false_positives_ctx, s.missed_leaks) != (*ls, *fp, 0) {
                return Err(format!(
                    "LS/FP/missed {}/{}/{} where Table 1 has {ls}/{fp}/0",
                    s.reported_ctx_sites, s.false_positives_ctx, s.missed_leaks
                ));
            }
        }
        Expect::MustLeak(must) => {
            let cmp = oracle_compare(result, must);
            if !cmp.is_sound() {
                return Err(format!("missed must-leak sites {:?}", cmp.missed));
            }
        }
        Expect::Planted { leaks } => {
            let s = score(&result.program, result);
            if (s.false_positives, s.missed_leaks) != (0, 0) || result.reported_sites() != *leaks {
                return Err(format!(
                    "TP/FP/missed {}/{}/{} where {}/0/0 are planted",
                    s.true_positives,
                    s.false_positives,
                    s.missed_leaks,
                    leaks.len()
                ));
            }
        }
    }
    Ok(())
}

/// Judges one fleet response frame against the expected report text.
///
/// # Errors
///
/// A non-ok frame, or report text that differs from `expected`.
pub fn judge_frame(frame: &str, expected: &str) -> Result<(), String> {
    let Ok(Json::Obj(obj)) = parse_json(frame) else {
        return Err(format!("unparsable frame: {}", clip(frame)));
    };
    match obj.get("status") {
        Some(Json::Str(s)) if s == "ok" => {}
        _ => return Err(format!("non-ok frame: {}", clip(frame))),
    }
    match obj.get("output") {
        Some(Json::Str(out)) if out == expected => Ok(()),
        Some(Json::Str(_)) => Err("report text differs from the in-process check".to_string()),
        _ => Err(format!("frame without output: {}", clip(frame))),
    }
}

fn clip(s: &str) -> &str {
    &s[..s.floor_char_boundary(160)]
}
