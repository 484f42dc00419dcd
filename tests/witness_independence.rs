//! Witness recording (`--explain` / `--trace`) is observation only: it
//! must never change a verdict or a governance counter.
//!
//! Every corpus exemplar and every Table-1 subject is checked with
//! witnesses off and on, at jobs 1 and 8, under the default governance
//! and under a starved one (`--query-budget 1 --max-retries 0`, where
//! every query falls down the degradation ladder). The plain report
//! render and the governance counters must be identical in each pair.

use leakchecker::governor::GovernorConfig;
use leakchecker::{check, render_all, AnalysisResult, CheckTarget, DetectorConfig};
use leakchecker_benchsuite::all_subjects;
use leakchecker_fuzz::parse_entry;
use leakchecker_ir::Program;

fn governances() -> [(&'static str, GovernorConfig); 2] {
    [
        ("default", GovernorConfig::default()),
        (
            "starved",
            GovernorConfig {
                query_budget: 1,
                max_retries: 0,
                ..GovernorConfig::default()
            },
        ),
    ]
}

/// The run's governance counters, as the `governance:` line prints them.
fn counters(result: &AnalysisResult) -> [u64; 6] {
    let s = result.stats;
    [
        s.exhausted_queries,
        s.retries,
        s.fallbacks,
        s.quarantined,
        s.deadline_hits,
        s.degraded_reports as u64,
    ]
}

/// Asserts the witness on/off pairs agree; returns the traces recorded.
fn assert_independent(
    label: &str,
    program: &Program,
    target: CheckTarget,
    base: DetectorConfig,
) -> usize {
    let mut traced = 0;
    for (name, governor) in governances() {
        for jobs in [1, 8] {
            let run = |witnesses: bool| {
                let config = DetectorConfig {
                    jobs,
                    governor,
                    witnesses,
                    ..base
                };
                check(program, target, config).unwrap_or_else(|e| panic!("{label}: {e}"))
            };
            let plain = run(false);
            let explained = run(true);
            let case = format!("{label} ({name} governance, jobs {jobs})");
            assert_eq!(
                render_all(&plain.program, &plain.reports),
                render_all(&explained.program, &explained.reports),
                "{case}: witnesses changed the reports"
            );
            assert_eq!(
                counters(&plain),
                counters(&explained),
                "{case}: witnesses moved the governance counters"
            );
            assert!(plain.traces.is_empty(), "{case}");
            traced += explained.traces.len();
        }
    }
    traced
}

#[test]
fn corpus_exemplars_are_witness_independent() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "jml"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "tests/corpus holds no .jml entries");
    let mut traced = 0;
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("corpus entry reads");
        let entry = parse_entry(&text).expect("corpus entry parses");
        let unit = leakchecker_frontend::compile(&entry.source).expect("exemplar compiles");
        for &designated in &unit.checked_loops {
            traced += assert_independent(
                &path.display().to_string(),
                &unit.program,
                CheckTarget::Loop(designated),
                DetectorConfig::default(),
            );
        }
    }
    assert!(traced > 0, "no witness run recorded a trace");
}

#[test]
fn table1_subjects_are_witness_independent() {
    let mut traced = 0;
    for subject in all_subjects() {
        let unit = subject.compile();
        traced += assert_independent(
            subject.name,
            &unit.program,
            subject.target(&unit),
            subject.detector_config(),
        );
    }
    assert!(traced > 0, "no witness run recorded a trace");
}
