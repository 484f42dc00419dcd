//! Width-independence battery for the effects fixpoint.
//!
//! The effects phase runs on one thread and ignores
//! `EffectConfig::jobs`; the claim under test is that every width yields
//! the same `EffectSummary` field for field (eras, effect sets,
//! truncation, the iteration count and the copy counter), not merely
//! the same reports downstream. The battery compares `analyze` directly
//! at jobs ∈ {1, 2, 8} across the committed corpus exemplars, several
//! large generated subjects, and a 200-seed fuzz-grammar sweep, then
//! checks end to end through `check` that witness and fault-injected
//! runs at jobs=8 match the jobs=1 run.
//!
//! `analyze` is exercised directly (not through the fuzz oracle or the
//! detector) so the battery compares the summary itself, not only the
//! reports derived from it.

use leakchecker::governor::{parse_fault_plan, GovernorConfig};
use leakchecker::{check, render_all, CheckTarget, DetectorConfig};
use leakchecker_benchsuite::{generate_fuzz, generate_large, LargeConfig};
use leakchecker_callgraph::{Algorithm, CallGraph};
use leakchecker_effects::{analyze, EffectConfig, EffectSummary};
use leakchecker_fuzz::parse_entry;

/// Everything observable about a summary. `eras` is a `HashMap`, so it
/// is rendered in sorted order.
fn fingerprint(summary: &EffectSummary) -> String {
    let EffectSummary {
        eras,
        stores,
        loads,
        inside_sites,
        returned_from_library,
        started_threads,
        truncated,
        rounds,
        regions,
        locals_copied,
    } = summary;
    let mut sorted_eras: Vec<_> = eras.iter().collect();
    sorted_eras.sort();
    format!(
        "eras={sorted_eras:?}\nstores={stores:?}\nloads={loads:?}\n\
         inside={inside_sites:?}\nlib={returned_from_library:?}\n\
         threads={started_threads:?}\ntruncated={truncated}\nrounds={rounds}\n\
         regions={regions}\nlocals_copied={locals_copied}"
    )
}

/// Analyzes `source` at the given width and returns the summary.
fn analyze_at(source: &str, jobs: usize) -> EffectSummary {
    let unit = leakchecker_frontend::compile(source).expect("subject compiles");
    let cg = CallGraph::build(&unit.program, Algorithm::Rta);
    assert!(
        !unit.checked_loops.is_empty(),
        "battery subject has no @check loop"
    );
    analyze(
        &unit.program,
        &cg,
        unit.checked_loops[0],
        EffectConfig {
            jobs,
            ..EffectConfig::default()
        },
    )
}

/// Asserts jobs ∈ {2, 8} reproduce the jobs=1 summary exactly and
/// returns that summary.
fn assert_equivalent(label: &str, source: &str) -> EffectSummary {
    let sequential = analyze_at(source, 1);
    let expected = fingerprint(&sequential);
    for jobs in [2, 8] {
        assert_eq!(
            expected,
            fingerprint(&analyze_at(source, jobs)),
            "{label}: jobs={jobs} diverged from jobs=1"
        );
    }
    sequential
}

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn corpus_exemplars_are_width_independent() {
    let mut paths: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "jml"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "tests/corpus holds no .jml entries");
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("corpus entry reads");
        let entry = parse_entry(&text).expect("corpus entry parses");
        assert_equivalent(&path.display().to_string(), &entry.source);
    }
}

#[test]
fn large_subjects_are_width_independent() {
    for seed in [0x1A26E, 0xB0B0, 0x5EED5] {
        let generated = generate_large(LargeConfig {
            target_statements: 9_000,
            seed,
            ..LargeConfig::default()
        });
        let summary =
            assert_equivalent(&format!("generate_large seed {seed:#x}"), &generated.source);
        assert!(summary.rounds > 0, "no abstract iterations ran");
    }
}

#[test]
fn fuzz_grammar_sweep_is_width_independent() {
    for seed in 0..200u64 {
        let generated = generate_fuzz(seed);
        assert_equivalent(&format!("generate_fuzz seed {seed}"), &generated.source);
    }
}

/// Witness recording and fault injection leave the effects phase alone:
/// at jobs=8 such runs match the jobs=1 run byte for byte, in reports,
/// rounds, copy counter and governance counters.
#[test]
fn witness_and_fault_runs_match_sequential() {
    let generated = generate_large(LargeConfig {
        target_statements: 4_000,
        ..LargeConfig::default()
    });
    let unit = leakchecker_frontend::compile(&generated.source).expect("subject compiles");
    let target = CheckTarget::Loop(unit.checked_loops[0]);
    let run = |jobs: usize, witnesses: bool, inject: Option<&str>| {
        let faults = inject
            .map(|spec| parse_fault_plan(spec).expect("fault plan parses"))
            .unwrap_or_default();
        let config = DetectorConfig {
            jobs,
            witnesses,
            governor: GovernorConfig {
                faults,
                ..GovernorConfig::default()
            },
            ..DetectorConfig::default()
        };
        check(&unit.program, target, config).expect("subject analyzes")
    };
    let cases = [
        (false, None),
        (true, None),
        (false, Some("exhaust@2,panic@4")),
    ];
    // The injected panic is caught by the refinement's quarantine; keep
    // its message out of the test output.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let runs: Vec<_> = cases
        .iter()
        .map(|&(witnesses, inject)| (run(1, witnesses, inject), run(8, witnesses, inject)))
        .collect();
    std::panic::set_hook(hook);
    for ((witnesses, inject), (seq, par)) in cases.iter().zip(runs) {
        let label = format!("witnesses={witnesses} inject={inject:?}");
        assert_eq!(
            render_all(&seq.program, &seq.reports),
            render_all(&par.program, &par.reports),
            "{label}: diverged across widths"
        );
        assert_eq!(
            seq.stats.effects_rounds, par.stats.effects_rounds,
            "{label}"
        );
        assert_eq!(
            seq.stats.effects_locals_copied, par.stats.effects_locals_copied,
            "{label}"
        );
        assert_eq!(seq.stats.effects_truncated, par.stats.effects_truncated);
        assert_eq!(
            (
                seq.stats.exhausted_queries,
                seq.stats.retries,
                seq.stats.fallbacks
            ),
            (
                par.stats.exhausted_queries,
                par.stats.retries,
                par.stats.fallbacks
            ),
            "{label}"
        );
        assert_eq!(seq.stats.quarantined, par.stats.quarantined, "{label}");
        assert_eq!(seq.stats.deadline_hits, par.stats.deadline_hits, "{label}");
    }
}
