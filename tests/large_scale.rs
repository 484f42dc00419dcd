//! Contract tests for the large-program generator and the parallel
//! engine at scale: generation is a pure function of its config, the
//! realized statement count lands near the target, and a ≥100k-statement
//! subject produces byte-identical reports at any worker width.

use leakchecker::{check, render_all, CheckTarget, DetectorConfig};
use leakchecker_benchsuite::{generate_large, score, HandlerKind, LargeConfig};
use leakchecker_callgraph::{Algorithm, CallGraph};
use leakchecker_effects::{analyze, EffectConfig};

#[test]
fn large_generation_is_seed_deterministic() {
    let config = LargeConfig {
        target_statements: 30_000,
        ..LargeConfig::default()
    };
    let a = generate_large(config);
    let b = generate_large(config);
    assert_eq!(a.source, b.source, "same config must be byte-identical");
    assert_eq!(a.kinds, b.kinds);

    let other = generate_large(LargeConfig {
        seed: config.seed ^ 0xDEAD,
        ..config
    });
    assert_ne!(a.source, other.source, "the seed must matter");
    assert_eq!(a.kinds.len(), other.kinds.len(), "but not the calibration");
}

#[test]
fn large_generation_hits_the_statement_target() {
    let target = 20_000;
    let generated = generate_large(LargeConfig {
        target_statements: target,
        ..LargeConfig::default()
    });
    assert!(
        generated.kinds.len() >= 100,
        "a 20k-statement subject should have many handler loops, got {}",
        generated.kinds.len()
    );
    assert!(generated.planted_leaks() > 0, "no leaks planted");
    assert!(
        generated.kinds.contains(&HandlerKind::CarryOver),
        "no carry-over handlers planted"
    );

    let unit = leakchecker_frontend::compile(&generated.source).expect("large subject compiles");
    leakchecker_ir::validate::assert_valid(&unit.program);
    let result = check(
        &unit.program,
        CheckTarget::Loop(unit.checked_loops[0]),
        DetectorConfig::default(),
    )
    .expect("large subject analyzes");
    let realized = result.stats.statements;
    assert!(
        realized >= target * 3 / 4 && realized <= target * 3 / 2,
        "calibration drifted: target {target}, realized {realized}"
    );

    // Ground truth holds at scale: every planted leak found, every
    // healthy handler quiet.
    let s = score(&result.program, &result);
    assert_eq!(s.true_positives, generated.planted_leaks());
    assert_eq!(s.missed_leaks, 0, "planted leaks missed");
    assert_eq!(
        s.false_positives, 0,
        "healthy handlers reported: {:?}",
        s.fp_causes
    );
}

#[test]
fn reports_are_byte_identical_across_widths_at_100k_statements() {
    let generated = generate_large(LargeConfig {
        target_statements: 100_000,
        ..LargeConfig::default()
    });
    let unit = leakchecker_frontend::compile(&generated.source).expect("large subject compiles");
    let target = CheckTarget::Loop(unit.checked_loops[0]);
    let run = |jobs: usize| {
        let config = DetectorConfig {
            jobs,
            ..DetectorConfig::default()
        };
        check(&unit.program, target, config).expect("large subject analyzes")
    };
    let seq = run(1);
    assert!(
        seq.stats.statements >= 100_000 * 4 / 5,
        "subject too small for the contract: {} statements",
        seq.stats.statements
    );
    let par = run(8);
    assert_eq!(
        render_all(&seq.program, &seq.reports),
        render_all(&par.program, &par.reports),
        "jobs=8 diverged from sequential on the 100k-statement subject"
    );
    assert_eq!(seq.stats.leaking_sites, par.stats.leaking_sites);
    assert_eq!(seq.stats.flow_edges, par.stats.flow_edges);
    assert_eq!(seq.stats.candidate_sites, par.stats.candidate_sites);
    assert_eq!(seq.stats.batched_queries, par.stats.batched_queries);
    assert_eq!(seq.stats.degraded_reports, par.stats.degraded_reports);
}

/// The effects phase's frame-copy work is an exact, deterministic count:
/// pinned here on a fixed small subject so a change that brings back
/// whole-frame copies at branches or loops shows up as a different
/// number, on any machine.
#[test]
fn effects_frame_copies_are_pinned_on_a_small_subject() {
    let generated = generate_large(LargeConfig {
        target_statements: 4_000,
        ..LargeConfig::default()
    });
    let unit = leakchecker_frontend::compile(&generated.source).expect("subject compiles");
    let cg = CallGraph::build(&unit.program, Algorithm::Rta);
    let summary = analyze(
        &unit.program,
        &cg,
        unit.checked_loops[0],
        EffectConfig::default(),
    );
    assert_eq!(summary.locals_copied, 4_758);
}
