//! Differential determinism tests for the parallel detection engine:
//! a `jobs = N` run must produce byte-identical reports and statistics
//! (timings excluded) to the sequential run, on every Table-1 subject
//! and on generated programs.

use leakchecker::{check, render_all, AnalysisResult, DetectorConfig, RunStats};
use leakchecker_benchsuite::{all_subjects, generate, GenConfig};

/// Everything comparable about a run: the rendered reports (site, ERA,
/// edges, contexts, names — the full user-visible output) plus the
/// timing-free statistics.
fn fingerprint(result: &AnalysisResult) -> String {
    let RunStats {
        methods,
        statements,
        loop_objects,
        leaking_sites,
        flow_edges,
        candidate_sites,
        refuted_candidates,
        exhausted_queries,
        retries,
        fallbacks,
        quarantined,
        deadline_hits,
        degraded_reports,
        batched_queries,
        query_batches,
        effects_rounds,
        effects_locals_copied,
        effects_truncated,
        cache_hits,
        cache_misses,
        cache_invalidated,
        cache_corrupt_recovered,
        // Excluded on purpose: wall-clock and thread count vary per run.
        time_secs: _,
        phases: _,
        jobs: _,
    } = result.stats;
    format!(
        "methods={methods} statements={statements} loop_objects={loop_objects} \
         leaking_sites={leaking_sites} flow_edges={flow_edges} \
         candidate_sites={candidate_sites} refuted={refuted_candidates} \
         exhausted={exhausted_queries} retries={retries} fallbacks={fallbacks} \
         quarantined={quarantined} deadline_hits={deadline_hits} \
         degraded={degraded_reports} batched={batched_queries} \
         batches={query_batches} effects_rounds={effects_rounds} \
         effects_locals_copied={effects_locals_copied} effects_truncated={effects_truncated} cache_hits={cache_hits} \
         cache_misses={cache_misses} cache_invalidated={cache_invalidated} \
         cache_corrupt_recovered={cache_corrupt_recovered}\n{}",
        render_all(&result.program, &result.reports)
    )
}

#[test]
fn all_subjects_are_deterministic_under_parallelism() {
    for subject in all_subjects() {
        let unit = subject.compile();
        let run = |jobs: usize| {
            let config = DetectorConfig {
                jobs,
                ..subject.detector_config()
            };
            check(&unit.program, subject.target(&unit), config)
                .unwrap_or_else(|e| panic!("{}: {e}", subject.name))
        };
        let sequential = fingerprint(&run(1));
        for jobs in [2, 4, 8] {
            assert_eq!(
                sequential,
                fingerprint(&run(jobs)),
                "{}: jobs={jobs} diverged from sequential",
                subject.name
            );
        }
    }
}

#[test]
fn generated_programs_are_deterministic_under_parallelism() {
    for handlers in [8, 32, 64] {
        let generated = generate(GenConfig {
            handlers,
            leak_percent: 40,
            padding_methods: 2,
            seed: 0xD15EA5E,
        });
        let unit = leakchecker_frontend::compile(&generated.source).expect("generated compiles");
        let target = leakchecker::CheckTarget::Loop(unit.checked_loops[0]);
        let run = |jobs: usize| {
            let config = DetectorConfig {
                jobs,
                ..DetectorConfig::default()
            };
            check(&unit.program, target, config).expect("analysis runs")
        };
        let sequential = fingerprint(&run(1));
        for jobs in [3, 7] {
            assert_eq!(
                sequential,
                fingerprint(&run(jobs)),
                "{handlers} handlers: jobs={jobs} diverged from sequential"
            );
        }
    }
}
