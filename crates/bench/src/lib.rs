//! Shared harness for the evaluation binaries and Criterion benches.
//!
//! The paper's evaluation is one table (Table 1: per-program Mtds, Stmts,
//! Time, LO, LS, FP, FPR) plus six case studies. [`run_subject`] executes
//! the full pipeline on one subject and scores it against ground truth;
//! [`table1_rows`] produces the whole table. The `table1` binary prints
//! it; the `experiments` binary adds the ablations and the
//! static-vs-dynamic comparison; the Criterion benches measure the same
//! pipelines.

use leakchecker::parallel::{effective_jobs, parallel_map};
use leakchecker::{
    check, json_escape, render_all, AnalysisResult, CacheStats, CheckTarget, DetectorConfig,
    SummaryCache, TargetKeys,
};
use leakchecker_benchsuite::{
    all_subjects, by_name, evaluate, generate, generate_large, GenConfig, LargeConfig, Subject,
};
use leakchecker_cli::{cached_target_of, json_fragment_of};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub mod chaos;
pub mod metrics;
pub mod stopwatch;

/// One row of the reproduced Table 1.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Subject name.
    pub name: String,
    /// Reachable methods (Mtds).
    pub methods: usize,
    /// Statements in reachable methods (Stmts).
    pub statements: usize,
    /// Analysis time in seconds (Time).
    pub time_secs: f64,
    /// Context-sensitive allocation sites in the loop (LO).
    pub loop_objects: usize,
    /// Reported context-sensitive leaking sites (LS).
    pub leaking_sites: usize,
    /// Context-sensitive false positives (FP).
    pub false_positives: usize,
    /// FP / LS.
    pub fpr: f64,
    /// Leaks the detector failed to cover (0 in a healthy reproduction —
    /// the paper reports no missed known leaks).
    pub missed: usize,
    /// Demand queries that fell back to the context-insensitive
    /// over-approximation (degradation ladder, 0 on an ungoverned run).
    pub fallbacks: u64,
    /// Reports tagged `Degraded` rather than `Precise`.
    pub degraded_reports: usize,
    /// Designated-loop rounds the effects fixpoint ran (jobs-independent).
    pub effects_rounds: usize,
    /// The effect summary hit the inlining depth cap (sound but
    /// conservative; 0 expected on every registry subject).
    pub effects_truncated: bool,
    /// Persistent-summary-cache replays (0 on a cache-less run, as in
    /// the registry table; populated when a harness attaches a store).
    pub cache_hits: u64,
    /// Cache lookups that missed and fell through to a cold analysis.
    pub cache_misses: u64,
    /// Stored summaries invalidated by content-hash drift.
    pub cache_invalidated: u64,
    /// Corrupt cache records quarantined and recovered as misses.
    pub cache_corrupt_recovered: u64,
}

/// Runs the full pipeline on a subject with its case-study configuration.
///
/// # Panics
///
/// Panics if the subject fails to compile or resolve — suite bugs covered
/// by tests.
pub fn run_subject(subject: &Subject) -> (AnalysisResult, evaluate::Score) {
    run_subject_with(subject, subject.detector_config())
}

/// Like [`run_subject`] with an explicit detector configuration
/// (ablations).
pub fn run_subject_with(
    subject: &Subject,
    config: DetectorConfig,
) -> (AnalysisResult, evaluate::Score) {
    let unit = subject.compile();
    let result = check(&unit.program, subject.target(&unit), config)
        .unwrap_or_else(|e| panic!("{}: {e}", subject.name));
    let score = evaluate::score(&result.program, &result);
    (result, score)
}

/// Produces every row of the reproduced Table 1.
pub fn table1_rows() -> Vec<TableRow> {
    table1_rows_jobs(1)
}

/// Like [`table1_rows`] with the eight subjects analyzed concurrently on
/// up to `jobs` worker threads. Rows come back in registry order
/// regardless of completion order, and each subject runs its detector
/// sequentially (the parallelism is across subjects), so the rows equal
/// the sequential ones modulo the timing columns.
pub fn table1_rows_jobs(jobs: usize) -> Vec<TableRow> {
    parallel_map(jobs, all_subjects(), |subject| {
        let (result, score) = run_subject(&subject);
        TableRow {
            name: subject.name.to_string(),
            methods: result.stats.methods,
            statements: result.stats.statements,
            time_secs: result.stats.time_secs,
            loop_objects: result.stats.loop_objects,
            leaking_sites: result.stats.leaking_sites,
            false_positives: score.false_positives_ctx,
            fpr: score.fpr(),
            missed: score.missed_leaks,
            fallbacks: result.stats.fallbacks,
            degraded_reports: result.stats.degraded_reports,
            effects_rounds: result.stats.effects_rounds,
            effects_truncated: result.stats.effects_truncated,
            cache_hits: result.stats.cache_hits,
            cache_misses: result.stats.cache_misses,
            cache_invalidated: result.stats.cache_invalidated,
            cache_corrupt_recovered: result.stats.cache_corrupt_recovered,
        }
    })
}

/// Renders the rows as an aligned text table, with the average FPR line
/// the paper quotes (49.8% in the original).
pub fn render_table(rows: &[TableRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>6} {:>7} {:>8} {:>5} {:>4} {:>4} {:>7} {:>7}",
        "Program", "Mtds", "Stmts", "Time(s)", "LO", "LS", "FP", "FPR", "Missed"
    );
    let _ = writeln!(out, "{}", "-".repeat(74));
    for row in rows {
        let _ = writeln!(
            out,
            "{:<18} {:>6} {:>7} {:>8.3} {:>5} {:>4} {:>4} {:>6.1}% {:>7}",
            row.name,
            row.methods,
            row.statements,
            row.time_secs,
            row.loop_objects,
            row.leaking_sites,
            row.false_positives,
            row.fpr * 100.0,
            row.missed
        );
    }
    let avg = if rows.is_empty() {
        0.0
    } else {
        rows.iter().map(|r| r.fpr).sum::<f64>() / rows.len() as f64
    };
    let _ = writeln!(out, "{}", "-".repeat(74));
    let _ = writeln!(
        out,
        "average FPR: {:.1}%   (paper reports 49.8%)",
        avg * 100.0
    );
    out
}

/// One point of the jobs-scaling sweep over generated programs.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Generator size knob (handler classes).
    pub handlers: usize,
    /// Statements in the generated program's reachable methods.
    pub statements: usize,
    /// End-to-end wall-clock with `jobs = 1`, in seconds.
    pub seq_secs: f64,
    /// End-to-end wall-clock with `jobs = par_jobs`, in seconds.
    pub par_secs: f64,
    /// Worker threads of the parallel run (after resolving `0`).
    pub par_jobs: usize,
    /// Reports found (identical across the two runs by construction).
    pub reports: usize,
}

impl SweepPoint {
    /// Sequential-over-parallel wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        if self.par_secs > 0.0 {
            self.seq_secs / self.par_secs
        } else {
            0.0
        }
    }
}

/// Runs the size sweep: for each generator size, one sequential and one
/// `jobs`-wide detector run over the same program, verifying both modes
/// report the same sites.
///
/// # Panics
///
/// Panics if a generated program fails to compile or analyze, or if the
/// two modes disagree — generator/determinism bugs covered by tests.
pub fn size_sweep(sizes: &[usize], jobs: usize) -> Vec<SweepPoint> {
    sizes
        .iter()
        .map(|&handlers| {
            let generated = generate(GenConfig {
                handlers,
                leak_percent: 30,
                padding_methods: 3,
                seed: 0xC0FFEE,
            });
            let unit =
                leakchecker_frontend::compile(&generated.source).expect("generated compiles");
            let target = CheckTarget::Loop(unit.checked_loops[0]);
            let run = |jobs: usize| {
                let config = DetectorConfig {
                    jobs,
                    ..DetectorConfig::default()
                };
                let start = Instant::now();
                let result = check(&unit.program, target, config).expect("analysis runs");
                (start.elapsed().as_secs_f64(), result)
            };
            let (seq_secs, seq) = run(1);
            let (par_secs, par) = run(jobs);
            assert_eq!(
                seq.reported_sites(),
                par.reported_sites(),
                "jobs={jobs} changed the verdict at {handlers} handlers"
            );
            SweepPoint {
                handlers,
                statements: seq.stats.statements,
                seq_secs,
                par_secs,
                par_jobs: effective_jobs(jobs),
                reports: seq.reports.len(),
            }
        })
        .collect()
}

/// One point of the parallel-scaling sweep: a large generated subject
/// analyzed at one worker width, with the per-phase wall-clock split and
/// the efficiency relative to the sweep's sequential baseline.
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// Statement target the subject was generated for.
    pub target_statements: usize,
    /// Realized statements in reachable methods.
    pub statements: usize,
    /// Reachable methods.
    pub methods: usize,
    /// Requested worker width for this point.
    pub jobs: usize,
    /// Resolved width (after mapping `0` to the machine width).
    pub eff_jobs: usize,
    /// Best-of-N end-to-end wall-clock, in seconds. Every phase below
    /// is from that same run.
    pub secs: f64,
    /// Flows-closure phase seconds (SCC waves — the widest phase).
    pub flows_secs: f64,
    /// Effects-fixpoint phase seconds.
    pub effects_secs: f64,
    /// Refinement phase seconds (batched demand queries).
    pub refine_secs: f64,
    /// Everything else (callgraph, contexts, matching).
    pub other_secs: f64,
    /// Sequential-baseline seconds over this point's seconds.
    pub speedup: f64,
    /// `speedup / eff_jobs` — 1.0 is perfect linear scaling.
    pub efficiency: f64,
    /// Reports found (byte-identical across the sweep by construction).
    pub reports: usize,
    /// Frame slots the effects phase copied (exact; jobs-independent).
    pub locals_copied: usize,
}

/// Runs the parallel-scaling sweep the issue's Table-1 extension asks
/// for: one seed-deterministic large subject (about `target_statements`
/// statements), analyzed once per width in `jobs_list`, each width timed
/// as best-of-`samples` after one warmup, with the phase split of the
/// best run. The rendered reports of every width are asserted
/// byte-identical against the first width before any timing is trusted. The speedup baseline is the `jobs = 1` point if
/// the list has one, else the first point.
///
/// # Panics
///
/// Panics if the generated subject fails to compile or analyze, or if
/// any width changes the rendered reports — determinism bugs covered by
/// `tests/large_scale.rs` and `tests/parallel_determinism.rs`.
pub fn scaling_sweep(
    target_statements: usize,
    jobs_list: &[usize],
    samples: usize,
) -> Vec<ScalingPoint> {
    let generated = generate_large(LargeConfig {
        target_statements,
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

    // First pass: one verification run per width (doubles as warmup),
    // byte-comparing the rendered reports, then best-of-N timed runs.
    let mut timed = Vec::with_capacity(jobs_list.len());
    let mut expected: Option<String> = None;
    for &jobs in jobs_list {
        let checked = run(jobs);
        let rendered = render_all(&checked.program, &checked.reports);
        match &expected {
            None => expected = Some(rendered),
            Some(e) => assert_eq!(*e, rendered, "jobs={jobs} changed the rendered reports"),
        }
        let (best, result) = stopwatch::measure_best(0, samples, || run(jobs));
        timed.push((jobs, result, best.as_secs_f64()));
    }

    // Second pass: speedups relative to the jobs = 1 point (or the first
    // point if the list has none).
    let baseline_secs = timed
        .iter()
        .find(|(jobs, _, _)| *jobs == 1)
        .or(timed.first())
        .map(|(_, _, secs)| *secs)
        .unwrap_or(0.0);
    timed
        .into_iter()
        .map(|(jobs, result, secs)| {
            let p = result.stats.phases;
            let speedup = if secs > 0.0 {
                baseline_secs / secs
            } else {
                0.0
            };
            let eff_jobs = effective_jobs(jobs);
            ScalingPoint {
                target_statements,
                statements: result.stats.statements,
                methods: result.stats.methods,
                jobs,
                eff_jobs,
                secs,
                flows_secs: p.flows_secs,
                effects_secs: p.effects_secs,
                refine_secs: p.refine_secs,
                other_secs: p.callgraph_secs + p.contexts_secs + p.matching_secs,
                speedup,
                efficiency: if eff_jobs > 0 {
                    speedup / eff_jobs as f64
                } else {
                    0.0
                },
                reports: result.reports.len(),
                locals_copied: result.stats.effects_locals_copied,
            }
        })
        .collect()
}

/// Renders the scaling sweep as an aligned text table.
pub fn render_scaling(points: &[ScalingPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>5} {:>8} {:>9} {:>9} {:>10} {:>9} {:>9} {:>8} {:>5}",
        "jobs",
        "stmts",
        "total(s)",
        "flows(s)",
        "effects(s)",
        "refine(s)",
        "other(s)",
        "speedup",
        "eff"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>9.3} {:>9.3} {:>10.3} {:>9.3} {:>9.3} {:>7.2}x {:>4.0}%",
            p.jobs,
            p.statements,
            p.secs,
            p.flows_secs,
            p.effects_secs,
            p.refine_secs,
            p.other_secs,
            p.speedup,
            p.efficiency * 100.0
        );
    }
    out
}

/// Bumps the first stage-arithmetic integer constant in a generated
/// subject's source — a one-method edit the semantic projection proves
/// analysis-invisible (integer literals are normalized), which is the
/// persistent cache's warm-hit case.
///
/// # Panics
///
/// Panics if the source has no `int acc = x * N` stage statement —
/// only generated large subjects are expected here.
pub fn bump_one_constant(source: &str) -> String {
    let marker = "int acc = x * ";
    let at = source
        .find(marker)
        .expect("generated subject has stage arithmetic")
        + marker.len();
    let digits: String = source[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    let value: u64 = digits.parse().expect("stage constant parses");
    format!(
        "{}{}{}",
        &source[..at],
        value + 7,
        &source[at + digits.len()..]
    )
}

/// One point of the warm-vs-cold incremental sweep: a generated large
/// subject edited in one method, re-checked cold (cache disabled) and
/// warm (replayed from the persistent summary store seeded at a
/// different worker width).
#[derive(Clone, Debug)]
pub struct WarmColdPoint {
    /// Statement target the subject was generated for.
    pub target_statements: usize,
    /// Realized statements in reachable methods.
    pub statements: usize,
    /// Reachable methods.
    pub methods: usize,
    /// Worker width of this point's runs.
    pub jobs: usize,
    /// Cold post-compile analysis seconds on the edited program with
    /// the cache disabled — the work the warm path replaces.
    pub cold_secs: f64,
    /// Warm post-compile seconds: content-hash key computation plus
    /// the store lookup that replays the summary.
    pub warm_secs: f64,
    /// The warm lookup hit (a miss means the keys drifted under an
    /// analysis-invisible edit — a cache bug).
    pub warm_hit: bool,
    /// The warm replayed report byte-equals the cache-disabled cold
    /// run's rendered report.
    pub byte_identical: bool,
    /// Reports found by the cold run.
    pub reports: usize,
    /// Store counters after this point's lookup.
    pub cache: CacheStats,
}

impl WarmColdPoint {
    /// Cold-over-warm wall-clock ratio (the incremental win).
    pub fn speedup(&self) -> f64 {
        if self.warm_secs > 0.0 {
            self.cold_secs / self.warm_secs
        } else {
            0.0
        }
    }
}

/// Runs the warm-vs-cold incremental sweep: generates one large
/// subject, seeds a persistent summary store with a cold recording run
/// at the first width, bumps one integer constant in one stage method,
/// then for each width in `jobs_list` re-checks the edited program both
/// cold (cache disabled, the byte-compare baseline) and warm (keys +
/// lookup against the seeded store). The store is seeded once — a warm
/// hit at every other width is exactly the jobs-invariance claim, since
/// the cache's config fingerprint normalizes the worker width.
///
/// # Panics
///
/// Panics if the subject fails to compile or analyze, or if the store
/// cannot be created under `cache_dir` — harness bugs, not detector
/// verdicts; the verdict fields (`warm_hit`, `byte_identical`) are
/// returned for the caller to gate on.
pub fn warm_cold_sweep(
    target_statements: usize,
    jobs_list: &[usize],
    cache_dir: &Path,
) -> Vec<WarmColdPoint> {
    let generated = generate_large(LargeConfig {
        target_statements,
        ..LargeConfig::default()
    });
    let edited_source = bump_one_constant(&generated.source);
    let unit = leakchecker_frontend::compile(&generated.source).expect("large subject compiles");
    let edited = leakchecker_frontend::compile(&edited_source).expect("edited subject compiles");
    let target = CheckTarget::Loop(unit.checked_loops[0]);

    let mut store = SummaryCache::open(cache_dir).expect("summary store opens");
    let seed_config = DetectorConfig {
        jobs: jobs_list.first().copied().unwrap_or(1),
        ..DetectorConfig::default()
    };
    let seed = check(&unit.program, target, seed_config).expect("seed run analyzes");
    assert!(
        !seed.stats.is_degraded(),
        "seed run degraded; degraded results are never cached"
    );
    let resolved = leakchecker::target::resolve(&unit.program, target).expect("target resolves");
    let mut keys = TargetKeys::new(resolved, seed_config.callgraph, |d| {
        store.remembered_root(d)
    });
    let cached = cached_target_of(&seed, json_fragment_of(target, &seed));
    let key = keys.result_key(target, &seed_config);
    store
        .record_target(&mut keys, key, &cached)
        .expect("seed run records");

    jobs_list
        .iter()
        .map(|&jobs| {
            let config = DetectorConfig {
                jobs,
                ..DetectorConfig::default()
            };
            let start = Instant::now();
            let cold = check(&edited.program, target, config).expect("cold run analyzes");
            let cold_secs = start.elapsed().as_secs_f64();
            let cold_report = render_all(&cold.program, &cold.reports);

            let start = Instant::now();
            let resolved =
                leakchecker::target::resolve(&edited.program, target).expect("target resolves");
            let keys = TargetKeys::new(resolved, config.callgraph, |d| store.remembered_root(d));
            let hit = store.lookup(keys.result_key(target, &config));
            let warm_secs = start.elapsed().as_secs_f64();

            let (warm_hit, byte_identical) = match &hit {
                Some(h) => (true, h.report == cold_report),
                None => (false, false),
            };
            WarmColdPoint {
                target_statements,
                statements: cold.stats.statements,
                methods: cold.stats.methods,
                jobs,
                cold_secs,
                warm_secs,
                warm_hit,
                byte_identical,
                reports: cold.reports.len(),
                cache: store.stats,
            }
        })
        .collect()
}

/// Outcome of one disk-fault recovery drill ([`chaos_recovery_check`]).
#[derive(Clone, Debug)]
pub struct ChaosRecovery {
    /// Human descriptions of the faults actually injected.
    pub applied: Vec<String>,
    /// The post-injection lookup still hit (the fault landed away from
    /// the result record, which replayed byte-identically).
    pub warm_hit: bool,
    /// The warm-path report byte-equals the cache-disabled cold run —
    /// the *degrade to a miss, never to a wrong answer* invariant.
    pub byte_identical: bool,
    /// Store counters after reopening the damaged file.
    pub cache: CacheStats,
}

/// Runs one disk-fault recovery drill: seeds a persistent summary
/// store with a cold run, injects `spec`'s faults (the
/// [`chaos::parse_disk_plan`] DSL) into the cache file, reopens the
/// store, and re-checks warm. Whatever the warm path produces — a
/// replay if the result record survived, a fresh analysis if it was
/// quarantined or lost — must byte-equal the cache-disabled cold
/// report.
///
/// # Errors
///
/// Malformed fault specs, out-of-range record indices, and store I/O
/// failures.
///
/// # Panics
///
/// Panics if the generated subject fails to compile or analyze —
/// harness bugs, not detector verdicts.
pub fn chaos_recovery_check(
    target_statements: usize,
    spec: &str,
    cache_dir: &Path,
) -> Result<ChaosRecovery, String> {
    let plan = chaos::parse_disk_plan(spec)?;
    let generated = generate_large(LargeConfig {
        target_statements,
        ..LargeConfig::default()
    });
    let unit = leakchecker_frontend::compile(&generated.source).expect("large subject compiles");
    let target = CheckTarget::Loop(unit.checked_loops[0]);
    let config = DetectorConfig::default();

    let cold = check(&unit.program, target, config).expect("cold run analyzes");
    let cold_report = render_all(&cold.program, &cold.reports);
    let key_with = |store: &SummaryCache| {
        let resolved =
            leakchecker::target::resolve(&unit.program, target).expect("target resolves");
        TargetKeys::new(resolved, config.callgraph, |d| store.remembered_root(d))
    };

    let cache_file = {
        let mut store = SummaryCache::open(cache_dir).map_err(|e| format!("cache open: {e}"))?;
        let mut keys = key_with(&store);
        let result_key = keys.result_key(target, &config);
        store
            .record_target(
                &mut keys,
                result_key,
                &cached_target_of(&cold, json_fragment_of(target, &cold)),
            )
            .map_err(|e| format!("cache seed: {e}"))?;
        store.file_path().to_path_buf()
    };
    let applied = chaos::apply_disk_plan(&cache_file, &plan)?;

    // The warm path keys through the reopened store, so a damaged
    // digest record is exercised too (it must degrade to a full key).
    let mut store = SummaryCache::open(cache_dir).map_err(|e| format!("cache reopen: {e}"))?;
    let result_key = key_with(&store).result_key(target, &config);
    let (warm_hit, warm_report) = match store.lookup(result_key) {
        Some(hit) => (true, hit.report),
        None => {
            // Quarantined or lost: the warm path degrades to a miss and
            // re-analyzes, exactly like a cold run.
            let redo = check(&unit.program, target, config).expect("recovery run analyzes");
            (false, render_all(&redo.program, &redo.reports))
        }
    };
    Ok(ChaosRecovery {
        applied,
        warm_hit,
        byte_identical: warm_report == cold_report,
        cache: store.stats,
    })
}

/// Renders the warm/cold sweep as an aligned text table.
pub fn render_warm_cold(points: &[WarmColdPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>5} {:>8} {:>9} {:>9} {:>8} {:>5} {:>6}",
        "jobs", "stmts", "cold(s)", "warm(s)", "speedup", "hit", "bytes"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>9.3} {:>9.3} {:>7.1}x {:>5} {:>6}",
            p.jobs,
            p.statements,
            p.cold_secs,
            p.warm_secs,
            p.speedup(),
            if p.warm_hit { "hit" } else { "MISS" },
            if p.byte_identical { "equal" } else { "DRIFT" },
        );
    }
    out
}

/// Renders the Table-1 rows, the jobs sweep, and the parallel-scaling
/// sweep as a JSON document (hand-rolled: the build is hermetic, no
/// serde).
pub fn render_json(rows: &[TableRow], sweep: &[SweepPoint], scaling: &[ScalingPoint]) -> String {
    let mut out = String::from("{\n  \"table1\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"methods\": {}, \"statements\": {}, \
             \"time_secs\": {:.6}, \"loop_objects\": {}, \"leaking_sites\": {}, \
             \"false_positives\": {}, \"fpr\": {:.4}, \"missed\": {}, \
             \"fallbacks\": {}, \"degraded_reports\": {}, \
             \"effects_rounds\": {}, \"effects_truncated\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \
             \"cache_invalidated\": {}, \"cache_corrupt_recovered\": {}}}",
            json_escape(&row.name),
            row.methods,
            row.statements,
            row.time_secs,
            row.loop_objects,
            row.leaking_sites,
            row.false_positives,
            row.fpr,
            row.missed,
            row.fallbacks,
            row.degraded_reports,
            row.effects_rounds,
            row.effects_truncated,
            row.cache_hits,
            row.cache_misses,
            row.cache_invalidated,
            row.cache_corrupt_recovered
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"jobs_sweep\": [\n");
    for (i, point) in sweep.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"handlers\": {}, \"statements\": {}, \"seq_secs\": {:.6}, \
             \"par_secs\": {:.6}, \"par_jobs\": {}, \"speedup\": {:.3}, \"reports\": {}}}",
            point.handlers,
            point.statements,
            point.seq_secs,
            point.par_secs,
            point.par_jobs,
            point.speedup(),
            point.reports
        );
        out.push_str(if i + 1 < sweep.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"scaling_sweep\": [\n");
    for (i, p) in scaling.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"target_statements\": {}, \"statements\": {}, \"methods\": {}, \
             \"jobs\": {}, \"eff_jobs\": {}, \"secs\": {:.6}, \"flows_secs\": {:.6}, \
             \"effects_secs\": {:.6}, \"refine_secs\": {:.6}, \"other_secs\": {:.6}, \
             \"speedup\": {:.3}, \"efficiency\": {:.3}, \"reports\": {}, \
             \"locals_copied\": {}}}",
            p.target_statements,
            p.statements,
            p.methods,
            p.jobs,
            p.eff_jobs,
            p.secs,
            p.flows_secs,
            p.effects_secs,
            p.refine_secs,
            p.other_secs,
            p.speedup,
            p.efficiency,
            p.reports,
            p.locals_copied
        );
        out.push_str(if i + 1 < scaling.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Aggregate view of a `--trace` JSONL file (one event per demand query).
///
/// The trace schema is owned by `leakchecker::QueryTrace::to_json`; this
/// summarizer is the consumer side the issue asks `table1` to provide, so
/// a campaign's ticket spend and outcome mix can be inspected without
/// re-running the analysis.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total trace events (lines) in the file.
    pub events: u64,
    /// Total ticket spend across all queries.
    pub steps: u64,
    /// Total provenance edges recorded across all queries.
    pub edges: u64,
    /// Event count per analysis phase, sorted by phase name.
    pub phases: std::collections::BTreeMap<String, u64>,
    /// Event count per query outcome, sorted by outcome name.
    pub outcomes: std::collections::BTreeMap<String, u64>,
}

impl TraceSummary {
    /// Renders the summary as the aligned text block `table1
    /// --trace-summary` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace events: {}  ticket spend: {}  witness edges: {}",
            self.events, self.steps, self.edges
        );
        let _ = writeln!(out, "by phase:");
        for (phase, count) in &self.phases {
            let _ = writeln!(out, "  {phase:<24} {count}");
        }
        let _ = writeln!(out, "by outcome:");
        for (outcome, count) in &self.outcomes {
            let _ = writeln!(out, "  {outcome:<24} {count}");
        }
        out
    }
}

/// Reads a JSON string field (`"key": "value"`) out of one trace line,
/// honoring backslash escapes. The build is hermetic (no serde), and the
/// producer emits one flat object per line, so field-level scanning is
/// exact rather than approximate.
fn trace_str_field(line: &str, key: &str) -> Result<String, String> {
    let marker = format!("\"{key}\": \"");
    let start = line
        .find(&marker)
        .ok_or_else(|| format!("trace event is missing field `{key}`: {line}"))?
        + marker.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape in field `{key}`: {line}"))?;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                Some(c) => out.push(c),
                None => return Err(format!("unterminated escape in field `{key}`: {line}")),
            },
            Some(c) => out.push(c),
            None => return Err(format!("unterminated string in field `{key}`: {line}")),
        }
    }
}

/// Reads a JSON number field (`"key": 42`) out of one trace line.
fn trace_num_field(line: &str, key: &str) -> Result<u64, String> {
    let marker = format!("\"{key}\": ");
    let start = line
        .find(&marker)
        .ok_or_else(|| format!("trace event is missing field `{key}`: {line}"))?
        + marker.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .map_err(|_| format!("field `{key}` is not a number: {line}"))
}

/// Counts the strings in the `"edges": [...]` array of one trace line.
fn trace_edge_count(line: &str) -> Result<u64, String> {
    let marker = "\"edges\": [";
    let start = line
        .find(marker)
        .ok_or_else(|| format!("trace event is missing field `edges`: {line}"))?
        + marker.len();
    let mut count = 0u64;
    let mut in_string = false;
    let mut chars = line[start..].chars();
    loop {
        match chars.next() {
            Some('"') if !in_string => {
                in_string = true;
                count += 1;
            }
            Some('"') => in_string = false,
            Some('\\') if in_string => {
                chars.next();
            }
            Some(']') if !in_string => return Ok(count),
            Some(_) => {}
            None => return Err(format!("unterminated edges array: {line}")),
        }
    }
}

/// Summarizes the JSONL text a `leakc check --trace out.jsonl` run wrote.
///
/// # Errors
///
/// Returns a description of the first malformed line — a trace file is
/// machine-written, so any parse failure means the file is torn or not a
/// trace at all, and a partial summary would be misleading.
pub fn summarize_trace(text: &str) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let phase = trace_str_field(line, "phase").map_err(|e| format!("line {}: {e}", idx + 1))?;
        let outcome =
            trace_str_field(line, "outcome").map_err(|e| format!("line {}: {e}", idx + 1))?;
        let steps = trace_num_field(line, "steps").map_err(|e| format!("line {}: {e}", idx + 1))?;
        let edges = trace_edge_count(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        summary.events += 1;
        summary.steps += steps;
        summary.edges += edges;
        *summary.phases.entry(phase).or_insert(0) += 1;
        *summary.outcomes.entry(outcome).or_insert(0) += 1;
    }
    Ok(summary)
}

/// Resolves a subject by name for `--case` style flags.
///
/// # Panics
///
/// Panics with the list of valid names when `name` is unknown.
pub fn subject_or_exit(name: &str) -> Subject {
    by_name(name).unwrap_or_else(|| {
        let names: Vec<&str> = all_subjects().iter().map(|s| s.name).collect();
        panic!("unknown subject `{name}`; expected one of {names:?}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_eight_rows_and_no_missed_leaks() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert_eq!(row.missed, 0, "{} misses leaks", row.name);
            assert!(row.leaking_sites > 0, "{} reports nothing", row.name);
            assert!(row.methods > 0 && row.statements > 0);
            assert_eq!(
                row.fallbacks, 0,
                "{} degraded under default budgets",
                row.name
            );
            assert_eq!(row.degraded_reports, 0, "{}", row.name);
            assert!(row.effects_rounds > 0, "{} ran no effects rounds", row.name);
            assert!(!row.effects_truncated, "{} truncated effects", row.name);
        }
        let text = render_table(&rows);
        assert!(text.contains("average FPR"));
        assert!(text.contains("specjbb"));
    }

    #[test]
    fn log4j_row_has_zero_fpr() {
        let rows = table1_rows();
        let log4j = rows.iter().find(|r| r.name == "log4j").unwrap();
        assert_eq!(log4j.false_positives, 0);
        assert_eq!(log4j.fpr, 0.0);
    }

    #[test]
    fn concurrent_rows_match_sequential() {
        let seq = table1_rows();
        let par = table1_rows_jobs(4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.name, b.name, "registry order preserved");
            assert_eq!(a.leaking_sites, b.leaking_sites);
            assert_eq!(a.false_positives, b.false_positives);
            assert_eq!(a.loop_objects, b.loop_objects);
        }
    }

    #[test]
    fn sweep_and_json_render() {
        let sweep = size_sweep(&[8, 16], 2);
        assert_eq!(sweep.len(), 2);
        assert!(sweep[0].statements < sweep[1].statements);
        for point in &sweep {
            assert!(point.reports > 0, "planted leaks must be found");
            assert!(point.seq_secs > 0.0 && point.par_secs > 0.0);
        }
        let rows = table1_rows();
        let scaling = scaling_sweep(6_000, &[1, 2], 1);
        let json = render_json(&rows, &sweep, &scaling);
        assert!(json.contains("\"table1\""));
        assert!(json.contains("\"jobs_sweep\""));
        assert!(json.contains("\"scaling_sweep\""));
        assert!(json.contains("\"specjbb\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"fallbacks\""));
        assert!(json.contains("\"degraded_reports\""));
        assert!(json.contains("\"flows_secs\""));
        assert!(json.contains("\"effects_secs\""));
        assert!(json.contains("\"effects_rounds\""));
        assert!(json.contains("\"effects_truncated\""));
        assert!(json.contains("\"cache_hits\""));
        assert!(json.contains("\"cache_misses\""));
        assert!(json.contains("\"cache_invalidated\""));
        assert!(json.contains("\"cache_corrupt_recovered\""));
        assert_eq!(json.matches("\"handlers\"").count(), 2);
    }

    #[test]
    fn warm_cold_sweep_replays_across_widths() {
        let dir = std::env::temp_dir().join(format!("lkc-warmcold-{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok();
        let points = warm_cold_sweep(6_000, &[1, 2], &dir);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.warm_hit, "jobs={}: edit invalidated the summary", p.jobs);
            assert!(
                p.byte_identical,
                "jobs={}: warm replay drifted from the cold report",
                p.jobs
            );
            assert!(p.reports > 0, "planted leaks must be found");
            assert!(
                p.warm_secs < p.cold_secs,
                "jobs={}: warm ({:.4}s) not faster than cold ({:.4}s)",
                p.jobs,
                p.warm_secs,
                p.cold_secs
            );
        }
        // Both widths replay the single seed recording: the store was
        // seeded once, so two hits and no misses is the jobs-invariance
        // proof.
        assert_eq!(points[1].cache.hits, 2);
        assert_eq!(points[1].cache.misses, 0);
        assert_eq!(points[1].cache.corrupt_recovered, 0);
        let text = render_warm_cold(&points);
        assert!(text.contains("speedup"));
        assert!(!text.contains("MISS") && !text.contains("DRIFT"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_matrix_recovers_every_fault_as_a_miss_or_identical_replay() {
        let base = std::env::temp_dir().join(format!("lkc-chaosrec-{}", std::process::id()));
        // Record 0 is the header, record 1 the result (R) record, and
        // records 2.. the per-method (M) records — so this matrix hits
        // the result payload, the method region, and the whole tail.
        let matrix = [
            ("flip@1:40", false, true),            // checksum catches bit rot in R
            ("torn-cache@2", true, true),          // R survives, torn M tail healed
            ("trunc@1", false, false),             // lost tail: clean file, pure miss
            ("flip@2:9,torn-cache@3", true, true), // compound damage in M region
        ];
        for (i, &(spec, expect_hit, expect_quarantine)) in matrix.iter().enumerate() {
            let dir = base.join(i.to_string());
            std::fs::create_dir_all(&dir).ok();
            let outcome = chaos_recovery_check(3_000, spec, &dir).unwrap();
            assert!(!outcome.applied.is_empty(), "{spec}: no fault landed");
            assert!(
                outcome.byte_identical,
                "{spec}: warm path drifted from the cache-disabled report"
            );
            assert_eq!(outcome.warm_hit, expect_hit, "{spec}: {outcome:?}");
            assert_eq!(
                outcome.cache.corrupt_recovered > 0,
                expect_quarantine,
                "{spec}: {outcome:?}"
            );
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn bumped_constant_changes_exactly_one_literal() {
        let generated = generate_large(LargeConfig {
            target_statements: 3_000,
            ..LargeConfig::default()
        });
        let edited = bump_one_constant(&generated.source);
        assert_ne!(generated.source, edited);
        assert_eq!(generated.source.lines().count(), edited.lines().count());
        let diff: Vec<(&str, &str)> = generated
            .source
            .lines()
            .zip(edited.lines())
            .filter(|(a, b)| a != b)
            .collect();
        assert_eq!(diff.len(), 1, "exactly one line edited: {diff:?}");
        assert!(diff[0].0.contains("int acc = x * "), "{:?}", diff[0]);
    }

    #[test]
    fn scaling_sweep_is_deterministic_and_baselined() {
        let points = scaling_sweep(6_000, &[1, 2], 1);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].jobs, 1);
        assert!(
            (points[0].speedup - 1.0).abs() < 1e-9,
            "jobs=1 is its own baseline"
        );
        for p in &points {
            assert_eq!(
                p.reports, points[0].reports,
                "reports identical across widths"
            );
            assert!(p.statements >= 4_500, "realized size near target");
            assert!(p.secs > 0.0);
            assert!(p.flows_secs >= 0.0 && p.refine_secs >= 0.0 && p.other_secs >= 0.0);
            assert!(p.effects_secs >= 0.0);
            // The phases come from the run whose total is reported.
            for phase in [p.flows_secs, p.effects_secs, p.refine_secs, p.other_secs] {
                assert!(phase <= p.secs, "phase {phase}s exceeds total {}s", p.secs);
            }
            assert_eq!(p.locals_copied, points[0].locals_copied);
        }
        let text = render_scaling(&points);
        assert!(text.contains("speedup"));
        assert!(text.lines().count() >= 3);
    }

    #[test]
    fn trace_summary_consumes_real_detector_traces() {
        let subject = &all_subjects()[0];
        let config = DetectorConfig {
            witnesses: true,
            ..subject.detector_config()
        };
        let (result, _) = run_subject_with(subject, config);
        assert!(
            !result.traces.is_empty(),
            "witness-enabled run must record trace events"
        );
        let jsonl: String = result
            .traces
            .iter()
            .map(|t| {
                let mut line = t.to_json();
                line.push('\n');
                line
            })
            .collect();
        let summary = summarize_trace(&jsonl).unwrap();
        assert_eq!(summary.events, result.traces.len() as u64);
        assert_eq!(
            summary.steps,
            result.traces.iter().map(|t| t.steps).sum::<u64>()
        );
        assert_eq!(
            summary.edges,
            result
                .traces
                .iter()
                .map(|t| t.edges.len() as u64)
                .sum::<u64>()
        );
        assert_eq!(
            summary.phases.values().sum::<u64>(),
            summary.events,
            "every event lands in exactly one phase bucket"
        );
        assert_eq!(summary.outcomes.values().sum::<u64>(), summary.events);
        let text = summary.render();
        assert!(text.contains("trace events:"));
        assert!(text.contains("by phase:"));
        assert!(text.contains("by outcome:"));
    }

    #[test]
    fn trace_summary_rejects_torn_lines() {
        let good = "{\"phase\": \"flows\", \"site\": \"s\", \"query\": \"q\", \
                    \"budget\": 10, \"steps\": 3, \"outcome\": \"proved\", \
                    \"edges\": [\"a --assign--> b\", \"b --store f--> c\"]}\n";
        let summary = summarize_trace(good).unwrap();
        assert_eq!(summary.events, 1);
        assert_eq!(summary.steps, 3);
        assert_eq!(summary.edges, 2);
        assert_eq!(summary.phases.get("flows"), Some(&1));
        assert_eq!(summary.outcomes.get("proved"), Some(&1));

        // A quoted `]` inside an edge label must not terminate the array.
        let tricky = "{\"phase\": \"p\", \"site\": \"s\", \"query\": \"q\", \
                      \"budget\": 1, \"steps\": 1, \"outcome\": \"o\", \
                      \"edges\": [\"a[0] --assign--> b\"]}\n";
        assert_eq!(summarize_trace(tricky).unwrap().edges, 1);

        let torn = &good[..good.len() / 2];
        let err = summarize_trace(torn).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");

        assert!(summarize_trace("not json\n").is_err());
        assert_eq!(summarize_trace("\n\n").unwrap(), TraceSummary::default());
    }
}
