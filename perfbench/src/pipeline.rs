//! One verdict — source text to rendered report — untraced and traced.
//!
//! The traced form times the frontend and `check` as the user runs them,
//! then replays `check`'s pipeline from outside through the public layer
//! functions, so each layer gets its own span. `detect.rest_us`
//! (candidate selection, pivot and report building, which have no public
//! entry point) is `check` minus the replayed sub-calls of the same
//! sample. The replay must reproduce `check`'s own candidate and
//! refutation counts, or the split would describe a different run, and
//! its layers must account for `check`'s time (see [`gate_check_split`]).

use crate::trace::{reconcile, Recorder};
use leakchecker::contexts::enumerate_jobs;
use leakchecker::flows::build as build_flows;
use leakchecker::refine::refine_candidates;
use leakchecker::target::{resolve, ResolvedTarget};
use leakchecker::{
    check, render_all, AnalysisResult, CheckTarget, DetectorConfig, FlowConfig, Governor,
};
use leakchecker_callgraph::CallGraph;
use leakchecker_effects::{analyze_from, EffectConfig, Era};
use leakchecker_frontend::{lexer, parser, resolve as lower, CompiledUnit};
use leakchecker_ir::ids::AllocSite;
use leakchecker_ir::Program;
use leakchecker_pointsto::Pag;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// The spans `check` is split into by the replay, in pipeline order.
pub const CHECK_LAYERS: [&str; 7] = [
    "target.resolve_us",
    "callgraph.build_us",
    "effects.analyze_us",
    "flows.build_us",
    "contexts.enumerate_us",
    "pointsto.pag_build_us",
    "refine.us",
];

/// One program as the benchmark feeds it to the system.
#[derive(Clone, Debug)]
pub struct Input {
    /// Display name (subject name or generator seed).
    pub name: String,
    /// Source text.
    pub source: String,
    /// Check the first `@region` method instead of the first `@check` loop.
    pub region: bool,
    /// Detector configuration; `jobs` is set per call.
    pub config: DetectorConfig,
}

/// One finished verdict.
pub struct Verdict {
    /// The detector's result.
    pub result: AnalysisResult,
    /// `render_all` of the reports.
    pub rendered: String,
    /// Source text to rendered report, in milliseconds.
    pub ms: f64,
    /// The `check` call alone, in milliseconds.
    pub check_ms: f64,
}

fn target_of(unit: &CompiledUnit, region: bool) -> Result<CheckTarget, String> {
    let target = if region {
        unit.region_methods.first().map(|&m| CheckTarget::Region(m))
    } else {
        unit.checked_loops.first().map(|&l| CheckTarget::Loop(l))
    };
    target.ok_or_else(|| "program has no analysis target".to_string())
}

/// Compiles, checks at `jobs` and renders one program.
///
/// # Errors
///
/// Compile or target errors, as text.
pub fn verdict(input: &Input, jobs: usize) -> Result<Verdict, String> {
    let config = DetectorConfig {
        jobs,
        ..input.config
    };
    let start = Instant::now();
    let unit = leakchecker_frontend::compile(&input.source).map_err(|e| e.to_string())?;
    let target = target_of(&unit, input.region)?;
    let check_start = Instant::now();
    let result = check(&unit.program, target, config).map_err(|e| e.to_string())?;
    let check_ms = check_start.elapsed().as_secs_f64() * 1e3;
    let rendered = render_all(&result.program, &result.reports);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    Ok(Verdict {
        result: std::hint::black_box(result),
        rendered,
        ms,
        check_ms,
    })
}

/// What a traced verdict leaves behind: the check time and the gate's
/// judgment of the result, which is dropped before the replay so that
/// the replay runs in the same memory state `check` started from.
pub struct TracedVerdict<R> {
    /// The `check` call alone, in milliseconds.
    pub check_ms: f64,
    /// What the caller's inspection of the result returned.
    pub judged: R,
}

/// Parses and lowers with one span each. Lexing is split out by an
/// extra `tokenize` call first, outside any total, since `parse`
/// rebuilds the token stream itself.
///
/// # Errors
///
/// Compile errors, as text.
pub fn traced_frontend(rec: &mut Recorder, source: &str) -> Result<CompiledUnit, String> {
    let tokens = rec
        .span("frontend.lex_us", "frontend", || lexer::tokenize(source))
        .map_err(|e| e.to_string())?;
    rec.count("frontend.tokens", tokens.len() as f64);
    let ast = rec
        .span("frontend.parse_lex_us", "verdict", || parser::parse(source))
        .map_err(|e| e.to_string())?;
    let unit = rec
        .span("frontend.lower_us", "verdict", || lower::lower(&ast))
        .map_err(|e| e.to_string())?;
    let lex = rec.current("frontend.lex_us");
    let parse_lex = rec.current("frontend.parse_lex_us");
    rec.derived("frontend.parse_us", "verdict", parse_lex - lex);
    Ok(unit)
}

/// Checks and renders with one span each, hands the result to
/// `inspect`, drops it, and replays the pipeline from outside.
/// Returns what `inspect` returned, the check time and the check plus
/// render time, in milliseconds.
///
/// Odd samples replay before checking and even ones after, so that any
/// advantage of running second (warm caches, a freshly freed heap)
/// cancels out of the summed split instead of biasing the residual.
///
/// # Errors
///
/// Target errors, or a replay that disagrees with `check`.
pub fn traced_check<R>(
    rec: &mut Recorder,
    unit: &CompiledUnit,
    region: bool,
    config: DetectorConfig,
    inspect: impl FnOnce(&AnalysisResult) -> R,
) -> Result<(R, f64, f64), String> {
    let target = target_of(unit, region)?;
    let early = if rec.sample() % 2 == 1 {
        Some(replay(rec, &unit.program, target, config)?)
    } else {
        None
    };
    let check_start = Instant::now();
    let result = rec
        .span("check_us", "verdict", || {
            check(&unit.program, target, config)
        })
        .map_err(|e| e.to_string())?;
    let check_ms = check_start.elapsed().as_secs_f64() * 1e3;
    let rendered = rec.span("report.render_us", "verdict", || {
        render_all(&result.program, &result.reports)
    });
    let checked_ms = check_start.elapsed().as_secs_f64() * 1e3;
    rec.count("report.bytes", rendered.len() as f64);
    let inspected = inspect(&result);
    let expected = (
        result.stats.candidate_sites,
        result.stats.refuted_candidates,
    );
    drop(result);
    let replayed = match early {
        Some(counts) => counts,
        None => replay(rec, &unit.program, target, config)?,
    };
    if replayed != expected {
        return Err(format!(
            "replay found {} candidates / {} refuted, check found {} / {}",
            replayed.0, replayed.1, expected.0, expected.1
        ));
    }
    let sub: f64 = CHECK_LAYERS
        .iter()
        .map(|l| rec.current_under(l, Some("check_us")))
        .sum();
    let whole = rec.current("check_us");
    rec.derived("detect.rest_us", "check_us", whole - sub);
    Ok((inspected, check_ms, checked_ms))
}

/// [`verdict`] with a span around every layer call, recorded into the
/// current sample of `rec`; `judge` inspects the result before the
/// outside replay of `check`.
///
/// # Errors
///
/// Compile or target errors, or a replay that disagrees with `check`.
pub fn traced_verdict<R>(
    rec: &mut Recorder,
    input: &Input,
    jobs: usize,
    judge: impl FnOnce(&AnalysisResult) -> R,
) -> Result<TracedVerdict<R>, String> {
    let config = DetectorConfig {
        jobs,
        ..input.config
    };
    let unit = traced_frontend(rec, &input.source)?;
    let frontend_us = rec.current("frontend.parse_lex_us") + rec.current("frontend.lower_us");
    // The replay is outside the total: the verdict is the frontend plus
    // the check and render.
    let (judged, check_ms, checked_ms) = traced_check(rec, &unit, input.region, config, judge)?;
    rec.derived("trace.total_us", "verdict", frontend_us + checked_ms * 1e3);
    Ok(TracedVerdict { check_ms, judged })
}

/// Replays `check`'s pipeline through the public layer functions with
/// the same configuration, one span per call, and records its wall time
/// as `replay_us` (the work counters and the drops of its intermediate
/// results are outside it). Returns the candidate and refuted counts
/// the replay reached.
fn replay(
    rec: &mut Recorder,
    program: &Program,
    target: CheckTarget,
    config: DetectorConfig,
) -> Result<(usize, usize), String> {
    let start = Instant::now();
    let ResolvedTarget {
        program,
        designated,
        root,
    } = rec
        .span("target.resolve_us", "check_us", || resolve(program, target))
        .map_err(|e| e.to_string())?;
    let callgraph = rec.span("callgraph.build_us", "check_us", || {
        CallGraph::build_from(&program, &[root], config.callgraph)
    });
    // `check` pins the effects phase to one job under witnesses or
    // injected faults.
    let effect_config = EffectConfig {
        model_threads: config.model_threads,
        jobs: if config.witnesses || config.governor.faults.is_active() {
            1
        } else {
            config.jobs
        },
        ..config.effects
    };
    let summary = rec.span("effects.analyze_us", "check_us", || {
        analyze_from(&program, &callgraph, root, designated, effect_config)
    });
    let flow_config = FlowConfig {
        library_modeling: config.library_modeling,
        model_threads: config.model_threads,
    };
    let flows = rec.span("flows.build_us", "check_us", || {
        build_flows(&program, &summary, flow_config, config.jobs)
    });
    let contexts = rec.span("contexts.enumerate_us", "check_us", || {
        enumerate_jobs(
            &program,
            &callgraph,
            designated,
            config.contexts,
            config.jobs,
        )
    });

    let candidates: BTreeSet<AllocSite> = summary
        .inside_sites
        .iter()
        .copied()
        .filter(|&site| {
            flows.escapes(site)
                && (summary.era(site) == Era::Top || flows.unmatched_edges(site).next().is_some())
        })
        .collect();
    let pag = rec.span("pointsto.pag_build_us", "check_us", || {
        Pag::build(&program, &callgraph)
    });
    let governor = Governor::new(config.governor);
    let refinement = rec.span("refine.us", "check_us", || {
        refine_candidates(
            &program,
            &summary,
            &flows,
            &pag,
            &candidates,
            &governor,
            config.jobs,
            config.witnesses,
        )
    });
    rec.derived("replay_us", "verdict", start.elapsed().as_secs_f64() * 1e6);
    let kept = refinement.kept().len();
    rec.count("callgraph.methods", callgraph.reachable_count() as f64);
    rec.count("effects.rounds", summary.rounds as f64);
    rec.count("effects.regions", summary.regions as f64);
    rec.count(
        "flows.edges",
        flows.flows_out.values().map(BTreeSet::len).sum::<usize>() as f64,
    );
    rec.count("contexts.pairs", contexts.pair_count() as f64);
    rec.count("refine.candidates", candidates.len() as f64);
    rec.count("refine.refuted", (candidates.len() - kept) as f64);
    rec.count("refine.batches", refinement.query_batches as f64);
    rec.count("refine.fallbacks", governor.stats().fallbacks as f64);
    Ok((candidates.len(), candidates.len() - kept))
}

/// Largest share of `check`'s time the replayed layers may leave
/// unexplained. What is left is `detect.rest_us` — candidate selection,
/// pivot and report building — which reads 0–3% of `check` on every
/// workload; a replay that leaves out a layer call leaves its time here
/// instead.
pub const REST_MAX: f64 = 0.15;

/// How many standard errors the share of `check` left outside the
/// replayed layers must lie past a bound before the gate fails.
pub const GATE_SIGMAS: f64 = 2.0;

/// The share of `check`'s time outside the replayed layers, summed over
/// every traced sample (`Σ detect.rest_us / Σ check_us`), with its
/// standard error as a ratio estimate and the sample count.
///
/// `check` and its replay are two executions of the same analysis, and
/// on a shared machine two executions of the 100k-statement analysis
/// differ by up to ±15%. With the three samples a 30-second traced
/// `large-check` run holds, that noise alone moves the share by ±6%; the
/// standard error says how far it can be trusted.
pub fn rest_share(rec: &Recorder) -> (f64, f64, usize) {
    let checks = rec.by_sample_under("check_us", None);
    let mut layers: BTreeMap<u64, f64> = BTreeMap::new();
    for layer in CHECK_LAYERS {
        for (sample, us) in rec.by_sample_under(layer, Some("check_us")) {
            *layers.entry(sample).or_default() += us;
        }
    }
    let pairs: Vec<(f64, f64)> = checks
        .iter()
        .map(|(sample, &c)| (c - layers.get(sample).copied().unwrap_or(0.0), c))
        .collect();
    let n = pairs.len();
    let checked: f64 = pairs.iter().map(|p| p.1).sum();
    if n == 0 || checked <= 0.0 {
        return (0.0, 0.0, n);
    }
    let share = pairs.iter().map(|p| p.0).sum::<f64>() / checked;
    let se = if n < 2 {
        0.0
    } else {
        let residuals: f64 = pairs.iter().map(|&(r, c)| (r - share * c).powi(2)).sum();
        (residuals / (n * (n - 1)) as f64).sqrt() / (checked / n as f64)
    };
    (share, se, n)
}

/// Checks that the split of `check` describes the `check` it claims to
/// explain, summed over every sample:
///
/// * the replayed layer spans cover the replay's own wall time within
///   `tolerance`, so nothing the replay does goes untimed;
/// * the replayed layers took no longer than `check` itself: the share
///   of `check` outside them ([`rest_share`]) is not below `-tolerance`
///   by more than [`GATE_SIGMAS`] standard errors;
/// * they leave at most [`REST_MAX`] of `check` unexplained, by the same
///   margin.
///
/// # Errors
///
/// Describes the first check that fails.
pub fn gate_check_split(rec: &Recorder, tolerance: f64) -> Result<(), String> {
    let parts: Vec<(&str, f64)> = CHECK_LAYERS
        .iter()
        .map(|&l| (l, rec.total_under(l, Some("check_us"))))
        .collect();
    reconcile(&parts, rec.total("replay_us"), tolerance)
        .map_err(|e| format!("replay against its own wall time: {e}"))?;
    let (share, se, n) = rest_share(rec);
    if n == 0 {
        return Err("no check was traced".to_string());
    }
    let margin = GATE_SIGMAS * se;
    if share + margin < -tolerance {
        return Err(format!(
            "the replayed layers took {:.1}% (±{:.1}%) longer than check over {n} samples",
            -share * 100.0,
            se * 100.0
        ));
    }
    if share - margin > REST_MAX {
        return Err(format!(
            "check spent {:.1}% (±{:.1}%) of its time outside the replayed layers over {n} samples",
            share * 100.0,
            se * 100.0
        ));
    }
    Ok(())
}

/// [`gate_check_split`], then the spans of the verdict — frontend,
/// `check`, render — against the summed `trace.total_us` of the
/// verdicts, within `tolerance`: nothing between the timed calls goes
/// untimed.
///
/// # Errors
///
/// Describes the first check that fails.
pub fn gate_verdict_split(rec: &Recorder, tolerance: f64) -> Result<(), String> {
    gate_check_split(rec, tolerance)?;
    let parts: Vec<(&str, f64)> = [
        "frontend.lex_us",
        "frontend.parse_us",
        "frontend.lower_us",
        "check_us",
        "report.render_us",
    ]
    .iter()
    .map(|&l| (l, rec.total(l)))
    .collect();
    reconcile(&parts, rec.total("trace.total_us"), tolerance)
        .map_err(|e| format!("verdict split against the traced total: {e}"))
}

/// A one-line account of the split of `check`: the share left outside
/// the replayed layers and the replayed layers' share of the replay.
pub fn check_split_note(rec: &Recorder) -> String {
    let layers: f64 = CHECK_LAYERS
        .iter()
        .map(|l| rec.total_under(l, Some("check_us")))
        .sum();
    let (share, se, n) = rest_share(rec);
    format!(
        "check split: {:.1}% (±{:.1}%) of check is outside the replayed layers, which cover {:.1}% of the replay, over {n} samples",
        share * 100.0,
        se * 100.0,
        100.0 * layers / rec.total("replay_us"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakchecker_benchsuite::all_subjects;
    use leakchecker_benchsuite::jdk::with_jdk;

    /// Effects, flows and the rest of `check`'s layers in
    /// [`CHECK_LAYERS`] order, in microseconds: 98 of a 100 us check.
    const LAYERS: [f64; 7] = [10.0, 10.0, 60.0, 3.0, 5.0, 6.0, 4.0];

    /// A recording of four verdicts, each a frontend of 30 us, a check
    /// of `check_us` split as `layers` by a replay that also spends
    /// `untimed` us outside its spans, a render of 5 us, and a traced
    /// total of `total_us`.
    fn recording(layers: &[f64; 7], check_us: f64, untimed: f64, total_us: f64) -> Recorder {
        let mut rec = Recorder::default();
        for _ in 0..4 {
            rec.next_sample();
            rec.derived("frontend.lex_us", "frontend", 5.0);
            rec.derived("frontend.parse_us", "verdict", 10.0);
            rec.derived("frontend.lower_us", "verdict", 15.0);
            rec.derived("check_us", "verdict", check_us);
            for (&layer, &us) in CHECK_LAYERS.iter().zip(layers) {
                rec.derived(layer, "check_us", us);
            }
            rec.derived("replay_us", "verdict", layers.iter().sum::<f64>() + untimed);
            rec.derived("report.render_us", "verdict", 5.0);
            rec.derived("trace.total_us", "verdict", total_us);
        }
        rec
    }

    #[test]
    fn split_gate_rejects_a_replay_that_does_not_explain_check() {
        assert!(gate_verdict_split(&recording(&LAYERS, 100.0, 1.0, 135.0), 0.05).is_ok());
        // A replay that leaves out the effects call: its share of check
        // is left outside the layers.
        let mut without = LAYERS;
        without[2] = 0.0;
        let err = gate_check_split(&recording(&without, 100.0, 1.0, 135.0), 0.05).unwrap_err();
        assert!(err.contains("outside the replayed layers"), "{err}");
        // Replayed layers 10% slower than check: another execution.
        let err = gate_check_split(&recording(&LAYERS, 89.0, 1.0, 124.0), 0.05).unwrap_err();
        assert!(err.contains("longer than check"), "{err}");
        // A replay doing a tenth of its work outside its spans.
        assert!(gate_check_split(&recording(&LAYERS, 100.0, 10.0, 135.0), 0.05).is_err());
        // A traced total the verdict split does not add up to.
        let err = gate_verdict_split(&recording(&LAYERS, 100.0, 1.0, 160.0), 0.05).unwrap_err();
        assert!(err.contains("traced total"), "{err}");
    }

    /// Three checks of the given lengths, each replayed as 100 us of
    /// layers.
    fn three_checks(checks: [f64; 3]) -> Recorder {
        let mut rec = Recorder::default();
        for check_us in checks {
            rec.next_sample();
            rec.derived("check_us", "verdict", check_us);
            rec.derived("effects.analyze_us", "check_us", 100.0);
            rec.derived("replay_us", "verdict", 100.0);
        }
        rec
    }

    #[test]
    fn split_gate_allows_for_noise_but_not_for_a_steady_gap() {
        // Replays 14%, 7% slower and 1% faster than check: 7% on the
        // sum, but within two standard errors of no gap.
        let (share, se, n) = rest_share(&three_checks([86.0, 93.0, 101.0]));
        assert_eq!(n, 3);
        assert!(share < -0.05 && se > 0.03, "{share} {se}");
        assert!(gate_check_split(&three_checks([86.0, 93.0, 101.0]), 0.05).is_ok());
        // Replays 9–11% slower every time.
        let err = gate_check_split(&three_checks([89.0, 90.0, 91.0]), 0.05).unwrap_err();
        assert!(err.contains("longer than check"), "{err}");
    }

    #[test]
    fn split_gate_rejects_a_real_replay_without_effects() {
        let subject = all_subjects()
            .into_iter()
            .find(|s| s.name == "findbugs")
            .unwrap();
        let input = Input {
            name: subject.name.to_string(),
            source: with_jdk(subject.source),
            region: subject.uses_region,
            config: subject.detector_config(),
        };
        let mut rec = Recorder::default();
        for _ in 0..8 {
            rec.next_sample();
            traced_verdict(&mut rec, &input, 1, |_| ()).unwrap();
        }
        // The same recording as if the replay had never called the
        // effects analysis: its spans and its share of the replay's wall
        // time are gone.
        let mut without = Recorder::default();
        for span in &rec.spans {
            let mut span = span.clone();
            if span.layer == "effects.analyze_us" {
                continue;
            }
            if span.layer == "replay_us" {
                span.dur_us -= rec
                    .spans
                    .iter()
                    .filter(|s| s.sample == span.sample && s.layer == "effects.analyze_us")
                    .map(|s| s.dur_us)
                    .sum::<f64>();
            }
            without.spans.push(span);
        }
        let err = gate_check_split(&without, 0.05).unwrap_err();
        assert!(err.contains("outside the replayed layers"), "{err}");
    }
}
