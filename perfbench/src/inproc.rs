//! The in-process workloads: `large-check` and `corpus-small`.
//!
//! Both are closed loops over programs checked one after another in
//! this process. The width-1 and width-[`WIDTH`] measurements alternate
//! so that drift in the machine's speed lands on both alike.

use crate::gate::{judge, Expect, TABLE1};
use crate::pipeline::{check_split_note, gate_verdict_split, traced_verdict, verdict, Input};
use crate::trace::Recorder;
use crate::{
    end_to_end, per_layer, stats, write_trace, Args, Outcome, Setup, SETUP_REPEATS,
    SLOW_SETUP_REPEATS, WIDTH,
};
use leakchecker::DetectorConfig;
use leakchecker_benchsuite::jdk::with_jdk;
use leakchecker_benchsuite::{
    all_subjects, generate_fuzz, generate_large, LargeConfig, SplitMix64,
};
use leakchecker_fuzz::oracle::DEFAULT_ITERATIONS_PER_HANDLER;
use leakchecker_interp::{run as interp_run, site_facts, Config as InterpConfig, NonDetPolicy};
use leakchecker_ir::ids::AllocSite;
use std::collections::BTreeSet;
use std::time::Instant;

/// Fuzz programs drawn per seed for `corpus-small`.
pub const FUZZ_PROGRAMS: usize = 130;

/// The draw is stratified by handler count (2–6) and padding (0–1
/// methods), the generator's two size knobs, with the same number of
/// programs in each of the ten strata: every seed then checks the same
/// mix of program sizes, and only the handler kinds and constants vary.
const STRATA: [(usize, bool); 10] = [
    (2, false),
    (2, true),
    (3, false),
    (3, true),
    (4, false),
    (4, true),
    (5, false),
    (5, true),
    (6, false),
    (6, true),
];

/// The programs of one workload with their references.
pub type Corpus = Vec<(Input, Expect)>;

/// `large-check`'s input: the ~100k-statement generated subject. Seed 0
/// is the subject behind `BENCH_table1.json`'s scaling sweep. The
/// reference is the set of `@leak`-labelled sites of a compile of the
/// source made here, apart from any verdict.
///
/// # Errors
///
/// A subject that does not compile, or whose labels disagree with the
/// generator's count of planted leaks.
pub fn large_inputs(seed: u64) -> Result<Corpus, String> {
    let config = LargeConfig::default();
    let generated = generate_large(LargeConfig {
        seed: config.seed.wrapping_add(seed),
        ..config
    });
    let unit = leakchecker_frontend::compile(&generated.source).map_err(|e| e.to_string())?;
    let leaks: BTreeSet<AllocSite> = unit
        .program
        .allocs()
        .iter()
        .enumerate()
        .filter(|(_, alloc)| alloc.label.is_leak())
        .map(|(i, _)| AllocSite::from_index(i))
        .collect();
    if leaks.len() != generated.planted_leaks() {
        return Err(format!(
            "{} @leak labels for {} planted leaks",
            leaks.len(),
            generated.planted_leaks()
        ));
    }
    Ok(vec![(
        Input {
            name: format!("large-{seed}"),
            source: generated.source,
            region: false,
            config: DetectorConfig::default(),
        },
        Expect::Planted { leaks },
    )])
}

/// The interpreter's must-leak set for a fuzz program, computed the way
/// the fuzz oracle computes it.
fn must_leak(source: &str, handlers: usize) -> Result<Expect, String> {
    let unit = leakchecker_frontend::compile(source).map_err(|e| e.to_string())?;
    let target = *unit.checked_loops.first().ok_or("no @check loop")?;
    let exec = interp_run(
        &unit.program,
        InterpConfig {
            tracked_loop: Some(target),
            nondet: NonDetPolicy::Always(true),
            max_tracked_iterations: Some(handlers.max(1) as u64 * DEFAULT_ITERATIONS_PER_HANDLER),
            ..InterpConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    Ok(Expect::MustLeak(
        site_facts(&exec.heap, &exec.effects)
            .values()
            .filter(|f| f.must_leak())
            .map(|f| f.site)
            .collect(),
    ))
}

/// `corpus-small`'s inputs: the eight Table-1 subjects, then
/// [`FUZZ_PROGRAMS`] fuzz programs whose generator seeds are drawn from
/// `seed`, stratified by size (see [`STRATA`]).
///
/// # Errors
///
/// A generated program the interpreter cannot run.
pub fn corpus_inputs(seed: u64) -> Result<Corpus, String> {
    let mut corpus: Corpus = all_subjects()
        .into_iter()
        .zip(TABLE1)
        .map(|(subject, (name, ls, fp))| {
            debug_assert_eq!(subject.name, name);
            (
                Input {
                    name: subject.name.to_string(),
                    source: with_jdk(subject.source),
                    region: subject.uses_region,
                    config: subject.detector_config(),
                },
                Expect::Table1 { ls, fp },
            )
        })
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0x5EED_C0A5);
    let mut left = [FUZZ_PROGRAMS / STRATA.len(); STRATA.len()];
    while left.iter().any(|&n| n > 0) {
        let fuzz_seed = rng.next_u64();
        let generated = generate_fuzz(fuzz_seed);
        let stratum = (generated.kinds.len(), generated.source.contains(" pad0("));
        let Some(slot) = STRATA.iter().position(|&s| s == stratum) else {
            return Err(format!("fuzz seed {fuzz_seed} falls outside the strata"));
        };
        if left[slot] == 0 {
            continue;
        }
        left[slot] -= 1;
        let expect = must_leak(&generated.source, generated.kinds.len())
            .map_err(|e| format!("fuzz seed {fuzz_seed}: {e}"))?;
        corpus.push((
            Input {
                name: format!("fuzz-{fuzz_seed}"),
                source: generated.source,
                region: false,
                config: DetectorConfig::default(),
            },
            expect,
        ));
    }
    Ok(corpus)
}

/// `large-check`.
pub fn large_check(args: &Args) -> Outcome {
    run(args, || large_inputs(args.seed), 1, SLOW_SETUP_REPEATS)
}

/// `corpus-small`.
pub fn corpus_small(args: &Args) -> Outcome {
    run(args, || corpus_inputs(args.seed), WIDTH, SETUP_REPEATS)
}

/// Runs either in-process workload. `primary` is the width the traced
/// run splits (the width the workload is served at); `repeats` is how
/// many times an end-to-end run times the set-up.
fn run(
    args: &Args,
    make: impl FnMut() -> Result<Corpus, String>,
    primary: usize,
    repeats: usize,
) -> Outcome {
    let mut outcome = Outcome::default();
    let (corpus, setup) = match Setup::first(make, args.seconds, repeats) {
        Ok(made) => made,
        Err(e) => {
            outcome.fatal(format!("set-up failed: {e}"));
            return outcome;
        }
    };
    if args.trace {
        traced(args, &corpus, primary, &mut outcome);
    } else {
        untraced(args, &corpus, setup, &mut outcome);
    }
    outcome
}

/// The end-to-end run: passes over the corpus alternate between width 1
/// and width [`WIDTH`] until the time is up (always at least one each),
/// with the set-up repeats in between.
fn untraced<F>(args: &Args, corpus: &Corpus, mut setup: Setup<F>, outcome: &mut Outcome)
where
    F: FnMut() -> Result<Corpus, String>,
{
    let (mut one, mut par) = (Vec::new(), Vec::new());
    // Reports must be byte-identical at every width: the first width-1
    // rendering of each program is the reference for the rest.
    let mut first: Vec<Option<String>> = vec![None; corpus.len()];
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    loop {
        for (width, times) in [(1, &mut one), (WIDTH, &mut par)] {
            for (i, (input, expect)) in corpus.iter().enumerate() {
                match verdict(input, width) {
                    Ok(v) => {
                        times.push(v.ms);
                        let same = match &first[i] {
                            Some(reference) if *reference != v.rendered => Err(format!(
                                "{}: report at jobs={width} differs from jobs=1",
                                input.name
                            )),
                            _ => Ok(()),
                        };
                        outcome.judge(
                            judge(expect, &v.result)
                                .map_err(|e| format!("{}: {e}", input.name))
                                .and(same),
                        );
                        first[i].get_or_insert(v.rendered);
                    }
                    Err(e) => outcome.judge(Err(format!("{}: {e}", input.name))),
                }
            }
        }
        if let Err(e) = setup.between_passes() {
            outcome.fatal(format!("set-up repeat failed: {e}"));
            return;
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let setups = match setup.finish() {
        Ok(times) => times,
        Err(e) => {
            outcome.fatal(format!("set-up repeat failed: {e}"));
            return;
        }
    };
    let par_secs = par.iter().sum::<f64>() / 1e3;
    outcome.metrics = end_to_end(&one, &par, par_secs, &setups);
    outcome.setups = setups;
    if one.len() <= 16 {
        let list = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        outcome
            .notes
            .push(format!("width 1 verdicts (ms, in order): {}", list(&one)));
        outcome.notes.push(format!(
            "width {WIDTH} verdicts (ms, in order): {}",
            list(&par)
        ));
    }
}

/// An untraced verdict at `width`, judged, with its time in
/// microseconds appended to `times`.
fn plain_sample(
    input: &Input,
    expect: &Expect,
    width: usize,
    times: &mut Vec<f64>,
    outcome: &mut Outcome,
) {
    match verdict(input, width) {
        Ok(v) => {
            times.push(v.ms * 1e3);
            outcome.judge(judge(expect, &v.result).map_err(|e| format!("{}: {e}", input.name)));
        }
        Err(e) => outcome.judge(Err(format!("{}: {e}", input.name))),
    }
}

/// The traced run. Each sample is one program: the traced verdict at the
/// primary width with its outside replay, an untraced verdict at the
/// same width (the baseline for `trace.overhead_us`), and a check at
/// the other width (for `parallel.overhead_us`). The untraced verdict
/// runs before the traced one on even samples and after it on odd ones,
/// so running first or second does not pass for tracing overhead.
fn traced(args: &Args, corpus: &Corpus, primary: usize, outcome: &mut Outcome) {
    let other = if primary == 1 { WIDTH } else { 1 };
    let mut rec = Recorder::default();
    let mut untraced_us = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    'passes: loop {
        for (input, expect) in corpus {
            let untraced_first = rec.next_sample() % 2 == 0;
            if untraced_first {
                plain_sample(input, expect, primary, &mut untraced_us, outcome);
            }
            let traced_check_ms =
                match traced_verdict(&mut rec, input, primary, |r| judge(expect, r)) {
                    Ok(v) => {
                        outcome.judge(v.judged.map_err(|e| format!("{}: {e}", input.name)));
                        v.check_ms
                    }
                    Err(e) => {
                        outcome.fatal(format!("{}: {e}", input.name));
                        break 'passes;
                    }
                };
            if !untraced_first {
                plain_sample(input, expect, primary, &mut untraced_us, outcome);
            }
            match verdict(input, other) {
                Ok(v) => {
                    let (at_width, at_one) = if primary == 1 {
                        (v.check_ms, traced_check_ms)
                    } else {
                        (traced_check_ms, v.check_ms)
                    };
                    rec.derived("parallel.overhead_us", "verdict", (at_width - at_one) * 1e3);
                    outcome.judge(
                        judge(expect, &v.result).map_err(|e| format!("{}: {e}", input.name)),
                    );
                }
                Err(e) => outcome.judge(Err(format!("{}: {e}", input.name))),
            }
            if Instant::now() >= deadline {
                break 'passes;
            }
        }
    }
    if let Err(e) = gate_verdict_split(&rec, 0.05) {
        outcome.fatal(format!("layer split does not reconcile: {e}"));
    }
    outcome.notes.push(check_split_note(&rec));
    let traced_total = stats::median(&rec.per_sample("trace.total_us")).unwrap_or(0.0);
    let overhead = traced_total - stats::median(&untraced_us).unwrap_or(0.0);
    outcome.metrics = per_layer(&rec, &[("trace.overhead_us", overhead, untraced_us.len())]);
    if let Err(e) = write_trace(&rec, args) {
        outcome.fatal(format!("cannot write the trace: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::verdict;

    fn sources(corpus: &Corpus) -> Vec<(&str, bool)> {
        corpus
            .iter()
            .map(|(i, _)| (i.source.as_str(), i.region))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let (a, b) = (corpus_inputs(5).unwrap(), corpus_inputs(5).unwrap());
        assert_eq!(sources(&a), sources(&b));
        for ((_, x), (_, y)) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        assert_ne!(sources(&a), sources(&corpus_inputs(6).unwrap()));
        let (l1, l2) = (large_inputs(5).unwrap(), large_inputs(5).unwrap());
        assert_eq!(sources(&l1), sources(&l2));
        assert_ne!(sources(&l1), sources(&large_inputs(6).unwrap()));
    }

    /// How many single-report drops the gate catches, of how many.
    fn drops_caught(input: &Input, expect: &Expect) -> (usize, usize) {
        let v = verdict(input, 1).unwrap();
        assert!(judge(expect, &v.result).is_ok(), "{}", input.name);
        let n = v.result.reports.len();
        let caught = (0..n)
            .filter(|&i| {
                let mut result = v.result.clone();
                result.reports.remove(i);
                judge(expect, &result).is_err()
            })
            .count();
        (caught, n)
    }

    #[test]
    fn verdict_gate_fails_a_dropped_report() {
        let corpus = corpus_inputs(1).unwrap();
        // Every Table-1 report counts toward LS, so every drop is caught.
        for (input, expect) in &corpus[..8] {
            let (caught, n) = drops_caught(input, expect);
            assert!(n > 0 && caught == n, "{}: {caught} of {n}", input.name);
        }
        // A fuzz report the interpreter confirmed cannot be dropped.
        let fuzz_caught: usize = corpus[8..]
            .iter()
            .filter(|(_, e)| matches!(e, Expect::MustLeak(m) if !m.is_empty()))
            .take(5)
            .map(|(i, e)| drops_caught(i, e).0)
            .sum();
        assert!(fuzz_caught > 0);
        // The large subject: every planted leak is a report.
        let large = large_inputs(0).unwrap();
        let (input, expect) = &large[0];
        let mut v = verdict(input, WIDTH).unwrap();
        assert!(judge(expect, &v.result).is_ok());
        v.result.reports.pop();
        assert!(judge(expect, &v.result).is_err());
    }

    #[test]
    fn failed_verdicts_count_against_the_run() {
        let mut outcome = Outcome::default();
        outcome.judge(Ok(()));
        outcome.judge(Err("dropped report".to_string()));
        assert_eq!((outcome.attempted, outcome.failed), (2, 1));
        assert!(crate::result_json(&outcome).starts_with("{\"correct\": false"));
    }
}
