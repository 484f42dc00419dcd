//! Differential fuzzing of the static detector against the concrete
//! interpreter — the soundness gate the paper's contract implies.
//!
//! The campaign draws seeds, renders each into a dispatcher program
//! from the mutation grammar ([`leakchecker_benchsuite::generate_fuzz`]:
//! aliasing chains, conditional escapes and flow-backs, library-wrapped
//! stores/loads, nested loops, recursion, double edges), and judges
//! each with the [`oracle`]: the detector must cover every
//! interpreter-confirmed must-leak site (Definition 1, site-level),
//! while unconfirmed reports are bucketed into FP causes. Violations
//! are delta-debugged ([`reduce`]) to handler-minimal reproducers and
//! written to the [`corpus`] for regression locking.
//!
//! Everything is deterministic in the base seed: program `i` uses seed
//! `base_seed + i`, workers never share mutable state, and the campaign
//! JSON carries no timings — `--jobs 1` and `--jobs 8` produce
//! byte-identical output, which the test suite asserts.

pub mod corpus;
pub mod journal;
pub mod oracle;
pub mod reduce;

pub use corpus::{exemplars, parse_entry, render_entry, replay, write_exemplars, CorpusEntry};
pub use journal::{Journal, JournalRecord};
pub use oracle::{
    run_generated, run_generated_with, run_one, run_one_with, ProgramVerdict,
    DEFAULT_ITERATIONS_PER_HANDLER,
};
pub use reduce::{reduce_violation, Reduction};

use leakchecker::governor::{FaultPlan, GovernorConfig};
use leakchecker::{json_escape, parallel_map_isolated, DetectorConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Campaign parameters.
#[derive(Copy, Clone, Debug)]
pub struct FuzzConfig {
    /// Number of programs to generate and judge.
    pub seeds: u64,
    /// Seed of the first program; program `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Worker threads (0 = machine width); workers judge whole
    /// programs, the detector itself runs single-threaded per program.
    pub jobs: usize,
    /// Tracked-loop iterations granted per handler.
    pub iterations_per_handler: u64,
    /// Resource governance for the per-seed detector runs. The fault
    /// plan is keyed by *seed offset* (not thread arrival order):
    /// `exhaust@N` forces every demand query of seed offset `N` to
    /// exhaust its budget with retries disabled, `deadline@D` expires a
    /// virtual deadline for every offset `>= D`, and `panic@M` panics
    /// the worker judging offset `M`, exercising campaign-level
    /// quarantine.
    pub governor: GovernorConfig,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seeds: 200,
            base_seed: 0xF0CC5,
            jobs: 1,
            iterations_per_handler: DEFAULT_ITERATIONS_PER_HANDLER,
            governor: GovernorConfig::default(),
        }
    }
}

/// Detector configuration used for the seed at campaign offset
/// `offset`, applying the campaign fault plan. Pure in its inputs, so
/// the per-seed configuration — and therefore the verdict — is
/// independent of `jobs`.
fn detector_for_offset(governor: &GovernorConfig, offset: u64) -> DetectorConfig {
    let mut per_run = GovernorConfig {
        faults: FaultPlan::default(),
        ..*governor
    };
    if governor.faults.exhausts(offset) {
        // Force every query onto the fallback rung: exhaust all
        // budgets and disable the adaptive retry that would otherwise
        // absorb the fault.
        per_run.faults.exhaust_all = true;
        per_run.max_retries = 0;
    }
    if governor.faults.deadline_expired(offset) {
        // Virtual deadline expiry from the first refinement item on.
        per_run.faults.deadline_at_item = Some(0);
    }
    DetectorConfig {
        governor: per_run,
        ..DetectorConfig::default()
    }
}

/// One soundness violation, with its minimized reproducer when the
/// reducer confirmed it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The offending program's verdict.
    pub verdict: ProgramVerdict,
    /// The minimized reproducer (`None` when re-rendering without
    /// padding no longer reproduces — commit the original then).
    pub reduction: Option<Reduction>,
}

/// The aggregated campaign result.
#[derive(Clone, Debug, Default)]
pub struct Campaign {
    /// Seeds judged.
    pub programs: u64,
    /// First seed.
    pub base_seed: u64,
    /// Iteration budget per handler.
    pub iterations_per_handler: u64,
    /// Total statements across analyzed programs.
    pub statements: u64,
    /// Total static reports.
    pub reports: u64,
    /// Total interpreter-confirmed must-leak sites.
    pub must_leaks: u64,
    /// Grammar coverage: programs per handler-kind label.
    pub kind_counts: BTreeMap<String, u64>,
    /// Unconfirmed static reports by acquitting dynamic fact.
    pub fp_causes: BTreeMap<String, u64>,
    /// Histogram of per-program FP rate (unconfirmed / reports) in
    /// five bands: 0%, (0,25]%, (25,50]%, (50,75]%, (75,100]%.
    pub fp_rate_bands: [u64; 5],
    /// Ground-truth leaks the dynamic baseline missed (the paper's
    /// motivating static-vs-dynamic gap).
    pub dynamic_missed: u64,
    /// Dynamic findings ground truth did not confirm.
    pub dynamic_extra: u64,
    /// Soundness violations with reproducers.
    pub violations: Vec<Violation>,
    /// Harness failures (generation/compile/interpreter errors), each
    /// message carrying its seed.
    pub errors: Vec<String>,
    /// Programs whose run degraded (budget fallback, deadline expiry,
    /// or refinement-worker quarantine) yet stayed sound.
    pub degraded_runs: u64,
    /// Static reports tagged `Degraded` across all programs.
    pub degraded_reports: u64,
    /// Seeds whose worker panicked and was quarantined (fault
    /// injection, or a genuine harness bug); the campaign continues
    /// past them but the run counts as incomplete.
    pub quarantined_seeds: Vec<u64>,
    /// Escape-chain hops replayed against the interpreter's effect log
    /// across all seeds (the witness validator's coverage).
    pub witness_checked: u64,
    /// Witness hops that named a store edge the dynamic run never
    /// produced, each prefixed with its seed. Any entry fails the
    /// campaign: a report whose explanation cannot be replayed is worse
    /// than an unexplained report.
    pub witness_mismatches: Vec<String>,
}

impl Campaign {
    /// Index of the FP-rate band for one program's verdict.
    fn fp_band(verdict: &ProgramVerdict) -> usize {
        if verdict.reports == 0 || verdict.unconfirmed() == 0 {
            return 0;
        }
        let rate = verdict.unconfirmed() as f64 / verdict.reports as f64;
        match rate {
            r if r <= 0.25 => 1,
            r if r <= 0.50 => 2,
            r if r <= 0.75 => 3,
            _ => 4,
        }
    }
}

/// Runs a campaign. Verdicts are aggregated in seed order regardless of
/// `jobs`, so the result (and its JSON) is deterministic in
/// `base_seed`. Workers run panic-isolated: a panicking seed (injected
/// via `panic@M` or a genuine harness bug) is quarantined in place and
/// the remaining seeds still complete.
pub fn run_campaign(config: &FuzzConfig) -> Campaign {
    run_campaign_resumable(config, None, &BTreeMap::new())
}

/// The per-seed outcome a campaign aggregates, whether it came from a
/// live run or a resumed journal.
type SeedOutcome = Result<Result<(ProgramVerdict, Option<Reduction>), String>, String>;

/// [`run_campaign`] with crash-safe checkpointing: each seed's outcome
/// is appended to `journal` (fsync'd) as soon as it is judged, and
/// seeds present in `resumed` (from [`Journal::resume`]) are reused
/// instead of re-run — except unsound ([`JournalRecord::Violation`])
/// seeds, which re-run to re-derive their reduction. Quarantined seeds
/// never reach the journal (the worker panics first) and so re-run —
/// and re-panic, the fault plan being offset-keyed — on resume. The
/// aggregation walks offsets in order over the merged (resumed ∪ fresh)
/// outcomes, so a resumed campaign's JSON is byte-identical to an
/// uninterrupted run at any `jobs` value.
pub fn run_campaign_resumable(
    config: &FuzzConfig,
    journal: Option<&Journal>,
    resumed: &BTreeMap<u64, JournalRecord>,
) -> Campaign {
    let iterations = config.iterations_per_handler;
    let governor = config.governor;
    // Offsets whose outcome the journal cannot supply.
    let items: Vec<(u64, u64)> = (0..config.seeds)
        .map(|i| (i, config.base_seed.wrapping_add(i)))
        .filter(|(offset, _)| {
            !matches!(
                resumed.get(offset),
                Some(JournalRecord::Sound(_) | JournalRecord::HarnessError(_))
            )
        })
        .collect();
    let results = parallel_map_isolated(config.jobs, items.clone(), |(offset, seed)| {
        if governor.faults.panics(offset) {
            panic!("injected worker panic at seed offset {offset}");
        }
        let outcome =
            run_one_with(seed, iterations, detector_for_offset(&governor, offset)).map(|verdict| {
                let reduction = if verdict.is_sound() {
                    None
                } else {
                    let kinds = leakchecker_benchsuite::generate_fuzz(seed).kinds;
                    reduce_violation(&kinds, seed, iterations)
                };
                (verdict, reduction)
            });
        if let Some(journal) = journal {
            let record = match &outcome {
                Err(e) => JournalRecord::HarnessError(e.clone()),
                // Witness mismatches journal as violations too: the
                // seed re-runs on resume to re-derive the mismatch
                // descriptions (only counts are journaled).
                Ok((verdict, _)) if verdict.is_sound() && verdict.witnesses_validated() => {
                    JournalRecord::Sound(verdict.clone())
                }
                Ok(_) => JournalRecord::Violation,
            };
            if let Err(e) = journal.append(offset, &record) {
                // Checkpointing is an add-on to a campaign that is
                // otherwise succeeding; losing it costs resumability,
                // not correctness, so warn rather than abort.
                eprintln!("warning: {e}");
            }
        }
        outcome
    });
    let fresh: BTreeMap<u64, SeedOutcome> = items
        .iter()
        .map(|&(offset, _)| offset)
        .zip(results)
        .collect();

    let mut campaign = Campaign {
        programs: config.seeds,
        base_seed: config.base_seed,
        iterations_per_handler: iterations,
        ..Campaign::default()
    };
    for offset in 0..config.seeds {
        let seed = config.base_seed.wrapping_add(offset);
        let outcome: SeedOutcome = match fresh.get(&offset) {
            Some(result) => result.clone(),
            None => match resumed.get(&offset) {
                Some(JournalRecord::Sound(verdict)) => Ok(Ok((verdict.clone(), None))),
                Some(JournalRecord::HarnessError(e)) => Ok(Err(e.clone())),
                _ => unreachable!("offset {offset} neither run nor resumed"),
            },
        };
        match outcome {
            Err(_) => campaign.quarantined_seeds.push(seed),
            Ok(Err(e)) => campaign.errors.push(e),
            Ok(Ok((verdict, reduction))) => {
                campaign.statements += verdict.statements;
                campaign.reports += verdict.reports;
                campaign.must_leaks += verdict.must_leak;
                for kind in &verdict.kinds {
                    *campaign.kind_counts.entry(kind.clone()).or_default() += 1;
                }
                for (cause, n) in &verdict.fp_causes {
                    *campaign.fp_causes.entry(cause.clone()).or_default() += n;
                }
                campaign.fp_rate_bands[Campaign::fp_band(&verdict)] += 1;
                campaign.dynamic_missed += verdict.dynamic_missed;
                campaign.dynamic_extra += verdict.dynamic_extra;
                campaign.degraded_reports += verdict.degraded_reports;
                if verdict.degraded_run {
                    campaign.degraded_runs += 1;
                }
                campaign.witness_checked += verdict.witness_checked;
                campaign.witness_mismatches.extend(
                    verdict
                        .witness_mismatches
                        .iter()
                        .map(|m| format!("seed {}: {m}", verdict.seed)),
                );
                if !verdict.is_sound() {
                    campaign.violations.push(Violation { verdict, reduction });
                }
            }
        }
    }
    campaign
}

fn json_str_map(out: &mut String, map: &BTreeMap<String, u64>) {
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {v}", json_escape(k));
    }
    out.push('}');
}

/// Renders the campaign summary as JSON (hand-rolled: the build is
/// hermetic, no serde). Deliberately carries no timings or host
/// details, so identical seeds give byte-identical documents at any
/// `--jobs` value.
pub fn render_campaign_json(campaign: &Campaign) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"programs\": {},", campaign.programs);
    let _ = writeln!(out, "  \"base_seed\": {},", campaign.base_seed);
    let _ = writeln!(
        out,
        "  \"iterations_per_handler\": {},",
        campaign.iterations_per_handler
    );
    let _ = writeln!(out, "  \"statements\": {},", campaign.statements);
    let _ = writeln!(out, "  \"reports\": {},", campaign.reports);
    let _ = writeln!(out, "  \"must_leaks\": {},", campaign.must_leaks);
    out.push_str("  \"kind_counts\": ");
    json_str_map(&mut out, &campaign.kind_counts);
    out.push_str(",\n  \"fp_causes\": ");
    json_str_map(&mut out, &campaign.fp_causes);
    let bands = campaign.fp_rate_bands;
    let _ = write!(
        out,
        ",\n  \"fp_rate_histogram\": {{\"0\": {}, \"(0,25]\": {}, \"(25,50]\": {}, \
         \"(50,75]\": {}, \"(75,100]\": {}}},\n",
        bands[0], bands[1], bands[2], bands[3], bands[4]
    );
    let _ = writeln!(out, "  \"dynamic_missed\": {},", campaign.dynamic_missed);
    let _ = writeln!(out, "  \"dynamic_extra\": {},", campaign.dynamic_extra);
    let _ = writeln!(out, "  \"witness_checked\": {},", campaign.witness_checked);
    let mismatches: Vec<String> = campaign
        .witness_mismatches
        .iter()
        .map(|m| format!("\"{}\"", json_escape(m)))
        .collect();
    let _ = writeln!(
        out,
        "  \"witness_mismatches\": [{}],",
        mismatches.join(", ")
    );
    let _ = writeln!(out, "  \"degraded_runs\": {},", campaign.degraded_runs);
    let _ = writeln!(
        out,
        "  \"degraded_reports\": {},",
        campaign.degraded_reports
    );
    let quarantined: Vec<String> = campaign
        .quarantined_seeds
        .iter()
        .map(|s| s.to_string())
        .collect();
    let _ = writeln!(
        out,
        "  \"quarantined_seeds\": [{}],",
        quarantined.join(", ")
    );
    let _ = writeln!(
        out,
        "  \"soundness_violations\": {},",
        campaign.violations.len()
    );
    out.push_str("  \"violations\": [");
    for (i, violation) in campaign.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let v = &violation.verdict;
        let kinds: Vec<String> = v
            .kinds
            .iter()
            .map(|k| format!("\"{}\"", json_escape(k)))
            .collect();
        let missed: Vec<String> = v
            .missed
            .iter()
            .map(|m| format!("\"{}\"", json_escape(m)))
            .collect();
        let _ = write!(
            out,
            "\n    {{\"seed\": {}, \"kinds\": [{}], \"missed\": [{}]",
            v.seed,
            kinds.join(", "),
            missed.join(", ")
        );
        if let Some(reduction) = &violation.reduction {
            let reduced: Vec<String> = reduction
                .kinds
                .iter()
                .map(|k| format!("\"{}\"", json_escape(&k.label())))
                .collect();
            let _ = write!(
                out,
                ", \"reduced_kinds\": [{}], \"reduced_statements\": {}",
                reduced.join(", "),
                reduction.statements
            );
        }
        out.push('}');
    }
    if campaign.violations.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str("  \"errors\": [");
    for (i, e) in campaign.errors.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", json_escape(e));
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_sound_and_clean() {
        let campaign = run_campaign(&FuzzConfig {
            seeds: 24,
            base_seed: 1,
            jobs: 1,
            ..FuzzConfig::default()
        });
        assert!(
            campaign.errors.is_empty(),
            "harness errors: {:?}",
            campaign.errors
        );
        assert!(
            campaign.violations.is_empty(),
            "soundness violations: {:?}",
            campaign
                .violations
                .iter()
                .map(|v| (v.verdict.seed, v.verdict.kinds.clone()))
                .collect::<Vec<_>>()
        );
        assert!(campaign.must_leaks > 0, "campaign must confirm some leaks");
        assert!(campaign.statements > 0);
        assert!(
            campaign.witness_checked > 0,
            "confirmed leaks must have validated witness hops"
        );
        assert!(
            campaign.witness_mismatches.is_empty(),
            "witness/effect-log disagreements: {:?}",
            campaign.witness_mismatches
        );
        assert!(
            campaign.kind_counts.len() > 6,
            "grammar coverage: {:?}",
            campaign.kind_counts
        );
    }

    #[test]
    fn campaign_json_is_deterministic_across_jobs() {
        let base = FuzzConfig {
            seeds: 16,
            base_seed: 0xDECAF,
            jobs: 1,
            ..FuzzConfig::default()
        };
        let sequential = render_campaign_json(&run_campaign(&base));
        let parallel = render_campaign_json(&run_campaign(&FuzzConfig { jobs: 8, ..base }));
        assert_eq!(
            sequential, parallel,
            "campaign JSON must be byte-identical at --jobs 1 and --jobs 8 \
             (base_seed={:#x} seeds={})",
            base.base_seed, base.seeds
        );
        let again = render_campaign_json(&run_campaign(&base));
        assert_eq!(sequential, again, "same seed must give the same JSON");
    }

    #[test]
    fn json_shape_is_well_formed() {
        let campaign = run_campaign(&FuzzConfig {
            seeds: 4,
            base_seed: 7,
            jobs: 2,
            ..FuzzConfig::default()
        });
        let json = render_campaign_json(&campaign);
        for key in [
            "\"programs\": 4",
            "\"base_seed\": 7",
            "\"kind_counts\"",
            "\"fp_causes\"",
            "\"fp_rate_histogram\"",
            "\"soundness_violations\": 0",
            "\"violations\": []",
            "\"errors\": []",
            "\"witness_checked\": ",
            "\"witness_mismatches\": []",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // No timing fields may sneak in.
        assert!(!json.contains("secs"), "{json}");
        assert!(!json.contains("time"), "{json}");
    }

    /// Silences the default panic hook around `f` so intentionally
    /// quarantined workers don't spam test output.
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    fn injected_config(spec: &str) -> FuzzConfig {
        FuzzConfig {
            seeds: 12,
            base_seed: 0xBEEF,
            jobs: 1,
            governor: GovernorConfig {
                faults: leakchecker::parse_fault_plan(spec).unwrap(),
                ..GovernorConfig::default()
            },
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn injected_faults_stay_sound_and_are_counted() {
        let campaign =
            with_quiet_panics(|| run_campaign(&injected_config("exhaust@2,panic@5,deadline@9")));
        assert!(
            campaign.violations.is_empty(),
            "injected faults must never cost soundness: {:?}",
            campaign
                .violations
                .iter()
                .map(|v| (v.verdict.seed, v.verdict.missed.clone()))
                .collect::<Vec<_>>()
        );
        assert!(campaign.errors.is_empty(), "{:?}", campaign.errors);
        assert_eq!(
            campaign.quarantined_seeds,
            vec![0xBEEF + 5],
            "exactly the panic@5 seed is quarantined"
        );
        assert!(
            campaign.degraded_runs > 0,
            "exhaust@2 and deadline@9 must register degraded runs"
        );
    }

    #[test]
    fn injected_campaign_json_is_deterministic_across_jobs() {
        let base = injected_config("exhaust@1,panic@3,deadline@8");
        let renders: Vec<String> = with_quiet_panics(|| {
            [1usize, 2, 8]
                .iter()
                .map(|&jobs| render_campaign_json(&run_campaign(&FuzzConfig { jobs, ..base })))
                .collect()
        });
        assert_eq!(
            renders[0], renders[1],
            "injected campaign JSON must not depend on --jobs"
        );
        assert_eq!(renders[0], renders[2]);
        assert!(
            renders[0].contains("\"quarantined_seeds\": [48882]"),
            "{}",
            renders[0]
        );
    }

    #[test]
    fn resumed_campaign_json_is_byte_identical() {
        let dir = std::env::temp_dir().join(format!("leakc-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.journal");
        // Include injected faults: exhaust journals a (degraded, sound)
        // verdict; the panic seed never journals and must re-quarantine
        // identically on resume.
        let config = injected_config("exhaust@2,panic@5");
        let uninterrupted = with_quiet_panics(|| render_campaign_json(&run_campaign(&config)));

        let journal = Journal::create(&path, &config).unwrap();
        with_quiet_panics(|| run_campaign_resumable(&config, Some(&journal), &BTreeMap::new()));
        drop(journal);

        // Simulate a crash after seed offset 3: keep the header plus
        // four records (plus a torn tail fragment, as a real kill
        // mid-append would leave).
        let text = std::fs::read_to_string(&path).unwrap();
        let kept: Vec<&str> = text.lines().take(5).collect();
        std::fs::write(
            &path,
            format!("{}\nrec offset=9 status=ok se", kept.join("\n")),
        )
        .unwrap();

        let (journal, records) = Journal::resume(&path, &config).unwrap();
        assert_eq!(records.len(), 4, "header + 4 records survive the crash");
        let resumed = with_quiet_panics(|| {
            render_campaign_json(&run_campaign_resumable(&config, Some(&journal), &records))
        });
        assert_eq!(
            uninterrupted, resumed,
            "resumed campaign JSON must be byte-identical to an uninterrupted run"
        );
        // And the replenished journal now resumes to a full skip-list.
        drop(journal);
        let (_j, records) = Journal::resume(&path, &config).unwrap();
        assert_eq!(
            records.len() as u64,
            config.seeds - 1,
            "all but the panic seed"
        );
    }

    #[test]
    fn fp_band_partitions() {
        let mut v = ProgramVerdict {
            seed: 0,
            kinds: vec![],
            statements: 0,
            reports: 0,
            must_leak: 0,
            missed: vec![],
            fp_causes: BTreeMap::new(),
            dynamic_missed: 0,
            dynamic_extra: 0,
            degraded_reports: 0,
            degraded_run: false,
            witness_checked: 0,
            witness_mismatches: Vec::new(),
        };
        assert_eq!(Campaign::fp_band(&v), 0);
        v.reports = 4;
        v.fp_causes.insert("flows-back-observed".to_string(), 1);
        assert_eq!(Campaign::fp_band(&v), 1);
        v.fp_causes.insert("never-escaped".to_string(), 1);
        assert_eq!(Campaign::fp_band(&v), 2);
        v.fp_causes.insert("single-instance".to_string(), 2);
        assert_eq!(Campaign::fp_band(&v), 4);
    }
}
