//! The end-to-end detection pipeline.
//!
//! `check` runs: call-graph construction → type-and-effect analysis of the
//! designated loop → flow-relation matching → pivot-mode filtering →
//! context-sensitive report generation. This is the reproduction of the
//! tool's command line: point it at a loop (or region), get a list of
//! leaking allocation sites with the redundant reference edge and the
//! calling contexts under which the objects are allocated.

use crate::contexts::{enumerate_jobs, ContextConfig};
use crate::flows::{build as build_flows, FlowConfig, FlowRelations, OutsideEdge};
use crate::governor::{Confidence, Governor, GovernorConfig};
use crate::parallel::parallel_map;
use crate::refine::refine_candidates;
use crate::report::LeakReport;
use crate::target::{resolve, CheckTarget, ResolvedTarget, TargetError};
use crate::witness::{escape_chain, QueryTrace, StmtIndex};
use leakchecker_callgraph::{Algorithm, CallGraph};
use leakchecker_effects::{analyze_from, EffectConfig, EffectSummary, Era};
use leakchecker_ir::ids::AllocSite;
use leakchecker_ir::Program;
use leakchecker_pointsto::Pag;
use std::collections::BTreeSet;
use std::time::Instant;

/// Detector configuration.
#[derive(Copy, Clone, Debug)]
pub struct DetectorConfig {
    /// Call-graph construction algorithm.
    pub callgraph: Algorithm,
    /// Effect-analysis knobs.
    pub effects: EffectConfig,
    /// Context-counting knobs.
    pub contexts: ContextConfig,
    /// Pivot mode: report only the roots of leaking structures
    /// (paper Section 4; the evaluation runs with it on).
    pub pivot_mode: bool,
    /// Library modeling: apply the stronger flows-in condition to
    /// library-internal reads.
    pub library_modeling: bool,
    /// Thread modeling: treat started threads as outside objects.
    pub model_threads: bool,
    /// Worker threads for the fan-out phases (flows, refinement, report
    /// building). `1` runs fully sequential; `0` uses the machine's
    /// available parallelism.
    pub jobs: usize,
    /// Resource governance: per-query budgets, adaptive retries, the
    /// run deadline, and (in tests/CI) injected faults.
    pub governor: GovernorConfig,
    /// Witness recording: escape chains on every report and derivation
    /// traces on every refinement query (`--explain` / `--trace`). Both
    /// are read-only post-passes: verdicts, reports and governor counters
    /// are identical with it on or off, and it costs nothing when off.
    pub witnesses: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            callgraph: Algorithm::Rta,
            effects: EffectConfig::default(),
            contexts: ContextConfig::default(),
            pivot_mode: true,
            library_modeling: true,
            model_threads: false,
            jobs: 1,
            governor: GovernorConfig::default(),
            witnesses: false,
        }
    }
}

/// Per-phase wall-clock split of one run, in seconds.
#[derive(Copy, Clone, Debug, Default)]
pub struct PhaseTimes {
    /// Call-graph construction.
    pub callgraph_secs: f64,
    /// Type-and-effect analysis of the loop.
    pub effects_secs: f64,
    /// Flow-relation construction (transitive closure + indexing).
    pub flows_secs: f64,
    /// Context-sensitive allocation-site counting.
    pub contexts_secs: f64,
    /// Demand-driven candidate refinement under the degradation ladder.
    pub refine_secs: f64,
    /// Candidate selection, pivot filtering, and report building.
    pub matching_secs: f64,
}

/// Aggregate statistics of one run (the columns of Table 1, plus the
/// per-phase timing split and the engine counters behind them).
#[derive(Copy, Clone, Debug, Default)]
pub struct RunStats {
    /// Reachable methods in the call graph (`Mtds`).
    pub methods: usize,
    /// Statements in reachable methods (`Stmts`).
    pub statements: usize,
    /// Analysis wall-clock time in seconds (`Time`).
    pub time_secs: f64,
    /// Context-sensitive allocation sites in the analyzed loop (`LO`).
    pub loop_objects: usize,
    /// Reported context-sensitive leaking allocation sites (`LS`).
    pub leaking_sites: usize,
    /// Where the wall-clock went.
    pub phases: PhaseTimes,
    /// Total flows-out edges over all inside sites.
    pub flow_edges: usize,
    /// Sites surviving candidate selection (before pivot filtering).
    pub candidate_sites: usize,
    /// Candidates the refinement phase refuted (dropped before pivot).
    pub refuted_candidates: usize,
    /// Worker threads the run was configured with (after resolving 0).
    pub jobs: usize,
    /// Governed queries whose first attempt exhausted its step budget.
    pub exhausted_queries: u64,
    /// Adaptive budget retries issued.
    pub retries: u64,
    /// Queries answered by the Andersen fallback.
    pub fallbacks: u64,
    /// Work items quarantined after a worker panic.
    pub quarantined: u64,
    /// Work items that observed deadline expiry (real or injected).
    pub deadline_hits: u64,
    /// Reports carrying `Confidence::Degraded`.
    pub degraded_reports: usize,
    /// Distinct store-source queries answered through the batched
    /// multi-root traversal.
    pub batched_queries: usize,
    /// Batches those queries were grouped into.
    pub query_batches: usize,
    /// Rounds the effects fixpoint ran (aging iterations of the
    /// designated loop). Independent of the job count.
    pub effects_rounds: usize,
    /// Frame slots the effects phase copied (see
    /// `EffectSummary::locals_copied`). Independent of the job count.
    pub effects_locals_copied: usize,
    /// The effects fixpoint hit its inlining depth cap: the summary is
    /// sound but conservative (recursive or very deep call chains were
    /// widened to ⊤). Previously computed but silently dropped.
    pub effects_truncated: bool,
    /// Summary-cache lookups answered from the persistent store.
    pub cache_hits: u64,
    /// Summary-cache lookups that fell through to a cold analysis.
    pub cache_misses: u64,
    /// Stored per-method summaries invalidated by content drift
    /// (edited methods plus everything composing over them).
    pub cache_invalidated: u64,
    /// Cache records quarantined by load-time validation and recovered
    /// as misses (torn writes, bit flips, truncation, stale epochs).
    pub cache_corrupt_recovered: u64,
}

impl RunStats {
    /// `true` when any rung of the degradation ladder fired: the run is
    /// sound but may be less precise than a fully resourced one.
    pub fn is_degraded(&self) -> bool {
        self.fallbacks > 0 || self.quarantined > 0 || self.deadline_hits > 0
    }
}

/// The detector's output.
#[derive(Clone, Debug)]
pub struct AnalysisResult {
    /// Leak reports, one per reported allocation site, ordered by site.
    pub reports: Vec<LeakReport>,
    /// Run statistics (Table 1 columns).
    pub stats: RunStats,
    /// The effect summary (exposed for clients that post-process).
    pub summary: EffectSummary,
    /// The flow relations (exposed for clients that post-process).
    pub flows: FlowRelations,
    /// The program as analyzed (augmented with a driver for regions).
    pub program: Program,
    /// Per-query derivation traces, in deterministic order. Empty unless
    /// [`DetectorConfig::witnesses`] was set.
    pub traces: Vec<QueryTrace>,
}

impl AnalysisResult {
    /// The reported allocation sites.
    pub fn reported_sites(&self) -> BTreeSet<AllocSite> {
        self.reports.iter().map(|r| r.site).collect()
    }
}

/// Runs the detector on a target.
///
/// # Errors
///
/// Returns [`TargetError`] when the target cannot be resolved (unknown
/// loop, region without a constructible receiver, missing entry point).
pub fn check(
    program: &Program,
    target: CheckTarget,
    config: DetectorConfig,
) -> Result<AnalysisResult, TargetError> {
    let ResolvedTarget {
        program,
        designated,
        root,
    } = resolve(program, target)?;
    // The result owns the program it describes: for a borrowed program
    // that is a second handle on the same tables, not a copy.
    let program = program.into_owned();

    let start = Instant::now();
    let mut phases = PhaseTimes::default();
    let callgraph = CallGraph::build_from(&program, &[root], config.callgraph);
    phases.callgraph_secs = start.elapsed().as_secs_f64();

    let phase_start = Instant::now();
    let effect_config = EffectConfig {
        model_threads: config.model_threads,
        jobs: config.jobs,
        ..config.effects
    };
    let summary = analyze_from(&program, &callgraph, root, designated, effect_config);
    phases.effects_secs = phase_start.elapsed().as_secs_f64();

    let phase_start = Instant::now();
    let flow_config = FlowConfig {
        library_modeling: config.library_modeling,
        model_threads: config.model_threads,
    };
    let flows = build_flows(&program, &summary, flow_config, config.jobs);
    phases.flows_secs = phase_start.elapsed().as_secs_f64();

    let phase_start = Instant::now();
    let contexts = enumerate_jobs(
        &program,
        &callgraph,
        designated,
        config.contexts,
        config.jobs,
    );
    phases.contexts_secs = phase_start.elapsed().as_secs_f64();

    // Candidate selection (Definition 3 + the Section 2 matching rule):
    // an escaping inside site is reported when its ERA is ⊤̂ (it never
    // flows back), or when some outside edge it escapes through has no
    // matching flows-in (a redundant reference).
    let phase_start = Instant::now();
    let mut candidates: BTreeSet<AllocSite> = BTreeSet::new();
    for &site in &summary.inside_sites {
        if !flows.escapes(site) {
            continue;
        }
        let era = summary.era(site);
        if era == Era::Top || flows.unmatched_edges(site).next().is_some() {
            candidates.insert(site);
        }
    }
    let candidate_sites = candidates.len();
    phases.matching_secs = phase_start.elapsed().as_secs_f64();

    // Demand-driven refinement under the governor's degradation ladder.
    // Runs *before* pivot filtering: a refuted candidate is removed from
    // the pivot universe, so it can never have suppressed a member site
    // it would otherwise cover.
    let phase_start = Instant::now();
    let governor = Governor::new(config.governor);
    let pag = Pag::build(&program, &callgraph);
    let refinement = refine_candidates(
        &program,
        &summary,
        &flows,
        &pag,
        &candidates,
        &governor,
        config.jobs,
        config.witnesses,
    );
    let kept: BTreeSet<AllocSite> = refinement.kept().into_iter().collect();
    let refuted_candidates = candidate_sites - kept.len();
    let confidence_of = refinement.confidence_of();
    let batched_queries = refinement.batched_queries;
    let query_batches = refinement.query_batches;
    let traces = refinement.traces;
    phases.refine_secs = phase_start.elapsed().as_secs_f64();

    // Pivot mode: drop leaking sites contained in another leaking site's
    // structure; inspecting the root is enough to fix the leak. Library
    // allocation sites (container internals like map entries) never
    // suppress application sites — the report must name the application
    // objects the developer can act on.
    // One multi-source traversal over `contains` replaces the former
    // per-site `members_of` probe (quadratic in kept sites): a site is
    // dropped iff it is contains-reachable (via at least one edge) from
    // some *other* kept non-library root. Each node carries up to two
    // distinct root provenances — enough to decide the predicate
    // exactly: a node whose set is full holds two distinct roots, at
    // most one of which can be the node itself, so a foreign root
    // always survives capping; a node whose set is not full still
    // accepts every new root that reaches it. In particular a root in a
    // contains cycle that only reaches *itself* keeps provenance
    // `{self}` and is not dropped — matching the old `other != site`
    // test bit for bit.
    let phase_start = Instant::now();
    let reported: Vec<AllocSite> = if config.pivot_mode {
        let roots: Vec<AllocSite> = kept
            .iter()
            .copied()
            .filter(|&s| !program.is_library_method(program.alloc(s).method))
            .collect();
        let mut prov: std::collections::HashMap<AllocSite, Vec<AllocSite>> =
            std::collections::HashMap::new();
        let mut queue: std::collections::VecDeque<AllocSite> = std::collections::VecDeque::new();
        for &r in &roots {
            prov.insert(r, vec![r]);
            queue.push_back(r);
        }
        while let Some(n) = queue.pop_front() {
            let Some(members) = flows.contains.get(&n) else {
                continue;
            };
            let ps = prov[&n].clone();
            for &m in members {
                let entry = prov.entry(m).or_default();
                let mut changed = false;
                for &p in &ps {
                    if entry.len() < 2 && !entry.contains(&p) {
                        entry.push(p);
                        changed = true;
                    }
                }
                if changed {
                    queue.push_back(m);
                }
            }
        }
        kept.iter()
            .copied()
            .filter(|&site| {
                !prov
                    .get(&site)
                    .is_some_and(|ps| ps.iter().any(|&p| p != site))
            })
            .collect()
    } else {
        kept.into_iter().collect()
    };

    // Reports are built per site in parallel; the work list is already in
    // site order, so the merged Vec is too. The statement index is built
    // once (only when witnesses are on) and shared read-only; chains are
    // a pure function of (summary, flows, site, edge), so the output is
    // identical at any job count.
    let stmt_index = config.witnesses.then(|| StmtIndex::build(&program));
    let reports: Vec<LeakReport> = parallel_map(config.jobs, reported, |site| {
        let era = summary.era(site);
        let mut edges: Vec<OutsideEdge> = flows.unmatched_edges(site).cloned().collect();
        if edges.is_empty() {
            // ⊤̂-classified with all edges "matched" can still be
            // reported (era ⊤̂ means no flow-back on some path);
            // surface every outside edge for inspection.
            edges = flows
                .flows_out
                .get(&site)
                .map(|s| s.iter().cloned().collect())
                .unwrap_or_default();
        }
        let witnesses = match &stmt_index {
            Some(index) => edges
                .iter()
                .map(|edge| escape_chain(&program, &summary, &flows, index, site, edge))
                .collect(),
            None => Vec::new(),
        };
        LeakReport {
            site,
            era,
            edges,
            context_count: contexts.count_of(&program, site),
            contexts: contexts.sample(&program, site),
            describe: program.alloc(site).describe.clone(),
            method: program.qualified_name(program.alloc(site).method),
            confidence: confidence_of
                .get(&site)
                .copied()
                .unwrap_or(Confidence::Precise),
            witnesses,
        }
    });
    phases.matching_secs += phase_start.elapsed().as_secs_f64();

    let leaking_sites = reports
        .iter()
        .map(|r| r.context_count.max(1))
        .sum::<usize>();
    let ladder = governor.stats();
    let stats = RunStats {
        methods: callgraph.reachable_count(),
        statements: callgraph.reachable_statement_count(&program),
        time_secs: start.elapsed().as_secs_f64(),
        loop_objects: contexts.pair_count(),
        leaking_sites,
        phases,
        flow_edges: flows.flows_out.values().map(BTreeSet::len).sum(),
        candidate_sites,
        refuted_candidates,
        jobs: crate::parallel::effective_jobs(config.jobs),
        exhausted_queries: ladder.exhausted_queries,
        retries: ladder.retries,
        fallbacks: ladder.fallbacks,
        quarantined: ladder.quarantined,
        deadline_hits: ladder.deadline_hits,
        degraded_reports: reports
            .iter()
            .filter(|r| r.confidence.is_degraded())
            .count(),
        batched_queries,
        query_batches,
        effects_rounds: summary.rounds,
        effects_locals_copied: summary.locals_copied,
        effects_truncated: summary.truncated,
        cache_hits: 0,
        cache_misses: 0,
        cache_invalidated: 0,
        cache_corrupt_recovered: 0,
    };

    Ok(AnalysisResult {
        reports,
        stats,
        summary,
        flows,
        program,
        traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakchecker_frontend::compile;

    fn run(src: &str, config: DetectorConfig) -> AnalysisResult {
        let unit = compile(src).unwrap();
        check(
            &unit.program,
            CheckTarget::Loop(unit.checked_loops[0]),
            config,
        )
        .unwrap()
    }

    fn names(result: &AnalysisResult) -> Vec<String> {
        result.reports.iter().map(|r| r.describe.clone()).collect()
    }

    #[test]
    fn canonical_leak_is_reported() {
        let result = run(
            "class Item { }
             class Holder { Item item; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item it = new Item();
                   h.item = it;
                 }
               }
             }",
            DetectorConfig::default(),
        );
        assert_eq!(names(&result), vec!["new Item"]);
        assert_eq!(result.stats.loop_objects, 1);
        assert_eq!(result.stats.leaking_sites, 1);
        assert!(result.stats.methods >= 1);
        assert!(result.stats.statements > 0);
    }

    #[test]
    fn tiny_budget_does_not_silently_drop_a_known_leak() {
        // Satellite regression: a starved demand query must escalate
        // the ladder (retry, then Andersen fallback), never silently
        // under-approximate and drop the report.
        let result = run(
            "class Item { }
             class Holder { Item item; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item it = new Item();
                   h.item = it;
                 }
               }
             }",
            DetectorConfig {
                governor: crate::governor::GovernorConfig {
                    query_budget: 1,
                    max_retries: 0,
                    ..crate::governor::GovernorConfig::default()
                },
                ..DetectorConfig::default()
            },
        );
        assert_eq!(names(&result), vec!["new Item"]);
        assert!(result.stats.exhausted_queries > 0, "{:?}", result.stats);
        assert!(result.stats.fallbacks > 0);
        assert!(result.stats.is_degraded());
        assert_eq!(result.stats.degraded_reports, 1);
        assert!(
            result.reports[0].confidence.is_degraded(),
            "every degraded report carries a cause"
        );
        assert_eq!(
            result.reports[0].confidence.cause(),
            Some(crate::governor::DegradeCause::BudgetExhausted)
        );
    }

    #[test]
    fn default_run_is_precise_and_undegraded() {
        let result = run(
            "class Item { }
             class Holder { Item item; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item it = new Item();
                   h.item = it;
                 }
               }
             }",
            DetectorConfig::default(),
        );
        assert!(!result.stats.is_degraded());
        assert_eq!(result.stats.degraded_reports, 0);
        assert_eq!(
            result.reports[0].confidence,
            crate::governor::Confidence::Precise
        );
    }

    #[test]
    fn effects_truncation_is_surfaced_not_swallowed() {
        // Regression: the effect analysis always computed `truncated`,
        // but the detector dropped it on the floor — a recursion-capped
        // (under-approximating) run looked identical to a complete one.
        let result = run(
            "class Main {
               static void spin(int n) { Main.spin(n - 1); }
               static void main() {
                 @check while (nondet()) {
                   Main.spin(3);
                 }
               }
             }",
            DetectorConfig::default(),
        );
        assert!(result.stats.effects_truncated);
        assert!(result.stats.effects_rounds > 0);
        // Truncation is deliberately NOT a degradation-ladder rung: it
        // is jobs-independent and structural, while `is_degraded()`
        // tracks resource-governed precision loss. Locking the
        // distinction keeps every existing degradation exit-code and
        // fuzz-oracle contract intact.
        assert!(!result.stats.is_degraded());

        let complete = run(
            "class Item { }
             class Holder { Item item; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item it = new Item();
                   h.item = it;
                 }
               }
             }",
            DetectorConfig::default(),
        );
        assert!(!complete.stats.effects_truncated);
        assert!(complete.stats.effects_rounds > 0);
    }

    #[test]
    fn witness_runs_match_plain_runs_at_every_width() {
        // Two independent leak buckets, checked at jobs=8 with witnesses
        // on and off: the reports agree byte for byte with each other
        // and with the jobs=1 run.
        let src = "class Item { }
             class A { Item x; }
             class B { Item y; }
             class Main {
               static void main() {
                 A a = new A();
                 B b = new B();
                 @check while (nondet()) {
                   Item i = new Item();
                   a.x = i;
                   Item j = new Item();
                   b.y = j;
                 }
               }
             }";
        let plain = run(
            src,
            DetectorConfig {
                jobs: 8,
                ..DetectorConfig::default()
            },
        );
        let with = run(
            src,
            DetectorConfig {
                jobs: 8,
                witnesses: true,
                ..DetectorConfig::default()
            },
        );
        let sequential = run(
            src,
            DetectorConfig {
                witnesses: true,
                ..DetectorConfig::default()
            },
        );
        for r in [&plain, &with] {
            assert_eq!(sequential.stats.effects_rounds, r.stats.effects_rounds);
            assert_eq!(
                sequential.stats.effects_locals_copied,
                r.stats.effects_locals_copied
            );
            assert_eq!(
                crate::report::render_all(&sequential.program, &sequential.reports),
                crate::report::render_all(&r.program, &r.reports)
            );
        }
        assert_eq!(
            crate::report::render_all_explained(&sequential.program, &sequential.reports),
            crate::report::render_all_explained(&with.program, &with.reports)
        );
    }

    #[test]
    fn properly_carried_over_object_is_not_reported() {
        let result = run(
            "class Order { }
             class Tx { Order curr; }
             class Main {
               static void main() {
                 Tx t = new Tx();
                 @check while (nondet()) {
                   Order prev = t.curr;
                   Order o = new Order();
                   t.curr = o;
                 }
               }
             }",
            DetectorConfig::default(),
        );
        assert!(result.reports.is_empty(), "{:?}", names(&result));
    }

    #[test]
    fn iteration_local_objects_are_never_reported() {
        let result = run(
            "class Item { }
             class Bag { Item item; }
             class Main {
               static void main() {
                 @check while (nondet()) {
                   Bag b = new Bag();
                   b.item = new Item();
                   Item got = b.item;
                 }
               }
             }",
            DetectorConfig::default(),
        );
        assert!(result.reports.is_empty(), "{:?}", names(&result));
    }

    #[test]
    fn pivot_mode_reports_only_roots() {
        let src = "
             class Item { }
             class Node { Item item; }
             class Holder { Node node; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Node n = new Node();
                   Item it = new Item();
                   n.item = it;
                   h.node = n;
                 }
               }
             }";
        let pivot = run(src, DetectorConfig::default());
        assert_eq!(names(&pivot), vec!["new Node"], "root only");
        let full = run(
            src,
            DetectorConfig {
                pivot_mode: false,
                ..DetectorConfig::default()
            },
        );
        assert_eq!(full.reports.len(), 2, "both node and item");
    }

    #[test]
    fn figure1_redundant_edge_is_identified() {
        let result = run(
            "class Order { }
             class Tx {
               Order curr;
               Order[] orders = new Order[64];
               int n;
               void process(Order o) {
                 this.curr = o;
                 Order[] arr = this.orders;
                 arr[this.n] = o;
                 this.n = this.n + 1;
               }
               void display() {
                 Order o = this.curr;
                 if (o != null) { this.curr = null; }
               }
             }
             class Main {
               static void main() {
                 Tx t = new Tx();
                 @check while (nondet()) {
                   t.display();
                   Order o = new Order();
                   t.process(o);
                 }
               }
             }",
            DetectorConfig::default(),
        );
        assert_eq!(names(&result), vec!["new Order"]);
        let report = &result.reports[0];
        assert_eq!(report.edges.len(), 1);
        assert_eq!(
            result.program.field(report.edges[0].field).name,
            "elem",
            "the redundant reference is the array slot"
        );
    }

    #[test]
    fn region_target_end_to_end() {
        let unit = compile(
            "class Entry { }
             class History {
               Entry[] entries = new Entry[256];
               int n;
               void addEntry(Entry e) {
                 Entry[] arr = this.entries;
                 arr[this.n] = e;
                 this.n = this.n + 1;
               }
             }
             class Plugin {
               History history = new History();
               @region void runCompare() {
                 Entry e = new Entry();
                 History h = this.history;
                 h.addEntry(e);
               }
             }
             class Main { static void main() { } }",
        )
        .unwrap();
        let result = check(
            &unit.program,
            CheckTarget::Region(unit.region_methods[0]),
            DetectorConfig::default(),
        )
        .unwrap();
        let reported = names(&result);
        assert!(
            reported.contains(&"new Entry".to_string()),
            "history entries leak across region invocations: {reported:?}"
        );
    }

    #[test]
    fn traces_are_byte_identical_at_any_job_count() {
        let src = "class Item { }
             class Node { Item item; }
             class Holder { Node node; Item direct; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Node n = new Node();
                   Item it = new Item();
                   n.item = it;
                   h.direct = it;
                   h.node = n;
                 }
               }
             }";
        let config = DetectorConfig {
            witnesses: true,
            pivot_mode: false,
            ..DetectorConfig::default()
        };
        let seq = run(src, DetectorConfig { jobs: 1, ..config });
        let par = run(src, DetectorConfig { jobs: 8, ..config });
        assert!(!seq.traces.is_empty());
        let render = |r: &AnalysisResult| {
            r.traces
                .iter()
                .map(crate::witness::QueryTrace::to_json)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&seq), render(&par));
        assert_eq!(
            crate::report::render_all_explained(&seq.program, &seq.reports),
            crate::report::render_all_explained(&par.program, &par.reports)
        );
        // Every trace is a complete refine-phase query with recorded
        // provenance edges on this fully-resourced run.
        for t in &seq.traces {
            assert_eq!(t.phase, "refine");
            assert_eq!(t.outcome, "complete");
            assert!(!t.edges.is_empty(), "{t:?}");
        }
    }

    #[test]
    fn degraded_run_still_carries_partial_witnesses() {
        let result = run(
            "class Item { }
             class Holder { Item item; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item it = new Item();
                   h.item = it;
                 }
               }
             }",
            DetectorConfig {
                witnesses: true,
                governor: crate::governor::GovernorConfig {
                    query_budget: 1,
                    max_retries: 0,
                    ..crate::governor::GovernorConfig::default()
                },
                ..DetectorConfig::default()
            },
        );
        assert!(result.stats.is_degraded());
        assert!(!result.traces.is_empty());
        assert!(result.traces.iter().all(|t| t.outcome == "fallback"));
        // The escape chain comes from the flow relations and survives
        // degradation: the report still explains itself.
        assert_eq!(result.reports.len(), 1);
        assert!(!result.reports[0].witnesses.is_empty());
        assert!(result.reports[0].witnesses[0].complete);
        let text = crate::report::render_all_explained(&result.program, &result.reports);
        assert!(text.contains("(degraded: budget-exhausted)"), "{text}");
        assert!(text.contains("escape chain:"), "{text}");
    }

    #[test]
    fn contexts_attached_to_reports() {
        let result = run(
            "class Item { }
             class Factory {
               static Item make() { Item it = new Item(); return it; }
             }
             class Holder { Item a; Item b; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item x = Factory.make();
                   Item y = Factory.make();
                   h.a = x;
                   h.b = y;
                 }
               }
             }",
            DetectorConfig::default(),
        );
        assert_eq!(result.reports.len(), 1);
        assert_eq!(
            result.reports[0].contexts.len(),
            2,
            "one report, two calling contexts (LS counts both)"
        );
        assert_eq!(result.stats.leaking_sites, 2);
    }
}
