//! Demand-driven refinement of leak candidates under the degradation
//! ladder.
//!
//! Candidate selection works purely on the abstract effect sets: a site
//! is a candidate when it escapes through an outside edge with no
//! matching flows-in. That matching is type-based, so a field the loop
//! stores *other* objects into can make an innocent site look leaked.
//! This stage re-examines each candidate with the demand-driven
//! points-to engine: for every unmatched edge it asks whether any store
//! into that field can actually deposit *this* site's objects (or a
//! structure containing them). An edge none of whose stores can is
//! refuted; a candidate whose ERA is not ⊤̂ and all of whose unmatched
//! edges are refuted is dropped before pivot filtering — *before*, so a
//! dropped candidate can never have suppressed another site's report.
//!
//! There is one refinement path (see [`refine_batched`]): the distinct
//! store sources of all candidates are resolved in multi-root batches,
//! each batch down the [`Governor`]'s degradation ladder:
//!
//! 1. a governed batch traversal with the per-query step budget scaled
//!    by the batch size — hermetic, so completeness is a deterministic
//!    property of the batch, not of thread interleaving;
//! 2. on exhaustion, up to `max_retries` adaptive retries with the
//!    budget scaled by [`RETRY_BUDGET_FACTOR`] each time;
//! 3. on final exhaustion (or deadline expiry), the precomputed
//!    context-insensitive Andersen solution — a superset of every
//!    complete demand answer, so refutation stays sound;
//! 4. a panicking worker quarantines only its own batch or candidate,
//!    whose answers fall back to Andersen or whose candidate is kept.
//!
//! Injected faults are keyed by candidate index and applied when that
//! candidate reads its answers, so they degrade the same candidates at
//! any `jobs`. Witness recording never changes a verdict or a governor
//! counter: traces come from a read-only post-pass over the pairs the
//! verdicts consulted.
//!
//! Soundness: refutation uses *over*-approximations only. If site `s`'s
//! objects can reach `b.g` at runtime, some store `x.g = y` moves an
//! object of `s` (or of a structure containing `s`), so `s` or one of
//! its containers is in the concrete — hence in the Andersen, hence in
//! any complete demand — points-to set of `y`. An incomplete answer is
//! never used to refute; it escalates the ladder instead.

use crate::flows::FlowRelations;
use crate::governor::{Confidence, DegradeCause, Governor, GovernorConfig, RETRY_BUDGET_FACTOR};
use crate::parallel::parallel_map_isolated;
use crate::witness::{node_label, witness_edges, QueryTrace};
use leakchecker_effects::{EffectSummary, Era};
use leakchecker_ir::ids::{AllocSite, MethodId};
use leakchecker_ir::Program;
use leakchecker_pointsto::{
    Andersen, Context, DemandConfig, DemandPointsTo, Node, NodeId, Pag, QueryTicket,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::OnceLock;

/// The refinement verdict for one candidate site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteVerdict {
    /// The candidate.
    pub site: AllocSite,
    /// `false` when every unmatched edge was refuted (and the ERA is
    /// not ⊤̂): the candidate is dropped.
    pub keep: bool,
    /// Precision provenance of the queries behind this verdict.
    pub confidence: Confidence,
}

/// Outcome of the whole refinement phase.
#[derive(Debug, Default)]
pub struct Refinement {
    /// Per-candidate verdicts, in site order.
    pub verdicts: Vec<SiteVerdict>,
    /// Per-query derivation traces, in deterministic (site, then query)
    /// order. Empty unless witness recording was requested.
    pub traces: Vec<QueryTrace>,
    /// Distinct store-source queries answered through the batched
    /// multi-root traversal.
    pub batched_queries: usize,
    /// Batches the queries were grouped into.
    pub query_batches: usize,
}

impl Refinement {
    /// The surviving sites, in site order.
    pub fn kept(&self) -> Vec<AllocSite> {
        self.verdicts
            .iter()
            .filter(|v| v.keep)
            .map(|v| v.site)
            .collect()
    }

    /// Confidence lookup for report building.
    pub fn confidence_of(&self) -> BTreeMap<AllocSite, Confidence> {
        self.verdicts
            .iter()
            .map(|v| (v.site, v.confidence))
            .collect()
    }
}

/// An over-approximate points-to answer for one store source, with the
/// degrade cause when the ladder went past rung one.
type Answer = (BTreeSet<AllocSite>, Option<DegradeCause>);

/// Everything one worker needs, shared immutably across the fan-out.
struct RefineCx<'a> {
    program: &'a Program,
    summary: &'a EffectSummary,
    flows: &'a FlowRelations,
    pag: &'a Pag,
    engine: &'a DemandPointsTo<'a>,
    andersen: &'a OnceLock<Andersen>,
    governor: &'a Governor,
    /// Transitive inside-loop containers per site (inverse of
    /// `flows.contains`), including the site itself: the *targets* a
    /// store's points-to set is intersected with.
    targets: &'a BTreeMap<AllocSite, BTreeSet<AllocSite>>,
}

impl RefineCx<'_> {
    fn andersen(&self) -> &Andersen {
        self.andersen
            .get_or_init(|| Andersen::run(self.program, self.pag))
    }
}

/// Runs the refinement phase over the candidate set.
///
/// Verdicts always come from [`refine_batched`]. With `witnesses` set,
/// the returned [`Refinement::traces`] additionally carries one
/// [`QueryTrace`] per (candidate, store source) pair the verdicts
/// consulted, in candidate order and, within a candidate, in
/// confirm-and-break order — the same at any `jobs`.
#[allow(clippy::too_many_arguments)]
pub fn refine_candidates(
    program: &Program,
    summary: &EffectSummary,
    flows: &FlowRelations,
    pag: &Pag,
    candidates: &BTreeSet<AllocSite>,
    governor: &Governor,
    jobs: usize,
    witnesses: bool,
) -> Refinement {
    if candidates.is_empty() {
        return Refinement::default();
    }
    let engine = DemandPointsTo::new(program, pag, DemandConfig::default());
    let andersen: OnceLock<Andersen> = OnceLock::new();
    let targets = containment_targets(flows, candidates);
    let cx = RefineCx {
        program,
        summary,
        flows,
        pag,
        engine: &engine,
        andersen: &andersen,
        governor,
        targets: &targets,
    };
    // Fault plans key off the candidate index: its position in site order.
    let items: Vec<(u64, AllocSite)> = candidates
        .iter()
        .copied()
        .enumerate()
        .map(|(i, s)| (i as u64, s))
        .collect();
    let (mut refinement, consulted) = refine_batched(&cx, &items, jobs);
    if witnesses {
        refinement.traces = trace_pass(&cx, &items, consulted, jobs);
    }
    refinement
}

/// The batch width: one bit per root in the engine's multi-root mask.
const BATCH_WIDTH: usize = 64;

/// Does candidate `index` read the batched answers? A fault that takes
/// it past the demand rungs — an injected panic, an expired virtual
/// deadline, a forced exhaustion with no retry left — means it never
/// queries the engine, so its sources stay out of the plan.
fn consults_engine(config: &GovernorConfig, index: u64) -> bool {
    let faults = config.faults;
    !(faults.panics(index)
        || faults.deadline_expired(index)
        || (faults.exhausts(index) && config.max_retries == 0))
}

/// The refinement: every verdict comes from here.
///
/// Three stages, all deterministic at any `jobs` width:
///
/// 1. **Plan** (sequential): walk candidates in site order, their
///    unmatched edges in set order, each edge's stores in PAG order, and
///    collect the distinct store-source nodes first-seen — the full set
///    of points-to queries the phase needs, each exactly once, however
///    many candidates share it.
/// 2. **Resolve** (parallel over batches): group the sources by rooting
///    method — same-method roots share traversal frontier — chunk each
///    group to the engine's 64-root mask width, and run each batch down
///    the degradation ladder: a governed multi-root traversal with the
///    per-query budget scaled by batch size, adaptive retries, then the
///    Andersen fallback per root. Batch composition is fixed by the
///    plan, so answers — and the governor's ladder counters — do not
///    depend on scheduling.
/// 3. **Verdict** (per candidate, isolated): look the candidate's store
///    sources up in the resolved table in confirm-and-break order, with
///    the candidate's injected faults applied (see [`answer_for`]).
///    Returns, beside the verdicts, the sources each candidate
///    consulted, for the trace post-pass.
fn refine_batched(
    cx: &RefineCx<'_>,
    items: &[(u64, AllocSite)],
    jobs: usize,
) -> (Refinement, Vec<Vec<NodeId>>) {
    let governor = cx.governor;
    let config = governor.config();

    // Stage 1: the deterministic query plan.
    let mut plan: Vec<NodeId> = Vec::new();
    let mut planned: HashSet<NodeId> = HashSet::new();
    for &(index, site) in items {
        if !consults_engine(config, index) {
            continue;
        }
        for edge in cx.flows.unmatched_edges(site) {
            for store in cx.pag.stores_of(edge.field) {
                if planned.insert(store.src) {
                    plan.push(store.src);
                }
            }
        }
    }

    // Stage 2: group by rooting method (first-occurrence order), chunk
    // to the mask width, resolve each chunk down the ladder.
    let mut group_order: Vec<Option<MethodId>> = Vec::new();
    let mut groups: HashMap<Option<MethodId>, Vec<NodeId>> = HashMap::new();
    for &src in &plan {
        let key = match cx.pag.node_info(src) {
            Node::Local(m, _) | Node::Ret(m) => Some(m),
            Node::Static(_) => None,
        };
        let bucket = groups.entry(key).or_default();
        if bucket.is_empty() {
            group_order.push(key);
        }
        bucket.push(src);
    }
    let batches: Vec<Vec<NodeId>> = group_order
        .iter()
        .flat_map(|key| groups[key].chunks(BATCH_WIDTH).map(<[NodeId]>::to_vec))
        .collect();
    let query_batches = batches.len();
    let batched_queries = plan.len();

    let outcomes = parallel_map_isolated(jobs, batches.clone(), |batch| resolve_batch(cx, &batch));
    let mut resolved: HashMap<NodeId, Answer> = HashMap::new();
    for (batch, outcome) in batches.iter().zip(outcomes) {
        match outcome {
            Ok(answers) => {
                for (&src, answer) in batch.iter().zip(answers) {
                    resolved.insert(src, answer);
                }
            }
            Err(_) => {
                // A genuinely panicking batch quarantines only itself:
                // its roots fall back to the independently computed
                // Andersen solution (still an over-approximation, so
                // refutation stays sound) and carry the panic cause.
                governor.note_quarantined();
                for &src in batch {
                    resolved.insert(
                        src,
                        (
                            cx.andersen().points_to(src).clone(),
                            Some(DegradeCause::WorkerPanic),
                        ),
                    );
                }
            }
        }
    }

    // Stage 3: per-candidate verdicts from lookups. An injected panic
    // runs through the same isolation as a genuine one.
    let outcomes = parallel_map_isolated(jobs, items.to_vec(), |(index, site)| {
        if config.faults.panics(index) {
            panic!("injected worker panic at item {index}");
        }
        verdict_of(cx, &resolved, index, site)
    });
    let mut consulted = Vec::with_capacity(items.len());
    let verdicts = items
        .iter()
        .zip(outcomes)
        .map(|(&(_, site), outcome)| match outcome {
            Ok((verdict, srcs)) => {
                consulted.push(srcs);
                verdict
            }
            Err(_) => {
                // Quarantine: keep the candidate — dropping on a panic
                // could lose a true leak — and say why it's degraded.
                // A quarantined candidate consulted nothing to trace.
                governor.note_quarantined();
                consulted.push(Vec::new());
                SiteVerdict {
                    site,
                    keep: true,
                    confidence: Confidence::Degraded {
                        cause: DegradeCause::WorkerPanic,
                    },
                }
            }
        })
        .collect();
    let refinement = Refinement {
        verdicts,
        traces: Vec::new(),
        batched_queries,
        query_batches,
    };
    (refinement, consulted)
}

/// One candidate's verdict. Walks its unmatched edges in set order and
/// each edge's stores in PAG order, stopping at the first store whose
/// answer reaches a target (confirm-and-break), so the degrade cause
/// recorded is the first one met on that walk. Also returns the store
/// sources consulted, each once, in first-consult order.
fn verdict_of(
    cx: &RefineCx<'_>,
    resolved: &HashMap<NodeId, Answer>,
    index: u64,
    site: AllocSite,
) -> (SiteVerdict, Vec<NodeId>) {
    let era = cx.summary.era(site);
    let targets = &cx.targets[&site];
    // Several unmatched edges often share stores; each source's answer
    // (and any fault bookkeeping behind it) is taken once per candidate.
    let mut answers: HashMap<NodeId, (&BTreeSet<AllocSite>, Option<DegradeCause>)> = HashMap::new();
    let mut consulted = Vec::new();
    let mut cause: Option<DegradeCause> = None;
    let mut any_edge_confirmed = false;
    for edge in cx.flows.unmatched_edges(site) {
        let stores = cx.pag.stores_of(edge.field);
        if stores.is_empty() {
            // No PAG store statement writes this field (e.g. statics
            // are modeled as copy edges): nothing to refute with.
            any_edge_confirmed = true;
            continue;
        }
        for store in stores {
            let (sites, degrade) = *answers.entry(store.src).or_insert_with(|| {
                consulted.push(store.src);
                answer_for(cx, resolved, index, store.src)
            });
            if let Some(c) = degrade {
                cause.get_or_insert(c);
            }
            if sites.iter().any(|s| targets.contains(s)) {
                any_edge_confirmed = true;
                break;
            }
        }
    }
    let verdict = SiteVerdict {
        site,
        keep: era == Era::Top || any_edge_confirmed,
        confidence: match cause {
            Some(cause) => Confidence::Degraded { cause },
            None => Confidence::Precise,
        },
    };
    (verdict, consulted)
}

/// The answer candidate `index` reads for `src`: the batched answer,
/// unless the fault plan moves this candidate down the ladder. An
/// expired virtual deadline answers from Andersen at once; a forced
/// first-attempt exhaustion costs one rung — the Andersen fallback when
/// no retry is left, otherwise one retry whose answer is the batched one.
fn answer_for<'r>(
    cx: &'r RefineCx<'_>,
    resolved: &'r HashMap<NodeId, Answer>,
    index: u64,
    src: NodeId,
) -> (&'r BTreeSet<AllocSite>, Option<DegradeCause>) {
    let governor = cx.governor;
    let config = governor.config();
    let fallback = |cause: DegradeCause| {
        governor.note_fallback();
        (cx.andersen().points_to(src), Some(cause))
    };
    if config.faults.deadline_expired(index) {
        governor.note_deadline_hit();
        return fallback(DegradeCause::DeadlineExpired);
    }
    if config.faults.exhausts(index) {
        governor.note_exhausted();
        if config.max_retries == 0 {
            return fallback(DegradeCause::BudgetExhausted);
        }
        governor.note_retry();
    }
    let (sites, cause) = &resolved[&src];
    (sites, *cause)
}

/// The degradation ladder for one batch of store-source queries: a
/// governed multi-root traversal whose shared budget is the per-query
/// budget × batch size, scaled by [`RETRY_BUDGET_FACTOR`] per retry; on
/// final exhaustion (or deadline expiry) every root falls back to the
/// Andersen solution. One exhaustion/retry note per batch, one fallback
/// note per root that actually fell back.
fn resolve_batch(cx: &RefineCx<'_>, srcs: &[NodeId]) -> Vec<Answer> {
    let governor = cx.governor;
    let config = governor.config();
    let nodes: Vec<Node> = srcs.iter().map(|&s| cx.pag.node_info(s)).collect();
    let ctx = Context::empty();

    if !governor.real_deadline_expired() && !governor.cancelled() {
        let mut budget = config.query_budget.saturating_mul(srcs.len().max(1));
        for attempt in 0..=config.max_retries {
            if attempt > 0 {
                governor.note_retry();
                budget = budget.saturating_mul(RETRY_BUDGET_FACTOR);
            }
            let ticket = QueryTicket {
                stop: Some(governor.cancel_token()),
                deadline: governor.deadline(),
                ..QueryTicket::hermetic(budget)
            };
            let (results, stats) = cx.engine.points_to_batch(&nodes, &ctx, &ticket);
            if results.iter().all(|r| r.complete) {
                return results.iter().map(|r| (r.sites(), None)).collect();
            }
            if stats.interrupted {
                break;
            }
            if attempt == 0 {
                governor.note_exhausted();
            }
        }
    }

    let cause = if governor.cancelled() {
        governor.note_deadline_hit();
        DegradeCause::DeadlineExpired
    } else {
        DegradeCause::BudgetExhausted
    };
    srcs.iter()
        .map(|&src| {
            governor.note_fallback();
            (cx.andersen().points_to(src).clone(), Some(cause))
        })
        .collect()
}

/// For each candidate, the site itself plus every inside site that
/// transitively contains it. A store that deposits any of these into an
/// outside field keeps the candidate's unmatched edge alive.
fn containment_targets(
    flows: &FlowRelations,
    candidates: &BTreeSet<AllocSite>,
) -> BTreeMap<AllocSite, BTreeSet<AllocSite>> {
    let mut containers_of: BTreeMap<AllocSite, Vec<AllocSite>> = BTreeMap::new();
    for (&container, members) in &flows.contains {
        for &member in members {
            containers_of.entry(member).or_default().push(container);
        }
    }
    candidates
        .iter()
        .map(|&site| {
            let mut targets = BTreeSet::from([site]);
            let mut stack = vec![site];
            while let Some(s) = stack.pop() {
                for &up in containers_of.get(&s).map_or(&[][..], Vec::as_slice) {
                    if targets.insert(up) {
                        stack.push(up);
                    }
                }
            }
            (site, targets)
        })
        .collect()
}

/// The witness post-pass (`--explain` / `--trace`): one traced
/// single-root query ladder per (candidate, store source) pair the
/// verdicts consulted. Read-only — verdicts are already final, and no
/// governor counter moves — so witness recording cannot change a
/// report. A candidate whose trace queries panic loses only its traces.
fn trace_pass(
    cx: &RefineCx<'_>,
    items: &[(u64, AllocSite)],
    consulted: Vec<Vec<NodeId>>,
    jobs: usize,
) -> Vec<QueryTrace> {
    let work: Vec<(u64, AllocSite, Vec<NodeId>)> = items
        .iter()
        .zip(consulted)
        .map(|(&(index, site), srcs)| (index, site, srcs))
        .collect();
    parallel_map_isolated(jobs, work, |(index, site, srcs)| {
        srcs.into_iter()
            .map(|src| trace_query(cx, index, site, src))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flat_map(Result::unwrap_or_default)
    .collect()
}

/// Traces one store-source query down the per-query ladder: the
/// per-query budget, then up to `max_retries` retries scaled by
/// [`RETRY_BUDGET_FACTOR`], honoring the candidate's injected faults. The
/// trace keeps the last attempt's budget and provenance edges and the
/// total steps spent; on fallback the partial witness is still reported.
fn trace_query(cx: &RefineCx<'_>, index: u64, site: AllocSite, src: NodeId) -> QueryTrace {
    let governor = cx.governor;
    let config = governor.config();
    let node = cx.pag.node_info(src);
    let mut trace = QueryTrace {
        phase: "refine".to_string(),
        site: site.to_string(),
        query: node_label(cx.program, node),
        budget: 0,
        steps: 0,
        outcome: "fallback".to_string(),
        edges: Vec::new(),
    };
    if config.faults.deadline_expired(index)
        || governor.real_deadline_expired()
        || governor.cancelled()
    {
        return trace;
    }
    // A forced first-attempt exhaustion skips attempt 0.
    let first = u32::from(config.faults.exhausts(index));
    for attempt in first..=config.max_retries {
        let budget = config
            .query_budget
            .saturating_mul(RETRY_BUDGET_FACTOR.saturating_pow(attempt));
        let ticket = QueryTicket {
            stop: Some(governor.cancel_token()),
            deadline: governor.deadline(),
            ..QueryTicket::hermetic(budget)
        };
        let (result, stats, witnesses) = cx.engine.points_to(node, &Context::empty(), &ticket);
        trace.budget = budget;
        trace.steps += stats.steps;
        trace.edges = witness_edges(cx.program, &witnesses);
        if result.complete {
            trace.outcome = "complete".to_string();
            break;
        }
        if stats.interrupted {
            // Deadline or cancellation, not workload size: retrying
            // cannot help.
            trace.outcome = "interrupted".to_string();
            break;
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{FaultPlan, GovernorConfig};
    use leakchecker_callgraph::{Algorithm, CallGraph};
    use leakchecker_effects::{analyze_from, EffectConfig};
    use leakchecker_frontend::compile;

    /// Builds the pipeline up to (but excluding) refinement for the
    /// canonical leaking program.
    fn fixture() -> (
        Program,
        EffectSummary,
        FlowRelations,
        Pag,
        BTreeSet<AllocSite>,
    ) {
        let unit = compile(
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
        )
        .unwrap();
        let program = unit.program;
        let main = program.method_by_path("Main.main").unwrap();
        let callgraph = CallGraph::build_from(&program, &[main], Algorithm::Rta);
        let summary = analyze_from(
            &program,
            &callgraph,
            main,
            unit.checked_loops[0],
            EffectConfig::default(),
        );
        let flows = crate::flows::build(&program, &summary, crate::flows::FlowConfig::default(), 1);
        let pag = Pag::build(&program, &callgraph);
        let candidates: BTreeSet<AllocSite> = summary
            .inside_sites
            .iter()
            .copied()
            .filter(|&s| flows.escapes(s) && flows.unmatched_edges(s).next().is_some())
            .collect();
        (program, summary, flows, pag, candidates)
    }

    #[test]
    fn true_leak_survives_refinement_precisely() {
        let (program, summary, flows, pag, candidates) = fixture();
        assert!(!candidates.is_empty());
        let governor = Governor::new(GovernorConfig::default());
        let r = refine_candidates(
            &program,
            &summary,
            &flows,
            &pag,
            &candidates,
            &governor,
            1,
            false,
        );
        assert_eq!(r.kept(), candidates.iter().copied().collect::<Vec<_>>());
        assert!(r
            .verdicts
            .iter()
            .all(|v| v.confidence == Confidence::Precise));
        assert_eq!(governor.stats(), crate::governor::GovernorStats::default());
    }

    #[test]
    fn tiny_budget_falls_back_but_never_drops_the_leak() {
        let (program, summary, flows, pag, candidates) = fixture();
        let governor = Governor::new(GovernorConfig {
            query_budget: 1,
            max_retries: 0,
            ..GovernorConfig::default()
        });
        let r = refine_candidates(
            &program,
            &summary,
            &flows,
            &pag,
            &candidates,
            &governor,
            1,
            false,
        );
        assert_eq!(
            r.kept(),
            candidates.iter().copied().collect::<Vec<_>>(),
            "Andersen fallback must keep the true leak"
        );
        let stats = governor.stats();
        assert!(stats.exhausted_queries > 0);
        assert!(stats.fallbacks > 0);
        assert!(r.verdicts.iter().all(|v| v.confidence
            == Confidence::Degraded {
                cause: DegradeCause::BudgetExhausted
            }));
    }

    #[test]
    fn adaptive_retry_recovers_full_precision() {
        let (program, summary, flows, pag, candidates) = fixture();
        // First attempt is forced to exhaust; one retry at 8× budget
        // completes, so the verdict is precise and no fallback happens.
        let governor = Governor::new(GovernorConfig {
            faults: FaultPlan {
                exhaust_all: true,
                ..FaultPlan::none()
            },
            ..GovernorConfig::default()
        });
        let r = refine_candidates(
            &program,
            &summary,
            &flows,
            &pag,
            &candidates,
            &governor,
            1,
            false,
        );
        assert!(r.verdicts.iter().all(|v| v.keep));
        assert!(r
            .verdicts
            .iter()
            .all(|v| v.confidence == Confidence::Precise));
        let stats = governor.stats();
        assert!(stats.retries > 0);
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn injected_deadline_degrades_with_deadline_cause() {
        let (program, summary, flows, pag, candidates) = fixture();
        let governor = Governor::new(GovernorConfig {
            faults: FaultPlan {
                deadline_at_item: Some(0),
                ..FaultPlan::none()
            },
            ..GovernorConfig::default()
        });
        let r = refine_candidates(
            &program,
            &summary,
            &flows,
            &pag,
            &candidates,
            &governor,
            1,
            false,
        );
        assert!(r.verdicts.iter().all(|v| v.keep));
        assert!(r.verdicts.iter().all(|v| v.confidence
            == Confidence::Degraded {
                cause: DegradeCause::DeadlineExpired
            }));
        assert!(governor.stats().deadline_hits > 0);
    }

    #[test]
    fn injected_panic_quarantines_only_its_item() {
        let (program, summary, flows, pag, candidates) = fixture();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let governor = Governor::new(GovernorConfig {
            faults: FaultPlan {
                panic_at_item: Some(0),
                ..FaultPlan::none()
            },
            ..GovernorConfig::default()
        });
        let r = refine_candidates(
            &program,
            &summary,
            &flows,
            &pag,
            &candidates,
            &governor,
            2,
            false,
        );
        std::panic::set_hook(hook);
        assert!(r.verdicts[0].keep, "quarantined item kept conservatively");
        assert_eq!(
            r.verdicts[0].confidence,
            Confidence::Degraded {
                cause: DegradeCause::WorkerPanic
            }
        );
        assert_eq!(governor.stats().quarantined, 1);
    }
}
