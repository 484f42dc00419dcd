//! Demand-driven, context-sensitive points-to queries via
//! CFL-reachability.
//!
//! This is the engine the paper's implementation section describes:
//! "program semantics is encoded as a flow graph in which nodes represent
//! variables and edges represent propagation of object references.
//! Points-to relationships are determined by traversing the graph", with
//! interprocedural edges required to satisfy a matched-parentheses
//! property over call sites, and with queries issued *on demand* for
//! individual variables rather than after a whole-program analysis.
//!
//! A query walks the pointer-assignment graph backwards from a variable
//! toward the allocation sites that flow into it:
//!
//! * plain copy edges are followed directly;
//! * `Enter(cs)` edges (argument → parameter) are followed backwards only
//!   when the current call string's innermost frame is `cs` (or the
//!   string is the truncation wildcard) — a *close parenthesis*;
//! * `Exit(cs)` edges (return → destination) push `cs` — an *open
//!   parenthesis*;
//! * a load `dst = base.field` is matched against every store
//!   `sbase.field = src` whose base may alias `base` (a recursive alias
//!   query), continuing from `src`;
//! * static-field nodes erase the call string (globals are
//!   context-insensitive).
//!
//! Every query runs under a step *budget*; exhausting it marks the result
//! incomplete, which clients must treat conservatively. This mirrors the
//! refinement-based demand-driven points-to analyses the paper builds on.

use crate::context::Context;
use crate::intern::{ContextInterner, CtxId};
use crate::pag::{EdgeLabel, LoadStmt, Node, NodeId, Pag};
use leakchecker_ir::ids::{AllocSite, CallSite, FieldId};
use leakchecker_ir::Program;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs for demand queries.
#[derive(Copy, Clone, Debug)]
pub struct DemandConfig {
    /// Call-string limit (frames kept per context).
    pub k: usize,
    /// Depth limit for nested alias queries.
    pub max_alias_depth: usize,
}

impl Default for DemandConfig {
    fn default() -> Self {
        DemandConfig {
            k: 8,
            max_alias_depth: 24,
        }
    }
}

/// A context-qualified abstract object.
pub type CtxObject = (AllocSite, Context);

/// The answer to a points-to query.
#[derive(Clone, Debug, Default)]
pub struct PtResult {
    /// Abstract objects that may flow to the queried variable.
    pub objects: BTreeSet<CtxObject>,
    /// `false` when the budget or depth limit was hit and the set may be
    /// missing objects — treat as "may point to anything" for soundness.
    pub complete: bool,
}

impl PtResult {
    /// The allocation sites, contexts stripped.
    pub fn sites(&self) -> BTreeSet<AllocSite> {
        self.objects.iter().map(|(s, _)| *s).collect()
    }
}

/// Per-query counters, returned by [`DemandPointsTo::points_to`] and
/// [`DemandPointsTo::points_to_batch`].
#[derive(Copy, Clone, Debug, Default)]
pub struct QueryStats {
    /// Worklist steps taken (including nested alias queries).
    pub steps: u64,
    /// `true` when the step budget ran out.
    pub budget_exhausted: bool,
    /// `true` when a cooperative stop token or deadline cut the query
    /// short (the result is incomplete for an external reason, not
    /// because the work itself was too large).
    pub interrupted: bool,
}

/// Cooperative controls for one governed query.
///
/// A ticket carries the step budget and lets a caller thread a shared
/// cancellation token and a wall-clock deadline through the traversal.
/// Queries share no results with each other, so a query's step count —
/// and therefore whether it completes under a given budget — depends
/// only on the query and its ticket, never on what other threads
/// computed first.
#[derive(Copy, Clone, Debug)]
pub struct QueryTicket<'t> {
    /// Step budget for this query (shared with its nested alias
    /// sub-queries).
    pub budget: usize,
    /// Checked periodically; when it reads `true` the query stops with
    /// `complete = false` and `interrupted = true`.
    pub stop: Option<&'t AtomicBool>,
    /// Wall-clock cutoff with the same effect as `stop`.
    pub deadline: Option<Instant>,
}

impl<'t> QueryTicket<'t> {
    /// A hermetic ticket: fixed budget, no external interruption.
    pub fn hermetic(budget: usize) -> QueryTicket<'t> {
        QueryTicket {
            budget,
            stop: None,
            deadline: None,
        }
    }
}

/// How often (in worklist steps) the traversal polls the stop token and
/// deadline. Keeps `Instant::now` off the per-step path.
const INTERRUPT_POLL_MASK: u64 = 0x7f;

/// How one provenance hop of a points-to derivation was justified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WitnessKind {
    /// A plain copy edge (`x = y`).
    Assign,
    /// An argument-to-parameter binding matched as a *close parenthesis*
    /// at this call site.
    ParamBind(CallSite),
    /// A return-to-destination binding pushed as an *open parenthesis*
    /// at this call site.
    ReturnBind(CallSite),
    /// Flow through a static field, erasing the call string.
    StaticErase,
    /// A load `dst = base.f` matched against a may-aliased store
    /// `sbase.f = src`.
    HeapMatch(FieldId),
}

/// One forward dataflow hop of a derivation: a reference flowed from
/// `from` (nearer the allocation) to `to` (nearer the queried variable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WitnessStep {
    /// The source node of the flow.
    pub from: Node,
    /// The destination node of the flow.
    pub to: Node,
    /// How the hop was justified.
    pub kind: WitnessKind,
    /// `true` when the hop crosses the application/library boundary.
    pub crosses_library: bool,
}

/// The provenance of one `(site, context)` answer: the chain of hops the
/// traversal followed from the allocation to the queried variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteWitness {
    /// The allocation site whose flow this witness explains.
    pub site: AllocSite,
    /// The calling context the site was found under.
    pub ctx: Context,
    /// Hops in dataflow order (allocation first, queried variable last).
    pub steps: Vec<WitnessStep>,
}

/// Provenance recorded during one traced traversal. The parent map is a
/// tree over visited `(node, ctx)` states (each state is pushed exactly
/// once, so first-write-wins is deterministic given the traversal
/// order), and `found` lists allocation seeds in pop order.
#[derive(Default)]
struct WitnessTape {
    parent: HashMap<(NodeId, CtxId), ((NodeId, CtxId), WitnessKind)>,
    found: Vec<(AllocSite, CtxId, (NodeId, CtxId))>,
}

/// Cumulative engine counters (snapshot of atomics; safe to read while
/// other threads keep querying).
#[derive(Copy, Clone, Debug, Default)]
pub struct EngineStats {
    /// Top-level queries answered.
    pub queries: u64,
    /// Total worklist steps across all queries.
    pub steps: u64,
    /// Queries (top-level) that exhausted their budget.
    pub budget_exhaustions: u64,
    /// Distinct calling contexts interned.
    pub contexts_interned: usize,
}

/// Counters shared across threads.
#[derive(Default)]
struct Counters {
    queries: AtomicU64,
    steps: AtomicU64,
    budget_exhaustions: AtomicU64,
}

/// Mutable state threaded through one top-level query and its nested
/// alias sub-queries.
struct QueryState<'t> {
    budget: usize,
    stats: QueryStats,
    stop: Option<&'t AtomicBool>,
    deadline: Option<Instant>,
    /// `Some` for single-root queries, which record provenance; `None`
    /// for batches, which carry none.
    witness: Option<WitnessTape>,
}

impl QueryState<'_> {
    /// Polls the cooperative stop token and the wall-clock deadline.
    /// Called every [`INTERRUPT_POLL_MASK`]+1 steps.
    fn interrupted(&self) -> bool {
        if let Some(stop) = self.stop {
            if stop.load(Ordering::Relaxed) {
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return true;
            }
        }
        false
    }
}

/// The demand-driven points-to analysis.
///
/// The engine is `Sync`: one instance can serve points-to queries from
/// many scoped worker threads at once, sharing the context arena. Two
/// entry points: [`DemandPointsTo::points_to_batch`] answers up to 64
/// roots in one traversal (the refinement verdicts), and
/// [`DemandPointsTo::points_to`] answers one root with its provenance
/// (the `--explain`/`--trace` post-pass).
pub struct DemandPointsTo<'a> {
    program: &'a Program,
    pag: &'a Pag,
    config: DemandConfig,
    /// Loads keyed by their destination node.
    loads_by_dst: HashMap<NodeId, Vec<LoadStmt>>,
    /// Interned call-string arena shared by all queries.
    interner: ContextInterner,
    counters: Counters,
}

impl<'a> DemandPointsTo<'a> {
    /// Creates the engine over a prebuilt PAG.
    pub fn new(program: &'a Program, pag: &'a Pag, config: DemandConfig) -> Self {
        let mut loads_by_dst: HashMap<NodeId, Vec<LoadStmt>> = HashMap::new();
        for field in pag.all_fields() {
            for load in pag.loads_of(field) {
                loads_by_dst.entry(load.dst).or_default().push(*load);
            }
        }
        DemandPointsTo {
            program,
            pag,
            config,
            loads_by_dst,
            interner: ContextInterner::new(config.k),
            counters: Counters::default(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> DemandConfig {
        self.config
    }

    /// The shared context arena (exposed for clients that want to keep
    /// working with `CtxId` handles).
    pub fn interner(&self) -> &ContextInterner {
        &self.interner
    }

    /// Snapshot of the cumulative engine counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            queries: self.counters.queries.load(Ordering::Relaxed),
            steps: self.counters.steps.load(Ordering::Relaxed),
            budget_exhaustions: self.counters.budget_exhaustions.load(Ordering::Relaxed),
            contexts_interned: self.interner.len(),
        }
    }

    /// Points-to query for one [`Node`] under `ctx`, with the resource
    /// controls of `ticket`, recording per abstract object in the answer
    /// the provenance chain the traversal followed from its allocation
    /// seed to the queried variable.
    ///
    /// The traversal is a function of the query and its ticket alone, so
    /// repeated queries yield identical answers, step counts and
    /// witnesses. A node absent from the PAG (a never-assigned variable)
    /// has an empty complete answer. The engine-wide counters accumulate.
    pub fn points_to(
        &self,
        node: Node,
        ctx: &Context,
        ticket: &QueryTicket,
    ) -> (PtResult, QueryStats, Vec<SiteWitness>) {
        let Some(id) = self.pag.find(node) else {
            return (
                PtResult {
                    objects: BTreeSet::new(),
                    complete: true,
                },
                QueryStats::default(),
                Vec::new(),
            );
        };
        let mut state = QueryState {
            budget: ticket.budget,
            stats: QueryStats::default(),
            stop: ticket.stop,
            deadline: ticket.deadline,
            witness: Some(WitnessTape::default()),
        };
        let result = self.query(id, self.interner.intern(ctx), &mut state, 0);
        self.record(&state.stats, 1);
        let witnesses = self.replay_tape(state.witness.take().unwrap_or_default());
        (result, state.stats, witnesses)
    }

    /// Adds one query's (or batch's) spend to the engine-wide counters.
    fn record(&self, stats: &QueryStats, queries: u64) {
        self.counters.queries.fetch_add(queries, Ordering::Relaxed);
        self.counters
            .steps
            .fetch_add(stats.steps, Ordering::Relaxed);
        if stats.budget_exhausted {
            self.counters
                .budget_exhaustions
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Walks each allocation seed's parent chain back to the query root,
    /// materializing hops in dataflow (allocation-first) order. One
    /// witness per distinct `(site, context)` answer, first found wins —
    /// deterministic because the traversal itself is.
    fn replay_tape(&self, tape: WitnessTape) -> Vec<SiteWitness> {
        let mut witnesses = Vec::new();
        let mut seen: HashSet<(AllocSite, CtxId)> = HashSet::new();
        for (site, ctx_id, mut key) in tape.found {
            if !seen.insert((site, ctx_id)) {
                continue;
            }
            let mut steps = Vec::new();
            while let Some((parent_key, kind)) = tape.parent.get(&key) {
                let from = self.pag.node_info(key.0);
                let to = self.pag.node_info(parent_key.0);
                steps.push(WitnessStep {
                    from,
                    to,
                    kind: kind.clone(),
                    crosses_library: self.node_in_library(from) != self.node_in_library(to),
                });
                key = *parent_key;
            }
            witnesses.push(SiteWitness {
                site,
                ctx: self.interner.resolve(ctx_id),
                steps,
            });
        }
        witnesses
    }

    /// Does the node live in library code? Library-boundary hops get
    /// tagged on the witness steps.
    fn node_in_library(&self, node: Node) -> bool {
        match node {
            Node::Local(m, _) | Node::Ret(m) => self.program.is_library_method(m),
            Node::Static(_) => false,
        }
    }

    /// Answers up to 64 points-to queries sharing one context in a
    /// single traversal.
    ///
    /// Queries rooted in the same method overlap heavily: they reach the
    /// same parameters, the same heap loads, the same library plumbing.
    /// Run individually, each re-derives that shared frontier from
    /// scratch. The
    /// batch traversal visits each `(node, context)` state once,
    /// tracking *which roots* reach it in a 64-bit mask, and caches the
    /// state's successor list — including the expensive load-vs-store
    /// alias matching — so nested alias sub-queries run once per state
    /// instead of once per root.
    ///
    /// Returns one [`PtResult`] per root, in input order. The step
    /// budget is shared by the whole batch (size it accordingly, e.g.
    /// per-query budget × batch size); on exhaustion or interruption
    /// *every* root is conservatively marked incomplete, so completeness
    /// stays deterministic — it depends only on the batch and its
    /// ticket, never on which root "caused" the overrun.
    ///
    /// A complete batch answer for a root is identical to that root's
    /// individual complete answer: both are the closure of the same
    /// successor relation from the same seed.
    ///
    /// # Panics
    ///
    /// Panics when given more than 64 roots (the mask width).
    pub fn points_to_batch(
        &self,
        roots: &[Node],
        ctx: &Context,
        ticket: &QueryTicket,
    ) -> (Vec<PtResult>, QueryStats) {
        assert!(
            roots.len() <= 64,
            "points_to_batch takes at most 64 roots, got {}",
            roots.len()
        );
        let mut state = QueryState {
            budget: ticket.budget,
            stats: QueryStats::default(),
            stop: ticket.stop,
            deadline: ticket.deadline,
            witness: None,
        };
        let ctx_id = self.interner.intern(ctx);
        let mut objects: Vec<BTreeSet<CtxObject>> = vec![BTreeSet::new(); roots.len()];
        let mut complete = true;

        // Per-state mask of roots whose exploration has reached it; a
        // state re-enters the worklist only when *new* bits arrive.
        let mut mask: HashMap<(NodeId, CtxId), u64> = HashMap::new();
        let mut stack: Vec<(NodeId, CtxId, u64)> = Vec::new();
        for (i, root) in roots.iter().enumerate() {
            // Absent nodes (never-assigned variables) keep an empty
            // complete result, matching the single-query behavior.
            if let Some(id) = self.pag.find(*root) {
                let entry = mask.entry((id, ctx_id)).or_insert(0);
                let add = (1u64 << i) & !*entry;
                if add != 0 {
                    *entry |= add;
                    stack.push((id, ctx_id, add));
                }
            }
        }

        // Successor lists cached per state — this is where the batch
        // sharing happens: the alias matching behind a loaded field is
        // resolved on first arrival and replayed for every later root.
        type SuccCache = HashMap<(NodeId, CtxId), Arc<Vec<(NodeId, CtxId)>>>;
        let mut succs: SuccCache = HashMap::new();

        while let Some((node, cur, bits)) = stack.pop() {
            if state.budget == 0 {
                complete = false;
                state.stats.budget_exhausted = true;
                break;
            }
            if state.stats.steps & INTERRUPT_POLL_MASK == 0 && state.interrupted() {
                complete = false;
                state.stats.interrupted = true;
                break;
            }
            state.budget -= 1;
            state.stats.steps += 1;

            // Allocation seeds, credited to exactly the newly arrived
            // roots (earlier arrivals already collected them).
            let allocs = self.pag.allocs_into(node);
            if !allocs.is_empty() {
                let cur_ctx = self.interner.resolve(cur);
                for &site in allocs {
                    let mut b = bits;
                    while b != 0 {
                        let i = b.trailing_zeros() as usize;
                        objects[i].insert((site, cur_ctx.clone()));
                        b &= b - 1;
                    }
                }
            }

            let key = (node, cur);
            let list = match succs.get(&key) {
                Some(list) => Arc::clone(list),
                None => {
                    let mut list = Vec::new();
                    let erase = matches!(self.pag.node_info(node), Node::Static(_));
                    for &(src, label) in self.pag.edges_into(node) {
                        let next_ctx = match label {
                            EdgeLabel::None => {
                                if erase {
                                    Some(CtxId::EMPTY)
                                } else {
                                    Some(cur)
                                }
                            }
                            EdgeLabel::Enter(cs) => self.interner.pop_matching(cur, cs),
                            EdgeLabel::Exit(cs) => Some(self.interner.push(cur, cs)),
                        };
                        if let Some(nc) = next_ctx {
                            list.push((src, nc));
                        }
                    }
                    if let Some(loads) = self.loads_by_dst.get(&node) {
                        for load in loads {
                            let base_result = self.query(load.base, cur, &mut state, 1);
                            if !base_result.complete {
                                complete = false;
                            }
                            let base_sites = base_result.sites();
                            for store in self.pag.stores_of(load.field) {
                                let sbase_result =
                                    self.query(store.base, CtxId::EMPTY, &mut state, 1);
                                if !sbase_result.complete {
                                    complete = false;
                                }
                                let alias = !base_result.complete
                                    || !sbase_result.complete
                                    || sbase_result.sites().iter().any(|s| base_sites.contains(s));
                                if alias {
                                    list.push((store.src, CtxId::EMPTY));
                                }
                            }
                        }
                    }
                    let list = Arc::new(list);
                    succs.insert(key, Arc::clone(&list));
                    list
                }
            };
            for &(s, nc) in list.iter() {
                let entry = mask.entry((s, nc)).or_insert(0);
                let add = bits & !*entry;
                if add != 0 {
                    *entry |= add;
                    stack.push((s, nc, add));
                }
            }
        }

        self.record(&state.stats, roots.len() as u64);
        let results = objects
            .into_iter()
            .map(|objects| PtResult { objects, complete })
            .collect();
        (results, state.stats)
    }

    /// Internal CFL traversal, entirely on interned `CtxId` handles: the
    /// visited set hashes `(u32, u32)` pairs and context transitions are
    /// arena reads instead of `Arc<Vec>` clones. Contexts are only
    /// materialized when an allocation seed is recorded.
    fn query(&self, start: NodeId, ctx: CtxId, state: &mut QueryState, depth: usize) -> PtResult {
        let key = (start, ctx);
        if depth > self.config.max_alias_depth {
            return PtResult {
                objects: BTreeSet::new(),
                complete: false,
            };
        }
        let mut objects: BTreeSet<CtxObject> = BTreeSet::new();
        let mut complete = true;
        let mut visited: HashSet<(NodeId, CtxId)> = HashSet::new();
        let mut stack: Vec<(NodeId, CtxId)> = vec![key];
        visited.insert(key);

        while let Some((node, cur)) = stack.pop() {
            if state.budget == 0 {
                complete = false;
                state.stats.budget_exhausted = true;
                break;
            }
            if state.stats.steps & INTERRUPT_POLL_MASK == 0 && state.interrupted() {
                complete = false;
                state.stats.interrupted = true;
                break;
            }
            state.budget -= 1;
            state.stats.steps += 1;

            // Allocation seeds.
            let allocs = self.pag.allocs_into(node);
            if !allocs.is_empty() {
                let cur_ctx = self.interner.resolve(cur);
                for &site in allocs {
                    objects.insert((site, cur_ctx.clone()));
                    if depth == 0 {
                        if let Some(tape) = state.witness.as_mut() {
                            tape.found.push((site, cur, (node, cur)));
                        }
                    }
                }
            }

            // Statics erase context.
            let erase = matches!(self.pag.node_info(node), Node::Static(_));

            // Copy edges (with CFL parenthesis matching).
            for &(src, label) in self.pag.edges_into(node) {
                let next_ctx = match label {
                    EdgeLabel::None => {
                        if erase {
                            Some(CtxId::EMPTY)
                        } else {
                            Some(cur)
                        }
                    }
                    // Backwards over arg->param: leaving the callee.
                    EdgeLabel::Enter(cs) => self.interner.pop_matching(cur, cs),
                    // Backwards over ret->dst: entering the callee.
                    EdgeLabel::Exit(cs) => Some(self.interner.push(cur, cs)),
                };
                if let Some(nc) = next_ctx {
                    if visited.insert((src, nc)) {
                        if depth == 0 {
                            if let Some(tape) = state.witness.as_mut() {
                                let kind = match label {
                                    EdgeLabel::None if erase => WitnessKind::StaticErase,
                                    EdgeLabel::None => WitnessKind::Assign,
                                    EdgeLabel::Enter(cs) => WitnessKind::ParamBind(cs),
                                    EdgeLabel::Exit(cs) => WitnessKind::ReturnBind(cs),
                                };
                                tape.parent.insert((src, nc), ((node, cur), kind));
                            }
                        }
                        stack.push((src, nc));
                    }
                }
            }

            // Field loads: match against may-aliased stores.
            if let Some(loads) = self.loads_by_dst.get(&node) {
                for load in loads {
                    let base_result = self.query(load.base, cur, state, depth + 1);
                    if !base_result.complete {
                        complete = false;
                    }
                    let base_sites = base_result.sites();
                    for store in self.pag.stores_of(load.field) {
                        let sbase_result = self.query(store.base, CtxId::EMPTY, state, depth + 1);
                        if !sbase_result.complete {
                            complete = false;
                        }
                        let alias = !base_result.complete
                            || !sbase_result.complete
                            || sbase_result.sites().iter().any(|s| base_sites.contains(s));
                        if alias {
                            let entry = (store.src, CtxId::EMPTY);
                            if visited.insert(entry) {
                                if depth == 0 {
                                    if let Some(tape) = state.witness.as_mut() {
                                        tape.parent.insert(
                                            entry,
                                            ((node, cur), WitnessKind::HeapMatch(load.field)),
                                        );
                                    }
                                }
                                stack.push(entry);
                            }
                        }
                    }
                }
            }
        }

        PtResult { objects, complete }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakchecker_callgraph::{Algorithm, CallGraph};
    use leakchecker_frontend::compile;
    use leakchecker_ir::ids::LocalId;
    use leakchecker_ir::Program;

    const BUDGET: usize = 100_000;

    /// The answer for `node` under the empty context.
    fn pt(e: &DemandPointsTo<'_>, node: Node) -> PtResult {
        e.points_to(node, &Context::empty(), &QueryTicket::hermetic(BUDGET))
            .0
    }

    struct Fixture {
        program: Program,
        pag: Pag,
    }

    impl Fixture {
        fn new(src: &str) -> Fixture {
            let unit = compile(src).unwrap();
            let cg = CallGraph::build(&unit.program, Algorithm::Rta);
            let pag = Pag::build(&unit.program, &cg);
            Fixture {
                program: unit.program,
                pag,
            }
        }

        fn engine(&self) -> DemandPointsTo<'_> {
            DemandPointsTo::new(&self.program, &self.pag, DemandConfig::default())
        }

        fn local(&self, path: &str, name: &str) -> Node {
            let m = self.program.method_by_path(path).unwrap();
            let idx = self
                .program
                .method(m)
                .locals
                .iter()
                .position(|l| l.name == name)
                .unwrap_or_else(|| panic!("no local {name}"));
            Node::Local(m, LocalId::from_index(idx))
        }
    }

    #[test]
    fn direct_allocation() {
        let f = Fixture::new("class C { static void main() { C x = new C(); } }");
        let e = f.engine();
        let r = pt(&e, f.local("C.main", "x"));
        assert!(r.complete);
        assert_eq!(r.objects.len(), 1);
    }

    #[test]
    fn context_sensitivity_distinguishes_call_sites() {
        // The id() factory: Andersen merges, the demand engine does not.
        let f = Fixture::new(
            "class C {
               static C id(C v) { return v; }
               static void main() {
                 C a = new C();
                 C b = new C();
                 C x = C.id(a);
                 C y = C.id(b);
               }
             }",
        );
        let e = f.engine();
        let rx = pt(&e, f.local("C.main", "x"));
        let ry = pt(&e, f.local("C.main", "y"));
        assert!(rx.complete && ry.complete);
        assert_eq!(rx.sites().len(), 1, "{rx:?}");
        assert_eq!(ry.sites().len(), 1, "{ry:?}");
        assert!(rx.sites().is_disjoint(&ry.sites()));
    }

    #[test]
    fn heap_flow_via_alias_matching() {
        let f = Fixture::new(
            "class Box { Item item; }
             class Item { }
             class Main {
               static void main() {
                 Box b = new Box();
                 Item i = new Item();
                 b.item = i;
                 Item j = b.item;
               }
             }",
        );
        let e = f.engine();
        let rj = pt(&e, f.local("Main.main", "j"));
        assert!(rj.complete);
        assert_eq!(rj.sites(), {
            let ri = pt(&e, f.local("Main.main", "i"));
            ri.sites()
        });
    }

    #[test]
    fn distinct_boxes_do_not_conflate() {
        let f = Fixture::new(
            "class Box { Item item; }
             class Item { }
             class Main {
               static void main() {
                 Box b1 = new Box();
                 Box b2 = new Box();
                 Item i1 = new Item();
                 Item i2 = new Item();
                 b1.item = i1;
                 b2.item = i2;
                 Item j = b1.item;
               }
             }",
        );
        let e = f.engine();
        let rj = pt(&e, f.local("Main.main", "j"));
        assert!(rj.complete);
        // b1.item only holds i1's object.
        assert_eq!(rj.sites().len(), 1);
        let ri1 = pt(&e, f.local("Main.main", "i1"));
        assert_eq!(rj.sites(), ri1.sites());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let f = Fixture::new(
            "class C {
               static C id(C v) { return v; }
               static void main() { C x = C.id(C.id(C.id(new C()))); }
             }",
        );
        let e = f.engine();
        let (r, s, _) = e.points_to(
            f.local("C.main", "x"),
            &Context::empty(),
            &QueryTicket::hermetic(2),
        );
        assert!(!r.complete);
        assert!(s.budget_exhausted);
    }

    #[test]
    fn flows_through_static_erase_context() {
        let f = Fixture::new(
            "class C {
               static C g;
               static void set(C v) { C.g = v; }
               static void main() {
                 C.set(new C());
                 C got = C.g;
               }
             }",
        );
        let e = f.engine();
        let r = pt(&e, f.local("C.main", "got"));
        assert!(r.complete);
        assert_eq!(r.sites().len(), 1);
    }

    #[test]
    fn engine_is_sync_and_answers_concurrently() {
        fn assert_sync<T: Sync>(_: &T) {}
        let f = Fixture::new(
            "class C {
               static C id(C v) { return v; }
               static void main() {
                 C a = new C();
                 C x = C.id(a);
               }
             }",
        );
        let e = f.engine();
        assert_sync(&e);
        let node = f.local("C.main", "x");
        let results: Vec<PtResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4).map(|_| scope.spawn(|| pt(&e, node))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results {
            assert!(r.complete);
            assert_eq!(r.objects, results[0].objects);
        }
        let stats = e.stats();
        assert_eq!(stats.queries, 4);
        assert!(stats.steps > 0);
        assert!(stats.contexts_interned >= 1);
    }

    #[test]
    fn escalated_budget_completes_a_starved_query() {
        let f = Fixture::new(
            "class C {
               static C id(C v) { return v; }
               static void main() { C x = C.id(C.id(C.id(new C()))); }
             }",
        );
        let e = f.engine();
        let node = f.local("C.main", "x");
        let (r, s, _) = e.points_to(node, &Context::empty(), &QueryTicket::hermetic(2));
        assert!(!r.complete);
        assert!(s.budget_exhausted);
        assert!(!s.interrupted);
        let (r2, s2, _) = e.points_to(node, &Context::empty(), &QueryTicket::hermetic(BUDGET));
        assert!(r2.complete, "escalated budget finishes: {s2:?}");
        assert!(!s2.budget_exhausted);
    }

    #[test]
    fn stop_token_interrupts_a_query() {
        let f = Fixture::new("class C { static void main() { C x = new C(); } }");
        let e = f.engine();
        let node = f.local("C.main", "x");
        let stop = AtomicBool::new(true);
        let ticket = QueryTicket {
            stop: Some(&stop),
            ..QueryTicket::hermetic(BUDGET)
        };
        let (r, s, _) = e.points_to(node, &Context::empty(), &ticket);
        assert!(!r.complete);
        assert!(s.interrupted);
        assert!(!s.budget_exhausted);
    }

    #[test]
    fn expired_deadline_interrupts_a_query() {
        let f = Fixture::new("class C { static void main() { C x = new C(); } }");
        let e = f.engine();
        let node = f.local("C.main", "x");
        let ticket = QueryTicket {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..QueryTicket::hermetic(BUDGET)
        };
        let (r, s, _) = e.points_to(node, &Context::empty(), &ticket);
        assert!(!r.complete);
        assert!(s.interrupted);
    }

    #[test]
    fn traced_query_records_a_heap_match_chain() {
        let f = Fixture::new(
            "class Box { Item item; }
             class Item { }
             class Main {
               static void main() {
                 Box b = new Box();
                 Item i = new Item();
                 b.item = i;
                 Item j = b.item;
               }
             }",
        );
        let e = f.engine();
        let ticket = QueryTicket::hermetic(BUDGET);
        let (r, _, witnesses) = e.points_to(f.local("Main.main", "j"), &Context::empty(), &ticket);
        assert!(r.complete);
        assert_eq!(witnesses.len(), 1, "{witnesses:?}");
        let w = &witnesses[0];
        assert!(!w.steps.is_empty(), "chain must have at least one hop");
        assert!(
            w.steps
                .iter()
                .any(|s| matches!(s.kind, WitnessKind::HeapMatch(_))),
            "the load must be justified by a heap match: {:?}",
            w.steps
        );
        // The chain ends at the queried variable.
        assert_eq!(
            w.steps.last().unwrap().to,
            f.local("Main.main", "j"),
            "{:?}",
            w.steps
        );
        // No hop crosses a library boundary in an app-only program.
        assert!(w.steps.iter().all(|s| !s.crosses_library));
    }

    #[test]
    fn repeated_queries_are_deterministic() {
        let f = Fixture::new(
            "class C {
               static C id(C v) { return v; }
               static void main() { C x = C.id(new C()); }
             }",
        );
        let e = f.engine();
        let node = f.local("C.main", "x");
        let ticket = QueryTicket::hermetic(BUDGET);
        let (r1, s1, w1) = e.points_to(node, &Context::empty(), &ticket);
        let (r2, s2, w2) = e.points_to(node, &Context::empty(), &ticket);
        assert!(r1.complete && r2.complete);
        assert_eq!(r1.objects, r2.objects);
        assert!(s1.steps > 0);
        assert_eq!(s1.steps, s2.steps, "step counts depend on the query alone");
        assert_eq!(w1, w2, "witnesses are a function of the query alone");
        assert!(w1.iter().all(|w| w.steps.iter().any(|s| matches!(
            s.kind,
            WitnessKind::ReturnBind(_)
        ) || matches!(
            s.kind,
            WitnessKind::ParamBind(_)
        ))));
    }

    #[test]
    fn witness_tags_library_boundary_and_static_erase() {
        let f = Fixture::new(
            "library class Lib {
               static C make() { C c = new C(); return c; }
             }
             class C {
               static C g;
               static void main() {
                 C.g = Lib.make();
                 C got = C.g;
               }
             }",
        );
        let e = f.engine();
        let ticket = QueryTicket::hermetic(BUDGET);
        let (r, _, witnesses) = e.points_to(f.local("C.main", "got"), &Context::empty(), &ticket);
        assert!(r.complete);
        assert_eq!(witnesses.len(), 1, "{witnesses:?}");
        let steps = &witnesses[0].steps;
        assert!(
            steps.iter().any(|s| s.crosses_library),
            "library-to-app return must be tagged: {steps:?}"
        );
        assert!(
            steps.iter().any(|s| s.kind == WitnessKind::StaticErase),
            "flow through the static erases context: {steps:?}"
        );
    }

    #[test]
    fn batch_matches_individual_queries() {
        // Two factory-returned variables plus a heap round-trip: every
        // batch answer must equal the root's individual hermetic answer.
        let f = Fixture::new(
            "class Box { Item item; }
             class Item { }
             class C {
               static Item id(Item v) { return v; }
               static void main() {
                 Box b = new Box();
                 Item i1 = new Item();
                 Item i2 = new Item();
                 Item x = C.id(i1);
                 Item y = C.id(i2);
                 b.item = i1;
                 Item j = b.item;
               }
             }",
        );
        let e = f.engine();
        let roots = [
            f.local("C.main", "x"),
            f.local("C.main", "y"),
            f.local("C.main", "j"),
            f.local("C.main", "i1"),
        ];
        let ticket = QueryTicket::hermetic(BUDGET);
        let (batch, stats) = e.points_to_batch(&roots, &Context::empty(), &ticket);
        assert_eq!(batch.len(), roots.len());
        assert!(stats.steps > 0);
        for (root, result) in roots.iter().zip(&batch) {
            assert!(result.complete);
            let (solo, _, _) = e.points_to(*root, &Context::empty(), &ticket);
            assert_eq!(
                result.objects, solo.objects,
                "batch answer for {root:?} diverged from the individual query"
            );
        }
        assert_ne!(batch[0].sites(), batch[1].sites(), "contexts stay distinct");
    }

    #[test]
    fn batch_shares_frontier_across_same_method_roots() {
        // Both roots copy from the same load-bearing tail (two levels of
        // heap dereference). Run separately, each query re-derives the
        // alias matching behind both loads; the batch resolves each
        // load-carrying state once and replays the cached successors for
        // the second root, so it must spend fewer steps than the sum.
        let f = Fixture::new(
            "class Box { Item item; }
             class Pack { Box box; }
             class Item { }
             class Main {
               static void main() {
                 Pack p = new Pack();
                 Box b = new Box();
                 Item i = new Item();
                 p.box = b;
                 b.item = i;
                 Box tb = p.box;
                 Item t = tb.item;
                 Item x = t;
                 Item y = t;
               }
             }",
        );
        let e = f.engine();
        let roots = [f.local("Main.main", "x"), f.local("Main.main", "y")];
        let ticket = QueryTicket::hermetic(BUDGET);
        let (r_x, s_x, _) = e.points_to(roots[0], &Context::empty(), &ticket);
        assert_eq!(r_x.objects.len(), 1);
        let (_, s_y, _) = e.points_to(roots[1], &Context::empty(), &ticket);
        let (batch, s_batch) = e.points_to_batch(&roots, &Context::empty(), &ticket);
        assert!(batch.iter().all(|r| r.complete));
        assert!(
            s_batch.steps < s_x.steps + s_y.steps,
            "batch {} steps must undercut separate {} + {}",
            s_batch.steps,
            s_x.steps,
            s_y.steps
        );
    }

    #[test]
    fn batch_is_deterministic() {
        let f = Fixture::new(
            "class C {
               static C id(C v) { return v; }
               static void main() {
                 C a = new C();
                 C x = C.id(a);
                 C y = C.id(C.id(a));
               }
             }",
        );
        let e = f.engine();
        let roots = [f.local("C.main", "x"), f.local("C.main", "y")];
        let ticket = QueryTicket::hermetic(BUDGET);
        let (r1, s1) = e.points_to_batch(&roots, &Context::empty(), &ticket);
        let (r2, s2) = e.points_to_batch(&roots, &Context::empty(), &ticket);
        assert_eq!(s1.steps, s2.steps, "batches repeat exactly");
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(a.objects, b.objects);
            assert_eq!(a.complete, b.complete);
        }
    }

    #[test]
    fn batch_exhaustion_marks_every_root_incomplete() {
        let f = Fixture::new(
            "class C {
               static C id(C v) { return v; }
               static void main() {
                 C x = C.id(C.id(C.id(new C())));
                 C y = new C();
               }
             }",
        );
        let e = f.engine();
        let roots = [f.local("C.main", "x"), f.local("C.main", "y")];
        let (batch, stats) =
            e.points_to_batch(&roots, &Context::empty(), &QueryTicket::hermetic(2));
        assert!(stats.budget_exhausted);
        assert!(
            batch.iter().all(|r| !r.complete),
            "a starved batch must not certify any root complete"
        );
    }

    #[test]
    fn batch_handles_absent_and_duplicate_roots() {
        let f = Fixture::new(
            "class C {
               C unused;
               static void main() { C x = new C(); }
             }",
        );
        let e = f.engine();
        let x = f.local("C.main", "x");
        // A node the PAG never saw: per-root empty complete result.
        let ghost = Node::Local(
            f.program.method_by_path("C.main").unwrap(),
            LocalId::from_index(7),
        );
        let ticket = QueryTicket::hermetic(BUDGET);
        let (batch, _) = e.points_to_batch(&[x, ghost, x], &Context::empty(), &ticket);
        assert_eq!(batch[0].objects.len(), 1);
        assert!(batch[1].objects.is_empty() && batch[1].complete);
        assert_eq!(batch[2].objects, batch[0].objects, "duplicate roots agree");
    }

    #[test]
    fn results_subset_of_andersen() {
        // Differential: every demand answer must be within Andersen's.
        let src = "
            class Node { Node next; Payload p; }
            class Payload { }
            class Main {
              static Node build(int n) {
                Node head = null;
                int i = 0;
                while (i < n) {
                  Node fresh = new Node();
                  fresh.next = head;
                  fresh.p = new Payload();
                  head = fresh;
                  i = i + 1;
                }
                return head;
              }
              static void main() {
                Node list = Main.build(10);
                Node cur = list;
                while (cur != null) {
                  Payload q = cur.p;
                  cur = cur.next;
                }
              }
            }";
        let f = Fixture::new(src);
        let e = f.engine();
        let andersen = crate::andersen::Andersen::run(&f.program, &f.pag);
        for (path, name) in [
            ("Main.main", "list"),
            ("Main.main", "cur"),
            ("Main.main", "q"),
            ("Main.build", "head"),
            ("Main.build", "fresh"),
        ] {
            let node = f.local(path, name);
            let demand = pt(&e, node);
            if demand.complete {
                let exhaustive = andersen.points_to_node(&f.pag, node);
                for site in demand.sites() {
                    assert!(
                        exhaustive.contains(&site),
                        "{path}.{name}: demand found {site} missing from Andersen"
                    );
                }
            }
        }
    }
}
