//! The abstract interpreter implementing the type-and-effect system.
//!
//! The analysis runs from the program entry, abstractly executing the
//! structured IR with bounded call inlining. Allocation sites executed
//! (abstractly) under the designated loop are *inside* sites; their types
//! start each iteration as `ĉ` (rule TNew). At the start of every abstract
//! iteration of the designated loop the aging operator `⊕` is applied to
//! the environment and the abstract heap (rule TWhile); loads through
//! bases that persist across iterations re-establish `f̂` for the loaded
//! objects; the loop body is re-analyzed until the whole abstract state
//! stabilizes (the TWhile fixed point).
//!
//! The final per-site ERA is the join of the site's eras over every
//! occurrence *reachable* in the final state: bindings in the environment,
//! static fields, and abstract-heap cells whose base is itself reachable
//! (an outside object is always reachable — something outside the loop
//! refers to it). Heap cells whose iteration-local container died with its
//! iteration are thereby garbage-collected from the report, which is what
//! keeps truly iteration-local structures classified `ĉ`.
//!
//! # Parallel (Jacobi) rounds
//!
//! With [`EffectConfig::jobs`] ≠ 1 the designated-loop fixpoint runs each
//! abstract iteration as a *round* of independent regions: the loop body
//! is partitioned (see `partition.rs`) so that no abstract fact can flow
//! between two regions within one iteration, every region executes
//! against an immutable snapshot of the post-aging heap, and the
//! per-region deltas (heap overlay, written locals, effect sets) are
//! merged back in a fixed region order. Because the regions are truly
//! independent, each round reproduces the sequential iteration's
//! post-state *exactly* — same environments, heap, effect sets, iteration
//! count, and truncation flag — not merely the same fixpoint, which is
//! what keeps [`EffectSummary`] byte-identical at every job count.

use crate::domain::{AbsEffect, AbsType, EffectBase, TypeKey, Val};
use crate::era::Era;
use crate::partition::{partition, Region};
use leakchecker_callgraph::CallGraph;
use leakchecker_ir::ids::{AllocSite, FieldId, LocalId, LoopId, MethodId};
use leakchecker_ir::stmt::Stmt;
use leakchecker_ir::Program;
use leakchecker_parallel::{effective_jobs, parallel_map};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Analysis configuration.
#[derive(Copy, Clone, Debug)]
pub struct EffectConfig {
    /// Maximum distinct allocation sites per abstract value before
    /// collapsing to `⊤`. Bound 1 reproduces the paper's formal domain.
    pub type_set_bound: usize,
    /// Maximum call-inlining depth.
    pub max_inline_depth: usize,
    /// Cap on abstract iterations per loop fixed point.
    pub max_fixpoint_iters: usize,
    /// Treat started `Thread` objects as outside objects (the Mikou case
    /// study's workaround): objects captured by a thread on which
    /// `start()` was invoked escape regardless of the thread's own ERA.
    pub model_threads: bool,
    /// Worker threads for the designated-loop Jacobi rounds: `1` runs the
    /// classic sequential walk (the default), `0` uses one worker per
    /// hardware thread, `n` uses `n` workers. Results are identical at
    /// every value.
    pub jobs: usize,
}

impl Default for EffectConfig {
    fn default() -> Self {
        EffectConfig {
            type_set_bound: 8,
            max_inline_depth: 24,
            max_fixpoint_iters: 40,
            model_threads: false,
            jobs: 1,
        }
    }
}

/// The analysis result.
#[derive(Clone, Debug, Default)]
pub struct EffectSummary {
    /// Final ERA per allocation site (sites never abstractly executed are
    /// absent).
    pub eras: HashMap<AllocSite, Era>,
    /// Abstract store effects (Ψ̃), deduplicated.
    pub stores: BTreeSet<AbsEffect>,
    /// Abstract load effects (Ω̃), deduplicated.
    pub loads: BTreeSet<AbsEffect>,
    /// Sites abstractly executed under the designated loop.
    pub inside_sites: BTreeSet<AllocSite>,
    /// Object keys that were returned from a library method to
    /// application code (satisfying the stronger flows-in condition of
    /// paper Section 4).
    pub returned_from_library: BTreeSet<TypeKey>,
    /// Object keys of `Thread` instances on which `start()` was called
    /// (only populated under [`EffectConfig::model_threads`]).
    pub started_threads: BTreeSet<TypeKey>,
    /// `true` if inlining depth, recursion, or a fixpoint cap truncated
    /// the analysis (results may under-approximate).
    pub truncated: bool,
    /// Abstract iterations executed across designated-loop fixpoints.
    /// Identical at every job count (each parallel round reproduces one
    /// sequential iteration exactly).
    pub rounds: usize,
    /// Regions in the largest designated-loop partition actually run on
    /// the parallel path; `0` when the sequential path ran. Telemetry
    /// only — depends on the resolved worker count, so it is excluded
    /// from cross-width equivalence comparisons.
    pub regions: usize,
}

impl EffectSummary {
    /// The ERA of a site ([`Era::Outside`] when never observed inside).
    pub fn era(&self, site: AllocSite) -> Era {
        self.eras.get(&site).copied().unwrap_or(Era::Outside)
    }
}

/// Runs the analysis: abstractly execute from `entry` (or the program
/// entry), treating `designated` as the checked loop.
pub fn analyze(
    program: &Program,
    callgraph: &CallGraph,
    designated: LoopId,
    config: EffectConfig,
) -> EffectSummary {
    let entry = program.entry().expect("program has an entry point");
    analyze_from(program, callgraph, entry, designated, config)
}

/// Like [`analyze`], but starting at an explicit root method (used for
/// checkable regions, where the detector wraps a method in an artificial
/// loop that has no real call path from `main`).
pub fn analyze_from(
    program: &Program,
    callgraph: &CallGraph,
    root: MethodId,
    designated: LoopId,
    config: EffectConfig,
) -> EffectSummary {
    let mut interp = AbstractInterp {
        program,
        callgraph,
        config,
        designated,
        heap: HeapView::default(),
        stores: BTreeSet::new(),
        loads: BTreeSet::new(),
        inside_sites: BTreeSet::new(),
        loop_depth: 0,
        call_stack: vec![root],
        returned_from_library: BTreeSet::new(),
        started_threads: BTreeSet::new(),
        truncated: false,
        final_roots: Vec::new(),
        top_escape: false,
        in_region: false,
        rounds: 0,
        region_count: 0,
    };
    let mut env = Env::default();
    let nlocals = program.method(root).locals.len();
    env.locals = vec![Val::Bottom; nlocals];
    interp.exec_method_body(root, &mut env);
    interp.final_roots.push(env);
    interp.finish()
}

/// One abstract frame: values of the current method's locals.
///
/// Public (but hidden) so the lattice-law property tests can exercise
/// [`join_env`]/[`age_env`] on arbitrary frames; not part of the stable
/// API.
#[doc(hidden)]
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Env {
    pub locals: Vec<Val>,
    /// Join of all values returned so far from this frame.
    pub ret: Val,
}

/// Which generation of container instances a heap cell describes.
///
/// Abstract-heap cells are addressed by the base type's *generation*
/// rather than its exact ERA, so a cell written through a `ĉ` base in one
/// iteration is found again when the same container is reached through an
/// `f̂`/`⊤̂` base in a later iteration (both are "old" instances), while
/// cells of containers that died with their iteration stay separate from
/// the fresh instances of the next one.
#[doc(hidden)]
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Gen {
    /// Containers created outside the designated loop.
    Outside,
    /// Containers created in the current abstract iteration.
    Fresh,
    /// Containers surviving from earlier iterations.
    Old,
}

#[doc(hidden)]
pub fn gen_of(era: Era) -> Gen {
    match era {
        Era::Outside => Gen::Outside,
        Era::Current => Gen::Fresh,
        Era::Future | Era::Top => Gen::Old,
    }
}

#[doc(hidden)]
pub type HeapKey = (TypeKey, Gen, FieldId);

/// The abstract heap as a (possibly layered) view: an optional immutable
/// snapshot shared by every region of a Jacobi round, overlaid by a local
/// delta map. On the sequential path `base` is `None` and `local` *is*
/// the heap, reproducing the original single-map behavior bit for bit.
///
/// While a plain loop is open, every effective change to a cell is
/// logged with the cell's prior value, so the loop can tell whether an
/// iteration changed the heap from the cells it touched instead of
/// cloning and comparing the whole heap (see [`HeapView::changed_since`]).
#[derive(Clone, Debug, Default)]
struct HeapView {
    base: Option<Arc<BTreeMap<HeapKey, Val>>>,
    local: BTreeMap<HeapKey, Val>,
    /// Effective changes in order, each with the cell's prior value
    /// (`None`: the cell was absent). Only kept while `open_loops > 0`.
    undo: Vec<(HeapKey, Option<Val>)>,
    /// Plain loops currently executing.
    open_loops: usize,
}

/// The change log of the plain loops enclosing a designated loop, set
/// aside while its fixpoint runs (see [`HeapView::suspend_log`]).
struct SuspendedLog {
    undo: Vec<(HeapKey, Option<Val>)>,
    open_loops: usize,
    before: BTreeMap<HeapKey, Val>,
}

impl HeapView {
    /// The cell's effective value; `None` when absent (≠ `⊥`).
    fn lookup(&self, key: &HeapKey) -> Option<&Val> {
        self.local
            .get(key)
            .or_else(|| self.base.as_ref().and_then(|b| b.get(key)))
    }

    fn get(&self, key: &HeapKey) -> Val {
        self.lookup(key).cloned().unwrap_or(Val::Bottom)
    }

    fn log(&mut self, key: HeapKey, prior: Option<Val>) {
        if self.open_loops > 0 {
            self.undo.push((key, prior));
        }
    }

    /// Weak update: joins `val` into the cell. Mirrors the sequential
    /// `entry(key).or_default()` discipline exactly — in particular a
    /// previously absent key is materialized even when the joined value
    /// stays `⊥`, because convergence checks distinguish absent cells
    /// from `⊥` cells.
    fn store_join(&mut self, key: HeapKey, val: Val, bound: usize) {
        let prior = self.lookup(&key).cloned();
        let cur = prior.as_ref().unwrap_or(&Val::Bottom);
        let new = cur.join(&val, bound);
        if prior.as_ref() != Some(&new) {
            self.local.insert(key, new);
            self.log(key, prior);
        }
    }

    /// Strong update (flow-back reclassification). Callers only invoke
    /// this on a present cell whose value actually changes, so the
    /// overlay entry always differs from the snapshot underneath it.
    fn set(&mut self, key: HeapKey, val: Val) {
        let old = self.local.insert(key, val);
        if self.open_loops > 0 {
            let prior = old.or_else(|| self.base.as_ref().and_then(|b| b.get(&key)).cloned());
            self.undo.push((key, prior));
        }
    }

    /// Did the effective heap change since the log held `mark` entries?
    /// A cell changed iff its value now differs from the prior value of
    /// its first logged change after `mark` — a cell that changed and
    /// changed back within the span counts as unchanged, exactly as a
    /// whole-heap comparison would see it.
    fn changed_since(&self, mark: usize) -> bool {
        let mut seen: HashSet<HeapKey> = HashSet::new();
        self.undo[mark..]
            .iter()
            .any(|(key, prior)| seen.insert(*key) && self.lookup(key) != prior.as_ref())
    }

    /// Sets the enclosing plain loops' log aside before a designated
    /// loop, whose aging and round merges rewrite the heap wholesale
    /// without per-cell logging. `None` when no plain loop is open.
    fn suspend_log(&mut self) -> Option<SuspendedLog> {
        (self.open_loops > 0).then(|| SuspendedLog {
            undo: std::mem::take(&mut self.undo),
            open_loops: std::mem::take(&mut self.open_loops),
            before: self.local.clone(),
        })
    }

    /// Restores a suspended log, appending the designated loop's net
    /// effect as one change per differing cell.
    fn resume_log(&mut self, suspended: SuspendedLog) {
        let SuspendedLog {
            undo,
            open_loops,
            before,
        } = suspended;
        self.undo = undo;
        self.open_loops = open_loops;
        for key in self.local.keys() {
            if !before.contains_key(key) {
                self.undo.push((*key, None));
            }
        }
        for (key, prior) in before {
            if self.local.get(&key) != Some(&prior) {
                self.undo.push((key, Some(prior)));
            }
        }
    }

    /// Every key of `field` in the effective heap, in key order (the
    /// order the sequential single-map walk would enumerate them).
    fn field_keys(&self, field: FieldId) -> Vec<HeapKey> {
        let local = self.local.keys().filter(|(_, _, f)| *f == field).cloned();
        match &self.base {
            None => local.collect(),
            Some(b) => {
                let mut keys: BTreeSet<HeapKey> =
                    b.keys().filter(|(_, _, f)| *f == field).cloned().collect();
                keys.extend(local);
                keys.into_iter().collect()
            }
        }
    }
}

/// Everything one region of a Jacobi round produces, merged back into
/// the main interpreter in fixed region order. Of the frame, only what
/// the merge takes: the final values of the region's written locals (in
/// `Region::writes` order) and its `ret`.
struct RegionOutcome {
    overlay: BTreeMap<HeapKey, Val>,
    writes: Vec<Val>,
    ret: Val,
    stores: BTreeSet<AbsEffect>,
    loads: BTreeSet<AbsEffect>,
    inside_sites: BTreeSet<AllocSite>,
    returned_from_library: BTreeSet<TypeKey>,
    started_threads: BTreeSet<TypeKey>,
    final_roots: Vec<Env>,
    truncated: bool,
    top_escape: bool,
}

struct AbstractInterp<'a> {
    program: &'a Program,
    callgraph: &'a CallGraph,
    config: EffectConfig,
    designated: LoopId,
    /// Abstract heap H: (base type, field) → stored value. Static fields
    /// live under `TypeKey::Globals` with era `0̂`.
    heap: HeapView,
    stores: BTreeSet<AbsEffect>,
    loads: BTreeSet<AbsEffect>,
    inside_sites: BTreeSet<AllocSite>,
    /// > 0 while abstractly inside the designated loop.
    loop_depth: usize,
    call_stack: Vec<MethodId>,
    returned_from_library: BTreeSet<TypeKey>,
    started_threads: BTreeSet<TypeKey>,
    truncated: bool,
    /// Environments captured for the final reachability report.
    final_roots: Vec<Env>,
    /// Set when a `⊤` value was stored through a persistent base inside
    /// the loop: any inside object may have escaped, so every inside site
    /// is conservatively reported `⊤̂` (only reachable when the value
    /// domain collapses, e.g. under the formal bound-1 configuration).
    top_escape: bool,
    /// `true` while executing one region of a Jacobi round: forces any
    /// (structurally impossible) nested designated-loop fixpoint onto
    /// the sequential path.
    in_region: bool,
    /// Designated-loop abstract iterations executed so far.
    rounds: usize,
    /// Largest partition actually run on the parallel path.
    region_count: usize,
}

impl AbstractInterp<'_> {
    fn bound(&self) -> usize {
        self.config.type_set_bound
    }

    fn inside(&self) -> bool {
        self.loop_depth > 0
    }

    /// The method whose body is currently being abstractly executed.
    fn current_method(&self) -> MethodId {
        *self.call_stack.last().expect("call stack holds the root")
    }

    /// Is the current code standard-library code?
    fn in_library(&self) -> bool {
        self.program.is_library_method(self.current_method())
    }

    fn exec_method_body(&mut self, method: MethodId, env: &mut Env) {
        // Clone the body: the program is immutable, the clone avoids
        // borrowing `self.program` across the recursive walk.
        let body = self.program.method(method).body.clone();
        self.exec_stmts(&body, env);
    }

    fn exec_stmts(&mut self, stmts: &[Stmt], env: &mut Env) {
        for stmt in stmts {
            self.exec_stmt(stmt, env);
        }
    }

    fn heap_load(&self, key: &HeapKey) -> Val {
        self.heap.get(key)
    }

    fn heap_store(&mut self, key: HeapKey, val: Val) {
        let bound = self.bound();
        self.heap.store_join(key, val, bound);
    }

    /// All heap keys a base value can denote. `⊤` bases touch every key of
    /// the field (conservative).
    fn keys_for_base(&self, base: &Val, field: FieldId) -> Vec<HeapKey> {
        match base {
            Val::Bottom => Vec::new(),
            Val::Top => self.heap.field_keys(field),
            Val::Types(_) => base
                .types()
                .map(|t| (t.key, gen_of(t.era), field))
                .collect(),
        }
    }

    fn exec_stmt(&mut self, stmt: &Stmt, env: &mut Env) {
        match stmt {
            Stmt::New { dst, site, .. } | Stmt::NewArray { dst, site, .. } => {
                let era = if self.inside() {
                    self.inside_sites.insert(*site);
                    Era::Current
                } else {
                    Era::Outside
                };
                env.locals[dst.index()] = Val::one(AbsType::site(*site, era));
            }
            Stmt::Assign { dst, src } => {
                env.locals[dst.index()] = env.locals[src.index()].clone();
            }
            Stmt::AssignNull { dst } => {
                env.locals[dst.index()] = Val::Bottom;
            }
            Stmt::Const { .. } | Stmt::NonDetBool { .. } | Stmt::BinOp { .. } | Stmt::Nop => {}
            Stmt::Store { base, field, src } => {
                self.do_store(env, *base, *field, *src);
            }
            Stmt::ArrayStore { base, src, .. } => {
                self.do_store(env, *base, leakchecker_ir::ids::ARRAY_ELEM_FIELD, *src);
            }
            Stmt::Load { dst, base, field } => {
                self.do_load(env, *dst, *base, *field);
            }
            Stmt::ArrayLoad { dst, base, .. } => {
                self.do_load(env, *dst, *base, leakchecker_ir::ids::ARRAY_ELEM_FIELD);
            }
            Stmt::StaticStore { field, src } => {
                if !self.program.field(*field).ty.is_reference() {
                    return;
                }
                let val = env.locals[src.index()].clone();
                let key = (TypeKey::Globals, Gen::Outside, *field);
                let inside = self.inside();
                let in_library = self.in_library();
                for ty in val.types() {
                    self.stores.insert(AbsEffect {
                        value: ty,
                        field: *field,
                        base: EffectBase::Type(AbsType::new(TypeKey::Globals, Era::Outside)),
                        inside_loop: inside,
                        in_library,
                    });
                }
                self.heap_store(key, val);
            }
            Stmt::StaticLoad { dst, field } => {
                if !self.program.field(*field).ty.is_reference() {
                    return;
                }
                let key = (TypeKey::Globals, Gen::Outside, *field);
                let loaded = self.heap_load(&key);
                let adjusted = self.flow_back_adjust(&loaded, Era::Outside, key);
                let inside = self.inside();
                let in_library = self.in_library();
                for ty in adjusted.types() {
                    self.loads.insert(AbsEffect {
                        value: ty,
                        field: *field,
                        base: EffectBase::Type(AbsType::new(TypeKey::Globals, Era::Outside)),
                        inside_loop: inside,
                        in_library,
                    });
                }
                env.locals[dst.index()] = adjusted;
            }
            Stmt::Call {
                dst,
                method,
                receiver,
                args,
                site,
                ..
            } => {
                let mut targets: Vec<MethodId> = self.callgraph.targets(*site).to_vec();
                if targets.is_empty() {
                    targets.push(*method);
                }
                // Thread modeling: `t.start()` marks the receiver objects
                // as started threads (treated as outside objects by the
                // detector).
                if self.config.model_threads && self.program.method(*method).name == "start" {
                    if let Some(r) = receiver {
                        if self.is_thread_typed(env, *r) {
                            for ty in env.locals[r.index()].types() {
                                self.started_threads.insert(ty.key);
                            }
                        }
                    }
                }
                let caller_is_app = !self.in_library();
                let mut ret = Val::Bottom;
                for target in targets {
                    if self.call_stack.contains(&target)
                        || self.call_stack.len() >= self.config.max_inline_depth
                    {
                        // Recursion or depth cut: skip the body. Results
                        // may under-approximate; flagged as truncated.
                        self.truncated = true;
                        ret = Val::Top;
                        continue;
                    }
                    let callee = self.program.method(target);
                    let mut callee_env = Env {
                        locals: vec![Val::Bottom; callee.locals.len()],
                        ret: Val::Bottom,
                    };
                    let mut slot = 0;
                    if !callee.is_static {
                        if let Some(r) = receiver {
                            callee_env.locals[0] = env.locals[r.index()].clone();
                        }
                        slot = 1;
                    }
                    for (i, a) in args.iter().enumerate() {
                        if slot + i < callee_env.locals.len() {
                            callee_env.locals[slot + i] = env.locals[a.index()].clone();
                        }
                    }
                    self.call_stack.push(target);
                    self.exec_method_body(target, &mut callee_env);
                    self.call_stack.pop();
                    // Crossing the library → application boundary with a
                    // return value satisfies the stronger flows-in
                    // condition for the returned objects.
                    if caller_is_app && self.program.is_library_method(target) {
                        for ty in callee_env.ret.types() {
                            self.returned_from_library.insert(ty.key);
                        }
                    }
                    ret = ret.join(&callee_env.ret, self.bound());
                    // Keep the callee frame as a reachability root: values
                    // it held may pin heap cells observed by the report.
                    self.final_roots.push(callee_env);
                }
                if let Some(d) = dst {
                    if self.program.method(*method).ret_ty.is_reference() || ret.is_top() {
                        env.locals[d.index()] = ret;
                    }
                }
            }
            Stmt::Return(v) => {
                if let Some(v) = v {
                    let val = env.locals[v.index()].clone();
                    env.ret = env.ret.join(&val, self.bound());
                }
                // Over-approximation: execution abstractly continues past
                // the return; later statements only add may-facts.
            }
            Stmt::Break | Stmt::Continue => {
                // Over-approximation: treated as fallthrough.
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                let mut then_env = env.clone();
                let mut else_env = env.clone();
                self.exec_stmts(then_branch, &mut then_env);
                self.exec_stmts(else_branch, &mut else_env);
                *env = join_env(&then_env, &else_env, self.bound());
            }
            Stmt::While { id, body, .. } => {
                if *id == self.designated {
                    self.exec_designated_loop(body, env);
                } else {
                    self.exec_plain_loop(body, env);
                }
            }
        }
    }

    /// Does the receiver's declared class descend from a class named
    /// `Thread`? (Name-based recognition: the mini-JDK flags its thread
    /// class this way.)
    fn is_thread_typed(&self, env: &Env, receiver: LocalId) -> bool {
        let thread = match self.program.class_by_name("Thread") {
            Some(c) => c,
            None => return false,
        };
        // Check via the abstract value's allocation sites.
        env.locals[receiver.index()].types().any(|t| match t.key {
            TypeKey::Site(site) => self
                .program
                .alloc(site)
                .ty
                .class()
                .is_some_and(|c| self.program.is_subclass(c, thread)),
            TypeKey::Globals => false,
        }) || env.locals[receiver.index()].is_top()
    }

    fn do_store(&mut self, env: &mut Env, base: LocalId, field: FieldId, src: LocalId) {
        let base_val = env.locals[base.index()].clone();
        let src_val = env.locals[src.index()].clone();
        if src_val.is_bottom() {
            // Null store: the formal system performs no strong update
            // (the documented destructive-update imprecision).
            return;
        }
        let inside = self.inside();
        if inside && src_val.is_top() && base_val.may_persist() {
            self.top_escape = true;
        }
        // Record effects.
        let bases: Vec<EffectBase> = match &base_val {
            Val::Top => vec![EffectBase::Top],
            _ => base_val.types().map(EffectBase::Type).collect(),
        };
        let in_library = self.in_library();
        for b in &bases {
            for ty in src_val.types() {
                self.stores.insert(AbsEffect {
                    value: ty,
                    field,
                    base: *b,
                    inside_loop: inside,
                    in_library,
                });
            }
        }
        // Update the abstract heap (weak).
        for key in self.keys_for_base(&base_val, field) {
            self.heap_store(key, src_val.clone());
        }
        if base_val.is_top() {
            // Store through ⊤: conservatively taint every existing cell of
            // this field — handled above via keys_for_base.
        }
    }

    fn do_load(&mut self, env: &mut Env, dst: LocalId, base: LocalId, field: FieldId) {
        let base_val = env.locals[base.index()].clone();
        let mut loaded = Val::Bottom;
        let inside = self.inside();
        match &base_val {
            Val::Bottom => {}
            Val::Top => {
                // Load through ⊤: join every cell of the field.
                for key in self.keys_for_base(&base_val, field) {
                    let cell = self.heap_load(&key);
                    // A ⊤ base may be any persisting object.
                    let adjusted = self.flow_back_adjust(&cell, Era::Top, key);
                    loaded = loaded.join(&adjusted, self.bound());
                }
                let in_library = self.in_library();
                for ty in loaded.types() {
                    self.loads.insert(AbsEffect {
                        value: ty,
                        field,
                        base: EffectBase::Top,
                        inside_loop: inside,
                        in_library,
                    });
                }
            }
            Val::Types(_) => {
                for bty in base_val.types() {
                    let key = (bty.key, gen_of(bty.era), field);
                    let cell = self.heap_load(&key);
                    let adjusted = self.flow_back_adjust(&cell, bty.era, key);
                    let in_library = self.in_library();
                    for ty in adjusted.types() {
                        self.loads.insert(AbsEffect {
                            value: ty,
                            field,
                            base: EffectBase::Type(bty),
                            inside_loop: inside,
                            in_library,
                        });
                    }
                    loaded = loaded.join(&adjusted, self.bound());
                }
            }
        }
        env.locals[dst.index()] = loaded;
    }

    /// Rule TLoad's flow-back update: loading an inside object through a
    /// base that persists across iterations proves the object can be used
    /// in an iteration after the one that created it, so its ERA becomes
    /// `f̂` — both in the loaded value and (strong update) in the heap
    /// cell, which is how a cell that was aged to `⊤̂` is reclassified as
    /// properly carried-over.
    fn flow_back_adjust(&mut self, cell: &Val, base_era: Era, key: HeapKey) -> Val {
        if !self.inside() || !base_era.persists() {
            return cell.clone();
        }
        match cell {
            Val::Types(m) => {
                let adjusted: BTreeMap<TypeKey, Era> =
                    m.iter().map(|(&k, &e)| (k, e.flow_back())).collect();
                let new = Val::Types(adjusted);
                if new != *cell {
                    self.heap.set(key, new.clone());
                }
                new
            }
            other => other.clone(),
        }
    }

    /// A non-designated loop: plain fixed point, no iteration semantics.
    ///
    /// Note the convergence criterion is environment + heap only; the
    /// designated loop additionally watches the effect-log lengths. The
    /// asymmetry is deliberate (and test-pinned): a plain loop that adds
    /// a new effect necessarily also changes an environment value or a
    /// heap cell *or* repeats an effect already recorded, because effects
    /// are keyed by the abstract values involved — whereas a designated
    /// loop's aging operator can cycle the same env/heap while the
    /// `inside_loop` flag of freshly recorded effects still changes.
    ///
    /// Whether the heap changed is read off the heap's change log (see
    /// [`HeapView::changed_since`]), which costs the cells the iteration
    /// touched — not a clone and compare of the whole heap, which on the
    /// sequential path is the whole program's heap, every iteration.
    fn exec_plain_loop(&mut self, body: &[Stmt], env: &mut Env) {
        let mut state = env.clone();
        let mut stable = false;
        self.heap.open_loops += 1;
        for _ in 0..self.config.max_fixpoint_iters {
            let mark = self.heap.undo.len();
            let mut iter_env = state.clone();
            self.exec_stmts(body, &mut iter_env);
            let joined = join_env(&state, &iter_env, self.bound());
            let heap_changed = self.heap.changed_since(mark);
            if self.heap.open_loops == 1 {
                // Outermost open loop: no enclosing iteration needs the
                // entries any more.
                self.heap.undo.clear();
            }
            stable = joined == state && !heap_changed;
            state = joined;
            if stable {
                break;
            }
        }
        self.heap.open_loops -= 1;
        if !stable {
            self.truncated = true;
        }
        *env = state;
    }

    /// The designated loop: rule TWhile with iteration aging. Each
    /// abstract iteration runs either sequentially or as one parallel
    /// Jacobi round; the two produce identical post-states, so iteration
    /// counts, truncation, and every summary component agree. Each round
    /// compares the whole heap once: aging rewrites every cell anyway.
    fn exec_designated_loop(&mut self, body: &[Stmt], env: &mut Env) {
        let outer_log = self.heap.suspend_log();
        self.loop_depth += 1;
        let workers = effective_jobs(self.config.jobs);
        let regions = if workers > 1 && !self.in_region {
            partition(
                self.program,
                self.callgraph,
                self.current_method(),
                &self.call_stack,
                self.config.max_inline_depth,
                body,
            )
        } else {
            Vec::new()
        };
        // A single region would serialize through parallel_map for
        // nothing; the sequential walk is the same computation.
        let parallel = regions.len() >= 2;
        if parallel {
            self.region_count = self.region_count.max(regions.len());
        }
        let mut state = env.clone();
        let mut stable = false;
        for _ in 0..self.config.max_fixpoint_iters {
            let heap_before = self.heap.local.clone();
            let stores_before = self.stores.len();
            let loads_before = self.loads.len();
            // ⊕: age the environment and the heap at the iteration start.
            let mut iter_env = age_env(&state);
            self.age_heap();
            self.rounds += 1;
            if parallel {
                self.exec_round_parallel(&regions, body, &mut iter_env, workers);
            } else {
                self.exec_stmts(body, &mut iter_env);
            }
            let joined = join_env(&state, &iter_env, self.bound());
            if joined == state
                && self.heap.local == heap_before
                && self.stores.len() == stores_before
                && self.loads.len() == loads_before
            {
                state = joined;
                stable = true;
                break;
            }
            state = joined;
        }
        if !stable {
            self.truncated = true;
        }
        self.loop_depth -= 1;
        if let Some(log) = outer_log {
            self.heap.resume_log(log);
        }
        *env = state;
    }

    /// One Jacobi round: every region executes against an immutable
    /// snapshot of the post-aging heap, then the deltas are merged in
    /// region order. The partition guarantees the regions are
    /// independent, so the merge order only matters for determinism, not
    /// for the result: overlapping overlay entries can only come from
    /// concurrent loads of the same untouched cell, whose idempotent
    /// flow-back adjustments write identical values.
    fn exec_round_parallel(
        &mut self,
        regions: &[Region],
        body: &[Stmt],
        iter_env: &mut Env,
        workers: usize,
    ) {
        debug_assert!(self.heap.base.is_none(), "rounds run on the main heap");
        let snapshot = Arc::new(std::mem::take(&mut self.heap.local));
        let program = self.program;
        let callgraph = self.callgraph;
        let config = self.config;
        let designated = self.designated;
        let loop_depth = self.loop_depth;
        let call_stack = &self.call_stack;
        let base_env = &*iter_env;
        let snap = &snapshot;
        // Schedule big regions first (work-stealing drains the singleton
        // tail); results are re-indexed so the merge below still runs in
        // canonical region order.
        let mut order: Vec<usize> = (0..regions.len()).collect();
        order.sort_by_key(|&r| (usize::MAX - regions[r].stmts.len(), r));
        let outcomes = parallel_map(workers, order.clone(), |r: usize| {
            let mut sub = AbstractInterp {
                program,
                callgraph,
                config,
                designated,
                heap: HeapView {
                    base: Some(Arc::clone(snap)),
                    ..HeapView::default()
                },
                stores: BTreeSet::new(),
                loads: BTreeSet::new(),
                inside_sites: BTreeSet::new(),
                loop_depth,
                call_stack: call_stack.clone(),
                returned_from_library: BTreeSet::new(),
                started_threads: BTreeSet::new(),
                truncated: false,
                final_roots: Vec::new(),
                top_escape: false,
                in_region: true,
                rounds: 0,
                region_count: 0,
            };
            let mut env = base_env.clone();
            for &i in &regions[r].stmts {
                sub.exec_stmt(&body[i], &mut env);
            }
            RegionOutcome {
                overlay: sub.heap.local,
                writes: regions[r]
                    .writes
                    .iter()
                    .map(|l| std::mem::take(&mut env.locals[l.index()]))
                    .collect(),
                ret: env.ret,
                stores: sub.stores,
                loads: sub.loads,
                inside_sites: sub.inside_sites,
                returned_from_library: sub.returned_from_library,
                started_threads: sub.started_threads,
                final_roots: sub.final_roots,
                truncated: sub.truncated,
                top_escape: sub.top_escape,
            }
        });
        let mut local =
            Arc::try_unwrap(snapshot).expect("every region dropped its snapshot handle");
        let bound = self.bound();
        let mut slots: Vec<Option<RegionOutcome>> = Vec::with_capacity(regions.len());
        slots.resize_with(regions.len(), || None);
        for (r, out) in order.into_iter().zip(outcomes) {
            slots[r] = Some(out);
        }
        let merged = slots.into_iter().map(|s| s.expect("every region ran"));
        for (region, out) in regions.iter().zip(merged) {
            // Heap delta: plain insert — entries are either for cells no
            // other region touches, or identical flow-back rewrites.
            for (k, v) in out.overlay {
                local.insert(k, v);
            }
            // Environment delta: the partition guarantees each local is
            // written by at most one region (and read by no other), so
            // taking the writer's final value is exact, not a join.
            for (&l, val) in region.writes.iter().zip(out.writes) {
                iter_env.locals[l.index()] = val;
            }
            // `ret` is accumulate-only (never read during execution), so
            // folding the per-region joins reproduces the sequential
            // value by idempotence.
            iter_env.ret = iter_env.ret.join(&out.ret, bound);
            self.stores.extend(out.stores);
            self.loads.extend(out.loads);
            self.inside_sites.extend(out.inside_sites);
            self.returned_from_library.extend(out.returned_from_library);
            self.started_threads.extend(out.started_threads);
            // finish()'s reachability join is order-independent, so the
            // region-order concatenation is equivalent to the sequential
            // interleaving.
            self.final_roots.extend(out.final_roots);
            self.truncated |= out.truncated;
            self.top_escape |= out.top_escape;
        }
        self.heap.local = local;
    }

    /// Ages every heap binding: fresh cells become old cells, and every
    /// stored value moves `ĉ`/`f̂` → `⊤̂` until a load proves flow-back.
    fn age_heap(&mut self) {
        debug_assert!(self.heap.base.is_none(), "aging runs on the main heap");
        let bound = self.bound();
        self.heap.local = age_heap_map(std::mem::take(&mut self.heap.local), bound);
    }

    /// Computes the final report: reachable-occurrence ERA join.
    fn finish(self) -> EffectSummary {
        // Roots: every captured environment binding, every outside-typed
        // object (referenced from outside the loop by assumption), and the
        // globals pseudo-object.
        let mut reachable: BTreeSet<(TypeKey, Era)> = BTreeSet::new();
        let mut queue: VecDeque<(TypeKey, Era)> = VecDeque::new();
        let mut eras: HashMap<AllocSite, Era> = HashMap::new();

        let add =
            |q: &mut VecDeque<(TypeKey, Era)>, seen: &mut BTreeSet<(TypeKey, Era)>, ty: AbsType| {
                if seen.insert((ty.key, ty.era)) {
                    q.push_back((ty.key, ty.era));
                }
            };

        for env in &self.final_roots {
            for val in env.locals.iter().chain(std::iter::once(&env.ret)) {
                for ty in val.types() {
                    add(&mut queue, &mut reachable, ty);
                }
            }
        }
        add(
            &mut queue,
            &mut reachable,
            AbsType::new(TypeKey::Globals, Era::Outside),
        );
        // Outside objects are live by assumption; their heap cells are
        // reachable. (The main interpreter's heap never has a snapshot
        // layer by the time the report is computed.)
        debug_assert!(self.heap.base.is_none());
        for ((key, gen, _), _) in self.heap.local.iter() {
            if *gen == Gen::Outside {
                add(&mut queue, &mut reachable, AbsType::new(*key, Era::Outside));
            }
        }

        let mut visited_cells: HashSet<HeapKey> = HashSet::new();
        while let Some((key, era)) = queue.pop_front() {
            if let TypeKey::Site(site) = key {
                if era.is_inside() {
                    eras.entry(site)
                        .and_modify(|e| *e = e.join(era))
                        .or_insert(era);
                }
            }
            // Follow heap edges: an object of generation g reaches the
            // cells addressed by that generation.
            let gen = gen_of(era);
            for ((bkey, bgen, _f), val) in self.heap.local.iter() {
                if (*bkey, *bgen) == (key, gen) {
                    let cell_id = (*bkey, *bgen, *_f);
                    if visited_cells.insert(cell_id) {
                        for ty in val.types() {
                            add(&mut queue, &mut reachable, ty);
                        }
                    }
                }
            }
        }

        // Inside sites with no reachable occurrence are iteration-local.
        for &site in &self.inside_sites {
            eras.entry(site).or_insert(Era::Current);
        }
        if self.top_escape {
            for &site in &self.inside_sites {
                eras.insert(site, Era::Top);
            }
        }

        EffectSummary {
            eras,
            stores: self.stores,
            loads: self.loads,
            inside_sites: self.inside_sites,
            returned_from_library: self.returned_from_library,
            started_threads: self.started_threads,
            truncated: self.truncated,
            rounds: self.rounds,
            regions: self.region_count,
        }
    }
}

/// Pointwise join of two frames. Public (hidden) for the lattice-law
/// property suite; the Jacobi merge relies on this being a semilattice
/// join (commutative, associative, idempotent, monotone).
#[doc(hidden)]
pub fn join_env(a: &Env, b: &Env, bound: usize) -> Env {
    debug_assert_eq!(a.locals.len(), b.locals.len());
    Env {
        locals: a
            .locals
            .iter()
            .zip(&b.locals)
            .map(|(x, y)| x.join(y, bound))
            .collect(),
        ret: a.ret.join(&b.ret, bound),
    }
}

/// Pointwise aging of a frame (`⊕` of rule TWhile).
#[doc(hidden)]
pub fn age_env(env: &Env) -> Env {
    Env {
        locals: env.locals.iter().map(Val::age).collect(),
        ret: env.ret.age(),
    }
}

/// Ages a whole abstract heap: fresh-generation cells move to the old
/// generation (joining with any existing old cell) and every value is
/// aged. Public (hidden) so the property suite can check monotonicity.
#[doc(hidden)]
pub fn age_heap_map(heap: BTreeMap<HeapKey, Val>, bound: usize) -> BTreeMap<HeapKey, Val> {
    let mut aged: BTreeMap<HeapKey, Val> = BTreeMap::new();
    for ((key, gen, field), val) in heap {
        let new_gen = match gen {
            Gen::Fresh => Gen::Old,
            other => other,
        };
        let new_val = val.age();
        let entry = aged.entry((key, new_gen, field)).or_default();
        *entry = entry.join(&new_val, bound);
    }
    aged
}
