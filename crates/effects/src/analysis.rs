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
//! # Branches in place
//!
//! Rule TIf joins the two branch environments pointwise. The join is
//! idempotent, so a local that neither branch can define joins to its
//! own value: only the locals some statement of either branch defines
//! need any work (`ret` only accumulates joins). `if` therefore saves
//! just those slots, runs the then-branch on the caller's frame in
//! place, swaps the saved entry values back, runs the else-branch in
//! place, and joins the saved then-values into the defined slots. Plain
//! loops use the same selective save per iteration. A branch or loop
//! body that lexically contains the designated loop keeps the
//! whole-frame path: aging rewrites every local, so the else-branch
//! would see aged values of locals no statement defines. Calls need no
//! save at all:
//! the callee runs in a frame of its own and only the call's `dst` is
//! written back. [`EffectSummary::locals_copied`] counts the frame slots
//! copied, an exact measure of this work.

use crate::domain::{AbsEffect, AbsType, EffectBase, TypeKey, Val};
use crate::era::Era;
use leakchecker_callgraph::CallGraph;
use leakchecker_ir::ids::{AllocSite, FieldId, LocalId, LoopId, MethodId};
use leakchecker_ir::stmt::Stmt;
use leakchecker_ir::visit::walk_stmts;
use leakchecker_ir::Program;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

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
    /// Accepted and ignored: the effects phase runs on one thread at
    /// every job count. Kept so callers that set it still compile.
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
    pub rounds: usize,
    /// Always 0: the effects phase has no parallel regions. Kept so
    /// callers that read it still compile.
    pub regions: usize,
    /// Frame slots copied to save or rebuild a frame: the selective
    /// saves of branches and plain loops plus every whole-frame clone,
    /// aging and join. An exact, deterministic work counter.
    pub locals_copied: usize,
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
        roots: BTreeSet::new(),
        top_escape: false,
        rounds: 0,
        locals_copied: 0,
    };
    let mut env = Env::default();
    let nlocals = program.method(root).locals.len();
    env.locals = vec![Val::Bottom; nlocals];
    interp.exec_method_body(root, &mut env);
    interp.add_roots(&env);
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

/// The abstract heap, with a change log for plain loops.
///
/// While a plain loop is open, every effective change to a cell is
/// logged with the cell's prior value, so the loop can tell whether an
/// iteration changed the heap from the cells it touched instead of
/// cloning and comparing the whole heap (see [`HeapView::changed_since`]).
#[derive(Clone, Debug, Default)]
struct HeapView {
    cells: BTreeMap<HeapKey, Val>,
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
    fn get(&self, key: &HeapKey) -> Val {
        self.cells.get(key).cloned().unwrap_or(Val::Bottom)
    }

    /// Weak update: joins `val` into the cell. A previously absent key
    /// is materialized even when the joined value stays `⊥`, because
    /// convergence checks distinguish absent cells from `⊥` cells.
    fn store_join(&mut self, key: HeapKey, val: Val, bound: usize) {
        let prior = self.cells.get(&key).cloned();
        let new = prior.as_ref().unwrap_or(&Val::Bottom).join(&val, bound);
        if prior.as_ref() != Some(&new) {
            self.cells.insert(key, new);
            self.log(key, prior);
        }
    }

    /// Strong update (flow-back reclassification).
    fn set(&mut self, key: HeapKey, val: Val) {
        let prior = self.cells.insert(key, val);
        self.log(key, prior);
    }

    fn log(&mut self, key: HeapKey, prior: Option<Val>) {
        if self.open_loops > 0 {
            self.undo.push((key, prior));
        }
    }

    /// Did the heap change since the log held `mark` entries? A cell
    /// changed iff its value now differs from the prior value of its
    /// first logged change after `mark` — a cell that changed and
    /// changed back within the span counts as unchanged, exactly as a
    /// whole-heap comparison would see it.
    fn changed_since(&self, mark: usize) -> bool {
        let mut seen: HashSet<HeapKey> = HashSet::new();
        self.undo[mark..]
            .iter()
            .any(|(key, prior)| seen.insert(*key) && self.cells.get(key) != prior.as_ref())
    }

    /// Sets the enclosing plain loops' log aside before a designated
    /// loop, whose aging rewrites the heap wholesale without per-cell
    /// logging. `None` when no plain loop is open.
    fn suspend_log(&mut self) -> Option<SuspendedLog> {
        (self.open_loops > 0).then(|| SuspendedLog {
            undo: std::mem::take(&mut self.undo),
            open_loops: std::mem::take(&mut self.open_loops),
            before: self.cells.clone(),
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
        for key in self.cells.keys() {
            if !before.contains_key(key) {
                self.undo.push((*key, None));
            }
        }
        for (key, prior) in before {
            if self.cells.get(&key) != Some(&prior) {
                self.undo.push((key, Some(prior)));
            }
        }
    }

    /// Every key of `field`, in key order.
    fn field_keys(&self, field: FieldId) -> Vec<HeapKey> {
        self.cells
            .keys()
            .filter(|(_, _, f)| *f == field)
            .cloned()
            .collect()
    }
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
    /// Every type a finished frame held: the roots of the final
    /// reachability report.
    roots: BTreeSet<AbsType>,
    /// Set when a `⊤` value was stored through a persistent base inside
    /// the loop: any inside object may have escaped, so every inside site
    /// is conservatively reported `⊤̂` (only reachable when the value
    /// domain collapses, e.g. under the formal bound-1 configuration).
    top_escape: bool,
    /// Designated-loop abstract iterations executed so far.
    rounds: usize,
    /// See [`EffectSummary::locals_copied`].
    locals_copied: usize,
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
        let program = self.program;
        self.exec_stmts(&program.method(method).body, env);
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
                    // The callee frame's values are reachability roots:
                    // they may pin heap cells observed by the report.
                    self.add_roots(&callee_env);
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
            } => match self.defined_locals(&[then_branch, else_branch]) {
                Some(defs) => self.exec_if_in_place(&defs, then_branch, else_branch, env),
                None => {
                    let mut then_env = self.copy_frame(env);
                    let mut else_env = self.copy_frame(env);
                    self.exec_stmts(then_branch, &mut then_env);
                    self.exec_stmts(else_branch, &mut else_env);
                    *env = self.join_frames(&then_env, &else_env);
                }
            },
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

    /// The locals some statement of `blocks` can define, sorted and
    /// deduplicated; `None` when a block lexically contains the
    /// designated loop, whose aging rewrites every local of the frame.
    /// Calls define at most their `dst`: a callee runs in its own frame.
    fn defined_locals(&self, blocks: &[&[Stmt]]) -> Option<Vec<LocalId>> {
        let mut defs = Vec::new();
        let mut designated = false;
        for block in blocks {
            walk_stmts(block, &mut |stmt| match stmt {
                Stmt::While { id, .. } => designated |= *id == self.designated,
                _ => defs.extend(stmt.def()),
            });
        }
        if designated {
            return None;
        }
        defs.sort_unstable();
        defs.dedup();
        Some(defs)
    }

    /// Copies the `defs` slots of `env` aside.
    fn save_slots(&mut self, defs: &[LocalId], env: &Env) -> Vec<Val> {
        self.locals_copied += defs.len();
        defs.iter().map(|l| env.locals[l.index()].clone()).collect()
    }

    fn copy_frame(&mut self, env: &Env) -> Env {
        self.locals_copied += env.locals.len();
        env.clone()
    }

    fn join_frames(&mut self, a: &Env, b: &Env) -> Env {
        self.locals_copied += a.locals.len();
        join_env(a, b, self.bound())
    }

    /// Rule TIf on the caller's frame (see the module docs): exactly
    /// `join_env(then, else)`, because every slot outside `defs` holds
    /// the same value after either branch and the join is idempotent.
    /// `ret` needs no save: it only ever accumulates joins, so running
    /// the else-branch on the then-branch's `ret` already yields
    /// `then.ret ⊔ else.ret`.
    fn exec_if_in_place(
        &mut self,
        defs: &[LocalId],
        then_branch: &[Stmt],
        else_branch: &[Stmt],
        env: &mut Env,
    ) {
        let mut saved = self.save_slots(defs, env);
        self.exec_stmts(then_branch, env);
        for (l, val) in defs.iter().zip(&mut saved) {
            std::mem::swap(&mut env.locals[l.index()], val);
        }
        self.exec_stmts(else_branch, env);
        let bound = self.bound();
        for (l, then_val) in defs.iter().zip(saved) {
            let slot = &mut env.locals[l.index()];
            *slot = then_val.join(slot, bound);
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
    /// Each iteration runs on the frame in place and joins the slots the
    /// body can define into their values from before the iteration: the
    /// same `join_env(state, iteration)` as a whole-frame copy, since no
    /// other slot can change. Whether the heap changed is read off the
    /// heap's change log (see [`HeapView::changed_since`]), which costs
    /// the cells the iteration touched, not a clone and compare of the
    /// whole program's heap.
    fn exec_plain_loop(&mut self, body: &[Stmt], env: &mut Env) {
        let defs = self.defined_locals(&[body]);
        let mut stable = false;
        self.heap.open_loops += 1;
        for _ in 0..self.config.max_fixpoint_iters {
            let mark = self.heap.undo.len();
            let env_changed = match &defs {
                Some(defs) => {
                    let before = self.save_slots(defs, env);
                    let before_ret = env.ret.clone();
                    self.exec_stmts(body, env);
                    let bound = self.bound();
                    let mut changed = env.ret != before_ret;
                    for (l, prior) in defs.iter().zip(before) {
                        let slot = &mut env.locals[l.index()];
                        *slot = prior.join(slot, bound);
                        changed |= *slot != prior;
                    }
                    changed
                }
                None => {
                    let mut iter_env = self.copy_frame(env);
                    self.exec_stmts(body, &mut iter_env);
                    let joined = self.join_frames(env, &iter_env);
                    let changed = joined != *env;
                    *env = joined;
                    changed
                }
            };
            let heap_changed = self.heap.changed_since(mark);
            if self.heap.open_loops == 1 {
                // Outermost open loop: no enclosing iteration needs the
                // entries any more.
                self.heap.undo.clear();
            }
            stable = !env_changed && !heap_changed;
            if stable {
                break;
            }
        }
        self.heap.open_loops -= 1;
        if !stable {
            self.truncated = true;
        }
    }

    /// The designated loop: rule TWhile with iteration aging. Each
    /// round compares the whole heap once: aging rewrites every cell
    /// anyway.
    fn exec_designated_loop(&mut self, body: &[Stmt], env: &mut Env) {
        let outer_log = self.heap.suspend_log();
        self.loop_depth += 1;
        let mut stable = false;
        for _ in 0..self.config.max_fixpoint_iters {
            let heap_before = self.heap.cells.clone();
            let stores_before = self.stores.len();
            let loads_before = self.loads.len();
            // ⊕: age the environment and the heap at the iteration start.
            self.locals_copied += env.locals.len();
            let mut iter_env = age_env(env);
            let bound = self.bound();
            self.heap.cells = age_heap_map(std::mem::take(&mut self.heap.cells), bound);
            self.rounds += 1;
            self.exec_stmts(body, &mut iter_env);
            let joined = self.join_frames(env, &iter_env);
            stable = joined == *env
                && self.heap.cells == heap_before
                && self.stores.len() == stores_before
                && self.loads.len() == loads_before;
            *env = joined;
            if stable {
                break;
            }
        }
        if !stable {
            self.truncated = true;
        }
        self.loop_depth -= 1;
        if let Some(log) = outer_log {
            self.heap.resume_log(log);
        }
    }

    /// Records the types `env` holds as reachability roots.
    fn add_roots(&mut self, env: &Env) {
        for val in env.locals.iter().chain(std::iter::once(&env.ret)) {
            self.roots.extend(val.types());
        }
    }

    /// Computes the final report: reachable-occurrence ERA join.
    fn finish(self) -> EffectSummary {
        // Roots: every type a finished frame held, every outside-typed
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

        for &ty in &self.roots {
            add(&mut queue, &mut reachable, ty);
        }
        add(
            &mut queue,
            &mut reachable,
            AbsType::new(TypeKey::Globals, Era::Outside),
        );
        // Outside objects are live by assumption; their heap cells are
        // reachable.
        for ((key, gen, _), _) in self.heap.cells.iter() {
            if *gen == Gen::Outside {
                add(&mut queue, &mut reachable, AbsType::new(*key, Era::Outside));
            }
        }

        let mut visited: HashSet<(TypeKey, Gen)> = HashSet::new();
        while let Some((key, era)) = queue.pop_front() {
            if let TypeKey::Site(site) = key {
                if era.is_inside() {
                    eras.entry(site)
                        .and_modify(|e| *e = e.join(era))
                        .or_insert(era);
                }
            }
            // Follow heap edges: an object of generation g reaches the
            // cells addressed by that generation, a contiguous key range.
            let gen = gen_of(era);
            if !visited.insert((key, gen)) {
                continue;
            }
            let cells = (key, gen, FieldId(0))..=(key, gen, FieldId(u32::MAX));
            for (_, val) in self.heap.cells.range(cells) {
                for ty in val.types() {
                    add(&mut queue, &mut reachable, ty);
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
            regions: 0,
            locals_copied: self.locals_copied,
        }
    }
}

/// Pointwise join of two frames. Public (hidden) for the lattice-law
/// property suite; the in-place branch join relies on this being a
/// semilattice join (commutative, associative, idempotent, monotone).
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
