//! Name resolution and lowering from the surface AST to the IR.
//!
//! Lowering runs in two passes. The first pass declares every class, field
//! and method signature so that bodies can reference entities in any order.
//! The second pass lowers each method body to three-address statements,
//! materializing compound expressions into compiler temporaries.
//!
//! Names resolve by [`Symbol`]: classes through a symbol-indexed table,
//! locals through one symbol-indexed scope stack with an undo log, and
//! fields and method signatures through `(class, symbol)` maps walked up
//! the superclass chain. Signatures are borrowed, never copied.

use crate::ast::{
    sym, AllocAnnotation, ClassDecl, ExprId, ExprKind, FxHashMap, List, Stmt as AStmt, StmtId,
    Symbol, TypeName, Unit,
};
use crate::error::{CompileError, Phase, Result, TextRange};
use leakchecker_ir::builder::{MethodBuilder, ProgramBuilder};
use leakchecker_ir::ids::{ClassId, FieldId, LocalId, LoopId, MethodId};
use leakchecker_ir::stmt::{BinOp, Cond, Operand, SiteLabel};
use leakchecker_ir::types::Type;
use leakchecker_ir::Program;

/// The result of compiling a unit: the IR program plus the analysis targets
/// designated by source annotations.
#[derive(Clone, Debug)]
pub struct CompiledUnit {
    /// The lowered program.
    pub program: Program,
    /// Loops annotated `@check`, in source order.
    pub checked_loops: Vec<LoopId>,
    /// Methods annotated `@region` (checkable regions; the detector wraps
    /// them in artificial loops).
    pub region_methods: Vec<MethodId>,
}

/// Lowers a parsed unit to IR.
///
/// # Errors
///
/// Returns the first resolution error: unknown names, type mismatches,
/// arity errors, duplicate declarations, inheritance cycles.
pub fn lower(unit: &Unit<'_>) -> Result<CompiledUnit> {
    let mut resolver = Resolver {
        unit,
        pb: ProgramBuilder::new(),
        tables: Tables {
            classes: vec![None; unit.names.len()],
            ..Tables::default()
        },
        method_sigs: Vec::with_capacity(unit.methods.len()),
        default_ctors: Vec::with_capacity(unit.classes.len()),
        checked_loops: Vec::new(),
        region_methods: Vec::new(),
        entry: None,
    };
    resolver.declare()?;
    resolver.lower_bodies()
}

fn err(unit: &Unit<'_>, span: TextRange, message: impl Into<String>) -> CompileError {
    CompileError::at(Phase::Resolve, unit.source, span, message)
}

/// Method signature recorded during the declaration pass.
#[derive(Debug)]
struct Sig {
    id: MethodId,
    is_static: bool,
    params: Vec<Type>,
    ret: Type,
}

/// What the declaration pass learns, read by every body.
#[derive(Default)]
struct Tables {
    /// Class of each symbol that names one.
    classes: Vec<Option<ClassId>>,
    /// Fields declared directly on a class.
    fields: FxHashMap<(ClassId, Symbol), FieldId>,
    /// Methods declared directly on a class, as indices into `sigs`.
    methods: FxHashMap<(ClassId, Symbol), u32>,
    sigs: Vec<Sig>,
}

impl Tables {
    fn class(&self, name: Symbol) -> Option<ClassId> {
        self.classes[name.index()]
    }

    fn declare_sig(&mut self, class: ClassId, name: Symbol, sig: Sig) -> u32 {
        let index = self.sigs.len() as u32;
        self.sigs.push(sig);
        self.methods.insert((class, name), index);
        index
    }

    /// Resolves a type name; an array of `void` is the caller's concern.
    fn resolve_type(&self, unit: &Unit<'_>, name: &TypeName) -> Result<Type> {
        let mut ty = match name.base {
            sym::INT => Type::Int,
            sym::BOOLEAN => Type::Bool,
            sym::VOID => Type::Void,
            other => Type::Ref(self.class(other).ok_or_else(|| {
                err(
                    unit,
                    name.span,
                    format!("unknown type `{}`", unit.name(other)),
                )
            })?),
        };
        for _ in 0..name.dims {
            ty = ty.into_array();
        }
        Ok(ty)
    }
}

struct Resolver<'u, 's> {
    unit: &'u Unit<'s>,
    pb: ProgramBuilder,
    tables: Tables,
    /// Signature of each declared method, by its index in `unit.methods`.
    method_sigs: Vec<u32>,
    /// Signature of each class's synthesized constructor, if it has one.
    default_ctors: Vec<Option<u32>>,
    checked_loops: Vec<LoopId>,
    region_methods: Vec<MethodId>,
    entry: Option<MethodId>,
}

impl Resolver<'_, '_> {
    // ---------- pass 1: declarations ----------

    fn declare(&mut self) -> Result<()> {
        let unit = self.unit;
        // The implicit root class is always in scope, with a synthesized
        // no-argument constructor so `new Object()` works.
        let object = self.pb.program().object_class();
        self.tables.classes[sym::OBJECT.index()] = Some(object);
        let mb = self.pb.method(object, "<init>", Type::Void, false);
        let object_init = mb.id();
        mb.finish();
        self.tables.declare_sig(
            object,
            sym::INIT,
            Sig {
                id: object_init,
                is_static: false,
                params: Vec::new(),
                ret: Type::Void,
            },
        );
        // Classes first (so `extends` can be forward).
        for class in &unit.classes {
            let name = unit.name(class.name);
            if self.tables.class(class.name).is_some() {
                return Err(err(unit, class.span, format!("duplicate class `{name}`")));
            }
            let id = if class.is_library {
                self.pb.add_library_class(name, None)
            } else {
                self.pb.add_class(name, None)
            };
            self.tables.classes[class.name.index()] = Some(id);
        }
        // Superclasses.
        for class in &unit.classes {
            if let Some(sup_name) = class.superclass {
                let sup = self.tables.class(sup_name).ok_or_else(|| {
                    err(
                        unit,
                        class.span,
                        format!("unknown superclass `{}`", unit.name(sup_name)),
                    )
                })?;
                let id = self.tables.class(class.name).expect("declared above");
                self.set_superclass(id, sup, class.span)?;
            }
        }
        // Fields and method signatures.
        for class in &unit.classes {
            let cid = self.tables.class(class.name).expect("declared above");
            let class_name = unit.name(class.name);
            for field in unit.fields_of(class) {
                if self.tables.fields.contains_key(&(cid, field.name)) {
                    return Err(err(
                        unit,
                        field.span,
                        format!("duplicate field `{class_name}.{}`", unit.name(field.name)),
                    ));
                }
                let ty = self.declared_type(&field.ty)?;
                if ty == Type::Void {
                    return Err(err(unit, field.span, "fields cannot have type `void`"));
                }
                if field.is_static && field.init.is_some() {
                    return Err(err(
                        unit,
                        field.span,
                        "static fields cannot have initializers; assign in code instead",
                    ));
                }
                let fid = self
                    .pb
                    .add_field(cid, unit.name(field.name), ty, field.is_static);
                self.tables.fields.insert((cid, field.name), fid);
            }
            let mut has_ctor = false;
            for method in unit.methods_of(class) {
                if method.is_ctor {
                    if has_ctor {
                        return Err(err(
                            unit,
                            method.span,
                            format!("class `{class_name}` declares multiple constructors"),
                        ));
                    }
                    has_ctor = true;
                }
                let name = unit.name(method.name);
                if self.tables.methods.contains_key(&(cid, method.name)) {
                    return Err(err(
                        unit,
                        method.span,
                        format!("duplicate method `{class_name}.{name}`"),
                    ));
                }
                let ret = self.declared_type(&method.ret_ty)?;
                let mut params = Vec::new();
                let mut param_decls: Vec<(&str, Type)> = Vec::new();
                for p in unit.params_of(method) {
                    let ty = self.declared_type(&p.ty)?;
                    if ty == Type::Void {
                        return Err(err(unit, method.span, "parameters cannot have type `void`"));
                    }
                    params.push(ty.clone());
                    param_decls.push((unit.name(p.name), ty));
                }
                let mb = self.pb.method_with_params(
                    cid,
                    name,
                    ret.clone(),
                    method.is_static,
                    &param_decls,
                );
                let id = mb.id();
                mb.finish(); // body filled in pass 2
                if method.is_region {
                    self.region_methods.push(id);
                }
                if method.name == sym::MAIN && method.is_static && params.is_empty() {
                    if self.entry.is_some() {
                        return Err(err(
                            unit,
                            method.span,
                            "multiple `static main()` entry points",
                        ));
                    }
                    self.entry = Some(id);
                }
                let sig = self.tables.declare_sig(
                    cid,
                    method.name,
                    Sig {
                        id,
                        is_static: method.is_static,
                        params,
                        ret,
                    },
                );
                self.method_sigs.push(sig);
            }
            // Synthesize a default constructor when none is declared, so
            // `new C()` always works and field initializers have a home.
            let default_ctor = (!has_ctor).then(|| {
                let mb = self.pb.method(cid, "<init>", Type::Void, false);
                let id = mb.id();
                mb.finish();
                self.tables.declare_sig(
                    cid,
                    sym::INIT,
                    Sig {
                        id,
                        is_static: false,
                        params: Vec::new(),
                        ret: Type::Void,
                    },
                )
            });
            self.default_ctors.push(default_ctor);
        }
        Ok(())
    }

    /// A declared field, parameter or return type: like a body's types,
    /// but an array of `void` is refused.
    fn declared_type(&self, name: &TypeName) -> Result<Type> {
        let ty = self.tables.resolve_type(self.unit, name)?;
        if name.dims > 0 && name.base == sym::VOID {
            return Err(err(self.unit, name.span, "cannot form an array of `void`"));
        }
        Ok(ty)
    }

    /// Patches the superclass of `class` (the builder defaulted to Object)
    /// and rejects inheritance cycles.
    fn set_superclass(&mut self, class: ClassId, sup: ClassId, span: TextRange) -> Result<()> {
        // Cycle check: walk up from `sup`; if we reach `class`, reject.
        let mut cur = Some(sup);
        while let Some(c) = cur {
            if c == class {
                return Err(err(self.unit, span, "inheritance cycle"));
            }
            cur = self.pb.program().class(c).superclass;
        }
        self.pb.patch_superclass(class, sup);
        Ok(())
    }

    // ---------- pass 2: bodies ----------

    fn lower_bodies(mut self) -> Result<CompiledUnit> {
        let unit = self.unit;
        let mut scopes = Scopes::new(unit.names.len());
        let mut spine = Vec::new();
        let mut methods = self.method_sigs.iter();
        for (class, default_ctor) in unit.classes.iter().zip(&self.default_ctors) {
            let cid = self.tables.class(class.name).expect("declared in pass 1");
            for method in unit.methods_of(class) {
                let sig = &self.tables.sigs[*methods.next().expect("one sig per method") as usize];
                let mut ctx = BodyCtx {
                    unit,
                    tables: &self.tables,
                    checked_loops: &mut self.checked_loops,
                    scopes: &mut scopes,
                    spine: &mut spine,
                    class: cid,
                    ret: &sig.ret,
                    mb: self.pb.resume_method(sig.id),
                };
                // Bind parameters into the outer scope.
                ctx.scopes.push();
                for (i, p) in unit.params_of(method).iter().enumerate() {
                    let local = ctx.mb.param(i);
                    ctx.scopes.bind(p.name, local);
                }
                if method.is_ctor {
                    ctx.emit_ctor_prologue(class)?;
                }
                ctx.lower_stmts(method.body)?;
                ctx.scopes.pop();
                ctx.mb.finish();
            }
            if let Some(sig) = default_ctor {
                // Fill the synthesized default constructor.
                let sig = &self.tables.sigs[*sig as usize];
                let mut ctx = BodyCtx {
                    unit,
                    tables: &self.tables,
                    checked_loops: &mut self.checked_loops,
                    scopes: &mut scopes,
                    spine: &mut spine,
                    class: cid,
                    ret: &sig.ret,
                    mb: self.pb.resume_method(sig.id),
                };
                ctx.emit_ctor_prologue(class)?;
                ctx.mb.finish();
            }
        }
        let mut program = self.pb.finish();
        if let Some(entry) = self.entry {
            program.set_entry(entry);
        }
        Ok(CompiledUnit {
            program,
            checked_loops: self.checked_loops,
            region_methods: self.region_methods,
        })
    }
}

/// A local binding and the scope depth that made it.
#[derive(Copy, Clone)]
struct Binding {
    local: LocalId,
    depth: u32,
}

/// Lexical scopes as one table indexed by symbol: each symbol's
/// innermost binding, plus an undo log that restores the shadowed
/// bindings when a scope closes.
struct Scopes {
    bindings: Vec<Option<Binding>>,
    undo: Vec<(Symbol, Option<Binding>)>,
    /// Undo-log length at each open scope's start.
    marks: Vec<usize>,
}

impl Scopes {
    fn new(symbols: usize) -> Self {
        Scopes {
            bindings: vec![None; symbols],
            undo: Vec::new(),
            marks: Vec::new(),
        }
    }

    fn push(&mut self) {
        self.marks.push(self.undo.len());
    }

    fn pop(&mut self) {
        let mark = self.marks.pop().expect("scope stack underflow");
        for (name, shadowed) in self.undo.drain(mark..).rev() {
            self.bindings[name.index()] = shadowed;
        }
    }

    fn bind(&mut self, name: Symbol, local: LocalId) {
        let slot = &mut self.bindings[name.index()];
        self.undo.push((name, *slot));
        *slot = Some(Binding {
            local,
            depth: self.marks.len() as u32,
        });
    }

    fn lookup(&self, name: Symbol) -> Option<LocalId> {
        self.bindings[name.index()].map(|b| b.local)
    }

    /// `true` when the innermost scope already binds `name`.
    fn in_innermost(&self, name: Symbol) -> bool {
        self.bindings[name.index()].is_some_and(|b| b.depth == self.marks.len() as u32)
    }
}

struct BodyCtx<'r, 'u, 's> {
    unit: &'u Unit<'s>,
    tables: &'r Tables,
    checked_loops: &'r mut Vec<LoopId>,
    scopes: &'r mut Scopes,
    /// Scratch stack for walking left spines of operator chains.
    spine: &'r mut Vec<ExprId>,
    class: ClassId,
    ret: &'r Type,
    mb: MethodBuilder<'r>,
}

impl<'r> BodyCtx<'r, '_, '_> {
    fn err(&self, span: TextRange, message: impl Into<String>) -> CompileError {
        err(self.unit, span, message)
    }

    fn name(&self, s: Symbol) -> &str {
        self.unit.name(s)
    }

    fn local_type(&self, local: LocalId) -> Type {
        self.mb.program().method(self.mb.id()).locals[local.index()]
            .ty
            .clone()
    }

    fn in_static_method(&self) -> bool {
        self.mb.program().method(self.mb.id()).is_static
    }

    /// Finds the signature of `name` on `class` or a superclass.
    fn find_sig(&self, class: ClassId, name: Symbol) -> Option<&'r Sig> {
        let tables = self.tables;
        self.mb
            .program()
            .ancestry(class)
            .find_map(|c| tables.methods.get(&(c, name)))
            .map(|&i| &tables.sigs[i as usize])
    }

    /// Resolves a field by name on `class` or a superclass.
    fn resolve_field(&self, class: ClassId, name: Symbol) -> Option<FieldId> {
        self.mb
            .program()
            .ancestry(class)
            .find_map(|c| self.tables.fields.get(&(c, name)).copied())
    }

    fn class_name(&self, class: ClassId) -> &str {
        &self.mb.program().class(class).name
    }

    fn emit_ctor_prologue(&mut self, class: &ClassDecl) -> Result<()> {
        // Implicit super() when the superclass has a no-argument ctor.
        let program = self.mb.program();
        let class_id = self.class;
        let sup = program.class(class_id).superclass;
        if let Some(sup) = sup {
            if sup != program.object_class() {
                if let Some(&sig) = self.tables.methods.get(&(sup, sym::INIT)) {
                    let sig = &self.tables.sigs[sig as usize];
                    if sig.params.is_empty() {
                        let this = self.mb.this();
                        self.mb.call_special(None, this, sig.id, &[]);
                    }
                }
            }
        }
        // Instance field initializers, in declaration order.
        for field in self.unit.fields_of(class) {
            if field.is_static {
                continue;
            }
            if let Some(init) = field.init {
                let fid = self.tables.fields[&(class_id, field.name)];
                let field_ty = self.mb.program().field(fid).ty.clone();
                let value = self.lower_value_typed(init, &field_ty)?;
                let this = self.mb.this();
                self.mb.store(this, fid, value);
            }
        }
        Ok(())
    }

    fn lower_stmts(&mut self, stmts: List) -> Result<()> {
        self.scopes.push();
        for &stmt in self.unit.block(stmts) {
            self.lower_stmt(stmt)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: StmtId) -> Result<()> {
        match *self.unit.stmt(stmt) {
            AStmt::VarDecl {
                ty,
                name,
                init,
                span,
            } => {
                let ty = self.tables.resolve_type(self.unit, &ty)?;
                if ty == Type::Void {
                    return Err(self.err(span, "variables cannot have type `void`"));
                }
                if self.scopes.in_innermost(name) {
                    return Err(self.err(span, format!("duplicate variable `{}`", self.name(name))));
                }
                let local = self.mb.local(self.unit.name(name), ty.clone());
                self.scopes.bind(name, local);
                match init {
                    Some(e) => {
                        let vty = self.lower_into(local, e)?;
                        self.check_assignable(&vty, &ty, self.unit.expr(e).span)?;
                    }
                    None => {
                        // Default-initialize so the interpreter never sees
                        // an undefined local.
                        if ty.is_reference() {
                            self.mb.assign_null(local);
                        } else {
                            self.mb.const_int(local, 0);
                        }
                    }
                }
                Ok(())
            }
            AStmt::Assign {
                target,
                value,
                span,
            } => self.lower_assign(target, value, span),
            AStmt::Expr(e) => {
                let expr = self.unit.expr(e);
                match expr.kind {
                    ExprKind::Call { .. } | ExprKind::New { .. } | ExprKind::NewArray { .. } => {
                        let _ = self.lower_to_local(e)?;
                    }
                    _ => {
                        return Err(self.err(
                            expr.span,
                            "only calls and allocations can be used as statements",
                        ))
                    }
                }
                Ok(())
            }
            AStmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.lower_cond(cond)?;
                self.mb.begin_frame();
                self.lower_stmts(then_branch)?;
                let then_stmts = self.mb.end_frame();
                self.mb.begin_frame();
                self.lower_stmts(else_branch)?;
                let else_stmts = self.mb.end_frame();
                self.mb.push_if(c, then_stmts, else_stmts);
                Ok(())
            }
            AStmt::While {
                cond,
                body,
                checked,
            } => {
                // Conditions that read only named locals / constants can be
                // used directly: each iteration re-reads the locals. Any
                // other condition is lowered to a boolean flag that is
                // computed before the loop and recomputed at the end of
                // every iteration.
                let (c, flag) = match self.try_direct_cond(cond) {
                    Some(direct) => (direct, None),
                    None => {
                        let flag = self.mb.temp(Type::Bool);
                        self.lower_bool_into(flag, cond)?;
                        (Cond::Local(flag), Some(flag))
                    }
                };
                self.mb.begin_frame();
                self.lower_stmts(body)?;
                if let Some(flag) = flag {
                    self.lower_bool_into(flag, cond)?;
                }
                let body_stmts = self.mb.end_frame();
                let id = self.mb.push_while(c, body_stmts);
                if checked {
                    self.checked_loops.push(id);
                }
                Ok(())
            }
            AStmt::Return(value, span) => {
                let ret = self.ret;
                match (value, ret) {
                    (None, Type::Void) => self.mb.ret(None),
                    (Some(_), Type::Void) => {
                        return Err(self.err(span, "void method cannot return a value"))
                    }
                    (None, _) => return Err(self.err(span, "missing return value")),
                    (Some(e), ret_ty) => {
                        let local = self.lower_value_typed(e, ret_ty)?;
                        self.mb.ret(Some(local));
                    }
                }
                Ok(())
            }
            AStmt::Break => {
                self.mb.brk();
                Ok(())
            }
            AStmt::Continue => {
                self.mb.cont();
                Ok(())
            }
        }
    }

    /// The local a bare name denotes, if `e` is one bound in scope.
    fn named_local(&self, e: ExprId) -> Option<LocalId> {
        match self.unit.expr(e).kind {
            ExprKind::Name(n) => self.scopes.lookup(n),
            _ => None,
        }
    }

    /// `e` as an operand that needs no statements: an integer or boolean
    /// literal, or a named local.
    fn direct_operand(&self, e: ExprId) -> Option<(Operand, Type)> {
        match self.unit.expr(e).kind {
            ExprKind::Int(v) => Some((Operand::Const(v), Type::Int)),
            ExprKind::Bool(b) => Some((Operand::Const(i64::from(b)), Type::Bool)),
            ExprKind::Name(_) => {
                let l = self.named_local(e)?;
                Some((Operand::Local(l), self.local_type(l)))
            }
            _ => None,
        }
    }

    /// The non-`null` side of `a == null` / `null != b`, if `e` is such
    /// a comparison.
    fn null_test(&self, e: ExprId) -> Option<(BinOp, ExprId)> {
        let ExprKind::Binary {
            op: op @ (BinOp::Eq | BinOp::Ne),
            lhs,
            rhs,
        } = self.unit.expr(e).kind
        else {
            return None;
        };
        let is_null = |e: ExprId| matches!(self.unit.expr(e).kind, ExprKind::Null);
        if is_null(lhs) {
            Some((op, rhs))
        } else if is_null(rhs) {
            Some((op, lhs))
        } else {
            None
        }
    }

    /// Tries to express `cond` as a [`Cond`] that reads only named locals
    /// and constants, so it can be re-evaluated by the loop header without
    /// auxiliary statements. Returns `None` when the condition needs
    /// lowering to a flag.
    fn try_direct_cond(&self, cond: ExprId) -> Option<Cond> {
        match self.unit.expr(cond).kind {
            ExprKind::NonDet => Some(Cond::NonDet),
            ExprKind::Name(_) => {
                let l = self.named_local(cond)?;
                (self.local_type(l) == Type::Bool).then_some(Cond::Local(l))
            }
            ExprKind::Not(inner) => {
                let l = self.named_local(inner)?;
                (self.local_type(l) == Type::Bool).then_some(Cond::NotLocal(l))
            }
            ExprKind::Binary { op, lhs, rhs } => {
                // `x == null` / `x != null` on a named local.
                if let Some((op, other)) = self.null_test(cond) {
                    let l = self.named_local(other)?;
                    if !self.local_type(l).is_reference() {
                        return None;
                    }
                    return Some(if op == BinOp::Eq {
                        Cond::IsNull(l)
                    } else {
                        Cond::NotNull(l)
                    });
                }
                if !op.is_comparison() {
                    return None;
                }
                let (l, lt) = self.direct_operand(lhs)?;
                let (r, rt) = self.direct_operand(rhs)?;
                let ok = match op {
                    BinOp::Eq | BinOp::Ne => lt == rt && !lt.is_reference(),
                    _ => lt == Type::Int && rt == Type::Int,
                };
                ok.then_some(Cond::Cmp { op, lhs: l, rhs: r })
            }
            _ => None,
        }
    }

    /// Lowers an arbitrary boolean expression into `flag`, handling
    /// reference-vs-null comparisons (which have no expression form in the
    /// IR) via a small `if`.
    fn lower_bool_into(&mut self, flag: LocalId, e: ExprId) -> Result<()> {
        if let Some((op, other)) = self.null_test(e) {
            let (local, ty) = self.lower_to_local(other)?;
            if !ty.is_reference() {
                return Err(self.err(
                    self.unit.expr(other).span,
                    "`null` compared with a non-reference",
                ));
            }
            let cond = if op == BinOp::Eq {
                Cond::IsNull(local)
            } else {
                Cond::NotNull(local)
            };
            self.mb.begin_frame();
            self.mb.const_int(flag, 1);
            let then_stmts = self.mb.end_frame();
            self.mb.begin_frame();
            self.mb.const_int(flag, 0);
            let else_stmts = self.mb.end_frame();
            self.mb.push_if(cond, then_stmts, else_stmts);
            return Ok(());
        }
        let ty = self.lower_into(flag, e)?;
        if ty != Type::Bool {
            return Err(self.err(self.unit.expr(e).span, "condition must be `boolean`"));
        }
        Ok(())
    }

    fn check_assignable(&self, from: &Type, to: &Type, span: TextRange) -> Result<()> {
        if self.assignable(from, to) {
            Ok(())
        } else {
            Err(self.err(
                span,
                format!("type mismatch: cannot assign {from:?} to {to:?}"),
            ))
        }
    }

    fn assignable(&self, from: &Type, to: &Type) -> bool {
        match (from, to) {
            (Type::Int, Type::Int) | (Type::Bool, Type::Bool) => true,
            // `null` is lowered with the target's own type, so a Ref-to-Ref
            // check covers it.
            (Type::Ref(a), Type::Ref(b)) => self.mb.program().is_subclass(*a, *b),
            // Arrays are covariant in element reference types (like Java).
            (Type::Array(a), Type::Array(b)) => a == b || self.assignable(a, b),
            // Any array is an Object.
            (Type::Array(_), Type::Ref(c)) => *c == self.mb.program().object_class(),
            _ => false,
        }
    }

    // ---------- expressions ----------

    /// Lowers `e` and stores the value into an existing local `dst`.
    /// Returns the value's type.
    fn lower_into(&mut self, dst: LocalId, e: ExprId) -> Result<Type> {
        if let ExprKind::Null = self.unit.expr(e).kind {
            self.mb.assign_null(dst);
            return Ok(self.local_type(dst));
        }
        let (src, ty) = self.lower_to_local(e)?;
        if src != dst {
            self.mb.assign(dst, src);
        }
        Ok(ty)
    }

    /// Lowers `e` to an operand, short-cutting integer constants.
    fn lower_to_operand(&mut self, e: ExprId) -> Result<(Operand, Type)> {
        match self.unit.expr(e).kind {
            ExprKind::Int(v) => return Ok((Operand::Const(v), Type::Int)),
            ExprKind::Bool(b) => return Ok((Operand::Const(i64::from(b)), Type::Bool)),
            ExprKind::Neg(inner) => {
                if let ExprKind::Int(v) = self.unit.expr(inner).kind {
                    return Ok((Operand::Const(-v), Type::Int));
                }
            }
            _ => {}
        }
        let (local, ty) = self.lower_to_local(e)?;
        Ok((Operand::Local(local), ty))
    }

    /// Lowers `e` into a (possibly fresh) local, returning it and its type.
    fn lower_to_local(&mut self, e: ExprId) -> Result<(LocalId, Type)> {
        let span = self.unit.expr(e).span;
        match self.unit.expr(e).kind {
            ExprKind::Null => Err(self.err(
                span,
                "`null` needs a typed context (assign it to a variable or field)",
            )),
            ExprKind::This => {
                if self.in_static_method() {
                    return Err(self.err(span, "`this` in a static method"));
                }
                let this = self.mb.this();
                Ok((this, Type::Ref(self.class)))
            }
            ExprKind::Int(v) => {
                let t = self.mb.temp(Type::Int);
                self.mb.const_int(t, v);
                Ok((t, Type::Int))
            }
            ExprKind::Bool(b) => {
                let t = self.mb.temp(Type::Bool);
                self.mb.const_int(t, i64::from(b));
                Ok((t, Type::Bool))
            }
            ExprKind::NonDet => {
                let t = self.mb.temp(Type::Bool);
                self.mb.nondet_bool(t);
                Ok((t, Type::Bool))
            }
            ExprKind::Name(name) => {
                if let Some(local) = self.scopes.lookup(name) {
                    return Ok((local, self.local_type(local)));
                }
                // Unqualified field access on `this` / the current class.
                if let Some(fid) = self.resolve_field(self.class, name) {
                    let field = self.mb.program().field(fid);
                    let fty = field.ty.clone();
                    let is_static = field.is_static;
                    let t = self.mb.temp(fty.clone());
                    if is_static {
                        self.mb.static_load(t, fid);
                    } else {
                        if self.in_static_method() {
                            return Err(self.err(
                                span,
                                format!("instance field `{}` in a static method", self.name(name)),
                            ));
                        }
                        let this = self.mb.this();
                        self.mb.load(t, this, fid);
                    }
                    return Ok((t, fty));
                }
                Err(self.err(span, format!("unknown variable `{}`", self.name(name))))
            }
            ExprKind::Field { base, name } => {
                // Static field: `ClassName.f`.
                if let Some(cid) = self.class_name_of(base) {
                    let fid = self.resolve_field(cid, name).ok_or_else(|| {
                        self.err(span, format!("unknown static field `{}`", self.name(name)))
                    })?;
                    if !self.mb.program().field(fid).is_static {
                        return Err(self.err(
                            span,
                            format!("`{}` is an instance field, not static", self.name(name)),
                        ));
                    }
                    let fty = self.mb.program().field(fid).ty.clone();
                    let t = self.mb.temp(fty.clone());
                    self.mb.static_load(t, fid);
                    return Ok((t, fty));
                }
                let (base_local, base_ty) = self.lower_to_local(base)?;
                match base_ty {
                    Type::Ref(cid) => {
                        let fid = self.resolve_field(cid, name).ok_or_else(|| {
                            self.err(
                                span,
                                format!(
                                    "no field `{}` on `{}`",
                                    self.name(name),
                                    self.class_name(cid)
                                ),
                            )
                        })?;
                        if self.mb.program().field(fid).is_static {
                            return Err(self.err(
                                span,
                                format!(
                                    "`{}` is static; access it via the class name",
                                    self.name(name)
                                ),
                            ));
                        }
                        let fty = self.mb.program().field(fid).ty.clone();
                        let t = self.mb.temp(fty.clone());
                        self.mb.load(t, base_local, fid);
                        Ok((t, fty))
                    }
                    other => Err(self.err(span, format!("field access on non-object {other:?}"))),
                }
            }
            ExprKind::Index { base, index } => {
                let (base_local, base_ty) = self.lower_to_local(base)?;
                let elem_ty = base_ty
                    .element()
                    .ok_or_else(|| self.err(span, "indexing a non-array"))?
                    .clone();
                let (idx, ity) = self.lower_to_operand(index)?;
                if ity != Type::Int {
                    return Err(self.err(self.unit.expr(index).span, "array index must be `int`"));
                }
                let t = self.mb.temp(elem_ty.clone());
                self.mb.array_load(t, base_local, idx);
                Ok((t, elem_ty))
            }
            ExprKind::Call { base, name, args } => self.lower_call(base, name, args, span),
            ExprKind::New {
                class,
                args,
                annotation,
            } => {
                let cid = self.tables.class(class).ok_or_else(|| {
                    self.err(span, format!("unknown class `{}`", self.name(class)))
                })?;
                let sig = self.find_sig(cid, sym::INIT).ok_or_else(|| {
                    self.err(
                        span,
                        format!("class `{}` has no constructor", self.name(class)),
                    )
                })?;
                let args = self.unit.args(args);
                if sig.params.len() != args.len() {
                    return Err(self.err(
                        span,
                        format!(
                            "constructor of `{}` takes {} argument(s), {} given",
                            self.name(class),
                            sig.params.len(),
                            args.len()
                        ),
                    ));
                }
                let mut arg_locals = Vec::with_capacity(args.len());
                for (&a, pty) in args.iter().zip(&sig.params) {
                    arg_locals.push(self.lower_value_typed(a, pty)?);
                }
                let t = self.mb.temp(Type::Ref(cid));
                self.apply_annotation(annotation);
                self.mb.new_object(t, cid);
                self.mb.call_special(None, t, sig.id, &arg_locals);
                Ok((t, Type::Ref(cid)))
            }
            ExprKind::NewArray {
                elem,
                len,
                annotation,
            } => {
                let elem_ty = self.tables.resolve_type(self.unit, &elem)?;
                if elem_ty == Type::Void {
                    return Err(self.err(elem.span, "cannot form an array of `void`"));
                }
                let (len_op, lty) = self.lower_to_operand(len)?;
                if lty != Type::Int {
                    return Err(self.err(self.unit.expr(len).span, "array length must be `int`"));
                }
                let t = self.mb.temp(elem_ty.clone().into_array());
                self.apply_annotation(annotation);
                self.mb.new_array(t, elem_ty.clone(), len_op);
                Ok((t, elem_ty.into_array()))
            }
            ExprKind::Binary { .. } => self.lower_binary(e),
            ExprKind::Not(inner) => {
                let (v, ty) = self.lower_to_operand(inner)?;
                if ty != Type::Bool {
                    return Err(self.err(span, "`!` requires a `boolean`"));
                }
                let t = self.mb.temp(Type::Bool);
                self.mb.binop(t, BinOp::Eq, v, Operand::Const(0));
                Ok((t, Type::Bool))
            }
            ExprKind::Neg(inner) => {
                let (v, ty) = self.lower_to_operand(inner)?;
                if ty != Type::Int {
                    return Err(self.err(span, "unary `-` requires an `int`"));
                }
                let t = self.mb.temp(Type::Int);
                self.mb.binop(t, BinOp::Sub, Operand::Const(0), v);
                Ok((t, Type::Int))
            }
        }
    }

    /// Lowers a binary expression. Operator chains are left-deep
    /// (`1 + 1 + … + 1` nests its first operand deepest), so the left
    /// spine is walked down to its first non-binary operand and lowered
    /// back up in a loop: the statements and temporaries are those of
    /// the recursive definition, and the chain's length costs no stack.
    fn lower_binary(&mut self, e: ExprId) -> Result<(LocalId, Type)> {
        let mark = self.spine.len();
        let mut first = e;
        while let ExprKind::Binary { lhs, .. } = self.unit.expr(first).kind {
            self.spine.push(first);
            first = lhs;
        }
        let top = self.spine.len();
        let (mut acc, mut acc_ty) = self.lower_to_operand(first)?;
        for k in (mark..top).rev() {
            let node = self.unit.expr(self.spine[k]);
            let ExprKind::Binary { op, rhs, .. } = node.kind else {
                unreachable!("the spine holds binary nodes")
            };
            let (r, rt) = self.lower_to_operand(rhs)?;
            let out_ty = self.binary_type(op, &acc_ty, &rt, node.span)?;
            let t = self.mb.temp(out_ty.clone());
            self.mb.binop(t, op, acc, r);
            acc = Operand::Local(t);
            acc_ty = out_ty;
        }
        self.spine.truncate(mark);
        let Operand::Local(t) = acc else {
            unreachable!("a binary node lowers to a temporary")
        };
        Ok((t, acc_ty))
    }

    /// The result type of `l OP r`, or the type error.
    fn binary_type(&self, op: BinOp, lt: &Type, rt: &Type, span: TextRange) -> Result<Type> {
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                if *lt != Type::Int || *rt != Type::Int {
                    return Err(self.err(span, "arithmetic requires `int` operands"));
                }
                Ok(Type::Int)
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                if *lt != Type::Int || *rt != Type::Int {
                    return Err(self.err(span, "comparison requires `int` operands"));
                }
                Ok(Type::Bool)
            }
            BinOp::Eq | BinOp::Ne => {
                if lt.is_reference() || rt.is_reference() {
                    return Err(self.err(
                        span,
                        "reference equality is only supported against `null` \
                         in conditions",
                    ));
                }
                if lt != rt {
                    return Err(self.err(span, "equality requires same-typed operands"));
                }
                Ok(Type::Bool)
            }
            BinOp::And | BinOp::Or => {
                if *lt != Type::Bool || *rt != Type::Bool {
                    return Err(self.err(span, "logical operators require `boolean`"));
                }
                Ok(Type::Bool)
            }
        }
    }

    fn apply_annotation(&mut self, annotation: Option<AllocAnnotation>) {
        match annotation {
            Some(AllocAnnotation::Leak) => self.mb.label_next(SiteLabel::Leak),
            Some(AllocAnnotation::FalsePositive(why)) => self.mb.label_next(
                SiteLabel::FalsePositive(self.unit.strings[why as usize].clone()),
            ),
            None => {}
        }
    }

    fn lower_call(
        &mut self,
        base: Option<ExprId>,
        name: Symbol,
        args: List,
        span: TextRange,
    ) -> Result<(LocalId, Type)> {
        let text = self.unit.name(name);
        // Resolve the receiver and the target signature.
        let (receiver, sig): (Option<LocalId>, &'r Sig) = match base {
            None => {
                // Unqualified: method of the current class (or supers).
                let sig = self
                    .find_sig(self.class, name)
                    .ok_or_else(|| self.err(span, format!("unknown method `{text}`")))?;
                if sig.is_static {
                    (None, sig)
                } else {
                    if self.in_static_method() {
                        return Err(self.err(
                            span,
                            format!("instance method `{text}` called from a static method"),
                        ));
                    }
                    (Some(self.mb.this()), sig)
                }
            }
            Some(b) => {
                if let Some(cid) = self.class_name_of(b) {
                    let sig = self.find_sig(cid, name).ok_or_else(|| {
                        self.err(
                            span,
                            format!("no method `{text}` on class `{}`", self.class_name(cid)),
                        )
                    })?;
                    if !sig.is_static {
                        return Err(self.err(
                            span,
                            format!("`{text}` is an instance method; call it on an object"),
                        ));
                    }
                    (None, sig)
                } else {
                    let (recv, rty) = self.lower_to_local(b)?;
                    let cid = match rty {
                        Type::Ref(c) => c,
                        other => {
                            return Err(
                                self.err(span, format!("method call on non-object {other:?}"))
                            )
                        }
                    };
                    let sig = self.find_sig(cid, name).ok_or_else(|| {
                        self.err(
                            span,
                            format!("no method `{text}` on `{}`", self.class_name(cid)),
                        )
                    })?;
                    if sig.is_static {
                        return Err(self.err(
                            span,
                            format!("`{text}` is static; call it via the class name"),
                        ));
                    }
                    (Some(recv), sig)
                }
            }
        };
        let args = self.unit.args(args);
        if sig.params.len() != args.len() {
            return Err(self.err(
                span,
                format!(
                    "`{text}` takes {} argument(s), {} given",
                    sig.params.len(),
                    args.len()
                ),
            ));
        }
        let mut arg_locals = Vec::with_capacity(args.len());
        for (&a, pty) in args.iter().zip(&sig.params) {
            arg_locals.push(self.lower_value_typed(a, pty)?);
        }
        let dst = (sig.ret != Type::Void).then(|| self.mb.temp(sig.ret.clone()));
        match receiver {
            Some(recv) => {
                self.mb.call_virtual(dst, recv, sig.id, &arg_locals);
            }
            None => {
                self.mb.call_static(dst, sig.id, &arg_locals);
            }
        }
        match dst {
            Some(d) => Ok((d, sig.ret.clone())),
            None => {
                // Void calls used in statement position: return a dummy.
                let t = self.mb.temp(Type::Int);
                self.mb.const_int(t, 0);
                Ok((t, Type::Void))
            }
        }
    }

    /// If `e` is a bare name that denotes a class (and is not shadowed by a
    /// local variable), returns the class id.
    fn class_name_of(&self, e: ExprId) -> Option<ClassId> {
        match self.unit.expr(e).kind {
            ExprKind::Name(name) if self.scopes.lookup(name).is_none() => self.tables.class(name),
            _ => None,
        }
    }

    // ---------- assignments ----------

    fn lower_assign(&mut self, target: ExprId, value: ExprId, span: TextRange) -> Result<()> {
        let target_span = self.unit.expr(target).span;
        match self.unit.expr(target).kind {
            ExprKind::Name(name) => {
                if let Some(local) = self.scopes.lookup(name) {
                    let lty = self.local_type(local);
                    let vty = self.lower_into(local, value)?;
                    let value = self.unit.expr(value);
                    if !matches!(value.kind, ExprKind::Null) {
                        self.check_assignable(&vty, &lty, value.span)?;
                    }
                    return Ok(());
                }
                // Unqualified field assignment.
                if let Some(fid) = self.resolve_field(self.class, name) {
                    let field = self.mb.program().field(fid);
                    let fty = field.ty.clone();
                    let is_static = field.is_static;
                    let v = self.lower_value_typed(value, &fty)?;
                    if is_static {
                        self.mb.static_store(fid, v);
                    } else {
                        if self.in_static_method() {
                            return Err(self.err(
                                target_span,
                                format!("instance field `{}` in a static method", self.name(name)),
                            ));
                        }
                        let this = self.mb.this();
                        self.mb.store(this, fid, v);
                    }
                    return Ok(());
                }
                Err(self.err(
                    target_span,
                    format!("unknown variable `{}`", self.name(name)),
                ))
            }
            ExprKind::Field { base, name } => {
                if let Some(cid) = self.class_name_of(base) {
                    let fid = self.resolve_field(cid, name).ok_or_else(|| {
                        self.err(
                            target_span,
                            format!("unknown static field `{}`", self.name(name)),
                        )
                    })?;
                    if !self.mb.program().field(fid).is_static {
                        return Err(
                            self.err(target_span, format!("`{}` is not static", self.name(name)))
                        );
                    }
                    let fty = self.mb.program().field(fid).ty.clone();
                    let v = self.lower_value_typed(value, &fty)?;
                    self.mb.static_store(fid, v);
                    return Ok(());
                }
                let (base_local, base_ty) = self.lower_to_local(base)?;
                let cid = base_ty
                    .class()
                    .ok_or_else(|| self.err(target_span, "field store on non-object"))?;
                let fid = self.resolve_field(cid, name).ok_or_else(|| {
                    self.err(
                        target_span,
                        format!(
                            "no field `{}` on `{}`",
                            self.name(name),
                            self.class_name(cid)
                        ),
                    )
                })?;
                if self.mb.program().field(fid).is_static {
                    return Err(self.err(target_span, format!("`{}` is static", self.name(name))));
                }
                let fty = self.mb.program().field(fid).ty.clone();
                let v = self.lower_value_typed(value, &fty)?;
                self.mb.store(base_local, fid, v);
                Ok(())
            }
            ExprKind::Index { base, index } => {
                let (base_local, base_ty) = self.lower_to_local(base)?;
                let elem_ty = base_ty
                    .element()
                    .ok_or_else(|| self.err(target_span, "indexing a non-array"))?
                    .clone();
                let (idx, ity) = self.lower_to_operand(index)?;
                if ity != Type::Int {
                    return Err(self.err(self.unit.expr(index).span, "array index must be `int`"));
                }
                let v = self.lower_value_typed(value, &elem_ty)?;
                self.mb.array_store(base_local, idx, v);
                Ok(())
            }
            _ => Err(self.err(span, "invalid assignment target")),
        }
    }

    /// Lowers `value` with an expected type (so `null` works), checking
    /// assignability: initializers, arguments, returns and stores.
    fn lower_value_typed(&mut self, value: ExprId, expected: &Type) -> Result<LocalId> {
        let expr = self.unit.expr(value);
        if let ExprKind::Null = expr.kind {
            let t = self.mb.temp(expected.clone());
            self.mb.assign_null(t);
            return Ok(t);
        }
        let (v, vty) = self.lower_to_local(value)?;
        self.check_assignable(&vty, expected, expr.span)?;
        Ok(v)
    }

    // ---------- conditions ----------

    fn lower_cond(&mut self, cond: ExprId) -> Result<Cond> {
        // Reference comparisons against null become IsNull/NotNull.
        if let Some((op, other)) = self.null_test(cond) {
            let (local, ty) = self.lower_to_local(other)?;
            if !ty.is_reference() {
                return Err(self.err(
                    self.unit.expr(other).span,
                    "`null` compared with a non-reference",
                ));
            }
            return Ok(if op == BinOp::Eq {
                Cond::IsNull(local)
            } else {
                Cond::NotNull(local)
            });
        }
        let expr = self.unit.expr(cond);
        match expr.kind {
            ExprKind::NonDet => Ok(Cond::NonDet),
            ExprKind::Binary { op, lhs, rhs } if op.is_comparison() => {
                let (l, lt) = self.lower_to_operand(lhs)?;
                let (r, rt) = self.lower_to_operand(rhs)?;
                match op {
                    BinOp::Eq | BinOp::Ne => {
                        if lt != rt {
                            return Err(
                                self.err(expr.span, "equality requires same-typed operands")
                            );
                        }
                        if lt.is_reference() {
                            return Err(self.err(
                                expr.span,
                                "reference equality is only supported against `null`",
                            ));
                        }
                    }
                    _ => {
                        if lt != Type::Int || rt != Type::Int {
                            return Err(self.err(expr.span, "comparison requires `int` operands"));
                        }
                    }
                }
                Ok(Cond::Cmp { op, lhs: l, rhs: r })
            }
            ExprKind::Not(inner) => {
                let (local, ty) = self.lower_to_local(inner)?;
                if ty != Type::Bool {
                    return Err(self.err(self.unit.expr(inner).span, "`!` requires a `boolean`"));
                }
                Ok(Cond::NotLocal(local))
            }
            _ => {
                let (local, ty) = self.lower_to_local(cond)?;
                if ty != Type::Bool {
                    return Err(self.err(expr.span, "condition must be `boolean`"));
                }
                Ok(Cond::Local(local))
            }
        }
    }
}
