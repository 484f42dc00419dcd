//! Abstract syntax tree of the surface language, stored flat.
//!
//! The parser builds this tree; the resolver lowers it to the
//! three-address IR of `leakchecker-ir`. Nodes live in the [`Unit`]'s
//! vectors and refer to each other by `u32` ids, so building the tree is
//! a few appends and dropping it is a few deallocations. Names are
//! interned once as [`Symbol`]s; source positions are byte ranges.

use crate::error::TextRange;
use leakchecker_ir::stmt::BinOp;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// An interned name.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The symbol's index, for symbol-indexed tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Symbols every unit interns first, in this order.
pub mod sym {
    use super::Symbol;

    /// `Object`, the implicit root class.
    pub const OBJECT: Symbol = Symbol(0);
    /// `<init>`, the name constructors are lowered to.
    pub const INIT: Symbol = Symbol(1);
    /// `main`, the entry point's name.
    pub const MAIN: Symbol = Symbol(2);
    /// `int`
    pub const INT: Symbol = Symbol(3);
    /// `boolean`
    pub const BOOLEAN: Symbol = Symbol(4);
    /// `void`
    pub const VOID: Symbol = Symbol(5);

    pub(super) const PRELUDE: [&str; 6] = ["Object", "<init>", "main", "int", "boolean", "void"];
}

/// A multiply-rotate hasher (the rustc `FxHasher` scheme) for keys the
/// frontend assigns itself, such as `(class, symbol)` id pairs. Keys
/// taken from the source text (names) keep the default hasher, whose
/// random keys resist inputs crafted to collide.
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Interns the names of one source text.
#[derive(Clone, Debug)]
pub struct Interner<'s> {
    ids: HashMap<&'s str, Symbol>,
    names: Vec<&'s str>,
}

impl Default for Interner<'_> {
    fn default() -> Self {
        let mut interner = Interner {
            ids: HashMap::new(),
            names: Vec::new(),
        };
        for name in sym::PRELUDE {
            interner.intern(name);
        }
        interner
    }
}

impl<'s> Interner<'s> {
    /// The symbol of `name`, interning it on first sight.
    pub fn intern(&mut self, name: &'s str) -> Symbol {
        if let Some(&s) = self.ids.get(name) {
            return s;
        }
        let s = Symbol(self.names.len() as u32);
        self.ids.insert(name, s);
        self.names.push(name);
        s
    }

    /// The text of a symbol.
    pub fn name(&self, s: Symbol) -> &'s str {
        self.names[s.index()]
    }

    /// Number of distinct symbols (symbol-indexed tables use this size).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing beyond the prelude symbols was interned.
    pub fn is_empty(&self) -> bool {
        self.names.len() == sym::PRELUDE.len()
    }
}

/// Index of an expression in [`Unit::exprs`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ExprId(pub u32);

/// Index of a statement in [`Unit::stmts`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct StmtId(pub u32);

/// A run of ids in one of the unit's list arenas ([`Unit::block`],
/// [`Unit::args`]).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct List {
    start: u32,
    len: u32,
}

impl List {
    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A parsed compilation unit: class declarations plus the arenas their
/// members, statements and expressions live in.
#[derive(Clone, Debug, Default)]
pub struct Unit<'s> {
    /// The source text the unit was parsed from.
    pub source: &'s str,
    /// Interned names.
    pub names: Interner<'s>,
    /// All classes in source order.
    pub classes: Vec<ClassDecl>,
    /// Field declarations, each class's fields contiguous.
    pub fields: Vec<FieldDecl>,
    /// Method declarations, each class's methods contiguous.
    pub methods: Vec<MethodDecl>,
    /// Formal parameters, each method's parameters contiguous.
    pub params: Vec<Param>,
    /// Statement nodes.
    pub stmts: Vec<Stmt>,
    /// Expression nodes.
    pub exprs: Vec<Expr>,
    /// Blocks: runs of statement ids.
    pub stmt_lists: Vec<StmtId>,
    /// Argument lists: runs of expression ids.
    pub expr_lists: Vec<ExprId>,
    /// `@fp("...")` reasons, unescaped.
    pub strings: Vec<String>,
}

impl<'s> Unit<'s> {
    /// A statement node.
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.0 as usize]
    }

    /// An expression node.
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }

    /// The statements of a block.
    pub fn block(&self, list: List) -> &[StmtId] {
        &self.stmt_lists[list.range()]
    }

    /// The expressions of an argument list.
    pub fn args(&self, list: List) -> &[ExprId] {
        &self.expr_lists[list.range()]
    }

    /// The text of a name.
    pub fn name(&self, s: Symbol) -> &'s str {
        self.names.name(s)
    }

    /// A class's fields.
    pub fn fields_of(&self, class: &ClassDecl) -> &[FieldDecl] {
        &self.fields[class.fields.clone()]
    }

    /// A class's methods.
    pub fn methods_of(&self, class: &ClassDecl) -> &[MethodDecl] {
        &self.methods[class.methods.clone()]
    }

    /// A method's parameters.
    pub fn params_of(&self, method: &MethodDecl) -> &[Param] {
        &self.params[method.params.clone()]
    }

    pub(crate) fn push_expr(&mut self, expr: Expr) -> ExprId {
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(expr);
        id
    }

    pub(crate) fn push_stmt(&mut self, stmt: Stmt) -> StmtId {
        let id = StmtId(self.stmts.len() as u32);
        self.stmts.push(stmt);
        id
    }

    /// Moves `scratch[from..]` into the block arena as one list.
    pub(crate) fn seal_block(&mut self, scratch: &mut Vec<StmtId>, from: usize) -> List {
        let start = self.stmt_lists.len() as u32;
        self.stmt_lists.extend(scratch.drain(from..));
        List {
            start,
            len: self.stmt_lists.len() as u32 - start,
        }
    }

    /// Moves `scratch[from..]` into the argument arena as one list.
    pub(crate) fn seal_args(&mut self, scratch: &mut Vec<ExprId>, from: usize) -> List {
        let start = self.expr_lists.len() as u32;
        self.expr_lists.extend(scratch.drain(from..));
        List {
            start,
            len: self.expr_lists.len() as u32 - start,
        }
    }
}

/// A class declaration.
#[derive(Clone, Debug)]
pub struct ClassDecl {
    /// Class name.
    pub name: Symbol,
    /// Superclass name, if an `extends` clause is present.
    pub superclass: Option<Symbol>,
    /// `library class` marks standard-library code.
    pub is_library: bool,
    /// The class's slice of [`Unit::fields`].
    pub fields: Range<usize>,
    /// The class's slice of [`Unit::methods`].
    pub methods: Range<usize>,
    /// Source location of the declaration's first token.
    pub span: TextRange,
}

/// A field declaration, optionally with an initializer expression.
#[derive(Clone, Debug)]
pub struct FieldDecl {
    /// Field name.
    pub name: Symbol,
    /// Declared type.
    pub ty: TypeName,
    /// `static` flag.
    pub is_static: bool,
    /// Optional initializer, lowered into constructor prologues.
    pub init: Option<ExprId>,
    /// Source location.
    pub span: TextRange,
}

/// A method or constructor declaration.
#[derive(Clone, Debug)]
pub struct MethodDecl {
    /// Method name; constructors are named [`sym::INIT`].
    pub name: Symbol,
    /// `true` when this is a constructor.
    pub is_ctor: bool,
    /// `static` flag.
    pub is_static: bool,
    /// `@region` marks the method as a checkable region: the detector
    /// wraps its body in an artificial loop (paper Section 1).
    pub is_region: bool,
    /// Return type (`void` for constructors).
    pub ret_ty: TypeName,
    /// The method's slice of [`Unit::params`].
    pub params: Range<usize>,
    /// Body statements.
    pub body: List,
    /// Source location of the declaration.
    pub span: TextRange,
}

/// A formal parameter.
#[derive(Clone, Debug)]
pub struct Param {
    /// Parameter name.
    pub name: Symbol,
    /// Declared type.
    pub ty: TypeName,
}

/// A syntactic type name (resolved to `leakchecker_ir::Type` later).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TypeName {
    /// Base name: [`sym::INT`], [`sym::BOOLEAN`], [`sym::VOID`], or a
    /// class name.
    pub base: Symbol,
    /// Number of `[]` suffixes.
    pub dims: u32,
    /// Source location.
    pub span: TextRange,
}

/// A statement.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// `T x;` or `T x = e;`
    VarDecl {
        /// Declared type.
        ty: TypeName,
        /// Variable name.
        name: Symbol,
        /// Optional initializer.
        init: Option<ExprId>,
        /// Location.
        span: TextRange,
    },
    /// `lhs = e;` where `lhs` is a local, field, array element or static
    /// field place.
    Assign {
        /// Assignment target.
        target: ExprId,
        /// Right-hand side.
        value: ExprId,
        /// Location.
        span: TextRange,
    },
    /// An expression evaluated for effect (a call).
    Expr(ExprId),
    /// `if (cond) { .. } else { .. }`.
    If {
        /// Condition.
        cond: ExprId,
        /// Then branch.
        then_branch: List,
        /// Else branch (possibly empty).
        else_branch: List,
    },
    /// `while (cond) { .. }`, possibly annotated `@check`.
    While {
        /// Condition.
        cond: ExprId,
        /// Body.
        body: List,
        /// `@check` designates this loop for leak analysis.
        checked: bool,
    },
    /// `return;` or `return e;`
    Return(Option<ExprId>, TextRange),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
}

/// A ground-truth annotation attached to a `new` expression.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AllocAnnotation {
    /// `@leak` — the site is a genuine leak.
    Leak,
    /// `@fp("why")` — reporting this site is an expected false positive;
    /// the reason is [`Unit::strings`]`[i]`.
    FalsePositive(u32),
}

/// An expression node: what it is and where it starts.
#[derive(Clone, Debug)]
pub struct Expr {
    /// The expression.
    pub kind: ExprKind,
    /// Location (of the operator, for binary and postfix expressions).
    pub span: TextRange,
}

/// The kinds of expression.
#[derive(Clone, Debug)]
pub enum ExprKind {
    /// `null`.
    Null,
    /// `this`.
    This,
    /// Integer literal.
    Int(i64),
    /// `true` / `false`.
    Bool(bool),
    /// A plain name (local variable; resolved later).
    Name(Symbol),
    /// `e.f` field access — `e` may resolve to a class name, making this a
    /// static field access.
    Field {
        /// Receiver expression.
        base: ExprId,
        /// Field name.
        name: Symbol,
    },
    /// `e[i]` array element access.
    Index {
        /// Array expression.
        base: ExprId,
        /// Index expression.
        index: ExprId,
    },
    /// `e.m(args)` / `ClassName.m(args)` / `m(args)` (implicit `this`).
    Call {
        /// Receiver; `None` means implicit `this` or same-class static.
        base: Option<ExprId>,
        /// Method name.
        name: Symbol,
        /// Arguments.
        args: List,
    },
    /// `new C(args)` with optional `@leak` / `@fp` annotation.
    New {
        /// Class name.
        class: Symbol,
        /// Constructor arguments.
        args: List,
        /// Ground-truth annotation.
        annotation: Option<AllocAnnotation>,
    },
    /// `new T[len]` with optional annotation.
    NewArray {
        /// Element type.
        elem: TypeName,
        /// Length expression.
        len: ExprId,
        /// Ground-truth annotation.
        annotation: Option<AllocAnnotation>,
    },
    /// `a OP b`.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// `!e`.
    Not(ExprId),
    /// `-e`.
    Neg(ExprId),
    /// `nondet()` — an opaque boolean the analyses treat as unknown.
    NonDet,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_seeded() {
        let mut names = Interner::default();
        assert!(names.is_empty());
        assert_eq!(names.intern("Object"), sym::OBJECT);
        assert_eq!(names.intern("void"), sym::VOID);
        let a = names.intern("Order");
        assert_eq!(names.intern("Order"), a);
        assert_ne!(names.intern("Orders"), a);
        assert_eq!(names.name(a), "Order");
        assert_eq!(names.len(), sym::PRELUDE.len() + 2);
    }
}
