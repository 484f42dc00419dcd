//! The [`Program`] container and its entity tables.

use crate::ids::{AllocSite, CallSite, ClassId, FieldId, LocalId, LoopId, MethodId};
use crate::stmt::{SiteLabel, Stmt};
use crate::types::Type;
use std::collections::HashMap;
use std::sync::Arc;

/// A class declaration.
#[derive(Clone, Debug)]
pub struct Class {
    /// Class name, unique within the program.
    pub name: String,
    /// Direct superclass; `None` only for the root class `Object`.
    pub superclass: Option<ClassId>,
    /// Instance and static fields declared directly by this class.
    pub fields: Vec<FieldId>,
    /// Methods declared directly by this class.
    pub methods: Vec<MethodId>,
    /// Marks standard-library classes. The detector applies the stronger
    /// flows-in condition to heap reads inside library code: a load counts
    /// as a flow back into the loop only if the loaded object is returned
    /// to application code (paper Section 4, "Flow into Library Methods").
    pub is_library: bool,
}

/// A field declaration (instance or static).
#[derive(Clone, Debug)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Declaring class; `None` only for the array-element pseudo-field.
    pub owner: Option<ClassId>,
    /// Declared type.
    pub ty: Type,
    /// `true` for `static` fields, which live in the global store.
    pub is_static: bool,
}

/// A local variable slot.
#[derive(Clone, Debug)]
pub struct Local {
    /// Source-level name (compiler temporaries are named `$tN`).
    pub name: String,
    /// Declared type.
    pub ty: Type,
}

/// A method declaration with its body.
#[derive(Clone, Debug)]
pub struct Method {
    /// Method name; constructors are named `<init>`.
    pub name: String,
    /// Declaring class.
    pub owner: ClassId,
    /// `true` for `static` methods (no `this`).
    pub is_static: bool,
    /// Number of declared parameters (excluding `this`).
    pub param_count: usize,
    /// Return type.
    pub ret_ty: Type,
    /// All local slots. For instance methods slot 0 is `this`; parameters
    /// occupy the next `param_count` slots.
    pub locals: Vec<Local>,
    /// Structured statement body.
    pub body: Vec<Stmt>,
}

impl Method {
    /// Returns the local slot of `this`, or `None` for static methods.
    pub fn this_local(&self) -> Option<LocalId> {
        if self.is_static {
            None
        } else {
            Some(LocalId(0))
        }
    }

    /// Returns the local slot of the `i`-th declared parameter.
    ///
    /// # Panics
    ///
    /// Panics if `i >= param_count`.
    pub fn param_local(&self, i: usize) -> LocalId {
        assert!(i < self.param_count, "parameter index out of range");
        let offset = if self.is_static { 0 } else { 1 };
        LocalId::from_index(offset + i)
    }

    /// Returns the local slots of all declared parameters, in order.
    pub fn param_locals(&self) -> Vec<LocalId> {
        (0..self.param_count).map(|i| self.param_local(i)).collect()
    }
}

/// Metadata about an allocation site.
#[derive(Clone, Debug)]
pub struct AllocInfo {
    /// The method containing the `new` statement.
    pub method: MethodId,
    /// The allocated type (class reference or array).
    pub ty: Type,
    /// Ground-truth label from the subject program, if any.
    pub label: SiteLabel,
    /// Optional human-readable description (e.g. `"new Order"`).
    pub describe: String,
}

/// Metadata about a call site.
#[derive(Clone, Debug)]
pub struct CallInfo {
    /// The method containing the call.
    pub method: MethodId,
}

/// Metadata about a structured loop.
#[derive(Clone, Debug)]
pub struct LoopInfo {
    /// The method whose body contains the loop.
    pub method: MethodId,
    /// `true` for artificial loops synthesized around a checkable region
    /// (paper Section 1: a repeatedly-executed code region is checked as
    /// the body of an artificial loop).
    pub synthetic: bool,
}

/// A whole IR program: classes, fields, methods and site tables.
///
/// Programs are immutable once built (via
/// [`ProgramBuilder`](crate::builder::ProgramBuilder) or the frontend);
/// analyses treat them as shared read-only input. Each table sits behind
/// an [`Arc`], so cloning a program is O(1) and shares every table; the
/// builder's mutators copy a table only when it is shared (copy on
/// write), as when a region's driver is added to a clone.
#[derive(Clone, Debug, Default)]
pub struct Program {
    classes: Arc<Vec<Class>>,
    fields: Arc<Vec<Field>>,
    methods: Arc<Vec<Method>>,
    allocs: Arc<Vec<AllocInfo>>,
    calls: Arc<Vec<CallInfo>>,
    loops: Arc<Vec<LoopInfo>>,
    class_by_name: Arc<HashMap<String, ClassId>>,
    entry: Option<MethodId>,
}

impl Program {
    /// Creates an empty program containing only the root class `Object`
    /// and the array-element pseudo-field.
    pub fn new() -> Self {
        let mut p = Program::default();
        Arc::make_mut(&mut p.fields).push(Field {
            name: "elem".to_string(),
            owner: None,
            ty: Type::Ref(ClassId(0)),
            is_static: false,
        });
        let object = p.push_class(Class {
            name: "Object".to_string(),
            superclass: None,
            fields: Vec::new(),
            methods: Vec::new(),
            is_library: true,
        });
        debug_assert_eq!(object, ClassId(0));
        p
    }

    /// The id of the root class `Object`.
    pub fn object_class(&self) -> ClassId {
        ClassId(0)
    }

    /// All classes, indexable by [`ClassId`].
    pub fn classes(&self) -> &[Class] {
        &self.classes
    }

    /// All fields, indexable by [`FieldId`].
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// All methods, indexable by [`MethodId`].
    pub fn methods(&self) -> &[Method] {
        &self.methods
    }

    /// All allocation sites, indexable by [`AllocSite`].
    pub fn allocs(&self) -> &[AllocInfo] {
        &self.allocs
    }

    /// All call sites, indexable by [`CallSite`].
    pub fn calls(&self) -> &[CallInfo] {
        &self.calls
    }

    /// All loops, indexable by [`LoopId`].
    pub fn loops(&self) -> &[LoopInfo] {
        &self.loops
    }

    /// Looks up a class.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// Looks up a field.
    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id.index()]
    }

    /// Looks up a method.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// Looks up allocation-site metadata.
    pub fn alloc(&self, id: AllocSite) -> &AllocInfo {
        &self.allocs[id.index()]
    }

    /// Looks up call-site metadata.
    pub fn call(&self, id: CallSite) -> &CallInfo {
        &self.calls[id.index()]
    }

    /// Looks up loop metadata.
    pub fn loop_info(&self, id: LoopId) -> &LoopInfo {
        &self.loops[id.index()]
    }

    /// Finds a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// Finds a method declared *directly* on `class` by name.
    pub fn method_on(&self, class: ClassId, name: &str) -> Option<MethodId> {
        self.classes[class.index()]
            .methods
            .iter()
            .copied()
            .find(|&m| self.methods[m.index()].name == name)
    }

    /// Finds a method by `"Class.name"` path.
    pub fn method_by_path(&self, path: &str) -> Option<MethodId> {
        let (class, name) = path.split_once('.')?;
        self.method_on(self.class_by_name(class)?, name)
    }

    /// Finds a field declared directly on `class` by name.
    pub fn field_on(&self, class: ClassId, name: &str) -> Option<FieldId> {
        self.classes[class.index()]
            .fields
            .iter()
            .copied()
            .find(|&f| self.fields[f.index()].name == name)
    }

    /// Resolves a field by name on `class` or any superclass.
    pub fn resolve_field(&self, class: ClassId, name: &str) -> Option<FieldId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(f) = self.field_on(c, name) {
                return Some(f);
            }
            cur = self.classes[c.index()].superclass;
        }
        None
    }

    /// Resolves a method by name on `class` or any superclass
    /// (the statically visible declaration).
    pub fn resolve_method(&self, class: ClassId, name: &str) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(m) = self.method_on(c, name) {
                return Some(m);
            }
            cur = self.classes[c.index()].superclass;
        }
        None
    }

    /// Returns `true` if `sub` equals `sup` or transitively extends it.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.classes[c.index()].superclass;
        }
        false
    }

    /// Iterates over `class` and all of its transitive superclasses,
    /// starting at `class` itself.
    pub fn ancestry(&self, class: ClassId) -> Ancestry<'_> {
        Ancestry {
            program: self,
            next: Some(class),
        }
    }

    /// The program entry point (`Main.main`), if one was designated.
    pub fn entry(&self) -> Option<MethodId> {
        self.entry
    }

    /// Designates the program entry point.
    pub fn set_entry(&mut self, method: MethodId) {
        self.entry = Some(method);
    }

    /// Returns `true` if the method belongs to a library class.
    pub fn is_library_method(&self, method: MethodId) -> bool {
        self.class(self.method(method).owner).is_library
    }

    /// Fully-qualified `Class.method` name for diagnostics.
    pub fn qualified_name(&self, method: MethodId) -> String {
        let m = self.method(method);
        format!("{}.{}", self.class(m.owner).name, m.name)
    }

    /// Human-readable name of a field (`Class.field` or `elem`).
    pub fn field_name(&self, field: FieldId) -> String {
        let f = self.field(field);
        match f.owner {
            Some(owner) => format!("{}.{}", self.class(owner).name, f.name),
            None => f.name.clone(),
        }
    }

    // ---- mutation API used by the builder / frontend ----

    pub(crate) fn push_class(&mut self, class: Class) -> ClassId {
        let id = ClassId::from_index(self.classes.len());
        Arc::make_mut(&mut self.class_by_name).insert(class.name.clone(), id);
        Arc::make_mut(&mut self.classes).push(class);
        id
    }

    pub(crate) fn push_field(&mut self, field: Field) -> FieldId {
        let id = FieldId::from_index(self.fields.len());
        if let Some(owner) = field.owner {
            self.class_mut(owner).fields.push(id);
        }
        Arc::make_mut(&mut self.fields).push(field);
        id
    }

    pub(crate) fn push_method(&mut self, method: Method) -> MethodId {
        let id = MethodId::from_index(self.methods.len());
        self.class_mut(method.owner).methods.push(id);
        Arc::make_mut(&mut self.methods).push(method);
        id
    }

    pub(crate) fn push_alloc(&mut self, info: AllocInfo) -> AllocSite {
        let id = AllocSite::from_index(self.allocs.len());
        Arc::make_mut(&mut self.allocs).push(info);
        id
    }

    pub(crate) fn push_call(&mut self, info: CallInfo) -> CallSite {
        let id = CallSite::from_index(self.calls.len());
        Arc::make_mut(&mut self.calls).push(info);
        id
    }

    pub(crate) fn push_loop(&mut self, info: LoopInfo) -> LoopId {
        let id = LoopId::from_index(self.loops.len());
        Arc::make_mut(&mut self.loops).push(info);
        id
    }

    pub(crate) fn class_mut(&mut self, id: ClassId) -> &mut Class {
        &mut Arc::make_mut(&mut self.classes)[id.index()]
    }

    pub(crate) fn method_mut(&mut self, id: MethodId) -> &mut Method {
        &mut Arc::make_mut(&mut self.methods)[id.index()]
    }

    /// Total number of simple (non-control) statements across all method
    /// bodies — the `Stmts` column of Table 1 counts Jimple statements the
    /// same way.
    pub fn statement_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::If {
                        then_branch,
                        else_branch,
                        ..
                    } => 1 + count(then_branch) + count(else_branch),
                    Stmt::While { body, .. } => 1 + count(body),
                    _ => 1,
                })
                .sum()
        }
        self.methods.iter().map(|m| count(&m.body)).sum()
    }
}

/// Iterator over a class and its superclasses; see [`Program::ancestry`].
#[derive(Clone, Debug)]
pub struct Ancestry<'p> {
    program: &'p Program,
    next: Option<ClassId>,
}

impl Iterator for Ancestry<'_> {
    type Item = ClassId;

    fn next(&mut self) -> Option<ClassId> {
        let cur = self.next?;
        self.next = self.program.class(cur).superclass;
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        let animal = pb.add_class("Animal", None);
        let dog = pb.add_class("Dog", Some(animal));
        pb.add_field(animal, "name", Type::Int, false);
        pb.add_field(dog, "tail", Type::Int, false);
        let mut mb = pb.method(animal, "speak", Type::Void, false);
        mb.ret(None);
        mb.finish();
        let mut mb = pb.method(dog, "speak", Type::Void, false);
        mb.ret(None);
        mb.finish();
        pb.finish()
    }

    #[test]
    fn object_is_class_zero() {
        let p = Program::new();
        assert_eq!(p.class(p.object_class()).name, "Object");
        assert!(p.class(p.object_class()).is_library);
        assert_eq!(p.fields()[0].name, "elem");
    }

    #[test]
    fn subclassing_and_ancestry() {
        let p = sample();
        let animal = p.class_by_name("Animal").unwrap();
        let dog = p.class_by_name("Dog").unwrap();
        assert!(p.is_subclass(dog, animal));
        assert!(p.is_subclass(dog, dog));
        assert!(!p.is_subclass(animal, dog));
        let chain: Vec<_> = p.ancestry(dog).collect();
        assert_eq!(chain, vec![dog, animal, p.object_class()]);
    }

    #[test]
    fn field_and_method_resolution() {
        let p = sample();
        let animal = p.class_by_name("Animal").unwrap();
        let dog = p.class_by_name("Dog").unwrap();
        // Inherited field resolves through the superclass chain.
        let name_field = p.resolve_field(dog, "name").unwrap();
        assert_eq!(p.field(name_field).owner, Some(animal));
        // Overridden method resolves to the most-derived declaration.
        let speak = p.resolve_method(dog, "speak").unwrap();
        assert_eq!(p.method(speak).owner, dog);
        assert_eq!(p.qualified_name(speak), "Dog.speak");
        assert!(p.resolve_field(dog, "nonexistent").is_none());
    }

    #[test]
    fn method_path_lookup() {
        let p = sample();
        assert!(p.method_by_path("Dog.speak").is_some());
        assert!(p.method_by_path("Dog.bark").is_none());
        assert!(p.method_by_path("Cat.speak").is_none());
        assert!(p.method_by_path("nodot").is_none());
    }

    #[test]
    fn clones_share_tables_until_written() {
        let p = sample();
        let mut q = p.clone();
        assert!(Arc::ptr_eq(&p.methods, &q.methods));
        let dog = q.class_by_name("Dog").unwrap();
        let mut pb = crate::builder::ProgramBuilder::resume(q);
        pb.method(dog, "bark", Type::Void, false).finish();
        q = pb.finish();
        // The write copied the tables it touched and left the rest shared.
        assert!(!Arc::ptr_eq(&p.methods, &q.methods));
        assert!(Arc::ptr_eq(&p.fields, &q.fields));
        assert!(p.method_by_path("Dog.bark").is_none());
        assert!(q.method_by_path("Dog.bark").is_some());
    }

    #[test]
    fn statement_count_counts_nested() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        let mut mb = pb.method(c, "m", Type::Void, true);
        let x = mb.local("x", Type::Int);
        mb.const_int(x, 1);
        mb.while_loop(|mb| {
            mb.const_int(x, 2);
            mb.if_nondet(
                |mb| {
                    mb.const_int(x, 3);
                },
                |_| {},
            );
        });
        mb.finish();
        let p = pb.finish();
        // const + while + (const + if + const)
        assert_eq!(p.statement_count(), 5);
    }
}
