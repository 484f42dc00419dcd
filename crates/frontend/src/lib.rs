//! Frontend for the LeakChecker reproduction: a Java-like surface language
//! compiled to the `leakchecker-ir` three-address IR.
//!
//! The original tool analyzes Java bytecode through the Soot framework.
//! This crate fills that role for the reproduction: subject programs are
//! written in a compact Java-like syntax and compiled to the IR every
//! analysis consumes.
//!
//! # Language summary
//!
//! * `class C extends D { ... }` with instance/static fields and methods;
//!   `library class` marks standard-library code (which the detector
//!   handles with a stronger flows-in condition).
//! * Statements: declarations with initializers, assignments, `if`/`else`,
//!   `while`, `return`, `break`, `continue`, call statements.
//! * Expressions: `new C(args)`, `new T[n]`, field and array accesses,
//!   virtual / static calls, integer and boolean arithmetic, `nondet()`
//!   (an opaque boolean the analyses treat as unknown).
//! * Annotations: `@check while (...) { ... }` designates the loop the
//!   detector analyzes; `@region` on a method designates a checkable
//!   region (wrapped in an artificial loop); `@leak` / `@fp("why")` before
//!   `new` record ground truth used by the evaluation harness.
//!
//! # Example
//!
//! ```
//! let unit = leakchecker_frontend::compile(r#"
//!     class Event { }
//!     class Server {
//!         Event last;
//!         static void main() {
//!             Server s = new Server();
//!             @check while (nondet()) {
//!                 Event e = new Event();
//!                 s.last = e;
//!             }
//!         }
//!     }
//! "#).unwrap();
//! assert_eq!(unit.checked_loops.len(), 1);
//! assert!(unit.program.entry().is_some());
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod resolve;

pub use error::{CompileError, Phase, Pos, Span, TextRange};
pub use resolve::CompiledUnit;

/// Compiles source text to IR in one step: tokenize, parse, resolve.
///
/// The stages share no copies: tokens are byte ranges of `source`, the
/// syntax tree is a handful of flat vectors with names interned once,
/// and lowering borrows both.
///
/// # Errors
///
/// Returns the first [`CompileError`] from any phase.
pub fn compile(source: &str) -> error::Result<CompiledUnit> {
    let unit = parser::parse(source)?;
    resolve::lower(&unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakchecker_ir::stmt::{SiteLabel, Stmt};
    use leakchecker_ir::validate::assert_valid;
    use leakchecker_ir::visit::walk_stmts;

    #[test]
    fn compiles_figure1_like_program() {
        let unit = compile(
            r#"
            class Order { int custId; }
            class Customer {
                Order[] orders = new Order[16];
                int n;
                void addOrder(Order y) {
                    Order[] arr = this.orders;
                    arr[this.n] = y;
                    this.n = this.n + 1;
                }
            }
            class Transaction {
                Customer[] customers = new Customer[4];
                Order curr;
                Transaction() {
                    int i = 0;
                    while (i < 4) {
                        Customer newCust = new Customer();
                        Customer[] cs = this.customers;
                        cs[i] = newCust;
                        i = i + 1;
                    }
                }
                void process(Order p) {
                    this.curr = p;
                    Customer[] custs = this.customers;
                    Customer c = custs[p.custId];
                    c.addOrder(p);
                }
                void display() {
                    Order o = this.curr;
                    if (o != null) {
                        this.curr = null;
                    }
                }
            }
            class Main {
                static void main() {
                    Transaction t = new Transaction();
                    @check while (nondet()) {
                        t.display();
                        Order order = @leak new Order();
                        t.process(order);
                    }
                }
            }
            "#,
        )
        .unwrap();
        assert_valid(&unit.program);
        assert_eq!(unit.checked_loops.len(), 1);
        // The @leak annotation landed on the Order allocation.
        let leaks: Vec<_> = unit
            .program
            .allocs()
            .iter()
            .filter(|a| a.label.is_leak())
            .collect();
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].describe, "new Order");
    }

    #[test]
    fn constructor_runs_field_initializers() {
        let unit = compile(
            "class C { C next = null; int n = 7; }
             class Main { static void main() { C c = new C(); } }",
        )
        .unwrap();
        let init = unit.program.method_by_path("C.<init>").unwrap();
        let body = &unit.program.method(init).body;
        let mut stores = 0;
        walk_stmts(body, &mut |s| {
            if matches!(s, Stmt::Store { .. }) {
                stores += 1;
            }
        });
        assert_eq!(stores, 2);
    }

    #[test]
    fn implicit_super_constructor_chaining() {
        let unit = compile(
            "class Base { int x = 3; }
             class Derived extends Base { int y = 4; }
             class Main { static void main() { Derived d = new Derived(); } }",
        )
        .unwrap();
        let init = unit.program.method_by_path("Derived.<init>").unwrap();
        let mut calls = 0;
        walk_stmts(&unit.program.method(init).body, &mut |s| {
            if matches!(s, Stmt::Call { .. }) {
                calls += 1;
            }
        });
        assert_eq!(calls, 1, "implicit super() call expected");
    }

    #[test]
    fn while_condition_with_field_read_recomputes() {
        let unit = compile(
            "class Node { Node next; }
             class Main {
               static void main() {
                 Node head = new Node();
                 Node cur = head;
                 while (cur != null) {
                   cur = cur.next;
                 }
               }
             }",
        )
        .unwrap();
        assert_valid(&unit.program);
    }

    #[test]
    fn region_annotation_is_collected() {
        let unit = compile(
            "class Plugin { @region void runCompare() { } }
             class Main { static void main() { } }",
        )
        .unwrap();
        assert_eq!(unit.region_methods.len(), 1);
        assert_eq!(
            unit.program.qualified_name(unit.region_methods[0]),
            "Plugin.runCompare"
        );
    }

    #[test]
    fn static_fields_and_methods() {
        let unit = compile(
            "class Registry {
               static Registry instance;
               static Registry get() {
                 Registry r = Registry.instance;
                 if (r == null) {
                   r = new Registry();
                   Registry.instance = r;
                 }
                 return r;
               }
             }
             class Main { static void main() { Registry r = Registry.get(); } }",
        )
        .unwrap();
        assert_valid(&unit.program);
    }

    #[test]
    fn virtual_dispatch_compiles_through_supertype() {
        let unit = compile(
            "class Shape { int area() { return 0; } }
             class Square extends Shape { int area() { return 4; } }
             class Main {
               static void main() {
                 Shape s = new Square();
                 int a = s.area();
               }
             }",
        )
        .unwrap();
        assert_valid(&unit.program);
        // The statically resolved callee is Shape.area (virtual dispatch
        // resolves it later).
        let main = unit.program.entry().unwrap();
        let mut target = None;
        walk_stmts(&unit.program.method(main).body, &mut |s| {
            if let Stmt::Call { method, .. } = s {
                if unit.program.method(*method).name == "area" {
                    target = Some(*method);
                }
            }
        });
        assert_eq!(unit.program.qualified_name(target.unwrap()), "Shape.area");
    }

    #[test]
    fn fp_annotation_label() {
        let unit = compile(
            "class C {
               static void main() {
                 C x = @fp(\"singleton\") new C();
               }
             }",
        )
        .unwrap();
        let labeled: Vec<_> = unit
            .program
            .allocs()
            .iter()
            .filter(|a| a.label.is_expected_fp())
            .collect();
        assert_eq!(labeled.len(), 1);
        assert_eq!(
            labeled[0].label,
            SiteLabel::FalsePositive("singleton".into())
        );
    }

    #[test]
    fn errors_unknown_variable() {
        let e = compile("class C { void m() { x = 1; } }").unwrap_err();
        assert!(e.message.contains("unknown variable"), "{e}");
    }

    #[test]
    fn errors_unknown_class() {
        let e = compile("class C { void m() { D d = new D(); } }").unwrap_err();
        assert!(e.message.contains("unknown"), "{e}");
    }

    #[test]
    fn errors_type_mismatch() {
        let e = compile(
            "class A { } class B { }
             class C { void m() { A a = new A(); B b = new B(); a = b; } }",
        )
        .unwrap_err();
        assert!(e.message.contains("type mismatch"), "{e}");
    }

    #[test]
    fn errors_arity_mismatch() {
        let e = compile("class C { void f(int x) { } void m() { f(); } }").unwrap_err();
        assert!(e.message.contains("argument"), "{e}");
    }

    #[test]
    fn errors_inheritance_cycle() {
        let e = compile("class A extends B { } class B extends A { }").unwrap_err();
        assert!(e.message.contains("cycle"), "{e}");
    }

    #[test]
    fn errors_this_in_static() {
        let e = compile("class C { int f; static void m() { int x = this.f; } }").unwrap_err();
        assert!(e.message.contains("static"), "{e}");
    }

    #[test]
    fn errors_duplicate_class() {
        let e = compile("class A { } class A { }").unwrap_err();
        assert!(e.message.contains("duplicate class"), "{e}");
    }

    #[test]
    fn subclass_assignment_allowed() {
        compile(
            "class A { } class B extends A { }
             class C { void m() { A a = new B(); } }",
        )
        .unwrap();
    }

    #[test]
    fn unqualified_field_and_method_access() {
        let unit = compile(
            "class Counter {
               int n;
               void bump() { n = n + 1; }
               void twice() { bump(); bump(); }
             }
             class Main { static void main() { Counter c = new Counter(); c.twice(); } }",
        )
        .unwrap();
        assert_valid(&unit.program);
    }
}
