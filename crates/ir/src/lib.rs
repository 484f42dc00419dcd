//! A Java-like three-address intermediate representation (IR).
//!
//! This crate is the substrate on which the LeakChecker reproduction is
//! built. The paper's tool operates on Soot's Jimple IR for Java bytecode;
//! this crate plays the same role: it defines a small object-oriented
//! language with classes, instance and static fields, virtual and static
//! methods, and *structured* statement bodies (`while` loops and `if`
//! branches are kept as trees rather than lowered to a control-flow graph).
//!
//! Keeping loops structured matches the formal while-language of the paper
//! (Section 3, Figures 2 and 3): the type-and-effect system iterates over the
//! body of an explicitly designated loop, and the concrete semantics indexes
//! run-time objects by the iteration of the loop in which they were created.
//!
//! # Architecture
//!
//! * [`program`] — the [`Program`] container: classes, fields, methods,
//!   allocation-site and call-site tables.
//! * [`stmt`] — statements, conditions and operands.
//! * [`types`] — the [`Type`] enum (`int`, `boolean`, references, arrays).
//! * [`builder`] — ergonomic construction of programs from Rust code.
//! * [`visit`] — recursive statement walkers.
//! * [`loops`] — loop discovery and structural ranking statistics.
//! * [`pretty`] — a human-readable printer for whole programs.
//! * [`validate`] — structural well-formedness checks.
//!
//! # Example
//!
//! Build the two-statement program `b = new A(); while (*) { c = new A(); }`
//! and print it:
//!
//! ```
//! use leakchecker_ir::builder::ProgramBuilder;
//! use leakchecker_ir::types::Type;
//!
//! let mut pb = ProgramBuilder::new();
//! let class_a = pb.add_class("A", None);
//! let main_class = pb.add_class("Main", None);
//! let mut mb = pb.method(main_class, "main", Type::Void, true);
//! let b = mb.local("b", Type::Ref(class_a));
//! let c = mb.local("c", Type::Ref(class_a));
//! mb.new_object(b, class_a);
//! mb.while_loop(|mb| {
//!     mb.new_object(c, class_a);
//! });
//! mb.finish();
//! let program = pb.finish();
//! assert_eq!(program.loops().len(), 1);
//! let text = leakchecker_ir::pretty::print_program(&program);
//! assert!(text.contains("while"));
//! ```

pub mod builder;
pub mod ids;
pub mod loops;
pub mod pretty;
pub mod program;
pub mod stmt;
pub mod types;
pub mod validate;
pub mod visit;

pub use ids::{AllocSite, CallSite, ClassId, FieldId, LocalId, LoopId, MethodId};
pub use program::{AllocInfo, CallInfo, Class, Field, Local, LoopInfo, Method, Program};
pub use stmt::{BinOp, CallKind, Cond, Operand, SiteLabel, Stmt};
pub use types::Type;
