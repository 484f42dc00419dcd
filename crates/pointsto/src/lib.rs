//! Points-to analyses for the LeakChecker reproduction.
//!
//! Two engines over one pointer-assignment graph:
//!
//! * [`andersen`] — an exhaustive, context-insensitive, subset-based
//!   analysis (the textbook baseline, used for differential testing and
//!   as a fallback);
//! * [`demand`] — the demand-driven, context-sensitive CFL-reachability
//!   engine the paper's implementation relies on, with k-limited call
//!   strings and per-query budgets.
//!
//! See [`pag`] for graph construction and [`context`] for call strings.
//!
//! # Example
//!
//! ```
//! use leakchecker_frontend::compile;
//! use leakchecker_callgraph::{Algorithm, CallGraph};
//! use leakchecker_pointsto::pag::{Node, Pag};
//! use leakchecker_pointsto::demand::{DemandConfig, DemandPointsTo, QueryTicket};
//! use leakchecker_pointsto::context::Context;
//! use leakchecker_ir::ids::LocalId;
//!
//! let unit = compile("class C { static void main() { C x = new C(); } }").unwrap();
//! let cg = CallGraph::build(&unit.program, Algorithm::Rta);
//! let pag = Pag::build(&unit.program, &cg);
//! let engine = DemandPointsTo::new(&unit.program, &pag, DemandConfig::default());
//! let main = unit.program.method_by_path("C.main").unwrap();
//! let ticket = QueryTicket::hermetic(100_000);
//! let (result, _stats, _witnesses) =
//!     engine.points_to(Node::Local(main, LocalId(0)), &Context::empty(), &ticket);
//! assert!(result.complete);
//! assert_eq!(result.objects.len(), 1);
//! ```

pub mod andersen;
pub mod context;
pub mod demand;
pub mod intern;
pub mod pag;
pub mod sync;

pub use andersen::Andersen;
pub use context::Context;
pub use demand::{
    CtxObject, DemandConfig, DemandPointsTo, EngineStats, PtResult, QueryStats, QueryTicket,
    SiteWitness, WitnessKind, WitnessStep,
};
pub use intern::{ContextInterner, CtxId};
pub use pag::{EdgeLabel, LoadStmt, Node, NodeId, Pag, StoreStmt};
pub use sync::{lock_resilient, read_resilient, write_resilient};
