//! LeakChecker: loop-centric static memory leak detection for managed
//! languages — a from-scratch Rust reproduction of the CGO 2014 paper.
//!
//! Memory leaks in garbage-collected languages come from *unnecessary
//! references*: objects that can no longer do useful work are kept
//! reachable, so the collector can never reclaim them. Computing object
//! liveness statically is intractable for large programs; LeakChecker
//! instead exploits a leak *pattern*: severe leaks sit in frequently
//! executed loops (transaction dispatchers, event loops, request
//! handlers), where each iteration stores freshly created objects into
//! long-lived outside objects and later iterations never read them back.
//!
//! The pipeline, given a program and a developer-designated loop (or a
//! checkable *region* wrapped in an artificial loop):
//!
//! 1. build a call graph (`leakchecker_callgraph`);
//! 2. run the type-and-effect system (`leakchecker_effects`) to compute
//!    each allocation site's extended recency abstraction (ERA) and the
//!    abstract heap store/load effect sets;
//! 3. derive the transitive flows-out / flows-in relations and match them
//!    ([`flows`]), applying library modeling (reads inside library code
//!    count only when the value is returned to application code) and
//!    optional thread modeling (started threads are outside objects);
//! 4. report escaping sites whose ERA is `⊤̂` or that escape through a
//!    *redundant edge* — an outside field with no matching flows-in —
//!    filtered by pivot mode to structure roots, each with the calling
//!    contexts under which the site allocates ([`detect`], [`report`]).
//!
//! # Quick start
//!
//! ```
//! use leakchecker::{check, CheckTarget, DetectorConfig};
//!
//! let unit = leakchecker_frontend::compile(r#"
//!     class Order { }
//!     class Transaction { Order pending; }
//!     class Server {
//!         static void main() {
//!             Transaction tx = new Transaction();
//!             @check while (nondet()) {
//!                 Order o = new Order();
//!                 tx.pending = o;    // stored, never read back: a leak
//!             }
//!         }
//!     }
//! "#).unwrap();
//!
//! let result = check(&unit.program,
//!                    CheckTarget::Loop(unit.checked_loops[0]),
//!                    DetectorConfig::default()).unwrap();
//! assert_eq!(result.reports.len(), 1);
//! assert_eq!(result.reports[0].describe, "new Order");
//! ```

pub mod cache;
pub mod contexts;
pub mod detect;
pub mod flows;
pub mod governor;
pub mod oracle;
pub mod parallel;
pub mod persist;
pub mod refine;
pub mod report;
pub mod server;
pub mod target;
pub mod witness;

pub use cache::{
    cacheable_config, compute_keys, CacheStats, CachedTarget, ProgramKeys, SummaryCache, TargetKeys,
};
pub use contexts::{ContextConfig, ContextTable};
pub use detect::{check, AnalysisResult, DetectorConfig, PhaseTimes, RunStats};
pub use flows::{FlowConfig, FlowRelations, OutsideEdge};
pub use governor::{
    parse_fault_plan, render_fault_plan, Confidence, DegradeCause, FaultPlan, Governor,
    GovernorConfig, GovernorStats,
};
pub use oracle::{compare as oracle_compare, covered_sites, OracleComparison};
pub use parallel::{
    effective_jobs, lock_resilient, parallel_map, parallel_map_isolated, read_resilient,
    write_resilient,
};
pub use persist::write_atomic;
pub use refine::{Refinement, SiteVerdict};
pub use report::{json_escape, render_all, LeakReport};
pub use server::{
    route_key, BreakerConfig, BreakerState, BreakerStats, CircuitBreaker, DrainState, HashRing,
    ServeConfig, ServeCore, ServeStats, SubmitError,
};
pub use target::{CheckTarget, ResolvedTarget, TargetError};
pub use witness::{ChainHop, EscapeChain, HopBase, QueryTrace, StmtAnchor, StmtIndex};
