//! Deterministic parallel building blocks, re-exported for the detector.
//!
//! The work-stealing scheduler itself lives in the dependency-free
//! `leakchecker-parallel` crate.
//! The poison-resistant lock helpers stay re-exported from
//! `leakchecker-pointsto`, which owns the shared memo they guard.

pub use leakchecker_parallel::{effective_jobs, parallel_map, parallel_map_isolated};
pub use leakchecker_pointsto::sync::{lock_resilient, read_resilient, write_resilient};
