//! # hilog-repro
//!
//! Umbrella crate for the reproduction of Kenneth A. Ross, *"On Negation in
//! HiLog"* (PODS 1991 / Journal of Logic Programming 18:27–53, 1994).
//!
//! This crate re-exports the workspace members so that the examples under
//! `examples/` and the integration tests under `tests/` can exercise the full
//! public API through a single dependency:
//!
//! * [`core`] — terms, unification, programs, interpretations, syntactic
//!   classes, the universal-relation transformation;
//! * [`syntax`] — the concrete HiLog syntax (parser and printer);
//! * [`engine`] — grounding, well-founded and stable-model semantics, modular
//!   stratification (Figure 1), magic sets, aggregation, and the `HiLogDb`
//!   session facade;
//! * [`datalog`] — the baseline normal Datalog engine;
//! * [`workloads`] — program and data generators used by the tests, the
//!   examples and the benchmark (`benchmark/`).

#![forbid(unsafe_code)]

pub use hilog_core as core;
pub use hilog_datalog as datalog;
pub use hilog_engine as engine;
pub use hilog_syntax as syntax;
pub use hilog_workloads as workloads;

/// Convenience prelude pulling in the most frequently used items from every
/// workspace crate.
pub mod prelude {
    pub use hilog_core::prelude::*;
    pub use hilog_engine::prelude::*;
    pub use hilog_syntax::{parse_program, parse_query, parse_term};
}
