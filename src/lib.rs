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
    pub use hilog_core::{
        Aggregate, AggregateFunc, BuiltinCall, BuiltinOp, HerbrandBounds, HerbrandUniverse,
        Literal, Model, Program, Query, Rule, Substitution, Symbol, Term, Truth, Var, Vocabulary,
    };
    pub use hilog_engine::{
        evaluate_aggregate_program, least_model, magic_transform, parts_explosion_program,
        preserved_by_extension_stable, preserved_by_extension_wfs, relevant_ground,
        well_founded_eval, well_founded_model_over_universe, AtomStore, DbSnapshot, DbWriter,
        EngineError, EvalOptions, EvalStats, FactStore, GroundProgram, GroundRule, HiLogDb,
        HiLogDbBuilder, ModelSource, ModularOutcome, NegationMode, PlanStrategy, QueryAnswer,
        QueryPlan, QueryResult, Semantics, SnapshotHandle, StorageConfig,
    };
    pub use hilog_syntax::{parse_program, parse_query, parse_term};
}
