//! # hilog-engine
//!
//! Evaluation engine for the reproduction of Ross, *"On Negation in HiLog"*
//! (PODS 1991 / JLP 1994).  The crate provides every computational artifact
//! the paper defines or relies on:
//!
//! * **Horn least models** ([`horn`]): semi-naive bottom-up evaluation of
//!   definite programs — the semantics of negation-free HiLog programs and of
//!   their universal-relation images (Section 2).  The round policy (delta
//!   restriction, limits, deadline, partitioned rounds) is written once, in
//!   one driver that hands each match `(rule, θ)` to its caller.
//! * **Grounding** ([`grounder`]): relevant instantiation for (strongly)
//!   range-restricted programs — that driver instantiating the rule per
//!   match, cold from an empty store or continued from an asserted fact, so
//!   the possibly-true set and the ground rules come from one join pass —
//!   and literal instantiation over bounded Herbrand-universe slices
//!   (Section 4).
//! * **Well-founded semantics** ([`wfs`]): the `T_P` / `U_P` / `W_P`
//!   construction of Definitions 3.3–3.5, applied to normal and HiLog
//!   instantiations alike (Section 4).
//! * **Stable models** ([`stable`]): two-valued fixpoints of `W_P`
//!   (Definition 3.6) with a WFS-guided search and a Gelfond–Lifschitz
//!   cross-check.
//! * **Modular stratification for HiLog** ([`modular`]): the Figure 1
//!   procedure, HiLog reduction (Definition 6.5), and the normal-program
//!   specialisation (Definition 6.4, Lemma 6.2).
//! * **Magic sets** ([`magic`], [`magic_eval`]): the Section 6.1 rewriting in
//!   the shape of Example 6.6, and the query-directed (memoising,
//!   negation-settling) evaluator that realises its relevance behaviour.
//! * **Modularly stratified aggregation** ([`aggregate`]): the parts-explosion
//!   program of Section 6.
//! * **Preservation under extensions / domain independence** ([`extension`]):
//!   checkers for the Section 5 properties on concrete extension witnesses.
//! * **The read surface and the serving pair** ([`snapshot`], [`plan`]): a
//!   `Send + Sync` [`DbSnapshot`] is the one implementation of answering a
//!   query — `query` / `holds` / `model` / `stable_models` / `check_modular`
//!   / `explain` all take `&self`, route through an explainable
//!   [`QueryPlan`], and fill grounding, model and subgoal-table caches
//!   lazily behind interior locks.  A single [`DbWriter`] publishes
//!   `Arc`-sharing copies per batch through an epoch-swapped shared cell —
//!   readers never block and never observe a half-applied batch.
//! * **The session** ([`session`]): a stateful [`HiLogDb`] is that read
//!   surface's mutable owner — it holds one working [`DbSnapshot`] by
//!   value, delegates every read to it, and keeps its caches maintained
//!   under `assert_fact` / `retract_fact` / `assert_rule` / `retract_rule`
//!   (the grounding driver continued from the new fact, DRed, instance-level
//!   subgoal-table maintenance) instead of discarding them; the model after
//!   a write is [`well_founded_eval`] over the maintained grounding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod ambient;
pub mod error;
pub mod extension;
pub mod ground;
pub mod grounder;
pub mod horn;
pub mod magic;
pub mod magic_eval;
pub mod modular;
pub mod plan;
pub mod pool;
pub mod session;
pub mod snapshot;
pub mod spill;
pub mod stable;
pub mod storage;
pub mod wfs;

pub use aggregate::{evaluate_aggregate_program, parts_explosion_program, AggregateModel};
pub use ambient::{check_deadline, counters, with_deadline, Counters};
pub use error::EngineError;
pub use extension::{
    domain_independent_wfs_with_constants, preserved_by_extension_stable,
    preserved_by_extension_wfs, PreservationVerdict,
};
pub use ground::{GroundProgram, GroundRule};
pub use grounder::{ground_over_universe, relevant_ground, relevant_ground_into};
pub use horn::{least_model, least_model_into, AtomStore, Candidates, EvalOptions, NegationMode};
pub use magic::{magic_transform, MagicProgram};
pub use magic_eval::{EvalStats, ModelSource, QueryEvaluator};
pub use modular::ModularOutcome;
pub use plan::{PlanStrategy, QueryPlan};
pub use pool::{default_eval_threads, run_tasks};
pub use session::{HiLogDb, HiLogDbBuilder, QueryAnswer, QueryResult, Semantics};
pub use snapshot::{DbSnapshot, DbWriter, SnapshotHandle};
pub use spill::SpillStore;
pub use stable::{stable_models_over_universe, StableOptions};
pub use storage::{FactStore, RelationStorageStats, StorageConfig};
pub use wfs::{well_founded_eval, well_founded_model_over_universe, well_founded_of_ground};

/// Convenience prelude pulling in the most frequently used engine items.
pub mod prelude {
    pub use crate::aggregate::{evaluate_aggregate_program, parts_explosion_program};
    pub use crate::error::EngineError;
    pub use crate::extension::{preserved_by_extension_stable, preserved_by_extension_wfs};
    pub use crate::ground::{GroundProgram, GroundRule};
    pub use crate::grounder::{ground_over_universe, relevant_ground};
    pub use crate::horn::{least_model, AtomStore, EvalOptions, NegationMode};
    pub use crate::magic::magic_transform;
    pub use crate::magic_eval::{EvalStats, ModelSource, QueryEvaluator};
    pub use crate::modular::ModularOutcome;
    pub use crate::plan::{PlanStrategy, QueryPlan};
    pub use crate::pool::{default_eval_threads, run_tasks};
    pub use crate::session::{HiLogDb, HiLogDbBuilder, QueryAnswer, QueryResult, Semantics};
    pub use crate::snapshot::{DbSnapshot, DbWriter, SnapshotHandle};
    pub use crate::stable::StableOptions;
    pub use crate::storage::{FactStore, StorageConfig};
    pub use crate::wfs::{well_founded_eval, well_founded_model_over_universe};
}
