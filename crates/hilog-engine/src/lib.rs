//! # hilog-engine
//!
//! Evaluation engine for the reproduction of Ross, *"On Negation in HiLog"*
//! (PODS 1991 / JLP 1994).  The crate provides every computational artifact
//! the paper defines or relies on:
//!
//! * **Horn least models** ([`least_model`]): semi-naive bottom-up
//!   evaluation of definite programs — the semantics of negation-free HiLog
//!   programs and of their universal-relation images (Section 2).  The round
//!   policy (delta restriction, limits, deadline) is written once, in one
//!   driver that joins each rule through its compiled plan — one join
//!   executor over one slot frame — and hands each match to its caller.
//! * **Grounding** ([`relevant_ground`]): relevant instantiation for
//!   (strongly) range-restricted programs — that driver building the ground
//!   rule from each match, cold from an empty store, so the possibly-true
//!   set and the ground rules come from one join pass — and literal
//!   instantiation over bounded Herbrand-universe slices (Section 4).
//! * **Well-founded semantics** ([`well_founded_eval`]): the `T_P` / `U_P` /
//!   `W_P` construction of Definitions 3.3–3.5, applied to normal and HiLog
//!   instantiations alike (Section 4), settled one component of the atom
//!   dependency graph at a time on the calling thread by one `W_P`
//!   propagator: counters for `T_P`, an unfounded-set pass per component,
//!   and a trail of the values set.
//! * **Stable models** ([`stable_models_over_universe`]): two-valued
//!   fixpoints of `W_P` (Definition 3.6), every one enumerated by a search
//!   that starts from the propagator the well-founded settle leaves, settles
//!   each node on it and backtracks by undoing its trail, with a
//!   Gelfond–Lifschitz cross-check.
//! * **Modular stratification for HiLog** ([`ModularOutcome`]): the Figure 1
//!   procedure, HiLog reduction (Definition 6.5), and the normal-program
//!   specialisation (Definition 6.4, Lemma 6.2).
//! * **Magic sets** ([`magic_transform`]): the Section 6.1 rewriting in the
//!   shape of Example 6.6, and the query-directed (memoising,
//!   negation-settling) evaluator that realises its relevance behaviour.
//! * **Modularly stratified aggregation** ([`evaluate_aggregate_program`]):
//!   the parts-explosion program of Section 6, settled by the query-directed
//!   evaluator, which folds a group once what it reads is complete and
//!   reports a cycle through aggregation.  Figure 1 settles a component that
//!   aggregates through itself the same way.
//! * **Preservation under extensions / domain independence**
//!   ([`preserved_by_extension_wfs`]): checkers for the Section 5 properties
//!   on concrete extension witnesses.
//! * **The read surface and the serving pair** ([`DbSnapshot`],
//!   [`DbWriter`]): a `Send + Sync` [`DbSnapshot`] is the one implementation
//!   of answering a query — `query` / `holds` / `model` / `stable_models` /
//!   `check_modular` / `explain` all take `&self`, route through an
//!   explainable [`QueryPlan`], and fill grounding, model and subgoal-table
//!   caches lazily behind interior locks.  A single [`DbWriter`] publishes
//!   `Arc`-sharing copies per batch through an epoch-swapped shared cell —
//!   readers never block and never observe a half-applied batch.
//! * **The session** ([`HiLogDb`]): a stateful session is that read
//!   surface's mutable owner — it holds one working [`DbSnapshot`] by
//!   value, delegates every read to it, and keeps its subgoal tables and
//!   program index maintained under `assert_fact` / `retract_fact` /
//!   `assert_rule` / `retract_rule` instead of discarding them; a write
//!   drops the model-side caches whole, and the model after it is a cold
//!   grounding plus one [`well_founded_eval`], as on a published snapshot.
//! * **Storage** ([`StorageConfig`]): every store derived from the program
//!   — a subgoal table's answers, a grounding's possibly-true set, the
//!   driver's store — is a resident [`AtomStore`].  The program index's
//!   facts alone are a [`FactStore`], which a session built with
//!   [`StorageConfig::Spill`] pages to disk ([`SpillStore`]).
//!
//! The modules are private: what callers outside the crate use is
//! re-exported here, at the crate root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod ambient;
mod error;
mod extension;
mod ground;
mod grounder;
mod horn;
mod join;
mod magic;
mod magic_eval;
mod modular;
mod plan;
mod session;
mod snapshot;
mod spill;
mod stable;
mod storage;
mod wfs;

pub use aggregate::{evaluate_aggregate_program, parts_explosion_program, AggregateModel};
pub use ambient::{counters, with_deadline, Counters};
pub use error::EngineError;
pub use extension::{
    domain_independent_wfs_with_constants, preserved_by_extension_stable,
    preserved_by_extension_wfs, PreservationVerdict,
};
pub use ground::{GroundProgram, GroundRule};
pub use grounder::{ground_against, relevant_ground};
pub use horn::{
    default_eval_threads, least_model, AtomStore, Candidates, EvalOptions, NegationMode,
};
pub use magic::{magic_transform, MagicProgram};
pub use magic_eval::{EvalStats, ModelSource};
pub use modular::ModularOutcome;
pub use plan::{PlanStrategy, QueryPlan};
pub use session::{HiLogDb, HiLogDbBuilder, QueryAnswer, QueryResult, Semantics};
pub use snapshot::{DbSnapshot, DbWriter, SnapshotHandle};
pub use spill::SpillStore;
pub use stable::stable_models_over_universe;
pub use storage::{FactStore, RelationStorageStats, StorageConfig};
pub use wfs::{well_founded_eval, well_founded_model_over_universe, well_founded_of_ground};
