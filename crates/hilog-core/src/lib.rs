//! # hilog-core
//!
//! Core data model for the reproduction of Kenneth A. Ross,
//! *"On Negation in HiLog"* (PODS 1991 / Journal of Logic Programming 18:27–53, 1994).
//!
//! HiLog is a logic whose syntax is second order — arbitrary terms may appear
//! as predicate names and variables may occur in predicate-name position —
//! while its semantics remains first order.  This crate provides:
//!
//! * the HiLog **term language** ([`Term`], [`Symbol`], [`Var`]) in which
//!   terms and atoms coincide (Definition 2.1 of the paper);
//! * **substitutions** and decidable **unification** ([`Substitution`],
//!   [`unify`]);
//! * **literals, rules, programs and queries**, including builtin arithmetic
//!   and comparison literals and the aggregation literal used by the
//!   parts-explosion program of Section 6 ([`Literal`], [`Rule`], [`Query`],
//!   [`Program`]);
//! * three-valued **Herbrand interpretations** (Definitions 2.3 and 3.2),
//!   represented finitely as **models**: one ordered map from each atom of a
//!   base to its truth value, every other atom false, with the `extends` /
//!   `conservatively extends` relations of Definition 2.4 ([`Model`],
//!   [`Truth`]);
//! * the **Herbrand universe** machinery: vocabulary extraction and bounded
//!   enumeration of the (generally infinite) HiLog universe ([`Vocabulary`],
//!   [`HerbrandUniverse`]);
//! * the **universal-relation** (`call` / `apply_i`) transformation of
//!   Section 2 ([`universal`]);
//! * the **syntactic classes** of the paper: range restriction for normal
//!   programs (Definition 4.1), HiLog range restriction (Definition 5.5),
//!   strong range restriction (Definition 5.6), Datahilog (Definition 6.7),
//!   stratification and local stratification (Definitions 6.1–6.2)
//!   ([`ProgramClass`], [`is_stratified`]);
//! * program **analysis**: predicate-name extraction, dependency graphs and
//!   strongly connected components ([`DependencyGraph`]);
//! * a stable **binary codec** for symbols, terms and rules with
//!   payload-local interning tables, used by the durable storage layer
//!   ([`PayloadWriter`], [`PayloadReader`]);
//! * the one **hasher** of every term-keyed map: symbols hash their interned
//!   pointer, maps hash with a seeded multiply-fold hasher ([`TermMap`]).
//!
//! Every name is reached from this root, once.  The modules are private
//! except [`unify`] and [`universal`], whose functions keep their module
//! paths.
//!
//! Evaluation (grounding, well-founded and stable semantics, modular
//! stratification, magic sets) lives in the companion crate `hilog-engine`;
//! concrete syntax lives in `hilog-syntax`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod builtin;
mod codec;
mod error;
mod hash;
mod herbrand;
mod intern;
mod interpretation;
mod literal;
mod program;
mod restriction;
mod rule;
mod subst;
mod symbol;
mod term;
pub mod unify;
pub mod universal;

pub use analysis::{
    is_locally_stratified_ground, is_stratified, strongly_connected_components, Components,
    DependencyGraph, EdgeSign, Tarjan,
};
pub use builtin::{BuiltinCall, BuiltinOp};
pub use codec::{crc32, CodecError, PayloadReader, PayloadWriter};
pub use error::CoreError;
pub use hash::{hash_one, TermHashBuilder, TermHasher, TermMap, TermSet};
pub use herbrand::{HerbrandBounds, HerbrandUniverse, Vocabulary};
pub use intern::{AtomId, TermInterner};
pub use interpretation::{Atoms, AtomsIter, Model, Truth};
pub use literal::{Aggregate, AggregateFunc, Literal};
pub use program::{Program, RuleSeq, RuleSeqIter};
pub use restriction::{
    is_datahilog, is_range_restricted_hilog, is_range_restricted_normal, is_range_restricted_query,
    is_strongly_range_restricted, ProgramClass, RestrictionReport,
};
pub use rule::{Query, Rule};
pub use subst::Substitution;
pub use symbol::{gc_symbol_pool, symbol_pool_len, symbol_pool_stats, Symbol, SymbolPoolStats};
pub use term::{Term, Var};
