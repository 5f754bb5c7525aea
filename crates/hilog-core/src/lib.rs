//! # hilog-core
//!
//! Core data model for the reproduction of Kenneth A. Ross,
//! *"On Negation in HiLog"* (PODS 1991 / Journal of Logic Programming 18:27–53, 1994).
//!
//! HiLog is a logic whose syntax is second order — arbitrary terms may appear
//! as predicate names and variables may occur in predicate-name position —
//! while its semantics remains first order.  This crate provides:
//!
//! * the HiLog **term language** ([`term::Term`], [`symbol::Symbol`],
//!   [`term::Var`]) in which terms and atoms coincide (Definition 2.1 of the
//!   paper);
//! * **substitutions** and decidable **unification** ([`subst`], [`unify`]);
//! * **literals, rules, programs and queries**, including builtin arithmetic
//!   and comparison literals and the aggregation literal used by the
//!   parts-explosion program of Section 6 ([`literal`], [`rule`],
//!   [`program`]);
//! * three-valued **Herbrand interpretations** (Definitions 2.3 and 3.2),
//!   represented finitely as **models**: one ordered map from each atom of a
//!   base to its truth value, every other atom false, with the `extends` /
//!   `conservatively extends` relations of Definition 2.4
//!   ([`interpretation`]);
//! * the **Herbrand universe** machinery: vocabulary extraction and bounded
//!   enumeration of the (generally infinite) HiLog universe ([`herbrand`]);
//! * the **universal-relation** (`call` / `apply_i`) transformation of
//!   Section 2 ([`universal`]);
//! * the **syntactic classes** of the paper: range restriction for normal
//!   programs (Definition 4.1), HiLog range restriction (Definition 5.5),
//!   strong range restriction (Definition 5.6), Datahilog (Definition 6.7),
//!   stratification and local stratification (Definitions 6.1–6.2)
//!   ([`restriction`], [`analysis`]);
//! * program **analysis**: predicate-name extraction, dependency graphs and
//!   strongly connected components ([`analysis`]);
//! * a stable **binary codec** for symbols, terms and rules with
//!   payload-local interning tables, used by the durable storage layer
//!   ([`codec`]);
//! * the one **hasher** of every term-keyed map: symbols hash their interned
//!   pointer, maps hash with a seeded multiply-fold hasher ([`hash`]).
//!
//! Evaluation (grounding, well-founded and stable semantics, modular
//! stratification, magic sets) lives in the companion crate `hilog-engine`;
//! concrete syntax lives in `hilog-syntax`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builtin;
pub mod codec;
pub mod error;
pub mod hash;
pub mod herbrand;
pub mod intern;
pub mod interpretation;
pub mod literal;
pub mod program;
pub mod restriction;
pub mod rule;
pub mod subst;
pub mod symbol;
pub mod term;
pub mod unify;
pub mod universal;

pub use builtin::{BuiltinCall, BuiltinOp};
pub use codec::{crc32, CodecError, PayloadReader, PayloadWriter};
pub use error::CoreError;
pub use hash::{TermMap, TermSet};
pub use herbrand::{HerbrandBounds, HerbrandUniverse, Vocabulary};
pub use intern::{AtomId, TermInterner};
pub use interpretation::{Atoms, Model, Truth};
pub use literal::{Aggregate, AggregateFunc, Literal};
pub use program::{Program, RuleSeq};
pub use restriction::{ProgramClass, RestrictionReport};
pub use rule::{Query, Rule};
pub use subst::Substitution;
pub use symbol::{gc_symbol_pool, symbol_pool_len, symbol_pool_stats, Symbol, SymbolPoolStats};
pub use term::{Term, Var};

/// Convenience prelude re-exporting the types used by almost every consumer.
pub mod prelude {
    pub use crate::builtin::{BuiltinCall, BuiltinOp};
    pub use crate::herbrand::{HerbrandBounds, HerbrandUniverse, Vocabulary};
    pub use crate::interpretation::{Model, Truth};
    pub use crate::literal::{Aggregate, AggregateFunc, Literal};
    pub use crate::program::Program;
    pub use crate::rule::{Query, Rule};
    pub use crate::subst::Substitution;
    pub use crate::symbol::Symbol;
    pub use crate::term::{Term, Var};
}
