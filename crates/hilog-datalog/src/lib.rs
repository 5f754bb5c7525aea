//! # hilog-datalog
//!
//! A conventional, first-order Datalog-with-negation engine: the *normal
//! program* baseline that "On Negation in HiLog" generalises.  It is an
//! independent implementation (it shares only the term/parser crates with the
//! HiLog engine), which serves two purposes in the reproduction:
//!
//! * it is the **baseline comparator** — e.g. `examples/generic_closures.rs`
//!   compares one generic HiLog `tc(G)` program against `k` specialised
//!   Datalog transitive-closure programs;
//! * it is a **cross-check**: Theorems 4.1 and 4.2 say the HiLog semantics of
//!   a range-restricted normal program conservatively extends its normal
//!   semantics, so the two engines must agree on normal programs (the
//!   integration tests verify this).
//!
//! The engine supports relations of ground first-order facts, semi-naive
//! bottom-up evaluation of definite rules, evaluation of *stratified*
//! negation, and a normal well-founded semantics for non-stratified programs
//! (computed over the program's ground instantiation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod relation;

pub use engine::{DatalogEngine, DatalogError};
