//! # hilog-syntax
//!
//! Concrete syntax for HiLog programs with negation: a tokeniser, a
//! recursive-descent parser producing `hilog-core` data structures, and a
//! pretty printer (the core types' `Display` implementations already produce
//! re-parseable text; this crate adds program-level helpers).
//!
//! The parser holds one token at a time.  The lexer reads the caller's text
//! in place, a token's text is a slice of it, and [`parse_program`] pushes
//! each clause into the [`Program`](hilog_core::Program) as it is
//! parsed, so the memory a parse needs beyond its result does not grow with
//! the input.  A [`ParseError`] names a line and a column (in characters) of
//! the text the caller passed; of two errors, the first in the text is
//! reported.
//!
//! The syntax is Prolog-like, extended with HiLog's curried applications
//! (`tc(G)(X, Y)`), `not` for negation, builtin arithmetic/comparison
//! literals, and `N = sum(V, Pattern)` aggregation literals:
//!
//! ```
//! use hilog_syntax::parse_program;
//! let program = parse_program(
//!     "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
//!      game(move1).\n\
//!      move1(a, b).",
//! ).unwrap();
//! assert_eq!(program.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lexer;
mod parser;
mod printer;

pub use parser::{
    parse_clauses, parse_program, parse_query, parse_rule, parse_term, Clause, ParseError,
    MAX_TERM_DEPTH,
};
pub use printer::program_to_source;
