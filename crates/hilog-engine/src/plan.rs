//! Explainable query plans for the [`HiLogDb`](crate::session::HiLogDb)
//! session facade.
//!
//! Section 6.1 of the paper motivates two complementary evaluation routes
//! for a modularly stratified HiLog program: the magic-sets / query-directed
//! route, which only visits atoms *relevant* to a bound query, and full
//! bottom-up evaluation of the (relevant) instantiation, which answers any
//! query at the price of materialising the whole model.  A [`QueryPlan`]
//! records which route the session picks for a query and why, so callers can
//! inspect (and log or serialise) the decision before running it:
//!
//! ```
//! use hilog_engine::plan::{query_is_bound, PlanStrategy};
//! use hilog_engine::session::HiLogDb;
//! use hilog_syntax::{parse_program, parse_query};
//!
//! let program = parse_program(
//!     "winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, c).",
//! )
//! .unwrap();
//! let db = HiLogDb::new(program);
//! // A bound query (ground predicate name) gets the magic-sets route...
//! let bound = parse_query("?- winning(a).").unwrap();
//! assert!(query_is_bound(&bound));
//! assert_eq!(db.explain(&bound).strategy, PlanStrategy::MagicSets);
//! // ...an unbound one (variable predicate name) falls back to the model.
//! let open = parse_query("?- P(a, X).").unwrap();
//! assert_eq!(db.explain(&open).strategy, PlanStrategy::FullModel);
//! ```

use crate::session::Semantics;
use hilog_core::literal::Literal;
use hilog_core::rule::Query;
use serde::Serialize;
use std::fmt;

/// The evaluation route a [`QueryPlan`] commits to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStrategy {
    /// Query-directed (magic-sets style) tabled evaluation: only subgoals
    /// relevant to the query are touched, and completed subgoal tables are
    /// kept by the session for later queries (Section 6.1).
    MagicSets,
    /// Evaluate against the full model of the program, which the session
    /// computes once from the cached relevant instantiation and reuses for
    /// every subsequent full-model query.
    FullModel,
}

impl fmt::Display for PlanStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanStrategy::MagicSets => write!(f, "magic-sets"),
            PlanStrategy::FullModel => write!(f, "full-model"),
        }
    }
}

impl Serialize for PlanStrategy {
    fn write_json(&self, out: &mut String) {
        serde::write_json_string(out, &self.to_string());
    }
}

/// An explainable query plan, as returned by
/// [`HiLogDb::explain`](crate::session::HiLogDb::explain).
///
/// The plan is purely descriptive: building one performs no evaluation.
/// [`HiLogDb::query`](crate::session::HiLogDb::query) attaches the plan it
/// executed to every [`QueryResult`](crate::session::QueryResult), and the
/// whole struct serialises to JSON via the workspace `serde` stub.
#[derive(Debug, Clone, Serialize)]
pub struct QueryPlan {
    /// The chosen evaluation route.
    pub strategy: PlanStrategy,
    /// The semantics the session answers under.
    pub semantics: Semantics,
    /// Rendering of the planned query.
    pub query: String,
    /// Binding pattern of the first positive literal, one character per
    /// argument: `b` for a ground (bound) argument, `f` for a free one —
    /// the classical magic-sets adornment.  Empty for argument-less atoms
    /// and for queries without a leading positive literal.
    pub adornment: String,
    /// Whether a cached full model exists that a full-model route could
    /// answer from as it stands (a cached model is always exact).
    pub cached_model: bool,
    /// Number of completed subgoal tables the session holds; a magic-sets
    /// route reuses any of them that the query touches.
    pub cached_subqueries: usize,
    /// Number of subgoal tables the mutations since the last query *patched
    /// in place* (exact answer-level edits of fact-backed tables, via the
    /// recorded instance-level dependency graph).
    pub patched_subqueries: usize,
    /// Number of rule-derived subgoal tables the mutations since the last
    /// query *re-solved*: the tables in the instance-level reverse dependency
    /// closure of the mutated atoms that read a table whose answers changed.
    /// Tables outside the closure, and tables inside it whose dependencies
    /// all kept their answers, survive untouched and are not counted.
    pub refilled_subqueries: usize,
    /// Number of head instances of non-ground tables the mutations since the
    /// last query re-derived as bound sub-queries — a table settled that way
    /// counts once under `refilled_subqueries`, whatever it holds.
    pub rederived_instances: usize,
    /// Number of subgoal tables the mutations since the last query dropped:
    /// a re-solve that failed (a resource limit, a cycle through negation
    /// the mutation closed), or the reverse dependency closure of a
    /// rule-level mutation's head.
    pub dropped_subqueries: usize,
    /// Human-readable reason for the routing decision.
    pub reason: String,
}

impl QueryPlan {
    /// Returns `true` if the plan uses query-directed (magic-sets style)
    /// evaluation.
    pub fn is_magic_sets(&self) -> bool {
        self.strategy == PlanStrategy::MagicSets
    }

    /// Returns `true` if the plan evaluates against the full model.
    pub fn is_full_model(&self) -> bool {
        self.strategy == PlanStrategy::FullModel
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan for {}", self.query)?;
        writeln!(f, "  strategy:  {} ({})", self.strategy, self.semantics)?;
        if !self.adornment.is_empty() {
            writeln!(f, "  adornment: {}", self.adornment)?;
        }
        writeln!(
            f,
            "  caches:    model {}, {} complete subgoal tables",
            if self.cached_model { "warm" } else { "cold" },
            self.cached_subqueries
        )?;
        if self.patched_subqueries > 0
            || self.refilled_subqueries > 0
            || self.dropped_subqueries > 0
        {
            writeln!(
                f,
                "  tables:    {} patched in place, {} re-solved ({} instances re-derived), {} \
                 dropped since the last query",
                self.patched_subqueries,
                self.refilled_subqueries,
                self.rederived_instances,
                self.dropped_subqueries
            )?;
        }
        write!(f, "  because:   {}", self.reason)
    }
}

/// Returns `true` if the query is *bound* in the sense the session's planner
/// uses: its first literal is a positive atom whose predicate name is ground,
/// so query-directed evaluation can seed a subgoal from it (the left-to-right
/// sideways information passing of Section 6.1).
pub fn query_is_bound(query: &Query) -> bool {
    match query.literals.first() {
        Some(Literal::Pos(atom)) => atom.name().is_ground(),
        _ => false,
    }
}

/// The magic-sets adornment of the query's first positive literal: `b` per
/// ground argument, `f` per open one.
pub fn adornment(query: &Query) -> String {
    match query.literals.first() {
        Some(Literal::Pos(atom)) => atom
            .args()
            .iter()
            .map(|arg| if arg.is_ground() { 'b' } else { 'f' })
            .collect(),
        _ => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilog_syntax::parse_query;

    #[test]
    fn boundness_follows_the_first_literal() {
        assert!(query_is_bound(&parse_query("?- winning(a).").unwrap()));
        assert!(query_is_bound(&parse_query("?- winning(X).").unwrap()));
        assert!(query_is_bound(
            &parse_query("?- winning(move1)(X).").unwrap()
        ));
        // Variable predicate name: unbound.
        assert!(!query_is_bound(&parse_query("?- P(a, b).").unwrap()));
        // Leading negative literal: unbound (would flounder top-down).
        assert!(!query_is_bound(&parse_query("?- not winning(a).").unwrap()));
    }

    #[test]
    fn adornment_marks_bound_and_free_arguments() {
        assert_eq!(adornment(&parse_query("?- tc(a, Y).").unwrap()), "bf");
        assert_eq!(
            adornment(&parse_query("?- winning(move1)(X).").unwrap()),
            "f"
        );
        assert_eq!(adornment(&parse_query("?- p.").unwrap()), "");
    }
}
