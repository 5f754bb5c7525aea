//! Query plans for the [`HiLogDb`](crate::session::HiLogDb) session facade.
//!
//! Section 6.1 of the paper motivates two complementary evaluation routes
//! for a modularly stratified HiLog program: the magic-sets / query-directed
//! route, which only visits atoms *relevant* to a bound query, and full
//! bottom-up evaluation of the (relevant) instantiation, which answers any
//! query at the price of materialising the whole model.  A [`QueryPlan`] is
//! that routing decision and nothing else: the route, the semantics and the
//! adornment, fixed before anything is evaluated.  What the evaluation then
//! did is the result's [`EvalStats`](crate::EvalStats); what the stores hold
//! is [`HiLogDb::storage_stats`](crate::session::HiLogDb::storage_stats).
//!
//! ```
//! use hilog_engine::{HiLogDb, PlanStrategy};
//! use hilog_syntax::{parse_program, parse_query};
//!
//! let program = parse_program(
//!     "winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, c).",
//! )
//! .unwrap();
//! let db = HiLogDb::new(program);
//! // A bound query (ground predicate name) gets the magic-sets route...
//! let bound = parse_query("?- winning(a).").unwrap();
//! assert_eq!(db.explain(&bound).strategy, PlanStrategy::MagicSets);
//! // ...an unbound one (variable predicate name) falls back to the model.
//! let open = parse_query("?- P(a, X).").unwrap();
//! assert_eq!(db.explain(&open).strategy, PlanStrategy::FullModel);
//! ```

use crate::session::Semantics;
use hilog_core::{Literal, Query};
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

/// The routing decision for a query, as returned by
/// [`HiLogDb::explain`](crate::session::HiLogDb::explain).
///
/// Building one performs no evaluation and reads no cache: the route follows
/// from the query and the semantics alone.
/// [`HiLogDb::query`](crate::session::HiLogDb::query) attaches the plan it
/// executed to every [`QueryResult`](crate::session::QueryResult), and the
/// struct serialises to JSON via the workspace `serde` stub.
#[derive(Debug, Clone, Serialize)]
pub struct QueryPlan {
    /// The chosen evaluation route.
    pub strategy: PlanStrategy,
    /// The semantics the session answers under.
    pub semantics: Semantics,
    /// Binding pattern of the first positive literal, one character per
    /// argument: `b` for a ground (bound) argument, `f` for a free one —
    /// the classical magic-sets adornment.  Empty for argument-less atoms
    /// and for queries without a leading positive literal.
    pub adornment: String,
}

impl QueryPlan {
    /// The plan for `query` under `semantics`: magic sets for a bound query
    /// under the well-founded semantics, the full model otherwise.
    pub(crate) fn new(query: &Query, semantics: Semantics) -> Self {
        let strategy = if semantics == Semantics::WellFounded && query_is_bound(query) {
            PlanStrategy::MagicSets
        } else {
            PlanStrategy::FullModel
        };
        QueryPlan {
            strategy,
            semantics,
            adornment: adornment(query),
        }
    }

    /// Returns `true` if the plan uses query-directed (magic-sets style)
    /// evaluation.
    pub fn is_magic_sets(&self) -> bool {
        self.strategy == PlanStrategy::MagicSets
    }

    /// Returns `true` if the plan evaluates against the full model.
    pub fn is_full_model(&self) -> bool {
        self.strategy == PlanStrategy::FullModel
    }

    /// Why the route was chosen; the strategy and the semantics decide it.
    pub fn reason(&self) -> &'static str {
        match (self.semantics, self.strategy) {
            (Semantics::WellFounded, PlanStrategy::MagicSets) => {
                "the first literal has a ground predicate name, so query-directed \
                 (magic-sets) evaluation visits only the relevant subgoals and reuses the \
                 session's completed tables"
            }
            (Semantics::WellFounded, PlanStrategy::FullModel) => {
                "the query has no leading positive literal with a ground predicate name \
                 (it is unbound), so it is answered from the session's cached full model"
            }
            _ => {
                "this semantics is defined through the full model, so the query is answered \
                 from the session's cached model"
            }
        }
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "strategy:  {} ({})", self.strategy, self.semantics)?;
        if !self.adornment.is_empty() {
            writeln!(f, "adornment: {}", self.adornment)?;
        }
        write!(f, "because:   {}", self.reason())
    }
}

/// Returns `true` if the query is *bound* in the sense the session's planner
/// uses: its first literal is a positive atom whose predicate name is ground,
/// so query-directed evaluation can seed a subgoal from it (the left-to-right
/// sideways information passing of Section 6.1).
fn query_is_bound(query: &Query) -> bool {
    match query.literals.first() {
        Some(Literal::Pos(atom)) => atom.name().is_ground(),
        _ => false,
    }
}

/// The magic-sets adornment of the query's first positive literal: `b` per
/// ground argument, `f` per open one.
fn adornment(query: &Query) -> String {
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

    #[test]
    fn the_plan_is_the_route_and_its_reason_follows_from_it() {
        let bound = parse_query("?- tc(a, Y).").unwrap();
        let open = parse_query("?- P(a, Y).").unwrap();
        let routes = [
            (
                &bound,
                Semantics::WellFounded,
                PlanStrategy::MagicSets,
                "magic-sets",
            ),
            (
                &open,
                Semantics::WellFounded,
                PlanStrategy::FullModel,
                "unbound",
            ),
            (
                &bound,
                Semantics::Stable,
                PlanStrategy::FullModel,
                "this semantics",
            ),
            (
                &bound,
                Semantics::ModularCheck,
                PlanStrategy::FullModel,
                "this semantics",
            ),
        ];
        for (query, semantics, strategy, reason) in routes {
            let plan = QueryPlan::new(query, semantics);
            assert_eq!(plan.strategy, strategy, "{query} under {semantics}");
            assert!(plan.reason().contains(reason), "{}", plan.reason());
        }
        assert_eq!(
            QueryPlan::new(&bound, Semantics::WellFounded).to_string(),
            format!(
                "strategy:  magic-sets (well-founded)\nadornment: bf\nbecause:   {}",
                QueryPlan::new(&bound, Semantics::WellFounded).reason()
            )
        );
    }
}
