//! The baseline normal Datalog engine.
//!
//! This is a deliberately conventional implementation — predicate symbols
//! with fixed arities, relations of ground tuples, semi-naive bottom-up
//! evaluation, stratum-at-a-time negation, and a ground well-founded
//! semantics — so that it can serve as the "normal logic program" comparator
//! of Theorems 4.1/4.2 and as the specialised baseline of Example 2.1.
//! It shares no evaluation code with `hilog-engine`.

use crate::relation::{Relation, RelationName};
use hilog_core::unify::match_with;
use hilog_core::{BuiltinCall, Literal, Model, Program, Rule, Substitution, Term};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Errors raised by the baseline engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatalogError {
    /// The program is not a normal (first-order) program.
    NotNormal(String),
    /// The program is not stratified, so the stratified evaluator cannot be
    /// used (the well-founded evaluator still can).
    NotStratified(String),
    /// A head or negative literal could not be grounded bottom-up.
    Floundering(String),
    /// A resource limit was exceeded.
    Limit(String),
    /// A builtin could not be evaluated.
    Builtin(String),
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::NotNormal(m) => write!(f, "not a normal program: {m}"),
            DatalogError::NotStratified(m) => write!(f, "not stratified: {m}"),
            DatalogError::Floundering(m) => write!(f, "floundering: {m}"),
            DatalogError::Limit(m) => write!(f, "limit exceeded: {m}"),
            DatalogError::Builtin(m) => write!(f, "builtin error: {m}"),
        }
    }
}

impl std::error::Error for DatalogError {}

/// The most atoms one evaluation derives before it gives up.
const MAX_ATOMS: usize = 2_000_000;

/// A database of relations keyed by predicate name and arity.
#[derive(Debug, Clone, Default)]
struct Database {
    relations: BTreeMap<RelationName, Relation>,
}

impl Database {
    fn relation_of(&self, atom: &Term) -> Option<&Relation> {
        let key = Self::key(atom)?;
        self.relations.get(&key)
    }

    fn key(atom: &Term) -> Option<RelationName> {
        match atom {
            Term::Sym(s) => Some(RelationName::new(s.name(), 0)),
            Term::App(name, args) => match &**name {
                Term::Sym(s) => Some(RelationName::new(s.name(), args.len())),
                _ => None,
            },
            _ => None,
        }
    }

    fn insert_atom(&mut self, atom: &Term) -> bool {
        let key = Self::key(atom).expect("normal atom");
        self.relations
            .entry(key)
            .or_default()
            .insert(atom.args().to_vec())
    }

    fn contains_atom(&self, atom: &Term) -> bool {
        match self.relation_of(atom) {
            Some(rel) => rel.contains(atom.args()),
            None => false,
        }
    }

    fn atoms(&self) -> BTreeSet<Term> {
        let mut out = BTreeSet::new();
        for (name, rel) in &self.relations {
            for tuple in rel.iter() {
                out.insert(make_atom(&name.name, tuple));
            }
        }
        out
    }

    fn len(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }
}

fn make_atom(name: &str, args: &[Term]) -> Term {
    if args.is_empty() {
        Term::sym(name)
    } else {
        Term::apps(name, args.to_vec())
    }
}

/// Matches a body atom pattern against the database, extending each seed
/// substitution in every possible way.
fn extend_matches(seeds: Vec<Substitution>, pattern: &Term, db: &Database) -> Vec<Substitution> {
    let mut out = Vec::new();
    for theta in seeds {
        let instantiated = theta.apply(pattern);
        if instantiated.is_ground() {
            if db.contains_atom(&instantiated) {
                out.push(theta);
            }
            continue;
        }
        if let Some(rel) = db.relation_of(&instantiated) {
            let args = instantiated.args();
            // Use the first-column index when the first argument is ground.
            let candidates: Vec<&Vec<Term>> = match args.first() {
                Some(first) if first.is_ground() => rel.with_first(first).collect(),
                _ => rel.iter().collect(),
            };
            for tuple in candidates {
                let mut extended = theta.clone();
                let mut ok = true;
                for (pat, val) in args.iter().zip(tuple.iter()) {
                    if !match_with(pat, val, &mut extended) {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    out.push(extended);
                }
            }
        }
    }
    out
}

/// The baseline engine: owns a validated normal program.
#[derive(Debug, Clone)]
pub struct DatalogEngine {
    program: Program,
}

impl DatalogEngine {
    /// Creates an engine for a normal program.
    pub fn new(program: Program) -> Result<Self, DatalogError> {
        if !program.is_normal() {
            return Err(DatalogError::NotNormal(
                "the baseline engine only accepts normal (first-order) programs".into(),
            ));
        }
        Ok(DatalogEngine { program })
    }

    /// The program being evaluated.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Semi-naive least model of the positive part of the program.  Negative
    /// literals are rejected; use [`DatalogEngine::stratified_model`] or
    /// [`DatalogEngine::well_founded_model`] for programs with negation.
    pub fn least_model(&self) -> Result<BTreeSet<Term>, DatalogError> {
        if self.program.has_negation() {
            return Err(DatalogError::NotStratified(
                "least_model only evaluates negation-free programs".into(),
            ));
        }
        let rules: Vec<Rule> = self.program.iter().cloned().collect();
        let db = self.evaluate_stratum(&rules, &Database::default(), &Database::default())?;
        Ok(db.atoms())
    }

    /// Evaluates a stratified program stratum by stratum (Definition 6.1 /
    /// the classical iterated-fixpoint semantics).  The result is total.
    pub fn stratified_model(&self) -> Result<Model, DatalogError> {
        let graph = hilog_core::DependencyGraph::predicate_graph(self.program.iter());
        let strata = graph.strata().ok_or_else(|| {
            DatalogError::NotStratified(
                "the predicate dependency graph has a negative cycle".into(),
            )
        })?;
        let max_level = strata.values().copied().max().unwrap_or(0);
        let mut settled = Database::default();
        for level in 0..=max_level {
            let rules: Vec<Rule> = self
                .program
                .iter()
                .filter(|r| {
                    strata
                        .get(r.head.name())
                        .map(|&l| l == level)
                        .unwrap_or(level == 0)
                })
                .cloned()
                .collect();
            let new_db = self.evaluate_stratum(&rules, &settled, &settled)?;
            for atom in new_db.atoms() {
                settled.insert_atom(&atom);
            }
        }
        Ok(Model::from_true_atoms(settled.atoms()))
    }

    /// Evaluates one stratum to a fixpoint.  Negative literals are tested
    /// against `negative_db` (the settled lower strata); positive literals
    /// join against the union of `positive_db` and the atoms derived so far.
    fn evaluate_stratum(
        &self,
        rules: &[Rule],
        positive_db: &Database,
        negative_db: &Database,
    ) -> Result<Database, DatalogError> {
        let mut db = positive_db.clone();
        loop {
            let mut changed = false;
            for rule in rules {
                for theta in self.match_body(rule, &db, negative_db)? {
                    let head = theta.apply(&rule.head);
                    if !head.is_ground() {
                        return Err(DatalogError::Floundering(format!(
                            "rule `{rule}` derives the non-ground head `{head}`"
                        )));
                    }
                    if db.insert_atom(&head) {
                        changed = true;
                        if db.len() > MAX_ATOMS {
                            return Err(DatalogError::Limit(format!(
                                "more than {MAX_ATOMS} derived atoms"
                            )));
                        }
                    }
                }
            }
            if !changed {
                return Ok(db);
            }
        }
    }

    fn match_body(
        &self,
        rule: &Rule,
        db: &Database,
        negative_db: &Database,
    ) -> Result<Vec<Substitution>, DatalogError> {
        let mut thetas = vec![Substitution::new()];
        for lit in &rule.body {
            if thetas.is_empty() {
                break;
            }
            match lit {
                Literal::Pos(atom) => {
                    thetas = extend_matches(thetas, atom, db);
                }
                Literal::Neg(atom) => {
                    let mut next = Vec::new();
                    for theta in thetas {
                        let instantiated = theta.apply(atom);
                        if !instantiated.is_ground() {
                            return Err(DatalogError::Floundering(format!(
                                "negative literal `not {instantiated}` of `{rule}` is not ground"
                            )));
                        }
                        if !negative_db.contains_atom(&instantiated) {
                            next.push(theta);
                        }
                    }
                    thetas = next;
                }
                Literal::Builtin(b) => {
                    thetas = eval_builtin(b, thetas)?;
                }
                Literal::Aggregate(_) => {
                    return Err(DatalogError::NotNormal(
                        "the baseline engine does not evaluate aggregates".into(),
                    ))
                }
            }
        }
        Ok(thetas)
    }

    /// The normal well-founded model, computed over the relevant ground
    /// instantiation of the program (an independent implementation of
    /// Definitions 3.3–3.5, used to cross-check the HiLog engine on normal
    /// programs).
    pub fn well_founded_model(&self) -> Result<Model, DatalogError> {
        // Over-approximate the derivable atoms by ignoring negation.
        let positive: Vec<Rule> = self
            .program
            .iter()
            .map(|r| {
                Rule::new(
                    r.head.clone(),
                    r.body
                        .iter()
                        .filter(|l| !l.is_negative_atom())
                        .cloned()
                        .collect(),
                )
            })
            .collect();
        let possibly =
            self.evaluate_stratum(&positive, &Database::default(), &Database::default())?;

        // Relevant ground instantiation.
        let mut ground: Vec<(Term, Vec<Term>, Vec<Term>)> = Vec::new();
        for rule in self.program.iter() {
            let context = Rule::new(
                rule.head.clone(),
                rule.body
                    .iter()
                    .filter(|l| !l.is_negative_atom())
                    .cloned()
                    .collect(),
            );
            for theta in self.match_body(&context, &possibly, &Database::default())? {
                let head = theta.apply(&rule.head);
                let mut pos = Vec::new();
                let mut neg = Vec::new();
                for lit in &rule.body {
                    match lit {
                        Literal::Pos(a) => pos.push(theta.apply(a)),
                        Literal::Neg(a) => {
                            let a = theta.apply(a);
                            if !a.is_ground() {
                                return Err(DatalogError::Floundering(format!(
                                    "negative literal `not {a}` is not ground after instantiation"
                                )));
                            }
                            neg.push(a);
                        }
                        Literal::Builtin(_) => {}
                        Literal::Aggregate(_) => {
                            return Err(DatalogError::NotNormal(
                                "aggregates are not supported by the baseline engine".into(),
                            ))
                        }
                    }
                }
                ground.push((head, pos, neg));
            }
        }

        // Alternate T_P and the greatest unfounded set to the least fixpoint.
        let mut base: BTreeSet<Term> = BTreeSet::new();
        for (h, pos, neg) in &ground {
            base.insert(h.clone());
            base.extend(pos.iter().cloned());
            base.extend(neg.iter().cloned());
        }
        let mut true_set: BTreeSet<Term> = BTreeSet::new();
        let mut false_set: BTreeSet<Term> = BTreeSet::new();
        loop {
            let mut changed = false;
            for (h, pos, neg) in &ground {
                if pos.iter().all(|a| true_set.contains(a))
                    && neg.iter().all(|a| false_set.contains(a))
                    && true_set.insert(h.clone())
                {
                    changed = true;
                }
            }
            // Greatest unfounded set: complement of the founded atoms.
            let mut founded: BTreeSet<Term> = BTreeSet::new();
            let mut grew = true;
            while grew {
                grew = false;
                for (h, pos, neg) in &ground {
                    if founded.contains(h) {
                        continue;
                    }
                    let usable = pos.iter().all(|a| !false_set.contains(a))
                        && neg.iter().all(|a| !true_set.contains(a));
                    if usable && pos.iter().all(|a| founded.contains(a)) {
                        founded.insert(h.clone());
                        grew = true;
                    }
                }
            }
            for atom in &base {
                if !founded.contains(atom)
                    && !true_set.contains(atom)
                    && false_set.insert(atom.clone())
                {
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let undefined: Vec<Term> = base
            .iter()
            .filter(|a| !true_set.contains(*a) && !false_set.contains(*a))
            .cloned()
            .collect();
        Ok(Model::new(base, true_set, undefined))
    }
}

fn eval_builtin(
    b: &BuiltinCall,
    seeds: Vec<Substitution>,
) -> Result<Vec<Substitution>, DatalogError> {
    let mut out = Vec::new();
    for mut theta in seeds {
        match b.eval(&mut theta) {
            Ok(true) => out.push(theta),
            Ok(false) => {}
            Err(e) => return Err(DatalogError::Builtin(e.to_string())),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilog_syntax::{parse_program, parse_term};

    fn engine(text: &str) -> DatalogEngine {
        DatalogEngine::new(parse_program(text).unwrap()).unwrap()
    }

    #[test]
    fn rejects_hilog_programs() {
        let p = parse_program("tc(G)(X, Y) :- G(X, Y).").unwrap();
        assert!(matches!(
            DatalogEngine::new(p),
            Err(DatalogError::NotNormal(_))
        ));
    }

    #[test]
    fn least_model_of_transitive_closure() {
        let e = engine(
            "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y).\n\
             edge(a, b). edge(b, c). edge(c, d).",
        );
        let m = e.least_model().unwrap();
        assert!(m.contains(&parse_term("tc(a, d)").unwrap()));
        assert!(!m.contains(&parse_term("tc(d, a)").unwrap()));
        assert_eq!(m.iter().filter(|a| a.name() == &Term::sym("tc")).count(), 6);
    }

    #[test]
    fn least_model_rejects_negation() {
        let e = engine("p :- not q. q.");
        assert!(matches!(
            e.least_model(),
            Err(DatalogError::NotStratified(_))
        ));
    }

    #[test]
    fn stratified_evaluation() {
        let e = engine(
            "reach(X) :- source(X). reach(Y) :- reach(X), edge(X, Y).\n\
             unreachable(X) :- node(X), not reach(X).\n\
             source(a). edge(a, b). node(a). node(b). node(c).",
        );
        let m = e.stratified_model().unwrap();
        assert!(m.is_true(&parse_term("reach(b)").unwrap()));
        assert!(m.is_true(&parse_term("unreachable(c)").unwrap()));
        assert!(m.is_false(&parse_term("unreachable(a)").unwrap()));
        assert!(m.is_total());
    }

    #[test]
    fn stratified_evaluation_rejects_win_move() {
        let e = engine("winning(X) :- move(X, Y), not winning(Y). move(a, b).");
        assert!(matches!(
            e.stratified_model(),
            Err(DatalogError::NotStratified(_))
        ));
    }

    #[test]
    fn well_founded_model_of_win_move_chain() {
        let e = engine("winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, c).");
        let m = e.well_founded_model().unwrap();
        assert!(m.is_true(&parse_term("winning(b)").unwrap()));
        assert!(m.is_false(&parse_term("winning(a)").unwrap()));
        assert!(m.is_total());
    }

    #[test]
    fn well_founded_model_of_example_3_1() {
        let e = engine("p :- q. q :- p. r :- s, not p. s. t :- not r. u :- not u.");
        let m = e.well_founded_model().unwrap();
        assert!(m.is_true(&parse_term("s").unwrap()));
        assert!(m.is_true(&parse_term("r").unwrap()));
        assert!(m.is_false(&parse_term("p").unwrap()));
        assert!(m.is_false(&parse_term("t").unwrap()));
        assert!(m.is_undefined(&parse_term("u").unwrap()));
    }

    #[test]
    fn well_founded_model_with_even_cycle_is_partial() {
        let e = engine("winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, a).");
        let m = e.well_founded_model().unwrap();
        assert!(m.is_undefined(&parse_term("winning(a)").unwrap()));
        assert!(m.is_undefined(&parse_term("winning(b)").unwrap()));
    }

    #[test]
    fn builtins_in_stratified_rules() {
        let e = engine("adult(X) :- person(X, A), A >= 18. person(amy, 20). person(tim, 12).");
        let m = e.stratified_model().unwrap();
        assert!(m.is_true(&parse_term("adult(amy)").unwrap()));
        assert!(!m.is_true(&parse_term("adult(tim)").unwrap()));
    }

    #[test]
    fn floundering_is_detected() {
        let e = engine("p(X) :- not q(X).");
        assert!(matches!(
            e.well_founded_model(),
            Err(DatalogError::Floundering(_))
        ));
    }

    #[test]
    fn zero_ary_predicates_are_supported() {
        let e = engine("alarm :- sensor(S), not suppressed. sensor(s1).");
        let m = e.well_founded_model().unwrap();
        assert!(m.is_true(&parse_term("alarm").unwrap()));
    }
}
