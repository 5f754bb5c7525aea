//! Random program generators for the property-based experiments.
//!
//! * [`random_range_restricted_normal`] — range-restricted normal programs
//!   (Definition 4.1), used by experiment E3 to check Theorems 4.1/4.2.
//! * [`random_strongly_restricted_hilog`] — strongly range-restricted HiLog
//!   programs (Definition 5.6), used by experiment E4 to check Theorems
//!   5.3/5.4.
//! * [`random_ground_extension`] — ground programs `Q` over fresh symbols,
//!   the extension witnesses of Definitions 5.3/5.4.
//!
//! All generators construct programs that are range restricted *by
//! construction*: heads and negative literals only use variables that occur
//! in positive body literals.

use hilog_core::{Literal, Program, Rule, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for the random normal-program generator.
#[derive(Debug, Clone, Copy)]
pub struct NormalProgramConfig {
    /// Number of EDB predicates (binary).
    pub edb_predicates: usize,
    /// Number of IDB predicates (unary).
    pub idb_predicates: usize,
    /// Number of constants.
    pub constants: usize,
    /// Number of EDB facts.
    pub facts: usize,
    /// Number of IDB rules.
    pub rules: usize,
    /// Probability that a rule carries a negative literal.
    pub negation_probability: f64,
}

impl Default for NormalProgramConfig {
    fn default() -> Self {
        NormalProgramConfig {
            edb_predicates: 2,
            idb_predicates: 3,
            constants: 5,
            facts: 12,
            rules: 6,
            negation_probability: 0.6,
        }
    }
}

fn constant(i: usize) -> Term {
    Term::sym(format!("c{i}"))
}

/// Generates a range-restricted normal program.
///
/// IDB rules have the shape
/// `idb_i(X) :- edb_j(X, Y) [, idb_k(Y)] [, not idb_l(X)]`,
/// so every head / negated variable occurs in the positive EDB literal and
/// the program satisfies Definition 4.1.  Negation between IDB predicates is
/// unrestricted, so the generated programs range over stratified,
/// modularly-stratified and genuinely three-valued cases.
pub fn random_range_restricted_normal(config: NormalProgramConfig, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut program = Program::new();
    let edb = |i: usize| format!("edb{i}");
    let idb = |i: usize| format!("idb{i}");

    for _ in 0..config.facts {
        let rel = rng.gen_range(0..config.edb_predicates.max(1));
        let a = rng.gen_range(0..config.constants.max(1));
        let b = rng.gen_range(0..config.constants.max(1));
        program.push(Rule::fact(Term::apps(
            edb(rel),
            vec![constant(a), constant(b)],
        )));
    }
    for _ in 0..config.rules {
        let head_pred = rng.gen_range(0..config.idb_predicates.max(1));
        let edb_pred = rng.gen_range(0..config.edb_predicates.max(1));
        let head = Term::apps(idb(head_pred), vec![Term::var("X")]);
        let mut body = vec![Literal::pos(Term::apps(
            edb(edb_pred),
            vec![Term::var("X"), Term::var("Y")],
        ))];
        if rng.gen_bool(0.5) {
            let dep = rng.gen_range(0..config.idb_predicates.max(1));
            body.push(Literal::pos(Term::apps(idb(dep), vec![Term::var("Y")])));
        }
        if rng.gen_bool(config.negation_probability) {
            let neg = rng.gen_range(0..config.idb_predicates.max(1));
            let var = if rng.gen_bool(0.5) { "X" } else { "Y" };
            body.push(Literal::neg(Term::apps(idb(neg), vec![Term::var(var)])));
        }
        program.push(Rule::new(head, body));
    }
    program
}

/// Parameters for the random HiLog-program generator.
#[derive(Debug, Clone, Copy)]
pub struct HilogProgramConfig {
    /// Number of parameterised relation names (the values the `rel` guard
    /// ranges over).
    pub relation_names: usize,
    /// Number of constants.
    pub constants: usize,
    /// Number of facts per relation.
    pub facts_per_relation: usize,
    /// Whether to include the negation-using derived predicate.
    pub with_negation: bool,
}

impl Default for HilogProgramConfig {
    fn default() -> Self {
        HilogProgramConfig {
            relation_names: 2,
            constants: 4,
            facts_per_relation: 5,
            with_negation: true,
        }
    }
}

/// Generates a strongly range-restricted HiLog program built around
/// parameterised (second-order-style) rules: a guarded generic closure and a
/// guarded complement predicate, over randomly generated base relations.
///
/// ```text
/// reach(R)(X, Y) :- rel(R), R(X, Y).
/// reach(R)(X, Y) :- rel(R), R(X, Z), reach(R)(Z, Y).
/// unlinked(R)(X, Y) :- rel(R), dom(X), dom(Y), not reach(R)(X, Y).   (optional)
/// rel(r0). r0(c1, c2). ... dom(c0). ...
/// ```
pub fn random_strongly_restricted_hilog(config: HilogProgramConfig, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = String::from(
        "reach(R)(X, Y) :- rel(R), R(X, Y).\n\
         reach(R)(X, Y) :- rel(R), R(X, Z), reach(R)(Z, Y).\n",
    );
    if config.with_negation {
        text.push_str("unlinked(R)(X, Y) :- rel(R), dom(X), dom(Y), not reach(R)(X, Y).\n");
    }
    for c in 0..config.constants {
        text.push_str(&format!("dom(c{c}).\n"));
    }
    for r in 0..config.relation_names {
        text.push_str(&format!("rel(r{r}).\n"));
        for _ in 0..config.facts_per_relation {
            // Edges go from lower-numbered to higher-numbered constants so
            // every generated relation is acyclic.
            let a = rng.gen_range(0..config.constants.max(2) - 1);
            let b = rng.gen_range(a + 1..config.constants.max(2));
            text.push_str(&format!("r{r}(c{a}, c{b}).\n"));
        }
    }
    hilog_syntax::parse_program(&text).expect("generated HiLog program parses")
}

/// Parameters for the random ground-extension generator.
#[derive(Debug, Clone, Copy)]
pub struct ExtensionConfig {
    /// Number of fresh predicate symbols.
    pub predicates: usize,
    /// Number of fresh constants.
    pub constants: usize,
    /// Number of ground facts.
    pub facts: usize,
    /// Number of ground rules (possibly with negation between the fresh
    /// predicates).
    pub rules: usize,
}

impl Default for ExtensionConfig {
    fn default() -> Self {
        ExtensionConfig {
            predicates: 3,
            constants: 3,
            facts: 5,
            rules: 3,
        }
    }
}

/// Generates a ground program `Q` over fresh symbols (prefixed `qext_`),
/// suitable as an extension witness for Definitions 5.3 / 5.4: it is ground
/// and shares no symbols with programs that avoid the `qext_` prefix.
pub fn random_ground_extension(config: ExtensionConfig, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut program = Program::new();
    let pred = |i: usize| format!("qext_p{i}");
    let cst = |i: usize| Term::sym(format!("qext_c{i}"));
    let atom = |rng: &mut StdRng, config: &ExtensionConfig| {
        let p = rng.gen_range(0..config.predicates.max(1));
        let c = rng.gen_range(0..config.constants.max(1));
        Term::apps(pred(p), vec![cst(c)])
    };
    for _ in 0..config.facts {
        program.push(Rule::fact(atom(&mut rng, &config)));
    }
    for _ in 0..config.rules {
        let head = atom(&mut rng, &config);
        let mut body = vec![Literal::pos(atom(&mut rng, &config))];
        if rng.gen_bool(0.4) {
            body.push(Literal::neg(atom(&mut rng, &config)));
        }
        program.push(Rule::new(head, body));
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilog_core::{is_range_restricted_normal, is_strongly_range_restricted};

    #[test]
    fn normal_generator_respects_definition_4_1() {
        for seed in 0..20 {
            let p = random_range_restricted_normal(NormalProgramConfig::default(), seed);
            assert!(p.is_normal(), "seed {seed}");
            assert!(is_range_restricted_normal(&p), "seed {seed}");
            assert!(!p.is_empty());
        }
    }

    #[test]
    fn hilog_generator_respects_definition_5_6() {
        for seed in 0..20 {
            let p = random_strongly_restricted_hilog(HilogProgramConfig::default(), seed);
            assert!(is_strongly_range_restricted(&p), "seed {seed}");
            assert!(!p.is_normal());
        }
    }

    #[test]
    fn extensions_are_ground_and_fresh() {
        for seed in 0..20 {
            let q = random_ground_extension(ExtensionConfig::default(), seed);
            assert!(q.is_ground(), "seed {seed}");
            assert!(
                q.symbols().iter().all(|s| s.name().starts_with("qext_")),
                "seed {seed}"
            );
        }
        // Fresh symbols never collide with the other generators' programs.
        let p = random_range_restricted_normal(NormalProgramConfig::default(), 1);
        let q = random_ground_extension(ExtensionConfig::default(), 1);
        assert!(p.shares_no_symbols_with(&q));
        let h = random_strongly_restricted_hilog(HilogProgramConfig::default(), 1);
        assert!(h.shares_no_symbols_with(&q));
    }

    #[test]
    fn generators_are_deterministic() {
        let a = random_range_restricted_normal(NormalProgramConfig::default(), 42);
        let b = random_range_restricted_normal(NormalProgramConfig::default(), 42);
        assert_eq!(a, b);
        let c = random_ground_extension(ExtensionConfig::default(), 42);
        let d = random_ground_extension(ExtensionConfig::default(), 42);
        assert_eq!(c, d);
    }
}
