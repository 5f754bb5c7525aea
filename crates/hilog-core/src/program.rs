//! HiLog programs.
//!
//! A HiLog program is a finite set of HiLog rules (Definition 2.1).  This
//! module also provides the *normal program* test — a program is normal when
//! every atom has a symbol as its predicate name and first-order arguments —
//! which matters because the paper's Theorems 4.1/4.2 and Lemma 5.1 relate
//! HiLog semantics to the conventional semantics of normal programs.
//!
//! The database reading of the paper is a few rules over one large, growing
//! set of facts, and an update is Section 5's extension program `Q` of
//! ground facts: the rule list is therefore a *persistent* sequence
//! ([`RuleSeq`]) — a copy shares every chunk of rules with its original, and
//! an edit copies only the chunk it touches — so that holding an old version
//! of a program beside a new one (which is what publishing a snapshot does)
//! costs what changed between them, not the store.

use crate::literal::Literal;
use crate::rule::Rule;
use crate::symbol::Symbol;
use crate::term::Term;
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// Rules per [`RuleSeq`] chunk: the unit a copy shares and an edit copies.
/// Smaller than a relation on purpose — a one-relation ingest must not copy
/// its relation per batch — and large enough that cloning a 20,000-rule
/// sequence is ~80 reference-count bumps.
const CHUNK_CAPACITY: usize = 256;

/// A sequence of rules in source order that shares structure between copies.
///
/// The rules sit in chunks of at most `CHUNK_CAPACITY` (256), each behind an
/// [`Arc`]: `clone` bumps one reference count per chunk, [`push`](Self::push)
/// and [`remove`](Self::remove) copy-on-write only the chunk they touch, and
/// a chunk that empties is dropped.  Chunk boundaries are an implementation
/// detail: positions, iteration order, equality and `Debug` are those of the
/// flat rule list.
#[derive(Clone, Default)]
pub struct RuleSeq {
    /// Never holds an empty chunk.
    chunks: Vec<Arc<Vec<Rule>>>,
}

/// Borrowing iterator over a [`RuleSeq`], in sequence order.
pub type RuleSeqIter<'a> = std::iter::FlatMap<
    std::slice::Iter<'a, Arc<Vec<Rule>>>,
    std::slice::Iter<'a, Rule>,
    fn(&'a Arc<Vec<Rule>>) -> std::slice::Iter<'a, Rule>,
>;

impl RuleSeq {
    /// Number of rules (a sum over the chunks, not over the rules).
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|chunk| chunk.len()).sum()
    }

    /// Returns `true` if the sequence holds no rule.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Iterates over the rules in sequence order.
    pub fn iter(&self) -> RuleSeqIter<'_> {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// Returns `true` if some rule of the sequence equals `rule`.
    pub fn contains(&self, rule: &Rule) -> bool {
        self.iter().any(|r| r == rule)
    }

    /// Appends a rule, copying at most the last chunk.
    pub fn push(&mut self, rule: Rule) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK_CAPACITY => Arc::make_mut(last).push(rule),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK_CAPACITY);
                chunk.push(rule);
                self.chunks.push(Arc::new(chunk));
            }
        }
    }

    /// Removes and returns the rule at `pos`, shifting later rules down by
    /// one and copying at most the chunk that held it.
    ///
    /// # Panics
    ///
    /// If `pos >= self.len()`, like [`Vec::remove`].
    pub fn remove(&mut self, pos: usize) -> Rule {
        let (chunk, offset) = self.locate(pos);
        let rule = Arc::make_mut(&mut self.chunks[chunk]).remove(offset);
        if self.chunks[chunk].is_empty() {
            self.chunks.remove(chunk);
        }
        rule
    }

    /// The chunk holding position `pos` and the offset inside it.  A walk
    /// over the chunk lengths: removals leave chunks of uneven size.
    fn locate(&self, pos: usize) -> (usize, usize) {
        let mut offset = pos;
        for (index, chunk) in self.chunks.iter().enumerate() {
            if offset < chunk.len() {
                return (index, offset);
            }
            offset -= chunk.len();
        }
        panic!(
            "rule position {pos} out of range for a sequence of {}",
            self.len()
        );
    }
}

impl Index<usize> for RuleSeq {
    type Output = Rule;
    fn index(&self, pos: usize) -> &Rule {
        let (chunk, offset) = self.locate(pos);
        &self.chunks[chunk][offset]
    }
}

impl PartialEq for RuleSeq {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for RuleSeq {}

impl fmt::Debug for RuleSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<Rule> for RuleSeq {
    fn from_iter<I: IntoIterator<Item = Rule>>(iter: I) -> Self {
        let mut seq = RuleSeq::default();
        for rule in iter {
            seq.push(rule);
        }
        seq
    }
}

impl<'a> IntoIterator for &'a RuleSeq {
    type Item = &'a Rule;
    type IntoIter = RuleSeqIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A finite set (sequence, to preserve source order) of HiLog rules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// The rules in source order.
    pub rules: RuleSeq,
}

impl Program {
    /// The empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Builds a program from rules.
    pub fn from_rules(rules: Vec<Rule>) -> Self {
        rules.into_iter().collect()
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` if the program has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Appends a rule.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Appends all rules of another program (program union, as used by the
    /// preservation-under-extensions definitions of Section 5).
    pub fn extend_with(&mut self, other: &Program) {
        for rule in &other.rules {
            self.rules.push(rule.clone());
        }
    }

    /// Returns the union `P ∪ Q` of two programs.
    pub fn union(&self, other: &Program) -> Program {
        let mut union = self.clone();
        union.extend_with(other);
        union
    }

    /// Iterates over the rules.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter()
    }

    /// The facts (empty-body rules) of the program.
    pub fn facts(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(|r| r.is_fact())
    }

    /// The proper rules (non-empty body) of the program.
    pub fn proper_rules(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(|r| !r.is_fact())
    }

    /// Every symbol appearing anywhere in the program.  This is the
    /// vocabulary that *generates* the program's Herbrand universe
    /// (Section 2: "the Herbrand universe is generated by the symbols
    /// appearing therein").
    pub fn symbols(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        for rule in &self.rules {
            rule.head.collect_symbols(&mut out);
            for lit in &rule.body {
                match lit {
                    Literal::Pos(a) | Literal::Neg(a) => a.collect_symbols(&mut out),
                    Literal::Builtin(b) => {
                        b.left.collect_symbols(&mut out);
                        b.right.collect_symbols(&mut out);
                    }
                    Literal::Aggregate(a) => {
                        a.result.collect_symbols(&mut out);
                        a.value.collect_symbols(&mut out);
                        a.pattern.collect_symbols(&mut out);
                    }
                }
            }
        }
        out
    }

    /// Every integer constant appearing in the program.
    pub fn integers(&self) -> BTreeSet<i64> {
        let mut out = BTreeSet::new();
        for rule in &self.rules {
            rule.head.collect_integers(&mut out);
            for lit in &rule.body {
                match lit {
                    Literal::Pos(a) | Literal::Neg(a) => a.collect_integers(&mut out),
                    Literal::Builtin(b) => {
                        b.left.collect_integers(&mut out);
                        b.right.collect_integers(&mut out);
                    }
                    Literal::Aggregate(a) => {
                        a.result.collect_integers(&mut out);
                        a.value.collect_integers(&mut out);
                        a.pattern.collect_integers(&mut out);
                    }
                }
            }
        }
        out
    }

    /// Every atom (head or body, positive or negative) of the program.
    pub fn atoms(&self) -> Vec<&Term> {
        let mut out = Vec::new();
        for rule in &self.rules {
            out.push(&rule.head);
            for lit in &rule.body {
                if let Some(a) = lit.atom() {
                    out.push(a);
                }
            }
        }
        out
    }

    /// Returns `true` if the program is a *normal* logic program: every atom
    /// has a symbol in predicate-name position and first-order argument terms
    /// (so no variables or applications occur as predicate names), and no
    /// aggregates are used.  Builtins are permitted (a conventional deductive
    /// database has them too).
    pub fn is_normal(&self) -> bool {
        fn atom_is_normal(atom: &Term) -> bool {
            match atom {
                Term::Sym(_) => true,
                Term::App(name, args) => {
                    matches!(**name, Term::Sym(_)) && args.iter().all(arg_is_first_order)
                }
                _ => false,
            }
        }
        fn arg_is_first_order(t: &Term) -> bool {
            match t {
                Term::Var(_) | Term::Sym(_) | Term::Int(_) => true,
                Term::App(name, args) => {
                    matches!(**name, Term::Sym(_)) && args.iter().all(arg_is_first_order)
                }
            }
        }
        self.rules.iter().all(|r| {
            atom_is_normal(&r.head)
                && r.body.iter().all(|l| match l {
                    Literal::Pos(a) | Literal::Neg(a) => atom_is_normal(a),
                    Literal::Builtin(_) => true,
                    Literal::Aggregate(_) => false,
                })
        })
    }

    /// Returns `true` if every rule head and every body atom is ground — a
    /// *ground program*, as required of the extension programs `Q` in the
    /// preservation-under-extensions definitions (Definitions 5.3 and 5.4).
    pub fn is_ground(&self) -> bool {
        self.rules.iter().all(Rule::is_ground)
    }

    /// Returns `true` if the program contains a negative body literal.
    pub fn has_negation(&self) -> bool {
        self.rules.iter().any(Rule::has_negation)
    }

    /// Returns `true` if the program contains an aggregate literal.
    pub fn has_aggregate(&self) -> bool {
        self.rules.iter().any(Rule::has_aggregate)
    }

    /// Returns `true` if the two programs share no symbols — the side
    /// condition on extensions `Q` in Definitions 5.3 / 5.4 ("ground programs
    /// that have no symbols appearing in P").
    pub fn shares_no_symbols_with(&self, other: &Program) -> bool {
        let mine = self.symbols();
        other.symbols().iter().all(|s| !mine.contains(s))
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        Ok(())
    }
}

impl FromIterator<Rule> for Program {
    fn from_iter<I: IntoIterator<Item = Rule>>(iter: I) -> Self {
        Program {
            rules: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for Program {
    type Item = Rule;
    type IntoIter = std::vec::IntoIter<Rule>;
    fn into_iter(self) -> Self::IntoIter {
        // Chunks may be shared with other copies of the program, so the
        // rules are cloned out (reference-count bumps) rather than moved.
        self.rules.iter().cloned().collect::<Vec<_>>().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Literal;

    fn game_program() -> Program {
        // winning(X) :- move(X, Y), not winning(Y).   move(a,b). move(b,c).
        Program::from_rules(vec![
            Rule::new(
                Term::apps("winning", vec![Term::var("X")]),
                vec![
                    Literal::pos(Term::apps("move", vec![Term::var("X"), Term::var("Y")])),
                    Literal::neg(Term::apps("winning", vec![Term::var("Y")])),
                ],
            ),
            Rule::fact(Term::apps("move", vec![Term::sym("a"), Term::sym("b")])),
            Rule::fact(Term::apps("move", vec![Term::sym("b"), Term::sym("c")])),
        ])
    }

    fn hilog_game_program() -> Program {
        // winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).
        Program::from_rules(vec![Rule::new(
            Term::app(
                Term::apps("winning", vec![Term::var("M")]),
                vec![Term::var("X")],
            ),
            vec![
                Literal::pos(Term::apps("game", vec![Term::var("M")])),
                Literal::pos(Term::app(
                    Term::var("M"),
                    vec![Term::var("X"), Term::var("Y")],
                )),
                Literal::neg(Term::app(
                    Term::apps("winning", vec![Term::var("M")]),
                    vec![Term::var("Y")],
                )),
            ],
        )])
    }

    fn numbered(i: usize) -> Rule {
        Rule::fact(Term::apps("n", vec![Term::int(i as i64)]))
    }

    fn numbered_seq(n: usize) -> RuleSeq {
        (0..n).map(numbered).collect()
    }

    /// How many chunks `a` and `b` do *not* share (by pointer), position by
    /// position, plus any length difference.
    fn unshared_chunks(a: &RuleSeq, b: &RuleSeq) -> usize {
        let shared = a
            .chunks
            .iter()
            .zip(&b.chunks)
            .filter(|(x, y)| Arc::ptr_eq(x, y))
            .count();
        a.chunks.len().max(b.chunks.len()) - shared
    }

    #[test]
    fn rule_seq_reads_like_the_flat_list_at_every_chunk_boundary() {
        // Sizes on both sides of one, two and three chunk boundaries.
        for n in [
            0,
            1,
            CHUNK_CAPACITY - 1,
            CHUNK_CAPACITY,
            CHUNK_CAPACITY + 1,
            2 * CHUNK_CAPACITY,
            3 * CHUNK_CAPACITY + 7,
        ] {
            let flat: Vec<Rule> = (0..n).map(numbered).collect();
            let seq: RuleSeq = flat.iter().cloned().collect();
            assert_eq!(seq.len(), n);
            assert_eq!(seq.is_empty(), n == 0);
            assert_eq!(
                seq.iter().collect::<Vec<_>>(),
                flat.iter().collect::<Vec<_>>()
            );
            assert_eq!((&seq).into_iter().count(), n);
            for (pos, rule) in flat.iter().enumerate() {
                assert_eq!(&seq[pos], rule);
            }
            assert!(seq.chunks.iter().all(|c| !c.is_empty()));
            assert!(seq.chunks.iter().all(|c| c.len() <= CHUNK_CAPACITY));
            assert_eq!(format!("{seq:?}"), format!("{flat:?}"));
            assert!(n == 0 || seq.contains(&numbered(n - 1)));
            assert!(!seq.contains(&numbered(n)));
        }
    }

    #[test]
    fn rule_seq_remove_matches_vec_remove_at_every_boundary() {
        let n = 3 * CHUNK_CAPACITY;
        for pos in [
            0,
            CHUNK_CAPACITY - 1,
            CHUNK_CAPACITY,
            CHUNK_CAPACITY + 1,
            2 * CHUNK_CAPACITY - 1,
            2 * CHUNK_CAPACITY,
            n - 1,
        ] {
            let mut flat: Vec<Rule> = (0..n).map(numbered).collect();
            let mut seq = numbered_seq(n);
            assert_eq!(seq.remove(pos), flat.remove(pos));
            assert_eq!(seq.len(), flat.len());
            assert!(seq.iter().eq(flat.iter()), "after remove({pos})");
            // Positions after the removal shifted down by one, across
            // chunks of now uneven size; a push still lands at the end.
            assert_eq!(seq[pos.min(n - 2)], flat[pos.min(n - 2)]);
            seq.push(numbered(n));
            flat.push(numbered(n));
            assert!(seq.iter().eq(flat.iter()));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rule_seq_remove_past_the_end_panics_like_vec() {
        numbered_seq(CHUNK_CAPACITY + 1).remove(CHUNK_CAPACITY + 1);
    }

    #[test]
    fn rule_seq_drops_a_chunk_that_empties() {
        let mut seq = numbered_seq(2 * CHUNK_CAPACITY + 1);
        assert_eq!(seq.chunks.len(), 3);
        // The one-rule tail chunk goes with its rule...
        seq.remove(2 * CHUNK_CAPACITY);
        assert_eq!(seq.chunks.len(), 2);
        // ...and so does a middle chunk drained rule by rule.
        for _ in 0..CHUNK_CAPACITY {
            seq.remove(CHUNK_CAPACITY);
        }
        assert_eq!(seq.chunks.len(), 1);
        assert!(seq.iter().eq(numbered_seq(CHUNK_CAPACITY).iter()));
        for _ in 0..CHUNK_CAPACITY {
            seq.remove(0);
        }
        assert!(seq.is_empty() && seq.chunks.is_empty());
        assert_eq!(seq, RuleSeq::default());
    }

    #[test]
    fn rule_seq_equality_ignores_chunk_boundaries() {
        // Same rules, different chunking: `a` was drained at the front of
        // its first chunk, `b` was built flat.
        let mut a = numbered_seq(2 * CHUNK_CAPACITY);
        for _ in 0..10 {
            a.remove(0);
        }
        let b: RuleSeq = (10..2 * CHUNK_CAPACITY).map(numbered).collect();
        assert_ne!(a.chunks[0].len(), b.chunks[0].len());
        assert_eq!(a, b);
        let mut c = b.clone();
        c.remove(5);
        c.push(numbered(5));
        assert_ne!(b, c, "same multiset, different order");
        assert_ne!(b, numbered_seq(3));
    }

    #[test]
    fn rule_seq_copies_share_every_chunk_an_edit_did_not_touch() {
        let original = numbered_seq(20_000);
        let total = original.chunks.len();
        assert_eq!(total, 20_000_usize.div_ceil(CHUNK_CAPACITY));
        // A clone shares everything.
        let mut grown = original.clone();
        assert_eq!(unshared_chunks(&original, &grown), 0);
        // 100 pushes: the partly filled tail chunk is copied once, and at
        // most one new chunk is opened.
        for i in 0..100 {
            grown.push(numbered(20_000 + i));
        }
        assert!(unshared_chunks(&original, &grown) <= 2);
        assert_eq!(original.len(), 20_000, "the original saw none of it");
        assert_eq!(original[19_999], numbered(19_999));
        assert_eq!(grown[20_099], numbered(20_099));
        // One removal mid-sequence copies exactly the chunk that held it.
        let mut shrunk = original.clone();
        shrunk.remove(10_000);
        assert_eq!(unshared_chunks(&original, &shrunk), 1);
        assert_eq!(original[10_000], numbered(10_000));
        assert_eq!(shrunk[10_000], numbered(10_001));
        // The same holds one level up: a `Program` clone is a `RuleSeq`
        // clone.
        let program = Program {
            rules: original.clone(),
        };
        let mut next = program.clone();
        next.push(numbered(20_000));
        assert_eq!(unshared_chunks(&program.rules, &next.rules), 1);
        assert_eq!(program.len() + 1, next.len());
    }

    #[test]
    fn symbols_collects_vocabulary() {
        let p = game_program();
        let syms: Vec<String> = p.symbols().iter().map(|s| s.name().to_string()).collect();
        assert_eq!(syms, vec!["a", "b", "c", "move", "winning"]);
    }

    #[test]
    fn normality_check() {
        assert!(game_program().is_normal());
        assert!(!hilog_game_program().is_normal());
        // A program with a variable predicate name is not normal.
        let var_name = Program::from_rules(vec![Rule::new(
            Term::sym("p"),
            vec![Literal::pos(Term::app(
                Term::var("X"),
                vec![Term::var("Y")],
            ))],
        )]);
        assert!(!var_name.is_normal());
    }

    #[test]
    fn groundness_and_negation_flags() {
        assert!(!game_program().is_ground());
        assert!(game_program().has_negation());
        let facts: Program = vec![Rule::fact(Term::apps("q", vec![Term::sym("r")]))]
            .into_iter()
            .collect();
        assert!(facts.is_ground());
        assert!(!facts.has_negation());
    }

    #[test]
    fn union_and_symbol_disjointness() {
        let p = game_program();
        let q: Program = vec![Rule::fact(Term::apps(
            "salary",
            vec![Term::sym("john"), Term::sym("k30")],
        ))]
        .into_iter()
        .collect();
        assert!(p.shares_no_symbols_with(&q));
        let u = p.union(&q);
        assert_eq!(u.len(), p.len() + q.len());
        // Sharing a symbol is detected.
        let q2: Program = vec![Rule::fact(Term::apps(
            "move",
            vec![Term::sym("x"), Term::sym("y")],
        ))]
        .into_iter()
        .collect();
        assert!(!p.shares_no_symbols_with(&q2));
    }

    #[test]
    fn facts_and_proper_rules_partition() {
        let p = game_program();
        assert_eq!(p.facts().count(), 2);
        assert_eq!(p.proper_rules().count(), 1);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn atoms_enumeration() {
        let p = game_program();
        // 3 heads + 2 body atoms of the rule.
        assert_eq!(p.atoms().len(), 5);
    }

    #[test]
    fn display_roundtrips_rule_text() {
        let p = game_program();
        let text = p.to_string();
        assert!(text.contains("winning(X) :- move(X, Y), not winning(Y)."));
        assert!(text.contains("move(a, b)."));
    }

    #[test]
    fn integers_collected() {
        let p: Program = vec![Rule::fact(Term::apps(
            "part",
            vec![Term::sym("wheel"), Term::sym("spoke"), Term::int(47)],
        ))]
        .into_iter()
        .collect();
        assert!(p.integers().contains(&47));
    }
}
