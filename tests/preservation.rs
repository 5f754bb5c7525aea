//! Section 5: preservation under extensions (Theorems 5.3 and 5.4) checked
//! over generated program families, plus the paper's counterexamples.

use hilog_engine::{preserved_by_extension_stable, preserved_by_extension_wfs, EvalOptions};
use hilog_syntax::parse_program;
use hilog_workloads::random_programs::{
    random_ground_extension, random_range_restricted_normal, random_strongly_restricted_hilog,
    ExtensionConfig, HilogProgramConfig, NormalProgramConfig,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Theorem 5.3: the well-founded semantics of range-restricted HiLog
    /// programs is preserved under extensions.
    #[test]
    fn theorem_5_3_wfs_preserved_for_strongly_restricted_hilog(
        program_seed in 0u64..5_000,
        extension_seed in 0u64..5_000,
    ) {
        let program = random_strongly_restricted_hilog(HilogProgramConfig::default(), program_seed);
        let extension = random_ground_extension(ExtensionConfig::default(), extension_seed);
        let verdict = preserved_by_extension_wfs(&program, &extension, EvalOptions::default())
            .expect("checkable");
        prop_assert!(
            verdict.preserved,
            "violations {:?} for seeds ({}, {})",
            verdict.violations, program_seed, extension_seed
        );
    }

    /// Theorem 5.4: the stable-model semantics of strongly range-restricted
    /// HiLog programs is preserved under extensions.
    #[test]
    fn theorem_5_4_stable_preserved_for_strongly_restricted_hilog(
        program_seed in 0u64..5_000,
        extension_seed in 0u64..5_000,
    ) {
        let program = random_strongly_restricted_hilog(
            HilogProgramConfig { relation_names: 2, constants: 3, facts_per_relation: 3, with_negation: true },
            program_seed,
        );
        let extension = random_ground_extension(ExtensionConfig::default(), extension_seed);
        let verdict = preserved_by_extension_stable(
            &program,
            &extension,
            EvalOptions::default(),
        )
        .expect("checkable");
        prop_assert!(verdict.preserved, "seeds ({program_seed}, {extension_seed})");
    }

    /// Lemma 5.1 (one direction): range-restricted *normal* programs are
    /// preserved under extensions as well (they are domain independent and
    /// the two notions coincide for normal programs).
    #[test]
    fn normal_range_restricted_programs_are_preserved(
        program_seed in 0u64..5_000,
        extension_seed in 0u64..5_000,
    ) {
        let program = random_range_restricted_normal(NormalProgramConfig::default(), program_seed);
        let extension = random_ground_extension(ExtensionConfig::default(), extension_seed);
        let verdict = preserved_by_extension_wfs(&program, &extension, EvalOptions::default())
            .expect("checkable");
        prop_assert!(verdict.preserved, "violations {:?}", verdict.violations);
    }
}

/// Example 5.1: the counterexample program is *not* preserved, for both
/// semantics, under the specific extension the paper gives — and also under a
/// family of similar two-fact extensions.
#[test]
fn example_5_1_counterexample() {
    let program = parse_program("p :- X(Y), Y(X).").unwrap();
    for (a, b) in [("q", "r"), ("alpha", "beta"), ("f1", "f2")] {
        let extension = parse_program(&format!("{a}({b}). {b}({a}).")).unwrap();
        let wfs = preserved_by_extension_wfs(&program, &extension, EvalOptions::default()).unwrap();
        assert!(!wfs.preserved, "extension {a}/{b}");
        let stable =
            preserved_by_extension_stable(&program, &extension, EvalOptions::default()).unwrap();
        assert!(!stable.preserved, "extension {a}/{b}");
    }
    // A *one*-directional pair does not make p true, so it is preserved:
    // the violation really needs the X(Y), Y(X) cycle.
    let one_way = parse_program("q(r).").unwrap();
    let verdict = preserved_by_extension_wfs(&program, &one_way, EvalOptions::default()).unwrap();
    assert!(verdict.preserved);
}

/// The remark after Theorem 5.4: a range-restricted (but not strongly
/// range-restricted) program whose stable models are destroyed by a
/// symbol-disjoint extension.
#[test]
fn theorem_5_4_needs_strong_range_restriction() {
    let program = parse_program("X(a) :- X(X), not X(a).").unwrap();
    let extension = parse_program("r(r).").unwrap();
    let verdict =
        preserved_by_extension_stable(&program, &extension, EvalOptions::default()).unwrap();
    assert!(!verdict.preserved);
    // The well-founded semantics, by contrast, *is* preserved for this
    // range-restricted program (Theorem 5.3 needs only range restriction).
    let wfs = preserved_by_extension_wfs(&program, &extension, EvalOptions::default()).unwrap();
    assert!(wfs.preserved, "violations: {:?}", wfs.violations);
}
