//! Theorems 4.1 and 4.2: for range-restricted normal programs, the HiLog
//! semantics conservatively extends the normal semantics.
//!
//! The HiLog engine evaluates the program over its HiLog instantiation
//! (relevant instantiation, which is exact for range-restricted programs);
//! the baseline `hilog-datalog` engine evaluates it as a conventional normal
//! program.  The two must agree on every normal atom, and the HiLog model
//! must not make any non-normal atom true — i.e. it conservatively extends
//! the normal model.

use hilog_core::{is_range_restricted_normal, Vocabulary};
use hilog_datalog::DatalogEngine;
use hilog_engine::HiLogDb;
use hilog_workloads::{random_range_restricted_normal, NormalProgramConfig};
use proptest::prelude::*;

/// Theorem 4.1 for one program: the HiLog well-founded model conservatively
/// extends the normal well-founded model.
fn check_theorem_4_1(program: &hilog_core::Program) {
    assert!(program.is_normal() && is_range_restricted_normal(program));
    let hilog_model = HiLogDb::new(program.clone())
        .model()
        .expect("hilog wfs")
        .clone();
    let normal_model = DatalogEngine::new(program.clone())
        .expect("normal program")
        .well_founded_model()
        .expect("normal wfs");
    // Same truth value on every atom of the normal base.
    for atom in normal_model.base() {
        assert_eq!(
            hilog_model.truth(atom),
            normal_model.truth(atom),
            "disagreement on {atom} in\n{program}"
        );
    }
    // Conservative extension: no new true/undefined atoms over P's vocabulary.
    let vocab = Vocabulary::of_program(program);
    assert!(
        hilog_model.conservatively_extends(&normal_model, |a| vocab.generates(a)),
        "HiLog model is not a conservative extension for\n{program}"
    );
}

/// Theorem 4.2 for one program: stable models correspond one to one.
fn check_theorem_4_2(program: &hilog_core::Program) {
    let hilog = HiLogDb::new(program.clone())
        .stable_models()
        .expect("hilog stable models")
        .to_vec();
    // The baseline engine has no stable-model search; Definition 3.6 says a
    // two-valued well-founded model is the unique stable model, so we compare
    // against that case and otherwise only check the conservative-extension
    // direction against the normal WFS truth values.
    let normal_model = DatalogEngine::new(program.clone())
        .expect("normal program")
        .well_founded_model()
        .expect("normal wfs");
    if normal_model.is_total() {
        assert_eq!(
            hilog.len(),
            1,
            "a total WFS admits exactly one stable model:\n{program}"
        );
        for atom in normal_model.base() {
            assert_eq!(hilog[0].truth(atom), normal_model.truth(atom), "{atom}");
        }
    } else {
        // Every HiLog stable model must agree with the normal WFS wherever the
        // latter is decided (stable models extend the well-founded model).
        for m in &hilog {
            for atom in normal_model.base() {
                match normal_model.truth(atom) {
                    hilog_core::Truth::True => assert!(m.is_true(atom), "{atom}"),
                    hilog_core::Truth::False => assert!(m.is_false(atom), "{atom}"),
                    hilog_core::Truth::Undefined => {}
                }
            }
        }
    }
}

#[test]
fn theorems_4_1_and_4_2_on_the_win_move_family() {
    for n in [2, 4, 8, 16] {
        let program = hilog_workloads::normal_game_program(&hilog_workloads::chain(n));
        check_theorem_4_1(&program);
        check_theorem_4_2(&program);
    }
    // A cyclic game (three-valued WFS) exercises the partial case.
    let cyclic = hilog_workloads::normal_game_program(&hilog_workloads::cycle(4));
    check_theorem_4_1(&cyclic);
    check_theorem_4_2(&cyclic);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 4.1 over randomly generated range-restricted normal programs.
    #[test]
    fn theorem_4_1_holds_for_random_programs(seed in 0u64..10_000) {
        let program = random_range_restricted_normal(NormalProgramConfig::default(), seed);
        check_theorem_4_1(&program);
    }

    /// Theorem 4.2 over randomly generated range-restricted normal programs.
    #[test]
    fn theorem_4_2_holds_for_random_programs(seed in 0u64..10_000) {
        let program = random_range_restricted_normal(NormalProgramConfig::default(), seed);
        check_theorem_4_2(&program);
    }

    /// The two independently implemented well-founded evaluators agree on
    /// random normal programs (an implementation cross-check rather than a
    /// paper theorem).
    #[test]
    fn independent_wfs_implementations_agree(seed in 0u64..10_000) {
        let config = NormalProgramConfig { rules: 8, facts: 16, ..NormalProgramConfig::default() };
        let program = random_range_restricted_normal(config, seed);
        let a = HiLogDb::new(program.clone()).model().unwrap().clone();
        let b = DatalogEngine::new(program.clone()).unwrap().well_founded_model().unwrap();
        for atom in b.base() {
            prop_assert_eq!(a.truth(atom), b.truth(atom), "disagreement on {} in\n{}", atom, program);
        }
    }
}
