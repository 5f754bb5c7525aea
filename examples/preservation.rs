//! Section 5: preservation under extensions versus domain independence.
//!
//! Demonstrates Example 5.1 (a domain-independent HiLog program that is *not*
//! preserved under extensions), Theorem 5.3 (range-restricted programs are
//! preserved), and the remark after Theorem 5.4 (a range-restricted but not
//! strongly range-restricted program whose stable models are destroyed by an
//! innocent extension).
//!
//! Run with `cargo run --example preservation`.

use hilog_core::Term;
use hilog_engine::{
    domain_independent_wfs_with_constants, preserved_by_extension_stable,
    preserved_by_extension_wfs, EvalOptions,
};
use hilog_syntax::parse_program;

fn main() {
    // Example 5.1: p :- X(Y), Y(X).
    let example_5_1 = parse_program("p :- X(Y), Y(X).").unwrap();
    let extension = parse_program("q(r). r(q).").unwrap();

    let domain = domain_independent_wfs_with_constants(
        &example_5_1,
        &[Term::sym("new_constant")],
        EvalOptions::default(),
    )
    .unwrap();
    let preservation =
        preserved_by_extension_wfs(&example_5_1, &extension, EvalOptions::default()).unwrap();
    println!("Example 5.1  p :- X(Y), Y(X).");
    println!(
        "  domain independent (extra constants):        {}",
        domain.preserved
    );
    println!(
        "  preserved under the extension {{q(r). r(q).}}: {}",
        preservation.preserved
    );
    println!(
        "  violating atoms: {:?}",
        preservation
            .violations
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
    );
    assert!(domain.preserved && !preservation.preserved);

    // Theorem 5.3: a (strongly) range-restricted program is preserved.
    let game = parse_program(
        "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
         game(move1). move1(a, b). move1(b, c).",
    )
    .unwrap();
    let unrelated = parse_program("salary(john, 30). dept(john, toys).").unwrap();
    let verdict = preserved_by_extension_wfs(&game, &unrelated, EvalOptions::default()).unwrap();
    println!(
        "Theorem 5.3  range-restricted game program preserved: {}",
        verdict.preserved
    );
    assert!(verdict.preserved);

    // After Theorem 5.4: range restricted but not strongly — the stable-model
    // semantics is not preserved.
    let weak = parse_program("X(a) :- X(X), not X(a).").unwrap();
    let tiny = parse_program("r(r).").unwrap();
    let verdict = preserved_by_extension_stable(&weak, &tiny, EvalOptions::default()).unwrap();
    println!(
        "Theorem 5.4 counterexample  X(a) :- X(X), not X(a).  preserved under {{r(r).}}: {}",
        verdict.preserved
    );
    assert!(!verdict.preserved);
}
