//! Checks shared by the integration suites.

use hilog_core::universal::{decode_atom, encode_atom, universal_transform};
use hilog_core::{Model, Program, Truth};
use hilog_datalog::DatalogEngine;

/// Holds `ours`, a model of `program`, to the well-founded model of
/// `program`'s universal-relation image in the naive engine, atom for atom
/// in both directions through `encode_atom` / `decode_atom`.  The image is
/// a normal program over one `call` predicate, so the naive engine
/// evaluates it with code the HiLog engine does not share; it is never
/// stratified, hence the well-founded model.  Returns the atoms checked
/// (the larger base) and how many of them are undefined.
pub fn assert_agrees_with_universal_image(
    program: &Program,
    ours: &Model,
    context: &str,
) -> (usize, usize) {
    let image = universal_transform(program).expect("no reserved symbols");
    let theirs = DatalogEngine::new(image)
        .expect("the image is a normal program")
        .well_founded_model()
        .expect("naive engine evaluates the image");
    for atom in ours.base() {
        let encoded = encode_atom(atom);
        assert_eq!(
            ours.truth(atom),
            theirs.truth(&encoded),
            "`{atom}` and its image `{encoded}` diverge ({context})"
        );
    }
    let mut undefined = 0;
    for encoded in theirs.base() {
        let atom = decode_atom(encoded).expect("an image atom is `call(..)`");
        assert_eq!(
            theirs.truth(encoded),
            ours.truth(&atom),
            "image `{encoded}` and `{atom}` diverge ({context})"
        );
        undefined += usize::from(theirs.truth(encoded) == Truth::Undefined);
    }
    (ours.base().len().max(theirs.base().len()), undefined)
}
