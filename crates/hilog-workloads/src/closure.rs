//! Builders for the generic-versus-specialised transitive-closure workloads
//! (Examples 2.1 and 5.2; `examples/generic_closures.rs`).

use crate::graphs::{edges_to_facts, Edge};
use hilog_core::Program;
use hilog_syntax::parse_program;

/// The *generic* HiLog closure program: one pair of `tc(G)` rules guarded by
/// a `graph` relation (the binding discipline Example 5.2 recommends), plus
/// the edge facts of every listed relation.
///
/// ```text
/// tc(G)(X, Y) :- graph(G), G(X, Y).
/// tc(G)(X, Y) :- graph(G), G(X, Z), tc(G)(Z, Y).
/// graph(e1). e1(p0, p1). ...
/// ```
pub fn generic_closure_program(relations: &[(&str, Vec<Edge>)]) -> Program {
    let mut text = String::from(
        "tc(G)(X, Y) :- graph(G), G(X, Y).\n\
         tc(G)(X, Y) :- graph(G), G(X, Z), tc(G)(Z, Y).\n",
    );
    for (name, edges) in relations {
        text.push_str(&format!("graph({name}).\n"));
        text.push_str(&edges_to_facts(name, edges));
    }
    parse_program(&text).expect("generated generic closure program parses")
}

/// The *specialised* normal closure program for a single relation: the pair
/// of `tc_<name>` rules a first-order programmer would have to write for
/// every relation separately ("With normal logic programs one would have to
/// write a separate tc ... routine for each possible e").
pub fn specialized_closure_program(name: &str, edges: &[Edge]) -> Program {
    let mut text = format!(
        "tc_{name}(X, Y) :- {name}(X, Y).\n\
         tc_{name}(X, Y) :- {name}(X, Z), tc_{name}(Z, Y).\n"
    );
    text.push_str(&edges_to_facts(name, edges));
    parse_program(&text).expect("generated specialised closure program parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::chain;
    use hilog_core::is_strongly_range_restricted;

    #[test]
    fn generic_program_shape() {
        let p = generic_closure_program(&[("e1", chain(3)), ("e2", chain(2))]);
        assert!(is_strongly_range_restricted(&p));
        // 2 rules + 2 graph facts + 5 edges.
        assert_eq!(p.len(), 9);
    }

    #[test]
    fn specialized_program_is_normal() {
        let p = specialized_closure_program("e1", &chain(3));
        assert!(p.is_normal());
        assert_eq!(p.len(), 5);
    }
}
