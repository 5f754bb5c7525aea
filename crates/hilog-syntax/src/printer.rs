//! Pretty printing of whole programs.
//!
//! The `Display` implementations on the core types already emit re-parseable
//! concrete syntax for a term, rule or query; this module adds the
//! whole-program rendering (section comments, facts after rules).

use hilog_core::{Program, Rule};

/// Renders a program as concrete syntax, one clause per line, with proper
/// rules first and facts afterwards (grouped for readability).  The output
/// re-parses to a program equal to the input up to rule order.
pub fn program_to_source(program: &Program) -> String {
    let mut out = String::new();
    let proper: Vec<&Rule> = program.proper_rules().collect();
    let facts: Vec<&Rule> = program.facts().collect();
    if !proper.is_empty() {
        out.push_str("% rules\n");
        for r in proper {
            out.push_str(&r.to_string());
            out.push('\n');
        }
    }
    if !facts.is_empty() {
        out.push_str("% facts\n");
        for r in facts {
            out.push_str(&r.to_string());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use std::collections::BTreeSet;

    #[test]
    fn program_source_reparses_to_same_rule_set() {
        let text = "winning(X) :- move(X, Y), not winning(Y).\n\
                    move(a, b).\n\
                    move(b, c).\n";
        let p = parse_program(text).unwrap();
        let source = program_to_source(&p);
        let reparsed = parse_program(&source).unwrap();
        let a: BTreeSet<String> = p.iter().map(|r| r.to_string()).collect();
        let b: BTreeSet<String> = reparsed.iter().map(|r| r.to_string()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sections_present() {
        let p = parse_program("p :- q. q.").unwrap();
        let src = program_to_source(&p);
        assert!(src.contains("% rules"));
        assert!(src.contains("% facts"));
    }
}
