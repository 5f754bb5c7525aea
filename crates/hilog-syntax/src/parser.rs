//! Recursive-descent parser for the concrete HiLog syntax.
//!
//! Grammar (informally):
//!
//! ```text
//! program  := clause*
//! clause   := term ( ":-" body )? "."           (a rule or fact)
//!           | "?-" body "."                      (a query)
//! body     := literal ("," literal)*
//! literal  := "not" term
//!           | expr ( ("is"|"="|"\="|"=:="|"=\="|"<"|"<="|">"|">=") expr )?
//! expr     := arithmetic expression over terms with +, -, *, /, div, mod
//! term     := primary ("(" args ")")*            (curried HiLog application)
//! primary  := VARIABLE | SYMBOL | INTEGER | "(" expr ")" | list
//! list     := "[" "]" | "[" expr ("," expr)* ("|" expr)? "]"
//! ```
//!
//! `X = sum(V, Pattern)` (and `count` / `min` / `max`) in a body parses as an
//! aggregation literal rather than a unification builtin.
//!
//! The text is untrusted, and the parser, `Display` and evaluation all
//! recurse over a term's nesting, so no term may nest deeper than
//! [`MAX_TERM_DEPTH`] levels.
//!
//! The parser holds one token at a time, lexed from the caller's text when
//! the parse reaches it, and every entry point parses that text as given,
//! so an error's position is a position in it.  A query's `?-` and a
//! query's or rule's final `.` are optional.

use crate::lexer::{Lexer, Spanned, Token};
use hilog_core::{
    Aggregate, AggregateFunc, BuiltinCall, BuiltinOp, Literal, Program, Query, Rule, Substitution,
    Term, Var,
};
use std::fmt;

/// The deepest nesting a parsed term may have.  Every application (an
/// argument list, or an arithmetic operator), parenthesis, prefix minus and
/// list cell is one level, so a list may hold at most this many elements.
/// A term at the bound goes through parse, `Display`, a query and drop on a
/// 2 MiB thread stack in a debug build, with margin.
pub const MAX_TERM_DEPTH: usize = 256;

/// A term and the levels it nests, as [`MAX_TERM_DEPTH`] counts them.
type Nested = (Term, usize);

/// A lexical or parse error, at a position in the text that was parsed.
///
/// An error at a token is reported at the token's first character; an
/// input that ends too early, at its last token (or, when it holds none, at
/// its end).  Of two errors in one text, the first in text order is
/// reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human readable message.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column, counted in characters.
    pub column: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// A top-level clause: either a rule/fact or a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// A rule or fact.
    Rule(Rule),
    /// A query.
    Query(Query),
}

/// A recursive-descent parser over a [`Lexer`]: it holds the token it looks
/// at, and lexes the one after only when the parse reaches it.
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The next token, once looked at.
    peeked: Option<Spanned<'a>>,
    /// Where the last token taken starts.
    last: Option<(usize, usize)>,
    /// The lexer's error at the next token.  The parse sees the input end
    /// there, and this is the error it reports: nothing after it was read.
    lex_error: Option<ParseError>,
    /// The anonymous variables of the clause being parsed.
    anonymous: u32,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            lexer: Lexer::new(input),
            peeked: None,
            last: None,
            lex_error: None,
            anonymous: 0,
        }
    }

    fn peek(&mut self) -> Option<&Token<'a>> {
        if self.peeked.is_none() && self.lex_error.is_none() {
            match self.lexer.next_token() {
                Ok(next) => self.peeked = next,
                Err(e) => self.lex_error = Some(e),
            }
        }
        self.peeked.as_ref().map(|s| &s.token)
    }

    fn next(&mut self) -> Option<Spanned<'a>> {
        self.peek();
        let next = self.peeked.take();
        if let Some(s) = &next {
            self.last = Some((s.line, s.column));
        }
        next
    }

    /// Takes the next token if it is `expected`.
    fn eat(&mut self, expected: &Token) -> bool {
        let found = self.peek() == Some(expected);
        if found {
            self.next();
        }
        found
    }

    /// An error at the next token, at the last one when the input is used
    /// up, or at the end of an input with no token.  A lexical error at the
    /// next token is the error.
    fn error_here(&mut self, message: impl Into<String>) -> ParseError {
        self.peek();
        if let Some(e) = &self.lex_error {
            return e.clone();
        }
        let (line, column) = match &self.peeked {
            Some(s) => (s.line, s.column),
            None => self.last.unwrap_or_else(|| self.lexer.position()),
        };
        ParseError {
            message: message.into(),
            line,
            column,
        }
    }

    /// "expected `what`, found" the next token, or the end of input.
    fn expected(&mut self, what: &str) -> ParseError {
        let found = match self.peek() {
            Some(t) => format!("`{t}`"),
            None => "end of input".to_string(),
        };
        self.error_here(format!("expected {what}, found {found}"))
    }

    fn expect(&mut self, expected: &Token) -> Result<(), ParseError> {
        if self.eat(expected) {
            return Ok(());
        }
        Err(self.expected(&format!("`{expected}`")))
    }

    /// Whether the input is used up; the lexer's error if it stopped short
    /// of the end.
    fn end(&mut self) -> Result<bool, ParseError> {
        match (self.peek().is_none(), &self.lex_error) {
            (true, Some(e)) => Err(e.clone()),
            (at_end, _) => Ok(at_end),
        }
    }

    /// The error `message` unless the input is used up.
    fn finish(&mut self, message: &str) -> Result<(), ParseError> {
        if self.end()? {
            return Ok(());
        }
        Err(self.error_here(message))
    }

    /// A stand-in for the clause's next anonymous variable: a variable no
    /// text spells, named once the clause is parsed.
    fn fresh_anon(&mut self) -> Term {
        self.anonymous += 1;
        Term::Var(Var::new("_").with_generation(self.anonymous))
    }

    /// Names the clause's anonymous variables `_Anon1`, `_Anon2`, … in
    /// order, skipping every name the clause spells, so that none joins a
    /// named variable.  `vars` are the clause's variables.
    fn name_anonymous(&mut self, vars: &[Var]) -> Substitution {
        self.anonymous = 0;
        let names = (1..)
            .map(|n| Var::new(format!("_Anon{n}")))
            .filter(|name| !vars.contains(name));
        (vars.iter().filter(|v| v.generation() > 0).zip(names))
            .map(|(anonymous, name)| (anonymous.clone(), Term::Var(name)))
            .collect()
    }

    // ---- terms and arithmetic expressions -------------------------------
    //
    // Each parser takes `room`, the levels still free above it, and returns
    // the levels its term nests: a nested parse gets one level less, and a
    // term built level by level (an application chain, an operator chain, a
    // list) is checked as each level lands.

    /// `depth` if it fits in `room`, an error naming the bound otherwise.
    fn within(&mut self, depth: usize, room: usize) -> Result<usize, ParseError> {
        if depth > room {
            return Err(self.error_here(format!(
                "term nests deeper than the {MAX_TERM_DEPTH} levels allowed"
            )));
        }
        Ok(depth)
    }

    /// The room left one level down.
    fn descend(&mut self, room: usize) -> Result<usize, ParseError> {
        Ok(room - self.within(1, room)?)
    }

    fn parse_primary(&mut self, room: usize) -> Result<Nested, ParseError> {
        let Some(next) = self.next() else {
            return Err(self.expected("a term"));
        };
        match next.token {
            Token::Symbol(s) => Ok((Term::sym(s), 0)),
            Token::Variable("_") => Ok((self.fresh_anon(), 0)),
            Token::Variable(v) => Ok((Term::var(v), 0)),
            Token::Integer(i) => Ok((Term::int(i), 0)),
            Token::Minus => {
                // Negative number literal or arithmetic negation.
                let inner = self.descend(room)?;
                let (inner, depth) = self.parse_primary_with_apps(inner)?;
                let negated = match inner {
                    Term::Int(i) => Term::int(-i),
                    other => Term::apps("-", vec![other]),
                };
                Ok((negated, depth + 1))
            }
            Token::LParen => {
                let inner = self.descend(room)?;
                let (t, depth) = self.parse_expr(inner)?;
                self.expect(&Token::RParen)?;
                Ok((t, depth + 1))
            }
            Token::LBracket => self.parse_list(room),
            other => Err(ParseError {
                message: format!("expected a term, found `{other}`"),
                line: next.line,
                column: next.column,
            }),
        }
    }

    fn parse_list(&mut self, room: usize) -> Result<Nested, ParseError> {
        if self.eat(&Token::RBracket) {
            return Ok((Term::nil(), 0));
        }
        let inner = self.descend(room)?;
        let mut elements = vec![self.parse_expr(inner)?];
        while self.eat(&Token::Comma) {
            self.within(elements.len() + 1, room)?;
            elements.push(self.parse_expr(inner)?);
        }
        let tail = if self.eat(&Token::Pipe) {
            self.parse_expr(inner)?
        } else {
            (Term::nil(), 0)
        };
        self.expect(&Token::RBracket)?;
        let (mut acc, mut depth) = tail;
        for (e, d) in elements.into_iter().rev() {
            acc = Term::cons(e, acc);
            depth = self.within(depth.max(d) + 1, room)?;
        }
        Ok((acc, depth))
    }

    /// A primary followed by any number of argument lists (curried HiLog
    /// application): `tc(G)(X, Y)` parses as `(tc applied to G) applied to X, Y`.
    fn parse_primary_with_apps(&mut self, room: usize) -> Result<Nested, ParseError> {
        let (mut term, mut depth) = self.parse_primary(room)?;
        while self.eat(&Token::LParen) {
            let inner = self.descend(room)?;
            let mut args = Vec::new();
            if self.peek() != Some(&Token::RParen) {
                loop {
                    let (arg, d) = self.parse_expr(inner)?;
                    args.push(arg);
                    depth = depth.max(d);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen)?;
            term = Term::app(term, args);
            depth = self.within(depth + 1, room)?;
        }
        Ok((term, depth))
    }

    /// One level of left-associative binary operators over `operand`.
    fn parse_binary(
        &mut self,
        room: usize,
        operator: fn(Option<&Token>) -> Option<&'static str>,
        operand: fn(&mut Self, usize) -> Result<Nested, ParseError>,
    ) -> Result<Nested, ParseError> {
        let (mut left, mut depth) = operand(self, room)?;
        while let Some(op) = operator(self.peek()) {
            self.next();
            let inner = self.descend(room)?;
            let (right, d) = operand(self, inner)?;
            left = Term::apps(op, vec![left, right]);
            depth = self.within(depth.max(d) + 1, room)?;
        }
        Ok((left, depth))
    }

    /// Multiplicative level of arithmetic expressions.
    fn parse_factor(&mut self, room: usize) -> Result<Nested, ParseError> {
        self.parse_binary(
            room,
            |token| match token {
                Some(Token::Star) => Some("*"),
                Some(Token::Slash | Token::Div) => Some("div"),
                Some(Token::Mod) => Some("mod"),
                _ => None,
            },
            Self::parse_primary_with_apps,
        )
    }

    /// Additive level of arithmetic expressions.
    fn parse_expr(&mut self, room: usize) -> Result<Nested, ParseError> {
        self.parse_binary(
            room,
            |token| match token {
                Some(Token::Plus) => Some("+"),
                Some(Token::Minus) => Some("-"),
                _ => None,
            },
            Self::parse_factor,
        )
    }

    // ---- literals, rules, queries ---------------------------------------

    fn parse_literal(&mut self) -> Result<Literal, ParseError> {
        if self.eat(&Token::Not) {
            let atom = self.parse_primary_with_apps(MAX_TERM_DEPTH)?.0;
            return Ok(Literal::Neg(atom));
        }
        let left = self.parse_expr(MAX_TERM_DEPTH)?.0;
        let op = match self.peek() {
            Some(Token::Is) => BuiltinOp::Is,
            Some(Token::Eq) => BuiltinOp::Eq,
            Some(Token::Neq) => BuiltinOp::Neq,
            Some(Token::ArithEq) => BuiltinOp::ArithEq,
            Some(Token::ArithNeq) => BuiltinOp::ArithNeq,
            Some(Token::Lt) => BuiltinOp::Lt,
            Some(Token::Le) => BuiltinOp::Le,
            Some(Token::Gt) => BuiltinOp::Gt,
            Some(Token::Ge) => BuiltinOp::Ge,
            _ => return Ok(Literal::Pos(left)),
        };
        self.next();
        let right = self.parse_expr(MAX_TERM_DEPTH)?.0;
        // `X = sum(V, Pattern)` is an aggregation literal.
        if op == BuiltinOp::Eq {
            if let Some(agg) = as_aggregate(&left, &right) {
                return Ok(Literal::Aggregate(agg));
            }
        }
        Ok(Literal::Builtin(BuiltinCall::new(op, left, right)))
    }

    fn parse_body(&mut self) -> Result<Vec<Literal>, ParseError> {
        let mut body = vec![self.parse_literal()?];
        while self.eat(&Token::Comma) {
            body.push(self.parse_literal()?);
        }
        Ok(body)
    }

    /// The `.` that ends a clause; at the end of the input it may be left
    /// out when `optional`.
    fn end_clause(&mut self, optional: bool) -> Result<(), ParseError> {
        if self.eat(&Token::Dot) || (optional && self.peek().is_none()) {
            return Ok(());
        }
        Err(self.expected("`.`"))
    }

    /// A query after its `?-`.
    fn parse_query(&mut self, dot_optional: bool) -> Result<Query, ParseError> {
        let mut query = Query::new(self.parse_body()?);
        self.end_clause(dot_optional)?;
        if self.anonymous > 0 {
            let theta = self.name_anonymous(&query.variables());
            query = Query::new(query.literals.iter().map(|l| l.apply(&theta)).collect());
        }
        Ok(query)
    }

    fn parse_rule(&mut self, dot_optional: bool) -> Result<Rule, ParseError> {
        let head = self.parse_primary_with_apps(MAX_TERM_DEPTH)?.0;
        let rule = if self.eat(&Token::Arrow) {
            let body = self.parse_body()?;
            self.end_clause(dot_optional)?;
            Rule::new(head, body)
        } else if self.eat(&Token::Dot) || (dot_optional && self.peek().is_none()) {
            Rule::fact(head)
        } else {
            return Err(self.expected("`.` or `:-` after rule head"));
        };
        if self.anonymous > 0 {
            return Ok(rule.apply(&self.name_anonymous(&rule.variables())));
        }
        Ok(rule)
    }
}

/// Recognises `Result = func(Value, Pattern)` aggregations.
fn as_aggregate(result: &Term, right: &Term) -> Option<Aggregate> {
    if let Term::App(name, args) = right {
        if args.len() == 2 {
            if let Term::Sym(s) = &**name {
                let func = match s.name() {
                    "sum" => AggregateFunc::Sum,
                    "count" => AggregateFunc::Count,
                    "min" => AggregateFunc::Min,
                    "max" => AggregateFunc::Max,
                    _ => return None,
                };
                return Some(Aggregate::new(
                    func,
                    result.clone(),
                    args[0].clone(),
                    args[1].clone(),
                ));
            }
        }
    }
    None
}

/// Parses a whole program (rules and facts), each clause going into the
/// program as it is parsed.  Queries are rejected; use [`parse_clauses`]
/// or [`parse_query`] for query text.
pub fn parse_program(input: &str) -> Result<Program, ParseError> {
    let mut parser = Parser::new(input);
    let mut program = Program::new();
    while !parser.end()? {
        if parser.peek() == Some(&Token::QueryArrow) {
            return Err(parser
                .error_here("queries (`?- ...`) are not allowed in a program; use parse_query"));
        }
        program.push(parser.parse_rule(false)?);
    }
    Ok(program)
}

/// Parses a mixed sequence of rules and queries.
pub fn parse_clauses(input: &str) -> Result<Vec<Clause>, ParseError> {
    let mut parser = Parser::new(input);
    let mut clauses = Vec::new();
    while !parser.end()? {
        clauses.push(if parser.eat(&Token::QueryArrow) {
            Clause::Query(parser.parse_query(false)?)
        } else {
            Clause::Rule(parser.parse_rule(false)?)
        });
    }
    Ok(clauses)
}

/// Parses a single query.  The leading `?-` and trailing `.` are optional.
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let mut parser = Parser::new(input);
    parser.eat(&Token::QueryArrow);
    let query = parser.parse_query(true)?;
    parser.finish("expected exactly one query")?;
    Ok(query)
}

/// Parses a single rule or fact.  The trailing `.` is optional.
pub fn parse_rule(input: &str) -> Result<Rule, ParseError> {
    let mut parser = Parser::new(input);
    if matches!(parser.peek(), None | Some(Token::QueryArrow)) {
        return Err(parser.error_here("expected exactly one rule"));
    }
    let rule = parser.parse_rule(true)?;
    parser.finish("expected exactly one rule")?;
    Ok(rule)
}

/// Parses a single term (no trailing dot).
pub fn parse_term(input: &str) -> Result<Term, ParseError> {
    let mut parser = Parser::new(input);
    let term = parser.parse_expr(MAX_TERM_DEPTH)?.0;
    parser.finish("unexpected trailing tokens after term")?;
    if parser.anonymous > 0 {
        return Ok(parser.name_anonymous(&term.variables()).apply(&term));
    }
    Ok(term)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_generic_transitive_closure() {
        // Example 2.1.
        let p = parse_program(
            "tc(G)(X, Y) :- G(X, Y).\n\
             tc(G)(X, Y) :- G(X, Z), tc(G)(Z, Y).",
        )
        .unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.rules[0].to_string(), "tc(G)(X, Y) :- G(X, Y).");
        assert_eq!(
            p.rules[1].to_string(),
            "tc(G)(X, Y) :- G(X, Z), tc(G)(Z, Y)."
        );
    }

    #[test]
    fn parse_maplist_with_lists() {
        // Example 2.2.
        let p = parse_program(
            "maplist(F)([], []).\n\
             maplist(F)([X | R], [Y | Z]) :- F(X, Y), maplist(F)(R, Z).",
        )
        .unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.rules[0].head.to_string().contains("maplist(F)(nil, nil)"));
        assert_eq!(
            p.rules[1].to_string(),
            "maplist(F)([X | R], [Y | Z]) :- F(X, Y), maplist(F)(R, Z)."
        );
    }

    #[test]
    fn parse_win_move_with_negation() {
        let p = parse_program("winning(X) :- move(X, Y), not winning(Y).").unwrap();
        assert!(p.rules[0].has_negation());
        assert_eq!(
            p.rules[0].to_string(),
            "winning(X) :- move(X, Y), not winning(Y)."
        );
    }

    #[test]
    fn parse_hilog_game_program_example_6_3() {
        let p = parse_program(
            "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
             game(move1).\n\
             game(move2).\n\
             move1(a, b).",
        )
        .unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(
            p.rules[0].to_string(),
            "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y)."
        );
    }

    #[test]
    fn parse_builtins_and_arithmetic() {
        let r = parse_rule("in(M, X, Y, Z, N) :- q(M, X, P), contains(M, Z, Y, K), N is P * K.")
            .unwrap();
        assert_eq!(r.body.len(), 3);
        assert!(matches!(r.body[2], Literal::Builtin(_)));
        assert_eq!(r.body[2].to_string(), "N is '*'(P, K)");
        let r2 = parse_rule("p(X) :- q(X, N), N >= 2 + 3 * 4.").unwrap();
        assert_eq!(r2.body[1].to_string(), "N >= '+'(2, '*'(3, 4))");
    }

    #[test]
    fn parse_aggregate_literal() {
        let r = parse_rule("contains(M, X, Y, N) :- N = sum(P, in(M, X, Y, _, P)).").unwrap();
        assert_eq!(r.body.len(), 1);
        match &r.body[0] {
            Literal::Aggregate(a) => {
                assert_eq!(a.func, AggregateFunc::Sum);
                assert_eq!(a.result.to_string(), "N");
                assert_eq!(a.value.to_string(), "P");
                assert!(a.pattern.to_string().starts_with("in(M, X, Y, _Anon"));
            }
            other => panic!("expected aggregate, got {other}"),
        }
        // Plain unification is still a builtin.
        let r2 = parse_rule("p(X) :- X = f(a).").unwrap();
        assert!(matches!(r2.body[0], Literal::Builtin(_)));
    }

    #[test]
    fn parse_query_forms() {
        let q1 = parse_query("?- winning(move1)(a).").unwrap();
        assert_eq!(q1.literals.len(), 1);
        let q2 = parse_query("graph(G), tc(G)(X, Y)").unwrap();
        assert_eq!(q2.literals.len(), 2);
        assert_eq!(q2.variables().len(), 3);
    }

    #[test]
    fn parse_facts_and_zero_ary() {
        let p = parse_program("s. p(). q(a).").unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.rules[0].head, Term::sym("s"));
        assert_eq!(p.rules[1].head, Term::apps("p", vec![]));
    }

    #[test]
    fn parse_negative_integers_and_quotes() {
        let t = parse_term("part('Front Wheel', -3)").unwrap();
        assert_eq!(t.args()[1], Term::int(-3));
        assert_eq!(t.args()[0], Term::sym("Front Wheel"));
    }

    #[test]
    fn parenthesised_terms_as_names() {
        // (X)(a) applies a variable name to an argument.
        let t = parse_term("(X)(a)").unwrap();
        assert_eq!(t.to_string(), "X(a)");
        let nested = parse_term("p(a, X)(Y)(b, f(c)(d))").unwrap();
        assert_eq!(nested.to_string(), "p(a, X)(Y)(b, f(c)(d))");
    }

    #[test]
    fn parse_errors_are_reported_with_position() {
        assert!(parse_program("p :- q").is_err());
        assert!(parse_program("p ::- q.").is_err());
        assert!(parse_program(")p.").is_err());
        assert!(parse_term("p(").is_err());
        assert!(parse_term("p(a) extra").is_err());
        let err = parse_program("p.\nq :- .").unwrap_err();
        assert_eq!(err.line, 2);
    }

    fn error_at(result: Result<impl fmt::Debug, ParseError>) -> (usize, usize, String) {
        let e = result.unwrap_err();
        (e.line, e.column, e.message)
    }

    #[test]
    fn errors_are_positioned_in_the_callers_text() {
        // An input that ends too early errs at its last token, with or
        // without the `?-` the caller may leave out.
        let eoi = "expected `)`, found end of input".to_string();
        assert_eq!(error_at(parse_query("p(X")), (1, 3, eoi.clone()));
        assert_eq!(error_at(parse_query("?- p(X")), (1, 6, eoi.clone()));
        assert_eq!(error_at(parse_rule("p(X) :- q(X")), (1, 11, eoi));
        assert_eq!(
            error_at(parse_query("winning(X), $")),
            (1, 13, "unexpected character `$`".into())
        );
        assert_eq!(
            error_at(parse_query("p. q")),
            (1, 4, "expected exactly one query".into())
        );
        assert_eq!(
            error_at(parse_rule("p. q.")),
            (1, 4, "expected exactly one rule".into())
        );
        assert_eq!(
            error_at(parse_program("p.\n  ?- p.")),
            (
                2,
                3,
                "queries (`?- ...`) are not allowed in a program; use parse_query".into()
            )
        );
        // Columns count characters, not bytes.
        assert_eq!(error_at(parse_term("'λ' $")).1, 5);
    }

    #[test]
    fn an_input_without_a_token_errs_at_its_end() {
        let message = "expected a term, found end of input".to_string();
        assert_eq!(error_at(parse_term("")), (1, 1, message.clone()));
        assert_eq!(error_at(parse_term(" % c\n ")), (2, 2, message));
        assert_eq!(error_at(parse_rule("")).2, "expected exactly one rule");
    }

    #[test]
    fn the_first_error_in_the_text_is_reported() {
        // A parse error before a lexical one wins ...
        assert_eq!(
            error_at(parse_program("p :- .\nq $ r.")),
            (1, 6, "expected a term, found `.`".into())
        );
        // ... and a lexical error before a parse error.
        assert_eq!(
            error_at(parse_program("p $ :- .")),
            (1, 3, "unexpected character `$`".into())
        );
        // A text that parses up to a lexical error does not parse.
        assert!(parse_term("p $").is_err());
        assert!(parse_program("p. q. #").is_err());
        assert!(parse_query("p, q #").is_err());
    }

    #[test]
    fn the_final_dot_of_a_query_or_rule_is_optional() {
        assert_eq!(
            parse_query("?- p(X)").unwrap(),
            parse_query("p(X).").unwrap()
        );
        assert_eq!(
            parse_query("% why\n?- p").unwrap(),
            parse_query("p").unwrap()
        );
        assert_eq!(
            parse_rule("p :- q").unwrap(),
            parse_rule("p :- q.").unwrap()
        );
        assert_eq!(parse_rule(" p ").unwrap(), Rule::fact(Term::sym("p")));
        // Only one: a second `.` is not part of the clause.
        assert!(parse_query("p..").is_err());
        assert!(parse_rule("p :- q..").is_err());
        // A program's clauses each need theirs.
        assert!(parse_program("p :- q").is_err());
    }

    /// One text per way a term nests, `levels` deep.
    fn nested_texts(levels: usize) -> [String; 6] {
        [
            format!("{}a{}", "f(".repeat(levels), ")".repeat(levels)),
            format!("{}a{}", "(".repeat(levels), ")".repeat(levels)),
            format!("{}a", "- ".repeat(levels)),
            format!("[{}]", vec!["a"; levels].join(", ")),
            format!("f{}", "(a)".repeat(levels)),
            vec!["a"; levels + 1].join(" + "),
        ]
    }

    #[test]
    fn terms_nest_up_to_the_bound_on_a_small_stack() {
        // A connection thread's stack: a term at the bound parses, prints
        // and drops there, and anything deeper is refused before it is
        // built, however deep the text goes.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                for text in nested_texts(MAX_TERM_DEPTH) {
                    let term = parse_term(&text).unwrap_or_else(|e| panic!("{e}: {text:.40}"));
                    assert!(!term.to_string().is_empty());
                }
                // `p(...)` is one more level.
                for text in nested_texts(MAX_TERM_DEPTH - 1) {
                    let rule = parse_rule(&format!("p({text}) :- q({text}).")).unwrap();
                    assert!(!rule.to_string().is_empty());
                }
                for levels in [MAX_TERM_DEPTH + 1, 100_000] {
                    for text in nested_texts(levels) {
                        let err = parse_term(&text).unwrap_err();
                        assert!(
                            err.message.contains(&MAX_TERM_DEPTH.to_string()),
                            "{err}: {text:.40}"
                        );
                        assert!(parse_query(&format!("?- p({text}).")).is_err());
                    }
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn queries_rejected_in_programs() {
        assert!(parse_program("?- p.").is_err());
        let clauses = parse_clauses("p. ?- p.").unwrap();
        assert_eq!(clauses.len(), 2);
        assert!(matches!(clauses[1], Clause::Query(_)));
    }

    #[test]
    fn roundtrip_through_display() {
        let text = "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).\n\
                    tc(G)(X, Y) :- G(X, Z), tc(G)(Z, Y).\n\
                    move(a, b).\n";
        let p = parse_program(text).unwrap();
        let printed = p.to_string();
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(p, reparsed);
    }

    #[test]
    fn anonymous_variables_are_distinct() {
        let r = parse_rule("p(X) :- q(_, _), r(X).").unwrap();
        // The two `_` occurrences become different variables.
        let vars = r.variables();
        assert_eq!(vars.len(), 3);
    }

    #[test]
    fn an_anonymous_variable_joins_no_named_one() {
        // The clause spells `_Anon1`, so its `_` takes the next name.
        for (text, printed, vars) in [
            (
                "p(_Anon1, _) :- q(_Anon1).",
                "p(_Anon1, _Anon2) :- q(_Anon1).",
                2,
            ),
            (
                "p(_, _Anon1) :- q(_Anon1).",
                "p(_Anon2, _Anon1) :- q(_Anon1).",
                2,
            ),
            (
                "p(_, _Anon2, _) :- q(_Anon2).",
                "p(_Anon1, _Anon2, _Anon3) :- q(_Anon2).",
                3,
            ),
        ] {
            let rule = parse_rule(text).unwrap();
            assert_eq!(rule.to_string(), printed);
            assert_eq!(rule.variables().len(), vars, "{text}");
            assert_eq!(parse_rule(printed).unwrap(), rule);
        }
        // Each clause names its own, and a query and a term theirs.
        let program = parse_program("p(_). q(_Anon1, _).").unwrap();
        assert_eq!(program.to_string(), "p(_Anon1).\nq(_Anon1, _Anon2).\n");
        let query = parse_query("?- p(_, _Anon1).").unwrap();
        assert_eq!(query.to_string(), "?- p(_Anon2, _Anon1).");
        assert_eq!(
            parse_term("f(_Anon1, _)").unwrap().to_string(),
            "f(_Anon1, _Anon2)"
        );
    }

    #[test]
    fn example_5_1_program_parses() {
        // p :- X(Y), Y(X).
        let p = parse_program("p :- X(Y), Y(X).").unwrap();
        assert_eq!(p.rules[0].to_string(), "p :- X(Y), Y(X).");
    }

    #[test]
    fn example_6_4_program_parses() {
        let p = parse_program(
            "p(X) :- t(X, Y, Z, P), not p(Y), not p(Z).\n\
             t(a, b, a, p).\n\
             t(c, a, b, p).\n\
             p(b) :- t(X, Y, b, P).",
        )
        .unwrap();
        assert_eq!(p.len(), 4);
    }
}
