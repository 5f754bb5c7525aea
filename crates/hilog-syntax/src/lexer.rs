//! Tokeniser for the concrete HiLog syntax.
//!
//! The syntax is Prolog-like.  Variables start with an upper-case letter or
//! `_`; symbols are lower-case identifiers or quoted atoms; `:-` separates a
//! rule head from its body; `?-` introduces a query; `not` negates a body
//! literal; `%` starts a line comment.
//!
//! The [`Lexer`] reads one token at a time straight off the input's bytes,
//! so a parse holds the input plus one token, never a copy of the input or a
//! token list.  A token's text is a slice of the input; only a quoted atom
//! that contains `\'` owns its (unescaped) text.  Positions are 1-based and
//! count characters, not bytes.

use crate::parser::ParseError;
use std::borrow::Cow;
use std::fmt;

/// A lexical token, its text borrowed from the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Token<'a> {
    /// A symbol (lower-case identifier or quoted atom).
    Symbol(Cow<'a, str>),
    /// A variable (upper-case identifier); `_` becomes an anonymous variable.
    Variable(&'a str),
    /// An integer literal.
    Integer(i64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `|`
    Pipe,
    /// `.` (clause terminator)
    Dot,
    /// `:-`
    Arrow,
    /// `?-`
    QueryArrow,
    /// `not` keyword (also accepts `\+`).
    Not,
    /// `is`
    Is,
    /// `=`
    Eq,
    /// `\=`
    Neq,
    /// `=:=`
    ArithEq,
    /// `=\=`
    ArithNeq,
    /// `<`
    Lt,
    /// `<=` (also accepts `=<`)
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `mod`
    Mod,
    /// `div`
    Div,
}

/// The punctuation and operators, the most frequent first, and each
/// spelling before the shorter ones it starts with.
const PUNCTUATION: &[(&str, Token<'static>)] = &[
    ("(", Token::LParen),
    (")", Token::RParen),
    (",", Token::Comma),
    (".", Token::Dot),
    ("[", Token::LBracket),
    ("]", Token::RBracket),
    ("|", Token::Pipe),
    (":-", Token::Arrow),
    ("?-", Token::QueryArrow),
    ("\\=", Token::Neq),
    ("\\+", Token::Not),
    ("=:=", Token::ArithEq),
    ("=\\=", Token::ArithNeq),
    ("=<", Token::Le),
    ("<=", Token::Le),
    (">=", Token::Ge),
    ("=", Token::Eq),
    ("<", Token::Lt),
    (">", Token::Gt),
    ("+", Token::Plus),
    ("-", Token::Minus),
    ("*", Token::Star),
    ("/", Token::Slash),
];

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Symbol(s) => write!(f, "{s}"),
            Token::Variable(v) => write!(f, "{v}"),
            Token::Integer(i) => write!(f, "{i}"),
            Token::Not => write!(f, "not"),
            Token::Is => write!(f, "is"),
            Token::Mod => write!(f, "mod"),
            Token::Div => write!(f, "div"),
            Token::Le => write!(f, "<="),
            punctuation => {
                let (text, _) = PUNCTUATION
                    .iter()
                    .find(|(_, token)| token == punctuation)
                    .expect("every other token is punctuation");
                write!(f, "{text}")
            }
        }
    }
}

/// A token together with its source position (1-based line and column).
#[derive(Debug)]
pub(crate) struct Spanned<'a> {
    /// The token.
    pub(crate) token: Token<'a>,
    /// 1-based line.
    pub(crate) line: usize,
    /// 1-based column.
    pub(crate) column: usize,
}

/// A cursor over the input that yields one token at a time.
pub(crate) struct Lexer<'a> {
    input: &'a str,
    /// Byte offset of the next unread byte.
    pos: usize,
    line: usize,
    column: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Lexer {
            input,
            pos: 0,
            line: 1,
            column: 1,
        }
    }

    /// The position of the next unread character: past the last token, the
    /// end of the input.
    pub(crate) fn position(&self) -> (usize, usize) {
        (self.line, self.column)
    }

    fn rest(&self) -> &'a [u8] {
        &self.input.as_bytes()[self.pos..]
    }

    /// Moves past `len` bytes, counting lines and characters.
    fn advance(&mut self, len: usize) {
        for &b in &self.rest()[..len] {
            if b == b'\n' {
                self.line += 1;
                self.column = 1;
            } else if b & 0xC0 != 0x80 {
                // Not a UTF-8 continuation byte: a character starts here.
                self.column += 1;
            }
        }
        self.pos += len;
    }

    /// The text from the cursor while `keep` holds of its bytes.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        let len = self.rest().iter().take_while(|&&b| keep(b)).count();
        self.advance(len);
        &self.input[start..start + len]
    }

    /// The next token, or `None` at the end of the input.
    pub(crate) fn next_token(&mut self) -> Result<Option<Spanned<'a>>, ParseError> {
        loop {
            match self.rest().first() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => self.advance(1),
                Some(b'%') => {
                    self.take_while(|b| b != b'\n');
                }
                _ => break,
            }
        }
        let (line, column) = self.position();
        let error = |message: String| ParseError {
            message,
            line,
            column,
        };
        let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
        let token = match self.rest().first() {
            None => return Ok(None),
            Some(b'\'') => self
                .quoted()
                .ok_or_else(|| error("unterminated quoted symbol".into()))?,
            Some(b'0'..=b'9') => {
                let text = self.take_while(|b| b.is_ascii_digit());
                let value = text
                    .parse()
                    .map_err(|_| error(format!("integer literal `{text}` out of range")))?;
                Token::Integer(value)
            }
            Some(b'a'..=b'z') => match self.take_while(word) {
                "not" => Token::Not,
                "is" => Token::Is,
                "mod" => Token::Mod,
                "div" => Token::Div,
                text => Token::Symbol(Cow::Borrowed(text)),
            },
            Some(b'A'..=b'Z' | b'_') => Token::Variable(self.take_while(word)),
            Some(_) => {
                let rest = self.rest();
                let Some((text, token)) = PUNCTUATION
                    .iter()
                    .find(|(text, _)| rest.starts_with(text.as_bytes()))
                else {
                    return Err(error(match rest[0] {
                        b':' => "expected `:-`".into(),
                        b'?' => "expected `?-`".into(),
                        b'\\' => "expected `\\=` or `\\+`".into(),
                        _ => {
                            let c = self.input[self.pos..].chars().next();
                            format!("unexpected character `{}`", c.unwrap_or_default())
                        }
                    }));
                };
                self.advance(text.len());
                token.clone()
            }
        };
        Ok(Some(Spanned {
            token,
            line,
            column,
        }))
    }

    /// A quoted atom from its opening quote, or `None` if it is never
    /// closed.  `\'` stands for a quote inside it.
    fn quoted(&mut self) -> Option<Token<'a>> {
        let rest = &self.rest()[1..];
        let mut len = 0;
        let mut escaped = false;
        loop {
            match rest.get(len)? {
                b'\\' if rest.get(len + 1) == Some(&b'\'') => {
                    escaped = true;
                    len += 2;
                }
                b'\'' => break,
                _ => len += 1,
            }
        }
        let raw = &self.input[self.pos + 1..self.pos + 1 + len];
        self.advance(len + 2);
        Some(Token::Symbol(if escaped {
            Cow::Owned(raw.replace("\\'", "'"))
        } else {
            Cow::Borrowed(raw)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(input: &str) -> Result<Vec<Spanned<'_>>, ParseError> {
        let mut lexer = Lexer::new(input);
        let mut tokens = Vec::new();
        while let Some(token) = lexer.next_token()? {
            tokens.push(token);
        }
        Ok(tokens)
    }

    fn toks(input: &str) -> Vec<Token<'_>> {
        lex(input).unwrap().into_iter().map(|s| s.token).collect()
    }

    fn sym(text: &str) -> Token<'_> {
        Token::Symbol(Cow::Borrowed(text))
    }

    #[test]
    fn simple_rule_tokens() {
        let t = toks("winning(X) :- move(X, Y), not winning(Y).");
        assert_eq!(
            t,
            vec![
                sym("winning"),
                Token::LParen,
                Token::Variable("X"),
                Token::RParen,
                Token::Arrow,
                sym("move"),
                Token::LParen,
                Token::Variable("X"),
                Token::Comma,
                Token::Variable("Y"),
                Token::RParen,
                Token::Comma,
                Token::Not,
                sym("winning"),
                Token::LParen,
                Token::Variable("Y"),
                Token::RParen,
                Token::Dot,
            ]
        );
    }

    #[test]
    fn operators_and_numbers() {
        let t = toks("N is P * M, A =:= 3, B =\\= 4, C <= 5, D >= 6, E \\= f, G = 7.");
        assert!(t.contains(&Token::Is));
        assert!(t.contains(&Token::Star));
        assert!(t.contains(&Token::ArithEq));
        assert!(t.contains(&Token::ArithNeq));
        assert!(t.contains(&Token::Le));
        assert!(t.contains(&Token::Ge));
        assert!(t.contains(&Token::Neq));
        assert!(t.contains(&Token::Eq));
        assert!(t.contains(&Token::Integer(7)));
    }

    #[test]
    fn every_token_prints_as_it_is_spelled() {
        let text =
            "a 'b c' X 7 ( ) [ ] , | . :- ?- not is = \\= =:= =\\= < <= > >= + - * / mod div";
        let printed: Vec<String> = toks(text).iter().map(Token::to_string).collect();
        assert_eq!(printed.join(" "), text.replace("'b c'", "b c"));
        assert_eq!(toks("\\+")[0].to_string(), "not");
        assert_eq!(toks("=<")[0].to_string(), "<=");
    }

    #[test]
    fn prolog_style_le() {
        assert_eq!(toks("X =< 3")[1], Token::Le);
        assert_eq!(toks("X <= 3")[1], Token::Le);
    }

    #[test]
    fn comments_and_whitespace_are_skipped() {
        let t = toks("% header comment\n  p. % trailing\nq.\n");
        assert_eq!(t, vec![sym("p"), Token::Dot, sym("q"), Token::Dot]);
    }

    #[test]
    fn quoted_symbols() {
        let t = toks("p('Hello world', 'it\\'s').");
        assert_eq!(t[2], sym("Hello world"));
        assert_eq!(t[4], sym("it's"));
        // Only an escape makes a token own its text.
        assert!(matches!(&t[2], Token::Symbol(Cow::Borrowed(_))));
        assert!(matches!(&t[4], Token::Symbol(Cow::Owned(_))));
    }

    #[test]
    fn query_and_lists() {
        let t = toks("?- maplist(f)([a | R], [1, 2]).");
        assert_eq!(t[0], Token::QueryArrow);
        assert!(t.contains(&Token::LBracket));
        assert!(t.contains(&Token::Pipe));
        assert!(t.contains(&Token::Integer(2)));
    }

    #[test]
    fn negation_spellings() {
        assert_eq!(toks("not p")[0], Token::Not);
        assert_eq!(toks("\\+ p")[0], Token::Not);
    }

    #[test]
    fn error_positions() {
        let e = lex("p :- q.\n  r :^ s.").unwrap_err();
        assert_eq!((e.line, e.column), (2, 5));
        assert!(lex("p :- 'unterminated").is_err());
        assert!(lex("p ? q").is_err());
        assert!(lex("p : q").is_err());
        assert!(lex("p # q").is_err());
        assert!(lex("p(99999999999999999999)").is_err());
    }

    #[test]
    fn columns_count_characters() {
        let tokens = lex("'λé' % ∀\n  'ß'(x) ∃").unwrap_err();
        assert_eq!((tokens.line, tokens.column), (2, 10));
        assert_eq!(tokens.message, "unexpected character `∃`");
        let tokens = lex("'λé' p\n'ß\n' q").unwrap();
        let at: Vec<(usize, usize)> = tokens.iter().map(|s| (s.line, s.column)).collect();
        assert_eq!(at, vec![(1, 1), (1, 6), (2, 1), (3, 3)]);
    }

    #[test]
    fn underscore_is_a_variable() {
        let t = toks("p(_, _X).");
        assert_eq!(t[2], Token::Variable("_"));
        assert_eq!(t[4], Token::Variable("_X"));
    }
}
