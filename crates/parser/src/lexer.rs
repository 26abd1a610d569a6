//! Lexer for the PathLog concrete syntax.
//!
//! The only delicate point is the full stop: `.` is both the path-composition
//! operator (`mary.spouse`) and the statement terminator (`... .`).  The
//! lexer resolves the ambiguity locally: a `.` immediately followed by a
//! character that can start a reference (letter, digit, `_`, `(` or `"`)
//! is a path dot; otherwise (whitespace, end of input, a comment, or any
//! other punctuation) it is a statement terminator.  `..` is always the
//! set-valued path operator.
//!
//! **One pass over bytes.**  The input is scanned once, as bytes: ASCII
//! identifiers, integers, strings, comments and operators are byte runs,
//! and a non-ASCII character is decoded only where one appears, so that
//! `char::is_alphabetic`, `char::is_uppercase` and the reported positions
//! read exactly as over `char`s.  The 1-based line and column are kept as
//! the scan goes; a column counts characters, not bytes.  A name, and a
//! string without escapes, borrows its text from the input: the lexer
//! allocates nothing per token.  The parser pulls tokens one at a time
//! ([`Lexer::next_token`]) and interns each distinct spelling once;
//! [`tokenize`] collects the same tokens.  There is no other lexer, and no
//! fallback to one.

use std::borrow::Cow;

use crate::error::{ParseError, Result};

/// A lexical token, its text borrowed from the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// A lowercase-initial identifier (an atom name).
    Atom(&'a str),
    /// An uppercase- or underscore-initial identifier (a variable).
    Variable(&'a str),
    /// An integer literal.
    Int(i64),
    /// A string literal, unescaped: borrowed unless it holds an escape.
    Str(Cow<'a, str>),
    /// `.` used as path composition.
    Dot,
    /// `..` — set-valued path composition.
    DotDot,
    /// `.` used as statement terminator.
    End,
    /// `:`
    Colon,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `@`
    At,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `->`
    Arrow,
    /// `->>`
    DoubleArrow,
    /// `=>`
    SigArrow,
    /// `=>>`
    SigDoubleArrow,
    /// `<-`
    Implies,
    /// `?-`
    QueryPrefix,
    /// the keyword `not`
    Not,
}

/// A token together with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned<'a> {
    /// The token.
    pub token: Token<'a>,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
}

/// Tokenise an input string.
pub fn tokenize(input: &str) -> Result<Vec<Spanned<'_>>> {
    let mut lexer = Lexer::new(input);
    let mut out = Vec::new();
    while let Some(token) = lexer.next_token()? {
        out.push(token);
    }
    Ok(out)
}

/// The scan of one input, token by token ([`Lexer::next_token`]).
pub(crate) struct Lexer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    /// Byte offset of the next character.
    pos: usize,
    line: usize,
    column: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Lexer {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            line: 1,
            column: 1,
        }
    }

    /// The character at byte offset `at`, decoded where it is not ASCII.
    fn char_at(&self, at: usize) -> Option<char> {
        match *self.bytes.get(at)? {
            b if b.is_ascii() => Some(char::from(b)),
            _ => self.input[at..].chars().next(),
        }
    }

    /// Step over `n` bytes of one line, `n` characters wide.
    fn advance(&mut self, n: usize) {
        self.pos += n;
        self.column += n;
    }

    /// Step over the bytes up to `end`, of any characters: a newline starts
    /// a line, a UTF-8 continuation byte adds no column.
    fn advance_to(&mut self, end: usize) {
        for &b in &self.bytes[self.pos..end] {
            if b == b'\n' {
                self.line += 1;
                self.column = 1;
            } else if b & 0xC0 != 0x80 {
                self.column += 1;
            }
        }
        self.pos = end;
    }

    /// The offset of the first byte at or after `from` that `stop` accepts,
    /// or the end of the input.
    fn scan(&self, from: usize, stop: impl Fn(u8) -> bool) -> usize {
        self.bytes[from..]
            .iter()
            .position(|&b| stop(b))
            .map_or(self.bytes.len(), |k| from + k)
    }

    /// The `n`-byte operator `token`, stepped over.
    fn operator(&mut self, token: Token<'a>, n: usize) -> Token<'a> {
        self.advance(n);
        token
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(message, self.line, self.column)
    }

    /// The next token and where it starts; `None` at the end of the input.
    pub(crate) fn next_token(&mut self) -> Result<Option<Spanned<'a>>> {
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Ok(None);
            };
            let next = self.bytes.get(self.pos + 1).copied();
            let (line, column) = (self.line, self.column);
            let token = match b {
                b' ' | b'\t' | b'\r' => {
                    self.advance(1);
                    continue;
                }
                b'\n' => {
                    self.advance_to(self.pos + 1);
                    continue;
                }
                // A comment runs to the end of its line (the newline is
                // whitespace), so its columns are never reported.
                b'%' | b'#' => {
                    self.pos = self.scan(self.pos, |b| b == b'\n');
                    continue;
                }
                b'/' if next == Some(b'/') => {
                    self.pos = self.scan(self.pos, |b| b == b'\n');
                    continue;
                }
                b'.' if next == Some(b'.') => self.operator(Token::DotDot, 2),
                b'.' => {
                    let path = self.char_at(self.pos + 1).is_some_and(starts_reference);
                    self.operator(if path { Token::Dot } else { Token::End }, 1)
                }
                b':' => self.operator(Token::Colon, 1),
                b'[' => self.operator(Token::LBracket, 1),
                b']' => self.operator(Token::RBracket, 1),
                b'(' => self.operator(Token::LParen, 1),
                b')' => self.operator(Token::RParen, 1),
                b'{' => self.operator(Token::LBrace, 1),
                b'}' => self.operator(Token::RBrace, 1),
                b'@' => self.operator(Token::At, 1),
                b',' => self.operator(Token::Comma, 1),
                b';' => self.operator(Token::Semicolon, 1),
                b'-' => match next {
                    Some(b'>') if self.bytes.get(self.pos + 2) == Some(&b'>') => self.operator(Token::DoubleArrow, 3),
                    Some(b'>') => self.operator(Token::Arrow, 2),
                    Some(d) if d.is_ascii_digit() => {
                        self.advance(1);
                        Token::Int(-self.integer()?)
                    }
                    _ => {
                        self.advance(1);
                        return Err(self.error("expected '->', '->>' or a digit after '-'"));
                    }
                },
                b'=' => match next {
                    Some(b'>') if self.bytes.get(self.pos + 2) == Some(&b'>') => {
                        self.operator(Token::SigDoubleArrow, 3)
                    }
                    Some(b'>') => self.operator(Token::SigArrow, 2),
                    _ => {
                        self.advance(1);
                        return Err(self.error("expected '=>' or '=>>'"));
                    }
                },
                b'<' | b'?' => {
                    let (token, what) = if b == b'<' {
                        (Token::Implies, "expected '<-'")
                    } else {
                        (Token::QueryPrefix, "expected '?-'")
                    };
                    if next != Some(b'-') {
                        self.advance(1);
                        return Err(self.error(what));
                    }
                    self.operator(token, 2)
                }
                b'"' => self.string()?,
                b if b.is_ascii_digit() => Token::Int(self.integer()?),
                _ => {
                    let c = self.char_at(self.pos).expect("a character starts here");
                    if !(c.is_alphabetic() || c == '_') {
                        return Err(self.error(format!("unexpected character '{c}'")));
                    }
                    self.identifier(c)
                }
            };
            return Ok(Some(Spanned { token, line, column }));
        }
    }

    /// An identifier starting with `first`: a run of alphanumeric
    /// characters and `_`.
    fn identifier(&mut self, first: char) -> Token<'a> {
        let start = self.pos;
        loop {
            let end = self.scan(self.pos, |b| !(b.is_ascii_alphanumeric() || b == b'_'));
            self.advance(end - self.pos);
            match self.char_at(self.pos) {
                Some(c) if !c.is_ascii() && c.is_alphanumeric() => {
                    self.pos += c.len_utf8();
                    self.column += 1;
                }
                _ => break,
            }
        }
        let text = &self.input[start..self.pos];
        if text == "not" {
            Token::Not
        } else if first.is_uppercase() || first == '_' {
            Token::Variable(text)
        } else {
            Token::Atom(text)
        }
    }

    /// A string literal, from its opening quote.
    fn string(&mut self) -> Result<Token<'a>> {
        self.advance(1);
        let start = self.pos;
        let mut owned: Option<String> = None;
        loop {
            let end = self.scan(self.pos, |b| b == b'"' || b == b'\\');
            if let Some(s) = &mut owned {
                s.push_str(&self.input[self.pos..end]);
            }
            self.advance_to(end);
            match self.bytes.get(self.pos) {
                Some(b'"') => break,
                Some(_) => {
                    // A backslash: the escape's text is `start..` so far.
                    let s = owned.get_or_insert_with(|| self.input[start..self.pos].to_owned());
                    let escaped = self.char_at(self.pos + 1);
                    self.advance(1);
                    s.push(match escaped {
                        Some('"') => '"',
                        Some('\\') => '\\',
                        Some('n') => '\n',
                        Some('t') => '\t',
                        Some(other) => {
                            self.advance_to(self.pos + other.len_utf8());
                            return Err(self.error(format!("unknown escape sequence '\\{other}'")));
                        }
                        None => return Err(self.error("unterminated string literal")),
                    });
                    self.advance(1);
                }
                None => return Err(self.error("unterminated string literal")),
            }
        }
        let text = match owned {
            Some(s) => Cow::Owned(s),
            None => Cow::Borrowed(&self.input[start..self.pos]),
        };
        self.advance(1);
        Ok(Token::Str(text))
    }

    /// The ASCII digits at the current position as an integer; out of range
    /// is an error reported after the digits.
    fn integer(&mut self) -> Result<i64> {
        let start = self.pos;
        let end = self.scan(start, |b| !b.is_ascii_digit());
        self.advance(end - start);
        let digits = &self.input[start..end];
        digits
            .parse::<i64>()
            .map_err(|_| self.error(format!("integer literal '{digits}' out of range")))
    }
}

/// Can this character start a reference (making a preceding `.` a path dot)?
fn starts_reference(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '(' || c == '"'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token<'_>> {
        tokenize(input).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn simple_path_and_terminator() {
        assert_eq!(
            toks("mary.spouse."),
            vec![Token::Atom("mary"), Token::Dot, Token::Atom("spouse"), Token::End]
        );
    }

    #[test]
    fn set_valued_dots() {
        assert_eq!(
            toks("p1..assistants"),
            vec![Token::Atom("p1"), Token::DotDot, Token::Atom("assistants")]
        );
    }

    #[test]
    fn dot_before_paren_is_a_path_dot() {
        let t = toks("X..(M.tc)");
        assert_eq!(
            t,
            vec![
                Token::Variable("X"),
                Token::DotDot,
                Token::LParen,
                Token::Variable("M"),
                Token::Dot,
                Token::Atom("tc"),
                Token::RParen
            ]
        );
    }

    #[test]
    fn arrows_and_filters() {
        assert_eq!(
            toks("[age -> 30; kids ->> {tim}]"),
            vec![
                Token::LBracket,
                Token::Atom("age"),
                Token::Arrow,
                Token::Int(30),
                Token::Semicolon,
                Token::Atom("kids"),
                Token::DoubleArrow,
                Token::LBrace,
                Token::Atom("tim"),
                Token::RBrace,
                Token::RBracket
            ]
        );
    }

    #[test]
    fn signature_arrows() {
        assert_eq!(
            toks("person[age => integer; kids =>> person]")[2..5].to_vec(),
            vec![Token::Atom("age"), Token::SigArrow, Token::Atom("integer")]
        );
        assert!(toks("a =>> b").contains(&Token::SigDoubleArrow));
    }

    #[test]
    fn rule_and_query_markers() {
        assert_eq!(
            toks("X <- Y. ?- Z."),
            vec![
                Token::Variable("X"),
                Token::Implies,
                Token::Variable("Y"),
                Token::End,
                Token::QueryPrefix,
                Token::Variable("Z"),
                Token::End
            ]
        );
    }

    #[test]
    fn variables_and_atoms_and_not() {
        assert_eq!(
            toks("X boss Boss _tmp not"),
            vec![
                Token::Variable("X"),
                Token::Atom("boss"),
                Token::Variable("Boss"),
                Token::Variable("_tmp"),
                Token::Not
            ]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(toks("\"Main St\""), vec![Token::Str("Main St".into())]);
        assert_eq!(toks("\"a\\\"b\\n\""), vec![Token::Str("a\"b\n".into())]);
        assert!(tokenize("\"open").is_err());
    }

    #[test]
    fn integers_including_negative() {
        assert_eq!(toks("42 -7"), vec![Token::Int(42), Token::Int(-7)]);
        assert_eq!(toks("salary@(1994)")[2..3].to_vec(), vec![Token::LParen]);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a % comment\nb # another\nc // third\nd"),
            vec![Token::Atom("a"), Token::Atom("b"), Token::Atom("c"), Token::Atom("d"),]
        );
    }

    #[test]
    fn method_call_dot_inside_statement() {
        // `a.b.c.` — two path dots then a terminator
        assert_eq!(
            toks("a.b.c."),
            vec![
                Token::Atom("a"),
                Token::Dot,
                Token::Atom("b"),
                Token::Dot,
                Token::Atom("c"),
                Token::End
            ]
        );
    }

    #[test]
    fn dot_before_bracket_is_a_terminator() {
        // `X[kids ->> {Y}].` ends the statement even right before EOF.
        let t = toks("X[a -> b].");
        assert_eq!(*t.last().unwrap(), Token::End);
    }

    #[test]
    fn errors_carry_positions() {
        let err = tokenize("a\n  $").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column >= 3);
    }

    fn spans(input: &str) -> Vec<(usize, usize, Token<'_>)> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|s| (s.line, s.column, s.token))
            .collect()
    }

    /// `(line, column, message)` of the error tokenizing `input`.
    fn error_at(input: &str) -> (usize, usize, String) {
        let e = tokenize(input).unwrap_err();
        (e.line, e.column, e.message)
    }

    #[test]
    fn non_ascii_names_are_atoms_and_variables_by_their_first_char() {
        assert_eq!(
            spans("müller : Ärger.\n  x.ürger"),
            vec![
                (1, 1, Token::Atom("müller")),
                (1, 8, Token::Colon),
                (1, 10, Token::Variable("Ärger")),
                (1, 15, Token::End),
                (2, 3, Token::Atom("x")),
                // A path dot before a non-ASCII letter.
                (2, 4, Token::Dot),
                (2, 5, Token::Atom("ürger")),
            ]
        );
        // Columns count characters: `日本` is two columns wide.
        assert_eq!(spans("日本 a")[1], (1, 4, Token::Atom("a")));
    }

    #[test]
    fn negative_integers_start_at_their_sign() {
        assert_eq!(
            spans("[a -> -42; b -> -0]"),
            vec![
                (1, 1, Token::LBracket),
                (1, 2, Token::Atom("a")),
                (1, 4, Token::Arrow),
                (1, 7, Token::Int(-42)),
                (1, 10, Token::Semicolon),
                (1, 12, Token::Atom("b")),
                (1, 14, Token::Arrow),
                (1, 17, Token::Int(0)),
                (1, 19, Token::RBracket),
            ]
        );
        assert_eq!(toks("-9223372036854775807"), vec![Token::Int(-i64::MAX)]);
    }

    #[test]
    fn every_escape_and_a_string_across_lines() {
        let t = spans("\"q\\\"b\\\\s\\nn\\tt\" x \"a\nü\" y");
        assert_eq!(t[0], (1, 1, Token::Str("q\"b\\s\nn\tt".into())));
        assert_eq!(t[1], (1, 17, Token::Atom("x")));
        // A literal newline inside a string starts a line; `ü` is one column.
        assert_eq!(t[2], (1, 19, Token::Str("a\nü".into())));
        assert_eq!(t[3], (2, 4, Token::Atom("y")));
        // Without an escape the text is borrowed from the input.
        assert!(matches!(toks("\"plain\"")[0], Token::Str(Cow::Borrowed("plain"))));
    }

    #[test]
    fn comments_run_to_the_end_of_their_line() {
        assert_eq!(
            spans("% one\n  a # two\n// three\n b//four"),
            vec![(2, 3, Token::Atom("a")), (4, 2, Token::Atom("b"))]
        );
    }

    #[test]
    fn out_of_range_integers_are_reported_after_their_digits() {
        assert_eq!(
            error_at("x -> 9223372036854775808."),
            (1, 25, "integer literal '9223372036854775808' out of range".to_string())
        );
        assert_eq!(
            error_at("\n -9223372036854775808"),
            (2, 22, "integer literal '9223372036854775808' out of range".to_string())
        );
    }

    #[test]
    fn string_errors_pin_their_text_and_position() {
        // The end of the input, after the text the string ran over.
        assert_eq!(
            error_at("a.\n\"open\nmü"),
            (3, 3, "unterminated string literal".to_string())
        );
        assert_eq!(error_at("\"ab\\"), (1, 5, "unterminated string literal".to_string()));
        // Just after the escape's character.
        assert_eq!(
            error_at("x[s -> \"a\\qb\"]"),
            (1, 12, "unknown escape sequence '\\q'".to_string())
        );
        assert_eq!(error_at("\"\\ü\""), (1, 4, "unknown escape sequence '\\ü'".to_string()));
    }

    #[test]
    fn unexpected_characters_are_reported_where_they_stand() {
        assert_eq!(error_at("ab €"), (1, 4, "unexpected character '€'".to_string()));
        assert_eq!(error_at("a / b"), (1, 3, "unexpected character '/'".to_string()));
        assert_eq!(
            error_at("a -b"),
            (1, 4, "expected '->', '->>' or a digit after '-'".to_string())
        );
    }

    #[test]
    fn lone_equals_or_angle_is_an_error() {
        assert!(tokenize("a = b").is_err());
        assert!(tokenize("a < b").is_err());
        assert!(tokenize("a ? b").is_err());
        assert!(tokenize("a - b").is_err());
    }
}
