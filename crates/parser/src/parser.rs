//! Recursive-descent parser for the PathLog concrete syntax.
//!
//! Grammar (references are exactly Definition 1 of the paper, with the
//! filter-list and selector shorthands of Section 4.1 and `=>`/`=>>`
//! signature declarations as a typing extension):
//!
//! ```text
//! program    := statement*
//! statement  := query | rule
//! query      := "?-" body "."
//! rule       := term ( "<-" body )? "."
//! body       := literal ( "," literal )*
//! literal    := [ "not" ] term
//! term       := primary postfix*
//! primary    := atom | variable | integer | string | "(" term ")"
//! postfix    := "."  simple args?          -- scalar method application
//!             | ".." simple args?          -- set-valued method application
//!             | ":"  simple                -- class membership
//!             | "[" ( filter (";" filter)* )? "]"
//! simple     := atom | variable | integer | string | "(" term ")"
//! args       := "@" "(" ( term ("," term)*)? ")"
//! filter     := simple args? tail
//!             | term                       -- selector, sugar for self -> term
//! tail       := "->" term
//!             | "->>" ( "{" (term ("," term)*)? "}" | term )
//!             | "=>"  sigresults | "=>>" sigresults
//! sigresults := "(" simple ("," simple)* ")" | simple
//! ```

use std::collections::HashSet;
use std::sync::Arc;

use pathlog_core::builtins::SELF_METHOD;
use pathlog_core::names::{Name, Var};
use pathlog_core::program::{Literal, Program, Query, Rule};
use pathlog_core::term::{Filter, FilterValue, IsA, Molecule, Path, Term};

use crate::error::{ParseError, Result};
use crate::lexer::{Lexer, Spanned, Token};

/// Parse a whole program (facts, rules and queries).
pub fn parse_program(input: &str) -> Result<Program> {
    Ok(parse_program_spanned(input)?.program)
}

/// A parsed program together with the 1-based `(line, column)` source
/// position of each statement — the anchors the static analyzer
/// (`pathlog_core::analysis`) attaches its diagnostics to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedProgram {
    /// The parsed program.
    pub program: Program,
    /// One `(line, column)` per entry of `program.rules`, in order.
    pub rule_spans: Vec<(usize, usize)>,
    /// One `(line, column)` per entry of `program.queries`, in order.
    pub query_spans: Vec<(usize, usize)>,
}

/// Parse a whole program, recording where each statement starts.
pub fn parse_program_spanned(input: &str) -> Result<SpannedProgram> {
    let mut p = Parser::new(input);
    let result = p.program();
    p.finish(result)
}

/// Parse a single reference (no trailing full stop required).
pub fn parse_term(input: &str) -> Result<Term> {
    let mut p = Parser::new(input);
    let result = p.term().and_then(|t| p.expect_eof_or_end().map(|()| t));
    p.finish(result)
}

/// Parse a single rule or fact (trailing full stop optional).
pub fn parse_rule(input: &str) -> Result<Rule> {
    let mut p = Parser::new(input);
    let result = p.rule().and_then(|r| p.expect_eof().map(|()| r));
    p.finish(result)
}

/// Parse a single query (`?-` prefix optional, trailing full stop optional).
pub fn parse_query(input: &str) -> Result<Query> {
    let mut p = Parser::new(input);
    if p.peek_is(&Token::QueryPrefix) {
        p.bump();
    }
    let result = p.body().and_then(|body| {
        if p.peek_is(&Token::End) {
            p.bump();
        }
        p.expect_eof().map(|()| Query::new(body))
    });
    p.finish(result)
}

/// A recursive-descent parser, pulling one text's tokens from the lexer as
/// it goes and taking each by value.  It interns the text of every name,
/// string and variable: each distinct spelling is allocated once per text
/// and shared by every occurrence, down to the loaded structure.  The
/// interner hashes with std's keyed `RandomState`: the text comes from
/// outside.  A text's first lexical error is its error, wherever it lies
/// ([`Parser::finish`]).
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The next token; `None` at the end of the input or once the lexer
    /// failed.
    next: Option<Spanned<'a>>,
    /// Where the last token read starts (`(1, 1)` before any): at the end
    /// of the input, the position of an error.
    end: (usize, usize),
    lex_error: Option<ParseError>,
    names: HashSet<Arc<str>>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        let mut parser = Parser {
            lexer: Lexer::new(input),
            next: None,
            end: (1, 1),
            lex_error: None,
            names: HashSet::new(),
        };
        parser.read();
        parser
    }

    /// Read the lexer's next token into `next`.
    fn read(&mut self) {
        self.next = self.lexer.next_token().unwrap_or_else(|e| {
            self.lex_error = Some(e);
            None
        });
        if let Some(s) = &self.next {
            self.end = (s.line, s.column);
        }
    }

    /// `result`, unless the rest of the text holds a lexical error: then
    /// the first one.
    fn finish<T>(mut self, result: Result<T>) -> Result<T> {
        while self.bump().is_some() {}
        match self.lex_error {
            Some(e) => Err(e),
            None => result,
        }
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.next.as_ref().map(|s| &s.token)
    }

    fn peek_is(&self, token: &Token<'_>) -> bool {
        self.peek() == Some(token)
    }

    fn bump(&mut self) -> Option<Token<'a>> {
        let taken = self.next.take()?;
        self.read();
        Some(taken.token)
    }

    fn at_eof(&self) -> bool {
        self.next.is_none()
    }

    /// The shared text of `spelling` (see [`Parser`]).
    fn intern(&mut self, spelling: &str) -> Arc<str> {
        if let Some(shared) = self.names.get(spelling) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = Arc::from(spelling);
        self.names.insert(Arc::clone(&shared));
        shared
    }

    fn position(&self) -> (usize, usize) {
        self.next.as_ref().map_or(self.end, |s| (s.line, s.column))
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let (line, column) = self.position();
        ParseError::new(message, line, column)
    }

    fn expect(&mut self, token: &Token<'_>, what: &str) -> Result<()> {
        if self.peek_is(token) {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.error(format!("unexpected trailing input: {:?}", self.peek())))
        }
    }

    fn expect_eof_or_end(&mut self) -> Result<()> {
        if self.peek_is(&Token::End) {
            self.bump();
        }
        self.expect_eof()
    }

    // -- program structure ---------------------------------------------------

    fn program(&mut self) -> Result<SpannedProgram> {
        let mut program = Program::new();
        let mut rule_spans = Vec::new();
        let mut query_spans = Vec::new();
        while !self.at_eof() {
            let span = self.position();
            if self.peek_is(&Token::QueryPrefix) {
                self.bump();
                let body = self.body()?;
                self.expect(&Token::End, "'.' at the end of the query")?;
                program.push_query(Query::new(body));
                query_spans.push(span);
            } else {
                let rule = self.rule()?;
                program.push_rule(rule);
                rule_spans.push(span);
            }
        }
        Ok(SpannedProgram {
            program,
            rule_spans,
            query_spans,
        })
    }

    fn rule(&mut self) -> Result<Rule> {
        let head = self.term()?;
        let body = if self.peek_is(&Token::Implies) {
            self.bump();
            self.body()?
        } else {
            Vec::new()
        };
        if self.peek_is(&Token::End) {
            self.bump();
        } else if !self.at_eof() {
            return Err(self.error(format!("expected '.', ',' or '<-', found {:?}", self.peek())));
        }
        Ok(Rule::new(head, body))
    }

    fn body(&mut self) -> Result<Vec<Literal>> {
        let mut literals = vec![self.literal()?];
        while self.peek_is(&Token::Comma) {
            self.bump();
            literals.push(self.literal()?);
        }
        Ok(literals)
    }

    fn literal(&mut self) -> Result<Literal> {
        if self.peek_is(&Token::Not) {
            self.bump();
            Ok(Literal::neg(self.term()?))
        } else {
            Ok(Literal::pos(self.term()?))
        }
    }

    // -- references ----------------------------------------------------------

    fn term(&mut self) -> Result<Term> {
        let mut term = self.primary()?;
        loop {
            match self.peek() {
                Some(Token::Dot) => {
                    self.bump();
                    let method = self.simple()?;
                    let args = self.optional_args()?;
                    term = Term::Path(Box::new(Path {
                        receiver: term,
                        set_valued: false,
                        method,
                        args,
                    }));
                }
                Some(Token::DotDot) => {
                    self.bump();
                    let method = self.simple()?;
                    let args = self.optional_args()?;
                    term = Term::Path(Box::new(Path {
                        receiver: term,
                        set_valued: true,
                        method,
                        args,
                    }));
                }
                Some(Token::Colon) => {
                    self.bump();
                    let class = self.simple()?;
                    term = Term::IsA(Box::new(IsA { receiver: term, class }));
                }
                Some(Token::LBracket) => {
                    self.bump();
                    let filters = self.filter_list()?;
                    self.expect(&Token::RBracket, "']' closing the filter list")?;
                    // Consecutive `[..][..]` accumulate on the same receiver,
                    // matching the paper's shorthand equivalence.
                    term = match term {
                        Term::Molecule(mut m) => {
                            m.filters.extend(filters);
                            Term::Molecule(m)
                        }
                        receiver => Term::Molecule(Box::new(Molecule { receiver, filters })),
                    };
                }
                _ => break,
            }
        }
        Ok(term)
    }

    fn primary(&mut self) -> Result<Term> {
        match self.peek() {
            Some(Token::Atom(_) | Token::Variable(_) | Token::Int(_) | Token::Str(_)) => {}
            Some(Token::LParen) => {
                self.bump();
                let inner = self.term()?;
                self.expect(&Token::RParen, "')'")?;
                return Ok(Term::Paren(Box::new(inner)));
            }
            other => {
                let message = format!("expected a name, variable, integer, string or '(', found {other:?}");
                return Err(self.error(message));
            }
        }
        Ok(match self.bump() {
            Some(Token::Atom(s)) => Term::Name(Name::Atom(self.intern(s))),
            Some(Token::Variable(s)) => Term::Var(Var(self.intern(s))),
            Some(Token::Int(i)) => Term::Name(Name::Int(i)),
            Some(Token::Str(s)) => Term::Name(Name::Str(self.intern(&s))),
            _ => unreachable!("a name, variable, integer or string was peeked"),
        })
    }

    /// A *simple* reference: the only forms allowed at method and class
    /// positions (Definition 1).
    fn simple(&mut self) -> Result<Term> {
        match self.peek() {
            Some(Token::Atom(_) | Token::Variable(_) | Token::Int(_) | Token::Str(_) | Token::LParen) => self.primary(),
            other => Err(self.error(format!(
                "expected a simple reference (name, variable or parenthesised reference), found {other:?}"
            ))),
        }
    }

    fn optional_args(&mut self) -> Result<Vec<Term>> {
        if !self.peek_is(&Token::At) {
            return Ok(Vec::new());
        }
        self.bump();
        self.expect(&Token::LParen, "'(' after '@'")?;
        let mut args = Vec::new();
        if !self.peek_is(&Token::RParen) {
            args.push(self.term()?);
            while self.peek_is(&Token::Comma) {
                self.bump();
                args.push(self.term()?);
            }
        }
        self.expect(&Token::RParen, "')' closing the argument list")?;
        Ok(args)
    }

    fn filter_list(&mut self) -> Result<Vec<Filter>> {
        let mut filters = Vec::new();
        if self.peek_is(&Token::RBracket) {
            return Ok(filters);
        }
        filters.push(self.filter()?);
        while self.peek_is(&Token::Semicolon) {
            self.bump();
            filters.push(self.filter()?);
        }
        Ok(filters)
    }

    fn filter(&mut self) -> Result<Filter> {
        // Parse a full term first: if an arrow follows (possibly after an
        // `@(..)` argument list) the parsed term is the method position of a
        // regular filter; otherwise it is an XSQL-style selector `[T]`,
        // sugar for `self -> T`.
        let first = self.term()?;
        let args = self.optional_args()?;
        let check_method = |this: &Self, t: Term| -> Result<Term> {
            if t.is_simple() {
                Ok(t)
            } else {
                Err(this.error(format!(
                    "`{t}` cannot be used as a method position; wrap it in parentheses"
                )))
            }
        };
        match self.peek() {
            Some(Token::Arrow) => {
                self.bump();
                let value = self.term()?;
                let method = check_method(self, first)?;
                Ok(Filter {
                    method,
                    args,
                    value: FilterValue::Scalar(value),
                })
            }
            Some(Token::DoubleArrow) => {
                self.bump();
                let value = if self.peek_is(&Token::LBrace) {
                    self.bump();
                    let mut elems = Vec::new();
                    if !self.peek_is(&Token::RBrace) {
                        elems.push(self.term()?);
                        while self.peek_is(&Token::Comma) {
                            self.bump();
                            elems.push(self.term()?);
                        }
                    }
                    self.expect(&Token::RBrace, "'}' closing the explicit set")?;
                    FilterValue::SetExplicit(elems)
                } else {
                    FilterValue::SetRef(self.term()?)
                };
                let method = check_method(self, first)?;
                Ok(Filter { method, args, value })
            }
            Some(Token::SigArrow) => {
                self.bump();
                let results = self.sig_results()?;
                let method = check_method(self, first)?;
                Ok(Filter {
                    method,
                    args,
                    value: FilterValue::SigScalar(results),
                })
            }
            Some(Token::SigDoubleArrow) => {
                self.bump();
                let results = self.sig_results()?;
                let method = check_method(self, first)?;
                Ok(Filter {
                    method,
                    args,
                    value: FilterValue::SigSet(results),
                })
            }
            // Selector: `[Z]` abbreviates `[self -> Z]` (Section 4.1).
            _ => {
                if !args.is_empty() {
                    return Err(self.error("an argument list must be followed by '->', '->>', '=>' or '=>>'"));
                }
                Ok(Filter {
                    method: Term::Name(Name::Atom(self.intern(SELF_METHOD))),
                    args: Vec::new(),
                    value: FilterValue::Scalar(first),
                })
            }
        }
    }

    fn sig_results(&mut self) -> Result<Vec<Term>> {
        if self.peek_is(&Token::LParen) {
            self.bump();
            let mut results = vec![self.simple()?];
            while self.peek_is(&Token::Comma) {
                self.bump();
                results.push(self.simple()?);
            }
            self.expect(&Token::RParen, "')' closing the signature result list")?;
            Ok(results)
        } else {
            Ok(vec![self.simple()?])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_paths() {
        assert_eq!(parse_term("mary.spouse").unwrap(), Term::name("mary").scalar("spouse"));
        assert_eq!(
            parse_term("p1..assistants").unwrap(),
            Term::name("p1").set("assistants")
        );
        assert_eq!(
            parse_term("mary.spouse[boss -> mary].age").unwrap(),
            Term::name("mary")
                .scalar("spouse")
                .filter(Filter::scalar("boss", "mary"))
                .scalar("age")
        );
    }

    #[test]
    fn parse_isa_and_filters() {
        let t = parse_term("X:employee[age->30; city->newYork]").unwrap();
        assert_eq!(
            t,
            Term::var("X").isa("employee").filters(vec![
                Filter::scalar("age", Term::int(30)),
                Filter::scalar("city", "newYork"),
            ])
        );
    }

    #[test]
    fn parse_example_2_1() {
        let t = parse_term("X:employee[age->30; city->newYork]..vehicles:automobile[cylinders->4].color[Z]").unwrap();
        let expected = Term::var("X")
            .isa("employee")
            .filters(vec![
                Filter::scalar("age", Term::int(30)),
                Filter::scalar("city", "newYork"),
            ])
            .set("vehicles")
            .isa("automobile")
            .filter(Filter::scalar("cylinders", Term::int(4)))
            .scalar("color")
            .selector(Term::var("Z"));
        assert_eq!(t, expected);
    }

    #[test]
    fn selector_is_sugar_for_self() {
        let t = parse_term("X..vehicles.color[Z]").unwrap();
        assert_eq!(
            t,
            Term::var("X").set("vehicles").scalar("color").selector(Term::var("Z"))
        );
    }

    #[test]
    fn explicit_sets_and_set_references() {
        assert_eq!(
            parse_term("p2[friends ->> {p3, p4}]").unwrap(),
            Term::name("p2").filter(Filter::set("friends", vec![Term::name("p3"), Term::name("p4")]))
        );
        assert_eq!(
            parse_term("p2[friends ->> p1..assistants]").unwrap(),
            Term::name("p2").filter(Filter::set_ref("friends", Term::name("p1").set("assistants")))
        );
        assert_eq!(
            parse_term("x[empty ->> {}]").unwrap(),
            Term::name("x").filter(Filter::set("empty", vec![]))
        );
    }

    #[test]
    fn parenthesised_references() {
        assert_eq!(
            parse_term("L : (integer.list)").unwrap(),
            Term::var("L").isa(Term::name("integer").scalar("list").paren())
        );
        assert_eq!(
            parse_term("X[(M.tc) ->> {Y}]").unwrap(),
            Term::var("X").filter(Filter::set(Term::var("M").scalar("tc").paren(), vec![Term::var("Y")]))
        );
        assert_eq!(
            parse_term("X..(M.tc)[M ->> {Y}]").unwrap(),
            Term::var("X")
                .set_args(Term::var("M").scalar("tc").paren(), vec![])
                .filter(Filter::set(Term::var("M"), vec![Term::var("Y")]))
        );
    }

    #[test]
    fn method_arguments() {
        assert_eq!(
            parse_term("john.salary@(1994)").unwrap(),
            Term::name("john").scalar_args("salary", vec![Term::int(1994)])
        );
        assert_eq!(
            parse_term("p1.paidFor@(p1..vehicles)").unwrap(),
            Term::name("p1").scalar_args("paidFor", vec![Term::name("p1").set("vehicles")])
        );
    }

    #[test]
    fn signature_filters() {
        let t = parse_term("person[age => integer; kids =>> person]").unwrap();
        match &t {
            Term::Molecule(m) => {
                assert_eq!(m.filters.len(), 2);
                assert!(matches!(m.filters[0].value, FilterValue::SigScalar(_)));
                assert!(matches!(m.filters[1].value, FilterValue::SigSet(_)));
            }
            _ => panic!("expected molecule"),
        }
        let t = parse_term("person[parents =>> (person, ancestor)]").unwrap();
        match &t {
            Term::Molecule(m) => match &m.filters[0].value {
                FilterValue::SigSet(rs) => assert_eq!(rs.len(), 2),
                _ => panic!("expected set signature"),
            },
            _ => panic!("expected molecule"),
        }
    }

    #[test]
    fn rules_facts_and_queries() {
        let r = parse_rule("X.boss[worksFor -> D] <- X : employee[worksFor -> D].").unwrap();
        assert_eq!(r.body.len(), 1);
        assert!(matches!(r.head, Term::Molecule(_)));

        let f = parse_rule("peter[kids ->> {tim, mary}].").unwrap();
        assert!(f.is_fact());

        let q = parse_query("?- X : manager..vehicles[color -> red].").unwrap();
        assert_eq!(q.body.len(), 1);

        let q = parse_query("X : employee, not X[city -> detroit]").unwrap();
        assert_eq!(q.body.len(), 2);
        assert!(!q.body[1].positive);
    }

    #[test]
    fn parse_whole_program() {
        let src = r#"
            % the genealogy of Section 6
            peter[kids ->> {tim, mary}].
            tim[kids ->> {sally}].
            mary[kids ->> {tom, paul}].

            X[desc ->> {Y}] <- X[kids ->> {Y}].
            X[desc ->> {Y}] <- X..desc[kids ->> {Y}].

            ?- peter[desc ->> {Z}].
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.rules.len(), 5);
        assert_eq!(p.facts().count(), 3);
        assert_eq!(p.queries.len(), 1);
    }

    #[test]
    fn display_roundtrip() {
        let sources = [
            "mary.spouse[boss -> mary].age",
            "X : employee[age -> 30; city -> newYork]..vehicles : automobile[cylinders -> 4].color[self -> Z]",
            "p2[friends ->> {p3, p4}]",
            "p2[friends ->> p1..assistants]",
            "john.salary@(1994)",
            "X[(M.tc) ->> {Y}]",
            "L : (integer.list)",
            "X : manager..vehicles[color -> red].producedBy[city -> detroit; president -> X]",
        ];
        for src in sources {
            let t = parse_term(src).unwrap();
            let printed = t.to_string();
            let reparsed = parse_term(&printed).unwrap();
            assert_eq!(t, reparsed, "round-trip failed for {src}: printed as {printed}");
        }
    }

    #[test]
    fn spanned_parse_records_statement_positions() {
        let src = "a : b.\n  c : d.\n?- X : b.\nX : e <- X : b.\n";
        let spanned = parse_program_spanned(src).unwrap();
        assert_eq!(spanned.program.rules.len(), 3);
        assert_eq!(spanned.program.queries.len(), 1);
        assert_eq!(spanned.rule_spans, vec![(1, 1), (2, 3), (4, 1)]);
        assert_eq!(spanned.query_spans, vec![(3, 1)]);
        // The plain entry point parses identically.
        assert_eq!(parse_program(src).unwrap(), spanned.program);
    }

    #[test]
    fn error_positions_and_messages() {
        let err = parse_term("mary..[x]").unwrap_err();
        assert!(err.to_string().contains("simple reference"));
        let err = parse_term("mary[age ->").unwrap_err();
        assert!(err.line >= 1);
        let err = parse_program("a : b c.").unwrap_err();
        assert!(err.to_string().contains("expected"));
        assert!(parse_term("mary..").is_err());
        assert!(parse_rule("a : b. extra").is_err());
    }

    #[test]
    fn non_simple_method_before_arrow_is_rejected() {
        // `a.b -> c` inside a filter: the left side is a path, not a simple
        // reference; the paper requires parentheses: `(a.b) -> c`.
        let err = parse_term("x[a.b -> c]").unwrap_err();
        assert!(err.to_string().contains("method position"));
        assert!(parse_term("x[(a.b) -> c]").is_ok());
    }

    #[test]
    fn one_spelling_shares_one_allocation_per_text() {
        let p = parse_program("a : b.\nc[m -> a; n -> \"a\"].\nX : b <- X : a, X[m -> Y], Y : X.").unwrap();
        let mut atoms: Vec<Arc<str>> = Vec::new();
        let mut vars: Vec<Arc<str>> = Vec::new();
        let mut strings: Vec<Arc<str>> = Vec::new();
        for rule in &p.rules {
            for term in std::iter::once(&rule.head).chain(rule.body.iter().map(|l| &l.term)) {
                term.visit(&mut |t| match t {
                    Term::Name(Name::Atom(s)) if &**s == "a" => atoms.push(Arc::clone(s)),
                    Term::Name(Name::Str(s)) => strings.push(Arc::clone(s)),
                    Term::Var(v) if v.name() == "X" => vars.push(Arc::clone(&v.0)),
                    _ => {}
                });
            }
        }
        assert_eq!((atoms.len(), vars.len(), strings.len()), (3, 4, 1));
        assert!(atoms.iter().all(|s| Arc::ptr_eq(s, &atoms[0])));
        assert!(vars.iter().all(|s| Arc::ptr_eq(s, &vars[0])));
        // The string `"a"` and the atom `a` share their text too; they are
        // different names all the same.
        assert!(Arc::ptr_eq(&strings[0], &atoms[0]));
        assert_ne!(Name::Str(Arc::clone(&strings[0])), Name::Atom(Arc::clone(&atoms[0])));
        // A separate parse allocates afresh.
        let q = parse_term("a").unwrap();
        assert!(matches!(q, Term::Name(Name::Atom(s)) if !Arc::ptr_eq(&s, &atoms[0])));
    }

    #[test]
    fn a_lexical_error_anywhere_wins_over_a_parse_error() {
        // As if the whole text were tokenized before parsing.
        let err = parse_program("a : b c.\nd $ e.").unwrap_err();
        assert_eq!((err.line, err.column), (2, 3));
        assert_eq!(err.message, "unexpected character '$'");
        let err = parse_program("a : b c.\nd.").unwrap_err();
        assert_eq!((err.line, err.column), (1, 7));
        // After a complete statement too.
        assert!(parse_rule("a : b. $")
            .unwrap_err()
            .message
            .contains("unexpected character"));
        assert!(parse_term("a.b $")
            .unwrap_err()
            .message
            .contains("unexpected character"));
    }

    #[test]
    fn filter_method_with_arguments() {
        let t = parse_term("john[salary@(1994) -> 60000]").unwrap();
        match &t {
            Term::Molecule(m) => {
                assert_eq!(m.filters[0].method, Term::name("salary"));
                assert_eq!(m.filters[0].args, vec![Term::int(1994)]);
            }
            _ => panic!("expected molecule"),
        }
    }
}
