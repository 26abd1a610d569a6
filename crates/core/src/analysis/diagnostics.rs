//! Diagnostics: stable codes, severities, spans and rendering.
//!
//! Every problem the analyzer can report carries a stable `PL0xx` code
//! ([`DiagCode`]), a [`Severity`], an optional source [`Span`] (when the
//! program came through the parser) and a human-readable message.  Codes are
//! append-only: a code never changes meaning between releases, so tooling
//! (CI jobs, editors) can match on them.

use std::fmt;

/// A 1-based source position: where the statement that produced a
/// diagnostic starts.  The parser tracks statement-level spans
/// (`pathlog_parser::parse_program_spanned`); programs built through the
/// term API have none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub column: usize,
}

impl Span {
    /// A span at `(line, column)`.
    pub fn new(line: usize, column: usize) -> Self {
        Span { line, column }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only.
    Info,
    /// The program will run, but something is likely unintended.
    Warning,
    /// The program will be rejected (or fail) at evaluation time.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes.  The numeric part is the public contract;
/// variant names are internal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagCode {
    /// `PL001` — a reference violates well-formedness (Definition 3).
    IllFormed,
    /// `PL002` — a rule head is a set-valued reference (Section 6 forbids
    /// set-valued heads: the described object is not uniquely determined).
    SetValuedHead,
    /// `PL003` — a head variable does not occur in a positive body literal
    /// (for facts: the fact is not ground).
    UnsafeHeadVariable,
    /// `PL004` — a variable of a negated literal does not occur in a
    /// positive literal (range restriction).
    UnsafeNegationVariable,
    /// `PL005` — the rule set cannot be stratified: a rule depends on its
    /// own definitions through a `->>` right-hand side or a negated use.
    NotStratifiable,
    /// `PL006` — a body literal reads a method or class that no fact, rule
    /// head or reactive action ever defines: the literal can never hold.
    AlwaysEmptyLiteral,
    /// `PL007` — a rule's definitions are read by no query, rule body,
    /// constraint or reactive condition: the rule cannot contribute to any
    /// answer.
    DeadRule,
    /// `PL008` — a variable occurs exactly once in a rule.  Often a typo;
    /// prefix intentional singletons with `_`.
    SingletonVariable,
    /// `PL009` — a scalar (`->`) method is assigned by one rule and assigned,
    /// or minted by a head path, by another, anywhere in their heads (nested
    /// assignments included): firings may derive conflicting results for
    /// the same receiver, which the fact store rejects at runtime.
    ScalarConflict,
    /// `PL010` — reactive rules form a trigger cycle: each rule's actions
    /// can re-trigger the others, so a cascade may only terminate by
    /// hitting the runtime depth limit.
    CascadeCycle,
    /// `PL011` — the static cascade bound exceeds (or, for cycles, has no
    /// bound below) the configured `max_cascade_depth`: some cascades will
    /// be cut off at runtime.
    CascadeBound,
}

impl DiagCode {
    /// The stable `PL0xx` code string.
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::IllFormed => "PL001",
            DiagCode::SetValuedHead => "PL002",
            DiagCode::UnsafeHeadVariable => "PL003",
            DiagCode::UnsafeNegationVariable => "PL004",
            DiagCode::NotStratifiable => "PL005",
            DiagCode::AlwaysEmptyLiteral => "PL006",
            DiagCode::DeadRule => "PL007",
            DiagCode::SingletonVariable => "PL008",
            DiagCode::ScalarConflict => "PL009",
            DiagCode::CascadeCycle => "PL010",
            DiagCode::CascadeBound => "PL011",
        }
    }

    /// The severity this code is reported at.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::IllFormed
            | DiagCode::SetValuedHead
            | DiagCode::UnsafeHeadVariable
            | DiagCode::UnsafeNegationVariable
            | DiagCode::NotStratifiable => Severity::Error,
            DiagCode::AlwaysEmptyLiteral
            | DiagCode::DeadRule
            | DiagCode::SingletonVariable
            | DiagCode::ScalarConflict
            | DiagCode::CascadeCycle
            | DiagCode::CascadeBound => Severity::Warning,
        }
    }

    /// All codes, in numeric order (used by tests and docs).
    pub fn all() -> &'static [DiagCode] {
        &[
            DiagCode::IllFormed,
            DiagCode::SetValuedHead,
            DiagCode::UnsafeHeadVariable,
            DiagCode::UnsafeNegationVariable,
            DiagCode::NotStratifiable,
            DiagCode::AlwaysEmptyLiteral,
            DiagCode::DeadRule,
            DiagCode::SingletonVariable,
            DiagCode::ScalarConflict,
            DiagCode::CascadeCycle,
            DiagCode::CascadeBound,
        ]
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// One reported problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: DiagCode,
    /// Severity (always `code.severity()` today; kept on the value so a
    /// future suppression layer can downgrade individual diagnostics).
    pub severity: Severity,
    /// Where the offending statement starts, when known.
    pub span: Option<Span>,
    /// The rule/query/constraint the diagnostic is about, as displayed
    /// source text.
    pub subject: String,
    /// What is wrong.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic for `code` at `span` about `subject`.
    pub fn new(code: DiagCode, span: Option<Span>, subject: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            subject: subject.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(span) = self.span {
            write!(f, "{span}: ")?;
        }
        write!(f, "{} {}: {}", self.code, self.severity, self.message)
    }
}

/// The ordered collection of diagnostics one analysis produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty report.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Add a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// The diagnostics, in source order (after [`Diagnostics::sort`]).
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing was reported.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of `Error`-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.items.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of `Warning`-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.items.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// `true` when no diagnostic is an error.
    pub fn no_errors(&self) -> bool {
        self.error_count() == 0
    }

    /// `true` when nothing of `Warning` severity or above was reported —
    /// the bar the shipped example/test corpus is held to.
    pub fn is_clean(&self) -> bool {
        self.items.iter().all(|d| d.severity < Severity::Warning)
    }

    /// Sort by source position, then code, then subject (stable order for
    /// golden tests and rendered output).  The sort is stable: diagnostics
    /// equal on all three keep the order they were emitted in, which is the
    /// order validation checks in — so a statement's first `Error` is the
    /// one [`validate_rule`](crate::program::validate_rule) reports.
    pub fn sort(&mut self) {
        self.items.sort_by(|a, b| {
            (a.span.map(|s| (s.line, s.column)), a.code, &a.subject).cmp(&(
                b.span.map(|s| (s.line, s.column)),
                b.code,
                &b.subject,
            ))
        });
    }

    /// All distinct codes reported.
    pub fn codes(&self) -> Vec<DiagCode> {
        let mut out: Vec<DiagCode> = self.items.iter().map(|d| d.code).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Render as one line per diagnostic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.items {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }

    /// Render as a JSON array (hand-rolled; the workspace has no JSON
    /// dependency).  Each element carries `code`, `severity`, `line`,
    /// `column` (absent when the span is unknown), `subject` and `message`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"code\":\"{}\",\"severity\":\"{}\"", d.code, d.severity));
            if let Some(span) = d.span {
                out.push_str(&format!(",\"line\":{},\"column\":{}", span.line, span.column));
            }
            out.push_str(&format!(
                ",\"subject\":\"{}\",\"message\":\"{}\"}}",
                json_escape(&d.subject),
                json_escape(&d.message)
            ));
        }
        out.push(']');
        out
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Escape a string for embedding in a JSON literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let codes: Vec<&str> = DiagCode::all().iter().map(|c| c.code()).collect();
        assert_eq!(codes.len(), 11);
        let mut dedup = codes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len(), "codes must be unique");
        assert!(codes.iter().all(|c| c.starts_with("PL0")));
    }

    #[test]
    fn severity_ordering_supports_is_clean() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        let mut d = Diagnostics::new();
        assert!(d.is_clean());
        d.push(Diagnostic::new(DiagCode::DeadRule, None, "r", "dead"));
        assert!(!d.is_clean());
        assert!(d.no_errors());
        d.push(Diagnostic::new(DiagCode::IllFormed, Some(Span::new(3, 1)), "r", "bad"));
        assert!(!d.no_errors());
        assert_eq!(d.error_count(), 1);
        assert_eq!(d.warning_count(), 1);
    }

    #[test]
    fn sort_orders_by_span_then_code() {
        let mut d = Diagnostics::new();
        d.push(Diagnostic::new(DiagCode::DeadRule, Some(Span::new(5, 1)), "b", "m"));
        d.push(Diagnostic::new(DiagCode::IllFormed, Some(Span::new(2, 1)), "a", "m"));
        d.sort();
        assert_eq!(d.iter().next().unwrap().code, DiagCode::IllFormed);
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let mut d = Diagnostics::new();
        d.push(Diagnostic::new(DiagCode::IllFormed, Some(Span::new(1, 2)), "x\"y", "m"));
        let json = d.to_json();
        assert!(json.contains("\"code\":\"PL001\""));
        assert!(json.contains("\"line\":1"));
        assert!(json.contains("x\\\"y"));
    }

    #[test]
    fn display_includes_span_code_and_severity() {
        let d = Diagnostic::new(DiagCode::AlwaysEmptyLiteral, Some(Span::new(4, 7)), "r", "never holds");
        assert_eq!(d.to_string(), "4:7: PL006 warning: never holds");
    }
}
