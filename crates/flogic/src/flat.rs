//! Flat F-logic molecules.
//!
//! The target language of the translation has no nesting at all: every
//! position of an atom is a [`FlatTerm`] — a name, a variable or a skolem
//! function term.  This is the fragment of F-logic that XSQL's sketched
//! semantics reduces to, and it is what PathLog's direct semantics makes
//! unnecessary to spell out.

use std::fmt;

use pathlog_core::names::{Name, Var};

/// A skolem function term `f(t1, ..., tk)`.
///
/// F-logic needs these to give identity to view objects ("the view's name
/// simultaneously serves as a function symbol", Section 6 on XSQL's
/// `EmployeeBoss(p1)`); PathLog replaces them by methods.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SkolemTerm {
    /// The function symbol.
    pub functor: String,
    /// The argument terms.
    pub args: Vec<FlatTerm>,
}

impl SkolemTerm {
    /// Build a skolem term.
    pub fn new(functor: impl Into<String>, args: Vec<FlatTerm>) -> Self {
        SkolemTerm {
            functor: functor.into(),
            args,
        }
    }
}

impl fmt::Display for SkolemTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.functor)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// A position in a flat atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FlatTerm {
    /// A constant name.
    Name(Name),
    /// A variable (either from the source reference or an auxiliary `_P<n>`
    /// variable introduced for a path step).
    Var(Var),
    /// A skolem function term.
    Skolem(Box<SkolemTerm>),
}

impl FlatTerm {
    /// A name term.
    pub fn name(n: impl Into<Name>) -> Self {
        FlatTerm::Name(n.into())
    }

    /// A variable term.
    pub fn var(v: impl Into<String>) -> Self {
        FlatTerm::Var(Var::new(v))
    }

    /// A skolem term.
    pub fn skolem(functor: impl Into<String>, args: Vec<FlatTerm>) -> Self {
        FlatTerm::Skolem(Box::new(SkolemTerm::new(functor, args)))
    }

    /// All variables occurring in the term, in order of first occurrence.
    pub fn variables(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.collect_variables(&mut out);
        out
    }

    fn collect_variables(&self, out: &mut Vec<Var>) {
        match self {
            FlatTerm::Name(_) => {}
            FlatTerm::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            FlatTerm::Skolem(s) => {
                for a in &s.args {
                    a.collect_variables(out);
                }
            }
        }
    }
}

impl fmt::Display for FlatTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlatTerm::Name(n) => write!(f, "{n}"),
            FlatTerm::Var(v) => write!(f, "{v}"),
            FlatTerm::Skolem(s) => write!(f, "{s}"),
        }
    }
}

impl From<Name> for FlatTerm {
    fn from(n: Name) -> Self {
        FlatTerm::Name(n)
    }
}

impl From<Var> for FlatTerm {
    fn from(v: Var) -> Self {
        FlatTerm::Var(v)
    }
}

/// One flat data molecule.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FlatAtom {
    /// `receiver[method@(args) -> result]`.
    Scalar {
        /// Receiver position.
        receiver: FlatTerm,
        /// Method position.
        method: FlatTerm,
        /// Call arguments.
        args: Vec<FlatTerm>,
        /// The scalar result.
        result: FlatTerm,
    },
    /// `receiver[method@(args) ->> {member}]` — one member of the set result.
    SetMember {
        /// Receiver position.
        receiver: FlatTerm,
        /// Method position.
        method: FlatTerm,
        /// Call arguments.
        args: Vec<FlatTerm>,
        /// One member of the result set.
        member: FlatTerm,
    },
    /// `receiver : class`.
    IsA {
        /// The object whose membership is stated.
        receiver: FlatTerm,
        /// The class.
        class: FlatTerm,
    },
}

impl FlatAtom {
    /// A scalar atom without arguments.
    pub fn scalar(receiver: FlatTerm, method: FlatTerm, result: FlatTerm) -> Self {
        FlatAtom::Scalar {
            receiver,
            method,
            args: Vec::new(),
            result,
        }
    }

    /// A set-membership atom without arguments.
    pub fn member(receiver: FlatTerm, method: FlatTerm, member: FlatTerm) -> Self {
        FlatAtom::SetMember {
            receiver,
            method,
            args: Vec::new(),
            member,
        }
    }

    /// A class-membership atom.
    pub fn isa(receiver: FlatTerm, class: FlatTerm) -> Self {
        FlatAtom::IsA { receiver, class }
    }

    /// All variables of the atom, in order of first occurrence.
    pub fn variables(&self) -> Vec<Var> {
        let mut out = Vec::new();
        let mut push = |t: &FlatTerm| {
            for v in t.variables() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        };
        match self {
            FlatAtom::Scalar {
                receiver,
                method,
                args,
                result,
            } => {
                push(receiver);
                push(method);
                args.iter().for_each(&mut push);
                push(result);
            }
            FlatAtom::SetMember {
                receiver,
                method,
                args,
                member,
            } => {
                push(receiver);
                push(method);
                args.iter().for_each(&mut push);
                push(member);
            }
            FlatAtom::IsA { receiver, class } => {
                push(receiver);
                push(class);
            }
        }
        out
    }
}

fn fmt_call(f: &mut fmt::Formatter<'_>, method: &FlatTerm, args: &[FlatTerm]) -> fmt::Result {
    write!(f, "{method}")?;
    if !args.is_empty() {
        write!(f, "@(")?;
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")?;
    }
    Ok(())
}

impl fmt::Display for FlatAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlatAtom::Scalar {
                receiver,
                method,
                args,
                result,
            } => {
                write!(f, "{receiver}[")?;
                fmt_call(f, method, args)?;
                write!(f, " -> {result}]")
            }
            FlatAtom::SetMember {
                receiver,
                method,
                args,
                member,
            } => {
                write!(f, "{receiver}[")?;
                fmt_call(f, method, args)?;
                write!(f, " ->> {{{member}}}]")
            }
            FlatAtom::IsA { receiver, class } => write!(f, "{receiver} : {class}"),
        }
    }
}

/// A body literal of a flat rule or query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlatLiteral {
    /// A positive atom.
    Pos(FlatAtom),
    /// The negation of an existentially quantified *conjunction*.
    ///
    /// PathLog negates whole references; flattening one reference yields a
    /// conjunction of atoms, so its negation scopes over the group (auxiliary
    /// variables are existential inside the group).
    NegGroup(Vec<FlatAtom>),
}

impl FlatLiteral {
    /// Number of atoms in the literal.
    pub fn atom_count(&self) -> usize {
        match self {
            FlatLiteral::Pos(_) => 1,
            FlatLiteral::NegGroup(g) => g.len(),
        }
    }
}

impl fmt::Display for FlatLiteral {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlatLiteral::Pos(a) => write!(f, "{a}"),
            FlatLiteral::NegGroup(g) => {
                write!(f, "not (")?;
                for (i, a) in g.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A flat rule: a conjunction of head atoms derived from a conjunction of
/// body literals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatRule {
    /// Atoms asserted when the body holds.
    pub head: Vec<FlatAtom>,
    /// The body.
    pub body: Vec<FlatLiteral>,
}

impl FlatRule {
    /// A rule.
    pub fn new(head: Vec<FlatAtom>, body: Vec<FlatLiteral>) -> Self {
        FlatRule { head, body }
    }

    /// A fact (empty body).
    pub fn fact(head: Vec<FlatAtom>) -> Self {
        FlatRule { head, body: Vec::new() }
    }

    /// Total number of atoms (head + body).
    pub fn atom_count(&self) -> usize {
        self.head.len() + self.body.iter().map(FlatLiteral::atom_count).sum::<usize>()
    }
}

impl fmt::Display for FlatRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        if !self.body.is_empty() {
            write!(f, " <- ")?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{l}")?;
            }
        }
        write!(f, ".")
    }
}

/// A flat query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatQuery {
    /// The body to satisfy.
    pub body: Vec<FlatLiteral>,
    /// The variables of the original PathLog query (auxiliary variables are
    /// projected away from answers).
    pub answer_variables: Vec<Var>,
}

impl FlatQuery {
    /// Total number of atoms in the body.
    pub fn atom_count(&self) -> usize {
        self.body.iter().map(FlatLiteral::atom_count).sum()
    }
}

impl fmt::Display for FlatQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?- ")?;
        for (i, l) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ".")
    }
}

/// A flat program: the translation image of a PathLog program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlatProgram {
    /// The rules (including facts).
    pub rules: Vec<FlatRule>,
    /// The queries.
    pub queries: Vec<FlatQuery>,
}

impl FlatProgram {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of atoms across all rules and queries — the measure of
    /// how much a one-reference PathLog formulation expands when flattened.
    pub fn atom_count(&self) -> usize {
        self.rules.iter().map(FlatRule::atom_count).sum::<usize>()
            + self.queries.iter().map(FlatQuery::atom_count).sum::<usize>()
    }
}

impl fmt::Display for FlatProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        for q in &self.queries {
            writeln!(f, "{q}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> FlatTerm {
        FlatTerm::var("X")
    }

    #[test]
    fn skolem_display_and_variables() {
        let sk = FlatTerm::skolem("address", vec![FlatTerm::name("mary")]);
        assert_eq!(sk.to_string(), "address(mary)");
        assert!(sk.variables().is_empty());
        let sk2 = FlatTerm::skolem("address", vec![x()]);
        assert_eq!(sk2.variables(), vec![Var::new("X")]);
    }

    #[test]
    fn atom_display_forms() {
        let a = FlatAtom::scalar(x(), FlatTerm::name("age"), FlatTerm::name(Name::int(30)));
        assert_eq!(a.to_string(), "X[age -> 30]");
        let b = FlatAtom::member(x(), FlatTerm::name("kids"), FlatTerm::var("Y"));
        assert_eq!(b.to_string(), "X[kids ->> {Y}]");
        let c = FlatAtom::isa(x(), FlatTerm::name("employee"));
        assert_eq!(c.to_string(), "X : employee");
    }

    #[test]
    fn atom_display_with_args() {
        let a = FlatAtom::Scalar {
            receiver: FlatTerm::name("john"),
            method: FlatTerm::name("salary"),
            args: vec![FlatTerm::name(Name::int(1994))],
            result: FlatTerm::var("S"),
        };
        assert_eq!(a.to_string(), "john[salary@(1994) -> S]");
    }

    #[test]
    fn atom_variables_in_order() {
        let a = FlatAtom::Scalar {
            receiver: FlatTerm::var("A"),
            method: FlatTerm::var("M"),
            args: vec![FlatTerm::var("B")],
            result: FlatTerm::skolem("f", vec![FlatTerm::var("A"), FlatTerm::var("C")]),
        };
        let vars: Vec<String> = a.variables().iter().map(|v| v.name().to_string()).collect();
        assert_eq!(vars, vec!["A", "M", "B", "C"]);
    }

    #[test]
    fn rule_display_and_atom_count() {
        let head = vec![FlatAtom::scalar(x(), FlatTerm::name("power"), FlatTerm::var("Y"))];
        let body = vec![
            FlatLiteral::Pos(FlatAtom::isa(x(), FlatTerm::name("automobile"))),
            FlatLiteral::Pos(FlatAtom::scalar(x(), FlatTerm::name("engine"), FlatTerm::var("E"))),
            FlatLiteral::Pos(FlatAtom::scalar(
                FlatTerm::var("E"),
                FlatTerm::name("power"),
                FlatTerm::var("Y"),
            )),
        ];
        let rule = FlatRule::new(head, body);
        assert_eq!(
            rule.to_string(),
            "X[power -> Y] <- X : automobile, X[engine -> E], E[power -> Y]."
        );
        assert_eq!(rule.atom_count(), 4);
    }

    #[test]
    fn negative_groups_display_as_one_literal() {
        let neg = FlatLiteral::NegGroup(vec![FlatAtom::scalar(
            x(),
            FlatTerm::name("spouse"),
            FlatTerm::var("S"),
        )]);
        assert_eq!(neg.atom_count(), 1);
        assert_eq!(neg.to_string(), "not (X[spouse -> S])");
    }

    #[test]
    fn facts_and_program_counts() {
        let fact = FlatRule::fact(vec![FlatAtom::isa(FlatTerm::name("p1"), FlatTerm::name("employee"))]);
        assert!(fact.body.is_empty());
        let mut prog = FlatProgram::new();
        prog.rules.push(fact);
        prog.queries.push(FlatQuery {
            body: vec![FlatLiteral::Pos(FlatAtom::isa(x(), FlatTerm::name("employee")))],
            answer_variables: vec![Var::new("X")],
        });
        assert_eq!(prog.atom_count(), 2);
        let text = prog.to_string();
        assert!(text.contains("p1 : employee."));
        assert!(text.contains("?- X : employee."));
    }
}
