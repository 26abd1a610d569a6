//! References — paths and molecules (Definition 1 of the paper).
//!
//! A *reference* denotes objects.  The simplest references are names and
//! variables; a *path* applies a (scalar `.` or set-valued `..`) method to a
//! reference; a *molecule* attaches filters (`[m -> r]`, `[m ->> {..}]`,
//! `[m ->> set-ref]`, `: class`) to a reference.  Paths and molecules may be
//! nested mutually and arbitrarily deep, which is the source of PathLog's
//! expressiveness: the *first* dimension (depth) is given by composing method
//! applications, the *second* dimension (breadth) by filters on every object
//! referenced along a path.
//!
//! The module also provides the standard syntactic helpers used by the rest
//! of the crate: variable collection, groundness checks, sub-reference
//! traversal and a builder API that makes programmatic construction of
//! references readable (`Term::name("mary").scalar("spouse").filter(..)`).

use crate::names::{Name, Var};
use std::collections::BTreeSet;
use std::fmt;

/// The value side of a filter inside a molecule.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FilterValue {
    /// `m @ (args) -> r` — the scalar method result equals the object denoted
    /// by the (scalar) reference `r`.
    Scalar(Term),
    /// `m @ (args) ->> r` — the set-valued method result is a superset of the
    /// objects denoted by the *set-valued* reference `r` (Definition 4,
    /// item 7).
    SetRef(Term),
    /// `m @ (args) ->> {r1, ..., rl}` — the set-valued method result is a
    /// superset of the objects denoted by the scalar references `r1..rl`
    /// (Definition 4, item 8).
    SetExplicit(Vec<Term>),
    /// `m @ (args) => c` — scalar signature declaration (typing extension in
    /// the spirit of \[KLW93\]; the paper points out that signatures make
    /// type checking applicable to virtual objects).
    SigScalar(Vec<Term>),
    /// `m @ (args) =>> c` — set-valued signature declaration.
    SigSet(Vec<Term>),
}

/// One filter of a molecule: a method (with optional arguments) together with
/// a [`FilterValue`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Filter {
    /// The method position.  Definition 1 requires a *simple* reference here
    /// (a name, a variable or a parenthesised reference such as `(M.tc)`).
    pub method: Term,
    /// Arguments of the method call (`m @ (t1, ..., tk)`); empty for the
    /// common `m` shorthand.
    pub args: Vec<Term>,
    /// The value side of the filter.
    pub value: FilterValue,
}

impl Filter {
    /// A scalar filter `method -> value` without arguments.
    pub fn scalar(method: impl Into<Term>, value: impl Into<Term>) -> Self {
        Filter {
            method: method.into(),
            args: Vec::new(),
            value: FilterValue::Scalar(value.into()),
        }
    }

    /// A set filter `method ->> {values...}` without arguments.
    pub fn set(method: impl Into<Term>, values: Vec<Term>) -> Self {
        Filter {
            method: method.into(),
            args: Vec::new(),
            value: FilterValue::SetExplicit(values),
        }
    }

    /// A set filter `method ->> set_ref` without arguments, whose right-hand
    /// side is a set-valued reference.
    pub fn set_ref(method: impl Into<Term>, value: impl Into<Term>) -> Self {
        Filter {
            method: method.into(),
            args: Vec::new(),
            value: FilterValue::SetRef(value.into()),
        }
    }

    /// Attach call arguments to this filter's method.
    pub fn with_args(mut self, args: Vec<Term>) -> Self {
        self.args = args;
        self
    }
}

/// A path: `t0 . m @ (t1, ..., tk)` (scalar) or `t0 .. m @ (t1, ..., tk)`
/// (set-valued).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Path {
    /// The reference the method is applied to.
    pub receiver: Term,
    /// `true` for `..` (invocation of a set-valued method), `false` for `.`.
    pub set_valued: bool,
    /// The method position (a simple reference).
    pub method: Term,
    /// Call arguments; may themselves be arbitrary references (a set-valued
    /// argument makes the whole path set-valued, Definition 2).
    pub args: Vec<Term>,
}

/// A molecule: `t0 [ f1 ; ... ; fn ]`.  A molecule with an empty filter list
/// denotes the same objects as its receiver.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Molecule {
    /// The reference the filters are applied to.
    pub receiver: Term,
    /// The filters; all apply to the receiver (the paper's
    /// `mary[age->30; boss->peter]` shorthand).
    pub filters: Vec<Filter>,
}

/// A class-membership molecule: `t0 : c`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IsA {
    /// The reference whose membership is asserted/tested.
    pub receiver: Term,
    /// The class position (a simple, scalar reference).
    pub class: Term,
}

/// A PathLog reference (Definition 1).  References simultaneously act as
/// terms (they denote a set of objects, Definition 4) and as formulas (they
/// are entailed iff they denote at least one object, Definition 5).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A name — a simple reference.
    Name(Name),
    /// A variable — a simple reference.
    Var(Var),
    /// A parenthesised reference `(t)` — also counts as a *simple* reference
    /// and is used to override the left-to-right reading of a path, e.g.
    /// `L : (integer.list)`.
    Paren(Box<Term>),
    /// A path `t0.m@(..)` / `t0..m@(..)`.
    Path(Box<Path>),
    /// A molecule `t0[..]`.
    Molecule(Box<Molecule>),
    /// A class-membership molecule `t0 : c`.
    IsA(Box<IsA>),
}

impl Term {
    /// A name reference.
    pub fn name(n: impl Into<Name>) -> Self {
        Term::Name(n.into())
    }

    /// An integer-name reference.
    pub fn int(i: i64) -> Self {
        Term::Name(Name::Int(i))
    }

    /// A string-name reference.
    pub fn string(s: impl AsRef<str>) -> Self {
        Term::Name(Name::string(s))
    }

    /// A variable reference.
    pub fn var(v: impl Into<String>) -> Self {
        Term::Var(Var::new(v))
    }

    /// Wrap this reference in parentheses (`(t)`), turning any reference into
    /// a *simple* one — this is how `kids.tc` can be used at a method
    /// position: `X[(M.tc) ->> {Y}]`.
    pub fn paren(self) -> Self {
        Term::Paren(Box::new(self))
    }

    /// Apply a scalar method: `self . method`.
    pub fn scalar(self, method: impl Into<Term>) -> Self {
        Term::Path(Box::new(Path {
            receiver: self,
            set_valued: false,
            method: method.into(),
            args: Vec::new(),
        }))
    }

    /// Apply a scalar method with arguments: `self . method @ (args)`.
    pub fn scalar_args(self, method: impl Into<Term>, args: Vec<Term>) -> Self {
        Term::Path(Box::new(Path {
            receiver: self,
            set_valued: false,
            method: method.into(),
            args,
        }))
    }

    /// Apply a set-valued method: `self .. method`.
    pub fn set(self, method: impl Into<Term>) -> Self {
        Term::Path(Box::new(Path {
            receiver: self,
            set_valued: true,
            method: method.into(),
            args: Vec::new(),
        }))
    }

    /// Apply a set-valued method with arguments: `self .. method @ (args)`.
    pub fn set_args(self, method: impl Into<Term>, args: Vec<Term>) -> Self {
        Term::Path(Box::new(Path {
            receiver: self,
            set_valued: true,
            method: method.into(),
            args,
        }))
    }

    /// Attach a single filter, producing a molecule.  Successive calls
    /// accumulate filters on the same receiver (`mary[age->30][boss->peter]`
    /// is the same molecule as `mary[age->30; boss->peter]`).
    pub fn filter(self, filter: Filter) -> Self {
        match self {
            Term::Molecule(mut m) => {
                m.filters.push(filter);
                Term::Molecule(m)
            }
            other => Term::Molecule(Box::new(Molecule {
                receiver: other,
                filters: vec![filter],
            })),
        }
    }

    /// Attach several filters at once.
    pub fn filters(self, filters: Vec<Filter>) -> Self {
        filters.into_iter().fold(self, Term::filter)
    }

    /// Attach an empty filter list (`t[]`), which merely asserts that the
    /// receiver denotes an object.
    pub fn empty_filters(self) -> Self {
        match self {
            Term::Molecule(m) => Term::Molecule(m),
            other => Term::Molecule(Box::new(Molecule {
                receiver: other,
                filters: Vec::new(),
            })),
        }
    }

    /// Class membership `self : class`.
    pub fn isa(self, class: impl Into<Term>) -> Self {
        Term::IsA(Box::new(IsA {
            receiver: self,
            class: class.into(),
        }))
    }

    /// The XSQL-style selector `t[X]`, an abbreviation for `t[self -> X]`
    /// (Section 4.1 of the paper).
    pub fn selector(self, var: impl Into<Term>) -> Self {
        self.filter(Filter::scalar(Term::name(crate::builtins::SELF_METHOD), var))
    }

    /// Is this a *simple* reference (name, variable, or parenthesised
    /// reference)?  Simple references are the only ones allowed at method and
    /// class positions (Definition 1).
    pub fn is_simple(&self) -> bool {
        matches!(self, Term::Name(_) | Term::Var(_) | Term::Paren(_))
    }

    /// Collect the variables occurring anywhere in this reference, in
    /// left-to-right order of first occurrence.
    pub fn variables(&self) -> Vec<Var> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        self.collect_variables(&mut out, &mut seen);
        out
    }

    fn collect_variables(&self, out: &mut Vec<Var>, seen: &mut BTreeSet<Var>) {
        match self {
            Term::Name(_) => {}
            Term::Var(v) => {
                if seen.insert(v.clone()) {
                    out.push(v.clone());
                }
            }
            Term::Paren(t) => t.collect_variables(out, seen),
            Term::Path(p) => {
                p.receiver.collect_variables(out, seen);
                p.method.collect_variables(out, seen);
                for a in &p.args {
                    a.collect_variables(out, seen);
                }
            }
            Term::Molecule(m) => {
                m.receiver.collect_variables(out, seen);
                for f in &m.filters {
                    f.method.collect_variables(out, seen);
                    for a in &f.args {
                        a.collect_variables(out, seen);
                    }
                    match &f.value {
                        FilterValue::Scalar(t) | FilterValue::SetRef(t) => t.collect_variables(out, seen),
                        FilterValue::SetExplicit(ts) | FilterValue::SigScalar(ts) | FilterValue::SigSet(ts) => {
                            for t in ts {
                                t.collect_variables(out, seen);
                            }
                        }
                    }
                }
            }
            Term::IsA(i) => {
                i.receiver.collect_variables(out, seen);
                i.class.collect_variables(out, seen);
            }
        }
    }

    /// `true` if the reference contains no variables.
    pub fn is_ground(&self) -> bool {
        self.variables().is_empty()
    }

    /// Collect every name occurring in this reference.
    pub fn names(&self) -> Vec<Name> {
        let mut out = Vec::new();
        self.visit(&mut |t| {
            if let Term::Name(n) = t {
                out.push(n.clone());
            }
        });
        out
    }

    /// Visit this reference and all of its sub-references, pre-order.
    pub fn visit<'a>(&'a self, f: &mut dyn FnMut(&'a Term)) {
        f(self);
        match self {
            Term::Name(_) | Term::Var(_) => {}
            Term::Paren(t) => t.visit(f),
            Term::Path(p) => {
                p.receiver.visit(f);
                p.method.visit(f);
                for a in &p.args {
                    a.visit(f);
                }
            }
            Term::Molecule(m) => {
                m.receiver.visit(f);
                for fl in &m.filters {
                    fl.method.visit(f);
                    for a in &fl.args {
                        a.visit(f);
                    }
                    match &fl.value {
                        FilterValue::Scalar(t) | FilterValue::SetRef(t) => t.visit(f),
                        FilterValue::SetExplicit(ts) | FilterValue::SigScalar(ts) | FilterValue::SigSet(ts) => {
                            for t in ts {
                                t.visit(f);
                            }
                        }
                    }
                }
            }
            Term::IsA(i) => {
                i.receiver.visit(f);
                i.class.visit(f);
            }
        }
    }

    /// The innermost receiver of a chain of paths/molecules — the "anchor"
    /// from which evaluation starts, e.g. `X` in
    /// `X:employee[age->30]..vehicles.color[Z]`.
    pub fn anchor(&self) -> &Term {
        match self {
            Term::Name(_) | Term::Var(_) | Term::Paren(_) => self,
            Term::Path(p) => p.receiver.anchor(),
            Term::Molecule(m) => m.receiver.anchor(),
            Term::IsA(i) => i.receiver.anchor(),
        }
    }

    /// Number of nodes in the reference tree (used by tests and limits).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }
}

impl From<Name> for Term {
    fn from(n: Name) -> Self {
        Term::Name(n)
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}

impl From<&str> for Term {
    fn from(s: &str) -> Self {
        Term::Name(Name::atom(s))
    }
}

impl From<i64> for Term {
    fn from(i: i64) -> Self {
        Term::Name(Name::Int(i))
    }
}

// ---------------------------------------------------------------------------
// Pretty printing: the concrete syntax accepted by `pathlog-parser`.
// ---------------------------------------------------------------------------

fn fmt_args(f: &mut fmt::Formatter<'_>, args: &[Term]) -> fmt::Result {
    if args.is_empty() {
        return Ok(());
    }
    write!(f, "@(")?;
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{a}")?;
    }
    write!(f, ")")
}

fn fmt_list(f: &mut fmt::Formatter<'_>, ts: &[Term]) -> fmt::Result {
    for (i, t) in ts.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{t}")?;
    }
    Ok(())
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.method)?;
        fmt_args(f, &self.args)?;
        match &self.value {
            FilterValue::Scalar(t) => write!(f, " -> {t}"),
            FilterValue::SetRef(t) => write!(f, " ->> {t}"),
            FilterValue::SetExplicit(ts) => {
                write!(f, " ->> {{")?;
                fmt_list(f, ts)?;
                write!(f, "}}")
            }
            FilterValue::SigScalar(ts) => {
                write!(f, " => ")?;
                if ts.len() == 1 {
                    write!(f, "{}", ts[0])
                } else {
                    write!(f, "(")?;
                    fmt_list(f, ts)?;
                    write!(f, ")")
                }
            }
            FilterValue::SigSet(ts) => {
                write!(f, " =>> ")?;
                if ts.len() == 1 {
                    write!(f, "{}", ts[0])
                } else {
                    write!(f, "(")?;
                    fmt_list(f, ts)?;
                    write!(f, ")")
                }
            }
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Name(n) => write!(f, "{n}"),
            Term::Var(v) => write!(f, "{v}"),
            Term::Paren(t) => write!(f, "({t})"),
            Term::Path(p) => {
                write!(f, "{}", p.receiver)?;
                write!(f, "{}", if p.set_valued { ".." } else { "." })?;
                write!(f, "{}", p.method)?;
                fmt_args(f, &p.args)
            }
            Term::Molecule(m) => {
                write!(f, "{}", m.receiver)?;
                write!(f, "[")?;
                for (i, fl) in m.filters.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{fl}")?;
                }
                write!(f, "]")
            }
            Term::IsA(i) => {
                write!(f, "{} : {}", i.receiver, i.class)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_2_1() -> Term {
        // X:employee[age->30; city->newYork]..vehicles:automobile[cylinders->4].color[Z]
        Term::var("X")
            .isa("employee")
            .filters(vec![
                Filter::scalar("age", Term::int(30)),
                Filter::scalar("city", "newYork"),
            ])
            .set("vehicles")
            .isa("automobile")
            .filter(Filter::scalar("cylinders", Term::int(4)))
            .scalar("color")
            .selector(Term::var("Z"))
    }

    #[test]
    fn builder_produces_expected_shape() {
        let t = example_2_1();
        // The outermost node is the selector molecule around `.color`.
        match &t {
            Term::Molecule(m) => {
                assert_eq!(m.filters.len(), 1);
                assert!(matches!(m.receiver, Term::Path(_)));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
        assert_eq!(t.anchor(), &Term::var("X"));
    }

    #[test]
    fn variables_in_order_of_first_occurrence() {
        let t = example_2_1();
        assert_eq!(t.variables(), vec![Var::new("X"), Var::new("Z")]);
        assert!(!t.is_ground());
        assert!(Term::name("mary").scalar("spouse").is_ground());
    }

    #[test]
    fn display_roundtrips_simple_forms() {
        assert_eq!(Term::name("mary").scalar("spouse").to_string(), "mary.spouse");
        assert_eq!(Term::name("p1").set("assistants").to_string(), "p1..assistants");
        assert_eq!(
            Term::name("mary")
                .scalar("spouse")
                .filter(Filter::scalar("boss", "mary"))
                .scalar("age")
                .to_string(),
            "mary.spouse[boss -> mary].age"
        );
        assert_eq!(
            Term::var("L")
                .isa(Term::name("integer").scalar("list").paren())
                .to_string(),
            "L : (integer.list)"
        );
    }

    #[test]
    fn display_filters_and_sets() {
        let t = Term::name("p2").filter(Filter::set("friends", vec![Term::name("p3"), Term::name("p4")]));
        assert_eq!(t.to_string(), "p2[friends ->> {p3, p4}]");
        let t = Term::name("p2").filter(Filter::set_ref("friends", Term::name("p1").set("assistants")));
        assert_eq!(t.to_string(), "p2[friends ->> p1..assistants]");
    }

    #[test]
    fn display_args() {
        let t = Term::name("john").scalar_args("salary", vec![Term::int(1994)]);
        assert_eq!(t.to_string(), "john.salary@(1994)");
        let t = Term::name("p1").scalar_args("paidFor", vec![Term::name("p1").set("vehicles")]);
        assert_eq!(t.to_string(), "p1.paidFor@(p1..vehicles)");
    }

    #[test]
    fn selector_desugars_to_self() {
        let t = Term::var("X").set("vehicles").scalar("color").selector(Term::var("Z"));
        let printed = t.to_string();
        assert!(printed.contains("self -> Z"), "{printed}");
    }

    #[test]
    fn filter_accumulation_matches_filter_list() {
        let a = Term::name("mary")
            .filter(Filter::scalar("age", Term::int(30)))
            .filter(Filter::scalar("boss", "peter"));
        let b = Term::name("mary").filters(vec![
            Filter::scalar("age", Term::int(30)),
            Filter::scalar("boss", "peter"),
        ]);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "mary[age -> 30; boss -> peter]");
    }

    #[test]
    fn is_simple_classification() {
        assert!(Term::name("a").is_simple());
        assert!(Term::var("X").is_simple());
        assert!(Term::name("kids").scalar("tc").paren().is_simple());
        assert!(!Term::name("kids").scalar("tc").is_simple());
        assert!(!Term::name("a").filter(Filter::scalar("m", "b")).is_simple());
    }

    #[test]
    fn size_and_names() {
        let t = example_2_1();
        assert!(t.size() >= 10);
        let names = t.names();
        assert!(names.contains(&Name::atom("employee")));
        assert!(names.contains(&Name::int(30)));
        assert!(names.contains(&Name::atom("color")));
    }

    #[test]
    fn empty_filter_list_display() {
        let t = Term::name("john").scalar("spouse").empty_filters();
        assert_eq!(t.to_string(), "john.spouse[]");
    }

    #[test]
    fn isa_receiver_prints_as_postfix_chain() {
        // `X : employee.age` reads as "the age of X, an employee" — class
        // positions are restricted to simple references (Definition 1), so
        // the postfix chain is unambiguous and no parentheses are needed.
        let t = Term::var("X").isa("employee").scalar("age");
        assert_eq!(t.to_string(), "X : employee.age");
    }
}
