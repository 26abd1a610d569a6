//! Names and variables — the alphabet of PathLog (Section 3 of the paper).
//!
//! The alphabet consists of a set of names `N` (which, for simplicity, also
//! contains integers and strings: the paper does not distinguish objects from
//! values) and a set of variables `V`.  Names denote objects through the name
//! interpretation `I_N`; variables are assigned objects by a
//! variable-valuation.
//!
//! **Shared text.**  A program text is mostly names, and a name is copied
//! at every layer it passes: into the parsed terms, the analyzer's
//! dependency keys, the name table, change events.  So the text of an atom,
//! a string and a variable sits behind one `Arc<str>`, and a copy is a
//! reference-count bump.  The parser interns each distinct spelling once
//! per text, so every occurrence of a name in a parsed program shares one
//! allocation (see `pathlog_parser`).  `Hash`, `Eq`, `Ord` and `Display`
//! see only the `str`: a name hashes, compares, orders and prints exactly as
//! its text does, whichever allocation holds it.

use std::fmt;
use std::sync::Arc;

/// A name from the alphabet `N`.
///
/// Names denote objects via `I_N` (see
/// [`Structure`](crate::structure::Structure)).  Because the paper folds
/// values into the set of names, integers and strings are names too.
/// Cloning a name never copies its text (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Name {
    /// A symbolic name such as `employee`, `mary` or `color`.
    Atom(Arc<str>),
    /// An integer literal such as `4` or `1994`.
    Int(i64),
    /// A string literal such as `"red"`.
    Str(Arc<str>),
}

impl Name {
    /// Construct an atomic (symbolic) name.
    pub fn atom(s: impl AsRef<str>) -> Self {
        Name::Atom(Arc::from(s.as_ref()))
    }

    /// Construct an integer name.
    pub fn int(i: i64) -> Self {
        Name::Int(i)
    }

    /// Construct a string name.
    pub fn string(s: impl AsRef<str>) -> Self {
        Name::Str(Arc::from(s.as_ref()))
    }

    /// The symbolic text of an atom, if this name is an atom.
    pub fn as_atom(&self) -> Option<&str> {
        match self {
            Name::Atom(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value, if this name is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Name::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The address of an atom's or a string's shared text, tagged with the
    /// kind in the low bit (an `Arc`'s allocation is word-aligned); `None`
    /// for an integer.  Occurrences of a spelling the parser shares have one
    /// address, so while they live it identifies the name without reading
    /// the text — a key the program makes, for caches under a fast hash.
    pub(crate) fn text_address(&self) -> Option<u64> {
        let address = |s: &Arc<str>, tag: u64| Arc::as_ptr(s).cast::<u8>() as usize as u64 | tag;
        match self {
            Name::Atom(s) => Some(address(s, 0)),
            Name::Str(s) => Some(address(s, 1)),
            Name::Int(_) => None,
        }
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Name::Atom(s) => write!(f, "{s}"),
            Name::Int(i) => write!(f, "{i}"),
            Name::Str(s) => write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        }
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name::atom(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name::Atom(s.into())
    }
}

impl From<i64> for Name {
    fn from(i: i64) -> Self {
        Name::Int(i)
    }
}

/// A variable from the alphabet `V`.  Variables are capitalised in the
/// concrete syntax (`X`, `Boss`, `Z2`).
///
/// The name is stored behind an `Arc<str>` so that cloning a variable — and
/// with it a whole variable-valuation, which the engine's join loops do per
/// answer — is a reference-count bump instead of a string allocation.
/// Ordering, equality and hashing still compare the textual name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub Arc<str>);

impl Var {
    /// Construct a variable from its textual name.
    pub fn new(s: impl Into<String>) -> Self {
        Var(Arc::from(s.into()))
    }

    /// The textual name of the variable.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var(Arc::from(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_atom_int_string() {
        assert_eq!(Name::atom("employee").to_string(), "employee");
        assert_eq!(Name::int(4).to_string(), "4");
        assert_eq!(Name::string("red").to_string(), "\"red\"");
    }

    #[test]
    fn display_string_escapes_quotes() {
        assert_eq!(Name::string("a\"b").to_string(), "\"a\\\"b\"");
        assert_eq!(Name::string("a\\b").to_string(), "\"a\\\\b\"");
    }

    #[test]
    fn accessors() {
        assert_eq!(Name::atom("x").as_atom(), Some("x"));
        assert_eq!(Name::int(7).as_atom(), None);
        assert_eq!(Name::int(7).as_int(), Some(7));
        assert_eq!(Name::atom("x").as_int(), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(Name::from("mary"), Name::atom("mary"));
        assert_eq!(Name::from(30), Name::int(30));
        assert_eq!(Var::from("X"), Var::new("X"));
        assert_eq!(Var::new("Boss").name(), "Boss");
    }

    #[test]
    fn names_order_and_hash_consistently() {
        use std::collections::BTreeSet;
        let mut s = BTreeSet::new();
        s.insert(Name::atom("a"));
        s.insert(Name::int(1));
        s.insert(Name::string("a"));
        s.insert(Name::atom("a"));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn shared_text_hashes_orders_and_prints_as_its_str() {
        use std::hash::BuildHasher;
        let hasher = std::collections::hash_map::RandomState::new();
        // What a `String`-holding name hashed: the same bytes, the same hash.
        #[derive(Hash)]
        #[allow(dead_code)]
        enum Owned {
            Atom(String),
            Int(i64),
            Str(String),
        }
        let shared = Name::Atom(Arc::from("employee"));
        assert_eq!(
            hasher.hash_one(&shared),
            hasher.hash_one(Owned::Atom("employee".into()))
        );
        assert_eq!(shared, Name::atom(String::from("employee")));
        assert!(Name::atom("b") > Name::atom("a") && Name::atom("z") < Name::int(0));
        assert!(Name::int(0) < Name::string("a"));
    }
}
