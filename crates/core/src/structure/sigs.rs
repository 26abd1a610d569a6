//! Signature storage — typing declarations for methods.
//!
//! The paper points out (Section 2) that using methods to reference virtual
//! objects has the benefit that "the usage of methods can be controlled by
//! signatures in the same way as in \[KLW93\], which makes type checking
//! techniques applicable".  A signature declares, for members of a class, the
//! result classes of a method:
//!
//! * `person[age => integer]` — scalar method `age`, result in `integer`;
//! * `person[kids =>> person]` — set-valued method `kids`, members in `person`.
//!
//! Signatures are inherited by subclasses of the declaring class.  The type
//! checker lives in [`crate::typing`]; this module only stores declarations.

use super::cow::{CowVec, ShardMap};
use super::Oid;

/// One signature declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// The class whose members the signature constrains.
    pub class: Oid,
    /// The method being declared.
    pub method: Oid,
    /// Classes the call arguments must belong to (fixes the arity).
    pub arg_classes: Box<[Oid]>,
    /// Classes the result (each member, for set-valued methods) must belong to.
    pub result_classes: Vec<Oid>,
    /// `true` for `=>>` (set-valued), `false` for `=>` (scalar).
    pub set_valued: bool,
}

/// All signature declarations of a structure.
#[derive(Debug, Default, Clone)]
pub struct Signatures {
    sigs: CowVec<Signature>,
    by_method: ShardMap<Oid, CowVec<usize>>,
}

impl Signatures {
    /// No declarations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a declaration (duplicates are ignored).
    pub fn add(&mut self, sig: Signature) -> bool {
        if self.sigs.iter().any(|s| s == &sig) {
            return false;
        }
        let method = sig.method;
        self.by_method.get_or_default(method).push(self.sigs.len());
        self.sigs.push(sig);
        true
    }

    /// All declarations.
    pub fn iter(&self) -> impl Iterator<Item = &Signature> + '_ {
        self.sigs.iter()
    }

    /// Declarations for a method (any class, any arity).
    pub fn for_method(&self, method: Oid) -> impl Iterator<Item = &Signature> + '_ {
        self.by_method
            .get(&method)
            .map(CowVec::iter)
            .unwrap_or_default()
            .map(move |&i| &self.sigs[i])
    }

    /// `true` if any declaration exists for the method.
    pub fn declares_method(&self, method: Oid) -> bool {
        self.by_method.contains_key(&method)
    }

    /// Number of declarations.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// `true` if there are no declarations.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }
}

#[cfg(test)]
impl super::cow::Sharing for Signatures {
    fn parts(&self) -> Vec<*const ()> {
        [self.sigs.parts(), self.by_method.parts()].concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(i: u32) -> Oid {
        Oid(i)
    }

    fn sig(class: u32, method: u32, set: bool) -> Signature {
        Signature {
            class: o(class),
            method: o(method),
            arg_classes: Box::new([]),
            result_classes: vec![o(99)],
            set_valued: set,
        }
    }

    #[test]
    fn add_and_lookup() {
        let mut s = Signatures::new();
        assert!(s.is_empty());
        assert!(s.add(sig(1, 2, false)));
        assert!(!s.add(sig(1, 2, false)), "duplicates ignored");
        assert!(s.add(sig(1, 2, true)), "set/scalar are distinct declarations");
        assert_eq!(s.len(), 2);
        assert_eq!(s.for_method(o(2)).count(), 2);
        assert_eq!(s.for_method(o(3)).count(), 0);
        assert!(s.declares_method(o(2)));
        assert!(!s.declares_method(o(3)));
        assert_eq!(s.iter().count(), 2);
    }
}
