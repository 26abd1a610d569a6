//! The PathLog image of an [`ObjectStore`](crate::ObjectStore).
//!
//! The constraint guard checks commits against, and the serving layer
//! publishes snapshots of, one [`Structure`] that starts as
//! [`ObjectStore::to_structure`](crate::ObjectStore::to_structure) and is
//! then kept current by the store's own mutators: each of them applies its
//! one change through the per-change methods below, the one implementation
//! of the change → structure mapping.  (`to_structure` maps whole stores
//! with code of its own, tuned for bulk; `tests/properties_serving.rs`
//! holds the two to the same facts.)

use pathlog_core::prelude::*;

use crate::store::ObjectStore;
use crate::Value;

/// A [`Structure`] image of an object store, owned by the store (see
/// [`ObjectStore::image`]) and updated where the store mutates.
///
/// The image's facts are always exactly those of
/// [`ObjectStore::to_structure`] — oid *assignment* may differ (interning
/// is append-only, so the name of a superseded value stays in the table,
/// still classified into its value class), but `canonical_dump()` is
/// insertion-order invariant, so the images of two stores with the same
/// history are bit-identical at the dump level.
#[derive(Debug, Clone)]
pub struct StoreImage {
    structure: Structure,
}

impl StoreImage {
    /// Build the image of `store`'s current contents from scratch.
    pub fn of_store(store: &ObjectStore) -> Self {
        StoreImage {
            structure: store.to_structure(),
        }
    }

    /// The image structure.
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// Intern a store value, classifying literals into the pseudo value
    /// classes exactly like [`ObjectStore::to_structure`].
    pub(crate) fn intern(&mut self, value: &Value) -> Oid {
        let oid = self.structure.ensure_name(&value.to_name());
        let class = match value {
            Value::Int(_) => Some("integer"),
            Value::Str(_) => Some("string"),
            Value::Atom(_) => Some("atom"),
            Value::Ref(_) => None,
        };
        if let Some(class) = class {
            let c = self.structure.atom(class);
            self.structure.add_isa(oid, c);
        }
        oid
    }

    /// Intern a plain atom (method or receiver name).
    pub(crate) fn atom(&mut self, name: &str) -> Oid {
        self.structure.atom(name)
    }

    // -- one method per store mutator ---------------------------------------

    /// [`ObjectStore::create`]: a new object, member of `classes` (its own
    /// class and every superclass — the hierarchy is flattened).
    pub(crate) fn create<'a>(&mut self, name: &str, classes: impl Iterator<Item = &'a str>) {
        let o = self.structure.atom(name);
        for class in classes {
            let c = self.structure.atom(class);
            self.structure.add_isa(o, c);
        }
    }

    /// [`ObjectStore::set`]: `obj[attr -> value]`, replacing the old value.
    pub(crate) fn set_scalar(&mut self, obj: &str, attr: &str, value: &Value) {
        let m = self.structure.atom(attr);
        let r = self.structure.atom(obj);
        let v = self.intern(value);
        self.structure.retract_scalar(m, r, &[]);
        self.structure
            .assert_scalar(m, r, &[], v)
            .expect("the previous scalar value was just retracted");
    }

    /// [`ObjectStore::clear`]: `obj` loses its `attr` value.
    pub(crate) fn clear_scalar(&mut self, obj: &str, attr: &str) {
        let m = self.structure.atom(attr);
        let r = self.structure.atom(obj);
        self.structure.retract_scalar(m, r, &[]);
    }

    /// [`ObjectStore::add`]: `obj[attr ->> {value}]`.
    pub(crate) fn add_member(&mut self, obj: &str, attr: &str, value: &Value) {
        let m = self.structure.atom(attr);
        let r = self.structure.atom(obj);
        let v = self.intern(value);
        self.structure.assert_set_member(m, r, &[], v);
    }

    /// [`ObjectStore::remove`]: `value` leaves `obj`'s `attr` set.
    pub(crate) fn remove_member(&mut self, obj: &str, attr: &str, value: &Value) {
        let m = self.structure.atom(attr);
        let r = self.structure.atom(obj);
        let v = self.intern(value);
        self.structure.retract_set_member(m, r, &[], v);
    }
}
