//! The in-memory object store — the extensional database underneath PathLog.
//!
//! The store holds named objects assigned to classes and their scalar /
//! set-valued attribute values, checks them against a [`Schema`], and
//! converts everything into a [`pathlog_core::structure::Structure`] (the
//! extensional part of the semantic structure `I`), including signature
//! declarations derived from the schema.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use pathlog_core::names::Name;
use pathlog_core::structure::{Oid, Signature, Structure};

use crate::error::{Result, StoreError};
use crate::guard::{CommitError, CommitReceipt};
use crate::image::StoreImage;
use crate::schema::{AttrKind, Range, Schema};
use crate::txn::Change;

/// A value stored in an attribute.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A reference to another stored object, by name.
    Ref(String),
    /// An integer.
    Int(i64),
    /// A string.
    Str(String),
    /// A symbolic constant (e.g. `red`, `detroit`) that is not itself a
    /// stored object.
    Atom(String),
}

impl Value {
    /// Reference to a stored object.
    pub fn obj(name: impl Into<String>) -> Self {
        Value::Ref(name.into())
    }

    pub(crate) fn to_name(&self) -> Name {
        match self {
            Value::Ref(s) | Value::Atom(s) => Name::Atom(s.clone()),
            Value::Int(i) => Name::Int(*i),
            Value::Str(s) => Name::Str(s.clone()),
        }
    }
}

/// Dense identifier of a stored object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

/// One stored object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredObject {
    /// The (unique) external name of the object.
    pub name: String,
    /// The class the object belongs to.
    pub class: String,
}

/// Summary statistics of a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of objects.
    pub objects: usize,
    /// Number of scalar attribute values.
    pub scalar_values: usize,
    /// Number of set attribute members.
    pub set_values: usize,
    /// Snapshot epochs published by the serving layer (0 while no reader
    /// session ever started — see [`ObjectStore::begin_session`]).
    pub epochs_published: usize,
    /// Reader sessions pinned (cumulative pin events, not a live count).
    pub snapshots_pinned: usize,
    /// Snapshot retention entries reclaimed after their last session
    /// dropped.
    pub snapshots_reclaimed: usize,
}

impl StoreStats {
    /// Fold another store's counters into this one with saturating adds
    /// (same contract as `EvalStats::merge`).
    pub fn merge(&mut self, other: &StoreStats) {
        self.objects = self.objects.saturating_add(other.objects);
        self.scalar_values = self.scalar_values.saturating_add(other.scalar_values);
        self.set_values = self.set_values.saturating_add(other.set_values);
        self.epochs_published = self.epochs_published.saturating_add(other.epochs_published);
        self.snapshots_pinned = self.snapshots_pinned.saturating_add(other.snapshots_pinned);
        self.snapshots_reclaimed = self.snapshots_reclaimed.saturating_add(other.snapshots_reclaimed);
    }
}

/// The in-memory object store.
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    schema: Schema,
    objects: Vec<StoredObject>,
    by_name: HashMap<String, ObjId>,
    by_class: BTreeMap<String, Vec<ObjId>>,
    scalar: HashMap<(ObjId, String), Value>,
    sets: HashMap<(ObjId, String), BTreeSet<Value>>,
    /// Tombstones of deleted objects (object ids stay stable).
    deleted: BTreeSet<ObjId>,
    /// Mutation counter, bumped on every effective change and put back by a
    /// rolled-back transaction ([`ObjectStore::rolled_back`]): equal
    /// versions mean equal contents.  The serving layer publishes it as the
    /// snapshot epoch.
    version: u64,
    /// The store's PathLog image — the one structure commits are checked
    /// against and snapshots are published from.  Built on first need
    /// ([`ObjectStore::ensure_image`]) and from then on updated by every
    /// mutator below, so it always holds the facts of
    /// [`ObjectStore::to_structure`]; dropped by the two operations it
    /// cannot follow ([`ObjectStore::drop_image`]).
    image: Option<StoreImage>,
    /// Check-on-commit integrity constraints, if installed (see
    /// [`ObjectStore::set_constraints`]).
    constraints: Option<Box<crate::guard::ConstraintGuard>>,
    /// MVCC snapshot serving state, activated lazily by
    /// [`ObjectStore::begin_session`](crate::session).  Not shared across
    /// clones (each clone is its own single-writer domain).
    pub(crate) serving: Option<Box<crate::session::ServingState>>,
}

impl ObjectStore {
    /// An empty store with an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store over the given schema.
    pub fn with_schema(schema: Schema) -> Self {
        ObjectStore {
            schema,
            ..Self::default()
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Mutable access to the schema (for incremental schema definition).
    /// The image's signatures and class memberships derive from the schema,
    /// so the image is dropped by the call, and the next transaction or
    /// session rebuilds it and re-baselines an installed guard on it.
    pub fn schema_mut(&mut self) -> &mut Schema {
        self.drop_image();
        &mut self.schema
    }

    /// Create an object of a class.  The name must be fresh and the class
    /// defined in the schema.
    pub fn create(&mut self, name: &str, class: &str) -> Result<ObjId> {
        if self.by_name.contains_key(name) {
            return Err(StoreError::Duplicate(format!("object {name}")));
        }
        if self.schema.class_def(class).is_none() {
            return Err(StoreError::Unknown(format!("class {class}")));
        }
        let id = ObjId(self.objects.len() as u32);
        self.objects.push(StoredObject {
            name: name.to_owned(),
            class: class.to_owned(),
        });
        self.by_name.insert(name.to_owned(), id);
        self.by_class.entry(class.to_owned()).or_default().push(id);
        self.version += 1;
        if let Some(image) = &mut self.image {
            let classes = self.schema.classes().map(|c| c.name.as_str());
            image.create(name, classes.filter(|c| self.schema.is_subclass(class, c)));
        }
        Ok(id)
    }

    /// The current value of the mutation counter.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The store's maintained PathLog image, if one was built (by
    /// [`ObjectStore::set_constraints`] or a reader session) and not
    /// dropped since.
    pub fn image(&self) -> Option<&StoreImage> {
        self.image.as_ref()
    }

    /// Build the image unless the store has one — the only place one is
    /// built.  An installed guard's watermarks, accepted violations and
    /// quarantine oids belonged to the image that was dropped, so it starts
    /// over on the new one.
    pub(crate) fn ensure_image(&mut self) {
        if self.image.is_some() {
            return;
        }
        let mut image = StoreImage::of_store(self);
        if let Some(guard) = self.constraints.as_deref_mut() {
            guard.rebaseline(&mut image);
        }
        self.image = Some(image);
    }

    /// [`ObjectStore::ensure_image`] if anything reads the image: a guard
    /// checks it, serving publishes it.
    pub(crate) fn ensure_image_if_used(&mut self) {
        if self.constraints.is_some() || self.serving.is_some() {
            self.ensure_image();
        }
    }

    /// Forget the image: [`ObjectStore::delete_object`] cannot be applied
    /// to it (a structure retracts no is-a pair) and neither can a schema
    /// change.  The version moves, so no published epoch passes for current.
    fn drop_image(&mut self) {
        self.image = None;
        self.version += 1;
    }

    /// The commit check: the installed guard looks at the image, which
    /// already holds the changes of `log`.  Unchecked without a guard.
    pub(crate) fn check_commit(&mut self, log: &[Change]) -> std::result::Result<CommitReceipt, CommitError> {
        match self.constraints.as_deref_mut() {
            Some(guard) => guard.check_commit(self.image.as_mut().expect("built by `begin`"), log),
            None => Ok(CommitReceipt::unchecked(log.len())),
        }
    }

    /// A transaction undid its changes: the contents are those of its
    /// `begin()` again, and so is the `version` — an epoch published then is
    /// still the current one.  `unseen` says that the guard was current at
    /// `begin()` and checked nothing since: the image holds the facts of its
    /// last check again, and the guard is told so, or it would take the
    /// changes and their inverses for a delta to re-solve.
    pub(crate) fn rolled_back(&mut self, version: u64, unseen: bool) {
        self.version = version;
        if let (true, Some(guard), Some(image)) = (unseen, self.constraints.as_deref_mut(), &self.image) {
            guard.skip_undone(image);
        }
    }

    /// The id of a named object.
    pub fn id_of(&self, name: &str) -> Option<ObjId> {
        self.by_name.get(name).copied()
    }

    /// The stored object behind an id (`None` for deleted objects).
    pub fn object(&self, id: ObjId) -> Option<&StoredObject> {
        if self.deleted.contains(&id) {
            return None;
        }
        self.objects.get(id.0 as usize)
    }

    /// Number of (live) objects.
    pub fn len(&self) -> usize {
        self.objects.len() - self.deleted.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over all live objects.
    pub fn objects(&self) -> impl Iterator<Item = (ObjId, &StoredObject)> + '_ {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjId(i as u32), o))
            .filter(|(id, _)| !self.deleted.contains(id))
    }

    // -- crate-internal mutation helpers used by the transaction layer ------

    /// Remove a scalar attribute value, returning it.
    pub(crate) fn take_scalar(&mut self, id: ObjId, attr: &str) -> Option<Value> {
        let taken = self.scalar.remove(&(id, attr.to_owned()));
        if taken.is_some() {
            self.version += 1;
            if let Some(image) = &mut self.image {
                image.clear_scalar(&self.objects[id.0 as usize].name, attr);
            }
        }
        taken
    }

    /// Remove one member from a set attribute; `true` if it was present.
    pub(crate) fn remove_set_member(&mut self, id: ObjId, attr: &str, value: &Value) -> bool {
        let removed = self
            .sets
            .get_mut(&(id, attr.to_owned()))
            .is_some_and(|s| s.remove(value));
        if removed {
            self.version += 1;
            if let Some(image) = &mut self.image {
                image.remove_member(&self.objects[id.0 as usize].name, attr, value);
            }
        }
        removed
    }

    /// Remove an object record and all of its own attribute values.
    pub(crate) fn remove_object_record(&mut self, id: ObjId) {
        if let Some(obj) = self.objects.get(id.0 as usize) {
            self.by_name.remove(&obj.name);
            if let Some(ids) = self.by_class.get_mut(&obj.class) {
                ids.retain(|&x| x != id);
            }
        }
        self.scalar.retain(|(oid, _), _| *oid != id);
        self.sets.retain(|(oid, _), _| *oid != id);
        self.deleted.insert(id);
        self.drop_image();
        self.ensure_image_if_used();
    }

    /// Objects whose class is exactly `class` or a subclass of it.
    pub fn members_of(&self, class: &str) -> Vec<ObjId> {
        let mut out = Vec::new();
        for (c, ids) in &self.by_class {
            if self.schema.is_subclass(c, class) {
                out.extend(ids.iter().copied());
            }
        }
        out.sort();
        out
    }

    fn attr_check(&self, id: ObjId, attr: &str, expected: AttrKind, value: &Value) -> Result<()> {
        let obj = self
            .object(id)
            .ok_or_else(|| StoreError::Unknown(format!("object #{id:?}")))?;
        let Some(def) = self.schema.attr_def(attr) else {
            return Err(StoreError::Unknown(format!("attribute {attr}")));
        };
        if def.kind != expected {
            return Err(StoreError::SchemaViolation(format!(
                "attribute {attr} is {:?} but was used as {:?}",
                def.kind, expected
            )));
        }
        if !self.schema.is_subclass(&obj.class, &def.domain) {
            return Err(StoreError::SchemaViolation(format!(
                "attribute {attr} is defined for {} but {} is a {}",
                def.domain, obj.name, obj.class
            )));
        }
        match (&def.range, value) {
            (Range::Any, _) => Ok(()),
            (Range::Integer, Value::Int(_)) => Ok(()),
            (Range::Str, Value::Str(_)) => Ok(()),
            (Range::Atom, Value::Atom(_)) => Ok(()),
            (Range::Class(rc), Value::Ref(target)) => {
                let t = self
                    .id_of(target)
                    .and_then(|tid| self.object(tid))
                    .ok_or_else(|| StoreError::Unknown(format!("object {target}")))?;
                if self.schema.is_subclass(&t.class, rc) {
                    Ok(())
                } else {
                    Err(StoreError::SchemaViolation(format!(
                        "value {target} of {attr} must be a {rc}, but it is a {}",
                        t.class
                    )))
                }
            }
            (range, value) => Err(StoreError::SchemaViolation(format!(
                "value {value:?} does not match the declared range {range:?} of {attr}"
            ))),
        }
    }

    /// Set a scalar attribute.
    pub fn set(&mut self, obj: &str, attr: &str, value: Value) -> Result<()> {
        let id = self
            .id_of(obj)
            .ok_or_else(|| StoreError::Unknown(format!("object {obj}")))?;
        self.attr_check(id, attr, AttrKind::Scalar, &value)?;
        if let Some(image) = &mut self.image {
            image.set_scalar(obj, attr, &value);
        }
        self.scalar.insert((id, attr.to_owned()), value);
        self.version += 1;
        Ok(())
    }

    /// Add a member to a set-valued attribute.
    pub fn add(&mut self, obj: &str, attr: &str, value: Value) -> Result<()> {
        let id = self
            .id_of(obj)
            .ok_or_else(|| StoreError::Unknown(format!("object {obj}")))?;
        self.attr_check(id, attr, AttrKind::Set, &value)?;
        if let Some(image) = &mut self.image {
            image.add_member(obj, attr, &value);
        }
        if self.sets.entry((id, attr.to_owned())).or_default().insert(value) {
            self.version += 1;
        }
        Ok(())
    }

    /// The value of a scalar attribute.
    pub fn get(&self, obj: &str, attr: &str) -> Option<&Value> {
        let id = self.id_of(obj)?;
        self.scalar.get(&(id, attr.to_owned()))
    }

    /// The members of a set-valued attribute.
    pub fn get_set(&self, obj: &str, attr: &str) -> Option<&BTreeSet<Value>> {
        let id = self.id_of(obj)?;
        self.sets.get(&(id, attr.to_owned()))
    }

    /// Summary statistics, including the serving-layer snapshot counters.
    pub fn stats(&self) -> StoreStats {
        let snap = self.serving_stats();
        StoreStats {
            objects: self.objects.len(),
            scalar_values: self.scalar.len(),
            set_values: self.sets.values().map(BTreeSet::len).sum(),
            epochs_published: snap.epochs_published,
            snapshots_pinned: snap.snapshots_pinned,
            snapshots_reclaimed: snap.snapshots_reclaimed,
        }
    }

    /// Check referential integrity: every `Value::Ref` must name an existing
    /// object and every stored value must (still) satisfy the schema.
    pub fn integrity_check(&self) -> Result<()> {
        self.schema.validate()?;
        for ((id, attr), value) in &self.scalar {
            self.attr_check(*id, attr, AttrKind::Scalar, value)?;
        }
        for ((id, attr), values) in &self.sets {
            for value in values {
                self.attr_check(*id, attr, AttrKind::Set, value)?;
            }
        }
        Ok(())
    }

    // -- check-on-commit integrity constraints ------------------------------

    /// Install integrity constraints, checked on every
    /// [`Transaction::commit`](crate::Transaction::commit).
    ///
    /// The guard checks against the store's image
    /// ([`ObjectStore::image`]), which the store's mutators keep current,
    /// and re-checks **incrementally**: only constraints that read a key
    /// changed since the last check are re-solved, and only for the objects
    /// it changed at (see [`pathlog_core::constraints`]).  That delta is
    /// everything since the last check, not just the committing
    /// transaction: a direct mutation
    /// of a guarded store ([`ObjectStore::set`] and friends outside a
    /// transaction) is checked with, and its damage attributed to, the next
    /// commit.  `engine` answers [`ObjectStore::tolerant_query`]: give it
    /// [`Tolerance::Tolerant`](pathlog_core::engine::Tolerance) options if
    /// that should degrade instead of answering classically.
    ///
    /// Returns the violations already present at install time.  Those are
    /// *accepted*: the guard is inconsistency-tolerant and only blocks
    /// commits that introduce **new** violations.
    pub fn set_constraints(
        &mut self,
        constraints: pathlog_core::constraints::ConstraintSet,
        engine: pathlog_core::engine::Engine,
    ) -> Result<Vec<pathlog_core::constraints::ConstraintViolation>> {
        self.ensure_image();
        let image = self.image.as_ref().expect("just built");
        let (guard, baseline) = crate::guard::ConstraintGuard::install(constraints, engine, image)
            .map_err(|e| StoreError::Constraint(e.to_string()))?;
        self.constraints = Some(Box::new(guard));
        Ok(baseline)
    }

    /// The installed constraint guard, if any.
    pub fn constraint_guard(&self) -> Option<&crate::guard::ConstraintGuard> {
        self.constraints.as_deref()
    }

    /// Uninstall the constraint guard; commits stop being checked.
    pub fn clear_constraints(&mut self) {
        self.constraints = None;
    }

    /// Answer a query in inconsistency-tolerant mode: evaluate over the
    /// store's image, flagging answers that depend on quarantined facts
    /// (see [`pathlog_core::constraints::tolerant_query`]).  Requires
    /// constraints to be installed, and the image: between a
    /// [`ObjectStore::schema_mut`] call and the next transaction or session
    /// there is none.
    pub fn tolerant_query(
        &self,
        query: &pathlog_core::program::Query,
    ) -> Result<pathlog_core::constraints::TolerantAnswers> {
        let guard = self
            .constraints
            .as_deref()
            .ok_or_else(|| StoreError::Unknown("constraint guard (none installed)".into()))?;
        let image = self.image.as_ref().ok_or_else(|| {
            StoreError::Constraint(
                "no image: `schema_mut` dropped it, the next transaction or session rebuilds it".into(),
            )
        })?;
        guard
            .tolerant_query(image.structure(), query)
            .map_err(|e| StoreError::Constraint(e.to_string()))
    }

    /// Convert the store into a PathLog semantic structure: objects with
    /// their class memberships, every attribute value as a method fact, and
    /// one signature declaration per schema attribute.
    ///
    /// The subclass hierarchy is *flattened* into the memberships: an object
    /// of class `manager` becomes a member of `manager`, `employee` and
    /// `person`.  The alternative — adding `manager isa employee` edges
    /// between the class objects — would make the class objects themselves
    /// members of their superclasses (the paper collapses membership and
    /// subclassing into one relation), so that `X : employee` would also bind
    /// the class object `manager`; flattening avoids that artifact while
    /// preserving every membership the paper's queries rely on.
    pub fn to_structure(&self) -> Structure {
        let mut s = Structure::new();

        // register the class objects
        let class_names: Vec<String> = self.schema.classes().map(|c| c.name.clone()).collect();
        for class in &class_names {
            s.atom(class);
        }

        // objects and their (flattened) memberships
        for (_, obj) in self.objects() {
            let o = s.atom(&obj.name);
            for class in &class_names {
                if self.schema.is_subclass(&obj.class, class) {
                    let c = s.atom(class);
                    s.add_isa(o, c);
                }
            }
        }

        // attribute values; value objects are made members of the pseudo
        // value classes (`integer`, `string`, `atom`) so that the signatures
        // derived from the schema below are checkable.
        let (integer_class, string_class, atom_class) = (s.atom("integer"), s.atom("string"), s.atom("atom"));
        let classify_value = |s: &mut Structure, v: Oid, value: &Value| match value {
            Value::Int(_) => {
                s.add_isa(v, integer_class);
            }
            Value::Str(_) => {
                s.add_isa(v, string_class);
            }
            Value::Atom(_) => {
                s.add_isa(v, atom_class);
            }
            Value::Ref(_) => {}
        };
        // Deterministic iteration (sorted by object id, then attribute):
        // the interning order — and with it `canonical_dump()` — must be a
        // pure function of the store contents, so that two stores with the
        // same history publish bit-identical snapshots (the serving layer's
        // sequential-oracle cross-checks depend on this).
        let mut scalars: Vec<(&(ObjId, String), &Value)> = self.scalar.iter().collect();
        scalars.sort_by(|a, b| a.0.cmp(b.0));
        for ((id, attr), value) in scalars {
            let receiver = s.atom(&self.objects[id.0 as usize].name);
            let method = s.atom(attr);
            let v = s.ensure_name(&value.to_name());
            classify_value(&mut s, v, value);
            s.assert_scalar(method, receiver, &[], v)
                .expect("scalar attributes are single-valued in the store");
        }
        let mut sets: Vec<(&(ObjId, String), &BTreeSet<Value>)> = self.sets.iter().collect();
        sets.sort_by(|a, b| a.0.cmp(b.0));
        for ((id, attr), values) in sets {
            let receiver = s.atom(&self.objects[id.0 as usize].name);
            let method = s.atom(attr);
            for value in values {
                let v = s.ensure_name(&value.to_name());
                classify_value(&mut s, v, value);
                s.assert_set_member(method, receiver, &[], v);
            }
        }

        // signatures from the schema
        for attr in self.schema.attrs() {
            let class = s.atom(&attr.domain);
            let method = s.atom(&attr.name);
            let result = match &attr.range {
                Range::Class(c) => Some(s.atom(c)),
                Range::Integer => Some(s.atom("integer")),
                Range::Str => Some(s.atom("string")),
                Range::Atom => Some(s.atom("atom")),
                Range::Any => None,
            };
            if let Some(result) = result {
                s.add_signature(Signature {
                    class,
                    method,
                    arg_classes: Box::new([]),
                    result_classes: vec![result],
                    set_valued: attr.kind == AttrKind::Set,
                });
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_company() -> ObjectStore {
        let mut db = ObjectStore::with_schema(Schema::company());
        db.create("e1", "employee").unwrap();
        db.create("a1", "automobile").unwrap();
        db.set("e1", "age", Value::Int(30)).unwrap();
        db.set("e1", "city", Value::Atom("newYork".into())).unwrap();
        db.add("e1", "vehicles", Value::obj("a1")).unwrap();
        db.set("a1", "color", Value::Atom("red".into())).unwrap();
        db.set("a1", "cylinders", Value::Int(4)).unwrap();
        db
    }

    #[test]
    fn create_and_read_back() {
        let db = small_company();
        assert_eq!(db.len(), 2);
        assert!(!db.is_empty());
        assert_eq!(db.get("e1", "age"), Some(&Value::Int(30)));
        assert_eq!(db.get_set("e1", "vehicles").unwrap().len(), 1);
        assert_eq!(db.object(db.id_of("a1").unwrap()).unwrap().class, "automobile");
        assert_eq!(db.stats().scalar_values, 4);
        assert_eq!(db.stats().set_values, 1);
    }

    #[test]
    fn duplicate_and_unknown_objects() {
        let mut db = small_company();
        assert!(matches!(db.create("e1", "employee"), Err(StoreError::Duplicate(_))));
        assert!(matches!(db.create("x", "nosuchclass"), Err(StoreError::Unknown(_))));
        assert!(db.set("ghost", "age", Value::Int(1)).is_err());
        assert!(db.get("ghost", "age").is_none());
    }

    #[test]
    fn schema_violations_are_rejected() {
        let mut db = small_company();
        // age is scalar, not set
        assert!(matches!(
            db.add("e1", "age", Value::Int(31)),
            Err(StoreError::SchemaViolation(_))
        ));
        // cylinders is only defined for automobiles
        db.create("e2", "employee").unwrap();
        assert!(db.set("e2", "cylinders", Value::Int(4)).is_err());
        // range violation: age must be an integer
        assert!(db.set("e2", "age", Value::Atom("old".into())).is_err());
        // range violation: vehicles must reference vehicles
        db.create("e3", "employee").unwrap();
        assert!(db.add("e1", "vehicles", Value::obj("e3")).is_err());
        // unknown attribute
        assert!(db.set("e1", "nickname", Value::Str("x".into())).is_err());
    }

    #[test]
    fn members_of_respects_subclasses() {
        let mut db = ObjectStore::with_schema(Schema::company());
        db.create("m1", "manager").unwrap();
        db.create("e1", "employee").unwrap();
        db.create("a1", "automobile").unwrap();
        assert_eq!(db.members_of("employee").len(), 2);
        assert_eq!(db.members_of("person").len(), 2);
        assert_eq!(db.members_of("manager").len(), 1);
        assert_eq!(db.members_of("vehicle").len(), 1);
    }

    #[test]
    fn integrity_check_passes_and_fails() {
        let db = small_company();
        assert!(db.integrity_check().is_ok());
    }

    #[test]
    fn conversion_to_structure() {
        let db = small_company();
        let s = db.to_structure();
        let e1 = s.lookup_name(&Name::atom("e1")).unwrap();
        let employee = s.lookup_name(&Name::atom("employee")).unwrap();
        let person = s.lookup_name(&Name::atom("person")).unwrap();
        assert!(s.in_class(e1, employee));
        assert!(s.in_class(e1, person), "subclass edges are carried over");
        let age = s.lookup_name(&Name::atom("age")).unwrap();
        let thirty = s.lookup_name(&Name::Int(30)).unwrap();
        assert_eq!(s.apply_scalar(age, e1, &[]), Some(thirty));
        let vehicles = s.lookup_name(&Name::atom("vehicles")).unwrap();
        assert_eq!(s.apply_set(vehicles, e1, &[]).unwrap().len(), 1);
        assert!(s.signatures().len() >= 15, "schema attributes become signatures");
    }

    /// The scalar facts and set members of a structure, by name.
    fn facts(s: &Structure) -> BTreeSet<String> {
        let name = |oid| format!("{:?}", s.name_of(oid));
        let scalars = s.facts().scalar_facts();
        let scalars = scalars.map(|f| format!("{}[{} -> {}]", name(f.receiver), name(f.method), name(f.result)));
        let members = s.facts().set_facts().flat_map(|f| {
            let members = f.members.iter();
            members.map(move |&m| format!("{}[{} ->> {}]", name(f.receiver), name(f.method), name(m)))
        });
        scalars.chain(members).collect()
    }

    /// A history with every kind of step the image follows: direct
    /// mutations, a committed transaction and an aborted one.
    fn history(db: &mut ObjectStore) {
        db.ensure_image();
        db.create("e2", "employee").unwrap();
        db.add("e2", "friends", Value::obj("e1")).unwrap();
        let mut txn = db.begin();
        txn.set("e1", "age", Value::Int(31)).unwrap();
        txn.remove("e1", "vehicles", &Value::obj("a1")).unwrap();
        txn.commit().unwrap();
        let mut txn = db.begin();
        txn.set("e2", "age", Value::Int(40)).unwrap();
        txn.add("e1", "friends", Value::obj("e2")).unwrap();
        txn.remove("e2", "friends", &Value::obj("e1")).unwrap();
        txn.clear("e1", "age").unwrap();
        txn.set("e1", "age", Value::Int(41)).unwrap();
        drop(txn);
    }

    #[test]
    fn the_mutators_keep_the_image_and_an_abort_restores_it() {
        let mut db = small_company();
        assert!(db.image().is_none(), "nobody needed one yet");
        history(&mut db);
        let image = db.image().unwrap().structure();
        assert_eq!(facts(image), facts(&db.to_structure()));
        assert!(facts(image).contains(r#"Some(Atom("e1"))[Some(Atom("age")) -> Some(Int(31))]"#));
        // interning is append-only: the aborted values stay named, and classified
        let (forty, integer) = (Name::Int(40), Name::atom("integer"));
        assert!(image.in_class(image.lookup_name(&forty).unwrap(), image.lookup_name(&integer).unwrap()));
    }

    #[test]
    fn identical_histories_are_dump_identical() {
        // the invariant the serving cross-checks build on: what a sequential
        // oracle replays is exactly an identical history
        let (mut a, mut b) = (small_company(), small_company());
        history(&mut a);
        history(&mut b);
        let (a, b) = (a.image().unwrap().structure(), b.image().unwrap().structure());
        assert_eq!(a.canonical_dump(), b.canonical_dump());
    }

    #[test]
    fn structure_from_store_type_checks() {
        let db = small_company();
        let mut s = db.to_structure();
        // integers/atoms/strings are not members of the pseudo value classes
        // by default, so only class-ranged signatures are checkable; make the
        // value classes explicit for a full check.
        let integer = s.atom("integer");
        let atom_class = s.atom("atom");
        let string_class = s.atom("string");
        for (name, oid) in s.names().map(|(n, o)| (n.clone(), o)).collect::<Vec<_>>() {
            match name {
                Name::Int(_) => {
                    s.add_isa(oid, integer);
                }
                Name::Str(_) => {
                    s.add_isa(oid, string_class);
                }
                Name::Atom(_) => {
                    let _ = atom_class;
                }
            }
        }
        let atoms: Vec<_> = ["red", "newYork"].iter().map(|a| s.atom(a)).collect();
        for a in atoms {
            s.add_isa(a, atom_class);
        }
        let errors = pathlog_core::typing::type_check(&s);
        assert!(errors.is_empty(), "{errors:?}");
    }
}
