//! Updates, deletion and undo-log transactions for the object store.
//!
//! The paper treats the extensional database as given, but any system built
//! on the store needs to change it: correct a scalar value, retract a set
//! member, delete an object (only when nothing references it, or cascading
//! the removal of the references).  A lightweight undo log provides
//! transactional grouping: every mutation performed through a [`Transaction`]
//! is rolled back unless the transaction is committed.

use std::collections::BTreeSet;

use crate::error::{Result, StoreError};
use crate::guard::{CommitError, CommitReceipt};
use crate::store::{ObjectStore, Value};

/// How [`ObjectStore::delete_object`] treats incoming references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteMode {
    /// Refuse to delete an object that is still referenced.
    Restrict,
    /// Also remove every attribute value referencing the object.
    Cascade,
}

/// One undoable change.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Change {
    /// A scalar attribute was set to `value`; `previous` restores the old
    /// state.
    ScalarSet {
        obj: String,
        attr: String,
        value: Value,
        previous: Option<Value>,
    },
    /// A member was added to a set attribute.
    SetAdded { obj: String, attr: String, value: Value },
    /// A member was removed from a set attribute.
    SetRemoved { obj: String, attr: String, value: Value },
    /// A scalar attribute was cleared.
    ScalarCleared { obj: String, attr: String, previous: Value },
}

impl Change {
    fn undo(self, store: &mut ObjectStore) {
        match self {
            Change::ScalarSet {
                obj, attr, previous, ..
            } => {
                let id = store.id_of(&obj).expect("object still exists during rollback");
                match previous {
                    Some(v) => {
                        store.set(&obj, &attr, v).expect("restoring a previously valid value");
                    }
                    None => {
                        store.take_scalar(id, &attr);
                    }
                }
            }
            Change::SetAdded { obj, attr, value } => {
                let id = store.id_of(&obj).expect("object still exists during rollback");
                store.remove_set_member(id, &attr, &value);
            }
            Change::SetRemoved { obj, attr, value }
            | Change::ScalarCleared {
                obj,
                attr,
                previous: value,
            } => {
                // re-adding / re-setting a previously valid value cannot fail
                match store.schema().attr_def(&attr).map(|a| a.kind) {
                    Some(crate::schema::AttrKind::Set) => store
                        .add(&obj, &attr, value)
                        .expect("restoring a previously valid member"),
                    _ => store
                        .set(&obj, &attr, value)
                        .expect("restoring a previously valid value"),
                }
            }
        }
    }
}

impl ObjectStore {
    /// Remove the value of a scalar attribute.  Returns the removed value.
    pub fn clear(&mut self, obj: &str, attr: &str) -> Result<Option<Value>> {
        let id = self
            .id_of(obj)
            .ok_or_else(|| StoreError::Unknown(format!("object {obj}")))?;
        Ok(self.take_scalar(id, attr))
    }

    /// Remove one member from a set-valued attribute.  Returns `true` if the
    /// member was present.
    pub fn remove(&mut self, obj: &str, attr: &str, value: &Value) -> Result<bool> {
        let id = self
            .id_of(obj)
            .ok_or_else(|| StoreError::Unknown(format!("object {obj}")))?;
        Ok(self.remove_set_member(id, attr, value))
    }

    /// Objects whose attributes reference `name`.
    pub fn referrers_of(&self, name: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for (_, obj) in self.objects() {
            for attr in self.schema().attrs() {
                let hit = match attr.kind {
                    crate::schema::AttrKind::Scalar => {
                        matches!(self.get(&obj.name, &attr.name), Some(Value::Ref(r)) if r == name)
                    }
                    crate::schema::AttrKind::Set => self
                        .get_set(&obj.name, &attr.name)
                        .is_some_and(|vs| vs.contains(&Value::Ref(name.to_owned()))),
                };
                if hit {
                    out.insert(obj.name.clone());
                    break;
                }
            }
        }
        out
    }

    /// Delete an object.  With [`DeleteMode::Restrict`] the object must not
    /// be referenced; with [`DeleteMode::Cascade`] referencing attribute
    /// values are removed first.  The object's own attribute values are
    /// always removed.
    ///
    /// The store's image cannot follow a deletion, so a guarded or served
    /// store rebuilds it here, and an installed guard re-baselines on it:
    /// violations a deletion leaves standing (a cascade can cause some) are
    /// accepted like install-time ones, not held against the next commit.
    pub fn delete_object(&mut self, name: &str, mode: DeleteMode) -> Result<()> {
        let id = self
            .id_of(name)
            .ok_or_else(|| StoreError::Unknown(format!("object {name}")))?;
        let referrers = self.referrers_of(name);
        if !referrers.is_empty() {
            match mode {
                DeleteMode::Restrict => {
                    return Err(StoreError::StillReferenced {
                        object: name.to_owned(),
                        referrers: referrers.into_iter().collect(),
                    })
                }
                DeleteMode::Cascade => {
                    let attrs: Vec<(String, crate::schema::AttrKind)> =
                        self.schema().attrs().map(|a| (a.name.clone(), a.kind)).collect();
                    for referrer in &referrers {
                        let rid = self.id_of(referrer).expect("referrer exists");
                        for (attr, kind) in &attrs {
                            match kind {
                                crate::schema::AttrKind::Scalar => {
                                    if matches!(self.get(referrer, attr), Some(Value::Ref(r)) if r == name) {
                                        self.take_scalar(rid, attr);
                                    }
                                }
                                crate::schema::AttrKind::Set => {
                                    self.remove_set_member(rid, attr, &Value::Ref(name.to_owned()));
                                }
                            }
                        }
                    }
                }
            }
        }
        self.remove_object_record(id);
        Ok(())
    }

    /// Start a transaction; mutations through it are undone on drop unless
    /// [`Transaction::commit`] is called (and succeeds).
    pub fn begin(&mut self) -> Transaction<'_> {
        // A guard or a publish needs the image at commit, and a dropped one
        // must be rebuilt (and the guard re-baselined on it) before the
        // transaction's first change, not with it.
        self.ensure_image_if_used();
        let guard_and_image = self.constraint_guard().zip(self.image());
        Transaction {
            begin_version: self.version(),
            unseen: guard_and_image.is_some_and(|(guard, image)| guard.is_current(image)),
            store: self,
            log: Vec::new(),
            committed: false,
        }
    }
}

/// An undo-log transaction over an [`ObjectStore`].
#[derive(Debug)]
pub struct Transaction<'a> {
    store: &'a mut ObjectStore,
    log: Vec<Change>,
    committed: bool,
    /// [`ObjectStore::version`] when the transaction began; a rollback
    /// puts it back.
    begin_version: u64,
    /// The guard's checker had seen everything in the image when the
    /// transaction began, and has seen nothing of the transaction (the
    /// commit check clears this).  Undone in that state, the transaction
    /// costs the next check nothing: see [`ObjectStore::rolled_back`].
    unseen: bool,
}

impl<'a> Transaction<'a> {
    /// Read access to the underlying store.
    pub fn store(&self) -> &ObjectStore {
        self.store
    }

    /// Set a scalar attribute (undoable).
    pub fn set(&mut self, obj: &str, attr: &str, value: Value) -> Result<()> {
        let previous = self.store.get(obj, attr).cloned();
        self.store.set(obj, attr, value.clone())?;
        self.log.push(Change::ScalarSet {
            obj: obj.to_owned(),
            attr: attr.to_owned(),
            value,
            previous,
        });
        Ok(())
    }

    /// Add a set member (undoable).
    pub fn add(&mut self, obj: &str, attr: &str, value: Value) -> Result<()> {
        let already = self.store.get_set(obj, attr).is_some_and(|vs| vs.contains(&value));
        self.store.add(obj, attr, value.clone())?;
        if !already {
            self.log.push(Change::SetAdded {
                obj: obj.to_owned(),
                attr: attr.to_owned(),
                value,
            });
        }
        Ok(())
    }

    /// Remove a set member (undoable).
    pub fn remove(&mut self, obj: &str, attr: &str, value: &Value) -> Result<bool> {
        let removed = self.store.remove(obj, attr, value)?;
        if removed {
            self.log.push(Change::SetRemoved {
                obj: obj.to_owned(),
                attr: attr.to_owned(),
                value: value.clone(),
            });
        }
        Ok(removed)
    }

    /// Clear a scalar attribute (undoable).
    pub fn clear(&mut self, obj: &str, attr: &str) -> Result<Option<Value>> {
        let previous = self.store.clear(obj, attr)?;
        if let Some(previous) = previous.clone() {
            self.log.push(Change::ScalarCleared {
                obj: obj.to_owned(),
                attr: attr.to_owned(),
                previous,
            });
        }
        Ok(previous)
    }

    /// Try to keep all changes.
    ///
    /// Without a constraint guard installed this always succeeds and simply
    /// makes the log durable.  With a guard (see
    /// [`ObjectStore::set_constraints`]) the commit is checked first:
    ///
    /// * no *new* violations — the commit stands; the
    ///   [`CommitReceipt`] records how many changes were committed and any
    ///   warned/quarantined violations that were admitted;
    /// * a new violation of a `Reject`-policy constraint — **nothing** is
    ///   kept: the transaction rolls back in full and
    ///   [`CommitError::Rejected`] reports the violations and the number of
    ///   changes rolled back (the boundary is all-or-nothing).
    ///
    /// A successful commit also publishes the post-commit image as a new
    /// snapshot epoch when reader sessions are active (see
    /// [`ObjectStore::begin_session`]); the receipt's
    /// [`epoch`](CommitReceipt::epoch) records it.
    pub fn commit(mut self) -> std::result::Result<CommitReceipt, CommitError> {
        self.unseen = false;
        // on Err: `committed` stays false, so dropping `self` rolls back
        let mut receipt = self.store.check_commit(&self.log)?;
        self.committed = true;
        receipt.epoch = self.store.publish();
        Ok(receipt)
    }

    /// Number of undoable changes recorded so far.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// `true` if nothing was changed yet.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if self.committed {
            return;
        }
        // Roll back in reverse order, through the mutators that made the
        // changes: that takes the image back too.
        for change in self.log.drain(..).rev().collect::<Vec<_>>() {
            change.undo(self.store);
        }
        self.store.rolled_back(self.begin_version, self.unseen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn sample() -> ObjectStore {
        let mut db = ObjectStore::with_schema(Schema::company());
        db.create("e1", "employee").unwrap();
        db.create("e2", "employee").unwrap();
        db.create("a1", "automobile").unwrap();
        db.set("e1", "age", Value::Int(30)).unwrap();
        db.add("e1", "vehicles", Value::obj("a1")).unwrap();
        db.set("e1", "boss", Value::obj("e2")).unwrap();
        db
    }

    #[test]
    fn clear_and_remove() {
        let mut db = sample();
        assert_eq!(db.clear("e1", "age").unwrap(), Some(Value::Int(30)));
        assert_eq!(db.get("e1", "age"), None);
        assert_eq!(db.clear("e1", "age").unwrap(), None);
        assert!(db.remove("e1", "vehicles", &Value::obj("a1")).unwrap());
        assert!(!db.remove("e1", "vehicles", &Value::obj("a1")).unwrap());
        assert!(db.clear("ghost", "age").is_err());
    }

    #[test]
    fn referrers_and_restrict_delete() {
        let mut db = sample();
        assert_eq!(db.referrers_of("a1"), ["e1".to_string()].into_iter().collect());
        assert_eq!(db.referrers_of("e2"), ["e1".to_string()].into_iter().collect());
        assert_eq!(
            db.delete_object("a1", DeleteMode::Restrict),
            Err(StoreError::StillReferenced {
                object: "a1".into(),
                referrers: vec!["e1".into()],
            }),
            "restrict deletes report the referrers, typed"
        );
        // unreferenced objects delete fine
        assert!(db.delete_object("e1", DeleteMode::Restrict).is_ok());
        assert!(db.id_of("e1").is_none());
        // e1's references died with it
        assert!(db.referrers_of("a1").is_empty());
    }

    #[test]
    fn cascade_delete_removes_references() {
        let mut db = sample();
        db.delete_object("a1", DeleteMode::Cascade).unwrap();
        assert!(db.id_of("a1").is_none());
        assert!(db.get_set("e1", "vehicles").is_none_or(|vs| vs.is_empty()));
        db.integrity_check().unwrap();
        // deleting the boss cascades the scalar reference away
        db.delete_object("e2", DeleteMode::Cascade).unwrap();
        assert_eq!(db.get("e1", "boss"), None);
        db.integrity_check().unwrap();
    }

    #[test]
    fn transaction_rolls_back_on_drop() {
        let mut db = sample();
        {
            let mut txn = db.begin();
            txn.set("e1", "age", Value::Int(31)).unwrap();
            txn.set("e2", "age", Value::Int(55)).unwrap();
            txn.add("e2", "vehicles", Value::obj("a1")).unwrap();
            txn.remove("e1", "vehicles", &Value::obj("a1")).unwrap();
            txn.clear("e1", "boss").unwrap();
            assert_eq!(txn.len(), 5);
            assert!(!txn.is_empty());
            // dropped without commit
        }
        assert_eq!(db.get("e1", "age"), Some(&Value::Int(30)));
        assert_eq!(db.get("e2", "age"), None);
        assert!(db.get_set("e2", "vehicles").is_none_or(|vs| vs.is_empty()));
        assert!(db.get_set("e1", "vehicles").unwrap().contains(&Value::obj("a1")));
        assert_eq!(db.get("e1", "boss"), Some(&Value::obj("e2")));
        db.integrity_check().unwrap();
    }

    #[test]
    fn transaction_commit_keeps_changes() {
        let mut db = sample();
        {
            let mut txn = db.begin();
            txn.set("e1", "age", Value::Int(31)).unwrap();
            assert_eq!(txn.store().get("e1", "age"), Some(&Value::Int(31)));
            let receipt = txn.commit().unwrap();
            assert_eq!(receipt.committed, 1);
            assert!(!receipt.checked, "no constraints installed");
            assert!(receipt.is_clean());
        }
        assert_eq!(db.get("e1", "age"), Some(&Value::Int(31)));
    }

    #[test]
    fn failed_mutations_do_not_pollute_the_log() {
        let mut db = sample();
        {
            let mut txn = db.begin();
            assert!(txn.set("e1", "cylinders", Value::Int(4)).is_err(), "wrong domain");
            assert!(txn.is_empty());
        }
        db.integrity_check().unwrap();
    }
}
