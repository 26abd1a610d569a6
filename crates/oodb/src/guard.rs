//! Check-on-commit integrity constraints over the object store.
//!
//! [`ConstraintGuard`] is installed into an [`ObjectStore`] via
//! [`ObjectStore::set_constraints`] and consulted by every
//! [`Transaction::commit`](crate::Transaction::commit).  It keeps a
//! **shadow** [`Structure`] — the PathLog image of the store, as produced by
//! [`ObjectStore::to_structure`] — permanently in sync, so constraint
//! checking is *incremental*: the shadow's watermarks survive across
//! commits, and each check re-solves only the constraints whose read keys
//! intersect the facts the transaction actually changed (see
//! [`pathlog_core::constraints`]).
//!
//! ## Commit protocol
//!
//! A commit is **atomic with respect to constraints**: either every change
//! in the transaction's undo log becomes durable, or none does.
//!
//! 1. The transaction's log is replayed onto the shadow (or, if the store
//!    was mutated out-of-band since the last sync, the shadow is rebuilt
//!    from scratch — sound, just not incremental).
//! 2. The checker re-solves the affected constraints.  Violations that were
//!    already *accepted* — present at install time, or warned/quarantined by
//!    an earlier commit and still standing — do not block anything: the
//!    guard is inconsistency-tolerant and polices **new** damage only.
//! 3. New violations are dispatched per the violated constraint's
//!    [`ConstraintPolicy`]:
//!    * **Reject** — the shadow is reverted, the commit fails with
//!      [`CommitError::Rejected`], and the transaction's `Drop` rolls the
//!      store back.  `rolled_back` in the error is the full log length: the
//!      committed/rolled-back boundary is all-or-nothing by construction.
//!    * **Warn** — the commit succeeds; the violations are listed in
//!      [`CommitReceipt::warnings`].
//!    * **Quarantine** — the commit succeeds; the transaction's facts that
//!      feed the violated constraint are tagged in the guard's
//!      [`Quarantine`] ledger (not removed), and
//!      [`ObjectStore::tolerant_query`] degrades gracefully: answers
//!      depending on tagged facts carry a tainted consistency status.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use pathlog_core::analysis::{AnalysisInput, Diagnostics};
use pathlog_core::constraints::{
    tolerant_query, CheckStats, ConstraintChecker, ConstraintPolicy, ConstraintSet, ConstraintViolation, Quarantine,
    TolerantAnswers,
};
use pathlog_core::engine::Engine;
use pathlog_core::names::Name;
use pathlog_core::program::{DepKey, Query};
use pathlog_core::structure::Structure;

use crate::image::StoreImage;
use crate::store::{ObjectStore, Value};
use crate::txn::Change;

/// Proof of a successful commit, making the committed/rolled-back boundary
/// explicit: `committed` changes became durable, zero were rolled back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitReceipt {
    /// Number of undo-log changes made durable (the whole transaction —
    /// commits are atomic).
    pub committed: usize,
    /// `true` if a constraint guard was installed and the commit was
    /// checked against it.
    pub checked: bool,
    /// New violations of `Warn`-policy constraints.  The commit stands;
    /// these are advisory.
    pub warnings: Vec<ConstraintViolation>,
    /// New violations of `Quarantine`-policy constraints.  The commit
    /// stands; the transaction's facts feeding each violated constraint
    /// were tagged in the quarantine ledger.
    pub quarantined: Vec<ConstraintViolation>,
    /// The epoch this commit published to the store's snapshot serving
    /// layer — the store `version` after the commit, one version authority
    /// shared with the guard's out-of-band detection.  `None` when serving
    /// is inactive (no reader session ever started on the store).
    pub epoch: Option<u64>,
}

impl CommitReceipt {
    /// Receipt of a commit that no guard inspected.
    pub(crate) fn unchecked(committed: usize) -> Self {
        CommitReceipt {
            committed,
            checked: false,
            warnings: Vec::new(),
            quarantined: Vec::new(),
            epoch: None,
        }
    }

    /// `true` if the commit passed with neither warnings nor quarantines.
    pub fn is_clean(&self) -> bool {
        self.warnings.is_empty() && self.quarantined.is_empty()
    }
}

/// Why a commit did not go through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitError {
    /// The transaction would introduce new violations of `Reject`-policy
    /// constraints.  Nothing was committed: all `rolled_back` changes were
    /// undone (the boundary is all-or-nothing).
    Rejected {
        /// The new violations, grouped by constraint in declaration order.
        violations: Vec<ConstraintViolation>,
        /// Number of undo-log changes rolled back (the whole transaction).
        rolled_back: usize,
    },
    /// Constraint evaluation itself failed (e.g. a resource limit); the
    /// transaction was rolled back because it could not be checked.
    Check(String),
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::Rejected {
                violations,
                rolled_back,
            } => write!(
                f,
                "commit rejected, {rolled_back} change(s) rolled back: {}",
                violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; ")
            ),
            CommitError::Check(m) => write!(f, "commit could not be checked: {m}"),
        }
    }
}

impl std::error::Error for CommitError {}

/// A quarantined fact remembered by name, so the ledger survives shadow
/// rebuilds (oids are not stable across [`ObjectStore::to_structure`]).
#[derive(Debug, Clone, PartialEq, Eq)]
enum TaggedFact {
    Scalar {
        obj: String,
        attr: String,
        constraint: Arc<str>,
    },
    Member {
        obj: String,
        attr: String,
        value: Value,
        constraint: Arc<str>,
    },
}

/// The installed guard: checker + shadow + quarantine ledger.
#[derive(Debug, Clone)]
pub struct ConstraintGuard {
    checker: ConstraintChecker,
    /// The PathLog image of the store, kept in sync change-by-change (via
    /// [`StoreImage`]'s log replay) so the checker's watermarks stay valid
    /// across commits.
    shadow: StoreImage,
    /// Violations that do not block commits: present at install time, or
    /// admitted by an earlier commit under Warn/Quarantine.  Pruned to the
    /// still-standing ones after every successful commit, so a violation
    /// that gets fixed and later reintroduced counts as new again.
    accepted: BTreeSet<ConstraintViolation>,
    /// Oid-level quarantine ledger over the current shadow.  Shared with
    /// the epochs published since it last changed: a commit that tags or
    /// releases nothing republishes the same ledger.
    quarantine: Arc<Quarantine>,
    /// Name-level mirror of the ledger, used to rebuild `quarantine` when
    /// the shadow is rebuilt.
    tagged: Vec<TaggedFact>,
    /// Install-time static-analysis report over the constraint set
    /// (safety of denial bodies, always-empty reads against the store's
    /// image).  Advisory: installation proceeds regardless.
    diagnostics: Diagnostics,
    /// [`ObjectStore::version`] at the last moment shadow == store.  This
    /// is the *same* counter the serving layer publishes as the snapshot
    /// epoch ([`CommitReceipt::epoch`]) — one version authority, so a
    /// reader session starting between two commits can never make the
    /// guard look out-of-sync (no shadow-rebuild false positive).
    synced_version: u64,
}

impl ConstraintGuard {
    /// Build a guard over the store's current contents and check it fully
    /// once.  Returns the guard and the install-time violations (accepted,
    /// not fatal — see the module docs).
    pub(crate) fn install(
        constraints: ConstraintSet,
        engine: Engine,
        store: &ObjectStore,
    ) -> pathlog_core::error::Result<(Self, Vec<ConstraintViolation>)> {
        let mut shadow = StoreImage::of_store(store);
        let diagnostics = AnalysisInput::new()
            .constraints(&constraints)
            .structure(shadow.structure())
            .run()
            .diagnostics;
        let mut checker = ConstraintChecker::new(constraints, engine);
        let baseline = checker.check_full(shadow.structure_mut())?;
        let guard = ConstraintGuard {
            checker,
            shadow,
            accepted: baseline.iter().cloned().collect(),
            quarantine: Arc::default(),
            tagged: Vec::new(),
            diagnostics,
            synced_version: store.version(),
        };
        Ok((guard, baseline))
    }

    /// The constraints being enforced.
    pub fn constraints(&self) -> &ConstraintSet {
        self.checker.constraints()
    }

    /// Lifetime checker counters (incremental vs full solves).
    pub fn stats(&self) -> CheckStats {
        self.checker.stats()
    }

    /// The quarantine ledger.
    pub fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// The ledger's shared handle, for publishing it with an epoch.
    pub(crate) fn quarantine_shared(&self) -> &Arc<Quarantine> {
        &self.quarantine
    }

    /// The install-time static-analysis report over the constraint set:
    /// safety diagnostics for each denial body plus always-empty-read
    /// warnings judged against the store's contents at install time.
    /// Advisory — a diagnostic here never blocks installation or commits.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diagnostics
    }

    /// The shadow structure (the store's PathLog image, post last sync).
    pub fn shadow(&self) -> &Structure {
        self.shadow.structure()
    }

    /// Violations currently tolerated (install-time baseline plus
    /// warned/quarantined ones still standing).
    pub fn accepted(&self) -> &BTreeSet<ConstraintViolation> {
        &self.accepted
    }

    pub(crate) fn synced_version(&self) -> u64 {
        self.synced_version
    }

    pub(crate) fn set_synced_version(&mut self, version: u64) {
        self.synced_version = version;
    }

    /// Answer `query` over the shadow in the guard engine's tolerance mode.
    pub fn tolerant_query(&self, query: &Query) -> pathlog_core::error::Result<TolerantAnswers> {
        tolerant_query(self.checker.engine(), self.shadow.structure(), &self.quarantine, query)
    }

    /// The commit protocol (see the module docs).  `store` already contains
    /// the transaction's mutations; `log` is its undo log;
    /// `begin_version` is the store version when the transaction began.
    pub(crate) fn check_commit(
        &mut self,
        store: &ObjectStore,
        log: &[Change],
        begin_version: u64,
    ) -> Result<CommitReceipt, CommitError> {
        let in_sync = self.synced_version == begin_version;
        if in_sync {
            self.shadow.apply(log);
        } else {
            // Out-of-band mutations since the last sync: the incremental
            // window is unsound, rebuild the shadow (which already includes
            // the transaction's changes) and re-tag the quarantine ledger.
            self.shadow = StoreImage::of_store(store);
            self.rebuild_quarantine();
        }
        let current = if in_sync {
            self.checker.check(self.shadow.structure_mut())
        } else {
            self.checker.check_full(self.shadow.structure_mut())
        };
        let current = match current {
            Ok(v) => v,
            Err(e) => {
                if in_sync {
                    self.shadow.revert(log);
                }
                return Err(CommitError::Check(e.to_string()));
            }
        };

        let mut rejected = Vec::new();
        let mut warnings = Vec::new();
        let mut quarantined = Vec::new();
        for violation in &current {
            if self.accepted.contains(violation) {
                continue;
            }
            let policy = self
                .checker
                .constraints()
                .get(&violation.constraint)
                .map(|c| c.policy())
                .unwrap_or(ConstraintPolicy::Reject);
            match policy {
                ConstraintPolicy::Reject => rejected.push(violation.clone()),
                ConstraintPolicy::Warn => warnings.push(violation.clone()),
                ConstraintPolicy::Quarantine => quarantined.push(violation.clone()),
            }
        }

        if !rejected.is_empty() {
            // Whether applied incrementally or baked into a rebuild, the
            // shadow holds the transaction's changes; undo them so it
            // matches the store the transaction's `Drop` will roll back to.
            self.shadow.revert(log);
            return Err(CommitError::Rejected {
                violations: rejected,
                rolled_back: log.len(),
            });
        }

        // Quarantine: tag the transaction's facts that feed each violated
        // constraint (matched on the constraint's read keys).
        for violation in &quarantined {
            self.tag_transaction_facts(log, violation);
        }

        // The commit stands: newly admitted violations join the accepted
        // set; accepted violations that no longer hold are pruned (their
        // quarantine tags are released too).
        let standing: BTreeSet<ConstraintViolation> = current.iter().cloned().collect();
        self.accepted = self
            .accepted
            .intersection(&standing)
            .cloned()
            .chain(warnings.iter().cloned())
            .chain(quarantined.iter().cloned())
            .collect();
        self.release_cleared_quarantines();
        self.synced_version = store.version();
        Ok(CommitReceipt {
            committed: log.len(),
            checked: true,
            warnings,
            quarantined,
            epoch: None,
        })
    }

    /// Tag the transaction's own additions that feed `violation`'s
    /// constraint: every logged fact whose attribute is one of the
    /// constraint's read keys.
    fn tag_transaction_facts(&mut self, log: &[Change], violation: &ConstraintViolation) {
        let Some(constraint) = self.checker.constraints().get(&violation.constraint) else {
            return;
        };
        let reads: BTreeSet<&str> = constraint
            .reads()
            .iter()
            .filter_map(|key| match key {
                DepKey::Known(Name::Atom(s)) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        let name = violation.constraint.clone();
        let mut new_tags = Vec::new();
        for change in log {
            match change {
                Change::ScalarSet { obj, attr, .. } if reads.contains(attr.as_str()) => {
                    new_tags.push(TaggedFact::Scalar {
                        obj: obj.clone(),
                        attr: attr.clone(),
                        constraint: name.clone(),
                    });
                }
                Change::SetAdded { obj, attr, value } if reads.contains(attr.as_str()) => {
                    new_tags.push(TaggedFact::Member {
                        obj: obj.clone(),
                        attr: attr.clone(),
                        value: value.clone(),
                        constraint: name.clone(),
                    });
                }
                _ => {}
            }
        }
        for tag in new_tags {
            self.apply_tag(&tag);
            if !self.tagged.contains(&tag) {
                self.tagged.push(tag);
            }
        }
    }

    /// Mirror one name-level tag into the oid-level ledger.
    fn apply_tag(&mut self, tag: &TaggedFact) {
        match tag {
            TaggedFact::Scalar { obj, attr, constraint } => {
                let m = self.shadow.atom(attr);
                let r = self.shadow.atom(obj);
                Arc::make_mut(&mut self.quarantine).tag_scalar(m, r, Vec::new(), constraint.clone());
            }
            TaggedFact::Member {
                obj,
                attr,
                value,
                constraint,
            } => {
                let m = self.shadow.atom(attr);
                let r = self.shadow.atom(obj);
                let v = self.shadow.intern(value);
                Arc::make_mut(&mut self.quarantine).tag_set_member(m, r, Vec::new(), v, constraint.clone());
            }
        }
    }

    /// Rebuild the oid-level ledger from the name-level mirror after a
    /// shadow rebuild.
    fn rebuild_quarantine(&mut self) {
        self.quarantine = Arc::default();
        for tag in std::mem::take(&mut self.tagged) {
            self.apply_tag(&tag);
            self.tagged.push(tag);
        }
    }

    /// Drop quarantine tags of constraints whose violations all cleared.
    fn release_cleared_quarantines(&mut self) {
        let still_violated: BTreeSet<&Arc<str>> = self.accepted.iter().map(|v| &v.constraint).collect();
        let cleared: Vec<Arc<str>> = self
            .quarantine
            .constraints()
            .into_iter()
            .filter(|c| !still_violated.contains(c))
            .collect();
        for constraint in cleared {
            Arc::make_mut(&mut self.quarantine).clear_constraint(&constraint);
            self.tagged.retain(|tag| match tag {
                TaggedFact::Scalar { constraint: c, .. } | TaggedFact::Member { constraint: c, .. } => {
                    **c != *constraint
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use pathlog_core::builtins::LT;
    use pathlog_core::constraints::{ConsistencyStatus, Constraint};
    use pathlog_core::engine::{EvalOptions, Tolerance};
    use pathlog_core::program::Literal;
    use pathlog_core::term::{Filter, FilterValue, Term};

    /// `ic :- X : manager, X[salary -> S], S < 1000` — no manager may earn
    /// below 1000.
    fn underpaid(policy: ConstraintPolicy) -> Constraint {
        Constraint::new(
            "manager_underpaid",
            vec![
                Literal::pos(Term::var("X").isa("manager")),
                Literal::pos(Term::var("X").filter(Filter::scalar("salary", Term::var("S")))),
                Literal::pos(Term::var("S").filter(Filter {
                    method: Term::name(LT),
                    args: vec![Term::int(1000)],
                    value: FilterValue::Scalar(Term::var("S")),
                })),
            ],
            policy,
        )
        .unwrap()
    }

    /// `ic :- X[kids ->> {Y}], Y : manager` — kids must not be managers.
    fn kid_manager() -> Constraint {
        Constraint::new(
            "kid_manager",
            vec![
                Literal::pos(Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")]))),
                Literal::pos(Term::var("Y").isa("manager")),
            ],
            ConstraintPolicy::Reject,
        )
        .unwrap()
    }

    /// Two managers above the line, plus `bench` whose salary interns the
    /// 1000 threshold into the shadow (comparison builtins relate interned
    /// integers).
    fn company() -> ObjectStore {
        let mut db = ObjectStore::with_schema(Schema::company());
        db.create("m1", "manager").unwrap();
        db.create("m2", "manager").unwrap();
        db.create("m3", "manager").unwrap();
        db.create("bench", "employee").unwrap();
        db.set("m1", "salary", Value::Int(1500)).unwrap();
        db.set("m2", "salary", Value::Int(1200)).unwrap();
        db.set("bench", "salary", Value::Int(1000)).unwrap();
        db
    }

    fn manager_salaries() -> Query {
        Query::new(vec![
            Literal::pos(Term::var("X").isa("manager")),
            Literal::pos(Term::var("X").filter(Filter::scalar("salary", Term::var("S")))),
        ])
    }

    #[test]
    fn rejected_commit_rolls_back_everything() {
        let mut db = company();
        let baseline = db
            .set_constraints(
                [underpaid(ConstraintPolicy::Reject)].into_iter().collect(),
                Engine::new(),
            )
            .unwrap();
        assert!(baseline.is_empty(), "{baseline:?}");

        let err = {
            let mut txn = db.begin();
            txn.set("m1", "salary", Value::Int(900)).unwrap();
            txn.set("m2", "salary", Value::Int(1300)).unwrap();
            txn.commit().unwrap_err()
        };
        match err {
            CommitError::Rejected {
                violations,
                rolled_back,
            } => {
                assert_eq!(rolled_back, 2, "the whole transaction is the boundary");
                assert_eq!(violations.len(), 1);
                assert_eq!(&*violations[0].constraint, "manager_underpaid");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // nothing committed — including the change that was itself legal
        assert_eq!(db.get("m1", "salary"), Some(&Value::Int(1500)));
        assert_eq!(db.get("m2", "salary"), Some(&Value::Int(1200)));

        // the guard recovered: a clean commit passes afterwards
        let receipt = {
            let mut txn = db.begin();
            txn.set("m1", "salary", Value::Int(1600)).unwrap();
            txn.commit().unwrap()
        };
        assert!(receipt.checked);
        assert!(receipt.is_clean());
        assert_eq!(db.get("m1", "salary"), Some(&Value::Int(1600)));
    }

    #[test]
    fn install_time_violations_are_accepted_not_fatal() {
        let mut db = company();
        db.set("m2", "salary", Value::Int(800)).unwrap();
        let baseline = db
            .set_constraints(
                [underpaid(ConstraintPolicy::Reject)].into_iter().collect(),
                Engine::new(),
            )
            .unwrap();
        assert_eq!(baseline.len(), 1, "pre-existing damage is reported");

        // an unrelated commit passes: the old violation does not block it
        let receipt = {
            let mut txn = db.begin();
            txn.add("m1", "assistants", Value::obj("bench")).unwrap();
            txn.commit().unwrap()
        };
        assert!(receipt.is_clean());

        // but *new* damage is still rejected
        let err = {
            let mut txn = db.begin();
            txn.set("m1", "salary", Value::Int(700)).unwrap();
            txn.commit().unwrap_err()
        };
        assert!(matches!(err, CommitError::Rejected { .. }));
        assert_eq!(db.get("m1", "salary"), Some(&Value::Int(1500)));
        assert_eq!(db.get("m2", "salary"), Some(&Value::Int(800)), "old damage untouched");
    }

    #[test]
    fn warn_policy_commits_and_reports() {
        let mut db = company();
        db.set_constraints([underpaid(ConstraintPolicy::Warn)].into_iter().collect(), Engine::new())
            .unwrap();
        let receipt = {
            let mut txn = db.begin();
            txn.set("m1", "salary", Value::Int(900)).unwrap();
            txn.commit().unwrap()
        };
        assert_eq!(receipt.committed, 1);
        assert_eq!(receipt.warnings.len(), 1);
        assert!(receipt.quarantined.is_empty());
        assert_eq!(db.get("m1", "salary"), Some(&Value::Int(900)), "warned, not blocked");

        // the admitted violation does not warn again on the next commit
        let receipt = {
            let mut txn = db.begin();
            txn.add("m1", "assistants", Value::obj("bench")).unwrap();
            txn.commit().unwrap()
        };
        assert!(receipt.is_clean());
    }

    #[test]
    fn quarantine_policy_tags_facts_and_tolerant_queries_degrade() {
        let mut db = company();
        let engine = Engine::with_options(EvalOptions {
            tolerance: Tolerance::Tolerant,
            ..EvalOptions::default()
        });
        db.set_constraints([underpaid(ConstraintPolicy::Quarantine)].into_iter().collect(), engine)
            .unwrap();
        let receipt = {
            let mut txn = db.begin();
            txn.set("m1", "salary", Value::Int(900)).unwrap();
            txn.commit().unwrap()
        };
        assert_eq!(receipt.quarantined.len(), 1);
        assert!(receipt.warnings.is_empty());
        let guard = db.constraint_guard().unwrap();
        assert!(!guard.quarantine().is_empty(), "violating facts were tagged");

        let out = db.tolerant_query(&manager_salaries()).unwrap();
        assert!(out.any_tainted());
        for answer in &out.answers {
            let is_m1 = answer
                .bindings
                .iter()
                .any(|(var, oid)| var.name() == "X" && guard.shadow().display_name(oid) == "m1");
            match (&answer.status, is_m1) {
                (ConsistencyStatus::Tainted(by), true) => {
                    assert!(by.iter().any(|c| &**c == "manager_underpaid"));
                }
                (ConsistencyStatus::Clean, false) => {}
                other => panic!("unexpected answer status {other:?}"),
            }
        }
    }

    #[test]
    fn incremental_commits_skip_unaffected_constraints() {
        let mut db = company();
        db.set_constraints(
            [underpaid(ConstraintPolicy::Reject), kid_manager()]
                .into_iter()
                .collect(),
            Engine::new(),
        )
        .unwrap();
        let after_install = db.constraint_guard().unwrap().stats();
        assert_eq!(after_install.condition_solves, 2, "install solves everything once");

        // a commit touching neither constraint's reads solves nothing
        {
            let mut txn = db.begin();
            txn.add("m1", "assistants", Value::obj("bench")).unwrap();
            txn.commit().unwrap();
        }
        let stats = db.constraint_guard().unwrap().stats();
        assert_eq!(stats.condition_solves, after_install.condition_solves, "both skipped");
        assert_eq!(stats.constraints_skipped, after_install.constraints_skipped + 2);

        // a fresh salary fact re-solves only the salary constraint
        {
            let mut txn = db.begin();
            txn.set("m3", "salary", Value::Int(1200)).unwrap();
            txn.commit().unwrap();
        }
        let stats = db.constraint_guard().unwrap().stats();
        assert_eq!(stats.condition_solves, after_install.condition_solves + 1);
        assert_eq!(stats.constraints_skipped, after_install.constraints_skipped + 3);
        assert_eq!(
            stats.full_checks, after_install.full_checks,
            "no full re-check happened"
        );
    }

    #[test]
    fn install_reports_static_diagnostics() {
        let mut db = company();
        // `fortune` is stored nowhere, so this denial can never fire —
        // the analyzer flags the read, installation still succeeds.
        let ghost = Constraint::new(
            "ghost_read",
            vec![Literal::pos(
                Term::var("X").filter(Filter::scalar("fortune", Term::var("F"))),
            )],
            ConstraintPolicy::Warn,
        )
        .unwrap();
        db.set_constraints(
            [underpaid(ConstraintPolicy::Reject), ghost].into_iter().collect(),
            Engine::new(),
        )
        .unwrap();
        let guard = db.constraint_guard().unwrap();
        let diags = guard.diagnostics();
        assert!(diags.no_errors(), "{diags}");
        assert!(
            diags
                .codes()
                .contains(&pathlog_core::analysis::DiagCode::AlwaysEmptyLiteral),
            "{diags}"
        );
        assert!(
            diags.iter().any(|d| d.subject.contains("ghost_read")),
            "diagnostic names the offending constraint: {diags}"
        );
    }

    #[test]
    fn aborted_transactions_keep_the_guard_in_sync() {
        let mut db = company();
        db.set_constraints(
            [underpaid(ConstraintPolicy::Reject)].into_iter().collect(),
            Engine::new(),
        )
        .unwrap();
        let installed = db.constraint_guard().unwrap().stats();
        {
            let mut txn = db.begin();
            txn.set("m1", "salary", Value::Int(100)).unwrap();
            // dropped uncommitted: rolls back
        }
        assert_eq!(db.get("m1", "salary"), Some(&Value::Int(1500)));
        {
            let mut txn = db.begin();
            txn.add("m1", "assistants", Value::obj("bench")).unwrap();
            txn.commit().unwrap();
        }
        let stats = db.constraint_guard().unwrap().stats();
        assert_eq!(
            stats.full_checks, installed.full_checks,
            "rollback fast-forwarded the sync point; no rebuild was needed"
        );
    }

    #[test]
    fn out_of_band_mutations_force_a_sound_rebuild() {
        let mut db = company();
        db.set_constraints(
            [underpaid(ConstraintPolicy::Reject)].into_iter().collect(),
            Engine::new(),
        )
        .unwrap();
        let installed = db.constraint_guard().unwrap().stats();

        // mutate the store directly, bypassing transactions
        db.set("m1", "age", Value::Int(55)).unwrap();

        let receipt = {
            let mut txn = db.begin();
            txn.set("m1", "salary", Value::Int(1700)).unwrap();
            txn.commit().unwrap()
        };
        assert!(receipt.is_clean());
        let stats = db.constraint_guard().unwrap().stats();
        assert_eq!(
            stats.full_checks,
            installed.full_checks + 1,
            "rebuild re-checked everything"
        );

        // the rebuilt shadow reflects both mutations and still rejects damage
        let err = {
            let mut txn = db.begin();
            txn.set("m2", "salary", Value::Int(400)).unwrap();
            txn.commit().unwrap_err()
        };
        assert!(matches!(err, CommitError::Rejected { .. }));
        assert_eq!(db.get("m2", "salary"), Some(&Value::Int(1200)));
        assert_eq!(
            db.get("m1", "age"),
            Some(&Value::Int(55)),
            "out-of-band change survives"
        );
    }
}
