//! Check-on-commit integrity constraints over the object store.
//!
//! [`ConstraintGuard`] is installed into an [`ObjectStore`] via
//! [`ObjectStore::set_constraints`] and consulted by every
//! [`Transaction::commit`](crate::Transaction::commit).  It owns no
//! structure: it checks the store's own image ([`ObjectStore::image`]),
//! which the store's mutators keep current, so constraint checking is
//! *incremental* — each check re-solves only the constraints whose read keys
//! were mutated since the last one, for the objects they were mutated at
//! (see [`pathlog_core::constraints`]).
//!
//! ## Commit protocol
//!
//! A commit is **atomic with respect to constraints**: either every change
//! in the transaction's undo log becomes durable, or none does.
//!
//! 1. When `commit` is called the image already holds the transaction's
//!    changes (and any direct mutation made since the last check), applied
//!    by the mutators that made them.
//! 2. The checker re-checks the instances of the constraints that the
//!    changes since its last check touched, and renders nothing
//!    ([`ConstraintChecker::refresh`]).  Violations that were already
//!    *accepted* — present at install time, or warned/quarantined by an
//!    earlier commit and still standing — do not block anything: the guard
//!    is inconsistency-tolerant and polices **new** damage only.  It keeps
//!    one accepted run per constraint and looks only at the constraints
//!    whose run changed since the last commit that stood, with a merge walk
//!    of the run against the accepted one.  Only the new violations are
//!    rendered.
//! 3. New violations are dispatched per the violated constraint's
//!    [`ConstraintPolicy`]:
//!    * **Reject** — the commit fails with [`CommitError::Rejected`], and
//!      the transaction's `Drop` rolls the store back through the same
//!      mutators, which takes the image back with it.  `rolled_back` in the
//!      error is the full log length: the committed/rolled-back boundary is
//!      all-or-nothing by construction.
//!    * **Warn** — the commit succeeds; the violations are listed in
//!      [`CommitReceipt::warnings`].
//!    * **Quarantine** — the commit succeeds; the transaction's facts that
//!      feed the violated constraint are tagged in the guard's
//!      [`Quarantine`] ledger (not removed), and
//!      [`ObjectStore::tolerant_query`] degrades gracefully: answers
//!      depending on tagged facts carry a tainted consistency status.
//!
//! A transaction dropped without ever reaching step 2 is undone the same
//! way.  If the checker had seen everything in the image when it began, the
//! image then holds the facts of the last check again and the checker's
//! position is moved past the changes and their inverses
//! ([`ConstraintChecker::skip_to`]): the abort costs the next check nothing.
//!
//! [`ObjectStore::delete_object`] and [`ObjectStore::schema_mut`] drop the
//! image; the store rebuilds it (at once after a deletion, before the next
//! transaction or session after a schema change — whether or not the schema
//! changed) and the guard starts over on it as at install time
//! ([`ConstraintGuard::rebaseline`]).

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
use pathlog_core::plan::FrameRun;
use pathlog_core::program::{DepKey, Query};
use pathlog_core::structure::Structure;

use crate::image::StoreImage;
use crate::store::Value;
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
    /// layer — the store `version` after the commit.  `None` when serving
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

/// A quarantined fact remembered by name, so the ledger survives image
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

/// The installed guard: checker + accepted violations + quarantine ledger,
/// all over the store's image ([`ObjectStore::image`](crate::ObjectStore::image)).
#[derive(Debug, Clone)]
pub struct ConstraintGuard {
    checker: ConstraintChecker,
    /// What `set_constraints` was handed; answers the store's tolerant queries.
    engine: Engine,
    /// Per constraint, the violations that do not block commits: present at
    /// install time, or admitted by an earlier commit under Warn/Quarantine —
    /// a run of the checker's.  A successful commit leaves every one equal
    /// to the checker's run, so a violation that gets fixed and later
    /// reintroduced counts as new again.
    accepted: Vec<FrameRun>,
    /// The check (by [`CheckStats::checks`]) after which `accepted` last
    /// equalled the checker's runs: a constraint whose run has not changed
    /// since has nothing new.
    settled: usize,
    /// Oid-level quarantine ledger over the store's image.  Shared with
    /// the sessions started since it last changed.
    quarantine: Arc<Quarantine>,
    /// Name-level mirror of the ledger, used to rebuild `quarantine` when
    /// the image is rebuilt.
    tagged: Vec<TaggedFact>,
    /// Install-time static-analysis report over the constraint set
    /// (safety of denial bodies, always-empty reads against the store's
    /// image).  Advisory: installation proceeds regardless.
    diagnostics: Diagnostics,
    /// Why the last re-baseline could not check the rebuilt image.  While
    /// set, every commit fails with it as [`CommitError::Check`]; the next
    /// rebuild of the image, or a new
    /// [`ObjectStore::set_constraints`], tries again.
    baseline_error: Option<String>,
}

impl ConstraintGuard {
    /// Build a guard over the store's `image` and check it fully once.
    /// Returns the guard and the install-time violations (accepted, not
    /// fatal — see the module docs).
    pub(crate) fn install(
        constraints: ConstraintSet,
        engine: Engine,
        image: &StoreImage,
    ) -> pathlog_core::error::Result<(Self, Vec<ConstraintViolation>)> {
        let diagnostics = AnalysisInput::new()
            .constraints(&constraints)
            .structure(image.structure())
            .run()
            .diagnostics;
        let mut checker = ConstraintChecker::new(constraints);
        let baseline = checker.check_full(image.structure())?;
        let guard = ConstraintGuard {
            accepted: (0..checker.constraints().len())
                .map(|i| checker.run(i).clone())
                .collect(),
            settled: checker.stats().checks,
            checker,
            engine,
            quarantine: Arc::default(),
            tagged: Vec::new(),
            diagnostics,
            baseline_error: None,
        };
        Ok((guard, baseline))
    }

    /// Start over on a rebuilt `image`: install again, then re-tag the
    /// ledger by name.  Whatever stands now is accepted — this is how damage
    /// done by [`ObjectStore::delete_object`] enters the baseline.  If the
    /// full check fails the guard knows nothing about the image and refuses
    /// every commit with that error (see `baseline_error`).
    pub(crate) fn rebaseline(&mut self, image: &mut StoreImage) {
        let tagged = std::mem::take(&mut self.tagged);
        match Self::install(self.constraints().clone(), self.engine.clone(), image) {
            Ok((fresh, _)) => *self = fresh,
            Err(e) => {
                self.baseline_error = Some(e.to_string());
                self.quarantine = Arc::default();
            }
        }
        for tag in tagged {
            self.apply_tag(image, &tag);
            self.tagged.push(tag);
        }
        self.release_cleared_quarantines();
    }

    /// The constraints being enforced.
    pub fn constraints(&self) -> &ConstraintSet {
        self.checker.constraints()
    }

    /// Checker counters (incremental vs full solves) since the guard was
    /// installed or last re-baselined.
    pub fn stats(&self) -> CheckStats {
        self.checker.stats()
    }

    /// The quarantine ledger.
    pub fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// The ledger's shared handle, for handing it to a session.
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

    /// Violations currently tolerated (install-time baseline plus
    /// warned/quarantined ones still standing), rendered against the
    /// store's `image` ([`ObjectStore::image`](crate::ObjectStore::image)):
    /// the guard keeps them as frames.
    pub fn accepted(&self, image: &StoreImage) -> BTreeSet<ConstraintViolation> {
        let runs = self.accepted.iter().enumerate();
        runs.flat_map(|(i, run)| self.checker.render(i, run, image.structure()))
            .collect()
    }

    /// Answer `query` over the store's `image` in the engine's tolerance mode.
    pub(crate) fn tolerant_query(
        &self,
        image: &Structure,
        query: &Query,
    ) -> pathlog_core::error::Result<TolerantAnswers> {
        tolerant_query(&self.engine, image, &self.quarantine, query)
    }

    /// Has the checker seen everything `image` holds?
    pub(crate) fn is_current(&self, image: &StoreImage) -> bool {
        self.checker.is_current(image.structure())
    }

    /// A transaction that began with the checker current was undone, fact
    /// for fact, before any check saw it: the last check's results stand
    /// for `image` as it is now.
    pub(crate) fn skip_undone(&mut self, image: &StoreImage) {
        self.checker.skip_to(image.structure());
    }

    /// The commit protocol (see the module docs).  `image` is the store's,
    /// already holding the transaction's mutations; `log` is its undo log.
    /// The check only reads the image ([`ConstraintChecker::check`] takes
    /// `&Structure`); it is `&mut` for the quarantine tags of step 3, which
    /// intern the names they tag.
    pub(crate) fn check_commit(
        &mut self,
        image: &mut StoreImage,
        log: &[Change],
    ) -> Result<CommitReceipt, CommitError> {
        if let Some(e) = &self.baseline_error {
            return Err(CommitError::Check(format!(
                "the rebuilt image could not be checked: {e}"
            )));
        }
        self.checker
            .refresh(image.structure())
            .map_err(|e| CommitError::Check(e.to_string()))?;

        // Only a constraint whose run changed since the last commit that
        // stood can hold a violation `accepted` lacks.
        let mut rejected = Vec::new();
        let mut warnings = Vec::new();
        let mut quarantined = Vec::new();
        for (i, constraint) in self.checker.constraints().iter().enumerate() {
            if self.checker.changed_at(i) <= self.settled {
                continue;
            }
            let new = self.checker.violations_beyond(i, &self.accepted[i], image.structure());
            match constraint.policy() {
                ConstraintPolicy::Reject => rejected.extend(new),
                ConstraintPolicy::Warn => warnings.extend(new),
                ConstraintPolicy::Quarantine => quarantined.extend(new),
            }
        }

        if !rejected.is_empty() {
            return Err(CommitError::Rejected {
                violations: rejected,
                rolled_back: log.len(),
            });
        }

        // Quarantine: tag the transaction's facts that feed each violated
        // constraint (matched on the constraint's read keys).
        for violation in &quarantined {
            self.tag_transaction_facts(image, log, violation);
        }

        // The commit stands: newly admitted violations join the accepted
        // ones and accepted violations that no longer hold are pruned (their
        // quarantine tags are released too) — `accepted` is the checker's
        // runs again.
        for i in 0..self.accepted.len() {
            if self.checker.changed_at(i) > self.settled {
                self.accepted[i] = self.checker.run(i).clone();
            }
        }
        self.settled = self.checker.stats().checks;
        self.release_cleared_quarantines();
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
    fn tag_transaction_facts(&mut self, image: &mut StoreImage, log: &[Change], violation: &ConstraintViolation) {
        let Some(constraint) = self.checker.constraints().get(&violation.constraint) else {
            return;
        };
        let reads: BTreeSet<&str> = constraint
            .reads()
            .iter()
            .filter_map(|key| match key {
                DepKey::Known(Name::Atom(s)) => Some(&**s),
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
            self.apply_tag(image, &tag);
            if !self.tagged.contains(&tag) {
                self.tagged.push(tag);
            }
        }
    }

    /// Mirror one name-level tag into the oid-level ledger.
    fn apply_tag(&mut self, image: &mut StoreImage, tag: &TaggedFact) {
        match tag {
            TaggedFact::Scalar { obj, attr, constraint } => {
                let m = image.atom(attr);
                let r = image.atom(obj);
                Arc::make_mut(&mut self.quarantine).tag_scalar(m, r, Vec::new(), constraint.clone());
            }
            TaggedFact::Member {
                obj,
                attr,
                value,
                constraint,
            } => {
                let m = image.atom(attr);
                let r = image.atom(obj);
                let v = image.intern(value);
                Arc::make_mut(&mut self.quarantine).tag_set_member(m, r, Vec::new(), v, constraint.clone());
            }
        }
    }

    /// Drop quarantine tags of constraints whose violations all cleared.
    fn release_cleared_quarantines(&mut self) {
        let constraints = self.checker.constraints().iter().zip(&self.accepted);
        let still_violated: BTreeSet<&Arc<str>> = constraints
            .filter(|(_, run)| !run.is_empty())
            .map(|(c, _)| c.name())
            .collect();
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
    use crate::ObjectStore;
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
    /// 1000 threshold into the image (comparison builtins relate interned
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
        let image = db.image().unwrap().structure();

        let out = db.tolerant_query(&manager_salaries()).unwrap();
        assert!(out.any_tainted());
        for answer in &out.answers {
            let is_m1 = answer
                .bindings
                .iter()
                .any(|(var, oid)| var.name() == "X" && image.display_name(oid) == "m1");
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

        // a salary never seen before is a new object, with no fact of its
        // own: the salary constraint is re-checked for m3 alone, the other
        // skipped, and nothing is checked in full
        {
            let mut txn = db.begin();
            txn.set("m3", "salary", Value::Int(1250)).unwrap();
            txn.commit().unwrap();
        }
        let stats = db.constraint_guard().unwrap().stats();
        assert_eq!(stats.condition_solves, after_install.condition_solves + 2);
        assert_eq!(stats.seeded_checks, after_install.seeded_checks + 2);
        assert_eq!(stats.constraints_skipped, after_install.constraints_skipped + 3);
        assert_eq!(
            stats.retraction_skips,
            after_install.retraction_skips + 1,
            "the old salary was retracted"
        );
        assert_eq!(stats.full_checks, after_install.full_checks);
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
    fn a_rejected_commit_is_rechecked_by_key_not_in_full() {
        let mut db = company();
        db.set_constraints(
            [underpaid(ConstraintPolicy::Reject), kid_manager()]
                .into_iter()
                .collect(),
            Engine::new(),
        )
        .unwrap();
        let reject_a_pay_cut = |db: &mut ObjectStore| {
            let mut txn = db.begin();
            txn.set("m1", "salary", Value::Int(100)).unwrap();
            assert!(matches!(txn.commit(), Err(CommitError::Rejected { .. })));
        };
        // (the first one names a value never seen before: a new object,
        // which no constraint here is sensitive to)
        let installed = db.constraint_guard().unwrap().stats();
        reject_a_pay_cut(&mut db);
        let before = db.constraint_guard().unwrap().stats();
        assert_eq!(before.full_checks, installed.full_checks);
        assert_eq!(before.seeded_checks, installed.seeded_checks + 1);
        // The check saw the change, so the rollback is its inverse in the
        // image, and the next check narrows by the receivers the two
        // touched.
        reject_a_pay_cut(&mut db);
        let stats = db.constraint_guard().unwrap().stats();
        assert_eq!(stats.full_checks, before.full_checks);
        assert_eq!(stats.seeded_checks, before.seeded_checks + 1);
        assert_eq!(
            stats.retraction_skips,
            before.retraction_skips + 1,
            "kid_manager reads nothing the rolled-back commit touched"
        );
        assert_eq!(db.get("m1", "salary"), Some(&Value::Int(1500)));
    }

    #[test]
    fn a_direct_mutation_is_checked_incrementally_with_the_next_commit() {
        let mut db = company();
        db.set_constraints(
            [underpaid(ConstraintPolicy::Reject), kid_manager()]
                .into_iter()
                .collect(),
            Engine::new(),
        )
        .unwrap();
        let installed = db.constraint_guard().unwrap().stats();

        // mutate the store directly, bypassing transactions: the mutator
        // itself keeps the image current
        db.add("m1", "assistants", Value::obj("bench")).unwrap();

        let receipt = {
            let mut txn = db.begin();
            txn.set("m3", "salary", Value::Int(1200)).unwrap();
            txn.commit().unwrap()
        };
        assert!(receipt.is_clean());
        let stats = db.constraint_guard().unwrap().stats();
        assert_eq!(stats.full_checks, installed.full_checks, "nothing was rebuilt");
        assert_eq!(
            stats.condition_solves,
            installed.condition_solves + 1,
            "only the salary constraint was re-solved"
        );

        // damage done directly is found by, and attributed to, the next commit
        db.set("m2", "salary", Value::Int(400)).unwrap();
        let err = {
            let mut txn = db.begin();
            txn.set("m1", "age", Value::Int(56)).unwrap();
            txn.commit().unwrap_err()
        };
        assert!(matches!(err, CommitError::Rejected { .. }));
        assert_eq!(db.get("m1", "age"), None, "the transaction rolled back");
        assert_eq!(
            db.get("m2", "salary"),
            Some(&Value::Int(400)),
            "the direct change is not the transaction's to undo"
        );

        // and damage staged in a transaction is still rejected
        db.set("m2", "salary", Value::Int(1200)).unwrap();
        let err = {
            let mut txn = db.begin();
            txn.set("m3", "salary", Value::Int(400)).unwrap();
            txn.commit().unwrap_err()
        };
        assert!(matches!(err, CommitError::Rejected { .. }));
        assert_eq!(db.get("m3", "salary"), Some(&Value::Int(1200)));
    }

    #[test]
    fn a_dropped_transaction_hides_no_direct_damage() {
        let mut db = company();
        db.set_constraints(
            [underpaid(ConstraintPolicy::Reject)].into_iter().collect(),
            Engine::new(),
        )
        .unwrap();
        db.set("m2", "salary", Value::Int(400)).unwrap();
        {
            // begins on an image the checker has not caught up with: undone
            // unchecked, it must not move the checker past the damage
            let mut txn = db.begin();
            txn.set("m3", "salary", Value::Int(1500)).unwrap();
        }
        let err = {
            let mut txn = db.begin();
            txn.add("m2", "assistants", Value::obj("bench")).unwrap();
            txn.commit().unwrap_err()
        };
        let CommitError::Rejected { violations, .. } = err else {
            panic!("expected rejection, got {err:?}");
        };
        assert!(violations[0].witnesses[1].starts_with("m2[salary"), "{violations:?}");
    }

    #[test]
    fn a_dropped_image_is_rebuilt_and_the_guard_starts_over_on_it() {
        let mut db = company();
        let engine = Engine::with_options(EvalOptions {
            tolerance: Tolerance::Tolerant,
            ..EvalOptions::default()
        });
        db.set_constraints([underpaid(ConstraintPolicy::Quarantine)].into_iter().collect(), engine)
            .unwrap();
        {
            let mut txn = db.begin();
            txn.set("m1", "salary", Value::Int(900)).unwrap();
            assert_eq!(txn.commit().unwrap().quarantined.len(), 1);
        }
        // the image cannot follow a deletion: it is rebuilt from the store
        // as it is now, the quarantined violation re-accepted and its fact
        // re-tagged
        db.delete_object("m3", crate::DeleteMode::Restrict).unwrap();
        let image = db.image().unwrap().structure();
        assert!(image.lookup_name(&Name::atom("m3")).is_none());
        let guard = db.constraint_guard().unwrap();
        assert_eq!(guard.accepted(db.image().unwrap()).len(), 1);
        assert_eq!(guard.stats().checks, 1, "the re-baseline: the counters restarted");
        assert!(db.tolerant_query(&manager_salaries()).unwrap().any_tainted());

        // a schema change can only drop it ...
        db.schema_mut()
            .attr("badge", crate::AttrKind::Scalar, "employee", crate::Range::Integer)
            .unwrap();
        assert!(db.image().is_none());
        let err = db.tolerant_query(&manager_salaries()).unwrap_err();
        assert!(err.to_string().contains("no image"), "{err}");
        // ... until the next transaction, before its first change
        let receipt = {
            let mut txn = db.begin();
            txn.set("m2", "badge", Value::Int(7)).unwrap();
            txn.commit().unwrap()
        };
        assert!(receipt.is_clean(), "{receipt:?}");
        assert_eq!(db.constraint_guard().unwrap().accepted(db.image().unwrap()).len(), 1);
        assert!(db.tolerant_query(&manager_salaries()).unwrap().any_tainted());
    }

    #[test]
    fn a_schema_handed_back_unchanged_still_rebuilds_the_image_and_the_guard() {
        let mut db = company();
        db.set_constraints(
            [underpaid(ConstraintPolicy::Reject)].into_iter().collect(),
            Engine::new(),
        )
        .unwrap();
        let installed = db.constraint_guard().unwrap().stats();
        let raise = |db: &mut ObjectStore, salary: i64| {
            let mut txn = db.begin();
            txn.set("m3", "salary", Value::Int(salary)).unwrap();
            txn.commit().unwrap();
        };
        raise(&mut db, 1500);
        assert_eq!(db.constraint_guard().unwrap().stats().checks, installed.checks + 1);
        // borrowed and handed back unchanged: the image goes all the same ...
        let _ = db.schema_mut();
        assert!(db.image().is_none(), "the image is dropped");
        // ... and the next transaction rebuilds it and re-baselines the guard
        raise(&mut db, 1600);
        assert!(db.image().is_some());
        let stats = db.constraint_guard().unwrap().stats();
        assert_eq!(
            stats.checks,
            installed.checks + 1,
            "re-baselined: the counters restarted"
        );
        assert_eq!(stats.full_checks, installed.full_checks);
    }
}
