//! Stratification of rule sets.
//!
//! Section 6 of the paper: "In one situation, where a path is used as a
//! result of a set valued method in a rule body, stratification of the rules
//! becomes necessary in a similar way to \[NT89\]. A rule of the following
//! structure `... <- X[friends ->> p1..assistants].` should only then be
//! applied, if the set of p1's assistants is already defined."
//!
//! We therefore compute strata over the rules such that every *strict* use
//! (the right-hand side of a `->>` filter in a body, and everything under a
//! negated literal — negation being an extension) only reads methods defined
//! in strictly earlier strata.  Ordinary (object-at-a-time) recursion stays
//! within a stratum and needs no special treatment, "similar to e.g. O-Logic".
//!
//! The relaxation fixpoint itself lives on the shared analysis graph
//! ([`crate::analysis::DependencyGraph::stratify`]); this module is a thin
//! consumer so that the strata the engine evaluates with are exactly the
//! strata the static analyzer reports.

use crate::analysis::DependencyGraph;
use crate::error::Result;
use crate::program::RuleInfo;

/// The result of stratification: rule indexes grouped by stratum, lowest
/// stratum first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stratification {
    /// `strata[i]` holds the indexes of the rules evaluated in stratum `i`.
    pub strata: Vec<Vec<usize>>,
    /// The stratum assigned to each rule.
    pub stratum_of: Vec<usize>,
}

impl Stratification {
    /// Number of strata.
    pub fn len(&self) -> usize {
        self.strata.len()
    }

    /// `true` if there are no rules at all.
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }
}

/// Compute a stratification of the rules described by `infos`.
///
/// Returns [`crate::error::Error::NotStratifiable`] when a rule
/// (transitively) depends on its own definitions through a strict use.
pub fn stratify(infos: &[RuleInfo]) -> Result<Stratification> {
    DependencyGraph::stratify_rule_infos(infos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::names::Name;
    use crate::program::DepKey;
    use std::collections::BTreeSet;

    fn info(defines: &[&str], uses: &[&str], strict: &[&str]) -> RuleInfo {
        RuleInfo {
            defines: defines.iter().map(|s| DepKey::Known(Name::atom(*s))).collect(),
            uses: uses.iter().map(|s| DepKey::Known(Name::atom(*s))).collect(),
            strict_uses: strict.iter().map(|s| DepKey::Known(Name::atom(*s))).collect(),
        }
    }

    #[test]
    fn empty_program() {
        let s = stratify(&[]).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn independent_rules_share_a_stratum() {
        let infos = vec![info(&["a"], &["b"], &[]), info(&["c"], &["d"], &[])];
        let s = stratify(&infos).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.strata[0], vec![0, 1]);
    }

    #[test]
    fn ordinary_recursion_stays_in_one_stratum() {
        // desc defined from kids and from desc itself (transitive closure).
        let infos = vec![info(&["desc"], &["kids"], &[]), info(&["desc"], &["desc", "kids"], &[])];
        let s = stratify(&infos).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn strict_use_forces_a_later_stratum() {
        // rule 0 defines assistants; rule 1 reads assistants set-at-a-time.
        let infos = vec![
            info(&["assistants"], &["worksFor"], &[]),
            info(&["friendly"], &[], &["assistants"]),
        ];
        let s = stratify(&infos).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.stratum_of[0], 0);
        assert_eq!(s.stratum_of[1], 1);
    }

    #[test]
    fn strict_cycle_is_rejected() {
        // a rule that reads its own definition set-at-a-time
        let infos = vec![info(&["friends"], &[], &["friends"])];
        let err = stratify(&infos).unwrap_err();
        assert!(matches!(err, Error::NotStratifiable(_)));
    }

    #[test]
    fn mutual_strict_cycle_is_rejected() {
        let infos = vec![info(&["a"], &[], &["b"]), info(&["b"], &[], &["a"])];
        assert!(stratify(&infos).is_err());
    }

    #[test]
    fn unknown_keys_are_wildcards() {
        // Generic tc rules: defines Unknown, uses Unknown -> same stratum, fine.
        let tc = RuleInfo {
            defines: [DepKey::Unknown].into_iter().collect(),
            uses: [DepKey::Unknown].into_iter().collect(),
            strict_uses: BTreeSet::new(),
        };
        let s = stratify(&[tc.clone(), tc]).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn chains_of_strict_uses_build_multiple_strata() {
        let infos = vec![
            info(&["a"], &[], &[]),
            info(&["b"], &[], &["a"]),
            info(&["c"], &[], &["b"]),
        ];
        let s = stratify(&infos).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.stratum_of, vec![0, 1, 2]);
    }

    #[test]
    fn negation_free_keys_do_not_interact() {
        let infos = vec![info(&["a"], &["z"], &[]), info(&["b"], &[], &["c"])];
        let s = stratify(&infos).unwrap();
        // nothing defines c, so rule 1 stays in stratum 1 with rule 0
        assert_eq!(s.len(), 1);
    }
}
