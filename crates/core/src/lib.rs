//! # pathlog-core
//!
//! A complete implementation of **PathLog** — the rule language of
//! *Access to Objects by Path Expressions and Rules* (Frohn, Lausen, Uphoff,
//! 1994).  PathLog generalises path expressions for object-oriented
//! databases in two ways:
//!
//! 1. it adds a **second dimension**: filters (molecules) can be attached to
//!    every object referenced inside a path, so one reference such as
//!    `X:employee[age->30]..vehicles:automobile[cylinders->4].color[Z]`
//!    replaces a conjunction of one-dimensional paths; and
//! 2. a path in a rule head can reference **virtual objects**: if
//!    `X.address` is undefined, evaluating
//!    `X.address[street -> X.street] <- X:person` creates one.
//!
//! The crate provides, layer by layer:
//!
//! * [`names`], [`term`] — the alphabet and the reference syntax
//!   (Definition 1), with a builder API and pretty-printing;
//! * [`scalarity`], [`wellformed`] — Definitions 2 and 3;
//! * [`structure`] — semantic structures `I = (U, isa, I_N, I_->, I_->>)`
//!   with indexes;
//! * [`semantics`] — the direct semantics: valuation (Definition 4),
//!   entailment (Definition 5) and answer enumeration;
//! * [`program`] — rules, facts, queries, validation;
//! * [`engine`] — stratified bottom-up evaluation with virtual-object
//!   creation;
//! * [`snapshot`] — epoch-stamped immutable `Arc<Structure>` snapshots and
//!   the pin/reclaim registry behind the MVCC serving layer;
//! * [`typing`] — signature-based type checking;
//! * [`analysis`] — static program analysis: dependency graphs, `PL0xx`
//!   diagnostics and cascade bounds;
//! * [`builtins`] — the `self` method and comparison extensions.
//!
//! ## Quick example
//!
//! ```
//! use pathlog_core::prelude::*;
//!
//! // Facts: peter's kids, and a transitive-closure rule for descendants.
//! let rules = vec![
//!     Rule::fact(Term::name("peter").filter(Filter::set("kids", vec![Term::name("tim"), Term::name("mary")]))),
//!     Rule::fact(Term::name("tim").filter(Filter::set("kids", vec![Term::name("sally")]))),
//!     Rule::new(
//!         Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
//!         vec![Literal::pos(Term::var("X").filter(Filter::set("kids", vec![Term::var("Y")])))],
//!     ),
//!     Rule::new(
//!         Term::var("X").filter(Filter::set("desc", vec![Term::var("Y")])),
//!         vec![Literal::pos(Term::var("X").set("desc").filter(Filter::set("kids", vec![Term::var("Y")])))],
//!     ),
//! ];
//!
//! let mut structure = Structure::new();
//! let engine = Engine::new();
//! engine.run_rules(&mut structure, &rules).unwrap();
//!
//! // peter..desc denotes all of peter's descendants.
//! let descendants = engine
//!     .eval_ground(&structure, &Term::name("peter").set("desc"))
//!     .unwrap();
//! assert_eq!(descendants.len(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod builtins;
pub mod constraints;
pub mod engine;
pub mod error;
pub mod names;
pub mod plan;
pub mod program;
pub mod scalarity;
pub mod semantics;
pub mod snapshot;
pub mod structure;
pub mod term;
pub mod typing;
pub mod wellformed;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::analysis::{
        analyze, Analysis, AnalysisInput, CascadeBound, CascadeReport, DiagCode, Diagnostic, Diagnostics,
        ReactiveRuleSummary, Severity, Span,
    };
    pub use crate::constraints::{
        tolerant_query, CheckStats, ConsistencyStatus, Constraint, ConstraintChecker, ConstraintPolicy, ConstraintSet,
        ConstraintViolation, Quarantine, TolerantAnswer, TolerantAnswers,
    };
    pub use crate::engine::{AnswerRow, Answers, Engine, EvalOptions, EvalStats, Tolerance};
    pub use crate::error::{Error, Result};
    pub use crate::names::{Name, Var};
    pub use crate::program::{Literal, Program, Query, Rule};
    pub use crate::scalarity::{is_scalar, is_set_valued, Scalarity};
    pub use crate::semantics::{answers, entails, is_model, valuate, violations, Answer, Bindings, Violation};
    pub use crate::snapshot::{Epoch, PinnedSnapshot, Snapshot, SnapshotRegistry, SnapshotStats};
    pub use crate::structure::{Oid, Signature, Structure, StructureStats};
    pub use crate::term::{Filter, FilterValue, Term};
    pub use crate::typing::{type_check, TypeError};
    pub use crate::wellformed::{check_well_formed, is_well_formed};
}

#[cfg(test)]
mod lib_tests {
    use crate::prelude::*;

    #[test]
    fn prelude_exposes_the_core_workflow() {
        let mut s = Structure::new();
        let engine = Engine::new();
        let rules = vec![Rule::fact(Term::name("mary").isa("employee"))];
        engine.run_rules(&mut s, &rules).unwrap();
        let q = Query::single(Term::var("X").isa("employee"));
        let solutions = engine.query(&s, &q).unwrap();
        assert_eq!(solutions.len(), 1);
    }
}
