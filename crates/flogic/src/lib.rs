//! # pathlog-flogic — the translation semantics PathLog argues against
//!
//! Section 2 of the paper contrasts PathLog's *direct* semantics with the way
//! XSQL handles path expressions: "semantics is only sketched by a
//! transformation into F-logic, while we will give a direct semantics in this
//! paper".  This crate implements that transformation as a comparison
//! baseline:
//!
//! * [`flat`] defines *flat molecules* — F-logic data atoms without any
//!   nesting: `o[m@(a1,..,ak) -> r]`, `o[m@(..) ->> {r}]` and `o : c`, where
//!   every position is a name, a variable or a *skolem function term*
//!   (`address(X)`), exactly the device F-logic and XSQL need where PathLog
//!   uses a method-denoted virtual object.
//! * [`translate`] rewrites PathLog references, rules and queries into
//!   conjunctions of flat molecules, introducing one auxiliary variable per
//!   path step in bodies and one skolem term per path step in rule heads.
//! * [`lower`] turns a flat program into PathLog rules whose every literal
//!   is one flat molecule (skolem terms become head paths under reserved
//!   methods), so the direct engine's planner evaluates the translation and
//!   answers can be compared one-to-one.
//!
//! Two properties of the paper are made measurable here:
//!
//! 1. **Compactness** — a single two-dimensional PathLog reference expands
//!    into a conjunction of flat atoms ([`translate::Translation::conjuncts`]
//!    counts them); this is the "second dimension" claim of Section 2.
//! 2. **Equivalence** — on the paper's examples the lowered translation
//!    derives exactly the answers of the direct semantics (integration test
//!    `tests/flogic_equivalence.rs`), confirming that the direct semantics is
//!    a conservative generalisation, not a different language.
//!
//! ```
//! use pathlog_core::structure::Structure;
//! use pathlog_core::term::Term;
//! use pathlog_flogic::translate::Translator;
//!
//! // mary.spouse[boss -> mary].age  — one reference, three flat atoms.
//! let reference = Term::name("mary")
//!     .scalar("spouse")
//!     .filter(pathlog_core::term::Filter::scalar("boss", Term::name("mary")))
//!     .scalar("age");
//! let translation = Translator::new().reference(&reference).unwrap();
//! assert_eq!(translation.conjuncts(), 3);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod flat;
pub mod lower;
pub mod translate;

pub use error::{FlogicError, Result};
pub use flat::{FlatAtom, FlatLiteral, FlatProgram, FlatQuery, FlatRule, FlatTerm, SkolemTerm};
pub use translate::{TranslationStats, Translator};
