//! Error types shared across the core crate.

use std::fmt;

/// Which evaluation budget was exhausted (see [`Error::LimitExceeded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimitKind {
    /// The fixpoint did not converge within
    /// [`EvalOptions::max_iterations`](crate::engine::EvalOptions).
    Iterations,
    /// More facts were derived than
    /// [`EvalOptions::max_derived`](crate::engine::EvalOptions) allows — the
    /// guard against runaway virtual-object creation.
    DerivedFacts,
}

impl fmt::Display for LimitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LimitKind::Iterations => write!(f, "fixpoint iterations"),
            LimitKind::DerivedFacts => write!(f, "derived facts"),
        }
    }
}

/// Errors raised while validating or evaluating PathLog references, rules and
/// programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A reference violates the well-formedness conditions of Definition 3.
    IllFormed(String),
    /// A rule violates a restriction on rule syntax (safety, set-valued head,
    /// unknown construct in a head, ...).
    InvalidRule(String),
    /// The program cannot be stratified (cyclic dependency through a
    /// set-at-a-time or negated body literal).
    NotStratifiable(String),
    /// A reference that had to be ground (variable-free under the current
    /// bindings) was not.
    NotGround(String),
    /// A name used in a read-only context is not known to the structure.
    UnknownName(String),
    /// A type (signature) violation detected by the checker.
    TypeViolation(String),
    /// An evaluation budget was exhausted.  Carries which limit was hit, its
    /// configured value and the observed count, so callers can react to the
    /// kind (retry with a larger budget, report the overshoot) without
    /// matching on formatted strings.
    LimitExceeded {
        /// Which budget was exhausted.
        kind: LimitKind,
        /// The configured limit.
        limit: usize,
        /// The value actually observed when the limit tripped.
        observed: usize,
    },
    /// Anything else.
    Other(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::IllFormed(m) => write!(f, "ill-formed reference: {m}"),
            Error::InvalidRule(m) => write!(f, "invalid rule: {m}"),
            Error::NotStratifiable(m) => write!(f, "program is not stratifiable: {m}"),
            Error::NotGround(m) => write!(f, "reference is not ground: {m}"),
            Error::UnknownName(m) => write!(f, "unknown name: {m}"),
            Error::TypeViolation(m) => write!(f, "type violation: {m}"),
            Error::LimitExceeded { kind, limit, observed } => {
                write!(f, "limit exceeded: {kind} over budget ({observed} > {limit})")
            }
            Error::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_message() {
        let e = Error::IllFormed("set valued result of scalar method".into());
        assert!(e.to_string().contains("ill-formed"));
        assert!(e.to_string().contains("scalar method"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::Other("x".into()), Error::Other("x".into()));
        assert_ne!(Error::Other("x".into()), Error::Other("y".into()));
    }

    #[test]
    fn limit_exceeded_carries_kind_and_values() {
        let e = Error::LimitExceeded {
            kind: LimitKind::Iterations,
            limit: 10,
            observed: 11,
        };
        assert!(e.to_string().contains("fixpoint iterations"));
        assert!(e.to_string().contains("11 > 10"));
        let e = Error::LimitExceeded {
            kind: LimitKind::DerivedFacts,
            limit: 100,
            observed: 150,
        };
        assert!(e.to_string().contains("derived facts"));
    }
}
