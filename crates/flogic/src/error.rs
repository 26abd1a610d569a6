//! Error type of the translation.

use std::fmt;

/// Errors raised while translating PathLog into flat molecules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlogicError {
    /// The reference uses a construct the flat translation cannot express.
    ///
    /// The prominent case is a set-valued reference on the right-hand side of
    /// a `->>` filter *in a rule body* (the paper's stratification example in
    /// Section 6): the flat target language has no set-at-a-time comparison,
    /// which is precisely the expressiveness gap the direct semantics closes.
    Untranslatable(String),
    /// A rule head that is not assertable (set-valued, or a bare variable).
    InvalidHead(String),
}

impl fmt::Display for FlogicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlogicError::Untranslatable(m) => write!(f, "untranslatable reference: {m}"),
            FlogicError::InvalidHead(m) => write!(f, "invalid rule head: {m}"),
        }
    }
}

impl std::error::Error for FlogicError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, FlogicError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_kind() {
        assert!(FlogicError::Untranslatable("x".into())
            .to_string()
            .contains("untranslatable"));
        assert!(FlogicError::InvalidHead("x".into()).to_string().contains("head"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            FlogicError::InvalidHead("a".into()),
            FlogicError::InvalidHead("a".into())
        );
        assert_ne!(
            FlogicError::InvalidHead("a".into()),
            FlogicError::InvalidHead("b".into())
        );
    }
}
