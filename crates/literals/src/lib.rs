//! Literal similarity functions for PARIS (paper §5.3).
//!
//! "The probability that two literals are equal is known a priori and will
//! not change" — literal equivalences are *clamped* inputs to the
//! probabilistic model, not outputs of it. This crate implements the
//! paper's default (identity after numeric normalization), the
//! normalized-string measure of §6.3, and the graded edit-distance /
//! proportional-numeric measures §5.3 sketches, behind one enum:
//! [`LiteralSimilarity`].
//!
//! ```
//! use paris_literals::LiteralSimilarity;
//! use paris_rdf::Literal;
//!
//! let identity = LiteralSimilarity::Identity;
//! let normalized = LiteralSimilarity::Normalized;
//! let a = Literal::plain("213/467-1108");
//! let b = Literal::plain("213-467-1108");
//! assert_eq!(identity.probability(&a, &b), 0.0);   // the paper's §6.3 failure
//! assert_eq!(normalized.probability(&a, &b), 1.0); // ... and its fix
//! ```

#![forbid(unsafe_code)]

pub mod distance;
pub mod normalize;
pub mod numeric;
pub mod similarity;

pub use distance::{
    levenshtein, levenshtein_similarity, levenshtein_similarity_at_least, token_jaccard,
};
pub use normalize::{normalize_alnum, token_sort_key, tokens};
pub use numeric::{parse_numeric, proportional_difference};
pub use similarity::LiteralSimilarity;
