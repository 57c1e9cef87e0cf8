//! Pluggable literal-equivalence functions (paper §5.3).
//!
//! "The probability that two literals are equal is known a priori and will
//! not change. Therefore, such probabilities can be set upfront (clamped)."
//! PARIS plugs those clamped probabilities into Eq. (13); everything else
//! in the model is derived. The paper's own implementation used the
//! simplest choice — identity after numeric normalization — and §6.3
//! additionally evaluates the normalized-string measure. Both are here,
//! plus the graded measures §5.3 sketches.
//!
//! A [`LiteralSimilarity`] provides two operations:
//!
//! * [`keys`](LiteralSimilarity::keys) — *blocking keys*: two literals can
//!   only have non-zero probability if they share at least one key. The
//!   aligner indexes one KB's literals by key, making candidate lookup
//!   O(1) per literal instead of O(n²) over literal pairs.
//! * [`probability`](LiteralSimilarity::probability) — the clamped
//!   `Pr(x ≡ y)` for a candidate pair.

use paris_rdf::Literal;

use crate::distance::levenshtein_similarity_at_least;
use crate::normalize::{normalize_alnum, token_sort_key};
use crate::numeric::{canonical_key, numeric_probability, parse_numeric};

/// A literal-equivalence function: blocking keys + clamped probability.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum LiteralSimilarity {
    /// The paper's default (§5.3): numeric values are normalized by
    /// stripping datatype/dimension information; then `Pr = 1` iff the
    /// lexical forms (or numeric values) are identical, else 0.
    #[default]
    Identity,
    /// §6.3's improved measure: strip non-alphanumerics, lowercase, then
    /// exact match. Fixes `213/467-1108` vs `213-467-1108`.
    Normalized,
    /// Graded similarity: `1 − lev/maxlen` when at least `min_similarity`,
    /// else 0. Blocked on normalized form and normalized 4-prefix, so only
    /// near-duplicates are even considered.
    EditDistance {
        /// Similarity threshold below which the probability is clamped to 0.
        min_similarity: f64,
    },
    /// Word-order-insensitive exact match on sorted lowercase tokens —
    /// catches the paper's *Sugata Sanshirô* / *Sanshiro Sugata* failure
    /// mode (§6.4).
    TokenSort,
    /// Numeric-aware: numbers match with probability falling linearly from
    /// 1 (equal) to 0 (at `tolerance` proportional difference); strings
    /// fall back to identity.
    NumericProportional {
        /// Proportional difference at which probability reaches 0.
        tolerance: f64,
    },
}

impl LiteralSimilarity {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            LiteralSimilarity::Identity => "identity",
            LiteralSimilarity::Normalized => "normalized",
            LiteralSimilarity::EditDistance { .. } => "edit-distance",
            LiteralSimilarity::TokenSort => "token-sort",
            LiteralSimilarity::NumericProportional { .. } => "numeric-proportional",
        }
    }

    /// Blocking keys of a literal. Two literals with disjoint key sets have
    /// probability 0 by construction.
    pub fn keys(&self, literal: &Literal) -> Vec<String> {
        let value = literal.value();
        match self {
            LiteralSimilarity::Identity => {
                vec![match parse_numeric(value) {
                    Some(x) => canonical_key(x),
                    None => value.to_owned(),
                }]
            }
            LiteralSimilarity::Normalized => vec![normalize_alnum(value)],
            LiteralSimilarity::EditDistance { .. } => {
                let norm = normalize_alnum(value);
                let prefix: String = norm.chars().take(4).collect();
                if prefix == norm {
                    vec![norm]
                } else {
                    vec![norm, format!("p:{prefix}")]
                }
            }
            LiteralSimilarity::TokenSort => vec![token_sort_key(value)],
            LiteralSimilarity::NumericProportional { .. } => {
                vec![match parse_numeric(value) {
                    Some(x) => canonical_key(x),
                    None => value.to_owned(),
                }]
            }
        }
    }

    /// The clamped equivalence probability `Pr(a ≡ b)`.
    ///
    /// Always in `[0, 1]`; symmetric; `1` for identical literals under
    /// every variant (reflexivity of ≡).
    pub fn probability(&self, a: &Literal, b: &Literal) -> f64 {
        let (va, vb) = (a.value(), b.value());
        match self {
            LiteralSimilarity::Identity => match (parse_numeric(va), parse_numeric(vb)) {
                (Some(x), Some(y)) => f64::from(u8::from(x == y)),
                _ => f64::from(u8::from(va == vb)),
            },
            LiteralSimilarity::Normalized => {
                f64::from(u8::from(normalize_alnum(va) == normalize_alnum(vb)))
            }
            LiteralSimilarity::EditDistance { min_similarity } => {
                if va == vb {
                    return 1.0;
                }
                let na: Vec<char> = normalize_alnum(va).chars().collect();
                let nb: Vec<char> = normalize_alnum(vb).chars().collect();
                levenshtein_similarity_at_least(&na, &nb, *min_similarity)
            }
            LiteralSimilarity::TokenSort => {
                f64::from(u8::from(token_sort_key(va) == token_sort_key(vb)))
            }
            LiteralSimilarity::NumericProportional { tolerance } => {
                match (parse_numeric(va), parse_numeric(vb)) {
                    (Some(x), Some(y)) => numeric_probability(x, y, *tolerance),
                    _ => f64::from(u8::from(va == vb)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &str) -> Literal {
        Literal::plain(s)
    }

    #[test]
    fn identity_is_strict() {
        let m = LiteralSimilarity::Identity;
        assert_eq!(m.probability(&lit("abc"), &lit("abc")), 1.0);
        assert_eq!(m.probability(&lit("abc"), &lit("Abc")), 0.0);
        assert_eq!(
            m.probability(&lit("213/467-1108"), &lit("213-467-1108")),
            0.0
        );
    }

    #[test]
    fn identity_normalizes_numbers() {
        let m = LiteralSimilarity::Identity;
        assert_eq!(m.probability(&lit("42"), &lit("42.0")), 1.0);
        assert_eq!(m.probability(&lit("42"), &lit("42.5")), 0.0);
        assert_eq!(m.keys(&lit("42")), m.keys(&lit("4.2e1")));
    }

    #[test]
    fn normalized_fixes_phone_formats() {
        let m = LiteralSimilarity::Normalized;
        assert_eq!(
            m.probability(&lit("213/467-1108"), &lit("213-467-1108")),
            1.0
        );
        assert_eq!(m.keys(&lit("213/467-1108")), m.keys(&lit("213-467-1108")));
        assert_eq!(m.probability(&lit("abc"), &lit("ABC!")), 1.0);
        assert_eq!(m.probability(&lit("abc"), &lit("abd")), 0.0);
    }

    #[test]
    fn edit_distance_grades() {
        let m = LiteralSimilarity::EditDistance {
            min_similarity: 0.7,
        };
        assert_eq!(m.probability(&lit("restaurant"), &lit("restaurant")), 1.0);
        let p = m.probability(&lit("restaurant"), &lit("restorant"));
        assert!(p > 0.7 && p < 1.0, "{p}");
        assert_eq!(m.probability(&lit("restaurant"), &lit("zebra")), 0.0);
    }

    #[test]
    fn edit_distance_keys_include_prefix() {
        let m = LiteralSimilarity::EditDistance {
            min_similarity: 0.7,
        };
        let keys = m.keys(&lit("restaurant"));
        assert!(keys.contains(&"restaurant".to_owned()));
        assert!(keys.contains(&"p:rest".to_owned()));
        // short strings don't duplicate the key
        assert_eq!(m.keys(&lit("ab")), vec!["ab".to_owned()]);
    }

    #[test]
    fn token_sort_swaps_words() {
        let m = LiteralSimilarity::TokenSort;
        assert_eq!(
            m.probability(&lit("Sanshiro Sugata"), &lit("Sugata Sanshiro")),
            1.0
        );
        assert_eq!(
            m.probability(&lit("Sanshiro Sugata"), &lit("Sugata Sanshirô")),
            0.0
        );
    }

    #[test]
    fn numeric_proportional_grades() {
        let m = LiteralSimilarity::NumericProportional { tolerance: 0.1 };
        assert_eq!(m.probability(&lit("100"), &lit("100.0")), 1.0);
        let p = m.probability(&lit("100"), &lit("99"));
        assert!(p > 0.8 && p < 1.0, "{p}");
        assert_eq!(m.probability(&lit("100"), &lit("50")), 0.0);
        // strings fall back to identity
        assert_eq!(m.probability(&lit("x"), &lit("x")), 1.0);
        assert_eq!(m.probability(&lit("x"), &lit("y")), 0.0);
    }

    #[test]
    fn all_variants_reflexive_and_symmetric() {
        let variants = [
            LiteralSimilarity::Identity,
            LiteralSimilarity::Normalized,
            LiteralSimilarity::EditDistance {
                min_similarity: 0.5,
            },
            LiteralSimilarity::TokenSort,
            LiteralSimilarity::NumericProportional { tolerance: 0.05 },
        ];
        let samples = ["abc", "213/467-1108", "42", "Sugata Sanshiro", ""];
        for m in &variants {
            for a in samples {
                assert_eq!(
                    m.probability(&lit(a), &lit(a)),
                    1.0,
                    "{m:?} not reflexive on {a:?}"
                );
                for b in samples {
                    let ab = m.probability(&lit(a), &lit(b));
                    let ba = m.probability(&lit(b), &lit(a));
                    assert!((ab - ba).abs() < 1e-12, "{m:?} asymmetric on {a:?}/{b:?}");
                    assert!((0.0..=1.0).contains(&ab));
                }
            }
        }
    }

    #[test]
    fn shared_key_is_necessary_for_match() {
        // The blocking contract: probability > 0 ⇒ keys intersect,
        // on a sample of realistic pairs.
        let variants = [
            LiteralSimilarity::Identity,
            LiteralSimilarity::Normalized,
            LiteralSimilarity::TokenSort,
            LiteralSimilarity::NumericProportional { tolerance: 0.05 },
        ];
        let samples = [
            "abc",
            "ABC",
            "a b c",
            "42",
            "42.0",
            "213/467-1108",
            "213-467-1108",
        ];
        for m in &variants {
            for a in samples {
                for b in samples {
                    if m.probability(&lit(a), &lit(b)) > 0.0 {
                        let ka = m.keys(&lit(a));
                        let kb = m.keys(&lit(b));
                        assert!(
                            ka.iter().any(|k| kb.contains(k)),
                            "{m:?}: {a:?} ≈ {b:?} but keys disjoint ({ka:?} / {kb:?})"
                        );
                    }
                }
            }
        }
    }
}
