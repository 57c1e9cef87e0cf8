//! Clamped literal equivalences between two KBs (paper §5.3).
//!
//! Literal-equivalence probabilities "can be set upfront (clamped)" — they
//! are inputs to the model. This module joins the literals of the two KBs
//! through the blocking keys of a
//! [`LiteralSimilarity`] and materializes
//! both directions of the sparse `Pr(ℓ ≡ ℓ′)` table once, before the
//! iteration starts.

use paris_kb::{EntityId, FxHashMap, Kb};
use paris_literals::{levenshtein_similarity_at_least, normalize_alnum, LiteralSimilarity};

/// The pre-computed literal bridge: candidate rows in both directions.
#[derive(Clone, Debug)]
pub struct LiteralBridge {
    /// Per KB-1 entity (non-empty only for literals): KB-2 candidates.
    forward: Vec<Vec<(EntityId, f64)>>,
    /// Per KB-2 entity: KB-1 candidates.
    backward: Vec<Vec<(EntityId, f64)>>,
}

impl LiteralBridge {
    /// Joins the literals of `kb1` and `kb2` under `sim`.
    ///
    /// Complexity: O(#literals) expected — one hash of every KB-2 literal
    /// per key, then one lookup per KB-1 literal key; probabilities are
    /// only evaluated for blocked candidate pairs. Under
    /// [`LiteralSimilarity::EditDistance`] each literal is normalized once
    /// (not once per pair) and every pair is scored by
    /// [`levenshtein_similarity_at_least`], bit-identically to
    /// [`LiteralSimilarity::probability`].
    pub fn build(kb1: &Kb, kb2: &Kb, sim: &LiteralSimilarity) -> Self {
        let min_similarity = match sim {
            LiteralSimilarity::EditDistance { min_similarity } => Some(*min_similarity),
            _ => None,
        };
        let normalized = |value: &str| -> Vec<char> { normalize_alnum(value).chars().collect() };

        // Index KB-2 literals by blocking key.
        let mut by_key: FxHashMap<String, Vec<EntityId>> = FxHashMap::default();
        let mut normalized2: Vec<Vec<char>> = Vec::new();
        if min_similarity.is_some() {
            normalized2.resize(kb2.num_entities(), Vec::new());
        }
        for l2 in kb2.literals() {
            let lit2 = kb2.literal(l2).expect("literals() yields literal entities");
            for key in sim.keys(lit2) {
                by_key.entry(key).or_default().push(l2);
            }
            if min_similarity.is_some() {
                normalized2[l2.index()] = normalized(lit2.value());
            }
        }

        let mut forward: Vec<Vec<(EntityId, f64)>> = vec![Vec::new(); kb1.num_entities()];
        let mut backward: Vec<Vec<(EntityId, f64)>> = vec![Vec::new(); kb2.num_entities()];
        let mut seen: Vec<EntityId> = Vec::new();
        for l1 in kb1.literals() {
            let lit1 = kb1.literal(l1).expect("literals() yields literal entities");
            seen.clear();
            for key in sim.keys(lit1) {
                if let Some(cands) = by_key.get(&key) {
                    seen.extend_from_slice(cands);
                }
            }
            seen.sort_unstable();
            seen.dedup();
            let norm1 = match min_similarity {
                Some(_) if !seen.is_empty() => normalized(lit1.value()),
                _ => Vec::new(),
            };
            let row = &mut forward[l1.index()];
            for &l2 in &*seen {
                let lit2 = kb2.literal(l2).expect("candidate is a literal");
                let p = match min_similarity {
                    // LiteralSimilarity::probability's EditDistance arm.
                    Some(_) if lit1.value() == lit2.value() => 1.0,
                    Some(min) => {
                        levenshtein_similarity_at_least(&norm1, &normalized2[l2.index()], min)
                    }
                    None => sim.probability(lit1, lit2),
                };
                if p > 0.0 {
                    row.push((l2, p));
                    backward[l2.index()].push((l1, p));
                }
            }
        }
        for row in backward.iter_mut().chain(forward.iter_mut()) {
            row.sort_unstable_by_key(|&(e, _)| e);
            row.shrink_to_fit();
        }
        LiteralBridge { forward, backward }
    }

    /// KB-2 candidates of a KB-1 entity (empty for non-literals).
    #[inline]
    pub fn candidates(&self, l1: EntityId) -> &[(EntityId, f64)] {
        &self.forward[l1.index()]
    }

    /// KB-1 candidates of a KB-2 entity.
    #[inline]
    pub fn candidates_rev(&self, l2: EntityId) -> &[(EntityId, f64)] {
        &self.backward[l2.index()]
    }

    /// Consumes the bridge into its `(forward, backward)` rows.
    pub fn into_rows(self) -> (crate::equiv::CandidateRows, crate::equiv::CandidateRows) {
        (self.forward, self.backward)
    }

    /// Number of non-zero literal pairs.
    pub fn num_pairs(&self) -> usize {
        self.forward.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_kb::KbBuilder;
    use paris_rdf::Literal;

    fn kb_with_literals(name: &str, values: &[&str]) -> Kb {
        let mut b = KbBuilder::new(name);
        for (i, v) in values.iter().enumerate() {
            b.add_literal_fact(
                format!("http://{name}/e{i}"),
                "http://x/val",
                Literal::plain(*v),
            );
        }
        b.build()
    }

    fn lit_id(kb: &Kb, value: &str) -> EntityId {
        kb.entity(&paris_rdf::Term::Literal(Literal::plain(value)))
            .unwrap()
    }

    #[test]
    fn identity_bridges_equal_strings() {
        let kb1 = kb_with_literals("a", &["alpha", "beta"]);
        let kb2 = kb_with_literals("b", &["beta", "gamma"]);
        let bridge = LiteralBridge::build(&kb1, &kb2, &LiteralSimilarity::Identity);
        assert_eq!(bridge.num_pairs(), 1);
        let beta1 = lit_id(&kb1, "beta");
        let beta2 = lit_id(&kb2, "beta");
        assert_eq!(bridge.candidates(beta1), &[(beta2, 1.0)]);
        assert_eq!(bridge.candidates_rev(beta2), &[(beta1, 1.0)]);
        assert!(bridge.candidates(lit_id(&kb1, "alpha")).is_empty());
    }

    #[test]
    fn identity_bridges_equal_numbers_across_forms() {
        let kb1 = kb_with_literals("a", &["42"]);
        let kb2 = kb_with_literals("b", &["42.0"]);
        let bridge = LiteralBridge::build(&kb1, &kb2, &LiteralSimilarity::Identity);
        assert_eq!(bridge.num_pairs(), 1);
    }

    #[test]
    fn normalized_bridges_phone_formats() {
        let kb1 = kb_with_literals("a", &["213/467-1108"]);
        let kb2 = kb_with_literals("b", &["213-467-1108"]);
        let none = LiteralBridge::build(&kb1, &kb2, &LiteralSimilarity::Identity);
        assert_eq!(none.num_pairs(), 0);
        let bridge = LiteralBridge::build(&kb1, &kb2, &LiteralSimilarity::Normalized);
        assert_eq!(bridge.num_pairs(), 1);
    }

    #[test]
    fn edit_distance_is_graded() {
        let kb1 = kb_with_literals("a", &["restaurant"]);
        let kb2 = kb_with_literals("b", &["resturant", "zebra"]);
        let bridge = LiteralBridge::build(
            &kb1,
            &kb2,
            &LiteralSimilarity::EditDistance {
                min_similarity: 0.7,
            },
        );
        let cands = bridge.candidates(lit_id(&kb1, "restaurant"));
        assert_eq!(cands.len(), 1);
        assert!(cands[0].1 > 0.7 && cands[0].1 < 1.0);
    }

    #[test]
    fn multiple_candidates_per_literal() {
        let kb1 = kb_with_literals("a", &["abc"]);
        let kb2 = kb_with_literals("b", &["ABC", "a-b-c"]);
        let bridge = LiteralBridge::build(&kb1, &kb2, &LiteralSimilarity::Normalized);
        assert_eq!(bridge.candidates(lit_id(&kb1, "abc")).len(), 2);
    }

    #[test]
    fn non_literal_entities_have_no_candidates() {
        let mut b1 = KbBuilder::new("a");
        b1.add_fact("http://a/x", "http://a/r", "http://a/y");
        let kb1 = b1.build();
        let kb2 = kb_with_literals("b", &["x"]);
        let bridge = LiteralBridge::build(&kb1, &kb2, &LiteralSimilarity::Identity);
        for e in kb1.entities() {
            assert!(bridge.candidates(e).is_empty());
        }
    }
}
