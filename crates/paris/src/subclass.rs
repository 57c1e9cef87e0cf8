//! Sub-class alignment (paper §4.3, Eq. 15–17).
//!
//! Classes are not matched for equivalence but for *inclusion*, because the
//! two taxonomies usually have different granularity. The score is the
//! expected fraction of `c`'s instances that are also instances of `c′`
//! (Eq. 17):
//!
//! ```text
//!             Σ_{x : type(x,c)} [ 1 − ∏_{y : type(y,c′)} (1 − P(x≡y)) ]
//! Pr(c⊆c′) = ─────────────────────────────────────────────────────────────
//!                              #x : type(x, c)
//! ```
//!
//! Per §4.3 and §5.1, class scores are computed **once, after** the
//! instance/relation fixed point has converged, from the final maximal
//! assignment — class membership is deliberately *not* fed back into
//! instance equivalence.

use paris_kb::{EntityId, FxHashMap, Kb};

use crate::config::ParisConfig;
use crate::equiv::Assignment;

/// One directional class-inclusion score.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassScore {
    /// The included (sub) class, in the source KB.
    pub sub: EntityId,
    /// The including (super) class, in the target KB.
    pub sup: EntityId,
    /// `Pr(sub ⊆ sup)` per Eq. 17.
    pub prob: f64,
    /// Number of members of `sub` that were sampled for the estimate
    /// (denominator of Eq. 17, after the `max_pairs` cap).
    pub sampled_members: usize,
}

/// Class-inclusion scores in both directions.
#[derive(Clone, Debug, Default)]
pub struct ClassAlignment {
    /// `Pr(c ⊆ c′)` for `c` in KB 1, `c′` in KB 2, sorted by `(sub, sup)`.
    pub one_to_two: Vec<ClassScore>,
    /// `Pr(c′ ⊆ c)` for `c′` in KB 2, `c` in KB 1.
    pub two_to_one: Vec<ClassScore>,
}

impl ClassAlignment {
    /// KB1 → KB2 inclusions with probability at least `threshold`.
    pub fn above_1to2(&self, threshold: f64) -> impl Iterator<Item = &ClassScore> {
        self.one_to_two.iter().filter(move |s| s.prob >= threshold)
    }

    /// KB2 → KB1 inclusions with probability at least `threshold`.
    pub fn above_2to1(&self, threshold: f64) -> impl Iterator<Item = &ClassScore> {
        self.two_to_one.iter().filter(move |s| s.prob >= threshold)
    }

    /// Number of distinct source classes with at least one assignment
    /// scoring ≥ `threshold`, KB1 → KB2 (the paper's Figure 2 series).
    pub fn classes_with_assignment_1to2(&self, threshold: f64) -> usize {
        let mut classes: Vec<EntityId> = self.above_1to2(threshold).map(|s| s.sub).collect();
        classes.sort_unstable();
        classes.dedup();
        classes.len()
    }
}

/// Computes Eq. 17 in both directions from the final assignment.
pub fn subclass_pass(
    kb1: &Kb,
    kb2: &Kb,
    assignment: &Assignment,
    config: &ParisConfig,
) -> ClassAlignment {
    ClassAlignment {
        one_to_two: direction(kb1, kb2, &assignment.fwd, config),
        two_to_one: direction(kb2, kb1, &assignment.rev, config),
    }
}

/// One direction of Eq. 17, using the maximal assignment `assign`
/// (indexed by source-KB entity id).
fn direction(
    src: &Kb,
    dst: &Kb,
    assign: &[Option<(EntityId, f64)>],
    config: &ParisConfig,
) -> Vec<ClassScore> {
    let mut out = Vec::new();
    let mut expected: FxHashMap<EntityId, f64> = FxHashMap::default();
    for &c in src.classes() {
        let members = src.members(c);
        if members.is_empty() {
            continue;
        }
        let sampled = members.len().min(config.max_pairs);
        expected.clear();
        for &x in &members[..sampled] {
            if let Some((x2, p)) = assign[x.index()] {
                // With a single candidate, 1 − ∏(1 − P) collapses to P for
                // every class of x2.
                for &c2 in dst.types_of(x2) {
                    *expected.entry(c2).or_insert(0.0) += p;
                }
            }
        }
        for (&c2, &num) in &expected {
            let prob = num / sampled as f64;
            if prob > 0.0 {
                out.push(ClassScore {
                    sub: c,
                    sup: c2,
                    prob: prob.min(1.0),
                    sampled_members: sampled,
                });
            }
        }
    }
    out.sort_unstable_by_key(|s| (s.sub, s.sup));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::EquivStore;
    use paris_kb::KbBuilder;

    /// KB1: 4 singers typed Singer ⊑ Person. KB2: same people typed
    /// Musician; two extras typed Musician only.
    fn taxonomy_kbs() -> (Kb, Kb) {
        let mut b1 = KbBuilder::new("a");
        let mut b2 = KbBuilder::new("b");
        b1.add_subclass("http://a/Singer", "http://a/Person");
        for i in 0..4 {
            b1.add_type(format!("http://a/s{i}"), "http://a/Singer");
            b2.add_type(format!("http://b/s{i}"), "http://b/Musician");
        }
        for i in 4..6 {
            b2.add_type(format!("http://b/s{i}"), "http://b/Musician");
        }
        (b1.build(), b2.build())
    }

    fn perfect_equiv(kb1: &Kb, kb2: &Kb, n: usize) -> EquivStore {
        let mut rows = vec![Vec::new(); kb1.num_entities()];
        for i in 0..n {
            let e1 = kb1.entity_by_iri(&format!("http://a/s{i}")).unwrap();
            let e2 = kb2.entity_by_iri(&format!("http://b/s{i}")).unwrap();
            rows[e1.index()].push((e2, 1.0));
        }
        EquivStore::from_rows(rows, kb2.num_entities())
    }

    #[test]
    fn subset_direction_scores_one() {
        let (kb1, kb2) = taxonomy_kbs();
        let equiv = perfect_equiv(&kb1, &kb2, 4);
        let ca = subclass_pass(&kb1, &kb2, &Assignment::of(&equiv), &ParisConfig::default());

        let singer = kb1.entity_by_iri("http://a/Singer").unwrap();
        let musician = kb2.entity_by_iri("http://b/Musician").unwrap();
        // All 4 singers are musicians: Pr(Singer ⊆ Musician) = 1.
        let s = ca
            .one_to_two
            .iter()
            .find(|s| s.sub == singer && s.sup == musician)
            .unwrap();
        assert_eq!(s.prob, 1.0);
        assert_eq!(s.sampled_members, 4);
        // Person (via closure) also has the 4 singers as members → also 1.
        let person = kb1.entity_by_iri("http://a/Person").unwrap();
        let p = ca
            .one_to_two
            .iter()
            .find(|s| s.sub == person && s.sup == musician)
            .unwrap();
        assert_eq!(p.prob, 1.0);
    }

    #[test]
    fn superset_direction_scores_fraction() {
        let (kb1, kb2) = taxonomy_kbs();
        let equiv = perfect_equiv(&kb1, &kb2, 4);
        let ca = subclass_pass(&kb1, &kb2, &Assignment::of(&equiv), &ParisConfig::default());
        let singer = kb1.entity_by_iri("http://a/Singer").unwrap();
        let musician = kb2.entity_by_iri("http://b/Musician").unwrap();
        // Only 4 of 6 musicians are singers: Pr(Musician ⊆ Singer) = 2/3.
        let s = ca
            .two_to_one
            .iter()
            .find(|s| s.sub == musician && s.sup == singer)
            .unwrap();
        assert!((s.prob - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn partial_probabilities_accumulate() {
        let (kb1, kb2) = taxonomy_kbs();
        let mut rows = vec![Vec::new(); kb1.num_entities()];
        for i in 0..4 {
            let e1 = kb1.entity_by_iri(&format!("http://a/s{i}")).unwrap();
            let e2 = kb2.entity_by_iri(&format!("http://b/s{i}")).unwrap();
            rows[e1.index()].push((e2, 0.5));
        }
        let equiv = EquivStore::from_rows(rows, kb2.num_entities());
        let ca = subclass_pass(&kb1, &kb2, &Assignment::of(&equiv), &ParisConfig::default());
        let singer = kb1.entity_by_iri("http://a/Singer").unwrap();
        let musician = kb2.entity_by_iri("http://b/Musician").unwrap();
        let s = ca
            .one_to_two
            .iter()
            .find(|s| s.sub == singer && s.sup == musician)
            .unwrap();
        assert!((s.prob - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unmatched_members_drag_score_down() {
        let (kb1, kb2) = taxonomy_kbs();
        let equiv = perfect_equiv(&kb1, &kb2, 2); // only s0, s1 matched
        let ca = subclass_pass(&kb1, &kb2, &Assignment::of(&equiv), &ParisConfig::default());
        let singer = kb1.entity_by_iri("http://a/Singer").unwrap();
        let musician = kb2.entity_by_iri("http://b/Musician").unwrap();
        let s = ca
            .one_to_two
            .iter()
            .find(|s| s.sub == singer && s.sup == musician)
            .unwrap();
        assert!((s.prob - 0.5).abs() < 1e-12, "2 of 4 members matched");
    }

    #[test]
    fn member_cap_is_respected() {
        let (kb1, kb2) = taxonomy_kbs();
        let equiv = perfect_equiv(&kb1, &kb2, 4);
        let config = ParisConfig {
            max_pairs: 2,
            ..ParisConfig::default()
        };
        let ca = subclass_pass(&kb1, &kb2, &Assignment::of(&equiv), &config);
        let singer = kb1.entity_by_iri("http://a/Singer").unwrap();
        let s = ca.one_to_two.iter().find(|s| s.sub == singer).unwrap();
        assert_eq!(s.sampled_members, 2);
    }

    #[test]
    fn empty_equiv_empty_alignment() {
        let (kb1, kb2) = taxonomy_kbs();
        let equiv = EquivStore::new(kb1.num_entities(), kb2.num_entities());
        let ca = subclass_pass(&kb1, &kb2, &Assignment::of(&equiv), &ParisConfig::default());
        assert!(ca.one_to_two.is_empty());
        assert!(ca.two_to_one.is_empty());
    }

    #[test]
    fn threshold_filters_and_counts() {
        let (kb1, kb2) = taxonomy_kbs();
        let equiv = perfect_equiv(&kb1, &kb2, 2);
        let ca = subclass_pass(&kb1, &kb2, &Assignment::of(&equiv), &ParisConfig::default());
        // Singer⊆Musician and Person⊆Musician at 0.5 each.
        assert_eq!(ca.above_1to2(0.4).count(), 2);
        assert_eq!(ca.above_1to2(0.6).count(), 0);
        assert_eq!(ca.classes_with_assignment_1to2(0.4), 2);
        assert_eq!(ca.classes_with_assignment_1to2(0.6), 0);
    }
}
