//! Borrow-free alignment results and aligned-pair snapshots.
//!
//! [`AlignmentResult`] borrows the two KBs it was
//! computed from, which is ideal inside one process but useless for
//! persistence: a serving daemon wants to load "two KBs plus their
//! alignment" as one self-contained value. [`OwnedAlignment`] detaches
//! the result — the equivalence, sub-relation, and class stores hold only
//! dense ids, so cloning them severs every borrow — and
//! [`AlignedPairSnapshot`] bundles it with the owned KBs. Persistence is
//! [`MappedPairSnapshot`](crate::view::MappedPairSnapshot)'s job: it
//! encodes this value as a v2 image and hydrates one back.

use paris_kb::{EntityId, Kb};
use paris_rdf::Iri;

use crate::equiv::{argmax, EquivStore};
use crate::iteration::{AlignmentResult, IterationStats};
use crate::subclass::ClassAlignment;
use crate::subrel::SubrelStore;

/// A PARIS result detached from its KB borrows.
///
/// All stores are id-based, so the value is self-contained; pair it with
/// the KBs it was computed from (checked via entity and relation counts
/// when an image is opened) to render IRIs and relation names.
#[derive(Clone, Debug)]
pub struct OwnedAlignment {
    /// Final instance-equivalence probabilities.
    pub instances: EquivStore,
    /// Final sub-relation scores (both directions).
    pub subrelations: SubrelStore,
    /// Class-inclusion scores (both directions).
    pub classes: ClassAlignment,
    /// Number of clamped literal-equivalence pairs.
    pub literal_pairs: usize,
    /// Per-iteration measurements of the producing run.
    pub iterations: Vec<IterationStats>,
    /// Whether the producing run converged (vs. hitting the cap).
    pub converged: bool,
    /// Number of directed relations in KB 1 (sizes the sub-relation rows).
    pub kb1_directed_relations: usize,
    /// Number of directed relations in KB 2.
    pub kb2_directed_relations: usize,
}

impl OwnedAlignment {
    /// Detaches a borrowed result into an owned value.
    pub fn from_result(result: &AlignmentResult<'_>) -> Self {
        OwnedAlignment {
            instances: result.instances.clone(),
            subrelations: result.subrelations.clone(),
            classes: result.classes.clone(),
            literal_pairs: result.literal_pairs,
            iterations: result.iterations.clone(),
            converged: result.converged(),
            kb1_directed_relations: result.kb1.num_directed_relations(),
            kb2_directed_relations: result.kb2.num_directed_relations(),
        }
    }

    /// The final maximal assignment restricted to instances:
    /// `(x, x′, Pr)` triples, one per assigned KB-1 instance.
    pub fn instance_pairs(&self, kb1: &Kb) -> Vec<(EntityId, EntityId, f64)> {
        let assign = self.instances.maximal_assignment();
        kb1.instances()
            .filter_map(|x| assign[x.index()].map(|(x2, p)| (x, x2, p)))
            .collect()
    }

    /// The best KB-2 match of a KB-1 entity, with its probability.
    pub fn best_match(&self, x: EntityId) -> Option<(EntityId, f64)> {
        argmax(self.instances.candidates(x).iter().copied())
    }

    /// The best KB-1 match of a KB-2 entity, with its probability.
    pub fn best_match_rev(&self, x2: EntityId) -> Option<(EntityId, f64)> {
        argmax(self.instances.candidates_rev(x2).iter().copied())
    }

    /// Looks up the maximal assignment of one KB-1 instance by IRI.
    pub fn instance_alignment_by_iri(&self, kb1: &Kb, kb2: &Kb, iri: &str) -> Option<Iri> {
        let x = kb1.entity_by_iri(iri)?;
        let (x2, _) = self.best_match(x)?;
        kb2.iri(x2).cloned()
    }

    /// Sub-relation alignments KB1 → KB2 above `threshold`, rendered with
    /// relation names, best first.
    pub fn relation_alignments_1to2(
        &self,
        kb1: &Kb,
        kb2: &Kb,
        threshold: f64,
    ) -> Vec<(String, String, f64)> {
        let mut out: Vec<(String, String, f64)> = self
            .subrelations
            .alignments_1to2()
            .filter(|&(_, _, p)| p >= threshold)
            .map(|(r1, r2, p)| (kb1.relation_display(r1), kb2.relation_display(r2), p))
            .collect();
        out.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Total number of stored (non-zero) instance equivalences.
    pub fn num_instance_pairs(&self) -> usize {
        self.instances.num_pairs()
    }
}

impl AlignmentResult<'_> {
    /// Detaches this result from its KB borrows.
    pub fn detach(&self) -> OwnedAlignment {
        OwnedAlignment::from_result(self)
    }
}

/// Two knowledge bases plus their alignment, as one self-contained
/// heap value — what the aligner produces, the delta path updates, and
/// the v2 image encoder persists.
#[derive(Debug)]
pub struct AlignedPairSnapshot {
    /// The first (source) ontology.
    pub kb1: Kb,
    /// The second (target) ontology.
    pub kb2: Kb,
    /// The computed alignment between them.
    pub alignment: OwnedAlignment,
}

impl AlignedPairSnapshot {
    /// Bundles owned KBs with their alignment.
    pub fn new(kb1: Kb, kb2: Kb, alignment: OwnedAlignment) -> Self {
        AlignedPairSnapshot {
            kb1,
            kb2,
            alignment,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParisConfig;
    use crate::iteration::Aligner;
    use paris_kb::KbBuilder;
    use paris_rdf::Literal;

    fn aligned_pair() -> (Kb, Kb) {
        let mut a = KbBuilder::new("left");
        let mut b = KbBuilder::new("right");
        for i in 0..6 {
            a.add_literal_fact(
                format!("http://a/p{i}"),
                "http://a/email",
                Literal::plain(format!("p{i}@x.org")),
            );
            a.add_fact(
                format!("http://a/p{i}"),
                "http://a/livesIn",
                format!("http://a/c{}", i % 2),
            );
            a.add_type(format!("http://a/p{i}"), "http://a/Person");
            b.add_literal_fact(
                format!("http://b/q{i}"),
                "http://b/mail",
                Literal::plain(format!("p{i}@x.org")),
            );
            b.add_fact(
                format!("http://b/q{i}"),
                "http://b/city",
                format!("http://b/d{}", i % 2),
            );
            b.add_type(format!("http://b/q{i}"), "http://b/Human");
        }
        (a.build(), b.build())
    }

    #[test]
    fn detach_preserves_queries() {
        let (kb1, kb2) = aligned_pair();
        let result = Aligner::new(&kb1, &kb2, ParisConfig::default()).run();
        let owned = result.detach();
        for i in 0..6 {
            let iri = format!("http://a/p{i}");
            assert_eq!(
                owned.instance_alignment_by_iri(&kb1, &kb2, &iri),
                result.instance_alignment_by_iri(&iri),
                "{iri}"
            );
        }
        assert_eq!(owned.instance_pairs(&kb1), result.instance_pairs());
        assert_eq!(owned.literal_pairs, result.literal_pairs);
        assert_eq!(owned.converged, result.converged());
    }
}
