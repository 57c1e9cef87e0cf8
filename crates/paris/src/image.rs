//! The serving image of an aligned pair.
//!
//! [`PairImage`] is an opened v2 snapshot ([`MappedPairSnapshot`]) behind
//! the side-addressed query surface the daemon (and anything else
//! answering `sameas` / `neighbors` / stats / explain queries) programs
//! against: every accessor names a [`PairSide`] and reads the arena in
//! place. Answers are bit-identical to the heap [`AlignedPairSnapshot`]
//! the image was encoded from — the encoder stores rows in the heap
//! stores' order and the view accessors replicate their folds.

use std::path::Path;

use paris_kb::snapshot::SnapshotError;
use paris_kb::{EntityId, EntityKind, KbStats, KbView, RelationId};
use paris_rdf::Literal;

use crate::owned::AlignedPairSnapshot;
use crate::view::{AlignmentView, MappedPairSnapshot};

/// Which KB of a pair a query addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairSide {
    /// The first (left) ontology.
    Kb1,
    /// The second (right) ontology.
    Kb2,
}

/// One rendered statement around an entity, as `/neighbors` reports it.
#[derive(Clone, Debug, PartialEq)]
pub struct FactRow {
    /// IRI of the base relation.
    pub relation: String,
    /// True when the statement is held in the inverse direction.
    pub inverse: bool,
    /// The neighbour term, rendered (IRI string or literal value).
    pub value: String,
    /// Global functionality of the directed relation.
    pub functionality: f64,
}

/// A loaded aligned-pair serving image.
#[derive(Debug)]
pub struct PairImage(MappedPairSnapshot);

impl From<MappedPairSnapshot> for PairImage {
    fn from(snapshot: MappedPairSnapshot) -> Self {
        PairImage(snapshot)
    }
}

impl PairImage {
    /// Opens a snapshot file in place (mmap-backed on Unix).
    pub fn load(path: impl AsRef<Path>) -> Result<PairImage, SnapshotError> {
        MappedPairSnapshot::open(path).map(PairImage)
    }

    fn kb(&self, side: PairSide) -> KbView<'_> {
        match side {
            PairSide::Kb1 => self.0.kb1(),
            PairSide::Kb2 => self.0.kb2(),
        }
    }

    fn alignment(&self) -> AlignmentView<'_> {
        self.0.alignment()
    }

    /// True when the image reads from an OS memory mapping (the page
    /// cache, not this process, owns the bytes).
    pub fn is_mapped(&self) -> bool {
        self.0.is_mapped()
    }

    /// Converts into an owned snapshot by hydrating the image.
    pub fn into_decoded(self) -> AlignedPairSnapshot {
        self.0.hydrate()
    }

    /// The display name of one side's KB.
    pub fn kb_name(&self, side: PairSide) -> &str {
        self.kb(side).name()
    }

    /// Table-2-style statistics of one side's KB.
    pub fn kb_stats(&self, side: PairSide) -> KbStats {
        self.kb(side).stats()
    }

    /// Number of entities (instances, classes, and literals) on one
    /// side — the id space quality scans iterate.
    pub fn num_entities(&self, side: PairSide) -> usize {
        self.kb(side).num_entities()
    }

    /// Number of directed relations on one side.
    pub fn num_directed_relations(&self, side: PairSide) -> usize {
        self.kb(side).num_directed_relations()
    }

    /// Looks up an entity by IRI on one side.
    pub fn entity_by_iri(&self, side: PairSide, iri: &str) -> Option<EntityId> {
        self.kb(side).entity_by_iri(iri)
    }

    /// The IRI string of an entity on one side (`None` for literals).
    pub fn entity_iri(&self, side: PairSide, e: EntityId) -> Option<String> {
        self.kb(side).iri_str(e).map(str::to_owned)
    }

    /// The best match of an entity on `side`, in the *other* KB.
    pub fn best_match_from(&self, side: PairSide, e: EntityId) -> Option<(EntityId, f64)> {
        match side {
            PairSide::Kb1 => self.alignment().best_match(e),
            PairSide::Kb2 => self.alignment().best_match_rev(e),
        }
    }

    /// Number of statements around an entity (both directions).
    pub fn facts_len(&self, side: PairSide, e: EntityId) -> usize {
        self.kb(side).facts_len(e)
    }

    /// One page of statements around an entity, rendered: `limit` rows
    /// starting at `offset` (in stored order, both directions).
    pub fn facts_page(
        &self,
        side: PairSide,
        e: EntityId,
        offset: usize,
        limit: usize,
    ) -> Vec<FactRow> {
        let kb = self.kb(side);
        kb.facts(e)
            .skip(offset)
            .take(limit)
            .map(|(r, y)| FactRow {
                relation: kb.relation_iri_str(r).to_owned(),
                inverse: r.is_inverse(),
                value: kb.term(y).to_string(),
                functionality: kb.functionality(r),
            })
            .collect()
    }

    /// Number of assigned KB-1 instances.
    pub fn aligned_instances(&self) -> usize {
        self.alignment().aligned_instances(self.0.kb1())
    }

    /// Total number of stored (non-zero) instance equivalences.
    pub fn num_instance_pairs(&self) -> usize {
        self.alignment().num_instance_pairs()
    }

    /// Number of clamped literal-equivalence pairs.
    pub fn literal_pairs(&self) -> usize {
        self.alignment().literal_pairs()
    }

    /// Iteration count of the producing run.
    pub fn iterations_len(&self) -> usize {
        self.alignment().iterations().len()
    }

    /// Whether the producing run converged.
    pub fn converged(&self) -> bool {
        self.alignment().converged()
    }

    // ------------------------------------------------------------------
    // Raw id-level accessors (the stored-evidence explain path).
    // ------------------------------------------------------------------

    /// The kind of an entity on one side.
    pub fn entity_kind(&self, side: PairSide, e: EntityId) -> EntityKind {
        self.kb(side).kind(e)
    }

    /// All statements around an entity (both directions), as raw ids in
    /// stored order.
    pub fn facts_ids(
        &self,
        side: PairSide,
        e: EntityId,
    ) -> impl ExactSizeIterator<Item = (RelationId, EntityId)> + '_ {
        self.kb(side).facts(e)
    }

    /// Global functionality of a directed relation on one side.
    pub fn functionality(&self, side: PairSide, r: RelationId) -> f64 {
        self.kb(side).functionality(r)
    }

    /// The IRI of a directed relation on one side (base IRI; pair with
    /// [`RelationId::is_inverse`] for direction).
    pub fn relation_iri_of(&self, side: PairSide, r: RelationId) -> String {
        self.kb(side).relation_iri_str(r).to_owned()
    }

    /// The rendered term of an entity (IRI string or literal value).
    pub fn term_string(&self, side: PairSide, e: EntityId) -> String {
        self.kb(side).term(e).to_string()
    }

    /// The literal value of an entity, if it is one.
    pub fn literal_of(&self, side: PairSide, e: EntityId) -> Option<Literal> {
        self.kb(side).term(e).as_literal().cloned()
    }

    /// Stored `Pr(x ≡ x′)` for a KB-1 / KB-2 entity pair (zero when the
    /// pair is not in the stored alignment).
    pub fn equiv_prob(&self, x: EntityId, x2: EntityId) -> f64 {
        self.alignment().prob(x, x2)
    }

    /// Stored `Pr(r ⊆ r′)` for `r` in KB 1, `r′` in KB 2.
    pub fn subrel_1in2(&self, r1: RelationId, r2: RelationId) -> f64 {
        self.alignment().subrel_prob_1in2(r1, r2)
    }

    /// Stored `Pr(r′ ⊆ r)` for `r′` in KB 2, `r` in KB 1.
    pub fn subrel_2in1(&self, r2: RelationId, r1: RelationId) -> f64 {
        self.alignment().subrel_prob_2in1(r2, r1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParisConfig;
    use crate::iteration::Aligner;
    use crate::owned::OwnedAlignment;
    use paris_kb::KbBuilder;
    use paris_rdf::Literal;

    fn tiny_snapshot() -> AlignedPairSnapshot {
        let mut a = KbBuilder::new("left");
        let mut b = KbBuilder::new("right");
        for i in 0..4 {
            a.add_literal_fact(
                format!("http://a/p{i}"),
                "http://a/email",
                Literal::plain(format!("p{i}@x.org")),
            );
            b.add_literal_fact(
                format!("http://b/q{i}"),
                "http://b/mail",
                Literal::plain(format!("p{i}@x.org")),
            );
        }
        let (kb1, kb2) = (a.build(), b.build());
        let owned = {
            let result = Aligner::new(&kb1, &kb2, ParisConfig::default()).run();
            OwnedAlignment::from_result(&result)
        };
        AlignedPairSnapshot::new(kb1, kb2, owned)
    }

    #[test]
    fn loaded_image_answers_like_the_heap_snapshot() {
        let dir = std::env::temp_dir().join("paris_image_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = tiny_snapshot();
        let path = dir.join("pair.snap");
        MappedPairSnapshot::save_v2(&snap, &path).unwrap();
        let img = PairImage::load(&path).unwrap();

        assert_eq!(img.kb_name(PairSide::Kb1), "left");
        assert_eq!(img.aligned_instances(), 4);
        let e = img.entity_by_iri(PairSide::Kb1, "http://a/p1").unwrap();
        let (matched, p) = img.best_match_from(PairSide::Kb1, e).unwrap();
        assert_eq!(snap.alignment.best_match(e), Some((matched, p)));
        assert_eq!(
            img.entity_iri(PairSide::Kb2, matched).as_deref(),
            Some("http://b/q1")
        );
        let page = img.facts_page(PairSide::Kb1, e, 0, 10);
        assert_eq!(page.len(), snap.kb1.facts(e).len());
        assert_eq!(page[0].value, "p1@x.org");
        assert_eq!(img.kb_stats(PairSide::Kb2), KbStats::of(&snap.kb2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_versions_are_rejected() {
        let dir = std::env::temp_dir().join("paris_image_unit_badver");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.snap");
        let mut bytes = MappedPairSnapshot::encode(&tiny_snapshot());
        bytes[8..12].copy_from_slice(&9u32.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            PairImage::load(&path),
            Err(SnapshotError::UnsupportedVersion(9))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
