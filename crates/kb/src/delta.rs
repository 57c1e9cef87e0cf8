//! KB deltas: incremental fact additions and removals.
//!
//! Real knowledge bases change continuously; re-ingesting the full dump
//! (and re-running the whole alignment) on every update throws away the
//! work the snapshot layer made persistent. A [`KbDelta`] captures a batch
//! of changes to one KB — facts to add, facts to remove, with any new
//! terms and relations implied by the added facts — and [`apply`] folds it
//! into an existing [`Kb`](crate::Kb) *incrementally*: only the pair lists, adjacency
//! rows, and functionalities of touched relations and entities are
//! rebuilt, and the [`AppliedDelta`] reports exactly which ids were
//! touched so downstream consumers (the incremental re-aligner in
//! `paris-core`) can seed their dirty sets from it.
//!
//! # Binary format
//!
//! Deltas serialize through the checksummed frame of
//! [`snapshot::write_file`](crate::snapshot::write_file) (kind =
//! [`SnapshotKind::Delta`]): the payload is the target KB name, then the
//! added and removed fact lists, each fact a `(subject IRI, relation IRI,
//! tagged object term)` triple in the tagged term encoding of
//! [`snapshot::put_term`](crate::snapshot::put_term) — see
//! [`snapshot`](crate::snapshot) for the header layout.
//!
//! # Scope
//!
//! Deltas carry plain facts only. Schema changes (`rdf:type`,
//! `rdfs:subClassOf`, `rdfs:subPropertyOf`) would invalidate the
//! pre-computed deductive closure, so [`KbDelta::add_triple`] rejects them
//! with [`DeltaError::SchemaChange`] — rebuild the KB from source for
//! schema evolution. Removing a fact never un-interns its terms: entity
//! ids are append-only across delta application, which is what keeps
//! previously computed alignment scores addressable.
//!
//! ```
//! use paris_kb::{KbBuilder, delta::{KbDelta, apply}};
//!
//! let mut b = KbBuilder::new("demo");
//! b.add_fact("http://x/Elvis", "http://x/bornIn", "http://x/Tupelo");
//! let kb = b.build();
//!
//! let mut delta = KbDelta::new("demo");
//! delta.add_fact("http://x/Priscilla", "http://x/bornIn", "http://x/Brooklyn");
//! delta.remove_fact("http://x/Elvis", "http://x/bornIn", "http://x/Tupelo");
//!
//! let applied = apply(&kb, &delta).unwrap();
//! assert_eq!(applied.kb.num_facts(), 1);
//! assert_eq!(applied.added, 1);
//! assert_eq!(applied.removed, 1);
//! ```

use std::fmt;
use std::path::Path;

use paris_rdf::term::{Iri, Literal, Term};
use paris_rdf::triple::Triple;
use paris_rdf::vocab;

use crate::snapshot::{
    get_term, put_term, read_file, write_file, PayloadReader, PayloadWriter, SnapshotError,
    SnapshotKind,
};

/// One fact at the term level (ids are assigned only when the delta is
/// applied to a concrete KB, since added facts may introduce new terms).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaFact {
    /// Subject resource.
    pub subject: Iri,
    /// Relation (always the forward direction).
    pub relation: Iri,
    /// Object: a resource or a literal.
    pub object: Term,
}

/// A batch of changes to one knowledge base: facts to add and facts to
/// remove. See the [module docs](self) for scope and the binary format.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KbDelta {
    /// Name of the KB this delta targets. [`apply`] rejects a mismatch
    /// unless the target is empty (a wildcard delta).
    pub target: String,
    /// Facts to add.
    pub added: Vec<DeltaFact>,
    /// Facts to remove.
    pub removed: Vec<DeltaFact>,
}

/// Everything that can go wrong building or applying a delta.
#[derive(Debug)]
pub enum DeltaError {
    /// The delta contains a schema-changing predicate; deltas carry plain
    /// facts only (the deductive closure would need a full rebuild).
    SchemaChange(String),
    /// The delta names a different KB than the one it is applied to.
    WrongTarget {
        /// The KB the delta was built for.
        delta: String,
        /// The KB it was applied to.
        kb: String,
    },
    /// Reading or writing the binary delta file failed.
    Snapshot(SnapshotError),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::SchemaChange(pred) => write!(
                f,
                "deltas cannot change the schema (predicate {pred}); rebuild the KB instead"
            ),
            DeltaError::WrongTarget { delta, kb } => {
                write!(f, "delta targets KB '{delta}' but was applied to '{kb}'")
            }
            DeltaError::Snapshot(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<SnapshotError> for DeltaError {
    fn from(e: SnapshotError) -> Self {
        DeltaError::Snapshot(e)
    }
}

impl KbDelta {
    /// An empty delta targeting the named KB (`""` targets any KB).
    pub fn new(target: impl Into<String>) -> Self {
        KbDelta {
            target: target.into(),
            added: Vec::new(),
            removed: Vec::new(),
        }
    }

    /// Queues a resource-to-resource fact for addition.
    pub fn add_fact(
        &mut self,
        subject: impl Into<Iri>,
        relation: impl Into<Iri>,
        object: impl Into<Iri>,
    ) {
        self.added.push(DeltaFact {
            subject: subject.into(),
            relation: relation.into(),
            object: Term::Iri(object.into()),
        });
    }

    /// Queues a resource-to-literal fact for addition.
    pub fn add_literal_fact(
        &mut self,
        subject: impl Into<Iri>,
        relation: impl Into<Iri>,
        literal: Literal,
    ) {
        self.added.push(DeltaFact {
            subject: subject.into(),
            relation: relation.into(),
            object: Term::Literal(literal),
        });
    }

    /// Queues a resource-to-resource fact for removal.
    pub fn remove_fact(
        &mut self,
        subject: impl Into<Iri>,
        relation: impl Into<Iri>,
        object: impl Into<Iri>,
    ) {
        self.removed.push(DeltaFact {
            subject: subject.into(),
            relation: relation.into(),
            object: Term::Iri(object.into()),
        });
    }

    /// Queues a resource-to-literal fact for removal.
    pub fn remove_literal_fact(
        &mut self,
        subject: impl Into<Iri>,
        relation: impl Into<Iri>,
        literal: Literal,
    ) {
        self.removed.push(DeltaFact {
            subject: subject.into(),
            relation: relation.into(),
            object: Term::Literal(literal),
        });
    }

    /// Queues one parsed triple for addition (`remove: false`) or removal
    /// (`remove: true`). Schema predicates are rejected — see the
    /// [module docs](self).
    pub fn add_triple(&mut self, triple: &Triple, remove: bool) -> Result<(), DeltaError> {
        match triple.predicate.as_str() {
            vocab::RDF_TYPE | vocab::RDFS_SUBCLASS_OF | vocab::RDFS_SUBPROPERTY_OF => {
                return Err(DeltaError::SchemaChange(
                    triple.predicate.as_str().to_owned(),
                ))
            }
            _ => {}
        }
        let fact = DeltaFact {
            subject: triple.subject.clone(),
            relation: triple.predicate.clone(),
            object: triple.object.clone(),
        };
        if remove {
            self.removed.push(fact);
        } else {
            self.added.push(fact);
        }
        Ok(())
    }

    /// Queues every triple from an iterator, all as additions or all as
    /// removals. Fails on the first schema predicate.
    pub fn add_triples<'t>(
        &mut self,
        triples: impl IntoIterator<Item = &'t Triple>,
        remove: bool,
    ) -> Result<(), DeltaError> {
        for t in triples {
            self.add_triple(t, remove)?;
        }
        Ok(())
    }

    /// Total number of queued changes.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// True when no changes are queued.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    // ------------------------------------------------------------------
    // Binary encoding
    // ------------------------------------------------------------------

    /// Appends the delta body to a payload.
    pub fn encode(&self, w: &mut PayloadWriter) {
        w.put_str(&self.target);
        for list in [&self.added, &self.removed] {
            w.put_u64(list.len() as u64);
            for fact in list {
                w.put_str(fact.subject.as_str());
                w.put_str(fact.relation.as_str());
                put_term(w, &fact.object);
            }
        }
    }

    /// Decodes a delta body written by [`encode`](Self::encode).
    pub fn decode(r: &mut PayloadReader<'_>) -> Result<Self, SnapshotError> {
        fn decode_list(r: &mut PayloadReader<'_>) -> Result<Vec<DeltaFact>, SnapshotError> {
            let n = r.get_len()?;
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                let subject = Iri::new(r.get_str()?);
                let relation = Iri::new(r.get_str()?);
                let object = get_term(r)?;
                list.push(DeltaFact {
                    subject,
                    relation,
                    object,
                });
            }
            Ok(list)
        }
        let target = r.get_str()?.to_owned();
        let added = decode_list(r)?;
        let removed = decode_list(r)?;
        Ok(KbDelta {
            target,
            added,
            removed,
        })
    }

    /// Serializes into framed bytes (kind [`SnapshotKind::Delta`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = PayloadWriter::new();
        self.encode(&mut payload);
        let mut out = crate::snapshot::frame_header(SnapshotKind::Delta, payload.bytes());
        out.extend_from_slice(payload.bytes());
        out
    }

    /// Writes a framed delta file (atomically, like snapshots).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let mut payload = PayloadWriter::new();
        self.encode(&mut payload);
        write_file(path, SnapshotKind::Delta, payload.bytes())
    }

    /// Loads and validates a framed delta file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let (kind, payload) = read_file(path)?;
        if kind != SnapshotKind::Delta {
            return Err(SnapshotError::corrupt(format!(
                "expected a KB delta, found a {}",
                kind.name()
            )));
        }
        let mut r = PayloadReader::new(&payload);
        let delta = KbDelta::decode(&mut r)?;
        if !r.is_exhausted() {
            return Err(SnapshotError::corrupt("trailing bytes after delta body"));
        }
        Ok(delta)
    }
}

pub use crate::delta_apply::{
    apply, apply_owned, apply_owned_with_functionality, apply_with_functionality, AppliedDelta,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KbBuilder;
    use crate::stats::KbStats;
    use crate::store::Kb;

    fn base_kb() -> Kb {
        let mut b = KbBuilder::new("base");
        b.add_fact("http://x/Elvis", "http://x/bornIn", "http://x/Tupelo");
        b.add_fact("http://x/Carl", "http://x/bornIn", "http://x/Tupelo");
        b.add_literal_fact("http://x/Elvis", "http://x/name", Literal::plain("Elvis"));
        b.add_type("http://x/Elvis", "http://x/Singer");
        b.build()
    }

    #[test]
    fn delta_round_trips_through_bytes() {
        let mut delta = KbDelta::new("base");
        delta.add_fact("http://x/a", "http://x/r", "http://x/b");
        delta.add_literal_fact(
            "http://x/a",
            "http://x/name",
            Literal::lang_tagged("a", "en"),
        );
        delta.remove_literal_fact(
            "http://x/b",
            "http://x/born",
            Literal::typed("1935", "http://www.w3.org/2001/XMLSchema#gYear"),
        );
        let path = std::env::temp_dir().join("paris_delta_unit_roundtrip.delta");
        delta.save(&path).unwrap();
        let loaded = KbDelta::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, delta);
    }

    #[test]
    fn delta_file_kind_is_checked() {
        let path = std::env::temp_dir().join("paris_delta_unit_kind.snap");
        write_file(&path, SnapshotKind::Kb, b"").unwrap();
        let err = KbDelta::load(&path).unwrap_err();
        assert!(err.to_string().contains("expected a KB delta"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_delta_is_rejected() {
        let mut delta = KbDelta::new("base");
        delta.add_fact("http://x/a", "http://x/r", "http://x/b");
        let mut bytes = delta.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = crate::snapshot::read_payload(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::ChecksumMismatch { .. }));
    }

    #[test]
    fn apply_adds_and_removes_facts() {
        let kb = base_kb();
        let elvis = kb.entity_by_iri("http://x/Elvis").unwrap();
        let born_in = kb.relation_by_iri("http://x/bornIn").unwrap();
        assert_eq!(kb.num_pairs(born_in), 2);

        let mut delta = KbDelta::new("base");
        delta.remove_fact("http://x/Carl", "http://x/bornIn", "http://x/Tupelo");
        delta.add_fact("http://x/Elvis", "http://x/diedIn", "http://x/Memphis");
        let applied = apply(&kb, &delta).unwrap();
        assert_eq!(applied.added, 1);
        assert_eq!(applied.removed, 1);

        let new = &applied.kb;
        assert_eq!(
            new.num_pairs(new.relation_by_iri("http://x/bornIn").unwrap()),
            1
        );
        let died_in = new.relation_by_iri("http://x/diedIn").unwrap();
        let memphis = new.entity_by_iri("http://x/Memphis").unwrap();
        assert!(new.facts(elvis).contains(&(died_in, memphis)));
        assert!(new.facts(memphis).contains(&(died_in.inverse(), elvis)));
        // Carl keeps his id but lost his fact.
        let carl = new.entity_by_iri("http://x/Carl").unwrap();
        assert!(new.facts(carl).is_empty());
        // Terms are never un-interned.
        assert_eq!(carl, kb.entity_by_iri("http://x/Carl").unwrap());
    }

    #[test]
    fn entity_ids_are_stable_and_appended() {
        let kb = base_kb();
        let mut delta = KbDelta::new("base");
        delta.add_fact("http://x/New", "http://x/bornIn", "http://x/Tupelo");
        let applied = apply(&kb, &delta).unwrap();
        for e in kb.entities() {
            assert_eq!(kb.term(e), applied.kb.term(e), "{e:?} must keep its term");
        }
        let new = applied.kb.entity_by_iri("http://x/New").unwrap();
        assert_eq!(new.index(), kb.num_entities());
        assert!(applied.touched_entities.contains(&new));
    }

    #[test]
    fn functionalities_refresh_only_touched_relations() {
        let kb = base_kb();
        let born_in = kb.relation_by_iri("http://x/bornIn").unwrap();
        // Two people born in one city: fun⁻¹ = 1/2.
        assert_eq!(kb.functionality(born_in.inverse()), 0.5);
        let mut delta = KbDelta::new("base");
        delta.remove_fact("http://x/Carl", "http://x/bornIn", "http://x/Tupelo");
        let applied = apply(&kb, &delta).unwrap();
        // Now one person, one city: fun⁻¹ = 1.
        assert_eq!(applied.kb.functionality(born_in.inverse()), 1.0);
        assert_eq!(applied.touched_relations, vec![born_in]);
        // The untouched relation keeps its value.
        let name = kb.relation_by_iri("http://x/name").unwrap();
        assert_eq!(applied.kb.functionality(name), kb.functionality(name));
    }

    #[test]
    fn duplicate_adds_and_absent_removes_are_noops() {
        let kb = base_kb();
        let mut delta = KbDelta::new("base");
        delta.add_fact("http://x/Elvis", "http://x/bornIn", "http://x/Tupelo");
        delta.remove_fact("http://x/Nobody", "http://x/bornIn", "http://x/Nowhere");
        delta.remove_fact("http://x/Elvis", "http://x/unknownRel", "http://x/Tupelo");
        let applied = apply(&kb, &delta).unwrap();
        assert_eq!(applied.added, 0);
        assert_eq!(applied.removed, 0);
        assert_eq!(applied.touched_relations, Vec::new());
        assert_eq!(KbStats::of(&applied.kb), KbStats::of(&kb));
    }

    #[test]
    fn delta_matches_full_rebuild() {
        // Applying a delta must produce the same observable KB as building
        // from the union of facts from scratch.
        let kb = base_kb();
        let mut delta = KbDelta::new("base");
        delta.add_fact("http://x/Carl", "http://x/diedIn", "http://x/Memphis");
        delta.add_literal_fact("http://x/Carl", "http://x/name", Literal::plain("Carl"));
        delta.remove_literal_fact("http://x/Elvis", "http://x/name", Literal::plain("Elvis"));
        let applied = apply(&kb, &delta).unwrap();

        let mut b = KbBuilder::new("base");
        b.add_fact("http://x/Elvis", "http://x/bornIn", "http://x/Tupelo");
        b.add_fact("http://x/Carl", "http://x/bornIn", "http://x/Tupelo");
        b.add_type("http://x/Elvis", "http://x/Singer");
        b.add_fact("http://x/Carl", "http://x/diedIn", "http://x/Memphis");
        b.add_literal_fact("http://x/Carl", "http://x/name", Literal::plain("Carl"));
        let rebuilt = b.build();

        assert_eq!(applied.kb.num_facts(), rebuilt.num_facts());
        for e in rebuilt.entities() {
            let via_delta = applied.kb.entity(rebuilt.term(e)).unwrap();
            let mut a: Vec<String> = applied
                .kb
                .facts(via_delta)
                .iter()
                .map(|&(r, y)| format!("{} {}", applied.kb.relation_display(r), applied.kb.term(y)))
                .collect();
            let mut b: Vec<String> = rebuilt
                .facts(e)
                .iter()
                .map(|&(r, y)| format!("{} {}", rebuilt.relation_display(r), rebuilt.term(y)))
                .collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "facts of {}", rebuilt.term(e));
        }
        for r in rebuilt.directed_relations() {
            let via_delta = applied
                .kb
                .relation_by_iri(rebuilt.relation_iri(r).as_str())
                .unwrap();
            let via_delta = if r.is_inverse() {
                via_delta.inverse()
            } else {
                via_delta
            };
            assert!(
                (applied.kb.functionality(via_delta) - rebuilt.functionality(r)).abs() < 1e-12,
                "functionality of {}",
                rebuilt.relation_display(r)
            );
        }
    }

    #[test]
    fn schema_predicates_are_rejected() {
        let mut delta = KbDelta::new("base");
        let t = Triple::new(
            Iri::new("http://x/e"),
            Iri::new(vocab::RDF_TYPE),
            Term::Iri(Iri::new("http://x/C")),
        );
        let err = delta.add_triple(&t, false).unwrap_err();
        assert!(matches!(err, DeltaError::SchemaChange(_)), "{err}");
        assert!(delta.is_empty());
    }

    #[test]
    fn wrong_target_is_rejected_and_wildcard_accepted() {
        let kb = base_kb();
        let mut delta = KbDelta::new("other");
        delta.add_fact("http://x/a", "http://x/r", "http://x/b");
        assert!(matches!(
            apply(&kb, &delta),
            Err(DeltaError::WrongTarget { .. })
        ));
        let mut wildcard = KbDelta::new("");
        wildcard.add_fact("http://x/a", "http://x/r", "http://x/b");
        assert!(apply(&kb, &wildcard).is_ok());
    }

    #[test]
    fn removed_then_added_fact_survives() {
        let kb = base_kb();
        let mut delta = KbDelta::new("base");
        delta.remove_fact("http://x/Elvis", "http://x/bornIn", "http://x/Tupelo");
        delta.add_fact("http://x/Elvis", "http://x/bornIn", "http://x/Tupelo");
        let applied = apply(&kb, &delta).unwrap();
        let born_in = applied.kb.relation_by_iri("http://x/bornIn").unwrap();
        assert_eq!(
            applied.kb.num_pairs(born_in),
            2,
            "remove-then-add keeps the fact"
        );
    }
}
