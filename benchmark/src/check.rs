//! The `check` stage (untimed). Every failed check is a named reason
//! that fails the run.

use std::path::Path;

use paris_core::{Aligner, PairImage, PairSide, ParisConfig};
use paris_datagen::GoldStandard;
use paris_eval::Counts;
use paris_kb::{snapshot_v2::kb_to_bytes_v2, EntityId, KbBuilder};
use paris_rdf::ntriples;

use crate::setup::{fnv1a, FNV_OFFSET};
use crate::trace::Recorder;

/// FNV-1a over the maximal assignment of the served image:
/// `(x, best match, score bits)` for every KB-1 entity that has one.
pub fn assignment_digest(image: &PairImage) -> u64 {
    let mut hash = FNV_OFFSET;
    for i in 0..image.num_entities(PairSide::Kb1) {
        let x = EntityId::from_index(i);
        if let Some((x2, p)) = image.best_match_from(PairSide::Kb1, x) {
            hash = fnv1a(hash, &(i as u64).to_le_bytes());
            hash = fnv1a(hash, &(x2.index() as u64).to_le_bytes());
            hash = fnv1a(hash, &p.to_bits().to_le_bytes());
        }
    }
    hash
}

/// Scores what the image *serves* against the gold standard, by the
/// rule of `paris_eval::evaluate_instances`: a wrong match is both a
/// false positive and a false negative, gold pairs absent from the KBs
/// are skipped.
pub fn served_instance_counts(image: &PairImage, gold: &GoldStandard) -> Counts {
    let mut counts = Counts::default();
    for (iri1, iri2) in &gold.instances {
        let (Some(x), Some(want)) = (
            image.entity_by_iri(PairSide::Kb1, iri1.as_str()),
            image.entity_by_iri(PairSide::Kb2, iri2.as_str()),
        ) else {
            continue;
        };
        match image.best_match_from(PairSide::Kb1, x) {
            Some((got, _)) if got == want => counts.true_positives += 1,
            Some(_) => {
                counts.false_positives += 1;
                counts.false_negatives += 1;
            }
            None => counts.false_negatives += 1,
        }
    }
    counts
}

/// Share of the assignments of a from-scratch `Aligner::run` on the
/// image's own KBs that the image (updated incrementally) agrees with.
pub fn agreement_with_scratch(image: PairImage, config: &ParisConfig) -> f64 {
    let snapshot = image.into_decoded();
    let scratch = Aligner::new(&snapshot.kb1, &snapshot.kb2, config.clone()).run();
    let pairs = scratch.instance_pairs();
    let same = pairs
        .iter()
        .filter(|&&(x, x2, _)| {
            snapshot
                .alignment
                .best_match(x)
                .is_some_and(|(y, _)| y == x2)
        })
        .count();
    same as f64 / pairs.len().max(1) as f64
}

/// The heap path's snapshot bytes of one N-Triples file — what the
/// streaming loader must reproduce byte for byte.
pub fn heap_snapshot_bytes(nt: &Path, name: &str, rec: &mut Recorder) -> Result<Vec<u8>, String> {
    let prep = rec.begin("check.heap_build");
    let triples = ntriples::parse_file(nt).map_err(|e| format!("parsing {}: {e}", nt.display()))?;
    let mut builder = KbBuilder::new(name);
    builder.add_triples(&triples);
    let kb = builder.build();
    rec.end(prep);
    Ok(rec.time("kb.encode", || kb_to_bytes_v2(&kb)).0)
}
