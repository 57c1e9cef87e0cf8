//! The `setup` stage: everything a trip reads, made from the seed.
//!
//! `paris_datagen` → two N-Triples files (`kb::export::write_ntriples`),
//! the gold standard (kept in memory — only the parent scores), the
//! key lists of the query trace, and K binary delta files per side.

use std::path::{Path, PathBuf};

use paris_datagen::GoldStandard;
use paris_kb::delta::KbDelta;
use paris_kb::export::write_ntriples;
use paris_kb::{EntityId, EntityKind, Kb};
use paris_rdf::{Literal, Term};

use crate::spec::{Budget, DeltaRecipe, Spec};

pub struct Inputs {
    pub dir: PathBuf,
    /// `left.nt`, `right.nt`.
    pub nt: [PathBuf; 2],
    /// KB names: the loader must reuse them, deltas target them.
    pub names: [String; 2],
    pub nt_bytes: u64,
    /// FNV-1a over both N-Triples files.
    pub nt_digest: u64,
    pub gold: GoldStandard,
    /// KB-1 instance IRIs: the keys of the query trace.
    pub keys: Vec<String>,
    /// Per delta step, the delta file of each side (if that side changes).
    pub deltas: Vec<[Option<PathBuf>; 2]>,
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Generates the workload's inputs under `dir` (created if missing).
pub fn setup(spec: &Spec, seed: u64, dir: &Path) -> Result<Inputs, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let pair = spec.generator.generate(seed);
    let nt = [dir.join("left.nt"), dir.join("right.nt")];
    let mut nt_bytes = 0;
    let mut nt_digest = FNV_OFFSET;
    for (kb, path) in [(&pair.kb1, &nt[0]), (&pair.kb2, &nt[1])] {
        write_ntriples(kb, path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        nt_bytes += bytes.len() as u64;
        nt_digest = fnv1a(nt_digest, &bytes);
    }

    let keys: Vec<String> = pair
        .kb1
        .instances()
        .filter_map(|e| pair.kb1.iri(e))
        .map(|iri| iri.as_str().to_owned())
        .collect();
    if keys.is_empty() {
        return Err("generated KB 1 has no instances".into());
    }

    let mut deltas = Vec::new();
    for step in 0..spec.deltas.count {
        let mut files = [None, None];
        for (side, kb) in [&pair.kb1, &pair.kb2].into_iter().enumerate() {
            if side == 0 && !spec.deltas.both_sides {
                continue;
            }
            let delta = build_delta(kb, &spec.deltas, step);
            let path = dir.join(format!("delta-{step}-{side}.bin"));
            delta
                .save(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            files[side] = Some(path);
        }
        deltas.push(files);
    }

    Ok(Inputs {
        dir: dir.to_owned(),
        nt,
        names: [pair.kb1.name().to_owned(), pair.kb2.name().to_owned()],
        nt_bytes,
        nt_digest,
        gold: pair.gold,
        keys,
        deltas,
    })
}

/// A literal value unlike every other one made here: the leading hash
/// keeps edit-distance blocking (normalized 4-prefix) from piling all
/// new values into one block of near-duplicates.
fn distinct_value(kind: &str, step: usize, i: usize) -> String {
    let hash = fnv1a(FNV_OFFSET, format!("{kind} {step} {i}").as_bytes());
    format!("{hash:016x} {kind}")
}

/// A forward fact of `e` as `(relation IRI, object term)`; literal
/// objects only when `literal_only`.
fn forward_fact(kb: &Kb, e: EntityId, literal_only: bool) -> Option<(String, Term)> {
    kb.facts(e)
        .iter()
        .find(|&&(r, y)| !r.is_inverse() && (!literal_only || kb.kind(y) == EntityKind::Literal))
        .map(|&(r, y)| (kb.relation_iri(r).as_str().to_owned(), kb.term(y).clone()))
}

/// Delta number `step` of the recipe. Step k works on every K-th
/// instance starting at the k-th: the steps are disjoint, so every
/// removal is still valid after the earlier steps were applied, and each
/// step meets the same mix of entity kinds, so the steps cost alike.
fn build_delta(kb: &Kb, recipe: &DeltaRecipe, step: usize) -> KbDelta {
    let budget = match recipe.budget {
        Budget::Share(share) => (kb.num_facts() as f64 * share) as usize,
        Budget::Facts(n) => n,
    }
    .max(2);
    let fresh = (budget as f64 * recipe.fresh_share) as usize;
    let drops = (budget as f64 * recipe.drop_share) as usize;
    let replacements = (budget - fresh - drops) / 2;

    let instances: Vec<EntityId> = kb.instances().filter(|&e| kb.iri(e).is_some()).collect();
    let slice: Vec<EntityId> = instances
        .iter()
        .copied()
        .skip(step)
        .step_by(recipe.count.max(1))
        .collect();
    let mut delta = KbDelta::new(kb.name());

    // Fresh entities reuse a literal-valued relation the KB already has.
    let label = instances
        .iter()
        .find_map(|&e| forward_fact(kb, e, true))
        .map(|(relation, _)| relation);
    if let (Some(label), Some(first)) = (label, slice.first().and_then(|&e| kb.iri(e))) {
        for i in 0..fresh {
            delta.add_literal_fact(
                format!("{}-fresh-{step}-{i}", first.as_str()),
                label.clone(),
                Literal::plain(distinct_value("fresh", step, i)),
            );
        }
    }

    let mut walk = slice.iter().copied();
    let mut dropped = 0;
    while dropped < drops {
        let Some(e) = walk.next() else { break };
        let (Some(iri), Some((relation, object))) = (kb.iri(e), forward_fact(kb, e, false)) else {
            continue;
        };
        match object {
            Term::Iri(o) => delta.remove_fact(iri.clone(), relation, o),
            Term::Literal(l) => delta.remove_literal_fact(iri.clone(), relation, l),
        }
        dropped += 1;
    }
    let mut replaced = 0;
    while replaced < replacements {
        let Some(e) = walk.next() else { break };
        let (Some(iri), Some((relation, Term::Literal(old)))) =
            (kb.iri(e), forward_fact(kb, e, true))
        else {
            continue;
        };
        delta.remove_literal_fact(iri.clone(), relation.clone(), old);
        delta.add_literal_fact(
            iri.clone(),
            relation,
            Literal::plain(distinct_value("updated", step, replaced)),
        );
        replaced += 1;
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TEST_SPEC;

    fn scratch(tag: &str) -> PathBuf {
        crate::out_dir().join(format!("test-setup-{tag}-{}", std::process::id()))
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let (a, b, c) = (scratch("a"), scratch("b"), scratch("c"));
        let one = setup(&TEST_SPEC, 7, &a).unwrap();
        let again = setup(&TEST_SPEC, 7, &b).unwrap();
        let other = setup(&TEST_SPEC, 8, &c).unwrap();
        assert_eq!(one.nt_digest, again.nt_digest);
        assert_eq!(one.nt_bytes, again.nt_bytes);
        assert_eq!(one.keys, again.keys);
        assert_ne!(one.nt_digest, other.nt_digest);
        for step in 0..TEST_SPEC.deltas.count {
            for side in 0..2 {
                let read =
                    |i: &Inputs| std::fs::read(i.deltas[step][side].as_ref().unwrap()).unwrap();
                assert_eq!(read(&one), read(&again));
            }
        }
        for dir in [a, b, c] {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn delta_steps_touch_disjoint_entities_and_respect_the_recipe() {
        let pair = TEST_SPEC.generator.generate(3);
        let recipe = DeltaRecipe {
            count: 3,
            budget: Budget::Facts(40),
            both_sides: true,
            fresh_share: 0.25,
            drop_share: 0.25,
        };
        let mut seen = std::collections::BTreeSet::new();
        for step in 0..3 {
            let d = build_delta(&pair.kb2, &recipe, step);
            // 10 fresh + 10 drops + 10 replacements (one removal, one addition each)
            assert_eq!((d.added.len(), d.removed.len()), (20, 20));
            for f in d.added.iter().chain(&d.removed) {
                seen.insert((f.subject.as_str().to_owned(), step));
            }
            let applied = paris_kb::delta::apply(&pair.kb2, &d).unwrap();
            assert_eq!((applied.added, applied.removed), (20, 20));
        }
        let subjects: std::collections::BTreeSet<&str> =
            seen.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(
            subjects.len(),
            seen.len(),
            "no subject is touched by two steps"
        );
    }
}
