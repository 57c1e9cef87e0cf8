//! Alignment-quality summaries and cross-generation agreement.
//!
//! The paper evaluates PARIS against gold standards; a serving system
//! re-aligning the same pair across snapshot generations has no gold
//! standard, but it can still answer two questions that gate every
//! refactor and re-shard: *what does this alignment look like* (score
//! distribution, coverage — [`QualitySummary`]) and *does it agree with
//! the previous one* ([`AssignmentSketch::agreement`] — the drift
//! primitive behind `/v1/debug/runs`).
//!
//! Both work from a [`PairImage`]; the sketch can also be taken from a
//! live [`AlignmentResult`], and the two agree.

use paris_kb::EntityKind;
use paris_obs::series::score_histogram;
use paris_obs::HistogramSnapshot;

use crate::image::{PairImage, PairSide};
use crate::iteration::AlignmentResult;
use paris_kb::{EntityId, RelationId};

/// Default sub-relation probability above which a relation counts as
/// aligned for coverage purposes (the bootstrap θ region scores below
/// this).
pub const RELATION_COVERAGE_THRESHOLD: f64 = 0.1;

/// Bottom-k capacity of an [`AssignmentSketch`]. Assignments smaller
/// than this are sketched exactly; larger ones are estimated with
/// relative error on the order of `1/√k`.
pub const SKETCH_CAPACITY: usize = 1024;

/// Agreement below which two consecutive generations of the same pair
/// are flagged as drifted (>5% of assignments disagree).
pub const DRIFT_AGREEMENT: f64 = 0.95;

/// What an alignment looks like, without a gold standard: coverage and
/// score shape, per side.
#[derive(Clone, Debug)]
pub struct QualitySummary {
    /// Instance entities in KB 1.
    pub instances_kb1: usize,
    /// Instance entities in KB 2.
    pub instances_kb2: usize,
    /// KB-1 instances with a best match (probability > 0).
    pub assigned_instances: usize,
    /// `assigned_instances / instances_kb1` (0 for an empty KB).
    pub instance_coverage: f64,
    /// Distribution of best-match probabilities, per-mille
    /// ([`paris_obs::series::score_bucket`]).
    pub scores: HistogramSnapshot,
    /// Directed relations in KB 1.
    pub relations_kb1: usize,
    /// Directed relations in KB 2.
    pub relations_kb2: usize,
    /// Directed KB-1 relations with some KB-2 super-relation scored at
    /// or above the threshold.
    pub aligned_relations_1to2: usize,
    /// Directed KB-2 relations with some KB-1 super-relation scored at
    /// or above the threshold.
    pub aligned_relations_2to1: usize,
    /// Classes in KB 1.
    pub classes_kb1: usize,
    /// Classes in KB 2.
    pub classes_kb2: usize,
    /// The relation-coverage threshold used.
    pub relation_threshold: f64,
    /// Iteration count of the producing run.
    pub iterations: usize,
    /// Whether the producing run converged.
    pub converged: bool,
}

impl QualitySummary {
    /// Summarizes a served image with the default relation-coverage
    /// threshold.
    pub fn of_image(image: &PairImage) -> QualitySummary {
        QualitySummary::of_image_with_threshold(image, RELATION_COVERAGE_THRESHOLD)
    }

    /// Summarizes a served image, counting a relation as aligned when
    /// its best cross-KB score is at least `relation_threshold`.
    pub fn of_image_with_threshold(image: &PairImage, relation_threshold: f64) -> QualitySummary {
        let stats1 = image.kb_stats(PairSide::Kb1);
        let stats2 = image.kb_stats(PairSide::Kb2);
        let mut assigned = 0usize;
        let mut scores: Vec<f64> = Vec::new();
        for (_, _, p) in instance_assignments(image) {
            assigned += 1;
            scores.push(p);
        }
        let (nd1, nd2) = (
            image.num_directed_relations(PairSide::Kb1),
            image.num_directed_relations(PairSide::Kb2),
        );
        let aligned_1to2 = (0..nd1)
            .filter(|&i| {
                let r1 = RelationId::from_directed_index(i);
                (0..nd2).any(|j| {
                    image.subrel_1in2(r1, RelationId::from_directed_index(j)) >= relation_threshold
                })
            })
            .count();
        let aligned_2to1 = (0..nd2)
            .filter(|&j| {
                let r2 = RelationId::from_directed_index(j);
                (0..nd1).any(|i| {
                    image.subrel_2in1(r2, RelationId::from_directed_index(i)) >= relation_threshold
                })
            })
            .count();
        QualitySummary {
            instances_kb1: stats1.instances,
            instances_kb2: stats2.instances,
            assigned_instances: assigned,
            instance_coverage: if stats1.instances == 0 {
                0.0
            } else {
                assigned as f64 / stats1.instances as f64
            },
            scores: score_histogram(scores),
            relations_kb1: nd1,
            relations_kb2: nd2,
            aligned_relations_1to2: aligned_1to2,
            aligned_relations_2to1: aligned_2to1,
            classes_kb1: stats1.classes,
            classes_kb2: stats2.classes,
            relation_threshold,
            iterations: image.iterations_len(),
            converged: image.converged(),
        }
    }
}

/// Per-KB-1-instance best matches of a served image: `(x, x′, Pr)`
/// triples, one per instance with a stored candidate.
pub fn instance_assignments(image: &PairImage) -> Vec<(EntityId, EntityId, f64)> {
    let n = image.num_entities(PairSide::Kb1);
    (0..n)
        .map(EntityId::from_index)
        .filter(|&e| image.entity_kind(PairSide::Kb1, e) == EntityKind::Instance)
        .filter_map(|e| {
            image
                .best_match_from(PairSide::Kb1, e)
                .filter(|&(_, p)| p > 0.0)
                .map(|(x2, p)| (e, x2, p))
        })
        .collect()
}

/// FNV-1a, the workspace's stable cross-process string hash for
/// assignment fingerprints (std's SipHash is randomly keyed per
/// process, which would break sketches persisted across restarts).
fn fnv1a(left: &str, right: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in left.as_bytes().iter().chain(b"\t").chain(right.as_bytes()) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A bounded fingerprint of one alignment's instance assignment: the
/// [`SKETCH_CAPACITY`] smallest FNV-1a hashes of its `(IRI, IRI′)`
/// pairs (a bottom-k MinHash sketch), plus the exact assignment size.
///
/// Two sketches estimate the *agreement* between their assignments —
/// the fraction of pairs shared — which is exact when both assignments
/// fit the sketch and an unbiased Jaccard-based estimate beyond it.
/// Small enough to persist per run in the run-history JSONL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AssignmentSketch {
    size: u64,
    hashes: Vec<u64>,
}

impl AssignmentSketch {
    /// Sketches `(left IRI, right IRI)` assignment pairs.
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> Self {
        let mut hashes: Vec<u64> = Vec::new();
        let mut size = 0u64;
        for (l, r) in pairs {
            size += 1;
            hashes.push(fnv1a(l, r));
        }
        Self::from_parts(size, hashes)
    }

    /// Rebuilds a sketch from persisted parts (sorted, deduplicated,
    /// and truncated to capacity here — persisted data is not trusted
    /// to be canonical).
    pub fn from_parts(size: u64, mut hashes: Vec<u64>) -> Self {
        hashes.sort_unstable();
        hashes.dedup();
        hashes.truncate(SKETCH_CAPACITY);
        AssignmentSketch { size, hashes }
    }

    /// Sketches the best-match assignment of a served image.
    pub fn of_image(image: &PairImage) -> Self {
        let mut hashes: Vec<u64> = Vec::new();
        let mut size = 0u64;
        for (x, x2, _) in instance_assignments(image) {
            let (Some(l), Some(r)) = (
                image.entity_iri(PairSide::Kb1, x),
                image.entity_iri(PairSide::Kb2, x2),
            ) else {
                continue;
            };
            size += 1;
            hashes.push(fnv1a(&l, &r));
        }
        Self::from_parts(size, hashes)
    }

    /// Sketches the final maximal assignment of a completed run.
    pub fn of_result(result: &AlignmentResult<'_>) -> Self {
        let mut hashes: Vec<u64> = Vec::new();
        let mut size = 0u64;
        for (x, x2, _) in result.instance_pairs() {
            let (Some(l), Some(r)) = (result.kb1.iri(x), result.kb2.iri(x2)) else {
                continue;
            };
            size += 1;
            hashes.push(fnv1a(l.as_str(), r.as_str()));
        }
        Self::from_parts(size, hashes)
    }

    /// Exact number of assignment pairs sketched.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The retained bottom-k hashes, ascending.
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Estimated fraction of assignments the two sketched alignments
    /// share, relative to the larger one: 1.0 for identical
    /// assignments, 0.0 for disjoint ones. Both empty ⇒ 1.0 (two empty
    /// alignments agree perfectly).
    ///
    /// The estimate merges the two bottom-k sets into the bottom-k of
    /// the union, reads the Jaccard similarity `J` off it, converts to
    /// an intersection size via `|A∩B| = J·(|A|+|B|)/(1+J)`, and
    /// normalizes by `max(|A|, |B|)`.
    pub fn agreement(&self, other: &AssignmentSketch) -> f64 {
        if self.size == 0 && other.size == 0 {
            return 1.0;
        }
        if self.size == 0 || other.size == 0 {
            return 0.0;
        }
        // Bottom-k of the union (both inputs are sorted and distinct).
        let mut union_bottom: Vec<u64> = Vec::with_capacity(SKETCH_CAPACITY);
        let (mut i, mut j) = (0usize, 0usize);
        let mut matches = 0usize;
        while union_bottom.len() < SKETCH_CAPACITY
            && (i < self.hashes.len() || j < other.hashes.len())
        {
            let a = self.hashes.get(i).copied();
            let b = other.hashes.get(j).copied();
            match (a, b) {
                (Some(a), Some(b)) if a == b => {
                    union_bottom.push(a);
                    matches += 1;
                    i += 1;
                    j += 1;
                }
                (Some(a), Some(b)) if a < b => {
                    union_bottom.push(a);
                    i += 1;
                }
                (Some(_), Some(b)) => {
                    union_bottom.push(b);
                    j += 1;
                }
                (Some(a), None) => {
                    union_bottom.push(a);
                    i += 1;
                }
                (None, Some(b)) => {
                    union_bottom.push(b);
                    j += 1;
                }
                (None, None) => break,
            }
        }
        if union_bottom.is_empty() {
            return 0.0;
        }
        let jaccard = matches as f64 / union_bottom.len() as f64;
        let intersection = jaccard * (self.size + other.size) as f64 / (1.0 + jaccard);
        (intersection / self.size.max(other.size) as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParisConfig;
    use crate::iteration::Aligner;
    use crate::owned::{AlignedPairSnapshot, OwnedAlignment};
    use crate::view::MappedPairSnapshot;
    use paris_kb::KbBuilder;
    use paris_rdf::Literal;

    fn snapshot(n: usize) -> AlignedPairSnapshot {
        let mut a = KbBuilder::new("left");
        let mut b = KbBuilder::new("right");
        for i in 0..n {
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

    fn image(snap: &AlignedPairSnapshot) -> PairImage {
        MappedPairSnapshot::from_bytes(MappedPairSnapshot::encode(snap))
            .unwrap()
            .into()
    }

    #[test]
    fn summary_describes_the_image() {
        let q = QualitySummary::of_image(&image(&snapshot(6)));
        assert_eq!(q.instances_kb1, 6);
        assert_eq!(q.assigned_instances, 6);
        assert!((q.instance_coverage - 1.0).abs() < 1e-12);
        assert_eq!(q.scores.count, 6);
        assert!(q.aligned_relations_1to2 >= 1, "{q:?}");
        assert!(q.converged);
    }

    #[test]
    fn agreement_is_exact_for_small_assignments() {
        let a = AssignmentSketch::from_pairs((0..20).map(|_| ("http://a/x", "http://b/x")));
        // 20 identical pairs hash to one value; the sketch holds the set.
        assert_eq!(a.hashes().len(), 1);

        let pairs: Vec<(String, String)> = (0..100)
            .map(|i| (format!("http://a/p{i}"), format!("http://b/q{i}")))
            .collect();
        let full =
            AssignmentSketch::from_pairs(pairs.iter().map(|(l, r)| (l.as_str(), r.as_str())));
        assert_eq!(full.size(), 100);
        assert!((full.agreement(&full) - 1.0).abs() < 1e-12);

        // Perturb 10 of 100 assignments: agreement drops to 0.90.
        let perturbed: Vec<(String, String)> = pairs
            .iter()
            .enumerate()
            .map(|(i, (l, r))| {
                if i < 10 {
                    (l.clone(), format!("http://b/other{i}"))
                } else {
                    (l.clone(), r.clone())
                }
            })
            .collect();
        let drifted =
            AssignmentSketch::from_pairs(perturbed.iter().map(|(l, r)| (l.as_str(), r.as_str())));
        let agreement = full.agreement(&drifted);
        assert!((agreement - 0.90).abs() < 1e-9, "{agreement}");
        assert!(agreement < DRIFT_AGREEMENT);

        // Perturbing 2% stays above the drift threshold.
        let near: Vec<(String, String)> = pairs
            .iter()
            .enumerate()
            .map(|(i, (l, r))| {
                if i < 2 {
                    (l.clone(), format!("http://b/other{i}"))
                } else {
                    (l.clone(), r.clone())
                }
            })
            .collect();
        let near = AssignmentSketch::from_pairs(near.iter().map(|(l, r)| (l.as_str(), r.as_str())));
        assert!(full.agreement(&near) >= DRIFT_AGREEMENT);
    }

    #[test]
    fn agreement_handles_empty_and_disjoint() {
        let empty = AssignmentSketch::from_pairs(std::iter::empty());
        assert!((empty.agreement(&empty) - 1.0).abs() < 1e-12);
        let a = AssignmentSketch::from_pairs([("http://a/1", "http://b/1")]);
        assert_eq!(empty.agreement(&a), 0.0);
        assert_eq!(a.agreement(&empty), 0.0);
        let b = AssignmentSketch::from_pairs([("http://a/2", "http://b/2")]);
        assert_eq!(a.agreement(&b), 0.0);
    }

    #[test]
    fn oversized_assignments_estimate_within_tolerance() {
        let n = 20_000usize;
        let pairs: Vec<(String, String)> = (0..n)
            .map(|i| (format!("http://a/p{i}"), format!("http://b/q{i}")))
            .collect();
        let a = AssignmentSketch::from_pairs(pairs.iter().map(|(l, r)| (l.as_str(), r.as_str())));
        assert_eq!(a.hashes().len(), SKETCH_CAPACITY);
        // 10% of assignments replaced.
        let perturbed: Vec<(String, String)> = pairs
            .iter()
            .enumerate()
            .map(|(i, (l, r))| {
                if i % 10 == 0 {
                    (l.clone(), format!("http://b/other{i}"))
                } else {
                    (l.clone(), r.clone())
                }
            })
            .collect();
        let b =
            AssignmentSketch::from_pairs(perturbed.iter().map(|(l, r)| (l.as_str(), r.as_str())));
        let agreement = a.agreement(&b);
        assert!(
            (agreement - 0.90).abs() < 0.05,
            "estimated {agreement}, true 0.90"
        );
        assert!((a.agreement(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sketch_round_trips_through_parts() {
        let a = AssignmentSketch::from_pairs([
            ("http://a/1", "http://b/1"),
            ("http://a/2", "http://b/2"),
        ]);
        let rebuilt = AssignmentSketch::from_parts(a.size(), a.hashes().to_vec());
        assert_eq!(a, rebuilt);
    }

    #[test]
    fn result_and_image_sketches_agree() {
        let snap = snapshot(5);
        let from_image = AssignmentSketch::of_image(&image(&snap));

        let result = Aligner::new(&snap.kb1, &snap.kb2, ParisConfig::default()).run();
        let from_result = AssignmentSketch::of_result(&result);
        assert!((from_image.agreement(&from_result) - 1.0).abs() < 1e-12);
    }
}
