//! The PARIS fixed-point driver (paper §5.1).
//!
//! "First, we compute the probabilities of equivalences of instances.
//! Then, we compute the probabilities for sub-relationships. These two
//! steps are iterated until convergence. In a last step, the equivalences
//! between classes are computed … from the final assignment. To bootstrap
//! the algorithm in the very first step, we set Pr(r ⊆ r′) = θ."
//!
//! Functionalities are computed once per ontology up front (they live on
//! the [`Kb`]); literal equivalences are clamped once up front (the
//! [`LiteralBridge`]); convergence is declared when fewer than
//! `convergence_change` of the instances change their maximal assignment
//! *and* the sum of the assignment scores moved by less than that same
//! fraction (at least 10⁻⁶) since the previous iteration.

use paris_kb::{EntityId, Kb};
use paris_obs::series::{score_histogram, IterationPoint, RunSeries};
use paris_obs::span::{Span, SpanCollector, SpanId};
use paris_rdf::Iri;

use crate::config::ParisConfig;
use crate::equiv::{argmax, Assignment, EquivStore};
use crate::image::PairSide;
use crate::instance::instance_pass;
use crate::literal_bridge::LiteralBridge;
use crate::subclass::{subclass_pass, ClassAlignment};
use crate::subrel::{subrelation_pass, SubrelStore};

/// Measurements of one fixed-point iteration (one row of the paper's
/// Tables 3 and 5).
#[derive(Clone, Debug)]
pub struct IterationStats {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Instances whose maximal assignment differs from the previous
    /// iteration.
    pub changed: usize,
    /// `changed` relative to the number of currently assigned instances
    /// (the paper's "change to previous" column).
    pub changed_fraction: f64,
    /// Non-zero instance equivalences stored after this iteration.
    pub instance_equivalences: usize,
    /// KB-1 instances that have at least one candidate.
    pub assigned_instances: usize,
    /// Stored sub-relation score entries (both directions).
    pub subrelation_entries: usize,
    /// Wall-clock seconds of the instance pass.
    pub instance_seconds: f64,
    /// Wall-clock seconds of the two sub-relation passes.
    pub subrelation_seconds: f64,
}

/// The complete output of a PARIS run.
pub struct AlignmentResult<'a> {
    /// The first (source) ontology.
    pub kb1: &'a Kb,
    /// The second (target) ontology.
    pub kb2: &'a Kb,
    /// Final instance-equivalence probabilities.
    pub instances: EquivStore,
    /// Final sub-relation scores (both directions).
    pub subrelations: SubrelStore,
    /// Class-inclusion scores (both directions), computed from the final
    /// assignment.
    pub classes: ClassAlignment,
    /// Per-iteration measurements, in order.
    pub iterations: Vec<IterationStats>,
    /// Number of clamped literal-equivalence pairs.
    pub literal_pairs: usize,
    /// Wall-clock seconds of the final class pass.
    pub class_seconds: f64,
    /// Whether the driver stopped by its convergence rule rather than at
    /// the iteration cap.
    pub(crate) converged: bool,
    /// The full configuration of the run (needed to rebuild candidate
    /// views for explanations).
    pub(crate) config: ParisConfig,
}

impl AlignmentResult<'_> {
    /// The final maximal assignment restricted to instances:
    /// `(x, x′, Pr)` triples, one per assigned KB-1 instance.
    pub fn instance_pairs(&self) -> Vec<(EntityId, EntityId, f64)> {
        let assign = self.instances.maximal_assignment();
        self.kb1
            .instances()
            .filter_map(|x| assign[x.index()].map(|(x2, p)| (x, x2, p)))
            .collect()
    }

    /// Looks up the maximal assignment of one KB-1 instance by IRI.
    pub fn instance_alignment_by_iri(&self, iri: &str) -> Option<Iri> {
        let x = self.kb1.entity_by_iri(iri)?;
        let (x2, _) = argmax(self.instances.candidates(x).iter().copied())?;
        self.kb2.iri(x2).cloned()
    }

    /// Explains why the final run scores `iri1 ≡ iri2` (or would): the
    /// individual Eq. 13 evidence factors, strongest first. Returns
    /// `None` when either IRI is unknown. See
    /// [`Explanation::render`](crate::explain::Explanation::render) for a
    /// printable form.
    pub fn explain(&self, iri1: &str, iri2: &str) -> Option<crate::explain::Explanation> {
        let x = self.kb1.entity_by_iri(iri1)?;
        let x2 = self.kb2.entity_by_iri(iri2)?;
        let bridge = LiteralBridge::build(self.kb1, self.kb2, &self.config.literal_similarity);
        let assignment = Assignment::of(&self.instances);
        let view = assignment.view(PairSide::Kb1, &self.instances, &bridge, &self.config, true);
        Some(crate::explain::explain_pair(
            self.kb1,
            self.kb2,
            x,
            x2,
            &view,
            &self.subrelations,
            &self.config,
        ))
    }

    /// Renders the final instance alignment as `owl:sameAs` statements —
    /// the Semantic Web interlinking format the paper's introduction
    /// motivates. Only alignments with probability ≥ `threshold` are
    /// emitted, one triple per assigned KB-1 instance.
    pub fn sameas_triples(&self, threshold: f64) -> Vec<paris_rdf::Triple> {
        self.instance_pairs()
            .into_iter()
            .filter(|&(_, _, p)| p >= threshold)
            .filter_map(|(x, x2, _)| {
                Some(paris_rdf::Triple::new(
                    self.kb1.iri(x)?.clone(),
                    paris_rdf::vocab::OWL_SAME_AS,
                    self.kb2.iri(x2)?.clone(),
                ))
            })
            .collect()
    }

    /// Sub-relation alignments KB1 → KB2 above `threshold`, best target
    /// first, rendered with relation names (`name` / `name⁻`).
    pub fn relation_alignments_1to2(&self, threshold: f64) -> Vec<(String, String, f64)> {
        let mut out: Vec<(String, String, f64)> = self
            .subrelations
            .alignments_1to2()
            .filter(|&(_, _, p)| p >= threshold)
            .map(|(r1, r2, p)| {
                (
                    self.kb1.relation_display(r1),
                    self.kb2.relation_display(r2),
                    p,
                )
            })
            .collect();
        out.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Sub-relation alignments KB2 → KB1 above `threshold`.
    pub fn relation_alignments_2to1(&self, threshold: f64) -> Vec<(String, String, f64)> {
        let mut out: Vec<(String, String, f64)> = self
            .subrelations
            .alignments_2to1()
            .filter(|&(_, _, p)| p >= threshold)
            .map(|(r2, r1, p)| {
                (
                    self.kb2.relation_display(r2),
                    self.kb1.relation_display(r1),
                    p,
                )
            })
            .collect();
        out.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Convergence: did the driver stop by its convergence rule (as
    /// opposed to hitting the iteration cap)? Recorded by the driver when
    /// it stops, not re-derived from the iteration rows.
    pub fn converged(&self) -> bool {
        self.converged
    }
}

/// Aligns two knowledge bases with PARIS.
///
/// ```
/// use paris_core::{Aligner, ParisConfig};
/// use paris_kb::KbBuilder;
/// use paris_rdf::Literal;
///
/// let mut a = KbBuilder::new("left");
/// a.add_literal_fact("http://a/alice", "http://a/email", Literal::plain("alice@x.org"));
/// let mut b = KbBuilder::new("right");
/// b.add_literal_fact("http://b/asmith", "http://b/mail", Literal::plain("alice@x.org"));
/// let (kb1, kb2) = (a.build(), b.build());
///
/// let result = Aligner::new(&kb1, &kb2, ParisConfig::default()).run();
/// assert_eq!(
///     result.instance_alignment_by_iri("http://a/alice").unwrap().as_str(),
///     "http://b/asmith",
/// );
/// ```
pub struct Aligner<'a> {
    kb1: &'a Kb,
    kb2: &'a Kb,
    config: ParisConfig,
}

impl<'a> Aligner<'a> {
    /// Creates an aligner over two frozen KBs.
    pub fn new(kb1: &'a Kb, kb2: &'a Kb, config: ParisConfig) -> Self {
        Aligner { kb1, kb2, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ParisConfig {
        &self.config
    }

    /// Runs to convergence (or the iteration cap) and computes the final
    /// class alignment.
    pub fn run(&self) -> AlignmentResult<'a> {
        self.run_with(&mut Observe::default())
    }

    /// Like [`run`](Self::run), reporting every fixpoint iteration to the
    /// observers in `observe`. The result is bit-identical to `run`'s.
    pub fn run_with(&self, observe: &mut Observe<'_>) -> AlignmentResult<'a> {
        let (kb1, kb2, config) = (self.kb1, self.kb2, &self.config);
        let bridge = LiteralBridge::build(kb1, kb2, &config.literal_similarity);
        let literal_pairs = bridge.num_pairs();
        // The rows an instance pass rescores: every KB-1 instance.
        let rescored = kb1.num_instances() as u64;

        let mut equiv = EquivStore::new(kb1.num_entities(), kb2.num_entities());
        let mut subrel = SubrelStore::bootstrap(
            config.theta,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let mut iterations = Vec::new();
        let mut prev_score_sum = 0.0f64;
        let mut converged = false;
        // The previous iteration's assignment and the forward view over it
        // the next instance pass reads (informed, which gates Eq. 14, once
        // computed from non-bootstrap sub-relation scores).
        let mut assignment = Assignment::of(&equiv);
        let mut cand = assignment.view(PairSide::Kb1, &equiv, &bridge, config, false);

        for iteration in 1..=config.max_iterations {
            let iter_span = observe.begin("iteration", None).map(|mut s| {
                s.attr_int("iteration", iteration as u64);
                s
            });

            // ---- instance pass (uses the previous iteration's equalities)
            let pass_span = observe.begin("instance_pass", iter_span.as_ref());
            let t0 = paris_obs::span::now_ns();
            let mut rows = instance_pass(kb1, kb2, &cand, &subrel, config);
            let damping = config.damping_at(iteration);
            if damping > 0.0 {
                blend_rows(&mut rows, &equiv, damping, config.truncation);
            }
            equiv = EquivStore::from_rows(rows, kb2.num_entities());
            let instance_seconds = paris_obs::span::seconds_since(t0);

            let next = Assignment::of(&equiv);
            let changed = next.changes(&assignment);
            let assigned = next.assigned();
            let score_sum = next.score_sum();
            let informed = !subrel.is_bootstrap();
            observe.finish(pass_span, |s| {
                s.attr_int("dirty", rescored);
                s.attr_int("changed", changed as u64);
                s.attr_int("assigned", assigned as u64);
                s.attr_int("equivalences", equiv.num_pairs() as u64);
            });

            // ---- sub-relation passes (use the fresh equalities)
            let pass_span = observe.begin("subrelation_pass", iter_span.as_ref());
            let t1 = paris_obs::span::now_ns();
            cand = next.view(PairSide::Kb1, &equiv, &bridge, config, informed);
            let one = subrelation_pass(kb1, kb2, &cand, config);
            let cand_rev = next.view(PairSide::Kb2, &equiv, &bridge, config, informed);
            let two = subrelation_pass(kb2, kb1, &cand_rev, config);
            subrel = SubrelStore::from_rows(one, two);
            let subrelation_seconds = paris_obs::span::seconds_since(t1);
            observe.finish(pass_span, |s| {
                s.attr_int("entries", subrel.num_entries() as u64)
            });

            let stats = IterationStats {
                iteration,
                changed,
                changed_fraction: changed as f64 / assigned.max(1) as f64,
                instance_equivalences: equiv.num_pairs(),
                assigned_instances: assigned,
                subrelation_entries: subrel.num_entries(),
                instance_seconds,
                subrelation_seconds,
            };
            if let Some(series) = observe.series {
                series.push(IterationPoint {
                    iteration: stats.iteration,
                    dirty: rescored,
                    changed: stats.changed as u64,
                    new_pairs: unassigned_in(&next.fwd, &assignment.fwd),
                    dropped_pairs: unassigned_in(&assignment.fwd, &next.fwd),
                    assigned: stats.assigned_instances as u64,
                    scores: score_histogram(next.fwd.iter().flatten().map(|&(_, p)| p)),
                    instance_us: (stats.instance_seconds * 1e6) as u64,
                    subrelation_us: (stats.subrelation_seconds * 1e6) as u64,
                });
            }
            assignment = next;
            // Convergence is the paper's criterion — the maximal
            // assignment stopped changing — strengthened by requiring the
            // assignment *scores* to have stabilized as well: after
            // iteration 1 the scores are still θ-scaled, so a tiny θ
            // would otherwise look converged one round too early even
            // though the next round (with computed sub-relation scores)
            // still adds matches. This is what makes the §6.3
            // θ-independence hold for extreme θ.
            let scores_stable = prev_score_sum > 0.0
                && (score_sum - prev_score_sum).abs() / prev_score_sum
                    < config.convergence_change.max(1e-6);
            // A full pass has no per-row dirty deltas; the relative
            // movement of the total assignment score is its score-delta
            // signal (the same quantity convergence watches).
            let score_delta = (score_sum - prev_score_sum).abs() / prev_score_sum.max(1.0);
            prev_score_sum = score_sum;
            converged = iteration > 1
                && stats.changed_fraction < config.convergence_change
                && scores_stable;
            if let Some(progress) = observe.progress.as_mut() {
                progress(&stats);
            }
            iterations.push(stats);
            observe.finish(iter_span, |s| {
                s.attr_int("churn", changed as u64);
                s.attr_f64("score_delta", score_delta);
            });
            if converged {
                break;
            }
        }

        // ---- final class pass (§5.1: "in a last step")
        let class_span = observe.begin("class_pass", None);
        let t2 = paris_obs::span::now_ns();
        let classes = subclass_pass(kb1, kb2, &assignment, config);
        let class_seconds = paris_obs::span::seconds_since(t2);
        observe.finish(class_span, |s| {
            s.attr_int("classes_kb1", kb1.num_classes() as u64);
            s.attr_int("classes_kb2", kb2.num_classes() as u64);
        });

        AlignmentResult {
            kb1,
            kb2,
            instances: equiv,
            subrelations: subrel,
            classes,
            iterations,
            literal_pairs,
            class_seconds,
            converged,
            config: config.clone(),
        }
    }
}

/// What [`Aligner::run_with`] reports to while the fixpoint runs. Each
/// observer is optional and none of them changes the result; the
/// [`Default`] watches nothing, which is what [`Aligner::run`] passes.
#[derive(Default)]
pub struct Observe<'o> {
    /// A span collector and the span the run hangs under: one
    /// `iteration` span per fixpoint round with `instance_pass` /
    /// `subrelation_pass` children (rows rescored, churn, entry counts),
    /// then a final `class_pass`. The collector can be snapshotted live,
    /// which is how `GET /v1/jobs/<id>` renders alignment progress.
    pub spans: Option<(&'o SpanCollector, SpanId)>,
    /// Receives one [`IterationPoint`] per round: the [`IterationStats`]
    /// row plus pair turnover and the per-mille score histogram — the
    /// live convergence curve of a running job.
    pub series: Option<&'o RunSeries>,
    /// Called with each round's [`IterationStats`] row, e.g. to print
    /// the paper's per-iteration tables.
    pub progress: Option<&'o mut dyn FnMut(&IterationStats)>,
}

impl Observe<'_> {
    /// Opens span `name` under `parent`, or under the observer's own
    /// parent span when `parent` is `None`; `None` when spans are off.
    fn begin(&self, name: &'static str, parent: Option<&Span>) -> Option<Span> {
        let (collector, root) = self.spans?;
        Some(collector.begin_child(name, parent.map_or(root, |p| p.id)))
    }

    /// Annotates and closes a span opened by [`begin`](Self::begin).
    fn finish(&self, span: Option<Span>, annotate: impl FnOnce(&mut Span)) {
        if let (Some((collector, _)), Some(mut span)) = (self.spans, span) {
            annotate(&mut span);
            collector.finish(span);
        }
    }
}

/// Instances assigned in `from` that are unassigned in `to`.
fn unassigned_in(from: &[Option<(EntityId, f64)>], to: &[Option<(EntityId, f64)>]) -> u64 {
    from.iter()
        .zip(to)
        .filter(|(f, t)| f.is_some() && t.is_none())
        .count() as u64
}

/// Blends freshly computed equivalence rows with the previous iteration's
/// scores: `(1 − d)·new + d·old` over the union of candidates (a candidate
/// absent from one side contributes 0 there). Scores falling below the
/// truncation threshold are dropped, as everywhere else.
fn blend_rows(
    rows: &mut [Vec<(EntityId, f64)>],
    previous: &EquivStore,
    damping: f64,
    truncation: f64,
) {
    use paris_kb::FxHashMap;
    let mut merged: FxHashMap<EntityId, f64> = FxHashMap::default();
    for (i, row) in rows.iter_mut().enumerate() {
        let old = previous.candidates(EntityId::from_index(i));
        if old.is_empty() {
            for (_, p) in row.iter_mut() {
                *p *= 1.0 - damping;
            }
            row.retain(|&(_, p)| p >= truncation);
            continue;
        }
        merged.clear();
        for &(e, p) in row.iter() {
            merged.insert(e, (1.0 - damping) * p);
        }
        for &(e, p) in old {
            *merged.entry(e).or_insert(0.0) += damping * p;
        }
        row.clear();
        row.extend(
            merged
                .iter()
                .filter(|&(_, &p)| p >= truncation)
                .map(|(&e, &p)| (e, p)),
        );
        row.sort_unstable_by_key(|&(e, _)| e);
    }
}

#[cfg(test)]
mod blend_tests {
    use super::*;

    fn e(i: usize) -> EntityId {
        EntityId::from_index(i)
    }

    /// `run_with` feeds all three observers: one parent-linked span
    /// tree per iteration plus a final class pass, one series point per
    /// iteration consistent with the paper-table rows, and one progress
    /// call per row — and the run still matches the unobserved one.
    #[test]
    fn run_with_reports_to_every_observer() {
        use paris_obs::span::{AttrValue, SpanContext};
        use paris_rdf::Literal;

        let mut a = paris_kb::KbBuilder::new("left");
        let mut b = paris_kb::KbBuilder::new("right");
        for i in 0..5 {
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
        // The instance pass rescores instances only, not the literals.
        let rescored = kb1.num_instances() as u64;
        assert!(rescored < kb1.num_entities() as u64);
        let aligner = Aligner::new(&kb1, &kb2, ParisConfig::default());
        let collector = SpanCollector::new(SpanContext::new_root());
        let root = collector.root();
        let series = RunSeries::new();
        let mut seen = Vec::new();
        let mut progress = |s: &IterationStats| seen.push(s.iteration);
        let result = aligner.run_with(&mut Observe {
            spans: Some((&collector, root.span)),
            series: Some(&series),
            progress: Some(&mut progress),
        });
        let expected: Vec<usize> = result.iterations.iter().map(|s| s.iteration).collect();
        assert_eq!(seen, expected);
        assert_eq!(
            result
                .instance_alignment_by_iri("http://a/p3")
                .unwrap()
                .as_str(),
            "http://b/q3"
        );

        let spans = collector.snapshot();
        let iters: Vec<_> = spans.iter().filter(|s| s.name == "iteration").collect();
        assert_eq!(iters.len(), result.iterations.len());
        for iter in &iters {
            assert_eq!(iter.parent, Some(root.span));
            assert!(iter.end_ns >= iter.start_ns);
            let passes: Vec<_> = spans.iter().filter(|s| s.parent == Some(iter.id)).collect();
            assert!(
                passes.iter().any(|s| s.name == "subrelation_pass"),
                "{passes:?}"
            );
            let instance = passes
                .iter()
                .find(|s| s.name == "instance_pass")
                .expect("instance pass span");
            assert!(instance
                .attrs
                .iter()
                .any(|(k, v)| *k == "dirty" && *v == AttrValue::Int(rescored)));
        }
        let class = spans
            .iter()
            .find(|s| s.name == "class_pass")
            .expect("class pass span");
        assert_eq!(class.parent, Some(root.span));
        assert!(spans.iter().all(|s| s.trace == root.trace));

        let points = series.snapshot();
        assert_eq!(points.len(), result.iterations.len());
        for (point, stats) in points.iter().zip(&result.iterations) {
            assert_eq!(point.iteration, stats.iteration);
            assert_eq!(point.changed, stats.changed as u64);
            assert_eq!(point.assigned, stats.assigned_instances as u64);
            assert_eq!(point.dirty, rescored);
            assert_eq!(point.scores.count, stats.assigned_instances as u64);
            assert!(point.scores.max <= 1000);
        }
        // Iteration 1 assigns everything fresh: all pairs are new.
        assert_eq!(points[0].new_pairs, points[0].assigned);
        assert_eq!(points[0].dropped_pairs, 0);
    }

    #[test]
    fn blend_mixes_old_and_new() {
        let previous = EquivStore::from_rows(vec![vec![(e(0), 0.8)]], 2);
        let mut rows = vec![vec![(e(0), 0.4)]];
        blend_rows(&mut rows, &previous, 0.5, 0.0);
        assert!((rows[0][0].1 - 0.6).abs() < 1e-12, "{rows:?}");
    }

    #[test]
    fn blend_keeps_vanished_candidates_decayed() {
        // The fresh pass dropped the candidate; damping keeps a decayed
        // trace of the old score, which is exactly what suppresses
        // flip-flopping assignments.
        let previous = EquivStore::from_rows(vec![vec![(e(1), 0.9)]], 2);
        let mut rows = vec![vec![]];
        blend_rows(&mut rows, &previous, 0.5, 0.1);
        assert_eq!(rows[0], vec![(e(1), 0.45)]);
    }

    #[test]
    fn blend_scales_new_candidates_without_history() {
        let previous = EquivStore::new(1, 2);
        let mut rows = vec![vec![(e(0), 0.8)]];
        blend_rows(&mut rows, &previous, 0.25, 0.1);
        assert!((rows[0][0].1 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn blend_respects_truncation() {
        let previous = EquivStore::new(1, 2);
        let mut rows = vec![vec![(e(0), 0.15)]];
        blend_rows(&mut rows, &previous, 0.5, 0.1);
        assert!(rows[0].is_empty(), "0.075 < truncation 0.1: {rows:?}");
    }

    #[test]
    fn zero_damping_never_invoked() {
        let config = ParisConfig::default();
        assert_eq!(config.damping_at(1), 0.0);
        assert_eq!(config.damping_at(5), 0.0);
        let damped = ParisConfig::default().with_damping(0.6);
        assert_eq!(damped.damping_at(1), 0.0);
        assert!((damped.damping_at(2) - 0.3).abs() < 1e-12);
        assert!(damped.damping_at(10) < 0.6);
    }
}
