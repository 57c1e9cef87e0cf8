//! Instance-equivalence pass (paper §4.1–4.2, Eq. 13–14).
//!
//! One pass computes, for every instance `x` of KB 1, the probabilities
//! `Pr(x ≡ x′)` against candidate instances `x′` of KB 2. The generalized
//! positive-evidence formula (Eq. 13) is
//!
//! ```text
//! Pr(x≡x′) = 1 − ∏_{r(x,y), r′(x′,y′)}
//!     (1 − Pr(r′⊆r) · fun⁻¹(r)  · Pr(y≡y′))
//!   × (1 − Pr(r⊆r′) · fun⁻¹(r′) · Pr(y≡y′))
//! ```
//!
//! and the optional negative-evidence factors (Eq. 14) multiply in, for
//! every statement `r(x,y)` and relation `r′`,
//!
//! ```text
//!   (1 − fun(r)  · Pr(r′⊆r) · ∏_{y′:r′(x′,y′)} (1 − Pr(y≡y′)))
//! × (1 − fun(r′) · Pr(r⊆r′) · ∏_{y′:r′(x′,y′)} (1 − Pr(y≡y′)))
//! ```
//!
//! The pass is *neighbour-driven* (§5.2): for each statement `r(x, y)` we
//! jump to the known equivalents `y′` of `y` and from there to the
//! statements `r′(x′, y′)` — O(n·m²·e) instead of O(n²·m). Candidates `x′`
//! therefore materialize only when they share at least one (probabilistic)
//! neighbour with `x`.
//!
//! Rows are scored shard by shard without per-row allocation beyond the
//! row itself. Each shard owns a dense Eq. 13 accumulator over the KB-2
//! entities (1.0 = untouched) plus the list of slots the current row
//! touched; the row reads and resets exactly those slots. The Eq. 14
//! sub-relation links are tabulated once per pass and shared read-only by
//! every shard, and the `y′` of `r′(x′, y′)` are the contiguous `r′` run of
//! `x′`'s adjacency (sorted by relation). Every product is formed in the
//! same operand order as a straightforward per-row evaluation, so scores
//! do not depend on sharding or thread count.

use paris_kb::{EntityId, EntityKind, Kb, RelationId};

use crate::config::ParisConfig;
use crate::equiv::CandidateView;
use crate::subrel::SubrelStore;

/// Computes one instance pass: a row of `(x′, Pr(x≡x′))` per KB-1 entity.
///
/// `cand` is the KB1 → KB2 candidate view of the *previous* iteration
/// (maximal assignment unless `propagate_all_equalities`), already merged
/// with the literal bridge. Scores below `config.theta` are dropped (§5.2).
pub fn instance_pass(
    kb1: &Kb,
    kb2: &Kb,
    cand: &CandidateView,
    subrel: &SubrelStore,
    config: &ParisConfig,
) -> Vec<Vec<(EntityId, f64)>> {
    let instances: Vec<EntityId> = kb1.instances().collect();
    let mut rows: Vec<Vec<(EntityId, f64)>> = vec![Vec::new(); kb1.num_entities()];
    for (x, row) in instance_pass_subset(kb1, kb2, &instances, cand, subrel, config) {
        rows[x.index()] = row;
    }
    rows
}

/// Like [`instance_pass`], but scores only the given KB-1 instances,
/// returning one `(instance, row)` pair each. This is the workhorse of
/// incremental re-alignment: after a small delta, only instances whose
/// support sets were touched need rescoring, and every other row carries
/// over from the previous fixed point unchanged.
pub fn instance_pass_subset(
    kb1: &Kb,
    kb2: &Kb,
    subset: &[EntityId],
    cand: &CandidateView,
    subrel: &SubrelStore,
    config: &ParisConfig,
) -> Vec<(EntityId, Vec<(EntityId, f64)>)> {
    let scorer = RowScorer::new(kb1, kb2, cand, subrel, config);
    // Small subsets (the common incremental case) stay sequential — OS
    // thread spawns would cost more than the scoring itself. ~64 rows per
    // thread keeps the full pass sharded exactly as before.
    let threads = config
        .effective_threads()
        .min(subset.len().div_ceil(64).max(1));
    if threads <= 1 {
        return scorer.score_shard(subset);
    }

    // Shard instances across worker threads; each entity's row is
    // independent, so results are identical to the sequential run.
    type ShardResult = Vec<(EntityId, Vec<(EntityId, f64)>)>;
    let chunk = subset.len().div_ceil(threads);
    let scorer = &scorer;
    let results: Vec<ShardResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = subset
            .chunks(chunk)
            .map(|shard| scope.spawn(move || scorer.score_shard(shard)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    results.into_iter().flatten().collect()
}

/// One Eq. 14 link of a KB-1 relation `r`: `(r′, Pr(r⊆r′), Pr(r′⊆r))`.
type Link = (RelationId, f64, f64);

/// The read-only inputs of one pass, shared by every shard.
struct RowScorer<'a> {
    kb1: &'a Kb,
    kb2: &'a Kb,
    cand: &'a CandidateView,
    subrel: &'a SubrelStore,
    cutoff: f64,
    /// Per KB-1 directed relation, its links with a non-zero score;
    /// `None` while Eq. 14 is inert.
    links: Option<Vec<Vec<Link>>>,
}

/// Per-shard scratch, reused across the shard's rows: the Eq. 13 product
/// of every KB-2 entity, and the entities the current row touched. A slot
/// equal to 1.0 is untouched — only factors `< 1.0` are multiplied in.
struct RowScratch {
    acc: Vec<f64>,
    touched: Vec<EntityId>,
}

impl<'a> RowScorer<'a> {
    fn new(
        kb1: &'a Kb,
        kb2: &'a Kb,
        cand: &'a CandidateView,
        subrel: &'a SubrelStore,
        config: &ParisConfig,
    ) -> Self {
        // Negative evidence needs informed sub-relation links AND informed
        // neighbour probabilities. During the bootstrap iteration every
        // relation pair carries θ (penalizing every candidate for every
        // relation the other instance lacks), and one iteration later the
        // neighbour probabilities are still θ-scaled (a correctly matched
        // neighbour at Pr ≈ 2θ would read as ~80 % mismatched). Eq. 14
        // fires only once both inputs carry computed scores.
        let links = (config.negative_evidence && !subrel.is_bootstrap() && cand.is_informed())
            .then(|| {
                (0..kb1.num_directed_relations())
                    .map(|i| {
                        let mut links = subrel.links_of_kb1(
                            RelationId::from_directed_index(i),
                            kb2.num_directed_relations(),
                        );
                        links.retain(|&(_, p_r_in_r2, p_r2_in_r)| {
                            p_r_in_r2 != 0.0 || p_r2_in_r != 0.0
                        });
                        links
                    })
                    .collect()
            });
        RowScorer {
            kb1,
            kb2,
            cand,
            subrel,
            cutoff: config.effective_cutoff(subrel.is_bootstrap()),
            links,
        }
    }

    /// Scores one shard of KB-1 instances with one scratch.
    fn score_shard(&self, shard: &[EntityId]) -> Vec<(EntityId, Vec<(EntityId, f64)>)> {
        let mut scratch = RowScratch {
            acc: vec![1.0; self.kb2.num_entities()],
            touched: Vec::new(),
        };
        shard
            .iter()
            .map(|&x| (x, self.score_row(x, &mut scratch)))
            .collect()
    }

    /// Scores all candidates of one KB-1 instance, leaving `scratch` as
    /// it found it.
    fn score_row(&self, x: EntityId, scratch: &mut RowScratch) -> Vec<(EntityId, f64)> {
        let (kb1, kb2, subrel) = (self.kb1, self.kb2, self.subrel);
        let RowScratch { acc, touched } = scratch;

        // Product accumulator per candidate x′ (the big ∏ of Eq. 13).
        for &(r, y) in kb1.facts(x) {
            let fun_inv_r = kb1.functionality(r.inverse());
            for &(y2, p_yy) in self.cand.candidates(y) {
                // Statements r′(x′, y′) with y′ = y2: each adjacency entry
                // (q, z) of y2 means q(y2, z), i.e. q⁻¹(z, y2) — so r′ = q⁻¹,
                // x′ = z.
                for &(q, z) in kb2.facts(y2) {
                    if kb2.kind(z) != EntityKind::Instance {
                        continue;
                    }
                    let r2 = q.inverse();
                    let p_r2_in_r = subrel.prob_2in1(r2, r);
                    let p_r_in_r2 = subrel.prob_1in2(r, r2);
                    if p_r2_in_r == 0.0 && p_r_in_r2 == 0.0 {
                        continue;
                    }
                    let fun_inv_r2 = kb2.functionality(r2.inverse());
                    let factor = (1.0 - p_r2_in_r * fun_inv_r * p_yy)
                        * (1.0 - p_r_in_r2 * fun_inv_r2 * p_yy);
                    if factor < 1.0 {
                        let slot = &mut acc[z.index()];
                        if *slot == 1.0 {
                            touched.push(z);
                        }
                        *slot *= factor;
                    }
                }
            }
        }

        let mut row: Vec<(EntityId, f64)> = Vec::new();
        for x2 in touched.drain(..) {
            let slot = &mut acc[x2.index()];
            let p = 1.0 - *slot;
            *slot = 1.0;
            if p >= self.cutoff {
                row.push((x2, p));
            }
        }

        if let Some(links) = &self.links {
            if !row.is_empty() {
                for (x2, p) in &mut row {
                    *p *= self.negative_factor(x, *x2, links);
                }
                row.retain(|&(_, p)| p >= self.cutoff);
            }
        }

        row.sort_unstable_by_key(|&(e, _)| e);
        row
    }

    /// The Eq. 14 negative-evidence product for one candidate pair `(x, x′)`.
    fn negative_factor(&self, x: EntityId, x2: EntityId, links: &[Vec<Link>]) -> f64 {
        let (kb1, kb2) = (self.kb1, self.kb2);
        let facts2 = kb2.facts(x2);
        let mut neg = 1.0;
        for &(r, y) in kb1.facts(x) {
            let fun_r = kb1.functionality(r);
            let y_cands = self.cand.candidates(y);
            for &(r2, p_r_in_r2, p_r2_in_r) in &links[r.directed_index()] {
                // ∏_{y′ : r′(x′, y′)} (1 − Pr(y ≡ y′)) over the r′ run of
                // x′'s adjacency; empty product = 1 (the paper's convention
                // when x′ lacks the relation, which *keeps* the penalty
                // factors below < 1).
                let start = facts2.partition_point(|&(q, _)| q < r2);
                let end = facts2.partition_point(|&(q, _)| q <= r2);
                let mut inner = 1.0;
                for &(_, y2) in &facts2[start..end] {
                    let p = y_cands
                        .iter()
                        .find(|&&(e, _)| e == y2)
                        .map_or(0.0, |&(_, p)| p);
                    inner *= 1.0 - p;
                    if inner == 0.0 {
                        break;
                    }
                }
                let fun_r2 = kb2.functionality(r2);
                neg *= 1.0 - fun_r * p_r2_in_r * inner;
                neg *= 1.0 - fun_r2 * p_r_in_r2 * inner;
                if neg == 0.0 {
                    return 0.0;
                }
            }
        }
        neg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_kb::KbBuilder;
    use paris_literals::LiteralSimilarity;
    use paris_rdf::Literal;

    use crate::literal_bridge::LiteralBridge;

    /// Two people sharing an e-mail (inverse-functional) must unify with
    /// probability fun⁻¹ × θ-bootstrapped sub-relation weight.
    fn email_kbs() -> (Kb, Kb) {
        let mut b1 = KbBuilder::new("a");
        b1.add_literal_fact(
            "http://a/alice",
            "http://a/email",
            Literal::plain("al@x.org"),
        );
        b1.add_literal_fact(
            "http://a/bob",
            "http://a/email",
            Literal::plain("bob@x.org"),
        );
        let mut b2 = KbBuilder::new("b");
        b2.add_literal_fact(
            "http://b/asmith",
            "http://b/mail",
            Literal::plain("al@x.org"),
        );
        b2.add_literal_fact(
            "http://b/bjones",
            "http://b/mail",
            Literal::plain("bob@x.org"),
        );
        (b1.build(), b2.build())
    }

    fn literal_view(kb1: &Kb, kb2: &Kb) -> CandidateView {
        let (fwd, _) = LiteralBridge::build(kb1, kb2, &LiteralSimilarity::Identity).into_rows();
        CandidateView::new(fwd)
    }

    #[test]
    fn shared_inverse_functional_value_unifies() {
        let (kb1, kb2) = email_kbs();
        let cand = literal_view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let config = ParisConfig::default().with_threads(1);
        let rows = instance_pass(&kb1, &kb2, &cand, &subrel, &config);

        let alice = kb1.entity_by_iri("http://a/alice").unwrap();
        let asmith = kb2.entity_by_iri("http://b/asmith").unwrap();
        let row = &rows[alice.index()];
        assert_eq!(row.len(), 1, "only one candidate: {row:?}");
        assert_eq!(row[0].0, asmith);
        // Eq. 13 with one shared value: p = 1 − (1 − θ·fun⁻¹(email)·1)²
        // fun⁻¹ = 1 on both sides → 1 − 0.9² = 0.19.
        assert!((row[0].1 - 0.19).abs() < 1e-12, "{}", row[0].1);
        // Bob maps to bjones, not to asmith.
        let bob = kb1.entity_by_iri("http://a/bob").unwrap();
        let bjones = kb2.entity_by_iri("http://b/bjones").unwrap();
        assert_eq!(rows[bob.index()][0].0, bjones);
    }

    #[test]
    fn computed_subrel_sharpens_scores() {
        let (kb1, kb2) = email_kbs();
        let cand = literal_view(&kb1, &kb2);
        let email = kb1.relation_by_iri("http://a/email").unwrap();
        let mail = kb2.relation_by_iri("http://b/mail").unwrap();
        let mut one = vec![Vec::new(); kb1.num_directed_relations()];
        let mut two = vec![Vec::new(); kb2.num_directed_relations()];
        one[email.directed_index()].push((mail, 1.0));
        two[mail.directed_index()].push((email, 1.0));
        let subrel = SubrelStore::from_rows(one, two);
        let config = ParisConfig::default().with_threads(1);
        let rows = instance_pass(&kb1, &kb2, &cand, &subrel, &config);
        let alice = kb1.entity_by_iri("http://a/alice").unwrap();
        // 1 − (1 − 1·1·1)(1 − 1·1·1) = 1
        assert_eq!(rows[alice.index()][0].1, 1.0);
    }

    #[test]
    fn low_inverse_functionality_gives_weak_evidence() {
        // Everyone lives in the same city: livesIn⁻¹ has functionality 1/n,
        // so sharing the city is weak evidence.
        let mut b1 = KbBuilder::new("a");
        let mut b2 = KbBuilder::new("b");
        for i in 0..10 {
            b1.add_literal_fact(
                format!("http://a/p{i}"),
                "http://a/city",
                Literal::plain("Springfield"),
            );
            b2.add_literal_fact(
                format!("http://b/q{i}"),
                "http://b/town",
                Literal::plain("Springfield"),
            );
        }
        let kb1 = b1.build();
        let kb2 = b2.build();
        let cand = literal_view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let config = ParisConfig::default().with_threads(1);
        let rows = instance_pass(&kb1, &kb2, &cand, &subrel, &config);
        let p0 = kb1.entity_by_iri("http://a/p0").unwrap();
        // score = 1 − (1 − 0.1·0.1·1)² ≈ 0.0199 < θ → dropped entirely
        assert!(rows[p0.index()].is_empty(), "{:?}", rows[p0.index()]);
    }

    #[test]
    fn truncation_drops_weak_scores() {
        let (kb1, kb2) = email_kbs();
        let cand = literal_view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        // Bootstrap cutoff is 2·θ·truncation = 0.192 > the 0.19 score.
        let config = ParisConfig::default().with_truncation(0.96).with_threads(1);
        let rows = instance_pass(&kb1, &kb2, &cand, &subrel, &config);
        assert!(rows.iter().all(Vec::is_empty));
    }

    #[test]
    fn bootstrap_cutoff_scales_with_theta() {
        // A tiny θ scales first-iteration scores down; the cutoff must
        // follow or nothing would ever survive the first iteration.
        let (kb1, kb2) = email_kbs();
        let cand = literal_view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.001,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let config = ParisConfig::default().with_theta(0.001).with_threads(1);
        let rows = instance_pass(&kb1, &kb2, &cand, &subrel, &config);
        let alice = kb1.entity_by_iri("http://a/alice").unwrap();
        assert_eq!(rows[alice.index()].len(), 1, "tiny-θ evidence must survive");
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut b1 = KbBuilder::new("a");
        let mut b2 = KbBuilder::new("b");
        for i in 0..40 {
            b1.add_literal_fact(
                format!("http://a/p{i}"),
                "http://a/ssn",
                Literal::plain(format!("S{i}")),
            );
            b1.add_fact(
                format!("http://a/p{i}"),
                "http://a/friend",
                format!("http://a/p{}", (i + 1) % 40),
            );
            b2.add_literal_fact(
                format!("http://b/q{i}"),
                "http://b/id",
                Literal::plain(format!("S{i}")),
            );
            b2.add_fact(
                format!("http://b/q{i}"),
                "http://b/knows",
                format!("http://b/q{}", (i + 1) % 40),
            );
        }
        let kb1 = b1.build();
        let kb2 = b2.build();
        let cand = literal_view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let seq = instance_pass(
            &kb1,
            &kb2,
            &cand,
            &subrel,
            &ParisConfig::default().with_threads(1),
        );
        let par = instance_pass(
            &kb1,
            &kb2,
            &cand,
            &subrel,
            &ParisConfig::default().with_threads(4),
        );
        assert_eq!(seq, par);
    }

    #[test]
    fn negative_evidence_penalizes_mismatched_functional_values() {
        // Same name (shared literal) but different birth dates (functional).
        let mut b1 = KbBuilder::new("a");
        b1.add_literal_fact("http://a/p", "http://a/name", Literal::plain("John Smith"));
        b1.add_literal_fact("http://a/p", "http://a/born", Literal::plain("1950"));
        let mut b2 = KbBuilder::new("b");
        b2.add_literal_fact("http://b/q", "http://b/name", Literal::plain("John Smith"));
        b2.add_literal_fact("http://b/q", "http://b/born", Literal::plain("1971"));
        let kb1 = b1.build();
        let kb2 = b2.build();
        let cand = literal_view(&kb1, &kb2);
        // Computed (non-bootstrap) sub-relation store linking the
        // corresponding relations — Eq. 14 only applies then.
        let name1 = kb1.relation_by_iri("http://a/name").unwrap();
        let born1 = kb1.relation_by_iri("http://a/born").unwrap();
        let name2 = kb2.relation_by_iri("http://b/name").unwrap();
        let born2 = kb2.relation_by_iri("http://b/born").unwrap();
        let mut one = vec![Vec::new(); kb1.num_directed_relations()];
        let mut two = vec![Vec::new(); kb2.num_directed_relations()];
        one[name1.directed_index()].push((name2, 1.0));
        one[born1.directed_index()].push((born2, 1.0));
        two[name2.directed_index()].push((name1, 1.0));
        two[born2.directed_index()].push((born1, 1.0));
        let subrel = SubrelStore::from_rows(one, two);

        let pos_cfg = ParisConfig::default().with_threads(1).with_truncation(0.01);
        let neg_cfg = pos_cfg.clone().with_negative_evidence(true);
        let pos = instance_pass(&kb1, &kb2, &cand, &subrel, &pos_cfg);
        let neg = instance_pass(&kb1, &kb2, &cand, &subrel, &neg_cfg);

        let p = kb1.entity_by_iri("http://a/p").unwrap();
        let p_pos = pos[p.index()].first().map_or(0.0, |&(_, p)| p);
        let p_neg = neg[p.index()].first().map_or(0.0, |&(_, p)| p);
        assert!(p_pos > 0.0);
        assert!(
            p_neg < p_pos,
            "negative evidence must reduce the score: {p_neg} vs {p_pos}"
        );
    }

    #[test]
    fn scratch_never_leaks_between_rows() {
        // Six people whose names pair up (p0/p3, p1/p4, p2/p5 share one), so
        // consecutive rows of one shard touch overlapping accumulator
        // slots; distinct birth years let Eq. 14 separate the pairs.
        let mut b1 = KbBuilder::new("a");
        let mut b2 = KbBuilder::new("b");
        for i in 0..6 {
            let name = Literal::plain(format!("Name {}", i % 3));
            let born = Literal::plain(format!("19{i}0"));
            b1.add_literal_fact(format!("http://a/p{i}"), "http://a/name", name.clone());
            b1.add_literal_fact(format!("http://a/p{i}"), "http://a/born", born.clone());
            b2.add_literal_fact(format!("http://b/q{i}"), "http://b/name", name);
            b2.add_literal_fact(format!("http://b/q{i}"), "http://b/born", born);
        }
        let (kb1, kb2) = (b1.build(), b2.build());
        let cand = literal_view(&kb1, &kb2);
        let mut one = vec![Vec::new(); kb1.num_directed_relations()];
        let mut two = vec![Vec::new(); kb2.num_directed_relations()];
        for (r1, r2) in [("name", "name"), ("born", "born")] {
            let r1 = kb1.relation_by_iri(&format!("http://a/{r1}")).unwrap();
            let r2 = kb2.relation_by_iri(&format!("http://b/{r2}")).unwrap();
            one[r1.directed_index()].push((r2, 0.9));
            two[r2.directed_index()].push((r1, 0.8));
        }
        let subrel = SubrelStore::from_rows(one, two);
        let config = ParisConfig::default()
            .with_threads(1)
            .with_truncation(0.01)
            .with_negative_evidence(true);

        let full = instance_pass(&kb1, &kb2, &cand, &subrel, &config);
        let instances: Vec<EntityId> = kb1.instances().collect();
        assert_eq!(instances.len(), 6);
        for x in instances {
            let alone = instance_pass_subset(&kb1, &kb2, &[x], &cand, &subrel, &config);
            let bits = |row: &[(EntityId, f64)]| -> Vec<(EntityId, u64)> {
                row.iter().map(|&(e, p)| (e, p.to_bits())).collect()
            };
            assert!(!alone[0].1.is_empty(), "every person has a candidate");
            assert_eq!(bits(&alone[0].1), bits(&full[x.index()]), "row of {x:?}");
        }
    }

    #[test]
    fn negative_evidence_is_inert_during_bootstrap() {
        let (kb1, kb2) = email_kbs();
        let cand = literal_view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let pos = instance_pass(
            &kb1,
            &kb2,
            &cand,
            &subrel,
            &ParisConfig::default().with_threads(1),
        );
        let neg = instance_pass(
            &kb1,
            &kb2,
            &cand,
            &subrel,
            &ParisConfig::default()
                .with_negative_evidence(true)
                .with_threads(1),
        );
        assert_eq!(pos, neg, "Eq. 14 must not fire on θ-bootstrapped links");
    }

    #[test]
    fn empty_candidate_view_scores_nothing() {
        let (kb1, kb2) = email_kbs();
        let cand = CandidateView::empty(kb1.num_entities());
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let rows = instance_pass(&kb1, &kb2, &cand, &subrel, &ParisConfig::default());
        assert!(rows.iter().all(Vec::is_empty));
    }

    #[test]
    fn independent_evidence_accumulates() {
        // Two shared inverse-functional values beat one (Eq. 13's product
        // of independent factors).
        let mut b1 = KbBuilder::new("a");
        b1.add_literal_fact("http://a/one", "http://a/ssn", Literal::plain("S1"));
        b1.add_literal_fact("http://a/two", "http://a/ssn", Literal::plain("S2"));
        b1.add_literal_fact("http://a/two", "http://a/tax", Literal::plain("T2"));
        let mut b2 = KbBuilder::new("b");
        b2.add_literal_fact("http://b/one", "http://b/id", Literal::plain("S1"));
        b2.add_literal_fact("http://b/two", "http://b/id", Literal::plain("S2"));
        b2.add_literal_fact("http://b/two", "http://b/fiscal", Literal::plain("T2"));
        let (kb1, kb2) = (b1.build(), b2.build());
        let cand = literal_view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let rows = instance_pass(
            &kb1,
            &kb2,
            &cand,
            &subrel,
            &ParisConfig::default().with_threads(1),
        );
        let p1 = rows[kb1.entity_by_iri("http://a/one").unwrap().index()][0].1;
        let p2 = rows[kb1.entity_by_iri("http://a/two").unwrap().index()][0].1;
        assert!(p2 > p1, "two shared values ({p2}) must beat one ({p1})");
    }

    #[test]
    fn scores_are_probabilities() {
        let (kb1, kb2) = email_kbs();
        let cand = literal_view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let rows = instance_pass(&kb1, &kb2, &cand, &subrel, &ParisConfig::default());
        for row in &rows {
            for &(_, p) in row {
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }
}
