//! Evidence explanations: *why* does PARIS believe `x ≡ x′`?
//!
//! Eq. 13 scores a candidate pair through a product over pairs of
//! statements `r(x, y)` / `r′(x′, y′)` with `y ≈ y′`. Each factor is an
//! independent piece of evidence weighted by the inverse functionality of
//! the relations and the sub-relation scores. This module re-runs that
//! computation for one pair and returns the factors individually — the
//! paper's e-mail example becomes inspectable: a single shared e-mail
//! address shows up as one dominant factor with `fun⁻¹ = 1`.

use paris_kb::{EntityId, EntityKind, Kb, RelationId};
use paris_literals::LiteralSimilarity;

use crate::config::ParisConfig;
use crate::equiv::CandidateView;
use crate::image::{PairImage, PairSide};
use crate::subrel::SubrelStore;

/// One piece of positive evidence for `x ≡ x′` (a factor of Eq. 13).
#[derive(Clone, Debug)]
pub struct Evidence {
    /// The KB-1 statement's relation (`r` in `r(x, y)`).
    pub relation_1: RelationId,
    /// The KB-2 statement's relation (`r′` in `r′(x′, y′)`).
    pub relation_2: RelationId,
    /// The shared neighbour on the KB-1 side (`y`).
    pub neighbor_1: EntityId,
    /// The equivalent neighbour on the KB-2 side (`y′`).
    pub neighbor_2: EntityId,
    /// `Pr(y ≡ y′)` — clamped literal probability or the previous
    /// iteration's instance probability.
    pub neighbor_prob: f64,
    /// `fun⁻¹(r)` on the KB-1 side.
    pub inv_functionality_1: f64,
    /// `fun⁻¹(r′)` on the KB-2 side.
    pub inv_functionality_2: f64,
    /// The Eq. 13 factor `(1 − Pr(r′⊆r)·fun⁻¹(r)·Pr(y≡y′)) ×
    /// (1 − Pr(r⊆r′)·fun⁻¹(r′)·Pr(y≡y′))`. Smaller = stronger evidence.
    pub factor: f64,
}

impl Evidence {
    /// The contribution of this factor alone: the score the pair would
    /// get if this were the only evidence.
    pub fn solo_score(&self) -> f64 {
        1.0 - self.factor
    }
}

/// A full explanation of one candidate pair.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The explained KB-1 instance.
    pub entity_1: EntityId,
    /// The explained KB-2 candidate.
    pub entity_2: EntityId,
    /// All positive-evidence factors, strongest (smallest factor) first.
    pub evidence: Vec<Evidence>,
    /// The combined Eq. 13 score `1 − ∏ factors`.
    pub score: f64,
}

impl Explanation {
    /// Renders a human-readable evidence table.
    pub fn render(&self, kb1: &Kb, kb2: &Kb) -> String {
        let name = |kb: &Kb, e: EntityId| match kb.literal(e) {
            Some(l) => format!("{:?}", l.value()),
            None => kb
                .iri(e)
                .map(|i| i.local_name().to_owned())
                .unwrap_or_else(|| format!("{e:?}")),
        };
        let mut out = format!(
            "Pr({} ≡ {}) = {:.3} from {} pieces of evidence:\n",
            name(kb1, self.entity_1),
            name(kb2, self.entity_2),
            self.score,
            self.evidence.len(),
        );
        for ev in &self.evidence {
            out.push_str(&format!(
                "  {}({}) ~ {}({})  Pr(y≡y′)={:.2} fun⁻¹={:.2}/{:.2} → +{:.3}\n",
                kb1.relation_display(ev.relation_1),
                name(kb1, ev.neighbor_1),
                kb2.relation_display(ev.relation_2),
                name(kb2, ev.neighbor_2),
                ev.neighbor_prob,
                ev.inv_functionality_1,
                ev.inv_functionality_2,
                ev.solo_score(),
            ));
        }
        out
    }
}

/// Recomputes the Eq. 13 evidence for one candidate pair.
///
/// `cand` supplies `Pr(y ≡ y′)` exactly as the instance pass saw it;
/// `subrel` supplies the sub-relation scores. The returned score equals
/// the score the instance pass assigns (before negative evidence).
pub fn explain_pair(
    kb1: &Kb,
    kb2: &Kb,
    x: EntityId,
    x2: EntityId,
    cand: &CandidateView,
    subrel: &SubrelStore,
    _config: &ParisConfig,
) -> Explanation {
    let mut evidence = Vec::new();
    let mut product = 1.0;
    for &(r, y) in kb1.facts(x) {
        let fun_inv_r = kb1.functionality(r.inverse());
        for &(y2, p_yy) in cand.candidates(y) {
            for &(q, z) in kb2.facts(y2) {
                if z != x2 || kb2.kind(z) != EntityKind::Instance {
                    continue;
                }
                let r2 = q.inverse();
                let p_r2_in_r = subrel.prob_2in1(r2, r);
                let p_r_in_r2 = subrel.prob_1in2(r, r2);
                if p_r2_in_r == 0.0 && p_r_in_r2 == 0.0 {
                    continue;
                }
                let fun_inv_r2 = kb2.functionality(r2.inverse());
                let factor =
                    (1.0 - p_r2_in_r * fun_inv_r * p_yy) * (1.0 - p_r_in_r2 * fun_inv_r2 * p_yy);
                if factor < 1.0 {
                    product *= factor;
                    evidence.push(Evidence {
                        relation_1: r,
                        relation_2: r2,
                        neighbor_1: y,
                        neighbor_2: y2,
                        neighbor_prob: p_yy,
                        inv_functionality_1: fun_inv_r,
                        inv_functionality_2: fun_inv_r2,
                        factor,
                    });
                }
            }
        }
    }
    evidence.sort_by(|a, b| a.factor.total_cmp(&b.factor));
    Explanation {
        entity_1: x,
        entity_2: x2,
        evidence,
        score: 1.0 - product,
    }
}

// ----------------------------------------------------------------------
// Stored-evidence explanations (the serving path)
// ----------------------------------------------------------------------

/// One piece of evidence for `x ≡ x′` read from a **stored** serving
/// image — the serving counterpart of [`Evidence`], fully rendered
/// (relation IRIs, neighbour terms) so the daemon can emit it without
/// touching the image again.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredEvidence {
    /// Base IRI of the KB-1 statement's relation (`r` in `r(x, y)`).
    pub relation_1: String,
    /// Whether the KB-1 statement is held in the inverse direction.
    pub inverse_1: bool,
    /// Base IRI of the KB-2 statement's relation (`r′` in `r′(x′, y′)`).
    pub relation_2: String,
    /// Whether the KB-2 statement is held in the inverse direction.
    pub inverse_2: bool,
    /// The shared neighbour on the KB-1 side (`y`), rendered.
    pub neighbor_1: String,
    /// The equivalent neighbour on the KB-2 side (`y′`), rendered.
    pub neighbor_2: String,
    /// `Pr(y ≡ y′)`: the clamped literal probability for literal
    /// neighbours, the stored maximal-assignment probability for
    /// instance neighbours.
    pub neighbor_prob: f64,
    /// `fun⁻¹(r)` on the KB-1 side (stored functionality).
    pub inv_functionality_1: f64,
    /// `fun⁻¹(r′)` on the KB-2 side.
    pub inv_functionality_2: f64,
    /// Stored `Pr(r′ ⊆ r)`.
    pub subrel_2in1: f64,
    /// Stored `Pr(r ⊆ r′)`.
    pub subrel_1in2: f64,
    /// The Eq. 13 factor `(1 − Pr(r′⊆r)·fun⁻¹(r)·Pr(y≡y′)) ×
    /// (1 − Pr(r⊆r′)·fun⁻¹(r′)·Pr(y≡y′))`. Smaller = stronger evidence.
    pub factor: f64,
}

impl StoredEvidence {
    /// The contribution of this factor alone: the score the pair would
    /// get if this were the only evidence.
    pub fn solo_score(&self) -> f64 {
        1.0 - self.factor
    }
}

/// A full stored-evidence explanation of one candidate pair.
#[derive(Clone, Debug)]
pub struct StoredExplanation {
    /// The Eq. 13 score the stored model assigns the pair today:
    /// `1 − ∏ factorᵢ`, multiplied in [`evidence`](Self::evidence)
    /// order — recomputing the product over the listed factors
    /// reproduces this value **bit-exactly**
    /// ([`recompute_score`](Self::recompute_score)).
    pub score: f64,
    /// The stored equivalence probability `Pr(x ≡ x′)` — what the
    /// producing run wrote into the snapshot, and exactly what `sameas`
    /// serves when `x′` is the maximal assignment of `x`.
    pub stored_prob: f64,
    /// All positive-evidence factors, strongest (smallest factor) first.
    pub evidence: Vec<StoredEvidence>,
}

impl StoredExplanation {
    /// Re-multiplies the evidence factors in listed order — bit-equal to
    /// [`score`](Self::score) by construction. Clients asserting
    /// explain-vs-score consistency use exactly this fold.
    pub fn recompute_score(&self) -> f64 {
        1.0 - self.evidence.iter().fold(1.0, |p, e| p * e.factor)
    }
}

/// Recomputes the Eq. 13 evidence for one candidate pair from a
/// **stored serving image** — the zero-setup counterpart of
/// [`explain_pair`], consuming only what the snapshot persists: fact
/// adjacency, functionalities, sub-relation scores, and the final
/// equivalence table. `x` must be a KB-1 instance and `x2` a KB-2
/// instance.
///
/// `Pr(y ≡ y′)` is what a next instance pass over the stored image
/// would see (§5.2): literal pairs are clamped by the identity
/// similarity (the paper's default — the snapshot does not record the
/// similarity function the producing run used); entity pairs propagate
/// only the stored *maximal assignment* of `y`.
///
/// Work is O(facts(x) × facts(x2)) statement pairs (per-neighbour
/// lookups are hoisted out of the inner loop); callers serving untrusted
/// input should bound that product — the daemon refuses pairs beyond
/// its documented cap.
pub fn explain_stored(image: &PairImage, x: EntityId, x2: EntityId) -> StoredExplanation {
    let mut evidence = Vec::new();
    // The right-hand statements are the same for every left-hand fact;
    // enumerate them once, with each neighbour's literal value (None =
    // not a literal) resolved once instead of per statement pair.
    let facts2: Vec<(RelationId, EntityId, Option<paris_rdf::Literal>)> = image
        .facts_ids(PairSide::Kb2, x2)
        .map(|(r2, y2)| (r2, y2, image.literal_of(PairSide::Kb2, y2)))
        .collect();
    for (r, y) in image.facts_ids(PairSide::Kb1, x) {
        let fun_inv_r = image.functionality(PairSide::Kb1, r.inverse());
        // Classify the left neighbour once: its literal value, or — for
        // entities — its stored maximal assignment.
        let y_literal = image.literal_of(PairSide::Kb1, y);
        let y_best = if y_literal.is_none() {
            image.best_match_from(PairSide::Kb1, y)
        } else {
            None
        };
        for (r2, y2, y2_literal) in &facts2 {
            let (r2, y2) = (*r2, *y2);
            let p_yy = match (&y_literal, y2_literal) {
                (Some(a), Some(b)) => LiteralSimilarity::Identity.probability(a, b),
                (None, None) => y_best.filter(|&(e, _)| e == y2).map_or(0.0, |(_, p)| p),
                _ => 0.0,
            };
            if p_yy == 0.0 {
                continue;
            }
            let p_r2_in_r = image.subrel_2in1(r2, r);
            let p_r_in_r2 = image.subrel_1in2(r, r2);
            if p_r2_in_r == 0.0 && p_r_in_r2 == 0.0 {
                continue;
            }
            let fun_inv_r2 = image.functionality(PairSide::Kb2, r2.inverse());
            let factor =
                (1.0 - p_r2_in_r * fun_inv_r * p_yy) * (1.0 - p_r_in_r2 * fun_inv_r2 * p_yy);
            if factor < 1.0 {
                evidence.push(StoredEvidence {
                    relation_1: image.relation_iri_of(PairSide::Kb1, r),
                    inverse_1: r.is_inverse(),
                    relation_2: image.relation_iri_of(PairSide::Kb2, r2),
                    inverse_2: r2.is_inverse(),
                    neighbor_1: image.term_string(PairSide::Kb1, y),
                    neighbor_2: image.term_string(PairSide::Kb2, y2),
                    neighbor_prob: p_yy,
                    inv_functionality_1: fun_inv_r,
                    inv_functionality_2: fun_inv_r2,
                    subrel_2in1: p_r2_in_r,
                    subrel_1in2: p_r_in_r2,
                    factor,
                });
            }
        }
    }
    // Strongest evidence first; the sort is stable, so equal factors
    // keep their (deterministic) discovery order. The product is folded
    // *after* sorting, in listed order — that is the order clients see,
    // so re-multiplying the served factors reproduces the served score
    // bit for bit.
    evidence.sort_by(|a, b| a.factor.total_cmp(&b.factor));
    let score = 1.0 - evidence.iter().fold(1.0, |p, e| p * e.factor);
    StoredExplanation {
        score,
        stored_prob: image.equiv_prob(x, x2),
        evidence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::instance_pass;
    use crate::literal_bridge::LiteralBridge;
    use paris_kb::KbBuilder;
    use paris_rdf::Literal;

    fn kbs() -> (Kb, Kb) {
        let mut b1 = KbBuilder::new("a");
        b1.add_literal_fact(
            "http://a/alice",
            "http://a/email",
            Literal::plain("al@x.org"),
        );
        b1.add_literal_fact(
            "http://a/alice",
            "http://a/city",
            Literal::plain("Springfield"),
        );
        b1.add_literal_fact(
            "http://a/eve",
            "http://a/city",
            Literal::plain("Springfield"),
        );
        let mut b2 = KbBuilder::new("b");
        b2.add_literal_fact(
            "http://b/asmith",
            "http://b/mail",
            Literal::plain("al@x.org"),
        );
        b2.add_literal_fact(
            "http://b/asmith",
            "http://b/town",
            Literal::plain("Springfield"),
        );
        b2.add_literal_fact(
            "http://b/bob",
            "http://b/town",
            Literal::plain("Springfield"),
        );
        (b1.build(), b2.build())
    }

    fn view(kb1: &Kb, kb2: &Kb) -> CandidateView {
        let (fwd, _) = LiteralBridge::build(kb1, kb2, &LiteralSimilarity::Identity).into_rows();
        CandidateView::uninformed(fwd)
    }

    #[test]
    fn explanation_score_matches_instance_pass() {
        let (kb1, kb2) = kbs();
        let cand = view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let config = ParisConfig::default()
            .with_threads(1)
            .with_truncation(0.0001);
        let rows = instance_pass(&kb1, &kb2, &cand, &subrel, &config);

        let alice = kb1.entity_by_iri("http://a/alice").unwrap();
        let asmith = kb2.entity_by_iri("http://b/asmith").unwrap();
        let pass_score = rows[alice.index()]
            .iter()
            .find(|&&(e, _)| e == asmith)
            .map(|&(_, p)| p)
            .expect("alice ≈ asmith");

        let explanation = explain_pair(&kb1, &kb2, alice, asmith, &cand, &subrel, &config);
        assert!((explanation.score - pass_score).abs() < 1e-12);
    }

    #[test]
    fn email_dominates_city() {
        let (kb1, kb2) = kbs();
        let cand = view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let alice = kb1.entity_by_iri("http://a/alice").unwrap();
        let asmith = kb2.entity_by_iri("http://b/asmith").unwrap();
        let ex = explain_pair(
            &kb1,
            &kb2,
            alice,
            asmith,
            &cand,
            &subrel,
            &ParisConfig::default(),
        );
        assert_eq!(ex.evidence.len(), 2, "{ex:?}");
        // The e-mail (unique on both sides, fun⁻¹ = 1) must be the
        // strongest evidence; the shared city (fun⁻¹ = 0.5) the weaker.
        let strongest = &ex.evidence[0];
        assert_eq!(kb1.relation_display(strongest.relation_1), "email");
        assert_eq!(strongest.inv_functionality_1, 1.0);
        let weaker = &ex.evidence[1];
        assert_eq!(kb1.relation_display(weaker.relation_1), "city");
        assert!(weaker.inv_functionality_1 < 1.0);
        assert!(strongest.solo_score() > weaker.solo_score());
    }

    #[test]
    fn unrelated_pair_has_no_evidence() {
        let (kb1, kb2) = kbs();
        let cand = view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let eve = kb1.entity_by_iri("http://a/eve").unwrap();
        let asmith = kb2.entity_by_iri("http://b/asmith").unwrap();
        // eve shares only the city value with asmith (via the literal).
        let ex = explain_pair(
            &kb1,
            &kb2,
            eve,
            asmith,
            &cand,
            &subrel,
            &ParisConfig::default(),
        );
        assert_eq!(ex.evidence.len(), 1);
        assert!(ex.score < 0.1);
    }

    fn aligned_image() -> PairImage {
        use crate::iteration::Aligner;
        use crate::owned::{AlignedPairSnapshot, OwnedAlignment};
        use crate::view::MappedPairSnapshot;
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
        }
        let (kb1, kb2) = (a.build(), b.build());
        let owned = {
            let result = Aligner::new(&kb1, &kb2, ParisConfig::default()).run();
            OwnedAlignment::from_result(&result)
        };
        let snap = AlignedPairSnapshot::new(kb1, kb2, owned);
        MappedPairSnapshot::from_bytes(MappedPairSnapshot::encode(&snap))
            .unwrap()
            .into()
    }

    #[test]
    fn stored_explanation_recomputes_bit_exactly() {
        let image = aligned_image();
        for i in 0..6 {
            let x = image
                .entity_by_iri(PairSide::Kb1, &format!("http://a/p{i}"))
                .unwrap();
            for j in 0..6 {
                let x2 = image
                    .entity_by_iri(PairSide::Kb2, &format!("http://b/q{j}"))
                    .unwrap();
                let ex = explain_stored(&image, x, x2);
                // The served score is exactly the fold of the served factors.
                assert_eq!(
                    ex.score.to_bits(),
                    ex.recompute_score().to_bits(),
                    "p{i}/q{j}"
                );
                assert_eq!(
                    ex.stored_prob.to_bits(),
                    image.equiv_prob(x, x2).to_bits(),
                    "p{i}/q{j}"
                );
            }
        }
    }

    #[test]
    fn stored_explanation_finds_the_email_evidence() {
        let image = aligned_image();
        let x = image.entity_by_iri(PairSide::Kb1, "http://a/p1").unwrap();
        let x2 = image.entity_by_iri(PairSide::Kb2, "http://b/q1").unwrap();
        let ex = explain_stored(&image, x, x2);
        assert!(!ex.evidence.is_empty());
        // The e-mail literal is the strongest evidence (fun⁻¹ = 1 on a
        // unique value), and the stored assignment agrees.
        let strongest = &ex.evidence[0];
        assert_eq!(strongest.relation_1, "http://a/email");
        assert_eq!(strongest.neighbor_1, "p1@x.org");
        assert_eq!(strongest.inv_functionality_1, 1.0);
        assert!(ex.score > 0.5, "{ex:?}");
        assert!(ex.stored_prob > 0.5, "{ex:?}");
        assert_eq!(
            image.best_match_from(PairSide::Kb1, x).map(|(e, _)| e),
            Some(x2)
        );

        // A wrong candidate gets weaker (city-only) or no evidence.
        let wrong = image.entity_by_iri(PairSide::Kb2, "http://b/q2").unwrap();
        let weak = explain_stored(&image, x, wrong);
        assert!(weak.score < ex.score, "{weak:?}");
        assert_eq!(weak.stored_prob, 0.0);
    }

    #[test]
    fn render_is_readable() {
        let (kb1, kb2) = kbs();
        let cand = view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let alice = kb1.entity_by_iri("http://a/alice").unwrap();
        let asmith = kb2.entity_by_iri("http://b/asmith").unwrap();
        let ex = explain_pair(
            &kb1,
            &kb2,
            alice,
            asmith,
            &cand,
            &subrel,
            &ParisConfig::default(),
        );
        let text = ex.render(&kb1, &kb2);
        assert!(text.contains("alice"), "{text}");
        assert!(text.contains("email"), "{text}");
        assert!(text.contains("fun⁻¹"), "{text}");
    }
}
