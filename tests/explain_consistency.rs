//! Property test: the stored-evidence explanations served by
//! `/v1/pairs/<name>/explain` are **consistent with the served sameas
//! scores**, and the opened image they are read from answers **exactly
//! like the heap snapshot it was encoded from**, on randomized worlds.
//! Cases are drawn from a seeded in-workspace RNG, so every run checks
//! the same deterministic batch.
//!
//! For every aligned pair of every random world, in both of its forms —
//! the in-memory `AlignedPairSnapshot` and the zero-copy image opened
//! from the file it was saved to:
//!
//! 1. re-multiplying the explanation's evidence factors (in listed
//!    order) reproduces its `score` **bit-exactly** — the served
//!    evidence fully accounts for the served score;
//! 2. the explanation's `stored_prob` of the assigned pair is
//!    **bit-equal** to the probability `sameas` serves for it;
//! 3. heap ≡ mapped: every `best_match_from`, `equiv_prob`,
//!    `subrel_1in2` / `subrel_2in1`, `facts_page` and `kb_stats` answer
//!    of the opened image equals the heap snapshot's, every float bit,
//!    and hydrating the image re-encodes to the identical bytes.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use paris_repro::kb::{EntityId, Kb, KbBuilder, KbStats};
use paris_repro::paris::{
    explain_stored, AlignedPairSnapshot, Aligner, FactRow, MappedPairSnapshot, OwnedAlignment,
    PairImage, PairSide, ParisConfig,
};
use paris_repro::rdf::Literal;

const CASES: u64 = 10;

/// A compact random world: persons with e-mail-like unique literals,
/// shared low-functionality literals (cities), and entity-valued
/// relations, rendered into two namespaces with overlap — the same
/// generation style as `tests/invariants.rs`, tuned so alignments (and
/// therefore explanations) are non-trivial.
fn random_pair(rng: &mut StdRng) -> (Kb, Kb) {
    let num_people = rng.random_range(4usize..14);
    let num_cities = rng.random_range(1usize..4);
    let mut a = KbBuilder::new("left");
    let mut b = KbBuilder::new("right");
    for i in 0..num_people {
        let email = format!("p{i}@x.org");
        a.add_literal_fact(
            format!("http://a/p{i}"),
            "http://a/email",
            Literal::plain(email.clone()),
        );
        // The right KB drops some e-mails, so some pairs rest on weak
        // evidence only.
        if rng.random_range(0.0..1.0) < 0.8 {
            b.add_literal_fact(
                format!("http://b/q{i}"),
                "http://b/mail",
                Literal::plain(email),
            );
        }
        let city = rng.random_range(0usize..num_cities.max(1));
        a.add_literal_fact(
            format!("http://a/p{i}"),
            "http://a/city",
            Literal::plain(format!("City{city}")),
        );
        b.add_literal_fact(
            format!("http://b/q{i}"),
            "http://b/town",
            Literal::plain(format!("City{city}")),
        );
        // Entity-valued evidence: friendship edges to a random person.
        if num_people > 1 && rng.random_range(0.0..1.0) < 0.5 {
            let j = rng.random_range(0usize..num_people);
            a.add_fact(
                format!("http://a/p{i}"),
                "http://a/knows",
                format!("http://a/p{j}"),
            );
            b.add_fact(
                format!("http://b/q{i}"),
                "http://b/friendOf",
                format!("http://b/q{j}"),
            );
        }
    }
    (a.build(), b.build())
}

/// `/neighbors` rows as the heap KB would render them.
fn heap_facts(kb: &Kb, e: EntityId) -> Vec<FactRow> {
    kb.facts(e)
        .iter()
        .map(|&(r, y)| FactRow {
            relation: kb.relation_iri(r).as_str().to_owned(),
            inverse: r.is_inverse(),
            value: kb.term(y).to_string(),
            functionality: kb.functionality(r),
        })
        .collect()
}

/// Property (3): the opened image answers exactly like the heap snapshot.
fn assert_image_matches_heap(image: &PairImage, snap: &AlignedPairSnapshot, case: u64) {
    let bits = |m: Option<(EntityId, f64)>| m.map(|(e, p)| (e, p.to_bits()));
    for (side, kb) in [(PairSide::Kb1, &snap.kb1), (PairSide::Kb2, &snap.kb2)] {
        assert_eq!(image.kb_stats(side), KbStats::of(kb), "case {case}");
        for e in kb.entities() {
            let heap_best = match side {
                PairSide::Kb1 => snap.alignment.best_match(e),
                PairSide::Kb2 => snap.alignment.best_match_rev(e),
            };
            assert_eq!(
                bits(image.best_match_from(side, e)),
                bits(heap_best),
                "case {case}: {side:?} {e:?}"
            );
            let rows = heap_facts(kb, e);
            assert_eq!(
                image.facts_page(side, e, 0, usize::MAX),
                rows,
                "case {case}: {side:?} {e:?}"
            );
            assert_eq!(
                image.facts_page(side, e, 1, 2),
                rows.iter().skip(1).take(2).cloned().collect::<Vec<_>>(),
                "case {case}: {side:?} {e:?} paged"
            );
        }
    }
    for x in snap.kb1.entities() {
        for x2 in snap.kb2.entities() {
            assert_eq!(
                image.equiv_prob(x, x2).to_bits(),
                snap.alignment.instances.prob(x, x2).to_bits(),
                "case {case}: {x:?}/{x2:?}"
            );
        }
    }
    for r1 in snap.kb1.directed_relations() {
        for r2 in snap.kb2.directed_relations() {
            assert_eq!(
                image.subrel_1in2(r1, r2).to_bits(),
                snap.alignment.subrelations.prob_1in2(r1, r2).to_bits(),
                "case {case}: {r1:?} ⊆ {r2:?}"
            );
            assert_eq!(
                image.subrel_2in1(r2, r1).to_bits(),
                snap.alignment.subrelations.prob_2in1(r2, r1).to_bits(),
                "case {case}: {r2:?} ⊆ {r1:?}"
            );
        }
    }
}

#[test]
fn explain_recomputes_to_the_served_score_on_both_image_formats() {
    let dir = std::env::temp_dir().join(format!("paris_explain_prop_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = StdRng::seed_from_u64(0x9e3779b97f4a7c15);
    let mut explained = 0usize;

    for case in 0..CASES {
        let (kb1, kb2) = random_pair(&mut rng);
        let owned = {
            let result = Aligner::new(&kb1, &kb2, ParisConfig::default()).run();
            OwnedAlignment::from_result(&result)
        };
        let snap = AlignedPairSnapshot::new(kb1, kb2, owned);
        let path = dir.join(format!("case{case}.snap"));
        MappedPairSnapshot::save_v2(&snap, &path).unwrap();
        let image = PairImage::load(&path).unwrap();

        // (3) heap ≡ mapped, and the round trip is the identity on bytes.
        assert_image_matches_heap(&image, &snap, case);
        let encoded = MappedPairSnapshot::encode(&snap);
        let hydrated = MappedPairSnapshot::from_bytes(encoded.clone())
            .unwrap()
            .hydrate();
        assert_eq!(
            MappedPairSnapshot::encode(&hydrated),
            encoded,
            "case {case}"
        );

        // Every KB-1 instance, against its assigned match and one fixed
        // wrong candidate.
        let instances: Vec<_> = snap.kb1.instances().collect();
        let some_kb2_instance = snap.kb2.instances().next();
        for &x in &instances {
            let assigned = snap.alignment.best_match(x);
            let mut candidates: Vec<_> = assigned.map(|(e, _)| e).into_iter().collect();
            if let Some(other) =
                some_kb2_instance.filter(|&e| Some(e) != candidates.first().copied())
            {
                candidates.push(other);
            }
            for x2 in candidates {
                let ex = explain_stored(&image, x, x2);

                // (1) the served evidence folds back to the served score,
                // bit for bit.
                assert_eq!(
                    ex.score.to_bits(),
                    ex.recompute_score().to_bits(),
                    "case {case}: {x:?}/{x2:?}"
                );

                // (2) for the assigned pair, the explanation's stored
                // probability is exactly the sameas-served score.
                if Some(x2) == assigned.map(|(e, _)| e) {
                    let (_, served) = assigned.unwrap();
                    let from_image = image
                        .best_match_from(PairSide::Kb1, x)
                        .expect("assigned pair has a match");
                    assert_eq!(from_image.0, x2, "case {case}");
                    assert_eq!(from_image.1.to_bits(), served.to_bits(), "case {case}");
                    assert_eq!(
                        ex.stored_prob.to_bits(),
                        served.to_bits(),
                        "case {case}: explain stored_prob vs sameas score"
                    );
                    // An assigned pair backed by any shared evidence must
                    // not explain to zero.
                    if !ex.evidence.is_empty() {
                        assert!(ex.score > 0.0, "case {case}: {x:?}");
                    }
                    explained += 1;
                }
            }
        }
    }
    assert!(
        explained >= 20,
        "the random batch must exercise a meaningful number of assigned pairs, got {explained}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
