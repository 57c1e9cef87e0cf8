//! Determinism guarantees: identical runs produce identical alignments
//! and byte-identical images, thread count does not affect results, and
//! θ does not affect the final assignment (§6.3 experiment 1).

use paris_repro::datagen::{restaurants, RestaurantsConfig};
use paris_repro::kb::{EntityId, RelationId};
use paris_repro::literals::LiteralSimilarity;
use paris_repro::paris::{
    AlignedPairSnapshot, Aligner, AlignmentResult, MappedPairSnapshot, OwnedAlignment, ParisConfig,
};

fn assignments(result: &AlignmentResult<'_>) -> Vec<Option<(EntityId, f64)>> {
    result.instances.maximal_assignment()
}

#[test]
fn identical_runs_are_bit_identical() {
    let pair = restaurants::generate(&RestaurantsConfig::default());
    let run = |config: ParisConfig| Aligner::new(&pair.kb1, &pair.kb2, config).run();
    let a = run(ParisConfig::default());
    let b = run(ParisConfig::default());
    assert_eq!(assignments(&a), assignments(&b));
    assert_eq!(a.iterations.len(), b.iterations.len());
    assert_eq!(a.subrelations.num_entries(), b.subrelations.num_entries());

    // The encoded image is a function of the inputs alone.
    let image = |r: &AlignmentResult<'_>| {
        let owned = OwnedAlignment::from_result(r);
        MappedPairSnapshot::encode(&AlignedPairSnapshot::new(
            pair.kb1.clone(),
            pair.kb2.clone(),
            owned,
        ))
    };
    assert!(image(&a) == image(&b), "run vs run: images differ");
    let threads = |n| image(&run(ParisConfig::default().with_threads(n)));
    assert!(threads(1) == threads(4), "1 vs 4 threads: images differ");
}

/// Every instance row and both sub-relation directions, scores as bits.
type ResultBits = (
    Vec<Vec<(EntityId, u64)>>,
    Vec<(RelationId, RelationId, u64)>,
    Vec<(RelationId, RelationId, u64)>,
);

fn result_bits(result: &AlignmentResult<'_>) -> ResultBits {
    let rows = result
        .instances
        .to_rows()
        .iter()
        .map(|row| row.iter().map(|&(e, p)| (e, p.to_bits())).collect())
        .collect();
    let bits = |(a, b, p): (RelationId, RelationId, f64)| (a, b, p.to_bits());
    (
        rows,
        result.subrelations.alignments_1to2().map(bits).collect(),
        result.subrelations.alignments_2to1().map(bits).collect(),
    )
}

#[test]
fn thread_count_does_not_change_results() {
    let pair = restaurants::generate(&RestaurantsConfig::default());
    // The default (Eq. 13, identity literals) and the fuzzy configuration
    // of §6.3 experiment 3 (Eq. 14 branch, edit-distance literal bridge).
    let fuzzy = ParisConfig::default()
        .with_negative_evidence(true)
        .with_literal_similarity(LiteralSimilarity::EditDistance {
            min_similarity: 0.8,
        });
    for config in [ParisConfig::default(), fuzzy] {
        let seq = Aligner::new(&pair.kb1, &pair.kb2, config.clone().with_threads(1)).run();
        let par = Aligner::new(&pair.kb1, &pair.kb2, config.clone().with_threads(4)).run();
        assert_eq!(assignments(&seq), assignments(&par), "{config:?}");
        assert!(result_bits(&seq) == result_bits(&par), "{config:?}");
    }
}

#[test]
fn theta_does_not_change_final_assignment() {
    // §6.3 experiment 1, as a regression test on a smaller dataset.
    let pair = restaurants::generate(&RestaurantsConfig {
        num_matched: 60,
        ..RestaurantsConfig::default()
    });
    let reference: Vec<Option<EntityId>> = {
        let r = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
        assignments(&r)
            .into_iter()
            .map(|a| a.map(|(e, _)| e))
            .collect()
    };
    for theta in [0.001, 0.01, 0.05, 0.2] {
        let r = Aligner::new(
            &pair.kb1,
            &pair.kb2,
            ParisConfig::default().with_theta(theta),
        )
        .run();
        let got: Vec<Option<EntityId>> = assignments(&r)
            .into_iter()
            .map(|a| a.map(|(e, _)| e))
            .collect();
        assert_eq!(reference, got, "θ = {theta} changed the assignment");
    }
}

#[test]
fn different_seeds_produce_different_data_same_quality() {
    let a = restaurants::generate(&RestaurantsConfig {
        seed: 1,
        ..Default::default()
    });
    let b = restaurants::generate(&RestaurantsConfig {
        seed: 2,
        ..Default::default()
    });
    // The structural sizes are seed-independent; the literal content is not.
    assert_ne!(
        paris_repro::kb::export::to_ntriples(&a.kb1),
        paris_repro::kb::export::to_ntriples(&b.kb1)
    );

    for pair in [&a, &b] {
        let result = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
        let counts = paris_repro::eval::evaluate_instances(&result, &pair.gold);
        assert!(counts.f1() > 0.8, "seed robustness: {counts:?}");
    }
}
