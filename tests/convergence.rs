//! Fixed-point behaviour: iteration caps, convergence detection, and the
//! stability of the converged state.

use paris_repro::datagen::{persons, restaurants, PersonsConfig, RestaurantsConfig};
use paris_repro::paris::{Aligner, IterationStats, Observe, ParisConfig};

#[test]
fn max_iterations_is_respected() {
    let pair = persons::generate(&PersonsConfig {
        num_persons: 30,
        ..Default::default()
    });
    for cap in [1, 2, 3] {
        let config = ParisConfig {
            max_iterations: cap,
            convergence_change: 0.0,
            ..ParisConfig::default()
        };
        let result = Aligner::new(&pair.kb1, &pair.kb2, config).run();
        assert_eq!(result.iterations.len(), cap);
    }
}

#[test]
fn clean_data_converges_quickly() {
    // Paper: person converged after 2 iterations; allow a small margin for
    // the score-stability criterion.
    let pair = persons::generate(&PersonsConfig::default());
    let result = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
    assert!(result.converged(), "must converge before the cap");
    assert!(result.iterations.len() <= 4, "{}", result.iterations.len());
}

#[test]
fn converged_state_is_a_fixpoint() {
    // Running longer than convergence must not change the assignment.
    let pair = restaurants::generate(&RestaurantsConfig::default());
    let short = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
    let long = Aligner::new(
        &pair.kb1,
        &pair.kb2,
        ParisConfig {
            max_iterations: 8,
            convergence_change: 0.0,
            ..ParisConfig::default()
        },
    )
    .run();
    let a: Vec<_> = short
        .instances
        .maximal_assignment()
        .iter()
        .map(|x| x.map(|(e, _)| e))
        .collect();
    let b: Vec<_> = long
        .instances
        .maximal_assignment()
        .iter()
        .map(|x| x.map(|(e, _)| e))
        .collect();
    assert_eq!(a, b, "post-convergence iterations changed the assignment");
}

#[test]
fn change_fraction_decreases_broadly() {
    let pair = restaurants::generate(&RestaurantsConfig::default());
    let result = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
    let changes: Vec<f64> = result
        .iterations
        .iter()
        .map(|s| s.changed_fraction)
        .collect();
    assert!(changes.len() >= 2);
    assert!(
        changes.last().unwrap() < &0.02,
        "converged run ends with a small change fraction: {changes:?}"
    );
}

#[test]
fn iteration_stats_are_coherent() {
    let pair = persons::generate(&PersonsConfig {
        num_persons: 40,
        ..Default::default()
    });
    let result = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
    for s in &result.iterations {
        assert!(s.assigned_instances <= pair.kb1.num_instances());
        assert!(s.instance_equivalences >= s.assigned_instances);
        assert!(s.instance_seconds >= 0.0);
        assert!(s.changed_fraction >= 0.0);
    }
    assert!(result.literal_pairs > 0);
    // Progress callback sees the same stats the result records.
    let mut seen = Vec::new();
    let mut record = |s: &IterationStats| seen.push(s.iteration);
    let r2 = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run_with(&mut Observe {
        progress: Some(&mut record),
        ..Observe::default()
    });
    assert_eq!(seen.len(), r2.iterations.len());
}

#[test]
fn damping_preserves_result_quality() {
    // §5.1: dampening enforces convergence; it must not change the
    // converged answer on a well-behaved dataset.
    let pair = restaurants::generate(&RestaurantsConfig::default());
    let plain = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
    let damped = Aligner::new(
        &pair.kb1,
        &pair.kb2,
        ParisConfig::default().with_damping(0.5),
    )
    .run();
    let assignments = |r: &paris_repro::paris::AlignmentResult<'_>| {
        r.instances
            .maximal_assignment()
            .into_iter()
            .map(|a| a.map(|(e, _)| e))
            .collect::<Vec<_>>()
    };
    assert_eq!(assignments(&plain), assignments(&damped));

    let p = paris_repro::eval::evaluate_instances(&plain, &pair.gold);
    let d = paris_repro::eval::evaluate_instances(&damped, &pair.gold);
    assert_eq!(p, d);
}

#[test]
fn damping_zero_is_identity() {
    let pair = persons::generate(&PersonsConfig {
        num_persons: 25,
        ..Default::default()
    });
    let a = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
    let b = Aligner::new(
        &pair.kb1,
        &pair.kb2,
        ParisConfig::default().with_damping(0.0),
    )
    .run();
    assert_eq!(a.instances.num_pairs(), b.instances.num_pairs());
    assert_eq!(a.iterations.len(), b.iterations.len());
}

#[test]
fn a_run_stopped_by_the_cap_is_not_converged() {
    // `converged()` is the driver's recorded stop, not a re-derivation
    // from the last iteration's churn: a run the cap cuts short of the
    // score-stability test reports `false` even when its last iteration
    // moved almost no assignment.
    let pair = persons::generate(&PersonsConfig {
        num_persons: 500,
        extra_1: 125,
        extra_2: 125,
        seed: 1,
    });
    let full = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
    assert!(full.converged());
    let stop = full.iterations.len();
    for cap in 1..=stop {
        let config = ParisConfig::default().with_max_iterations(cap);
        let capped = Aligner::new(&pair.kb1, &pair.kb2, config).run();
        assert_eq!(capped.converged(), cap == stop, "cap {cap}, stop {stop}");
    }
}
