//! Incremental re-alignment (`paris delta`) of a 2% delta on both sides
//! of a movies pair rescores no more instance rows than when this test
//! was written, and agrees with a from-scratch re-alignment on ≥ 99% of
//! assignments, agreeing scores within mean |Δ| ≤ 0.01 and p99 ≤ 0.05.

use std::collections::HashMap;

use paris_repro::datagen::{movies, MoviesConfig};
use paris_repro::kb::delta::{apply, apply_owned, KbDelta};
use paris_repro::kb::{EntityId, EntityKind, Kb};
use paris_repro::paris::{
    realign_incremental, Aligner, DirtySeeds, IncrementalOptions, OwnedAlignment, ParisConfig,
};
use paris_repro::rdf::Literal;

/// Rows rescored when this test was written: the 33 seeded ones, of 746.
const RESCORED_ROWS: usize = 33;

/// A delta touching about `fraction` of `kb`'s facts: a few brand-new
/// instances, then one literal attribute replaced per instance.
fn perturbation(kb: &Kb, fraction: f64, namespace: &str) -> KbDelta {
    let budget = ((kb.num_facts() as f64 * fraction) as usize).max(2);
    let mut delta = KbDelta::new(kb.name());
    let mut spent = 0usize;
    let mut fresh = 0usize;
    while spent + 1 < budget && fresh < budget / 5 {
        delta.add_literal_fact(
            format!("{namespace}fresh{fresh}"),
            format!("{namespace}label"),
            Literal::plain(format!("fresh entity {fresh} of {}", kb.name())),
        );
        fresh += 1;
        spent += 1;
    }

    // A contiguous run of instances: real deltas are concentrated (one
    // source revised), and ids follow generation order.
    let start = kb.instances().count() / 3;
    for (i, e) in kb.instances().enumerate().skip(start) {
        if spent + 2 > budget {
            break;
        }
        let Some(iri) = kb.iri(e) else { continue };
        let Some(&(r, y)) = kb
            .facts(e)
            .iter()
            .find(|&&(r, y)| !r.is_inverse() && kb.kind(y) == EntityKind::Literal)
        else {
            continue;
        };
        let lit = kb.literal(y).expect("literal kind");
        delta.remove_literal_fact(iri.clone(), kb.relation_iri(r).clone(), lit.clone());
        delta.add_literal_fact(
            iri.clone(),
            kb.relation_iri(r).clone(),
            Literal::plain(format!("updated value {i}")),
        );
        spent += 2;
    }
    delta
}

#[test]
fn incremental_rescoring_stays_local_and_matches_a_full_run() {
    let config = ParisConfig::default();
    let pair = movies::generate(&MoviesConfig {
        num_movies: 400,
        ..MoviesConfig::default()
    });
    let previous = {
        let result = Aligner::new(&pair.kb1, &pair.kb2, config.clone()).run();
        OwnedAlignment::from_result(&result)
    };
    let delta1 = perturbation(&pair.kb1, 0.02, "http://yagofilm.test/");
    let delta2 = perturbation(&pair.kb2, 0.02, "http://imdb.test/");

    let applied1 = apply(&pair.kb1, &delta1).expect("apply left delta");
    let applied2 = apply(&pair.kb2, &delta2).expect("apply right delta");
    let full = Aligner::new(&applied1.kb, &applied2.kb, config.clone()).run();
    let full_pairs: HashMap<EntityId, (EntityId, f64)> = full
        .instance_pairs()
        .iter()
        .map(|&(x, x2, p)| (x, (x2, p)))
        .collect();

    let a1 = apply_owned(pair.kb1, &delta1).expect("apply left delta");
    let a2 = apply_owned(pair.kb2, &delta2).expect("apply right delta");
    let run = realign_incremental(
        &a1.kb,
        &a2.kb,
        &previous,
        &DirtySeeds::from_applied(Some(&a1), Some(&a2)),
        &config,
        &IncrementalOptions::default(),
    );
    let report = &run.report;
    assert!(report.rescored_rows <= RESCORED_ROWS, "{report:?}");

    let mut diffs: Vec<f64> = run
        .result
        .instance_pairs()
        .iter()
        .filter_map(|&(x, x2, p)| match full_pairs.get(&x) {
            Some(&(fx2, fp)) if fx2 == x2 => Some((p - fp).abs()),
            _ => None,
        })
        .collect();
    let agreement = diffs.len() as f64 / full_pairs.len().max(1) as f64;
    diffs.sort_by(f64::total_cmp);
    let mean = diffs.iter().sum::<f64>() / diffs.len().max(1) as f64;
    let p99 = diffs
        .get(diffs.len().saturating_sub(diffs.len() / 100 + 1))
        .copied()
        .unwrap_or(0.0);
    assert!(agreement >= 0.99, "assignments agree on {agreement:.4}");
    // Both paths stop on assignment stability, not at an exact fixpoint,
    // so slow rows may differ by an iterate's drift; the bulk coincides.
    assert!(
        mean <= 0.01 && p99 <= 0.05,
        "agreeing scores drift: mean |Δ| {mean:.4}, p99 {p99:.4}"
    );
}
