//! Randomized invariants of the full pipeline on generated knowledge-base
//! pairs. Cases are drawn from a seeded in-workspace RNG, so every run
//! checks the same deterministic batch of random worlds.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use paris_repro::kb::{Kb, KbBuilder};
use paris_repro::paris::obs::series::RunSeries;
use paris_repro::paris::obs::span::{SpanCollector, SpanContext};
use paris_repro::paris::{Aligner, AlignmentResult, IterationStats, Observe, ParisConfig};
use paris_repro::rdf::Literal;

const CASES: u64 = 48;

/// A compact random-world model: entity ids, relation ids, and literal
/// values drawn from small pools whose sizes control ambiguity.
#[derive(Clone, Debug)]
struct RandomWorld {
    facts: Vec<(u8, u8, u8)>,
    literal_facts: Vec<(u8, u8, u8)>,
    types: Vec<(u8, u8)>,
}

fn random_world(rng: &mut StdRng) -> RandomWorld {
    let facts = (0..rng.random_range(0usize..60))
        .map(|_| {
            (
                rng.random_range(0u8..=255),
                rng.random_range(0u8..4),
                rng.random_range(0u8..=255),
            )
        })
        .collect();
    let literal_facts = (0..rng.random_range(0usize..60))
        .map(|_| {
            (
                rng.random_range(0u8..=255),
                rng.random_range(4u8..8),
                rng.random_range(0u8..30),
            )
        })
        .collect();
    let types = (0..rng.random_range(0usize..20))
        .map(|_| (rng.random_range(0u8..=255), rng.random_range(0u8..5)))
        .collect();
    RandomWorld {
        facts,
        literal_facts,
        types,
    }
}

/// Renders the world into one KB with a namespace — two renders of
/// overlapping worlds give an alignable pair.
fn render(world: &RandomWorld, ns: &str) -> Kb {
    let mut b = KbBuilder::new(ns);
    for &(s, r, o) in &world.facts {
        b.add_fact(
            format!("http://{ns}/e{}", s % 40),
            format!("http://{ns}/r{r}"),
            format!("http://{ns}/e{}", o % 40),
        );
    }
    for &(s, r, v) in &world.literal_facts {
        b.add_literal_fact(
            format!("http://{ns}/e{}", s % 40),
            format!("http://{ns}/r{r}"),
            Literal::plain(format!("value-{v}")), // shared across namespaces
        );
    }
    for &(e, c) in &world.types {
        b.add_type(
            format!("http://{ns}/e{}", e % 40),
            format!("http://{ns}/C{c}"),
        );
    }
    b.build()
}

/// Every probability the algorithm produces is in [0, 1].
#[test]
fn all_scores_are_probabilities() {
    let mut rng = StdRng::seed_from_u64(0xA11);
    for case in 0..CASES {
        let kb1 = render(&random_world(&mut rng), "left");
        let kb2 = render(&random_world(&mut rng), "right");
        let config = ParisConfig::default().with_max_iterations(3);
        let result = Aligner::new(&kb1, &kb2, config).run();

        for x in kb1.entities() {
            for &(_, p) in result.instances.candidates(x) {
                assert!((0.0..=1.0).contains(&p), "case {case}: instance prob {p}");
            }
        }
        for (_, _, p) in result.subrelations.alignments_1to2() {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&p),
                "case {case}: subrel prob {p}"
            );
        }
        for (_, _, p) in result.subrelations.alignments_2to1() {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&p),
                "case {case}: subrel prob {p}"
            );
        }
        for s in result
            .classes
            .one_to_two
            .iter()
            .chain(&result.classes.two_to_one)
        {
            assert!(
                (0.0..=1.0).contains(&s.prob),
                "case {case}: class prob {}",
                s.prob
            );
        }
    }
}

/// Functionalities are in (0, 1] for every variant.
#[test]
fn functionalities_in_unit_interval() {
    let mut rng = StdRng::seed_from_u64(0xF00);
    for case in 0..CASES {
        let kb = render(&random_world(&mut rng), "x");
        for variant in paris_repro::kb::FunctionalityVariant::ALL {
            for f in kb.functionalities_with(variant) {
                assert!(f > 0.0 && f <= 1.0, "case {case}: {variant:?}: {f}");
            }
        }
    }
}

/// Stored equivalences respect the truncation threshold.
#[test]
fn truncation_is_enforced() {
    let mut rng = StdRng::seed_from_u64(0x7A0);
    for case in 0..CASES {
        let kb1 = render(&random_world(&mut rng), "left");
        let kb2 = render(&random_world(&mut rng), "right");
        let config = ParisConfig::default()
            .with_truncation(0.3)
            .with_max_iterations(2);
        let cutoff = config
            .effective_cutoff(true)
            .min(config.effective_cutoff(false));
        let result = Aligner::new(&kb1, &kb2, config).run();
        for x in kb1.entities() {
            for &(_, p) in result.instances.candidates(x) {
                assert!(p >= cutoff, "case {case}: stored {p} below cutoff {cutoff}");
            }
        }
    }
}

/// The maximal assignment only contains entities of the right KBs and is
/// consistent with the stored candidates.
#[test]
fn maximal_assignment_is_consistent() {
    let mut rng = StdRng::seed_from_u64(0x3A3);
    for case in 0..CASES {
        let kb1 = render(&random_world(&mut rng), "left");
        let kb2 = render(&random_world(&mut rng), "right");
        let result = Aligner::new(&kb1, &kb2, ParisConfig::default().with_max_iterations(2)).run();
        let assignment = result.instances.maximal_assignment();
        assert_eq!(assignment.len(), kb1.num_entities());
        for (i, a) in assignment.iter().enumerate() {
            if let Some((e2, p)) = a {
                assert!(e2.index() < kb2.num_entities());
                let x = paris_repro::kb::EntityId::from_index(i);
                let best = result
                    .instances
                    .candidates(x)
                    .iter()
                    .map(|&(_, q)| q)
                    .fold(0.0f64, f64::max);
                assert!(
                    (best - p).abs() < 1e-12,
                    "case {case}: max {best} vs assigned {p}"
                );
            }
        }
    }
}

/// The identity alignment: a world aligned against itself (different
/// namespaces) maps shared-literal entities onto themselves — and never
/// crosses two entities with disjoint evidence.
#[test]
fn self_alignment_is_sane() {
    let mut rng = StdRng::seed_from_u64(0x5E1F);
    for case in 0..CASES {
        let w = random_world(&mut rng);
        let kb1 = render(&w, "left");
        let kb2 = render(&w, "right");
        let result = Aligner::new(&kb1, &kb2, ParisConfig::default().with_max_iterations(3)).run();
        for (x, x2, _) in result.instance_pairs() {
            let id1 = kb1.iri(x).unwrap().local_name().to_owned();
            // With identical worlds, literal evidence can never prefer a
            // different entity over the twin; ties break by id order, so a
            // mismatch is only legal if the twin has identical evidence
            // (duplicate literal profiles). Check the weaker invariant:
            // the matched pair shares at least one literal value, or is
            // reached through matched neighbours.
            let id2 = kb2.iri(x2).unwrap().local_name().to_owned();
            if id1 == id2 {
                continue;
            }
            let lits = |kb: &Kb, e| {
                kb.facts(e)
                    .iter()
                    .filter_map(|&(_, y)| kb.literal(y).map(|l| l.value().to_owned()))
                    .collect::<std::collections::BTreeSet<_>>()
            };
            let shared = lits(&kb1, x).intersection(&lits(&kb2, x2)).count();
            let has_instance_neighbor = kb1.facts(x).iter().any(|&(_, y)| kb1.literal(y).is_none());
            assert!(
                shared > 0 || has_instance_neighbor,
                "case {case}: {id1} ≠ {id2} matched without any shared evidence"
            );
        }
    }
}

/// Observing a run is a pure side channel: `run_with` with every
/// observer on gives bit-identical results to `run`.
#[test]
fn observed_run_is_bit_identical_to_run() {
    let mut rng = StdRng::seed_from_u64(0x0B5E);
    for case in 0..CASES {
        let kb1 = render(&random_world(&mut rng), "left");
        let kb2 = render(&random_world(&mut rng), "right");
        let aligner = Aligner::new(&kb1, &kb2, ParisConfig::default().with_max_iterations(4));
        let plain = aligner.run();
        let collector = SpanCollector::new(SpanContext::new_root());
        let series = RunSeries::new();
        let mut progress = |_: &IterationStats| {};
        let observed = aligner.run_with(&mut Observe {
            spans: Some((&collector, collector.root().span)),
            series: Some(&series),
            progress: Some(&mut progress),
        });

        assert_eq!(observed.iterations.len(), plain.iterations.len());
        assert_eq!(series.len(), plain.iterations.len(), "case {case}");
        for x in kb1.entities() {
            assert_eq!(
                bits(observed.instances.candidates(x)),
                bits(plain.instances.candidates(x)),
                "case {case}: instance row {x:?}"
            );
        }
        for r in kb1.directed_relations() {
            assert_eq!(
                bits(observed.subrelations.row_1to2(r)),
                bits(plain.subrelations.row_1to2(r)),
                "case {case}: relation row {r:?}"
            );
        }
        for r in kb2.directed_relations() {
            assert_eq!(
                bits(observed.subrelations.row_2to1(r)),
                bits(plain.subrelations.row_2to1(r)),
                "case {case}: relation row {r:?}"
            );
        }
        let classes = |r: &AlignmentResult<'_>| {
            let c = &r.classes;
            c.one_to_two
                .iter()
                .chain(&c.two_to_one)
                .map(|s| (s.sub, s.sup, s.prob.to_bits(), s.sampled_members))
                .collect::<Vec<_>>()
        };
        assert_eq!(classes(&observed), classes(&plain), "case {case}: classes");
    }
}

/// A score row with each probability replaced by its bit pattern.
fn bits<K: Copy>(row: &[(K, f64)]) -> Vec<(K, u64)> {
    row.iter().map(|&(k, p)| (k, p.to_bits())).collect()
}
