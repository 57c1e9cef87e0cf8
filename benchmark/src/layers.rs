//! Layer probes of the traced run: timed calls into one crate's public
//! functions, each under a span of the benchmark's recorder. A layer is
//! a crate; metric names carry the crate's name.

use std::fs::File;
use std::hint::black_box;
use std::path::PathBuf;

use paris_core::{
    explain_stored, AlignedPairSnapshot, Aligner, LiteralBridge, MappedPairSnapshot, PairImage,
    PairSide, ParisConfig,
};
use paris_datagen::GoldStandard;
use paris_eval::{
    evaluate_classes_1to2, evaluate_classes_2to1, evaluate_instances, evaluate_relations,
};
use paris_kb::functionality::{compute_functionalities, FunctionalityVariant};
use paris_kb::{EntityId, Kb, KbView};
use paris_literals::LiteralSimilarity;
use paris_rdf::ntriples::{parse_chunked, ChunkOptions};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::results::WorkloadResult;
use crate::serve::{class_plan, closed_loop, oneshot, Class, Daemon, CLIENTS};
use crate::stats::Summary;
use crate::trace::Recorder;
use crate::trip::sameas_lookup;

const KB_LOOKUPS: usize = 1_000_000;
const PAIR_LOOKUPS: usize = 200_000;
const LITERAL_SAMPLES: usize = 100_000;
const EXPLAINS: usize = 2_000;
const ROUTE_ROUNDS: usize = 8;
const ROUTE_ROUND_SECONDS: f64 = 0.1;
/// Fixed, to stay clear of ephemeral-port exhaustion.
const ONESHOTS: usize = 1_000;
/// Class inclusions are judged at this score, as in the paper's Figure 1.
const CLASS_THRESHOLD: f64 = 0.4;

fn exact(out: &mut WorkloadResult, name: &str, value: f64) {
    out.set(name, Summary::exact(value));
}

/// `rdf`: `parse_chunked` alone over both files (what the streaming
/// loader pays for parsing). Returns seconds.
pub fn parse_standalone(nt: &[PathBuf; 2], rec: &mut Recorder) -> Result<f64, String> {
    let opts = ChunkOptions {
        threads: 2,
        ..ChunkOptions::default()
    };
    let mut seconds = 0.0;
    for path in nt {
        let file = File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
        let (stats, s) = rec.time("rdf.parse", || {
            parse_chunked(file, &opts, |batch| {
                black_box(batch);
                Ok(())
            })
        });
        stats.map_err(|e| format!("parsing {}: {e}", path.display()))?;
        seconds += s;
    }
    Ok(seconds)
}

/// `kb`: functionality re-computation and mapped-view lookups.
pub fn kb_probes(
    kbs: [&Kb; 2],
    view: KbView<'_>,
    keys: &[String],
    seed: u64,
    rec: &mut Recorder,
    out: &mut WorkloadResult,
) {
    let ((), s) = rec.time("kb.functionality", || {
        for kb in kbs {
            black_box(compute_functionalities(
                kb,
                FunctionalityVariant::HarmonicMean,
            ));
        }
    });
    exact(out, "kb.functionality_s", s);

    let mut rng = StdRng::seed_from_u64(seed);
    let picks: Vec<&str> = (0..KB_LOOKUPS)
        .map(|_| keys[rng.random_range(0..keys.len())].as_str())
        .collect();
    let ((), s) = rec.time("kb.lookup", || {
        for iri in &picks {
            let e = view.entity_by_iri(iri).expect("trace keys exist in KB 1");
            black_box(view.facts(e).len());
        }
    });
    exact(out, "kb.lookup_ns", s * 1e9 / KB_LOOKUPS as f64);
}

/// `literals` and the bridge built on it.
pub fn literal_probes(
    kb1: &Kb,
    kb2: &Kb,
    sim: &LiteralSimilarity,
    seed: u64,
    rec: &mut Recorder,
    out: &mut WorkloadResult,
) {
    let (bridge, s) = rec.time("paris.bridge", || LiteralBridge::build(kb1, kb2, sim));
    exact(out, "paris.bridge_s", s);

    // Half the sample are pairs the bridge matched, half are random.
    let (lits1, lits2): (Vec<EntityId>, Vec<EntityId>) =
        (kb1.literals().collect(), kb2.literals().collect());
    if lits1.is_empty() || lits2.is_empty() {
        exact(out, "literals.probability_ns", 0.0);
        exact(out, "literals.keys_ns", 0.0);
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs: Vec<_> = (0..LITERAL_SAMPLES)
        .map(|i| {
            let l1 = lits1[rng.random_range(0..lits1.len())];
            let l2 = match bridge.candidates(l1).first() {
                Some(&(l2, _)) if i % 2 == 0 => l2,
                _ => lits2[rng.random_range(0..lits2.len())],
            };
            (
                kb1.literal(l1).expect("a literal id"),
                kb2.literal(l2).expect("a literal id"),
            )
        })
        .collect();
    let ((), s) = rec.time("literals.probability", || {
        for (a, b) in &pairs {
            black_box(sim.probability(a, b));
        }
    });
    exact(out, "literals.probability_ns", s * 1e9 / pairs.len() as f64);
    let ((), s) = rec.time("literals.keys", || {
        for (a, _) in &pairs {
            black_box(sim.keys(a));
        }
    });
    exact(out, "literals.keys_ns", s * 1e9 / pairs.len() as f64);
}

/// `paris` with one thread, and `eval` on its result. `align_s` is the
/// default-threads `Aligner::run` of the traced trip.
pub fn aligner_probes(
    kb1: &Kb,
    kb2: &Kb,
    config: &ParisConfig,
    gold: &GoldStandard,
    align_s: f64,
    rec: &mut Recorder,
    out: &mut WorkloadResult,
) {
    let (result, t1) = rec.time("paris.align_t1", || {
        Aligner::new(kb1, kb2, config.clone().with_threads(1)).run()
    });
    exact(out, "paris.align_t1_s", t1);
    exact(out, "paris.thread_speedup", t1 / align_s);

    let eval = rec.begin("eval");
    let instances = evaluate_instances(&result, gold);
    let (r12, r21) = evaluate_relations(&result, gold);
    let classes = evaluate_classes_1to2(&result, gold, CLASS_THRESHOLD)
        .merged(&evaluate_classes_2to1(&result, gold, CLASS_THRESHOLD));
    rec.end(eval);
    exact(out, "eval.precision", instances.precision());
    exact(out, "eval.recall", instances.recall());
    exact(out, "eval.relation_f1", r12.counts.merged(&r21.counts).f1());
    exact(out, "eval.class_f1", classes.f1());
}

/// `paris`: encode, and lookups / explanations on the mapped image.
/// Returns the encode seconds.
pub fn image_probes(
    image: &PairImage,
    snapshot: &AlignedPairSnapshot,
    keys: &[String],
    seed: u64,
    rec: &mut Recorder,
    out: &mut WorkloadResult,
) -> f64 {
    let (bytes, encode_s) = rec.time("paris.encode", || MappedPairSnapshot::encode(snapshot));
    black_box(bytes);
    exact(out, "paris.encode_s", encode_s);

    let mut rng = StdRng::seed_from_u64(seed);
    let picks: Vec<&str> = (0..PAIR_LOOKUPS)
        .map(|_| keys[rng.random_range(0..keys.len())].as_str())
        .collect();
    let ((), s) = rec.time("paris.lookup", || {
        for iri in &picks {
            black_box(sameas_lookup(image, iri));
        }
    });
    exact(out, "paris.lookup_ns", s * 1e9 / PAIR_LOOKUPS as f64);

    let assigned: Vec<(EntityId, EntityId)> = picks
        .iter()
        .filter_map(|iri| {
            let x = image.entity_by_iri(PairSide::Kb1, iri)?;
            Some((x, image.best_match_from(PairSide::Kb1, x)?.0))
        })
        .take(EXPLAINS)
        .collect();
    let ((), s) = rec.time("paris.explain", || {
        for &(x, x2) in &assigned {
            black_box(explain_stored(image, x, x2));
        }
    });
    exact(
        out,
        "paris.explain_us",
        s * 1e6 / assigned.len().max(1) as f64,
    );
    encode_s
}

/// `server`: client-observed median latency of every route class —
/// under the serve stage's load shape (one connection per client thread,
/// best of a few short rounds), so the readings add up to `query_p50_us`
/// by trace weight — and of connection-per-request GETs.
pub fn route_probes(
    daemon: &Daemon,
    image: &PairImage,
    keys: &[String],
    seed: u64,
    rec: &mut Recorder,
    out: &mut WorkloadResult,
) -> Result<(), String> {
    let span = rec.begin("server.routes");
    for class in Class::ALL {
        let mut plans: Vec<_> = (0..CLIENTS as u64)
            .map(|c| class_plan(class, &daemon.pair, image, keys, seed + c, 512))
            .collect();
        let (rounds, tally) = closed_loop(daemon, &mut plans, ROUTE_ROUNDS, ROUTE_ROUND_SECONDS)?;
        out.ops_attempted += tally.attempted;
        out.ops_failed += tally.failed;
        let p50 = rounds
            .iter()
            .map(|r| r.p50_us)
            .fold(f64::INFINITY, f64::min);
        exact(out, class.metric(), p50);
    }
    let plan = class_plan(Class::Sameas, &daemon.pair, image, keys, seed, 512);
    let tally = oneshot(daemon, &plan, ONESHOTS);
    out.ops_attempted += tally.attempted;
    out.ops_failed += tally.failed;
    exact(
        out,
        "server.oneshot_p50_us",
        tally.p50_us().ok_or("no one-shot request succeeded")?,
    );
    rec.end(span);
    Ok(())
}
