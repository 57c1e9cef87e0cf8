//! The workloads. Each is one full trip through the pipeline on one
//! set of inputs; they differ in data shape, loader path, aligner
//! configuration, query mix and delta recipe so that each layer
//! dominates one trip and is minor in another. Sizes are fixed —
//! `--seed` only reseeds the generators.

use paris_core::ParisConfig;
use paris_datagen::{
    encyclopedia, movies, persons, restaurants, DatasetPair, EncyclopediaConfig, MoviesConfig,
    PersonsConfig, RestaurantsConfig,
};
use paris_literals::LiteralSimilarity;

#[derive(Clone, Copy, Debug)]
pub enum Generator {
    Encyclopedia { people: usize },
    Movies { movies: usize },
    Persons { matched: usize, extra: usize },
    Restaurants { matched: usize, extra: usize },
}

impl Generator {
    pub fn generate(self, seed: u64) -> DatasetPair {
        match self {
            Generator::Encyclopedia { people } => encyclopedia::generate(&EncyclopediaConfig {
                num_people: people,
                seed,
                ..Default::default()
            }),
            Generator::Movies { movies } => movies::generate(&MoviesConfig {
                num_movies: movies,
                seed,
                ..Default::default()
            }),
            Generator::Persons { matched, extra } => persons::generate(&PersonsConfig {
                num_persons: matched,
                extra_1: extra,
                extra_2: extra,
                seed,
            }),
            Generator::Restaurants { matched, extra } => {
                restaurants::generate(&RestaurantsConfig {
                    num_matched: matched,
                    extra_1: extra,
                    extra_2: extra,
                    seed,
                    ..Default::default()
                })
            }
        }
    }
}

/// How N-Triples become single-KB snapshots.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Loader {
    /// `ntriples::parse_file` + `KbBuilder` + `save_kb_v2`.
    Heap,
    /// Streaming `kb::ingest_file` under a memory budget small enough
    /// that the sorters spill.
    Spill { mem_budget: usize },
}

/// The aligner configuration of the trip.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Aligning {
    /// `ParisConfig::default()`.
    Default,
    /// Negative evidence (Eq. 14) and edit-distance literals (§6.3).
    Fuzzy,
}

impl Aligning {
    pub fn config(self) -> ParisConfig {
        match self {
            Aligning::Default => ParisConfig::default(),
            Aligning::Fuzzy => ParisConfig::default()
                .with_negative_evidence(true)
                .with_literal_similarity(LiteralSimilarity::EditDistance {
                    min_similarity: 0.8,
                }),
        }
    }
}

/// The query mix of the serve stage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mix {
    /// Point `sameas` GETs, uniform keys.
    Sameas,
    /// 60% `sameas`, 20% `neighbors?limit=20`, 15% batch of 64, 5% `explain`.
    Mixed,
    /// 50% `sameas` revalidations (`If-None-Match`, 304), 50% unknown
    /// IRIs (`not_found`).
    HitMiss,
}

/// How much one delta changes on each side it touches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// A share of the side's facts.
    Share(f64),
    /// A number of facts.
    Facts(usize),
}

#[derive(Clone, Copy, Debug)]
pub struct DeltaRecipe {
    /// K: deltas applied in sequence.
    pub count: usize,
    pub budget: Budget,
    /// Both sides, or KB 2 only.
    pub both_sides: bool,
    /// Share of the budget spent on brand-new entities.
    pub fresh_share: f64,
    /// Share of the budget spent on plain removals; the rest replaces
    /// literal attributes (one removal plus one addition each).
    pub drop_share: f64,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub generator: Generator,
    pub loader: Loader,
    pub aligning: Aligning,
    pub mix: Mix,
    pub deltas: DeltaRecipe,
    /// `check` fails the run when `instance_f1` falls below this.
    pub f1_floor: f64,
    /// `check` fails the run when, after the last delta, fewer than this
    /// share of a from-scratch run's assignments are served.
    pub agreement_floor: f64,
    /// Trips are repeated until their share of `--seconds` is used, at
    /// least [`MIN_REPS`] and at most this many times.
    pub max_reps: usize,
}

pub const MIN_REPS: usize = 3;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "enc8k-heap",
        why: "relational evidence, 9-10 iteration fixpoint: the aligner's instance pass is most of the trip, the heap loader little",
        generator: Generator::Encyclopedia { people: 8000 },
        loader: Loader::Heap,
        aligning: Aligning::Default,
        mix: Mix::Sameas,
        deltas: DeltaRecipe {
            count: 24,
            budget: Budget::Facts(20),
            both_sides: true,
            fresh_share: 0.2,
            drop_share: 0.0,
        },
        f1_floor: 0.93,
        // Warm-started rows of this long fixpoint settle on other iterates
        // than a cold run's: the system reaches 97-99% here on most seeds
        // and 91% on some.
        agreement_floor: 0.85,
        max_reps: 8,
    },
    Spec {
        name: "movies6k-spill",
        why: "same kb layer as an out-of-core writer (2 MiB budget, sorters spill), short literal-driven fixpoint, largest image, heaviest routes",
        generator: Generator::Movies { movies: 6400 },
        loader: Loader::Spill {
            mem_budget: 2 << 20,
        },
        aligning: Aligning::Default,
        mix: Mix::Mixed,
        deltas: DeltaRecipe {
            count: 10,
            budget: Budget::Share(0.02),
            both_sides: false,
            fresh_share: 0.1,
            drop_share: 0.6,
        },
        f1_floor: 0.90,
        agreement_floor: 0.99,
        max_reps: 8,
    },
    Spec {
        name: "persons2k-small",
        why: "OAEI-sized, everything in cache: per-run fixed costs (spawns, KB-sized allocations, checksums, reload) dominate",
        generator: Generator::Persons {
            matched: 2000,
            extra: 500,
        },
        loader: Loader::Heap,
        aligning: Aligning::Default,
        mix: Mix::Mixed,
        deltas: DeltaRecipe {
            count: 20,
            budget: Budget::Facts(10),
            both_sides: true,
            fresh_share: 0.2,
            drop_share: 0.0,
        },
        f1_floor: 0.97,
        agreement_floor: 0.99,
        max_reps: 40,
    },
    Spec {
        name: "rest2k-fuzzy",
        why: "negative evidence and edit-distance literals: Eq. 14 branch and a hot literals layer; serve trace is misses and 304 revalidations",
        generator: Generator::Restaurants {
            matched: 2000,
            extra: 667,
        },
        loader: Loader::Heap,
        aligning: Aligning::Fuzzy,
        mix: Mix::HitMiss,
        deltas: DeltaRecipe {
            count: 8,
            budget: Budget::Share(0.01),
            both_sides: true,
            fresh_share: 0.2,
            drop_share: 0.0,
        },
        f1_floor: 0.55,
        agreement_floor: 0.99,
        max_reps: 12,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// A 1/16-size trip for the tests: spill loader, mixed trace, both
/// kinds of delta.
#[cfg(test)]
pub const TEST_SPEC: Spec = Spec {
    name: "test-movies400",
    why: "test only",
    generator: Generator::Movies { movies: 400 },
    loader: Loader::Spill {
        mem_budget: 256 << 10,
    },
    aligning: Aligning::Default,
    mix: Mix::Mixed,
    deltas: DeltaRecipe {
        count: 2,
        budget: Budget::Share(0.02),
        both_sides: true,
        fresh_share: 0.2,
        drop_share: 0.3,
    },
    f1_floor: 0.85,
    agreement_floor: 0.99,
    max_reps: 3,
};
