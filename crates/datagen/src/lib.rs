//! Synthetic dataset generators for the PARIS reproduction.
//!
//! The paper evaluates on the OAEI 2010 benchmark (person, restaurant) and
//! on yago / DBpedia / IMDb. None of those artifacts is redistributable or
//! still hosted in its 2011 form, so this crate generates *structural
//! equivalents* from seeded latent worlds: each generator documents which
//! properties of the original it preserves (overlap fraction, relation
//! functionality profile, literal noise, schema-design contrast) in its
//! module docs.
//!
//! All generators are deterministic given their config (seeded `StdRng`,
//! no iteration-order dependence), so experiments are exactly
//! reproducible.
//!
//! ```
//! use paris_datagen::persons::{generate, PersonsConfig};
//!
//! let pair = generate(&PersonsConfig { num_persons: 50, ..Default::default() });
//! assert_eq!(pair.gold.num_instances(), 100); // 50 people + 50 addresses
//! assert!(pair.gold_is_consistent());
//! ```

#![forbid(unsafe_code)]

pub mod encyclopedia;
pub mod gold;
pub mod movies;
pub mod names;
pub mod noise;
pub mod persons;
pub mod restaurants;

pub use encyclopedia::EncyclopediaConfig;
pub use gold::{DatasetPair, GoldStandard, RelationGold};
pub use movies::MoviesConfig;
pub use persons::PersonsConfig;
pub use restaurants::RestaurantsConfig;
