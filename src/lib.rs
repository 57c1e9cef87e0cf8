//! # PARIS — Probabilistic Alignment of Relations, Instances, and Schema
//!
//! A from-scratch Rust reproduction of *PARIS* (Suchanek, Abiteboul &
//! Senellart, PVLDB 5(3), 2011): a probabilistic, parameter-free algorithm
//! that aligns two RDFS ontologies holistically — instances, relations
//! (as sub-relations), and classes (as sub-classes) — by letting instance
//! and schema evidence cross-fertilize through a fixed-point iteration.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`rdf`] — RDF model and N-Triples parsing,
//! * [`kb`] — interned, indexed in-memory knowledge bases,
//! * [`literals`] — literal similarity functions (§5.3 of the paper),
//! * [`paris`] — the alignment algorithm itself (Eq. 4–17),
//! * [`datagen`] — synthetic dataset generators standing in for OAEI /
//!   yago / DBpedia / IMDb,
//! * [`eval`] — precision/recall/F evaluation and threshold curves,
//! * [`baselines`] — the `rdfs:label` exact-match baseline,
//! * [`server`] — the snapshot-backed alignment-serving HTTP daemon
//!   (versioned `/v1` query API: sameas, neighbors, batch, explain),
//! * [`replica`] — read-replica catalog sync (manifest diffing, validated
//!   streamed snapshot transfer) behind `paris serve --replica-of` and
//!   `paris sync`,
//! * [`client`] — the typed `/v1` client (`ParisClient`: ETag caching,
//!   multi-upstream failover) behind `paris query`, plus the shared
//!   HTTP/1.1 client and JSON implementation the rest of the serving
//!   stack builds on,
//! * [`obs`] — the std-only instrumentation kernel (lock-free counters,
//!   gauges, mergeable fixed-bucket latency histograms, Prometheus/JSON
//!   rendering, aligner trace sinks) behind `GET /v1/metrics`.
//!
//! # Quickstart
//!
//! ```
//! use paris_repro::kb::KbBuilder;
//! use paris_repro::paris::{Aligner, ParisConfig};
//! use paris_repro::rdf::Literal;
//!
//! // Two toy ontologies that share an e-mail address (a highly
//! // inverse-functional relation — the paper's canonical example).
//! let mut a = KbBuilder::new("left");
//! a.add_literal_fact("http://a/alice", "http://a/email", Literal::plain("alice@x.org"));
//! a.add_fact("http://a/alice", "http://a/livesIn", "http://a/paris");
//! a.add_literal_fact("http://a/paris", "http://a/label", Literal::plain("Paris"));
//!
//! let mut b = KbBuilder::new("right");
//! b.add_literal_fact("http://b/a-smith", "http://b/mail", Literal::plain("alice@x.org"));
//! b.add_fact("http://b/a-smith", "http://b/residence", "http://b/ville-paris");
//! b.add_literal_fact("http://b/ville-paris", "http://b/name", Literal::plain("Paris"));
//!
//! let (kb1, kb2) = (a.build(), b.build());
//! let result = Aligner::new(&kb1, &kb2, ParisConfig::default()).run();
//! let alice = result.instance_alignment_by_iri("http://a/alice").unwrap();
//! assert_eq!(alice.as_str(), "http://b/a-smith");
//! ```

#![forbid(unsafe_code)]

pub use paris_baselines as baselines;
pub use paris_client as client;
pub use paris_core as paris;
pub use paris_datagen as datagen;
pub use paris_eval as eval;
pub use paris_kb as kb;
pub use paris_literals as literals;
pub use paris_obs as obs;
pub use paris_rdf as rdf;
pub use paris_replica as replica;
pub use paris_server as server;
