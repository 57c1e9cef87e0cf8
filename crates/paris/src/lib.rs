//! # The PARIS alignment algorithm
//!
//! A faithful implementation of *PARIS: Probabilistic Alignment of
//! Relations, Instances, and Schema* (Suchanek, Abiteboul & Senellart,
//! PVLDB 5(3), 2011) over the [`paris_kb`] substrate.
//!
//! PARIS aligns two RDFS ontologies **holistically**: instance
//! equivalences, sub-relation scores, and sub-class scores are all
//! estimated in one probabilistic model that lets schema and instance
//! evidence cross-fertilize. The key quantity is the (inverse)
//! *functionality* of a relation (Eq. 1–2): sharing the value of a highly
//! inverse-functional relation (an e-mail address) is strong evidence of
//! equality; sharing a low-functionality value (a home city) is weak
//! evidence.
//!
//! The module layout mirrors the paper:
//!
//! | module | paper | content |
//! |---|---|---|
//! | [`config`] | §5.4 | θ, literal similarity, design-alternative toggles |
//! | [`equiv`] | §5.2 | sparse `Pr(x ≡ x′)` storage, maximal assignment |
//! | [`literal_bridge`] | §5.3 | clamped literal equivalences |
//! | [`instance`] | §4.1–4.2 | Eq. 13 (and Eq. 14) instance pass |
//! | [`subrel`] | §4.2 | Eq. 12 sub-relation pass |
//! | [`subclass`] | §4.3 | Eq. 17 class pass |
//! | [`iteration`] | §5.1 | bootstrap, fixed point, convergence |
//! | [`owned`] | — | borrow-free results, heap aligned-pair snapshots |
//! | [`view`] | — | zero-copy v2 snapshots: codec, arena layouts and views |
//! | [`image`] | — | the side-addressed serving image over a v2 snapshot |
//! | [`incremental`] | — | warm-started re-alignment on KB deltas |
//! | [`quality`] | — | gold-standard-free quality summaries, drift sketches |
//!
//! See [`Aligner`] for the entry point of a full run and
//! [`incremental::update_snapshot`] for re-aligning after a
//! [`KbDelta`](paris_kb::delta::KbDelta).

#![forbid(unsafe_code)]

pub mod config;
pub mod equiv;
pub mod explain;
pub mod image;
pub mod incremental;
pub mod instance;
pub mod iteration;
pub mod literal_bridge;
pub mod owned;
pub mod quality;
pub mod subclass;
pub mod subrel;
pub mod view;

pub use config::ParisConfig;
pub use equiv::{CandidateView, EquivStore};
pub use explain::{explain_stored, Evidence, Explanation, StoredEvidence, StoredExplanation};
pub use image::{FactRow, PairImage, PairSide};
pub use incremental::{
    realign_incremental, update_snapshot, DirtySeeds, IncrementalOptions, IncrementalReport,
    IncrementalRun, UpdateReport,
};
pub use iteration::{Aligner, AlignmentResult, IterationStats, Observe};
pub use literal_bridge::LiteralBridge;
pub use owned::{AlignedPairSnapshot, OwnedAlignment};
pub use paris_obs as obs;
pub use quality::{AssignmentSketch, QualitySummary};
pub use subclass::{ClassAlignment, ClassScore};
pub use subrel::SubrelStore;
pub use view::{AlignmentLayout, AlignmentView, MappedPairSnapshot};
