//! Zero-copy aligned-pair snapshots (format v2) and their views.
//!
//! [`MappedPairSnapshot`] opens a v2 file via [`paris_kb::snapshot_v2`]
//! — section table validated once, body never decoded — and serves
//! queries through borrowing views: [`KbView`] for the two KBs (defined
//! in `paris-kb`) and [`AlignmentView`] for the alignment tables
//! (defined here, since only this crate knows their semantics). It is
//! also the codec of the heap [`AlignedPairSnapshot`]:
//! [`encode`](MappedPairSnapshot::encode) /
//! [`save_v2`](MappedPairSnapshot::save_v2) write one,
//! [`hydrate`](MappedPairSnapshot::hydrate) rebuilds it.
//!
//! The alignment occupies the section ids `ALIGN_BASE + k`:
//!
//! | id | content |
//! |---|---|
//! | META | `n1 n2 d1 d2 literal_pairs converged` + iteration stats |
//! | EQ_OFFSETS / EQ_TARGETS / EQ_PROBS | per-KB-1-entity candidate rows |
//! | REV_* | the same rows indexed from the KB-2 side |
//! | SUB12_* / SUB21_* | sub-relation score rows, both directions |
//! | CLS12 / CLS21 | class scores: `(u32 sub, u32 sup, f64 p, u64 n)` |
//!
//! Candidate rows are parallel arrays (`u32` targets + `f64` probs) so
//! every section stays fixed-width and 8-aligned. The *backward*
//! equivalence index is stored, not derived — `sameas` from the
//! right-hand side must not force an O(pairs) rebuild at open.
//!
//! [`AlignmentView::best_match`] and [`OwnedAlignment::best_match`] feed
//! the same row, in the same order, to the one tie rule [`argmax`] in
//! `equiv.rs`, which is what makes an opened image's answers
//! bit-identical to the heap snapshot it was encoded from.

use std::ops::Range;
use std::path::Path;

use paris_kb::snapshot::{PayloadReader, PayloadWriter, SnapshotError, SnapshotKind};
use paris_kb::snapshot_v2::{
    check_ids, check_offsets, encode_kb_sections, expect_len, le_f64, le_u32, le_u64, KbLayout,
    SectionWriter, ALIGN_BASE, KB1_BASE, KB2_BASE,
};
use paris_kb::{EntityId, EntityKind, KbView, RelationId, SnapshotArena};

use crate::equiv::{argmax, EquivStore};
use crate::iteration::IterationStats;
use crate::owned::{AlignedPairSnapshot, OwnedAlignment};
use crate::subclass::{ClassAlignment, ClassScore};
use crate::subrel::SubrelStore;

const A_META: u32 = 0;
const A_EQ_OFFSETS: u32 = 1;
const A_EQ_TARGETS: u32 = 2;
const A_EQ_PROBS: u32 = 3;
const A_REV_OFFSETS: u32 = 4;
const A_REV_TARGETS: u32 = 5;
const A_REV_PROBS: u32 = 6;
const A_SUB12_OFFSETS: u32 = 7;
const A_SUB12_TARGETS: u32 = 8;
const A_SUB12_PROBS: u32 = 9;
const A_SUB21_OFFSETS: u32 = 10;
const A_SUB21_TARGETS: u32 = 11;
const A_SUB21_PROBS: u32 = 12;
const A_CLS12: u32 = 13;
const A_CLS21: u32 = 14;

/// Bytes of one class-score record.
const CLS_RECORD: usize = 24;

// ----------------------------------------------------------------------
// Encoding
// ----------------------------------------------------------------------

fn encode_candidate_rows<'r>(
    w: &mut SectionWriter,
    ids: (u32, u32, u32),
    rows: impl Iterator<Item = &'r [(EntityId, f64)]>,
) {
    let (offsets_id, targets_id, probs_id) = ids;
    let mut offsets = PayloadWriter::new();
    let mut targets = PayloadWriter::new();
    let mut probs = PayloadWriter::new();
    let mut total = 0u64;
    offsets.put_u64(0);
    for row in rows {
        total += row.len() as u64;
        offsets.put_u64(total);
        for &(e, p) in row {
            targets.put_u32(e.0);
            probs.put_f64(p);
        }
    }
    w.add(offsets_id, offsets.bytes());
    w.add(targets_id, targets.bytes());
    w.add(probs_id, probs.bytes());
}

fn encode_subrel_rows<'r>(
    w: &mut SectionWriter,
    ids: (u32, u32, u32),
    rows: impl Iterator<Item = &'r [(RelationId, f64)]>,
) {
    let (offsets_id, targets_id, probs_id) = ids;
    let mut offsets = PayloadWriter::new();
    let mut targets = PayloadWriter::new();
    let mut probs = PayloadWriter::new();
    let mut total = 0u64;
    offsets.put_u64(0);
    for row in rows {
        total += row.len() as u64;
        offsets.put_u64(total);
        for &(r, p) in row {
            targets.put_u32(r.0);
            probs.put_f64(p);
        }
    }
    w.add(offsets_id, offsets.bytes());
    w.add(targets_id, targets.bytes());
    w.add(probs_id, probs.bytes());
}

fn encode_class_scores(w: &mut SectionWriter, id: u32, scores: &[ClassScore]) {
    let mut out = PayloadWriter::new();
    for s in scores {
        out.put_u32(s.sub.0);
        out.put_u32(s.sup.0);
        out.put_f64(s.prob);
        out.put_u64(s.sampled_members as u64);
    }
    w.add(id, out.bytes());
}

/// Appends the alignment section set of an [`OwnedAlignment`].
fn encode_alignment_sections(a: &OwnedAlignment, w: &mut SectionWriter) {
    let n1 = a.instances.len_kb1();
    let n2 = a.instances.len_kb2();

    let mut meta = PayloadWriter::new();
    meta.put_u64(n1 as u64);
    meta.put_u64(n2 as u64);
    meta.put_u64(a.kb1_directed_relations as u64);
    meta.put_u64(a.kb2_directed_relations as u64);
    meta.put_u64(a.literal_pairs as u64);
    meta.put_u8(u8::from(a.converged));
    meta.put_u64(a.iterations.len() as u64);
    for s in &a.iterations {
        meta.put_u64(s.iteration as u64);
        meta.put_u64(s.changed as u64);
        meta.put_f64(s.changed_fraction);
        meta.put_u64(s.instance_equivalences as u64);
        meta.put_u64(s.assigned_instances as u64);
        meta.put_u64(s.subrelation_entries as u64);
        // The per-pass timings are wall-clock, the only run-dependent
        // values an image would hold; writing 0.0 keeps the layout and
        // makes an image a function of its inputs alone.
        meta.put_f64(0.0);
        meta.put_f64(0.0);
    }
    w.add(ALIGN_BASE + A_META, meta.bytes());

    encode_candidate_rows(
        w,
        (
            ALIGN_BASE + A_EQ_OFFSETS,
            ALIGN_BASE + A_EQ_TARGETS,
            ALIGN_BASE + A_EQ_PROBS,
        ),
        (0..n1).map(|i| a.instances.candidates(EntityId::from_index(i))),
    );
    encode_candidate_rows(
        w,
        (
            ALIGN_BASE + A_REV_OFFSETS,
            ALIGN_BASE + A_REV_TARGETS,
            ALIGN_BASE + A_REV_PROBS,
        ),
        (0..n2).map(|i| a.instances.candidates_rev(EntityId::from_index(i))),
    );
    encode_subrel_rows(
        w,
        (
            ALIGN_BASE + A_SUB12_OFFSETS,
            ALIGN_BASE + A_SUB12_TARGETS,
            ALIGN_BASE + A_SUB12_PROBS,
        ),
        (0..a.kb1_directed_relations)
            .map(|i| a.subrelations.row_1to2(RelationId::from_directed_index(i))),
    );
    encode_subrel_rows(
        w,
        (
            ALIGN_BASE + A_SUB21_OFFSETS,
            ALIGN_BASE + A_SUB21_TARGETS,
            ALIGN_BASE + A_SUB21_PROBS,
        ),
        (0..a.kb2_directed_relations)
            .map(|i| a.subrelations.row_2to1(RelationId::from_directed_index(i))),
    );
    encode_class_scores(w, ALIGN_BASE + A_CLS12, &a.classes.one_to_two);
    encode_class_scores(w, ALIGN_BASE + A_CLS21, &a.classes.two_to_one);
}

// ----------------------------------------------------------------------
// Layout validation + view
// ----------------------------------------------------------------------

#[derive(Clone, Debug)]
struct RowsLayout {
    offsets: Range<usize>,
    targets: Range<usize>,
    probs: Range<usize>,
}

impl RowsLayout {
    /// Validates one offsets/targets/probs triple: `count` rows, targets
    /// all `< bound`, probs parallel to targets.
    fn validate(
        snap: &SnapshotArena,
        ids: (u32, u32, u32),
        count: usize,
        bound: u32,
        what: &str,
    ) -> Result<RowsLayout, SnapshotError> {
        let buf = snap.bytes();
        let offsets = snap.required(ids.0, &format!("{what} offsets"))?;
        let targets = snap.required(ids.1, &format!("{what} targets"))?;
        let probs = snap.required(ids.2, &format!("{what} probs"))?;
        if targets.len() % 4 != 0 {
            return Err(SnapshotError::corrupt(format!(
                "section {what} targets is not a u32 array"
            )));
        }
        let entries = targets.len() / 4;
        check_offsets(
            &buf[offsets.clone()],
            count,
            entries as u64,
            &format!("{what} offsets"),
        )?;
        check_ids(
            &buf[targets.clone()],
            bound.max(1),
            &format!("{what} targets"),
        )?;
        if bound == 0 && entries > 0 {
            return Err(SnapshotError::corrupt(format!(
                "section {what} has entries but no targets exist"
            )));
        }
        expect_len(&buf[probs.clone()], 8 * entries, &format!("{what} probs"))?;
        Ok(RowsLayout {
            offsets,
            targets,
            probs,
        })
    }

    fn row_bounds(&self, buf: &[u8], i: usize) -> (usize, usize) {
        let offsets = &buf[self.offsets.clone()];
        (le_u64(offsets, i) as usize, le_u64(offsets, i + 1) as usize)
    }
}

/// Validated section ranges of the alignment tables, plus the decoded
/// META values (tiny: counts and per-iteration statistics).
#[derive(Clone, Debug)]
pub struct AlignmentLayout {
    n1: usize,
    n2: usize,
    literal_pairs: usize,
    converged: bool,
    iterations: Vec<IterationStats>,
    eq: RowsLayout,
    rev: RowsLayout,
    sub12: RowsLayout,
    sub21: RowsLayout,
    cls12: Range<usize>,
    cls21: Range<usize>,
    kb1_directed: usize,
    kb2_directed: usize,
}

impl AlignmentLayout {
    /// Validates the alignment sections against the two KB layouts.
    pub fn validate(
        snap: &SnapshotArena,
        kb1: &KbLayout,
        kb2: &KbLayout,
    ) -> Result<AlignmentLayout, SnapshotError> {
        let buf = snap.bytes();
        let meta_range = snap.required(ALIGN_BASE + A_META, "alignment meta")?;
        let mut meta = PayloadReader::new(&buf[meta_range]);
        let n1 = meta.get_u64()? as usize;
        let n2 = meta.get_u64()? as usize;
        let d1 = meta.get_u64()? as usize;
        let d2 = meta.get_u64()? as usize;
        let literal_pairs = meta.get_u64()? as usize;
        let converged = meta.get_u8()? != 0;
        // get_len bounds the count by the remaining meta bytes, so the
        // allocation below cannot balloon on a corrupt count (each
        // iteration record is 64 > 1 bytes).
        let num_iterations = meta.get_len()?;
        let mut iterations = Vec::with_capacity(num_iterations);
        for _ in 0..num_iterations {
            iterations.push(IterationStats {
                iteration: meta.get_u64()? as usize,
                changed: meta.get_u64()? as usize,
                changed_fraction: meta.get_f64()?,
                instance_equivalences: meta.get_u64()? as usize,
                assigned_instances: meta.get_u64()? as usize,
                subrelation_entries: meta.get_u64()? as usize,
                instance_seconds: meta.get_f64()?,
                subrelation_seconds: meta.get_f64()?,
            });
        }
        if !meta.is_exhausted() {
            return Err(SnapshotError::corrupt("trailing bytes in alignment meta"));
        }

        let (kb1_entities, kb2_entities) = (kb1.num_entities(), kb2.num_entities());
        if n1 != kb1_entities || n2 != kb2_entities {
            return Err(SnapshotError::corrupt(format!(
                "alignment covers {n1}×{n2} entities but KBs have {kb1_entities}×{kb2_entities}"
            )));
        }
        let (kb1_directed, kb2_directed) = (2 * kb1.num_relations(), 2 * kb2.num_relations());
        if d1 != kb1_directed || d2 != kb2_directed {
            return Err(SnapshotError::corrupt(format!(
                "sub-relation tables sized {d1}×{d2}, KBs have {kb1_directed}×{kb2_directed} directed relations"
            )));
        }

        let eq = RowsLayout::validate(
            snap,
            (
                ALIGN_BASE + A_EQ_OFFSETS,
                ALIGN_BASE + A_EQ_TARGETS,
                ALIGN_BASE + A_EQ_PROBS,
            ),
            n1,
            n2 as u32,
            "equivalences",
        )?;
        let rev = RowsLayout::validate(
            snap,
            (
                ALIGN_BASE + A_REV_OFFSETS,
                ALIGN_BASE + A_REV_TARGETS,
                ALIGN_BASE + A_REV_PROBS,
            ),
            n2,
            n1 as u32,
            "reverse equivalences",
        )?;
        if eq.targets.len() != rev.targets.len() {
            return Err(SnapshotError::corrupt(
                "forward and reverse equivalence tables disagree in size",
            ));
        }
        let sub12 = RowsLayout::validate(
            snap,
            (
                ALIGN_BASE + A_SUB12_OFFSETS,
                ALIGN_BASE + A_SUB12_TARGETS,
                ALIGN_BASE + A_SUB12_PROBS,
            ),
            d1,
            d2 as u32,
            "sub-relations 1→2",
        )?;
        let sub21 = RowsLayout::validate(
            snap,
            (
                ALIGN_BASE + A_SUB21_OFFSETS,
                ALIGN_BASE + A_SUB21_TARGETS,
                ALIGN_BASE + A_SUB21_PROBS,
            ),
            d2,
            d1 as u32,
            "sub-relations 2→1",
        )?;

        let cls12 = snap.required(ALIGN_BASE + A_CLS12, "class scores 1→2")?;
        let cls21 = snap.required(ALIGN_BASE + A_CLS21, "class scores 2→1")?;
        for (range, sub_bound, sup_bound, what) in [
            (&cls12, n1, n2, "class scores 1→2"),
            (&cls21, n2, n1, "class scores 2→1"),
        ] {
            let sec = &buf[range.start..range.end];
            if sec.len() % CLS_RECORD != 0 {
                return Err(SnapshotError::corrupt(format!(
                    "section {what} is not a class-score array"
                )));
            }
            for i in 0..sec.len() / CLS_RECORD {
                let rec = &sec[i * CLS_RECORD..];
                let sub = le_u32(rec, 0) as usize;
                let sup = le_u32(rec, 1) as usize;
                if sub >= sub_bound || sup >= sup_bound {
                    return Err(SnapshotError::corrupt(format!(
                        "section {what}: class ids ({sub}, {sup}) out of range"
                    )));
                }
            }
        }

        Ok(AlignmentLayout {
            n1,
            n2,
            literal_pairs,
            converged,
            iterations,
            eq,
            rev,
            sub12,
            sub21,
            cls12,
            cls21,
            kb1_directed,
            kb2_directed,
        })
    }

    /// A borrowing view over this layout's sections.
    pub fn view<'a>(&'a self, snap: &'a SnapshotArena) -> AlignmentView<'a> {
        AlignmentView {
            buf: snap.bytes(),
            layout: self,
        }
    }
}

/// A zero-copy view of the alignment tables — the arena-backed
/// counterpart of [`OwnedAlignment`] for the serving query paths.
#[derive(Clone, Copy)]
pub struct AlignmentView<'a> {
    buf: &'a [u8],
    layout: &'a AlignmentLayout,
}

impl<'a> AlignmentView<'a> {
    fn best_in(&self, rows: &RowsLayout, i: usize) -> Option<(EntityId, f64)> {
        let (start, end) = rows.row_bounds(self.buf, i);
        let targets = &self.buf[rows.targets.clone()];
        let probs = &self.buf[rows.probs.clone()];
        argmax((start..end).map(|j| (EntityId(le_u32(targets, j)), le_f64(probs, j))))
    }

    fn row_in(&self, rows: &RowsLayout, i: usize) -> Vec<(EntityId, f64)> {
        let (start, end) = rows.row_bounds(self.buf, i);
        let targets = &self.buf[rows.targets.clone()];
        let probs = &self.buf[rows.probs.clone()];
        (start..end)
            .map(|j| (EntityId(le_u32(targets, j)), le_f64(probs, j)))
            .collect()
    }

    /// The best KB-2 match of a KB-1 entity, with its probability.
    pub fn best_match(&self, x: EntityId) -> Option<(EntityId, f64)> {
        self.best_in(&self.layout.eq, x.index())
    }

    /// The best KB-1 match of a KB-2 entity, with its probability.
    pub fn best_match_rev(&self, x2: EntityId) -> Option<(EntityId, f64)> {
        self.best_in(&self.layout.rev, x2.index())
    }

    /// True when a KB-1 entity has at least one stored candidate.
    pub fn has_candidates(&self, x: EntityId) -> bool {
        let (start, end) = self.layout.eq.row_bounds(self.buf, x.index());
        end > start
    }

    /// Stored `Pr(x ≡ x′)`, zero if the pair is not stored.
    pub fn prob(&self, x: EntityId, x2: EntityId) -> f64 {
        let (start, end) = self.layout.eq.row_bounds(self.buf, x.index());
        let targets = &self.buf[self.layout.eq.targets.clone()];
        let probs = &self.buf[self.layout.eq.probs.clone()];
        (start..end)
            .find(|&j| le_u32(targets, j) == x2.0)
            .map_or(0.0, |j| le_f64(probs, j))
    }

    fn subrel_lookup(&self, rows: &RowsLayout, src: RelationId, dst: RelationId) -> f64 {
        let (start, end) = rows.row_bounds(self.buf, src.directed_index());
        let targets = &self.buf[rows.targets.clone()];
        let probs = &self.buf[rows.probs.clone()];
        (start..end)
            .find(|&j| le_u32(targets, j) == dst.0)
            .map_or(0.0, |j| le_f64(probs, j))
    }

    /// Stored `Pr(r ⊆ r′)` for `r` in KB 1, `r′` in KB 2 — the view
    /// equivalent of [`crate::subrel::SubrelStore::prob_1in2`].
    pub fn subrel_prob_1in2(&self, r1: RelationId, r2: RelationId) -> f64 {
        self.subrel_lookup(&self.layout.sub12, r1, r2)
    }

    /// Stored `Pr(r′ ⊆ r)` for `r′` in KB 2, `r` in KB 1.
    pub fn subrel_prob_2in1(&self, r2: RelationId, r1: RelationId) -> f64 {
        self.subrel_lookup(&self.layout.sub21, r2, r1)
    }

    /// Total number of stored (non-zero) instance equivalences.
    pub fn num_instance_pairs(&self) -> usize {
        self.layout.eq.targets.len() / 4
    }

    /// Number of clamped literal-equivalence pairs.
    pub fn literal_pairs(&self) -> usize {
        self.layout.literal_pairs
    }

    /// Whether the producing run converged.
    pub fn converged(&self) -> bool {
        self.layout.converged
    }

    /// Per-iteration measurements of the producing run.
    pub fn iterations(&self) -> &'a [IterationStats] {
        &self.layout.iterations
    }

    /// Number of assigned KB-1 instances — the view equivalent of
    /// `alignment.instance_pairs(&kb1).len()`.
    pub fn aligned_instances(&self, kb1: KbView<'_>) -> usize {
        (0..self.layout.n1)
            .filter(|&i| {
                let e = EntityId::from_index(i);
                kb1.kind(e) == EntityKind::Instance && self.has_candidates(e)
            })
            .count()
    }

    /// Fully decodes this view into an [`OwnedAlignment`] — the bridge
    /// back to the delta/incremental APIs.
    pub fn to_owned_alignment(&self) -> OwnedAlignment {
        let l = self.layout;
        let rows: Vec<Vec<(EntityId, f64)>> = (0..l.n1).map(|i| self.row_in(&l.eq, i)).collect();
        let instances = EquivStore::from_rows(rows, l.n2);

        let subrel_rows = |rows_layout: &RowsLayout, count: usize| -> Vec<Vec<(RelationId, f64)>> {
            let targets = &self.buf[rows_layout.targets.clone()];
            let probs = &self.buf[rows_layout.probs.clone()];
            (0..count)
                .map(|i| {
                    let (start, end) = rows_layout.row_bounds(self.buf, i);
                    (start..end)
                        .map(|j| (RelationId(le_u32(targets, j)), le_f64(probs, j)))
                        .collect()
                })
                .collect()
        };
        let subrelations = SubrelStore::from_rows(
            subrel_rows(&l.sub12, l.kb1_directed),
            subrel_rows(&l.sub21, l.kb2_directed),
        );

        let class_scores = |range: &Range<usize>| -> Vec<ClassScore> {
            let sec = &self.buf[range.start..range.end];
            (0..sec.len() / CLS_RECORD)
                .map(|i| {
                    let rec = &sec[i * CLS_RECORD..];
                    ClassScore {
                        sub: EntityId(le_u32(rec, 0)),
                        sup: EntityId(le_u32(rec, 1)),
                        prob: le_f64(rec, 1), // f64 at byte 8 = 8-byte index 1
                        sampled_members: le_u64(rec, 2) as usize,
                    }
                })
                .collect()
        };
        let classes = ClassAlignment {
            one_to_two: class_scores(&l.cls12),
            two_to_one: class_scores(&l.cls21),
        };

        OwnedAlignment {
            instances,
            subrelations,
            classes,
            literal_pairs: l.literal_pairs,
            iterations: l.iterations.clone(),
            converged: l.converged,
            kb1_directed_relations: l.kb1_directed,
            kb2_directed_relations: l.kb2_directed,
        }
    }
}

// ----------------------------------------------------------------------
// The mapped pair snapshot
// ----------------------------------------------------------------------

/// An opened, validated v2 aligned-pair snapshot: the arena plus the
/// three validated layouts. Open cost is one validation scan — no
/// decoding, no per-record allocation; queries go through the views.
#[derive(Debug)]
pub struct MappedPairSnapshot {
    arena: SnapshotArena,
    kb1: KbLayout,
    kb2: KbLayout,
    alignment: AlignmentLayout,
}

impl MappedPairSnapshot {
    /// Opens and validates a v2 aligned-pair snapshot file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        MappedPairSnapshot::from_arena(SnapshotArena::open_deferred(path)?)
    }

    /// Validates an in-memory v2 aligned-pair image.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        MappedPairSnapshot::from_arena(SnapshotArena::from_bytes_deferred(bytes)?)
    }

    /// Validation is the entire open cost of a v2 snapshot, and its
    /// three pieces are independent: the section checksums, the KB-1
    /// layout, and the KB-2 layout (layout validation is safe on
    /// not-yet-checksummed bytes — every read is bounds-checked, and
    /// corrupt data yields a `Corrupt` error at worst). For large files
    /// the three run concurrently; checksum verification additionally
    /// fans out over sections internally.
    fn from_arena(arena: SnapshotArena) -> Result<Self, SnapshotError> {
        if arena.kind() != SnapshotKind::AlignedPair {
            return Err(SnapshotError::corrupt(format!(
                "expected an aligned-pair snapshot, found a {}",
                arena.kind().name()
            )));
        }
        let parallel = arena.file_len() >= 1 << 20
            && std::thread::available_parallelism().map_or(1, |n| n.get()) >= 4;
        let (sums, kb1, kb2) = if parallel {
            // One flat scope, four lanes: two spawned checksum slices +
            // the spawned KB-1 layout, while this thread takes the third
            // checksum slice and the KB-2 layout. No nested spawns.
            std::thread::scope(|scope| {
                let c0 = scope.spawn(|| arena.verify_checksums_slice(0, 3));
                let c1 = scope.spawn(|| arena.verify_checksums_slice(1, 3));
                let kb1 = scope.spawn(|| KbLayout::validate(&arena, KB1_BASE));
                let c2 = arena.verify_checksums_slice(2, 3);
                let kb2 = KbLayout::validate(&arena, KB2_BASE);
                let sums = c2
                    .and(c0.join().expect("checksum thread panicked"))
                    .and(c1.join().expect("checksum thread panicked"));
                (
                    sums,
                    kb1.join().expect("kb1 validation thread panicked"),
                    kb2,
                )
            })
        } else {
            (
                arena.verify_checksums(),
                KbLayout::validate(&arena, KB1_BASE),
                KbLayout::validate(&arena, KB2_BASE),
            )
        };
        // Checksum errors take precedence: a corrupt file should report
        // as corruption, not as whatever structural symptom it caused.
        sums?;
        let (kb1, kb2) = (kb1?, kb2?);
        let alignment = AlignmentLayout::validate(&arena, &kb1, &kb2)?;
        Ok(MappedPairSnapshot {
            arena,
            kb1,
            kb2,
            alignment,
        })
    }

    /// Serializes an owned pair snapshot into v2 image bytes.
    pub fn encode(snap: &AlignedPairSnapshot) -> Vec<u8> {
        let mut w = SectionWriter::new();
        encode_kb_sections(&snap.kb1, KB1_BASE, &mut w);
        encode_kb_sections(&snap.kb2, KB2_BASE, &mut w);
        encode_alignment_sections(&snap.alignment, &mut w);
        w.finish(SnapshotKind::AlignedPair)
    }

    /// Writes an owned pair snapshot as a v2 file (atomically).
    pub fn save_v2(
        snap: &AlignedPairSnapshot,
        path: impl AsRef<Path>,
    ) -> Result<(), SnapshotError> {
        let mut w = SectionWriter::new();
        encode_kb_sections(&snap.kb1, KB1_BASE, &mut w);
        encode_kb_sections(&snap.kb2, KB2_BASE, &mut w);
        encode_alignment_sections(&snap.alignment, &mut w);
        w.write_file(SnapshotKind::AlignedPair, path)
    }

    /// View of the first KB.
    pub fn kb1(&self) -> KbView<'_> {
        self.kb1.view(&self.arena)
    }

    /// View of the second KB.
    pub fn kb2(&self) -> KbView<'_> {
        self.kb2.view(&self.arena)
    }

    /// View of the alignment tables.
    pub fn alignment(&self) -> AlignmentView<'_> {
        self.alignment.view(&self.arena)
    }

    /// True when the backing arena is an OS memory mapping.
    pub fn is_mapped(&self) -> bool {
        self.arena.is_mapped()
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> usize {
        self.arena.file_len()
    }

    /// Fully decodes ("hydrates") into an owned [`AlignedPairSnapshot`]
    /// — the expensive path, for applying deltas.
    pub fn hydrate(&self) -> AlignedPairSnapshot {
        AlignedPairSnapshot {
            kb1: self.kb1().to_kb(),
            kb2: self.kb2().to_kb(),
            alignment: self.alignment().to_owned_alignment(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParisConfig;
    use crate::iteration::Aligner;
    use paris_kb::KbBuilder;
    use paris_rdf::Literal;

    fn aligned_pair_snapshot() -> AlignedPairSnapshot {
        let mut a = KbBuilder::new("left");
        let mut b = KbBuilder::new("right");
        for i in 0..8 {
            a.add_literal_fact(
                format!("http://a/p{i}"),
                "http://a/email",
                Literal::plain(format!("p{i}@x.org")),
            );
            a.add_fact(
                format!("http://a/p{i}"),
                "http://a/livesIn",
                format!("http://a/c{}", i % 2),
            );
            a.add_type(format!("http://a/p{i}"), "http://a/Person");
            b.add_literal_fact(
                format!("http://b/q{i}"),
                "http://b/mail",
                Literal::plain(format!("p{i}@x.org")),
            );
            b.add_fact(
                format!("http://b/q{i}"),
                "http://b/city",
                format!("http://b/d{}", i % 2),
            );
            b.add_type(format!("http://b/q{i}"), "http://b/Human");
        }
        let (kb1, kb2) = (a.build(), b.build());
        let owned = {
            let result = Aligner::new(&kb1, &kb2, ParisConfig::default()).run();
            OwnedAlignment::from_result(&result)
        };
        AlignedPairSnapshot::new(kb1, kb2, owned)
    }

    #[test]
    fn v2_pair_answers_are_bit_identical_to_the_heap_snapshot() {
        let mut snap = aligned_pair_snapshot();
        // Beside the aligned rows: a NaN ahead of a real score, and an
        // exact tie. Both paths answer them by the one rule of `argmax`.
        let nan = snap.kb1.entity_by_iri("http://a/p0").unwrap();
        let tie = snap.kb1.entity_by_iri("http://a/p1").unwrap();
        let (lo, hi) = (EntityId(0), EntityId(2));
        snap.alignment.instances.replace_rows([
            (nan, vec![(lo, f64::NAN), (hi, 0.5)]),
            (tie, vec![(lo, 0.5), (hi, 0.5)]),
        ]);
        assert_eq!(snap.alignment.best_match(nan), Some((hi, 0.5)));
        assert_eq!(snap.alignment.best_match(tie), Some((lo, 0.5)));
        let mapped = MappedPairSnapshot::from_bytes(MappedPairSnapshot::encode(&snap)).unwrap();

        // sameas, both directions, every entity.
        for e in snap.kb1.entities() {
            assert_eq!(
                mapped.alignment().best_match(e),
                snap.alignment.best_match(e),
                "{e:?}"
            );
        }
        for e in snap.kb2.entities() {
            assert_eq!(
                mapped.alignment().best_match_rev(e),
                snap.alignment.best_match_rev(e),
                "{e:?}"
            );
        }
        // neighbors: identical order, relations, values, functionalities.
        for e in snap.kb1.entities() {
            let from_view: Vec<_> = mapped
                .kb1()
                .facts(e)
                .map(|(r, y)| {
                    (
                        mapped.kb1().relation_iri_str(r).to_owned(),
                        r.is_inverse(),
                        mapped.kb1().term(y).to_string(),
                        mapped.kb1().functionality(r),
                    )
                })
                .collect();
            let from_kb: Vec<_> = snap
                .kb1
                .facts(e)
                .iter()
                .map(|&(r, y)| {
                    (
                        snap.kb1.relation_iri(r).as_str().to_owned(),
                        r.is_inverse(),
                        snap.kb1.term(y).to_string(),
                        snap.kb1.functionality(r),
                    )
                })
                .collect();
            assert_eq!(from_view, from_kb, "{e:?}");
        }
        assert_eq!(
            mapped.alignment().num_instance_pairs(),
            snap.alignment.num_instance_pairs()
        );
        assert_eq!(
            mapped.alignment().aligned_instances(mapped.kb1()),
            snap.alignment.instance_pairs(&snap.kb1).len()
        );
        assert_eq!(mapped.alignment().converged(), snap.alignment.converged);
        assert_eq!(
            mapped.alignment().iterations().len(),
            snap.alignment.iterations.len()
        );
    }

    #[test]
    fn hydrate_round_trips_through_v2() {
        let snap = aligned_pair_snapshot();
        let mapped = MappedPairSnapshot::from_bytes(MappedPairSnapshot::encode(&snap)).unwrap();
        let back = mapped.hydrate();
        assert_eq!(back.kb1.name(), snap.kb1.name());
        assert_eq!(
            back.alignment.instance_pairs(&back.kb1),
            snap.alignment.instance_pairs(&snap.kb1)
        );
        assert_eq!(
            back.alignment.classes.one_to_two,
            snap.alignment.classes.one_to_two
        );
        assert_eq!(back.alignment.literal_pairs, snap.alignment.literal_pairs);
        // And the hydrated value re-encodes to the identical v2 image.
        assert_eq!(
            MappedPairSnapshot::encode(&back),
            MappedPairSnapshot::encode(&snap)
        );
    }

    #[test]
    fn v2_pair_file_round_trips() {
        let snap = aligned_pair_snapshot();
        let path = std::env::temp_dir().join("paris_view_unit_pair.snap");
        MappedPairSnapshot::save_v2(&snap, &path).unwrap();
        let mapped = MappedPairSnapshot::open(&path).unwrap();
        assert_eq!(mapped.kb1().name(), "left");
        assert_eq!(mapped.kb2().name(), "right");
        #[cfg(unix)]
        assert!(mapped.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_flipped_byte_in_a_pair_image_is_rejected() {
        let snap = aligned_pair_snapshot();
        let bytes = MappedPairSnapshot::encode(&snap);
        // Sampled stride keeps the test fast; the kb-level test is
        // exhaustive on a smaller image.
        for i in (0..bytes.len()).step_by(7) {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x01;
            assert!(
                MappedPairSnapshot::from_bytes(corrupted).is_err(),
                "flip at byte {i} was not detected"
            );
        }
    }

    #[test]
    fn mismatched_kbs_are_rejected_at_open() {
        // An alignment stored beside KBs it was not computed for must
        // fail validation rather than serve out-of-range ids.
        let snap = aligned_pair_snapshot();
        let other = {
            let mut b = KbBuilder::new("other");
            b.add_fact("http://o/x", "http://o/r", "http://o/y");
            b.build()
        };
        let wrong = AlignedPairSnapshot::new(snap.kb1, other, snap.alignment);
        let err = MappedPairSnapshot::from_bytes(MappedPairSnapshot::encode(&wrong)).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn single_kb_v2_is_not_a_pair() {
        let kb = KbBuilder::new("solo").build();
        let bytes = paris_kb::snapshot_v2::kb_to_bytes_v2(&kb);
        let err = MappedPairSnapshot::from_bytes(bytes).unwrap_err();
        assert!(
            err.to_string().contains("expected an aligned-pair"),
            "{err}"
        );
    }
}
