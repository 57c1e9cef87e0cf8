//! Snapshot format **v2** — the only snapshot format: a zero-copy,
//! section-table layout read in place from an [`Arena`].
//!
//! A stream of length-prefixed records (the retired v1 format) must be
//! decoded — every load re-interns every term and re-allocates every
//! index, so startup cost and resident memory scale with the image. v2
//! instead lays the same data out as fixed-width, 8-byte-aligned,
//! little-endian *sections* that the accessor views ([`KbView`]) read
//! directly out of the file bytes. Opening a v2
//! snapshot validates the section table, per-section checksums, and the
//! structural invariants (array sizes, offset monotonicity, id ranges)
//! **once**, and never decodes the body: with an mmap-backed arena the
//! open is O(validation scan) with zero allocation, and the OS page
//! cache — not this process — owns the cold data.
//!
//! # File layout
//!
//! ```text
//! magic          [8]  b"PARISNAP"
//! version        u32  2
//! kind           u8   1 = single KB, 2 = aligned pair
//! reserved       [3]  zero
//! section_count  u32
//! reserved       u32  zero
//! section table  [section_count × 32]:
//!     id        u32   section identifier (see the constants below)
//!     reserved  u32   zero
//!     offset    u64   absolute file offset (8-aligned, contiguous)
//!     length    u64   exact byte length (padding to 8 follows, zeroed)
//!     checksum  u64   crate::snapshot::checksum of the section bytes
//! sections       …    contiguous, each padded to the next 8-byte boundary
//! ```
//!
//! Sections are strictly contiguous (each offset is the padded end of the
//! previous section, the first starts right after the table, the last
//! pads to end-of-file) and the padding bytes must be zero — so **every
//! byte of the file** is covered by either a validated header field or a
//! section checksum, and a single flipped bit anywhere fails the open.
//!
//! ## KB sections
//!
//! One knowledge base occupies the ids `base + k` (base `0x100` for the
//! first KB of a file, `0x200` for the second):
//!
//! | id | content |
//! |---|---|
//! | META | name, entity/relation/class counts (tiny, decoded at open) |
//! | TERM_BLOB / TERM_OFFSETS | tagged term records + `u64 × (n+1)` offsets |
//! | TERM_KINDS | `u8 × n` entity kinds |
//! | TERM_SORTED | `u32 × n` entity ids sorted by record bytes (lookup index) |
//! | REL_BLOB / REL_OFFSETS | relation IRI bytes + offsets |
//! | PAIR_OFFSETS / PAIRS | per-relation pair counts + `(u32, u32)` pairs |
//! | ADJ_OFFSETS / ADJ | per-entity adjacency counts + `(u32 rel, u32 entity)` |
//! | CLASSES | `u32 × #classes` |
//! | *_KEYS / *_OFFSETS / *_VALUES | the three closed schema maps |
//! | FUN | `f64 × 2·#relations` functionalities |
//!
//! The both-direction adjacency is **stored**, not rebuilt at load: disk
//! is cheap next to the per-load sort that would replace it.
//!
//! # Trust model
//!
//! Validation makes a *corrupted* file (bit rot, truncation, torn write)
//! fail cleanly at open. A *maliciously crafted* file with internally
//! consistent checksums can still lie about its contents — views will
//! then return wrong answers, but never panic, read out of bounds, or
//! over-allocate: every id is range-checked at open and every string is
//! decoded lossily. Snapshots remain operator-provided inputs.

use std::ops::Range;
use std::path::Path;

use paris_rdf::term::{Iri, Literal, LiteralKind, Term};

use crate::arena::Arena;
use crate::fxhash::FxHashMap;
use crate::ids::{EntityId, EntityKind, RelationId};
use crate::snapshot::{
    peek_version_bytes, write_bytes_atomic, PayloadReader, PayloadWriter, SnapshotError,
    SnapshotKind, MAGIC,
};
use crate::stats::KbStats;
use crate::store::Kb;
use crate::wire;

/// The v2 format version number stored in the header.
pub const FORMAT_VERSION_V2: u32 = 2;

pub(crate) const HEADER_LEN: usize = 24;
pub(crate) const SECTION_ENTRY_LEN: usize = 32;
/// Hard cap on the section count (a 40-section file is the current
/// maximum; this guards the table allocation against corrupt headers).
const MAX_SECTIONS: usize = 4096;

/// Section-id base for the first (or only) KB of a file.
pub const KB1_BASE: u32 = 0x100;
/// Section-id base for the second KB of an aligned-pair file.
pub const KB2_BASE: u32 = 0x200;
/// Section-id base for the alignment tables of an aligned-pair file.
pub const ALIGN_BASE: u32 = 0x300;

pub(crate) const KB_META: u32 = 0;
pub(crate) const KB_TERM_BLOB: u32 = 1;
pub(crate) const KB_TERM_OFFSETS: u32 = 2;
pub(crate) const KB_TERM_KINDS: u32 = 3;
pub(crate) const KB_TERM_SORTED: u32 = 4;
pub(crate) const KB_REL_BLOB: u32 = 5;
pub(crate) const KB_REL_OFFSETS: u32 = 6;
pub(crate) const KB_PAIR_OFFSETS: u32 = 7;
pub(crate) const KB_PAIRS: u32 = 8;
pub(crate) const KB_ADJ_OFFSETS: u32 = 9;
pub(crate) const KB_ADJ: u32 = 10;
pub(crate) const KB_CLASSES: u32 = 11;
pub(crate) const KB_MEMBERS: u32 = 12; // +0 keys, +1 offsets, +2 values
pub(crate) const KB_TYPES: u32 = 15;
pub(crate) const KB_SUPER: u32 = 18;
pub(crate) const KB_FUN: u32 = 21;

/// 64-bit section checksum: four independent FNV-style multiply lanes
/// over 32-byte blocks, folded together at the end.
///
/// The frame checksum ([`crate::snapshot::checksum`]) is one serial
/// xor-multiply chain — fine for a small delta payload, but a checksum
/// *is* the open cost of a v2 snapshot, so this variant breaks the
/// dependency chain into four lanes the CPU runs in parallel (~4× the
/// throughput). Detection is as strong for the corruption this guards
/// against: each lane step is bijective (odd multiplier) and the final
/// fold is injective per lane, so any change confined to one 8-byte word
/// — every single-byte flip — provably changes the sum; the length is
/// folded into the seeds so truncation to a word boundary changes it
/// too. Not cryptography.
pub fn checksum_v2(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    const SEEDS: [u64; 4] = [
        0xCBF2_9CE4_8422_2325,
        0x9E37_79B9_7F4A_7C15,
        0xC2B2_AE3D_27D4_EB4F,
        0x1656_67B1_9E37_79F9,
    ];
    let len_mix = (bytes.len() as u64).wrapping_mul(PRIME);
    let mut lanes = SEEDS.map(|s| s ^ len_mix);
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = (*lane ^ wire::le_u64(word, 0)).wrapping_mul(PRIME);
        }
    }
    // The remainder is < 32 bytes: at most four words, the last possibly
    // partial — `wire::le_u64` zero-pads it exactly like the old explicit
    // tail buffer, so the sum is unchanged.
    for (word, lane) in blocks.remainder().chunks(8).zip(lanes.iter_mut()) {
        *lane = (*lane ^ wire::le_u64(word, 0)).wrapping_mul(PRIME);
    }
    fold_lanes(lanes)
}

/// Folds the four checksum lanes into one word (shared tail of
/// [`checksum_v2`] and [`checksum_v2_stream`]).
fn fold_lanes(lanes: [u64; 4]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut out = 0u64;
    for (i, &lane) in lanes.iter().enumerate() {
        if i == 0 {
            out = lane;
        } else {
            out = (out ^ lane).wrapping_mul(PRIME).rotate_left(23);
        }
    }
    out
}

/// [`checksum_v2`] of exactly `len` bytes pulled from a reader in
/// 32 KiB chunks — bit-identical to the in-memory variant, computed
/// without ever buffering the input whole. This is how the serving
/// layer checksums snapshot files for the replication manifest: through
/// the same open handle it later streams, with no heap copy of a
/// possibly multi-GiB file. Errors if the reader cannot yield `len`
/// bytes (e.g. the file changed size mid-read).
pub fn checksum_v2_stream(r: &mut impl std::io::Read, len: u64) -> std::io::Result<u64> {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    const SEEDS: [u64; 4] = [
        0xCBF2_9CE4_8422_2325,
        0x9E37_79B9_7F4A_7C15,
        0xC2B2_AE3D_27D4_EB4F,
        0x1656_67B1_9E37_79F9,
    ];
    let len_mix = len.wrapping_mul(PRIME);
    let mut lanes = SEEDS.map(|s| s ^ len_mix);
    // The buffer length is a multiple of 32, so a 32-byte block never
    // straddles two reads: only the final read can leave a remainder,
    // which is exactly the remainder checksum_v2 sees.
    let mut buf = [0u8; 32 * 1024];
    let mut remaining = len;
    while remaining > 0 {
        let want = buf
            .len()
            .min(usize::try_from(remaining).unwrap_or(buf.len()));
        let chunk = buf.get_mut(..want).unwrap_or_default();
        r.read_exact(chunk)?;
        remaining -= want as u64;
        let mut blocks = chunk.chunks_exact(32);
        for block in &mut blocks {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = (*lane ^ wire::le_u64(word, 0)).wrapping_mul(PRIME);
            }
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            debug_assert_eq!(remaining, 0, "only the final read may be partial");
            for (word, lane) in rest.chunks(8).zip(lanes.iter_mut()) {
                *lane = (*lane ^ wire::le_u64(word, 0)).wrapping_mul(PRIME);
            }
        }
    }
    let out = fold_lanes(lanes);
    Ok(out)
}

// ----------------------------------------------------------------------
// Little-endian array helpers (shared with paris-core's alignment views)
// ----------------------------------------------------------------------

pub use crate::wire::{le_f64, le_u32, le_u64};

/// Validates that a section holds exactly `expected` bytes.
pub fn expect_len(buf: &[u8], expected: usize, what: &str) -> Result<(), SnapshotError> {
    if buf.len() != expected {
        return Err(SnapshotError::corrupt(format!(
            "section {what} is {} bytes, expected {expected}",
            buf.len()
        )));
    }
    Ok(())
}

/// Validates a `u64 × (count + 1)` offsets array: monotonically
/// non-decreasing, starting at 0, ending exactly at `total`.
///
/// The monotonic scan is a branchless fold (this runs on the open path
/// over arrays with one entry per entity); the error message re-scan
/// happens only on failure.
pub fn check_offsets(
    buf: &[u8],
    count: usize,
    total: u64,
    what: &str,
) -> Result<(), SnapshotError> {
    expect_len(buf, 8 * (count + 1), what)?;
    let mut prev = 0u64;
    let mut monotonic = true;
    for word in buf.chunks_exact(8) {
        let v = wire::le_u64(word, 0);
        monotonic &= v >= prev;
        prev = v;
    }
    if !monotonic || le_u64(buf, 0) != 0 {
        let at = (1..=count)
            .find(|&i| le_u64(buf, i) < le_u64(buf, i - 1))
            .unwrap_or(0);
        return Err(SnapshotError::corrupt(format!(
            "section {what} offsets are not monotonic at {at}"
        )));
    }
    if prev != total {
        return Err(SnapshotError::corrupt(format!(
            "section {what} ends at {prev}, expected {total}"
        )));
    }
    Ok(())
}

/// Validates that every `u32` of a section is `< bound`.
///
/// Runs as a branch-free max-fold (which the compiler vectorizes — this
/// is on the open path, over the largest sections of the file); the slow
/// index-reporting scan happens only on the failure path.
pub fn check_ids(buf: &[u8], bound: u32, what: &str) -> Result<(), SnapshotError> {
    if buf.len() % 4 != 0 {
        return Err(SnapshotError::corrupt(format!(
            "section {what} is not a u32 array"
        )));
    }
    if buf.is_empty() {
        return Ok(());
    }
    let max = buf
        .chunks_exact(4)
        .map(|c| wire::le_u32(c, 0))
        .fold(0u32, u32::max);
    if max >= bound {
        let at = (0..buf.len() / 4)
            .find(|&i| le_u32(buf, i) >= bound)
            .unwrap_or(0);
        return Err(SnapshotError::corrupt(format!(
            "section {what}: id {} at {at} out of range ({bound})",
            le_u32(buf, at)
        )));
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Writing
// ----------------------------------------------------------------------

/// Assembles a v2 snapshot: sections are appended in file order, then
/// [`finish`](SectionWriter::finish) frames them with the header and the
/// checksummed section table.
#[derive(Default)]
pub struct SectionWriter {
    data: Vec<u8>,
    table: Vec<(u32, usize, usize, u64)>,
}

impl SectionWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SectionWriter::default()
    }

    /// Appends one section (checksummed, then zero-padded to 8 bytes).
    pub fn add(&mut self, id: u32, bytes: &[u8]) {
        let offset = self.data.len();
        self.table
            .push((id, offset, bytes.len(), checksum_v2(bytes)));
        self.data.extend_from_slice(bytes);
        while self.data.len() % 8 != 0 {
            self.data.push(0);
        }
    }

    /// Frames the accumulated sections into a complete v2 file image.
    pub fn finish(self, kind: SnapshotKind) -> Vec<u8> {
        let data_start = HEADER_LEN + self.table.len() * SECTION_ENTRY_LEN;
        let mut out = Vec::with_capacity(data_start + self.data.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION_V2.to_le_bytes());
        out.push(kind.to_byte());
        out.extend_from_slice(&[0u8; 3]);
        out.extend_from_slice(&(self.table.len() as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        for &(id, offset, len, sum) in &self.table {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes());
            out.extend_from_slice(&((data_start + offset) as u64).to_le_bytes());
            out.extend_from_slice(&(len as u64).to_le_bytes());
            out.extend_from_slice(&sum.to_le_bytes());
        }
        out.extend_from_slice(&self.data);
        out
    }

    /// Frames the sections and writes the file atomically.
    pub fn write_file(
        self,
        kind: SnapshotKind,
        path: impl AsRef<Path>,
    ) -> Result<(), SnapshotError> {
        let bytes = self.finish(kind);
        write_bytes_atomic(path, &[&bytes])
    }
}

/// Files at or above this size verify section checksums (and, for
/// pairs, KB layouts) on multiple threads — validation is the entire
/// open cost of a v2 snapshot, and it parallelizes embarrassingly.
pub(crate) const PARALLEL_VALIDATE_THRESHOLD: usize = 1 << 20;

/// How many validation threads to use for `total_bytes` of work.
pub(crate) fn validation_threads(total_bytes: usize) -> usize {
    if total_bytes < PARALLEL_VALIDATE_THRESHOLD {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(1)
}

/// One checksum work item: a section's byte range and its stored sum.
type ChecksumJob = (Range<usize>, u64);

/// Verifies every section checksum, fanning out across threads when the
/// file is large enough to pay for the spawns. Sections are partitioned
/// greedily by byte count so the threads finish together.
fn verify_checksums(buf: &[u8], jobs: &[ChecksumJob]) -> Result<(), SnapshotError> {
    let check = |(range, stored): &ChecksumJob| -> Result<(), SnapshotError> {
        let actual = checksum_v2(buf.get(range.clone()).unwrap_or_default());
        if actual != *stored {
            return Err(SnapshotError::ChecksumMismatch {
                expected: *stored,
                actual,
            });
        }
        Ok(())
    };
    let total: usize = jobs.iter().map(|(r, _)| r.len()).sum();
    let threads = validation_threads(total).max(1);
    if threads <= 1 {
        return jobs.iter().try_for_each(check);
    }
    // Greedy balance: biggest section first into the lightest bucket.
    let mut order: Vec<&ChecksumJob> = jobs.iter().collect();
    order.sort_by_key(|(r, _)| std::cmp::Reverse(r.len()));
    let mut buckets: Vec<(usize, Vec<&ChecksumJob>)> = vec![(0, Vec::new()); threads];
    for job in order {
        // `threads` is clamped to ≥1 above, so a lightest bucket exists;
        // the `if let` keeps this provably panic-free anyway.
        if let Some(lightest) = buckets.iter_mut().min_by_key(|(bytes, _)| *bytes) {
            lightest.0 += job.0.len();
            lightest.1.push(job);
        }
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .iter()
            .map(|(_, bucket)| scope.spawn(move || bucket.iter().try_for_each(|j| check(j))))
            .collect();
        handles.into_iter().try_for_each(|h| match h.join() {
            Ok(result) => result,
            Err(_) => Err(SnapshotError::corrupt("checksum worker panicked")),
        })
    })
}

// ----------------------------------------------------------------------
// The validated arena
// ----------------------------------------------------------------------

/// A v2 snapshot file held in an [`Arena`], with its section table parsed
/// and every section bounds- and checksum-validated exactly once.
pub struct SnapshotArena {
    arena: Arena,
    kind: SnapshotKind,
    /// `(id, byte range)`, sorted by id.
    sections: Vec<(u32, Range<usize>)>,
    /// `(byte range, stored checksum)` per section, in file order — kept
    /// so deferred verification can run after (or concurrent with)
    /// structural layout validation.
    checksum_jobs: Vec<ChecksumJob>,
}

impl SnapshotArena {
    /// Opens and fully validates a v2 snapshot file (mmap-backed on
    /// Unix): section-table structure *and* per-section checksums.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let arena = SnapshotArena::validate(Arena::open(path)?)?;
        arena.verify_checksums()?;
        Ok(arena)
    }

    /// Fully validates an in-memory v2 image.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        let arena = SnapshotArena::validate(Arena::from_vec(bytes))?;
        arena.verify_checksums()?;
        Ok(arena)
    }

    /// Opens a v2 snapshot validating the section-table structure only —
    /// the caller **must** still call
    /// [`verify_checksums`](Self::verify_checksums) before trusting the
    /// contents (the pair-open path runs it concurrently with layout
    /// validation, which is itself safe on unverified bytes: every read
    /// is bounds-checked and the worst outcome is a `Corrupt` error).
    pub fn open_deferred(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        SnapshotArena::validate(Arena::open(path)?)
    }

    /// In-memory counterpart of [`open_deferred`](Self::open_deferred).
    pub fn from_bytes_deferred(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        SnapshotArena::validate(Arena::from_vec(bytes))
    }

    /// Verifies every section checksum (in parallel for large files).
    pub fn verify_checksums(&self) -> Result<(), SnapshotError> {
        verify_checksums(self.arena.bytes(), &self.checksum_jobs)
    }

    /// Verifies one of `parts` deterministic slices of the section
    /// checksums (sections are dealt round-robin by descending size, so
    /// the slices are byte-balanced). This is how the aligned-pair open
    /// fans verification out across threads it already runs — one flat
    /// scope instead of nested spawns. All `parts` slices together cover
    /// exactly every section.
    pub fn verify_checksums_slice(&self, part: usize, parts: usize) -> Result<(), SnapshotError> {
        let buf = self.arena.bytes();
        let mut order: Vec<&ChecksumJob> = self.checksum_jobs.iter().collect();
        order.sort_by_key(|(range, _)| std::cmp::Reverse(range.len()));
        for (range, stored) in order.into_iter().skip(part).step_by(parts.max(1)) {
            let actual = checksum_v2(buf.get(range.clone()).unwrap_or_default());
            if actual != *stored {
                return Err(SnapshotError::ChecksumMismatch {
                    expected: *stored,
                    actual,
                });
            }
        }
        Ok(())
    }

    fn validate(arena: Arena) -> Result<Self, SnapshotError> {
        let buf = arena.bytes();
        // Magic and version first: a file of another (or the retired v1)
        // format reports as that, however short it is.
        let version = peek_version_bytes(buf)?;
        if version != FORMAT_VERSION_V2 {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        if buf.len() < HEADER_LEN {
            return Err(SnapshotError::corrupt("file shorter than the v2 header"));
        }
        let [kind_byte, reserved @ ..] = wire::le_u32(buf, 3).to_le_bytes();
        let kind = SnapshotKind::from_byte(kind_byte)?;
        if kind == SnapshotKind::Delta {
            return Err(SnapshotError::corrupt("deltas have no v2 representation"));
        }
        if reserved != [0, 0, 0] || wire::le_u32(buf, 5) != 0 {
            return Err(SnapshotError::corrupt("nonzero reserved header bytes"));
        }
        let count = wire::saturating_usize(u64::from(wire::le_u32(buf, 4)));
        if count > MAX_SECTIONS {
            return Err(SnapshotError::corrupt(format!(
                "section count {count} exceeds the maximum {MAX_SECTIONS}"
            )));
        }
        let data_start = HEADER_LEN + count * SECTION_ENTRY_LEN;
        if buf.len() < data_start {
            return Err(SnapshotError::corrupt(
                "file shorter than the section table",
            ));
        }

        // Sections must tile the rest of the file exactly: contiguous,
        // 8-padded with zero bytes, nothing before, between, or after.
        let mut expected_offset = data_start;
        let mut sections = Vec::with_capacity(count);
        let mut checksum_jobs: Vec<ChecksumJob> = Vec::with_capacity(count);
        for i in 0..count {
            let entry: [u8; SECTION_ENTRY_LEN] =
                wire::array_at(buf, HEADER_LEN + i * SECTION_ENTRY_LEN)
                    .ok_or_else(|| SnapshotError::corrupt("file shorter than the section table"))?;
            let id = wire::le_u32(&entry, 0);
            if wire::le_u32(&entry, 1) != 0 {
                return Err(SnapshotError::corrupt(format!(
                    "nonzero reserved bytes in section entry {i}"
                )));
            }
            let offset = wire::le_u64(&entry, 1);
            let length = wire::le_u64(&entry, 2);
            let stored_sum = wire::le_u64(&entry, 3);
            let offset = usize::try_from(offset)
                .map_err(|_| SnapshotError::corrupt("section offset overflows"))?;
            let length = usize::try_from(length)
                .map_err(|_| SnapshotError::corrupt("section length overflows"))?;
            if offset != expected_offset {
                return Err(SnapshotError::corrupt(format!(
                    "section {i} at offset {offset}, expected {expected_offset} (not contiguous)"
                )));
            }
            let end = offset
                .checked_add(length)
                .filter(|&e| e <= buf.len())
                .ok_or_else(|| {
                    SnapshotError::corrupt(format!("section {i} extends past end of file"))
                })?;
            let padded_end = end
                .checked_add(7)
                .map(|e| e & !7usize)
                .filter(|&e| e <= buf.len())
                .ok_or_else(|| {
                    SnapshotError::corrupt(format!("section {i} padding extends past end of file"))
                })?;
            if buf
                .get(end..padded_end)
                .unwrap_or_default()
                .iter()
                .any(|&b| b != 0)
            {
                return Err(SnapshotError::corrupt(format!(
                    "nonzero padding after section {i}"
                )));
            }
            checksum_jobs.push((offset..end, stored_sum));
            sections.push((id, offset..end));
            expected_offset = padded_end;
        }
        if expected_offset != buf.len() {
            return Err(SnapshotError::corrupt(
                "file continues beyond the last section",
            ));
        }
        sections.sort_by_key(|&(id, _)| id);
        if sections
            .windows(2)
            .any(|w| matches!(w, [a, b] if a.0 == b.0))
        {
            return Err(SnapshotError::corrupt("duplicate section id"));
        }
        Ok(SnapshotArena {
            arena,
            kind,
            sections,
            checksum_jobs,
        })
    }

    /// What this snapshot contains.
    pub fn kind(&self) -> SnapshotKind {
        self.kind
    }

    /// The raw file bytes.
    pub fn bytes(&self) -> &[u8] {
        self.arena.bytes()
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> usize {
        self.arena.bytes().len()
    }

    /// True when the arena is an OS memory mapping (resident pages belong
    /// to the page cache, not this process's heap).
    pub fn is_mapped(&self) -> bool {
        self.arena.is_mapped()
    }

    /// Byte range of a section, if present.
    pub fn section_range(&self, id: u32) -> Option<Range<usize>> {
        self.sections
            .binary_search_by_key(&id, |&(i, _)| i)
            .ok()
            .and_then(|i| self.sections.get(i))
            .map(|(_, r)| r.clone())
    }

    /// Section contents, if present.
    pub fn section(&self, id: u32) -> Option<&[u8]> {
        self.section_range(id)
            .map(|r| wire::slice(self.arena.bytes(), r))
    }

    /// Byte range of a required section.
    pub fn required(&self, id: u32, what: &str) -> Result<Range<usize>, SnapshotError> {
        self.section_range(id)
            .ok_or_else(|| SnapshotError::corrupt(format!("missing section {what} ({id:#x})")))
    }
}

impl std::fmt::Debug for SnapshotArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotArena")
            .field("kind", &self.kind)
            .field("bytes", &self.file_len())
            .field("sections", &self.sections.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

// ----------------------------------------------------------------------
// Term record codec
// ----------------------------------------------------------------------

pub(crate) const TAG_IRI: u8 = 0;
pub(crate) const TAG_PLAIN: u8 = 1;
pub(crate) const TAG_LANG: u8 = 2;
pub(crate) const TAG_TYPED: u8 = 3;

/// Appends one term record (tag byte + payload) to `out`. Records are
/// delimited externally by the TERM_OFFSETS array; the encoding is
/// injective, so comparing record bytes compares terms.
pub fn encode_term_record(out: &mut Vec<u8>, term: &Term) {
    match term {
        Term::Iri(iri) => {
            out.push(TAG_IRI);
            out.extend_from_slice(iri.as_str().as_bytes());
        }
        Term::Literal(l) => match l.kind() {
            LiteralKind::Plain => {
                out.push(TAG_PLAIN);
                out.extend_from_slice(l.value().as_bytes());
            }
            LiteralKind::LanguageTagged(lang) => {
                out.push(TAG_LANG);
                // audit:allow(no-panic-decode): encode side — in-memory literals are far below 4 GiB
                let len = u32::try_from(l.value().len()).unwrap_or(u32::MAX);
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(l.value().as_bytes());
                out.extend_from_slice(lang.as_bytes());
            }
            LiteralKind::Typed(dt) => {
                out.push(TAG_TYPED);
                // audit:allow(no-panic-decode): encode side — in-memory literals are far below 4 GiB
                let len = u32::try_from(l.value().len()).unwrap_or(u32::MAX);
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(l.value().as_bytes());
                out.extend_from_slice(dt.as_str().as_bytes());
            }
        },
    }
}

/// Decodes one term record **defensively**: any byte sequence decodes to
/// *some* term without panicking. For records this crate wrote, the
/// decode is exact; a crafted record (checksums rule out accidental
/// corruption) degrades to a lossy plain literal. Keeping the decoder
/// total is what lets the open path skip a per-record validation scan —
/// the only structural facts accessors rely on are the offset-array
/// invariants, which *are* validated.
fn decode_term_record(rec: &[u8]) -> Term {
    let lossy = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    match rec.split_first() {
        Some((&TAG_IRI, rest)) => Term::Iri(Iri::new(lossy(rest))),
        Some((&TAG_PLAIN, rest)) => Term::Literal(Literal::plain(lossy(rest))),
        Some((&tag, rest)) if (tag == TAG_LANG || tag == TAG_TYPED) && rest.len() >= 4 => {
            let payload = rest.get(4..).unwrap_or_default();
            let vl = wire::saturating_usize(u64::from(le_u32(rest, 0))).min(payload.len());
            let (value_bytes, qualifier) = payload.split_at_checked(vl).unwrap_or((payload, &[]));
            let value = lossy(value_bytes);
            if tag == TAG_LANG {
                Term::Literal(Literal::lang_tagged(value, lossy(qualifier)))
            } else {
                Term::Literal(Literal::typed(value, Iri::new(lossy(qualifier))))
            }
        }
        // Unknown tag / truncated qualifier record / empty record:
        // degrade to a lossy literal of the raw bytes.
        _ => Term::Literal(Literal::plain(lossy(rec))),
    }
}

// ----------------------------------------------------------------------
// KB encoding
// ----------------------------------------------------------------------

/// Appends the full section set of one [`Kb`] under the given id base.
pub fn encode_kb_sections(kb: &Kb, base: u32, w: &mut SectionWriter) {
    let n = kb.terms.len();
    let nrel = kb.relation_names.len();

    let mut meta = PayloadWriter::new();
    meta.put_str(&kb.name);
    meta.put_u64(n as u64);
    meta.put_u64(nrel as u64);
    meta.put_u64(kb.classes.len() as u64);
    w.add(base + KB_META, meta.bytes());

    // Terms: blob + offsets + kinds + byte-sorted lookup permutation.
    let mut blob = Vec::new();
    let mut bounds = Vec::with_capacity(n + 1);
    bounds.push(0usize);
    for term in &kb.terms {
        encode_term_record(&mut blob, term);
        bounds.push(blob.len());
    }
    let mut offsets = PayloadWriter::new();
    for &b in &bounds {
        offsets.put_u64(b as u64);
    }
    w.add(base + KB_TERM_BLOB, &blob);
    w.add(base + KB_TERM_OFFSETS, offsets.bytes());

    let kinds: Vec<u8> = kb
        .kinds
        .iter()
        .map(|k| match k {
            EntityKind::Instance => 0u8,
            EntityKind::Class => 1,
            EntityKind::Literal => 2,
        })
        .collect();
    w.add(base + KB_TERM_KINDS, &kinds);

    let mut sorted: Vec<u32> = (0..n as u32).collect();
    let record = |i: u32| {
        let i = wire::saturating_usize(u64::from(i));
        let start = bounds.get(i).copied().unwrap_or(0);
        let end = bounds.get(i.wrapping_add(1)).copied().unwrap_or(start);
        blob.get(start..end).unwrap_or_default()
    };
    sorted.sort_unstable_by(|&a, &b| record(a).cmp(record(b)));
    let mut sorted_bytes = PayloadWriter::new();
    for id in sorted {
        sorted_bytes.put_u32(id);
    }
    w.add(base + KB_TERM_SORTED, sorted_bytes.bytes());

    // Relations.
    let mut rel_blob = Vec::new();
    let mut rel_offsets = PayloadWriter::new();
    rel_offsets.put_u64(0);
    for iri in &kb.relation_names {
        rel_blob.extend_from_slice(iri.as_str().as_bytes());
        rel_offsets.put_u64(rel_blob.len() as u64);
    }
    w.add(base + KB_REL_BLOB, &rel_blob);
    w.add(base + KB_REL_OFFSETS, rel_offsets.bytes());

    // Per-relation pair lists.
    let mut pair_offsets = PayloadWriter::new();
    let mut pairs = PayloadWriter::new();
    let mut total = 0u64;
    pair_offsets.put_u64(0);
    for list in &kb.pairs {
        total += list.len() as u64;
        pair_offsets.put_u64(total);
        for &(x, y) in list {
            pairs.put_u32(x.0);
            pairs.put_u32(y.0);
        }
    }
    w.add(base + KB_PAIR_OFFSETS, pair_offsets.bytes());
    w.add(base + KB_PAIRS, pairs.bytes());

    // Both-direction adjacency, stored verbatim.
    let mut adj_offsets = PayloadWriter::new();
    let mut adj = PayloadWriter::new();
    let mut total = 0u64;
    adj_offsets.put_u64(0);
    for row in &kb.adj {
        total += row.len() as u64;
        adj_offsets.put_u64(total);
        for &(r, e) in row {
            adj.put_u32(r.0);
            adj.put_u32(e.0);
        }
    }
    w.add(base + KB_ADJ_OFFSETS, adj_offsets.bytes());
    w.add(base + KB_ADJ, adj.bytes());

    let mut classes = PayloadWriter::new();
    for c in &kb.classes {
        classes.put_u32(c.0);
    }
    w.add(base + KB_CLASSES, classes.bytes());

    add_map_sections(w, base + KB_MEMBERS, &kb.class_members);
    add_map_sections(w, base + KB_TYPES, &kb.types_of);
    add_map_sections(w, base + KB_SUPER, &kb.superclasses);

    let mut fun = PayloadWriter::new();
    for &f in &kb.fun {
        fun.put_f64(f);
    }
    w.add(base + KB_FUN, fun.bytes());
}

fn add_map_sections(w: &mut SectionWriter, base: u32, map: &FxHashMap<EntityId, Vec<EntityId>>) {
    let mut entries: Vec<(EntityId, &Vec<EntityId>)> = map.iter().map(|(&k, v)| (k, v)).collect();
    entries.sort_unstable_by_key(|&(k, _)| k);
    let mut key_bytes = PayloadWriter::new();
    let mut offsets = PayloadWriter::new();
    let mut values = PayloadWriter::new();
    let mut total = 0u64;
    offsets.put_u64(0);
    for (k, row) in entries {
        key_bytes.put_u32(k.0);
        total += row.len() as u64;
        offsets.put_u64(total);
        for v in row {
            values.put_u32(v.0);
        }
    }
    w.add(base, key_bytes.bytes());
    w.add(base + 1, offsets.bytes());
    w.add(base + 2, values.bytes());
}

// ----------------------------------------------------------------------
// KB layout validation + view
// ----------------------------------------------------------------------

/// Resolved byte ranges of one map's three sections.
#[derive(Clone, Debug)]
struct MapLayout {
    keys: Range<usize>,
    offsets: Range<usize>,
    values: Range<usize>,
    num_keys: usize,
}

impl MapLayout {
    fn validate(
        snap: &SnapshotArena,
        base: u32,
        num_entities: u32,
        what: &str,
    ) -> Result<MapLayout, SnapshotError> {
        let buf = snap.bytes();
        let keys = snap.required(base, &format!("{what} keys"))?;
        let offsets = snap.required(base + 1, &format!("{what} offsets"))?;
        let values = snap.required(base + 2, &format!("{what} values"))?;
        if keys.len() % 4 != 0 || values.len() % 4 != 0 {
            return Err(SnapshotError::corrupt(format!(
                "section {what} keys/values are not u32 arrays"
            )));
        }
        let num_keys = keys.len() / 4;
        let key_buf = wire::slice(buf, keys.clone());
        check_ids(key_buf, num_entities, &format!("{what} keys"))?;
        for i in 1..num_keys {
            if le_u32(key_buf, i - 1) >= le_u32(key_buf, i) {
                return Err(SnapshotError::corrupt(format!(
                    "section {what} keys are not strictly sorted"
                )));
            }
        }
        check_offsets(
            wire::slice(buf, offsets.clone()),
            num_keys,
            (values.len() / 4) as u64,
            &format!("{what} offsets"),
        )?;
        check_ids(
            wire::slice(buf, values.clone()),
            num_entities,
            &format!("{what} values"),
        )?;
        Ok(MapLayout {
            keys,
            offsets,
            values,
            num_keys,
        })
    }
}

/// Validated byte ranges of one KB's sections within a [`SnapshotArena`],
/// plus the decoded META counts. Building a layout proves every array
/// size, offset, and id of the KB consistent, so [`KbView`] accessors can
/// index without failure paths.
#[derive(Clone, Debug)]
pub struct KbLayout {
    name: String,
    num_entities: usize,
    num_relations: usize,
    num_classes: usize,
    term_blob: Range<usize>,
    term_offsets: Range<usize>,
    term_kinds: Range<usize>,
    term_sorted: Range<usize>,
    rel_blob: Range<usize>,
    rel_offsets: Range<usize>,
    pair_offsets: Range<usize>,
    pairs: Range<usize>,
    adj_offsets: Range<usize>,
    adj: Range<usize>,
    classes: Range<usize>,
    members: MapLayout,
    types_of: MapLayout,
    superclasses: MapLayout,
    fun: Range<usize>,
}

impl KbLayout {
    /// Validates the KB sections under `base` and resolves their ranges.
    pub fn validate(snap: &SnapshotArena, base: u32) -> Result<KbLayout, SnapshotError> {
        let buf = snap.bytes();
        let meta_range = snap.required(base + KB_META, "KB meta")?;
        let mut meta = PayloadReader::new(wire::slice(buf, meta_range));
        let name = meta.get_str()?.to_owned();
        // Range-check the counts as u64 *before* narrowing, so a hostile
        // count cannot truncate into range on a 32-bit target.
        let num_entities64 = meta.get_u64()?;
        let num_relations64 = meta.get_u64()?;
        let num_classes64 = meta.get_u64()?;
        if !meta.is_exhausted() {
            return Err(SnapshotError::corrupt("trailing bytes in KB meta"));
        }
        if num_entities64 > u64::from(u32::MAX)
            || num_relations64 > u64::from(u32::MAX / 2)
            || num_classes64 > num_entities64
        {
            return Err(SnapshotError::corrupt("KB meta counts out of range"));
        }
        let num_entities = wire::saturating_usize(num_entities64);
        let num_relations = wire::saturating_usize(num_relations64);
        let num_classes = wire::saturating_usize(num_classes64);
        let n = num_entities;
        let n32 = num_entities64 as u32;
        let nrel = num_relations;

        let term_blob = snap.required(base + KB_TERM_BLOB, "term blob")?;
        let term_offsets = snap.required(base + KB_TERM_OFFSETS, "term offsets")?;
        // Monotonic offsets ending at the blob length are the only
        // structural fact term access relies on: record *contents* are
        // decoded defensively (see decode_term_record), so no per-record
        // scan is needed on the open path.
        check_offsets(
            wire::slice(buf, term_offsets.clone()),
            n,
            term_blob.len() as u64,
            "term offsets",
        )?;

        let term_kinds = snap.required(base + KB_TERM_KINDS, "term kinds")?;
        expect_len(wire::slice(buf, term_kinds.clone()), n, "term kinds")?;
        if wire::slice(buf, term_kinds.clone())
            .iter()
            .fold(0u8, |a, &k| a.max(k))
            > 2
        {
            return Err(SnapshotError::corrupt("unknown entity kind"));
        }

        // The lookup index must be a valid permutation *target-wise* (ids
        // in range — that is what keeps access safe); its byte-order
        // sortedness is the writer's contract and is exercised by tests,
        // not re-proved per open. A crafted index degrades lookups to
        // wrong/absent answers, never to panics or out-of-bounds reads.
        let term_sorted = snap.required(base + KB_TERM_SORTED, "term lookup index")?;
        expect_len(
            wire::slice(buf, term_sorted.clone()),
            4 * n,
            "term lookup index",
        )?;
        check_ids(
            wire::slice(buf, term_sorted.clone()),
            n32.max(1),
            "term lookup index",
        )?;

        let rel_blob = snap.required(base + KB_REL_BLOB, "relation blob")?;
        let rel_offsets = snap.required(base + KB_REL_OFFSETS, "relation offsets")?;
        check_offsets(
            wire::slice(buf, rel_offsets.clone()),
            nrel,
            rel_blob.len() as u64,
            "relation offsets",
        )?;
        let rel_offsets_buf = wire::slice(buf, rel_offsets.clone());
        let rel_blob_buf = wire::slice(buf, rel_blob.clone());
        for i in 0..nrel {
            let start = wire::saturating_usize(le_u64(rel_offsets_buf, i));
            let end = wire::saturating_usize(le_u64(rel_offsets_buf, i + 1));
            let iri_bytes = rel_blob_buf.get(start..end).unwrap_or_default();
            if std::str::from_utf8(iri_bytes).is_err() {
                return Err(SnapshotError::corrupt("relation IRI is not UTF-8"));
            }
        }

        let pair_offsets = snap.required(base + KB_PAIR_OFFSETS, "pair offsets")?;
        let pairs = snap.required(base + KB_PAIRS, "pairs")?;
        if pairs.len() % 8 != 0 {
            return Err(SnapshotError::corrupt("pairs section is not (u32, u32)"));
        }
        check_offsets(
            wire::slice(buf, pair_offsets.clone()),
            nrel,
            (pairs.len() / 8) as u64,
            "pair offsets",
        )?;
        check_ids(wire::slice(buf, pairs.clone()), n32.max(1), "pairs")?;
        if n == 0 && !pairs.is_empty() {
            return Err(SnapshotError::corrupt("pairs without entities"));
        }

        let adj_offsets = snap.required(base + KB_ADJ_OFFSETS, "adjacency offsets")?;
        let adj = snap.required(base + KB_ADJ, "adjacency")?;
        if adj.len() % 8 != 0 {
            return Err(SnapshotError::corrupt(
                "adjacency section is not (u32, u32)",
            ));
        }
        check_offsets(
            wire::slice(buf, adj_offsets.clone()),
            n,
            (adj.len() / 8) as u64,
            "adjacency offsets",
        )?;
        // Branch-free max-fold over both lanes of the (rel, entity)
        // entries — the adjacency is the largest section of a KB and
        // this is the open path.
        let adj_buf = wire::slice(buf, adj.clone());
        let directed = (2 * nrel) as u32;
        let (mut max_r, mut max_e) = (0u32, 0u32);
        for entry in adj_buf.chunks_exact(8) {
            max_r = max_r.max(le_u32(entry, 0));
            max_e = max_e.max(le_u32(entry, 1));
        }
        if !adj_buf.is_empty() && (max_r >= directed || max_e >= n32) {
            return Err(SnapshotError::corrupt(format!(
                "adjacency entry out of range (max relation {max_r} of {directed}, \
                 max entity {max_e} of {n32})"
            )));
        }

        let classes = snap.required(base + KB_CLASSES, "classes")?;
        expect_len(
            wire::slice(buf, classes.clone()),
            4 * num_classes,
            "classes",
        )?;
        check_ids(wire::slice(buf, classes.clone()), n32.max(1), "classes")?;

        let members = MapLayout::validate(snap, base + KB_MEMBERS, n32, "class members")?;
        let types_of = MapLayout::validate(snap, base + KB_TYPES, n32, "types")?;
        let superclasses = MapLayout::validate(snap, base + KB_SUPER, n32, "superclasses")?;

        let fun = snap.required(base + KB_FUN, "functionalities")?;
        expect_len(
            wire::slice(buf, fun.clone()),
            8 * 2 * nrel,
            "functionalities",
        )?;

        Ok(KbLayout {
            name,
            num_entities,
            num_relations,
            num_classes,
            term_blob,
            term_offsets,
            term_kinds,
            term_sorted,
            rel_blob,
            rel_offsets,
            pair_offsets,
            pairs,
            adj_offsets,
            adj,
            classes,
            members,
            types_of,
            superclasses,
            fun,
        })
    }

    /// The KB's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of interned entities.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Number of base (forward) relations.
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// A borrowing view over this layout's sections.
    pub fn view<'a>(&'a self, snap: &'a SnapshotArena) -> KbView<'a> {
        KbView {
            buf: snap.bytes(),
            layout: self,
        }
    }
}

/// A zero-copy, read-in-place view of one KB inside a v2 snapshot —
/// the arena-backed counterpart of [`Kb`] for the serving query paths.
/// Cheap to construct (two pointers); all accessors index the validated
/// sections directly.
#[derive(Clone, Copy)]
pub struct KbView<'a> {
    buf: &'a [u8],
    layout: &'a KbLayout,
}

impl<'a> KbView<'a> {
    #[inline]
    fn sec(&self, r: &Range<usize>) -> &'a [u8] {
        // Section ranges were bounds-validated when the arena was opened;
        // the empty-slice fallback keeps this provably panic-free.
        self.buf.get(r.start..r.end).unwrap_or_default()
    }

    /// The KB's display name.
    pub fn name(&self) -> &'a str {
        &self.layout.name
    }

    /// Total number of interned entities.
    pub fn num_entities(&self) -> usize {
        self.layout.num_entities
    }

    /// Number of base (forward) relations.
    pub fn num_base_relations(&self) -> usize {
        self.layout.num_relations
    }

    /// Number of directed relations.
    pub fn num_directed_relations(&self) -> usize {
        self.layout.num_relations * 2
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.layout.num_classes
    }

    /// Total number of stored forward facts.
    pub fn num_facts(&self) -> usize {
        self.layout.pairs.len() / 8
    }

    /// The kind of an entity.
    #[inline]
    pub fn kind(&self, e: EntityId) -> EntityKind {
        match self.sec(&self.layout.term_kinds).get(e.index()) {
            Some(0) => EntityKind::Instance,
            Some(1) => EntityKind::Class,
            _ => EntityKind::Literal,
        }
    }

    /// The raw encoded record of an entity's term.
    #[inline]
    fn term_record(&self, e: EntityId) -> &'a [u8] {
        let offsets = self.sec(&self.layout.term_offsets);
        let start = wire::saturating_usize(le_u64(offsets, e.index()));
        let end = wire::saturating_usize(le_u64(offsets, e.index() + 1));
        self.sec(&self.layout.term_blob)
            .get(start..end)
            .unwrap_or_default()
    }

    /// Decodes the term of an entity (allocates for the one entity only).
    pub fn term(&self, e: EntityId) -> Term {
        decode_term_record(self.term_record(e))
    }

    /// The IRI string of a resource entity, `None` for literals.
    pub fn iri_str(&self, e: EntityId) -> Option<&'a str> {
        let rec = self.term_record(e);
        match rec.split_first() {
            Some((&TAG_IRI, rest)) => std::str::from_utf8(rest).ok(),
            _ => None,
        }
    }

    /// Looks up an entity by exact term (binary search over the byte-
    /// sorted index — no hash map exists in a v2 image).
    pub fn entity(&self, term: &Term) -> Option<EntityId> {
        let mut probe = Vec::with_capacity(64);
        encode_term_record(&mut probe, term);
        self.entity_by_record(&probe)
    }

    /// Looks up a resource entity by IRI string.
    pub fn entity_by_iri(&self, iri: &str) -> Option<EntityId> {
        let mut probe = Vec::with_capacity(iri.len() + 1);
        probe.push(TAG_IRI);
        probe.extend_from_slice(iri.as_bytes());
        self.entity_by_record(&probe)
    }

    fn entity_by_record(&self, probe: &[u8]) -> Option<EntityId> {
        let sorted = self.sec(&self.layout.term_sorted);
        let (mut lo, mut hi) = (0usize, self.layout.num_entities);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let id = EntityId(le_u32(sorted, mid));
            match self.term_record(id).cmp(probe) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(id),
            }
        }
        None
    }

    /// The IRI of a directed relation's base relation.
    pub fn relation_iri_str(&self, r: RelationId) -> &'a str {
        let offsets = self.sec(&self.layout.rel_offsets);
        let start = wire::saturating_usize(le_u64(offsets, r.base_index()));
        let end = wire::saturating_usize(le_u64(offsets, r.base_index() + 1));
        let bytes = self
            .sec(&self.layout.rel_blob)
            .get(start..end)
            .unwrap_or_default();
        // UTF-8 validated at open.
        std::str::from_utf8(bytes).unwrap_or("")
    }

    /// Looks up the forward direction of a relation by IRI (linear scan —
    /// relation counts are small and this is off the hot path).
    pub fn relation_by_iri(&self, iri: &str) -> Option<RelationId> {
        (0..self.layout.num_relations)
            .map(RelationId::forward)
            .find(|&r| self.relation_iri_str(r) == iri)
    }

    /// The global functionality of a directed relation.
    #[inline]
    pub fn functionality(&self, r: RelationId) -> f64 {
        le_f64(self.sec(&self.layout.fun), r.directed_index())
    }

    /// Number of statements around an entity (both directions).
    #[inline]
    pub fn facts_len(&self, e: EntityId) -> usize {
        let offsets = self.sec(&self.layout.adj_offsets);
        wire::saturating_usize(
            le_u64(offsets, e.index() + 1).saturating_sub(le_u64(offsets, e.index())),
        )
    }

    /// All statements `r(x, y)` with `x = e`, both directions, in the
    /// stored (sorted) order — the view equivalent of [`Kb::facts`].
    pub fn facts(&self, e: EntityId) -> impl ExactSizeIterator<Item = (RelationId, EntityId)> + 'a {
        let offsets = self.sec(&self.layout.adj_offsets);
        let start = wire::saturating_usize(le_u64(offsets, e.index()));
        let end = wire::saturating_usize(le_u64(offsets, e.index() + 1));
        let adj = self.sec(&self.layout.adj);
        (start..end).map(move |i| {
            (
                RelationId(le_u32(adj, 2 * i)),
                EntityId(le_u32(adj, 2 * i + 1)),
            )
        })
    }

    /// Sorted forward pairs of one base relation.
    pub fn base_pairs(
        &self,
        base: usize,
    ) -> impl ExactSizeIterator<Item = (EntityId, EntityId)> + 'a {
        let offsets = self.sec(&self.layout.pair_offsets);
        let start = wire::saturating_usize(le_u64(offsets, base));
        let end = wire::saturating_usize(le_u64(offsets, base + 1));
        let pairs = self.sec(&self.layout.pairs);
        (start..end).map(move |i| {
            (
                EntityId(le_u32(pairs, 2 * i)),
                EntityId(le_u32(pairs, 2 * i + 1)),
            )
        })
    }

    /// All class entities.
    pub fn classes(&self) -> impl ExactSizeIterator<Item = EntityId> + 'a {
        let buf = self.sec(&self.layout.classes);
        (0..self.layout.num_classes).map(move |i| EntityId(le_u32(buf, i)))
    }

    fn map_entries(
        &self,
        map: &'a MapLayout,
    ) -> impl Iterator<Item = (EntityId, Vec<EntityId>)> + 'a {
        let keys = self.sec(&map.keys);
        let offsets = self.sec(&map.offsets);
        let values = self.sec(&map.values);
        (0..map.num_keys).map(move |i| {
            let start = wire::saturating_usize(le_u64(offsets, i));
            let end = wire::saturating_usize(le_u64(offsets, i + 1));
            let row = (start..end).map(|j| EntityId(le_u32(values, j))).collect();
            (EntityId(le_u32(keys, i)), row)
        })
    }

    /// Table-2-style statistics (one scan over the kinds section).
    pub fn stats(&self) -> KbStats {
        let mut instances = 0;
        let mut literals = 0;
        for &k in self.sec(&self.layout.term_kinds) {
            match k {
                0 => instances += 1,
                2 => literals += 1,
                _ => {}
            }
        }
        KbStats {
            name: self.layout.name.clone(),
            instances,
            classes: self.layout.num_classes,
            relations: self.layout.num_relations,
            facts: self.num_facts(),
            literals,
        }
    }

    /// Fully decodes ("hydrates") this view into an owned [`Kb`] — the
    /// bridge back to every API that needs an owned KB (deltas, jobs).
    /// This is the expensive path v2 serving avoids.
    pub fn to_kb(&self) -> Kb {
        let n = self.layout.num_entities;
        let terms: Vec<Term> = (0..n).map(|i| self.term(EntityId::from_index(i))).collect();
        let kinds: Vec<EntityKind> = (0..n).map(|i| self.kind(EntityId::from_index(i))).collect();
        let mut term_index: FxHashMap<Term, EntityId> =
            FxHashMap::with_capacity_and_hasher(n, Default::default());
        term_index.extend(
            terms
                .iter()
                .enumerate()
                .map(|(i, t)| (t.clone(), EntityId::from_index(i))),
        );
        let relation_names: Vec<Iri> = (0..self.layout.num_relations)
            .map(|b| Iri::new(self.relation_iri_str(RelationId::forward(b))))
            .collect();
        let relation_index: FxHashMap<Iri, u32> = relation_names
            .iter()
            .enumerate()
            .map(|(i, iri)| (iri.clone(), i as u32))
            .collect();
        let pairs: Vec<Vec<(EntityId, EntityId)>> = (0..self.layout.num_relations)
            .map(|b| self.base_pairs(b).collect())
            .collect();
        let adj: Vec<Vec<(RelationId, EntityId)>> = (0..n)
            .map(|i| self.facts(EntityId::from_index(i)).collect())
            .collect();
        let fun: Vec<f64> = (0..2 * self.layout.num_relations)
            .map(|i| le_f64(self.sec(&self.layout.fun), i))
            .collect();
        Kb {
            name: self.layout.name.clone(),
            terms,
            kinds,
            term_index,
            relation_names,
            relation_index,
            adj,
            pairs,
            classes: self.classes().collect(),
            class_members: self.map_entries(&self.layout.members).collect(),
            types_of: self.map_entries(&self.layout.types_of).collect(),
            superclasses: self.map_entries(&self.layout.superclasses).collect(),
            fun,
        }
    }
}

impl std::fmt::Debug for KbView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KbView")
            .field("name", &self.layout.name)
            .field("entities", &self.num_entities())
            .field("relations", &self.num_base_relations())
            .field("facts", &self.num_facts())
            .finish()
    }
}

// ----------------------------------------------------------------------
// Single-KB convenience API
// ----------------------------------------------------------------------

/// Serializes one KB into a framed v2 snapshot byte vector.
pub fn kb_to_bytes_v2(kb: &Kb) -> Vec<u8> {
    let mut w = SectionWriter::new();
    encode_kb_sections(kb, KB1_BASE, &mut w);
    w.finish(SnapshotKind::Kb)
}

/// Writes a single-KB v2 snapshot file (atomically).
pub fn save_kb_v2(kb: &Kb, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
    let mut w = SectionWriter::new();
    encode_kb_sections(kb, KB1_BASE, &mut w);
    w.write_file(SnapshotKind::Kb, path)
}

/// An opened, validated single-KB v2 snapshot.
#[derive(Debug)]
pub struct MappedKbSnapshot {
    arena: SnapshotArena,
    layout: KbLayout,
}

impl MappedKbSnapshot {
    /// Opens and validates a single-KB v2 snapshot file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        MappedKbSnapshot::from_arena(SnapshotArena::open(path)?)
    }

    /// Validates an in-memory single-KB v2 image.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        MappedKbSnapshot::from_arena(SnapshotArena::from_bytes(bytes)?)
    }

    fn from_arena(arena: SnapshotArena) -> Result<Self, SnapshotError> {
        if arena.kind() != SnapshotKind::Kb {
            return Err(SnapshotError::corrupt(format!(
                "expected a single-KB snapshot, found a {}",
                arena.kind().name()
            )));
        }
        let layout = KbLayout::validate(&arena, KB1_BASE)?;
        Ok(MappedKbSnapshot { arena, layout })
    }

    /// The underlying arena.
    pub fn arena(&self) -> &SnapshotArena {
        &self.arena
    }

    /// The KB view.
    pub fn kb(&self) -> KbView<'_> {
        self.layout.view(&self.arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KbBuilder;

    #[test]
    fn streamed_checksum_matches_in_memory() {
        // Every alignment class around the 8/32-byte boundaries, plus
        // sizes spanning multiple read chunks (buffer is 32 KiB).
        for len in [
            0usize,
            1,
            7,
            8,
            9,
            31,
            32,
            33,
            63,
            64,
            100,
            1000,
            32 * 1024 - 1,
            32 * 1024,
            32 * 1024 + 1,
            100_000,
        ] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            assert_eq!(
                checksum_v2_stream(&mut &bytes[..], len as u64).unwrap(),
                checksum_v2(&bytes),
                "len {len}"
            );
        }
        // A reader that cannot yield the promised length errors.
        assert!(checksum_v2_stream(&mut &[0u8; 3][..], 4).is_err());
    }

    fn sample_kb() -> Kb {
        let mut b = KbBuilder::new("sample");
        b.add_fact("http://x/Elvis", "http://x/bornIn", "http://x/Tupelo");
        b.add_fact("http://x/Carl", "http://x/bornIn", "http://x/Tupelo");
        b.add_literal_fact(
            "http://x/Elvis",
            "http://x/name",
            Literal::plain("Elvis Presley"),
        );
        b.add_literal_fact(
            "http://x/Elvis",
            "http://x/label",
            Literal::lang_tagged("Elvis", "en"),
        );
        b.add_literal_fact(
            "http://x/Elvis",
            "http://x/born",
            Literal::typed("1935", "http://www.w3.org/2001/XMLSchema#gYear"),
        );
        b.add_type("http://x/Elvis", "http://x/Singer");
        b.add_subclass("http://x/Singer", "http://x/Person");
        b.build()
    }

    #[test]
    fn v2_view_answers_match_the_kb() {
        let kb = sample_kb();
        let snap = MappedKbSnapshot::from_bytes(kb_to_bytes_v2(&kb)).unwrap();
        let view = snap.kb();

        assert_eq!(view.name(), kb.name());
        assert_eq!(view.num_entities(), kb.num_entities());
        assert_eq!(view.num_facts(), kb.num_facts());
        assert_eq!(view.num_classes(), kb.num_classes());
        assert_eq!(view.stats(), KbStats::of(&kb));

        // Every term round-trips and every lookup agrees.
        for e in kb.entities() {
            assert_eq!(&view.term(e), kb.term(e), "{e:?}");
            assert_eq!(view.kind(e), kb.kind(e));
            assert_eq!(view.entity(kb.term(e)), Some(e));
            let view_facts: Vec<_> = view.facts(e).collect();
            assert_eq!(view_facts.as_slice(), kb.facts(e), "{e:?}");
        }
        assert_eq!(
            view.entity_by_iri("http://x/Elvis"),
            kb.entity_by_iri("http://x/Elvis")
        );
        assert_eq!(view.entity_by_iri("http://x/Nobody"), None);

        let born_in = kb.relation_by_iri("http://x/bornIn").unwrap();
        assert_eq!(view.relation_by_iri("http://x/bornIn"), Some(born_in));
        assert_eq!(view.relation_iri_str(born_in), "http://x/bornIn");
        assert_eq!(view.functionality(born_in), kb.functionality(born_in));
        assert_eq!(
            view.functionality(born_in.inverse()),
            kb.functionality(born_in.inverse())
        );
    }

    #[test]
    fn hydrated_kb_is_field_identical() {
        let kb = sample_kb();
        let snap = MappedKbSnapshot::from_bytes(kb_to_bytes_v2(&kb)).unwrap();
        let back = snap.kb().to_kb();
        assert_eq!(KbStats::of(&back), KbStats::of(&kb));
        for e in kb.entities() {
            assert_eq!(back.term(e), kb.term(e));
            assert_eq!(back.facts(e), kb.facts(e));
            assert_eq!(back.types_of(e), kb.types_of(e));
        }
        for r in kb.directed_relations() {
            assert_eq!(back.functionality(r), kb.functionality(r));
        }
        assert_eq!(back.classes(), kb.classes());
    }

    #[test]
    fn v2_open_survives_file_round_trip() {
        let kb = sample_kb();
        let path = std::env::temp_dir().join("paris_snapshot_v2_unit.snap");
        save_kb_v2(&kb, &path).unwrap();
        let snap = MappedKbSnapshot::open(&path).unwrap();
        assert_eq!(snap.kb().stats(), KbStats::of(&kb));
        #[cfg(unix)]
        assert!(snap.arena().is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_flipped_byte_is_rejected() {
        let kb = sample_kb();
        let bytes = kb_to_bytes_v2(&kb);
        // Exhaustive for a small image: *no* byte may flip silently.
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x20;
            assert!(
                MappedKbSnapshot::from_bytes(corrupted).is_err(),
                "flip at byte {i} was not detected"
            );
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let kb = sample_kb();
        let bytes = kb_to_bytes_v2(&kb);
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN + 13, bytes.len() - 1] {
            assert!(
                SnapshotArena::from_bytes(bytes[..cut].to_vec()).is_err(),
                "truncation at {cut}"
            );
        }
    }

    #[test]
    fn v1_framed_files_are_not_v2() {
        let delta = crate::delta::KbDelta::new("sample").to_bytes();
        assert!(matches!(
            SnapshotArena::from_bytes(delta),
            Err(SnapshotError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let kb = sample_kb();
        let mut w = SectionWriter::new();
        encode_kb_sections(&kb, KB1_BASE, &mut w);
        let bytes = w.finish(SnapshotKind::AlignedPair);
        let err = MappedKbSnapshot::from_bytes(bytes).unwrap_err();
        assert!(err.to_string().contains("expected a single-KB"), "{err}");
    }

    #[test]
    fn empty_kb_round_trips() {
        let kb = KbBuilder::new("empty").build();
        let snap = MappedKbSnapshot::from_bytes(kb_to_bytes_v2(&kb)).unwrap();
        assert_eq!(snap.kb().num_entities(), 0);
        assert_eq!(snap.kb().num_facts(), 0);
        assert_eq!(snap.kb().entity_by_iri("http://x/y"), None);
        assert_eq!(KbStats::of(&snap.kb().to_kb()), KbStats::of(&kb));
    }
}
