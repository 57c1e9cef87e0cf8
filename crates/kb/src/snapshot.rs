//! The framing shared by every PARIS binary file: magic, version, kind,
//! checksummed payload, atomic replace.
//!
//! The paper's implementation kept its ontologies in Berkeley DB so a run
//! could restart without re-ingesting the source files (§5.2). Here that
//! job is done by the zero-copy section image of [`crate::snapshot_v2`];
//! this module holds what that format and the delta format
//! ([`crate::delta`]) have in common — the 12-byte magic + version prefix
//! every file starts with, the little-endian payload primitives, the
//! tagged term encoding, and the temp-file-then-rename writer — plus the
//! one whole-payload frame deltas are stored in.
//!
//! # Delta frame layout
//!
//! ```text
//! magic    [8]  b"PARISNAP"
//! version  u32  frame version (1)
//! kind     u8   3 = KB delta (1 and 2 name the snapshot kinds of v2 images)
//! reserved [3]  zero
//! length   u64  payload byte count
//! checksum u64  FNV-1a 64 of the payload
//! payload  [length] kind-specific body, built from the primitives below
//! ```
//!
//! Every integer is little-endian; strings are a u64 byte length followed
//! by UTF-8; `f64`s are stored via `to_bits`.
//!
//! Readers validate the magic, version, length, and checksum before
//! touching the payload, and every decode is bounds-checked — a
//! truncated or bit-flipped file yields a [`SnapshotError`], never a
//! panic or a silently wrong value.
//!
//! Snapshots were once stored in this frame too (format v1, a
//! decode-on-load record stream). That body is retired: the snapshot
//! readers refuse a version-1 file with
//! [`SnapshotError::UnsupportedVersion`]`(1)`, whose message says to
//! re-create it.

use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

use paris_rdf::term::{Iri, Literal, Term};

use crate::wire;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"PARISNAP";

/// Format version of the binary delta frame in this module.
pub const DELTA_FORMAT_VERSION: u32 = 1;

/// What a snapshot file contains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A single knowledge base.
    Kb,
    /// Two knowledge bases plus their computed alignment.
    AlignedPair,
    /// A [`KbDelta`](crate::delta::KbDelta): facts to add to / remove from
    /// one KB.
    Delta,
}

impl SnapshotKind {
    pub(crate) fn to_byte(self) -> u8 {
        match self {
            SnapshotKind::Kb => 1,
            SnapshotKind::AlignedPair => 2,
            SnapshotKind::Delta => 3,
        }
    }

    pub(crate) fn from_byte(b: u8) -> Result<Self, SnapshotError> {
        match b {
            1 => Ok(SnapshotKind::Kb),
            2 => Ok(SnapshotKind::AlignedPair),
            3 => Ok(SnapshotKind::Delta),
            other => Err(SnapshotError::corrupt(format!(
                "unknown snapshot kind {other}"
            ))),
        }
    }

    /// Human-readable name, used in kind-mismatch errors.
    pub fn name(self) -> &'static str {
        match self {
            SnapshotKind::Kb => "single KB",
            SnapshotKind::AlignedPair => "aligned pair",
            SnapshotKind::Delta => "KB delta",
        }
    }
}

/// Everything that can go wrong reading or writing a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
    /// Structural corruption: truncation, out-of-range ids, bad UTF-8…
    Corrupt(String),
}

impl SnapshotError {
    /// A [`SnapshotError::Corrupt`] with the given description — public so
    /// downstream crates encoding their own sections (e.g. `paris-core`'s
    /// alignment tables) can report structural problems uniformly.
    pub fn corrupt(msg: impl Into<String>) -> Self {
        SnapshotError::Corrupt(msg.into())
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a PARIS snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(1) => write!(
                f,
                "snapshot format v1 was retired: re-create the file with \
                 `paris snapshot` or `paris ingest` (both write v2)"
            ),
            SnapshotError::UnsupportedVersion(v) => write!(
                f,
                "unsupported format version {v} for this reader \
                 (snapshots are v2 section images, deltas are v1 frames)"
            ),
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "payload checksum mismatch (header {expected:#018x}, computed {actual:#018x})"
            ),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// 64-bit corruption-detection checksum of a byte slice.
///
/// An FNV-style mix over 8-byte little-endian words (the trailing partial
/// word is zero-padded, and the total length is folded in so padding
/// cannot collide with real zeros). Word-at-a-time keeps validation off
/// the critical path of snapshot loading — this is integrity checking
/// against truncation and bit rot, not cryptography.
pub fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = 0xCBF2_9CE4_8422_2325u64 ^ (bytes.len() as u64).wrapping_mul(PRIME);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let v = wire::le_u64(w, 0);
        hash = (hash ^ v).wrapping_mul(PRIME).rotate_left(23);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        for (dst, &b) in last.iter_mut().zip(tail) {
            *dst = b;
        }
        hash = (hash ^ u64::from_le_bytes(last))
            .wrapping_mul(PRIME)
            .rotate_left(23);
    }
    hash
}

// ----------------------------------------------------------------------
// Encoding primitives
// ----------------------------------------------------------------------

/// An append-only payload buffer with little-endian primitives.
#[derive(Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// An empty payload.
    pub fn new() -> Self {
        PayloadWriter::default()
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// A bounds-checked little-endian payload reader.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Wraps a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| SnapshotError::corrupt("unexpected end of payload"))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| SnapshotError::corrupt("unexpected end of payload"))?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        self.take(1)?
            .first()
            .copied()
            .ok_or_else(|| SnapshotError::corrupt("unexpected end of payload"))
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(wire::le_u32(self.take(4)?, 0))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(wire::le_u64(self.take(8)?, 0))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a collection length, rejecting values that cannot fit in the
    /// remaining payload (cheap guard against allocating on corruption).
    pub fn get_len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.get_u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n > remaining {
            return Err(SnapshotError::corrupt(format!(
                "length {n} exceeds remaining payload ({remaining} bytes)"
            )));
        }
        Ok(wire::saturating_usize(n))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SnapshotError> {
        let n = self.get_len()?;
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| SnapshotError::corrupt("invalid UTF-8 in string"))
    }
}

// ----------------------------------------------------------------------
// File framing
// ----------------------------------------------------------------------

const HEADER_LEN: usize = 8 + 4 + 1 + 3 + 8 + 8;

/// Builds the 32-byte frame header for a payload (the single source of
/// the layout, shared by the in-memory and atomic-file writers).
pub(crate) fn frame_header(kind: SnapshotKind, payload: &[u8]) -> Vec<u8> {
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&DELTA_FORMAT_VERSION.to_le_bytes());
    header.push(kind.to_byte());
    header.extend_from_slice(&[0u8; 3]);
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    header.extend_from_slice(&checksum(payload).to_le_bytes());
    header
}

/// Reads and fully validates a framed file: magic, version, length, checksum.
pub fn read_payload(r: &mut impl Read) -> Result<(SnapshotKind, Vec<u8>), SnapshotError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SnapshotError::corrupt("file shorter than the snapshot header")
        } else {
            SnapshotError::Io(e)
        }
    })?;
    if !header.starts_with(&MAGIC) {
        return Err(SnapshotError::BadMagic);
    }
    let version = wire::le_u32(&header, 2);
    if version != DELTA_FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let kind_and_reserved = wire::le_u32(&header, 3).to_le_bytes();
    let [kind_byte, reserved @ ..] = kind_and_reserved;
    let kind = SnapshotKind::from_byte(kind_byte)?;
    // The reserved bytes are always written as zero; validating them
    // means *every* header byte is covered by some check, so any
    // single-byte corruption of a framed file fails the load.
    if reserved != [0, 0, 0] {
        return Err(SnapshotError::corrupt("nonzero reserved header bytes"));
    }
    let length = wire::le_u64(&header, 2);
    let expected = wire::le_u64(&header, 3);

    // Read at most `length + 1` bytes: a file with trailing garbage (or a
    // lying header) errors out instead of being slurped into memory. The
    // allocation grows with the bytes actually read, so a huge declared
    // length on a short file cannot over-allocate either.
    let mut payload = Vec::new();
    r.take(length.saturating_add(1)).read_to_end(&mut payload)?;
    if (payload.len() as u64) > length {
        return Err(SnapshotError::corrupt(format!(
            "file continues beyond the declared payload length {length}"
        )));
    }
    if (payload.len() as u64) < length {
        return Err(SnapshotError::corrupt(format!(
            "payload is {} bytes, header declares {length}",
            payload.len()
        )));
    }
    let actual = checksum(&payload);
    if actual != expected {
        return Err(SnapshotError::ChecksumMismatch { expected, actual });
    }
    Ok((kind, payload))
}

/// Writes a file atomically (unique temp file + rename), from one or
/// more byte chunks. Shared by the delta frame below and the v2 section
/// writer — both promise that readers never observe a half-written
/// file, and that an mmap of the old file stays valid (the rename
/// replaces the directory entry, not the old inode).
pub fn write_bytes_atomic(path: impl AsRef<Path>, chunks: &[&[u8]]) -> Result<(), SnapshotError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    // Unique per process *and* per call, so concurrent writers targeting
    // the same directory (or even the same path) never share a temp file.
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let sequence = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp_name = path.file_name().unwrap_or_default().to_owned();
    tmp_name.push(format!(".tmp.{}.{sequence}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);

    let write = || -> Result<(), SnapshotError> {
        let mut f = std::fs::File::create(&tmp)?;
        for chunk in chunks {
            f.write_all(chunk)?;
        }
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    };
    write().inspect_err(|_| {
        std::fs::remove_file(&tmp).ok();
    })
}

/// Writes a framed file (atomically).
pub fn write_file(
    path: impl AsRef<Path>,
    kind: SnapshotKind,
    payload: &[u8],
) -> Result<(), SnapshotError> {
    write_bytes_atomic(path, &[&frame_header(kind, payload), payload])
}

/// Reads the magic and format version of a file without loading it.
pub fn peek_version(path: impl AsRef<Path>) -> Result<u32, SnapshotError> {
    let mut f = std::fs::File::open(path)?;
    let mut head = [0u8; 12];
    f.read_exact(&mut head).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SnapshotError::corrupt("file shorter than the snapshot magic")
        } else {
            SnapshotError::Io(e)
        }
    })?;
    peek_version_bytes(&head)
}

/// [`peek_version`] over bytes already in memory (the first 12 suffice) —
/// how the replication layer dispatches validation of a transferred image
/// without touching the filesystem.
pub fn peek_version_bytes(bytes: &[u8]) -> Result<u32, SnapshotError> {
    let Some(head) = bytes.get(..12) else {
        return Err(SnapshotError::corrupt(
            "file shorter than the snapshot magic",
        ));
    };
    if !head.starts_with(&MAGIC) {
        return Err(SnapshotError::BadMagic);
    }
    Ok(wire::le_u32(head, 2))
}

/// Reads and validates a framed file.
pub fn read_file(path: impl AsRef<Path>) -> Result<(SnapshotKind, Vec<u8>), SnapshotError> {
    let mut f = std::fs::File::open(path)?;
    read_payload(&mut f)
}

// ----------------------------------------------------------------------
// Terms
// ----------------------------------------------------------------------

const TERM_IRI: u8 = 0;
const TERM_PLAIN: u8 = 1;
const TERM_LANG: u8 = 2;
const TERM_TYPED: u8 = 3;

/// Appends one tagged [`Term`] to a payload.
#[inline]
pub fn put_term(w: &mut PayloadWriter, term: &Term) {
    match term {
        Term::Iri(iri) => {
            w.put_u8(TERM_IRI);
            w.put_str(iri.as_str());
        }
        Term::Literal(l) => match l.kind() {
            paris_rdf::term::LiteralKind::Plain => {
                w.put_u8(TERM_PLAIN);
                w.put_str(l.value());
            }
            paris_rdf::term::LiteralKind::LanguageTagged(lang) => {
                w.put_u8(TERM_LANG);
                w.put_str(l.value());
                w.put_str(lang);
            }
            paris_rdf::term::LiteralKind::Typed(dt) => {
                w.put_u8(TERM_TYPED);
                w.put_str(l.value());
                w.put_str(dt.as_str());
            }
        },
    }
}

/// Decodes one tagged [`Term`] written by [`put_term`].
#[inline]
pub fn get_term(r: &mut PayloadReader<'_>) -> Result<Term, SnapshotError> {
    Ok(match r.get_u8()? {
        TERM_IRI => Term::Iri(Iri::new(r.get_str()?)),
        TERM_PLAIN => Term::Literal(Literal::plain(r.get_str()?)),
        TERM_LANG => {
            let value = r.get_str()?;
            let lang = r.get_str()?;
            Term::Literal(Literal::lang_tagged(value, lang))
        }
        TERM_TYPED => {
            let value = r.get_str()?;
            let dt = r.get_str()?;
            Term::Literal(Literal::typed(value, Iri::new(dt)))
        }
        other => return Err(SnapshotError::corrupt(format!("unknown term tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed() -> Vec<u8> {
        let payload: Vec<u8> = (0u8..100).collect();
        let mut bytes = frame_header(SnapshotKind::Delta, &payload);
        bytes.extend_from_slice(&payload);
        bytes
    }

    #[test]
    fn frame_round_trips() {
        let (kind, payload) = read_payload(&mut &framed()[..]).unwrap();
        assert_eq!(kind, SnapshotKind::Delta);
        assert_eq!(payload, (0u8..100).collect::<Vec<_>>());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = framed();
        bytes[0] = b'X';
        assert!(matches!(
            read_payload(&mut &bytes[..]),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = framed();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            read_payload(&mut &bytes[..]),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let mut bytes = framed();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            read_payload(&mut &bytes[..]),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let bytes = framed();
        for cut in [0, 4, HEADER_LEN - 1, HEADER_LEN + 10, bytes.len() - 1] {
            let err = read_payload(&mut &bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Corrupt(_) | SnapshotError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn checksum_detects_single_bit_flips_and_length_changes() {
        assert_eq!(checksum(b""), 0xCBF2_9CE4_8422_2325);
        assert_ne!(checksum(b"a"), checksum(b"b"));
        // Zero-padding of the tail must not collide with explicit zeros.
        assert_ne!(checksum(b"abc"), checksum(b"abc\0"));
        assert_ne!(checksum(&[0u8; 7]), checksum(&[0u8; 8]));
        // A flip in any byte of a longer buffer changes the sum.
        let base: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let reference = checksum(&base);
        for i in [0, 7, 8, 499, 999] {
            let mut corrupted = base.clone();
            corrupted[i] ^= 0x10;
            assert_ne!(checksum(&corrupted), reference, "flip at {i}");
        }
    }
}
