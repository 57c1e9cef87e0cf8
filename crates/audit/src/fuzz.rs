//! Deterministic, structure-aware fuzzing of the workspace decoders.
//!
//! Every byte format the workspace accepts from disk or the network —
//! v2 section-table snapshots (single KB and aligned pair), deltas,
//! N-Triples, HTTP requests, JSON — has a fuzz target here. The
//! harness is seed-reproducible: the same `--seed`/`--iters` replays
//! the identical mutation stream (the RNG is the in-workspace
//! xoshiro256**, and nothing reads the clock), so a CI failure
//! reproduces locally with one command.
//!
//! The contract under test is *no panic, Err-not-abort*: a decoder
//! handed garbage must return its error type, never unwind. Panics
//! are caught, the offending input is greedily minimized, and the
//! caller writes it to `tests/corpus/<target>/` where the corpus
//! replay test keeps it as a permanent regression.
//!
//! Mutations: bit flips, random byte writes, truncation, random
//! insertion, cross-corpus splicing, and — for the v2 format — two
//! structure-aware tampers: rewriting section-table entry fields
//! (id/offset/length/checksum) and corrupting section *data* while
//! fixing up the entry checksum so the corruption survives the
//! checksum gate and reaches the layout validator.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Every fuzz target name, in CLI order.
pub const TARGETS: &[&str] = &[
    "snapshot-v2",
    "pair-v2",
    "delta",
    "ntriples",
    "http",
    "json",
];

/// One panicking input found by the fuzzer (already minimized).
#[derive(Debug)]
pub struct Crash {
    /// The minimized panicking input.
    pub input: Vec<u8>,
    /// Iteration (0-based) at which the original input was generated.
    pub iteration: u64,
    /// The panic payload, when it was a string.
    pub message: String,
}

/// Summary of one fuzz run.
#[derive(Debug)]
pub struct FuzzReport {
    /// Target name.
    pub target: String,
    /// RNG seed.
    pub seed: u64,
    /// Mutation iterations requested.
    pub iters: u64,
    /// Total decoder executions (iterations plus minimization).
    pub executions: u64,
    /// Panicking inputs, minimized. Empty means the run passed.
    pub crashes: Vec<Crash>,
}

/// Feeds `bytes` to the named decoder. `Err` is the decoder's own
/// rejection (fine); a panic is the bug the harness exists to catch.
pub fn decode(target: &str, bytes: &[u8]) -> Result<(), String> {
    match target {
        "snapshot-v2" => {
            let verified = paris_kb::SnapshotArena::from_bytes(bytes.to_vec())
                .and_then(|arena| {
                    let layout =
                        paris_kb::KbLayout::validate(&arena, paris_kb::snapshot_v2::KB1_BASE)?;
                    exercise_view(&arena, &layout);
                    Ok(())
                })
                .map_err(|e| e.to_string());
            // Deferred path: skips the checksum pass, so tampered bytes
            // reach the structural validator and the view accessors.
            let deferred = paris_kb::SnapshotArena::from_bytes_deferred(bytes.to_vec())
                .and_then(|arena| {
                    let layout =
                        paris_kb::KbLayout::validate(&arena, paris_kb::snapshot_v2::KB1_BASE)?;
                    exercise_view(&arena, &layout);
                    Ok(())
                })
                .map_err(|e| e.to_string());
            verified.or(deferred)
        }
        // The only pair decoder, and the one a replica feeds network
        // bytes to. It always verifies checksums, so it is the
        // checksum-fixup mutator that carries tampered data through to
        // the alignment validator and the views.
        "pair-v2" => paris_core::MappedPairSnapshot::from_bytes(bytes.to_vec())
            .map(|pair| exercise_pair(&pair))
            .map_err(|e| e.to_string()),
        "delta" => {
            let framed = paris_kb::snapshot::read_payload(&mut &bytes[..])
                .map_err(|e| e.to_string())
                .and_then(|(_, payload)| {
                    let mut r = paris_kb::snapshot::PayloadReader::new(&payload);
                    paris_kb::KbDelta::decode(&mut r)
                        .map(drop)
                        .map_err(|e| e.to_string())
                });
            let mut r = paris_kb::snapshot::PayloadReader::new(bytes);
            let bare = paris_kb::KbDelta::decode(&mut r)
                .map(drop)
                .map_err(|e| e.to_string());
            framed.or(bare)
        }
        "ntriples" => {
            let sequential = match std::str::from_utf8(bytes) {
                Ok(text) => paris_rdf::ntriples::Parser::parse_all(text)
                    .map(drop)
                    .map_err(|e| e.to_string()),
                Err(e) => Err(e.to_string()),
            };
            let opts = paris_rdf::ntriples::ChunkOptions {
                threads: 2,
                chunk_bytes: 4096,
                quads: true,
            };
            let chunked = paris_rdf::ntriples::parse_chunked(bytes, &opts, |_| Ok(()))
                .map(drop)
                .map_err(|e| e.to_string());
            sequential.and(chunked)
        }
        "http" => {
            let mut reader = std::io::BufReader::new(bytes);
            paris_server::http::read_request(&mut reader)
                .map(|req| {
                    // The query decoder runs on every request path.
                    let _ = paris_server::http::percent_decode(&req.path);
                })
                .map_err(|e| format!("{e:?}"))
        }
        "json" => match std::str::from_utf8(bytes) {
            Ok(text) => paris_client::json::parse(text).map(|v| {
                let _ = v.get("pairs").and_then(|p| p.as_array()).map(<[_]>::len);
                let _ = v.as_u64();
            }),
            Err(e) => Err(e.to_string()),
        },
        other => Err(format!("unknown fuzz target `{other}`")),
    }
}

/// Walks a validated v2 view the way real readers do — term decode,
/// IRI lookup, fact slices — so validator gaps surface as panics here
/// rather than in production.
fn exercise_view(arena: &paris_kb::SnapshotArena, layout: &paris_kb::KbLayout) {
    let view = layout.view(arena);
    let _ = view.name().len();
    let _ = (
        view.num_base_relations(),
        view.num_classes(),
        view.num_facts(),
    );
    for i in 0..view.num_entities().min(64) as u32 {
        let e = paris_kb::EntityId(i);
        let _ = view.kind(e);
        let term = view.term(e);
        let _ = view.iri_str(e);
        let _ = view.entity(&term);
    }
}

/// Walks a validated pair image the way the daemon and the delta path
/// do: row folds from both sides, point lookups, the load-time scan,
/// and the full hydration.
fn exercise_pair(pair: &paris_core::MappedPairSnapshot) {
    let alignment = pair.alignment();
    for i in 0..pair.kb1().num_entities().min(64) as u32 {
        let x = paris_kb::EntityId(i);
        let _ = alignment.has_candidates(x);
        if let Some((x2, _)) = alignment.best_match(x) {
            let _ = alignment.prob(x, x2);
        }
    }
    for i in 0..pair.kb2().num_entities().min(64) as u32 {
        let _ = alignment.best_match_rev(paris_kb::EntityId(i));
    }
    let _ = alignment.aligned_instances(pair.kb1());
    let _ = pair.hydrate();
}

/// Canonical valid inputs for `target` — the corpus the mutators start
/// from, and the seed files `paris-audit corpus` checks in. Fully
/// deterministic (no clocks, no RNG).
pub fn seeds(target: &str) -> Vec<Vec<u8>> {
    match target {
        "snapshot-v2" => vec![paris_kb::snapshot_v2::kb_to_bytes_v2(&sample_kb())],
        "pair-v2" => vec![paris_core::MappedPairSnapshot::encode(&sample_pair())],
        "delta" => {
            let mut delta = paris_kb::KbDelta::new("sample");
            delta.add_fact("http://x/Elvis", "http://x/bornIn", "http://x/Tupelo");
            delta.add_literal_fact(
                "http://x/Elvis",
                "http://x/label",
                paris_rdf::term::Literal::plain("Elvis Presley"),
            );
            delta.remove_fact("http://x/Carl", "http://x/bornIn", "http://x/Tupelo");
            vec![delta.to_bytes()]
        }
        "ntriples" => vec![
            concat!(
                "# sample corpus document\n",
                "<http://x/Elvis> <http://x/bornIn> <http://x/Tupelo> .\n",
                "<http://x/Elvis> <http://x/label> \"Elvis \\\"the King\\\" Presley\"@en .\n",
                "<http://x/Elvis> <http://x/age> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
                "_:b1 <http://x/knows> _:b2 .\n",
                "\n",
                "<http://x/caf\u{e9}> <http://x/label> \"na\u{ef}ve\" .\n",
            )
            .as_bytes()
            .to_vec(),
        ],
        "http" => vec![
            b"GET /v1/pairs?name=demo%20pair&limit=10 HTTP/1.1\r\nHost: localhost\r\n\r\n".to_vec(),
            b"POST /v1/batch HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 13\r\n\r\n{\"queries\":[]}".to_vec(),
        ],
        "json" => vec![
            r#"{"server_version":"0.1.0","pairs":[{"name":"alpha","format":2,"generation":3,"bytes":12345,"checksum":"00ffab"}],"note":"café 😀"}"#.as_bytes().to_vec(),
        ],
        _ => Vec::new(),
    }
}

fn sample_kb() -> paris_kb::Kb {
    let mut b = paris_kb::KbBuilder::new("sample");
    b.add_fact("http://x/Elvis", "http://x/bornIn", "http://x/Tupelo");
    b.add_fact("http://x/Carl", "http://x/bornIn", "http://x/Tupelo");
    b.add_fact("http://x/Elvis", "http://x/type", "http://x/Singer");
    b.build()
}

fn sample_pair() -> paris_core::AlignedPairSnapshot {
    let side = |ns: &str, mail: &str| {
        let mut b = paris_kb::KbBuilder::new(ns);
        for i in 0..4 {
            let person = format!("http://{ns}/p{i}");
            b.add_literal_fact(
                person.as_str(),
                format!("http://{ns}/{mail}"),
                paris_rdf::term::Literal::plain(format!("p{i}@x.org")),
            );
            b.add_fact(
                person.as_str(),
                format!("http://{ns}/livesIn"),
                format!("http://{ns}/c{}", i % 2),
            );
            b.add_type(person.as_str(), format!("http://{ns}/Person"));
        }
        b.build()
    };
    let (kb1, kb2) = (side("a", "email"), side("b", "mail"));
    let config = paris_core::ParisConfig::default().with_threads(1);
    let alignment = paris_core::Aligner::new(&kb1, &kb2, config).run().detach();
    paris_core::AlignedPairSnapshot::new(kb1, kb2, alignment)
}

/// Runs `iters` mutation iterations against `target`, starting from
/// the built-in seeds plus `extra_corpus`. Deterministic for a given
/// `(target, seed, iters, extra_corpus)`.
pub fn run(
    target: &str,
    seed: u64,
    iters: u64,
    extra_corpus: &[Vec<u8>],
) -> Result<FuzzReport, String> {
    if !TARGETS.contains(&target) {
        return Err(format!(
            "unknown target `{target}` (expected one of: {})",
            TARGETS.join(", ")
        ));
    }
    let mut corpus = seeds(target);
    corpus.extend(extra_corpus.iter().cloned());
    if corpus.is_empty() {
        corpus.push(Vec::new());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = FuzzReport {
        target: target.to_owned(),
        seed,
        iters,
        executions: 0,
        crashes: Vec::new(),
    };
    // Panics are expected traffic here: silence the default hook's
    // backtrace spam for the duration of the run.
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for iteration in 0..iters {
        let base_idx = (rng.next_u64() % corpus.len() as u64) as usize;
        let base = corpus.get(base_idx).cloned().unwrap_or_default();
        let structured = matches!(target, "snapshot-v2" | "pair-v2");
        let input = mutate(&mut rng, base, &corpus, structured);
        report.executions += 1;
        if let Some(message) = panics(target, &input) {
            let minimized = minimize(target, input, &mut report.executions);
            report.crashes.push(Crash {
                input: minimized,
                iteration,
                message,
            });
            if report.crashes.len() >= 10 {
                break;
            }
        }
    }
    std::panic::set_hook(previous_hook);
    Ok(report)
}

/// Executes once, returning the panic message if the decoder unwound.
fn panics(target: &str, input: &[u8]) -> Option<String> {
    match catch_unwind(AssertUnwindSafe(|| {
        let _ = decode(target, input);
    })) {
        Ok(()) => None,
        Err(payload) => Some(
            payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned()),
        ),
    }
}

/// Greedy ddmin-style shrink: repeatedly drop chunks (halving the
/// chunk size down to one byte) while the input still panics.
fn minimize(target: &str, mut input: Vec<u8>, executions: &mut u64) -> Vec<u8> {
    let mut budget = 512u64;
    let mut chunk = (input.len() / 2).max(1);
    while chunk >= 1 && budget > 0 {
        let mut start = 0;
        let mut shrunk = false;
        while start < input.len() && budget > 0 {
            let end = (start + chunk).min(input.len());
            let mut candidate = Vec::with_capacity(input.len() - (end - start));
            candidate.extend_from_slice(input.get(..start).unwrap_or_default());
            candidate.extend_from_slice(input.get(end..).unwrap_or_default());
            *executions += 1;
            budget -= 1;
            if panics(target, &candidate).is_some() {
                input = candidate;
                shrunk = true;
            } else {
                start = end;
            }
        }
        if chunk == 1 && !shrunk {
            break;
        }
        if !shrunk {
            chunk /= 2;
        }
    }
    input
}

/// Applies 1–4 random mutations to `base`.
fn mutate(rng: &mut StdRng, mut base: Vec<u8>, corpus: &[Vec<u8>], structured: bool) -> Vec<u8> {
    let rounds = 1 + rng.next_u64() % 4;
    for _ in 0..rounds {
        let choices = if structured { 8 } else { 6 };
        match rng.next_u64() % choices {
            0 => bit_flip(rng, &mut base),
            1 => byte_set(rng, &mut base),
            2 => truncate(rng, &mut base),
            3 => insert(rng, &mut base),
            4 => splice(rng, &mut base, corpus),
            5 => {
                // Duplicate a window in place (repeats sections/lines).
                if !base.is_empty() {
                    let start = (rng.next_u64() % base.len() as u64) as usize;
                    let len = ((rng.next_u64() % 64) + 1) as usize;
                    let window: Vec<u8> = base
                        .get(start..(start + len).min(base.len()))
                        .unwrap_or_default()
                        .to_vec();
                    base.splice(start..start, window);
                }
            }
            6 => tamper_v2_entry(rng, &mut base),
            _ => tamper_v2_data_with_checksum_fixup(rng, &mut base),
        }
    }
    base
}

fn bit_flip(rng: &mut StdRng, buf: &mut [u8]) {
    if buf.is_empty() {
        return;
    }
    let pos = (rng.next_u64() % buf.len() as u64) as usize;
    let bit = rng.next_u64() % 8;
    if let Some(b) = buf.get_mut(pos) {
        *b ^= 1 << bit;
    }
}

fn byte_set(rng: &mut StdRng, buf: &mut [u8]) {
    if buf.is_empty() {
        return;
    }
    let pos = (rng.next_u64() % buf.len() as u64) as usize;
    let value = (rng.next_u64() & 0xFF) as u8;
    if let Some(b) = buf.get_mut(pos) {
        *b = value;
    }
}

fn truncate(rng: &mut StdRng, buf: &mut Vec<u8>) {
    if buf.is_empty() {
        return;
    }
    let keep = (rng.next_u64() % (buf.len() as u64 + 1)) as usize;
    buf.truncate(keep);
}

fn insert(rng: &mut StdRng, buf: &mut Vec<u8>) {
    let pos = if buf.is_empty() {
        0
    } else {
        (rng.next_u64() % (buf.len() as u64 + 1)) as usize
    };
    let count = (rng.next_u64() % 16 + 1) as usize;
    let fresh: Vec<u8> = (0..count).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
    buf.splice(pos..pos, fresh);
}

fn splice(rng: &mut StdRng, buf: &mut Vec<u8>, corpus: &[Vec<u8>]) {
    let Some(donor) = corpus.get((rng.next_u64() % corpus.len().max(1) as u64) as usize) else {
        return;
    };
    if donor.is_empty() {
        return;
    }
    let from = (rng.next_u64() % donor.len() as u64) as usize;
    let len = ((rng.next_u64() % 128) + 1) as usize;
    let window = donor
        .get(from..(from + len).min(donor.len()))
        .unwrap_or_default()
        .to_vec();
    let at = if buf.is_empty() {
        0
    } else {
        (rng.next_u64() % (buf.len() as u64 + 1)) as usize
    };
    buf.splice(at..at.min(buf.len()), window);
}

/// v2 layout constants, mirrored from `paris_kb::snapshot_v2` (the
/// writer's framing is a stable on-disk format).
const V2_HEADER_LEN: usize = 24;
const V2_ENTRY_LEN: usize = 32;

fn v2_entry_count(buf: &[u8]) -> usize {
    if buf.len() < V2_HEADER_LEN {
        return 0;
    }
    let count = u32::from_le_bytes([
        buf.get(12).copied().unwrap_or(0),
        buf.get(13).copied().unwrap_or(0),
        buf.get(14).copied().unwrap_or(0),
        buf.get(15).copied().unwrap_or(0),
    ]) as usize;
    count.min(buf.len().saturating_sub(V2_HEADER_LEN) / V2_ENTRY_LEN)
}

/// Rewrites one section-table entry field (id/offset/length/checksum)
/// with a random value — the hostile-offset case the validator must
/// reject without panicking.
fn tamper_v2_entry(rng: &mut StdRng, buf: &mut [u8]) {
    let count = v2_entry_count(buf);
    if count == 0 {
        return;
    }
    let entry = V2_HEADER_LEN + ((rng.next_u64() % count as u64) as usize) * V2_ENTRY_LEN;
    let (field, width) = match rng.next_u64() % 4 {
        0 => (0usize, 4usize), // id
        1 => (8, 8),           // offset
        2 => (16, 8),          // length
        _ => (24, 8),          // checksum
    };
    let value = rng.next_u64().to_le_bytes();
    for (k, &v) in value.iter().take(width).enumerate() {
        if let Some(b) = buf.get_mut(entry + field + k) {
            *b = v;
        }
    }
}

/// Corrupts one byte of section *data* and rewrites the entry's
/// checksum to match, so the corruption passes the checksum gate and
/// exercises the structural validator and view accessors.
fn tamper_v2_data_with_checksum_fixup(rng: &mut StdRng, buf: &mut [u8]) {
    let count = v2_entry_count(buf);
    if count == 0 {
        return;
    }
    let entry = V2_HEADER_LEN + ((rng.next_u64() % count as u64) as usize) * V2_ENTRY_LEN;
    let field = |at: usize| -> u64 {
        let mut w = [0u8; 8];
        for (k, dst) in w.iter_mut().enumerate() {
            *dst = buf.get(entry + at + k).copied().unwrap_or(0);
        }
        u64::from_le_bytes(w)
    };
    let offset = field(8) as usize;
    let len = field(16) as usize;
    let Some(end) = offset
        .checked_add(len)
        .filter(|&e| e <= buf.len() && len > 0)
    else {
        return;
    };
    let pos = offset + (rng.next_u64() % len as u64) as usize;
    let value = (rng.next_u64() & 0xFF) as u8;
    if let Some(b) = buf.get_mut(pos) {
        *b = value;
    }
    let sum = paris_kb::snapshot_v2::checksum_v2(buf.get(offset..end).unwrap_or_default());
    for (k, &v) in sum.to_le_bytes().iter().enumerate() {
        if let Some(b) = buf.get_mut(entry + 24 + k) {
            *b = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_target_decodes_its_own_seeds() {
        for &target in TARGETS {
            for (i, seed) in seeds(target).iter().enumerate() {
                assert!(
                    decode(target, seed).is_ok(),
                    "{target} seed {i} should decode cleanly"
                );
            }
        }
    }

    #[test]
    fn runs_are_seed_reproducible() {
        for &target in TARGETS {
            let a = run(target, 7, 50, &[]).expect("run");
            let b = run(target, 7, 50, &[]).expect("run");
            assert_eq!(a.executions, b.executions, "{target}");
            assert_eq!(a.crashes.len(), b.crashes.len(), "{target}");
        }
    }

    #[test]
    fn smoke_iterations_find_no_panics() {
        for &target in TARGETS {
            let report = run(target, 0xC0FFEE, 300, &[]).expect("run");
            assert!(
                report.crashes.is_empty(),
                "{target}: {} crashes, first: {:?}",
                report.crashes.len(),
                report.crashes.first().map(|c| &c.message)
            );
        }
    }

    #[test]
    fn v2_entry_count_is_clamped() {
        let seed = seeds("snapshot-v2").remove(0);
        assert!(v2_entry_count(&seed) > 0);
        let mut hostile = seed.clone();
        if let Some(b) = hostile.get_mut(12) {
            *b = 0xFF;
        }
        assert!(v2_entry_count(&hostile) <= hostile.len() / V2_ENTRY_LEN);
        assert_eq!(v2_entry_count(&[]), 0);
    }
}
