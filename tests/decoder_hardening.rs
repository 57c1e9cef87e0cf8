//! Wire-level regression tests for the decoder hardening pass.
//!
//! Every decode path reachable from untrusted bytes — section-table
//! snapshots (single KB and aligned pair), deltas, N-Triples documents,
//! HTTP requests, JSON — is fed the specific hostile shapes the
//! `no-panic-decode` audit (docs/CORRECTNESS.md) exists to prevent:
//! truncations at every length, flipped bytes, hostile section
//! offsets, invalid UTF-8, broken escapes, and oversized
//! declarations. The contract everywhere is *Err, not panic*.

use std::io::BufReader;

use paris_audit::fuzz::{decode, seeds};
use paris_repro::client::json;
use paris_repro::kb::snapshot::{read_payload, PayloadReader};
use paris_repro::kb::snapshot_v2::{kb_to_bytes_v2, KB1_BASE};
use paris_repro::kb::{KbBuilder, KbDelta, KbLayout, SnapshotArena};
use paris_repro::rdf::ntriples::{parse_chunked, ChunkOptions, Parser};
use paris_repro::rdf::Literal;
use paris_repro::server::http::{percent_decode, read_request};

// ----------------------------------------------------- aligned-pair image

/// The fuzz harness's canonical pair image and its decode-and-walk
/// (`from_bytes`, alignment views, `hydrate`).
fn sample_pair_bytes() -> Vec<u8> {
    seeds("pair-v2").remove(0)
}

fn decode_pair(bytes: &[u8]) -> Result<(), String> {
    decode("pair-v2", bytes)
}

#[test]
fn snapshot_truncated_at_every_length_errors() {
    let bytes = sample_pair_bytes();
    assert!(decode_pair(&bytes).is_ok(), "intact snapshot must decode");
    for cut in 0..bytes.len() {
        let truncated = bytes.get(..cut).unwrap_or_default();
        assert!(
            decode_pair(truncated).is_err(),
            "truncation at {cut}/{} must be rejected",
            bytes.len()
        );
    }
}

#[test]
fn snapshot_bit_flips_never_panic() {
    let bytes = sample_pair_bytes();
    for at in 0..bytes.len() {
        let mut flipped = bytes.clone();
        if let Some(b) = flipped.get_mut(at) {
            *b ^= 1;
        }
        // Every byte is covered by a validated header field or a
        // section checksum, so no flip may open — let alone panic.
        assert!(decode_pair(&flipped).is_err(), "flip at byte {at} opened");
    }
}

// -------------------------------------------------------- single-KB image

const V2_HEADER_LEN: usize = 24;
const V2_ENTRY_LEN: usize = 32;

fn v2_decode(bytes: &[u8]) -> Result<(), String> {
    let exercise = |arena: SnapshotArena| {
        let layout = KbLayout::validate(&arena, KB1_BASE).map_err(|e| e.to_string())?;
        let view = layout.view(&arena);
        let _ = (view.name().len(), view.num_facts());
        Ok(())
    };
    let verified = SnapshotArena::from_bytes(bytes.to_vec())
        .map_err(|e| e.to_string())
        .and_then(&exercise);
    let deferred = SnapshotArena::from_bytes_deferred(bytes.to_vec())
        .map_err(|e| e.to_string())
        .and_then(&exercise);
    verified.or(deferred)
}

#[test]
fn snapshot_v2_hostile_section_entries_error() {
    let mut b = KbBuilder::new("hardening");
    b.add_fact("http://a/x", "http://a/p", "http://a/y");
    let bytes = kb_to_bytes_v2(&b.build());
    assert!(v2_decode(&bytes).is_ok(), "intact v2 snapshot must decode");

    let count_bytes = bytes
        .get(16..20)
        .and_then(|w| <[u8; 4]>::try_from(w).ok())
        .map(u32::from_le_bytes)
        .unwrap_or(0) as usize;
    assert!(count_bytes > 0, "sample snapshot has sections");

    // Rewriting any entry's offset or length to a hostile value must be
    // rejected by BOTH the checksum-verified and the deferred path.
    for entry in 0..count_bytes {
        for field_offset in [8usize, 16] {
            for hostile in [u64::MAX, u64::MAX / 2, 1u64 << 32] {
                let mut tampered = bytes.clone();
                let at = V2_HEADER_LEN + entry * V2_ENTRY_LEN + field_offset;
                if let Some(w) = tampered.get_mut(at..at + 8) {
                    w.copy_from_slice(&hostile.to_le_bytes());
                }
                assert!(
                    v2_decode(&tampered).is_err(),
                    "entry {entry} field +{field_offset} = {hostile:#x} must be rejected"
                );
            }
        }
    }
}

#[test]
fn snapshot_v2_truncated_at_every_length_errors() {
    let mut b = KbBuilder::new("hardening");
    b.add_fact("http://a/x", "http://a/p", "http://a/y");
    let bytes = kb_to_bytes_v2(&b.build());
    for cut in 0..bytes.len() {
        let truncated = bytes.get(..cut).unwrap_or_default();
        assert!(
            v2_decode(truncated).is_err(),
            "v2 truncation at {cut}/{} must be rejected",
            bytes.len()
        );
    }
}

// ------------------------------------------------------------------ delta

#[test]
fn delta_truncations_and_flips_never_panic() {
    let mut delta = KbDelta::new("hardening");
    delta.add_fact("http://a/x", "http://a/p", "http://a/z");
    delta.add_literal_fact("http://a/x", "http://a/label", Literal::plain("x"));
    delta.remove_fact("http://a/x", "http://a/p", "http://a/y");
    let bytes = delta.to_bytes();
    let decode = |bytes: &[u8]| -> Result<(), String> {
        let (_, payload) = read_payload(&mut &bytes[..]).map_err(|e| e.to_string())?;
        let mut r = PayloadReader::new(&payload);
        KbDelta::decode(&mut r).map(drop).map_err(|e| e.to_string())
    };
    assert!(decode(&bytes).is_ok(), "intact delta must decode");
    for cut in 0..bytes.len() {
        assert!(
            decode(bytes.get(..cut).unwrap_or_default()).is_err(),
            "delta truncation at {cut} must be rejected"
        );
    }
    for at in 0..bytes.len() {
        let mut flipped = bytes.clone();
        if let Some(b) = flipped.get_mut(at) {
            *b ^= 0x80;
        }
        let _ = decode(&flipped);
        let mut r = PayloadReader::new(&flipped);
        let _ = KbDelta::decode(&mut r);
    }
}

// -------------------------------------------------------------- N-Triples

#[test]
fn ntriples_hostile_documents_error_cleanly() {
    // Non-ASCII IRIs are accepted (the multi-byte resync path); they
    // just must not panic the cursor.
    assert!(Parser::parse_all("<http://a/caf\u{e9}> <http://a/p> <http://a/y> .").is_ok());
    let hostile = [
        "<http://a/x> <http://a/p> \"bad \\u12\" .", // truncated \u escape
        "<http://a/x> <http://a/p> \"bad \\q\" .",   // unknown escape
        "<http://a/x> <http://a/p> \"open",          // unterminated literal
        "<http://a/x> <http://a/p>",                 // missing object
        "_:b1 <http://a/p> _: .",                    // empty blank-node label
        "<http://a/x> <http://a/p> \"v\"@ .",        // empty language tag
        "\\",                                        // lone backslash
    ];
    for doc in hostile {
        assert!(Parser::parse_all(doc).is_err(), "must reject: {doc:?}");
    }
}

#[test]
fn ntriples_chunked_survives_invalid_utf8_and_split_chars() {
    let opts = ChunkOptions {
        threads: 2,
        chunk_bytes: 8, // forces chunk boundaries inside multi-byte chars
        quads: false,
    };
    // Invalid UTF-8 mid-stream must surface as Err with a line number,
    // not a panic in the boundary scanner.
    let mut bad = b"<http://a/x> <http://a/p> <http://a/y> .\n".to_vec();
    bad.extend_from_slice(&[0xFF, 0xFE, 0xFD]);
    assert!(parse_chunked(&bad[..], &opts, |_| Ok(())).is_err());

    // Valid multi-byte content split across tiny chunks must parse to
    // the same triples as the sequential parser.
    let doc = "<http://a/x> <http://a/p> \"caf\u{e9} \u{1F600}\"@fr .\n".repeat(5);
    let mut chunked_count = 0usize;
    parse_chunked(doc.as_bytes(), &opts, |batch| {
        chunked_count += batch.len();
        Ok(())
    })
    .expect("valid document parses in chunks");
    let sequential = Parser::parse_all(&doc).expect("valid document parses sequentially");
    assert_eq!(chunked_count, sequential.len());
}

// ------------------------------------------------------------------- HTTP

#[test]
fn http_hostile_requests_error_cleanly() {
    let hostile: &[&[u8]] = &[
        b"",
        b"GET",
        b"GET /x",                  // no terminator
        b"GET /x HTTP/1.1\r\nHost", // torn header
        b"GET /x HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n",
        b"POST /x HTTP/1.1\r\nContent-Length: 1000\r\n\r\nshort",
        b"\xFF\xFE /x HTTP/1.1\r\n\r\n", // non-UTF-8 method
    ];
    for bytes in hostile {
        let mut r = BufReader::new(*bytes);
        assert!(
            read_request(&mut r).is_err(),
            "must reject request {:?}",
            String::from_utf8_lossy(bytes)
        );
    }
}

#[test]
fn percent_decode_survives_malformed_escapes() {
    // Lossy by design: malformed escapes pass through undecoded, and
    // nothing here may panic or read out of bounds.
    for s in ["%", "%z", "%4", "%zz", "%%%", "%ff%", "a%2", "%E9caf\u{e9}"] {
        let _ = percent_decode(s);
    }
    assert_eq!(percent_decode("%2Fa%20b"), "/a b");
}

// ------------------------------------------------------------------- JSON

#[test]
fn json_hostile_documents_error_cleanly() {
    let valid = r#"{"pairs": [{"name": "default", "etag": "abc"}], "n": 1.5e3}"#;
    assert!(json::parse(valid).is_ok());
    // Every truncation of a valid document must be an error (none of
    // its prefixes are themselves complete JSON).
    for cut in 0..valid.len() {
        let prefix = valid.get(..cut).unwrap_or_default();
        assert!(
            json::parse(prefix).is_err(),
            "prefix {cut} must be rejected"
        );
    }
    for doc in [
        "1e",
        "-",
        "+1",
        "\"\\ud800\"",
        "\"\\q\"",
        "{\"a\" 1}",
        "[1,]",
        "nul",
    ] {
        assert!(json::parse(doc).is_err(), "must reject {doc:?}");
    }
}

#[test]
fn json_deep_nesting_hits_depth_limit_not_the_stack() {
    let deep = "[".repeat(100_000);
    assert!(json::parse(&deep).is_err(), "unterminated nesting rejected");
    let mut balanced = "[".repeat(100_000);
    balanced.push_str(&"]".repeat(100_000));
    assert!(
        json::parse(&balanced).is_err(),
        "nesting past MAX_DEPTH must be rejected, not recursed into"
    );
}
