//! End-to-end proof of out-of-core operation for `paris ingest`.
//!
//! The shared counting allocator (`tests/common`) measures the real peak
//! heap growth of the heap build path (`parse → KbBuilder → Kb → kb_to_bytes_v2`); the ingest
//! budget is then set to a quarter of that measured peak, and the test
//! asserts the streaming pipeline (a) stays under the heap path's peak,
//! (b) still emits byte-identical output, and (c) produces a snapshot the
//! serving stack opens and answers from — `/sameas` and `/neighbors`
//! responses from a daemon built off the ingested images are bit-equal to
//! ones built off the heap images.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use paris_repro::datagen::{movies, MoviesConfig};
use paris_repro::kb::export::to_ntriples;
use paris_repro::kb::ingest::{ingest_reader, IngestOptions};
use paris_repro::kb::snapshot_v2::kb_to_bytes_v2;
use paris_repro::kb::{Kb, KbBuilder, MappedKbSnapshot};
use paris_repro::paris::{AlignedPairSnapshot, Aligner, OwnedAlignment, ParisConfig};
use paris_repro::rdf::ntriples::Parser;
use paris_repro::server::{Server, ServerConfig};

// ---------------------------------------------------------------- HTTP bits

fn get(addr: std::net::SocketAddr, path_and_query: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            format!("GET {path_and_query} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// Aligns two KBs and spawns a daemon serving the result; answers a probe
/// list of `/sameas` + `/neighbors` queries and returns the raw bodies.
fn serve_and_probe(kb1: Kb, kb2: Kb, probes: &[String]) -> Vec<(u16, String)> {
    let result = Aligner::new(&kb1, &kb2, ParisConfig::default()).run();
    let owned = OwnedAlignment::from_result(&result);
    drop(result);
    let server = Server::bind(
        AlignedPairSnapshot::new(kb1, kb2, owned),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();
    let answers = probes.iter().map(|p| get(addr, p)).collect();
    handle.shutdown();
    answers
}

// ---------------------------------------------------------------- the test

#[test]
fn ingest_is_out_of_core_and_serves_identically() {
    let _serial = common::serial();
    // A movies world big enough that the heap build's peak dwarfs the
    // ingest pipeline's bounded buffers.
    let pair = movies::generate(&MoviesConfig {
        num_movies: 400,
        ..MoviesConfig::default()
    });
    let left_doc = to_ntriples(&pair.kb1);
    let right_doc = to_ntriples(&pair.kb2);
    let probe_iri = pair
        .kb1
        .instances()
        .find_map(|e| pair.kb1.iri(e))
        .expect("an instance")
        .as_str()
        .to_owned();
    drop(pair);

    // Measure the heap path's true peak on the bigger side.
    let (heap_left, heap_peak) = common::measure_peak(|| {
        let triples = Parser::parse_all(&left_doc).unwrap();
        let mut b = KbBuilder::new("left");
        b.add_triples(&triples);
        kb_to_bytes_v2(&b.build())
    });

    // Budget: a quarter of the measured heap-path peak — an input this
    // size could NOT be built in-heap under it.
    let budget = (heap_peak / 4).max(64 << 10);
    assert!(
        budget < heap_peak,
        "heap peak {heap_peak} too small to demonstrate out-of-core operation"
    );

    let dir = std::env::temp_dir().join(format!("paris-ingest-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let left_snap = dir.join("left.snap");
    let right_snap = dir.join("right.snap");

    let opts = IngestOptions {
        name: "left".to_owned(),
        mem_budget: budget,
        threads: 2,
        ..IngestOptions::default()
    };
    let (report, ingest_peak) = common::measure_peak(|| {
        ingest_reader(left_doc.as_bytes(), &left_snap, &opts).expect("ingest succeeds")
    });

    // (a) Out-of-core: the streaming build stayed under the heap path's
    // peak (the budget bounds the sort buffers; parse chunks and section
    // buffers ride on top, which is why the assertion is against the heap
    // peak rather than the raw budget).
    assert!(
        ingest_peak < heap_peak,
        "ingest peak {ingest_peak} not below heap-path peak {heap_peak} (budget {budget})"
    );
    assert!(
        report.spill_runs > 0,
        "budget {budget} should force spilling"
    );

    // (b) Byte-identical output.
    assert_eq!(
        std::fs::read(&left_snap).unwrap(),
        heap_left,
        "ingested snapshot must be bit-identical to the heap-built one"
    );

    // (c) The serving stack consumes the ingested images unchanged. Build
    // the right side too, then serve one daemon from ingested snapshots
    // and one from heap KBs: probe answers must be bit-equal.
    let opts = IngestOptions {
        name: "right".to_owned(),
        mem_budget: budget,
        threads: 2,
        ..IngestOptions::default()
    };
    ingest_reader(right_doc.as_bytes(), &right_snap, &opts).expect("ingest succeeds");

    let probes = vec![
        format!("/v1/pairs/default/sameas?iri={probe_iri}"),
        format!("/v1/pairs/default/neighbors?iri={probe_iri}&limit=20"),
    ];
    let load_kb = |path: &std::path::Path| {
        MappedKbSnapshot::open(path)
            .expect("ingested snapshot opens")
            .kb()
            .to_kb()
    };
    let from_ingest = serve_and_probe(load_kb(&left_snap), load_kb(&right_snap), &probes);
    let heap_kb = |name: &str, doc: &str| {
        let mut b = KbBuilder::new(name);
        b.add_triples(&Parser::parse_all(doc).unwrap());
        b.build()
    };
    let from_heap = serve_and_probe(
        heap_kb("left", &left_doc),
        heap_kb("right", &right_doc),
        &probes,
    );
    for ((probe, got), want) in probes.iter().zip(&from_ingest).zip(&from_heap) {
        assert_eq!(got.0, 200, "{probe}: {}", got.1);
        assert_eq!(got, want, "{probe}: served answers must be bit-equal");
    }

    std::fs::remove_dir_all(&dir).ok();
}
