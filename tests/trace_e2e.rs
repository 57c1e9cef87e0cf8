//! End-to-end tests of the span-tracing subsystem over real TCP:
//!
//! 1. a traced client request renders as a parent-linked span tree
//!    under `GET /v1/debug/traces/<id>` — the request span is a local
//!    root carrying the client's remote parent span id;
//! 2. one replica sync cycle is ONE trace spanning two daemons — the
//!    `sync_cycle` trace id recorded on the replica also appears in the
//!    primary's span store (propagated via the `traceparent` header on
//!    the manifest/snapshot fetches);
//! 3. an async `POST /align` job's trace shows the fixpoint as
//!    per-iteration pass spans whose durations are consistent with the
//!    job's reported wall time.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use paris_repro::client::{ParisClient, Side};
use paris_repro::datagen::{movies, MoviesConfig};
use paris_repro::kb::snapshot_v2::save_kb_v2;
use paris_repro::kb::{Kb, KbBuilder};
use paris_repro::paris::{
    AlignedPairSnapshot, Aligner, MappedPairSnapshot, OwnedAlignment, ParisConfig,
};
use paris_repro::rdf::Literal;
use paris_repro::server::{Server, ServerConfig};

fn request(addr: std::net::SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("send");
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

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    request(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    request(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Extracts the string value following `"<key>":"` after byte offset
/// `from` in `body`.
fn str_after(body: &str, key: &str, from: usize) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = body[from..].find(&marker)? + from + marker.len();
    let end = body[start..].find('"')? + start;
    Some(body[start..end].to_owned())
}

/// Extracts the number following `"<key>":` after byte offset `from`.
fn num_after(body: &str, key: &str, from: usize) -> Option<f64> {
    let marker = format!("\"{key}\":");
    let start = body[from..].find(&marker)? + from + marker.len();
    let end = start
        + body[start..]
            .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
            .unwrap_or(body.len() - start);
    body[start..end].parse().ok()
}

/// The trace id (32 hex digits) of the first span named `name` in a
/// `/v1/debug/traces` body: spans render as
/// `{"trace":"…","span":"…",…,"name":"…",…}`, so the owning object's
/// trace id is the nearest `"trace":"` *before* the name match.
fn trace_of_span_named(body: &str, name: &str) -> Option<String> {
    let at = body.find(&format!("\"name\":\"{name}\""))?;
    let start = body[..at].rfind("\"trace\":\"")? + "\"trace\":\"".len();
    Some(body[start..start + 32].to_owned())
}

fn movies_snapshot(n: usize) -> AlignedPairSnapshot {
    let pair = movies::generate(&MoviesConfig {
        num_movies: n,
        ..Default::default()
    });
    let result = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
    let owned = OwnedAlignment::from_result(&result);
    drop(result);
    AlignedPairSnapshot::new(pair.kb1, pair.kb2, owned)
}

fn people_pair(n: usize) -> (Kb, Kb) {
    let mut a = KbBuilder::new("left");
    let mut b = KbBuilder::new("right");
    for i in 0..n {
        a.add_literal_fact(
            format!("http://a/p{i}"),
            "http://a/email",
            Literal::plain(format!("p{i}@x.org")),
        );
        b.add_literal_fact(
            format!("http://b/q{i}"),
            "http://b/mail",
            Literal::plain(format!("p{i}@x.org")),
        );
    }
    (a.build(), b.build())
}

/// A traced request is retrievable by its client-side trace id, and the
/// rendered tree's root is the request span: parent-linked to the
/// client's remote span (absent from the local store), annotated with
/// method/path/status.
#[test]
fn traced_request_renders_a_parent_linked_tree() {
    let snapshot = movies_snapshot(20);
    let handle = Server::bind(
        snapshot,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn()
    .unwrap();
    let addr = handle.addr();

    let mut client = ParisClient::new(&format!("http://{addr}")).unwrap();
    // Any traced request will do; an unknown IRI still records a span.
    let _ = client.sameas(None, "http://nope/x", Side::Left, None);
    let trace_id = client.last_trace_id().expect("client injected a trace");

    let tree = client.debug_trace(&trace_id).expect("trace retained");
    assert_eq!(
        tree.get("trace").and_then(|t| t.as_str()),
        Some(trace_id.as_str())
    );
    let roots = tree
        .get("roots")
        .and_then(|r| r.as_array())
        .expect("roots array");
    assert_eq!(roots.len(), 1, "one request span: {tree:?}");
    let root = &roots[0];
    // The request span continues the client's context: same trace, and
    // its parent is the client's span id — present as a link even though
    // that remote span was never recorded locally.
    assert!(root.get("parent").is_some(), "remote parent link: {root:?}");
    let attrs = root.get("attrs").expect("span attrs");
    assert_eq!(attrs.get("method").and_then(|m| m.as_str()), Some("GET"));
    assert_eq!(attrs.get("status").and_then(|s| s.as_u64()), Some(404));

    // The trace also shows up in the daemon-wide listing.
    let listing = client.debug_traces().unwrap();
    assert!(listing.get("recorded").and_then(|r| r.as_u64()).unwrap() >= 1);

    // A bogus id is a 400, an unknown one a 404.
    assert!(client.debug_trace("xyz").is_err());
    let miss = client.debug_trace(&"0".repeat(32));
    assert!(miss.is_err(), "unknown trace must not resolve: {miss:?}");

    handle.shutdown();
}

/// A replica sync cycle is one distributed trace: the trace id under
/// which the replica records `sync_cycle` / `fetch_manifest` spans also
/// identifies request spans in the *primary's* store, because the sync
/// engine forwards its span context in the `traceparent` header.
#[test]
fn one_sync_cycle_is_one_trace_across_both_daemons() {
    let root = std::env::temp_dir().join("paris_trace_e2e_sync");
    std::fs::remove_dir_all(&root).ok();
    let primary_dir = root.join("primary");
    std::fs::create_dir_all(&primary_dir).unwrap();
    let (kb1, kb2) = people_pair(3);
    let owned = {
        let result = Aligner::new(&kb1, &kb2, ParisConfig::default().with_threads(1)).run();
        OwnedAlignment::from_result(&result)
    };
    MappedPairSnapshot::save_v2(
        &AlignedPairSnapshot::new(kb1, kb2, owned),
        primary_dir.join("alpha.snap"),
    )
    .unwrap();

    let primary = Server::bind_catalog(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 4,
        catalog_dir: Some(primary_dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let replica = Server::bind_catalog(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 4,
        catalog_dir: Some(root.join("replica")),
        replica_of: Some(format!("http://{}", primary.addr())),
        sync_interval: Duration::from_millis(100),
        ..ServerConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap();

    // One shared trace id, visible in BOTH daemons' debug listings.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let (status, replica_traces) = get(replica.addr(), "/v1/debug/traces");
        assert_eq!(status, 200, "{replica_traces}");
        if let Some(trace_id) = trace_of_span_named(&replica_traces, "sync_cycle") {
            // The replica recorded the whole cycle under this trace...
            let (status, tree) = get(replica.addr(), &format!("/v1/debug/traces/{trace_id}"));
            if status == 200 && tree.contains("\"name\":\"fetch_manifest\"") {
                // ...and the primary's request spans carry the same id.
                let (status, primary_traces) = get(primary.addr(), "/v1/debug/traces");
                assert_eq!(status, 200, "{primary_traces}");
                if primary_traces.contains(&trace_id) {
                    break;
                }
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no sync trace spanned both daemons"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    replica.shutdown();
    primary.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// An async align job is one trace rooted at `align_job`: the fixpoint
/// renders as per-iteration pass spans, and the root span's duration
/// agrees with the job's reported wall time to within 10%.
#[test]
fn align_job_trace_shows_iteration_passes() {
    let dir = std::env::temp_dir().join("paris_trace_e2e_job");
    std::fs::create_dir_all(&dir).unwrap();
    let pair = movies::generate(&MoviesConfig {
        num_movies: 60,
        ..Default::default()
    });
    let left_snap = dir.join("left.snap");
    let right_snap = dir.join("right.snap");
    save_kb_v2(&pair.kb1, &left_snap).unwrap();
    save_kb_v2(&pair.kb2, &right_snap).unwrap();

    let handle = Server::bind(
        movies_snapshot(10),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn()
    .unwrap();
    let addr = handle.addr();

    let (status, body) = post(
        addr,
        "/v1/align",
        &format!(
            "left={}&right={}&max_iterations=4",
            left_snap.display(),
            right_snap.display()
        ),
    );
    assert_eq!(status, 202, "{body}");

    let mut job_body = String::new();
    for _ in 0..600 {
        let (status, body) = get(addr, "/v1/jobs/1");
        assert_eq!(status, 200, "{body}");
        if body.contains("\"status\":\"failed\"") {
            panic!("job failed: {body}");
        }
        if body.contains("\"status\":\"done\"") {
            job_body = body;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(!job_body.is_empty(), "job did not finish in time");

    // The terminal status carries the job's trace id and wall time.
    let trace_id = str_after(&job_body, "trace", 0).expect("job trace id");
    let seconds = num_after(&job_body, "seconds", 0).expect("job seconds");
    let (status, tree) = get(addr, &format!("/v1/debug/traces/{trace_id}"));
    assert_eq!(status, 200, "{tree}");

    // The tree roots at align_job with load/align/iteration descendants.
    let job_at = tree.find("\"name\":\"align_job\"").expect("align_job span");
    for name in ["load_snapshots", "align", "iteration", "instance_pass"] {
        assert!(
            tree.contains(&format!("\"name\":\"{name}\"")),
            "{name}: {tree}"
        );
    }

    // Root span duration vs reported wall time: same interval measured
    // two ways, so they must agree to 10% (plus a small absolute slack
    // for the scheduling gap around run_job on loaded CI machines).
    let root_secs = num_after(&tree, "duration_ns", job_at).expect("root duration") / 1e9;
    assert!(
        (root_secs - seconds).abs() <= 0.10 * seconds.max(root_secs) + 0.05,
        "root span {root_secs}s vs job wall time {seconds}s"
    );

    // Iteration spans nest inside the align phase: their summed
    // durations can never exceed it, and they account for the bulk of it
    // (each iteration's passes run back-to-back inside the fixpoint).
    let align_at = tree.find("\"name\":\"align\"").expect("align span");
    let align_secs = num_after(&tree, "duration_ns", align_at).expect("align duration") / 1e9;
    let mut iter_sum = 0.0;
    let mut at = 0;
    while let Some(hit) = tree[at..].find("\"name\":\"iteration\"") {
        at += hit + 1;
        iter_sum += num_after(&tree, "duration_ns", at).expect("iteration duration") / 1e9;
    }
    assert!(iter_sum > 0.0, "no finished iteration spans: {tree}");
    assert!(
        iter_sum <= align_secs + 0.001,
        "iterations {iter_sum}s cannot exceed align {align_secs}s"
    );
    assert!(
        (align_secs - iter_sum).abs() <= 0.10 * align_secs + 0.05,
        "iteration spans {iter_sum}s vs align phase {align_secs}s"
    );

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
