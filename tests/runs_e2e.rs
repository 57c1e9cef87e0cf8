//! End-to-end test of the persisted run history over real TCP:
//!
//! 1. a completed align job on a daemon started with a run-history file
//!    appends a generation-1 record served by `GET /v1/debug/runs`;
//! 2. the record survives a daemon restart (the file is reloaded on
//!    startup);
//! 3. re-running the *same* pair is generation 2 with agreement ≈ 1.0
//!    and no drift flag, while a third run against a perturbed KB
//!    (> 5% of assignments changed) drops the agreement below the
//!    drift threshold and flags `drift: true`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

use paris_repro::client::json::{self, Json};
use paris_repro::datagen::{movies, MoviesConfig};
use paris_repro::kb::snapshot_v2::save_kb_v2;
use paris_repro::kb::{Kb, KbBuilder};
use paris_repro::paris::{AlignedPairSnapshot, Aligner, OwnedAlignment, ParisConfig};
use paris_repro::rdf::Literal;
use paris_repro::server::{Server, ServerConfig, ServerHandle};

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

/// A tiny KB pair aligned purely via shared e-mail literals, with the
/// first `moved` right-side addresses rewritten so those instances no
/// longer match — a controlled way to change exactly `moved`/`n` of
/// the final assignment between runs.
fn people_pair(n: usize, moved: usize) -> (Kb, Kb) {
    let mut a = KbBuilder::new("left");
    let mut b = KbBuilder::new("right");
    for i in 0..n {
        a.add_literal_fact(
            format!("http://a/p{i}"),
            "http://a/email",
            Literal::plain(format!("p{i}@x.org")),
        );
        let address = if i < moved {
            format!("p{i}@moved.example")
        } else {
            format!("p{i}@x.org")
        };
        b.add_literal_fact(
            format!("http://b/q{i}"),
            "http://b/mail",
            Literal::plain(address),
        );
    }
    (a.build(), b.build())
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

fn bind(history: &Path) -> ServerHandle {
    Server::bind(
        movies_snapshot(10),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            run_history: Some(history.to_owned()),
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn()
    .unwrap()
}

/// Submits an align job for `left.snap`/`right.snap` in `dir` and polls
/// it to completion.
fn run_align_job(addr: std::net::SocketAddr, dir: &Path, job: u64) {
    let (status, body) = post(
        addr,
        "/v1/align",
        &format!(
            "left={}&right={}&max_iterations=4",
            dir.join("left.snap").display(),
            dir.join("right.snap").display()
        ),
    );
    assert_eq!(status, 202, "{body}");
    for _ in 0..600 {
        let (status, body) = get(addr, &format!("/v1/jobs/{job}"));
        assert_eq!(status, 200, "{body}");
        if body.contains("\"status\":\"failed\"") {
            panic!("job failed: {body}");
        }
        if body.contains("\"status\":\"done\"") {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("job {job} did not finish in time");
}

/// Fetches `/v1/debug/runs` and returns the parsed record array.
fn fetch_records(addr: std::net::SocketAddr) -> Vec<Json> {
    let (status, body) = get(addr, "/v1/debug/runs");
    assert_eq!(status, 200, "{body}");
    let envelope = json::parse(&body).expect("runs body parses");
    let data = envelope.get("data").expect("data envelope");
    data.get("records")
        .and_then(Json::as_array)
        .expect("records array")
        .to_vec()
}

#[test]
fn run_history_survives_restart_and_flags_drift() {
    let dir = std::env::temp_dir().join(format!("paris_runs_e2e_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let history = dir.join("runs.jsonl");

    // Generation 1: a clean pair of 40 people matched by e-mail.
    let (kb1, kb2) = people_pair(40, 0);
    save_kb_v2(&kb1, dir.join("left.snap")).unwrap();
    save_kb_v2(&kb2, dir.join("right.snap")).unwrap();

    let first = bind(&history);
    run_align_job(first.addr(), &dir, 1);
    let records = fetch_records(first.addr());
    assert_eq!(records.len(), 1, "one run recorded");
    let r = &records[0];
    assert_eq!(r.get("pair").and_then(Json::as_str), Some("left+right"));
    assert_eq!(r.get("generation").and_then(Json::as_u64), Some(1));
    let aligned = r
        .get("aligned_instances")
        .and_then(Json::as_u64)
        .expect("aligned_instances");
    assert!(aligned >= 35, "the people pair aligns by e-mail: {r:?}");
    assert!(
        r.get("agreement").and_then(Json::as_f64).is_none(),
        "generation 1 has nothing to agree with: {r:?}"
    );
    assert_eq!(r.get("drift").and_then(Json::as_bool), Some(false));
    first.shutdown();

    // Restart: the daemon reloads the history file and keeps serving
    // the generation-1 record.
    let second = bind(&history);
    let records = fetch_records(second.addr());
    assert_eq!(records.len(), 1, "history survived the restart");
    assert_eq!(records[0].get("generation").and_then(Json::as_u64), Some(1));

    // Generation 2: identical inputs — agreement ≈ 1.0, no drift.
    run_align_job(second.addr(), &dir, 1);
    let records = fetch_records(second.addr());
    assert_eq!(records.len(), 2);
    let r = &records[1];
    assert_eq!(r.get("generation").and_then(Json::as_u64), Some(2));
    let agreement = r
        .get("agreement")
        .and_then(Json::as_f64)
        .expect("generation 2 compares against generation 1");
    assert!(agreement > 0.99, "identical runs agree: {agreement}");
    assert_eq!(r.get("drift").and_then(Json::as_bool), Some(false));

    // Generation 3: 10 of the 40 right-side addresses moved, so a
    // quarter of the assignment disappears — far past the 5% drift
    // threshold.
    let (_, kb2_moved) = people_pair(40, 10);
    save_kb_v2(&kb2_moved, dir.join("right.snap")).unwrap();
    run_align_job(second.addr(), &dir, 2);
    let records = fetch_records(second.addr());
    assert_eq!(records.len(), 3);
    let r = &records[2];
    assert_eq!(r.get("generation").and_then(Json::as_u64), Some(3));
    let agreement = r
        .get("agreement")
        .and_then(Json::as_f64)
        .expect("generation 3 compares against generation 2");
    assert!(
        agreement < 0.95,
        "a quarter of the assignment moved: {agreement}"
    );
    assert_eq!(
        r.get("drift").and_then(Json::as_bool),
        Some(true),
        "drift must be flagged: {r:?}"
    );

    second.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Without `--run-history` the route 404s with a hint.
#[test]
fn runs_route_is_404_when_history_is_disabled() {
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
    let (status, body) = get(handle.addr(), "/v1/debug/runs");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("--run-history"), "{body}");
    handle.shutdown();
}
