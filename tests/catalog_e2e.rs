//! End-to-end test of the multi-pair serving catalog over real TCP: one
//! daemon serves three alignment pairs (mmapped snapshots) from a
//! catalog directory, under concurrent keep-alive
//! load, with **independent per-pair reload generations** and zero
//! failed responses — the acceptance harness of the snapshot-arena /
//! catalog subsystem. Also exercises the HTTP conformance satellites on
//! the wire: `405`s carry `Allow`, unknown routes return JSON.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use paris_repro::kb::{Kb, KbBuilder};
use paris_repro::paris::{
    AlignedPairSnapshot, Aligner, MappedPairSnapshot, OwnedAlignment, ParisConfig,
};
use paris_repro::rdf::Literal;
use paris_repro::server::{Server, ServerConfig};

/// A pair of KBs with `n` aligned people; a snapshot built from a larger
/// `n` strictly extends the previous answers.
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

fn snapshot_of(n: usize) -> AlignedPairSnapshot {
    let (kb1, kb2) = people_pair(n);
    let owned = {
        let result = Aligner::new(&kb1, &kb2, ParisConfig::default().with_threads(1)).run();
        OwnedAlignment::from_result(&result)
    };
    AlignedPairSnapshot::new(kb1, kb2, owned)
}

/// Reads one `Content-Length`-framed HTTP response; returns
/// `(status, headers, body)`.
fn read_response(reader: &mut BufReader<TcpStream>) -> Result<(u16, Vec<String>, String), String> {
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("status line: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("header: {e}"))?;
        let line = line.trim_end().to_owned();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().map_err(|e| format!("content-length: {e}"))?;
        }
        headers.push(line);
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("body: {e}"))?;
    String::from_utf8(body)
        .map(|b| (status, headers, b))
        .map_err(|e| format!("utf8: {e}"))
}

/// One keep-alive GET on an existing connection.
fn keep_alive_get(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    path: &str,
) -> Result<(u16, String), String> {
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    read_response(reader).map(|(s, _, b)| (s, b))
}

/// One request on a fresh connection.
fn oneshot(addr: std::net::SocketAddr, raw: &str) -> (u16, Vec<String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("send");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    read_response(&mut reader).expect("response")
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, Vec<String>, String) {
    oneshot(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, Vec<String>, String) {
    oneshot(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn catalog_serves_three_pairs_with_independent_reloads_under_load() {
    let dir = std::env::temp_dir().join("paris_catalog_e2e");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // Three pairs of distinguishable sizes.
    MappedPairSnapshot::save_v2(&snapshot_of(3), dir.join("alpha.snap")).unwrap();
    MappedPairSnapshot::save_v2(&snapshot_of(5), dir.join("beta.snap")).unwrap();
    MappedPairSnapshot::save_v2(&snapshot_of(7), dir.join("gamma.snap")).unwrap();

    let server = Server::bind_catalog(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        // 4 keep-alive clients pin 4 workers; the extra workers serve
        // the control-plane requests (reloads, assertions).
        threads: 8,
        catalog_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    assert_eq!(server.pair_names(), ["alpha", "beta", "gamma"]);
    let handle = server.spawn().unwrap();
    let addr = handle.addr();

    // Touch every pair once so all three are resident (generation 1)
    // before the load starts, and check per-pair answers.
    for (pair, largest) in [("alpha", 2), ("beta", 4), ("gamma", 6)] {
        let (status, _, body) = get(
            addr,
            &format!("/pairs/{pair}/sameas?iri=http://a/p{largest}"),
        );
        assert_eq!(status, 200, "{pair}: {body}");
        assert!(
            body.contains(&format!("http://b/q{largest}")),
            "{pair}: {body}"
        );
    }
    // beta really is served from the mmapped v2 arena.
    let (_, _, beta_stats) = get(addr, "/pairs/beta/stats");
    assert!(beta_stats.contains("\"format\":\"v2\""), "{beta_stats}");

    // Concurrent keep-alive clients hammer all three pairs for the whole
    // duration of the reloads below. Every single response must be a 200.
    let stop = Arc::new(AtomicBool::new(false));
    let failures = Arc::new(AtomicU64::new(0));
    let successes = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let failures = Arc::clone(&failures);
            let successes = Arc::clone(&successes);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("client connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let paths = [
                    "/pairs/alpha/sameas?iri=http://a/p1",
                    "/pairs/beta/sameas?iri=http://a/p1",
                    "/pairs/gamma/sameas?iri=http://a/p1",
                    "/pairs/beta/stats",
                    "/pairs/gamma/neighbors?iri=http://a/p0",
                    "/healthz",
                ];
                let mut i = c;
                while !stop.load(Ordering::Relaxed) {
                    match keep_alive_get(&mut stream, &mut reader, paths[i % paths.len()]) {
                        Ok((200, body)) if !body.is_empty() => {
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok((status, body)) => {
                            eprintln!("client {c}: unexpected {status}: {body}");
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            eprintln!("client {c}: {e}");
                            failures.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                    i += 1;
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));

    // Reload beta twice (replacing it with a bigger v2 snapshot first)
    // and gamma once — generations move independently, under load.
    MappedPairSnapshot::save_v2(&snapshot_of(6), dir.join("beta.snap")).unwrap();
    let (status, _, body) = post(addr, "/pairs/beta/reload", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"generation\":2"), "{body}");
    assert!(body.contains("\"aligned_instances\":6"), "{body}");
    // The new entity answers only on beta.
    let (status, _, body) = get(addr, "/pairs/beta/sameas?iri=http://a/p5");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("http://b/q5"), "{body}");
    assert_eq!(get(addr, "/pairs/alpha/sameas?iri=http://a/p5").0, 404);

    std::thread::sleep(Duration::from_millis(50));
    let (status, _, body) = post(addr, "/pairs/beta/reload", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"generation\":3"), "{body}");
    let (status, _, body) = post(addr, "/pairs/gamma/reload", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"generation\":2"), "{body}");

    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().expect("client thread");
    }
    assert_eq!(
        failures.load(Ordering::Relaxed),
        0,
        "every concurrent request must succeed across per-pair reloads"
    );
    let ok = successes.load(Ordering::Relaxed);
    assert!(ok > 50, "clients must have made real progress (got {ok})");

    // Per-pair generations are independent: alpha untouched.
    let (_, _, alpha) = get(addr, "/pairs/alpha/healthz");
    assert!(alpha.contains("\"generation\":1"), "{alpha}");
    let (_, _, beta) = get(addr, "/pairs/beta/healthz");
    assert!(beta.contains("\"generation\":3"), "{beta}");
    assert!(beta.contains("\"reloads\":2"), "{beta}");
    let (_, _, gamma) = get(addr, "/pairs/gamma/stats");
    assert!(gamma.contains("\"generation\":2"), "{gamma}");

    // Bare legacy routes alias the default pair (alpha, first sorted).
    let (_, _, bare) = get(addr, "/stats");
    assert!(bare.contains("\"pair\":\"alpha\""), "{bare}");
    let (_, _, health) = get(addr, "/healthz");
    assert!(health.contains("\"pairs\":3"), "{health}");
    assert!(health.contains("\"version\":"), "{health}");

    // /pairs lists all three with their states.
    let (_, _, listing) = get(addr, "/pairs");
    for name in ["alpha", "beta", "gamma"] {
        assert!(
            listing.contains(&format!("\"name\":\"{name}\"")),
            "{listing}"
        );
    }

    // HTTP conformance on the wire: 405 carries Allow; unknown routes
    // return a JSON error body, whatever the method.
    let (status, headers, _) = oneshot(
        addr,
        "DELETE /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 405);
    assert!(
        headers.iter().any(|h| h.eq_ignore_ascii_case("allow: GET")),
        "{headers:?}"
    );
    let (status, headers, body) = oneshot(
        addr,
        "POST /no/such/route HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 404);
    assert!(
        headers
            .iter()
            .any(|h| h.eq_ignore_ascii_case("content-type: application/json")),
        "{headers:?}"
    );
    assert!(body.contains("\"error\""), "{body}");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn catalog_watch_discovers_new_pairs_and_reloads_changed_ones() {
    let dir = std::env::temp_dir().join("paris_catalog_watch_e2e");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    MappedPairSnapshot::save_v2(&snapshot_of(3), dir.join("alpha.snap")).unwrap();

    let server = Server::bind_catalog(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
        catalog_dir: Some(dir.clone()),
        watch_interval: Some(Duration::from_millis(25)),
        ..ServerConfig::default()
    })
    .unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();

    // Load alpha, then replace its file: the watch thread must swap it.
    assert_eq!(get(addr, "/pairs/alpha/sameas?iri=http://a/p1").0, 200);
    std::thread::sleep(Duration::from_millis(30));
    MappedPairSnapshot::save_v2(&snapshot_of(5), dir.join("alpha.snap")).unwrap();
    wait_until(addr, "/pairs/alpha/healthz", "\"generation\":2");

    // Drop a brand-new pair into the directory: the rescan publishes it.
    MappedPairSnapshot::save_v2(&snapshot_of(4), dir.join("delta.snap")).unwrap();
    wait_until(addr, "/pairs", "\"name\":\"delta\"");
    let (status, _, body) = get(addr, "/pairs/delta/sameas?iri=http://a/p3");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("http://b/q3"), "{body}");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

fn wait_until(addr: std::net::SocketAddr, path: &str, needle: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (_, _, body) = get(addr, path);
        if body.contains(needle) {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{path} never contained {needle}: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
