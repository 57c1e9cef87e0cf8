//! End-to-end test of the replication subsystem over real TCP: one
//! primary and **two replicas**, each a full `paris-server` daemon. The
//! replicas start from empty mirror directories, converge on the
//! primary's catalog, follow a snapshot update published with
//! `POST /pairs/<name>/reload`, reject a corrupted transfer while
//! keeping the old image serving, and propagate a deletion — all while
//! concurrent keep-alive clients hammer both replicas with **zero
//! failed reads**. This is the acceptance harness of ISSUE 4.

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

fn read_response(reader: &mut BufReader<TcpStream>) -> Result<(u16, String), String> {
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("status line: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("header: {e}"))?;
        let line = line.trim_end();
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
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("body: {e}"))?;
    String::from_utf8(body)
        .map(|b| (status, b))
        .map_err(|e| format!("utf8: {e}"))
}

fn keep_alive_get(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    path: &str,
) -> Result<(u16, String), String> {
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    read_response(reader)
}

fn oneshot(addr: std::net::SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("send");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    read_response(&mut reader).expect("response")
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    oneshot(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    oneshot(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
        ),
    )
}

fn wait_until(addr: std::net::SocketAddr, path: &str, needle: &str, what: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let (_, body) = get(addr, path);
        if body.contains(needle) {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{what}: {path} never contained {needle}; last body: {body}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn two_replicas_follow_the_primary_with_zero_failed_reads() {
    let root = std::env::temp_dir().join("paris_replication_e2e");
    std::fs::remove_dir_all(&root).ok();
    let primary_dir = root.join("primary");
    std::fs::create_dir_all(&primary_dir).unwrap();
    MappedPairSnapshot::save_v2(&snapshot_of(3), primary_dir.join("alpha.snap")).unwrap();
    MappedPairSnapshot::save_v2(&snapshot_of(4), primary_dir.join("beta.snap")).unwrap();

    // The primary watches its own directory so operator-side deletions
    // leave the catalog (and therefore the manifest).
    let primary = Server::bind_catalog(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 8,
        catalog_dir: Some(primary_dir.clone()),
        watch_interval: Some(Duration::from_millis(50)),
        ..ServerConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let primary_addr = primary.addr();

    // Two replicas, each starting from a nonexistent mirror directory.
    let mut replicas = Vec::new();
    let mut replica_addrs = Vec::new();
    for i in 0..2 {
        let handle = Server::bind_catalog(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 8,
            catalog_dir: Some(root.join(format!("replica{i}"))),
            replica_of: Some(format!("http://{primary_addr}")),
            sync_interval: Duration::from_millis(100),
            ..ServerConfig::default()
        })
        .unwrap()
        .spawn()
        .unwrap();
        replica_addrs.push(handle.addr());
        replicas.push(handle);
    }

    // Both replicas converge on the initial catalog.
    for &addr in &replica_addrs {
        wait_until(
            addr,
            "/pairs/alpha/sameas?iri=http://a/p1",
            "http://b/q1",
            "initial alpha",
        );
        wait_until(
            addr,
            "/pairs/beta/sameas?iri=http://a/p3",
            "http://b/q3",
            "initial beta",
        );
        let (_, health) = get(addr, "/healthz");
        assert!(health.contains("\"role\":\"replica\""), "{health}");
        assert!(
            health.contains(&format!("\"upstream\":\"http://{primary_addr}\"")),
            "{health}"
        );
        wait_until(
            addr,
            "/healthz",
            "\"last_sync_seconds_ago\"",
            "sync time reported",
        );
        // The replica serves the mirrored image in place, like the primary.
        let (_, beta) = get(addr, "/pairs/beta/stats");
        assert!(beta.contains("\"format\":\"v2\""), "{beta}");
    }
    let (_, primary_health) = get(primary_addr, "/healthz");
    assert!(
        primary_health.contains("\"role\":\"primary\""),
        "{primary_health}"
    );

    // Hammer both replicas with keep-alive clients for the whole update
    // + corruption story below; every response must be a 200.
    let stop = Arc::new(AtomicBool::new(false));
    let failures = Arc::new(AtomicU64::new(0));
    let successes = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = replica_addrs
        .iter()
        .flat_map(|&addr| [(addr, 0usize), (addr, 1usize)])
        .map(|(addr, offset)| {
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
                    "/pairs/alpha/stats",
                    "/pairs/beta/neighbors?iri=http://a/p0",
                ];
                let mut i = offset;
                while !stop.load(Ordering::Relaxed) {
                    match keep_alive_get(&mut stream, &mut reader, paths[i % paths.len()]) {
                        Ok((200, body)) if !body.is_empty() => {
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok((status, body)) => {
                            eprintln!("client on {addr}: unexpected {status}: {body}");
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            eprintln!("client on {addr}: {e}");
                            failures.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                    i += 1;
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));

    // Publish a bigger alpha on the primary the supported way: replace
    // the snapshot file, then POST /pairs/alpha/reload.
    MappedPairSnapshot::save_v2(&snapshot_of(6), primary_dir.join("alpha.snap")).unwrap();
    let (status, body) = post(primary_addr, "/pairs/alpha/reload");
    assert_eq!(status, 200, "{body}");
    for &addr in &replica_addrs {
        wait_until(
            addr,
            "/pairs/alpha/sameas?iri=http://a/p5",
            "http://b/q5",
            "alpha update",
        );
        wait_until(addr, "/healthz", "\"lag\":0", "lag back to zero");
    }

    // Corrupt beta *on the primary*: replicas must reject the transfer
    // (the bytes are not a valid snapshot) and keep serving their old
    // image without interruption.
    std::fs::write(primary_dir.join("beta.snap"), b"garbage, not a snapshot").unwrap();
    std::thread::sleep(Duration::from_millis(600));
    for &addr in &replica_addrs {
        wait_until(addr, "/healthz", "\"last_error\"", "beta failure visible");
        let (status, body) = get(addr, "/pairs/beta/sameas?iri=http://a/p3");
        assert_eq!(status, 200, "old beta must keep serving: {body}");
        assert!(body.contains("http://b/q3"), "{body}");
    }
    // The replicas' mirror files are untouched (still the old valid v2).
    for i in 0..2 {
        let bytes = std::fs::read(root.join(format!("replica{i}/beta.snap"))).unwrap();
        assert_ne!(
            &bytes[..7],
            b"garbage",
            "replica {i} must not install garbage"
        );
    }

    // Repair beta with a *new* snapshot: the failing pair recovers after
    // its backoff and both replicas converge on the repaired image.
    MappedPairSnapshot::save_v2(&snapshot_of(7), primary_dir.join("beta.snap")).unwrap();
    for &addr in &replica_addrs {
        wait_until(
            addr,
            "/pairs/beta/sameas?iri=http://a/p6",
            "http://b/q6",
            "beta repair",
        );
    }

    // Self-healing: a locally deleted mirror file is noticed (the
    // engine's checksum cache is file-signature-keyed, so the deletion
    // invalidates it) and re-downloaded within a poll — while the pair
    // keeps serving from its in-memory image the whole time.
    std::fs::remove_file(root.join("replica0/alpha.snap")).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while !root.join("replica0/alpha.snap").exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "deleted mirror file never re-synced"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    wait_until(
        replica_addrs[0],
        "/pairs/alpha/sameas?iri=http://a/p5",
        "http://b/q5",
        "alpha after self-heal",
    );

    // Stop the load; not a single request may have failed across the
    // update, the corruption window, and the repair swaps.
    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().expect("client thread");
    }
    assert_eq!(
        failures.load(Ordering::Relaxed),
        0,
        "every concurrent replica read must succeed"
    );
    let ok = successes.load(Ordering::Relaxed);
    assert!(ok > 100, "clients must have made real progress (got {ok})");

    // Deletions propagate: removing alpha from the primary's directory
    // (picked up by its watch rescan) must drop it from the manifest,
    // from both replicas' catalogs, and from their mirror directories.
    std::fs::remove_file(primary_dir.join("alpha.snap")).unwrap();
    wait_until(
        primary_addr,
        "/pairs",
        "\"default\":\"beta\"",
        "primary rescan",
    );
    for (i, &addr) in replica_addrs.iter().enumerate() {
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        loop {
            let (status, _) = get(addr, "/pairs/alpha/stats");
            if status == 404 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "replica {i} never dropped alpha"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
        assert!(
            !root.join(format!("replica{i}/alpha.snap")).exists(),
            "replica {i}'s mirror file must be deleted"
        );
        // No temp-file litter from all the transfers.
        let stray: Vec<_> = std::fs::read_dir(root.join(format!("replica{i}")))
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n != "beta.snap")
            .collect();
        assert!(stray.is_empty(), "replica {i} litter: {stray:?}");
    }

    for r in replicas {
        r.shutdown();
    }
    primary.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
