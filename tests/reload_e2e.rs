//! End-to-end test of hot snapshot reload: swap snapshots under
//! concurrent keep-alive load and assert that no request ever fails, that
//! `/stats` reports the bumped generation, and that answers flip to the
//! new snapshot's content. Also exercises the `--watch` mtime re-check.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use paris_repro::kb::{Kb, KbBuilder};
use paris_repro::paris::{
    AlignedPairSnapshot, Aligner, MappedPairSnapshot, OwnedAlignment, PairImage, ParisConfig,
};
use paris_repro::rdf::Literal;
use paris_repro::server::{Server, ServerConfig};

/// A pair of KBs with `n` aligned people; every snapshot generation built
/// from a larger `n` strictly extends the previous answers.
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

/// Reads exactly one `Content-Length`-framed HTTP response; returns
/// `(status, body)`.
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

/// One keep-alive GET on an existing connection.
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

/// One request on a fresh connection.
fn oneshot(addr: std::net::SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("send");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    read_response(&mut reader).expect("response")
}

#[test]
fn reload_swaps_atomically_under_concurrent_load() {
    let dir = std::env::temp_dir().join("paris_reload_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("pair.snap");
    MappedPairSnapshot::save_v2(&snapshot_of(4), &snap_path).unwrap();

    let server = Server::bind_image(
        PairImage::load(&snap_path).unwrap(),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            // 4 keep-alive clients pin 4 workers; the extra workers serve
            // the control-plane requests (reload, assertions).
            threads: 6,
            snapshot_path: Some(snap_path.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();

    // Concurrent keep-alive clients hammer read endpoints for the whole
    // duration of two snapshot swaps. Every single response must be a 200
    // — a failed read, a non-200, or a connection error counts as a
    // failure.
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
                let paths = ["/sameas?iri=http://a/p1", "/stats", "/healthz"];
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

    // Let the clients get going.
    std::thread::sleep(Duration::from_millis(50));

    // Swap 1: a bigger snapshot via POST /reload against the configured
    // source path (atomic file replace, then swap).
    MappedPairSnapshot::save_v2(&snapshot_of(6), &snap_path).unwrap();
    let (status, body) = oneshot(
        addr,
        "POST /reload HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"generation\":2"), "{body}");
    assert!(body.contains("\"aligned_instances\":6"), "{body}");

    // The new entity answers; the old entities still answer.
    let (status, body) = oneshot(
        addr,
        "GET /sameas?iri=http://a/p5 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200, "p5 exists only in generation 2: {body}");
    assert!(body.contains("http://b/q5"), "{body}");

    // Swap 2: again, under the same load.
    std::thread::sleep(Duration::from_millis(50));
    MappedPairSnapshot::save_v2(&snapshot_of(8), &snap_path).unwrap();
    let (status, body) = oneshot(
        addr,
        "POST /reload HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"generation\":3"), "{body}");

    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().expect("client thread");
    }

    assert_eq!(
        failures.load(Ordering::Relaxed),
        0,
        "every concurrent request must succeed across swaps"
    );
    let ok = successes.load(Ordering::Relaxed);
    assert!(ok > 50, "clients must have made real progress (got {ok})");

    // /stats reflects the final generation and the reload count.
    let (_, stats) = oneshot(
        addr,
        "GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert!(stats.contains("\"generation\":3"), "{stats}");
    assert!(stats.contains("\"reloads\":2"), "{stats}");
    assert!(stats.contains("\"aligned_instances\":8"), "{stats}");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watch_thread_reloads_on_mtime_change() {
    let dir = std::env::temp_dir().join("paris_watch_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("pair.snap");
    MappedPairSnapshot::save_v2(&snapshot_of(3), &snap_path).unwrap();

    let server = Server::bind_image(
        PairImage::load(&snap_path).unwrap(),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            snapshot_path: Some(snap_path.clone()),
            watch_interval: Some(Duration::from_millis(25)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();

    // Replace the file; the watch thread must notice the new mtime and
    // swap without any request asking for it. (File clocks can be coarse —
    // make sure the mtime actually moves.)
    std::thread::sleep(Duration::from_millis(30));
    MappedPairSnapshot::save_v2(&snapshot_of(5), &snap_path).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, stats) = oneshot(
            addr,
            "GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        if stats.contains("\"generation\":2") {
            assert!(stats.contains("\"aligned_instances\":5"), "{stats}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "watch thread never reloaded: {stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A file in the retired v1 format is refused by name — "re-create it" —
/// at every door a snapshot can come in through, and a reload that hits
/// one leaves the old generation serving.
#[test]
fn retired_v1_files_fail_loudly_at_every_entry_point() {
    use paris_repro::kb::snapshot::SnapshotError;
    use paris_repro::kb::snapshot_v2::checksum_v2;
    use paris_repro::kb::MappedKbSnapshot;
    use paris_repro::replica::sync::validate_snapshot_file;

    let dir = std::env::temp_dir().join("paris_retired_v1_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    // All a v1 file and a v2 file have in common: magic, then version.
    let v1_header = [b"PARISNAP".as_slice(), &1u32.to_le_bytes()].concat();
    let v1_path = dir.join("old.snap");
    std::fs::write(&v1_path, &v1_header).unwrap();
    let retired = SnapshotError::UnsupportedVersion(1).to_string();
    assert!(retired.contains("retired"), "{retired}");
    assert!(
        retired.contains("paris snapshot") && retired.contains("paris ingest"),
        "{retired}"
    );

    assert!(matches!(
        PairImage::load(&v1_path),
        Err(SnapshotError::UnsupportedVersion(1))
    ));
    assert!(matches!(
        MappedKbSnapshot::open(&v1_path),
        Err(SnapshotError::UnsupportedVersion(1))
    ));
    let err = validate_snapshot_file(&v1_path, checksum_v2(&v1_header)).unwrap_err();
    assert!(err.contains(&retired), "{err}");

    let snap_path = dir.join("pair.snap");
    MappedPairSnapshot::save_v2(&snapshot_of(3), &snap_path).unwrap();
    let handle = Server::bind_image(
        PairImage::load(&snap_path).unwrap(),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            snapshot_path: Some(snap_path.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn()
    .unwrap();
    // Replace by rename, as every writer does: the served mapping keeps
    // its inode.
    std::fs::rename(&v1_path, &snap_path).unwrap();
    let (status, body) = oneshot(
        handle.addr(),
        "POST /v1/pairs/pair/reload HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("retired"), "{body}");
    let (status, stats) = oneshot(
        handle.addr(),
        "GET /v1/pairs/pair/stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200, "{stats}");
    assert!(stats.contains("\"generation\":1"), "{stats}");
    assert!(stats.contains("\"aligned_instances\":3"), "{stats}");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
