//! End-to-end test of the serving subsystem over real TCP: snapshot a
//! generated pair, start the daemon on an ephemeral port, and check that
//! every endpoint answers — including that `GET /sameas` agrees with the
//! in-process alignment, and that a `POST /align` job completes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use paris_repro::datagen::{movies, MoviesConfig};
use paris_repro::kb::snapshot_v2::save_kb_v2;
use paris_repro::paris::{
    AlignedPairSnapshot, Aligner, MappedPairSnapshot, OwnedAlignment, ParisConfig,
};
use paris_repro::server::{Server, ServerConfig};

/// One HTTP/1.1 request over a fresh connection; returns (status, body).
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

fn get(addr: std::net::SocketAddr, path_and_query: &str) -> (u16, String) {
    request(
        addr,
        &format!("GET {path_and_query} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
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

#[test]
fn daemon_serves_the_snapshot() {
    let dir = std::env::temp_dir().join("paris_server_e2e");
    std::fs::create_dir_all(&dir).unwrap();

    // Align a movies pair in-process; keep reference answers.
    let pair = movies::generate(&MoviesConfig {
        num_movies: 80,
        ..Default::default()
    });
    let result = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
    let reference: Vec<(String, String)> = result
        .instance_pairs()
        .iter()
        .take(10)
        .filter_map(|&(x, x2, _)| {
            Some((
                pair.kb1.iri(x)?.as_str().to_owned(),
                pair.kb2.iri(x2)?.as_str().to_owned(),
            ))
        })
        .collect();
    assert!(!reference.is_empty());
    let owned = OwnedAlignment::from_result(&result);
    drop(result);

    // Single-KB snapshots for the POST /align job.
    let left_snap = dir.join("left.snap");
    let right_snap = dir.join("right.snap");
    save_kb_v2(&pair.kb1, &left_snap).unwrap();
    save_kb_v2(&pair.kb2, &right_snap).unwrap();

    // Spawn the daemon on an ephemeral port.
    let snapshot = AlignedPairSnapshot::new(pair.kb1, pair.kb2, owned);
    let server = Server::bind(
        snapshot,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 3,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();

    // Liveness and stats.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(body.contains("\"aligned_instances\""), "{body}");
    assert!(body.contains("\"converged\""), "{body}");

    // /sameas agrees with the in-process alignment, both directions.
    for (left_iri, right_iri) in &reference {
        let (status, body) = get(addr, &format!("/sameas?iri={left_iri}"));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(right_iri.as_str()), "{left_iri}: {body}");
        let (status, body) = get(addr, &format!("/sameas?iri={right_iri}&side=right"));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(left_iri.as_str()), "{right_iri}: {body}");
    }

    // /neighbors lists facts; unknown IRIs are 404s; bad input is 400.
    let (status, body) = get(addr, &format!("/neighbors?iri={}&limit=5", reference[0].0));
    assert_eq!(status, 200);
    assert!(body.contains("\"facts\":["), "{body}");
    assert_eq!(get(addr, "/sameas?iri=http://nope/x").0, 404);
    assert_eq!(get(addr, "/sameas").0, 400);
    assert_eq!(get(addr, "/nosuchroute").0, 404);

    // POST /align runs a job over the two single-KB snapshots, writing
    // its pair into a directory of its own (served as a catalog below).
    let job_catalog = dir.join("job-catalog");
    std::fs::create_dir_all(&job_catalog).unwrap();
    let out = job_catalog.join("job-out.snap");
    let (status, body) = post(
        addr,
        "/align",
        &format!(
            "left={}&right={}&out={}&max_iterations=3",
            left_snap.display(),
            right_snap.display(),
            out.display()
        ),
    );
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"job\":1"), "{body}");

    // Poll until done (bounded).
    let mut done = false;
    for _ in 0..600 {
        let (status, body) = get(addr, "/jobs/1");
        assert_eq!(status, 200, "{body}");
        if body.contains("\"status\":\"done\"") {
            assert!(body.contains("\"aligned_instances\""), "{body}");
            done = true;
            break;
        }
        if body.contains("\"status\":\"failed\"") {
            panic!("job failed: {body}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(done, "job did not finish in time");

    // The job's output is the one snapshot format: it opens in place,
    // matches the reference…
    let job_result = MappedPairSnapshot::open(&out).unwrap();
    let (ref_left, ref_right) = &reference[0];
    let x = job_result.kb1().entity_by_iri(ref_left).unwrap();
    let (x2, _) = job_result.alignment().best_match(x).unwrap();
    assert_eq!(job_result.kb2().iri_str(x2), Some(ref_right.as_str()));
    drop(job_result);

    // …and a catalog daemon advertises and serves it as such.
    let catalog = Server::bind_catalog(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
        catalog_dir: Some(job_catalog),
        ..ServerConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let (status, body) = get(catalog.addr(), "/v1/pairs/manifest");
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"name\":\"job-out\"") && body.contains("\"format\":2"),
        "{body}"
    );
    let (status, body) = get(
        catalog.addr(),
        &format!("/v1/pairs/job-out/sameas?iri={ref_left}"),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(ref_right.as_str()), "{body}");
    let (_, body) = get(catalog.addr(), "/v1/pairs");
    assert!(body.contains("\"format\":\"v2\""), "{body}");
    catalog.shutdown();

    // Malformed request gets a 400, not a hang or crash.
    let (status, _) = request(addr, "NONSENSE\r\n\r\n");
    assert_eq!(status, 400);

    // Keep-alive: two requests on one connection.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut first = [0u8; 512];
    let n = stream.read(&mut first).unwrap();
    assert!(String::from_utf8_lossy(&first[..n]).contains("200 OK"));
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut rest = String::new();
    stream.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("200 OK"), "{rest}");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
