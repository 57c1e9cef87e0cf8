//! End-to-end test of the `/v1/metrics` telemetry over real TCP: a
//! two-pair catalog daemon under concurrent mixed clients (raw
//! keep-alive connections plus the typed ETag-caching `ParisClient`),
//! with *exact* request accounting. Every counter the scrape reports
//! must sum precisely to the requests the test sent — no sampling, no
//! drift — the latency histograms must be monotone and merge-correct,
//! the numbers must stay consistent across a rolling snapshot reload,
//! and the Prometheus text exposition must parse line by line.
//!
//! Self-observation rule being pinned down: `paris_requests_total` is
//! bumped *before* routing (so a scrape's own body includes the
//! in-flight scrape), while the per-route/status/latency series are
//! recorded *after* the response is rendered (so a scrape's body
//! excludes exactly the scrape itself).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use paris_repro::client::json::{self, Json};
use paris_repro::client::{HttpClient, ParisClient, Side, Upstream};
use paris_repro::kb::{Kb, KbBuilder};
use paris_repro::paris::{
    AlignedPairSnapshot, Aligner, MappedPairSnapshot, OwnedAlignment, ParisConfig,
};
use paris_repro::rdf::Literal;
use paris_repro::server::{Server, ServerConfig};

/// A pair of KBs with `n` aligned people.
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
/// `(status, body)`.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content-length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

/// One GET on a fresh connection.
fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send");
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)
}

/// One POST on a fresh connection.
fn post(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
                 Content-Length: 0\r\n\r\n"
            )
            .as_bytes(),
        )
        .expect("send");
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)
}

/// Scrapes `/v1/metrics?format=json` and returns the parsed `data`.
fn scrape_json(addr: std::net::SocketAddr) -> Json {
    let (status, body) = get(addr, "/v1/metrics?format=json");
    assert_eq!(status, 200, "{body}");
    json::parse(&body)
        .expect("metrics json parses")
        .get("data")
        .cloned()
        .expect("enveloped")
}

/// The value of the counter/gauge entry with `name` and, when given,
/// a `label == value` pair.
fn value_of(entries: &Json, kind: &str, name: &str, label: Option<(&str, &str)>) -> Option<u64> {
    entries.get(kind)?.as_array()?.iter().find_map(|e| {
        if e.get("name")?.as_str()? != name {
            return None;
        }
        if let Some((k, v)) = label {
            if e.get("labels")?.get(k)?.as_str()? != v {
                return None;
            }
        }
        e.get("value")?.as_u64()
    })
}

/// Sum of every sample of one counter family.
fn family_sum(entries: &Json, kind: &str, name: &str, value_key: &str) -> u64 {
    entries
        .get(kind)
        .and_then(Json::as_array)
        .map(|samples| {
            samples
                .iter()
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .filter_map(|e| e.get(value_key).and_then(Json::as_u64))
                .sum()
        })
        .unwrap_or(0)
}

/// All histogram entries of one family, as `(route, entry)` pairs.
fn histograms_of<'a>(entries: &'a Json, name: &str) -> Vec<&'a Json> {
    entries
        .get("histograms")
        .and_then(Json::as_array)
        .map(|samples| {
            samples
                .iter()
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn metrics_account_for_every_request_exactly() {
    let dir = std::env::temp_dir().join("paris_metrics_e2e");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    MappedPairSnapshot::save_v2(&snapshot_of(3), dir.join("alpha.snap")).unwrap();
    MappedPairSnapshot::save_v2(&snapshot_of(5), dir.join("beta.snap")).unwrap();

    let server = Server::bind_catalog(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 8,
        catalog_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();

    // --- Phase 1: concurrent mixed clients with exact request counts.
    // Four raw keep-alive clients, each 50 requests on its own route,
    // so per-route totals are known exactly.
    const PER_CLIENT: u64 = 50;
    let routes = [
        ("sameas", "/v1/pairs/alpha/sameas?iri=http://a/p1"),
        ("neighbors", "/v1/pairs/beta/neighbors?iri=http://a/p2"),
        ("stats", "/v1/pairs/alpha/stats"),
        ("healthz", "/v1/healthz"),
    ];
    std::thread::scope(|scope| {
        for (_, path) in routes {
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                for _ in 0..PER_CLIENT {
                    writer
                        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                        .expect("send");
                    let (status, body) = read_response(&mut reader);
                    assert_eq!(status, 200, "{path}: {body}");
                }
            });
        }
    });

    // Two typed-client lookups of the same path: the second one rides
    // the client's ETag cache, so the daemon answers 304 — one
    // server-side ETag hit, still two requests.
    let mut client = ParisClient::new(&format!("http://{addr}")).unwrap();
    for _ in 0..2 {
        let answer = client
            .sameas(Some("alpha"), "http://a/p1", Side::Left, None)
            .unwrap();
        assert_eq!(answer.sameas.as_deref(), Some("http://b/q1"));
    }
    assert_eq!(client.metrics().cache_hits(), 1);
    assert_eq!(client.metrics().requests(), 2);
    let total = 4 * PER_CLIENT + 2;
    // Close the typed client's keep-alive connection now — a lingering
    // idle connection would make the final shutdown wait out the
    // server's read timeout.
    drop(client);

    // --- Scrape #1 (JSON): exact accounting.
    let data = scrape_json(addr);
    // The total-requests counter is bumped before routing, so the body
    // includes the in-flight scrape itself…
    assert_eq!(
        value_of(&data, "counters", "paris_requests_total", None),
        Some(total + 1)
    );
    // …while the per-route series are recorded after rendering, so they
    // exclude it and sum to exactly the load we sent.
    assert_eq!(
        family_sum(&data, "counters", "paris_route_requests_total", "value"),
        total
    );
    for (route, expected) in [
        ("sameas", PER_CLIENT + 2),
        ("neighbors", PER_CLIENT),
        ("stats", PER_CLIENT),
        ("healthz", PER_CLIENT),
    ] {
        assert_eq!(
            value_of(
                &data,
                "counters",
                "paris_route_requests_total",
                Some(("route", route))
            ),
            Some(expected),
            "route {route}"
        );
    }
    // Per-pair counters: alpha took the sameas + stats traffic, beta the
    // neighbors traffic. (healthz and the scrape carry no pair.)
    assert_eq!(
        value_of(
            &data,
            "counters",
            "paris_pair_requests_total",
            Some(("pair", "alpha"))
        ),
        Some(2 * PER_CLIENT + 2)
    );
    assert_eq!(
        value_of(
            &data,
            "counters",
            "paris_pair_requests_total",
            Some(("pair", "beta"))
        ),
        Some(PER_CLIENT)
    );
    // Status classes: everything was 200 except the one ETag 304.
    assert_eq!(
        value_of(
            &data,
            "counters",
            "paris_responses_total",
            Some(("class", "2xx"))
        ),
        Some(total - 1)
    );
    assert_eq!(
        value_of(
            &data,
            "counters",
            "paris_responses_total",
            Some(("class", "3xx"))
        ),
        Some(1)
    );
    assert_eq!(
        family_sum(&data, "counters", "paris_responses_total", "value"),
        total
    );
    assert_eq!(
        value_of(&data, "counters", "paris_etag_hits_total", None),
        Some(1)
    );
    assert!(value_of(&data, "counters", "paris_etag_misses_total", None).unwrap() >= 1);

    // Histograms: per-route sample counts equal the route counters
    // (merge-correctness: the per-route partition sums to the whole),
    // and the derived quantiles are monotone and bounded by max.
    let latencies = histograms_of(&data, "paris_route_latency_microseconds");
    let mut histogram_total = 0u64;
    for h in &latencies {
        let route = h
            .get("labels")
            .unwrap()
            .get("route")
            .unwrap()
            .as_str()
            .unwrap();
        let count = h.get("count").unwrap().as_u64().unwrap();
        histogram_total += count;
        assert_eq!(
            value_of(
                &data,
                "counters",
                "paris_route_requests_total",
                Some(("route", route))
            ),
            Some(count),
            "route {route}: histogram count vs counter"
        );
        let q = |k: &str| h.get(k).unwrap().as_u64().unwrap();
        assert!(
            q("p50") <= q("p90") && q("p90") <= q("p99") && q("p99") <= q("max"),
            "route {route}: quantiles not monotone: {h:?}"
        );
        // Bucket counts must sum back to the total count.
        let bucket_sum: u64 = h
            .get("buckets")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|b| b.as_array().unwrap()[1].as_u64().unwrap())
            .sum();
        assert_eq!(bucket_sum, count, "route {route}: bucket sum");
    }
    assert_eq!(histogram_total, total);

    // Per-pair serving gauges (satellite: loaded/generation/reloads).
    for pair in ["alpha", "beta"] {
        let lbl = Some(("pair", pair));
        assert_eq!(
            value_of(&data, "gauges", "paris_pair_generation", lbl),
            Some(1)
        );
        assert_eq!(
            value_of(&data, "gauges", "paris_pair_reloads", lbl),
            Some(0)
        );
        assert_eq!(value_of(&data, "gauges", "paris_pair_loaded", lbl), Some(1));
    }
    assert_eq!(value_of(&data, "gauges", "paris_pairs", None), Some(2));

    // --- Scrape #2 (Prometheus text): parses line by line, histogram
    // buckets cumulative and consistent with _count.
    let (status, text) = get(addr, "/v1/metrics");
    assert_eq!(status, 200);
    let mut prev: Option<(String, u64)> = None; // (series prefix, last cumulative)
    for line in text.lines() {
        assert!(!line.is_empty(), "blank line in exposition");
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            prev = None;
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("metric line has a value");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value in {line:?}"));
        assert!(value.is_finite() && value >= 0.0, "{line}");
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name in {line:?}"
        );
        if series.contains('{') {
            assert!(series.ends_with('}'), "unterminated labels in {line:?}");
        }
        // Cumulative bucket counts within one series never decrease.
        if let Some(bucket_prefix) = series.split(",le=").next() {
            if series.contains("_bucket{") {
                if let Some((p, last)) = &prev {
                    if p == bucket_prefix {
                        assert!(value as u64 >= *last, "buckets not cumulative at {line:?}");
                    }
                }
                prev = Some((bucket_prefix.to_owned(), value as u64));
            } else {
                prev = None;
            }
        }
    }
    // The text scrape runs after the JSON scrape: totals moved by
    // exactly that one observed request.
    assert!(text.contains(&format!("paris_requests_total {}", total + 2)));
    assert!(text.contains("paris_route_requests_total{route=\"metrics\"} 1"));
    // +Inf bucket equals _count for the sameas route.
    let count_line = format!(
        "paris_route_latency_microseconds_count{{route=\"sameas\"}} {}",
        PER_CLIENT + 2
    );
    let inf_line = format!(
        "paris_route_latency_microseconds_bucket{{route=\"sameas\",le=\"+Inf\"}} {}",
        PER_CLIENT + 2
    );
    assert!(text.contains(&count_line), "{text}");
    assert!(text.contains(&inf_line), "{text}");

    // --- Phase 2: rolling reload under load; accounting stays exact.
    MappedPairSnapshot::save_v2(&snapshot_of(7), dir.join("alpha.snap")).unwrap();
    let before = value_of(&scrape_json(addr), "counters", "paris_requests_total", None).unwrap();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..PER_CLIENT {
                let (status, _) = get(addr, "/v1/pairs/alpha/sameas?iri=http://a/p1");
                assert_eq!(status, 200);
            }
        });
        scope.spawn(|| {
            let (status, body) = post(addr, "/v1/pairs/alpha/reload");
            assert_eq!(status, 200, "{body}");
        });
    });
    let data = scrape_json(addr);
    // before already includes its own scrape; since then: the load, the
    // reload, and the in-flight scrape.
    assert_eq!(
        value_of(&data, "counters", "paris_requests_total", None),
        Some(before + PER_CLIENT + 2)
    );
    assert_eq!(
        value_of(
            &data,
            "counters",
            "paris_route_requests_total",
            Some(("route", "reload"))
        ),
        Some(1)
    );
    let lbl = Some(("pair", "alpha"));
    assert_eq!(
        value_of(&data, "gauges", "paris_pair_generation", lbl),
        Some(2)
    );
    assert_eq!(
        value_of(&data, "gauges", "paris_pair_reloads", lbl),
        Some(1)
    );
    // The reloaded pair serves the extended snapshot.
    let (status, body) = get(addr, "/v1/pairs/alpha/sameas?iri=http://a/p6");
    assert_eq!(status, 200);
    assert!(body.contains("http://b/q6"), "{body}");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Every response carries an `X-Request-Id` (errors repeat it in the body).
#[test]
fn every_response_carries_its_request_id() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    };
    let handle = Server::bind(snapshot_of(3), config)
        .unwrap()
        .spawn()
        .unwrap();
    let upstream = Upstream::parse(&format!("http://{}", handle.addr())).unwrap();
    let mut client = HttpClient::new(upstream, Duration::from_secs(10));
    for (path, status) in [
        ("/v1/healthz", 200),
        ("/v1/pairs/default/sameas?iri=http://a/nope", 404),
        ("/healthz", 200),
        ("/sameas?iri=http://a/nope", 404),
    ] {
        let r = client.get(path, None, 1 << 20).expect("GET");
        assert_eq!(r.status, status, "{path}");
        let id = r.header("x-request-id").expect("every response has an id");
        let timed = r
            .header("server-timing")
            .is_some_and(|t| t.starts_with("app;dur="));
        assert_eq!(
            timed,
            path.starts_with("/v1"),
            "{path}: Server-Timing is /v1 only"
        );
        if status >= 400 {
            let body = json::parse(std::str::from_utf8(&r.body).unwrap()).expect("JSON error");
            let in_body = body.get("error").and_then(|e| e.get("request_id"));
            assert_eq!(in_body.and_then(Json::as_str), Some(id), "{path}");
        }
    }
    drop(client);
    handle.shutdown();
}
