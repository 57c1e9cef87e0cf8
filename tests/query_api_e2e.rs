//! End-to-end test of the versioned `/v1` query API over real TCP: one
//! catalog daemon serving the **same** aligned pair under two names
//! (`alpha`, `beta`), driven through the typed `paris-client` crate and
//! through raw HTTP where headers matter.
//!
//! Covered: the `{"data"}/{"error":{code,message}}` envelope, batch
//! queries answered from one image acquisition, explain evidence that
//! recomputes bit-exactly to its served score and differs between the
//! two pairs only in the embedded name, neighbors pagination, legacy aliases
//! (same bytes + one deprecation warning, structured errors), and zero
//! failed responses under concurrent mixed clients.

use std::path::PathBuf;
use std::time::Duration;

use paris_repro::client::{
    BatchAnswer, ClientError, HttpClient, ParisClient, Query, Side, Upstream,
};
use paris_repro::kb::KbBuilder;
use paris_repro::paris::{
    AlignedPairSnapshot, Aligner, MappedPairSnapshot, OwnedAlignment, ParisConfig,
};
use paris_repro::rdf::Literal;
use paris_repro::server::{Server, ServerConfig};

const N: usize = 8;

/// An aligned pair with literal *and* entity evidence: e-mails are
/// unique (strong), cities are shared (weak), so explanations carry
/// several factors of different strengths.
fn snapshot() -> AlignedPairSnapshot {
    let mut a = KbBuilder::new("left");
    let mut b = KbBuilder::new("right");
    for i in 0..N {
        a.add_literal_fact(
            format!("http://a/p{i}"),
            "http://a/email",
            Literal::plain(format!("p{i}@x.org")),
        );
        a.add_fact(
            format!("http://a/p{i}"),
            "http://a/livesIn",
            format!("http://a/c{}", i % 2),
        );
        b.add_literal_fact(
            format!("http://b/q{i}"),
            "http://b/mail",
            Literal::plain(format!("p{i}@x.org")),
        );
        b.add_fact(
            format!("http://b/q{i}"),
            "http://b/city",
            format!("http://b/d{}", i % 2),
        );
    }
    let (kb1, kb2) = (a.build(), b.build());
    let owned = {
        let result = Aligner::new(&kb1, &kb2, ParisConfig::default()).run();
        OwnedAlignment::from_result(&result)
    };
    AlignedPairSnapshot::new(kb1, kb2, owned)
}

fn catalog_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paris_query_api_e2e_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One raw HTTP exchange, returning (status, headers, body).
fn raw_get(addr: &std::net::SocketAddr, path: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut client = HttpClient::new(
        Upstream::parse(&format!("http://{addr}")).unwrap(),
        Duration::from_secs(10),
    );
    let r = client.get(path, None, 1 << 30).expect("raw GET");
    (r.status, r.headers, r.body)
}

#[test]
fn v1_query_api_end_to_end() {
    let dir = catalog_dir();
    let snap = snapshot();
    MappedPairSnapshot::save_v2(&snap, dir.join("alpha.snap")).unwrap();
    MappedPairSnapshot::save_v2(&snap, dir.join("beta.snap")).unwrap();

    // Enough workers for the concurrency phase's 4 keep-alive clients
    // plus the sequential client and raw probes.
    let server = Server::bind_catalog(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 8,
        catalog_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();
    let url = format!("http://{addr}");

    let mut client = ParisClient::new(&url).unwrap();

    // ---- typed health + catalog
    let health = client.healthz().expect("healthz");
    assert_eq!(health.status, "ok");
    assert_eq!(health.role, "primary");
    assert_eq!(health.pairs, 2);
    let (default, pairs) = client.pairs().expect("pairs");
    assert_eq!(default, "alpha");
    assert_eq!(
        pairs.iter().map(|p| p.name.as_str()).collect::<Vec<_>>(),
        ["alpha", "beta"]
    );

    // ---- sameas + neighbors, both pairs, typed
    for pair in ["alpha", "beta"] {
        let a = client
            .sameas(Some(pair), "http://a/p1", Side::Left, None)
            .expect("sameas");
        assert_eq!(a.sameas.as_deref(), Some("http://b/q1"), "{pair}");
        assert!(a.score > 0.5, "{pair}: {}", a.score);
        let rev = client
            .sameas(Some(pair), "http://b/q2", Side::Right, None)
            .expect("sameas rev");
        assert_eq!(rev.sameas.as_deref(), Some("http://a/p2"), "{pair}");

        // Pagination: p0 has 2 facts; page size 1 walks them.
        let n0 = client
            .neighbors(Some(pair), "http://a/p0", Side::Left, Some(1), 0)
            .expect("neighbors page 0");
        let n1 = client
            .neighbors(Some(pair), "http://a/p0", Side::Left, Some(1), 1)
            .expect("neighbors page 1");
        assert_eq!(n0.total_facts, 2, "{pair}");
        assert_eq!((n0.facts.len(), n1.facts.len()), (1, 1), "{pair}");
        assert_ne!(n0.facts[0], n1.facts[0], "{pair}: pages must differ");
        let past = client
            .neighbors(Some(pair), "http://a/p0", Side::Left, None, 10)
            .expect("past-the-end page");
        assert!(past.facts.is_empty(), "{pair}");
        assert_eq!(past.total_facts, 2, "{pair}");
    }

    // ---- stats typed; the two pairs serve the same alignment
    let stats_alpha = client.stats(Some("alpha")).unwrap();
    let stats_beta = client.stats(Some("beta")).unwrap();
    assert_eq!(stats_alpha.format, "v2");
    assert_eq!(stats_beta.format, "v2");
    assert_eq!(
        stats_alpha.aligned_instances, stats_beta.aligned_instances,
        "same alignment"
    );
    assert_eq!(stats_alpha.aligned_instances, N as u64);

    // ---- batch: mixed lookups, one round-trip, per-query errors in place
    let queries: Vec<Query> = (0..N)
        .map(|i| Query::sameas(format!("http://a/p{i}")))
        .chain([
            Query::neighbors("http://a/p0"),
            Query::sameas("http://a/definitely-not-here"),
            Query::Sameas {
                iri: "http://b/q3".into(),
                side: Side::Right,
                threshold: None,
            },
        ])
        .collect();
    let results = client.batch(Some("beta"), &queries).expect("batch");
    assert_eq!(results.len(), N + 3);
    for (i, result) in results.iter().take(N).enumerate() {
        match result {
            Ok(BatchAnswer::Sameas(a)) => {
                assert_eq!(a.sameas.as_deref(), Some(format!("http://b/q{i}").as_str()));
                // The batch answer must agree with the sequential route,
                // bit for bit.
                let single = client
                    .sameas(Some("beta"), &a.iri, Side::Left, None)
                    .unwrap();
                assert_eq!(a, &single, "batch vs sequential #{i}");
            }
            other => panic!("query #{i}: {other:?}"),
        }
    }
    assert!(matches!(&results[N], Ok(BatchAnswer::Neighbors(n)) if n.total_facts == 2));
    assert!(
        matches!(&results[N + 1], Err(ClientError::Api { code, .. }) if code == "not_found"),
        "{:?}",
        results[N + 1]
    );
    assert!(
        matches!(&results[N + 2], Ok(BatchAnswer::Sameas(a)) if a.sameas.as_deref() == Some("http://a/p3"))
    );

    // ---- explain: evidence recomputes to the served score, assignment
    // matches sameas bit-for-bit, and v1/v2 bodies are byte-identical
    for i in 0..N {
        let left = format!("http://a/p{i}");
        let right = format!("http://b/q{i}");
        let ex = client
            .explain(Some("alpha"), &left, &right)
            .expect("explain");
        assert!(ex.assigned, "p{i}");
        assert!(!ex.evidence.is_empty(), "p{i}");
        // Bit-exact recomputation from the served factors.
        let product: f64 = ex.evidence.iter().fold(1.0, |p, e| p * e.factor);
        assert_eq!(
            (1.0 - product).to_bits(),
            ex.score.to_bits(),
            "p{i}: served evidence must fold to the served score"
        );
        // The assignment member is exactly the sameas answer.
        let sameas = client
            .sameas(Some("alpha"), &left, Side::Left, None)
            .unwrap();
        assert_eq!(ex.assignment, sameas, "p{i}");
        assert_eq!(
            ex.assignment.score.to_bits(),
            ex.stored_score.to_bits(),
            "p{i}: assigned pair's stored score is the served sameas score"
        );

        // Byte-identical across the two pairs, up to the name.
        let path = |pair: &str| {
            format!(
                "/v1/pairs/{pair}/explain?left=http%3A%2F%2Fa%2Fp{i}&right=http%3A%2F%2Fb%2Fq{i}"
            )
        };
        let (s1, _, body_alpha) = raw_get(&addr, &path("alpha"));
        let (s2, _, body_beta) = raw_get(&addr, &path("beta"));
        assert_eq!((s1, s2), (200, 200));
        let strip = |body: &[u8]| {
            // Identical up to the pair name each answer embeds.
            String::from_utf8(body.to_vec())
                .unwrap()
                .replace("\"pair\":\"alpha\"", "\"pair\":\"#\"")
                .replace("\"pair\":\"beta\"", "\"pair\":\"#\"")
        };
        assert_eq!(strip(&body_alpha), strip(&body_beta), "p{i}");
    }

    // A non-assigned candidate explains too, with a lower score.
    let cross = client
        .explain(Some("alpha"), "http://a/p0", "http://b/q2")
        .expect("cross explain");
    assert!(!cross.assigned);
    assert_eq!(cross.stored_score, 0.0);
    let assigned = client
        .explain(Some("alpha"), "http://a/p0", "http://b/q0")
        .unwrap();
    assert!(cross.score < assigned.score);

    // ---- legacy aliases: same bytes as /v1, one deprecation warning,
    // structured errors
    let (status, headers, legacy_body) = raw_get(&addr, "/sameas?iri=http%3A%2F%2Fa%2Fp1");
    assert_eq!(status, 200);
    let warnings: Vec<&(String, String)> = headers.iter().filter(|(k, _)| k == "warning").collect();
    assert_eq!(warnings.len(), 1, "{headers:?}");
    assert!(warnings[0].1.contains("deprecated"), "{warnings:?}");
    let (_, v1_headers, v1_body) = raw_get(&addr, "/v1/pairs/alpha/sameas?iri=http%3A%2F%2Fa%2Fp1");
    assert_eq!(legacy_body, v1_body, "legacy delegates to the v1 handler");
    assert!(
        !v1_headers.iter().any(|(k, _)| k == "warning"),
        "{v1_headers:?}"
    );
    // Legacy pair routes warn too.
    let (_, headers, _) = raw_get(&addr, "/pairs/beta/stats");
    assert!(headers.iter().any(|(k, _)| k == "warning"), "{headers:?}");

    // Structured legacy errors: 400 / 404 / 405 all wear the envelope.
    for (path, expected_status, expected_code) in [
        ("/sameas", 400, "bad_request"),
        ("/pairs/nope/stats", 404, "not_found"),
        ("/nope", 404, "not_found"),
    ] {
        let (status, _, body) = raw_get(&addr, path);
        assert_eq!(status, expected_status, "{path}");
        let text = String::from_utf8(body).unwrap();
        assert!(
            text.starts_with(&format!("{{\"error\":{{\"code\":\"{expected_code}\"")),
            "{path}: {text}"
        );
    }

    // ---- concurrency: mixed typed clients, zero failed responses.
    // Drop the sequential client first so its idle keep-alive connection
    // does not pin a server worker for the whole phase.
    drop(client);
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(4));
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let url = url.clone();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = ParisClient::new(&url).unwrap();
                barrier.wait();
                for round in 0..25 {
                    let i = (w + round) % N;
                    let pair = if (w + round) % 2 == 0 {
                        "alpha"
                    } else {
                        "beta"
                    };
                    let iri = format!("http://a/p{i}");
                    let a = client.sameas(Some(pair), &iri, Side::Left, None)?;
                    if a.sameas.as_deref() != Some(format!("http://b/q{i}").as_str()) {
                        return Err(ClientError::Protocol(format!("wrong match for {iri}")));
                    }
                    client.neighbors(Some(pair), &iri, Side::Left, Some(1), 0)?;
                    client.explain(Some(pair), &iri, &format!("http://b/q{i}"))?;
                    let batch = client.batch(
                        Some(pair),
                        &[Query::sameas(iri.clone()), Query::neighbors(iri.clone())],
                    )?;
                    for r in batch {
                        r?;
                    }
                }
                Ok::<u64, ClientError>(client.cache_hits())
            })
        })
        .collect();
    for (w, worker) in workers.into_iter().enumerate() {
        let cache_hits = worker
            .join()
            .expect("worker panicked")
            .unwrap_or_else(|e| panic!("worker {w}: {e}"));
        // Repeated identical GETs must have been served from the ETag
        // cache via 304s (each worker repeats its N-cycle ~3×).
        assert!(cache_hits > 0, "worker {w} never hit its ETag cache");
    }

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
