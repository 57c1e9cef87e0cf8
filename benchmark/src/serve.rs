//! The `serve` stage: the daemon, the request plans and the closed-loop
//! load generator.
//!
//! Load comes from this one process: `CLIENTS` keep-alive
//! `paris_client::HttpClient` connections, one thread each, every thread
//! sending its next request only after the previous answer arrived
//! (closed loop). Every request carries the status it must get; one
//! `sameas` answer in 64 is also compared with the in-process lookup.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use paris_client::{json, percent_encode, HttpClient, Upstream};
use paris_core::PairImage;
use paris_server::{Server, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::spec::Mix;
use crate::stats::percentile_sorted;
use crate::trip::sameas_lookup;

/// Client connections (= client threads) and server workers: one each
/// per core of the 2-core sandbox.
pub const CLIENTS: usize = 2;
pub const SERVER_THREADS: usize = 2;
const TIMEOUT: Duration = Duration::from_secs(10);
const MAX_BODY: u64 = 16 << 20;
const BATCH: usize = 64;
/// One `sameas` answer in this many is compared with the in-process lookup.
const VERIFY_EVERY: u64 = 64;
const MISS_PREFIX: &str = "http://nowhere.test/missing-";

pub struct Daemon {
    handle: ServerHandle,
    pub addr: SocketAddr,
    /// Name the daemon gave the pair (the snapshot's file stem).
    pub pair: String,
}

impl Daemon {
    /// Binds a single-pair daemon around the image at `pair_snap`.
    pub fn start(image: PairImage, pair_snap: &Path) -> Result<Daemon, String> {
        let server = Server::bind_image(
            image,
            ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                threads: SERVER_THREADS,
                snapshot_path: Some(pair_snap.to_owned()),
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("binding the daemon: {e}"))?;
        let pair = server
            .pair_names()
            .into_iter()
            .next()
            .ok_or("the daemon serves no pair")?;
        let handle = server.spawn().map_err(|e| format!("spawning: {e}"))?;
        Ok(Daemon {
            addr: handle.addr(),
            handle,
            pair,
        })
    }

    /// Stops the daemon. Every client must be dropped first: a worker
    /// only exits once its connection closes.
    pub fn stop(self) {
        self.handle.shutdown();
    }

    pub fn client(&self) -> HttpClient {
        let upstream = Upstream::parse(&format!("http://{}", self.addr))
            .expect("a socket address is a valid upstream");
        HttpClient::new(upstream, TIMEOUT)
    }
}

/// The route classes the per-route latency metrics are named after.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Sameas,
    Neighbors,
    Batch64,
    Explain,
    Miss,
    Revalidate,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::Sameas,
        Class::Neighbors,
        Class::Batch64,
        Class::Explain,
        Class::Miss,
        Class::Revalidate,
    ];

    pub fn metric(self) -> &'static str {
        match self {
            Class::Sameas => "server.sameas_p50_us",
            Class::Neighbors => "server.neighbors_p50_us",
            Class::Batch64 => "server.batch64_p50_us",
            Class::Explain => "server.explain_p50_us",
            Class::Miss => "server.miss_p50_us",
            Class::Revalidate => "server.revalidate_p50_us",
        }
    }
}

/// One pre-rendered request and what its answer must be.
#[derive(Clone, Debug)]
pub struct Request {
    pub class: Class,
    path: String,
    /// `POST` body (batch requests).
    body: Option<String>,
    /// `If-None-Match` validator, filled in by [`prime`].
    etag: Option<String>,
    expect: u16,
    /// For `sameas`: the in-process answer (`None` = no match).
    answer: Option<Option<String>>,
}

fn sameas_path(pair: &str, iri: &str) -> String {
    format!("/v1/pairs/{pair}/sameas?iri={}", percent_encode(iri))
}

fn request_of(
    class: Class,
    pair: &str,
    image: &PairImage,
    keys: &[String],
    rng: &mut StdRng,
) -> Request {
    let key = |rng: &mut StdRng| &keys[rng.random_range(0..keys.len())];
    let mut req = Request {
        class,
        path: String::new(),
        body: None,
        etag: None,
        expect: 200,
        answer: None,
    };
    match class {
        Class::Sameas | Class::Revalidate => {
            let iri = key(rng);
            req.path = sameas_path(pair, iri);
            req.answer = Some(sameas_lookup(image, iri).map(|(iri, _)| iri));
        }
        Class::Neighbors => {
            req.path = format!(
                "/v1/pairs/{pair}/neighbors?iri={}&limit=20",
                percent_encode(key(rng))
            );
        }
        Class::Batch64 => {
            let queries = (0..BATCH).map(|_| {
                json::Object::new()
                    .str("op", "sameas")
                    .str("iri", key(rng))
                    .build()
            });
            req.path = format!("/v1/pairs/{pair}/query");
            req.body = Some(
                json::Object::new()
                    .raw("queries", json::array(queries))
                    .build(),
            );
        }
        Class::Explain => {
            // An assigned pair: explain needs both IRIs. Unassigned keys
            // are skipped; the generators leave few of them.
            let (left, right) = (0..keys.len())
                .find_map(|_| {
                    let left = key(rng);
                    sameas_lookup(image, left).map(|(right, _)| (left.clone(), right))
                })
                .unwrap_or_default();
            req.path = format!(
                "/v1/pairs/{pair}/explain?left={}&right={}",
                percent_encode(&left),
                percent_encode(&right)
            );
        }
        Class::Miss => {
            let n: u32 = rng.random_range(0..1_000_000);
            req.path = sameas_path(pair, &format!("{MISS_PREFIX}{n}"));
            req.expect = 404;
        }
    }
    req
}

fn class_of(mix: Mix, rng: &mut StdRng) -> Class {
    let roll: u32 = rng.random_range(0..100);
    match mix {
        Mix::Sameas => Class::Sameas,
        Mix::Mixed => match roll {
            0..60 => Class::Sameas,
            60..80 => Class::Neighbors,
            80..95 => Class::Batch64,
            _ => Class::Explain,
        },
        Mix::HitMiss => match roll {
            0..50 => Class::Revalidate,
            _ => Class::Miss,
        },
    }
}

impl Request {
    /// The same request checked by status only — for answers that
    /// legitimately change while deltas are applied.
    pub fn status_only(mut self) -> Request {
        self.answer = None;
        self
    }
}

/// `len` requests drawn from the workload's mix.
pub fn mixed_plan(
    mix: Mix,
    pair: &str,
    image: &PairImage,
    keys: &[String],
    seed: u64,
    len: usize,
) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| request_of(class_of(mix, &mut rng), pair, image, keys, &mut rng))
        .collect()
}

/// `len` requests of one route class.
pub fn class_plan(
    class: Class,
    pair: &str,
    image: &PairImage,
    keys: &[String],
    seed: u64,
    len: usize,
) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| request_of(class, pair, image, keys, &mut rng))
        .collect()
}

fn send(client: &mut HttpClient, req: &Request) -> Result<paris_client::HttpResponse, String> {
    match &req.body {
        Some(body) => client.post(&req.path, "application/json", body.as_bytes(), MAX_BODY),
        None => client.get(&req.path, req.etag.as_deref(), MAX_BODY),
    }
}

/// Fetches the validator of every revalidation request (untimed), so
/// the timed request can send `If-None-Match` and expect `304`.
pub fn prime(client: &mut HttpClient, plan: &mut [Request]) -> Result<(), String> {
    for req in plan.iter_mut().filter(|r| r.class == Class::Revalidate) {
        let response = send(client, req)?;
        let etag = response
            .etag()
            .ok_or_else(|| format!("no ETag on {}", req.path))?;
        req.etag = Some(etag.to_owned());
        req.expect = 304;
    }
    Ok(())
}

/// Whether the answer is the expected one. `deep` also compares a
/// `sameas` body with the in-process lookup.
fn answer_ok(req: &Request, response: &paris_client::HttpResponse, deep: bool) -> bool {
    if response.status != req.expect {
        return false;
    }
    let (true, Some(expected), 200) = (deep, &req.answer, response.status) else {
        return true;
    };
    let Some(doc) = std::str::from_utf8(&response.body)
        .ok()
        .and_then(|text| json::parse(text).ok())
    else {
        return false;
    };
    let served = doc
        .get("data")
        .and_then(|d| d.get("sameas"))
        .and_then(json::Json::as_str);
    served == expected.as_deref()
}

/// What one connection saw.
#[derive(Default)]
pub struct Tally {
    pub latencies_ns: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one answered (or failed) request; only an expected answer
    /// contributes a latency.
    fn record(
        &mut self,
        req: &Request,
        response: Result<paris_client::HttpResponse, String>,
        elapsed: Duration,
        deep: bool,
    ) {
        self.attempted += 1;
        match response {
            Ok(r) if answer_ok(req, &r, deep) => self
                .latencies_ns
                .push(u32::try_from(elapsed.as_nanos()).unwrap_or(u32::MAX)),
            _ => self.failed += 1,
        }
    }

    fn merge(&mut self, other: Tally) {
        self.latencies_ns.extend(other.latencies_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Median latency in µs.
    pub fn p50_us(&self) -> Option<f64> {
        let mut v = self.latencies_ns.clone();
        v.sort_unstable();
        percentile_sorted(&v, 0.5).map(|ns| f64::from(ns) / 1e3)
    }
}

/// Sends `plan` round-robin on one connection until `stop` says so.
pub fn drive(
    client: &mut HttpClient,
    plan: &[Request],
    mut stop: impl FnMut(u64) -> bool,
) -> Tally {
    let mut tally = Tally::default();
    while !stop(tally.attempted) {
        let req = &plan[tally.attempted as usize % plan.len()];
        let deep = tally.attempted % VERIFY_EVERY == 0;
        let sent = Instant::now();
        let response = send(client, req);
        tally.record(req, response, sent.elapsed(), deep);
    }
    tally
}

/// One measured round of the closed loop.
pub struct Round {
    pub rps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: usize,
}

/// Runs `rounds` rounds of `seconds` each over `plans` (one plan and one
/// connection per client thread), after a short untimed warm-up.
pub fn closed_loop(
    daemon: &Daemon,
    plans: &mut [Vec<Request>],
    rounds: usize,
    seconds: f64,
) -> Result<(Vec<Round>, Tally), String> {
    let mut clients: Vec<HttpClient> = plans.iter().map(|_| daemon.client()).collect();
    for (client, plan) in clients.iter_mut().zip(plans.iter_mut()) {
        prime(client, plan)?;
        let warm = drive(client, plan, |sent| sent >= 256);
        if warm.failed > 0 {
            return Err(format!("{} of 256 warm-up requests failed", warm.failed));
        }
    }
    let mut total = Tally::default();
    let mut out = Vec::new();
    for _ in 0..rounds {
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(plans.iter())
                .map(|(client, plan)| {
                    scope.spawn(move || drive(client, plan, |_| Instant::now() >= deadline))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed = started.elapsed().as_secs_f64();
        let mut round = Tally::default();
        for t in tallies {
            round.merge(t);
        }
        round.latencies_ns.sort_unstable();
        let at = |p| {
            percentile_sorted(&round.latencies_ns, p)
                .map(|ns| f64::from(ns) / 1e3)
                .ok_or("a round recorded no latency")
        };
        out.push(Round {
            rps: round.latencies_ns.len() as f64 / elapsed,
            p50_us: at(0.5)?,
            p99_us: at(0.99)?,
            samples: round.latencies_ns.len(),
        });
        total.attempted += round.attempted;
        total.failed += round.failed;
    }
    Ok((out, total))
}

/// `count` connection-per-request `sameas` GETs.
pub fn oneshot(daemon: &Daemon, plan: &[Request], count: usize) -> Tally {
    let mut tally = Tally::default();
    for req in plan.iter().cycle().take(count) {
        let sent = Instant::now();
        let mut client = daemon.client();
        let response = send(&mut client, req);
        drop(client);
        tally.record(req, response, sent.elapsed(), false);
    }
    tally
}

/// `POST …/reload`; returns the generation now served.
pub fn reload(client: &mut HttpClient, pair: &str) -> Result<u64, String> {
    let response = client.post(
        &format!("/v1/pairs/{pair}/reload"),
        "application/x-www-form-urlencoded",
        b"",
        MAX_BODY,
    )?;
    let text = String::from_utf8_lossy(&response.body);
    if response.status != 200 {
        return Err(format!("reload answered {}: {text}", response.status));
    }
    json::parse(&text)?
        .get("data")
        .and_then(|d| d.get("generation"))
        .and_then(json::Json::as_u64)
        .ok_or_else(|| format!("reload answer without a generation: {text}"))
}
