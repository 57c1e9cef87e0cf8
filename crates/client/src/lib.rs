//! # paris-client — the typed client of the `/v1` query API
//!
//! Everything that *talks to* a `paris serve` daemon lives here, at the
//! bottom of the serving dependency stack: the hand-rolled HTTP/1.1
//! client ([`http_client`]), the one JSON implementation (parse + emit,
//! [`json`]), the pair-name safety rule shared by server, replica, and
//! client ([`valid_pair_name`]), and the typed [`ParisClient`] front
//! door. `paris-replica` builds its sync engine on the raw pieces;
//! `paris-server` renders its responses with the same [`json`] builder;
//! the `paris query` CLI subcommand and the replica-aware tooling speak
//! [`ParisClient`].
//!
//! ## The typed client
//!
//! [`ParisClient`] wraps one or more upstream daemons behind the `/v1`
//! contract (`{"data":…}` / `{"error":{code,message}}` envelopes):
//!
//! * **Typed calls** — [`healthz`](ParisClient::healthz),
//!   [`pairs`](ParisClient::pairs), [`stats`](ParisClient::stats),
//!   [`sameas`](ParisClient::sameas),
//!   [`neighbors`](ParisClient::neighbors),
//!   [`explain`](ParisClient::explain), and
//!   [`batch`](ParisClient::batch) (many lookups in one round-trip).
//!   Server-side errors surface as [`ClientError::Api`] with the
//!   envelope's machine-readable `code`.
//! * **ETag caching** — every cacheable `GET` remembers its validator
//!   and body; a repeat of the same request sends `If-None-Match` and
//!   turns a `304` back into the cached answer, so polling an unchanged
//!   daemon costs headers only ([`cache_hits`](ParisClient::cache_hits)
//!   counts the saves).
//! * **Multi-upstream failover** — construct with several URLs
//!   ([`ParisClient::with_upstreams`]); a transport failure rotates to
//!   the next upstream transparently. Roles are discovered from
//!   `/v1/healthz` ([`refresh_roles`](ParisClient::refresh_roles)), and
//!   [`prefer_role`](ParisClient::prefer_role) pins reads to replicas
//!   (or anything else) while [`reload`](ParisClient::reload) always
//!   chases a primary when one is known.
//!
//! ```no_run
//! use paris_client::{ParisClient, Query, Side};
//!
//! let mut client = ParisClient::with_upstreams(&[
//!     "http://replica-a:7070",
//!     "http://replica-b:7070",
//! ]).unwrap();
//! let answer = client.sameas(None, "http://yagofilm.test/p6", Side::Left, None).unwrap();
//! println!("{} ≡ {:?} ({})", answer.iri, answer.sameas, answer.score);
//!
//! // 64 lookups, one round-trip, one image acquisition server-side.
//! let queries: Vec<Query> = (0..64)
//!     .map(|i| Query::sameas(format!("http://yagofilm.test/p{i}")))
//!     .collect();
//! for result in client.batch(None, &queries).unwrap() {
//!     println!("{result:?}");
//! }
//! ```

#![forbid(unsafe_code)]

pub mod http_client;
pub mod json;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

pub use http_client::{HttpClient, HttpResponse, Upstream};
use json::Json;
use paris_obs as obs;

/// Longest accepted pair name.
pub const MAX_PAIR_NAME: usize = 128;

/// Whether a pair name is safe to appear in URLs, JSON, and filesystem
/// paths *without escaping*: ASCII alphanumerics plus `-`, `_`, `.`,
/// not starting with a dot (no hidden/temp files, no `.`/`..`), at most
/// [`MAX_PAIR_NAME`] bytes, and not the reserved route name `manifest`.
///
/// The serving catalog skips files whose stem fails this check (so
/// `/v1/pairs` and manifest output are injection-safe by construction),
/// the sync engine rejects manifest entries that fail it (so an
/// untrusted upstream cannot traverse out of the mirror directory), and
/// [`ParisClient`] refuses to embed a failing name in a request path.
pub fn valid_pair_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_PAIR_NAME
        && !name.starts_with('.')
        && name != "manifest"
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

/// Percent-encodes a query-parameter value (everything but unreserved
/// characters — the conservative superset that round-trips through the
/// daemon's form decoder, which also maps `+` to space).
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

// ----------------------------------------------------------------------
// Errors
// ----------------------------------------------------------------------

/// Why a client call failed.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientError {
    /// Every configured upstream failed at the transport level (connect,
    /// send, or response framing). The message lists each attempt.
    Transport(String),
    /// The daemon answered with an error envelope
    /// (`{"error":{code,message}}`).
    Api {
        /// HTTP status code.
        status: u16,
        /// Machine-readable error code (`bad_request`, `not_found`, …).
        code: String,
        /// Human-readable message.
        message: String,
    },
    /// The daemon answered 2xx but the body was not the expected shape —
    /// a version mismatch or a non-paris peer.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(m) => write!(f, "transport failure: {m}"),
            ClientError::Api {
                status,
                code,
                message,
            } => write!(f, "HTTP {status} {code}: {message}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

fn protocol(what: impl Into<String>) -> ClientError {
    ClientError::Protocol(what.into())
}

// ----------------------------------------------------------------------
// Typed answers
// ----------------------------------------------------------------------

/// Which KB of a pair a lookup addresses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Side {
    /// The first (left) ontology — the default.
    #[default]
    Left,
    /// The second (right) ontology.
    Right,
}

impl Side {
    /// The query-parameter spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Side::Left => "left",
            Side::Right => "right",
        }
    }
}

/// `GET /v1/healthz`, typed.
#[derive(Clone, Debug)]
pub struct Health {
    /// `"ok"` when the daemon is serving.
    pub status: String,
    /// Daemon build version.
    pub version: String,
    /// `"primary"` or `"replica"`.
    pub role: String,
    /// Generation of the default pair.
    pub generation: u64,
    /// Pairs in the catalog.
    pub pairs: u64,
}

/// One catalog entry of `GET /v1/pairs`.
#[derive(Clone, Debug)]
pub struct PairEntry {
    /// Pair name.
    pub name: String,
    /// Whether an image is currently resident.
    pub loaded: bool,
    /// Per-pair generation (0 = never loaded).
    pub generation: u64,
}

/// `GET /v1/pairs/<name>/stats`, typed (the commonly consumed subset).
#[derive(Clone, Debug)]
pub struct Stats {
    /// Pair name.
    pub pair: String,
    /// Assigned KB-1 instances.
    pub aligned_instances: u64,
    /// Stored (non-zero) instance equivalences.
    pub instance_equivalences: u64,
    /// Per-pair generation.
    pub generation: u64,
    /// Whether the producing run converged.
    pub converged: bool,
    /// Snapshot format (`"v2"`).
    pub format: String,
}

/// A `sameas` answer: the best match of an instance, if any.
#[derive(Clone, Debug, PartialEq)]
pub struct SameasAnswer {
    /// The queried IRI.
    pub iri: String,
    /// Best match in the other KB (`None` below threshold / unmatched).
    pub sameas: Option<String>,
    /// `Pr(iri ≡ sameas)` (0 when unmatched).
    pub score: f64,
}

/// One statement around an entity, as `neighbors` reports it.
#[derive(Clone, Debug, PartialEq)]
pub struct NeighborFact {
    /// IRI of the base relation.
    pub relation: String,
    /// True when the statement is held in the inverse direction.
    pub inverse: bool,
    /// The neighbour term, rendered.
    pub value: String,
    /// Global functionality of the directed relation.
    pub functionality: f64,
}

/// A `neighbors` page.
#[derive(Clone, Debug, PartialEq)]
pub struct NeighborsAnswer {
    /// The queried IRI.
    pub iri: String,
    /// Total statements around the entity (both directions).
    pub total_facts: u64,
    /// Index of the first returned fact.
    pub offset: u64,
    /// The page.
    pub facts: Vec<NeighborFact>,
}

/// One Eq. 13 evidence factor of an `explain` answer.
#[derive(Clone, Debug, PartialEq)]
pub struct EvidenceRow {
    /// Directed relation IRI on the left side (`r` in `r(x, y)`).
    pub relation_left: String,
    /// Directed relation IRI on the right side (`r′` in `r′(x′, y′)`).
    pub relation_right: String,
    /// The shared neighbour, rendered, left side (`y`).
    pub neighbor_left: String,
    /// The equivalent neighbour, rendered, right side (`y′`).
    pub neighbor_right: String,
    /// `Pr(y ≡ y′)`.
    pub neighbor_prob: f64,
    /// `fun⁻¹(r)` on the left side.
    pub inv_functionality_left: f64,
    /// `fun⁻¹(r′)` on the right side.
    pub inv_functionality_right: f64,
    /// Stored `Pr(r′ ⊆ r)`.
    pub subrel_right_in_left: f64,
    /// Stored `Pr(r ⊆ r′)`.
    pub subrel_left_in_right: f64,
    /// The Eq. 13 factor — smaller = stronger evidence.
    pub factor: f64,
}

/// An `explain` answer: why the stored model matches (or does not match)
/// one candidate pair.
#[derive(Clone, Debug)]
pub struct ExplainAnswer {
    /// The explained left-side IRI.
    pub left: String,
    /// The explained right-side candidate IRI.
    pub right: String,
    /// The Eq. 13 score recomputed from the listed evidence:
    /// `1 − ∏ factorᵢ`, multiplied in listed order — bit-reproducible
    /// from [`evidence`](Self::evidence).
    pub score: f64,
    /// The stored equivalence probability `Pr(left ≡ right)` (0 when the
    /// pair is not in the stored alignment).
    pub stored_score: f64,
    /// Whether `right` is the stored maximal assignment of `left`.
    pub assigned: bool,
    /// The stored assignment of `left` — exactly what `sameas` serves.
    pub assignment: SameasAnswer,
    /// The evidence factors, strongest first.
    pub evidence: Vec<EvidenceRow>,
}

/// One lookup of a batch request.
#[derive(Clone, Debug)]
pub enum Query {
    /// A `sameas` lookup.
    Sameas {
        /// The queried IRI.
        iri: String,
        /// Which KB the IRI lives in.
        side: Side,
        /// Minimum score (`None` = serve any match).
        threshold: Option<f64>,
    },
    /// A `neighbors` page.
    Neighbors {
        /// The queried IRI.
        iri: String,
        /// Which KB the IRI lives in.
        side: Side,
        /// Page size (`None` = server default).
        limit: Option<u64>,
        /// Page start.
        offset: u64,
    },
}

impl Query {
    /// A left-side `sameas` lookup with no threshold.
    pub fn sameas(iri: impl Into<String>) -> Query {
        Query::Sameas {
            iri: iri.into(),
            side: Side::Left,
            threshold: None,
        }
    }

    /// A left-side `neighbors` page with server defaults.
    pub fn neighbors(iri: impl Into<String>) -> Query {
        Query::Neighbors {
            iri: iri.into(),
            side: Side::Left,
            limit: None,
            offset: 0,
        }
    }

    fn to_json(&self) -> String {
        match self {
            Query::Sameas {
                iri,
                side,
                threshold,
            } => {
                let mut obj = json::Object::new()
                    .str("op", "sameas")
                    .str("iri", iri)
                    .str("side", side.as_str());
                if let Some(t) = threshold {
                    obj = obj.num("threshold", *t);
                }
                obj.build()
            }
            Query::Neighbors {
                iri,
                side,
                limit,
                offset,
            } => {
                let mut obj = json::Object::new()
                    .str("op", "neighbors")
                    .str("iri", iri)
                    .str("side", side.as_str());
                if let Some(l) = limit {
                    obj = obj.int("limit", *l);
                }
                if *offset > 0 {
                    obj = obj.int("offset", *offset);
                }
                obj.build()
            }
        }
    }
}

/// One answer of a batch request.
#[derive(Clone, Debug)]
pub enum BatchAnswer {
    /// Answer to a [`Query::Sameas`].
    Sameas(SameasAnswer),
    /// Answer to a [`Query::Neighbors`].
    Neighbors(NeighborsAnswer),
}

// ----------------------------------------------------------------------
// The client
// ----------------------------------------------------------------------

/// Default per-I/O timeout.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);
/// Default response-body cap (JSON answers; snapshots go elsewhere).
const DEFAULT_MAX_BODY: u64 = 64 << 20;
/// Cap on cached ETag entries per upstream (oldest-insertion eviction is
/// overkill; the cache is simply cleared when full — steady-state
/// clients poll a handful of paths).
const MAX_CACHE_ENTRIES: usize = 1024;

struct UpstreamState {
    client: HttpClient,
    /// `path → (etag, body)` of the last 200 answer.
    cache: HashMap<String, (String, Vec<u8>)>,
    /// Role from the last `/v1/healthz` probe (`None` = never probed).
    role: Option<String>,
    /// Requests attempted against this upstream (including probes and
    /// attempts that failed at the transport).
    requests: Arc<obs::Counter>,
    /// Transport failures here that rotated the request onward.
    failovers: Arc<obs::Counter>,
}

/// Client-side request accounting: per-upstream request and failover
/// counts plus ETag-cache hits, kept in an [`obs::Registry`] so they can
/// be rendered alongside server metrics. Obtained from
/// [`ParisClient::metrics`]; counts survive for the client's lifetime.
pub struct ClientMetrics {
    registry: obs::Registry,
    cache_hits: Arc<obs::Counter>,
    urls: Vec<String>,
}

impl ClientMetrics {
    fn new(urls: Vec<String>) -> ClientMetrics {
        let registry = obs::Registry::new();
        let cache_hits = registry.counter(
            "paris_client_cache_hits_total",
            "Conditional GETs answered from the client's ETag cache.",
            &[],
        );
        ClientMetrics {
            registry,
            cache_hits,
            urls,
        }
    }

    fn upstream_counters(&self, url: &str) -> (Arc<obs::Counter>, Arc<obs::Counter>) {
        let requests = self.registry.counter(
            "paris_client_requests_total",
            "Requests attempted, by upstream (failed attempts included).",
            &[("upstream", url)],
        );
        let failovers = self.registry.counter(
            "paris_client_failovers_total",
            "Transport failures that rotated the request to another upstream.",
            &[("upstream", url)],
        );
        (requests, failovers)
    }

    /// The underlying registry (renderable as Prometheus text or JSON).
    pub fn registry(&self) -> &obs::Registry {
        &self.registry
    }

    /// ETag-cache hits across all upstreams.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.get()
    }

    /// `(url, requests, failovers)` per upstream, in configured order.
    pub fn per_upstream(&self) -> Vec<(String, u64, u64)> {
        self.urls
            .iter()
            .map(|url| {
                let get = |name| {
                    self.registry
                        .counter_value(name, &[("upstream", url)])
                        .unwrap_or(0)
                };
                (
                    url.clone(),
                    get("paris_client_requests_total"),
                    get("paris_client_failovers_total"),
                )
            })
            .collect()
    }

    /// Total requests attempted across all upstreams.
    pub fn requests(&self) -> u64 {
        self.per_upstream().iter().map(|&(_, r, _)| r).sum()
    }

    /// Total failovers across all upstreams.
    pub fn failovers(&self) -> u64 {
        self.per_upstream().iter().map(|&(_, _, f)| f).sum()
    }
}

/// A typed, failover-capable client of one or more `paris serve`
/// daemons. See the [crate docs](crate) for an overview.
pub struct ParisClient {
    upstreams: Vec<UpstreamState>,
    /// Index of the upstream requests currently go to.
    active: usize,
    max_body: u64,
    metrics: ClientMetrics,
    /// The trace context injected with the most recent request.
    last_trace: Option<obs::span::SpanContext>,
}

impl ParisClient {
    /// A client of one upstream (`http://host:port`).
    pub fn new(url: &str) -> Result<ParisClient, ClientError> {
        ParisClient::with_upstreams(&[url])
    }

    /// A client that fails over across several upstreams, in order of
    /// preference. All must be `http://host[:port]` URLs.
    pub fn with_upstreams<S: AsRef<str>>(urls: &[S]) -> Result<ParisClient, ClientError> {
        ParisClient::with_upstreams_timeout(urls, DEFAULT_TIMEOUT)
    }

    /// Like [`with_upstreams`](Self::with_upstreams) with an explicit
    /// per-I/O timeout.
    pub fn with_upstreams_timeout<S: AsRef<str>>(
        urls: &[S],
        timeout: Duration,
    ) -> Result<ParisClient, ClientError> {
        if urls.is_empty() {
            return Err(protocol("at least one upstream URL is required"));
        }
        let mut upstreams = Vec::with_capacity(urls.len());
        for url in urls {
            let upstream = Upstream::parse(url.as_ref()).map_err(ClientError::Transport)?;
            upstreams.push(UpstreamState {
                client: HttpClient::new(upstream, timeout),
                cache: HashMap::new(),
                role: None,
                requests: Arc::new(obs::Counter::new()),
                failovers: Arc::new(obs::Counter::new()),
            });
        }
        let metrics = ClientMetrics::new(
            upstreams
                .iter()
                .map(|u| u.client.upstream().display.clone())
                .collect(),
        );
        for up in &mut upstreams {
            let (requests, failovers) = metrics.upstream_counters(&up.client.upstream().display);
            up.requests = requests;
            up.failovers = failovers;
        }
        Ok(ParisClient {
            upstreams,
            active: 0,
            max_body: DEFAULT_MAX_BODY,
            metrics,
            last_trace: None,
        })
    }

    /// The upstream URLs, in configured order.
    pub fn upstream_urls(&self) -> Vec<String> {
        self.upstreams
            .iter()
            .map(|u| u.client.upstream().display.clone())
            .collect()
    }

    /// How many conditional `GET`s were answered from the ETag cache.
    pub fn cache_hits(&self) -> u64 {
        self.metrics.cache_hits()
    }

    /// Request accounting: per-upstream requests, failovers, and
    /// ETag-cache hits, in an [`obs::Registry`].
    pub fn metrics(&self) -> &ClientMetrics {
        &self.metrics
    }

    /// The trace id (32 hex digits) injected with the most recent
    /// request. Every request carries a fresh W3C `traceparent` header,
    /// so a slow answer can be looked up server-side under exactly this
    /// id via `GET /v1/debug/traces/<id>`.
    pub fn last_trace_id(&self) -> Option<String> {
        self.last_trace.map(|ctx| ctx.trace.to_hex())
    }

    /// Starts a fresh client-side trace context and arms every
    /// upstream's `traceparent` header with it (failover attempts of one
    /// logical request share the trace).
    fn begin_trace(&mut self) -> obs::span::SpanContext {
        let ctx = obs::span::SpanContext::new_root();
        self.last_trace = Some(ctx);
        let header = ctx.traceparent();
        for up in &mut self.upstreams {
            up.client.set_header("traceparent", Some(&header));
        }
        ctx
    }

    /// One request with failover: upstreams are tried starting at the
    /// active one, rotating on *transport* failures only (an HTTP error
    /// status is an answer, not a reason to ask a different daemon the
    /// same thing). The upstream that answered becomes the active one.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<(&str, &[u8])>,
    ) -> Result<HttpResponse, ClientError> {
        let n = self.upstreams.len();
        let mut failures: Vec<String> = Vec::new();
        self.begin_trace();
        for attempt in 0..n {
            let i = (self.active + attempt) % n;
            let up = &mut self.upstreams[i];
            let cached = if method == "GET" {
                up.cache.get(path).cloned()
            } else {
                None
            };
            let validator = cached.as_ref().map(|(etag, _)| etag.as_str());
            up.requests.inc();
            match up
                .client
                .request(method, path, validator, body, self.max_body)
            {
                Ok(response) => {
                    self.active = i;
                    if response.status == 304 {
                        if let Some((_, cached_body)) = cached {
                            self.metrics.cache_hits.inc();
                            return Ok(HttpResponse {
                                status: 200,
                                headers: response.headers,
                                body: cached_body,
                            });
                        }
                        // A 304 we never asked for; treat as protocol noise.
                        return Ok(response);
                    }
                    if method == "GET" && response.status == 200 {
                        if let Some(etag) = response.etag() {
                            let up = &mut self.upstreams[i];
                            if up.cache.len() >= MAX_CACHE_ENTRIES {
                                up.cache.clear();
                            }
                            up.cache
                                .insert(path.to_owned(), (etag.to_owned(), response.body.clone()));
                        }
                    }
                    return Ok(response);
                }
                Err(e) => {
                    let up = &self.upstreams[i];
                    up.failovers.inc();
                    let url = &up.client.upstream().display;
                    failures.push(format!("{url}: {e}"));
                }
            }
        }
        Err(ClientError::Transport(failures.join("; ")))
    }

    /// Issues a request and unwraps the `/v1` envelope: 2xx yields the
    /// `data` member, an error status yields [`ClientError::Api`] from
    /// the `error` member.
    fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<(&str, &[u8])>,
    ) -> Result<Json, ClientError> {
        let response = self.request(method, path, body)?;
        let text = std::str::from_utf8(&response.body)
            .map_err(|_| protocol(format!("{path}: non-UTF-8 response body")))?;
        let doc = json::parse(text)
            .map_err(|e| protocol(format!("{path}: response is not JSON: {e}")))?;
        if (200..300).contains(&response.status) {
            return doc
                .get("data")
                .cloned()
                .ok_or_else(|| protocol(format!("{path}: 2xx response without a data envelope")));
        }
        match doc.get("error") {
            Some(err) => Err(ClientError::Api {
                status: response.status,
                code: err
                    .get("code")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_owned(),
                message: err
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
            }),
            None => Err(protocol(format!(
                "{path}: HTTP {} without an error envelope",
                response.status
            ))),
        }
    }

    /// The `/v1/pairs/<name>` prefix for a pair, or the default pair's
    /// when `pair` is `None` (resolved once via `/v1/pairs`).
    fn pair_prefix(&mut self, pair: Option<&str>) -> Result<String, ClientError> {
        let name = match pair {
            Some(name) => name.to_owned(),
            None => self.default_pair()?,
        };
        if !valid_pair_name(&name) {
            return Err(protocol(format!("invalid pair name {name:?}")));
        }
        Ok(format!("/v1/pairs/{name}"))
    }

    /// The daemon's default pair name (from `/v1/pairs`).
    pub fn default_pair(&mut self) -> Result<String, ClientError> {
        let data = self.call("GET", "/v1/pairs", None)?;
        data.get("default")
            .and_then(Json::as_str)
            .filter(|n| !n.is_empty())
            .map(str::to_owned)
            .ok_or_else(|| protocol("/v1/pairs: no default pair"))
    }

    /// `GET /v1/healthz`, typed.
    pub fn healthz(&mut self) -> Result<Health, ClientError> {
        let data = self.call("GET", "/v1/healthz", None)?;
        let field = |key: &str| {
            data.get(key)
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned()
        };
        let health = Health {
            status: field("status"),
            version: field("version"),
            role: field("role"),
            generation: data.get("generation").and_then(Json::as_u64).unwrap_or(0),
            pairs: data.get("pairs").and_then(Json::as_u64).unwrap_or(0),
        };
        self.upstreams[self.active].role = Some(health.role.clone());
        Ok(health)
    }

    /// Probes `/v1/healthz` on *every* upstream, recording each role.
    /// Returns `(url, role)` for the upstreams that answered. Each probe
    /// goes to exactly its own upstream — **no failover** — so a dead
    /// daemon is recorded as unreachable (role cleared), never as
    /// another upstream's role.
    pub fn refresh_roles(&mut self) -> Vec<(String, String)> {
        let mut roles = Vec::new();
        for i in 0..self.upstreams.len() {
            // A failed probe clears the stale role.
            self.upstreams[i].role = None;
            let up = &mut self.upstreams[i];
            up.requests.inc();
            let Ok(response) = up
                .client
                .request("GET", "/v1/healthz", None, None, self.max_body)
            else {
                continue;
            };
            let role = std::str::from_utf8(&response.body)
                .ok()
                .and_then(|text| json::parse(text).ok())
                .filter(|_| response.status == 200)
                .and_then(|doc| {
                    doc.get("data")?
                        .get("role")
                        .and_then(Json::as_str)
                        .map(str::to_owned)
                });
            if let Some(role) = role {
                self.upstreams[i].role = Some(role.clone());
                roles.push((self.upstreams[i].client.upstream().display.clone(), role));
            }
        }
        roles
    }

    /// Makes the first upstream with the given role (probing all of them
    /// if none is known) the active one. Returns whether one was found —
    /// on `false` the active upstream is unchanged.
    pub fn prefer_role(&mut self, role: &str) -> bool {
        if !self.upstreams.iter().any(|u| u.role.is_some()) {
            self.refresh_roles();
        }
        match self
            .upstreams
            .iter()
            .position(|u| u.role.as_deref() == Some(role))
        {
            Some(i) => {
                self.active = i;
                true
            }
            None => false,
        }
    }

    /// `GET /v1/pairs`, typed: the default pair name and the catalog.
    pub fn pairs(&mut self) -> Result<(String, Vec<PairEntry>), ClientError> {
        let data = self.call("GET", "/v1/pairs", None)?;
        let default = data
            .get("default")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned();
        let pairs = data
            .get("pairs")
            .and_then(Json::as_array)
            .ok_or_else(|| protocol("/v1/pairs: no pairs array"))?
            .iter()
            .map(|p| PairEntry {
                name: p
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
                loaded: p.get("loaded").and_then(Json::as_bool).unwrap_or(false),
                generation: p.get("generation").and_then(Json::as_u64).unwrap_or(0),
            })
            .collect();
        Ok((default, pairs))
    }

    /// `GET /v1/pairs/<name>/stats`, typed.
    pub fn stats(&mut self, pair: Option<&str>) -> Result<Stats, ClientError> {
        let prefix = self.pair_prefix(pair)?;
        let data = self.call("GET", &format!("{prefix}/stats"), None)?;
        let int = |key: &str| data.get(key).and_then(Json::as_u64).unwrap_or(0);
        Ok(Stats {
            pair: data
                .get("pair")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            aligned_instances: int("aligned_instances"),
            instance_equivalences: int("instance_equivalences"),
            generation: int("generation"),
            converged: data
                .get("converged")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            format: data
                .get("format")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
        })
    }

    /// `GET /v1/pairs/<name>/sameas`, typed.
    pub fn sameas(
        &mut self,
        pair: Option<&str>,
        iri: &str,
        side: Side,
        threshold: Option<f64>,
    ) -> Result<SameasAnswer, ClientError> {
        let prefix = self.pair_prefix(pair)?;
        let mut path = format!(
            "{prefix}/sameas?iri={}&side={}",
            percent_encode(iri),
            side.as_str()
        );
        if let Some(t) = threshold {
            path.push_str(&format!("&threshold={t}"));
        }
        let data = self.call("GET", &path, None)?;
        parse_sameas(&data)
    }

    /// `GET /v1/pairs/<name>/neighbors`, typed.
    pub fn neighbors(
        &mut self,
        pair: Option<&str>,
        iri: &str,
        side: Side,
        limit: Option<u64>,
        offset: u64,
    ) -> Result<NeighborsAnswer, ClientError> {
        let prefix = self.pair_prefix(pair)?;
        let mut path = format!(
            "{prefix}/neighbors?iri={}&side={}",
            percent_encode(iri),
            side.as_str()
        );
        if let Some(l) = limit {
            path.push_str(&format!("&limit={l}"));
        }
        if offset > 0 {
            path.push_str(&format!("&offset={offset}"));
        }
        let data = self.call("GET", &path, None)?;
        parse_neighbors(&data)
    }

    /// `GET /v1/pairs/<name>/explain`, typed: the stored evidence for
    /// one candidate pair (`left` in KB 1, `right` in KB 2).
    pub fn explain(
        &mut self,
        pair: Option<&str>,
        left: &str,
        right: &str,
    ) -> Result<ExplainAnswer, ClientError> {
        let prefix = self.pair_prefix(pair)?;
        let path = format!(
            "{prefix}/explain?left={}&right={}",
            percent_encode(left),
            percent_encode(right)
        );
        let data = self.call("GET", &path, None)?;
        let float = |key: &str| data.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let evidence = data
            .get("evidence")
            .and_then(Json::as_array)
            .ok_or_else(|| protocol("explain: no evidence array"))?
            .iter()
            .map(|e| {
                let s = |key: &str| e.get(key).and_then(Json::as_str).unwrap_or("").to_owned();
                let f = |key: &str| e.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                EvidenceRow {
                    relation_left: s("relation_left"),
                    relation_right: s("relation_right"),
                    neighbor_left: s("neighbor_left"),
                    neighbor_right: s("neighbor_right"),
                    neighbor_prob: f("neighbor_prob"),
                    inv_functionality_left: f("inv_functionality_left"),
                    inv_functionality_right: f("inv_functionality_right"),
                    subrel_right_in_left: f("subrel_right_in_left"),
                    subrel_left_in_right: f("subrel_left_in_right"),
                    factor: f("factor"),
                }
            })
            .collect();
        Ok(ExplainAnswer {
            left: data
                .get("left")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            right: data
                .get("right")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            score: float("score"),
            stored_score: float("stored_score"),
            assigned: data
                .get("assigned")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            assignment: data
                .get("assignment")
                .map(parse_sameas)
                .transpose()?
                .ok_or_else(|| protocol("explain: no assignment"))?,
            evidence,
        })
    }

    /// `POST /v1/pairs/<name>/query`: up to the server's batch cap of
    /// mixed lookups in one round-trip, answered from a single image
    /// acquisition. Per-query failures come back in place, so one bad
    /// IRI does not fail its siblings.
    pub fn batch(
        &mut self,
        pair: Option<&str>,
        queries: &[Query],
    ) -> Result<Vec<Result<BatchAnswer, ClientError>>, ClientError> {
        let prefix = self.pair_prefix(pair)?;
        let body = format!(
            "{{\"queries\":{}}}",
            json::array(queries.iter().map(Query::to_json))
        );
        let data = self.call(
            "POST",
            &format!("{prefix}/query"),
            Some(("application/json", body.as_bytes())),
        )?;
        let results = data
            .get("results")
            .and_then(Json::as_array)
            .ok_or_else(|| protocol("batch: no results array"))?;
        if results.len() != queries.len() {
            return Err(protocol(format!(
                "batch: {} results for {} queries",
                results.len(),
                queries.len()
            )));
        }
        queries
            .iter()
            .zip(results)
            .map(|(query, result)| {
                if let Some(err) = result.get("error") {
                    return Ok(Err(ClientError::Api {
                        status: 0,
                        code: err
                            .get("code")
                            .and_then(Json::as_str)
                            .unwrap_or("unknown")
                            .to_owned(),
                        message: err
                            .get("message")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_owned(),
                    }));
                }
                match query {
                    Query::Sameas { .. } => parse_sameas(result).map(BatchAnswer::Sameas).map(Ok),
                    Query::Neighbors { .. } => {
                        parse_neighbors(result).map(BatchAnswer::Neighbors).map(Ok)
                    }
                }
            })
            .collect()
    }

    /// `POST /v1/pairs/<name>/reload`, returning the new generation.
    /// When several upstreams are configured, the request chases a
    /// `primary`-role upstream first (reloading a replica's mirror file
    /// would be undone by its next sync).
    pub fn reload(&mut self, pair: Option<&str>) -> Result<u64, ClientError> {
        if self.upstreams.len() > 1 {
            self.prefer_role("primary");
        }
        let prefix = self.pair_prefix(pair)?;
        // The mutation goes to exactly the chosen upstream — no
        // transport failover. Rotating a failed reload onto the next
        // upstream would mutate a daemon the caller did not pick
        // (reloading a replica's mirror file is undone by its next
        // sync), so a primary that cannot answer is an error, not a
        // reason to try someone else. (The connection-level retry
        // inside [`HttpClient::request`] can still re-send after a
        // stale keep-alive connection; reload is idempotent — a repeat
        // costs one extra generation bump, never serves wrong data.)
        self.begin_trace();
        let up = &mut self.upstreams[self.active];
        up.requests.inc();
        let response = up
            .client
            .request(
                "POST",
                &format!("{prefix}/reload"),
                None,
                Some(("application/x-www-form-urlencoded", b"")),
                self.max_body,
            )
            .map_err(ClientError::Transport)?;
        let text = std::str::from_utf8(&response.body)
            .map_err(|_| protocol("reload: non-UTF-8 response body"))?;
        let doc =
            json::parse(text).map_err(|e| protocol(format!("reload: response not JSON: {e}")))?;
        if !(200..300).contains(&response.status) {
            let err = doc.get("error");
            return Err(ClientError::Api {
                status: response.status,
                code: err
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_owned(),
                message: err
                    .and_then(|e| e.get("message"))
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
            });
        }
        doc.get("data")
            .and_then(|d| d.get("generation"))
            .and_then(Json::as_u64)
            .ok_or_else(|| protocol("reload: no generation"))
    }

    /// `GET /v1/metrics`: the daemon's telemetry, as the raw body text.
    /// `format` is forwarded as the `?format=` query parameter — `None`
    /// yields the Prometheus text exposition (the one `/v1` body served
    /// raw, since scrapers expect the bare format, so it bypasses the
    /// envelope unwrapping), `Some("json")` the enveloped JSON document.
    pub fn server_metrics(&mut self, format: Option<&str>) -> Result<String, ClientError> {
        let path = match format {
            Some(f) => format!("/v1/metrics?format={}", percent_encode(f)),
            None => "/v1/metrics".to_owned(),
        };
        let response = self.request("GET", &path, None)?;
        if response.status != 200 {
            return Err(protocol(format!("/v1/metrics: HTTP {}", response.status)));
        }
        String::from_utf8(response.body)
            .map_err(|_| protocol("/v1/metrics: non-UTF-8 response body"))
    }

    /// `GET /v1/metrics?format=json`, typed: the `data` member of the
    /// envelope, with its `counters` / `gauges` / `histograms` arrays.
    pub fn server_metrics_json(&mut self) -> Result<Json, ClientError> {
        self.call("GET", "/v1/metrics?format=json", None)
    }

    /// `GET /v1/debug/traces`: the daemon's recent spans and pinned
    /// slowest traces, as the `data` member of the envelope.
    pub fn debug_traces(&mut self) -> Result<Json, ClientError> {
        self.call("GET", "/v1/debug/traces", None)
    }

    /// `GET /v1/debug/traces/<trace-id>`: one trace's rendered span
    /// tree. `trace_id` must be the 32-hex-digit spelling (as reported
    /// by [`last_trace_id`](Self::last_trace_id) or the trace listing).
    pub fn debug_trace(&mut self, trace_id: &str) -> Result<Json, ClientError> {
        if trace_id.len() != 32 || !trace_id.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(protocol(format!("invalid trace id {trace_id:?}")));
        }
        self.call("GET", &format!("/v1/debug/traces/{trace_id}"), None)
    }

    /// `GET`s a `/v1` path and returns the raw envelope body verbatim —
    /// what the CLI's `--format json` prints. Error statuses still
    /// surface as [`ClientError::Api`].
    pub fn get_raw(&mut self, path: &str) -> Result<String, ClientError> {
        let response = self.request("GET", path, None)?;
        let text = String::from_utf8(response.body)
            .map_err(|_| protocol(format!("{path}: non-UTF-8 response body")))?;
        if (200..300).contains(&response.status) {
            return Ok(text);
        }
        match json::parse(&text)
            .ok()
            .and_then(|doc| doc.get("error").cloned())
        {
            Some(err) => Err(ClientError::Api {
                status: response.status,
                code: err
                    .get("code")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_owned(),
                message: err
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
            }),
            None => Err(protocol(format!(
                "{path}: HTTP {} without an error envelope",
                response.status
            ))),
        }
    }

    /// The `/v1/pairs/<name>/diagnostics` path for a pair (the default
    /// pair when `None`) — for [`get_raw`](Self::get_raw).
    pub fn diagnostics_path(&mut self, pair: Option<&str>) -> Result<String, ClientError> {
        Ok(format!("{}/diagnostics", self.pair_prefix(pair)?))
    }

    /// `GET /v1/pairs/<name>/diagnostics`: the gold-standard-free
    /// quality summary of a pair's served image, as the `data` member.
    pub fn diagnostics(&mut self, pair: Option<&str>) -> Result<Json, ClientError> {
        let path = self.diagnostics_path(pair)?;
        self.call("GET", &path, None)
    }

    /// The `/v1/debug/profile` path, with the optional `?root=` filter.
    pub fn profile_path(root: Option<&str>) -> String {
        match root {
            Some(name) => format!("/v1/debug/profile?root={}", percent_encode(name)),
            None => "/v1/debug/profile".to_owned(),
        }
    }

    /// `GET /v1/debug/profile`: the daemon's span ring folded into a
    /// flame tree, optionally re-rooted on spans named `root`.
    pub fn debug_profile(&mut self, root: Option<&str>) -> Result<Json, ClientError> {
        self.call("GET", &Self::profile_path(root), None)
    }

    /// `GET /v1/debug/runs`: the persisted align-run history.
    pub fn debug_runs(&mut self) -> Result<Json, ClientError> {
        self.call("GET", "/v1/debug/runs", None)
    }
}

fn parse_sameas(data: &Json) -> Result<SameasAnswer, ClientError> {
    Ok(SameasAnswer {
        iri: data
            .get("iri")
            .and_then(Json::as_str)
            .ok_or_else(|| protocol("sameas: no iri"))?
            .to_owned(),
        sameas: data.get("sameas").and_then(Json::as_str).map(str::to_owned),
        score: data.get("score").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

fn parse_neighbors(data: &Json) -> Result<NeighborsAnswer, ClientError> {
    let facts = data
        .get("facts")
        .and_then(Json::as_array)
        .ok_or_else(|| protocol("neighbors: no facts array"))?
        .iter()
        .map(|f| NeighborFact {
            relation: f
                .get("relation")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            inverse: f.get("inverse").and_then(Json::as_bool).unwrap_or(false),
            value: f
                .get("value")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            functionality: f.get("functionality").and_then(Json::as_f64).unwrap_or(0.0),
        })
        .collect();
    Ok(NeighborsAnswer {
        iri: data
            .get("iri")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned(),
        total_facts: data.get("total_facts").and_then(Json::as_u64).unwrap_or(0),
        offset: data.get("offset").and_then(Json::as_u64).unwrap_or(0),
        facts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;

    #[test]
    fn pair_name_validation() {
        for good in ["alpha", "yago-dbpedia", "v2_pair", "a.b", "A9", "x"] {
            assert!(valid_pair_name(good), "{good}");
        }
        for bad in [
            "",
            ".",
            "..",
            ".hidden",
            "a/b",
            "../escape",
            "a b",
            "a\"b",
            "a\\b",
            "a\nb",
            "a?b",
            "a%b",
            "ümlaut",
            "manifest",
        ] {
            assert!(!valid_pair_name(bad), "{bad:?}");
        }
        assert!(valid_pair_name(&"n".repeat(MAX_PAIR_NAME)));
        assert!(!valid_pair_name(&"n".repeat(MAX_PAIR_NAME + 1)));
    }

    #[test]
    fn percent_encoding_is_conservative() {
        assert_eq!(percent_encode("abc-._~09"), "abc-._~09");
        assert_eq!(
            percent_encode("http://a/b?c=d"),
            "http%3A%2F%2Fa%2Fb%3Fc%3Dd"
        );
        assert_eq!(percent_encode("a b+c"), "a%20b%2Bc");
    }

    #[test]
    fn query_serialization() {
        assert_eq!(
            Query::sameas("http://a/x").to_json(),
            r#"{"op":"sameas","iri":"http://a/x","side":"left"}"#
        );
        let q = Query::Neighbors {
            iri: "http://a/x".into(),
            side: Side::Right,
            limit: Some(5),
            offset: 10,
        };
        assert_eq!(
            q.to_json(),
            r#"{"op":"neighbors","iri":"http://a/x","side":"right","limit":5,"offset":10}"#
        );
    }

    /// A scripted upstream: answers each accepted connection with the
    /// next canned response (one request per connection).
    fn scripted_upstream(responses: Vec<String>) -> (String, std::thread::JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut seen = Vec::new();
            for response in responses {
                let (mut conn, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(conn.try_clone().unwrap());
                let mut request_line = String::new();
                reader.read_line(&mut request_line).unwrap();
                seen.push(request_line.trim_end().to_owned());
                let mut content_length = 0usize;
                loop {
                    let mut h = String::new();
                    reader.read_line(&mut h).unwrap();
                    if let Some(v) = h
                        .to_ascii_lowercase()
                        .strip_prefix("content-length:")
                        .map(str::trim)
                    {
                        content_length = v.parse().unwrap();
                    }
                    if h == "\r\n" || h.is_empty() {
                        break;
                    }
                }
                let mut body = vec![0u8; content_length];
                reader.read_exact(&mut body).unwrap();
                conn.write_all(response.as_bytes()).unwrap();
            }
            seen
        });
        (format!("http://{addr}"), handle)
    }

    fn framed(status: u16, reason: &str, body: &str, etag: Option<&str>) -> String {
        let etag_header = etag
            .map(|e| format!("ETag: \"{e}\"\r\n"))
            .unwrap_or_default();
        format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n{etag_header}Connection: close\r\n\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn envelope_unwrapping_and_api_errors() {
        let (url, server) = scripted_upstream(vec![
            framed(
                200,
                "OK",
                r#"{"data":{"status":"ok","version":"1","role":"primary","generation":3,"pairs":2}}"#,
                None,
            ),
            framed(
                404,
                "Not Found",
                r#"{"error":{"code":"not_found","message":"no such pair 'x'"}}"#,
                None,
            ),
        ]);
        let mut client = ParisClient::new(&url).unwrap();
        let health = client.healthz().unwrap();
        assert_eq!(health.role, "primary");
        assert_eq!(health.generation, 3);
        let err = client.call("GET", "/v1/pairs/x/stats", None).unwrap_err();
        assert_eq!(
            err,
            ClientError::Api {
                status: 404,
                code: "not_found".into(),
                message: "no such pair 'x'".into(),
            }
        );
        server.join().unwrap();
    }

    #[test]
    fn etag_cache_turns_304_into_the_cached_answer() {
        let body = r#"{"data":{"iri":"http://a/x","sameas":"http://b/y","score":0.5}}"#;
        let (url, server) = scripted_upstream(vec![
            framed(200, "OK", body, Some("00ff")),
            framed(304, "Not Modified", "", Some("00ff")),
        ]);
        let mut client = ParisClient::new(&url).unwrap();
        let path = "/v1/pairs/p/sameas?iri=x";
        let first = client.call("GET", path, None).unwrap();
        let second = client.call("GET", path, None).unwrap();
        assert_eq!(first, second);
        assert_eq!(client.cache_hits(), 1);
        assert_eq!(client.metrics().cache_hits(), 1);
        assert_eq!(client.metrics().requests(), 2);
        let seen = server.join().unwrap();
        assert_eq!(seen.len(), 2);
        server_sent_validator(&seen[1]);
    }

    fn server_sent_validator(request_line: &str) {
        // The validator travels in headers, which the scripted upstream
        // does not record — but the request line proves the retry hit
        // the same path (the 304 above would desynchronize otherwise).
        assert!(request_line.starts_with("GET /v1/pairs/p/sameas"));
    }

    #[test]
    fn transport_failover_rotates_upstreams() {
        // A dead upstream (bound, never accepted → refused after drop).
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = l.local_addr().unwrap();
            drop(l);
            format!("http://{addr}")
        };
        let (live, server) = scripted_upstream(vec![framed(
            200,
            "OK",
            r#"{"data":{"status":"ok","version":"1","role":"replica","generation":1,"pairs":1}}"#,
            None,
        )]);
        let mut client = ParisClient::with_upstreams(&[dead.as_str(), live.as_str()]).unwrap();
        let health = client.healthz().unwrap();
        assert_eq!(health.role, "replica");
        // The live upstream is now the active one.
        assert_eq!(client.active, 1);
        // The failover was charged to the dead upstream, the request to
        // both (an attempt each).
        let per = client.metrics().per_upstream();
        assert_eq!(per[0].0, dead);
        assert_eq!((per[0].1, per[0].2), (1, 1), "{per:?}");
        assert_eq!((per[1].1, per[1].2), (1, 0), "{per:?}");
        assert_eq!(client.metrics().failovers(), 1);
        server.join().unwrap();
    }

    /// A dead upstream must be recorded as unreachable by the role
    /// probe — never as the *next* upstream's role (the probe must not
    /// take the failover path).
    #[test]
    fn refresh_roles_probes_each_upstream_without_failover() {
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = l.local_addr().unwrap();
            drop(l);
            format!("http://{addr}")
        };
        let (live, server) = scripted_upstream(vec![framed(
            200,
            "OK",
            r#"{"data":{"status":"ok","version":"1","role":"primary","generation":1,"pairs":1}}"#,
            None,
        )]);
        let mut client = ParisClient::with_upstreams(&[dead.as_str(), live.as_str()]).unwrap();
        let roles = client.refresh_roles();
        assert_eq!(roles, vec![(live.clone(), "primary".to_owned())]);
        assert_eq!(client.upstreams[0].role, None, "dead upstream: no role");
        assert_eq!(client.upstreams[1].role.as_deref(), Some("primary"));
        assert!(client.prefer_role("primary"));
        assert_eq!(client.active, 1);
        server.join().unwrap();
    }

    #[test]
    fn all_upstreams_down_is_a_transport_error() {
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = l.local_addr().unwrap();
            drop(l);
            format!("http://{addr}")
        };
        let mut client = ParisClient::new(&dead).unwrap();
        assert!(matches!(client.healthz(), Err(ClientError::Transport(_))));
    }
}
