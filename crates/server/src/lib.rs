//! # The alignment-serving daemon (`paris serve`)
//!
//! The seed reproduced PARIS as a batch CLI: parse two RDF files, align,
//! print, exit. This crate is the serving half of the system: a
//! long-lived HTTP/1.1 daemon answering alignment queries from immutable
//! in-memory images, built entirely on `std::net` (the workspace takes
//! no external dependencies): a fixed pool of worker threads pulls
//! accepted connections from a channel and speaks the minimal HTTP/1.1
//! subset in [`http`].
//!
//! ## The catalog
//!
//! One daemon serves **many alignment pairs**. The catalog maps pair
//! names to snapshot files (`paris serve --catalog DIR` scans a
//! directory; `paris serve FILE.snap` is a one-pair catalog) and routes
//! `/pairs/<name>/{sameas,neighbors,stats,reload,healthz}`; the bare
//! legacy routes alias the *default* pair (the one named `default`, or
//! the alphabetically first). Pairs open **lazily** on first hit, as
//! mmap-backed arenas ([`PairImage`]) read in place — the OS page cache
//! owns the bytes, so an open pair costs this process no heap, needs no
//! eviction policy, and its cold sections never enter the resident set
//! at all.
//!
//! ## Hot reload, per pair
//!
//! Every pair carries its own monotonic **generation** (bumped by each
//! image install: first load, explicit reload, watch reload). Each
//! request clones one `Arc` to its pair's current
//! image and answers entirely from it, so `POST /pairs/<name>/reload`
//! (or the `--watch` mtime re-check, which also discovers added and
//! removed catalog files) swaps the pointer atomically — in-flight
//! requests finish on the old image, and a failed load leaves the old
//! image serving.
//!
//! ## Replication
//!
//! Any daemon is implicitly a **primary**: `GET /pairs/manifest` lists
//! every pair's name, format version, generation, byte length, and
//! content checksum, and `GET /pairs/<name>/snapshot` streams the raw
//! snapshot file (with a checksum `ETag`, so `If-None-Match` makes an
//! unchanged pair cost zero body bytes). A daemon started with
//! `--replica-of URL` is additionally a **replica**: a sync thread
//! polls the upstream manifest, mirrors changed pairs into the catalog
//! directory via `paris-replica`'s validated-transfer engine, and
//! drives the per-pair hot-reload path; `/healthz` then reports the
//! role, upstream, last-sync time, and per-pair generation lag. See
//! `docs/REPLICATION.md`.
//!
//! ## The `/v1` contract
//!
//! Every JSON answer wears one envelope: `{"data":…}` on success,
//! `{"error":{"code":…,"message":…}}` on failure (`code` is
//! machine-readable: `bad_request`, `forbidden`, `not_found`,
//! `method_not_allowed`, `internal`). The canonical routes live under
//! `/v1`:
//!
//! | route | method | answer |
//! |---|---|---|
//! | `/v1/healthz` | GET | liveness + version + role + default-pair generation |
//! | `/v1/pairs` | GET | the catalog: every pair, its state and generation |
//! | `/v1/pairs/manifest` | GET | replication manifest (checksums, generations) |
//! | `/v1/pairs/<name>/sameas?iri=…` | GET | best match of an instance |
//! | `/v1/pairs/<name>/neighbors?iri=…&limit=…&offset=…` | GET | facts around an entity, paginated |
//! | `/v1/pairs/<name>/explain?left=…&right=…` | GET | the stored Eq. 13 evidence for one candidate pair |
//! | `/v1/pairs/<name>/query` | POST | batch: up to [`MAX_BATCH_QUERIES`] mixed lookups, one image acquisition |
//! | `/v1/pairs/<name>/stats` | GET | KB + alignment statistics of one pair |
//! | `/v1/pairs/<name>/healthz` | GET | per-pair liveness + generation |
//! | `/v1/pairs/<name>/snapshot` | GET | the raw snapshot bytes (ETag/304, no envelope) |
//! | `/v1/pairs/<name>/reload` | POST | swap in that pair's snapshot file |
//! | `/v1/align` | POST | enqueue a batch job over two single-KB snapshots |
//! | `/v1/jobs/<id>` | GET | job status / outcome |
//!
//! Every pre-v1 route (`/sameas`, `/pairs/<name>/stats`, …) keeps
//! working as a **thin alias**: it delegates to the very same v1
//! handler (identical envelope, identical bytes) and additionally
//! carries one deprecation `Warning` header; the bare `/sameas`,
//! `/neighbors`, `/stats`, `/reload` aliases resolve the *default*
//! pair.
//!
//! Cacheable `GET`s (`stats`, `sameas`, `neighbors`, `explain`, the
//! manifest, snapshot transfer) carry a body-checksum `ETag` and honour
//! `If-None-Match` — a polling client pays headers only while the
//! answer is unchanged.
//!
//! See `docs/HTTP_API.md` at the repository root for the full
//! request/response reference with curl examples, and the
//! `paris-client` crate for the typed client (`ParisClient`) the
//! `paris query` CLI speaks.

#![forbid(unsafe_code)]

pub mod http;
pub mod jobs;
pub mod json;
mod metrics;
pub mod runs;

pub use metrics::LogFormat;
pub use runs::{RunHistory, RunRecord};

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::{Duration, Instant, SystemTime};

use paris_core::{
    explain_stored, AlignedPairSnapshot, MappedPairSnapshot, PairImage, PairSide, QualitySummary,
};
use paris_kb::snapshot_v2::checksum_v2;
use paris_kb::{snapshot, EntityKind, KbStats};
use paris_obs as obs;
use paris_replica::{valid_pair_name, ReplicationStatus, SyncEngine};

use http::{ParseError, Request, Response};
use jobs::{JobRequest, JobStore};
use metrics::{RequestLog, ServerMetrics};

pub use jobs::{JobOutcome, JobState};

/// The crate version reported by `/healthz` and `paris version`.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// The snapshot format every image is served from, as the JSON answers
/// and the build-info labels spell it.
const SNAPSHOT_FORMAT: &str = "v2";

/// Server tuning knobs.
///
/// **Trust model:** the daemon has no authentication. `POST /align` and
/// `POST /reload` with an explicit `path=` make the server read (and for
/// jobs, write) server-local snapshot paths named by the client, so they
/// are only safe for trusted peers — keep the default loopback bind, or
/// disable them (`enable_jobs: false` / `paris serve --no-jobs`) before
/// exposing the read-only query routes more widely. In catalog mode the
/// catalog *directory* is the trust boundary: every pair reloads only
/// from its own scanned file, client-named paths are rejected outright,
/// and dropping a file into the directory is what publishes it (the
/// `--watch` rescan picks it up).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7070` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads handling requests.
    pub threads: usize,
    /// Whether `POST /align` (filesystem-touching batch jobs) and
    /// client-named `POST /reload` paths are served.
    pub enable_jobs: bool,
    /// Single-pair mode: the snapshot file the daemon was started from —
    /// the default source for `POST /reload` and the `--watch` re-check.
    /// `None` disables both (e.g. tests that build snapshots in memory).
    pub snapshot_path: Option<PathBuf>,
    /// Catalog mode: serve every `*.snap` in this directory as a named
    /// pair (mutually exclusive with `snapshot_path`).
    pub catalog_dir: Option<PathBuf>,
    /// Poll snapshot files for modification-time changes at this
    /// interval and hot-swap automatically — the daemon equivalent of a
    /// SIGHUP re-check (`std` offers no portable signal handling). In
    /// catalog mode the tick also rescans the directory for added and
    /// removed pairs.
    pub watch_interval: Option<Duration>,
    /// Replica mode: continuously mirror this upstream daemon's catalog
    /// (`http://host:port`) into `catalog_dir` and hot-reload changed
    /// pairs. Requires catalog mode; the directory may start empty.
    pub replica_of: Option<String>,
    /// How often a replica polls the upstream manifest.
    pub sync_interval: Duration,
    /// Structured per-request logging (one line per finished request,
    /// to stderr). `Off` by default — the CLI daemon turns it on.
    pub log_format: LogFormat,
    /// Capacity of the in-memory span ring buffer behind
    /// `GET /v1/debug/traces` (`paris serve --trace-buffer N`).
    /// `0` disables tracing entirely — span recording becomes a cheap
    /// early return and the debug routes answer `404`.
    pub trace_buffer: usize,
    /// Threshold (milliseconds) above which a finished request also
    /// emits one `slow_request` log line through the request logger
    /// (`paris serve --slow-ms MS`). `None` disables the slow log.
    pub slow_ms: Option<u64>,
    /// Append-only JSONL file recording every completed align job
    /// (`paris serve --run-history FILE`). Existing records are loaded
    /// at startup so `GET /v1/debug/runs` survives restarts, and each
    /// new run's assignment sketch is compared against the previous
    /// generation of the same pair to flag drift. `None` disables the
    /// run history (the route answers `404`).
    pub run_history: Option<PathBuf>,
    /// How many slowest root spans the tail sampler pins outside the
    /// ring (`paris serve --trace-pinned N`). `0` disables pinning.
    pub trace_pinned: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7070".to_owned(),
            threads: 4,
            enable_jobs: true,
            snapshot_path: None,
            catalog_dir: None,
            watch_interval: None,
            replica_of: None,
            sync_interval: Duration::from_secs(1),
            log_format: LogFormat::Off,
            trace_buffer: DEFAULT_TRACE_BUFFER,
            slow_ms: None,
            run_history: None,
            trace_pinned: obs::span::SLOW_TRACES,
        }
    }
}

/// Default capacity of the span ring buffer (spans, not traces). At
/// ~200 bytes a span this bounds steady-state trace memory to ~100 KiB
/// plus the pinned slow traces.
pub const DEFAULT_TRACE_BUFFER: usize = 512;

/// One immutable serving image of one pair: the loaded snapshot plus the
/// derived values `/stats` would otherwise recompute per hit. Swapped
/// wholesale on reload; requests in flight keep their `Arc`.
struct LoadedImage {
    image: PairImage,
    /// Assigned KB-1 instances, computed once at load time.
    aligned_instances: usize,
    /// Pre-rendered KB statistics.
    kb1_stats_json: String,
    kb2_stats_json: String,
    /// The pair's generation this image was installed as.
    generation: u64,
}

impl LoadedImage {
    fn new(image: PairImage, generation: u64) -> Self {
        let aligned_instances = image.aligned_instances();
        let kb1_stats_json = kb_stats_json(&image.kb_stats(PairSide::Kb1));
        let kb2_stats_json = kb_stats_json(&image.kb_stats(PairSide::Kb2));
        LoadedImage {
            image,
            aligned_instances,
            kb1_stats_json,
            kb2_stats_json,
            generation,
        }
    }
}

/// Filesystem change signature: (mtime, length). Mtimes can be coarse
/// (a second on some systems); the length disambiguates all but
/// same-second same-size rewrites.
fn signature_of(path: &Path) -> Option<(SystemTime, u64)> {
    std::fs::metadata(path)
        .ok()
        .and_then(|m| m.modified().ok().map(|t| (t, m.len())))
}

/// What the replication manifest advertises about one pair's backing
/// file, cached per file signature so repeated manifest polls do not
/// re-read unchanged snapshots.
#[derive(Clone, Copy, Debug)]
struct ContentInfo {
    /// File signature the cache entry is valid for.
    signature: (SystemTime, u64),
    /// `checksum_v2` of the whole file — the transfer `ETag`.
    checksum: u64,
    /// Snapshot format version (0 when the file is not a snapshot).
    version: u32,
    /// File length in bytes.
    bytes: u64,
}

/// One catalog entry: a named snapshot file and its swappable image.
struct PairState {
    name: String,
    /// Backing snapshot file. `None` only for images handed to
    /// [`Server::bind`] directly (tests/benches); such pairs cannot
    /// reload.
    path: Option<PathBuf>,
    /// The current image; `None` before the first hit.
    slot: RwLock<Option<Arc<LoadedImage>>>,
    /// Serializes loads/reloads of this pair (readers never wait on it).
    load_lock: Mutex<()>,
    /// Monotonic per-pair generation: the number of images ever
    /// installed (first lazy load = 1).
    generation: AtomicU64,
    /// Successful explicit + watch reloads.
    reloads: AtomicU64,
    /// Signature of `path` as of the last load from it.
    last_signature: Mutex<Option<(SystemTime, u64)>>,
    /// Manifest cache: checksum/version/length of the backing file.
    content_cache: Mutex<Option<ContentInfo>>,
}

impl PairState {
    fn unloaded(name: String, path: PathBuf) -> PairState {
        PairState {
            name,
            path: Some(path),
            slot: RwLock::new(None),
            load_lock: Mutex::new(()),
            generation: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            last_signature: Mutex::new(None),
            content_cache: Mutex::new(None),
        }
    }

    fn current(&self) -> Option<Arc<LoadedImage>> {
        self.slot.read().expect("pair slot poisoned").clone()
    }

    /// Opens the backing snapshot file and returns it together with its
    /// [`ContentInfo`]. The checksum is computed at most once per file
    /// signature; on a cache miss the file is read *through the returned
    /// handle* — in chunks, never buffered whole — and rewound, so the
    /// checksum, the advertised length, and the bytes a caller then
    /// streams all come from the same inode even if the path is
    /// atomically replaced mid-request.
    fn open_content(&self) -> Result<(std::fs::File, ContentInfo), String> {
        use std::io::{Read, Seek};
        let Some(path) = self.path.as_ref() else {
            return Err(format!("pair '{}' has no backing snapshot file", self.name));
        };
        let mut file = std::fs::File::open(path)
            .map_err(|e| format!("cannot open snapshot {}: {e}", path.display()))?;
        let meta = file
            .metadata()
            .map_err(|e| format!("cannot stat snapshot {}: {e}", path.display()))?;
        let signature = meta.modified().ok().map(|t| (t, meta.len()));
        // Holding the lock across the read also collapses concurrent
        // cache misses into one checksum pass.
        let mut cache = self.content_cache.lock().expect("content cache poisoned");
        if let (Some(info), Some(sig)) = (*cache, signature) {
            if info.signature == sig {
                return Ok((file, info));
            }
        }
        let mut head = [0u8; 12];
        let version = match file.read_exact(&mut head) {
            Ok(()) => snapshot::peek_version_bytes(&head).unwrap_or(0),
            Err(_) => 0, // shorter than the magic: not a snapshot
        };
        file.rewind()
            .map_err(|e| format!("cannot rewind snapshot {}: {e}", path.display()))?;
        let checksum = paris_kb::snapshot_v2::checksum_v2_stream(&mut file, meta.len())
            .map_err(|e| format!("cannot read snapshot {}: {e}", path.display()))?;
        file.rewind()
            .map_err(|e| format!("cannot rewind snapshot {}: {e}", path.display()))?;
        let info = ContentInfo {
            signature: signature.unwrap_or((SystemTime::UNIX_EPOCH, meta.len())),
            checksum,
            version,
            bytes: meta.len(),
        };
        if signature.is_some() {
            *cache = Some(info);
        }
        Ok((file, info))
    }
}

/// The pair catalog: names → states.
struct Catalog {
    pairs: RwLock<BTreeMap<String, Arc<PairState>>>,
    /// Name the bare legacy routes alias.
    default_name: RwLock<String>,
    /// Catalog directory (rescanned by `--watch`), `None` in single mode.
    dir: Option<PathBuf>,
    /// Metric: image requests answered from the resident slot.
    image_hits: Arc<obs::Counter>,
    /// Metric: images loaded from disk (first hit or reload) — the
    /// cache-miss side of `image_hits`.
    image_loads: Arc<obs::Counter>,
}

impl Catalog {
    fn new(
        pairs: BTreeMap<String, Arc<PairState>>,
        default_name: String,
        dir: Option<PathBuf>,
    ) -> Catalog {
        Catalog {
            pairs: RwLock::new(pairs),
            default_name: RwLock::new(default_name),
            dir,
            image_hits: Arc::default(),
            image_loads: Arc::default(),
        }
    }

    fn pair(&self, name: &str) -> Option<Arc<PairState>> {
        self.pairs
            .read()
            .expect("catalog lock poisoned")
            .get(name)
            .cloned()
    }

    fn default_pair(&self) -> Option<Arc<PairState>> {
        let name = self
            .default_name
            .read()
            .expect("catalog lock poisoned")
            .clone();
        self.pair(&name)
    }

    /// The pair's current image, loading it on first hit. Returns the
    /// human-readable load error on failure.
    fn image_of(&self, pair: &Arc<PairState>) -> Result<Arc<LoadedImage>, String> {
        if let Some(img) = pair.current() {
            self.image_hits.inc();
            return Ok(img);
        }
        let _serialized = pair.load_lock.lock().expect("pair load lock poisoned");
        if let Some(img) = pair.current() {
            self.image_hits.inc();
            return Ok(img); // another thread won the race
        }
        let Some(path) = pair.path.clone() else {
            return Err(format!("pair '{}' has no backing snapshot file", pair.name));
        };
        // Sample the signature *before* loading: if the file is replaced
        // mid-load we serve the old bytes but record the pre-replacement
        // signature, so the next --watch tick sees the change and
        // reloads (an extra reload beats serving stale data forever).
        let signature = signature_of(&path);
        let loaded = self.load_from(pair, &path)?;
        *pair.last_signature.lock().expect("signature lock poisoned") = signature;
        Ok(loaded)
    }

    /// Loads `path` and installs it as the pair's next generation.
    /// Callers must hold the pair's `load_lock`.
    fn load_from(&self, pair: &PairState, path: &Path) -> Result<Arc<LoadedImage>, String> {
        let image = PairImage::load(path)
            .map_err(|e| format!("cannot load snapshot {}: {e}", path.display()))?;
        let generation = pair.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let loaded = Arc::new(LoadedImage::new(image, generation));
        *pair.slot.write().expect("pair slot poisoned") = Some(Arc::clone(&loaded));
        self.image_loads.inc();
        Ok(loaded)
    }

    /// Reloads one pair from its backing file (or an explicit override
    /// in legacy single-pair mode), bumping generation and reload count.
    fn reload_pair(
        &self,
        pair: &Arc<PairState>,
        override_path: Option<&Path>,
    ) -> Result<Arc<LoadedImage>, String> {
        let _serialized = pair.load_lock.lock().expect("pair load lock poisoned");
        let loaded = match override_path {
            Some(p) => self.load_from(pair, p)?,
            None => {
                let Some(path) = pair.path.clone() else {
                    return Err(format!("pair '{}' has no backing snapshot file", pair.name));
                };
                // Pre-load signature, same reasoning as in image_of.
                let signature = signature_of(&path);
                let loaded = self.load_from(pair, &path)?;
                *pair.last_signature.lock().expect("signature lock poisoned") = signature;
                loaded
            }
        };
        pair.reloads.fetch_add(1, Ordering::Relaxed);
        Ok(loaded)
    }
}

/// Replica-role state: the upstream plus the sync engine's latest
/// health report (written by the sync thread, rendered by `/healthz`).
struct ReplicaState {
    upstream: String,
    status: Mutex<Option<ReplicationStatus>>,
}

/// Shared serving state: the catalog plus global counters.
struct ServeState {
    catalog: Catalog,
    started: Instant,
    requests: Arc<obs::Counter>,
    jobs: Arc<JobStore>,
    /// Whether `POST /align` is served (see [`ServerConfig::enable_jobs`]).
    jobs_enabled: bool,
    /// `Some` when this daemon replicates an upstream catalog.
    replica: Option<ReplicaState>,
    /// The request-path instrument set behind `GET /v1/metrics`.
    metrics: ServerMetrics,
    /// The structured request log, `None` when logging is off.
    log: Option<RequestLog>,
    /// The span ring buffer behind `GET /v1/debug/traces` (capacity 0
    /// when tracing is disabled).
    spans: Arc<obs::span::SpanStore>,
    /// See [`ServerConfig::slow_ms`].
    slow_ms: Option<u64>,
    /// The persisted run history behind `GET /v1/debug/runs`, `None`
    /// without `--run-history`.
    runs: Option<Arc<RunHistory>>,
}

impl ServeState {
    #[allow(clippy::too_many_arguments)]
    fn new(
        catalog: Catalog,
        jobs_enabled: bool,
        replica: Option<ReplicaState>,
        log_format: LogFormat,
        trace_buffer: usize,
        trace_pinned: usize,
        slow_ms: Option<u64>,
        runs: Option<Arc<RunHistory>>,
    ) -> ServeState {
        let metrics = ServerMetrics::new();
        let requests = metrics.registry.counter(
            "paris_requests_total",
            "HTTP requests received (all routes, counted before routing).",
            &[],
        );
        metrics.registry.register_counter(
            "paris_catalog_image_hits_total",
            "Pair image requests answered from the resident slot.",
            &[],
            &catalog.image_hits,
        );
        metrics.registry.register_counter(
            "paris_catalog_image_loads_total",
            "Pair images loaded from disk (first hit or reload).",
            &[],
            &catalog.image_loads,
        );
        // The build-info gauge: constant 1, with the interesting facts in
        // the labels (the Prometheus `*_build_info` convention).
        metrics
            .registry
            .gauge(
                "paris_build_info",
                "Constant 1; version and supported snapshot/delta formats as labels.",
                &[
                    ("version", VERSION),
                    ("snapshot_formats", SNAPSHOT_FORMAT),
                    (
                        "delta_format",
                        &format!("v{}", snapshot::DELTA_FORMAT_VERSION),
                    ),
                ],
            )
            .set(1);
        let spans = Arc::new(obs::span::SpanStore::with_pinned(
            trace_buffer,
            trace_pinned,
        ));
        metrics.registry.register_counter(
            "paris_trace_spans_recorded_total",
            "Spans recorded into the trace ring buffer.",
            &[],
            spans.recorded_counter(),
        );
        metrics.registry.register_counter(
            "paris_trace_spans_dropped_total",
            "Spans evicted from the trace ring (pinned slow-trace copies persist).",
            &[],
            spans.dropped_counter(),
        );
        ServeState {
            catalog,
            started: Instant::now(),
            requests,
            jobs: Arc::new(JobStore::with_observatory(Arc::clone(&spans), runs.clone())),
            jobs_enabled,
            replica,
            metrics,
            log: RequestLog::new(log_format),
            spans,
            slow_ms,
            runs,
        }
    }

    /// Refreshes every sampled gauge from live state — called once per
    /// `/v1/metrics` scrape instead of being maintained per mutation.
    fn refresh_gauges(&self) {
        let reg = &self.metrics.registry;
        reg.gauge(
            "paris_uptime_seconds",
            "Seconds since the daemon started.",
            &[],
        )
        .set(self.started.elapsed().as_secs());
        reg.gauge(
            "paris_jobs_submitted",
            "Alignment jobs accepted since startup.",
            &[],
        )
        .set(self.jobs.submitted());
        let pairs: Vec<Arc<PairState>> = self
            .catalog
            .pairs
            .read()
            .expect("catalog lock poisoned")
            .values()
            .cloned()
            .collect();
        let mut loaded = 0u64;
        for pair in &pairs {
            let image = pair.current();
            if image.is_some() {
                loaded += 1;
            }
            let labels = &[("pair", pair.name.as_str())];
            reg.gauge(
                "paris_pair_generation",
                "Monotonic image generation of a pair.",
                labels,
            )
            .set(pair.generation.load(Ordering::SeqCst));
            reg.gauge(
                "paris_pair_reloads",
                "Successful explicit and watch reloads of a pair.",
                labels,
            )
            .set(pair.reloads.load(Ordering::Relaxed));
            reg.gauge(
                "paris_pair_loaded",
                "1 while the pair's image is resident, else 0.",
                labels,
            )
            .set(u64::from(image.is_some()));
        }
        reg.gauge("paris_pairs", "Pairs in the catalog.", &[])
            .set(pairs.len() as u64);
        reg.gauge("paris_pairs_loaded", "Pairs with a resident image.", &[])
            .set(loaded);
        if let Some(replica) = &self.replica {
            let status = replica
                .status
                .lock()
                .expect("replica status poisoned")
                .clone();
            if let Some(status) = status {
                for p in &status.pairs {
                    let labels = &[("pair", p.name.as_str())];
                    reg.gauge(
                        "paris_replication_lag",
                        "Generations this replica trails the primary by, per pair.",
                        labels,
                    )
                    .set(p.lag);
                    reg.gauge(
                        "paris_replication_failures",
                        "Consecutive transfer failures of a replicated pair.",
                        labels,
                    )
                    .set(p.failures);
                    reg.gauge(
                        "paris_replication_backing_off",
                        "1 while a replicated pair is inside its retry backoff window.",
                        labels,
                    )
                    .set(u64::from(p.backing_off));
                }
            }
        }
    }

    /// Records one finished request: counters, latency histogram,
    /// per-pair series, ETag-cache outcome, and the request-log line.
    fn observe(&self, req: &Request, response: &Response, id: &str, latency_us: u64) {
        let class = metrics::route_class(&req.path);
        self.metrics.record(class, response.status, latency_us);
        if response.status == 304 {
            self.metrics.etag_hits.inc();
        } else if response.etag.is_some() {
            self.metrics.etag_misses.inc();
        }
        let pair = metrics::pair_of(&req.path).filter(|name| self.catalog.pair(name).is_some());
        if let Some(name) = pair {
            self.metrics.pair_counter(name).inc();
        }
        if let Some(log) = &self.log {
            let bytes = match &response.stream {
                Some((_, len)) => *len,
                None => response.body.len() as u64,
            };
            log.write(
                id,
                &req.method,
                &req.path,
                pair,
                response.status,
                bytes,
                latency_us,
            );
        }
    }

    /// Emits one `--slow-ms` slow-request line — through the structured
    /// request logger when one is configured, else to stderr so the flag
    /// is useful without `--log-format`.
    fn log_slow(
        &self,
        id: &str,
        method: &str,
        path: &str,
        pair: Option<&str>,
        latency_us: u64,
        trace: Option<&str>,
    ) {
        match &self.log {
            Some(log) => log.write_slow(id, method, path, pair, latency_us, trace),
            None => eprintln!(
                "slow_request id={id} method={method} path={path} pair={} \
                 latency_us={latency_us} trace={}",
                pair.unwrap_or("-"),
                trace.unwrap_or("-")
            ),
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

/// Handle to a server running on a background thread (used by tests and
/// benches; production callers use [`Server::run`]).
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Worker threads
    /// finish their in-flight connection and exit.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Lists the `*.snap` files of a catalog directory as `(name, path)`.
/// Files whose stem is not a [`valid_pair_name`] are skipped with a
/// warning — every name the catalog admits is thereby safe to embed in
/// URLs, JSON, and manifest output without escaping, and safe for a
/// replica to turn back into a filesystem path.
fn scan_catalog_dir(dir: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let is_snap = path
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| e.eq_ignore_ascii_case("snap"));
        if !path.is_file() || !is_snap {
            continue;
        }
        let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        if !valid_pair_name(name) {
            eprintln!(
                "catalog: ignoring {} — pair names may use ASCII letters, digits, \
                 '-', '_', '.' (no leading dot, not 'manifest')",
                path.display()
            );
            continue;
        }
        found.push((name.to_owned(), path.clone()));
    }
    found.sort();
    Ok(found)
}

/// The default pair of a catalog: `default` if present, else the
/// alphabetically first name.
fn pick_default(names: &BTreeMap<String, Arc<PairState>>) -> String {
    if names.contains_key("default") {
        "default".to_owned()
    } else {
        names.keys().next().cloned().unwrap_or_default()
    }
}

impl Server {
    fn bind_with_catalog(catalog: Catalog, config: ServerConfig) -> std::io::Result<Server> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
        let replica = match &config.replica_of {
            Some(upstream) => {
                // Fail fast on an unusable upstream URL, and insist on
                // catalog mode — the sync engine installs into (and the
                // rescan publishes from) the catalog directory.
                paris_replica::Upstream::parse(upstream).map_err(invalid)?;
                if catalog.dir.is_none() {
                    return Err(invalid(
                        "--replica-of requires catalog mode (--catalog DIR)".to_owned(),
                    ));
                }
                Some(ReplicaState {
                    upstream: upstream.clone(),
                    status: Mutex::new(None),
                })
            }
            None => None,
        };
        let runs = match &config.run_history {
            Some(path) => Some(Arc::new(RunHistory::open(path)?)),
            None => None,
        };
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            state: Arc::new(ServeState::new(
                catalog,
                config.enable_jobs,
                replica,
                config.log_format,
                config.trace_buffer,
                config.trace_pinned,
                config.slow_ms,
                runs,
            )),
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Binds a single-pair server around a heap snapshot by encoding it
    /// into an in-memory image (the pre-catalog API, kept for tests,
    /// benches, and embedding).
    pub fn bind(snapshot: AlignedPairSnapshot, config: ServerConfig) -> std::io::Result<Server> {
        let image = MappedPairSnapshot::from_bytes(MappedPairSnapshot::encode(&snapshot))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Server::bind_image(image.into(), config)
    }

    /// Binds a single-pair server around a loaded [`PairImage`]. The
    /// pair is named after the snapshot file, or `default` when none is
    /// configured.
    pub fn bind_image(image: PairImage, config: ServerConfig) -> std::io::Result<Server> {
        let path = config.snapshot_path.clone();
        let name = path
            .as_deref()
            .and_then(|p| p.file_stem())
            .and_then(|s| s.to_str())
            .filter(|n| valid_pair_name(n))
            .unwrap_or("default")
            .to_owned();
        let pair = PairState {
            name: name.clone(),
            slot: RwLock::new(Some(Arc::new(LoadedImage::new(image, 1)))),
            load_lock: Mutex::new(()),
            generation: AtomicU64::new(1),
            reloads: AtomicU64::new(0),
            last_signature: Mutex::new(path.as_deref().and_then(signature_of)),
            content_cache: Mutex::new(None),
            path,
        };
        let mut pairs = BTreeMap::new();
        pairs.insert(name.clone(), Arc::new(pair));
        let catalog = Catalog::new(pairs, name, None);
        Server::bind_with_catalog(catalog, config)
    }

    /// Binds a multi-pair server over `config.catalog_dir`: every
    /// `NAME.snap` in the directory becomes the pair `NAME`, opened
    /// lazily on its first request.
    pub fn bind_catalog(config: ServerConfig) -> std::io::Result<Server> {
        let dir = config.catalog_dir.clone().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no catalog directory set")
        })?;
        if config.replica_of.is_some() {
            // A replica's mirror directory may not exist yet and may
            // legitimately start empty — the first sync populates it.
            std::fs::create_dir_all(&dir)?;
        }
        let found = scan_catalog_dir(&dir)?;
        if found.is_empty() && config.replica_of.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("no *.snap files in catalog directory {}", dir.display()),
            ));
        }
        let mut pairs = BTreeMap::new();
        for (name, path) in found {
            pairs.insert(name.clone(), Arc::new(PairState::unloaded(name, path)));
        }
        let default_name = pick_default(&pairs);
        let catalog = Catalog::new(pairs, default_name, Some(dir));
        Server::bind_with_catalog(catalog, config)
    }

    /// The address actually bound (resolves `:0`).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Names of the pairs currently in the catalog (sorted).
    pub fn pair_names(&self) -> Vec<String> {
        self.state
            .catalog
            .pairs
            .read()
            .expect("catalog lock poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Runs the accept loop on the current thread until shut down.
    ///
    /// Connections are handed to a fixed pool of worker threads over a
    /// channel; each worker serves its connection keep-alive style until
    /// the client closes.
    pub fn run(self) -> std::io::Result<()> {
        if let Some(interval) = self.config.watch_interval {
            spawn_watch_thread(
                Arc::clone(&self.state),
                Arc::clone(&self.shutdown),
                interval,
            );
        }
        if let (Some(upstream), Some(dir)) = (
            self.config.replica_of.clone(),
            self.state.catalog.dir.clone(),
        ) {
            spawn_sync_thread(
                Arc::clone(&self.state),
                Arc::clone(&self.shutdown),
                upstream,
                dir,
                self.config.sync_interval,
            );
        }
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<_> = (0..self.config.threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&self.state);
                std::thread::Builder::new()
                    .name(format!("paris-serve-worker-{i}"))
                    .spawn(move || loop {
                        let conn = match rx.lock().expect("worker queue lock").recv() {
                            Ok(c) => c,
                            Err(_) => return, // acceptor gone: shut down
                        };
                        serve_connection(&state, conn);
                    })
                    .expect("spawning worker thread")
            })
            .collect();

        for conn in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                Ok(stream) => {
                    // If every worker died the channel is closed; stop.
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                // Transient accept failures (aborted handshakes, fd
                // exhaustion under a connection burst) must not bring the
                // daemon down; back off briefly and keep serving.
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
                Err(_) => {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    continue;
                }
            }
        }
        drop(tx);
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }

    /// Starts [`run`](Self::run) on a background thread.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = Arc::clone(&self.shutdown);
        let thread = std::thread::Builder::new()
            .name("paris-serve-acceptor".to_owned())
            .spawn(move || {
                let _ = self.run();
            })?;
        Ok(ServerHandle {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }
}

/// The SIGHUP-style re-check, per pair: poll every loaded pair's file
/// signature and hot-swap the ones that changed; in catalog mode, also
/// rescan the directory for added and removed snapshot files. A vanished
/// or unloadable file leaves the current image serving and is retried
/// next tick.
fn spawn_watch_thread(state: Arc<ServeState>, shutdown: Arc<AtomicBool>, interval: Duration) {
    std::thread::Builder::new()
        .name("paris-serve-watch".to_owned())
        .spawn(move || {
            while !shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(interval);
                let catalog = &state.catalog;
                if let Some(dir) = catalog.dir.clone() {
                    rescan_catalog(catalog, &dir);
                }
                let pairs: Vec<Arc<PairState>> = catalog
                    .pairs
                    .read()
                    .expect("catalog lock poisoned")
                    .values()
                    .cloned()
                    .collect();
                for pair in pairs {
                    // Only refresh pairs that are actually resident; an
                    // unloaded pair reads the fresh file on its next hit.
                    if pair.current().is_none() {
                        continue;
                    }
                    let Some(path) = pair.path.clone() else {
                        continue;
                    };
                    let now = signature_of(&path);
                    let last = *pair.last_signature.lock().expect("signature lock poisoned");
                    if now.is_none() || now == last {
                        continue;
                    }
                    match catalog.reload_pair(&pair, None) {
                        Ok(img) => eprintln!(
                            "watch: reloaded pair '{}' from {} (generation {})",
                            pair.name,
                            path.display(),
                            img.generation
                        ),
                        Err(e) => {
                            // last_signature stays stale, so a
                            // half-written file is retried next tick.
                            eprintln!("watch: reload of pair '{}' failed: {e}", pair.name)
                        }
                    }
                }
            }
        })
        .expect("spawning watch thread");
}

/// The replica poll loop: one `paris-replica` sync cycle per interval.
/// A cycle that changed the mirror directory is published the same way
/// `--watch` publishes operator changes — a catalog rescan (pairs
/// appear/vanish, the default is re-picked) — and every *loaded*
/// updated pair is hot-reloaded immediately, so convergence does not
/// wait for a separate watch tick. Unloaded pairs just read the fresh
/// file on their next hit. After every cycle the engine's health report
/// is published for `/healthz`.
fn spawn_sync_thread(
    state: Arc<ServeState>,
    shutdown: Arc<AtomicBool>,
    upstream: String,
    dir: PathBuf,
    interval: Duration,
) {
    std::thread::Builder::new()
        .name("paris-serve-sync".to_owned())
        .spawn(move || {
            let mut engine = match SyncEngine::new(&upstream, &dir) {
                Ok(engine) => engine,
                Err(e) => {
                    // bind_with_catalog validated the URL; this is an
                    // unusable mirror directory. The daemon keeps
                    // serving whatever it scanned.
                    eprintln!("replica: cannot start sync engine: {e}");
                    return;
                }
            };
            // Record each sync cycle as a span tree in this daemon's
            // store and propagate the trace to the primary.
            if state.spans.enabled() {
                engine.set_span_store(Arc::clone(&state.spans));
            }
            // Export the engine's transfer accounting through
            // `/v1/metrics`; the Arcs stay live with the engine.
            let sync_metrics = engine.metrics().clone();
            let reg = &state.metrics.registry;
            reg.register_counter(
                "paris_sync_attempts_total",
                "Replication sync cycles attempted.",
                &[],
                &sync_metrics.attempts,
            );
            reg.register_counter(
                "paris_sync_failures_total",
                "Replication failures (manifest fetches and per-pair transfers).",
                &[],
                &sync_metrics.failures,
            );
            reg.register_counter(
                "paris_sync_snapshot_bytes_total",
                "Snapshot bytes transferred from the primary.",
                &[],
                &sync_metrics.snapshot_bytes,
            );
            reg.register_counter(
                "paris_sync_manifest_bytes_total",
                "Manifest bytes transferred from the primary (304 polls cost zero).",
                &[],
                &sync_metrics.manifest_bytes,
            );
            reg.register_gauge(
                "paris_sync_pairs_backing_off",
                "Replicated pairs currently inside their retry backoff window.",
                &[],
                &sync_metrics.pairs_backing_off,
            );
            while !shutdown.load(Ordering::SeqCst) {
                match engine.sync_once() {
                    Ok(outcome) => {
                        if !outcome.updated.is_empty() || !outcome.removed.is_empty() {
                            rescan_catalog(&state.catalog, &dir);
                        }
                        for name in &outcome.removed {
                            eprintln!("replica: pair '{name}' removed (gone upstream)");
                        }
                        for name in &outcome.updated {
                            let Some(pair) = state.catalog.pair(name) else {
                                continue;
                            };
                            if pair.current().is_none() {
                                eprintln!("replica: synced new pair '{name}'");
                                continue;
                            }
                            match state.catalog.reload_pair(&pair, None) {
                                Ok(img) => eprintln!(
                                    "replica: synced and reloaded pair '{name}' \
                                     (generation {})",
                                    img.generation
                                ),
                                Err(e) => {
                                    eprintln!("replica: reload of synced pair '{name}' failed: {e}")
                                }
                            }
                        }
                    }
                    Err(e) => eprintln!("replica: sync against {upstream} failed: {e}"),
                }
                if let Some(replica) = &state.replica {
                    *replica.status.lock().expect("replica status poisoned") =
                        Some(engine.status());
                }
                // Sleep in slices so shutdown stays prompt under long
                // poll intervals.
                let mut slept = Duration::ZERO;
                while slept < interval && !shutdown.load(Ordering::SeqCst) {
                    let slice = (interval - slept).min(Duration::from_millis(50));
                    std::thread::sleep(slice);
                    slept += slice;
                }
            }
        })
        .expect("spawning sync thread");
}

/// One `--watch` tick of catalog-directory maintenance: new `*.snap`
/// files become unloaded pairs, vanished files drop their pairs, and the
/// default pair is re-picked if its file went away.
fn rescan_catalog(catalog: &Catalog, dir: &Path) {
    let Ok(found) = scan_catalog_dir(dir) else {
        return; // transient directory error: keep serving what we have
    };
    let names: std::collections::BTreeSet<&str> = found.iter().map(|(n, _)| n.as_str()).collect();
    let mut pairs = catalog.pairs.write().expect("catalog lock poisoned");
    for (name, path) in &found {
        if !pairs.contains_key(name) {
            eprintln!("watch: discovered pair '{name}' ({})", path.display());
            pairs.insert(
                name.clone(),
                Arc::new(PairState::unloaded(name.clone(), path.clone())),
            );
        }
    }
    let removed: Vec<String> = pairs
        .keys()
        .filter(|k| !names.contains(k.as_str()))
        .cloned()
        .collect();
    for name in removed {
        eprintln!("watch: pair '{name}' removed (snapshot file vanished)");
        pairs.remove(&name);
    }
    let mut default_name = catalog.default_name.write().expect("catalog lock poisoned");
    if !pairs.contains_key(&*default_name) {
        *default_name = pick_default(&pairs);
    }
}

/// How long a worker waits for (the next) request on a connection before
/// reclaiming itself. Without this, `threads` idle connections would pin
/// the whole fixed pool forever.
const IDLE_CONNECTION_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

fn serve_connection(state: &ServeState, stream: TcpStream) {
    // Responses are written in one buffered flush; disabling Nagle keeps
    // keep-alive request/response turnarounds from hitting the delayed-ACK
    // stall (~40 ms per exchange on Linux).
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_CONNECTION_TIMEOUT));
    let peer_writable = stream.try_clone();
    let Ok(write_half) = peer_writable else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    loop {
        match http::read_request(&mut reader) {
            Ok(request) => {
                state.requests.inc();
                let keep_alive = !request.wants_close();
                // A `traceparent` header continues the caller's trace
                // (the replica's sync cycle, a traced client); its
                // absence roots a fresh one.
                let span = state.spans.enabled().then(|| {
                    let parent = request
                        .header("traceparent")
                        .and_then(obs::span::SpanContext::parse_traceparent);
                    state
                        .spans
                        .begin(metrics::route_class(&request.path), parent)
                });
                // Time routing + handling only; the observation
                // itself happens after the response is rendered, so
                // a `/v1/metrics` body never counts its own request.
                let t0 = Instant::now();
                let response = route(state, &request);
                let latency_us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                let id = state.metrics.request_id(&request);
                let response = with_request_id(response, &id);
                state.observe(&request, &response, &id, latency_us);
                let is_slow = state
                    .slow_ms
                    .is_some_and(|ms| latency_us >= ms.saturating_mul(1000));
                let trace_hex = if is_slow {
                    span.as_ref().map(|s| s.trace.to_hex())
                } else {
                    None
                };
                if let Some(mut span) = span {
                    span.attr_str("method", &request.method);
                    span.attr_str("path", &request.path);
                    span.attr_int("status", u64::from(response.status));
                    span.attr_int("latency_us", latency_us);
                    state.spans.finish(span);
                }
                if is_slow {
                    state.log_slow(
                        &id,
                        &request.method,
                        &request.path,
                        metrics::pair_of(&request.path),
                        latency_us,
                        trace_hex.as_deref(),
                    );
                }
                // `Server-Timing` lets browsers and HTTP tooling
                // surface the handler latency without parsing our
                // envelope; scoped to the canonical namespace.
                let response = if request.path.starts_with("/v1") {
                    response.with_header(
                        "Server-Timing",
                        format!("app;dur={:.3}", latency_us as f64 / 1000.0),
                    )
                } else {
                    response
                };
                let response = response.with_header("X-Request-Id", id);
                if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Err(ParseError::ConnectionClosed) => return,
            Err(ParseError::Io(_)) => return,
            Err(ParseError::Malformed(msg)) => {
                let _ = error(400, &msg).write_to(&mut writer, false);
                return;
            }
        }
    }
}

// ----------------------------------------------------------------------
// Routing
// ----------------------------------------------------------------------

/// Cap on a `neighbors` page (`limit` is clamped to this) — huge
/// entities cannot blow up a response.
pub const NEIGHBORS_MAX_LIMIT: usize = 1000;
/// Default `neighbors` page size.
const NEIGHBORS_DEFAULT_LIMIT: usize = 50;
/// Cap on the lookups of one `POST /v1/pairs/<name>/query` batch.
pub const MAX_BATCH_QUERIES: usize = 256;
/// Cap on the statement pairs one `explain` may examine
/// (`facts(left) × facts(right)`) — two hub entities cannot pin a
/// worker thread or render an unbounded evidence array.
pub const EXPLAIN_MAX_STATEMENT_PAIRS: usize = 1 << 22;
/// The deprecation warning every pre-`/v1` route carries.
const DEPRECATION_WARNING: &str =
    "299 - \"deprecated API: use the versioned /v1 routes (see docs/HTTP_API.md)\"";

/// Routes on the *path first*: a known path with the wrong method gets a
/// `405` with an `Allow` header, an unknown path gets a JSON `404`
/// whatever the method.
///
/// The canonical namespace is `/v1/…` ([`route_v1`]); every pre-v1
/// route is a thin alias that delegates to the same handlers (identical
/// envelope, identical bodies) plus one deprecation `Warning` header.
fn route(state: &ServeState, req: &Request) -> Response {
    match req.path.strip_prefix("/v1") {
        Some(rest) if rest.is_empty() || rest.starts_with('/') => {
            let rest = if rest.is_empty() { "/" } else { rest };
            route_v1(state, req, rest)
        }
        _ => route_legacy(state, req).with_header("Warning", DEPRECATION_WARNING),
    }
}

/// The canonical `/v1` router, over the path with the prefix stripped.
fn route_v1(state: &ServeState, req: &Request, path: &str) -> Response {
    if let Some(rest) = path.strip_prefix("/pairs/") {
        // `manifest` is a reserved name (valid_pair_name refuses it for
        // pairs), so this route never shadows a catalog entry.
        if rest == "manifest" {
            return allow(req, "GET", |r| cacheable(r, manifest(state)));
        }
        if let Some((name, op)) = rest.split_once('/') {
            return route_pair_op(state, req, name, op);
        }
        return error(
            404,
            &format!(
                "no such route {} (did you mean /v1/pairs/{rest}/stats?)",
                req.path
            ),
        );
    }
    match path {
        "/pairs" => allow(req, "GET", |r| list_pairs(state, r)),
        "/healthz" => allow(req, "GET", |r| healthz(state, r)),
        "/metrics" => allow(req, "GET", |r| serve_metrics(state, r)),
        "/align" => allow(req, "POST", |r| submit_align(state, r)),
        p if p.starts_with("/jobs/") => {
            let id = p["/jobs/".len()..].to_owned();
            allow(req, "GET", move |_| job_status(state, &id))
        }
        "/debug/traces" => allow(req, "GET", |_| debug_traces(state)),
        p if p.starts_with("/debug/traces/") => {
            let id = p["/debug/traces/".len()..].to_owned();
            allow(req, "GET", move |_| debug_trace(state, &id))
        }
        "/debug/profile" => allow(req, "GET", |r| debug_profile(state, r)),
        "/debug/runs" => allow(req, "GET", |_| debug_runs(state)),
        _ => error(404, &format!("no such route {}", req.path)),
    }
}

/// The pre-v1 alias layer: the bare default-pair conveniences plus every
/// path shape that predates the `/v1` prefix, all delegating to the v1
/// handlers. [`route`] adds the deprecation warning on the way out.
fn route_legacy(state: &ServeState, req: &Request) -> Response {
    match req.path.as_str() {
        "/stats" => allow(req, "GET", |r| {
            cacheable(r, with_default_pair(state, r, pair_stats))
        }),
        "/sameas" => allow(req, "GET", |r| {
            cacheable(r, with_default_pair(state, r, sameas))
        }),
        "/neighbors" => allow(req, "GET", |r| {
            cacheable(r, with_default_pair(state, r, neighbors))
        }),
        // The legacy reload keeps its single-pair `path=` override
        // (gated by the jobs trust switch); the v1 routes do not take
        // client-named paths at all.
        "/reload" => allow(req, "POST", |r| reload_default(state, r)),
        path => route_v1(state, req, path),
    }
}

fn route_pair_op(state: &ServeState, req: &Request, name: &str, op: &str) -> Response {
    let method = match op {
        "sameas" | "neighbors" | "explain" | "stats" | "diagnostics" | "healthz" | "snapshot" => {
            "GET"
        }
        "reload" | "query" => "POST",
        _ => {
            return error(
                404,
                &format!(
                    "no such pair operation '{op}' \
                     (sameas, neighbors, explain, query, stats, diagnostics, healthz, \
                     snapshot, reload)"
                ),
            )
        }
    };
    allow(req, method, |r| {
        let Some(pair) = state.catalog.pair(name) else {
            return error(404, &format!("no such pair '{name}'"));
        };
        match op {
            "sameas" => cacheable(r, sameas(state, r, &pair)),
            "neighbors" => cacheable(r, neighbors(state, r, &pair)),
            "explain" => cacheable(r, explain(state, r, &pair)),
            "query" => batch_query(state, r, &pair),
            "stats" => cacheable(r, pair_stats(state, r, &pair)),
            "diagnostics" => cacheable(r, diagnostics(state, r, &pair)),
            "healthz" => pair_healthz(&pair),
            "snapshot" => pair_snapshot(r, &pair),
            "reload" => reload(state, r, &pair, false),
            _ => unreachable!("filtered above"),
        }
    })
}

/// Finishes a cacheable `GET`: a `200` grows a body-checksum `ETag`,
/// and an `If-None-Match` hit collapses it to a body-less `304`. The
/// checksum is over the rendered body, so any change a client could
/// observe — new generation, new alignment, different query answer —
/// changes the validator.
fn cacheable(req: &Request, response: Response) -> Response {
    if response.status != 200 || response.stream.is_some() {
        return response;
    }
    let etag = format!("\"{:016x}\"", checksum_v2(&response.body));
    if req.if_none_match_matches(&etag) {
        Response::not_modified(etag)
    } else {
        response.with_etag(etag)
    }
}

/// Runs `f` when the method matches, else a `405` with `Allow`.
fn allow(req: &Request, method: &'static str, f: impl FnOnce(&Request) -> Response) -> Response {
    if req.method == method {
        f(req)
    } else {
        error(
            405,
            &format!("method {} not allowed for {}", req.method, req.path),
        )
        .with_allow(method)
    }
}

fn with_default_pair(
    state: &ServeState,
    req: &Request,
    f: impl FnOnce(&ServeState, &Request, &Arc<PairState>) -> Response,
) -> Response {
    let Some(pair) = state.catalog.default_pair() else {
        return error(500, "the catalog has no default pair");
    };
    f(state, req, &pair)
}

// ----------------------------------------------------------------------
// The uniform response envelope
// ----------------------------------------------------------------------

/// Wraps rendered data in the success envelope: `{"data":…}`.
fn ok(data: String) -> Response {
    ok_status(200, data)
}

/// [`ok`] with a non-200 success status (`202` for accepted jobs).
fn ok_status(status: u16, data: String) -> Response {
    Response::json(status, format!("{{\"data\":{data}}}"))
}

/// The envelope's machine-readable code of an error status.
fn error_code(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        403 => "forbidden",
        404 => "not_found",
        405 => "method_not_allowed",
        500 => "internal",
        _ => "error",
    }
}

/// A rendered `{"code":…,"message":…}` object — the `error` member of
/// the envelope, and the in-place error shape of one failed batch query.
fn error_object(status: u16, message: &str) -> String {
    json::Object::new()
        .str("code", error_code(status))
        .str("message", message)
        .build()
}

/// A structured JSON error in the uniform envelope:
/// `{"error":{"code":…,"message":…}}` — served identically on `/v1` and
/// legacy routes.
fn error(status: u16, message: &str) -> Response {
    Response::json(
        status,
        format!("{{\"error\":{}}}", error_object(status, message)),
    )
}

/// Echoes the request id *inside* a JSON error envelope —
/// `{"error":{…,"request_id":"…"}}` — so a client that only captured the
/// body can still quote the id from the `X-Request-Id` header. The
/// splice fires only on the exact envelope shape [`error`] renders;
/// success bodies, streams, and in-place batch-query error members
/// (inside a 200) are untouched.
fn with_request_id(mut response: Response, id: &str) -> Response {
    if response.status < 400 || response.stream.is_some() {
        return response;
    }
    if response.body.starts_with(b"{\"error\":{") && response.body.ends_with(b"}}") {
        response.body.truncate(response.body.len() - 2);
        response
            .body
            .extend_from_slice(format!(",\"request_id\":{}}}}}", json::string(id)).as_bytes());
    }
    response
}

/// Resolves a pair's image or renders the load failure as a 500.
#[allow(clippy::result_large_err)] // the Err *is* the response
fn image_or_error(state: &ServeState, pair: &Arc<PairState>) -> Result<Arc<LoadedImage>, Response> {
    state.catalog.image_of(pair).map_err(|e| error(500, &e))
}

fn healthz(state: &ServeState, _req: &Request) -> Response {
    let (pairs, loaded) = {
        let pairs = state.catalog.pairs.read().expect("catalog lock poisoned");
        let loaded = pairs.values().filter(|p| p.current().is_some()).count();
        (pairs.len(), loaded)
    };
    let default_generation = state
        .catalog
        .default_pair()
        .map(|p| p.generation.load(Ordering::SeqCst))
        .unwrap_or(0);
    let mut obj = json::Object::new()
        .str("status", "ok")
        .str("version", VERSION)
        .str(
            "role",
            if state.replica.is_some() {
                "replica"
            } else {
                "primary"
            },
        )
        .str("snapshot_formats", SNAPSHOT_FORMAT)
        .str(
            "delta_formats",
            &format!("v{}", snapshot::DELTA_FORMAT_VERSION),
        )
        .num("uptime_seconds", state.started.elapsed().as_secs_f64())
        .int("requests", state.requests.get())
        .int("generation", default_generation)
        .int("pairs", pairs as u64)
        .int("pairs_loaded", loaded as u64);
    if let Some(replica) = &state.replica {
        obj = obj.raw("replication", replication_json(replica));
    }
    ok(obj.build())
}

/// `GET /v1/metrics`: the whole instrument set — request counts and
/// latency histograms per route class, status classes, per-pair request
/// counts, ETag-cache and catalog-load outcomes, replication transfer
/// totals, and the sampled gauges (pair generations, replication lag),
/// refreshed at scrape time. Prometheus text
/// exposition by default; `?format=json` renders the same registry as
/// one JSON document inside the uniform envelope.
fn serve_metrics(state: &ServeState, req: &Request) -> Response {
    state.refresh_gauges();
    match req.query_param("format") {
        Some("json") => ok(state.metrics.registry.render_json()),
        None | Some("prometheus") | Some("text") => {
            let mut response = Response::json(200, state.metrics.registry.render_prometheus());
            response.content_type = "text/plain; version=0.0.4";
            response
        }
        Some(other) => error(
            400,
            &format!("unknown metrics format '{other}' (prometheus, json)"),
        ),
    }
}

/// The `"replication"` object of a replica's `/healthz`: upstream,
/// last-sync times, and per-pair generation lag against the primary.
fn replication_json(replica: &ReplicaState) -> String {
    let status = replica
        .status
        .lock()
        .expect("replica status poisoned")
        .clone();
    let mut obj = json::Object::new().str("upstream", &replica.upstream);
    let Some(status) = status else {
        // The sync thread has not completed a cycle yet.
        return obj.bool("synced", false).build();
    };
    let now = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    obj = obj
        .bool("synced", status.last_success_unix.is_some())
        .int("syncs", status.syncs);
    if let Some(t) = status.last_attempt_unix {
        obj = obj.int("last_attempt_unix", t);
    }
    if let Some(t) = status.last_success_unix {
        obj = obj
            .int("last_sync_unix", t)
            .int("last_sync_seconds_ago", now.saturating_sub(t));
    }
    if let Some(e) = &status.last_error {
        obj = obj.str("last_error", e);
    }
    let pairs = status.pairs.iter().map(|p| {
        let mut entry = json::Object::new()
            .str("name", &p.name)
            .int("remote_generation", p.remote_generation)
            .int("synced_generation", p.synced_generation)
            .int("lag", p.lag)
            .int("failures", p.failures)
            .bool("backing_off", p.backing_off);
        if let Some(e) = &p.last_error {
            entry = entry.str("last_error", e);
        }
        entry.build()
    });
    obj.raw("pairs", json::array(pairs)).build()
}

/// `GET /pairs/manifest`: the replication manifest — every file-backed
/// pair's name, snapshot format version, generation, byte length, and
/// content checksum. A pair whose file cannot be read right now is
/// listed *without* a checksum (replicas keep their current copy) —
/// only a pair absent from the manifest propagates as a deletion.
fn manifest(state: &ServeState) -> Response {
    let default_name = state
        .catalog
        .default_name
        .read()
        .expect("catalog lock poisoned")
        .clone();
    let pairs: Vec<Arc<PairState>> = state
        .catalog
        .pairs
        .read()
        .expect("catalog lock poisoned")
        .values()
        .cloned()
        .collect();
    let rendered = pairs.iter().filter(|p| p.path.is_some()).map(|pair| {
        let obj = json::Object::new()
            .str("name", &pair.name)
            .int("generation", pair.generation.load(Ordering::SeqCst));
        match pair.open_content() {
            Ok((_, info)) => obj
                .int("format", info.version as u64)
                .int("bytes", info.bytes)
                .str("checksum", &format!("{:016x}", info.checksum)),
            Err(e) => obj.int("format", 0).int("bytes", 0).str("error", &e),
        }
        .build()
    });
    ok(json::Object::new()
        .str("server_version", VERSION)
        .str("default", &default_name)
        .raw("pairs", json::array(rendered))
        .build())
}

/// `GET /pairs/<name>/snapshot`: streams the pair's raw snapshot file
/// with its content checksum as a strong `ETag` — `If-None-Match` turns
/// an unchanged pair into a body-less `304`, which is what lets replica
/// polls cost zero snapshot bytes. The bytes, length, and checksum all
/// come from one open handle, so an atomic snapshot replacement
/// mid-request still yields a self-consistent (old) transfer.
fn pair_snapshot(req: &Request, pair: &Arc<PairState>) -> Response {
    match pair.open_content() {
        Ok((file, info)) => {
            let etag = format!("\"{:016x}\"", info.checksum);
            if req.if_none_match_matches(&etag) {
                return Response::not_modified(etag);
            }
            Response::file_stream(file, info.bytes).with_etag(etag)
        }
        Err(e) => error(404, &e),
    }
}

fn pair_healthz(pair: &Arc<PairState>) -> Response {
    let image = pair.current();
    let mut obj = json::Object::new()
        .str("status", "ok")
        .str("pair", &pair.name)
        .bool("loaded", image.is_some())
        .int("generation", pair.generation.load(Ordering::SeqCst))
        .int("reloads", pair.reloads.load(Ordering::Relaxed));
    if let Some(img) = image {
        obj = obj
            .str("format", SNAPSHOT_FORMAT)
            .bool("mapped", img.image.is_mapped());
    }
    ok(obj.build())
}

fn kb_stats_json(s: &KbStats) -> String {
    json::Object::new()
        .str("name", &s.name)
        .int("instances", s.instances as u64)
        .int("classes", s.classes as u64)
        .int("relations", s.relations as u64)
        .int("facts", s.facts as u64)
        .int("literals", s.literals as u64)
        .build()
}

fn pair_stats(state: &ServeState, _req: &Request, pair: &Arc<PairState>) -> Response {
    let image = match image_or_error(state, pair) {
        Ok(i) => i,
        Err(e) => return e,
    };
    ok(json::Object::new()
        .str("pair", &pair.name)
        .raw("kb1", image.kb1_stats_json.clone())
        .raw("kb2", image.kb2_stats_json.clone())
        .int("aligned_instances", image.aligned_instances as u64)
        .int(
            "instance_equivalences",
            image.image.num_instance_pairs() as u64,
        )
        .int("literal_pairs", image.image.literal_pairs() as u64)
        .int("iterations", image.image.iterations_len() as u64)
        .bool("converged", image.image.converged())
        .str("format", SNAPSHOT_FORMAT)
        .bool("mapped", image.image.is_mapped())
        .int("generation", image.generation)
        .int("reloads", pair.reloads.load(Ordering::Relaxed))
        .int("jobs_submitted", state.jobs.submitted())
        .build())
}

fn list_pairs(state: &ServeState, _req: &Request) -> Response {
    let default_name = state
        .catalog
        .default_name
        .read()
        .expect("catalog lock poisoned")
        .clone();
    let pairs: Vec<Arc<PairState>> = state
        .catalog
        .pairs
        .read()
        .expect("catalog lock poisoned")
        .values()
        .cloned()
        .collect();
    let rendered = pairs.iter().map(|pair| {
        let image = pair.current();
        let mut obj = json::Object::new()
            .str("name", &pair.name)
            .bool("loaded", image.is_some())
            .int("generation", pair.generation.load(Ordering::SeqCst))
            .int("reloads", pair.reloads.load(Ordering::Relaxed));
        if let Some(img) = &image {
            obj = obj
                .str("format", SNAPSHOT_FORMAT)
                .bool("mapped", img.image.is_mapped())
                .int("aligned_instances", img.aligned_instances as u64);
        }
        obj.build()
    });
    ok(json::Object::new()
        .str("default", &default_name)
        .raw("pairs", json::array(rendered))
        .build())
}

/// `POST /reload` (bare legacy route): reload the default pair. With no
/// `path=` field the pair's own snapshot file is re-read; an explicit
/// `path=` names a server-local file and is therefore gated by the same
/// trust switch as jobs (`--no-jobs` ⇒ 403) and rejected outright in
/// catalog mode (the directory is the trust boundary).
fn reload_default(state: &ServeState, req: &Request) -> Response {
    with_default_pair(state, req, |state, req, pair| {
        reload(state, req, pair, true)
    })
}

fn reload(
    state: &ServeState,
    req: &Request,
    pair: &Arc<PairState>,
    allow_path_field: bool,
) -> Response {
    let body = match std::str::from_utf8(&req.body) {
        Ok(b) => b,
        Err(_) => return error(400, "body must be UTF-8 form data"),
    };
    let params = http::parse_query(body.trim());
    let explicit = params
        .iter()
        .find(|(k, _)| k == "path")
        .map(|(_, v)| v.clone())
        .filter(|v| !v.is_empty());

    let override_path = match explicit {
        Some(p) => {
            if !allow_path_field || state.catalog.dir.is_some() {
                return error(
                    400,
                    "client-named reload paths are not served in catalog mode; \
                     each pair reloads from its own catalog file",
                );
            }
            if !state.jobs_enabled {
                return error(
                    403,
                    "client-named reload paths are disabled on this server (--no-jobs); \
                     POST /reload with no path re-checks the configured snapshot",
                );
            }
            Some(PathBuf::from(p))
        }
        None => {
            if pair.path.is_none() {
                return error(
                    400,
                    "this server was not started from a snapshot file; \
                     POST /reload needs a 'path' form field",
                );
            }
            None
        }
    };

    let t0 = Instant::now();
    // A failed load never disturbs the image currently serving.
    match state.catalog.reload_pair(pair, override_path.as_deref()) {
        Ok(image) => ok(json::Object::new()
            .str("pair", &pair.name)
            .int("generation", image.generation)
            .int("aligned_instances", image.aligned_instances as u64)
            .num("load_seconds", t0.elapsed().as_secs_f64())
            .build()),
        // A client-named path that fails is the client's error (400);
        // the pair's own file failing is the server's (500).
        Err(e) => error(if override_path.is_some() { 400 } else { 500 }, &e),
    }
}

#[allow(clippy::result_large_err)] // the Err *is* the response
fn parse_side(req: &Request) -> Result<PairSide, Response> {
    match req.query_param("side") {
        None | Some("left") => Ok(PairSide::Kb1),
        Some("right") => Ok(PairSide::Kb2),
        Some(other) => Err(error(
            400,
            &format!("side must be left or right, not '{other}'"),
        )),
    }
}

#[allow(clippy::result_large_err)] // the Err *is* the response
fn require_iri(req: &Request) -> Result<&str, Response> {
    req.query_param("iri")
        .filter(|s| !s.is_empty())
        .ok_or_else(|| error(400, "missing required query parameter 'iri'"))
}

/// Renders the `sameas` data object of one lookup — shared by the GET
/// route and the batch endpoint — or `(status, message)` on failure.
fn sameas_data(
    img: &PairImage,
    pair_name: &str,
    iri: &str,
    side: PairSide,
    threshold: f64,
) -> Result<String, (u16, String)> {
    let Some(x) = img.entity_by_iri(side, iri) else {
        return Err((404, format!("unknown IRI {iri} in {}", img.kb_name(side))));
    };
    let dst = match side {
        PairSide::Kb1 => PairSide::Kb2,
        PairSide::Kb2 => PairSide::Kb1,
    };
    let obj = json::Object::new().str("pair", pair_name).str("iri", iri);
    Ok(
        match img
            .best_match_from(side, x)
            .filter(|&(_, p)| p >= threshold)
        {
            Some((e, p)) => {
                let matched = img.entity_iri(dst, e).unwrap_or_default();
                obj.str("sameas", &matched).num("score", p).build()
            }
            None => obj.raw("sameas", "null").num("score", 0.0).build(),
        },
    )
}

/// Renders one `neighbors` page — shared by the GET route and the batch
/// endpoint. `limit` is clamped to [`NEIGHBORS_MAX_LIMIT`]; `offset`
/// pages through entities with more facts than one response should
/// carry.
fn neighbors_data(
    img: &PairImage,
    pair_name: &str,
    iri: &str,
    side: PairSide,
    offset: usize,
    limit: usize,
) -> Result<String, (u16, String)> {
    let limit = limit.min(NEIGHBORS_MAX_LIMIT);
    let Some(e) = img.entity_by_iri(side, iri) else {
        return Err((404, format!("unknown IRI {iri} in {}", img.kb_name(side))));
    };
    let total = img.facts_len(side, e);
    let rendered = img.facts_page(side, e, offset, limit).into_iter().map(|f| {
        json::Object::new()
            .str("relation", &f.relation)
            .bool("inverse", f.inverse)
            .str("value", &f.value)
            .num("functionality", f.functionality)
            .build()
    });
    Ok(json::Object::new()
        .str("pair", pair_name)
        .str("iri", iri)
        .int("total_facts", total as u64)
        .int("offset", offset as u64)
        .int("limit", limit as u64)
        .raw("facts", json::array(rendered))
        .build())
}

fn data_or_error(result: Result<String, (u16, String)>) -> Response {
    match result {
        Ok(data) => ok(data),
        Err((status, message)) => error(status, &message),
    }
}

fn sameas(state: &ServeState, req: &Request, pair: &Arc<PairState>) -> Response {
    let iri = match require_iri(req) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let side = match parse_side(req) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let threshold: f64 = match req.query_param("threshold").map(str::parse).transpose() {
        Ok(t) => t.unwrap_or(0.0),
        Err(_) => return error(400, "threshold must be a number"),
    };
    let image = match image_or_error(state, pair) {
        Ok(i) => i,
        Err(e) => return e,
    };
    data_or_error(sameas_data(&image.image, &pair.name, iri, side, threshold))
}

fn neighbors(state: &ServeState, req: &Request, pair: &Arc<PairState>) -> Response {
    let iri = match require_iri(req) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let side = match parse_side(req) {
        Ok(s) => s,
        Err(e) => return e,
    };
    let limit: usize = match req.query_param("limit").map(str::parse).transpose() {
        Ok(l) => l.unwrap_or(NEIGHBORS_DEFAULT_LIMIT),
        Err(_) => return error(400, "limit must be an integer"),
    };
    let offset: usize = match req.query_param("offset").map(str::parse).transpose() {
        Ok(o) => o.unwrap_or(0),
        Err(_) => return error(400, "offset must be an integer"),
    };
    let image = match image_or_error(state, pair) {
        Ok(i) => i,
        Err(e) => return e,
    };
    data_or_error(neighbors_data(
        &image.image,
        &pair.name,
        iri,
        side,
        offset,
        limit,
    ))
}

/// `GET /v1/pairs/<name>/explain?left=…&right=…`: *why* does the stored
/// model believe (or not believe) `left ≡ right`? Answers with the
/// Eq. 13 evidence read from the serving image, plus the assignment
/// decision exactly as `sameas` would serve it. The `score` is
/// `1 − ∏ factorᵢ` over the listed evidence, multiplied in listed
/// order, so a client re-folding the served factors reproduces it bit
/// for bit.
fn explain(state: &ServeState, req: &Request, pair: &Arc<PairState>) -> Response {
    let param = |name: &str| req.query_param(name).filter(|s| !s.is_empty());
    let (Some(left), Some(right)) = (param("left"), param("right")) else {
        return error(
            400,
            "explain needs 'left' (a KB-1 IRI) and 'right' (a KB-2 IRI)",
        );
    };
    let image = match image_or_error(state, pair) {
        Ok(i) => i,
        Err(e) => return e,
    };
    let img = &image.image;
    let Some(x) = img.entity_by_iri(PairSide::Kb1, left) else {
        return error(
            404,
            &format!("unknown IRI {left} in {}", img.kb_name(PairSide::Kb1)),
        );
    };
    let Some(x2) = img.entity_by_iri(PairSide::Kb2, right) else {
        return error(
            404,
            &format!("unknown IRI {right} in {}", img.kb_name(PairSide::Kb2)),
        );
    };
    for (iri, side, e) in [(left, PairSide::Kb1, x), (right, PairSide::Kb2, x2)] {
        if img.entity_kind(side, e) != EntityKind::Instance {
            return error(
                400,
                &format!("{iri} is not an instance (Eq. 13 explains instance pairs)"),
            );
        }
    }
    // Bound the Eq. 13 enumeration before starting it — two hub
    // entities must not pin a worker thread for minutes.
    let pairs = img.facts_len(PairSide::Kb1, x) * img.facts_len(PairSide::Kb2, x2);
    if pairs > EXPLAIN_MAX_STATEMENT_PAIRS {
        return error(
            400,
            &format!(
                "explaining this pair would examine {pairs} statement pairs \
                 (cap {EXPLAIN_MAX_STATEMENT_PAIRS}); these entities are too \
                 connected to explain synchronously"
            ),
        );
    }
    let ex = explain_stored(img, x, x2);
    let assigned = img
        .best_match_from(PairSide::Kb1, x)
        .is_some_and(|(e, _)| e == x2);
    // The assignment member is rendered by the same function as the
    // sameas route, so the two answers are bit-identical by construction.
    let assignment = sameas_data(img, &pair.name, left, PairSide::Kb1, 0.0)
        .expect("entity existence was checked above");
    let evidence = ex.evidence.iter().map(|ev| {
        json::Object::new()
            .str("relation_left", &ev.relation_1)
            .bool("inverse_left", ev.inverse_1)
            .str("relation_right", &ev.relation_2)
            .bool("inverse_right", ev.inverse_2)
            .str("neighbor_left", &ev.neighbor_1)
            .str("neighbor_right", &ev.neighbor_2)
            .num("neighbor_prob", ev.neighbor_prob)
            .num("inv_functionality_left", ev.inv_functionality_1)
            .num("inv_functionality_right", ev.inv_functionality_2)
            .num("subrel_right_in_left", ev.subrel_2in1)
            .num("subrel_left_in_right", ev.subrel_1in2)
            .num("factor", ev.factor)
            .num("contribution", ev.solo_score())
            .build()
    });
    ok(json::Object::new()
        .str("pair", &pair.name)
        .str("left", left)
        .str("right", right)
        .num("score", ex.score)
        .num("stored_score", ex.stored_prob)
        .bool("assigned", assigned)
        .raw("assignment", assignment)
        .int("evidence_count", ex.evidence.len() as u64)
        .raw("evidence", json::array(evidence))
        .build())
}

/// `POST /v1/pairs/<name>/query`: up to [`MAX_BATCH_QUERIES`] mixed
/// `sameas` / `neighbors` lookups in one round-trip, all answered from a
/// **single** `Arc` acquisition of the pair's image — no per-lookup
/// routing, locking, or HTTP overhead. Per-query failures come back in
/// place (`{"error":{code,message}}`), so one bad IRI does not fail its
/// siblings; the batch itself only errors on a malformed body.
fn batch_query(state: &ServeState, req: &Request, pair: &Arc<PairState>) -> Response {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return error(400, "body must be UTF-8 JSON");
    };
    let doc = match json::parse(body) {
        Ok(d) => d,
        Err(e) => return error(400, &format!("body is not valid JSON: {e}")),
    };
    let Some(queries) = doc.get("queries").and_then(json::Json::as_array) else {
        return error(400, "body must be {\"queries\":[{\"op\":…},…]}");
    };
    if queries.len() > MAX_BATCH_QUERIES {
        return error(
            400,
            &format!(
                "batch of {} lookups exceeds the cap of {MAX_BATCH_QUERIES}",
                queries.len()
            ),
        );
    }
    let image = match image_or_error(state, pair) {
        Ok(i) => i,
        Err(e) => return e,
    };
    let results = queries
        .iter()
        .map(|q| match batch_one(&image.image, &pair.name, q) {
            Ok(data) => data,
            Err((status, message)) => format!("{{\"error\":{}}}", error_object(status, &message)),
        });
    ok(json::Object::new()
        .str("pair", &pair.name)
        .int("generation", image.generation)
        .int("count", queries.len() as u64)
        .raw("results", json::array(results))
        .build())
}

/// One lookup of a batch body:
/// `{"op":"sameas"|"neighbors","iri":…[,"side"][,"threshold"][,"limit"][,"offset"]}`.
fn batch_one(img: &PairImage, pair_name: &str, q: &json::Json) -> Result<String, (u16, String)> {
    use json::Json;
    let str_field = |key: &str| q.get(key).and_then(Json::as_str);
    let iri = str_field("iri")
        .filter(|s| !s.is_empty())
        .ok_or_else(|| (400, "query needs an 'iri'".to_owned()))?;
    let side = match str_field("side") {
        None | Some("left") => PairSide::Kb1,
        Some("right") => PairSide::Kb2,
        Some(other) => return Err((400, format!("side must be left or right, not '{other}'"))),
    };
    match str_field("op") {
        Some("sameas") => {
            let threshold = match q.get("threshold") {
                None => 0.0,
                Some(t) => t
                    .as_f64()
                    .ok_or_else(|| (400, "threshold must be a number".to_owned()))?,
            };
            sameas_data(img, pair_name, iri, side, threshold)
        }
        Some("neighbors") => {
            let int_field = |key: &str, default: usize| match q.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_u64()
                    .map(|n| n as usize)
                    .ok_or_else(|| (400, format!("{key} must be a non-negative integer"))),
            };
            let limit = int_field("limit", NEIGHBORS_DEFAULT_LIMIT)?;
            let offset = int_field("offset", 0)?;
            neighbors_data(img, pair_name, iri, side, offset, limit)
        }
        Some(other) => Err((400, format!("unknown op '{other}' (sameas, neighbors)"))),
        None => Err((400, "query needs an 'op' (sameas or neighbors)".to_owned())),
    }
}

fn submit_align(state: &ServeState, req: &Request) -> Response {
    if !state.jobs_enabled {
        return error(
            403,
            "alignment jobs are disabled on this server (--no-jobs)",
        );
    }
    let body = match std::str::from_utf8(&req.body) {
        Ok(b) => b,
        Err(_) => return error(400, "body must be UTF-8 form data"),
    };
    let params = http::parse_query(body.trim());
    let get = |name: &str| {
        params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
            .filter(|v| !v.is_empty())
    };
    let (Some(left), Some(right)) = (get("left"), get("right")) else {
        return error(
            400,
            "POST /align needs 'left' and 'right' snapshot paths (form-encoded)",
        );
    };
    let max_iterations = match get("max_iterations")
        .map(|v| v.parse::<usize>())
        .transpose()
    {
        Ok(v) => v,
        Err(_) => return error(400, "max_iterations must be an integer"),
    };
    let id = state.jobs.submit(JobRequest {
        left,
        right,
        out: get("out"),
        max_iterations,
    });
    ok_status(
        202,
        json::Object::new()
            .int("job", id)
            .str("poll", &format!("/v1/jobs/{id}"))
            .build(),
    )
}

fn job_status(state: &ServeState, id: &str) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return error(400, "job id must be an integer");
    };
    let Some(job) = state.jobs.get(id) else {
        return error(404, &format!("no job {id}"));
    };
    let mut obj = json::Object::new()
        .int("job", id)
        .str("status", job.label());
    if let Some(trace) = state.jobs.trace_of(id) {
        obj = obj.str("trace", &trace.to_hex());
    }
    match job {
        JobState::Done(outcome) => {
            obj = obj
                .int("aligned_instances", outcome.aligned_instances as u64)
                .int("iterations", outcome.iterations as u64)
                .bool("converged", outcome.converged)
                .num("seconds", outcome.seconds);
            if let Some(out) = &outcome.out_path {
                obj = obj.str("out", out);
            }
        }
        JobState::Failed(message) => obj = obj.str("error", &message),
        JobState::Running => {
            // Live fixpoint progress, straight from the job's span
            // collector: completed iterations and the most recently
            // finished pass (with its entity counts and dirty-set size).
            if let Some(spans) = state.jobs.live_spans(id) {
                let iterations = spans
                    .iter()
                    .filter(|s| s.name == "iteration" && s.end_ns > 0)
                    .count() as u64;
                let mut progress = json::Object::new()
                    .int("iterations_completed", iterations)
                    .int("spans", spans.len() as u64);
                if let Some(last) = spans.iter().rev().find(|s| s.end_ns > 0) {
                    progress = progress.raw("last_span", span_json(last));
                }
                obj = obj.raw("progress", progress.build());
            }
            // The numeric convergence series alongside the spans: one
            // point per completed iteration — churn, pair turnover, and
            // the sharpening score distribution.
            if let Some(series) = state.jobs.live_series(id) {
                let points = series.snapshot();
                obj = obj.raw(
                    "series",
                    json::Object::new()
                        .int("points", points.len() as u64)
                        .int("truncated", series.truncated())
                        .raw(
                            "iterations",
                            json::array(points.iter().map(iteration_point_json)),
                        )
                        .build(),
                );
            }
        }
        JobState::Queued => {}
    }
    ok(obj.build())
}

// ----------------------------------------------------------------------
// Trace debug routes
// ----------------------------------------------------------------------

/// Cap on the `recent` window of one `GET /v1/debug/traces` response.
const DEBUG_RECENT_SPANS: usize = 100;

/// Depth cap of the rendered span tree — bounds recursion no matter what
/// parent links a trace carries.
const SPAN_TREE_MAX_DEPTH: usize = 64;

/// One span as a flat JSON object (ids in hex, duration pre-computed).
fn span_json(span: &obs::span::Span) -> String {
    let mut obj = json::Object::new()
        .str("trace", &span.trace.to_hex())
        .str("span", &span.id.to_hex());
    if let Some(parent) = span.parent {
        obj = obj.str("parent", &parent.to_hex());
    }
    obj = obj
        .str("name", span.name)
        .int("start_ns", span.start_ns)
        .int("duration_ns", span.duration_ns());
    let mut attrs = json::Object::new();
    for (key, value) in &span.attrs {
        attrs = match value {
            obs::span::AttrValue::Int(v) => attrs.int(key, *v),
            obs::span::AttrValue::Float(v) => attrs.num(key, *v),
            obs::span::AttrValue::Str(v) => attrs.str(key, v),
        };
    }
    obj.raw("attrs", attrs.build()).build()
}

/// Renders one trace's spans (start-ordered) as a forest: spans whose
/// parent is absent from the set — locally parent-less, or continued
/// from a remote caller's `traceparent` — are roots; the rest nest under
/// their parent recursively.
fn span_tree_json(spans: &[obs::span::Span]) -> String {
    use std::collections::{HashMap, HashSet};
    let present: HashSet<u64> = spans.iter().map(|s| s.id.0).collect();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut roots = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        match span.parent {
            Some(p) if present.contains(&p.0) && p != span.id => {
                children.entry(p.0).or_default().push(i)
            }
            _ => roots.push(i),
        }
    }
    fn node(
        spans: &[obs::span::Span],
        children: &HashMap<u64, Vec<usize>>,
        i: usize,
        depth: usize,
    ) -> String {
        let span = &spans[i];
        let kids: &[usize] = children.get(&span.id.0).map(Vec::as_slice).unwrap_or(&[]);
        let rendered = if depth >= SPAN_TREE_MAX_DEPTH {
            json::array(std::iter::empty())
        } else {
            json::array(kids.iter().map(|&j| node(spans, children, j, depth + 1)))
        };
        // Splice the children array into the flat span object.
        let mut obj = span_json(span);
        obj.truncate(obj.len() - 1);
        obj.push_str(",\"children\":");
        obj.push_str(&rendered);
        obj.push('}');
        obj
    }
    json::array(roots.iter().map(|&i| node(spans, &children, i, 0)))
}

/// `GET /v1/debug/traces`: the recent span window (newest first) plus
/// the tail-sampled slowest traces.
fn debug_traces(state: &ServeState) -> Response {
    let spans = &state.spans;
    if !spans.enabled() {
        return error(404, "tracing is disabled (--trace-buffer 0)");
    }
    let slowest = json::array(spans.slowest().iter().map(|s| {
        json::Object::new()
            .str("trace", &s.trace.to_hex())
            .str("root", s.root_name)
            .int("duration_ns", s.root_duration_ns)
            .int("spans", s.spans as u64)
            .build()
    }));
    let recent = json::array(
        spans
            .recent(DEBUG_RECENT_SPANS)
            .iter()
            .map(span_json)
            .collect::<Vec<_>>(),
    );
    ok(json::Object::new()
        .int("capacity", spans.capacity() as u64)
        .int("recorded", spans.recorded())
        .int("dropped", spans.dropped())
        .raw("slowest", slowest)
        .raw("recent", recent)
        .build())
}

/// `GET /v1/debug/traces/<id>`: every retained span of one trace,
/// rendered as a parent-linked tree.
fn debug_trace(state: &ServeState, id: &str) -> Response {
    if !state.spans.enabled() {
        return error(404, "tracing is disabled (--trace-buffer 0)");
    }
    let Some(trace) = obs::span::TraceId::from_hex(id) else {
        return error(400, "trace id must be 32 hex digits");
    };
    let spans = state.spans.trace(trace);
    if spans.is_empty() {
        return error(404, &format!("no retained spans for trace {id}"));
    }
    ok(json::Object::new()
        .str("trace", &trace.to_hex())
        .int("spans", spans.len() as u64)
        .raw("roots", span_tree_json(&spans))
        .build())
}

// ----------------------------------------------------------------------
// Observatory routes
// ----------------------------------------------------------------------

/// A probability-score histogram, rendered back from per-mille samples
/// to probabilities.
fn score_histogram_json(snap: &obs::HistogramSnapshot) -> String {
    let scale = obs::series::SCORE_SCALE as f64;
    json::Object::new()
        .int("count", snap.count)
        .num("mean", snap.mean() / scale)
        .num("p50", snap.quantile(0.50) as f64 / scale)
        .num("p90", snap.quantile(0.90) as f64 / scale)
        .num("p99", snap.quantile(0.99) as f64 / scale)
        .num("max", snap.max as f64 / scale)
        .build()
}

/// One point of a live convergence series.
fn iteration_point_json(p: &obs::series::IterationPoint) -> String {
    json::Object::new()
        .int("iteration", p.iteration as u64)
        .int("dirty", p.dirty)
        .int("changed", p.changed)
        .int("new_pairs", p.new_pairs)
        .int("dropped_pairs", p.dropped_pairs)
        .int("assigned", p.assigned)
        .raw("scores", score_histogram_json(&p.scores))
        .int("instance_us", p.instance_us)
        .int("subrelation_us", p.subrelation_us)
        .build()
}

/// `GET /v1/pairs/<name>/diagnostics`: the gold-standard-free quality
/// summary of the served image — coverage, score shape, relation and
/// class alignment counts.
fn diagnostics(state: &ServeState, _req: &Request, pair: &Arc<PairState>) -> Response {
    let image = match image_or_error(state, pair) {
        Ok(i) => i,
        Err(e) => return e,
    };
    let q = QualitySummary::of_image(&image.image);
    ok(json::Object::new()
        .str("pair", &pair.name)
        .int("generation", image.generation)
        .raw(
            "instances",
            json::Object::new()
                .int("kb1", q.instances_kb1 as u64)
                .int("kb2", q.instances_kb2 as u64)
                .int("assigned", q.assigned_instances as u64)
                .num("coverage", q.instance_coverage)
                .build(),
        )
        .raw("scores", score_histogram_json(&q.scores))
        .raw(
            "relations",
            json::Object::new()
                .int("kb1", q.relations_kb1 as u64)
                .int("kb2", q.relations_kb2 as u64)
                .int("aligned_1to2", q.aligned_relations_1to2 as u64)
                .int("aligned_2to1", q.aligned_relations_2to1 as u64)
                .num("threshold", q.relation_threshold)
                .build(),
        )
        .raw(
            "classes",
            json::Object::new()
                .int("kb1", q.classes_kb1 as u64)
                .int("kb2", q.classes_kb2 as u64)
                .build(),
        )
        .int("iterations", q.iterations as u64)
        .bool("converged", q.converged)
        .build())
}

/// One flame path with its nested children.
fn flame_node_json(node: &obs::flame::FlameNode) -> String {
    json::Object::new()
        .str("name", node.name)
        .int("count", node.count)
        .int("total_ns", node.total_ns)
        .int("self_ns", node.self_ns)
        .int("p50_us", node.p50_us)
        .int("p99_us", node.p99_us)
        .raw(
            "children",
            json::array(node.children.iter().map(flame_node_json)),
        )
        .build()
}

/// `GET /v1/debug/profile`: the span ring folded into a flame tree —
/// name paths with call counts, inclusive/self time, and per-path
/// latency quantiles. `?root=<name>` re-roots the profile on spans of
/// that name (e.g. `?root=iteration` to profile fixpoint passes only).
fn debug_profile(state: &ServeState, req: &Request) -> Response {
    if !state.spans.enabled() {
        return error(404, "tracing is disabled (--trace-buffer 0)");
    }
    let spans = state.spans.recent(state.spans.capacity());
    let root = req.query_param("root");
    let nodes = obs::flame::aggregate(&spans, root);
    let mut obj = json::Object::new().int("spans", spans.len() as u64);
    if let Some(name) = root {
        obj = obj.str("root", name);
    }
    ok(obj
        .int("total_root_ns", obs::flame::total_root_ns(&nodes))
        .int("total_self_ns", obs::flame::total_self_ns(&nodes))
        .raw("roots", json::array(nodes.iter().map(flame_node_json)))
        .build())
}

/// `GET /v1/debug/runs`: the persisted run history, oldest first —
/// every completed align job with its generation, agreement against the
/// previous generation of the same pair, and drift flag.
fn debug_runs(state: &ServeState) -> Response {
    let Some(runs) = &state.runs else {
        return error(
            404,
            "run history is disabled (start with --run-history FILE)",
        );
    };
    let records = runs.records();
    ok(json::Object::new()
        .str("file", &runs.path().to_string_lossy())
        .int("runs", records.len() as u64)
        .raw("records", json::array(records.iter().map(|r| r.api_json())))
        .build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_core::{Aligner, OwnedAlignment, ParisConfig};
    use paris_kb::KbBuilder;
    use paris_rdf::Literal;

    fn snapshot_of(n: usize) -> AlignedPairSnapshot {
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
        let (kb1, kb2) = (a.build(), b.build());
        let owned = {
            let result = Aligner::new(&kb1, &kb2, ParisConfig::default()).run();
            OwnedAlignment::from_result(&result)
        };
        AlignedPairSnapshot::new(kb1, kb2, owned)
    }

    fn tiny_snapshot() -> AlignedPairSnapshot {
        snapshot_of(3)
    }

    /// A single preloaded pair (no backing file), like the old tests.
    fn state() -> ServeState {
        state_with_pair(tiny_snapshot(), None)
    }

    fn state_with_pair(snapshot: AlignedPairSnapshot, path: Option<PathBuf>) -> ServeState {
        let name = "default".to_owned();
        let pair = PairState {
            name: name.clone(),
            slot: RwLock::new(Some(Arc::new(LoadedImage::new(
                MappedPairSnapshot::from_bytes(MappedPairSnapshot::encode(&snapshot))
                    .unwrap()
                    .into(),
                1,
            )))),
            load_lock: Mutex::new(()),
            generation: AtomicU64::new(1),
            reloads: AtomicU64::new(0),
            last_signature: Mutex::new(None),
            content_cache: Mutex::new(None),
            path,
        };
        let mut pairs = BTreeMap::new();
        pairs.insert(name.clone(), Arc::new(pair));
        ServeState::new(
            Catalog::new(pairs, name, None),
            true,
            None,
            LogFormat::Off,
            DEFAULT_TRACE_BUFFER,
            obs::span::SLOW_TRACES,
            None,
            None,
        )
    }

    /// A lazily-loaded catalog over on-disk snapshot files.
    fn catalog_state(entries: &[(&str, &Path)]) -> ServeState {
        let mut pairs = BTreeMap::new();
        for (name, path) in entries {
            pairs.insert(
                name.to_string(),
                Arc::new(PairState::unloaded(name.to_string(), path.to_path_buf())),
            );
        }
        let default_name = pick_default(&pairs);
        ServeState::new(
            Catalog::new(pairs, default_name, None),
            true,
            None,
            LogFormat::Off,
            DEFAULT_TRACE_BUFFER,
            obs::span::SLOW_TRACES,
            None,
            None,
        )
    }

    fn get(path_and_query: &str) -> Request {
        let (path, q) = match path_and_query.split_once('?') {
            Some((p, q)) => (p, http::parse_query(q)),
            None => (path_and_query, Vec::new()),
        };
        Request {
            method: "GET".into(),
            path: path.into(),
            query: q,
            headers: Vec::new(),
            body: Vec::new(),
            http10: false,
        }
    }

    #[test]
    fn metrics_endpoint_serves_both_formats() {
        let s = state();
        let text = route(&s, &get("/v1/metrics"));
        assert_eq!(text.status, 200);
        assert!(
            text.content_type.starts_with("text/plain"),
            "{}",
            text.content_type
        );
        let body = String::from_utf8(text.body).unwrap();
        assert!(
            body.contains("# TYPE paris_requests_total counter"),
            "{body}"
        );
        assert!(
            body.contains("# TYPE paris_route_latency_microseconds histogram"),
            "{body}"
        );
        assert!(
            body.contains("paris_pair_generation{pair=\"default\"} 1"),
            "{body}"
        );
        assert!(body.contains("paris_pairs 1"), "{body}");

        let json_body = route(&s, &get("/v1/metrics?format=json"));
        assert_eq!(json_body.status, 200);
        assert_eq!(json_body.content_type, "application/json");
        let body = String::from_utf8(json_body.body).unwrap();
        assert!(body.starts_with("{\"data\":{"), "{body}");
        assert!(body.contains("\"name\":\"paris_requests_total\""), "{body}");

        assert_eq!(route(&s, &get("/v1/metrics?format=xml")).status, 400);
        let mut post = get("/v1/metrics");
        post.method = "POST".into();
        assert_eq!(route(&s, &post).status, 405);
    }

    #[test]
    fn observe_records_route_pair_and_etag_series() {
        let s = state();
        let req = get("/v1/pairs/default/sameas?iri=http://a/p1");
        let response = cacheable(&req, route(&s, &req));
        assert!(response.etag.is_some());
        s.observe(&req, &response, "test-id", 123);
        let reg = &s.metrics.registry;
        assert_eq!(
            reg.counter_value("paris_route_requests_total", &[("route", "sameas")]),
            Some(1)
        );
        assert_eq!(
            reg.counter_value("paris_pair_requests_total", &[("pair", "default")]),
            Some(1)
        );
        assert_eq!(reg.counter_value("paris_etag_misses_total", &[]), Some(1));

        // Replaying with the served validator is an ETag hit (a 304).
        let mut conditional = get("/v1/pairs/default/sameas?iri=http://a/p1");
        conditional
            .headers
            .push(("if-none-match".to_owned(), response.etag.clone().unwrap()));
        let not_modified = cacheable(&conditional, route(&s, &conditional));
        assert_eq!(not_modified.status, 304);
        s.observe(&conditional, &not_modified, "test-id-2", 45);
        assert_eq!(reg.counter_value("paris_etag_hits_total", &[]), Some(1));

        // A request naming no pair records no pair series.
        let health = get("/v1/healthz");
        let response = route(&s, &health);
        s.observe(&health, &response, "test-id-3", 10);
        assert_eq!(
            reg.counter_value("paris_pair_requests_total", &[("pair", "default")]),
            Some(2) // the conditional replay counted; healthz did not
        );
    }

    #[test]
    fn healthz_and_stats_respond() {
        let s = state();
        let health = route(&s, &get("/healthz"));
        assert_eq!(health.status, 200);
        let body = String::from_utf8(health.body).unwrap();
        assert!(
            body.contains(&format!("\"version\":\"{VERSION}\"")),
            "{body}"
        );
        assert!(body.contains("\"snapshot_formats\":\"v2\""), "{body}");
        let stats = route(&s, &get("/stats"));
        assert_eq!(stats.status, 200);
        let body = String::from_utf8(stats.body).unwrap();
        assert!(body.contains("\"aligned_instances\":3"), "{body}");
        assert!(body.contains("\"pair\":\"default\""), "{body}");
    }

    #[test]
    fn sameas_finds_the_alignment() {
        let s = state();
        let r = route(&s, &get("/sameas?iri=http://a/p1"));
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("http://b/q1"), "{body}");

        let rev = route(&s, &get("/sameas?iri=http://b/q2&side=right"));
        let body = String::from_utf8(rev.body).unwrap();
        assert!(body.contains("http://a/p2"), "{body}");

        // The /pairs/<name>/ route answers identically.
        let named = route(&s, &get("/pairs/default/sameas?iri=http://a/p1"));
        assert_eq!(named.status, 200);
        assert!(String::from_utf8(named.body)
            .unwrap()
            .contains("http://b/q1"));
    }

    #[test]
    fn sameas_threshold_suppresses_match() {
        let s = state();
        let r = route(&s, &get("/sameas?iri=http://a/p1&threshold=1.01"));
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"sameas\":null"), "{body}");
    }

    #[test]
    fn unknown_iri_is_404() {
        let s = state();
        assert_eq!(route(&s, &get("/sameas?iri=http://a/nope")).status, 404);
        assert_eq!(route(&s, &get("/sameas")).status, 400);
        assert_eq!(
            route(&s, &get("/sameas?iri=http://a/p0&side=middle")).status,
            400
        );
    }

    #[test]
    fn neighbors_lists_facts() {
        let s = state();
        let r = route(&s, &get("/neighbors?iri=http://a/p0"));
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("http://a/email"), "{body}");
        assert!(body.contains("p0@x.org"), "{body}");
    }

    #[test]
    fn unknown_route_is_404_with_json_body_for_any_method() {
        let s = state();
        for method in ["GET", "POST", "DELETE", "PUT"] {
            let mut req = get("/nope");
            req.method = method.into();
            let r = route(&s, &req);
            assert_eq!(r.status, 404, "{method}");
            assert_eq!(r.content_type, "application/json");
            assert!(String::from_utf8(r.body).unwrap().contains("\"error\""));
        }
        assert_eq!(route(&s, &get("/pairs/default/bogus")).status, 404);
        assert_eq!(route(&s, &get("/pairs/default")).status, 404);
    }

    #[test]
    fn wrong_method_is_405_with_allow_header() {
        let s = state();
        for (path, allowed) in [
            ("/stats", "GET"),
            ("/healthz", "GET"),
            ("/sameas", "GET"),
            ("/pairs", "GET"),
            ("/pairs/default/stats", "GET"),
        ] {
            let mut req = get(path);
            req.method = "DELETE".into();
            let r = route(&s, &req);
            assert_eq!(r.status, 405, "{path}");
            assert_eq!(r.allow, Some(allowed), "{path}");
            assert_eq!(r.content_type, "application/json");
        }
        // POST-only routes advertise POST.
        let r = route(&s, &get("/reload"));
        assert_eq!(r.status, 405);
        assert_eq!(r.allow, Some("POST"));
        let r = route(&s, &get("/pairs/default/reload"));
        assert_eq!(r.status, 405);
        assert_eq!(r.allow, Some("POST"));
    }

    #[test]
    fn align_requires_paths() {
        let s = state();
        let mut post = get("/align");
        post.method = "POST".into();
        post.body = b"left=".to_vec();
        assert_eq!(route(&s, &post).status, 400);
    }

    #[test]
    fn disabled_jobs_refuse_align() {
        let mut s = state();
        s.jobs_enabled = false;
        let mut post = get("/align");
        post.method = "POST".into();
        post.body = b"left=a.snap&right=b.snap".to_vec();
        let r = route(&s, &post);
        assert_eq!(r.status, 403);
        assert_eq!(s.jobs.submitted(), 0);
        // Read-only routes keep working.
        assert_eq!(route(&s, &get("/healthz")).status, 200);
    }

    #[test]
    fn job_status_validation() {
        let s = state();
        assert_eq!(route(&s, &get("/jobs/abc")).status, 400);
        assert_eq!(route(&s, &get("/jobs/7")).status, 404);
    }

    fn post_reload(path: &str, body: &[u8]) -> Request {
        let mut req = get(path);
        req.method = "POST".into();
        req.body = body.to_vec();
        req
    }

    #[test]
    fn reload_without_source_needs_a_path() {
        let s = state();
        let r = route(&s, &post_reload("/reload", b""));
        assert_eq!(r.status, 400);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("'path' form field"), "{body}");
    }

    #[test]
    fn reload_swaps_snapshot_and_bumps_generation() {
        let dir = std::env::temp_dir().join("paris_server_reload_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pair.snap");
        MappedPairSnapshot::save_v2(&tiny_snapshot(), &path).unwrap();

        let s = state();
        let r = route(
            &s,
            &post_reload("/reload", format!("path={}", path.display()).as_bytes()),
        );
        assert_eq!(r.status, 200, "{:?}", String::from_utf8(r.body));
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"generation\":2"), "{body}");

        let stats = String::from_utf8(route(&s, &get("/stats")).body).unwrap();
        assert!(stats.contains("\"generation\":2"), "{stats}");
        assert!(stats.contains("\"reloads\":1"), "{stats}");
        let health = String::from_utf8(route(&s, &get("/healthz")).body).unwrap();
        assert!(health.contains("\"generation\":2"), "{health}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_uses_configured_source_without_a_path() {
        let dir = std::env::temp_dir().join("paris_server_reload_source_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pair.snap");
        MappedPairSnapshot::save_v2(&tiny_snapshot(), &path).unwrap();

        let s = state_with_pair(tiny_snapshot(), Some(path.clone()));
        assert_eq!(route(&s, &post_reload("/reload", b"")).status, 200);
        let pair = s.catalog.default_pair().unwrap();
        assert_eq!(pair.generation.load(Ordering::SeqCst), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_failure_keeps_current_snapshot() {
        let s = state();
        let r = route(
            &s,
            &post_reload("/reload", b"path=/definitely/not/here.snap"),
        );
        assert_eq!(r.status, 400);
        let pair = s.catalog.default_pair().unwrap();
        assert_eq!(pair.generation.load(Ordering::SeqCst), 1);
        // Queries still answer from the original image.
        assert_eq!(route(&s, &get("/sameas?iri=http://a/p1")).status, 200);
    }

    #[test]
    fn no_jobs_blocks_client_named_reload_paths_only() {
        let dir = std::env::temp_dir().join("paris_server_reload_nojobs_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pair.snap");
        MappedPairSnapshot::save_v2(&tiny_snapshot(), &path).unwrap();

        let mut s = state_with_pair(tiny_snapshot(), Some(path.clone()));
        s.jobs_enabled = false;
        // Explicit path: forbidden.
        let r = route(
            &s,
            &post_reload("/reload", format!("path={}", path.display()).as_bytes()),
        );
        assert_eq!(r.status, 403);
        // Re-checking the configured source: still allowed.
        assert_eq!(route(&s, &post_reload("/reload", b"")).status, 200);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn catalog_serves_pairs_lazily_with_independent_generations() {
        let dir = std::env::temp_dir().join("paris_server_catalog_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("alpha.snap");
        let b = dir.join("beta.snap");
        MappedPairSnapshot::save_v2(&snapshot_of(2), &a).unwrap();
        MappedPairSnapshot::save_v2(&snapshot_of(4), &b).unwrap();

        let s = catalog_state(&[("alpha", &a), ("beta", &b)]);
        // Nothing loaded yet.
        let listing = String::from_utf8(route(&s, &get("/pairs")).body).unwrap();
        assert!(listing.contains("\"default\":\"alpha\""), "{listing}");
        assert!(listing.contains("\"loaded\":false"), "{listing}");

        // First hits load lazily; v2 serves mapped.
        let r = route(&s, &get("/pairs/alpha/sameas?iri=http://a/p1"));
        assert_eq!(r.status, 200, "{:?}", String::from_utf8(r.body));
        let r = route(&s, &get("/pairs/beta/sameas?iri=http://a/p3"));
        assert_eq!(r.status, 200);
        let beta_stats = String::from_utf8(route(&s, &get("/pairs/beta/stats")).body).unwrap();
        assert!(beta_stats.contains("\"format\":\"v2\""), "{beta_stats}");
        assert!(
            beta_stats.contains("\"aligned_instances\":4"),
            "{beta_stats}"
        );

        // Bare routes alias the default (alpha).
        let bare = String::from_utf8(route(&s, &get("/stats")).body).unwrap();
        assert!(bare.contains("\"pair\":\"alpha\""), "{bare}");

        // Per-pair reloads bump only their own generation.
        assert_eq!(
            route(&s, &post_reload("/pairs/beta/reload", b"")).status,
            200
        );
        assert_eq!(
            route(&s, &post_reload("/pairs/beta/reload", b"")).status,
            200
        );
        let alpha = s.catalog.pair("alpha").unwrap();
        let beta = s.catalog.pair("beta").unwrap();
        assert_eq!(alpha.generation.load(Ordering::SeqCst), 1);
        assert_eq!(beta.generation.load(Ordering::SeqCst), 3);
        assert_eq!(beta.reloads.load(Ordering::Relaxed), 2);

        // Unknown pair.
        assert_eq!(route(&s, &get("/pairs/nope/stats")).status, 404);
        // Catalog pairs reject client-named reload paths.
        let r = route(&s, &post_reload("/pairs/alpha/reload", b"path=/tmp/x.snap"));
        assert_eq!(r.status, 400);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn get_with_inm(path: &str, etag: &str) -> Request {
        let mut req = get(path);
        req.headers
            .push(("if-none-match".to_owned(), etag.to_owned()));
        req
    }

    /// Extracts the quoted ETag value of a response.
    fn etag_of(r: &Response) -> String {
        r.etag.clone().expect("response should carry an ETag")
    }

    #[test]
    fn read_endpoints_carry_etags_and_honour_if_none_match() {
        let s = state();
        for path in [
            "/stats",
            "/sameas?iri=http://a/p1",
            "/neighbors?iri=http://a/p0",
            "/pairs/default/stats",
        ] {
            let first = route(&s, &get(path));
            assert_eq!(first.status, 200, "{path}");
            let etag = etag_of(&first);
            let second = route(&s, &get_with_inm(path, &etag));
            assert_eq!(second.status, 304, "{path}");
            assert!(second.body.is_empty(), "{path}: 304 must be body-less");
            assert_eq!(etag_of(&second), etag, "{path}");
            // A non-matching validator still gets the full body.
            let third = route(&s, &get_with_inm(path, "\"0000000000000000\""));
            assert_eq!(third.status, 200, "{path}");
            assert_eq!(third.body, first.body, "{path}");
        }
        // Errors are never cacheable.
        assert!(route(&s, &get("/sameas")).etag.is_none());
    }

    #[test]
    fn etag_changes_when_the_answer_changes() {
        let dir = std::env::temp_dir().join("paris_server_etag_swap_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pair.snap");
        MappedPairSnapshot::save_v2(&snapshot_of(3), &path).unwrap();
        let s = state_with_pair(tiny_snapshot(), Some(path.clone()));
        let before = etag_of(&route(&s, &get("/stats")));
        MappedPairSnapshot::save_v2(&snapshot_of(5), &path).unwrap();
        assert_eq!(route(&s, &post_reload("/reload", b"")).status, 200);
        let after = route(&s, &get_with_inm("/stats", &before));
        assert_eq!(after.status, 200, "stale validator must miss");
        assert_ne!(etag_of(&after), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_lists_file_backed_pairs_with_checksums() {
        let dir = std::env::temp_dir().join("paris_server_manifest_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("alpha.snap");
        let b = dir.join("beta.snap");
        MappedPairSnapshot::save_v2(&snapshot_of(2), &a).unwrap();
        MappedPairSnapshot::save_v2(&snapshot_of(3), &b).unwrap();
        let s = catalog_state(&[("alpha", &a), ("beta", &b)]);

        let r = route(&s, &get("/pairs/manifest"));
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.body.clone()).unwrap();
        let sum_a = checksum_v2(&std::fs::read(&a).unwrap());
        let sum_b = checksum_v2(&std::fs::read(&b).unwrap());
        assert!(body.contains("\"name\":\"alpha\""), "{body}");
        assert!(
            body.contains(&format!("\"checksum\":\"{sum_a:016x}\"")),
            "{body}"
        );
        assert!(
            body.contains(&format!("\"checksum\":\"{sum_b:016x}\"")),
            "{body}"
        );
        assert_eq!(body.matches("\"format\":2").count(), 2, "{body}");
        // Not loaded yet: generation 0.
        assert!(body.contains("\"generation\":0"), "{body}");

        // The manifest itself is conditional.
        let etag = etag_of(&r);
        assert_eq!(
            route(&s, &get_with_inm("/pairs/manifest", &etag)).status,
            304
        );

        // A reload bumps the advertised generation (and the ETag).
        assert_eq!(
            route(&s, &post_reload("/pairs/alpha/reload", b"")).status,
            200
        );
        let r2 = route(&s, &get_with_inm("/pairs/manifest", &etag));
        assert_eq!(r2.status, 200, "generation bump must invalidate");
        assert!(String::from_utf8(r2.body)
            .unwrap()
            .contains("\"generation\":1"));

        // The replica-side parser accepts what the primary emits.
        let (entries, rejected) =
            paris_replica::sync::parse_manifest(&body).expect("manifest parses");
        assert!(rejected.is_empty(), "{rejected:?}");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "alpha");
        assert_eq!(entries[0].checksum, Some(sum_a));
        assert_eq!(entries[1].format, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_route_streams_file_bytes_with_etag() {
        let dir = std::env::temp_dir().join("paris_server_snapstream_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("alpha.snap");
        MappedPairSnapshot::save_v2(&snapshot_of(2), &a).unwrap();
        let file_bytes = std::fs::read(&a).unwrap();
        let s = catalog_state(&[("alpha", &a)]);

        let r = route(&s, &get("/pairs/alpha/snapshot"));
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, "application/octet-stream");
        let expected_etag = format!("\"{:016x}\"", checksum_v2(&file_bytes));
        assert_eq!(etag_of(&r), expected_etag);
        let (_, len) = r.stream.as_ref().expect("streams from the file");
        assert_eq!(*len, file_bytes.len() as u64);
        // The streamed wire bytes really are the file.
        let mut wire = Vec::new();
        r.write_to(&mut wire, false).unwrap();
        assert!(wire.ends_with(&file_bytes), "body is the raw snapshot");

        // Conditional fetch: unchanged pair costs zero body bytes.
        let r = route(&s, &get_with_inm("/pairs/alpha/snapshot", &expected_etag));
        assert_eq!(r.status, 304);
        assert!(r.stream.is_none() && r.body.is_empty());

        // Wrong method and unknown pair behave like the other pair ops.
        let mut del = get("/pairs/alpha/snapshot");
        del.method = "DELETE".into();
        assert_eq!(route(&s, &del).status, 405);
        assert_eq!(route(&s, &get("/pairs/nope/snapshot")).status, 404);
        // A pair with no backing file cannot be transferred.
        assert_eq!(route(&state(), &get("/pairs/default/snapshot")).status, 404);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_skips_unsafe_pair_names() {
        let dir = std::env::temp_dir().join("paris_server_scan_names_unit");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        for name in [
            "ok.snap",
            "also-ok.v2.snap",
            "bad name.snap",
            "manifest.snap",
        ] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        // A leading-dot file (hidden / temp-style).
        std::fs::write(dir.join(".partial.snap"), b"x").unwrap();
        let names: Vec<String> = scan_catalog_dir(&dir)
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, ["also-ok.v2", "ok"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rescan_removing_the_loaded_default_pair_moves_the_default() {
        let dir = std::env::temp_dir().join("paris_server_rescan_default_unit");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("alpha.snap");
        let b = dir.join("beta.snap");
        MappedPairSnapshot::save_v2(&snapshot_of(2), &a).unwrap();
        MappedPairSnapshot::save_v2(&snapshot_of(4), &b).unwrap();
        let s = catalog_state(&[("alpha", &a), ("beta", &b)]);

        // alpha is the default and is *loaded* when its file vanishes.
        assert_eq!(route(&s, &get("/stats")).status, 200);
        assert!(s.catalog.pair("alpha").unwrap().current().is_some());
        std::fs::remove_file(&a).unwrap();
        rescan_catalog(&s.catalog, &dir);

        assert!(s.catalog.pair("alpha").is_none());
        assert_eq!(*s.catalog.default_name.read().unwrap(), "beta");
        // The removed pair 404s; bare routes now answer from beta.
        assert_eq!(route(&s, &get("/pairs/alpha/stats")).status, 404);
        let bare = route(&s, &get("/stats"));
        assert_eq!(bare.status, 200);
        assert!(String::from_utf8(bare.body)
            .unwrap()
            .contains("\"pair\":\"beta\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    // ------------------------------------------------------------------
    // The /v1 contract: envelope, aliases, batch, explain, pagination
    // ------------------------------------------------------------------

    fn post_json(path: &str, body: &str) -> Request {
        let mut req = get(path);
        req.method = "POST".into();
        req.body = body.as_bytes().to_vec();
        req
    }

    #[test]
    fn v1_and_legacy_routes_answer_identically_with_one_warning_header() {
        let s = state();
        for (legacy, v1) in [
            ("/healthz", "/v1/healthz"),
            ("/pairs", "/v1/pairs"),
            ("/stats", "/v1/pairs/default/stats"),
            (
                "/sameas?iri=http://a/p1",
                "/v1/pairs/default/sameas?iri=http://a/p1",
            ),
            (
                "/neighbors?iri=http://a/p0",
                "/v1/pairs/default/neighbors?iri=http://a/p0",
            ),
            ("/pairs/default/stats", "/v1/pairs/default/stats"),
        ] {
            let old = route(&s, &get(legacy));
            let new = route(&s, &get(v1));
            assert_eq!(old.status, 200, "{legacy}");
            assert_eq!(new.status, 200, "{v1}");
            // healthz bodies differ only in uptime; compare the rest.
            if !legacy.contains("healthz") {
                assert_eq!(old.body, new.body, "{legacy} vs {v1}");
            }
            // Exactly one deprecation warning, on the legacy spelling only.
            assert_eq!(
                old.extra_headers
                    .iter()
                    .filter(|(n, _)| *n == "Warning")
                    .count(),
                1,
                "{legacy}"
            );
            assert!(new.extra_headers.is_empty(), "{v1}");
        }
    }

    #[test]
    fn envelope_wraps_data_and_errors_on_both_namespaces() {
        let s = state();
        let ok = route(&s, &get("/v1/pairs/default/sameas?iri=http://a/p1"));
        let body = String::from_utf8(ok.body).unwrap();
        assert!(body.starts_with("{\"data\":{"), "{body}");

        for (req, status, code) in [
            (get("/v1/pairs/default/sameas"), 400, "bad_request"),
            (get("/v1/pairs/nope/stats"), 404, "not_found"),
            (get("/v1/nope"), 404, "not_found"),
            (get("/sameas"), 400, "bad_request"),
            (get("/nope"), 404, "not_found"),
            (
                post_reload("/v1/pairs/default/stats", b""),
                405,
                "method_not_allowed",
            ),
            (post_reload("/stats", b""), 405, "method_not_allowed"),
        ] {
            let r = route(&s, &req);
            assert_eq!(r.status, status, "{}", req.path);
            let body = String::from_utf8(r.body).unwrap();
            assert!(
                body.starts_with(&format!("{{\"error\":{{\"code\":\"{code}\"")),
                "{}: {body}",
                req.path
            );
        }
    }

    #[test]
    fn neighbors_paginates_with_a_hard_cap() {
        let s = state_with_pair(snapshot_of(1), None);
        // p0 has exactly one fact (the email literal).
        let one = |path: &str| {
            let r = route(&s, &get(path));
            assert_eq!(r.status, 200, "{path}");
            String::from_utf8(r.body).unwrap()
        };
        let full = one("/v1/pairs/default/neighbors?iri=http://a/p0");
        assert!(full.contains("\"total_facts\":1"), "{full}");
        assert!(full.contains("\"offset\":0"), "{full}");
        assert!(full.contains("p0@x.org"), "{full}");

        // An offset past the end yields an empty page, same totals.
        let past = one("/v1/pairs/default/neighbors?iri=http://a/p0&offset=5");
        assert!(past.contains("\"total_facts\":1"), "{past}");
        assert!(past.contains("\"facts\":[]"), "{past}");

        // The limit is clamped to the documented cap.
        let clamped = one("/v1/pairs/default/neighbors?iri=http://a/p0&limit=999999");
        assert!(
            clamped.contains(&format!("\"limit\":{NEIGHBORS_MAX_LIMIT}")),
            "{clamped}"
        );
        assert_eq!(
            route(
                &s,
                &get("/v1/pairs/default/neighbors?iri=http://a/p0&offset=x")
            )
            .status,
            400
        );
    }

    #[test]
    fn batch_answers_mixed_queries_from_one_image() {
        let s = state();
        let body = r#"{"queries":[
            {"op":"sameas","iri":"http://a/p1"},
            {"op":"neighbors","iri":"http://a/p0","limit":1},
            {"op":"sameas","iri":"http://a/nope"},
            {"op":"sameas","iri":"http://b/q2","side":"right"},
            {"op":"flarp","iri":"http://a/p1"}]}"#;
        let hits = || s.catalog.image_hits.get();
        let before = hits();
        let r = route(&s, &post_json("/v1/pairs/default/query", body));
        assert_eq!(hits() - before, 1, "a batch acquires the image once");
        assert_eq!(r.status, 200, "{:?}", String::from_utf8(r.body));
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("\"count\":5"), "{text}");
        // Successful lookups answer in place…
        assert!(text.contains("http://b/q1"), "{text}");
        assert!(text.contains("http://a/p2"), "{text}");
        assert!(text.contains("\"total_facts\":1"), "{text}");
        // …and failures come back per-query without failing the batch.
        assert!(text.contains("\"code\":\"not_found\""), "{text}");
        assert!(text.contains("\"code\":\"bad_request\""), "{text}");

        // Sequential lookups acquire it once each…
        for path in [
            "/v1/pairs/default/neighbors?iri=http://a/p0&limit=1",
            "/v1/pairs/default/sameas?iri=http://b/q2&side=right",
        ] {
            let before = hits();
            assert_eq!(route(&s, &get(path)).status, 200, "{path}");
            assert_eq!(hits() - before, 1, "{path}");
        }
        // …and the batch answer equals the sequential answers, element-wise.
        let before = hits();
        let single = route(&s, &get("/v1/pairs/default/sameas?iri=http://a/p1"));
        assert_eq!(hits() - before, 1);
        let single = String::from_utf8(single.body).unwrap();
        let inner = single
            .strip_prefix("{\"data\":")
            .and_then(|s| s.strip_suffix('}'))
            .unwrap();
        assert!(text.contains(inner), "{text} should embed {inner}");
    }

    #[test]
    fn batch_rejects_malformed_bodies_and_oversized_batches() {
        let s = state();
        for body in ["", "not json", "{}", "{\"queries\":3}"] {
            let r = route(&s, &post_json("/v1/pairs/default/query", body));
            assert_eq!(r.status, 400, "{body:?}");
        }
        let many: Vec<String> = (0..MAX_BATCH_QUERIES + 1)
            .map(|_| "{\"op\":\"sameas\",\"iri\":\"http://a/p1\"}".to_owned())
            .collect();
        let r = route(
            &s,
            &post_json(
                "/v1/pairs/default/query",
                &format!("{{\"queries\":{}}}", json::array(many)),
            ),
        );
        assert_eq!(r.status, 400);
        assert!(
            String::from_utf8(r.body).unwrap().contains("cap"),
            "cap named"
        );
        // Wrong method gets a 405 with Allow.
        let r = route(&s, &get("/v1/pairs/default/query"));
        assert_eq!(r.status, 405);
        assert_eq!(r.allow, Some("POST"));
    }

    #[test]
    fn explain_reports_evidence_score_and_assignment() {
        let s = state();
        let r = route(
            &s,
            &get("/v1/pairs/default/explain?left=http://a/p1&right=http://b/q1"),
        );
        assert_eq!(r.status, 200, "{:?}", String::from_utf8(r.body));
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"assigned\":true"), "{body}");
        assert!(
            body.contains("\"relation_left\":\"http://a/email\""),
            "{body}"
        );
        assert!(body.contains("\"neighbor_left\":\"p1@x.org\""), "{body}");
        assert!(body.contains("\"evidence_count\":1"), "{body}");
        // The assignment member is byte-identical to the sameas answer.
        let sameas = route(&s, &get("/v1/pairs/default/sameas?iri=http://a/p1"));
        let sameas = String::from_utf8(sameas.body).unwrap();
        let inner = sameas
            .strip_prefix("{\"data\":")
            .and_then(|s| s.strip_suffix('}'))
            .unwrap();
        assert!(body.contains(inner), "{body} should embed {inner}");

        // A non-assigned candidate still explains (with weaker evidence).
        let weak = route(
            &s,
            &get("/v1/pairs/default/explain?left=http://a/p1&right=http://b/q2"),
        );
        assert_eq!(weak.status, 200);
        let weak = String::from_utf8(weak.body).unwrap();
        assert!(weak.contains("\"assigned\":false"), "{weak}");
        assert!(weak.contains("\"stored_score\":0"), "{weak}");

        // Parameter and lookup failures are structured.
        assert_eq!(route(&s, &get("/v1/pairs/default/explain")).status, 400);
        assert_eq!(
            route(
                &s,
                &get("/v1/pairs/default/explain?left=http://a/p1&right=x")
            )
            .status,
            404
        );
    }

    #[test]
    fn catalog_rescan_adds_and_removes_pairs() {
        let dir = std::env::temp_dir().join("paris_server_rescan_unit");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.snap");
        MappedPairSnapshot::save_v2(&snapshot_of(2), &a).unwrap();

        let s = catalog_state(&[("a", &a)]);
        // Pretend the state is catalog-backed for the rescan.
        let b = dir.join("b.snap");
        MappedPairSnapshot::save_v2(&snapshot_of(2), &b).unwrap();
        rescan_catalog(&s.catalog, &dir);
        assert!(s.catalog.pair("b").is_some(), "new file discovered");

        std::fs::remove_file(&a).unwrap();
        rescan_catalog(&s.catalog, &dir);
        assert!(s.catalog.pair("a").is_none(), "vanished file dropped");
        // The default moved off the removed pair.
        assert_eq!(*s.catalog.default_name.read().unwrap(), "b".to_owned());
        std::fs::remove_dir_all(&dir).ok();
    }
}
