//! The replica-side sync engine: manifest diffing, validated transfer,
//! atomic install, deletion propagation, and per-pair backoff.
//!
//! One [`SyncEngine`] mirrors one upstream catalog into one local
//! directory. Each [`sync_once`](SyncEngine::sync_once) cycle:
//!
//! 1. fetches `GET /pairs/manifest` (with `If-None-Match`, so an
//!    unchanged catalog costs a `304` and zero body bytes);
//! 2. diffs every advertised pair's content checksum against the local
//!    mirror (local checksums are computed once and cached);
//! 3. downloads only the changed pairs (`GET /pairs/<name>/snapshot`),
//!    writes the bytes to a temp file in the mirror directory,
//!    validates the advertised checksum *and* the snapshot's section
//!    table + checksums against the temp file, and only then
//!    atomic-renames it into place — a reader (the serving catalog)
//!    never observes a partial or corrupt image;
//! 4. deletes local pairs the manifest no longer lists;
//! 5. records per-pair failures and backs the failing pair off
//!    exponentially while its siblings keep syncing.
//!
//! The engine is deliberately server-agnostic: `paris-server` drives it
//! from a poll thread (`--replica-of`), the CLI runs one cycle
//! (`paris sync`), and tests drive it directly.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use paris_kb::snapshot::{self, SnapshotError, SnapshotKind};
use paris_kb::snapshot_v2::{checksum_v2, checksum_v2_stream, FORMAT_VERSION_V2};
use paris_kb::SnapshotArena;

use paris_client::http_client::{HttpClient, Upstream};
use paris_client::json::{self, Json};
use paris_client::valid_pair_name;
use paris_obs::span::SpanStore;

/// Cap on the manifest document.
const MAX_MANIFEST_BYTES: u64 = 16 << 20;
/// Default cap on one snapshot transfer.
const DEFAULT_MAX_SNAPSHOT_BYTES: u64 = 8 << 30;
/// First retry delay after a pair-level failure; doubles per consecutive
/// failure up to [`BACKOFF_MAX`].
const BACKOFF_BASE: Duration = Duration::from_millis(500);
/// Ceiling on the per-pair retry delay.
const BACKOFF_MAX: Duration = Duration::from_secs(60);

/// One pair as the primary's manifest advertises it.
#[derive(Clone, Debug, PartialEq)]
pub struct ManifestEntry {
    /// Pair name (validated against [`valid_pair_name`] at parse time).
    pub name: String,
    /// Snapshot format version as advertised (0 = not a snapshot).
    pub format: u32,
    /// The primary's per-pair generation (0 = never loaded there).
    pub generation: u64,
    /// Snapshot file length in bytes.
    pub bytes: u64,
    /// Content checksum of the snapshot file, `None` when the primary
    /// could not read the file this cycle (the replica keeps what it
    /// has rather than treating a transient primary error as a delete).
    pub checksum: Option<u64>,
}

/// Parses the manifest JSON document — either the `/v1` envelope
/// (`{"data":{…,"pairs":[…]}}`) or the bare pre-v1 shape
/// (`{…,"pairs":[…]}`), so a replica can mirror daemons of either
/// generation. Entries with names that would need URL/JSON/path escaping
/// are rejected into the error list rather than silently dropped — a
/// name like `../../etc` is an attack, and the operator should see it.
pub fn parse_manifest(text: &str) -> Result<(Vec<ManifestEntry>, Vec<String>), String> {
    let doc = json::parse(text).map_err(|e| format!("manifest is not valid JSON: {e}"))?;
    let doc = doc.get("data").unwrap_or(&doc);
    let pairs = doc
        .get("pairs")
        .and_then(Json::as_array)
        .ok_or("manifest has no 'pairs' array")?;
    let mut entries = Vec::new();
    let mut rejected = Vec::new();
    for pair in pairs {
        let Some(name) = pair.get("name").and_then(Json::as_str) else {
            rejected.push("manifest entry without a name".to_owned());
            continue;
        };
        if !valid_pair_name(name) {
            rejected.push(format!("rejected unsafe pair name {name:?}"));
            continue;
        }
        let field = |key: &str| pair.get(key).and_then(Json::as_u64);
        let (Some(format), Some(generation), Some(bytes)) =
            (field("format"), field("generation"), field("bytes"))
        else {
            rejected.push(format!("pair '{name}': missing format/generation/bytes"));
            continue;
        };
        let checksum = match pair.get("checksum").and_then(Json::as_str) {
            Some(hex) => match u64::from_str_radix(hex, 16) {
                Ok(v) => Some(v),
                Err(_) => {
                    rejected.push(format!("pair '{name}': unparseable checksum {hex:?}"));
                    continue;
                }
            },
            None => None,
        };
        entries.push(ManifestEntry {
            name: name.to_owned(),
            format: format as u32,
            generation,
            bytes,
            checksum,
        });
    }
    Ok((entries, rejected))
}

/// The in-memory half of transfer validation: the advertised content
/// checksum must match and the magic/version prefix must name the
/// snapshot format — a bad transfer is rejected before anything touches
/// disk. The section table is validated by [`validate_file`] once the
/// bytes are there, where the arena can mmap them instead of copying.
fn validate_bytes(bytes: &[u8], expected_checksum: u64) -> Result<(), String> {
    let actual = checksum_v2(bytes);
    if actual != expected_checksum {
        return Err(format!(
            "content checksum mismatch (advertised {expected_checksum:016x}, got {actual:016x})"
        ));
    }
    match snapshot::peek_version_bytes(bytes) {
        Ok(FORMAT_VERSION_V2) => Ok(()),
        Ok(other) => Err(format!(
            "{} (transfer rejected)",
            SnapshotError::UnsupportedVersion(other)
        )),
        Err(e) => Err(format!("bad snapshot framing: {e}")),
    }
}

/// The on-disk half of validation: opens the file as an arena
/// (mmap-backed — no heap copy of the image) and validates the whole
/// section table, every per-section checksum, and the snapshot kind.
fn validate_file(path: &Path) -> Result<(), String> {
    let arena = SnapshotArena::open(path).map_err(|e| format!("bad snapshot: {e}"))?;
    if arena.kind() != SnapshotKind::AlignedPair {
        return Err(format!(
            "expected an aligned-pair snapshot, got a {} snapshot",
            arena.kind().name()
        ));
    }
    Ok(())
}

/// Validates a snapshot file on disk exactly as a transfer would be:
/// the advertised content checksum must match, and the bytes must parse
/// as a well-formed **aligned-pair** snapshot (section table, per-section
/// bounds and checksums).
pub fn validate_snapshot_file(path: &Path, expected_checksum: u64) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading transfer: {e}"))?;
    validate_bytes(&bytes, expected_checksum)?;
    drop(bytes);
    validate_file(path)
}

/// What one [`SyncEngine::sync_once`] cycle did.
#[derive(Clone, Debug, Default)]
pub struct SyncOutcome {
    /// Pairs whose snapshot was downloaded, validated, and installed.
    pub updated: Vec<String>,
    /// Pairs removed locally because the manifest no longer lists them.
    pub removed: Vec<String>,
    /// Per-pair failures this cycle (`(name, why)`); the pair backs off.
    pub failed: Vec<(String, String)>,
    /// Pairs already byte-identical to the primary.
    pub unchanged: usize,
    /// Pairs skipped because their backoff window is still open.
    pub skipped_backoff: usize,
    /// Snapshot body bytes actually transferred (the bench gate asserts
    /// this is 0 when nothing changed).
    pub snapshot_bytes: u64,
    /// Manifest body bytes transferred (0 on a `304` poll).
    pub manifest_bytes: u64,
}

/// Replication health, as `/healthz` reports it on a replica.
#[derive(Clone, Debug, Default)]
pub struct ReplicationStatus {
    /// The upstream URL.
    pub upstream: String,
    /// Completed sync cycles (attempted, not necessarily successful).
    pub syncs: u64,
    /// Unix time of the last attempted cycle.
    pub last_attempt_unix: Option<u64>,
    /// Unix time of the last cycle whose manifest fetch succeeded and
    /// which left no pair failing.
    pub last_success_unix: Option<u64>,
    /// The last cycle-level error (manifest unreachable/unparseable).
    pub last_error: Option<String>,
    /// Per-pair detail.
    pub pairs: Vec<PairReplicationStatus>,
}

/// One pair's replication state.
#[derive(Clone, Debug)]
pub struct PairReplicationStatus {
    /// Pair name.
    pub name: String,
    /// The primary's generation as of the last manifest.
    pub remote_generation: u64,
    /// The primary generation whose bytes are installed locally.
    pub synced_generation: u64,
    /// `remote_generation - synced_generation` (0 = caught up).
    pub lag: u64,
    /// Consecutive transfer failures (0 = healthy).
    pub failures: u64,
    /// Whether the pair's retry backoff window is still open.
    pub backing_off: bool,
    /// Why the last transfer of this pair failed, if it did.
    pub last_error: Option<String>,
}

/// Lock-free transfer accounting a [`SyncEngine`] maintains. The `Arc`d
/// instruments can be registered into an [`obs::Registry`]
/// (`paris_obs::Registry`) to export them — the serving daemon does
/// exactly that for `/v1/metrics`.
///
/// [`obs::Registry`]: paris_obs::Registry
#[derive(Clone, Debug, Default)]
pub struct SyncMetrics {
    /// Sync cycles attempted (successful or not).
    pub attempts: Arc<paris_obs::Counter>,
    /// Failures: cycle-level manifest failures plus per-pair transfer
    /// failures.
    pub failures: Arc<paris_obs::Counter>,
    /// Snapshot body bytes actually transferred.
    pub snapshot_bytes: Arc<paris_obs::Counter>,
    /// Manifest body bytes actually transferred (0 for `304` polls).
    pub manifest_bytes: Arc<paris_obs::Counter>,
    /// Pairs currently inside their retry-backoff window.
    pub pairs_backing_off: Arc<paris_obs::Gauge>,
}

/// Per-pair local bookkeeping.
#[derive(Debug, Default)]
struct PairSync {
    /// `(file signature, content checksum)` of the locally installed
    /// file. The signature keys the cache: a locally deleted or
    /// replaced file invalidates the checksum instead of masquerading
    /// as current forever.
    local: Option<((SystemTime, u64), u64)>,
    /// Remote generation whose bytes we installed (or matched).
    synced_generation: u64,
    /// Remote generation as of the last manifest that listed the pair.
    remote_generation: u64,
    /// Consecutive transfer failures.
    failures: u32,
    /// Do not retry before this instant.
    next_attempt: Option<Instant>,
    /// Last transfer error.
    last_error: Option<String>,
}

/// Mirrors one upstream catalog into one local directory.
pub struct SyncEngine {
    client: HttpClient,
    dest: PathBuf,
    pairs: BTreeMap<String, PairSync>,
    /// True once the upstream 404'd the `/v1` manifest route — a
    /// pre-`/v1` primary; the engine then speaks the legacy route
    /// spellings (rolling upgrades: replicas first or primaries first
    /// both keep syncing).
    legacy_routes: bool,
    /// Validator for the conditional manifest poll.
    manifest_etag: Option<String>,
    /// Last successfully parsed manifest (reused on a `304`).
    manifest: Vec<ManifestEntry>,
    max_snapshot_bytes: u64,
    syncs: u64,
    last_attempt_unix: Option<u64>,
    last_success_unix: Option<u64>,
    last_error: Option<String>,
    metrics: SyncMetrics,
    /// When set (and enabled), every cycle records a `sync_cycle` span
    /// tree here and rides the spans' contexts on `traceparent` headers,
    /// so the primary continues the same trace.
    spans: Option<Arc<SpanStore>>,
}

fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Change signature of a file: `(mtime, length)` — the same key the
/// serving catalog uses. `None` when the file does not exist (or mtimes
/// are unavailable), which callers treat as "nothing installed".
fn file_signature(path: &Path) -> Option<(SystemTime, u64)> {
    let meta = std::fs::metadata(path).ok()?;
    meta.modified().ok().map(|t| (t, meta.len()))
}

impl SyncEngine {
    /// An engine mirroring `upstream` (e.g. `http://10.0.0.1:7070`) into
    /// `dest`, which is created if missing. Pre-existing `*.snap` files
    /// in `dest` are adopted (checksummed lazily on first comparison),
    /// so a restarted replica re-downloads nothing that is current.
    pub fn new(upstream: &str, dest: impl Into<PathBuf>) -> Result<SyncEngine, String> {
        let upstream = Upstream::parse(upstream)?;
        let dest = dest.into();
        std::fs::create_dir_all(&dest)
            .map_err(|e| format!("creating mirror directory {}: {e}", dest.display()))?;
        let mut pairs = BTreeMap::new();
        if let Ok(entries) = std::fs::read_dir(&dest) {
            for entry in entries.flatten() {
                let path = entry.path();
                let stem = path.file_stem().and_then(|s| s.to_str());
                // Exactly `.snap` — the engine itself only ever writes
                // that spelling, and adopting `.SNAP` would desynchronize
                // from pair_path()'s lowercase install/delete target.
                let is_snap = path
                    .extension()
                    .and_then(|e| e.to_str())
                    .is_some_and(|e| e == "snap");
                if let (true, Some(stem)) = (is_snap && path.is_file(), stem) {
                    if valid_pair_name(stem) {
                        pairs.insert(stem.to_owned(), PairSync::default());
                    }
                }
            }
        }
        Ok(SyncEngine {
            client: HttpClient::new(upstream, Duration::from_secs(30)),
            dest,
            pairs,
            legacy_routes: false,
            manifest_etag: None,
            manifest: Vec::new(),
            max_snapshot_bytes: DEFAULT_MAX_SNAPSHOT_BYTES,
            syncs: 0,
            last_attempt_unix: None,
            last_success_unix: None,
            last_error: None,
            metrics: SyncMetrics::default(),
            spans: None,
        })
    }

    /// Overrides the per-transfer size cap (default 8 GiB).
    pub fn with_max_snapshot_bytes(mut self, cap: u64) -> SyncEngine {
        self.max_snapshot_bytes = cap;
        self
    }

    /// Records every cycle's span tree into `store` and propagates the
    /// trace to the primary via `traceparent` headers. A disabled store
    /// (capacity 0) leaves the engine untraced.
    pub fn set_span_store(&mut self, store: Arc<SpanStore>) {
        self.spans = Some(store);
    }

    /// The upstream URL, for display.
    pub fn upstream(&self) -> &str {
        &self.client.upstream().display
    }

    /// The mirror directory.
    pub fn dest(&self) -> &Path {
        &self.dest
    }

    /// Local path of one pair's snapshot.
    fn pair_path(&self, name: &str) -> PathBuf {
        self.dest.join(format!("{name}.snap"))
    }

    /// Content checksum of the locally installed file, computed at most
    /// once per file signature (so local deletion or replacement is
    /// detected) and streamed in chunks — a multi-GiB mirror is never
    /// buffered whole just to be compared.
    fn local_checksum(&mut self, name: &str) -> Option<u64> {
        let path = self.pair_path(name);
        let Some(signature) = file_signature(&path) else {
            // Nothing installed (any more). Drop the cached checksum
            // too: the follow-up transfer must not present it as an
            // If-None-Match validator, or a primary still serving those
            // exact bytes would 304 and nothing would be reinstalled.
            if let Some(state) = self.pairs.get_mut(name) {
                state.local = None;
            }
            return None;
        };
        if let Some((cached_sig, sum)) = self.pairs.get(name).and_then(|p| p.local) {
            if cached_sig == signature {
                return Some(sum);
            }
        }
        let mut file = std::fs::File::open(&path).ok()?;
        let sum = checksum_v2_stream(&mut file, signature.1).ok()?;
        self.pairs.entry(name.to_owned()).or_default().local = Some((signature, sum));
        Some(sum)
    }

    /// One full sync cycle. `Err` means the *manifest* could not be
    /// fetched or parsed (nothing was changed locally); per-pair
    /// failures are isolated into [`SyncOutcome::failed`].
    pub fn sync_once(&mut self) -> Result<SyncOutcome, String> {
        self.syncs += 1;
        self.metrics.attempts.inc();
        self.last_attempt_unix = Some(unix_now());
        let mut outcome = SyncOutcome::default();

        // One cycle = one trace. Each upstream GET carries the current
        // span's context as a `traceparent` header, so the primary's
        // request spans join this trace — `/v1/debug/traces/<id>` on
        // either daemon shows the same trace id.
        let tracer = self.spans.clone().filter(|s| s.enabled());
        let root = tracer.as_ref().map(|s| s.begin("sync_cycle", None));

        let manifest_span = tracer.as_ref().zip(root.as_ref()).map(|(store, root)| {
            let span = store.begin("fetch_manifest", Some(root.context()));
            self.client
                .set_header("traceparent", Some(&span.context().traceparent()));
            span
        });
        let fetched = self.fetch_manifest(&mut outcome);
        if let (Some(store), Some(mut span)) = (tracer.as_ref(), manifest_span) {
            span.attr_int("manifest_bytes", outcome.manifest_bytes);
            if let Err(e) = &fetched {
                span.attr_str("error", e);
            }
            store.finish(span);
        }
        match fetched {
            Ok(()) => {}
            Err(e) => {
                if let (Some(store), Some(mut root)) = (tracer.as_ref(), root) {
                    root.attr_str("error", &e);
                    store.finish(root);
                }
                self.metrics.failures.inc();
                self.last_error = Some(e.clone());
                return Err(e);
            }
        }
        self.last_error = None;

        let entries = self.manifest.clone();
        let now = Instant::now();
        for entry in &entries {
            let backing_off = self
                .pairs
                .get(&entry.name)
                .and_then(|p| p.next_attempt)
                .is_some_and(|t| t > now);
            if backing_off {
                outcome.skipped_backoff += 1;
                continue;
            }
            let Some(remote_sum) = entry.checksum else {
                // The primary could not read this pair's file this cycle
                // (transient): keep whatever we have, but a pair we never
                // mirrored is nothing — not an "unchanged" pair, and not
                // a bookkeeping entry that would later report a phantom
                // removal.
                if self.pair_path(&entry.name).exists() {
                    outcome.unchanged += 1;
                }
                continue;
            };
            if self.local_checksum(&entry.name) == Some(remote_sum) {
                let state = self.pairs.entry(entry.name.clone()).or_default();
                state.synced_generation = entry.generation;
                state.failures = 0;
                state.next_attempt = None;
                state.last_error = None;
                outcome.unchanged += 1;
                continue;
            }
            let pair_span = tracer.as_ref().zip(root.as_ref()).map(|(store, root)| {
                let mut span = store.begin("transfer_pair", Some(root.context()));
                span.attr_str("pair", &entry.name);
                self.client
                    .set_header("traceparent", Some(&span.context().traceparent()));
                span
            });
            let bytes_before = outcome.snapshot_bytes;
            let transfer = self.transfer_pair(entry, &mut outcome);
            if let (Some(store), Some(mut span)) = (tracer.as_ref(), pair_span) {
                span.attr_int("bytes", outcome.snapshot_bytes.saturating_sub(bytes_before));
                if let Err(why) = &transfer {
                    span.attr_str("error", why);
                }
                store.finish(span);
            }
            match transfer {
                Ok(installed) => {
                    // Record the signature + checksum of the bytes
                    // actually installed (the transfer's ETag), which may
                    // legitimately differ from the manifest's stale
                    // advertisement — clobbering them with the manifest
                    // value would force a byte-identical re-download
                    // next cycle.
                    let signature = installed
                        .is_some()
                        .then(|| file_signature(&self.pair_path(&entry.name)))
                        .flatten();
                    let state = self.pairs.entry(entry.name.clone()).or_default();
                    state.synced_generation = entry.generation;
                    state.failures = 0;
                    state.next_attempt = None;
                    state.last_error = None;
                    match installed {
                        Some(installed_sum) => {
                            state.local = signature.map(|sig| (sig, installed_sum));
                            outcome.updated.push(entry.name.clone());
                        }
                        // The primary 304'd against our local checksum:
                        // nothing was installed, so this is not an
                        // update (no reload, no generation bump).
                        None => outcome.unchanged += 1,
                    }
                }
                Err(why) => {
                    self.metrics.failures.inc();
                    let state = self.pairs.entry(entry.name.clone()).or_default();
                    state.failures += 1;
                    let delay = BACKOFF_BASE
                        .saturating_mul(1u32 << (state.failures - 1).min(16))
                        .min(BACKOFF_MAX);
                    state.next_attempt = Some(now + delay);
                    state.last_error = Some(why.clone());
                    outcome.failed.push((entry.name.clone(), why));
                }
            }
        }
        // Record the remote generation of every *tracked* pair for lag
        // reporting (a pair we could not even begin to mirror gets no
        // entry), then propagate deletions: local pairs the manifest no
        // longer lists are removed from disk.
        for entry in &entries {
            if let Some(state) = self.pairs.get_mut(&entry.name) {
                state.remote_generation = entry.generation;
            }
        }
        let listed: std::collections::BTreeSet<&str> =
            entries.iter().map(|e| e.name.as_str()).collect();
        let stale: Vec<String> = self
            .pairs
            .keys()
            .filter(|k| !listed.contains(k.as_str()))
            .cloned()
            .collect();
        for name in stale {
            let path = self.pair_path(&name);
            if !path.exists() {
                // Tracked but nothing on disk (e.g. a transfer that
                // never succeeded): forget it silently — reporting it
                // "removed" would trigger pointless rescans upstream.
                self.pairs.remove(&name);
                continue;
            }
            match std::fs::remove_file(&path) {
                Ok(()) => {
                    self.pairs.remove(&name);
                    outcome.removed.push(name);
                }
                Err(_) if !path.exists() => {
                    self.pairs.remove(&name);
                    outcome.removed.push(name);
                }
                Err(e) => {
                    outcome
                        .failed
                        .push((name, format!("cannot remove {}: {e}", path.display())));
                }
            }
        }
        for reject in &outcome.failed {
            eprintln!("sync: pair '{}' failed: {}", reject.0, reject.1);
        }
        if outcome.failed.is_empty() {
            self.last_success_unix = Some(unix_now());
        }
        self.metrics.pairs_backing_off.set(
            self.pairs
                .values()
                .filter(|p| p.next_attempt.is_some())
                .count() as u64,
        );
        if let (Some(store), Some(mut root)) = (tracer.as_ref(), root) {
            root.attr_int("updated", outcome.updated.len() as u64);
            root.attr_int("unchanged", outcome.unchanged as u64);
            root.attr_int("failed", outcome.failed.len() as u64);
            root.attr_int("removed", outcome.removed.len() as u64);
            store.finish(root);
        }
        Ok(outcome)
    }

    /// Fetches and parses the manifest, honouring the cached ETag.
    /// A pre-`/v1` primary 404s the versioned route; the engine falls
    /// back to the legacy spelling once and sticks with it (the parser
    /// accepts both body shapes either way).
    fn fetch_manifest(&mut self, outcome: &mut SyncOutcome) -> Result<(), String> {
        let path = if self.legacy_routes {
            "/pairs/manifest"
        } else {
            "/v1/pairs/manifest"
        };
        let mut response =
            self.client
                .get(path, self.manifest_etag.as_deref(), MAX_MANIFEST_BYTES)?;
        if response.status == 404 && !self.legacy_routes {
            self.legacy_routes = true;
            response = self.client.get(
                "/pairs/manifest",
                self.manifest_etag.as_deref(),
                MAX_MANIFEST_BYTES,
            )?;
        }
        match response.status {
            304 => Ok(()), // catalog unchanged: reuse the parsed manifest
            200 => {
                outcome.manifest_bytes += response.body.len() as u64;
                self.metrics.manifest_bytes.add(response.body.len() as u64);
                let text = std::str::from_utf8(&response.body)
                    .map_err(|_| "manifest is not UTF-8".to_owned())?;
                let (entries, rejected) = parse_manifest(text)?;
                for why in rejected {
                    eprintln!("sync: manifest from {}: {why}", self.upstream());
                }
                self.manifest = entries;
                self.manifest_etag = response.etag().map(str::to_owned);
                Ok(())
            }
            other => Err(format!(
                "manifest fetch returned HTTP {other}: {}",
                String::from_utf8_lossy(&response.body)
            )),
        }
    }

    /// Downloads one pair to a temp file, validates, and installs it.
    /// Returns the content checksum of the image actually installed, or
    /// `None` when the primary answered `304` (our copy was already
    /// current despite a stale manifest) and nothing was installed.
    fn transfer_pair(
        &mut self,
        entry: &ManifestEntry,
        outcome: &mut SyncOutcome,
    ) -> Result<Option<u64>, String> {
        let local_etag = self
            .pairs
            .get(&entry.name)
            .and_then(|p| p.local)
            .map(|(_, sum)| format!("{sum:016x}"));
        let path = if self.legacy_routes {
            format!("/pairs/{}/snapshot", entry.name)
        } else {
            format!("/v1/pairs/{}/snapshot", entry.name)
        };
        let response = self
            .client
            .get(&path, local_etag.as_deref(), self.max_snapshot_bytes)?;
        match response.status {
            304 => return Ok(None),
            200 => {}
            other => {
                return Err(format!(
                    "snapshot fetch returned HTTP {other}: {}",
                    String::from_utf8_lossy(&response.body)
                ))
            }
        }
        outcome.snapshot_bytes += response.body.len() as u64;
        self.metrics.snapshot_bytes.add(response.body.len() as u64);
        // The transfer's own ETag is authoritative when present — the
        // file may legitimately have changed on the primary between the
        // manifest poll and this fetch.
        let expected = match response.etag().map(|h| u64::from_str_radix(h, 16)) {
            Some(Ok(sum)) => sum,
            Some(Err(_)) => return Err("unparseable transfer ETag".into()),
            None => entry.checksum.expect("caller checked"),
        };
        // Checksum and format are validated on the bytes in hand; the
        // section table is validated off the temp file via mmap, so the
        // image is never duplicated in memory.
        validate_bytes(&response.body, expected)?;
        let path = self.pair_path(&entry.name);
        let tmp = self
            .dest
            .join(format!(".{}.sync.tmp.{}", entry.name, std::process::id()));
        let install = || -> Result<(), String> {
            std::fs::write(&tmp, &response.body)
                .map_err(|e| format!("writing {}: {e}", tmp.display()))?;
            validate_file(&tmp)?;
            std::fs::rename(&tmp, &path)
                .map_err(|e| format!("installing {}: {e}", path.display()))?;
            Ok(())
        };
        install().inspect_err(|_| {
            std::fs::remove_file(&tmp).ok();
        })?;
        Ok(Some(expected))
    }

    /// A point-in-time snapshot of replication health.
    pub fn status(&self) -> ReplicationStatus {
        ReplicationStatus {
            upstream: self.upstream().to_owned(),
            syncs: self.syncs,
            last_attempt_unix: self.last_attempt_unix,
            last_success_unix: self.last_success_unix,
            last_error: self.last_error.clone(),
            pairs: self
                .pairs
                .iter()
                .map(|(name, p)| PairReplicationStatus {
                    name: name.clone(),
                    remote_generation: p.remote_generation,
                    synced_generation: p.synced_generation,
                    lag: p.remote_generation.saturating_sub(p.synced_generation),
                    failures: u64::from(p.failures),
                    backing_off: p.next_attempt.is_some(),
                    last_error: p.last_error.clone(),
                })
                .collect(),
        }
    }

    /// The engine's transfer counters. Clone the `Arc`s out of the
    /// returned struct to register them in a metrics registry; they stay
    /// live for the engine's whole lifetime.
    pub fn metrics(&self) -> &SyncMetrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    #[test]
    fn parses_and_filters_manifests() {
        let (entries, rejected) = parse_manifest(
            r#"{"pairs":[
                {"name":"good","format":1,"generation":2,"bytes":10,"checksum":"ff"},
                {"name":"../evil","format":1,"generation":1,"bytes":10,"checksum":"00"},
                {"name":"nosum","format":2,"generation":3,"bytes":10},
                {"name":"badsum","format":1,"generation":1,"bytes":10,"checksum":"zz"}]}"#,
        )
        .unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "good");
        assert_eq!(entries[0].checksum, Some(0xff));
        assert_eq!(entries[1].name, "nosum");
        assert_eq!(entries[1].checksum, None);
        assert_eq!(rejected.len(), 2, "{rejected:?}");
        assert!(rejected[0].contains("../evil"), "{rejected:?}");

        assert!(parse_manifest("{}").is_err());
        assert!(parse_manifest("not json").is_err());
    }

    /// The `/v1` manifest arrives wrapped in the `{"data":…}` envelope;
    /// both that and the bare pre-v1 shape must parse identically.
    #[test]
    fn parses_enveloped_manifests() {
        let bare =
            r#"{"pairs":[{"name":"p","format":2,"generation":1,"bytes":9,"checksum":"aa"}]}"#;
        let enveloped = format!("{{\"data\":{bare}}}");
        let (a, _) = parse_manifest(bare).unwrap();
        let (b, _) = parse_manifest(&enveloped).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].checksum, Some(0xaa));
    }

    #[test]
    fn validation_rejects_garbage_and_wrong_kinds() {
        let dir = std::env::temp_dir().join("paris_replica_validate_unit");
        std::fs::create_dir_all(&dir).unwrap();

        // Arbitrary bytes: right checksum, no snapshot framing.
        let garbage = dir.join("garbage.bin");
        std::fs::write(&garbage, b"not a snapshot at all").unwrap();
        let sum = checksum_v2(b"not a snapshot at all");
        let err = validate_snapshot_file(&garbage, sum).unwrap_err();
        assert!(err.contains("framing"), "{err}");
        // Wrong advertised checksum fails before framing is even looked at.
        let err = validate_snapshot_file(&garbage, sum ^ 1).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");

        // A well-formed snapshot of the wrong kind (single KB).
        let kb = {
            let mut b = paris_kb::KbBuilder::new("k");
            b.add_fact("http://a/x", "http://a/r", "http://a/y");
            b.build()
        };
        let kb_snap = dir.join("kb.snap");
        paris_kb::snapshot_v2::save_kb_v2(&kb, &kb_snap).unwrap();
        let sum = checksum_v2(&std::fs::read(&kb_snap).unwrap());
        let err = validate_snapshot_file(&kb_snap, sum).unwrap_err();
        assert!(err.contains("aligned-pair"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A pre-`/v1` primary 404s the versioned manifest route; the
    /// engine must fall back to the legacy spellings (manifest *and*
    /// snapshot) and keep mirroring.
    #[test]
    fn falls_back_to_legacy_routes_on_a_pre_v1_primary() {
        // Garbage bytes under a correct checksum: reaching the transfer
        // stage (and its framing rejection) through the legacy route is
        // what proves the fallback fetched the snapshot body.
        let snapshot_body = b"not a real snapshot".to_vec();
        let checksum = checksum_v2(&snapshot_body);
        let manifest = format!(
            r#"{{"pairs":[{{"name":"p","format":1,"generation":1,"bytes":{},"checksum":"{checksum:016x}"}}]}}"#,
            snapshot_body.len()
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let primary = std::thread::spawn(move || {
            let mut seen = Vec::new();
            // v1 manifest (404), legacy manifest, legacy snapshot.
            for _ in 0..3 {
                let (mut conn, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(conn.try_clone().unwrap());
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                seen.push(line.trim_end().to_owned());
                loop {
                    let mut h = String::new();
                    reader.read_line(&mut h).unwrap();
                    if h == "\r\n" || h.is_empty() {
                        break;
                    }
                }
                let (status, body): (&str, &[u8]) = if line.starts_with("GET /v1/") {
                    ("404 Not Found", b"{\"error\":\"no such route\"}")
                } else if line.starts_with("GET /pairs/manifest") {
                    ("200 OK", manifest.as_bytes())
                } else {
                    ("200 OK", &snapshot_body)
                };
                conn.write_all(
                    format!(
                        "HTTP/1.1 {status}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                        body.len()
                    )
                    .as_bytes(),
                )
                .unwrap();
                conn.write_all(body).unwrap();
            }
            seen
        });

        let dir = std::env::temp_dir().join("paris_replica_legacy_fallback_unit");
        std::fs::remove_dir_all(&dir).ok();
        let mut engine = SyncEngine::new(&format!("http://{addr}"), &dir).unwrap();
        let outcome = engine.sync_once().unwrap();
        let seen = primary.join().unwrap();
        assert!(seen[0].starts_with("GET /v1/pairs/manifest"), "{seen:?}");
        assert!(seen[1].starts_with("GET /pairs/manifest"), "{seen:?}");
        assert!(seen[2].starts_with("GET /pairs/p/snapshot"), "{seen:?}");
        // The transfer reached validation (and was rightly rejected —
        // the body is not a snapshot); the routes are what's under test.
        assert_eq!(outcome.failed.len(), 1, "{outcome:?}");
        assert!(outcome.failed[0].1.contains("framing"), "{outcome:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A rogue primary advertising a checksum its body does not match:
    /// the transfer must be rejected, nothing installed, no temp litter.
    #[test]
    fn corrupted_transfer_is_rejected_without_install() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let manifest = r#"{"pairs":[{"name":"evil","format":1,"generation":1,"bytes":7,"checksum":"0000000000000bad"}]}"#;
        let rogue = std::thread::spawn(move || {
            // Serve two requests (manifest, then the snapshot) then exit.
            for _ in 0..2 {
                let (mut conn, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(conn.try_clone().unwrap());
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let body: &[u8] = if line.starts_with("GET /v1/pairs/manifest") {
                    manifest.as_bytes()
                } else {
                    b"garbage"
                };
                loop {
                    let mut h = String::new();
                    reader.read_line(&mut h).unwrap();
                    if h == "\r\n" || h.is_empty() {
                        break;
                    }
                }
                conn.write_all(
                    format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                        body.len()
                    )
                    .as_bytes(),
                )
                .unwrap();
                conn.write_all(body).unwrap();
            }
        });

        let dir = std::env::temp_dir().join("paris_replica_corrupt_unit");
        std::fs::remove_dir_all(&dir).ok();
        let mut engine = SyncEngine::new(&format!("http://{addr}"), &dir).unwrap();
        let outcome = engine.sync_once().unwrap();
        assert!(outcome.updated.is_empty());
        assert_eq!(outcome.failed.len(), 1, "{outcome:?}");
        assert!(outcome.failed[0].1.contains("checksum"), "{outcome:?}");
        // Nothing installed, and the temp file was cleaned up.
        let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        // The failing pair is now backing off.
        let status = engine.status();
        assert_eq!(status.pairs.len(), 1);
        assert!(status.pairs[0].last_error.is_some());
        rogue.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
