//! Server-side instrumentation: the instrument set behind `GET /v1/metrics`
//! and the structured per-request log.
//!
//! Everything recorded on the request path is a relaxed atomic bump
//! against handles resolved **once at startup** — route and status
//! classes live in fixed arrays looked up by a `&'static str` scan, and
//! per-pair counters are created on a pair's first request and cached,
//! so the steady-state hot path neither allocates nor takes the registry
//! lock. Gauges (pair generations, replication lag) are
//! refreshed at scrape time instead of being maintained continuously.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::SystemTime;

use paris_obs as obs;

use crate::http::Request;
use crate::json;

/// Every route class the server exports metrics for. Requests are
/// classified by *path shape* (independent of the `/v1` prefix, so a
/// legacy alias and its v1 spelling share one series) and fall back to
/// `other` — the label set is bounded no matter what peers request.
pub(crate) const ROUTE_CLASSES: [&str; 17] = [
    "healthz",
    "pairs",
    "manifest",
    "sameas",
    "neighbors",
    "explain",
    "query",
    "stats",
    "diagnostics",
    "pair_healthz",
    "snapshot",
    "reload",
    "align",
    "jobs",
    "debug",
    "metrics",
    "other",
];

/// The route class of a request path (see [`ROUTE_CLASSES`]).
pub(crate) fn route_class(path: &str) -> &'static str {
    let p = match path.strip_prefix("/v1") {
        Some("") => "/",
        Some(rest) if rest.starts_with('/') => rest,
        _ => path,
    };
    if let Some(rest) = p.strip_prefix("/pairs/") {
        if rest == "manifest" {
            return "manifest";
        }
        return match rest.split_once('/').map(|(_, op)| op) {
            Some("sameas") => "sameas",
            Some("neighbors") => "neighbors",
            Some("explain") => "explain",
            Some("query") => "query",
            Some("stats") => "stats",
            Some("diagnostics") => "diagnostics",
            Some("healthz") => "pair_healthz",
            Some("snapshot") => "snapshot",
            Some("reload") => "reload",
            _ => "other",
        };
    }
    match p {
        "/pairs" => "pairs",
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/align" => "align",
        "/stats" => "stats",
        "/sameas" => "sameas",
        "/neighbors" => "neighbors",
        "/reload" => "reload",
        _ if p.starts_with("/jobs/") => "jobs",
        _ if p == "/debug/traces"
            || p.starts_with("/debug/traces/")
            || p == "/debug/profile"
            || p == "/debug/runs" =>
        {
            "debug"
        }
        _ => "other",
    }
}

/// The pair a request path addresses, if it names one explicitly.
pub(crate) fn pair_of(path: &str) -> Option<&str> {
    let p = path.strip_prefix("/v1").unwrap_or(path);
    let rest = p.strip_prefix("/pairs/")?;
    let name = rest.split('/').next().unwrap_or("");
    (!name.is_empty() && name != "manifest").then_some(name)
}

/// The request-path instrument set, fully resolved at construction.
pub(crate) struct ServerMetrics {
    pub(crate) registry: obs::Registry,
    /// `(class, request counter, latency histogram)` — one row per
    /// [`ROUTE_CLASSES`] entry, scanned linearly (16 entries).
    routes: Vec<(&'static str, Arc<obs::Counter>, Arc<obs::Histogram>)>,
    /// Status classes `2xx`..`5xx` (everything else lands in `other`).
    status: Vec<(&'static str, Arc<obs::Counter>)>,
    /// Per-pair request counters, created on a pair's first request.
    pair_requests: RwLock<HashMap<String, Arc<obs::Counter>>>,
    /// Conditional-`GET` cache outcomes: `304` answered vs. `ETag`-bearing
    /// `200` served in full.
    pub(crate) etag_hits: Arc<obs::Counter>,
    pub(crate) etag_misses: Arc<obs::Counter>,
    /// Seed of generated request ids (process-unique enough: start time
    /// nanos mixed with the pid).
    id_seed: u64,
    id_counter: AtomicU64,
}

impl ServerMetrics {
    pub(crate) fn new() -> ServerMetrics {
        let registry = obs::Registry::new();
        let routes = ROUTE_CLASSES
            .iter()
            .map(|&class| {
                let labels = &[("route", class)];
                (
                    class,
                    registry.counter(
                        "paris_route_requests_total",
                        "Requests served, by route class.",
                        labels,
                    ),
                    registry.histogram(
                        "paris_route_latency_microseconds",
                        "Request handling latency in microseconds, by route class.",
                        labels,
                    ),
                )
            })
            .collect();
        let status = ["2xx", "3xx", "4xx", "5xx", "other"]
            .iter()
            .map(|&class| {
                (
                    class,
                    registry.counter(
                        "paris_responses_total",
                        "Responses sent, by status class.",
                        &[("class", class)],
                    ),
                )
            })
            .collect();
        let etag_hits = registry.counter(
            "paris_etag_hits_total",
            "Cacheable requests answered 304 from the client's validator.",
            &[],
        );
        let etag_misses = registry.counter(
            "paris_etag_misses_total",
            "Cacheable requests served in full (ETag attached).",
            &[],
        );
        let id_seed = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
            ^ (u64::from(std::process::id()) << 32);
        ServerMetrics {
            registry,
            routes,
            status,
            pair_requests: RwLock::new(HashMap::new()),
            etag_hits,
            etag_misses,
            id_seed,
            id_counter: AtomicU64::new(0),
        }
    }

    /// Records one finished request against its route class, status
    /// class, latency histogram, and (when the path names one) pair.
    pub(crate) fn record(&self, class: &'static str, status: u16, latency_us: u64) {
        for (c, counter, histogram) in &self.routes {
            if *c == class {
                counter.inc();
                histogram.record(latency_us);
                break;
            }
        }
        let status_class = match status {
            200..=299 => "2xx",
            300..=399 => "3xx",
            400..=499 => "4xx",
            500..=599 => "5xx",
            _ => "other",
        };
        for (c, counter) in &self.status {
            if *c == status_class {
                counter.inc();
                break;
            }
        }
    }

    /// The request counter of one pair. Steady state is a read-locked
    /// borrowed-key lookup; the write path runs once per pair name.
    pub(crate) fn pair_counter(&self, pair: &str) -> Arc<obs::Counter> {
        if let Some(c) = self
            .pair_requests
            .read()
            .expect("pair counters poisoned")
            .get(pair)
        {
            return Arc::clone(c);
        }
        let counter = self.registry.counter(
            "paris_pair_requests_total",
            "Requests addressed to a pair explicitly, by pair.",
            &[("pair", pair)],
        );
        self.pair_requests
            .write()
            .expect("pair counters poisoned")
            .insert(pair.to_owned(), Arc::clone(&counter));
        counter
    }

    /// The response's `X-Request-Id`: the client's own id echoed back
    /// when it sent a sane one, else a fresh `seed-serial` id.
    pub(crate) fn request_id(&self, req: &Request) -> String {
        if let Some(id) = req.header("x-request-id") {
            let sane = !id.is_empty()
                && id.len() <= 64
                && id
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'));
            if sane {
                return id.to_owned();
            }
        }
        let n = self.id_counter.fetch_add(1, Ordering::Relaxed);
        format!("{:08x}-{n:x}", self.id_seed as u32)
    }
}

/// Shape of the per-request log line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogFormat {
    /// No request logging (the library/test default).
    Off,
    /// One human-readable `key=value` line per request.
    Text,
    /// One JSON object per line (machine-ingestable).
    Json,
}

impl LogFormat {
    /// Parses a `--log-format` value.
    pub fn parse(s: &str) -> Option<LogFormat> {
        match s {
            "off" => Some(LogFormat::Off),
            "text" => Some(LogFormat::Text),
            "json" => Some(LogFormat::Json),
            _ => None,
        }
    }
}

/// The structured request log: one line per finished request, written to
/// stderr. Each line is rendered into one buffer and written with a
/// single locked call, so concurrent workers never interleave partial
/// lines.
pub(crate) struct RequestLog {
    format: LogFormat,
    out: Mutex<Box<dyn Write + Send>>,
}

impl RequestLog {
    pub(crate) fn new(format: LogFormat) -> Option<RequestLog> {
        if format == LogFormat::Off {
            return None;
        }
        Some(RequestLog {
            format,
            out: Mutex::new(Box::new(std::io::stderr())),
        })
    }

    #[cfg(test)]
    pub(crate) fn set_output(&self, w: Box<dyn Write + Send>) {
        *self.out.lock().expect("request log poisoned") = w;
    }

    /// Writes one request line. Log I/O failures are swallowed — losing
    /// a log line must never fail the request that produced it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn write(
        &self,
        id: &str,
        method: &str,
        path: &str,
        pair: Option<&str>,
        status: u16,
        bytes: u64,
        latency_us: u64,
    ) {
        let ts_ms = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let line = match self.format {
            LogFormat::Off => return,
            LogFormat::Text => {
                let pair = pair.unwrap_or("-");
                format!(
                    "ts_ms={ts_ms} id={id} method={method} path={path} pair={pair} \
                     status={status} bytes={bytes} latency_us={latency_us}\n"
                )
            }
            LogFormat::Json => {
                let mut obj = json::Object::new()
                    .int("ts_ms", ts_ms)
                    .str("id", id)
                    .str("method", method)
                    .str("path", path);
                if let Some(pair) = pair {
                    obj = obj.str("pair", pair);
                }
                let mut line = obj
                    .int("status", u64::from(status))
                    .int("bytes", bytes)
                    .int("latency_us", latency_us)
                    .build();
                line.push('\n');
                line
            }
        };
        // The request log is an append-only stream; the lock IS the
        // serialization point for interleaving-free lines.
        // audit:allow(no-lock-across-call): writes are line-buffered
        let mut out = self.out.lock().expect("request log poisoned");
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }

    /// Writes one `--slow-ms` slow-request line, carrying the pair the
    /// path addresses (when it names one) and the trace id (when
    /// tracing is on) so the operator can jump straight to
    /// `GET /v1/debug/traces/<trace>` for the span tree.
    pub(crate) fn write_slow(
        &self,
        id: &str,
        method: &str,
        path: &str,
        pair: Option<&str>,
        latency_us: u64,
        trace: Option<&str>,
    ) {
        let line = match self.format {
            LogFormat::Off => return,
            LogFormat::Text => {
                let pair = pair.unwrap_or("-");
                let trace = trace.unwrap_or("-");
                format!(
                    "slow_request id={id} method={method} path={path} pair={pair} \
                     latency_us={latency_us} trace={trace}\n"
                )
            }
            LogFormat::Json => {
                let mut obj = json::Object::new()
                    .str("event", "slow_request")
                    .str("id", id)
                    .str("method", method)
                    .str("path", path);
                if let Some(pair) = pair {
                    obj = obj.str("pair", pair);
                }
                obj = obj.int("latency_us", latency_us);
                if let Some(trace) = trace {
                    obj = obj.str("trace", trace);
                }
                let mut line = obj.build();
                line.push('\n');
                line
            }
        };
        // The request log is an append-only stream; the lock IS the
        // serialization point for interleaving-free lines.
        // audit:allow(no-lock-across-call): writes are line-buffered
        let mut out = self.out.lock().expect("request log poisoned");
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_classification_ignores_the_v1_prefix() {
        for (path, class) in [
            ("/healthz", "healthz"),
            ("/v1/healthz", "healthz"),
            ("/v1/metrics", "metrics"),
            ("/pairs", "pairs"),
            ("/v1/pairs", "pairs"),
            ("/v1/pairs/manifest", "manifest"),
            ("/pairs/movies/sameas", "sameas"),
            ("/v1/pairs/movies/sameas", "sameas"),
            ("/v1/pairs/movies/query", "query"),
            ("/v1/pairs/movies/healthz", "pair_healthz"),
            ("/v1/pairs/movies/snapshot", "snapshot"),
            ("/sameas", "sameas"),
            ("/stats", "stats"),
            ("/reload", "reload"),
            ("/v1/jobs/3", "jobs"),
            ("/v1/pairs/movies/diagnostics", "diagnostics"),
            ("/v1/debug/traces", "debug"),
            ("/v1/debug/traces/0af7651916cd43dd8448eb211c80319c", "debug"),
            ("/v1/debug/profile", "debug"),
            ("/v1/debug/runs", "debug"),
            ("/v1/pairs/movies", "other"),
            ("/nope", "other"),
        ] {
            assert_eq!(route_class(path), class, "{path}");
            assert!(ROUTE_CLASSES.contains(&route_class(path)), "{path}");
        }
    }

    #[test]
    fn pair_extraction() {
        assert_eq!(pair_of("/v1/pairs/movies/sameas"), Some("movies"));
        assert_eq!(pair_of("/pairs/movies/stats"), Some("movies"));
        assert_eq!(pair_of("/v1/pairs/manifest"), None);
        assert_eq!(pair_of("/v1/healthz"), None);
        assert_eq!(pair_of("/sameas"), None);
    }

    #[test]
    fn request_ids_echo_sane_client_ids_only() {
        let m = ServerMetrics::new();
        let req = |id: Option<&str>| Request {
            method: "GET".into(),
            path: "/healthz".into(),
            query: Vec::new(),
            headers: id
                .map(|v| vec![("x-request-id".to_owned(), v.to_owned())])
                .unwrap_or_default(),
            body: Vec::new(),
            http10: false,
        };
        assert_eq!(m.request_id(&req(Some("abc-123.X"))), "abc-123.X");
        // Injection attempts and garbage get a generated id instead.
        let generated = m.request_id(&req(Some("evil\r\nSet-Cookie: x")));
        assert_ne!(generated, "evil\r\nSet-Cookie: x");
        let a = m.request_id(&req(None));
        let b = m.request_id(&req(None));
        assert_ne!(a, b, "generated ids must be distinct");
    }

    #[test]
    fn record_touches_route_and_status_series() {
        let m = ServerMetrics::new();
        m.record("sameas", 200, 120);
        m.record("sameas", 404, 80);
        m.record("metrics", 200, 10);
        assert_eq!(
            m.registry
                .counter_value("paris_route_requests_total", &[("route", "sameas")]),
            Some(2)
        );
        assert_eq!(
            m.registry
                .counter_value("paris_responses_total", &[("class", "4xx")]),
            Some(1)
        );
        assert_eq!(
            m.registry
                .counter_value("paris_responses_total", &[("class", "2xx")]),
            Some(2)
        );
        m.pair_counter("movies").inc();
        m.pair_counter("movies").inc();
        assert_eq!(
            m.registry
                .counter_value("paris_pair_requests_total", &[("pair", "movies")]),
            Some(2)
        );
    }

    #[test]
    fn log_lines_render_both_formats() {
        let log = RequestLog::new(LogFormat::Json).unwrap();
        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        struct Sink(Arc<Mutex<Vec<u8>>>);
        impl Write for Sink {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        log.set_output(Box::new(Sink(Arc::clone(&buf))));
        log.write("id1", "GET", "/v1/healthz", None, 200, 42, 17);
        log.write("id2", "GET", "/v1/pairs/m/sameas", Some("m"), 404, 9, 3);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"id\":\"id1\""), "{}", lines[0]);
        assert!(lines[0].contains("\"status\":200"), "{}", lines[0]);
        assert!(lines[1].contains("\"pair\":\"m\""), "{}", lines[1]);
        assert!(lines[1].contains("\"latency_us\":3"), "{}", lines[1]);

        assert!(RequestLog::new(LogFormat::Off).is_none());
        assert_eq!(LogFormat::parse("json"), Some(LogFormat::Json));
        assert_eq!(LogFormat::parse("bogus"), None);
    }
}
