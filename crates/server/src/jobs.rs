//! Background alignment jobs.
//!
//! `POST /align` enqueues an alignment of two *single-KB* snapshot files;
//! the request returns immediately with a job id and the client polls
//! `GET /jobs/<id>`. Jobs run on a small capped pool of dedicated runner
//! threads (alignments are long-lived and must neither starve the
//! request workers nor multiply without bound), load both snapshots, run
//! PARIS, and optionally persist the result as an aligned-pair snapshot
//! ready for a future `paris serve`.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use paris_core::{
    AlignedPairSnapshot, Aligner, AssignmentSketch, MappedPairSnapshot, Observe, OwnedAlignment,
    ParisConfig,
};
use paris_kb::MappedKbSnapshot;
use paris_obs::series::RunSeries;
use paris_obs::span::{Span, SpanCollector, SpanStore, TraceId};

use crate::runs::{RunHistory, RunOutcome};

/// Final statistics of a completed job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Assigned KB-1 instances in the final alignment.
    pub aligned_instances: usize,
    /// Iterations the run took.
    pub iterations: usize,
    /// Whether the run converged before the cap.
    pub converged: bool,
    /// Wall-clock seconds, including snapshot loading.
    pub seconds: f64,
    /// Where the aligned-pair snapshot was written, if requested.
    pub out_path: Option<String>,
}

/// Lifecycle of one job.
#[derive(Clone, Debug)]
pub enum JobState {
    /// Accepted, thread not yet running the alignment.
    Queued,
    /// Alignment in progress.
    Running,
    /// Finished successfully.
    Done(JobOutcome),
    /// Failed; the message is safe to return to the client.
    Failed(String),
}

impl JobState {
    /// Status label for the API.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

/// Inputs of one alignment job.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// Path to the left single-KB snapshot.
    pub left: String,
    /// Path to the right single-KB snapshot.
    pub right: String,
    /// Optional output path for the aligned-pair snapshot.
    pub out: Option<String>,
    /// Iteration cap override.
    pub max_iterations: Option<usize>,
}

/// Registry of all jobs submitted to this process.
///
/// Alignments are heavy (two full KBs in memory plus the fixed point), so
/// jobs do not get a thread each: they queue, and at most
/// [`MAX_CONCURRENT_JOBS`] lazily spawned runner threads drain the queue.
/// A flood of `POST /align` requests therefore costs queue entries, not
/// memory and cores.
pub struct JobStore {
    next_id: AtomicU64,
    states: Mutex<HashMap<u64, JobState>>,
    /// Terminal (done/failed) job ids, oldest first — evicted beyond
    /// [`MAX_RETAINED_JOBS`] so a long-lived daemon's memory stays bounded.
    terminal_order: Mutex<std::collections::VecDeque<u64>>,
    queue: Mutex<std::collections::VecDeque<(u64, JobRequest)>>,
    available: std::sync::Condvar,
    runners: AtomicU64,
    /// Where finished jobs drain their span trees (`None` in bare-store
    /// tests; the server hands in its `/v1/debug/traces` store).
    spans: Option<Arc<SpanStore>>,
    /// Live span collectors of *running* jobs, keyed by job id — what
    /// `GET /v1/jobs/<id>` renders as in-flight fixpoint progress.
    live: Mutex<HashMap<u64, Arc<SpanCollector>>>,
    /// Live per-iteration convergence series of *running* jobs, keyed
    /// by job id — the numeric companion to `live` (dirty counts,
    /// churn, score histograms per fixpoint iteration).
    live_series: Mutex<HashMap<u64, Arc<RunSeries>>>,
    /// Trace id of every job that has started, evicted with the job.
    trace_ids: Mutex<HashMap<u64, TraceId>>,
    /// Where finished jobs append their run record (`None` when the
    /// daemon runs without `--run-history`).
    runs: Option<Arc<RunHistory>>,
}

/// Upper bound on alignments running at once.
pub const MAX_CONCURRENT_JOBS: u64 = 2;

/// How many finished jobs stay pollable before the oldest are evicted.
pub const MAX_RETAINED_JOBS: usize = 256;

impl Default for JobStore {
    fn default() -> Self {
        JobStore {
            next_id: AtomicU64::new(0),
            states: Mutex::new(HashMap::new()),
            terminal_order: Mutex::new(std::collections::VecDeque::new()),
            queue: Mutex::new(std::collections::VecDeque::new()),
            available: std::sync::Condvar::new(),
            runners: AtomicU64::new(0),
            spans: None,
            live: Mutex::new(HashMap::new()),
            live_series: Mutex::new(HashMap::new()),
            trace_ids: Mutex::new(HashMap::new()),
            runs: None,
        }
    }
}

impl JobStore {
    /// An empty store.
    pub fn new() -> Self {
        JobStore::default()
    }

    /// An empty store that drains finished jobs' span trees into
    /// `spans` (a disabled store makes the drain a no-op).
    pub fn with_spans(spans: Arc<SpanStore>) -> Self {
        JobStore::with_observatory(spans, None)
    }

    /// [`with_spans`](Self::with_spans) plus an optional run history
    /// that finished jobs append their record to.
    pub fn with_observatory(spans: Arc<SpanStore>, runs: Option<Arc<RunHistory>>) -> Self {
        JobStore {
            spans: Some(spans),
            runs,
            ..JobStore::default()
        }
    }

    /// Enqueues a job; it runs as soon as a runner thread is free.
    pub fn submit(self: &Arc<Self>, request: JobRequest) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.states
            .lock()
            .expect("job lock")
            .insert(id, JobState::Queued);
        self.queue
            .lock()
            .expect("job queue lock")
            .push_back((id, request));
        self.available.notify_one();

        // Lazily grow the runner pool up to the cap. fetch_update retries
        // on contention, so two concurrent first submits spawn two
        // runners instead of racing one CAS and leaving the pool short.
        let grown = self
            .runners
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < MAX_CONCURRENT_JOBS).then_some(n + 1)
            });
        if let Ok(previous) = grown {
            let store = Arc::downgrade(self);
            std::thread::Builder::new()
                .name(format!("paris-align-runner-{previous}"))
                .spawn(move || runner_loop(store))
                .expect("spawning job runner thread");
        }
        id
    }

    /// Current state of a job.
    pub fn get(&self, id: u64) -> Option<JobState> {
        self.states.lock().expect("job lock").get(&id).cloned()
    }

    /// Number of jobs ever submitted.
    pub fn submitted(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Trace id of a job that has started running (survives completion
    /// until the job itself is evicted).
    pub fn trace_of(&self, id: u64) -> Option<TraceId> {
        self.trace_ids
            .lock()
            .map(|t| t.get(&id).copied())
            .unwrap_or_default()
    }

    /// Snapshot of a *running* job's spans (start-ordered), `None` once
    /// the job finished (its trace then lives in the span store).
    pub fn live_spans(&self, id: u64) -> Option<Vec<Span>> {
        let collector = self.live.lock().ok()?.get(&id).cloned()?;
        Some(collector.snapshot())
    }

    /// The per-iteration convergence series of a *running* job, `None`
    /// once the job finished (its summary then lives in the run
    /// history).
    pub fn live_series(&self, id: u64) -> Option<Arc<RunSeries>> {
        self.live_series.lock().ok()?.get(&id).cloned()
    }

    fn set(&self, id: u64, state: JobState) {
        let terminal = matches!(state, JobState::Done(_) | JobState::Failed(_));
        let mut states = self.states.lock().expect("job lock");
        states.insert(id, state);
        if terminal {
            let mut order = self.terminal_order.lock().expect("job order lock");
            order.push_back(id);
            while order.len() > MAX_RETAINED_JOBS {
                if let Some(evicted) = order.pop_front() {
                    states.remove(&evicted);
                    if let Ok(mut traces) = self.trace_ids.lock() {
                        traces.remove(&evicted);
                    }
                }
            }
        }
    }
}

/// Drains the job queue until the owning store is dropped.
fn runner_loop(store: std::sync::Weak<JobStore>) {
    loop {
        // Re-upgrade each round so runners die with the store.
        let Some(store) = store.upgrade() else { return };
        let next = {
            let mut queue = store.queue.lock().expect("job queue lock");
            match queue.pop_front() {
                Some(item) => Some(item),
                None => {
                    // Bounded wait, then drop the strong reference and
                    // re-check liveness from the top.
                    let (mut queue, _) = store
                        .available
                        .wait_timeout(queue, std::time::Duration::from_millis(500))
                        .expect("job queue lock");
                    queue.pop_front()
                }
            }
        };
        let Some((id, request)) = next else { continue };
        store.set(id, JobState::Running);
        // Every job is one trace: a root `align_job` span with
        // load/align/save children, buffered live (`GET /v1/jobs/<id>`
        // renders in-flight fixpoint progress from the collector) and
        // drained into the daemon's span store when the job finishes.
        let mut root = Span::begin("align_job", TraceId::random(), None);
        root.attr_int("job", id);
        let collector = Arc::new(SpanCollector::new(root.context()));
        if let Ok(mut traces) = store.trace_ids.lock() {
            traces.insert(id, root.trace);
        }
        if let Ok(mut live) = store.live.lock() {
            live.insert(id, Arc::clone(&collector));
        }
        let series = Arc::new(RunSeries::new());
        if let Ok(mut live) = store.live_series.lock() {
            live.insert(id, Arc::clone(&series));
        }
        let state = match run_job(&request, &collector, &series) {
            Ok((outcome, sketch)) => {
                if let Some(runs) = &store.runs {
                    runs.record(RunOutcome {
                        job: id,
                        pair: pair_name(&request.left, &request.right),
                        iterations: outcome.iterations as u64,
                        converged: outcome.converged,
                        aligned_instances: outcome.aligned_instances as u64,
                        seconds: outcome.seconds,
                        sketch,
                    });
                }
                JobState::Done(outcome)
            }
            Err(message) => JobState::Failed(message),
        };
        root.attr_str("status", state.label());
        collector.finish(root);
        if let Ok(mut live) = store.live.lock() {
            live.remove(&id);
        }
        if let Ok(mut live) = store.live_series.lock() {
            live.remove(&id);
        }
        if let Some(spans) = &store.spans {
            spans.absorb(&collector);
        }
        store.set(id, state);
    }
}

/// The pair name a job records its run under: the two snapshot file
/// stems joined with `+` — stable across daemon restarts and job ids,
/// which is what generation counting and drift comparison key on.
fn pair_name(left: &str, right: &str) -> String {
    let stem = |p: &str| {
        Path::new(p)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| p.to_owned())
    };
    format!("{}+{}", stem(left), stem(right))
}

fn run_job(
    request: &JobRequest,
    collector: &SpanCollector,
    series: &RunSeries,
) -> Result<(JobOutcome, AssignmentSketch), String> {
    let t0 = Instant::now();
    let mut load = collector.begin("load_snapshots");
    let load_kb = |path: &str| {
        MappedKbSnapshot::open(path)
            .map(|snap| snap.kb().to_kb())
            .map_err(|e| format!("loading {path}: {e}"))
    };
    let kb1 = load_kb(&request.left)?;
    let kb2 = load_kb(&request.right)?;
    load.attr_int("entities_kb1", kb1.num_entities() as u64);
    load.attr_int("entities_kb2", kb2.num_entities() as u64);
    collector.finish(load);

    let mut config = ParisConfig::default();
    if let Some(cap) = request.max_iterations {
        config.max_iterations = cap.max(1);
    }
    // Record each iteration's pass spans under the `align` span and fill
    // the live per-iteration series `GET /v1/jobs/<id>` serves while we
    // run — a long batch job's progress is visible before it finishes.
    let mut align = collector.begin("align");
    let result = Aligner::new(&kb1, &kb2, config).run_with(&mut Observe {
        spans: Some((collector, align.id)),
        series: Some(series),
        progress: None,
    });
    let owned = OwnedAlignment::from_result(&result);
    let sketch = AssignmentSketch::of_result(&result);
    let outcome = JobOutcome {
        aligned_instances: result.instance_pairs().len(),
        iterations: result.iterations.len(),
        converged: result.converged(),
        seconds: t0.elapsed().as_secs_f64(),
        out_path: request.out.clone(),
    };
    drop(result);
    align.attr_int("iterations", outcome.iterations as u64);
    align.attr_int("aligned_instances", outcome.aligned_instances as u64);
    collector.finish(align);

    if let Some(out) = &request.out {
        let save = collector.begin("save_snapshot");
        let saved = MappedPairSnapshot::save_v2(&AlignedPairSnapshot::new(kb1, kb2, owned), out)
            .map_err(|e| format!("writing {out}: {e}"));
        collector.finish(save);
        saved?;
    }
    Ok((outcome, sketch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_kb::snapshot_v2::save_kb_v2;
    use paris_kb::KbBuilder;
    use paris_rdf::Literal;
    use std::time::Duration;

    fn tiny_kb(ns: &str) -> paris_kb::Kb {
        let mut b = KbBuilder::new(ns);
        for i in 0..4 {
            b.add_literal_fact(
                format!("http://{ns}/e{i}"),
                format!("http://{ns}/mail"),
                Literal::plain(format!("e{i}@x.org")),
            );
        }
        b.build()
    }

    fn wait_terminal(store: &Arc<JobStore>, id: u64) -> JobState {
        for _ in 0..600 {
            match store.get(id).expect("job exists") {
                JobState::Queued | JobState::Running => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                terminal => return terminal,
            }
        }
        panic!("job {id} did not finish");
    }

    #[test]
    fn job_aligns_two_kb_snapshots() {
        let dir = std::env::temp_dir().join("paris_jobs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let left = dir.join("left.snap");
        let right = dir.join("right.snap");
        let out = dir.join("pair.snap");
        save_kb_v2(&tiny_kb("a"), &left).unwrap();
        save_kb_v2(&tiny_kb("b"), &right).unwrap();

        let store = Arc::new(JobStore::new());
        let id = store.submit(JobRequest {
            left: left.to_string_lossy().into_owned(),
            right: right.to_string_lossy().into_owned(),
            out: Some(out.to_string_lossy().into_owned()),
            max_iterations: Some(3),
        });
        match wait_terminal(&store, id) {
            JobState::Done(outcome) => {
                assert_eq!(outcome.aligned_instances, 4);
                assert!(outcome.out_path.is_some());
            }
            other => panic!("unexpected state {other:?}"),
        }
        let pair = MappedPairSnapshot::open(&out).unwrap();
        assert_eq!(pair.alignment().aligned_instances(pair.kb1()), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flood_of_jobs_drains_through_capped_runners() {
        let dir = std::env::temp_dir().join("paris_jobs_flood_test");
        std::fs::create_dir_all(&dir).unwrap();
        let left = dir.join("left.snap");
        let right = dir.join("right.snap");
        save_kb_v2(&tiny_kb("a"), &left).unwrap();
        save_kb_v2(&tiny_kb("b"), &right).unwrap();

        let store = Arc::new(JobStore::new());
        let ids: Vec<u64> = (0..10)
            .map(|_| {
                store.submit(JobRequest {
                    left: left.to_string_lossy().into_owned(),
                    right: right.to_string_lossy().into_owned(),
                    out: None,
                    max_iterations: Some(2),
                })
            })
            .collect();
        // At most MAX_CONCURRENT_JOBS runner threads ever exist…
        assert!(store.runners.load(Ordering::Relaxed) <= MAX_CONCURRENT_JOBS);
        // …and every queued job still reaches a terminal state.
        for id in ids {
            match wait_terminal(&store, id) {
                JobState::Done(outcome) => assert_eq!(outcome.aligned_instances, 4),
                other => panic!("job {id}: unexpected state {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_fails_with_path_in_message() {
        let store = Arc::new(JobStore::new());
        let id = store.submit(JobRequest {
            left: "/nonexistent/left.snap".into(),
            right: "/nonexistent/right.snap".into(),
            out: None,
            max_iterations: None,
        });
        match wait_terminal(&store, id) {
            JobState::Failed(msg) => assert!(msg.contains("/nonexistent/left.snap"), "{msg}"),
            other => panic!("unexpected state {other:?}"),
        }
        assert_eq!(store.submitted(), 1);
        assert!(store.get(999).is_none());
    }
}
