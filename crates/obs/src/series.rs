//! Per-iteration convergence series for alignment runs.
//!
//! A [`RunSeries`] buffers one alignment run's per-iteration
//! measurements ([`IterationPoint`]s, pushed by the aligner's observer,
//! `paris_core::Observe`) with a fixed cardinality, so a serving daemon
//! can expose the live convergence curve of a running `POST /align` job
//! — dirty counts, assignment churn, pairs appearing and vanishing, the
//! sharpening equivalence-probability distribution, per-pass durations —
//! without unbounded memory, however long the fixpoint runs.
//!
//! Scores are probabilities in `[0, 1]`; the histogram machinery in this
//! crate records `u64` samples, so probabilities are recorded in
//! **per-mille** via [`score_bucket`] (0‥=1000). A distribution that
//! piles up near 1000 is a run whose assignments have sharpened — the
//! paper's qualitative convergence story, made measurable.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{Histogram, HistogramSnapshot};

/// Fixed per-mille scale for probability scores recorded into `u64`
/// histograms.
pub const SCORE_SCALE: u64 = 1000;

/// Default cap on buffered iteration points — far above any real
/// fixpoint's iteration count, but a hard bound nonetheless.
pub const DEFAULT_SERIES_CAP: usize = 512;

/// The histogram sample of a probability score: per-mille, clamped to
/// `[0, 1]` first.
#[inline]
pub fn score_bucket(p: f64) -> u64 {
    (p.clamp(0.0, 1.0) * SCORE_SCALE as f64).round() as u64
}

/// A per-mille histogram snapshot of a stream of probability scores.
pub fn score_histogram(scores: impl IntoIterator<Item = f64>) -> HistogramSnapshot {
    let h = Histogram::new();
    for p in scores {
        h.record(score_bucket(p));
    }
    h.snapshot()
}

/// One point of a convergence series: a fixpoint iteration's row plus
/// the live-monitoring extras — pair turnover and the score
/// distribution.
#[derive(Clone, Debug)]
pub struct IterationPoint {
    /// 1-based iteration number.
    pub iteration: usize,
    /// KB-1 rows rescored this iteration (the dirty set).
    pub dirty: u64,
    /// Instances whose maximal assignment changed (churn).
    pub changed: u64,
    /// Instances assigned now that were unassigned before.
    pub new_pairs: u64,
    /// Instances unassigned now that were assigned before.
    pub dropped_pairs: u64,
    /// Instances with an assignment after this iteration.
    pub assigned: u64,
    /// Distribution of assignment probabilities, per-mille
    /// ([`score_bucket`]).
    pub scores: HistogramSnapshot,
    /// Instance-pass wall time, microseconds.
    pub instance_us: u64,
    /// Sub-relation-pass wall time, microseconds.
    pub subrelation_us: u64,
}

/// A bounded buffer of one run's [`IterationPoint`]s, shareable across
/// threads: the aligner pushes from its runner thread while the daemon's
/// request workers snapshot it for `GET /v1/jobs/<id>`. Points past the
/// cap are counted, not stored.
pub struct RunSeries {
    cap: usize,
    points: Mutex<Vec<IterationPoint>>,
    truncated: AtomicU64,
}

impl Default for RunSeries {
    fn default() -> Self {
        RunSeries::with_capacity(DEFAULT_SERIES_CAP)
    }
}

impl RunSeries {
    /// An empty series with the default cap.
    pub fn new() -> RunSeries {
        RunSeries::default()
    }

    /// An empty series retaining at most `cap` points.
    pub fn with_capacity(cap: usize) -> RunSeries {
        RunSeries {
            cap,
            points: Mutex::new(Vec::new()),
            truncated: AtomicU64::new(0),
        }
    }

    /// The configured cap.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Appends one iteration's measurements; points beyond the cap are
    /// dropped and counted. A poisoned lock degrades to dropping.
    pub fn push(&self, point: IterationPoint) {
        let Ok(mut points) = self.points.lock() else {
            self.truncated.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if points.len() < self.cap {
            points.push(point);
        } else {
            self.truncated.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Points buffered so far.
    pub fn len(&self) -> usize {
        self.points.lock().map(|p| p.len()).unwrap_or(0)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Points dropped past the cap.
    pub fn truncated(&self) -> u64 {
        self.truncated.load(Ordering::Relaxed)
    }

    /// A copy of the buffered points, iteration order.
    pub fn snapshot(&self) -> Vec<IterationPoint> {
        self.points.lock().map(|p| p.clone()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(iteration: usize) -> IterationPoint {
        IterationPoint {
            iteration,
            dirty: 10,
            changed: 2,
            new_pairs: 1,
            dropped_pairs: 0,
            assigned: 8,
            scores: score_histogram([0.5, 0.9, 1.0]),
            instance_us: 100,
            subrelation_us: 50,
        }
    }

    #[test]
    fn score_buckets_are_per_mille_and_clamped() {
        assert_eq!(score_bucket(0.0), 0);
        assert_eq!(score_bucket(1.0), 1000);
        assert_eq!(score_bucket(0.5), 500);
        assert_eq!(score_bucket(-0.3), 0);
        assert_eq!(score_bucket(7.0), 1000);
    }

    #[test]
    fn series_is_bounded_and_counts_truncation() {
        let series = RunSeries::with_capacity(3);
        assert!(series.is_empty());
        for i in 1..=5 {
            series.push(point(i));
        }
        assert_eq!(series.len(), 3);
        assert_eq!(series.truncated(), 2);
        let points = series.snapshot();
        assert_eq!(
            points.iter().map(|p| p.iteration).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(points[0].scores.count, 3);
    }

    #[test]
    fn score_histogram_tracks_the_distribution() {
        let snap = score_histogram([0.1, 0.9, 0.95, 1.0]);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.max, 1000);
        assert!(snap.quantile(0.99) >= 900);
    }
}
