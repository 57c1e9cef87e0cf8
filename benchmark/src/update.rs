//! The `update` stage: K deltas in sequence against the served pair.
//!
//! Per delta, timed from the delta file to the new generation being
//! served: load the delta(s) → hydrate the served image →
//! `update_snapshot` → `save_v2` over the served path → `POST …/reload`
//! until the generation moves. One extra reader connection keeps
//! issuing paced `sameas` requests throughout; any failed read fails
//! the run.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

use paris_core::{update_snapshot, IncrementalOptions, MappedPairSnapshot, PairImage, ParisConfig};
use paris_kb::delta::{apply_owned, KbDelta};

use crate::serve::{drive, reload, Daemon, Request, Tally};
use crate::setup::Inputs;
use crate::trace::Recorder;

/// The reader pauses this long between requests: about 1 500 reads a
/// second watch every reload without taking a core from the update.
const READER_PAUSE: std::time::Duration = std::time::Duration::from_micros(500);

#[derive(Default)]
pub struct Updates {
    /// Seconds per delta, file in → new generation served.
    pub per_delta_s: Vec<f64>,
    /// `update_snapshot` seconds per delta.
    pub incremental_s: Vec<f64>,
    /// `MappedPairSnapshot::save_v2` seconds per delta.
    pub write_s: Vec<f64>,
    /// Reload round trip per delta, ms.
    pub reload_ms: Vec<f64>,
    /// Standalone `delta::apply_owned` per delta, ms (traced runs only).
    pub delta_apply_ms: Vec<f64>,
    /// Σ rescored instance rows (`IncrementalReport`).
    pub rescored_rows: u64,
    /// Generation served after the last delta.
    pub generation: u64,
    /// What the reader connection saw while the deltas went in.
    pub reader: Tally,
}

fn load_delta(path: &Option<std::path::PathBuf>) -> Result<Option<KbDelta>, String> {
    path.as_ref()
        .map(|p| KbDelta::load(p).map_err(|e| format!("loading {}: {e}", p.display())))
        .transpose()
}

/// Applies every delta of `inputs` to the pair served from `pair_snap`.
/// `probe_apply` additionally times `delta::apply_owned` on copies of
/// the KBs (the per-layer reading; it costs a KB clone, so end-to-end
/// runs leave it off).
pub fn run_updates(
    daemon: &Daemon,
    inputs: &Inputs,
    pair_snap: &Path,
    config: &ParisConfig,
    reader_plan: Vec<Request>,
    probe_apply: bool,
    rec: &mut Recorder,
) -> Result<Updates, String> {
    let reader_plan: Vec<Request> = reader_plan.into_iter().map(Request::status_only).collect();
    let stop = AtomicBool::new(false);
    let mut out = Updates::default();
    let mut control = daemon.client();
    let mut reader_client = daemon.client();

    let result: Result<Tally, String> = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            drive(&mut reader_client, &reader_plan, |_| {
                std::thread::sleep(READER_PAUSE);
                stop.load(Ordering::Relaxed)
            })
        });
        let steps = (|| {
            let mut generation = 1;
            for files in &inputs.deltas {
                let step = rec.begin("update");
                let (deltas, _) = rec.time("kb.delta_load", || {
                    Ok::<_, String>([load_delta(&files[0])?, load_delta(&files[1])?])
                });
                let [delta1, delta2] = deltas?;
                let (image, _) = rec.time("paris.open", || PairImage::load(pair_snap));
                let image = image.map_err(|e| format!("opening {}: {e}", pair_snap.display()))?;
                let (snapshot, _) = rec.time("paris.hydrate", || image.into_decoded());

                if probe_apply {
                    let probe = rec.begin("probe.delta_apply");
                    let mut ms = 0.0;
                    for (kb, delta) in [(&snapshot.kb1, &delta1), (&snapshot.kb2, &delta2)] {
                        if let Some(delta) = delta {
                            let copy = kb.clone();
                            let (applied, s) =
                                rec.time("kb.delta_apply", || apply_owned(copy, delta));
                            applied.map_err(|e| format!("applying a delta: {e}"))?;
                            ms += s * 1e3;
                        }
                    }
                    out.delta_apply_ms.push(ms);
                    rec.end(probe);
                }

                let (updated, seconds) = rec.time("paris.update", || {
                    update_snapshot(
                        snapshot,
                        delta1.as_ref(),
                        delta2.as_ref(),
                        config,
                        &IncrementalOptions::default(),
                    )
                });
                let (updated, report) = updated.map_err(|e| format!("update_snapshot: {e}"))?;
                out.incremental_s.push(seconds);
                out.rescored_rows += report.incremental.rescored_rows as u64;

                let (saved, seconds) = rec.time("paris.write", || {
                    MappedPairSnapshot::save_v2(&updated, pair_snap)
                });
                saved.map_err(|e| format!("writing {}: {e}", pair_snap.display()))?;
                out.write_s.push(seconds);
                drop(updated);

                let (served, seconds) = rec.time("server.reload", || {
                    // The reload answers with the generation it installed;
                    // a second try covers an answer from before the swap.
                    let mut served = reload(&mut control, &daemon.pair)?;
                    for _ in 0..8 {
                        if served > generation {
                            break;
                        }
                        served = reload(&mut control, &daemon.pair)?;
                    }
                    Ok::<_, String>(served)
                });
                let served = served?;
                if served <= generation {
                    return Err(format!("generation stayed at {served} after a reload"));
                }
                generation = served;
                out.reload_ms.push(seconds * 1e3);
                out.per_delta_s.push(rec.end(step));
            }
            out.generation = generation;
            Ok(())
        })();
        stop.store(true, Ordering::Relaxed);
        let tally = reader.join().expect("reader thread panicked");
        steps.map(|()| tally)
    });
    out.reader = result?;
    Ok(out)
}
