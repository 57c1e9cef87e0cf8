//! One run of one workload: `setup`, the trips, `serve`, `update`,
//! `check` — untraced for the end-to-end metrics, or traced for the
//! per-layer ones.

use std::path::{Path, PathBuf};
use std::time::Instant;

use paris_core::PairImage;
use paris_kb::MappedKbSnapshot;

use crate::check::{
    agreement_with_scratch, assignment_digest, heap_snapshot_bytes, served_instance_counts,
};
use crate::layers;
use crate::results::WorkloadResult;
use crate::serve::{class_plan, closed_loop, mixed_plan, Class, Daemon, Round, CLIENTS};
use crate::setup::{setup, Inputs};
use crate::spec::{Loader, Spec, MIN_REPS};
use crate::stats::{highest_supported_percentile, percentile_sorted, Summary};
use crate::trace::{self, Recorder, Span};
use crate::trip::{sameas_lookup, TripFiles, Values};
use crate::update::run_updates;

/// Share of `--seconds` the repeated trips may use.
const TRIP_SHARE: f64 = 0.40;
/// Share of `--seconds` the serve rounds use, split evenly over at most
/// `SERVE_ROUNDS` rounds of at least `MIN_ROUND_SECONDS`.
const SERVE_SHARE: f64 = 0.30;
const SERVE_ROUNDS: usize = 60;
const MIN_ROUND_SECONDS: f64 = 0.1;
/// Set-up is repeated so that `setup_s` is a median.
const SETUPS: usize = 3;
const OPENS: usize = 100;
/// Untraced/traced trip pairs behind `trace.overhead_pct`.
const OVERHEAD_PAIRS: usize = 2;
const CONSERVATION_LIMIT: f64 = 0.01;

pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Runs one trip (in a fresh child process, outside tests) and returns
/// what it reported.
pub type TripRunner<'a> =
    &'a dyn Fn(&Spec, &TripFiles, bool) -> Result<(Values, Vec<Span>), String>;

/// A scratch directory removed on drop, whatever the run's outcome.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn summary(values: &[f64], what: &str) -> Result<Summary, String> {
    Summary::of(values).ok_or_else(|| format!("no {what} was measured"))
}

fn column(trips: &[Values], key: &str) -> Vec<f64> {
    trips.iter().filter_map(|v| v.get(key).copied()).collect()
}

fn open_image(path: &Path) -> Result<PairImage, String> {
    PairImage::load(path).map_err(|e| format!("opening {}: {e}", path.display()))
}

pub fn run_workload(
    spec: &Spec,
    opts: &RunOptions,
    trip: TripRunner<'_>,
) -> Result<(WorkloadResult, Vec<Span>), String> {
    let work = WorkDir(crate::out_dir().join(format!(
        "work-{}-{}-{}",
        spec.name,
        opts.seed,
        std::process::id()
    )));
    let mut out = WorkloadResult {
        name: spec.name.to_owned(),
        ..WorkloadResult::default()
    };
    let mut rec = Recorder::new(opts.traced);
    let root = rec.begin("run");

    // ---- setup
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..if opts.traced { 1 } else { SETUPS } {
        let (made, s) = rec.time("setup", || setup(spec, opts.seed, &work.0));
        inputs = Some(made?);
        setup_s.push(s);
    }
    let inputs = inputs.expect("set up at least once");
    eprintln!(
        "inputs: {} bytes of N-Triples (digest {:016x}), {} keys, {} deltas",
        inputs.nt_bytes,
        inputs.nt_digest,
        inputs.keys.len(),
        inputs.deltas.len()
    );
    let files = TripFiles::in_dir(&inputs.dir, inputs.names.clone(), inputs.keys[0].clone());
    let config = spec.aligning.config();

    // ---- trips
    let mut trips: Vec<Values> = Vec::new();
    let mut digests = Vec::new();
    let mut traced_trip: Option<(Values, Vec<Span>)> = None;
    let mut untraced_pipeline = Vec::new();
    if opts.traced {
        for i in 0..2 * OVERHEAD_PAIRS {
            let traced = i % 2 == 1;
            let span = rec.begin(if traced {
                "trip.traced"
            } else {
                "trip.untraced"
            });
            let started = rec.clock_ns();
            let (values, spans) = trip(spec, &files, traced)?;
            if i + 1 == 2 * OVERHEAD_PAIRS {
                rec.graft(started, &spans);
            }
            rec.end(span);
            out.ops_attempted += 1;
            if traced {
                trips.push(values.clone());
                traced_trip = Some((values, spans));
            } else {
                untraced_pipeline.extend(values.get("pipeline_s"));
            }
        }
    } else {
        let budget = opts.seconds * TRIP_SHARE;
        let started = Instant::now();
        loop {
            let spent = started.elapsed().as_secs_f64();
            let next_fits = spent + spent / trips.len().max(1) as f64 <= budget;
            if trips.len() >= MIN_REPS && (!next_fits || trips.len() >= spec.max_reps) {
                break;
            }
            trips.push(trip(spec, &files, false)?.0);
            digests.push(assignment_digest(&open_image(&files.pair_snap)?));
            out.ops_attempted += 1;
        }
    }
    let last = trips.last().expect("at least one trip ran");
    let facts = last.get("facts").copied().unwrap_or(0.0);
    let image_bytes = last.get("image_bytes").copied().unwrap_or(0.0);

    let image = open_image(&files.pair_snap)?;
    let f1 = served_instance_counts(&image, &inputs.gold).f1();

    if !opts.traced {
        out.set("setup_s", summary(&setup_s, "set-up")?);
        for key in ["load_s", "align_s", "pipeline_s"] {
            out.set(key, summary(&column(&trips, key), key)?);
        }
        let rss: Vec<f64> = column(&trips, "peak_rss_kib")
            .iter()
            .map(|k| k / 1024.0)
            .collect();
        out.set("peak_rss_mib", summary(&rss, "VmHWM")?);
        out.set(
            "image_bytes_per_fact",
            Summary::exact(image_bytes / facts.max(1.0)),
        );
        out.set("instance_f1", Summary::exact(f1));

        let mut open_ms = Vec::new();
        for _ in 0..OPENS {
            let started = Instant::now();
            let opened = open_image(&files.pair_snap)?;
            std::hint::black_box(sameas_lookup(&opened, &files.probe_key));
            open_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        out.ops_attempted += OPENS as u64;
        out.set("open_ms", summary(&open_ms, "open")?);

        if digests.windows(2).any(|w| w[0] != w[1]) {
            out.failures
                .push("assignment digest differs between repetitions".into());
        }
    }
    if f1 < spec.f1_floor {
        out.failures.push(format!(
            "instance_f1 {f1:.4} is below the workload's floor {}",
            spec.f1_floor
        ));
    }
    if let Loader::Spill { .. } = spec.loader {
        for side in 0..2 {
            let heap = heap_snapshot_bytes(&inputs.nt[side], &inputs.names[side], &mut rec)?;
            let ingested = std::fs::read(&files.kb_snap[side]).map_err(|e| e.to_string())?;
            if heap != ingested {
                out.failures.push(format!(
                    "ingested snapshot of side {side} is not byte-equal to the heap path's"
                ));
            }
        }
    }

    // ---- traced only: layer probes on what the traced trip left behind
    if let Some((values, spans)) = &traced_trip {
        let overhead = {
            // Best of each side: a small difference of two noisy walls.
            let floor = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
            let untraced = floor(&untraced_pipeline);
            (floor(&column(&trips, "pipeline_s")) - untraced) / untraced * 100.0
        };
        out.set("trace.overhead_pct", Summary::exact(overhead));
        trip_layer_metrics(spec, &inputs, values, spans, &mut rec, &mut out)?;
        kb_and_aligner_probes(spec, &inputs, &files, spans, opts.seed, &mut rec, &mut out)?;
        let (decoded, _) = rec.time("prep.hydrate_pair", || {
            open_image(&files.pair_snap).map(PairImage::into_decoded)
        });
        let decoded = decoded?;
        let encode_s = layers::image_probes(
            &image,
            &decoded,
            &inputs.keys,
            opts.seed,
            &mut rec,
            &mut out,
        );
        let write_s = trace::total_seconds(spans, "paris.write");
        out.set(
            "paris.write_ms",
            Summary::exact((write_s - encode_s).max(0.0) * 1e3),
        );
    }

    // ---- serve
    let plan_image = open_image(&files.pair_snap)?;
    let (daemon, bind_s) = rec.time("server.bind", || Daemon::start(image, &files.pair_snap));
    let daemon = daemon?;
    let served = (|| {
        if opts.traced {
            out.set("server.bind_ms", Summary::exact(bind_s * 1e3));
            layers::route_probes(
                &daemon,
                &plan_image,
                &inputs.keys,
                opts.seed,
                &mut rec,
                &mut out,
            )?;
        } else {
            let span = rec.begin("serve");
            serve_stage(&daemon, &plan_image, spec, &inputs.keys, opts, &mut out)?;
            rec.end(span);
        }

        // ---- update
        let reader_plan = class_plan(
            Class::Sameas,
            &daemon.pair,
            &plan_image,
            &inputs.keys,
            opts.seed,
            1024,
        );
        let span = rec.begin("updates");
        let updates = run_updates(
            &daemon,
            &inputs,
            &files.pair_snap,
            &config,
            reader_plan,
            opts.traced,
            &mut rec,
        )?;
        rec.end(span);
        out.ops_attempted += updates.per_delta_s.len() as u64 + updates.reader.attempted;
        out.ops_failed += updates.reader.failed;
        if updates.reader.failed > 0 {
            out.failures.push(format!(
                "{} of {} reads failed across reloads",
                updates.reader.failed, updates.reader.attempted
            ));
        }
        if updates.generation != inputs.deltas.len() as u64 + 1 {
            out.failures.push(format!(
                "{} deltas left the daemon at generation {}",
                inputs.deltas.len(),
                updates.generation
            ));
        }
        Ok::<_, String>(updates)
    })();
    daemon.stop();
    let updates = served?;

    let (agreement, _) = rec.time("check.agreement", || {
        Ok::<_, String>(agreement_with_scratch(
            open_image(&files.pair_snap)?,
            &config,
        ))
    });
    let agreement = agreement?;
    if agreement < spec.agreement_floor {
        out.failures.push(format!(
            "after {} deltas only {:.2}% of a from-scratch run's assignments are served (floor {}%)",
            inputs.deltas.len(),
            agreement * 100.0,
            spec.agreement_floor * 100.0
        ));
    }

    if opts.traced {
        out.set(
            "kb.delta_apply_ms",
            summary(&updates.delta_apply_ms, "delta apply")?,
        );
        out.set(
            "paris.incremental_s",
            summary(&updates.incremental_s, "update")?,
        );
        out.set(
            "paris.incremental_rows",
            Summary::exact(updates.rescored_rows as f64),
        );
        out.set("paris.update_agreement", Summary::exact(agreement));
        out.set("server.reload_ms", summary(&updates.reload_ms, "reload")?);
        let mut reads = updates.reader.latencies_ns;
        reads.sort_unstable();
        let p = highest_supported_percentile(reads.len()).map_or(0.5, |p| p.min(0.99));
        let p99 = percentile_sorted(&reads, p).ok_or("no read succeeded during the updates")?;
        out.set(
            "server.read_during_update_p99_us",
            Summary::exact(f64::from(p99) / 1e3),
        );
    } else {
        out.set("update_s", summary(&updates.per_delta_s, "update")?);
    }

    rec.end(root);
    if opts.traced {
        let gap = trace::conservation_gap(rec.spans());
        out.set("trace.conservation_gap_pct", Summary::exact(gap * 100.0));
        if gap > CONSERVATION_LIMIT {
            out.failures.push(format!(
                "span self times miss the root's wall time by {:.2}%",
                gap * 100.0
            ));
        }
    }
    Ok((out, rec.spans().to_vec()))
}

/// The serve stage of an untraced run: the closed loop, folded into the
/// three query metrics.
fn serve_stage(
    daemon: &Daemon,
    image: &PairImage,
    spec: &Spec,
    keys: &[String],
    opts: &RunOptions,
    out: &mut WorkloadResult,
) -> Result<(), String> {
    let mut plans: Vec<_> = (0..CLIENTS as u64)
        .map(|c| {
            mixed_plan(
                spec.mix,
                &daemon.pair,
                image,
                keys,
                opts.seed ^ ((c + 1) << 32),
                4096,
            )
        })
        .collect();
    let serve_seconds = opts.seconds * SERVE_SHARE;
    let count = ((serve_seconds / MIN_ROUND_SECONDS) as usize).clamp(1, SERVE_ROUNDS);
    let (rounds, tally) = closed_loop(daemon, &mut plans, count, serve_seconds / count as f64)?;
    out.ops_attempted += tally.attempted;
    out.ops_failed += tally.failed;
    if tally.failed > 0 {
        out.failures.push(format!(
            "{} of {} served answers were not the expected ones",
            tally.failed, tally.attempted
        ));
    }
    // The scheduler of a 2-core box flips between placing a client beside
    // its worker (local wake-ups) and across from it (cross-core wake-ups,
    // 3x slower). Which placement a round gets is luck, so each reading is
    // the best any round saw; min/max/n show the other rounds.
    let column = |read: fn(&Round) -> f64| {
        summary(&rounds.iter().map(read).collect::<Vec<_>>(), "serve round")
    };
    let rps = column(|r| r.rps)?;
    out.set(
        "query_rps",
        Summary {
            median: rps.max,
            ..rps
        },
    );
    let p50 = column(|r| r.p50_us)?;
    out.set(
        "query_p50_us",
        Summary {
            median: p50.min,
            ..p50
        },
    );
    let p99 = column(|r| r.p99_us)?;
    out.set(
        "query_p99_us",
        Summary {
            median: p99.min,
            ..p99
        },
    );
    let fewest = rounds.iter().map(|r| r.samples).min().unwrap_or(0);
    if highest_supported_percentile(fewest).is_none_or(|p| p < 0.99) {
        return Err(format!(
            "a serve round has {fewest} samples: too few for a 99th percentile"
        ));
    }
    Ok(())
}

/// Layer metrics read from the traced trip's own spans and counters.
fn trip_layer_metrics(
    spec: &Spec,
    inputs: &Inputs,
    values: &Values,
    spans: &[Span],
    rec: &mut Recorder,
    out: &mut WorkloadResult,
) -> Result<(), String> {
    let total = |name: &str| trace::total_seconds(spans, name);
    let (parse_s, build_s) = match spec.loader {
        Loader::Heap => (total("rdf.parse"), total("kb.build")),
        Loader::Spill { .. } => {
            let parse_s = layers::parse_standalone(&inputs.nt, rec)?;
            (parse_s, (total("kb.ingest") - parse_s).max(0.0))
        }
    };
    let mib = inputs.nt_bytes as f64 / (1 << 20) as f64;
    for (name, value) in [
        ("rdf.parse_s", parse_s),
        ("rdf.parse_mib_per_s", mib / parse_s),
        ("kb.build_s", build_s),
        ("kb.open_ms", total("kb.open") * 1e3),
        ("kb.hydrate_s", total("kb.hydrate")),
        ("paris.detach_s", total("paris.detach")),
        ("paris.open_ms", total("paris.open") * 1e3),
    ] {
        out.set(name, Summary::exact(value));
    }
    // From this recorder, not the trip's spans: a heap trip's `kb.encode`
    // spans were grafted in, and a spill trip has none — there the
    // byte-equality check just ran the heap path's encoder under it.
    let encode_s = trace::total_seconds(rec.spans(), "kb.encode");
    out.set("kb.encode_s", Summary::exact(encode_s));
    for name in [
        "rdf.triples",
        "kb.spill_runs",
        "kb.spill_bytes",
        "kb.snapshot_bytes",
        "paris.bridge_pairs",
        "paris.instance_pass_s",
        "paris.subrel_pass_s",
        "paris.class_pass_s",
        "paris.iterations",
        "paris.equivalences",
    ] {
        let value = values
            .get(name)
            .ok_or_else(|| format!("the trip reported no {name}"))?;
        out.set(name, Summary::exact(*value));
    }
    Ok(())
}

/// Probes that need the two KBs in memory.
fn kb_and_aligner_probes(
    spec: &Spec,
    inputs: &Inputs,
    files: &TripFiles,
    trip_spans: &[Span],
    seed: u64,
    rec: &mut Recorder,
    out: &mut WorkloadResult,
) -> Result<(), String> {
    let prep = rec.begin("prep.hydrate_kbs");
    let open = |path: &Path| {
        MappedKbSnapshot::open(path).map_err(|e| format!("opening {}: {e}", path.display()))
    };
    let (mapped1, mapped2) = (open(&files.kb_snap[0])?, open(&files.kb_snap[1])?);
    let (kb1, kb2) = (mapped1.kb().to_kb(), mapped2.kb().to_kb());
    rec.end(prep);
    let config = spec.aligning.config();
    layers::kb_probes([&kb1, &kb2], mapped1.kb(), &inputs.keys, seed, rec, out);
    layers::literal_probes(&kb1, &kb2, &config.literal_similarity, seed, rec, out);
    let align_s = trace::total_seconds(trip_spans, "paris.align");
    layers::aligner_probes(&kb1, &kb2, &config, &inputs.gold, align_s, rec, out);
    Ok(())
}
