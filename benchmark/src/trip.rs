//! One trip: `load` → `align` → `open`, as the child process runs it.
//!
//! The parent re-executes this binary for every trip, so the trip's
//! `VmHWM` is the peak resident set of exactly this work and the page
//! cache is the only state shared between repetitions.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use paris_core::{
    AlignedPairSnapshot, Aligner, MappedPairSnapshot, OwnedAlignment, PairImage, PairSide,
};
use paris_kb::{
    ingest_file, snapshot_v2::save_kb_v2, IngestOptions, Kb, KbBuilder, MappedKbSnapshot,
};
use paris_rdf::ntriples;

use crate::spec::{Loader, Spec};
use crate::trace::Recorder;

/// Where a trip reads and writes. Everything lives in one directory.
pub struct TripFiles {
    pub nt: [PathBuf; 2],
    pub names: [String; 2],
    pub kb_snap: [PathBuf; 2],
    pub pair_snap: PathBuf,
    /// Spill files of the streaming loader.
    pub tmp: PathBuf,
    /// The IRI of the first lookup.
    pub probe_key: String,
}

impl TripFiles {
    pub fn in_dir(dir: &Path, names: [String; 2], probe_key: String) -> TripFiles {
        TripFiles {
            nt: [dir.join("left.nt"), dir.join("right.nt")],
            names,
            kb_snap: [dir.join("left.snap"), dir.join("right.snap")],
            pair_snap: dir.join("pair.snap"),
            tmp: dir.to_owned(),
            probe_key,
        }
    }
}

/// Named readings of one trip (stage seconds, counts, sizes).
pub type Values = BTreeMap<String, f64>;

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("stat {}: {e}", path.display()))
}

/// Peak resident set of this process so far, in KiB.
pub fn peak_rss_kib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn load_side(
    spec: &Spec,
    files: &TripFiles,
    side: usize,
    rec: &mut Recorder,
    v: &mut Values,
) -> Result<(), String> {
    let (nt, out, name) = (&files.nt[side], &files.kb_snap[side], &files.names[side]);
    match spec.loader {
        Loader::Heap => {
            let (triples, _) = rec.time("rdf.parse", || ntriples::parse_file(nt));
            let triples = triples.map_err(|e| format!("parsing {}: {e}", nt.display()))?;
            *v.entry("rdf.triples".into()).or_default() += triples.len() as f64;
            let (kb, _) = rec.time("kb.build", || {
                let mut builder = KbBuilder::new(name.as_str());
                builder.add_triples(&triples);
                drop(triples);
                builder.build()
            });
            rec.time("kb.encode", || save_kb_v2(&kb, out))
                .0
                .map_err(|e| format!("writing {}: {e}", out.display()))?;
        }
        Loader::Spill { mem_budget } => {
            let opts = IngestOptions {
                name: name.clone(),
                mem_budget,
                threads: 2,
                tmp_dir: Some(files.tmp.clone()),
                ..IngestOptions::default()
            };
            let (report, _) = rec.time("kb.ingest", || ingest_file(nt, out, &opts));
            let report = report.map_err(|e| format!("ingesting {}: {e}", nt.display()))?;
            *v.entry("rdf.triples".into()).or_default() += report.triples as f64;
            *v.entry("kb.spill_runs".into()).or_default() += report.spill_runs as f64;
            *v.entry("kb.spill_bytes".into()).or_default() += report.spill_bytes as f64;
        }
    }
    *v.entry("kb.snapshot_bytes".into()).or_default() += file_len(out)? as f64;
    Ok(())
}

fn open_and_hydrate(path: &Path, rec: &mut Recorder) -> Result<Kb, String> {
    let (mapped, _) = rec.time("kb.open", || MappedKbSnapshot::open(path));
    let mapped = mapped.map_err(|e| format!("opening {}: {e}", path.display()))?;
    Ok(rec.time("kb.hydrate", || mapped.kb().to_kb()).0)
}

/// The first lookup a served image answers: IRI → best match → IRI.
pub fn sameas_lookup(image: &PairImage, iri: &str) -> Option<(String, f64)> {
    let x = image.entity_by_iri(PairSide::Kb1, iri)?;
    let (x2, p) = image.best_match_from(PairSide::Kb1, x)?;
    Some((image.entity_iri(PairSide::Kb2, x2)?, p))
}

/// Runs the trip. `started` is the instant the process (or, in tests,
/// the caller) began: `pipeline_s` runs from there to the first answered
/// lookup.
pub fn run_trip(
    spec: &Spec,
    files: &TripFiles,
    started: Instant,
    rec: &mut Recorder,
) -> Result<Values, String> {
    let mut v = Values::new();
    for key in ["kb.spill_runs", "kb.spill_bytes"] {
        v.insert(key.into(), 0.0);
    }
    let trip = rec.begin("trip");

    let load = rec.begin("load");
    for side in 0..2 {
        load_side(spec, files, side, rec, &mut v)?;
    }
    v.insert("load_s".into(), rec.end(load));

    let align = rec.begin("align");
    let kb1 = open_and_hydrate(&files.kb_snap[0], rec)?;
    let kb2 = open_and_hydrate(&files.kb_snap[1], rec)?;
    let config = spec.aligning.config();
    let (result, _) = rec.time("paris.align", || Aligner::new(&kb1, &kb2, config).run());
    let (owned, _) = rec.time("paris.detach", || OwnedAlignment::from_result(&result));
    for (key, value) in [
        ("paris.iterations", result.iterations.len() as f64),
        ("paris.equivalences", result.instances.num_pairs() as f64),
        ("paris.bridge_pairs", result.literal_pairs as f64),
        (
            "paris.instance_pass_s",
            result.iterations.iter().map(|i| i.instance_seconds).sum(),
        ),
        (
            "paris.subrel_pass_s",
            result
                .iterations
                .iter()
                .map(|i| i.subrelation_seconds)
                .sum(),
        ),
        ("paris.class_pass_s", result.class_seconds),
        ("facts", (kb1.num_facts() + kb2.num_facts()) as f64),
    ] {
        v.insert(key.into(), value);
    }
    drop(result);
    let snapshot = AlignedPairSnapshot::new(kb1, kb2, owned);
    rec.time("paris.write", || {
        MappedPairSnapshot::save_v2(&snapshot, &files.pair_snap)
    })
    .0
    .map_err(|e| format!("writing {}: {e}", files.pair_snap.display()))?;
    drop(snapshot);
    v.insert("align_s".into(), rec.end(align));

    let open = rec.begin("open");
    let (image, _) = rec.time("paris.open", || PairImage::load(&files.pair_snap));
    let image = image.map_err(|e| format!("opening {}: {e}", files.pair_snap.display()))?;
    let (answer, _) = rec.time("paris.first_lookup", || {
        sameas_lookup(&image, &files.probe_key)
    });
    std::hint::black_box(answer);
    rec.end(open);
    v.insert("pipeline_s".into(), started.elapsed().as_secs_f64());
    rec.end(trip);

    v.insert("image_bytes".into(), file_len(&files.pair_snap)? as f64);
    if let Some(kib) = peak_rss_kib() {
        v.insert("peak_rss_kib".into(), kib);
    }
    Ok(v)
}

/// Child side of the protocol: `v <name> <value>` and span lines.
pub fn print_report(values: &Values, rec: &Recorder) {
    for (name, value) in values {
        println!("v\t{name}\t{value:e}");
    }
    for span in rec.spans() {
        println!("{}", crate::trace::span_line(span));
    }
}

/// Parent side: the values and spans a child printed.
pub fn parse_report(stdout: &str) -> (Values, Vec<crate::trace::Span>) {
    let mut values = Values::new();
    let mut spans = Vec::new();
    for line in stdout.lines() {
        if let Some(span) = crate::trace::parse_span_line(line) {
            spans.push(span);
        } else if let Some(("v", rest)) = line.split_once('\t') {
            if let Some((name, value)) = rest.split_once('\t') {
                if let Ok(value) = value.parse() {
                    values.insert(name.to_owned(), value);
                }
            }
        }
    }
    (values, spans)
}
