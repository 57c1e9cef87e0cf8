//! `paris` — command-line ontology alignment.
//!
//! The front door for using this reproduction as a tool rather than a
//! library:
//!
//! ```text
//! paris align left.nt right.nt --sameas links.nt     # align two RDF files
//! paris stats dump.nt                                # Table-2-style statistics
//! paris generate movies --out /tmp/movies            # emit a benchmark pair
//! paris snapshot left.nt right.nt --out pair.snap    # align once, persist
//! paris delta pair.snap --add-left new.nt --out v2.snap  # incremental update
//! paris serve pair.snap --addr 127.0.0.1:7070        # serve one alignment
//! paris serve --catalog snaps/                       # serve a directory of pairs
//! paris serve --catalog mirror/ --replica-of http://primary:7070
//!                                                    # serve as a read replica
//! paris sync http://primary:7070 mirror/             # one-shot catalog mirror
//! paris query http://host:7070 sameas http://a/p6    # typed /v1 client
//! ```
//!
//! Arguments are parsed by hand — the tool's surface is small and the
//! workspace deliberately avoids dependencies beyond the approved set.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use paris_repro::datagen;
use paris_repro::eval::Counts;
use paris_repro::kb::{kb_from_file, Kb, KbStats};
use paris_repro::literals::LiteralSimilarity;
use paris_repro::paris::{Aligner, IterationStats, Observe, ParisConfig};
use paris_repro::rdf::Iri;

const USAGE: &str = "\
paris — Probabilistic Alignment of Relations, Instances, and Schema

USAGE:
  paris align <LEFT> <RIGHT> [OPTIONS]
  paris stats <FILE>...
  paris generate <persons|restaurants|encyclopedia|movies> --out <DIR> [--seed N] [--scale N]
  paris snapshot <LEFT> <RIGHT> --out <FILE.snap> [CONFIG OPTIONS]
  paris snapshot <FILE> --out <FILE.snap>
  paris ingest <IN.nt> <OUT.snap> [--mem-budget <BYTES>] [--threads N] [--name S] [--tmp <DIR>]
  paris delta <PAIR.snap> --out <FILE.snap> [DELTA OPTIONS] [CONFIG OPTIONS]
  paris serve <FILE.snap> [SERVE OPTIONS]
  paris serve --catalog <DIR> [SERVE OPTIONS]
  paris sync <URL> <DIR>
  paris query <URL[,URL…]> <health|pairs|stats|diagnostics|metrics|traces|profile|runs|sameas|neighbors|explain|batch> [ARGS]
  paris version

Input files may be N-Triples (.nt), Turtle (.ttl/.turtle), tab-separated
facts (.tsv: subject TAB relation TAB object, quoted objects are literals),
or single-KB snapshots (.snap, as written by `paris snapshot <FILE>` or
`paris ingest`).

ALIGN OPTIONS:
  --literals <identity|normalized|tokensort|edit:<min>|numeric:<tol>>
                          literal similarity function   [default: identity]
  --theta <F>             bootstrap sub-relation score  [default: 0.1]
  --truncation <F>        probability truncation        [default: 0.1]
  --max-iterations <N>    iteration cap                 [default: 10]
  --threads <N>           worker threads (0 = auto)     [default: 0]
  --negative-evidence     use Eq. 14 instead of Eq. 13
  --propagate-all         propagate all equalities, not just the maximal assignment
  --threshold <F>         minimum score for printed/emitted alignments [default: 0.4]
  --sameas <FILE.nt>      write instance alignments as owl:sameAs N-Triples
  --gold <FILE.tsv>       score the alignment against a tab-separated gold standard
  --relations             print relation alignments
  --classes               print class alignments
  --explain <IRI1> <IRI2> print the evidence for one candidate pair

SNAPSHOT:
  With two inputs: parse both, run the full alignment, and write a
  versioned binary aligned-pair snapshot (KBs + alignment) to --out.
  With one input: write a single-KB snapshot (the unit POST /align jobs
  consume). Snapshots are zero-copy section-table images: `paris serve`
  opens an aligned pair via mmap without decoding the body
  (O(validation) startup, page-cache-resident data, built for very
  large KBs), and a single input yields the same image `paris ingest`
  streams out (useful as the heap-path reference to diff an ingest
  against). CONFIG OPTIONS are the algorithm-configuration subset of
  ALIGN OPTIONS: --literals, --theta, --truncation, --max-iterations,
  --threads, --negative-evidence, --propagate-all. Output options
  (--threshold, --sameas, --gold, …) do not apply: the snapshot stores
  all scores.

INGEST:
  Stream an N-Triples/N-Quads file straight into a single-KB snapshot
  in bounded memory — the heap `Kb` is never materialized, so the input
  can be far larger than RAM. Parsing is line-parallel (chunks split at
  line boundaries); sorting spills runs to temp files under --mem-budget
  and k-way merges them back. The output is byte-identical to the heap
  path (`paris snapshot IN --out OUT`), so everything that
  reads single-KB snapshots (POST /v1/align, `paris align`/`snapshot`
  with .snap inputs) works on ingested images unchanged. `.nq`/`.nquads`
  inputs parse as N-Quads (graph labels validated, then discarded).
  --mem-budget <BYTES>    sort-buffer budget, suffixes K/M/G
                          (floor 64K)             [default: 256M]
  --threads <N>           parser threads (0 = auto)  [default: 0]
  --name <S>              KB name stored in the snapshot
                          [default: input file stem]
  --tmp <DIR>             spill directory [default: the output's]

DELTA:
  Apply fact additions/removals to an aligned-pair snapshot and re-align
  *incrementally*: the fixpoint restarts from the stored scores and only
  entries whose support sets were touched are recomputed. Writes the
  updated aligned-pair snapshot to --out (hot-reloadable via
  POST /reload). Deltas carry plain facts only; schema changes need a
  full rebuild. RDF inputs are .nt/.ttl (no .tsv).
  --add-left <FILE>           facts to add to the left KB
  --remove-left <FILE>        facts to remove from the left KB
  --add-right <FILE>          facts to add to the right KB
  --remove-right <FILE>       facts to remove from the right KB
  --delta-left <FILE.delta>   pre-built binary delta for the left KB
  --delta-right <FILE.delta>  pre-built binary delta for the right KB
  --save-delta-left <FILE.delta>   also persist the assembled left delta
  --save-delta-right <FILE.delta>  also persist the assembled right delta
  --full                      run a full from-scratch re-alignment on the
                              delta-updated KBs instead (for comparison)

SERVE:
  Serve one aligned-pair snapshot (positional FILE.snap) or a whole
  directory of them (--catalog DIR: every NAME.snap becomes the pair
  NAME, opened lazily on first hit via mmap) over HTTP/1.1. The API is the versioned /v1 namespace; every JSON
  answer is enveloped ({\"data\":...} / {\"error\":{code,message}}):
    GET  /v1/pairs                the catalog: names, generations, state
    GET  /v1/pairs/<p>/sameas?iri=I   best match of an instance
                                  (&side=right, &threshold=T to filter)
    GET  /v1/pairs/<p>/neighbors?iri=I   facts around an entity,
                                  paginated (&limit=N cap 1000, &offset=K)
    GET  /v1/pairs/<p>/explain?left=L&right=R   the stored Eq. 13
                                  evidence for one candidate pair
    POST /v1/pairs/<p>/query      batch: up to 256 mixed lookups in one
                                  round-trip (JSON body {\"queries\":[...]})
    GET  /v1/pairs/<p>/stats      KB + alignment statistics of one pair
    GET  /v1/pairs/<p>/healthz    per-pair liveness + generation
    GET  /v1/pairs/<p>/snapshot   raw snapshot bytes (checksum ETag; a
                                  matching If-None-Match costs 0 bytes)
    GET  /v1/pairs/manifest       replication manifest: every pair's
                                  format, generation, length, checksum
    POST /v1/pairs/<p>/reload     atomically swap that pair's snapshot
    GET  /v1/healthz              liveness, version, role, pair count
                                  (on a replica: upstream, last sync,
                                  per-pair generation lag)
    GET  /v1/metrics              metrics: request/route/status counts,
                                  latency histograms (p50/p90/p99), cache
                                  counters, per-pair generation and
                                  replication lag — Prometheus text by
                                  default, ?format=json for the envelope
    POST /v1/align                enqueue alignment of two single-KB
                                  snapshots (form fields left=, right=,
                                  optional out=, max_iterations=)
    GET  /v1/jobs/<id>            poll a job (running jobs report live
                                  fixpoint progress from the span tree)
    GET  /v1/debug/traces         recent spans + tail-sampled slowest
                                  traces (see --trace-buffer)
    GET  /v1/debug/traces/<id>    one trace rendered as a span tree
    GET  /v1/pairs/<p>/diagnostics  gold-standard-free quality summary:
                                  coverage, score distribution, aligned
                                  relation/class counts
    GET  /v1/debug/profile        the span ring folded into a flame tree
                                  (?root=NAME re-roots, e.g. iteration)
    GET  /v1/debug/runs           persisted align-run history with drift
                                  flags (see --run-history)
  Every pre-v1 route keeps working as a deprecated alias (same bytes,
  one Warning header); the bare /sameas, /neighbors, /stats, /reload
  aliases answer for the default pair ('default' if present, else
  alphabetically first). See docs/HTTP_API.md for the full reference.
  --catalog <DIR>         serve every *.snap in DIR as a named pair
  --addr <HOST:PORT>      bind address             [default: 127.0.0.1:7070]
  --threads <N>           request worker threads   [default: 4]
  --no-jobs               disable POST /align and client-named reload
                          paths (these make the server read/write
                          server-local files named by the client; there is
                          no authentication — keep the loopback bind or
                          pass --no-jobs on exposed interfaces)
  --watch <SECS>          poll snapshot mtimes every SECS seconds and
                          hot-reload changed pairs; with --catalog, also
                          pick up added and removed snapshot files
  --replica-of <URL>      serve as a read replica of the daemon at URL
                          (http://host:port): continuously mirror its
                          catalog into the --catalog directory (required;
                          created if missing, may start empty), validate
                          and atomically install changed snapshots, and
                          hot-reload them. Composes with --watch. See
                          docs/REPLICATION.md.
  --sync-interval <SECS>  replica manifest poll cadence  [default: 1]
  --log-format <text|json|off>  per-request log lines on stderr (request
                          id, route, pair, status, bytes, latency µs);
                          json emits one machine-ingestable object per
                          line                           [default: text]
  --trace-buffer <N>      span ring-buffer capacity behind the
                          /v1/debug/traces routes; the slowest traces
                          are tail-sampled and kept past eviction;
                          0 disables tracing          [default: 512]
  --slow-ms <MS>          also log one slow_request line (with the
                          pair and trace id) for every request at or
                          above MS milliseconds       [default: off]
  --trace-pinned <N>      how many slowest traces the tail sampler
                          keeps past ring eviction; 0 disables
                          pinning                     [default: 8]
  --run-history <FILE>    append every completed align job to FILE
                          (JSONL) and serve it at /v1/debug/runs;
                          reloaded on restart, consecutive runs of a
                          pair are compared and flagged on drift

QUERY:
  `paris query` speaks the daemon's versioned /v1 API through the typed
  `paris-client` crate — ETag-cached conditional GETs, and transparent
  failover across a comma-separated upstream list (reads go to whichever
  answers; probe roles with `health`).
    paris query URL health                          role, version, pair count
    paris query URL pairs                           the catalog
    paris query URL stats [--pair NAME]             one pair's statistics
    paris query URL metrics [--format prometheus|json]
                                the daemon's /v1/metrics instruments
    paris query URL traces [--format json]
                                recent spans + slowest traces
    paris query URL traces <TRACE-ID> [--format json]
                                one trace's span tree, indented
    paris query URL diagnostics [--pair NAME] [--format json]
                                alignment quality summary of one pair
    paris query URL profile [--root NAME] [--format json]
                                the daemon's flame profile
    paris query URL runs [--format json]
                                the persisted align-run history
    paris query URL sameas <IRI> [--pair NAME] [--side left|right]
                                [--threshold F]     best match of an instance
    paris query URL neighbors <IRI> [--pair NAME] [--side left|right]
                                [--limit N] [--offset N]   facts, paginated
    paris query URL explain <LEFT_IRI> <RIGHT_IRI> [--pair NAME]
                                the stored Eq. 13 evidence: every factor's
                                relations, functionalities, neighbor pair
                                probability, and the assignment decision
    paris query URL batch <FILE.json|-> [--pair NAME]
                                up to 256 mixed lookups in ONE round-trip
                                (FILE holds the /v1 batch body or the bare
                                queries array; '-' reads stdin)

SYNC:
  `paris sync <URL> <DIR>` runs exactly one replication cycle against
  the daemon at URL, mirroring its catalog into DIR (cron-style
  mirroring without a serving daemon): fetch the manifest, download
  only changed pairs, validate structure + checksums, atomic-rename into
  DIR, delete pairs the primary no longer serves. Exits non-zero if any
  pair failed to transfer.

VERSION:
  `paris version` (or --version/-V) prints the crate version and the
  snapshot/delta format versions this build reads and writes.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("align") => align(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("generate") => generate(&args[1..]),
        Some("snapshot") => snapshot(&args[1..]),
        Some("ingest") => ingest(&args[1..]),
        Some("delta") => delta(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("sync") => sync(&args[1..]),
        Some("query") => query(&args[1..]),
        Some("version") | Some("--version") | Some("-V") => {
            println!("{}", version_string());
            Ok(())
        }
        Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    }
}

/// What `paris version` prints (and `/healthz` reports in parts): the
/// crate version plus the snapshot and delta format versions this build
/// reads and writes.
fn version_string() -> String {
    use paris_repro::kb::snapshot::DELTA_FORMAT_VERSION;
    use paris_repro::kb::snapshot_v2::FORMAT_VERSION_V2;
    format!(
        "paris {}\nsnapshot format: v{FORMAT_VERSION_V2} (zero-copy mmap arena)\n\
         delta format: v{DELTA_FORMAT_VERSION}",
        env!("CARGO_PKG_VERSION"),
    )
}

/// Options accepted by `paris align`, parsed from the raw arguments.
struct AlignOptions {
    left: PathBuf,
    right: PathBuf,
    config: ParisConfig,
    threshold: f64,
    sameas: Option<PathBuf>,
    gold: Option<PathBuf>,
    show_relations: bool,
    show_classes: bool,
    explain: Option<(String, String)>,
}

fn parse_literals(spec: &str) -> Result<LiteralSimilarity, String> {
    match spec {
        "identity" => Ok(LiteralSimilarity::Identity),
        "normalized" => Ok(LiteralSimilarity::Normalized),
        "tokensort" => Ok(LiteralSimilarity::TokenSort),
        other => {
            if let Some(min) = other.strip_prefix("edit:") {
                let min: f64 = min
                    .parse()
                    .map_err(|_| format!("bad edit threshold '{min}'"))?;
                Ok(LiteralSimilarity::EditDistance {
                    min_similarity: min,
                })
            } else if let Some(tol) = other.strip_prefix("numeric:") {
                let tol: f64 = tol
                    .parse()
                    .map_err(|_| format!("bad numeric tolerance '{tol}'"))?;
                Ok(LiteralSimilarity::NumericProportional { tolerance: tol })
            } else {
                Err(format!("unknown literal similarity '{other}'"))
            }
        }
    }
}

/// One flag of the shared `ParisConfig` surface (`--literals`, `--theta`,
/// `--truncation`, `--max-iterations`, `--threads`, `--negative-evidence`,
/// `--propagate-all`) — used identically by `paris align` and
/// `paris snapshot` so the two subcommands cannot drift. Returns
/// `Ok(false)` when `arg` is not a config flag.
fn parse_config_flag(
    arg: &str,
    config: &mut ParisConfig,
    mut value_of: impl FnMut(&str) -> Result<String, String>,
) -> Result<bool, String> {
    match arg {
        "--literals" => config.literal_similarity = parse_literals(&value_of("--literals")?)?,
        "--theta" => {
            config.theta = value_of("--theta")?
                .parse()
                .map_err(|_| "bad --theta value".to_owned())?
        }
        "--truncation" => {
            config.truncation = value_of("--truncation")?
                .parse()
                .map_err(|_| "bad --truncation value".to_owned())?
        }
        "--max-iterations" => {
            config.max_iterations = value_of("--max-iterations")?
                .parse()
                .map_err(|_| "bad --max-iterations value".to_owned())?
        }
        "--threads" => {
            config.threads = value_of("--threads")?
                .parse()
                .map_err(|_| "bad --threads value".to_owned())?
        }
        "--negative-evidence" => config.negative_evidence = true,
        "--propagate-all" => config.propagate_all_equalities = true,
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_align(args: &[String]) -> Result<AlignOptions, String> {
    let mut positional: Vec<&String> = Vec::new();
    let mut config = ParisConfig::default();
    let mut threshold = 0.4;
    let mut sameas = None;
    let mut gold = None;
    let mut show_relations = false;
    let mut show_classes = false;
    let mut explain = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
                .cloned()
        };
        if parse_config_flag(arg, &mut config, &mut value_of)? {
            continue;
        }
        match arg.as_str() {
            "--threshold" => {
                threshold = value_of("--threshold")?
                    .parse()
                    .map_err(|_| "bad --threshold value".to_owned())?
            }
            "--sameas" => sameas = Some(PathBuf::from(value_of("--sameas")?)),
            "--gold" => gold = Some(PathBuf::from(value_of("--gold")?)),
            "--relations" => show_relations = true,
            "--classes" => show_classes = true,
            "--explain" => {
                let a = value_of("--explain")?;
                let b = iter.next().ok_or("--explain needs two IRIs")?.clone();
                explain = Some((a, b));
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option '{flag}'")),
            _ => positional.push(arg),
        }
    }
    let [left, right] = positional.as_slice() else {
        return Err("align needs exactly two N-Triples files".to_owned());
    };
    Ok(AlignOptions {
        left: PathBuf::from(left),
        right: PathBuf::from(right),
        config,
        threshold,
        sameas,
        gold,
        show_relations,
        show_classes,
        explain,
    })
}

fn align(args: &[String]) -> Result<(), String> {
    let opts = parse_align(args)?;
    let kb1 = load(&opts.left)?;
    let kb2 = load(&opts.right)?;
    eprintln!("loaded {}", KbStats::of(&kb1));
    eprintln!("loaded {}", KbStats::of(&kb2));

    let aligner = Aligner::new(&kb1, &kb2, opts.config.clone());
    let mut print = |stats: &IterationStats| {
        eprintln!(
            "iteration {}: {} assigned, {:.1}% changed, {:.2}s",
            stats.iteration,
            stats.assigned_instances,
            stats.changed_fraction * 100.0,
            stats.instance_seconds + stats.subrelation_seconds,
        );
    };
    let result = aligner.run_with(&mut Observe {
        progress: Some(&mut print),
        ..Observe::default()
    });

    let pairs = result.instance_pairs();
    println!(
        "aligned {} instances ({} above threshold {})",
        pairs.len(),
        pairs
            .iter()
            .filter(|&&(_, _, p)| p >= opts.threshold)
            .count(),
        opts.threshold,
    );

    if opts.show_relations {
        println!("\nrelation alignments (left ⊆ right):");
        for (sub, sup, p) in result.relation_alignments_1to2(opts.threshold) {
            println!("  {sub} ⊆ {sup}  {p:.2}");
        }
        println!("relation alignments (right ⊆ left):");
        for (sub, sup, p) in result.relation_alignments_2to1(opts.threshold) {
            println!("  {sub} ⊆ {sup}  {p:.2}");
        }
    }
    if opts.show_classes {
        println!("\nclass alignments (left ⊆ right):");
        for s in result.classes.above_1to2(opts.threshold) {
            let (Some(sub), Some(sup)) = (kb1.iri(s.sub), kb2.iri(s.sup)) else {
                continue;
            };
            println!(
                "  {} ⊆ {}  {:.2}",
                sub.local_name(),
                sup.local_name(),
                s.prob
            );
        }
    }

    if let Some(path) = &opts.sameas {
        let links = result.sameas_triples(opts.threshold);
        let doc = paris_repro::rdf::ntriples::to_string(&links);
        std::fs::write(path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "\nwrote {} owl:sameAs links to {}",
            links.len(),
            path.display()
        );
    }

    if let Some(path) = &opts.gold {
        let gold = read_gold(path)?;
        let counts = score_against_gold(&result.instance_pairs(), &kb1, &kb2, &gold);
        println!(
            "\ngold standard ({} pairs): {}",
            gold.len(),
            counts.summary()
        );
    }

    if let Some((iri1, iri2)) = &opts.explain {
        match result.explain(iri1, iri2) {
            Some(explanation) => println!("\n{}", explanation.render(&kb1, &kb2)),
            None => return Err(format!("unknown IRI in --explain ({iri1} / {iri2})")),
        }
    }
    Ok(())
}

/// Input formats `paris align` / `paris stats` / `paris snapshot` accept.
const SUPPORTED_EXTENSIONS: [&str; 6] = ["nt", "ntriples", "ttl", "turtle", "tsv", "snap"];

/// Checks that an input path exists and carries a supported extension,
/// returning the lower-cased extension. Produces an error naming the file
/// and the reason, instead of letting a parser fail obscurely later.
fn check_input(path: &Path) -> Result<String, String> {
    if !path.exists() {
        return Err(format!(
            "cannot read {}: no such file or directory",
            path.display()
        ));
    }
    if path.is_dir() {
        return Err(format!(
            "cannot read {}: is a directory, expected a file",
            path.display()
        ));
    }
    let ext = path
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_ascii_lowercase);
    match ext {
        Some(e) if SUPPORTED_EXTENSIONS.contains(&e.as_str()) => Ok(e),
        Some(e) => Err(format!(
            "cannot read {}: unsupported extension '.{e}' (expected one of: .nt, .ntriples, .ttl, .turtle, .tsv, .snap)",
            path.display()
        )),
        None => Err(format!(
            "cannot read {}: missing file extension (expected one of: .nt, .ntriples, .ttl, .turtle, .tsv, .snap)",
            path.display()
        )),
    }
}

fn load(path: &Path) -> Result<Kb, String> {
    let ext = check_input(path)?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("kb")
        .to_owned();
    let result = if ext == "snap" {
        // A pre-built single-KB snapshot (from `paris snapshot FILE` or
        // `paris ingest`) — hydrate it instead of parsing RDF.
        return paris_repro::kb::MappedKbSnapshot::open(path)
            .map(|snap| snap.kb().to_kb())
            .map_err(|e| format!("loading {}: {e}", path.display()));
    } else if ext == "tsv" {
        // The paper's IMDb path: ad-hoc tabular facts → triples (§6.4).
        paris_repro::kb::tsv::kb_from_tsv_file(&name, path, &format!("urn:{name}:"))
    } else {
        // .ttl/.turtle parse as Turtle, everything else as N-Triples.
        kb_from_file(&name, path)
    };
    result.map_err(|e| format!("loading {}: {e}", path.display()))
}

fn read_gold(path: &Path) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((a, b)) = line.split_once('\t') else {
            return Err(format!(
                "{}:{}: expected two tab-separated IRIs",
                path.display(),
                number + 1
            ));
        };
        out.push((a.trim().to_owned(), b.trim().to_owned()));
    }
    Ok(out)
}

fn score_against_gold(
    pairs: &[(paris_repro::kb::EntityId, paris_repro::kb::EntityId, f64)],
    kb1: &Kb,
    kb2: &Kb,
    gold: &[(String, String)],
) -> Counts {
    let mut counts = Counts::default();
    let predicted: std::collections::HashMap<_, _> =
        pairs.iter().map(|&(x, y, _)| (x, y)).collect();
    for (a, b) in gold {
        let (Some(e1), Some(e2)) = (kb1.entity_by_iri(a), kb2.entity_by_iri(b)) else {
            continue;
        };
        match predicted.get(&e1) {
            Some(&p) if p == e2 => counts.true_positives += 1,
            Some(_) => {
                counts.false_positives += 1;
                counts.false_negatives += 1;
            }
            None => counts.false_negatives += 1,
        }
    }
    counts
}

fn stats(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        return Err("stats needs at least one N-Triples file".to_owned());
    }
    println!("{}", KbStats::table_header());
    for path in args {
        let kb = load(Path::new(path))?;
        println!("{}", KbStats::of(&kb).table_row());
    }
    Ok(())
}

fn generate(args: &[String]) -> Result<(), String> {
    let mut dataset: Option<&str> = None;
    let mut out: Option<PathBuf> = None;
    let mut seed: Option<u64> = None;
    let mut scale: Option<usize> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => {
                out = Some(PathBuf::from(
                    iter.next().ok_or("--out requires a directory")?,
                ))
            }
            "--seed" => {
                seed = Some(
                    iter.next()
                        .ok_or("--seed requires a value")?
                        .parse()
                        .map_err(|_| "bad --seed value".to_owned())?,
                )
            }
            "--scale" => {
                scale = Some(
                    iter.next()
                        .ok_or("--scale requires a value")?
                        .parse()
                        .map_err(|_| "bad --scale value".to_owned())?,
                )
            }
            name if !name.starts_with("--") && dataset.is_none() => dataset = Some(name),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let dataset = dataset.ok_or("generate needs a dataset name")?;
    let out = out.ok_or("generate needs --out <DIR>")?;

    let pair = match dataset {
        "persons" => {
            let mut c = datagen::PersonsConfig::default();
            if let Some(s) = seed {
                c.seed = s;
            }
            if let Some(n) = scale {
                c.num_persons = n;
            }
            datagen::persons::generate(&c)
        }
        "restaurants" => {
            let mut c = datagen::RestaurantsConfig::default();
            if let Some(s) = seed {
                c.seed = s;
            }
            if let Some(n) = scale {
                c.num_matched = n;
            }
            datagen::restaurants::generate(&c)
        }
        "encyclopedia" => {
            let mut c = datagen::EncyclopediaConfig::default();
            if let Some(s) = seed {
                c.seed = s;
            }
            if let Some(n) = scale {
                c.num_people = n;
            }
            datagen::encyclopedia::generate(&c)
        }
        "movies" => {
            let mut c = datagen::MoviesConfig::default();
            if let Some(s) = seed {
                c.seed = s;
            }
            if let Some(n) = scale {
                c.num_movies = n;
            }
            datagen::movies::generate(&c)
        }
        other => return Err(format!("unknown dataset '{other}'")),
    };

    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let write = |name: &str, content: String| -> Result<(), String> {
        let path = out.join(name);
        std::fs::write(&path, content).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write("left.nt", paris_repro::kb::export::to_ntriples(&pair.kb1))?;
    write("right.nt", paris_repro::kb::export::to_ntriples(&pair.kb2))?;
    write("gold.tsv", gold_tsv(&pair.gold.instances))?;
    println!(
        "wrote left.nt ({}), right.nt ({}), gold.tsv ({} pairs) to {}",
        KbStats::of(&pair.kb1),
        KbStats::of(&pair.kb2),
        pair.gold.num_instances(),
        out.display(),
    );
    Ok(())
}

/// Writes an aligned pair as a snapshot file.
fn save_pair(snap: &paris_repro::paris::AlignedPairSnapshot, out: &Path) -> Result<(), String> {
    paris_repro::paris::MappedPairSnapshot::save_v2(snap, out)
        .map_err(|e| format!("writing {}: {e}", out.display()))
}

/// `paris snapshot`: persist one KB, or align a pair and persist the
/// result, as a versioned binary snapshot.
fn snapshot(args: &[String]) -> Result<(), String> {
    let mut positional: Vec<&String> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut config = ParisConfig::default();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
                .cloned()
        };
        if parse_config_flag(arg, &mut config, &mut value_of)? {
            continue;
        }
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(value_of("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option '{flag}'")),
            _ => positional.push(arg),
        }
    }
    let out = out.ok_or("snapshot needs --out <FILE.snap>")?;

    let t0 = std::time::Instant::now();
    match positional.as_slice() {
        [single] => {
            let kb = load(Path::new(single))?;
            paris_repro::kb::snapshot_v2::save_kb_v2(&kb, &out)
                .map_err(|e| format!("writing {}: {e}", out.display()))?;
            println!(
                "wrote single-KB snapshot of {} to {} ({} bytes, {:.2}s)",
                KbStats::of(&kb),
                out.display(),
                file_size(&out),
                t0.elapsed().as_secs_f64(),
            );
        }
        [left, right] => {
            let kb1 = load(Path::new(left))?;
            let kb2 = load(Path::new(right))?;
            eprintln!("loaded {}", KbStats::of(&kb1));
            eprintln!("loaded {}", KbStats::of(&kb2));
            let result = Aligner::new(&kb1, &kb2, config).run();
            let aligned = result.instance_pairs().len();
            let iterations = result.iterations.len();
            let owned = result.detach();
            let snap = paris_repro::paris::AlignedPairSnapshot::new(kb1, kb2, owned);
            save_pair(&snap, &out)?;
            println!(
                "wrote aligned-pair snapshot to {} ({} bytes): {aligned} instances aligned in {iterations} iterations, {:.2}s total",
                out.display(),
                file_size(&out),
                t0.elapsed().as_secs_f64(),
            );
        }
        _ => {
            return Err("snapshot needs one input file (KB snapshot) or two (aligned pair)".into())
        }
    }
    Ok(())
}

/// `paris ingest`: stream an N-Triples/N-Quads file into a single-KB v2
/// snapshot in bounded memory, never materializing a heap `Kb`.
fn ingest(args: &[String]) -> Result<(), String> {
    let mut positional: Vec<&String> = Vec::new();
    let mut opts = paris_repro::kb::ingest::IngestOptions {
        threads: 0,
        ..Default::default()
    };
    let mut name: Option<String> = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .ok_or_else(|| format!("{flag} requires a value"))
                .cloned()
        };
        match arg.as_str() {
            "--mem-budget" => {
                let bytes = parse_byte_size(&value_of("--mem-budget")?)?;
                opts.mem_budget = usize::try_from(bytes)
                    .map_err(|_| format!("--mem-budget {bytes} does not fit this platform"))?;
            }
            "--threads" => {
                opts.threads = value_of("--threads")?
                    .parse()
                    .map_err(|_| "bad --threads value".to_owned())?
            }
            "--name" => name = Some(value_of("--name")?),
            "--quads" => opts.quads = true,
            "--tmp" => opts.tmp_dir = Some(PathBuf::from(value_of("--tmp")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option '{flag}'")),
            _ => positional.push(arg),
        }
    }
    let [input, output] = positional.as_slice() else {
        return Err("ingest needs exactly two arguments: <IN.nt> <OUT.snap>".to_owned());
    };
    let input = Path::new(input);
    let output = Path::new(output);
    if !input.exists() {
        return Err(format!(
            "cannot read {}: no such file or directory",
            input.display()
        ));
    }
    let ext = input
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_ascii_lowercase)
        .unwrap_or_default();
    match ext.as_str() {
        "nt" | "ntriples" => {}
        "nq" | "nquads" => opts.quads = true,
        other => {
            return Err(format!(
                "cannot ingest {}: unsupported extension '.{other}' (expected .nt, .ntriples, \
                 .nq, or .nquads — Turtle and TSV need the heap path, `paris snapshot`)",
                input.display()
            ))
        }
    }
    if opts.threads == 0 {
        opts.threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    }
    opts.name = name.unwrap_or_else(|| {
        input
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("kb")
            .to_owned()
    });

    let t0 = std::time::Instant::now();
    let report = paris_repro::kb::ingest::ingest_file(input, output, &opts)
        .map_err(|e| format!("ingesting {}: {e}", input.display()))?;
    println!(
        "ingested {} ({} triples, {} lines, {} bytes) into {}: \
         {} terms, {} relations, {} classes, {} pairs → {} bytes; \
         {} spill runs ({} bytes) under a {} byte budget; {:.2}s",
        input.display(),
        report.triples,
        report.lines,
        report.bytes_in,
        output.display(),
        report.entities,
        report.relations,
        report.classes,
        report.pairs,
        report.output_bytes,
        report.spill_runs,
        report.spill_bytes,
        opts.mem_budget,
        t0.elapsed().as_secs_f64(),
    );
    Ok(())
}

fn file_size(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Parses an RDF file into triples for delta assembly (.nt/.ttl only —
/// the .tsv importer synthesizes IRIs and is not delta-addressable).
fn read_delta_triples(path: &Path) -> Result<Vec<paris_repro::rdf::Triple>, String> {
    let ext = check_input(path)?;
    let result = match ext.as_str() {
        "tsv" => {
            return Err(format!(
                "cannot read {}: .tsv is not supported for deltas (use .nt or .ttl)",
                path.display()
            ))
        }
        "ttl" | "turtle" => paris_repro::rdf::turtle::parse_turtle_file(path),
        _ => paris_repro::rdf::ntriples::parse_file(path),
    };
    result.map_err(|e| format!("loading {}: {e}", path.display()))
}

/// Assembles one side's delta from an optional pre-built binary delta
/// plus optional add/remove RDF files. Returns `None` when the side is
/// untouched.
fn assemble_delta(
    binary: Option<&PathBuf>,
    add: Option<&PathBuf>,
    remove: Option<&PathBuf>,
) -> Result<Option<paris_repro::kb::KbDelta>, String> {
    if binary.is_none() && add.is_none() && remove.is_none() {
        return Ok(None);
    }
    let mut delta = match binary {
        Some(path) => paris_repro::kb::KbDelta::load(path)
            .map_err(|e| format!("loading {}: {e}", path.display()))?,
        // Wildcard target: snapshot KB names come from the original file
        // stems, which the delta author need not know.
        None => paris_repro::kb::KbDelta::new(""),
    };
    for (path, remove_flag) in [(add, false), (remove, true)] {
        if let Some(path) = path {
            let triples = read_delta_triples(path)?;
            delta
                .add_triples(&triples, remove_flag)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(Some(delta))
}

/// `paris delta`: apply deltas to an aligned-pair snapshot and re-align
/// incrementally (or fully with `--full`), writing the updated snapshot.
fn delta(args: &[String]) -> Result<(), String> {
    let mut positional: Vec<&String> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut config = ParisConfig::default();
    let mut full = false;
    let mut paths: [Option<PathBuf>; 8] = Default::default();
    const ADD_LEFT: usize = 0;
    const REMOVE_LEFT: usize = 1;
    const ADD_RIGHT: usize = 2;
    const REMOVE_RIGHT: usize = 3;
    const DELTA_LEFT: usize = 4;
    const DELTA_RIGHT: usize = 5;
    const SAVE_LEFT: usize = 6;
    const SAVE_RIGHT: usize = 7;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
                .cloned()
        };
        if parse_config_flag(arg, &mut config, &mut value_of)? {
            continue;
        }
        let slot = match arg.as_str() {
            "--out" => {
                out = Some(PathBuf::from(value_of("--out")?));
                continue;
            }
            "--full" => {
                full = true;
                continue;
            }
            "--add-left" => ADD_LEFT,
            "--remove-left" => REMOVE_LEFT,
            "--add-right" => ADD_RIGHT,
            "--remove-right" => REMOVE_RIGHT,
            "--delta-left" => DELTA_LEFT,
            "--delta-right" => DELTA_RIGHT,
            "--save-delta-left" => SAVE_LEFT,
            "--save-delta-right" => SAVE_RIGHT,
            flag if flag.starts_with("--") => return Err(format!("unknown option '{flag}'")),
            _ => {
                positional.push(arg);
                continue;
            }
        };
        paths[slot] = Some(PathBuf::from(value_of(arg)?));
    }
    let [pair_path] = positional.as_slice() else {
        return Err("delta needs exactly one aligned-pair snapshot".to_owned());
    };
    let out = out.ok_or("delta needs --out <FILE.snap>")?;

    let delta1 = assemble_delta(
        paths[DELTA_LEFT].as_ref(),
        paths[ADD_LEFT].as_ref(),
        paths[REMOVE_LEFT].as_ref(),
    )?;
    let delta2 = assemble_delta(
        paths[DELTA_RIGHT].as_ref(),
        paths[ADD_RIGHT].as_ref(),
        paths[REMOVE_RIGHT].as_ref(),
    )?;
    if delta1.is_none() && delta2.is_none() {
        return Err("delta needs at least one of --add/--remove/--delta-left/-right".to_owned());
    }
    for (assembled, save_slot) in [(&delta1, SAVE_LEFT), (&delta2, SAVE_RIGHT)] {
        if let (Some(d), Some(path)) = (assembled, &paths[save_slot]) {
            d.save(path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!(
                "wrote binary delta ({} changes) to {}",
                d.len(),
                path.display()
            );
        }
    }

    let t0 = std::time::Instant::now();
    // Deltas rewrite the KBs, so the image is hydrated into the owned
    // representation first.
    let snap = paris_repro::paris::PairImage::load(pair_path.as_str())
        .map_err(|e| format!("loading {pair_path}: {e}"))?
        .into_decoded();
    let load_seconds = t0.elapsed().as_secs_f64();

    let t1 = std::time::Instant::now();
    if full {
        // Comparison mode: apply the deltas, then a from-scratch run.
        let mut kb1 = snap.kb1;
        let mut kb2 = snap.kb2;
        let mut counts = (0usize, 0usize);
        for (delta, kb) in [(&delta1, &mut kb1), (&delta2, &mut kb2)] {
            if let Some(d) = delta {
                let applied = paris_repro::kb::delta::apply(kb, d).map_err(|e| e.to_string())?;
                counts.0 += applied.added;
                counts.1 += applied.removed;
                *kb = applied.kb;
            }
        }
        let result = Aligner::new(&kb1, &kb2, config).run();
        let aligned = result.instance_pairs().len();
        let iterations = result.iterations.len();
        let owned = result.detach();
        save_pair(
            &paris_repro::paris::AlignedPairSnapshot::new(kb1, kb2, owned),
            &out,
        )?;
        println!(
            "full re-alignment after delta (+{} −{} facts): {aligned} instances \
             aligned in {iterations} iterations, {:.2}s (+ {load_seconds:.2}s load), \
             wrote {} ({} bytes)",
            counts.0,
            counts.1,
            t1.elapsed().as_secs_f64(),
            out.display(),
            file_size(&out),
        );
        return Ok(());
    }

    let (updated, report) = paris_repro::paris::update_snapshot(
        snap,
        delta1.as_ref(),
        delta2.as_ref(),
        &config,
        &paris_repro::paris::IncrementalOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    save_pair(&updated, &out)?;
    println!(
        "incremental re-alignment (+{} −{} facts left, +{} −{} right): rescored \
         {}/{} instance rows and {} relation rows over {} iterations, {:.2}s \
         (+ {load_seconds:.2}s load), wrote {} ({} bytes)",
        report.added1,
        report.removed1,
        report.added2,
        report.removed2,
        report.incremental.rescored_rows,
        report.incremental.total_instances,
        report.incremental.rescored_relation_rows,
        report.iterations,
        t1.elapsed().as_secs_f64(),
        out.display(),
        file_size(&out),
    );
    Ok(())
}

/// Parses a byte count with an optional K/M/G suffix (binary units).
fn parse_byte_size(spec: &str) -> Result<u64, String> {
    let spec = spec.trim();
    let (digits, multiplier) = match spec.chars().last() {
        Some('k') | Some('K') => (&spec[..spec.len() - 1], 1u64 << 10),
        Some('m') | Some('M') => (&spec[..spec.len() - 1], 1u64 << 20),
        Some('g') | Some('G') => (&spec[..spec.len() - 1], 1u64 << 30),
        _ => (spec, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad byte size '{spec}' (expected e.g. 1048576, 512M, 2G)"))?;
    n.checked_mul(multiplier)
        .ok_or_else(|| format!("byte size '{spec}' overflows"))
}

/// `paris serve`: serve one snapshot, or a catalog directory of them,
/// over HTTP.
fn serve(args: &[String]) -> Result<(), String> {
    let mut positional: Vec<&String> = Vec::new();
    let mut config = paris_repro::server::ServerConfig {
        // A daemon run from a terminal should say what it is doing; the
        // library default stays Off so embedding a Server is silent.
        log_format: paris_repro::server::LogFormat::Text,
        ..Default::default()
    };

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
                .cloned()
        };
        match arg.as_str() {
            "--addr" => config.addr = value_of("--addr")?,
            "--threads" => {
                config.threads = value_of("--threads")?
                    .parse()
                    .map_err(|_| "bad --threads value".to_owned())?
            }
            "--no-jobs" => config.enable_jobs = false,
            "--catalog" => config.catalog_dir = Some(PathBuf::from(value_of("--catalog")?)),
            "--watch" => {
                let seconds: f64 = value_of("--watch")?
                    .parse()
                    .map_err(|_| "bad --watch value".to_owned())?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--watch needs a positive number of seconds".to_owned());
                }
                config.watch_interval = Some(std::time::Duration::from_secs_f64(seconds));
            }
            "--log-format" => {
                let value = value_of("--log-format")?;
                config.log_format =
                    paris_repro::server::LogFormat::parse(&value).ok_or_else(|| {
                        format!("--log-format must be text, json, or off, not '{value}'")
                    })?
            }
            "--replica-of" => config.replica_of = Some(value_of("--replica-of")?),
            "--trace-buffer" => {
                config.trace_buffer = value_of("--trace-buffer")?
                    .parse()
                    .map_err(|_| "bad --trace-buffer value (spans, 0 disables)".to_owned())?
            }
            "--slow-ms" => {
                config.slow_ms = Some(
                    value_of("--slow-ms")?
                        .parse()
                        .map_err(|_| "bad --slow-ms value (milliseconds)".to_owned())?,
                )
            }
            "--trace-pinned" => {
                config.trace_pinned = value_of("--trace-pinned")?
                    .parse()
                    .map_err(|_| "bad --trace-pinned value (slow traces, 0 disables)".to_owned())?
            }
            "--run-history" => config.run_history = Some(PathBuf::from(value_of("--run-history")?)),
            "--sync-interval" => {
                let seconds: f64 = value_of("--sync-interval")?
                    .parse()
                    .map_err(|_| "bad --sync-interval value".to_owned())?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--sync-interval needs a positive number of seconds".to_owned());
                }
                config.sync_interval = std::time::Duration::from_secs_f64(seconds);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option '{flag}'")),
            _ => positional.push(arg),
        }
    }
    if config.replica_of.is_some() && config.catalog_dir.is_none() {
        return Err(
            "--replica-of needs --catalog DIR (the local mirror directory, created if missing)"
                .into(),
        );
    }

    let server = match (config.catalog_dir.clone(), positional.as_slice()) {
        (Some(dir), []) => {
            let replica_of = config.replica_of.clone();
            let server = paris_repro::server::Server::bind_catalog(config)
                .map_err(|e| format!("opening catalog {}: {e}", dir.display()))?;
            match replica_of {
                Some(upstream) => eprintln!(
                    "replica of {upstream}: mirroring into {} ({} pair(s) already local)",
                    dir.display(),
                    server.pair_names().len(),
                ),
                None => eprintln!(
                    "catalog {}: serving {} pair(s): {}",
                    dir.display(),
                    server.pair_names().len(),
                    server.pair_names().join(", "),
                ),
            }
            server
        }
        (Some(_), _) => {
            return Err("serve takes either --catalog DIR or one snapshot file, not both".into())
        }
        (None, [snapshot_path]) => {
            // The serve-time file is the default source for POST /reload
            // and the --watch re-check.
            config.snapshot_path = Some(PathBuf::from(snapshot_path.as_str()));
            let t0 = std::time::Instant::now();
            let image = paris_repro::paris::PairImage::load(snapshot_path.as_str())
                .map_err(|e| format!("loading {snapshot_path}: {e}"))?;
            eprintln!(
                "loaded snapshot in {:.1} ms ({}): {} / {} — {} aligned instances",
                t0.elapsed().as_secs_f64() * 1000.0,
                if image.is_mapped() {
                    "mmap, zero-copy"
                } else {
                    "read into memory"
                },
                image.kb_stats(paris_repro::paris::PairSide::Kb1),
                image.kb_stats(paris_repro::paris::PairSide::Kb2),
                image.aligned_instances(),
            );
            paris_repro::server::Server::bind_image(image, config)
                .map_err(|e| format!("binding listener: {e}"))?
        }
        (None, _) => {
            return Err("serve needs exactly one snapshot file (or --catalog DIR)".to_owned())
        }
    };
    let addr = server
        .local_addr()
        .map_err(|e| format!("resolving bound address: {e}"))?;
    eprintln!("serving on http://{addr}  (try: curl 'http://{addr}/v1/healthz')");
    server.run().map_err(|e| format!("server error: {e}"))
}

/// `paris sync`: one replication cycle — mirror a primary's catalog
/// into a local directory (the cron-style counterpart of
/// `paris serve --replica-of`).
fn sync(args: &[String]) -> Result<(), String> {
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown option '{flag}'"));
    }
    let [url, dir] = positional.as_slice() else {
        return Err("sync needs exactly an upstream URL and a mirror directory".to_owned());
    };

    let t0 = std::time::Instant::now();
    let mut engine = paris_repro::replica::SyncEngine::new(url, dir.as_str())?;
    let outcome = engine
        .sync_once()
        .map_err(|e| format!("sync against {url}: {e}"))?;
    println!(
        "synced {url} -> {dir}: {} updated, {} unchanged, {} removed \
         ({} snapshot bytes transferred, {:.2}s)",
        outcome.updated.len(),
        outcome.unchanged,
        outcome.removed.len(),
        outcome.snapshot_bytes,
        t0.elapsed().as_secs_f64(),
    );
    for name in &outcome.updated {
        println!("  updated  {name}");
    }
    for name in &outcome.removed {
        println!("  removed  {name}");
    }
    if !outcome.failed.is_empty() {
        for (name, why) in &outcome.failed {
            eprintln!("  FAILED   {name}: {why}");
        }
        return Err(format!(
            "{} pair(s) failed to transfer (the mirror keeps its previous copies)",
            outcome.failed.len()
        ));
    }
    Ok(())
}

/// `paris query`: the typed `/v1` client — sameas/neighbors/explain/
/// batch/stats against one daemon or a failover list.
fn query(args: &[String]) -> Result<(), String> {
    use paris_repro::client::{ParisClient, Query, Side};

    let (positional, flags) = split_query_args(args)?;
    let [urls, command, rest @ ..] = positional.as_slice() else {
        return Err("query needs an upstream URL (or comma-separated list) and a command".into());
    };
    let upstreams: Vec<&str> = urls.split(',').filter(|u| !u.is_empty()).collect();
    let mut client =
        ParisClient::with_upstreams(&upstreams).map_err(|e| format!("bad upstream: {e}"))?;

    let flag = |name: &str| {
        flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    let pair = flag("--pair");
    let side = match flag("--side") {
        None | Some("left") => Side::Left,
        Some("right") => Side::Right,
        Some(other) => return Err(format!("--side must be left or right, not '{other}'")),
    };
    let parse_num = |name: &str| -> Result<Option<u64>, String> {
        flag(name)
            .map(|v| v.parse().map_err(|_| format!("bad {name} value '{v}'")))
            .transpose()
    };
    let err = |e: paris_repro::client::ClientError| e.to_string();
    // `--format json` on the observability commands prints the raw
    // envelope body instead of the rendered view (mirrors `metrics`,
    // which additionally accepts `prometheus`).
    let wants_json = || -> Result<bool, String> {
        match flag("--format") {
            None => Ok(false),
            Some("json") => Ok(true),
            Some(other) => Err(format!("--format must be json, not '{other}'")),
        }
    };
    let print_raw = |body: String| {
        print!("{body}");
        if !body.ends_with('\n') {
            println!();
        }
    };

    match (command.as_str(), rest) {
        ("health", []) => {
            let h = client.healthz().map_err(err)?;
            println!(
                "{} paris {} ({}): {} pair(s), default generation {}",
                h.status, h.version, h.role, h.pairs, h.generation
            );
        }
        ("pairs", []) => {
            let (default, pairs) = client.pairs().map_err(err)?;
            for p in pairs {
                println!(
                    "{:<24} {:<9} generation {}{}",
                    p.name,
                    if p.loaded { "loaded" } else { "unloaded" },
                    p.generation,
                    if p.name == default { "  (default)" } else { "" },
                );
            }
        }
        ("stats", []) => {
            let s = client.stats(pair).map_err(err)?;
            println!(
                "pair {} ({}): {} aligned instances, {} equivalences, generation {}, converged {}",
                s.pair,
                s.format,
                s.aligned_instances,
                s.instance_equivalences,
                s.generation,
                s.converged,
            );
        }
        ("sameas", [iri]) => {
            let threshold = flag("--threshold")
                .map(|v| v.parse::<f64>().map_err(|_| "bad --threshold value"))
                .transpose()?;
            let a = client.sameas(pair, iri, side, threshold).map_err(err)?;
            match a.sameas {
                Some(m) => println!("{} ≡ {}  Pr={}", a.iri, m, a.score),
                None => println!("{}: no match", a.iri),
            }
        }
        ("neighbors", [iri]) => {
            let limit = parse_num("--limit")?;
            let offset = parse_num("--offset")?.unwrap_or(0);
            let n = client
                .neighbors(pair, iri, side, limit, offset)
                .map_err(err)?;
            println!(
                "{}: {} fact(s), showing {} from offset {}",
                n.iri,
                n.total_facts,
                n.facts.len(),
                n.offset
            );
            for f in n.facts {
                println!(
                    "  {}{:<1} {}  (fun {:.2})",
                    f.relation,
                    if f.inverse { "⁻" } else { "" },
                    f.value,
                    f.functionality
                );
            }
        }
        ("explain", [left, right]) => {
            let ex = client.explain(pair, left, right).map_err(err)?;
            println!(
                "Pr({} ≡ {}) = {:.4} from {} piece(s) of evidence (stored {:.4}, assigned: {})",
                ex.left,
                ex.right,
                ex.score,
                ex.evidence.len(),
                ex.stored_score,
                ex.assigned,
            );
            for e in &ex.evidence {
                println!(
                    "  {}({}) ~ {}({})  Pr(y≡y′)={:.2} fun⁻¹={:.2}/{:.2} → +{:.3}",
                    e.relation_left,
                    e.neighbor_left,
                    e.relation_right,
                    e.neighbor_right,
                    e.neighbor_prob,
                    e.inv_functionality_left,
                    e.inv_functionality_right,
                    1.0 - e.factor,
                );
            }
            match &ex.assignment.sameas {
                Some(m) => println!(
                    "assignment: {} ≡ {}  Pr={}",
                    ex.left, m, ex.assignment.score
                ),
                None => println!("assignment: {} is unassigned", ex.left),
            }
        }
        ("batch", [file]) => {
            let text = if file.as_str() == "-" {
                use std::io::Read;
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .map_err(|e| format!("reading stdin: {e}"))?;
                buf
            } else {
                std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?
            };
            let queries = parse_batch_file(&text)?;
            let results = client.batch(pair, &queries).map_err(err)?;
            for (query, result) in queries.iter().zip(results) {
                let iri = match query {
                    Query::Sameas { iri, .. } | Query::Neighbors { iri, .. } => iri,
                };
                match result {
                    Ok(paris_repro::client::BatchAnswer::Sameas(a)) => match a.sameas {
                        Some(m) => println!("{iri} ≡ {m}  Pr={}", a.score),
                        None => println!("{iri}: no match"),
                    },
                    Ok(paris_repro::client::BatchAnswer::Neighbors(n)) => {
                        println!("{iri}: {} fact(s)", n.total_facts)
                    }
                    Err(e) => println!("{iri}: ERROR {e}"),
                }
            }
        }
        ("traces", []) => {
            use paris_repro::client::json::Json;
            if wants_json()? {
                print_raw(client.get_raw("/v1/debug/traces").map_err(err)?);
                return Ok(());
            }
            let d = client.debug_traces().map_err(err)?;
            let int = |k: &str| d.get(k).and_then(Json::as_u64).unwrap_or(0);
            println!(
                "trace buffer: {} span(s) recorded, {} evicted (capacity {})",
                int("recorded"),
                int("dropped"),
                int("capacity"),
            );
            let slowest = d.get("slowest").and_then(Json::as_array).unwrap_or(&[]);
            if !slowest.is_empty() {
                println!("slowest traces:");
                for s in slowest {
                    println!(
                        "  {}  {:>10.3} ms  {:>4} span(s)  {}",
                        s.get("trace").and_then(Json::as_str).unwrap_or("?"),
                        s.get("duration_ns").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e6,
                        s.get("spans").and_then(Json::as_u64).unwrap_or(0),
                        s.get("root").and_then(Json::as_str).unwrap_or("?"),
                    );
                }
            }
            let recent = d.get("recent").and_then(Json::as_array).unwrap_or(&[]);
            if !recent.is_empty() {
                println!("recent spans (newest first):");
                for s in recent.iter().take(20) {
                    println!(
                        "  {}  {:>10.3} ms  {}",
                        s.get("trace").and_then(Json::as_str).unwrap_or("?"),
                        s.get("duration_ns").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e6,
                        s.get("name").and_then(Json::as_str).unwrap_or("?"),
                    );
                }
            }
        }
        ("traces", [id]) => {
            use paris_repro::client::json::Json;
            if wants_json()? {
                if id.len() != 32 || !id.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Err(format!("invalid trace id '{id}'"));
                }
                print_raw(
                    client
                        .get_raw(&format!("/v1/debug/traces/{id}"))
                        .map_err(err)?,
                );
                return Ok(());
            }
            let d = client.debug_trace(id).map_err(err)?;
            println!(
                "trace {} ({} span(s)):",
                d.get("trace").and_then(Json::as_str).unwrap_or(id),
                d.get("spans").and_then(Json::as_u64).unwrap_or(0),
            );
            for root in d.get("roots").and_then(Json::as_array).unwrap_or(&[]) {
                print_span_tree(root, 0);
            }
        }
        ("metrics", []) => {
            let body = match flag("--format") {
                None | Some("prometheus") | Some("text") => {
                    client.server_metrics(None).map_err(err)?
                }
                Some("json") => client.server_metrics(Some("json")).map_err(err)?,
                Some(other) => {
                    return Err(format!(
                        "--format must be prometheus or json, not '{other}'"
                    ))
                }
            };
            print_raw(body);
        }
        ("diagnostics", []) => {
            use paris_repro::client::json::Json;
            if wants_json()? {
                let path = client.diagnostics_path(pair).map_err(err)?;
                print_raw(client.get_raw(&path).map_err(err)?);
                return Ok(());
            }
            let d = client.diagnostics(pair).map_err(err)?;
            let int = |o: Option<&Json>, k: &str| {
                o.and_then(|o| o.get(k)).and_then(Json::as_u64).unwrap_or(0)
            };
            let num = |o: Option<&Json>, k: &str| {
                o.and_then(|o| o.get(k))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            let inst = d.get("instances");
            let scores = d.get("scores");
            let rel = d.get("relations");
            let classes = d.get("classes");
            println!(
                "pair {} (generation {}): {}/{} instances assigned, coverage {:.1}%",
                d.get("pair").and_then(Json::as_str).unwrap_or("?"),
                d.get("generation").and_then(Json::as_u64).unwrap_or(0),
                int(inst, "assigned"),
                int(inst, "kb1"),
                num(inst, "coverage") * 100.0,
            );
            println!(
                "scores: mean {:.3}  p50 {:.3}  p90 {:.3}  p99 {:.3}",
                num(scores, "mean"),
                num(scores, "p50"),
                num(scores, "p90"),
                num(scores, "p99"),
            );
            println!(
                "relations: {}/{} kb1→kb2, {}/{} kb2→kb1 aligned (threshold {})",
                int(rel, "aligned_1to2"),
                int(rel, "kb1"),
                int(rel, "aligned_2to1"),
                int(rel, "kb2"),
                num(rel, "threshold"),
            );
            println!(
                "classes: {} vs {}; {} iteration(s), converged {}",
                int(classes, "kb1"),
                int(classes, "kb2"),
                d.get("iterations").and_then(Json::as_u64).unwrap_or(0),
                d.get("converged").and_then(Json::as_bool).unwrap_or(false),
            );
        }
        ("profile", []) => {
            use paris_repro::client::json::Json;
            let root = flag("--root");
            if wants_json()? {
                print_raw(
                    client
                        .get_raw(&ParisClient::profile_path(root))
                        .map_err(err)?,
                );
                return Ok(());
            }
            let d = client.debug_profile(root).map_err(err)?;
            println!(
                "profile over {} span(s): total {:.3} ms, self-time sum {:.3} ms{}",
                d.get("spans").and_then(Json::as_u64).unwrap_or(0),
                d.get("total_root_ns").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e6,
                d.get("total_self_ns").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e6,
                d.get("root")
                    .and_then(Json::as_str)
                    .map(|r| format!("  (root filter: {r})"))
                    .unwrap_or_default(),
            );
            for node in d.get("roots").and_then(Json::as_array).unwrap_or(&[]) {
                print_flame_node(node, 0);
            }
        }
        ("runs", []) => {
            use paris_repro::client::json::Json;
            if wants_json()? {
                print_raw(client.get_raw("/v1/debug/runs").map_err(err)?);
                return Ok(());
            }
            let d = client.debug_runs().map_err(err)?;
            println!(
                "{} recorded run(s) in {}",
                d.get("runs").and_then(Json::as_u64).unwrap_or(0),
                d.get("file").and_then(Json::as_str).unwrap_or("?"),
            );
            for r in d.get("records").and_then(Json::as_array).unwrap_or(&[]) {
                let agreement = match r.get("agreement").and_then(Json::as_f64) {
                    Some(a) => format!("{a:.3}"),
                    None => "-".to_owned(),
                };
                println!(
                    "  job {:>4}  {:<24} gen {:>3}  {:>3} iter(s)  {:>6} aligned  \
                     {:>8.2}s  agreement {agreement}{}",
                    r.get("job").and_then(Json::as_u64).unwrap_or(0),
                    r.get("pair").and_then(Json::as_str).unwrap_or("?"),
                    r.get("generation").and_then(Json::as_u64).unwrap_or(0),
                    r.get("iterations").and_then(Json::as_u64).unwrap_or(0),
                    r.get("aligned_instances")
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                    r.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
                    if r.get("drift").and_then(Json::as_bool).unwrap_or(false) {
                        "  DRIFT"
                    } else {
                        ""
                    },
                );
            }
        }
        _ => {
            return Err(format!(
                "unknown query command '{command}' (or wrong arguments); \
                 expected health, pairs, stats, diagnostics, metrics, \
                 traces [TRACE-ID], profile, runs, sameas IRI, neighbors IRI, \
                 explain LEFT RIGHT, or batch FILE"
            ))
        }
    }
    Ok(())
}

/// Prints one node of a `/v1/debug/profile` flame tree, indented by
/// depth.
fn print_flame_node(node: &paris_repro::client::json::Json, depth: usize) {
    use paris_repro::client::json::Json;
    println!(
        "{:indent$}{}  ×{}  total {:.3} ms  self {:.3} ms  p50 {} µs  p99 {} µs",
        "",
        node.get("name").and_then(Json::as_str).unwrap_or("?"),
        node.get("count").and_then(Json::as_u64).unwrap_or(0),
        node.get("total_ns").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e6,
        node.get("self_ns").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e6,
        node.get("p50_us").and_then(Json::as_u64).unwrap_or(0),
        node.get("p99_us").and_then(Json::as_u64).unwrap_or(0),
        indent = depth * 2
    );
    for child in node.get("children").and_then(Json::as_array).unwrap_or(&[]) {
        print_flame_node(child, depth + 1);
    }
}

/// Prints one node of a `/v1/debug/traces/<id>` span tree, indented by
/// depth, with its attributes inline.
fn print_span_tree(node: &paris_repro::client::json::Json, depth: usize) {
    use paris_repro::client::json::Json;
    let name = node.get("name").and_then(Json::as_str).unwrap_or("?");
    let ms = node.get("duration_ns").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e6;
    let mut attrs = String::new();
    if let Some(Json::Obj(members)) = node.get("attrs") {
        for (key, value) in members {
            let rendered = match value {
                Json::Str(s) => s.clone(),
                Json::Num(n) => {
                    if n.fract() == 0.0 {
                        format!("{}", *n as i64)
                    } else {
                        format!("{n:.3}")
                    }
                }
                other => format!("{other:?}"),
            };
            attrs.push_str(&format!(" {key}={rendered}"));
        }
    }
    println!(
        "{:indent$}{name}  {ms:.3} ms {attrs}",
        "",
        indent = depth * 2
    );
    for child in node.get("children").and_then(Json::as_array).unwrap_or(&[]) {
        print_span_tree(child, depth + 1);
    }
}

/// Positional arguments plus `--flag value` pairs of `paris query`.
type SplitQueryArgs = (Vec<String>, Vec<(String, String)>);

/// Splits `paris query` arguments into positionals and `--flag value`
/// pairs (every query flag takes a value).
fn split_query_args(args: &[String]) -> Result<SplitQueryArgs, String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg.starts_with("--") {
            let value = iter
                .next()
                .ok_or_else(|| format!("{arg} requires a value"))?;
            flags.push((arg.clone(), value.clone()));
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((positional, flags))
}

/// Parses a batch file: either the full `/v1` body
/// (`{"queries":[…]}`) or the bare queries array.
fn parse_batch_file(text: &str) -> Result<Vec<paris_repro::client::Query>, String> {
    use paris_repro::client::json::{self, Json};
    use paris_repro::client::{Query, Side};
    let doc = json::parse(text).map_err(|e| format!("batch file is not valid JSON: {e}"))?;
    let items = doc
        .get("queries")
        .unwrap_or(&doc)
        .as_array()
        .ok_or("batch file must hold {\"queries\":[…]} or a bare array")?;
    items
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let s = |key: &str| q.get(key).and_then(Json::as_str);
            let iri = s("iri")
                .ok_or_else(|| format!("query #{i} has no 'iri'"))?
                .to_owned();
            let side = match s("side") {
                None | Some("left") => Side::Left,
                Some("right") => Side::Right,
                Some(other) => return Err(format!("query #{i}: bad side '{other}'")),
            };
            match s("op") {
                Some("sameas") => Ok(Query::Sameas {
                    iri,
                    side,
                    threshold: q.get("threshold").and_then(Json::as_f64),
                }),
                Some("neighbors") => Ok(Query::Neighbors {
                    iri,
                    side,
                    limit: q.get("limit").and_then(Json::as_u64),
                    offset: q.get("offset").and_then(Json::as_u64).unwrap_or(0),
                }),
                other => Err(format!("query #{i}: bad op {other:?}")),
            }
        })
        .collect()
}

fn gold_tsv(instances: &[(Iri, Iri)]) -> String {
    let mut s = String::from("# gold standard: <left IRI> TAB <right IRI>\n");
    for (a, b) in instances {
        s.push_str(a.as_str());
        s.push('\t');
        s.push_str(b.as_str());
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_align_defaults() {
        let opts = parse_align(&strings(&["a.nt", "b.nt"])).unwrap();
        assert_eq!(opts.left, PathBuf::from("a.nt"));
        assert_eq!(opts.right, PathBuf::from("b.nt"));
        assert_eq!(opts.config.theta, 0.1);
        assert_eq!(opts.threshold, 0.4);
        assert!(!opts.show_relations);
    }

    #[test]
    fn parse_align_options() {
        let opts = parse_align(&strings(&[
            "a.nt",
            "--literals",
            "edit:0.8",
            "b.nt",
            "--theta",
            "0.05",
            "--negative-evidence",
            "--relations",
            "--sameas",
            "out.nt",
        ]))
        .unwrap();
        assert_eq!(
            opts.config.literal_similarity,
            LiteralSimilarity::EditDistance {
                min_similarity: 0.8
            }
        );
        assert_eq!(opts.config.theta, 0.05);
        assert!(opts.config.negative_evidence);
        assert!(opts.show_relations);
        assert_eq!(opts.sameas, Some(PathBuf::from("out.nt")));
    }

    #[test]
    fn parse_align_rejects_bad_input() {
        assert!(parse_align(&strings(&["only-one.nt"])).is_err());
        assert!(parse_align(&strings(&["a.nt", "b.nt", "--bogus"])).is_err());
        assert!(parse_align(&strings(&["a.nt", "b.nt", "--theta"])).is_err());
        assert!(parse_align(&strings(&["a.nt", "b.nt", "--theta", "xyz"])).is_err());
    }

    #[test]
    fn parse_literals_variants() {
        assert_eq!(
            parse_literals("identity").unwrap(),
            LiteralSimilarity::Identity
        );
        assert_eq!(
            parse_literals("normalized").unwrap(),
            LiteralSimilarity::Normalized
        );
        assert_eq!(
            parse_literals("tokensort").unwrap(),
            LiteralSimilarity::TokenSort
        );
        assert_eq!(
            parse_literals("numeric:0.02").unwrap(),
            LiteralSimilarity::NumericProportional { tolerance: 0.02 }
        );
        assert!(parse_literals("nope").is_err());
        assert!(parse_literals("edit:abc").is_err());
    }

    #[test]
    fn check_input_reports_missing_file_by_name() {
        let err = check_input(Path::new("/definitely/not/here.nt")).unwrap_err();
        assert!(err.contains("/definitely/not/here.nt"), "{err}");
        assert!(err.contains("no such file"), "{err}");
    }

    #[test]
    fn check_input_rejects_unsupported_extension() {
        let path = std::env::temp_dir().join("paris_cli_input_test.docx");
        std::fs::write(&path, "x").unwrap();
        let err = check_input(&path).unwrap_err();
        assert!(err.contains(".docx"), "{err}");
        assert!(err.contains(".nt"), "lists the supported formats: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_input_rejects_missing_extension_and_dirs() {
        let path = std::env::temp_dir().join("paris_cli_input_test_noext");
        std::fs::write(&path, "x").unwrap();
        let err = check_input(&path).unwrap_err();
        assert!(err.contains("missing file extension"), "{err}");
        std::fs::remove_file(&path).ok();

        let err = check_input(&std::env::temp_dir()).unwrap_err();
        assert!(err.contains("is a directory"), "{err}");
    }

    #[test]
    fn check_input_accepts_supported_extensions() {
        for ext in SUPPORTED_EXTENSIONS {
            let path = std::env::temp_dir().join(format!("paris_cli_input_test.{ext}"));
            std::fs::write(&path, "").unwrap();
            assert_eq!(check_input(&path).unwrap(), ext);
            std::fs::remove_file(&path).ok();
        }
        let upper = std::env::temp_dir().join("paris_cli_input_test.NT");
        std::fs::write(&upper, "").unwrap();
        assert_eq!(check_input(&upper).unwrap(), "nt");
        std::fs::remove_file(&upper).ok();
    }

    #[test]
    fn parse_byte_size_accepts_suffixes() {
        assert_eq!(parse_byte_size("1048576").unwrap(), 1 << 20);
        assert_eq!(parse_byte_size("4K").unwrap(), 4096);
        assert_eq!(parse_byte_size("512m").unwrap(), 512 << 20);
        assert_eq!(parse_byte_size("2G").unwrap(), 2 << 30);
        assert!(parse_byte_size("abc").is_err());
        assert!(parse_byte_size("999999999999G").is_err());
    }

    #[test]
    fn version_string_names_all_formats() {
        let v = version_string();
        assert!(v.contains(env!("CARGO_PKG_VERSION")), "{v}");
        assert!(v.contains("snapshot format: v2"), "{v}");
        assert!(v.contains("delta format: v1"), "{v}");
    }

    #[test]
    fn split_query_args_separates_flags() {
        let (pos, flags) = split_query_args(&strings(&[
            "http://x:1",
            "sameas",
            "http://a/p1",
            "--pair",
            "movies",
            "--side",
            "right",
        ]))
        .unwrap();
        assert_eq!(pos, strings(&["http://x:1", "sameas", "http://a/p1"]));
        assert_eq!(flags.len(), 2);
        assert_eq!(flags[0], ("--pair".to_owned(), "movies".to_owned()));
        assert!(split_query_args(&strings(&["--pair"])).is_err());
    }

    #[test]
    fn parse_batch_file_accepts_both_shapes() {
        use paris_repro::client::Query;
        let wrapped = r#"{"queries":[{"op":"sameas","iri":"http://a/x"},
            {"op":"neighbors","iri":"http://a/y","side":"right","limit":5,"offset":2}]}"#;
        let bare = r#"[{"op":"sameas","iri":"http://a/x"},
            {"op":"neighbors","iri":"http://a/y","side":"right","limit":5,"offset":2}]"#;
        for text in [wrapped, bare] {
            let queries = parse_batch_file(text).unwrap();
            assert_eq!(queries.len(), 2, "{text}");
            assert!(matches!(&queries[0], Query::Sameas { iri, .. } if iri == "http://a/x"));
            assert!(matches!(
                &queries[1],
                Query::Neighbors {
                    limit: Some(5),
                    offset: 2,
                    ..
                }
            ));
        }
        assert!(parse_batch_file("3").is_err());
        assert!(parse_batch_file(r#"[{"op":"nope","iri":"x"}]"#).is_err());
        assert!(parse_batch_file(r#"[{"op":"sameas"}]"#).is_err());
    }

    #[test]
    fn gold_tsv_round_trips_through_reader() {
        let gold = vec![
            (Iri::new("http://a/x"), Iri::new("http://b/y")),
            (Iri::new("http://a/z"), Iri::new("http://b/w")),
        ];
        let text = gold_tsv(&gold);
        let path = std::env::temp_dir().join("paris_cli_gold_test.tsv");
        std::fs::write(&path, text).unwrap();
        let read = read_gold(&path).unwrap();
        assert_eq!(read.len(), 2);
        assert_eq!(read[0], ("http://a/x".to_owned(), "http://b/y".to_owned()));
        std::fs::remove_file(&path).ok();
    }

    /// `paris snapshot` and both branches of `paris delta` write the one
    /// snapshot format the daemon opens in place.
    #[test]
    fn snapshot_and_delta_write_images_that_open_in_place() {
        use paris_repro::paris::MappedPairSnapshot;
        let dir = std::env::temp_dir().join("paris_cli_snapshot_delta_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let people = |ns: &str, rel: &str| -> String {
            (0..4)
                .map(|i| format!("<http://{ns}/p{i}> <http://{ns}/{rel}> \"p{i}@x.org\" .\n"))
                .collect()
        };
        std::fs::write(file("left.nt"), people("a", "email")).unwrap();
        std::fs::write(file("right.nt"), people("b", "mail")).unwrap();
        std::fs::write(
            file("add.nt"),
            "<http://a/p9> <http://a/email> \"p0@x.org\" .\n",
        )
        .unwrap();

        snapshot(&strings(&[
            &file("left.nt"),
            &file("right.nt"),
            "--out",
            &file("pair.snap"),
        ]))
        .unwrap();
        let add = file("add.nt");
        for (out, extra) in [("incr.snap", None), ("full.snap", Some("--full"))] {
            let mut args = vec![file("pair.snap"), "--add-left".into(), add.clone()];
            args.extend(extra.map(str::to_owned));
            args.extend(["--out".to_owned(), file(out)]);
            delta(&args).unwrap();
        }

        // The added p9 shares p0's address, so it gains a candidate too.
        for (name, entities, aligned) in [
            ("pair.snap", 8, 4),
            ("incr.snap", 9, 5),
            ("full.snap", 9, 5),
        ] {
            let opened =
                MappedPairSnapshot::open(file(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(opened.kb1().num_entities(), entities, "{name}");
            assert_eq!(
                opened.alignment().aligned_instances(opened.kb1()),
                aligned,
                "{name}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
