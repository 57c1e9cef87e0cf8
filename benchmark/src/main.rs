//! The repo's benchmark: full trips through the pipeline
//! (`N-Triples → snapshots → aligned pair image → served answers →
//! incremental updates`), driven only through the crates' public
//! functions. See `README.md` beside this package.

#![forbid(unsafe_code)]

mod check;
mod layers;
mod metrics;
mod results;
mod run;
mod serve;
mod setup;
mod spec;
mod stats;
mod trace;
mod trip;
mod update;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use results::{Environment, Results};
use run::{run_workload, RunOptions};
use spec::Spec;
use trace::{Recorder, Span};
use trip::{TripFiles, Values};

const USAGE: &str = "\
pipeline-bench — the PARIS pipeline benchmark

USAGE:
  pipeline-bench run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
  pipeline-bench compare A.json B.json
  pipeline-bench spread FILE.json...

run      one full trip per workload (all four without --workload). --trace 0
         measures the end-to-end metrics, --trace 1 the per-layer metrics from
         one traced trip; without --trace both. Writes a results file
         (default benchmark/out/results.json) and, traced, out/trace-<W>.json.
         With --workload the last line of standard output is one JSON object:
         correct, attempted, failed, metrics.
compare  per workload and metric: both medians, the change, the bound. Exits 1
         when an end-to-end metric is worse than its bound allows or the share
         of failed operations rose.
spread   per workload and end-to-end metric: interquartile range over the given
         results files as a share of their median, beside the bound.
";

/// Default length of the measured part of a run.
const DEFAULT_SECONDS: f64 = 20.0;

/// Everything the benchmark writes goes under `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("spread") => spread(&args[1..]),
        Some("trip") => child_trip(&args[1..], started).map(|()| true),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs, in order.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    args.chunks(2)
        .map(|pair| match pair {
            [name, value] if name.starts_with("--") => Ok((name.as_str(), value.as_str())),
            _ => Err(format!("expected --name value pairs\n\n{USAGE}")),
        })
        .collect()
}

fn number<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{name} takes a number, not '{value}'"))
}

// ----------------------------------------------------------------------
// run
// ----------------------------------------------------------------------

fn run(args: &[String]) -> Result<bool, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace_modes = vec![false, true];
    let mut out_file = out_dir().join("results.json");
    for (name, value) in flags(args)? {
        match name {
            "--workload" => {
                workload = Some(spec::find(value).ok_or_else(|| {
                    let names: Vec<_> = spec::WORKLOADS.iter().map(|s| s.name).collect();
                    format!("unknown workload '{value}' (one of: {})", names.join(", "))
                })?)
            }
            "--seed" => seed = number(name, value)?,
            "--seconds" => seconds = number(name, value)?,
            "--trace" => trace_modes = vec![number::<u8>(name, value)? != 0],
            "--out" => out_file = PathBuf::from(value),
            other => return Err(format!("unknown option {other}\n\n{USAGE}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("creating {}: {e}", out_dir().display()))?;

    let specs: Vec<&Spec> = workload.map_or_else(|| spec::WORKLOADS.iter().collect(), |s| vec![s]);
    let mut results = Results {
        env: environment(seed, seconds),
        workloads: Vec::new(),
    };
    for spec in &specs {
        let mut merged: Option<results::WorkloadResult> = None;
        for &traced in &trace_modes {
            eprintln!(
                "running {} (seed {seed}, {seconds} s, trace {}): {}",
                spec.name,
                u8::from(traced),
                spec.why
            );
            let opts = RunOptions {
                seed,
                seconds,
                traced,
            };
            let (result, spans) = run_workload(spec, &opts, &spawn_trip)?;
            if traced {
                write_trace(spec.name, &spans)?;
            }
            match &mut merged {
                Some(m) => m.absorb(result),
                None => merged = Some(result),
            }
        }
        results.workloads.extend(merged);
    }
    print!("{}", results.table());
    std::fs::write(&out_file, results.to_json())
        .map_err(|e| format!("writing {}: {e}", out_file.display()))?;
    println!("\nresults written to {}", out_file.display());

    // The contract line: exactly the metrics of the one mode asked for.
    if let ([result], [traced]) = (results.workloads.as_slice(), trace_modes.as_slice()) {
        let names: Vec<&'static str> = if *traced {
            metrics::PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            metrics::END_TO_END.iter().map(|m| m.name).collect()
        };
        if let Some(missing) = names
            .iter()
            .find(|n| !result.value(n).is_some_and(f64::is_finite))
        {
            return Err(format!(
                "{}: metric {missing} was not measured",
                result.name
            ));
        }
        println!("{}", result.contract_line(names.into_iter()));
    }
    Ok(results
        .workloads
        .iter()
        .all(results::WorkloadResult::correct))
}

fn write_trace(workload: &str, spans: &[Span]) -> Result<(), String> {
    let path = out_dir().join(format!("trace-{workload}.json"));
    std::fs::write(&path, trace::to_json(workload, spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "\n-- {workload}: self time by span (trace in {})",
        path.display()
    );
    print!("{}", trace::folded_table(spans));
    Ok(())
}

fn environment(seed: u64, seconds: f64) -> Environment {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    Environment {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        rustc,
        commit: commit().unwrap_or_else(|| "unknown".to_owned()),
        aligner_threads: paris_core::ParisConfig::default().effective_threads() as u64,
        seed,
        seconds,
    }
}

/// The checked-out commit, read from `.git` beside `benchmark/` (a
/// checkout without `.git` has none).
fn commit() -> Option<String> {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .ok()
            .map(|s| s.trim().to_owned()),
        None => Some(head.to_owned()),
    }
}

// ----------------------------------------------------------------------
// trips in child processes
// ----------------------------------------------------------------------

/// Re-executes this binary for one trip and parses what it prints.
fn spawn_trip(spec: &Spec, files: &TripFiles, traced: bool) -> Result<(Values, Vec<Span>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let dir = files
        .pair_snap
        .parent()
        .ok_or("trip files have no directory")?;
    let output = Command::new(exe)
        .arg("trip")
        .args(["--workload", spec.name])
        .arg("--dir")
        .arg(dir)
        .args([
            "--left-name",
            &files.names[0],
            "--right-name",
            &files.names[1],
        ])
        .args(["--key", &files.probe_key])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning a trip: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "trip of {} failed ({}): {}",
            spec.name,
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(trip::parse_report(&String::from_utf8_lossy(&output.stdout)))
}

/// The child side: one trip, reported on standard output.
fn child_trip(args: &[String], started: Instant) -> Result<(), String> {
    let (mut workload, mut dir, mut names, mut key, mut traced) = (
        None,
        None,
        [String::new(), String::new()],
        String::new(),
        false,
    );
    for (name, value) in flags(args)? {
        match name {
            "--workload" => workload = spec::find(value),
            "--dir" => dir = Some(PathBuf::from(value)),
            "--left-name" => names[0] = value.to_owned(),
            "--right-name" => names[1] = value.to_owned(),
            "--key" => key = value.to_owned(),
            "--trace" => traced = value == "1",
            other => return Err(format!("unknown trip option {other}")),
        }
    }
    let (Some(spec), Some(dir)) = (workload, dir) else {
        return Err("trip needs --workload and --dir".into());
    };
    let files = TripFiles::in_dir(&dir, names, key);
    let mut rec = Recorder::new(traced);
    let values = trip::run_trip(spec, &files, started, &mut rec)?;
    trip::print_report(&values, &rec);
    Ok(())
}

// ----------------------------------------------------------------------
// compare, spread
// ----------------------------------------------------------------------

fn read_results(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Results::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.to_owned());
    };
    let (report, ok) = results::compare(&read_results(a)?, &read_results(b)?);
    println!("{:<34} {:>14} {:>14} {:>9}", "metric", "A", "B", "change");
    print!("{report}");
    println!("\n{}", if ok { "within bounds" } else { "OUT OF BOUNDS" });
    Ok(ok)
}

fn spread(args: &[String]) -> Result<bool, String> {
    let runs: Vec<Results> = args
        .iter()
        .map(|a| read_results(a))
        .collect::<Result<_, _>>()?;
    if runs.len() < 2 {
        return Err(USAGE.to_owned());
    }
    let mut ok = true;
    for spec in &spec::WORKLOADS {
        println!("\n== {}", spec.name);
        for m in &metrics::END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .flat_map(|r| r.workloads.iter().filter(|w| w.name == spec.name))
                .filter_map(|w| w.value(m.name))
                .collect();
            let (Some(spread), Some(median)) = (stats::spread(&values), stats::median(&values))
            else {
                continue;
            };
            let verdict = match spread {
                s if s <= m.bound / 3.0 => "",
                s if s <= m.bound => "  above a third of the bound",
                _ => "  ABOVE THE BOUND",
            };
            ok &= spread <= m.bound || m.name == "setup_s";
            println!(
                "{:<24} median {median:>12.4} {:<6} spread {:>6.2}%  bound {:>4.1}%  n {}{verdict}",
                m.name,
                m.unit,
                spread * 100.0,
                m.bound * 100.0,
                values.len()
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::TEST_SPEC;

    /// A whole trip — every stage, untraced then traced — on the
    /// 1/16-size spec, with trips run in-process.
    #[test]
    fn whole_trip_on_the_small_spec() {
        let in_process = |spec: &Spec, files: &TripFiles, traced: bool| {
            let mut rec = Recorder::new(traced);
            let values = trip::run_trip(spec, files, Instant::now(), &mut rec)?;
            Ok((values, rec.spans().to_vec()))
        };
        let opts = |traced| RunOptions {
            seed: 5,
            seconds: 2.0,
            traced,
        };

        let (e2e, spans) = run_workload(&TEST_SPEC, &opts(false), &in_process).unwrap();
        assert!(e2e.correct(), "{:?}", e2e.failures);
        assert!(spans.is_empty(), "an untraced run records no span");
        for m in &metrics::END_TO_END {
            let v = e2e
                .value(m.name)
                .unwrap_or_else(|| panic!("{} missing", m.name));
            assert!(v.is_finite() && v > 0.0, "{} = {v}", m.name);
        }
        assert!(e2e.value("instance_f1").unwrap() >= TEST_SPEC.f1_floor);
        assert!(e2e.ops_attempted > 1000 && e2e.ops_failed == 0);

        let (layer, spans) = run_workload(&TEST_SPEC, &opts(true), &in_process).unwrap();
        assert!(layer.correct(), "{:?}", layer.failures);
        for m in &metrics::PER_LAYER {
            let v = layer
                .value(m.name)
                .unwrap_or_else(|| panic!("{} missing", m.name));
            assert!(v.is_finite(), "{} = {v}", m.name);
        }
        assert!(
            layer.value("kb.spill_runs").unwrap() > 0.0,
            "the test spec spills"
        );
        assert!(layer.value("rdf.triples").unwrap() > 1000.0);
        assert!(trace::conservation_gap(&spans) < 0.01);
        assert!(spans
            .iter()
            .any(|s| s.name == "paris.align" && s.parent.is_some()));
        assert!(!out_dir()
            .read_dir()
            .unwrap()
            .flatten()
            .any(|e| e.file_name().to_string_lossy().starts_with("work-test-")));
    }
}
