//! The results file, and `compare`.

use std::collections::BTreeMap;

use paris_client::json::{self, Json};

use crate::metrics::{self, Better};
use crate::stats::Summary;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub summary: Summary,
    pub unit: String,
}

/// Where and how the numbers were taken.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Environment {
    pub nproc: u64,
    pub rustc: String,
    pub commit: String,
    /// Threads `ParisConfig::default()` resolves to here.
    pub aligner_threads: u64,
    pub seed: u64,
    pub seconds: f64,
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Named reasons of failed checks; empty when the run is correct.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.ops_failed == 0
    }

    pub fn set(&mut self, name: &str, summary: Summary) {
        let unit = metrics::unit_of(name).unwrap_or("").to_owned();
        self.metrics
            .insert(name.to_owned(), Metric { summary, unit });
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.summary.median)
    }

    /// Folds another run of the same workload (the traced one) in.
    pub fn absorb(&mut self, other: WorkloadResult) {
        self.ops_attempted += other.ops_attempted;
        self.ops_failed += other.ops_failed;
        self.failures.extend(other.failures);
        self.metrics.extend(other.metrics);
    }

    /// The line the benchmark contract asks for: the listed metrics
    /// only, with all their digits.
    pub fn contract_line(&self, names: impl Iterator<Item = &'static str>) -> String {
        let mut metrics = json::Object::new();
        for name in names {
            let m = self.metrics.get(name);
            metrics = metrics.raw(
                name,
                json::Object::new()
                    .num("value", m.map_or(f64::NAN, |m| m.summary.median))
                    .str("unit", metrics::unit_of(name).unwrap_or(""))
                    .build(),
            );
        }
        json::Object::new()
            .bool("correct", self.correct())
            .int("attempted", self.ops_attempted.max(1))
            .int("failed", self.ops_failed)
            .raw("metrics", metrics.build())
            .build()
    }
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Results {
    pub env: Environment,
    pub workloads: Vec<WorkloadResult>,
}

impl Results {
    pub fn to_json(&self) -> String {
        let env = json::Object::new()
            .int("nproc", self.env.nproc)
            .str("rustc", &self.env.rustc)
            .str("commit", &self.env.commit)
            .int("aligner_threads", self.env.aligner_threads)
            .int("seed", self.env.seed)
            .num("seconds", self.env.seconds)
            .build();
        let workloads = self.workloads.iter().map(|w| {
            let mut metrics = json::Object::new();
            for (name, m) in &w.metrics {
                metrics = metrics.raw(
                    name,
                    json::Object::new()
                        .num("value", m.summary.median)
                        .str("unit", &m.unit)
                        .num("min", m.summary.min)
                        .num("max", m.summary.max)
                        .int("n", m.summary.n as u64)
                        .build(),
                );
            }
            json::Object::new()
                .str("name", &w.name)
                .int("ops_attempted", w.ops_attempted)
                .int("ops_failed", w.ops_failed)
                .bool("correct", w.correct())
                .raw(
                    "failures",
                    json::array(w.failures.iter().map(|f| json::string(f))),
                )
                .raw("metrics", metrics.build())
                .build()
        });
        json::Object::new()
            .raw("env", env)
            .raw("workloads", json::array(workloads))
            .build()
    }

    pub fn from_json(text: &str) -> Result<Results, String> {
        let doc = json::parse(text)?;
        let str_of = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string '{key}'"))
        };
        let u64_of = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer '{key}'"))
        };
        let f64_of = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number '{key}'"))
        };
        let env = doc.get("env").ok_or("missing 'env'")?;
        let mut results = Results {
            env: Environment {
                nproc: u64_of(env, "nproc")?,
                rustc: str_of(env, "rustc")?,
                commit: str_of(env, "commit")?,
                aligner_threads: u64_of(env, "aligner_threads")?,
                seed: u64_of(env, "seed")?,
                seconds: f64_of(env, "seconds")?,
            },
            workloads: Vec::new(),
        };
        let rows = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("missing 'workloads'")?;
        for row in rows {
            let mut w = WorkloadResult {
                name: str_of(row, "name")?,
                ops_attempted: u64_of(row, "ops_attempted")?,
                ops_failed: u64_of(row, "ops_failed")?,
                ..WorkloadResult::default()
            };
            for f in row.get("failures").and_then(Json::as_array).unwrap_or(&[]) {
                w.failures.push(f.as_str().unwrap_or_default().to_owned());
            }
            let Some(Json::Obj(metrics)) = row.get("metrics") else {
                return Err(format!("workload {} has no metrics", w.name));
            };
            for (name, m) in metrics {
                w.metrics.insert(
                    name.clone(),
                    Metric {
                        summary: Summary {
                            median: f64_of(m, "value")?,
                            min: f64_of(m, "min")?,
                            max: f64_of(m, "max")?,
                            n: u64_of(m, "n")? as usize,
                        },
                        unit: str_of(m, "unit")?,
                    },
                );
            }
            results.workloads.push(w);
        }
        Ok(results)
    }

    pub fn table(&self) -> String {
        let mut out = String::new();
        for w in &self.workloads {
            out.push_str(&format!(
                "\n== {} — ops {} attempted, {} failed, {}\n",
                w.name,
                w.ops_attempted,
                w.ops_failed,
                if w.correct() {
                    "correct"
                } else {
                    "NOT CORRECT"
                },
            ));
            for f in &w.failures {
                out.push_str(&format!("   check failed: {f}\n"));
            }
            for (name, m) in &w.metrics {
                let s = m.summary;
                // What the reading is for: its regression bound, or the
                // end-to-end metric(s) the layer metric should move.
                let role = match metrics::end_to_end(name) {
                    Some(e) => format!(
                        "{} is better, bound {}%",
                        e.better.as_str(),
                        e.bound * 100.0
                    ),
                    None => metrics::layer(name).map_or(String::new(), |l| {
                        format!("{} is better, moves {}", l.better.as_str(), l.moves)
                    }),
                };
                out.push_str(&format!(
                    "{name:<34} {:>14.4} {:<6} (min {:.4}, max {:.4}, n {}; {role})\n",
                    s.median, m.unit, s.min, s.max, s.n
                ));
            }
        }
        out
    }
}

/// `compare A B`: per workload × metric both medians, the change and,
/// for end-to-end metrics, the bound. Returns the report and whether B
/// is acceptable: no end-to-end metric worse than its bound allows and
/// no higher share of failed operations.
pub fn compare(a: &Results, b: &Results) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    for wb in &b.workloads {
        let Some(wa) = a.workloads.iter().find(|w| w.name == wb.name) else {
            continue;
        };
        out.push_str(&format!("\n== {}\n", wb.name));
        let share = |w: &WorkloadResult| w.ops_failed as f64 / w.ops_attempted.max(1) as f64;
        if share(wb) > share(wa) {
            ok = false;
            out.push_str(&format!(
                "ops_failed share rose: {:.6} -> {:.6}  REGRESSION\n",
                share(wa),
                share(wb)
            ));
        }
        for (name, mb) in &wb.metrics {
            let Some(ma) = wa.metrics.get(name) else {
                continue;
            };
            let (va, vb) = (ma.summary.median, mb.summary.median);
            let change = if va != 0.0 { (vb - va) / va.abs() } else { 0.0 };
            let mut line = format!(
                "{name:<34} {va:>14.4} {vb:>14.4} {:>+8.2}% {:<6}",
                change * 100.0,
                mb.unit
            );
            if let Some(m) = metrics::end_to_end(name) {
                let worse = match m.better {
                    Better::Lower => change,
                    Better::Higher => -change,
                };
                line.push_str(&format!(" bound {:>4.1}%", m.bound * 100.0));
                if worse > m.bound {
                    ok = false;
                    line.push_str("  REGRESSION");
                }
            }
            out.push_str(&line);
            out.push('\n');
        }
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Results {
        let mut w = WorkloadResult {
            name: "enc8k-heap".into(),
            ops_attempted: 1000,
            ops_failed: 0,
            ..WorkloadResult::default()
        };
        w.set(
            "align_s",
            Summary {
                median: 1.0 / 3.0,
                min: 0.3,
                max: 0.4,
                n: 5,
            },
        );
        w.set("query_rps", Summary::exact(40_000.0));
        w.set("rdf.triples", Summary::exact(79_233.0));
        Results {
            env: Environment {
                nproc: 2,
                rustc: "rustc 1.95.0".into(),
                commit: "unknown".into(),
                aligner_threads: 2,
                seed: 1,
                seconds: 16.0,
            },
            workloads: vec![w],
        }
    }

    #[test]
    fn results_file_round_trips() {
        let results = sample();
        let back = Results::from_json(&results.to_json()).unwrap();
        assert_eq!(back, results);
        assert_eq!(back.workloads[0].metrics["align_s"].unit, "s");
        assert!(results.table().contains("align_s"));
    }

    #[test]
    fn contract_line_has_exactly_the_asked_metrics() {
        let line = sample().workloads[0].contract_line(["align_s", "query_rps"].into_iter());
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(1000));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("no metrics object");
        };
        assert_eq!(metrics.len(), 2);
        let align = doc.get("metrics").unwrap().get("align_s").unwrap();
        assert_eq!(align.get("value").and_then(Json::as_f64), Some(1.0 / 3.0));
        assert_eq!(align.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn compare_flags_only_end_to_end_regressions_beyond_the_bound() {
        let a = sample();
        let (_, ok) = compare(&a, &a);
        assert!(ok);

        let base = a.workloads[0].value("align_s").unwrap();
        let bound = metrics::end_to_end("align_s").unwrap().bound;
        let mut slower = a.clone();
        slower.workloads[0].set("align_s", Summary::exact(base * (1.0 + 0.8 * bound)));
        slower.workloads[0].set("rdf.triples", Summary::exact(1e9)); // layer metric: no bound
        assert!(compare(&a, &slower).1);

        slower.workloads[0].set("align_s", Summary::exact(base * (1.0 + 1.2 * bound)));
        let (report, ok) = compare(&a, &slower);
        assert!(!ok && report.contains("REGRESSION"));

        let mut fewer = a.clone();
        fewer.workloads[0].set("query_rps", Summary::exact(20_000.0)); // higher is better
        assert!(!compare(&a, &fewer).1);
        assert!(
            compare(&fewer, &a).1,
            "an improvement is never a regression"
        );

        let mut failing = a.clone();
        failing.workloads[0].ops_failed = 1;
        assert!(!compare(&a, &failing).1);
    }
}
