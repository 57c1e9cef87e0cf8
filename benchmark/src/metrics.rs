//! The metric catalog: every name the benchmark reports, its unit, its
//! direction, the regression bound of each end-to-end metric and, for
//! each layer metric, the end-to-end metric it should move.
//! `BENCHMARK.json` repeats the catalog (a test keeps the two in step).

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 12] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("load_s", "s", Better::Lower, 0.25),
    e2e("align_s", "s", Better::Lower, 0.25),
    e2e("pipeline_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.10),
    e2e("open_ms", "ms", Better::Lower, 0.25),
    e2e("query_rps", "1/s", Better::Higher, 0.20),
    e2e("query_p50_us", "us", Better::Lower, 0.20),
    e2e("query_p99_us", "us", Better::Lower, 0.25),
    e2e("update_s", "s", Better::Lower, 0.25),
    e2e("instance_f1", "ratio", Better::Higher, 0.02),
    e2e("image_bytes_per_fact", "B", Better::Lower, 0.05),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric(s) this one should move.
    pub moves: &'static str,
}

const fn per_layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [Layer; 49] = [
    per_layer("rdf.parse_s", "s", Lower, "load_s"),
    per_layer("rdf.parse_mib_per_s", "MiB/s", Higher, "load_s"),
    per_layer("rdf.triples", "count", Lower, "load_s"),
    per_layer("kb.build_s", "s", Lower, "load_s"),
    per_layer("kb.functionality_s", "s", Lower, "load_s"),
    per_layer("kb.spill_runs", "count", Lower, "load_s"),
    per_layer("kb.spill_bytes", "B", Lower, "load_s"),
    per_layer("kb.encode_s", "s", Lower, "load_s"),
    per_layer("kb.open_ms", "ms", Lower, "align_s update_s"),
    per_layer("kb.hydrate_s", "s", Lower, "align_s update_s"),
    per_layer("kb.delta_apply_ms", "ms", Lower, "update_s"),
    per_layer("kb.lookup_ns", "ns", Lower, "query_p50_us"),
    per_layer("kb.snapshot_bytes", "B", Lower, "image_bytes_per_fact"),
    per_layer("literals.probability_ns", "ns", Lower, "align_s"),
    per_layer("literals.keys_ns", "ns", Lower, "align_s"),
    per_layer("paris.bridge_s", "s", Lower, "align_s"),
    per_layer("paris.bridge_pairs", "count", Lower, "align_s"),
    per_layer("paris.instance_pass_s", "s", Lower, "align_s pipeline_s"),
    per_layer("paris.subrel_pass_s", "s", Lower, "align_s pipeline_s"),
    per_layer("paris.class_pass_s", "s", Lower, "align_s pipeline_s"),
    per_layer("paris.iterations", "count", Lower, "align_s pipeline_s"),
    per_layer(
        "paris.equivalences",
        "count",
        Lower,
        "align_s image_bytes_per_fact",
    ),
    per_layer("paris.align_t1_s", "s", Lower, "align_s"),
    per_layer("paris.thread_speedup", "ratio", Higher, "align_s"),
    per_layer("paris.detach_s", "s", Lower, "align_s update_s"),
    per_layer("paris.encode_s", "s", Lower, "align_s update_s"),
    per_layer("paris.write_ms", "ms", Lower, "align_s update_s"),
    per_layer("paris.open_ms", "ms", Lower, "open_ms"),
    per_layer("paris.lookup_ns", "ns", Lower, "query_p50_us query_p99_us"),
    per_layer("paris.explain_us", "us", Lower, "query_p50_us query_p99_us"),
    per_layer("paris.incremental_s", "s", Lower, "update_s"),
    per_layer("paris.incremental_rows", "count", Lower, "update_s"),
    per_layer("paris.update_agreement", "ratio", Higher, "update_s"),
    per_layer("server.bind_ms", "ms", Lower, "open_ms"),
    per_layer(
        "server.sameas_p50_us",
        "us",
        Lower,
        "query_p50_us query_rps",
    ),
    per_layer(
        "server.neighbors_p50_us",
        "us",
        Lower,
        "query_p50_us query_rps",
    ),
    per_layer(
        "server.batch64_p50_us",
        "us",
        Lower,
        "query_p99_us query_rps",
    ),
    per_layer("server.explain_p50_us", "us", Lower, "query_p99_us"),
    per_layer("server.miss_p50_us", "us", Lower, "query_p50_us query_rps"),
    per_layer(
        "server.revalidate_p50_us",
        "us",
        Lower,
        "query_p50_us query_rps",
    ),
    per_layer("server.oneshot_p50_us", "us", Lower, "query_p50_us"),
    per_layer("server.reload_ms", "ms", Lower, "update_s"),
    per_layer(
        "server.read_during_update_p99_us",
        "us",
        Lower,
        "update_s query_p99_us",
    ),
    per_layer("eval.precision", "ratio", Higher, "instance_f1"),
    per_layer("eval.recall", "ratio", Higher, "instance_f1"),
    per_layer("eval.relation_f1", "ratio", Higher, "instance_f1"),
    per_layer("eval.class_f1", "ratio", Higher, "instance_f1"),
    per_layer("trace.overhead_pct", "%", Lower, "pipeline_s"),
    per_layer("trace.conservation_gap_pct", "%", Lower, "pipeline_s"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| layer(name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_client::json::{self, Json};

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable")).unwrap()
    }

    fn field<'a>(row: &'a Json, key: &str) -> &'a str {
        row.get(key).and_then(Json::as_str).unwrap()
    }

    #[test]
    fn manifest_repeats_the_catalog() {
        let doc = manifest();
        let rows = doc.get("end_to_end").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        for (row, m) in rows.iter().zip(&END_TO_END) {
            assert_eq!(field(row, "name"), m.name);
            assert_eq!(field(row, "unit"), m.unit);
            assert_eq!(field(row, "better"), m.better.as_str());
            assert_eq!(row.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        let rows = doc.get("per_layer").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), PER_LAYER.len());
        for (row, m) in rows.iter().zip(&PER_LAYER) {
            assert_eq!(field(row, "name"), m.name);
            assert_eq!(field(row, "unit"), m.unit);
            assert_eq!(field(row, "better"), m.better.as_str());
            assert!(
                m.moves.split(' ').all(|e| end_to_end(e).is_some()),
                "{}",
                m.name
            );
        }
        let rows = doc.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), crate::spec::WORKLOADS.len());
        for (row, spec) in rows.iter().zip(&crate::spec::WORKLOADS) {
            assert_eq!(field(row, "name"), spec.name);
            assert_eq!(field(row, "why"), spec.why);
            assert!(spec.why.len() <= 200);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
