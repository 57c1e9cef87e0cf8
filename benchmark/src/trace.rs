//! The benchmark's own span recorder.
//!
//! Spans are recorded here, around the calls into each crate, never
//! inside the crates. The recorder is single-threaded by design: spans
//! nest strictly, so a span's self time (its duration minus its
//! children's) is well defined and the self times of a tree sum to the
//! root's wall time.
//!
//! `begin`/`end` always measure; they only *store* a span when the
//! recorder is enabled, so traced and untraced trips run the same code
//! and the difference between them is the cost of recording.

use std::collections::BTreeMap;
use std::time::Instant;

use paris_client::json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// An open span: pass it back to [`Recorder::end`].
#[must_use]
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str) -> Open {
        let index = self.enabled.then(|| {
            let id = self.spans.len() as u32;
            let now = self.now_ns();
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied(),
                name: name.to_owned(),
                start_ns: now,
                end_ns: now,
            });
            self.stack.push(id);
            id as usize
        });
        Open {
            index,
            started: Instant::now(),
        }
    }

    /// Closes the span and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let seconds = open.started.elapsed().as_secs_f64();
        if let Some(i) = open.index {
            let popped = self.stack.pop();
            assert_eq!(popped, Some(i as u32), "spans must close in LIFO order");
            self.spans[i].end_ns = self.now_ns();
        }
        seconds
    }

    /// Times `f` under a span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Grafts the spans of a child process under the currently open
    /// span. The child's clock starts at its own `main`; `started_ns`
    /// is this recorder's clock just before the child was spawned, so
    /// grafted spans sit slightly early and never outlast the span that
    /// waited for the child.
    pub fn graft(&mut self, started_ns: u64, child: &[Span]) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        for s in child {
            self.spans.push(Span {
                id: base + s.id,
                parent: s.parent.map(|p| base + p).or(parent),
                name: s.name.clone(),
                start_ns: started_ns + s.start_ns,
                end_ns: started_ns + s.end_ns,
            });
        }
    }

    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Σ of the durations of every span called `name`.
pub fn total_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .sum()
}

/// One row of the folded table: a span name with its call count, total
/// time and self time.
#[derive(Clone, Debug, PartialEq)]
pub struct Folded {
    pub name: String,
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Folds spans by name. Self time is a span's duration minus the part
/// its direct children cover (children are clipped to the parent, so a
/// grafted child that starts a hair early cannot push self time below
/// zero).
pub fn fold(spans: &[Span]) -> Vec<Folded> {
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| by_id.get(&p)) {
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            *covered.entry(parent.id).or_default() += end.saturating_sub(start);
        }
    }
    let mut rows: BTreeMap<&str, Folded> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        let row = rows.entry(&s.name).or_insert_with(|| Folded {
            name: s.name.clone(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += total;
        row.self_ns += own;
    }
    let mut rows: Vec<Folded> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    rows
}

/// Wall time of the root spans (those without a parent).
pub fn root_wall_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// |Σ self − root wall| as a share of root wall: 0 when the tree
/// conserves time.
pub fn conservation_gap(spans: &[Span]) -> f64 {
    let root = root_wall_ns(spans);
    if root == 0 {
        return 0.0;
    }
    let own: u64 = fold(spans).iter().map(|r| r.self_ns).sum();
    (own as f64 - root as f64).abs() / root as f64
}

/// The trace file: every span plus the folded self-time table.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let span_rows = spans.iter().map(|s| {
        let mut o = json::Object::new().int("id", u64::from(s.id));
        o = match s.parent {
            Some(p) => o.int("parent", u64::from(p)),
            None => o.raw("parent", "null"),
        };
        o.str("name", &s.name)
            .int("start_ns", s.start_ns)
            .int("end_ns", s.end_ns)
            .str("workload", workload)
            .build()
    });
    let folded = fold(spans).into_iter().map(|r| {
        json::Object::new()
            .str("name", &r.name)
            .int("count", r.count as u64)
            .int("total_ns", r.total_ns)
            .int("self_ns", r.self_ns)
            .build()
    });
    json::Object::new()
        .str("workload", workload)
        .int("root_wall_ns", root_wall_ns(spans))
        .raw("folded", json::array(folded))
        .raw("spans", json::array(span_rows))
        .build()
}

/// The folded table as text, heaviest self time first.
pub fn folded_table(spans: &[Span]) -> String {
    let root = root_wall_ns(spans).max(1);
    let mut out = format!(
        "{:<28} {:>6} {:>12} {:>12} {:>7}\n",
        "span", "calls", "total ms", "self ms", "self %"
    );
    for r in fold(spans) {
        out.push_str(&format!(
            "{:<28} {:>6} {:>12.3} {:>12.3} {:>6.1}%\n",
            r.name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            r.self_ns as f64 * 100.0 / root as f64,
        ));
    }
    out
}

/// One span as a line of the child → parent protocol.
pub fn span_line(s: &Span) -> String {
    let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
    format!(
        "span\t{}\t{parent}\t{}\t{}\t{}",
        s.id, s.name, s.start_ns, s.end_ns
    )
}

pub fn parse_span_line(line: &str) -> Option<Span> {
    let mut f = line.split('\t');
    if f.next()? != "span" {
        return None;
    }
    let id = f.next()?.parse().ok()?;
    let parent = match f.next()? {
        "-" => None,
        p => Some(p.parse().ok()?),
    };
    Some(Span {
        id,
        parent,
        name: f.next()?.to_owned(),
        start_ns: f.next()?.parse().ok()?,
        end_ns: f.next()?.parse().ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_owned(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_sums_to_root_wall() {
        // root 0..100; a 10..40 (with a1 15..25); b 50..90; b again under a.
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "a1", 15, 25),
            span(3, Some(0), "b", 50, 90),
            span(4, Some(1), "b", 30, 35),
        ];
        let rows = fold(&spans);
        let own: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(own, root_wall_ns(&spans));
        assert_eq!(conservation_gap(&spans), 0.0);
        let b = rows.iter().find(|r| r.name == "b").unwrap();
        assert_eq!((b.count, b.total_ns, b.self_ns), (2, 45, 45));
        let a = rows.iter().find(|r| r.name == "a").unwrap();
        assert_eq!(a.self_ns, 30 - 10 - 5);
        assert_eq!(total_seconds(&spans, "b"), 45e-9);
    }

    #[test]
    fn recorded_tree_conserves_time_and_grafts_children() {
        let mut rec = Recorder::new(true);
        let root = rec.begin("root");
        let ((), inner) = rec.time("work", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert!(inner >= 0.002);
        let started = rec.clock_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.graft(
            started,
            &[
                span(0, None, "child", 0, 1_000_000),
                span(1, Some(0), "leaf", 10, 20),
            ],
        );
        rec.end(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            spans[2].parent,
            Some(0),
            "child root hangs under the open span"
        );
        assert_eq!(spans[3].parent, Some(spans[2].id));
        assert!(conservation_gap(spans) < 1e-9);
        for s in spans {
            assert_eq!(parse_span_line(&span_line(s)).as_ref(), Some(s));
        }
        let text = to_json("w", spans);
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_array().unwrap().len(), 4);
        assert!(folded_table(spans).contains("leaf"));
    }

    #[test]
    fn disabled_recorder_measures_but_stores_nothing() {
        let mut rec = Recorder::new(false);
        let ((), secs) = rec.time("x", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(secs >= 0.001);
        assert!(rec.spans().is_empty());
    }
}
