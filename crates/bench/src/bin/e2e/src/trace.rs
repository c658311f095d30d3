//! Spans recorded in memory around the benchmark's calls into the program,
//! written out when a traced run ends.

use crate::json;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one operation share `op`; `parent` is the
/// span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// An in-memory span log on one monotonic clock.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The clock origin, for callers that stamp times themselves (the
    /// per-node observer of an inference call).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>, op: u64) -> usize {
        let now = self.now_ns();
        self.record(name, parent, op, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Adds a span with explicit times and returns its id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn duration_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        s.end_ns.saturating_sub(s.start_ns)
    }

    /// Writes every span as a JSON array of objects.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}{}",
                json::string(&s.name),
                s.start_ns,
                s.end_ns,
                s.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once; the part of a
/// child outside its parent does not count).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let root = t.record("round", None, 0, 0, 100);
        let call = t.record("call", Some(root), 1, 10, 30);
        t.record("node", Some(call), 1, 12, 20);
        t.record("node", Some(call), 1, 20, 29);
        // Overlaps the first call and runs past the parent's end.
        t.record("call", Some(root), 2, 20, 50);
        t.record("call", Some(root), 3, 90, 120);
        let s = self_ns(t.spans());
        // Children of the round cover [10, 50) and [90, 100).
        assert_eq!(s[root], 100 - 50);
        assert_eq!(s[call], 20 - 17);
        assert_eq!(&s[2..], &[8, 9, 30, 30]);
    }

    #[test]
    fn spans_round_trip_through_json() {
        let mut t = Tracer::new();
        let a = t.open("call \"x\"", None, 7);
        t.close(a);
        t.record("node", Some(a), 7, 1, 2);
        let path = std::env::temp_dir().join(format!("e2e-spans-{}.json", std::process::id()));
        t.write_json(&path).unwrap();
        let v = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[0].get("name").and_then(json::Value::as_str),
            Some("call \"x\"")
        );
        assert_eq!(
            arr[1].get("parent").and_then(json::Value::as_f64),
            Some(0.0)
        );
    }
}
