//! The benchmark's own span recorder: name, start, end and parent of every
//! call it times during a traced replay, kept in memory and written out at
//! the end as Chrome trace-event JSON.
//!
//! Root spans group work (`setup`, `op`); spans without children are layer
//! calls. Layer calls never nest, so their durations add up, and their sum
//! over the roots' wall time is the ledger's coverage.

use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger::new()
    }
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Times `f` as one layer call.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Total seconds spent in spans called `name` (0, not the empty float
    /// sum's -0, for a layer the workload never calls).
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |total, d| total + d)
    }

    /// Durations in seconds of the spans called `name`, in call order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Seconds of the first span called `name` (a group such as `op`).
    pub fn first(&self, name: &str) -> Option<f64> {
        self.spans.iter().find(|s| s.name == name).map(Span::secs)
    }

    /// Layer-call seconds per layer name, in first-call order; with `root`,
    /// only the calls under root spans of that name.
    pub fn layers(&self, root: Option<&str>) -> Vec<(&'static str, f64)> {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        let root_name = |mut i: usize| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            self.spans[i].name
        };
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        let leaves = (0..self.spans.len())
            .filter(|&i| !has_child[i] && root.is_none_or(|r| root_name(i) == r))
            .map(|i| &self.spans[i]);
        for s in leaves {
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += s.secs(),
                None => out.push((s.name, s.secs())),
            }
        }
        out
    }

    /// Wall seconds of the root spans (`setup`, `op`); the benchmark's own
    /// bookkeeping between them is outside the ledger.
    pub fn wall(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum()
    }

    /// Sum of layer calls ÷ [`Ledger::wall`].
    pub fn coverage(&self) -> f64 {
        let wall = self.wall();
        let layers: f64 = self.layers(None).iter().map(|(_, t)| t).sum();
        if wall > 0.0 {
            layers / wall
        } else {
            0.0
        }
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, with its id and parent id in `args`.
    pub fn chrome_trace(&self) -> String {
        let events: Vec<serde_json::Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                serde_json::json!({
                    "name": (s.name),
                    "ph": "X",
                    "ts": (s.start.as_secs_f64() * 1e6),
                    "dur": (s.secs() * 1e6),
                    "pid": 1,
                    "tid": 1,
                    "args": {"id": id, "parent": (s.parent)},
                })
            })
            .collect();
        serde_json::to_string(&serde_json::json!({ "traceEvents": (events) }))
            .expect("JSON rendering is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_are_the_leaves_and_cover_the_roots() {
        let mut l = Ledger::new();
        let setup = l.begin("setup");
        l.time("a", || std::thread::sleep(Duration::from_millis(5)));
        l.end(setup);
        // Bookkeeping between roots is not part of the ledger.
        std::thread::sleep(Duration::from_millis(20));
        let op = l.begin("op");
        l.time("b", || std::thread::sleep(Duration::from_millis(5)));
        l.time("a", || ());
        l.end(op);
        let names: Vec<_> = l.layers(None).iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["a", "b"]);
        let in_op: Vec<_> = l.layers(Some("op")).iter().map(|(n, _)| *n).collect();
        assert_eq!(in_op, ["b", "a"]);
        let roots = l.first("setup").unwrap() + l.first("op").unwrap();
        assert_eq!(l.wall(), roots);
        assert!(l.coverage() > 0.9 && l.coverage() <= 1.0);
        assert!(l.chrome_trace().contains("\"parent\":2"));
    }
}
