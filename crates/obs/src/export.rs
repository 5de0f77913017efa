//! Exports of the collected span tree: Chrome trace-event JSON (loadable
//! in `chrome://tracing` / Perfetto), collapsed-stack flamegraph text
//! (`inferno` / `flamegraph.pl` input format), and the compact
//! [`TraceSummary`] attached to run manifests.
//!
//! All exports operate on a drained (or snapshotted) `Vec<[SpanRecord]>`
//! from the [`crate::TraceCollector`] — they never touch live collector
//! state, so exporting is pure and testable.
//!
//! **Self time vs. total time.** A node's *total* time is its own recorded
//! wall-clock duration; its *self* time is the part of that interval that
//! none of its direct children covers: the total minus the length of the
//! union of the children's `[start_us, start_us + duration_us)` intervals,
//! clipped to the parent's. Children dispatched to worker threads overlap
//! each other, so their summed durations can exceed the parent's; the union
//! counts the time they overlap once, and the parent's serial work before,
//! between and after them stays visible at any thread count. In a
//! sequential run the children are disjoint and nested, so the union is
//! their sum and the self times over a tree add back up to the root's
//! total.

use crate::trace::SpanRecord;
use std::collections::HashMap;

/// The collected spans arranged as a forest, with per-node self time.
pub struct TraceTree {
    /// All records, sorted by id (creation order).
    pub records: Vec<SpanRecord>,
    /// `children[i]` — indices into `records` of node `i`'s direct children.
    pub children: Vec<Vec<usize>>,
    /// Indices of roots (no parent, or parent never recorded).
    pub roots: Vec<usize>,
    /// `self_us[i]` — duration of `records[i]` minus the union of its
    /// direct children's intervals, clipped to its own (see the module
    /// docs).
    pub self_us: Vec<u64>,
    /// `depth[i]` — 0 for roots, parent depth + 1 otherwise.
    pub depth: Vec<u32>,
}

impl TraceTree {
    /// Builds the forest from drained records. Children whose parent span
    /// was never recorded (e.g. collection enabled mid-run) are treated as
    /// roots rather than dropped.
    pub fn build(mut records: Vec<SpanRecord>) -> TraceTree {
        records.sort_by_key(|r| r.id);
        let index_of: HashMap<u64, usize> =
            records.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); records.len()];
        let mut roots = Vec::new();
        for (i, r) in records.iter().enumerate() {
            match r.parent.and_then(|p| index_of.get(&p)) {
                Some(&p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let self_us = records
            .iter()
            .zip(&children)
            .map(|(r, kids)| r.duration_us - covered_us(r, kids.iter().map(|&c| &records[c])))
            .collect();
        let mut depth = vec![0u32; records.len()];
        // Ids ascend with creation order and a child is always created
        // after its parent, so one forward pass settles every depth.
        for i in 0..records.len() {
            for &c in &children[i] {
                depth[c] = depth[i] + 1;
            }
        }
        TraceTree {
            records,
            children,
            roots,
            self_us,
            depth,
        }
    }

    /// Number of spans in the forest.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no spans were collected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Maximum nesting depth (0 for an empty forest; 1 for roots only...
    /// counted as *levels*, so a root with one child is depth 2).
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().map(|d| d + 1).max().unwrap_or(0)
    }

    /// Per-name aggregation (count, total, self), sorted by descending
    /// self time then name — the rows of `/trace` and the manifest's
    /// top-self-time table.
    pub fn aggregate_by_name(&self) -> Vec<TraceNode> {
        let mut by_name: HashMap<&str, TraceNode> = HashMap::new();
        for (i, r) in self.records.iter().enumerate() {
            let node = by_name.entry(r.name.as_str()).or_insert_with(|| TraceNode {
                name: r.name.clone(),
                count: 0,
                total_us: 0,
                self_us: 0,
            });
            node.count += 1;
            node.total_us += r.duration_us;
            node.self_us += self.self_us[i];
        }
        let mut nodes: Vec<TraceNode> = by_name.into_values().collect();
        nodes.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
        nodes
    }

    /// The summed self time of the spans in root positions' subtrees equals
    /// the summed root durations; this is the roots' *own* duration total —
    /// what a sequential run's wall clock should roughly match.
    pub fn root_total_us(&self) -> u64 {
        self.roots
            .iter()
            .map(|&i| self.records[i].duration_us)
            .sum()
    }

    /// Compact summary for the run manifest.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            spans: self.len() as u64,
            max_depth: self.max_depth(),
            top_self_time: self.aggregate_by_name().into_iter().take(5).collect(),
        }
    }
}

/// Microseconds of `parent`'s interval that at least one of `children`'s
/// intervals covers: the length of their union, clipped to the parent.
fn covered_us<'a>(parent: &SpanRecord, children: impl Iterator<Item = &'a SpanRecord>) -> u64 {
    let (start, end) = (parent.start_us, parent.start_us + parent.duration_us);
    let mut intervals: Vec<(u64, u64)> = children
        .map(|c| (c.start_us.max(start), (c.start_us + c.duration_us).min(end)))
        .filter(|(from, to)| from < to)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reached = start;
    for (from, to) in intervals {
        let from = from.max(reached);
        if to > from {
            covered += to - from;
            reached = to;
        }
    }
    covered
}

/// One aggregated row of the trace (all spans sharing a name).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceNode {
    /// Span name.
    pub name: String,
    /// How many spans had this name.
    pub count: u64,
    /// Summed wall-clock duration, microseconds.
    pub total_us: u64,
    /// Summed self time (total minus the union of the direct children's
    /// intervals), microseconds.
    pub self_us: u64,
}

/// The `trace` section of a [`crate::RunManifest`]: enough to see the shape
/// and hot spots of a run without opening the full trace file.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceSummary {
    /// Spans collected.
    pub spans: u64,
    /// Deepest nesting level (levels, so a lone root counts 1).
    pub max_depth: u32,
    /// The five span names with the largest summed self time.
    pub top_self_time: Vec<TraceNode>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the forest as Chrome trace-event JSON (the `traceEvents` array
/// format): one complete (`"ph": "X"`) event per span, `ts`/`dur` in
/// microseconds, worker threads as `tid`s, and `id`/`parent` ids under
/// `args` so tooling can rebuild the tree exactly. Load the file in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace(tree: &TraceTree) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (i, r) in tree.records.iter().enumerate() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let mut args = format!("\"id\":{}", r.id);
        if let Some(p) = r.parent {
            args.push_str(&format!(",\"parent\":{p}"));
        }
        args.push_str(&format!(",\"self_us\":{}", tree.self_us[i]));
        for f in &r.fields {
            let value = match &f.value {
                crate::FieldValue::Text(t) => format!("\"{}\"", json_escape(t)),
                other => {
                    let s = other.to_string();
                    // Non-finite floats have no JSON literal.
                    if s.parse::<f64>().is_ok() {
                        s
                    } else {
                        format!("\"{}\"", json_escape(&s))
                    }
                }
            };
            args.push_str(&format!(",\"{}\":{value}", json_escape(&f.key)));
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"kgfd\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{{args}}}}}",
            json_escape(&r.name),
            r.start_us,
            r.duration_us,
            r.thread
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Renders the forest as collapsed-stack flamegraph text: one
/// `root;child;leaf <self_us>` line per node with non-zero self time,
/// ready for `flamegraph.pl` or `inferno-flamegraph`. Lines are sorted so
/// the output is deterministic for a fixed trace.
pub fn flamegraph_collapsed(tree: &TraceTree) -> String {
    let mut stacks: HashMap<String, u64> = HashMap::new();
    let mut stack_names: Vec<&str> = Vec::new();
    for &root in &tree.roots {
        collapse_into(tree, root, &mut stack_names, &mut stacks);
    }
    let mut lines: Vec<String> = stacks
        .into_iter()
        .map(|(stack, us)| format!("{stack} {us}"))
        .collect();
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

fn collapse_into<'a>(
    tree: &'a TraceTree,
    node: usize,
    stack: &mut Vec<&'a str>,
    out: &mut HashMap<String, u64>,
) {
    stack.push(&tree.records[node].name);
    let self_us = tree.self_us[node];
    if self_us > 0 {
        *out.entry(stack.join(";")).or_insert(0) += self_us;
    }
    for &c in &tree.children[node] {
        collapse_into(tree, c, stack, out);
    }
    stack.pop();
}

/// The top-`n` aggregated rows by self time as a standalone JSON document —
/// the body of `kgfd serve`'s `GET /trace` route.
pub fn top_spans_json(tree: &TraceTree, n: usize) -> String {
    let rows = tree.aggregate_by_name();
    let mut out = format!(
        "{{\"spans\":{},\"max_depth\":{},\"top\":[",
        tree.len(),
        tree.max_depth()
    );
    for (i, row) in rows.iter().take(n).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"count\":{},\"total_us\":{},\"self_us\":{}}}",
            json_escape(&row.name),
            row.count,
            row.total_us,
            row.self_us
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, parent: Option<u64>, name: &str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            fields: Vec::new(),
            start_us: start,
            duration_us: dur,
            thread: 1,
        }
    }

    fn sample_tree() -> TraceTree {
        // root(100) ── a(60) ── a1(20)
        //          └── b(30)
        TraceTree::build(vec![
            record(1, None, "root", 0, 100),
            record(2, Some(1), "a", 5, 60),
            record(3, Some(2), "a1", 10, 20),
            record(4, Some(1), "b", 70, 30),
        ])
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = sample_tree();
        assert_eq!(t.self_us, vec![10, 40, 20, 30]);
        assert_eq!(t.max_depth(), 3);
        assert_eq!(t.roots, vec![0]);
        // Sequential tree: self times sum back to the root total.
        assert_eq!(t.self_us.iter().sum::<u64>(), 100);
        assert_eq!(t.root_total_us(), 100);
    }

    #[test]
    fn overlapping_children_count_their_union_once() {
        // Parallel children: 2 × 80us from one start inside a 100us parent
        // cover 80us of it, so the parent's serial 20us stays visible.
        let t = TraceTree::build(vec![
            record(1, None, "root", 0, 100),
            record(2, Some(1), "w", 0, 80),
            record(3, Some(1), "w", 0, 80),
        ]);
        assert_eq!(t.self_us, vec![20, 80, 80]);
    }

    #[test]
    fn disjoint_children_subtract_their_summed_durations() {
        let t = TraceTree::build(vec![
            record(1, None, "root", 10, 100),
            record(2, Some(1), "w", 20, 30),
            record(3, Some(1), "w", 60, 20),
        ]);
        assert_eq!(t.self_us[0], 50);
    }

    #[test]
    fn partly_overlapping_children_subtract_their_union() {
        // [10, 50) and [30, 70) cover [10, 70): 60us of the 100us parent.
        let t = TraceTree::build(vec![
            record(1, None, "root", 0, 100),
            record(2, Some(1), "w", 10, 40),
            record(3, Some(1), "w", 30, 40),
        ]);
        assert_eq!(t.self_us[0], 40);
    }

    #[test]
    fn a_child_that_outlives_its_parent_is_clipped_to_it() {
        // The child covers [60, 100) of the parent's [0, 100) and runs on
        // past its end; only the covered 40us leave the parent's self time.
        let t = TraceTree::build(vec![
            record(1, None, "root", 0, 100),
            record(2, Some(1), "late", 60, 90),
        ]);
        assert_eq!(t.self_us, vec![60, 90]);
    }

    #[test]
    fn orphan_parents_become_roots() {
        let t = TraceTree::build(vec![record(7, Some(999), "late", 0, 5)]);
        assert_eq!(t.roots, vec![0]);
        assert_eq!(t.depth, vec![0]);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_parent_links() {
        let t = sample_tree();
        let json = chrome_trace(&t);
        let value: serde_json::Value = serde_json::from_str(&json).expect("parses");
        let events = value["traceEvents"].as_array().expect("array");
        assert_eq!(events.len(), 4);
        for e in events {
            assert_eq!(e["ph"].as_str(), Some("X"));
            assert!(e["dur"].as_u64().is_some());
        }
        assert_eq!(events[1]["args"]["parent"].as_u64(), Some(1));
        assert_eq!(events[0]["args"]["self_us"].as_u64(), Some(10));
    }

    #[test]
    fn chrome_trace_escapes_field_text() {
        let mut r = record(1, None, "odd\"name", 0, 5);
        r.fields
            .push(crate::Field::new("note", "line\nbreak \"quoted\""));
        let t = TraceTree::build(vec![r]);
        let json = chrome_trace(&t);
        let value: serde_json::Value = serde_json::from_str(&json).expect("escaped JSON parses");
        assert_eq!(value["traceEvents"][0]["name"].as_str(), Some("odd\"name"));
    }

    #[test]
    fn flamegraph_lines_are_semicolon_stacks_with_self_time() {
        let t = sample_tree();
        let text = flamegraph_collapsed(&t);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec!["root 10", "root;a 40", "root;a;a1 20", "root;b 30"]
        );
    }

    #[test]
    fn aggregation_merges_same_name_and_sorts_by_self_time() {
        let t = TraceTree::build(vec![
            record(1, None, "root", 0, 100),
            record(2, Some(1), "work", 0, 30),
            record(3, Some(1), "work", 30, 30),
        ]);
        let rows = t.aggregate_by_name();
        assert_eq!(rows[0].name, "work");
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total_us, 60);
        assert_eq!(rows[0].self_us, 60);
        assert_eq!(rows[1].name, "root");
        assert_eq!(rows[1].self_us, 40);

        let summary = t.summary();
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.max_depth, 2);
        assert_eq!(summary.top_self_time.len(), 2);
    }

    #[test]
    fn top_spans_json_parses_and_limits() {
        let t = sample_tree();
        let json = top_spans_json(&t, 2);
        let value: serde_json::Value = serde_json::from_str(&json).expect("parses");
        assert_eq!(value["spans"].as_u64(), Some(4));
        assert_eq!(value["top"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn empty_tree_exports_cleanly() {
        let t = TraceTree::build(Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.max_depth(), 0);
        let json = chrome_trace(&t);
        let value: serde_json::Value = serde_json::from_str(&json).expect("parses");
        assert_eq!(value["traceEvents"].as_array().unwrap().len(), 0);
        assert_eq!(flamegraph_collapsed(&t), "");
    }
}
