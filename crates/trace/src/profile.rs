//! The span forest and the self-profile tree built from it.
//!
//! [`span_forest`] is the one place parenthood is rebuilt from a
//! trace: the flight recorder snapshots it for one request, and
//! [`profile_tree`] aggregates it by call path, with inclusive/exclusive
//! time and call counts — the quick textual answer to "where did the
//! pipeline spend its time" that the paper's Table I runtime split
//! needs.

use crate::span::{Event, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One span and the spans it encloses, as rebuilt by [`span_forest`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTree {
    /// The span itself.
    pub event: Event,
    /// Spans opened inside it on the same thread, in trace order.
    pub children: Vec<SpanTree>,
}

/// The span forest of the events `keep` selects. Events keep their
/// trace order; parent/child structure follows each thread's depth
/// stack (the trace is sorted with parents before children at equal
/// starts). A span whose parent is not selected, or was still open
/// when the collector finished, is a root.
#[must_use]
pub fn span_forest(trace: &Trace, keep: impl Fn(&Event) -> bool) -> Vec<SpanTree> {
    let mut arena: Vec<Option<SpanTree>> = Vec::new();
    // Per-event parent arena index (`None` for roots).
    let mut parents: Vec<Option<usize>> = Vec::new();
    // One open-span stack per thread: (depth, arena index).
    let mut stacks: Vec<(u64, Vec<(u32, usize)>)> = Vec::new();
    for event in trace.events.iter().filter(|e| keep(e)) {
        let stack = match stacks.iter_mut().find(|(tid, _)| *tid == event.tid) {
            Some((_, stack)) => stack,
            None => {
                stacks.push((event.tid, Vec::new()));
                &mut stacks.last_mut().expect("just pushed").1
            }
        };
        while stack.last().is_some_and(|&(depth, _)| depth >= event.depth) {
            stack.pop();
        }
        parents.push(stack.last().map(|&(_, idx)| idx));
        stack.push((event.depth, arena.len()));
        arena.push(Some(SpanTree {
            event: event.clone(),
            children: Vec::new(),
        }));
    }
    // Materialize children bottom-up: walking in reverse arena order
    // guarantees a node's children are complete before it moves into
    // its own parent.
    let mut roots = Vec::new();
    for idx in (0..arena.len()).rev() {
        let mut node = arena[idx].take().expect("each node moves once");
        node.children.reverse();
        match parents[idx] {
            Some(parent) => arena[parent]
                .as_mut()
                .expect("a parent precedes its children")
                .children
                .push(node),
            None => roots.push(node),
        }
    }
    roots.reverse();
    roots
}

/// One aggregated node of the profile tree.
#[derive(Debug, Default)]
struct Node {
    calls: u64,
    inclusive_ns: u64,
    children: BTreeMap<&'static str, Node>,
}

impl Node {
    fn child_inclusive(&self) -> u64 {
        self.children.values().map(|c| c.inclusive_ns).sum()
    }

    /// Folds `tree` in under this node, merging identical call paths.
    fn add(&mut self, tree: &SpanTree) {
        let node = self.children.entry(tree.event.name).or_default();
        node.calls += 1;
        node.inclusive_ns += tree.event.dur_ns;
        for child in &tree.children {
            node.add(child);
        }
    }
}

/// Builds the aggregated call tree from a trace: the span forest with
/// identical call paths merged across threads — a span running on four
/// pool workers shows up as one node with four calls.
fn build(trace: &Trace) -> Node {
    let mut root = Node::default();
    for tree in &span_forest(trace, |_| true) {
        root.add(tree);
    }
    root.inclusive_ns = root.child_inclusive();
    root
}

fn render_node(out: &mut String, name: &str, node: &Node, depth: usize, total_ns: u64) {
    let incl_ms = node.inclusive_ns as f64 / 1e6;
    let excl_ms = node.inclusive_ns.saturating_sub(node.child_inclusive()) as f64 / 1e6;
    let share = if total_ns > 0 {
        node.inclusive_ns as f64 * 100.0 / total_ns as f64
    } else {
        0.0
    };
    let label = format!("{:indent$}{name}", "", indent = depth * 2);
    let _ = writeln!(
        out,
        "{label:<40} {:>7} {:>12.3} {:>12.3} {share:>6.1}%",
        node.calls, incl_ms, excl_ms
    );
    // Largest subtrees first; ties resolve alphabetically for a stable
    // rendering.
    let mut children: Vec<_> = node.children.iter().collect();
    children.sort_by(|a, b| b.1.inclusive_ns.cmp(&a.1.inclusive_ns).then(a.0.cmp(b.0)));
    for (child_name, child) in children {
        render_node(out, child_name, child, depth + 1, total_ns);
    }
}

/// Renders the profile tree as aligned text.
#[must_use]
pub fn profile_tree(trace: &Trace) -> String {
    let root = build(trace);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<40} {:>7} {:>12} {:>12} {:>7}",
        "span", "calls", "incl(ms)", "excl(ms)", "share"
    );
    let total_ns = root.inclusive_ns;
    let mut roots: Vec<_> = root.children.iter().collect();
    roots.sort_by(|a, b| b.1.inclusive_ns.cmp(&a.1.inclusive_ns).then(a.0.cmp(b.0)));
    for (name, node) in roots {
        render_node(&mut out, name, node, 0, total_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &'static str, tid: u64, depth: u32, start_ns: u64, dur_ns: u64) -> Event {
        Event {
            name,
            tid,
            depth,
            start_ns,
            dur_ns,
            request: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn tree_aggregates_by_path_across_threads() {
        let trace = Trace {
            events: vec![
                event("analyze", 0, 0, 0, 10_000_000),
                event("solve", 0, 1, 100, 6_000_000),
                event("features", 0, 1, 6_000_200, 3_000_000),
                // A second thread runs the same path once more.
                event("analyze", 1, 0, 50, 8_000_000),
                event("solve", 1, 1, 150, 7_000_000),
            ],
            thread_labels: Vec::new(),
        };
        let text = profile_tree(&trace);
        let analyze_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("analyze"))
            .expect("analyze row");
        assert!(analyze_line.contains(" 2 "), "{analyze_line}");
        let solve_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("solve"))
            .expect("solve row");
        assert!(solve_line.contains(" 2 "), "{solve_line}");
        // solve (13 ms inclusive) sorts above features (3 ms).
        let solve_at = text.find("solve").expect("solve");
        let features_at = text.find("features").expect("features");
        assert!(solve_at < features_at);
        // Exclusive time of analyze = 18 ms - 16 ms = 2 ms.
        assert!(analyze_line.contains("2.000"), "{analyze_line}");
    }

    #[test]
    fn empty_trace_renders_header_only() {
        let text = profile_tree(&Trace::default());
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("span"));
    }
}
