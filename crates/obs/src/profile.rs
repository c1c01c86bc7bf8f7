//! Span-profile aggregation for `xmodel profile`: fold the JSONL span
//! stream back into a call-tree profile — call counts, total and self
//! time, and p50/p95/p99 latency per span name — plus a folded-stack
//! rendering (`root;child;leaf <µs>`) that flamegraph tools consume.
//!
//! Span events record `name` + `parent` (first-observed), not full
//! stacks, so the tree is keyed by span *name*: every occurrence of a
//! name aggregates into one node under its first-observed parent. That
//! matches how the workspace names spans (stable `&'static str` phase
//! names) and keeps the profile robust to truncated traces — an
//! unmatched or orphaned span simply becomes a root.
//!
//! Like [`crate::report`], the reader is best-effort: malformed lines
//! are counted, never fatal.

use crate::json::{self, JsonValue};
use crate::metrics::{latency_edges_us, Histogram};
use std::collections::BTreeMap;

/// One aggregated node of the call-tree profile.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// First-observed parent span name.
    pub parent: Option<String>,
    /// Completed spans with this name.
    pub count: u64,
    /// Total (inclusive) time across them, microseconds.
    pub total_us: f64,
    /// Duration distribution, for percentile columns.
    pub hist: Histogram,
}

impl SpanNode {
    fn new(name: &str) -> SpanNode {
        SpanNode {
            name: name.to_string(),
            parent: None,
            count: 0,
            total_us: 0.0,
            hist: Histogram::with_edges(latency_edges_us()),
        }
    }

    /// Estimated quantile of the single-span duration, microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.hist.quantile(q).unwrap_or(0.0)
    }
}

/// A call-tree profile aggregated from a trace's span events.
#[derive(Debug, Clone, Default)]
pub struct SpanProfile {
    /// Total non-empty lines read.
    pub lines: usize,
    /// Lines that failed to parse, or span events missing their name.
    pub malformed: usize,
    /// Aggregated nodes by span name.
    pub nodes: BTreeMap<String, SpanNode>,
    /// Non-fatal oddities found while reading (reported to the user).
    pub warnings: Vec<String>,
}

impl SpanProfile {
    /// Aggregate a profile from trace lines (best-effort).
    pub fn from_lines<'a>(lines: impl Iterator<Item = &'a str>) -> SpanProfile {
        let mut profile = SpanProfile::default();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            profile.lines += 1;
            let Ok(value) = json::parse(line) else {
                profile.malformed += 1;
                continue;
            };
            if value.get("kind").and_then(JsonValue::as_str) != Some("span") {
                continue;
            }
            let Some(name) = value.get("name").and_then(JsonValue::as_str) else {
                profile.malformed += 1;
                continue;
            };
            let dur_us = value
                .get("dur_us")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
                .max(0.0);
            let parent = value
                .get("parent")
                .and_then(JsonValue::as_str)
                .map(str::to_string);
            let node = profile
                .nodes
                .entry(name.to_string())
                .or_insert_with(|| SpanNode::new(name));
            if node.count == 0 {
                node.parent = parent;
            }
            node.count += 1;
            node.total_us += dur_us;
            node.hist.record(dur_us);
        }
        profile.finish_warnings();
        profile
    }

    /// Aggregate a profile by reading `path` through
    /// [`crate::read_trace_lines`]: invalid UTF-8 is replaced, not fatal;
    /// only a missing/unreadable file errors.
    pub fn from_path(path: &std::path::Path) -> std::io::Result<SpanProfile> {
        crate::read_trace_lines(path, |lines| Self::from_lines(lines))
    }

    fn finish_warnings(&mut self) {
        if self.lines == 0 {
            self.warnings.push("trace is empty".to_string());
        } else if self.nodes.is_empty() {
            self.warnings
                .push("trace contains no span events".to_string());
        }
        if self.malformed > 0 {
            self.warnings.push(format!(
                "{} malformed line(s) skipped (truncated trace?)",
                self.malformed
            ));
        }
        let orphans: Vec<&str> = self
            .nodes
            .values()
            .filter_map(|n| n.parent.as_deref())
            .filter(|p| !self.nodes.contains_key(*p))
            .collect();
        if !orphans.is_empty() {
            self.warnings.push(format!(
                "{} span(s) reference a parent that never completed; treating as roots",
                orphans.len()
            ));
        }
    }

    /// True when no span events were found.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Root nodes: no parent, or a parent that never completed.
    /// Sorted by total time, descending.
    pub fn roots(&self) -> Vec<&SpanNode> {
        let mut roots: Vec<&SpanNode> = self
            .nodes
            .values()
            .filter(|n| {
                n.parent
                    .as_ref()
                    .is_none_or(|p| !self.nodes.contains_key(p) || p == &n.name)
            })
            .collect();
        roots.sort_by(|a, b| b.total_us.total_cmp(&a.total_us));
        roots
    }

    /// Children of `name`, sorted by total time descending.
    pub fn children(&self, name: &str) -> Vec<&SpanNode> {
        let mut children: Vec<&SpanNode> = self
            .nodes
            .values()
            .filter(|n| n.parent.as_deref() == Some(name) && n.name != name)
            .collect();
        children.sort_by(|a, b| b.total_us.total_cmp(&a.total_us));
        children
    }

    /// Self time of `name`: total minus the total of its children
    /// (clamped at zero — child totals can exceed the parent's when a
    /// name also occurs under other parents).
    pub fn self_us(&self, name: &str) -> f64 {
        let Some(node) = self.nodes.get(name) else {
            return 0.0;
        };
        let child_total: f64 = self.children(name).iter().map(|c| c.total_us).sum();
        (node.total_us - child_total).max(0.0)
    }

    /// Render the call-tree table: one row per span name, indented by
    /// depth, with count, total, self, and latency-percentile columns.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for w in &self.warnings {
            out.push_str(&format!("warning: {w}\n"));
        }
        if self.is_empty() {
            out.push_str("profile: no span events\n");
            return out;
        }
        out.push_str(&format!(
            "{:<32} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10}\n",
            "span", "calls", "total ms", "self ms", "p50 µs", "p95 µs", "p99 µs"
        ));
        let mut path = Vec::new();
        for root in self.roots() {
            self.render_node(&mut out, root, 0, &mut path);
        }
        out
    }

    fn render_node(&self, out: &mut String, node: &SpanNode, depth: usize, path: &mut Vec<String>) {
        if path.contains(&node.name) {
            return; // parent-edge cycle (recursive span names); cut here
        }
        let label = format!("{}{}", "  ".repeat(depth), node.name);
        out.push_str(&format!(
            "{:<32} {:>8} {:>12.3} {:>12.3} {:>10.1} {:>10.1} {:>10.1}\n",
            label,
            node.count,
            node.total_us / 1e3,
            self.self_us(&node.name) / 1e3,
            node.quantile_us(0.50),
            node.quantile_us(0.95),
            node.quantile_us(0.99),
        ));
        path.push(node.name.clone());
        for child in self.children(&node.name) {
            self.render_node(out, child, depth + 1, path);
        }
        path.pop();
    }

    /// Folded-stack rendering: one `root;child;leaf <µs>` line per node
    /// with nonzero self time, suitable for `flamegraph.pl` and
    /// compatible tools (the "sample count" is self time in µs).
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        let mut path = Vec::new();
        for root in self.roots() {
            self.fold_node(&mut out, root, &mut path);
        }
        out
    }

    fn fold_node(&self, out: &mut String, node: &SpanNode, path: &mut Vec<String>) {
        if path.contains(&node.name) {
            return;
        }
        path.push(node.name.clone());
        let self_us = self.self_us(&node.name).round() as u64;
        if self_us > 0 || self.children(&node.name).is_empty() {
            out.push_str(&format!("{} {}\n", path.join(";"), self_us));
        }
        for child in self.children(&node.name) {
            self.fold_node(out, child, path);
        }
        path.pop();
    }

    /// `(name, self-time µs)` pairs sorted by self time descending —
    /// the flat "hot spans" view used by the CLI's bar rendering.
    pub fn hotspots(&self) -> Vec<(String, f64)> {
        let mut flat: Vec<(String, f64)> = self
            .nodes
            .keys()
            .map(|name| (name.clone(), self.self_us(name)))
            .collect();
        flat.sort_by(|a, b| b.1.total_cmp(&a.1));
        flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_line(name: &str, parent: Option<&str>, dur_us: f64) -> String {
        match parent {
            Some(p) => format!(
                r#"{{"kind":"span","t_us":1,"name":"{name}","dur_us":{dur_us},"parent":"{p}"}}"#
            ),
            None => format!(r#"{{"kind":"span","t_us":1,"name":"{name}","dur_us":{dur_us}}}"#),
        }
    }

    #[test]
    fn builds_tree_with_self_time() {
        let lines = [
            span_line("leaf", Some("mid"), 100.0),
            span_line("leaf", Some("mid"), 300.0),
            span_line("mid", Some("root"), 500.0),
            span_line("root", None, 1000.0),
        ];
        let p = SpanProfile::from_lines(lines.iter().map(String::as_str));
        assert_eq!(p.malformed, 0);
        assert_eq!(p.nodes["leaf"].count, 2);
        assert!((p.self_us("mid") - 100.0).abs() < 1e-9);
        assert!((p.self_us("root") - 500.0).abs() < 1e-9);
        assert!((p.self_us("leaf") - 400.0).abs() < 1e-9);
        let rendered = p.render();
        assert!(rendered.contains("root"));
        assert!(rendered.contains("p95"));
        let folded = p.to_folded();
        assert!(folded.contains("root;mid;leaf 400"));
        assert!(folded.contains("root;mid 100"));
        assert!(folded.contains("root 500"));
    }

    #[test]
    fn percentiles_come_from_histogram() {
        let lines: Vec<String> = (1..=100)
            .map(|i| span_line("step", None, i as f64 * 10.0))
            .collect();
        let p = SpanProfile::from_lines(lines.iter().map(String::as_str));
        let n = &p.nodes["step"];
        assert_eq!(n.count, 100);
        let p50 = n.quantile_us(0.50);
        let p99 = n.quantile_us(0.99);
        assert!(p50 > 300.0 && p50 < 700.0, "p50 = {p50}");
        assert!(p99 >= p50, "p99 = {p99} < p50 = {p50}");
    }

    #[test]
    fn malformed_and_empty_are_best_effort() {
        let p = SpanProfile::from_lines(std::iter::empty());
        assert!(p.is_empty());
        assert!(p.warnings.iter().any(|w| w.contains("empty")));
        assert!(p.render().contains("no span events"));

        let lines = [
            r#"{"kind":"span","t_us":1,"name":"ok","dur_us":5.0}"#.to_string(),
            r#"{"kind":"span","t_us":1,"dur_us"#.to_string(), // truncated
            "not json at all".to_string(),
            r#"{"kind":"span","t_us":1}"#.to_string(), // span without name
        ];
        let p = SpanProfile::from_lines(lines.iter().map(String::as_str));
        assert_eq!(p.malformed, 3);
        assert_eq!(p.nodes["ok"].count, 1);
        assert!(p.warnings.iter().any(|w| w.contains("malformed")));
    }

    #[test]
    fn orphan_parents_become_roots_and_cycles_terminate() {
        let lines = [
            span_line("child", Some("never-completed"), 10.0),
            span_line("self-cycle", Some("self-cycle"), 10.0),
        ];
        let p = SpanProfile::from_lines(lines.iter().map(String::as_str));
        let roots: Vec<&str> = p.roots().iter().map(|n| n.name.as_str()).collect();
        assert!(roots.contains(&"child"));
        assert!(roots.contains(&"self-cycle"));
        assert!(p.warnings.iter().any(|w| w.contains("parent")));
        // Render and fold must terminate despite the cycle.
        let _ = p.render();
        let _ = p.to_folded();
    }
}
