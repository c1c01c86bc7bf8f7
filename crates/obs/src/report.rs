//! Trace analysis for `xmodel trace-report`: read a JSONL trace back,
//! tally events by kind, reconstruct the span tree with timings, and
//! surface the run manifest.

use crate::json::{self, JsonValue};
use std::collections::BTreeMap;

/// Timing stats for one span name.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Completed spans with this name.
    pub count: u64,
    /// Total duration, microseconds.
    pub total_us: f64,
    /// Shortest single span, microseconds.
    pub min_us: f64,
    /// Longest single span, microseconds.
    pub max_us: f64,
    /// Parent span name (first observed).
    pub parent: Option<String>,
}

/// Everything `trace-report` extracts from a trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Total lines read.
    pub lines: usize,
    /// Lines that failed to parse as JSON objects.
    pub malformed: usize,
    /// Event counts by kind (spans and manifests included).
    pub counts: BTreeMap<String, u64>,
    /// Span timing stats by name.
    pub spans: BTreeMap<String, SpanStats>,
    /// The run manifest line, if present.
    pub manifest: Option<JsonValue>,
}

impl TraceReport {
    /// Build a report from trace lines.
    pub fn from_lines<'a>(lines: impl Iterator<Item = &'a str>) -> TraceReport {
        let mut report = TraceReport::default();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            report.lines += 1;
            let Ok(value) = json::parse(line) else {
                report.malformed += 1;
                continue;
            };
            let Some(kind) = value.get("kind").and_then(JsonValue::as_str) else {
                report.malformed += 1;
                continue;
            };
            *report.counts.entry(kind.to_string()).or_default() += 1;
            match kind {
                "span" => report.record_span(&value),
                "run_manifest" => report.manifest = Some(value),
                _ => {}
            }
        }
        report
    }

    /// Build a report by reading `path` through
    /// [`crate::read_trace_lines`]: invalid UTF-8 is replaced, not fatal;
    /// only a missing/unreadable file errors.
    pub fn from_path(path: &std::path::Path) -> std::io::Result<TraceReport> {
        crate::read_trace_lines(path, |lines| Self::from_lines(lines))
    }

    fn record_span(&mut self, value: &JsonValue) {
        let Some(name) = value.get("name").and_then(JsonValue::as_str) else {
            self.malformed += 1; // a `span` line without its name
            return;
        };
        let dur_us = value
            .get("dur_us")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        let stats = self.spans.entry(name.to_string()).or_default();
        if stats.count == 0 {
            stats.min_us = dur_us;
            stats.max_us = dur_us;
            stats.parent = value
                .get("parent")
                .and_then(JsonValue::as_str)
                .map(str::to_string);
        } else {
            stats.min_us = stats.min_us.min(dur_us);
            stats.max_us = stats.max_us.max(dur_us);
        }
        stats.count += 1;
        stats.total_us += dur_us;
    }

    /// Render the human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {} lines ({} malformed)\n",
            self.lines, self.malformed
        ));
        if self.lines == 0 {
            out.push_str("warning: trace is empty\n");
        } else if self.malformed > 0 {
            out.push_str(&format!(
                "warning: {} malformed line(s) skipped (truncated trace?)\n",
                self.malformed
            ));
        }

        if let Some(manifest) = &self.manifest {
            let field = |k: &str| {
                manifest
                    .get(k)
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?")
                    .to_string()
            };
            let wall_ms = manifest
                .get("wall_ms")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            out.push_str(&format!(
                "run: `{}` version {} ({:.1} ms wall)\n",
                field("command"),
                field("version"),
                wall_ms
            ));
            if let Some(JsonValue::Object(params)) = manifest.get("params") {
                if !params.is_empty() {
                    let joined: Vec<String> = params
                        .iter()
                        .map(|(k, v)| match v.as_str() {
                            Some(s) => format!("{k}={s}"),
                            None => format!("{k}=?"),
                        })
                        .collect();
                    out.push_str(&format!("params: {}\n", joined.join(" ")));
                }
            }
            if let Some(seed) = manifest.get("seed").and_then(JsonValue::as_u64) {
                out.push_str(&format!("seed: {seed}\n"));
            }
        } else {
            out.push_str("run: (no manifest found — truncated trace?)\n");
        }

        if !self.spans.is_empty() {
            out.push_str("\nspans:\n");
            // Roots: spans with no parent, or whose parent never completed.
            let roots: Vec<&String> = self
                .spans
                .iter()
                .filter(|(_, s)| {
                    s.parent
                        .as_ref()
                        .is_none_or(|p| !self.spans.contains_key(p))
                })
                .map(|(name, _)| name)
                .collect();
            for root in roots {
                self.render_span_tree(&mut out, root, 0);
            }
        }

        out.push_str("\nevents:\n");
        let mut kinds: Vec<(&String, &u64)> = self.counts.iter().collect();
        kinds.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        for (kind, count) in kinds {
            out.push_str(&format!("  {count:>8}  {kind}\n"));
        }
        out
    }

    fn render_span_tree(&self, out: &mut String, name: &str, depth: usize) {
        let Some(stats) = self.spans.get(name) else {
            return;
        };
        let indent = "  ".repeat(depth + 1);
        let mean_us = stats.total_us / stats.count.max(1) as f64;
        out.push_str(&format!(
            "{indent}{name:<24} {:>6}x  total {:>10.1} µs  mean {:>9.1} µs  [{:.1} .. {:.1}]\n",
            stats.count, stats.total_us, mean_us, stats.min_us, stats.max_us
        ));
        let children: Vec<&String> = self
            .spans
            .iter()
            .filter(|(child, s)| s.parent.as_deref() == Some(name) && child.as_str() != name)
            .map(|(child, _)| child)
            .collect();
        for child in children {
            self.render_span_tree(out, child, depth + 1);
        }
    }
}
