//! Harness-side tracing: a span around every call the harness makes
//! into a layer, kept in memory and written out when the run ends.
//!
//! The program itself is not instrumented here; spans sit at the
//! boundary between the harness and the library (or the CLI process).
//! Span lines use the `kind: "span"` shape of the workspace trace
//! format, so `xmodel profile <file>` can also read them.

use std::collections::BTreeMap;
use std::time::Instant;

/// One completed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Tab-separated form used between a pass process and the harness.
    pub fn to_tsv(&self) -> String {
        let parent = self.parent.map_or("-".to_string(), |p| p.to_string());
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}",
            self.id, parent, self.name, self.op, self.start_ns, self.end_ns
        )
    }

    pub fn from_tsv(line: &str) -> Option<Span> {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 6 {
            return None;
        }
        Some(Span {
            id: f[0].parse().ok()?,
            parent: match f[1] {
                "-" => None,
                p => Some(p.parse().ok()?),
            },
            name: f[2].to_string(),
            op: f[3].parse().ok()?,
            start_ns: f[4].parse().ok()?,
            end_ns: f[5].parse().ok()?,
        })
    }
}

/// Span recorder. When `on` is false every method is a no-op and
/// [`Tracer::span`] just calls its closure.
pub struct Tracer {
    pub on: bool,
    pub epoch: Instant,
    /// Op id stamped on the spans recorded from now on.
    pub op: u64,
    next_id: u64,
    open: Vec<(u64, &'static str, u64)>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            next_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn begin(&mut self, name: &'static str) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.on {
            let now = self.now_ns();
            self.open.push((id, name, now));
        }
        id
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        if let Some((id, name, start_ns)) = self.open.pop() {
            let parent = self.open.last().map(|o| o.0);
            self.push(id, parent, name, start_ns, end_ns);
        }
    }

    /// Time `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Record a span measured elsewhere (another thread or process);
    /// returns its id.
    pub fn record(&mut self, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.on {
            self.push(id, parent, name, start_ns, end_ns);
        }
        id
    }

    fn push(&mut self, id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            op: self.op,
            start_ns,
            end_ns,
        });
    }
}

/// Per-op fold of a span set.
#[derive(Debug, Default)]
pub struct Fold {
    /// Self time per span name, summed over all ops, in ns: a span's
    /// duration minus the part of it that its children cover.
    pub self_ns: BTreeMap<String, u64>,
    /// Summed duration per span name, in ns.
    pub total_ns: BTreeMap<String, u64>,
    /// Per op: the root `op` span's duration and the summed durations of
    /// its direct children, in ns.
    pub ops: BTreeMap<u64, (u64, u64)>,
}

impl Fold {
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Median over ops of (op duration − Σ direct children), in ms, and
    /// its share of the median op duration. Medians, because a host
    /// stall during one op, or between a CLI call and its replay, would
    /// otherwise land in every op's mean.
    pub fn unattributed(&self) -> (f64, f64) {
        let gaps: Vec<f64> = self
            .ops
            .values()
            .map(|&(op, children)| (op as f64 - children as f64) / 1e6)
            .collect();
        let walls: Vec<f64> = self.ops.values().map(|&(op, _)| op as f64 / 1e6).collect();
        let gap = crate::util::median(&gaps);
        (gap, crate::util::ratio(gap, crate::util::median(&walls)))
    }
}

/// Fold spans into self time per name. Children may run in parallel
/// (sweep cells), so a parent's covered time is the union of its
/// children's intervals, clipped to the parent.
pub fn fold(spans: &[Span]) -> Fold {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out = Fold::default();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let mut intervals: Vec<(u64, u64)> = kids
            .iter()
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut reach = 0u64;
        for (a, b) in intervals {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *out.self_ns.entry(s.name.clone()).or_default() += s.dur_ns().saturating_sub(covered);
        *out.total_ns.entry(s.name.clone()).or_default() += s.dur_ns();
        if s.name == "op" {
            let direct: u64 = kids.iter().map(|c| c.dur_ns()).sum();
            out.ops.insert(s.op, (s.dur_ns(), direct));
        }
    }
    out
}

/// Write spans as JSON lines (`kind: "span"` events with start, end,
/// parent and op id). Best effort: a failed write is reported, never
/// fatal, since the metrics are already computed.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) {
    let names: BTreeMap<u64, &str> = spans.iter().map(|s| (s.id, s.name.as_str())).collect();
    let mut text = String::with_capacity(spans.len() * 120);
    for s in spans {
        let parent = s.parent.and_then(|p| names.get(&p)).copied();
        text.push_str(&format!(
            "{{\"kind\":\"span\",\"t_us\":{},\"name\":\"{}\",\"dur_us\":{},\"start_us\":{},\"id\":{},\"parent_id\":{},\"op\":{}{}}}\n",
            s.end_ns as f64 / 1e3,
            s.name,
            s.dur_ns() as f64 / 1e3,
            s.start_ns as f64 / 1e3,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.op,
            parent.map_or(String::new(), |p| format!(",\"parent\":\"{p}\"")),
        ));
    }
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    if let Err(e) = written {
        eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn parallel_children_cover_their_union_not_their_sum() {
        let spans = [
            span(0, None, "op", 0, 100),
            span(1, Some(0), "run", 10, 90),
            span(2, Some(1), "cell", 10, 60),
            span(3, Some(1), "cell", 20, 70),
        ];
        let f = fold(&spans);
        assert_eq!(f.self_ns["run"], 80 - 60);
        assert_eq!(f.self_ns["cell"], 100);
        assert_eq!(f.self_ns["op"], 20);
        assert_eq!(f.ops[&0], (100, 80));
        let (gap_ms, share) = f.unattributed();
        assert!((gap_ms - 20e-6).abs() < 1e-12 && (share - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tsv_round_trips() {
        let s = span(5, Some(2), "sm.measure", 7, 9);
        assert_eq!(Span::from_tsv(&s.to_tsv()), Some(s));
        let root = span(1, None, "op", 0, 3);
        assert_eq!(Span::from_tsv(&root.to_tsv()), Some(root));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 3), 3);
        t.record(None, "y", 0, 1);
        assert!(t.spans.is_empty());
    }
}
