//! Live metrics endpoint: a std-only background exporter serving the
//! metrics registry ([`crate::metrics`]) and span aggregates
//! ([`crate::span`]) as Prometheus text format (version 0.0.4) over
//! plain HTTP.
//!
//! Built directly on [`std::net::TcpListener`] — no HTTP framework, no
//! new dependencies — because the endpoint only ever answers one shape
//! of request: `GET /metrics`. The CLI wires this to `--metrics-addr
//! HOST:PORT` and the `XMODEL_METRICS_ADDR` environment variable so
//! long-running sweeps can be scraped (or just `curl`ed) mid-run.
//!
//! The exporter thread is spawned **only** by [`serve`]; when no address
//! is configured nothing here runs and the instrumentation fast path is
//! untouched.

use crate::http::{self, HttpLimits, Response};
use crate::metrics;
use std::net::{SocketAddr, TcpListener, TcpStream};

/// Handle to a running exporter. Dropping it does **not** stop the
/// server — the thread is detached and serves until process exit, which
/// is the lifetime a run-scoped scrape target wants.
#[derive(Debug, Clone, Copy)]
pub struct MetricsServer {
    addr: SocketAddr,
}

impl MetricsServer {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Bind `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free port) and
/// serve `/metrics` from a detached background thread.
pub fn serve(addr: &str) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::Builder::new()
        .name("xmodel-metrics".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                // One connection at a time: scrape bodies are tiny and
                // serialized access keeps the thread budget at one.
                let _ = handle_connection(stream);
            }
        })?;
    Ok(MetricsServer { addr: bound })
}

/// Prometheus exposition-format content type.
const PROMETHEUS_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";

fn handle_connection(mut stream: TcpStream) -> std::io::Result<()> {
    // The bounded reader replaces the old unbounded `read_line` loop: a
    // client streaming an endless header (or just stalling) now gets a
    // typed error response within `HttpLimits::io_timeout` instead of
    // pinning the exporter thread.
    let limits = HttpLimits::default();
    let response = match http::read_request(&mut stream, &limits) {
        Ok(req) if req.path == "/metrics" || req.path == "/" => {
            Response::ok(PROMETHEUS_TEXT, render_prometheus())
        }
        Ok(_) => Response::with_status(404, PROMETHEUS_TEXT, "not found\n".to_string()),
        Err(e) => {
            let (status, _) = e.status();
            Response::with_status(status, PROMETHEUS_TEXT, format!("{e}\n"))
        }
    };
    http::write_response(&mut stream, &response)
}

/// Replace every character Prometheus metric names reject with `_`
/// (names here are dotted, e.g. `solver.brackets`).
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Escape a Prometheus label value.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escape `# HELP` text (the format escapes backslash and line feed
/// only; quotes are legal in help text).
fn escape_help(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// `# HELP` + `# TYPE` header for one metric family. `help` falls back
/// to the `obs::names` registry when the caller has nothing better.
fn family_header(out: &mut String, metric: &str, kind: &str, help: Option<&str>) {
    if let Some(help) = help {
        out.push_str(&format!("# HELP {metric} {}\n", escape_help(help)));
    }
    out.push_str(&format!("# TYPE {metric} {kind}\n"));
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// Render the current metrics snapshot and span aggregates as
/// Prometheus text format. Span-duration histograms (named
/// `span_us.<name>`) collapse into one `xmodel_span_duration_us` family
/// with a `span` label; everything else exports under its sanitized
/// name prefixed `xmodel_`.
pub fn render_prometheus() -> String {
    let snap = metrics::snapshot();
    let mut out = String::new();

    for (name, value) in &snap.counters {
        let metric = format!("xmodel_{}", sanitize(name));
        family_header(
            &mut out,
            &metric,
            "counter",
            crate::names::metric_help(name),
        );
        out.push_str(&format!("{metric} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let metric = format!("xmodel_{}", sanitize(name));
        family_header(&mut out, &metric, "gauge", crate::names::metric_help(name));
        out.push_str(&format!("{metric} {}\n", fmt_value(*value)));
    }
    // Histogram families may span several registry entries (every
    // `span_us.<name>` collapses into `xmodel_span_duration_us`); the
    // format allows each `# TYPE`/`# HELP` line at most once per family.
    let mut seen_families: Vec<String> = Vec::new();
    for (name, hist) in &snap.histograms {
        let (metric, label, help) = match name.strip_prefix("span_us.") {
            Some(span) => (
                "xmodel_span_duration_us".to_string(),
                format!("span=\"{}\",", escape_label(span)),
                Some("span duration in microseconds"),
            ),
            None => (
                format!("xmodel_{}", sanitize(name)),
                String::new(),
                crate::names::metric_help(name),
            ),
        };
        if !seen_families.contains(&metric) {
            family_header(&mut out, &metric, "histogram", help);
            seen_families.push(metric.clone());
        }
        let mut cumulative = 0u64;
        let mut inf_emitted = false;
        for (i, count) in hist.counts.iter().enumerate() {
            cumulative += count;
            let le = match hist.edges.get(i) {
                Some(edge) => fmt_value(*edge),
                None => {
                    inf_emitted = true;
                    "+Inf".to_string()
                }
            };
            out.push_str(&format!(
                "{metric}_bucket{{{label}le=\"{le}\"}} {cumulative}\n"
            ));
        }
        // The registry always allocates the overflow bucket, but the
        // format *requires* an `le="+Inf"` series — keep the guarantee
        // local so a registry change cannot silently break scrapers.
        if !inf_emitted {
            out.push_str(&format!(
                "{metric}_bucket{{{label}le=\"+Inf\"}} {cumulative}\n"
            ));
        }
        let bare = label.trim_end_matches(',');
        let series = |suffix: &str| {
            if bare.is_empty() {
                format!("{metric}{suffix}")
            } else {
                format!("{metric}{suffix}{{{bare}}}")
            }
        };
        out.push_str(&format!("{} {}\n", series("_sum"), fmt_value(hist.sum)));
        out.push_str(&format!("{} {cumulative}\n", series("_count")));
    }

    // Span aggregates as counters, so scrapers see phase totals even
    // between manifest writes.
    let aggs = crate::span::aggregates();
    if !aggs.is_empty() {
        family_header(
            &mut out,
            "xmodel_span_calls_total",
            "counter",
            Some("completed spans by name"),
        );
        for (name, agg) in &aggs {
            out.push_str(&format!(
                "xmodel_span_calls_total{{span=\"{}\"}} {}\n",
                escape_label(name),
                agg.count
            ));
        }
        family_header(
            &mut out,
            "xmodel_span_seconds_total",
            "counter",
            Some("total wall time in spans by name"),
        );
        for (name, agg) in &aggs {
            out.push_str(&format!(
                "xmodel_span_seconds_total{{span=\"{}\"}} {}\n",
                escape_label(name),
                fmt_value(agg.total_ns as f64 / 1e9)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_rewrites_bad_characters() {
        assert_eq!(sanitize("solver.brackets"), "solver_brackets");
        assert_eq!(sanitize("0abc-d"), "_abc_d");
        assert_eq!(sanitize("a0:b_c"), "a0:b_c");
    }

    #[test]
    fn prometheus_rendering_is_wellformed_when_empty() {
        // No install() here: whatever global state exists, rendering
        // must produce parseable output (possibly empty).
        let text = render_prometheus();
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.contains(' '),
                "bad exposition line: {line}"
            );
        }
    }

    /// Text-format 0.0.4 audit over a populated registry: every family
    /// gets exactly one `# TYPE` (and at most one `# HELP`) line, HELP
    /// text is escaped, registered dotted names sanitize cleanly, and
    /// every histogram emits an `le="+Inf"` bucket whose cumulative
    /// count equals `_count`.
    #[test]
    fn prometheus_format_audit() {
        let _guard = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::install(Box::new(crate::NullSink));
        metrics::counter_add(crate::names::metric::FASTPATH_CACHE_HITS, 3);
        metrics::counter_add(crate::names::metric::SWEEP_CHUNK_CLAIMS, 9);
        metrics::gauge_set(crate::names::metric::SWEEP_UTILIZATION, 0.875);
        metrics::histogram_observe(
            crate::names::metric::SWEEP_WORKER_CELLS,
            metrics::count_edges(),
            17.0,
        );
        // Two span histograms: they must share one family header.
        for span in ["solver.solve_fast", "sweep.run"] {
            metrics::histogram_observe(
                &metrics::span_histogram_name(span),
                metrics::latency_edges_us(),
                42.0,
            );
        }
        let text = render_prometheus();
        crate::finish(None);

        let mut type_lines: Vec<&str> = Vec::new();
        let mut help_lines: Vec<&str> = Vec::new();
        for line in text.lines() {
            assert!(!line.is_empty(), "blank exposition line");
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                type_lines.push(rest);
                let kind = rest.split_whitespace().nth(1).unwrap_or("");
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind),
                    "bad TYPE kind: {line}"
                );
            } else if let Some(rest) = line.strip_prefix("# HELP ") {
                help_lines.push(rest);
                assert!(!rest.contains('\n'), "unescaped newline in HELP");
            } else {
                // Sample line: name{labels} value — metric char set only.
                let name = line
                    .split(['{', ' '])
                    .next()
                    .expect("sample line has a name");
                assert!(
                    name.chars()
                        .enumerate()
                        .all(|(i, c)| c.is_ascii_alphabetic()
                            || c == '_'
                            || c == ':'
                            || (i > 0 && c.is_ascii_digit())),
                    "unsanitized metric name: {name}"
                );
            }
        }
        for lines in [&type_lines, &help_lines] {
            let mut families: Vec<&str> = lines
                .iter()
                .filter_map(|l| l.split_whitespace().next())
                .collect();
            families.sort_unstable();
            let n = families.len();
            families.dedup();
            assert_eq!(families.len(), n, "duplicate TYPE/HELP for a family");
        }
        // Registered metrics carry their registry help text.
        assert!(text.contains("# HELP xmodel_fastpath_cache_hits"));
        assert!(text.contains("# HELP xmodel_sweep_utilization"));
        // The two span histograms collapsed into one labelled family.
        assert_eq!(
            type_lines
                .iter()
                .filter(|l| l.starts_with("xmodel_span_duration_us "))
                .count(),
            1
        );
        assert!(text.contains("span=\"solver.solve_fast\""));
        assert!(text.contains("span=\"sweep.run\""));
        // +Inf buckets: one per histogram series, cumulative == _count.
        let inf_buckets = text
            .lines()
            .filter(|l| l.contains("le=\"+Inf\""))
            .collect::<Vec<_>>();
        assert_eq!(inf_buckets.len(), 3, "one +Inf bucket per series");
        for bucket in inf_buckets {
            let total = bucket.split_whitespace().last().unwrap_or("");
            assert_eq!(total, "1", "cumulative +Inf count: {bucket}");
        }
    }
}
