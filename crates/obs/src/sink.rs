//! Trace sinks: where serialized events go.

use crate::event::Event;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Destination for trace events. Implementations receive fully formed
/// events and decide how to persist them; `emit` must be cheap enough to
/// call from simulator inner loops (the JSONL sink buffers writes).
pub trait Sink: Send {
    /// Record one event.
    fn emit(&self, event: &Event);

    /// Record an already-serialized JSON line (used for the manifest).
    fn emit_raw(&self, line: &str);

    /// Flush buffered output to its destination.
    fn flush(&self);
}

/// Discards everything. Installed implicitly when tracing is disabled;
/// never actually reached because emission is gated on the global enable
/// flag, so disabled tracing costs one relaxed atomic load per call site.
pub struct NullSink;

impl Sink for NullSink {
    fn emit(&self, _event: &Event) {}
    fn emit_raw(&self, _line: &str) {}
    fn flush(&self) {}
}

/// Buffered JSON-lines writer over any `io::Write`.
pub struct JsonlSink {
    writer: Mutex<std::io::BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlSink {
    /// Create over an arbitrary writer.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            writer: Mutex::new(std::io::BufWriter::new(writer)),
        }
    }

    /// Create writing to `path` (truncates an existing file).
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(file)))
    }
}

impl Sink for JsonlSink {
    fn emit(&self, event: &Event) {
        self.emit_raw(&event.to_json());
    }

    fn emit_raw(&self, line: &str) {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        // I/O errors must not abort a simulation mid-run; drop the line.
        let _ = w.write_all(line.as_bytes());
        let _ = w.write_all(b"\n");
    }

    fn flush(&self) {
        let _ = self
            .writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .flush();
    }
}

/// Counters kept by a [`FaultySink`]; cheap atomic handle, clone freely.
#[derive(Clone, Default)]
pub struct SinkFaultCounters {
    inner: Arc<SinkFaultCountersInner>,
}

#[derive(Default)]
struct SinkFaultCountersInner {
    torn: std::sync::atomic::AtomicU64,
    dropped: std::sync::atomic::AtomicU64,
    delivered: std::sync::atomic::AtomicU64,
}

impl SinkFaultCounters {
    /// Lines truncated mid-record (torn writes).
    pub fn torn(&self) -> u64 {
        self.inner.torn.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Lines swallowed entirely (simulated write errors).
    pub fn dropped(&self) -> u64 {
        self.inner
            .dropped
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Lines forwarded intact.
    pub fn delivered(&self) -> u64 {
        self.inner
            .delivered
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    fn bump(&self, field: &std::sync::atomic::AtomicU64) {
        field.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Fault-injecting sink decorator: simulates the two ways persistent
/// trace output fails in practice — **torn writes** (a record truncated
/// mid-line by a crash or full disk) and **write errors** (a record lost
/// entirely). Used by the chaos suite to prove every reader
/// ([`crate::report::TraceReport`], manifest assembly) tolerates a
/// corrupted stream instead of panicking.
///
/// Fault selection is deterministic: a SplitMix64 stream seeded from the
/// fault spec, advanced once per line. The generator lives here (inline,
/// ~5 lines) because `xmodel-obs` deliberately has no dependency on the
/// simulator's rand shim.
pub struct FaultySink {
    inner: Box<dyn Sink>,
    tear_prob: f64,
    error_prob: f64,
    state: Mutex<u64>,
    counters: SinkFaultCounters,
}

/// One SplitMix64 step: returns the next raw u64 and advances the state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultySink {
    /// Decorate `inner`, tearing each line with probability `tear_prob`
    /// and dropping it with probability `error_prob` (checked in that
    /// order), both deterministic in `seed`.
    pub fn new(inner: Box<dyn Sink>, tear_prob: f64, error_prob: f64, seed: u64) -> Self {
        FaultySink {
            inner,
            tear_prob: tear_prob.clamp(0.0, 1.0),
            error_prob: error_prob.clamp(0.0, 1.0),
            state: Mutex::new(seed),
            counters: SinkFaultCounters::default(),
        }
    }

    /// Handle to the torn/dropped/delivered counters; survives after the
    /// sink itself is moved into [`crate::install`].
    pub fn counters(&self) -> SinkFaultCounters {
        self.counters.clone()
    }

    /// Uniform sample in [0, 1) from the SplitMix64 stream.
    fn sample(&self) -> f64 {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Sink for FaultySink {
    fn emit(&self, event: &Event) {
        self.emit_raw(&event.to_json());
    }

    fn emit_raw(&self, line: &str) {
        let roll = self.sample();
        if roll < self.tear_prob {
            // Torn write: the first half of the record reaches the
            // stream, the rest (and any structure closing it) does not.
            let mut cut = line.len() / 2;
            while cut > 0 && !line.is_char_boundary(cut) {
                cut -= 1;
            }
            let torn = &line[..cut];
            self.counters.bump(&self.counters.inner.torn);
            self.inner.emit_raw(torn);
        } else if roll < self.tear_prob + self.error_prob {
            self.counters.bump(&self.counters.inner.dropped);
        } else {
            self.counters.bump(&self.counters.inner.delivered);
            self.inner.emit_raw(line);
        }
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

/// In-memory sink for tests: collects serialized lines.
#[derive(Clone, Default)]
pub struct MemSink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all lines emitted so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl Sink for MemSink {
    fn emit(&self, event: &Event) {
        self.lines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.to_json());
    }

    fn emit_raw(&self, line: &str) {
        self.lines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(line.to_string());
    }

    fn flush(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(tear: f64, error: f64, seed: u64, n: usize) -> (Vec<String>, SinkFaultCounters) {
        let mem = MemSink::new();
        let faulty = FaultySink::new(Box::new(mem.clone()), tear, error, seed);
        let counters = faulty.counters();
        for i in 0..n {
            faulty.emit_raw(&format!("{{\"kind\":\"test.line\",\"i\":{i}}}"));
        }
        (mem.lines(), counters)
    }

    #[test]
    fn fault_free_sink_is_transparent() {
        let (lines, c) = run(0.0, 0.0, 1, 100);
        assert_eq!(lines.len(), 100);
        assert_eq!((c.torn(), c.dropped(), c.delivered()), (0, 0, 100));
    }

    #[test]
    fn counters_partition_the_stream() {
        let (lines, c) = run(0.2, 0.2, 42, 500);
        assert_eq!(c.torn() + c.dropped() + c.delivered(), 500);
        assert!(c.torn() > 0 && c.dropped() > 0 && c.delivered() > 0);
        // Dropped lines never reach the inner sink; torn + delivered do.
        assert_eq!(lines.len() as u64, c.torn() + c.delivered());
    }

    #[test]
    fn faults_are_deterministic_in_the_seed() {
        let (a, ca) = run(0.3, 0.1, 7, 200);
        let (b, cb) = run(0.3, 0.1, 7, 200);
        assert_eq!(a, b);
        assert_eq!(
            (ca.torn(), ca.dropped(), ca.delivered()),
            (cb.torn(), cb.dropped(), cb.delivered())
        );
        let (c, _) = run(0.3, 0.1, 8, 200);
        assert_ne!(a, c, "different seed must fault differently");
    }

    #[test]
    fn torn_lines_are_proper_prefixes() {
        let (lines, c) = run(1.0, 0.0, 3, 10);
        assert_eq!(c.torn(), 10);
        for (i, line) in lines.iter().enumerate() {
            let full = format!("{{\"kind\":\"test.line\",\"i\":{i}}}");
            assert!(full.starts_with(line.as_str()));
            assert!(line.len() < full.len());
        }
    }

    #[test]
    fn torn_cut_lands_on_char_boundary() {
        let mem = MemSink::new();
        let faulty = FaultySink::new(Box::new(mem.clone()), 1.0, 0.0, 9);
        faulty.emit_raw("ééééééé"); // 2-byte chars: len/2 may split one
        let lines = mem.lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].chars().all(|ch| ch == 'é'));
    }
}
