//! Crash flight recorder: a fixed-size ring of recent events, dumped as
//! a JSON post-mortem when a worker dies.
//!
//! Long campaigns fail rarely and late — a panic deep in a sweep cell, a
//! watchdog kill, an injection run classified DUE. By then the logs that
//! would explain it have scrolled away. A [`FlightRecorder`] keeps the
//! last [`DEFAULT_FLIGHT_CAPACITY`] notable events (span boundaries,
//! heartbeats, the exact config being simulated) in a bounded ring and
//! renders them on demand as a `rar-flight-v1` JSON document that the
//! daemon attaches to the failed job and writes next to the run manifest.
//!
//! Like every telemetry type here it is cheap, lock-per-note, and
//! allocation-bounded: a recorder that is never dumped costs a ring of
//! short strings and nothing else.

use rar_trace::jsonv::escape;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Schema tag of the post-mortem document.
pub const FLIGHT_SCHEMA: &str = "rar-flight-v1";

/// Default ring capacity: enough for a few hundred cell boundaries, small
/// enough to dump inline into a job status document.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One recorded event: monotonic nanoseconds since the recorder was
/// created, a short machine-readable kind, and free-form detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Nanoseconds since the recorder's epoch.
    pub nanos: u64,
    /// Event kind, e.g. `cell_start`, `heartbeat`, `cell_panic`.
    pub kind: String,
    /// Free-form detail (config fingerprint, panic message, ...).
    pub detail: String,
}

/// Bounded ring of recent [`FlightEvent`]s with a JSON post-mortem dump.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    capacity: usize,
    ring: Mutex<VecDeque<FlightEvent>>,
    dropped: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends an event, evicting the oldest when the ring is full.
    pub fn note(&self, kind: &str, detail: &str) {
        let nanos = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let event = FlightEvent {
            nanos,
            kind: kind.to_owned(),
            detail: detail.to_owned(),
        };
        let mut ring = self.ring.lock().expect("flight ring lock");
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight ring lock").len()
    }

    /// Whether nothing has been noted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted to stay within capacity.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the retained events, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.ring
            .lock()
            .expect("flight ring lock")
            .iter()
            .cloned()
            .collect()
    }

    /// Renders the post-mortem document:
    /// `{"schema":"rar-flight-v1","reason":...,"dropped":N,"events":[...]}`.
    #[must_use]
    pub fn dump_json(&self, reason: &str) -> String {
        let events = self.snapshot();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"{}\",\"reason\":\"{}\",\"dropped\":{},\"events\":[",
            FLIGHT_SCHEMA,
            escape(reason),
            self.dropped()
        );
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"nanos\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
                e.nanos,
                escape(&e.kind),
                escape(&e.detail)
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let rec = FlightRecorder::new(3);
        for i in 0..5 {
            rec.note("heartbeat", &format!("tick {i}"));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
        let events = rec.snapshot();
        assert_eq!(events[0].detail, "tick 2");
        assert_eq!(events[2].detail, "tick 4");
        assert!(events.windows(2).all(|w| w[0].nanos <= w[1].nanos));
    }

    #[test]
    fn dump_is_valid_flight_v1_json() {
        let rec = FlightRecorder::new(8);
        rec.note("cell_start", "mcf/rar");
        rec.note("cell_panic", "boom: \"quoted\"\nline two");
        let doc = rec.dump_json("panic");
        assert!(doc.starts_with("{\"schema\":\"rar-flight-v1\""));
        assert!(doc.contains("\"reason\":\"panic\""));
        assert!(doc.contains("\"kind\":\"cell_start\""));
        assert!(doc.contains("\\\"quoted\\\""));
        assert!(doc.contains("\\n"));
        assert!(!doc.contains('\n'));
        assert_eq!(
            doc.matches('{').count(),
            doc.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn empty_recorder_dumps_empty_events() {
        let rec = FlightRecorder::default();
        assert!(rec.is_empty());
        assert_eq!(rec.dump_json("watchdog"), format!("{{\"schema\":\"{FLIGHT_SCHEMA}\",\"reason\":\"watchdog\",\"dropped\":0,\"events\":[]}}"));
    }

    #[test]
    fn capacity_floor_is_one() {
        let rec = FlightRecorder::new(0);
        rec.note("a", "");
        rec.note("b", "");
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.snapshot()[0].kind, "b");
    }
}
