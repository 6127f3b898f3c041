//! Lightweight event tracing.
//!
//! Traces are kept in a bounded ring buffer so long benchmark runs cannot
//! exhaust memory. Components note free-form events here through
//! `Sim::trace` (bus resets, lease expiries, failed polls); only a HAVi
//! unit test reads the ring back. The Figure 4 breakdown (E3) comes from
//! per-network wire statistics, and the examples' trace trees from the
//! gateways' span tracer in `metaware::trace`, not from this ring.

use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Subsystem that emitted it (e.g. `"jini"`, `"vsg"`, `"x10"`).
    pub component: String,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.at, self.component, self.detail)
    }
}

/// A bounded in-memory trace sink.
#[derive(Debug)]
pub struct Tracer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    enabled: bool,
    dropped: u64,
}

impl Tracer {
    /// Creates a tracer holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            events: VecDeque::new(),
            capacity,
            enabled: true,
            dropped: 0,
        }
    }

    /// Enables or disables recording (benches disable it to avoid skew).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// True if recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event, evicting the oldest if at capacity.
    pub fn record(&mut self, at: SimTime, component: &str, detail: impl Into<String>) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            at,
            component: component.to_owned(),
            detail: detail.into(),
        });
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Events emitted by one component, oldest first.
    pub fn by_component<'a>(&'a self, component: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.component == component)
    }

    /// Number of events evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears all retained events (keeps the enabled flag).
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_capacity(4_096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_replays_in_order() {
        let mut t = Tracer::with_capacity(10);
        t.record(SimTime::from_micros(1), "a", "first");
        t.record(SimTime::from_micros(2), "b", "second");
        let got: Vec<_> = t.events().map(|e| e.detail.clone()).collect();
        assert_eq!(got, ["first", "second"]);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut t = Tracer::with_capacity(2);
        for i in 0..5u64 {
            t.record(SimTime::from_micros(i), "c", format!("e{i}"));
        }
        let got: Vec<_> = t.events().map(|e| e.detail.clone()).collect();
        assert_eq!(got, ["e3", "e4"]);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::default();
        t.set_enabled(false);
        t.record(SimTime::ZERO, "x", "ignored");
        assert_eq!(t.events().count(), 0);
        assert!(!t.is_enabled());
    }

    #[test]
    fn component_filter() {
        let mut t = Tracer::default();
        t.record(SimTime::ZERO, "vsg", "one");
        t.record(SimTime::ZERO, "jini", "two");
        t.record(SimTime::ZERO, "vsg", "three");
        let got: Vec<_> = t.by_component("vsg").map(|e| e.detail.clone()).collect();
        assert_eq!(got, ["one", "three"]);
    }

    #[test]
    fn display_includes_component() {
        let e = TraceEvent {
            at: SimTime::from_micros(1_000),
            component: "x10".into(),
            detail: "frame sent".into(),
        };
        assert_eq!(e.to_string(), "t+1.000ms [x10] frame sent");
    }
}
