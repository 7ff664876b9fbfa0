//! A bounded, structured event trace with a span API.
//!
//! Simulations append [`TraceEvent`]s as they run; tests assert over
//! the recorded sequence (e.g. "the `set_state` delivery at the
//! recovering replica precedes every normal invocation delivered to
//! it"), and the benchmark harness mines it for timings.
//!
//! The buffer is a **ring**: beyond [`Trace::capacity`] events the
//! oldest are dropped (counted by [`Trace::dropped_events`]), so long
//! benchmark runs cannot grow memory without bound. A disabled trace
//! ([`Trace::disabled`]) records nothing and allocates nothing:
//! [`Trace::record`] takes its labels as `impl Display` and formats
//! them only when enabled, so pass `format_args!(..)`, not `format!`.

use crate::event::{EventKind, SpanEdge, SpanId, SpanRef, TraceEvent};
use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Display;

/// Default ring-buffer capacity (events).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// A completed span: a named interval of virtual time, optionally
/// nested under a parent span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The span id.
    pub id: SpanId,
    /// What the span measures.
    pub kind: EventKind,
    /// The component that opened it.
    pub source: String,
    /// Detail recorded at `span_begin`.
    pub detail: String,
    /// Opening time.
    pub begin: SimTime,
    /// Closing time.
    pub end: SimTime,
    /// The enclosing span, if nested.
    pub parent: Option<SpanId>,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> crate::time::Duration {
        self.end.saturating_since(self.begin)
    }
}

#[derive(Debug, Clone)]
struct OpenSpan {
    kind: EventKind,
    source: String,
    detail: String,
    begin: SimTime,
    parent: Option<SpanId>,
}

/// An append-mostly trace ring buffer.
#[derive(Debug, Default)]
pub struct Trace {
    events: VecDeque<TraceEvent>,
    enabled: bool,
    capacity: usize,
    dropped: u64,
    next_span: u64,
    open: BTreeMap<SpanId, OpenSpan>,
}

impl Trace {
    /// Creates an enabled trace with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates an enabled trace bounded to `capacity` events
    /// (drop-oldest beyond it).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be nonzero");
        Trace {
            events: VecDeque::new(),
            enabled: true,
            capacity,
            dropped: 0,
            next_span: 1,
            open: BTreeMap::new(),
        }
    }

    /// Creates a disabled trace that discards all events (for benches).
    /// Nothing is allocated on any record path.
    pub fn disabled() -> Self {
        Trace {
            events: VecDeque::new(),
            enabled: false,
            capacity: DEFAULT_CAPACITY,
            dropped: 0,
            next_span: 1,
            open: BTreeMap::new(),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The ring-buffer capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted (oldest-first) since creation or the last
    /// [`Trace::clear`].
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Appends a point event (no-op when disabled). `source` and
    /// `detail` are formatted only when the trace is enabled, so callers
    /// pass `format_args!(..)` rather than a pre-built `String`.
    pub fn record(
        &mut self,
        at: SimTime,
        source: impl Display,
        kind: EventKind,
        detail: impl Display,
    ) {
        if self.enabled {
            self.push(TraceEvent {
                at,
                source: source.to_string(),
                kind,
                detail: detail.to_string(),
                span: None,
            });
        }
    }

    /// Opens a span: records its `Begin` edge and returns the id to
    /// close it with. On a disabled trace nothing is recorded and
    /// [`SpanId::NONE`] is returned.
    pub fn span_begin(
        &mut self,
        at: SimTime,
        source: impl Into<String>,
        kind: EventKind,
        detail: impl Into<String>,
        parent: Option<SpanId>,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let id = SpanId(self.next_span);
        self.next_span += 1;
        let source = source.into();
        let detail = detail.into();
        self.open.insert(
            id,
            OpenSpan {
                kind,
                source: source.clone(),
                detail: detail.clone(),
                begin: at,
                parent,
            },
        );
        self.push(TraceEvent {
            at,
            source,
            kind,
            detail,
            span: Some(SpanRef {
                id,
                edge: SpanEdge::Begin,
                parent,
            }),
        });
        id
    }

    /// Closes a span opened by [`Trace::span_begin`]: records its `End`
    /// edge and returns the completed [`Span`]. A no-op (returning
    /// `None`) when the trace is disabled, the id is [`SpanId::NONE`],
    /// or the span is unknown/already closed.
    pub fn span_end(&mut self, at: SimTime, id: SpanId) -> Option<Span> {
        if !self.enabled {
            return None;
        }
        let open = self.open.remove(&id)?;
        self.push(TraceEvent {
            at,
            source: open.source.clone(),
            kind: open.kind,
            detail: open.detail.clone(),
            span: Some(SpanRef {
                id,
                edge: SpanEdge::End,
                parent: open.parent,
            }),
        });
        Some(Span {
            id,
            kind: open.kind,
            source: open.source,
            detail: open.detail,
            begin: open.begin,
            end: at,
            parent: open.parent,
        })
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All held events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// The event at buffer index `i` (0 = oldest held).
    pub fn event(&self, i: usize) -> Option<&TraceEvent> {
        self.events.get(i)
    }

    /// Completed spans, reconstructed from the held events in closing
    /// order. Spans whose `Begin` edge was evicted from the ring are
    /// omitted.
    pub fn spans(&self) -> Vec<Span> {
        let mut begins: BTreeMap<SpanId, &TraceEvent> = BTreeMap::new();
        let mut spans = Vec::new();
        for e in &self.events {
            match e.span {
                Some(SpanRef {
                    id,
                    edge: SpanEdge::Begin,
                    ..
                }) => {
                    begins.insert(id, e);
                }
                Some(SpanRef {
                    id,
                    edge: SpanEdge::End,
                    parent,
                }) => {
                    if let Some(b) = begins.remove(&id) {
                        spans.push(Span {
                            id,
                            kind: b.kind,
                            source: b.source.clone(),
                            detail: b.detail.clone(),
                            begin: b.at,
                            end: e.at,
                            parent,
                        });
                    }
                }
                None => {}
            }
        }
        spans
    }

    /// Completed spans of the given kind.
    pub fn spans_of(&self, kind: EventKind) -> Vec<Span> {
        self.spans()
            .into_iter()
            .filter(|s| s.kind == kind)
            .collect()
    }

    /// Events whose typed kind equals `kind`.
    pub fn of(&self, kind: EventKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Events whose kind **code** matches `kind` exactly (string-based
    /// compatibility query; see [`EventKind::code`]).
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.kind.code() == kind)
    }

    /// The first event with the given kind code, if any.
    pub fn first_of_kind(&self, kind: &str) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.kind.code() == kind)
    }

    /// The last event with the given kind code, if any.
    pub fn last_of_kind(&self, kind: &str) -> Option<&TraceEvent> {
        self.events.iter().rev().find(|e| e.kind.code() == kind)
    }

    /// Buffer index of the first event matching the kind code (for
    /// ordering assertions), if any.
    pub fn position_of(&self, kind: &str) -> Option<usize> {
        self.events.iter().position(|e| e.kind.code() == kind)
    }

    /// Clears the buffer, the dropped counter, and any open spans.
    pub fn clear(&mut self) {
        self.events.clear();
        self.open.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RecoveryPhase;
    use crate::time::Duration;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn records_in_order() {
        let mut tr = Trace::new();
        tr.record(t(1), "a", EventKind::ConfigChange, "");
        tr.record(t(2), "b", EventKind::ReplicaKilled, "x");
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.event(1).unwrap().detail, "x");
    }

    #[test]
    fn disabled_trace_discards_and_allocates_nothing() {
        let mut tr = Trace::disabled();
        tr.record(SimTime::ZERO, "a", EventKind::ConfigChange, "");
        let id = tr.span_begin(SimTime::ZERO, "a", EventKind::RecoveryEpisode, "", None);
        assert_eq!(id, SpanId::NONE);
        assert!(tr.span_end(t(5), id).is_none());
        assert!(tr.is_empty());
        assert_eq!(tr.dropped_events(), 0);
        assert!(tr.spans().is_empty());
        assert!(!tr.is_enabled());
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut tr = Trace::with_capacity(3);
        for i in 0..5u64 {
            tr.record(t(i), "a", EventKind::ConfigChange, format!("{i}"));
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dropped_events(), 2);
        let details: Vec<&str> = tr.events().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, vec!["2", "3", "4"]);
    }

    #[test]
    fn spans_nest_and_measure() {
        let mut tr = Trace::new();
        let ep = tr.span_begin(t(10), "P1/recovery", EventKind::RecoveryEpisode, "G0", None);
        let q = tr.span_begin(
            t(10),
            "P1/recovery",
            EventKind::Phase(RecoveryPhase::Quiesce),
            "",
            Some(ep),
        );
        let q_span = tr.span_end(t(40), q).expect("open");
        assert_eq!(q_span.duration(), Duration::from_nanos(30));
        assert_eq!(q_span.parent, Some(ep));
        let ep_span = tr.span_end(t(100), ep).expect("open");
        assert_eq!(ep_span.duration(), Duration::from_nanos(90));
        // Reconstructed from the buffer too.
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let nested = spans.iter().find(|s| s.parent == Some(ep)).unwrap();
        assert_eq!(nested.kind, EventKind::Phase(RecoveryPhase::Quiesce));
        assert!(nested.begin >= ep_span.begin && nested.end <= ep_span.end);
        // Four span-edge events in the buffer.
        assert_eq!(tr.events().filter(|e| e.span.is_some()).count(), 4);
    }

    #[test]
    fn double_end_is_ignored() {
        let mut tr = Trace::new();
        let id = tr.span_begin(t(1), "a", EventKind::RecoveryEpisode, "", None);
        assert!(tr.span_end(t(2), id).is_some());
        assert!(tr.span_end(t(3), id).is_none());
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn kind_queries_typed_and_string() {
        let mut tr = Trace::new();
        tr.record(t(1), "a", EventKind::ReplicaKilled, "1");
        tr.record(t(2), "a", EventKind::RecoveryComplete, "2");
        tr.record(t(3), "a", EventKind::ReplicaKilled, "3");
        assert_eq!(tr.of(EventKind::ReplicaKilled).count(), 2);
        assert_eq!(tr.of_kind("replica.killed").count(), 2);
        assert_eq!(tr.first_of_kind("replica.killed").unwrap().detail, "1");
        assert_eq!(tr.last_of_kind("replica.killed").unwrap().detail, "3");
        assert_eq!(tr.position_of("recovery.complete"), Some(1));
        assert_eq!(tr.position_of("upgrade.begin"), None);
    }

    #[test]
    fn clear_empties_and_resets_dropped() {
        let mut tr = Trace::with_capacity(1);
        tr.record(t(1), "a", EventKind::ConfigChange, "");
        tr.record(t(2), "a", EventKind::ConfigChange, "");
        assert_eq!(tr.dropped_events(), 1);
        tr.clear();
        assert!(tr.is_empty());
        assert_eq!(tr.dropped_events(), 0);
    }
}
