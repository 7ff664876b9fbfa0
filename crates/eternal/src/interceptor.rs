//! The Eternal Interceptor (paper §2, footnote 1).
//!
//! "The Eternal Interceptor captures the IIOP messages (containing the
//! client's requests and the server's replies), which are intended for
//! TCP/IP, and diverts them instead to the Eternal Replication
//! Mechanisms for multicasting via Totem." Unlike CORBA portable
//! interceptors it sits *outside* the ORB, at the ORB's socket-level
//! interface.
//!
//! In this reproduction the ORB is sans-io, so the socket boundary is
//! explicit: every byte buffer the ORB would have written to TCP passes
//! through [`Interceptor::capture`], which wraps it as an
//! [`EternalMessage::Iiop`] carrying the Eternal-generated operation
//! identifier used for duplicate suppression (§4.3). The interceptor
//! also assigns those identifiers: a per-connection counter for
//! outgoing requests (deterministic across replicas of the same group),
//! and the request's identifier echoed for replies.

use crate::gid::{ConnectionName, Direction};
use crate::message::EternalMessage;
use eternal_giop::{GiopMessage, TraceContext, CONTEXT_ETERNAL_TRACE};
use eternal_sim::hash::FxHashMap;

/// Adds the Eternal causal-trace service context (id
/// [`CONTEXT_ETERNAL_TRACE`]) to an intercepted GIOP Request or Reply,
/// re-encoding the message around it. Returns the original bytes
/// untouched when the message is not a Request/Reply, already carries a
/// trace context (the duplicate-rejecting
/// `ServiceContextList::add` guards the invariant of exactly one trace
/// context per message), or does not parse — tracing must never turn a
/// deliverable message into an undeliverable one.
pub fn inject_trace_context(bytes: Vec<u8>, tc: TraceContext) -> Vec<u8> {
    let Ok(mut msg) = GiopMessage::from_bytes(&bytes) else {
        return bytes;
    };
    let scl = match &mut msg {
        GiopMessage::Request(r) => &mut r.service_context,
        GiopMessage::Reply(r) => &mut r.service_context,
        _ => return bytes,
    };
    if scl
        .add(CONTEXT_ETERNAL_TRACE, tc.to_context_data())
        .is_err()
    {
        return bytes;
    }
    match msg.to_bytes() {
        Ok(reencoded) => {
            eternal_cdr::pool::recycle(bytes);
            reencoded
        }
        Err(_) => bytes,
    }
}

/// Reads the Eternal causal-trace service context back out of
/// intercepted GIOP bytes (test and tooling support; the hot path
/// carries the tag in Totem frame metadata instead of re-parsing).
pub fn extract_trace_context(bytes: &[u8]) -> Option<TraceContext> {
    let msg = GiopMessage::from_bytes(bytes).ok()?;
    let scl = match &msg {
        GiopMessage::Request(r) => &r.service_context,
        GiopMessage::Reply(r) => &r.service_context,
        _ => return None,
    };
    let entry = scl.find(CONTEXT_ETERNAL_TRACE)?;
    TraceContext::from_context_data(&entry.data).ok()
}

/// Captures IIOP byte streams at the ORB's transport boundary.
#[derive(Debug, Default)]
pub struct Interceptor {
    /// Next Eternal op-id per outgoing-request connection.
    request_counters: FxHashMap<ConnectionName, u32>,
    captured_requests: u64,
    captured_replies: u64,
    captured_bytes: u64,
}

impl Interceptor {
    /// Creates an idle interceptor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Captures an outgoing IIOP **request** on `conn`, assigning the
    /// next Eternal operation identifier for the connection.
    pub fn capture_request(&mut self, conn: ConnectionName, bytes: Vec<u8>) -> EternalMessage {
        let counter = self.request_counters.entry(conn).or_insert(0);
        let op_seq = *counter;
        *counter += 1;
        self.captured_requests += 1;
        self.captured_bytes += bytes.len() as u64;
        EternalMessage::Iiop {
            conn,
            direction: Direction::Request,
            op_seq,
            bytes,
        }
    }

    /// Captures an outgoing IIOP **reply** on `conn`. The reply reuses
    /// the operation identifier of the request it answers, so duplicate
    /// replies from sibling server replicas collapse to one.
    pub fn capture_reply(
        &mut self,
        conn: ConnectionName,
        request_op_seq: u32,
        bytes: Vec<u8>,
    ) -> EternalMessage {
        self.captured_replies += 1;
        self.captured_bytes += bytes.len() as u64;
        EternalMessage::Iiop {
            conn,
            direction: Direction::Reply,
            op_seq: request_op_seq,
            bytes,
        }
    }

    /// The op-id the next captured request on `conn` would get.
    pub fn next_op_seq(&self, conn: ConnectionName) -> u32 {
        self.request_counters.get(&conn).copied().unwrap_or(0)
    }

    /// The per-connection request counters (infrastructure-level state,
    /// §4.3 — transferred so a recovered replica's invocations carry the
    /// same identifiers as its siblings').
    pub fn op_counters(&self) -> Vec<(ConnectionName, u32)> {
        let mut v: Vec<_> = self
            .request_counters
            .iter()
            .map(|(&c, &n)| (c, n))
            .collect();
        v.sort_by_key(|&(c, _)| c);
        v
    }

    /// Installs transferred counters (keeping the larger of local and
    /// transferred values).
    pub fn restore_op_counters(&mut self, counters: &[(ConnectionName, u32)]) {
        for &(conn, next) in counters {
            let c = self.request_counters.entry(conn).or_insert(0);
            *c = (*c).max(next);
        }
    }

    /// Total requests captured.
    pub fn captured_requests(&self) -> u64 {
        self.captured_requests
    }

    /// Total replies captured.
    pub fn captured_replies(&self) -> u64 {
        self.captured_replies
    }

    /// Total IIOP bytes diverted.
    pub fn captured_bytes(&self) -> u64 {
        self.captured_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gid::GroupId;

    fn conn() -> ConnectionName {
        ConnectionName {
            client: GroupId(1),
            server: GroupId(2),
        }
    }

    #[test]
    fn request_op_ids_increment_per_connection() {
        let mut i = Interceptor::new();
        let m0 = i.capture_request(conn(), vec![1]);
        let m1 = i.capture_request(conn(), vec![2]);
        let other = ConnectionName {
            client: GroupId(1),
            server: GroupId(9),
        };
        let m2 = i.capture_request(other, vec![3]);
        let seq = |m: &EternalMessage| match m {
            EternalMessage::Iiop { op_seq, .. } => *op_seq,
            _ => panic!("not iiop"),
        };
        assert_eq!((seq(&m0), seq(&m1), seq(&m2)), (0, 1, 0));
        assert_eq!(i.next_op_seq(conn()), 2);
    }

    #[test]
    fn replies_echo_the_request_op_id() {
        let mut i = Interceptor::new();
        let m = i.capture_reply(conn(), 41, vec![9]);
        match m {
            EternalMessage::Iiop {
                direction: Direction::Reply,
                op_seq: 41,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(i.captured_replies(), 1);
    }

    #[test]
    fn counters_transfer_and_restore() {
        let mut a = Interceptor::new();
        for _ in 0..5 {
            a.capture_request(conn(), vec![]);
        }
        let mut b = Interceptor::new();
        b.restore_op_counters(&a.op_counters());
        assert_eq!(b.next_op_seq(conn()), 5);
        // Restoring an older snapshot never regresses.
        b.capture_request(conn(), vec![]);
        b.restore_op_counters(&[(conn(), 3)]);
        assert_eq!(b.next_op_seq(conn()), 6);
    }

    #[test]
    fn byte_accounting() {
        let mut i = Interceptor::new();
        i.capture_request(conn(), vec![0; 10]);
        i.capture_reply(conn(), 0, vec![0; 20]);
        assert_eq!(i.captured_bytes(), 30);
        assert_eq!(i.captured_requests(), 1);
    }
}
