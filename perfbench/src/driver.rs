//! The closed-loop driver client every workload deploys.
//!
//! It behaves like the paper's packet driver (`StreamingClient`): it
//! keeps a fixed number of two-way invocations in flight and issues the
//! next one only when a reply arrives. Two things are added for the
//! benchmark. The argument bytes of each invocation come from the
//! workload seed, so the seed shapes the message sizes on the wire.
//! And every reply is checked: the servants answer with their new
//! operation count, so under exactly-once, totally ordered execution
//! the r-th reply a driver replica sees must carry the value r.

use eternal::app::{AppInvocation, ClientApp};
use eternal::gid::GroupId;
use eternal_cdr::{Any, Value};
use eternal_giop::ReplyStatus;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Largest argument payload, in bytes, a driver invocation carries.
pub const MAX_ARG_BYTES: u64 = 48;

/// Progress shared between the driver's replicas and the benchmark
/// loop that steps the cluster. Sibling replicas run in lockstep, so
/// the logical progress is the furthest any replica got.
#[derive(Debug, Default)]
pub struct Progress {
    sent: AtomicU64,
    replies: AtomicU64,
    mismatches: AtomicU64,
}

impl Progress {
    /// Invocations issued so far (furthest replica).
    pub fn sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// Replies received so far (furthest replica).
    pub fn replies(&self) -> u64 {
        self.replies.load(Ordering::Relaxed)
    }

    /// Replies, over all replicas, whose value was not the expected
    /// operation count (a lost, duplicated or reordered operation).
    pub fn mismatches(&self) -> u64 {
        self.mismatches.load(Ordering::Relaxed)
    }
}

/// One replica of the driver.
#[derive(Debug)]
pub struct Driver {
    server: GroupId,
    operation: &'static str,
    in_flight: u64,
    limit: u64,
    seed: u64,
    sent: u64,
    received: u64,
    progress: Arc<Progress>,
}

impl Driver {
    /// A driver of `operation` at `server` with `in_flight` calls
    /// outstanding, stopping after `limit` invocations.
    pub fn new(
        server: GroupId,
        operation: &'static str,
        in_flight: u64,
        limit: u64,
        seed: u64,
        progress: Arc<Progress>,
    ) -> Self {
        Driver {
            server,
            operation,
            in_flight,
            limit,
            seed,
            sent: 0,
            received: 0,
            progress,
        }
    }

    fn invocation(&mut self) -> AppInvocation {
        let args = arg_bytes(self.seed, self.sent);
        self.sent += 1;
        self.progress.sent.fetch_max(self.sent, Ordering::Relaxed);
        AppInvocation {
            args,
            ..AppInvocation::two_way(self.server, self.operation)
        }
    }
}

/// The argument bytes of invocation `index`: a length in
/// `0..=MAX_ARG_BYTES` and content, both a pure function of the seed
/// and the index, so every replica of the driver (and a replica
/// restored from `sent`) issues the same bytes.
pub fn arg_bytes(seed: u64, index: u64) -> Vec<u8> {
    let mut x = splitmix(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let len = x % (MAX_ARG_BYTES + 1);
    (0..len)
        .map(|_| {
            x = splitmix(x);
            x as u8
        })
        .collect()
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ClientApp for Driver {
    fn on_start(&mut self) -> Vec<AppInvocation> {
        let n = self.in_flight.min(self.limit);
        (0..n).map(|_| self.invocation()).collect()
    }

    fn on_reply(
        &mut self,
        _server: GroupId,
        _operation: &str,
        status: ReplyStatus,
        body: &[u8],
    ) -> Vec<AppInvocation> {
        self.received += 1;
        self.progress
            .replies
            .fetch_max(self.received, Ordering::Relaxed);
        let value = <[u8; 4]>::try_from(body).ok().map(u32::from_be_bytes);
        if status != ReplyStatus::NoException || value != Some(self.received as u32) {
            self.progress.mismatches.fetch_add(1, Ordering::Relaxed);
        }
        if self.sent < self.limit {
            vec![self.invocation()]
        } else {
            Vec::new()
        }
    }

    // The oracle reads driver state in the `BurstClient` shape:
    // `Struct[ULongLong(sent), ULongLong(received)]`.
    fn get_state(&self) -> Any {
        Any::from(Value::Struct(vec![
            Value::ULongLong(self.sent),
            Value::ULongLong(self.received),
        ]))
    }

    fn set_state(&mut self, state: &Any) {
        if let Value::Struct(m) = &state.value {
            if let [Value::ULongLong(sent), Value::ULongLong(received)] = m.as_slice() {
                self.sent = *sent;
                self.received = *received;
            }
        }
    }
}
