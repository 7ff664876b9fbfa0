//! Isolated replays: direct calls into one layer, sized from what a
//! workload's untraced repetition did, timed with the wall clock.
//!
//! Each replay drives only public APIs of its layer (the scheduler,
//! the Totem harness, the ORB connections, CDR `Any`, GIOP
//! fragmentation), so a change to one layer shows here without the
//! rest of the system around it.

use crate::workload::mix;
use eternal::oracle::ServantKind;
use eternal_cdr::Any;
use eternal_giop::{fragment_message, Reassembler};
use eternal_orb::servant::CheckpointableServant;
use eternal_orb::{ClientConnection, ObjectKey, Orb, ServerConnection};
use eternal_sim::net::{NetworkConfig, NodeId};
use eternal_sim::{Duration, Scheduler, SimTime};
use eternal_totem::harness::TotemHarness;
use eternal_totem::TotemConfig;
use std::hint::black_box;
use std::time::Instant;

/// Largest number of scheduler events the sim replay runs.
pub const MAX_SCHED_EVENTS: u64 = 2_000_000;
/// Largest number of broadcasts the Totem replay runs.
pub const MAX_TOTEM_BROADCASTS: u64 = 20_000;
/// Invocations in the ORB replay.
pub const ORB_CALLS: usize = 20_000;
/// Bytes of state the CDR and GIOP replays process per measurement.
const STATE_WORK_BYTES: usize = 16 << 20;

/// Wall-clock ns of `f`.
fn time_ns(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64
}

/// `Scheduler::schedule_at` + `pop` pairs: a queue kept 64 deep, each
/// pop followed by one new event at a seeded delay. Returns ns per
/// event.
pub fn sched(events: u64, seed: u64) -> f64 {
    let n = events.clamp(1, MAX_SCHED_EVENTS);
    let mut sched: Scheduler<u64> = Scheduler::new();
    for i in 0..64 {
        sched.schedule_at(SimTime::from_nanos(mix(seed, i) % 200_000), i);
    }
    let ns = time_ns(|| {
        for i in 0..n {
            let (now, ev) = sched.pop().expect("queue kept non-empty");
            let delay = Duration::from_nanos(mix(seed, i ^ ev) % 200_000);
            sched.schedule_at(now + delay, black_box(ev));
        }
    });
    ns / n as f64
}

/// A 4-node Totem ring delivering `broadcasts` messages of `size`
/// bytes, sent from every node in turn, eight outstanding at a time.
/// Returns ns per delivered message (counted at one node).
pub fn totem(broadcasts: u64, size: usize, seed: u64) -> f64 {
    let n = broadcasts.clamp(1, MAX_TOTEM_BROADCASTS) as usize;
    let mut ring = TotemHarness::new(4, TotemConfig::default(), seed);
    ring.run_until_formed();
    let observer = NodeId(0);
    let base = ring.deliveries(observer).len();
    let ns = time_ns(|| {
        let mut sent = 0;
        while ring.deliveries(observer).len() - base < n {
            while sent < n && sent < ring.deliveries(observer).len() - base + 8 {
                ring.broadcast(NodeId(sent as u32 % 4), vec![sent as u8; size]);
                sent += 1;
            }
            ring.step();
        }
    });
    ns / n as f64
}

/// Per-call wall time of the three ORB steps of an invocation.
#[derive(Debug, Clone, Copy)]
pub struct OrbTimes {
    /// `ClientConnection::build_request`, ns.
    pub build_request: f64,
    /// `ServerConnection::handle_request` with servant dispatch, ns.
    pub handle_request: f64,
    /// `ClientConnection::handle_reply`, ns.
    pub handle_reply: f64,
}

/// The workload's operation through a client and a server connection
/// and a POA holding the workload's servant, with the driver's seeded
/// argument bytes. Requests, then dispatches, then replies are timed
/// as three batches.
pub fn orb(kind: ServantKind, seed: u64) -> OrbTimes {
    let key = ObjectKey::from("server");
    let mut server = Orb::new("P1");
    server
        .poa_mut()
        .activate_checkpointable(key.clone(), crate::workload::servant(kind));
    let mut server_conn = ServerConnection::new(1);
    let mut client = ClientConnection::new(1);
    let args: Vec<Vec<u8>> = (0..ORB_CALLS as u64)
        .map(|i| crate::driver::arg_bytes(seed, i))
        .collect();
    let mut requests = Vec::with_capacity(ORB_CALLS);
    let mut replies = Vec::with_capacity(ORB_CALLS);
    let build = time_ns(|| {
        for a in &args {
            let (_, req) = client
                .build_request(&key, kind.operation(), a, true)
                .expect("request encodes");
            requests.push(req);
        }
    });
    let handle = time_ns(|| {
        for req in &requests {
            let reply = server_conn
                .handle_request(req, server.poa_mut())
                .expect("request parses")
                .expect("two-way has a reply");
            replies.push(reply);
        }
    });
    let matched = time_ns(|| {
        for reply in &replies {
            black_box(client.handle_reply(reply).expect("reply matches"));
        }
    });
    let n = ORB_CALLS as f64;
    OrbTimes {
        build_request: build / n,
        handle_request: handle / n,
        handle_reply: matched / n,
    }
}

/// The servant's application-level state as CDR `any` bytes.
fn state_any(kind: ServantKind) -> Any {
    CheckpointableServant::get_state(crate::workload::servant(kind).as_ref())
        .expect("servant state readable")
}

fn repeats(bytes: usize) -> usize {
    (STATE_WORK_BYTES / bytes.max(1)).clamp(1, 100_000)
}

/// `Any::to_bytes` and `Any::from_bytes` of the servant's state.
/// Returns (encode, decode) ns per KiB.
pub fn cdr(kind: ServantKind) -> (f64, f64) {
    let state = state_any(kind);
    let bytes = state.to_bytes().expect("state encodes");
    let r = repeats(bytes.len());
    let encode = time_ns(|| {
        for _ in 0..r {
            black_box(state.to_bytes().expect("state encodes"));
        }
    });
    let decode = time_ns(|| {
        for _ in 0..r {
            black_box(Any::from_bytes(black_box(&bytes)).expect("state decodes"));
        }
    });
    let kib = (r * bytes.len()) as f64 / 1024.0;
    (encode / kib, decode / kib)
}

/// GIOP fragmentation of a `set_state` request carrying the encoded
/// state, into frame-payload-sized chunks, and reassembly of the
/// chunks. Returns (fragment, reassemble) ns per KiB.
pub fn giop(kind: ServantKind) -> (f64, f64) {
    let state = state_any(kind).to_bytes().expect("state encodes");
    let (_, message) = ClientConnection::new(1)
        .build_request(&ObjectKey::from("server"), "set_state", &state, true)
        .expect("request encodes");
    let chunk = NetworkConfig::default().frame_payload();
    let r = repeats(message.len());
    let mut fragments = Vec::new();
    let fragment = time_ns(|| {
        for _ in 0..r {
            fragments = fragment_message(black_box(&message), chunk);
        }
    });
    let mut reassembler = Reassembler::new();
    let reassemble = time_ns(|| {
        for _ in 0..r {
            let mut whole = None;
            for f in &fragments {
                whole = reassembler.push(f).expect("fragment parses");
            }
            black_box(whole.expect("last fragment completes the message"));
        }
    });
    let kib = (r * message.len()) as f64 / 1024.0;
    (fragment / kib, reassemble / kib)
}
