//! The three workloads and one repetition of each.
//!
//! Every workload is closed-loop (CORBA two-way callers wait for their
//! replies, as the paper's packet driver does) and does a fixed amount
//! of work: a fixed number of operations plus a fixed number of
//! faults. So wall time measures what the code costs, not how much
//! simulated time ran. The cluster is driven from outside, through
//! public APIs only, on the default network (100 Mbps, 1518 B frames,
//! 50 us propagation, 20 us receive CPU per frame, no loss, 30 ms
//! token-loss timeout).

use crate::counts::Counts;
use crate::driver::{Driver, Progress};
use crate::spans::Spans;
use eternal::app::{BlobServant, CounterServant};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::gid::GroupId;
use eternal::metrics::Metrics;
use eternal::oracle::{Oracle, OracleConfig, OraclePair, ServantKind};
use eternal::properties::FaultToleranceProperties;
use eternal_obs::{attribute, AttributionReport, RecoveryTimeline};
use eternal_orb::servant::CheckpointableServant;
use eternal_sim::net::NodeId;
use eternal_sim::{Duration, SimTime};
use std::sync::Arc;
use std::time::Instant;

/// Invariants whose violation means an output of the program is wrong.
/// The others (`reassembly-orphan`, `dedup-bound`, `suffix-bound`)
/// bound resources; they are reported by name but do not make a run
/// incorrect.
pub const SAFETY_INVARIANTS: [&str; 4] =
    ["convergence", "availability", "exactly-once", "single-copy"];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The ordering hot path: small messages, no faults.
    SteadySmall,
    /// Repeated replica kills with chunked 350 kB state transfer.
    Recovery350k,
    /// Crashes of the warm-passive primary's processor.
    CrashFailover,
}

#[derive(Debug, Clone, Copy)]
enum Faults {
    None,
    /// Kill a replica of the server, `count` times, about `every` apart
    /// in simulated time.
    KillReplica {
        count: u64,
        every: Duration,
    },
    /// Crash the processor hosting the server's primary, `count` times,
    /// about `every` apart, and restart it `downtime` later.
    CrashPrimary {
        count: u64,
        every: Duration,
        downtime: Duration,
    },
}

#[derive(Debug, Clone)]
struct Shape {
    server: FaultToleranceProperties,
    kind: ServantKind,
    client: FaultToleranceProperties,
    in_flight: u64,
    warmup_ops: u64,
    ops: u64,
    faults: Faults,
    /// Simulated time allowed for load and drain; replies still
    /// missing then count as failed operations.
    deadline: Duration,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::SteadySmall,
        Workload::Recovery350k,
        Workload::CrashFailover,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadySmall => "steady_small",
            Workload::Recovery350k => "recovery_350k",
            Workload::CrashFailover => "crash_failover",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The servant the server group runs.
    pub fn servant_kind(self) -> ServantKind {
        self.shape().kind
    }

    fn shape(self) -> Shape {
        match self {
            Workload::SteadySmall => Shape {
                server: FaultToleranceProperties::active(3),
                kind: ServantKind::Counter,
                client: FaultToleranceProperties::active(1),
                in_flight: 8,
                warmup_ops: 2_000,
                ops: 30_000,
                faults: Faults::None,
                deadline: Duration::from_secs(20),
            },
            Workload::Recovery350k => Shape {
                server: FaultToleranceProperties::active(2),
                kind: ServantKind::Blob { size: 350_000 },
                client: FaultToleranceProperties::active(1),
                in_flight: 4,
                warmup_ops: 500,
                ops: 20_000,
                faults: Faults::KillReplica {
                    count: 16,
                    every: Duration::from_millis(160),
                },
                deadline: Duration::from_secs(30),
            },
            Workload::CrashFailover => Shape {
                server: FaultToleranceProperties::warm_passive(3)
                    .with_checkpoint_interval(Duration::from_millis(25)),
                kind: ServantKind::Blob { size: 20_000 },
                client: FaultToleranceProperties::active(2),
                in_flight: 4,
                warmup_ops: 500,
                ops: 20_000,
                faults: Faults::CrashPrimary {
                    count: 8,
                    every: Duration::from_millis(330),
                    downtime: Duration::from_millis(60),
                },
                deadline: Duration::from_secs(30),
            },
        }
    }
}

/// The simulated outcome of one repetition. Every field is a pure
/// function of the workload and the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Operations the driver was to issue after warm-up.
    pub ops_attempted: u64,
    /// Of those, operations whose reply arrived by the deadline.
    pub ops_completed: u64,
    /// Replies whose value was not the expected operation count.
    pub reply_mismatches: u64,
    /// Faults injected.
    pub faults: u64,
    /// Simulated time of load and drain, in ns.
    pub load_sim_ns: u64,
    /// Round-trip times of the operations completed after warm-up, ns.
    pub rtt_ns: Vec<u64>,
    /// `(recovery time, blocking window)` of each recovery, ns.
    pub recoveries: Vec<(u64, u64)>,
    /// Per fault episode (one episode for a fault-free run), the
    /// longest gap between consecutive replies at the driver, ns.
    pub outages_ns: Vec<u64>,
    /// Oracle violations at the end-of-run audit: (invariant, detail).
    pub violations: Vec<(&'static str, String)>,
    /// Counter deltas over load and drain.
    pub counts: Counts,
}

impl Outcome {
    /// Operations whose reply had not arrived by the deadline.
    pub fn ops_failed(&self) -> u64 {
        self.ops_attempted - self.ops_completed
    }

    /// Whether every output checked was right: replies carried the
    /// expected values and no safety invariant was violated.
    pub fn correct(&self) -> bool {
        self.reply_mismatches == 0
            && self
                .violations
                .iter()
                .all(|(inv, _)| !SAFETY_INVARIANTS.contains(inv))
    }

    /// The round-trip times as the program's own metrics record, for
    /// its percentile function.
    pub fn rtt_metrics(&self) -> Metrics {
        Metrics {
            round_trips: self
                .rtt_ns
                .iter()
                .map(|&n| Duration::from_nanos(n))
                .collect(),
            ..Metrics::default()
        }
    }
}

/// What only a traced repetition yields.
#[derive(Debug, Clone)]
pub struct TracedExtras {
    /// Latency attribution over the causal recorder.
    pub attribution: AttributionReport,
    /// Phase timelines of the recovery episodes.
    pub timelines: Vec<RecoveryTimeline>,
    /// Events both recorders evicted.
    pub dropped_events: u64,
}

/// One repetition of a workload.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall time of set-up: `Cluster::new`, deployment, ring formation
    /// and the warm-up operations, in seconds.
    pub setup_s: f64,
    /// Wall time of the fixed work (load and drain), in seconds.
    pub run_s: f64,
    /// The simulated outcome.
    pub outcome: Outcome,
    /// Present for traced repetitions.
    pub traced: Option<TracedExtras>,
}

/// Runs one repetition. A traced repetition turns the cluster's
/// structured trace and causal recorder on and records the benchmark's
/// spans into `spans`.
pub fn run_rep(workload: Workload, seed: u64, spans: Option<&mut Spans>) -> Rep {
    Run::new(workload, seed, spans).run()
}

struct Run<'a> {
    workload: Workload,
    shape: Shape,
    seed: u64,
    spans: Option<&'a mut Spans>,
    events: u64,
    /// Counters erased by processor restarts, added back to every read.
    carry: Counts,
}

/// An open fault episode.
#[derive(Debug)]
struct Episode {
    victim: NodeId,
    replies_at_fault: u64,
    restart_at: Option<SimTime>,
}

impl<'a> Run<'a> {
    fn new(workload: Workload, seed: u64, spans: Option<&'a mut Spans>) -> Self {
        eternal_cdr::pool::reset();
        Run {
            workload,
            shape: workload.shape(),
            seed,
            spans,
            events: 0,
            carry: Counts::default(),
        }
    }

    fn counts(&self, cluster: &Cluster) -> Counts {
        Counts::read(cluster, self.events).plus(&self.carry)
    }

    // Spans cost counter snapshots, so untraced repetitions skip them.
    fn begin(&mut self, name: &'static str, cluster: Option<&Cluster>) {
        if self.spans.is_none() {
            return;
        }
        let at = cluster.map_or_else(Counts::pool, |c| self.counts(c));
        if let Some(spans) = &mut self.spans {
            spans.begin(name, at);
        }
    }

    fn end(&mut self, cluster: &Cluster) {
        if self.spans.is_none() {
            return;
        }
        let at = self.counts(cluster);
        if let Some(spans) = &mut self.spans {
            spans.end(at);
        }
    }

    fn step(&mut self, cluster: &mut Cluster) -> bool {
        self.events += 1;
        cluster.step()
    }

    fn run(mut self) -> Rep {
        let traced = self.spans.is_some();
        let shape = self.shape.clone();
        let config = ClusterConfig {
            trace: traced,
            causal: traced,
            ..ClusterConfig::default()
        };
        let suffix_checkpoint_len = config.mech.suffix_checkpoint_len;
        let limit = shape.warmup_ops + shape.ops;
        let progress = Arc::new(Progress::default());

        // ---- set-up: cluster, deployment, ring formation, warm-up ----
        let setup_start = Instant::now();
        self.begin("setup", None);
        let mut cluster = Cluster::new(config, self.seed);
        let kind = shape.kind;
        let server = cluster.deploy_server("server", shape.server.clone(), move || servant(kind));
        let (op, in_flight, seed) = (kind.operation(), shape.in_flight, self.seed);
        let shared = Arc::clone(&progress);
        let client = cluster.deploy_client("driver", shape.client.clone(), move |_| {
            Box::new(Driver::new(
                server,
                op,
                in_flight,
                limit,
                seed,
                Arc::clone(&shared),
            ))
        });
        cluster.run_until_deployed();
        self.end(&cluster);
        self.begin("warmup", Some(&cluster));
        let warm_deadline = cluster.now() + Duration::from_secs(10);
        while progress.replies() < shape.warmup_ops && cluster.now() < warm_deadline {
            self.step(&mut cluster);
        }
        assert!(
            progress.replies() >= shape.warmup_ops,
            "{}: warm-up did not complete",
            self.workload.name()
        );
        self.end(&cluster);
        let setup_s = setup_start.elapsed().as_secs_f64();

        // ---- the fixed work: load (with faults), then drain ----
        let run_start = Instant::now();
        let base = self.counts(&cluster);
        let before = cluster.metrics();
        let (rtt_base, rec_base) = (before.round_trips.len(), before.recoveries.len());
        let load_start = cluster.now();
        let deadline = load_start + shape.deadline;
        let mut gaps = Gaps::new(load_start, matches!(shape.faults, Faults::None));
        let (fault_count, every) = match shape.faults {
            Faults::None => (0, Duration::ZERO),
            Faults::KillReplica { count, every } | Faults::CrashPrimary { count, every, .. } => {
                (count, every)
            }
        };
        let mut injected = 0u64;
        let mut due = self.fault_due(load_start, 0, every);
        let mut episode: Option<Episode> = None;
        let mut last_replies = progress.replies();

        self.begin("load", Some(&cluster));
        loop {
            let replies = progress.replies();
            let sent_all = progress.sent() >= limit && injected == fault_count;
            if (sent_all && episode.is_none()) || replies >= limit || cluster.now() >= deadline {
                break;
            }
            if !self.step(&mut cluster) {
                break;
            }
            let now = cluster.now();
            match &mut episode {
                None if injected < fault_count && now >= due => {
                    self.begin("episode", Some(&cluster));
                    self.begin("fault", Some(&cluster));
                    gaps.new_episode();
                    let victim = self.inject(&mut cluster, server, injected);
                    self.end(&cluster);
                    let restart_at = match shape.faults {
                        Faults::CrashPrimary { downtime, .. } => Some(now + downtime),
                        _ => None,
                    };
                    episode = Some(Episode {
                        victim,
                        replies_at_fault: replies,
                        restart_at,
                    });
                    injected += 1;
                    due = self.fault_due(load_start, injected, every);
                }
                Some(ep) if ep.restart_at.is_some_and(|at| now >= at) => {
                    self.begin("fault", Some(&cluster));
                    let erased = Counts::read(&cluster, self.events);
                    cluster.restart_processor(ep.victim);
                    let kept = Counts::read(&cluster, self.events);
                    // What the restart erased: the counters that dropped.
                    self.carry = self.carry.plus(&erased.delta_since(&kept));
                    self.end(&cluster);
                    ep.restart_at = None;
                }
                _ => {}
            }
            if progress.replies() == last_replies {
                continue;
            }
            last_replies = progress.replies();
            gaps.reply(now);
            if let Some(ep) = &episode {
                if last_replies > ep.replies_at_fault
                    && ep.restart_at.is_none()
                    && self.restored(&cluster, server, client)
                {
                    episode = None;
                    self.end(&cluster);
                }
            }
        }
        if episode.is_some() {
            self.end(&cluster); // the deadline cut an episode short
        }
        self.end(&cluster);
        self.begin("drain", Some(&cluster));
        while progress.replies() < limit && cluster.now() < deadline {
            if !self.step(&mut cluster) {
                break;
            }
            if progress.replies() != last_replies {
                last_replies = progress.replies();
                gaps.reply(cluster.now());
            }
        }
        self.end(&cluster);
        let ops_completed = progress.replies().min(limit) - shape.warmup_ops;
        let load_sim_ns = (cluster.now() - load_start).as_nanos();
        let counts = self.counts(&cluster).delta_since(&base);
        let run_s = run_start.elapsed().as_secs_f64();

        // ---- audit: settle to quiescence, then the full oracle ----
        self.begin("audit", Some(&cluster));
        let after = cluster.metrics();
        settle(&mut cluster);
        let oracle = Oracle::new(OracleConfig {
            suffix_checkpoint_len,
            ..OracleConfig::default()
        })
        .with_pair(OraclePair {
            server,
            driver: client,
            kind,
        });
        let violations = oracle
            .check(&mut cluster)
            .into_iter()
            .map(|v| (v.invariant, v.detail))
            .collect();
        self.end(&cluster);

        let traced_extras = traced.then(|| TracedExtras {
            attribution: attribute(cluster.causal()),
            timelines: cluster.recovery_timelines().to_vec(),
            dropped_events: cluster.trace().dropped_events() + cluster.causal().dropped(),
        });
        Rep {
            setup_s,
            run_s,
            outcome: Outcome {
                ops_attempted: shape.ops,
                ops_completed,
                reply_mismatches: progress.mismatches(),
                faults: injected,
                load_sim_ns,
                rtt_ns: after.round_trips[rtt_base..]
                    .iter()
                    .map(|d| d.as_nanos())
                    .collect(),
                recoveries: after.recoveries[rec_base..]
                    .iter()
                    .map(|r| (r.recovery_time().as_nanos(), r.blocking_window.as_nanos()))
                    .collect(),
                outages_ns: gaps.finish(),
                violations,
                counts,
            },
            traced: traced_extras,
        }
    }

    /// When fault `i` is due: every `every` of simulated time after the
    /// load starts, moved earlier by a seeded jitter of up to a quarter
    /// of the spacing. Faults land at arbitrary instants, not only at
    /// reply deliveries, so some hit a checkpoint or a state transfer on
    /// the wire.
    fn fault_due(&self, load_start: SimTime, i: u64, every: Duration) -> SimTime {
        let spacing = every.as_nanos();
        let jitter = mix(self.seed, 0xfa17 + i) % (spacing / 4).max(1);
        load_start + Duration::from_nanos((i + 1) * spacing - jitter)
    }

    fn inject(&mut self, cluster: &mut Cluster, server: GroupId, i: u64) -> NodeId {
        match self.shape.faults {
            Faults::None => unreachable!("no faults planned"),
            Faults::KillReplica { .. } => {
                // Which replica dies decides how long the donor stalls
                // the group (the replica beside the driver gives the
                // short stall), so the victims alternate from a seeded
                // first one: every seed kills each replica equally often.
                let hosts = cluster.hosting(server);
                let victim = hosts[((mix(self.seed, 0x4b11) + i) % hosts.len() as u64) as usize];
                cluster.kill_replica(server, victim);
                victim
            }
            Faults::CrashPrimary { .. } => {
                let observer = cluster
                    .processors()
                    .into_iter()
                    .find(|&n| cluster.is_alive(n))
                    .expect("a live processor");
                let victim = cluster
                    .mechanisms(observer)
                    .primary_host(server)
                    .expect("the server has a primary");
                cluster.crash_processor(victim);
                victim
            }
        }
    }

    /// Whether the cluster is back at full strength after a fault: the
    /// ring is formed, no recovery is in flight, and both groups have
    /// their full replica count again.
    fn restored(&self, cluster: &Cluster, server: GroupId, client: GroupId) -> bool {
        cluster.formed()
            && !cluster.recovery_in_flight()
            && cluster.hosting(server).len() == self.shape.server.initial_replicas
            && cluster.hosting(client).len() == self.shape.client.initial_replicas
    }
}

/// A fresh servant of the given kind.
pub fn servant(kind: ServantKind) -> Box<dyn CheckpointableServant> {
    match kind {
        ServantKind::Counter => Box::new(CounterServant::default()),
        ServantKind::Blob { size } => Box::new(BlobServant::with_size(size)),
    }
}

/// Runs in 10 ms slices until the cluster is quiet (ring formed, no
/// recovery in flight, no outstanding call) and nothing moved over a
/// slice, for at most one simulated second.
fn settle(cluster: &mut Cluster) {
    let cap = cluster.now() + Duration::from_secs(1);
    let snapshot = |c: &Cluster| {
        let m = c.metrics();
        (
            m.requests_dispatched,
            m.replies_delivered,
            m.recoveries_completed,
        )
    };
    let mut last = snapshot(cluster);
    loop {
        cluster.run_for(Duration::from_millis(10));
        let now = snapshot(cluster);
        let quiet =
            cluster.formed() && !cluster.recovery_in_flight() && cluster.outstanding_calls() == 0;
        if (quiet && now == last) || cluster.now() >= cap {
            return;
        }
        last = now;
    }
}

/// A seeded 64-bit hash of `(seed, salt)`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0xd605_bbb5_8c8a_be1d);
    z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

/// Longest gap between consecutive replies, per fault episode.
#[derive(Debug)]
struct Gaps {
    last_reply: SimTime,
    open: bool,
    longest: u64,
    done: Vec<u64>,
}

impl Gaps {
    /// A fault-free run is one episode, open from the start of the load.
    fn new(load_start: SimTime, fault_free: bool) -> Self {
        Gaps {
            last_reply: load_start,
            open: fault_free,
            longest: 0,
            done: Vec::new(),
        }
    }

    fn new_episode(&mut self) {
        if self.open {
            self.done.push(self.longest);
        }
        self.open = true;
        self.longest = 0;
    }

    fn reply(&mut self, at: SimTime) {
        if self.open {
            self.longest = self.longest.max((at - self.last_reply).as_nanos());
        }
        self.last_reply = at;
    }

    fn finish(mut self) -> Vec<u64> {
        if self.open {
            self.done.push(self.longest);
        }
        self.done
    }
}
