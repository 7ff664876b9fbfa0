//! Chaos-derived regression tests. Each test pins one recovery-path
//! bug that the deterministic fault-injection campaigns (`repro --
//! chaos`, see `docs/CHAOS.md`) originally exposed, either as a
//! direct cluster-level scenario or as a replay of the exact campaign
//! seed that found it. They must stay green: a reintroduction of any
//! of these bugs flips the corresponding assertion.

use eternal::app::{BlobServant, BurstClient, CounterServant, StreamingClient};
use eternal::chaos::{run_campaign, CampaignConfig};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::gid::GroupId;
use eternal::properties::FaultToleranceProperties;
use eternal_sim::Duration;

fn cluster(seed: u64) -> Cluster {
    Cluster::new(ClusterConfig::default(), seed)
}

/// All live operational replicas of `group`, with their
/// application-level state bytes.
fn replica_states(c: &mut Cluster, group: GroupId) -> Vec<(String, Vec<u8>)> {
    c.hosting(group)
        .into_iter()
        .filter_map(|n| {
            c.probe_application_state(n, group)
                .map(|s| (n.to_string(), s))
        })
        .collect()
}

fn assert_converged(c: &mut Cluster, group: GroupId, replicas: usize) {
    let states = replica_states(c, group);
    assert_eq!(states.len(), replicas, "all replicas live and operational");
    for pair in states.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "replica state diverged between {} and {}",
            pair[0].0, pair[1].0
        );
    }
}

/// Regression: the §4.2.2 handshake replay at a recovered server
/// replica used to go through the full dispatch path, re-executing the
/// application operation piggybacked on the stored handshake request —
/// a permanent +1 divergence from the siblings whose transferred state
/// already contained that operation's effect. The replay must absorb
/// the ORB-level state (request ids, code sets, object-key bindings)
/// without dispatching.
#[test]
fn recovered_server_replica_state_is_byte_identical() {
    let mut c = cluster(7);
    let server = c.deploy_server("counter", FaultToleranceProperties::active(3), || {
        Box::new(CounterServant::default())
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 2))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(60));

    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    c.run_for(Duration::from_millis(400));

    assert_eq!(c.metrics().recoveries_completed, 1);
    assert_converged(&mut c, server, 3);
}

/// Regression: load ticks used to be applied directly to each
/// processor's locally *operational* client replicas, outside the
/// total order. A tick landing inside a client-group state-transfer
/// window then advanced the donor after its `get_state` capture, and
/// the recovered sibling came up permanently one burst behind. Ticks
/// now travel through the totally-ordered multicast and obey the §5.1
/// phase discipline (dropped pre-sync, held and replayed during
/// enqueueing) — and the replayed tick must run against the
/// now-operational replica, not be discarded by a stale phase check.
#[test]
fn load_ticks_during_recovery_keep_client_replicas_identical() {
    let mut c = cluster(10);
    let server = c.deploy_server("counter", FaultToleranceProperties::active(2), || {
        Box::new(CounterServant::default())
    });
    let driver = c.deploy_client("driver", FaultToleranceProperties::active(2), move |_| {
        Box::new(BurstClient::new(server, "increment", 4))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(40));

    // Kill one driver replica, then keep ticking while its replacement
    // is launched and synchronized, so ticks land in every phase of
    // the transfer window.
    let victim = c.hosting(driver)[0];
    c.kill_replica(driver, victim);
    for _ in 0..60 {
        c.run_for(Duration::from_millis(1));
        c.kick_clients();
    }
    c.run_for(Duration::from_millis(500));

    assert!(c.metrics().recoveries_completed >= 1);
    assert!(!c.recovery_in_flight());
    assert_converged(&mut c, driver, 2);
    assert_converged(&mut c, server, 2);
}

/// Regression: when the recovering host died mid-transfer, the
/// donor-side `StateCaptured` notifications still in flight used to
/// re-create the aborted episode in the cluster's bookkeeping, leaving
/// `recovery_in_flight()` true forever (and blocking every later
/// launch of the group). Aborted transfers must stay aborted; the
/// group must still converge back to full strength via a fresh
/// episode.
#[test]
fn crash_of_recovering_host_mid_transfer_releases_recovery_machinery() {
    let mut c = cluster(2);
    let server = c.deploy_server("blob", FaultToleranceProperties::active(2), || {
        Box::new(BlobServant::with_size(200_000))
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 4))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(50));

    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    // A 200 kB transfer takes tens of virtual milliseconds; stop in
    // the middle of it and crash the recovering host.
    c.run_for(Duration::from_millis(15));
    let (_, new_host) = c
        .pending_launches()
        .into_iter()
        .find(|&(g, _)| g == server)
        .expect("recovery mid-flight");
    c.crash_processor(new_host);

    c.run_for(Duration::from_secs(3));
    assert!(
        !c.recovery_in_flight(),
        "aborted episode resurrected: {:?}",
        c.pending_launches()
    );
    assert_converged(&mut c, server, 2);
}

/// Regression: a processor restart used to reset its transfer-id
/// counter, so the ids it fabricated after the restart collided with
/// pre-crash ids that the survivors' duplicate-suppression tables had
/// already seen — the matching `StateAssignment` was silently dropped
/// and the recovering replica waited forever. Transfer ids now carry
/// the fabricating node's incarnation number. Campaign seed 3 drives
/// exactly this interleaving (restart, then a recovery whose retrieval
/// the restarted node fabricates).
#[test]
fn restarted_processor_transfer_ids_do_not_collide() {
    let summary = run_campaign(&CampaignConfig {
        seed: 3,
        ..CampaignConfig::default()
    });
    assert!(summary.passed(), "{summary}");
}

/// Regression: a crash + fast restart used to rejoin the Totem ring
/// before token-loss detection ever excluded the node, so the
/// survivors' membership-change fault path never fired and they kept
/// the dead incarnation's replicas in their operational views — even
/// electing the empty node as state donor, wedging every later
/// recovery of those groups. The rejoined node now announces its
/// previous incarnation's replica deaths through the total order.
/// Campaign seed 60 drives exactly this interleaving.
#[test]
fn fast_restart_rejoin_prunes_stale_operational_views() {
    let summary = run_campaign(&CampaignConfig {
        seed: 60,
        ..CampaignConfig::default()
    });
    assert!(summary.passed(), "{summary}");
}

/// Recovery must complete under sustained message loss: Totem
/// retransmits cover the gaps, and the transfer window simply widens.
/// The driver is limited and the run drained to quiescence before the
/// convergence probe — with traffic still in flight, replicas may
/// legitimately differ by one burst at any given sampling instant
/// (arrival events land at slightly different virtual times per node).
#[test]
fn recovery_completes_under_message_loss() {
    let mut c = cluster(5);
    let limit: u64 = 6_000;
    let server = c.deploy_server("counter", FaultToleranceProperties::active(2), || {
        Box::new(CounterServant::default())
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 2).with_limit(limit))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(40));

    c.net_mut().set_loss_probability(0.05);
    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    c.run_for(Duration::from_secs(2));
    c.net_mut().set_loss_probability(0.0);

    let deadline = c.now() + Duration::from_secs(60);
    loop {
        c.run_for(Duration::from_millis(10));
        if c.metrics().replies_delivered >= limit && c.outstanding_calls() == 0 {
            break;
        }
        assert!(c.now() < deadline, "workload failed to drain");
    }
    c.run_for(Duration::from_millis(300));

    assert_eq!(c.metrics().recoveries_completed, 1);
    assert!(!c.recovery_in_flight());
    assert_converged(&mut c, server, 2);
}

/// Cluster with the chunked transfer forced into a long stream: 4 kB
/// chunks over a 200 kB blob is a ~49-chunk pipeline, leaving a wide
/// window for faults to land mid-stream.
fn chunked_cluster(seed: u64) -> Cluster {
    let mut config = ClusterConfig::default();
    config.mech.chunk_bytes = 4_096;
    Cluster::new(config, seed)
}

/// Block until some live processor reports an elected donor for
/// `group` — i.e. the chunk stream is running — and return the donor.
fn wait_for_donor(c: &mut Cluster, group: GroupId) -> eternal_sim::net::NodeId {
    let deadline = c.now() + Duration::from_millis(200);
    loop {
        c.run_for(Duration::from_micros(500));
        let donor = c
            .processors()
            .into_iter()
            .filter(|&n| c.is_alive(n))
            .find_map(|n| c.mechanisms(n).transfer_donor(group));
        if let Some(d) = donor {
            return d;
        }
        assert!(c.now() < deadline, "chunk stream never started");
    }
}

/// The donor dies mid-chunk-stream. The surviving replica — which
/// captured and retained the same checkpoint at the same mark — must
/// take the stream over from the shared cursor (every retaining host
/// tracks the highest contiguously delivered chunk through the total
/// order), not restart the transfer from byte zero. Both the original
/// episode and the relaunch of the donor's own replica must complete,
/// and the group must converge byte-identically at full strength.
#[test]
fn donor_death_mid_chunk_stream_resumes_from_cursor() {
    let mut c = chunked_cluster(11);
    let limit: u64 = 2_000;
    let server = c.deploy_server("blob", FaultToleranceProperties::active(3), || {
        Box::new(BlobServant::with_size(200_000))
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 4).with_limit(limit))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(50));

    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    let donor = wait_for_donor(&mut c, server);
    c.run_for(Duration::from_millis(1));
    c.kill_replica(server, donor);

    // Drain: both the original episode and the relaunch of the donor's
    // own replica must complete, and the bounded workload must finish.
    let deadline = c.now() + Duration::from_secs(60);
    loop {
        c.run_for(Duration::from_millis(10));
        if c.metrics().replies_delivered >= limit
            && c.outstanding_calls() == 0
            && !c.recovery_in_flight()
            && c.hosting(server).len() == 3
        {
            break;
        }
        assert!(c.now() < deadline, "group never returned to full strength");
    }
    let takeovers: u64 = c
        .processors()
        .into_iter()
        .filter(|&n| c.is_alive(n))
        .map(|n| c.mechanisms(n).counters().transfer_takeovers)
        .sum();
    assert!(
        takeovers >= 1,
        "survivor should resume the stream from the shared cursor"
    );
    assert!(c.metrics().recoveries_completed >= 2);
    assert_converged(&mut c, server, 3);
}

/// The recovering host crashes mid-chunk-stream. The donor's
/// remaining chunks and suffix messages for the aborted transfer must
/// not resurrect the episode (the chunked analogue of the
/// `StateCaptured` regression above), and a fresh episode must bring
/// the group back to full strength.
#[test]
fn crash_of_recovering_host_mid_chunk_stream_releases_machinery() {
    let mut c = chunked_cluster(4);
    let limit: u64 = 2_000;
    let server = c.deploy_server("blob", FaultToleranceProperties::active(2), || {
        Box::new(BlobServant::with_size(200_000))
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 4).with_limit(limit))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(50));

    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    wait_for_donor(&mut c, server);
    let (_, new_host) = c
        .pending_launches()
        .into_iter()
        .find(|&(g, _)| g == server)
        .expect("recovery mid-flight");
    c.crash_processor(new_host);

    // Drain to quiescence before probing: the fresh episode must
    // complete and the bounded workload must finish.
    let deadline = c.now() + Duration::from_secs(60);
    loop {
        c.run_for(Duration::from_millis(10));
        if c.metrics().replies_delivered >= limit
            && c.outstanding_calls() == 0
            && !c.recovery_in_flight()
            && c.hosting(server).len() == 2
        {
            break;
        }
        assert!(c.now() < deadline, "group never returned to full strength");
    }
    assert!(
        !c.recovery_in_flight(),
        "aborted chunked episode resurrected: {:?}",
        c.pending_launches()
    );
    assert_converged(&mut c, server, 2);
}

/// A partition cuts the donor off mid-chunk-stream and heals shortly
/// after. Whichever path the membership machinery takes — resuming
/// the stream after the reformation or abandoning the episode and
/// launching a fresh one — the group must converge byte-identically
/// at full strength once the ring is whole again. The driver is
/// bounded and drained before the kill so the only traffic in flight
/// across the partition is the chunk stream itself.
#[test]
fn partition_heal_with_chunks_in_flight_converges() {
    let mut c = chunked_cluster(9);
    let limit: u64 = 200;
    let server = c.deploy_server("blob", FaultToleranceProperties::active(2), || {
        Box::new(BlobServant::with_size(200_000))
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 4).with_limit(limit))
    });
    c.run_until_deployed();
    let deadline = c.now() + Duration::from_secs(30);
    loop {
        c.run_for(Duration::from_millis(5));
        if c.metrics().replies_delivered >= limit && c.outstanding_calls() == 0 {
            break;
        }
        assert!(c.now() < deadline, "workload failed to drain");
    }

    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    let donor = wait_for_donor(&mut c, server);
    let rest: Vec<_> = c
        .processors()
        .into_iter()
        .filter(|&n| c.is_alive(n) && n != donor)
        .collect();
    c.net_mut().partition(&[&[donor], &rest]);
    c.run_for(Duration::from_millis(20));
    c.net_mut().heal();

    let deadline = c.now() + Duration::from_secs(10);
    loop {
        c.run_for(Duration::from_millis(10));
        if !c.recovery_in_flight() && c.hosting(server).len() == 2 {
            let states = replica_states(&mut c, server);
            if states.len() == 2 {
                break;
            }
        }
        assert!(c.now() < deadline, "group never reconverged after heal");
    }
    assert!(c.metrics().recoveries_completed >= 1);
    assert_converged(&mut c, server, 2);
}

/// The campaign itself is a deterministic function of its seed: two
/// runs with identical configuration must render identical summaries,
/// byte for byte — that is what makes `--seed` a reproduction recipe.
#[test]
fn campaign_replay_is_byte_identical() {
    let cfg = CampaignConfig {
        seed: 17,
        steps: 3,
        blob_size: 20_000,
        ..CampaignConfig::default()
    };
    let a = run_campaign(&cfg).to_string();
    let b = run_campaign(&cfg).to_string();
    assert_eq!(a, b);
}

/// The campaign trajectory is pinned across versions, not only within
/// one build: these summaries were rendered by the build that predates
/// the shared fault model (`eternal::faults`), and together the three
/// seeds draw all seven fault kinds. A change to any fault's RNG draws,
/// their order, or the cluster calls a fault makes shows up here.
#[test]
fn campaign_trajectories_match_pinned_summaries() {
    let pinned = [
        (
            1,
            "chaos campaign: seed=1 steps=4 end=t=477.231ms
  faults: crash_restart=1 kill_donor_mid_stream=1 kill_mid_transfer=1 loss_burst=1
  traffic: dispatched=160 replies=164 duplicates_suppressed=816
  recovery: completed=8 takeovers=1 dedup_gaps_skipped=0
  invariants: checks=5 violations=0
  verdict: PASS",
        ),
        (
            7,
            "chaos campaign: seed=7 steps=4 end=t=216.843ms
  faults: kill_mid_transfer=1 kill_replica=2 partition_heal=1
  traffic: dispatched=100 replies=104 duplicates_suppressed=520
  recovery: completed=5 takeovers=0 dedup_gaps_skipped=0
  invariants: checks=5 violations=0
  verdict: PASS",
        ),
        (
            11,
            "chaos campaign: seed=11 steps=4 end=t=232.327ms
  faults: delay_spike=1 kill_donor_mid_stream=1 kill_replica=1 partition_heal=1
  traffic: dispatched=160 replies=144 duplicates_suppressed=800
  recovery: completed=3 takeovers=1 dedup_gaps_skipped=0
  invariants: checks=5 violations=0
  verdict: PASS",
        ),
    ];
    for (seed, expected) in pinned {
        let summary = run_campaign(&CampaignConfig {
            seed,
            steps: 4,
            ..CampaignConfig::default()
        });
        assert_eq!(summary.to_string(), expected, "seed {seed}");
        assert_eq!(summary.schedule.len(), 4, "seed {seed}");
    }
}

/// Regression: a primary whose processor crashed in the middle of
/// multicasting a checkpoint, and restarted before any membership
/// excluded it, left the checkpoint's leading fragments parked in every
/// survivor's reassembler for the rest of the run (`forget_origin` only
/// runs on a membership that drops the origin). An origin's fragments
/// are contiguous in its FIFO total order, so the restarted origin's
/// first new message proves the partial dead; it is dropped and counted
/// in `eternal.reassembly.abandoned`.
#[test]
fn primary_crash_mid_checkpoint_then_fast_restart_leaves_no_partial() {
    let mut c = cluster(2);
    let limit: u64 = 600;
    let server = c.deploy_server(
        "blob",
        FaultToleranceProperties::warm_passive(3)
            .with_checkpoint_interval(Duration::from_millis(25)),
        || Box::new(BlobServant::with_size(20_000)),
    );
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 4).with_limit(limit))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(60));
    let processors = c.processors();
    let primary = c
        .mechanisms(processors[0])
        .primary_host(server)
        .expect("warm-passive group has a primary");
    let survivor = *processors.iter().find(|&&n| n != primary).expect("peer");
    // Step until a checkpoint is half-delivered at a survivor (the only
    // multi-fragment messages in this run are the primary's
    // checkpoints), then crash its sender there.
    let deadline = c.now() + Duration::from_millis(200);
    while c.reassembly_pending(survivor) == 0 {
        assert!(c.now() < deadline, "no checkpoint in flight");
        c.step();
    }
    c.crash_processor(primary);
    // Back before token-loss detection can exclude it: no membership
    // ever drops the primary.
    c.run_for(Duration::from_millis(5));
    c.restart_processor(primary);
    let deadline = c.now() + Duration::from_secs(10);
    loop {
        c.run_for(Duration::from_millis(10));
        if c.metrics().replies_delivered >= limit
            && c.outstanding_calls() == 0
            && !c.recovery_in_flight()
            && c.formed()
        {
            break;
        }
        assert!(c.now() < deadline, "cluster never quiesced");
    }
    c.run_for(Duration::from_millis(100));
    for n in processors {
        assert_eq!(c.reassembly_pending(n), 0, "{n} parks a dead partial");
    }
    assert!(c.metrics_registry().counter("eternal.reassembly.abandoned") >= 1);
}
