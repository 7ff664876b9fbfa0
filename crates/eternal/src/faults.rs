//! The one fault model: every fault the chaos campaigns
//! ([`crate::chaos`]), the health lab ([`crate::health_lab`]) and the
//! schedule explorer ([`crate::explore`]) inject goes through
//! `apply`.
//!
//! A fault kind fixes what happens: which cluster APIs are called, in
//! which order, and which safety predicates guard them. The callers
//! differ only in the choices a kind leaves open — which candidate to
//! strike, where to cut a partition, how long to hold a fault, how far
//! into a state transfer to strike again — and answer them through
//! `Pick`: the campaigns draw from their seeded [`SimRng`], the
//! health lab and the explorer use the deterministic `Fixed` rule.
//!
//! No fault ever takes a group's last live replica: total loss has
//! nothing to transfer state from and is out of scope (§5.1).

use crate::cluster::Cluster;
use crate::gid::GroupId;
use eternal_sim::net::NodeId;
use eternal_sim::rng::SimRng;
use eternal_sim::{Duration, SimTime};

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Kill one replica of a group that still has a sibling.
    KillReplica,
    /// Crash a whole processor, run through the reformation, restart it.
    CrashRestart,
    /// Partition the live processors into two components at a traffic
    /// quiescent point, hold briefly, heal (often mid-reformation).
    PartitionHeal,
    /// Raise the network loss probability for a burst of traffic.
    LossBurst,
    /// Raise the propagation delay for a burst of traffic.
    DelaySpike,
    /// Kill a replica, wait for the §5.1 recovery to start, then crash
    /// the *recovering* host mid-state-transfer.
    KillMidTransfer,
    /// Kill a replica, wait for the chunked state transfer to start
    /// streaming, then kill the *donor* replica mid-stream: the next
    /// operational host must take the stream over from the shared
    /// cursor rather than restart it from byte zero.
    KillDonorMidStream,
}

impl FaultKind {
    /// All kinds, in schedule-draw order.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::KillReplica,
        FaultKind::CrashRestart,
        FaultKind::PartitionHeal,
        FaultKind::LossBurst,
        FaultKind::DelaySpike,
        FaultKind::KillMidTransfer,
        FaultKind::KillDonorMidStream,
    ];

    /// Stable display name (summary and trace detail strings).
    pub const fn name(self) -> &'static str {
        match self {
            FaultKind::KillReplica => "kill_replica",
            FaultKind::CrashRestart => "crash_restart",
            FaultKind::PartitionHeal => "partition_heal",
            FaultKind::LossBurst => "loss_burst",
            FaultKind::DelaySpike => "delay_spike",
            FaultKind::KillMidTransfer => "kill_mid_transfer",
            FaultKind::KillDonorMidStream => "kill_donor_mid_stream",
        }
    }
}

/// How the choices a fault leaves open are resolved. `apply` asks
/// only what its kind needs, in a fixed order, and asks the lazy
/// questions (after waiting for a state transfer to start) only once
/// the wait succeeded.
pub(crate) trait Pick {
    /// Index of the candidate to strike among `n >= 1`.
    fn index(&mut self, n: usize) -> usize;
    /// Size of the first partition component among `n >= 2` live
    /// processors, in `1..n`.
    fn cut(&mut self, n: usize) -> usize;
    /// A hold time or fault strength between `lo` and `hi`: the
    /// campaigns draw from `lo..hi`, the fixed rule takes `hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64;
    /// A fraction in `[0, 1]`: the campaigns draw from `[0, 1)`, the
    /// fixed rule takes 1.
    fn fraction(&mut self) -> f64;
}

/// The campaigns' randomized choices.
impl Pick for SimRng {
    fn index(&mut self, n: usize) -> usize {
        self.gen_range(n as u64) as usize
    }

    fn cut(&mut self, n: usize) -> usize {
        1 + self.index(n - 1)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.gen_range(hi - lo)
    }

    fn fraction(&mut self) -> f64 {
        self.next_f64()
    }
}

/// The deterministic rule the health lab and the explorer use: strike
/// the first candidate, split the live processors just past the
/// midpoint, and take the top of every range — the longest hold and
/// the strongest loss or delay — so each health detector sees a
/// full-strength fault (`docs/HEALTH.md`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fixed;

impl Pick for Fixed {
    fn index(&mut self, _n: usize) -> usize {
        0
    }

    fn cut(&mut self, n: usize) -> usize {
        (n / 2 + 1).min(n - 1)
    }

    fn range(&mut self, _lo: u64, hi: u64) -> u64 {
        hi
    }

    fn fraction(&mut self) -> f64 {
        1.0
    }
}

/// What one `apply` call did: the fault schedule entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Applied {
    /// The kind applied.
    pub kind: FaultKind,
    /// Virtual time at which it started.
    pub at: SimTime,
    /// The group whose replicas the replica-kill kinds struck.
    pub group: Option<GroupId>,
    /// Processors struck, in order: killed replicas' hosts and crashed
    /// processors (empty for network faults).
    pub victims: Vec<NodeId>,
    /// The first partition component (the other live processors form
    /// the second); empty unless the kind partitions.
    pub cut: Vec<NodeId>,
}

impl Applied {
    /// JSON object rendering of this entry as fault step `step` (the
    /// chaos report's `"schedule"` array).
    pub(crate) fn to_json(&self, step: usize) -> String {
        let ids = |nodes: &[NodeId]| {
            let ids: Vec<String> = nodes.iter().map(|n| n.0.to_string()).collect();
            ids.join(", ")
        };
        let group = self.group.map_or("null".to_string(), |g| g.0.to_string());
        format!(
            "{{\"step\": {step}, \"kind\": \"{}\", \"at_ns\": {}, \"group\": {group}, \
             \"victims\": [{}], \"cut\": [{}]}}",
            self.kind.name(),
            self.at.as_nanos(),
            ids(&self.victims),
            ids(&self.cut)
        )
    }
}

/// Live processors, in id order.
pub(crate) fn live_processors(cluster: &Cluster) -> Vec<NodeId> {
    cluster
        .processors()
        .into_iter()
        .filter(|&n| cluster.is_alive(n))
        .collect()
}

/// Groups that keep at least one replica if one is killed.
pub(crate) fn killable_groups(cluster: &Cluster) -> Vec<GroupId> {
    cluster
        .groups()
        .into_iter()
        .map(|(g, _)| g)
        .filter(|&g| applicable(cluster, FaultKind::KillReplica, g))
        .collect()
}

/// Whether every group keeps a live replica elsewhere if `victim` goes
/// down.
fn safe_to_crash(cluster: &Cluster, victim: NodeId) -> bool {
    cluster.groups().iter().all(|&(g, _)| {
        cluster
            .hosting(g)
            .iter()
            .any(|&n| n != victim && cluster.is_alive(n))
    })
}

/// Live processors that are [`safe_to_crash`], in id order.
fn crashable_processors(cluster: &Cluster) -> Vec<NodeId> {
    live_processors(cluster)
        .into_iter()
        .filter(|&n| safe_to_crash(cluster, n))
        .collect()
}

/// Whether `kind` can strike now without taking a group's last live
/// replica (`group` is the group the replica-kill kinds target).
pub(crate) fn applicable(cluster: &Cluster, kind: FaultKind, group: GroupId) -> bool {
    match kind {
        FaultKind::KillReplica | FaultKind::KillMidTransfer => cluster.hosting(group).len() >= 2,
        FaultKind::CrashRestart => !crashable_processors(cluster).is_empty(),
        FaultKind::PartitionHeal => live_processors(cluster).len() >= 2,
        FaultKind::LossBurst | FaultKind::DelaySpike => true,
        // One host recovers, one donates, one survives to take the
        // stream over.
        FaultKind::KillDonorMidStream => cluster.hosting(group).len() >= 3,
    }
}

/// Runs in fine slices until `started` names the processor a state
/// transfer is under way with, for at most 200 ms of virtual time.
fn wait_for(cluster: &mut Cluster, started: impl Fn(&Cluster) -> Option<NodeId>) -> Option<NodeId> {
    let deadline = cluster.now() + Duration::from_millis(200);
    loop {
        if let Some(node) = started(cluster) {
            return Some(node);
        }
        if cluster.now() >= deadline {
            return None;
        }
        cluster.run_for(Duration::from_micros(500));
    }
}

/// Performs one fault of `kind` on `cluster`, choosing through `pick`.
/// `group` is the group the replica-kill kinds strike. The caller must
/// have checked [`applicable`]; a second strike that would take a
/// group's last live replica is skipped.
pub(crate) fn apply(
    cluster: &mut Cluster,
    kind: FaultKind,
    group: GroupId,
    pick: &mut impl Pick,
) -> Applied {
    let mut done = Applied {
        kind,
        at: cluster.now(),
        group: None,
        victims: Vec::new(),
        cut: Vec::new(),
    };
    match kind {
        FaultKind::KillReplica => kill(cluster, group, pick, &mut done),
        FaultKind::CrashRestart => {
            let candidates = crashable_processors(cluster);
            let victim = candidates[pick.index(candidates.len())];
            done.victims.push(victim);
            cluster.crash_processor(victim);
            // Keep the survivors under load through the reformation and
            // the recoveries it triggers.
            let downtime = Duration::from_millis(pick.range(20, 120));
            cluster.run_for(downtime);
            cluster.kick_clients();
            cluster.run_for(downtime);
            cluster.restart_processor(victim);
        }
        FaultKind::PartitionHeal => {
            // Partitions are applied at traffic quiescence and healed
            // before traffic resumes: replicas of one group split across
            // components must not diverge, and with no invocations in
            // flight they cannot. The hold lands the heal in the middle
            // of (or just after) the components' ring reformations.
            let live = live_processors(cluster);
            let (a, b) = live.split_at(pick.cut(live.len()));
            done.cut = a.to_vec();
            cluster.net_mut().partition(&[a, b]);
            let hold = Duration::from_millis(pick.range(5, 60));
            cluster.run_for(hold);
            cluster.net_mut().heal();
        }
        FaultKind::LossBurst => {
            let base = cluster.net().config().loss_probability;
            let p = 0.05 + 0.25 * pick.fraction();
            cluster.net_mut().set_loss_probability(p);
            cluster.kick_clients();
            let hold = Duration::from_millis(pick.range(20, 80));
            cluster.run_for(hold);
            cluster.net_mut().set_loss_probability(base);
        }
        FaultKind::DelaySpike => {
            let base = cluster.net().config().propagation_delay;
            let delay = Duration::from_micros(pick.range(200, 2_000));
            cluster.net_mut().set_propagation_delay(delay);
            cluster.kick_clients();
            let hold = Duration::from_millis(pick.range(20, 80));
            cluster.run_for(hold);
            cluster.net_mut().set_propagation_delay(base);
        }
        FaultKind::KillMidTransfer => {
            kill(cluster, group, pick, &mut done);
            // Wait for the replacement's launch, let its transfer
            // progress a little, then crash the recovering host itself.
            // The abort must release the launch guard so a second
            // recovery can succeed elsewhere.
            let launch = |c: &Cluster| {
                let launches = c.pending_launches();
                launches
                    .into_iter()
                    .find(|&(g, _)| g == group)
                    .map(|(_, host)| host)
            };
            let Some(new_host) = wait_for(cluster, launch) else {
                return done; // recovery never started; settling handles the rest
            };
            let lead = Duration::from_micros(pick.range(200, 2_000));
            cluster.run_for(lead);
            if cluster.is_alive(new_host) && safe_to_crash(cluster, new_host) {
                done.victims.push(new_host);
                cluster.crash_processor(new_host);
                let downtime = Duration::from_millis(pick.range(20, 60));
                cluster.run_for(downtime);
                cluster.restart_processor(new_host);
            }
        }
        FaultKind::KillDonorMidStream => {
            kill(cluster, group, pick, &mut done);
            // Wait for the chunk stream (every operational host names the
            // donor once the retrieval is delivered), let a few chunks
            // land, then kill the donor's replica. The next operational
            // host must resume the stream from the shared cursor (never
            // from byte zero) for the recovery to converge.
            let streaming = |c: &Cluster| {
                let live = live_processors(c);
                live.into_iter()
                    .find_map(|n| c.mechanisms(n).transfer_donor(group))
            };
            let Some(donor) = wait_for(cluster, streaming) else {
                return done; // transfer never started; settling handles the rest
            };
            let lead = Duration::from_micros(pick.range(200, 2_000));
            cluster.run_for(lead);
            if cluster.is_alive(donor) && cluster.hosting(group).contains(&donor) {
                done.victims.push(donor);
                cluster.kill_replica(group, donor);
            }
        }
    }
    done
}

/// Kills the picked replica of `group`.
fn kill(cluster: &mut Cluster, group: GroupId, pick: &mut impl Pick, done: &mut Applied) {
    let hosting = cluster.hosting(group);
    let victim = hosting[pick.index(hosting.len())];
    done.group = Some(group);
    done.victims.push(victim);
    cluster.kill_replica(group, victim);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health_lab::{deploy_workload, LabConfig};

    /// Every kind, applied through the fixed rule on the health-lab
    /// topology, leaves each group a live replica — right after the
    /// fault and once the cluster has quiesced again — and the cluster
    /// does quiesce.
    #[test]
    fn every_kind_keeps_a_live_replica_and_quiesces() {
        let assert_all_served = |cluster: &Cluster, kind: FaultKind| {
            for (g, name) in cluster.groups() {
                assert!(
                    cluster.hosting(g).iter().any(|&n| cluster.is_alive(n)),
                    "{}: {name} lost its last live replica",
                    kind.name()
                );
            }
        };
        for kind in FaultKind::ALL {
            let (mut cluster, _counter, blob) = deploy_workload(&LabConfig::default());
            assert!(applicable(&cluster, kind, blob), "{}", kind.name());
            let done = apply(&mut cluster, kind, blob, &mut Fixed);
            assert_eq!(done.kind, kind);
            assert_all_served(&cluster, kind);
            cluster.kick_clients();
            assert!(
                cluster.run_until_quiet(Duration::from_millis(10), Duration::from_secs(3)),
                "{}: cluster did not quiesce",
                kind.name()
            );
            assert_all_served(&cluster, kind);
        }
    }
}
