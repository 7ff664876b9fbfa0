//! Property tests for the simulation kernel: scheduler ordering and
//! determinism, network-model timing laws. Randomized cases are driven
//! by the crate's own deterministic [`SimRng`] (fixed seeds) so the
//! suite builds offline and replays identically.

use eternal_sim::choice::{ChoiceKind, ChoiceSource, FifoChoice};
use eternal_sim::net::{NetworkConfig, NetworkModel, NodeId};
use eternal_sim::rng::SimRng;
use eternal_sim::{Duration, Scheduler, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// A tie-breaker that picks branches from the crate's own PRNG —
/// enough adversarial permutation power for the properties below.
#[derive(Debug)]
struct RandomChoice(SimRng);

impl ChoiceSource for RandomChoice {
    fn choose(&mut self, _kind: ChoiceKind, arity: usize) -> usize {
        self.0.gen_range(arity as u64) as usize
    }
}

/// Events pop in non-decreasing time order, FIFO within a tie.
#[test]
fn scheduler_pops_in_order() {
    let mut rng = SimRng::seed_from_u64(0x5EED_0001);
    for _case in 0..64 {
        let n = 1 + rng.gen_range(199) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(1_000)).collect();
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(SimTime::from_nanos(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = s.pop() {
            assert_eq!(at, SimTime::from_nanos(t));
            if let Some((lt, li)) = last {
                assert!(t > lt || (t == lt && i > li), "order violated");
            }
            last = Some((t, i));
        }
    }
}

/// Cancelling a subset removes exactly that subset.
#[test]
fn scheduler_cancellation_is_exact() {
    let mut rng = SimRng::seed_from_u64(0x5EED_0002);
    for _case in 0..64 {
        let n = 1 + rng.gen_range(99) as usize;
        let cancel_mask: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let mut s = Scheduler::new();
        let ids: Vec<_> = (0..n)
            .map(|i| s.schedule_at(SimTime::from_nanos(i as u64), i))
            .collect();
        let mut kept = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask[i] {
                assert!(s.cancel(*id));
            } else {
                kept.push(i);
            }
        }
        let popped: Vec<usize> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, kept);
    }
}

/// The default tie-breaker ([`FifoChoice`], branch 0 everywhere) pops
/// the exact sequence an un-instrumented scheduler would: installing it
/// is observationally a no-op.
#[test]
fn fifo_choice_source_is_identity() {
    let mut rng = SimRng::seed_from_u64(0x5EED_0007);
    for _case in 0..64 {
        let n = 1 + rng.gen_range(199) as usize;
        // Coarse times (0..8) force plenty of same-instant ties.
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(8)).collect();
        let mut plain = Scheduler::new();
        let mut instrumented = Scheduler::new();
        instrumented.set_choice_source(Rc::new(RefCell::new(FifoChoice)));
        for (i, &t) in times.iter().enumerate() {
            plain.schedule_at(SimTime::from_nanos(t), i);
            instrumented.schedule_at(SimTime::from_nanos(t), i);
        }
        let a: Vec<_> = std::iter::from_fn(|| plain.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| instrumented.pop()).collect();
        assert_eq!(a, b);
    }
}

/// A cancelled entry never fires, no matter how an adversarial
/// tie-breaker permutes its tie set — including cancellations issued
/// *between* pops, after the entry may already have been permuted back
/// into the heap.
#[test]
fn cancelled_entries_never_fire_under_permutation() {
    let mut rng = SimRng::seed_from_u64(0x5EED_0008);
    for case in 0..64 {
        let n = 2 + rng.gen_range(98) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(4)).collect();
        let cancel_mask: Vec<bool> = (0..n).map(|_| rng.chance(0.3)).collect();
        let mut s = Scheduler::new();
        s.set_choice_source(Rc::new(RefCell::new(RandomChoice(SimRng::seed_from_u64(
            0x1000 + case,
        )))));
        let ids: Vec<_> = (0..n)
            .map(|i| s.schedule_at(SimTime::from_nanos(times[i]), i))
            .collect();
        // Cancel half the doomed entries up front, half mid-drain. A
        // mid-drain victim may fire before its turn comes — the
        // property is that every cancel that *succeeds* is final.
        let mut cancelled: Vec<usize> = Vec::new();
        let mut late_cancels: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask[i] {
                if i % 2 == 0 {
                    assert!(s.cancel(*id));
                    cancelled.push(i);
                } else {
                    late_cancels.push(i);
                }
            }
        }
        let mut fired = Vec::new();
        while let Some((_, i)) = s.pop() {
            fired.push(i);
            if let Some(victim) = late_cancels.pop() {
                if s.cancel(ids[victim]) {
                    cancelled.push(victim);
                }
            }
        }
        for i in cancelled {
            assert!(!fired.contains(&i), "cancelled entry {i} fired");
        }
    }
}

/// Permuting tie-breaks can reorder entries *within* an instant but
/// never across instants: pop times stay monotone, each entry keeps its
/// scheduled time, and the multiset of fired entries is untouched.
#[test]
fn time_is_monotone_under_permutation() {
    let mut rng = SimRng::seed_from_u64(0x5EED_0009);
    for case in 0..64 {
        let n = 1 + rng.gen_range(199) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(6)).collect();
        let mut s = Scheduler::new();
        s.set_choice_source(Rc::new(RefCell::new(RandomChoice(SimRng::seed_from_u64(
            0x2000 + case,
        )))));
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut fired: Vec<usize> = Vec::new();
        while let Some((at, i)) = s.pop() {
            assert!(at >= last, "time ran backwards");
            assert_eq!(at, SimTime::from_nanos(times[i]), "entry moved instants");
            last = at;
            fired.push(i);
        }
        fired.sort_unstable();
        assert_eq!(
            fired,
            (0..n).collect::<Vec<_>>(),
            "entries lost or duplicated"
        );
    }
}

/// Pops the reference model's next entry: the tie set at the minimal
/// time in `seq` (FIFO) order, resolved by `choice` when given.
fn model_pop(
    model: &mut BTreeMap<(SimTime, u64), u64>,
    choice: Option<&mut RandomChoice>,
) -> Option<(SimTime, u64)> {
    let &(t0, _) = model.keys().next()?;
    let tied: Vec<(SimTime, u64)> = model
        .keys()
        .copied()
        .take_while(|&(t, _)| t == t0)
        .collect();
    let pick = match choice {
        Some(c) if tied.len() >= 2 => c.choose(ChoiceKind::Tie, tied.len()).min(tied.len() - 1),
        _ => 0,
    };
    let key = tied[pick];
    model.remove(&key).map(|e| (key.0, e))
}

/// The scheduler against a reference model: a `BTreeMap` keyed by
/// `(time, seq)`. Random interleavings of `schedule_at`, `pop`,
/// `cancel` (of pending, already-popped and already-cancelled ids),
/// `peek_time` and `len` must agree step for step, with and without a
/// choice source. Popping and cancelling free slab slots that later
/// `schedule_at` calls reuse, so stale ids are checked against reused
/// slots as well.
#[test]
fn scheduler_matches_reference_model() {
    let mut rng = SimRng::seed_from_u64(0x5EED_000A);
    for case in 0..96u64 {
        let with_choices = case % 2 == 1;
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
        // The model resolves ties with its own copy of the same source.
        let mut model_choice = RandomChoice(SimRng::seed_from_u64(0x3000 + case));
        if with_choices {
            s.set_choice_source(Rc::new(RefCell::new(RandomChoice(SimRng::seed_from_u64(
                0x3000 + case,
            )))));
        }
        let mut ids = Vec::new();
        let mut now = SimTime::ZERO;
        let mut next_seq = 0u64;
        // Coarse delays keep plenty of same-instant ties.
        let spread = 1 + rng.gen_range(12);
        for _step in 0..400 {
            match rng.gen_range(10) {
                0..=3 => {
                    let at = now + Duration::from_nanos(rng.gen_range(spread));
                    let id = s.schedule_at(at, next_seq);
                    model.insert((at, next_seq), next_seq);
                    ids.push((id, at, next_seq));
                    next_seq += 1;
                }
                4..=6 => {
                    let expected = model_pop(&mut model, with_choices.then_some(&mut model_choice));
                    let got = s.pop();
                    assert_eq!(got, expected, "case {case}: pop diverged");
                    if let Some((at, _)) = got {
                        now = at;
                    }
                    assert_eq!(s.now(), now);
                }
                7 | 8 if !ids.is_empty() => {
                    let (id, at, seq) = ids[rng.gen_range(ids.len() as u64) as usize];
                    let expected = model.remove(&(at, seq)).is_some();
                    assert_eq!(s.cancel(id), expected, "case {case}: cancel diverged");
                }
                _ => {
                    let expected = model.keys().next().map(|&(t, _)| t);
                    assert_eq!(s.peek_time(), expected, "case {case}: peek diverged");
                }
            }
            assert_eq!(s.len(), model.len(), "case {case}: len diverged");
            assert_eq!(s.is_empty(), model.is_empty());
        }
        // Drain: the rest pops in the model's order.
        while let Some(got) = s.pop() {
            let expected = model_pop(&mut model, with_choices.then_some(&mut model_choice));
            assert_eq!(Some(got), expected, "case {case}: drain diverged");
        }
        assert!(model.is_empty(), "case {case}: scheduler ran dry early");
    }
}

/// Serialization time is monotone in payload and frames never beat
/// light: arrival ≥ send + serialization + propagation.
#[test]
fn network_timing_laws() {
    let mut rng = SimRng::seed_from_u64(0x5EED_0003);
    for _case in 0..32 {
        let n = 1 + rng.gen_range(49) as usize;
        let payloads: Vec<usize> = (0..n).map(|_| 1 + rng.gen_range(1471) as usize).collect();
        let cfg = NetworkConfig::default();
        let mut net = NetworkModel::new(2, cfg.clone(), 1);
        let mut now = SimTime::ZERO;
        for &p in &payloads {
            let deliveries = net.multicast(NodeId(0), p, now);
            assert_eq!(deliveries.len(), 1);
            let min_arrival = now + cfg.serialization_time(p) + cfg.propagation_delay;
            assert!(deliveries[0].at >= min_arrival);
            now += Duration::from_nanos(1);
        }
    }
}

/// The medium serializes: two frames sent at the same instant arrive
/// strictly ordered, separated by at least the first frame's
/// serialization time.
#[test]
fn shared_medium_serializes() {
    let mut rng = SimRng::seed_from_u64(0x5EED_0004);
    for _case in 0..64 {
        let p1 = 1 + rng.gen_range(1471) as usize;
        let p2 = 1 + rng.gen_range(1471) as usize;
        let cfg = NetworkConfig::default();
        let mut net = NetworkModel::new(3, cfg.clone(), 2);
        let d1 = net.multicast(NodeId(0), p1, SimTime::ZERO);
        let d2 = net.multicast(NodeId(1), p2, SimTime::ZERO);
        assert!(d2[0].at >= d1[0].at + cfg.serialization_time(p2));
    }
}

/// frames_for × payload covers the message exactly.
#[test]
fn fragmentation_arithmetic() {
    let mut rng = SimRng::seed_from_u64(0x5EED_0005);
    let mut lens: Vec<usize> = (0..128)
        .map(|_| rng.gen_range(2_000_000) as usize)
        .collect();
    lens.extend([0, 1, 1472, 1473, 1_999_999]);
    for len in lens {
        let cfg = NetworkConfig::default();
        let frames = cfg.frames_for(len);
        assert!(frames >= 1);
        assert!(frames * cfg.frame_payload() >= len);
        if len > cfg.frame_payload() {
            assert!((frames - 1) * cfg.frame_payload() < len);
        }
    }
}

/// The PRNG stream is identical for identical seeds and the
/// exponential draw is always positive and finite.
#[test]
fn rng_reproducibility() {
    let mut seeder = SimRng::seed_from_u64(0x5EED_0006);
    for _case in 0..64 {
        let seed = seeder.next_u64();
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let e = a.exponential(3.0);
        assert!(e.is_finite() && e >= 0.0);
    }
}

#[test]
fn partition_isolation_is_symmetric_and_complete() {
    let mut net = NetworkModel::new(6, NetworkConfig::default(), 3);
    let left = [NodeId(0), NodeId(1), NodeId(2)];
    let right = [NodeId(3), NodeId(4), NodeId(5)];
    net.partition(&[&left, &right]);
    for &a in &left {
        for &b in &right {
            assert!(!net.can_reach(a, b), "{a}->{b}");
            assert!(!net.can_reach(b, a), "{b}->{a}");
        }
        for &a2 in &left {
            if a != a2 {
                assert!(net.can_reach(a, a2));
            }
        }
    }
    net.heal();
    for &a in &left {
        for &b in &right {
            assert!(net.can_reach(a, b));
        }
    }
}
