//! The discrete-event scheduler: a priority queue of `(time, event)`
//! pairs with a deterministic FIFO tie-break for events scheduled at the
//! same instant.
//!
//! The heap orders small `(time, seq, slot)` keys; event payloads sit in
//! a slab and move exactly twice (in on schedule, out on pop), however
//! deep the heap. Cancelling an event empties its slot and leaves a
//! tombstone key behind, discarded when it reaches the top of the heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::choice::{ChoiceKind, SharedChoiceSource};
use crate::time::{Duration, SimTime};

/// A handle that identifies a scheduled event so it can be cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

/// A heap key: the event's firing time, its scheduling sequence number
/// (the FIFO tie-break), and the slab slot holding its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A slab slot: the payload of the event scheduled with sequence number
/// `seq`, or `None` once it fired or was cancelled. A key whose `seq`
/// differs from its slot's, or whose slot is empty, is a tombstone.
#[derive(Debug)]
struct Slot<E> {
    seq: u64,
    event: Option<E>,
}

/// A deterministic discrete-event scheduler.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled (FIFO), which keeps whole-system simulations
/// reproducible run-to-run.
#[derive(Debug)]
pub struct Scheduler<E> {
    heap: BinaryHeap<Reverse<Key>>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    live: usize,
    now: SimTime,
    next_seq: u64,
    choices: Option<SharedChoiceSource>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            choices: None,
        }
    }

    /// Installs a [`ChoiceSource`](crate::choice::ChoiceSource) that
    /// resolves same-instant tie-breaks. With a source installed,
    /// whenever two or more pending events share the minimal timestamp
    /// the source picks which one pops next ([`ChoiceKind::Tie`], branch
    /// `i` = the `i`-th tied entry in FIFO order). Branch `0` reproduces
    /// the default FIFO schedule exactly.
    pub fn set_choice_source(&mut self, source: SharedChoiceSource) {
        self.choices = Some(source);
    }

    /// Removes the installed choice source, restoring pure FIFO
    /// tie-breaking.
    pub fn clear_choice_source(&mut self) {
        self.choices = None;
    }

    /// Returns `true` if a choice source is installed.
    pub fn has_choice_source(&self) -> bool {
        self.choices.is_some()
    }

    /// The current virtual time: the timestamp of the most recently
    /// popped event (or zero if none has been popped).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current time (events cannot
    /// be scheduled in the past).
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule event in the past ({time} < {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let filled = Slot {
            seq,
            event: Some(event),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = filled;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 pending events");
                self.slots.push(filled);
                slot
            }
        };
        self.live += 1;
        self.heap.push(Reverse(Key { time, seq, slot }));
        EventId { seq, slot }
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: Duration, event: E) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// was still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.take(id.seq, id.slot).is_some()
    }

    /// Whether `key` still names a pending event.
    fn is_live(&self, key: &Key) -> bool {
        let slot = &self.slots[key.slot as usize];
        slot.seq == key.seq && slot.event.is_some()
    }

    /// Empties the slot of the event scheduled as `seq`, if it is still
    /// pending there, and frees the slot for reuse.
    fn take(&mut self, seq: u64, slot: u32) -> Option<E> {
        let s = self.slots.get_mut(slot as usize)?;
        if s.seq != seq {
            return None;
        }
        let event = s.event.take()?;
        self.free.push(slot);
        self.live -= 1;
        Some(event)
    }

    /// Pops heap keys until a live one surfaces (tombstones discarded).
    fn pop_live(&mut self) -> Option<Key> {
        while let Some(Reverse(key)) = self.heap.pop() {
            if self.is_live(&key) {
                return Some(key);
            }
        }
        None
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Cancelled events are skipped. Returns `None` when the
    /// queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.choices.is_some() {
            return self.pop_with_choices();
        }
        let key = self.pop_live()?;
        self.fire(key)
    }

    /// Takes the payload of the live `key` and advances the clock.
    fn fire(&mut self, key: Key) -> Option<(SimTime, E)> {
        let event = self.take(key.seq, key.slot)?;
        self.now = key.time;
        Some((key.time, event))
    }

    /// `pop` with an installed choice source: gather every live key
    /// tied at the minimal timestamp, let the source pick one, and push
    /// the rest back (they keep their original `seq`, so FIFO order
    /// among them is preserved for the next tie).
    fn pop_with_choices(&mut self) -> Option<(SimTime, E)> {
        let first = self.pop_live()?;
        // Collect the rest of the tie set; heap pops in (time, seq)
        // order, so `tied` is FIFO-ordered.
        let mut tied = vec![first];
        while let Some(&Reverse(top)) = self.heap.peek() {
            if !self.is_live(&top) {
                self.heap.pop();
                continue;
            }
            if top.time != first.time {
                break;
            }
            self.heap.pop();
            tied.push(top);
        }
        let pick = if tied.len() >= 2 {
            let source = self.choices.clone().expect("choice source installed");
            let branch = source.borrow_mut().choose(ChoiceKind::Tie, tied.len());
            branch.min(tied.len() - 1)
        } else {
            0
        };
        let chosen = tied.swap_remove(pick);
        for key in tied {
            self.heap.push(Reverse(key));
        }
        self.fire(chosen)
    }

    /// Returns the timestamp of the next pending event without removing
    /// it. Lazily discards cancelled entries from the top of the heap.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse(key)) = self.heap.peek() {
            if self.is_live(&key) {
                return Some(key.time);
            }
            self.heap.pop();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(30), "c");
        s.schedule_at(SimTime::from_nanos(10), "a");
        s.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut s = Scheduler::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            s.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_popped_event() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(42), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_nanos(42));
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(100), 1u32);
        s.pop();
        s.schedule_after(Duration::from_nanos(10), 2u32);
        let (t, e) = s.pop().unwrap();
        assert_eq!(e, 2);
        assert_eq!(t, SimTime::from_nanos(110));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(100), ());
        s.pop();
        s.schedule_at(SimTime::from_nanos(50), ());
    }

    #[test]
    fn cancel_removes_event() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_nanos(10), "a");
        s.schedule_at(SimTime::from_nanos(20), "b");
        assert_eq!(s.len(), 2);
        assert!(s.cancel(a));
        assert!(!s.cancel(a), "double-cancel reports false");
        assert_eq!(s.len(), 1);
        let (_, e) = s.pop().unwrap();
        assert_eq!(e, "b");
        assert!(s.pop().is_none());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_nanos(10), "a");
        s.schedule_at(SimTime::from_nanos(20), "b");
        assert_eq!(s.peek_time(), Some(SimTime::from_nanos(10)));
        s.cancel(a);
        assert_eq!(s.peek_time(), Some(SimTime::from_nanos(20)));
    }

    #[test]
    fn empty_scheduler_behaviour() {
        let mut s: Scheduler<()> = Scheduler::new();
        assert!(s.is_empty());
        assert_eq!(s.peek_time(), None);
        assert!(s.pop().is_none());
    }

    use crate::choice::{ChoiceKind, ChoiceSource, FifoChoice};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Test source: replays a fixed list of branches, then defaults.
    #[derive(Debug)]
    struct Scripted {
        branches: Vec<usize>,
        at: usize,
        asked: Vec<usize>,
    }

    impl Scripted {
        fn new(branches: Vec<usize>) -> Rc<RefCell<Self>> {
            Rc::new(RefCell::new(Scripted {
                branches,
                at: 0,
                asked: Vec::new(),
            }))
        }
    }

    impl ChoiceSource for Scripted {
        fn choose(&mut self, _kind: ChoiceKind, arity: usize) -> usize {
            self.asked.push(arity);
            let b = self.branches.get(self.at).copied().unwrap_or(0);
            self.at += 1;
            b
        }
    }

    #[test]
    fn fifo_choice_source_matches_no_source() {
        let build = |with_source: bool| {
            let mut s = Scheduler::new();
            if with_source {
                s.set_choice_source(Rc::new(RefCell::new(FifoChoice)));
            }
            let t = SimTime::from_nanos(5);
            for i in 0..20 {
                s.schedule_at(t, i);
            }
            s.schedule_at(SimTime::from_nanos(9), 99);
            std::iter::from_fn(|| s.pop()).collect::<Vec<_>>()
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn tie_break_choice_permutes_same_instant_entries() {
        let mut s = Scheduler::new();
        let src = Scripted::new(vec![2, 1]);
        s.set_choice_source(src.clone());
        let t = SimTime::from_nanos(5);
        for i in 0..3 {
            s.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        // First pick: branch 2 of [0,1,2] -> 2. Second: branch 1 of
        // [0,1] -> 1. Last: arity 1, no query, pops 0.
        assert_eq!(order, vec![2, 1, 0]);
        assert_eq!(src.borrow().asked, vec![3, 2]);
    }

    #[test]
    fn choice_source_not_consulted_for_singletons() {
        let mut s = Scheduler::new();
        let src = Scripted::new(vec![]);
        s.set_choice_source(src.clone());
        for i in 0..5u64 {
            s.schedule_at(SimTime::from_nanos(10 * (i + 1)), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(src.borrow().asked.is_empty());
    }

    #[test]
    fn cancelled_entries_never_join_a_tie_set() {
        let mut s = Scheduler::new();
        let src = Scripted::new(vec![1, 1, 1, 1]);
        s.set_choice_source(src.clone());
        let t = SimTime::from_nanos(5);
        s.schedule_at(t, "a");
        let b = s.schedule_at(t, "b");
        s.schedule_at(t, "c");
        s.cancel(b);
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert!(!order.contains(&"b"), "cancelled entry fired: {order:?}");
        assert_eq!(order, vec!["c", "a"]);
        // Only one real tie (arity 2): the cancelled entry is excluded.
        assert_eq!(src.borrow().asked, vec![2]);
    }

    #[test]
    fn cancelling_a_permuted_entry_still_works() {
        // Permute a tie so a later-seq entry pops first, then cancel one
        // of the re-pushed survivors: it must never fire.
        let mut s = Scheduler::new();
        let src = Scripted::new(vec![2]);
        s.set_choice_source(src);
        let t = SimTime::from_nanos(5);
        let a = s.schedule_at(t, "a");
        s.schedule_at(t, "b");
        s.schedule_at(t, "c");
        let (_, first) = s.pop().unwrap();
        assert_eq!(first, "c");
        s.cancel(a);
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["b"]);
    }

    #[test]
    fn out_of_range_branch_clamps_to_last() {
        let mut s = Scheduler::new();
        s.set_choice_source(Scripted::new(vec![usize::MAX]));
        let t = SimTime::from_nanos(5);
        s.schedule_at(t, "a");
        s.schedule_at(t, "b");
        let (_, first) = s.pop().unwrap();
        assert_eq!(first, "b");
    }

    #[test]
    fn clear_choice_source_restores_fifo() {
        let mut s = Scheduler::new();
        s.set_choice_source(Scripted::new(vec![1, 1, 1]));
        assert!(s.has_choice_source());
        s.clear_choice_source();
        assert!(!s.has_choice_source());
        let t = SimTime::from_nanos(5);
        for i in 0..4 {
            s.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }
}
