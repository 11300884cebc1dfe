//! The simulator's event calendar.
//!
//! Ordering is keyed on `(time, sequence)` where the sequence number makes
//! ordering stable: two events scheduled for the same instant fire in the
//! order they were scheduled. This is what makes runs deterministic.
//!
//! Internally the queue is an *indexed* 4-ary min-heap over packed
//! `u128` keys: the time in nanoseconds in the high 64 bits, then the
//! sequence number in 40 bits, then the slab slot in 24 bits. Comparing
//! two keys is one integer compare and yields exactly the `(time, seq)`
//! order, because no two pending keys share a sequence number. The
//! [`EventKind`] payloads — which carry whole frames, packets and even
//! boxed protocol instances — sit still in a slab with a free list, and
//! popped slots are recycled, so a steady-state run stops allocating once
//! the calendar reaches its high-water mark. A 4-ary heap is half as deep
//! as a binary one, so a pop moves half as many keys. The packing caps a queue's life at 2^40 sequence numbers
//! and 2^24 simultaneously pending events; [`EventQueue::push`] checks
//! both.
//!
//! Timers are the one event kind whose key may outlive its meaning: a
//! cancelled timer's key stays queued, and a re-armed timer keeps the key
//! it already has when its deadline only moves later. A
//! [`EventKind::TimerFired`] therefore carries the sequence number of its
//! own key, which the engine checks against the timer's slab entry when
//! the key pops (see [`crate::timers`]).

use crate::ident::{LinkId, NodeId};
use crate::impairment::Impairment;
use crate::link::Frame;
use crate::packet::Packet;
use crate::protocol::{RoutingProtocol, TimerId};
use crate::time::SimTime;

/// A fresh protocol instance carried by a [`EventKind::NodeRestart`] event.
///
/// Wrapped so the event enum stays `Debug` even though
/// [`RoutingProtocol`] implementations need not be.
pub(crate) struct FreshProtocol(pub(crate) Box<dyn RoutingProtocol>);

impl std::fmt::Debug for FreshProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FreshProtocol({})", self.0.name())
    }
}

/// An event to be processed by the simulation engine.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// The transmitter of `channel` finished serializing its current frame.
    /// `epoch` guards against stale events after a link failure cleared the
    /// transmitter.
    FrameSerialized {
        channel: crate::ident::ChannelId,
        epoch: u64,
    },
    /// A frame finished propagating and arrives at the channel's head node.
    FrameArrived {
        channel: crate::ident::ChannelId,
        frame: Frame,
    },
    /// A timer's calendar key came due. `seq` is the key's own sequence
    /// number: the timer fires only if the key still stands for it and its
    /// deadline has not moved later.
    TimerFired { timer: TimerId, seq: u64 },
    /// Both directions of `link` go down.
    LinkFail { link: LinkId },
    /// Both directions of `link` come back up.
    LinkRecover { link: LinkId },
    /// `node` locally detects that its attachment to `link` changed state.
    LinkStateDetected { node: NodeId, link: LinkId, up: bool },
    /// A traffic source injects a data packet at its attachment node.
    InjectPacket { packet: Packet },
    /// The impairment of both channels of `link` changes to `impairment`
    /// (the onset or the end of a lossy period).
    SetImpairment { link: LinkId, impairment: Impairment },
    /// `node` reboots with cold routing state: its FIB is wiped, its
    /// pending protocol timers die and `protocol` replaces the crashed
    /// instance.
    NodeRestart { node: NodeId, protocol: FreshProtocol },
}

/// Bits of a packed key that hold the slab slot (its lowest bits).
const SLOT_BITS: u32 = 24;
/// Bits of a packed key that hold the sequence number, above the slot.
const SEQ_BITS: u32 = 40;
/// Children per heap node.
const ARITY: usize = 4;

/// Packs `(at, seq, slot)` into one key whose integer order is the
/// `(time, seq)` order.
fn pack(at: SimTime, seq: u64, slot: u32) -> u128 {
    (u128::from(at.as_nanos()) << 64) | (u128::from(seq) << SLOT_BITS) | u128::from(slot)
}

/// The time of a packed key.
fn key_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// The slab slot of a packed key.
fn key_slot(key: u128) -> usize {
    (key as usize) & ((1 << SLOT_BITS) - 1)
}

/// Slots pre-allocated on construction; the busiest paper runs keep a few
/// thousand events in flight, so most runs never grow the calendar.
const INITIAL_CAPACITY: usize = 1024;

/// A deterministic future-event list.
#[derive(Debug)]
pub(crate) struct EventQueue {
    /// 4-ary min-heap of packed keys: the children of `heap[i]` are
    /// `heap[4i + 1..=4i + 4]`.
    heap: Vec<u128>,
    /// Payload slab indexed by a key's slot bits; `None` marks a free slot.
    slab: Vec<Option<EventKind>>,
    /// Recyclable slab slots (popped events release theirs).
    free: Vec<u32>,
    next_seq: u64,
    now: SimTime,
    /// Peak number of simultaneously pending events.
    high_water: u64,
    /// Keys pushed over the queue's life.
    pushes: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: Vec::with_capacity(INITIAL_CAPACITY),
            slab: Vec::with_capacity(INITIAL_CAPACITY),
            free: Vec::with_capacity(INITIAL_CAPACITY),
            next_seq: 0,
            now: SimTime::ZERO,
            high_water: 0,
            pushes: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `kind` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub(crate) fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq();
        self.push(at, seq, kind);
    }

    /// Reserves the next sequence number: its holder orders after every
    /// event scheduled so far, and before every one scheduled later.
    pub(crate) fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Queues `kind` under the key `(at, seq)`, where `seq` came from
    /// [`EventQueue::next_seq`] and keys no other pending event.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, or if the key does not fit its
    /// packing: `seq` must be below 2^40 and fewer than 2^24 events may be
    /// pending.
    pub(crate) fn push(&mut self, at: SimTime, seq: u64, kind: EventKind) {
        assert!(
            at >= self.now,
            "attempt to schedule an event at {at} before now {}",
            self.now
        );
        assert!(
            seq >> SEQ_BITS == 0 && self.heap.len() >> SLOT_BITS == 0,
            "calendar key limits exceeded: sequence number {seq} (limit 2^{SEQ_BITS}), \
             {} pending events (limit 2^{SLOT_BITS})",
            self.heap.len()
        );
        debug_assert!(seq < self.next_seq, "sequence number was not reserved");
        // With no free slot every slab slot is pending, so a fresh slot
        // index equals the pending count checked above.
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(kind);
                slot
            }
            None => {
                self.slab.push(Some(kind));
                (self.slab.len() - 1) as u32
            }
        };
        self.sift_up(pack(at, seq, slot));
        self.pushes += 1;
        self.high_water = self.high_water.max(self.heap.len() as u64);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let last = self.heap.pop()?;
        let key = match self.heap.first().copied() {
            Some(top) => {
                self.sift_down(last);
                top
            }
            None => last,
        };
        let time = key_time(key);
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        let slot = key_slot(key);
        let kind = self.slab[slot]
            .take()
            .expect("heap key points at an occupied slab slot");
        self.free.push(slot as u32);
        Some((time, kind))
    }

    /// Appends `key` and moves it up to its place.
    fn sift_up(&mut self, key: u128) {
        let mut hole = self.heap.len();
        self.heap.push(key);
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if self.heap[parent] <= key {
                break;
            }
            self.heap[hole] = self.heap[parent];
            hole = parent;
        }
        self.heap[hole] = key;
    }

    /// Replaces the root with `key` and moves it down to its place.
    fn sift_down(&mut self, key: u128) {
        let len = self.heap.len();
        let mut hole = 0;
        loop {
            let first = ARITY * hole + 1;
            if first >= len {
                break;
            }
            let mut child = first;
            for c in first + 1..(first + ARITY).min(len) {
                if self.heap[c] < self.heap[child] {
                    child = c;
                }
            }
            if key <= self.heap[child] {
                break;
            }
            self.heap[hole] = self.heap[child];
            hole = child;
        }
        self.heap[hole] = key;
    }

    /// Timestamp of the next event without popping it.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|&key| key_time(key))
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Peak number of simultaneously pending events over the queue's life.
    pub(crate) fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Keys pushed over the queue's life.
    pub(crate) fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Advances the clock to `t` without processing anything (the end of a
    /// bounded `run_until` window), so external interactions after the run
    /// happen at the window boundary rather than at the last event.
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            debug_assert!(self.peek_time().is_none_or(|next| next >= t));
            self.now = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::ChannelId;

    fn marker(ch: u32) -> EventKind {
        EventKind::FrameSerialized {
            channel: ChannelId::new(ch),
            epoch: 0,
        }
    }

    fn channel_of(kind: &EventKind) -> u32 {
        match kind {
            EventKind::FrameSerialized { channel, .. } => channel.index() as u32,
            _ => panic!("unexpected event"),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), marker(3));
        q.schedule(SimTime::from_secs(1), marker(1));
        q.schedule(SimTime::from_secs(2), marker(2));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| channel_of(&k))
            .collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..10 {
            q.schedule(t, marker(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| channel_of(&k))
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), marker(0));
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), marker(0));
        q.pop();
        q.schedule(SimTime::from_secs(1), marker(1));
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::new();
        // Interleave schedule/pop so the in-flight count stays at one; the
        // slab must not grow beyond that high-water mark.
        for i in 0..100 {
            q.schedule(SimTime::from_secs(i + 1), marker(i as u32));
            let (_, kind) = q.pop().unwrap();
            assert_eq!(channel_of(&kind), i as u32);
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.slab.len(), 1, "one slot recycled a hundred times");
    }

    #[test]
    fn reserved_sequence_numbers_order_by_reservation() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        let early = q.next_seq();
        q.schedule(t, marker(1));
        // Pushed last, but its reserved number predates marker 1's.
        q.push(t, early, marker(0));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| channel_of(&k))
            .collect();
        assert_eq!(order, [0, 1]);
        assert_eq!(q.pushes(), 2);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(700), marker(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(700)));
        assert_eq!(q.len(), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(700));
        assert!(q.pop().is_none());
    }
}

/// The packed 4-ary calendar against a `BTreeSet<(time, seq)>` reference.
#[cfg(test)]
mod equivalence {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;
    use crate::ident::ChannelId;
    use crate::time::SimDuration;

    /// An event that names its own sequence number and payload id.
    fn tagged(seq: u64, id: u32) -> EventKind {
        EventKind::FrameSerialized {
            channel: ChannelId::new(id),
            epoch: seq,
        }
    }

    /// `(time_ns, seq, id)` of a popped [`tagged`] event.
    fn untag(time: SimTime, kind: &EventKind) -> (u64, u64, u32) {
        match kind {
            EventKind::FrameSerialized { channel, epoch } => {
                (time.as_nanos(), *epoch, channel.index() as u32)
            }
            other => unreachable!("only tagged events are queued, got {other:?}"),
        }
    }

    /// Pops one event from each queue; both must agree.
    fn pop_both(
        q: &mut EventQueue,
        reference: &mut BTreeSet<(u64, u64, u32)>,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            q.peek_time().map(SimTime::as_nanos),
            reference.first().map(|&(t, _, _)| t)
        );
        let got = q.pop().map(|(t, kind)| untag(t, &kind));
        prop_assert_eq!(got, reference.pop_first());
        prop_assert_eq!(q.len(), reference.len());
        Ok(())
    }

    /// Runs `script` on a queue whose clock starts at `base_ns` and whose
    /// sequence numbers start at `first_seq`, checking every pop against
    /// the reference and draining both at the end.
    ///
    /// Steps are `(op, delta, pick)`: op 0–1 schedules at `now + delta`
    /// ms, op 2 pops, op 3 reserves a sequence number, op 4 pushes the
    /// `pick`-th held reservation at `now + delta` ms. Deltas of 0–3 ms
    /// make many keys share a timestamp.
    fn check(
        base_ns: u64,
        first_seq: u64,
        script: &[(u8, u64, usize)],
    ) -> Result<(), TestCaseError> {
        let mut q = EventQueue::new();
        q.advance_to(SimTime::from_nanos(base_ns));
        q.next_seq = first_seq;
        let mut reference = BTreeSet::new();
        let mut held: Vec<u64> = Vec::new();
        let mut next_id = 0_u32;
        for &(op, delta, pick) in script {
            let at = q.now() + SimDuration::from_millis(delta);
            match op {
                0 | 1 => {
                    let seq = q.next_seq;
                    q.schedule(at, tagged(seq, next_id));
                    reference.insert((at.as_nanos(), seq, next_id));
                    next_id += 1;
                }
                2 => pop_both(&mut q, &mut reference)?,
                3 => held.push(q.next_seq()),
                _ if !held.is_empty() => {
                    let seq = held.swap_remove(pick % held.len());
                    q.push(at, seq, tagged(seq, next_id));
                    reference.insert((at.as_nanos(), seq, next_id));
                    next_id += 1;
                }
                _ => {}
            }
        }
        while !reference.is_empty() {
            pop_both(&mut q, &mut reference)?;
        }
        prop_assert!(q.pop().is_none());
        // Popped slots are recycled: the slab never outgrows the peak.
        prop_assert_eq!(q.slab.len() as u64, q.high_water());
        prop_assert_eq!(q.free.len(), q.slab.len());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn packed_calendar_pops_like_a_btreeset(
            script in prop::collection::vec((0_u8..5, 0_u64..4, 0_usize..8), 1..300),
            start in prop::sample::select(vec![
                (0_u64, 0_u64),
                // A clock near the top of `SimTime` and sequence numbers
                // running up to the 2^40 limit.
                (u64::MAX - (1 << 40), (1 << SEQ_BITS) - 300),
            ]),
        ) {
            check(start.0, start.1, &script)?;
        }
    }

    #[test]
    fn keys_at_the_packed_limits_order_by_time_then_seq() {
        let top = SimTime::from_nanos(u64::MAX);
        let mut q = EventQueue::new();
        q.next_seq = (1 << SEQ_BITS) - 3;
        let a = q.next_seq();
        let b = q.next_seq();
        let c = q.next_seq();
        q.push(top, c, tagged(c, 2));
        q.push(top, a, tagged(a, 0));
        q.push(SimTime::from_nanos(u64::MAX - 1), b, tagged(b, 1));
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(t, kind)| untag(t, &kind))
            .collect();
        assert_eq!(
            order,
            [(u64::MAX - 1, b, 1), (u64::MAX, a, 0), (u64::MAX, c, 2)]
        );
    }

    #[test]
    #[should_panic(expected = "calendar key limits exceeded")]
    fn a_sequence_number_beyond_40_bits_is_refused() {
        let mut q = EventQueue::new();
        q.next_seq = 1 << SEQ_BITS;
        q.schedule(SimTime::from_secs(1), tagged(0, 0));
    }
}
