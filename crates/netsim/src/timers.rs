//! Pending-timer bookkeeping: a generational slot slab.
//!
//! Every protocol message arrival re-arms at least one timer, so timer
//! insert/cancel sits on the hot path. The old `BTreeMap<u64, entry>`
//! allocated a tree node per pending timer and paid a log-time walk per
//! operation; the slab stores entries in recycled `Vec` slots with O(1)
//! arm, cancel and fire. A [`TimerId`] packs the slot index (low 32
//! bits) with a per-slot generation (high 32 bits), so a stale id —
//! a fired event for a cancelled timer whose slot was since reused —
//! never matches the new occupant.
//!
//! Each entry also records its deadline and the calendar key that stands
//! for it, which is what makes a re-arm O(1). RIP and DBF refresh a
//! timeout on every update, so a refresh usually moves the deadline
//! *later*: the entry's deadline changes and nothing is queued. When the
//! old key pops, the engine sees the later deadline and re-pushes the key
//! at exactly the `(time, seq)` that cancel-plus-set would have queued,
//! so every event still fires in the same order. A re-arm to an earlier
//! deadline pushes a new key at once, and the old key, no longer the one
//! recorded, is dropped when it pops.

use crate::ident::NodeId;
use crate::protocol::{TimerId, TimerToken};
use crate::time::SimTime;

/// Whether a pending timer belongs to the node's routing protocol or its
/// application agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerTarget {
    Protocol,
    App,
}

/// A calendar position: ordered by time, then by sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct TimerKey {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
}

/// One armed timer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TimerEntry {
    pub(crate) owner: NodeId,
    pub(crate) token: TimerToken,
    pub(crate) target: TimerTarget,
    /// When the timer fires.
    pub(crate) deadline: TimerKey,
    /// The one queued calendar key that stands for this timer; never
    /// later than `deadline`.
    pub(crate) queued: TimerKey,
}

/// Slot-recycling store of armed timers.
#[derive(Debug, Default)]
pub(crate) struct TimerSlab {
    slots: Vec<Option<TimerEntry>>,
    /// Bumped each time a slot is re-armed, invalidating stale ids.
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl TimerSlab {
    pub(crate) fn new() -> Self {
        TimerSlab::default()
    }

    /// Arms a timer, returning its id.
    pub(crate) fn insert(&mut self, entry: TimerEntry) -> TimerId {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(entry);
                self.gens[slot as usize] = self.gens[slot as usize].wrapping_add(1);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("timer slab overflow");
                self.slots.push(Some(entry));
                self.gens.push(0);
                slot
            }
        };
        TimerId((u64::from(self.gens[slot as usize]) << 32) | u64::from(slot))
    }

    /// The slot of `id`, if its generation is still current.
    fn slot(&self, id: TimerId) -> Option<usize> {
        let slot = (id.0 & u64::from(u32::MAX)) as usize;
        let gen = (id.0 >> 32) as u32;
        (self.gens.get(slot) == Some(&gen)).then_some(slot)
    }

    /// The armed entry of `id`; `None` when the timer already fired, was
    /// cancelled, or the slot was reused since.
    pub(crate) fn get_mut(&mut self, id: TimerId) -> Option<&mut TimerEntry> {
        let slot = self.slot(id)?;
        self.slots[slot].as_mut()
    }

    /// Disarms `id` and returns its entry; `None` when the timer already
    /// fired, was cancelled, or the slot was reused since.
    pub(crate) fn take(&mut self, id: TimerId) -> Option<TimerEntry> {
        let slot = self.slot(id)?;
        let entry = self.slots[slot].take()?;
        self.free.push(slot as u32);
        Some(entry)
    }

    /// Disarms every timer for which `keep` returns `false` (node crash:
    /// the dying instance's timers go with it). Visits slots in index
    /// order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&TimerEntry) -> bool) {
        for (ix, slot) in self.slots.iter_mut().enumerate() {
            if let Some(entry) = slot {
                if !keep(entry) {
                    *slot = None;
                    self.free.push(ix as u32);
                }
            }
        }
    }

    /// Number of currently armed timers.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(owner: u32, token: u64) -> TimerEntry {
        let key = TimerKey {
            at: SimTime::ZERO,
            seq: token,
        };
        TimerEntry {
            owner: NodeId::new(owner),
            token: TimerToken(token),
            target: TimerTarget::Protocol,
            deadline: key,
            queued: key,
        }
    }

    #[test]
    fn arm_fire_round_trip() {
        let mut slab = TimerSlab::new();
        let id = slab.insert(entry(1, 42));
        let fired = slab.take(id).expect("armed timer fires");
        assert_eq!(fired.owner, NodeId::new(1));
        assert_eq!(fired.token, TimerToken(42));
        assert!(slab.take(id).is_none(), "second take is a no-op");
    }

    #[test]
    fn slots_are_recycled_without_id_collisions() {
        let mut slab = TimerSlab::new();
        let a = slab.insert(entry(1, 1));
        assert!(slab.take(a).is_some());
        let b = slab.insert(entry(2, 2));
        assert_ne!(a, b, "recycled slot must carry a new generation");
        // The stale id cannot cancel the slot's new occupant.
        assert!(slab.take(a).is_none());
        assert_eq!(slab.take(b).expect("b armed").owner, NodeId::new(2));
        assert_eq!(slab.len(), 0);
    }

    #[test]
    fn get_mut_sees_only_armed_timers() {
        let mut slab = TimerSlab::new();
        let a = slab.insert(entry(1, 1));
        slab.get_mut(a).expect("armed").deadline.seq = 9;
        assert_eq!(slab.take(a).expect("armed").deadline.seq, 9);
        assert!(slab.get_mut(a).is_none(), "fired timers are gone");
    }

    #[test]
    fn keys_order_by_time_then_sequence() {
        let key = |secs, seq| TimerKey {
            at: SimTime::from_secs(secs),
            seq,
        };
        assert!(key(1, 9) < key(2, 0));
        assert!(key(2, 0) < key(2, 1));
    }

    #[test]
    fn retain_disarms_matching_timers() {
        let mut slab = TimerSlab::new();
        let a = slab.insert(entry(1, 1));
        let b = slab.insert(entry(2, 2));
        slab.retain(|e| e.owner != NodeId::new(1));
        assert!(slab.take(a).is_none());
        assert!(slab.take(b).is_some());
    }

    #[test]
    fn high_slot_churn_stays_compact() {
        let mut slab = TimerSlab::new();
        for i in 0..1000 {
            let id = slab.insert(entry(0, i));
            assert!(slab.take(id).is_some());
        }
        assert_eq!(slab.slots.len(), 1, "one slot recycled a thousand times");
    }
}
