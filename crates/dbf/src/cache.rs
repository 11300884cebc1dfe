//! The per-neighbor distance-vector table that distinguishes DBF from RIP.
//!
//! Keeping the latest vector from *every* neighbor gives a router an
//! instant answer to "who else can reach this destination?" — the zero-time
//! path switch-over of paper §4.1. The table stores advertisements verbatim
//! (including poisoned infinities), so a neighbor that routes through us
//! correctly offers no alternate.

use routing_core::Metric;

/// Latest advertised distance vectors, destination-major and indexed by
/// adjacency slot (a neighbor's position in
/// [`netsim::simulator::ProtocolContext::links`]).
///
/// Route selection for one destination is the hot loop of DBF: it reads
/// that destination's row, one contiguous entry per link, side by side
/// with the node's link view. A neighbor never heard from, or forgotten
/// after a failure, reads as [`Metric::INFINITY`], which offers no route
/// just as an advertised infinity does.
#[derive(Debug, Clone, Default)]
pub struct VectorTable {
    /// `metrics[dest * width + slot]` = what the neighbor on `slot` last
    /// advertised for `dest`.
    metrics: Vec<Metric>,
    /// Number of adjacency slots (the node's degree).
    width: usize,
}

impl VectorTable {
    /// Creates a table for `num_dests` destinations and `width` adjacency
    /// slots, with nothing heard yet.
    #[must_use]
    pub fn new(num_dests: usize, width: usize) -> Self {
        VectorTable {
            metrics: vec![Metric::INFINITY; num_dests * width],
            width,
        }
    }

    /// Records that the neighbor on `slot` advertised `metric` for `dest`.
    ///
    /// # Panics
    ///
    /// Panics if `dest` or `slot` is out of range.
    pub fn update(&mut self, slot: usize, dest: usize, metric: Metric) {
        assert!(slot < self.width, "slot {slot} out of range");
        self.metrics[dest * self.width + slot] = metric;
    }

    /// What each slot's neighbor last advertised for `dest`, in slot order.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is out of range.
    #[must_use]
    pub fn row(&self, dest: usize) -> &[Metric] {
        &self.metrics[dest * self.width..(dest + 1) * self.width]
    }

    /// Forgets everything learned from the neighbor on `slot` (link
    /// failure or staleness timeout).
    pub fn invalidate(&mut self, slot: usize) {
        if slot < self.width {
            for metric in self.metrics.iter_mut().skip(slot).step_by(self.width) {
                *metric = Metric::INFINITY;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_and_lookup() {
        let mut t = VectorTable::new(4, 2);
        t.update(1, 3, Metric::new(2));
        assert_eq!(t.row(3), [Metric::INFINITY, Metric::new(2)]);
        assert_eq!(t.row(2), [Metric::INFINITY; 2]);
    }

    #[test]
    fn poisoned_entries_are_remembered() {
        let mut t = VectorTable::new(4, 2);
        t.update(0, 3, Metric::new(1));
        t.update(0, 3, Metric::INFINITY);
        assert_eq!(t.row(3)[0], Metric::INFINITY);
    }

    #[test]
    fn invalidate_forgets_one_slot_for_every_destination() {
        let mut t = VectorTable::new(3, 3);
        for dest in 0..3 {
            for slot in 0..3 {
                t.update(slot, dest, Metric::new(1));
            }
        }
        t.invalidate(1);
        for dest in 0..3 {
            assert_eq!(
                t.row(dest),
                [Metric::new(1), Metric::INFINITY, Metric::new(1)]
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unknown_slots_are_rejected() {
        VectorTable::new(4, 2).update(2, 0, Metric::new(1));
    }
}
