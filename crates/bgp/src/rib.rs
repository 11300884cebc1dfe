//! BGP routing information bases.
//!
//! Per-neighbor Adj-RIB-In tables (the path-vector analog of DBF's
//! neighbor cache) and the Loc-RIB of selected best paths. Selection is the
//! study's shortest-path policy: fewest ASes, ties to the lowest neighbor
//! id.

use netsim::dense::DenseMap;
use netsim::ident::NodeId;
use routing_core::path::AsPath;

/// Paths received from each neighbor, per destination.
///
/// Stored as a [`DenseMap`] of per-neighbor slot vectors: neighbor ids are
/// dense, so the tree the old `BTreeMap` maintained bought nothing, and
/// iteration stays in ascending neighbor id order (identical candidate
/// order, identical traces).
#[derive(Debug, Clone, Default)]
pub struct AdjRibIn {
    /// `paths[neighbor][dest]` = last announced path (already
    /// loop-filtered: a path containing the local AS is stored as `None`).
    paths: DenseMap<Vec<Option<AsPath>>>,
    num_dests: usize,
}

impl AdjRibIn {
    /// Creates tables for `num_dests` destinations.
    #[must_use]
    pub fn new(num_dests: usize) -> Self {
        AdjRibIn {
            paths: DenseMap::new(),
            num_dests,
        }
    }

    /// Records `path` as the latest announcement from `neighbor` for
    /// `dest`; `None` is a withdrawal.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is out of range.
    pub fn set(&mut self, neighbor: NodeId, dest: NodeId, path: Option<AsPath>) {
        assert!(dest.index() < self.num_dests, "{dest} out of range");
        let num_dests = self.num_dests;
        let table = self
            .paths
            .get_or_insert_with(neighbor, || vec![None; num_dests]);
        table[dest.index()] = path;
    }

    /// The stored path from `neighbor` for `dest`.
    #[must_use]
    pub fn get(&self, neighbor: NodeId, dest: NodeId) -> Option<&AsPath> {
        self.paths.get(neighbor)?.get(dest.index())?.as_ref()
    }

    /// Drops everything learned from `neighbor` (session reset).
    pub fn clear_neighbor(&mut self, neighbor: NodeId) {
        self.paths.remove(neighbor);
    }
}

/// The selected best route for one destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BestRoute {
    /// The selected AS path (not yet prepended with the local AS).
    pub path: AsPath,
    /// The announcing neighbor (`None` for the locally originated route).
    pub next_hop: Option<NodeId>,
}

/// Selects the best candidate for `dest`: shortest AS path, ties broken by
/// the lowest announcing neighbor id.
#[must_use]
pub fn select<'a, I>(candidates: I) -> Option<(NodeId, &'a AsPath)>
where
    I: IntoIterator<Item = (NodeId, &'a AsPath)>,
{
    candidates
        .into_iter()
        .min_by_key(|&(neighbor, path)| (path.len(), neighbor))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn path(hops: &[u32]) -> AsPath {
        AsPath::from_hops(hops.iter().map(|&h| n(h)).collect())
    }

    #[test]
    fn set_get_clear_round_trip() {
        let mut rib = AdjRibIn::new(4);
        rib.set(n(1), n(3), Some(path(&[1, 3])));
        assert_eq!(rib.get(n(1), n(3)), Some(&path(&[1, 3])));
        rib.set(n(1), n(3), None);
        assert_eq!(rib.get(n(1), n(3)), None);
        rib.set(n(1), n(2), Some(path(&[1, 2])));
        rib.clear_neighbor(n(1));
        assert_eq!(rib.get(n(1), n(2)), None);
    }

    #[test]
    fn selection_prefers_shorter_paths() {
        let short = path(&[1, 3]);
        let long = path(&[2, 0, 3]);
        let best = select(vec![(n(2), &long), (n(1), &short)]);
        assert_eq!(best, Some((n(1), &short)));
    }

    #[test]
    fn selection_ties_break_to_lowest_neighbor() {
        let a = path(&[4, 3]);
        let b = path(&[2, 3]);
        let best = select(vec![(n(4), &a), (n(2), &b)]);
        assert_eq!(best, Some((n(2), &b)));
    }

    #[test]
    fn selection_of_nothing_is_none() {
        assert_eq!(select(Vec::new()), None);
    }
}
