//! The runtime state-dependency graph of one transaction (§4).
//!
//! Vertices are the transaction's lock states `0..=p`; every write to an
//! entity or local variable with index of restorability `u`, performed at
//! lock index `w`, contributes the edge `{u, w}`. A lock state `q` is
//! **well-defined** — reproducible from the single-copy workspace — iff no
//! edge spans it (`u < q < w`, Theorem 4). The graph is maintained
//! incrementally: creating a lock state and recording a write are both
//! O(span); querying and truncating on rollback are linear in the worst
//! case and tiny in practice ("the overhead in maintaining a state
//! dependency graph is clearly very low").

use pr_model::LockIndex;

/// Incrementally maintained state-dependency graph.
///
/// ```
/// use pr_graph::StateDependencyGraph;
/// use pr_model::LockIndex;
///
/// let mut g = StateDependencyGraph::new();
/// for _ in 0..3 {
///     g.on_lock_state();
/// }
/// // A re-write at lock index 3 of an entity first written right after
/// // lock state 0 destroys lock states 1 and 2 (Theorem 4).
/// g.on_write(LockIndex::new(0), LockIndex::new(3));
/// assert!(!g.is_well_defined(LockIndex::new(2)));
/// assert_eq!(g.latest_well_defined_at_or_below(LockIndex::new(2)), LockIndex::ZERO);
/// ```
#[derive(Clone, Debug, Default)]
pub struct StateDependencyGraph {
    /// Write edges `(u, w)` with `u < w` (non-spanning edges are dropped).
    edges: Vec<(u32, u32)>,
    /// `cover[q]` = number of edges spanning lock state `q`.
    /// `cover.len() - 1` = the current (most recent) lock state index `p`.
    cover: Vec<u32>,
}

impl StateDependencyGraph {
    /// Creates the graph for a transaction with no lock states yet (only
    /// the trivial lock state 0 exists).
    pub fn new() -> Self {
        StateDependencyGraph { edges: Vec::new(), cover: vec![0] }
    }

    /// Current highest lock state index `p`.
    pub fn current(&self) -> LockIndex {
        LockIndex::new((self.cover.len() - 1) as u32)
    }

    /// Registers the creation of a new lock state (a lock request was
    /// issued). No existing edge can span it: every recorded write has
    /// `w <=` the previous top, so the new vertex starts uncovered.
    pub fn on_lock_state(&mut self) {
        self.cover.push(0);
    }

    /// Records a write with restorability index `u` at lock index `w`,
    /// covering states `u < q < w`.
    pub fn on_write(&mut self, u: LockIndex, w: LockIndex) {
        let (u, w) = (u.raw(), w.raw());
        debug_assert!(
            (w as usize) < self.cover.len() + 1,
            "write lock index beyond current lock state"
        );
        if w <= u + 1 {
            return; // spans nothing
        }
        self.edges.push((u, w));
        for q in (u + 1)..w.min(self.cover.len() as u32) {
            self.cover[q as usize] += 1;
        }
    }

    /// Whether lock state `q` is well-defined (Theorem 4).
    pub fn is_well_defined(&self, q: LockIndex) -> bool {
        self.cover.get(q.index()).copied() == Some(0)
    }

    /// The deepest well-defined lock state at or below `q` — the state an
    /// SDG rollback aimed at `q` actually lands on. Lock state 0 is always
    /// well-defined (total rollback), so this always succeeds for `q <= p`.
    pub fn latest_well_defined_at_or_below(&self, q: LockIndex) -> LockIndex {
        let mut q = q.index().min(self.cover.len() - 1);
        while self.cover[q] != 0 {
            debug_assert!(q > 0, "lock state 0 is never covered");
            q -= 1;
        }
        LockIndex::new(q as u32)
    }

    /// All well-defined lock states, ascending.
    pub fn well_defined_states(&self) -> Vec<LockIndex> {
        self.cover
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == 0)
            .map(|(q, _)| LockIndex::new(q as u32))
            .collect()
    }

    /// Number of lock states rendered undefined.
    pub fn undefined_count(&self) -> usize {
        self.cover.iter().filter(|&&c| c != 0).count()
    }

    /// Truncates the graph after a rollback to lock state `target`: edges
    /// produced by undone writes (`w > target`) disappear, and lock states
    /// above `target` no longer exist.
    pub fn rollback_to(&mut self, target: LockIndex) {
        let t = target.raw();
        self.edges.retain(|&(_, w)| w <= t);
        self.cover.truncate(t as usize + 1);
        // Recompute coverage for the surviving prefix (edges with w <= t
        // may still span states <= t; their contributions are unchanged,
        // but simplest-correct is a rebuild — the prefix is short).
        for c in &mut self.cover {
            *c = 0;
        }
        let edges = std::mem::take(&mut self.edges);
        for &(u, w) in &edges {
            for q in (u + 1)..w.min(self.cover.len() as u32) {
                self.cover[q as usize] += 1;
            }
        }
        self.edges = edges;
    }

    /// The raw edges, for the articulation-point cross-check and rendering.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn li(i: u32) -> LockIndex {
        LockIndex::new(i)
    }

    /// Builds a graph with `n` lock states and the given write edges.
    fn graph(n: u32, edges: &[(u32, u32)]) -> StateDependencyGraph {
        let mut g = StateDependencyGraph::new();
        let mut created = 0;
        // Interleave lock-state creation and writes in lock-index order.
        for &(u, w) in edges {
            while created < w {
                g.on_lock_state();
                created += 1;
            }
            g.on_write(li(u), li(w));
        }
        while created < n {
            g.on_lock_state();
            created += 1;
        }
        g
    }

    #[test]
    fn fresh_graph_has_only_state_zero() {
        let g = StateDependencyGraph::new();
        assert_eq!(g.current(), li(0));
        assert!(g.is_well_defined(li(0)));
        assert_eq!(g.well_defined_states(), vec![li(0)]);
    }

    #[test]
    fn non_spanning_writes_leave_everything_well_defined() {
        // First write to each entity right after its lock: edges (k-1, k).
        let g = graph(4, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(g.well_defined_states().len(), 5);
        assert_eq!(g.undefined_count(), 0);
        assert!(g.edges().is_empty(), "non-spanning edges are dropped");
    }

    #[test]
    fn spanning_write_destroys_interior_states() {
        let g = graph(4, &[(0, 3)]);
        assert!(g.is_well_defined(li(0)));
        assert!(!g.is_well_defined(li(1)));
        assert!(!g.is_well_defined(li(2)));
        assert!(g.is_well_defined(li(3)));
        assert!(g.is_well_defined(li(4)));
        assert_eq!(g.undefined_count(), 2);
    }

    #[test]
    fn latest_well_defined_walks_down() {
        let g = graph(5, &[(1, 4)]);
        assert_eq!(g.latest_well_defined_at_or_below(li(5)), li(5));
        assert_eq!(g.latest_well_defined_at_or_below(li(4)), li(4));
        assert_eq!(g.latest_well_defined_at_or_below(li(3)), li(1));
        assert_eq!(g.latest_well_defined_at_or_below(li(2)), li(1));
        assert_eq!(g.latest_well_defined_at_or_below(li(1)), li(1));
        assert_eq!(g.latest_well_defined_at_or_below(li(0)), li(0));
    }

    #[test]
    fn overlapping_edges_accumulate() {
        let mut g = graph(4, &[(0, 2), (1, 3)]);
        // State 1 covered by (0,2); state 2 covered by both.
        assert!(!g.is_well_defined(li(1)));
        assert!(!g.is_well_defined(li(2)));
        assert!(g.is_well_defined(li(3)));
        // Rolling back to 3 keeps both edges (w ≤ 3).
        g.rollback_to(li(3));
        assert!(!g.is_well_defined(li(2)));
        // Rolling back to 1 drops the (1,3) edge and truncates; only
        // states 0 and 1 remain, and the (0,2) edge no longer covers 1?
        // (0,2) has w=2 > target=1, so it is dropped too.
        g.rollback_to(li(1));
        assert_eq!(g.current(), li(1));
        assert!(g.is_well_defined(li(1)));
        assert!(g.edges().is_empty());
    }

    #[test]
    fn rollback_recomputes_cover_for_surviving_edges() {
        let mut g = graph(6, &[(0, 2), (1, 5)]);
        g.rollback_to(li(3));
        // Edge (1,5) dropped (w=5 > 3); edge (0,2) survives and still
        // covers state 1.
        assert_eq!(g.current(), li(3));
        assert!(!g.is_well_defined(li(1)));
        assert!(g.is_well_defined(li(2)));
        assert!(g.is_well_defined(li(3)));
        assert_eq!(g.edges(), &[(0, 2)]);
    }

    #[test]
    fn current_tracks_lock_states() {
        let mut g = StateDependencyGraph::new();
        g.on_lock_state();
        g.on_lock_state();
        assert_eq!(g.current(), li(2));
    }

    #[test]
    fn write_beyond_current_state_covers_existing_prefix() {
        // A write at lock index w may arrive when only w-… states exist;
        // coverage applies to the states that exist now, and on_lock_state
        // starts new states uncovered because writes never have w greater
        // than the state count at the time they occur. Defensive check:
        let mut g = StateDependencyGraph::new();
        g.on_lock_state(); // p = 1
        g.on_write(li(0), li(1)); // non-spanning
        assert_eq!(g.undefined_count(), 0);
    }
}
