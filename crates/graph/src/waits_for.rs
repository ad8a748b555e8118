//! The concurrency (waits-for) graph `G(T)` of §3.
//!
//! "If at a given time t, a transaction T_i … is waiting to lock an entity
//! A which is locked by another transaction T_j, then we say T_j → T_i."
//! Arcs therefore point **holder → waiter** and carry the contested entity
//! as their label.
//!
//! A transaction is a sequential process, so it waits on at most one entity
//! at a time — but (with shared locks) possibly on *several holders* of
//! that entity, which is what makes the graph a general digraph rather
//! than a forest.

use pr_model::{EntityId, TxnId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The labelled concurrency graph.
///
/// ```
/// use pr_graph::WaitsForGraph;
/// use pr_model::{EntityId, TxnId};
///
/// let (t1, t2, t3) = (TxnId::new(1), TxnId::new(2), TxnId::new(3));
/// let mut g = WaitsForGraph::new();
/// g.set_wait(t2, EntityId::new(0), &[t1]); // T2 waits for T1 on a
/// g.set_wait(t3, EntityId::new(1), &[t2]); // T3 waits for T2 on b
/// // §3.1's deadlock test: would T1 waiting on T3 close a cycle?
/// assert!(g.reaches_any(t1, &[t3]));
/// assert!(g.is_forest(), "exclusive-only waits form a forest (Theorem 1)");
/// ```
#[derive(Clone, Debug, Default)]
pub struct WaitsForGraph {
    /// `out[holder]` = arcs holder → waiter (waiter waits for holder).
    out: BTreeMap<TxnId, BTreeSet<TxnId>>,
    /// `wait[waiter]` = (entity, holders) — the single pending request.
    wait: BTreeMap<TxnId, (EntityId, BTreeSet<TxnId>)>,
}

impl WaitsForGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers that `waiter` now waits for `entity`, currently held by
    /// `holders`. Replaces any previous wait of `waiter` (a transaction has
    /// at most one pending request).
    pub fn set_wait(&mut self, waiter: TxnId, entity: EntityId, holders: &[TxnId]) {
        self.clear_wait(waiter);
        let mut set = BTreeSet::new();
        for &h in holders {
            debug_assert_ne!(h, waiter, "a transaction cannot wait on itself");
            self.out.entry(h).or_default().insert(waiter);
            set.insert(h);
        }
        self.wait.insert(waiter, (entity, set));
    }

    /// Removes `waiter`'s pending wait (granted, cancelled, or rolled
    /// back). A no-op if it was not waiting.
    pub fn clear_wait(&mut self, waiter: TxnId) {
        if let Some((_, holders)) = self.wait.remove(&waiter) {
            for h in holders {
                if let Some(set) = self.out.get_mut(&h) {
                    set.remove(&waiter);
                    if set.is_empty() {
                        self.out.remove(&h);
                    }
                }
            }
        }
    }

    /// The entity and holders `txn` currently waits for, if any.
    pub fn wait_of(&self, txn: TxnId) -> Option<(EntityId, Vec<TxnId>)> {
        self.wait.get(&txn).map(|(e, hs)| (*e, hs.iter().copied().collect()))
    }

    /// Whether `txn` is blocked.
    pub fn is_waiting(&self, txn: TxnId) -> bool {
        self.wait.contains_key(&txn)
    }

    /// Transactions waiting on `holder`.
    pub fn waiters_on(&self, holder: TxnId) -> Vec<TxnId> {
        self.out.get(&holder).map(|s| s.iter().copied().collect()).unwrap_or_default()
    }

    /// Out-neighbours of `txn` (its waiters), for traversal.
    pub fn successors(&self, txn: TxnId) -> impl Iterator<Item = TxnId> + '_ {
        self.out.get(&txn).into_iter().flatten().copied()
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.out.values().map(BTreeSet::len).sum()
    }

    /// Number of waiting transactions.
    pub fn waiting_count(&self) -> usize {
        self.wait.len()
    }

    /// Whether any of `targets` is reachable from `from` along
    /// holder → waiter arcs. This is §3.1's deadlock test: a wait response
    /// to `T_j`'s request deadlocks iff the requested entity "is already
    /// locked by a descendant of T_j" — i.e. some holder is reachable from
    /// `T_j`.
    pub fn reaches_any(&self, from: TxnId, targets: &[TxnId]) -> bool {
        if targets.contains(&from) {
            return true;
        }
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([from]);
        seen.insert(from);
        while let Some(v) = queue.pop_front() {
            for s in self.successors(v) {
                if targets.contains(&s) {
                    return true;
                }
                if seen.insert(s) {
                    queue.push_back(s);
                }
            }
        }
        false
    }

    /// Whether the graph contains a directed cycle.
    pub fn has_cycle(&self) -> bool {
        // Iterative DFS with colours over the vertices that have out-arcs.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let verts: Vec<TxnId> = self.out.keys().copied().collect();
        let mut colour: BTreeMap<TxnId, Colour> = BTreeMap::new();
        for &v in &verts {
            if colour.get(&v).copied().unwrap_or(Colour::White) != Colour::White {
                continue;
            }
            // stack of (vertex, iterator position)
            let mut stack = vec![(v, 0usize)];
            colour.insert(v, Colour::Grey);
            while let Some(&mut (u, ref mut idx)) = stack.last_mut() {
                let succs: Vec<TxnId> = self.successors(u).collect();
                if *idx < succs.len() {
                    let next = succs[*idx];
                    *idx += 1;
                    match colour.get(&next).copied().unwrap_or(Colour::White) {
                        Colour::Grey => return true,
                        Colour::White => {
                            colour.insert(next, Colour::Grey);
                            stack.push((next, 0));
                        }
                        Colour::Black => {}
                    }
                } else {
                    colour.insert(u, Colour::Black);
                    stack.pop();
                }
            }
        }
        false
    }

    /// Theorem 1's structural check for exclusive-only systems: the graph
    /// is a forest iff, viewed as an undirected graph, it is acyclic. (With
    /// exclusive locks every waiter has exactly one in-arc, so an
    /// undirected cycle implies a directed one and vice versa.)
    pub fn is_forest(&self) -> bool {
        // Union-find over the arcs.
        let mut parent: BTreeMap<TxnId, TxnId> = BTreeMap::new();
        fn find(parent: &mut BTreeMap<TxnId, TxnId>, x: TxnId) -> TxnId {
            let p = *parent.get(&x).unwrap_or(&x);
            if p == x {
                x
            } else {
                let root = find(parent, p);
                parent.insert(x, root);
                root
            }
        }
        for (&holder, waiters) in &self.out {
            for &waiter in waiters {
                let a = find(&mut parent, holder);
                let b = find(&mut parent, waiter);
                if a == b {
                    return false;
                }
                parent.insert(a, b);
            }
        }
        true
    }

    /// All vertices that appear in some arc, for diagnostics.
    pub fn vertices(&self) -> Vec<TxnId> {
        let mut set: BTreeSet<TxnId> = self.out.keys().copied().collect();
        for (w, (_, hs)) in &self.wait {
            set.insert(*w);
            set.extend(hs.iter().copied());
        }
        set.into_iter().collect()
    }

    /// Structural self-check (feature `invariants`): the `out` arc map and
    /// the `wait` request map must describe the same set of arcs, every
    /// set must be non-empty, and no transaction may wait on itself. Any
    /// divergence means an engine mutation went through one map but not
    /// the other — exactly the corruption the runtime sentinel exists to
    /// catch before it turns into a lost wakeup or a phantom deadlock.
    #[cfg(feature = "invariants")]
    pub fn check_consistent(&self) -> Result<(), String> {
        for (holder, waiters) in &self.out {
            if waiters.is_empty() {
                return Err(format!("out[{holder}] is an empty set (should be pruned)"));
            }
            for waiter in waiters {
                if waiter == holder {
                    return Err(format!("self-arc {holder} -> {holder}"));
                }
                match self.wait.get(waiter) {
                    None => {
                        return Err(format!(
                            "arc {holder} -> {waiter} has no wait record for {waiter}"
                        ));
                    }
                    Some((entity, holders)) if !holders.contains(holder) => {
                        return Err(format!(
                            "arc {holder} -> {waiter} missing from {waiter}'s holder set \
                             (waiting on {entity})"
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        for (waiter, (entity, holders)) in &self.wait {
            if holders.is_empty() {
                return Err(format!(
                    "{waiter} waits on {entity} with an empty holder set (should be pruned)"
                ));
            }
            for holder in holders {
                if holder == waiter {
                    return Err(format!("{waiter} records itself as a holder of {entity}"));
                }
                if !self.out.get(holder).is_some_and(|s| s.contains(waiter)) {
                    return Err(format!(
                        "{waiter} waits on {entity} held by {holder}, but the arc \
                         {holder} -> {waiter} is missing"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Deliberately inserts an arc into the `out` map *without* recording
    /// the matching wait — corrupting the graph. Exists only so negative
    /// tests can prove the sentinel catches a forged back-edge; never call
    /// this from engine code.
    #[cfg(feature = "invariants")]
    pub fn forge_arc_unchecked(&mut self, holder: TxnId, waiter: TxnId) {
        self.out.entry(holder).or_default().insert(waiter);
    }

    /// Renders the graph as `holder -entity-> waiter` lines, for test
    /// failure messages and the figure-reproduction examples.
    pub fn render(&self) -> String {
        let mut lines = Vec::new();
        for (waiter, (entity, holders)) in &self.wait {
            for holder in holders {
                lines.push(format!("{holder} -{entity}-> {waiter}"));
            }
        }
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }
    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }

    #[test]
    fn set_wait_creates_arcs_from_all_holders() {
        let mut g = WaitsForGraph::new();
        g.set_wait(t(3), e(0), &[t(1), t(2)]);
        assert_eq!(g.waiters_on(t(1)), vec![t(3)]);
        assert_eq!(g.waiters_on(t(2)), vec![t(3)]);
        assert_eq!(g.wait_of(t(3)), Some((e(0), vec![t(1), t(2)])));
        assert_eq!(g.arc_count(), 2);
        assert!(g.is_waiting(t(3)));
    }

    #[test]
    fn set_wait_replaces_previous_wait() {
        let mut g = WaitsForGraph::new();
        g.set_wait(t(3), e(0), &[t(1)]);
        g.set_wait(t(3), e(1), &[t(2)]);
        assert_eq!(g.waiters_on(t(1)), Vec::<TxnId>::new());
        assert_eq!(g.wait_of(t(3)), Some((e(1), vec![t(2)])));
        assert_eq!(g.arc_count(), 1);
    }

    #[test]
    fn clear_wait_removes_all_arcs() {
        let mut g = WaitsForGraph::new();
        g.set_wait(t(3), e(0), &[t(1), t(2)]);
        g.clear_wait(t(3));
        assert_eq!(g.arc_count(), 0);
        assert_eq!(g.waiting_count(), 0);
        // Idempotent.
        g.clear_wait(t(3));
    }

    #[test]
    fn reaches_any_follows_holder_to_waiter_arcs() {
        let mut g = WaitsForGraph::new();
        // T2 waits for T1, T3 waits for T2: arcs T1→T2, T2→T3.
        g.set_wait(t(2), e(0), &[t(1)]);
        g.set_wait(t(3), e(1), &[t(2)]);
        assert!(g.reaches_any(t(1), &[t(3)]));
        assert!(g.reaches_any(t(1), &[t(2)]));
        assert!(!g.reaches_any(t(3), &[t(1)]));
        assert!(g.reaches_any(t(1), &[t(1)]), "trivially reaches itself");
    }

    #[test]
    fn deadlock_test_matches_paper_rule() {
        // T1 holds a; T2 waits for a (arc T1→T2). T2 holds b. If T1 now
        // requests b (held by T2), deadlock iff T2 ("the holder") is
        // reachable from T1 — it is.
        let mut g = WaitsForGraph::new();
        g.set_wait(t(2), e(0), &[t(1)]);
        assert!(g.reaches_any(t(1), &[t(2)]), "wait response would deadlock");
        // If instead T3 requests b, no deadlock: T2 unreachable from T3.
        assert!(!g.reaches_any(t(3), &[t(2)]));
    }

    #[test]
    fn cycle_detection() {
        let mut g = WaitsForGraph::new();
        g.set_wait(t(2), e(0), &[t(1)]); // T1 → T2
        g.set_wait(t(3), e(1), &[t(2)]); // T2 → T3
        assert!(!g.has_cycle());
        g.set_wait(t(1), e(2), &[t(3)]); // T3 → T1 closes the cycle
        assert!(g.has_cycle());
        assert!(!g.is_forest());
    }

    #[test]
    fn forest_check_accepts_trees() {
        let mut g = WaitsForGraph::new();
        g.set_wait(t(2), e(0), &[t(1)]);
        g.set_wait(t(3), e(1), &[t(1)]);
        g.set_wait(t(4), e(2), &[t(2)]);
        assert!(g.is_forest());
        assert!(!g.has_cycle());
    }

    #[test]
    fn forest_check_rejects_shared_diamond() {
        // With shared locks T3 can wait on both T1 and T2 while T2 waits on
        // T1: undirected cycle T1-T3-T2-T1 without a directed cycle — an
        // acyclic digraph that is not a forest (§3.2).
        let mut g = WaitsForGraph::new();
        g.set_wait(t(3), e(0), &[t(1), t(2)]);
        g.set_wait(t(2), e(1), &[t(1)]);
        assert!(!g.is_forest());
        assert!(!g.has_cycle());
    }

    #[test]
    fn vertices_and_render() {
        let mut g = WaitsForGraph::new();
        g.set_wait(t(2), e(1), &[t(1)]);
        assert_eq!(g.vertices(), vec![t(1), t(2)]);
        assert_eq!(g.render(), "T1 -b-> T2");
    }

    #[cfg(feature = "invariants")]
    #[test]
    fn consistency_check_accepts_normal_mutations_and_catches_forgery() {
        let mut g = WaitsForGraph::new();
        g.set_wait(t(2), e(0), &[t(1)]);
        g.set_wait(t(3), e(1), &[t(1), t(2)]);
        assert_eq!(g.check_consistent(), Ok(()));
        g.set_wait(t(3), e(1), &[t(2)]);
        g.clear_wait(t(2));
        assert_eq!(g.check_consistent(), Ok(()));
        // A forged arc has no matching wait record — the check must name it.
        g.forge_arc_unchecked(t(5), t(2));
        let err = g.check_consistent().unwrap_err();
        assert!(err.contains("T5 -> T2"), "{err}");
    }
}
