//! Cycle enumeration for deadlock analysis (§3.1–§3.2).
//!
//! Every cycle a wait response creates passes through the requester
//! ("clearly, all of the cycles thus formed will include the vertex
//! corresponding to the transaction which caused the conflict"), so
//! enumeration reduces to finding the simple paths from the requester back
//! to the holders it is about to wait on. In the exclusive-only case the
//! graph is a forest beforehand (Theorem 1), so exactly one cycle can
//! exist; with shared locks there may be many, and the enumeration is
//! capped to keep the engine's worst case bounded.

use crate::waits_for::WaitsForGraph;
use pr_model::{EntityId, TxnId};

/// One transaction's role in a cycle: to break this cycle by rolling back
/// this transaction, it must release `holds` — the entity labelling its
/// outgoing arc in the cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CycleMember {
    /// Transaction on the cycle.
    pub txn: TxnId,
    /// Entity this transaction holds that its successor in the cycle is
    /// waiting for. Rolling `txn` back to its lock state for `holds`
    /// removes this cycle.
    pub holds: EntityId,
}

/// A deadlock cycle, listed in cycle order starting from the requester
/// that caused it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cycle {
    /// Members in cycle order; `members[0].txn` is the requester.
    pub members: Vec<CycleMember>,
}

impl Cycle {
    /// The transactions on the cycle, in order.
    pub fn txns(&self) -> Vec<TxnId> {
        self.members.iter().map(|m| m.txn).collect()
    }

    /// Number of transactions involved.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// A cycle always has at least two members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Enumerates the simple cycles that *would* be created if `requester`
/// started waiting for `entity`, currently held by `holders`.
///
/// The graph is inspected *before* the new arcs are inserted. At most
/// `cap` cycles are returned (the engine's resolution only needs the
/// cycles it will break; a cap of a few hundred is far beyond anything a
/// real lock table produces, but keeps adversarial graphs bounded).
///
/// Each cycle starts at `requester`; the member entry for a transaction
/// names the entity it must release to break that cycle. The requester's
/// own entry names the entity on its outgoing arc — the entity whose
/// holder-ship makes its successor wait.
pub fn cycles_on_wait(
    graph: &WaitsForGraph,
    requester: TxnId,
    entity: EntityId,
    holders: &[TxnId],
    cap: usize,
) -> Vec<Cycle> {
    // Simple-path enumeration is exponential in pathological graphs; the
    // node budget bounds a single detection pass. Exhausting it is safe
    // only because of the fallback inside: detection runs exclusively at
    // block time, so a cycle missed here would otherwise never be seen
    // again — every member is already blocked — and the system would
    // silently lose liveness.
    cycles_on_wait_budgeted(graph, requester, entity, holders, cap, 200_000)
}

/// [`cycles_on_wait`] with an explicit node budget for the simple-path
/// enumeration, exposed so exhaustive cross-checks can force the
/// budget-exhausted reachability fallback on *small* graphs (where the
/// production budget would never run out) and compare its answer against
/// the full enumeration.
pub fn cycles_on_wait_budgeted(
    graph: &WaitsForGraph,
    requester: TxnId,
    entity: EntityId,
    holders: &[TxnId],
    cap: usize,
    node_budget: u64,
) -> Vec<Cycle> {
    let mut cycles = Vec::new();
    if cap == 0 || holders.is_empty() {
        return cycles;
    }
    // DFS over holder→waiter arcs from the requester. A path
    // requester → x1 → … → h with h ∈ holders closes to a cycle via the
    // prospective arc h -entity-> requester.
    //
    // The entity a path vertex "holds" w.r.t. its successor is the entity
    // the successor waits for, i.e. the label on the successor's wait.
    let mut path: Vec<TxnId> = vec![requester];
    let mut on_path: Vec<TxnId> = vec![requester];
    let mut budget: u64 = node_budget;
    dfs(graph, requester, entity, holders, cap, &mut path, &mut on_path, &mut cycles, &mut budget);
    if cycles.is_empty() && budget == 0 {
        // The enumeration ran out of budget without either completing or
        // finding a single cycle (dense graphs — e.g. fair-queue arcs on a
        // long queue — have exponentially many simple paths). Fall back to
        // a linear-time reachability search that returns one cycle iff any
        // exists; the engine's resolution loop re-detects after each
        // rollback, so breaking one cycle per round still drains them all.
        cycles.extend(reachability_cycle(graph, requester, entity, holders));
    }
    cycles
}

/// Finds one path `requester → … → h` with `h ∈ holders` by visited-set
/// DFS (linear in arcs), and closes it into a cycle. Complete for cycle
/// *existence*, unlike the budgeted simple-path enumeration above.
fn reachability_cycle(
    graph: &WaitsForGraph,
    requester: TxnId,
    entity: EntityId,
    holders: &[TxnId],
) -> Option<Cycle> {
    let mut parent: std::collections::BTreeMap<TxnId, TxnId> = std::collections::BTreeMap::new();
    let mut stack = vec![requester];
    while let Some(current) = stack.pop() {
        for next in graph.successors(current) {
            if next == requester || parent.contains_key(&next) {
                continue;
            }
            parent.insert(next, current);
            if holders.contains(&next) {
                let mut path = vec![next];
                let mut at = next;
                while at != requester {
                    at = parent[&at];
                    path.push(at);
                }
                path.reverse();
                let mut members = Vec::with_capacity(path.len());
                for window in path.windows(2) {
                    let (from, to) = (window[0], window[1]);
                    let (ent, _) = graph.wait_of(to).expect("path follows wait arcs");
                    members.push(CycleMember { txn: from, holds: ent });
                }
                members.push(CycleMember { txn: next, holds: entity });
                return Some(Cycle { members });
            }
            stack.push(next);
        }
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    graph: &WaitsForGraph,
    current: TxnId,
    requested_entity: EntityId,
    holders: &[TxnId],
    cap: usize,
    path: &mut Vec<TxnId>,
    on_path: &mut Vec<TxnId>,
    cycles: &mut Vec<Cycle>,
    budget: &mut u64,
) {
    if cycles.len() >= cap || *budget == 0 {
        return;
    }
    *budget -= 1;
    // If the current vertex is one of the prospective holders, the path
    // closes into a cycle (checked before expanding further so that a
    // holder that is also an intermediate vertex yields its shortest
    // closure too). The requester itself is excluded: holders never include
    // the requester (it cannot hold what it requests).
    if current != path[0] && holders.contains(&current) {
        let mut members = Vec::with_capacity(path.len());
        for window in path.windows(2) {
            let (from, to) = (window[0], window[1]);
            // `to` waits for `from` on `to`'s wait entity.
            let (ent, _) = graph.wait_of(to).expect("path follows wait arcs");
            members.push(CycleMember { txn: from, holds: ent });
        }
        // Closing arc: requester waits for `current` on the requested entity.
        members.push(CycleMember { txn: current, holds: requested_entity });
        // Rotate so the requester (path[0]) is members[0] — it already is.
        cycles.push(Cycle { members });
        if cycles.len() >= cap {
            return;
        }
    }
    for next in graph.successors(current) {
        if on_path.contains(&next) {
            continue;
        }
        path.push(next);
        on_path.push(next);
        dfs(graph, next, requested_entity, holders, cap, path, on_path, cycles, budget);
        path.pop();
        on_path.pop();
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

    /// Figure 1(a): T1 waits for T2 on a; T2 waits for T3 on c... — build
    /// the pre-request state: T3 waits for T4 on e, T4 waits for T2 on b
    /// is *not* the figure; instead reproduce the cycle T2→T3→T4→T2.
    ///
    /// Pre-state: T3 waits for T2 on c's holder... we model the figure's
    /// final deadlock: cycle closes when T2 requests e held by T4, with
    /// T3 waiting for T2 on b and T4 waiting for T3 on c already in place.
    #[test]
    fn single_cycle_exclusive_case() {
        let mut g = WaitsForGraph::new();
        g.set_wait(t(3), e(1), &[t(2)]); // T3 waits for T2 on b ⇒ arc T2→T3
        g.set_wait(t(4), e(2), &[t(3)]); // T4 waits for T3 on c ⇒ arc T3→T4
        g.set_wait(t(1), e(1), &[t(2)]); // T1 also waits for T2 on b (side branch)

        // T2 now requests e held by T4.
        let cycles = cycles_on_wait(&g, t(2), e(4), &[t(4)], 16);
        assert_eq!(cycles.len(), 1);
        let c = &cycles[0];
        assert_eq!(c.txns(), vec![t(2), t(3), t(4)]);
        // T2 must release b, T3 must release c, T4 must release e.
        assert_eq!(
            c.members,
            vec![
                CycleMember { txn: t(2), holds: e(1) },
                CycleMember { txn: t(3), holds: e(2) },
                CycleMember { txn: t(4), holds: e(4) },
            ]
        );
    }

    #[test]
    fn no_cycle_when_holders_unreachable() {
        let mut g = WaitsForGraph::new();
        g.set_wait(t(2), e(0), &[t(1)]);
        let cycles = cycles_on_wait(&g, t(3), e(1), &[t(1)], 16);
        assert!(cycles.is_empty());
    }

    #[test]
    fn two_txn_direct_deadlock() {
        let mut g = WaitsForGraph::new();
        g.set_wait(t(2), e(0), &[t(1)]); // T2 waits for T1 on a
                                         // T1 requests b held by T2.
        let cycles = cycles_on_wait(&g, t(1), e(1), &[t(2)], 16);
        assert_eq!(cycles.len(), 1);
        assert_eq!(
            cycles[0].members,
            vec![CycleMember { txn: t(1), holds: e(0) }, CycleMember { txn: t(2), holds: e(1) },]
        );
    }

    /// Figure 3(c): T1 requests exclusive on f held *shared* by T2 and T3,
    /// while T2 and T3 each already wait on T1 — two cycles close at once,
    /// both through T1.
    #[test]
    fn shared_holders_close_multiple_cycles() {
        let mut g = WaitsForGraph::new();
        g.set_wait(t(2), e(0), &[t(1)]); // T2 waits for T1 on a
        g.set_wait(t(3), e(1), &[t(1)]); // T3 waits for T1 on b
        let cycles = cycles_on_wait(&g, t(1), e(5), &[t(2), t(3)], 16);
        assert_eq!(cycles.len(), 2);
        for c in &cycles {
            assert_eq!(c.members[0].txn, t(1));
            assert_eq!(c.members.last().unwrap().holds, e(5));
        }
        let sets: Vec<Vec<TxnId>> = cycles.iter().map(Cycle::txns).collect();
        assert!(sets.contains(&vec![t(1), t(2)]));
        assert!(sets.contains(&vec![t(1), t(3)]));
    }

    #[test]
    fn cap_limits_enumeration() {
        let mut g = WaitsForGraph::new();
        for i in 2..8 {
            g.set_wait(t(i), e(i), &[t(1)]); // many waiters on T1
        }
        let holders: Vec<TxnId> = (2..8).map(t).collect();
        let cycles = cycles_on_wait(&g, t(1), e(99), &holders, 3);
        assert_eq!(cycles.len(), 3);
    }

    #[test]
    fn longer_paths_are_found() {
        let mut g = WaitsForGraph::new();
        g.set_wait(t(2), e(0), &[t(1)]);
        g.set_wait(t(3), e(1), &[t(2)]);
        g.set_wait(t(4), e(2), &[t(3)]);
        let cycles = cycles_on_wait(&g, t(1), e(3), &[t(4)], 16);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].txns(), vec![t(1), t(2), t(3), t(4)]);
        assert_eq!(cycles[0].len(), 4);
        assert!(!cycles[0].is_empty());
    }

    /// Regression: the budgeted enumeration must never report "no cycle"
    /// when one exists. Transactions 2..=20 form a complete DAG hanging
    /// off T1 (each waits on all lower-numbered ones — the shape fair-queue
    /// arcs produce on a long queue), giving ~2^19 simple paths from T1,
    /// far past the node budget. The only holder, T100, sits on a spur the
    /// depth-first enumeration reaches last — so it exhausts its budget
    /// inside the dense region and finds nothing, and only the
    /// reachability fallback reports the T1 ⇄ T100 deadlock.
    #[test]
    fn budget_exhaustion_still_finds_an_existing_cycle() {
        let mut g = WaitsForGraph::new();
        for i in 2..=20 {
            let lower: Vec<TxnId> = (1..i).map(t).collect();
            g.set_wait(t(i), e(i), &lower);
        }
        g.set_wait(t(100), e(50), &[t(1)]); // T100 waits for T1 on e50
                                            // T1 requests e60 held by T100.
        let cycles = cycles_on_wait(&g, t(1), e(60), &[t(100)], 16);
        assert_eq!(cycles.len(), 1);
        assert_eq!(
            cycles[0].members,
            vec![
                CycleMember { txn: t(1), holds: e(50) },
                CycleMember { txn: t(100), holds: e(60) }
            ]
        );
    }

    #[test]
    fn zero_cap_or_no_holders_yields_nothing() {
        let mut g = WaitsForGraph::new();
        g.set_wait(t(2), e(0), &[t(1)]);
        assert!(cycles_on_wait(&g, t(1), e(1), &[t(2)], 0).is_empty());
        assert!(cycles_on_wait(&g, t(1), e(1), &[], 16).is_empty());
    }
}
