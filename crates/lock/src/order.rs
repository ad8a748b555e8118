//! Static entity acquisition orders: the runtime half of the
//! orderability prover.
//!
//! A workload is *orderable* when some total order over its entities has
//! every program acquire locks in strictly ascending rank. Under such an
//! order no hold-and-wait cycle can form — around any would-be cycle the
//! rank of the requested entity strictly exceeds the rank of every held
//! one, so ranks would have to increase forever — which is why ordered
//! acquisition makes 2PL deadlock-free without any detection machinery.
//!
//! [`derive_order`] computes such an order (or reports the entity
//! precedence cycles that forbid one), and [`EntityOrder`] is the
//! installable artifact: the engine checks each admitted program with
//! [`EntityOrder::covers_program`] and, under `GrantPolicy::Ordered`,
//! skips deadlock detection whenever every blocked transaction is
//! covered. The strict-ascending check deliberately rejects S→X upgrades
//! and re-locks (the second request of an entity repeats its rank), so a
//! covered program can never re-request an entity — the edge cases the
//! richer static analysis in `pr-analyze` models are excluded by
//! construction rather than special-cased.

use pr_model::{EntityId, TransactionProgram};
use std::collections::BTreeMap;

/// A total acquisition order over entities, installable into the engine
/// as a deadlock-freedom certificate's runtime form.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct EntityOrder {
    order: Vec<EntityId>,
    rank: BTreeMap<EntityId, u32>,
}

impl EntityOrder {
    /// Builds an order from an explicit entity sequence. Returns `None`
    /// if the sequence repeats an entity (not a total order).
    pub fn new(order: Vec<EntityId>) -> Option<EntityOrder> {
        let mut rank = BTreeMap::new();
        for (i, &e) in order.iter().enumerate() {
            if rank.insert(e, i as u32).is_some() {
                return None;
            }
        }
        Some(EntityOrder { order, rank })
    }

    /// The ascending-id identity order over entities `0..n` — the order
    /// every workload generated with `ordered_locks` conforms to.
    pub fn identity(n: u32) -> EntityOrder {
        let order: Vec<EntityId> = (0..n).map(EntityId::new).collect();
        EntityOrder::new(order).expect("identity order has no duplicates")
    }

    /// The entities in certified order.
    pub fn entities(&self) -> &[EntityId] {
        &self.order
    }

    /// Rank of `entity` in the order, if certified at all.
    pub fn rank(&self, entity: EntityId) -> Option<u32> {
        self.rank.get(&entity).copied()
    }

    /// Number of certified entities.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the order certifies no entities at all.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The first lock request of `program` that this order cannot vouch
    /// for: either an entity outside the order, or a request whose rank
    /// does not strictly exceed every earlier request's rank (which also
    /// rejects upgrades and re-locks — a repeated entity repeats its
    /// rank). Returns `(pc, entity)` of the offending request, or `None`
    /// if the whole program acquires in strictly ascending rank.
    pub fn first_violation(&self, program: &TransactionProgram) -> Option<(usize, EntityId)> {
        let mut prev: Option<u32> = None;
        for (pc, entity, _mode) in program.lock_requests() {
            let Some(r) = self.rank(entity) else {
                return Some((pc, entity));
            };
            if prev.is_some_and(|p| r <= p) {
                return Some((pc, entity));
            }
            prev = Some(r);
        }
        None
    }

    /// Whether every lock request of `program` is consistent with this
    /// order — the per-transaction proof obligation of a certificate.
    pub fn covers_program(&self, program: &TransactionProgram) -> bool {
        self.first_violation(program).is_none()
    }
}

/// An entity precedence cycle: entities in cycle order, each required to
/// precede the next (wrapping) by some program's acquisition sequence. A
/// one-element cycle is a self-edge — an upgrade or re-lock that no
/// strict order can serve.
pub type PrecedenceCycle = Vec<EntityId>;

/// Derives a total acquisition order covering every program, if one
/// exists.
///
/// The constraint graph has an arc `a → b` for every pair of requests
/// adjacent in some program's lock sequence (transitively this demands
/// the whole sequence ascend). If the graph is acyclic, Kahn's algorithm
/// with a smallest-entity-id tie-break yields a deterministic total
/// order — entities no program locks are excluded, and
/// [`EntityOrder::covers_program`] holds for every input program. If it
/// is cyclic, no order exists; the error carries one shortest cycle per
/// strongly connected component, deterministic and minimal enough to act
/// on.
pub fn derive_order(programs: &[TransactionProgram]) -> Result<EntityOrder, Vec<PrecedenceCycle>> {
    // Dense-index the entities that appear in lock requests.
    let mut index: BTreeMap<EntityId, usize> = BTreeMap::new();
    for p in programs {
        for (_, e, _) in p.lock_requests() {
            let next = index.len();
            index.entry(e).or_insert(next);
        }
    }
    let entities: Vec<EntityId> = index.keys().copied().collect();
    // BTreeMap iterates key-ascending; re-map so index order == id order,
    // which makes the Kahn tie-break below a plain smallest-index scan.
    for (i, &e) in entities.iter().enumerate() {
        index.insert(e, i);
    }
    let n = entities.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut self_loop = vec![false; n];
    for p in programs {
        let reqs = p.lock_requests();
        for pair in reqs.windows(2) {
            let a = index[&pair[0].1];
            let b = index[&pair[1].1];
            if a == b {
                self_loop[a] = true;
            } else if !adj[a].contains(&b) {
                adj[a].push(b);
            }
        }
    }

    // Kahn's algorithm, always removing the smallest-id ready entity.
    let mut indegree = vec![0usize; n];
    for succs in &adj {
        for &b in succs {
            indegree[b] += 1;
        }
    }
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let Some(next) = (0..n).find(|&v| !removed[v] && indegree[v] == 0 && !self_loop[v]) else {
            break;
        };
        removed[next] = true;
        order.push(entities[next]);
        for &b in &adj[next] {
            indegree[b] -= 1;
        }
    }
    if order.len() == n {
        return Ok(EntityOrder::new(order).expect("topological order has no duplicates"));
    }

    // The leftover subgraph holds every cycle; report one shortest cycle
    // per SCC (plus every self-loop) as the infeasible core.
    let mut cycles: Vec<PrecedenceCycle> = Vec::new();
    for v in 0..n {
        if !removed[v] && self_loop[v] {
            cycles.push(vec![entities[v]]);
        }
    }
    for mut scc in sccs(&adj, &removed) {
        if scc.len() < 2 {
            continue;
        }
        scc.sort_unstable(); // `shortest_cycle` binary-searches members
        if let Some(cycle) = shortest_cycle(&scc, &adj) {
            cycles.push(cycle.into_iter().map(|v| entities[v]).collect());
        }
    }
    cycles.sort();
    Err(cycles)
}

/// Strongly connected components of the graph `adj` over `0..adj.len()`
/// with the `removed` vertices (and their arcs) left out, by iterative
/// Tarjan, so deep graphs cannot overflow the thread stack. Components
/// come in completion order (reverse topological), each in the order
/// Tarjan pops it off its stack; callers that need another order sort.
pub fn sccs(adj: &[Vec<usize>], removed: &[bool]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut idx = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    for root in 0..n {
        if removed[root] || idx[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        idx[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut child)) = call.last_mut() {
            if *child < adj[v].len() {
                let w = adj[v][*child];
                *child += 1;
                if removed[w] {
                    continue;
                }
                if idx[w] == usize::MAX {
                    idx[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(idx[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == idx[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("stack holds the component");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

/// One shortest cycle inside an SCC: BFS from each member back to itself
/// along intra-SCC arcs, keeping the globally shortest (first found on
/// ties, which is deterministic since members are sorted).
fn shortest_cycle(scc: &[usize], adj: &[Vec<usize>]) -> Option<Vec<usize>> {
    let member = |v: usize| scc.binary_search(&v).is_ok();
    let mut best: Option<Vec<usize>> = None;
    for &start in scc {
        let mut prev: BTreeMap<usize, usize> = BTreeMap::new();
        let mut frontier = vec![start];
        'bfs: while !frontier.is_empty() {
            let mut nextf = Vec::new();
            for &v in &frontier {
                for &w in &adj[v] {
                    if !member(w) {
                        continue;
                    }
                    if w == start {
                        let mut path = vec![v];
                        let mut cur = v;
                        while cur != start {
                            cur = prev[&cur];
                            path.push(cur);
                        }
                        path.reverse();
                        if best.as_ref().is_none_or(|b| path.len() < b.len()) {
                            best = Some(path);
                        }
                        break 'bfs;
                    }
                    if w != start && !prev.contains_key(&w) {
                        prev.insert(w, v);
                        nextf.push(w);
                    }
                }
            }
            frontier = nextf;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_model::{Op, ProgramBuilder};

    fn e(c: char) -> EntityId {
        EntityId::new(c as u32 - 'a' as u32)
    }

    fn xprog(seq: &str) -> TransactionProgram {
        let mut b = ProgramBuilder::new();
        for c in seq.chars() {
            b = b.lock_exclusive(e(c));
        }
        b.pad(1).build_unchecked()
    }

    #[test]
    fn aligned_workload_gets_the_identity_order() {
        let order = derive_order(&[xprog("ab"), xprog("bc"), xprog("ac")]).unwrap();
        assert_eq!(order.entities(), &[e('a'), e('b'), e('c')]);
        assert!(order.covers_program(&xprog("ac")));
        assert_eq!(order.rank(e('c')), Some(2));
        assert_eq!(order.rank(e('z')), None);
    }

    #[test]
    fn derived_order_respects_non_identity_precedence() {
        // b must precede a; the tie-break keeps everything else ascending.
        let order = derive_order(&[xprog("ba"), xprog("bc")]).unwrap();
        assert_eq!(order.entities(), &[e('b'), e('a'), e('c')]);
        assert!(order.covers_program(&xprog("ba")));
        assert!(!order.covers_program(&xprog("ab")));
    }

    #[test]
    fn inverted_pair_has_no_order_and_reports_the_cycle() {
        let cycles = derive_order(&[xprog("ab"), xprog("ba")]).unwrap_err();
        assert_eq!(cycles, vec![vec![e('a'), e('b')]]);
    }

    #[test]
    fn three_way_rotation_reports_one_shortest_cycle() {
        let cycles = derive_order(&[xprog("ab"), xprog("bc"), xprog("ca")]).unwrap_err();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 3);
    }

    #[test]
    fn independent_cycles_are_each_reported() {
        let cycles =
            derive_order(&[xprog("ab"), xprog("ba"), xprog("cd"), xprog("dc")]).unwrap_err();
        assert_eq!(cycles.len(), 2);
        assert!(cycles.iter().all(|c| c.len() == 2));
    }

    /// A raw re-lock/upgrade program (`validate` rejects these, so they
    /// are assembled from parts like the `hold_requests` unlock test).
    fn raw(ops: Vec<Op>) -> TransactionProgram {
        TransactionProgram::from_parts(ops, vec![])
    }

    #[test]
    fn relock_is_a_self_loop_no_strict_order_serves() {
        let relock = raw(vec![
            Op::LockExclusive(e('a')),
            Op::LockExclusive(e('b')),
            Op::LockExclusive(e('a')),
            Op::Commit,
        ]);
        let cycles = derive_order(&[relock]).unwrap_err();
        assert_eq!(cycles, vec![vec![e('a'), e('b')]]);
        // An immediate upgrade is a self-edge: a one-entity cycle.
        let upgrade = raw(vec![Op::LockShared(e('a')), Op::LockExclusive(e('a')), Op::Commit]);
        let cycles = derive_order(&[upgrade]).unwrap_err();
        assert_eq!(cycles, vec![vec![e('a')]]);
    }

    #[test]
    fn coverage_rejects_upgrades_and_relocks() {
        let order = EntityOrder::identity(4);
        let upgrade = raw(vec![Op::LockShared(e('a')), Op::LockExclusive(e('a')), Op::Commit]);
        assert_eq!(order.first_violation(&upgrade), Some((1, e('a'))));
        let relock = raw(vec![
            Op::LockExclusive(e('a')),
            Op::LockExclusive(e('b')),
            Op::LockExclusive(e('a')),
            Op::Commit,
        ]);
        assert_eq!(order.first_violation(&relock), Some((2, e('a'))));
        let outside = xprog("az");
        assert_eq!(order.first_violation(&outside), Some((1, e('z'))));
    }

    #[test]
    fn explicit_order_rejects_duplicates() {
        assert!(EntityOrder::new(vec![e('a'), e('a')]).is_none());
        let id = EntityOrder::identity(3);
        assert_eq!(id.len(), 3);
        assert!(!id.is_empty());
        assert!(EntityOrder::identity(0).is_empty());
    }
}
