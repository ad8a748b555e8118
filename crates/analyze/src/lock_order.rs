//! Cross-transaction lock-order analysis: static detection of every
//! deadlock cycle a workload can possibly enter.
//!
//! The construction is mode-aware 2PL lock-order analysis. For each
//! program we walk its ops and, at every lock request, record one
//! [`HoldRequest`] edge per entity currently held: "this transaction can
//! be holding `held` (in `held_mode`) while waiting for `requested` (in
//! `requested_mode`)". Unlocks remove entities from the held set, so
//! short lock scopes do not produce phantom edges.
//!
//! Over those edges we build the derived graph `H`: an arc `a → b` exists
//! iff `a` and `b` come from *different* transactions, `a.requested ==
//! b.held`, and the two modes conflict (only shared+shared is
//! compatible). An arc means "a's wait can be caused by b, which is
//! itself in a hold-and-wait posture" — so a directed cycle in `H` is a
//! hold-and-wait cycle the scheduler could realise, i.e. a
//! statically-possible deadlock. Conversely, if `H` is acyclic the
//! workload can never deadlock under 2PL, whatever the interleaving.
//!
//! Cycles are found per strongly connected component (Tarjan), then a
//! bounded DFS inside each SCC enumerates simple cycles whose
//! transactions are pairwise distinct (a single transaction cannot wait
//! twice). Each surviving cycle becomes one `PR-D001` diagnostic with the
//! witnessing transactions, the exact `pc` of every request on the cycle,
//! and the minimal lock reordering that breaks it.

use crate::diag::{Diagnostic, LintCode, Span};
use pr_model::{EntityId, LockMode, Op, TransactionProgram};
use std::collections::HashSet;

/// One hold-and-wait posture a transaction can be in: while waiting for
/// `requested` at `request_pc`, it holds `held`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HoldRequest {
    /// Workload index of the transaction.
    pub txn: usize,
    /// Entity held while waiting.
    pub held: EntityId,
    /// Mode `held` is held in.
    pub held_mode: LockMode,
    /// Entity being requested.
    pub requested: EntityId,
    /// Mode requested.
    pub requested_mode: LockMode,
    /// Program counter of the request op.
    pub request_pc: usize,
}

/// Extracts every [`HoldRequest`] edge of one program.
pub fn hold_requests(txn: usize, program: &TransactionProgram) -> Vec<HoldRequest> {
    let mut held: Vec<(EntityId, LockMode)> = Vec::new();
    let mut out = Vec::new();
    for (pc, op) in program.ops().iter().enumerate() {
        let (entity, mode) = match op {
            Op::LockShared(e) => (*e, LockMode::Shared),
            Op::LockExclusive(e) => (*e, LockMode::Exclusive),
            Op::Unlock(e) => {
                held.retain(|(h, _)| h != e);
                continue;
            }
            _ => continue,
        };
        for &(h, h_mode) in &held {
            out.push(HoldRequest {
                txn,
                held: h,
                held_mode: h_mode,
                requested: entity,
                requested_mode: mode,
                request_pc: pc,
            });
        }
        // An upgrade re-locks a held entity; keep the strongest mode.
        if let Some(slot) = held.iter_mut().find(|(h, _)| *h == entity) {
            if mode == LockMode::Exclusive {
                slot.1 = LockMode::Exclusive;
            }
        } else {
            held.push((entity, mode));
        }
    }
    out
}

/// A statically-possible deadlock cycle: the sequence of hold-and-wait
/// edges (one per transaction) that close it.
#[derive(Clone, Debug)]
pub struct CycleWitness {
    /// The edges in cycle order: edge `i`'s `requested` equals edge
    /// `i+1`'s `held` (wrapping).
    pub edges: Vec<HoldRequest>,
}

impl CycleWitness {
    /// Workload indices of the witnessing transactions, in cycle order.
    pub fn txns(&self) -> Vec<usize> {
        self.edges.iter().map(|e| e.txn).collect()
    }

    /// The entities around the cycle, in cycle order.
    pub fn entities(&self) -> Vec<EntityId> {
        self.edges.iter().map(|e| e.held).collect()
    }

    /// Rotates the cycle into its canonical phase: the edge of the
    /// minimum transaction id first (full edge tuple as tie-break). Two
    /// witnesses are rotations of the same cycle iff their canonical
    /// forms are identical, which is exactly what [`Self::key`] compares
    /// — distinct cycles over the same transaction and entity *sets*
    /// (common in dense workloads) stay distinct.
    fn canonicalize(&mut self) {
        if let Some(first) =
            (0..self.edges.len()).min_by_key(|&i| edge_key(&self.edges[i])).filter(|&i| i > 0)
        {
            self.edges.rotate_left(first);
        }
    }

    /// The canonical identity of the cycle: its full rotated edge list.
    fn key(&self) -> Vec<EdgeKey> {
        self.edges.iter().map(edge_key).collect()
    }
}

/// Total order over edges for canonical rotation and deduplication.
type EdgeKey = (usize, u32, bool, u32, bool, usize);

fn edge_key(e: &HoldRequest) -> EdgeKey {
    (
        e.txn,
        e.held.raw(),
        e.held_mode == LockMode::Exclusive,
        e.requested.raw(),
        e.requested_mode == LockMode::Exclusive,
        e.request_pc,
    )
}

/// Finds every statically-possible deadlock cycle in the workload.
///
/// Each witness is rotated to its canonical phase (minimum-txn edge
/// first) and deduplicated by its full edge list, so rotations of one
/// cycle count once while distinct cycles over the same transaction and
/// entity sets are all kept. Cycle enumeration per SCC is bounded
/// (`MAX_CYCLES_PER_SCC`) so adversarial dense workloads cannot blow up
/// the lint.
pub fn find_cycles(programs: &[TransactionProgram]) -> Vec<CycleWitness> {
    let edges: Vec<HoldRequest> =
        programs.iter().enumerate().flat_map(|(i, p)| hold_requests(i, p)).collect();

    // Derived graph H over edge indices.
    let n = edges.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, a) in edges.iter().enumerate() {
        for (j, b) in edges.iter().enumerate() {
            if a.txn != b.txn
                && a.requested == b.held
                && !a.requested_mode.compatible_with(b.held_mode)
            {
                adj[i].push(j);
            }
        }
    }

    let sccs = pr_lock::order::sccs(&adj, &vec![false; n]);
    let mut witnesses: Vec<CycleWitness> = Vec::new();
    let mut seen: HashSet<Vec<EdgeKey>> = HashSet::new();
    for scc in sccs {
        if scc.len() == 1 {
            let v = scc[0];
            if !adj[v].contains(&v) {
                continue; // trivial SCC, no self-loop possible here anyway
            }
        }
        for mut w in enumerate_cycles(&scc, &adj, &edges) {
            w.canonicalize();
            if seen.insert(w.key()) {
                witnesses.push(w);
            }
        }
    }
    // Deterministic order: shortest cycles first, then by first pc.
    witnesses.sort_by_key(|w| {
        (w.edges.len(), w.edges.first().map(|e| (e.txn, e.request_pc)).unwrap_or((0, 0)))
    });
    witnesses
}

const MAX_CYCLES_PER_SCC: usize = 32;
const MAX_CYCLE_LEN: usize = 8;

/// Enumerates simple cycles with pairwise-distinct transactions inside
/// one SCC by DFS from each member, bounded in count and length.
fn enumerate_cycles(scc: &[usize], adj: &[Vec<usize>], edges: &[HoldRequest]) -> Vec<CycleWitness> {
    let members: HashSet<usize> = scc.iter().copied().collect();
    let mut out = Vec::new();
    for &start in scc {
        if out.len() >= MAX_CYCLES_PER_SCC {
            break;
        }
        let mut path = vec![start];
        let mut txns: HashSet<usize> = [edges[start].txn].into();
        dfs(start, start, &members, adj, edges, &mut path, &mut txns, &mut out);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    start: usize,
    v: usize,
    members: &HashSet<usize>,
    adj: &[Vec<usize>],
    edges: &[HoldRequest],
    path: &mut Vec<usize>,
    txns: &mut HashSet<usize>,
    out: &mut Vec<CycleWitness>,
) {
    if out.len() >= MAX_CYCLES_PER_SCC || path.len() > MAX_CYCLE_LEN {
        return;
    }
    for &w in &adj[v] {
        if w == start && path.len() >= 2 {
            out.push(CycleWitness { edges: path.iter().map(|&i| edges[i]).collect() });
            if out.len() >= MAX_CYCLES_PER_SCC {
                return;
            }
            continue;
        }
        // Only continue into unvisited SCC members whose txn is new; `w >
        // start` breaks rotation symmetry (each cycle found once, rooted
        // at its smallest edge index).
        if w > start && members.contains(&w) && !txns.contains(&edges[w].txn) {
            path.push(w);
            txns.insert(edges[w].txn);
            dfs(start, w, members, adj, edges, path, txns, out);
            txns.remove(&edges[w].txn);
            path.pop();
        }
    }
}

/// Renders one cycle as a `PR-D001` diagnostic, with the minimal lock
/// reordering that breaks it as advice.
pub fn diagnose_cycle(programs: &[TransactionProgram], w: &CycleWitness) -> Diagnostic {
    let labels: Vec<String> = w.txns().iter().map(|t| format!("T{}", t + 1)).collect();
    let hops: Vec<String> = w
        .edges
        .iter()
        .map(|e| {
            format!(
                "T{} holds {} ({}) and waits for {} ({})",
                e.txn + 1,
                e.held,
                mode_str(e.held_mode),
                e.requested,
                mode_str(e.requested_mode),
            )
        })
        .collect();
    let message = format!(
        "statically-possible deadlock among {{{}}}: {}",
        labels.join(", "),
        hops.join("; "),
    );
    let spans: Vec<Span> =
        w.edges.iter().map(|e| Span::at(programs, e.txn, e.request_pc)).collect();

    Diagnostic::new(LintCode::DeadlockCycle, message)
        .with_witness(w.txns())
        .with_advice(reorder_advice(w))
        .with_spans(spans)
}

/// The minimal reordering that breaks the cycle: a cycle needs at least
/// one edge that acquires *against* the canonical entity order (ascending
/// `EntityId`); reordering that one transaction's acquisitions to be
/// ascending removes the edge and with it the cycle.
fn reorder_advice(w: &CycleWitness) -> String {
    let descending: Vec<&HoldRequest> =
        w.edges.iter().filter(|e| e.held.raw() > e.requested.raw()).collect();
    match descending.as_slice() {
        [] => {
            // All edges ascend — can only happen with an upgrade-style
            // cycle on a single entity; advise taking the strong mode
            // up front instead.
            let e = &w.edges[0];
            format!(
                "T{}: request {} in its strongest needed mode at first acquisition",
                e.txn + 1,
                e.requested,
            )
        }
        [e] => format!(
            "reorder T{}: acquire {} before {} (ascending entity order breaks the cycle \
             with a single change)",
            e.txn + 1,
            e.requested,
            e.held,
        ),
        many => {
            let fixes: Vec<String> = many
                .iter()
                .map(|e| format!("T{}: {} before {}", e.txn + 1, e.requested, e.held))
                .collect();
            format!("acquire locks in ascending entity order; any one of: {}", fixes.join(", or "),)
        }
    }
}

fn mode_str(m: LockMode) -> &'static str {
    match m {
        LockMode::Shared => "shared",
        LockMode::Exclusive => "exclusive",
    }
}

/// Runs the full pass: every deduplicated cycle as a diagnostic.
pub fn lint(programs: &[TransactionProgram]) -> Vec<Diagnostic> {
    find_cycles(programs).iter().map(|w| diagnose_cycle(programs, w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_model::ProgramBuilder;

    fn e(c: char) -> EntityId {
        EntityId::new(c as u32 - 'a' as u32)
    }

    fn lx_ab() -> TransactionProgram {
        ProgramBuilder::new().lock_exclusive(e('a')).lock_exclusive(e('b')).pad(1).build_unchecked()
    }

    fn lx_ba() -> TransactionProgram {
        ProgramBuilder::new().lock_exclusive(e('b')).lock_exclusive(e('a')).pad(1).build_unchecked()
    }

    #[test]
    fn hold_requests_honor_unlocks() {
        // Not two-phase (so built via from_parts), but the extraction
        // must still be exact: a was released before b's request, so no
        // hold-and-wait edge exists.
        let p = TransactionProgram::from_parts(
            vec![
                Op::LockExclusive(e('a')),
                Op::Unlock(e('a')),
                Op::LockExclusive(e('b')),
                Op::Commit,
            ],
            vec![],
        );
        assert!(hold_requests(0, &p).is_empty());
    }

    #[test]
    fn classic_two_txn_inversion_is_found() {
        let cycles = find_cycles(&[lx_ab(), lx_ba()]);
        assert_eq!(cycles.len(), 1);
        let mut txns = cycles[0].txns();
        txns.sort_unstable();
        assert_eq!(txns, vec![0, 1]);
    }

    #[test]
    fn aligned_orders_are_clean() {
        assert!(find_cycles(&[lx_ab(), lx_ab(), lx_ab()]).is_empty());
    }

    #[test]
    fn shared_shared_does_not_conflict() {
        // Both hold a shared, both request the other shared: S+S waits
        // never block, so no cycle.
        let p1 =
            ProgramBuilder::new().lock_shared(e('a')).lock_shared(e('b')).pad(1).build_unchecked();
        let p2 =
            ProgramBuilder::new().lock_shared(e('b')).lock_shared(e('a')).pad(1).build_unchecked();
        assert!(find_cycles(&[p1, p2]).is_empty());
        // Upgrade one side to exclusive requests: the cycle appears.
        let p1x = ProgramBuilder::new()
            .lock_shared(e('a'))
            .lock_exclusive(e('b'))
            .pad(1)
            .build_unchecked();
        let p2x = ProgramBuilder::new()
            .lock_shared(e('b'))
            .lock_exclusive(e('a'))
            .pad(1)
            .build_unchecked();
        assert_eq!(find_cycles(&[p1x, p2x]).len(), 1);
    }

    #[test]
    fn single_program_cannot_deadlock_with_itself() {
        assert!(find_cycles(&[lx_ab()]).is_empty());
        assert!(find_cycles(&[lx_ba()]).is_empty());
    }

    #[test]
    fn advice_names_the_descending_edge() {
        let d = lint(&[lx_ab(), lx_ba()]);
        assert_eq!(d.len(), 1);
        let advice = d[0].advice.as_deref().unwrap();
        assert!(advice.contains("T2"), "T2 acquires b before a: {advice}");
        assert!(advice.contains("acquire a before b"), "{advice}");
    }

    #[test]
    fn three_way_rotation_yields_one_cycle_with_three_witnesses() {
        let p = |x: char, y: char| {
            ProgramBuilder::new().lock_exclusive(e(x)).lock_exclusive(e(y)).pad(1).build_unchecked()
        };
        let cycles = find_cycles(&[p('a', 'b'), p('b', 'c'), p('c', 'a')]);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].edges.len(), 3);
        let mut txns = cycles[0].txns();
        txns.sort_unstable();
        assert_eq!(txns, vec![0, 1, 2]);
    }

    /// Regression for over-deduplication: the old key compared sorted
    /// transaction and entity *sets*, which collapsed genuinely distinct
    /// cycles sharing both. Three 3-lock programs rotating (a,b,c)
    /// produce six 2-cycles and three distinct 3-cycles (two forward
    /// edge assignments plus one reverse) — nine in all, every one over
    /// the same entity universe and, for the 3-cycles, the same txn set.
    #[test]
    fn distinct_cycles_over_the_same_sets_are_all_counted() {
        let p = |x: char, y: char, z: char| {
            ProgramBuilder::new()
                .lock_exclusive(e(x))
                .lock_exclusive(e(y))
                .lock_exclusive(e(z))
                .pad(1)
                .build_unchecked()
        };
        let cycles = find_cycles(&[p('a', 'b', 'c'), p('b', 'c', 'a'), p('c', 'a', 'b')]);
        let twos = cycles.iter().filter(|w| w.edges.len() == 2).count();
        let threes = cycles.iter().filter(|w| w.edges.len() == 3).count();
        assert_eq!((twos, threes), (6, 3), "got {} cycles total", cycles.len());
        // Canonical phase: every witness leads with its minimum txn.
        for w in &cycles {
            let txns = w.txns();
            assert_eq!(txns[0], *txns.iter().min().unwrap());
        }
    }

    /// The same cycle reached from different DFS roots must still count
    /// once: an inverted pair where each program carries extra leading
    /// locks, so multiple hold-request edges witness the same rotation.
    #[test]
    fn rotations_of_one_cycle_count_once() {
        let p1 = ProgramBuilder::new()
            .lock_exclusive(e('a'))
            .lock_exclusive(e('b'))
            .pad(1)
            .build_unchecked();
        let p2 = ProgramBuilder::new()
            .lock_exclusive(e('b'))
            .lock_exclusive(e('a'))
            .pad(1)
            .build_unchecked();
        let report_cycles = find_cycles(&[p1, p2]);
        assert_eq!(report_cycles.len(), 1);
        assert_eq!(report_cycles[0].txns()[0], 0, "canonical phase starts at T1");
    }
}
