//! The bounded model checker: exhaustive DFS over schedule space.
//!
//! From a base [`System`] the explorer branches the execution at every
//! scheduling choice, memoizing visited states by their canonical
//! encoding ([`mod@pr_core::fingerprint`]) so the search runs over the state
//! *graph* rather than the (unboundedly larger, and under livelock
//! infinite) schedule tree. Three reductions keep the graph small without
//! losing behaviours:
//!
//! * **Memoization** — the visited map keys on the full canonical
//!   encoding, never a hash, so distinct states are never merged.
//! * **Invisible-step determinism** — an operation that touches only the
//!   stepping transaction's own workspace (`Read`/`Write`/`Assign`/
//!   `Compute`) commutes with every operation of every other transaction:
//!   under two-phase locking no other transaction can publish to an
//!   entity the stepper holds a lock on, and workspace writes publish
//!   only at unlock. Whenever some ready transaction's next operation is
//!   invisible, the explorer steps the smallest such transaction
//!   deterministically instead of branching (a persistent-set reduction
//!   with a singleton ample set). Program counters are monotone outside
//!   rollback and rollback happens only at lock operations, so the
//!   reduction preserves terminal states, deadlocks, and state-graph
//!   cycles.
//! * **Optional txn-id symmetry** (statistics only; see
//!   [`mod@pr_core::fingerprint`] for why it is unsound for oracles).
//!
//! Every newly discovered state is invariant-checked; the record of every
//! deadlock resolution (read from [`System::history`]) is audited against
//! the brute-force optimality oracles in [`crate::oracles`]; terminal
//! states are collected for the cross-strategy equivalence comparison; and the finished state graph is
//! analysed for livelock cycles (a strongly connected component
//! containing a preemption edge — commits are monotone, so no cycle can
//! contain a commit edge).

use crate::oracles::{self, GapStats};
use pr_core::config::{StrategyKind, SystemConfig, VictimPolicyKind};
use pr_core::engine::{StepOutcome, System};
use pr_core::fingerprint::{canonical_state, canonical_state_relabeled, fnv1a};
use pr_core::runtime::Phase;
use pr_model::{Op, TransactionProgram, TxnId, Value};
use pr_sim::report::Table;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Exploration bounds and toggles.
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Maximum distinct states to visit before truncating.
    pub max_states: usize,
    /// Maximum DFS depth (schedule length) before truncating a branch.
    pub max_depth: usize,
    /// Run [`System::check_invariants`] on every newly discovered state.
    pub check_invariants: bool,
    /// Canonicalise states up to permutations of identical-program
    /// transactions. Ignored (with `symmetry_applied = false` in the
    /// report) for entry-order-dependent victim policies, where ids are
    /// not interchangeable.
    pub symmetry: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_states: 1 << 20,
            max_depth: 100_000,
            check_invariants: true,
            symmetry: false,
        }
    }
}

/// How a transition changed the system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeKind {
    /// An invisible workspace-only operation.
    Local,
    /// A visible operation that progressed (grant, unlock).
    Progress,
    /// A lock request that blocked without deadlock.
    Block,
    /// A deadlock was detected and resolved — at least one preemption.
    Preemption,
    /// The stepping transaction committed.
    Commit,
}

/// One labelled transition of the state graph.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Target state id.
    pub to: usize,
    /// Transaction stepped.
    pub txn: TxnId,
    /// Transition effect.
    pub kind: EdgeKind,
}

/// The explored state graph.
#[derive(Clone, Debug, Default)]
pub struct StateGraph {
    /// Display fingerprint (FNV-1a of the canonical encoding) per state.
    pub fingerprints: Vec<u64>,
    /// Outgoing edges per state.
    pub edges: Vec<Vec<Edge>>,
    /// Discovery-tree parent: `(parent state, txn stepped)`; `None` for
    /// the root.
    pub parent: Vec<Option<(usize, TxnId)>>,
}

impl StateGraph {
    fn add_node(&mut self, fingerprint: u64, parent: Option<(usize, TxnId)>) -> usize {
        self.fingerprints.push(fingerprint);
        self.edges.push(Vec::new());
        self.parent.push(parent);
        self.fingerprints.len() - 1
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
    }

    /// Total transitions.
    pub fn transitions(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// The discovery schedule from the root to `node`.
    pub fn path_to(&self, node: usize) -> Vec<TxnId> {
        let mut picks = Vec::new();
        let mut at = node;
        while let Some((parent, txn)) = self.parent[at] {
            picks.push(txn);
            at = parent;
        }
        picks.reverse();
        picks
    }

    /// The *shortest* schedule from the root to `node` over the full edge
    /// set (the discovery path is a DFS-tree path and can be much longer).
    /// Used to minimise counterexample traces after exploration finishes.
    pub fn shortest_schedule(&self, node: usize) -> Vec<TxnId> {
        let all: BTreeSet<usize> = (0..self.len()).collect();
        self.path_within(&all, 0, node).expect("every node is reachable from the root")
    }

    /// Strongly connected components (iterative Tarjan), in reverse
    /// topological order. Singleton components without a self-loop are
    /// omitted — only genuine cycles are returned.
    pub fn cyclic_sccs(&self) -> Vec<Vec<usize>> {
        let n = self.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut sccs: Vec<Vec<usize>> = Vec::new();
        // Explicit call stack: (node, next edge position).
        let mut call: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            call.push((root, 0));
            index[root] = next_index;
            low[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;
            while let Some(&mut (v, ref mut pos)) = call.last_mut() {
                if *pos < self.edges[v].len() {
                    let w = self.edges[v][*pos].to;
                    *pos += 1;
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack non-empty");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        let cyclic = comp.len() > 1 || self.edges[v].iter().any(|e| e.to == v);
                        if cyclic {
                            sccs.push(comp);
                        }
                    }
                }
            }
        }
        sccs
    }

    /// Finds a livelock witness: a reachable cycle containing a
    /// preemption edge. Commit counts are monotone along every edge, so a
    /// cycle can never contain a commit edge — which makes "cycle with a
    /// preemption" exactly the Figure 2 phenomenon: the system moves
    /// forever, transactions keep being preempted, nothing new ever
    /// commits.
    pub fn find_livelock(&self) -> Option<LivelockWitness> {
        for comp in self.cyclic_sccs() {
            let in_comp: BTreeSet<usize> = comp.iter().copied().collect();
            // Locate a preemption edge inside the component.
            let preemption = comp.iter().find_map(|&u| {
                self.edges[u]
                    .iter()
                    .find(|e| in_comp.contains(&e.to) && e.kind == EdgeKind::Preemption)
                    .map(|e| (u, *e))
            });
            let Some((u, edge)) = preemption else { continue };
            // Cycle = shortest path edge.to → u inside the component, then
            // the preemption edge closes it.
            let mut cycle =
                self.path_within(&in_comp, edge.to, u).expect("u and edge.to are in one SCC");
            cycle.push(edge.txn);
            return Some(LivelockWitness {
                entry: edge.to,
                prefix: self.shortest_schedule(edge.to),
                cycle,
            });
        }
        None
    }

    /// Shortest schedule from `from` to `to` using only states in `within`
    /// (BFS). Returns the empty schedule when `from == to`.
    fn path_within(&self, within: &BTreeSet<usize>, from: usize, to: usize) -> Option<Vec<TxnId>> {
        if from == to {
            return Some(Vec::new());
        }
        let mut prev: BTreeMap<usize, (usize, TxnId)> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(v) = queue.pop_front() {
            for e in &self.edges[v] {
                if !within.contains(&e.to) || prev.contains_key(&e.to) || e.to == from {
                    continue;
                }
                prev.insert(e.to, (v, e.txn));
                if e.to == to {
                    let mut picks = Vec::new();
                    let mut at = to;
                    while at != from {
                        let (p, txn) = prev[&at];
                        picks.push(txn);
                        at = p;
                    }
                    picks.reverse();
                    return Some(picks);
                }
                queue.push_back(e.to);
            }
        }
        None
    }

    /// Whether any commit edge sits inside a cycle — impossible by commit
    /// monotonicity; exposed as a self-check on the graph construction.
    pub fn commit_edge_in_cycle(&self) -> bool {
        self.cyclic_sccs().iter().any(|comp| {
            let in_comp: BTreeSet<usize> = comp.iter().copied().collect();
            comp.iter().any(|&u| {
                self.edges[u].iter().any(|e| in_comp.contains(&e.to) && e.kind == EdgeKind::Commit)
            })
        })
    }
}

/// A reachable preemption cycle: run `prefix` from the base state to enter
/// the cycle, then `cycle` repeats forever.
#[derive(Clone, Debug)]
pub struct LivelockWitness {
    /// State id where the cycle is entered.
    pub entry: usize,
    /// Discovery schedule from the base state to `entry`.
    pub prefix: Vec<TxnId>,
    /// Schedule that returns `entry` to itself with at least one
    /// preemption.
    pub cycle: Vec<TxnId>,
}

/// A distinct terminal outcome: which transactions committed and the final
/// database values, with one witness schedule.
#[derive(Clone, Debug)]
pub struct TerminalOutcome {
    /// Committed transactions, ascending.
    pub committed: Vec<TxnId>,
    /// Final `(entity, value)` pairs, ascending by entity.
    pub snapshot: Vec<(u32, i64)>,
    /// Discovery schedule reaching this outcome.
    pub schedule: Vec<TxnId>,
}

/// Committed set + final snapshot — the identity of a terminal outcome,
/// stripped of its witness schedule.
pub type OutcomeKey = (Vec<TxnId>, Vec<(u32, i64)>);

impl TerminalOutcome {
    /// The comparison key: outcome minus the witness schedule.
    pub fn key(&self) -> OutcomeKey {
        (self.committed.clone(), self.snapshot.clone())
    }
}

/// A property violation discovered during exploration.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Violation class (stable, greppable).
    pub kind: &'static str,
    /// Human-readable description.
    pub detail: String,
    /// Schedule from the base state reproducing the violation.
    pub schedule: Vec<TxnId>,
}

/// Everything the exploration of one base state produced.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Distinct states visited.
    pub states: usize,
    /// Labelled transitions.
    pub transitions: usize,
    /// Deepest schedule examined.
    pub max_depth_seen: usize,
    /// Whether the full state space was enumerated (no truncation).
    pub complete: bool,
    /// Deadlock resolutions audited.
    pub deadlocks: usize,
    /// Distinct terminal outcomes.
    pub terminals: Vec<TerminalOutcome>,
    /// Property violations (empty on a healthy engine).
    pub findings: Vec<Finding>,
    /// §3.2 heuristic-vs-optimal gap statistics.
    pub gaps: GapStats,
    /// A livelock cycle, if the state graph contains one.
    pub livelock: Option<LivelockWitness>,
    /// Whether the state graph is acyclic (termination proven: every
    /// schedule reaches a terminal state in bounded steps).
    pub acyclic: bool,
    /// Whether symmetry reduction was actually applied.
    pub symmetry_applied: bool,
    /// The state graph itself, for further analysis.
    pub graph: StateGraph,
}

impl ExploreReport {
    /// The set of terminal outcome keys — the object compared across
    /// strategies by the equivalence oracle.
    pub fn outcome_set(&self) -> BTreeSet<OutcomeKey> {
        self.terminals.iter().map(TerminalOutcome::key).collect()
    }
}

/// Whether `txn`'s next operation is invisible to every other transaction
/// (workspace-only; see the module docs for the commutation argument).
fn next_op_is_local(sys: &System, txn: TxnId) -> bool {
    let rt = sys.txn(txn).expect("ready txn exists");
    matches!(
        rt.program.op(rt.pc),
        Some(Op::Read { .. } | Op::Write { .. } | Op::Assign { .. } | Op::Compute(_))
    )
}

/// The transactions to branch over from this state: a singleton when some
/// ready transaction's next operation is invisible, the full ready set
/// otherwise.
fn branch_set(sys: &System) -> Vec<TxnId> {
    let ready = sys.ready();
    match ready.iter().copied().find(|&t| next_op_is_local(sys, t)) {
        Some(local) => vec![local],
        None => ready,
    }
}

/// All id-permutations that map each transaction to one running an
/// identical program (the symmetry group), as `old id -> new id` maps.
/// Returns only the identity when every program is distinct.
fn symmetry_permutations(sys: &System) -> Vec<BTreeMap<TxnId, TxnId>> {
    let ids = sys.txn_ids();
    let mut groups: BTreeMap<String, Vec<TxnId>> = BTreeMap::new();
    for id in &ids {
        let rt = sys.txn(*id).expect("listed id exists");
        groups.entry(rt.program.content_key()).or_default().push(*id);
    }
    let mut perms: Vec<BTreeMap<TxnId, TxnId>> = vec![ids.iter().map(|&id| (id, id)).collect()];
    for members in groups.values().filter(|m| m.len() > 1) {
        let arrangements = permutations(members);
        let mut extended = Vec::with_capacity(perms.len() * arrangements.len());
        for perm in &perms {
            for arr in &arrangements {
                let mut next = perm.clone();
                for (slot, &image) in members.iter().zip(arr.iter()) {
                    next.insert(*slot, image);
                }
                extended.push(next);
            }
        }
        perms = extended;
    }
    perms
}

/// All orderings of `items` (Heap's algorithm; `items` is tiny).
fn permutations(items: &[TxnId]) -> Vec<Vec<TxnId>> {
    let mut work = items.to_vec();
    let mut out = Vec::new();
    fn heap(k: usize, work: &mut Vec<TxnId>, out: &mut Vec<Vec<TxnId>>) {
        if k <= 1 {
            out.push(work.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, work, out);
            if k.is_multiple_of(2) {
                work.swap(i, k - 1);
            } else {
                work.swap(0, k - 1);
            }
        }
    }
    heap(work.len(), &mut work, &mut out);
    out
}

/// The visited-map key for `sys`: the canonical encoding, minimised over
/// the symmetry group when enabled.
fn state_key(sys: &System, perms: Option<&[BTreeMap<TxnId, TxnId>]>) -> String {
    match perms {
        None => canonical_state(sys),
        Some(perms) => perms
            .iter()
            .map(|p| canonical_state_relabeled(sys, &|t| *p.get(&t).unwrap_or(&t), false))
            .min()
            .expect("at least the identity permutation"),
    }
}

/// Exhaustively explores every schedule of `base`, which must already have
/// its workload admitted (and any deterministic prefix applied).
pub fn explore(base: &System, opts: &ExploreOptions) -> ExploreReport {
    let root = base.clone();
    let policy = root.config().victim;
    // Entry orders feed PartialOrder/Youngest victim selection, so ids are
    // not interchangeable there and symmetry must stay off.
    let symmetry_applied = opts.symmetry
        && matches!(policy, VictimPolicyKind::MinCost | VictimPolicyKind::ConflictCauser);
    let perms = symmetry_applied.then(|| symmetry_permutations(&root));
    let perms_ref = perms.as_deref().filter(|p| p.len() > 1);

    let mut graph = StateGraph::default();
    let mut visited: HashMap<String, usize> = HashMap::new();
    let mut findings: Vec<Finding> = Vec::new();
    let mut terminals: BTreeMap<OutcomeKey, TerminalOutcome> = BTreeMap::new();
    let mut gaps = GapStats::default();
    let mut deadlocks = 0usize;
    let mut truncated = false;
    let mut max_depth_seen = 0usize;

    // Frame: a discovered state still being expanded.
    struct Frame {
        sys: System,
        node: usize,
        succ: Vec<TxnId>,
        next: usize,
        depth: usize,
    }

    // Anchors tie a finding to the state graph so its witness schedule can
    // be minimised after exploration: `(finding index, state, extra step)`.
    let mut anchors: Vec<(usize, usize, Option<TxnId>)> = Vec::new();

    // Inspects a newly discovered state: invariant findings and terminal
    // classification. Returns finding bodies; the caller attaches
    // schedules and anchors.
    let inspect = |sys: &System| -> Vec<(&'static str, String)> {
        let mut issues = Vec::new();
        if opts.check_invariants {
            if let Err(detail) = sys.check_invariants() {
                issues.push(("invariant-violation", detail));
            }
            if let Err(err) = sys.store().check_consistency() {
                issues.push(("consistency-violation", err.to_string()));
            }
        }
        if sys.ready().is_empty() && !sys.all_committed() {
            issues.push(("stuck", format!("blocked forever: {:?}", sys.blocked())));
        }
        issues
    };
    let record_state =
        |sys: &System,
         node: usize,
         graph: &StateGraph,
         findings: &mut Vec<Finding>,
         anchors: &mut Vec<(usize, usize, Option<TxnId>)>,
         terminals: &mut BTreeMap<OutcomeKey, TerminalOutcome>| {
            for (kind, detail) in inspect(sys) {
                anchors.push((findings.len(), node, None));
                findings.push(Finding { kind, detail, schedule: graph.path_to(node) });
            }
            if sys.ready().is_empty() && sys.all_committed() {
                let committed: Vec<TxnId> = sys
                    .txn_ids()
                    .into_iter()
                    .filter(|id| sys.txn(*id).is_some_and(|rt| rt.phase == Phase::Committed))
                    .collect();
                let snapshot: Vec<(u32, i64)> =
                    sys.store().iter().map(|(e, v)| (e.raw(), v.raw())).collect();
                let outcome =
                    TerminalOutcome { committed, snapshot, schedule: graph.path_to(node) };
                terminals.entry(outcome.key()).or_insert(outcome);
            }
        };

    let root_key = state_key(&root, perms_ref);
    let root_node = graph.add_node(fnv1a(root_key.as_bytes()), None);
    visited.insert(root_key, root_node);
    record_state(&root, root_node, &graph, &mut findings, &mut anchors, &mut terminals);
    let root_succ = branch_set(&root);
    let mut stack: Vec<Frame> =
        vec![Frame { sys: root, node: root_node, succ: root_succ, next: 0, depth: 0 }];

    while let Some(frame) = stack.last_mut() {
        if frame.next >= frame.succ.len() {
            stack.pop();
            continue;
        }
        let txn = frame.succ[frame.next];
        frame.next += 1;
        let parent_node = frame.node;
        let depth = frame.depth + 1;
        max_depth_seen = max_depth_seen.max(depth);
        if depth > opts.max_depth {
            truncated = true;
            continue;
        }
        let was_local = next_op_is_local(&frame.sys, txn);
        let resolved_before = frame.sys.history().len();
        let mut child = frame.sys.clone();
        let outcome = match child.step(txn) {
            Ok(o) => o,
            Err(err) => {
                let mut schedule = graph.path_to(parent_node);
                schedule.push(txn);
                findings.push(Finding { kind: "engine-error", detail: err.to_string(), schedule });
                continue;
            }
        };
        let kind = match &outcome {
            StepOutcome::Progressed => {
                if was_local {
                    EdgeKind::Local
                } else {
                    EdgeKind::Progress
                }
            }
            StepOutcome::Blocked { .. } => EdgeKind::Block,
            StepOutcome::DeadlockResolved { .. } => EdgeKind::Preemption,
            StepOutcome::Committed => EdgeKind::Commit,
        };
        for record in &child.history()[resolved_before..] {
            deadlocks += 1;
            let mut schedule = graph.path_to(parent_node);
            schedule.push(txn);
            let verdict = oracles::check_audit(record, policy);
            gaps.absorb(&verdict);
            for detail in verdict.violations {
                // The deadlock fires on the edge `parent --txn-->`, so the
                // minimised witness is shortest-to-parent + txn.
                anchors.push((findings.len(), parent_node, Some(txn)));
                findings.push(Finding {
                    kind: "resolution-oracle",
                    detail,
                    schedule: schedule.clone(),
                });
            }
        }
        let key = state_key(&child, perms_ref);
        if let Some(&existing) = visited.get(&key) {
            graph.edges[parent_node].push(Edge { to: existing, txn, kind });
            continue;
        }
        if graph.len() >= opts.max_states {
            truncated = true;
            continue;
        }
        let node = graph.add_node(fnv1a(key.as_bytes()), Some((parent_node, txn)));
        visited.insert(key, node);
        graph.edges[parent_node].push(Edge { to: node, txn, kind });
        record_state(&child, node, &graph, &mut findings, &mut anchors, &mut terminals);
        let succ = branch_set(&child);
        if !succ.is_empty() {
            stack.push(Frame { sys: child, node, succ, next: 0, depth });
        }
    }

    // Minimise anchored findings' witness schedules now that the full edge
    // set is known.
    for (idx, node, step) in anchors {
        let mut schedule = graph.shortest_schedule(node);
        if let Some(t) = step {
            schedule.push(t);
        }
        findings[idx].schedule = schedule;
    }

    if graph.commit_edge_in_cycle() {
        findings.push(Finding {
            kind: "commit-in-cycle",
            detail: "a commit edge lies on a state-graph cycle (commit counts are monotone; \
                     this indicates a state-encoding bug)"
                .into(),
            schedule: Vec::new(),
        });
    }
    let livelock = graph.find_livelock();
    let acyclic = graph.cyclic_sccs().is_empty();
    ExploreReport {
        states: graph.len(),
        transitions: graph.transitions(),
        max_depth_seen,
        complete: !truncated,
        deadlocks,
        terminals: terminals.into_values().collect(),
        findings,
        gaps,
        livelock,
        acyclic,
        symmetry_applied,
        graph,
    }
}

/// Replays `schedule` against a clone of `base`, returning one formatted
/// line per step — the trace body of a counterexample artifact.
pub fn replay_lines(base: &System, schedule: &[TxnId]) -> Vec<String> {
    let mut sys = base.clone();
    let mut lines = Vec::with_capacity(schedule.len());
    for (i, &txn) in schedule.iter().enumerate() {
        let line = match sys.step(txn) {
            Ok(StepOutcome::Progressed) => format!("{i:>4} step {txn} -> progressed"),
            Ok(StepOutcome::Blocked { entity }) => {
                format!("{i:>4} step {txn} -> blocked on {entity}")
            }
            Ok(StepOutcome::DeadlockResolved { record }) => {
                let plan = &record.plan;
                let victims: Vec<String> = plan
                    .rollbacks
                    .iter()
                    .map(|r| {
                        format!(
                            "{} to {} (cost {}, conflict at {})",
                            r.txn,
                            r.target.raw(),
                            r.cost,
                            r.conflict.raw()
                        )
                    })
                    .collect();
                format!(
                    "{i:>4} step {txn} -> deadlock resolved: roll back {} [total {}{}]",
                    victims.join(", "),
                    plan.total_cost,
                    if plan.optimal { ", optimal" } else { "" }
                )
            }
            Ok(StepOutcome::Committed) => format!("{i:>4} step {txn} -> committed"),
            Err(e) => {
                lines.push(format!("{i:>4} step {txn} -> ERROR {e}"));
                break;
            }
        };
        lines.push(line);
    }
    lines
}

/// A [`System`] over `entities` entities initialised to `init`, with
/// `programs` admitted.
pub fn workload_system(
    programs: &[TransactionProgram],
    entities: u32,
    init: i64,
    config: SystemConfig,
) -> System {
    let store = pr_storage::GlobalStore::with_entities(entities, Value::new(init));
    let mut sys = System::new(store, config);
    // Under `Ordered` the explorer plays the prover inline, exactly like
    // `pr_sim::run_workload`: certifiable workloads get their derived
    // order installed (every schedule then runs the no-detection fast
    // path), unorderable ones get nothing and fall back wholesale.
    if config.grant_policy == pr_core::GrantPolicy::Ordered {
        if let Ok(order) = pr_core::derive_order(programs) {
            sys.install_order(order);
        }
    }
    for p in programs {
        sys.admit(p.clone()).expect("workload program is valid");
    }
    sys
}

/// One exploration, as a row of the state-space statistics table.
pub struct RunRecord {
    /// Case name.
    pub name: String,
    /// Rollback strategy explored.
    pub strategy: StrategyKind,
    /// What the exploration found.
    pub report: ExploreReport,
    /// States visited under symmetry reduction, when that was also run.
    pub sym_states: Option<usize>,
}

/// The state-space statistics table (EXPERIMENTS T4) over `records`.
pub fn stats_table(records: &[RunRecord]) -> Table {
    let mut t = Table::new([
        "case",
        "strategy",
        "states",
        "transitions",
        "terminals",
        "deadlocks",
        "audited",
        "excl-checked",
        "multi-cycle",
        "max-gap",
        "sym-states",
        "complete",
    ])
    .with_title("Exhaustive exploration statistics (T4)");
    for r in records {
        t.row([
            r.name.clone(),
            r.strategy.name(),
            r.report.states.to_string(),
            r.report.transitions.to_string(),
            r.report.terminals.len().to_string(),
            r.report.deadlocks.to_string(),
            r.report.gaps.audited.to_string(),
            r.report.gaps.exclusive_checked.to_string(),
            r.report.gaps.multi_cycle.to_string(),
            r.report.gaps.max_gap.to_string(),
            r.sym_states.map_or_else(|| "-".into(), |s| s.to_string()),
            if r.report.complete { "yes".into() } else { "NO".to_string() },
        ]);
    }
    t
}
