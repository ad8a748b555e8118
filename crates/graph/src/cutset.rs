//! Minimum-cost victim selection for multi-cycle deadlocks (§3.2).
//!
//! "Optimization of deadlock removal in a system with shared and exclusive
//! locks involves finding a set of transactions whose rollback will remove
//! all cycles from the graph and the sum of whose rollback costs is
//! minimal. … Unfortunately, the problem appears to be NP-complete, as is
//! the closely-related feedback vertex set problem."
//!
//! The instance is given as a family of cycles; each cycle lists, per
//! member transaction, the **candidate rollback** (target lock state +
//! cost) that breaks *that* cycle. Rolling a transaction back to a deeper
//! (smaller) target covers every cycle whose candidate target is at least
//! the chosen one, at the maximum of the covered candidates' costs (cost
//! is monotone in depth, and only candidate depths can be optimal).
//!
//! [`solve_exact`] is a branch-and-bound over the first-uncovered-cycle
//! choice tree with cost pruning and a node budget; [`solve_greedy`] is a
//! cost-effectiveness heuristic. [`solve`] tries exact first and falls
//! back.

use pr_model::{LockIndex, StateIndex, TxnId};
use std::collections::BTreeMap;

/// A possible rollback of one transaction that would break one cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CandidateRollback {
    /// The transaction to roll back.
    pub txn: TxnId,
    /// The lock state to roll back to (the transaction's lock state for
    /// the entity it must release — or, under the SDG strategy, the
    /// deepest well-defined state at or below it).
    pub target: LockIndex,
    /// The ideal (MCS-reachable) target for the same entity; `target <=
    /// ideal`, with strict inequality only when the strategy had to
    /// overshoot. The engine charges `cost(target) − cost(ideal)` to its
    /// overshoot metric.
    pub ideal: LockIndex,
    /// The earliest conflicting access: the state index at which the
    /// victim acquired the lock the cycle contests. Everything before
    /// this state is conflict-free prefix; the repair strategy retains
    /// it and re-executes only the suffix from here. Recorded in the
    /// resolution audit for every strategy (it is a victim-selection
    /// fact, not a repair-only one).
    pub conflict: StateIndex,
    /// States lost by this rollback (§3.1's cost function).
    pub cost: u32,
}

/// A chosen set of rollbacks covering every cycle.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CutSolution {
    /// One planned rollback per victim (deepest target needed).
    pub rollbacks: Vec<CandidateRollback>,
    /// Sum of the victims' costs.
    pub total_cost: u64,
    /// Whether the solution is provably optimal (exact solver completed).
    pub optimal: bool,
}

impl CutSolution {
    fn from_choice(choice: &BTreeMap<TxnId, CandidateRollback>, optimal: bool) -> Self {
        let rollbacks: Vec<CandidateRollback> = choice.values().copied().collect();
        let total_cost = rollbacks.iter().map(|r| u64::from(r.cost)).sum();
        CutSolution { rollbacks, total_cost, optimal }
    }
}

/// Whether a chosen per-transaction rollback covers the given cycle: some
/// member's candidate is at or above the chosen target (rolling back to
/// `chosen.target <= candidate.target` releases the entity that candidate
/// releases).
fn covers(choice: &BTreeMap<TxnId, CandidateRollback>, cycle: &[CandidateRollback]) -> bool {
    cycle
        .iter()
        .any(|cand| choice.get(&cand.txn).is_some_and(|chosen| chosen.target <= cand.target))
}

/// Merges a candidate into a choice map, keeping the deeper target, the
/// correspondingly larger cost, and the earlier conflicting access.
/// Returns the cost delta.
fn merge(choice: &mut BTreeMap<TxnId, CandidateRollback>, cand: CandidateRollback) -> u64 {
    match choice.get_mut(&cand.txn) {
        Some(existing) => {
            let old = u64::from(existing.cost);
            if cand.target < existing.target {
                existing.target = cand.target;
            }
            if cand.ideal < existing.ideal {
                existing.ideal = cand.ideal;
            }
            if cand.conflict < existing.conflict {
                existing.conflict = cand.conflict;
            }
            if cand.cost > existing.cost {
                existing.cost = cand.cost;
            }
            u64::from(existing.cost) - old
        }
        None => {
            choice.insert(cand.txn, cand);
            u64::from(cand.cost)
        }
    }
}

/// Whether a solution's rollback set covers `cycle`: some cycle member's
/// candidate is matched — at or below its target — by a chosen rollback of
/// the same transaction. Public so external optimality oracles (and their
/// planted-mutant self-tests) can audit arbitrary plans without access to
/// the solver's internal choice map.
pub fn solution_covers(rollbacks: &[CandidateRollback], cycle: &[CandidateRollback]) -> bool {
    cycle.iter().any(|cand| {
        rollbacks.iter().any(|chosen| chosen.txn == cand.txn && chosen.target <= cand.target)
    })
}

/// Largest number of distinct `(txn, target)` candidates
/// [`solve_exhaustive`] will enumerate subsets of (2^20 masks).
pub const EXHAUSTIVE_CANDIDATE_CAP: usize = 20;

/// Exhaustive exact solver, algorithmically independent of
/// [`solve_exact`]'s branch-and-bound: enumerates **every** subset of the
/// instance's distinct `(txn, target)` candidates and keeps the cheapest
/// covering one (ties broken toward fewer victims, then the earlier
/// enumeration order). An optimal cut only ever uses candidate depths —
/// rolling back between two candidate targets costs at least as much as
/// the shallower one and covers exactly the same cycles — so the subset
/// space contains an optimum.
///
/// Returns `None` when the instance has an uncoverable (empty) cycle or
/// more than [`EXHAUSTIVE_CANDIDATE_CAP`] distinct candidates. Intended as
/// a brute-force oracle for small model-checked instances, not as a
/// production solver.
pub fn solve_exhaustive(cycles: &[Vec<CandidateRollback>]) -> Option<CutSolution> {
    if cycles.is_empty() {
        return Some(CutSolution { rollbacks: Vec::new(), total_cost: 0, optimal: true });
    }
    if cycles.iter().any(Vec::is_empty) {
        return None;
    }
    // Distinct candidates keyed by (txn, target); merging duplicates keeps
    // the worst cost and deepest ideal, matching `merge`'s semantics.
    let mut distinct: Vec<CandidateRollback> = Vec::new();
    for cand in cycles.iter().flatten() {
        match distinct.iter_mut().find(|c| c.txn == cand.txn && c.target == cand.target) {
            Some(existing) => {
                if cand.cost > existing.cost {
                    existing.cost = cand.cost;
                }
                if cand.ideal < existing.ideal {
                    existing.ideal = cand.ideal;
                }
                if cand.conflict < existing.conflict {
                    existing.conflict = cand.conflict;
                }
            }
            None => distinct.push(*cand),
        }
    }
    if distinct.len() > EXHAUSTIVE_CANDIDATE_CAP {
        return None;
    }
    let mut best: Option<CutSolution> = None;
    for mask in 0u64..(1u64 << distinct.len()) {
        let mut choice: BTreeMap<TxnId, CandidateRollback> = BTreeMap::new();
        for (i, cand) in distinct.iter().enumerate() {
            if mask & (1 << i) != 0 {
                merge(&mut choice, *cand);
            }
        }
        if cycles.iter().all(|c| covers(&choice, c)) {
            let sol = CutSolution::from_choice(&choice, true);
            let better = best.as_ref().is_none_or(|b| {
                sol.total_cost < b.total_cost
                    || (sol.total_cost == b.total_cost && sol.rollbacks.len() < b.rollbacks.len())
            });
            if better {
                best = Some(sol);
            }
        }
    }
    best
}

/// Exact branch-and-bound. Returns `None` if the node budget is exhausted
/// before the search completes (the caller then falls back to the greedy
/// heuristic).
pub fn solve_exact(cycles: &[Vec<CandidateRollback>], node_budget: u64) -> Option<CutSolution> {
    if cycles.iter().any(Vec::is_empty) {
        // A cycle with no candidates can never be broken; the engine never
        // produces this (every cycle member is a candidate).
        return None;
    }
    struct Search<'a> {
        cycles: &'a [Vec<CandidateRollback>],
        best: Option<CutSolution>,
        nodes: u64,
        budget: u64,
    }
    impl Search<'_> {
        fn run(&mut self, choice: &mut BTreeMap<TxnId, CandidateRollback>, cost: u64) -> bool {
            self.nodes += 1;
            if self.nodes > self.budget {
                return false;
            }
            if let Some(best) = &self.best {
                if cost >= best.total_cost {
                    return true; // prune
                }
            }
            // Pick the uncovered cycle with the fewest candidates.
            let next = self.cycles.iter().filter(|c| !covers(choice, c)).min_by_key(|c| c.len());
            let Some(cycle) = next else {
                self.best = Some(CutSolution::from_choice(choice, true));
                return true;
            };
            for &cand in cycle {
                let saved = choice.get(&cand.txn).copied();
                let delta = merge(choice, cand);
                if !self.run(choice, cost + delta) {
                    return false;
                }
                match saved {
                    Some(prev) => {
                        choice.insert(cand.txn, prev);
                    }
                    None => {
                        choice.remove(&cand.txn);
                    }
                }
            }
            true
        }
    }
    let mut search = Search { cycles, best: None, nodes: 0, budget: node_budget };
    let completed = search.run(&mut BTreeMap::new(), 0);
    if completed {
        search.best
    } else {
        None
    }
}

/// Greedy heuristic: repeatedly commit the candidate with the best
/// (newly covered cycles) / (cost increase) ratio.
pub fn solve_greedy(cycles: &[Vec<CandidateRollback>]) -> CutSolution {
    let mut choice: BTreeMap<TxnId, CandidateRollback> = BTreeMap::new();
    loop {
        let uncovered: Vec<&Vec<CandidateRollback>> =
            cycles.iter().filter(|c| !covers(&choice, c)).collect();
        if uncovered.is_empty() {
            break;
        }
        let mut best: Option<(CandidateRollback, u64, usize)> = None; // (cand, delta, gain)
        for cycle in &uncovered {
            for &cand in cycle.iter() {
                let mut trial = choice.clone();
                let delta = merge(&mut trial, cand);
                let gain = uncovered.iter().filter(|c| covers(&trial, c)).count();
                debug_assert!(gain >= 1);
                let better = match &best {
                    None => true,
                    Some((_, bd, bg)) => {
                        // Compare gain/delta ratios without floats:
                        // gain * bd > bg * delta, tie-break on smaller delta.
                        (gain as u64) * *bd > (*bg as u64) * delta
                            || ((gain as u64) * *bd == (*bg as u64) * delta && delta < *bd)
                    }
                };
                if better {
                    best = Some((cand, delta, gain));
                }
            }
        }
        let (cand, _, _) = best.expect("uncovered cycles have candidates");
        merge(&mut choice, cand);
    }
    CutSolution::from_choice(&choice, false)
}

/// Solves the instance: exact when it completes within `node_budget`
/// nodes, greedy otherwise.
///
/// ```
/// use pr_graph::cutset::{solve, CandidateRollback};
/// use pr_model::{LockIndex, StateIndex, TxnId};
///
/// let cand = |txn, cost| CandidateRollback {
///     txn: TxnId::new(txn),
///     target: LockIndex::new(1),
///     ideal: LockIndex::new(1),
///     conflict: StateIndex::new(1),
///     cost,
/// };
/// // Figure 1's single cycle: costs 4 / 6 / 5 → T2 is chosen.
/// let cycle = vec![cand(2, 4), cand(3, 6), cand(4, 5)];
/// let solution = solve(&[cycle], 10_000);
/// assert_eq!(solution.total_cost, 4);
/// assert_eq!(solution.rollbacks[0].txn, TxnId::new(2));
/// ```
pub fn solve(cycles: &[Vec<CandidateRollback>], node_budget: u64) -> CutSolution {
    match solve_exact(cycles, node_budget) {
        Some(s) => s,
        None => solve_greedy(cycles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(txn: u32, target: u32, cost: u32) -> CandidateRollback {
        CandidateRollback {
            txn: TxnId::new(txn),
            target: LockIndex::new(target),
            ideal: LockIndex::new(target),
            conflict: StateIndex::new(target),
            cost,
        }
    }

    #[test]
    fn merge_keeps_the_earliest_conflicting_access() {
        // The same transaction appears in two cycles: once with its
        // conflict at state 3, once at state 1. Covering both must
        // remember the *earlier* conflicting access — a repair suffix
        // starting at state 3 would skip the state-1 conflict.
        let mut choice = BTreeMap::new();
        merge(&mut choice, cand(1, 3, 2));
        merge(&mut choice, cand(1, 1, 9));
        let chosen = choice[&TxnId::new(1)];
        assert_eq!(chosen.conflict, StateIndex::new(1));
        assert_eq!(chosen.target, LockIndex::new(1));
        assert_eq!(chosen.cost, 9);
        // Order-independent.
        let mut rev = BTreeMap::new();
        merge(&mut rev, cand(1, 1, 9));
        merge(&mut rev, cand(1, 3, 2));
        assert_eq!(rev[&TxnId::new(1)], chosen);
    }

    #[test]
    fn single_cycle_picks_min_cost_member() {
        // Figure 1: costs T2=4, T3=6, T4=5 ⇒ pick T2.
        let cycles = vec![vec![cand(2, 1, 4), cand(3, 1, 6), cand(4, 1, 5)]];
        let s = solve(&cycles, 10_000);
        assert!(s.optimal);
        assert_eq!(s.total_cost, 4);
        assert_eq!(s.rollbacks, vec![cand(2, 1, 4)]);
    }

    #[test]
    fn shared_vertex_is_cheaper_than_two_cuts() {
        // Two cycles sharing T1 (cost 5 each way); individual members cost 3.
        // Cutting T1 once (cost 5) beats cutting T2 and T3 (3 + 3 = 6).
        let cycles = vec![vec![cand(1, 2, 5), cand(2, 1, 3)], vec![cand(1, 2, 5), cand(3, 1, 3)]];
        let s = solve(&cycles, 10_000);
        assert!(s.optimal);
        assert_eq!(s.total_cost, 5);
        assert_eq!(s.rollbacks, vec![cand(1, 2, 5)]);
    }

    #[test]
    fn separate_cheap_cuts_beat_expensive_shared_vertex() {
        let cycles = vec![vec![cand(1, 2, 50), cand(2, 1, 3)], vec![cand(1, 2, 50), cand(3, 1, 4)]];
        let s = solve(&cycles, 10_000);
        assert!(s.optimal);
        assert_eq!(s.total_cost, 7);
        assert_eq!(s.rollbacks.len(), 2);
    }

    #[test]
    fn deeper_rollback_of_same_txn_merges_costs() {
        // T1 appears in both cycles with different depths: covering both
        // with T1 requires the deeper target (1) at the higher cost (9).
        let cycles =
            vec![vec![cand(1, 3, 2), cand(2, 1, 100)], vec![cand(1, 1, 9), cand(3, 1, 100)]];
        let s = solve(&cycles, 10_000);
        assert!(s.optimal);
        assert_eq!(s.total_cost, 9);
        assert_eq!(s.rollbacks, vec![cand(1, 1, 9)]);
    }

    #[test]
    fn shallow_choice_does_not_cover_deeper_requirement() {
        // Choosing T1@target3 covers cycle A (needs ≥3)… but cycle B needs
        // target ≤ 1. The solver must notice the shallow choice is not
        // enough.
        let cycles = vec![vec![cand(1, 3, 2)], vec![cand(1, 1, 9)]];
        let s = solve(&cycles, 10_000);
        assert!(s.optimal);
        assert_eq!(s.rollbacks, vec![cand(1, 1, 9)]);
        assert_eq!(s.total_cost, 9);
    }

    #[test]
    fn greedy_matches_exact_on_small_instances() {
        let cycles = vec![
            vec![cand(1, 2, 5), cand(2, 1, 3), cand(4, 0, 7)],
            vec![cand(1, 2, 5), cand(3, 1, 4)],
            vec![cand(2, 1, 3), cand(3, 1, 4)],
        ];
        let exact = solve_exact(&cycles, 100_000).unwrap();
        let greedy = solve_greedy(&cycles);
        assert!(greedy.total_cost >= exact.total_cost);
        // Both must actually cover everything.
        for s in [&exact, &greedy] {
            let choice: BTreeMap<TxnId, CandidateRollback> =
                s.rollbacks.iter().map(|r| (r.txn, *r)).collect();
            for c in &cycles {
                assert!(covers(&choice, c));
            }
        }
    }

    #[test]
    fn exhausted_budget_falls_back_to_greedy() {
        let cycles: Vec<Vec<CandidateRollback>> =
            (0..12).map(|i| (0..6).map(|j| cand(i * 6 + j, 1, i + j + 1)).collect()).collect();
        assert!(solve_exact(&cycles, 10).is_none());
        let s = solve(&cycles, 10);
        assert!(!s.optimal);
        assert!(!s.rollbacks.is_empty());
    }

    #[test]
    fn zero_cost_candidates_are_preferred() {
        let cycles = vec![vec![cand(1, 5, 0), cand(2, 1, 3)]];
        let s = solve(&cycles, 1_000);
        assert_eq!(s.total_cost, 0);
        assert_eq!(s.rollbacks[0].txn, TxnId::new(1));
    }

    #[test]
    fn empty_instance_is_trivially_solved() {
        let s = solve(&[], 1_000);
        assert!(s.optimal);
        assert_eq!(s.total_cost, 0);
        assert!(s.rollbacks.is_empty());
    }

    #[test]
    fn exhaustive_agrees_with_branch_and_bound_on_random_instances() {
        // Deterministic xorshift instance generator; the two exact solvers
        // use unrelated algorithms, so cost agreement on hundreds of
        // instances is strong cross-validation.
        let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move |bound: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % bound
        };
        for _ in 0..300 {
            let ncycles = 1 + next(4);
            let cycles: Vec<Vec<CandidateRollback>> = (0..ncycles)
                .map(|_| {
                    let members = 1 + next(4);
                    (0..members)
                        .map(|_| {
                            let txn = next(6) as u32;
                            let t = next(5) as u32;
                            // Cost is a function of (txn, target) and grows
                            // as the target gets deeper, as in the engine —
                            // rolling further back undoes more operations.
                            // Both properties matter: branch-and-bound only
                            // reaches another cycle's deeper candidate via
                            // `merge`, whose max-cost rule equals the true
                            // cost exactly when cost is depth-monotone.
                            cand(txn, t, 1 + (4 - t) * 3 + (txn * 7) % 5)
                        })
                        .collect()
                })
                .collect();
            let exhaustive = solve_exhaustive(&cycles).expect("small instance");
            let exact = solve_exact(&cycles, 1_000_000).expect("small instance");
            assert_eq!(exhaustive.total_cost, exact.total_cost, "instance {cycles:?}");
            for c in &cycles {
                assert!(solution_covers(&exhaustive.rollbacks, c));
                assert!(solution_covers(&exact.rollbacks, c));
            }
        }
    }

    #[test]
    fn solution_covers_detects_a_missing_cycle() {
        let cycle_a = vec![cand(1, 2, 5), cand(2, 1, 3)];
        let cycle_b = vec![cand(3, 1, 4)];
        // A plan that only cuts cycle A…
        let plan = vec![cand(2, 1, 3)];
        assert!(solution_covers(&plan, &cycle_a));
        assert!(!solution_covers(&plan, &cycle_b));
        // …and depth matters: a shallower rollback of the right txn does
        // not cover a deeper requirement.
        assert!(!solution_covers(&[cand(1, 3, 1)], &[cand(1, 1, 9)]));
    }

    #[test]
    fn exhaustive_rejects_oversized_instances() {
        let big: Vec<Vec<CandidateRollback>> =
            (0..30u32).map(|i| vec![cand(i, 1, 1), cand(i + 100, 2, 2)]).collect();
        assert!(solve_exhaustive(&big).is_none());
        assert!(solve_exhaustive(&[vec![]]).is_none());
    }

    #[test]
    fn greedy_handles_many_cycles() {
        // 30 cycles all sharing txn 0 — greedy should pick the hub.
        let cycles: Vec<Vec<CandidateRollback>> =
            (1..=30).map(|i| vec![cand(0, 1, 10), cand(i, 1, 8)]).collect();
        let s = solve_greedy(&cycles);
        assert_eq!(s.total_cost, 10);
        assert_eq!(s.rollbacks, vec![cand(0, 1, 10)]);
    }
}
