//! Brute-force optimality oracles over deadlock records.
//!
//! The engine keeps a [`DeadlockRecord`] for every deadlock it resolves
//! (built where the plan is made, *before* any rollback executes), in
//! [`pr_core::System::history`]. [`check_audit`] re-derives what the
//! resolution *should* have been using solvers that are algorithmically
//! independent of the production path:
//!
//! * **Coverage** — the executed plan must break every policy-filtered
//!   cycle ([`pr_graph::solution_covers`]).
//! * **§3.2 exactness** — the plan's cost is compared against
//!   [`pr_graph::solve_exhaustive`], a subset-enumeration solver that
//!   shares no code with the branch-and-bound/greedy production solver.
//!   A plan claiming `optimal` must match it exactly; no plan may ever
//!   beat it (that would mean the plan fails coverage or the enumeration
//!   is wrong). The measured gap of non-optimal (budget-exhausted or
//!   greedy) plans is the paper's heuristic-vs-optimal distance,
//!   aggregated in [`GapStats`].
//! * **§3.1 minimality** — in the exclusive-lock single-cycle regime under
//!   the MinCost policy, the plan's cost must equal the plain minimum over
//!   the unfiltered cycle members: "traverse the cycle and pick the
//!   cheapest victim".
//! * **Theorem 2 (ω)** — under the PartialOrder policy every victim must
//!   be the conflict causer itself or have entered the system strictly
//!   after the causer.
//!
//! The mutant self-tests at the bottom plant one bug of each class in a
//! fabricated record and assert the oracle catches it — guarding the
//! guards.

use pr_core::config::VictimPolicyKind;
use pr_core::deadlock::DeadlockRecord;
use pr_graph::{solution_covers, solve_exhaustive};

/// The oracle's verdict on one resolution.
#[derive(Clone, Debug, Default)]
pub struct AuditVerdict {
    /// Violations found (empty on a correct resolution).
    pub violations: Vec<String>,
    /// `plan cost − exhaustive optimum` over the policy-filtered instance,
    /// when the exhaustive solver ran.
    pub gap: Option<u64>,
    /// Whether the §3.1 exclusive-single-cycle minimality check applied.
    pub exclusive_checked: bool,
    /// Whether the instance had more than one cycle (§3.2 regime).
    pub multi_cycle: bool,
    /// Whether the instance exceeded the exhaustive solver's candidate cap.
    pub exact_skipped: bool,
}

/// Aggregated gap statistics over an exploration.
#[derive(Clone, Copy, Debug, Default)]
pub struct GapStats {
    /// Resolutions audited.
    pub audited: usize,
    /// Resolutions where the §3.1 minimality check applied.
    pub exclusive_checked: usize,
    /// Multi-cycle (§3.2) resolutions.
    pub multi_cycle: usize,
    /// Resolutions whose plan cost exceeded the exhaustive optimum
    /// (legal only for plans not claiming optimality).
    pub gapped: usize,
    /// Largest observed gap.
    pub max_gap: u64,
    /// Resolutions too large for the exhaustive solver.
    pub exact_skipped: usize,
}

impl GapStats {
    /// Folds one verdict into the totals.
    pub fn absorb(&mut self, v: &AuditVerdict) {
        self.audited += 1;
        if v.exclusive_checked {
            self.exclusive_checked += 1;
        }
        if v.multi_cycle {
            self.multi_cycle += 1;
        }
        if v.exact_skipped {
            self.exact_skipped += 1;
        }
        if let Some(gap) = v.gap {
            if gap > 0 {
                self.gapped += 1;
                self.max_gap = self.max_gap.max(gap);
            }
        }
    }
}

/// Checks one deadlock record against the brute-force oracles. `policy`
/// is the victim policy the engine ran under.
pub fn check_audit(record: &DeadlockRecord, policy: VictimPolicyKind) -> AuditVerdict {
    let mut v = AuditVerdict { multi_cycle: record.filtered.len() > 1, ..Default::default() };
    let plan = &record.plan;

    // Internal consistency: the reported total is the sum of the parts.
    let sum: u64 = plan.rollbacks.iter().map(|r| u64::from(r.cost)).sum();
    if sum != plan.total_cost {
        v.violations
            .push(format!("plan total_cost {} != sum of rollback costs {}", plan.total_cost, sum));
    }

    // Coverage: the executed rollbacks must break every filtered cycle.
    for (i, cycle) in record.filtered.iter().enumerate() {
        if !solution_covers(&plan.rollbacks, cycle) {
            v.violations.push(format!(
                "plan leaves cycle {i} unbroken (victims {:?})",
                plan.rollbacks.iter().map(|r| r.txn).collect::<Vec<_>>()
            ));
        }
    }

    // §3.2 exactness: compare against independent subset enumeration.
    if record.filtered.is_empty() {
        // Nothing to cut (defensive; the engine never records these).
    } else {
        match solve_exhaustive(&record.filtered) {
            Some(exact) => {
                if plan.total_cost < exact.total_cost {
                    v.violations.push(format!(
                        "plan cost {} beats the exhaustive optimum {} — the plan cannot \
                         actually cover every cycle",
                        plan.total_cost, exact.total_cost
                    ));
                } else {
                    let gap = plan.total_cost - exact.total_cost;
                    v.gap = Some(gap);
                    if plan.optimal && gap > 0 {
                        v.violations.push(format!(
                            "plan claims optimality at cost {} but the exhaustive optimum \
                             is {}",
                            plan.total_cost, exact.total_cost
                        ));
                    }
                }
            }
            None => v.exact_skipped = true,
        }
    }

    // §3.1 minimality: exclusive locks produce exactly one cycle, and the
    // chosen victim must be the cheapest member. Under MinCost the policy
    // filters nothing, so the unfiltered instance is the search space.
    if record.exclusive_only
        && policy == VictimPolicyKind::MinCost
        && record.unfiltered.len() == 1
        && !record.unfiltered[0].is_empty()
    {
        v.exclusive_checked = true;
        let min = record.unfiltered[0].iter().map(|c| u64::from(c.cost)).min().expect("non-empty");
        if plan.total_cost != min {
            v.violations.push(format!(
                "§3.1: exclusive single-cycle deadlock resolved at cost {} but the \
                 cheapest cycle member costs {min}",
                plan.total_cost
            ));
        }
        if plan.rollbacks.len() != 1 {
            v.violations.push(format!(
                "§3.1: single cycle needs exactly one victim, plan has {}",
                plan.rollbacks.len()
            ));
        }
    }

    // Theorem 2 (ω): PartialOrder victims are the causer or strictly
    // younger than the causer.
    if policy == VictimPolicyKind::PartialOrder {
        let causer = record.event.causer;
        let causer_entry = record.entry_orders.get(&causer).copied();
        for r in &plan.rollbacks {
            if r.txn == causer {
                continue;
            }
            let ok = match (record.entry_orders.get(&r.txn), causer_entry) {
                (Some(&e), Some(ce)) => e > ce,
                _ => false,
            };
            if !ok {
                v.violations.push(format!(
                    "ω violation: victim {:?} is neither the causer {:?} nor younger \
                     than it (entry orders {:?})",
                    r.txn, causer, record.entry_orders
                ));
            }
        }
    }

    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_core::deadlock::{DeadlockEvent, ResolutionPlan};
    use pr_graph::{CandidateRollback, Cycle, CycleMember};
    use pr_model::{EntityId, LockIndex, TxnId};
    use std::collections::BTreeMap;

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }

    fn cand(txn: u32, cost: u32) -> CandidateRollback {
        CandidateRollback {
            txn: t(txn),
            target: LockIndex::ZERO,
            ideal: LockIndex::ZERO,
            cost,
            conflict: pr_model::StateIndex::ZERO,
        }
    }

    /// A correct single-cycle exclusive-lock resolution: members cost 2
    /// and 3, the plan picks the cheaper.
    fn clean_record() -> DeadlockRecord {
        let members = vec![
            CycleMember { txn: t(1), holds: EntityId::new(0) },
            CycleMember { txn: t(2), holds: EntityId::new(1) },
        ];
        let cands = vec![cand(1, 2), cand(2, 3)];
        DeadlockRecord {
            event: DeadlockEvent {
                causer: t(2),
                entity: EntityId::new(0),
                cycles: vec![Cycle { members }],
            },
            unfiltered: vec![cands.clone()],
            filtered: vec![cands],
            plan: ResolutionPlan { rollbacks: vec![cand(1, 2)], total_cost: 2, optimal: true },
            exclusive_only: true,
            entry_orders: BTreeMap::from([(t(1), 0), (t(2), 1)]),
        }
    }

    #[test]
    fn clean_resolution_passes_every_oracle() {
        let v = check_audit(&clean_record(), VictimPolicyKind::MinCost);
        assert!(v.violations.is_empty(), "unexpected violations: {:?}", v.violations);
        assert!(v.exclusive_checked);
        assert_eq!(v.gap, Some(0));
    }

    /// Planted mutant 1: a victim comparator that is off by one picks the
    /// cost-3 member instead of the cost-2 member while still claiming
    /// optimality. Both the §3.1 minimum and the §3.2 exhaustive
    /// comparison must flag it.
    #[test]
    fn mutant_off_by_one_cost_comparator_is_caught() {
        let mut record = clean_record();
        record.plan = ResolutionPlan { rollbacks: vec![cand(2, 3)], total_cost: 3, optimal: true };
        let v = check_audit(&record, VictimPolicyKind::MinCost);
        assert!(
            v.violations.iter().any(|m| m.contains("claims optimality")),
            "exhaustive comparison missed the mutant: {:?}",
            v.violations
        );
        assert!(
            v.violations.iter().any(|m| m.contains("§3.1")),
            "§3.1 minimum check missed the mutant: {:?}",
            v.violations
        );
        assert_eq!(v.gap, Some(1));
    }

    /// Planted mutant 2: under the PartialOrder policy the picker rolls
    /// back a transaction *older* than the causer (and not the causer
    /// itself) — exactly what Theorem 2 forbids.
    #[test]
    fn mutant_omega_violating_victim_is_caught() {
        let mut record = clean_record();
        // Causer is t2 (entry 1); the mutant victimises t1 (entry 0).
        record.plan = ResolutionPlan { rollbacks: vec![cand(1, 2)], total_cost: 2, optimal: true };
        let v = check_audit(&record, VictimPolicyKind::PartialOrder);
        assert!(
            v.violations.iter().any(|m| m.contains("ω violation")),
            "ω check missed the mutant: {:?}",
            v.violations
        );
        // The same plan is fine for MinCost, where ω does not apply.
        let v = check_audit(&record, VictimPolicyKind::MinCost);
        assert!(!v.violations.iter().any(|m| m.contains("ω")));
    }

    /// Planted mutant 3: a multi-cycle cut that covers the first cycle but
    /// misses the second. Coverage must flag it, and because an uncovered
    /// plan can undercut the true optimum, the exhaustive comparison
    /// flags the impossible cost too.
    #[test]
    fn mutant_cut_missing_a_cycle_is_caught() {
        let members_a = vec![
            CycleMember { txn: t(1), holds: EntityId::new(0) },
            CycleMember { txn: t(2), holds: EntityId::new(1) },
        ];
        let members_b = vec![
            CycleMember { txn: t(1), holds: EntityId::new(0) },
            CycleMember { txn: t(3), holds: EntityId::new(2) },
        ];
        let cycle_a = vec![cand(1, 5), cand(2, 1)];
        let cycle_b = vec![cand(1, 5), cand(3, 1)];
        let record = DeadlockRecord {
            event: DeadlockEvent {
                causer: t(1),
                entity: EntityId::new(9),
                cycles: vec![Cycle { members: members_a }, Cycle { members: members_b }],
            },
            unfiltered: vec![cycle_a.clone(), cycle_b.clone()],
            filtered: vec![cycle_a, cycle_b],
            // The mutant cut breaks only cycle A.
            plan: ResolutionPlan { rollbacks: vec![cand(2, 1)], total_cost: 1, optimal: true },
            exclusive_only: false,
            entry_orders: BTreeMap::from([(t(1), 0), (t(2), 1), (t(3), 2)]),
        };
        let v = check_audit(&record, VictimPolicyKind::MinCost);
        assert!(
            v.violations.iter().any(|m| m.contains("unbroken")),
            "coverage check missed the mutant: {:?}",
            v.violations
        );
        assert!(
            v.violations.iter().any(|m| m.contains("beats the exhaustive optimum")),
            "cost sanity check missed the mutant: {:?}",
            v.violations
        );
        assert!(v.multi_cycle);
    }

    #[test]
    fn inconsistent_total_cost_is_caught() {
        let mut record = clean_record();
        record.plan.total_cost = 7;
        let v = check_audit(&record, VictimPolicyKind::MinCost);
        assert!(v.violations.iter().any(|m| m.contains("sum of rollback costs")));
    }

    #[test]
    fn gap_stats_fold() {
        let mut stats = GapStats::default();
        stats.absorb(&AuditVerdict { gap: Some(0), exclusive_checked: true, ..Default::default() });
        stats.absorb(&AuditVerdict { gap: Some(3), multi_cycle: true, ..Default::default() });
        stats.absorb(&AuditVerdict { exact_skipped: true, ..Default::default() });
        assert_eq!(stats.audited, 3);
        assert_eq!(stats.exclusive_checked, 1);
        assert_eq!(stats.multi_cycle, 1);
        assert_eq!(stats.gapped, 1);
        assert_eq!(stats.max_gap, 3);
        assert_eq!(stats.exact_skipped, 1);
    }
}
