//! Engine configuration: rollback strategy, victim policy, grant policy,
//! limits.

use pr_lock::GrantPolicy;

/// Which §4 rollback implementation the system runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StrategyKind {
    /// Total removal and restart — the baseline the paper improves on.
    /// One copy per entity (a workspace budget of 1); every rollback goes
    /// to lock state 0.
    Total,
    /// Multi-lock copy strategy: per-lock-state value stacks allow rollback
    /// to *any* lock state, at up to `n(n+1)/2` copies (Theorem 3).
    Mcs,
    /// State-dependency-graph strategy: one copy per entity and variable
    /// (a workspace budget of 1), rollback to the deepest **well-defined**
    /// lock state at or below the ideal target (Theorem 4) — total-rollback
    /// storage cost, near-MCS rollback depth.
    Sdg,
    /// Bounded-copy MCS: version stacks capped at the given number of
    /// copies per entity/variable, evicting the oldest copy on overflow.
    /// Implements the extension proposed in the paper's closing paragraph
    /// ("the state-dependency graph implementation … can easily be
    /// extended to allow more than one local copy"): a large budget
    /// behaves like full MCS, and the sweep in between answers the paper's
    /// open question of how bounded extra storage buys back well-defined
    /// states. `Bounded(1)` runs exactly as [`StrategyKind::Sdg`], on the
    /// same workspace; it differs only in the copy unit it reports
    /// (Theorem 3's copies beyond each stack's base, where SDG reports
    /// one per exclusively held entity).
    Bounded(u32),
    /// Transaction repair (Veldhuizen, arXiv 1403.5645): lock state rolls
    /// back exactly like MCS (to the conflicting access, §4's ideal
    /// target), but instead of discarding the suffix's work the victim
    /// records a replay tape and deterministically *re-executes* the
    /// suffix against current entity values, reusing every operation
    /// whose inputs did not change. Rollback depth and victim choice are
    /// identical to MCS (planner-equivalent by construction); the saving
    /// is re-execution work, accounted as `ops_reused` vs `ops_replayed`.
    Repair,
}

impl StrategyKind {
    /// All strategies, for sweeps.
    pub const ALL: [StrategyKind; 4] =
        [StrategyKind::Total, StrategyKind::Mcs, StrategyKind::Sdg, StrategyKind::Repair];

    /// Short display name used in experiment tables.
    pub fn name(self) -> String {
        match self {
            StrategyKind::Total => "total".into(),
            StrategyKind::Mcs => "mcs".into(),
            StrategyKind::Sdg => "sdg".into(),
            StrategyKind::Bounded(k) => format!("bounded-{k}"),
            StrategyKind::Repair => "repair".into(),
        }
    }

    /// Parses a strategy name as the CLI bins spell it: `total`, `mcs`,
    /// `sdg`, `repair`, or `bounded-K` with `K >= 1`. One parser for all
    /// five bins so `repair` cannot be accepted in one sweep and rejected
    /// in another.
    pub fn parse(name: &str) -> Option<StrategyKind> {
        match name {
            "total" => Some(StrategyKind::Total),
            "mcs" => Some(StrategyKind::Mcs),
            "sdg" => Some(StrategyKind::Sdg),
            "repair" => Some(StrategyKind::Repair),
            other => {
                let k = other.strip_prefix("bounded-")?;
                k.parse().ok().filter(|&k| k > 0).map(StrategyKind::Bounded)
            }
        }
    }
}

/// How the victim(s) of a deadlock are chosen (§3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VictimPolicyKind {
    /// Minimise total rollback cost with full freedom — the §3.1 optimum.
    /// Exercising it without restriction risks *potentially infinite
    /// mutual preemption* (Figure 2).
    MinCost,
    /// Theorem 2's remedy: restrict victims by a time-invariant partial
    /// order ω on entry times. We orient ω so that victims are strictly
    /// *younger* than the causer (the wound-wait direction), with the
    /// causer yielding when it is itself the youngest on the cycle. Any
    /// orientation rules out mutual preemption (Theorem 2); this one also
    /// guarantees termination: the globally oldest transaction can never
    /// be a victim, so it always progresses.
    PartialOrder,
    /// Roll back the youngest (latest-entry) member of each cycle —
    /// a common heuristic baseline.
    Youngest,
    /// Always roll back the transaction that caused the conflict. Sound
    /// for multi-cycle deadlocks too, since every cycle passes through the
    /// causer (§3.2).
    ConflictCauser,
}

impl VictimPolicyKind {
    /// All policies, for sweeps.
    pub const ALL: [VictimPolicyKind; 4] = [
        VictimPolicyKind::MinCost,
        VictimPolicyKind::PartialOrder,
        VictimPolicyKind::Youngest,
        VictimPolicyKind::ConflictCauser,
    ];

    /// Short display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            VictimPolicyKind::MinCost => "min-cost",
            VictimPolicyKind::PartialOrder => "partial-order",
            VictimPolicyKind::Youngest => "youngest",
            VictimPolicyKind::ConflictCauser => "causer",
        }
    }

    /// Parses a policy name as [`Self::name`] spells it, so every bin
    /// accepts exactly the names its tables and CSVs print.
    pub fn parse(name: &str) -> Option<VictimPolicyKind> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Full engine configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SystemConfig {
    /// Rollback implementation.
    pub strategy: StrategyKind,
    /// Victim selection policy.
    pub victim: VictimPolicyKind,
    /// Lock-grant policy: paper-faithful barging (default) or the
    /// anti-starvation fair queue. See [`GrantPolicy`].
    pub grant_policy: GrantPolicy,
    /// Maximum cycles enumerated per deadlock (multi-cycle deadlocks
    /// beyond the cap are still broken: every cycle passes through the
    /// causer, and unresolved cycles resurface on the next blocked step).
    pub cycle_cap: usize,
    /// Node budget for the exact cut-set solver before falling back to the
    /// greedy heuristic.
    pub cutset_node_budget: u64,
    /// Safety valve for `run_to_completion`: abort after this many steps.
    pub max_steps: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            strategy: StrategyKind::Mcs,
            victim: VictimPolicyKind::PartialOrder,
            grant_policy: GrantPolicy::default(),
            cycle_cap: 64,
            cutset_node_budget: 200_000,
            max_steps: 10_000_000,
        }
    }
}

impl SystemConfig {
    /// A configuration with the given strategy and policy, default limits.
    pub fn new(strategy: StrategyKind, victim: VictimPolicyKind) -> Self {
        SystemConfig { strategy, victim, ..Default::default() }
    }

    /// The same configuration with the given grant policy.
    pub fn with_grant_policy(mut self, grant_policy: GrantPolicy) -> Self {
        self.grant_policy = grant_policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SystemConfig::default();
        assert_eq!(c.strategy, StrategyKind::Mcs);
        assert_eq!(c.victim, VictimPolicyKind::PartialOrder);
        assert_eq!(c.grant_policy, GrantPolicy::Barging, "paper-faithful default");
        assert!(c.cycle_cap > 0);
        assert!(c.max_steps > 0);
    }

    #[test]
    fn grant_policy_builder_overrides_only_that_field() {
        let c = SystemConfig::new(StrategyKind::Total, VictimPolicyKind::Youngest)
            .with_grant_policy(GrantPolicy::FairQueue);
        assert_eq!(c.grant_policy, GrantPolicy::FairQueue);
        assert_eq!(c.strategy, StrategyKind::Total);
        assert_eq!(c.victim, VictimPolicyKind::Youngest);
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<String> =
            StrategyKind::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 4);
        assert_eq!(StrategyKind::Bounded(3).name(), "bounded-3");
        let names: std::collections::HashSet<&str> =
            VictimPolicyKind::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn parse_round_trips_every_name() {
        for s in StrategyKind::ALL {
            assert_eq!(StrategyKind::parse(&s.name()), Some(s));
        }
        assert_eq!(StrategyKind::parse("bounded-3"), Some(StrategyKind::Bounded(3)));
        assert_eq!(StrategyKind::parse("repair"), Some(StrategyKind::Repair));
        assert_eq!(StrategyKind::parse("restart"), None);
        assert_eq!(StrategyKind::parse("bounded-"), None);
        assert_eq!(StrategyKind::parse("bounded-0"), None, "budget 0 would run as 1");
        assert_eq!(StrategyKind::parse(""), None);
    }

    #[test]
    fn victim_policy_parse_round_trips_every_name() {
        for p in VictimPolicyKind::ALL {
            assert_eq!(VictimPolicyKind::parse(p.name()), Some(p));
        }
        assert_eq!(VictimPolicyKind::parse("conflict-causer"), None);
        assert_eq!(VictimPolicyKind::parse(""), None);
    }

    #[test]
    fn new_overrides_strategy_and_policy_only() {
        let c = SystemConfig::new(StrategyKind::Sdg, VictimPolicyKind::MinCost);
        assert_eq!(c.strategy, StrategyKind::Sdg);
        assert_eq!(c.victim, VictimPolicyKind::MinCost);
        assert_eq!(c.cycle_cap, SystemConfig::default().cycle_cap);
    }
}
