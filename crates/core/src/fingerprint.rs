//! Canonical engine-state encoding for exhaustive state-space exploration.
//!
//! The `pr-explore` model checker memoizes visited states, so it needs a
//! *canonical* encoding of a [`System`]: two systems encode identically iff
//! every future behaviour is identical. The encoding covers exactly the
//! state that drives the engine's dynamics — transaction runtimes (program
//! counter, state index, phase, lock states, workspace contents), the
//! lock table (holders and the wait queue per
//! entity), the waits-for graph, and the database — and excludes
//! monotone instrumentation (metrics, histories, event logs, peak
//! counters) that never feeds back into execution.
//!
//! The Repair strategy's replay tape and open replay window are likewise
//! excluded. The tape only ever supplies a value when that value is
//! verified equal to what re-execution would produce (reads compare
//! against the live entity; computed ops reuse only when every input is
//! untainted), so two systems differing solely in tape contents have
//! identical future behaviour — the tape steers the replayed/reused
//! *ledgers*, which are instrumentation, never the values.
//!
//! The visited set keys on the **full encoding**, never on a hash alone: a
//! 64-bit fingerprint collision would silently merge distinct states and
//! unsoundly prune reachable behaviours. [`fingerprint`] exists for
//! compact display and statistics only.
//!
//! ## Transaction-id symmetry
//!
//! [`canonical_state_relabeled`] encodes under a transaction-id relabeling
//! so callers can canonicalise states that differ only by which of two
//! *identical* programs got which id. This is sound only when nothing
//! id-dependent feeds the dynamics — entry orders must be excluded (so the
//! `PartialOrder`/`Youngest` policies, which consult them, are out), and
//! even then id-order tie-breaks (the cut-set solver keeps the first best
//! solution; `BTreeSet` iteration is id-ordered) can make two symmetric
//! states *diverge in trace* while agreeing in outcome. `pr-explore`
//! therefore uses symmetry only for statistics, validating it empirically
//! against the full exploration, never for the oracles.

use crate::engine::System;
use crate::runtime::Phase;
use pr_model::TxnId;
use std::fmt::Write;

/// Canonical encoding of the system's dynamic state under the identity
/// relabeling, entry orders included. See the module docs for coverage.
pub fn canonical_state(sys: &System) -> String {
    canonical_state_relabeled(sys, &|t| t, true)
}

/// Canonical encoding under a transaction-id relabeling.
///
/// `relabel` must be a bijection over the admitted transaction ids.
/// `include_entry_order` keeps each transaction's ω rank in the encoding;
/// pass `false` only under id-symmetry reduction (where entry orders are
/// id-correlated and would defeat the relabeling).
pub fn canonical_state_relabeled(
    sys: &System,
    relabel: &dyn Fn(TxnId) -> TxnId,
    include_entry_order: bool,
) -> String {
    let mut out = String::with_capacity(512);

    // Transactions, sorted by relabeled id so symmetric states agree.
    let mut txns: Vec<(TxnId, TxnId)> =
        sys.txn_ids().into_iter().map(|id| (relabel(id), id)).collect();
    txns.sort_unstable();
    for (label, id) in &txns {
        let rt = sys.txn(*id).expect("listed id exists");
        let _ = write!(
            out,
            "T{}:pc{},s{},ph{},sh{}",
            label.raw(),
            rt.pc,
            rt.state.raw(),
            match rt.phase {
                Phase::Running => 'R',
                Phase::Blocked => 'B',
                Phase::Committed => 'C',
            },
            u8::from(rt.shrinking),
        );
        if include_entry_order {
            let _ = write!(out, ",w{}", rt.entry_order);
        }
        if let Some(entity) = rt.blocked_on {
            let _ = write!(out, ",b{}", entity.raw());
        }
        out.push('|');
        for ls in &rt.lock_states {
            let _ = write!(
                out,
                "L{},{:?},{},{};",
                ls.entity.raw(),
                ls.mode,
                ls.state_index.raw(),
                ls.pc
            );
        }
        out.push('|');
        rt.workspace.encode_state(&mut out);
        out.push('\n');
    }

    // Lock table: holders (sorted by relabeled id — grant order among
    // concurrent holders is immaterial) and the wait queue (in order — the
    // fair queue promotes positionally).
    let mut entities = sys.table().entities();
    entities.sort_unstable();
    for entity in entities {
        let _ = write!(out, "e{}:", entity.raw());
        let mut holders: Vec<String> = sys
            .table()
            .holder_records(entity)
            .iter()
            .map(|h| {
                format!(
                    "{},{:?},{},{}",
                    relabel(h.txn).raw(),
                    h.mode,
                    h.requested_from_state.raw(),
                    h.lock_state.raw()
                )
            })
            .collect();
        holders.sort_unstable();
        for h in &holders {
            let _ = write!(out, "h{h};");
        }
        for w in sys.table().waiters_of(entity) {
            let _ = write!(
                out,
                "q{},{:?},{},{};",
                relabel(w.txn).raw(),
                w.mode,
                w.requested_from_state.raw(),
                w.lock_state.raw()
            );
        }
        out.push('\n');
    }

    // Waits-for graph (technically derivable from table + phases, but
    // cheap to include and it makes a table/graph divergence visible as a
    // distinct state rather than a silent merge).
    let mut waits: Vec<String> = sys
        .txn_ids()
        .into_iter()
        .filter_map(|id| {
            sys.graph().wait_of(id).map(|(entity, mut blockers)| {
                for b in &mut blockers {
                    *b = relabel(*b);
                }
                blockers.sort_unstable();
                let list: Vec<String> = blockers.iter().map(|b| b.raw().to_string()).collect();
                format!("W{}:{}<{}", relabel(id).raw(), entity.raw(), list.join(","))
            })
        })
        .collect();
    waits.sort_unstable();
    for w in &waits {
        let _ = writeln!(out, "{w}");
    }

    // Database values.
    for (id, value) in sys.store().iter() {
        let _ = write!(out, "D{}={};", id.raw(), value.raw());
    }
    out
}

/// 64-bit FNV-1a of the canonical encoding — for display and statistics
/// (state-space reports, trace labels), **not** for visited-set keys.
pub fn fingerprint(sys: &System) -> u64 {
    fnv1a(canonical_state(sys).as_bytes())
}

/// FNV-1a over raw bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{StrategyKind, SystemConfig, VictimPolicyKind};
    use crate::engine::StepOutcome;
    use pr_model::{EntityId, ProgramBuilder, Value};
    use pr_storage::GlobalStore;

    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }

    fn two_txn_system(strategy: StrategyKind) -> System {
        let store = GlobalStore::with_entities(2, Value::new(10));
        let mut sys = System::new(store, SystemConfig::new(strategy, VictimPolicyKind::MinCost));
        let p = |a: u32, b: u32| {
            ProgramBuilder::new()
                .lock_exclusive(e(a))
                .write_const(e(a), 7)
                .lock_exclusive(e(b))
                .unlock(e(a))
                .unlock(e(b))
                .build_unchecked()
        };
        sys.admit_unchecked(p(0, 1));
        sys.admit_unchecked(p(1, 0));
        sys
    }

    #[test]
    fn identical_histories_encode_identically() {
        let mk = || {
            let mut sys = two_txn_system(StrategyKind::Mcs);
            sys.step(TxnId::new(1)).unwrap();
            sys.step(TxnId::new(2)).unwrap();
            sys
        };
        let (a, b) = (mk(), mk());
        assert_eq!(canonical_state(&a), canonical_state(&b));
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn a_step_changes_the_encoding() {
        let mut sys = two_txn_system(StrategyKind::Mcs);
        let before = canonical_state(&sys);
        sys.step(TxnId::new(1)).unwrap();
        assert_ne!(before, canonical_state(&sys));
    }

    #[test]
    fn clone_preserves_encoding_and_behaviour() {
        let mut sys = two_txn_system(StrategyKind::Sdg);
        sys.step(TxnId::new(1)).unwrap();
        sys.step(TxnId::new(1)).unwrap();
        let mut copy = sys.clone();
        assert_eq!(canonical_state(&sys), canonical_state(&copy));
        // Stepping the original and the clone identically keeps them equal.
        let a = sys.step(TxnId::new(2)).unwrap();
        let b = copy.step(TxnId::new(2)).unwrap();
        assert_eq!(a, b);
        assert_eq!(canonical_state(&sys), canonical_state(&copy));
    }

    #[test]
    fn clone_is_independent_of_the_original() {
        let mut sys = two_txn_system(StrategyKind::Mcs);
        let copy = sys.clone();
        let before = canonical_state(&copy);
        sys.step(TxnId::new(1)).unwrap();
        sys.step(TxnId::new(2)).unwrap();
        assert_eq!(canonical_state(&copy), before, "clone unaffected by original's steps");
    }

    #[test]
    fn symmetric_relabeling_of_identical_programs_agrees() {
        // Two identical programs; run the mirror-image schedules and check
        // the swapped relabeling makes the states agree (entry orders
        // excluded).
        let prog = || {
            ProgramBuilder::new()
                .lock_exclusive(e(0))
                .write_const(e(0), 3)
                .unlock(e(0))
                .build_unchecked()
        };
        let store = || GlobalStore::with_entities(1, Value::ZERO);
        let config = SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::MinCost);
        let mut a = System::new(store(), config);
        a.admit_unchecked(prog());
        a.admit_unchecked(prog());
        let mut b = a.clone();
        // a steps T1; b steps T2 — mirror images.
        assert_eq!(a.step(TxnId::new(1)).unwrap(), StepOutcome::Progressed);
        assert_eq!(b.step(TxnId::new(2)).unwrap(), StepOutcome::Progressed);
        let swap = |t: TxnId| {
            if t == TxnId::new(1) {
                TxnId::new(2)
            } else if t == TxnId::new(2) {
                TxnId::new(1)
            } else {
                t
            }
        };
        let ident = |t: TxnId| t;
        assert_eq!(
            canonical_state_relabeled(&a, &ident, false),
            canonical_state_relabeled(&b, &swap, false),
        );
        // With entry orders included the relabeling no longer matches.
        assert_ne!(
            canonical_state_relabeled(&a, &ident, true),
            canonical_state_relabeled(&b, &swap, true),
        );
    }
}
