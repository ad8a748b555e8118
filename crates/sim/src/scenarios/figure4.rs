//! Figure 4: a transaction whose write interleaving leaves only the
//! trivial lock states well-defined — and how deleting one write recovers
//! lock state 4.
//!
//! The paper's T1 locks six entities; its writes are spread so that every
//! interior lock state is undefined ("there are no articulation points in
//! either graph, so the only well-defined states are the trivial ones with
//! lock index 0 or lock index 6"). Deleting one write operation makes
//! "lock state …, with lock index 4, well-defined".
//!
//! We verify this with **three independent mechanisms**: the static
//! analyser, the articulation-point algorithm (Corollary 1), and the
//! engine's one-copy workspace during actual execution.

use super::entity;
use pr_core::{StrategyKind, System, SystemConfig, VictimPolicyKind};
use pr_graph::articulation::well_defined_by_articulation;
use pr_model::{analysis, LockIndex, ProgramBuilder, TransactionProgram, Value};
use pr_storage::GlobalStore;

/// The Figure 4 transaction: locks A–F (lock states 0–5); writes to A, B
/// and D are interleaved so their re-writes destroy every interior lock
/// state.
pub fn paper_t1_fig4() -> TransactionProgram {
    ProgramBuilder::new()
        .lock_exclusive(entity('a')) // lock state 0
        .write_const(entity('a'), 1) // first write to A (harmless)
        .lock_exclusive(entity('b')) // lock state 1
        .write_const(entity('b'), 1) // first write to B (harmless)
        .lock_exclusive(entity('c')) // lock state 2
        .write_const(entity('a'), 2) // edge {0,3}: destroys states 1, 2
        .lock_exclusive(entity('d')) // lock state 3
        .write_const(entity('b'), 2) // edge {1,4}: destroys states 2, 3
        .write_const(entity('d'), 1) // first write to D (harmless)
        .lock_exclusive(entity('e')) // lock state 4
        .lock_exclusive(entity('f')) // lock state 5
        .write_const(entity('d'), 2) // edge {3,6}: destroys states 4, 5
        .build_unchecked()
}

/// The same transaction with the final re-write of D deleted — the
/// paper's modified T1' in which lock state 4 becomes well-defined.
pub fn paper_t1_fig4_modified() -> TransactionProgram {
    ProgramBuilder::new()
        .lock_exclusive(entity('a'))
        .write_const(entity('a'), 1)
        .lock_exclusive(entity('b'))
        .write_const(entity('b'), 1)
        .lock_exclusive(entity('c'))
        .write_const(entity('a'), 2)
        .lock_exclusive(entity('d'))
        .write_const(entity('b'), 2)
        .write_const(entity('d'), 1)
        .lock_exclusive(entity('e'))
        .lock_exclusive(entity('f'))
        .build_unchecked()
}

/// Well-defined lock states of `program`, computed three ways; panics if
/// the mechanisms disagree.
pub fn well_defined_states(program: &TransactionProgram) -> Vec<u32> {
    // 1. Static analysis of the program text.
    let a = analysis::analyze(program);
    let from_analysis: Vec<u32> = a.well_defined.clone();

    // 2. The articulation-point algorithm over the same edges.
    let edges: Vec<(u32, u32)> = a.edges.iter().map(|e| (e.u, e.w)).collect();
    let from_articulation: Vec<u32> = well_defined_by_articulation(a.num_lock_states, &edges)
        .into_iter()
        .map(LockIndex::raw)
        .collect();
    assert_eq!(from_analysis, from_articulation, "Corollary 1 cross-check failed");

    // 3. The engine's SDG workspace after executing the growing phase: a
    //    lock state is well-defined iff it is its own deepest restorable
    //    state.
    let store = GlobalStore::with_entities(8, Value::new(0));
    let mut sys =
        System::new(store, SystemConfig::new(StrategyKind::Sdg, VictimPolicyKind::MinCost));
    let id = sys.admit_unchecked(program.clone());
    // Step through everything but COMMIT.
    for _ in 0..program.len() - 1 {
        sys.step(id).unwrap();
    }
    let rt = sys.txn(id).unwrap();
    let from_runtime: Vec<u32> = (0..=rt.lock_index().raw())
        .filter(|&q| rt.workspace.deepest_restorable(LockIndex::new(q)) == LockIndex::new(q))
        .collect();
    assert_eq!(from_analysis, from_runtime, "runtime workspace cross-check failed");

    from_analysis
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn original_t1_has_only_trivial_well_defined_states() {
        let wd = well_defined_states(&paper_t1_fig4());
        assert_eq!(wd, vec![0, 6], "only lock index 0 and lock index 6 are well-defined");
    }

    #[test]
    fn deleting_one_write_makes_lock_state_4_well_defined() {
        let wd = well_defined_states(&paper_t1_fig4_modified());
        assert!(wd.contains(&4), "lock state 4 becomes well-defined: {wd:?}");
        assert_eq!(wd, vec![0, 4, 5, 6]);
    }

    #[test]
    fn rollback_targets_match_the_analysis() {
        // Under SDG, a rollback of the original T1 aimed at lock state 4
        // lands at 0; the modified T1 lands exactly on 4.
        let a = analysis::analyze(&paper_t1_fig4());
        assert_eq!(a.latest_well_defined_at_or_below(4), 0);
        let a = analysis::analyze(&paper_t1_fig4_modified());
        assert_eq!(a.latest_well_defined_at_or_below(4), 4);
    }

    #[test]
    fn mcs_needs_no_such_compromise() {
        // The MCS stacks can reproduce every lock state of the original
        // T1 — the storage-for-precision tradeoff of §4 in one assertion.
        let store = GlobalStore::with_entities(8, Value::new(0));
        let mut sys =
            System::new(store, SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::MinCost));
        let program = paper_t1_fig4();
        let id = sys.admit_unchecked(program.clone());
        for _ in 0..program.len() - 1 {
            sys.step(id).unwrap();
        }
        let rt = sys.txn(id).unwrap();
        for target in 0..=6u32 {
            assert_eq!(
                rt.reachable_target(StrategyKind::Mcs, LockIndex::new(target)),
                LockIndex::new(target)
            );
        }
    }
}
