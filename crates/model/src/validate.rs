//! Static validation of transaction programs against the §2 protocol.
//!
//! A program is admissible when it is two-phase, lock-covers every access,
//! performs no writes before its first lock request (§4's convenience
//! assumption), stays within its declared local variables, and terminates in
//! a single `COMMIT`.

use crate::error::{ModelError, Violation};
use crate::ids::{EntityId, VarId};
use crate::op::{Expr, LockMode, Op};
use crate::program::TransactionProgram;
use std::collections::HashMap;

/// Validates `program`, returning all violations found (empty = valid).
pub fn violations(program: &TransactionProgram) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut held: HashMap<EntityId, LockMode> = HashMap::new();
    let mut unlocked_any = false;
    let mut locked_any = false;
    let mut committed_at: Option<usize> = None;
    let declared = program.num_vars();

    let check_var = |pc: usize, var: VarId, out: &mut Vec<Violation>| {
        if var.index() >= declared {
            out.push(Violation::VarOutOfRange { pc, var, declared });
        }
    };
    // Valid programs (every admission re-validates) take the allocation-free
    // scan; only an offending expression pays for the sorted, deduplicated
    // list the diagnostics are reported in.
    let check_expr = |pc: usize, expr: &Expr, out: &mut Vec<Violation>| {
        if expr.any_var(|v| v.index() >= declared) {
            for v in expr.variables() {
                check_var(pc, v, out);
            }
        }
    };

    for (pc, op) in program.ops().iter().enumerate() {
        if let Some(cpc) = committed_at {
            // Report each trailing op once; committed_at stays at first commit.
            let _ = cpc;
            out.push(Violation::OpAfterCommit { pc });
            continue;
        }
        match op {
            Op::LockShared(e) | Op::LockExclusive(e) => {
                if unlocked_any {
                    out.push(Violation::LockAfterUnlock { pc, entity: *e });
                }
                let mode = if matches!(op, Op::LockExclusive(_)) {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                match held.get(e) {
                    // `LS` then `LX`: an upgrade, which the model
                    // deliberately rejects — the paper defines neither
                    // the wait semantics nor the rollback target of an
                    // in-place strengthening, and two upgrading shared
                    // holders deadlock on each other. The held mode is
                    // still strengthened so follow-on diagnostics (e.g.
                    // writes under the would-be exclusive lock) don't
                    // cascade.
                    Some(LockMode::Shared) if mode == LockMode::Exclusive => {
                        out.push(Violation::LockUpgrade { pc, entity: *e });
                        held.insert(*e, LockMode::Exclusive);
                    }
                    // Re-request in the same or a weaker mode: plain
                    // double lock.
                    Some(_) => {
                        out.push(Violation::DoubleLock { pc, entity: *e });
                    }
                    None => {
                        held.insert(*e, mode);
                    }
                }
                locked_any = true;
            }
            Op::Unlock(e) => {
                if held.remove(e).is_none() {
                    out.push(Violation::UnlockNotHeld { pc, entity: *e });
                }
                unlocked_any = true;
            }
            Op::Read { entity, into } => {
                if !held.contains_key(entity) {
                    out.push(Violation::ReadWithoutLock { pc, entity: *entity });
                }
                if !locked_any {
                    out.push(Violation::WriteBeforeFirstLock { pc });
                }
                check_var(pc, *into, &mut out);
            }
            Op::Write { entity, expr } => {
                match held.get(entity) {
                    Some(LockMode::Exclusive) => {}
                    _ => out.push(Violation::WriteWithoutExclusiveLock { pc, entity: *entity }),
                }
                if !locked_any {
                    out.push(Violation::WriteBeforeFirstLock { pc });
                }
                check_expr(pc, expr, &mut out);
            }
            Op::Assign { var, expr } => {
                if !locked_any {
                    out.push(Violation::WriteBeforeFirstLock { pc });
                }
                check_var(pc, *var, &mut out);
                check_expr(pc, expr, &mut out);
            }
            Op::Compute(expr) => {
                check_expr(pc, expr, &mut out);
            }
            Op::Commit => {
                committed_at = Some(pc);
            }
        }
    }

    if committed_at.is_none() {
        out.push(Violation::MissingCommit);
    }
    out
}

/// Validates `program`, returning `Err` with every violation if any exist.
pub fn validate(program: &TransactionProgram) -> Result<(), ModelError> {
    let vs = violations(program);
    if vs.is_empty() {
        Ok(())
    } else {
        Err(ModelError::InvalidProgram(vs))
    }
}

/// Whether the program is two-phase *and* otherwise admissible.
pub fn is_valid(program: &TransactionProgram) -> bool {
    violations(program).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Expr;
    use crate::value::Value;

    fn prog(ops: Vec<Op>, nvars: usize) -> TransactionProgram {
        TransactionProgram::from_parts(ops, vec![Value::ZERO; nvars])
    }

    #[test]
    fn valid_two_phase_program_passes() {
        let p = prog(
            vec![
                Op::LockExclusive(EntityId::new(0)),
                Op::LockShared(EntityId::new(1)),
                Op::Read { entity: EntityId::new(1), into: VarId::new(0) },
                Op::Write { entity: EntityId::new(0), expr: Expr::var(VarId::new(0)) },
                Op::Unlock(EntityId::new(0)),
                Op::Unlock(EntityId::new(1)),
                Op::Commit,
            ],
            1,
        );
        assert!(is_valid(&p), "{:?}", violations(&p));
    }

    #[test]
    fn lock_after_unlock_is_rejected() {
        let p = prog(
            vec![
                Op::LockExclusive(EntityId::new(0)),
                Op::Unlock(EntityId::new(0)),
                Op::LockExclusive(EntityId::new(1)),
                Op::Commit,
            ],
            0,
        );
        assert!(violations(&p)
            .iter()
            .any(|v| matches!(v, Violation::LockAfterUnlock { pc: 2, .. })));
    }

    #[test]
    fn double_lock_is_rejected() {
        // Same mode twice (both directions) and the downgrade LX→LS are
        // all plain double locks.
        for ops in [
            vec![Op::LockShared(EntityId::new(0)), Op::LockShared(EntityId::new(0)), Op::Commit],
            vec![
                Op::LockExclusive(EntityId::new(0)),
                Op::LockExclusive(EntityId::new(0)),
                Op::Commit,
            ],
            vec![Op::LockExclusive(EntityId::new(0)), Op::LockShared(EntityId::new(0)), Op::Commit],
        ] {
            let p = prog(ops, 0);
            assert!(
                violations(&p).iter().any(|v| matches!(v, Violation::DoubleLock { pc: 1, .. })),
                "{:?}",
                violations(&p)
            );
        }
    }

    #[test]
    fn shared_to_exclusive_upgrade_is_rejected_as_upgrade() {
        let p = prog(
            vec![
                Op::LockShared(EntityId::new(0)),
                Op::LockExclusive(EntityId::new(0)),
                Op::Write { entity: EntityId::new(0), expr: Expr::lit(1) },
                Op::Commit,
            ],
            0,
        );
        let vs = violations(&p);
        assert!(vs.iter().any(|v| matches!(v, Violation::LockUpgrade { pc: 1, .. })), "{vs:?}");
        // The upgrade is the only violation: the held mode is treated as
        // strengthened afterwards, so the write does not also fire.
        assert_eq!(vs.len(), 1, "{vs:?}");
    }

    #[test]
    fn unlock_not_held_is_rejected() {
        // Unlock of a never-locked entity.
        let p = prog(
            vec![Op::LockShared(EntityId::new(0)), Op::Unlock(EntityId::new(1)), Op::Commit],
            0,
        );
        let vs = violations(&p);
        assert!(
            vs.iter().any(|v| matches!(v, Violation::UnlockNotHeld { pc: 1, entity: EntityId(1) })),
            "{vs:?}"
        );
        // Unlock of an entity already released.
        let p2 = prog(
            vec![
                Op::LockShared(EntityId::new(0)),
                Op::Unlock(EntityId::new(0)),
                Op::Unlock(EntityId::new(0)),
                Op::Commit,
            ],
            0,
        );
        assert!(violations(&p2)
            .iter()
            .any(|v| matches!(v, Violation::UnlockNotHeld { pc: 2, .. })));
    }

    #[test]
    fn read_without_lock_is_rejected() {
        let p = prog(
            vec![
                Op::LockShared(EntityId::new(1)),
                Op::Read { entity: EntityId::new(0), into: VarId::new(0) },
                Op::Commit,
            ],
            1,
        );
        assert!(violations(&p).iter().any(|v| matches!(v, Violation::ReadWithoutLock { .. })));
    }

    #[test]
    fn write_under_shared_lock_is_rejected() {
        let p = prog(
            vec![
                Op::LockShared(EntityId::new(0)),
                Op::Write { entity: EntityId::new(0), expr: Expr::lit(1) },
                Op::Commit,
            ],
            0,
        );
        assert!(violations(&p)
            .iter()
            .any(|v| matches!(v, Violation::WriteWithoutExclusiveLock { .. })));
    }

    #[test]
    fn write_after_unlock_of_that_entity_is_rejected() {
        let p = prog(
            vec![
                Op::LockExclusive(EntityId::new(0)),
                Op::Unlock(EntityId::new(0)),
                Op::Write { entity: EntityId::new(0), expr: Expr::lit(1) },
                Op::Commit,
            ],
            0,
        );
        assert!(violations(&p)
            .iter()
            .any(|v| matches!(v, Violation::WriteWithoutExclusiveLock { pc: 2, .. })));
    }

    #[test]
    fn write_before_first_lock_is_rejected() {
        let p = prog(
            vec![
                Op::Assign { var: VarId::new(0), expr: Expr::lit(1) },
                Op::LockExclusive(EntityId::new(0)),
                Op::Commit,
            ],
            1,
        );
        assert!(violations(&p)
            .iter()
            .any(|v| matches!(v, Violation::WriteBeforeFirstLock { pc: 0 })));
    }

    #[test]
    fn var_out_of_range_is_rejected_in_exprs_and_targets() {
        let p = prog(
            vec![
                Op::LockExclusive(EntityId::new(0)),
                Op::Assign { var: VarId::new(2), expr: Expr::var(VarId::new(5)) },
                Op::Commit,
            ],
            1,
        );
        let vs = violations(&p);
        assert!(vs.iter().any(|v| matches!(v, Violation::VarOutOfRange { var: VarId(2), .. })));
        assert!(vs.iter().any(|v| matches!(v, Violation::VarOutOfRange { var: VarId(5), .. })));
    }

    #[test]
    fn missing_commit_and_op_after_commit() {
        let p = prog(vec![Op::LockShared(EntityId::new(0))], 0);
        assert!(violations(&p).contains(&Violation::MissingCommit));

        let p2 = prog(vec![Op::Commit, Op::LockShared(EntityId::new(0))], 0);
        assert!(violations(&p2).iter().any(|v| matches!(v, Violation::OpAfterCommit { pc: 1 })));
    }

    #[test]
    fn empty_program_needs_commit() {
        let p = prog(vec![], 0);
        assert_eq!(violations(&p), vec![Violation::MissingCommit]);
    }
}
