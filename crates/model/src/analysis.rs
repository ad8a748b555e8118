//! Static analysis of a program's state-dependency structure (§4–§5).
//!
//! For a straight-line program the state-dependency graph a transaction
//! would build at the end of its growing phase is statically known. This
//! module computes it, which powers:
//!
//! * the **well-defined lock state** count the paper uses to compare
//!   transaction structures (Figures 4 and 5),
//! * the §5 **write clustering** metric ("as few lock states as possible
//!   between successive write operations to a given entity"), and
//! * detection of §5's **three-phase** structure (acquire / update /
//!   release), which guarantees every lock state is well-defined.
//!
//! ## Timing conventions
//!
//! Lock state `k` immediately precedes the `k`-th lock request (0-based).
//! An operation executed after request `k` was granted and before request
//! `k+1` has lock index `k+1` — it happens *before* lock state `k+1` is
//! reached. Consequently a write with lock index `w` to an entity whose
//! *index of restorability* is `u` destroys exactly the lock states `q`
//! with `u < q < w` (Theorem 4): their value of that entity was some
//! intermediate value that the write overwrote.
//!
//! The index of restorability of an entity (or local variable) is the lock
//! index of the last lock state preceding its *first* write — up to there
//! the value equals the global (or initial) value, which is always
//! available (§4).

use crate::ids::{EntityId, VarId};
use crate::op::Op;
use crate::program::TransactionProgram;
use std::collections::HashMap;

/// A write-dependency edge `{u, w}` of the state-dependency graph: a write
/// at lock index `w` to an entity/variable with restorability index `u`.
/// The edge renders lock states `q` with `u < q < w` undefined.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WriteEdge {
    /// Index of restorability of the written entity or variable.
    pub u: u32,
    /// Lock index of the write.
    pub w: u32,
}

impl WriteEdge {
    /// Whether this edge makes lock state `q` undefined.
    #[inline]
    pub fn spans(&self, q: u32) -> bool {
        self.u < q && q < self.w
    }

    /// Number of lock states this edge renders undefined.
    #[inline]
    pub fn width(&self) -> u32 {
        (self.w - self.u).saturating_sub(1)
    }
}

/// Result of statically analysing one program.
#[derive(Clone, Debug)]
pub struct ProgramAnalysis {
    /// Number of lock requests = number of non-trivial lock states.
    /// Rollback targets range over lock indices `0..num_lock_states`.
    pub num_lock_states: u32,
    /// All write-dependency edges, in program order of the writes.
    pub edges: Vec<WriteEdge>,
    /// Index of restorability per written entity.
    pub entity_restorability: HashMap<EntityId, u32>,
    /// Index of restorability per written local variable.
    pub var_restorability: HashMap<VarId, u32>,
    /// Lock indices `q ∈ 0..=num_lock_states` that are well-defined at the
    /// end of the growing phase.
    pub well_defined: Vec<u32>,
    /// Whether every write (to entities and locals) follows the last lock
    /// request — §5's structuring rule that makes monitoring unnecessary.
    pub writes_after_last_lock: bool,
    /// Whether the program has the strict three-phase shape: all lock
    /// requests, then only reads/writes/assigns, then only unlocks, then
    /// commit.
    pub is_three_phase: bool,
}

impl ProgramAnalysis {
    /// Lock states rendered undefined by write interleaving.
    pub fn undefined_count(&self) -> u32 {
        self.num_lock_states + 1 - self.well_defined.len() as u32
    }

    /// §5 clustering penalty: the sum over edges of the lock states each
    /// destroys. Zero iff writes are perfectly clustered. Unlike
    /// [`Self::undefined_count`] this counts multiplicity, so it
    /// discriminates between programs whose destroyed-state *sets* coincide.
    pub fn clustering_penalty(&self) -> u32 {
        self.edges.iter().map(WriteEdge::width).sum()
    }

    /// Whether lock state `q` is well-defined.
    pub fn is_well_defined(&self, q: u32) -> bool {
        self.well_defined.binary_search(&q).is_ok()
    }

    /// The deepest well-defined lock state at or below `q` — where an SDG
    /// rollback aimed at `q` actually lands. Lock state 0 is always
    /// well-defined, so this never fails.
    pub fn latest_well_defined_at_or_below(&self, q: u32) -> u32 {
        match self.well_defined.binary_search(&q) {
            Ok(_) => q,
            Err(pos) => self.well_defined[pos.saturating_sub(1).min(self.well_defined.len() - 1)],
        }
    }
}

/// Analyses `program` (assumed valid; see [`crate::validate`]).
pub fn analyze(program: &TransactionProgram) -> ProgramAnalysis {
    let mut lock_index: u32 = 0;
    let mut entity_restorability: HashMap<EntityId, u32> = HashMap::new();
    let mut var_restorability: HashMap<VarId, u32> = HashMap::new();
    let mut edges: Vec<WriteEdge> = Vec::new();
    let num_lock_states = program.num_lock_requests() as u32;

    let mut last_lock_pc = 0usize;
    let mut first_write_pc: Option<usize> = None;
    let mut phase_ok = true; // strict three-phase tracker
    let mut phase = 0u8; // 0 = acquiring, 1 = updating, 2 = releasing

    for (pc, op) in program.ops().iter().enumerate() {
        match op {
            Op::LockShared(_) | Op::LockExclusive(_) => {
                lock_index += 1;
                last_lock_pc = pc;
                if phase != 0 {
                    phase_ok = false;
                }
            }
            Op::Unlock(_) => {
                phase = 2;
            }
            Op::Write { entity, .. } => {
                let u = *entity_restorability.entry(*entity).or_insert(lock_index - 1);
                edges.push(WriteEdge { u, w: lock_index });
                first_write_pc.get_or_insert(pc);
                if phase == 0 {
                    phase = 1;
                } else if phase == 2 {
                    phase_ok = false;
                }
            }
            Op::Read { into, .. } | Op::Assign { var: into, .. } => {
                let u = *var_restorability.entry(*into).or_insert(lock_index - 1);
                edges.push(WriteEdge { u, w: lock_index });
                first_write_pc.get_or_insert(pc);
                if phase == 0 {
                    phase = 1;
                } else if phase == 2 {
                    phase_ok = false;
                }
            }
            Op::Compute(_) | Op::Commit => {}
        }
    }

    let well_defined = well_defined_states(num_lock_states, &edges);
    // All writes follow the last lock request iff the earliest write does.
    let writes_after_last_lock = match first_write_pc {
        None => true,
        Some(wpc) => wpc > last_lock_pc,
    };

    ProgramAnalysis {
        num_lock_states,
        edges,
        entity_restorability,
        var_restorability,
        well_defined,
        writes_after_last_lock,
        is_three_phase: phase_ok,
    }
}

/// Computes the sorted list of well-defined lock states `q ∈ 0..=n` given
/// write edges: `q` is well-defined iff no edge has `u < q < w`.
pub fn well_defined_states(n: u32, edges: &[WriteEdge]) -> Vec<u32> {
    let mut covered = vec![false; n as usize + 1];
    for e in edges {
        let lo = e.u + 1;
        let hi = e.w.min(n + 1); // exclusive
        for q in lo..hi {
            covered[q as usize] = true;
        }
    }
    (0..=n).filter(|&q| !covered[q as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::op::Expr;

    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }
    fn v(i: u16) -> VarId {
        VarId::new(i)
    }

    #[test]
    fn edge_span_semantics() {
        let edge = WriteEdge { u: 1, w: 4 };
        assert!(!edge.spans(1));
        assert!(edge.spans(2));
        assert!(edge.spans(3));
        assert!(!edge.spans(4));
        assert_eq!(edge.width(), 2);
        assert_eq!(WriteEdge { u: 2, w: 3 }.width(), 0);
        assert_eq!(WriteEdge { u: 2, w: 2 }.width(), 0);
    }

    #[test]
    fn first_write_creates_harmless_edge() {
        // LX(a); W(a); LX(b); COMMIT — the only write is immediately after
        // a's lock state; no lock state is destroyed.
        let p = ProgramBuilder::new()
            .lock_exclusive(e(0))
            .write_const(e(0), 1)
            .lock_exclusive(e(1))
            .build_unchecked();
        let a = analyze(&p);
        assert_eq!(a.num_lock_states, 2);
        assert_eq!(a.edges, vec![WriteEdge { u: 0, w: 1 }]);
        assert_eq!(a.well_defined, vec![0, 1, 2]);
        assert_eq!(a.undefined_count(), 0);
        assert_eq!(a.clustering_penalty(), 0);
    }

    #[test]
    fn late_rewrite_destroys_intermediate_states() {
        // LX(a); W(a); LX(b); LX(c); W(a) — the second write to a (lock
        // index 3, restorability 0) destroys lock states 1 and 2.
        let p = ProgramBuilder::new()
            .lock_exclusive(e(0))
            .write_const(e(0), 1)
            .lock_exclusive(e(1))
            .lock_exclusive(e(2))
            .write_const(e(0), 2)
            .build_unchecked();
        let a = analyze(&p);
        assert_eq!(a.num_lock_states, 3);
        assert!(a.edges.contains(&WriteEdge { u: 0, w: 3 }));
        assert_eq!(a.well_defined, vec![0, 3]);
        assert_eq!(a.undefined_count(), 2);
        assert_eq!(a.clustering_penalty(), 2);
        assert_eq!(a.entity_restorability[&e(0)], 0);
    }

    #[test]
    fn local_variable_writes_also_destroy_states() {
        // LX(a); L0 := R(a); LX(b); LX(c); L0 := L0+1 — the reassignment of
        // L0 at lock index 3 (restorability 0) destroys states 1, 2.
        let p = ProgramBuilder::new()
            .lock_exclusive(e(0))
            .read(e(0), v(0))
            .lock_exclusive(e(1))
            .lock_exclusive(e(2))
            .assign(v(0), Expr::add(Expr::var(v(0)), Expr::lit(1)))
            .build_unchecked();
        let a = analyze(&p);
        assert_eq!(a.var_restorability[&v(0)], 0);
        assert_eq!(a.well_defined, vec![0, 3]);
    }

    #[test]
    fn three_phase_program_has_all_states_well_defined() {
        // Acquire everything, then update, then release: §5's claim.
        let p = ProgramBuilder::new()
            .lock_exclusive(e(0))
            .lock_exclusive(e(1))
            .lock_exclusive(e(2))
            .read(e(0), v(0))
            .write(e(1), Expr::var(v(0)))
            .write(e(2), Expr::lit(7))
            .write(e(0), Expr::lit(1))
            .unlock(e(0))
            .unlock(e(1))
            .unlock(e(2))
            .build_unchecked();
        let a = analyze(&p);
        assert!(a.is_three_phase);
        assert!(a.writes_after_last_lock);
        assert_eq!(a.well_defined, vec![0, 1, 2, 3]);
        assert_eq!(a.clustering_penalty(), 0);
    }

    #[test]
    fn interleaved_program_is_not_three_phase() {
        let p = ProgramBuilder::new()
            .lock_exclusive(e(0))
            .write_const(e(0), 1)
            .lock_exclusive(e(1))
            .write_const(e(1), 2)
            .build_unchecked();
        let a = analyze(&p);
        assert!(!a.is_three_phase);
        assert!(!a.writes_after_last_lock);
    }

    #[test]
    fn read_only_program_is_trivially_fine() {
        let p = ProgramBuilder::new().lock_shared(e(0)).lock_shared(e(1)).build_unchecked();
        let a = analyze(&p);
        assert!(a.edges.is_empty());
        assert_eq!(a.well_defined, vec![0, 1, 2]);
        assert!(a.writes_after_last_lock);
        assert!(a.is_three_phase);
    }

    #[test]
    fn latest_well_defined_at_or_below_picks_floor() {
        let p = ProgramBuilder::new()
            .lock_exclusive(e(0))
            .write_const(e(0), 1)
            .lock_exclusive(e(1))
            .lock_exclusive(e(2))
            .write_const(e(0), 2) // destroys 1, 2
            .build_unchecked();
        let a = analyze(&p);
        assert_eq!(a.latest_well_defined_at_or_below(3), 3);
        assert_eq!(a.latest_well_defined_at_or_below(2), 0);
        assert_eq!(a.latest_well_defined_at_or_below(1), 0);
        assert_eq!(a.latest_well_defined_at_or_below(0), 0);
        assert!(a.is_well_defined(0));
        assert!(!a.is_well_defined(2));
    }

    #[test]
    fn well_defined_states_handles_edge_beyond_n() {
        // Edge with w > n (write after the final lock request) covers up to n.
        let wd = well_defined_states(3, &[WriteEdge { u: 0, w: 10 }]);
        assert_eq!(wd, vec![0]);
    }

    #[test]
    fn figure5_style_reordering_increases_well_defined_states() {
        // T1-style: writes to each entity spread across later lock states.
        let spread = ProgramBuilder::new()
            .lock_exclusive(e(0))
            .write_const(e(0), 1)
            .lock_exclusive(e(1))
            .write_const(e(1), 1)
            .lock_exclusive(e(2))
            .write_const(e(0), 2) // destroys 1..2
            .write_const(e(1), 2) // destroys 2
            .write_const(e(2), 1)
            .build_unchecked();
        // T2-style: same multiset of operations, writes clustered per entity.
        let clustered = ProgramBuilder::new()
            .lock_exclusive(e(0))
            .write_const(e(0), 1)
            .write_const(e(0), 2)
            .lock_exclusive(e(1))
            .write_const(e(1), 1)
            .write_const(e(1), 2)
            .lock_exclusive(e(2))
            .write_const(e(2), 1)
            .build_unchecked();
        let a_spread = analyze(&spread);
        let a_clustered = analyze(&clustered);
        assert!(a_clustered.well_defined.len() > a_spread.well_defined.len());
        assert_eq!(a_clustered.undefined_count(), 0);
        assert!(a_spread.clustering_penalty() > a_clustered.clustering_penalty());
    }
}
