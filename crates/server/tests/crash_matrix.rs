//! The seeded crash matrix: drive the real engine + journal to a
//! deterministic byte-budget failpoint at *every* record boundary the log
//! contains (plus mid-record offsets that tear a frame in half, plus
//! budget 0 — a crash before the first byte), then recover from the
//! surviving image and assert the durability contract via
//! [`pr_server::crashsim::check_crash_case`]:
//!
//! * acknowledged ⇒ replayed, within the flush policy's loss window;
//! * recovery is all-or-nothing per batch and idempotent;
//! * a graceful drain loses nothing under any policy.
//!
//! The full boundary sweep runs under `per-batch` (the strict policy);
//! `every-N`, `off`, the FairQueue grant policy, and a two-thread engine
//! each get a coarser sweep. The battery asserts it exercised at least
//! 100 distinct crash cases, the acceptance floor for this invariant.

use pr_core::{GrantPolicy, SystemConfig};
use pr_server::crashsim::{check_crash_case, record_boundaries, run_to_crash, SimConfig};
use pr_storage::wal::{FlushPolicy, MemDir};

/// Dry-runs `cfg` with no failpoint and returns every record-boundary
/// offset plus the total log size — the coordinates of the crash sweep.
fn survey(cfg: &SimConfig) -> (Vec<u64>, u64) {
    let dry = MemDir::new();
    let trace = run_to_crash(cfg, &dry).expect("dry run must complete");
    assert!(!trace.crashed, "dry run has no failpoint");
    assert!(!trace.acked.is_empty(), "dry run must acknowledge batches");
    let bounds = record_boundaries(&dry).expect("dry log must decode");
    assert!(!bounds.is_empty());
    (bounds, dry.persisted_bytes())
}

/// Checks one (budget, lose_unsynced) grid over `cfg`, panicking with the
/// harness's reproduction message on any contract violation. Returns the
/// number of crash cases checked.
fn sweep(cfg: &SimConfig, budgets: &[u64], lose_unsynced: &[bool]) -> usize {
    let mut cases = 0;
    for &budget in budgets {
        for &lose in lose_unsynced {
            check_crash_case(cfg, budget, lose).unwrap_or_else(|e| {
                panic!("durability contract violated: {e}");
            });
            cases += 1;
        }
    }
    cases
}

#[test]
fn crash_matrix_proves_durability_at_every_record_boundary() {
    let mut total_cases = 0;

    // --- per-batch: the strict policy gets the exhaustive sweep ---------
    // Every record boundary, plus offsets 3 bytes before and after each
    // (tearing the previous frame's payload / the next frame's header),
    // plus budget 0 and one budget past the end (the failpoint never
    // fires — the graceful-drain case).
    let per_batch = SimConfig::default();
    let (bounds, log_len) = survey(&per_batch);
    let mut budgets = vec![0, log_len + 64];
    for &b in &bounds {
        budgets.push(b);
        budgets.push(b.saturating_sub(3));
        budgets.push(b + 3);
    }
    budgets.sort_unstable();
    budgets.dedup();
    total_cases += sweep(&per_batch, &budgets, &[false, true]);

    // --- every-N: bounded loss window, boundary sweep -------------------
    let every_n = SimConfig { flush: FlushPolicy::EveryN(4), ..SimConfig::default() };
    let (bounds, _) = survey(&every_n);
    total_cases += sweep(&every_n, &bounds, &[false, true]);

    // --- off: no fsync until drain; only synced bytes are promised ------
    let off = SimConfig { flush: FlushPolicy::Off, ..SimConfig::default() };
    let (bounds, _) = survey(&off);
    let coarse: Vec<u64> = bounds.iter().copied().step_by(2).collect();
    total_cases += sweep(&off, &coarse, &[false, true]);

    // --- FairQueue grant policy: different commit interleavings ---------
    let system = SystemConfig { grant_policy: GrantPolicy::FairQueue, ..SystemConfig::default() };
    let fair = SimConfig { system, seed: 7, ..SimConfig::default() };
    let (bounds, _) = survey(&fair);
    let coarse: Vec<u64> = bounds.iter().copied().step_by(2).collect();
    total_cases += sweep(&fair, &coarse, &[true]);

    // --- two engine threads: non-deterministic scheduling ----------------
    // (the harness records its own run as ground truth, so the check is
    // sound even though each run may commit in a different order).
    let threaded = SimConfig { threads: 2, seed: 11, ..SimConfig::default() };
    let (bounds, _) = survey(&threaded);
    let coarse: Vec<u64> = bounds.iter().copied().step_by(3).collect();
    total_cases += sweep(&threaded, &coarse, &[true]);

    assert!(
        total_cases >= 100,
        "crash battery must cover >= 100 seeded crash cases, got {total_cases}"
    );
    println!("crash matrix: {total_cases} cases green");
}

/// Tiny segments force rotation mid-run; crashes at rotation edges must
/// not break replay ordering across segment files.
#[test]
fn crash_matrix_survives_segment_rotation() {
    let cfg = SimConfig { segment_max: 512, txns: 48, batch: 6, seed: 3, ..SimConfig::default() };
    let (bounds, _) = survey(&cfg);
    let cases = sweep(&cfg, &bounds, &[false, true]);
    assert!(cases >= 10, "rotation sweep too small: {cases}");
}
