//! Site-crash recovery for the distributed engine.
//!
//! When a site crashes it loses its volatile lock table; committed entity
//! values survive on stable storage (the standard §2 assumption). Recovery
//! has to restore three things without wedging any survivor:
//!
//! 1. **Transactions homed at the dead site** lose their workspaces and
//!    are aborted: queued waits are cancelled, every held lock is released
//!    (promoting waiters as usual), and nothing they wrote is published.
//! 2. **Lock grants on the dead site's entities** are expired. A survivor
//!    that can still roll back is *partially rolled back* just past the
//!    lost grant — exactly the paper's machinery, reused for recovery: the
//!    version stacks restore the survivor to its latest state in which it
//!    did not hold the vanished lock, and it re-acquires on its own when
//!    the site returns. A survivor already in its shrinking phase cannot
//!    roll back (2PL forbids it), so its grant is *reinstated* — the
//!    surviving site re-asserts the lock at the recovering site, which is
//!    sound because an expired slot has no holders to conflict with.
//! 3. **Waiters queued at the dead site** are unblocked without rollback:
//!    their program counters still point at the lock request, so they
//!    simply re-issue it (and stall on the down site until it restarts).
//!
//! If the crashed site is the `GlobalDetection` coordinator, the system
//! additionally enters degraded mode: new waits are tracked by site-local
//! fallback detection until the restart, when the global graph is rebuilt
//! from lock-table truth (`reconcile_graphs`).

use crate::engine::{CrossSiteScheme, DistributedSystem};
use crate::site::SiteId;
use pr_core::runtime::Phase;
use pr_core::EngineError;
use pr_lock::HeldLock;
use pr_model::{EntityId, TxnId};

impl DistributedSystem {
    /// Runs crash recovery for `site` at the current virtual tick.
    pub(crate) fn handle_crash(&mut self, site: SiteId) -> Result<(), EngineError> {
        self.metrics.crashes += 1;
        if self.config.scheme == CrossSiteScheme::GlobalDetection && site == SiteId::COORDINATOR {
            self.metrics.coordinator_outages += 1;
            self.degraded = true;
        }

        // Phase 1 — evict the dead site's lock slots wholesale, *before*
        // touching any transaction: releases performed while aborting
        // below must not promote waiters into grants on a dead site.
        // Evicted waiters lose no state (a partial rollback of cost zero,
        // conceptually): they re-issue the request, and stall on the down
        // site until it restarts.
        let mut expired: Vec<(EntityId, HeldLock)> = Vec::new();
        for entity in self.kernel.table().entities() {
            if self.site_of(entity) != site {
                continue;
            }
            let (holders, waiters) = self.kernel.evict(entity);
            expired.extend(holders.into_iter().map(|h| (entity, h)));
            for w in waiters {
                for g in &mut self.graphs {
                    g.clear_wait(w.txn);
                }
            }
        }

        // Phase 2 — abort every unsettled transaction homed at the site.
        let homed: Vec<TxnId> = self
            .kernel
            .txns()
            .values()
            .filter(|rt| {
                self.home.get(&rt.id) == Some(&site)
                    && !matches!(rt.phase, Phase::Committed | Phase::Aborted)
            })
            .map(|rt| rt.id)
            .collect();
        for txn in homed {
            self.abort_for_crash(txn)?;
        }

        // Phase 3 — expire surviving transactions' grants at the site.
        for (entity, held) in expired {
            let txn = held.txn;
            let Some(rt) = self.kernel.txn(txn) else { continue };
            // Aborted in phase 2, or an earlier recovery rollback already
            // shed the lock.
            if !rt.held.contains(&entity) {
                continue;
            }
            self.metrics.expired_grants += 1;
            if let Some(rb) = rt.rollback_candidate(self.config.strategy, entity) {
                let cost = self.rollback(rb)?;
                self.metrics.recovery_rollbacks += 1;
                self.metrics.recovery_states_lost += u64::from(cost);
            } else {
                // Shrinking phase: 2PL forbids rolling back, so the grant
                // is re-asserted at the recovering site instead. The slot
                // was just evicted, so only fellow reinstated (compatible,
                // shared) survivors can coexist in it.
                self.kernel.reinstate(entity, held)?;
                self.charge_remote(txn, entity, 1); // re-assertion message
            }
        }
        Ok(())
    }

    /// Completes a site restart after `outage` ticks of downtime.
    pub(crate) fn handle_restart(&mut self, site: SiteId, outage: u64) -> Result<(), EngineError> {
        self.metrics.recoveries += 1;
        self.metrics.ttr_ticks += outage;
        if self.config.scheme == CrossSiteScheme::GlobalDetection && site == SiteId::COORDINATOR {
            // Coordinator is back: leave degraded mode and rebuild its
            // graph from lock-table truth, catching any cross-site cycle
            // that stayed invisible to the site-local fallbacks.
            self.degraded = false;
            self.reconcile_graphs()?;
        }
        Ok(())
    }

    /// Aborts a transaction whose home site (and with it the workspace)
    /// is gone: total rollback with nothing published.
    fn abort_for_crash(&mut self, txn: TxnId) -> Result<(), EngineError> {
        self.cancel_wait(txn)?;
        let held: Vec<EntityId> = self.kernel.txns()[&txn].held.iter().copied().collect();
        for entity in held {
            // Grants at the crashed site itself were evicted in phase 1.
            self.drop_lock(txn, entity)?;
        }
        self.kernel.abort(txn)?;
        self.metrics.crash_aborts += 1;
        Ok(())
    }
}
