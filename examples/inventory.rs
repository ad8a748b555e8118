//! Inventory workload: mixed readers and writers with shared locks.
//!
//! Report transactions take shared locks over several stock records;
//! restock/order transactions take exclusive locks. Exclusive requests on
//! shared-held entities create the Type 2 conflicts of §3.2, whose wait
//! responses can close several deadlock cycles at once — resolved here by
//! the minimum-cost vertex cut.
//!
//! ```text
//! cargo run --release --example inventory
//! ```

use partial_rollback::prelude::*;
use partial_rollback::sim::report::Table;

/// A report: shared-locks a range of stock records and sums them.
fn report(items: &[EntityId]) -> TransactionProgram {
    let mut b = ProgramBuilder::new();
    for &item in items {
        b = b.lock_shared(item);
    }
    for (i, &item) in items.iter().enumerate() {
        b = b.read(item, VarId::new(i as u16));
    }
    // Aggregate into the last variable (after all locks: three-phase).
    let total = VarId::new(items.len() as u16);
    let mut expr = Expr::lit(0);
    for i in 0..items.len() {
        expr = Expr::add(expr, Expr::var(VarId::new(i as u16)));
    }
    b.assign(total, expr).build().expect("valid report txn")
}

/// An order: moves `qty` units from stock to an order ledger entry
/// (locks stock first, then the ledger).
fn order(stock: EntityId, ledger: EntityId, qty: i64) -> TransactionProgram {
    let v = VarId::new(0);
    ProgramBuilder::new()
        .lock_exclusive(stock)
        .read(stock, v)
        .write(stock, Expr::sub(Expr::var(v), Expr::lit(qty)))
        .pad(2)
        .lock_exclusive(ledger)
        .read(ledger, v)
        .write(ledger, Expr::add(Expr::var(v), Expr::lit(qty)))
        .unlock(stock)
        .unlock(ledger)
        .build()
        .expect("valid order txn")
}

/// A refund: the reverse flow — locks the *ledger* first, then stock.
/// Opposite lock orders are what make deadlocks possible at all.
fn refund(stock: EntityId, ledger: EntityId, qty: i64) -> TransactionProgram {
    let v = VarId::new(0);
    ProgramBuilder::new()
        .lock_exclusive(ledger)
        .read(ledger, v)
        .write(ledger, Expr::sub(Expr::var(v), Expr::lit(qty)))
        .pad(2)
        .lock_exclusive(stock)
        .read(stock, v)
        .write(stock, Expr::add(Expr::var(v), Expr::lit(qty)))
        .unlock(ledger)
        .unlock(stock)
        .build()
        .expect("valid refund txn")
}

fn main() {
    const ITEMS: u32 = 6;
    let stock: Vec<EntityId> = (0..ITEMS).map(EntityId::new).collect();
    let ledger: Vec<EntityId> = (ITEMS..2 * ITEMS).map(EntityId::new).collect();

    let store = GlobalStore::with_entities(2 * ITEMS, Value::new(100));
    let config = SystemConfig::new(StrategyKind::Sdg, VictimPolicyKind::PartialOrder);
    let mut system = System::new(store, config);

    // Three wide reports plus orders and refunds flowing in opposite
    // lock orders over the same records.
    system.admit(report(&stock[0..4])).unwrap();
    system.admit(report(&stock[2..6])).unwrap();
    system.admit(report(&stock[1..5])).unwrap();
    for i in 0..ITEMS as usize {
        system.admit(order(stock[i], ledger[i], 5)).unwrap();
        system.admit(refund(stock[i], ledger[i], 3)).unwrap();
        system.admit(order(stock[(i + 1) % ITEMS as usize], ledger[i], 2)).unwrap();
    }

    system.run(&mut RoundRobin::new()).expect("system drains");
    assert!(system.all_committed());

    let m = system.metrics();
    let mut t = Table::new(["metric", "value"]).with_title("inventory run (SDG strategy)");
    t.row(["transactions".to_string(), system.txn_ids().len().to_string()]);
    t.row(["waits".to_string(), m.waits.to_string()]);
    t.row(["deadlocks".to_string(), m.deadlocks.to_string()]);
    t.row(["partial rollbacks".to_string(), m.partial_rollbacks.to_string()]);
    t.row(["restarts".to_string(), m.total_rollbacks.to_string()]);
    t.row(["states lost".to_string(), m.states_lost.to_string()]);
    t.row(["SDG overshoot".to_string(), m.rollback_overshoot.to_string()]);
    println!("{t}");

    // Multi-cycle deadlocks (if any occurred) all passed through their
    // causer — print the shapes.
    for record in system.history() {
        let (event, plan) = (&record.event, &record.plan);
        println!(
            "deadlock by {} on {}: {} cycle(s), victims {:?}",
            event.causer,
            event.entity,
            event.cycles.len(),
            plan.rollbacks.iter().map(|r| r.txn).collect::<Vec<_>>()
        );
    }

    // Stock + ledger conservation.
    assert_eq!(system.store().total(), Value::new(i64::from(2 * ITEMS) * 100), "units conserved");
    println!("units conserved: total = {}", system.store().total());
}
