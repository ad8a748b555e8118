//! Quickstart: two transfers deadlock; partial rollback resolves it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use partial_rollback::prelude::*;

/// A transfer of `amount` from account `from` to account `to`, locking in
/// the given order (the deadlock comes from opposite orders).
fn transfer(from: EntityId, to: EntityId, amount: i64) -> TransactionProgram {
    let v = VarId::new(0);
    ProgramBuilder::new()
        .lock_exclusive(from)
        .lock_exclusive(to)
        .read(from, v)
        .write(from, Expr::sub(Expr::var(v), Expr::lit(amount)))
        .read(to, v)
        .write(to, Expr::add(Expr::var(v), Expr::lit(amount)))
        .unlock(from)
        .unlock(to)
        .build()
        .expect("valid two-phase program")
}

fn main() {
    let alice = EntityId::new(0);
    let bob = EntityId::new(1);

    let store = GlobalStore::with_entities(2, Value::new(100));
    let config = SystemConfig::new(StrategyKind::Mcs, VictimPolicyKind::PartialOrder);
    let mut system = System::new(store, config);
    system.enable_event_log(10_000);

    let t1 = system.admit(transfer(alice, bob, 30)).unwrap();
    let t2 = system.admit(transfer(bob, alice, 10)).unwrap();

    // Interleave so both transactions take their first lock, then collide:
    // T1 holds alice and wants bob; T2 holds bob and wants alice.
    system.step(t1).unwrap(); // T1: LX(alice)
    system.step(t2).unwrap(); // T2: LX(bob)
    let blocked = system.step(t1).unwrap(); // T1: LX(bob) → waits
    println!("T1 requesting bob: {blocked:?}");
    let resolved = system.step(t2).unwrap(); // T2: LX(alice) → deadlock!
    match &resolved {
        StepOutcome::DeadlockResolved { record } => {
            println!(
                "deadlock: {} caused a cycle over {:?}; victim(s) {:?} at cost {}",
                record.event.causer,
                record.event.cycles[0].txns(),
                record.plan.rollbacks.iter().map(|r| r.txn).collect::<Vec<_>>(),
                record.plan.total_cost,
            );
        }
        other => println!("unexpected: {other:?}"),
    }

    // Drain the system; everything commits.
    system.run(&mut RoundRobin::new()).unwrap();
    assert!(system.all_committed());

    println!(
        "final balances: alice = {}, bob = {}",
        system.store().read(alice).unwrap(),
        system.store().read(bob).unwrap(),
    );
    assert_eq!(system.store().total(), Value::new(200), "money is conserved");
    println!(
        "metrics: {} deadlocks, {} partial rollbacks, {} states lost",
        system.metrics().deadlocks,
        system.metrics().partial_rollbacks + system.metrics().total_rollbacks,
        system.metrics().states_lost,
    );
    println!("\ntimeline:\n{}", system.events().render());
}
