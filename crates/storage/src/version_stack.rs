//! The value stacks of a transaction workspace (§4).
//!
//! "Each stack element has two fields, a value field and an index field. …
//! The system then pushes a new element onto the stack for a given lock
//! state iff the lock index of the write operation producing the new value
//! of the entity is greater than the lock index of the [top of the] stack.
//! Otherwise the two indices must be equal, in which case the value field of
//! the current top element in the stack is updated."
//!
//! Stacks for global entities are created at the entity's lock state and
//! carry that lock index; stacks for local variables are created at
//! transaction start with index 0 and an initial element holding the
//! variable's initial value.
//!
//! ## Copy-on-first-write layout
//!
//! The base element lives inline; the `extras` vector exists only once a
//! write actually creates a second version. Creating a stack therefore
//! allocates nothing — the workspace creates one stack per exclusive lock, and on
//! the multi-threaded engine's uncontended hot path that per-lock heap
//! allocation was pure overhead for the (common) transactions that never
//! roll back past their first write.

use pr_model::{LockIndex, Value};

/// One element of a version stack: a value and the lock index of the write
/// (or initial load) that produced it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StackElement {
    /// The stored value.
    pub value: Value,
    /// Lock index of the operation that produced this value.
    pub lock_index: LockIndex,
}

/// A per-entity (or per-local-variable) version stack.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VersionStack {
    /// The stack's own index: the lock index of the lock state it is
    /// associated with (0 for local variables).
    stack_index: LockIndex,
    /// The bottom element, held inline (copy-on-first-write: no heap
    /// allocation until a write pushes a second version).
    base: StackElement,
    /// Elements above the base, oldest first. Empty for a fresh stack.
    extras: Vec<StackElement>,
    /// Lock index of the oldest copy a budget evicted, if any: the values
    /// of lock states in `[evicted_from, extras[0].lock_index)` are gone.
    evicted_from: Option<LockIndex>,
}

impl VersionStack {
    /// Creates a stack at `stack_index` whose base element holds `base` —
    /// the entity's global value at lock time, or a local variable's
    /// initial value. Allocation-free.
    pub fn new(stack_index: LockIndex, base: Value) -> Self {
        VersionStack {
            stack_index,
            base: StackElement { value: base, lock_index: stack_index },
            extras: Vec::new(),
            evicted_from: None,
        }
    }

    /// The stack's fixed index.
    #[inline]
    pub fn stack_index(&self) -> LockIndex {
        self.stack_index
    }

    #[inline]
    fn top(&self) -> &StackElement {
        self.extras.last().unwrap_or(&self.base)
    }

    /// Records a write of `value` at `lock_index`, pushing or updating the
    /// top per the MCS rule. `lock_index` must be monotone non-decreasing
    /// across calls (writes arrive in program order).
    pub fn record_write(&mut self, lock_index: LockIndex, value: Value) {
        let top = self.extras.last_mut().unwrap_or(&mut self.base);
        debug_assert!(
            lock_index >= top.lock_index,
            "writes must arrive in lock-index order: {lock_index:?} < {:?}",
            top.lock_index
        );
        if lock_index > top.lock_index {
            self.extras.push(StackElement { value, lock_index });
        } else {
            top.value = value;
        }
    }

    /// The current (most recent) value.
    #[inline]
    pub fn current(&self) -> Value {
        self.top().value
    }

    /// The value the entity had at lock state `target` — the top element
    /// with `lock_index <= target`. `None` if `target` precedes the stack's
    /// creation (the entity was not locked yet).
    pub fn value_at(&self, target: LockIndex) -> Option<Value> {
        if target < self.stack_index {
            return None;
        }
        // The base qualifies whenever target >= stack_index, so an extras
        // miss still resolves.
        Some(
            self.extras.iter().rev().find(|el| el.lock_index <= target).unwrap_or(&self.base).value,
        )
    }

    /// Pops every element produced by a write *after* lock state `target`
    /// (elements with `lock_index > target`) — step 3 of the §4 rollback
    /// procedure. Returns how many copies were discarded. The base element
    /// is never popped (its index is the stack's own), and an evicted
    /// interval lying above `target` is forgotten with the copies that
    /// bounded it.
    pub fn pop_above(&mut self, target: LockIndex) -> usize {
        let before = self.extras.len();
        self.extras.retain(|el| el.lock_index <= target);
        if self.evicted_from.is_some_and(|from| from > target) {
            self.evicted_from = None;
        }
        before - self.extras.len()
    }

    /// The start of the evicted interval when it contains lock state `q`:
    /// the value `q` saw was one of the copies a budget discarded.
    pub fn destroyed_from(&self, q: LockIndex) -> Option<LockIndex> {
        let from = self.evicted_from?;
        (from <= q && q < self.extras[0].lock_index).then_some(from)
    }

    /// Total number of elements held.
    #[inline]
    pub fn len(&self) -> usize {
        self.extras.len() + 1
    }

    /// A stack always holds at least its base element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of *copies* in the Theorem 3 sense: elements beyond the base
    /// element (the base duplicates a value available elsewhere — the
    /// database's global value, or the program's initial variable value).
    #[inline]
    pub fn copies(&self) -> usize {
        self.extras.len()
    }

    /// The elements, base first.
    pub fn elements(&self) -> impl Iterator<Item = StackElement> + '_ {
        std::iter::once(self.base).chain(self.extras.iter().copied())
    }

    /// Structural self-check: the base element carries the stack's own
    /// index and lock indices are strictly increasing above it. Violations
    /// indicate engine bookkeeping bugs (run by the engine's invariant
    /// check).
    pub fn check_integrity(&self) -> Result<(), String> {
        if self.base.lock_index != self.stack_index {
            return Err(format!(
                "base lock index {:?} differs from stack index {:?}",
                self.base.lock_index, self.stack_index
            ));
        }
        let mut prev = self.base.lock_index;
        for el in &self.extras {
            if el.lock_index <= prev {
                return Err(format!(
                    "lock indices not strictly increasing: {:?} then {:?}",
                    prev, el.lock_index
                ));
            }
            prev = el.lock_index;
        }
        Ok(())
    }

    /// Enforces a bound of `budget >= 1` copies (elements beyond the
    /// base): if exceeded, evicts the *oldest non-base* element, which
    /// extends the evicted interval up to the new oldest copy. Successive
    /// evictions take successive copies, so one interval per stack covers
    /// every lock state whose value can no longer be reproduced.
    ///
    /// This implements the paper's closing suggestion of "allocat\[ing\] a
    /// bounded amount of extra storage to the entities in order to
    /// maximize the number of well-defined states".
    pub fn enforce_budget(&mut self, budget: usize) {
        if self.copies() > budget {
            let evicted = self.extras.remove(0);
            self.evicted_from.get_or_insert(evicted.lock_index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn li(i: u32) -> LockIndex {
        LockIndex::new(i)
    }
    fn v(i: i64) -> Value {
        Value::new(i)
    }

    #[test]
    fn base_element_holds_global_value() {
        let s = VersionStack::new(li(2), v(10));
        assert_eq!(s.current(), v(10));
        assert_eq!(s.len(), 1);
        assert_eq!(s.copies(), 0);
        assert_eq!(s.stack_index(), li(2));
    }

    #[test]
    fn write_at_same_lock_index_updates_in_place() {
        let mut s = VersionStack::new(li(1), v(0));
        s.record_write(li(2), v(5));
        s.record_write(li(2), v(6));
        assert_eq!(s.len(), 2);
        assert_eq!(s.current(), v(6));
    }

    #[test]
    fn write_at_higher_lock_index_pushes() {
        let mut s = VersionStack::new(li(0), v(0));
        s.record_write(li(1), v(1));
        s.record_write(li(3), v(3));
        assert_eq!(s.len(), 3);
        assert_eq!(s.copies(), 2);
        assert_eq!(s.current(), v(3));
    }

    #[test]
    fn value_at_returns_version_visible_at_lock_state() {
        let mut s = VersionStack::new(li(0), v(100));
        s.record_write(li(1), v(1)); // write before lock state 1
        s.record_write(li(3), v(3)); // write before lock state 3
        assert_eq!(s.value_at(li(0)), Some(v(100)));
        assert_eq!(s.value_at(li(1)), Some(v(1)));
        assert_eq!(s.value_at(li(2)), Some(v(1)));
        assert_eq!(s.value_at(li(3)), Some(v(3)));
        assert_eq!(s.value_at(li(9)), Some(v(3)));
    }

    #[test]
    fn value_at_before_creation_is_none() {
        let s = VersionStack::new(li(3), v(0));
        assert_eq!(s.value_at(li(2)), None);
        assert_eq!(s.value_at(li(3)), Some(v(0)));
    }

    #[test]
    fn pop_above_discards_later_writes() {
        let mut s = VersionStack::new(li(0), v(100));
        s.record_write(li(1), v(1));
        s.record_write(li(2), v(2));
        s.record_write(li(4), v(4));
        let popped = s.pop_above(li(2));
        assert_eq!(popped, 1);
        assert_eq!(s.current(), v(2));
        let popped = s.pop_above(li(0));
        assert_eq!(popped, 2);
        assert_eq!(s.current(), v(100));
        assert_eq!(s.copies(), 0);
        // Base element survives even a rollback to the stack's own index.
        assert_eq!(s.pop_above(li(0)), 0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn evictions_grow_one_interval_that_a_deep_pop_forgets() {
        let mut s = VersionStack::new(li(0), v(100));
        for k in [1, 3, 5] {
            s.record_write(li(k), v(i64::from(k)));
            s.enforce_budget(1);
        }
        // Copies 1 and 3 were evicted: states 1..5 saw them.
        assert_eq!(s.elements().count(), 2);
        assert_eq!(s.destroyed_from(li(0)), None);
        assert_eq!(s.destroyed_from(li(1)), Some(li(1)));
        assert_eq!(s.destroyed_from(li(4)), Some(li(1)));
        assert_eq!(s.destroyed_from(li(5)), None);
        // A pop that keeps the oldest surviving copy keeps the interval…
        s.pop_above(li(6));
        assert_eq!(s.destroyed_from(li(4)), Some(li(1)));
        // …and one below the interval forgets it with the copies.
        s.pop_above(li(0));
        s.record_write(li(2), v(2));
        assert_eq!(s.destroyed_from(li(1)), None);
        assert_eq!(s.value_at(li(1)), Some(v(100)));
    }

    #[test]
    fn fresh_stacks_and_in_place_updates_never_allocate() {
        let mut s = VersionStack::new(li(1), v(0));
        assert_eq!(s.extras.capacity(), 0, "creation must not allocate");
        s.record_write(li(1), v(7)); // same index as the base: in-place
        assert_eq!(s.extras.capacity(), 0, "in-place update must not allocate");
        assert_eq!(s.current(), v(7));
        s.record_write(li(2), v(8)); // first real copy: now it may allocate
        assert_eq!(s.copies(), 1);
    }

    #[test]
    fn elements_iterates_base_first_in_order() {
        let mut s = VersionStack::new(li(0), v(100));
        s.record_write(li(1), v(1));
        s.record_write(li(3), v(3));
        let got: Vec<(u32, i64)> =
            s.elements().map(|el| (el.lock_index.raw(), el.value.raw())).collect();
        assert_eq!(got, vec![(0, 100), (1, 1), (3, 3)]);
        s.check_integrity().unwrap();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "writes must arrive in lock-index order")]
    fn out_of_order_writes_are_rejected_in_debug() {
        let mut s = VersionStack::new(li(0), v(0));
        s.record_write(li(3), v(3));
        s.record_write(li(1), v(1));
    }
}
