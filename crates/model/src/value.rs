//! Entity and local-variable values.
//!
//! The paper only requires that every entity and local variable "may assume
//! values from some range" (§2). A wrapping 64-bit integer is a faithful and
//! convenient instantiation: it supports the arithmetic the example programs
//! need, and equality of values is what the rollback-correctness oracles
//! compare.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A value held by a global entity or a local variable.
///
/// All arithmetic wraps, so no workload can panic the engine via overflow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Value(pub i64);

impl Value {
    /// The zero value — the default initial value of entities and variables.
    pub const ZERO: Value = Value(0);

    /// Creates a value.
    #[inline]
    pub const fn new(raw: i64) -> Self {
        Value(raw)
    }

    /// Raw integer payload.
    #[inline]
    pub const fn raw(self) -> i64 {
        self.0
    }
}

impl From<i64> for Value {
    #[inline]
    fn from(raw: i64) -> Self {
        Value(raw)
    }
}

impl From<Value> for i64 {
    #[inline]
    fn from(v: Value) -> Self {
        v.0
    }
}

impl Add for Value {
    type Output = Value;
    #[inline]
    fn add(self, rhs: Value) -> Value {
        Value(self.0.wrapping_add(rhs.0))
    }
}

impl AddAssign for Value {
    #[inline]
    fn add_assign(&mut self, rhs: Value) {
        *self = *self + rhs;
    }
}

impl Sub for Value {
    type Output = Value;
    #[inline]
    fn sub(self, rhs: Value) -> Value {
        Value(self.0.wrapping_sub(rhs.0))
    }
}

impl SubAssign for Value {
    #[inline]
    fn sub_assign(&mut self, rhs: Value) {
        *self = *self - rhs;
    }
}

impl Mul for Value {
    type Output = Value;
    #[inline]
    fn mul(self, rhs: Value) -> Value {
        Value(self.0.wrapping_mul(rhs.0))
    }
}

impl Neg for Value {
    type Output = Value;
    #[inline]
    fn neg(self) -> Value {
        Value(self.0.wrapping_neg())
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_wraps_instead_of_panicking() {
        let max = Value::new(i64::MAX);
        assert_eq!(max + Value::new(1), Value::new(i64::MIN));
        let min = Value::new(i64::MIN);
        assert_eq!(min - Value::new(1), Value::new(i64::MAX));
        assert_eq!(-min, min); // two's complement edge case
    }

    #[test]
    fn conversions_round_trip() {
        let v: Value = 42i64.into();
        let raw: i64 = v.into();
        assert_eq!(raw, 42);
        assert_eq!(Value::default(), Value::ZERO);
    }

    #[test]
    fn assign_ops_work() {
        let mut v = Value::new(10);
        v += Value::new(5);
        assert_eq!(v, Value::new(15));
        v -= Value::new(20);
        assert_eq!(v, Value::new(-5));
        assert_eq!(v * Value::new(-2), Value::new(10));
    }
}
