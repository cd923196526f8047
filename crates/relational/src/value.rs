//! The dynamic value model with SQL NULL semantics.

use std::cmp::Ordering;
use std::fmt;

use crate::dict::Term;

/// A runtime SQL value.
///
/// `Timestamp` carries integer milliseconds — the unit the whole streaming
/// stack (windows, pulses, sequence states) computes in.
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text, interned in the global [`crate::dict::TermDict`]: the
    /// `Term` derefs to `str`, clones by bumping a refcount, and
    /// equals/hashes through its dictionary id (O(1), no string hashing
    /// on join/`IN`-set probes).
    Text(Term),
    /// Boolean.
    Bool(bool),
    /// Instant in integer milliseconds since the epoch.
    Timestamp(i64),
}

impl Value {
    /// Text constructor: interns `s` once; equal texts share one id and
    /// one allocation process-wide.
    pub fn text(s: impl AsRef<str>) -> Self {
        Value::Text(Term::intern(s.as_ref()))
    }

    /// True when NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints and timestamps widen to f64).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Timestamp(t) => Some(*t as f64),
            _ => None,
        }
    }

    /// Integer view (floats are *not* silently truncated).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    /// Text view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL equality: NULL = anything → NULL (represented as `None`).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self == other)
    }

    /// SQL comparison: NULL-propagating; numeric types compare numerically
    /// across Int/Float/Timestamp; mixed non-numeric types compare by type
    /// rank then value (SQLite-style affinity-light behaviour).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other))
    }

    /// A total order for sorting and index keys: NULL sorts first, numerics
    /// together, then text, then bool. NaN sorts after all other floats.
    ///
    /// Numerics compare by exact value: integers and timestamps as `i64`,
    /// and an integer against a float without rounding either side, so
    /// `2^53` and `2^53 + 1` are distinct keys. Floats keep `f64::total_cmp`
    /// among themselves (`-0.0` sorts just below `0.0`, which alone equals
    /// the integer `0`).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (a, b) => match (a, b, a.as_i64(), b.as_i64()) {
                (_, _, Some(x), Some(y)) => x.cmp(&y),
                (Float(x), Float(y), ..) => x.total_cmp(y),
                (Float(x), _, _, Some(y)) => cmp_int_float(y, *x).reverse(),
                (_, Float(y), Some(x), _) => cmp_int_float(x, *y),
                (Text(x), Text(y), ..) => x.cmp(y),
                (Bool(x), Bool(y), ..) => x.cmp(y),
                _ => a.type_rank().cmp(&b.type_rank()),
            },
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 1,
            Value::Text(_) => 2,
            Value::Bool(_) => 3,
        }
    }

    /// Truthiness for WHERE evaluation: NULL and false are not satisfied.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Null => false,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            _ => false,
        }
    }
}

/// 2^63: exact in `f64`, and the first float past `i64::MAX`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// The integer a float equals under [`Value::total_cmp`], if any: an
/// integral value in `i64` range other than `-0.0`.
fn float_as_exact_i64(f: f64) -> Option<i64> {
    let in_range = (-TWO_POW_63..TWO_POW_63).contains(&f);
    let negative_zero = f == 0.0 && f.is_sign_negative();
    (in_range && f.fract() == 0.0 && !negative_zero).then_some(f as i64)
}

/// `i` against `f` exactly, in the order `f64::total_cmp` extends to the
/// integers: NaNs lie past the infinities on the side of their sign, and
/// `-0.0` just below the integer `0`.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    if f.is_nan() {
        return if f.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    if f >= TWO_POW_63 {
        return Ordering::Less;
    }
    if f < -TWO_POW_63 {
        return Ordering::Greater;
    }
    // In range, so the integral part converts to `i64` without loss.
    let whole = f.trunc();
    i.cmp(&(whole as i64)).then_with(|| {
        if f > whole {
            Ordering::Less
        } else if f < whole || (f == 0.0 && f.is_sign_negative()) {
            // A negative fraction, or `-0.0`.
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    })
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            // Same text ⇔ same dictionary id: no string walk.
            (Value::Text(a), Value::Text(b)) => a == b,
            _ => self.total_cmp(other) == Ordering::Equal,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash must agree with the total order's equality: integers,
        // timestamps and the floats equal to one hash as that `i64`; other
        // floats through their bits (NaN canonicalized).
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(i) | Value::Timestamp(i) => {
                1u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                match float_as_exact_i64(*f) {
                    Some(i) => i.hash(state),
                    None => {
                        let canonical = if f.is_nan() { f64::NAN } else { *f };
                        canonical.to_bits().hash(state);
                    }
                }
            }
            Value::Text(s) => {
                // Interned: hashing the dictionary id is equality-consistent
                // (same text ⇔ same id) and skips the string walk.
                2u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Timestamp(t) => write!(f, "@{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn null_propagates_in_sql_comparisons() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Timestamp(5).sql_eq(&Value::Int(5)), Some(true));
    }

    #[test]
    fn int_float_equal_values_hash_alike() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(h(&Value::Int(3)), h(&Value::Float(3.0)));
    }

    /// Integers past 2^53 compare as integers, not through a rounded f64.
    #[test]
    fn integer_equality_is_exact() {
        let big = 1i64 << 53;
        assert_ne!(Value::Int(big), Value::Int(big + 1));
        assert_eq!(Value::Int(big).cmp(&Value::Int(big + 1)), Ordering::Less);
        assert_ne!(Value::Timestamp(big + 1), Value::Int(big));
        assert_eq!(Value::Int(big), Value::Float(big as f64));
        assert_eq!(h(&Value::Int(big)), h(&Value::Float(big as f64)));
        // 2^53 + 1 has no f64: the nearest float is 2^53, which it exceeds.
        assert_eq!(
            Value::Int(big + 1).cmp(&Value::Float((big + 1) as f64)),
            Ordering::Greater
        );
        assert_eq!(
            Value::Int(i64::MAX).cmp(&Value::Float(i64::MAX as f64)),
            Ordering::Less
        );
        assert_eq!(Value::Int(-3).cmp(&Value::Float(-2.5)), Ordering::Less);
        assert_eq!(Value::Int(-3), Value::Float(-3.0));
        // -0.0 keeps its f64 place just below 0.0, so only 0.0 equals 0.
        assert_eq!(Value::Int(0), Value::Float(0.0));
        assert_eq!(Value::Int(0).cmp(&Value::Float(-0.0)), Ordering::Greater);
        assert_eq!(Value::Int(-1).cmp(&Value::Float(-0.0)), Ordering::Less);
    }

    #[test]
    fn total_order_null_first() {
        let mut vals = [
            Value::Int(1),
            Value::Null,
            Value::text("a"),
            Value::Float(-2.0),
        ];
        vals.sort();
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Float(-2.0));
    }

    #[test]
    fn nan_sorts_after_numbers_and_is_self_equal() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert_eq!(Value::Float(1e300).total_cmp(&nan), Ordering::Less);
        assert_eq!(h(&nan), h(&Value::Float(f64::NAN)));
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(Value::Int(7).is_truthy());
        assert!(!Value::Int(0).is_truthy());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::text("hi").to_string(), "'hi'");
        assert_eq!(Value::Timestamp(9).to_string(), "@9");
    }
}
