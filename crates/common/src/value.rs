//! Scalar values and their types.
//!
//! Values are the unit of data flowing through the simulated engine. They need a
//! total order (for quantile sketches and sort-based operations) and a stable
//! hash (for hash partitioning, hash joins and HyperLogLog), so floats are
//! compared and hashed through their IEEE-754 bit pattern with a NaN-last total
//! order.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The type of a [`Value`]. Mirrors the subset of AsterixDB/ADM types exercised
/// by the paper's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (keys, quantities, date surrogate keys).
    Int64,
    /// 64-bit IEEE float (prices, discounts).
    Float64,
    /// UTF-8 string (names, types, brands, flags).
    Utf8,
    /// Boolean.
    Bool,
    /// Date stored as days since epoch.
    Date,
    /// The null type (only produced by missing data).
    Null,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int64 => "Int64",
            DataType::Float64 => "Float64",
            DataType::Utf8 => "Utf8",
            DataType::Bool => "Bool",
            DataType::Date => "Date",
            DataType::Null => "Null",
        };
        f.write_str(s)
    }
}

/// A scalar value.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int64(i64),
    /// 64-bit float.
    Float64(f64),
    /// UTF-8 string.
    Utf8(String),
    /// Boolean.
    Bool(bool),
    /// Date as days since epoch.
    Date(i64),
    /// SQL NULL.
    Null,
}

impl Value {
    /// Returns the [`DataType`] of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int64(_) => DataType::Int64,
            Value::Float64(_) => DataType::Float64,
            Value::Utf8(_) => DataType::Utf8,
            Value::Bool(_) => DataType::Bool,
            Value::Date(_) => DataType::Date,
            Value::Null => DataType::Null,
        }
    }

    /// True if the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the integer payload if the value is an `Int64` or `Date`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int64(v) | Value::Date(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload, widening integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float64(v) => Some(*v),
            Value::Int64(v) | Value::Date(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the string payload if the value is `Utf8`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Utf8(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Returns the boolean payload if the value is `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A numeric rank used by sketches and histograms: integers and dates map to
    /// themselves, floats to their value, strings to a prefix-based rank, bools
    /// to 0/1 and nulls to `f64::NEG_INFINITY` (so they sort first, matching the
    /// comparison order below).
    pub fn numeric_rank(&self) -> f64 {
        match self {
            Value::Int64(v) | Value::Date(v) => *v as f64,
            Value::Float64(v) => *v,
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Value::Utf8(s) => string_rank(s),
            Value::Null => f64::NEG_INFINITY,
        }
    }

    /// Variant index used to order values of different types consistently.
    fn type_order(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int64(_) => 2,
            Value::Float64(_) => 2, // numerics compare against each other
            Value::Date(_) => 3,
            Value::Utf8(_) => 4,
        }
    }
}

/// Maps a string to a float preserving lexicographic order on the first eight
/// bytes — [`Value::numeric_rank`] of a string, callable on a borrowed slot
/// of a string column. Used only for histogram bucketing of string columns.
pub fn string_rank(s: &str) -> f64 {
    let mut bytes = [0u8; 8];
    for (i, b) in s.as_bytes().iter().take(8).enumerate() {
        bytes[i] = *b;
    }
    u64::from_be_bytes(bytes) as f64
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
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
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int64(a), Int64(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Utf8(a), Utf8(b)) => a.cmp(b),
            (Float64(a), Float64(b)) => total_f64_cmp(*a, *b),
            (Int64(a), Float64(b)) => total_f64_cmp(*a as f64, *b),
            (Float64(a), Int64(b)) => total_f64_cmp(*a, *b as f64),
            (Int64(a), Date(b)) | (Date(a), Int64(b)) => a.cmp(b),
            _ => self.type_order().cmp(&other.type_order()),
        }
    }
}

fn total_f64_cmp(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            // Int64 and Date hash identically so that key/foreign-key joins on a
            // date surrogate key behave the same whichever type the generator used.
            Value::Int64(v) | Value::Date(v) => {
                state.write_u8(1);
                v.hash(state);
            }
            Value::Float64(v) => {
                state.write_u8(2);
                v.to_bits().hash(state);
            }
            Value::Utf8(s) => {
                state.write_u8(3);
                s.hash(state);
            }
            Value::Bool(b) => {
                state.write_u8(4);
                b.hash(state);
            }
            Value::Null => state.write_u8(0),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Utf8(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Date(v) => write!(f, "d{v}"),
            Value::Null => f.write_str("NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Utf8(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Utf8(v)
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

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn data_type_roundtrip() {
        assert_eq!(Value::Int64(3).data_type(), DataType::Int64);
        assert_eq!(Value::Float64(1.5).data_type(), DataType::Float64);
        assert_eq!(Value::from("x").data_type(), DataType::Utf8);
        assert_eq!(Value::Bool(true).data_type(), DataType::Bool);
        assert_eq!(Value::Date(10).data_type(), DataType::Date);
        assert_eq!(Value::Null.data_type(), DataType::Null);
    }

    #[test]
    fn int_and_date_hash_identically() {
        assert_eq!(hash_of(&Value::Int64(42)), hash_of(&Value::Date(42)));
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&Value::from("abc")), hash_of(&Value::from("abc")));
        assert_eq!(hash_of(&Value::Float64(2.5)), hash_of(&Value::Float64(2.5)));
    }

    #[test]
    fn ordering_within_types() {
        assert!(Value::Int64(1) < Value::Int64(2));
        assert!(Value::from("a") < Value::from("b"));
        assert!(Value::Float64(1.0) < Value::Float64(1.5));
        assert!(Value::Date(5) < Value::Date(9));
    }

    #[test]
    fn mixed_numeric_ordering() {
        assert!(Value::Int64(1) < Value::Float64(1.5));
        assert!(Value::Float64(0.5) < Value::Int64(1));
        assert_eq!(Value::Int64(2), Value::Float64(2.0));
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int64(i64::MIN));
        assert!(Value::Null < Value::from(""));
    }

    #[test]
    fn numeric_rank_monotone_for_strings() {
        assert!(Value::from("apple").numeric_rank() < Value::from("banana").numeric_rank());
        assert!(Value::from("a").numeric_rank() < Value::from("ab").numeric_rank());
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int64(7).as_i64(), Some(7));
        assert_eq!(Value::Date(7).as_i64(), Some(7));
        assert_eq!(Value::Float64(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Int64(2).as_f64(), Some(2.0));
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Null.as_i64(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int64(3).to_string(), "3");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Date(4).to_string(), "d4");
    }

    #[test]
    fn numeric_rank_places_nulls_first_and_bools_at_zero_and_one() {
        assert_eq!(Value::Null.numeric_rank(), f64::NEG_INFINITY);
        assert_eq!(Value::Bool(false).numeric_rank(), 0.0);
        assert_eq!(Value::Bool(true).numeric_rank(), 1.0);
        assert_eq!(Value::Date(-4).numeric_rank(), -4.0);
        assert_eq!(Value::Float64(2.5).numeric_rank(), 2.5);
        // Strings rank on their first eight bytes only.
        assert_eq!(string_rank("abcdefgh1"), string_rank("abcdefgh2"));
        assert!(string_rank("abcdef") < string_rank("abcdeg"));
        // The u64 → f64 conversion keeps 53 bits, so the order is
        // non-decreasing (not strict) in the last bytes.
        assert!(string_rank("abcdefg") <= string_rank("abcdefgh"));
        assert_eq!(Value::from("xyz").numeric_rank(), string_rank("xyz"));
    }
}
