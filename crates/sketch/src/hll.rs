//! HyperLogLog distinct-count sketch.
//!
//! The paper uses HyperLogLog [Flajolet et al.] to estimate `U(x.k)`, the number
//! of unique values of a join-key attribute, which is the denominator of the
//! join-result-size formula. The implementation below is the classic
//! register-array variant with the small-range (linear counting) and large-range
//! corrections.

use rdo_common::Value;
use std::hash::{Hash, Hasher};

/// Deterministic 64-bit hash used by the sketch (FNV-1a followed by a finalizer).
/// A hand-rolled hasher keeps results stable across Rust versions, which the
/// test-suite accuracy bounds rely on.
#[derive(Clone, Copy)]
struct StableHasher {
    state: u64,
}

impl StableHasher {
    fn new() -> Self {
        Self {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn finalize(mut self) -> u64 {
        // splitmix64 finalizer for better bit diffusion than raw FNV.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.state = z ^ (z >> 31);
        self.state
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Hashes a [`Value`] to a well-mixed 64-bit digest.
pub fn hash_value(value: &Value) -> u64 {
    let mut hasher = StableHasher::new();
    value.hash(&mut hasher);
    hasher.finalize()
}

// Columnar hash primitives. The batch kernels hash borrowed column slots
// without materializing a `Value`; each function below replays the exact
// byte stream `Value::hash` feeds the stable hasher (type tag, then the
// payload as `Hash` would write it), so for every value
// `hash_int64(v) == hash_value(&Value::Int64(v))` and likewise for the other
// variants. A cross-check test below keeps the two representations locked
// together — grace/repartition placement must be representation-invariant.

/// Digest of an `Int64` (or `Date` — the two hash identically, like
/// [`Value`]'s own `Hash`, so date-surrogate joins are type-agnostic).
pub fn hash_int64(v: i64) -> u64 {
    let mut hasher = StableHasher::new();
    hasher.write(&[1]);
    hasher.write(&v.to_ne_bytes());
    hasher.finalize()
}

/// Digest of a `Float64` (hashed through its IEEE-754 bit pattern).
pub fn hash_float64(v: f64) -> u64 {
    let mut hasher = StableHasher::new();
    hasher.write(&[2]);
    hasher.write(&v.to_bits().to_ne_bytes());
    hasher.finalize()
}

/// Digest of a `Utf8` string.
pub fn hash_utf8(s: &str) -> u64 {
    let mut hasher = StableHasher::new();
    hasher.write(&[3]);
    hasher.write(s.as_bytes());
    hasher.write(&[0xff]);
    hasher.finalize()
}

/// Digest of a `Bool`.
pub fn hash_bool(b: bool) -> u64 {
    let mut hasher = StableHasher::new();
    hasher.write(&[4]);
    hasher.write(&[b as u8]);
    hasher.finalize()
}

/// Digest of SQL NULL.
pub fn hash_null() -> u64 {
    let mut hasher = StableHasher::new();
    hasher.write(&[0]);
    hasher.finalize()
}

/// HyperLogLog sketch with `2^precision` registers.
#[derive(Debug, Clone)]
pub struct HyperLogLog {
    precision: u8,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Default precision (2^12 = 4096 registers, ~1.6% standard error).
    pub const DEFAULT_PRECISION: u8 = 12;

    /// Creates a sketch with the given precision (4..=16).
    pub fn new(precision: u8) -> Self {
        assert!((4..=16).contains(&precision), "precision must be in 4..=16");
        Self {
            precision,
            registers: vec![0; 1 << precision],
        }
    }

    /// Creates a sketch with the default precision.
    pub fn default_precision() -> Self {
        Self::new(Self::DEFAULT_PRECISION)
    }

    /// Number of registers.
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    /// Adds a value to the sketch.
    pub fn insert(&mut self, value: &Value) {
        self.insert_hash(hash_value(value));
    }

    /// Adds a pre-hashed value.
    pub fn insert_hash(&mut self, hash: u64) {
        let p = self.precision as u32;
        let index = (hash >> (64 - p)) as usize;
        let rest = hash << p;
        // Number of leading zeros of the remaining bits, plus one; capped so the
        // register (u8) cannot overflow.
        let rank = if rest == 0 {
            (64 - p + 1) as u8
        } else {
            (rest.leading_zeros() + 1) as u8
        };
        if rank > self.registers[index] {
            self.registers[index] = rank;
        }
    }

    /// Merges another sketch of the same precision into this one.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(
            self.precision, other.precision,
            "cannot merge HLL sketches of different precision"
        );
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            if *b > *a {
                *a = *b;
            }
        }
    }

    /// Estimates the number of distinct values inserted.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;

        if raw <= 2.5 * m {
            // Small-range correction: linear counting.
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros != 0 {
                return m * (m / zeros as f64).ln();
            }
            return raw;
        }
        let two64 = 2f64.powi(64);
        if raw > two64 / 30.0 {
            // Large-range correction.
            return -two64 * (1.0 - raw / two64).ln();
        }
        raw
    }

    /// Estimate rounded to a u64 count (never below 1 once something was added).
    pub fn estimate_count(&self) -> u64 {
        let est = self.estimate().round() as u64;
        if est == 0 && self.registers.iter().any(|&r| r != 0) {
            1
        } else {
            est
        }
    }

    /// True if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }
}

impl Default for HyperLogLog {
    fn default() -> Self {
        Self::default_precision()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relative_error(estimate: f64, truth: f64) -> f64 {
        (estimate - truth).abs() / truth
    }

    #[test]
    fn empty_estimate_is_zero() {
        let hll = HyperLogLog::default();
        assert!(hll.is_empty());
        assert_eq!(hll.estimate_count(), 0);
    }

    #[test]
    fn single_value() {
        let mut hll = HyperLogLog::default();
        hll.insert(&Value::Int64(7));
        assert!(!hll.is_empty());
        assert_eq!(hll.estimate_count(), 1);
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut hll = HyperLogLog::default();
        for _ in 0..10_000 {
            hll.insert(&Value::Int64(42));
        }
        assert_eq!(hll.estimate_count(), 1);
    }

    #[test]
    fn accuracy_small_cardinality() {
        let mut hll = HyperLogLog::default();
        for i in 0..500 {
            hll.insert(&Value::Int64(i));
        }
        assert!(relative_error(hll.estimate(), 500.0) < 0.05);
    }

    #[test]
    fn accuracy_medium_cardinality() {
        let mut hll = HyperLogLog::default();
        for i in 0..100_000i64 {
            hll.insert(&Value::Int64(i * 7 + 3));
        }
        let err = relative_error(hll.estimate(), 100_000.0);
        assert!(err < 0.05, "relative error {err} too high");
    }

    #[test]
    fn accuracy_string_values() {
        let mut hll = HyperLogLog::default();
        for i in 0..20_000 {
            hll.insert(&Value::Utf8(format!("customer#{i:08}")));
        }
        let err = relative_error(hll.estimate(), 20_000.0);
        assert!(err < 0.06, "relative error {err} too high");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(12);
        let mut b = HyperLogLog::new(12);
        let mut both = HyperLogLog::new(12);
        for i in 0..30_000i64 {
            let v = Value::Int64(i);
            if i % 2 == 0 {
                a.insert(&v);
            } else {
                b.insert(&v);
            }
            both.insert(&v);
        }
        a.merge(&b);
        let diff = relative_error(a.estimate(), both.estimate());
        assert!(diff < 1e-9, "merged sketch must equal union sketch");
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn merge_different_precision_panics() {
        let mut a = HyperLogLog::new(10);
        let b = HyperLogLog::new(12);
        a.merge(&b);
    }

    #[test]
    fn int_and_date_treated_alike() {
        let mut a = HyperLogLog::default();
        let mut b = HyperLogLog::default();
        for i in 0..1000 {
            a.insert(&Value::Int64(i));
            b.insert(&Value::Date(i));
        }
        assert_eq!(a.estimate_count(), b.estimate_count());
    }

    #[test]
    fn columnar_primitives_match_value_hash() {
        // The representation-invariance contract: hashing a borrowed column
        // slot must equal hashing the materialized Value, for every variant
        // and every awkward payload (NaN, -0.0, infinities, huge strings).
        for v in [0i64, 1, -1, i64::MIN, i64::MAX, 42] {
            assert_eq!(hash_int64(v), hash_value(&Value::Int64(v)));
            assert_eq!(hash_int64(v), hash_value(&Value::Date(v)));
        }
        for f in [
            0.0f64,
            -0.0,
            1.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(hash_float64(f), hash_value(&Value::Float64(f)));
        }
        let huge = "x".repeat(100_000);
        for s in ["", "a", "hello world", huge.as_str()] {
            assert_eq!(hash_utf8(s), hash_value(&Value::Utf8(s.to_string())));
        }
        assert_eq!(hash_bool(true), hash_value(&Value::Bool(true)));
        assert_eq!(hash_bool(false), hash_value(&Value::Bool(false)));
        assert_eq!(hash_null(), hash_value(&Value::Null));
        // -0.0 and 0.0 have different bit patterns, hence different digests.
        assert_ne!(hash_float64(0.0), hash_float64(-0.0));
    }

    #[test]
    fn precision_bounds_enforced() {
        let hll = HyperLogLog::new(4);
        assert_eq!(hll.num_registers(), 16);
        let hll = HyperLogLog::new(16);
        assert_eq!(hll.num_registers(), 65536);
    }

    #[test]
    fn merge_is_commutative_and_idempotent() {
        let mut a = HyperLogLog::default();
        let mut b = HyperLogLog::default();
        for i in 0..3_000 {
            a.insert(&Value::Int64(i));
            b.insert(&Value::Int64(i + 2_000));
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.estimate(), ba.estimate());
        let once = ab.estimate();
        ab.merge(&b);
        ab.merge(&ab.clone());
        assert_eq!(ab.estimate(), once, "re-merging adds nothing");
        assert!(
            relative_error(once, 5_000.0) < 0.05,
            "union estimate {once}"
        );
    }
}
