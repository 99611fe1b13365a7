//! Compact binary row format for spilled tuples.
//!
//! The paper's Sink operator writes intermediate join results to temporary
//! files; this codec is the on-disk row representation of the reproduction's
//! spill store. It is hand-rolled (the build container has no crates.io
//! access, so no serde) and the roundtrip is **exact**: every [`Value`]
//! deserializes to a value that compares equal *and* has the same variant —
//! NULLs stay NULL, `Date` stays `Date` (even though `Int64` and `Date`
//! compare equal), floats keep their bit pattern (NaN included), and strings
//! of any length survive byte-for-byte.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! tuple  := u32 column_count, value*
//! value  := tag u8, payload
//!   0 = Null     (no payload)
//!   1 = Int64    i64
//!   2 = Float64  u64 (IEEE-754 bits)
//!   3 = Utf8     u32 length, bytes
//!   4 = Bool     u8 (0/1)
//!   5 = Date     i64
//! ```

use rdo_common::{Batch, Column, RdoError, Result, Tuple, Value};

const TAG_NULL: u8 = 0;
const TAG_INT64: u8 = 1;
const TAG_FLOAT64: u8 = 2;
const TAG_UTF8: u8 = 3;
const TAG_BOOL: u8 = 4;
const TAG_DATE: u8 = 5;

/// Appends the binary encoding of one value to `buf`.
pub fn encode_value(buf: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => buf.push(TAG_NULL),
        Value::Int64(v) => {
            buf.push(TAG_INT64);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        Value::Float64(v) => {
            buf.push(TAG_FLOAT64);
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Value::Utf8(s) => {
            buf.push(TAG_UTF8);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            buf.push(TAG_BOOL);
            buf.push(u8::from(*b));
        }
        Value::Date(v) => {
            buf.push(TAG_DATE);
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Appends the binary encoding of one tuple to `buf`.
pub fn encode_tuple(buf: &mut Vec<u8>, tuple: &Tuple) {
    buf.extend_from_slice(&(tuple.len() as u32).to_le_bytes());
    for value in tuple.values() {
        encode_value(buf, value);
    }
}

/// Exact length in bytes [`encode_value`] would append for `value`, computed
/// without encoding.
pub fn encoded_value_len(value: &Value) -> usize {
    match value {
        Value::Null => 1,
        Value::Int64(_) | Value::Float64(_) | Value::Date(_) => 9,
        Value::Utf8(s) => 5 + s.len(),
        Value::Bool(_) => 2,
    }
}

/// Exact length in bytes [`encode_tuple`] would append for `tuple`, computed
/// without encoding. The columnar page writer uses this to keep its page
/// boundaries and logical byte counters identical to the row codec's while
/// storing a different physical layout.
pub fn encoded_tuple_len(tuple: &Tuple) -> usize {
    4 + tuple.values().iter().map(encoded_value_len).sum::<usize>()
}

/// Appends the encoding [`encode_tuple`] gives row `r` of `batch`, read off
/// the column slots (the row-layout page writer's path).
pub fn encode_batch_row(buf: &mut Vec<u8>, batch: &Batch, r: usize) {
    buf.extend_from_slice(&(batch.num_columns() as u32).to_le_bytes());
    for column in batch.columns() {
        encode_value(buf, &column.value(r));
    }
}

/// Per row of `batch`, the exact length [`encode_tuple`] would give it
/// ([`encoded_tuple_len`]) — what cuts spill pages and feeds every logical
/// byte counter — computed a column at a time: 4 for the column count, then
/// per slot 1 for NULL, 9 for a 64-bit value, 2 for a boolean, 5 + length
/// for a string.
pub fn encoded_row_lens(batch: &Batch) -> Vec<u32> {
    fn add(lens: &mut [u32], validity: &rdo_common::NullBitmap, width: impl Fn(usize) -> u32) {
        let no_nulls = validity.all_valid();
        for (i, len) in lens.iter_mut().enumerate() {
            *len += match no_nulls || validity.is_valid(i) {
                true => width(i),
                false => 1,
            };
        }
    }
    let mut lens = vec![4u32; batch.num_rows()];
    for column in batch.columns() {
        match column {
            Column::Int64 { validity, .. }
            | Column::Date { validity, .. }
            | Column::Float64 { validity, .. } => add(&mut lens, validity, |_| 9),
            Column::Bool { validity, .. } => add(&mut lens, validity, |_| 2),
            Column::Utf8 {
                offsets, validity, ..
            } => add(&mut lens, validity, |i| {
                5 + (offsets[i + 1] - offsets[i]) as u32
            }),
            Column::Mixed { values } => {
                for (len, value) in lens.iter_mut().zip(values) {
                    *len += encoded_value_len(value) as u32;
                }
            }
        }
    }
    lens
}

fn corrupt(what: &str) -> RdoError {
    RdoError::Execution(format!("corrupt spill page: {what}"))
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    let end = pos
        .checked_add(n)
        .ok_or_else(|| corrupt("length overflow"))?;
    let slice = bytes.get(*pos..end).ok_or_else(|| corrupt("truncated"))?;
    *pos = end;
    Ok(slice)
}

fn take_u32(bytes: &[u8], pos: &mut usize) -> Result<u32> {
    let b = take(bytes, pos, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn take_i64(bytes: &[u8], pos: &mut usize) -> Result<i64> {
    let b = take(bytes, pos, 8)?;
    Ok(i64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

/// Decodes one value starting at `*pos`, advancing the cursor.
pub fn decode_value(bytes: &[u8], pos: &mut usize) -> Result<Value> {
    let tag = take(bytes, pos, 1)?[0];
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_INT64 => Value::Int64(take_i64(bytes, pos)?),
        TAG_FLOAT64 => Value::Float64(f64::from_bits(take_i64(bytes, pos)? as u64)),
        TAG_UTF8 => {
            let len = take_u32(bytes, pos)? as usize;
            let raw = take(bytes, pos, len)?;
            let s = std::str::from_utf8(raw).map_err(|_| corrupt("invalid UTF-8"))?;
            Value::Utf8(s.to_string())
        }
        TAG_BOOL => Value::Bool(take(bytes, pos, 1)?[0] != 0),
        TAG_DATE => Value::Date(take_i64(bytes, pos)?),
        other => return Err(corrupt(&format!("unknown value tag {other}"))),
    })
}

/// Decodes one tuple starting at `*pos`, advancing the cursor.
pub fn decode_tuple(bytes: &[u8], pos: &mut usize) -> Result<Tuple> {
    let columns = take_u32(bytes, pos)? as usize;
    // Each value costs at least its tag byte; reject absurd counts before
    // reserving memory for them.
    if columns > bytes.len() - *pos {
        return Err(corrupt("implausible column count"));
    }
    let mut values = Vec::with_capacity(columns);
    for _ in 0..columns {
        values.push(decode_value(bytes, pos)?);
    }
    Ok(Tuple::new(values))
}

/// Decodes exactly `rows` tuples from a page body, requiring the page to be
/// fully consumed (any trailing garbage means corruption).
pub fn decode_rows(bytes: &[u8], rows: usize) -> Result<Vec<Tuple>> {
    // Each tuple costs at least its 4-byte column count.
    if rows > bytes.len() / 4 {
        return Err(corrupt("implausible row count"));
    }
    let mut pos = 0usize;
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        out.push(decode_tuple(bytes, &mut pos)?);
    }
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes after last row"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_tuple(tuple: &Tuple) -> Tuple {
        let mut buf = Vec::new();
        encode_tuple(&mut buf, tuple);
        assert_eq!(
            buf.len(),
            encoded_tuple_len(tuple),
            "predicted length matches the real encoding"
        );
        let mut pos = 0;
        let out = decode_tuple(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len(), "whole encoding consumed");
        out
    }

    /// Variant-exact equality: `Int64(5) == Date(5)` under `PartialEq`, so the
    /// roundtrip tests compare the debug form too.
    fn assert_identical(a: &Tuple, b: &Tuple) {
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn fixed_cases_roundtrip() {
        let cases = vec![
            Tuple::new(vec![]),
            Tuple::new(vec![Value::Null]),
            Tuple::new(vec![Value::Utf8(String::new())]),
            Tuple::new(vec![Value::Utf8("κόσμε".to_string())]),
            Tuple::new(vec![Value::Utf8("x".repeat(1 << 20))]),
            Tuple::new(vec![
                Value::Int64(i64::MIN),
                Value::Int64(i64::MAX),
                Value::Date(i64::MIN),
                Value::Float64(f64::NAN),
                Value::Float64(-0.0),
                Value::Float64(f64::INFINITY),
                Value::Bool(true),
                Value::Bool(false),
                Value::Null,
            ]),
        ];
        for tuple in &cases {
            assert_identical(tuple, &roundtrip_tuple(tuple));
        }
        // NaN and -0.0 keep their exact bit patterns.
        let mut buf = Vec::new();
        encode_value(&mut buf, &Value::Float64(f64::NAN));
        let mut pos = 0;
        let Value::Float64(back) = decode_value(&buf, &mut pos).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(back.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn truncated_and_garbage_inputs_error() {
        let mut buf = Vec::new();
        encode_tuple(&mut buf, &Tuple::new(vec![Value::Int64(7)]));
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(decode_tuple(&buf[..cut], &mut pos).is_err(), "cut={cut}");
        }
        let mut pos = 0;
        assert!(decode_value(&[99], &mut pos).is_err(), "unknown tag");
        assert!(decode_rows(&buf, 2).is_err(), "row-count mismatch");
        let mut padded = buf.clone();
        padded.push(0);
        assert!(decode_rows(&padded, 1).is_err(), "trailing bytes");
    }

    /// A corrupt count errors before anything is reserved for it, instead
    /// of asking the allocator for hundreds of gigabytes (which aborts the
    /// process).
    #[test]
    fn corrupt_counts_error_without_reserving() {
        assert!(decode_rows(&[0xff; 4], 1).is_err(), "column count");
        assert!(decode_rows(&[], u32::MAX as usize).is_err(), "row count");
        let mut pos = 0;
        assert!(decode_tuple(&[0xff; 8], &mut pos).is_err());
    }

    /// The count bounds reject only what the bytes cannot hold: rows and
    /// columns of the smallest encoding decode right up to the bound.
    #[test]
    fn counts_at_the_byte_bound_still_decode() {
        let empty = Tuple::new(Vec::new());
        assert_eq!(decode_rows(&[0; 8], 2).unwrap(), vec![empty; 2]);
        assert!(decode_rows(&[0; 8], 3).is_err(), "one row over the bound");
        let nulls = [2, 0, 0, 0, TAG_NULL, TAG_NULL];
        let mut pos = 0;
        assert_eq!(
            decode_tuple(&nulls, &mut pos).unwrap(),
            Tuple::new(vec![Value::Null; 2])
        );
        assert_eq!(pos, nulls.len());
        let mut pos = 0;
        assert!(decode_tuple(&[3, 0, 0, 0, TAG_NULL, TAG_NULL], &mut pos).is_err());
    }

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            1 => Just(Value::Null),
            3 => any::<i64>().prop_map(Value::Int64),
            2 => any::<i64>().prop_map(Value::Date),
            2 => any::<f64>().prop_map(Value::Float64),
            1 => any::<bool>().prop_map(Value::Bool),
            1 => Just(Value::Utf8(String::new())),
            1 => Just(Value::Utf8("α β γ — mixed ✓".to_string())),
            1 => Just(Value::Utf8("m".repeat(70_000))),
            3 => (0u64..1_000_000, 0usize..24).prop_map(|(seed, len)| {
                let mut s = String::new();
                for i in 0..len {
                    s.push(char::from(b'a' + ((seed as usize + i * 7) % 26) as u8));
                }
                Value::Utf8(s)
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Serialize → deserialize is the identity on random tuples covering
        /// every variant, NULLs, empty strings and oversized (page-busting)
        /// strings.
        fn roundtrip_is_exact(values in prop::collection::vec(value_strategy(), 0..12)) {
            let tuple = Tuple::new(values);
            let back = roundtrip_tuple(&tuple);
            prop_assert_eq!(format!("{:?}", &tuple), format!("{:?}", &back));
        }

        /// Concatenated rows decode back to the same sequence (the page-body
        /// framing `decode_rows` relies on).
        fn page_body_framing(rows in prop::collection::vec(
            prop::collection::vec(value_strategy(), 0..6), 0..8)
        ) {
            let tuples: Vec<Tuple> = rows.into_iter().map(Tuple::new).collect();
            let mut buf = Vec::new();
            for t in &tuples {
                encode_tuple(&mut buf, t);
            }
            let back = decode_rows(&buf, tuples.len()).unwrap();
            prop_assert_eq!(format!("{:?}", &tuples), format!("{:?}", &back));
        }
    }
}
