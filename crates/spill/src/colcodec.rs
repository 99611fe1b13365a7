//! Columnar page layout for spilled batches.
//!
//! The row codec of [`crate::codec`] interleaves a type tag with every value,
//! so a page's byte stream alternates between tags, integer payloads and
//! string bytes — noise from the LZ compressor's point of view. This codec
//! stores the same rows as *column runs* instead: per column one type tag,
//! one null bitmap, then every (valid) payload back to back. Same-type bytes
//! end up adjacent — sequential integers share their high zero bytes, string
//! lengths repeat, tag bytes vanish entirely — which is exactly the shape
//! [`crate::compress`] squeezes best (RisingLight's columnar blocks use the
//! same trick).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! body    := u32 num_columns, u32 num_rows, column*
//! column  := tag u8, payload
//!   0 = Mixed    value*                       (row codec, one per row)
//!   1 = Int64    bitmap, i64 per valid row
//!   2 = Float64  bitmap, u64 bits per valid row
//!   3 = Utf8     bitmap, u32 len per valid row, bytes concatenated
//!   4 = Bool     bitmap, u8 (0/1) per valid row
//!   5 = Date     bitmap, i64 per valid row
//! bitmap  := ceil(num_rows / 8) bytes, bit i set when row i is valid
//! ```
//!
//! Both directions work a column slice at a time: a fixed-width column
//! without NULLs is one pass over its typed array (one bounds check for the
//! whole payload on the way back), bitmaps move a byte at a time, a string
//! column is its lengths and then its byte buffer, whole. [`encode_rows`] and
//! [`decode_rows`] are the row edge for callers holding tuples (the wire
//! frames of `rdo-net`).
//!
//! The roundtrip is **exact** at the representation level, not just the row
//! level: [`decode_batch`] rebuilds the identical [`Column`] variants
//! (`Int64` stays `Int64`, NaN payloads and `-0.0` keep their bits, all-NULL
//! columns stay `Mixed`), so a decoded batch compares equal to the encoded
//! one and its `to_rows()` is byte-for-byte the rows that went in. Decoding
//! validates everything — tags, bitmap sizes, string lengths, UTF-8, total
//! consumption — so a corrupt page errors instead of producing garbage rows,
//! and reserves memory only for what the bytes at hand can hold.

use crate::codec::{decode_value, encode_value};
use rdo_common::{Batch, Column, NullBitmap, RdoError, Result};

const TAG_MIXED: u8 = 0;
const TAG_INT64: u8 = 1;
const TAG_FLOAT64: u8 = 2;
const TAG_UTF8: u8 = 3;
const TAG_BOOL: u8 = 4;
const TAG_DATE: u8 = 5;

fn corrupt(what: &str) -> RdoError {
    RdoError::Execution(format!("corrupt columnar spill page: {what}"))
}

/// Appends one fixed-width column run: the validity bitmap, then the `N`-byte
/// payload of every valid slot back to back. A column without NULLs — the
/// common case — is one pass over the typed slice with no per-value test.
fn encode_fixed<T: Copy, const N: usize>(
    buf: &mut Vec<u8>,
    values: &[T],
    validity: &NullBitmap,
    bytes: impl Fn(T) -> [u8; N],
) {
    debug_assert_eq!(validity.len(), values.len());
    validity.write_le_bytes(buf);
    if validity.all_valid() {
        let start = buf.len();
        buf.resize(start + N * values.len(), 0);
        for (slot, &v) in buf[start..].chunks_exact_mut(N).zip(values) {
            slot.copy_from_slice(&bytes(v));
        }
    } else {
        for (i, &v) in values.iter().enumerate() {
            if validity.is_valid(i) {
                buf.extend_from_slice(&bytes(v));
            }
        }
    }
}

/// Appends the binary encoding of one batch to `buf`.
pub fn encode_batch(buf: &mut Vec<u8>, batch: &Batch) {
    buf.extend_from_slice(&(batch.num_columns() as u32).to_le_bytes());
    buf.extend_from_slice(&(batch.num_rows() as u32).to_le_bytes());
    for column in batch.columns() {
        match column {
            Column::Int64 { values, validity } => {
                buf.push(TAG_INT64);
                encode_fixed(buf, values, validity, i64::to_le_bytes);
            }
            Column::Date { values, validity } => {
                buf.push(TAG_DATE);
                encode_fixed(buf, values, validity, i64::to_le_bytes);
            }
            Column::Float64 { values, validity } => {
                buf.push(TAG_FLOAT64);
                encode_fixed(buf, values, validity, |v| v.to_bits().to_le_bytes());
            }
            Column::Bool { values, validity } => {
                buf.push(TAG_BOOL);
                encode_fixed(buf, values, validity, |v| [u8::from(v)]);
            }
            Column::Utf8 {
                offsets,
                bytes,
                validity,
            } => {
                buf.push(TAG_UTF8);
                let lens: Vec<u32> = offsets.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
                encode_fixed(buf, &lens, validity, u32::to_le_bytes);
                // NULL slots are zero-length, so the buffer *is* the valid
                // strings back to back.
                buf.extend_from_slice(bytes);
            }
            Column::Mixed { values } => {
                buf.push(TAG_MIXED);
                for v in values {
                    encode_value(buf, v);
                }
            }
        }
    }
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

/// Decodes one fixed-width column run of `rows` slots: the bitmap, then one
/// bounds check for the whole payload (its size follows from the bitmap's
/// population count) and one pass over it. NULL slots get `T::default()`.
fn decode_fixed<T: Copy + Default, const N: usize>(
    bytes: &[u8],
    pos: &mut usize,
    rows: usize,
    value: impl Fn([u8; N]) -> T,
) -> Result<(Vec<T>, NullBitmap)> {
    let validity = NullBitmap::from_le_bytes(take(bytes, pos, rows.div_ceil(8))?, rows);
    let valid = validity.count_valid();
    let payload = take(bytes, pos, valid * N)?;
    let mut payloads = payload
        .chunks_exact(N)
        .map(|chunk| value(chunk.try_into().expect("chunks_exact yields N bytes")));
    let values = if valid == rows {
        payloads.collect()
    } else {
        (0..rows)
            .map(|i| match validity.is_valid(i) {
                true => payloads.next().expect("one payload per valid slot"),
                false => T::default(),
            })
            .collect()
    };
    Ok((values, validity))
}

/// Decodes one batch, requiring `rows` rows (the page directory's row count)
/// and full consumption of `bytes` (trailing garbage means corruption).
pub fn decode_batch(bytes: &[u8], rows: usize) -> Result<Batch> {
    let mut pos = 0usize;
    let num_columns = take_u32(bytes, &mut pos)? as usize;
    let num_rows = take_u32(bytes, &mut pos)? as usize;
    if num_rows != rows {
        return Err(corrupt("row count does not match the page directory"));
    }
    // Each column costs at least one tag byte; reject absurd counts before
    // reserving memory for them.
    if num_columns > bytes.len() {
        return Err(corrupt("implausible column count"));
    }
    let mut columns = Vec::with_capacity(num_columns);
    for _ in 0..num_columns {
        let tag = take(bytes, &mut pos, 1)?[0];
        columns.push(match tag {
            TAG_INT64 | TAG_DATE => {
                let (values, validity) = decode_fixed(bytes, &mut pos, rows, i64::from_le_bytes)?;
                match tag {
                    TAG_INT64 => Column::Int64 { values, validity },
                    _ => Column::Date { values, validity },
                }
            }
            TAG_FLOAT64 => {
                let (values, validity) = decode_fixed(bytes, &mut pos, rows, |b| {
                    f64::from_bits(u64::from_le_bytes(b))
                })?;
                Column::Float64 { values, validity }
            }
            TAG_UTF8 => {
                let (lens, validity) = decode_fixed(bytes, &mut pos, rows, u32::from_le_bytes)?;
                let mut offsets = Vec::with_capacity(rows + 1);
                let mut total = 0usize;
                offsets.push(total);
                for len in lens {
                    total = total
                        .checked_add(len as usize)
                        .ok_or_else(|| corrupt("string lengths overflow"))?;
                    offsets.push(total);
                }
                // `Batch::from_columns` below rejects invalid UTF-8.
                let raw = take(bytes, &mut pos, total)?;
                Column::Utf8 {
                    offsets,
                    bytes: raw.to_vec(),
                    validity,
                }
            }
            TAG_BOOL => {
                let (values, validity) = decode_fixed(bytes, &mut pos, rows, |[b]| b)?;
                if values.iter().any(|&b| b > 1) {
                    return Err(corrupt("boolean payload out of range"));
                }
                Column::Bool {
                    values: values.into_iter().map(|b| b == 1).collect(),
                    validity,
                }
            }
            TAG_MIXED => {
                // A value costs at least its tag byte: bound the reservation
                // by what is left of the page.
                if rows > bytes.len() - pos {
                    return Err(corrupt("truncated"));
                }
                let mut values = Vec::with_capacity(rows);
                for _ in 0..rows {
                    values.push(decode_value(bytes, &mut pos)?);
                }
                Column::Mixed { values }
            }
            other => return Err(corrupt(&format!("unknown column tag {other}"))),
        });
    }
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes after last column"));
    }
    Batch::from_columns(columns).map_err(|e| corrupt(&e.to_string()))
}

/// Encodes `rows` as one columnar page body (convenience over
/// [`Batch::from_rows`] + [`encode_batch`] for the page writers; `width` is
/// the column count, needed when `rows` is empty).
pub fn encode_rows(buf: &mut Vec<u8>, width: usize, rows: &[rdo_common::Tuple]) {
    encode_batch(buf, &Batch::from_rows(width, rows));
}

/// Decodes a columnar page body straight to rows (the row-wise read edge).
pub fn decode_rows(bytes: &[u8], rows: usize) -> Result<Vec<rdo_common::Tuple>> {
    Ok(decode_batch(bytes, rows)?.to_rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encoded_tuple_len;
    use proptest::prelude::*;
    use rdo_common::{Tuple, Value};

    fn roundtrip(rows: &[Tuple], width: usize) -> Vec<Tuple> {
        let batch = Batch::from_rows(width, rows);
        let mut buf = Vec::new();
        encode_batch(&mut buf, &batch);
        let back = decode_batch(&buf, rows.len()).expect("decode");
        assert_eq!(back, batch, "decoded representation is identical");
        back.to_rows()
    }

    fn assert_identical(a: &[Tuple], b: &[Tuple]) {
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "variant-exact");
    }

    #[test]
    fn fixed_cases_roundtrip() {
        let cases: Vec<(usize, Vec<Tuple>)> = vec![
            (0, vec![]),
            (3, vec![]),
            (1, vec![Tuple::new(vec![Value::Null])]),
            (
                6,
                (0..100)
                    .map(|i| {
                        Tuple::new(vec![
                            Value::Int64(i),
                            if i % 3 == 0 {
                                Value::Null
                            } else {
                                Value::Float64(i as f64 / 7.0)
                            },
                            Value::Utf8(format!("name-{}", i % 13)),
                            Value::Bool(i % 2 == 0),
                            Value::Date(20_000 + i),
                            Value::Null, // all-NULL column stays Mixed
                        ])
                    })
                    .collect(),
            ),
            (
                5,
                vec![Tuple::new(vec![
                    Value::Int64(i64::MIN),
                    Value::Float64(f64::NAN),
                    Value::Float64(-0.0),
                    Value::Utf8("x".repeat(1 << 20)),
                    Value::Utf8(String::new()),
                ])],
            ),
            // Heterogeneous column: promoted to Mixed, encoded row-wise.
            (
                1,
                vec![
                    Tuple::new(vec![Value::Int64(1)]),
                    Tuple::new(vec![Value::Utf8("two".to_string())]),
                    Tuple::new(vec![Value::Date(3)]),
                ],
            ),
        ];
        for (width, rows) in &cases {
            assert_identical(rows, &roundtrip(rows, *width));
        }
    }

    #[test]
    fn nan_and_negative_zero_keep_their_bits() {
        let rows = vec![Tuple::new(vec![
            Value::Float64(f64::NAN),
            Value::Float64(-0.0),
        ])];
        let back = roundtrip(&rows, 2);
        let Value::Float64(nan) = back[0].value(0) else {
            panic!("wrong variant");
        };
        let Value::Float64(neg) = back[0].value(1) else {
            panic!("wrong variant");
        };
        assert_eq!(nan.to_bits(), f64::NAN.to_bits());
        assert_eq!(neg.to_bits(), (-0.0f64).to_bits());
    }

    /// The columnar body of realistic tabular data is smaller than the row
    /// body before compression (no per-value tags), and compresses better
    /// (same-type runs).
    #[test]
    fn columnar_bodies_beat_row_bodies_on_tabular_data() {
        let rows: Vec<Tuple> = (0..2_000)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i),
                    Value::Utf8(format!("payload-{:06}", i % 1000)),
                    Value::Float64(i as f64 / 7.0),
                ])
            })
            .collect();
        let mut row_body = Vec::new();
        for row in &rows {
            crate::codec::encode_tuple(&mut row_body, row);
        }
        let mut col_body = Vec::new();
        encode_rows(&mut col_body, 3, &rows);
        assert!(
            col_body.len() < row_body.len(),
            "columnar body smaller before compression: {} vs {}",
            col_body.len(),
            row_body.len()
        );
        let row_blob = crate::compress::encode_page(&row_body, true);
        let col_blob = crate::compress::encode_page(&col_body, true);
        assert!(
            col_blob.len() < row_blob.len(),
            "columnar pages compress smaller: {} vs {}",
            col_blob.len(),
            row_blob.len()
        );
        assert_identical(&rows, &roundtrip(&rows, 3));
    }

    #[test]
    fn corrupt_pages_error_instead_of_producing_garbage() {
        let rows: Vec<Tuple> = (0..10)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i),
                    Value::Utf8(format!("s{i}")),
                    Value::Bool(i % 2 == 0),
                ])
            })
            .collect();
        let mut buf = Vec::new();
        encode_rows(&mut buf, 3, &rows);

        // Every truncation point errors.
        for cut in 0..buf.len() {
            assert!(decode_batch(&buf[..cut], rows.len()).is_err(), "cut={cut}");
        }
        // Trailing garbage errors.
        let mut padded = buf.clone();
        padded.push(0);
        assert!(decode_batch(&padded, rows.len()).is_err());
        // A row count disagreeing with the page directory errors.
        assert!(decode_batch(&buf, rows.len() + 1).is_err());
        assert!(decode_batch(&buf, rows.len().saturating_sub(1)).is_err());
        // An unknown column tag errors (the first tag sits right after the
        // two u32 header words).
        let mut bad_tag = buf.clone();
        bad_tag[8] = 99;
        assert!(decode_batch(&bad_tag, rows.len()).is_err());
        // A boolean payload out of range errors.
        let bool_rows = vec![Tuple::new(vec![Value::Bool(true)])];
        let mut bool_buf = Vec::new();
        encode_rows(&mut bool_buf, 1, &bool_rows);
        *bool_buf.last_mut().unwrap() = 7;
        assert!(decode_batch(&bool_buf, 1).is_err());
        // Invalid UTF-8 in the string buffer errors.
        let utf_rows = vec![Tuple::new(vec![Value::Utf8("abcd".to_string())])];
        let mut utf_buf = Vec::new();
        encode_rows(&mut utf_buf, 1, &utf_rows);
        let n = utf_buf.len();
        utf_buf[n - 2] = 0xFF;
        assert!(decode_batch(&utf_buf, 1).is_err());
        // An implausible column count errors before allocating.
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        assert!(decode_batch(&huge, 0).is_err());
    }

    /// A page exercising every bulk path: all-valid and nullable fixed-width
    /// columns (more than 64 rows, so bitmaps span words), strings, booleans,
    /// dates, an all-NULL column and a `Mixed` one.
    fn every_path_page() -> (Batch, Vec<u8>) {
        let rows: Vec<Tuple> = (0..70i64)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i * 1_000_003),
                    if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Float64(i as f64 / 7.0)
                    },
                    if i % 4 == 0 {
                        Value::Null
                    } else {
                        Value::Utf8(format!("nâme-{}", i % 13))
                    },
                    Value::Bool(i % 2 == 0),
                    Value::Date(20_000 + i),
                    Value::Null,
                    if i % 2 == 0 {
                        Value::Int64(i)
                    } else {
                        Value::Utf8(format!("m{i}"))
                    },
                ])
            })
            .collect();
        let batch = Batch::from_rows(7, &rows);
        let mut body = Vec::new();
        encode_batch(&mut body, &batch);
        (batch, body)
    }

    /// Pages carry no checksum, so a damaged one may still decode — but only
    /// to a well-formed batch of the directory's shape, and never by way of
    /// a panic.
    fn assert_err_or_well_formed(bytes: &[u8], rows: usize, what: &str) {
        if let Ok(batch) = decode_batch(bytes, rows) {
            assert!(
                batch.num_columns() == 0 || batch.num_rows() == rows,
                "{what}: {} rows for a directory count of {rows}",
                batch.num_rows()
            );
            assert_eq!(batch.to_rows().len(), batch.num_rows(), "{what}");
        }
    }

    #[test]
    fn every_bit_flip_and_truncation_errors_or_decodes_well_formed() {
        let (batch, body) = every_path_page();
        assert_eq!(decode_batch(&body, batch.num_rows()).unwrap(), batch);
        for cut in 0..body.len() {
            assert!(
                decode_batch(&body[..cut], batch.num_rows()).is_err(),
                "cut={cut}"
            );
        }
        let mut damaged = body.clone();
        for bit in 0..body.len() * 8 {
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert_err_or_well_formed(&damaged, batch.num_rows(), &format!("bit {bit}"));
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// A header may claim any row and column count: the decoder reserves
    /// memory only for what the bytes behind the header can hold.
    #[test]
    fn implausible_counts_error_before_reserving_memory() {
        let rows = u32::MAX as usize;
        for tag in [
            TAG_MIXED,
            TAG_INT64,
            TAG_FLOAT64,
            TAG_UTF8,
            TAG_BOOL,
            TAG_DATE,
        ] {
            let mut page = Vec::new();
            page.extend_from_slice(&1u32.to_le_bytes());
            page.extend_from_slice(&u32::MAX.to_le_bytes());
            page.push(tag);
            page.extend_from_slice(&[0xFF; 64]);
            assert!(decode_batch(&page, rows).is_err(), "tag {tag}");
        }
        // String lengths summing past the page error at the bounds check,
        // whatever they add up to.
        let mut page = Vec::new();
        page.extend_from_slice(&1u32.to_le_bytes());
        page.extend_from_slice(&2u32.to_le_bytes());
        page.extend_from_slice(&[TAG_UTF8, 0b11]);
        page.extend_from_slice(&u32::MAX.to_le_bytes());
        page.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_batch(&page, 2).is_err());
    }

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            2 => Just(Value::Null),
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

    /// Rectangular row blocks: every row the same width, arbitrary values —
    /// the shape a spill page actually holds. Columns mixing variants
    /// exercise the Mixed fallback; same-variant columns the typed runs.
    /// (Built by chunking a flat value vector: the proptest shim has no
    /// `prop_flat_map` for dependent sizes.)
    fn rows_strategy() -> impl Strategy<Value = (usize, Vec<Tuple>)> {
        (1usize..6, prop::collection::vec(value_strategy(), 0..60)).prop_map(|(width, cells)| {
            let rows = cells
                .chunks_exact(width)
                .map(|chunk| Tuple::new(chunk.to_vec()))
                .collect();
            (width, rows)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// encode → decode is the identity on arbitrary rectangular blocks:
        /// NULLs, NaN payloads, -0.0, huge strings, Mixed columns — both the
        /// rows and the column representation roundtrip exactly.
        fn roundtrip_is_exact((width, rows) in rows_strategy()) {
            let back = roundtrip(&rows, width);
            prop_assert_eq!(format!("{:?}", &rows), format!("{:?}", &back));
        }

        /// The row-codec length prediction the columnar writer uses for page
        /// boundaries matches the real row encoding for any tuple.
        fn predicted_row_length_is_exact((_, rows) in rows_strategy()) {
            for row in &rows {
                let mut buf = Vec::new();
                crate::codec::encode_tuple(&mut buf, row);
                prop_assert_eq!(buf.len(), encoded_tuple_len(row));
            }
        }

        /// Arbitrary bytes never panic, and decode — if at all — to a batch
        /// of the claimed row count.
        fn arbitrary_bytes_never_panic(
            bytes in prop::collection::vec(any::<u8>(), 0..200),
            columns in 0u32..4,
            claimed in 0usize..40,
            tag in 0u8..7,
        ) {
            assert_err_or_well_formed(&bytes, claimed, "raw");
            // The same bytes behind a plausible header and column tag reach
            // the column decoders instead of dying at the row-count check.
            let mut page = Vec::new();
            page.extend_from_slice(&columns.to_le_bytes());
            page.extend_from_slice(&(claimed as u32).to_le_bytes());
            page.push(tag);
            page.extend_from_slice(&bytes);
            assert_err_or_well_formed(&page, claimed, "framed");
        }

        /// Corrupt pages never panic: decode either succeeds or errors for
        /// arbitrary prefixes with arbitrary claimed row counts.
        fn corrupt_pages_never_panic(
            (width, rows) in rows_strategy(),
            cut_num in 0usize..100,
            claimed in 0usize..20,
        ) {
            let mut buf = Vec::new();
            encode_rows(&mut buf, width, &rows);
            let cut = if buf.is_empty() { 0 } else { cut_num % (buf.len() + 1) };
            let _ = decode_batch(&buf[..cut], claimed);
        }
    }
}
