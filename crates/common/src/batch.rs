//! Columnar batches: typed column arrays with null bitmaps.
//!
//! A [`Batch`] is the one representation data has inside the engine, at rest
//! and in flight: base tables and resident intermediates are runs of
//! batches, and every operator consumes and produces them. Each column holds
//! one contiguous typed array ([`Column`]) plus a validity bitmap
//! ([`NullBitmap`]), in the style of RisingLight's array executors. Kernels
//! iterate a typed slice per column instead of matching a [`Value`] enum per
//! cell, which keeps the hot loops (predicate evaluation, partition hashing,
//! join key comparison) monomorphic.
//!
//! Column payloads sit behind [`Arc`]s, so cloning a batch, projecting it
//! ([`Batch::project`]) or widening it ([`Batch::hstack`]) shares the arrays
//! instead of copying them — an unfiltered scan hands out the stored chunks
//! themselves. Rows move between batches only through [`Batch::take`],
//! [`Batch::gather`] and [`Batch::concat`].
//!
//! The row-oriented [`Tuple`] API is the *conversion layer at the edges* —
//! ingest, result delivery, the spill tuple codec and the wire frames — so
//! [`Batch::from_rows`] / [`Batch::to_rows`] are exact inverses: the
//! roundtrip preserves every value bit-for-bit, including NaN payloads,
//! `-0.0`, empty strings and the `Int64` vs `Date` distinction (they hash
//! and compare alike but render differently).
//!
//! Column typing is *inferred from the data*, not declared: a column starts
//! typed after its first non-null value and is promoted to the row-fallback
//! [`Column::Mixed`] representation on the first value of a different
//! variant. The promotion rule is deterministic in the input rows, so every
//! executor (serial, parallel, distributed) building a batch from the same
//! rows builds the identical representation.

use crate::env::{parse_env_positive_usize, read_env};
use crate::tuple::{Relation, Tuple};
use crate::value::{DataType, Value};
use std::sync::{Arc, OnceLock};

/// Environment variable selecting the number of rows per kernel batch.
pub const BATCH_SIZE_ENV: &str = "RDO_BATCH_SIZE";

/// Default rows per kernel batch when `RDO_BATCH_SIZE` is unset or invalid.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// The process-wide kernel batch size: `RDO_BATCH_SIZE` (integer >= 1,
/// warn-on-invalid) or [`DEFAULT_BATCH_SIZE`]. Read once per process and
/// cached; results are batch-size invariant, so the knob only trades
/// per-batch overhead against cache footprint. Tests that sweep sizes use
/// the explicit `*_chunked` kernel variants instead of mutating the
/// environment.
pub fn batch_size() -> usize {
    static BATCH_SIZE: OnceLock<usize> = OnceLock::new();
    *BATCH_SIZE.get_or_init(|| {
        read_env(
            BATCH_SIZE_ENV,
            "the default batch size (1024) stays",
            parse_env_positive_usize,
        )
        .unwrap_or(DEFAULT_BATCH_SIZE)
    })
}

/// A validity bitmap: one bit per row, set when the slot holds a (non-NULL)
/// value. Bits are packed into `u64` words; trailing bits of the last word
/// are always zero, so derived equality is exact.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NullBitmap {
    words: Vec<u64>,
    len: usize,
}

impl NullBitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bitmap with room for `rows` bits.
    pub fn with_capacity(rows: usize) -> Self {
        Self {
            words: Vec::with_capacity(rows.div_ceil(64)),
            len: 0,
        }
    }

    /// A bitmap of `len` bits, all set (`valid`) or all clear.
    pub fn filled(len: usize, valid: bool) -> Self {
        let mut words = vec![if valid { u64::MAX } else { 0 }; len.div_ceil(64)];
        if valid && !len.is_multiple_of(64) {
            // Trailing bits of the last word stay zero (see the type docs).
            *words.last_mut().expect("len > 0") = (1u64 << (len % 64)) - 1;
        }
        Self { words, len }
    }

    /// Appends every bit of `other`.
    pub fn extend_from(&mut self, other: &NullBitmap) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            // `other`'s trailing bits are zero, so the spill-over of its last
            // word is zero exactly when it is not needed.
            for &word in &other.words {
                *self.words.last_mut().expect("shift > 0") |= word << shift;
                self.words.push(word >> (64 - shift));
            }
        }
        self.len += other.len;
        self.words.truncate(self.len.div_ceil(64));
    }

    /// Appends the bitmap packed eight bits to the byte, bit `i` at bit
    /// `i % 8` of byte `i / 8` — `len.div_ceil(8)` bytes, the page codecs'
    /// bitmap layout.
    pub fn write_le_bytes(&self, out: &mut Vec<u8>) {
        let end = out.len() + self.len.div_ceil(8);
        for word in &self.words {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.truncate(end);
    }

    /// The bitmap of `len` bits [`NullBitmap::write_le_bytes`] packed into
    /// `packed`. Bits past `len` in the last byte are ignored.
    ///
    /// # Panics
    /// Panics unless `packed` holds exactly `len.div_ceil(8)` bytes.
    pub fn from_le_bytes(packed: &[u8], len: usize) -> Self {
        assert_eq!(packed.len(), len.div_ceil(8), "bitmap bytes vs bits");
        let mut words: Vec<u64> = packed
            .chunks(8)
            .map(|chunk| {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                u64::from_le_bytes(word)
            })
            .collect();
        if !len.is_multiple_of(64) {
            // Trailing bits of the last word stay zero (see the type docs).
            *words.last_mut().expect("len > 0") &= (1u64 << (len % 64)) - 1;
        }
        Self { words, len }
    }

    /// Appends one bit.
    pub fn push(&mut self, valid: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if valid {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if bit `i` is set (the slot holds a value).
    pub fn is_valid(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count_valid(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if every slot holds a value. Kernels check this once per key or
    /// predicate column per batch and skip the per-slot validity test on
    /// NULL-free columns.
    pub fn all_valid(&self) -> bool {
        self.count_valid() == self.len
    }
}

/// One typed column array of a [`Batch`].
///
/// Null slots of the typed variants carry a default payload (`0`, `0.0`, the
/// empty string, `false`) behind an unset validity bit, so comparing two
/// columns built from the same rows is exact. [`Column::Mixed`] is the
/// row-fallback representation for columns whose values span more than one
/// variant (or are entirely NULL); kernels fall back to per-value dispatch
/// for it.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int64 {
        /// Payloads (0 for null slots).
        values: Vec<i64>,
        /// Validity bitmap.
        validity: NullBitmap,
    },
    /// 64-bit floats. Equality compares IEEE-754 bit patterns, matching the
    /// engine's NaN-aware total order.
    Float64 {
        /// Payloads (0.0 for null slots).
        values: Vec<f64>,
        /// Validity bitmap.
        validity: NullBitmap,
    },
    /// UTF-8 strings in one contiguous buffer with `len + 1` offsets
    /// (null slots are zero-length).
    Utf8 {
        /// Byte offsets: string `i` is `bytes[offsets[i]..offsets[i + 1]]`.
        offsets: Vec<usize>,
        /// Concatenated string bytes.
        bytes: Vec<u8>,
        /// Validity bitmap.
        validity: NullBitmap,
    },
    /// Booleans.
    Bool {
        /// Payloads (false for null slots).
        values: Vec<bool>,
        /// Validity bitmap.
        validity: NullBitmap,
    },
    /// Dates as days since epoch. Kept distinct from [`Column::Int64`] so
    /// the roundtrip preserves the rendered form (`d5` vs `5`), even though
    /// the two hash and compare identically.
    Date {
        /// Payloads (0 for null slots).
        values: Vec<i64>,
        /// Validity bitmap.
        validity: NullBitmap,
    },
    /// Row-fallback representation: heterogeneous or all-NULL columns.
    Mixed {
        /// The values, one per row.
        values: Vec<Value>,
    },
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64 { values, .. } | Column::Date { values, .. } => values.len(),
            Column::Float64 { values, .. } => values.len(),
            Column::Utf8 { offsets, .. } => offsets.len() - 1,
            Column::Bool { values, .. } => values.len(),
            Column::Mixed { values } => values.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The declared element type of a typed column, `None` for
    /// [`Column::Mixed`].
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Column::Int64 { .. } => Some(DataType::Int64),
            Column::Float64 { .. } => Some(DataType::Float64),
            Column::Utf8 { .. } => Some(DataType::Utf8),
            Column::Bool { .. } => Some(DataType::Bool),
            Column::Date { .. } => Some(DataType::Date),
            Column::Mixed { .. } => None,
        }
    }

    /// True if slot `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Int64 { validity, .. }
            | Column::Float64 { validity, .. }
            | Column::Utf8 { validity, .. }
            | Column::Bool { validity, .. }
            | Column::Date { validity, .. } => !validity.is_valid(i),
            Column::Mixed { values } => values[i].is_null(),
        }
    }

    /// Materializes slot `i` as a [`Value`] (the conversion edge back to the
    /// row world).
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Int64 { values, validity } if validity.is_valid(i) => Value::Int64(values[i]),
            Column::Float64 { values, validity } if validity.is_valid(i) => {
                Value::Float64(values[i])
            }
            Column::Utf8 {
                offsets,
                bytes,
                validity,
            } if validity.is_valid(i) => Value::Utf8(utf8_slot(offsets, bytes, i).to_owned()),
            Column::Bool { values, validity } if validity.is_valid(i) => Value::Bool(values[i]),
            Column::Date { values, validity } if validity.is_valid(i) => Value::Date(values[i]),
            Column::Mixed { values } => values[i].clone(),
            _ => Value::Null,
        }
    }

    /// Borrowed string at slot `i` of a [`Column::Utf8`] (`None` for null
    /// slots or non-string columns). The zero-copy path string kernels use;
    /// agrees with [`Column::value`] on every slot.
    pub fn str_at(&self, i: usize) -> Option<&str> {
        match self {
            Column::Utf8 {
                offsets,
                bytes,
                validity,
            } if validity.is_valid(i) => Some(utf8_slot(offsets, bytes, i)),
            Column::Mixed { values } => values[i].as_str(),
            _ => None,
        }
    }

    /// Approximate byte size of slot `i`, exactly matching the row-side
    /// accounting ([`Tuple::approx_bytes`]): `16 + len` for a non-null
    /// string, `8` for everything else including NULL.
    pub fn approx_value_bytes(&self, i: usize) -> usize {
        match self {
            Column::Utf8 {
                offsets, validity, ..
            } if validity.is_valid(i) => 16 + (offsets[i + 1] - offsets[i]),
            Column::Mixed { values } => match &values[i] {
                Value::Utf8(s) => 16 + s.len(),
                _ => 8,
            },
            _ => 8,
        }
    }

    /// Total approximate bytes of the column (sums
    /// [`Column::approx_value_bytes`] over every slot).
    pub fn approx_bytes(&self) -> usize {
        match self {
            // 8 per slot, 8 more per string, plus the string bytes — which
            // are the whole buffer, null slots being zero-length.
            Column::Utf8 {
                offsets,
                bytes,
                validity,
            } => 8 * (offsets.len() - 1) + 8 * validity.count_valid() + bytes.len(),
            Column::Mixed { values } => values
                .iter()
                .map(|v| match v {
                    Value::Utf8(s) => 16 + s.len(),
                    _ => 8,
                })
                .sum(),
            _ => 8 * self.len(),
        }
    }

    /// Approximate bytes of the slots at `indices` (the shuffle volume of the
    /// rows an exchange moves), same accounting as [`Column::approx_bytes`].
    pub fn approx_bytes_at(&self, indices: &[u32]) -> usize {
        match self {
            Column::Utf8 { .. } | Column::Mixed { .. } => indices
                .iter()
                .map(|&i| self.approx_value_bytes(i as usize))
                .sum(),
            _ => 8 * indices.len(),
        }
    }

    /// Keeps the slots whose mask bit is true, preserving order.
    pub fn filter(&self, mask: &[bool]) -> Column {
        debug_assert_eq!(mask.len(), self.len());
        self.take(&mask_indices(mask))
    }

    /// Gathers the slots at `indices`, in index order (join output
    /// assembly; indices may repeat).
    pub fn take(&self, indices: &[u32]) -> Column {
        match self {
            Column::Int64 { values, validity } => Column::Int64 {
                values: indices.iter().map(|&i| values[i as usize]).collect(),
                validity: take_bitmap(validity, indices),
            },
            Column::Float64 { values, validity } => Column::Float64 {
                values: indices.iter().map(|&i| values[i as usize]).collect(),
                validity: take_bitmap(validity, indices),
            },
            Column::Utf8 {
                offsets,
                bytes,
                validity,
            } => {
                let mut out_offsets = Vec::with_capacity(indices.len() + 1);
                let mut out_bytes = Vec::new();
                out_offsets.push(0);
                for &i in indices {
                    let i = i as usize;
                    out_bytes.extend_from_slice(&bytes[offsets[i]..offsets[i + 1]]);
                    out_offsets.push(out_bytes.len());
                }
                Column::Utf8 {
                    offsets: out_offsets,
                    bytes: out_bytes,
                    validity: take_bitmap(validity, indices),
                }
            }
            Column::Bool { values, validity } => Column::Bool {
                values: indices.iter().map(|&i| values[i as usize]).collect(),
                validity: take_bitmap(validity, indices),
            },
            Column::Date { values, validity } => Column::Date {
                values: indices.iter().map(|&i| values[i as usize]).collect(),
                validity: take_bitmap(validity, indices),
            },
            Column::Mixed { values } => Column::Mixed {
                values: indices
                    .iter()
                    .map(|&i| values[i as usize].clone())
                    .collect(),
            },
        }
    }
}

fn take_bitmap(validity: &NullBitmap, indices: &[u32]) -> NullBitmap {
    if validity.all_valid() {
        return NullBitmap::filled(indices.len(), true);
    }
    let mut out = NullBitmap::with_capacity(indices.len());
    for &i in indices {
        out.push(validity.is_valid(i as usize));
    }
    out
}

/// The string at slot `i` of a `Utf8` payload.
///
/// # Panics
/// Panics on invalid UTF-8. Every way of building a [`Batch`] rules it out —
/// [`Batch::from_rows`] copies `String`s and [`Batch::from_columns`] (the
/// decode edge of the page and wire codecs) rejects it — so the slot hashes,
/// compares and materializes as the same string on every path.
pub fn utf8_slot<'a>(offsets: &[usize], bytes: &'a [u8], i: usize) -> &'a str {
    std::str::from_utf8(&bytes[offsets[i]..offsets[i + 1]])
        .expect("Utf8 column holds invalid UTF-8 (Batch::from_columns rejects it)")
}

/// The typed payloads of `cols` when every one of them is the `$variant`
/// with a fixed-width payload.
macro_rules! fixed_parts {
    ($cols:expr, $variant:ident) => {
        $cols
            .iter()
            .map(|c| match c {
                Column::$variant { values, validity } => Some((values.as_slice(), validity)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()
    };
}

fn gather_fixed<T: Copy>(
    parts: &[(&[T], &NullBitmap)],
    picks: &[(u32, u32)],
) -> (Vec<T>, NullBitmap) {
    let values = picks
        .iter()
        .map(|&(c, s)| parts[c as usize].0[s as usize])
        .collect();
    let validity = if parts.iter().all(|(_, v)| v.all_valid()) {
        NullBitmap::filled(picks.len(), true)
    } else {
        let mut out = NullBitmap::with_capacity(picks.len());
        for &(c, s) in picks {
            out.push(parts[c as usize].1.is_valid(s as usize));
        }
        out
    };
    (values, validity)
}

fn concat_fixed<T: Copy>(parts: &[(&[T], &NullBitmap)]) -> (Vec<T>, NullBitmap) {
    let rows = parts.iter().map(|(v, _)| v.len()).sum();
    let mut values = Vec::with_capacity(rows);
    let mut validity = NullBitmap::with_capacity(rows);
    for (v, bits) in parts {
        values.extend_from_slice(v);
        validity.extend_from(bits);
    }
    (values, validity)
}

impl Column {
    /// Gathers slots from several columns (the same schema position of a run
    /// of chunks): pick `(c, s)` is slot `s` of `cols[c]`, output in pick
    /// order. Chunks of one typed variant gather into that variant; a run
    /// mixing variants (say an all-NULL chunk beside an `Int64` one) is
    /// re-inferred value by value, exactly as [`Batch::from_rows`] would.
    pub fn gather(cols: &[&Column], picks: &[(u32, u32)]) -> Column {
        if cols.is_empty() {
            return Column::Mixed { values: Vec::new() };
        }
        if let Some(parts) = fixed_parts!(cols, Int64) {
            let (values, validity) = gather_fixed(&parts, picks);
            return Column::Int64 { values, validity };
        }
        if let Some(parts) = fixed_parts!(cols, Date) {
            let (values, validity) = gather_fixed(&parts, picks);
            return Column::Date { values, validity };
        }
        if let Some(parts) = fixed_parts!(cols, Float64) {
            let (values, validity) = gather_fixed(&parts, picks);
            return Column::Float64 { values, validity };
        }
        if let Some(parts) = fixed_parts!(cols, Bool) {
            let (values, validity) = gather_fixed(&parts, picks);
            return Column::Bool { values, validity };
        }
        if cols.iter().all(|c| matches!(c, Column::Utf8 { .. })) {
            let mut offsets = Vec::with_capacity(picks.len() + 1);
            let mut out = Vec::new();
            let mut bits = NullBitmap::with_capacity(picks.len());
            offsets.push(0);
            for &(c, s) in picks {
                let Column::Utf8 {
                    offsets: from,
                    bytes,
                    validity,
                } = cols[c as usize]
                else {
                    unreachable!("checked above")
                };
                let s = s as usize;
                out.extend_from_slice(&bytes[from[s]..from[s + 1]]);
                offsets.push(out.len());
                bits.push(validity.is_valid(s));
            }
            return Column::Utf8 {
                offsets,
                bytes: out,
                validity: bits,
            };
        }
        let mut builder = ColumnBuilder::new();
        for &(c, s) in picks {
            match cols[c as usize] {
                Column::Mixed { values } => builder.push(&values[s as usize]),
                typed => builder.push(&typed.value(s as usize)),
            }
        }
        builder.finish()
    }

    /// Concatenates columns end to end (see [`Column::gather`] for how runs
    /// of differing variants are typed).
    pub fn concat(cols: &[&Column]) -> Column {
        if cols.is_empty() {
            return Column::Mixed { values: Vec::new() };
        }
        if let Some(parts) = fixed_parts!(cols, Int64) {
            let (values, validity) = concat_fixed(&parts);
            return Column::Int64 { values, validity };
        }
        if let Some(parts) = fixed_parts!(cols, Date) {
            let (values, validity) = concat_fixed(&parts);
            return Column::Date { values, validity };
        }
        if let Some(parts) = fixed_parts!(cols, Float64) {
            let (values, validity) = concat_fixed(&parts);
            return Column::Float64 { values, validity };
        }
        if let Some(parts) = fixed_parts!(cols, Bool) {
            let (values, validity) = concat_fixed(&parts);
            return Column::Bool { values, validity };
        }
        if cols.iter().all(|c| matches!(c, Column::Utf8 { .. })) {
            let mut offsets = vec![0usize];
            let mut out = Vec::new();
            let mut bits = NullBitmap::new();
            for col in cols {
                let Column::Utf8 {
                    offsets: from,
                    bytes,
                    validity,
                } = col
                else {
                    unreachable!("checked above")
                };
                let base = out.len();
                out.extend_from_slice(bytes);
                offsets.extend(from[1..].iter().map(|o| base + o));
                bits.extend_from(validity);
            }
            return Column::Utf8 {
                offsets,
                bytes: out,
                validity: bits,
            };
        }
        let picks: Vec<(u32, u32)> = cols
            .iter()
            .enumerate()
            .flat_map(|(c, col)| (0..col.len() as u32).map(move |s| (c as u32, s)))
            .collect();
        Column::gather(cols, &picks)
    }
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        use Column::*;
        match (self, other) {
            (
                Int64 {
                    values: a,
                    validity: va,
                },
                Int64 {
                    values: b,
                    validity: vb,
                },
            )
            | (
                Date {
                    values: a,
                    validity: va,
                },
                Date {
                    values: b,
                    validity: vb,
                },
            ) => a == b && va == vb,
            (
                Float64 {
                    values: a,
                    validity: va,
                },
                Float64 {
                    values: b,
                    validity: vb,
                },
            ) => {
                // Bit-pattern comparison: NaN slots of equal payload compare
                // equal, matching the engine's total order on values.
                va == vb
                    && a.len() == b.len()
                    && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (
                Utf8 {
                    offsets: oa,
                    bytes: ba,
                    validity: va,
                },
                Utf8 {
                    offsets: ob,
                    bytes: bb,
                    validity: vb,
                },
            ) => oa == ob && ba == bb && va == vb,
            (
                Bool {
                    values: a,
                    validity: va,
                },
                Bool {
                    values: b,
                    validity: vb,
                },
            ) => a == b && va == vb,
            (Mixed { values: a }, Mixed { values: b }) => a == b,
            _ => false,
        }
    }
}

/// Incremental column constructor used by [`Batch::from_rows`]: starts
/// untyped, adopts the variant of the first non-null value, and promotes the
/// whole column to [`Column::Mixed`] on the first mismatch. Deterministic in
/// the pushed values.
#[derive(Debug)]
enum ColumnBuilder {
    /// Only NULLs so far.
    Untyped {
        nulls: usize,
    },
    Typed(Column),
}

impl ColumnBuilder {
    fn new() -> Self {
        ColumnBuilder::Untyped { nulls: 0 }
    }

    fn push(&mut self, value: &Value) {
        match self {
            ColumnBuilder::Untyped { nulls } => {
                if value.is_null() {
                    *nulls += 1;
                    return;
                }
                let mut column = typed_column_with_nulls(value, *nulls);
                push_typed(&mut column, value);
                *self = ColumnBuilder::Typed(column);
            }
            ColumnBuilder::Typed(column) => {
                if !push_typed(column, value) {
                    // Promote: materialize what we have and fall back to rows.
                    let mut values: Vec<Value> =
                        (0..column.len()).map(|i| column.value(i)).collect();
                    values.push(value.clone());
                    *self = ColumnBuilder::Typed(Column::Mixed { values });
                }
            }
        }
    }

    /// Pushes the slots of `column` at `slots`, in that order — the same
    /// column as pushing their values one by one, but a source of the
    /// builder's own variant is appended straight from its payload.
    fn extend_slots(&mut self, column: &Column, mut slots: &[u32]) {
        // Until a non-NULL value types the builder, go value by value.
        while let (ColumnBuilder::Untyped { .. }, Some((&s, rest))) = (&*self, slots.split_first())
        {
            self.push(&column.value(s as usize));
            slots = rest;
        }
        let ColumnBuilder::Typed(typed) = self else {
            return;
        };
        fn fixed<T: Copy>(
            (values, validity): (&mut Vec<T>, &mut NullBitmap),
            (from, from_validity): (&[T], &NullBitmap),
            slots: &[u32],
        ) {
            values.extend(slots.iter().map(|&s| from[s as usize]));
            if from_validity.all_valid() {
                validity.extend_from(&NullBitmap::filled(slots.len(), true));
            } else {
                for &s in slots {
                    validity.push(from_validity.is_valid(s as usize));
                }
            }
        }
        match (typed, column) {
            (
                Column::Int64 { values, validity },
                Column::Int64 {
                    values: from,
                    validity: bits,
                },
            )
            | (
                Column::Date { values, validity },
                Column::Date {
                    values: from,
                    validity: bits,
                },
            ) => fixed((values, validity), (from, bits), slots),
            (
                Column::Float64 { values, validity },
                Column::Float64 {
                    values: from,
                    validity: bits,
                },
            ) => fixed((values, validity), (from, bits), slots),
            (
                Column::Bool { values, validity },
                Column::Bool {
                    values: from,
                    validity: bits,
                },
            ) => fixed((values, validity), (from, bits), slots),
            (
                Column::Utf8 {
                    offsets,
                    bytes,
                    validity,
                },
                Column::Utf8 {
                    offsets: from,
                    bytes: from_bytes,
                    validity: bits,
                },
            ) => {
                for &s in slots {
                    let s = s as usize;
                    bytes.extend_from_slice(&from_bytes[from[s]..from[s + 1]]);
                    offsets.push(bytes.len());
                    validity.push(bits.is_valid(s));
                }
            }
            // A source of another variant (or the row fallback): value by
            // value, promoting on the first mismatch as `push` does.
            _ => {
                for &s in slots {
                    self.push(&column.value(s as usize));
                }
            }
        }
    }

    fn finish(self) -> Column {
        match self {
            // An all-NULL (or empty) column has no variant to adopt: the
            // row-fallback representation roundtrips it exactly.
            ColumnBuilder::Untyped { nulls } => Column::Mixed {
                values: vec![Value::Null; nulls],
            },
            ColumnBuilder::Typed(column) => column,
        }
    }
}

/// A fresh typed column matching `value`'s variant, pre-filled with `nulls`
/// null slots.
fn typed_column_with_nulls(value: &Value, nulls: usize) -> Column {
    let mut validity = NullBitmap::with_capacity(nulls + 1);
    for _ in 0..nulls {
        validity.push(false);
    }
    match value {
        Value::Int64(_) => Column::Int64 {
            values: vec![0; nulls],
            validity,
        },
        Value::Float64(_) => Column::Float64 {
            values: vec![0.0; nulls],
            validity,
        },
        Value::Utf8(_) => Column::Utf8 {
            offsets: vec![0; nulls + 1],
            bytes: Vec::new(),
            validity,
        },
        Value::Bool(_) => Column::Bool {
            values: vec![false; nulls],
            validity,
        },
        Value::Date(_) => Column::Date {
            values: vec![0; nulls],
            validity,
        },
        Value::Null => unreachable!("caller handles NULL"),
    }
}

/// Appends `value` to a typed column if it is NULL or of the column's own
/// variant (`Mixed` takes everything); false, and nothing appended, otherwise.
fn push_typed(column: &mut Column, value: &Value) -> bool {
    match (column, value) {
        (Column::Int64 { values, validity }, Value::Int64(v))
        | (Column::Date { values, validity }, Value::Date(v)) => {
            values.push(*v);
            validity.push(true);
        }
        (Column::Float64 { values, validity }, Value::Float64(v)) => {
            values.push(*v);
            validity.push(true);
        }
        (
            Column::Utf8 {
                offsets,
                bytes,
                validity,
            },
            Value::Utf8(s),
        ) => {
            bytes.extend_from_slice(s.as_bytes());
            offsets.push(bytes.len());
            validity.push(true);
        }
        (Column::Bool { values, validity }, Value::Bool(v)) => {
            values.push(*v);
            validity.push(true);
        }
        (Column::Int64 { values, validity }, Value::Null)
        | (Column::Date { values, validity }, Value::Null) => {
            values.push(0);
            validity.push(false);
        }
        (Column::Float64 { values, validity }, Value::Null) => {
            values.push(0.0);
            validity.push(false);
        }
        (
            Column::Utf8 {
                offsets, validity, ..
            },
            Value::Null,
        ) => {
            offsets.push(*offsets.last().unwrap());
            validity.push(false);
        }
        (Column::Bool { values, validity }, Value::Null) => {
            values.push(false);
            validity.push(false);
        }
        (Column::Mixed { values }, v) => values.push(v.clone()),
        _ => return false,
    }
    true
}

/// A batch of rows in columnar form: one [`Column`] per schema position,
/// all of the same length. Columns are shared (`Arc`), so clones,
/// projections and horizontal concatenations copy no payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    columns: Vec<Arc<Column>>,
    rows: usize,
}

impl Batch {
    fn from_parts(columns: Vec<Column>, rows: usize) -> Self {
        Self {
            columns: columns.into_iter().map(Arc::new).collect(),
            rows,
        }
    }

    /// An empty batch with `width` (empty) columns.
    pub fn empty(width: usize) -> Self {
        Self::from_parts(
            (0..width)
                .map(|_| Column::Mixed { values: Vec::new() })
                .collect(),
            0,
        )
    }

    /// Builds a batch from rows (the conversion edge from the tuple world).
    /// Every row must have exactly `width` values. Column typing is inferred
    /// deterministically — see the module docs.
    pub fn from_rows(width: usize, rows: &[Tuple]) -> Self {
        let mut builder = BatchBuilder::with_width(width);
        for row in rows {
            builder.push_row(row);
        }
        builder.finish()
    }

    /// Builds a batch from a relation's rows.
    pub fn from_relation(relation: &Relation) -> Self {
        Self::from_rows(relation.schema().len(), relation.rows())
    }

    /// Assembles a batch directly from columns (the decode edge of the
    /// columnar storage/spill/wire codecs). Every column must have the same
    /// length; that length becomes the row count. A `Utf8` column must be
    /// well-formed — offsets ascending from 0 to the buffer length, every
    /// slot valid UTF-8 on its own — and is rejected otherwise, so a string
    /// slot can never hash (borrowed bytes) differently from how it
    /// materializes (an owned `String`).
    pub fn from_columns(columns: Vec<Column>) -> crate::Result<Self> {
        let malformed = |what: &str| crate::RdoError::Execution(format!("batch columns {what}"));
        let rows = columns.first().map_or(0, Column::len);
        for column in &columns {
            if let Column::Utf8 {
                offsets,
                bytes,
                validity,
            } = column
            {
                let ascending = offsets.windows(2).all(|w| w[0] <= w[1]);
                if offsets.first() != Some(&0) || offsets.last() != Some(&bytes.len()) || !ascending
                {
                    return Err(malformed("hold malformed string offsets"));
                }
                if validity.len() != offsets.len() - 1 {
                    return Err(malformed("have mismatched lengths"));
                }
                if (0..validity.len())
                    .any(|i| !validity.is_valid(i) && offsets[i] != offsets[i + 1])
                {
                    return Err(malformed("hold bytes in a NULL string slot"));
                }
                // One pass over the buffer, then every slot must start on a
                // character boundary.
                let text =
                    std::str::from_utf8(bytes).map_err(|_| malformed("hold invalid UTF-8"))?;
                if !offsets.iter().all(|&o| text.is_char_boundary(o)) {
                    return Err(malformed("hold invalid UTF-8"));
                }
            }
            if column.len() != rows {
                return Err(malformed("have mismatched lengths"));
            }
        }
        Ok(Self::from_parts(columns, rows))
    }

    /// Materializes every row (the conversion edge back to the tuple world).
    /// Exact inverse of [`Batch::from_rows`].
    pub fn to_rows(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.rows);
        self.extend_rows_into(&mut out);
        out
    }

    /// Appends every row to `out` (streaming variant of [`Batch::to_rows`]).
    pub fn extend_rows_into(&self, out: &mut Vec<Tuple>) {
        out.reserve(self.rows);
        for r in 0..self.rows {
            out.push(self.row(r));
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// True if the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The columns, in schema order.
    pub fn columns(&self) -> impl ExactSizeIterator<Item = &Column> {
        self.columns.iter().map(Arc::as_ref)
    }

    /// Column at position `c`.
    pub fn column(&self, c: usize) -> &Column {
        &self.columns[c]
    }

    /// Materializes the value at row `r`, column `c`.
    pub fn value(&self, r: usize, c: usize) -> Value {
        self.columns[c].value(r)
    }

    /// Materializes row `r` as a [`Tuple`].
    pub fn row(&self, r: usize) -> Tuple {
        Tuple::new(self.columns.iter().map(|c| c.value(r)).collect())
    }

    /// Approximate byte size of row `r`, identical to
    /// [`Tuple::approx_bytes`] of the materialized row.
    pub fn row_bytes(&self, r: usize) -> usize {
        self.columns.iter().map(|c| c.approx_value_bytes(r)).sum()
    }

    /// Total approximate bytes of the batch.
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.approx_bytes()).sum()
    }

    /// Approximate bytes of the rows at `indices` (sums
    /// [`Batch::row_bytes`] over them, one column at a time).
    pub fn approx_bytes_at(&self, indices: &[u32]) -> usize {
        self.columns
            .iter()
            .map(|c| c.approx_bytes_at(indices))
            .sum()
    }

    /// Keeps the rows whose mask bit is true, preserving order.
    pub fn filter(&self, mask: &[bool]) -> Batch {
        debug_assert_eq!(mask.len(), self.rows);
        self.take(&mask_indices(mask))
    }

    /// Gathers the rows at `indices`, in index order (indices may repeat).
    pub fn take(&self, indices: &[u32]) -> Batch {
        Self::from_parts(
            self.columns.iter().map(|c| c.take(indices)).collect(),
            indices.len(),
        )
    }

    /// Gathers rows out of a run of chunks with the same columns: pick
    /// `(c, s)` is row `s` of `chunks[c]`, output in pick order.
    pub fn gather(chunks: &[Batch], picks: &[(u32, u32)]) -> Batch {
        let width = chunks.first().map_or(0, Batch::num_columns);
        let columns = (0..width)
            .map(|c| {
                let cols: Vec<&Column> = chunks.iter().map(|b| b.column(c)).collect();
                Column::gather(&cols, picks)
            })
            .collect();
        Self::from_parts(columns, picks.len())
    }

    /// Concatenates a run of chunks with the same columns into one batch. A
    /// single chunk is shared, not copied.
    pub fn concat(chunks: &[Batch]) -> Batch {
        if let [only] = chunks {
            return only.clone();
        }
        let width = chunks.first().map_or(0, Batch::num_columns);
        let columns = (0..width)
            .map(|c| {
                let cols: Vec<&Column> = chunks.iter().map(|b| b.column(c)).collect();
                Column::concat(&cols)
            })
            .collect();
        Self::from_parts(columns, chunks.iter().map(Batch::num_rows).sum())
    }

    /// Keeps the columns at `indexes`, in that order (projection). Shares
    /// the column payloads.
    pub fn project(&self, indexes: &[usize]) -> Batch {
        Batch {
            columns: indexes
                .iter()
                .map(|&i| Arc::clone(&self.columns[i]))
                .collect(),
            rows: self.rows,
        }
    }

    /// Concatenates the columns of two batches with the same row count
    /// (join output: `probe ++ build`). Shares the column payloads.
    pub fn hstack(&self, other: &Batch) -> Batch {
        debug_assert_eq!(self.rows, other.rows, "hstack needs equal row counts");
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Batch {
            columns,
            rows: self.rows,
        }
    }
}

/// A batch under construction: rows arrive as tuples ([`Self::push_row`], the
/// row edge) or as slots of other batches ([`Self::extend_slots`], copied a
/// column at a time) and [`Self::finish`] hands over what accumulated. Column
/// typing follows [`Batch::from_rows`] — whatever mix of the two feeds it,
/// the result is the batch `from_rows` builds from the same rows in the same
/// order.
#[derive(Debug, Default)]
pub struct BatchBuilder {
    columns: Vec<ColumnBuilder>,
    rows: usize,
}

impl BatchBuilder {
    /// An empty builder; the first row fixes its width.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder of `width` columns.
    pub fn with_width(width: usize) -> Self {
        Self {
            columns: (0..width).map(|_| ColumnBuilder::new()).collect(),
            rows: 0,
        }
    }

    fn widen(&mut self, width: usize) {
        if self.rows == 0 && self.columns.is_empty() {
            *self = Self::with_width(width);
        }
        debug_assert_eq!(self.columns.len(), width, "row arity must match the width");
    }

    /// Rows accumulated since the last [`Self::finish`].
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Appends one row.
    pub fn push_row(&mut self, row: &Tuple) {
        self.widen(row.len());
        for (builder, value) in self.columns.iter_mut().zip(row.values()) {
            builder.push(value);
        }
        self.rows += 1;
    }

    /// Appends the rows of `batch` at `slots`, in slot-list order.
    pub fn extend_slots(&mut self, batch: &Batch, slots: &[u32]) {
        self.widen(batch.num_columns());
        for (builder, column) in self.columns.iter_mut().zip(batch.columns()) {
            builder.extend_slots(column, slots);
        }
        self.rows += slots.len();
    }

    /// The accumulated rows as a batch; the builder is left empty, keeping
    /// its width.
    pub fn finish(&mut self) -> Batch {
        let done = std::mem::replace(self, Self::with_width(self.columns.len()));
        Batch::from_parts(
            done.columns
                .into_iter()
                .map(ColumnBuilder::finish)
                .collect(),
            done.rows,
        )
    }
}

/// Assembles selected rows of successive chunks into full batches.
///
/// Operators that pick rows chunk by chunk — a filtering scan, each
/// destination of a re-partition exchange — push `(chunk, indices)` pairs
/// here instead of materializing one small batch per input chunk: the picks
/// accumulate across chunks and every `target_rows` of them are gathered into
/// one output batch, so each surviving row is copied exactly once and the
/// output never fragments. A chunk that survives whole while nothing is
/// pending is passed through shared, not copied.
#[derive(Debug)]
pub struct BatchAssembler {
    target_rows: usize,
    /// Chunks the pending picks refer to (column payloads shared).
    pending: Vec<Batch>,
    /// `(index into pending, slot)`, chunk indexes non-decreasing.
    picks: Vec<(u32, u32)>,
    out: Vec<Batch>,
}

impl BatchAssembler {
    /// An assembler emitting batches of `target_rows` rows (the last one may
    /// be shorter).
    pub fn new(target_rows: usize) -> Self {
        Self {
            target_rows: target_rows.max(1),
            pending: Vec::new(),
            picks: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Appends the rows of `chunk` at `indices`, in index order.
    pub fn push(&mut self, chunk: &Batch, indices: &[u32]) {
        if indices.is_empty() {
            return;
        }
        let c = self.pending.len() as u32;
        self.pending.push(chunk.clone());
        self.picks.extend(indices.iter().map(|&s| (c, s)));
        while self.picks.len() >= self.target_rows {
            self.emit(self.target_rows);
        }
    }

    /// Appends every row of `chunk`.
    pub fn push_all(&mut self, chunk: &Batch) {
        if self.picks.is_empty() {
            if !chunk.is_empty() {
                self.out.push(chunk.clone());
            }
        } else {
            let all: Vec<u32> = (0..chunk.num_rows() as u32).collect();
            self.push(chunk, &all);
        }
    }

    /// Gathers the first `n` pending picks into an output batch.
    fn emit(&mut self, n: usize) {
        let rest = self.picks.split_off(n);
        self.out.push(Batch::gather(&self.pending, &self.picks));
        self.picks = rest;
        // Keep only the chunks a remaining pick refers to.
        match self.picks.first() {
            None => self.pending.clear(),
            Some(&(first, _)) => {
                self.pending.drain(..first as usize);
                for pick in &mut self.picks {
                    pick.0 -= first;
                }
            }
        }
    }

    /// The assembled batches, in push order.
    pub fn finish(mut self) -> Vec<Batch> {
        if !self.picks.is_empty() {
            self.emit(self.picks.len());
        }
        self.out
    }
}

/// The positions of the set bits of a selection mask, in order.
pub fn mask_indices(mask: &[bool]) -> Vec<u32> {
    mask.iter()
        .enumerate()
        .filter(|(_, &keep)| keep)
        .map(|(i, _)| i as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_rows() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![
                Value::Int64(1),
                Value::Float64(1.5),
                Value::from("alpha"),
                Value::Bool(true),
                Value::Date(10),
                Value::Null,
            ]),
            Tuple::new(vec![
                Value::Null,
                Value::Float64(f64::NAN),
                Value::Null,
                Value::Null,
                Value::Date(20),
                Value::Null,
            ]),
            Tuple::new(vec![
                Value::Int64(-7),
                Value::Float64(-0.0),
                Value::from(""),
                Value::Bool(false),
                Value::Null,
                Value::Null,
            ]),
        ]
    }

    /// However a builder is fed — tuples, slots of batches cut at any chunk
    /// size, or both in turn — it builds the batch `from_rows` builds from
    /// the same rows: typed columns adopt their variant after leading NULLs,
    /// all-NULL columns stay `Mixed`, a second variant promotes.
    #[test]
    fn batch_builder_matches_from_rows_however_it_is_fed() {
        let mut rows = mixed_rows();
        rows.insert(
            0,
            Tuple::new(vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ]),
        );
        for i in 0..70i64 {
            rows.push(Tuple::new(vec![
                Value::Int64(i),
                Value::Float64(i as f64),
                Value::from(format!("s{i}").as_str()),
                Value::Bool(i % 2 == 0),
                // A second variant: the `Date` column promotes to `Mixed`.
                if i == 40 {
                    Value::Int64(i)
                } else {
                    Value::Date(i)
                },
                Value::Null,
            ]));
        }
        let expected = Batch::from_rows(6, &rows);
        assert!(matches!(expected.column(4), Column::Mixed { .. }));
        assert!(matches!(expected.column(0), Column::Int64 { .. }));
        for chunk in [1, 3, 64] {
            let mut by_slots = BatchBuilder::new();
            let mut alternating = BatchBuilder::new();
            for (c, part) in rows.chunks(chunk).enumerate() {
                let batch = Batch::from_rows(6, part);
                let all: Vec<u32> = (0..part.len() as u32).collect();
                by_slots.extend_slots(&batch, &all);
                if c % 2 == 0 {
                    alternating.extend_slots(&batch, &all);
                } else {
                    part.iter().for_each(|row| alternating.push_row(row));
                }
            }
            assert_eq!(by_slots.num_rows(), rows.len());
            assert_eq!(by_slots.finish(), expected, "chunk={chunk}");
            assert_eq!(alternating.finish(), expected, "chunk={chunk}");
            assert_eq!(by_slots.num_rows(), 0, "finish leaves the builder empty");
        }
        // Slot lists pick and repeat rows like `take`.
        let mut picked = BatchBuilder::new();
        picked.extend_slots(&expected, &[5, 5, 0, 73]);
        let rows_picked = [&rows[5], &rows[5], &rows[0], &rows[73]].map(Tuple::clone);
        assert_eq!(picked.finish(), Batch::from_rows(6, &rows_picked));
    }

    #[test]
    fn bitmap_bytes_roundtrip_at_every_length() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 130] {
            let mut bitmap = NullBitmap::new();
            (0..len).for_each(|i| bitmap.push(i % 3 != 1));
            let mut bytes = vec![0xAB];
            bitmap.write_le_bytes(&mut bytes);
            assert_eq!(bytes.len(), 1 + len.div_ceil(8));
            for i in 0..len {
                assert_eq!(bytes[1 + i / 8] & (1 << (i % 8)) != 0, bitmap.is_valid(i));
            }
            // Garbage in the padding bits of the last byte is ignored.
            if !len.is_multiple_of(8) {
                *bytes.last_mut().unwrap() |= 0xFF << (len % 8);
            }
            assert_eq!(NullBitmap::from_le_bytes(&bytes[1..], len), bitmap);
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let rows = mixed_rows();
        let batch = Batch::from_rows(6, &rows);
        assert_eq!(batch.num_rows(), 3);
        assert_eq!(batch.num_columns(), 6);
        let back = batch.to_rows();
        assert_eq!(back.len(), 3);
        for (a, b) in rows.iter().zip(&back) {
            for (x, y) in a.values().iter().zip(b.values()) {
                // Bit-exact for floats (Value::eq already treats NaN == NaN,
                // but -0.0 != 0.0 under the total order; check both paths).
                match (x, y) {
                    (Value::Float64(f), Value::Float64(g)) => {
                        assert_eq!(f.to_bits(), g.to_bits())
                    }
                    _ => assert_eq!(x, y),
                }
            }
        }
    }

    #[test]
    fn typed_columns_are_inferred() {
        let batch = Batch::from_rows(6, &mixed_rows());
        assert_eq!(batch.column(0).data_type(), Some(DataType::Int64));
        assert_eq!(batch.column(1).data_type(), Some(DataType::Float64));
        assert_eq!(batch.column(2).data_type(), Some(DataType::Utf8));
        assert_eq!(batch.column(3).data_type(), Some(DataType::Bool));
        assert_eq!(batch.column(4).data_type(), Some(DataType::Date));
        assert_eq!(batch.column(5).data_type(), None, "all-NULL stays Mixed");
    }

    #[test]
    fn heterogeneous_columns_promote_to_mixed() {
        let rows = vec![
            Tuple::new(vec![Value::Int64(1)]),
            Tuple::new(vec![Value::from("two")]),
            Tuple::new(vec![Value::Int64(3)]),
        ];
        let batch = Batch::from_rows(1, &rows);
        assert_eq!(batch.column(0).data_type(), None);
        assert_eq!(batch.to_rows(), rows);
    }

    #[test]
    fn int_and_date_stay_distinct() {
        let rows = vec![Tuple::new(vec![Value::Int64(5), Value::Date(5)])];
        let batch = Batch::from_rows(2, &rows);
        assert_eq!(batch.column(0).data_type(), Some(DataType::Int64));
        assert_eq!(batch.column(1).data_type(), Some(DataType::Date));
        assert_eq!(batch.to_rows()[0].value(1).to_string(), "d5");
    }

    #[test]
    fn byte_accounting_matches_tuples() {
        let rows = mixed_rows();
        let batch = Batch::from_rows(6, &rows);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(batch.row_bytes(r), row.approx_bytes());
        }
        assert_eq!(
            batch.approx_bytes(),
            rows.iter().map(Tuple::approx_bytes).sum::<usize>()
        );
    }

    #[test]
    fn filter_take_project_hstack() {
        let rows = mixed_rows();
        let batch = Batch::from_rows(6, &rows);
        let filtered = batch.filter(&[true, false, true]);
        assert_eq!(filtered.to_rows(), vec![rows[0].clone(), rows[2].clone()]);
        let taken = batch.take(&[2, 0, 0]);
        assert_eq!(
            taken.to_rows(),
            vec![rows[2].clone(), rows[0].clone(), rows[0].clone()]
        );
        let projected = batch.project(&[4, 0]);
        assert_eq!(projected.to_rows()[0], rows[0].project(&[4, 0]));
        let wide = batch.project(&[0]).hstack(&batch.project(&[2]));
        assert_eq!(wide.num_columns(), 2);
        assert_eq!(wide.to_rows()[0], rows[0].project(&[0, 2]));
    }

    #[test]
    fn empty_batches_roundtrip() {
        let batch = Batch::from_rows(3, &[]);
        assert!(batch.is_empty());
        assert_eq!(batch.to_rows(), Vec::<Tuple>::new());
        assert_eq!(batch.approx_bytes(), 0);
        let empty = Batch::empty(2);
        assert_eq!(empty.num_columns(), 2);
        assert!(empty.filter(&[]).is_empty());
        assert!(empty.take(&[]).is_empty());
    }

    #[test]
    fn bitmap_packs_across_words() {
        let mut bm = NullBitmap::new();
        for i in 0..130 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 130);
        assert_eq!(bm.count_valid(), (0..130).filter(|i| i % 3 == 0).count());
        assert!(bm.is_valid(129) && !bm.is_valid(128));
        assert!(!bm.all_valid());
    }

    #[test]
    fn str_at_borrows_from_the_buffer() {
        let rows = vec![
            Tuple::new(vec![Value::from("hello")]),
            Tuple::new(vec![Value::Null]),
        ];
        let batch = Batch::from_rows(1, &rows);
        assert_eq!(batch.column(0).str_at(0), Some("hello"));
        assert_eq!(batch.column(0).str_at(1), None);
    }

    #[test]
    fn filled_and_extended_bitmaps_match_pushed_ones() {
        for (left, right) in [(0usize, 5usize), (3, 64), (64, 1), (70, 130), (128, 0)] {
            let bit = |i: usize| i % 3 != 1;
            let mut pushed = NullBitmap::new();
            let mut a = NullBitmap::new();
            let mut b = NullBitmap::new();
            for i in 0..left {
                pushed.push(bit(i));
                a.push(bit(i));
            }
            for i in left..left + right {
                pushed.push(bit(i));
                b.push(bit(i));
            }
            a.extend_from(&b);
            assert_eq!(a, pushed, "{left} + {right}");
        }
        for len in [0usize, 1, 63, 64, 65, 200] {
            let mut pushed = NullBitmap::new();
            (0..len).for_each(|_| pushed.push(true));
            assert_eq!(NullBitmap::filled(len, true), pushed);
            assert!(NullBitmap::filled(len, true).all_valid());
            assert_eq!(NullBitmap::filled(len, false).count_valid(), 0);
        }
    }

    #[test]
    fn concat_and_gather_match_the_row_roundtrip() {
        let rows = mixed_rows();
        // Chunk boundaries that leave an all-NULL (Mixed) chunk beside typed
        // ones: column 0 of rows[1..2] is NULL only.
        let chunks: Vec<Batch> = [&rows[0..1], &rows[1..2], &rows[2..3]]
            .iter()
            .map(|c| Batch::from_rows(6, c))
            .collect();
        assert_eq!(Batch::concat(&chunks), Batch::from_rows(6, &rows));
        assert_eq!(Batch::concat(&chunks).to_rows(), rows);
        let picks = [(2u32, 0u32), (0, 0), (1, 0), (0, 0)];
        let expected = vec![
            rows[2].clone(),
            rows[0].clone(),
            rows[1].clone(),
            rows[0].clone(),
        ];
        assert_eq!(Batch::gather(&chunks, &picks).to_rows(), expected);
        assert_eq!(
            Batch::gather(&chunks, &picks),
            Batch::from_rows(6, &expected)
        );
        // One chunk is shared, none is an empty batch of no columns.
        assert_eq!(Batch::concat(&chunks[..1]), chunks[0]);
        assert_eq!(Batch::concat(&[]).num_rows(), 0);
        assert_eq!(Batch::gather(&[], &[]).num_columns(), 0);
    }

    #[test]
    fn assembler_packs_picks_into_full_batches_in_order() {
        let rows: Vec<Tuple> = (0..50)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::from(format!("r{i}"))]))
            .collect();
        let chunks: Vec<Batch> = rows.chunks(7).map(|c| Batch::from_rows(2, c)).collect();
        // Keep every third row of every chunk.
        let mut assembler = BatchAssembler::new(4);
        let mut expected = Vec::new();
        for (c, chunk) in chunks.iter().enumerate() {
            let keep: Vec<u32> = (0..chunk.num_rows() as u32)
                .filter(|s| s % 3 == 0)
                .collect();
            expected.extend(keep.iter().map(|&s| rows[c * 7 + s as usize].clone()));
            assembler.push(chunk, &keep);
        }
        let out = assembler.finish();
        assert!(out[..out.len() - 1].iter().all(|b| b.num_rows() == 4));
        let got: Vec<Tuple> = out.iter().flat_map(Batch::to_rows).collect();
        assert_eq!(got, expected);

        // Whole chunks pass through shared while nothing is pending, and are
        // absorbed in order once something is.
        let mut assembler = BatchAssembler::new(100);
        assembler.push_all(&chunks[0]);
        assembler.push(&chunks[1], &[6, 0]);
        assembler.push_all(&chunks[2]);
        assembler.push_all(&Batch::empty(2));
        let out = assembler.finish();
        assert_eq!(out.len(), 2);
        assert!(std::ptr::eq(out[0].column(0), chunks[0].column(0)));
        let mut expected = vec![rows[13].clone(), rows[7].clone()];
        expected.extend_from_slice(&rows[14..21]);
        assert_eq!(out[1].to_rows(), expected);
        assert!(BatchAssembler::new(0).finish().is_empty());
    }

    #[test]
    fn projections_share_their_columns() {
        let batch = Batch::from_rows(6, &mixed_rows());
        let projected = batch.project(&[2, 0]);
        assert!(std::ptr::eq(projected.column(0), batch.column(2)));
        let wide = projected.hstack(&batch);
        assert!(std::ptr::eq(wide.column(1), batch.column(0)));
        assert!(std::ptr::eq(batch.clone().column(4), batch.column(4)));
    }

    #[test]
    fn byte_accounting_of_selected_rows_matches_tuples() {
        let rows = mixed_rows();
        let batch = Batch::from_rows(6, &rows);
        let picked = [2u32, 0];
        assert_eq!(
            batch.approx_bytes_at(&picked),
            rows[2].approx_bytes() + rows[0].approx_bytes()
        );
        assert_eq!(batch.approx_bytes_at(&[]), 0);
    }

    /// A string slot hashes from its borrowed bytes and materializes as an
    /// owned `String`; the two can only agree on valid UTF-8, so the decode
    /// edge refuses anything else.
    #[test]
    fn from_columns_rejects_malformed_string_columns() {
        let utf8 = |offsets: Vec<usize>, bytes: Vec<u8>| Column::Utf8 {
            validity: NullBitmap::filled(offsets.len() - 1, true),
            offsets,
            bytes,
        };
        // Valid, including a multi-byte character.
        let ok = Batch::from_columns(vec![utf8(vec![0, 2, 3], "éa".as_bytes().to_vec())]).unwrap();
        assert_eq!(ok.column(0).str_at(0), Some("é"));
        assert_eq!(ok.column(0).value(0), Value::from("é"));
        // Invalid byte, a slot boundary inside a character, broken offsets.
        assert!(Batch::from_columns(vec![utf8(vec![0, 1], vec![0xff])]).is_err());
        assert!(Batch::from_columns(vec![utf8(vec![0, 1, 2], "é".as_bytes().to_vec())]).is_err());
        assert!(Batch::from_columns(vec![utf8(vec![0, 3], b"ab".to_vec())]).is_err());
        assert!(Batch::from_columns(vec![utf8(vec![1, 2], b"ab".to_vec())]).is_err());
        assert!(Batch::from_columns(vec![utf8(vec![0, 2, 1, 2], b"ab".to_vec())]).is_err());
        // A NULL slot owns no bytes (the byte accounting counts the buffer).
        let mut validity = NullBitmap::new();
        validity.push(false);
        assert!(Batch::from_columns(vec![Column::Utf8 {
            offsets: vec![0, 1],
            bytes: b"a".to_vec(),
            validity,
        }])
        .is_err());
    }

    #[test]
    fn batch_equality_is_bit_exact_for_floats() {
        let rows = vec![Tuple::new(vec![Value::Float64(f64::NAN)])];
        let a = Batch::from_rows(1, &rows);
        let b = Batch::from_rows(1, &rows);
        assert_eq!(a, b, "identical NaN payloads compare equal");
    }
}
