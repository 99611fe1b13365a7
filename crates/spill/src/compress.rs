//! Dependency-free LZ-style page compression for the spill store.
//!
//! The row codec of [`crate::codec`] leaves plenty of entropy on the table —
//! value tags repeat every column, integer payloads are mostly zero bytes and
//! string prefixes recur row after row. This module squeezes that out at the
//! page boundary with a byte-oriented LZ77 compressor (greedy hash-table
//! matching, LZ4-style token stream: literal/match-length nibbles with
//! extension bytes and 16-bit match offsets). No crates.io dependency, no
//! `unsafe`, and decompression validates every offset and length so a corrupt
//! page errors instead of producing garbage rows.
//!
//! Pages are framed self-describingly by [`encode_page`]:
//!
//! ```text
//! blob := 0x00, body                      (raw: compression off or useless)
//!       | 0x01, u32 logical_len, stream   (compressed)
//! ```
//!
//! A page whose compressed form would not actually shrink (already-compressed
//! or random bytes) is stored raw, so the worst case costs one flag byte. The
//! codec is deterministic — the same body always produces the same blob — so
//! compressed byte counters stay worker-count invariant like every other
//! logical spill metric.

use rdo_common::{RdoError, Result};
use std::borrow::Cow;

/// Frame tag: the body follows verbatim.
const TAG_RAW: u8 = 0;
/// Frame tag: `u32` logical length, then the LZ token stream.
const TAG_COMPRESSED: u8 = 1;

/// Minimum match length the token stream can express.
const MIN_MATCH: usize = 4;
/// Matches reach at most this far back (16-bit offsets).
const MAX_OFFSET: usize = u16::MAX as usize;
/// Hash-table size for match candidates (2^13 entries).
const HASH_BITS: u32 = 13;

fn corrupt(what: &str) -> RdoError {
    RdoError::Execution(format!("corrupt compressed spill page: {what}"))
}

/// The four bytes at `at`, as the little-endian word the hash and the match
/// test both work on.
#[inline]
fn word_at(input: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(input[at..at + 4].try_into().expect("4-byte slice"))
}

#[inline]
fn hash4(word: u32) -> usize {
    (word.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `a` and `b`, compared a word at a time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = u64::from_le_bytes(x.try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + a[n..]
        .iter()
        .zip(&b[n..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Writes the length-extension bytes of a nibble that saturated at 15.
fn write_extension(out: &mut Vec<u8>, value: usize) {
    if value >= 15 {
        let mut rest = value - 15;
        while rest >= 255 {
            out.push(255);
            rest -= 255;
        }
        out.push(rest as u8);
    }
}

fn nibble(value: usize) -> u8 {
    value.min(15) as u8
}

/// One sequence: literals, then a back-reference of `match_len >= MIN_MATCH`
/// bytes at `offset`.
fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], offset: u16, match_len: usize) {
    let stored_match = match_len - MIN_MATCH;
    out.push((nibble(literals.len()) << 4) | nibble(stored_match));
    write_extension(out, literals.len());
    out.extend_from_slice(literals);
    out.extend_from_slice(&offset.to_le_bytes());
    write_extension(out, stored_match);
}

/// The final, match-less sequence (the decoder recognizes it by running out
/// of input after the literals). Emits nothing when there are no literals.
fn emit_trailing_literals(out: &mut Vec<u8>, literals: &[u8]) {
    if literals.is_empty() {
        return;
    }
    out.push(nibble(literals.len()) << 4);
    write_extension(out, literals.len());
    out.extend_from_slice(literals);
}

/// Reusable compressor state: the match-candidate hash table (32 KiB). Page
/// writers flush thousands of pages, so the table is allocated once per
/// writer and wiped per page instead of reallocated on every flush.
#[derive(Debug)]
pub struct LzScratch {
    /// Candidate positions, stored +1 so 0 means "empty slot". A fixed-size
    /// array, so a hash (13 bits by construction) indexes it unchecked.
    table: Box<[u32; 1 << HASH_BITS]>,
}

impl Default for LzScratch {
    fn default() -> Self {
        Self {
            table: Box::new([0u32; 1 << HASH_BITS]),
        }
    }
}

impl LzScratch {
    /// A fresh scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Compresses a block. The output is only useful together with the input
/// length (see [`encode_page`]); it may be larger than the input for
/// incompressible data — callers compare and keep the raw form then.
pub fn compress_block(input: &[u8]) -> Vec<u8> {
    compress_block_with(&mut LzScratch::new(), input)
}

/// [`compress_block`] over caller-owned scratch state (the hot-path entry).
pub fn compress_block_with(scratch: &mut LzScratch, input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let table = &mut scratch.table;
    table.fill(0);
    let mut anchor = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= input.len() {
        let word = word_at(input, i);
        let slot = hash4(word);
        let candidate = table[slot] as usize;
        table[slot] = (i + 1) as u32;
        if candidate > 0 {
            let c = candidate - 1;
            if i - c <= MAX_OFFSET && word_at(input, c) == word {
                let len =
                    MIN_MATCH + common_prefix(&input[c + MIN_MATCH..], &input[i + MIN_MATCH..]);
                emit_sequence(&mut out, &input[anchor..i], (i - c) as u16, len);
                i += len;
                anchor = i;
                continue;
            }
        }
        i += 1;
    }
    emit_trailing_literals(&mut out, &input[anchor..]);
    out
}

/// Reads one saturated-nibble length extension.
fn read_extension(input: &[u8], pos: &mut usize) -> Result<usize> {
    let mut total = 0usize;
    loop {
        let byte = *input.get(*pos).ok_or_else(|| corrupt("truncated length"))?;
        *pos += 1;
        total += byte as usize;
        if byte < 255 {
            return Ok(total);
        }
    }
}

/// Decompresses a block produced by [`compress_block`]. `logical_len` is the
/// exact expected output size; any mismatch, bad offset or truncated stream
/// is an error.
pub fn decompress_block(input: &[u8], logical_len: usize) -> Result<Vec<u8>> {
    // `logical_len` comes from an unvalidated page header: reject lengths the
    // stream could not possibly produce (each input byte yields at most 255
    // output bytes via length extensions, one token at most 32) before
    // allocating, so a corrupt header errors instead of attempting a
    // multi-GiB reservation.
    if logical_len > input.len().saturating_mul(255) + 32 {
        return Err(corrupt("implausible logical length"));
    }
    let mut out = Vec::with_capacity(logical_len);
    let mut pos = 0usize;
    while pos < input.len() {
        let token = input[pos];
        pos += 1;
        let mut literal_len = (token >> 4) as usize;
        if literal_len == 15 {
            literal_len += read_extension(input, &mut pos)?;
        }
        let end = pos
            .checked_add(literal_len)
            .filter(|e| *e <= input.len())
            .ok_or_else(|| corrupt("literal run past the end"))?;
        out.extend_from_slice(&input[pos..end]);
        pos = end;
        if out.len() > logical_len {
            return Err(corrupt("output longer than the page"));
        }
        if pos == input.len() {
            break; // trailing literals-only sequence
        }
        if pos + 2 > input.len() {
            return Err(corrupt("truncated match offset"));
        }
        let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
        pos += 2;
        let mut stored_match = (token & 0x0F) as usize;
        if stored_match == 15 {
            stored_match += read_extension(input, &mut pos)?;
        }
        let match_len = stored_match + MIN_MATCH;
        if offset == 0 || offset > out.len() {
            return Err(corrupt("match offset outside the output"));
        }
        if out.len() + match_len > logical_len {
            return Err(corrupt("match past the end of the page"));
        }
        let start = out.len() - offset;
        // An overlapping match (offset < match_len) replicates its own
        // output: the bytes from `start` on repeat with period `offset`, so
        // copying everything produced so far doubles the run each round.
        let mut remaining = match_len;
        while remaining > 0 {
            let n = remaining.min(out.len() - start);
            out.extend_from_within(start..start + n);
            remaining -= n;
        }
    }
    if out.len() != logical_len {
        return Err(corrupt("page shorter than its logical length"));
    }
    Ok(out)
}

/// Frames a page body for the spill file: compressed when `compress` is set
/// *and* compression actually shrinks the page, raw otherwise.
pub fn encode_page(body: &[u8], compress: bool) -> Vec<u8> {
    encode_page_with(&mut LzScratch::new(), body, compress)
}

/// [`encode_page`] over caller-owned scratch state (the hot-path entry).
pub fn encode_page_with(scratch: &mut LzScratch, body: &[u8], compress: bool) -> Vec<u8> {
    if compress && !body.is_empty() {
        let stream = compress_block_with(scratch, body);
        if stream.len() + 5 < body.len() {
            let mut blob = Vec::with_capacity(stream.len() + 5);
            blob.push(TAG_COMPRESSED);
            blob.extend_from_slice(&(body.len() as u32).to_le_bytes());
            blob.extend_from_slice(&stream);
            return blob;
        }
    }
    let mut blob = Vec::with_capacity(body.len() + 1);
    blob.push(TAG_RAW);
    blob.extend_from_slice(body);
    blob
}

/// Recovers a page body from its framed blob. Raw pages borrow (no copy);
/// compressed pages decompress into an owned buffer.
pub fn decode_page(blob: &[u8]) -> Result<Cow<'_, [u8]>> {
    match blob.first() {
        Some(&TAG_RAW) => Ok(Cow::Borrowed(&blob[1..])),
        Some(&TAG_COMPRESSED) => {
            if blob.len() < 5 {
                return Err(corrupt("truncated header"));
            }
            let logical_len = u32::from_le_bytes([blob[1], blob[2], blob[3], blob[4]]) as usize;
            Ok(Cow::Owned(decompress_block(&blob[5..], logical_len)?))
        }
        Some(other) => Err(corrupt(&format!("unknown page tag {other}"))),
        None => Err(corrupt("empty page blob")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_rows, encode_tuple};
    use proptest::prelude::*;
    use rdo_common::{Tuple, Value};

    fn roundtrip(body: &[u8], compress: bool) -> Vec<u8> {
        let blob = encode_page(body, compress);
        decode_page(&blob).expect("decode").into_owned()
    }

    /// A pseudo-random byte generator (xorshift) — no `rand` needed, and the
    /// stream is incompressible enough to force the raw fallback.
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect()
    }

    #[test]
    fn fixed_bodies_roundtrip_compressed_and_raw() {
        let cases: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![0u8],
            vec![7u8; 100_000],
            b"abcdabcdabcdabcdabcd".to_vec(),
            b"no repeats here!".to_vec(),
            (0..=255u8).collect(),
            noise(70_000, 42),
            // Long match at maximum-ish offset: 70k zeros with markers.
            {
                let mut v = vec![0u8; 70_000];
                v[0] = 1;
                v[65_534] = 2;
                v
            },
        ];
        for body in &cases {
            assert_eq!(&roundtrip(body, true), body);
            assert_eq!(&roundtrip(body, false), body);
        }
    }

    #[test]
    fn repetitive_pages_shrink_and_random_pages_stay_raw() {
        let repetitive = b"value-123 value-124 value-125 "
            .iter()
            .copied()
            .cycle()
            .take(8_192)
            .collect::<Vec<u8>>();
        let blob = encode_page(&repetitive, true);
        assert_eq!(blob[0], TAG_COMPRESSED);
        assert!(
            blob.len() < repetitive.len() / 4,
            "repetitive text compresses well: {} -> {}",
            repetitive.len(),
            blob.len()
        );

        let random = noise(8_192, 0xDEAD_BEEF);
        let blob = encode_page(&random, true);
        assert_eq!(blob[0], TAG_RAW, "incompressible pages stored raw");
        assert_eq!(blob.len(), random.len() + 1, "raw costs one flag byte");

        let off = encode_page(&repetitive, false);
        assert_eq!(off[0], TAG_RAW, "compression off stores raw");
    }

    /// The whole spill pipeline in miniature: encode tuples into a page body,
    /// frame it compressed, decode back — NULLs, NaN bit patterns, huge
    /// strings and every variant survive exactly.
    #[test]
    fn encoded_tuple_pages_roundtrip_through_compression() {
        let rows: Vec<Tuple> = (0..200)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i),
                    Value::Utf8(format!("customer-name-{}", i % 13)),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Float64(i as f64 / 3.0)
                    },
                    Value::Float64(f64::NAN),
                    Value::Bool(i % 2 == 0),
                    Value::Date(20_000 + i),
                ])
            })
            .chain(std::iter::once(Tuple::new(vec![Value::Utf8(
                "z".repeat(100_000),
            )])))
            .collect();
        let mut body = Vec::new();
        for row in &rows {
            encode_tuple(&mut body, row);
        }
        let blob = encode_page(&body, true);
        assert!(blob.len() < body.len(), "tuple pages compress");
        let back = decode_page(&blob).unwrap();
        let decoded = decode_rows(&back, rows.len()).unwrap();
        assert_eq!(format!("{rows:?}"), format!("{decoded:?}"));
    }

    #[test]
    fn corrupt_blobs_error_instead_of_producing_garbage() {
        assert!(decode_page(&[]).is_err(), "empty blob");
        assert!(decode_page(&[9, 1, 2]).is_err(), "unknown tag");
        assert!(
            decode_page(&[TAG_COMPRESSED, 1, 0]).is_err(),
            "short header"
        );

        let body = b"abcdabcdabcdabcdabcdabcdabcdabcd".repeat(64);
        let blob = encode_page(&body, true);
        assert_eq!(blob[0], TAG_COMPRESSED);
        // Truncating the stream must error (several cut points).
        for cut in [6, blob.len() / 2, blob.len() - 1] {
            assert!(decode_page(&blob[..cut]).is_err(), "cut={cut}");
        }
        // Lying about the logical length must error.
        let mut lied = blob.clone();
        lied[1..5].copy_from_slice(&((body.len() as u32) + 1).to_le_bytes());
        assert!(decode_page(&lied).is_err(), "wrong logical length");
        // A zero offset must error.
        assert!(
            decompress_block(&[0x04, 0, 0], 8).is_err(),
            "offset 0 is invalid"
        );
        // An absurd header length errors up front, before any allocation.
        assert!(
            decompress_block(&[0x10, 7], usize::MAX).is_err(),
            "implausible logical length rejected without reserving memory"
        );
        // An offset pointing before the start of the output must error.
        assert!(
            decompress_block(&[0x14, b'a', 9, 0], 6).is_err(),
            "offset past the produced output"
        );
    }

    /// FNV-1a, so the pinned digests depend on nothing but the bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The bodies the compressor is pinned over: noise, zeros, row-codec and
    /// column-codec pages of a fact-shaped table, the shortest inputs and the
    /// lengths around the 16-bit offset limit.
    fn pinned_corpus() -> Vec<(String, Vec<u8>)> {
        let rows: Vec<Tuple> = (0..1_400i64)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i / 4),
                    Value::Int64((i * 7_919) % 20_000),
                    Value::Utf8(format!("Brand#{}", i % 25)),
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Float64(100.0 + (i as f64) * 0.37)
                    },
                    Value::Date(9_000 + i % 365),
                ])
            })
            .collect();
        let mut row_page = Vec::new();
        for row in &rows {
            encode_tuple(&mut row_page, row);
        }
        let mut column_page = Vec::new();
        crate::colcodec::encode_rows(&mut column_page, 5, &rows);
        let mut corpus = vec![
            ("row page".to_string(), row_page),
            ("column page".to_string(), column_page),
        ];
        for len in [0usize, 1, 2, 3, 4, 5, 65_535, 65_536, 65_537] {
            corpus.push((format!("noise {len}"), noise(len, 0x5EED + len as u64)));
            corpus.push((format!("zeros {len}"), vec![0u8; len]));
            // A 251-byte period: matches sit at one fixed offset and overlap
            // their own output whenever they are longer than that.
            corpus.push((
                format!("period {len}"),
                (0..len).map(|i| (i % 251) as u8).collect(),
            ));
        }
        corpus
    }

    /// `compress_block_with` output, recorded on the commit before the
    /// word-at-a-time match extension: stored-byte counters and `CostModel`
    /// charges of every row-layout run follow from these bytes.
    const PINNED_STREAMS: [(usize, u64); 29] = [
        (24209, 0x0f6c3d252edaa3b6), // row page
        (16930, 0xa4ed5f73b005fcd8), // column page
        (0, 0xcbf29ce484222325),     // noise 0
        (0, 0xcbf29ce484222325),     // zeros 0
        (0, 0xcbf29ce484222325),     // period 0
        (2, 0x0869b507b51afed4),     // noise 1
        (2, 0x0868e807b519a27d),     // zeros 1
        (2, 0x0868e807b519a27d),     // period 1
        (3, 0xc5937d17d04ce6aa),     // noise 2
        (3, 0xc41db217cf0f5a57),     // zeros 2
        (3, 0xc41db117cf0f58a4),     // period 2
        (4, 0x09e968fb36ee91bb),     // noise 3
        (4, 0x4d7ab5fa3a724ae5),     // zeros 3
        (4, 0x4d7751fa3a6f6b22),     // period 3
        (5, 0xf5f7a511d2a975d1),     // noise 4
        (5, 0x10751a787906820f),     // zeros 4
        (5, 0x07d26a7874244803),     // period 4
        (6, 0x1993b9f24db742ee),     // noise 5
        (4, 0x4cccd1050126f9dc),     // zeros 5
        (6, 0x383934dc38c2c775),     // period 5
        (65793, 0x0c34cd33f921f8ec), // noise 65535
        (261, 0xa69d35b377c3c638),   // zeros 65535
        (511, 0xc1a0efeb57b2c7b3),   // period 65535
        (65793, 0x309a911fc1c151e0), // noise 65536
        (261, 0xa69d3cb377c3d21d),   // zeros 65536
        (511, 0xc1a0eeeb57b2c600),   // period 65536
        (65795, 0x410d65be0cc49c1c), // noise 65537
        (261, 0xa69d3bb377c3d06a),   // zeros 65537
        (511, 0xc1a0f1eb57b2cb19),   // period 65537
    ];

    #[test]
    fn compressor_output_is_pinned_and_roundtrips() {
        let mut scratch = LzScratch::new();
        let corpus = pinned_corpus();
        let actual: Vec<(usize, u64)> = corpus
            .iter()
            .map(|(name, body)| {
                let stream = compress_block_with(&mut scratch, body);
                assert_eq!(
                    &decompress_block(&stream, body.len()).expect(name),
                    body,
                    "{name}"
                );
                (stream.len(), fnv1a(&stream))
            })
            .collect();
        assert!(
            actual == PINNED_STREAMS,
            "compressor output changed; computed:\n{}",
            corpus
                .iter()
                .zip(&actual)
                .map(|((name, _), (len, digest))| format!(
                    "        ({len}, {digest:#018x}), // {name}\n"
                ))
                .collect::<String>()
        );
    }

    fn body_strategy() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            // Short arbitrary bodies.
            prop::collection::vec(any::<u8>(), 0..300),
            // Repetitive bodies (compressible).
            (any::<u8>(), 1usize..2_000).prop_map(|(b, n)| vec![b; n]),
            // Small alphabet: long fuzzy repeats.
            prop::collection::vec(0u8..4, 0..4_000),
            // Incompressible noise with a random seed.
            (any::<u64>(), 0usize..4_000).prop_map(|(seed, n)| noise(n, seed | 1)),
        ]
    }

    /// Streams carry no checksum, so a damaged one may still decompress — but
    /// only to exactly `logical_len` bytes, and never by way of a panic.
    fn assert_err_or_exact(stream: &[u8], logical_len: usize, what: &str) {
        if let Ok(body) = decompress_block(stream, logical_len) {
            assert_eq!(body.len(), logical_len, "{what}");
        }
    }

    #[test]
    fn every_bit_flip_and_truncation_errors_or_decompresses_to_length() {
        // Literal runs, short and long matches, and matches that overlap
        // their own output at offsets 1, 3 and 251.
        let mut body = noise(300, 7);
        body.extend(std::iter::repeat_n(0u8, 500));
        body.extend((0..400).map(|i| (i % 3) as u8));
        body.extend((0..900).map(|i| (i % 251) as u8));
        body.extend(noise(40, 9));
        let stream = compress_block(&body);
        assert!(stream.len() < body.len() / 2, "the body compresses");
        assert_eq!(decompress_block(&stream, body.len()).unwrap(), body);
        for cut in 0..stream.len() {
            assert_err_or_exact(&stream[..cut], body.len(), &format!("cut {cut}"));
            assert!(
                decompress_block(&stream[..cut], body.len()).is_err(),
                "a shorter stream cannot produce the whole body: cut={cut}"
            );
        }
        let mut damaged = stream.clone();
        for bit in 0..stream.len() * 8 {
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert_err_or_exact(&damaged, body.len(), &format!("bit {bit}"));
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Arbitrary bytes with an arbitrary claimed length never panic and
        /// never produce a body of another length.
        fn arbitrary_streams_never_panic(
            stream in prop::collection::vec(any::<u8>(), 0..300),
            logical_len in 0usize..5_000,
        ) {
            assert_err_or_exact(&stream, logical_len, "arbitrary stream");
        }

        /// encode_page → decode_page is the identity for arbitrary bodies,
        /// with compression on and off.
        fn page_roundtrip_is_exact(body in body_strategy(), compress in any::<bool>()) {
            let blob = encode_page(&body, compress);
            let back = decode_page(&blob).unwrap();
            prop_assert_eq!(back.as_ref(), &body[..]);
        }

        /// The raw block codec roundtrips too (even when the compressed form
        /// is larger than the input and encode_page would discard it).
        fn block_roundtrip_is_exact(body in body_strategy()) {
            let stream = compress_block(&body);
            let back = decompress_block(&stream, body.len()).unwrap();
            prop_assert_eq!(back, body);
        }
    }
}
