//! Length-prefixed wire framing and the page-batch row encoding.
//!
//! Every message on a coordinator↔worker connection is one *frame*:
//!
//! ```text
//! frame := tag u8, len u32 (little-endian), payload len×u8
//! ```
//!
//! Row data travels as **page batches**: rows are encoded with the
//! [`rdo_spill::codec`] tuple codec into page-sized bodies, each body passed
//! through [`rdo_spill::compress::encode_page`] (so the wire reuses the spill
//! store's LZ page codec, flag byte included), and each page shipped as one
//! [`Tag::Page`] frame whose payload is the row count followed by the page
//! blob. A [`Tag::End`] frame closes the batch. The codec roundtrip is exact
//! — NULLs, NaN bit patterns and huge strings survive — so rows that cross a
//! socket compare bit-identical to rows that never left the process.
//!
//! The coordinator and the workers frame each page in **both** layouts — the
//! row codec and the [`rdo_spill::colcodec`] column runs, whose same-type
//! value runs the LZ compressor squeezes much harder on tabular data — and
//! ship whichever blob is smaller. Page boundaries are identical either way
//! (decided by the row codec's size accounting), and the layout travels
//! purely in the frame-type byte: [`Tag::ColPage`]/[`Tag::ColBucket`] for
//! columnar bodies, the plain tags for row bodies. Every reader accepts both
//! families, and one batch may mix them.

use rdo_common::{RdoError, Result, Tuple};
use rdo_spill::codec::{decode_rows, encode_tuple};
use rdo_spill::compress::{decode_page, encode_page_with, LzScratch};
use std::io::{Read, Write};

/// Target page-body size for wire page batches. Smaller than a disk page
/// would amortize framing poorly; bigger delays streaming. 32 KiB mirrors a
/// typical exchange buffer.
pub const WIRE_PAGE_SIZE: usize = 32 * 1024;

/// Upper bound on a single frame's payload (corruption guard: a garbled
/// length prefix fails fast instead of attempting a multi-gigabyte read).
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Frame tags of the exchange protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Tag {
    /// Coordinator → worker: run a repartition kernel over the page batch
    /// that follows. Payload: `key_index u32, from u32, num_partitions u32`.
    Repartition = 1,
    /// Coordinator → worker: receive a broadcast replica (page batch
    /// follows). Empty payload.
    Broadcast = 2,
    /// Coordinator → worker: round-trip one partition for result delivery
    /// (page batch follows, worker streams it back). Payload: `partition u32`.
    Gather = 3,
    /// Coordinator → worker: acknowledge and exit the serve loop. Empty
    /// payload.
    Shutdown = 4,
    /// One page of a row batch. Payload: `rows u32, page blob` (the blob is
    /// a [`rdo_spill::compress::encode_page`] output, flag byte included).
    Page = 5,
    /// Closes a page batch. Empty payload.
    End = 6,
    /// Worker → coordinator: repartition tally. Payload:
    /// `moved_rows u64, moved_bytes u64`.
    Tally = 7,
    /// Worker → coordinator: generic acknowledgement. Payload: `value u64`.
    Ack = 8,
    /// One page of one repartition output bucket. Payload:
    /// `to u32, rows u32, page blob`.
    Bucket = 9,
    /// Coordinator → worker: liveness probe during connect. Empty payload.
    Ping = 10,
    /// One page of a row batch in the columnar layout. Payload:
    /// `rows u32, page blob` where the decompressed body is a
    /// [`rdo_spill::colcodec`] batch. Batch framing (End termination)
    /// matches [`Tag::Page`].
    ColPage = 11,
    /// One page of one repartition output bucket in the columnar layout.
    /// Payload: `to u32, rows u32, page blob`. Batch framing matches
    /// [`Tag::Bucket`].
    ColBucket = 12,
}

impl Tag {
    fn from_u8(raw: u8) -> Result<Tag> {
        Ok(match raw {
            1 => Tag::Repartition,
            2 => Tag::Broadcast,
            3 => Tag::Gather,
            4 => Tag::Shutdown,
            5 => Tag::Page,
            6 => Tag::End,
            7 => Tag::Tally,
            8 => Tag::Ack,
            9 => Tag::Bucket,
            10 => Tag::Ping,
            11 => Tag::ColPage,
            12 => Tag::ColBucket,
            other => return Err(corrupt(&format!("unknown frame tag {other}"))),
        })
    }
}

fn corrupt(what: &str) -> RdoError {
    RdoError::Execution(format!("corrupt exchange frame: {what}"))
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, tag: Tag, payload: &[u8]) -> Result<()> {
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(corrupt("payload exceeds MAX_FRAME_LEN"));
    }
    w.write_all(&[tag as u8])?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads one frame. Returns `None` on a clean end-of-stream (the peer closed
/// the connection between frames).
pub fn read_frame(r: &mut impl Read) -> Result<Option<(Tag, Vec<u8>)>> {
    let mut tag_byte = [0u8; 1];
    match r.read_exact(&mut tag_byte) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let tag = Tag::from_u8(tag_byte[0])?;
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(corrupt("frame length exceeds MAX_FRAME_LEN"));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some((tag, payload)))
}

/// Reads one frame, erroring on end-of-stream (for protocol positions where
/// the peer closing the connection is a failure, not a clean finish).
pub fn expect_frame(r: &mut impl Read) -> Result<(Tag, Vec<u8>)> {
    read_frame(r)?.ok_or_else(|| corrupt("peer closed the connection mid-exchange"))
}

/// Little-endian scalar readers for frame payloads.
pub mod payload {
    use super::corrupt;
    use rdo_common::Result;

    /// Reads a `u32` at byte offset `at`.
    pub fn u32_at(bytes: &[u8], at: usize) -> Result<u32> {
        let b = bytes
            .get(at..at + 4)
            .ok_or_else(|| corrupt("truncated u32"))?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64` at byte offset `at`.
    pub fn u64_at(bytes: &[u8], at: usize) -> Result<u64> {
        let b = bytes
            .get(at..at + 8)
            .ok_or_else(|| corrupt("truncated u64"))?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// Encodes `rows` into page frames on `w`, closing the batch with a
/// [`Tag::End`] frame when `tag` is [`Tag::Page`]. [`Tag::Bucket`] batches
/// are *not* End-terminated — several buckets share one response, and the
/// closing [`Tag::Tally`] frame is their terminator.
///
/// With `columnar` set, each page is framed in *both* layouts — the
/// [`rdo_spill::colcodec`] column runs and the row codec — and the smaller
/// blob goes on the wire under the matching frame-type byte
/// ([`Tag::ColPage`]/[`Tag::ColBucket`] for columnar bodies, the plain tags
/// for row bodies), so a columnar sender never ships more bytes than a row
/// sender. Page boundaries are decided by the row codec's size accounting
/// either way, and the receiver dispatches per frame. The engine's own
/// peers always pass `compress` and `columnar` set.
///
/// `header` prefixes every page payload (empty for plain [`Tag::Page`]
/// batches; the repartition response uses it to tag bucket pages with their
/// destination partition). Returns the number of pages written.
pub fn write_page_batch(
    w: &mut impl Write,
    tag: Tag,
    header: &[u8],
    rows: &[Tuple],
    compress: bool,
    columnar: bool,
    scratch: &mut LzScratch,
) -> Result<u64> {
    let col_tag = match tag {
        Tag::Page => Tag::ColPage,
        Tag::Bucket => Tag::ColBucket,
        other => other,
    };
    let mut body: Vec<u8> = Vec::new();
    let mut pages = 0u64;
    let mut flush =
        |body: &mut Vec<u8>, page_rows: &[Tuple], scratch: &mut LzScratch| -> Result<()> {
            let row_blob = encode_page_with(scratch, body, compress);
            let (wire_tag, blob) = if columnar {
                let width = page_rows.first().map_or(0, Tuple::len);
                let mut col_body = Vec::new();
                rdo_spill::colcodec::encode_rows(&mut col_body, width, page_rows);
                let col_blob = encode_page_with(scratch, &col_body, compress);
                if col_blob.len() < row_blob.len() {
                    (col_tag, col_blob)
                } else {
                    (tag, row_blob)
                }
            } else {
                (tag, row_blob)
            };
            let mut payload = Vec::with_capacity(header.len() + 4 + blob.len());
            payload.extend_from_slice(header);
            payload.extend_from_slice(&(page_rows.len() as u32).to_le_bytes());
            payload.extend_from_slice(&blob);
            write_frame(w, wire_tag, &payload)?;
            body.clear();
            Ok(())
        };
    // Page boundaries come from the row codec body size in both layouts, so
    // page counts and per-page row counts are layout-invariant.
    let mut page_start = 0usize;
    for (i, row) in rows.iter().enumerate() {
        encode_tuple(&mut body, row);
        if body.len() >= WIRE_PAGE_SIZE {
            flush(&mut body, &rows[page_start..=i], scratch)?;
            pages += 1;
            page_start = i + 1;
        }
    }
    if page_start < rows.len() {
        flush(&mut body, &rows[page_start..], scratch)?;
        pages += 1;
    }
    if tag == Tag::Page {
        write_frame(w, Tag::End, &[])?;
    }
    Ok(pages)
}

/// Decodes one page payload (`rows u32, page blob` at byte offset `at`) back
/// into tuples, dispatching the body layout on the frame tag it arrived
/// under: [`Tag::Page`]/[`Tag::Bucket`] bodies hold the row codec,
/// [`Tag::ColPage`]/[`Tag::ColBucket`] bodies hold the columnar codec.
pub fn decode_page_payload(tag: Tag, payload: &[u8], at: usize) -> Result<Vec<Tuple>> {
    let rows = payload::u32_at(payload, at)? as usize;
    let blob = payload
        .get(at + 4..)
        .ok_or_else(|| corrupt("truncated page blob"))?;
    let body = decode_page(blob)?;
    match tag {
        Tag::Page | Tag::Bucket => decode_rows(&body, rows),
        Tag::ColPage | Tag::ColBucket => rdo_spill::colcodec::decode_rows(&body, rows),
        other => Err(corrupt(&format!("{other:?} is not a page frame"))),
    }
}

/// Reads a page batch until [`Tag::End`], returning the decoded rows. Both
/// body layouts are accepted, and [`Tag::Page`] and [`Tag::ColPage`] frames
/// may be mixed within one batch — the sender picks per page.
pub fn read_page_batch(r: &mut impl Read) -> Result<Vec<Tuple>> {
    let mut rows = Vec::new();
    loop {
        let (tag, payload) = expect_frame(r)?;
        match tag {
            Tag::Page | Tag::ColPage => rows.extend(decode_page_payload(tag, &payload, 0)?),
            Tag::End => return Ok(rows),
            other => return Err(corrupt(&format!("expected Page/End, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::Value;

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i),
                    Value::Utf8(format!("row-{i}")),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Float64(i as f64 / 3.0)
                    },
                ])
            })
            .collect()
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, Tag::Gather, &7u32.to_le_bytes()).unwrap();
        write_frame(&mut buf, Tag::End, &[]).unwrap();
        let mut cursor = &buf[..];
        let (tag, payload) = expect_frame(&mut cursor).unwrap();
        assert_eq!(tag, Tag::Gather);
        assert_eq!(payload::u32_at(&payload, 0).unwrap(), 7);
        let (tag, payload) = expect_frame(&mut cursor).unwrap();
        assert_eq!(tag, Tag::End);
        assert!(payload.is_empty());
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn page_batches_roundtrip_compressed_and_raw() {
        // Enough rows that the batch spans multiple wire pages, in every
        // (compression, layout) combination.
        let data = rows(20_000);
        for compress in [true, false] {
            for columnar in [true, false] {
                let mut buf = Vec::new();
                let mut scratch = LzScratch::new();
                let pages = write_page_batch(
                    &mut buf,
                    Tag::Page,
                    &[],
                    &data,
                    compress,
                    columnar,
                    &mut scratch,
                )
                .unwrap();
                assert!(
                    pages > 1,
                    "multi-page batch (compress={compress} columnar={columnar})"
                );
                let mut cursor = &buf[..];
                let back = read_page_batch(&mut cursor).unwrap();
                assert_eq!(
                    back, data,
                    "exact roundtrip (compress={compress} columnar={columnar})"
                );
            }
        }
    }

    /// Rows shaped like the evaluation workloads: an id column, a low-
    /// cardinality categorical string and a derived float — the shape the
    /// columnar layout compresses decisively better.
    fn tabular(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i),
                    Value::Utf8(format!("payload-{:06}", i % 50)),
                    Value::Float64(i as f64 / 7.0),
                ])
            })
            .collect()
    }

    /// The `columnar` flag moves only the frame-type byte and the body layout:
    /// page boundaries (page count) are decided by the row codec's size
    /// accounting either way, a columnar sender never ships a longer stream
    /// (each page keeps the smaller of the two framings), and a reader
    /// decodes mixed-layout streams.
    #[test]
    fn columnar_batches_keep_row_page_boundaries_and_interoperate() {
        let data = tabular(20_000);
        let mut scratch = LzScratch::new();
        let mut row_buf = Vec::new();
        let row_pages = write_page_batch(
            &mut row_buf,
            Tag::Page,
            &[],
            &data,
            true,
            false,
            &mut scratch,
        )
        .unwrap();
        let mut col_buf = Vec::new();
        let col_pages = write_page_batch(
            &mut col_buf,
            Tag::Page,
            &[],
            &data,
            true,
            true,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(col_pages, row_pages, "page boundaries are layout-invariant");
        assert_eq!(row_buf[0], Tag::Page as u8);
        assert_eq!(
            col_buf[0],
            Tag::ColPage as u8,
            "tabular pages pick the columnar framing"
        );
        assert!(
            col_buf.len() < row_buf.len(),
            "columnar stream is smaller on tabular data: {} vs {}",
            col_buf.len(),
            row_buf.len()
        );
        let mut cursor = &col_buf[..];
        assert_eq!(read_page_batch(&mut cursor).unwrap(), data);

        // Data where the columnar layout has no edge (unique strings, NULL
        // holes): the per-page pick falls back to row framing, never worse.
        let awkward = rows(200);
        let mut awkward_row = Vec::new();
        write_page_batch(
            &mut awkward_row,
            Tag::Page,
            &[],
            &awkward,
            true,
            false,
            &mut scratch,
        )
        .unwrap();
        let mut awkward_col = Vec::new();
        write_page_batch(
            &mut awkward_col,
            Tag::Page,
            &[],
            &awkward,
            true,
            true,
            &mut scratch,
        )
        .unwrap();
        assert!(
            awkward_col.len() <= awkward_row.len(),
            "the columnar framing never costs wire bytes: {} vs {}",
            awkward_col.len(),
            awkward_row.len()
        );

        // A row-format batch concatenated with a columnar batch decodes as
        // one stream: the reader dispatches per frame, not per connection.
        let mut mixed = Vec::new();
        write_page_batch(
            &mut mixed,
            Tag::Page,
            &[],
            &data[..100],
            true,
            false,
            &mut scratch,
        )
        .unwrap();
        write_page_batch(
            &mut mixed,
            Tag::Page,
            &[],
            &data[100..200],
            true,
            true,
            &mut scratch,
        )
        .unwrap();
        let mut cursor = &mixed[..];
        assert_eq!(read_page_batch(&mut cursor).unwrap(), data[..100]);
        assert_eq!(read_page_batch(&mut cursor).unwrap(), data[100..200]);
    }

    #[test]
    fn empty_batches_are_a_bare_end_frame() {
        for columnar in [false, true] {
            let mut buf = Vec::new();
            let mut scratch = LzScratch::new();
            let pages =
                write_page_batch(&mut buf, Tag::Page, &[], &[], true, columnar, &mut scratch)
                    .unwrap();
            assert_eq!(pages, 0);
            let mut cursor = &buf[..];
            assert!(read_page_batch(&mut cursor).unwrap().is_empty());
        }
    }

    #[test]
    fn garbage_frames_error_out() {
        let mut cursor: &[u8] = &[99u8, 0, 0, 0, 0];
        assert!(read_frame(&mut cursor).is_err(), "unknown tag");
        // A length prefix past the corruption guard.
        let mut huge = vec![Tag::Page as u8];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = &huge[..];
        assert!(read_frame(&mut cursor).is_err(), "oversized length");
        // Truncated mid-payload: an error, not a clean EOF.
        let mut buf = Vec::new();
        write_frame(&mut buf, Tag::Ack, &42u64.to_le_bytes()).unwrap();
        let mut cursor = &buf[..buf.len() - 2];
        assert!(read_frame(&mut cursor).is_err(), "truncated payload");
    }

    /// A page frame whose row count its blob cannot hold errors instead of
    /// reserving memory for the claimed rows (which aborts the process).
    #[test]
    fn corrupt_row_counts_error_out() {
        let mut page = u32::MAX.to_le_bytes().to_vec();
        page.extend_from_slice(&rdo_spill::compress::encode_page(&[0xff; 4], false));
        for tag in [Tag::Page, Tag::ColPage] {
            assert!(decode_page_payload(tag, &page, 0).is_err(), "{tag:?}");
        }
        let mut bucket = 0u32.to_le_bytes().to_vec();
        bucket.extend_from_slice(&page);
        for tag in [Tag::Bucket, Tag::ColBucket] {
            assert!(decode_page_payload(tag, &bucket, 4).is_err(), "{tag:?}");
        }
    }

    /// A page frame whose row count is off by one errors in either body
    /// layout, instead of dropping or inventing a row; a payload under a
    /// non-page tag is refused.
    #[test]
    fn off_by_one_row_counts_error_out() {
        for (columnar, want) in [(false, Tag::Page), (true, Tag::ColPage)] {
            let mut buf = Vec::new();
            let data = tabular(50);
            write_page_batch(
                &mut buf,
                Tag::Page,
                &[],
                &data,
                true,
                columnar,
                &mut LzScratch::new(),
            )
            .unwrap();
            let (tag, mut payload) = expect_frame(&mut &buf[..]).unwrap();
            assert_eq!(tag, want);
            assert_eq!(decode_page_payload(tag, &payload, 0).unwrap(), data);
            assert!(decode_page_payload(Tag::Ack, &payload, 0).is_err());
            for wrong in [49u32, 51] {
                payload[..4].copy_from_slice(&wrong.to_le_bytes());
                assert!(
                    decode_page_payload(tag, &payload, 0).is_err(),
                    "{tag:?} claiming {wrong} of 50 rows"
                );
            }
        }
    }
}
