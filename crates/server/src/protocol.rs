//! The server wire protocol: length-prefixed frames over TCP, in the style of
//! `rdo_net::frame`.
//!
//! Every frame is `tag: u8` + `len: u32 LE` + `len` payload bytes. A query is
//! one [`Tag::Query`] frame carrying SQL text; the response is one
//! [`Tag::ResultSchema`] frame, zero or more [`Tag::ResultRows`] frames (the
//! result streamed in bounded chunks) and one [`Tag::ResultEnd`] frame with
//! the run summary — or a single [`Tag::Error`] frame with a structured
//! error code and message, after which the connection stays usable for the
//! next query. Malformed frames (unknown tag, oversized length, truncated
//! payload) error only the session that sent them.

use rdo_common::{DataType, Field, FieldRef, RdoError, Relation, Result, Schema, Tuple, Value};
use std::io::{Read, Write};

/// Refuses absurd frame lengths before allocating (a garbage length prefix
/// must not look like a 4 GiB allocation request).
pub const MAX_FRAME_LEN: usize = 1 << 26;

/// Rows per [`Tag::ResultRows`] frame, so arbitrarily large results stream in
/// bounded frames.
pub const ROWS_PER_FRAME: usize = 4096;

/// Frame tags of the SQL server protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Tag {
    /// Client → server: SQL text (UTF-8).
    Query = 1,
    /// Server → client: the result schema (field list).
    ResultSchema = 2,
    /// Server → client: one chunk of result rows.
    ResultRows = 3,
    /// Server → client: end of result + run summary.
    ResultEnd = 4,
    /// Server → client: structured error (code + message).
    Error = 5,
}

impl Tag {
    /// Parses a wire tag byte.
    pub fn from_u8(byte: u8) -> Option<Tag> {
        match byte {
            1 => Some(Tag::Query),
            2 => Some(Tag::ResultSchema),
            3 => Some(Tag::ResultRows),
            4 => Some(Tag::ResultEnd),
            5 => Some(Tag::Error),
            _ => None,
        }
    }
}

/// Structured error codes carried by [`Tag::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum ErrorCode {
    /// The SQL text failed to tokenize, parse or bind.
    InvalidSql = 1,
    /// The query waited longer than the admission timeout for memory budget.
    AdmissionTimeout = 2,
    /// The query was admitted but execution failed.
    Execution = 3,
    /// The client sent a malformed frame (the server closes the connection).
    Protocol = 4,
}

impl ErrorCode {
    /// Parses a wire error code.
    pub fn from_u32(code: u32) -> Option<ErrorCode> {
        match code {
            1 => Some(ErrorCode::InvalidSql),
            2 => Some(ErrorCode::AdmissionTimeout),
            3 => Some(ErrorCode::Execution),
            4 => Some(ErrorCode::Protocol),
            _ => None,
        }
    }

    /// Short human label used in rendered error messages.
    pub fn label(&self) -> &'static str {
        match self {
            ErrorCode::InvalidSql => "invalid sql",
            ErrorCode::AdmissionTimeout => "admission timeout",
            ErrorCode::Execution => "execution error",
            ErrorCode::Protocol => "protocol error",
        }
    }
}

/// Writes one frame.
pub fn write_frame(writer: &mut impl Write, tag: Tag, payload: &[u8]) -> Result<()> {
    write_raw_frame(writer, tag as u8, payload)
}

/// Writes one frame with an arbitrary tag byte (robustness tests send tags
/// the server does not know).
pub fn write_raw_frame(writer: &mut impl Write, tag: u8, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(RdoError::Io(format!(
            "frame payload of {} bytes exceeds the {} byte limit",
            payload.len(),
            MAX_FRAME_LEN
        )));
    }
    let mut header = [0u8; 5];
    header[0] = tag;
    header[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    writer
        .write_all(&header)
        .and_then(|_| writer.write_all(payload))
        .and_then(|_| writer.flush())
        .map_err(|e| RdoError::Io(format!("frame write: {e}")))?;
    Ok(())
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// between frames); a close mid-frame, an unknown tag or an oversized length
/// is an error.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<(Tag, Vec<u8>)>> {
    // Read the tag byte on its own: EOF before it is a clean end-of-stream
    // (the peer closed between frames), while EOF anywhere after it means the
    // peer died mid-frame and must be reported as an error.
    let mut tag_byte = [0u8; 1];
    loop {
        match reader.read(&mut tag_byte) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(RdoError::Io(format!("frame header read: {e}"))),
        }
    }
    let mut len_bytes = [0u8; 4];
    reader
        .read_exact(&mut len_bytes)
        .map_err(|e| RdoError::Io(format!("frame header truncated: {e}")))?;
    let tag = Tag::from_u8(tag_byte[0])
        .ok_or_else(|| RdoError::Io(format!("unknown frame tag {}", tag_byte[0])))?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(RdoError::Io(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN} byte limit"
        )));
    }
    let mut payload = vec![0u8; len];
    reader
        .read_exact(&mut payload)
        .map_err(|e| RdoError::Io(format!("frame payload read ({len} bytes): {e}")))?;
    Ok(Some((tag, payload)))
}

// ---- payload encoding ------------------------------------------------------

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Int64(v) => {
            buf.push(0);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        Value::Float64(v) => {
            buf.push(1);
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Value::Utf8(s) => {
            buf.push(2);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            buf.push(3);
            buf.push(*b as u8);
        }
        Value::Date(v) => {
            buf.push(4);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        Value::Null => buf.push(5),
    }
}

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Utf8 => 2,
        DataType::Bool => 3,
        DataType::Date => 4,
        DataType::Null => 5,
    }
}

fn dtype_from_tag(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int64,
        1 => DataType::Float64,
        2 => DataType::Utf8,
        3 => DataType::Bool,
        4 => DataType::Date,
        5 => DataType::Null,
        other => return Err(RdoError::Io(format!("unknown data-type tag {other}"))),
    })
}

/// A bounds-checked little-endian payload reader.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.at + n > self.buf.len() {
            return Err(RdoError::Io(format!(
                "truncated payload: wanted {n} bytes at offset {} of {}",
                self.at,
                self.buf.len()
            )));
        }
        let slice = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u32` count of items of at least `min_bytes` each; a count
    /// the bytes left cannot hold is corrupt and errors before any reserve.
    fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let (n, left) = (self.u32()? as usize, self.buf.len() - self.at);
        match n.saturating_mul(min_bytes) <= left {
            true => Ok(n),
            false => Err(RdoError::Io(format!("count {n} over {left} bytes left"))),
        }
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| RdoError::Io("payload string is not UTF-8".into()))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Int64(self.i64()?),
            1 => Value::Float64(self.f64()?),
            2 => Value::Utf8(self.str()?),
            3 => Value::Bool(self.u8()? != 0),
            4 => Value::Date(self.i64()?),
            5 => Value::Null,
            other => return Err(RdoError::Io(format!("unknown value tag {other}"))),
        })
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

/// Encodes a [`Tag::ResultSchema`] payload.
pub fn encode_schema(schema: &Schema) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(schema.fields().len() as u32).to_le_bytes());
    for field in schema.fields() {
        put_str(&mut buf, &field.name.dataset);
        put_str(&mut buf, &field.name.field);
        buf.push(dtype_tag(field.data_type));
    }
    buf
}

/// Decodes a [`Tag::ResultSchema`] payload.
pub fn decode_schema(payload: &[u8]) -> Result<Schema> {
    let mut cur = Cursor::new(payload);
    let n = cur.count(9)?; // two string lengths and a type tag at least
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let dataset = cur.str()?;
        let name = cur.str()?;
        let dt = dtype_from_tag(cur.u8()?)?;
        fields.push(Field::new(FieldRef::new(dataset, name), dt));
    }
    Ok(Schema::new(fields))
}

/// Encodes one chunk of rows as a [`Tag::ResultRows`] payload.
pub fn encode_rows(rows: &[Tuple]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        for value in row.values() {
            put_value(&mut buf, value);
        }
    }
    buf
}

/// Decodes a [`Tag::ResultRows`] payload into tuples of `width` values each.
pub fn decode_rows(payload: &[u8], width: usize) -> Result<Vec<Tuple>> {
    let mut cur = Cursor::new(payload);
    // A value is at least its tag byte; a zero-width row (no result has
    // one) is charged a byte so a corrupt count cannot loop unbounded.
    let n = cur.count(width.max(1))?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let mut values = Vec::with_capacity(width);
        for _ in 0..width {
            values.push(cur.value()?);
        }
        rows.push(Tuple::new(values));
    }
    if !cur.done() {
        return Err(RdoError::Io("trailing bytes after row payload".into()));
    }
    Ok(rows)
}

/// The run summary carried by a [`Tag::ResultEnd`] frame.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Result row count (matches the streamed rows).
    pub rows: u64,
    /// True if the bound plan came from the server's plan cache (a repeat
    /// query) — repeat runs skip the pilot re-optimization stages.
    pub plan_cache_hit: bool,
    /// Re-optimization points the run spent (0 for cache-hit runs).
    pub reopt_points: u32,
    /// Planner invocations of the run.
    pub planner_invocations: u32,
    /// Worst estimate-vs-actual factor of the run's audit trail.
    pub max_q_error: f64,
    /// Learned-stats catalog hits, totalled over the server's lifetime at the
    /// time the query finished.
    pub learned_hits: u64,
    /// Learned-stats catalog misses, same totalling.
    pub learned_misses: u64,
    /// The executed stage plans, `;`-joined.
    pub plan: String,
    /// The rendered optimizer audit table (estimates vs actuals, decisions).
    pub audit: String,
}

/// Encodes a [`Tag::ResultEnd`] payload.
pub fn encode_summary(summary: &RunSummary) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&summary.rows.to_le_bytes());
    buf.push(summary.plan_cache_hit as u8);
    buf.extend_from_slice(&summary.reopt_points.to_le_bytes());
    buf.extend_from_slice(&summary.planner_invocations.to_le_bytes());
    buf.extend_from_slice(&summary.max_q_error.to_bits().to_le_bytes());
    buf.extend_from_slice(&summary.learned_hits.to_le_bytes());
    buf.extend_from_slice(&summary.learned_misses.to_le_bytes());
    put_str(&mut buf, &summary.plan);
    put_str(&mut buf, &summary.audit);
    buf
}

/// Decodes a [`Tag::ResultEnd`] payload.
pub fn decode_summary(payload: &[u8]) -> Result<RunSummary> {
    let mut cur = Cursor::new(payload);
    Ok(RunSummary {
        rows: cur.u64()?,
        plan_cache_hit: cur.u8()? != 0,
        reopt_points: cur.u32()?,
        planner_invocations: cur.u32()?,
        max_q_error: cur.f64()?,
        learned_hits: cur.u64()?,
        learned_misses: cur.u64()?,
        plan: cur.str()?,
        audit: cur.str()?,
    })
}

/// Encodes a [`Tag::Error`] payload.
pub fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(code as u32).to_le_bytes());
    put_str(&mut buf, message);
    buf
}

/// Decodes a [`Tag::Error`] payload.
pub fn decode_error(payload: &[u8]) -> Result<(ErrorCode, String)> {
    let mut cur = Cursor::new(payload);
    let raw = cur.u32()?;
    let code = ErrorCode::from_u32(raw)
        .ok_or_else(|| RdoError::Io(format!("unknown error code {raw}")))?;
    Ok((code, cur.str()?))
}

// ---- client ----------------------------------------------------------------

/// A query response: the reassembled result relation plus the run summary.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The result, bit-identical to what an in-process run produces.
    pub result: Relation,
    /// The run summary from the [`Tag::ResultEnd`] frame.
    pub summary: RunSummary,
}

/// A blocking client for the SQL server protocol.
#[derive(Debug)]
pub struct Client {
    reader: std::io::BufReader<std::net::TcpStream>,
    writer: std::io::BufWriter<std::net::TcpStream>,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: &str) -> Result<Client> {
        let stream = std::net::TcpStream::connect(addr)
            .map_err(|e| RdoError::Io(format!("connect {addr}: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| RdoError::Io(format!("set_nodelay: {e}")))?;
        let reader = std::io::BufReader::new(
            stream
                .try_clone()
                .map_err(|e| RdoError::Io(format!("stream clone: {e}")))?,
        );
        Ok(Client {
            reader,
            writer: std::io::BufWriter::new(stream),
        })
    }

    /// Sends one SQL query and reassembles the response. A server-side error
    /// frame becomes an `Err` whose message carries the structured code label
    /// (e.g. `admission timeout`); the connection stays usable afterwards.
    pub fn query(&mut self, sql: &str) -> Result<QueryResponse> {
        write_frame(&mut self.writer, Tag::Query, sql.as_bytes())?;
        let schema = match self.expect_frame()? {
            (Tag::ResultSchema, payload) => decode_schema(&payload)?,
            (Tag::Error, payload) => return Err(server_error(&payload)),
            (tag, _) => {
                return Err(RdoError::Io(format!(
                    "protocol violation: expected schema, got {tag:?}"
                )))
            }
        };
        let width = schema.fields().len();
        let mut rows = Vec::new();
        let summary = loop {
            match self.expect_frame()? {
                (Tag::ResultRows, payload) => rows.extend(decode_rows(&payload, width)?),
                (Tag::ResultEnd, payload) => break decode_summary(&payload)?,
                (Tag::Error, payload) => return Err(server_error(&payload)),
                (tag, _) => {
                    return Err(RdoError::Io(format!(
                        "protocol violation: expected rows or end, got {tag:?}"
                    )))
                }
            }
        };
        if rows.len() as u64 != summary.rows {
            return Err(RdoError::Io(format!(
                "row count mismatch: streamed {}, summary says {}",
                rows.len(),
                summary.rows
            )));
        }
        let result =
            Relation::new(schema, rows).map_err(|e| RdoError::Io(format!("reassembly: {e}")))?;
        Ok(QueryResponse { result, summary })
    }

    fn expect_frame(&mut self) -> Result<(Tag, Vec<u8>)> {
        read_frame(&mut self.reader)?
            .ok_or_else(|| RdoError::Io("server closed the connection mid-response".into()))
    }
}

/// Renders a server error frame as a client-side error.
fn server_error(payload: &[u8]) -> RdoError {
    match decode_error(payload) {
        Ok((code, message)) => RdoError::Execution(format!("server [{}]: {message}", code.label())),
        Err(e) => e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_relation() -> Relation {
        let schema = Schema::new(vec![
            Field::new(FieldRef::new("t", "id"), DataType::Int64),
            Field::new(FieldRef::new("t", "name"), DataType::Utf8),
            Field::new(FieldRef::new("t", "score"), DataType::Float64),
        ]);
        let rows = vec![
            Tuple::new(vec![
                Value::Int64(1),
                Value::Utf8("a".into()),
                Value::Float64(1.5),
            ]),
            Tuple::new(vec![Value::Int64(-2), Value::Utf8("β".into()), Value::Null]),
        ];
        Relation::new(schema, rows).unwrap()
    }

    #[test]
    fn schema_and_rows_round_trip() {
        let rel = sample_relation();
        let schema = decode_schema(&encode_schema(rel.schema())).unwrap();
        assert_eq!(&schema, rel.schema());
        let rows = decode_rows(&encode_rows(rel.rows()), schema.fields().len()).unwrap();
        assert_eq!(rows, rel.rows().to_vec());
    }

    #[test]
    fn summary_round_trips() {
        let summary = RunSummary {
            rows: 7,
            plan_cache_hit: true,
            reopt_points: 0,
            planner_invocations: 1,
            max_q_error: 1.25,
            learned_hits: 3,
            learned_misses: 9,
            plan: "pushdown σ(d1) ; (f ⨝H d1)".into(),
            audit: "estimate audit (per stage):".into(),
        };
        assert_eq!(decode_summary(&encode_summary(&summary)).unwrap(), summary);
    }

    #[test]
    fn error_round_trips() {
        let (code, msg) =
            decode_error(&encode_error(ErrorCode::AdmissionTimeout, "waited 50ms")).unwrap();
        assert_eq!(code, ErrorCode::AdmissionTimeout);
        assert_eq!(msg, "waited 50ms");
    }

    #[test]
    fn frames_round_trip_and_reject_garbage() {
        let mut buf = Vec::new();
        write_frame(&mut buf, Tag::Query, b"SELECT 1").unwrap();
        let (tag, payload) = read_frame(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(tag, Tag::Query);
        assert_eq!(payload, b"SELECT 1");
        // Clean EOF between frames.
        assert!(read_frame(&mut &[][..]).unwrap().is_none());
        // A peer dying after 1-4 header bytes is a mid-frame close, not a
        // clean disconnect.
        for sent in 1..5 {
            let fragment = vec![Tag::Query as u8; sent];
            let err = read_frame(&mut &fragment[..]).unwrap_err();
            assert!(err.to_string().contains("truncated"), "{sent} bytes: {err}");
        }
        // Unknown tag.
        let bad = [99u8, 0, 0, 0, 0];
        assert!(read_frame(&mut &bad[..]).is_err());
        // Oversized length prefix refuses before allocating.
        let mut oversized = vec![Tag::Query as u8];
        oversized.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut &oversized[..]).is_err());
        // Truncated payload.
        let mut truncated = Vec::new();
        write_frame(&mut truncated, Tag::Query, b"SELECT 1").unwrap();
        truncated.truncate(truncated.len() - 3);
        assert!(read_frame(&mut &truncated[..]).is_err());
    }

    #[test]
    fn decoders_reject_truncated_payloads() {
        let rel = sample_relation();
        let schema_bytes = encode_schema(rel.schema());
        assert!(decode_schema(&schema_bytes[..schema_bytes.len() - 1]).is_err());
        let rows_bytes = encode_rows(rel.rows());
        assert!(decode_rows(&rows_bytes[..rows_bytes.len() - 1], 3).is_err());
        assert!(decode_rows(&rows_bytes, 2).is_err(), "width mismatch");
    }

    /// A corrupt count errors before anything is reserved for it, instead
    /// of asking the allocator for hundreds of gigabytes (which aborts the
    /// process).
    #[test]
    fn decoders_reject_corrupt_counts() {
        let huge = u32::MAX.to_le_bytes();
        assert!(decode_schema(&huge).is_err());
        assert!(decode_rows(&huge, 3).is_err());
        assert!(decode_rows(&huge, 0).is_err());
    }

    /// The schema's count bound rejects only what the bytes cannot hold:
    /// fields with empty names (nine bytes each) decode right up to it.
    #[test]
    fn schema_counts_at_the_byte_bound_still_decode() {
        let field = Field::new(FieldRef::new("", ""), DataType::Int64);
        let schema = Schema::new(vec![field; 3]);
        let mut bytes = encode_schema(&schema);
        assert_eq!(bytes.len(), 4 + 3 * 9);
        assert_eq!(decode_schema(&bytes).unwrap(), schema);
        bytes[..4].copy_from_slice(&4u32.to_le_bytes());
        assert!(decode_schema(&bytes).is_err(), "one field over the bound");
    }

    /// The rows' count bound rejects only what the bytes cannot hold: rows
    /// of NULLs (one byte per value) decode right up to it.
    #[test]
    fn row_counts_at_the_byte_bound_still_decode() {
        let rows = vec![Tuple::new(vec![Value::Null; 2]); 5];
        let mut bytes = encode_rows(&rows);
        assert_eq!(bytes.len(), 4 + 5 * 2);
        assert_eq!(decode_rows(&bytes, 2).unwrap(), rows);
        bytes[..4].copy_from_slice(&6u32.to_le_bytes());
        assert!(decode_rows(&bytes, 2).is_err(), "one row over the bound");
    }
}
