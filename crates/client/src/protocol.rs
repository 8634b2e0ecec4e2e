//! The IFDB wire protocol: checksummed frames carrying a binary message
//! encoding.
//!
//! The protocol mirrors the paper's deployment, where PHP/Python application
//! processes connect to the IFDB server over a socket: a connection starts
//! with a [`Request::Hello`] handshake naming the principal, its credentials
//! and the initial process label, and then carries
//! Prepare/Execute/Fetch/Begin/Commit/Abort and label-management messages.
//! Statements travel as *templates* — the statement shape with every value
//! position replaced by a parameter slot (see [`encode_template`]) — so a
//! connection prepares each shape once, whatever its values, and the hot
//! path sends a 4-byte statement id plus parameters. Statement ids belong
//! to the connection that prepared them (see [`PROTOCOL_VERSION`]).
//!
//! Framing follows the write-ahead log's discipline (`wal.rs`): each frame
//! is `len u32 | checksum u32 | payload`, with an FNV-1a checksum over the
//! payload, so a torn or bit-flipped frame is rejected rather than decoded
//! by luck. Everything is hand-rolled little-endian — no external
//! serialization dependencies. A datum travels in the storage engine's one
//! datum codec ([`Datum::encode`]), the bytes its pages and log hold.

use std::io::{Read, Write};

use ifdb::{
    AggFunc, Aggregate, Delete, IfdbError, IfdbResult, Insert, Join, JoinKind, Order, Predicate,
    Select, Statement, Update,
};
use ifdb_difc::{DifcError, Label, TagId};
use ifdb_storage::{Datum, StorageError};

/// Protocol version carried by the handshake; bumped on incompatible change.
///
/// Version 2 (the pipelined protocol): every frame payload begins with a
/// 4-byte little-endian **request id**. Clients may send many request frames
/// per flush; the server executes each connection's requests in FIFO order
/// (so the §7.2 label piggybacking on responses stays coherent) and echoes
/// the id on the matching response frame, which lets a client correlate a
/// whole batch of responses read back-to-back.
///
/// Version 3 (the high-availability protocol): `ReplPoll` carries the
/// replica's applied-seq and its known primary generation, `ReplBatch`
/// answers with the primary's generation, and the
/// `Promote`/`Fence`/`HaStatus` messages (with the `FENCED` and
/// `REPLICATION_LAG` error codes) drive replica promotion, old-primary
/// fencing, and client write failover.
///
/// Version 4 (the QoS protocol): statements can be refused with
/// `BUDGET_EXCEEDED` (per-statement execution budget) or `QUOTA_EXCEEDED`
/// (per-principal admission quota); `Reconfigure` hot-swaps the server's
/// QoS limits without a restart, and `Stats` returns the unified
/// [`MetricsSnapshot`] tree.
///
/// Version 5: `Stats` carries the platform secret and is refused without
/// the right one, because its counters move with every principal's scans.
///
/// Version 6: statement ids are connection-local. A connection's `Prepare`s
/// are answered with ids dense from 1, in the order it sent them, and an id
/// means nothing on any other connection: the id a session gets carries
/// nothing of what other connections prepared, and neither does a refusal
/// of its `Prepare` (a connection holds at most a fixed number of
/// templates).
pub const PROTOCOL_VERSION: u32 = 6;

/// Upper bound on a frame payload. Frames beyond this are a protocol error,
/// not an allocation request.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Errors produced by the protocol layer itself (before any statement runs).
/// They surface as [`IfdbError::Remote`] with [`code::PROTOCOL`].
fn protocol_error(detail: impl Into<String>) -> IfdbError {
    IfdbError::Remote {
        code: code::PROTOCOL as u16,
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------
// Frames: request-id-tagged payloads (the pipelined protocol, version 2 on)
// ---------------------------------------------------------------------

/// FNV-1a over the payload: the write-ahead log's frame checksum
/// ([`ifdb_storage::wal::frame_checksum`]).
pub fn frame_checksum(payload: &[u8]) -> u32 {
    ifdb_storage::wal::frame_checksum(payload)
}

/// Appends one v2 frame — `len | crc | req_id | message` with the checksum
/// covering `req_id | message` — to `buf` without touching any socket. This
/// is the encode half the reactor and the client's `pipeline()` share: both
/// assemble many frames into one buffer and flush once.
pub fn frame_into(buf: &mut Vec<u8>, req_id: u32, message: &[u8]) -> IfdbResult<()> {
    let payload_len = message.len() + 4;
    if payload_len > MAX_FRAME_BYTES {
        return Err(protocol_error("frame too large"));
    }
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
    let crc_at = buf.len();
    buf.extend_from_slice(&[0u8; 4]); // checksum backpatched below
    let body_at = buf.len();
    buf.extend_from_slice(&req_id.to_le_bytes());
    buf.extend_from_slice(message);
    let crc = frame_checksum(&buf[body_at..]);
    buf[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Writes one v2 frame and flushes — the single-request convenience over
/// [`frame_into`].
pub fn write_frame_id(w: &mut impl Write, req_id: u32, message: &[u8]) -> IfdbResult<()> {
    let mut buf = Vec::with_capacity(message.len() + 12);
    frame_into(&mut buf, req_id, message)?;
    w.write_all(&buf)
        .map_err(|e| protocol_error(format!("write: {e}")))?;
    w.flush()
        .map_err(|e| protocol_error(format!("flush: {e}")))?;
    Ok(())
}

/// Splits a verified v2 frame payload into `(req_id, message)`.
pub fn split_frame_id(payload: &[u8]) -> IfdbResult<(u32, &[u8])> {
    if payload.len() < 4 {
        return Err(protocol_error("frame too short for request id"));
    }
    let id = u32::from_le_bytes(payload[0..4].try_into().unwrap());
    Ok((id, &payload[4..]))
}

/// Reads one v2 frame, verifying its length bound and checksum, and returns
/// `(req_id, message)`; `None` on a clean EOF at a frame boundary (the peer
/// closed the connection).
pub fn read_frame_id(r: &mut impl Read) -> IfdbResult<Option<(u32, Vec<u8>)>> {
    let mut header = [0u8; 8];
    match r.read_exact(&mut header[..1]) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(protocol_error(format!("read: {e}"))),
    }
    r.read_exact(&mut header[1..])
        .map_err(|e| protocol_error(format!("read: {e}")))?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_FRAME_BYTES {
        return Err(protocol_error(format!("frame length {len} exceeds limit")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| protocol_error(format!("read: {e}")))?;
    if frame_checksum(&payload) != crc {
        return Err(protocol_error("frame checksum mismatch"));
    }
    let (id, _) = split_frame_id(&payload)?;
    payload.drain(..4);
    Ok(Some((id, payload)))
}

/// Incremental frame assembly over a byte buffer — the reactor's read path.
///
/// Given the unconsumed bytes of a connection's inbound buffer, returns:
/// * `Ok(Some((consumed, req_id, message)))` — one complete, checksum-valid
///   frame occupying the first `consumed` bytes;
/// * `Ok(None)` — no complete frame yet (caller keeps accumulating);
/// * `Err(_)` — the stream is corrupt (oversized frame, bad checksum, short
///   payload) and the connection must be dropped: framing cannot resync.
pub fn try_take_frame(buf: &[u8]) -> IfdbResult<Option<(usize, u32, Vec<u8>)>> {
    if buf.len() < 8 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(protocol_error(format!("frame length {len} exceeds limit")));
    }
    let total = 8 + len;
    if buf.len() < total {
        return Ok(None);
    }
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let payload = &buf[8..total];
    if frame_checksum(payload) != crc {
        return Err(protocol_error("frame checksum mismatch"));
    }
    let (id, message) = split_frame_id(payload)?;
    Ok(Some((total, id, message.to_vec())))
}

// ---------------------------------------------------------------------
// Primitive codecs
// ---------------------------------------------------------------------

/// A cursor over an incoming payload; every read is bounds-checked.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Returns `true` once every byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> IfdbResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|e| *e <= self.buf.len())
            .ok_or_else(|| protocol_error("truncated message"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> IfdbResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> IfdbResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> IfdbResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> IfdbResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> IfdbResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an f64 (bit pattern).
    pub fn f64(&mut self) -> IfdbResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> IfdbResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| protocol_error("invalid utf-8"))
    }

    /// Reads a tag-id array (label encoding).
    pub fn tags(&mut self) -> IfdbResult<Vec<u64>> {
        let n = self.u32()? as usize;
        if n > self.buf.len() / 8 + 1 {
            return Err(protocol_error("tag array length exceeds payload"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    fn label(&mut self) -> IfdbResult<Label> {
        Ok(Label::from_array(&self.tags()?))
    }

    /// Reads a datum, in the storage engine's datum codec
    /// ([`Datum::decode`]).
    pub fn datum(&mut self) -> IfdbResult<Datum> {
        let (datum, end) = Datum::decode(self.buf, self.pos)
            .map_err(|e| protocol_error(format!("bad datum: {e}")))?;
        self.pos = end;
        Ok(datum)
    }

    fn datums(&mut self) -> IfdbResult<Vec<Datum>> {
        let n = self.u32()? as usize;
        if n > self.buf.len() + 1 {
            return Err(protocol_error("datum array length exceeds payload"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.datum()?);
        }
        Ok(out)
    }
}

/// Encoder counterpart of [`Reader`].
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f64 (bit pattern).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a tag-id array.
    pub fn tags(&mut self, tags: &[u64]) {
        self.u32(tags.len() as u32);
        for t in tags {
            self.u64(*t);
        }
    }

    fn label(&mut self, l: &Label) {
        self.tags(&l.to_array());
    }

    /// Appends a datum, in the storage engine's datum codec
    /// ([`Datum::encode`]).
    pub fn datum(&mut self, d: &Datum) {
        d.encode(&mut self.buf);
    }

    fn datums(&mut self, ds: &[Datum]) {
        self.u32(ds.len() as u32);
        for d in ds {
            self.datum(d);
        }
    }
}

// ---------------------------------------------------------------------
// Statement templates
// ---------------------------------------------------------------------

/// Value-position encoder that *auto-parameterizes*: every concrete datum
/// met in a value position is appended to `params` and encoded as a
/// parameter slot, so two statements with the same shape but different
/// values produce byte-identical templates. Labels embedded in statements
/// (exact-label selection, DECLASSIFYING clauses) stay inline — they are
/// policy structure, not data values.
struct TemplateWriter<'p> {
    w: Writer,
    params: &'p mut Vec<Datum>,
}

impl TemplateWriter<'_> {
    fn arg(&mut self, d: &Datum) {
        self.w.u16(self.params.len() as u16);
        self.params.push(d.clone());
    }

    fn pred(&mut self, p: &Predicate) {
        let w = &mut self.w;
        match p {
            Predicate::True => w.u8(0),
            Predicate::Eq(c, v) => {
                w.u8(1);
                w.str(c);
                self.arg(v);
            }
            Predicate::Ne(c, v) => {
                w.u8(2);
                w.str(c);
                self.arg(v);
            }
            Predicate::Lt(c, v) => {
                w.u8(3);
                w.str(c);
                self.arg(v);
            }
            Predicate::Le(c, v) => {
                w.u8(4);
                w.str(c);
                self.arg(v);
            }
            Predicate::Gt(c, v) => {
                w.u8(5);
                w.str(c);
                self.arg(v);
            }
            Predicate::Ge(c, v) => {
                w.u8(6);
                w.str(c);
                self.arg(v);
            }
            Predicate::IsNull(c) => {
                w.u8(7);
                w.str(c);
            }
            Predicate::IsNotNull(c) => {
                w.u8(8);
                w.str(c);
            }
            Predicate::And(a, b) => {
                w.u8(9);
                self.pred(a);
                self.pred(b);
            }
            Predicate::Or(a, b) => {
                w.u8(10);
                self.pred(a);
                self.pred(b);
            }
            Predicate::Not(a) => {
                w.u8(11);
                self.pred(a);
            }
            Predicate::LabelContains(t) => {
                w.u8(12);
                w.u64(t.0);
            }
            Predicate::LabelEquals(l) => {
                w.u8(13);
                w.label(l);
            }
        }
    }
}

/// Encodes a statement as a parameterized template, returning the template
/// bytes and the extracted parameters (in slot order). The template is a
/// pure function of the statement's *shape*: re-encoding the same statement
/// with different values yields identical bytes and different params.
pub fn encode_template(stmt: &Statement) -> (Vec<u8>, Vec<Datum>) {
    let mut params = Vec::new();
    let mut t = TemplateWriter {
        w: Writer::new(),
        params: &mut params,
    };
    match stmt {
        Statement::Select(q) => {
            t.w.u8(1);
            t.w.str(&q.from);
            match &q.columns {
                None => t.w.u8(0),
                Some(cols) => {
                    t.w.u8(1);
                    t.w.u32(cols.len() as u32);
                    for c in cols {
                        t.w.str(c);
                    }
                }
            }
            t.pred(&q.predicate);
            match &q.order_by {
                None => t.w.u8(0),
                Some((c, o)) => {
                    t.w.u8(1);
                    t.w.str(c);
                    t.w.u8(matches!(o, Order::Desc) as u8);
                }
            }
            match q.limit {
                None => t.w.u8(0),
                Some(n) => {
                    t.w.u8(1);
                    t.w.u64(n as u64);
                }
            }
            match &q.exact_label {
                None => t.w.u8(0),
                Some(l) => {
                    t.w.u8(1);
                    t.w.label(l);
                }
            }
        }
        Statement::Join(j) => {
            t.w.u8(2);
            t.w.str(&j.left);
            t.w.str(&j.right);
            t.w.str(&j.on.0);
            t.w.str(&j.on.1);
            t.w.u8(matches!(j.kind, JoinKind::LeftOuter) as u8);
            t.pred(&j.predicate);
        }
        Statement::Aggregate(a) => {
            t.w.u8(3);
            t.w.str(&a.from);
            t.pred(&a.predicate);
            match &a.group_by {
                None => t.w.u8(0),
                Some(c) => {
                    t.w.u8(1);
                    t.w.str(c);
                }
            }
            t.w.u32(a.aggregates.len() as u32);
            for (f, c) in &a.aggregates {
                t.w.u8(match f {
                    AggFunc::Count => 0,
                    AggFunc::Sum => 1,
                    AggFunc::Avg => 2,
                    AggFunc::Min => 3,
                    AggFunc::Max => 4,
                });
                t.w.str(c);
            }
        }
        Statement::Insert(i) => {
            t.w.u8(4);
            t.w.str(&i.table);
            t.w.u32(i.values.len() as u32);
            for v in &i.values {
                t.arg(v);
            }
            t.w.tags(&i.declassifying.iter().map(|t| t.0).collect::<Vec<_>>());
        }
        Statement::Update(u) => {
            t.w.u8(5);
            t.w.str(&u.table);
            t.pred(&u.predicate);
            t.w.u32(u.set.len() as u32);
            for (c, v) in &u.set {
                t.w.str(c);
                t.arg(v);
            }
        }
        Statement::Delete(d) => {
            t.w.u8(6);
            t.w.str(&d.table);
            t.pred(&d.predicate);
        }
    }
    (t.w.finish(), params)
}

fn decode_arg(r: &mut Reader<'_>, params: &[Datum]) -> IfdbResult<Datum> {
    let slot = r.u16()? as usize;
    params
        .get(slot)
        .cloned()
        .ok_or_else(|| protocol_error(format!("parameter slot {slot} out of range")))
}

fn decode_pred(r: &mut Reader<'_>, params: &[Datum], depth: u32) -> IfdbResult<Predicate> {
    if depth > 64 {
        return Err(protocol_error("predicate nesting too deep"));
    }
    Ok(match r.u8()? {
        0 => Predicate::True,
        1 => Predicate::Eq(r.str()?, decode_arg(r, params)?),
        2 => Predicate::Ne(r.str()?, decode_arg(r, params)?),
        3 => Predicate::Lt(r.str()?, decode_arg(r, params)?),
        4 => Predicate::Le(r.str()?, decode_arg(r, params)?),
        5 => Predicate::Gt(r.str()?, decode_arg(r, params)?),
        6 => Predicate::Ge(r.str()?, decode_arg(r, params)?),
        7 => Predicate::IsNull(r.str()?),
        8 => Predicate::IsNotNull(r.str()?),
        9 => {
            let a = decode_pred(r, params, depth + 1)?;
            let b = decode_pred(r, params, depth + 1)?;
            a.and(b)
        }
        10 => {
            let a = decode_pred(r, params, depth + 1)?;
            let b = decode_pred(r, params, depth + 1)?;
            a.or(b)
        }
        11 => decode_pred(r, params, depth + 1)?.negate(),
        12 => Predicate::LabelContains(TagId(r.u64()?)),
        13 => Predicate::LabelEquals(r.label()?),
        t => return Err(protocol_error(format!("unknown predicate tag {t}"))),
    })
}

/// Decodes a template produced by [`encode_template`], substituting `params`
/// into the parameter slots, yielding a closed statement ready for
/// [`ifdb::Session::execute`](ifdb::SessionApi::execute).
pub fn decode_template(template: &[u8], params: &[Datum]) -> IfdbResult<Statement> {
    let r = &mut Reader::new(template);
    let stmt = match r.u8()? {
        1 => {
            let from = r.str()?;
            let columns = match r.u8()? {
                0 => None,
                _ => {
                    let n = r.u32()? as usize;
                    let mut cols = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        cols.push(r.str()?);
                    }
                    Some(cols)
                }
            };
            let predicate = decode_pred(r, params, 0)?;
            let order_by = match r.u8()? {
                0 => None,
                _ => {
                    let c = r.str()?;
                    let desc = r.u8()? != 0;
                    Some((c, if desc { Order::Desc } else { Order::Asc }))
                }
            };
            let limit = match r.u8()? {
                0 => None,
                _ => Some(r.u64()? as usize),
            };
            let exact_label = match r.u8()? {
                0 => None,
                _ => Some(r.label()?),
            };
            Statement::Select(Select {
                from,
                columns,
                predicate,
                order_by,
                limit,
                exact_label,
            })
        }
        2 => {
            let left = r.str()?;
            let right = r.str()?;
            let on = (r.str()?, r.str()?);
            let kind = if r.u8()? != 0 {
                JoinKind::LeftOuter
            } else {
                JoinKind::Inner
            };
            let predicate = decode_pred(r, params, 0)?;
            Statement::Join(Join {
                left,
                right,
                on,
                kind,
                predicate,
            })
        }
        3 => {
            let from = r.str()?;
            let predicate = decode_pred(r, params, 0)?;
            let group_by = match r.u8()? {
                0 => None,
                _ => Some(r.str()?),
            };
            let n = r.u32()? as usize;
            let mut aggregates = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                let f = match r.u8()? {
                    0 => AggFunc::Count,
                    1 => AggFunc::Sum,
                    2 => AggFunc::Avg,
                    3 => AggFunc::Min,
                    4 => AggFunc::Max,
                    t => return Err(protocol_error(format!("unknown aggregate func {t}"))),
                };
                aggregates.push((f, r.str()?));
            }
            Statement::Aggregate(Aggregate {
                from,
                predicate,
                group_by,
                aggregates,
            })
        }
        4 => {
            let table = r.str()?;
            let n = r.u32()? as usize;
            let mut values = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                values.push(decode_arg(r, params)?);
            }
            let declassifying = r.tags()?.into_iter().map(TagId).collect();
            Statement::Insert(Insert {
                table,
                values,
                declassifying,
            })
        }
        5 => {
            let table = r.str()?;
            let predicate = decode_pred(r, params, 0)?;
            let n = r.u32()? as usize;
            let mut set = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let c = r.str()?;
                set.push((c, decode_arg(r, params)?));
            }
            Statement::Update(Update {
                table,
                predicate,
                set,
            })
        }
        6 => {
            let table = r.str()?;
            let predicate = decode_pred(r, params, 0)?;
            Statement::Delete(Delete { table, predicate })
        }
        t => return Err(protocol_error(format!("unknown statement tag {t}"))),
    };
    if !r.at_end() {
        return Err(protocol_error("trailing bytes after statement"));
    }
    Ok(stmt)
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Connection handshake: who the process is, its credentials, its
    /// initial label, and (for trusted platform connections) the shared
    /// platform secret that permits password-less [`Request::Login`].
    Hello {
        /// Protocol version ([`PROTOCOL_VERSION`]).
        version: u32,
        /// The user to authenticate as; empty for anonymous.
        user: String,
        /// The user's password (ignored for anonymous).
        password: String,
        /// Platform secret for trusted connections (web/app servers).
        platform_secret: Option<String>,
        /// Initial process label (tag ids).
        label: Vec<u64>,
    },
    /// Re-authenticates a pooled connection for a new request: aborts any
    /// open transaction and resets the label. `password: None` is the
    /// trusted switch (session-cookie path) and requires the handshake to
    /// have presented the platform secret.
    Login {
        /// The user to act as; empty for anonymous.
        user: String,
        /// Password, or `None` for a trusted switch.
        password: Option<String>,
    },
    /// Registers a statement template, returning its id.
    Prepare {
        /// Template bytes from [`encode_template`].
        template: Vec<u8>,
    },
    /// Executes a prepared statement with the given parameters.
    Execute {
        /// Statement id from [`Response::Prepared`].
        stmt: u32,
        /// Parameters, in slot order.
        params: Vec<Datum>,
        /// Maximum rows in the inline first batch (0 = server default).
        fetch: u32,
    },
    /// Fetches the next batch from an open cursor.
    Fetch {
        /// Cursor id from [`Response::Rows`].
        cursor: u32,
        /// Maximum rows in the batch (0 = server default).
        max: u32,
    },
    /// Discards an open cursor.
    CloseCursor {
        /// The cursor to discard.
        cursor: u32,
    },
    /// Starts an explicit transaction.
    Begin,
    /// Commits the current transaction.
    Commit,
    /// Aborts the current transaction.
    Abort,
    /// Adds a tag to the process label.
    AddSecrecy {
        /// The tag id.
        tag: u64,
    },
    /// Raises the process label to its union with the given tags.
    RaiseLabel {
        /// Tag ids.
        tags: Vec<u64>,
    },
    /// Removes a tag from the process label (requires authority).
    Declassify {
        /// The tag id.
        tag: u64,
    },
    /// Removes every listed tag (requires authority for each).
    DeclassifyAll {
        /// Tag ids.
        tags: Vec<u64>,
    },
    /// Delegates authority for a tag to another principal.
    Delegate {
        /// The grantee principal id.
        grantee: u64,
        /// The tag id.
        tag: u64,
    },
    /// Calls a stored procedure (runs inside the DBMS, as in the paper).
    CallProcedure {
        /// Procedure name.
        name: String,
        /// Arguments.
        args: Vec<Datum>,
    },
    /// Clean connection shutdown.
    Goodbye,
    /// One poll of the replication stream: a replica (fully trusted — it
    /// receives every tuple regardless of label) asks for the log records
    /// after its applied-seq watermark. Requires no session; authenticated
    /// by the shared replication secret on every poll.
    ReplPoll {
        /// The replication secret configured on the primary.
        secret: String,
        /// First sequence number wanted (`applied_seq + 1`; 0 or 1 for a
        /// fresh replica).
        from_seq: u64,
        /// Maximum records in the reply (0 = server default).
        max: u32,
        /// The replica's durably applied sequence number (may trail
        /// `from_seq - 1` when prefetches are in flight). Feeds the
        /// primary's semi-synchronous commit gate.
        applied_seq: u64,
        /// The highest primary generation this replica has learned (0 when
        /// it has not synced yet). A primary seeing a *higher* generation
        /// than its own has been superseded and fences itself.
        generation: u64,
    },
    /// Asks for the server's current watermark: on a primary, the last
    /// write-ahead-log sequence number; on a replica, its applied-seq.
    /// Used by topology-aware clients for read-your-writes waits.
    Watermark,
    /// Phase one of two-phase commit: prepare the session's open
    /// transaction under the coordinator-assigned global id. An `Ok` reply
    /// is this participant's durable yes vote; an `Error` is a no vote (the
    /// transaction is aborted server-side, e.g. a commit-label-rule
    /// violation).
    TxnPrepare {
        /// The coordinator-assigned global transaction id.
        gid: u64,
    },
    /// Phase two of two-phase commit: the coordinator's verdict for a
    /// transaction previously prepared under `gid`. Idempotent — deciding
    /// an unknown gid still replies `Ok`, so a coordinator retrying after a
    /// crash converges.
    TxnDecide {
        /// The global transaction id.
        gid: u64,
        /// `true` to commit, `false` to abort.
        commit: bool,
    },
    /// Asks for the global ids of transactions prepared on this node and
    /// still awaiting a decision (in-doubt, e.g. recovered after a crash).
    /// Answered with [`Response::InDoubt`].
    TxnRecover,
    /// Asks what this node knows about a global transaction — answered with
    /// [`Response::TxnOutcome`]. Coordinator recovery commits an in-doubt
    /// gid iff some participant reports it committed, else presumes abort.
    TxnOutcome {
        /// The global transaction id.
        gid: u64,
    },
    /// Promotes this (replica) server to primary: its database leaves
    /// read-only mode, the log re-anchors under a bumped generation, and
    /// subsequent `ReplPoll`s from it fence the old primary. Requires the
    /// replication secret; answered with [`Response::HaStatus`] describing
    /// the node after promotion.
    Promote {
        /// The replication secret configured on the cluster.
        secret: String,
    },
    /// Tells a (possibly zombie) primary it has been superseded by
    /// `generation`: it must refuse writes and replication polls with
    /// [`code::FENCED`] from here on. Requires the replication secret;
    /// idempotent.
    Fence {
        /// The replication secret configured on the cluster.
        secret: String,
        /// The superseding generation.
        generation: u64,
    },
    /// Asks for the node's high-availability status — answered with
    /// [`Response::HaStatus`]. Requires no session, so a failover router
    /// can probe nodes it has no credentials on yet.
    HaStatus,
    /// Hot-swaps the server's QoS configuration — per-statement execution
    /// budgets and per-principal admission quotas — without a restart and
    /// without dropping connections. Requires the platform secret (the same
    /// trust anchor as acting-for logins); answered with [`Response::Ok`].
    /// Statements already executing finish under the budget they were armed
    /// with; the next statement on every connection sees the new limits.
    Reconfigure {
        /// The platform secret configured on the server.
        secret: String,
        /// The new QoS configuration, encoded with `QosConfig::to_wire`.
        config: Vec<u64>,
    },
    /// Asks for the unified metrics tree — answered with
    /// [`Response::Stats`]. Requires no session but the platform secret, as
    /// [`Request::Reconfigure`] does: the counters move with other
    /// principals' statements (pages a scan skipped or decoded, rows its
    /// bounds rejected, audit events), so they are for the operator only.
    Stats {
        /// The platform secret configured on the server.
        secret: String,
    },
}

/// The unified observability tree ([`Request::Stats`]): named counter
/// groups — `engine`, `server`, `qos`, `audit` — replacing the three
/// disjoint per-crate stats surfaces. The schema is open: groups and
/// counters are carried by name so a newer server can add counters without
/// a protocol bump.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// The counter groups.
    pub groups: Vec<MetricsGroup>,
}

/// One named group of counters in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsGroup {
    /// Group name (e.g. `"engine"`, `"qos"`).
    pub name: String,
    /// `(counter name, value)` pairs.
    pub counters: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// Starts (or extends) a named group; returns its index.
    pub fn group_mut(&mut self, name: &str) -> &mut MetricsGroup {
        if let Some(i) = self.groups.iter().position(|g| g.name == name) {
            return &mut self.groups[i];
        }
        self.groups.push(MetricsGroup {
            name: name.to_string(),
            counters: Vec::new(),
        });
        self.groups.last_mut().expect("just pushed")
    }

    /// Looks up `group.counter`, e.g. `get("engine", "commits")`.
    pub fn get(&self, group: &str, counter: &str) -> Option<u64> {
        self.groups
            .iter()
            .find(|g| g.name == group)?
            .counters
            .iter()
            .find(|(n, _)| n == counter)
            .map(|(_, v)| *v)
    }
}

impl MetricsGroup {
    /// Appends a counter.
    pub fn push(&mut self, name: &str, value: u64) -> &mut Self {
        self.counters.push((name.to_string(), value));
        self
    }
}

/// One result row on the wire: the tuple's label and its values.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRow {
    /// The tuple's label (tag ids).
    pub label: Vec<u64>,
    /// The values, in column order.
    pub values: Vec<Datum>,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful handshake.
    HelloOk {
        /// The authenticated principal's id.
        principal: u64,
        /// The granted initial label.
        label: Vec<u64>,
    },
    /// Generic success. Carries the process label after the operation —
    /// commit can run deferred triggers whose contamination the client's
    /// label mirror must follow (the paper's Section 7.2 label
    /// piggybacking).
    Ok {
        /// The process label after the operation.
        label: Vec<u64>,
        /// The server's watermark after the operation (primary: last WAL
        /// seq; replica: applied seq). After a commit, this bounds the
        /// position a replica must reach before a read-your-writes read.
        seq: u64,
    },
    /// An error; see [`encode_error`]/[`decode_error`].
    Error {
        /// Wire error code ([`code`]).
        code: u8,
        /// Human-readable detail.
        detail: String,
        /// First label payload (meaning depends on `code`).
        label0: Vec<u64>,
        /// Second label payload.
        label1: Vec<u64>,
        /// Auxiliary integer payload (e.g. a tag id).
        aux: u64,
        /// The process label after the failed operation, when a session
        /// exists. A failed statement can still have contaminated the
        /// process (a trigger raised the label before the statement
        /// aborted — label state is process state, not transaction state),
        /// so the client mirror must follow error paths too. `None` for
        /// errors raised outside a session (handshake, protocol).
        session_label: Option<Vec<u64>>,
    },
    /// A statement was prepared.
    Prepared {
        /// The statement id to pass to [`Request::Execute`].
        id: u32,
    },
    /// Query results: the first batch inline, plus a cursor when more rows
    /// remain.
    Rows {
        /// Output column names.
        columns: Vec<String>,
        /// The first batch of rows.
        rows: Vec<WireRow>,
        /// Cursor for the remainder; 0 when this batch completes the result.
        cursor: u32,
        /// The process label after the statement (triggers may contaminate).
        label: Vec<u64>,
    },
    /// DML result.
    Affected {
        /// Affected row count.
        n: u64,
        /// The process label after the statement (triggers may contaminate).
        label: Vec<u64>,
        /// The server's watermark after the statement (see
        /// [`Response::Ok::seq`]).
        seq: u64,
    },
    /// The process label after a label operation.
    LabelIs {
        /// Tag ids.
        tags: Vec<u64>,
    },
    /// A fetched batch.
    Batch {
        /// The rows.
        rows: Vec<WireRow>,
        /// Whether the cursor is exhausted (and closed).
        done: bool,
    },
    /// Acknowledges [`Request::Goodbye`].
    Bye,
    /// Result of [`Request::CallProcedure`]: the rows plus the process label
    /// after the call — a stored authority closure can leave the process
    /// with contamination it could not declassify, and the client's local
    /// label mirror must follow.
    ProcResult {
        /// The process label after the call.
        label: Vec<u64>,
        /// Output column names.
        columns: Vec<String>,
        /// The rows.
        rows: Vec<WireRow>,
    },
    /// One batch of the replication stream ([`Request::ReplPoll`]).
    ReplBatch {
        /// Identifies the primary's log incarnation; when it changes, the
        /// replica's watermark is meaningless and it must re-bootstrap.
        epoch: u64,
        /// The serving node's primary generation. A replica that has seen a
        /// higher generation (a promoted successor) must refuse this batch:
        /// it comes from a fenced predecessor.
        generation: u64,
        /// `true` when the replica must discard its state before applying:
        /// this batch starts the checkpoint-anchored snapshot.
        reset: bool,
        /// Sequence number of `records[0]`.
        first_seq: u64,
        /// The primary's current last (durable) sequence number; the
        /// replica's lag is `end_seq - applied_seq`.
        end_seq: u64,
        /// Log records encoded with
        /// [`ifdb_storage::Wal::encode_record`](ifdb_storage::wal::Wal::encode_record).
        records: Vec<Vec<u8>>,
    },
    /// The server's current watermark ([`Request::Watermark`]).
    Watermark {
        /// Primary: last WAL sequence number; replica: applied-seq.
        seq: u64,
        /// The log epoch the watermark belongs to (0 when a replica has not
        /// connected to its primary yet).
        epoch: u64,
    },
    /// Global ids of transactions prepared on this node and awaiting a
    /// coordinator decision ([`Request::TxnRecover`]).
    InDoubt {
        /// In-doubt global transaction ids, ascending.
        gids: Vec<u64>,
    },
    /// What this node knows about a global transaction
    /// ([`Request::TxnOutcome`]).
    TxnOutcome {
        /// `None`: unknown or still in-doubt here; `Some(true)`: committed
        /// here; `Some(false)`: aborted here.
        committed: Option<bool>,
    },
    /// The node's high-availability status ([`Request::HaStatus`],
    /// [`Request::Promote`]).
    HaStatus {
        /// The node's current role.
        role: HaRole,
        /// The node's primary generation (for a replica: the highest
        /// generation learned from its stream; 0 before first sync).
        generation: u64,
        /// The node's log epoch (for a replica: its primary's epoch as
        /// learned from the stream; 0 before first sync).
        epoch: u64,
        /// The node's watermark (primary: last WAL seq; replica: applied
        /// seq).
        seq: u64,
    },
    /// The unified metrics tree ([`Request::Stats`]).
    Stats {
        /// The counter groups.
        snapshot: MetricsSnapshot,
    },
}

/// A node's role in the replication topology, as reported by
/// [`Response::HaStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaRole {
    /// Accepting writes and serving the replication stream.
    Primary,
    /// Read-only, applying a primary's stream.
    Replica,
    /// A former primary superseded by a higher generation: refuses writes
    /// and replication polls with [`code::FENCED`].
    Fenced,
}

impl HaRole {
    fn to_wire(self) -> u8 {
        match self {
            HaRole::Primary => 0,
            HaRole::Replica => 1,
            HaRole::Fenced => 2,
        }
    }

    fn from_wire(b: u8) -> IfdbResult<Self> {
        match b {
            0 => Ok(HaRole::Primary),
            1 => Ok(HaRole::Replica),
            2 => Ok(HaRole::Fenced),
            _ => Err(protocol_error(format!("unknown HA role {b}"))),
        }
    }
}

impl Request {
    /// Encodes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Hello {
                version,
                user,
                password,
                platform_secret,
                label,
            } => {
                w.u8(1);
                w.u32(*version);
                w.str(user);
                w.str(password);
                match platform_secret {
                    None => w.u8(0),
                    Some(s) => {
                        w.u8(1);
                        w.str(s);
                    }
                }
                w.tags(label);
            }
            Request::Login { user, password } => {
                w.u8(2);
                w.str(user);
                match password {
                    None => w.u8(0),
                    Some(p) => {
                        w.u8(1);
                        w.str(p);
                    }
                }
            }
            Request::Prepare { template } => {
                w.u8(3);
                w.u32(template.len() as u32);
                w.buf.extend_from_slice(template);
            }
            Request::Execute {
                stmt,
                params,
                fetch,
            } => {
                w.u8(4);
                w.u32(*stmt);
                w.datums(params);
                w.u32(*fetch);
            }
            Request::Fetch { cursor, max } => {
                w.u8(5);
                w.u32(*cursor);
                w.u32(*max);
            }
            Request::CloseCursor { cursor } => {
                w.u8(6);
                w.u32(*cursor);
            }
            Request::Begin => w.u8(7),
            Request::Commit => w.u8(8),
            Request::Abort => w.u8(9),
            Request::AddSecrecy { tag } => {
                w.u8(10);
                w.u64(*tag);
            }
            Request::RaiseLabel { tags } => {
                w.u8(11);
                w.tags(tags);
            }
            Request::Declassify { tag } => {
                w.u8(12);
                w.u64(*tag);
            }
            Request::DeclassifyAll { tags } => {
                w.u8(13);
                w.tags(tags);
            }
            Request::Delegate { grantee, tag } => {
                w.u8(14);
                w.u64(*grantee);
                w.u64(*tag);
            }
            Request::CallProcedure { name, args } => {
                w.u8(15);
                w.str(name);
                w.datums(args);
            }
            Request::Goodbye => w.u8(16),
            Request::ReplPoll {
                secret,
                from_seq,
                max,
                applied_seq,
                generation,
            } => {
                w.u8(17);
                w.str(secret);
                w.u64(*from_seq);
                w.u32(*max);
                w.u64(*applied_seq);
                w.u64(*generation);
            }
            Request::Watermark => w.u8(18),
            Request::TxnPrepare { gid } => {
                w.u8(19);
                w.u64(*gid);
            }
            Request::TxnDecide { gid, commit } => {
                w.u8(20);
                w.u64(*gid);
                w.u8(*commit as u8);
            }
            Request::TxnRecover => w.u8(21),
            Request::TxnOutcome { gid } => {
                w.u8(22);
                w.u64(*gid);
            }
            Request::Promote { secret } => {
                w.u8(23);
                w.str(secret);
            }
            Request::Fence { secret, generation } => {
                w.u8(24);
                w.str(secret);
                w.u64(*generation);
            }
            Request::HaStatus => w.u8(25),
            Request::Reconfigure { secret, config } => {
                w.u8(26);
                w.str(secret);
                w.tags(config);
            }
            Request::Stats { secret } => {
                w.u8(27);
                w.str(secret);
            }
        }
        w.finish()
    }

    /// Decodes a request from a frame payload.
    pub fn decode(payload: &[u8]) -> IfdbResult<Request> {
        let r = &mut Reader::new(payload);
        let req = match r.u8()? {
            1 => {
                let version = r.u32()?;
                let user = r.str()?;
                let password = r.str()?;
                let platform_secret = match r.u8()? {
                    0 => None,
                    _ => Some(r.str()?),
                };
                let label = r.tags()?;
                Request::Hello {
                    version,
                    user,
                    password,
                    platform_secret,
                    label,
                }
            }
            2 => {
                let user = r.str()?;
                let password = match r.u8()? {
                    0 => None,
                    _ => Some(r.str()?),
                };
                Request::Login { user, password }
            }
            3 => {
                let len = r.u32()? as usize;
                Request::Prepare {
                    template: r.take(len)?.to_vec(),
                }
            }
            4 => Request::Execute {
                stmt: r.u32()?,
                params: r.datums()?,
                fetch: r.u32()?,
            },
            5 => Request::Fetch {
                cursor: r.u32()?,
                max: r.u32()?,
            },
            6 => Request::CloseCursor { cursor: r.u32()? },
            7 => Request::Begin,
            8 => Request::Commit,
            9 => Request::Abort,
            10 => Request::AddSecrecy { tag: r.u64()? },
            11 => Request::RaiseLabel { tags: r.tags()? },
            12 => Request::Declassify { tag: r.u64()? },
            13 => Request::DeclassifyAll { tags: r.tags()? },
            14 => Request::Delegate {
                grantee: r.u64()?,
                tag: r.u64()?,
            },
            15 => Request::CallProcedure {
                name: r.str()?,
                args: r.datums()?,
            },
            16 => Request::Goodbye,
            17 => Request::ReplPoll {
                secret: r.str()?,
                from_seq: r.u64()?,
                max: r.u32()?,
                applied_seq: r.u64()?,
                generation: r.u64()?,
            },
            18 => Request::Watermark,
            19 => Request::TxnPrepare { gid: r.u64()? },
            20 => Request::TxnDecide {
                gid: r.u64()?,
                commit: r.u8()? != 0,
            },
            21 => Request::TxnRecover,
            22 => Request::TxnOutcome { gid: r.u64()? },
            23 => Request::Promote { secret: r.str()? },
            24 => Request::Fence {
                secret: r.str()?,
                generation: r.u64()?,
            },
            25 => Request::HaStatus,
            26 => Request::Reconfigure {
                secret: r.str()?,
                config: r.tags()?,
            },
            27 => Request::Stats { secret: r.str()? },
            t => return Err(protocol_error(format!("unknown request tag {t}"))),
        };
        if !r.at_end() {
            return Err(protocol_error("trailing bytes after request"));
        }
        Ok(req)
    }
}

fn encode_rows(w: &mut Writer, rows: &[WireRow]) {
    w.u32(rows.len() as u32);
    for row in rows {
        w.tags(&row.label);
        w.datums(&row.values);
    }
}

fn decode_rows(r: &mut Reader<'_>) -> IfdbResult<Vec<WireRow>> {
    let n = r.u32()? as usize;
    let mut rows = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        rows.push(WireRow {
            label: r.tags()?,
            values: r.datums()?,
        });
    }
    Ok(rows)
}

impl Response {
    /// Encodes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_to(&mut w);
        w.finish()
    }

    /// Encodes into a caller-owned scratch buffer (cleared first). The
    /// server's reactor keeps one scratch buffer per connection so the hot
    /// response path reuses its allocation frame after frame instead of
    /// allocating per response.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut w = Writer {
            buf: std::mem::take(buf),
        };
        w.buf.clear();
        self.encode_to(&mut w);
        *buf = w.finish();
    }

    fn encode_to(&self, w: &mut Writer) {
        match self {
            Response::HelloOk { principal, label } => {
                w.u8(128);
                w.u64(*principal);
                w.tags(label);
            }
            Response::Ok { label, seq } => {
                w.u8(129);
                w.tags(label);
                w.u64(*seq);
            }
            Response::Error {
                code,
                detail,
                label0,
                label1,
                aux,
                session_label,
            } => {
                w.u8(130);
                w.u8(*code);
                w.str(detail);
                w.tags(label0);
                w.tags(label1);
                w.u64(*aux);
                match session_label {
                    None => w.u8(0),
                    Some(tags) => {
                        w.u8(1);
                        w.tags(tags);
                    }
                }
            }
            Response::Prepared { id } => {
                w.u8(131);
                w.u32(*id);
            }
            Response::Rows {
                columns,
                rows,
                cursor,
                label,
            } => {
                w.u8(132);
                w.u32(columns.len() as u32);
                for c in columns {
                    w.str(c);
                }
                encode_rows(w, rows);
                w.u32(*cursor);
                w.tags(label);
            }
            Response::Affected { n, label, seq } => {
                w.u8(133);
                w.u64(*n);
                w.tags(label);
                w.u64(*seq);
            }
            Response::LabelIs { tags } => {
                w.u8(134);
                w.tags(tags);
            }
            Response::Batch { rows, done } => {
                w.u8(135);
                encode_rows(w, rows);
                w.u8(*done as u8);
            }
            Response::Bye => w.u8(136),
            Response::ProcResult {
                label,
                columns,
                rows,
            } => {
                w.u8(137);
                w.tags(label);
                w.u32(columns.len() as u32);
                for c in columns {
                    w.str(c);
                }
                encode_rows(w, rows);
            }
            Response::ReplBatch {
                epoch,
                generation,
                reset,
                first_seq,
                end_seq,
                records,
            } => {
                w.u8(138);
                w.u64(*epoch);
                w.u64(*generation);
                w.u8(*reset as u8);
                w.u64(*first_seq);
                w.u64(*end_seq);
                w.u32(records.len() as u32);
                for r in records {
                    w.u32(r.len() as u32);
                    w.buf.extend_from_slice(r);
                }
            }
            Response::Watermark { seq, epoch } => {
                w.u8(139);
                w.u64(*seq);
                w.u64(*epoch);
            }
            Response::InDoubt { gids } => {
                w.u8(140);
                w.tags(gids);
            }
            Response::TxnOutcome { committed } => {
                w.u8(141);
                w.u8(match committed {
                    None => 0,
                    Some(true) => 1,
                    Some(false) => 2,
                });
            }
            Response::HaStatus {
                role,
                generation,
                epoch,
                seq,
            } => {
                w.u8(142);
                w.u8(role.to_wire());
                w.u64(*generation);
                w.u64(*epoch);
                w.u64(*seq);
            }
            Response::Stats { snapshot } => {
                w.u8(143);
                w.u32(snapshot.groups.len() as u32);
                for g in &snapshot.groups {
                    w.str(&g.name);
                    w.u32(g.counters.len() as u32);
                    for (name, value) in &g.counters {
                        w.str(name);
                        w.u64(*value);
                    }
                }
            }
        }
    }

    /// Decodes a response from a frame payload.
    pub fn decode(payload: &[u8]) -> IfdbResult<Response> {
        let r = &mut Reader::new(payload);
        let resp = match r.u8()? {
            128 => Response::HelloOk {
                principal: r.u64()?,
                label: r.tags()?,
            },
            129 => Response::Ok {
                label: r.tags()?,
                seq: r.u64()?,
            },
            130 => Response::Error {
                code: r.u8()?,
                detail: r.str()?,
                label0: r.tags()?,
                label1: r.tags()?,
                aux: r.u64()?,
                session_label: match r.u8()? {
                    0 => None,
                    _ => Some(r.tags()?),
                },
            },
            131 => Response::Prepared { id: r.u32()? },
            132 => {
                let n = r.u32()? as usize;
                let mut columns = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    columns.push(r.str()?);
                }
                let rows = decode_rows(r)?;
                let cursor = r.u32()?;
                let label = r.tags()?;
                Response::Rows {
                    columns,
                    rows,
                    cursor,
                    label,
                }
            }
            133 => Response::Affected {
                n: r.u64()?,
                label: r.tags()?,
                seq: r.u64()?,
            },
            134 => Response::LabelIs { tags: r.tags()? },
            135 => Response::Batch {
                rows: decode_rows(r)?,
                done: r.u8()? != 0,
            },
            136 => Response::Bye,
            137 => {
                let label = r.tags()?;
                let n = r.u32()? as usize;
                let mut columns = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    columns.push(r.str()?);
                }
                Response::ProcResult {
                    label,
                    columns,
                    rows: decode_rows(r)?,
                }
            }
            138 => {
                let epoch = r.u64()?;
                let generation = r.u64()?;
                let reset = r.u8()? != 0;
                let first_seq = r.u64()?;
                let end_seq = r.u64()?;
                let n = r.u32()? as usize;
                if n > r.buf.len() + 1 {
                    return Err(protocol_error("record count exceeds payload"));
                }
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    let len = r.u32()? as usize;
                    records.push(r.take(len)?.to_vec());
                }
                Response::ReplBatch {
                    epoch,
                    generation,
                    reset,
                    first_seq,
                    end_seq,
                    records,
                }
            }
            139 => Response::Watermark {
                seq: r.u64()?,
                epoch: r.u64()?,
            },
            140 => Response::InDoubt { gids: r.tags()? },
            141 => Response::TxnOutcome {
                committed: match r.u8()? {
                    0 => None,
                    1 => Some(true),
                    _ => Some(false),
                },
            },
            142 => Response::HaStatus {
                role: HaRole::from_wire(r.u8()?)?,
                generation: r.u64()?,
                epoch: r.u64()?,
                seq: r.u64()?,
            },
            143 => {
                let ngroups = r.u32()? as usize;
                let mut groups = Vec::with_capacity(ngroups.min(256));
                for _ in 0..ngroups {
                    let name = r.str()?;
                    let ncounters = r.u32()? as usize;
                    let mut counters = Vec::with_capacity(ncounters.min(1024));
                    for _ in 0..ncounters {
                        counters.push((r.str()?, r.u64()?));
                    }
                    groups.push(MetricsGroup { name, counters });
                }
                Response::Stats {
                    snapshot: MetricsSnapshot { groups },
                }
            }
            t => return Err(protocol_error(format!("unknown response tag {t}"))),
        };
        if !r.at_end() {
            return Err(protocol_error("trailing bytes after response"));
        }
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Error mapping
// ---------------------------------------------------------------------

/// Wire error codes. Codes with structural payloads round-trip to their
/// exact [`IfdbError`] variant; the rest decode to [`IfdbError::Remote`].
pub mod code {
    /// Catch-all for errors without a structural mapping.
    pub const REMOTE: u8 = 1;
    /// Snapshot-isolation write conflict (drivers classify these as
    /// rollbacks, not failures).
    pub const WRITE_CONFLICT: u8 = 2;
    /// Unique-constraint violation (detail = constraint name).
    pub const UNIQUE: u8 = 3;
    /// Foreign-key violation (detail = constraint name).
    pub const FOREIGN_KEY: u8 = 4;
    /// RESTRICT delete violation (detail = constraint name).
    pub const RESTRICT: u8 = 5;
    /// Unknown table (detail = name).
    pub const UNKNOWN_TABLE: u8 = 6;
    /// Unknown column (detail = name).
    pub const UNKNOWN_COLUMN: u8 = 7;
    /// Unknown procedure (detail = name).
    pub const UNKNOWN_PROCEDURE: u8 = 8;
    /// Write Rule violation (label0 = tuple, label1 = process).
    pub const WRITE_RULE: u8 = 9;
    /// Commit-label rule violation (label0 = commit, label1 = tuple).
    pub const COMMIT_LABEL: u8 = 10;
    /// Clearance rule violation (aux = tag id).
    pub const CLEARANCE: u8 = 11;
    /// Missing DECLASSIFYING clause (detail = constraint, label0 = missing).
    pub const DECLASSIFYING_REQUIRED: u8 = 12;
    /// Recovered table awaiting DDL re-run (detail = table).
    pub const CONSTRAINTS_PENDING: u8 = 13;
    /// Invalid statement (detail = message).
    pub const INVALID_STATEMENT: u8 = 14;
    /// A DIFC-layer denial whose display is carried in detail, with the
    /// no-authority case's payload in aux/label0 when applicable.
    pub const DIFC: u8 = 15;
    /// The server refused the connection or request due to admission
    /// control (too many connections, or a `Prepare` beyond the templates
    /// one connection may hold).
    pub const SERVER_BUSY: u8 = 16;
    /// The statement exceeded the per-connection statement timeout; the
    /// enclosing transaction was aborted.
    pub const STATEMENT_TIMEOUT: u8 = 17;
    /// A malformed frame or message.
    pub const PROTOCOL: u8 = 18;
    /// The server is shutting down.
    pub const SHUTTING_DOWN: u8 = 19;
    /// The session is read-only (a log-shipping replica); writes must go to
    /// the primary.
    pub const READ_ONLY: u8 = 20;
    /// Replication is not enabled on this server, or the replication secret
    /// did not match.
    pub const REPLICATION_DENIED: u8 = 21;
    /// This node is a fenced ex-primary: a successor of a higher generation
    /// took over (aux = that generation, when known). Writes and
    /// replication polls are refused; clients fail over to the successor.
    pub const FENCED: u8 = 22;
    /// Semi-synchronous replication could not confirm the write on the
    /// replica within the configured window. The commit is durable on the
    /// primary but **indeterminate** under failover: a successor may or may
    /// not carry it.
    pub const REPLICATION_LAG: u8 = 23;
    /// A statement exhausted its execution budget and was killed; the
    /// enclosing implicit transaction was aborted (detail = resource,
    /// aux = limit, label0 = \[used\]). Fail-closed: nothing of the
    /// statement's effect survives.
    pub const BUDGET_EXCEEDED: u8 = 24;
    /// The principal is over its admission quota (in-flight statements or
    /// requests per second); the request was refused, not executed. Safe to
    /// retry after a backoff.
    pub const QUOTA_EXCEEDED: u8 = 25;
}

/// Encodes an [`IfdbError`] as a wire error response.
pub fn encode_error(e: &IfdbError) -> Response {
    let mut code_ = code::REMOTE;
    let mut detail = e.to_string();
    let mut label0 = Vec::new();
    let mut label1 = Vec::new();
    let mut aux = 0u64;
    match e {
        IfdbError::Storage(StorageError::WriteConflict { txn, holder }) => {
            code_ = code::WRITE_CONFLICT;
            aux = *txn;
            detail = format!("write conflict with transaction {holder}");
        }
        IfdbError::UniqueViolation { constraint } => {
            code_ = code::UNIQUE;
            detail = constraint.clone();
        }
        IfdbError::ForeignKeyViolation { constraint } => {
            code_ = code::FOREIGN_KEY;
            detail = constraint.clone();
        }
        IfdbError::RestrictViolation { constraint } => {
            code_ = code::RESTRICT;
            detail = constraint.clone();
        }
        IfdbError::UnknownTable(n) | IfdbError::UnknownView(n) => {
            code_ = code::UNKNOWN_TABLE;
            detail = n.clone();
        }
        IfdbError::UnknownColumn(n) => {
            code_ = code::UNKNOWN_COLUMN;
            detail = n.clone();
        }
        IfdbError::UnknownProcedure(n) => {
            code_ = code::UNKNOWN_PROCEDURE;
            detail = n.clone();
        }
        IfdbError::WriteRuleViolation {
            tuple_label,
            process_label,
        } => {
            code_ = code::WRITE_RULE;
            label0 = tuple_label.to_array();
            label1 = process_label.to_array();
            detail = String::new();
        }
        IfdbError::CommitLabelViolation {
            commit_label,
            tuple_label,
        } => {
            code_ = code::COMMIT_LABEL;
            label0 = commit_label.to_array();
            label1 = tuple_label.to_array();
            detail = String::new();
        }
        IfdbError::ClearanceViolation { tag } => {
            code_ = code::CLEARANCE;
            aux = tag.0;
            detail = String::new();
        }
        IfdbError::DeclassifyingRequired {
            constraint,
            missing,
        } => {
            code_ = code::DECLASSIFYING_REQUIRED;
            detail = constraint.clone();
            label0 = missing.to_array();
        }
        IfdbError::ConstraintsPending { table } => {
            code_ = code::CONSTRAINTS_PENDING;
            detail = table.clone();
        }
        IfdbError::InvalidStatement(s) => {
            code_ = code::INVALID_STATEMENT;
            detail = s.clone();
        }
        IfdbError::Difc(d) => {
            code_ = code::DIFC;
            if let DifcError::NoAuthority { principal, tag } = d {
                aux = tag.0;
                label0 = vec![principal.0];
            }
        }
        IfdbError::ReadOnlyReplica => {
            code_ = code::READ_ONLY;
            detail = String::new();
        }
        IfdbError::BudgetExceeded {
            resource,
            limit,
            used,
        } => {
            code_ = code::BUDGET_EXCEEDED;
            detail = resource.clone();
            aux = *limit;
            label0 = vec![*used];
        }
        IfdbError::QuotaExceeded { detail: d } => {
            code_ = code::QUOTA_EXCEEDED;
            detail = d.clone();
        }
        IfdbError::Remote { code: c, detail: d } => {
            code_ = u8::try_from(*c).unwrap_or(code::REMOTE);
            detail = d.clone();
        }
        _ => {}
    }
    Response::Error {
        code: code_,
        detail,
        label0,
        label1,
        aux,
        session_label: None,
    }
}

/// Decodes a wire error back into the closest [`IfdbError`].
pub fn decode_error(
    code_: u8,
    detail: String,
    label0: Vec<u64>,
    label1: Vec<u64>,
    aux: u64,
) -> IfdbError {
    match code_ {
        code::WRITE_CONFLICT => IfdbError::Storage(StorageError::WriteConflict {
            txn: aux,
            holder: 0,
        }),
        code::UNIQUE => IfdbError::UniqueViolation { constraint: detail },
        code::FOREIGN_KEY => IfdbError::ForeignKeyViolation { constraint: detail },
        code::RESTRICT => IfdbError::RestrictViolation { constraint: detail },
        code::UNKNOWN_TABLE => IfdbError::UnknownTable(detail),
        code::UNKNOWN_COLUMN => IfdbError::UnknownColumn(detail),
        code::UNKNOWN_PROCEDURE => IfdbError::UnknownProcedure(detail),
        code::WRITE_RULE => IfdbError::WriteRuleViolation {
            tuple_label: Label::from_array(&label0),
            process_label: Label::from_array(&label1),
        },
        code::COMMIT_LABEL => IfdbError::CommitLabelViolation {
            commit_label: Label::from_array(&label0),
            tuple_label: Label::from_array(&label1),
        },
        code::CLEARANCE => IfdbError::ClearanceViolation { tag: TagId(aux) },
        code::DECLASSIFYING_REQUIRED => IfdbError::DeclassifyingRequired {
            constraint: detail,
            missing: Label::from_array(&label0),
        },
        code::CONSTRAINTS_PENDING => IfdbError::ConstraintsPending { table: detail },
        code::INVALID_STATEMENT => IfdbError::InvalidStatement(detail),
        code::READ_ONLY => IfdbError::ReadOnlyReplica,
        code::BUDGET_EXCEEDED => IfdbError::BudgetExceeded {
            resource: detail,
            limit: aux,
            used: label0.first().copied().unwrap_or(0),
        },
        code::QUOTA_EXCEEDED => IfdbError::QuotaExceeded { detail },
        code::DIFC if aux != 0 && label0.len() == 1 => IfdbError::Difc(DifcError::NoAuthority {
            principal: ifdb_difc::PrincipalId(label0[0]),
            tag: TagId(aux),
        }),
        c => IfdbError::Remote {
            code: c as u16,
            detail,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifdb::Predicate;

    #[test]
    fn frame_round_trip_and_checksum_rejection() {
        let message = Request::Begin.encode();
        let mut buf = Vec::new();
        write_frame_id(&mut buf, 7, &message).unwrap();
        let got = read_frame_id(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(got, (7, message));

        // Clean EOF at a boundary.
        assert!(read_frame_id(&mut [].as_slice()).unwrap().is_none());

        // Bit flip in the payload → checksum mismatch.
        let mut corrupt = buf.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert!(read_frame_id(&mut corrupt.as_slice()).is_err());

        // Truncated frame → error, not silent None.
        let truncated = &buf[..buf.len() - 1];
        assert!(read_frame_id(&mut &truncated[..]).is_err());

        // Oversized declared length is rejected before allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        assert!(read_frame_id(&mut huge.as_slice()).is_err());
    }

    #[test]
    fn template_is_shape_canonical() {
        let q1 =
            Statement::Select(Select::star("t").filter(Predicate::Eq("id".into(), Datum::Int(1))));
        let q2 = Statement::Select(
            Select::star("t").filter(Predicate::Eq("id".into(), Datum::Int(999))),
        );
        let (t1, p1) = encode_template(&q1);
        let (t2, p2) = encode_template(&q2);
        assert_eq!(t1, t2, "same shape, same template bytes");
        assert_ne!(p1, p2);
        assert_eq!(decode_template(&t1, &p1).unwrap(), q1);
        assert_eq!(decode_template(&t2, &p2).unwrap(), q2);
    }

    #[test]
    fn template_rejects_bad_param_slots() {
        let q =
            Statement::Select(Select::star("t").filter(Predicate::Eq("id".into(), Datum::Int(1))));
        let (t, _) = encode_template(&q);
        assert!(decode_template(&t, &[]).is_err());
    }

    #[test]
    fn qos_messages_round_trip() {
        let reqs = vec![
            Request::Reconfigure {
                secret: "s3cret".into(),
                config: vec![9, 1, 0, 1, 500, 0, 0, 0, 0],
            },
            Request::Stats {
                secret: "s3cret".into(),
            },
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        let mut snapshot = MetricsSnapshot::default();
        snapshot
            .group_mut("engine")
            .push("commits", 42)
            .push("aborts", 1);
        snapshot.group_mut("qos").push("quota_refusals", 7);
        let resp = Response::Stats {
            snapshot: snapshot.clone(),
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        assert_eq!(snapshot.get("engine", "commits"), Some(42));
        assert_eq!(snapshot.get("qos", "quota_refusals"), Some(7));
        assert_eq!(snapshot.get("qos", "missing"), None);
    }

    #[test]
    fn error_codes_round_trip_structurally() {
        let cases = vec![
            IfdbError::Storage(StorageError::WriteConflict { txn: 7, holder: 0 }),
            IfdbError::UniqueViolation {
                constraint: "t_pkey".into(),
            },
            IfdbError::UnknownTable("missing".into()),
            IfdbError::CommitLabelViolation {
                commit_label: Label::from_array(&[1, 2]),
                tuple_label: Label::from_array(&[1]),
            },
            IfdbError::ConstraintsPending { table: "t".into() },
            IfdbError::InvalidStatement("nope".into()),
            IfdbError::BudgetExceeded {
                resource: "rows".into(),
                limit: 1000,
                used: 1024,
            },
            IfdbError::QuotaExceeded {
                detail: "in-flight quota (2) exhausted".into(),
            },
        ];
        for e in cases {
            let Response::Error {
                code,
                detail,
                label0,
                label1,
                aux,
                ..
            } = encode_error(&e)
            else {
                panic!("encode_error must produce Error");
            };
            let back = decode_error(code, detail, label0, label1, aux);
            assert_eq!(back, e, "error must round-trip");
        }
        // Errors without a structural mapping decode to Remote with the
        // display text preserved.
        let e = IfdbError::NotAdministrator;
        let Response::Error {
            code,
            detail,
            label0,
            label1,
            aux,
            ..
        } = encode_error(&e)
        else {
            panic!()
        };
        let back = decode_error(code, detail, label0, label1, aux);
        assert!(matches!(back, IfdbError::Remote { .. }));
        assert!(back.to_string().contains("administrator"));
    }
}
