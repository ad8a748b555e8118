//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! A **frame** is a `u32` little-endian payload length followed by that
//! many payload bytes; the first payload byte is a tag. Requests use tags
//! `0x01..=0x04`, replies `0x81..=0x87` — a stream is either all requests
//! (client→server) or all replies, so the spaces never mix. All integers
//! are little-endian fixed width; there is no varint, no alignment, no
//! compression. The format is deliberately dumb: a client in any language
//! needs ~50 lines to speak it.
//!
//! ```text
//! SUBMIT       0x01  request_id:u64  op_count:u16  ops…
//! STATS        0x02
//! HISTORY      0x03
//! SHUTDOWN     0x04
//!
//! COMMITTED    0x81  request_id:u64  txn:u32
//! ABORTED      0x82  request_id:u64  reason:u8    (1 shutdown, 2 invalid, 3 engine)
//! STATS_REPLY  0x83  len:u32  json-bytes
//! HISTORY_CHUNK 0x84 last:u8  n:u32  (txn:u32 entity:u32 mode:u8 stamp:u64)×n
//!                    [if last: m:u32 (entity:u32 value:i64)×m]
//! ERROR        0x86  code:u8  len:u16  utf8-message
//! SHUTDOWN_ACK 0x87  commits:u64
//! ```
//!
//! `HISTORY` streams the server's history window: the newest whole
//! batches, up to [`HISTORY_WINDOW`](crate::history::HISTORY_WINDOW)
//! accesses, each already checked for conflict-serializability when it
//! executed (see [`crate::history`]). A server whose lifetime fits the
//! window sends its whole history.
//!
//! Transaction programs travel as their raw [`Op`] list (tags 0–7);
//! expressions are a recursive prefix encoding (tags 0–4) with hard depth
//! and node-count limits, so a malicious frame cannot blow the decoder's
//! stack or memory. Every decode failure is a typed [`WireError`] — the
//! server answers with an `ERROR` frame and drops the connection instead
//! of panicking or hanging, and the framing tests drive exactly those
//! paths (oversized, truncated, garbage).
//!
//! [`FrameAssembler`] handles the read side: TCP delivers byte soup, so
//! the assembler buffers partial reads and yields complete frames as the
//! length prefix is satisfied, rejecting oversized declarations before
//! buffering their payload.

use pr_model::{EntityId, Expr, LockMode, Op, Operand, TxnId, Value, VarId};
use pr_par::CommittedAccess;
use std::fmt;

/// Hard cap on a frame's payload length. Requests stay far below this;
/// the server chunks history replies to fit.
pub const MAX_PAYLOAD: usize = 1 << 20;
/// Most operations a submitted program may carry.
pub const MAX_OPS: usize = 4096;
/// Deepest expression nesting the decoder will follow.
pub const MAX_EXPR_DEPTH: usize = 32;
/// Accesses per `HISTORY_CHUNK` frame (keeps chunks ≈ 1/2 `MAX_PAYLOAD`).
pub const HISTORY_CHUNK_ACCESSES: usize = 24_000;

/// Why a frame or payload could not be decoded.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The length prefix declares a payload above [`MAX_PAYLOAD`].
    Oversized {
        /// Declared payload length.
        declared: usize,
    },
    /// The payload ended before the structure it declared.
    Truncated,
    /// An unknown frame, op, or expression tag.
    BadTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// A structural limit was exceeded (op count, expression depth).
    LimitExceeded(&'static str),
    /// Bytes remained after a complete request/reply was decoded.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Oversized { declared } => {
                write!(f, "frame declares {declared} payload bytes (max {MAX_PAYLOAD})")
            }
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::BadTag { tag } => write!(f, "unknown tag 0x{tag:02x}"),
            WireError::LimitExceeded(what) => write!(f, "limit exceeded: {what}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after payload")
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// Why a submission was aborted rather than committed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbortReason {
    /// The server is shutting down; the transaction was never admitted.
    Shutdown,
    /// The program failed validation (unknown entity, malformed 2PL).
    Invalid,
    /// The engine rejected the batch (an internal error; the server is
    /// about to terminate).
    Engine,
}

impl AbortReason {
    fn to_byte(self) -> u8 {
        match self {
            AbortReason::Shutdown => 1,
            AbortReason::Invalid => 2,
            AbortReason::Engine => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            1 => Ok(AbortReason::Shutdown),
            2 => Ok(AbortReason::Invalid),
            3 => Ok(AbortReason::Engine),
            tag => Err(WireError::BadTag { tag }),
        }
    }
}

/// A client→server message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Submit one transaction program for execution. `request_id` is an
    /// opaque correlation token echoed in the reply — connections are
    /// pipelined, so replies may arrive out of submission order.
    Submit {
        /// Client-chosen correlation id.
        request_id: u64,
        /// The program's operations (validated server-side).
        ops: Vec<Op>,
    },
    /// Ask for the server metrics JSON.
    Stats,
    /// Ask for the history window and the current snapshot.
    History,
    /// Ask the server to drain, quiesce, and exit.
    Shutdown,
}

/// A server→client message.
#[derive(Clone, PartialEq, Debug)]
pub enum Reply {
    /// The submission committed as global transaction `txn`.
    Committed {
        /// Echoed correlation id.
        request_id: u64,
        /// The global transaction id the engine assigned.
        txn: TxnId,
    },
    /// The submission was not executed.
    Aborted {
        /// Echoed correlation id.
        request_id: u64,
        /// Why it was not executed.
        reason: AbortReason,
    },
    /// Server metrics as JSON.
    StatsReply {
        /// `pr-server-metrics-v1` JSON object.
        json: String,
    },
    /// One slice of the history window; the final chunk (`last`)
    /// carries the database snapshot.
    HistoryChunk {
        /// Whether this is the final chunk.
        last: bool,
        /// Accesses in this chunk (stamp order across chunks).
        accesses: Vec<CommittedAccess>,
        /// Final `(entity, value)` pairs — only on the last chunk.
        snapshot: Vec<(EntityId, i64)>,
    },
    /// Protocol error; the server closes the connection after sending.
    Error {
        /// Coarse error class (1 = framing, 2 = decode).
        code: u8,
        /// Human-readable description.
        message: String,
    },
    /// Shutdown accepted and completed; the process exits after sending.
    ShutdownAck {
        /// Transactions committed over the server's lifetime.
        commits: u64,
    },
}

// ---------------------------------------------------------------------
// Primitive readers/writers

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked cursor over one payload.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes { extra: self.buf.len() - self.at })
        }
    }
}

// ---------------------------------------------------------------------
// Expression and op codecs

fn encode_const(out: &mut Vec<u8>, v: Value) {
    out.push(0);
    put_i64(out, v.raw());
}

fn encode_var(out: &mut Vec<u8>, v: VarId) {
    out.push(1);
    put_u16(out, v.raw());
}

fn encode_expr(out: &mut Vec<u8>, e: &Expr) {
    let (tag, a, b) = match e {
        Expr::Const(v) => return encode_const(out, *v),
        Expr::Var(v) => return encode_var(out, *v),
        Expr::Add(a, b) => (2, a, b),
        Expr::Sub(a, b) => (3, a, b),
        Expr::Mul(a, b) => (4, a, b),
    };
    out.push(tag);
    encode_operand(out, a);
    encode_operand(out, b);
}

/// An operand is encoded as the expression it stands for: the inline
/// leaf representation is invisible on the wire.
fn encode_operand(out: &mut Vec<u8>, o: &Operand) {
    match o {
        Operand::Const(v) => encode_const(out, *v),
        Operand::Var(v) => encode_var(out, *v),
        Operand::Nested(e) => encode_expr(out, e),
    }
}

fn decode_expr(r: &mut Reader<'_>, depth: usize) -> Result<Expr, WireError> {
    if depth > MAX_EXPR_DEPTH {
        return Err(WireError::LimitExceeded("expression nesting"));
    }
    match r.u8()? {
        0 => Ok(Expr::Const(Value::new(r.i64()?))),
        1 => Ok(Expr::Var(VarId::new(r.u16()?))),
        tag @ 2..=4 => {
            let a = decode_expr(r, depth + 1)?;
            let b = decode_expr(r, depth + 1)?;
            Ok(match tag {
                2 => Expr::add(a, b),
                3 => Expr::sub(a, b),
                _ => Expr::mul(a, b),
            })
        }
        tag => Err(WireError::BadTag { tag }),
    }
}

fn encode_op(out: &mut Vec<u8>, op: &Op) {
    match op {
        Op::LockShared(e) => {
            out.push(0);
            put_u32(out, e.raw());
        }
        Op::LockExclusive(e) => {
            out.push(1);
            put_u32(out, e.raw());
        }
        Op::Unlock(e) => {
            out.push(2);
            put_u32(out, e.raw());
        }
        Op::Read { entity, into } => {
            out.push(3);
            put_u32(out, entity.raw());
            put_u16(out, into.raw());
        }
        Op::Write { entity, expr } => {
            out.push(4);
            put_u32(out, entity.raw());
            encode_expr(out, expr);
        }
        Op::Assign { var, expr } => {
            out.push(5);
            put_u16(out, var.raw());
            encode_expr(out, expr);
        }
        Op::Compute(expr) => {
            out.push(6);
            encode_expr(out, expr);
        }
        Op::Commit => out.push(7),
    }
}

fn decode_op(r: &mut Reader<'_>) -> Result<Op, WireError> {
    match r.u8()? {
        0 => Ok(Op::LockShared(EntityId::new(r.u32()?))),
        1 => Ok(Op::LockExclusive(EntityId::new(r.u32()?))),
        2 => Ok(Op::Unlock(EntityId::new(r.u32()?))),
        3 => Ok(Op::Read { entity: EntityId::new(r.u32()?), into: VarId::new(r.u16()?) }),
        4 => Ok(Op::Write { entity: EntityId::new(r.u32()?), expr: decode_expr(r, 0)? }),
        5 => Ok(Op::Assign { var: VarId::new(r.u16()?), expr: decode_expr(r, 0)? }),
        6 => Ok(Op::Compute(decode_expr(r, 0)?)),
        7 => Ok(Op::Commit),
        tag => Err(WireError::BadTag { tag }),
    }
}

// ---------------------------------------------------------------------
// Request / reply codecs

/// Serialises a request payload (no length prefix — see [`frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Submit { request_id, ops } => {
            out.push(0x01);
            put_u64(&mut out, *request_id);
            put_u16(&mut out, ops.len() as u16);
            for op in ops {
                encode_op(&mut out, op);
            }
        }
        Request::Stats => out.push(0x02),
        Request::History => out.push(0x03),
        Request::Shutdown => out.push(0x04),
    }
    out
}

/// Decodes one request payload, rejecting trailing bytes.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(payload);
    let req = match r.u8()? {
        0x01 => {
            let request_id = r.u64()?;
            let count = r.u16()? as usize;
            if count > MAX_OPS {
                return Err(WireError::LimitExceeded("op count"));
            }
            let mut ops = Vec::with_capacity(count);
            for _ in 0..count {
                ops.push(decode_op(&mut r)?);
            }
            Request::Submit { request_id, ops }
        }
        0x02 => Request::Stats,
        0x03 => Request::History,
        0x04 => Request::Shutdown,
        tag => return Err(WireError::BadTag { tag }),
    };
    r.finish()?;
    Ok(req)
}

/// Serialises a reply payload (no length prefix — see [`frame`]).
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut out = Vec::new();
    match reply {
        Reply::Committed { request_id, txn } => {
            out.push(0x81);
            put_u64(&mut out, *request_id);
            put_u32(&mut out, txn.raw());
        }
        Reply::Aborted { request_id, reason } => {
            out.push(0x82);
            put_u64(&mut out, *request_id);
            out.push(reason.to_byte());
        }
        Reply::StatsReply { json } => {
            out.push(0x83);
            put_u32(&mut out, json.len() as u32);
            out.extend_from_slice(json.as_bytes());
        }
        Reply::HistoryChunk { last, accesses, snapshot } => {
            out.push(0x84);
            out.push(u8::from(*last));
            put_u32(&mut out, accesses.len() as u32);
            for a in accesses {
                put_u32(&mut out, a.txn.raw());
                put_u32(&mut out, a.entity.raw());
                out.push(match a.mode {
                    LockMode::Shared => 0,
                    LockMode::Exclusive => 1,
                });
                put_u64(&mut out, a.stamp);
            }
            // The snapshot section is always present (empty on non-final
            // chunks): a conditional section would make the codec lossy
            // for values it can represent.
            put_u32(&mut out, snapshot.len() as u32);
            for (entity, value) in snapshot {
                put_u32(&mut out, entity.raw());
                put_i64(&mut out, *value);
            }
        }
        Reply::Error { code, message } => {
            out.push(0x86);
            out.push(*code);
            put_u16(&mut out, message.len().min(u16::MAX as usize) as u16);
            out.extend_from_slice(&message.as_bytes()[..message.len().min(u16::MAX as usize)]);
        }
        Reply::ShutdownAck { commits } => {
            out.push(0x87);
            put_u64(&mut out, *commits);
        }
    }
    out
}

/// Decodes one reply payload, rejecting trailing bytes.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, WireError> {
    let mut r = Reader::new(payload);
    let reply = match r.u8()? {
        0x81 => Reply::Committed { request_id: r.u64()?, txn: TxnId::new(r.u32()?) },
        0x82 => {
            let request_id = r.u64()?;
            let reason = AbortReason::from_byte(r.u8()?)?;
            Reply::Aborted { request_id, reason }
        }
        0x83 => {
            let len = r.u32()? as usize;
            let bytes = r.take(len)?;
            let json = std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)?.to_string();
            Reply::StatsReply { json }
        }
        0x84 => {
            let last = r.u8()? != 0;
            let n = r.u32()? as usize;
            if n > MAX_PAYLOAD / 8 {
                return Err(WireError::LimitExceeded("history chunk size"));
            }
            let mut accesses = Vec::with_capacity(n.min(HISTORY_CHUNK_ACCESSES));
            for _ in 0..n {
                let txn = TxnId::new(r.u32()?);
                let entity = EntityId::new(r.u32()?);
                let mode = match r.u8()? {
                    0 => LockMode::Shared,
                    1 => LockMode::Exclusive,
                    tag => return Err(WireError::BadTag { tag }),
                };
                let stamp = r.u64()?;
                accesses.push(CommittedAccess { txn, entity, mode, stamp });
            }
            let m = r.u32()? as usize;
            if m > MAX_PAYLOAD / 8 {
                return Err(WireError::LimitExceeded("snapshot size"));
            }
            let mut snapshot = Vec::with_capacity(m.min(1024));
            for _ in 0..m {
                let entity = EntityId::new(r.u32()?);
                let value = r.i64()?;
                snapshot.push((entity, value));
            }
            Reply::HistoryChunk { last, accesses, snapshot }
        }
        0x86 => {
            let code = r.u8()?;
            let len = r.u16()? as usize;
            let bytes = r.take(len)?;
            let message = std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)?.to_string();
            Reply::Error { code, message }
        }
        0x87 => Reply::ShutdownAck { commits: r.u64()? },
        tag => return Err(WireError::BadTag { tag }),
    };
    r.finish()?;
    Ok(reply)
}

/// Wraps a payload in its length-prefix frame, ready to write to a
/// socket.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_PAYLOAD, "frame payload exceeds MAX_PAYLOAD");
    let mut out = Vec::with_capacity(4 + payload.len());
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(payload);
    out
}

/// Incremental frame reassembly over a byte stream: feed whatever the
/// socket delivered, pull out complete payloads. Oversized length
/// declarations are rejected *before* their payload is buffered, so a
/// hostile peer cannot make the assembler allocate [`MAX_PAYLOAD`]-dodging
/// amounts of memory.
#[derive(Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Pops the next complete frame payload, `Ok(None)` if more bytes are
    /// needed. After an `Err` the stream is unrecoverable — close the
    /// connection.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let declared = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        if declared > MAX_PAYLOAD {
            return Err(WireError::Oversized { declared });
        }
        if self.buf.len() < 4 + declared {
            return Ok(None);
        }
        let payload = self.buf[4..4 + declared].to_vec();
        self.buf.drain(..4 + declared);
        Ok(Some(payload))
    }

    /// Bytes currently buffered (partial frame in flight).
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

/// Reads frames from a blocking stream, decoding replies — the client
/// half's receive loop in one call.
pub fn read_reply(
    stream: &mut impl std::io::Read,
    assembler: &mut FrameAssembler,
) -> std::io::Result<Result<Reply, WireError>> {
    loop {
        match assembler.next_frame() {
            Ok(Some(payload)) => return Ok(decode_reply(&payload)),
            Ok(None) => {}
            Err(e) => return Ok(Err(e)),
        }
        let mut chunk = [0u8; 16 * 1024];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ));
        }
        assembler.feed(&chunk[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let req = Request::Submit {
            request_id: 0xDEAD_BEEF_0042,
            ops: vec![
                Op::LockExclusive(EntityId::new(3)),
                Op::Read { entity: EntityId::new(3), into: VarId::new(0) },
                Op::Assign {
                    var: VarId::new(0),
                    expr: Expr::add(Expr::var(VarId::new(0)), Expr::lit(7)),
                },
                Op::Write { entity: EntityId::new(3), expr: Expr::var(VarId::new(0)) },
                Op::Commit,
            ],
        };
        assert_eq!(decode_request(&encode_request(&req)), Ok(req));
        for req in [Request::Stats, Request::History, Request::Shutdown] {
            assert_eq!(decode_request(&encode_request(&req)), Ok(req));
        }
    }

    #[test]
    fn replies_round_trip() {
        let replies = vec![
            Reply::Committed { request_id: 9, txn: TxnId::new(77) },
            Reply::Aborted { request_id: 10, reason: AbortReason::Shutdown },
            Reply::Aborted { request_id: 11, reason: AbortReason::Invalid },
            Reply::StatsReply { json: "{\"commits\":3}".into() },
            Reply::HistoryChunk {
                last: false,
                accesses: vec![CommittedAccess {
                    txn: TxnId::new(1),
                    entity: EntityId::new(2),
                    mode: LockMode::Exclusive,
                    stamp: 42,
                }],
                snapshot: vec![],
            },
            Reply::HistoryChunk {
                last: true,
                accesses: vec![],
                snapshot: vec![(EntityId::new(0), -5), (EntityId::new(1), 100)],
            },
            Reply::Error { code: 2, message: "bad tag".into() },
            Reply::ShutdownAck { commits: 12345 },
        ];
        for reply in replies {
            assert_eq!(decode_reply(&encode_reply(&reply)), Ok(reply));
        }
    }

    #[test]
    fn deep_expression_is_rejected_not_overflowed() {
        let mut e = Expr::lit(1);
        for _ in 0..(MAX_EXPR_DEPTH + 5) {
            e = Expr::add(e, Expr::lit(1));
        }
        let payload = encode_request(&Request::Submit { request_id: 1, ops: vec![Op::Compute(e)] });
        assert_eq!(decode_request(&payload), Err(WireError::LimitExceeded("expression nesting")));
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        let full = encode_request(&Request::Submit {
            request_id: 5,
            ops: vec![Op::LockShared(EntityId::new(1)), Op::Commit],
        });
        for cut in 1..full.len() {
            let err = decode_request(&full[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated | WireError::BadTag { .. }),
                "cut at {cut}: {err:?}"
            );
        }
        let mut padded = full.clone();
        padded.push(0);
        assert_eq!(decode_request(&padded), Err(WireError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn assembler_handles_arbitrary_fragmentation() {
        let payloads: Vec<Vec<u8>> = vec![
            encode_request(&Request::Stats),
            encode_request(&Request::Submit {
                request_id: 1,
                ops: vec![Op::LockExclusive(EntityId::new(9)), Op::Commit],
            }),
            encode_request(&Request::Shutdown),
        ];
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&frame(p));
        }
        // Feed one byte at a time — the worst possible fragmentation.
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for &b in &stream {
            asm.feed(&[b]);
            while let Some(p) = asm.next_frame().unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got, payloads);
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn assembler_rejects_oversized_declaration_immediately() {
        let mut asm = FrameAssembler::new();
        asm.feed(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        assert_eq!(asm.next_frame(), Err(WireError::Oversized { declared: MAX_PAYLOAD + 1 }));
    }
}
