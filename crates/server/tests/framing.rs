//! Wire-protocol properties: every value the codec can produce must
//! round-trip exactly; every mutilated byte stream must come back as a
//! typed [`WireError`] — never a panic, never a hang, never a garbage
//! decode silently accepted.

use pr_model::{EntityId, Expr, Op, TxnId, Value, VarId};
use pr_par::CommittedAccess;
use pr_server::wire::{
    decode_reply, decode_request, encode_reply, encode_request, frame, AbortReason, FrameAssembler,
    WireError, MAX_EXPR_DEPTH, MAX_PAYLOAD,
};
use pr_server::{Reply, Request};
use proptest::prelude::*;

/// splitmix64 — grows one seed into a reproducible value stream.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic value stream for building random protocol messages.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = mix(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn gen_expr(g: &mut Gen, depth: usize) -> Expr {
    match if depth >= 6 { g.below(2) } else { g.below(5) } {
        0 => Expr::Const(Value::new(g.next() as i64)),
        1 => Expr::Var(VarId::new(g.below(16) as u16)),
        2 => Expr::add(gen_expr(g, depth + 1), gen_expr(g, depth + 1)),
        3 => Expr::sub(gen_expr(g, depth + 1), gen_expr(g, depth + 1)),
        _ => Expr::mul(gen_expr(g, depth + 1), gen_expr(g, depth + 1)),
    }
}

fn gen_op(g: &mut Gen) -> Op {
    let entity = || EntityId::new(0);
    match g.below(8) {
        0 => Op::LockShared(EntityId::new(g.below(1 << 20) as u32)),
        1 => Op::LockExclusive(EntityId::new(g.below(1 << 20) as u32)),
        2 => Op::Unlock(EntityId::new(g.below(1 << 20) as u32)),
        3 => Op::Read { entity: entity(), into: VarId::new(g.below(64) as u16) },
        4 => Op::Write { entity: entity(), expr: gen_expr(g, 0) },
        5 => Op::Assign { var: VarId::new(g.below(64) as u16), expr: gen_expr(g, 0) },
        6 => Op::Compute(gen_expr(g, 0)),
        _ => Op::Commit,
    }
}

fn gen_request(g: &mut Gen) -> Request {
    match g.below(8) {
        0..=4 => Request::Submit {
            request_id: g.next(),
            ops: (0..g.below(20)).map(|_| gen_op(g)).collect(),
        },
        5 => Request::Stats,
        6 => Request::History,
        _ => Request::Shutdown,
    }
}

fn gen_reply(g: &mut Gen) -> Reply {
    match g.below(6) {
        0 => {
            Reply::Committed { request_id: g.next(), txn: TxnId::new(1 + g.below(1 << 20) as u32) }
        }
        1 => Reply::Aborted {
            request_id: g.next(),
            reason: [AbortReason::Shutdown, AbortReason::Invalid, AbortReason::Engine]
                [g.below(3) as usize],
        },
        2 => Reply::StatsReply {
            json: format!("{{\"schema\":\"pr-server-metrics-v1\",\"n\":{}}}", g.next()),
        },
        3 => Reply::HistoryChunk {
            last: g.below(2) == 0,
            accesses: (0..g.below(30))
                .map(|_| CommittedAccess {
                    txn: TxnId::new(1 + g.below(1 << 16) as u32),
                    entity: EntityId::new(g.below(1 << 16) as u32),
                    mode: if g.below(2) == 0 {
                        pr_model::LockMode::Shared
                    } else {
                        pr_model::LockMode::Exclusive
                    },
                    stamp: g.next(),
                })
                .collect(),
            snapshot: (0..g.below(20))
                .map(|_| (EntityId::new(g.below(1 << 16) as u32), g.next() as i64))
                .collect(),
        },
        4 => Reply::Error { code: g.below(250) as u8, message: format!("err {}", g.next()) },
        _ => Reply::ShutdownAck { commits: g.next() },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any encodable request survives encode → frame → reassemble →
    /// decode byte-identically — including through a FrameAssembler fed
    /// in seed-chosen fragment sizes (partial-read reassembly).
    #[test]
    fn requests_round_trip_through_fragmented_frames(seed in 0u64..100_000) {
        let mut g = Gen(seed);
        let request = gen_request(&mut g);
        let payload = encode_request(&request);
        prop_assert_eq!(decode_request(&payload).unwrap(), request.clone());

        let framed = frame(&payload);
        let mut asm = FrameAssembler::new();
        let mut cursor = 0;
        let mut decoded = None;
        while cursor < framed.len() {
            let step = 1 + (g.below(7) as usize);
            let end = (cursor + step).min(framed.len());
            asm.feed(&framed[cursor..end]);
            cursor = end;
            if let Some(p) = asm.next_frame().unwrap() {
                prop_assert!(decoded.is_none(), "one frame in, at most one frame out");
                decoded = Some(p);
            }
        }
        prop_assert_eq!(decode_request(&decoded.expect("complete frame")).unwrap(), request);
        prop_assert_eq!(asm.pending(), 0, "no bytes may linger after the frame");
    }

    /// Same for replies, including history chunks with snapshots.
    #[test]
    fn replies_round_trip(seed in 0u64..100_000) {
        let mut g = Gen(seed);
        let reply = gen_reply(&mut g);
        let payload = encode_reply(&reply);
        prop_assert_eq!(decode_reply(&payload).unwrap(), reply);
    }

    /// Every strict prefix of a valid payload decodes to `Truncated` —
    /// never panics, never succeeds.
    #[test]
    fn truncated_payloads_are_typed_errors(seed in 0u64..100_000) {
        let mut g = Gen(seed);
        let payload = encode_request(&gen_request(&mut g));
        for cut in 0..payload.len() {
            match decode_request(&payload[..cut]) {
                Err(WireError::Truncated) => {}
                other => prop_assert!(false, "cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    /// A valid payload with random trailing garbage is rejected (either
    /// as trailing bytes or, if the garbage extends a length field's
    /// reach, as some other typed error) — never silently accepted as
    /// the original message.
    #[test]
    fn trailing_garbage_never_decodes_to_the_original(seed in 0u64..100_000) {
        let mut g = Gen(seed);
        let request = gen_request(&mut g);
        let mut payload = encode_request(&request);
        for _ in 0..1 + g.below(8) {
            payload.push(g.next() as u8);
        }
        if let Ok(decoded) = decode_request(&payload) {
            prop_assert_ne!(decoded, request);
        }
    }

    /// Byte streams that start with a garbage tag draw `BadTag`.
    #[test]
    fn garbage_tags_are_rejected(seed in 0u64..100_000) {
        let mut g = Gen(seed);
        let tag = 0x05 + (g.below(0x7B) as u8); // outside every request tag
        let mut payload = vec![tag];
        for _ in 0..g.below(12) {
            payload.push(g.next() as u8);
        }
        prop_assert_eq!(decode_request(&payload), Err(WireError::BadTag { tag }));
    }
}

/// An oversized length prefix is rejected the moment the prefix is
/// complete — the assembler must not buffer toward an impossible frame.
#[test]
fn oversized_declaration_rejected_before_buffering() {
    let mut asm = FrameAssembler::new();
    let declared = (MAX_PAYLOAD + 1) as u32;
    asm.feed(&declared.to_le_bytes());
    match asm.next_frame() {
        Err(WireError::Oversized { declared }) => {
            assert_eq!(declared, MAX_PAYLOAD + 1);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
}

/// Two frames arriving in one read() are both produced, in order.
#[test]
fn back_to_back_frames_split_correctly() {
    let a = encode_request(&Request::Stats);
    let b = encode_request(&Request::History);
    let mut bytes = frame(&a);
    bytes.extend_from_slice(&frame(&b));
    let mut asm = FrameAssembler::new();
    asm.feed(&bytes);
    assert_eq!(asm.next_frame().unwrap().as_deref(), Some(&a[..]));
    assert_eq!(asm.next_frame().unwrap().as_deref(), Some(&b[..]));
    assert_eq!(asm.next_frame().unwrap(), None);
}

/// A deeply nested expression is a `LimitExceeded`, not a stack overflow.
#[test]
fn expression_bomb_is_depth_limited() {
    let mut expr = Expr::Const(Value::new(1));
    for _ in 0..200 {
        expr = Expr::add(expr, Expr::Const(Value::new(1)));
    }
    let payload = encode_request(&Request::Submit { request_id: 1, ops: vec![Op::Compute(expr)] });
    match decode_request(&payload) {
        Err(WireError::LimitExceeded(what)) => assert_eq!(what, "expression nesting"),
        other => panic!("expected LimitExceeded, got {other:?}"),
    }
}

/// Hand-writes the wire bytes of one expression whose deepest node sits
/// exactly `levels` below the root, choosing at each level which side
/// carries the nested subtree (so both operand positions see leaves and
/// nested nodes). Independent of the crate's encoder on purpose.
fn raw_expr(g: &mut Gen, levels: usize, out: &mut Vec<u8>) {
    if levels == 0 {
        if g.below(2) == 0 {
            out.push(0);
            out.extend_from_slice(&g.next().to_le_bytes());
        } else {
            out.push(1);
            out.extend_from_slice(&(g.below(64) as u16).to_le_bytes());
        }
        return;
    }
    out.push(2 + g.below(3) as u8);
    let (left, right) = match g.below(3) {
        0 => (levels - 1, 0),
        1 => (0, levels - 1),
        _ => (levels - 1, g.below(levels as u64) as usize),
    };
    raw_expr(g, left, out);
    raw_expr(g, right, out);
}

/// Hand-writes a SUBMIT payload of expression-carrying ops.
fn raw_submit(g: &mut Gen) -> Vec<u8> {
    let count = 1 + g.below(6) as u16;
    let mut out = vec![0x01];
    out.extend_from_slice(&g.next().to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    for _ in 0..count {
        match g.below(3) {
            0 => {
                out.push(4);
                out.extend_from_slice(&(g.below(1 << 20) as u32).to_le_bytes());
            }
            1 => {
                out.push(5);
                out.extend_from_slice(&(g.below(64) as u16).to_le_bytes());
            }
            _ => out.push(6),
        }
        // Bias towards the decoder's limit; keep the 3-way fan-out small.
        let levels = if g.below(2) == 0 { MAX_EXPR_DEPTH } else { g.below(6) as usize };
        raw_expr(g, levels, &mut out);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The in-memory representation of expressions is invisible on the
    /// wire: decoding any valid SUBMIT and encoding it again reproduces
    /// the bytes, for nesting right up to `MAX_EXPR_DEPTH`.
    #[test]
    fn decode_then_encode_is_the_identity_on_bytes(seed in 0u64..100_000) {
        let bytes = raw_submit(&mut Gen(seed));
        let request = decode_request(&bytes).unwrap();
        prop_assert_eq!(encode_request(&request), bytes);
    }
}

/// A SUBMIT frame produced before operands were stored inline (leaf,
/// `var ± const` and depth-3 nested expressions): it must decode to the
/// same program and re-encode to the same bytes for ever.
#[test]
fn frame_from_the_boxed_representation_still_round_trips() {
    const FRAME: &str = "740000000108070605040302010a00010000000003000000000000060201000000010000\
        000000000000010000000301000000010005020004030201010000020000000000000001\
        00000200fdffffffffffffff0401020001020004000000000301020000fcffffffffffff\
        ff0200000000020100000007";
    let bytes: Vec<u8> = (0..FRAME.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&FRAME[i..i + 2], 16).unwrap())
        .collect();
    let v = VarId::new;
    let e = EntityId::new;
    let ops = vec![
        Op::LockExclusive(e(0)),
        Op::Read { entity: e(0), into: v(0) },
        Op::Compute(Expr::add(Expr::var(v(0)), Expr::lit(1))),
        Op::LockShared(e(1)),
        Op::Read { entity: e(1), into: v(1) },
        Op::Assign {
            var: v(2),
            expr: Expr::mul(
                Expr::sub(Expr::add(Expr::var(v(1)), Expr::lit(2)), Expr::var(v(0))),
                Expr::add(Expr::lit(-3), Expr::mul(Expr::var(v(2)), Expr::var(v(2)))),
            ),
        },
        Op::Write { entity: e(0), expr: Expr::sub(Expr::var(v(2)), Expr::lit(-4)) },
        Op::Unlock(e(0)),
        Op::Unlock(e(1)),
        Op::Commit,
    ];
    let request = Request::Submit { request_id: 0x0102_0304_0506_0708, ops };
    assert_eq!(decode_request(&bytes[4..]).unwrap(), request);
    assert_eq!(frame(&encode_request(&request)), bytes);
}
