//! A minimal blocking client for the wire protocol — used by the load
//! driver's control plane (stats, history, shutdown), the malformed-frame
//! probe, and the end-to-end tests. The load driver's data plane drives
//! sockets directly for pipelining; this type is deliberately
//! synchronous one-request-at-a-time except for `submit`, which only
//! writes (replies are pulled with [`Client::recv`]).

use crate::wire::{encode_request, frame, read_reply, FrameAssembler, Reply, Request, WireError};
use pr_model::{EntityId, Op};
use pr_par::CommittedAccess;
use std::io::Write;
use std::net::TcpStream;

/// What [`Client::history`] returns: the server's full stamped access
/// history plus the final `(entity, value)` snapshot.
pub type HistoryDump = (Vec<CommittedAccess>, Vec<(EntityId, i64)>);

/// One blocking connection to a pr-server.
pub struct Client {
    stream: TcpStream,
    assembler: FrameAssembler,
    next_id: u64,
}

impl Client {
    /// Connects (with `TCP_NODELAY`; the protocol is request/response
    /// and Nagle would serialise pipelining on round trips).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, assembler: FrameAssembler::new(), next_id: 0 })
    }

    /// Writes one `SUBMIT` frame (no waiting) and returns its request id.
    pub fn submit(&mut self, ops: Vec<Op>) -> std::io::Result<u64> {
        self.next_id += 1;
        let id = self.next_id;
        self.send(&Request::Submit { request_id: id, ops })?;
        Ok(id)
    }

    /// Writes any request frame.
    pub fn send(&mut self, request: &Request) -> std::io::Result<()> {
        self.stream.write_all(&frame(&encode_request(request)))
    }

    /// Writes raw bytes, bypassing the framing layer — the malformed
    /// probe's tool.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Blocks for the next reply frame.
    pub fn recv(&mut self) -> std::io::Result<Result<Reply, WireError>> {
        read_reply(&mut self.stream, &mut self.assembler)
    }

    /// `STATS` round trip. Must not be called with submits in flight —
    /// the next reply is assumed to be the stats reply.
    pub fn stats(&mut self) -> std::io::Result<String> {
        self.send(&Request::Stats)?;
        match self.recv()? {
            Ok(Reply::StatsReply { json }) => Ok(json),
            other => Err(unexpected("StatsReply", &other)),
        }
    }

    /// `HISTORY` round trip: reassembles all chunks into the full access
    /// history and the final snapshot. Same no-in-flight caveat as
    /// [`Client::stats`].
    pub fn history(&mut self) -> std::io::Result<HistoryDump> {
        self.send(&Request::History)?;
        let mut all = Vec::new();
        loop {
            match self.recv()? {
                Ok(Reply::HistoryChunk { last, accesses, snapshot }) => {
                    all.extend(accesses);
                    if last {
                        return Ok((all, snapshot));
                    }
                }
                other => return Err(unexpected("HistoryChunk", &other)),
            }
        }
    }

    /// `SHUTDOWN` round trip; returns the server's lifetime commit count.
    pub fn shutdown(&mut self) -> std::io::Result<u64> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Ok(Reply::ShutdownAck { commits }) => Ok(commits),
            other => Err(unexpected("ShutdownAck", &other)),
        }
    }

    /// Bounds every blocking read — the malformed-frame probe uses this
    /// so a server that wrongly hangs turns into a visible timeout.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Half-closes the write side (sends FIN); the read side stays open
    /// for whatever the server still sends.
    pub fn shutdown_write(&self) -> std::io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }
}

fn unexpected(wanted: &str, got: &impl std::fmt::Debug) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("expected {wanted}, got {got:?}"))
}
