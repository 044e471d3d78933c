//! The connection abstraction the middleware stack is written against.
//!
//! Every layer — deadline reads, request parsing, response writes — talks to
//! a [`Conn`], not a `TcpStream`.  Production uses `TcpConn`; the test
//! suite uses [`MockConn`], an in-memory connection with a scripted byte
//! stream and a **virtual clock**, so slow-loris timeouts, torn requests and
//! partial reads are exercised deterministically without sleeping (the
//! `FaultFs` idiom from the durability tier, applied to sockets).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use teemon_obs::Stopwatch;

/// A bidirectional byte stream with deadline support and a millisecond
/// clock.  The clock is *the connection's* view of time: real for TCP,
/// virtual for mocks, which is what makes timeout tests deterministic.
pub trait Conn {
    /// Reads into `buf`, honouring the configured read timeout.  Returns
    /// `Ok(0)` at end of stream and `ErrorKind::TimedOut`/`WouldBlock` when
    /// the timeout elapses first.
    fn read_bytes(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    /// Writes the whole buffer.
    fn write_all_bytes(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Arms (or clears) the timeout applied to subsequent reads.
    fn set_read_timeout_ms(&mut self, timeout_ms: Option<u64>) -> io::Result<()>;

    /// The peer address as `ip:port` (rate limiting keys on the ip part).
    fn peer(&self) -> &str;

    /// Milliseconds on this connection's clock.  Monotonic; the epoch is
    /// arbitrary but fixed for the connection's lifetime.
    fn now_ms(&self) -> u64;
}

/// A real TCP connection: wraps the stream, caches the peer string and
/// reads time from the server's monotonic epoch.
pub(crate) struct TcpConn {
    stream: TcpStream,
    peer: String,
    epoch: Stopwatch,
}

impl TcpConn {
    /// Wraps an accepted stream.  `epoch` is the server's start stopwatch so
    /// every connection reports the same timeline.
    pub(crate) fn new(stream: TcpStream, epoch: Stopwatch) -> Self {
        let peer = match stream.peer_addr() {
            Ok(addr) => addr.to_string(),
            Err(_) => "unknown".to_string(),
        };
        Self { stream, peer, epoch }
    }
}

impl Conn for TcpConn {
    fn read_bytes(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }

    fn write_all_bytes(&mut self, buf: &[u8]) -> io::Result<()> {
        self.stream.write_all(buf)
    }

    fn set_read_timeout_ms(&mut self, timeout_ms: Option<u64>) -> io::Result<()> {
        // A zero Duration means "no timeout" to the OS; the caller's zero
        // means "deadline already passed", so clamp to one millisecond.
        let timeout = timeout_ms.map(|ms| Duration::from_millis(ms.max(1)));
        self.stream.set_read_timeout(timeout)
    }

    fn peer(&self) -> &str {
        &self.peer
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed_ns() / 1_000_000
    }
}

/// One scripted event on a [`MockConn`]'s inbound stream.
#[derive(Debug, Clone)]
pub enum MockStep {
    /// Bytes that arrive (possibly a partial request — the parser must
    /// reassemble across chunks).
    Chunk(Vec<u8>),
    /// The client goes quiet for this many virtual milliseconds.  If the
    /// armed read timeout is shorter, the read times out.
    StallMs(u64),
    /// The client closes its write half; reads return `Ok(0)` from here on.
    Eof,
}

/// An in-memory [`Conn`] with a scripted inbound stream and virtual clock.
///
/// Reads consume the script: chunks are returned (respecting the caller's
/// buffer size, so partial reads happen naturally), stalls advance the
/// virtual clock and trip armed timeouts, `Eof` ends the stream.  Writes
/// accumulate in [`MockConn::written`] for assertions.
pub struct MockConn {
    steps: std::collections::VecDeque<MockStep>,
    /// Read offset into the front chunk.
    chunk_pos: usize,
    written: Vec<u8>,
    clock_ms: u64,
    read_timeout_ms: Option<u64>,
    peer: String,
}

impl MockConn {
    /// Builds a connection that will replay `steps` to the reader.
    pub fn new(steps: Vec<MockStep>) -> Self {
        Self {
            steps: steps.into(),
            chunk_pos: 0,
            written: Vec::new(),
            clock_ms: 0,
            read_timeout_ms: None,
            peer: "198.51.100.7:4242".to_string(),
        }
    }

    /// A connection that sends `bytes` then EOF — the common happy path.
    pub fn with_bytes(bytes: impl Into<Vec<u8>>) -> Self {
        Self::new(vec![MockStep::Chunk(bytes.into()), MockStep::Eof])
    }

    /// Overrides the reported peer address.
    #[must_use]
    pub fn with_peer(mut self, peer: impl Into<String>) -> Self {
        self.peer = peer.into();
        self
    }

    /// Everything the server wrote to this connection.
    pub fn written(&self) -> &[u8] {
        &self.written
    }

    /// The written bytes as text (responses are ASCII).
    pub fn written_text(&self) -> String {
        String::from_utf8_lossy(&self.written).into_owned()
    }
}

impl Conn for MockConn {
    fn read_bytes(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            let Some(step) = self.steps.front() else {
                return Ok(0);
            };
            match step {
                MockStep::Eof => return Ok(0),
                MockStep::Chunk(bytes) => {
                    let Some(rest) = bytes.get(self.chunk_pos..) else {
                        self.steps.pop_front();
                        self.chunk_pos = 0;
                        continue;
                    };
                    if rest.is_empty() {
                        self.steps.pop_front();
                        self.chunk_pos = 0;
                        continue;
                    }
                    let n = rest.len().min(buf.len());
                    let Some(dst) = buf.get_mut(..n) else {
                        return Ok(0);
                    };
                    let Some(src) = rest.get(..n) else {
                        return Ok(0);
                    };
                    dst.copy_from_slice(src);
                    self.chunk_pos += n;
                    return Ok(n);
                }
                MockStep::StallMs(stall) => {
                    let stall = *stall;
                    match self.read_timeout_ms {
                        Some(timeout) if stall >= timeout => {
                            // The armed timeout elapses mid-stall: time
                            // advances by the timeout and the read fails,
                            // exactly like an OS socket would.
                            self.clock_ms += timeout;
                            self.steps.pop_front();
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "mock stall outlived read timeout",
                            ));
                        }
                        _ => {
                            self.clock_ms += stall;
                            self.steps.pop_front();
                        }
                    }
                }
            }
        }
    }

    fn write_all_bytes(&mut self, buf: &[u8]) -> io::Result<()> {
        self.written.extend_from_slice(buf);
        Ok(())
    }

    fn set_read_timeout_ms(&mut self, timeout_ms: Option<u64>) -> io::Result<()> {
        self.read_timeout_ms = timeout_ms;
        Ok(())
    }

    fn peer(&self) -> &str {
        &self.peer
    }

    fn now_ms(&self) -> u64 {
        self.clock_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_conn_replays_chunks_respecting_buffer_size() {
        let mut conn = MockConn::new(vec![
            MockStep::Chunk(b"hello ".to_vec()),
            MockStep::Chunk(b"world".to_vec()),
            MockStep::Eof,
        ]);
        let mut buf = [0u8; 4];
        let mut collected = Vec::new();
        loop {
            let n = conn.read_bytes(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            collected.extend_from_slice(&buf[..n]);
        }
        assert_eq!(collected, b"hello world");
    }

    #[test]
    fn stall_shorter_than_timeout_just_advances_the_clock() {
        let mut conn = MockConn::new(vec![
            MockStep::StallMs(50),
            MockStep::Chunk(b"x".to_vec()),
            MockStep::Eof,
        ]);
        conn.set_read_timeout_ms(Some(100)).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(conn.read_bytes(&mut buf).unwrap(), 1);
        assert_eq!(conn.now_ms(), 50);
    }

    #[test]
    fn stall_longer_than_timeout_times_out_at_the_timeout() {
        let mut conn = MockConn::new(vec![MockStep::StallMs(5_000), MockStep::Eof]);
        conn.set_read_timeout_ms(Some(200)).unwrap();
        let mut buf = [0u8; 8];
        let err = conn.read_bytes(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(conn.now_ms(), 200, "the clock advances by the timeout, not the stall");
    }

    #[test]
    fn writes_accumulate_for_assertions() {
        let mut conn = MockConn::with_bytes(b"".to_vec());
        conn.write_all_bytes(b"HTTP/1.1 200 OK\r\n").unwrap();
        assert!(conn.written_text().starts_with("HTTP/1.1 200"));
    }
}
