//! The benchmark's own keep-alive load client.
//!
//! The shipped `teemon_server::http_get`/`http_post` open one connection per
//! request, and the serving edge gives every connection a fresh `PushLane`
//! whose `instance` label is the peer's `ip:ephemeral-port` — so driving a
//! steady workload with them creates a new series set per request.  This
//! client holds one `TcpStream` open, frames replies by `Content-Length`,
//! and sets `TCP_NODELAY` on its own side only (the server's socket options
//! are what is being measured).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct KeepAlive {
    stream: TcpStream,
    /// Bytes read so far of the reply being assembled.
    buf: Vec<u8>,
    /// Requests sent on this connection (drives scheduled reconnects).
    pub requests: usize,
}

fn bad(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.to_string())
}

impl KeepAlive {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self { stream, buf: Vec::with_capacity(512 * 1024), requests: 0 })
    }

    /// Sends one fully rendered request (head and body in one write) and
    /// reads the reply.  Returns the status; the body is left in
    /// [`KeepAlive::body`] until the next call.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<u16> {
        self.requests += 1;
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 64 * 1024];
        let (head_end, status, length) = loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed before a full reply head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head =
                    std::str::from_utf8(&self.buf[..end]).map_err(|_| bad("head not UTF-8"))?;
                let status = head
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse::<u16>().ok())
                    .ok_or_else(|| bad("bad status line"))?;
                let length = head
                    .split("\r\n")
                    .filter_map(|l| l.split_once(':'))
                    .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
                    .and_then(|(_, v)| v.trim().parse::<usize>().ok())
                    .ok_or_else(|| bad("reply without Content-Length"))?;
                break (end + 4, status, length);
            }
        };
        self.buf.drain(..head_end);
        while self.buf.len() < length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        if self.buf.len() != length {
            return Err(bad("bytes past Content-Length on a closed-loop connection"));
        }
        Ok(status)
    }

    /// Body of the most recent reply.
    pub fn body(&self) -> &[u8] {
        &self.buf
    }
}

/// Renders a `GET` for `path_and_query` (already percent-encoded).
pub fn render_get(path_and_query: &str) -> Vec<u8> {
    format!("GET {path_and_query} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// Renders the head of a `POST /api/v1/write` carrying `body_len` bytes.
pub fn render_write_head(body_len: usize) -> Vec<u8> {
    format!(
        "POST /api/v1/write HTTP/1.1\r\nHost: bench\r\nContent-Type: text/plain\r\n\
         Content-Length: {body_len}\r\n\r\n"
    )
    .into_bytes()
}
