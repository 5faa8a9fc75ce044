//! The benchmark's own timed HTTP/1.1 client: one request per connection
//! (the daemon answers `Connection: close`), with a timestamp at every
//! boundary — connect, request written, first response byte, last byte.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::spans::Trace;

const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A complete request, rendered before any timing starts.
pub fn render_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: zt-benchmark\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// What one request saw. `status` is 0 when the transport failed.
#[derive(Debug)]
pub struct Exchange {
    pub status: u16,
    /// `x-zt-cache` header: `Some(true)` for a hit.
    pub cache_hit: Option<bool>,
    pub body: String,
    pub connect_start: Instant,
    pub connected: Instant,
    pub written: Instant,
    pub first_byte: Instant,
    pub last_byte: Instant,
}

impl Exchange {
    pub fn ok(&self) -> bool {
        self.status == 200
    }

    /// Record this exchange as a `request` span from `due` with its four
    /// boundary children, all under request id `id`.
    pub fn record(&self, trace: &mut Trace, due: Instant, id: u64) {
        let root = trace.push("request", due, self.last_byte, None, id);
        trace.push(
            "connect",
            self.connect_start,
            self.connected,
            Some(root),
            id,
        );
        trace.push("write", self.connected, self.written, Some(root), id);
        trace.push("wait", self.written, self.first_byte, Some(root), id);
        trace.push("read", self.first_byte, self.last_byte, Some(root), id);
    }
}

/// Send one pre-rendered request and read the whole response.
pub fn exchange(addr: SocketAddr, request: &[u8]) -> Exchange {
    let connect_start = Instant::now();
    let mut ex = Exchange {
        status: 0,
        cache_hit: None,
        body: String::new(),
        connect_start,
        connected: connect_start,
        written: connect_start,
        first_byte: connect_start,
        last_byte: connect_start,
    };
    let _ = run(addr, request, &mut ex);
    ex
}

fn run(addr: SocketAddr, request: &[u8], ex: &mut Exchange) -> std::io::Result<()> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    ex.connected = Instant::now();
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    stream.write_all(request)?;
    ex.written = Instant::now();
    ex.first_byte = ex.written;
    ex.last_byte = ex.written;

    let mut raw = Vec::with_capacity(1024);
    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        if raw.is_empty() {
            ex.first_byte = Instant::now();
        }
        raw.extend_from_slice(&buf[..n]);
    }
    ex.last_byte = Instant::now();
    parse(&raw, ex);
    Ok(())
}

fn parse(raw: &[u8], ex: &mut Exchange) {
    let Some(head_end) = raw.windows(4).position(|w| w == b"\r\n\r\n") else {
        return;
    };
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok());
    ex.cache_hit = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("x-zt-cache"))
        .map(|(_, v)| v.trim() == "hit");
    ex.body = String::from_utf8_lossy(&raw[head_end + 4..]).into_owned();
    ex.status = status.unwrap_or(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_cache_header_and_body() {
        let t = Instant::now();
        let mut ex = exchange_stub(t);
        parse(
            b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nX-ZT-Cache: hit\r\n\r\n{}",
            &mut ex,
        );
        assert_eq!(
            (ex.status, ex.cache_hit, ex.body.as_str()),
            (200, Some(true), "{}")
        );
        let mut bad = exchange_stub(t);
        parse(b"HTTP/1.1 200 OK", &mut bad);
        assert_eq!(bad.status, 0);
    }

    fn exchange_stub(t: Instant) -> Exchange {
        Exchange {
            status: 0,
            cache_hit: None,
            body: String::new(),
            connect_start: t,
            connected: t,
            written: t,
            first_byte: t,
            last_byte: t,
        }
    }
}
