//! A small HTTP/1.1 client that can keep a connection alive, and counts the
//! connections it opens.
//!
//! Requests go out without `Connection: close`; the socket is reused unless
//! the response closes it. Today the server closes after every response, so
//! connects ÷ requests is 1.0; a keep-alive server shows up as a lower ratio
//! (and lower latency) without a change to the benchmark.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::num::nanos;

/// Connections one run may open; past the cap a request fails instead of
/// retrying. The server closes first, so the sockets left in TIME_WAIT are
/// its own, and on loopback the kernel hands a lingering port pair to a new
/// SYN: 540 000 connections in 40 s went through without one failure and
/// never more than 50 000 sockets lingered. The cap only stops a run that
/// has gone wrong.
pub const MAX_CONNECTS: u64 = 400_000;

const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Connections opened so far by every client of a run.
#[derive(Debug, Default)]
pub struct ConnectBudget(AtomicU64);

impl ConnectBudget {
    /// Connections opened so far.
    #[cfg(test)]
    pub fn used(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    fn take(&self) -> io::Result<()> {
        if self.0.fetch_add(1, Ordering::SeqCst) >= MAX_CONNECTS {
            return Err(io::Error::other("connection budget of the run exhausted"));
        }
        Ok(())
    }
}

/// What came back for one request.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Time spent opening a connection for this request (0 when reused).
    pub connect_ns: u64,
}

/// One client connection slot.
pub struct Client<'a> {
    addr: SocketAddr,
    budget: &'a ConnectBudget,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    body_start: usize,
    /// Connections this client opened.
    pub connects: u64,
    /// Requests this client completed.
    pub requests: u64,
}

impl<'a> Client<'a> {
    /// A client for `addr` drawing on the run's connection budget.
    pub fn new(addr: SocketAddr, budget: &'a ConnectBudget) -> Self {
        Self {
            addr,
            budget,
            stream: None,
            buf: Vec::with_capacity(16 * 1024),
            body_start: 0,
            connects: 0,
            requests: 0,
        }
    }

    /// The body of the last reply.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body_start..]
    }

    /// Sends the pre-rendered request `raw` and reads one whole response.
    /// A reused socket the server has meanwhile closed is replaced once; a
    /// failure on a fresh connection is the request's failure.
    pub fn request(&mut self, raw: &[u8]) -> io::Result<Reply> {
        let reused = self.stream.is_some();
        match self.attempt(raw) {
            Err(_) if reused => {
                self.stream = None;
                self.attempt(raw)
            }
            other => other,
        }
    }

    fn attempt(&mut self, raw: &[u8]) -> io::Result<Reply> {
        let mut connect_ns = 0;
        let mut stream = match self.stream.take() {
            Some(stream) => stream,
            None => {
                self.budget.take()?;
                let start = Instant::now();
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(IO_TIMEOUT))?;
                stream.set_write_timeout(Some(IO_TIMEOUT))?;
                connect_ns = nanos(start.elapsed());
                self.connects += 1;
                stream
            }
        };
        stream.write_all(raw)?;

        self.buf.clear();
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let len = self.buf.len();
            self.buf.resize(len + 4096, 0);
            let n = stream.read(&mut self.buf[len..])?;
            self.buf.truncate(len + n);
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before the response head ended",
                ));
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "head is not UTF-8"))?;
        let (status, content_length, close) = parse_head(head)?;
        self.body_start = head_end + 4;
        let have = self.buf.len() - self.body_start;
        if have > content_length {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "body longer than Content-Length",
            ));
        }
        self.buf.resize(self.body_start + content_length, 0);
        stream.read_exact(&mut self.buf[self.body_start + have..])?;
        if !close {
            self.stream = Some(stream);
        }
        self.requests += 1;
        Ok(Reply { status, connect_ns })
    }
}

/// Status, `Content-Length` and whether the connection closes after this
/// response (`Connection: close`, or HTTP/1.0 without keep-alive).
fn parse_head(head: &str) -> io::Result<(u16, usize, bool)> {
    let bad = |what: &'static str| io::Error::new(io::ErrorKind::InvalidData, what);
    let mut lines = head.split("\r\n");
    let mut status_line = lines.next().unwrap_or("").split(' ');
    let version = status_line.next().unwrap_or("");
    let status: u16 = status_line
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length = 0usize;
    let mut close = version == "HTTP/1.0";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| bad("malformed Content-Length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    Ok((status, content_length, close))
}

/// Renders one request without a `Connection` header.
pub fn render(method: &str, target: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn heads_parse_status_length_and_connection() {
        let (status, len, close) = parse_head(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\ncontent-length: 12\r\nConnection: close",
        )
        .expect("well-formed head");
        assert_eq!((status, len, close), (200, 12, true));
        let (status, len, close) =
            parse_head("HTTP/1.1 404 Not Found\r\nContent-Length: 0").expect("well-formed head");
        assert_eq!((status, len, close), (404, 0, false));
        assert!(parse_head("HTTP/1.0 200 OK").expect("well-formed head").2);
        assert!(parse_head("garbage").is_err());
    }

    /// A server that answers `per_conn` requests on each connection, then
    /// closes it (announcing the close on the last response).
    fn serve(listener: TcpListener, per_conn: usize, total: usize) {
        let mut served = 0;
        while served < total {
            let (mut stream, _) = listener.accept().expect("accept");
            for nth in 0..per_conn {
                let mut buf = [0u8; 1024];
                let mut seen = Vec::new();
                while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                    let n = stream.read(&mut buf).expect("read request");
                    seen.extend_from_slice(&buf[..n]);
                }
                let closing = if nth + 1 == per_conn {
                    "Connection: close\r\n"
                } else {
                    ""
                };
                let reply = format!("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n{closing}\r\nok");
                stream.write_all(reply.as_bytes()).expect("write reply");
                served += 1;
                if served == total {
                    return;
                }
            }
        }
    }

    #[test]
    fn sockets_are_reused_until_the_server_closes_them() {
        for (per_conn, expected_connects) in [(1usize, 6u64), (3, 2)] {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let server = std::thread::spawn(move || serve(listener, per_conn, 6));
            let budget = ConnectBudget::default();
            let mut client = Client::new(addr, &budget);
            let raw = render("GET", "/x", "");
            for _ in 0..6 {
                let reply = client.request(&raw).expect("request");
                assert_eq!(reply.status, 200);
                assert_eq!(client.body(), b"ok");
            }
            server.join().expect("server thread");
            assert_eq!(client.connects, expected_connects);
            assert_eq!(client.requests, 6);
            assert_eq!(budget.used(), expected_connects);
        }
    }

    #[test]
    fn an_exhausted_budget_fails_the_request() {
        let budget = ConnectBudget::default();
        budget.0.store(MAX_CONNECTS, Ordering::SeqCst);
        let addr: SocketAddr = "127.0.0.1:9".parse().expect("addr");
        assert!(Client::new(addr, &budget)
            .request(b"GET / HTTP/1.1\r\n\r\n")
            .is_err());
    }
}
