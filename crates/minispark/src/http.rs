//! Minimal zero-dependency blocking HTTP/1.1 server: a small router behind
//! persistent connections and a fixed-size worker pool.
//!
//! Two server frontends share the plumbing:
//!
//! * [`HttpServer`] — the general router: `GET`/`POST`/`DELETE` with
//!   `Content-Length` body reads, `{param}` path captures and query-string
//!   access, both percent-decoded (and `+` is a space in a query string).
//!   The ranking-similarity serving layer (`topk_simjoin::serving`) runs on
//!   it.
//! * [`LiveServer`] — the read-only live metrics plane: `GET /metrics` (Prometheus text exposition 0.0.4) and
//!   `GET /snapshot` (the `minispark/telemetry-snapshot/v1` JSON document),
//!   served from a swappable [`TelemetrySource`].
//!
//! # Connection lifecycle
//!
//! A connection serves requests until one of these ends it: the client
//! sends `Connection: close` (or speaks HTTP/1.0 without `keep-alive`), a
//! request cannot be routed (`400`/`413`/`431`/`501`, below), the peer goes
//! away, nothing arrives for 6 s, or the server shuts down.
//! Every response says which it is: `Connection: keep-alive` or
//! `Connection: close`. Bytes received past one request's body are the start
//! of the next request (pipelining), and each response leaves in a single
//! `write` on a `TCP_NODELAY` socket — two writes on a Nagle socket would
//! stall every response but the first of a connection for the peer's
//! delayed-ACK timer (40 ms).
//!
//! The acceptor hands a new connection straight to the worker pool. A
//! connection that stays open after a response, with nothing more buffered,
//! leaves the pool: from then on it has a *parking thread* that does nothing
//! but wait for the next byte (or EOF, or the idle timeout) and queues the
//! connection for a worker when there is something to read. Handlers
//! therefore run on the `workers` pool threads and nowhere else, and any
//! number of idle connections — up to [`MAX_OPEN_CONNECTIONS`] — costs the
//! pool nothing. A one-shot `Connection: close` client never gets a parking
//! thread.
//!
//! # Malformed and unsupported requests
//!
//! Request reading is strict, because on a reused socket a request the
//! server frames differently from the client poisons every later one: a head
//! that exceeds the 4 KiB cap without terminating answers `431`; a head that
//! ends (EOF or read timeout) before `\r\n\r\n`, fails to parse (a bad
//! `%XX` escape in the target included), or carries two different
//! `Content-Length`s answers `400`; any `Transfer-Encoding`
//! answers `501`; a declared `Content-Length` beyond the body cap answers
//! `413`. Each of these closes the connection, and the server never routes a
//! request parsed from a truncated head. `Expect: 100-continue` is answered
//! with an interim `100 Continue` before the body is read.
//!
//! The registry served by [`LiveServer`] is held behind a swappable
//! [`TelemetrySource`]: a server started over one cluster's registry
//! (`TelemetrySource::new(cluster.telemetry().clone())`) serves it for its
//! whole lifetime, while a long-lived server (the bench harness's
//! `--live-port`) re-points the source at each new run's cluster without
//! rebinding the port — which also sidesteps `TIME_WAIT` rebind failures,
//! since `std` exposes no `SO_REUSEADDR`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::telemetry::TelemetryRegistry;

/// Request heads (request line + headers) beyond this never route: the
/// server answers `431 Request Header Fields Too Large`.
pub const MAX_HEAD_BYTES: usize = 4096;

/// Declared request bodies beyond this answer `413 Content Too Large`.
/// Large enough for a few thousand upserted rankings per batch, small
/// enough that a hostile `Content-Length` cannot balloon a worker.
pub const MAX_BODY_BYTES: usize = 4 << 20;

/// Connections open at once, busy or idle. Past it the acceptor itself
/// answers `503 Service Unavailable` with `Retry-After: 1` and closes, so an
/// overload never queues behind the workers and the parking threads (one per
/// idle persistent connection, each with a [`MAX_HEAD_BYTES`] buffer) are a
/// bounded resource.
pub const MAX_OPEN_CONNECTIONS: usize = 256;

/// Socket timeout while a request is being read or a response written: a
/// client that stalls longer mid-request gets `400`/is dropped instead of
/// pinning a worker forever.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// A persistent connection that stays silent this long between requests is
/// closed. It waits on its parking thread, not on a worker, so this can be
/// longer than [`IO_TIMEOUT`]; it is a whole number of them because the wait
/// is made of reads that each time out after [`IO_TIMEOUT`].
const IDLE_TIMEOUT: Duration = Duration::from_secs(6);

/// What the acceptor writes to a connection past [`MAX_OPEN_CONNECTIONS`].
const OVERLOADED: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n\
Content-Length: 26\r\nRetry-After: 1\r\nConnection: close\r\n\r\ntoo many open connections\n";

// ---------------------------------------------------------------------------
// Request / Response
// ---------------------------------------------------------------------------

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    /// `{param}` captures, filled in by the router on match.
    params: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Request {
    /// The request method (`GET`, `POST`, `DELETE`, …), uppercase as sent.
    pub fn method(&self) -> &str {
        &self.method
    }

    /// The request path without the query string.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// First query-string value for `key` (`?theta=0.2&n=5`).
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A `{param}` path capture by name (see [`Router::route`]).
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The raw request body (empty unless the client sent `Content-Length`).
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// The body as UTF-8, if valid.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// One HTTP response: status, content type, body.
#[derive(Debug, Clone)]
pub struct Response {
    status: u16,
    content_type: String,
    body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain".to_string(),
            body: body.into().into_bytes(),
        }
    }

    /// An `application/json` response rendering `doc`.
    pub fn json(status: u16, doc: &Json) -> Self {
        Self {
            status,
            content_type: "application/json".to_string(),
            body: doc.render().into_bytes(),
        }
    }

    /// A response with an explicit content type (e.g. the Prometheus text
    /// exposition's versioned `text/plain`).
    pub fn with_content_type(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            content_type: content_type.to_string(),
            body: body.into(),
        }
    }

    /// The status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The response body bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Content Too Large",
            422 => "Unprocessable Content",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "",
        }
    }

    /// Sends the response as one `write` (see the module doc), announcing
    /// whether the connection stays open after it.
    fn write_to(&self, stream: &mut TcpStream, keep_alive: bool) -> std::io::Result<()> {
        let mut wire = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            Self::reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        )
        .into_bytes();
        wire.extend_from_slice(&self.body);
        stream.write_all(&wire)
    }
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

enum Segment {
    Literal(String),
    Param(String),
}

struct Route {
    method: String,
    segments: Vec<Segment>,
    handler: Handler,
}

/// Method + path-pattern dispatch table.
///
/// Patterns are `/`-separated literals with `{name}` capture segments:
/// `/rankings/{id}` matches `/rankings/42` and exposes `id = "42"` via
/// [`Request::param`]. Unknown paths answer `404`; a known path hit with
/// the wrong method answers `405`.
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
}

impl Router {
    /// An empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `handler` for `method` + `pattern`.
    pub fn route(
        &mut self,
        method: &str,
        pattern: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) {
        let segments = pattern
            .trim_matches('/')
            .split('/')
            .filter(|s| !s.is_empty())
            .map(|s| {
                if let Some(name) = s.strip_prefix('{').and_then(|s| s.strip_suffix('}')) {
                    Segment::Param(name.to_string())
                } else {
                    Segment::Literal(s.to_string())
                }
            })
            .collect();
        self.routes.push(Route {
            method: method.to_uppercase(),
            segments,
            handler: Arc::new(handler),
        });
    }

    /// Matches a path against a route's segments, returning captures.
    fn match_segments(route: &Route, path: &str) -> Option<Vec<(String, String)>> {
        let parts: Vec<&str> = path
            .trim_matches('/')
            .split('/')
            .filter(|s| !s.is_empty())
            .collect();
        if parts.len() != route.segments.len() {
            return None;
        }
        let mut params = Vec::new();
        for (seg, part) in route.segments.iter().zip(&parts) {
            match seg {
                Segment::Literal(lit) => {
                    if lit != part {
                        return None;
                    }
                }
                Segment::Param(name) => params.push((name.clone(), (*part).to_string())),
            }
        }
        Some(params)
    }

    /// Routes one request: fills `{param}` captures and runs the handler;
    /// `405` when only the method mismatches, `404` otherwise.
    pub fn dispatch(&self, request: &mut Request) -> Response {
        let mut path_matched = false;
        for route in &self.routes {
            let Some(params) = Self::match_segments(route, &request.path) else {
                continue;
            };
            if route.method != request.method {
                path_matched = true;
                continue;
            }
            request.params = params;
            return (route.handler)(request);
        }
        if path_matched {
            Response::text(405, "method not allowed for this path\n")
        } else {
            Response::text(404, "no such endpoint\n")
        }
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("routes", &self.routes.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Request reading
// ---------------------------------------------------------------------------

/// Why a connection could not produce a routable request. Each of these
/// ends the connection: what follows on it can no longer be framed.
enum ReadFailure {
    /// The head never terminated within [`MAX_HEAD_BYTES`] → `431`.
    HeadTooLarge,
    /// EOF/timeout mid-head, or the head failed to parse → `400`.
    Malformed(&'static str),
    /// Declared `Content-Length` beyond [`MAX_BODY_BYTES`] → `413`.
    BodyTooLarge,
    /// The body is framed by a `Transfer-Encoding` → `501`.
    TransferEncoding,
    /// The client went away between requests (or connected and sent
    /// nothing); no response can reach it, drop silently.
    Disconnected,
}

impl ReadFailure {
    /// The response that tells the client, if one can reach it.
    fn response(&self) -> Option<Response> {
        match self {
            Self::HeadTooLarge => Some(Response::text(431, "request head exceeds 4 KiB\n")),
            Self::Malformed(why) => Some(Response::text(400, format!("bad request: {why}\n"))),
            Self::BodyTooLarge => Some(Response::text(413, "request body too large\n")),
            Self::TransferEncoding => Some(Response::text(
                501,
                "Transfer-Encoding is not supported, send Content-Length\n",
            )),
            Self::Disconnected => None,
        }
    }
}

/// A parsed request head: what routes, and how the body and the connection
/// are framed.
struct Head {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    content_length: usize,
    /// Whether the client lets the connection outlive this request.
    keep_alive: bool,
    /// `Expect: 100-continue`: the client waits for a go-ahead before it
    /// sends the body.
    expects_continue: bool,
}

/// Parses a complete head (everything before `\r\n\r\n`).
fn parse_head(head: &[u8]) -> Result<Head, ReadFailure> {
    let head =
        std::str::from_utf8(head).map_err(|_| ReadFailure::Malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ReadFailure::Malformed("bad request line"));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(ReadFailure::Malformed("bad request line"));
    }
    if method.is_empty() || !method.chars().all(|c| c.is_ascii_uppercase()) {
        return Err(ReadFailure::Malformed("bad method"));
    }
    if !target.starts_with('/') {
        return Err(ReadFailure::Malformed("bad request target"));
    }

    let mut content_length = None;
    let (mut close, mut keep) = (false, false);
    let mut expects_continue = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let declared: usize = value
                .parse()
                .map_err(|_| ReadFailure::Malformed("bad Content-Length"))?;
            if content_length.is_some_and(|earlier| earlier != declared) {
                return Err(ReadFailure::Malformed("conflicting Content-Length headers"));
            }
            content_length = Some(declared);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(ReadFailure::TransferEncoding);
        } else if name.eq_ignore_ascii_case("connection") {
            for option in value.split(',').map(str::trim) {
                close |= option.eq_ignore_ascii_case("close");
                keep |= option.eq_ignore_ascii_case("keep-alive");
            }
        } else if name.eq_ignore_ascii_case("expect") {
            expects_continue = value.eq_ignore_ascii_case("100-continue");
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ReadFailure::BodyTooLarge);
    }

    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_string
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| {
            let (key, value) = kv.split_once('=').unwrap_or((kv, ""));
            Ok((
                percent_decode(key, true)?.into_owned(),
                percent_decode(value, true)?.into_owned(),
            ))
        })
        .collect::<Result<_, ReadFailure>>()?;

    Ok(Head {
        method: method.to_string(),
        path: percent_decode(path, false)?.into_owned(),
        query,
        content_length,
        // HTTP/1.1 persists unless told otherwise, HTTP/1.0 only when asked.
        keep_alive: !close && (keep || version != "HTTP/1.0"),
        expects_continue,
    })
}

/// Decodes the `%XX` escapes of one request-target component, and `+` as a
/// space where `form` says the component is a query key or value
/// (`application/x-www-form-urlencoded`, what browsers and HTTP clients
/// send). A component with nothing to decode — every request the benchmark
/// client makes — comes back borrowed. A truncated or non-hex escape, or
/// bytes that are not UTF-8 once decoded, is a malformed head.
fn percent_decode(raw: &str, form: bool) -> Result<Cow<'_, str>, ReadFailure> {
    if !raw.bytes().any(|b| b == b'%' || (form && b == b'+')) {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = Vec::with_capacity(raw.len());
    let mut bytes = raw.bytes();
    let hex_digit = |bytes: &mut std::str::Bytes<'_>| {
        let digit = char::from(bytes.next()?).to_digit(16)?;
        u8::try_from(digit).ok()
    };
    while let Some(byte) = bytes.next() {
        out.push(match byte {
            b'%' => match (hex_digit(&mut bytes), hex_digit(&mut bytes)) {
                (Some(hi), Some(lo)) => hi << 4 | lo,
                _ => return Err(ReadFailure::Malformed("bad percent-escape in target")),
            },
            b'+' if form => b' ',
            other => other,
        });
    }
    String::from_utf8(out)
        .map(Cow::Owned)
        .map_err(|_| ReadFailure::Malformed("target is not UTF-8 once percent-decoded"))
}

/// Position of `\r\n\r\n` in `buf`, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// What the acceptor, the workers and the parking threads share.
struct Shared {
    router: Router,
    stop: AtomicBool,
    open: Mutex<OpenConnections>,
}

/// Every open connection and every parking thread, so that admission can be
/// bounded and `Drop` can reach them all.
#[derive(Default)]
struct OpenConnections {
    /// A second handle on each open connection's socket, by connection id:
    /// shutting it down wakes whichever thread is blocked on the connection.
    sockets: HashMap<u64, TcpStream>,
    /// Parking threads not yet joined, running or finished.
    parkers: Vec<JoinHandle<()>>,
}

/// One open connection. It is owned by exactly one place at a time — the
/// pool queue, a worker, or its parking thread — and closed by dropping it.
struct Connection {
    id: u64,
    stream: TcpStream,
    /// Received bytes not yet consumed: the head being read, or what a
    /// pipelining client sent past the previous request.
    buf: Vec<u8>,
    len: usize,
    shared: Arc<Shared>,
    /// The worker pool's queue.
    pool: mpsc::Sender<Connection>,
    /// The way back to this connection's parking thread, once it has one.
    parker: Option<mpsc::Sender<Connection>>,
}

impl Drop for Connection {
    fn drop(&mut self) {
        // The socket closes once this handle and `stream` are both gone.
        let socket = self
            .shared
            .open
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .sockets
            .remove(&self.id);
        drop(socket);
    }
}

impl Connection {
    /// Reads and parses one request, and says whether the connection may
    /// stay open after its response. Never routes a truncated head: anything
    /// short of a complete, well-formed `head + declared body` is a
    /// [`ReadFailure`].
    fn read_request(&mut self) -> Result<(Request, bool), ReadFailure> {
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf[..self.len]) {
                break pos;
            }
            if self.len == self.buf.len() {
                return Err(ReadFailure::HeadTooLarge);
            }
            match self.stream.read(&mut self.buf[self.len..]) {
                Ok(0) if self.len == 0 => return Err(ReadFailure::Disconnected),
                Ok(0) => return Err(ReadFailure::Malformed("connection closed mid-head")),
                Ok(n) => self.len += n,
                Err(_) if self.len == 0 => return Err(ReadFailure::Disconnected),
                Err(_) => return Err(ReadFailure::Malformed("read failed mid-head")),
            }
        };
        let head = parse_head(&self.buf[..head_end])?;

        // Body: bytes already read past the head, then the remainder
        // exactly. What lies past the body belongs to the next request.
        let body_start = head_end + 4;
        let body_end = self.len.min(body_start + head.content_length);
        let mut body = self.buf[body_start..body_end].to_vec();
        let buffered = body.len();
        if head.content_length > buffered {
            if head.expects_continue
                && self
                    .stream
                    .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
                    .is_err()
            {
                return Err(ReadFailure::Disconnected);
            }
            body.resize(head.content_length, 0);
            if self.stream.read_exact(&mut body[buffered..]).is_err() {
                return Err(ReadFailure::Malformed("connection closed mid-body"));
            }
        }
        self.buf.copy_within(body_end..self.len, 0);
        self.len -= body_end;

        let request = Request {
            method: head.method,
            path: head.path,
            query: head.query,
            params: Vec::new(),
            body,
        };
        Ok((request, head.keep_alive))
    }

    /// Runs on a worker: answers the requests this connection has bytes
    /// for, then closes it or parks it.
    fn serve(mut self) {
        loop {
            let (response, keep_alive) = match self.read_request() {
                Ok((mut request, keep_alive)) => {
                    (self.shared.router.dispatch(&mut request), keep_alive)
                }
                Err(failure) => match failure.response() {
                    Some(response) => (response, false),
                    None => return,
                },
            };
            // A connection kept open across `Drop` would outlive the server.
            let keep_alive = keep_alive && !self.shared.stop.load(Ordering::Acquire);
            if response.write_to(&mut self.stream, keep_alive).is_err() || !keep_alive {
                return;
            }
            if self.len == 0 {
                return self.park();
            }
        }
    }

    /// Hands an idle connection to its parking thread, starting the thread
    /// the first time. If that fails the connection closes, which a client
    /// of a persistent connection must expect at any time.
    fn park(mut self) {
        if let Some(parker) = self.parker.clone() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "the parking thread is gone only if it panicked; the connection comes back in the error and closes"
            )]
            let _ = parker.send(self);
            return;
        }
        let (parker, returned) = mpsc::channel();
        self.parker = Some(parker);
        let shared = Arc::clone(&self.shared);
        let spawned = std::thread::Builder::new()
            .name("minispark-http-park".to_string())
            .spawn(move || self.park_until_closed(&returned));
        if let Ok(handle) = spawned {
            shared
                .open
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .parkers
                .push(handle);
        }
    }

    /// The parking thread: waits for the next byte, queues the connection
    /// for a worker, waits to get it back. Ends with the connection.
    fn park_until_closed(mut self, returned: &mpsc::Receiver<Connection>) {
        let pool = self.pool.clone();
        while self.wait_readable() {
            if pool.send(self).is_err() {
                return;
            }
            // The worker either parks the connection again or drops it, and
            // with it the only sender of this channel.
            match returned.recv() {
                Ok(connection) => self = connection,
                Err(_) => return,
            }
        }
    }

    /// Blocks until there is a byte to read. `false` when the peer closed,
    /// the socket failed or was shut down, or [`IDLE_TIMEOUT`] passed.
    fn wait_readable(&self) -> bool {
        let idle_since = Instant::now();
        loop {
            match self.stream.peek(&mut [0u8; 1]) {
                Ok(0) => return false,
                Ok(_) => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // One read timeout ([`IO_TIMEOUT`]) passed in silence.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if idle_since.elapsed() >= IDLE_TIMEOUT {
                        return false;
                    }
                }
                Err(_) => return false,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// HttpServer: acceptor + fixed worker pool + parking threads
// ---------------------------------------------------------------------------

/// A blocking HTTP/1.1 server with persistent connections: one acceptor
/// thread, a fixed pool of `workers` threads that read requests and run
/// handlers, and one parking thread per idle persistent connection. Binds on
/// construction, serves until drop.
///
/// * **`workers` bounds handlers, not connections.** At most `workers`
///   requests are being read, handled or answered at once, and handlers run
///   on those threads only. A connection occupies a worker from its first
///   readable byte to the end of its response (and on through requests it
///   has already pipelined), so a slow or stalled client holds one worker
///   for at most the 2 s socket timeout, not the server. Between requests
///   a connection waits on its parking thread, so more open connections
///   than workers never starve one another.
/// * **Open connections are capped** at [`MAX_OPEN_CONNECTIONS`]; past the
///   cap a new connection is answered `503` with `Retry-After: 1` by the
///   acceptor and closed, without waiting for a worker.
/// * **Timeouts.** 2 s for a read or write in the middle of a request; 6 s
///   of silence between requests closes a persistent connection.
/// * **Drop** stops accepting, shuts down every open connection — idle
///   ones at once, busy ones as their handler returns — and joins every
///   thread it started.
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `127.0.0.1:port` (`port = 0` picks an ephemeral port, exposed
    /// via [`HttpServer::addr`]) and starts `workers` worker threads
    /// (minimum 1) serving `router`.
    ///
    /// # Errors
    ///
    /// Returns the bind error (port in use, permission) — callers treat a
    /// failed endpoint as non-fatal and run without one.
    pub fn start(port: u16, router: Router, workers: usize) -> std::io::Result<Self> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, port))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            router,
            stop: AtomicBool::new(false),
            open: Mutex::default(),
        });
        // The queue disconnects — and the workers leave — once the acceptor
        // is gone and every connection, each holding a sender, is closed.
        let (pool, queue) = mpsc::channel::<Connection>();
        let queue = Arc::new(Mutex::new(queue));

        let mut worker_handles = Vec::with_capacity(workers.max(1));
        for i in 0..workers.max(1) {
            let queue = Arc::clone(&queue);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("minispark-http-{i}"))
                    .spawn(move || loop {
                        // locks(one idle worker blocks in recv while holding the receiver mutex — the guard IS the queue discipline, not contention)
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).recv();
                        match next {
                            Ok(connection) => connection.serve(),
                            Err(_) => break,
                        }
                    })?,
            );
        }

        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("minispark-http-accept".to_string())
            .spawn(move || {
                for (id, stream) in (0u64..).zip(listener.incoming()) {
                    if acceptor_shared.stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let Some(connection) = admit(id, stream, &acceptor_shared, &pool) else {
                        continue;
                    };
                    if pool.send(connection).is_err() {
                        break;
                    }
                }
            })?;

        Ok(Self {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The bound address (useful with `port = 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Runs on the acceptor: registers a new connection, or refuses it with
/// `503` when [`MAX_OPEN_CONNECTIONS`] are open. Also joins the parking
/// threads that have ended since the last call.
fn admit(
    id: u64,
    mut stream: TcpStream,
    shared: &Arc<Shared>,
    pool: &mpsc::Sender<Connection>,
) -> Option<Connection> {
    stream.set_nodelay(true).ok()?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).ok()?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).ok()?;
    let socket = stream.try_clone().ok()?;
    let (admitted, ended) = {
        let mut open = shared.open.lock().unwrap_or_else(PoisonError::into_inner);
        let (ended, running): (Vec<_>, Vec<_>) = std::mem::take(&mut open.parkers)
            .into_iter()
            .partition(JoinHandle::is_finished);
        open.parkers = running;
        let admitted = open.sockets.len() < MAX_OPEN_CONNECTIONS;
        if admitted {
            open.sockets.insert(id, socket);
        }
        (admitted, ended)
    };
    for handle in ended {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "Err means the parking thread panicked; its connection closed with it and the acceptor keeps serving"
        )]
        let _ = handle.join();
    }
    if !admitted {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a client that is already gone needs no refusal"
        )]
        let _ = stream.write_all(OVERLOADED);
        return None;
    }
    Some(Connection {
        id,
        stream,
        buf: vec![0u8; MAX_HEAD_BYTES],
        len: 0,
        shared: Arc::clone(shared),
        pool: pool.clone(),
        parker: None,
    })
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "self-connection only unblocks the accept loop; on failure the timeout covers us"
        )]
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(handle) = self.acceptor.take() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "Err means the acceptor thread panicked; Drop must not double-panic"
            )]
            let _ = handle.join();
        }
        // No connection is admitted any more. Shutting the open ones down
        // fails every read, write and peek on them from here on, so parked
        // connections close now and busy ones when their handler returns.
        {
            let open = self
                .shared
                .open
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for socket in open.sockets.values() {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "the peer may have reset the connection already; either way nothing blocks on it any longer"
                )]
                let _ = socket.shutdown(Shutdown::Both);
            }
        }
        for handle in self.workers.drain(..) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "Err means a worker thread panicked; Drop must not double-panic"
            )]
            let _ = handle.join();
        }
        // The workers have left, so every connection is closed and every
        // parking thread is past its loop.
        let parkers = std::mem::take(
            &mut self
                .shared
                .open
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .parkers,
        );
        for handle in parkers {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "Err means a parking thread panicked; Drop must not double-panic"
            )]
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// LiveServer: the read-only metrics plane on top of the router
// ---------------------------------------------------------------------------

/// Swappable handle to the registry a [`LiveServer`] serves. Cloning shares
/// the slot; [`TelemetrySource::set`] re-points every clone at once.
#[derive(Clone)]
pub struct TelemetrySource {
    registry: Arc<Mutex<TelemetryRegistry>>,
}

impl TelemetrySource {
    /// A source serving `registry` until re-pointed.
    pub fn new(registry: TelemetryRegistry) -> Self {
        Self {
            registry: Arc::new(Mutex::new(registry)),
        }
    }

    /// Re-points the source (and every server holding a clone) at
    /// `registry`.
    pub fn set(&self, registry: TelemetryRegistry) {
        *self.registry.lock().unwrap_or_else(PoisonError::into_inner) = registry;
    }

    fn current(&self) -> TelemetryRegistry {
        self.registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl std::fmt::Debug for TelemetrySource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySource")
            .field("enabled", &self.current().is_enabled())
            .finish()
    }
}

/// The blocking metrics endpoint. Binds on construction, serves on
/// background threads, shuts down (and joins) on drop.
pub struct LiveServer {
    inner: HttpServer,
}

impl LiveServer {
    /// Binds `127.0.0.1:port` (`port = 0` picks an ephemeral port, exposed
    /// via [`LiveServer::addr`]) and starts serving `source`.
    ///
    /// # Errors
    ///
    /// Returns the bind error (port in use, permission) — callers treat a
    /// failed endpoint as non-fatal and run without one.
    pub fn start(port: u16, source: TelemetrySource) -> std::io::Result<Self> {
        let mut router = Router::new();
        let metrics_source = source.clone();
        router.route("GET", "/metrics", move |_| {
            Response::with_content_type(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                metrics_source.current().snapshot().prometheus(),
            )
        });
        router.route("GET", "/snapshot", move |_| {
            Response::json(200, &source.current().snapshot().to_json())
        });
        // Two workers: a scrape is a few kilobytes, but a stalled scraper
        // must not freeze the plane for the next one.
        let inner = HttpServer::start(port, router, 2)?;
        Ok(Self { inner })
    }

    /// The bound address (useful with `port = 0`).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }
}

impl std::fmt::Debug for LiveServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveServer")
            .field("addr", &self.addr())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let raw = raw_request(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
        );
        split_response(&raw)
    }

    /// One request on a connection of its own, read to EOF: `request` must
    /// ask for `Connection: close` or be one the server closes after.
    fn raw_request(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("write request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    fn split_response(response: &str) -> (String, String) {
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a head/body split");
        (head.to_string(), body.to_string())
    }

    fn echo_router() -> Router {
        let mut router = Router::new();
        router.route("GET", "/ping", |_| Response::text(200, "pong\n"));
        router.route("POST", "/echo", |req: &Request| {
            Response::with_content_type(200, "application/octet-stream", req.body().to_vec())
        });
        router.route("DELETE", "/items/{id}", |req: &Request| {
            Response::text(200, format!("deleted {}\n", req.param("id").unwrap_or("?")))
        });
        router.route("GET", "/search", |req: &Request| {
            Response::text(
                200,
                format!(
                    "q={} n={}\n",
                    req.query("q").unwrap_or(""),
                    req.query("n").unwrap_or("-")
                ),
            )
        });
        router
    }

    #[test]
    fn serves_metrics_and_snapshot() {
        let reg = TelemetryRegistry::enabled();
        reg.counter("up_total").add(3);
        let server =
            LiveServer::start(0, TelemetrySource::new(reg.clone())).expect("ephemeral bind");
        let addr = server.addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert!(body.contains("# TYPE up_total counter"), "{body}");
        assert!(body.contains("up_total 3"), "{body}");

        reg.counter("up_total").add(2);
        let (_, body) = get(addr, "/metrics");
        assert!(body.contains("up_total 5"), "scrapes are live: {body}");

        let (head, body) = get(addr, "/snapshot");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        let doc = crate::json::Json::parse(&body).expect("valid JSON body");
        assert_eq!(
            doc.get("schema").and_then(crate::json::Json::as_str),
            Some("minispark/telemetry-snapshot/v1")
        );

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        // Known path, wrong method.
        let raw = raw_request(
            addr,
            "POST /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
    }

    #[test]
    fn source_can_be_repointed_between_runs() {
        let first = TelemetryRegistry::enabled();
        first.counter("runs_total").add(1);
        let source = TelemetrySource::new(first);
        let server = LiveServer::start(0, source.clone()).expect("ephemeral bind");

        let (_, body) = get(server.addr(), "/metrics");
        assert!(body.contains("runs_total 1"), "{body}");

        let second = TelemetryRegistry::enabled();
        second.counter("runs_total").add(42);
        source.set(second);
        let (_, body) = get(server.addr(), "/metrics");
        assert!(body.contains("runs_total 42"), "{body}");
    }

    #[test]
    fn drop_shuts_the_listener_down() {
        let server = LiveServer::start(0, TelemetrySource::new(TelemetryRegistry::disabled()))
            .expect("ephemeral bind");
        let addr = server.addr();
        drop(server);
        // The port is released: either connect fails or the read sees EOF
        // with no HTTP response.
        if let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            let mut out = String::new();
            let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
            let _ = stream.read_to_string(&mut out);
            assert!(!out.contains("HTTP/1.1 200"), "server still answering");
        }
    }

    #[test]
    fn post_bodies_round_trip_and_params_capture() {
        let server = HttpServer::start(0, echo_router(), 2).expect("ephemeral bind");
        let addr = server.addr();

        let body = "a ranking payload";
        let raw = raw_request(
            addr,
            &format!(
                "POST /echo HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        let (head, got) = split_response(&raw);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(got, body);

        let raw = raw_request(
            addr,
            "DELETE /items/42 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        let (head, got) = split_response(&raw);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(got, "deleted 42\n");

        let (head, got) = get(addr, "/search?q=abc&n=5");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(got, "q=abc n=5\n");

        // Missing query keys are None, empty query strings parse.
        let (_, got) = get(addr, "/search");
        assert_eq!(got, "q= n=-\n");

        // Keys, values and captures are percent-decoded; `+` is a space in
        // a query string and a plus in a path.
        let (_, got) = get(addr, "/search?q=1%2C2%2c3+%C3%A9&%6E=5");
        assert_eq!(got, "q=1,2,3 é n=5\n");
        let raw = raw_request(
            addr,
            "DELETE /items/a%20b+c HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(split_response(&raw).1, "deleted a b+c\n");
    }

    #[test]
    fn oversized_head_is_431_not_misrouted() {
        // Regression: the old reader parsed whatever fit in its 4 KiB
        // buffer, routing a request from a *truncated* head. A head that
        // never terminates within the cap must answer 431.
        let server = HttpServer::start(0, echo_router(), 1).expect("ephemeral bind");
        let huge = format!(
            "GET /ping HTTP/1.1\r\nHost: x\r\nX-Padding: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        // The server answers (and closes) as soon as the cap is exceeded —
        // possibly before the client finishes writing — so both the write
        // and the read tail are best-effort here.
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let _ = stream.write_all(huge.as_bytes());
        let mut out = Vec::new();
        let mut chunk = [0u8; 1024];
        while let Ok(n) = stream.read(&mut chunk) {
            if n == 0 {
                break;
            }
            out.extend_from_slice(&chunk[..n]);
        }
        let raw = String::from_utf8_lossy(&out);
        assert!(raw.starts_with("HTTP/1.1 431"), "{raw}");
    }

    #[test]
    fn garbage_and_truncated_requests_are_400() {
        let server = HttpServer::start(0, echo_router(), 1).expect("ephemeral bind");
        let addr = server.addr();

        // Garbage bytes: no valid request line.
        let raw = raw_request(addr, "\x01\x02\x03garbage\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");

        // A head cut off mid-line (EOF before \r\n\r\n).
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /ping HTTP/1.1\r\nHost: trunca")
            .expect("write");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown write half");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read response");
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");

        // Bad Content-Length.
        let raw = raw_request(
            addr,
            "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n",
        );
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");

        // Escapes that are truncated, not hex, or not UTF-8 once decoded.
        for target in [
            "/search?q=%",
            "/search?q=%4",
            "/search?q=%zz",
            "/search?%ff=1",
            "/items/%c3",
        ] {
            let raw = raw_request(addr, &format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n"));
            assert!(raw.starts_with("HTTP/1.1 400"), "{target}: {raw}");
            assert!(raw.contains("Connection: close"), "{target}: {raw}");
        }

        // An empty connection (connect, close) gets no response and, more
        // importantly, does not wedge the worker for the next client.
        drop(TcpStream::connect(addr).expect("connect"));
        let (head, _) = get(addr, "/ping");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    }

    #[test]
    fn oversized_body_is_413() {
        let server = HttpServer::start(0, echo_router(), 1).expect("ephemeral bind");
        let raw = raw_request(
            server.addr(),
            &format!(
                "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            ),
        );
        assert!(raw.starts_with("HTTP/1.1 413"), "{raw}");
    }

    #[test]
    fn slow_client_does_not_serialize_the_pool() {
        let server = HttpServer::start(0, echo_router(), 2).expect("ephemeral bind");
        let addr = server.addr();
        // A stalled client: connects, sends half a head, never finishes.
        let mut stalled = TcpStream::connect(addr).expect("connect");
        stalled
            .write_all(b"GET /ping HTTP/1.1\r\nHost:")
            .expect("write partial head");
        // With 2 workers the second one must answer immediately.
        let start = std::time::Instant::now();
        let (head, body) = get(addr, "/ping");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "pong\n");
        assert!(
            start.elapsed() < IO_TIMEOUT,
            "fast client waited on the stalled one: {:?}",
            start.elapsed()
        );
    }

    // -- connection lifecycle ------------------------------------------------

    /// A client that keeps its connection open and reads one response at a
    /// time off it.
    struct Persistent {
        reader: std::io::BufReader<TcpStream>,
    }

    impl Persistent {
        fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            Self {
                reader: std::io::BufReader::new(stream),
            }
        }

        fn send(&mut self, raw: &str) {
            self.reader
                .get_mut()
                .write_all(raw.as_bytes())
                .expect("write request");
        }

        /// One whole response: `(head, body)`.
        fn recv(&mut self) -> (String, String) {
            use std::io::BufRead as _;
            let mut head = String::new();
            while !head.ends_with("\r\n\r\n") {
                let n = self.reader.read_line(&mut head).expect("read head line");
                assert!(n > 0, "connection closed mid-head: {head:?}");
            }
            let length = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .map_or(0, |v| v.parse::<usize>().expect("numeric length"));
            let mut body = vec![0u8; length];
            self.reader.read_exact(&mut body).expect("read body");
            (head, String::from_utf8(body).expect("UTF-8 body"))
        }

        fn request(&mut self, raw: &str) -> (String, String) {
            self.send(raw);
            self.recv()
        }

        /// Whether the server has closed the connection (and sent nothing
        /// more before doing so).
        fn closed(&mut self) -> bool {
            match self.reader.read(&mut [0u8; 1]) {
                Ok(n) => n == 0,
                // Closed with bytes of ours unread.
                Err(e) => e.kind() == ErrorKind::ConnectionReset,
            }
        }
    }

    const PING: &str = "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n";

    fn echo(body: &str) -> String {
        format!(
            "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    /// Ids of the connections the server holds open. The acceptor numbers
    /// them from 0 in accept order.
    fn open_ids(server: &HttpServer) -> Vec<u64> {
        let mut ids: Vec<u64> = server
            .shared
            .open
            .lock()
            .unwrap()
            .sockets
            .keys()
            .copied()
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Polls `done` for up to five seconds.
    fn eventually(done: impl Fn() -> bool) -> bool {
        let start = Instant::now();
        while !done() {
            if start.elapsed() > Duration::from_secs(5) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    #[test]
    fn one_connection_serves_many_requests() {
        let server = HttpServer::start(0, echo_router(), 2).expect("ephemeral bind");
        let mut client = Persistent::connect(server.addr());
        for n in 0..25 {
            let (head, body) = match n % 4 {
                0 => client.request(PING),
                1 => client.request(&echo(&format!("payload {n}"))),
                2 => client.request("GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"),
                _ => client.request(&format!("DELETE /items/{n} HTTP/1.1\r\nHost: x\r\n\r\n")),
            };
            let (status, want) = match n % 4 {
                0 => ("200", "pong\n".to_string()),
                1 => ("200", format!("payload {n}")),
                2 => ("404", "no such endpoint\n".to_string()),
                _ => ("200", format!("deleted {n}\n")),
            };
            assert!(head.starts_with(&format!("HTTP/1.1 {status}")), "{head}");
            assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
            assert_eq!(body, want, "request {n}");
        }
        // One accept served them all.
        assert_eq!(open_ids(&server), [0]);
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let server = HttpServer::start(0, echo_router(), 1).expect("ephemeral bind");
        let mut client = Persistent::connect(server.addr());
        // Two requests in one write: the bytes past the first body are the
        // second request, not a 400.
        client.send(&format!("{}{PING}", echo("first")));
        let (head, body) = client.recv();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "first");
        let (head, body) = client.recv();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "pong\n");
        // A second request cut in the middle of its head, finished later.
        let (front, back) = PING.split_at(9);
        client.send(&format!("{PING}{front}"));
        assert_eq!(client.recv().1, "pong\n");
        client.send(back);
        assert_eq!(client.recv().1, "pong\n");
        assert_eq!(open_ids(&server), [0]);
    }

    #[test]
    fn close_and_http10_end_the_connection_after_one_response() {
        let server = HttpServer::start(0, echo_router(), 1).expect("ephemeral bind");
        for request in [
            "GET /ping HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            "GET /ping HTTP/1.1\r\nHost: x\r\nConnection: Keep-Alive, Close\r\n\r\n",
            "GET /ping HTTP/1.0\r\n\r\n",
        ] {
            let mut client = Persistent::connect(server.addr());
            let (head, body) = client.request(request);
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert!(head.contains("Connection: close\r\n"), "{head}");
            assert_eq!(body, "pong\n");
            assert!(client.closed(), "still open after {request:?}");
        }
        // HTTP/1.0 that asks for it keeps its connection.
        let mut client = Persistent::connect(server.addr());
        for _ in 0..2 {
            let (head, body) =
                client.request("GET /ping HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
            assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
            assert_eq!(body, "pong\n");
        }
    }

    #[test]
    fn unroutable_requests_close_a_persistent_connection() {
        let server = HttpServer::start(0, echo_router(), 1).expect("ephemeral bind");
        let unterminated_head = format!(
            "GET /ping HTTP/1.1\r\nX-Padding: {}",
            "y".repeat(MAX_HEAD_BYTES)
        );
        let cases = [
            ("400", "GET ping HTTP/1.1\r\n\r\n".to_string()),
            (
                "400",
                "POST /echo HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde"
                    .to_string(),
            ),
            (
                "413",
                format!(
                    "POST /echo HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    MAX_BODY_BYTES + 1
                ),
            ),
            // Exactly the cap, so nothing is left unread when the server closes.
            ("431", unterminated_head[..MAX_HEAD_BYTES].to_string()),
            (
                "501",
                "POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
                    .to_string(),
            ),
        ];
        for (status, request) in cases {
            let mut client = Persistent::connect(server.addr());
            assert_eq!(client.request(PING).1, "pong\n");
            let (head, _) = client.request(&request);
            assert!(head.starts_with(&format!("HTTP/1.1 {status}")), "{head}");
            assert!(head.contains("Connection: close\r\n"), "{head}");
            // Nothing after the error: a smuggled second request (the
            // chunked body, the 5-byte tail) is never answered.
            assert!(client.closed(), "{status} left the connection open");
        }
        // Two Content-Lengths that agree are one Content-Length.
        let mut client = Persistent::connect(server.addr());
        let (head, body) = client
            .request("POST /echo HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok");
    }

    #[test]
    fn expect_continue_gets_its_interim_response() {
        let server = HttpServer::start(0, echo_router(), 1).expect("ephemeral bind");
        let mut client = Persistent::connect(server.addr());
        client.send(
            "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n",
        );
        // The go-ahead arrives while the body is still unsent.
        let (head, body) = client.recv();
        assert_eq!(head, "HTTP/1.1 100 Continue\r\n\r\n");
        assert_eq!(body, "");
        client.send("hello");
        let (head, body) = client.recv();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "hello");
        assert_eq!(client.request(PING).1, "pong\n");
    }

    #[test]
    fn more_connections_than_workers_all_make_progress() {
        const WORKERS: usize = 2;
        const BUSY: usize = WORKERS + 2;
        const REQUESTS: usize = 200;
        let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let mut router = Router::new();
        let handler_seen = Arc::clone(&seen);
        router.route("GET", "/who", move |_| {
            let thread = std::thread::current();
            let name = thread.name().unwrap_or("").to_string();
            handler_seen.lock().unwrap().insert((thread.id(), name));
            Response::text(200, "ok\n")
        });
        let server = HttpServer::start(0, router, WORKERS).expect("ephemeral bind");
        let addr = server.addr();
        let who = "GET /who HTTP/1.1\r\nHost: x\r\n\r\n";

        // Two connections that stay open and silent the whole time.
        let mut idle: Vec<Persistent> = (0..2).map(|_| Persistent::connect(addr)).collect();
        for client in &mut idle {
            assert_eq!(client.request(who).1, "ok\n");
        }
        // Every busy connection must reach each barrier before any may go
        // on: a server that served them `WORKERS` at a time, one after the
        // other, would leave the rest waiting here until their reads time
        // out.
        let barrier = std::sync::Barrier::new(BUSY);
        std::thread::scope(|scope| {
            for _ in 0..BUSY {
                scope.spawn(|| {
                    let mut client = Persistent::connect(addr);
                    for n in 0..REQUESTS {
                        if n % 20 == 0 {
                            barrier.wait();
                        }
                        let (head, body) = client.request(who);
                        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                        assert_eq!(body, "ok\n");
                    }
                });
            }
        });
        for client in &mut idle {
            assert_eq!(client.request(who).1, "ok\n", "idle connection was dropped");
        }

        let seen = seen.lock().unwrap();
        assert!(seen.len() <= WORKERS, "handlers ran on {seen:?}");
        for (_, name) in seen.iter() {
            assert!(
                name.starts_with("minispark-http-")
                    && name["minispark-http-".len()..].parse::<usize>().is_ok(),
                "handler ran on {name:?}, not a pool thread"
            );
        }
    }

    #[test]
    fn a_silent_connection_is_closed_and_its_parking_thread_ends() {
        let server = HttpServer::start(0, echo_router(), 1).expect("ephemeral bind");
        let mut client = Persistent::connect(server.addr());
        assert_eq!(client.request(PING).1, "pong\n");
        let idle_since = Instant::now();
        // The response is out before the worker parks the connection.
        assert!(eventually(|| server
            .shared
            .open
            .lock()
            .unwrap()
            .parkers
            .len()
            == 1));
        assert!(client.closed(), "bytes or a read timeout instead of EOF");
        let idle = idle_since.elapsed();
        assert!(
            idle >= IDLE_TIMEOUT - Duration::from_millis(100) && idle < IDLE_TIMEOUT + IO_TIMEOUT,
            "closed after {idle:?}"
        );
        assert!(eventually(|| {
            let open = server.shared.open.lock().unwrap();
            open.sockets.is_empty() && open.parkers.iter().all(JoinHandle::is_finished)
        }));
        // The next accept joins it.
        assert_eq!(get(server.addr(), "/ping").1, "pong\n");
        assert!(server.shared.open.lock().unwrap().parkers.is_empty());
    }

    #[test]
    fn connections_past_the_cap_are_refused_by_the_acceptor() {
        let server = HttpServer::start(0, echo_router(), 2).expect("ephemeral bind");
        let addr = server.addr();
        // Silent connections: the first two pin both workers (for up to
        // IO_TIMEOUT), the rest wait in the queue. All count as open.
        let held: Vec<TcpStream> = (0..MAX_OPEN_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        // The refusal needs no worker: it arrives while both are pinned.
        let mut refused = Persistent::connect(addr);
        let (head, body) = refused.recv();
        assert!(
            head.starts_with("HTTP/1.1 503 Service Unavailable"),
            "{head}"
        );
        assert!(head.contains("Retry-After: 1\r\n"), "{head}");
        assert!(head.contains("Connection: close\r\n"), "{head}");
        assert_eq!(body, "too many open connections\n");
        assert!(refused.closed());
        assert_eq!(open_ids(&server).len(), MAX_OPEN_CONNECTIONS);

        // Closing them frees the slots.
        drop(held);
        assert!(eventually(|| open_ids(&server).is_empty()));
        assert_eq!(get(addr, "/ping").1, "pong\n");
    }

    #[test]
    fn drop_returns_promptly_with_idle_connections_attached() {
        let server = HttpServer::start(0, echo_router(), 2).expect("ephemeral bind");
        let mut clients: Vec<Persistent> =
            (0..2).map(|_| Persistent::connect(server.addr())).collect();
        for client in &mut clients {
            let (head, _) = client.request(PING);
            assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
        }
        let start = Instant::now();
        drop(server);
        let took = start.elapsed();
        assert!(took < Duration::from_millis(250), "drop took {took:?}");
        for client in &mut clients {
            assert!(client.closed());
        }
    }
}
