//! PlanDoctor over a socket: a hand-rolled HTTP/1.1 server and a blocking
//! client, both speaking persistent connections.
//!
//! No async runtime — the service's concurrency model is already
//! thread-per-query bounded by the [`AdmissionGate`](crate::AdmissionGate),
//! so the server is a `std::net` accept loop that hands each connection to
//! a thread of its own. Backpressure composes naturally: a connection
//! thread blocks (or is shed) in `submit` exactly like an in-process
//! caller, and the gate's permit ceiling bounds the planning/execution
//! concurrency no matter how many connections arrive.
//!
//! # Routes
//!
//! | route            | body                                | reply |
//! |------------------|-------------------------------------|-------|
//! | `POST /plan`     | [`PlanRequest`] JSON                | [`PlanReply`] JSON |
//! | `GET /metrics`   | —                                   | [`MetricsSnapshot`](crate::MetricsSnapshot) JSON + connection counters |
//! | `GET /healthz`   | —                                   | `{status, generation, queries}` |
//! | `POST /publish`  | raw snapshot bytes ([`PlannerSnapshot::to_bytes`]) | `{generation}` |
//!
//! `POST /plan` also accepts `x-foss-priority`, `x-foss-deadline-us` and
//! `x-foss-planning-budget-us` headers; JSON body fields win when both are
//! present. Errors use the wire contract in [`crate::wire`].
//!
//! # Connection lifecycle
//!
//! A connection thread loops *read request → route → write response* and
//! answers `connection: keep-alive` until one of these ends it:
//!
//! * the peer closes, or nothing arrives for `IO_TIMEOUT` (30 s), *between*
//!   requests — closed silently;
//! * the request says `connection: close` or is not HTTP/1.1 — answered
//!   with `connection: close`, then closed;
//! * the request cannot be framed (malformed head, bad or conflicting
//!   `content-length`, oversize body, EOF or a stall inside a request) — the
//!   position in the byte stream is unknowable, so the typed error is
//!   answered with `connection: close`, then closed. A request that frames
//!   but fails later (bad JSON, unknown route, shed) keeps the connection;
//! * [`PlanServer::shutdown`] — the request in flight, if any, is answered
//!   with `connection: close`; idle connections are closed at once.
//!
//! Bytes that arrive past a request's `content-length` belong to the next
//! request (pipelining is answered in order). Every message, either
//! direction, leaves in one `write_all` on a `TCP_NODELAY` socket: a head
//! and body written separately cost a Nagle/delayed-ACK stall of ~40 ms on
//! a reused connection.
//!
//! `GET /metrics` reports `connections_accepted`, `connections_open` and
//! `requests_served`, so the reuse ratio is visible from outside.

use std::cell::RefCell;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use foss_common::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use foss_common::sync::Mutex;
use foss_common::{FossError, Result};
use foss_core::PlannerSnapshot;
use foss_query::Query;

use crate::json::Json;
use crate::wire::{metrics_to_json, parse_priority, PlanReply, PlanRequest, WireError};
use crate::{PlanDoctor, QueryRequest};

/// Header-section ceiling; larger requests are rejected as malformed.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Body ceiling (snapshot publishes are the big case).
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// Socket timeout on both sides of the wire; on the server it is also how
/// long an idle connection is kept.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Idle connections one thread keeps parked, over all servers it talks to.
const MAX_PARKED: usize = 8;

/// The live connections of a server: what shutdown must close and join.
///
/// `C` is whatever closes a connection (the server keeps a clone of the
/// `TcpStream`), `H` the join handle of its thread. Generic so that the
/// register / finish / close protocol is model-checked with `foss_check`
/// threads — the checked code is exactly what serves.
///
/// A handle is in exactly one place at a time — with its live connection or
/// in the finished list — and leaves through [`ConnRegistry::reap`] or
/// [`ConnRegistry::close`] exactly once, so none is lost or joined twice.
pub struct ConnRegistry<C, H> {
    inner: Mutex<Registry<C, H>>,
}

struct Registry<C, H> {
    closed: bool,
    next_id: u64,
    live: Vec<(u64, C, H)>,
    finished: Vec<H>,
}

impl<C, H> Default for ConnRegistry<C, H> {
    fn default() -> Self {
        Self {
            inner: Mutex::new(Registry {
                closed: false,
                next_id: 0,
                live: Vec::new(),
                finished: Vec::new(),
            }),
        }
    }
}

impl<C, H> ConnRegistry<C, H> {
    /// Register `conn` and start its thread with `start(id)`; the thread
    /// calls [`ConnRegistry::finish`] with that id as its last act. The
    /// lock is held across `start`, so `finish` cannot overtake the
    /// registration. Returns `false` (and drops `conn`) once closed.
    pub fn spawn(&self, conn: C, start: impl FnOnce(u64) -> H) -> bool {
        let mut reg = self.inner.lock();
        if reg.closed {
            return false;
        }
        let id = reg.next_id;
        reg.next_id += 1;
        let handle = start(id);
        reg.live.push((id, conn, handle));
        true
    }

    /// Connection `id` is done: drop its closer, keep its handle for
    /// [`ConnRegistry::reap`]. A no-op after [`ConnRegistry::close`] took
    /// the connection.
    pub fn finish(&self, id: u64) {
        let mut reg = self.inner.lock();
        if let Some(at) = reg.live.iter().position(|(live, _, _)| *live == id) {
            let (_, _, handle) = reg.live.swap_remove(at);
            reg.finished.push(handle);
        }
    }

    /// Handles of finished connections, for the caller to join.
    pub fn reap(&self) -> Vec<H> {
        std::mem::take(&mut self.inner.lock().finished)
    }

    /// Refuse new connections, `shut` every live one and hand back every
    /// handle not yet reaped, for the caller to join.
    pub fn close(&self, shut: impl Fn(&C)) -> Vec<H> {
        let mut reg = self.inner.lock();
        reg.closed = true;
        let mut handles = std::mem::take(&mut reg.finished);
        for (_, conn, handle) in reg.live.drain(..) {
            shut(&conn);
            handles.push(handle);
        }
        handles
    }

    /// Connections registered and not yet finished.
    pub fn open(&self) -> usize {
        self.inner.lock().live.len()
    }
}

/// A running serving endpoint. Dropping it (or calling
/// [`PlanServer::shutdown`]) stops the accept loop, closes idle
/// connections, lets a request in flight finish, and joins every thread.
pub struct PlanServer {
    addr: SocketAddr,
    state: Arc<ServeState>,
    accept: Option<JoinHandle<()>>,
}

/// What the connection threads share: the doctor, the query pool it
/// serves, and the server's own bookkeeping.
struct ServeState {
    doctor: Arc<PlanDoctor>,
    pool: Vec<Query>,
    /// How long a connection may sit without a byte arriving.
    idle_timeout: Duration,
    stop: AtomicBool,
    conns: ConnRegistry<TcpStream, JoinHandle<()>>,
    connections_accepted: AtomicU64,
    requests_served: AtomicU64,
}

impl PlanServer {
    /// Bind `bind` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving `doctor` over `pool` — the workload's query list, which
    /// `POST /plan` bodies index into.
    pub fn start(doctor: Arc<PlanDoctor>, pool: Vec<Query>, bind: &str) -> Result<PlanServer> {
        Self::start_with_idle_timeout(doctor, pool, bind, IO_TIMEOUT)
    }

    fn start_with_idle_timeout(
        doctor: Arc<PlanDoctor>,
        pool: Vec<Query>,
        bind: &str,
        idle_timeout: Duration,
    ) -> Result<PlanServer> {
        let listener = TcpListener::bind(bind)
            .map_err(|e| FossError::Transient(format!("cannot bind {bind}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| FossError::Transient(format!("no local addr: {e}")))?;
        let state = Arc::new(ServeState {
            doctor,
            pool,
            idle_timeout,
            stop: AtomicBool::new(false),
            conns: ConnRegistry::default(),
            connections_accepted: AtomicU64::new(0),
            requests_served: AtomicU64::new(0),
        });
        let accept = {
            let state = state.clone();
            std::thread::spawn(move || accept_loop(&state, &listener))
        };
        Ok(PlanServer {
            addr,
            state,
            accept: Some(accept),
        })
    }

    /// The bound address (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A client pointed at this server.
    pub fn client(&self) -> PlanClient {
        PlanClient::new(self.addr)
    }

    /// Stop accepting, close every connection and join every thread. A
    /// request in flight is answered first; an idle (parked) connection is
    /// closed at once.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.state.stop.store(true, Ordering::Release);
        // Wake the blocking `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Closing the read half turns a connection thread's blocked `read`
        // into EOF and still lets it write the reply it is working on.
        let handles = self.state.conns.close(|stream| {
            let _ = stream.shutdown(Shutdown::Read);
        });
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for PlanServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(state: &Arc<ServeState>, listener: &TcpListener) {
    for conn in listener.incoming() {
        if state.stop.load(Ordering::Acquire) {
            break;
        }
        for done in state.conns.reap() {
            let _ = done.join();
        }
        let Ok(stream) = conn else { continue };
        let Ok(closer) = stream.try_clone() else {
            continue;
        };
        // Relaxed: a statistic, it publishes nothing else.
        state.connections_accepted.fetch_add(1, Ordering::Relaxed);
        let conn_state = state.clone();
        state.conns.spawn(closer, move |id| {
            std::thread::spawn(move || {
                serve_connection(&conn_state, stream);
                conn_state.conns.finish(id);
            })
        });
    }
}

/// One HTTP message off the wire, request or response.
struct Message {
    start_line: String,
    /// Header names lowercased.
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Message {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the sender wants the connection kept after this message:
    /// HTTP/1.1 without a `connection: close` token.
    fn keep_alive(&self, version: Option<&str>) -> bool {
        version == Some("HTTP/1.1")
            && !self.header("connection").is_some_and(|v| {
                v.split(',')
                    .any(|token| token.trim().eq_ignore_ascii_case("close"))
            })
    }
}

/// One parsed HTTP request.
struct Request {
    method: String,
    path: String,
    keep_alive: bool,
    message: Message,
}

impl Request {
    fn from_message(message: Message) -> Result<Request> {
        let mut parts = message.start_line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| FossError::Serde("missing method".into()))?
            .to_string();
        let path = parts
            .next()
            .ok_or_else(|| FossError::Serde("missing path".into()))?
            .to_string();
        let keep_alive = message.keep_alive(parts.next());
        Ok(Request {
            method,
            path,
            keep_alive,
            message,
        })
    }

    fn header(&self, name: &str) -> Option<&str> {
        self.message.header(name)
    }
}

fn serve_connection(state: &ServeState, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(state.idle_timeout));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut wire = MessageReader::new(stream, "request");
    loop {
        let request = match wire.read_message() {
            Ok(message) => Request::from_message(message),
            // Closed or idle between requests: nobody is waiting for a reply.
            Err(ReadError::Quiet(_)) => return,
            Err(e) => Err(e.into_error()),
        };
        // A request that could not be framed leaves the stream position
        // unknowable: answer it, then close.
        let (status, body, keep_alive) = match request {
            Ok(req) => {
                // Relaxed: a statistic, it publishes nothing else.
                state.requests_served.fetch_add(1, Ordering::Relaxed);
                let (status, body) = route(state, &req).unwrap_or_else(|e| {
                    let w = WireError::from_error(&e);
                    (w.status, w.body())
                });
                let keep = req.keep_alive && !state.stop.load(Ordering::Acquire);
                (status, body, keep)
            }
            Err(e) => {
                let w = WireError::from_error(&e);
                (w.status, w.body(), false)
            }
        };
        if write_response(&wire.inner, status, &body, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Dispatch a request. `Ok` carries a ready response (success *or* wire
/// error); `Err` means "map this [`FossError`] onto the wire".
fn route(state: &ServeState, req: &Request) -> Result<(u16, Json)> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Ok((
            200,
            Json::obj(vec![
                ("status", Json::str("ok")),
                (
                    "generation",
                    Json::u64_str(state.doctor.snapshot_generation()),
                ),
                ("queries", Json::num(state.pool.len() as f64)),
            ]),
        )),
        ("GET", "/metrics") => {
            let mut metrics = metrics_to_json(&state.doctor.metrics());
            if let Json::Obj(fields) = &mut metrics {
                let count = |v: u64| Json::num(v as f64);
                let accepted = state.connections_accepted.load(Ordering::Relaxed);
                let served = state.requests_served.load(Ordering::Relaxed);
                fields.push(("connections_accepted".into(), count(accepted)));
                fields.push(("connections_open".into(), count(state.conns.open() as u64)));
                fields.push(("requests_served".into(), count(served)));
            }
            Ok((200, metrics))
        }
        ("POST", "/plan") => {
            let wire_req = parse_plan_request(req)?;
            let query = state.pool.get(wire_req.query).ok_or_else(|| {
                FossError::UnknownName(format!(
                    "pool query {} (pool holds {})",
                    wire_req.query,
                    state.pool.len()
                ))
            })?;
            let mut submit = QueryRequest::new(query.clone());
            if let Some(p) = wire_req.priority {
                submit = submit.with_priority(p);
            }
            if let Some(d) = wire_req.deadline_us {
                submit = submit.with_deadline_us(d);
            }
            if let Some(b) = wire_req.planning_budget_us {
                submit = submit.with_planning_budget_us(b);
            }
            let decision = state.doctor.submit(submit)?;
            let generation = state.doctor.snapshot_generation();
            Ok((
                200,
                PlanReply::from_decision(&decision, generation).to_json(),
            ))
        }
        ("POST", "/publish") => {
            let current = state.doctor.snapshot();
            let snapshot =
                PlannerSnapshot::from_bytes(&req.message.body, current.optimizer().clone())?;
            state.doctor.publish(snapshot)?;
            Ok((
                200,
                Json::obj(vec![(
                    "generation",
                    Json::u64_str(state.doctor.snapshot_generation()),
                )]),
            ))
        }
        (method, path) => {
            let w = WireError::protocol(
                404,
                "unknown_route",
                format!(
                    "no route {method} {path}; valid: POST /plan, GET /metrics, \
                     GET /healthz, POST /publish"
                ),
            );
            Ok((w.status, w.body()))
        }
    }
}

/// Merge the JSON body with the `x-foss-*` headers (body fields win).
fn parse_plan_request(req: &Request) -> Result<PlanRequest> {
    let body = std::str::from_utf8(&req.message.body)
        .map_err(|_| FossError::Serde("request body is not UTF-8".into()))?;
    let mut wire_req = PlanRequest::from_json(&Json::parse(body)?)?;
    if wire_req.priority.is_none() {
        if let Some(p) = req.header("x-foss-priority") {
            wire_req.priority = Some(parse_priority(p)?);
        }
    }
    let header_num = |name: &str| -> Result<Option<f64>> {
        match req.header(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| FossError::Serde(format!("header {name} must be a number"))),
        }
    };
    if wire_req.deadline_us.is_none() {
        wire_req.deadline_us = header_num("x-foss-deadline-us")?;
    }
    if wire_req.planning_budget_us.is_none() {
        wire_req.planning_budget_us = header_num("x-foss-planning-budget-us")?;
    }
    Ok(wire_req)
}

/// Why [`MessageReader::read_message`] produced no message.
#[derive(Debug)]
enum ReadError {
    /// Nothing arrived: the peer closed (`None`), or the socket timed out
    /// or failed, before the first byte of a message.
    Quiet(Option<std::io::Error>),
    /// The socket failed inside a message.
    Io(std::io::Error),
    /// The bytes are not a well-framed message (EOF inside one included).
    Malformed(String),
}

impl ReadError {
    fn into_error(self) -> FossError {
        match self {
            ReadError::Quiet(None) => FossError::Transient("connection closed by peer".into()),
            ReadError::Quiet(Some(e)) | ReadError::Io(e) => {
                FossError::Transient(format!("socket read: {e}"))
            }
            ReadError::Malformed(what) => FossError::Serde(what),
        }
    }
}

/// Frames HTTP messages off a byte stream, carrying bytes read past the end
/// of one message into the next.
struct MessageReader<R> {
    inner: R,
    /// Read from `inner`, not yet part of a returned message.
    buf: Vec<u8>,
    /// `"request"` or `"response"`, for error texts.
    what: &'static str,
}

impl<R: Read> MessageReader<R> {
    fn new(inner: R, what: &'static str) -> Self {
        Self {
            inner,
            buf: Vec::with_capacity(1024),
            what,
        }
    }

    /// Read into `buf`; `Ok(false)` on EOF.
    fn fill(&mut self) -> std::io::Result<bool> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.inner.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn read_message(&mut self) -> std::result::Result<Message, ReadError> {
        let malformed = ReadError::Malformed;
        let header_end = loop {
            if let Some(pos) = find_terminator(&self.buf) {
                break pos;
            }
            if self.buf.len() > MAX_HEADER_BYTES {
                return Err(malformed(format!("{} header section too large", self.what)));
            }
            let quiet = self.buf.is_empty();
            match self.fill() {
                Ok(true) => {}
                Ok(false) if quiet => return Err(ReadError::Quiet(None)),
                Ok(false) => return Err(malformed(format!("connection closed mid-{}", self.what))),
                Err(e) if quiet => return Err(ReadError::Quiet(Some(e))),
                Err(e) => return Err(ReadError::Io(e)),
            }
        };
        let head = std::str::from_utf8(&self.buf[..header_end])
            .map_err(|_| malformed(format!("{} head is not UTF-8", self.what)))?;
        let mut lines = head.split("\r\n");
        let start_line = lines.next().unwrap_or("").to_string();
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| malformed(format!("malformed header `{line}`")))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        // Duplicate `content-length` headers with conflicting values are the
        // classic request-smuggling ambiguity: a proxy that honours the first
        // and a server that honours the last disagree on where the body ends.
        // Agreeing duplicates are tolerated (RFC 9112 §6.3 lets a recipient
        // collapse them); conflicting ones are rejected outright.
        let mut content_length: Option<usize> = None;
        for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
            let parsed: usize = v
                .parse()
                .map_err(|_| malformed("bad content-length".into()))?;
            match content_length {
                Some(prev) if prev != parsed => {
                    return Err(malformed(format!(
                        "conflicting content-length headers: {prev} vs {parsed}"
                    )));
                }
                _ => content_length = Some(parsed),
            }
        }
        let content_length = content_length.unwrap_or(0);
        if content_length > MAX_BODY_BYTES {
            return Err(malformed(format!(
                "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )));
        }
        let body_start = header_end + 4;
        let end = body_start + content_length;
        while self.buf.len() < end {
            match self.fill() {
                Ok(true) => {}
                Ok(false) => return Err(malformed("connection closed mid-body".into())),
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
        let body = self.buf[body_start..end].to_vec();
        // What follows is the start of the next message.
        self.buf.drain(..end);
        Ok(Message {
            start_line,
            headers,
            body,
        })
    }
}

/// Position of the `\r\n\r\n` header terminator, if present.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Error",
    }
}

fn write_response(
    mut stream: &TcpStream,
    status: u16,
    body: &Json,
    keep_alive: bool,
) -> std::io::Result<()> {
    let payload = body.to_string();
    let mut message = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: {}\r\n\r\n",
        status_text(status),
        payload.len(),
        if keep_alive { "keep-alive" } else { "close" }
    );
    message.push_str(&payload);
    stream.write_all(message.as_bytes())
}

/// The typed outcome of a `POST /plan` round trip.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOutcome {
    /// The service planned and executed the query.
    Decision(PlanReply),
    /// The service refused the request with a wire error (shed, bad index,
    /// expired budget upstream, ...).
    Rejected(Rejection),
}

/// A wire error as seen by the client.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// HTTP status.
    pub status: u16,
    /// Machine-readable error class (see [`crate::wire`]).
    pub code: String,
    /// Whether resending the same request can succeed.
    pub retryable: bool,
    /// Human-readable detail.
    pub message: String,
}

thread_local! {
    /// Idle keep-alive connections of this thread's [`PlanClient`] calls,
    /// oldest first. Per thread, so the request path takes no lock and a
    /// `PlanClient` stays a plain address; the sockets close when the
    /// thread exits.
    static PARKED: RefCell<Vec<(SocketAddr, MessageReader<TcpStream>)>> =
        const { RefCell::new(Vec::new()) };
}

/// A blocking HTTP client for the serving API.
///
/// The value itself is only the server's address (`Copy`, shareable across
/// threads); connections are kept per *calling thread*: after a reply the
/// connection is parked, and the thread's next call to the same address
/// reuses it. If a reused connection turns out to have been closed by the
/// server (restart, idle timeout) — the send fails or the connection ends
/// before the first byte of a reply — the request is sent once more on a
/// fresh connection. Once a reply has started, or on a fresh connection,
/// a failure is returned, never retried.
#[derive(Debug, Clone, Copy)]
pub struct PlanClient {
    addr: SocketAddr,
}

impl PlanClient {
    /// A client for the server at `addr`.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr }
    }

    /// Resolve `host:port` and build a client (first address wins).
    pub fn connect(host_port: &str) -> Result<Self> {
        let addr = host_port
            .to_socket_addrs()
            .map_err(|e| FossError::Transient(format!("cannot resolve {host_port}: {e}")))?
            .next()
            .ok_or_else(|| FossError::Transient(format!("{host_port} resolves to nothing")))?;
        Ok(Self::new(addr))
    }

    /// `POST /plan`. Transport and protocol failures are `Err`; a served
    /// decision or a typed wire rejection both come back as `Ok`.
    pub fn plan(&self, req: &PlanRequest) -> Result<PlanOutcome> {
        let body = req.to_json().to_string();
        let (status, reply) = self.request("POST", "/plan", body.as_bytes())?;
        let parsed = Json::parse(&String::from_utf8_lossy(&reply))?;
        if status == 200 {
            Ok(PlanOutcome::Decision(PlanReply::from_json(&parsed)?))
        } else {
            Ok(PlanOutcome::Rejected(Rejection {
                status,
                code: parsed
                    .get("code")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                retryable: parsed
                    .get("retryable")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
                message: parsed
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            }))
        }
    }

    /// `GET /healthz`.
    pub fn healthz(&self) -> Result<Json> {
        self.get_json("/healthz")
    }

    /// `GET /metrics`.
    pub fn metrics(&self) -> Result<Json> {
        self.get_json("/metrics")
    }

    /// `POST /publish` with raw [`PlannerSnapshot::to_bytes`] output;
    /// returns the new serving generation.
    pub fn publish(&self, snapshot_bytes: &[u8]) -> Result<u64> {
        let (status, reply) = self.request("POST", "/publish", snapshot_bytes)?;
        let parsed = Json::parse(&String::from_utf8_lossy(&reply))?;
        if status != 200 {
            let msg = parsed
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("publish failed")
                .to_string();
            return Err(FossError::Serde(format!(
                "publish rejected ({status}): {msg}"
            )));
        }
        parsed
            .get("generation")
            .and_then(Json::as_u64_str)
            .ok_or_else(|| FossError::Serde("publish reply lacks `generation`".into()))
    }

    fn get_json(&self, path: &str) -> Result<Json> {
        let (status, reply) = self.request("GET", path, &[])?;
        let parsed = Json::parse(&String::from_utf8_lossy(&reply))?;
        if status != 200 {
            return Err(FossError::Serde(format!("{path} returned {status}")));
        }
        Ok(parsed)
    }

    fn request(&self, method: &str, path: &str, body: &[u8]) -> Result<(u16, Vec<u8>)> {
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        message.extend_from_slice(body);

        let mut outcome = None;
        if let Some(mut conn) = take_parked(self.addr) {
            match exchange(&mut conn, &message) {
                // Closed by the server while parked; it saw none of this
                // request, so sending it again cannot run it twice.
                Err(ReadError::Quiet(e)) if !e.as_ref().is_some_and(is_timeout) => {}
                reply => outcome = Some((reply, conn)),
            }
        }
        let (reply, conn) = match outcome {
            Some(reused) => reused,
            None => {
                let mut conn = self.open().map_err(|e| self.transient(&e))?;
                (exchange(&mut conn, &message), conn)
            }
        };
        let reply = reply.map_err(|e| match e.into_error() {
            FossError::Transient(what) => self.transient(&what),
            other => other,
        })?;

        let mut status_line = reply.start_line.split_whitespace();
        let version = status_line.next();
        let status: u16 = status_line
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| FossError::Serde(format!("bad status line `{}`", reply.start_line)))?;
        // Bytes past the reply would be read as the next reply's start.
        if reply.keep_alive(version) && conn.buf.is_empty() {
            PARKED.with_borrow_mut(|parked| {
                if parked.len() == MAX_PARKED {
                    parked.remove(0);
                }
                parked.push((self.addr, conn));
            });
        }
        Ok((status, reply.body))
    }

    fn open(&self) -> std::io::Result<MessageReader<TcpStream>> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(MessageReader::new(stream, "response"))
    }

    fn transient(&self, what: &dyn std::fmt::Display) -> FossError {
        FossError::Transient(format!("request to {}: {what}", self.addr))
    }
}

/// This thread's parked connection to `addr`, if it has one.
fn take_parked(addr: SocketAddr) -> Option<MessageReader<TcpStream>> {
    PARKED.with_borrow_mut(|parked| {
        let at = parked.iter().position(|(to, _)| *to == addr)?;
        Some(parked.remove(at).1)
    })
}

/// Send one request and read its reply. A failed send counts as
/// [`ReadError::Quiet`]: no byte of a reply arrived.
fn exchange(
    conn: &mut MessageReader<TcpStream>,
    message: &[u8],
) -> std::result::Result<Message, ReadError> {
    (&conn.inner)
        .write_all(message)
        .map_err(|e| ReadError::Quiet(Some(e)))?;
    conn.read_message()
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Priority, ServiceConfig};
    use foss_core::envs::tests_support::TestWorld;
    use foss_core::{Foss, FossConfig};
    use foss_executor::CachingExecutor;

    struct Net {
        world: TestWorld,
        foss: Foss,
        doctor: Arc<PlanDoctor>,
        server: PlanServer,
    }

    fn serve(seed: u64, cfg: ServiceConfig) -> Net {
        let world = TestWorld::new(seed);
        let executor = Arc::new(CachingExecutor::new(
            world.db.clone(),
            *world.opt.cost_model(),
        ));
        let mut foss = Foss::new(
            Arc::new(world.opt.clone()),
            executor.clone(),
            3,
            world.db.stats().iter().map(|s| s.row_count).collect(),
            FossConfig {
                episodes_per_update: 6,
                seed,
                ..FossConfig::tiny()
            },
        );
        foss.train(std::slice::from_ref(&world.query), 1).unwrap();
        let doctor = Arc::new(PlanDoctor::new(foss.snapshot(), executor, cfg));
        let server =
            PlanServer::start(doctor.clone(), vec![world.query.clone()], "127.0.0.1:0").unwrap();
        Net {
            world,
            foss,
            doctor,
            server,
        }
    }

    /// Every response in `raw`, as (status, `connection` header, body).
    fn parse_responses(raw: &[u8]) -> Vec<(u16, String, String)> {
        let mut reader = MessageReader::new(raw, "response");
        let mut out = Vec::new();
        loop {
            match reader.read_message() {
                Ok(m) => {
                    let status = m.start_line.split_whitespace().nth(1).unwrap();
                    out.push((
                        status.parse().unwrap(),
                        m.header("connection").unwrap_or("").to_string(),
                        String::from_utf8(m.body).unwrap(),
                    ));
                }
                Err(ReadError::Quiet(None)) => return out,
                Err(e) => panic!("bad response stream: {e:?}"),
            }
        }
    }

    /// The single response in `raw`, as (status, body).
    fn parse_response(raw: &[u8]) -> (u16, Vec<u8>) {
        let mut all = parse_responses(raw);
        assert_eq!(all.len(), 1, "expected exactly one response");
        let (status, _, body) = all.remove(0);
        (status, body.into_bytes())
    }

    /// Write `bytes` on a fresh connection, half-close, and collect every
    /// response until the server closes its side.
    fn send_raw(addr: SocketAddr, bytes: &[u8]) -> Vec<(u16, String, String)> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(bytes).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        parse_responses(&raw)
    }

    fn metric(client: &PlanClient, name: &str) -> usize {
        let m = client.metrics().unwrap();
        m.get(name).and_then(Json::as_usize).unwrap()
    }

    #[test]
    fn socket_round_trip_matches_in_process_submit() {
        let net = serve(61, ServiceConfig::default());
        let client = net.server.client();

        let health = client.healthz().unwrap();
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(health.get("queries").and_then(Json::as_usize), Some(1));

        let outcome = client.plan(&PlanRequest::for_index(0)).unwrap();
        let PlanOutcome::Decision(reply) = outcome else {
            panic!("expected a decision, got {outcome:?}");
        };
        // The same request in-process must agree on the served plan.
        let direct = net
            .doctor
            .submit(QueryRequest::new(net.world.query.clone()))
            .unwrap();
        assert_eq!(reply.fingerprint, direct.plan.fingerprint());
        assert_eq!(reply.generation, 0);

        let metrics = client.metrics().unwrap();
        assert_eq!(metrics.get("submitted").and_then(Json::as_usize), Some(2));
        assert_eq!(metrics.get("errors").and_then(Json::as_usize), Some(0));
    }

    #[test]
    fn wire_errors_carry_documented_codes() {
        let net = serve(
            62,
            ServiceConfig {
                max_in_flight: 1,
                ..ServiceConfig::default()
            },
        );
        let client = net.server.client();

        // Out-of-pool index → 404 unknown_name.
        let out = client.plan(&PlanRequest::for_index(99)).unwrap();
        let PlanOutcome::Rejected(rej) = out else {
            panic!("bad index must be rejected")
        };
        assert_eq!((rej.status, rej.code.as_str()), (404, "unknown_name"));
        assert!(!rej.retryable);

        // Saturated gate + low priority → 429 overloaded, retryable.
        let held = net.doctor.gate.acquire();
        let shed = client
            .plan(&PlanRequest {
                query: 0,
                priority: Some(Priority::Low),
                ..PlanRequest::default()
            })
            .unwrap();
        let PlanOutcome::Rejected(rej) = shed else {
            panic!("saturated low-priority must shed")
        };
        assert_eq!((rej.status, rej.code.as_str()), (429, "overloaded"));
        assert!(rej.retryable);
        drop(held);

        // Unknown route → 404 unknown_route listing the surface.
        let (status, body) = client.request("GET", "/nope", &[]).unwrap();
        assert_eq!(status, 404);
        let parsed = Json::parse(&String::from_utf8_lossy(&body)).unwrap();
        assert_eq!(
            parsed.get("code").and_then(Json::as_str),
            Some("unknown_route")
        );
        assert!(parsed
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("POST /plan"));

        // Malformed body → 400 malformed.
        let (status, body) = client.request("POST", "/plan", b"{not json").unwrap();
        assert_eq!(status, 400);
        let parsed = Json::parse(&String::from_utf8_lossy(&body)).unwrap();
        assert_eq!(parsed.get("code").and_then(Json::as_str), Some("malformed"));

        // Sheds are visible in the served metrics.
        let m = client.metrics().unwrap();
        assert_eq!(m.get("shed_low").and_then(Json::as_usize), Some(1));
    }

    #[test]
    fn headers_set_priority_and_budget_when_body_omits_them() {
        let net = serve(63, ServiceConfig::default());
        let client = net.server.client();
        // A zero planning budget via header must force PlanningTimeout.
        let mut stream = TcpStream::connect(net.server.addr()).unwrap();
        let body = r#"{"query":0}"#;
        let req = format!(
            "POST /plan HTTP/1.1\r\nhost: x\r\nx-foss-planning-budget-us: 0\r\n\
             content-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes()).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let (status, reply) = parse_response(&raw);
        assert_eq!(status, 200);
        let reply =
            PlanReply::from_json(&Json::parse(&String::from_utf8_lossy(&reply)).unwrap()).unwrap();
        assert!(reply.fallback);
        assert_eq!(reply.reason, "planning_timeout");
        // Body wins over header when both are present.
        let outcome = client
            .plan(&PlanRequest {
                query: 0,
                planning_budget_us: Some(1e12),
                ..PlanRequest::default()
            })
            .unwrap();
        assert!(matches!(outcome, PlanOutcome::Decision(_)));
    }

    #[test]
    fn conflicting_duplicate_content_lengths_are_rejected() {
        let net = serve(66, ServiceConfig::default());
        let raw_round_trip = |req: String| {
            let mut stream = TcpStream::connect(net.server.addr()).unwrap();
            stream.write_all(req.as_bytes()).unwrap();
            let mut raw = Vec::new();
            stream.read_to_end(&mut raw).unwrap();
            let (status, body) = parse_response(&raw);
            (status, String::from_utf8_lossy(&body).into_owned())
        };
        let body = r#"{"query":0}"#;

        // Conflicting duplicates are the smuggling-adjacent shape: which
        // header governs decides where the body ends. Reject, never pick.
        let (status, reply) = raw_round_trip(format!(
            "POST /plan HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\
             content-length: 2\r\nconnection: close\r\n\r\n{body}",
            body.len()
        ));
        assert_eq!(status, 400, "conflicting lengths must be rejected: {reply}");
        let parsed = Json::parse(&reply).unwrap();
        assert_eq!(parsed.get("code").and_then(Json::as_str), Some("malformed"));
        assert!(
            parsed
                .get("message")
                .and_then(Json::as_str)
                .unwrap()
                .contains("conflicting content-length"),
            "message must name the conflict: {reply}"
        );

        // Agreeing duplicates collapse to one value and serve normally.
        let (status, reply) = raw_round_trip(format!(
            "POST /plan HTTP/1.1\r\nhost: x\r\ncontent-length: {len}\r\n\
             content-length: {len}\r\nconnection: close\r\n\r\n{body}",
            len = body.len()
        ));
        assert_eq!(status, 200, "agreeing duplicates must serve: {reply}");

        // A single unparsable value still fails loudly.
        let (status, reply) = raw_round_trip(
            "POST /plan HTTP/1.1\r\nhost: x\r\ncontent-length: eleven\r\n\
             connection: close\r\n\r\n"
                .to_string(),
        );
        assert_eq!(status, 400, "unparsable length must be rejected: {reply}");
    }

    #[test]
    fn publish_over_the_wire_bumps_the_generation() {
        let mut net = serve(64, ServiceConfig::default());
        let client = net.server.client();
        net.foss
            .train_iteration(std::slice::from_ref(&net.world.query), 2)
            .unwrap();
        let bytes = net.foss.snapshot().to_bytes();
        let generation = client.publish(&bytes).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(net.doctor.snapshot_generation(), 1);
        // The published generation serves.
        let outcome = client.plan(&PlanRequest::for_index(0)).unwrap();
        let PlanOutcome::Decision(reply) = outcome else {
            panic!("post-publish plan must succeed")
        };
        assert_eq!(reply.generation, 1);
        // Garbage bytes are rejected without disturbing the generation.
        assert!(client.publish(b"not a snapshot").is_err());
        assert_eq!(net.doctor.snapshot_generation(), 1);
    }

    #[test]
    fn shutdown_stops_accepting() {
        let Net { server, .. } = serve(65, ServiceConfig::default());
        let addr = server.addr();
        let client = server.client();
        client.healthz().unwrap();
        server.shutdown();
        // A fresh connection must now fail to complete a request.
        assert!(PlanClient::new(addr).healthz().is_err());
    }

    #[test]
    fn sequential_requests_share_one_connection() {
        let net = serve(67, ServiceConfig::default());
        let stream = TcpStream::connect(net.server.addr()).unwrap();
        let mut wire = MessageReader::new(stream, "response");
        let body = r#"{"query":0}"#;
        let plan = format!(
            "POST /plan HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        for i in 0..5 {
            // A request that frames but fails (bad JSON) keeps the connection.
            let request = if i == 2 {
                "POST /plan HTTP/1.1\r\ncontent-length: 1\r\n\r\n{".to_string()
            } else {
                plan.clone()
            };
            (&wire.inner).write_all(request.as_bytes()).unwrap();
            let reply = wire.read_message().unwrap();
            assert_eq!(reply.header("connection"), Some("keep-alive"), "reply {i}");
            let expect = if i == 2 { " 400 " } else { " 200 " };
            assert!(reply.start_line.contains(expect), "{}", reply.start_line);
        }
        assert_eq!(metric(&net.server.client(), "connections_open"), 2);
        // Closing between requests is silent: the server writes nothing more.
        wire.inner.shutdown(Shutdown::Write).unwrap();
        assert!(matches!(wire.read_message(), Err(ReadError::Quiet(None))));
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let net = serve(68, ServiceConfig::default());
        // One write carrying a plan (with a body), a health check and an
        // unknown route: bytes past the first body are the next request.
        let body = r#"{"query":0}"#;
        let replies = send_raw(
            net.server.addr(),
            format!(
                "POST /plan HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}\
                 GET /healthz HTTP/1.1\r\n\r\nGET /nope HTTP/1.1\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        let statuses: Vec<u16> = replies.iter().map(|r| r.0).collect();
        assert_eq!(statuses, [200, 200, 404]);
        assert!(replies[0].2.contains("fingerprint"), "{}", replies[0].2);
        assert!(
            replies[1].2.contains(r#""status":"ok""#),
            "{}",
            replies[1].2
        );
        assert!(replies[2].2.contains("unknown_route"), "{}", replies[2].2);
        assert!(replies.iter().all(|r| r.1 == "keep-alive"));
    }

    #[test]
    fn connection_close_and_http_1_0_end_the_connection() {
        let net = serve(69, ServiceConfig::default());
        // The second request of each stream must go unanswered.
        for first in [
            "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
            "GET /healthz HTTP/1.1\r\nConnection: foo, Close\r\n\r\n",
            "GET /healthz HTTP/1.0\r\n\r\n",
        ] {
            let stream = format!("{first}GET /healthz HTTP/1.1\r\n\r\n");
            let replies = send_raw(net.server.addr(), stream.as_bytes());
            assert_eq!(replies.len(), 1, "`{first}` must close the connection");
            assert_eq!((replies[0].0, replies[0].1.as_str()), (200, "close"));
        }
    }

    #[test]
    fn unframeable_requests_are_answered_then_closed() {
        let net = serve(70, ServiceConfig::default());
        let follow_up = "GET /healthz HTTP/1.1\r\n\r\n";
        let oversize = MAX_BODY_BYTES + 1;
        for (broken, needle) in [
            (
                "GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n",
                "malformed header",
            ),
            (
                "POST /plan HTTP/1.1\r\ncontent-length: 11\r\ncontent-length: 2\r\n\r\n",
                "conflicting content-length",
            ),
            (
                &format!("POST /publish HTTP/1.1\r\ncontent-length: {oversize}\r\n\r\n"),
                "exceeds",
            ),
            ("\r\n\r\n", "missing method"),
        ] {
            let replies = send_raw(net.server.addr(), format!("{broken}{follow_up}").as_bytes());
            assert_eq!(replies.len(), 1, "`{broken}` must close the connection");
            let (status, connection, body) = &replies[0];
            assert_eq!((*status, connection.as_str()), (400, "close"), "{body}");
            assert!(body.contains(needle), "`{body}` lacks `{needle}`");
        }
        // EOF inside a request still gets the typed 400; EOF before one gets
        // nothing.
        let replies = send_raw(net.server.addr(), b"POST /plan HTTP/1.1\r\ncontent-le");
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].0, 400);
        assert!(replies[0].2.contains("connection closed mid-request"));
        let replies = send_raw(
            net.server.addr(),
            b"POST /plan HTTP/1.1\r\ncontent-length: 9\r\n\r\n{\"q",
        );
        assert!(replies[0].2.contains("connection closed mid-body"));
        assert!(send_raw(net.server.addr(), b"").is_empty());
        // None of it disturbed the server.
        net.server.client().healthz().unwrap();
    }

    #[test]
    fn reused_client_serves_many_requests_per_connection() {
        let net = serve(71, ServiceConfig::default());
        let client = net.server.client();
        for _ in 0..6 {
            client.healthz().unwrap();
        }
        assert!(matches!(
            client.plan(&PlanRequest::for_index(0)).unwrap(),
            PlanOutcome::Decision(_)
        ));
        let accepted = metric(&client, "connections_accepted");
        let served = metric(&client, "requests_served");
        assert_eq!(accepted, 1, "one thread, one server: one connection");
        assert_eq!(served, 9);
        assert!(served / accepted > 1);
        assert_eq!(metric(&client, "connections_open"), 1);
        // A copy of the client on another thread gets its own connection.
        std::thread::scope(|s| {
            s.spawn(|| client.healthz().unwrap());
        });
        assert_eq!(metric(&client, "connections_accepted"), 2);
    }

    #[test]
    fn client_reconnects_after_the_server_closed_its_parked_connection() {
        let world = serve(72, ServiceConfig::default());
        let pool = vec![world.world.query.clone()];
        // Idle timeout: the server drops the parked connection after 50 ms.
        let server = PlanServer::start_with_idle_timeout(
            world.doctor.clone(),
            pool.clone(),
            "127.0.0.1:0",
            Duration::from_millis(50),
        )
        .unwrap();
        let client = server.client();
        client.healthz().unwrap();
        // Watch from another thread (with a connection of its own) until
        // only the watcher's connection is left.
        std::thread::scope(|s| {
            s.spawn(|| {
                while metric(&client, "connections_open") > 1 {
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        });
        assert!(matches!(
            client.plan(&PlanRequest::for_index(0)).unwrap(),
            PlanOutcome::Decision(_)
        ));
        assert_eq!(
            metric(&client, "connections_accepted"),
            3,
            "first call, watcher, reconnect"
        );

        // Restart on the same port: the parked connection belongs to the old
        // server; the next call must notice and reconnect.
        let addr = server.addr();
        server.shutdown();
        let server = PlanServer::start(world.doctor.clone(), pool, &addr.to_string()).unwrap();
        client.healthz().unwrap();
        client.healthz().unwrap();
        assert_eq!(metric(&client, "connections_accepted"), 1);
        server.shutdown();
    }

    #[test]
    fn shutdown_closes_parked_connections_and_joins_their_threads() {
        let Net { server, doctor, .. } = serve(73, ServiceConfig::default());
        let client = server.client();
        client.healthz().unwrap();
        // A raw idle connection and one stalled mid-request, too.
        let idle = TcpStream::connect(server.addr()).unwrap();
        let mut stalled = TcpStream::connect(server.addr()).unwrap();
        stalled.write_all(b"GET /healthz HTT").unwrap();
        while metric(&client, "connections_open") < 3 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let started = std::time::Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < IO_TIMEOUT / 4,
            "shutdown waited for idle connections: {:?}",
            started.elapsed()
        );
        // Every connection thread held the doctor through the serve state.
        assert_eq!(Arc::strong_count(&doctor), 1, "a connection thread lives");
        // The stalled request was told why; the idle one just sees EOF.
        let mut raw = Vec::new();
        stalled.read_to_end(&mut raw).unwrap();
        assert!(String::from_utf8_lossy(&raw).contains("connection closed mid-request"));
        raw.clear();
        (&idle).read_to_end(&mut raw).unwrap();
        assert!(raw.is_empty());
    }
}
