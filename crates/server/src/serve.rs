//! The `nalixd` server proper: epoll event loop, worker pool,
//! admission control, routing.
//!
//! Architecture (one paragraph): a single event-loop thread owns every
//! client socket, nonblocking, registered with a raw-FFI
//! [`epoll`](crate::epoll) instance. Readable sockets are drained into
//! per-connection incremental [`RequestParser`]s; each *complete*
//! request is `try_push`ed as a [`Job`] into a [`BoundedQueue`], and a
//! fixed pool of worker threads pops jobs, runs the route→answer
//! cycle, and hands the finished [`Response`] back to the loop through
//! a completion list plus a socketpair wakeup. The loop serializes the
//! response into the connection's out-buffer and writes it back,
//! partial-write aware. Connections are HTTP/1.1 keep-alive by default
//! and may pipeline; because the loop dispatches at most one in-flight
//! request per connection and only parses the next one after the
//! previous response is fully written, responses are in order by
//! construction. Overload is explicit: a full queue makes the *event
//! loop* answer `503 Service Unavailable` with `Retry-After` and close
//! that connection, so a saturated server keeps answering (with
//! backpressure) instead of accumulating unbounded work. Shutdown is a
//! drain: the listener is deregistered, idle connections close,
//! in-flight requests finish and flush, and [`Server::serve`] returns
//! a final [`ServeReport`].
//!
//! The workers are plainly spawned threads sharing the
//! [`DocumentStore`] through an `Arc` — the pipelines are `'static`,
//! so no scoped borrowing is needed and the store can hot-swap
//! documents underneath running requests (each request pins its own
//! snapshot for its lifetime).

use crate::epoll::{Epoll, Event, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::http::{ReadError, Request, RequestParser, Response};
use crate::json::Json;
use crate::queue::{BoundedQueue, PushError};
use nalix::QueryError;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use store::{DocSpec, DocumentStore, EditSpec, StoreError};
use xquery::{EvalBudget, ExhaustedResource};

/// Token for the listening socket in the epoll set.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Token for the worker-completion wakeup pipe.
const NOTIFY_TOKEN: u64 = u64::MAX - 1;
/// Event-loop tick: the upper bound on how stale a timeout sweep or a
/// shutdown-flag check can be.
const TICK_MS: i32 = 50;
/// Per-wakeup socket read chunk.
const READ_CHUNK: usize = 16 * 1024;
/// Cap on bytes drained from a closing socket to avoid an RST
/// clobbering the response we just wrote.
const CLOSE_DRAIN_BUDGET: usize = 64 * 1024;

/// Everything tunable about a [`Server`], with production defaults.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:8080`. Port 0 picks a free port
    /// (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads. Each worker serves one request at a time.
    pub workers: usize,
    /// Admission queue capacity in *requests*; requests beyond it are
    /// shed with 503.
    pub queue_capacity: usize,
    /// How long a partially received request may sit before the
    /// connection is answered with `408 Request Timeout` (slow-client
    /// defense).
    pub read_timeout: Duration,
    /// How long a pending response write may stall before the
    /// connection is dropped (slow-reader defense).
    pub write_timeout: Duration,
    /// Maximum request body size in bytes.
    pub max_body: usize,
    /// How long a keep-alive connection may sit with no request in
    /// progress before it is silently closed.
    pub idle_timeout: Duration,
    /// Requests served on one connection before it is closed (with
    /// `Connection: close` on the final response). Bounds per-client
    /// resource pinning.
    pub max_requests_per_conn: usize,
    /// Open-connection cap; accepts beyond it are shed with 503.
    pub max_connections: usize,
    /// Evaluation deadline applied when the request names none.
    pub default_deadline: Duration,
    /// Hard cap on client-requested deadlines.
    pub max_deadline: Duration,
    /// Value of the `Retry-After` header on shed responses, in seconds.
    pub retry_after_secs: u64,
    /// Live conversational sessions kept at once; beyond it the
    /// least-recently-used session is evicted (its next follow-up gets
    /// a typed expired-context error).
    pub session_capacity: usize,
    /// Idle time after which a session expires. Checked lazily at the
    /// next checkout, so an expired session costs nothing until (and
    /// unless) it is asked for again.
    pub session_ttl: Duration,
    /// Test-only latency injected into every handled request, used to
    /// make overload and drain tests deterministic. `None` in
    /// production.
    pub debug_handler_delay: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8080".to_string(),
            workers: 8,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_body: 1024 * 1024,
            idle_timeout: Duration::from_secs(30),
            max_requests_per_conn: 10_000,
            max_connections: 10_240,
            default_deadline: Duration::from_secs(2),
            max_deadline: Duration::from_secs(30),
            retry_after_secs: 1,
            session_capacity: nalix::session::DEFAULT_SESSION_CAPACITY,
            session_ttl: nalix::session::DEFAULT_SESSION_TTL,
            debug_handler_delay: None,
        }
    }
}

/// State shared between [`Server::serve`] and its [`ServerHandle`]s.
struct Shared {
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    started: Instant,
}

/// A clonable remote control for a running server: signal shutdown,
/// read the bound address. Obtained from [`Server::handle`] *before*
/// calling the blocking [`Server::serve`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begins a graceful drain: stop accepting, finish in-flight
    /// requests, return from [`Server::serve`]. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once [`shutdown`](ServerHandle::shutdown) has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// The address the listener is actually bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }
}

/// What a completed [`Server::serve`] run did.
#[derive(Debug)]
pub struct ServeReport {
    /// Requests handed to a worker (whether they then succeeded or
    /// failed at the HTTP or query layer).
    pub served: u64,
    /// Requests shed with 503: the queue was full at dispatch, or the
    /// connection cap was hit at accept.
    pub shed: u64,
    /// Final metrics, taken after the last worker exited: the store's
    /// registry merged with the process-global one, as `GET /metrics`
    /// renders them.
    pub snapshot: obs::MetricsSnapshot,
}

/// Everything a worker thread needs, behind one `Arc`.
struct Ctx {
    store: Arc<DocumentStore>,
    config: ServerConfig,
    shared: Arc<Shared>,
    /// Conversational sessions (LRU + TTL bounded), shared by all
    /// workers; counters land in the store's metrics registry.
    sessions: nalix::SessionStore,
}

/// One parsed request bound for a worker, tagged with the connection
/// it came from.
struct Job {
    token: u64,
    request: Request,
}

/// One finished response headed back to the event loop.
struct Done {
    token: u64,
    response: Response,
}

/// The worker→loop handoff: finished responses plus the wakeup pipe
/// that makes the loop notice them.
struct Completions {
    done: Mutex<Vec<Done>>,
    /// Write end of the wakeup socketpair, nonblocking. A full pipe is
    /// fine: it already guarantees a pending wakeup.
    notify: UnixStream,
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Serialized response bytes awaiting write, and how far we got.
    out: Vec<u8>,
    out_pos: usize,
    /// A request from this connection is queued or being handled.
    in_flight: bool,
    /// Whether the in-flight request negotiated keep-alive.
    req_keep_alive: bool,
    /// Close the socket once `out` is fully flushed.
    close_after_write: bool,
    /// The peer sent EOF; no more requests will arrive.
    saw_eof: bool,
    requests_served: u64,
    last_activity: Instant,
    /// The epoll interest currently registered for this socket.
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream, max_body: usize, now: Instant) -> Self {
        Conn {
            stream,
            parser: RequestParser::new(max_body),
            out: Vec::new(),
            out_pos: 0,
            in_flight: false,
            req_keep_alive: false,
            close_after_write: false,
            saw_eof: false,
            requests_served: 0,
            last_activity: now,
            interest: EPOLLIN | EPOLLRDHUP,
        }
    }

    fn write_pending(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

/// Generation-tagged connection storage. A token is `(gen << 32) |
/// slot`; a stale token (connection closed, slot reused) fails the
/// generation check instead of addressing the wrong client.
struct Slab {
    slots: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn token_at(&self, idx: usize) -> u64 {
        ((self.gens[idx] as u64) << 32) | idx as u64
    }

    fn insert(&mut self, conn: Conn) -> u64 {
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Some(conn);
                idx
            }
            None => {
                self.slots.push(Some(conn));
                self.gens.push(0);
                self.slots.len() - 1
            }
        };
        self.live += 1;
        self.token_at(idx)
    }

    fn index_of(&self, token: u64) -> Option<usize> {
        let idx = (token & 0xFFFF_FFFF) as usize;
        let gen = (token >> 32) as u32;
        (self.gens.get(idx).copied() == Some(gen)).then_some(idx)
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut Conn> {
        let idx = self.index_of(token)?;
        self.slots.get_mut(idx).and_then(Option::as_mut)
    }

    fn remove(&mut self, token: u64) -> Option<Conn> {
        let idx = self.index_of(token)?;
        let conn = self.slots.get_mut(idx).and_then(Option::take);
        if conn.is_some() {
            self.gens[idx] = self.gens[idx].wrapping_add(1);
            self.free.push(idx);
            self.live -= 1;
        }
        conn
    }
}

/// What [`EventLoop::flush_step`] did with a connection's out-buffer.
enum Flush {
    /// The connection died (or was already gone) and has been closed.
    Closed,
    /// Bytes remain; the socket would block. Wait for `EPOLLOUT`.
    Pending,
    /// The out-buffer is empty.
    Drained,
}

/// What [`EventLoop::try_dispatch`] concluded for an idle connection.
enum Step {
    /// A request was handed to the worker pool.
    Dispatched,
    /// A loop-generated response (400/413/503) was staged for writing.
    Enqueued,
    /// No complete request is buffered yet.
    Idle,
    /// The connection was closed (EOF with nothing outstanding).
    Closed,
}

/// The single-threaded front half: epoll state, connections, and the
/// dispatch/completion plumbing.
struct EventLoop {
    epoll: Epoll,
    /// `None` once a drain begins.
    listener: Option<TcpListener>,
    notify_rx: UnixStream,
    slab: Slab,
    queue: Arc<BoundedQueue<Job>>,
    completions: Arc<Completions>,
    ctx: Arc<Ctx>,
    metrics: Arc<obs::MetricsRegistry>,
    draining: bool,
    shed: u64,
}

impl EventLoop {
    fn run(&mut self) -> io::Result<()> {
        let mut events = vec![Event::zeroed(); 1024];
        loop {
            if !self.draining && self.ctx.shared.shutdown.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if self.draining && self.slab.live == 0 {
                return Ok(());
            }
            let n = self.epoll.wait(&mut events, TICK_MS)?;
            if n > 0 {
                self.metrics.add(obs::Counter::EpollWakeups, 1);
            }
            let now = Instant::now();
            for ev in events.iter().take(n).copied() {
                let (flags, token) = ({ ev.events }, { ev.data });
                match token {
                    LISTENER_TOKEN => self.accept_ready(now),
                    NOTIFY_TOKEN => self.drain_notify(),
                    token => self.conn_event(token, flags, now),
                }
            }
            self.process_completions();
            self.sweep_timeouts(Instant::now());
        }
    }

    /// Stops admission and closes every connection that has nothing
    /// admitted on it: idle keep-alive peers and half-read requests
    /// are dropped; in-flight and mid-write connections finish and
    /// flush first.
    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
        }
        let tokens: Vec<u64> = (0..self.slab.slots.len())
            .filter(|&idx| self.slab.slots[idx].is_some())
            .map(|idx| self.slab.token_at(idx))
            .collect();
        for token in tokens {
            let close_now = {
                let Some(conn) = self.slab.get_mut(token) else {
                    continue;
                };
                if conn.in_flight || conn.write_pending() {
                    conn.close_after_write = true;
                    false
                } else {
                    true
                }
            };
            if close_now {
                self.close(token);
            }
        }
    }

    fn accept_ready(&mut self, now: Instant) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.slab.live >= self.ctx.config.max_connections {
                        self.shed += 1;
                        self.metrics.add(obs::Counter::HttpShed, 1);
                        shed_connection(stream, self.ctx.config.retry_after_secs);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let token = self
                        .slab
                        .insert(Conn::new(stream, self.ctx.config.max_body, now));
                    if self.epoll.add(fd, EPOLLIN | EPOLLRDHUP, token).is_err() {
                        self.slab.remove(token);
                        continue;
                    }
                    self.metrics.record_max(
                        obs::MaxGauge::OpenConnectionsHighWater,
                        self.slab.live as u64,
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn conn_event(&mut self, token: u64, flags: u32, now: Instant) {
        if self.slab.get_mut(token).is_none() {
            return; // stale token: closed earlier in this batch
        }
        if flags & (EPOLLERR | EPOLLHUP) != 0 {
            // Full hangup or socket error: nothing further can be
            // written, so a pending response is moot. If a request is
            // still in flight its worker finishes (the admission
            // contract), but the completion finds no connection.
            self.close(token);
            return;
        }
        if flags & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.readable(token, now);
        } else if flags & EPOLLOUT != 0 {
            self.pump(token, now);
        }
    }

    fn readable(&mut self, token: u64, now: Instant) {
        // Backpressure: never buffer much beyond one max-size request
        // per connection. Level-triggered epoll re-reports the rest.
        let soft_cap = self.ctx.config.max_body + 2 * crate::http::MAX_LINE;
        let mut dead = false;
        {
            let Some(conn) = self.slab.get_mut(token) else {
                return;
            };
            if conn.in_flight || conn.write_pending() || conn.close_after_write {
                return; // not reading while a response is owed
            }
            let mut chunk = [0u8; READ_CHUNK];
            loop {
                if conn.parser.buffered() > soft_cap {
                    break;
                }
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.saw_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.parser.feed(&chunk[..n]);
                        conn.last_activity = now;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.close(token);
            return;
        }
        self.pump(token, now);
    }

    /// Drives one connection as far as it can go right now: flush
    /// pending bytes, then either close, wait, or parse-and-dispatch
    /// the next pipelined request. The loop (rather than recursion)
    /// makes the flush→respond→flush chain for loop-generated
    /// responses terminate visibly.
    fn pump(&mut self, token: u64, now: Instant) {
        enum Next {
            Close,
            Wait,
            Dispatch,
        }
        loop {
            match self.flush_step(token, now) {
                Flush::Closed => return,
                Flush::Pending => break,
                Flush::Drained => {}
            }
            let next = {
                let Some(conn) = self.slab.get_mut(token) else {
                    return;
                };
                if conn.close_after_write {
                    Next::Close
                } else if conn.in_flight {
                    Next::Wait
                } else {
                    Next::Dispatch
                }
            };
            match next {
                Next::Close => {
                    self.graceful_close(token);
                    return;
                }
                Next::Wait => break,
                Next::Dispatch => match self.try_dispatch(token, now) {
                    Step::Enqueued => continue,
                    Step::Dispatched | Step::Idle => break,
                    Step::Closed => return,
                },
            }
        }
        self.update_interest(token);
    }

    /// Writes as much of the out-buffer as the socket will take.
    fn flush_step(&mut self, token: u64, now: Instant) -> Flush {
        let mut result = Flush::Drained;
        {
            let Some(conn) = self.slab.get_mut(token) else {
                return Flush::Closed;
            };
            while conn.write_pending() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        result = Flush::Closed;
                        break;
                    }
                    Ok(n) => {
                        conn.out_pos += n;
                        conn.last_activity = now;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        result = Flush::Pending;
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        result = Flush::Closed;
                        break;
                    }
                }
            }
            if matches!(result, Flush::Drained) {
                conn.out.clear();
                conn.out_pos = 0;
            }
        }
        if matches!(result, Flush::Closed) {
            self.close(token);
        }
        result
    }

    /// Polls the connection's parser for the next complete request and
    /// either dispatches it to the worker pool, sheds it, or stages a
    /// parse-error response.
    fn try_dispatch(&mut self, token: u64, now: Instant) -> Step {
        if self.draining {
            // Belt and braces: begin_drain already closed or flagged
            // every connection, so a pipelined follow-up request never
            // starts during a drain.
            self.close(token);
            return Step::Closed;
        }
        enum Outcome {
            Dispatch(Request),
            Error(Response),
            CloseEof,
            Idle,
        }
        let outcome = {
            let Some(conn) = self.slab.get_mut(token) else {
                return Step::Closed;
            };
            match conn.parser.poll() {
                Ok(Some(request)) => Outcome::Dispatch(request),
                Ok(None) => {
                    if conn.saw_eof {
                        // Clean close between requests, or a request
                        // truncated mid-flight: either way there is
                        // nobody left to answer.
                        Outcome::CloseEof
                    } else {
                        Outcome::Idle
                    }
                }
                Err(ReadError::BadRequest(msg)) => Outcome::Error(Response::json(
                    400,
                    error_body("http.bad_request", &msg, "fix the request"),
                )),
                Err(ReadError::TooLarge(msg)) => Outcome::Error(Response::json(
                    413,
                    error_body("http.payload_too_large", &msg, "send a smaller request"),
                )),
                Err(ReadError::Io(_)) | Err(ReadError::Eof) => Outcome::CloseEof,
            }
        };
        match outcome {
            Outcome::Idle => Step::Idle,
            Outcome::CloseEof => {
                self.close(token);
                Step::Closed
            }
            Outcome::Error(response) => {
                self.metrics.add(obs::Counter::HttpBadRequests, 1);
                match self.slab.get_mut(token) {
                    Some(conn) => {
                        // Parse errors poison the connection: framing
                        // is unreliable past this point, so answer and
                        // close.
                        stage_response(conn, &response, false, now);
                        Step::Enqueued
                    }
                    None => Step::Closed,
                }
            }
            Outcome::Dispatch(request) => {
                let max_requests = self.ctx.config.max_requests_per_conn as u64;
                let retry_after = self.ctx.config.retry_after_secs;
                let Some(conn) = self.slab.get_mut(token) else {
                    return Step::Closed;
                };
                if conn.requests_served >= 1 {
                    self.metrics.add(obs::Counter::HttpKeepaliveReuse, 1);
                }
                let at_cap = conn.requests_served + 1 >= max_requests;
                conn.req_keep_alive = request.keep_alive && !at_cap;
                match self.queue.try_push(Job { token, request }) {
                    Ok(depth) => {
                        conn.in_flight = true;
                        self.metrics.add(obs::Counter::HttpRequests, 1);
                        self.metrics
                            .record_max(obs::MaxGauge::QueueDepthHighWater, depth as u64);
                        Step::Dispatched
                    }
                    Err(PushError::Full(_)) | Err(PushError::Closed(_)) => {
                        self.shed += 1;
                        self.metrics.add(obs::Counter::HttpShed, 1);
                        let response = Response::json(
                            503,
                            error_body("http.overloaded", "server is at capacity", "retry shortly"),
                        )
                        .with_header("Retry-After", retry_after.to_string());
                        stage_response(conn, &response, false, now);
                        Step::Enqueued
                    }
                }
            }
        }
    }

    /// Hands finished worker responses back to their connections.
    fn process_completions(&mut self) {
        let done = {
            let mut guard = self
                .completions
                .done
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *guard)
        };
        let now = Instant::now();
        for item in done {
            if matches!(item.response.status(), 400 | 404 | 405 | 413) {
                // Transport-level client errors. 422/504 are
                // *successful* NL-pipeline rejections, already visible
                // as query spans.
                self.metrics.add(obs::Counter::HttpBadRequests, 1);
            }
            let Some(conn) = self.slab.get_mut(item.token) else {
                continue; // client went away mid-handling
            };
            conn.requests_served += 1;
            let keep_alive = conn.req_keep_alive && !self.draining;
            stage_response(conn, &item.response, keep_alive, now);
            self.pump(item.token, now);
        }
    }

    /// Empties the wakeup pipe; the completion list is what carries
    /// the data.
    fn drain_notify(&mut self) {
        let mut sink = [0u8; 256];
        loop {
            match (&self.notify_rx).read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Applies the three per-connection clocks: write stalls, 408 for
    /// half-received requests, and the keep-alive idle timeout.
    fn sweep_timeouts(&mut self, now: Instant) {
        enum Fate {
            Close,
            Timeout408,
        }
        let mut expired: Vec<(u64, Fate)> = Vec::new();
        for idx in 0..self.slab.slots.len() {
            let Some(conn) = self.slab.slots[idx].as_ref() else {
                continue;
            };
            if conn.in_flight {
                continue; // the worker owns the clock (EvalBudget)
            }
            let idle = now.saturating_duration_since(conn.last_activity);
            let token = self.slab.token_at(idx);
            if conn.write_pending() || conn.close_after_write {
                if idle > self.ctx.config.write_timeout {
                    expired.push((token, Fate::Close));
                }
            } else if conn.parser.mid_request() {
                if idle > self.ctx.config.read_timeout {
                    expired.push((token, Fate::Timeout408));
                }
            } else if idle > self.ctx.config.idle_timeout {
                expired.push((token, Fate::Close));
            }
        }
        for (token, fate) in expired {
            match fate {
                Fate::Close => self.close(token),
                Fate::Timeout408 => {
                    self.metrics.add(obs::Counter::HttpTimeouts, 1);
                    let response = Response::json(
                        408,
                        error_body(
                            "http.request_timeout",
                            "timed out waiting for the rest of the request",
                            "send the complete request promptly",
                        ),
                    );
                    if let Some(conn) = self.slab.get_mut(token) {
                        stage_response(conn, &response, false, now);
                    }
                    self.pump(token, now);
                }
            }
        }
    }

    /// Closes after draining already-received bytes, so the kernel
    /// does not turn unread data into an RST that destroys the
    /// response in flight to the client.
    fn graceful_close(&mut self, token: u64) {
        if let Some(conn) = self.slab.get_mut(token) {
            let mut sink = [0u8; 4096];
            let mut budget = CLOSE_DRAIN_BUDGET;
            loop {
                match conn.stream.read(&mut sink) {
                    Ok(n) if n > 0 && n <= budget => budget -= n,
                    _ => break,
                }
            }
        }
        self.close(token);
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.slab.remove(token) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
        }
    }

    /// Re-registers the socket for exactly the events the connection
    /// can act on: `EPOLLOUT` while a response is buffered, `EPOLLIN`
    /// while waiting for the next request, and *nothing* while a
    /// worker holds the request (errors and hangups are always
    /// reported regardless, so a dead client still gets noticed
    /// without a level-triggered busy loop).
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        let want = if conn.write_pending() {
            EPOLLOUT
        } else if !conn.in_flight && !conn.close_after_write {
            EPOLLIN | EPOLLRDHUP
        } else {
            0
        };
        if want != conn.interest {
            let fd = conn.stream.as_raw_fd();
            if self.epoll.modify(fd, want, token).is_ok() {
                conn.interest = want;
            }
        }
    }
}

/// Serializes a response into the connection's out-buffer and flips
/// the connection back to write mode.
fn stage_response(conn: &mut Conn, response: &Response, keep_alive: bool, now: Instant) {
    conn.out = response.serialize(keep_alive);
    conn.out_pos = 0;
    conn.close_after_write = !keep_alive;
    conn.in_flight = false;
    conn.last_activity = now;
}

/// A worker thread: pop, route, hand back, repeat until the queue
/// closes.
fn worker_loop(
    queue: &BoundedQueue<Job>,
    served: &AtomicU64,
    ctx: &Ctx,
    completions: &Completions,
) {
    while let Some(job) = queue.pop() {
        served.fetch_add(1, Ordering::Relaxed);
        if let Some(delay) = ctx.config.debug_handler_delay {
            std::thread::sleep(delay);
        }
        let response = match catch_unwind(AssertUnwindSafe(|| route(&job.request, ctx))) {
            Ok(response) => response,
            Err(_) => Response::json(
                500,
                error_body(
                    "http.internal",
                    "the handler failed unexpectedly",
                    "retry; report this if it repeats",
                ),
            ),
        };
        // Hand this request's hot counts to the global registry before
        // the client can see the reply, so a scrape after it counts them.
        obs::flush_hot();
        {
            let mut done = completions.done.lock().unwrap_or_else(|e| e.into_inner());
            done.push(Done {
                token: job.token,
                response,
            });
        }
        // Wake the event loop. WouldBlock means the pipe already holds
        // unread wakeups, which serves the same purpose.
        let _ = (&completions.notify).write(&[1u8]);
    }
}

/// A bound-but-not-yet-serving nalixd server over a [`DocumentStore`].
pub struct Server {
    store: Arc<DocumentStore>,
    listener: TcpListener,
    config: ServerConfig,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener. Accepts an owned [`DocumentStore`] or an
    /// existing `Arc` (share it to drive the store from outside the
    /// server, e.g. preloading). Fails only on bind errors (port in
    /// use, bad address).
    pub fn bind(store: impl Into<Arc<DocumentStore>>, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            store: store.into(),
            listener,
            config,
            shared: Arc::new(Shared {
                shutdown: AtomicBool::new(false),
                local_addr,
                started: Instant::now(),
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The document store this server fronts.
    pub fn store(&self) -> &Arc<DocumentStore> {
        &self.store
    }

    /// A handle for shutting the server down from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the server until [`ServerHandle::shutdown`] is called,
    /// then drains and returns. Blocks the calling thread on the
    /// event loop; the worker pool is plain spawned threads sharing
    /// the store via `Arc`.
    pub fn serve(self) -> io::Result<ServeReport> {
        crate::epoll::raise_nofile_limit();
        self.listener.set_nonblocking(true)?;
        let metrics = self.store.metrics_handle();
        let ctx = Arc::new(Ctx {
            store: Arc::clone(&self.store),
            config: self.config.clone(),
            shared: Arc::clone(&self.shared),
            sessions: nalix::SessionStore::with_metrics(
                self.config.session_capacity,
                self.config.session_ttl,
                Arc::clone(&metrics),
            ),
        });
        let queue = Arc::new(BoundedQueue::<Job>::new(self.config.queue_capacity));
        let served = Arc::new(AtomicU64::new(0));

        let epoll = Epoll::new()?;
        epoll.add(self.listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
        let (notify_rx, notify_tx) = UnixStream::pair()?;
        notify_rx.set_nonblocking(true)?;
        notify_tx.set_nonblocking(true)?;
        epoll.add(notify_rx.as_raw_fd(), EPOLLIN, NOTIFY_TOKEN)?;
        let completions = Arc::new(Completions {
            done: Mutex::new(Vec::new()),
            notify: notify_tx,
        });

        let workers: Vec<std::thread::JoinHandle<()>> = (0..self.config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let served = Arc::clone(&served);
                let ctx = Arc::clone(&ctx);
                let completions = Arc::clone(&completions);
                std::thread::spawn(move || worker_loop(&queue, &served, &ctx, &completions))
            })
            .collect();

        let mut event_loop = EventLoop {
            epoll,
            listener: Some(self.listener),
            notify_rx,
            slab: Slab::new(),
            queue: Arc::clone(&queue),
            completions,
            ctx,
            metrics,
            draining: false,
            shed: 0,
        };
        let result = event_loop.run();
        // Drain the worker pool even if the loop failed: every
        // admitted request is served before we report.
        queue.close();
        for worker in workers {
            let _ = worker.join();
        }
        result?;

        Ok(ServeReport {
            served: served.load(Ordering::SeqCst),
            shed: event_loop.shed,
            snapshot: metrics_snapshot(&self.store),
        })
    }
}

/// What `GET /metrics` and [`ServeReport::snapshot`] report: the store's
/// registry, which every document's pipelines record into, merged with
/// the process-global one, where `nlparser` and `xmldb` count.
fn metrics_snapshot(store: &DocumentStore) -> obs::MetricsSnapshot {
    let mut snap = store.snapshot();
    snap.merge(&obs::global().snapshot());
    snap
}

/// Writes the overload response on a just-accepted (still blocking)
/// socket. Failures are ignored: the client is being shed, and the
/// event loop must not block on it.
fn shed_connection(mut stream: TcpStream, retry_after_secs: u64) {
    let body = error_body("http.overloaded", "server is at capacity", "retry shortly");
    let _ = Response::json(503, body)
        .with_header("Retry-After", retry_after_secs.to_string())
        .write_to(&mut stream);
    // Drain whatever request bytes already arrived (without blocking:
    // the event loop must stay fast). Closing a socket with unread
    // data in its receive buffer sends RST, which can destroy the 503
    // we just wrote before the client reads it.
    if stream.set_nonblocking(true).is_ok() {
        let mut sink = [0u8; 4096];
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// Maps method+path to a handler, with proper 405/404 responses.
fn route(req: &Request, ctx: &Ctx) -> Response {
    let metrics = ctx.store.metrics_handle();
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/query") => with_span(&metrics, obs::Stage::HttpQuery, || handle_query(req, ctx)),
        ("POST", "/batch") => with_span(&metrics, obs::Stage::HttpBatch, || handle_batch(req, ctx)),
        ("GET", "/health") => with_span(&metrics, obs::Stage::HttpHealth, || {
            handle_health(&ctx.shared)
        }),
        ("GET", "/metrics") => with_span(&metrics, obs::Stage::HttpMetrics, || {
            Response::text(200, metrics_snapshot(&ctx.store).to_prometheus())
        }),
        ("GET", "/docs") => with_span(&metrics, obs::Stage::HttpDocs, || {
            handle_docs_list(&ctx.store)
        }),
        ("POST", path) if update_doc_name(path).is_some() => {
            with_span(&metrics, obs::Stage::HttpUpdate, || {
                handle_docs_update(req, &ctx.store)
            })
        }
        ("PUT", path) if path.strip_prefix("/docs/").is_some() => {
            with_span(&metrics, obs::Stage::HttpDocs, || {
                handle_docs_put(req, &ctx.store)
            })
        }
        ("DELETE", path) if path.strip_prefix("/docs/").is_some() => {
            with_span(&metrics, obs::Stage::HttpDocs, || {
                handle_docs_delete(req, &ctx.store)
            })
        }
        (_, "/query") | (_, "/batch") => Response::json(
            405,
            error_body("http.method_not_allowed", "use POST", "send a POST request"),
        )
        .with_header("Allow", "POST".to_string()),
        (_, "/health") | (_, "/metrics") => Response::json(
            405,
            error_body("http.method_not_allowed", "use GET", "send a GET request"),
        )
        .with_header("Allow", "GET".to_string()),
        (_, "/docs") => Response::json(
            405,
            error_body("http.method_not_allowed", "use GET", "send a GET request"),
        )
        .with_header("Allow", "GET".to_string()),
        (_, path) if update_doc_name(path).is_some() => Response::json(
            405,
            error_body(
                "http.method_not_allowed",
                "use POST to apply edits",
                "send a POST request",
            ),
        )
        .with_header("Allow", "POST".to_string()),
        (_, path) if path.starts_with("/docs/") => Response::json(
            405,
            error_body(
                "http.method_not_allowed",
                "use PUT to load/reload, DELETE to evict, or POST /docs/<name>/update to edit",
                "send a PUT, DELETE, or POST request",
            ),
        )
        .with_header("Allow", "PUT, DELETE".to_string()),
        _ => Response::json(
            404,
            error_body(
                "http.not_found",
                "unknown path",
                "use /query, /batch, /docs, /health, or /metrics",
            ),
        ),
    }
}

/// Runs `f` under a stage span whose outcome reflects the HTTP status:
/// 2xx → Ok, anything else → EvalError-class failure for the span.
fn with_span(
    metrics: &obs::MetricsRegistry,
    stage: obs::Stage,
    f: impl FnOnce() -> Response,
) -> Response {
    let mut span = metrics.span(stage);
    let response = f();
    span.set_outcome(if response.status() < 400 {
        obs::SpanOutcome::Ok
    } else {
        obs::SpanOutcome::EvalError
    });
    drop(span);
    response
}

/// `POST /query`: a JSON object `{"question": "...", "doc": "name"?,
/// "deadline_ms": n?, "session": "id"?, "backend": "xquery"|"sql"?}`
/// or a bare `text/plain` question (served by the default document on
/// the default backend). With a `session` id the
/// question may be a follow-up ("Of those, ...", "What about ...?")
/// resolved against the previous turn.
fn handle_query(req: &Request, ctx: &Ctx) -> Response {
    let parsed = match parse_query_body(req) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    if let Some(id) = parsed.session.clone() {
        return handle_session_query(&parsed, &id, ctx);
    }
    // Stateless requests have no previous turn, so an anaphoric
    // follow-up cannot be resolved: answer with the typed
    // missing-context error (and its rephrasing suggestion) instead of
    // letting the parser reject the fragment as ungrammatical.
    if let Some(follow) = nalix::detect_follow_up(&parsed.question) {
        return query_error_response(&QueryError::missing_context(follow.phrase()));
    }
    let pipeline = match ctx.store.get(parsed.doc.as_deref()) {
        Ok(p) => p,
        Err(err) => return store_error_response(&err),
    };
    let budget = budget_for(parsed.deadline_ms, &ctx.config);
    let backend = parsed.backend.unwrap_or_else(|| pipeline.nalix().backend());
    match pipeline
        .nalix()
        .answer_full_on(backend, &parsed.question, &budget)
    {
        Ok(answer) => Response::json(
            200,
            answer_json(&answer, pipeline.name(), pipeline.generation(), None).render(),
        ),
        Err(err) => query_error_response(&err),
    }
}

/// `POST /query` with a `"session"` id: checkout, resolve the question
/// against the previous turn, answer, commit the new turn back.
///
/// A session pins its document by *name and load generation* — plain
/// values, never a snapshot handle — so a hot reload or an eviction
/// retires the conversation (typed expired-context error on the next
/// follow-up) instead of the conversation pinning a retired snapshot.
fn handle_session_query(parsed: &QueryBody, id: &str, ctx: &Ctx) -> Response {
    let follow = nalix::detect_follow_up(&parsed.question);
    let session = match ctx.sessions.checkout(id) {
        nalix::SessionCheckout::Live(s) => Some(s),
        nalix::SessionCheckout::Expired => {
            if follow.is_some() {
                return query_error_response(&QueryError::expired_context(format!(
                    "session \"{id}\" sat idle past the server's session time-to-live"
                )));
            }
            None
        }
        // Absent covers both "never created" and "evicted under the
        // session cap" — the server cannot tell them apart, and either
        // way there is no context to resolve a follow-up against.
        nalix::SessionCheckout::Absent => {
            if follow.is_some() {
                return query_error_response(&QueryError::expired_context(format!(
                    "session \"{id}\" is not (or is no longer) known to the server"
                )));
            }
            None
        }
    };
    // The document for this turn: an explicit "doc" wins, then the
    // session's pinned document, then the store default.
    let explicit = parsed.doc.as_deref();
    let want = explicit.or_else(|| session.as_ref().map(|s| s.doc.as_str()));
    let pipeline = match ctx.store.get(want) {
        Ok(p) => p,
        Err(err) => {
            if explicit.is_none() {
                if let Some(s) = &session {
                    // The pinned document was deleted out from under
                    // the conversation: retire the session rather than
                    // leave it naming a dead document forever.
                    ctx.sessions.invalidate(id);
                    return query_error_response(&QueryError::expired_context(format!(
                        "the document \"{}\" this conversation was about is no longer loaded",
                        s.doc
                    )));
                }
            }
            return store_error_response(&err);
        }
    };
    let (name, generation) = (pipeline.name().to_string(), pipeline.generation());
    // Context survives only on the exact snapshot identity it was
    // built against: same document name, same load generation.
    let mut session = match session {
        Some(s) if s.doc == name && s.generation == generation => s,
        Some(s) => {
            ctx.sessions.invalidate(id);
            if follow.is_some() {
                let reason = if s.doc == name {
                    format!("the document \"{name}\" was reloaded since the previous turn")
                } else {
                    format!(
                        "the conversation moved from document \"{}\" to \"{name}\"",
                        s.doc
                    )
                };
                return query_error_response(&QueryError::expired_context(reason));
            }
            nalix::Session::new(name.clone(), generation)
        }
        None => nalix::Session::new(name.clone(), generation),
    };
    let budget = budget_for(parsed.deadline_ms, &ctx.config);
    let backend = parsed.backend.unwrap_or_else(|| pipeline.nalix().backend());
    match pipeline.nalix().answer_turn_on(
        backend,
        &parsed.question,
        session.prior.as_ref(),
        &budget,
    ) {
        Ok(turn) => {
            session.record_turn(turn.turn);
            let body = answer_json(&turn.answer, &name, generation, Some((id, session.turns)));
            ctx.sessions.commit(id, session);
            Response::json(200, body.render())
        }
        Err(err) => {
            // A failed turn keeps the prior context intact (and the
            // TTL clock fresh): the user rephrases against the same
            // conversation.
            ctx.sessions.commit(id, session);
            query_error_response(&err)
        }
    }
}

/// The success body shared by stateless and session `/query` replies;
/// session replies additionally echo the session id and turn number.
fn answer_json(
    answer: &nalix::Answer,
    doc: &str,
    generation: u64,
    session: Option<(&str, u64)>,
) -> Json {
    let mut fields = vec![
        (
            "answers".to_string(),
            Json::Arr(answer.values.iter().cloned().map(Json::Str).collect()),
        ),
        ("count".to_string(), Json::Num(answer.values.len() as f64)),
        ("xquery".to_string(), Json::Str(answer.xquery.clone())),
        (
            "backend".to_string(),
            Json::Str(answer.backend.name().to_string()),
        ),
        ("cached".to_string(), Json::Bool(answer.cached)),
        (
            "warnings".to_string(),
            Json::Arr(
                answer
                    .warnings
                    .iter()
                    .map(|w| Json::Str(w.message()))
                    .collect(),
            ),
        ),
        ("doc".to_string(), Json::Str(doc.to_string())),
        ("generation".to_string(), Json::Num(generation as f64)),
    ];
    if let Some((id, turn)) = session {
        fields.push(("session".to_string(), Json::Str(id.to_string())));
        fields.push(("turn".to_string(), Json::Num(turn as f64)));
    }
    Json::Obj(fields)
}

/// `POST /batch`: `{"questions": ["...", ...], "doc": "name"?,
/// "backend": "xquery"|"sql"?}`, answered sequentially on this worker
/// against one pinned snapshot, results in input order.
fn handle_batch(req: &Request, ctx: &Ctx) -> Response {
    /// Per-request cap on batch size; larger batches should be split
    /// by the client (keeps one worker from being pinned for minutes).
    const MAX_BATCH: usize = 256;
    let parsed = match Json::parse(body_str(req)) {
        Ok(v) => v,
        Err(e) => {
            return Response::json(
                400,
                error_body("http.bad_request", &e.to_string(), "send valid JSON"),
            )
        }
    };
    let Some(questions) = parsed.get("questions").and_then(Json::as_array) else {
        return Response::json(
            400,
            error_body(
                "http.bad_request",
                "missing \"questions\" array",
                "send {\"questions\": [\"...\"]}",
            ),
        );
    };
    if questions.len() > MAX_BATCH {
        return Response::json(
            413,
            error_body(
                "http.payload_too_large",
                &format!(
                    "batch of {} exceeds the {MAX_BATCH} question cap",
                    questions.len()
                ),
                "split the batch",
            ),
        );
    }
    let doc = parsed.get("doc").and_then(Json::as_str);
    let backend = match parse_backend(&parsed) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    // One snapshot for the whole batch: a concurrent reload must not
    // make half the answers come from the old document and half from
    // the new one.
    let pipeline = match ctx.store.get(doc) {
        Ok(p) => p,
        Err(err) => return store_error_response(&err),
    };
    let backend = backend.unwrap_or_else(|| pipeline.nalix().backend());
    let budget = budget_for(None, &ctx.config);
    let mut results = Vec::with_capacity(questions.len());
    for q in questions {
        let Some(text) = q.as_str() else {
            results.push(Json::Obj(vec![(
                "error".to_string(),
                error_obj(
                    "http.bad_request",
                    "question is not a string",
                    "send strings",
                ),
            )]));
            continue;
        };
        match pipeline.nalix().answer_full_on(backend, text, &budget) {
            Ok(answer) => results.push(Json::Obj(vec![
                (
                    "answers".to_string(),
                    Json::Arr(answer.values.iter().cloned().map(Json::Str).collect()),
                ),
                ("count".to_string(), Json::Num(answer.values.len() as f64)),
            ])),
            Err(err) => results.push(Json::Obj(vec![(
                "error".to_string(),
                error_obj(err.code(), &err.to_string(), err.suggestion()),
            )])),
        }
    }
    let body = Json::Obj(vec![
        ("count".to_string(), Json::Num(results.len() as f64)),
        ("results".to_string(), Json::Arr(results)),
        ("doc".to_string(), Json::Str(pipeline.name().to_string())),
        ("backend".to_string(), Json::Str(backend.name().to_string())),
    ]);
    Response::json(200, body.render())
}

/// `GET /health`: liveness plus drain state.
fn handle_health(shared: &Shared) -> Response {
    let status = if shared.shutdown.load(Ordering::SeqCst) {
        "draining"
    } else {
        "ok"
    };
    let body = Json::Obj(vec![
        ("status".to_string(), Json::Str(status.to_string())),
        (
            "uptime_ms".to_string(),
            Json::Num(shared.started.elapsed().as_millis() as f64),
        ),
    ]);
    Response::json(200, body.render())
}

/// `GET /docs`: every registered document with residency, size, and
/// hit statistics.
fn handle_docs_list(store: &DocumentStore) -> Response {
    let docs = store
        .list()
        .into_iter()
        .map(|d| {
            Json::Obj(vec![
                ("name".to_string(), Json::Str(d.name)),
                ("source".to_string(), Json::Str(d.source)),
                ("loaded".to_string(), Json::Bool(d.loaded)),
                ("generation".to_string(), Json::Num(d.generation as f64)),
                (
                    "nodes".to_string(),
                    d.nodes.map_or(Json::Num(0.0), |n| Json::Num(n as f64)),
                ),
                ("hits".to_string(), Json::Num(d.hits as f64)),
                ("default".to_string(), Json::Bool(d.is_default)),
            ])
        })
        .collect::<Vec<_>>();
    let body = Json::Obj(vec![
        (
            "default".to_string(),
            Json::Str(store.default_doc().to_string()),
        ),
        ("count".to_string(), Json::Num(docs.len() as f64)),
        ("docs".to_string(), Json::Arr(docs)),
    ]);
    Response::json(200, body.render())
}

/// `PUT /docs/:name`: load or hot-reload a document. The body is
/// `{"source": "bib" | "movies" | "dblp" | "/path/to.xml"}`, a bare
/// `text/plain` source, or empty (the name doubles as the source —
/// `PUT /docs/movies` loads the builtin).
fn handle_docs_put(req: &Request, store: &DocumentStore) -> Response {
    let Some(name) = doc_name(req) else {
        return bad_doc_path();
    };
    let text = body_str(req).trim();
    let source = if text.is_empty() {
        name.to_string()
    } else if text.starts_with('{') {
        match Json::parse(text) {
            Ok(v) => match v.get("source").and_then(Json::as_str) {
                Some(s) => s.to_string(),
                None => {
                    return Response::json(
                        400,
                        error_body(
                            "http.bad_request",
                            "missing \"source\" field",
                            "send {\"source\": \"bib\"} or a builtin/path as plain text",
                        ),
                    )
                }
            },
            Err(e) => {
                return Response::json(
                    400,
                    error_body("http.bad_request", &e.to_string(), "send valid JSON"),
                )
            }
        }
    } else {
        text.to_string()
    };
    match store.put(name, DocSpec::parse(&source)) {
        Ok(report) => {
            let p = &report.pipeline;
            let body = Json::Obj(vec![
                ("doc".to_string(), Json::Str(p.name().to_string())),
                ("source".to_string(), Json::Str(p.source().to_string())),
                ("generation".to_string(), Json::Num(p.generation() as f64)),
                (
                    "nodes".to_string(),
                    Json::Num(p.stats().total_nodes() as f64),
                ),
                ("reloaded".to_string(), Json::Bool(report.reloaded)),
            ]);
            Response::json(200, body.render())
        }
        Err(err) => store_error_response(&err),
    }
}

/// `DELETE /docs/:name`: evict a document. Later queries naming it
/// get a typed 404.
fn handle_docs_delete(req: &Request, store: &DocumentStore) -> Response {
    let Some(name) = doc_name(req) else {
        return bad_doc_path();
    };
    match store.evict(name) {
        Ok(()) => Response::json(
            200,
            Json::Obj(vec![("evicted".to_string(), Json::Str(name.to_string()))]).render(),
        ),
        Err(err) => store_error_response(&err),
    }
}

/// `POST /docs/:name/update`: apply a batch of node-level edits to a
/// resident document. The body is `{"edits": [...],
/// "expected_generation": n?}`; each edit is an object tagged by
/// `"op"`:
///
/// * `{"op": "insert_child", "parent": pre, "node": {...}}`
/// * `{"op": "insert_sibling", "after": pre, "node": {...}}`
/// * `{"op": "delete_subtree", "target": pre}`
/// * `{"op": "replace_value", "target": pre, "value": "..."}`
/// * `{"op": "rename_label", "target": pre, "label": "..."}`
///
/// Nodes are addressed by pre-order rank in the generation being
/// edited, and new nodes are `{"kind": "element"|"leaf"|"text",
/// "label"?, "text"?}` or `{"kind": "attribute", "name", "value"}`.
/// The batch is atomic; the response echoes the new generation, and a
/// stale `expected_generation` is answered with a typed `409`.
fn handle_docs_update(req: &Request, store: &DocumentStore) -> Response {
    let Some(name) = update_doc_name(&req.path) else {
        return bad_doc_path();
    };
    let parsed = match Json::parse(body_str(req)) {
        Ok(v) => v,
        Err(e) => {
            return Response::json(
                400,
                error_body("http.bad_request", &e.to_string(), "send valid JSON"),
            )
        }
    };
    let Some(edits_json) = parsed.get("edits").and_then(Json::as_array) else {
        return Response::json(
            400,
            error_body(
                "http.bad_request",
                "missing \"edits\" array",
                "send {\"edits\": [{\"op\": \"...\", ...}]}",
            ),
        );
    };
    let mut edits = Vec::with_capacity(edits_json.len());
    for (i, edit) in edits_json.iter().enumerate() {
        match parse_edit_spec(edit) {
            Ok(spec) => edits.push(spec),
            Err(detail) => {
                return Response::json(
                    400,
                    error_body(
                        "http.bad_request",
                        &format!("edit #{i}: {detail}"),
                        "see POST /docs/<name>/update for the edit shapes",
                    ),
                )
            }
        }
    }
    let expected = parsed.get("expected_generation").and_then(Json::as_u64);
    match store.update(Some(name), &edits, expected) {
        Ok(report) => {
            let p = &report.pipeline;
            let strategy = match report.stats.strategy {
                xmldb::CommitStrategy::Patch => "patch",
                xmldb::CommitStrategy::Rebuild => "rebuild",
            };
            let body = Json::Obj(vec![
                ("doc".to_string(), Json::Str(p.name().to_string())),
                ("generation".to_string(), Json::Num(p.generation() as f64)),
                ("strategy".to_string(), Json::Str(strategy.to_string())),
                ("edits".to_string(), Json::Num(report.stats.edits as f64)),
                (
                    "inserted".to_string(),
                    Json::Num(report.stats.inserted as f64),
                ),
                (
                    "deleted".to_string(),
                    Json::Num(report.stats.deleted as f64),
                ),
                (
                    "nodes".to_string(),
                    Json::Num(p.stats().total_nodes() as f64),
                ),
            ]);
            Response::json(200, body.render())
        }
        Err(err) => store_error_response(&err),
    }
}

/// One `{"op": ...}` object from an update batch, as a store edit.
fn parse_edit_spec(edit: &Json) -> Result<EditSpec, String> {
    let op = edit
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing \"op\"")?;
    let pre = |field: &str| -> Result<u32, String> {
        let n = edit
            .get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer \"{field}\""))?;
        u32::try_from(n).map_err(|_| format!("\"{field}\" out of range"))
    };
    let string = |field: &str| -> Result<String, String> {
        edit.get(field)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing \"{field}\" string"))
    };
    match op {
        "insert_child" => Ok(EditSpec::InsertChild {
            parent: pre("parent")?,
            node: parse_new_node(edit.get("node").ok_or("missing \"node\"")?)?,
        }),
        "insert_sibling" => Ok(EditSpec::InsertSibling {
            after: pre("after")?,
            node: parse_new_node(edit.get("node").ok_or("missing \"node\"")?)?,
        }),
        "delete_subtree" => Ok(EditSpec::DeleteSubtree {
            target: pre("target")?,
        }),
        "replace_value" => Ok(EditSpec::ReplaceValue {
            target: pre("target")?,
            value: string("value")?,
        }),
        "rename_label" => Ok(EditSpec::RenameLabel {
            target: pre("target")?,
            label: string("label")?,
        }),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// A `{"kind": ...}` node payload for the insert ops.
fn parse_new_node(node: &Json) -> Result<xmldb::NewNode, String> {
    let kind = node
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("node missing \"kind\"")?;
    let string = |field: &str| -> Result<String, String> {
        node.get(field)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("node missing \"{field}\" string"))
    };
    match kind {
        "element" => Ok(xmldb::NewNode::Element {
            label: string("label")?,
        }),
        "leaf" => Ok(xmldb::NewNode::Leaf {
            label: string("label")?,
            text: string("text")?,
        }),
        "text" => Ok(xmldb::NewNode::Text {
            text: string("text")?,
        }),
        "attribute" => Ok(xmldb::NewNode::Attribute {
            name: string("name")?,
            value: string("value")?,
        }),
        other => Err(format!("unknown node kind {other:?}")),
    }
}

/// The `:name` segment of a `/docs/:name/update` path, rejecting
/// nested segments.
fn update_doc_name(path: &str) -> Option<&str> {
    let name = path.strip_prefix("/docs/")?.strip_suffix("/update")?;
    if name.is_empty() || name.contains('/') {
        None
    } else {
        Some(name)
    }
}

/// The `:name` segment of a `/docs/:name` path, rejecting nested
/// segments.
fn doc_name(req: &Request) -> Option<&str> {
    let rest = req.path.strip_prefix("/docs/")?;
    if rest.is_empty() || rest.contains('/') {
        None
    } else {
        Some(rest)
    }
}

fn bad_doc_path() -> Response {
    Response::json(
        404,
        error_body(
            "http.not_found",
            "expected /docs/<name>",
            "name exactly one document in the path",
        ),
    )
}

/// What `POST /query` carries, after body parsing.
struct QueryBody {
    question: String,
    deadline_ms: Option<u64>,
    doc: Option<String>,
    session: Option<String>,
    backend: Option<nalix::BackendKind>,
}

/// Parse an optional `"backend"` field; anything but a known backend
/// name is the typed `backend.unknown` error.
fn parse_backend(parsed: &Json) -> Result<Option<nalix::BackendKind>, Response> {
    match parsed.get("backend") {
        None => Ok(None),
        Some(v) => match v.as_str().and_then(nalix::BackendKind::parse) {
            Some(k) => Ok(Some(k)),
            None => Err(Response::json(
                400,
                error_body(
                    "backend.unknown",
                    &format!("unknown backend {}", v.render()),
                    "send \"backend\": \"xquery\" or \"sql\", or omit it for the server default",
                ),
            )),
        },
    }
}

/// Cap on client-chosen session ids: they are stored verbatim as map
/// keys, so an unbounded id would be an unbounded allocation the LRU
/// cap cannot see.
const MAX_SESSION_ID: usize = 128;

/// Extracts the question, optional deadline, and optional document
/// name from a `/query` body, accepting JSON or plain text.
fn parse_query_body(req: &Request) -> Result<QueryBody, Response> {
    let text = body_str(req);
    let looks_json = req
        .content_type
        .as_deref()
        .map(|t| t.contains("json"))
        .unwrap_or_else(|| text.trim_start().starts_with('{'));
    let parsed = if looks_json {
        let parsed = Json::parse(text).map_err(|e| {
            Response::json(
                400,
                error_body("http.bad_request", &e.to_string(), "send valid JSON"),
            )
        })?;
        let question = parsed
            .get("question")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| {
                Response::json(
                    400,
                    error_body(
                        "http.bad_request",
                        "missing \"question\" field",
                        "send {\"question\": \"...\"}",
                    ),
                )
            })?;
        let session = match parsed.get("session").and_then(Json::as_str) {
            Some(id) if id.is_empty() || id.len() > MAX_SESSION_ID => {
                return Err(Response::json(
                    400,
                    error_body(
                        "http.bad_request",
                        &format!("\"session\" must be 1..={MAX_SESSION_ID} bytes"),
                        "send a short opaque session id",
                    ),
                ));
            }
            other => other.map(str::to_string),
        };
        QueryBody {
            question,
            deadline_ms: parsed.get("deadline_ms").and_then(Json::as_u64),
            doc: parsed.get("doc").and_then(Json::as_str).map(str::to_string),
            session,
            backend: parse_backend(&parsed)?,
        }
    } else {
        QueryBody {
            question: text.trim().to_string(),
            deadline_ms: None,
            doc: None,
            session: None,
            backend: None,
        }
    };
    if parsed.question.trim().is_empty() {
        return Err(Response::json(
            400,
            error_body("http.bad_request", "empty question", "ask a question"),
        ));
    }
    Ok(parsed)
}

/// The request body as (lossy) UTF-8.
fn body_str(req: &Request) -> &str {
    std::str::from_utf8(&req.body).unwrap_or("")
}

/// The evaluation budget for one request: the client's deadline,
/// clamped to the configured maximum; the default when none given.
fn budget_for(deadline_ms: Option<u64>, config: &ServerConfig) -> EvalBudget {
    let requested = deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(config.default_deadline);
    EvalBudget::default().with_time_limit(requested.min(config.max_deadline))
}

/// Maps a store error to its HTTP response: an unknown document is the
/// client naming something that is not there (404), a lost
/// optimistic-concurrency race is a conflict (409), and everything
/// else is a bad request (400).
fn store_error_response(err: &StoreError) -> Response {
    let status = match err {
        StoreError::UnknownDocument { .. } => 404,
        StoreError::Conflict { .. } => 409,
        StoreError::InvalidName { .. }
        | StoreError::Load { .. }
        | StoreError::DefaultProtected { .. }
        | StoreError::UpdateRejected { .. } => 400,
    };
    Response::json(
        status,
        error_body(err.code(), &err.to_string(), err.suggestion()),
    )
}

/// Maps a pipeline error to its HTTP response: stable code, rendered
/// message, rephrasing suggestion, and a status that distinguishes
/// "your question" (422) from "our evaluator" (500) from "out of time"
/// (504) from "your conversation context is gone" (410).
fn query_error_response(err: &QueryError) -> Response {
    let status = match err {
        QueryError::Parse { .. }
        | QueryError::Classify { .. }
        | QueryError::Validate { .. }
        | QueryError::Translate { .. }
        | QueryError::MissingContext { .. }
        | QueryError::UpdateIntent { .. } => 422,
        QueryError::ExpiredContext { .. } => 410,
        QueryError::Eval { .. } => 500,
        QueryError::ResourceExhausted { resource, .. } => match resource {
            ExhaustedResource::Time => 504,
            ExhaustedResource::Depth | ExhaustedResource::Tuples => 422,
        },
    };
    Response::json(
        status,
        error_body(err.code(), &err.to_string(), err.suggestion()),
    )
}

/// A rendered `{"error": {...}}` JSON body.
fn error_body(code: &str, message: &str, suggestion: &str) -> String {
    Json::Obj(vec![(
        "error".to_string(),
        error_obj(code, message, suggestion),
    )])
    .render()
}

/// The inner error object shared by `/query` and `/batch` bodies.
fn error_obj(code: &str, message: &str, suggestion: &str) -> Json {
    Json::Obj(vec![
        ("code".to_string(), Json::Str(code.to_string())),
        ("message".to_string(), Json::Str(message.to_string())),
        ("suggestion".to_string(), Json::Str(suggestion.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_merge_the_process_global_registry() {
        let store = DocumentStore::with_builtins(store::StoreConfig::default());
        let bib = store.get(None).unwrap();
        bib.nalix().ask("Return every title.").unwrap();
        // The parser counts only in the global registry.
        assert_eq!(store.snapshot().counter(obs::Counter::ParsedSentences), 0);
        assert!(metrics_snapshot(&store).counter(obs::Counter::ParsedSentences) >= 1);
    }
}
