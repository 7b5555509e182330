//! The daemon itself: TCP listener, bounded job queue, fixed worker pool.
//!
//! The server is generic over a [`LabBackend`] — the object that actually
//! runs scenarios, sweeps and analyses (in this repo: `dbt-lab`'s
//! `LabDaemon`, which owns the process-wide `TranslationService` and the
//! content-addressed `RunMemo`). Keeping the backend abstract keeps this
//! crate `std`-only and lets the tests drive the concurrency machinery
//! with a controllable mock.
//!
//! Request flow:
//!
//! 1. the acceptor thread hands each connection to a detached handler
//!    thread that reads newline-delimited request frames;
//! 2. cheap requests (`stats`, `health`, `shutdown`, the trace-log form
//!    of `profile`) are answered inline;
//! 3. heavy requests (`run`, `sweep`, `analyze`, `upload`, the
//!    program-profiling form of `profile`) are pushed onto
//!    the bounded [`BoundedQueue`]; a full queue answers `busy` immediately
//!    — explicit backpressure instead of unbounded buffering (request
//!    lines themselves are bounded too: see
//!    [`ServerConfig::max_frame_bytes`]);
//! 4. the fixed pool of worker threads pops jobs, executes them on the
//!    backend, and sends the result back to the waiting handler, which
//!    writes the response frame.
//!
//! Shutdown (`shutdown` request or [`ServerHandle::shutdown`]) closes the
//! queue — workers drain what was admitted, later pushes answer an error
//! — and wakes the acceptor, so [`ServerHandle::wait`] returns once all
//! admitted work is done.
//!
//! Every answered request is tagged with a trace id — the frame's own
//! `trace_id` when the client sent one, a deterministic per-connection
//! `t<n>` otherwise — echoed on the response frame and recorded in a
//! bounded in-memory trace log that the inline form of the `profile`
//! request reads back.
//!
//! Heavy requests additionally get a causal span tree keyed by that
//! trace id: a `d:request` root (attached under the frame's
//! `parent_span` when a router relayed it), with `d:decode`,
//! `d:queue-wait`, `d:encode` children recorded here, and the deeper
//! `translate.*`/`simulate` stages recorded by the lab layers through
//! the ambient [`dbt_obs::TraceHandle`] the worker enters around
//! execution. The `trace` op assembles the tree; the `logs` op serves
//! the daemon's structured [`EventLog`] (lifecycle events live there).
//! All three rings are bounded by [`ServerConfig`] knobs.

use crate::json::escape;
use crate::protocol::{ProgramSource, Request, Response, RunKnobs};
use crate::queue::{BoundedQueue, PushError};
use dbt_obs::{
    Counter, EventLog, Gauge, Histogram, LogLevel, MetricsRegistry, Span, SpanRecord, SpanRecorder,
    TraceClock, TraceHandle, DEFAULT_LATENCY_BOUNDS_MICROS,
};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// What the daemon delegates actual lab work to.
///
/// Implementations must be thread-safe: the worker pool calls these
/// concurrently. Every method returns the *payload* of an `ok` response —
/// for the report-producing operations that is expected to be the lab's
/// byte-stable report JSON, so a daemon answer is byte-identical to what a
/// local CLI invocation would have printed.
pub trait LabBackend: Send + Sync {
    /// Runs one scenario by full name, returning the report JSON.
    ///
    /// # Errors
    ///
    /// A human-readable message for the `error` response frame.
    fn run_scenario(&self, scenario: &str) -> Result<String, String>;

    /// Runs one registered sweep (`threads == 0` = backend default),
    /// returning the report JSON.
    ///
    /// # Errors
    ///
    /// A human-readable message for the `error` response frame.
    fn sweep(&self, name: &str, threads: usize) -> Result<String, String>;

    /// Analyzes one program (named by a program ref), returning the
    /// verdict report JSON.
    ///
    /// # Errors
    ///
    /// A human-readable message for the `error` response frame.
    fn analyze(&self, program: &str) -> Result<String, String>;

    /// Submits a guest program into the backend's program store,
    /// returning a single-line JSON object with at least `fingerprint`
    /// (the `fp:<16-hex>` content address) and `dedup` (whether identical
    /// content was already resident).
    ///
    /// The default implementation rejects uploads, so backends without a
    /// program store keep working unchanged.
    ///
    /// # Errors
    ///
    /// A human-readable message for the `error` response frame.
    fn upload(&self, source: &ProgramSource) -> Result<String, String> {
        let _ = source;
        Err("this backend does not accept program uploads".to_string())
    }

    /// Runs an ad-hoc program named by a program ref under `policy` with
    /// the request's sparse platform `knobs`, returning the report JSON.
    /// Rejected by default, like [`LabBackend::upload`].
    ///
    /// # Errors
    ///
    /// A human-readable message for the `error` response frame.
    fn run_program(&self, program: &str, policy: &str, knobs: &RunKnobs) -> Result<String, String> {
        let _ = (program, policy, knobs);
        Err("this backend does not run ad-hoc programs".to_string())
    }

    /// Profiles one program (named by a program ref) under `policy`,
    /// returning the deterministic cycle-domain profile report JSON.
    /// Rejected by default, like [`LabBackend::upload`].
    ///
    /// # Errors
    ///
    /// A human-readable message for the `error` response frame.
    fn profile(&self, program: &str, policy: &str) -> Result<String, String> {
        let _ = (program, policy);
        Err("this backend does not profile programs".to_string())
    }

    /// Single-line JSON object with the backend's cache/service counters
    /// (embedded verbatim in the `stats` response body).
    fn stats_json(&self) -> String;

    /// Prometheus text-format exposition of the backend's own metric
    /// families, appended after the server's families in the `metrics`
    /// response body. Backends are expected to mirror the *same*
    /// snapshots [`LabBackend::stats_json`] reports, so the two views
    /// agree exactly. The default is empty: backends without metrics
    /// keep working unchanged.
    fn metrics_text(&self) -> String {
        String::new()
    }

    /// The backend's own structured event log, if it keeps one. When
    /// present, the server adopts it as the log behind the `logs` op —
    /// backend events (durable-cache lifecycle, quarantines, GC) and
    /// server lifecycle events interleave in one stream. The default is
    /// `None`: the server creates its own log bounded by
    /// [`ServerConfig::event_log_capacity`], exactly as before.
    fn event_log(&self) -> Option<Arc<EventLog>> {
        None
    }
}

/// Default bound on one request frame, in bytes. Large enough for any
/// realistic program upload (the biggest in-repo image is a few hundred
/// KiB), small enough that a hostile or broken client cannot make a
/// handler buffer unboundedly.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 4 << 20;

/// Daemon sizing knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Fixed number of worker threads executing heavy requests.
    pub workers: usize,
    /// Bound of the job queue; `0` makes every heavy request answer
    /// `busy` (useful to exercise the backpressure path).
    pub queue_depth: usize,
    /// Bound on one request line: longer frames are answered with a clean
    /// `error` frame and the connection is closed (the line's framing can
    /// no longer be trusted), instead of buffering without limit.
    pub max_frame_bytes: usize,
    /// Bound of the request trace log (oldest entries evicted; `0` keeps
    /// nothing).
    pub trace_log_capacity: usize,
    /// Bound of the span ring behind the `trace` op.
    pub span_log_capacity: usize,
    /// Bound of the structured event log behind the `logs` op.
    pub event_log_capacity: usize,
    /// Root directory of the durable content-addressed cache the backend
    /// serving this config attaches (`lab serve --cache-dir`). `None` —
    /// the default — keeps every cache purely in-memory: behavior,
    /// counters and artifacts are byte-identical to builds without the
    /// persistence tier.
    pub cache_dir: Option<String>,
}

impl Default for ServerConfig {
    /// Two workers over a 16-deep queue: enough concurrency to overlap a
    /// sweep with single-scenario queries without oversubscribing the
    /// sweep executor's own threads. Frames are capped at
    /// [`DEFAULT_MAX_FRAME_BYTES`]; the observability rings keep their
    /// historical bounds ([`TRACE_LOG_CAPACITY`],
    /// [`dbt_obs::DEFAULT_SPAN_CAPACITY`],
    /// [`dbt_obs::DEFAULT_EVENT_CAPACITY`]).
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            trace_log_capacity: TRACE_LOG_CAPACITY,
            span_log_capacity: dbt_obs::DEFAULT_SPAN_CAPACITY,
            event_log_capacity: dbt_obs::DEFAULT_EVENT_CAPACITY,
            cache_dir: None,
        }
    }
}

/// One admitted job: the parsed request plus the channel its connection
/// handler is waiting on, plus the causal trace context the worker
/// re-enters around execution (heavy traced requests only).
struct Job {
    request: Request,
    reply: mpsc::Sender<Result<String, String>>,
    trace: Option<JobTrace>,
}

/// The span context a job carries across the queue.
struct JobTrace {
    handle: TraceHandle,
    /// Clock reading at admission; the worker turns the gap until pop
    /// into the `d:queue-wait` span.
    enqueued_micros: u64,
}

/// The request `op` labels the server pre-registers, so every per-op
/// sample renders (at zero) from the very first scrape. `invalid` labels
/// frames that never decoded to an op.
const OP_LABELS: [&str; 12] = [
    "analyze", "health", "invalid", "logs", "metrics", "profile", "run", "shutdown", "stats",
    "sweep", "trace", "upload",
];

/// Default bound of the in-memory request trace log (oldest entries
/// evicted); override via [`ServerConfig::trace_log_capacity`].
pub const TRACE_LOG_CAPACITY: usize = 256;

/// Span-id prefix and root span id of daemon-side spans.
const SPAN_PREFIX: &str = "d";
const ROOT_SPAN: &str = "d:request";

/// The server's own metric families, resolved once at startup on a
/// per-daemon registry (a process can host several daemons — tests do —
/// without their counters bleeding into each other).
struct ServerMetrics {
    registry: Arc<MetricsRegistry>,
    /// `dbt_serve_requests_total{op=...}`, parallel to [`OP_LABELS`].
    requests: Vec<Arc<Counter>>,
    /// `dbt_serve_request_seconds{op=...}`, parallel to [`OP_LABELS`].
    latency: Vec<Arc<Histogram>>,
    inflight: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    completed: Arc<Counter>,
    busy_rejections: Arc<Counter>,
    frame_cap_errors: Arc<Counter>,
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
}

impl ServerMetrics {
    fn new() -> ServerMetrics {
        let registry = MetricsRegistry::new();
        let requests = OP_LABELS
            .iter()
            .map(|op| {
                registry.counter_with(
                    "dbt_serve_requests_total",
                    "Request frames seen, by op (`invalid` = never decoded).",
                    &[("op", op)],
                )
            })
            .collect();
        let latency = OP_LABELS
            .iter()
            .map(|op| {
                registry.histogram_with(
                    "dbt_serve_request_seconds",
                    "Wall-clock request latency as observed by the connection handler, by op.",
                    DEFAULT_LATENCY_BOUNDS_MICROS,
                    &[("op", op)],
                )
            })
            .collect();
        ServerMetrics {
            requests,
            latency,
            inflight: registry.gauge("dbt_serve_inflight", "Requests currently being answered."),
            queue_depth: registry
                .gauge("dbt_serve_queue_depth", "Heavy jobs queued (sampled at scrape time)."),
            completed: registry
                .counter("dbt_serve_completed_total", "Heavy jobs completed by the worker pool."),
            busy_rejections: registry.counter(
                "dbt_serve_busy_rejections_total",
                "Heavy requests bounced because the job queue was full.",
            ),
            frame_cap_errors: registry.counter(
                "dbt_serve_frame_cap_errors_total",
                "Request frames rejected for exceeding the size cap.",
            ),
            bytes_read: registry
                .counter("dbt_serve_bytes_read_total", "Request frame payload bytes read."),
            bytes_written: registry
                .counter("dbt_serve_bytes_written_total", "Response frame bytes written."),
            registry,
        }
    }

    /// Index of `op` in [`OP_LABELS`]; unknown strings land on `invalid`
    /// (cannot happen for responses the server itself produced).
    fn op_index(op: &str) -> usize {
        OP_LABELS.iter().position(|known| *known == op).unwrap_or_else(|| {
            OP_LABELS.iter().position(|known| *known == "invalid").expect("invalid is registered")
        })
    }

    /// Total request frames seen (the sum of every per-op counter) — what
    /// the `stats` JSON reports as `server.requests`.
    fn total_requests(&self) -> u64 {
        self.requests.iter().map(|counter| counter.get()).sum()
    }
}

struct Shared {
    backend: Arc<dyn LabBackend>,
    queue: BoundedQueue<Job>,
    config: ServerConfig,
    addr: SocketAddr,
    shutdown: AtomicBool,
    started: Instant,
    metrics: ServerMetrics,
    /// The request trace log: `(trace_id, op, micros)` of the last
    /// [`ServerConfig::trace_log_capacity`] answered requests, newest
    /// last. Latencies are wall-clock and operator-facing, like the
    /// metrics exposition.
    traces: Mutex<VecDeque<(String, String, u64)>>,
    /// Finished request spans, served by the `trace` op.
    spans: Arc<SpanRecorder>,
    /// Structured lifecycle events, served by the `logs` op. Shared with
    /// the backend when it lends its own log via [`LabBackend::event_log`].
    events: Arc<EventLog>,
}

impl Shared {
    /// Parses and answers one request line, timing it into the per-op
    /// latency histogram and the trace log. `generated` is the
    /// connection's deterministic fallback trace id, used when the frame
    /// carries none. Returns the encoded response frame and whether the
    /// server must begin shutting down after sending it.
    fn respond(&self, line: &str, generated: String) -> (String, bool) {
        self.metrics.inflight.inc();
        let decode_start = self.spans.now_micros();
        let (decoded, meta) = match Request::decode_frame_meta(line) {
            Ok((request, meta)) => (Ok(request), meta),
            Err(error) => (Err(error), Default::default()),
        };
        let decode_end = self.spans.now_micros();
        let trace_id = meta.trace_id.unwrap_or(generated);
        // Count the frame up front (under its op as soon as it is known),
        // so a `stats` or `metrics` answer includes the very request that
        // asked.
        let op = decoded.as_ref().map(Request::op).unwrap_or("invalid");
        let index = ServerMetrics::op_index(op);
        self.metrics.requests[index].inc();
        let span = Span::on(&self.metrics.latency[index]);
        let started = Instant::now();
        // Heavy requests get a span tree under the request root; cheap
        // ones (including the `trace` fetch itself) stay span-free.
        let trace = decoded.as_ref().map(Request::is_heavy).unwrap_or(false).then(|| {
            self.spans.record(SpanRecord {
                trace_id: trace_id.clone(),
                span_id: format!("{SPAN_PREFIX}:decode"),
                parent: Some(ROOT_SPAN.to_string()),
                stage: "decode".to_string(),
                start_micros: decode_start,
                duration_micros: decode_end.saturating_sub(decode_start),
            });
            TraceHandle::new(Arc::clone(&self.spans), &trace_id, SPAN_PREFIX, ROOT_SPAN)
        });
        let (response, stop) = self.answer(decoded, trace.as_ref());
        let answered = self.spans.now_micros();
        let frame = response.encode_with_trace(Some(&trace_id));
        if trace.is_some() {
            let encoded = self.spans.now_micros();
            self.spans.record(SpanRecord {
                trace_id: trace_id.clone(),
                span_id: format!("{SPAN_PREFIX}:encode"),
                parent: Some(ROOT_SPAN.to_string()),
                stage: "encode".to_string(),
                start_micros: answered,
                duration_micros: encoded.saturating_sub(answered),
            });
            self.spans.record(SpanRecord {
                trace_id: trace_id.clone(),
                span_id: ROOT_SPAN.to_string(),
                parent: meta.parent_span,
                stage: "request".to_string(),
                start_micros: decode_start,
                duration_micros: encoded.saturating_sub(decode_start),
            });
        }
        drop(span);
        // Recorded *after* answering, so a trace-log answer describes only
        // the requests before it, never itself.
        self.record_trace(&trace_id, op, started.elapsed().as_micros() as u64);
        self.metrics.inflight.dec();
        (frame, stop)
    }

    /// Appends one entry to the bounded trace log.
    fn record_trace(&self, trace_id: &str, op: &str, micros: u64) {
        let capacity = self.config.trace_log_capacity;
        let mut traces = self.traces.lock().expect("trace log lock");
        if capacity == 0 {
            return;
        }
        if traces.len() == capacity {
            traces.pop_front();
        }
        traces.push_back((trace_id.to_string(), op.to_string(), micros));
    }

    /// The single-line JSON body of the inline (trace-log) `profile`
    /// answer.
    fn trace_log_json(&self) -> String {
        let traces = self.traces.lock().expect("trace log lock");
        let entries = traces
            .iter()
            .map(|(trace_id, op, micros)| {
                format!(
                    "{{\"trace_id\": \"{}\", \"op\": \"{}\", \"micros\": {micros}}}",
                    escape(trace_id),
                    escape(op)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"schema\": \"dbt-serve/trace-log/v1\", \"capacity\": {}, \
             \"entries\": [{entries}]}}",
            self.config.trace_log_capacity
        )
    }

    /// The untimed request dispatch behind [`Shared::respond`]; `trace`
    /// is the span context of a heavy traced request, handed across the
    /// queue to the executing worker.
    fn answer(
        &self,
        decoded: Result<Request, String>,
        trace: Option<&TraceHandle>,
    ) -> (Response, bool) {
        let request = match decoded {
            Ok(request) => request,
            Err(error) => return (Response::Error { op: "invalid".to_string(), error }, false),
        };
        let op = request.op().to_string();
        match request {
            Request::Health => {
                let body = format!(
                    "{{\"workers\": {}, \"queue_depth\": {}, \"queued\": {}, \
                     \"uptime_secs\": {}, \"version\": \"{}\"}}",
                    self.config.workers,
                    self.config.queue_depth,
                    self.queue.len(),
                    self.started.elapsed().as_secs(),
                    env!("CARGO_PKG_VERSION")
                );
                (Response::Ok { op, body }, false)
            }
            Request::Stats => {
                let body = format!(
                    "{{\"server\": {{\"requests\": {}, \"completed\": {}, \
                     \"busy_rejections\": {}}}, \"lab\": {}}}",
                    self.metrics.total_requests(),
                    self.metrics.completed.get(),
                    self.metrics.busy_rejections.get(),
                    self.backend.stats_json()
                );
                (Response::Ok { op, body }, false)
            }
            Request::Metrics => {
                self.metrics.queue_depth.set(self.queue.len() as i64);
                let body =
                    format!("{}{}", self.metrics.registry.render(), self.backend.metrics_text());
                (Response::Ok { op, body }, false)
            }
            Request::Shutdown => {
                (Response::Ok { op, body: "{\"stopping\": true}".to_string() }, true)
            }
            Request::Profile { program: None, .. } => {
                (Response::Ok { op, body: self.trace_log_json() }, false)
            }
            Request::Trace { target } => {
                (Response::Ok { op, body: self.spans.tree_json(&target) }, false)
            }
            Request::Logs { level } => match level
                .as_deref()
                .map_or(Some(LogLevel::Debug), LogLevel::parse)
            {
                Some(min_level) => (Response::Ok { op, body: self.events.json(min_level) }, false),
                None => (
                    Response::Error {
                        op,
                        error: format!(
                            "unknown log level `{}` (expected debug|info|warn|error)",
                            level.unwrap_or_default()
                        ),
                    },
                    false,
                ),
            },
            request => {
                let trace = trace.map(|handle| JobTrace {
                    handle: handle.clone(),
                    enqueued_micros: self.spans.now_micros(),
                });
                let (reply, result) = mpsc::channel();
                match self.queue.try_push(Job { request, reply, trace }) {
                    Ok(()) => match result.recv() {
                        Ok(Ok(body)) => (Response::Ok { op, body }, false),
                        Ok(Err(error)) => (Response::Error { op, error }, false),
                        Err(_) => (
                            Response::Error {
                                op,
                                error: "worker dropped the job (server shutting down)".to_string(),
                            },
                            false,
                        ),
                    },
                    Err(PushError::Full) => {
                        self.metrics.busy_rejections.inc();
                        (Response::Busy { op }, false)
                    }
                    Err(PushError::Closed) => (
                        Response::Error { op, error: "server is shutting down".to_string() },
                        false,
                    ),
                }
            }
        }
    }

    /// Idempotently starts the shutdown: closes the queue (workers drain
    /// admitted jobs and exit) and pokes the acceptor awake.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.events.log(LogLevel::Info, "serve.lifecycle", "stopping", None, &[]);
            self.queue.close();
            // The acceptor blocks in `accept`; a throwaway connection to
            // ourselves unblocks it so it can observe the flag and exit.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// Handle on a running daemon: address, counters, shutdown, join.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves port `0` requests).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Number of jobs currently queued (racy by nature; for observability
    /// and tests).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Asks the daemon to stop, without waiting. Equivalent to a client
    /// sending a `shutdown` request.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the daemon has stopped (acceptor and workers joined).
    /// Connections still open at that point are served their remaining
    /// cheap requests; heavy requests answer an error.
    pub fn wait(self) {
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

fn execute(backend: &dyn LabBackend, request: &Request) -> Result<String, String> {
    match request {
        Request::Run { scenario } => backend.run_scenario(scenario),
        Request::RunProgram { program, policy, knobs } => {
            backend.run_program(program, policy, knobs)
        }
        Request::Profile { program: Some(program), policy } => backend.profile(program, policy),
        Request::Sweep { name, threads } => backend.sweep(name, *threads),
        Request::Analyze { program } => backend.analyze(program),
        Request::Upload { source } => backend.upload(source),
        // Cheap requests never reach the queue.
        Request::Profile { program: None, .. }
        | Request::Stats
        | Request::Metrics
        | Request::Trace { .. }
        | Request::Logs { .. }
        | Request::Health
        | Request::Shutdown => Err("internal: cheap request on the worker pool".to_string()),
    }
}

/// What one bounded frame read produced. Public so other NDJSON servers
/// (the `dbt-router` front door) reuse the exact same bounded framing —
/// one implementation of the drain-before-error dance, not two.
pub enum Frame {
    /// A complete line (without the trailing newline).
    Line(String),
    /// The peer closed the connection (or the read failed).
    Eof,
    /// The line exceeded the frame cap: answer a clean `error` frame,
    /// count it, and close — mid-line, the framing cannot be trusted any
    /// further.
    TooLong(String),
    /// The line was not UTF-8: answer a clean `error` frame and close.
    Fatal(String),
}

/// Sends `frame` and its terminating `'\n'` with a single `write_all`, then
/// flushes. Every NDJSON peer in the repo writes through this: a frame sent
/// as two writes (body, then newline) meets Nagle's algorithm on the second
/// one and waits out the peer's delayed ACK, about 40 ms per hop.
///
/// # Errors
///
/// Propagates the I/O error of the write or the flush.
pub fn write_frame(writer: &mut impl Write, frame: &str) -> std::io::Result<()> {
    let mut line = String::with_capacity(frame.len() + 1);
    line.push_str(frame);
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Reads one newline-terminated frame, never buffering more than
/// `max_bytes` of it.
pub fn read_frame(reader: &mut BufReader<TcpStream>, max_bytes: usize) -> Frame {
    let mut buf = Vec::new();
    let mut limited = (&mut *reader).take(max_bytes as u64 + 1);
    match limited.read_until(b'\n', &mut buf) {
        Err(_) | Ok(0) => return Frame::Eof,
        Ok(_) => {}
    }
    // The newline is framing, not payload: drop it before checking the
    // cap, so a line of exactly `max_bytes` is accepted.
    if buf.last() == Some(&b'\n') {
        buf.pop();
    }
    if buf.len() > max_bytes {
        // Discard the rest of the line (bounded, never buffered) before
        // answering: closing with unread bytes in the socket would RST
        // the connection and destroy the error frame we promise. A peer
        // that streams more than the drain cap without a newline gets
        // cut off regardless.
        let mut scratch = [0u8; 8192];
        let mut drained = 0u64;
        while drained <= 16 * max_bytes as u64 {
            match reader.read(&mut scratch) {
                Err(_) | Ok(0) => break,
                Ok(n) => {
                    drained += n as u64;
                    if scratch[..n].contains(&b'\n') {
                        break;
                    }
                }
            }
        }
        return Frame::TooLong(format!(
            "request frame exceeds the {max_bytes}-byte limit; closing the connection"
        ));
    }
    match String::from_utf8(buf) {
        Ok(line) => Frame::Line(line),
        Err(_) => Frame::Fatal("request frame is not valid UTF-8".to_string()),
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);
    // Deterministic per-connection fallback trace ids: the n-th frame of a
    // connection is `t<n>` unless the client chose its own.
    let mut frame_seq = 0u64;
    loop {
        let line = match read_frame(&mut reader, shared.config.max_frame_bytes) {
            Frame::Eof => return,
            Frame::TooLong(error) => {
                shared.metrics.frame_cap_errors.inc();
                send_fatal(&mut writer, shared, error);
                return;
            }
            Frame::Fatal(error) => {
                send_fatal(&mut writer, shared, error);
                return;
            }
            Frame::Line(line) => line,
        };
        shared.metrics.bytes_read.add(line.len() as u64 + 1);
        if line.trim().is_empty() {
            continue;
        }
        let generated = format!("t{frame_seq}");
        frame_seq += 1;
        let (frame, stop) = shared.respond(&line, generated);
        shared.metrics.bytes_written.add(frame.len() as u64 + 1);
        if write_frame(&mut writer, &frame).is_err() {
            return;
        }
        if stop {
            shared.begin_shutdown();
            return;
        }
    }
}

/// Writes the one `error` frame a connection gets before a fatal close.
fn send_fatal(writer: &mut TcpStream, shared: &Shared, error: String) {
    let frame = Response::Error { op: "invalid".to_string(), error }.encode();
    shared.metrics.bytes_written.add(frame.len() as u64 + 1);
    let _ = write_frame(writer, &frame);
}

/// Starts the daemon on `addr` (use port `0` for an ephemeral port; the
/// bound address is available via [`ServerHandle::addr`]).
///
/// # Errors
///
/// Propagates the I/O error if the listener cannot bind.
///
/// ```
/// use dbt_serve::{serve, Client, LabBackend, Request, Response, ServerConfig};
/// use std::sync::Arc;
///
/// struct Echo;
/// impl LabBackend for Echo {
///     fn run_scenario(&self, scenario: &str) -> Result<String, String> {
///         Ok(format!("ran {scenario}\n"))
///     }
///     fn sweep(&self, name: &str, _threads: usize) -> Result<String, String> {
///         Ok(format!("swept {name}\n"))
///     }
///     fn analyze(&self, program: &str) -> Result<String, String> {
///         Err(format!("unknown program `{program}`"))
///     }
///     fn stats_json(&self) -> String {
///         "{}".to_string()
///     }
/// }
///
/// let handle = serve("127.0.0.1:0", Arc::new(Echo), ServerConfig::default()).unwrap();
/// let mut client = Client::connect(handle.addr()).unwrap();
/// let reply = client.request(&Request::Run { scenario: "x".to_string() }).unwrap();
/// assert_eq!(reply, Response::Ok { op: "run".to_string(), body: "ran x\n".to_string() });
/// client.request(&Request::Shutdown).unwrap();
/// handle.wait();
/// ```
pub fn serve<A: ToSocketAddrs>(
    addr: A,
    backend: Arc<dyn LabBackend>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    serve_with_clock(addr, backend, config, TraceClock::wall())
}

/// [`serve`] with an explicit span clock — a [`TraceClock::scripted`]
/// clock makes recorded span trees structurally deterministic for tests.
///
/// # Errors
///
/// Propagates the I/O error if the listener cannot bind.
pub fn serve_with_clock<A: ToSocketAddrs>(
    addr: A,
    backend: Arc<dyn LabBackend>,
    config: ServerConfig,
    clock: TraceClock,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    // The pool never runs empty: clamp here so both the spawn loop and the
    // `health` response describe the same daemon.
    let config = ServerConfig { workers: config.workers.max(1), ..config };
    // A backend that keeps its own event log (the durable-cache daemon
    // does, so persistence events and server lifecycle interleave in one
    // `logs` stream) lends it to the server; otherwise the server owns one.
    let events = backend
        .event_log()
        .unwrap_or_else(|| Arc::new(EventLog::with_capacity(config.event_log_capacity)));
    let shared = Arc::new(Shared {
        backend,
        queue: BoundedQueue::new(config.queue_depth),
        addr: listener.local_addr()?,
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        metrics: ServerMetrics::new(),
        traces: Mutex::new(VecDeque::new()),
        spans: Arc::new(SpanRecorder::with_capacity(config.span_log_capacity, clock)),
        events,
        config,
    });
    shared.events.log(
        LogLevel::Info,
        "serve.lifecycle",
        "listening",
        None,
        &[("addr", &shared.addr.to_string()), ("workers", &shared.config.workers.to_string())],
    );

    let workers = (0..shared.config.workers)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                while let Some(job) = shared.queue.pop() {
                    // Re-enter the request's trace context on this thread
                    // (the lab layers' stage spans flow through it) and
                    // surface the time the job sat admitted-but-unpopped.
                    let scope = job.trace.as_ref().map(|trace| {
                        let popped = shared.spans.now_micros();
                        shared.spans.record(SpanRecord {
                            trace_id: trace.handle.trace_id().to_string(),
                            span_id: format!("{SPAN_PREFIX}:queue-wait"),
                            parent: Some(ROOT_SPAN.to_string()),
                            stage: "queue-wait".to_string(),
                            start_micros: trace.enqueued_micros,
                            duration_micros: popped.saturating_sub(trace.enqueued_micros),
                        });
                        trace.handle.enter()
                    });
                    let result = execute(&*shared.backend, &job.request);
                    drop(scope);
                    // A handler that gave up (client disconnected) is fine.
                    let _ = job.reply.send(result);
                    shared.metrics.completed.inc();
                }
            })
        })
        .collect();

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || loop {
            // Check the flag on *every* iteration — including accept
            // errors — so a failed or aborted wake-up connection (fd
            // exhaustion, ECONNABORTED on the immediately-dropped socket)
            // cannot leave the acceptor blocked forever, and persistent
            // accept errors cannot busy-spin past a shutdown.
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => {
                    // Back off instead of spinning on persistent errors
                    // (e.g. EMFILE while handlers hold every fd).
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    continue;
                }
            };
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let _ = stream.set_nodelay(true);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || handle_connection(stream, &shared));
        })
    };

    Ok(ServerHandle { shared, acceptor, workers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::DEFAULT_RUN_POLICY;

    /// A backend whose `run_scenario` blocks until the test releases it,
    /// so queue occupancy is fully under test control.
    struct BlockingBackend {
        started: mpsc::Sender<()>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl LabBackend for BlockingBackend {
        fn run_scenario(&self, scenario: &str) -> Result<String, String> {
            self.started.send(()).expect("test alive");
            self.release.lock().expect("lock").recv().expect("release signal");
            Ok(format!("done {scenario}"))
        }
        fn sweep(&self, name: &str, threads: usize) -> Result<String, String> {
            Ok(format!("sweep {name} on {threads}"))
        }
        fn analyze(&self, program: &str) -> Result<String, String> {
            Ok(format!("analyze {program}"))
        }
        fn stats_json(&self) -> String {
            "{\"mock\": true}".to_string()
        }
    }

    fn run_request(name: &str) -> Request {
        Request::Run { scenario: name.to_string() }
    }

    /// A sink that counts the `write` calls it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_issues_one_write_per_frame() {
        let mut sink = CountingWriter::default();
        let frames = [Request::Health.encode(), "{\"status\": \"ok\"}".to_string(), String::new()];
        for (sent, frame) in frames.iter().enumerate() {
            write_frame(&mut sink, frame).unwrap();
            assert_eq!(sink.writes, sent + 1, "body and newline leave in one write");
        }
        let expected: String = frames.iter().map(|frame| format!("{frame}\n")).collect();
        assert_eq!(String::from_utf8(sink.bytes).unwrap(), expected);
    }

    #[test]
    fn full_queue_answers_busy_not_hang() {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let backend = BlockingBackend { started: started_tx, release: Mutex::new(release_rx) };
        let handle = serve(
            "127.0.0.1:0",
            Arc::new(backend),
            ServerConfig { workers: 1, queue_depth: 1, ..ServerConfig::default() },
        )
        .unwrap();
        let addr = handle.addr();

        // Job A occupies the single worker (we *know* it was popped once
        // the backend signals `started`).
        let a = std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.request(&run_request("a")).unwrap()
        });
        started_rx.recv().expect("job a must reach the backend");

        // Job B fills the single queue slot; wait until it is visibly
        // queued before provoking the rejection.
        let b = std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.request(&run_request("b")).unwrap()
        });
        while handle.queue_len() < 1 {
            std::thread::yield_now();
        }

        // Job C must bounce immediately: the queue is full.
        let mut client = Client::connect(addr).unwrap();
        let c = client.request(&run_request("c")).unwrap();
        assert_eq!(c, Response::Busy { op: "run".to_string() });

        // Cheap requests are not subject to backpressure.
        let health = client.request(&Request::Health).unwrap();
        let Response::Ok { body, .. } = health else { panic!("health must answer ok") };
        assert!(body.contains("\"queued\": 1"), "{body}");

        // Release A and B; both complete normally.
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        assert_eq!(
            a.join().unwrap(),
            Response::Ok { op: "run".to_string(), body: "done a".to_string() }
        );
        assert_eq!(
            b.join().unwrap(),
            Response::Ok { op: "run".to_string(), body: "done b".to_string() }
        );

        let stats = client.request(&Request::Stats).unwrap();
        let Response::Ok { body, .. } = stats else { panic!("stats must answer ok") };
        assert!(body.contains("\"busy_rejections\": 1"), "{body}");
        assert!(body.contains("\"mock\": true"), "backend stats embedded: {body}");

        client.request(&Request::Shutdown).unwrap();
        handle.wait();
    }

    #[test]
    fn zero_depth_queue_bounces_every_heavy_request() {
        let (started_tx, _started_rx) = mpsc::channel();
        let (_release_tx, release_rx) = mpsc::channel();
        let backend = BlockingBackend { started: started_tx, release: Mutex::new(release_rx) };
        let handle = serve(
            "127.0.0.1:0",
            Arc::new(backend),
            ServerConfig { workers: 1, queue_depth: 0, ..ServerConfig::default() },
        )
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        for _ in 0..3 {
            let reply = client.request(&run_request("x")).unwrap();
            assert_eq!(reply, Response::Busy { op: "run".to_string() });
        }
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn invalid_lines_answer_an_error_frame() {
        let (started_tx, _started_rx) = mpsc::channel();
        let (_release_tx, release_rx) = mpsc::channel();
        let backend = BlockingBackend { started: started_tx, release: Mutex::new(release_rx) };
        let handle = serve("127.0.0.1:0", Arc::new(backend), ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let reply = client.raw_request("this is not json").unwrap();
        assert!(matches!(&reply, Response::Error { op, .. } if op == "invalid"), "{reply:?}");
        // The connection survives a bad frame.
        let reply = client.request(&Request::Health).unwrap();
        assert!(matches!(reply, Response::Ok { .. }));
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn trace_ids_echo_and_fill_the_trace_log() {
        let (started_tx, _started_rx) = mpsc::channel();
        let (_release_tx, release_rx) = mpsc::channel();
        let backend = BlockingBackend { started: started_tx, release: Mutex::new(release_rx) };
        let handle = serve("127.0.0.1:0", Arc::new(backend), ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();

        // Generated ids are deterministic per connection: frame n gets `t<n>`.
        let (reply, trace) = client.request_traced(&Request::Health, None).unwrap();
        assert!(matches!(reply, Response::Ok { .. }));
        assert_eq!(trace.as_deref(), Some("t0"));
        // Client-chosen ids are echoed verbatim.
        let (_, trace) = client.request_traced(&Request::Health, Some("probe-1")).unwrap();
        assert_eq!(trace.as_deref(), Some("probe-1"));

        // The inline `profile` form answers the trace log — which records
        // the earlier requests but never the answering request itself.
        let log_request =
            Request::Profile { program: None, policy: DEFAULT_RUN_POLICY.to_string() };
        let (reply, trace) = client.request_traced(&log_request, Some("log-probe")).unwrap();
        assert_eq!(trace.as_deref(), Some("log-probe"));
        let Response::Ok { op, body } = reply else { panic!("profile must answer ok") };
        assert_eq!(op, "profile");
        assert!(body.contains("\"schema\": \"dbt-serve/trace-log/v1\""), "{body}");
        assert!(body.contains("\"trace_id\": \"t0\", \"op\": \"health\""), "{body}");
        assert!(body.contains("\"trace_id\": \"probe-1\""), "{body}");
        assert!(!body.contains("log-probe"), "the trace-log answer excludes itself: {body}");

        // The program-profiling form reaches the backend, which rejects it
        // by default, and `request` (no trace) still works on trace-tagged
        // response frames.
        let reply = client
            .request(&Request::Profile {
                program: Some("gemm".to_string()),
                policy: DEFAULT_RUN_POLICY.to_string(),
            })
            .unwrap();
        assert!(
            matches!(&reply, Response::Error { error, .. } if error.contains("does not profile")),
            "{reply:?}"
        );

        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn oversized_frames_answer_a_clean_error_and_close() {
        let (started_tx, _started_rx) = mpsc::channel();
        let (_release_tx, release_rx) = mpsc::channel();
        let backend = BlockingBackend { started: started_tx, release: Mutex::new(release_rx) };
        let handle = serve(
            "127.0.0.1:0",
            Arc::new(backend),
            ServerConfig { max_frame_bytes: 64, ..ServerConfig::default() },
        )
        .unwrap();

        // A frame under the cap still answers normally.
        let mut client = Client::connect(handle.addr()).unwrap();
        let reply = client.request(&Request::Health).unwrap();
        assert!(matches!(reply, Response::Ok { .. }));

        // A line of *exactly* the cap is within the limit (the newline is
        // framing, not payload): it fails as bad JSON, not as oversized,
        // and the connection survives.
        let exact = "x".repeat(64);
        let reply = client.raw_request(&exact).unwrap();
        let Response::Error { error, .. } = reply else { panic!("expected an error frame") };
        assert!(!error.contains("limit"), "{error}");
        let reply = client.request(&Request::Health).unwrap();
        assert!(matches!(reply, Response::Ok { .. }));

        // A frame over the cap gets one clean error frame, not a hang and
        // not unbounded buffering...
        let huge = format!("{{\"op\": \"analyze\", \"program\": \"{}\"}}", "x".repeat(256));
        let reply = client.raw_request(&huge).unwrap();
        let Response::Error { op, error } = reply else { panic!("expected an error frame") };
        assert_eq!(op, "invalid");
        assert!(error.contains("64-byte limit"), "{error}");

        // ...and the connection is closed afterwards (mid-line, framing
        // cannot be trusted).
        assert!(client.request(&Request::Health).is_err(), "connection must be closed");

        // Fresh connections keep working, and the rejection is visible in
        // the metrics exposition.
        let mut client = Client::connect(handle.addr()).unwrap();
        let reply = client.request(&Request::Health).unwrap();
        assert!(matches!(reply, Response::Ok { .. }));
        let Response::Ok { body, .. } = client.request(&Request::Metrics).unwrap() else {
            panic!("metrics must answer ok")
        };
        assert!(body.contains("dbt_serve_frame_cap_errors_total 1"), "{body}");

        handle.shutdown();
        handle.wait();
    }

    fn quiet_backend() -> Arc<BlockingBackend> {
        let (started_tx, _started_rx) = mpsc::channel();
        let (_release_tx, release_rx) = mpsc::channel();
        Arc::new(BlockingBackend { started: started_tx, release: Mutex::new(release_rx) })
    }

    #[test]
    fn trace_log_capacity_knob_evicts_at_the_boundary() {
        let handle = serve(
            "127.0.0.1:0",
            quiet_backend(),
            ServerConfig { trace_log_capacity: 3, ..ServerConfig::default() },
        )
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        for id in ["q1", "q2", "q3"] {
            client.request_traced(&Request::Health, Some(id)).unwrap();
        }
        // Exactly at capacity: nothing evicted yet.
        let log_request =
            Request::Profile { program: None, policy: DEFAULT_RUN_POLICY.to_string() };
        let (reply, _) = client.request_traced(&log_request, Some("scrape-1")).unwrap();
        let Response::Ok { body, .. } = reply else { panic!("profile must answer ok") };
        assert!(body.contains("\"capacity\": 3"), "{body}");
        for id in ["q1", "q2", "q3"] {
            assert!(body.contains(id), "{body}");
        }
        // One over (the scrape itself was recorded after answering): the
        // oldest entry, and only it, is gone.
        let (reply, _) = client.request_traced(&log_request, Some("scrape-2")).unwrap();
        let Response::Ok { body, .. } = reply else { panic!("profile must answer ok") };
        assert!(!body.contains("q1"), "oldest entry must be evicted: {body}");
        for id in ["q2", "q3", "scrape-1"] {
            assert!(body.contains(id), "{body}");
        }
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn trace_op_assembles_the_span_tree_of_a_heavy_request() {
        use crate::protocol::FrameMeta;
        let handle = serve_with_clock(
            "127.0.0.1:0",
            quiet_backend(),
            ServerConfig::default(),
            dbt_obs::TraceClock::scripted(10),
        )
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        // A heavy request without a parent_span roots its own tree...
        let analyze = Request::Analyze { program: "p".to_string() };
        client.request_traced(&analyze, Some("job-1")).unwrap();
        let Response::Ok { body, .. } =
            client.request(&Request::Trace { target: "job-1".to_string() }).unwrap()
        else {
            panic!("trace must answer ok")
        };
        assert!(
            body.starts_with("{\"schema\": \"dbt-serve/trace/v1\", \"trace_id\": \"job-1\""),
            "{body}"
        );
        for span in ["d:decode", "d:queue-wait", "d:request", "d:encode"] {
            assert!(body.contains(&format!("\"span_id\": \"{span}\"")), "{body}");
        }
        assert!(
            body.contains("\"span_id\": \"d:request\", \"parent\": null"),
            "no parent_span member means the request roots the tree: {body}"
        );
        // ...while a relayed frame's `parent_span` reparents the root.
        let meta = FrameMeta {
            trace_id: Some("job-2".to_string()),
            parent_span: Some("r:relay".to_string()),
            ..FrameMeta::default()
        };
        client.request_meta(&analyze, &meta).unwrap();
        let Response::Ok { body, .. } =
            client.request(&Request::Trace { target: "job-2".to_string() }).unwrap()
        else {
            panic!("trace must answer ok")
        };
        assert!(body.contains("\"span_id\": \"d:request\", \"parent\": \"r:relay\""), "{body}");
        // Cheap requests (the trace fetches above included) record nothing.
        let Response::Ok { body, .. } =
            client.request(&Request::Trace { target: "t2".to_string() }).unwrap()
        else {
            panic!("trace must answer ok")
        };
        assert!(body.contains("\"spans\": []"), "{body}");
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn logs_op_serves_leveled_lifecycle_events() {
        let handle = serve("127.0.0.1:0", quiet_backend(), ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let Response::Ok { body, .. } = client.request(&Request::Logs { level: None }).unwrap()
        else {
            panic!("logs must answer ok")
        };
        assert!(body.starts_with("{\"schema\": \"dbt-serve/logs/v1\""), "{body}");
        assert!(body.contains("\"target\": \"serve.lifecycle\""), "{body}");
        assert!(body.contains("\"message\": \"listening\""), "{body}");
        // The level filter hides info-level lifecycle chatter.
        let Response::Ok { body, .. } =
            client.request(&Request::Logs { level: Some("warn".to_string()) }).unwrap()
        else {
            panic!("logs must answer ok")
        };
        assert!(!body.contains("listening"), "{body}");
        // Unknown levels are described, not guessed.
        let reply = client.request(&Request::Logs { level: Some("loud".to_string()) }).unwrap();
        assert!(
            matches!(&reply, Response::Error { error, .. } if error.contains("unknown log level `loud`")),
            "{reply:?}"
        );
        handle.shutdown();
        handle.wait();
    }

    /// Extracts the value of the first sample line starting with `prefix`.
    fn sample_value(text: &str, prefix: &str) -> u64 {
        let line = text
            .lines()
            .find(|line| line.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` sample in:\n{text}"));
        line.rsplit(' ').next().unwrap().parse().unwrap_or_else(|_| panic!("not a u64: {line}"))
    }

    #[test]
    fn health_reports_uptime_version_and_pool_size() {
        let (started_tx, _started_rx) = mpsc::channel();
        let (_release_tx, release_rx) = mpsc::channel();
        let backend = BlockingBackend { started: started_tx, release: Mutex::new(release_rx) };
        let handle = serve(
            "127.0.0.1:0",
            Arc::new(backend),
            ServerConfig { workers: 3, queue_depth: 5, ..ServerConfig::default() },
        )
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let Response::Ok { body, .. } = client.request(&Request::Health).unwrap() else {
            panic!("health must answer ok")
        };
        assert!(body.contains("\"workers\": 3"), "{body}");
        assert!(body.contains("\"queue_depth\": 5"), "{body}");
        assert!(body.contains("\"uptime_secs\": "), "{body}");
        assert!(
            body.contains(&format!("\"version\": \"{}\"", env!("CARGO_PKG_VERSION"))),
            "{body}"
        );
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn metrics_expose_per_op_counters_that_agree_with_stats() {
        let (started_tx, _started_rx) = mpsc::channel();
        let (_release_tx, release_rx) = mpsc::channel();
        let backend = BlockingBackend { started: started_tx, release: Mutex::new(release_rx) };
        let handle = serve("127.0.0.1:0", Arc::new(backend), ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();

        // A scripted sequence: one analyze (heavy, completes), one health,
        // one invalid frame, then the scrape itself.
        assert!(matches!(
            client.request(&Request::Analyze { program: "p".to_string() }).unwrap(),
            Response::Ok { .. }
        ));
        assert!(matches!(client.request(&Request::Health).unwrap(), Response::Ok { .. }));
        assert!(matches!(client.raw_request("not json").unwrap(), Response::Error { .. }));
        let Response::Ok { body, .. } = client.request(&Request::Metrics).unwrap() else {
            panic!("metrics must answer ok")
        };

        assert_eq!(sample_value(&body, "dbt_serve_requests_total{op=\"analyze\"}"), 1);
        assert_eq!(sample_value(&body, "dbt_serve_requests_total{op=\"health\"}"), 1);
        assert_eq!(sample_value(&body, "dbt_serve_requests_total{op=\"invalid\"}"), 1);
        assert_eq!(
            sample_value(&body, "dbt_serve_requests_total{op=\"metrics\"}"),
            1,
            "the scrape counts itself"
        );
        assert_eq!(
            sample_value(&body, "dbt_serve_requests_total{op=\"run\"}"),
            0,
            "pre-registered ops render at zero"
        );
        assert_eq!(sample_value(&body, "dbt_serve_request_seconds_count{op=\"analyze\"}"), 1);
        assert_eq!(sample_value(&body, "dbt_serve_completed_total"), 1);
        assert_eq!(sample_value(&body, "dbt_serve_frame_cap_errors_total"), 0);
        assert_eq!(sample_value(&body, "dbt_serve_inflight"), 1, "the scrape itself is in flight");
        assert!(sample_value(&body, "dbt_serve_bytes_read_total") > 0);
        assert!(sample_value(&body, "dbt_serve_bytes_written_total") > 0);

        // The stats view counts the same frames: analyze + health +
        // invalid + metrics + this stats request = 5.
        let Response::Ok { body, .. } = client.request(&Request::Stats).unwrap() else {
            panic!("stats must answer ok")
        };
        assert!(body.contains("\"requests\": 5"), "{body}");
        assert!(body.contains("\"completed\": 1"), "{body}");

        handle.shutdown();
        handle.wait();
    }
}
