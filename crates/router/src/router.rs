//! The router itself: listener, per-connection handlers, backend pools,
//! the health prober and the fleet fan-out ops.
//!
//! Request flow:
//!
//! 1. a handler thread reads one NDJSON frame (the exact bounded framing
//!    of `dbt-serve`, via [`read_frame`]) and decodes it together with
//!    its v3 envelope ([`FrameMeta`]);
//! 2. the auth gate and the per-client token bucket run first — both off
//!    by default, both answered by the router itself (`error` /
//!    `quota_exceeded` frames), so no denied request ever reaches a
//!    backend;
//! 3. heavy ops are **relayed raw**: the client's original frame bytes
//!    go to the backend chosen by the consistent-hash ring, and the
//!    backend's response line comes back verbatim — byte-identical to
//!    talking to that daemon directly, trace-id echo included. Transport
//!    failures fail over along the ring's preference order with
//!    exponential backoff; `busy`/`error` answers are relayed, never
//!    retried (the backend spoke — backpressure and failures must stay
//!    visible);
//! 4. `upload` is relayed to the key's owner and then replicated to
//!    every other live backend, so `fp:` refs resolve on any shard;
//! 5. `stats`/`metrics`/`health` fan out to the whole fleet and answer a
//!    merged body (per-backend sections, `backend="<i>"` labels on
//!    merged metrics).
//!
//! Backend death is survived three ways: a periodic health prober flips
//! the per-backend `up` flag, consecutive transport failures trip a
//! circuit breaker ([`RouterConfig::failure_threshold`]), and every
//! relay walks reachable backends first. A `shutdown` frame stops the
//! router only — backends are independent processes with their own
//! lifecycle.
//!
//! The router is also the fleet's tracing front door: every heavy frame
//! gets an `r:request` root span with `r:relay` / `r:failover-retry.<n>`
//! children (probe rounds get spans of their own under the synthetic
//! `probe` trace), and the `trace` op answers a *stitched* tree — the
//! router's spans plus the owning backend's, the backend's roots
//! reparented under the successful relay span. Relayed frames stay byte
//! verbatim, so stitching requires the client to choose the trace id
//! (`lab submit --trace-id`, the load generator's `c<i>-<n>` ids);
//! otherwise router and daemon fall back to different generated ids.
//! Failover, circuit-break, probe and auth decisions are narrated into a
//! structured [`EventLog`] served by the `logs` op.

use crate::limiter::TokenBucket;
use crate::merge::merge_expositions;
use crate::ring::{HashRing, DEFAULT_RING_REPLICAS};
use dbt_obs::{
    Counter, EventLog, Gauge, Histogram, LogLevel, MetricsRegistry, Span, SpanRecord, SpanRecorder,
    TraceClock, DEFAULT_LATENCY_BOUNDS_MICROS,
};
use dbt_serve::json::escape;
use dbt_serve::{
    read_frame, write_frame, Frame, FrameMeta, JsonValue, Request, Response,
    DEFAULT_MAX_FRAME_BYTES,
};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The deterministic per-client rate quota (off unless set on
/// [`RouterConfig::quota`]): a token bucket per auth token (or per peer
/// IP for unauthenticated fleets), spending one token per heavy request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaConfig {
    /// Refill rate, tokens per second.
    pub rate_per_sec: u64,
    /// Bucket capacity: how many requests a client may burst.
    pub burst: u64,
}

/// Router knobs. The default is a pure relay: no auth, no quota —
/// protocol-v2 clients work through it untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// Virtual ring points per backend ([`DEFAULT_RING_REPLICAS`]).
    pub replicas: usize,
    /// Accepted bearer tokens; empty = auth off. With tokens configured,
    /// a connection must present one valid `auth` member before any
    /// non-`health` request is forwarded (the connection stays
    /// authenticated afterwards).
    pub auth_tokens: Vec<String>,
    /// Per-client rate quota; `None` = off.
    pub quota: Option<QuotaConfig>,
    /// How often the prober health-checks every backend.
    pub probe_interval: Duration,
    /// Connect/read timeout of one health probe.
    pub probe_timeout: Duration,
    /// Consecutive transport failures that trip a backend's circuit
    /// breaker (a successful forward or probe closes it again).
    pub failure_threshold: u32,
    /// Initial pause before retrying a failed relay on the next backend;
    /// doubles per attempt.
    pub retry_backoff: Duration,
    /// Bound on one request line, as in `dbt-serve`.
    pub max_frame_bytes: usize,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            replicas: DEFAULT_RING_REPLICAS,
            auth_tokens: Vec::new(),
            quota: None,
            probe_interval: Duration::from_secs(1),
            probe_timeout: Duration::from_millis(250),
            failure_threshold: 3,
            retry_backoff: Duration::from_millis(10),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// One pooled backend connection (reader half buffered, writer half
/// flushed per frame — same discipline as the `dbt-serve` client).
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Conn { reader: BufReader::new(stream), writer })
    }

    /// Sends one frame line and reads one response line.
    fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        write_frame(&mut self.writer, line)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "backend closed the connection",
            ));
        }
        while reply.ends_with('\n') || reply.ends_with('\r') {
            reply.pop();
        }
        Ok(reply)
    }
}

/// One backend daemon: address, breaker state, connection pool and its
/// pre-registered per-backend metric handles.
struct Backend {
    index: usize,
    addr: SocketAddr,
    /// The breaker: `false` while the backend is considered dead.
    up: AtomicBool,
    /// Consecutive transport failures since the last success.
    failures: AtomicU32,
    pool: Mutex<Vec<Conn>>,
    /// `dbt_router_forwarded_total{backend="<index>"}`.
    forwarded: Arc<Counter>,
    /// `dbt_router_backend_up{backend="<index>"}`.
    up_gauge: Arc<Gauge>,
}

impl Backend {
    fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }

    /// Sends `line` and returns the backend's raw response line, reusing
    /// a pooled connection when one exists (one silent retry on a fresh
    /// connection covers pool entries whose daemon restarted).
    fn forward(&self, line: &str) -> std::io::Result<String> {
        let pooled = self.pool.lock().expect("backend pool lock").pop();
        if let Some(mut conn) = pooled {
            if let Ok(reply) = conn.roundtrip(line) {
                self.forwarded.inc();
                self.pool.lock().expect("backend pool lock").push(conn);
                return Ok(reply);
            }
            // The pooled connection went stale; fall through to a fresh one.
        }
        let mut conn = Conn::open(self.addr)?;
        let reply = conn.roundtrip(line)?;
        self.forwarded.inc();
        self.pool.lock().expect("backend pool lock").push(conn);
        Ok(reply)
    }

    /// A forward or probe succeeded: reset the breaker.
    fn record_success(&self) {
        self.failures.store(0, Ordering::SeqCst);
        self.up.store(true, Ordering::SeqCst);
        self.up_gauge.set(1);
    }

    /// A forward failed at the transport level: count it, trip the
    /// breaker at the threshold.
    fn record_failure(&self, threshold: u32) {
        let failures = self.failures.fetch_add(1, Ordering::SeqCst) + 1;
        if failures >= threshold {
            self.set_down();
        }
    }

    /// Marks the backend dead immediately (a failed health probe is
    /// definitive — `health` is answered inline by any live daemon).
    fn set_down(&self) {
        self.up.store(false, Ordering::SeqCst);
        self.up_gauge.set(0);
        // Pooled connections point at a dead peer; drop them.
        self.pool.lock().expect("backend pool lock").clear();
    }
}

/// The request `op` labels the router pre-registers — the same set as
/// `dbt-serve`, so fleet dashboards join on identical label values.
const OP_LABELS: [&str; 12] = [
    "analyze", "health", "invalid", "logs", "metrics", "profile", "run", "shutdown", "stats",
    "sweep", "trace", "upload",
];

/// The router's own metric families on a per-router registry, resolved
/// once at startup.
struct RouterMetrics {
    registry: Arc<MetricsRegistry>,
    /// `dbt_router_requests_total{op=...}`, parallel to [`OP_LABELS`].
    requests: Vec<Arc<Counter>>,
    /// `dbt_router_request_seconds{op=...}`, parallel to [`OP_LABELS`].
    latency: Vec<Arc<Histogram>>,
    failovers: Arc<Counter>,
    busy_relayed: Arc<Counter>,
    auth_failures: Arc<Counter>,
    quota_exceeded: Arc<Counter>,
    probes: Arc<Counter>,
    probe_failures: Arc<Counter>,
    replications: Arc<Counter>,
    replication_failures: Arc<Counter>,
}

impl RouterMetrics {
    fn new() -> RouterMetrics {
        let registry = MetricsRegistry::new();
        let requests = OP_LABELS
            .iter()
            .map(|op| {
                registry.counter_with(
                    "dbt_router_requests_total",
                    "Request frames seen by the router, by op (`invalid` = never decoded).",
                    &[("op", op)],
                )
            })
            .collect();
        let latency = OP_LABELS
            .iter()
            .map(|op| {
                registry.histogram_with(
                    "dbt_router_request_seconds",
                    "Wall-clock request latency through the router, by op.",
                    DEFAULT_LATENCY_BOUNDS_MICROS,
                    &[("op", op)],
                )
            })
            .collect();
        RouterMetrics {
            requests,
            latency,
            failovers: registry.counter(
                "dbt_router_failovers_total",
                "Relay attempts moved to the next backend after a transport failure.",
            ),
            busy_relayed: registry.counter(
                "dbt_router_busy_relayed_total",
                "Backend `busy` answers relayed to clients (backpressure is end-to-end).",
            ),
            auth_failures: registry.counter(
                "dbt_router_auth_failures_total",
                "Requests denied by the auth gate (missing or invalid bearer token).",
            ),
            quota_exceeded: registry.counter(
                "dbt_router_quota_exceeded_total",
                "Requests bounced by the per-client token bucket.",
            ),
            probes: registry.counter("dbt_router_probes_total", "Health probes sent to backends."),
            probe_failures: registry
                .counter("dbt_router_probe_failures_total", "Health probes that failed."),
            replications: registry.counter(
                "dbt_router_replications_total",
                "Upload frames replicated to non-owner backends.",
            ),
            replication_failures: registry.counter(
                "dbt_router_replication_failures_total",
                "Upload replications that failed (the shard misses the program until re-upload).",
            ),
            registry,
        }
    }

    /// Index of `op` in [`OP_LABELS`]; unknown strings land on `invalid`.
    fn op_index(op: &str) -> usize {
        OP_LABELS.iter().position(|known| *known == op).unwrap_or_else(|| {
            OP_LABELS.iter().position(|known| *known == "invalid").expect("invalid is registered")
        })
    }

    /// Total request frames seen — the `router.requests` stats member.
    fn total_requests(&self) -> u64 {
        self.requests.iter().map(|counter| counter.get()).sum()
    }
}

/// Where a decoded request goes.
enum Route {
    /// Relay to the key's owner, failing over along the ring preference.
    Key(String),
    /// Relay to the key's owner, then replicate to every other live
    /// backend (`upload`).
    Replicate(String),
    /// Ask every backend and answer a merged body.
    FanOut,
    /// Any live backend will do (the trace-log form of `profile` — each
    /// daemon keeps its own log; the fleet answer is one shard's view).
    Any,
    /// Answered by the router itself from its own observability rings
    /// (`trace` = the stitched span tree, `logs` = the event log).
    Observe,
    /// Stop the router (backends keep running).
    Stop,
}

/// The routing key of a request: which backend serves it. Keys are
/// derived from the *program*, so every op touching the same program
/// lands on the same shard and its translation/memo caches stay warm.
fn route(request: &Request) -> Route {
    match request {
        Request::Run { scenario } => Route::Key(scenario_key(scenario)),
        Request::RunProgram { program, .. } | Request::Analyze { program } => {
            Route::Key(normalize_ref(program))
        }
        Request::Profile { program: Some(program), .. } => Route::Key(normalize_ref(program)),
        Request::Profile { program: None, .. } => Route::Any,
        Request::Sweep { name, .. } => Route::Key(format!("sweep:{name}")),
        Request::Upload { source } => Route::Replicate(source.text().to_string()),
        Request::Stats | Request::Metrics | Request::Health => Route::FanOut,
        Request::Trace { .. } | Request::Logs { .. } => Route::Observe,
        Request::Shutdown => Route::Stop,
    }
}

/// The program segment of a `sweep/program/policy/platform` scenario
/// name — runs of the same program shard together across policies.
fn scenario_key(scenario: &str) -> String {
    scenario.split('/').nth(1).unwrap_or(scenario).to_string()
}

/// Canonicalizes a program ref so spelling variants shard identically:
/// `registry:gemm` and `gemm` are one key, and `fp:` hex is lowercased
/// zero-padded. Unparseable refs shard by their literal text (the
/// backend will answer the error).
fn normalize_ref(text: &str) -> String {
    let bare = text.strip_prefix("registry:").unwrap_or(text);
    if let Some(hex) = bare.strip_prefix("fp:") {
        if let Ok(fp) = u64::from_str_radix(hex, 16) {
            return format!("fp:{fp:016x}");
        }
    }
    bare.to_string()
}

/// Per-connection state a handler threads through its requests.
struct ConnState {
    /// Peer IP, the quota key of unauthenticated clients.
    peer: String,
    /// Set once any frame on this connection presented a valid token.
    authenticated: bool,
    frame_seq: u64,
}

impl ConnState {
    /// Deterministic fallback trace id for router-originated answers:
    /// the n-th frame of a connection is `r<n>`.
    fn next_trace(&mut self) -> String {
        let trace = format!("r{}", self.frame_seq);
        self.frame_seq += 1;
        trace
    }
}

/// What a dispatched request answers with.
enum Answer {
    /// A backend's response line, relayed verbatim (trace echo and all).
    Raw(String),
    /// A router-originated response, encoded with the client's trace id.
    Local(Response),
}

/// Bound on the trace-id → owning-backend map behind stitching.
const TRACE_OWNER_CAPACITY: usize = 1024;

struct Shared {
    backends: Vec<Backend>,
    ring: HashRing,
    config: RouterConfig,
    addr: SocketAddr,
    shutdown: AtomicBool,
    started: Instant,
    metrics: RouterMetrics,
    /// The router's own span ring: request roots, relay attempts, probes.
    spans: SpanRecorder,
    /// The structured event log the `logs` op serves.
    events: EventLog,
    /// Trace id → index of the backend that answered its relay (bounded
    /// FIFO), so `trace` knows which shard holds the other half of the
    /// tree.
    trace_owners: Mutex<VecDeque<(String, usize)>>,
    /// Monotonic probe counter: gives every probe span a unique id under
    /// the synthetic `probe` trace.
    probe_seq: AtomicU64,
    /// Token buckets keyed by auth token (or peer IP when auth is off).
    quotas: Mutex<HashMap<String, TokenBucket>>,
    /// Wakes the prober early on shutdown.
    probe_wake: (Mutex<()>, Condvar),
}

impl Shared {
    /// Answers one request line: the encoded response frame to write and
    /// whether the router must stop afterwards.
    fn respond(&self, line: &str, conn: &mut ConnState) -> (String, bool) {
        let start_micros = self.spans.now_micros();
        let (decoded, meta) = match Request::decode_frame_meta(line) {
            Ok((request, meta)) => (Ok(request), meta),
            Err(error) => (Err(error), FrameMeta::default()),
        };
        // Generated eagerly, like the daemon's `t<n>` ids: the n-th frame
        // of a connection is `r<n>` whether or not the client chose its
        // own id, so the sequence stays deterministic either way.
        let generated = conn.next_trace();
        let trace = meta.trace_id.clone().unwrap_or(generated);
        let heavy = decoded.as_ref().map(Request::is_heavy).unwrap_or(false);
        let op = decoded.as_ref().map(Request::op).unwrap_or("invalid");
        let index = RouterMetrics::op_index(op);
        self.metrics.requests[index].inc();
        let span = Span::on(&self.metrics.latency[index]);
        let (answer, stop) = self.dispatch(line, decoded, &meta, &trace, conn);
        drop(span);
        if heavy {
            // The router's root span: decode through answer, parented
            // under whatever span the client put on the envelope.
            let end_micros = self.spans.now_micros();
            self.spans.record(SpanRecord {
                trace_id: trace.clone(),
                span_id: "r:request".to_string(),
                parent: meta.parent_span.clone(),
                stage: "request".to_string(),
                start_micros,
                duration_micros: end_micros.saturating_sub(start_micros),
            });
        }
        let frame = match answer {
            Answer::Raw(reply) => reply,
            Answer::Local(response) => response.encode_with_trace(Some(&trace)),
        };
        (frame, stop)
    }

    /// The gate-then-route pipeline behind [`Shared::respond`].
    fn dispatch(
        &self,
        line: &str,
        decoded: Result<Request, String>,
        meta: &FrameMeta,
        trace: &str,
        conn: &mut ConnState,
    ) -> (Answer, bool) {
        let request = match decoded {
            Ok(request) => request,
            Err(error) => {
                return (Answer::Local(Response::Error { op: "invalid".to_string(), error }), false)
            }
        };
        if let Some(denied) = self.check_auth(&request, meta, conn) {
            return (Answer::Local(denied), false);
        }
        if let Some(bounced) = self.check_quota(&request, meta, conn) {
            return (Answer::Local(bounced), false);
        }
        let op = request.op().to_string();
        match route(&request) {
            Route::Stop => {
                (Answer::Local(Response::Ok { op, body: "{\"stopping\": true}".to_string() }), true)
            }
            Route::FanOut => {
                let body = match request {
                    Request::Stats => self.fleet_stats_body(),
                    Request::Metrics => self.fleet_metrics_body(),
                    Request::Health => self.fleet_health_body(),
                    _ => unreachable!("only fleet ops fan out"),
                };
                (Answer::Local(Response::Ok { op, body }), false)
            }
            Route::Observe => (Answer::Local(self.observe_answer(&request)), false),
            Route::Any => {
                let order: Vec<usize> = (0..self.backends.len()).collect();
                (self.relay(line, &op, &order, trace), false)
            }
            Route::Key(key) => (self.relay(line, &op, &self.ring.preference(&key), trace), false),
            Route::Replicate(key) => (self.replicate_upload(line, &key, trace), false),
        }
    }

    /// Answers the router-local observability ops: `trace` serves the
    /// stitched span tree, `logs` the event log.
    fn observe_answer(&self, request: &Request) -> Response {
        match request {
            Request::Trace { target } => {
                Response::Ok { op: "trace".to_string(), body: self.stitched_trace_body(target) }
            }
            Request::Logs { level } => {
                match level.as_deref().map_or(Some(LogLevel::Debug), LogLevel::parse) {
                    Some(min_level) => {
                        Response::Ok { op: "logs".to_string(), body: self.events.json(min_level) }
                    }
                    None => Response::Error {
                        op: "logs".to_string(),
                        error: format!(
                            "unknown log level `{}` (expected debug|info|warn|error)",
                            level.as_deref().unwrap_or("")
                        ),
                    },
                }
            }
            _ => unreachable!("only observability ops are routed here"),
        }
    }

    /// The stitched `trace` body: the router's own spans for `target`
    /// plus the owning backend's tree, the backend's parentless roots
    /// reparented under the router's last relay span so the whole request
    /// reads as one tree. Requires the client to have chosen the trace id
    /// (a relayed frame travels verbatim, so router and daemon fall back
    /// to different generated ids otherwise).
    fn stitched_trace_body(&self, target: &str) -> String {
        let mut spans = self.spans.spans_for(target);
        if let Some(owner) = self.owner_of(target) {
            let anchor = spans
                .iter()
                .rev()
                .find(|span| span.stage == "relay" || span.stage == "failover-retry")
                .map(|span| span.span_id.clone());
            let fetch = Request::Trace { target: target.to_string() };
            if let Ok(body) = self.ask(&self.backends[owner], &fetch) {
                for mut span in parse_remote_spans(target, &body) {
                    if span.parent.is_none() {
                        span.parent = anchor.clone();
                    }
                    spans.push(span);
                }
            }
        }
        SpanRecorder::render_tree(target, &spans, self.spans.dropped())
    }

    /// The backend that answered `trace_id`'s relay, if still remembered.
    fn owner_of(&self, trace_id: &str) -> Option<usize> {
        let owners = self.trace_owners.lock().expect("trace owner lock");
        owners.iter().rev().find(|(id, _)| id == trace_id).map(|&(_, index)| index)
    }

    /// Remembers which backend answered `trace_id` (bounded FIFO).
    fn record_owner(&self, trace_id: &str, index: usize) {
        let mut owners = self.trace_owners.lock().expect("trace owner lock");
        if owners.len() >= TRACE_OWNER_CAPACITY {
            owners.pop_front();
        }
        owners.push_back((trace_id.to_string(), index));
    }

    /// Counts a transport failure against a backend, narrating the
    /// up→down transition into the event log (only the transition — a
    /// dead backend keeps failing and must not flood the ring).
    fn note_failure(&self, index: usize, cause: &str, trace: Option<&str>) {
        let backend = &self.backends[index];
        let was_up = backend.is_up();
        backend.record_failure(self.config.failure_threshold);
        if was_up && !backend.is_up() {
            self.events.log(
                LogLevel::Error,
                "router.failover",
                &format!("backend {index} ({}) circuit-broken", backend.addr),
                trace,
                &[("cause", cause), ("backend", &index.to_string())],
            );
        }
    }

    /// The auth gate. `None` = pass. Health stays open so probes and
    /// monitoring work without credentials.
    fn check_auth(
        &self,
        request: &Request,
        meta: &FrameMeta,
        conn: &mut ConnState,
    ) -> Option<Response> {
        if self.config.auth_tokens.is_empty() || matches!(request, Request::Health) {
            return None;
        }
        if let Some(token) = &meta.auth {
            if self.config.auth_tokens.iter().any(|known| known == token) {
                conn.authenticated = true;
            } else {
                self.metrics.auth_failures.inc();
                // Narrate the denial without ever logging the token.
                self.events.log(
                    LogLevel::Warn,
                    "router.auth",
                    &format!("invalid auth token from {} for `{}`", conn.peer, request.op()),
                    meta.trace_id.as_deref(),
                    &[("peer", &conn.peer)],
                );
                return Some(Response::Error {
                    op: request.op().to_string(),
                    error: "invalid auth token".to_string(),
                });
            }
        }
        if conn.authenticated {
            None
        } else {
            self.metrics.auth_failures.inc();
            self.events.log(
                LogLevel::Warn,
                "router.auth",
                &format!("unauthenticated `{}` from {} denied", request.op(), conn.peer),
                meta.trace_id.as_deref(),
                &[("peer", &conn.peer)],
            );
            Some(Response::Error {
                op: request.op().to_string(),
                error: "authentication required: send an `auth` bearer token (protocol v3)"
                    .to_string(),
            })
        }
    }

    /// The rate quota. `None` = admitted. Only heavy ops spend tokens —
    /// observability stays free.
    fn check_quota(
        &self,
        request: &Request,
        meta: &FrameMeta,
        conn: &ConnState,
    ) -> Option<Response> {
        let quota = self.config.quota.as_ref()?;
        if !request.is_heavy() {
            return None;
        }
        let key = meta.auth.clone().unwrap_or_else(|| conn.peer.clone());
        let now_micros = self.started.elapsed().as_micros() as u64;
        let mut buckets = self.quotas.lock().expect("quota table lock");
        let bucket =
            buckets.entry(key).or_insert_with(|| TokenBucket::new(quota.rate_per_sec, quota.burst));
        if bucket.try_take(now_micros) {
            None
        } else {
            self.metrics.quota_exceeded.inc();
            // The quota key may be a bearer token; log the peer instead.
            self.events.log(
                LogLevel::Warn,
                "router.quota",
                &format!("quota bounced `{}` from {}", request.op(), conn.peer),
                meta.trace_id.as_deref(),
                &[("peer", &conn.peer)],
            );
            Some(Response::QuotaExceeded { op: request.op().to_string() })
        }
    }

    /// Relays `line` along `order`, wrapping the all-failed case into an
    /// `error` frame.
    fn relay(&self, line: &str, op: &str, order: &[usize], trace: &str) -> Answer {
        match self.relay_ranked(line, op, order, trace) {
            Ok((_, reply)) => Answer::Raw(reply),
            Err(error) => Answer::Local(Response::Error { op: op.to_string(), error }),
        }
    }

    /// Relays `line` to the first backend in `order` that answers —
    /// reachable backends first, the circuit-broken rest as a last
    /// resort (a probe may simply not have run yet) — with exponential
    /// backoff between attempts. Returns the answering backend's index
    /// and raw response line. Every attempt is recorded as a span under
    /// `trace` (`r:relay`, then `r:failover-retry.<n>`), and retries are
    /// narrated into the event log.
    fn relay_ranked(
        &self,
        line: &str,
        op: &str,
        order: &[usize],
        trace: &str,
    ) -> Result<(usize, String), String> {
        let mut candidates: Vec<usize> =
            order.iter().copied().filter(|&i| self.backends[i].is_up()).collect();
        candidates.extend(order.iter().copied().filter(|&i| !self.backends[i].is_up()));
        let mut backoff = self.config.retry_backoff;
        let mut last_error = "no backends configured".to_string();
        for (attempt, &index) in candidates.iter().enumerate() {
            if attempt > 0 {
                self.metrics.failovers.inc();
                self.events.log(
                    LogLevel::Warn,
                    "router.failover",
                    &format!("retrying `{op}` on backend {index} after: {last_error}"),
                    Some(trace),
                    &[("attempt", &attempt.to_string()), ("backend", &index.to_string())],
                );
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            let backend = &self.backends[index];
            let attempt_start = self.spans.now_micros();
            let outcome = backend.forward(line);
            let (span_id, stage) = if attempt == 0 {
                ("r:relay".to_string(), "relay")
            } else {
                (format!("r:failover-retry.{attempt}"), "failover-retry")
            };
            self.spans.record(SpanRecord {
                trace_id: trace.to_string(),
                span_id,
                parent: Some("r:request".to_string()),
                stage: stage.to_string(),
                start_micros: attempt_start,
                duration_micros: self.spans.now_micros().saturating_sub(attempt_start),
            });
            match outcome {
                Ok(reply) if is_lifecycle_refusal(&reply) => {
                    // The daemon answered, but only to say it is going
                    // away and never executed the job — as retryable as
                    // a refused connection.
                    self.note_failure(index, "lifecycle-refusal", Some(trace));
                    last_error = format!("backend {index} ({}) is shutting down", backend.addr);
                }
                Ok(reply) => {
                    backend.record_success();
                    if reply.starts_with("{\"status\": \"busy\"") {
                        self.metrics.busy_relayed.inc();
                    }
                    self.record_owner(trace, index);
                    return Ok((index, reply));
                }
                Err(error) => {
                    self.note_failure(index, "transport", Some(trace));
                    last_error = format!("backend {index} ({}): {error}", backend.addr);
                }
            }
        }
        self.events.log(
            LogLevel::Error,
            "router.failover",
            &format!("no backend could answer `{op}`"),
            Some(trace),
            &[],
        );
        Err(format!("no backend could answer `{op}`: {last_error}"))
    }

    /// `upload`: relay to the key's owner (with failover), then replicate
    /// the same frame to every other live backend so `fp:` refs resolve
    /// on any shard. Replication only happens for an `ok` answer — a
    /// bounced or failed upload is not half-applied across the fleet.
    fn replicate_upload(&self, line: &str, key: &str, trace: &str) -> Answer {
        let order = self.ring.preference(key);
        let (answered_by, reply) = match self.relay_ranked(line, "upload", &order, trace) {
            Ok(answered) => answered,
            Err(error) => {
                return Answer::Local(Response::Error { op: "upload".to_string(), error })
            }
        };
        if reply.starts_with("{\"status\": \"ok\"") {
            for backend in &self.backends {
                if backend.index == answered_by || !backend.is_up() {
                    continue;
                }
                match backend.forward(line) {
                    Ok(_) => {
                        backend.record_success();
                        self.metrics.replications.inc();
                    }
                    Err(_) => {
                        self.note_failure(backend.index, "replicate", Some(trace));
                        self.metrics.replication_failures.inc();
                        self.events.log(
                            LogLevel::Warn,
                            "router.replicate",
                            &format!(
                                "upload replication to backend {} ({}) failed",
                                backend.index, backend.addr
                            ),
                            Some(trace),
                            &[("backend", &backend.index.to_string())],
                        );
                    }
                }
            }
        }
        Answer::Raw(reply)
    }

    /// Count of backends the breaker currently trusts.
    fn up_count(&self) -> usize {
        self.backends.iter().filter(|backend| backend.is_up()).count()
    }

    /// Asks one backend a cheap request and returns the `ok` body,
    /// recording breaker state either way.
    fn ask(&self, backend: &Backend, request: &Request) -> Result<String, String> {
        match backend.forward(&request.encode()) {
            Ok(reply) => match Response::decode(&reply) {
                Ok(Response::Ok { body, .. }) => {
                    backend.record_success();
                    Ok(body)
                }
                Ok(other) => Err(format!("unexpected {} answer: {other:?}", request.op())),
                Err(error) => Err(error),
            },
            Err(error) => {
                self.note_failure(backend.index, "transport", None);
                Err(error.to_string())
            }
        }
    }

    /// The fleet `stats` body: router counters plus every backend's own
    /// single-line stats body, in index order.
    fn fleet_stats_body(&self) -> String {
        let members: Vec<String> = self
            .backends
            .iter()
            .map(|backend| match self.ask(backend, &Request::Stats) {
                Ok(body) => body,
                Err(error) => format!("{{\"error\": \"{}\"}}", escape(&error)),
            })
            .collect();
        let forwarded: Vec<String> =
            self.backends.iter().map(|backend| backend.forwarded.get().to_string()).collect();
        format!(
            "{{\"router\": {{\"backends\": {}, \"up\": {}, \"requests\": {}, \
             \"forwarded\": [{}], \"failovers\": {}, \"busy_relayed\": {}, \
             \"auth_failures\": {}, \"quota_exceeded\": {}, \"replications\": {}}}, \
             \"backends\": [{}]}}",
            self.backends.len(),
            self.up_count(),
            self.metrics.total_requests(),
            forwarded.join(", "),
            self.metrics.failovers.get(),
            self.metrics.busy_relayed.get(),
            self.metrics.auth_failures.get(),
            self.metrics.quota_exceeded.get(),
            self.metrics.replications.get(),
            members.join(", ")
        )
    }

    /// The fleet `metrics` body: the router's families, then every
    /// answering backend's families with `backend="<i>"` injected.
    fn fleet_metrics_body(&self) -> String {
        let mut expositions = Vec::new();
        for backend in &self.backends {
            if let Ok(body) = self.ask(backend, &Request::Metrics) {
                expositions.push((backend.index, body));
            }
        }
        format!("{}{}", self.metrics.registry.render(), merge_expositions(&expositions))
    }

    /// The fleet `health` body: the router's own identity (uptime,
    /// version) next to per-backend liveness as observed *now* (the
    /// fan-out doubles as a probe round).
    fn fleet_health_body(&self) -> String {
        let members: Vec<String> = self
            .backends
            .iter()
            .map(|backend| match self.ask(backend, &Request::Health) {
                Ok(body) => format!("{{\"up\": true, \"health\": {body}}}"),
                Err(error) => format!("{{\"up\": false, \"error\": \"{}\"}}", escape(&error)),
            })
            .collect();
        format!(
            "{{\"router\": {{\"backends\": {}, \"up\": {}, \"uptime_secs\": {}, \
             \"version\": \"{}\"}}, \"backends\": [{}]}}",
            self.backends.len(),
            self.up_count(),
            self.started.elapsed().as_secs(),
            escape(env!("CARGO_PKG_VERSION")),
            members.join(", ")
        )
    }

    /// One probe round over every backend. Probes are background work
    /// with no client frame, so their spans live under the synthetic
    /// `probe` trace, one root span per probe.
    fn probe_all(&self) {
        for backend in &self.backends {
            self.metrics.probes.inc();
            let seq = self.probe_seq.fetch_add(1, Ordering::Relaxed);
            let start_micros = self.spans.now_micros();
            let outcome = probe_once(backend.addr, self.config.probe_timeout);
            self.spans.record(SpanRecord {
                trace_id: "probe".to_string(),
                span_id: format!("r:probe.{seq}"),
                parent: None,
                stage: "probe".to_string(),
                start_micros,
                duration_micros: self.spans.now_micros().saturating_sub(start_micros),
            });
            match outcome {
                Ok(()) => backend.record_success(),
                Err(_) => {
                    self.metrics.probe_failures.inc();
                    let was_up = backend.is_up();
                    backend.set_down();
                    if was_up {
                        self.events.log(
                            LogLevel::Warn,
                            "router.failover",
                            &format!(
                                "backend {} ({}) failed its health probe, marked down",
                                backend.index, backend.addr
                            ),
                            None,
                            &[("cause", "probe"), ("backend", &backend.index.to_string())],
                        );
                    }
                }
            }
        }
    }

    /// Idempotently stops the router: flags, wakes the prober, pokes the
    /// acceptor awake with a throwaway connection.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.events.log(LogLevel::Info, "router.lifecycle", "stopping", None, &[]);
            self.probe_wake.1.notify_all();
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// Parses the `spans` array of a backend's `trace` body back into
/// records (the backend emits them through the same `dbt-obs` writer, so
/// the round trip is lossless). Unparseable bodies stitch to nothing.
fn parse_remote_spans(trace_id: &str, body: &str) -> Vec<SpanRecord> {
    let Ok(value) = JsonValue::parse(body) else { return Vec::new() };
    let Some(spans) = value.get("spans").and_then(JsonValue::as_array) else { return Vec::new() };
    spans
        .iter()
        .filter_map(|span| {
            Some(SpanRecord {
                trace_id: trace_id.to_string(),
                span_id: span.get("span_id")?.as_str()?.to_string(),
                parent: span.get("parent").and_then(JsonValue::as_str).map(str::to_string),
                stage: span.get("stage")?.as_str()?.to_string(),
                start_micros: span.get("start_micros")?.as_u64()?,
                duration_micros: span.get("duration_micros")?.as_u64()?,
            })
        })
        .collect()
}

/// `true` for the two daemon answers that mean "the job was never
/// executed because this daemon is going away" — a shutting-down daemon
/// keeps answering open connections, and those refusals must trigger
/// failover exactly like a refused connection. Any other `error` is the
/// *request's* failure and is relayed, never retried.
fn is_lifecycle_refusal(reply: &str) -> bool {
    reply.starts_with("{\"status\": \"error\"")
        && (reply.contains("server is shutting down") || reply.contains("worker dropped the job"))
}

/// One health probe on a dedicated short-timeout connection (pooled
/// relay connections deliberately have no read timeout — sweeps take
/// seconds).
fn probe_once(addr: SocketAddr, timeout: Duration) -> std::io::Result<()> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    write_frame(&mut writer, &Request::Health.encode())?;
    let mut line = String::new();
    if BufReader::new(stream).read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "no health answer"));
    }
    Ok(())
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let peer = stream
        .peer_addr()
        .map(|addr| addr.ip().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut conn = ConnState { peer, authenticated: false, frame_seq: 0 };
    loop {
        let line = match read_frame(&mut reader, shared.config.max_frame_bytes) {
            Frame::Eof => return,
            Frame::TooLong(error) | Frame::Fatal(error) => {
                let frame = Response::Error { op: "invalid".to_string(), error }.encode();
                let _ = write_frame(&mut writer, &frame);
                return;
            }
            Frame::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let (frame, stop) = shared.respond(&line, &mut conn);
        if write_frame(&mut writer, &frame).is_err() {
            return;
        }
        if stop {
            shared.begin_shutdown();
            return;
        }
    }
}

/// Handle on a running router: address, shutdown, join.
pub struct RouterHandle {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    prober: JoinHandle<()>,
}

impl RouterHandle {
    /// The address the router actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Asks the router to stop, without waiting. Backends keep running.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the router has stopped (acceptor and prober joined).
    pub fn wait(self) {
        let _ = self.acceptor.join();
        let _ = self.prober.join();
    }
}

/// Starts the router on `addr`, fronting `backends` (dbt-serve daemons,
/// in the fleet order that defines shard identity — reordering the list
/// reshuffles shard assignment).
///
/// # Errors
///
/// Propagates the I/O error if the listener cannot bind; rejects an
/// empty backend list.
pub fn serve_router<A: ToSocketAddrs>(
    addr: A,
    backends: Vec<SocketAddr>,
    config: RouterConfig,
) -> std::io::Result<RouterHandle> {
    serve_router_with_clock(addr, backends, config, TraceClock::wall())
}

/// [`serve_router`] with an explicit span clock — determinism tests
/// inject [`TraceClock::scripted`] so stitched span trees are structure-
/// and byte-stable; production uses [`TraceClock::wall`].
///
/// # Errors
///
/// Propagates the I/O error if the listener cannot bind; rejects an
/// empty backend list.
pub fn serve_router_with_clock<A: ToSocketAddrs>(
    addr: A,
    backends: Vec<SocketAddr>,
    config: RouterConfig,
    clock: TraceClock,
) -> std::io::Result<RouterHandle> {
    if backends.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "the router needs at least one backend",
        ));
    }
    let listener = TcpListener::bind(addr)?;
    let metrics = RouterMetrics::new();
    let backends: Vec<Backend> = backends
        .into_iter()
        .enumerate()
        .map(|(index, addr)| {
            let label = index.to_string();
            let forwarded = metrics.registry.counter_with(
                "dbt_router_forwarded_total",
                "Frames forwarded to this backend (relays, replications and fan-outs).",
                &[("backend", &label)],
            );
            let up_gauge = metrics.registry.gauge_with(
                "dbt_router_backend_up",
                "1 while the breaker trusts this backend, 0 while it is considered dead.",
                &[("backend", &label)],
            );
            // Start optimistic: the first probe round or forward corrects us.
            up_gauge.set(1);
            Backend {
                index,
                addr,
                up: AtomicBool::new(true),
                failures: AtomicU32::new(0),
                pool: Mutex::new(Vec::new()),
                forwarded,
                up_gauge,
            }
        })
        .collect();
    let ring = HashRing::new(backends.len(), config.replicas.max(1));
    let shared = Arc::new(Shared {
        backends,
        ring,
        config,
        addr: listener.local_addr()?,
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        metrics,
        spans: SpanRecorder::new(clock),
        events: EventLog::new(),
        trace_owners: Mutex::new(VecDeque::new()),
        probe_seq: AtomicU64::new(0),
        quotas: Mutex::new(HashMap::new()),
        probe_wake: (Mutex::new(()), Condvar::new()),
    });
    shared.events.log(
        LogLevel::Info,
        "router.lifecycle",
        "listening",
        None,
        &[("addr", &shared.addr.to_string()), ("backends", &shared.backends.len().to_string())],
    );

    let prober = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || loop {
            {
                let (lock, cvar) = &shared.probe_wake;
                let guard = lock.lock().expect("probe wake lock");
                let _unused = cvar
                    .wait_timeout(guard, shared.config.probe_interval)
                    .expect("probe wake wait");
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            shared.probe_all();
        })
    };

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || loop {
            // Same discipline as the daemon's acceptor: check the flag on
            // every iteration so a failed wake-up connection cannot leave
            // us blocked, and back off on persistent accept errors.
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(10));
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

    Ok(RouterHandle { shared, acceptor, prober })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbt_serve::{
        serve, Client, LabBackend, ProgramSource, RunKnobs, ServerConfig, ServerHandle,
    };
    use std::sync::atomic::AtomicU64;

    /// A mock daemon backend that tags every answer with its fleet index,
    /// so tests can see which shard served a request.
    struct TagBackend {
        tag: usize,
        uploads: AtomicU64,
    }

    impl TagBackend {
        fn new(tag: usize) -> TagBackend {
            TagBackend { tag, uploads: AtomicU64::new(0) }
        }
    }

    impl LabBackend for TagBackend {
        fn run_scenario(&self, scenario: &str) -> Result<String, String> {
            Ok(format!("tag{} ran {scenario}\n", self.tag))
        }
        fn sweep(&self, name: &str, _threads: usize) -> Result<String, String> {
            Ok(format!("tag{} swept {name}\n", self.tag))
        }
        fn analyze(&self, program: &str) -> Result<String, String> {
            Ok(format!("tag{} analyzed {program}\n", self.tag))
        }
        fn run_program(&self, program: &str, policy: &str, _: &RunKnobs) -> Result<String, String> {
            Ok(format!("tag{} ran {program} under {policy}\n", self.tag))
        }
        fn upload(&self, source: &ProgramSource) -> Result<String, String> {
            let count = self.uploads.fetch_add(1, Ordering::SeqCst) + 1;
            Ok(format!(
                "{{\"fingerprint\": \"fp:{:016x}\", \"dedup\": false, \"count\": {count}}}",
                crate::ring::fnv1a(source.text().as_bytes())
            ))
        }
        fn stats_json(&self) -> String {
            format!(
                "{{\"tag\": {}, \"uploads\": {}}}",
                self.tag,
                self.uploads.load(Ordering::SeqCst)
            )
        }
        fn metrics_text(&self) -> String {
            format!(
                "# HELP dbt_mock_uploads_total Mock uploads.\n\
                 # TYPE dbt_mock_uploads_total counter\n\
                 dbt_mock_uploads_total {}\n",
                self.uploads.load(Ordering::SeqCst)
            )
        }
    }

    /// A fleet of `n` mock daemons plus a router in front of them.
    fn fleet(n: usize, config: RouterConfig) -> (Vec<ServerHandle>, RouterHandle) {
        let daemons: Vec<ServerHandle> = (0..n)
            .map(|tag| {
                serve("127.0.0.1:0", Arc::new(TagBackend::new(tag)), ServerConfig::default())
                    .expect("daemon binds")
            })
            .collect();
        let addrs = daemons.iter().map(ServerHandle::addr).collect();
        let router = serve_router("127.0.0.1:0", addrs, config).expect("router binds");
        (daemons, router)
    }

    fn stop(daemons: Vec<ServerHandle>, router: RouterHandle) {
        router.shutdown();
        router.wait();
        for daemon in daemons {
            daemon.shutdown();
            daemon.wait();
        }
    }

    fn ok_body(response: Response) -> String {
        match response {
            Response::Ok { body, .. } => body,
            other => panic!("expected ok, got {other:?}"),
        }
    }

    #[test]
    fn same_program_lands_on_the_same_shard_and_keys_spread() {
        let (daemons, router) = fleet(2, RouterConfig::default());
        let mut client = Client::connect(router.addr()).unwrap();
        let mut tags_seen = std::collections::BTreeSet::new();
        for i in 0..16 {
            let request = Request::Analyze { program: format!("prog-{i}") };
            let first = ok_body(client.request(&request).unwrap());
            let second = ok_body(client.request(&request).unwrap());
            assert_eq!(first, second, "one program, one shard");
            tags_seen.insert(first.starts_with("tag0"));
        }
        assert_eq!(tags_seen.len(), 2, "16 distinct programs must hit both backends");
        // Ref spellings shard identically: `registry:x` == `x`.
        let bare =
            ok_body(client.request(&Request::Analyze { program: "prog-0".to_string() }).unwrap());
        let prefixed = ok_body(
            client.request(&Request::Analyze { program: "registry:prog-0".to_string() }).unwrap(),
        );
        assert_eq!(
            bare.chars().take(4).collect::<String>(),
            prefixed.chars().take(4).collect::<String>()
        );
        stop(daemons, router);
    }

    #[test]
    fn uploads_replicate_to_every_backend() {
        let (daemons, router) = fleet(3, RouterConfig::default());
        let mut client = Client::connect(router.addr()).unwrap();
        let source = ProgramSource::Asm("li a0, 1\necall\n".to_string());
        let body = ok_body(client.request(&Request::Upload { source }).unwrap());
        assert!(body.contains("\"fingerprint\": \"fp:"), "{body}");
        // Every backend's own stats now count the upload.
        let stats = ok_body(client.request(&Request::Stats).unwrap());
        for tag in 0..3 {
            assert!(stats.contains(&format!("{{\"tag\": {tag}, \"uploads\": 1}}")), "{stats}");
        }
        assert!(stats.contains("\"replications\": 2"), "{stats}");
        stop(daemons, router);
    }

    #[test]
    fn fleet_ops_fan_out_and_merge() {
        let (daemons, router) = fleet(2, RouterConfig::default());
        let mut client = Client::connect(router.addr()).unwrap();

        let stats = ok_body(client.request(&Request::Stats).unwrap());
        assert!(stats.starts_with("{\"router\": {\"backends\": 2, \"up\": 2"), "{stats}");
        assert!(stats.contains("{\"tag\": 0,"), "{stats}");
        assert!(stats.contains("{\"tag\": 1,"), "{stats}");

        let health = ok_body(client.request(&Request::Health).unwrap());
        assert!(
            health.starts_with("{\"router\": {\"backends\": 2, \"up\": 2, \"uptime_secs\": "),
            "{health}"
        );
        assert!(
            health.contains(&format!("\"version\": \"{}\"", env!("CARGO_PKG_VERSION"))),
            "{health}"
        );
        assert!(health.contains("\"up\": true, \"health\": {\"workers\": 2"), "{health}");

        let metrics = ok_body(client.request(&Request::Metrics).unwrap());
        assert!(metrics.contains("dbt_router_requests_total{op=\"stats\"} 1"), "{metrics}");
        assert!(metrics.contains("dbt_mock_uploads_total{backend=\"0\"} 0"), "{metrics}");
        assert!(metrics.contains("dbt_mock_uploads_total{backend=\"1\"} 0"), "{metrics}");
        assert!(
            metrics.contains("dbt_serve_requests_total{backend=\"0\",op=\"stats\"}"),
            "{metrics}"
        );
        stop(daemons, router);
    }

    #[test]
    fn auth_gates_every_op_but_health() {
        let config = RouterConfig {
            auth_tokens: vec!["fleet-secret".to_string()],
            ..RouterConfig::default()
        };
        let (daemons, router) = fleet(2, config);
        let mut client = Client::connect(router.addr()).unwrap();

        // Unauthenticated: denied before any backend sees the frame.
        let denied = client.request(&Request::Stats).unwrap();
        let Response::Error { error, .. } = denied else { panic!("expected denial: {denied:?}") };
        assert!(error.contains("authentication required"), "{error}");
        // Health stays open for probes and monitoring.
        assert!(matches!(client.request(&Request::Health).unwrap(), Response::Ok { .. }));
        // A wrong token is its own error.
        let meta = FrameMeta { auth: Some("wrong".to_string()), ..FrameMeta::default() };
        let (denied, _) = client.request_meta(&Request::Stats, &meta).unwrap();
        let Response::Error { error, .. } = denied else { panic!("expected denial: {denied:?}") };
        assert!(error.contains("invalid auth token"), "{error}");
        // A valid token authenticates the connection...
        let meta = FrameMeta { auth: Some("fleet-secret".to_string()), ..FrameMeta::default() };
        let (reply, _) = client.request_meta(&Request::Stats, &meta).unwrap();
        assert!(matches!(reply, Response::Ok { .. }), "{reply:?}");
        // ...and later frames on it need no token.
        assert!(matches!(client.request(&Request::Stats).unwrap(), Response::Ok { .. }));
        // A fresh connection starts unauthenticated again.
        let mut fresh = Client::connect(router.addr()).unwrap();
        assert!(matches!(fresh.request(&Request::Stats).unwrap(), Response::Error { .. }));
        stop(daemons, router);
    }

    #[test]
    fn quotas_bounce_excess_heavy_requests() {
        let config = RouterConfig {
            quota: Some(QuotaConfig { rate_per_sec: 1, burst: 1 }),
            ..RouterConfig::default()
        };
        let (daemons, router) = fleet(1, config);
        let mut client = Client::connect(router.addr()).unwrap();
        let request = Request::Analyze { program: "prog".to_string() };
        let mut admitted = 0;
        let mut bounced = 0;
        for _ in 0..5 {
            match client.request(&request).unwrap() {
                Response::Ok { .. } => admitted += 1,
                Response::QuotaExceeded { op } => {
                    assert_eq!(op, "analyze");
                    bounced += 1;
                }
                other => panic!("unexpected answer: {other:?}"),
            }
        }
        assert!(admitted >= 1, "the burst token admits the first request");
        assert!(bounced >= 1, "five immediate requests cannot all fit a 1/s, burst-1 quota");
        // Cheap ops never spend tokens.
        for _ in 0..5 {
            assert!(matches!(client.request(&Request::Stats).unwrap(), Response::Ok { .. }));
        }
        stop(daemons, router);
    }

    #[test]
    fn a_dead_backend_fails_over_and_is_circuit_broken() {
        let config = RouterConfig {
            retry_backoff: Duration::from_millis(2),
            probe_interval: Duration::from_secs(3600), // keep the prober out of this test
            ..RouterConfig::default()
        };
        let (mut daemons, router) = fleet(2, config);
        let mut client = Client::connect(router.addr()).unwrap();

        let request = Request::Analyze { program: "victim".to_string() };
        let body = ok_body(client.request(&request).unwrap());
        let owner: usize = if body.starts_with("tag0") { 0 } else { 1 };

        // Kill the owner; the same request must still answer, from the
        // other shard, and the router must count the failover.
        let dead = daemons.remove(owner);
        dead.shutdown();
        dead.wait();
        let body = ok_body(client.request(&request).unwrap());
        assert!(body.starts_with(&format!("tag{}", 1 - owner)), "{body}");
        let metrics = ok_body(client.request(&Request::Metrics).unwrap());
        assert!(metrics.contains("dbt_router_failovers_total 1"), "{metrics}");

        // After `failure_threshold` transport failures the breaker opens:
        // later requests skip the dead backend without new failovers.
        for _ in 0..4 {
            let _ = ok_body(client.request(&request).unwrap());
        }
        let metrics = ok_body(client.request(&Request::Metrics).unwrap());
        let up_line = format!("dbt_router_backend_up{{backend=\"{owner}\"}} 0");
        assert!(metrics.contains(&up_line), "{metrics}");
        stop(daemons, router);
    }

    #[test]
    fn shutdown_stops_the_router_but_not_the_fleet() {
        let (daemons, router) = fleet(2, RouterConfig::default());
        let mut client = Client::connect(router.addr()).unwrap();
        let reply = client.request(&Request::Shutdown).unwrap();
        assert_eq!(
            reply,
            Response::Ok { op: "shutdown".to_string(), body: "{\"stopping\": true}".to_string() }
        );
        router.wait();
        // The daemons are untouched and still answer directly.
        for daemon in &daemons {
            let mut direct = Client::connect(daemon.addr()).unwrap();
            assert!(matches!(direct.request(&Request::Health).unwrap(), Response::Ok { .. }));
        }
        for daemon in daemons {
            daemon.shutdown();
            daemon.wait();
        }
    }

    #[test]
    fn trace_ids_echo_through_relays_and_local_answers() {
        let (daemons, router) = fleet(2, RouterConfig::default());
        let mut client = Client::connect(router.addr()).unwrap();
        // Relayed: the backend echoes the id the client put on the frame.
        let (reply, trace) = client
            .request_traced(&Request::Analyze { program: "p".to_string() }, Some("relay-1"))
            .unwrap();
        assert!(matches!(reply, Response::Ok { .. }));
        assert_eq!(trace.as_deref(), Some("relay-1"));
        // Router-originated: the router echoes it itself.
        let (reply, trace) = client.request_traced(&Request::Stats, Some("local-1")).unwrap();
        assert!(matches!(reply, Response::Ok { .. }));
        assert_eq!(trace.as_deref(), Some("local-1"));
        // And generates deterministic `r<n>` ids when the client sent none.
        let (_, trace) = client.request_traced(&Request::Stats, None).unwrap();
        assert_eq!(trace.as_deref(), Some("r2"));
        stop(daemons, router);
    }

    #[test]
    fn routing_keys_canonicalize_refs_and_scenarios() {
        assert_eq!(normalize_ref("registry:gemm"), "gemm");
        assert_eq!(normalize_ref("gemm"), "gemm");
        assert_eq!(normalize_ref("fp:00ABCDEF0012345f"), "fp:00abcdef0012345f");
        assert_eq!(normalize_ref("fp:nonsense"), "fp:nonsense");
        assert_eq!(scenario_key("figure4/gemm/our-approach/default"), "gemm");
        assert_eq!(scenario_key("no-slashes"), "no-slashes");
        // Scenario runs and program-ref runs of the same program share a key.
        let scenario = route(&Request::Run { scenario: "figure4/gemm/fence/default".to_string() });
        let programref = route(&Request::RunProgram {
            program: "registry:gemm".to_string(),
            policy: "fence".to_string(),
            knobs: RunKnobs::default(),
        });
        match (scenario, programref) {
            (Route::Key(a), Route::Key(b)) => assert_eq!(a, b),
            _ => panic!("both must route by key"),
        }
    }

    #[test]
    fn trace_op_stitches_router_and_backend_spans() {
        let (daemons, router) = fleet(2, RouterConfig::default());
        let mut client = Client::connect(router.addr()).unwrap();
        let (reply, _) = client
            .request_traced(&Request::Analyze { program: "stitched".to_string() }, Some("st-1"))
            .unwrap();
        assert!(matches!(reply, Response::Ok { .. }), "{reply:?}");
        let body = ok_body(client.request(&Request::Trace { target: "st-1".to_string() }).unwrap());
        assert!(
            body.starts_with("{\"schema\": \"dbt-serve/trace/v1\", \"trace_id\": \"st-1\""),
            "{body}"
        );
        // The router's half of the tree...
        assert!(body.contains("\"span_id\": \"r:request\", \"parent\": null"), "{body}");
        assert!(body.contains("\"span_id\": \"r:relay\", \"parent\": \"r:request\""), "{body}");
        // ...and the backend's half, its root reparented under the relay
        // span so the whole request reads as one tree.
        assert!(body.contains("\"span_id\": \"d:request\", \"parent\": \"r:relay\""), "{body}");
        assert!(body.contains("\"span_id\": \"d:decode\""), "{body}");
        assert!(body.contains("\"span_id\": \"d:queue-wait\""), "{body}");
        stop(daemons, router);
    }

    #[test]
    fn logs_op_narrates_failover_events() {
        let config = RouterConfig {
            retry_backoff: Duration::from_millis(2),
            probe_interval: Duration::from_secs(3600), // keep the prober out of this test
            ..RouterConfig::default()
        };
        let (mut daemons, router) = fleet(2, config);
        let mut client = Client::connect(router.addr()).unwrap();
        let request = Request::Analyze { program: "victim".to_string() };
        let body = ok_body(client.request(&request).unwrap());
        let owner: usize = if body.starts_with("tag0") { 0 } else { 1 };
        let dead = daemons.remove(owner);
        dead.shutdown();
        dead.wait();
        let _ = ok_body(client.request(&request).unwrap());

        let logs =
            ok_body(client.request(&Request::Logs { level: Some("warn".to_string()) }).unwrap());
        assert!(logs.starts_with("{\"schema\": \"dbt-serve/logs/v1\""), "{logs}");
        assert!(logs.contains("router.failover"), "{logs}");
        assert!(!logs.contains("router.lifecycle"), "lifecycle is info-level: {logs}");
        // The default level serves everything, lifecycle included.
        let all = ok_body(client.request(&Request::Logs { level: None }).unwrap());
        assert!(all.contains("\"message\": \"listening\""), "{all}");
        // Unknown levels are the client's error, never a panic.
        let denied = client.request(&Request::Logs { level: Some("loud".to_string()) }).unwrap();
        assert!(matches!(denied, Response::Error { .. }), "{denied:?}");
        stop(daemons, router);
    }
}
