//! Closed-loop TCP clients: each sends its next request only after the
//! previous answer arrived, as `lab submit` and CI scripts do.

use crate::spans::Tree;
use dbt_json::JsonValue;
use dbt_serve::{Client, ConnectOptions, Request, Response};
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// No single answer may take longer; a stalled system fails its requests
/// instead of hanging the benchmark.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Connects to a daemon or router.
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    let opts = ConnectOptions {
        attempts: 5,
        initial_backoff: Duration::from_millis(10),
        read_timeout: Some(READ_TIMEOUT),
    };
    Client::connect_with(addr, opts).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// The parsed body of a `stats` request to `addr`.
pub fn stats(addr: SocketAddr) -> Result<JsonValue, String> {
    match connect(addr)?.request(&Request::Stats)? {
        Response::Ok { body, .. } => JsonValue::parse(&body),
        other => Err(format!("stats answered {other:?}")),
    }
}

/// One timed request.
#[derive(Debug)]
pub struct Sample {
    /// The request's `op`.
    pub op: &'static str,
    /// Client-observed round trip, ms.
    pub rtt_ms: f64,
    /// Answered `ok` with a body the oracle accepted.
    pub ok: bool,
    /// Scenario results the answer delivered (`sweep` bodies carry many).
    pub scenarios: usize,
    /// The request's span tree (traced runs only).
    pub tree: Option<Tree>,
    /// Client-side `encode` + `decode_frame` of this frame pair, µs
    /// (traced runs only).
    pub codec_us: f64,
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientRun {
    pub samples: Vec<Sample>,
    pub seconds: f64,
    pub busy: u64,
    pub errors: u64,
}

/// The per-request behaviour a workload plugs into [`drive`].
pub trait Script {
    /// The request at position `seq`.
    fn request(&mut self, seq: usize) -> Request;
    /// Checks an `ok` answer; returns the number of scenario results it
    /// delivered, or `None` when the oracle rejects it.
    fn check(&mut self, seq: usize, request: &Request, body: &str) -> Option<usize>;
}

/// Runs one client against `addr` until `budget` elapses (or `cap`
/// requests were sent). Trace ids are `c<client>-<seq>` and every echo is
/// checked; with `trace`, each request's span tree is fetched right after
/// its answer, before the ring can evict it.
pub fn drive(
    addr: SocketAddr,
    client_index: usize,
    budget: Duration,
    cap: Option<usize>,
    trace: bool,
    script: &mut dyn Script,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut client = match connect(addr) {
        Ok(client) => client,
        Err(_) => {
            run.errors += 1;
            return run;
        }
    };
    let started = Instant::now();
    let mut seq = 0;
    while started.elapsed() < budget && cap.is_none_or(|cap| seq < cap) {
        let request = script.request(seq);
        let id = format!("c{client_index}-{seq}");
        let sent = Instant::now();
        let answer = client.request_traced(&request, Some(&id));
        let rtt_ms = sent.elapsed().as_secs_f64() * 1e3;
        let mut sample =
            Sample { op: request.op(), rtt_ms, ok: false, scenarios: 0, tree: None, codec_us: 0.0 };
        match &answer {
            Ok((Response::Ok { body, .. }, echo)) if echo.as_deref() == Some(id.as_str()) => {
                if let Some(scenarios) = script.check(seq, &request, body) {
                    sample.ok = true;
                    sample.scenarios = scenarios;
                }
            }
            Ok((Response::Busy { .. }, _)) => run.busy += 1,
            Ok(_) => run.errors += 1,
            Err(_) => {
                run.errors += 1;
                // The connection cannot be trusted after a transport error.
                match connect(addr) {
                    Ok(fresh) => client = fresh,
                    Err(_) => {
                        run.samples.push(sample);
                        break;
                    }
                }
            }
        }
        if trace {
            if let Ok((response, _)) = &answer {
                sample.codec_us = codec_micros(&request, response, &id);
            }
            sample.tree = match client.request(&Request::Trace { target: id }) {
                Ok(Response::Ok { body, .. }) => Tree::parse(&body).ok(),
                _ => None,
            };
        }
        run.samples.push(sample);
        seq += 1;
    }
    run.seconds = started.elapsed().as_secs_f64();
    run
}

/// Times the client's half of the protocol codec on this frame pair:
/// encoding the request and decoding the answer.
fn codec_micros(request: &Request, response: &Response, id: &str) -> f64 {
    let frame = response.encode_with_trace(Some(id));
    let started = Instant::now();
    black_box(request.encode_with_trace(black_box(id)));
    let decoded = black_box(Response::decode_frame(black_box(&frame)));
    let micros = started.elapsed().as_secs_f64() * 1e6;
    debug_assert!(decoded.is_ok());
    micros
}

/// Runs `clients` clients concurrently, each with its own script.
pub fn drive_all<S: Script + Send>(
    addr: SocketAddr,
    scripts: &mut [S],
    budget: Duration,
    cap: Option<usize>,
    trace: bool,
) -> Vec<ClientRun> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter_mut()
            .enumerate()
            .map(|(index, script)| {
                scope.spawn(move || drive(addr, index, budget, cap, trace, script))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}
