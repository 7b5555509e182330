//! End-to-end tests of the `dbt-serve` daemon over real TCP with the real
//! [`LabDaemon`] backend: concurrent clients get byte-identical reports,
//! the run-summary memo counts deterministically, a full queue answers
//! `busy` instead of hanging, and sequential round trips never stall.

use dbt_lab::{run_sweep, strip_stats, ExecOptions, LabDaemon, Registry};
use dbt_serve::{serve, Client, JsonValue, Request, Response, ServerConfig, ServerHandle};
use dbt_workloads::WorkloadSize;
use std::sync::Arc;

fn start(daemon: LabDaemon, config: ServerConfig) -> ServerHandle {
    serve("127.0.0.1:0", Arc::new(daemon), config).expect("ephemeral port must bind")
}

fn ok_body(response: Response) -> String {
    match response {
        Response::Ok { body, .. } => body,
        other => panic!("expected ok, got {other:?}"),
    }
}

#[test]
fn concurrent_clients_get_reports_byte_identical_to_a_serial_sweep() {
    let handle = start(
        LabDaemon::with_threads(WorkloadSize::Mini, 1),
        ServerConfig { workers: 3, queue_depth: 16, ..ServerConfig::default() },
    );
    let addr = handle.addr();

    // The serial reference: what `lab sweep ptr-matmul` prints locally.
    let registry = Registry::standard(WorkloadSize::Mini);
    let sweep = registry.find("ptr-matmul").expect("registered sweep");
    let serial =
        run_sweep(&sweep.name, &sweep.expand(), ExecOptions { threads: 1, verbose: false });
    let reference = strip_stats(&serial.to_json());

    let bodies: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let request = Request::Sweep { name: "ptr-matmul".to_string(), threads: 1 };
                    ok_body(client.request(&request).expect("transport"))
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect()
    });

    for body in &bodies {
        assert_eq!(
            strip_stats(body),
            reference,
            "every client's cycle data must match the serial lab sweep byte for byte"
        );
    }

    // The memo really was shared: four identical sweeps can't all miss.
    let mut client = Client::connect(addr).expect("connect");
    let stats = JsonValue::parse(&ok_body(client.request(&Request::Stats).expect("transport")))
        .expect("stats body parses");
    let hits = stats
        .get("lab")
        .and_then(|lab| lab.get("run_memo"))
        .and_then(|memo| memo.get("hits"))
        .and_then(JsonValue::as_u64)
        .expect("lab.run_memo.hits");
    assert!(hits > 0, "repeated identical sweeps must hit the run memo: {stats}");

    ok_body(client.request(&Request::Shutdown).expect("transport"));
    handle.wait();
}

#[test]
fn run_memo_counters_are_deterministic_for_a_fixed_job_list() {
    let handle = start(
        LabDaemon::with_threads(WorkloadSize::Mini, 1),
        ServerConfig { workers: 2, queue_depth: 8, ..ServerConfig::default() },
    );
    let mut client = Client::connect(handle.addr()).expect("connect");

    // One perf scenario = two simulations (baseline + policy run), so the
    // k-th repetition contributes exactly 2 hits after the first.
    let request = Request::Run { scenario: "ptr-matmul/gemm (flat)/fence/default".to_string() };
    let first = ok_body(client.request(&request).expect("transport"));
    for _ in 0..4 {
        let repeat = ok_body(client.request(&request).expect("transport"));
        assert_eq!(strip_stats(&repeat), strip_stats(&first));
    }

    let stats = JsonValue::parse(&ok_body(client.request(&Request::Stats).expect("transport")))
        .expect("stats body parses");
    let memo = stats.get("lab").and_then(|lab| lab.get("run_memo")).expect("lab.run_memo");
    assert_eq!(memo.get("misses").and_then(JsonValue::as_u64), Some(2), "{stats}");
    assert_eq!(memo.get("hits").and_then(JsonValue::as_u64), Some(8), "{stats}");
    assert_eq!(memo.get("entries").and_then(JsonValue::as_u64), Some(2), "{stats}");

    ok_body(client.request(&Request::Shutdown).expect("transport"));
    handle.wait();
}

#[test]
fn full_queue_answers_busy_instead_of_hanging() {
    // Depth 0 means admission control rejects every heavy job up front —
    // the deterministic way to pin the backpressure path end-to-end (the
    // worker-occupancy variant lives in dbt-serve's own tests).
    let handle = start(
        LabDaemon::with_threads(WorkloadSize::Mini, 1),
        ServerConfig { workers: 1, queue_depth: 0, ..ServerConfig::default() },
    );
    let mut client = Client::connect(handle.addr()).expect("connect");
    let request = Request::Sweep { name: "ptr-matmul".to_string(), threads: 1 };
    for _ in 0..3 {
        let response = client.request(&request).expect("transport");
        assert_eq!(response, Response::Busy { op: "sweep".to_string() });
    }
    // Cheap requests bypass the queue and still answer.
    let health = ok_body(client.request(&Request::Health).expect("transport"));
    assert!(health.contains("\"queue_depth\": 0"), "{health}");

    handle.shutdown();
    handle.wait();
}

#[test]
fn two_hundred_sequential_requests_on_one_connection_finish_in_two_seconds() {
    // A frame sent as two writes stalls on Nagle + delayed ACK for about
    // 40 ms per direction: with that stall these 200 memo-hit runs took
    // 17.6 s on a 2-CPU host. Sent as one write each, they take about a
    // millisecond apiece.
    let handle = start(LabDaemon::with_threads(WorkloadSize::Mini, 1), ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let run = Request::Run { scenario: "figure4/gemm/selective/default".to_string() };
    let warm = ok_body(client.request(&run).expect("transport"));
    let started = std::time::Instant::now();
    for _ in 0..200 {
        let body = ok_body(client.request(&run).expect("transport"));
        assert_eq!(strip_stats(&body), strip_stats(&warm));
    }
    let elapsed = started.elapsed();
    assert!(elapsed < std::time::Duration::from_secs(2), "200 round trips took {elapsed:?}");
    handle.shutdown();
    handle.wait();
}

#[test]
fn analyze_through_the_daemon_matches_the_local_cli_output() {
    let handle = start(LabDaemon::new(WorkloadSize::Mini), ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let body = ok_body(
        client.request(&Request::Analyze { program: "histogram".to_string() }).expect("transport"),
    );
    let local = dbt_lab::analyze_program("histogram", WorkloadSize::Mini)
        .expect("histogram analyzes")
        .to_json();
    assert_eq!(body, local, "analyze is pure, so daemon and CLI agree to the byte");

    let error = client
        .request(&Request::Run { scenario: "no/such/scenario".to_string() })
        .expect("transport");
    assert!(matches!(error, Response::Error { .. }), "{error:?}");

    handle.shutdown();
    handle.wait();
}
