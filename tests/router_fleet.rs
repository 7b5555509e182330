//! End-to-end tests of the `dbt-router` fleet front door over real TCP
//! with real [`LabDaemon`] backends: routed answers are byte-identical to
//! asking one daemon directly, shard assignment is deterministic, uploads
//! resolve on every shard, and killing a backend mid-load loses no
//! requests.

use dbt_lab::{strip_stats, LabDaemon};
use dbt_router::{serve_router, RouterConfig, RouterHandle};
use dbt_serve::{
    drive, serve, Client, JsonValue, LoadOptions, ProgramSource, Request, Response, RunKnobs,
    ServerConfig, ServerHandle,
};
use dbt_workloads::WorkloadSize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `n` daemons on ephemeral ports behind a router with `config`.
fn fleet(n: usize, config: RouterConfig) -> (Vec<ServerHandle>, RouterHandle) {
    let daemons: Vec<ServerHandle> = (0..n)
        .map(|_| {
            serve(
                "127.0.0.1:0",
                Arc::new(LabDaemon::with_threads(WorkloadSize::Mini, 1)),
                ServerConfig { workers: 2, queue_depth: 16, ..ServerConfig::default() },
            )
            .expect("ephemeral port must bind")
        })
        .collect();
    let backends = daemons.iter().map(ServerHandle::addr).collect();
    let router = serve_router("127.0.0.1:0", backends, config).expect("router must bind");
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

/// The loadgen request mix (`lab loadgen`'s, minus nothing): scenario
/// runs across policies plus one full sweep.
fn request_mix() -> Vec<Request> {
    vec![
        Request::Run { scenario: "figure4/gemm/our-approach/default".to_string() },
        Request::Run { scenario: "figure4/gemm/selective/default".to_string() },
        Request::Run { scenario: "figure4/atax/fence/default".to_string() },
        Request::Run { scenario: "attack-table/spectre-v1/selective/default".to_string() },
        Request::Sweep { name: "ptr-matmul".to_string(), threads: 1 },
    ]
}

#[test]
fn a_three_backend_router_answers_byte_identical_to_one_daemon() {
    // The reference: every mix request asked of a single bare daemon.
    let reference_daemon = serve(
        "127.0.0.1:0",
        Arc::new(LabDaemon::with_threads(WorkloadSize::Mini, 1)),
        ServerConfig::default(),
    )
    .expect("ephemeral port must bind");
    let mut direct = Client::connect(reference_daemon.addr()).expect("connect");
    let reference: Vec<String> = request_mix()
        .iter()
        .map(|request| strip_stats(&ok_body(direct.request(request).expect("transport"))))
        .collect();
    reference_daemon.shutdown();
    reference_daemon.wait();

    let (daemons, router) = fleet(3, RouterConfig::default());
    let mut client = Client::connect(router.addr()).expect("connect");
    for (request, expected) in request_mix().iter().zip(&reference) {
        let routed = strip_stats(&ok_body(client.request(request).expect("transport")));
        assert_eq!(&routed, expected, "a routed answer must match the bare daemon byte for byte");
    }

    // Under concurrency the same holds (drive() cross-checks responses per
    // request), and the per-backend split is the deterministic ring
    // assignment: re-asking the whole mix moves every count by the same
    // per-backend delta.
    let outcome = drive(
        router.addr(),
        &request_mix(),
        LoadOptions { clients: 4, iterations: 2 },
        &|_, body| strip_stats(body),
    )
    .expect("loadgen through the router");
    assert_eq!(outcome.errors, 0, "no request may fail");
    assert_eq!(outcome.mismatches, 0, "routed responses must agree byte for byte");
    assert_eq!(outcome.ok + outcome.busy, outcome.requests);

    let forwarded_after_drive = forwarded(&mut client);
    for request in request_mix() {
        ok_body(client.request(&request).expect("transport"));
    }
    let forwarded_after_mix = forwarded(&mut client);
    let moved: Vec<u64> = forwarded_after_mix
        .iter()
        .zip(&forwarded_after_drive)
        // The stats scrape itself fans out one frame per backend.
        .map(|(now, before)| now - before - 1)
        .collect();
    assert_eq!(moved.iter().sum::<u64>(), request_mix().len() as u64, "{moved:?}");
    // Shard assignment is a pure function of the routing key, so one pass
    // of the mix distributes exactly like the 9 passes before the first
    // scrape (the serial zip pass plus 4 clients x 2 drive iterations).
    let per_pass: Vec<u64> = forwarded_after_drive
        .iter()
        .map(|count| (count - 1) / 9) // minus the first stats scrape
        .collect();
    assert_eq!(moved, per_pass, "the drive passes and the direct pass must shard identically");

    stop(daemons, router);
}

#[test]
fn uploads_through_the_router_resolve_on_every_shard() {
    let (daemons, router) = fleet(3, RouterConfig::default());
    let mut client = Client::connect(router.addr()).expect("connect");
    let source = "\
        .word table, 5, 6\n\
        la t0, table\n\
        ld a0, 0(t0)\n\
        ld a1, 8(t0)\n\
        mul a2, a0, a1\n\
        ecall\n";
    let body = ok_body(
        client
            .request(&Request::Upload { source: ProgramSource::Asm(source.to_string()) })
            .expect("transport"),
    );
    let fp = body
        .split("\"fp:")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("fingerprint in upload body");
    let fp = format!("fp:{fp}");

    // Replication means the ref resolves on *every* backend directly, not
    // just the shard the router would pick.
    for daemon in &daemons {
        let mut direct = Client::connect(daemon.addr()).expect("connect");
        let report = ok_body(
            direct
                .request(&Request::RunProgram {
                    program: fp.clone(),
                    policy: "selective".to_string(),
                    knobs: RunKnobs::default(),
                })
                .expect("transport"),
        );
        assert!(report.contains(&format!("adhoc/{fp}/selective")), "{report}");
    }
    stop(daemons, router);
}

#[test]
fn killing_a_backend_mid_load_loses_no_requests() {
    let probe_interval = Duration::from_millis(100);
    let (mut daemons, router) = fleet(
        2,
        RouterConfig {
            retry_backoff: Duration::from_millis(2),
            probe_interval,
            ..RouterConfig::default()
        },
    );
    let addr = router.addr();
    let victim = daemons.remove(0);

    // Kill one backend while four clients hammer the router. The router
    // retries refused connections and shutdown refusals on the surviving
    // backend, so the clients see only `ok` (or honest `busy`) — never a
    // transport error or a divergent body. The kill is triggered by load
    // progress, not by a timer: after the 10th of 120 answers, so most of
    // the load still runs against the shrunken fleet however fast the
    // transport is.
    let (kill, killed) = std::sync::mpsc::channel();
    let answered = AtomicUsize::new(0);
    let killer = std::thread::spawn(move || {
        if killed.recv().is_ok() {
            victim.shutdown();
            victim.wait();
        }
    });
    let normalize = |_: &Request, body: &str| {
        if answered.fetch_add(1, Ordering::SeqCst) + 1 == 10 {
            let _ = kill.send(());
        }
        strip_stats(body)
    };
    let outcome =
        drive(addr, &request_mix(), LoadOptions { clients: 4, iterations: 6 }, &normalize)
            .expect("loadgen through the router");
    // Should the kill never have fired, release the killer anyway.
    drop(kill);
    killer.join().expect("killer thread");

    assert_eq!(outcome.errors, 0, "failover must hide the dead backend: {outcome:?}");
    assert_eq!(outcome.mismatches, 0, "failover answers must stay byte-identical");
    assert_eq!(outcome.ok + outcome.busy, outcome.requests, "every request answers: {outcome:?}");

    // The survivor still answers through the router afterwards, and the
    // prober marks the victim down within a bounded number of intervals.
    let mut client = Client::connect(addr).expect("connect");
    let deadline = Instant::now() + 20 * probe_interval;
    let health = loop {
        let health = ok_body(client.request(&Request::Health).expect("transport"));
        if health.contains("\"up\": 1") || Instant::now() >= deadline {
            break health;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(health.contains("\"up\": 1"), "{health}");

    stop(daemons, router);
}

/// The router's per-backend forwarded counters, via the fleet stats body.
fn forwarded(client: &mut Client) -> Vec<u64> {
    let stats = JsonValue::parse(&ok_body(client.request(&Request::Stats).expect("transport")))
        .expect("stats body parses");
    stats
        .get("router")
        .and_then(|router| router.get("forwarded"))
        .and_then(JsonValue::as_array)
        .expect("router.forwarded")
        .iter()
        .map(|count| count.as_u64().expect("forwarded count"))
        .collect()
}
