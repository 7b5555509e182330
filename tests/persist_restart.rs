//! End-to-end tests of the durable cache tier (`dbt-persist`) under the
//! real daemon over real TCP: a restarted daemon on a warm cache dir
//! answers byte-identically without simulating, two daemons sharing one
//! directory never corrupt each other, and corrupted or incompatible
//! cache contents are quarantined and recomputed — never surfaced as
//! request errors.

use dbt_lab::{strip_stats, LabDaemon};
use dbt_serve::{serve, Client, JsonValue, Request, Response, ServerConfig, ServerHandle};
use dbt_workloads::WorkloadSize;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh, empty cache root per test.
fn fresh_dir(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "dbt-persist-restart-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = fs::remove_dir_all(&root);
    root
}

/// Starts a daemon over `dir` on an ephemeral port.
fn start_cached(dir: &Path) -> ServerHandle {
    let dir = dir.display().to_string();
    let daemon = LabDaemon::with_cache_dir(WorkloadSize::Mini, 1, Some(&dir))
        .expect("a writable cache dir must open");
    let config = ServerConfig {
        workers: 2,
        queue_depth: 16,
        cache_dir: Some(dir),
        ..ServerConfig::default()
    };
    serve("127.0.0.1:0", Arc::new(daemon), config).expect("ephemeral port must bind")
}

fn ok_body(response: Response) -> String {
    match response {
        Response::Ok { body, .. } => body,
        other => panic!("expected ok, got {other:?}"),
    }
}

/// The request list every test drives: two distinct runs and a sweep, so
/// the run memo, the translation service and the analysis verdicts all
/// exercise the durable tier.
fn mix() -> Vec<Request> {
    vec![
        Request::Run { scenario: "figure4/gemm/our-approach/default".to_string() },
        Request::Run { scenario: "figure4/atax/fence/default".to_string() },
        Request::Sweep { name: "ptr-matmul".to_string(), threads: 1 },
    ]
}

/// Asks `addr` every mix request once, returning the raw bodies.
fn drive_mix(addr: std::net::SocketAddr) -> Vec<String> {
    let mut client = Client::connect(addr).expect("connect");
    mix().iter().map(|request| ok_body(client.request(request).expect("transport"))).collect()
}

/// The `lab.persist.<member>` counter out of a daemon's `stats` body.
fn persist_stat(addr: std::net::SocketAddr, member: &str) -> u64 {
    let mut client = Client::connect(addr).expect("connect");
    let stats = JsonValue::parse(&ok_body(client.request(&Request::Stats).expect("transport")))
        .expect("stats body parses");
    stats
        .get("lab")
        .and_then(|lab| lab.get("persist"))
        .and_then(|persist| persist.get(member))
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("stats lacks lab.persist.{member}: {stats}"))
}

fn shutdown(handle: ServerHandle) {
    let mut client = Client::connect(handle.addr()).expect("connect");
    ok_body(client.request(&Request::Shutdown).expect("transport"));
    handle.wait();
}

/// Every published entry file under `objects/`, sorted for determinism.
fn entry_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for shard in fs::read_dir(dir.join("objects")).expect("objects dir exists") {
        let shard = shard.expect("readable shard").path();
        if shard.is_dir() {
            for file in fs::read_dir(&shard).expect("readable shard dir") {
                let file = file.expect("readable entry").path();
                if file.is_file() {
                    files.push(file);
                }
            }
        }
    }
    files.sort();
    files
}

#[test]
fn restarted_daemon_on_a_warm_dir_matches_the_cold_daemon_byte_for_byte() {
    let dir = fresh_dir("warm");
    let cold_handle = start_cached(&dir);
    let cold = drive_mix(cold_handle.addr());
    assert!(persist_stat(cold_handle.addr(), "misses") > 0, "a fresh dir answers nothing");
    assert!(persist_stat(cold_handle.addr(), "writes") > 0, "cold runs publish entries");
    shutdown(cold_handle);

    let warm_handle = start_cached(&dir);
    let warm = drive_mix(warm_handle.addr());
    for (cold_body, warm_body) in cold.iter().zip(&warm) {
        assert_eq!(
            strip_stats(cold_body),
            strip_stats(warm_body),
            "a warm restart must answer byte-identically outside `stats`"
        );
        assert!(
            warm_body.contains("\"simulations\": 0"),
            "a warm restart must never simulate: {warm_body}"
        );
    }
    assert_eq!(
        persist_stat(warm_handle.addr(), "misses"),
        0,
        "every warm lookup must be answered from disk"
    );
    assert!(persist_stat(warm_handle.addr(), "hits") > 0);
    shutdown(warm_handle);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn two_daemons_sharing_one_cache_dir_never_corrupt_each_other() {
    let dir = fresh_dir("shared");
    // Both daemons race cold over the same directory: every publish of
    // every entry happens from both sides, concurrently, onto the same
    // paths. Atomic rename is the only publish point, so readers on
    // either side may see the entry or miss it — never a torn file.
    let a = start_cached(&dir);
    let b = start_cached(&dir);
    let (addr_a, addr_b) = (a.addr(), b.addr());
    let bodies: Vec<Vec<String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|i| {
                let addr = if i % 2 == 0 { addr_a } else { addr_b };
                scope.spawn(move || drive_mix(addr))
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect()
    });
    let reference: Vec<String> = bodies[0].iter().map(|body| strip_stats(body)).collect();
    for client_bodies in &bodies {
        let stripped: Vec<String> = client_bodies.iter().map(|body| strip_stats(body)).collect();
        assert_eq!(stripped, reference, "both daemons must answer identically");
    }
    for addr in [addr_a, addr_b] {
        assert_eq!(
            persist_stat(addr, "corrupt_quarantined"),
            0,
            "concurrent same-key publishes must never produce a torn entry"
        );
    }
    shutdown(a);
    shutdown(b);

    // A third daemon inherits the directory the two raced over cleanly.
    let c = start_cached(&dir);
    let warm = drive_mix(c.addr());
    for (warm_body, reference_body) in warm.iter().zip(&reference) {
        assert_eq!(&strip_stats(warm_body), reference_body);
        assert!(warm_body.contains("\"simulations\": 0"), "{warm_body}");
    }
    assert_eq!(persist_stat(c.addr(), "misses"), 0);
    shutdown(c);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entries_are_quarantined_and_recomputed_not_errors() {
    let dir = fresh_dir("corrupt");
    let cold_handle = start_cached(&dir);
    let cold = drive_mix(cold_handle.addr());
    shutdown(cold_handle);

    // Sabotage two published entries the warm daemon will read: truncate
    // one mid-payload and flip a bit in another. Both frauds are caught
    // by the length/checksum framing. Run summaries are what it reads —
    // with every run answered from disk it never translates, so it never
    // asks for a verdict.
    let files: Vec<PathBuf> = entry_files(&dir)
        .into_iter()
        .filter(|file| {
            file.file_name().is_some_and(|name| name.to_string_lossy().starts_with("run-"))
        })
        .collect();
    assert!(files.len() >= 2, "the mix must publish at least two entries: {files:?}");
    let truncated = fs::read(&files[0]).expect("readable entry");
    fs::write(&files[0], &truncated[..truncated.len() / 2]).expect("truncate entry");
    let mut flipped = fs::read(&files[1]).expect("readable entry");
    let middle = flipped.len() / 2;
    flipped[middle] ^= 0x40;
    fs::write(&files[1], &flipped).expect("bit-flip entry");

    let warm_handle = start_cached(&dir);
    let warm = drive_mix(warm_handle.addr());
    for (cold_body, warm_body) in cold.iter().zip(&warm) {
        assert_eq!(
            strip_stats(cold_body),
            strip_stats(warm_body),
            "corruption must be invisible in the answers"
        );
    }
    assert_eq!(
        persist_stat(warm_handle.addr(), "corrupt_quarantined"),
        2,
        "both sabotaged entries must be quarantined"
    );
    // The quarantines surface in the daemon's own event log, interleaved
    // with the server lifecycle events in the one `logs` stream.
    let mut client = Client::connect(warm_handle.addr()).expect("connect");
    let logs =
        ok_body(client.request(&Request::Logs { level: Some("warn".to_string()) }).expect("logs"));
    assert!(logs.contains("corrupt entry quarantined"), "{logs}");
    shutdown(warm_handle);

    // The recomputed entries were re-published: a third daemon is fully
    // warm again.
    let third = start_cached(&dir);
    let again = drive_mix(third.addr());
    for body in &again {
        assert!(body.contains("\"simulations\": 0"), "{body}");
    }
    assert_eq!(persist_stat(third.addr(), "corrupt_quarantined"), 0);
    shutdown(third);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_incompatible_manifest_is_quarantined_wholesale_never_read() {
    let dir = fresh_dir("manifest");
    let cold_handle = start_cached(&dir);
    let cold = drive_mix(cold_handle.addr());
    shutdown(cold_handle);

    // A manifest from some other schema: the entries under it — however
    // well-formed — must be ignored wholesale and the daemon must start
    // cold, not crash and not read a single stale byte.
    fs::write(dir.join("manifest.json"), "{\"schema\": \"dbt-persist/entry/v999\"}\n")
        .expect("plant foreign manifest");

    let reset_handle = start_cached(&dir);
    let reset = drive_mix(reset_handle.addr());
    for (cold_body, reset_body) in cold.iter().zip(&reset) {
        assert_eq!(
            strip_stats(cold_body),
            strip_stats(reset_body),
            "a wholesale reset recomputes the same answers"
        );
    }
    assert_eq!(
        persist_stat(reset_handle.addr(), "hits"),
        0,
        "nothing under an incompatible manifest may be read"
    );
    assert!(
        persist_stat(reset_handle.addr(), "quarantined") > 0,
        "the incompatible cache is preserved under corrupt/ for forensics"
    );
    // The daemon logged the reset.
    let mut client = Client::connect(reset_handle.addr()).expect("connect");
    let logs =
        ok_body(client.request(&Request::Logs { level: Some("warn".to_string()) }).expect("logs"));
    assert!(logs.contains("incompatible cache"), "{logs}");
    shutdown(reset_handle);
    let _ = fs::remove_dir_all(&dir);
}
