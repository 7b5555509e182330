//! `serve-hot`: two closed-loop clients against one in-process daemon over
//! loopback, every request warmed during set-up — the read path.

use crate::facts;
use crate::gen::{self, HotStream, SIZE};
use crate::load::{self, Script};
use crate::oracle;
use crate::report::Outcome;
use crate::serving::{self, Counters};
use crate::stats::{geomean, median};
use dbt_lab::{
    analyze_program, run_sweep_with, ExecOptions, LabDaemon, Registry, TranslationService,
};
use dbt_serve::{serve, LabBackend, Request, ServerConfig, ServerHandle};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client connections, one per CPU of the 2-CPU reference host.
const CLIENTS: usize = 2;
/// Set-ups timed before and again after the measured window, so they
/// span its host-load phases; `setup_s` is the median of all of them.
const SETUP_REPEATS: usize = 3;
/// Sampled requests per client in the traced window: few enough that the
/// daemon's span ring (sized by [`TRACED_SPAN_CAPACITY`]) never evicts.
const TRACE_CAP: usize = 150;
const TRACED_SPAN_CAPACITY: usize = 1 << 16;

/// Expected answer of one request: the stripped in-process report and
/// the scenario results it carries.
type Expected = HashMap<String, (String, usize)>;

/// The in-process reports of every request in the mix, computed through
/// `dbt_lab` directly (never through the daemon).
fn references(registry: &Registry, round: &[Request]) -> Result<Expected, String> {
    let service = TranslationService::new();
    let mut expected = Expected::new();
    for request in round {
        let key = request.encode();
        if expected.contains_key(&key) {
            continue;
        }
        let answer = match request {
            Request::Run { scenario } => {
                let found =
                    registry.find_scenario(scenario).ok_or(format!("no scenario {scenario}"))?;
                let opts = ExecOptions { threads: 1, verbose: false };
                (run_sweep_with(scenario, &[found], opts, &service).to_json(), 1)
            }
            Request::Sweep { name, .. } => {
                let sweep = registry.find(name).ok_or(format!("no sweep {name}"))?;
                let opts = ExecOptions { threads: 2, verbose: false };
                (run_sweep_with(name, &sweep.expand(), opts, &service).to_json(), sweep.job_count())
            }
            Request::Analyze { program } => (analyze_program(program, SIZE)?.to_json(), 0),
            other => return Err(format!("unexpected request in the mix: {other:?}")),
        };
        expected.insert(key, answer);
    }
    Ok(expected)
}

/// Starts a daemon and warms every request of the mix through the
/// backend's own API, so the timed requests hit the run memo.
fn start(round: &[Request], config: ServerConfig) -> Result<ServerHandle, String> {
    let daemon = Arc::new(LabDaemon::with_threads(SIZE, 2));
    let backend: Arc<dyn LabBackend> = daemon.clone();
    let server = serve("127.0.0.1:0", backend, config).map_err(|e| format!("cannot serve: {e}"))?;
    let mut warmed = std::collections::HashSet::new();
    for request in round {
        if !warmed.insert(request.encode()) {
            continue;
        }
        let warm = match request {
            Request::Run { scenario } => daemon.run_scenario(scenario),
            Request::Sweep { name, threads } => daemon.sweep(name, *threads),
            Request::Analyze { program } => daemon.analyze(program),
            other => Err(format!("unexpected request in the mix: {other:?}")),
        };
        if let Err(error) = warm {
            stop(server);
            return Err(error);
        }
    }
    Ok(server)
}

fn stop(server: ServerHandle) {
    server.shutdown();
    server.wait();
}

/// One client's stream plus the oracle.
struct HotScript<'a> {
    stream: HotStream,
    expected: &'a Expected,
    selective: BTreeMap<String, f64>,
}

impl Script for HotScript<'_> {
    fn request(&mut self, _seq: usize) -> Request {
        self.stream.next().expect("the stream is endless")
    }

    fn check(&mut self, _seq: usize, request: &Request, body: &str) -> Option<usize> {
        let (expected, scenarios) = self.expected.get(&request.encode())?;
        if !oracle::body_matches(expected, body) {
            return None;
        }
        if let Some((program, ratio)) = oracle::selective_ratio(body) {
            self.selective.insert(program, ratio);
        }
        Some(*scenarios)
    }
}

fn scripts<'a>(seed: u64, registry: &Registry, expected: &'a Expected) -> Vec<HotScript<'a>> {
    (0..CLIENTS)
        .map(|client| HotScript {
            stream: HotStream::new(seed, client, registry),
            expected,
            selective: BTreeMap::new(),
        })
        .collect()
}

/// Runs the workload; `trace` adds the traced layer breakdown.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let registry = Registry::standard(SIZE);
    let round = gen::hot_round(&registry);
    let expected = references(&registry, &round)?;
    let mut outcome = Outcome::default();

    let mut setup = Vec::with_capacity(2 * SETUP_REPEATS);
    let mut timed_start = || -> Result<ServerHandle, String> {
        let started = Instant::now();
        let server = start(&round, ServerConfig::default())?;
        setup.push(started.elapsed().as_secs_f64());
        Ok(server)
    };
    for _ in 1..SETUP_REPEATS {
        stop(timed_start()?);
    }
    let server = timed_start()?;

    let budget = Duration::from_secs(seconds);
    let addr = server.addr();
    if !trace {
        let mut scripts = scripts(seed, &registry, &expected);
        facts::start_peak_window();
        let runs = load::drive_all(addr, &mut scripts, budget, None, false);
        outcome.set("peak_rss_mib", facts::peak_rss_mib());
        stop(server);
        for _ in 0..SETUP_REPEATS {
            stop(timed_start()?);
        }
        outcome.set("setup_s", median(&setup));
        serving::end_to_end(&mut outcome, &runs);
        let mut selective = BTreeMap::new();
        for script in scripts {
            selective.extend(script.selective);
        }
        let ratios: Vec<f64> = selective.values().copied().collect();
        outcome.set("selective_slowdown_geomean", geomean(&ratios));
        outcome.note(format!("selective geo-mean over {} served perf rows", ratios.len()));
        return Ok(outcome);
    }

    // Traced run: an untraced half on the set-up daemon for the overhead
    // reference, then a fresh daemon whose sampled requests each have their
    // span tree fetched right after the answer.
    let untraced =
        load::drive_all(addr, &mut scripts(seed, &registry, &expected), budget / 2, None, false);
    stop(server);
    let config =
        ServerConfig { span_log_capacity: TRACED_SPAN_CAPACITY, ..ServerConfig::default() };
    let server = start(&round, config)?;
    let addr = server.addr();
    let before = load::stats(addr).map(|s| Counters::of_daemon(&s));
    let traced = load::drive_all(
        addr,
        &mut scripts(seed, &registry, &expected),
        budget / 2,
        Some(TRACE_CAP),
        true,
    );
    let after = load::stats(addr).map(|s| Counters::of_daemon(&s));
    stop(server);
    serving::traced(&mut outcome, &untraced, &traced, after.and_then(|a| Ok(a.since(&before?))));
    Ok(outcome)
}
