//! `fleet-write`: two closed-loop clients through an in-process router
//! over two in-process daemons; every iteration uploads a fresh program
//! variant, runs it and analyzes it — the write path.

use crate::facts;
use crate::gen::{self, Variant, SIZE};
use crate::load::{self, ClientRun, Script};
use crate::oracle;
use crate::report::Outcome;
use crate::serving::{self, Counters};
use crate::stats::{geomean, median};
use dbt_lab::{
    adhoc_scenario, analyze_built, run_sweep, ExecOptions, LabDaemon, PlatformOverrides,
};
use dbt_riscv::Program;
use dbt_router::{serve_router, RouterConfig, RouterHandle};
use dbt_serve::{serve, LabBackend, Request, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client connections, one per CPU of the 2-CPU reference host.
const CLIENTS: usize = 2;
/// Daemons behind the router.
const BACKENDS: usize = 2;
/// Set-ups timed before and again after the measured window, so they
/// span its host-load phases; `setup_s` is the median of all of them.
const SETUP_REPEATS: usize = 5;
/// Sampled requests per client in the traced window: few enough that the
/// router's fixed 1024-span ring never evicts.
const TRACE_CAP: usize = 60;
const TRACED_SPAN_CAPACITY: usize = 1 << 16;

/// A running fleet.
struct Fleet {
    daemons: Vec<ServerHandle>,
    router: RouterHandle,
}

impl Fleet {
    fn start(config: &ServerConfig) -> Result<Fleet, String> {
        let mut daemons = Vec::with_capacity(BACKENDS);
        for _ in 0..BACKENDS {
            let backend: Arc<dyn LabBackend> = Arc::new(LabDaemon::with_threads(SIZE, 1));
            match serve("127.0.0.1:0", backend, config.clone()) {
                Ok(handle) => daemons.push(handle),
                Err(error) => {
                    stop_daemons(daemons);
                    return Err(format!("cannot serve: {error}"));
                }
            }
        }
        let addrs = daemons.iter().map(ServerHandle::addr).collect();
        match serve_router("127.0.0.1:0", addrs, RouterConfig::default()) {
            Ok(router) => Ok(Fleet { daemons, router }),
            Err(error) => {
                stop_daemons(daemons);
                Err(format!("cannot start the router: {error}"))
            }
        }
    }

    fn stop(self) {
        self.router.shutdown();
        self.router.wait();
        stop_daemons(self.daemons);
    }
}

fn stop_daemons(daemons: Vec<ServerHandle>) {
    for daemon in &daemons {
        daemon.shutdown();
    }
    for daemon in daemons {
        daemon.wait();
    }
}

/// The served bodies of one iteration, verified after the window.
struct Record {
    index: usize,
    run: Option<String>,
    analyze: Option<String>,
}

/// One client's iterations plus the oracle.
struct FleetScript<'a> {
    seed: u64,
    client: usize,
    bases: &'a [(&'static str, Program)],
    current: Option<Variant>,
    records: Vec<Record>,
    selective: BTreeMap<&'static str, f64>,
}

impl FleetScript<'_> {
    fn variant(&self) -> &Variant {
        self.current.as_ref().expect("request() generated the iteration's variant")
    }
}

impl Script for FleetScript<'_> {
    fn request(&mut self, seq: usize) -> Request {
        let (index, part) = (seq / 3, seq % 3);
        if part == 0 {
            self.current = Some(gen::fleet_variant(self.seed, self.client, index, self.bases));
            self.records.push(Record { index, run: None, analyze: None });
        }
        self.variant().requests().into_iter().nth(part).expect("an iteration has three requests")
    }

    fn check(&mut self, seq: usize, _request: &Request, body: &str) -> Option<usize> {
        match seq % 3 {
            0 => oracle::upload_matches(&self.variant().fp_ref(), body).then_some(0),
            1 => {
                if let Some((_, ratio)) = oracle::selective_ratio(body) {
                    self.selective.insert(self.variant().kernel, ratio);
                }
                self.records.last_mut()?.run = Some(body.to_string());
                Some(1)
            }
            _ => {
                self.records.last_mut()?.analyze = Some(body.to_string());
                Some(0)
            }
        }
    }
}

fn scripts<'a>(seed: u64, bases: &'a [(&'static str, Program)]) -> Vec<FleetScript<'a>> {
    (0..CLIENTS)
        .map(|client| FleetScript {
            seed,
            client,
            bases,
            current: None,
            records: Vec::new(),
            selective: BTreeMap::new(),
        })
        .collect()
}

/// Re-runs and re-analyzes every served variant in process and counts
/// the answers that differ; returns the number of bodies checked.
fn verify(
    scripts: &[FleetScript<'_>],
    seed: u64,
    bases: &[(&'static str, Program)],
) -> (usize, usize) {
    let work: Vec<(usize, &Record)> =
        scripts.iter().flat_map(|s| s.records.iter().map(move |r| (s.client, r))).collect();
    let check = |chunk: &[(usize, &Record)]| {
        let (mut checked, mut wrong) = (0, 0);
        for (client, record) in chunk {
            let variant = gen::fleet_variant(seed, *client, record.index, bases);
            let label = variant.fp_ref();
            if let Some(body) = &record.run {
                let scenario = adhoc_scenario(
                    &label,
                    Arc::new(variant.program.clone()),
                    variant.policy,
                    PlatformOverrides::default(),
                    None,
                );
                let opts = ExecOptions { threads: 1, verbose: false };
                let expected = run_sweep(&scenario.name.clone(), &[scenario], opts).to_json();
                checked += 1;
                wrong += usize::from(!oracle::body_matches(&expected, body));
            }
            if let Some(body) = &record.analyze {
                let expected = analyze_built(&label, &variant.program).map(|r| r.to_json());
                checked += 1;
                wrong += usize::from(!expected.is_ok_and(|e| oracle::body_matches(&e, body)));
            }
        }
        (checked, wrong)
    };
    let half = work.len().div_ceil(2);
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            work.chunks(half.max(1)).map(|chunk| scope.spawn(move || check(chunk))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier panicked"))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    })
}

/// Drives one window and verifies it; counts every request and every
/// content mismatch. Also returns the peak RSS of the window, read before
/// the in-process verification allocates.
fn window(
    outcome: &mut Outcome,
    fleet: &Fleet,
    seed: u64,
    bases: &[(&'static str, Program)],
    budget: Duration,
    traced: bool,
) -> (Vec<ClientRun>, Vec<f64>, f64) {
    let mut scripts = scripts(seed, bases);
    let cap = traced.then_some(TRACE_CAP);
    facts::start_peak_window();
    let runs = load::drive_all(fleet.router.addr(), &mut scripts, budget, cap, traced);
    let peak_mib = facts::peak_rss_mib();
    let (checked, wrong) = verify(&scripts, seed, bases);
    outcome.failed += wrong as u64;
    outcome.note(format!("verified {checked} run/analyze bodies in process: {wrong} wrong"));
    let selective = scripts.into_iter().flat_map(|s| s.selective.into_values()).collect();
    (runs, selective, peak_mib)
}

/// Runs the workload; `trace` adds the traced layer breakdown.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let bases = gen::fleet_bases();
    let mut outcome = Outcome::default();

    let mut setup = Vec::with_capacity(2 * SETUP_REPEATS);
    let mut timed_start = || -> Result<Fleet, String> {
        let started = Instant::now();
        let fleet = Fleet::start(&ServerConfig::default())?;
        setup.push(started.elapsed().as_secs_f64());
        Ok(fleet)
    };
    for _ in 1..SETUP_REPEATS {
        timed_start()?.stop();
    }
    let fleet = timed_start()?;

    let budget = Duration::from_secs(seconds);
    if !trace {
        let (runs, selective, peak_mib) = window(&mut outcome, &fleet, seed, &bases, budget, false);
        fleet.stop();
        outcome.set("peak_rss_mib", peak_mib);
        for _ in 0..SETUP_REPEATS {
            timed_start()?.stop();
        }
        outcome.set("setup_s", median(&setup));
        serving::end_to_end(&mut outcome, &runs);
        outcome.set("selective_slowdown_geomean", geomean(&selective));
        outcome.note(format!(
            "selective geo-mean over {} kernels run under selective",
            selective.len()
        ));
        return Ok(outcome);
    }

    // Traced run: an untraced half on the set-up fleet for the overhead
    // reference, then a fresh fleet whose sampled requests each have their
    // stitched router + daemon span tree fetched right after the answer.
    let (untraced, ..) = window(&mut outcome, &fleet, seed, &bases, budget / 2, false);
    fleet.stop();
    let config =
        ServerConfig { span_log_capacity: TRACED_SPAN_CAPACITY, ..ServerConfig::default() };
    let fleet = Fleet::start(&config)?;
    let addr = fleet.router.addr();
    let before = load::stats(addr).map(|s| Counters::of_fleet(&s));
    let (traced, ..) = window(&mut outcome, &fleet, seed, &bases, budget / 2, true);
    let after = load::stats(addr).map(|s| Counters::of_fleet(&s));
    fleet.stop();
    serving::traced(&mut outcome, &untraced, &traced, after.and_then(|a| Ok(a.since(&before?))));
    Ok(outcome)
}
