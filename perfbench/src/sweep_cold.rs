//! `sweep-cold`: what one `lab sweep --size small --threads 1` invocation
//! pays, in process, with no transport and no caches beyond the fresh
//! per-pass translation service.

use crate::facts;
use crate::gen::{self, SIZE};
use crate::oracle;
use crate::report::Outcome;
use crate::spans::{Tree, Work};
use crate::stats::{geomean, median, percentile, ratio};
use dbt_lab::{
    run_sweep_with, strip_stats, ExecOptions, JobOutcome, LabReport, Registry, Scenario,
    ScenarioKind, TranslationService,
};
use dbt_obs::{SpanRecorder, TraceClock, TraceHandle};
use ghostbusters::MitigationPolicy;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Executor threads per sweep, as `lab sweep --threads 1`. One, not one per
/// CPU: on a 2-CPU host, two executor threads share the CPUs with anything
/// else that runs, so each pass would time the scheduler as much as the
/// sweep.
const THREADS: usize = 1;
/// System starts timed before each pass; a start takes under a
/// millisecond, so one sample per pass would leave `setup_s` to timer and
/// scheduler noise.
const STARTS_PER_PASS: usize = 5;
/// Span ring of one traced pass: far above the ~3k spans a pass records.
const SPAN_CAPACITY: usize = 1 << 18;

/// The declared sweeps, in registry order, expanded to jobs.
type Plan = Vec<(String, Vec<Scenario>)>;

/// System start: declare the paper's sweeps and expand them to jobs.
fn start() -> Plan {
    let registry = Registry::standard(SIZE);
    registry.sweeps().iter().map(|sweep| (sweep.name.clone(), sweep.expand())).collect()
}

/// What one pass measured. Its reports are checked and dropped as soon as
/// it ends, so the benchmark holds no per-pass results.
struct Pass {
    seconds: f64,
    /// Per sweep, in plan order.
    sweep_seconds: Vec<f64>,
    jobs: usize,
    simulations: usize,
    translation_hits: u64,
    translation_queries: u64,
}

/// The first pass's stripped reports; later passes must match them byte
/// for byte.
struct Reference {
    stripped: Vec<String>,
    selective: Vec<f64>,
}

/// One pass: every sweep once, in a seeded order, on one translation
/// service; every job is then counted as an operation against the oracle.
fn run_pass(
    plan: &Plan,
    order: &[usize],
    service: &Arc<TranslationService>,
    trace: Option<(&Arc<SpanRecorder>, &str)>,
    outcome: &mut Outcome,
    reference: &mut Option<Reference>,
) -> Pass {
    let opts = ExecOptions { threads: THREADS, verbose: false };
    let started = Instant::now();
    let mut done: Vec<Option<(f64, LabReport)>> = plan.iter().map(|_| None).collect();
    for &index in order {
        let (name, scenarios) = &plan[index];
        let handle = trace.map(|(recorder, tag)| {
            TraceHandle::new(Arc::clone(recorder), &format!("{tag}/{name}"), "lab", "sweep")
        });
        let _scope = handle.as_ref().map(TraceHandle::enter);
        let sweep_started = Instant::now();
        let report = run_sweep_with(name, scenarios, opts, service);
        done[index] = Some((sweep_started.elapsed().as_secs_f64(), report));
    }
    let seconds = started.elapsed().as_secs_f64();
    let (sweep_seconds, reports): (Vec<f64>, Vec<LabReport>) =
        done.into_iter().map(|d| d.expect("the order covers every sweep")).unzip();
    check(outcome, &reports, reference);
    let hits: u64 = reports.iter().map(|r| r.stats.translation_hits).sum();
    let misses: u64 = reports.iter().map(|r| r.stats.translation_misses).sum();
    Pass {
        seconds,
        sweep_seconds,
        jobs: reports.iter().map(|r| r.results.len()).sum(),
        simulations: reports.iter().map(|r| r.stats.simulations).sum(),
        translation_hits: hits,
        translation_queries: hits + misses,
    }
}

/// Counts every job of a pass as an operation: it fails when its sweep's
/// report differs from the reference or when an attack row leaks.
fn check(outcome: &mut Outcome, reports: &[LabReport], reference: &mut Option<Reference>) {
    let stripped: Vec<String> = reports.iter().map(|r| strip_stats(&r.to_json())).collect();
    let reference = reference.get_or_insert_with(|| Reference {
        stripped: stripped.clone(),
        selective: selective_ratios(reports),
    });
    for ((report, bytes), expected) in reports.iter().zip(&stripped).zip(&reference.stripped) {
        let same = bytes == expected;
        for result in &report.results {
            outcome.count(same && oracle::attack_row_ok(result));
        }
    }
}

/// Selective ÷ unsafe cycles of every perf row of the headline sweep.
fn selective_ratios(reports: &[LabReport]) -> Vec<f64> {
    let report =
        reports.iter().find(|r| r.sweep == gen::HOT_RUN_SWEEP).expect("headline sweep ran");
    report
        .results
        .iter()
        .filter(|r| {
            r.scenario.kind == ScenarioKind::Perf
                && r.scenario.policy == MitigationPolicy::Selective
        })
        .filter_map(|r| match &r.outcome {
            JobOutcome::Perf(perf) => Some(perf.slowdown()),
            _ => None,
        })
        .collect()
}

/// Timed system starts before a pass; returns the last start's plan.
fn timed_starts(setup: &mut Vec<f64>) -> Plan {
    let mut plan = Plan::new();
    for _ in 0..STARTS_PER_PASS {
        let started = Instant::now();
        plan = start();
        setup.push(started.elapsed().as_secs_f64());
    }
    plan
}

/// Median over `passes` of `f`.
fn per(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Runs the workload; `trace` adds the traced layer breakdown.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    // The executor starts a worker thread for every sweep.
    facts::single_heap_arena();
    let mut outcome = Outcome::default();
    let budget = Duration::from_secs(seconds);
    let mut reference = None;
    let mut setup = Vec::new();
    let mut cold = Vec::new();
    let started = Instant::now();
    if !trace {
        // Cold passes until the budget has elapsed (at least one), each
        // preceded by timed system starts — together one `lab sweep`
        // invocation. Pass `n` takes the seed's `n`-th sweep order.
        facts::start_peak_window();
        while cold.is_empty() || started.elapsed() < budget {
            let plan = timed_starts(&mut setup);
            let order = gen::sweep_order(seed, cold.len(), plan.len());
            let service = TranslationService::new();
            cold.push(run_pass(&plan, &order, &service, None, &mut outcome, &mut reference));
        }
        outcome.set("peak_rss_mib", facts::peak_rss_mib());
        outcome.set("setup_s", median(&setup));
        let reference = reference.expect("at least one pass ran");
        // Everything from the median pass, so one pass slowed by a noisy
        // neighbour does not move it.
        let latencies: Vec<f64> = cold.iter().map(|p| p.seconds * 1e3).collect();
        let pass_s = median(&latencies) / 1e3;
        outcome.set("scenarios_per_s", cold[0].jobs as f64 / pass_s);
        outcome.set("selective_slowdown_geomean", geomean(&reference.selective));
        // Not named for this workload; the result line needs every metric,
        // non-zero, so the request here is one whole pass.
        outcome.set("rps", 1.0 / pass_s);
        outcome.set("latency_p50_ms", median(&latencies));
        outcome.set("latency_p95_ms", percentile(&latencies, 95.0));
        outcome.note(format!(
            "{} passes of {} scenarios, each in its own seeded sweep order, after {} timed \
             starts each; selective geo-mean over {} perf rows",
            cold.len(),
            cold[0].jobs,
            STARTS_PER_PASS,
            reference.selective.len()
        ));
        return outcome;
    }

    // Traced run, in rounds so all three kinds of pass share the host's
    // load phases: an untraced cold pass, a warm re-pass on the same
    // service (translation memo full, so execution-bound) — the translate
    // share, warm pass and sweep times come from these two — then a traced
    // cold pass on a fresh service for the span breakdown.
    let mut warm = Vec::new();
    let mut traced: Vec<(Pass, Work)> = Vec::new();
    let mut dropped = 0;
    while cold.is_empty() || started.elapsed() < budget {
        let plan = timed_starts(&mut setup);
        let order = gen::sweep_order(seed, cold.len(), plan.len());
        let service = TranslationService::new();
        cold.push(run_pass(&plan, &order, &service, None, &mut outcome, &mut reference));
        warm.push(run_pass(&plan, &order, &service, None, &mut outcome, &mut reference));

        let recorder = Arc::new(SpanRecorder::with_capacity(SPAN_CAPACITY, TraceClock::wall()));
        let service = TranslationService::new();
        let tagged = Some((&recorder, "cold"));
        let pass = run_pass(&plan, &order, &service, tagged, &mut outcome, &mut reference);
        let records: Vec<_> =
            plan.iter().flat_map(|(name, _)| recorder.spans_for(&format!("cold/{name}"))).collect();
        let work = Work::of(&Tree::from_records(&records, recorder.dropped()));
        // Spans and executor counters must agree, and nothing may drop.
        outcome.count(work.simulations == pass.simulations && recorder.dropped() == 0);
        dropped = dropped.max(recorder.dropped());
        traced.push((pass, work));
    }

    let spans =
        |f: &dyn Fn(&Work) -> f64| median(&traced.iter().map(|t| f(&t.1)).collect::<Vec<_>>());
    let jobs = traced[0].0.jobs as f64;
    outcome.set("dbt.analysis_s", spans(&|w| w.analysis_micros as f64 / 1e6));
    outcome.set("dbt.analysis_count", spans(&|w| w.analysis_count as f64));
    outcome.set("dbt.codegen_s", spans(&|w| w.codegen_micros as f64 / 1e6));
    outcome.set("dbt.codegen_count", spans(&|w| w.codegen_count as f64));
    outcome.set("dbt.analysis_ms", spans(&|w| w.analysis_micros as f64 / 1e3 / jobs));
    outcome.set("dbt.codegen_ms", spans(&|w| w.codegen_micros as f64 / 1e3 / jobs));
    outcome.set("platform.simulate_self_s", spans(&|w| w.simulate_self_micros as f64 / 1e6));
    outcome.set("platform.simulations", spans(&|w| w.simulations as f64));
    outcome.set("trace.dropped", dropped as f64);

    outcome.set(
        "dbt.translation_hit_rate",
        per(&cold, |p| ratio(p.translation_hits as f64, p.translation_queries as f64)),
    );
    outcome.set("dbt.translation_queries", per(&cold, |p| p.translation_queries as f64));
    let cold_s = per(&cold, |p| p.seconds);
    let warm_s = per(&warm, |p| p.seconds);
    outcome.set("dbt.translate_share", 1.0 - ratio(warm_s, cold_s));
    outcome.set("platform.warm_pass_s", warm_s);
    for (index, (_, metric)) in SWEEP_METRICS.iter().enumerate() {
        outcome.set(metric, per(&cold, |p| p.sweep_seconds[index]));
    }
    let traced_s = median(&traced.iter().map(|t| t.0.seconds).collect::<Vec<_>>());
    outcome.set("trace.overhead_ms", (traced_s - cold_s) * 1e3);
    outcome.set("trace.untraced_ops", cold.len() as f64);
    outcome.set("trace.traced_ops", traced.len() as f64);
    outcome.note(format!(
        "{} rounds of untraced cold pass, warm re-pass and traced cold pass: cold {:.1} ms, \
         warm {:.1} ms (translate share base: median untraced cold pass), traced {:.1} ms",
        cold.len(),
        cold_s * 1e3,
        warm_s * 1e3,
        traced_s * 1e3
    ));
    outcome
}

/// The `lab.sweep.<name>_s` metric of each declared sweep, in registry
/// order.
const SWEEP_METRICS: [(&str, &str); 6] = [
    ("figure4", "lab.sweep.figure4_s"),
    ("attack-table", "lab.sweep.attack-table_s"),
    ("ptr-matmul", "lab.sweep.ptr-matmul_s"),
    ("ablation", "lab.sweep.ablation_s"),
    ("issue-width", "lab.sweep.issue-width_s"),
    ("selective-vs-blanket", "lab.sweep.selective-vs-blanket_s"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_sweep_has_a_layer_metric() {
        let registry = Registry::standard(SIZE);
        let declared: Vec<&str> = registry.sweeps().iter().map(|s| s.name.as_str()).collect();
        let measured: Vec<&str> = SWEEP_METRICS.iter().map(|(name, _)| *name).collect();
        assert_eq!(declared, measured);
        for (name, metric) in SWEEP_METRICS {
            assert_eq!(metric, format!("lab.sweep.{name}_s"));
        }
    }
}
