//! Metrics shared by the two TCP workloads: end-to-end figures from the
//! client samples, per-layer figures from the fetched span trees and the
//! `stats` op.

use crate::load::{ClientRun, Sample};
use crate::report::Outcome;
use crate::spans::Work;
use crate::stats::{highest_supported_percentile, median, percentile, ratio};
use dbt_json::JsonValue;

/// Counts every request as an operation and sets `rps`, the latency
/// percentiles and `scenarios_per_s`. Latency covers `ok` answers; every
/// other answer is a failed operation.
pub fn end_to_end(outcome: &mut Outcome, runs: &[ClientRun]) {
    let samples: Vec<&Sample> = runs.iter().flat_map(|r| &r.samples).collect();
    for sample in &samples {
        outcome.count(sample.ok);
    }
    // A client that never connected sent nothing but still failed.
    for run in runs.iter().filter(|r| r.samples.is_empty()) {
        outcome.failed += run.errors;
        outcome.attempted += run.errors;
    }
    let wall = runs.iter().map(|r| r.seconds).fold(0.0, f64::max);
    let ok: Vec<f64> = samples.iter().filter(|s| s.ok).map(|s| s.rtt_ms).collect();
    let scenarios: usize = samples.iter().map(|s| s.scenarios).sum();
    outcome.set("rps", ratio(ok.len() as f64, wall));
    outcome.set("scenarios_per_s", ratio(scenarios as f64, wall));
    outcome.set("latency_p50_ms", median(&ok));
    outcome.set("latency_p95_ms", percentile(&ok, 95.0));
    let rule =
        highest_supported_percentile(ok.len()).map_or("none".to_string(), |p| format!("p{p}"));
    outcome.note(format!(
        "{} requests ({} ok) from {} clients in {wall:.3} s; latency over n = {} ok round trips \
         (highest percentile with >= 10 beyond: {rule})",
        samples.len(),
        ok.len(),
        runs.len(),
        ok.len()
    ));
}

/// Sets the `serve`, `json`, `dbt`, `platform.simulat*`, `spectaint`
/// and `trace.dropped` metrics from the traced samples. A sampled request
/// without a complete tree, or whose recorder dropped spans, is a failed
/// operation.
fn per_layer(outcome: &mut Outcome, runs: &[ClientRun]) {
    let samples: Vec<&Sample> = runs.iter().flat_map(|r| &r.samples).collect();
    let mut rtt = Vec::new();
    let mut request = Vec::new();
    let mut transport = Vec::new();
    let mut decode = Vec::new();
    let mut queue_wait = Vec::new();
    let mut encode = Vec::new();
    let mut simulate = Vec::new();
    let mut codec = Vec::new();
    let mut analyze = Vec::new();
    let mut run_analysis = Vec::new();
    let mut run_codegen = Vec::new();
    let mut hop = Vec::new();
    let mut relay = Vec::new();
    let mut upload = Vec::new();
    let mut total = Work::default();
    let mut request_micros = 0u64;
    let mut dropped = 0u64;
    for sample in &samples {
        let tree = sample.tree.as_ref();
        let d_request = tree.and_then(|t| t.micros_of("d:request"));
        // The rings are sized so nothing can be evicted: a drop is a fault.
        outcome.count(d_request.is_some() && tree.is_some_and(|t| t.dropped == 0));
        let (Some(tree), Some(d_request)) = (tree, d_request) else { continue };
        let ms = |id: &str| tree.micros_of(id).unwrap_or(0) as f64 / 1e3;
        let work = Work::of(tree);
        dropped = dropped.max(tree.dropped);
        rtt.push(sample.rtt_ms);
        request.push(d_request as f64 / 1e3);
        transport.push(sample.rtt_ms - d_request as f64 / 1e3);
        decode.push(ms("d:decode"));
        queue_wait.push(ms("d:queue-wait"));
        encode.push(ms("d:encode"));
        if work.simulations > 0 {
            simulate.push(work.simulate_micros as f64 / 1e3);
        }
        codec.push(sample.codec_us);
        match sample.op {
            "analyze" => analyze.push(d_request as f64 / 1e3),
            "run" => {
                run_analysis.push(work.analysis_micros as f64 / 1e3);
                run_codegen.push(work.codegen_micros as f64 / 1e3);
            }
            "upload" => upload.push(sample.rtt_ms),
            _ => {}
        }
        if let Some(root) = tree.micros_of("r:request") {
            hop.push((root as f64 - d_request as f64) / 1e3);
            relay.push(ms("r:relay"));
        }
        request_micros += d_request;
        total.analysis_count += work.analysis_count;
        total.analysis_micros += work.analysis_micros;
        total.codegen_count += work.codegen_count;
        total.codegen_micros += work.codegen_micros;
        total.simulations += work.simulations;
        total.simulate_self_micros += work.simulate_self_micros;
    }
    let n = rtt.len().max(1) as f64;
    outcome.set("serve.rtt_ms", median(&rtt));
    outcome.set("serve.request_ms", median(&request));
    outcome.set("serve.transport_ms", median(&transport));
    outcome.set("serve.decode_ms", median(&decode));
    outcome.set("serve.queue_wait_ms", median(&queue_wait));
    outcome.set("serve.simulate_ms", median(&simulate));
    outcome.set("serve.encode_ms", median(&encode));
    outcome.set("serve.busy", runs.iter().map(|r| r.busy).sum::<u64>() as f64);
    outcome.set("serve.errors", runs.iter().map(|r| r.errors).sum::<u64>() as f64);
    outcome.set("serve.samples", rtt.len() as f64);
    outcome.set("json.codec_us", median(&codec));
    outcome.set("dbt.analysis_s", total.analysis_micros as f64 / 1e6 / n);
    outcome.set("dbt.analysis_count", total.analysis_count as f64 / n);
    outcome.set("dbt.codegen_s", total.codegen_micros as f64 / 1e6 / n);
    outcome.set("dbt.codegen_count", total.codegen_count as f64 / n);
    outcome.set("dbt.analysis_ms", median(&run_analysis));
    outcome.set("dbt.codegen_ms", median(&run_codegen));
    outcome.set(
        "dbt.translate_share",
        ratio((total.analysis_micros + total.codegen_micros) as f64, request_micros as f64),
    );
    outcome.set("platform.simulate_self_s", total.simulate_self_micros as f64 / 1e6 / n);
    outcome.set("platform.simulations", total.simulations as f64 / n);
    outcome.set("spectaint.analyze_ms", median(&analyze));
    outcome.set("router.hop_ms", median(&hop));
    outcome.set("router.relay_ms", median(&relay));
    outcome.set("router.upload_ms", median(&upload));
    outcome.set("trace.dropped", dropped as f64);
    outcome.note(format!(
        "traced: {} sampled requests ({} run, {} analyze, {} upload); dbt.*_s/_count and \
         platform.simulat* are per sampled request; translate share base = summed d:request",
        rtt.len(),
        run_analysis.len(),
        analyze.len(),
        upload.len()
    ));
}

/// Median round trip of the `ok` answers in `runs`, ms.
fn median_rtt(runs: &[ClientRun]) -> f64 {
    let ok: Vec<f64> =
        runs.iter().flat_map(|r| &r.samples).filter(|s| s.ok).map(|s| s.rtt_ms).collect();
    median(&ok)
}

/// The report of a traced run from its two halves: every request of both
/// counted against the oracle, the layer metrics of the traced half, the
/// `stats` counter deltas across it, and the tracing overhead (median
/// traced minus median untraced round trip).
pub fn traced(
    outcome: &mut Outcome,
    untraced: &[ClientRun],
    traced: &[ClientRun],
    counters: Result<Counters, String>,
) {
    for sample in untraced.iter().chain(traced).flat_map(|r| &r.samples) {
        outcome.count(sample.ok);
    }
    per_layer(outcome, traced);
    match counters {
        Ok(delta) => delta.set_metrics(outcome),
        Err(_) => outcome.count(false),
    }
    outcome.set("trace.overhead_ms", median_rtt(traced) - median_rtt(untraced));
    let ops = |runs: &[ClientRun]| runs.iter().map(|r| r.samples.len()).sum::<usize>() as f64;
    outcome.set("trace.untraced_ops", ops(untraced));
    outcome.set("trace.traced_ops", ops(traced));
}

/// Cache and router counters read through the `stats` op.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub translation_hits: u64,
    pub translation_misses: u64,
    pub uploads: u64,
    pub forwarded: Vec<u64>,
    pub failovers: u64,
    pub replications: u64,
}

fn number(value: &JsonValue, path: &[&str]) -> u64 {
    path.iter().try_fold(value, |v, key| v.get(key)).and_then(JsonValue::as_u64).unwrap_or(0)
}

impl Counters {
    /// Counters of one daemon's `stats` body (`{"server", "lab"}`).
    pub fn of_daemon(body: &JsonValue) -> Counters {
        Counters {
            memo_hits: number(body, &["lab", "run_memo", "hits"]),
            memo_misses: number(body, &["lab", "run_memo", "misses"]),
            translation_hits: number(body, &["lab", "translation", "hits"]),
            translation_misses: number(body, &["lab", "translation", "misses"]),
            uploads: number(body, &["lab", "store", "uploads"]),
            ..Counters::default()
        }
    }

    /// Counters of a router's fleet `stats` body (`{"router", "backends"}`),
    /// summed over backends.
    pub fn of_fleet(body: &JsonValue) -> Counters {
        let mut counters = Counters::default();
        for backend in body.get("backends").and_then(JsonValue::as_array).unwrap_or(&[]) {
            let one = Counters::of_daemon(backend);
            counters.memo_hits += one.memo_hits;
            counters.memo_misses += one.memo_misses;
            counters.translation_hits += one.translation_hits;
            counters.translation_misses += one.translation_misses;
            counters.uploads += one.uploads;
        }
        let router = body.get("router");
        counters.forwarded = router
            .and_then(|r| r.get("forwarded"))
            .and_then(JsonValue::as_array)
            .map(|a| a.iter().filter_map(JsonValue::as_u64).collect())
            .unwrap_or_default();
        counters.failovers = router.map_or(0, |r| number(r, &["failovers"]));
        counters.replications = router.map_or(0, |r| number(r, &["replications"]));
        counters
    }

    /// `self − before`, counter by counter.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            memo_hits: self.memo_hits - before.memo_hits,
            memo_misses: self.memo_misses - before.memo_misses,
            translation_hits: self.translation_hits - before.translation_hits,
            translation_misses: self.translation_misses - before.translation_misses,
            uploads: self.uploads - before.uploads,
            forwarded: self
                .forwarded
                .iter()
                .zip(before.forwarded.iter().chain(std::iter::repeat(&0)))
                .map(|(after, before)| after - before)
                .collect(),
            failovers: self.failovers - before.failovers,
            replications: self.replications - before.replications,
        }
    }

    /// Sets the memo, translation, store and router counter metrics from
    /// a traced window's delta; a failover in a healthy fleet is a failed
    /// operation.
    pub fn set_metrics(&self, outcome: &mut Outcome) {
        outcome.count(self.failovers == 0);
        let lookups = (self.memo_hits + self.memo_misses) as f64;
        outcome.set("platform.memo_lookups", lookups);
        outcome.set("platform.memo_hit_rate", ratio(self.memo_hits as f64, lookups));
        outcome.set("platform.memo_miss_rate", ratio(self.memo_misses as f64, lookups));
        outcome.set("platform.store_uploads", self.uploads as f64);
        let queries = (self.translation_hits + self.translation_misses) as f64;
        outcome.set("dbt.translation_queries", queries);
        outcome.set("dbt.translation_hit_rate", ratio(self.translation_hits as f64, queries));
        outcome.set("router.replications", self.replications as f64);
        outcome.set("router.failovers", self.failovers as f64);
        let max = self.forwarded.iter().copied().max().unwrap_or(0);
        let min = self.forwarded.iter().copied().min().unwrap_or(0);
        outcome.set(
            "router.shard_skew",
            if self.forwarded.is_empty() { 0.0 } else { max as f64 / min.max(1) as f64 },
        );
        outcome.note(format!(
            "traced window counters: memo {} hits / {lookups} lookups, translation {} hits / \
             {queries} queries, {} store uploads, forwarded {:?}, {} replications, {} failovers",
            self.memo_hits,
            self.translation_hits,
            self.uploads,
            self.forwarded,
            self.replications,
            self.failovers
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_counters_sum_backends_and_subtract() {
        let daemon = r#"{"server": {"requests": 3}, "lab": {"run_memo": {"hits": 5, "misses": 2},
            "translation": {"hits": 7, "misses": 1}, "store": {"uploads": 4}}}"#;
        let fleet = format!(
            "{{\"router\": {{\"forwarded\": [6, 3], \"failovers\": 0, \"replications\": 4}}, \
             \"backends\": [{daemon}, {daemon}]}}"
        );
        let after = Counters::of_fleet(&JsonValue::parse(&fleet).unwrap());
        assert_eq!((after.memo_hits, after.memo_misses, after.uploads), (10, 4, 8));
        assert_eq!(after.forwarded, vec![6, 3]);
        let before = Counters { memo_hits: 1, forwarded: vec![1, 1], ..Counters::default() };
        let delta = after.since(&before);
        assert_eq!(delta.memo_hits, 9);
        assert_eq!(delta.forwarded, vec![5, 2]);
    }
}
