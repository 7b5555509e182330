//! Output oracles: every answer the benchmark times is also checked, and
//! a wrong one counts as a failed operation.

use dbt_json::JsonValue;
use dbt_lab::{strip_stats, JobOutcome, JobResult};
use ghostbusters::MitigationPolicy;

/// An attack row must show the unprotected run recovering the whole secret
/// and every countermeasure recovering no byte at all; a failed job is
/// always wrong. Perf rows pass.
pub fn attack_row_ok(result: &JobResult) -> bool {
    match &result.outcome {
        JobOutcome::Failed { .. } => false,
        JobOutcome::Perf(_) => true,
        JobOutcome::Attack(attack) => {
            if result.scenario.policy == MitigationPolicy::Unprotected {
                !attack.secret.is_empty() && attack.correct_bytes() == attack.secret.len()
            } else {
                attack.correct_bytes() == 0
            }
        }
    }
}

/// A served report body equals the in-process one once the
/// warmth-dependent `stats` block is cut from both.
pub fn body_matches(expected: &str, body: &str) -> bool {
    strip_stats(expected) == strip_stats(body)
}

/// The `fingerprint` member of an `upload` answer equals the locally
/// computed `fp:<hex>` ref.
pub fn upload_matches(fp_ref: &str, body: &str) -> bool {
    JsonValue::parse(body)
        .ok()
        .and_then(|v| v.get("fingerprint").and_then(JsonValue::as_str).map(|f| f == fp_ref))
        .unwrap_or(false)
}

/// `(program, cycles ÷ baseline cycles)` of a one-job report whose job is
/// a perf row under the Selective policy.
pub fn selective_ratio(body: &str) -> Option<(String, f64)> {
    let value = JsonValue::parse(body).ok()?;
    let job = value.get("jobs")?.as_array()?.first()?;
    let text = |key: &str| job.get(key).and_then(JsonValue::as_str);
    if text("kind")? != "perf" || text("policy")? != MitigationPolicy::Selective.label() {
        return None;
    }
    let cycles = job.get("cycles")?.as_f64()?;
    let baseline = job.get("baseline_cycles")?.as_f64()?;
    let program = text("program")?.to_string();
    (baseline > 0.0).then_some((program, cycles / baseline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbt_lab::{run_sweep, ExecOptions, Registry};
    use dbt_workloads::WorkloadSize;

    #[test]
    fn the_attack_table_passes_and_a_leaked_byte_fails() {
        let registry = Registry::standard(WorkloadSize::Mini);
        let sweep = registry.find("attack-table").unwrap();
        let report = run_sweep(&sweep.name, &sweep.expand(), ExecOptions::default());
        assert!(report.results.iter().all(attack_row_ok));

        let mut leaked = report
            .results
            .iter()
            .find(|r| r.scenario.policy == MitigationPolicy::Selective)
            .unwrap()
            .clone();
        let JobOutcome::Attack(attack) = &mut leaked.outcome else { panic!("attack row") };
        attack.recovered[0] = attack.secret[0];
        assert!(!attack_row_ok(&leaked), "one recovered byte under a countermeasure is a failure");

        let mut blocked = report
            .results
            .iter()
            .find(|r| r.scenario.policy == MitigationPolicy::Unprotected)
            .unwrap()
            .clone();
        let JobOutcome::Attack(attack) = &mut blocked.outcome else { panic!("attack row") };
        attack.recovered[3] ^= 0xff;
        assert!(!attack_row_ok(&blocked), "the unprotected run must recover every byte");
    }

    #[test]
    fn a_tampered_body_fails_and_the_stats_block_is_ignored() {
        let registry = Registry::standard(WorkloadSize::Mini);
        let scenario = registry.find_scenario("ptr-matmul/gemm (flat)/selective/default").unwrap();
        let report = run_sweep(&scenario.name.clone(), &[scenario], ExecOptions::default());
        let expected = report.to_json();
        let restat = expected.replace("\"simulations\": 2", "\"simulations\": 0");
        assert_ne!(restat, expected);
        assert!(body_matches(&expected, &restat), "stats are warmth-dependent");
        let tampered = expected.replacen("\"cycles\": ", "\"cycles\": 1", 1);
        assert!(!body_matches(&expected, &tampered));
        let (program, ratio) = selective_ratio(&expected).unwrap();
        assert_eq!(program, "gemm (flat)");
        assert!(ratio >= 1.0);
    }

    #[test]
    fn upload_answers_must_name_the_local_fingerprint() {
        let body = "{\"fingerprint\": \"fp:00000000000000ab\", \"dedup\": false, \"programs\": 18}";
        assert!(upload_matches("fp:00000000000000ab", body));
        assert!(!upload_matches("fp:00000000000000ac", body));
        assert!(!upload_matches("fp:00000000000000ab", "{}"));
    }
}
