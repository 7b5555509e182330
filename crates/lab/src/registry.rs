//! Sweep declarations and the registry of the paper's experiments.
//!
//! A [`Sweep`] is a cartesian product — programs × policies × platform
//! variants — that [`Sweep::expand`] turns into concrete [`Scenario`] jobs.
//! [`Registry::standard`] declares every experiment of the paper's
//! evaluation; `lab sweep <name> --size small` regenerates any of them.

use crate::scenario::{
    AttackVariant, PlatformOverrides, PlatformVariant, ProgramSpec, Scenario, ScenarioKind,
};
use dbt_workloads::{suite, WorkloadSize};
use ghostbusters::MitigationPolicy;

/// The secret planted in the attack proof-of-concepts, as in the paper's
/// artifact.
pub const DEFAULT_SECRET: &[u8] = b"GhostBusters";

/// One entry on a sweep's program axis.
#[derive(Debug, Clone)]
pub struct SweepProgram {
    /// Row label.
    pub label: String,
    /// How to build the guest program.
    pub spec: ProgramSpec,
    /// Per-program measurement override; `None` inherits the sweep's kind.
    /// This is what lets one sweep mix slowdown rows (workloads) with
    /// secret-recovery rows (the attack programs).
    pub kind: Option<ScenarioKind>,
}

/// A declarative cartesian sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Unique sweep name (also the JSON artifact name, `BENCH_<name>.json`).
    pub name: String,
    /// One-line description shown by `lab list`.
    pub description: String,
    /// What the expanded scenarios measure (per-program overrides allowed).
    pub kind: ScenarioKind,
    /// Program axis.
    pub programs: Vec<SweepProgram>,
    /// Policy axis.
    pub policies: Vec<MitigationPolicy>,
    /// Platform axis.
    pub platforms: Vec<PlatformVariant>,
}

impl Sweep {
    /// Creates a sweep over the default platform.
    pub fn new(name: &str, description: &str, kind: ScenarioKind) -> Sweep {
        Sweep {
            name: name.to_string(),
            description: description.to_string(),
            kind,
            programs: Vec::new(),
            policies: MitigationPolicy::ALL.to_vec(),
            platforms: vec![PlatformVariant::default_platform()],
        }
    }

    /// Adds one program to the program axis, measured as the sweep's kind.
    pub fn program(mut self, label: &str, spec: ProgramSpec) -> Sweep {
        self.programs.push(SweepProgram { label: label.to_string(), spec, kind: None });
        self
    }

    /// Adds one program measured as `kind`, overriding the sweep's kind.
    pub fn program_as(mut self, label: &str, spec: ProgramSpec, kind: ScenarioKind) -> Sweep {
        self.programs.push(SweepProgram { label: label.to_string(), spec, kind: Some(kind) });
        self
    }

    /// Replaces the policy axis.
    pub fn policies(mut self, policies: &[MitigationPolicy]) -> Sweep {
        self.policies = policies.to_vec();
        self
    }

    /// Replaces the platform axis.
    pub fn platforms(mut self, platforms: Vec<PlatformVariant>) -> Sweep {
        self.platforms = platforms;
        self
    }

    /// Number of concrete jobs this sweep expands to.
    pub fn job_count(&self) -> usize {
        self.programs.len() * self.policies.len() * self.platforms.len()
    }

    /// Expands the cartesian product into concrete jobs.
    ///
    /// The order is deterministic and program-major (program, then platform,
    /// then policy), so tables group naturally by row.
    pub fn expand(&self) -> Vec<Scenario> {
        let mut jobs = Vec::with_capacity(self.job_count());
        for program in &self.programs {
            for platform in &self.platforms {
                for &policy in &self.policies {
                    jobs.push(Scenario {
                        name: format!(
                            "{}/{}/{}/{}",
                            self.name,
                            program.label,
                            policy.label(),
                            platform.name
                        ),
                        program_label: program.label.clone(),
                        program: program.spec.clone(),
                        policy,
                        platform: platform.clone(),
                        kind: program.kind.unwrap_or(self.kind),
                    });
                }
            }
        }
        jobs
    }
}

/// The set of declared sweeps.
#[derive(Debug, Clone)]
pub struct Registry {
    sweeps: Vec<Sweep>,
}

impl Registry {
    /// A registry with no sweeps (build your own with [`Registry::push`]).
    pub fn empty() -> Registry {
        Registry { sweeps: Vec::new() }
    }

    /// Adds a sweep.
    pub fn push(&mut self, sweep: Sweep) {
        self.sweeps.push(sweep);
    }

    /// Every experiment of the paper's evaluation, at problem size `size`:
    ///
    /// * `figure4` — per-kernel slowdown of every policy (plus the two
    ///   attack programs measured as workloads, as in the paper's figure);
    /// * `attack-table` — Section V-A: secret recovery of both Spectre
    ///   variants under every policy;
    /// * `ptr-matmul` — the pointer-array matmul experiment (fine-grained
    ///   vs fence when the Spectre pattern sits in the hot loop);
    /// * `ablation` — contribution of each speculation mechanism
    ///   (platform-axis sweep over the speculation toggles);
    /// * `issue-width` — scaling of the countermeasure cost with the VLIW
    ///   issue width (platform-axis sweep);
    /// * `selective-vs-blanket` — the `spectaint` extension: every workload
    ///   plus both attack programs under every policy, showing that the
    ///   verdict-gated `selective` policy blocks both attacks while beating
    ///   the blanket fine-grained mitigation on leak-free kernels.
    pub fn standard(size: WorkloadSize) -> Registry {
        let mut registry = Registry::empty();

        let mut figure4 = Sweep::new(
            "figure4",
            "Figure 4: slowdown vs unsafe execution, per kernel and policy",
            ScenarioKind::Perf,
        );
        for workload in suite(size) {
            figure4 =
                figure4.program(workload.name, ProgramSpec::Workload { name: workload.name, size });
        }
        for variant in [AttackVariant::SpectreV1, AttackVariant::SpectreV4] {
            figure4 = figure4.program(
                variant.label(),
                ProgramSpec::Attack { variant, secret: DEFAULT_SECRET.to_vec() },
            );
        }
        registry.push(figure4);

        let mut attack_table = Sweep::new(
            "attack-table",
            "Section V-A: secret recovery of both Spectre variants under every policy",
            ScenarioKind::Attack,
        );
        for variant in [AttackVariant::SpectreV1, AttackVariant::SpectreV4] {
            attack_table = attack_table.program(
                variant.label(),
                ProgramSpec::Attack { variant, secret: DEFAULT_SECRET.to_vec() },
            );
        }
        registry.push(attack_table);

        registry.push(
            Sweep::new(
                "ptr-matmul",
                "Pointer-array matmul: countermeasure cost when the Spectre pattern is hot",
                ScenarioKind::Perf,
            )
            .program("gemm (flat)", ProgramSpec::Workload { name: "gemm", size })
            .program("gemm (ptr rows)", ProgramSpec::PointerMatmul { size }),
        );

        let mut ablation = Sweep::new(
            "ablation",
            "Contribution of each speculation mechanism (branch / memory / both off)",
            ScenarioKind::Perf,
        )
        .policies(&[MitigationPolicy::Unprotected])
        .platforms(vec![
            PlatformVariant::default_platform(),
            PlatformVariant::new(
                "no-branch-spec",
                PlatformOverrides { branch_speculation: Some(false), ..Default::default() },
            ),
            PlatformVariant::new(
                "no-memory-spec",
                PlatformOverrides { memory_speculation: Some(false), ..Default::default() },
            ),
            PlatformVariant::new(
                "no-spec",
                PlatformOverrides {
                    branch_speculation: Some(false),
                    memory_speculation: Some(false),
                    ..Default::default()
                },
            ),
        ]);
        for workload in suite(size) {
            ablation = ablation
                .program(workload.name, ProgramSpec::Workload { name: workload.name, size });
        }
        registry.push(ablation);

        registry.push(
            Sweep::new(
                "issue-width",
                "Countermeasure cost across VLIW issue widths (2/4/8-wide)",
                ScenarioKind::Perf,
            )
            .program("gemm", ProgramSpec::Workload { name: "gemm", size })
            .program("atax", ProgramSpec::Workload { name: "atax", size })
            .platforms(
                [2usize, 4, 8]
                    .iter()
                    .map(|&w| {
                        PlatformVariant::new(
                            &format!("issue-{w}"),
                            PlatformOverrides { issue_width: Some(w), ..Default::default() },
                        )
                    })
                    .collect(),
            ),
        );

        let mut selective = Sweep::new(
            "selective-vs-blanket",
            "Selective (taint-verdict gated) vs blanket mitigations: \
             slowdowns on leak-free workloads, secret recovery on both attacks",
            ScenarioKind::Perf,
        );
        for workload in suite(size) {
            selective = selective
                .program(workload.name, ProgramSpec::Workload { name: workload.name, size });
        }
        selective = selective.program("ptr-matmul", ProgramSpec::PointerMatmul { size });
        for variant in [AttackVariant::SpectreV1, AttackVariant::SpectreV4] {
            selective = selective.program_as(
                variant.label(),
                ProgramSpec::Attack { variant, secret: DEFAULT_SECRET.to_vec() },
                ScenarioKind::Attack,
            );
        }
        registry.push(selective);

        registry
    }

    /// All declared sweeps, in declaration order.
    pub fn sweeps(&self) -> &[Sweep] {
        &self.sweeps
    }

    /// Looks a sweep up by name.
    pub fn find(&self, name: &str) -> Option<&Sweep> {
        self.sweeps.iter().find(|s| s.name == name)
    }

    /// Expands every sweep, in declaration order.
    pub fn all_scenarios(&self) -> Vec<Scenario> {
        self.sweeps.iter().flat_map(Sweep::expand).collect()
    }

    /// Finds one concrete scenario by its full name
    /// (`sweep/program/policy/platform`).
    pub fn find_scenario(&self, name: &str) -> Option<Scenario> {
        self.all_scenarios().into_iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_program_major_and_complete() {
        let sweep = Sweep::new("t", "test", ScenarioKind::Perf)
            .program("a", ProgramSpec::Workload { name: "gemm", size: WorkloadSize::Mini })
            .program("b", ProgramSpec::Workload { name: "atax", size: WorkloadSize::Mini });
        let jobs = sweep.expand();
        assert_eq!(jobs.len(), sweep.job_count());
        assert_eq!(jobs.len(), 10);
        assert_eq!(jobs[0].name, "t/a/unsafe/default");
        assert_eq!(jobs[1].name, "t/a/selective/default");
        assert_eq!(jobs[4].name, "t/a/no-speculation/default");
        assert_eq!(jobs[5].name, "t/b/unsafe/default");
        let names: std::collections::BTreeSet<_> = jobs.iter().map(|j| j.name.clone()).collect();
        assert_eq!(names.len(), jobs.len(), "scenario names must be unique");
    }

    #[test]
    fn standard_registry_matches_the_paper_artifacts() {
        let registry = Registry::standard(WorkloadSize::Mini);
        let names: Vec<_> = registry.sweeps().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "figure4",
                "attack-table",
                "ptr-matmul",
                "ablation",
                "issue-width",
                "selective-vs-blanket"
            ]
        );
        // ≥ 6 workloads × every policy plus both attacks × every policy.
        assert!(registry.find("figure4").unwrap().job_count() >= 30);
        assert_eq!(registry.find("attack-table").unwrap().job_count(), 10);
        assert_eq!(registry.find("ablation").unwrap().platforms.len(), 4);
        let all = registry.all_scenarios();
        let names: std::collections::BTreeSet<_> = all.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), all.len(), "scenario names must be unique across sweeps");
    }

    #[test]
    fn selective_sweep_mixes_perf_workloads_with_attack_rows() {
        let registry = Registry::standard(WorkloadSize::Mini);
        let sweep = registry.find("selective-vs-blanket").unwrap();
        assert_eq!(sweep.policies, MitigationPolicy::ALL.to_vec());
        let jobs = sweep.expand();
        let perf = jobs.iter().filter(|j| j.kind == ScenarioKind::Perf).count();
        let attack = jobs.iter().filter(|j| j.kind == ScenarioKind::Attack).count();
        assert_eq!(attack, 2 * MitigationPolicy::ALL.len(), "both attacks under every policy");
        assert!(perf >= 14 * MitigationPolicy::ALL.len(), "all suite kernels plus ptr-matmul");
        // The new leak-free-but-flagged kernels ride in this sweep.
        for name in ["histogram", "stream-lut"] {
            assert!(jobs.iter().any(|j| j.program_label == name), "{name} missing");
        }
    }

    #[test]
    fn scenarios_are_addressable_by_name() {
        let registry = Registry::standard(WorkloadSize::Mini);
        let scenario = registry.find_scenario("figure4/gemm/our-approach/default").unwrap();
        assert_eq!(scenario.policy, MitigationPolicy::FineGrained);
        assert!(registry.find_scenario("no/such/scenario").is_none());
    }
}
