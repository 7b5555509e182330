//! The DBT-based processor: engine + core + memory.

use dbt_engine::{DbtConfig, DbtEngine, DbtError, TranslationService};
use dbt_riscv::{GuestMemory, MemError, Program, Reg};
use dbt_vliw::{CoreConfig, CoreError, VliwCore};
use ghostbusters::MitigationPolicy;
use std::fmt;
use std::sync::Arc;

/// Configuration of the whole platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformConfig {
    /// DBT engine configuration (speculation, mitigation, trace formation).
    pub dbt: DbtConfig,
    /// VLIW core configuration (issue width, MCB, cache, rollback penalty).
    pub core: CoreConfig,
    /// Safety budget: maximum number of translated blocks executed in one
    /// [`DbtProcessor::run`] call.
    pub max_blocks: u64,
}

impl PlatformConfig {
    /// Default platform for a given mitigation policy; every other
    /// parameter is shared so runs are directly comparable.
    pub fn for_policy(policy: MitigationPolicy) -> PlatformConfig {
        let dbt = DbtConfig::for_policy(policy);
        let core = CoreConfig { issue_width: dbt.issue_width, ..CoreConfig::default() };
        PlatformConfig { dbt, core, max_blocks: 50_000_000 }
    }

    /// The unprotected baseline platform.
    pub fn unprotected() -> PlatformConfig {
        PlatformConfig::for_policy(MitigationPolicy::Unprotected)
    }

    /// A stable 64-bit fingerprint of every simulation-relevant parameter:
    /// the full DBT configuration (policy, speculation options, trace
    /// formation), the core configuration (issue width, MCB, cache
    /// geometry and latencies, rollback penalty) and the block budget.
    ///
    /// Two configurations with equal fingerprints drive byte-identical
    /// simulations of the same program, so the fingerprint is the config
    /// half of the [`RunMemo`](crate::RunMemo) key. `DbtConfig` carries an
    /// `f64` (the branch-bias threshold), so the hash is written out by
    /// hand over the bit pattern instead of derived.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        // Exhaustive destructuring (no `..`): adding a field to any of
        // these structs must fail to compile here rather than silently
        // produce colliding fingerprints — a collision would make the
        // RunMemo serve one configuration's cached run as another's.
        let PlatformConfig { dbt, core, max_blocks } = self;
        let dbt_engine::DbtConfig {
            issue_width,
            hot_threshold,
            branch_bias_threshold,
            max_trace_guest_insts,
            speculation,
            policy,
        } = dbt;
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        issue_width.hash(&mut hasher);
        hot_threshold.hash(&mut hasher);
        branch_bias_threshold.to_bits().hash(&mut hasher);
        max_trace_guest_insts.hash(&mut hasher);
        speculation.hash(&mut hasher);
        policy.hash(&mut hasher);
        // `CoreConfig` (and its `CacheConfig`) derive `Hash`, so new
        // fields there are covered automatically.
        core.hash(&mut hasher);
        max_blocks.hash(&mut hasher);
        hasher.finish()
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig::unprotected()
    }
}

/// Errors raised while running a guest program on the platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// The DBT engine failed to translate guest code.
    Dbt(DbtError),
    /// The VLIW core faulted.
    Core(CoreError),
    /// Guest memory could not be built or accessed.
    Mem(MemError),
    /// The block budget was exhausted before the program halted.
    BudgetExhausted {
        /// Number of blocks executed.
        blocks: u64,
    },
    /// A [`Session`](crate::Session) was built without a guest program.
    MissingProgram,
    /// A named symbol is missing from the guest program.
    UnknownSymbol {
        /// The requested symbol name.
        name: String,
    },
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::Dbt(e) => write!(f, "{e}"),
            PlatformError::Core(e) => write!(f, "{e}"),
            PlatformError::Mem(e) => write!(f, "{e}"),
            PlatformError::BudgetExhausted { blocks } => {
                write!(f, "block budget exhausted after {blocks} blocks")
            }
            PlatformError::MissingProgram => {
                write!(f, "session built without a guest program (call `.program(..)`)")
            }
            PlatformError::UnknownSymbol { name } => write!(f, "unknown guest symbol `{name}`"),
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<DbtError> for PlatformError {
    fn from(e: DbtError) -> Self {
        PlatformError::Dbt(e)
    }
}

impl From<CoreError> for PlatformError {
    fn from(e: CoreError) -> Self {
        PlatformError::Core(e)
    }
}

impl From<MemError> for PlatformError {
    fn from(e: MemError) -> Self {
        PlatformError::Mem(e)
    }
}

/// Result of running a guest program to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Total cycles spent by the VLIW core.
    pub cycles: u64,
    /// Number of translated blocks executed.
    pub blocks_executed: u64,
    /// Memory Conflict Buffer rollbacks.
    pub rollbacks: u64,
    /// Whether the program reached `ecall` (as opposed to exhausting its
    /// budget).
    pub halted: bool,
    /// Guest instructions retired (estimated from block coverage).
    pub guest_insts: u64,
}

/// The simulated DBT-based processor.
#[derive(Debug, Clone)]
pub struct DbtProcessor {
    program: Program,
    config: PlatformConfig,
    engine: DbtEngine,
    core: VliwCore,
    memory: GuestMemory,
}

impl DbtProcessor {
    /// Creates a processor with `program` loaded and ready to run from its
    /// entry point, with an optional shared translation service (the
    /// engine memoizes its translations there under the program's
    /// fingerprint).
    ///
    /// Construction is crate-internal: external callers go through the
    /// [`Session`](crate::Session) builder, which is also where a shared
    /// [`TranslationService`] is attached.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::Mem`] if the program image cannot be built.
    pub(crate) fn new(
        program: &Program,
        config: PlatformConfig,
        service: Option<Arc<TranslationService>>,
    ) -> Result<DbtProcessor, PlatformError> {
        let memory = program.build_memory().map_err(|_| {
            PlatformError::Mem(MemError::OutOfBounds {
                addr: 0,
                size: 0,
                limit: program.memory_size(),
            })
        })?;
        let mut core = VliwCore::new(config.core, program.entry());
        // Same calling convention as the reference interpreter: stack at the
        // top of guest memory.
        core.arch_mut().set_reg(Reg::SP, (memory.len() as u64) & !0xf);
        let engine = match service {
            Some(service) => DbtEngine::with_service(config.dbt, service),
            None => DbtEngine::new(config.dbt),
        };
        Ok(DbtProcessor { program: program.clone(), config, engine, core, memory })
    }

    /// The loaded guest program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// The DBT engine (profiles, translation cache, mitigation reports).
    pub fn engine(&self) -> &DbtEngine {
        &self.engine
    }

    /// The VLIW core (cycle counter, cache, architectural state).
    pub fn core(&self) -> &VliwCore {
        &self.core
    }

    /// Guest memory.
    pub fn memory(&self) -> &GuestMemory {
        &self.memory
    }

    /// Mutable guest memory (e.g. to plant a secret before running).
    pub fn memory_mut(&mut self) -> &mut GuestMemory {
        &mut self.memory
    }

    /// Address of a named guest symbol.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownSymbol`] if the program does not
    /// define it.
    pub fn symbol(&self, name: &str) -> Result<u64, PlatformError> {
        self.program
            .symbol(name)
            .ok_or_else(|| PlatformError::UnknownSymbol { name: name.to_string() })
    }

    /// Reads a 64-bit value at a named guest symbol.
    ///
    /// # Errors
    ///
    /// Returns an error if the symbol is unknown or out of bounds.
    pub fn load_symbol_u64(&self, name: &str) -> Result<u64, PlatformError> {
        Ok(self.memory.load_u64(self.symbol(name)?)?)
    }

    /// Reads `len` bytes at a named guest symbol.
    ///
    /// # Errors
    ///
    /// Returns an error if the symbol is unknown or out of bounds.
    pub fn load_symbol_bytes(&self, name: &str, len: usize) -> Result<Vec<u8>, PlatformError> {
        Ok(self.memory.read_bytes(self.symbol(name)?, len)?)
    }

    /// Assembles the deterministic cycle-domain profile of this
    /// processor's execution so far (normally called once, after
    /// [`DbtProcessor::run`] with the summary it returned).
    pub fn profile_report(&self, program: &str, summary: &RunSummary) -> crate::ProfileReport {
        crate::ProfileReport::assemble(
            program,
            self.config.dbt.policy.label(),
            summary,
            &self.core,
            self.engine.stats(),
        )
    }

    /// Runs the guest program until it halts or the block budget runs out.
    ///
    /// # Errors
    ///
    /// Returns a [`PlatformError`] on translation or execution faults.
    pub fn run(&mut self) -> Result<RunSummary, PlatformError> {
        let mut pc = self.core.arch().pc();
        let mut blocks = 0u64;
        let mut guest_insts = 0u64;
        let mut halted = false;
        while blocks < self.config.max_blocks {
            let block = self.engine.block_for(pc, &self.memory)?;
            let outcome = self.core.execute_block(&block, &mut self.memory)?;
            self.engine.note_block_exit(pc, outcome.next_pc);
            blocks += 1;
            guest_insts += block.guest_inst_count as u64;
            match outcome.next_pc {
                Some(next) => {
                    self.core.arch_mut().set_pc(next);
                    pc = next;
                }
                None => {
                    halted = true;
                    break;
                }
            }
        }
        if !halted && blocks >= self.config.max_blocks {
            return Err(PlatformError::BudgetExhausted { blocks });
        }
        Ok(RunSummary {
            cycles: self.core.cycles(),
            blocks_executed: blocks,
            rollbacks: self.core.stats().rollbacks,
            halted,
            guest_insts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbt_riscv::{Assembler, ExitReason, Interpreter};

    fn loop_program() -> Program {
        // Sums 0..100 into memory, with a data-dependent branch inside the
        // loop so both translation tiers and profiling are exercised.
        let mut asm = Assembler::new();
        let out = asm.alloc_data("out", 8);
        let even_count = asm.alloc_data("evens", 8);
        let head = asm.new_label();
        let odd = asm.new_label();
        asm.li(Reg::S0, 0); // i
        asm.li(Reg::S1, 0); // sum
        asm.li(Reg::S2, 0); // evens
        asm.li(Reg::S3, 100);
        asm.bind(head);
        asm.add(Reg::S1, Reg::S1, Reg::S0);
        asm.andi(Reg::T0, Reg::S0, 1);
        asm.bnez(Reg::T0, odd);
        asm.addi(Reg::S2, Reg::S2, 1);
        asm.bind(odd);
        asm.addi(Reg::S0, Reg::S0, 1);
        asm.blt(Reg::S0, Reg::S3, head);
        asm.la(Reg::A0, out);
        asm.sd(Reg::S1, Reg::A0, 0);
        asm.la(Reg::A0, even_count);
        asm.sd(Reg::S2, Reg::A0, 0);
        asm.ecall();
        asm.assemble().unwrap()
    }

    #[test]
    fn runs_to_completion_and_matches_reference_interpreter() {
        let program = loop_program();
        let mut reference = Interpreter::new(&program);
        assert_eq!(reference.run(1_000_000).unwrap(), ExitReason::Ecall);

        for policy in MitigationPolicy::ALL {
            let mut processor =
                DbtProcessor::new(&program, PlatformConfig::for_policy(policy), None).unwrap();
            let summary = processor.run().unwrap();
            assert!(summary.halted, "{policy}: program must halt");
            assert!(summary.cycles > 0);
            assert_eq!(
                processor.load_symbol_u64("out").unwrap(),
                reference.memory().load_u64(program.symbol("out").unwrap()).unwrap(),
                "{policy}: architectural result must match the reference"
            );
            assert_eq!(processor.load_symbol_u64("evens").unwrap(), 50);
        }
    }

    #[test]
    fn speculation_is_not_slower_than_no_speculation() {
        let program = loop_program();
        let mut unprotected = DbtProcessor::new(
            &program,
            PlatformConfig::for_policy(MitigationPolicy::Unprotected),
            None,
        )
        .unwrap();
        let mut nospec = DbtProcessor::new(
            &program,
            PlatformConfig::for_policy(MitigationPolicy::NoSpeculation),
            None,
        )
        .unwrap();
        let fast = unprotected.run().unwrap();
        let slow = nospec.run().unwrap();
        assert!(fast.cycles <= slow.cycles);
    }

    #[test]
    fn unknown_symbol_is_an_error() {
        let program = loop_program();
        let processor = DbtProcessor::new(&program, PlatformConfig::default(), None).unwrap();
        assert!(matches!(
            processor.load_symbol_u64("nope"),
            Err(PlatformError::UnknownSymbol { .. })
        ));
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut asm = Assembler::new();
        let spin = asm.new_label();
        asm.bind(spin);
        asm.nop();
        asm.jump(spin);
        let program = asm.assemble().unwrap();
        let config = PlatformConfig { max_blocks: 10, ..PlatformConfig::default() };
        let mut processor = DbtProcessor::new(&program, config, None).unwrap();
        assert!(matches!(processor.run(), Err(PlatformError::BudgetExhausted { .. })));
    }
}
