//! IR blocks: the unit of translation, optimization and — per the paper —
//! the *scope of speculation*.

use crate::inst::{IrInst, IrOp};
use crate::value::{InstId, Operand};
use std::fmt;

/// How the block was formed by the DBT engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// A single guest basic block, translated one-to-one.
    Basic,
    /// A superblock/trace built by merging `merged_blocks` guest basic
    /// blocks along the profiled hot path (conditional branches along the
    /// path become side exits).
    Superblock {
        /// Number of guest basic blocks merged into the trace.
        merged_blocks: usize,
    },
}

/// How control leaves the block when no side exit fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockExit {
    /// Continue at a known guest address.
    Jump(u64),
    /// Continue at an address computed at run time (`jalr`).
    Indirect,
    /// The guest program terminates (`ecall`).
    Halt,
}

/// A block of IR instructions in original guest order.
///
/// Blocks are built by the DBT front end
/// and consumed by the GhostBusters analysis and the VLIW scheduler. The
/// instruction list is append-only; instruction ids are stable indexes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrBlock {
    entry_pc: u64,
    kind: BlockKind,
    insts: Vec<IrInst>,
}

impl IrBlock {
    /// Creates an empty block starting at guest address `entry_pc`.
    pub fn new(entry_pc: u64, kind: BlockKind) -> IrBlock {
        IrBlock { entry_pc, kind, insts: Vec::new() }
    }

    /// Guest address of the first instruction of the block.
    pub fn entry_pc(&self) -> u64 {
        self.entry_pc
    }

    /// How the block was formed.
    pub fn kind(&self) -> BlockKind {
        self.kind
    }

    /// Releases the instruction list's growth slack (for blocks kept
    /// long after they are built).
    pub fn shrink_to_fit(&mut self) {
        self.insts.shrink_to_fit();
    }

    /// Appends an instruction and returns its id.
    pub fn push(&mut self, op: IrOp, guest_pc: u64, original_seq: usize) -> InstId {
        let id = InstId(self.insts.len());
        self.insts.push(IrInst::new(id, op, guest_pc, original_seq));
        id
    }

    /// The instructions, in original guest order.
    pub fn insts(&self) -> &[IrInst] {
        &self.insts
    }

    /// Looks up one instruction.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this block.
    pub fn inst(&self, id: InstId) -> &IrInst {
        &self.insts[id.0]
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` if the block has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Ids of all side exits, in original order.
    pub fn side_exits(&self) -> Vec<InstId> {
        self.insts.iter().filter(|i| i.op.is_side_exit()).map(|i| i.id).collect()
    }

    /// Ids of all loads, in original order.
    pub fn loads(&self) -> Vec<InstId> {
        self.insts.iter().filter(|i| i.op.is_load()).map(|i| i.id).collect()
    }

    /// Ids of all stores, in original order.
    pub fn stores(&self) -> Vec<InstId> {
        self.insts.iter().filter(|i| i.op.is_store()).map(|i| i.id).collect()
    }

    /// The block's fall-through exit, determined by its terminator.
    ///
    /// Returns `None` if the block is not (yet) terminated.
    pub fn exit(&self) -> Option<BlockExit> {
        match self.insts.last().map(|i| &i.op) {
            Some(IrOp::Jump { target }) => Some(BlockExit::Jump(*target)),
            Some(IrOp::JumpIndirect { .. }) => Some(BlockExit::Indirect),
            Some(IrOp::Halt) => Some(BlockExit::Halt),
            _ => None,
        }
    }

    /// Checks structural invariants:
    ///
    /// * every [`Operand::Value`] refers to an earlier, value-producing
    ///   instruction;
    /// * only the last instruction is a terminator, and the block ends with
    ///   one;
    /// * `original_seq` is non-decreasing.
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.insts.is_empty() {
            return Err("block is empty".to_string());
        }
        let mut prev_seq = 0usize;
        for (index, inst) in self.insts.iter().enumerate() {
            if inst.id.0 != index {
                return Err(format!("instruction at index {index} has id {}", inst.id));
            }
            if inst.original_seq < prev_seq {
                return Err(format!("original_seq decreases at {}", inst.id));
            }
            prev_seq = inst.original_seq;
            for operand in inst.op.operands() {
                if let Operand::Value(def) = operand {
                    if def.0 >= index {
                        return Err(format!("{} uses {} before it is defined", inst.id, def));
                    }
                    if !self.insts[def.0].op.produces_value() {
                        return Err(format!("{} uses non-value {}", inst.id, def));
                    }
                }
            }
            let is_last = index + 1 == self.insts.len();
            if inst.op.is_terminator() && !is_last {
                return Err(format!("terminator {} is not the last instruction", inst.id));
            }
            if is_last && !inst.op.is_terminator() {
                return Err("block does not end with a terminator".to_string());
            }
        }
        Ok(())
    }
}

impl fmt::Display for IrBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "block @{:#x} ({:?}):", self.entry_pc, self.kind)?;
        for inst in &self.insts {
            writeln!(f, "  [{:3}] {inst}", inst.original_seq)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::MemWidth;
    use dbt_riscv::inst::AluOp;
    use dbt_riscv::Reg;

    fn sample_block() -> IrBlock {
        let mut b = IrBlock::new(0x1000, BlockKind::Basic);
        let c = b.push(IrOp::Const(8), 0x1000, 0);
        let a = b.push(
            IrOp::Alu { op: AluOp::Add, a: Operand::LiveIn(Reg::A0), b: Operand::Value(c) },
            0x1004,
            1,
        );
        let l = b.push(
            IrOp::Load { width: MemWidth::DOUBLE, base: Operand::Value(a), offset: 0 },
            0x1008,
            2,
        );
        b.push(IrOp::WriteReg { reg: Reg::A1, value: Operand::Value(l) }, 0x1008, 2);
        b.push(
            IrOp::Store {
                width: MemWidth::DOUBLE,
                value: Operand::Value(l),
                base: Operand::LiveIn(Reg::A2),
                offset: 16,
            },
            0x100c,
            3,
        );
        b.push(IrOp::Jump { target: 0x1010 }, 0x100c, 4);
        b
    }

    #[test]
    fn sample_block_is_valid() {
        let b = sample_block();
        assert_eq!(b.validate(), Ok(()));
        assert_eq!(b.exit(), Some(BlockExit::Jump(0x1010)));
        assert_eq!(b.loads().len(), 1);
        assert_eq!(b.stores().len(), 1);
        assert!(b.side_exits().is_empty());
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn use_before_def_is_rejected() {
        let mut b = IrBlock::new(0, BlockKind::Basic);
        b.push(
            IrOp::Alu { op: AluOp::Add, a: Operand::Value(InstId(5)), b: Operand::Imm(0) },
            0,
            0,
        );
        b.push(IrOp::Halt, 0, 1);
        assert!(b.validate().is_err());
    }

    #[test]
    fn missing_terminator_is_rejected() {
        let mut b = IrBlock::new(0, BlockKind::Basic);
        b.push(IrOp::Const(1), 0, 0);
        assert!(b.validate().is_err());
        assert_eq!(b.exit(), None);
    }

    #[test]
    fn use_of_non_value_is_rejected() {
        let mut b = IrBlock::new(0, BlockKind::Basic);
        let s = b.push(
            IrOp::Store {
                width: MemWidth::DOUBLE,
                value: Operand::Imm(0),
                base: Operand::Imm(64),
                offset: 0,
            },
            0,
            0,
        );
        b.push(IrOp::WriteReg { reg: Reg::A0, value: Operand::Value(s) }, 0, 1);
        b.push(IrOp::Halt, 0, 2);
        assert!(b.validate().is_err());
    }

    #[test]
    fn empty_block_is_invalid() {
        let b = IrBlock::new(0, BlockKind::Basic);
        assert!(b.validate().is_err());
    }

    #[test]
    fn display_contains_instructions() {
        let text = sample_block().to_string();
        assert!(text.contains("load.8"));
        assert!(text.contains("jump"));
    }
}
