use std::fmt;

use crate::{Loc, Reg};

/// The right-hand operand of ALU, compare and store instructions: either an
/// immediate constant or the current value of a [`Loc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A signed immediate constant.
    Imm(i64),
    /// The value currently held in a location.
    Loc(Loc),
}

impl Operand {
    /// Returns the constant if this operand is an immediate.
    pub fn as_imm(self) -> Option<i64> {
        match self {
            Operand::Imm(v) => Some(v),
            Operand::Loc(_) => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Imm(v) => write!(f, "{v:#x}"),
            Operand::Loc(l) => write!(f, "{l}"),
        }
    }
}

impl From<i64> for Operand {
    fn from(value: i64) -> Self {
        Operand::Imm(value)
    }
}

impl From<Loc> for Operand {
    fn from(value: Loc) -> Self {
        Operand::Loc(value)
    }
}

/// Two-operand arithmetic/logic operations (`dst = dst op src`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinAluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Multiplication.
    Mul,
}

impl fmt::Display for BinAluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinAluOp::Add => "add",
            BinAluOp::Sub => "sub",
            BinAluOp::And => "and",
            BinAluOp::Or => "or",
            BinAluOp::Xor => "xor",
            BinAluOp::Mul => "mul",
        };
        f.write_str(s)
    }
}

/// Branch conditions evaluated against the flags set by the latest
/// [`Inst::Cmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl Cond {
    /// Evaluates the condition for a comparison of `a` against `b`.
    pub fn holds(self, a: i64, b: i64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }

    /// The condition that holds exactly when `self` does not.
    pub fn negated(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// A single SimISA instruction.
///
/// Jump targets are expressed as *instruction indices* within the containing
/// function body; direct call targets are indices into the containing object
/// file's symbol table (see `lfi-objfile`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `dst = imm` — move an immediate constant into a location.
    MovImm {
        /// Destination location.
        dst: Loc,
        /// Constant value.
        imm: i64,
    },
    /// `dst = src` — copy a location into another location.
    Mov {
        /// Destination location.
        dst: Loc,
        /// Source location.
        src: Loc,
    },
    /// `dst = dst op src` — arithmetic/logic.
    Alu {
        /// Operation to apply.
        op: BinAluOp,
        /// Destination (and left operand).
        dst: Loc,
        /// Right operand.
        src: Operand,
    },
    /// `dst = -dst` — arithmetic negation (the libc errno idiom negates the
    /// raw syscall result before storing it, §3.2).
    Neg {
        /// Location negated in place.
        dst: Loc,
    },
    /// Compare `a` against `b` and set the flags consumed by [`Inst::JmpCond`].
    Cmp {
        /// Left operand.
        a: Loc,
        /// Right operand.
        b: Operand,
    },
    /// Unconditional jump to an instruction index in the same function.
    Jmp {
        /// Destination instruction index.
        target: u32,
    },
    /// Conditional jump to an instruction index in the same function.
    JmpCond {
        /// Branch condition.
        cond: Cond,
        /// Destination instruction index.
        target: u32,
    },
    /// Indirect jump through a location; static analysis cannot resolve the
    /// target (the paper reports these are 0.13% of branches).
    JmpIndirect {
        /// Location holding the target.
        loc: Loc,
    },
    /// Direct call to the symbol with the given symbol-table index.
    Call {
        /// Symbol-table index of the callee.
        sym: u32,
    },
    /// Indirect call through a location (function pointer).
    CallIndirect {
        /// Location holding the callee address.
        loc: Loc,
    },
    /// `dst = mem[base + offset]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset added to the base.
        offset: i32,
    },
    /// `mem[base + offset] = src`.
    Store {
        /// Base address register.
        base: Reg,
        /// Byte offset added to the base.
        offset: i32,
        /// Value stored.
        src: Operand,
    },
    /// Load the module's position-independent-code base address into a
    /// register (the `call/pop` + `add` idiom in the paper's §3.2 listing).
    LeaPicBase {
        /// Register receiving the module base.
        dst: Reg,
    },
    /// Invoke kernel system call `num`; the raw result (negative errno on
    /// failure, following the Linux convention) is placed in the ABI return
    /// location.
    Syscall {
        /// System call number.
        num: u32,
    },
    /// Return to the caller.
    Ret,
    /// No operation (alignment / padding).
    Nop,
}

impl Inst {
    /// Returns true if this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Inst::Jmp { .. } | Inst::JmpCond { .. } | Inst::JmpIndirect { .. } | Inst::Ret)
    }

    /// Returns true if this instruction transfers control to another function.
    pub fn is_call(&self) -> bool {
        matches!(self, Inst::Call { .. } | Inst::CallIndirect { .. } | Inst::Syscall { .. })
    }

    /// The location written by this instruction, if it writes exactly one
    /// directly-addressed location.  Memory stores through a base register and
    /// calls are reported as `None`.
    pub fn written_loc(&self) -> Option<Loc> {
        match *self {
            Inst::MovImm { dst, .. } | Inst::Mov { dst, .. } | Inst::Alu { dst, .. } | Inst::Neg { dst } => Some(dst),
            Inst::Load { dst, .. } => Some(Loc::Reg(dst)),
            Inst::LeaPicBase { dst } => Some(Loc::Reg(dst)),
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::MovImm { dst, imm } => write!(f, "mov   {dst}, {imm:#x}"),
            Inst::Mov { dst, src } => write!(f, "mov   {dst}, {src}"),
            Inst::Alu { op, dst, src } => write!(f, "{op}   {dst}, {src}"),
            Inst::Neg { dst } => write!(f, "neg   {dst}"),
            Inst::Cmp { a, b } => write!(f, "cmp   {a}, {b}"),
            Inst::Jmp { target } => write!(f, "jmp   @{target}"),
            Inst::JmpCond { cond, target } => write!(f, "j{cond}   @{target}"),
            Inst::JmpIndirect { loc } => write!(f, "jmp   *{loc}"),
            Inst::Call { sym } => write!(f, "call  sym#{sym}"),
            Inst::CallIndirect { loc } => write!(f, "call  *{loc}"),
            Inst::Load { dst, base, offset } => write!(f, "load  {dst}, [{base}{offset:+}]"),
            Inst::Store { base, offset, src } => write!(f, "store [{base}{offset:+}], {src}"),
            Inst::LeaPicBase { dst } => write!(f, "lea   {dst}, pic_base"),
            Inst::Syscall { num } => write!(f, "syscall {num}"),
            Inst::Ret => write!(f, "ret"),
            Inst::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminators() {
        assert!(Inst::Ret.is_terminator());
        assert!(Inst::Jmp { target: 0 }.is_terminator());
        assert!(Inst::JmpCond { cond: Cond::Eq, target: 1 }.is_terminator());
        assert!(Inst::JmpIndirect { loc: Loc::Reg(Reg(1)) }.is_terminator());
        assert!(!Inst::Nop.is_terminator());
        assert!(!Inst::Call { sym: 0 }.is_terminator());
    }

    #[test]
    fn calls() {
        assert!(Inst::Call { sym: 3 }.is_call());
        assert!(Inst::CallIndirect { loc: Loc::Reg(Reg(2)) }.is_call());
        assert!(Inst::Syscall { num: 4 }.is_call());
        assert!(!Inst::Ret.is_call());
    }

    #[test]
    fn written_locations() {
        let dst = Loc::Reg(Reg(0));
        assert_eq!(Inst::MovImm { dst, imm: -1 }.written_loc(), Some(dst));
        assert_eq!(Inst::Mov { dst, src: Loc::Arg(0) }.written_loc(), Some(dst));
        assert_eq!(Inst::Alu { op: BinAluOp::Add, dst, src: Operand::Imm(1) }.written_loc(), Some(dst));
        assert_eq!(Inst::Load { dst: Reg(2), base: Reg(3), offset: 4 }.written_loc(), Some(Loc::Reg(Reg(2))));
        assert_eq!(Inst::LeaPicBase { dst: Reg(3) }.written_loc(), Some(Loc::Reg(Reg(3))));
        assert_eq!(Inst::Store { base: Reg(1), offset: 0, src: Operand::Imm(0) }.written_loc(), None);
        assert_eq!(Inst::Ret.written_loc(), None);
    }

    #[test]
    fn cond_evaluation() {
        assert!(Cond::Eq.holds(3, 3));
        assert!(Cond::Ne.holds(3, 4));
        assert!(Cond::Lt.holds(-1, 0));
        assert!(Cond::Le.holds(0, 0));
        assert!(Cond::Gt.holds(5, 4));
        assert!(Cond::Ge.holds(5, 5));
        assert!(!Cond::Lt.holds(1, 0));
    }

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(-5i64).as_imm(), Some(-5));
        assert_eq!(Operand::from(Loc::Arg(1)).as_imm(), None);
    }

    #[test]
    fn display_is_never_empty() {
        let samples = [
            Inst::MovImm { dst: Loc::Reg(Reg(0)), imm: -1 },
            Inst::Ret,
            Inst::Nop,
            Inst::Syscall { num: 3 },
            Inst::Store { base: Reg(3), offset: 0x10, src: Operand::Imm(9) },
        ];
        for inst in samples {
            assert!(!inst.to_string().is_empty());
        }
    }
}
