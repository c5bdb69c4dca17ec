//! A small reference interpreter for SimISA function bodies.
//!
//! The interpreter is not part of the LFI pipeline: the original tool never
//! executes library code, and the profiler here analyses SimISA statically.
//! Tests use it as the reference semantics for `lfi-asm`'s lowering: running
//! a compiled function over its selector arguments must return exactly the
//! values and apply exactly the side effects its spec declares.

use std::collections::HashMap;

use crate::{BinAluOp, Inst, IsaError, Loc, Operand, Platform, Reg};

/// Sentinel value loaded by [`Inst::LeaPicBase`]; stores through a register
/// holding this value are module-data writes at the store's offset.
pub const PIC_BASE: i64 = 0x5000_0000;

/// How calls out of the interpreted function are satisfied.
pub trait CallEnv {
    /// Resolve a direct call to symbol-table index `sym` and produce its
    /// return value.
    ///
    /// # Errors
    ///
    /// Implementations return [`IsaError::UnresolvedCall`] when the symbol
    /// cannot be resolved.
    fn call(&mut self, sym: u32) -> Result<i64, IsaError>;

    /// Resolve an indirect call whose target value is `target`.
    ///
    /// # Errors
    ///
    /// The default implementation rejects all indirect calls.
    fn call_indirect(&mut self, target: i64) -> Result<i64, IsaError> {
        let _ = target;
        Err(IsaError::UnresolvedCall { sym: u32::MAX })
    }

    /// Execute system call `num` and produce its raw result (negative errno on
    /// failure, per the Linux convention the paper's §3.2 listing follows).
    fn syscall(&mut self, num: u32) -> i64;
}

/// A [`CallEnv`] built from closures, convenient in tests.
pub struct FnEnv<C, S>
where
    C: FnMut(u32) -> Result<i64, IsaError>,
    S: FnMut(u32) -> i64,
{
    call_fn: C,
    syscall_fn: S,
}

impl<C, S> FnEnv<C, S>
where
    C: FnMut(u32) -> Result<i64, IsaError>,
    S: FnMut(u32) -> i64,
{
    /// Creates an environment from a call resolver and a syscall handler.
    pub fn new(call_fn: C, syscall_fn: S) -> Self {
        Self { call_fn, syscall_fn }
    }
}

impl<C, S> CallEnv for FnEnv<C, S>
where
    C: FnMut(u32) -> Result<i64, IsaError>,
    S: FnMut(u32) -> i64,
{
    fn call(&mut self, sym: u32) -> Result<i64, IsaError> {
        (self.call_fn)(sym)
    }

    fn syscall(&mut self, num: u32) -> i64 {
        (self.syscall_fn)(num)
    }
}

/// An environment in which every call returns a fixed value and every syscall
/// returns another fixed value.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstEnv {
    /// Value returned by every direct and indirect call.
    pub call_result: i64,
    /// Value returned by every system call.
    pub syscall_result: i64,
}

impl CallEnv for ConstEnv {
    fn call(&mut self, _sym: u32) -> Result<i64, IsaError> {
        Ok(self.call_result)
    }

    fn call_indirect(&mut self, _target: i64) -> Result<i64, IsaError> {
        Ok(self.call_result)
    }

    fn syscall(&mut self, _num: u32) -> i64 {
        self.syscall_result
    }
}

/// One memory store observed during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreEvent {
    /// Value held by the base register at the time of the store.
    pub base_value: i64,
    /// Offset encoded in the store instruction.
    pub offset: i32,
    /// Value written.
    pub value: i64,
}

impl StoreEvent {
    /// Returns the module-data offset written if the store went through the
    /// position-independent-code base, i.e. `base == PIC_BASE`.
    pub fn module_offset(&self) -> Option<u32> {
        if self.base_value == PIC_BASE && self.offset >= 0 {
            Some(self.offset as u32)
        } else {
            None
        }
    }
}

/// The observable result of interpreting one function activation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Value left in the ABI return location when `ret` executed.
    pub return_value: i64,
    /// Final values of directly-addressed TLS slots written during execution.
    pub tls_writes: HashMap<u32, i64>,
    /// Final values of directly-addressed global slots written during execution.
    pub global_writes: HashMap<u32, i64>,
    /// Every store-through-register observed, in program order.
    pub stores: Vec<StoreEvent>,
    /// Number of instructions executed.
    pub steps: u64,
}

/// Interpreter configuration.
#[derive(Debug, Clone, Copy)]
pub struct VmOptions {
    /// Maximum number of instructions executed before aborting with
    /// [`IsaError::StepLimitExceeded`].
    pub step_limit: u64,
}

impl Default for VmOptions {
    fn default() -> Self {
        Self { step_limit: 100_000 }
    }
}

/// The SimISA interpreter.
#[derive(Debug, Clone)]
pub struct Vm {
    platform: Platform,
    options: VmOptions,
}

impl Vm {
    /// Creates an interpreter for the given platform with default options.
    pub fn new(platform: Platform) -> Self {
        Self { platform, options: VmOptions::default() }
    }

    /// Creates an interpreter with explicit options.
    pub fn with_options(platform: Platform, options: VmOptions) -> Self {
        Self { platform, options }
    }

    /// The platform whose ABI governs argument and return locations.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// Interprets `body` with the given arguments, resolving calls and
    /// syscalls through `env`.
    ///
    /// # Errors
    ///
    /// Returns an error if the function jumps out of range, never returns
    /// within the step limit, falls off the end of its body, or calls a
    /// symbol the environment cannot resolve.
    pub fn run(&self, body: &[Inst], args: &[i64], env: &mut dyn CallEnv) -> Result<ExecOutcome, IsaError> {
        let abi = self.platform.abi();
        let mut regs = [0i64; Reg::COUNT as usize];
        let mut stack: HashMap<i32, i64> = HashMap::new();
        let mut tls: HashMap<u32, i64> = HashMap::new();
        let mut globals: HashMap<u32, i64> = HashMap::new();
        let mut stores: Vec<StoreEvent> = Vec::new();
        let mut flags: (i64, i64) = (0, 0);
        let mut pc: usize = 0;
        let mut steps: u64 = 0;

        let read = |loc: Loc,
                    regs: &[i64; Reg::COUNT as usize],
                    stack: &HashMap<i32, i64>,
                    tls: &HashMap<u32, i64>,
                    globals: &HashMap<u32, i64>|
         -> i64 {
            match loc {
                Loc::Reg(Reg(r)) => regs[r as usize % Reg::COUNT as usize],
                Loc::Stack(off) => *stack.get(&off).unwrap_or(&0),
                Loc::Arg(n) => args.get(n as usize).copied().unwrap_or(0),
                Loc::Global(off) => *globals.get(&off).unwrap_or(&0),
                Loc::Tls(off) => *tls.get(&off).unwrap_or(&0),
            }
        };

        loop {
            if steps >= self.options.step_limit {
                return Err(IsaError::StepLimitExceeded { limit: self.options.step_limit });
            }
            let Some(inst) = body.get(pc) else {
                return Err(IsaError::FellOffEnd);
            };
            steps += 1;
            let mut next_pc = pc + 1;
            match *inst {
                Inst::MovImm { dst, imm } => {
                    write_loc(dst, imm, &mut regs, &mut stack, &mut tls, &mut globals);
                }
                Inst::Mov { dst, src } => {
                    let v = read(src, &regs, &stack, &tls, &globals);
                    write_loc(dst, v, &mut regs, &mut stack, &mut tls, &mut globals);
                }
                Inst::Alu { op, dst, src } => {
                    let rhs = match src {
                        Operand::Imm(v) => v,
                        Operand::Loc(l) => read(l, &regs, &stack, &tls, &globals),
                    };
                    let lhs = read(dst, &regs, &stack, &tls, &globals);
                    let result = match op {
                        BinAluOp::Add => lhs.wrapping_add(rhs),
                        BinAluOp::Sub => lhs.wrapping_sub(rhs),
                        BinAluOp::And => lhs & rhs,
                        BinAluOp::Or => lhs | rhs,
                        BinAluOp::Xor => lhs ^ rhs,
                        BinAluOp::Mul => lhs.wrapping_mul(rhs),
                    };
                    write_loc(dst, result, &mut regs, &mut stack, &mut tls, &mut globals);
                }
                Inst::Neg { dst } => {
                    let v = read(dst, &regs, &stack, &tls, &globals);
                    write_loc(dst, v.wrapping_neg(), &mut regs, &mut stack, &mut tls, &mut globals);
                }
                Inst::Cmp { a, b } => {
                    let lhs = read(a, &regs, &stack, &tls, &globals);
                    let rhs = match b {
                        Operand::Imm(v) => v,
                        Operand::Loc(l) => read(l, &regs, &stack, &tls, &globals),
                    };
                    flags = (lhs, rhs);
                }
                Inst::Jmp { target } => {
                    next_pc = check_target(target, body.len())?;
                }
                Inst::JmpCond { cond, target } => {
                    if cond.holds(flags.0, flags.1) {
                        next_pc = check_target(target, body.len())?;
                    }
                }
                Inst::JmpIndirect { loc } => {
                    let target = read(loc, &regs, &stack, &tls, &globals);
                    next_pc = check_indirect_target(target, body.len())?;
                }
                Inst::Call { sym } => {
                    let v = env.call(sym)?;
                    write_loc(abi.return_loc(), v, &mut regs, &mut stack, &mut tls, &mut globals);
                }
                Inst::CallIndirect { loc } => {
                    let target = read(loc, &regs, &stack, &tls, &globals);
                    let v = env.call_indirect(target)?;
                    write_loc(abi.return_loc(), v, &mut regs, &mut stack, &mut tls, &mut globals);
                }
                Inst::Load { dst, base, offset } => {
                    // Loads through the PIC base read module data; anything
                    // else reads zero (the interpreter has no process image).
                    let base_v = regs[base.0 as usize % Reg::COUNT as usize];
                    let v = if base_v == PIC_BASE && offset >= 0 {
                        *globals.get(&(offset as u32)).unwrap_or(&0)
                    } else {
                        0
                    };
                    regs[dst.0 as usize % Reg::COUNT as usize] = v;
                }
                Inst::Store { base, offset, src } => {
                    let base_v = regs[base.0 as usize % Reg::COUNT as usize];
                    let value = match src {
                        Operand::Imm(v) => v,
                        Operand::Loc(l) => read(l, &regs, &stack, &tls, &globals),
                    };
                    stores.push(StoreEvent { base_value: base_v, offset, value });
                    if base_v == PIC_BASE && offset >= 0 {
                        globals.insert(offset as u32, value);
                    }
                }
                Inst::LeaPicBase { dst } => {
                    regs[dst.0 as usize % Reg::COUNT as usize] = PIC_BASE;
                }
                Inst::Syscall { num } => {
                    let v = env.syscall(num);
                    write_loc(abi.return_loc(), v, &mut regs, &mut stack, &mut tls, &mut globals);
                }
                Inst::Ret => {
                    let return_value = read(abi.return_loc(), &regs, &stack, &tls, &globals);
                    return Ok(ExecOutcome { return_value, tls_writes: tls, global_writes: globals, stores, steps });
                }
                Inst::Nop => {}
            }
            pc = next_pc;
        }
    }
}

fn check_target(target: u32, len: usize) -> Result<usize, IsaError> {
    if (target as usize) < len {
        Ok(target as usize)
    } else {
        Err(IsaError::JumpOutOfRange { target: i64::from(target), len })
    }
}

/// Validates an indirect jump target read from a location at run time.
/// Negative values are rejected explicitly — the error carries the original
/// (possibly negative) value instead of a wrapped unsigned index.
fn check_indirect_target(target: i64, len: usize) -> Result<usize, IsaError> {
    match usize::try_from(target) {
        Ok(t) if t < len => Ok(t),
        _ => Err(IsaError::JumpOutOfRange { target, len }),
    }
}

fn write_loc(
    loc: Loc,
    value: i64,
    regs: &mut [i64; Reg::COUNT as usize],
    stack: &mut HashMap<i32, i64>,
    tls: &mut HashMap<u32, i64>,
    globals: &mut HashMap<u32, i64>,
) {
    match loc {
        Loc::Reg(Reg(r)) => regs[r as usize % Reg::COUNT as usize] = value,
        Loc::Stack(off) => {
            stack.insert(off, value);
        }
        Loc::Arg(_) => {
            // Writes to argument slots are modelled as writes to the caller's
            // stack copy; they are not observable after return in SimISA.
        }
        Loc::Global(off) => {
            globals.insert(off, value);
        }
        Loc::Tls(off) => {
            tls.insert(off, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cond;

    fn abi_ret() -> Loc {
        Platform::LinuxX86.abi().return_loc()
    }

    #[test]
    fn returns_constant() {
        let body = vec![Inst::MovImm { dst: abi_ret(), imm: -1 }, Inst::Ret];
        let out = Vm::new(Platform::LinuxX86).run(&body, &[], &mut ConstEnv::default()).unwrap();
        assert_eq!(out.return_value, -1);
        assert_eq!(out.steps, 2);
    }

    #[test]
    fn branches_on_argument() {
        // if arg0 == 0 { return 0 } else { return 5 }
        let body = vec![
            Inst::Cmp { a: Loc::Arg(0), b: Operand::Imm(0) },
            Inst::JmpCond { cond: Cond::Ne, target: 4 },
            Inst::MovImm { dst: abi_ret(), imm: 0 },
            Inst::Ret,
            Inst::MovImm { dst: abi_ret(), imm: 5 },
            Inst::Ret,
        ];
        let vm = Vm::new(Platform::LinuxX86);
        assert_eq!(vm.run(&body, &[0], &mut ConstEnv::default()).unwrap().return_value, 0);
        assert_eq!(vm.run(&body, &[1], &mut ConstEnv::default()).unwrap().return_value, 5);
    }

    #[test]
    fn errno_idiom_sets_tls_via_pic_store() {
        // The §3.2 listing: syscall fails, errno = -result, return -1.
        let abi = Platform::LinuxX86.abi();
        let errno_off = abi.errno_tls_offset() as i32;
        let body = vec![
            Inst::Syscall { num: 6 },
            Inst::LeaPicBase { dst: Reg(3) },
            Inst::Mov { dst: Loc::Reg(Reg(2)), src: abi.return_loc() },
            Inst::Neg { dst: Loc::Reg(Reg(2)) },
            Inst::Store { base: Reg(3), offset: errno_off, src: Operand::Loc(Loc::Reg(Reg(2))) },
            Inst::MovImm { dst: abi.return_loc(), imm: -1 },
            Inst::Ret,
        ];
        let mut env = ConstEnv { call_result: 0, syscall_result: -9 };
        let out = Vm::new(Platform::LinuxX86).run(&body, &[], &mut env).unwrap();
        assert_eq!(out.return_value, -1);
        let module_writes: Vec<_> = out.stores.iter().filter_map(StoreEvent::module_offset).collect();
        assert_eq!(module_writes, vec![abi.errno_tls_offset()]);
        assert_eq!(out.stores[0].value, 9);
    }

    #[test]
    fn call_result_lands_in_return_loc() {
        let body = vec![Inst::Call { sym: 7 }, Inst::Ret];
        let mut env = FnEnv::new(|sym| Ok(i64::from(sym) * 10), |_| 0);
        let out = Vm::new(Platform::LinuxX86).run(&body, &[], &mut env).unwrap();
        assert_eq!(out.return_value, 70);
    }

    #[test]
    fn sparc_uses_different_return_register() {
        let abi = Platform::SolarisSparc.abi();
        let body = vec![
            Inst::MovImm { dst: Loc::Reg(Reg(0)), imm: 42 },
            Inst::MovImm { dst: abi.return_loc(), imm: -2 },
            Inst::Ret,
        ];
        let out = Vm::new(Platform::SolarisSparc).run(&body, &[], &mut ConstEnv::default()).unwrap();
        assert_eq!(out.return_value, -2);
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let body = vec![Inst::Jmp { target: 0 }];
        let vm = Vm::with_options(Platform::LinuxX86, VmOptions { step_limit: 64 });
        let err = vm.run(&body, &[], &mut ConstEnv::default()).unwrap_err();
        assert_eq!(err, IsaError::StepLimitExceeded { limit: 64 });
    }

    #[test]
    fn missing_ret_is_an_error() {
        let body = vec![Inst::Nop];
        let err = Vm::new(Platform::LinuxX86).run(&body, &[], &mut ConstEnv::default()).unwrap_err();
        assert_eq!(err, IsaError::FellOffEnd);
    }

    #[test]
    fn out_of_range_jump_is_an_error() {
        let body = vec![Inst::Jmp { target: 17 }];
        let err = Vm::new(Platform::LinuxX86).run(&body, &[], &mut ConstEnv::default()).unwrap_err();
        assert_eq!(err, IsaError::JumpOutOfRange { target: 17, len: 1 });
    }

    #[test]
    fn negative_indirect_jump_reports_the_original_value() {
        // Regression: a negative indirect target used to be cast `as u32`,
        // so the error reported the wrapped index (4294967293 for -3)
        // instead of the value actually read.
        let body = vec![
            Inst::MovImm { dst: Loc::Reg(Reg(1)), imm: -3 },
            Inst::JmpIndirect { loc: Loc::Reg(Reg(1)) },
            Inst::Ret,
        ];
        let err = Vm::new(Platform::LinuxX86).run(&body, &[], &mut ConstEnv::default()).unwrap_err();
        assert_eq!(err, IsaError::JumpOutOfRange { target: -3, len: 3 });

        // In-range indirect targets still dispatch.
        let body = vec![
            Inst::MovImm { dst: Loc::Reg(Reg(1)), imm: 3 },
            Inst::JmpIndirect { loc: Loc::Reg(Reg(1)) },
            Inst::MovImm { dst: abi_ret(), imm: 9 },
            Inst::Ret,
        ];
        let out = Vm::new(Platform::LinuxX86).run(&body, &[], &mut ConstEnv::default()).unwrap();
        assert_eq!(out.return_value, 0, "instruction 2 is skipped by the jump");
    }

    #[test]
    fn unresolved_call_propagates() {
        let body = vec![Inst::Call { sym: 3 }, Inst::Ret];
        let mut env = FnEnv::new(|sym| Err(IsaError::UnresolvedCall { sym }), |_| 0);
        let err = Vm::new(Platform::LinuxX86).run(&body, &[], &mut env).unwrap_err();
        assert_eq!(err, IsaError::UnresolvedCall { sym: 3 });
    }

    #[test]
    fn alu_operations() {
        let r = abi_ret();
        let cases: Vec<(BinAluOp, i64, i64, i64)> = vec![
            (BinAluOp::Add, 4, 3, 7),
            (BinAluOp::Sub, 4, 3, 1),
            (BinAluOp::And, 0b1100, 0b1010, 0b1000),
            (BinAluOp::Or, 0b1100, 0b1010, 0b1110),
            (BinAluOp::Xor, 0b1100, 0b1010, 0b0110),
            (BinAluOp::Mul, 6, 7, 42),
        ];
        for (op, a, b, expected) in cases {
            let body = vec![Inst::MovImm { dst: r, imm: a }, Inst::Alu { op, dst: r, src: Operand::Imm(b) }, Inst::Ret];
            let out = Vm::new(Platform::LinuxX86).run(&body, &[], &mut ConstEnv::default()).unwrap();
            assert_eq!(out.return_value, expected, "{op:?}");
        }
    }

    #[test]
    fn direct_tls_and_global_writes_are_recorded() {
        let body = vec![
            Inst::MovImm { dst: Loc::Tls(0x10), imm: 5 },
            Inst::MovImm { dst: Loc::Global(0x20), imm: 6 },
            Inst::MovImm { dst: abi_ret(), imm: 0 },
            Inst::Ret,
        ];
        let out = Vm::new(Platform::LinuxX86).run(&body, &[], &mut ConstEnv::default()).unwrap();
        assert_eq!(out.tls_writes.get(&0x10), Some(&5));
        assert_eq!(out.global_writes.get(&0x20), Some(&6));
    }
}
