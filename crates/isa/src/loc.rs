use std::fmt;

use crate::Reg;

/// A *location* a value can live in.
///
/// The LFI return-code analysis is phrased in terms of constants propagating
/// between locations ("memory location or register", §3.1 of the paper).  The
/// product graph `G'` built by the profiler is keyed by `(basic block, Loc)`.
///
/// * [`Loc::Reg`] — a general-purpose register.
/// * [`Loc::Stack`] — a slot in the current frame, identified by its byte
///   offset from the frame base.  Negative offsets are locals, positive
///   offsets are incoming stack arguments (mirroring `[ebp±k]` on IA-32).
/// * [`Loc::Arg`] — an incoming argument slot, abstracted away from the ABI's
///   register/stack split.
/// * [`Loc::Global`] — a module-global data slot at the given offset in the
///   library's data image.
/// * [`Loc::Tls`] — a thread-local slot at the given offset (e.g. `errno`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Loc {
    /// A general-purpose register.
    Reg(Reg),
    /// A frame slot at the given byte offset from the frame base.
    Stack(i32),
    /// The `n`-th incoming argument.
    Arg(u8),
    /// A module-global data slot at the given offset.
    Global(u32),
    /// A thread-local-storage slot at the given offset.
    Tls(u32),
}

impl Loc {
    /// Returns true if this location survives a function call on every SimISA
    /// ABI (i.e. it is not a scratch register).
    ///
    /// Stack, argument, global and TLS slots are always preserved; registers
    /// are treated uniformly as caller-saved, matching the conservative
    /// assumption the LFI profiler makes.
    pub fn survives_calls(self) -> bool {
        !matches!(self, Loc::Reg(_))
    }

    /// Returns true if a write to this location is visible outside the
    /// function activation (the definition of a *side channel* in §3.2).
    pub fn is_side_channel(self) -> bool {
        matches!(self, Loc::Global(_) | Loc::Tls(_))
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Loc::Reg(r) => write!(f, "{r}"),
            Loc::Stack(off) => write!(f, "[fp{off:+}]"),
            Loc::Arg(n) => write!(f, "arg{n}"),
            Loc::Global(off) => write!(f, "global@{off:#x}"),
            Loc::Tls(off) => write!(f, "tls@{off:#x}"),
        }
    }
}

impl From<Reg> for Loc {
    fn from(value: Reg) -> Self {
        Loc::Reg(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Loc::Reg(Reg(0)).to_string(), "r0");
        assert_eq!(Loc::Stack(-8).to_string(), "[fp-8]");
        assert_eq!(Loc::Stack(12).to_string(), "[fp+12]");
        assert_eq!(Loc::Arg(2).to_string(), "arg2");
        assert_eq!(Loc::Global(0x40).to_string(), "global@0x40");
        assert_eq!(Loc::Tls(0x12fff4).to_string(), "tls@0x12fff4");
    }

    #[test]
    fn side_channel_classification() {
        assert!(Loc::Tls(0).is_side_channel());
        assert!(Loc::Global(4).is_side_channel());
        assert!(!Loc::Reg(Reg(0)).is_side_channel());
        assert!(!Loc::Stack(8).is_side_channel());
        assert!(!Loc::Arg(0).is_side_channel());
    }

    #[test]
    fn call_survival() {
        assert!(!Loc::Reg(Reg(3)).survives_calls());
        assert!(Loc::Stack(-4).survives_calls());
        assert!(Loc::Arg(1).survives_calls());
        assert!(Loc::Global(0).survives_calls());
        assert!(Loc::Tls(0).survives_calls());
    }

    #[test]
    fn reg_conversion() {
        assert_eq!(Loc::from(Reg(5)), Loc::Reg(Reg(5)));
    }
}
