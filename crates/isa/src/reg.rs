use std::fmt;

/// A general-purpose register of the SimISA machine.
///
/// SimISA exposes 16 general-purpose registers, `r0` through `r15`.  Platform
/// ABIs assign roles to registers (return value, argument passing, PIC base);
/// see [`crate::Abi`].
///
/// ```
/// use lfi_isa::Reg;
/// assert_eq!(Reg(3).to_string(), "r3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Number of general-purpose registers in the machine.
    pub const COUNT: u8 = 16;

    /// Returns true if the register index is within the architectural range.
    pub fn is_valid(self) -> bool {
        self.0 < Self::COUNT
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u8> for Reg {
    fn from(value: u8) -> Self {
        Reg(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_index() {
        for i in 0..Reg::COUNT {
            assert_eq!(Reg(i).to_string(), format!("r{i}"));
        }
    }

    #[test]
    fn validity_bound() {
        assert!(Reg(0).is_valid());
        assert!(Reg(15).is_valid());
        assert!(!Reg(16).is_valid());
        assert!(!Reg(255).is_valid());
    }

    #[test]
    fn ordering_follows_index() {
        assert!(Reg(1) < Reg(2));
        assert_eq!(Reg::from(7u8), Reg(7));
    }
}
