//! X10 protocol codes.
//!
//! X10 signalling uses a famously non-contiguous 4-bit code table for
//! house and unit codes (a hardware artefact of the original 1978
//! design), and a 4-bit function set. The tables below are the real ones
//! from the CM11A programming protocol (paper ref. \[15\]).

use std::fmt;

/// A house code, `A` through `P`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HouseCode(char);

/// A unit code, `1` through `16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnitCode(u8);

/// The X10 4-bit code table, indexed by house letter (A..P) or unit
/// number (1..16).
const CODE_TABLE: [u8; 16] = [
    0b0110, // A / 1
    0b1110, // B / 2
    0b0010, // C / 3
    0b1010, // D / 4
    0b0001, // E / 5
    0b1001, // F / 6
    0b0101, // G / 7
    0b1101, // H / 8
    0b0111, // I / 9
    0b1111, // J / 10
    0b0011, // K / 11
    0b1011, // L / 12
    0b0000, // M / 13
    0b1000, // N / 14
    0b0100, // O / 15
    0b1100, // P / 16
];

fn decode_nibble(code: u8) -> Option<usize> {
    CODE_TABLE.iter().position(|c| *c == code & 0x0F)
}

impl HouseCode {
    /// Creates a house code from a letter `A..=P` (case-insensitive).
    pub fn new(letter: char) -> Option<HouseCode> {
        let up = letter.to_ascii_uppercase();
        ('A'..='P').contains(&up).then_some(HouseCode(up))
    }

    /// The letter.
    pub fn letter(self) -> char {
        self.0
    }

    /// The 4-bit wire code.
    pub fn code(self) -> u8 {
        CODE_TABLE[(self.0 as u8 - b'A') as usize]
    }

    /// Inverse of [`HouseCode::code`].
    pub fn from_code(code: u8) -> Option<HouseCode> {
        decode_nibble(code).map(|i| HouseCode((b'A' + i as u8) as char))
    }
}

impl UnitCode {
    /// Creates a unit code from a number `1..=16`.
    pub fn new(unit: u8) -> Option<UnitCode> {
        (1..=16).contains(&unit).then_some(UnitCode(unit))
    }

    /// The unit number.
    pub fn number(self) -> u8 {
        self.0
    }

    /// The 4-bit wire code.
    pub fn code(self) -> u8 {
        CODE_TABLE[(self.0 - 1) as usize]
    }

    /// Inverse of [`UnitCode::code`].
    pub fn from_code(code: u8) -> Option<UnitCode> {
        decode_nibble(code).map(|i| UnitCode(i as u8 + 1))
    }
}

impl fmt::Display for HouseCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for UnitCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An X10 function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Function {
    /// All units in the house off.
    AllUnitsOff,
    /// All lamp modules on.
    AllLightsOn,
    /// Switch the addressed unit(s) on.
    On,
    /// Switch the addressed unit(s) off.
    Off,
    /// Dim the addressed lamp(s) one step.
    Dim,
    /// Brighten the addressed lamp(s) one step.
    Bright,
    /// All lamp modules off.
    AllLightsOff,
    /// Status request (two-way modules).
    StatusRequest,
    /// Status reply: on.
    StatusOn,
    /// Status reply: off.
    StatusOff,
}

impl Function {
    /// The 4-bit wire code.
    pub fn code(self) -> u8 {
        match self {
            Function::AllUnitsOff => 0b0000,
            Function::AllLightsOn => 0b0001,
            Function::On => 0b0010,
            Function::Off => 0b0011,
            Function::Dim => 0b0100,
            Function::Bright => 0b0101,
            Function::AllLightsOff => 0b0110,
            Function::StatusOn => 0b1101,
            Function::StatusOff => 0b1110,
            Function::StatusRequest => 0b1111,
        }
    }

    /// Inverse of [`Function::code`].
    pub fn from_code(code: u8) -> Option<Function> {
        match code & 0x0F {
            0b0000 => Some(Function::AllUnitsOff),
            0b0001 => Some(Function::AllLightsOn),
            0b0010 => Some(Function::On),
            0b0011 => Some(Function::Off),
            0b0100 => Some(Function::Dim),
            0b0101 => Some(Function::Bright),
            0b0110 => Some(Function::AllLightsOff),
            0b1101 => Some(Function::StatusOn),
            0b1110 => Some(Function::StatusOff),
            0b1111 => Some(Function::StatusRequest),
            _ => None,
        }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Function::AllUnitsOff => "AllUnitsOff",
            Function::AllLightsOn => "AllLightsOn",
            Function::On => "On",
            Function::Off => "Off",
            Function::Dim => "Dim",
            Function::Bright => "Bright",
            Function::AllLightsOff => "AllLightsOff",
            Function::StatusRequest => "StatusRequest",
            Function::StatusOn => "StatusOn",
            Function::StatusOff => "StatusOff",
        };
        f.write_str(s)
    }
}

/// A frame on the powerline: either an address selection or a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum X10Frame {
    /// Latch a unit for the following function.
    Address {
        /// House.
        house: HouseCode,
        /// Unit to latch.
        unit: UnitCode,
    },
    /// Apply a function to latched units (or house-wide).
    Function {
        /// House.
        house: HouseCode,
        /// Function.
        function: Function,
        /// Dim/bright step count (0..=22), meaningful for `Dim`/`Bright`.
        dims: u8,
    },
}

impl X10Frame {
    /// Serialises to the 2-byte powerline representation:
    /// `[flags, house<<4 | code]` where bit0 of flags marks a function
    /// frame and the upper bits carry the dim count.
    pub fn encode(self) -> [u8; 2] {
        match self {
            X10Frame::Address { house, unit } => [0x00, house.code() << 4 | unit.code()],
            X10Frame::Function {
                house,
                function,
                dims,
            } => [
                0x01 | (dims.min(22) << 3),
                house.code() << 4 | function.code(),
            ],
        }
    }

    /// Inverse of [`X10Frame::encode`].
    pub fn decode(data: &[u8]) -> Option<X10Frame> {
        if data.len() != 2 {
            return None;
        }
        let house = HouseCode::from_code(data[1] >> 4)?;
        if data[0] & 0x01 == 0 {
            Some(X10Frame::Address {
                house,
                unit: UnitCode::from_code(data[1])?,
            })
        } else {
            Some(X10Frame::Function {
                house,
                function: Function::from_code(data[1])?,
                dims: data[0] >> 3,
            })
        }
    }

    /// The house this frame belongs to.
    pub fn house(self) -> HouseCode {
        match self {
            X10Frame::Address { house, .. } | X10Frame::Function { house, .. } => house,
        }
    }
}

impl fmt::Display for X10Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            X10Frame::Address { house, unit } => write!(f, "{}{}", house.letter(), unit.number()),
            X10Frame::Function {
                house,
                function,
                dims,
            } => {
                if *dims > 0 {
                    write!(f, "{} {function}({dims})", house.letter())
                } else {
                    write!(f, "{} {function}", house.letter())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn house_codes_use_the_real_table() {
        // Spot checks against the CM11A protocol document.
        assert_eq!(HouseCode::new('A').unwrap().code(), 0b0110);
        assert_eq!(HouseCode::new('M').unwrap().code(), 0b0000);
        assert_eq!(HouseCode::new('P').unwrap().code(), 0b1100);
        assert_eq!(UnitCode::new(1).unwrap().code(), 0b0110);
        assert_eq!(UnitCode::new(16).unwrap().code(), 0b1100);
    }

    #[test]
    fn all_house_and_unit_codes_round_trip() {
        for letter in 'A'..='P' {
            let h = HouseCode::new(letter).unwrap();
            assert_eq!(HouseCode::from_code(h.code()), Some(h));
        }
        for n in 1..=16 {
            let u = UnitCode::new(n).unwrap();
            assert_eq!(UnitCode::from_code(u.code()), Some(u));
        }
    }

    #[test]
    fn invalid_codes_rejected() {
        assert!(HouseCode::new('Q').is_none());
        assert!(HouseCode::new('1').is_none());
        assert!(UnitCode::new(0).is_none());
        assert!(UnitCode::new(17).is_none());
        assert!(HouseCode::new('a').is_some(), "lowercase accepted");
    }

    #[test]
    fn functions_round_trip() {
        for f in [
            Function::AllUnitsOff,
            Function::AllLightsOn,
            Function::On,
            Function::Off,
            Function::Dim,
            Function::Bright,
            Function::AllLightsOff,
            Function::StatusRequest,
            Function::StatusOn,
            Function::StatusOff,
        ] {
            assert_eq!(Function::from_code(f.code()), Some(f));
        }
        assert_eq!(Function::from_code(0b0111), None); // extended code unsupported
    }

    #[test]
    fn frames_round_trip() {
        let a = X10Frame::Address {
            house: HouseCode::new('C').unwrap(),
            unit: UnitCode::new(7).unwrap(),
        };
        assert_eq!(X10Frame::decode(&a.encode()), Some(a));
        let f = X10Frame::Function {
            house: HouseCode::new('C').unwrap(),
            function: Function::Dim,
            dims: 11,
        };
        assert_eq!(X10Frame::decode(&f.encode()), Some(f));
        assert_eq!(X10Frame::decode(&[1, 2, 3]), None);
        assert_eq!(X10Frame::decode(&[0]), None);
    }

    #[test]
    fn display_formats() {
        let h = HouseCode::new('A').unwrap();
        let u = UnitCode::new(3).unwrap();
        assert_eq!(X10Frame::Address { house: h, unit: u }.to_string(), "A3");
        assert_eq!(
            X10Frame::Function {
                house: h,
                function: Function::On,
                dims: 0
            }
            .to_string(),
            "A On"
        );
    }
}
