//! HAVi's native parameter encoding.
//!
//! HAVi messages carry compact binary parameter lists (the spec's CDR-like
//! marshalling) — much terser than Jini's Java serialization, which is
//! exactly the kind of representation gap the Protocol Conversion Manager
//! exists to bridge.

use std::fmt;

/// A parameter in a HAVi message.
#[derive(Debug, Clone, PartialEq)]
pub enum HValue {
    /// `boolean`.
    Bool(bool),
    /// `octet`.
    U8(u8),
    /// `ushort`.
    U16(u16),
    /// `ulong`.
    U32(u32),
    /// A counted string.
    Str(String),
    /// A counted octet sequence.
    Bytes(Vec<u8>),
}

impl HValue {
    /// The integer content widened to u32, if numeric.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            HValue::U8(v) => Some(u32::from(*v)),
            HValue::U16(v) => Some(u32::from(*v)),
            HValue::U32(v) => Some(*v),
            _ => None,
        }
    }

    /// The string inside, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            HValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean inside, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            HValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The parameter's size on the wire.
    fn wire_len(&self) -> usize {
        match self {
            HValue::Bool(_) | HValue::U8(_) => 2,
            HValue::U16(_) => 3,
            HValue::U32(_) => 5,
            HValue::Str(s) => 3 + s.len(),
            HValue::Bytes(b) => 3 + b.len(),
        }
    }

    fn write(&self, out: &mut Vec<u8>) {
        match self {
            HValue::Bool(b) => {
                out.push(0);
                out.push(u8::from(*b));
            }
            HValue::U8(v) => {
                out.push(1);
                out.push(*v);
            }
            HValue::U16(v) => {
                out.push(2);
                out.extend_from_slice(&v.to_be_bytes());
            }
            HValue::U32(v) => {
                out.push(3);
                out.extend_from_slice(&v.to_be_bytes());
            }
            HValue::Str(s) => {
                out.push(4);
                out.extend_from_slice(&(s.len() as u16).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            HValue::Bytes(b) => {
                out.push(5);
                out.extend_from_slice(&(b.len() as u16).to_be_bytes());
                out.extend_from_slice(b);
            }
        }
    }

    fn read(data: &[u8], pos: &mut usize) -> Result<HValue, CodecError> {
        let tag = *data.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], CodecError> {
            let end = *pos + n;
            if end > data.len() {
                return Err(CodecError::Truncated);
            }
            let s = &data[*pos..end];
            *pos = end;
            Ok(s)
        };
        match tag {
            0 => Ok(HValue::Bool(take(pos, 1)?[0] != 0)),
            1 => Ok(HValue::U8(take(pos, 1)?[0])),
            2 => Ok(HValue::U16(u16::from_be_bytes(
                take(pos, 2)?.try_into().unwrap(),
            ))),
            3 => Ok(HValue::U32(u32::from_be_bytes(
                take(pos, 4)?.try_into().unwrap(),
            ))),
            4 => {
                let len = u16::from_be_bytes(take(pos, 2)?.try_into().unwrap()) as usize;
                let bytes = take(pos, len)?;
                String::from_utf8(bytes.to_vec())
                    .map(HValue::Str)
                    .map_err(|_| CodecError::BadString)
            }
            5 => {
                let len = u16::from_be_bytes(take(pos, 2)?.try_into().unwrap()) as usize;
                Ok(HValue::Bytes(take(pos, len)?.to_vec()))
            }
            t => Err(CodecError::UnknownTag(t)),
        }
    }
}

/// The size on the wire of a parameter list: what [`write_params`]
/// appends.
pub(crate) fn params_len(params: &[HValue]) -> usize {
    1 + params.iter().map(HValue::wire_len).sum::<usize>()
}

/// The most parameters a list's one-byte count holds.
pub const MAX_PARAMS: usize = u8::MAX as usize;
/// The longest string or byte run a two-byte length prefix holds.
pub const MAX_RUN: usize = u16::MAX as usize;

/// Checks that a parameter list fits its wire form: at most
/// [`MAX_PARAMS`] parameters, and no string or byte run longer than
/// [`MAX_RUN`] bytes. A list that does not fit would be written with a
/// wrapped count or length and misread at the other end.
pub(crate) fn check_params(params: &[HValue]) -> Result<(), CodecError> {
    if params.len() > MAX_PARAMS {
        return Err(CodecError::TooMany(params.len()));
    }
    for p in params {
        let run = match p {
            HValue::Str(s) => s.len(),
            HValue::Bytes(b) => b.len(),
            _ => 0,
        };
        if run > MAX_RUN {
            return Err(CodecError::TooLong(run));
        }
    }
    Ok(())
}

/// Appends a parameter list, already checked by [`check_params`], to a
/// frame being written.
pub(crate) fn write_params(params: &[HValue], out: &mut Vec<u8>) {
    out.push(params.len() as u8);
    for p in params {
        p.write(out);
    }
}

/// Encodes a parameter list into a buffer of its own, or refuses one
/// that does not fit its wire form.
pub fn encode_params(params: &[HValue]) -> Result<Vec<u8>, CodecError> {
    check_params(params)?;
    let mut out = Vec::with_capacity(params_len(params));
    write_params(params, &mut out);
    Ok(out)
}

/// Decodes a parameter list; must consume all input.
pub fn decode_params(data: &[u8]) -> Result<Vec<HValue>, CodecError> {
    let count = *data.first().ok_or(CodecError::Truncated)? as usize;
    let mut pos = 1;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(HValue::read(data, &mut pos)?);
    }
    if pos != data.len() {
        return Err(CodecError::Trailing);
    }
    Ok(out)
}

/// Parameter codec failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of bytes mid-value.
    Truncated,
    /// Unknown type tag.
    UnknownTag(u8),
    /// A string was not valid UTF-8.
    BadString,
    /// Bytes left over after the declared parameter count.
    Trailing,
    /// A string or byte run of this many bytes, more than a length
    /// prefix holds ([`MAX_RUN`]): refused before it is written.
    TooLong(usize),
    /// This many parameters, more than a list's count holds
    /// ([`MAX_PARAMS`]): refused before they are written.
    TooMany(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated parameter list"),
            CodecError::UnknownTag(t) => write!(f, "unknown parameter tag {t}"),
            CodecError::BadString => write!(f, "invalid UTF-8 in string parameter"),
            CodecError::Trailing => write!(f, "trailing bytes after parameters"),
            CodecError::TooLong(n) => {
                write!(
                    f,
                    "a parameter of {n} bytes is over the {MAX_RUN} its length holds"
                )
            }
            CodecError::TooMany(n) => {
                write!(f, "{n} parameters are over the {MAX_PARAMS} a list holds")
            }
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_round_trip() {
        let params = vec![
            HValue::Bool(true),
            HValue::U8(7),
            HValue::U16(300),
            HValue::U32(70_000),
            HValue::Str("camera".into()),
            HValue::Bytes(vec![1, 2, 3]),
        ];
        let enc = encode_params(&params).unwrap();
        assert_eq!(decode_params(&enc).unwrap(), params);
        assert_eq!(params_len(&params), enc.len());
        assert_eq!(enc.capacity(), enc.len(), "one exactly sized buffer");
    }

    #[test]
    fn empty_list() {
        let enc = encode_params(&[]).unwrap();
        assert_eq!(enc, vec![0]);
        assert!(decode_params(&enc).unwrap().is_empty());
    }

    #[test]
    fn error_cases() {
        assert_eq!(decode_params(&[]), Err(CodecError::Truncated));
        assert_eq!(decode_params(&[1]), Err(CodecError::Truncated));
        assert_eq!(decode_params(&[1, 99, 0]), Err(CodecError::UnknownTag(99)));
        // Trailing bytes.
        let mut enc = encode_params(&[HValue::U8(1)]).unwrap();
        enc.push(0);
        assert_eq!(decode_params(&enc), Err(CodecError::Trailing));
        // Bad UTF-8.
        let enc = vec![1, 4, 0, 2, 0xff, 0xfe];
        assert_eq!(decode_params(&enc), Err(CodecError::BadString));
    }

    #[test]
    fn lists_past_their_prefixes_are_refused() {
        for fits in [
            vec![HValue::Str("x".repeat(MAX_RUN))],
            vec![HValue::Bytes(vec![7; MAX_RUN])],
            vec![HValue::U8(1); MAX_PARAMS],
        ] {
            assert_eq!(decode_params(&encode_params(&fits).unwrap()), Ok(fits));
        }
        assert_eq!(
            encode_params(&[HValue::Str("x".repeat(MAX_RUN + 1))]),
            Err(CodecError::TooLong(MAX_RUN + 1))
        );
        assert_eq!(
            encode_params(&[HValue::U8(0), HValue::Bytes(vec![0; 70_000])]),
            Err(CodecError::TooLong(70_000))
        );
        assert_eq!(
            encode_params(&vec![HValue::Bool(true); MAX_PARAMS + 1]),
            Err(CodecError::TooMany(MAX_PARAMS + 1))
        );
    }

    #[test]
    fn havi_encoding_is_compact() {
        // The same logical payload is far smaller than Jini's marshalled
        // object form — the representation gap E3/E4 measure.
        let enc = encode_params(&[HValue::U16(42), HValue::Bool(true)]).unwrap();
        assert!(enc.len() <= 8, "got {} bytes", enc.len());
    }

    #[test]
    fn accessors() {
        assert_eq!(HValue::U8(5).as_u32(), Some(5));
        assert_eq!(HValue::U16(5).as_u32(), Some(5));
        assert_eq!(HValue::U32(5).as_u32(), Some(5));
        assert_eq!(HValue::Str("x".into()).as_u32(), None);
        assert_eq!(HValue::Str("x".into()).as_str(), Some("x"));
        assert_eq!(HValue::Bool(true).as_bool(), Some(true));
    }
}
