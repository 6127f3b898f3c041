//! The tree-built codec that the one-pass writer and the view replaced,
//! kept as a test oracle: a recursive writer and reader with one owned
//! node per value and no depth bound, and the RMI frames as they were
//! built and read as object trees. The new frames must be these bytes,
//! and the new readers must give what these give below the depth bound.

use crate::jvalue::{class_uid, JValue, MarshalError, STREAM_MAGIC};
use crate::rmi::JiniError;

/// Serialises through a growing buffer.
pub fn marshal(v: &JValue) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(STREAM_MAGIC);
    write(v, &mut out);
    out
}

fn write(v: &JValue, out: &mut Vec<u8>) {
    match v {
        JValue::Null => out.push(0x70),
        JValue::Bool(b) => {
            out.push(0x01);
            out.push(u8::from(*b));
        }
        JValue::Int(i) => {
            out.push(0x02);
            out.extend_from_slice(&i.to_be_bytes());
        }
        JValue::Double(d) => {
            out.push(0x03);
            out.extend_from_slice(&d.to_be_bytes());
        }
        JValue::Str(s) => {
            out.push(0x04);
            write_utf(out, s);
        }
        JValue::Bytes(b) => {
            out.push(0x05);
            out.extend_from_slice(&(b.len() as u32).to_be_bytes());
            out.extend_from_slice(b);
        }
        JValue::List(items) => {
            out.push(0x06);
            out.extend_from_slice(&(items.len() as u32).to_be_bytes());
            for item in items {
                write(item, out);
            }
        }
        JValue::Object { class, fields } => {
            out.push(0x07);
            write_utf(out, class);
            out.extend_from_slice(&class_uid(class).to_be_bytes());
            out.extend_from_slice(&(fields.len() as u16).to_be_bytes());
            for (name, value) in fields {
                write_utf(out, name);
                write(value, out);
            }
        }
    }
}

fn write_utf(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Deserialises by recursive descent, one level of the Rust stack per
/// level of nesting.
pub fn unmarshal(data: &[u8]) -> Result<JValue, MarshalError> {
    if data.len() < 4 || &data[..4] != STREAM_MAGIC {
        return Err(MarshalError::new("bad stream magic"));
    }
    let mut pos = 4;
    let v = read(data, &mut pos)?;
    if pos != data.len() {
        return Err(MarshalError::new("trailing bytes in stream"));
    }
    Ok(v)
}

fn read(data: &[u8], pos: &mut usize) -> Result<JValue, MarshalError> {
    let tag = *data
        .get(*pos)
        .ok_or_else(|| MarshalError::new("truncated stream"))?;
    *pos += 1;
    match tag {
        0x70 => Ok(JValue::Null),
        0x01 => {
            let b = *data
                .get(*pos)
                .ok_or_else(|| MarshalError::new("truncated bool"))?;
            *pos += 1;
            Ok(JValue::Bool(b != 0))
        }
        0x02 => Ok(JValue::Int(i64::from_be_bytes(
            take(data, pos, 8)?.try_into().unwrap(),
        ))),
        0x03 => Ok(JValue::Double(f64::from_be_bytes(
            take(data, pos, 8)?.try_into().unwrap(),
        ))),
        0x04 => Ok(JValue::Str(read_utf(data, pos)?)),
        0x05 => {
            let len = read_u32(data, pos)? as usize;
            Ok(JValue::Bytes(take(data, pos, len)?.to_vec()))
        }
        0x06 => {
            let len = read_u32(data, pos)? as usize;
            if len > data.len() {
                return Err(MarshalError::new("implausible list length"));
            }
            let mut items = Vec::with_capacity(len);
            for _ in 0..len {
                items.push(read(data, pos)?);
            }
            Ok(JValue::List(items))
        }
        0x07 => {
            let class = read_utf(data, pos)?;
            let uid = i64::from_be_bytes(take(data, pos, 8)?.try_into().unwrap());
            if uid != class_uid(&class) {
                return Err(MarshalError::new(format!(
                    "serialVersionUID mismatch for {class}"
                )));
            }
            let nfields = u16::from_be_bytes(take(data, pos, 2)?.try_into().unwrap()) as usize;
            let mut fields = Vec::with_capacity(nfields);
            for _ in 0..nfields {
                let name = read_utf(data, pos)?;
                let value = read(data, pos)?;
                fields.push((name, value));
            }
            Ok(JValue::Object { class, fields })
        }
        t => Err(MarshalError::new(format!("unknown tag 0x{t:02x}"))),
    }
}

fn read_utf(data: &[u8], pos: &mut usize) -> Result<String, MarshalError> {
    let len = u16::from_be_bytes(take(data, pos, 2)?.try_into().unwrap()) as usize;
    let bytes = take(data, pos, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| MarshalError::new("invalid UTF-8 string"))
}

fn read_u32(data: &[u8], pos: &mut usize) -> Result<u32, MarshalError> {
    Ok(u32::from_be_bytes(take(data, pos, 4)?.try_into().unwrap()))
}

fn take<'a>(data: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], MarshalError> {
    let end = pos
        .checked_add(n)
        .ok_or_else(|| MarshalError::new("overflow"))?;
    if end > data.len() {
        return Err(MarshalError::new("truncated stream"));
    }
    let slice = &data[*pos..end];
    *pos = end;
    Ok(slice)
}

/// The client's `RmiCall`: an object tree holding a copy of the method
/// name and of every argument, then marshalled.
pub fn call_tree(object_id: u64, method: &str, args: &[JValue]) -> Vec<u8> {
    marshal(&JValue::object(
        "RmiCall",
        vec![
            ("objectId".into(), JValue::Int(object_id as i64)),
            ("method".into(), JValue::Str(method.to_owned())),
            ("args".into(), JValue::List(args.to_vec())),
        ],
    ))
}

/// The exporter's `RmiResult` for a returned value.
pub fn ok_tree(v: JValue) -> Vec<u8> {
    marshal(&JValue::object(
        "RmiResult",
        vec![("ok".into(), JValue::Bool(true)), ("value".into(), v)],
    ))
}

/// The exporter's `RmiResult` for a remote exception.
pub fn err_tree(e: &str) -> Vec<u8> {
    marshal(&JValue::object(
        "RmiResult",
        vec![
            ("ok".into(), JValue::Bool(false)),
            ("error".into(), JValue::Str(e.to_owned())),
        ],
    ))
}

/// The exporter's reader: the whole tree, then its fields.
pub fn decode_call(data: &[u8]) -> Result<(u64, String, Vec<JValue>), MarshalError> {
    let v = unmarshal(data)?;
    let object_id = v
        .field("objectId")
        .and_then(JValue::as_int)
        .ok_or_else(|| MarshalError::new("missing objectId"))? as u64;
    let method = v
        .field("method")
        .and_then(JValue::as_str)
        .ok_or_else(|| MarshalError::new("missing method"))?
        .to_owned();
    let args = match v.field("args") {
        Some(JValue::List(items)) => items.clone(),
        _ => return Err(MarshalError::new("missing args")),
    };
    Ok((object_id, method, args))
}

/// The client's reader: the whole tree, then a copy of its `value`.
pub fn decode_result(data: &[u8]) -> Result<JValue, JiniError> {
    let v = unmarshal(data)?;
    match v.field("ok").and_then(JValue::as_bool) {
        Some(true) => Ok(v.field("value").cloned().unwrap_or(JValue::Null)),
        Some(false) => Err(JiniError::Remote(
            v.field("error")
                .and_then(JValue::as_str)
                .unwrap_or("unknown")
                .to_owned(),
        )),
        None => Err(JiniError::Protocol("malformed RMI reply".into())),
    }
}
