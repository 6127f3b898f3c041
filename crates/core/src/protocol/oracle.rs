//! The decoders the validated binval view replaced, kept verbatim as
//! test oracles: binval's owned walker (`decode`), its borrowed-tree
//! walker (`decode_ref`) and the lazy outer list over it
//! (`ListStream`), and the binary and SIP-like frame decoders built on
//! them. For every input no deeper than [`super::binval::MAX_DEPTH`]
//! the view-based decoders must accept, reject and decode exactly as
//! these do. The one intended difference is the coalesced NOTIFY: the
//! old receiver delivered the run groups before the first undecodable
//! one, the new one drops a frame that fails validation as a whole.

use crate::error::MetaError;
use crate::protocol::VsgRequest;
use crate::trace::TraceContext;
use soap::Value;

mod binval {
    use soap::Value;

    /// Decodes one value, advancing `pos`.
    pub fn decode(data: &[u8], pos: &mut usize) -> Option<Value> {
        let tag = *data.get(*pos)?;
        *pos += 1;
        match tag {
            0 => Some(Value::Null),
            1 => {
                let b = *data.get(*pos)?;
                *pos += 1;
                Some(Value::Bool(b != 0))
            }
            2 => {
                let bytes = data.get(*pos..*pos + 8)?;
                *pos += 8;
                Some(Value::Int(i64::from_le_bytes(bytes.try_into().ok()?)))
            }
            3 => {
                let bytes = data.get(*pos..*pos + 8)?;
                *pos += 8;
                Some(Value::Float(f64::from_le_bytes(bytes.try_into().ok()?)))
            }
            4 => {
                let len = read_len(data, pos)?;
                let bytes = data.get(*pos..*pos + len)?;
                *pos += len;
                Some(Value::Str(std::str::from_utf8(bytes).ok()?.to_owned()))
            }
            5 => {
                let len = read_len(data, pos)?;
                let bytes = data.get(*pos..*pos + len)?;
                *pos += len;
                Some(Value::Bytes(bytes.to_vec()))
            }
            6 => {
                let len = read_len(data, pos)?;
                if len > data.len() {
                    return None;
                }
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    items.push(decode(data, pos)?);
                }
                Some(Value::List(items))
            }
            7 => {
                let len = read_len(data, pos)?;
                if len > data.len() {
                    return None;
                }
                let mut fields = Vec::with_capacity(len);
                for _ in 0..len {
                    let klen = read_len(data, pos)?;
                    let kbytes = data.get(*pos..*pos + klen)?;
                    *pos += klen;
                    let key = std::str::from_utf8(kbytes).ok()?.to_owned();
                    fields.push((key, decode(data, pos)?));
                }
                Some(Value::Record(fields))
            }
            _ => None,
        }
    }

    /// Decodes a whole buffer; fails on trailing bytes.
    pub fn from_bytes(data: &[u8]) -> Option<Value> {
        let mut pos = 0;
        let v = decode(data, &mut pos)?;
        (pos == data.len()).then_some(v)
    }

    // ---- borrowed decode ---------------------------------------------------

    /// A value decoded without copying: strings and byte runs are slices of
    /// the frame buffer; only list/record spines allocate.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ValueRef<'a> {
        /// Explicit null.
        Null,
        /// Boolean.
        Bool(bool),
        /// 64-bit integer.
        Int(i64),
        /// 64-bit float.
        Float(f64),
        /// String slice of the frame.
        Str(&'a str),
        /// Byte slice of the frame.
        Bytes(&'a [u8]),
        /// Ordered list.
        List(Vec<ValueRef<'a>>),
        /// Named fields in order.
        Record(Vec<(&'a str, ValueRef<'a>)>),
    }

    impl<'a> ValueRef<'a> {
        /// Copies into an owned [`Value`].
        pub fn to_owned(&self) -> Value {
            match self {
                ValueRef::Null => Value::Null,
                ValueRef::Bool(b) => Value::Bool(*b),
                ValueRef::Int(i) => Value::Int(*i),
                ValueRef::Float(f) => Value::Float(*f),
                ValueRef::Str(s) => Value::Str((*s).to_owned()),
                ValueRef::Bytes(b) => Value::Bytes(b.to_vec()),
                ValueRef::List(items) => {
                    Value::List(items.iter().map(ValueRef::to_owned).collect())
                }
                ValueRef::Record(fields) => Value::Record(
                    fields
                        .iter()
                        .map(|(k, v)| ((*k).to_owned(), v.to_owned()))
                        .collect(),
                ),
            }
        }

        /// The string slice, if this is a `Str`.
        pub fn as_str(&self) -> Option<&'a str> {
            match self {
                ValueRef::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The named field's value, if this is a `Record` containing it.
        pub fn field(&self, name: &str) -> Option<&ValueRef<'a>> {
            match self {
                ValueRef::Record(fields) => fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v),
                _ => None,
            }
        }
    }

    /// Decodes one value without copying, advancing `pos`.
    pub fn decode_ref<'a>(data: &'a [u8], pos: &mut usize) -> Option<ValueRef<'a>> {
        let tag = *data.get(*pos)?;
        *pos += 1;
        match tag {
            0 => Some(ValueRef::Null),
            1 => {
                let b = *data.get(*pos)?;
                *pos += 1;
                Some(ValueRef::Bool(b != 0))
            }
            2 => {
                let bytes = data.get(*pos..*pos + 8)?;
                *pos += 8;
                Some(ValueRef::Int(i64::from_le_bytes(bytes.try_into().ok()?)))
            }
            3 => {
                let bytes = data.get(*pos..*pos + 8)?;
                *pos += 8;
                Some(ValueRef::Float(f64::from_le_bytes(bytes.try_into().ok()?)))
            }
            4 => {
                let len = read_len(data, pos)?;
                let bytes = data.get(*pos..*pos + len)?;
                *pos += len;
                Some(ValueRef::Str(std::str::from_utf8(bytes).ok()?))
            }
            5 => {
                let len = read_len(data, pos)?;
                let bytes = data.get(*pos..*pos + len)?;
                *pos += len;
                Some(ValueRef::Bytes(bytes))
            }
            6 => {
                let len = read_len(data, pos)?;
                if len > data.len() {
                    return None;
                }
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    items.push(decode_ref(data, pos)?);
                }
                Some(ValueRef::List(items))
            }
            7 => {
                let len = read_len(data, pos)?;
                if len > data.len() {
                    return None;
                }
                let mut fields = Vec::with_capacity(len);
                for _ in 0..len {
                    let klen = read_len(data, pos)?;
                    let kbytes = data.get(*pos..*pos + klen)?;
                    *pos += klen;
                    let key = std::str::from_utf8(kbytes).ok()?;
                    fields.push((key, decode_ref(data, pos)?));
                }
                Some(ValueRef::Record(fields))
            }
            _ => None,
        }
    }

    /// Decodes a whole buffer without copying; fails on trailing bytes.
    pub fn from_bytes_ref(data: &[u8]) -> Option<ValueRef<'_>> {
        let mut pos = 0;
        let v = decode_ref(data, &mut pos)?;
        (pos == data.len()).then_some(v)
    }

    /// Single-pass iteration over a wire-form list's items.
    ///
    /// Where [`from_bytes`] on a batch frame materialises the outer
    /// `Value::List` *and* every member before the first one is looked at,
    /// `ListStream` verifies only the list header up front and then decodes
    /// one member per [`ListStream::next_ref`] call — the demultiplexer can
    /// convert, dispatch and drop each member before touching the next.
    pub struct ListStream<'a> {
        data: &'a [u8],
        pos: usize,
        remaining: usize,
    }

    impl<'a> ListStream<'a> {
        /// Opens the list wire form starting at `data[0]`. Fails unless a
        /// list header is present.
        pub fn open(data: &'a [u8]) -> Option<ListStream<'a>> {
            let mut pos = 0;
            if *data.get(pos)? != 6 {
                return None;
            }
            pos += 1;
            let remaining = read_len(data, &mut pos)?;
            if remaining > data.len() {
                return None;
            }
            Some(ListStream {
                data,
                pos,
                remaining,
            })
        }

        /// Number of items not yet decoded.
        pub fn remaining(&self) -> usize {
            self.remaining
        }

        /// Decodes the next item without copying; `None` when exhausted or
        /// on a malformed item.
        pub fn next_ref(&mut self) -> Option<ValueRef<'a>> {
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            decode_ref(self.data, &mut self.pos)
        }

        /// True if every announced item was decoded and the buffer holds
        /// no trailing bytes.
        pub fn finished_clean(&self) -> bool {
            self.remaining == 0 && self.pos == self.data.len()
        }
    }

    fn read_len(data: &[u8], pos: &mut usize) -> Option<usize> {
        let mut n: u64 = 0;
        let mut shift = 0;
        loop {
            let byte = *data.get(*pos)?;
            *pos += 1;
            n |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
            if shift > 56 {
                return None;
            }
        }
        usize::try_from(n).ok()
    }
}

fn member_from_ref(v: &binval::ValueRef<'_>) -> Option<VsgRequest> {
    use binval::ValueRef;
    let service = v.field("s")?.as_str()?;
    let operation = v.field("o")?.as_str()?.to_owned();
    let args = match v.field("a")? {
        ValueRef::Record(fields) => fields
            .iter()
            .map(|(k, val)| ((*k).to_owned(), val.to_owned()))
            .collect(),
        _ => return None,
    };
    let trace = v
        .field("t")
        .and_then(ValueRef::as_str)
        .and_then(TraceContext::from_wire);
    Some(VsgRequest {
        service: service.into(),
        operation: operation.into(),
        args,
        trace,
    })
}

fn result_from_ref(v: &binval::ValueRef<'_>) -> Result<Value, MetaError> {
    if let Some(ok) = v.field("ok") {
        return Ok(ok.to_owned());
    }
    match v.field("err").and_then(binval::ValueRef::as_str) {
        Some(fault) => Err(MetaError::from_fault_string(fault)),
        None => Err(MetaError::Protocol("malformed batch member result".into())),
    }
}

// ---- compact binary frames ----

const MAGIC: &[u8; 4] = b"VSGB";
const TAG_FAULT: u8 = 0;
const TAG_OK: u8 = 1;
const TAG_UNKNOWN_SERVICE: u8 = 2;
const TAG_BATCH: u8 = 3;

fn decode_request(data: &[u8]) -> Option<VsgRequest> {
    // Borrowed decode: the request body has exactly the batch-member
    // shape {s, o, a[, t]}, and `member_from_ref` converts it to an
    // owned request straight from frame slices — the old path built an
    // owned `Value` tree first and then cloned the argument list out
    // of it, buffering every string twice.
    let body = binval::from_bytes_ref(data.strip_prefix(MAGIC)?)?;
    member_from_ref(&body)
}

fn decode_batch_request(data: &[u8]) -> Option<Vec<VsgRequest>> {
    // The batch head is fixed: Record{1 field} with key "B" — match its
    // four wire bytes directly, then stream the member list. Each
    // member is converted to an owned request and its borrowed form
    // dropped before the next is decoded, so peak live decode state is
    // one member, not the whole frame's value tree.
    let rest = data.strip_prefix(MAGIC)?.strip_prefix(&[7u8, 1, 1, b'B'])?;
    let mut stream = binval::ListStream::open(rest)?;
    let mut reqs = Vec::with_capacity(stream.remaining());
    while stream.remaining() > 0 {
        reqs.push(member_from_ref(&stream.next_ref()?)?);
    }
    stream.finished_clean().then_some(reqs)
}

fn decode_batch_reply(data: &[u8]) -> Result<Vec<Result<Value, MetaError>>, MetaError> {
    let bad = || MetaError::Protocol("bad batch reply body".into());
    match data.split_first() {
        Some((&TAG_BATCH, rest)) => {
            // Stream the result list: an undecodable member fails the
            // whole frame (as `from_bytes` used to); a decodable member
            // of the wrong shape stays a per-member error.
            let mut stream = binval::ListStream::open(rest).ok_or_else(bad)?;
            let mut results = Vec::with_capacity(stream.remaining());
            while stream.remaining() > 0 {
                let member = stream.next_ref().ok_or_else(bad)?;
                results.push(result_from_ref(&member));
            }
            if !stream.finished_clean() {
                return Err(bad());
            }
            Ok(results)
        }
        // The server answered in single-reply form (e.g. it rejected
        // the frame as malformed): surface that as the whole-batch
        // error.
        _ => Err(decode_reply(data)
            .err()
            .unwrap_or_else(|| MetaError::Protocol("single reply to a batch request".into()))),
    }
}

fn decode_reply(data: &[u8]) -> Result<Value, MetaError> {
    let payload_str = |rest: &[u8], fallback: &str| {
        binval::from_bytes(rest)
            .and_then(|v| v.as_str().map(str::to_owned))
            .unwrap_or_else(|| fallback.to_owned())
    };
    match data.split_first() {
        Some((&TAG_OK, rest)) => {
            binval::from_bytes(rest).ok_or_else(|| MetaError::Protocol("bad reply body".into()))
        }
        Some((&TAG_UNKNOWN_SERVICE, rest)) => {
            Err(MetaError::UnknownService(payload_str(rest, "?")))
        }
        Some((&TAG_FAULT, rest)) => Err(MetaError::from_fault_string(&payload_str(
            rest,
            "unknown remote error",
        ))),
        _ => Err(MetaError::Protocol("empty reply".into())),
    }
}

// ---- SIP-like frames ----

fn split_head(payload: &[u8]) -> Option<(&str, &[u8])> {
    let sep = payload.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&payload[..sep]).ok()?;
    // Head is first line only (no extra headers in the simulation).
    let first_line = head.lines().next()?;
    Some((first_line, &payload[sep + 4..]))
}

const TRACE_HEADER: &str = "Trace-Context: ";

fn decode_invite(payload: &[u8]) -> Option<VsgRequest> {
    let sep = payload.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&payload[..sep]).ok()?;
    let mut lines = head.lines();
    let service = lines
        .next()?
        .strip_prefix("INVITE vsg:")?
        .split_whitespace()
        .next()?
        .to_owned();
    // Remaining header lines in any order; unknown ones are tolerated
    // (real SIP parsers skip headers they don't understand).
    let mut operation = None;
    let mut trace = None;
    for line in lines {
        if let Some(op) = line.strip_prefix("Operation: ") {
            operation = Some(op.to_owned());
        } else if let Some(ctx) = line.strip_prefix(TRACE_HEADER) {
            trace = crate::trace::TraceContext::from_wire(ctx);
        }
    }
    let args = match binval::from_bytes(&payload[sep + 4..])? {
        Value::Record(fields) => fields,
        _ => return None,
    };
    Some(VsgRequest {
        service: service.into(),
        operation: operation?.into(),
        args,
        trace,
    })
}

fn decode_batch(payload: &[u8]) -> Option<Vec<VsgRequest>> {
    let sep = payload.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&payload[..sep]).ok()?;
    head.lines().next()?.strip_prefix("BATCH vsg:")?;
    // Stream the member list: each member becomes an owned request
    // straight from frame slices, dropped from decode state before the
    // next — no intermediate owned `Value` tree for the whole frame.
    let mut stream = binval::ListStream::open(&payload[sep + 4..])?;
    let mut reqs = Vec::with_capacity(stream.remaining());
    while stream.remaining() > 0 {
        reqs.push(member_from_ref(&stream.next_ref()?)?);
    }
    stream.finished_clean().then_some(reqs)
}

fn decode_batch_response(payload: &[u8]) -> Result<Vec<Result<Value, MetaError>>, MetaError> {
    let (head, body) =
        split_head(payload).ok_or_else(|| MetaError::Protocol("malformed SIP response".into()))?;
    if head.strip_prefix("VSG-SIP/1.0 200").is_some() {
        let bad = || MetaError::Protocol("bad SIP batch body".into());
        let mut stream = binval::ListStream::open(body).ok_or_else(bad)?;
        let mut results = Vec::with_capacity(stream.remaining());
        while stream.remaining() > 0 {
            let member = stream.next_ref().ok_or_else(bad)?;
            results.push(result_from_ref(&member));
        }
        if !stream.finished_clean() {
            return Err(bad());
        }
        Ok(results)
    } else {
        // Non-200 means the frame itself was rejected; decode it the
        // single-response way and apply the error to the whole batch.
        Err(decode_response(payload)
            .err()
            .unwrap_or_else(|| MetaError::Protocol("unexpected SIP batch status".into())))
    }
}

fn decode_response(payload: &[u8]) -> Result<Value, MetaError> {
    let (head, body) =
        split_head(payload).ok_or_else(|| MetaError::Protocol("malformed SIP response".into()))?;
    if let Some(rest) = head.strip_prefix("VSG-SIP/1.0 200") {
        let _ = rest;
        binval::from_bytes(body).ok_or_else(|| MetaError::Protocol("bad SIP body".into()))
    } else if let Some(name) = head.strip_prefix("VSG-SIP/1.0 404 ") {
        Err(MetaError::UnknownService(name.to_owned()))
    } else if let Some(msg) = head.strip_prefix("VSG-SIP/1.0 500 ") {
        Err(MetaError::from_fault_string(msg))
    } else {
        Err(MetaError::Protocol(format!(
            "unexpected SIP status: {head}"
        )))
    }
}

/// The NOTIFY receiver's frame handling, lifted out of its closure.
fn read_notify(payload: &[u8], mut deliver: impl FnMut(&str, &Value)) {
    let Some((head, body)) = split_head(payload) else {
        return;
    };
    let Some(service) = head
        .strip_prefix("NOTIFY vsg:")
        .and_then(|r| r.split_whitespace().next())
    else {
        return;
    };
    if service == "*" {
        let Some(mut groups) = binval::ListStream::open(body) else {
            return;
        };
        while let Some(group) = groups.next_ref() {
            let Some(svc) = group.field("s").and_then(binval::ValueRef::as_str) else {
                continue;
            };
            let Some(binval::ValueRef::List(events)) = group.field("l") else {
                continue;
            };
            for event in events {
                deliver(svc, &event.to_owned());
            }
        }
        return;
    }
    let Some(event) = binval::from_bytes(body) else {
        return;
    };
    deliver(service, &event);
}

mod props {
    use super::*;
    use crate::protocol::{binary, binval as view, siplike};
    use crate::trace::{SpanId, TraceId};
    use proptest::prelude::*;

    fn dbg(v: impl std::fmt::Debug) -> String {
        format!("{v:?}")
    }

    /// The events a NOTIFY reader hands to its callback, rendered.
    fn deliveries(read: impl FnOnce(&mut dyn FnMut(&str, &Value))) -> Vec<String> {
        let mut got = Vec::new();
        read(&mut |svc: &str, event: &Value| got.push(format!("{svc}: {event:?}")));
        got
    }

    /// Feeds `frame` to every decoder, the view-based ones and their
    /// oracles, and compares what they return through `Debug` (so a NaN
    /// compares). Nothing may panic. The frames the properties draw
    /// nest a few levels at most, far under the depth bound.
    fn same_as_oracle(frame: &[u8]) -> Result<(), String> {
        let owned = view::from_bytes(frame);
        let pairs = [
            ("from_bytes", dbg(&owned), dbg(binval::from_bytes(frame))),
            (
                "from_bytes_ref + to_owned",
                dbg(view::from_bytes_ref(frame).map(|v| v.to_owned())),
                dbg(&owned),
            ),
            (
                "binary request",
                dbg(binary::decode_request(frame)),
                dbg(decode_request(frame)),
            ),
            (
                "binary batch",
                dbg(binary::decode_batch_request(frame)),
                dbg(decode_batch_request(frame)),
            ),
            (
                "binary reply",
                dbg(binary::decode_reply(frame)),
                dbg(decode_reply(frame)),
            ),
            (
                "binary batch reply",
                dbg(binary::decode_batch_reply(frame)),
                dbg(decode_batch_reply(frame)),
            ),
            (
                "SIP INVITE",
                dbg(siplike::decode_invite(frame)),
                dbg(decode_invite(frame)),
            ),
            (
                "SIP BATCH",
                dbg(siplike::decode_batch(frame)),
                dbg(decode_batch(frame)),
            ),
            (
                "SIP response",
                dbg(siplike::decode_response(frame)),
                dbg(decode_response(frame)),
            ),
            (
                "SIP batch response",
                dbg(siplike::decode_batch_response(frame)),
                dbg(decode_batch_response(frame)),
            ),
        ];
        for (decoder, new, old) in pairs {
            if new != old {
                return Err(format!("{decoder} on {frame:02x?}: {new} vs oracle {old}"));
            }
        }
        // NOTIFY: the same deliveries for every frame whose body
        // validates; none for one whose body does not.
        let new = deliveries(|d| siplike::read_notify(frame, d));
        let old = deliveries(|d| read_notify(frame, d));
        let body_invalid =
            matches!(split_head(frame), Some((_, b)) if view::from_bytes_ref(b).is_none());
        if (!body_invalid && new != old) || (body_invalid && !new.is_empty()) {
            return Err(format!("NOTIFY on {frame:02x?}: {new:?} vs oracle {old:?}"));
        }
        Ok(())
    }

    fn traced(req: VsgRequest) -> VsgRequest {
        VsgRequest {
            trace: Some(TraceContext {
                trace: TraceId(0xabcdef),
                parent: SpanId(0x1234),
            }),
            ..req
        }
    }

    /// The requests `tests/wire_goldens.rs` sends.
    fn golden_requests() -> Vec<VsgRequest> {
        vec![
            VsgRequest::new("hall-lamp", "status"),
            VsgRequest::new("hall-lamp", "switch").arg("on", true),
            traced(
                VsgRequest::new("living-room-vcr", "record")
                    .arg("channel", 42)
                    .arg("title", "News & <Weather>")
                    .arg("immediate", true)
                    .arg("gain", 1.5)
                    .arg("tape", Value::Bytes(vec![0, 1, 254, 255]))
                    .arg(
                        "tags",
                        Value::List(vec![Value::Str("tv".into()), Value::Null]),
                    )
                    .arg("nested", Value::Record(vec![("x".into(), Value::Int(-7))])),
            ),
        ]
    }

    /// The binary, SIP and NOTIFY frames `tests/wire_goldens.rs` pins
    /// (the same requests through the same encoders, and the same
    /// NOTIFY bodies), plus a reply of each kind.
    fn golden_frames() -> Vec<Vec<u8>> {
        let reqs = golden_requests();
        let mut frames = Vec::new();
        for r in &reqs {
            frames.push(binary::encode_request(r));
            frames.push(siplike::encode_invite(r));
        }
        frames.push(binary::encode_batch_request(&reqs));
        frames.push(siplike::encode_batch(&reqs));
        frames.push(framed(
            b"NOTIFY vsg:motion-1 VSG-SIP/1.0\r\n\r\n",
            &Value::Bool(true),
        ));
        let run = |s: &str, l: Vec<Value>| {
            Value::Record(vec![
                ("s".into(), Value::Str(s.into())),
                ("l".into(), Value::List(l)),
            ])
        };
        frames.push(framed(
            HEADS[10],
            &Value::List(vec![
                run("door", vec![Value::Int(1), Value::Str("s2".into())]),
                run("cam", vec![Value::Int(3)]),
            ]),
        ));
        let results = [
            Ok(Value::Record(vec![("level".into(), Value::Int(3))])),
            Err(MetaError::UnknownService("ghost".into())),
            Err(MetaError::Protocol("bad".into())),
        ];
        for r in &results {
            frames.push(binary::encode_reply(r));
            frames.push(siplike::encode_response(r));
        }
        frames.push(binary::encode_batch_reply(&results));
        frames.push(siplike::encode_batch_response(&results));
        frames
    }

    #[test]
    fn every_truncation_and_byte_flip_of_the_golden_frames_matches_the_oracle() {
        let mut cases = 0;
        for frame in golden_frames() {
            same_as_oracle(&frame).unwrap();
            for cut in 0..frame.len() {
                same_as_oracle(&frame[..cut]).unwrap();
            }
            for at in 0..frame.len() {
                for mask in [1u8, 2, 4, 8, 16, 32, 64, 128, 0xFF] {
                    let mut flipped = frame.clone();
                    flipped[at] ^= mask;
                    same_as_oracle(&flipped).unwrap();
                }
            }
            cases += 1 + frame.len() * 10;
        }
        assert!(cases >= 1_000, "{cases} cases");
    }

    /// Every frame head a decoder looks for, so arbitrary bodies reach
    /// the body decoders of each.
    const HEADS: [&[u8]; 11] = [
        b"",
        b"VSGB",
        b"VSGB\x07\x01\x01B",
        b"\x00",
        b"\x01",
        b"\x03",
        b"INVITE vsg:svc VSG-SIP/1.0\r\nOperation: op\r\n\r\n",
        b"BATCH vsg:- VSG-SIP/1.0\r\nMembers: 2\r\n\r\n",
        b"VSG-SIP/1.0 200 OK\r\n\r\n",
        b"NOTIFY vsg:svc VSG-SIP/1.0\r\n\r\n",
        b"NOTIFY vsg:* VSG-SIP/1.0\r\n\r\n",
    ];

    /// Bytes leaning toward the format's tags and small lengths.
    fn arb_body() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(prop_oneof![3 => 0u8..8, 1 => any::<u8>()], 0..48)
    }

    fn arb_key() -> BoxedStrategy<String> {
        prop_oneof![
            "[a-z]{0,3}",
            Just("s".to_owned()),
            Just("o".to_owned()),
            Just("a".to_owned()),
            Just("t".to_owned()),
            Just("l".to_owned()),
            Just("ok".to_owned()),
            Just("err".to_owned()),
        ]
        .boxed()
    }

    fn arb_value(depth: usize) -> BoxedStrategy<Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            any::<u64>().prop_map(|b| Value::Float(f64::from_bits(b))),
            "[ -~]{0,12}".prop_map(Value::Str),
            prop::collection::vec(any::<u8>(), 0..8).prop_map(Value::Bytes),
        ]
        .boxed();
        if depth == 0 {
            return leaf;
        }
        let list = prop::collection::vec(arb_value(depth - 1), 0..4).prop_map(Value::List);
        let record =
            prop::collection::vec((arb_key(), arb_value(depth - 1)), 0..4).prop_map(Value::Record);
        prop_oneof![3 => leaf, 1 => list, 1 => record].boxed()
    }

    fn arb_request() -> impl Strategy<Value = VsgRequest> {
        (
            "[a-z-]{1,8}",
            "[a-z]{1,6}",
            prop::collection::vec(("[a-z]{1,4}", arb_value(2)), 0..3),
            any::<bool>(),
        )
            .prop_map(|(service, operation, args, trace)| {
                let req = VsgRequest {
                    service: service.as_str().into(),
                    operation: operation.into(),
                    args,
                    trace: None,
                };
                if trace {
                    traced(req)
                } else {
                    req
                }
            })
    }

    fn arb_result() -> BoxedStrategy<Result<Value, MetaError>> {
        prop_oneof![
            3 => arb_value(2).prop_map(Ok),
            1 => "[a-z]{1,6}".prop_map(|s| Err(MetaError::UnknownService(s))),
            1 => "[ -~]{0,12}".prop_map(|s| Err(MetaError::Protocol(s))),
        ]
        .boxed()
    }

    /// One field named `key`, usually of the type the decoders expect
    /// under that name.
    fn arb_field(key: &'static str) -> BoxedStrategy<(String, Value)> {
        let typed = match key {
            "a" => prop::collection::vec(("[a-z]{1,3}", arb_value(1)), 0..3)
                .prop_map(Value::Record)
                .boxed(),
            "l" => prop::collection::vec(arb_value(1), 0..3)
                .prop_map(Value::List)
                .boxed(),
            "ok" => arb_value(2),
            _ => "[a-z-]{0,6}".prop_map(Value::Str).boxed(),
        };
        prop_oneof![4 => typed, 1 => arb_value(1)]
            .prop_map(move |v| (key.to_owned(), v))
            .boxed()
    }

    /// Records of the fields a frame decoder looks up, repeated and in
    /// any order, so its first-field-wins rule is exercised.
    fn arb_shaped(keys: &'static [&'static str]) -> BoxedStrategy<Value> {
        let field = prop::strategy::union(keys.iter().map(|k| (1, arb_field(k))).collect());
        prop::collection::vec(field, 0..6)
            .prop_map(Value::Record)
            .boxed()
    }

    /// `head` followed by `body`'s wire form.
    fn framed(head: &[u8], body: &Value) -> Vec<u8> {
        let mut frame = head.to_vec();
        view::encode(body, &mut frame);
        frame
    }

    /// Encoder output: every kind of frame the two protocols send, and
    /// frames whose member, result and run-group records repeat or
    /// mistype the fields the decoders look up.
    fn arb_frame() -> BoxedStrategy<Vec<u8>> {
        let members = || prop::collection::vec(arb_shaped(&["s", "o", "a", "t"]), 0..3);
        let results = || prop::collection::vec(arb_shaped(&["ok", "err"]), 0..3);
        prop_oneof![
            arb_request().prop_map(|r| binary::encode_request(&r)),
            arb_request().prop_map(|r| siplike::encode_invite(&r)),
            prop::collection::vec(arb_request(), 1..4)
                .prop_map(|rs| binary::encode_batch_request(&rs)),
            prop::collection::vec(arb_request(), 1..4).prop_map(|rs| siplike::encode_batch(&rs)),
            arb_result().prop_map(|r| binary::encode_reply(&r)),
            arb_result().prop_map(|r| siplike::encode_response(&r)),
            prop::collection::vec(arb_result(), 1..4)
                .prop_map(|rs| binary::encode_batch_reply(&rs)),
            prop::collection::vec(arb_result(), 1..4)
                .prop_map(|rs| siplike::encode_batch_response(&rs)),
            arb_shaped(&["s", "o", "a", "t"]).prop_map(|m| framed(HEADS[1], &m)),
            members().prop_map(|ms| framed(HEADS[2], &Value::List(ms))),
            members().prop_map(|ms| framed(HEADS[7], &Value::List(ms))),
            results().prop_map(|rs| framed(HEADS[5], &Value::List(rs))),
            results().prop_map(|rs| framed(HEADS[8], &Value::List(rs))),
            prop::collection::vec(arb_shaped(&["s", "l"]), 0..3)
                .prop_map(|gs| framed(HEADS[10], &Value::List(gs))),
            arb_value(3).prop_map(|v| framed(HEADS[9], &v)),
            arb_value(3).prop_map(|v| framed(HEADS[10], &v)),
            arb_value(3).prop_map(|v| view::to_bytes(&v)),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        #[test]
        fn decoders_match_the_oracle_on_arbitrary_bytes(
            head in 0..HEADS.len(),
            body in arb_body(),
        ) {
            let frame = [HEADS[head], body.as_slice()].concat();
            same_as_oracle(&frame).map_err(TestCaseError::fail)?;
        }

        #[test]
        fn decoders_match_the_oracle_on_encoder_output(
            frame in arb_frame(),
            cut in any::<usize>(),
            at in any::<usize>(),
            mask in 1u8..=255,
        ) {
            same_as_oracle(&frame).map_err(TestCaseError::fail)?;
            same_as_oracle(&frame[..cut % (frame.len() + 1)]).map_err(TestCaseError::fail)?;
            let mut flipped = frame.clone();
            flipped[at % frame.len()] ^= mask;
            same_as_oracle(&flipped).map_err(TestCaseError::fail)?;
        }

        #[test]
        fn encoded_values_decode_to_themselves(v in arb_value(3)) {
            let wire = view::to_bytes(&v);
            prop_assert_eq!(view::encoded_len(&v), wire.len());
            prop_assert_eq!(wire.capacity(), wire.len());
            prop_assert_eq!(dbg(view::from_bytes(&wire)), dbg(Some(&v)));
        }

        /// A binary request and reply are each written into one buffer
        /// sized before writing.
        #[test]
        fn binary_frames_fill_exactly_sized_buffers(req in arb_request(), result in arb_result()) {
            for frame in [binary::encode_request(&req), binary::encode_reply(&result)] {
                prop_assert_eq!(frame.capacity(), frame.len());
            }
        }
    }

    #[test]
    fn depth_bombs_are_rejected_by_every_decoder() {
        for head in HEADS {
            for bomb in [[6u8, 1].repeat(100_000), [7u8, 1, 1, b's'].repeat(100_000)] {
                let frame = [head, bomb.as_slice(), &[0]].concat();
                assert!(view::from_bytes_ref(&frame[head.len()..]).is_none());
                assert_eq!(view::from_bytes(&frame), None);
                assert_eq!(binary::decode_request(&frame), None);
                assert_eq!(binary::decode_batch_request(&frame), None);
                assert!(binary::decode_reply(&frame).is_err());
                assert!(binary::decode_batch_reply(&frame).is_err());
                assert_eq!(siplike::decode_invite(&frame), None);
                assert_eq!(siplike::decode_batch(&frame), None);
                assert!(siplike::decode_response(&frame).is_err());
                assert!(siplike::decode_batch_response(&frame).is_err());
                assert!(deliveries(|d| siplike::read_notify(&frame, d)).is_empty());
            }
        }
    }
}
