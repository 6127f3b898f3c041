//! A compact binary codec for canonical [`Value`]s.
//!
//! Used by the `CompactBinary` VSG protocol (the E4 strawman showing what
//! SOAP's XML costs) and as the SIP-like protocol's body encoding.
//!
//! One decoder reads the format. [`from_bytes_ref`] walks a buffer once
//! and checks all of it: every tag, every length against the end of the
//! buffer, UTF-8 in strings and record keys, nesting no deeper than
//! [`MAX_DEPTH`], and no trailing bytes. It returns a [`ValueRef`], a
//! view that reads the validated bytes in place: strings and byte runs
//! are slices of the buffer, and a list or record holds its item count
//! and its bytes and is iterated lazily (how batch frames are
//! demultiplexed member by member). The view allocates nothing, and
//! iterating it cannot fail. [`ValueRef::to_owned`] copies a view into an
//! owned [`Value`], and [`from_bytes`] is that copy of a whole buffer.
//!
//! Reading a list or record item walks the item once to find where it
//! ends, so a full traversal walks a byte once more for each list or
//! record around it: [`MAX_DEPTH`] bounds that work as well as the
//! stack.

use soap::Value;
use std::fmt;

/// Encodes a value.
pub fn encode(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(3);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            write_len(out, s.len());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(5);
            write_len(out, b.len());
            out.extend_from_slice(b);
        }
        Value::List(items) => {
            out.push(6);
            write_len(out, items.len());
            for item in items {
                encode(item, out);
            }
        }
        Value::Record(fields) => {
            out.push(7);
            write_len(out, fields.len());
            for (k, v) in fields {
                write_len(out, k.len());
                out.extend_from_slice(k.as_bytes());
                encode(v, out);
            }
        }
    }
}

/// Encodes to a fresh buffer of exactly the encoding's size.
pub fn to_bytes(v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(v));
    encode(v, &mut out);
    out
}

// ---- borrowed-field encoders ------------------------------------------
//
// The invocation hot path marshals a `VsgRequest` whose arguments it only
// borrows; these helpers emit the exact wire form of the corresponding
// owned `Value` without first cloning anything into one.

/// Encodes a borrowed string in `Value::Str` wire form.
pub fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.push(4);
    write_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Writes a record header for `len` fields. The caller must follow with
/// exactly `len` fields, each emitted via [`encode_field_key`] plus one
/// value encoder.
pub fn begin_record(len: usize, out: &mut Vec<u8>) {
    out.push(7);
    write_len(out, len);
}

/// Writes a list header for `len` items. The caller must follow with
/// exactly `len` encoded values — this is how a batch frame splices
/// members that were each marshalled once, ahead of time, into one
/// `Value::List` wire form without re-encoding them per flush.
pub fn begin_list(len: usize, out: &mut Vec<u8>) {
    out.push(6);
    write_len(out, len);
}

/// The size on the wire of a length or item count of `len`: the varint
/// that [`begin_list`], [`begin_record`], [`encode_field_key`] and every
/// string and byte run write.
pub(crate) fn len_size(len: usize) -> usize {
    (usize::BITS - (len | 1).leading_zeros()).div_ceil(7) as usize
}

/// The size on the wire of `v`: what [`encode`] appends, so a writer can
/// reserve its buffer once.
pub fn encoded_len(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Bool(_) => 2,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => str_len(s),
        Value::Bytes(b) => 1 + len_size(b.len()) + b.len(),
        Value::List(items) => head_len(items.len()) + items.iter().map(encoded_len).sum::<usize>(),
        Value::Record(fields) => record_fields_len(fields),
    }
}

/// The size of what [`begin_list`] or [`begin_record`] appends.
pub(crate) fn head_len(len: usize) -> usize {
    1 + len_size(len)
}

/// The size of what [`encode_field_key`] appends.
pub(crate) fn key_len(key: &str) -> usize {
    len_size(key.len()) + key.len()
}

/// The size of what [`encode_str`] appends.
pub(crate) fn str_len(s: &str) -> usize {
    1 + key_len(s)
}

/// The size of what [`encode_str_field`] appends.
pub(crate) fn str_field_len(key: &str, value: &str) -> usize {
    key_len(key) + str_len(value)
}

/// The size of what [`encode_record_fields`] appends.
pub(crate) fn record_fields_len<K: AsRef<str>>(fields: &[(K, Value)]) -> usize {
    head_len(fields.len())
        + fields
            .iter()
            .map(|(k, v)| key_len(k.as_ref()) + encoded_len(v))
            .sum::<usize>()
}

/// Writes one record field key; follow with the field's value.
pub fn encode_field_key(key: &str, out: &mut Vec<u8>) {
    write_len(out, key.len());
    out.extend_from_slice(key.as_bytes());
}

/// Encodes one complete string-valued record field — key then
/// `Value::Str` wire form — from borrows. The shape every tagged
/// metadata field of the binary VSG request (`s`, `o`, `t`) uses.
pub fn encode_str_field(key: &str, value: &str, out: &mut Vec<u8>) {
    encode_field_key(key, out);
    encode_str(value, out);
}

/// Encodes borrowed `(name, value)` pairs in `Value::Record` wire form.
/// Keys are anything str-shaped (`&str`, `String`, interned names) —
/// no caller has to materialise owned keys just to encode.
pub fn encode_record_fields<K: AsRef<str>>(fields: &[(K, Value)], out: &mut Vec<u8>) {
    begin_record(fields.len(), out);
    for (k, v) in fields {
        encode_field_key(k.as_ref(), out);
        encode(v, out);
    }
}

/// How deep lists and records may nest in one buffer. The framework's
/// own framing wraps an application value in at most three levels (a
/// batch list, a member record, its argument record), so this only ever
/// turns away hostile or corrupt input. It bounds the stack of every
/// walk over a view: validation, [`ValueRef::to_owned`] and dropping the
/// owned [`Value`].
pub const MAX_DEPTH: usize = 64;

/// Decodes a whole buffer into an owned [`Value`]: [`ValueRef::to_owned`]
/// over [`from_bytes_ref`], so it accepts exactly what that accepts.
pub fn from_bytes(data: &[u8]) -> Option<Value> {
    from_bytes_ref(data).map(|v| v.to_owned())
}

/// Validates a whole buffer and returns a view of its value. Fails on an
/// unknown tag, a length running past the end, a string or record key
/// that is not UTF-8, lists and records nested deeper than
/// [`MAX_DEPTH`], or trailing bytes.
pub fn from_bytes_ref(data: &[u8]) -> Option<ValueRef<'_>> {
    let mut pos = 0;
    let v = read(data, &mut pos, MAX_DEPTH)?;
    (pos == data.len()).then_some(v)
}

/// A view of one validated value: scalars are decoded, strings and byte
/// runs are slices of the buffer, and lists and records are read in
/// place as they are iterated. A view allocates nothing.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    /// Explicit null.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String slice of the buffer.
    Str(&'a str),
    /// Byte slice of the buffer.
    Bytes(&'a [u8]),
    /// Ordered list.
    List(ListRef<'a>),
    /// Named fields in order.
    Record(RecordRef<'a>),
}

impl<'a> ValueRef<'a> {
    /// Copies into an owned [`Value`]: one `Vec` of exactly the item
    /// count per list or record, one `String` per string or key, one
    /// `Vec<u8>` per byte run.
    pub fn to_owned(&self) -> Value {
        match *self {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
            ValueRef::Bytes(b) => Value::Bytes(b.to_vec()),
            ValueRef::List(items) => {
                let mut list = Vec::with_capacity(items.len());
                for item in items.iter() {
                    list.push(item.to_owned());
                }
                Value::List(list)
            }
            ValueRef::Record(fields) => Value::Record(fields.to_owned_fields()),
        }
    }

    /// The string slice, if this is a `Str`.
    pub fn as_str(&self) -> Option<&'a str> {
        match *self {
            ValueRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The first field named `name`, if this is a `Record` holding one.
    pub fn field(&self, name: &str) -> Option<ValueRef<'a>> {
        match self {
            ValueRef::Record(fields) => fields.field(name),
            _ => None,
        }
    }
}

/// The items of a validated list, read in place.
#[derive(Clone, Copy)]
pub struct ListRef<'a> {
    len: usize,
    bytes: &'a [u8],
}

impl<'a> ListRef<'a> {
    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the list has no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the items in order. The bytes were validated, so every
    /// read succeeds and all `len` items come out.
    pub fn iter(&self) -> impl Iterator<Item = ValueRef<'a>> {
        let (bytes, mut pos) = (self.bytes, 0);
        (0..self.len).map_while(move |_| read(bytes, &mut pos, MAX_DEPTH))
    }
}

impl fmt::Debug for ListRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The fields of a validated record, read in place.
#[derive(Clone, Copy)]
pub struct RecordRef<'a> {
    len: usize,
    bytes: &'a [u8],
}

impl<'a> RecordRef<'a> {
    /// Iterates the `(key, value)` fields in order, as
    /// [`ListRef::iter`] does the items of a list.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, ValueRef<'a>)> {
        let (bytes, mut pos) = (self.bytes, 0);
        (0..self.len).map_while(move |_| {
            let key = read_str(bytes, &mut pos)?;
            Some((key, read(bytes, &mut pos, MAX_DEPTH)?))
        })
    }

    /// The first field named `name`; scans the record up to it.
    pub fn field(&self, name: &str) -> Option<ValueRef<'a>> {
        self.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// Copies the fields into owned pairs, as [`ValueRef::to_owned`]
    /// copies a record.
    pub fn to_owned_fields(&self) -> Vec<(String, Value)> {
        let mut fields = Vec::with_capacity(self.len);
        for (k, v) in self.iter() {
            fields.push((k.to_owned(), v.to_owned()));
        }
        fields
    }
}

impl fmt::Debug for RecordRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The one walk over the grammar: checks the value at `pos` to its last
/// byte, leaves `pos` just past it and returns its view. `depth` is how
/// many more levels of lists and records may open; the iterators read a
/// container's items with the full bound, since the container was
/// checked at its own depth.
fn read<'a>(data: &'a [u8], pos: &mut usize, depth: usize) -> Option<ValueRef<'a>> {
    let tag = *data.get(*pos)?;
    *pos += 1;
    Some(match tag {
        0 => ValueRef::Null,
        1 => ValueRef::Bool(take(data, pos, 1)?[0] != 0),
        2 => ValueRef::Int(i64::from_le_bytes(take(data, pos, 8)?.try_into().ok()?)),
        3 => ValueRef::Float(f64::from_le_bytes(take(data, pos, 8)?.try_into().ok()?)),
        4 => ValueRef::Str(read_str(data, pos)?),
        5 => {
            let len = read_len(data, pos)?;
            ValueRef::Bytes(take(data, pos, len)?)
        }
        6 | 7 => {
            let depth = depth.checked_sub(1)?;
            let len = read_len(data, pos)?;
            if len > data.len() {
                return None;
            }
            let start = *pos;
            for _ in 0..len {
                if tag == 7 {
                    read_str(data, pos)?;
                }
                read(data, pos, depth)?;
            }
            let bytes = &data[start..*pos];
            if tag == 6 {
                ValueRef::List(ListRef { len, bytes })
            } else {
                ValueRef::Record(RecordRef { len, bytes })
            }
        }
        _ => return None,
    })
}

/// A length-prefixed UTF-8 run: a string's body or a record key.
fn read_str<'a>(data: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    let len = read_len(data, pos)?;
    std::str::from_utf8(take(data, pos, len)?).ok()
}

fn take<'a>(data: &'a [u8], pos: &mut usize, len: usize) -> Option<&'a [u8]> {
    let bytes = data.get(*pos..)?.get(..len)?;
    *pos += len;
    Some(bytes)
}

fn write_len(out: &mut Vec<u8>, len: usize) {
    // Varint (LEB128, unsigned).
    let mut n = len as u64;
    loop {
        let byte = (n & 0x7F) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(-9),
            Value::Float(1.25),
            Value::Str("hello".into()),
            Value::Bytes(vec![1, 2, 3]),
        ] {
            assert_eq!(from_bytes(&to_bytes(&v)), Some(v));
        }
    }

    #[test]
    fn compounds_round_trip() {
        let v = Value::Record(vec![
            ("list".into(), Value::List(vec![Value::Int(1), Value::Null])),
            (
                "nested".into(),
                Value::Record(vec![("x".into(), Value::Bool(false))]),
            ),
        ]);
        assert_eq!(from_bytes(&to_bytes(&v)), Some(v));
    }

    #[test]
    fn binary_is_much_smaller_than_xml() {
        let v = Value::Record(vec![
            ("channel".into(), Value::Int(42)),
            ("title".into(), Value::Str("News".into())),
        ]);
        let binary = to_bytes(&v).len();
        let xml = v.to_element("v").to_xml().len();
        assert!(binary * 3 < xml, "binary {binary} vs xml {xml}");
    }

    #[test]
    fn garbage_and_truncation_fail_cleanly() {
        assert_eq!(from_bytes(&[99]), None);
        assert_eq!(from_bytes(&[]), None);
        let enc = to_bytes(&Value::Str("hello".into()));
        assert_eq!(from_bytes(&enc[..enc.len() - 1]), None);
        // Trailing bytes rejected.
        let mut enc = to_bytes(&Value::Int(1));
        enc.push(0);
        assert_eq!(from_bytes(&enc), None);
        // Implausible lengths rejected, not allocated.
        assert_eq!(from_bytes(&[4, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]), None);
    }

    #[test]
    fn borrowed_encoders_match_owned_encoding() {
        let fields = vec![
            ("channel".to_owned(), Value::Int(42)),
            ("title".to_owned(), Value::Str("News".into())),
        ];
        let mut borrowed = Vec::new();
        encode_record_fields(&fields, &mut borrowed);
        assert_eq!(borrowed, to_bytes(&Value::Record(fields)));

        let mut s = Vec::new();
        encode_str("hello", &mut s);
        assert_eq!(s, to_bytes(&Value::Str("hello".into())));

        // Piecewise record assembly matches too.
        let mut piecewise = Vec::new();
        begin_record(1, &mut piecewise);
        encode_str_field("name", "hall", &mut piecewise);
        assert_eq!(
            piecewise,
            to_bytes(&Value::Record(vec![(
                "name".into(),
                Value::Str("hall".into())
            )]))
        );

        // Splicing pre-encoded items after a list header matches the
        // owned list encoding.
        let items = vec![Value::Int(1), Value::Str("x".into())];
        let mut spliced = Vec::new();
        begin_list(items.len(), &mut spliced);
        for item in &items {
            encode(item, &mut spliced);
        }
        assert_eq!(spliced, to_bytes(&Value::List(items)));
    }

    #[test]
    fn varint_lengths() {
        let long = Value::Str("x".repeat(300));
        assert_eq!(from_bytes(&to_bytes(&long)), Some(long));
        for len in [
            0,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            usize::MAX >> 1,
            usize::MAX,
        ] {
            let mut out = Vec::new();
            write_len(&mut out, len);
            assert_eq!(len_size(len), out.len(), "length {len}");
        }
    }

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(2.5),
            Value::Str("hello & <world>".into()),
            Value::Bytes(vec![0, 255, 7]),
            Value::List(vec![Value::Int(1), Value::Str("x".into())]),
            Value::Record(vec![
                ("s".into(), Value::Str("vcr".into())),
                ("a".into(), Value::Record(vec![("n".into(), Value::Int(9))])),
            ]),
        ]
    }

    #[test]
    fn borrowed_decode_matches_owned_decode() {
        for v in sample_values() {
            let wire = to_bytes(&v);
            let r = from_bytes_ref(&wire).unwrap();
            assert_eq!(r.to_owned(), v);
        }
    }

    #[test]
    fn borrowed_decode_borrows_strings_from_the_frame() {
        let wire = to_bytes(&Value::Str("borrow-me".into()));
        let r = from_bytes_ref(&wire).unwrap();
        let ValueRef::Str(s) = r else { panic!() };
        let p = s.as_ptr() as usize;
        let range = wire.as_ptr() as usize..wire.as_ptr() as usize + wire.len();
        assert!(range.contains(&p));
    }

    #[test]
    fn borrowed_decode_rejects_what_owned_rejects() {
        for bad in [
            &[99u8][..],
            &[],
            &[4, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F],
            &[2, 1, 2, 3],
        ] {
            assert_eq!(from_bytes(bad), None);
            assert!(from_bytes_ref(bad).is_none());
        }
        let mut trailing = to_bytes(&Value::Int(1));
        trailing.push(0);
        assert!(from_bytes_ref(&trailing).is_none());
    }

    #[test]
    fn views_iterate_lists_and_records_in_place() {
        let items = sample_values();
        let wire = to_bytes(&Value::List(items.clone()));
        let Some(ValueRef::List(list)) = from_bytes_ref(&wire) else {
            panic!("a list decodes to a list view");
        };
        assert_eq!(list.len(), items.len());
        let got: Vec<Value> = list.iter().map(|v| v.to_owned()).collect();
        assert_eq!(got, items);

        // The first field of a name wins; absent names and non-records
        // have none.
        let wire = to_bytes(&Value::Record(vec![
            ("k".into(), Value::Int(1)),
            ("l".into(), Value::List(vec![])),
            ("k".into(), Value::Int(2)),
        ]));
        let record = from_bytes_ref(&wire).unwrap();
        assert!(matches!(record.field("k"), Some(ValueRef::Int(1))));
        assert!(matches!(record.field("l"), Some(ValueRef::List(l)) if l.is_empty()));
        assert!(record.field("missing").is_none());
        assert!(ValueRef::Int(3).field("k").is_none());
        let ValueRef::Record(fields) = record else {
            panic!("a record decodes to a record view");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["k", "l", "k"]);
        assert_eq!(
            format!("{record:?}"),
            r#"Record({"k": Int(1), "l": List([]), "k": Int(2)})"#
        );
    }

    /// `depth` lists of one item each around a `Null`.
    fn nested_lists(depth: usize) -> Vec<u8> {
        let mut wire = [6u8, 1].repeat(depth);
        wire.push(0);
        wire
    }

    #[test]
    fn nesting_is_bounded() {
        let deepest = nested_lists(MAX_DEPTH);
        let v = from_bytes(&deepest).expect("MAX_DEPTH levels decode");
        assert_eq!(to_bytes(&v), deepest);
        for too_deep in [nested_lists(MAX_DEPTH + 1), nested_lists(100_000)] {
            assert!(from_bytes_ref(&too_deep).is_none());
            assert_eq!(from_bytes(&too_deep), None);
        }
        // Records count toward the same bound, and so does an empty
        // container at the level past it.
        let mut records = [7u8, 1, 1, b'r'].repeat(MAX_DEPTH);
        records.push(0);
        assert!(from_bytes_ref(&records).is_some());
        let mut records = [7u8, 1, 1, b'r'].repeat(MAX_DEPTH);
        records.extend_from_slice(&[6, 0]);
        assert!(from_bytes_ref(&records).is_none());
    }
}
