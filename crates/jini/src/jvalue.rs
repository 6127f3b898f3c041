//! Jini's native value model and its Java-serialization-like wire codec.
//!
//! Jini moves marshalled Java objects; the PCM's whole job (§3.2) is
//! converting between this representation and the VSG's SOAP encoding.
//! The codec here mimics Java object serialization's shape — a stream
//! magic, explicit class descriptors, length-prefixed UTF strings — so
//! that message sizes and conversion work are realistic.
//!
//! One reader reads the format. [`JRef::unmarshal`] walks a stream once
//! and checks all of it: the magic, every tag, every length against the
//! end of the stream, UTF-8 in strings, class names and field names,
//! each class descriptor's serialVersionUID, nesting no deeper than
//! [`MAX_DEPTH`], and no trailing bytes. It returns a [`JRef`], a view
//! that reads the validated bytes in place: strings and byte runs are
//! slices of the stream, and a list or object is iterated lazily. The
//! view allocates nothing. [`JRef::to_owned`] copies a view into an
//! owned [`JValue`], and [`JValue::unmarshal`] is that copy of a whole
//! stream.
//!
//! One writer writes it, twice: once into a sink that only counts the
//! bytes and once into a buffer reserved to that count. So
//! [`JValue::marshal`] and the RMI frames each fill one buffer of
//! exactly their size.

use std::fmt;

/// Magic prefix of a marshalled stream (stands in for `0xACED0005`).
pub const STREAM_MAGIC: &[u8; 4] = b"JRM1";

/// How deep lists and objects may nest in one stream, as in the VSG's
/// binary codec. The streams Jini itself writes nest at most five
/// levels (a registrar's lookup reply), and an RMI frame wraps an
/// application value in two, so this only ever turns away hostile or
/// corrupt input. It bounds the stack of every walk over a view:
/// validation, [`JRef::to_owned`] and dropping the owned [`JValue`].
pub const MAX_DEPTH: usize = 64;

const TAG_NULL: u8 = 0x70;
const TAG_BOOL: u8 = 0x01;
const TAG_INT: u8 = 0x02;
const TAG_DOUBLE: u8 = 0x03;
const TAG_STR: u8 = 0x04;
const TAG_BYTES: u8 = 0x05;
const TAG_LIST: u8 = 0x06;
const TAG_OBJECT: u8 = 0x07;

/// A value in the simulated Java/Jini type system.
#[derive(Debug, Clone, PartialEq)]
pub enum JValue {
    /// Java `null`.
    Null,
    /// `java.lang.Boolean`.
    Bool(bool),
    /// `java.lang.Long` (covers int/short/byte).
    Int(i64),
    /// `java.lang.Double`.
    Double(f64),
    /// `java.lang.String`.
    Str(String),
    /// `byte[]`.
    Bytes(Vec<u8>),
    /// `java.util.List`.
    List(Vec<JValue>),
    /// An arbitrary serializable object: class name + named fields.
    Object {
        /// Fully qualified class name.
        class: String,
        /// Field name/value pairs, in declaration order.
        fields: Vec<(String, JValue)>,
    },
}

impl JValue {
    /// Creates an object value.
    pub fn object(class: impl Into<String>, fields: Vec<(String, JValue)>) -> JValue {
        JValue::Object {
            class: class.into(),
            fields,
        }
    }

    /// A field of an object value.
    pub fn field(&self, name: &str) -> Option<&JValue> {
        match self {
            JValue::Object { fields, .. } => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string inside, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer inside, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            JValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean inside, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialises to a marshalled stream (with magic). A string, class
    /// name or field name longer than `u16::MAX` bytes, or an object
    /// with more than `u16::MAX` fields, does not fit its two-byte
    /// length prefix and is refused.
    pub fn marshal(&self) -> Result<Vec<u8>, MarshalError> {
        let mut out = Vec::new();
        self.marshal_into(&mut out)?;
        Ok(out)
    }

    /// [`JValue::marshal`] appending to `out`, which a refused stream
    /// leaves as it was.
    pub fn marshal_into(&self, out: &mut Vec<u8>) -> Result<(), MarshalError> {
        write_stream(out, |sink| self.write(sink))
    }

    /// Deserialises a marshalled stream: [`JRef::to_owned`] over
    /// [`JRef::unmarshal`], so it accepts exactly what that accepts.
    pub fn unmarshal(data: &[u8]) -> Result<JValue, MarshalError> {
        JRef::unmarshal(data).map(|v| v.to_owned())
    }

    /// Writes the value's wire form.
    pub(crate) fn write(&self, out: &mut dyn Sink) {
        match self {
            JValue::Null => out.put(&[TAG_NULL]),
            JValue::Bool(b) => out.put(&[TAG_BOOL, u8::from(*b)]),
            JValue::Int(i) => {
                out.put(&[TAG_INT]);
                out.put(&i.to_be_bytes());
            }
            JValue::Double(d) => {
                out.put(&[TAG_DOUBLE]);
                out.put(&d.to_be_bytes());
            }
            JValue::Str(s) => write_str(out, s),
            JValue::Bytes(b) => {
                out.put(&[TAG_BYTES]);
                out.put(&(b.len() as u32).to_be_bytes());
                out.put(b);
            }
            JValue::List(items) => {
                write_list_head(out, items.len());
                for item in items {
                    item.write(out);
                }
            }
            JValue::Object { class, fields } => {
                write_object_head(out, class, fields.len());
                for (name, value) in fields {
                    write_utf(out, name);
                    value.write(out);
                }
            }
        }
    }
}

// ---- the writer -------------------------------------------------------
//
// The RMI frames wrap a method name, an argument list or a result they
// only borrow; these pieces write the wire form of the owned object they
// stand for without building it.

/// The longest string, class name or field name a two-byte length
/// prefix holds.
const MAX_UTF: usize = u16::MAX as usize;
/// The most fields an object's two-byte field count holds.
const MAX_FIELDS: usize = u16::MAX as usize;

/// Where a writer puts marshalled bytes.
pub(crate) trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);

    /// Notes that the stream cannot be written as it stands: a length
    /// its prefix cannot hold.
    fn refuse(&mut self, why: MarshalError);
}

/// A sink that appends to a buffer and remembers the first refusal.
struct Writer<'b> {
    out: &'b mut Vec<u8>,
    refused: Option<MarshalError>,
}

impl Sink for Writer<'_> {
    fn put(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    fn refuse(&mut self, why: MarshalError) {
        self.refused.get_or_insert(why);
    }
}

/// Appends the magic and the stream `write` writes to `out`. A length
/// its prefix cannot hold refuses the stream: `out` is cut back to what
/// it held, and the first refusal is returned.
pub(crate) fn write_stream(
    out: &mut Vec<u8>,
    write: impl FnOnce(&mut dyn Sink),
) -> Result<(), MarshalError> {
    let start = out.len();
    out.extend_from_slice(STREAM_MAGIC);
    let mut writer = Writer { out, refused: None };
    write(&mut writer);
    match writer.refused {
        Some(why) => {
            out.truncate(start);
            Err(why)
        }
        None => Ok(()),
    }
}

/// Writes a `Str` value.
pub(crate) fn write_str(out: &mut dyn Sink, s: &str) {
    out.put(&[TAG_STR]);
    write_utf(out, s);
}

/// Writes a list header for `len` items; exactly `len` values follow.
pub(crate) fn write_list_head(out: &mut dyn Sink, len: usize) {
    out.put(&[TAG_LIST]);
    out.put(&(len as u32).to_be_bytes());
}

/// Writes an object's class descriptor (tag, class name,
/// serialVersionUID stand-in — the per-object overhead Java
/// serialization is famous for) and its field count; exactly `fields`
/// pairs of a [`write_utf`] name and a value follow.
pub(crate) fn write_object_head(out: &mut dyn Sink, class: &str, fields: usize) {
    out.put(&[TAG_OBJECT]);
    write_utf(out, class);
    out.put(&class_uid(class).to_be_bytes());
    if fields > MAX_FIELDS {
        out.refuse(MarshalError::new(format!(
            "an object of {fields} fields is over the {MAX_FIELDS} its count holds"
        )));
    }
    out.put(&(fields as u16).to_be_bytes());
}

/// Writes a length-prefixed UTF string: a field or class name, or a
/// string's body.
pub(crate) fn write_utf(out: &mut dyn Sink, s: &str) {
    if s.len() > MAX_UTF {
        out.refuse(MarshalError::new(format!(
            "a string of {} bytes is over the {MAX_UTF} its length holds",
            s.len()
        )));
    }
    out.put(&(s.len() as u16).to_be_bytes());
    out.put(s.as_bytes());
}

// ---- the reader -------------------------------------------------------

/// A view of one validated value: scalars are decoded, strings and byte
/// runs are slices of the stream, and lists and objects are read in
/// place as they are iterated. A view allocates nothing.
#[derive(Debug, Clone, Copy)]
pub enum JRef<'a> {
    /// Java `null`.
    Null,
    /// `java.lang.Boolean`.
    Bool(bool),
    /// `java.lang.Long`.
    Int(i64),
    /// `java.lang.Double`.
    Double(f64),
    /// String slice of the stream.
    Str(&'a str),
    /// Byte slice of the stream.
    Bytes(&'a [u8]),
    /// `java.util.List`.
    List(JList<'a>),
    /// A serializable object.
    Object(JObject<'a>),
}

impl<'a> JRef<'a> {
    /// Validates a whole marshalled stream and returns a view of its
    /// value. Fails on a bad magic, an unknown tag, a length running past
    /// the end, a string or name that is not UTF-8, a serialVersionUID
    /// that does not match its class, lists and objects nested deeper
    /// than [`MAX_DEPTH`], or trailing bytes.
    pub fn unmarshal(data: &'a [u8]) -> Result<JRef<'a>, MarshalError> {
        if !data.starts_with(STREAM_MAGIC) {
            return Err(MarshalError::new("bad stream magic"));
        }
        let mut pos = STREAM_MAGIC.len();
        let v = read(data, &mut pos, MAX_DEPTH)?;
        if pos != data.len() {
            return Err(MarshalError::new("trailing bytes in stream"));
        }
        Ok(v)
    }

    /// Copies into an owned [`JValue`]: one `Vec` of exactly the item
    /// count per list or object, one `String` per string, class name or
    /// field name, one `Vec<u8>` per byte run.
    pub fn to_owned(&self) -> JValue {
        match *self {
            JRef::Null => JValue::Null,
            JRef::Bool(b) => JValue::Bool(b),
            JRef::Int(i) => JValue::Int(i),
            JRef::Double(d) => JValue::Double(d),
            JRef::Str(s) => JValue::Str(s.to_owned()),
            JRef::Bytes(b) => JValue::Bytes(b.to_vec()),
            JRef::List(items) => JValue::List(items.to_owned_items()),
            JRef::Object(object) => {
                let mut fields = Vec::with_capacity(object.len);
                for (name, value) in object.iter() {
                    fields.push((name.to_owned(), value.to_owned()));
                }
                JValue::Object {
                    class: object.class.to_owned(),
                    fields,
                }
            }
        }
    }

    /// The first field named `name`, if this is an object holding one;
    /// scans the object up to it.
    pub fn field(&self, name: &str) -> Option<JRef<'a>> {
        match self {
            JRef::Object(object) => object.iter().find(|(k, _)| *k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string slice, if this is a `Str`.
    pub fn as_str(&self) -> Option<&'a str> {
        match *self {
            JRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match *self {
            JRef::Int(i) => Some(i),
            _ => None,
        }
    }

    /// The boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            JRef::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// The items of a validated list: their count and their bytes.
#[derive(Debug, Clone, Copy)]
pub struct JList<'a> {
    len: usize,
    bytes: &'a [u8],
}

impl<'a> JList<'a> {
    /// Iterates the items in order. The bytes were validated, so every
    /// read succeeds and all `len` items come out.
    pub(crate) fn iter(&self) -> impl Iterator<Item = JRef<'a>> {
        let (bytes, mut pos) = (self.bytes, 0);
        (0..self.len).map_while(move |_| read(bytes, &mut pos, MAX_DEPTH).ok())
    }

    /// Copies the items into one `Vec` of exactly their count, as
    /// `JRef::to_owned` copies a list.
    pub(crate) fn to_owned_items(self) -> Vec<JValue> {
        let mut items = Vec::with_capacity(self.len);
        for item in self.iter() {
            items.push(item.to_owned());
        }
        items
    }
}

/// The class, field count and field bytes of a validated object.
#[derive(Debug, Clone, Copy)]
pub struct JObject<'a> {
    class: &'a str,
    len: usize,
    bytes: &'a [u8],
}

impl<'a> JObject<'a> {
    /// Iterates the `(name, value)` fields in order, as a list's items
    /// are iterated.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&'a str, JRef<'a>)> {
        let (bytes, mut pos) = (self.bytes, 0);
        (0..self.len).map_while(move |_| {
            let name = read_utf(bytes, &mut pos).ok()?;
            Some((name, read(bytes, &mut pos, MAX_DEPTH).ok()?))
        })
    }
}

/// The one walk over the grammar: checks the value at `pos` to its last
/// byte, leaves `pos` just past it and returns its view. `depth` is how
/// many more levels of lists and objects may open; the iterators read a
/// container's items with the full bound, since the container was
/// checked at its own depth.
fn read<'a>(data: &'a [u8], pos: &mut usize, depth: usize) -> Result<JRef<'a>, MarshalError> {
    let tag = *data
        .get(*pos)
        .ok_or_else(|| MarshalError::new("truncated stream"))?;
    *pos += 1;
    Ok(match tag {
        TAG_NULL => JRef::Null,
        TAG_BOOL => {
            let b = *data
                .get(*pos)
                .ok_or_else(|| MarshalError::new("truncated bool"))?;
            *pos += 1;
            JRef::Bool(b != 0)
        }
        TAG_INT => JRef::Int(i64::from_be_bytes(take_array(data, pos)?)),
        TAG_DOUBLE => JRef::Double(f64::from_be_bytes(take_array(data, pos)?)),
        TAG_STR => JRef::Str(read_utf(data, pos)?),
        TAG_BYTES => {
            let len = u32::from_be_bytes(take_array(data, pos)?) as usize;
            JRef::Bytes(take(data, pos, len)?)
        }
        TAG_LIST => {
            let depth = deeper(depth)?;
            let len = u32::from_be_bytes(take_array(data, pos)?) as usize;
            if len > data.len() {
                return Err(MarshalError::new("implausible list length"));
            }
            let start = *pos;
            for _ in 0..len {
                read(data, pos, depth)?;
            }
            JRef::List(JList {
                len,
                bytes: &data[start..*pos],
            })
        }
        TAG_OBJECT => {
            let depth = deeper(depth)?;
            let class = read_utf(data, pos)?;
            let uid = i64::from_be_bytes(take_array(data, pos)?);
            if uid != class_uid(class) {
                return Err(MarshalError::new(format!(
                    "serialVersionUID mismatch for {class}"
                )));
            }
            let len = u16::from_be_bytes(take_array(data, pos)?) as usize;
            let start = *pos;
            for _ in 0..len {
                read_utf(data, pos)?;
                read(data, pos, depth)?;
            }
            JRef::Object(JObject {
                class,
                len,
                bytes: &data[start..*pos],
            })
        }
        t => return Err(MarshalError::new(format!("unknown tag 0x{t:02x}"))),
    })
}

/// The depth left inside one more list or object, or the error for
/// nesting past [`MAX_DEPTH`].
fn deeper(depth: usize) -> Result<usize, MarshalError> {
    depth
        .checked_sub(1)
        .ok_or_else(|| MarshalError::new(format!("nesting deeper than {MAX_DEPTH} levels")))
}

fn read_utf<'a>(data: &'a [u8], pos: &mut usize) -> Result<&'a str, MarshalError> {
    let len = u16::from_be_bytes(take_array(data, pos)?) as usize;
    std::str::from_utf8(take(data, pos, len)?)
        .map_err(|_| MarshalError::new("invalid UTF-8 string"))
}

fn take_array<const N: usize>(data: &[u8], pos: &mut usize) -> Result<[u8; N], MarshalError> {
    Ok(take(data, pos, N)?.try_into().expect("took N bytes"))
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

/// A deterministic stand-in for `serialVersionUID`.
pub(crate) fn class_uid(class: &str) -> i64 {
    let mut h: i64 = 1125899906842597; // prime
    for b in class.bytes() {
        h = h.wrapping_mul(31).wrapping_add(i64::from(b));
    }
    h
}

/// A marshalling failure: a stream that is truncated, malformed, of an
/// incompatible class, or nested deeper than [`MAX_DEPTH`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarshalError {
    /// What went wrong.
    pub message: String,
}

impl MarshalError {
    /// Creates an error with the given message.
    pub fn new(m: impl Into<String>) -> Self {
        MarshalError { message: m.into() }
    }
}

impl fmt::Display for MarshalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "marshal error: {}", self.message)
    }
}

impl std::error::Error for MarshalError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &JValue) -> JValue {
        JValue::unmarshal(&v.marshal().unwrap()).unwrap()
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            JValue::Null,
            JValue::Bool(true),
            JValue::Bool(false),
            JValue::Int(-1),
            JValue::Int(i64::MAX),
            JValue::Double(2.5),
            JValue::Str("日本語 ok".into()),
            JValue::Str(String::new()),
            JValue::Bytes(vec![0, 255, 128]),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn objects_round_trip() {
        let v = JValue::object(
            "net.jini.lookup.entry.Name",
            vec![
                ("name".into(), JValue::Str("laserdisc".into())),
                ("rank".into(), JValue::Int(1)),
                (
                    "inner".into(),
                    JValue::object(
                        "java.awt.Point",
                        vec![("x".into(), JValue::Int(3)), ("y".into(), JValue::Int(4))],
                    ),
                ),
            ],
        );
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn lists_round_trip() {
        let v = JValue::List(vec![JValue::Int(1), JValue::Str("x".into()), JValue::Null]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn bad_streams_are_errors() {
        assert!(JValue::unmarshal(b"").is_err());
        assert!(JValue::unmarshal(b"XXXX\x02").is_err());
        assert!(JValue::unmarshal(b"JRM1").is_err());
        assert!(JValue::unmarshal(b"JRM1\xff").is_err());
        // Trailing garbage is rejected.
        let mut data = JValue::Int(1).marshal().unwrap();
        data.push(0);
        assert!(JValue::unmarshal(&data).is_err());
        // Truncation is rejected.
        let data = JValue::Str("hello".into()).marshal().unwrap();
        assert!(JValue::unmarshal(&data[..data.len() - 2]).is_err());
    }

    #[test]
    fn uid_mismatch_detected() {
        // Corrupt the class-name byte so the UID no longer matches —
        // the incompatible-class-change failure mode of real RMI.
        let mut data = JValue::object("com.sun.X", vec![]).marshal().unwrap();
        let name_start = 4 + 1 + 2;
        data[name_start] ^= 0x01;
        let err = JValue::unmarshal(&data).unwrap_err();
        assert!(err.message.contains("serialVersionUID"), "{err}");
    }

    #[test]
    fn serialization_overhead_is_visible() {
        // Class descriptors make objects much bigger than their data —
        // the Java-weight the paper complains about in §2.1.
        let obj = JValue::object(
            "net.jini.core.lookup.ServiceItem",
            vec![("a".into(), JValue::Int(1))],
        );
        let plain = JValue::Int(1);
        assert!(obj.marshal().unwrap().len() > plain.marshal().unwrap().len() * 4);
    }

    #[test]
    fn accessors() {
        let v = JValue::object("C", vec![("f".into(), JValue::Int(7))]);
        assert_eq!(v.field("f").and_then(JValue::as_int), Some(7));
        assert!(v.field("g").is_none());
        assert_eq!(JValue::Str("s".into()).as_str(), Some("s"));
        assert_eq!(JValue::Bool(true).as_bool(), Some(true));
        assert_eq!(JValue::Null.as_int(), None);
    }

    #[test]
    fn views_read_the_stream_in_place() {
        let v = JValue::object(
            "C",
            vec![
                ("k".into(), JValue::Int(1)),
                ("s".into(), JValue::Str("borrow-me".into())),
                (
                    "l".into(),
                    JValue::List(vec![JValue::Bool(true), JValue::Null]),
                ),
                ("k".into(), JValue::Int(2)),
            ],
        );
        let wire = v.marshal().unwrap();
        let view = JRef::unmarshal(&wire).unwrap();
        assert_eq!(view.to_owned(), v);
        // The first field of a name wins; absent names and non-objects
        // have none.
        assert_eq!(view.field("k").and_then(|f| f.as_int()), Some(1));
        assert!(view.field("missing").is_none());
        assert!(JRef::Int(3).field("k").is_none());
        let s = view.field("s").and_then(|f| f.as_str()).unwrap();
        let range = wire.as_ptr() as usize..wire.as_ptr() as usize + wire.len();
        assert!(
            range.contains(&(s.as_ptr() as usize)),
            "a string is a slice"
        );
        let Some(JRef::List(items)) = view.field("l") else {
            panic!("a list field views as a list");
        };
        let bools: Vec<Option<bool>> = items.iter().map(|i| i.as_bool()).collect();
        assert_eq!(bools, [Some(true), None]);
        let JRef::Object(object) = view else {
            panic!("an object views as an object");
        };
        let names: Vec<&str> = object.iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["k", "s", "l", "k"]);
    }

    /// `depth` lists of one item each around a `Null`.
    fn nested_lists(depth: usize) -> Vec<u8> {
        let mut wire = STREAM_MAGIC.to_vec();
        for _ in 0..depth {
            wire.push(TAG_LIST);
            wire.extend_from_slice(&1u32.to_be_bytes());
        }
        wire.push(TAG_NULL);
        wire
    }

    #[test]
    fn lengths_past_their_prefixes_are_refused() {
        let fits = JValue::Str("x".repeat(MAX_UTF));
        assert_eq!(JValue::unmarshal(&fits.marshal().unwrap()), Ok(fits));
        let refused = |v: JValue| v.marshal().unwrap_err().message;
        assert_eq!(
            refused(JValue::Str("x".repeat(MAX_UTF + 1))),
            "a string of 65536 bytes is over the 65535 its length holds"
        );
        // Past the limit the prefix would wrap and misframe what follows.
        assert!(JValue::List(vec![
            JValue::Str("x".repeat(70_000)),
            JValue::Str(String::new())
        ])
        .marshal()
        .is_err());
        assert!(JValue::object("x".repeat(MAX_UTF + 1), vec![])
            .marshal()
            .is_err());
        assert!(
            JValue::object("C", vec![("f".repeat(MAX_UTF + 1), JValue::Null)])
                .marshal()
                .is_err()
        );
        let fields = |n: usize| (0..n).map(|_| (String::new(), JValue::Null)).collect();
        let wide = JValue::object("C", fields(MAX_FIELDS));
        assert_eq!(JValue::unmarshal(&wide.marshal().unwrap()), Ok(wide));
        assert_eq!(
            refused(JValue::object("C", fields(MAX_FIELDS + 1))),
            "an object of 65536 fields is over the 65535 its count holds"
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let deepest = nested_lists(MAX_DEPTH);
        let v = JValue::unmarshal(&deepest).expect("MAX_DEPTH levels decode");
        assert_eq!(v.marshal().unwrap(), deepest);
        for too_deep in [nested_lists(MAX_DEPTH + 1), nested_lists(100_000)] {
            let err = JRef::unmarshal(&too_deep).unwrap_err();
            assert_eq!(err.message, "nesting deeper than 64 levels");
            assert_eq!(JValue::unmarshal(&too_deep), Err(err));
        }
        // Objects count toward the same bound, and so does an empty
        // container at the level past it.
        let mut objects = Vec::new();
        write_stream(&mut objects, |out| {
            for _ in 0..MAX_DEPTH {
                write_object_head(out, "o", 1);
                write_utf(out, "f");
            }
        })
        .unwrap();
        let mut past = objects.clone();
        objects.push(TAG_NULL);
        assert!(JRef::unmarshal(&objects).is_ok());
        let mut empty = Vec::new();
        write_stream(&mut empty, |out| write_object_head(out, "o", 0)).unwrap();
        past.extend_from_slice(&empty[STREAM_MAGIC.len()..]);
        assert!(JRef::unmarshal(&past).is_err());
    }
}
