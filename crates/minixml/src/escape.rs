//! XML character escaping.

use crate::writer::XmlOut;
use std::borrow::Cow;

/// Escapes text content: `&`, `<`, `>`.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_text_into(s, &mut out);
    out
}

/// [`escape_text`], written into the caller's sink — the streaming
/// serialisers escape straight into the wire buffer instead of
/// allocating a `String` per text run.
pub fn escape_text_into<O: XmlOut + ?Sized>(s: &str, out: &mut O) {
    let mut rest = s;
    while let Some(i) = rest.find(['&', '<', '>']) {
        out.put(&rest[..i]);
        match rest.as_bytes()[i] {
            b'&' => out.put("&amp;"),
            b'<' => out.put("&lt;"),
            _ => out.put("&gt;"),
        }
        rest = &rest[i + 1..];
    }
    out.put(rest);
}

/// Escapes attribute values: text escapes plus `"` and `'`.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_attr_into(s, &mut out);
    out
}

/// [`escape_attr`], written into the caller's sink.
pub fn escape_attr_into<O: XmlOut + ?Sized>(s: &str, out: &mut O) {
    let mut rest = s;
    while let Some(i) = rest.find(['&', '<', '>', '"', '\'']) {
        out.put(&rest[..i]);
        match rest.as_bytes()[i] {
            b'&' => out.put("&amp;"),
            b'<' => out.put("&lt;"),
            b'>' => out.put("&gt;"),
            b'"' => out.put("&quot;"),
            _ => out.put("&apos;"),
        }
        rest = &rest[i + 1..];
    }
    out.put(rest);
}

/// Decodes the five predefined XML entities plus decimal/hex character
/// references. Unknown entities are passed through verbatim (lenient, as
/// 2002-era SOAP stacks were).
pub fn unescape(s: &str) -> String {
    match unescape_cow(s) {
        Cow::Borrowed(b) => b.to_owned(),
        Cow::Owned(o) => o,
    }
}

/// [`unescape`], but borrows the input untouched when no `&` occurs —
/// the common case for SOAP payloads — and only allocates when an
/// entity actually has to be decoded.
pub fn unescape_cow(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        match rest.find(';') {
            Some(semi) if semi <= 12 => {
                let entity = &rest[1..semi];
                let decoded = match entity {
                    "amp" => Some('&'),
                    "lt" => Some('<'),
                    "gt" => Some('>'),
                    "quot" => Some('"'),
                    "apos" => Some('\''),
                    _ => decode_char_ref(entity),
                };
                match decoded {
                    Some(c) => {
                        out.push(c);
                        rest = &rest[semi + 1..];
                    }
                    None => {
                        out.push('&');
                        rest = &rest[1..];
                    }
                }
            }
            _ => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

fn decode_char_ref(entity: &str) -> Option<char> {
    let num = entity.strip_prefix('#')?;
    let code = if let Some(hex) = num.strip_prefix('x').or_else(|| num.strip_prefix('X')) {
        u32::from_str_radix(hex, 16).ok()?
    } else {
        num.parse::<u32>().ok()?
    };
    char::from_u32(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_escaping_round_trips() {
        let raw = r#"a<b>&c"d'e"#;
        assert_eq!(unescape(&escape_text(raw)), raw);
        assert_eq!(escape_text("a&b"), "a&amp;b");
        assert_eq!(escape_text("<tag>"), "&lt;tag&gt;");
    }

    #[test]
    fn attr_escaping_round_trips() {
        let raw = r#"say "hi" & 'bye' <now>"#;
        assert_eq!(unescape(&escape_attr(raw)), raw);
        assert!(escape_attr(raw).contains("&quot;"));
        assert!(escape_attr(raw).contains("&apos;"));
    }

    #[test]
    fn char_references_decode() {
        assert_eq!(unescape("&#65;"), "A");
        assert_eq!(unescape("&#x41;"), "A");
        assert_eq!(unescape("&#x3042;"), "\u{3042}");
    }

    #[test]
    fn unknown_entities_pass_through() {
        assert_eq!(unescape("&nbsp;"), "&nbsp;");
        assert_eq!(unescape("a & b"), "a & b");
        assert_eq!(unescape("trailing &"), "trailing &");
    }

    #[test]
    fn unescape_cow_borrows_when_clean() {
        assert!(matches!(unescape_cow("plain text"), Cow::Borrowed(_)));
        assert!(matches!(unescape_cow(""), Cow::Borrowed(_)));
        assert!(matches!(unescape_cow("a &amp; b"), Cow::Owned(_)));
        // A bare ampersand forces the scan but yields identical text.
        assert_eq!(unescape_cow("a & b"), "a & b");
    }

    #[test]
    fn bare_ampersand_before_long_run_is_literal() {
        // No semicolon within a plausible entity length.
        assert_eq!(
            unescape("&thisisnotanentityatall;x"),
            "&thisisnotanentityatall;x"
        );
    }
}
