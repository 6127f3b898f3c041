//! The decoders the one-pass wire replaced, kept verbatim as test
//! oracles: the element-tree envelope decode (`parse_ref`, then walk
//! the tree), the owned one-pass call decode the [`crate::CallRef`]
//! view replaced, and the three-scan HTTP request framing
//! (`message_len`, then the borrowed parse, then the header block's
//! checks). For every input the streaming decoders must return what
//! these return, errors included.

use crate::fault::{Fault, FaultCode};
use crate::http::HttpError;
use crate::rpc::{read_body, read_envelope, RpcCall, RpcResponse, SoapError};
use crate::value::{base64_decode, Value, ValueError};
use minixml::{local_name, unescape_cow, ElemRef, ParseError, Reader};

/// The owned one-pass call decode: copies the namespace, method,
/// header entries and decoded arguments out as it reads.
pub(crate) fn call_from_envelope_one_pass(doc: &str) -> Result<RpcCall, SoapError> {
    let mut headers = Vec::new();
    let call = read_envelope(
        doc,
        |r| {
            r.for_each_child(|name, r| {
                let text = r.text_content()?.into_owned();
                headers.push((local_name(name).to_owned(), text));
                Ok(())
            })
        },
        |r| read_body(r, read_call),
    )?;
    Ok(RpcCall { headers, ..call })
}

/// Reads the call element `name`: its namespace (the first `xmlns…`
/// attribute) and its arguments. The first value error skips the rest.
fn read_call<'a>(
    name: &'a str,
    r: &mut Reader<'a>,
) -> Result<Result<RpcCall, SoapError>, ParseError> {
    let namespace = r
        .attrs()
        .iter()
        .find(|(k, _)| k.starts_with("xmlns"))
        .map(|&(_, v)| unescape_cow(v).into_owned())
        .unwrap_or_default();
    let mut args = Vec::new();
    let mut failed = None;
    r.for_each_child(|arg, r| {
        if failed.is_some() {
            return r.skip_element();
        }
        match Value::decode(r)? {
            Ok(v) => args.push((local_name(arg).to_owned(), v)),
            Err(e) => failed = Some(e),
        }
        Ok(())
    })?;
    Ok(match failed {
        Some(e) => Err(e.into()),
        None => Ok(RpcCall {
            namespace,
            method: local_name(name).to_owned(),
            args,
            headers: Vec::new(),
        }),
    })
}

pub(crate) fn value_from_element_ref(e: &ElemRef<'_>) -> Result<Value, ValueError> {
    let ty = e.get_attr("xsi:type").unwrap_or("xsd:string");
    if e.get_attr("xsi:nil") == Some("true") || ty == "xsi:null" {
        return Ok(Value::Null);
    }
    let err = |m: String| ValueError { message: m };
    match ty {
        "xsd:boolean" => match e.text_content().trim() {
            "true" | "1" => Ok(Value::Bool(true)),
            "false" | "0" => Ok(Value::Bool(false)),
            other => Err(err(format!("bad boolean '{other}'"))),
        },
        "xsd:int" | "xsd:long" | "xsd:short" | "xsd:byte" => e
            .text_content()
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| err(format!("bad integer '{}'", e.text_content()))),
        "xsd:double" | "xsd:float" | "xsd:decimal" => e
            .text_content()
            .trim()
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| err(format!("bad double '{}'", e.text_content()))),
        "xsd:string" => Ok(Value::Str(e.text_content().into_owned())),
        "SOAP-ENC:base64" | "xsd:base64Binary" => base64_decode(e.text_content().trim())
            .map(Value::Bytes)
            .ok_or_else(|| err("bad base64 payload".to_owned())),
        "SOAP-ENC:Array" => e
            .elements()
            .map(value_from_element_ref)
            .collect::<Result<Vec<_>, _>>()
            .map(Value::List),
        "SOAP-ENC:Struct" => e
            .elements()
            .map(|c| value_from_element_ref(c).map(|v| (c.local_name().to_owned(), v)))
            .collect::<Result<Vec<_>, _>>()
            .map(Value::Record),
        other => Err(err(format!("unsupported xsi:type '{other}'"))),
    }
}

pub(crate) fn fault_from_element_ref(e: &ElemRef<'_>) -> Option<Fault> {
    if e.local_name() != "Fault" {
        return None;
    }
    let code = FaultCode::from_qname(&e.find("faultcode")?.text_content())?;
    let string = e.find("faultstring")?.text_content().into_owned();
    let detail = e.find("detail").map(|d| d.text_content().into_owned());
    Some(Fault {
        code,
        string,
        detail,
    })
}

fn body_of<'a, 'd>(root: &'a ElemRef<'d>) -> Result<&'a ElemRef<'d>, SoapError> {
    if root.local_name() != "Envelope" {
        return Err(SoapError::Malformed(format!(
            "root element is <{}>, not an Envelope",
            root.name
        )));
    }
    root.find("Body")
        .ok_or_else(|| SoapError::Malformed("Envelope has no Body".into()))
}

pub(crate) fn call_from_envelope(doc: &str) -> Result<RpcCall, SoapError> {
    let root = minixml::parse_ref(doc)?;
    let headers = root
        .find("Header")
        .map(|h| {
            h.elements()
                .map(|e| (e.local_name().to_owned(), e.text_content().into_owned()))
                .collect()
        })
        .unwrap_or_default();
    let body = body_of(&root)?;
    let call = body
        .elements()
        .next()
        .ok_or_else(|| SoapError::Malformed("empty SOAP body".into()))?;
    let method = call.local_name().to_owned();
    let namespace = call
        .attrs
        .iter()
        .find(|(k, _)| k.starts_with("xmlns"))
        .map(|(_, v)| v.clone().into_owned())
        .unwrap_or_default();
    let args = call
        .elements()
        .map(|a| value_from_element_ref(a).map(|v| (a.local_name().to_owned(), v)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RpcCall {
        namespace,
        method,
        args,
        headers,
    })
}

pub(crate) fn response_from_envelope(doc: &str) -> Result<RpcResponse, SoapError> {
    let root = minixml::parse_ref(doc)?;
    let body = body_of(&root)?;
    let first = body
        .elements()
        .next()
        .ok_or_else(|| SoapError::Malformed("empty SOAP body".into()))?;
    if let Some(fault) = fault_from_element_ref(first) {
        return Err(SoapError::Fault(fault));
    }
    let method = first
        .local_name()
        .strip_suffix("Response")
        .unwrap_or(first.local_name())
        .to_owned();
    let value = match first.find("return") {
        Some(r) => value_from_element_ref(r)?,
        None => Value::Null,
    };
    Ok(RpcResponse { method, value })
}

/// The first request of a frame as the three-scan server saw it: the
/// framing error, or the message length with its parse outcome
/// (method, path, body) or parse error.
pub(crate) type Framed<'a> =
    Result<(usize, Result<(&'a str, &'a str, &'a [u8]), HttpError>), HttpError>;

/// The server's steps before the one-pass scan: `message_len`, then
/// `HttpRequestRef::parse` on the message. The one departure is
/// `checked_add` on the declared length, which overflowed there (a
/// debug-build panic, a wrapped length in release).
pub(crate) fn frame_request(data: &[u8]) -> Framed<'_> {
    let n = message_len(data)?;
    let msg = &data[..n];
    Ok((
        n,
        parse_request(msg).map(|(method, path, _, body)| (method, path, body)),
    ))
}

fn message_len(data: &[u8]) -> Result<usize, HttpError> {
    let sep = data
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(HttpError::Malformed("missing header terminator"))?;
    let head = std::str::from_utf8(&data[..sep])
        .map_err(|_| HttpError::Malformed("non-UTF8 header block"))?;
    let mut content_length = None;
    for line in head.lines().skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse::<usize>().ok();
            }
        }
    }
    match content_length {
        Some(n)
            if (sep + 4)
                .checked_add(n)
                .is_some_and(|end| end <= data.len()) =>
        {
            Ok(sep + 4 + n)
        }
        Some(_) => Err(HttpError::Malformed("truncated body")),
        None => Ok(data.len()),
    }
}

fn split_head_ref(data: &[u8]) -> Result<(&str, &[u8]), HttpError> {
    let sep = data
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(HttpError::Malformed("missing header terminator"))?;
    let head = std::str::from_utf8(&data[..sep])
        .map_err(|_| HttpError::Malformed("non-UTF8 header block"))?;
    Ok((head, &data[sep + 4..]))
}

/// `HttpRequestRef::parse`: method, path, header lines, body.
pub(crate) fn parse_request(data: &[u8]) -> Result<(&str, &str, &str, &[u8]), HttpError> {
    let (head, body) = split_head_ref(data)?;
    let mut lines = head.lines();
    let request_line = lines.next().ok_or(HttpError::Malformed("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(HttpError::Malformed("no method"))?;
    let path = parts.next().ok_or(HttpError::Malformed("no path"))?;
    let version = parts.next().ok_or(HttpError::Malformed("no version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    let header_lines = validate_header_lines(head, request_line)?;
    Ok((method, path, header_lines, body))
}

/// `HttpResponseRef::parse`: status, reason, header lines, body.
pub(crate) fn parse_response(data: &[u8]) -> Result<(u16, &str, &str, &[u8]), HttpError> {
    let (head, body) = split_head_ref(data)?;
    let mut lines = head.lines();
    let status_line = lines.next().ok_or(HttpError::Malformed("empty response"))?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().ok_or(HttpError::Malformed("no version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(HttpError::Malformed("bad status code"))?;
    let reason = parts.next().unwrap_or("");
    let header_lines = validate_header_lines(head, status_line)?;
    Ok((status, reason, header_lines, body))
}

fn validate_header_lines<'a>(head: &'a str, start_line: &str) -> Result<&'a str, HttpError> {
    let rest = &head[start_line.len()..];
    let rest = rest
        .strip_prefix("\r\n")
        .or_else(|| rest.strip_prefix('\n'))
        .unwrap_or(rest);
    for line in rest.lines() {
        if line.is_empty() {
            break;
        }
        if !line.contains(':') {
            return Err(HttpError::Malformed("header without colon"));
        }
    }
    Ok(rest)
}

pub(crate) fn find_header<'a>(header_lines: &'a str, key: &str) -> Option<&'a str> {
    for line in header_lines.lines() {
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case(key) {
                return Some(v.trim());
            }
        }
    }
    None
}
