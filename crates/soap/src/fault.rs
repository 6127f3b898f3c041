//! SOAP 1.1 faults.

use minixml::{Element, ParseError, Reader};
use std::borrow::Cow;
use std::fmt;

/// The standard SOAP 1.1 fault code classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCode {
    /// `SOAP-ENV:VersionMismatch`.
    VersionMismatch,
    /// `SOAP-ENV:MustUnderstand`.
    MustUnderstand,
    /// `SOAP-ENV:Client` — the caller's message was at fault.
    Client,
    /// `SOAP-ENV:Server` — processing failed; retrying may succeed.
    Server,
}

impl FaultCode {
    /// The qualified name on the wire.
    pub fn as_qname(self) -> &'static str {
        match self {
            FaultCode::VersionMismatch => "SOAP-ENV:VersionMismatch",
            FaultCode::MustUnderstand => "SOAP-ENV:MustUnderstand",
            FaultCode::Client => "SOAP-ENV:Client",
            FaultCode::Server => "SOAP-ENV:Server",
        }
    }

    /// Parses the qualified (or unqualified) name.
    pub fn from_qname(s: &str) -> Option<FaultCode> {
        let local = s.rsplit(':').next().unwrap_or(s);
        match local {
            "VersionMismatch" => Some(FaultCode::VersionMismatch),
            "MustUnderstand" => Some(FaultCode::MustUnderstand),
            "Client" => Some(FaultCode::Client),
            "Server" => Some(FaultCode::Server),
            _ => None,
        }
    }
}

/// A SOAP fault carried in a response body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// The fault class.
    pub code: FaultCode,
    /// Human-readable explanation.
    pub string: String,
    /// Optional application-specific detail.
    pub detail: Option<String>,
}

impl Fault {
    /// A server-side processing fault.
    pub fn server(msg: impl Into<String>) -> Fault {
        Fault {
            code: FaultCode::Server,
            string: msg.into(),
            detail: None,
        }
    }

    /// A malformed-request fault.
    pub fn client(msg: impl Into<String>) -> Fault {
        Fault {
            code: FaultCode::Client,
            string: msg.into(),
            detail: None,
        }
    }

    /// Attaches detail text (builder style).
    pub fn with_detail(mut self, detail: impl Into<String>) -> Fault {
        self.detail = Some(detail.into());
        self
    }

    /// Encodes as the `<SOAP-ENV:Fault>` element.
    pub fn to_element(&self) -> Element {
        let mut e = Element::new("SOAP-ENV:Fault")
            .child(Element::new("faultcode").text(self.code.as_qname()))
            .child(Element::new("faultstring").text(self.string.clone()));
        if let Some(d) = &self.detail {
            e.push(Element::new("detail").text(d.clone()));
        }
        e
    }
}

/// The parts of a `<Fault>` element an envelope decode collects: the
/// text of its first `faultcode`, `faultstring` and `detail` children.
#[derive(Debug, Default)]
pub(crate) struct FaultParts<'a> {
    code: Option<Cow<'a, str>>,
    string: Option<Cow<'a, str>>,
    detail: Option<Cow<'a, str>>,
}

impl<'a> FaultParts<'a> {
    /// If child element `local` (whose `Start` the reader just
    /// returned) is a part not seen yet, reads its text and returns
    /// `true`; otherwise leaves the reader alone.
    pub(crate) fn take(&mut self, local: &str, r: &mut Reader<'a>) -> Result<bool, ParseError> {
        let slot = match local {
            "faultcode" => &mut self.code,
            "faultstring" => &mut self.string,
            "detail" => &mut self.detail,
            _ => return Ok(false),
        };
        if slot.is_some() {
            return Ok(false);
        }
        *slot = Some(r.text_content()?);
        Ok(true)
    }

    /// The fault, if the code is a known one and a `faultstring` came.
    pub(crate) fn into_fault(self) -> Option<Fault> {
        Some(Fault {
            code: FaultCode::from_qname(&self.code?)?,
            string: self.string?.into_owned(),
            detail: self.detail.map(Cow::into_owned),
        })
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.as_qname(), self.string)?;
        if let Some(d) = &self.detail {
            write!(f, " ({d})")?;
        }
        Ok(())
    }
}

impl std::error::Error for Fault {}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(e: &Element) -> Option<Fault> {
        let doc = e.to_document();
        let mut r = Reader::new(&doc);
        r.next().unwrap();
        let mut parts = FaultParts::default();
        while let minixml::Event::Start(name) = r.next().unwrap() {
            if !parts.take(minixml::local_name(name), &mut r).unwrap() {
                r.skip_element().unwrap();
            }
        }
        parts.into_fault()
    }

    #[test]
    fn fault_round_trips() {
        let f = Fault::server("device unreachable").with_detail("x10 frame lost");
        assert_eq!(decode(&f.to_element()).unwrap(), f);
    }

    #[test]
    fn fault_without_detail() {
        let f = Fault::client("no such method");
        let e = f.to_element();
        assert!(e.find("detail").is_none());
        assert_eq!(decode(&e).unwrap(), f);
    }

    #[test]
    fn first_part_wins_and_unknown_children_are_left_alone() {
        let e = Element::new("Fault")
            .child(Element::new("faultcode").text("Client"))
            .child(Element::new("other").text("x"))
            .child(Element::new("faultstring").text("first"))
            .child(Element::new("faultstring").text("second"));
        assert_eq!(decode(&e).unwrap(), Fault::client("first"));
    }

    #[test]
    fn code_qnames_round_trip() {
        for c in [
            FaultCode::VersionMismatch,
            FaultCode::MustUnderstand,
            FaultCode::Client,
            FaultCode::Server,
        ] {
            assert_eq!(FaultCode::from_qname(c.as_qname()), Some(c));
        }
        assert_eq!(FaultCode::from_qname("Server"), Some(FaultCode::Server));
        assert_eq!(FaultCode::from_qname("env:Bogus"), None);
    }

    #[test]
    fn incomplete_or_unknown_faults_rejected() {
        assert!(decode(&Element::new("Fault")).is_none());
        // Fault with an unparseable code is rejected too.
        let bad = Element::new("Fault")
            .child(Element::new("faultcode").text("nonsense"))
            .child(Element::new("faultstring").text("x"));
        assert!(decode(&bad).is_none());
        let no_string = Element::new("Fault").child(Element::new("faultcode").text("Server"));
        assert!(decode(&no_string).is_none());
    }

    #[test]
    fn display_mentions_code_and_detail() {
        let f = Fault::server("boom").with_detail("why");
        assert_eq!(f.to_string(), "SOAP-ENV:Server: boom (why)");
    }
}
