//! WSDL-style service descriptions.
//!
//! §3.3 of the paper: "if the protocol of VSG is SOAP, the VSG will be
//! implemented with WSDL and UDDI". A [`ServiceDescription`] is the
//! document the Virtual Service Repository stores for every bridged
//! service: its abstract interface (port type + operations) plus the
//! concrete VSG endpoint that reaches it.

use crate::types::XsdType;
use minixml::{
    escape_attr_into, escape_text_into, local_name, Event, Measure, ParseError, Reader, XmlOut,
};
#[cfg(test)]
use minixml::{ElemRef, Element};
use std::borrow::Cow;
use std::fmt;

/// One named, typed message part (a parameter or return value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Part {
    /// Parameter name.
    pub name: String,
    /// Declared wire type.
    pub ty: XsdType,
}

impl Part {
    /// Creates a part.
    pub fn new(name: impl Into<String>, ty: XsdType) -> Part {
        Part {
            name: name.into(),
            ty,
        }
    }
}

/// One operation of a port type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// Operation name.
    pub name: String,
    /// Input parts, in call order.
    pub inputs: Vec<Part>,
    /// Output part; `None` for one-way/void operations.
    pub output: Option<Part>,
    /// Whether invoking the operation twice is equivalent to invoking
    /// it once (a pure read, or an absolute state set). Carried as an
    /// `idempotent="true"` attribute so resilience layers on *other*
    /// gateways can decide retry safety from the description alone.
    pub idempotent: bool,
}

impl Operation {
    /// Creates a void operation with no inputs.
    pub fn new(name: impl Into<String>) -> Operation {
        Operation {
            name: name.into(),
            inputs: Vec::new(),
            output: None,
            idempotent: false,
        }
    }

    /// Marks the operation idempotent (builder style).
    pub fn idempotent(mut self) -> Operation {
        self.idempotent = true;
        self
    }

    /// Adds an input part (builder style).
    pub fn input(mut self, name: impl Into<String>, ty: XsdType) -> Operation {
        self.inputs.push(Part::new(name, ty));
        self
    }

    /// Sets the output part (builder style).
    pub fn returns(mut self, ty: XsdType) -> Operation {
        self.output = Some(Part::new("return", ty));
        self
    }
}

/// A complete service description: abstract interface + concrete endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceDescription {
    /// Service name, unique within the home (e.g. `living-room-vcr`).
    pub name: String,
    /// Target namespace, also the SOAP routing key (e.g. `urn:vsg:vcr`).
    pub namespace: String,
    /// The operations this service offers.
    pub operations: Vec<Operation>,
    /// The VSG endpoint that reaches the service, as
    /// `vsg://<gateway>/<service>`.
    pub endpoint: String,
    /// Free-text documentation.
    pub documentation: String,
}

impl ServiceDescription {
    /// Creates a description with no operations.
    pub fn new(name: impl Into<String>, namespace: impl Into<String>) -> Self {
        ServiceDescription {
            name: name.into(),
            namespace: namespace.into(),
            operations: Vec::new(),
            endpoint: String::new(),
            documentation: String::new(),
        }
    }

    /// Adds an operation (builder style).
    pub fn operation(mut self, op: Operation) -> Self {
        self.operations.push(op);
        self
    }

    /// Sets the endpoint (builder style).
    pub fn at(mut self, endpoint: impl Into<String>) -> Self {
        self.endpoint = endpoint.into();
        self
    }

    /// Sets documentation (builder style).
    pub fn doc(mut self, text: impl Into<String>) -> Self {
        self.documentation = text.into();
        self
    }

    /// Finds an operation by name.
    #[cfg(test)]
    fn find_operation(&self, name: &str) -> Option<&Operation> {
        self.operations.iter().find(|o| o.name == name)
    }

    /// Serialises to a WSDL-style document, written once into an
    /// exactly sized string (the document is measured first).
    pub fn to_document(&self) -> String {
        let mut len = Measure::default();
        self.write_document(&mut len);
        let mut out = String::with_capacity(len.0);
        self.write_document(&mut out);
        out
    }

    /// Streams the WSDL-style document into `out`, XML declaration
    /// first — no element tree is built. Byte-identical to serialising
    /// the element tree this crate's tests keep as the oracle.
    pub fn write_document<O: XmlOut + ?Sized>(&self, out: &mut O) {
        DocumentParts {
            name: &self.name,
            namespace: &[&self.namespace],
            documentation: &[&self.documentation],
            endpoint: &[&self.endpoint],
            operations: self.operations.iter().map(|op| OperationParts {
                name: &op.name,
                idempotent: op.idempotent,
                inputs: op.inputs.iter().map(|p| (p.name.as_str(), p.ty)),
                output: op.output.as_ref().map(|p| (p.name.as_str(), p.ty)),
            }),
        }
        .write(out);
    }

    /// Parses a WSDL-style document: the owned build over
    /// [`read_document`], which copies each part it hands over.
    pub fn from_document(doc: &str) -> Result<ServiceDescription, DescriptionError> {
        let mut desc = ServiceDescription::new(String::new(), String::new());
        read_document(doc, &mut Owned(&mut desc))?;
        Ok(desc)
    }

    /// Serialises to a WSDL-style element tree — the oracle the
    /// streaming [`Self::write_document`] must match byte for byte.
    #[cfg(test)]
    pub(crate) fn to_xml(&self) -> Element {
        let mut port_type = Element::new("portType").attr("name", format!("{}PortType", self.name));
        for op in &self.operations {
            let mut op_el = Element::new("operation").attr("name", &op.name);
            if op.idempotent {
                op_el = op_el.attr("idempotent", "true");
            }
            let mut input = Element::new("input");
            for p in &op.inputs {
                input.push(
                    Element::new("part")
                        .attr("name", &p.name)
                        .attr("type", p.ty.as_qname()),
                );
            }
            op_el.push(input);
            if let Some(out) = &op.output {
                op_el.push(
                    Element::new("output").child(
                        Element::new("part")
                            .attr("name", &out.name)
                            .attr("type", out.ty.as_qname()),
                    ),
                );
            }
            port_type.push(op_el);
        }
        let mut defs = Element::new("definitions")
            .attr("name", &self.name)
            .attr("targetNamespace", &self.namespace);
        if !self.documentation.is_empty() {
            defs.push(Element::new("documentation").text(&self.documentation));
        }
        defs.push(port_type);
        defs.push(
            Element::new("service").attr("name", &self.name).child(
                Element::new("port")
                    .child(Element::new("soap:address").attr("location", &self.endpoint)),
            ),
        );
        defs
    }

    /// Parses a WSDL-style document from the borrowed tree of
    /// [`minixml::parse_ref`] — the oracle the one-pass
    /// [`Self::from_document`] must agree with on every input.
    #[cfg(test)]
    pub(crate) fn from_xml(e: &ElemRef<'_>) -> Result<ServiceDescription, DescriptionError> {
        if e.local_name() != "definitions" {
            return Err(DescriptionError::new("root must be <definitions>"));
        }
        let name = e
            .get_attr("name")
            .ok_or_else(|| DescriptionError::new("definitions missing name"))?
            .to_owned();
        let namespace = e.get_attr("targetNamespace").unwrap_or_default().to_owned();
        let documentation = e
            .find("documentation")
            .map(|d| d.text_content().into_owned())
            .unwrap_or_default();
        let mut operations = Vec::new();
        if let Some(pt) = e.find("portType") {
            for op_el in pt.find_all("operation") {
                let op_name = op_el
                    .get_attr("name")
                    .ok_or_else(|| DescriptionError::new("operation missing name"))?
                    .to_owned();
                let mut op = Operation::new(op_name);
                op.idempotent = op_el.get_attr("idempotent") == Some("true");
                if let Some(input) = op_el.find("input") {
                    for p in input.find_all("part") {
                        op.inputs.push(Part::new(
                            p.get_attr("name").unwrap_or("arg"),
                            XsdType::from_qname(p.get_attr("type").unwrap_or("anyType")),
                        ));
                    }
                }
                if let Some(output) = op_el.find("output") {
                    if let Some(p) = output.find("part") {
                        op.output = Some(Part::new(
                            p.get_attr("name").unwrap_or("return"),
                            XsdType::from_qname(p.get_attr("type").unwrap_or("anyType")),
                        ));
                    }
                }
                operations.push(op);
            }
        }
        let endpoint = e
            .find_path(&["service", "port", "address"])
            .and_then(|a| a.get_attr("location"))
            .unwrap_or_default()
            .to_owned();
        Ok(ServiceDescription {
            name,
            namespace,
            operations,
            endpoint,
            documentation,
        })
    }
}

/// A WSDL-style document's parts, borrowed: what
/// [`ServiceDescription::write_document`] writes, for a caller that
/// holds the parts but no description. Each string is given as pieces
/// written one after another, so `urn:vsg:` and a service name need not
/// be joined first.
pub struct DocumentParts<'a, Ops> {
    /// The service name: the definitions, port type and service are
    /// named after it.
    pub name: &'a str,
    /// The target namespace, in pieces.
    pub namespace: &'a [&'a str],
    /// The documentation, in pieces; no element when they are empty.
    pub documentation: &'a [&'a str],
    /// The VSG endpoint, in pieces.
    pub endpoint: &'a [&'a str],
    /// The operations, in order.
    pub operations: Ops,
}

/// One operation's parts, borrowed (see [`DocumentParts`]).
pub struct OperationParts<'a, Inputs> {
    /// Operation name.
    pub name: &'a str,
    /// Whether the operation is idempotent.
    pub idempotent: bool,
    /// The input parts' names and types, in call order.
    pub inputs: Inputs,
    /// The output part's name and type.
    pub output: Option<(&'a str, XsdType)>,
}

impl<'a, Ops, Inputs> DocumentParts<'a, Ops>
where
    Ops: Iterator<Item = OperationParts<'a, Inputs>> + Clone,
    Inputs: Iterator<Item = (&'a str, XsdType)>,
{
    /// The document, written once into an exactly sized string (it is
    /// measured first).
    pub fn to_document(&self) -> String {
        let mut len = Measure::default();
        self.write(&mut len);
        let mut out = String::with_capacity(len.0);
        self.write(&mut out);
        out
    }

    /// Streams the document into `out`, XML declaration first.
    pub fn write<O: XmlOut + ?Sized>(&self, out: &mut O) {
        out.put("<?xml version=\"1.0\" encoding=\"UTF-8\"?><definitions name=\"");
        escape_attr_into(self.name, out);
        out.put("\" targetNamespace=\"");
        self.namespace.iter().for_each(|s| escape_attr_into(s, out));
        out.put("\">");
        if self.documentation.iter().any(|s| !s.is_empty()) {
            out.put("<documentation>");
            self.documentation
                .iter()
                .for_each(|s| escape_text_into(s, out));
            out.put("</documentation>");
        }
        out.put("<portType name=\"");
        escape_attr_into(self.name, out);
        out.put("PortType\"");
        let mut ops = self.operations.clone().peekable();
        if ops.peek().is_none() {
            out.put("/>");
        } else {
            out.put(">");
            for op in ops {
                out.put("<operation name=\"");
                escape_attr_into(op.name, out);
                out.put(if op.idempotent {
                    "\" idempotent=\"true\"><input"
                } else {
                    "\"><input"
                });
                let mut inputs = op.inputs.peekable();
                if inputs.peek().is_none() {
                    out.put("/>");
                } else {
                    out.put(">");
                    inputs.for_each(|part| write_part(part, out));
                    out.put("</input>");
                }
                if let Some(part) = op.output {
                    out.put("<output>");
                    write_part(part, out);
                    out.put("</output>");
                }
                out.put("</operation>");
            }
            out.put("</portType>");
        }
        out.put("<service name=\"");
        escape_attr_into(self.name, out);
        out.put("\"><port><soap:address location=\"");
        self.endpoint.iter().for_each(|s| escape_attr_into(s, out));
        out.put("\"/></port></service></definitions>");
    }
}

/// Writes one message part, its name and type, as a `part` element.
fn write_part<O: XmlOut + ?Sized>((name, ty): (&str, XsdType), out: &mut O) {
    out.put("<part name=\"");
    escape_attr_into(name, out);
    out.put("\" type=\"");
    out.put(ty.as_qname());
    out.put("\"/>");
}

/// The parts of a WSDL-style document that [`read_document`] hands its
/// caller, in document order. Each is borrowed from the document, and
/// owned only where an entity had to be unescaped.
pub trait DescriptionVisitor<'d> {
    /// The root `definitions` element's `name`, and its
    /// `targetNamespace` (empty when it has none). Called first.
    fn definitions(&mut self, name: Cow<'d, str>, namespace: Cow<'d, str>);

    /// The text of the first `documentation` element.
    fn documentation(&mut self, text: Cow<'d, str>);

    /// An operation of the first `portType`, in order, and whether it
    /// is idempotent. Its parts follow before the next operation.
    fn operation(&mut self, name: Cow<'d, str>, idempotent: bool);

    /// An input part of the operation last begun, in call order; `arg`
    /// when the part has no name.
    fn input(&mut self, name: Cow<'d, str>, ty: XsdType);

    /// The output part of the operation last begun; `return` when the
    /// part has no name.
    fn output(&mut self, name: Cow<'d, str>, ty: XsdType);

    /// The location of the first `service`'s first `port`'s first
    /// `address`.
    fn endpoint(&mut self, location: Cow<'d, str>);
}

/// Reads a WSDL-style document in one pass over the pull [`Reader`],
/// handing `visitor` each part as it is met: no element tree is built,
/// and nothing is copied out of `doc` but an unescaped entity. The
/// first of each singular element counts (`documentation`, `portType`,
/// an operation's `input` and `output`, the `service` / `port` /
/// `address` path); later ones are skipped. The document is read to
/// its end, so an XML error anywhere wins over a description error; a
/// malformed document's error carries the XML error's text. After an
/// error, what `visitor` was handed is no description.
pub fn read_document<'d>(
    doc: &'d str,
    visitor: &mut impl DescriptionVisitor<'d>,
) -> Result<(), DescriptionError> {
    read_description(&mut Reader::new(doc), visitor)
        .unwrap_or_else(|e| Err(DescriptionError::new(e.to_string())))
}

/// The owned build of [`ServiceDescription::from_document`]: each part
/// copied into the description.
struct Owned<'a>(&'a mut ServiceDescription);

impl<'d> DescriptionVisitor<'d> for Owned<'_> {
    fn definitions(&mut self, name: Cow<'d, str>, namespace: Cow<'d, str>) {
        self.0.name = name.into_owned();
        self.0.namespace = namespace.into_owned();
    }

    fn documentation(&mut self, text: Cow<'d, str>) {
        self.0.documentation = text.into_owned();
    }

    fn operation(&mut self, name: Cow<'d, str>, idempotent: bool) {
        let mut op = Operation::new(name);
        op.idempotent = idempotent;
        self.0.operations.push(op);
    }

    fn input(&mut self, name: Cow<'d, str>, ty: XsdType) {
        if let Some(op) = self.0.operations.last_mut() {
            op.inputs.push(Part::new(name, ty));
        }
    }

    fn output(&mut self, name: Cow<'d, str>, ty: XsdType) {
        if let Some(op) = self.0.operations.last_mut() {
            op.output = Some(Part::new(name, ty));
        }
    }

    fn endpoint(&mut self, location: Cow<'d, str>) {
        self.0.endpoint = location.into_owned();
    }
}

/// Reads a whole document for [`read_document`]: the root, its
/// children, and what follows the root. The outer error is the
/// document's; the inner one is the description's, reported only once
/// the document has been read through.
fn read_description<'d>(
    r: &mut Reader<'d>,
    visitor: &mut impl DescriptionVisitor<'d>,
) -> Result<Result<(), DescriptionError>, ParseError> {
    let Event::Start(root) = r.next()? else {
        unreachable!("a document's first event is its root's start tag")
    };
    match (local_name(root), r.attr("name")) {
        ("definitions", Some(name)) => visitor.definitions(name, attr_or(r, "targetNamespace", "")),
        (root, _) => {
            let failed = if root == "definitions" {
                "definitions missing name"
            } else {
                "root must be <definitions>"
            };
            r.skip_element()?;
            r.next()?;
            return Ok(Err(DescriptionError::new(failed)));
        }
    }
    let mut failed = None;
    let (mut documentation, mut port_type, mut service) = (true, true, true);
    r.for_each_child(|child, r| match local_name(child) {
        "documentation" if documentation => {
            documentation = false;
            visitor.documentation(r.text_content()?);
            Ok(())
        }
        "portType" if port_type => {
            port_type = false;
            read_all(r, "operation", |r| {
                if failed.is_none() && !read_operation(r, visitor)? {
                    failed = Some("operation missing name");
                }
                Ok(())
            })
        }
        "service" if service => {
            service = false;
            read_first(r, "port", |r| {
                read_first(r, "address", |r| {
                    visitor.endpoint(attr_or(r, "location", ""));
                    Ok(())
                })
            })
        }
        _ => Ok(()),
    })?;
    r.next()?;
    Ok(match failed {
        Some(failed) => Err(DescriptionError::new(failed)),
        None => Ok(()),
    })
}

/// Hands `visitor` the operation whose start tag the reader just
/// returned, and its parts; `false` when it has no name (its content
/// is then left for the caller to skip).
fn read_operation<'d>(
    r: &mut Reader<'d>,
    visitor: &mut impl DescriptionVisitor<'d>,
) -> Result<bool, ParseError> {
    let Some(name) = r.attr("name") else {
        return Ok(false);
    };
    visitor.operation(name, r.attr("idempotent").as_deref() == Some("true"));
    let (mut input, mut output) = (true, true);
    r.for_each_child(|child, r| match local_name(child) {
        "input" if input => {
            input = false;
            read_all(r, "part", |r| {
                let (name, ty) = read_part(r, "arg");
                visitor.input(name, ty);
                Ok(())
            })
        }
        "output" if output => {
            output = false;
            read_first(r, "part", |r| {
                let (name, ty) = read_part(r, "return");
                visitor.output(name, ty);
                Ok(())
            })
        }
        _ => Ok(()),
    })?;
    Ok(true)
}

/// The name and type of the part whose start tag the reader just
/// returned; `name` is the default for a part without one.
fn read_part<'d>(r: &Reader<'d>, name: &'static str) -> (Cow<'d, str>, XsdType) {
    let ty = XsdType::from_qname(&r.attr("type").unwrap_or(Cow::Borrowed("anyType")));
    (attr_or(r, "name", name), ty)
}

/// Attribute `key` of the start tag just returned, unescaped, or
/// `default`.
fn attr_or<'d>(r: &Reader<'d>, key: &str, default: &'static str) -> Cow<'d, str> {
    r.attr(key).unwrap_or(Cow::Borrowed(default))
}

/// Hands every child element named `local` of the innermost open
/// element to `read`, skipping the rest, through the parent's `End`.
fn read_all<'a>(
    r: &mut Reader<'a>,
    local: &str,
    mut read: impl FnMut(&mut Reader<'a>) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    r.for_each_child(|child, r| {
        if local_name(child) == local {
            read(r)?;
        }
        Ok(())
    })
}

/// Hands the first child element named `local` of the innermost open
/// element to `read`, skipping the rest, through the parent's `End`.
fn read_first<'a>(
    r: &mut Reader<'a>,
    local: &str,
    read: impl FnOnce(&mut Reader<'a>) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    let mut read = Some(read);
    read_all(r, local, |r| match read.take() {
        Some(read) => read(r),
        None => Ok(()),
    })
}

/// A description parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescriptionError {
    /// What went wrong.
    pub message: String,
}

impl DescriptionError {
    fn new(m: impl Into<String>) -> Self {
        DescriptionError { message: m.into() }
    }
}

impl fmt::Display for DescriptionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid service description: {}", self.message)
    }
}

impl std::error::Error for DescriptionError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn vcr() -> ServiceDescription {
        ServiceDescription::new("living-room-vcr", "urn:vsg:vcr")
            .doc("HAVi VCR bridged to the VSG")
            .at("vsg://havi-gw/living-room-vcr")
            .operation(
                Operation::new("record")
                    .input("channel", XsdType::Int)
                    .input("title", XsdType::String)
                    .returns(XsdType::Boolean),
            )
            .operation(Operation::new("stop"))
            .operation(
                Operation::new("position")
                    .returns(XsdType::Int)
                    .idempotent(),
            )
    }

    fn parse(doc: &str) -> Result<ServiceDescription, DescriptionError> {
        ServiceDescription::from_xml(&minixml::parse_ref(doc).unwrap())
    }

    #[test]
    fn xml_round_trip() {
        let d = vcr();
        assert_eq!(parse(&d.to_xml().to_document()).unwrap(), d);
    }

    #[test]
    fn round_trip_through_text() {
        let d = ServiceDescription::new("a&b", "urn:x<y>")
            .doc("\"quoted\" & <escaped>")
            .at("vsg://gw/a&b");
        assert_eq!(parse(&d.to_xml().to_document()).unwrap(), d);
    }

    #[test]
    fn idempotence_survives_the_wire() {
        let d = vcr();
        let doc = d.to_xml().to_document();
        let back = parse(&doc).unwrap();
        assert!(back.find_operation("position").unwrap().idempotent);
        assert!(!back.find_operation("record").unwrap().idempotent);
    }

    #[test]
    fn rejects_wrong_root() {
        assert!(parse("<notdefs/>").is_err());
        assert!(parse("<definitions/>").is_err(), "no name");
    }

    #[test]
    fn unknown_part_types_become_any() {
        let doc = r#"<definitions name="s" targetNamespace="urn:s">
            <portType name="sPortType">
              <operation name="op"><input><part name="x" type="vendor:blob"/></input></operation>
            </portType></definitions>"#;
        let d = parse(doc).unwrap();
        assert_eq!(d.operations[0].inputs[0].ty, XsdType::Any);
        assert_eq!(d.endpoint, "");
    }
}
