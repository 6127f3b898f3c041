//! Canonical service interfaces.
//!
//! A [`ServiceInterface`] is the framework's middleware-neutral interface
//! descriptor — the artefact the paper's prototype extracted from Java
//! interfaces to drive both WSDL generation and automatic proxy
//! generation (§4.1). Every PCM maps its middleware's native service
//! descriptions onto this form.

use crate::error::MetaError;
use crate::intern::Name;
use soap::Value;
use std::borrow::Cow;
use std::fmt;
use wsdl::{DescriptionError, DescriptionVisitor, Operation, ServiceDescription, XsdType};

/// A parameter or return type in the canonical type system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeTag {
    /// Boolean.
    Bool,
    /// 64-bit integer.
    Int,
    /// Double-precision float.
    Float,
    /// UTF-8 string.
    Str,
    /// Opaque bytes.
    Bytes,
    /// Anything (lists, records, or any scalar).
    Any,
}

impl TypeTag {
    /// True if `value` inhabits this type.
    pub fn admits(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (TypeTag::Any, _)
                | (TypeTag::Bool, Value::Bool(_))
                | (TypeTag::Int, Value::Int(_))
                | (TypeTag::Float, Value::Float(_))
                | (TypeTag::Str, Value::Str(_))
                | (TypeTag::Bytes, Value::Bytes(_))
        )
    }

    /// The matching WSDL part type.
    fn to_xsd(self) -> XsdType {
        match self {
            TypeTag::Bool => XsdType::Boolean,
            TypeTag::Int => XsdType::Int,
            TypeTag::Float => XsdType::Double,
            TypeTag::Str => XsdType::String,
            TypeTag::Bytes => XsdType::Base64,
            TypeTag::Any => XsdType::Any,
        }
    }

    /// Inverse of [`TypeTag::to_xsd`].
    fn from_xsd(t: XsdType) -> TypeTag {
        match t {
            XsdType::Boolean => TypeTag::Bool,
            XsdType::Int => TypeTag::Int,
            XsdType::Double => TypeTag::Float,
            XsdType::String => TypeTag::Str,
            XsdType::Base64 => TypeTag::Bytes,
            XsdType::Any => TypeTag::Any,
        }
    }
}

impl fmt::Display for TypeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TypeTag::Bool => "bool",
            TypeTag::Int => "int",
            TypeTag::Float => "float",
            TypeTag::Str => "str",
            TypeTag::Bytes => "bytes",
            TypeTag::Any => "any",
        };
        f.write_str(s)
    }
}

/// One operation signature. Its names are interned: a spelling the
/// process has seen before costs no copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSig {
    /// Operation name.
    pub name: Name,
    /// Named, typed parameters in call order.
    pub params: Vec<(Name, TypeTag)>,
    /// Return type; `None` for void.
    pub returns: Option<TypeTag>,
    /// Whether calling the operation twice is equivalent to calling it
    /// once (a pure read, or an absolute state set). The resilience
    /// layer only re-sends an operation whose response was lost — an
    /// *ambiguous* failure — when this is `true`. Defaults to `false`:
    /// the safe assumption for an operation nobody has classified.
    pub idempotent: bool,
}

impl OpSig {
    /// Creates a void, parameterless operation.
    pub fn new(name: impl Into<Name>) -> OpSig {
        OpSig {
            name: name.into(),
            params: Vec::new(),
            returns: None,
            idempotent: false,
        }
    }

    /// Adds a parameter (builder style).
    pub fn param(mut self, name: impl Into<Name>, ty: TypeTag) -> OpSig {
        self.params.push((name.into(), ty));
        self
    }

    /// Sets the return type (builder style).
    pub fn returns(mut self, ty: TypeTag) -> OpSig {
        self.returns = Some(ty);
        self
    }

    /// Marks the operation idempotent (builder style).
    pub fn idempotent(mut self) -> OpSig {
        self.idempotent = true;
        self
    }

    /// Type-checks an argument list against this signature. Arguments are
    /// matched by name; extra arguments are rejected, missing ones too.
    pub fn check_args(&self, args: &[(String, Value)]) -> Result<(), MetaError> {
        for (name, ty) in &self.params {
            let arg =
                args.iter()
                    .find(|(k, _)| name == k)
                    .ok_or_else(|| MetaError::TypeMismatch {
                        operation: self.name.to_string(),
                        parameter: name.to_string(),
                        expected: ty.to_string(),
                        got: "missing".into(),
                    })?;
            if !ty.admits(&arg.1) {
                return Err(MetaError::TypeMismatch {
                    operation: self.name.to_string(),
                    parameter: name.to_string(),
                    expected: ty.to_string(),
                    got: arg.1.type_label().to_owned(),
                });
            }
        }
        if let Some((extra, _)) = args
            .iter()
            .find(|(k, _)| !self.params.iter().any(|(p, _)| p == k))
        {
            return Err(MetaError::TypeMismatch {
                operation: self.name.to_string(),
                parameter: extra.clone(),
                expected: "no such parameter".into(),
                got: "present".into(),
            });
        }
        Ok(())
    }
}

/// A named set of operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceInterface {
    /// Interface name (e.g. `VcrControl`), interned.
    pub name: Name,
    /// Operations.
    pub operations: Vec<OpSig>,
}

impl ServiceInterface {
    /// Creates an empty interface.
    pub fn new(name: impl Into<Name>) -> ServiceInterface {
        ServiceInterface {
            name: name.into(),
            operations: Vec::new(),
        }
    }

    /// Adds an operation (builder style).
    pub fn op(mut self, op: OpSig) -> ServiceInterface {
        self.operations.push(op);
        self
    }

    /// Finds an operation by name.
    pub fn find(&self, name: &str) -> Option<&OpSig> {
        self.operations.iter().find(|o| o.name == name)
    }

    /// Generates the WSDL-style description for a service implementing
    /// this interface at `endpoint`.
    pub fn to_wsdl(&self, service_name: &str, endpoint: &str) -> ServiceDescription {
        let mut desc = ServiceDescription::new(service_name, format!("urn:vsg:{service_name}"))
            .at(endpoint)
            .doc(format!("{INTERFACE_PREFIX}{}", self.name));
        for op in &self.operations {
            let mut w = Operation::new(op.name.as_str());
            if op.idempotent {
                w = w.idempotent();
            }
            for (p, t) in &op.params {
                w = w.input(p.as_str(), t.to_xsd());
            }
            if let Some(r) = op.returns {
                w = w.returns(r.to_xsd());
            }
            desc = desc.operation(w);
        }
        desc
    }

    /// Reads the interface a WSDL document describes (how a PCM learns
    /// a remote service's interface from the VSR), in one pass over
    /// [`wsdl::read_document`]. The interface's lists are built
    /// straight from the document's borrowed parts: one operation list,
    /// and one parameter list per operation that has inputs. Its names
    /// are interned, so a known spelling is not copied. The name is the
    /// documentation's after an `interface ` prefix, else the
    /// definitions name. Fails where
    /// [`ServiceDescription::from_document`] does.
    pub fn from_document(doc: &str) -> Result<ServiceInterface, DescriptionError> {
        let mut read = ReadInterface {
            definitions: Cow::Borrowed(""),
            documentation: Cow::Borrowed(""),
            operations: Vec::new(),
        };
        wsdl::read_document(doc, &mut read)?;
        let name = match read.documentation.strip_prefix(INTERFACE_PREFIX) {
            Some(name) => Name::new(name),
            None => Name::new(&read.definitions),
        };
        Ok(ServiceInterface {
            name,
            operations: read.operations,
        })
    }

    /// The interface of an owned WSDL description: the oracle of the
    /// one-pass [`ServiceInterface::from_document`].
    #[cfg(test)]
    pub(crate) fn from_wsdl(desc: ServiceDescription) -> ServiceInterface {
        let name = match desc.documentation.strip_prefix(INTERFACE_PREFIX) {
            Some(name) => Name::new(name),
            None => Name::new(&desc.name),
        };
        let operations = desc
            .operations
            .into_iter()
            .map(|op| OpSig {
                name: Name::new(&op.name),
                params: op
                    .inputs
                    .into_iter()
                    .map(|part| (Name::new(&part.name), TypeTag::from_xsd(part.ty)))
                    .collect(),
                returns: op.output.map(|out| TypeTag::from_xsd(out.ty)),
                idempotent: op.idempotent,
            })
            .collect();
        ServiceInterface { name, operations }
    }
}

/// What [`ServiceInterface::to_wsdl`] writes before the interface name
/// in a description's documentation.
const INTERFACE_PREFIX: &str = "interface ";

/// The parts [`ServiceInterface::from_document`] keeps as the reader
/// hands them over: the two names it chooses between, borrowed until
/// the read ends, and the operations, built as they arrive.
struct ReadInterface<'d> {
    definitions: Cow<'d, str>,
    documentation: Cow<'d, str>,
    operations: Vec<OpSig>,
}

impl<'d> DescriptionVisitor<'d> for ReadInterface<'d> {
    fn definitions(&mut self, name: Cow<'d, str>, _namespace: Cow<'d, str>) {
        self.definitions = name;
    }

    fn documentation(&mut self, text: Cow<'d, str>) {
        self.documentation = text;
    }

    fn operation(&mut self, name: Cow<'d, str>, idempotent: bool) {
        self.operations.push(OpSig {
            name: Name::new(&name),
            params: Vec::new(),
            returns: None,
            idempotent,
        });
    }

    fn input(&mut self, name: Cow<'d, str>, ty: XsdType) {
        if let Some(op) = self.operations.last_mut() {
            op.params.push((Name::new(&name), TypeTag::from_xsd(ty)));
        }
    }

    fn output(&mut self, _name: Cow<'d, str>, ty: XsdType) {
        if let Some(op) = self.operations.last_mut() {
            op.returns = Some(TypeTag::from_xsd(ty));
        }
    }

    fn endpoint(&mut self, _location: Cow<'d, str>) {}
}

/// A name-indexed collection of known interfaces.
///
/// PCMs use this to reconstruct a full [`ServiceInterface`] from the bare
/// interface *name* a native middleware advertises (a Jini proxy's Java
/// interface name, a UPnP service type) — the role Java reflection played
/// in the prototype.
#[derive(Debug, Clone, Default)]
pub struct InterfaceCatalog {
    by_name: std::collections::HashMap<Name, ServiceInterface>,
}

impl InterfaceCatalog {
    /// An empty catalog.
    pub fn new() -> InterfaceCatalog {
        InterfaceCatalog::default()
    }

    /// The catalog of standard appliance interfaces (see [`catalog`]).
    pub fn standard() -> InterfaceCatalog {
        let mut c = InterfaceCatalog::new();
        for iface in [
            catalog::lamp(),
            catalog::vcr(),
            catalog::laserdisc(),
            catalog::dv_camera(),
            catalog::tuner(),
            catalog::display(),
            catalog::fridge(),
            catalog::aircon(),
            catalog::mailer(),
            catalog::motion_sensor(),
        ] {
            c.insert(iface);
        }
        c
    }

    /// Adds (or replaces) an interface.
    pub fn insert(&mut self, iface: ServiceInterface) {
        self.by_name.insert(iface.name.clone(), iface);
    }

    /// Looks up an interface by name.
    pub fn get(&self, name: &str) -> Option<&ServiceInterface> {
        self.by_name.get(name)
    }

    /// Number of known interfaces.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }
}

/// Well-known appliance interfaces used throughout examples and tests —
/// the vocabulary of the paper's smart home.
pub mod catalog {
    use super::*;

    /// An on/off (dimmable) lamp.
    pub fn lamp() -> ServiceInterface {
        ServiceInterface::new("Lamp")
            .op(OpSig::new("switch").param("on", TypeTag::Bool))
            .op(OpSig::new("dim").param("steps", TypeTag::Int))
            .op(OpSig::new("status").returns(TypeTag::Bool).idempotent())
    }

    /// A VCR with transport and timer recording.
    pub fn vcr() -> ServiceInterface {
        ServiceInterface::new("VcrControl")
            .op(OpSig::new("play"))
            .op(OpSig::new("stop"))
            .op(OpSig::new("record")
                .param("channel", TypeTag::Int)
                .param("title", TypeTag::Str)
                .returns(TypeTag::Bool))
            .op(OpSig::new("position").returns(TypeTag::Int).idempotent())
    }

    /// The Jini Laserdisc player of Fig. 5.
    pub fn laserdisc() -> ServiceInterface {
        ServiceInterface::new("LaserdiscPlayer")
            .op(OpSig::new("play").param("chapter", TypeTag::Int))
            .op(OpSig::new("stop"))
            .op(OpSig::new("status").returns(TypeTag::Str).idempotent())
    }

    /// The HAVi DV camera of Fig. 5.
    pub(super) fn dv_camera() -> ServiceInterface {
        ServiceInterface::new("DvCamera")
            .op(OpSig::new("play"))
            .op(OpSig::new("stop"))
            .op(OpSig::new("record"))
            .op(OpSig::new("capture").returns(TypeTag::Int))
    }

    /// A TV tuner.
    pub fn tuner() -> ServiceInterface {
        ServiceInterface::new("Tuner")
            .op(OpSig::new("set_channel").param("channel", TypeTag::Int))
            .op(OpSig::new("channel").returns(TypeTag::Int).idempotent())
    }

    /// A display panel (for OSD).
    pub fn display() -> ServiceInterface {
        ServiceInterface::new("Display").op(OpSig::new("show").param("text", TypeTag::Str))
    }

    /// A refrigerator (the §1 Jini appliance).
    pub fn fridge() -> ServiceInterface {
        ServiceInterface::new("Fridge")
            .op(OpSig::new("temperature")
                .returns(TypeTag::Float)
                .idempotent())
            .op(OpSig::new("set_target").param("celsius", TypeTag::Float))
    }

    /// An air conditioner (the §1 Jini appliance).
    pub fn aircon() -> ServiceInterface {
        ServiceInterface::new("AirConditioner")
            .op(OpSig::new("switch").param("on", TypeTag::Bool))
            .op(OpSig::new("set_target").param("celsius", TypeTag::Float))
            .op(OpSig::new("status").returns(TypeTag::Str).idempotent())
    }

    /// A mail notification service.
    pub fn mailer() -> ServiceInterface {
        ServiceInterface::new("Mailer")
            .op(OpSig::new("send")
                .param("to", TypeTag::Str)
                .param("subject", TypeTag::Str)
                .param("body", TypeTag::Str))
            .op(OpSig::new("unread")
                .param("mailbox", TypeTag::Str)
                .returns(TypeTag::Int)
                .idempotent())
    }

    /// A motion sensor (event source, pollable).
    pub fn motion_sensor() -> ServiceInterface {
        ServiceInterface::new("MotionSensor")
            .op(OpSig::new("state").returns(TypeTag::Bool).idempotent())
            .op(OpSig::new("drain_events").returns(TypeTag::Any))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_admission() {
        assert!(TypeTag::Int.admits(&Value::Int(3)));
        assert!(!TypeTag::Int.admits(&Value::Str("3".into())));
        assert!(TypeTag::Any.admits(&Value::List(vec![])));
        assert!(TypeTag::Bytes.admits(&Value::Bytes(vec![1])));
        assert!(!TypeTag::Bool.admits(&Value::Null));
    }

    #[test]
    fn xsd_round_trip() {
        for t in [
            TypeTag::Bool,
            TypeTag::Int,
            TypeTag::Float,
            TypeTag::Str,
            TypeTag::Bytes,
            TypeTag::Any,
        ] {
            assert_eq!(TypeTag::from_xsd(t.to_xsd()), t);
        }
    }

    #[test]
    fn arg_checking() {
        let sig = OpSig::new("record")
            .param("channel", TypeTag::Int)
            .param("title", TypeTag::Str);
        assert!(sig
            .check_args(&[
                ("channel".into(), Value::Int(4)),
                ("title".into(), Value::Str("t".into()))
            ])
            .is_ok());
        // Order doesn't matter.
        assert!(sig
            .check_args(&[
                ("title".into(), Value::Str("t".into())),
                ("channel".into(), Value::Int(4))
            ])
            .is_ok());
        // Missing parameter.
        assert!(sig
            .check_args(&[("channel".into(), Value::Int(4))])
            .is_err());
        // Wrong type.
        assert!(sig
            .check_args(&[
                ("channel".into(), Value::Str("x".into())),
                ("title".into(), Value::Str("t".into()))
            ])
            .is_err());
        // Extra parameter.
        assert!(sig
            .check_args(&[
                ("channel".into(), Value::Int(4)),
                ("title".into(), Value::Str("t".into())),
                ("ghost".into(), Value::Int(1)),
            ])
            .is_err());
    }

    #[test]
    fn wsdl_round_trip_preserves_interface() {
        let iface = catalog::vcr();
        let desc = iface.to_wsdl("living-room-vcr", "vsg://havi-gw/living-room-vcr");
        assert_eq!(desc.namespace, "urn:vsg:living-room-vcr");
        let back = ServiceInterface::from_wsdl(desc);
        assert_eq!(back, iface);
    }

    #[test]
    fn wsdl_survives_the_wire() {
        let iface = catalog::mailer();
        let desc = iface.to_wsdl("mailer", "vsg://inet-gw/mailer");
        let text = desc.to_document();
        let parsed = wsdl::ServiceDescription::from_document(&text).unwrap();
        assert_eq!(ServiceInterface::from_wsdl(parsed), iface);
        assert_eq!(ServiceInterface::from_document(&text).unwrap(), iface);
    }

    #[test]
    fn one_pass_interface_read_matches_the_description_oracle() {
        let oracle = |doc: &str| {
            wsdl::ServiceDescription::from_document(doc).map(ServiceInterface::from_wsdl)
        };
        let mut docs: Vec<String> = [catalog::vcr(), catalog::mailer(), catalog::lamp()]
            .iter()
            .map(|iface| iface.to_wsdl("a&b", "vsg://gw/a&b").to_document())
            .collect();
        docs.extend(
            [
                r#"<definitions name="s"><documentation>plain</documentation><portType><operation name="op"><output><part name="r" type="vendor:x"/></output></operation></portType></definitions>"#,
                r#"<definitions name="s"><documentation>interface A&amp;B</documentation><documentation>interface C</documentation><portType/><portType><operation name="late"/></portType></definitions>"#,
                r#"<definitions name="s"><portType><operation name="a"/><operation><input/></operation></portType></definitions>"#,
                r#"<definitions name="s"><portType><operation name="a"/></portType></definitions><oops/>"#,
                r#"<definitions><documentation>interface X</documentation></definitions>"#,
                r#"<other name="s"/>"#,
            ]
            .map(String::from),
        );
        for doc in &docs {
            assert_eq!(ServiceInterface::from_document(doc), oracle(doc), "{doc}");
        }
        let lamp = catalog::lamp().to_wsdl("l", "vsg://gw/l").to_document();
        assert_eq!(
            ServiceInterface::from_document(&lamp).unwrap(),
            catalog::lamp()
        );
    }

    #[test]
    fn catalog_interfaces_are_well_formed() {
        for iface in [
            catalog::lamp(),
            catalog::vcr(),
            catalog::laserdisc(),
            catalog::dv_camera(),
            catalog::tuner(),
            catalog::display(),
            catalog::fridge(),
            catalog::aircon(),
            catalog::mailer(),
            catalog::motion_sensor(),
        ] {
            assert!(!iface.operations.is_empty(), "{} has ops", iface.name);
            // Operation names unique.
            let mut names: Vec<&str> = iface.operations.iter().map(|o| o.name.as_str()).collect();
            names.sort();
            let len = names.len();
            names.dedup();
            assert_eq!(names.len(), len, "{} has duplicate ops", iface.name);
        }
    }

    #[test]
    fn find_op() {
        let iface = catalog::lamp();
        assert!(iface.find("switch").is_some());
        assert!(iface.find("explode").is_none());
    }
}
