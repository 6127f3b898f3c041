//! Canonical service interfaces.
//!
//! A [`ServiceInterface`] is the framework's middleware-neutral interface
//! descriptor — the artefact the paper's prototype extracted from Java
//! interfaces to drive both WSDL generation and automatic proxy
//! generation (§4.1). Every PCM maps its middleware's native service
//! descriptions onto this form.

use crate::error::MetaError;
use crate::intern::Name;
use parking_lot::Mutex;
use soap::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use wsdl::{DescriptionError, DescriptionVisitor, DocumentParts, OperationParts, XsdType};
#[cfg(test)]
use wsdl::{Operation, ServiceDescription};

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

    /// The WSDL-style document describing service `service_name`,
    /// which implements this interface behind gateway `gateway` (its
    /// endpoint is `vsg://<gateway>/<service_name>`). Written straight
    /// from the interface into one exactly sized string: no description
    /// is built, and no part is joined first.
    pub fn wsdl_document(&self, service_name: &str, gateway: &str) -> String {
        DocumentParts {
            name: service_name,
            namespace: &["urn:vsg:", service_name],
            documentation: &[INTERFACE_PREFIX, &self.name],
            endpoint: &["vsg://", gateway, "/", service_name],
            operations: self.operations.iter().map(|op| OperationParts {
                name: &op.name,
                idempotent: op.idempotent,
                inputs: op.params.iter().map(|(name, ty)| (&**name, ty.to_xsd())),
                output: op.returns.map(|ty| ("return", ty.to_xsd())),
            }),
        }
        .to_document()
    }

    /// Generates the WSDL-style description for a service implementing
    /// this interface at `endpoint`: the oracle of the one-pass
    /// [`ServiceInterface::wsdl_document`].
    #[cfg(test)]
    pub(crate) fn to_wsdl(&self, service_name: &str, endpoint: &str) -> ServiceDescription {
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

    /// The interface a WSDL document describes, read into an empty
    /// well: the oracle of a well that holds interfaces, which must
    /// give an equal interface for every document.
    #[cfg(test)]
    pub(crate) fn from_document(doc: &str) -> Result<ServiceInterface, DescriptionError> {
        InterfaceWell::default()
            .read(doc)
            .map(|iface| ServiceInterface::clone(&iface))
    }

    /// The interface of an owned WSDL description: the oracle of the
    /// one-pass `from_document`.
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

/// What [`ServiceInterface::wsdl_document`] writes before the interface
/// name in a description's documentation.
const INTERFACE_PREFIX: &str = "interface ";

/// How many interfaces an [`InterfaceWell`] holds. A home knows a few
/// dozen; past the bound, a new interface is read but not kept.
const INTERFACE_WELL_BOUND: usize = 256;

/// The interfaces one repository client has read, by name, so a
/// record whose WSDL describes one it already holds shares that
/// `Arc` instead of building a copy. Clones of the client share the
/// well. Its names come off the wire, so it keeps the default hasher;
/// nothing is ever removed, so the table grows the same way whatever
/// the hasher's keys, and allocation counts repeat.
#[derive(Default)]
pub(crate) struct InterfaceWell {
    by_name: Mutex<HashMap<Name, Arc<ServiceInterface>>>,
}

impl InterfaceWell {
    /// Reads the interface a WSDL document describes (how a gateway
    /// learns a remote service's interface from the VSR), in one pass
    /// over [`wsdl::read_document`]. The name is the documentation's
    /// after an `interface ` prefix, else the definitions name. When
    /// the well holds an interface of that name with the same
    /// operations, in order, with the same parameters, types, return
    /// types and idempotence, that `Arc` is shared and nothing is
    /// built. Otherwise the interface's lists are built from the
    /// document's borrowed parts (from a copy of what matched, at the
    /// first part that differs), its names interned, and it is kept:
    /// it replaces a held one of its name, or joins the well while the
    /// well is under its bound. Fails where
    /// `wsdl::ServiceDescription::from_document` does.
    pub(crate) fn read(&self, doc: &str) -> Result<Arc<ServiceInterface>, DescriptionError> {
        match ReadInterface::read(doc, self)? {
            Read::Held(iface) => Ok(iface),
            Read::Built(iface) => {
                let iface = Arc::new(iface);
                let mut by_name = self.by_name.lock();
                if by_name.len() < INTERFACE_WELL_BOUND || by_name.contains_key(&iface.name) {
                    by_name.insert(iface.name.clone(), iface.clone());
                }
                Ok(iface)
            }
        }
    }

    /// The held interface named `name`.
    fn get(&self, name: &str) -> Option<Arc<ServiceInterface>> {
        self.by_name.lock().get(name).cloned()
    }
}

impl fmt::Debug for InterfaceWell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InterfaceWell")
            .field("interfaces", &self.by_name.lock().len())
            .finish()
    }
}

/// What a read of a WSDL document gave.
enum Read {
    /// The well's interface: the document describes it exactly.
    Held(Arc<ServiceInterface>),
    /// An interface built from the document.
    Built(ServiceInterface),
}

/// The operations read so far.
enum Ops {
    /// No operation yet, and no interface looked up.
    Unread,
    /// Every part so far matches a held interface.
    Matching(Match),
    /// The operations built as they arrive: no interface was held, or
    /// a part differed from it.
    Built(Vec<OpSig>),
}

/// How far a document has matched `held`: `ops` operations begun, the
/// last with `params` parameters read and its return type read when
/// `returns`.
struct Match {
    held: Arc<ServiceInterface>,
    ops: usize,
    params: usize,
    returns: bool,
}

impl Match {
    /// The held counterpart of the operation last begun.
    fn current(&self) -> Option<&OpSig> {
        self.held.operations.get(self.ops.checked_sub(1)?)
    }

    /// Whether the operation last begun, if any, has matched in full.
    fn closes(&self) -> bool {
        self.current()
            .is_none_or(|op| op.params.len() == self.params && op.returns.is_some() == self.returns)
    }

    /// A copy of what matched: the operations begun, the last cut to
    /// the parts read.
    fn copy(&self) -> Vec<OpSig> {
        let mut copy = self.held.operations[..self.ops].to_vec();
        if let Some(op) = copy.last_mut() {
            op.params.truncate(self.params);
            if !self.returns {
                op.returns = None;
            }
        }
        copy
    }
}

/// The parts [`InterfaceWell::read`] keeps as the reader hands them
/// over: the two names the interface's name is chosen between,
/// borrowed until the read ends, and the operations, compared with a
/// held interface while they match it and built once they do not.
struct ReadInterface<'d, 'w> {
    definitions: Cow<'d, str>,
    documentation: Cow<'d, str>,
    ops: Ops,
    well: &'w InterfaceWell,
}

impl<'w> ReadInterface<'_, 'w> {
    /// Reads `doc`, comparing it with the interface `well` holds under
    /// the name known at the first operation (at the end, if there is
    /// none).
    fn read(doc: &str, well: &'w InterfaceWell) -> Result<Read, DescriptionError> {
        let mut read = ReadInterface {
            definitions: Cow::Borrowed(""),
            documentation: Cow::Borrowed(""),
            ops: Ops::Unread,
            well,
        };
        wsdl::read_document(doc, &mut read)?;
        read.begin();
        if let Ops::Matching(m) = &read.ops {
            if m.closes() && m.ops == m.held.operations.len() && *m.held.name == *read.name() {
                return Ok(Read::Held(m.held.clone()));
            }
        }
        let name = Name::new(read.name());
        Ok(Read::Built(ServiceInterface {
            name,
            operations: std::mem::take(read.built()),
        }))
    }

    /// The interface's name as far as the document has been read: the
    /// documentation's after an `interface ` prefix, else the
    /// definitions name.
    fn name(&self) -> &str {
        self.documentation
            .strip_prefix(INTERFACE_PREFIX)
            .unwrap_or(&self.definitions)
    }

    /// Consults the well, once: the read matches the interface it
    /// holds under the name known so far, or is built.
    fn begin(&mut self) {
        if matches!(self.ops, Ops::Unread) {
            self.ops = match self.well.get(self.name()) {
                Some(held) => Ops::Matching(Match {
                    held,
                    ops: 0,
                    params: 0,
                    returns: false,
                }),
                None => Ops::Built(Vec::new()),
            };
        }
    }

    /// The operations, as a list being built: a match is copied at its
    /// first difference.
    fn built(&mut self) -> &mut Vec<OpSig> {
        if let Ops::Unread | Ops::Matching(_) = self.ops {
            let copy = match &self.ops {
                Ops::Matching(m) => m.copy(),
                _ => Vec::new(),
            };
            self.ops = Ops::Built(copy);
        }
        match &mut self.ops {
            Ops::Built(operations) => operations,
            _ => unreachable!("just built"),
        }
    }
}

impl<'d> DescriptionVisitor<'d> for ReadInterface<'d, '_> {
    fn definitions(&mut self, name: Cow<'d, str>, _namespace: Cow<'d, str>) {
        self.definitions = name;
    }

    fn documentation(&mut self, text: Cow<'d, str>) {
        self.documentation = text;
    }

    fn operation(&mut self, name: Cow<'d, str>, idempotent: bool) {
        self.begin();
        if let Ops::Matching(m) = &mut self.ops {
            let next = m.held.operations.get(m.ops);
            if m.closes() && next.is_some_and(|op| *op.name == *name && op.idempotent == idempotent)
            {
                m.ops += 1;
                m.params = 0;
                m.returns = false;
                return;
            }
        }
        self.built().push(OpSig {
            name: Name::new(&name),
            params: Vec::new(),
            returns: None,
            idempotent,
        });
    }

    fn input(&mut self, name: Cow<'d, str>, ty: XsdType) {
        let ty = TypeTag::from_xsd(ty);
        if let Ops::Matching(m) = &mut self.ops {
            let param = m.current().and_then(|op| op.params.get(m.params));
            if param.is_some_and(|(p, t)| **p == *name && *t == ty) {
                m.params += 1;
                return;
            }
        }
        if let Some(op) = self.built().last_mut() {
            op.params.push((Name::new(&name), ty));
        }
    }

    fn output(&mut self, _name: Cow<'d, str>, ty: XsdType) {
        let ty = TypeTag::from_xsd(ty);
        if let Ops::Matching(m) = &mut self.ops {
            if !m.returns && m.current().is_some_and(|op| op.returns == Some(ty)) {
                m.returns = true;
                return;
            }
        }
        if let Some(op) = self.built().last_mut() {
            op.returns = Some(ty);
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
    use proptest::prelude::*;

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
        docs.extend(
            [
                // The documentation after the port type: the name the
                // well is asked for is not the interface's.
                r#"<definitions name="Lamp"><portType><operation name="switch"><input><part name="on" type="xsd:boolean"/></input></operation></portType><documentation>interface X</documentation></definitions>"#,
                // The output ahead of the inputs, and a second output.
                r#"<definitions name="s"><documentation>interface Lamp</documentation><portType><operation name="switch"><output><part type="xsd:long"/></output><input><part name="on" type="xsd:boolean"/></input></operation><operation name="dim"><output><part type="xsd:long"/></output><output/><input><part name="steps" type="xsd:long"/></input></operation></portType></definitions>"#,
            ]
            .map(String::from),
        );
        // A well holding interfaces that share names with the
        // documents', read through twice: every read, whether it
        // shares, copies what matched or builds, equals the oracle's.
        let well = InterfaceWell::default();
        for iface in [catalog::lamp(), catalog::vcr(), ServiceInterface::new("X")] {
            well.read(&iface.wsdl_document("w", "gw")).unwrap();
        }
        for doc in docs.iter().chain(&docs) {
            assert_eq!(ServiceInterface::from_document(doc), oracle(doc), "{doc}");
            assert_eq!(well.read(doc).map(|i| (*i).clone()), oracle(doc), "{doc}");
        }
        let lamp = catalog::lamp().to_wsdl("l", "vsg://gw/l").to_document();
        assert_eq!(
            ServiceInterface::from_document(&lamp).unwrap(),
            catalog::lamp()
        );
    }

    /// Names that need escaping in an attribute or in text, or not.
    fn arb_name() -> impl Strategy<Value = String> {
        "[a-z&<>\"'_]{1,5}"
    }

    fn arb_type() -> impl Strategy<Value = TypeTag> {
        prop_oneof![
            Just(TypeTag::Bool),
            Just(TypeTag::Int),
            Just(TypeTag::Float),
            Just(TypeTag::Str),
            Just(TypeTag::Bytes),
            Just(TypeTag::Any),
        ]
    }

    fn arb_op() -> impl Strategy<Value = OpSig> {
        (
            arb_name(),
            prop::collection::vec((arb_name(), arb_type()), 0..3),
            prop::option::of(arb_type()),
            any::<bool>(),
        )
            .prop_map(|(name, params, returns, idempotent)| OpSig {
                name: Name::new(&name),
                params: params.iter().map(|(p, t)| (Name::new(p), *t)).collect(),
                returns,
                idempotent,
            })
    }

    fn arb_interface() -> impl Strategy<Value = ServiceInterface> {
        (arb_name(), prop::collection::vec(arb_op(), 0..4)).prop_map(|(name, operations)| {
            ServiceInterface {
                name: Name::new(&name),
                operations,
            }
        })
    }

    /// `iface` with one thing changed, chosen by `what` at operation
    /// `op` and parameter `param` (wrapped to what exists): an
    /// operation's name, flag or return type, a parameter's name or
    /// type, a parameter or an operation more or fewer.
    fn tweak(iface: &ServiceInterface, what: u8, op: usize, param: usize) -> ServiceInterface {
        let mut out = iface.clone();
        if out.operations.is_empty() || what == 7 {
            out.operations.push(OpSig::new("extra"));
            return out;
        }
        let k = op % out.operations.len();
        let sig = &mut out.operations[k];
        let other = |t: TypeTag| match t {
            TypeTag::Int => TypeTag::Str,
            _ => TypeTag::Int,
        };
        match what {
            0 => sig.idempotent = !sig.idempotent,
            1 => sig.returns = sig.returns.map_or(Some(TypeTag::Int), |t| Some(other(t))),
            2 => sig.returns = sig.returns.xor(Some(TypeTag::Any)),
            3 if !sig.params.is_empty() => {
                let j = param % sig.params.len();
                sig.params[j].1 = other(sig.params[j].1);
            }
            4 if !sig.params.is_empty() => {
                let j = param % sig.params.len();
                sig.params[j].0 = Name::new(&format!("{}x", sig.params[j].0));
            }
            5 if !sig.params.is_empty() => {
                sig.params.pop();
            }
            3..=5 => sig.params.push((Name::new("p"), TypeTag::Int)),
            6 => sig.name = Name::new(&format!("{}x", sig.name)),
            _ => {
                out.operations.remove(k);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass writer writes the oracle description's bytes.
        #[test]
        fn wsdl_document_writes_the_description_bytes(
            iface in arb_interface(),
            service in arb_name(),
            gateway in arb_name(),
        ) {
            let endpoint = format!("vsg://{gateway}/{service}");
            prop_assert_eq!(
                iface.wsdl_document(&service, &gateway),
                iface.to_wsdl(&service, &endpoint).to_document()
            );
        }

        /// The well-backed reader equals the oracle on an interface and
        /// on one differing from it in one part, whichever the well
        /// holds, and shares what it holds on an exact re-read.
        #[test]
        fn the_well_reads_what_the_oracle_reads(
            base in arb_interface(),
            what in 0u8..9,
            op in 0usize..4,
            param in 0usize..3,
        ) {
            let tweaked = tweak(&base, what, op, param);
            prop_assert_ne!(&tweaked, &base);
            let well = InterfaceWell::default();
            let mut reads = Vec::new();
            for iface in [&base, &tweaked, &base, &base] {
                let doc = iface.wsdl_document("svc", "gw");
                let read = well.read(&doc).unwrap();
                prop_assert_eq!(&*read, &ServiceInterface::from_document(&doc).unwrap());
                prop_assert_eq!(&*read, iface);
                reads.push(read);
            }
            prop_assert!(!Arc::ptr_eq(&reads[1], &reads[2]), "a differing read replaces");
            prop_assert!(Arc::ptr_eq(&reads[2], &reads[3]), "an exact re-read shares");
        }
    }

    #[test]
    fn the_well_stops_inserting_at_its_bound_but_still_replaces() {
        let well = InterfaceWell::default();
        for i in 0..INTERFACE_WELL_BOUND + 8 {
            let iface = ServiceInterface::new(format!("I{i}").as_str());
            well.read(&iface.wsdl_document("s", "gw")).unwrap();
        }
        assert_eq!(well.by_name.lock().len(), INTERFACE_WELL_BOUND);
        let lamp = catalog::lamp();
        let doc = ServiceInterface {
            name: Name::new("I0"),
            ..lamp
        }
        .wsdl_document("s", "gw");
        let first = well.read(&doc).unwrap();
        assert!(
            Arc::ptr_eq(&first, &well.read(&doc).unwrap()),
            "replaced, then shared"
        );
        let past = ServiceInterface::new("past-the-bound").wsdl_document("s", "gw");
        assert!(!Arc::ptr_eq(
            &well.read(&past).unwrap(),
            &well.read(&past).unwrap()
        ));
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
