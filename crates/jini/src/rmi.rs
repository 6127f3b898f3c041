//! RMI-style remote invocation.
//!
//! Jini service proxies are "downloaded code" that speaks RMI back to its
//! exporter. The simulation keeps the two essential properties: a proxy
//! is a *portable value* (a [`ProxyStub`] that can be marshalled into the
//! lookup service and handed to any client) and invoking it costs a
//! marshal → network round trip → unmarshal.

use crate::jvalue::{
    write_list_head, write_object_head, write_str, write_stream, write_utf, JRef, JValue,
    MarshalError,
};
use parking_lot::Mutex;
use simnet::{Network, NodeId, Protocol, Sim, SimDuration};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// CPU cost of Java serialization per byte produced, charged on both
/// sides of every call.
const MARSHAL_NS_PER_BYTE: u64 = 120;
/// Unmarshalling cost per byte consumed (reflection-heavy).
const UNMARSHAL_NS_PER_BYTE: u64 = 250;
/// Fixed dispatch overhead per remote call.
const DISPATCH: SimDuration = SimDuration::from_micros(150);

fn charge_marshal(sim: &Sim, bytes: usize) {
    sim.advance(SimDuration::from_micros(
        bytes as u64 * MARSHAL_NS_PER_BYTE / 1_000,
    ));
}

fn charge_unmarshal(sim: &Sim, bytes: usize) {
    sim.advance(SimDuration::from_micros(
        bytes as u64 * UNMARSHAL_NS_PER_BYTE / 1_000,
    ));
}

/// A marshalled remote reference: where the object lives and which
/// interface it implements. This is what gets stored in the lookup
/// service and "downloaded" by clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyStub {
    /// The exporter's node on the Jini network.
    pub host: NodeId,
    /// The exported object within that node.
    pub object_id: u64,
    /// The remote interface name (e.g. `LaserdiscPlayer`).
    pub interface: String,
}

impl ProxyStub {
    /// Encodes for marshalling.
    pub fn to_jvalue(&self) -> JValue {
        JValue::object(
            "net.jini.jeri.BasicObjectEndpoint",
            vec![
                ("host".into(), JValue::Int(i64::from(self.host.0))),
                ("objectId".into(), JValue::Int(self.object_id as i64)),
                ("interface".into(), JValue::Str(self.interface.clone())),
            ],
        )
    }

    /// Inverse of [`ProxyStub::to_jvalue`].
    pub fn from_jvalue(v: &JValue) -> Option<ProxyStub> {
        Some(ProxyStub {
            host: NodeId(u32::try_from(v.field("host")?.as_int()?).ok()?),
            object_id: v.field("objectId")?.as_int()? as u64,
            interface: v.field("interface")?.as_str()?.to_owned(),
        })
    }
}

/// A remote method implementation.
type RemoteObject = Box<dyn FnMut(&Sim, &str, &[JValue]) -> Result<JValue, String> + Send>;

/// Exports objects from one node, dispatching incoming RMI calls to them.
#[derive(Clone)]
pub struct RmiExporter {
    node: NodeId,
    objects: Arc<Mutex<HashMap<u64, RemoteObject>>>,
    next_id: Arc<Mutex<u64>>,
}

impl RmiExporter {
    /// Creates an exporter on a fresh node of `net`.
    pub fn attach(net: &Network, label: &str) -> RmiExporter {
        let node = net.attach(label);
        RmiExporter::on_node(net, node)
    }

    /// Creates an exporter on an existing node, installing its request
    /// handler (replacing any previous one).
    pub fn on_node(net: &Network, node: NodeId) -> RmiExporter {
        let objects: Arc<Mutex<HashMap<u64, RemoteObject>>> = Arc::new(Mutex::new(HashMap::new()));
        let objects2 = objects.clone();
        net.set_request_handler(node, move |sim, frame, reply| {
            charge_unmarshal(sim, frame.payload.len());
            sim.advance(DISPATCH);
            let written = match read_call(&frame.payload) {
                Ok((object_id, method, args)) => {
                    let mut objects = objects2.lock();
                    match objects.get_mut(&object_id) {
                        Some(obj) => match obj(sim, method, &args) {
                            Ok(v) => write_result(Ok(&v), reply),
                            Err(e) => write_result(Err(&e), reply),
                        },
                        None => {
                            let error = format!("no exported object {object_id}");
                            write_result(Err(&error), reply)
                        }
                    }
                }
                Err(e) => write_result(Err(&format!("unmarshal failed: {e}")), reply),
            };
            // A result that does not fit its stream goes back as the
            // exception saying so, which does.
            written
                .or_else(|e| write_result(Err(&format!("result refused: {e}")), reply))
                .expect("a short exception marshals");
            charge_marshal(sim, reply.len());
            Ok(())
        })
        .expect("exporter node exists");
        RmiExporter {
            node,
            objects,
            next_id: Arc::new(Mutex::new(0)),
        }
    }

    /// The node this exporter serves from.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Exports an object, returning the stub clients use to reach it.
    pub fn export(
        &self,
        interface: &str,
        object: impl FnMut(&Sim, &str, &[JValue]) -> Result<JValue, String> + Send + 'static,
    ) -> ProxyStub {
        let mut next = self.next_id.lock();
        *next += 1;
        let object_id = *next;
        self.objects.lock().insert(object_id, Box::new(object));
        ProxyStub {
            host: self.node,
            object_id,
            interface: interface.to_owned(),
        }
    }

    /// Number of live exported objects.
    fn exported_count(&self) -> usize {
        self.objects.lock().len()
    }
}

impl fmt::Debug for RmiExporter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RmiExporter")
            .field("node", &self.node)
            .field("objects", &self.exported_count())
            .finish()
    }
}

/// A client-side handle for invoking a remote object.
#[derive(Debug, Clone)]
pub struct RemoteProxy {
    stub: ProxyStub,
    net: Network,
    caller: NodeId,
}

impl RemoteProxy {
    /// Binds a stub to the calling node.
    pub fn new(net: &Network, caller: NodeId, stub: ProxyStub) -> RemoteProxy {
        RemoteProxy {
            stub,
            net: net.clone(),
            caller,
        }
    }

    /// The stub this proxy wraps.
    pub fn stub(&self) -> &ProxyStub {
        &self.stub
    }

    /// Invokes a remote method: the `RmiCall` frame is written straight
    /// into a buffer from the network, and the `RmiResult` frame is read
    /// in place, so only the returned value is copied out of it.
    pub fn invoke(&self, method: &str, args: &[JValue]) -> Result<JValue, JiniError> {
        let sim = self.net.sim().clone();
        let mut payload = self.net.buffer();
        write_call(self.stub.object_id, method, args, &mut payload)?;
        charge_marshal(&sim, payload.len());
        let reply = self
            .net
            .request(self.caller, self.stub.host, Protocol::Jini, payload)
            .map_err(|e| JiniError::Network(e.to_string()))?;
        charge_unmarshal(&sim, reply.len());
        read_result(&reply)
    }
}

/// Appends an `RmiCall` frame, `{objectId, method, args}`, to `out`
/// from borrows: the bytes `JValue::object("RmiCall", ..).marshal()`
/// gives, with no object built and no argument cloned.
pub(crate) fn write_call(
    object_id: u64,
    method: &str,
    args: &[JValue],
    out: &mut Vec<u8>,
) -> Result<(), MarshalError> {
    write_stream(out, |out| {
        write_object_head(out, "RmiCall", 3);
        write_utf(out, "objectId");
        JValue::Int(object_id as i64).write(out);
        write_utf(out, "method");
        write_str(out, method);
        write_utf(out, "args");
        write_list_head(out, args.len());
        for arg in args {
            arg.write(out);
        }
    })
}

/// Reads an `RmiCall` frame through the view: the object id, the method
/// name borrowed from the frame, and the arguments, the one part copied
/// out (a remote object takes them as owned values).
pub(crate) fn read_call(data: &[u8]) -> Result<(u64, &str, Vec<JValue>), MarshalError> {
    let v = JRef::unmarshal(data)?;
    let object_id = v
        .field("objectId")
        .and_then(|id| id.as_int())
        .ok_or_else(|| MarshalError::new("missing objectId"))? as u64;
    let method = v
        .field("method")
        .and_then(|m| m.as_str())
        .ok_or_else(|| MarshalError::new("missing method"))?;
    let Some(JRef::List(args)) = v.field("args") else {
        return Err(MarshalError::new("missing args"));
    };
    Ok((object_id, method, args.to_owned_items()))
}

/// Appends an `RmiResult` frame to `out` from a borrow: `{ok: true,
/// value}` for a returned value, `{ok: false, error}` for a remote
/// exception.
pub(crate) fn write_result(
    result: Result<&JValue, &str>,
    out: &mut Vec<u8>,
) -> Result<(), MarshalError> {
    write_stream(out, |out| {
        write_object_head(out, "RmiResult", 2);
        write_utf(out, "ok");
        JValue::Bool(result.is_ok()).write(out);
        match result {
            Ok(value) => {
                write_utf(out, "value");
                value.write(out);
            }
            Err(error) => {
                write_utf(out, "error");
                write_str(out, error);
            }
        }
    })
}

/// Reads an `RmiResult` frame through the view: only the returned value,
/// or the exception's text, is copied out of the frame.
pub(crate) fn read_result(data: &[u8]) -> Result<JValue, JiniError> {
    let v = JRef::unmarshal(data)?;
    match v.field("ok").and_then(|ok| ok.as_bool()) {
        Some(true) => Ok(v
            .field("value")
            .map_or(JValue::Null, |value| value.to_owned())),
        Some(false) => Err(JiniError::Remote(
            v.field("error")
                .and_then(|e| e.as_str())
                .unwrap_or("unknown")
                .to_owned(),
        )),
        None => Err(JiniError::Protocol("malformed RMI reply".into())),
    }
}

/// Errors surfaced by the Jini layer.
#[derive(Debug, Clone, PartialEq)]
pub enum JiniError {
    /// The network failed.
    Network(String),
    /// Marshalling failed.
    Marshal(MarshalError),
    /// The remote implementation threw.
    Remote(String),
    /// The reply was not valid RMI protocol.
    Protocol(String),
    /// Lookup found no matching service.
    NotFound(String),
    /// The registrar rejected a lease operation.
    Lease(String),
}

impl fmt::Display for JiniError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JiniError::Network(m) => write!(f, "jini network error: {m}"),
            JiniError::Marshal(e) => write!(f, "jini {e}"),
            JiniError::Remote(m) => write!(f, "remote exception: {m}"),
            JiniError::Protocol(m) => write!(f, "jini protocol error: {m}"),
            JiniError::NotFound(m) => write!(f, "no matching service: {m}"),
            JiniError::Lease(m) => write!(f, "lease denied: {m}"),
        }
    }
}

impl std::error::Error for JiniError {}

impl From<MarshalError> for JiniError {
    fn from(e: MarshalError) -> JiniError {
        JiniError::Marshal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Sim, Network) {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        (sim, net)
    }

    #[test]
    fn export_invoke_round_trip() {
        let (_sim, net) = setup();
        let exporter = RmiExporter::attach(&net, "laserdisc");
        let stub = exporter.export("LaserdiscPlayer", |_, method, args| match method {
            "play" => Ok(JValue::Str(format!(
                "playing chapter {}",
                args[0].as_int().unwrap_or(0)
            ))),
            _ => Err(format!("no such method {method}")),
        });
        let caller = net.attach("pc");
        let proxy = RemoteProxy::new(&net, caller, stub);
        let got = proxy.invoke("play", &[JValue::Int(3)]).unwrap();
        assert_eq!(got, JValue::Str("playing chapter 3".into()));
        match proxy.invoke("eject", &[]) {
            Err(JiniError::Remote(m)) => assert!(m.contains("eject")),
            other => panic!("expected remote error, got {other:?}"),
        }
    }

    #[test]
    fn invoke_advances_virtual_time() {
        let (sim, net) = setup();
        let exporter = RmiExporter::attach(&net, "svc");
        let stub = exporter.export("X", |_, _, _| Ok(JValue::Null));
        let caller = net.attach("pc");
        let proxy = RemoteProxy::new(&net, caller, stub);
        let before = sim.now();
        proxy.invoke("m", &[]).unwrap();
        assert!(sim.now() > before);
    }

    #[test]
    fn stub_jvalue_round_trip() {
        let stub = ProxyStub {
            host: NodeId(7),
            object_id: 42,
            interface: "Vcr".into(),
        };
        assert_eq!(ProxyStub::from_jvalue(&stub.to_jvalue()).unwrap(), stub);
        assert!(ProxyStub::from_jvalue(&JValue::Null).is_none());
    }

    #[test]
    fn multiple_objects_dispatch_independently() {
        let (_sim, net) = setup();
        let exporter = RmiExporter::attach(&net, "multi");
        let a = exporter.export("A", |_, _, _| Ok(JValue::Str("a".into())));
        let b = exporter.export("B", |_, _, _| Ok(JValue::Str("b".into())));
        assert_ne!(a.object_id, b.object_id);
        let caller = net.attach("pc");
        assert_eq!(
            RemoteProxy::new(&net, caller, a).invoke("m", &[]).unwrap(),
            JValue::Str("a".into())
        );
        assert_eq!(
            RemoteProxy::new(&net, caller, b).invoke("m", &[]).unwrap(),
            JValue::Str("b".into())
        );
    }

    #[test]
    fn garbage_payload_to_exporter_is_refused_gracefully() {
        let (_sim, net) = setup();
        let exporter = RmiExporter::attach(&net, "svc");
        let _ = exporter.export("X", |_, _, _| Ok(JValue::Null));
        let caller = net.attach("pc");
        let reply = net
            .request(caller, exporter.node(), Protocol::Jini, &b"junk"[..])
            .unwrap();
        let v = JValue::unmarshal(&reply).unwrap();
        assert_eq!(v.field("ok").and_then(JValue::as_bool), Some(false));
    }
}
