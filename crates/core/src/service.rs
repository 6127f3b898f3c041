//! Virtual services: the framework's view of a bridged service.

use crate::error::MetaError;
use crate::iface::ServiceInterface;
use simnet::Sim;
use soap::Value;
use std::fmt;

/// Which middleware family a service natively lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Middleware {
    /// Jini on Ethernet.
    Jini,
    /// HAVi on IEEE1394.
    Havi,
    /// X10 on the powerline.
    X10,
    /// An Internet mail service.
    Mail,
    /// UPnP (the post-hoc fifth middleware).
    Upnp,
    /// A native SOAP web service on the Internet.
    Web,
    /// The cloud bridge over the WAN (store-and-forward PCM).
    Cloud,
    /// A composite pipeline hosted by a VSG's composition engine — the
    /// VSR record kind for services that are themselves pipelines over
    /// other services (no native island; the hosting gateway executes
    /// the steps).
    Composite,
}

impl Middleware {
    /// The stable label used in VSR category bags and traces.
    pub fn label(self) -> &'static str {
        match self {
            Middleware::Jini => "jini",
            Middleware::Havi => "havi",
            Middleware::X10 => "x10",
            Middleware::Mail => "mail",
            Middleware::Upnp => "upnp",
            Middleware::Web => "web",
            Middleware::Cloud => "cloud",
            Middleware::Composite => "composite",
        }
    }

    /// Inverse of [`Middleware::label`].
    pub fn from_label(s: &str) -> Option<Middleware> {
        match s {
            "jini" => Some(Middleware::Jini),
            "havi" => Some(Middleware::Havi),
            "x10" => Some(Middleware::X10),
            "mail" => Some(Middleware::Mail),
            "upnp" => Some(Middleware::Upnp),
            "web" => Some(Middleware::Web),
            "cloud" => Some(Middleware::Cloud),
            "composite" => Some(Middleware::Composite),
            _ => None,
        }
    }
}

impl fmt::Display for Middleware {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The thing a Client Proxy produces: something that can carry a
/// canonical invocation into a native middleware.
pub trait ServiceInvoker: Send {
    /// Invokes `operation` with canonical `args`, converting to and from
    /// the native representation.
    fn invoke(
        &mut self,
        sim: &Sim,
        operation: &str,
        args: &[(String, Value)],
    ) -> Result<Value, MetaError>;
}

impl<F> ServiceInvoker for F
where
    F: FnMut(&Sim, &str, &[(String, Value)]) -> Result<Value, MetaError> + Send,
{
    fn invoke(
        &mut self,
        sim: &Sim,
        operation: &str,
        args: &[(String, Value)],
    ) -> Result<Value, MetaError> {
        self(sim, operation, args)
    }
}

/// A service as recorded in the Virtual Service Repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualService {
    /// Home-unique service name (e.g. `living-room-vcr`).
    pub name: String,
    /// Its canonical interface.
    pub interface: ServiceInterface,
    /// Which middleware it natively lives in.
    pub origin: Middleware,
    /// The gateway that fronts it.
    pub gateway: String,
    /// Service contexts (§3.3): free-form key/value pairs such as
    /// `("room", "hall")` used for context-aware discovery.
    pub contexts: Vec<(String, String)>,
}

impl VirtualService {
    /// Creates a record with no contexts.
    pub fn new(
        name: impl Into<String>,
        interface: ServiceInterface,
        origin: Middleware,
        gateway: impl Into<String>,
    ) -> VirtualService {
        VirtualService {
            name: name.into(),
            interface,
            origin,
            gateway: gateway.into(),
            contexts: Vec::new(),
        }
    }

    /// Attaches a context pair (builder style).
    pub fn context(mut self, key: impl Into<String>, value: impl Into<String>) -> VirtualService {
        self.contexts.push((key.into(), value.into()));
        self
    }

    /// The `vsg://gateway/service` endpoint string.
    pub fn endpoint(&self) -> String {
        format!("vsg://{}/{}", self.gateway, self.name)
    }
}

impl fmt::Display for VirtualService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{} via {}]", self.name, self.origin, self.gateway)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::catalog;

    #[test]
    fn middleware_labels_round_trip() {
        for m in [
            Middleware::Jini,
            Middleware::Havi,
            Middleware::X10,
            Middleware::Mail,
            Middleware::Upnp,
            Middleware::Web,
            Middleware::Cloud,
            Middleware::Composite,
        ] {
            assert_eq!(Middleware::from_label(m.label()), Some(m));
        }
        assert_eq!(Middleware::from_label("corba"), None);
    }

    #[test]
    fn endpoints_round_trip() {
        let s = VirtualService::new("lamp", catalog::lamp(), Middleware::X10, "x10-gw");
        assert_eq!(s.endpoint(), "vsg://x10-gw/lamp");
    }

    #[test]
    fn closures_are_invokers() {
        let mut invoker =
            |_: &Sim, op: &str, _: &[(String, Value)]| Ok(Value::Str(format!("did {op}")));
        let sim = Sim::new(1);
        let got = ServiceInvoker::invoke(&mut invoker, &sim, "play", &[]).unwrap();
        assert_eq!(got, Value::Str("did play".into()));
    }
}
