//! The control point: discovery, description fetch, action invocation,
//! event subscription.

use crate::description::DeviceDescription;
use crate::ssdp::{search, SsdpHit};
use parking_lot::Mutex;
use simnet::{Network, NodeId, Sim};
use soap::{
    HttpClient, HttpRequest, HttpResponse, HttpServer, RpcCall, RpcResponse, SoapError, TcpModel,
    Value,
};
use std::fmt;
use std::sync::Arc;

/// A UPnP control point.
///
/// Owns one node that acts as both HTTP client (control, description
/// fetch) and HTTP server (GENA notification callbacks).
#[derive(Clone)]
pub struct ControlPoint {
    net: Network,
    http: HttpClient,
    callbacks: HttpServer,
    next_cb: Arc<Mutex<u64>>,
}

impl ControlPoint {
    /// Creates a control point on a fresh node of `net`.
    pub fn new(net: &Network, label: &str) -> ControlPoint {
        let callbacks = HttpServer::bind(net, label);
        let http = HttpClient::new(net, callbacks.node(), TcpModel::default());
        ControlPoint {
            net: net.clone(),
            http,
            callbacks,
            next_cb: Arc::new(Mutex::new(0)),
        }
    }

    /// The control point's node.
    pub fn node(&self) -> NodeId {
        self.http.node()
    }

    /// SSDP search for `st`.
    ///
    /// Note: SSDP responses land in this node's inbox; since the node
    /// runs an HTTP server (a request handler), one-way SSDP frames do
    /// not conflict with it.
    pub fn discover(&self, st: &str) -> Vec<SsdpHit> {
        search(&self.net, self.node(), st)
    }

    /// Fetches and parses a discovered device's description.
    pub fn describe(&self, hit: &SsdpHit) -> Result<DeviceDescription, SoapError> {
        let resp = self
            .http
            .send_expect_ok(hit.node, &HttpRequest::get(hit.location.clone()))
            .map_err(SoapError::Http)?;
        let doc = String::from_utf8_lossy(&resp.body);
        let root = minixml::parse(&doc)?;
        DeviceDescription::from_xml(&root)
            .ok_or_else(|| SoapError::Malformed("not a device description".into()))
    }

    /// Invokes a SOAP action on a device service.
    pub fn invoke(
        &self,
        device: NodeId,
        control_url: &str,
        service_type: &str,
        action: &str,
        args: &[(&str, Value)],
    ) -> Result<Value, SoapError> {
        let mut call = RpcCall::new(service_type, action);
        for (k, v) in args {
            call = call.arg(*k, v.clone());
        }
        let req = HttpRequest::post(control_url, "text/xml; charset=utf-8", call.to_envelope())
            .header("SOAPACTION", format!("\"{service_type}#{action}\""));
        let resp = self.http.send(device, &req).map_err(SoapError::Http)?;
        RpcResponse::from_envelope(&String::from_utf8_lossy(&resp.body)).map(|r| r.value)
    }

    /// Subscribes to a service's events; `on_event` receives
    /// `(variable, value)` pairs. Returns the SID.
    pub fn subscribe(
        &self,
        device: NodeId,
        event_sub_url: &str,
        mut on_event: impl FnMut(&Sim, &str, &str) + Send + 'static,
    ) -> Result<String, SoapError> {
        let path = {
            let mut n = self.next_cb.lock();
            *n += 1;
            format!("/gena-cb/{n}")
        };
        self.callbacks
            .route(path.clone(), move |sim, req: &HttpRequest| {
                let doc = String::from_utf8_lossy(&req.body);
                if let Ok(root) = minixml::parse(&doc) {
                    for prop in root.find_all("property") {
                        for var in prop.elements() {
                            on_event(sim, var.local_name(), &var.text_content());
                        }
                    }
                }
                HttpResponse::ok("text/plain", "")
            });
        let req = HttpRequest {
            method: "SUBSCRIBE".into(),
            path: event_sub_url.to_owned(),
            headers: vec![
                (
                    "CALLBACK".into(),
                    format!("<http://node-{}{}>", self.node().0, path),
                ),
                ("NT".into(), "upnp:event".into()),
            ],
            body: Vec::new(),
        };
        let resp = self
            .http
            .send_expect_ok(device, &req)
            .map_err(SoapError::Http)?;
        resp.get_header("SID")
            .map(str::to_owned)
            .ok_or_else(|| SoapError::Malformed("subscription reply missing SID".into()))
    }

    /// Cancels a subscription.
    pub fn unsubscribe(
        &self,
        device: NodeId,
        event_sub_url: &str,
        sid: &str,
    ) -> Result<(), SoapError> {
        let req = HttpRequest {
            method: "UNSUBSCRIBE".into(),
            path: event_sub_url.to_owned(),
            headers: vec![("SID".into(), sid.to_owned())],
            body: Vec::new(),
        };
        self.http
            .send_expect_ok(device, &req)
            .map(|_| ())
            .map_err(SoapError::Http)
    }
}

impl fmt::Debug for ControlPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControlPoint")
            .field("node", &self.node())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::UpnpDevice;
    use crate::ssdp::SSDP_ALL;

    const LIGHT_DEV: &str = "urn:schemas-upnp-org:device:BinaryLight:1";
    const SWITCH_SVC: &str = "urn:schemas-upnp-org:service:SwitchPower:1";

    fn install_light(net: &Network, name: &str) -> UpnpDevice {
        let desc = DeviceDescription::new(LIGHT_DEV, name, format!("uuid:{name}"))
            .service(SWITCH_SVC, "urn:upnp-org:serviceId:SwitchPower");
        let dev = UpnpDevice::install(net, desc);
        let on = Arc::new(Mutex::new(false));
        let dev2 = dev.clone();
        dev.implement(SWITCH_SVC, move |_, action, args| match action {
            "SetTarget" => {
                let target = args
                    .iter()
                    .find(|(k, _)| k == "NewTargetValue")
                    .and_then(|(_, v)| v.as_bool())
                    .ok_or("missing NewTargetValue")?;
                *on.lock() = target;
                dev2.notify(SWITCH_SVC, "Status", if target { "1" } else { "0" });
                Ok(Value::Null)
            }
            "GetStatus" => Ok(Value::Bool(*on.lock())),
            other => Err(format!("no action {other}")),
        });
        dev
    }

    #[test]
    fn full_control_point_flow() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let _light = install_light(&net, "kitchen");
        let cp = ControlPoint::new(&net, "cp");

        let hits = cp.discover(SSDP_ALL);
        assert_eq!(hits.len(), 1);
        let desc = cp.describe(&hits[0]).unwrap();
        assert_eq!(desc.friendly_name, "kitchen");
        let svc = desc.find_service(SWITCH_SVC).unwrap();

        let got = cp
            .invoke(hits[0].node, &svc.control_url, SWITCH_SVC, "GetStatus", &[])
            .unwrap();
        assert_eq!(got, Value::Bool(false));
        cp.invoke(
            hits[0].node,
            &svc.control_url,
            SWITCH_SVC,
            "SetTarget",
            &[("NewTargetValue", Value::Bool(true))],
        )
        .unwrap();
        let got = cp
            .invoke(hits[0].node, &svc.control_url, SWITCH_SVC, "GetStatus", &[])
            .unwrap();
        assert_eq!(got, Value::Bool(true));
    }

    #[test]
    fn eventing_through_control_point() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let light = install_light(&net, "kitchen");
        let cp = ControlPoint::new(&net, "cp");
        let hits = cp.discover(LIGHT_DEV);
        let desc = cp.describe(&hits[0]).unwrap();
        let svc = desc.find_service(SWITCH_SVC).unwrap().clone();

        let seen: Arc<Mutex<Vec<(String, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let sid = cp
            .subscribe(hits[0].node, &svc.event_sub_url, move |_, var, val| {
                seen2.lock().push((var.to_owned(), val.to_owned()));
            })
            .unwrap();

        cp.invoke(
            hits[0].node,
            &svc.control_url,
            SWITCH_SVC,
            "SetTarget",
            &[("NewTargetValue", Value::Bool(true))],
        )
        .unwrap();
        assert_eq!(*seen.lock(), vec![("Status".to_owned(), "1".to_owned())]);

        cp.unsubscribe(hits[0].node, &svc.event_sub_url, &sid)
            .unwrap();
        assert_eq!(light.subscription_count(), 0);
    }

    #[test]
    fn a_deep_notify_body_is_dropped_and_the_next_event_still_arrives() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let _light = install_light(&net, "kitchen");
        let cp = ControlPoint::new(&net, "cp");
        let hits = cp.discover(LIGHT_DEV);
        let desc = cp.describe(&hits[0]).unwrap();
        let svc = desc.find_service(SWITCH_SVC).unwrap().clone();
        let seen: Arc<Mutex<Vec<(String, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        cp.subscribe(hits[0].node, &svc.event_sub_url, move |_, var, val| {
            seen2.lock().push((var.to_owned(), val.to_owned()));
        })
        .unwrap();

        // Another node posts a body nested 100 000 elements deep to the
        // callback path of that first subscription.
        let depth = 100_000;
        let notify = HttpRequest {
            method: "NOTIFY".into(),
            path: "/gena-cb/1".into(),
            headers: vec![("NT".into(), "upnp:event".into())],
            body: format!("{}{}", "<p>".repeat(depth), "</p>".repeat(depth)).into_bytes(),
        };
        let hostile = HttpClient::attach(&net, "hostile", TcpModel::default());
        assert!(hostile.send(cp.node(), &notify).unwrap().is_success());
        assert!(seen.lock().is_empty());

        cp.invoke(
            hits[0].node,
            &svc.control_url,
            SWITCH_SVC,
            "SetTarget",
            &[("NewTargetValue", Value::Bool(true))],
        )
        .unwrap();
        assert_eq!(*seen.lock(), vec![("Status".to_owned(), "1".to_owned())]);
    }

    #[test]
    fn faults_surface_through_invoke() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let _light = install_light(&net, "kitchen");
        let cp = ControlPoint::new(&net, "cp");
        let hits = cp.discover(SSDP_ALL);
        let err = cp
            .invoke(
                hits[0].node,
                "/control/SwitchPower",
                SWITCH_SVC,
                "Explode",
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, SoapError::Fault(_)));
    }
}
