//! UPnP device hosting: description document, SOAP control, GENA events.

use crate::description::DeviceDescription;
use crate::ssdp::install_responder;
use minixml::Element;
use parking_lot::Mutex;
use simnet::{Network, NodeId, Sim};
use soap::{
    fault_envelope, Fault, HttpRequest, HttpResponse, HttpServer, RpcCall, RpcResponse, TcpModel,
    Value,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An action implementation: `(action, args) -> out-value`.
pub type ActionHandler =
    Box<dyn FnMut(&Sim, &str, &[(String, Value)]) -> Result<Value, String> + Send>;

struct Subscription {
    sid: String,
    service_type: String,
    callback_node: NodeId,
    callback_path: String,
}

struct DeviceState {
    actions: HashMap<String, ActionHandler>,
    subscriptions: Vec<Subscription>,
    next_sid: u64,
}

/// A hosted UPnP device.
#[derive(Clone)]
pub struct UpnpDevice {
    net: Network,
    node: NodeId,
    description: DeviceDescription,
    state: Arc<Mutex<DeviceState>>,
}

impl UpnpDevice {
    /// Installs a device on a fresh node of `net`: serves the description
    /// document, answers SSDP searches, and routes SOAP control and GENA
    /// subscription requests.
    pub fn install(net: &Network, description: DeviceDescription) -> UpnpDevice {
        let http = HttpServer::bind(net, &description.friendly_name);
        let node = http.node();
        let state = Arc::new(Mutex::new(DeviceState {
            actions: HashMap::new(),
            subscriptions: Vec::new(),
            next_sid: 0,
        }));

        // SSDP.
        install_responder(
            net,
            node,
            "/desc.xml",
            &description.device_type,
            description
                .services
                .iter()
                .map(|s| s.service_type.clone())
                .collect(),
            &description.udn,
        );

        // Description document.
        let desc_doc = description.to_xml().to_document();
        http.route("/desc.xml", move |_, _| {
            HttpResponse::ok("text/xml; charset=utf-8", desc_doc.clone())
        });

        // Control + eventing per service.
        for service in &description.services {
            let service_type = service.service_type.clone();
            let state2 = state.clone();
            http.route(
                service.control_url.clone(),
                move |sim, req: &HttpRequest| control_request(sim, &state2, &service_type, req),
            );

            let service_type = service.service_type.clone();
            let state2 = state.clone();
            http.route(
                service.event_sub_url.clone(),
                move |_, req: &HttpRequest| gena_request(&state2, &service_type, req),
            );
        }

        UpnpDevice {
            net: net.clone(),
            node,
            description,
            state,
        }
    }

    /// The device's HTTP node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The hosted description.
    pub fn description(&self) -> &DeviceDescription {
        &self.description
    }

    /// Registers the implementation of one service's actions.
    pub fn implement(
        &self,
        service_type: &str,
        handler: impl FnMut(&Sim, &str, &[(String, Value)]) -> Result<Value, String> + Send + 'static,
    ) {
        self.state
            .lock()
            .actions
            .insert(service_type.to_owned(), Box::new(handler));
    }

    /// Number of live subscriptions (across all services).
    pub fn subscription_count(&self) -> usize {
        self.state.lock().subscriptions.len()
    }

    /// Publishes a state-variable change to every subscriber of
    /// `service_type` (GENA NOTIFY). Dead subscribers are dropped.
    pub fn notify(&self, service_type: &str, variable: &str, value: &str) {
        let targets: Vec<(NodeId, String, String)> = self
            .state
            .lock()
            .subscriptions
            .iter()
            .filter(|s| s.service_type == service_type)
            .map(|s| (s.callback_node, s.callback_path.clone(), s.sid.clone()))
            .collect();
        let body = Element::new("e:propertyset")
            .attr("xmlns:e", "urn:schemas-upnp-org:event-1-0")
            .child(Element::new("e:property").child(Element::new(variable).text(value)))
            .to_document();
        let mut dead = Vec::new();
        for (cb_node, cb_path, sid) in targets {
            let req = HttpRequest::post(cb_path, "text/xml; charset=utf-8", body.clone())
                .header("NT", "upnp:event")
                .header("SID", sid.clone());
            // NOTIFY is fire-and-forget from the device's perspective;
            // errors only mark the subscription dead.
            let client = soap::HttpClient::new(&self.net, self.node, TcpModel::default());
            if client.send_expect_ok(cb_node, &req).is_err() {
                dead.push(sid);
            }
        }
        if !dead.is_empty() {
            self.state
                .lock()
                .subscriptions
                .retain(|s| !dead.contains(&s.sid));
        }
    }
}

impl fmt::Debug for UpnpDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UpnpDevice")
            .field("node", &self.node)
            .field("udn", &self.description.udn)
            .field("subscriptions", &self.subscription_count())
            .finish()
    }
}

fn control_request(
    sim: &Sim,
    state: &Mutex<DeviceState>,
    service_type: &str,
    req: &HttpRequest,
) -> HttpResponse {
    let doc = String::from_utf8_lossy(&req.body);
    let outcome = match RpcCall::from_envelope(&doc) {
        Ok(call) => {
            let handler = {
                let mut st = state.lock();
                // Borrow the handler by temporarily removing it so the
                // lock is not held across the (possibly re-entrant) call.
                st.actions.remove(service_type)
            };
            match handler {
                Some(mut h) => {
                    let result = h(sim, &call.method, &call.args);
                    state.lock().actions.insert(service_type.to_owned(), h);
                    match result {
                        Ok(v) => Ok(RpcResponse::new(&call.method, v)),
                        Err(e) => Err(Fault::server(e)),
                    }
                }
                None => Err(Fault::client(format!(
                    "service {service_type} not implemented"
                ))),
            }
        }
        Err(e) => Err(Fault::client(e.to_string())),
    };
    match outcome {
        Ok(resp) => HttpResponse::ok("text/xml; charset=utf-8", resp.to_envelope()),
        Err(fault) => {
            let mut r = HttpResponse::error(500, "Internal Server Error", fault_envelope(&fault));
            r.headers[0].1 = "text/xml; charset=utf-8".into();
            r
        }
    }
}

fn gena_request(state: &Mutex<DeviceState>, service_type: &str, req: &HttpRequest) -> HttpResponse {
    match req.method.as_str() {
        "SUBSCRIBE" => {
            let Some(callback) = req.get_header("CALLBACK") else {
                return HttpResponse::error(412, "Precondition Failed", "missing CALLBACK");
            };
            // CALLBACK: <http://node-<id>/path>
            let inner = callback.trim_start_matches('<').trim_end_matches('>');
            let Some(rest) = inner.strip_prefix("http://node-") else {
                return HttpResponse::error(412, "Precondition Failed", "bad CALLBACK");
            };
            let Some(slash) = rest.find('/') else {
                return HttpResponse::error(412, "Precondition Failed", "bad CALLBACK path");
            };
            let Ok(id) = rest[..slash].parse::<u32>() else {
                return HttpResponse::error(412, "Precondition Failed", "bad CALLBACK node");
            };
            let mut st = state.lock();
            st.next_sid += 1;
            let sid = format!("uuid:sub-{}", st.next_sid);
            st.subscriptions.push(Subscription {
                sid: sid.clone(),
                service_type: service_type.to_owned(),
                callback_node: NodeId(id),
                callback_path: rest[slash..].to_owned(),
            });
            HttpResponse::ok("text/plain", "")
                .tap_header("SID", &sid)
                .tap_header("TIMEOUT", "Second-1800")
        }
        "UNSUBSCRIBE" => {
            let Some(sid) = req.get_header("SID") else {
                return HttpResponse::error(412, "Precondition Failed", "missing SID");
            };
            let mut st = state.lock();
            let before = st.subscriptions.len();
            st.subscriptions.retain(|s| s.sid != sid);
            if st.subscriptions.len() < before {
                HttpResponse::ok("text/plain", "")
            } else {
                HttpResponse::error(412, "Precondition Failed", "unknown SID")
            }
        }
        other => HttpResponse::error(405, "Method Not Allowed", format!("no {other} here")),
    }
}

trait TapHeader {
    fn tap_header(self, k: &str, v: &str) -> Self;
}

impl TapHeader for HttpResponse {
    fn tap_header(mut self, k: &str, v: &str) -> Self {
        self.headers.push((k.to_owned(), v.to_owned()));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::DeviceDescription;

    const LIGHT_DEV: &str = "urn:schemas-upnp-org:device:BinaryLight:1";
    const SWITCH_SVC: &str = "urn:schemas-upnp-org:service:SwitchPower:1";

    fn light(net: &Network) -> UpnpDevice {
        let desc = DeviceDescription::new(LIGHT_DEV, "Kitchen Light", "uuid:kitchen")
            .service(SWITCH_SVC, "urn:upnp-org:serviceId:SwitchPower");
        let dev = UpnpDevice::install(net, desc);
        let on = Arc::new(Mutex::new(false));
        dev.implement(SWITCH_SVC, move |_, action, args| match action {
            "SetTarget" => {
                let target = args
                    .iter()
                    .find(|(k, _)| k == "NewTargetValue")
                    .and_then(|(_, v)| v.as_bool())
                    .ok_or("missing NewTargetValue")?;
                *on.lock() = target;
                Ok(Value::Null)
            }
            "GetStatus" => Ok(Value::Bool(*on.lock())),
            other => Err(format!("no action {other}")),
        });
        dev
    }

    #[test]
    fn description_served_over_http() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let dev = light(&net);
        let client = soap::HttpClient::attach(&net, "cp", TcpModel::default());
        let resp = client
            .send_expect_ok(dev.node(), &HttpRequest::get("/desc.xml"))
            .unwrap();
        let doc = String::from_utf8_lossy(&resp.body);
        let parsed = DeviceDescription::from_xml(&minixml::parse(&doc).unwrap()).unwrap();
        assert_eq!(parsed.friendly_name, "Kitchen Light");
    }

    #[test]
    fn soap_control_round_trip() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let dev = light(&net);
        let client = soap::HttpClient::attach(&net, "cp", TcpModel::default());

        let call = RpcCall::new(SWITCH_SVC, "SetTarget").arg("NewTargetValue", true);
        let req = HttpRequest::post("/control/SwitchPower", "text/xml", call.to_envelope());
        let resp = client.send_expect_ok(dev.node(), &req).unwrap();
        let parsed = RpcResponse::from_envelope(&String::from_utf8_lossy(&resp.body)).unwrap();
        assert_eq!(parsed.value, Value::Null);

        let call = RpcCall::new(SWITCH_SVC, "GetStatus");
        let req = HttpRequest::post("/control/SwitchPower", "text/xml", call.to_envelope());
        let resp = client.send_expect_ok(dev.node(), &req).unwrap();
        let parsed = RpcResponse::from_envelope(&String::from_utf8_lossy(&resp.body)).unwrap();
        assert_eq!(parsed.value, Value::Bool(true));
    }

    #[test]
    fn bad_action_is_soap_fault_on_500() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let dev = light(&net);
        let client = soap::HttpClient::attach(&net, "cp", TcpModel::default());
        let call = RpcCall::new(SWITCH_SVC, "Explode");
        let req = HttpRequest::post("/control/SwitchPower", "text/xml", call.to_envelope());
        let resp = client.send(dev.node(), &req).unwrap();
        assert_eq!(resp.status, 500);
        let err = RpcResponse::from_envelope(&String::from_utf8_lossy(&resp.body)).unwrap_err();
        assert!(matches!(err, soap::SoapError::Fault(_)));
    }

    #[test]
    fn gena_subscribe_notify_unsubscribe() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let dev = light(&net);

        // The subscriber runs its own HTTP server for callbacks.
        let cb_server = HttpServer::bind(&net, "cp-events");
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        cb_server.route("/notify", move |_, req: &HttpRequest| {
            seen2
                .lock()
                .push(String::from_utf8_lossy(&req.body).into_owned());
            HttpResponse::ok("text/plain", "")
        });

        let client = soap::HttpClient::new(&net, cb_server.node(), TcpModel::default());
        let sub = HttpRequest {
            method: "SUBSCRIBE".into(),
            path: "/event/SwitchPower".into(),
            headers: vec![(
                "CALLBACK".into(),
                format!("<http://node-{}/notify>", cb_server.node().0),
            )],
            body: Vec::new(),
        };
        let resp = client.send_expect_ok(dev.node(), &sub).unwrap();
        let sid = resp.get_header("SID").unwrap().to_owned();
        assert_eq!(dev.subscription_count(), 1);

        dev.notify(SWITCH_SVC, "Status", "1");
        assert_eq!(seen.lock().len(), 1);
        assert!(seen.lock()[0].contains("<Status>1</Status>"));

        let unsub = HttpRequest {
            method: "UNSUBSCRIBE".into(),
            path: "/event/SwitchPower".into(),
            headers: vec![("SID".into(), sid)],
            body: Vec::new(),
        };
        client.send_expect_ok(dev.node(), &unsub).unwrap();
        assert_eq!(dev.subscription_count(), 0);
        dev.notify(SWITCH_SVC, "Status", "0");
        assert_eq!(seen.lock().len(), 1);
    }

    #[test]
    fn dead_subscriber_is_pruned_on_notify() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let dev = light(&net);
        let client = soap::HttpClient::attach(&net, "cp", TcpModel::default());
        let sub = HttpRequest {
            method: "SUBSCRIBE".into(),
            path: "/event/SwitchPower".into(),
            headers: vec![("CALLBACK".into(), "<http://node-9999/notify>".into())],
            body: Vec::new(),
        };
        client.send_expect_ok(dev.node(), &sub).unwrap();
        assert_eq!(dev.subscription_count(), 1);
        dev.notify(SWITCH_SVC, "Status", "1");
        assert_eq!(dev.subscription_count(), 0);
    }

    #[test]
    fn bad_gena_requests() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let dev = light(&net);
        let client = soap::HttpClient::attach(&net, "cp", TcpModel::default());
        for (method, headers) in [
            ("SUBSCRIBE", vec![]),
            (
                "SUBSCRIBE",
                vec![("CALLBACK".to_owned(), "garbage".to_owned())],
            ),
            ("UNSUBSCRIBE", vec![]),
            (
                "UNSUBSCRIBE",
                vec![("SID".to_owned(), "uuid:nope".to_owned())],
            ),
            ("GET", vec![]),
        ] {
            let req = HttpRequest {
                method: method.into(),
                path: "/event/SwitchPower".into(),
                headers,
                body: Vec::new(),
            };
            let resp = client.send(dev.node(), &req).unwrap();
            assert!(!resp.is_success(), "{method} should fail");
        }
    }
}
