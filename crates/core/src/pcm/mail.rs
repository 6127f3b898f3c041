//! The Internet-mail PCM.
//!
//! Fig. 3 includes an "Internet Mail service" among the prototype's four
//! PCMs — the proof that plain Internet services integrate alongside
//! device middleware. The Client Proxy exposes the mail server as a
//! `Mailer` service; any appliance in the home can then send mail
//! ("record finished", "milk is low") through the framework.
//!
//! There is no Server Proxy: SMTP-era mail cannot invoke into the home
//! (the same asymmetry §4.2 laments for HTTP). Inbound mail is instead
//! observable by *polling* `unread`, which experiment E6 exploits as one
//! of its delivery strategies.

use crate::error::MetaError;
use crate::iface::catalog;
use crate::intern::Name;
use crate::pcm::ProtocolConversionManager;
use crate::service::{Middleware, VirtualService};
use crate::trace::HopKind;
use crate::vsg::Vsg;
use mailsvc::{Email, MailClient};
use parking_lot::Mutex;
use soap::Value;
use std::fmt;
use std::sync::Arc;

/// The mail Protocol Conversion Manager.
pub struct MailPcm {
    vsg: Vsg,
    imported: Arc<Mutex<Vec<String>>>,
    home_address: String,
}

impl MailPcm {
    /// Starts the PCM with a client for the home's mail server, sending
    /// as `home_address`.
    pub fn start(vsg: &Vsg, client: MailClient, home_address: &str) -> Result<MailPcm, MetaError> {
        let pcm = MailPcm {
            vsg: vsg.clone(),
            imported: Arc::new(Mutex::new(Vec::new())),
            home_address: home_address.to_owned(),
        };
        pcm.import_service("mailer", client)?;
        Ok(pcm)
    }

    /// Exports the mail service into the VSG under `name`.
    fn import_service(&self, name: &str, client: MailClient) -> Result<(), MetaError> {
        let from = self.home_address.clone();
        let vsg = self.vsg.clone();
        self.vsg.export(
            VirtualService::new(name, catalog::mailer(), Middleware::Mail, self.vsg.name()),
            move |sim: &simnet::Sim, op: &str, args: &[(String, Value)]| {
                let str_arg = |k: &str| -> Result<String, MetaError> {
                    args.iter()
                        .find(|(n, _)| n == k)
                        .and_then(|(_, v)| v.as_str())
                        .map(str::to_owned)
                        .ok_or_else(|| MetaError::native("mail", format!("missing '{k}'")))
                };
                let scope = vsg.scope(sim, HopKind::PcmConvert, || format!("mail {op}"));
                let result = (|| match op {
                    "send" => {
                        let mail = Email::new(
                            &from,
                            str_arg("to")?,
                            str_arg("subject")?,
                            str_arg("body")?,
                        );
                        client
                            .send(&mail)
                            .map_err(|e| MetaError::native("mail", e))?;
                        Ok(Value::Null)
                    }
                    "unread" => {
                        let n = client
                            .stat(&str_arg("mailbox")?)
                            .map_err(|e| MetaError::native("mail", e))?;
                        Ok(Value::Int(n as i64))
                    }
                    other => Err(MetaError::UnknownOperation {
                        service: "mailer".into(),
                        operation: other.to_owned(),
                    }),
                })();
                scope.finish(&result);
                result
            },
        )?;
        self.imported.lock().push(name.to_owned());
        Ok(())
    }
}

impl ProtocolConversionManager for MailPcm {
    fn middleware(&self) -> Middleware {
        Middleware::Mail
    }

    fn imported(&self) -> Vec<String> {
        self.imported.lock().clone()
    }

    fn exported(&self) -> Vec<Name> {
        Vec::new() // mail cannot call inward; see module docs
    }
}

impl fmt::Debug for MailPcm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MailPcm")
            .field("home_address", &self.home_address)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Soap11;
    use crate::vsr::Vsr;
    use mailsvc::MailServer;
    use simnet::{Network, Sim};

    fn world() -> (Sim, Vsg, MailServer, MailClient) {
        let sim = Sim::new(1);
        let backbone = Network::ethernet(&sim);
        let vsr = Vsr::start(&backbone);
        let vsg = Vsg::start(&backbone, "inet-gw", Arc::new(Soap11::new()), vsr.node()).unwrap();
        let inet = Network::internet(&sim);
        let server = MailServer::start(&inet, "smtp.example.org");
        let client = MailClient::attach(&inet, "home-gw", server.node());
        (sim, vsg, server, client)
    }

    #[test]
    fn send_mail_through_the_framework() {
        let (sim, vsg, server, client) = world();
        let pcm = MailPcm::start(&vsg, client.clone(), "home@example.org").unwrap();
        assert_eq!(pcm.imported(), vec!["mailer".to_owned()]);
        assert_eq!(pcm.middleware(), Middleware::Mail);
        assert!(pcm.exported().is_empty());

        vsg.invoke(
            &sim,
            "mailer",
            "send",
            &[
                ("to".into(), Value::Str("owner@example.org".into())),
                ("subject".into(), Value::Str("Recording done".into())),
                ("body".into(), Value::Str("Channel 42 recorded.".into())),
            ],
        )
        .unwrap();
        assert_eq!(server.mailbox_len("owner@example.org"), 1);
        let got = client.retr("owner@example.org", 0).unwrap();
        assert_eq!(got.from, "home@example.org");
        assert_eq!(got.subject, "Recording done");
    }

    #[test]
    fn unread_polling() {
        let (sim, vsg, _server, client) = world();
        let _pcm = MailPcm::start(&vsg, client.clone(), "home@example.org").unwrap();
        assert_eq!(
            vsg.invoke(
                &sim,
                "mailer",
                "unread",
                &[("mailbox".into(), Value::Str("home@example.org".into()))]
            )
            .unwrap(),
            Value::Int(0)
        );
        client
            .send(&Email::new("friend@x", "home@example.org", "hi", "hello"))
            .unwrap();
        assert_eq!(
            vsg.invoke(
                &sim,
                "mailer",
                "unread",
                &[("mailbox".into(), Value::Str("home@example.org".into()))]
            )
            .unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn bad_arguments_are_native_errors() {
        let (sim, vsg, _server, client) = world();
        let _pcm = MailPcm::start(&vsg, client, "home@example.org").unwrap();
        // Interface-level checking catches missing params before the
        // invoker ever runs.
        let err = vsg.invoke(&sim, "mailer", "send", &[]).unwrap_err();
        assert!(matches!(err, MetaError::TypeMismatch { .. }));
    }
}
