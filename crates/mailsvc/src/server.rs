//! The mail server.
//!
//! A framed SMTP/POP-flavoured protocol over the Internet uplink:
//! `SEND` submits a message, `STAT` counts a mailbox, `RETR` fetches
//! (and `DELE` deletes) by index. One request/response exchange per
//! command, as a 2002 mail relay would behave across a dial-up-class
//! link.

use crate::message::Email;
use parking_lot::Mutex;
use simnet::{Network, NodeId, Protocol, SimDuration};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A running mail server.
#[derive(Clone)]
pub struct MailServer {
    node: NodeId,
    boxes: Arc<Mutex<HashMap<String, Vec<Email>>>>,
}

impl MailServer {
    /// Starts a server on a fresh node of `net` (normally the Internet
    /// uplink network).
    pub fn start(net: &Network, label: &str) -> MailServer {
        let node = net.attach(label);
        let boxes: Arc<Mutex<HashMap<String, Vec<Email>>>> = Arc::new(Mutex::new(HashMap::new()));
        let boxes2 = boxes.clone();
        net.set_request_handler(node, move |sim, frame| {
            sim.advance(SimDuration::from_micros(500)); // relay processing
            let text = String::from_utf8_lossy(&frame.payload);
            let reply = handle(&boxes2, sim.now(), &text);
            Ok(reply.into_bytes())
        })
        .expect("mail node exists");
        MailServer { node, boxes }
    }

    /// The server's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Messages currently stored for `addr` (test introspection).
    pub fn mailbox_len(&self, addr: &str) -> usize {
        self.boxes.lock().get(addr).map_or(0, Vec::len)
    }
}

impl fmt::Debug for MailServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MailServer")
            .field("node", &self.node)
            .field("mailboxes", &self.boxes.lock().len())
            .finish()
    }
}

fn handle(
    boxes: &Mutex<HashMap<String, Vec<Email>>>,
    now: simnet::SimTime,
    request: &str,
) -> String {
    let (command, rest) = request.split_once("\r\n").unwrap_or((request, ""));
    let mut parts = command.split_whitespace();
    match parts.next() {
        Some("SEND") => match Email::from_wire(rest) {
            Some(mut mail) => {
                mail.date = now;
                let to = mail.to.clone();
                boxes.lock().entry(to).or_default().push(mail);
                "250 OK".to_owned()
            }
            None => "554 malformed message".to_owned(),
        },
        Some("STAT") => match parts.next() {
            Some(addr) => {
                let n = boxes.lock().get(addr).map_or(0, Vec::len);
                format!("+OK {n}")
            }
            None => "501 STAT needs a mailbox".to_owned(),
        },
        Some("RETR") => match (
            parts.next(),
            parts.next().and_then(|s| s.parse::<usize>().ok()),
        ) {
            (Some(addr), Some(idx)) => match boxes.lock().get(addr).and_then(|b| b.get(idx)) {
                Some(mail) => format!("+OK\r\n{}", mail.to_wire()),
                None => "550 no such message".to_owned(),
            },
            _ => "501 RETR needs mailbox and index".to_owned(),
        },
        Some("DELE") => match (
            parts.next(),
            parts.next().and_then(|s| s.parse::<usize>().ok()),
        ) {
            (Some(addr), Some(idx)) => {
                let mut boxes = boxes.lock();
                match boxes.get_mut(addr) {
                    Some(b) if idx < b.len() => {
                        b.remove(idx);
                        "+OK deleted".to_owned()
                    }
                    _ => "550 no such message".to_owned(),
                }
            }
            _ => "501 DELE needs mailbox and index".to_owned(),
        },
        _ => "500 unknown command".to_owned(),
    }
}

/// Errors surfaced by the mail client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MailError {
    /// The uplink failed.
    Network(String),
    /// The server answered with an error status.
    Server(String),
    /// The server's reply did not parse.
    Protocol(String),
}

impl fmt::Display for MailError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MailError::Network(m) => write!(f, "mail network error: {m}"),
            MailError::Server(m) => write!(f, "mail server error: {m}"),
            MailError::Protocol(m) => write!(f, "mail protocol error: {m}"),
        }
    }
}

impl std::error::Error for MailError {}

/// A mail client bound to one node.
#[derive(Debug, Clone)]
pub struct MailClient {
    net: Network,
    node: NodeId,
    server: NodeId,
}

impl MailClient {
    /// Creates a client on a fresh node, talking to `server`.
    pub fn attach(net: &Network, label: &str, server: NodeId) -> MailClient {
        MailClient {
            net: net.clone(),
            node: net.attach(label),
            server,
        }
    }

    fn exchange(&self, request: String) -> Result<String, MailError> {
        let reply = self
            .net
            .request(self.node, self.server, Protocol::Mail, request.into_bytes())
            .map_err(|e| MailError::Network(e.to_string()))?;
        Ok(String::from_utf8_lossy(&reply).into_owned())
    }

    /// Submits a message.
    pub fn send(&self, mail: &Email) -> Result<(), MailError> {
        let reply = self.exchange(format!("SEND\r\n{}", mail.to_wire()))?;
        if reply.starts_with("250") {
            Ok(())
        } else {
            Err(MailError::Server(reply))
        }
    }

    /// Counts messages in `addr`'s mailbox.
    pub fn stat(&self, addr: &str) -> Result<usize, MailError> {
        let reply = self.exchange(format!("STAT {addr}"))?;
        reply
            .strip_prefix("+OK ")
            .and_then(|n| n.trim().parse().ok())
            .ok_or(MailError::Server(reply))
    }

    /// Fetches message `idx` from `addr`'s mailbox.
    pub fn retr(&self, addr: &str, idx: usize) -> Result<Email, MailError> {
        let reply = self.exchange(format!("RETR {addr} {idx}"))?;
        match reply.strip_prefix("+OK\r\n") {
            Some(wire) => {
                Email::from_wire(wire).ok_or(MailError::Protocol("bad message body".into()))
            }
            None => Err(MailError::Server(reply)),
        }
    }

    /// Deletes message `idx` from `addr`'s mailbox.
    #[cfg(test)]
    fn dele(&self, addr: &str, idx: usize) -> Result<(), MailError> {
        let reply = self.exchange(format!("DELE {addr} {idx}"))?;
        if reply.starts_with("+OK") {
            Ok(())
        } else {
            Err(MailError::Server(reply))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Sim;

    fn world() -> (Sim, Network, MailServer, MailClient) {
        let sim = Sim::new(1);
        let net = Network::internet(&sim);
        let server = MailServer::start(&net, "smtp.example.org");
        let client = MailClient::attach(&net, "home-gw", server.node());
        (sim, net, server, client)
    }

    #[test]
    fn send_stat_retr_dele_cycle() {
        let (_sim, _net, server, client) = world();
        client
            .send(&Email::new(
                "vcr@home",
                "owner@example.org",
                "Done",
                "Recorded ch 42",
            ))
            .unwrap();
        client
            .send(&Email::new(
                "fridge@home",
                "owner@example.org",
                "Milk",
                "Running low",
            ))
            .unwrap();
        assert_eq!(client.stat("owner@example.org").unwrap(), 2);
        assert_eq!(server.mailbox_len("owner@example.org"), 2);

        let first = client.retr("owner@example.org", 0).unwrap();
        assert_eq!(first.subject, "Done");
        assert_eq!(first.from, "vcr@home");

        client.dele("owner@example.org", 0).unwrap();
        assert_eq!(client.stat("owner@example.org").unwrap(), 1);
        let now_first = client.retr("owner@example.org", 0).unwrap();
        assert_eq!(now_first.subject, "Milk");
    }

    #[test]
    fn server_stamps_acceptance_time() {
        let (sim, _net, _server, client) = world();
        sim.advance(simnet::SimDuration::from_secs(10));
        client.send(&Email::new("a@x", "b@y", "s", "b")).unwrap();
        let m = client.retr("b@y", 0).unwrap();
        assert!(m.date.as_micros() >= 10_000_000);
    }

    #[test]
    fn errors_for_missing_things() {
        let (_sim, _net, _server, client) = world();
        assert_eq!(client.stat("ghost@nowhere").unwrap(), 0);
        assert!(matches!(
            client.retr("ghost@nowhere", 0),
            Err(MailError::Server(_))
        ));
        assert!(matches!(
            client.dele("ghost@nowhere", 3),
            Err(MailError::Server(_))
        ));
    }

    #[test]
    fn wan_latency_is_visible() {
        let (sim, _net, _server, client) = world();
        let before = sim.now();
        client.send(&Email::new("a@x", "b@y", "s", "b")).unwrap();
        let elapsed = sim.now() - before;
        // Two 25 ms WAN legs at minimum.
        assert!(elapsed.as_millis() >= 50, "took {elapsed}");
    }

    #[test]
    fn unknown_command_rejected() {
        let (_sim, net, server, _client) = world();
        let rogue = net.attach("rogue");
        let reply = net
            .request(rogue, server.node(), Protocol::Mail, &b"EHLO hi"[..])
            .unwrap();
        assert!(String::from_utf8_lossy(&reply).starts_with("500"));
    }
}
