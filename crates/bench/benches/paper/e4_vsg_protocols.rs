//! E4 (§3.1/§4.1 vs §5): the VSG protocol ablation.
//!
//! The prototype chose SOAP for simplicity; the paper lists its
//! advantages and §5 floats SIP. This bench quantifies the choice:
//! wire bytes and virtual latency per gateway call for SOAP vs a
//! compact binary RPC vs the SIP-like protocol, across payload sizes.
//! Expected shape: SOAP pays a large fixed envelope (~10× binary) that
//! amortises as payloads grow; SIP sits between; only SOAP pays TCP
//! handshakes.

use bench::{cell, fmt_us, Report};
use metaware::{CompactBinary, SipLike, Soap11, VsgProtocol, VsgRequest};
use simnet::{Network, Protocol, Sim};
use soap::Value;
use std::sync::Arc;

fn protocols() -> Vec<(&'static str, Arc<dyn VsgProtocol>, Protocol)> {
    vec![
        ("soap", Arc::new(Soap11::new()), Protocol::Http),
        ("binary", Arc::new(CompactBinary::new()), Protocol::Raw),
        ("sip", Arc::new(SipLike::new()), Protocol::Sip),
    ]
}

fn one_call(protocol: &Arc<dyn VsgProtocol>, wire: Protocol, payload_bytes: usize) -> (u64, u64) {
    let sim = Sim::new(1);
    let net = Network::ethernet(&sim);
    let server = protocol.bind(&net, "gw", Arc::new(|_, _| Ok(Value::Null)));
    let client = net.attach("c");
    let req = VsgRequest::new("svc", "put").arg("data", Value::Bytes(vec![0xAB; payload_bytes]));
    let t0 = sim.now();
    protocol.call(&net, client, server, &req).unwrap();
    let us = (sim.now() - t0).as_micros();
    let bytes = net.with_stats(|s| s.protocol(wire).bytes);
    (us, bytes)
}

pub fn run() -> Vec<Report> {
    let mut report = Report::new(
        "E4",
        "VSG protocol ablation: one gateway call, varying payload",
        &[
            "payload",
            "soap bytes",
            "soap time",
            "binary bytes",
            "binary time",
            "sip bytes",
            "sip time",
            "soap/binary bytes",
        ],
    );
    for payload in [0usize, 16, 256, 1_024, 10_240] {
        let mut cells = vec![cell(payload)];
        let mut soap_bytes = 0;
        let mut bin_bytes = 1;
        for (name, protocol, wire) in protocols() {
            let (us, bytes) = one_call(&protocol, wire, payload);
            if name == "soap" {
                soap_bytes = bytes;
            }
            if name == "binary" {
                bin_bytes = bytes;
            }
            cells.push(cell(bytes));
            cells.push(fmt_us(us));
        }
        cells.push(format!("{:.1}x", soap_bytes as f64 / bin_bytes as f64));
        report.row(cells);
    }
    report.print();

    // The qualitative §4.1 claims, checked as data.
    let (_, soap0) = one_call(
        &(Arc::new(Soap11::new()) as Arc<dyn VsgProtocol>),
        Protocol::Http,
        0,
    );
    let (_, bin0) = one_call(
        &(Arc::new(CompactBinary::new()) as Arc<dyn VsgProtocol>),
        Protocol::Raw,
        0,
    );
    assert!(
        soap0 > bin0 * 8,
        "SOAP fixed cost dwarfs binary ({soap0} vs {bin0})"
    );
    vec![report]
}
