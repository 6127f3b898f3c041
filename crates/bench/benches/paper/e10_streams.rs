//! E10 (§4.2 / §6): "we can't integrate multimedia streaming".
//!
//! A DV stream needs ~30 Mbit/s with one packet every 125 µs. Native
//! HAVi carries it on reserved isochronous channels. Carrying the same
//! bytes through the SOAP VSG means one HTTP round trip per chunk — this
//! bench measures the achievable throughput and per-chunk latency of
//! that bridge and shows why the paper punts streams to "another Meta
//! middleware" (§6). Expected shape: native meets the deadline with
//! zero late packets; the SOAP bridge misses required throughput by an
//! order of magnitude even with large chunks.

use bench::{cell, Report};
use havi::{StreamManager, DV_BYTES_PER_CYCLE};
use metaware::{CompactBinary, Soap11, VsgProtocol, VsgRequest};
use simnet::{Network, NodeId, Sim, SimDuration};
use soap::Value;
use std::sync::Arc;

fn native_stream() -> (f64, u64, u64) {
    let sim = Sim::new(1);
    let bus = Network::ieee1394(&sim);
    let smgr = StreamManager::new(&bus);
    let conn = smgr
        .connect(
            havi::Seid::new(NodeId(1), 1),
            havi::Seid::new(NodeId(2), 1),
            DV_BYTES_PER_CYCLE,
        )
        .unwrap();
    let report = smgr.pump(&sim, &conn, SimDuration::from_secs(5));
    let mbps = report.bytes as f64 * 8.0 / 5.0 / 1e6;
    (mbps, report.late_packets, report.max_jitter_us)
}

/// Pushes `total_bytes` of stream data through a VSG protocol in
/// `chunk`-byte calls, as fast as the protocol allows. Returns
/// (achieved Mbit/s, per-chunk latency us).
fn bridged_stream(protocol: Arc<dyn VsgProtocol>, chunk: usize, total_bytes: usize) -> (f64, u64) {
    let sim = Sim::new(1);
    let net = Network::ethernet(&sim);
    let server = protocol.bind(&net, "sink-gw", Arc::new(|_, _| Ok(Value::Null)));
    let client = net.attach("source-gw");
    let chunks = total_bytes / chunk;
    let t0 = sim.now();
    let mut per_chunk = 0u64;
    for i in 0..chunks {
        let c0 = sim.now();
        let req = VsgRequest::new("stream-sink", "put")
            .arg("seq", i as i64)
            .arg("data", Value::Bytes(vec![0xAA; chunk]));
        protocol.call(&net, client, server, &req).unwrap();
        per_chunk = (sim.now() - c0).as_micros();
    }
    let elapsed = (sim.now() - t0).as_secs_f64();
    let mbps = total_bytes as f64 * 8.0 / elapsed / 1e6;
    (mbps, per_chunk)
}

pub fn run() -> Vec<Report> {
    let mut report = Report::new(
        "E10",
        "DV stream (needs 30.7 Mbit/s, 125us cadence): native vs VSG bridge",
        &[
            "carrier",
            "chunk",
            "achieved Mbit/s",
            "per-chunk latency",
            "meets DV rate?",
        ],
    );
    let required_mbps = DV_BYTES_PER_CYCLE as f64 * 8.0 / 125e-6 / 1e6;

    let (mbps, late, jitter) = native_stream();
    report.row(vec![
        "HAVi isochronous".into(),
        cell(DV_BYTES_PER_CYCLE),
        format!("{mbps:.1}"),
        format!("jitter<= {jitter}us, late={late}"),
        cell(mbps >= required_mbps),
    ]);

    for chunk in [480usize, 4_800, 48_000] {
        let (mbps, lat) = bridged_stream(Arc::new(Soap11::new()), chunk, 480_000);
        report.row(vec![
            "SOAP VSG bridge".into(),
            cell(chunk),
            format!("{mbps:.2}"),
            bench::fmt_us(lat),
            cell(mbps >= required_mbps),
        ]);
    }
    // Even the binary protocol (no XML, no TCP handshake) on 100 Mbit
    // Ethernet: closer, but without reservation there is no jitter bound.
    let (mbps, lat) = bridged_stream(Arc::new(CompactBinary::new()), 4_800, 480_000);
    report.row(vec![
        "binary VSG bridge".into(),
        cell(4_800),
        format!("{mbps:.2}"),
        bench::fmt_us(lat),
        format!("{} (no jitter bound)", mbps >= required_mbps),
    ]);
    report.print();

    println!(
        "(required: {required_mbps:.1} Mbit/s gross DV rate; §6: \"another Meta\n\
         middleware should be developed for … multimedia services\")"
    );
    vec![report]
}
