//! E18: zero-copy codec stack — three-codec wire-format ablation at
//! fleet load (DESIGN.md §15).
//!
//! The paper's §4 weighs SOAP against alternative wire formats on
//! qualitative grounds; this bench quantifies the trade on the same
//! gateway stack by swapping only the VSG codec: SOAP 1.1 (the
//! prototype), the SIP-like text protocol, and the compact binary
//! format, all driven by one seeded fleet-style workload.
//!
//! Measured per codec, all deterministic:
//!
//!  * **single-call mix** — a 256-call seeded trace against the
//!    standard home: wire bytes/op, heap allocs/op (counted by a
//!    wrapping global allocator in this harness — the production stack
//!    carries no counting), and virtual-time p50/p99;
//!  * **batch train** — a 32-member invocation batch between two
//!    gateways: bytes and allocs per member;
//!  * **fleet identity** — a 4-home fleet with per-home call drivers
//!    and periodic fan-out bursts, run at 1 and 2 worker threads:
//!    metrics snapshots, scheduler statistics, invocation counts and
//!    backbone bytes must be bit-for-bit identical (every codec, not
//!    just the default).
//!
//! Threshold assertions (exercised by every run, `ci.sh --stage bench`
//! included):
//!
//!  * warm-path SOAP allocs/op must be >= 6x down from the
//!    pre-zero-copy stack ([`PRE_ZERO_COPY_SOAP_ALLOCS_PER_OP`]);
//!  * the binary codec must move fewer wire bytes/op than SOAP.
//!
//! Emits `BENCH_codec.json`.

use bench::workload::{replay, Workload};
use bench::{cell, fmt_us, percentile, Report};
use metaware::{
    catalog, BatchCall, BatchItem, BatchPolicy, CompactBinary, HomeFleet, Middleware, SipLike,
    SmartHome, Soap11, VirtualService, Vsg, VsgProtocol, Vsr,
};
use simnet::{Network, ParRunStats, Sim, SimDuration};
use soap::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts heap allocations so the report can state allocs/op. Only the
/// bench harness pays this; the codec stack itself is unchanged.
#[global_allocator]
static A: bench::CountingAlloc = bench::CountingAlloc;

/// Warm-path allocs/op of the SOAP codec on this exact workload (seed
/// 42, 32-call warm-up, 256 measured calls, release profile), measured
/// at the commit before the zero-copy rework. The bar is a >= 6x
/// reduction against this number: the one-pass SOAP wire measured
/// 32.6 (6.4x down), and with the one-pass repository plane, whose
/// resolves the trace's cold calls pay, it measures 30.7 (6.8x); with
/// frames that own their bytes, so the network copies no request or
/// reply, 22.4 (9.3x); with the Jini and HAVi legs in one pass and the
/// operation name interned, 14.9 (13.9x); with the SOAP servers reading
/// each call in place and the CM11A answering in the request's buffer,
/// 6.5 (31.9x); with the cold calls' resolve replies read in place into
/// interned interfaces, 6.1 (34.0x).
const PRE_ZERO_COPY_SOAP_ALLOCS_PER_OP: f64 = 207.4;

const TRACE_CALLS: usize = 256;
const BATCH_MEMBERS: usize = 32;
const FLEET_HOMES: usize = 4;
const FLEET_SECS: u64 = 3;

fn codecs() -> Vec<(&'static str, Arc<dyn VsgProtocol>)> {
    vec![
        ("soap", Arc::new(Soap11::new())),
        ("sip", Arc::new(SipLike::new())),
        ("binary", Arc::new(CompactBinary::new())),
    ]
}

struct MixRun {
    bytes_per_op: f64,
    allocs_per_op: f64,
    p50: u64,
    p99: u64,
}

/// Replays the seeded call trace against a standard home running on
/// `protocol`, measuring backbone bytes, allocations and virtual-time
/// latency per call.
fn run_mix(protocol: Arc<dyn VsgProtocol>) -> MixRun {
    let home = SmartHome::builder().protocol(protocol).build().unwrap();
    let mut w = Workload::new(42);
    replay(&home, &w.trace(32));
    let trace = w.trace(TRACE_CALLS);
    let b0 = home.backbone.with_stats(|s| s.total().bytes);
    let a0 = bench::allocs();
    let lat = replay(&home, &trace);
    let da = bench::allocs() - a0;
    let db = home.backbone.with_stats(|s| s.total().bytes) - b0;
    MixRun {
        bytes_per_op: db as f64 / TRACE_CALLS as f64,
        allocs_per_op: da as f64 / TRACE_CALLS as f64,
        p50: percentile(&lat, 50.0),
        p99: percentile(&lat, 99.0),
    }
}

/// A two-gateway world with one warm exported service on `protocol`.
fn batch_world(protocol: Arc<dyn VsgProtocol>) -> (Sim, Network, Vsg) {
    let sim = Sim::new(7);
    let net = Network::ethernet(&sim);
    let vsr = Vsr::start(&net);
    let server = Vsg::start(&net, "gw-server", protocol.clone(), vsr.node()).unwrap();
    let caller = Vsg::start(&net, "gw-caller", protocol, vsr.node()).unwrap();
    server
        .export(
            VirtualService::new("bench-lamp", catalog::lamp(), Middleware::X10, "gw-server"),
            |_: &Sim, _: &str, _: &[(String, Value)]| Ok(Value::Bool(true)),
        )
        .unwrap();
    caller.invoke(&sim, "bench-lamp", "status", &[]).unwrap();
    (sim, net, caller)
}

/// One warm 32-member batch train: (bytes/member, allocs/member).
fn run_batch(protocol: Arc<dyn VsgProtocol>) -> (f64, f64) {
    let (sim, net, caller) = batch_world(protocol);
    caller.set_batching(BatchPolicy {
        max_batch: BATCH_MEMBERS,
        ..BatchPolicy::default()
    });
    let items: Vec<BatchItem> = (0..BATCH_MEMBERS)
        .map(|_| BatchItem::Call(BatchCall::new("bench-lamp", "status")))
        .collect();
    caller.invoke_batch(&sim, &items); // warm the batch path
    let b0 = net.with_stats(|s| s.total().bytes);
    let a0 = bench::allocs();
    let results = caller.invoke_batch(&sim, &items);
    let da = bench::allocs() - a0;
    let db = net.with_stats(|s| s.total().bytes) - b0;
    assert!(
        results.iter().all(|r| r == &Ok(Value::Bool(true))),
        "every member of the train succeeds"
    );
    (
        db as f64 / BATCH_MEMBERS as f64,
        da as f64 / BATCH_MEMBERS as f64,
    )
}

struct FleetRun {
    stats: ParRunStats,
    invocations: u64,
    bytes: u64,
    snapshots: Vec<String>,
}

/// Builds a fleet on `protocol`, arms per-home seeded call drivers plus
/// a periodic 8-member fan-out burst, and drives `FLEET_SECS` of
/// virtual time.
fn run_fleet(protocol: &Arc<dyn VsgProtocol>, threads: usize) -> FleetRun {
    let fleet = HomeFleet::build(
        SmartHome::builder()
            .protocol(protocol.clone())
            .threads(threads),
        FLEET_HOMES,
    )
    .unwrap();
    let invocations = Arc::new(AtomicU64::new(0));
    for (i, home) in fleet.homes().iter().enumerate() {
        let mut workload = Workload::new(1000 + i as u64);
        let home_gw: Vec<(Middleware, Vsg)> = [
            Middleware::Jini,
            Middleware::Havi,
            Middleware::X10,
            Middleware::Mail,
        ]
        .iter()
        .filter_map(|&mw| home.gateway(mw).cloned().map(|v| (mw, v)))
        .collect();
        let count = invocations.clone();
        home.sim.every(SimDuration::from_millis(20), move |sim| {
            let call = workload.next_call();
            if let Some((_, vsg)) = home_gw.iter().find(|(mw, _)| *mw == call.from) {
                if vsg
                    .invoke(sim, call.service, call.operation, &call.args)
                    .is_ok()
                {
                    count.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        // Fan-out burst: every 500 ms one gateway fires an 8-member
        // batch train (the codec's batch frame under fleet load).
        if let Some(vsg) = home.gateway(Middleware::Jini).cloned() {
            vsg.set_batching(BatchPolicy {
                max_batch: 8,
                ..BatchPolicy::default()
            });
            let count = invocations.clone();
            home.sim.every(SimDuration::from_millis(500), move |sim| {
                let items: Vec<BatchItem> = (0..8)
                    .map(|_| BatchItem::Call(BatchCall::new("hall-lamp", "status")))
                    .collect();
                let ok = vsg
                    .invoke_batch(sim, &items)
                    .iter()
                    .filter(|r| r.is_ok())
                    .count();
                count.fetch_add(ok as u64, Ordering::Relaxed);
            });
        }
    }
    let stats = fleet.run_for(SimDuration::from_secs(FLEET_SECS));
    FleetRun {
        stats,
        invocations: invocations.load(Ordering::Relaxed),
        bytes: fleet
            .homes()
            .iter()
            .map(|h| h.backbone.with_stats(|s| s.total().bytes))
            .sum(),
        snapshots: fleet
            .metrics_snapshots()
            .iter()
            .map(|s| s.to_json())
            .collect(),
    }
}

fn codec_report() {
    let mut report = Report::new(
        "E18",
        "three-codec wire ablation: 256-call mix, 32-member batch, 4-home fleet",
        &["codec", "workload", "bytes/op", "allocs/op", "p50", "p99"],
    );

    let mut soap_mix_bytes = 0.0;
    let mut soap_mix_allocs = 0.0;
    let mut binary_mix_bytes = f64::MAX;
    for (name, protocol) in codecs() {
        let mix = run_mix(protocol.clone());
        report.row(vec![
            cell(name),
            format!("single-call mix ({TRACE_CALLS})"),
            format!("{:.1}", mix.bytes_per_op),
            format!("{:.1}", mix.allocs_per_op),
            fmt_us(mix.p50),
            fmt_us(mix.p99),
        ]);
        if name == "soap" {
            soap_mix_bytes = mix.bytes_per_op;
            soap_mix_allocs = mix.allocs_per_op;
        }
        if name == "binary" {
            binary_mix_bytes = mix.bytes_per_op;
        }
        let (batch_bytes, batch_allocs) = run_batch(protocol);
        report.row(vec![
            cell(name),
            format!("batch train ({BATCH_MEMBERS} members)"),
            format!("{batch_bytes:.1}"),
            format!("{batch_allocs:.1}"),
            cell("-"),
            cell("-"),
        ]);
    }

    // The bar: the one-pass wire must hold SOAP's warm path at >= 6x
    // fewer allocations than the pre-rework stack.
    assert!(
        soap_mix_allocs * 6.0 <= PRE_ZERO_COPY_SOAP_ALLOCS_PER_OP,
        "soap warm allocs/op must be >= 6x down from {PRE_ZERO_COPY_SOAP_ALLOCS_PER_OP} \
         (got {soap_mix_allocs:.1})"
    );
    assert!(
        binary_mix_bytes < soap_mix_bytes,
        "binary codec must move fewer wire bytes/op than SOAP \
         ({binary_mix_bytes:.1} vs {soap_mix_bytes:.1})"
    );

    // Fleet identity: every codec must stay deterministic under the
    // conservative parallel scheduler.
    for (name, protocol) in codecs() {
        let t1 = run_fleet(&protocol, 1);
        let t2 = run_fleet(&protocol, 2);
        assert_eq!(
            t1.snapshots, t2.snapshots,
            "{name}: metrics snapshots must be identical at 1 vs 2 threads"
        );
        assert_eq!(
            (t1.stats.windows, t1.stats.events, t1.stats.cross_sends),
            (t2.stats.windows, t2.stats.events, t2.stats.cross_sends),
            "{name}: scheduler statistics must be identical at 1 vs 2 threads"
        );
        assert_eq!(t1.invocations, t2.invocations, "{name}: invocation counts");
        assert_eq!(t1.bytes, t2.bytes, "{name}: backbone bytes");
        report.row(vec![
            cell(name),
            format!("fleet {FLEET_HOMES} homes x {FLEET_SECS}s (1==2 threads)"),
            format!("{:.1}", t1.bytes as f64 / t1.invocations.max(1) as f64),
            cell(t1.invocations),
            cell(t1.stats.windows),
            cell(t1.stats.events),
        ]);
    }

    report.emit_as("BENCH_codec.json");
}

fn main() {
    codec_report();
}
