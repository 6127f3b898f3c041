//! E14: throughput of the multiplexed VSG wire (DESIGN.md §9).
//!
//! The paper's gateways pay one carrier frame per event per subscriber
//! and one TCP setup per invocation. This bench measures what the
//! batched, multiplexed wire buys:
//!
//!  * **event fan-out** at 1/8/64 subscribers — events/sec and wire
//!    bytes per delivered event, coalesced vs one-NOTIFY-per-event;
//!  * **invocation trains** — calls/sec over the multiplexed wire
//!    (persistent connection + batch frames) vs connect-per-call;
//!  * **idle latency** — a lone call on an otherwise quiet wire must
//!    not queue behind a batch deadline: p50 within 10% of unbatched.
//!
//! The threshold assertions live inside the report functions so
//! `cargo bench --bench e14_throughput` (run by `ci.sh --stage bench`)
//! exercises them: batched events/sec must be ≥ 3× unbatched at
//! fan-out 64, wire bytes/event ≤ 0.5×, and idle p50 within 10%.
//!
//! Emits `BENCH_throughput.json`.

use bench::{cell, fmt_us, percentile, Report};
use metaware::{
    catalog, BatchCall, BatchItem, BatchPolicy, Middleware, SipPublisher, SipSubscriber, Soap11,
    VirtualService, Vsg, VsgProtocol, Vsr,
};
use simnet::{Network, Sim, SimDuration};
use soap::Value;
use std::sync::Arc;

const EVENTS: u64 = 256;
const CALLS: u64 = 128;

struct EventRun {
    events_per_sec: f64,
    bytes_per_event: f64,
    frames: u64,
}

/// Publishes `EVENTS` events to `fanout` SIP subscribers and measures
/// delivered-notification throughput against virtual time.
fn run_events(fanout: usize, batched: bool) -> EventRun {
    let sim = Sim::new(7);
    let net = Network::ethernet(&sim);
    let source = net.attach("publisher");
    let mut publisher = SipPublisher::new(&net, source);
    if batched {
        // A large idle threshold keeps the publisher in its loaded
        // (coalescing) regime: the frame sends themselves advance
        // virtual time, which would otherwise look like idle gaps.
        publisher = publisher.with_batching(BatchPolicy {
            max_batch: 32,
            idle_threshold: SimDuration::from_secs(3600),
            ..BatchPolicy::default()
        });
    }
    let mut subs = Vec::new();
    for i in 0..fanout {
        let node = net.attach(format!("sink-{i}"));
        subs.push(SipSubscriber::install(&net, node, |_, _, _| {}));
        publisher.subscribe(node, "%");
    }

    let t0 = sim.now();
    let b0 = net.with_stats(|s| s.total().bytes);
    let f0 = net.with_stats(|s| s.total().frames);
    for e in 0..EVENTS {
        publisher.publish("hall-motion", &Value::Int(e as i64));
    }
    publisher.flush();
    let dt = sim.now().since(t0);
    let bytes = net.with_stats(|s| s.total().bytes) - b0;
    let frames = net.with_stats(|s| s.total().frames) - f0;

    let delivered = publisher.stats().events_delivered;
    assert_eq!(delivered, EVENTS * fanout as u64, "lossless fan-out");
    assert_eq!(
        subs.iter().map(|s| s.received()).sum::<u64>(),
        delivered,
        "every counted delivery reached a subscriber"
    );
    EventRun {
        events_per_sec: delivered as f64 / dt.as_secs_f64(),
        bytes_per_event: bytes as f64 / delivered as f64,
        frames,
    }
}

/// A two-gateway SOAP world with one warm exported service.
fn invocation_world(multiplexed: bool) -> (Sim, Network, Vsg) {
    let sim = Sim::new(7);
    let net = Network::ethernet(&sim);
    let vsr = Vsr::start(&net);
    let protocol: Arc<dyn VsgProtocol> = if multiplexed {
        Arc::new(Soap11::multiplexed())
    } else {
        Arc::new(Soap11::new())
    };
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

/// Pushes a train of `CALLS` invocations through one gateway pair:
/// batch frames over a persistent connection vs connect-per-call.
fn run_invocations(batched: bool) -> (f64, f64) {
    let (sim, net, caller) = invocation_world(batched);
    caller.set_batching(if batched {
        BatchPolicy {
            max_batch: 32,
            ..BatchPolicy::default()
        }
    } else {
        BatchPolicy::disabled()
    });
    let items: Vec<BatchItem> = (0..CALLS)
        .map(|_| BatchItem::Call(BatchCall::new("bench-lamp", "status")))
        .collect();
    let t0 = sim.now();
    let b0 = net.with_stats(|s| s.total().bytes);
    let results = caller.invoke_batch(&sim, &items);
    let dt = sim.now().since(t0);
    let bytes = net.with_stats(|s| s.total().bytes) - b0;
    assert!(
        results.iter().all(|r| r == &Ok(Value::Bool(true))),
        "every member of the train succeeds"
    );
    (CALLS as f64 / dt.as_secs_f64(), bytes as f64 / CALLS as f64)
}

/// p50 latency of a lone call on a quiet wire (50ms gaps, so every
/// call takes the batched path's idle branch).
fn idle_latency_p50(batched: bool) -> u64 {
    let (sim, _net, caller) = invocation_world(batched);
    caller.set_batching(if batched {
        BatchPolicy::default()
    } else {
        BatchPolicy::disabled()
    });
    let mut samples = Vec::new();
    for _ in 0..9 {
        sim.advance(SimDuration::from_millis(50));
        let t0 = sim.now();
        let r = caller.invoke_batch(
            &sim,
            &[BatchItem::Call(BatchCall::new("bench-lamp", "status"))],
        );
        assert_eq!(r, vec![Ok(Value::Bool(true))]);
        samples.push(sim.now().since(t0).as_micros());
    }
    percentile(&samples, 50.0)
}

fn throughput_report() {
    let mut report = Report::new(
        "E14",
        "multiplexed wire throughput: batched vs unbatched (256 events, 128-call train)",
        &[
            "workload",
            "mode",
            "throughput/sec",
            "wire bytes/unit",
            "frames",
        ],
    );

    let mut speedup_at_64 = 0.0;
    let mut byte_ratio_at_64 = 0.0;
    for fanout in [1usize, 8, 64] {
        let un = run_events(fanout, false);
        let ba = run_events(fanout, true);
        for (mode, r) in [("unbatched", &un), ("batched", &ba)] {
            report.row(vec![
                format!("events fan-out {fanout}"),
                cell(mode),
                format!("{:.0}", r.events_per_sec),
                format!("{:.1}", r.bytes_per_event),
                cell(r.frames),
            ]);
        }
        if fanout == 64 {
            speedup_at_64 = ba.events_per_sec / un.events_per_sec;
            byte_ratio_at_64 = ba.bytes_per_event / un.bytes_per_event;
        }
    }
    assert!(
        speedup_at_64 >= 3.0,
        "batched events/sec must be >= 3x unbatched at fan-out 64, got {speedup_at_64:.2}x"
    );
    assert!(
        byte_ratio_at_64 <= 0.5,
        "batched wire bytes/event must be <= 0.5x unbatched at fan-out 64, got {byte_ratio_at_64:.2}x"
    );

    let (un_cps, un_bpc) = run_invocations(false);
    let (ba_cps, ba_bpc) = run_invocations(true);
    report.row(vec![
        "invocation train".into(),
        "connect-per-call".into(),
        format!("{un_cps:.0}"),
        format!("{un_bpc:.1}"),
        cell("-"),
    ]);
    report.row(vec![
        "invocation train".into(),
        "multiplexed+batched".into(),
        format!("{ba_cps:.0}"),
        format!("{ba_bpc:.1}"),
        cell("-"),
    ]);
    assert!(
        ba_cps > un_cps,
        "the multiplexed wire must not be slower for invocation trains: {ba_cps:.0} vs {un_cps:.0}"
    );

    let un_p50 = idle_latency_p50(false);
    let ba_p50 = idle_latency_p50(true);
    report.row(vec![
        "idle single call".into(),
        "unbatched".into(),
        cell("-"),
        cell("-"),
        fmt_us(un_p50),
    ]);
    report.row(vec![
        "idle single call".into(),
        "batched (idle path)".into(),
        cell("-"),
        cell("-"),
        fmt_us(ba_p50),
    ]);
    assert!(
        ba_p50 as f64 <= un_p50 as f64 * 1.1,
        "idle p50 must stay within 10% of unbatched: {ba_p50}us vs {un_p50}us"
    );

    report.emit_as("BENCH_throughput.json");
}

fn main() {
    throughput_report();
}
