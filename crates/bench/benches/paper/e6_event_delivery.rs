//! E6 (§4.2 / §5): the asynchronous-notification problem.
//!
//! "HTTP is inherently a client/server protocol, which does not map well
//! to asynchronous notification scenarios." We deliver the same X10
//! motion event to the HAVi island three ways and measure delivery
//! latency and carrier cost:
//!
//!  * HTTP polling at several periods (what the SOAP prototype can do),
//!  * SIP-like push (what §5 proposes),
//!  * the native path inside one island (lower bound).
//!
//! Expected shape: poll latency ≈ period/2 with idle traffic growing as
//! 1/period; push latency ≈ the PCM's local sampling delay with exactly
//! one message per event.

use bench::{cell, fmt_us, Report};
use metaware::{PollingBridge, SipPublisher, SipSubscriber, SmartHome};
use parking_lot::Mutex;
use simnet::SimDuration;
use soap::Value;
use std::sync::Arc;

const EVENTS: usize = 8;
const GAP: SimDuration = SimDuration::from_secs(30);

/// Runs one strategy over `EVENTS` motion triggers; returns
/// (mean latency us, carrier messages, idle messages/hour).
fn run_polling(period: SimDuration) -> (u64, u64, u64) {
    let home = SmartHome::builder().build().unwrap();
    let havi_gw = home.havi.as_ref().unwrap().vsg.clone();
    let deliveries: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let d2 = deliveries.clone();
    let bridge = PollingBridge::start(&havi_gw, "hall-motion", period, move |sim, e| {
        if e.field("active") == Some(&Value::Bool(true)) {
            d2.lock().push(sim.now().as_micros());
        }
    });

    let mut latencies = Vec::new();
    for _ in 0..EVENTS {
        home.sim.run_for(GAP);
        let fired = home.sim.now().as_micros();
        home.x10.as_ref().unwrap().motion.trigger();
        home.sim.run_for(period + SimDuration::from_secs(1));
        if let Some(at) = deliveries.lock().last() {
            latencies.push(at.saturating_sub(fired));
        }
        deliveries.lock().clear();
    }
    let stats = bridge.stats();
    bridge.stop();
    let mean = latencies.iter().sum::<u64>() / latencies.len().max(1) as u64;
    let hours = home.sim.now().as_secs_f64() / 3_600.0;
    let idle_per_hour = ((stats.carrier_messages - stats.events_delivered) as f64 / hours) as u64;
    (mean, stats.carrier_messages, idle_per_hour)
}

fn run_push(sampling: SimDuration) -> (u64, u64) {
    let home = SmartHome::builder().build().unwrap();
    let x10 = home.x10.as_ref().unwrap();
    let havi_gw = home.havi.as_ref().unwrap().vsg.clone();
    let publisher = SipPublisher::new(&home.backbone, x10.vsg.node());
    publisher.subscribe(havi_gw.node(), "%");
    let p2 = publisher.clone();
    x10.pcm.set_sensor_hook(move |_, svc, e| p2.publish(svc, e));
    let _pump = x10.pcm.start_polling(sampling);

    let deliveries: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let d2 = deliveries.clone();
    let _sub = SipSubscriber::install(&home.backbone, havi_gw.node(), move |sim, _, e| {
        if e.field("active") == Some(&Value::Bool(true)) {
            d2.lock().push(sim.now().as_micros());
        }
    });

    let mut latencies = Vec::new();
    for _ in 0..EVENTS {
        home.sim.run_for(GAP);
        let fired = home.sim.now().as_micros();
        x10.motion.trigger();
        home.sim.run_for(SimDuration::from_secs(2));
        if let Some(at) = deliveries.lock().last() {
            latencies.push(at.saturating_sub(fired));
        }
        deliveries.lock().clear();
    }
    let mean = latencies.iter().sum::<u64>() / latencies.len().max(1) as u64;
    (mean, publisher.stats().carrier_messages)
}

/// Native lower bound: an X10 receiver on the same powerline.
fn run_native() -> u64 {
    let home = SmartHome::builder().build().unwrap();
    let x10 = home.x10.as_ref().unwrap();
    let watcher = x10.powerline.attach("native-watcher");
    let seen: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
    let s2 = seen.clone();
    x10::install_receiver(
        &x10.powerline,
        watcher,
        metaware::house('C'),
        move |sim, f, _, _| {
            if f == x10::Function::On {
                s2.lock().get_or_insert(sim.now().as_micros());
            }
        },
    );
    let fired = home.sim.now().as_micros();
    x10.motion.trigger();
    let delivered_at = *seen.lock();
    delivered_at
        .expect("native receiver heard the sensor")
        .saturating_sub(fired)
}

pub fn run() -> Vec<Report> {
    let mut report = Report::new(
        "E6",
        "motion-sensor -> HAVi camera event delivery (8 events, 30s apart)",
        &["strategy", "mean latency", "carrier msgs", "idle msgs/hour"],
    );
    for period_s in [1u64, 2, 5, 10, 30] {
        let (mean, carriers, idle_rate) = run_polling(SimDuration::from_secs(period_s));
        report.row(vec![
            format!("HTTP poll @{period_s}s"),
            fmt_us(mean),
            cell(carriers),
            cell(idle_rate),
        ]);
    }
    let (mean, carriers) = run_push(SimDuration::from_millis(100));
    report.row(vec![
        "SIP push (100ms sampling)".into(),
        fmt_us(mean),
        cell(carriers),
        cell(0),
    ]);
    let native = run_native();
    report.row(vec![
        "native X10 receiver".into(),
        fmt_us(native),
        cell(0),
        cell(0),
    ]);
    report.print();
    vec![report]
}
