//! E12: a day in the life of the federation.
//!
//! Not a paper figure — the capacity check the paper's one-room demo
//! never needed: a seeded, home-plausible mix of cross-island reads and
//! writes replayed through the framework, reporting latency percentiles
//! per call class. Expected shape: reads/writes that stay on their
//! island or cross only the backbone sit at sub-3ms; anything touching
//! the powerline pays ~0.8s; nothing fails. The table goes to
//! `BENCH_saturation.json`, which `ci.sh --stage bench` gates.

use bench::workload::{replay, Workload};
use bench::{cell, fmt_us, percentile, Report};
use metaware::SmartHome;

const CALLS: usize = 400;

fn saturation_table() {
    let home = SmartHome::builder().build().unwrap();
    let mut gen = Workload::new(0x1CDC_2002);
    let trace = gen.trace(CALLS);
    let latencies = replay(&home, &trace);

    // Group latencies by target service.
    let mut by_service: std::collections::BTreeMap<&str, Vec<u64>> = Default::default();
    for (call, lat) in trace.iter().zip(&latencies) {
        by_service.entry(call.service).or_default().push(*lat);
    }

    let mut report = Report::new(
        "E12",
        &format!("{CALLS}-call mixed workload: latency percentiles by service"),
        &["service", "calls", "p50", "p99", "max"],
    );
    for (service, lats) in &by_service {
        report.row(vec![
            cell(service),
            cell(lats.len()),
            fmt_us(percentile(lats, 50.0)),
            fmt_us(percentile(lats, 99.0)),
            fmt_us(*lats.iter().max().unwrap()),
        ]);
    }
    report.row(vec![
        "ALL".into(),
        cell(latencies.len()),
        fmt_us(percentile(&latencies, 50.0)),
        fmt_us(percentile(&latencies, 99.0)),
        fmt_us(*latencies.iter().max().unwrap()),
    ]);
    report.emit_as("BENCH_saturation.json");
    println!(
        "virtual time for the whole session: {} ({:.2} calls/s sustained)",
        home.sim.now(),
        CALLS as f64 / home.sim.now().as_secs_f64()
    );
}

fn main() {
    saturation_table();
}
