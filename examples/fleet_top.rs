//! Fleet top: the observability plane's dashboard.
//!
//! Builds a fleet of homes, drives cross-middleware traffic on the
//! parallel scheduler, then renders what an operator would watch at
//! fleet scale — all from the merged snapshot and the flight
//! recorder, never from raw samples:
//!
//! * a per-layer latency table (every `obs::LAYERS` entry: app body,
//!   PCM conversion, VSR lookups, VSG wire, composite steps) with
//!   counts, p50, p99 and bucket exemplars pointing back at concrete
//!   traces,
//! * fleet-wide invocation/error/cache counters,
//! * the slowest and error traces the flight recorder kept,
//! * per-island profiler counts from the conservative scheduler.
//!
//! Run with: `cargo run --example fleet_top`
//! Knobs: `FLEET_HOMES` (default 6), `SIM_THREADS` (default 1).

use metaware::obs::LAYERS;
use metaware::{HomeFleet, Middleware, SamplePolicy, SmartHome};
use simnet::SimDuration;
use soap::Value;

fn main() {
    let homes: usize = std::env::var("FLEET_HOMES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);
    // Two VSR replicas arm the anti-entropy timer, so the parallel
    // scheduler has periodic work and the profiler has windows to
    // attribute.
    let fleet = HomeFleet::build(
        SmartHome::builder()
            .seed(0xF1EE7)
            .upnp(true)
            .vsr_replicas(2),
        homes,
    )
    .expect("fleet assembles");
    fleet.set_tracing(true);
    fleet.set_sampling(SamplePolicy {
        head_per_10k: 5_000,
        top_slow: 3,
        capacity: 128,
    });
    eprintln!(
        "fleet_top: {} homes on {} worker thread(s)",
        fleet.len(),
        fleet.threads()
    );

    // A morning's traffic: every home works its appliances across all
    // four middleware islands plus the mail service.
    for home in fleet.homes() {
        for _ in 0..4 {
            home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
                .unwrap();
            home.invoke_from(Middleware::X10, "laserdisc", "status", &[])
                .unwrap();
            home.invoke_from(Middleware::Havi, "fridge", "temperature", &[])
                .unwrap();
            home.invoke_from(
                Middleware::Jini,
                "mailer",
                "send",
                &[
                    ("to".into(), Value::Str("owner@example.org".into())),
                    ("subject".into(), Value::Str("fleet_top".into())),
                    ("body".into(), Value::Str("morning report".into())),
                ],
            )
            .unwrap();
            // An error row: a service nobody exported.
            let _ = home.invoke_from(Middleware::Jini, "toaster", "pop", &[]);
        }
    }
    fleet.run_for(SimDuration::from_secs(5));
    fleet.harvest_traces();

    let snap = fleet.fleet_snapshot();
    let reg = &snap.registry;

    println!("== fleet of {} homes — merged snapshot ==", fleet.len());
    println!(
        "invocations {}   errors {}   retries {}   cache hits {} / misses {}",
        reg.invocations,
        reg.errors.iter().map(|(_, n)| n).sum::<u64>(),
        reg.retries,
        snap.cache.hits,
        snap.cache.misses
    );
    println!();
    println!("layer   calls      p50        p99        mean       exemplar");
    let overall = &reg.latency;
    let mut rows: Vec<(&str, &metaware::HistSketch)> = vec![("e2e", overall)];
    for layer in LAYERS {
        rows.push((layer.label(), reg.layer(layer)));
    }
    for (label, sketch) in rows {
        // The exemplar of the p99 bucket: a concrete kept trace an
        // operator can pull from the events export.
        let p99 = sketch.quantile_us(0.99);
        let exemplar = sketch
            .exemplar(metaware::obs::bucket_of(p99))
            .map(|t| t.to_string())
            .unwrap_or_else(|| "-".to_owned());
        println!(
            "{label:<7} {:<10} {:<10} {:<10} {:<10.1} {exemplar}",
            sketch.count,
            sketch.quantile_us(0.5),
            p99,
            sketch.mean_us()
        );
    }

    println!();
    println!("== flight recorder ==");
    let stats = fleet
        .homes()
        .iter()
        .map(|h| h.flight_stats())
        .fold((0, 0, 0), |acc, s| {
            (acc.0 + s.seen, acc.1 + s.kept, acc.2 + s.sampled_out)
        });
    println!(
        "seen {}   kept {}   sampled out {}",
        stats.0, stats.1, stats.2
    );
    let mut kept = fleet.drain_flight();
    // Slowest first; ties broken by trace id so the order is total.
    kept.sort_by_key(|k| (std::cmp::Reverse(k.elapsed_us()), k.trace));
    for k in kept.iter().take(8) {
        println!(
            "  [{}] {} {} {}us{}",
            k.reason.label(),
            k.trace,
            k.root_name(),
            k.elapsed_us(),
            if k.has_error() { " (error)" } else { "" }
        );
    }

    println!();
    println!("== scheduler profile ==");
    print!("{}", fleet.profile_lines());
    eprintln!("wall profile: {}", fleet.par().profile_json());
}
