//! E12-obs: what observability costs.
//!
//! The tracing layer promises zero allocation overhead while disabled
//! (the default) — the warm remote-call hot path must stay within noise
//! of the pre-tracing build. Enabled, the costs are explicit and
//! bounded: span records on each gateway plus the trace-context header
//! riding the wire; head sampling then bounds what the flight recorder
//! *retains* without touching the wire at all. The last two rows pit
//! the mergeable sketch against exact nearest-rank quantiles over the
//! same samples. All JSON cells are deterministic (virtual time, byte
//! counts, kept-trace counts, quantiles); wall clock goes to stdout
//! only, so `bench_gate.py` never sees scheduler noise.

use bench::{cell, fmt_us, Report};
use metaware::{HistSketch, Middleware, SamplePolicy, SmartHome};
use std::time::Instant;

fn obs_overhead_ablation() {
    let mut report = Report::new(
        "BENCH_obs",
        "observability overhead: warm cross-island call, tracing off/on/sampled; sketch vs exact",
        &[
            "mode",
            "sim time/call",
            "backbone bytes/call",
            "traces kept",
            "p50 us",
            "p99 us",
        ],
    );
    let calls = 200u64;
    // (head rate per 10k or None=tracing off, row label)
    let modes: [(Option<u32>, &str); 3] = [
        (None, "untraced"),
        (Some(10_000), "traced"),
        (Some(100), "sampled-1%"),
    ];
    let mut exact_latencies: Vec<u64> = Vec::new();
    for (head, label) in modes {
        let home = SmartHome::builder().build().unwrap();
        home.set_tracing(head.is_some());
        if let Some(per_10k) = head {
            home.set_sampling(SamplePolicy {
                head_per_10k: per_10k,
                top_slow: 4,
                capacity: 1024,
            });
        }
        // Warm the route cache so every measured call rides the fast path.
        home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
            .unwrap();
        home.take_spans();

        let t0 = home.sim.now();
        let b0 = home.backbone.with_stats(|s| s.total().bytes);
        let m0 = home.merged_snapshot().registry.latency;
        let wall0 = Instant::now();
        for _ in 0..calls {
            let c0 = home.sim.now();
            home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
                .unwrap();
            if label == "traced" {
                exact_latencies.push((home.sim.now() - c0).as_micros());
            }
        }
        let wall_ns = wall0.elapsed().as_nanos() as u64 / calls;
        let sim_us = (home.sim.now() - t0).as_micros() / calls;
        let bytes = (home.backbone.with_stats(|s| s.total().bytes) - b0) / calls;
        home.harvest_traces();
        let kept = home.drain_flight().len() as u64;
        // Quantiles come straight off the always-on latency sketch
        // (the warm-up call is in there too — same service, same
        // bucket, quantiles unmoved).
        let sketch = home.merged_snapshot().registry.latency;
        assert_eq!(sketch.count - m0.count, calls, "one sample per call");
        report.row(vec![
            cell(label),
            fmt_us(sim_us),
            cell(bytes),
            cell(kept),
            cell(sketch.quantile_us(0.5)),
            cell(sketch.quantile_us(0.99)),
        ]);
        println!("e12 {label}: {wall_ns}ns wall/call (not gated)");
    }

    // Sketch vs exact over the identical sample set: the sketch's
    // nearest-rank answer may only round up within its bucket.
    exact_latencies.sort_unstable();
    let exact_q = |q: f64| {
        let rank = ((q * exact_latencies.len() as f64).ceil() as usize).max(1);
        exact_latencies[rank - 1]
    };
    let mut sketch = HistSketch::new();
    for &us in &exact_latencies {
        sketch.record(us);
    }
    for (label, p50, p99) in [
        ("exact", exact_q(0.5), exact_q(0.99)),
        ("sketch", sketch.quantile_us(0.5), sketch.quantile_us(0.99)),
    ] {
        report.row(vec![
            cell(label),
            cell("-"),
            cell("-"),
            cell("-"),
            cell(p50),
            cell(p99),
        ]);
    }
    assert!(sketch.quantile_us(0.99) >= exact_q(0.99));
    assert!(sketch.quantile_us(0.99) <= exact_q(0.99).saturating_mul(2).max(1));
    report.emit_as("BENCH_obs.json");
}

fn main() {
    obs_overhead_ablation();
}
