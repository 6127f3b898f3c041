//! Chaos drill: script a fault schedule against the smart home's
//! backbone and watch the resilience layer ride it out — retries with
//! backoff bridge loss spikes, the per-gateway circuit breaker trips
//! and re-closes around a gateway crash, and degraded mode keeps stale
//! routes serving while the VSR is dark.
//!
//! Run with: `cargo run --example chaos_drill`
//! Everything runs on virtual time from one seed: rerun and compare.

use metaware::{HopKind, Middleware, ResiliencePolicy, SmartHome};
use simnet::{FaultPlan, SimDuration};

fn main() {
    let home = SmartHome::builder()
        .seed(13)
        .build()
        .expect("home assembles");
    home.set_resilience(ResiliencePolicy {
        breaker_open_window: SimDuration::from_millis(500),
        ..ResiliencePolicy::default()
    });
    home.set_tracing(true);

    // Warm the cross-island route: Jini island -> X10 hall lamp.
    home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
        .unwrap();
    let _ = home.take_spans();

    // The drill schedule, anchored at "now" on the virtual clock:
    //   0.2s-0.5s   backbone loss spike (90% of frames eaten)
    //   1.0s-2.2s   the X10 gateway crashes and restarts
    //   3.0s-3.6s   backbone partition between the two gateways
    let t0 = home.sim.now();
    let at = |ms: u64| t0 + SimDuration::from_millis(ms);
    let jini_gw = home.jini.as_ref().unwrap().vsg.clone();
    let x10_gw = home.x10.as_ref().unwrap().vsg.clone();
    home.backbone.set_fault_plan(
        FaultPlan::new()
            .loss_spike(at(200), at(500), 0.9)
            .node_down(x10_gw.node(), at(1_000), at(2_200))
            .partition(
                vec![jini_gw.node()],
                vec![x10_gw.node()],
                at(3_000),
                at(3_600),
            ),
    );

    // Poll the lamp through the whole schedule.
    println!("polling hall-lamp.status through the fault schedule:");
    for i in 0..10u64 {
        let target = at(i * 450);
        if home.sim.now() < target {
            home.sim.advance(target.since(home.sim.now()));
        }
        let t = home.sim.now().since(t0);
        match home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[]) {
            Ok(v) => println!("  [{t}] ok: {v}"),
            Err(e) => println!("  [{t}] ERR: {e}"),
        }
    }

    // What the resilience layer did, from its own telemetry.
    let snap = jini_gw.metrics().snapshot();
    println!("\njini-gw resilience counters:");
    println!("  retries:             {}", snap.retries);
    println!("  breaker transitions: {}", snap.breaker_transitions);
    println!("  degraded serves:     {}", snap.degraded_serves);
    println!(
        "  breaker for x10-gw:  {}",
        jini_gw.breaker_state(x10_gw.node())
    );

    println!("\nresilience spans recorded:");
    for span in home.take_spans() {
        if span.kind == HopKind::Resilience {
            println!("  [{}] {}", span.start.since(t0), span.name);
        }
    }

    println!(
        "\nvirtual time elapsed: {} (deterministic — rerun and compare)",
        home.sim.now()
    );
}
