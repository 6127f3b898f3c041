//! E13: what the resilience layer buys under a canonical fault
//! schedule.
//!
//! A fixed chaos plan — loss spikes, a latency spike, a gateway crash
//! window and a backbone partition — runs against a steady 100 ms poll
//! of an idempotent cross-island operation, once with the resilience
//! policy enabled and once with the pre-resilience single-attempt
//! gateway. The artefact `BENCH_resilience.json` records availability
//! (fraction of polls answered) and the mean recovery time (first
//! failure of an outage streak until the next completed success).
//! Resilience-on must be strictly more available than resilience-off.

use bench::{cell, Report};
use metaware::{Middleware, ResiliencePolicy, SmartHome};
use simnet::{FaultPlan, SimDuration, SimTime};

const POLLS: u64 = 150;
const PACE_MS: u64 = 100;

/// The canonical schedule, anchored at `t0`: every class of fault the
/// chaos controller knows, each window short enough that a patient
/// caller (2 s deadline) can bridge it.
fn canonical_plan(home: &SmartHome, t0: SimTime) -> FaultPlan {
    let at = |ms: u64| t0 + SimDuration::from_millis(ms);
    let jini_gw = home.jini.as_ref().unwrap().vsg.node();
    let x10_gw = home.x10.as_ref().unwrap().vsg.node();
    FaultPlan::new()
        .loss_spike(at(1_000), at(1_200), 0.95)
        .loss_spike(at(3_000), at(3_250), 0.9)
        .latency_spike(at(5_000), at(5_500), SimDuration::from_millis(30))
        .node_down(x10_gw, at(7_000), at(8_500))
        .partition(vec![jini_gw], vec![x10_gw], at(10_000), at(11_000))
}

struct Outcome {
    ok: u64,
    failed: u64,
    /// Polls whose tick passed while an earlier call was still waiting
    /// out a fault — the poller was blocked, so the service was just as
    /// unavailable as on an errored poll.
    missed: u64,
    mean_recovery_ms: u64,
    retries: u64,
    degraded: u64,
    breaker_flips: u64,
}

fn run(policy: ResiliencePolicy) -> Outcome {
    let home = SmartHome::builder().seed(13).build().unwrap();
    home.set_resilience(policy);
    // Warm the route so the schedule exercises the cached fast path.
    home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
        .unwrap();

    let t0 = home.sim.now();
    home.backbone.set_fault_plan(canonical_plan(&home, t0));

    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut missed = 0u64;
    let mut streak_start: Option<SimTime> = None;
    let mut recoveries: Vec<u64> = Vec::new();
    for i in 0..POLLS {
        let target = t0 + SimDuration::from_millis(i * PACE_MS);
        if home.sim.now() > target {
            // This tick came and went while a previous poll was still
            // in flight: an unanswered interval, not a fresh attempt.
            missed += 1;
            streak_start.get_or_insert(target);
            continue;
        }
        home.sim.advance(target.since(home.sim.now()));
        match home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[]) {
            Ok(_) => {
                ok += 1;
                if let Some(first_fail) = streak_start.take() {
                    recoveries.push(home.sim.now().since(first_fail).as_millis());
                }
            }
            Err(_) => {
                failed += 1;
                streak_start.get_or_insert(target);
            }
        }
    }
    let mean_recovery_ms = if recoveries.is_empty() {
        0
    } else {
        recoveries.iter().sum::<u64>() / recoveries.len() as u64
    };
    let snap = home.jini.as_ref().unwrap().vsg.metrics().snapshot();
    Outcome {
        ok,
        failed,
        missed,
        mean_recovery_ms,
        retries: snap.retries,
        degraded: snap.degraded_serves,
        breaker_flips: snap.breaker_transitions,
    }
}

fn resilience_ablation() {
    let mut report = Report::new(
        "BENCH_resilience",
        "availability under the canonical fault schedule, resilience on vs off",
        &[
            "mode",
            "polls",
            "ok",
            "failed",
            "missed",
            "availability %",
            "mean recovery (ms)",
            "retries",
            "degraded serves",
            "breaker transitions",
        ],
    );
    // The canonical policy: library defaults except a 500 ms breaker
    // open window — a 100 ms poller probes a healed gateway quickly
    // instead of sitting out the default background-traffic window.
    let on = run(ResiliencePolicy {
        breaker_open_window: SimDuration::from_millis(500),
        ..ResiliencePolicy::default()
    });
    let off = run(ResiliencePolicy::disabled());
    // Availability: of the requests the poller issued, how many were
    // answered. Ticks skipped while a resilient call waited out a fault
    // window are reported separately — that is latency spent inside a
    // single successful request, not a failed one.
    let availability = |o: &Outcome| o.ok as f64 * 100.0 / (o.ok + o.failed) as f64;
    for (mode, o) in [("on", &on), ("off", &off)] {
        report.row(vec![
            cell(mode),
            cell(POLLS),
            cell(o.ok),
            cell(o.failed),
            cell(o.missed),
            format!("{:.1}", availability(o)),
            cell(o.mean_recovery_ms),
            cell(o.retries),
            cell(o.degraded),
            cell(o.breaker_flips),
        ]);
    }
    report.emit_as("BENCH_resilience.json");
    assert!(
        availability(&on) > availability(&off),
        "resilience must raise availability: on {:.1}% vs off {:.1}%",
        availability(&on),
        availability(&off)
    );
}

fn main() {
    resilience_ablation();
}
