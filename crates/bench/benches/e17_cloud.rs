//! E17: the cloud bridge under WAN-grade hostility (DESIGN.md §14).
//!
//! A fleet of lazily-built homes pushes device registrations and state
//! notifications up a flaky WAN to per-home cloud-edge cells while the
//! item-1 workload generator plays a compressed day: a diurnal
//! activity curve, device churn, and the "everyone home at 6pm" flash
//! crowd. The canonical chaos schedule layers a loss spike, a long
//! partition, and a duplicate+reorder window (jittered per island) on
//! every home's WAN; downward commands are fired *during* the
//! duplicate window to stress the exactly-once machinery.
//!
//! The report asserts the tentpole contract:
//!
//!  * **duplicate-effect count = 0** in every cell — at-least-once
//!    delivery plus the home-side dedup window yields exactly-once
//!    application;
//!  * **delivered-notification ratio ≥ 99 % after heal** with
//!    store-and-forward on, and measurably lower with the outbox
//!    disabled (the ablation);
//!  * **`SIM_THREADS=1` ≡ `SIM_THREADS=4`** bit-for-bit on the
//!    deterministic cells (summary and fleet metrics snapshot).
//!
//! `BENCH_cloud.json` carries only virtual-time (deterministic) cells
//! so the bench gate can hold a band; wall-clock numbers (the 10k-home
//! lazy stand-up) go to stdout.

use bench::workload::{home_plan, install_cloud_plan, DiurnalProfile};
use bench::{cell, Report};
use metaware::{CloudConfig, CloudFleetSummary, HomeFleet, SmartHome};
use simnet::{FaultPlan, SimDuration, SimTime};
use std::time::Instant;

const PLAN_SEED: u64 = 0xE17;
const JITTER_SEED: u64 = 0xC10D;

fn minutes(m: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(m * 60)
}

/// The E17 workload: a 3-hour compressed day with the flash crowd in
/// hour 1, so the canonical chaos window overlaps it.
fn profile() -> DiurnalProfile {
    DiurnalProfile {
        base_per_hour: 30,
        churn_per_day: 4,
        flash_hour: 1,
        flash_burst: 25,
        flash_window: SimDuration::from_secs(10 * 60),
    }
}

/// The canonical WAN chaos schedule (minutes of virtual time): a loss
/// spike, a 20-minute partition, then duplicate+reorder laid over the
/// flash hour. Jittered ±60 s per island when installed.
fn canonical_chaos(home_node: simnet::NodeId, cloud_node: simnet::NodeId) -> FaultPlan {
    FaultPlan::new()
        .loss_spike(minutes(10), minutes(20), 0.10)
        .partition(vec![home_node], vec![cloud_node], minutes(30), minutes(50))
        .duplicate_spike(minutes(58), minutes(80), 0.30)
        .reorder_spike(minutes(58), minutes(80), SimDuration::from_millis(100))
}

struct CellRun {
    summary: CloudFleetSummary,
    /// Deterministic identity string: the summary plus the merged
    /// fleet metrics snapshot (all virtual-time cells).
    identity: String,
}

/// One fleet cell: `homes` lazy cloud homes, the E17 plan installed on
/// each, optional canonical chaos, commands fired mid-duplicate-window,
/// driven 3 h + 5 min of drain.
fn run_cell(homes: usize, threads: usize, cfg: CloudConfig, chaos: bool) -> CellRun {
    let fleet = HomeFleet::build_lazy(SmartHome::builder().threads(threads).cloud(cfg), homes)
        .expect("fleet builds");
    let p = profile();
    for (i, home) in fleet.homes().iter().enumerate() {
        let plan = home_plan(PLAN_SEED, i as u32, 3, &p);
        install_cloud_plan(home, &plan);
    }
    if chaos {
        let b = &fleet.home(0).cloud.as_ref().expect("cloud attached").bridge;
        // Every home's WAN attaches its nodes in the same order, so one
        // home's node ids address them all.
        let plan = canonical_chaos(b.home_node(), b.cloud_node());
        fleet.set_wan_fault_plan_jittered(&plan, JITTER_SEED, SimDuration::from_secs(60));
    }
    // Run into the duplicate+reorder window, then fire a non-idempotent
    // downward command at every home — at-least-once delivery must
    // still apply each exactly once.
    fleet.run_until(minutes(65));
    let backbone = fleet.cloud_backbone();
    let mut command_errors = 0u64;
    for i in 0..backbone.len() {
        if backbone
            .send_command(i, "hall-lamp", "switch", "on")
            .is_err()
        {
            command_errors += 1;
        }
    }
    // Heal and drain: 3 h of plan plus 5 quiet minutes.
    fleet.run_until(minutes(3 * 60 + 5));
    let summary = backbone.summary();
    let identity = format!(
        "{summary:?} command_errors={command_errors} fleet={}",
        fleet.fleet_snapshot().to_json()
    );
    CellRun { summary, identity }
}

fn report_row(report: &mut Report, scenario: &str, homes: usize, s: &CloudFleetSummary) {
    report.row(vec![
        scenario.into(),
        cell(homes),
        cell(s.notifications_raised),
        cell(s.notifications_delivered),
        format!("{:.2}", s.delivered_ratio * 100.0),
        cell(s.notifications_lost),
        cell(s.staleness_p50_us),
        cell(s.staleness_p99_us),
        cell(s.duplicate_effects),
        cell(s.commands_applied),
        cell(s.commands_deduped),
        cell(s.throttled),
        cell(s.reconnects),
    ]);
}

fn cloud_report() {
    let mut report = Report::new(
        "E17",
        "cloud bridge under WAN chaos: store-and-forward, epoch fencing, flash-crowd pushback",
        &[
            "scenario",
            "homes",
            "raised",
            "delivered",
            "delivered %",
            "lost",
            "staleness p50 us",
            "staleness p99 us",
            "duplicate effects",
            "cmds applied",
            "cmds deduped",
            "throttled",
            "reconnects",
        ],
    );

    const HOMES: usize = 100;

    // Canonical cell, twice: the thread count must not change a bit.
    let robust = run_cell(HOMES, 1, CloudConfig::default(), true);
    let robust_t4 = run_cell(HOMES, 4, CloudConfig::default(), true);
    assert_eq!(
        robust.identity, robust_t4.identity,
        "SIM_THREADS=1 and SIM_THREADS=4 must agree bit-for-bit"
    );
    let s = &robust.summary;
    assert_eq!(s.duplicate_effects, 0, "exactly-once violated");
    assert!(
        s.delivered_ratio >= 0.99,
        "delivered ratio {:.4} under canonical chaos must stay >= 99%",
        s.delivered_ratio
    );
    assert!(
        s.reconnects as usize >= 2 * HOMES,
        "partition forced re-handshakes"
    );
    assert!(
        s.commands_deduped > 0,
        "duplicate window exercised the dedup path"
    );
    report_row(&mut report, "WAN chaos, store-and-forward on", HOMES, s);

    // Ablation: same chaos, outbox disabled — every notification raised
    // while disconnected is gone, and the ratio shows it.
    let ablation = run_cell(
        HOMES,
        1,
        CloudConfig {
            store_and_forward: false,
            ..CloudConfig::default()
        },
        true,
    );
    let a = &ablation.summary;
    assert_eq!(a.duplicate_effects, 0);
    assert!(
        a.delivered_ratio < s.delivered_ratio - 0.01,
        "disabling store-and-forward must cost measurably: {:.4} vs {:.4}",
        a.delivered_ratio,
        s.delivered_ratio
    );
    report_row(&mut report, "WAN chaos, store-and-forward OFF", HOMES, a);

    // Flash crowd against a tight global budget: the cloud edge pushes
    // back with retry-after, homes back off, and everything still
    // arrives — later (staleness), never twice (duplicates).
    let throttled = run_cell(
        HOMES,
        1,
        CloudConfig {
            // 1 request/min/home fair share: well under the flash-hour
            // push rate, so the edge must push back.
            global_rate_per_min: 100,
            global_burst: 100,
            ..CloudConfig::default()
        },
        false,
    );
    let t = &throttled.summary;
    assert_eq!(t.duplicate_effects, 0);
    assert!(
        t.throttled > 0,
        "tight budget must push back during the flash"
    );
    assert!(
        t.delivered_ratio >= 0.99,
        "pushback delays, it must not lose"
    );
    report_row(&mut report, "flash crowd, tight admission budget", HOMES, t);

    report.emit_as("BENCH_cloud.json");

    // The 10k-home lazy stand-up: wall-clock only (host-dependent), so
    // it stays out of the gated artefact.
    let t0 = Instant::now();
    let fleet = HomeFleet::build_lazy(
        SmartHome::builder().threads(4).cloud(CloudConfig {
            drain_period: SimDuration::from_secs(1),
            ..CloudConfig::default()
        }),
        10_000,
    )
    .expect("10k-home fleet builds");
    let build_wall = t0.elapsed();
    assert_eq!(fleet.len(), 10_000);
    assert_eq!(fleet.materialized_count(), 0, "no island was built eagerly");
    let t0 = Instant::now();
    fleet.run_until(minutes(5));
    let drive_wall = t0.elapsed();
    let s10k = fleet.cloud_backbone().summary();
    assert_eq!(s10k.duplicate_effects, 0);
    assert!(
        s10k.reconnects >= 10_000,
        "every home handshakes within five minutes"
    );
    println!(
        "\n--- 10k-home lazy stand-up (wall-clock, not gated) ---\n\
         build: {:.2}s   drive 5 virtual minutes: {:.2}s   reconnects: {}   registered rosters: {}",
        build_wall.as_secs_f64(),
        drive_wall.as_secs_f64(),
        s10k.reconnects,
        fleet.cloud_backbone().cell(0).registered_devices().len(),
    );
}

fn main() {
    cloud_report();
}
