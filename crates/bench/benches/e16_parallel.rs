//! E16: conservative parallel execution of a home fleet (DESIGN.md §12).
//!
//! The fleet of independent homes is the embarrassing-parallel case
//! the conservative scheduler is built for: every home is one island,
//! no island ever sends a frame to another, so the lookahead window is
//! unbounded and worker threads never synchronise mid-run. This bench
//! checks the two promises the scheduler makes:
//!
//!  * **identity** — metrics snapshots and scheduler statistics are
//!    bit-for-bit identical at 1, 2 and 4 worker threads;
//!  * **speed** — wall-clock throughput scales with cores. The ≥ 2.5×
//!    assertion at 4 threads only fires when the host actually has
//!    ≥ 4 cores (CI containers often expose 1).
//!
//! A second, coupled topology (two islands exchanging pings over a
//! 5 ms link) exercises the windowed path: windows, events and
//! cross-island sends are deterministic and land in the report.
//!
//! `BENCH_parallel.json` carries only virtual-time (deterministic)
//! cells so the bench gate can hold a tight band; wall-clock numbers
//! go to stdout.

use bench::workload::Workload;
use bench::{cell, Report};
use metaware::{HomeFleet, SmartHome, Vsg};
use simnet::{ParRunStats, ParSim, Sim, SimDuration};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HOMES: usize = 8;
const DRIVE_SECS: u64 = 10;
const CALL_PERIOD: SimDuration = SimDuration::from_millis(20);

struct FleetRun {
    stats: ParRunStats,
    invocations: u64,
    wall: Duration,
    snapshots: Vec<String>,
}

/// Arms one seeded call driver per home: every 20 ms of virtual time
/// the home plays the next call of its own workload stream.
fn arm_drivers(fleet: &HomeFleet, invocations: &Arc<AtomicU64>) {
    for (i, home) in fleet.homes().iter().enumerate() {
        let mut workload = Workload::new(1000 + i as u64);
        let home_gw: Vec<(metaware::Middleware, Vsg)> = [
            metaware::Middleware::Jini,
            metaware::Middleware::Havi,
            metaware::Middleware::X10,
            metaware::Middleware::Mail,
        ]
        .iter()
        .filter_map(|&mw| home.gateway(mw).cloned().map(|v| (mw, v)))
        .collect();
        let count = invocations.clone();
        home.sim.every(CALL_PERIOD, move |sim| {
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
    }
}

/// Builds the fleet, drives `DRIVE_SECS` of virtual time, and returns
/// scheduler stats plus every gateway snapshot (island-tagged JSON).
fn run_fleet(threads: usize) -> FleetRun {
    let fleet = HomeFleet::build(SmartHome::builder().threads(threads), HOMES).unwrap();
    let invocations = Arc::new(AtomicU64::new(0));
    arm_drivers(&fleet, &invocations);
    let t0 = Instant::now();
    let stats = fleet.run_for(SimDuration::from_secs(DRIVE_SECS));
    let wall = t0.elapsed();
    FleetRun {
        stats,
        invocations: invocations.load(Ordering::Relaxed),
        wall,
        snapshots: fleet
            .metrics_snapshots()
            .iter()
            .map(|s| s.to_json())
            .collect(),
    }
}

/// Two coupled islands ping-ponging over a 5 ms link: the windowed,
/// deterministic-merge path. Returns the run stats.
fn run_coupled() -> ParRunStats {
    let mut par = ParSim::new(2);
    let a = par.add_island(Sim::with_island(7, 0));
    let b = par.add_island(Sim::with_island(7, 1));
    par.couple(a, b, SimDuration::from_millis(5));
    let to_b = par.courier(a);
    let to_a = par.courier(b);
    // Island A fires a local tick every 1 ms and relays every 10th
    // tick to B; B echoes straight back.
    let tick = Arc::new(AtomicU64::new(0));
    let t = tick.clone();
    par.islands()[a].every(SimDuration::from_millis(1), move |_| {
        t.fetch_add(1, Ordering::Relaxed);
    });
    for k in 0..20u64 {
        let to_a = to_a.clone();
        to_b.send(b, SimDuration::from_millis(5 + k), move |sim: &Sim| {
            to_a.send(a, SimDuration::from_millis(5), |_| {});
            let _ = sim.now();
        });
    }
    par.run_until(simnet::SimTime::ZERO + SimDuration::from_secs(1))
}

fn parallel_report() {
    let runs: Vec<(usize, FleetRun)> = [1usize, 2, 4].iter().map(|&t| (t, run_fleet(t))).collect();

    // Identity: every deterministic artefact is independent of the
    // worker thread count.
    let (_, first) = &runs[0];
    for (threads, run) in &runs[1..] {
        assert_eq!(
            first.snapshots, run.snapshots,
            "metrics snapshots must be bit-for-bit identical at {threads} threads"
        );
        assert_eq!(
            (
                first.stats.windows,
                first.stats.events,
                first.stats.cross_sends
            ),
            (run.stats.windows, run.stats.events, run.stats.cross_sends),
            "scheduler statistics must be identical at {threads} threads"
        );
        assert_eq!(first.invocations, run.invocations);
    }

    let mut report = Report::new(
        "E16",
        "conservative parallel fleet, threads swept 1/2/4: deterministic cells (wall-clock on stdout)",
        &[
            "topology",
            "islands",
            "windows",
            "events",
            "cross-island sends",
            "invocations",
            "inv/virtual-sec",
        ],
    );
    report.row(vec![
        "independent homes".into(),
        cell(HOMES),
        cell(first.stats.windows),
        cell(first.stats.events),
        cell(first.stats.cross_sends),
        cell(first.invocations),
        format!("{:.1}", first.invocations as f64 / DRIVE_SECS as f64),
    ]);
    let coupled = run_coupled();
    report.row(vec![
        "coupled ping-pong (5ms lookahead)".into(),
        cell(2),
        cell(coupled.windows),
        cell(coupled.events),
        cell(coupled.cross_sends),
        cell(0),
        cell("0.0"),
    ]);
    report.emit_as("BENCH_parallel.json");

    // Wall-clock scaling — printed, never gated: it depends on the
    // host. The speedup assertion needs real cores to mean anything.
    println!("\n--- wall-clock scaling ({HOMES} homes, {DRIVE_SECS}s virtual) ---");
    let wall1 = runs[0].1.wall.as_secs_f64();
    for (threads, run) in &runs {
        let wall = run.wall.as_secs_f64();
        println!(
            "threads={threads}: {:.0} invokes/sec wall, speedup {:.2}x",
            run.invocations as f64 / wall,
            wall1 / wall
        );
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores >= 4 {
        let wall4 = runs[2].1.wall.as_secs_f64();
        let speedup = wall1 / wall4;
        assert!(
            speedup >= 2.5,
            "4 threads must give >= 2.5x on independent homes (got {speedup:.2}x)"
        );
    } else {
        println!("[speedup assertion skipped: host exposes {cores} core(s)]");
    }
}

fn main() {
    parallel_report();
}
