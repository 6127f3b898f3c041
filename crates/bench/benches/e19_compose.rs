//! E19: composite pipelines as first-class VSG citizens (DESIGN.md §16).
//!
//! A k-step pipeline over stage services spread round-robin across
//! three islands is run two ways from a fourth, service-less client
//! gateway: **engine** (the pipeline is registered in the VSR and the
//! island hosting the first hop drives every step) and
//! **client-driven** (the client invokes each step itself). The claim
//! under test is the composition tentpole:
//!
//!  * **round trips** — the 8-step cross-island composite costs the
//!    client ≤ 2 round trips where the client-driven run costs 8;
//!  * **saga under chaos** — with the island hosting stage 2 down,
//!    a depth-4 pipeline never double-executes a non-idempotent step
//!    (`double exec = 0`) and runs every expected compensator exactly
//!    once (`comps run == comps expected`);
//!  * **thread identity** — a 2-home fleet driving composites through
//!    a loss spike fingerprints bit-for-bit at 1 and 4 worker threads
//!    (`SIM_THREADS=1 ≡ SIM_THREADS=4`).
//!
//! `BENCH_compose.json` carries only virtual-time (deterministic)
//! cells so the bench gate can hold a band.

use bench::{cell, Report};
use metaware::{
    Binding, CompositeSpec, HomeFleet, Layer, Middleware, OpSig, ResiliencePolicy,
    ServiceInterface, SmartHome, Soap11, StepSpec, TypeTag, VirtualService, Vsg, VsgProtocol, Vsr,
};
use parking_lot::Mutex;
use simnet::{FaultPlan, Network, Sim, SimDuration};
use soap::Value;
use std::sync::Arc;

const MAX_STAGES: usize = 8;
const ISLANDS: usize = 3;
const DEPTHS: [usize; 4] = [1, 2, 4, 8];
const SEED: u64 = 0xE19;

struct PipeWorld {
    sim: Sim,
    net: Network,
    /// The service-less gateway the measured client calls from.
    client: Vsg,
    /// Island gateways; `islands[i % ISLANDS]` hosts `stage-i`.
    islands: Vec<Vsg>,
    /// Forward executions of the non-idempotent `fire`, per stage.
    fired: Arc<Mutex<Vec<u64>>>,
    /// Compensator executions of `unfire`, per stage.
    unfired: Arc<Mutex<Vec<u64>>>,
}

fn stage_interface() -> ServiceInterface {
    ServiceInterface::new("Stage")
        .op(OpSig::new("fire")
            .param("x", TypeTag::Int)
            .returns(TypeTag::Int))
        .op(OpSig::new("unfire"))
        .op(OpSig::new("probe").returns(TypeTag::Bool).idempotent())
}

fn build_world() -> PipeWorld {
    let sim = Sim::new(SEED);
    let net = Network::ethernet(&sim);
    let vsr = Vsr::start(&net);
    let protocol: Arc<dyn VsgProtocol> = Arc::new(Soap11::new());
    let islands: Vec<Vsg> = (0..ISLANDS)
        .map(|i| {
            Vsg::start(&net, &format!("island-{i}"), protocol.clone(), vsr.node())
                .expect("island gateway starts")
        })
        .collect();
    let client = Vsg::start(&net, "client-gw", protocol, vsr.node()).expect("client starts");

    let fired = Arc::new(Mutex::new(vec![0u64; MAX_STAGES]));
    let unfired = Arc::new(Mutex::new(vec![0u64; MAX_STAGES]));
    for i in 0..MAX_STAGES {
        let (f, u) = (fired.clone(), unfired.clone());
        let gw = &islands[i % ISLANDS];
        gw.export(
            VirtualService::new(
                format!("stage-{i}"),
                stage_interface(),
                Middleware::Jini,
                gw.name(),
            ),
            move |_: &Sim, op: &str, args: &[(String, Value)]| match op {
                "fire" => {
                    f.lock()[i] += 1;
                    let x = args
                        .iter()
                        .find(|(k, _)| k == "x")
                        .and_then(|(_, v)| v.as_int())
                        .unwrap_or(0);
                    Ok(Value::Int(x + 1))
                }
                "unfire" => {
                    u.lock()[i] += 1;
                    Ok(Value::Null)
                }
                _ => Ok(Value::Bool(true)),
            },
        )
        .expect("stage exports");
    }
    PipeWorld {
        sim,
        net,
        client,
        islands,
        fired,
        unfired,
    }
}

/// The depth-k pipeline: stage 0 fires on a literal, each later stage
/// on the previous stage's output, every stage compensated by `unfire`.
fn pipe_spec(depth: usize) -> CompositeSpec {
    let mut spec = CompositeSpec::new(format!("pipe-{depth}"));
    for i in 0..depth {
        let binding = if i == 0 {
            Binding::Literal(Value::Int(0))
        } else {
            Binding::Step(i - 1)
        };
        spec = spec.step(
            StepSpec::new(format!("stage-{i}"), "fire")
                .arg("x", binding)
                .compensate("unfire", vec![]),
        );
    }
    spec
}

/// Warms every route the cell will use, so the measured deltas are
/// steady-state wire traffic, not first-call VSR resolution.
fn warm_routes(world: &PipeWorld, depth: usize, engine: bool) {
    for i in 0..depth {
        world
            .client
            .invoke(&world.sim, &format!("stage-{i}"), "probe", &[])
            .expect("warm client route");
        if engine {
            world.islands[0]
                .invoke(&world.sim, &format!("stage-{i}"), "probe", &[])
                .expect("warm host route");
        }
    }
    if engine {
        world
            .client
            .invoke(&world.sim, &format!("pipe-{depth}"), "run", &[])
            .expect("warm composite route");
    }
}

struct CellMeasure {
    client_rts: u64,
    backbone_frames: u64,
    backbone_bytes: u64,
    virtual_us: u64,
}

fn measure(world: &PipeWorld, run: impl FnOnce()) -> CellMeasure {
    let rt0 = world
        .client
        .metrics_snapshot()
        .registry
        .layer(Layer::Wire)
        .count;
    let (f0, b0) = world
        .net
        .with_stats(|s| (s.total().frames, s.total().bytes));
    let t0 = world.sim.now();
    run();
    let rt1 = world
        .client
        .metrics_snapshot()
        .registry
        .layer(Layer::Wire)
        .count;
    let (f1, b1) = world
        .net
        .with_stats(|s| (s.total().frames, s.total().bytes));
    CellMeasure {
        client_rts: rt1 - rt0,
        backbone_frames: f1 - f0,
        backbone_bytes: b1 - b0,
        virtual_us: (world.sim.now() - t0).as_micros(),
    }
}

fn row(
    report: &mut Report,
    scenario: &str,
    depth: usize,
    m: &CellMeasure,
    double_exec: u64,
    comps_run: u64,
    comps_expected: u64,
) {
    report.row(vec![
        scenario.into(),
        cell(depth),
        cell(m.client_rts),
        cell(m.backbone_frames),
        cell(m.backbone_bytes),
        cell(m.virtual_us),
        cell(double_exec),
        cell(comps_run),
        cell(comps_expected),
    ]);
}

/// One engine cell: fresh world, pipeline registered on the island
/// hosting stage 0, one measured client call.
fn engine_cell(depth: usize) -> (CellMeasure, PipeWorld) {
    let world = build_world();
    world.islands[0]
        .register_composite(pipe_spec(depth))
        .expect("composite registers");
    warm_routes(&world, depth, true);
    let m = measure(&world, || {
        let out = world
            .client
            .invoke(&world.sim, &format!("pipe-{depth}"), "run", &[])
            .expect("engine pipeline succeeds");
        assert_eq!(out, Value::Int(depth as i64), "stage outputs chain");
    });
    (m, world)
}

/// One client-driven cell: the client invokes each stage itself,
/// threading the output through like the engine would.
fn client_cell(depth: usize) -> (CellMeasure, PipeWorld) {
    let world = build_world();
    warm_routes(&world, depth, false);
    let m = measure(&world, || {
        let mut x = Value::Int(0);
        for i in 0..depth {
            x = world
                .client
                .invoke(
                    &world.sim,
                    &format!("stage-{i}"),
                    "fire",
                    &[("x".into(), x)],
                )
                .expect("client-driven step succeeds");
        }
        assert_eq!(x, Value::Int(depth as i64), "stage outputs chain");
    });
    (m, world)
}

/// The chaos cell: depth 4, the island hosting stage 2 is down for the
/// whole schedule, five pipeline runs. Every run must execute stages 0
/// and 1 exactly once, never reach stage 2 or 3, and unwind stages 1
/// and 0 exactly once each.
fn chaos_cell(report: &mut Report) {
    const RUNS: u64 = 5;
    const DEPTH: usize = 4;
    let world = build_world();
    world.islands[0]
        .register_composite(pipe_spec(DEPTH))
        .expect("composite registers");
    // The entry hop must outlive the composite's whole budget plus the
    // unwind, so only the engine's own deadline shapes the outcome.
    world.client.set_resilience(ResiliencePolicy {
        deadline: SimDuration::from_secs(30),
        ..ResiliencePolicy::default()
    });
    warm_routes(&world, DEPTH, true);
    let fired0 = world.fired.lock().clone();
    let unfired0 = world.unfired.lock().clone();
    let reg0 = world.islands[0].metrics_snapshot().registry;

    let t0 = world.sim.now();
    // stage-2 lives on island-2: dead for the entire schedule.
    world.net.set_fault_plan(FaultPlan::new().node_down(
        world.islands[2].node(),
        t0,
        t0 + SimDuration::from_secs(600),
    ));
    let mut double_exec = 0u64;
    let m = measure(&world, || {
        for _ in 0..RUNS {
            let before = world.fired.lock().clone();
            world
                .client
                .invoke(&world.sim, "pipe-4", "run", &[])
                .expect_err("pipeline cannot cross the dead island");
            let after = world.fired.lock().clone();
            for i in 0..MAX_STAGES {
                if after[i] - before[i] > 1 {
                    double_exec += 1;
                }
            }
            world.sim.advance(SimDuration::from_millis(100));
        }
    });
    world.net.clear_fault_plan();

    let fired: Vec<u64> = world
        .fired
        .lock()
        .iter()
        .zip(&fired0)
        .map(|(a, b)| a - b)
        .collect();
    let unfired: Vec<u64> = world
        .unfired
        .lock()
        .iter()
        .zip(&unfired0)
        .map(|(a, b)| a - b)
        .collect();
    assert_eq!(double_exec, 0, "a non-idempotent stage executed twice");
    assert_eq!(
        &fired[..4],
        &[RUNS, RUNS, 0, 0],
        "stages 0,1 ran, 2,3 never"
    );
    assert_eq!(&unfired[..4], &[RUNS, RUNS, 0, 0], "stages 1,0 unwound");

    let reg = world.islands[0].metrics_snapshot().registry;
    let comps_run = reg.compose_compensations - reg0.compose_compensations;
    let comps_expected = 2 * RUNS; // two compensated stages per failed run
    assert_eq!(comps_run, comps_expected, "every expected compensator ran");
    assert_eq!(
        reg.compose_compensation_failures, reg0.compose_compensation_failures,
        "no compensator failed"
    );
    assert_eq!(reg.compose_failures - reg0.compose_failures, RUNS);
    row(
        report,
        "engine, stage-2 island down",
        DEPTH,
        &m,
        double_exec,
        comps_run,
        comps_expected,
    );
}

/// Fingerprint of a 2-home fleet driving composites through a loss
/// spike at a given worker-thread count. Any difference between thread
/// counts is a determinism bug.
fn fleet_fingerprint(threads: usize) -> (Vec<String>, Vec<String>, Vec<String>) {
    let fleet = HomeFleet::build(SmartHome::builder().seed(SEED).threads(threads), 2)
        .expect("fleet builds");
    for home in fleet.homes() {
        home.gateway(Middleware::Havi)
            .expect("havi island")
            .register_composite(
                CompositeSpec::new("scene")
                    .step(StepSpec::new("hall-motion", "state"))
                    .step(
                        StepSpec::new("laserdisc", "play")
                            .arg("chapter", Binding::Literal(Value::Int(7)))
                            .compensate("stop", vec![]),
                    )
                    .step(
                        StepSpec::new("tv-display", "show")
                            .arg("text", Binding::Literal(Value::Str("scene".into()))),
                    ),
            )
            .expect("composite registers");
        // Warm the entry route before the chaos window opens.
        home.invoke_from(Middleware::Jini, "scene", "run", &[])
            .expect("calm run succeeds");
    }
    let t0 = fleet.home(0).sim.now();
    let plan = FaultPlan::new().loss_spike(
        t0 + SimDuration::from_millis(50),
        t0 + SimDuration::from_millis(700),
        0.8,
    );
    fleet.set_fault_plan_jittered(&plan, SEED, SimDuration::from_millis(150));

    let mut outcomes = Vec::new();
    for home in fleet.homes() {
        for i in 0..4u64 {
            let target = t0 + SimDuration::from_millis(i * 250);
            if home.sim.now() < target {
                home.sim.advance(target.since(home.sim.now()));
            }
            let r = home.invoke_from(Middleware::Jini, "scene", "run", &[]);
            outcomes.push(format!("{:?}", r.map_err(|e| e.to_string())));
        }
    }
    fleet.run_for(SimDuration::from_secs(3));
    (
        outcomes,
        fleet
            .homes()
            .iter()
            .map(|h| h.sim.now().to_string())
            .collect(),
        fleet
            .metrics_snapshots()
            .iter()
            .map(|s| s.to_json())
            .collect(),
    )
}

fn compose_report() {
    let mut report = Report::new(
        "E19",
        "composite pipelines: engine vs client-driven round trips, saga chaos, thread identity",
        &[
            "scenario",
            "depth",
            "client RTs",
            "backbone frames",
            "backbone bytes",
            "virtual us",
            "double exec",
            "comps run",
            "comps expected",
        ],
    );

    for depth in DEPTHS {
        let (engine, _) = engine_cell(depth);
        let (client, _) = client_cell(depth);
        assert_eq!(
            client.client_rts, depth as u64,
            "client-driven depth {depth} costs one round trip per step"
        );
        assert!(
            engine.client_rts <= 2,
            "engine depth {depth} cost the client {} round trips (> 2)",
            engine.client_rts
        );
        row(&mut report, "engine", depth, &engine, 0, 0, 0);
        row(&mut report, "client-driven", depth, &client, 0, 0, 0);
    }

    chaos_cell(&mut report);

    let sequential = fleet_fingerprint(1);
    let parallel = fleet_fingerprint(4);
    assert_eq!(
        sequential, parallel,
        "SIM_THREADS=1 and SIM_THREADS=4 must agree bit-for-bit"
    );
    report.row(vec![
        "threads 1 == threads 4".into(),
        cell(3),
        "0".into(),
        "0".into(),
        "0".into(),
        "0".into(),
        "0".into(),
        "0".into(),
        "0".into(),
    ]);

    report.emit_as("BENCH_compose.json");
}

fn main() {
    compose_report();
}
