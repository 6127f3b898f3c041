//! Chaos schedules: randomized fault plans against the backbone. Two
//! promises must survive any schedule the generator can produce:
//!
//! 1. **No double-invoke.** A non-idempotent operation executes at most
//!    once per invocation, no matter which leg of which attempt the
//!    chaos eats. A reported success always means exactly one execution.
//! 2. **Convergence.** Once every window has lapsed and the breaker's
//!    open period has run out, cross-gateway calls succeed again with
//!    no operator intervention.
//!
//! The schedule seed comes from `CHAOS_SEED` (ci.sh pins three), so a
//! failing schedule can be replayed exactly.

use metaware::{
    catalog, BatchCall, BatchItem, Binding, BreakerState, CloudConfig, CloudIsland, CompositeSpec,
    FederationConfig, MetaError, Middleware, OpSig, ResiliencePolicy, ServiceInterface, Soap11,
    StepSpec, TypeTag, VirtualService, Vsg, VsgProtocol, Vsr, VsrClient,
};
use parking_lot::Mutex;
use proptest::prelude::*;
use simnet::{FaultPlan, Network, NodeId, Sim, SimDuration, SimRng, SimTime};
use soap::Value;
use std::sync::Arc;

/// A fault window before node ids exist: concretized in `build_plan`.
#[derive(Debug, Clone)]
enum WindowSpec {
    Loss {
        prob_pct: u8,
    },
    Latency {
        extra_ms: u16,
    },
    ServerDown,
    Partition,
    /// The VSR is down: routes the cache cannot serve degrade to stale
    /// ones or fail typed.
    VsrDown,
}

#[derive(Debug, Clone)]
struct ChaosWindow {
    spec: WindowSpec,
    from_ms: u16,
    len_ms: u16,
}

fn arb_window() -> impl Strategy<Value = ChaosWindow> {
    let spec = prop_oneof![
        (30u8..=100).prop_map(|prob_pct| WindowSpec::Loss { prob_pct }),
        (1u16..50).prop_map(|extra_ms| WindowSpec::Latency { extra_ms }),
        Just(WindowSpec::ServerDown),
        Just(WindowSpec::Partition),
    ];
    windows_of(spec)
}

/// [`arb_window`]'s kinds plus VSR outages, for the invocation
/// schedules (the composite schedules keep the four network kinds).
fn arb_invoke_window() -> impl Strategy<Value = ChaosWindow> {
    prop_oneof![
        4 => arb_window(),
        1 => windows_of(Just(WindowSpec::VsrDown)),
    ]
}

fn windows_of(spec: impl Strategy<Value = WindowSpec>) -> impl Strategy<Value = ChaosWindow> {
    (spec, 0u16..500, 10u16..300).prop_map(|(spec, from_ms, len_ms)| ChaosWindow {
        spec,
        from_ms,
        len_ms,
    })
}

/// One op: `true` = non-idempotent `switch`, `false` = idempotent
/// `status`; sent alone (`None`) or as the first member of a batch with
/// that many idempotent `status` members behind it.
fn arb_ops() -> impl Strategy<Value = Vec<(bool, Option<u8>)>> {
    prop::collection::vec((any::<bool>(), prop::option::of(0u8..3)), 4..12)
}

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

struct ChaosWorld {
    sim: Sim,
    net: Network,
    vsr_node: NodeId,
    caller: Vsg,
    server: Vsg,
    /// Executions of the non-idempotent `switch` on the server.
    switches: Arc<Mutex<u64>>,
}

fn build_world(seed: u64) -> ChaosWorld {
    let sim = Sim::new(seed);
    let net = Network::ethernet(&sim);
    let vsr = Vsr::start(&net);
    let protocol: Arc<dyn VsgProtocol> = Arc::new(Soap11::new());
    let server = Vsg::start(&net, "gw-server", protocol.clone(), vsr.node()).unwrap();
    let caller = Vsg::start(&net, "gw-caller", protocol, vsr.node()).unwrap();

    let switches = Arc::new(Mutex::new(0u64));
    let count = switches.clone();
    server
        .export(
            VirtualService::new("chaos-lamp", catalog::lamp(), Middleware::X10, "gw-server"),
            move |_: &Sim, op: &str, _: &[(String, Value)]| match op {
                "switch" => {
                    *count.lock() += 1;
                    Ok(Value::Null)
                }
                "status" => Ok(Value::Bool(true)),
                _ => Ok(Value::Null),
            },
        )
        .unwrap();

    ChaosWorld {
        sim,
        net,
        vsr_node: vsr.node(),
        caller,
        server,
        switches,
    }
}

fn build_plan(windows: &[ChaosWindow], t0: SimTime, world: &ChaosWorld) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for w in windows {
        let from = t0 + SimDuration::from_millis(w.from_ms as u64);
        let until = from + SimDuration::from_millis(w.len_ms as u64);
        plan = match &w.spec {
            WindowSpec::Loss { prob_pct } => plan.loss_spike(from, until, *prob_pct as f64 / 100.0),
            WindowSpec::Latency { extra_ms } => {
                plan.latency_spike(from, until, SimDuration::from_millis(*extra_ms as u64))
            }
            WindowSpec::ServerDown => plan.node_down(world.server.node(), from, until),
            WindowSpec::Partition => plan.partition(
                vec![world.caller.node()],
                vec![world.server.node()],
                from,
                until,
            ),
            WindowSpec::VsrDown => plan.node_down(world.vsr_node, from, until),
        };
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariant 1+2 under arbitrary schedules. Each case builds a
    /// fresh two-gateway world, runs a random op mix through a random
    /// fault plan, then heals and demands convergence. An op sent as a
    /// batch member must keep the invariants too. Half the cases give
    /// the caller no retries, so a lost request fails its cached route
    /// at once and the re-route — a batch's second round — runs under
    /// the chaos as well.
    #[test]
    fn chaos_never_double_invokes_and_always_converges(
        windows in prop::collection::vec(arb_invoke_window(), 1..6),
        ops in arb_ops(),
        no_retries in any::<bool>(),
    ) {
        let world = build_world(chaos_seed());
        if no_retries {
            world.caller.set_resilience(ResiliencePolicy {
                max_retries: 0,
                ..ResiliencePolicy::default()
            });
        }
        // Warm the route so the chaos hits the cached fast path too.
        world.caller.invoke(&world.sim, "chaos-lamp", "status", &[]).unwrap();

        let t0 = world.sim.now();
        let plan = build_plan(&windows, t0, &world);
        let healed_by = plan.healed_by();
        world.net.set_fault_plan(plan);

        for &(is_switch, batch) in &ops {
            let before = *world.switches.lock();
            let (op, args) = if is_switch {
                ("switch", vec![("on".to_owned(), Value::Bool(true))])
            } else {
                ("status", vec![])
            };
            let results = match batch {
                None => vec![world.caller.invoke(&world.sim, "chaos-lamp", op, &args)],
                Some(companions) => {
                    let mut call = BatchCall::new("chaos-lamp", op);
                    call.args = args;
                    let status = BatchItem::Call(BatchCall::new("chaos-lamp", "status"));
                    let mut items = vec![BatchItem::Call(call)];
                    items.extend(std::iter::repeat_n(status, companions.into()));
                    world.caller.invoke_batch(&world.sim, &items)
                }
            };
            let result = &results[0];
            let delta = *world.switches.lock() - before;

            if is_switch {
                prop_assert!(
                    delta <= 1,
                    "non-idempotent op executed {delta}x in one invocation"
                );
                if result.is_ok() {
                    prop_assert_eq!(
                        delta, 1,
                        "reported success without exactly one execution"
                    );
                }
            } else {
                prop_assert_eq!(delta, 0, "status must never execute switch");
            }
            for e in results.iter().filter_map(|r| r.as_ref().err()) {
                // Chaos may surface only as typed, expected failures.
                prop_assert!(
                    matches!(
                        e,
                        MetaError::Transport { .. }
                            | MetaError::DeadlineExceeded { .. }
                            | MetaError::CircuitOpen { .. }
                            | MetaError::GatewayUnreachable(_)
                            | MetaError::Repository(_)
                    ),
                    "unexpected error class under chaos: {e:?}"
                );
            }
            world.sim.advance(SimDuration::from_millis(20));
        }

        // Heal: run out every window and the breaker's open period,
        // then drop the plan entirely.
        let past = healed_by + SimDuration::from_secs(10);
        if world.sim.now() < past {
            world.sim.advance(past.since(world.sim.now()));
        }
        world.net.clear_fault_plan();

        // Convergence: both op classes succeed, and a switch executes
        // exactly once again.
        world.caller.invoke(&world.sim, "chaos-lamp", "status", &[]).unwrap();
        let before = *world.switches.lock();
        world.caller.invoke(
            &world.sim,
            "chaos-lamp",
            "switch",
            &[("on".into(), Value::Bool(false))],
        ).unwrap();
        prop_assert_eq!(*world.switches.lock(), before + 1);
        prop_assert_eq!(
            world.caller.breaker_state(world.server.node()),
            BreakerState::Closed
        );
    }
}

/// A fault window eats an in-flight batch frame's response. With a
/// non-idempotent member aboard, the frame must not be re-sent — the
/// remote may have executed every member — so each member fails with
/// the ambiguous typed transport error and `switch` ran exactly once.
/// The contrast case: an all-idempotent batch lost on the *request*
/// leg is retried and lands.
#[test]
fn lost_batch_with_non_idempotent_member_is_not_resent() {
    let sim = Sim::new(chaos_seed());
    let net = Network::ethernet(&sim);
    let vsr = Vsr::start(&net);
    let protocol: Arc<dyn VsgProtocol> = Arc::new(Soap11::new());
    let server = Vsg::start(&net, "gw-server", protocol.clone(), vsr.node()).unwrap();
    let caller = Vsg::start(&net, "gw-caller", protocol, vsr.node()).unwrap();
    let switches = Arc::new(Mutex::new(0u64));
    let count = switches.clone();
    server
        .export(
            VirtualService::new("chaos-lamp", catalog::lamp(), Middleware::X10, "gw-server"),
            move |sim: &Sim, op: &str, _: &[(String, Value)]| {
                if op == "switch" {
                    *count.lock() += 1;
                }
                // Slow enough that the fault window opens while the
                // batch is being served: the response leg is what dies.
                sim.advance(SimDuration::from_millis(10));
                Ok(Value::Bool(true))
            },
        )
        .unwrap();
    caller.invoke(&sim, "chaos-lamp", "status", &[]).unwrap(); // warm the route

    let t = sim.now();
    net.set_fault_plan(FaultPlan::new().partition(
        vec![server.node()],
        vec![caller.node()],
        t + SimDuration::from_millis(5),
        t + SimDuration::from_millis(500),
    ));
    let executed_before = *switches.lock();
    let items = vec![
        BatchItem::Call(BatchCall::new("chaos-lamp", "status")),
        BatchItem::Call(BatchCall::new("chaos-lamp", "switch").arg("on", true)),
        BatchItem::Call(BatchCall::new("chaos-lamp", "status")),
    ];
    let results = caller.invoke_batch(&sim, &items);
    for r in &results {
        assert!(
            matches!(
                r,
                Err(MetaError::Transport {
                    not_executed: false,
                    ..
                })
            ),
            "ambiguous batch loss must surface per member as ambiguous transport: {r:?}"
        );
    }
    assert_eq!(
        *switches.lock() - executed_before,
        1,
        "the lost frame must not be re-sent: switch executes exactly once"
    );

    // Heal, close the breaker's books, then lose a pure request leg:
    // every member is idempotent, so the frame is retried and lands.
    sim.advance(SimDuration::from_secs(30));
    net.clear_fault_plan();
    caller.invoke(&sim, "chaos-lamp", "status", &[]).unwrap();
    let t2 = sim.now();
    net.set_fault_plan(FaultPlan::new().loss_spike(t2, t2 + SimDuration::from_millis(120), 1.0));
    let results = caller.invoke_batch(
        &sim,
        &[
            BatchItem::Call(BatchCall::new("chaos-lamp", "status")),
            BatchItem::Call(BatchCall::new("chaos-lamp", "status")),
        ],
    );
    assert!(
        results.iter().all(|r| r == &Ok(Value::Bool(true))),
        "all-idempotent batch should retry through the spike: {results:?}"
    );
    assert!(caller.metrics().snapshot().retries >= 1);
}

// ---------------------------------------------------------------------------
// Cloud bridge under WAN chaos (DESIGN.md §14): duplicate + reorder +
// partition windows against the outbox / epoch / dedup machinery.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CloudWindowSpec {
    Duplicate { prob_pct: u8 },
    Reorder { window_ms: u16 },
    Partition,
}

#[derive(Debug, Clone)]
struct CloudWindow {
    spec: CloudWindowSpec,
    from_ms: u16,
    len_ms: u16,
}

fn arb_cloud_window() -> impl Strategy<Value = CloudWindow> {
    let spec = prop_oneof![
        (20u8..=60).prop_map(|prob_pct| CloudWindowSpec::Duplicate { prob_pct }),
        (10u16..250).prop_map(|window_ms| CloudWindowSpec::Reorder { window_ms }),
        Just(CloudWindowSpec::Partition),
    ];
    (spec, 0u16..3000, 200u16..2000).prop_map(|(spec, from_ms, len_ms)| CloudWindow {
        spec,
        from_ms,
        len_ms,
    })
}

/// 0 = state notification, 1 = device registration (lifecycle),
/// 2 = non-idempotent downward command.
fn arb_cloud_ops() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..3, 4..10)
}

fn build_cloud_plan(windows: &[CloudWindow], t0: SimTime, island: &CloudIsland) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for w in windows {
        let from = t0 + SimDuration::from_millis(w.from_ms as u64);
        let until = from + SimDuration::from_millis(w.len_ms as u64);
        plan = match &w.spec {
            CloudWindowSpec::Duplicate { prob_pct } => {
                plan.duplicate_spike(from, until, *prob_pct as f64 / 100.0)
            }
            CloudWindowSpec::Reorder { window_ms } => {
                plan.reorder_spike(from, until, SimDuration::from_millis(*window_ms as u64))
            }
            CloudWindowSpec::Partition => plan.partition(
                vec![island.bridge.home_node()],
                vec![island.bridge.cloud_node()],
                from,
                until,
            ),
        };
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The WAN trio — duplicate, reorder, partition — against the cloud
    /// bridge. Three promises survive any schedule: a non-idempotent
    /// downward command is applied at most once per command id (and the
    /// all-time `duplicate_effects` counter stays 0), the outbox drains
    /// in order so the cloud edge converges on the *latest* state per
    /// device, and once every window lapses the pair reconnects and
    /// fully drains with no operator intervention.
    #[test]
    fn cloud_chaos_applies_commands_exactly_once_and_drains_in_order(
        windows in prop::collection::vec(arb_cloud_window(), 1..5),
        ops in arb_cloud_ops(),
    ) {
        let sim = Sim::new(chaos_seed());
        let island = CloudIsland::build(&sim, "home-chaos", CloudConfig::default(), 1);
        let applied = Arc::new(Mutex::new(Vec::<u64>::new()));
        let log = applied.clone();
        island.bridge.set_applier(move |_, cmd| {
            log.lock().push(cmd.id);
            Ok(format!("done:{}", cmd.op))
        });

        // Warm: first handshake and a drained seed entry.
        let mut max_seq = island.bridge.register_device("lamp").unwrap();
        sim.run_for(SimDuration::from_secs(1));
        prop_assert!(island.bridge.is_connected());

        let t0 = sim.now();
        let plan = build_cloud_plan(&windows, t0, &island);
        let healed_by = plan.healed_by();
        island.set_wan_fault_plan(plan);

        let mut last_probe = None;
        let mut command_successes = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match op {
                0 => {
                    let payload = format!("p{i}");
                    max_seq = max_seq.max(island.bridge.notify_state("probe", &payload).unwrap());
                    last_probe = Some(payload);
                }
                1 => {
                    max_seq =
                        max_seq.max(island.bridge.register_device(&format!("d{i}")).unwrap());
                }
                _ => {
                    if island.cell.send_command("lamp", "switch", "on").is_ok() {
                        command_successes += 1;
                    }
                }
            }
            sim.run_for(SimDuration::from_millis(400));
        }

        // Heal: outlast every window plus the bridge's worst backoff.
        let past = healed_by + SimDuration::from_secs(90);
        if sim.now() < past {
            sim.run_until(past);
        }

        // Exactly-once: every applied command id is unique, every
        // reported success executed, and the duplicate counter never
        // moved — at-least-once delivery, exactly-once effect.
        let ids = applied.lock().clone();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), ids.len(), "a command id was applied twice");
        prop_assert!(ids.len() as u64 >= command_successes);
        prop_assert_eq!(island.bridge.stats().duplicate_effects, 0);

        // Drain order + convergence: connected again, outbox empty, the
        // edge saw every sequence number and holds the latest probe
        // state (an out-of-order apply would leave an older payload).
        prop_assert!(island.bridge.is_connected());
        prop_assert_eq!(island.bridge.outbox_len(), 0);
        prop_assert_eq!(island.cell.applied_through(), max_seq);
        if let Some(p) = &last_probe {
            let state = island.cell.device_state("probe");
            prop_assert_eq!(state.as_deref(), Some(p.as_str()));
        }
        for (i, op) in ops.iter().enumerate() {
            if *op == 1 {
                let dev = format!("d{i}");
                prop_assert!(island.cell.registered_devices().contains(&dev));
            }
        }

        // Post-heal, a fresh non-idempotent command lands exactly once.
        let before = applied.lock().len();
        island.cell.send_command("lamp", "switch", "off").unwrap();
        prop_assert_eq!(applied.lock().len(), before + 1);
    }
}

/// Same seed, same cloud run: reconnect jitter, backoff, command
/// retries, drains and all — a failing schedule replays from its
/// CHAOS_SEED.
#[test]
fn cloud_chaos_runs_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let sim = Sim::new(seed);
        let island = CloudIsland::build(&sim, "home-det", CloudConfig::default(), 1);
        island.bridge.register_device("lamp").unwrap();
        sim.run_for(SimDuration::from_secs(1));
        let t0 = sim.now();
        island.set_wan_fault_plan(
            FaultPlan::new()
                .duplicate_spike(t0, t0 + SimDuration::from_millis(800), 0.5)
                .reorder_spike(
                    t0,
                    t0 + SimDuration::from_millis(800),
                    SimDuration::from_millis(120),
                )
                .partition(
                    vec![island.bridge.home_node()],
                    vec![island.bridge.cloud_node()],
                    t0 + SimDuration::from_secs(1),
                    t0 + SimDuration::from_secs(3),
                ),
        );
        let mut outcomes = Vec::new();
        for i in 0..6 {
            island
                .bridge
                .notify_state("probe", &format!("v{i}"))
                .unwrap();
            outcomes.push(
                island
                    .cell
                    .send_command("lamp", "switch", "on")
                    .map_err(|e| e.to_string()),
            );
            sim.run_for(SimDuration::from_millis(700));
        }
        sim.run_for(SimDuration::from_secs(60));
        (
            outcomes,
            sim.now(),
            format!("{:?}", island.bridge.stats()),
            format!("{:?}", island.cell.stats()),
            island.cell.applied_through(),
        )
    };
    assert_eq!(run(42), run(42), "same seed, same cloud run");
}

// ---------------------------------------------------------------------------
// Composite pipelines under chaos (DESIGN.md §16): the saga invariants.
// The composition engine drives non-idempotent steps over a faulty wire;
// whatever the schedule eats, no step may execute twice in one pipeline
// run and no compensator may run more than once (or for a step that
// never executed).
// ---------------------------------------------------------------------------

const PIPE_STEPS: usize = 4;

struct ComposeWorld {
    sim: Sim,
    net: Network,
    vsr_node: NodeId,
    /// Hosts the composite; entry dispatch is local, steps go over the wire.
    host: Vsg,
    /// Hosts the step service the chaos schedule targets.
    server: Vsg,
    /// Forward executions of the non-idempotent `fire`, per step index.
    fired: Arc<Mutex<Vec<u64>>>,
    /// Compensator executions of `unfire`, per step index.
    unfired: Arc<Mutex<Vec<u64>>>,
}

fn stage_interface() -> ServiceInterface {
    ServiceInterface::new("Stage")
        .op(OpSig::new("fire")
            .param("step", TypeTag::Int)
            .returns(TypeTag::Int))
        .op(OpSig::new("unfire").param("step", TypeTag::Int))
        .op(OpSig::new("probe").returns(TypeTag::Bool).idempotent())
}

fn build_compose_world(seed: u64) -> ComposeWorld {
    let sim = Sim::new(seed);
    let net = Network::ethernet(&sim);
    let vsr = Vsr::start(&net);
    let protocol: Arc<dyn VsgProtocol> = Arc::new(Soap11::new());
    let server = Vsg::start(&net, "gw-server", protocol.clone(), vsr.node()).unwrap();
    let host = Vsg::start(&net, "gw-host", protocol, vsr.node()).unwrap();

    let fired = Arc::new(Mutex::new(vec![0u64; PIPE_STEPS]));
    let unfired = Arc::new(Mutex::new(vec![0u64; PIPE_STEPS]));
    let (f, u) = (fired.clone(), unfired.clone());
    server
        .export(
            VirtualService::new("stage", stage_interface(), Middleware::Jini, "gw-server"),
            move |_: &Sim, op: &str, args: &[(String, Value)]| {
                let step = args
                    .iter()
                    .find(|(k, _)| k == "step")
                    .and_then(|(_, v)| v.as_int())
                    .unwrap_or(0) as usize;
                match op {
                    "fire" => {
                        f.lock()[step] += 1;
                        Ok(Value::Int(step as i64))
                    }
                    "unfire" => {
                        u.lock()[step] += 1;
                        Ok(Value::Null)
                    }
                    _ => Ok(Value::Bool(true)),
                }
            },
        )
        .unwrap();

    let mut spec = CompositeSpec::new("chaos-pipe");
    for i in 0..PIPE_STEPS {
        spec = spec.step(
            StepSpec::new("stage", "fire")
                .arg("step", Binding::Literal(Value::Int(i as i64)))
                .compensate(
                    "unfire",
                    vec![("step".into(), Binding::Literal(Value::Int(i as i64)))],
                ),
        );
    }
    host.register_composite(spec).unwrap();

    ComposeWorld {
        sim,
        net,
        vsr_node: vsr.node(),
        host,
        server,
        fired,
        unfired,
    }
}

fn build_compose_plan(windows: &[ChaosWindow], t0: SimTime, world: &ComposeWorld) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for w in windows {
        let from = t0 + SimDuration::from_millis(w.from_ms as u64);
        let until = from + SimDuration::from_millis(w.len_ms as u64);
        plan = match &w.spec {
            WindowSpec::Loss { prob_pct } => plan.loss_spike(from, until, *prob_pct as f64 / 100.0),
            WindowSpec::Latency { extra_ms } => {
                plan.latency_spike(from, until, SimDuration::from_millis(*extra_ms as u64))
            }
            WindowSpec::ServerDown => plan.node_down(world.server.node(), from, until),
            WindowSpec::Partition => plan.partition(
                vec![world.host.node()],
                vec![world.server.node()],
                from,
                until,
            ),
            WindowSpec::VsrDown => plan.node_down(world.vsr_node, from, until),
        };
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The saga invariants under arbitrary schedules: per pipeline run,
    /// (a) executed steps form a prefix and none executes twice, (b) a
    /// compensator runs at most once and only for a step that actually
    /// executed, (c) a reported success means every step ran exactly
    /// once and nothing was compensated, and (d) after the schedule
    /// lapses the pipeline converges with no operator intervention.
    #[test]
    fn compose_chaos_never_double_executes_and_compensates_at_most_once(
        windows in prop::collection::vec(arb_window(), 1..6),
        runs in 2usize..6,
    ) {
        let world = build_compose_world(chaos_seed());
        // Warm the host's route to the step service.
        world.host.invoke(&world.sim, "stage", "probe", &[]).unwrap();

        let t0 = world.sim.now();
        let plan = build_compose_plan(&windows, t0, &world);
        let healed_by = plan.healed_by();
        world.net.set_fault_plan(plan);

        for _ in 0..runs {
            let fired_before = world.fired.lock().clone();
            let unfired_before = world.unfired.lock().clone();
            let result = world.host.invoke(&world.sim, "chaos-pipe", "run", &[]);
            let fired_delta: Vec<u64> = world.fired.lock().iter()
                .zip(&fired_before).map(|(a, b)| a - b).collect();
            let unfired_delta: Vec<u64> = world.unfired.lock().iter()
                .zip(&unfired_before).map(|(a, b)| a - b).collect();

            let mut seen_gap = false;
            for i in 0..PIPE_STEPS {
                prop_assert!(
                    fired_delta[i] <= 1,
                    "step {i} executed {}x in one pipeline run", fired_delta[i]
                );
                prop_assert!(
                    !(seen_gap && fired_delta[i] > 0),
                    "step {i} executed after an earlier step did not: {fired_delta:?}"
                );
                seen_gap |= fired_delta[i] == 0;
                prop_assert!(
                    unfired_delta[i] <= 1,
                    "compensator for step {i} ran {}x", unfired_delta[i]
                );
                prop_assert!(
                    unfired_delta[i] <= fired_delta[i],
                    "compensated step {i} that never executed"
                );
            }
            if result.is_ok() {
                prop_assert!(
                    fired_delta.iter().all(|&d| d == 1),
                    "success without every step executing exactly once: {fired_delta:?}"
                );
                prop_assert!(
                    unfired_delta.iter().all(|&d| d == 0),
                    "success must not compensate: {unfired_delta:?}"
                );
            } else if let Err(e) = &result {
                prop_assert!(
                    matches!(
                        e,
                        MetaError::Transport { .. }
                            | MetaError::DeadlineExceeded { .. }
                            | MetaError::CircuitOpen { .. }
                            | MetaError::GatewayUnreachable(_)
                            | MetaError::Repository(_)
                    ),
                    "unexpected error class under chaos: {e:?}"
                );
            }
            world.sim.advance(SimDuration::from_millis(50));
        }

        // Heal and converge.
        let past = healed_by + SimDuration::from_secs(10);
        if world.sim.now() < past {
            world.sim.advance(past.since(world.sim.now()));
        }
        world.net.clear_fault_plan();

        let fired_before = world.fired.lock().clone();
        let out = world.host.invoke(&world.sim, "chaos-pipe", "run", &[]).unwrap();
        prop_assert_eq!(out, Value::Int(PIPE_STEPS as i64 - 1));
        let fired_after = world.fired.lock().clone();
        for i in 0..PIPE_STEPS {
            prop_assert_eq!(fired_after[i] - fired_before[i], 1);
        }
        prop_assert_eq!(
            world.host.breaker_state(world.server.node()),
            BreakerState::Closed
        );
    }
}

/// Same seed, same pipeline run — outcomes, virtual clock, per-step
/// execution and compensation counts, and the engine's own counters.
/// A failing composite chaos schedule replays from its CHAOS_SEED.
#[test]
fn compose_chaos_runs_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let world = build_compose_world(seed);
        world
            .host
            .invoke(&world.sim, "stage", "probe", &[])
            .unwrap();
        let t0 = world.sim.now();
        world.net.set_fault_plan(
            FaultPlan::new()
                .loss_spike(t0, t0 + SimDuration::from_millis(300), 0.7)
                .node_down(
                    world.server.node(),
                    t0 + SimDuration::from_millis(350),
                    t0 + SimDuration::from_millis(900),
                ),
        );
        let mut outcomes = Vec::new();
        for _ in 0..5 {
            let r = world.host.invoke(&world.sim, "chaos-pipe", "run", &[]);
            outcomes.push(r.map_err(|e| e.to_string()));
            world.sim.advance(SimDuration::from_millis(120));
        }
        let reg = world.host.metrics_snapshot().registry;
        let fired = world.fired.lock().clone();
        let unfired = world.unfired.lock().clone();
        (
            outcomes,
            world.sim.now(),
            fired,
            unfired,
            (
                reg.compose_executions,
                reg.compose_steps,
                reg.compose_failures,
                reg.compose_compensations,
                reg.compose_compensation_failures,
            ),
        )
    };
    assert_eq!(run(chaos_seed()), run(chaos_seed()), "same seed, same run");
}

/// The same seed and schedule must reproduce the exact same run —
/// retries, backoff jitter, breaker flips and all. This is what makes a
/// chaos failure replayable from its CHAOS_SEED.
#[test]
fn chaos_runs_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let world = build_world(seed);
        world
            .caller
            .invoke(&world.sim, "chaos-lamp", "status", &[])
            .unwrap();
        let t0 = world.sim.now();
        world.net.set_fault_plan(
            FaultPlan::new()
                .loss_spike(t0, t0 + SimDuration::from_millis(200), 0.7)
                .node_down(
                    world.server.node(),
                    t0 + SimDuration::from_millis(250),
                    t0 + SimDuration::from_millis(400),
                ),
        );
        let on_arg = [("on".to_owned(), Value::Bool(true))];
        let mut outcomes = Vec::new();
        for i in 0..6 {
            let (op, args): (&str, &[(String, Value)]) = if i % 2 == 0 {
                ("status", &[])
            } else {
                ("switch", &on_arg)
            };
            let r = world.caller.invoke(&world.sim, "chaos-lamp", op, args);
            outcomes.push(r.map_err(|e| e.to_string()));
            world.sim.advance(SimDuration::from_millis(30));
        }
        let snap = world.caller.metrics().snapshot();
        let executed = *world.switches.lock();
        (
            outcomes,
            world.sim.now(),
            snap.retries,
            snap.breaker_transitions,
            executed,
        )
    };
    assert_eq!(run(42), run(42), "same seed, same run");
}

// ---- federated VSR: anti-entropy after lost eager pushes ------------------

/// A 3-replica, 4-shard repository takes a random publish / unpublish /
/// renew / resolve stream (seeded from `CHAOS_SEED`) while one replica
/// is partitioned from its peers: every eager push to it, and from it
/// for the shards it leads, is lost. After the heal one anti-entropy
/// pass must converge the cluster (lag 0, every replica resolving every
/// name identically), and a second pass over the converged cluster
/// must be fingerprints only: no `sync_fetch` or `replicate` exchange,
/// so nothing to apply.
#[test]
fn anti_entropy_converges_lost_pushes_in_one_pass() {
    let seed = chaos_seed();
    let sim = Sim::new(seed);
    let net = Network::ethernet(&sim);
    let vsr = Vsr::start_federated(
        &net,
        &FederationConfig {
            shards: 4,
            replicas: 3,
            replication: 3,
            ..FederationConfig::default()
        },
    );
    vsr.set_lease_duration(Some(SimDuration::from_secs(30)));
    let client = VsrClient::new(&net, net.attach("pcm"), vsr.node());
    let lamp = |name: &str, gateway: &str| {
        VirtualService::new(name, catalog::lamp(), Middleware::X10, gateway)
    };
    let names: Vec<String> = (0..24).map(|i| format!("svc-{i:02}")).collect();
    for name in &names {
        client.publish(&lamp(name, "gw-0")).unwrap();
    }
    assert_eq!(vsr.replication_lag(), 0, "eager pushes converged the seed");

    // The client reaches every replica, so no write ever fails over:
    // only replica-to-replica traffic to and from `cut` is lost.
    let mut rng = SimRng::seeded(seed);
    let replicas = vsr.nodes();
    let cut = replicas[rng.index(replicas.len())];
    let peers: Vec<_> = replicas.iter().copied().filter(|&n| n != cut).collect();
    let t0 = sim.now();
    net.set_fault_plan(FaultPlan::new().partition(
        vec![cut],
        peers,
        t0,
        t0 + SimDuration::from_secs(3_600),
    ));
    for _ in 0..120 {
        sim.advance(SimDuration::from_millis(rng.range(0, 2_000)));
        let name = &names[rng.index(names.len())];
        match rng.range(0, 8) {
            0..=2 => {
                let gateway = format!("gw-{}", rng.range(0, 3));
                client.publish(&lamp(name, &gateway)).unwrap();
            }
            3 => {
                client.unpublish(name).unwrap();
            }
            4 | 5 => {
                client.renew(name).unwrap();
            }
            _ => {
                let _ = client.resolve(name);
            }
        }
    }
    // A closing renew of every name, still partitioned, restarts each
    // surviving lease, so none falls due while the replicas are
    // compared below (the renew reaps the ones already due).
    for name in &names {
        client.renew(name).unwrap();
    }
    net.clear_fault_plan();
    assert!(vsr.replication_lag() > 0, "the partition lost pushes");

    assert_eq!(vsr.sync_now(), 0, "one pass converges");
    assert_eq!(vsr.replication_lag(), 0);

    let map = vsr.shard_map();
    let pairs: u64 = (0..map.shard_count())
        .map(|s| map.replicas_for(s).len() as u64 - 1)
        .sum();
    let (frames0, bytes0) = net.with_stats(|s| (s.total().frames, s.total().bytes));
    assert_eq!(vsr.sync_now(), 0);
    let (frames1, bytes1) = net.with_stats(|s| (s.total().frames, s.total().bytes));
    assert_eq!(
        frames1 - frames0,
        2 * pairs,
        "a converged pass is one sync_digest request and reply per pair"
    );
    assert!(
        bytes1 - bytes0 < pairs * 1_500,
        "and each reply is `in_sync`, not a digest: {} B over {pairs} pairs",
        bytes1 - bytes0
    );

    // Every replica now answers every resolve the same way.
    let probe = soap::SoapClient::on_node(
        &net,
        net.attach("probe"),
        soap::CpuModel::default(),
        soap::TcpModel::default(),
    );
    let answers = |replica| -> Vec<Result<Value, String>> {
        names
            .iter()
            .map(|name| {
                let call = soap::RpcCall::new("urn:vsg:repository", "resolve")
                    .arg("name", name.as_str())
                    .arg("shard", i64::from(map.shard_of(name)));
                probe.call(replica, &call).map_err(|e| e.to_string())
            })
            .collect()
    };
    let reference = answers(replicas[0]);
    assert!(reference.iter().any(Result::is_ok), "some services survive");
    for &replica in &replicas[1..] {
        assert_eq!(answers(replica), reference, "replica n{}", replica.0);
    }
}
