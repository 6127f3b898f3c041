//! Model-based property tests over the whole federation: random
//! operation sequences must keep the framework's view and the physical
//! devices' state in agreement.

use metaware::{
    BatchCall, BatchItem, BatchPolicy, Binding, CompactBinary, CompositeSpec, HomeFleet,
    Middleware, ResiliencePolicy, SmartHome, Soap11, StepSpec, VirtualService, Vsg, VsgProtocol,
};
use parking_lot::Mutex;
use proptest::prelude::*;
use simnet::{FaultPlan, SimDuration};
use soap::Value;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum LampOp {
    /// Switch a lamp from an island.
    Switch { island: u8, lamp: u8, on: bool },
    /// Query a lamp's status from an island.
    Query { island: u8, lamp: u8 },
}

fn arb_op() -> impl Strategy<Value = LampOp> {
    prop_oneof![
        (0u8..4, 0u8..2, any::<bool>()).prop_map(|(island, lamp, on)| LampOp::Switch {
            island,
            lamp,
            on
        }),
        (0u8..4, 0u8..2).prop_map(|(island, lamp)| LampOp::Query { island, lamp }),
    ]
}

fn island(i: u8) -> Middleware {
    match i {
        0 => Middleware::Jini,
        1 => Middleware::Havi,
        2 => Middleware::X10,
        _ => Middleware::Mail,
    }
}

fn lamp_name(l: u8) -> &'static str {
    if l == 0 {
        "hall-lamp"
    } else {
        "desk-lamp"
    }
}

/// Batch members mixing well-typed calls, application faults (unknown
/// operation), unknown services, and event notifications.
fn arb_batch_item() -> impl Strategy<Value = BatchItem> {
    prop_oneof![
        (0u8..2, any::<bool>()).prop_map(|(l, on)| BatchItem::Call(
            BatchCall::new(lamp_name(l), "switch").arg("on", on)
        )),
        (0u8..2).prop_map(|l| BatchItem::Call(BatchCall::new(lamp_name(l), "status"))),
        (0u8..2, 1i64..5).prop_map(|(l, s)| BatchItem::Call(
            BatchCall::new(lamp_name(l), "dim").arg("steps", s)
        )),
        (0u8..2).prop_map(|l| BatchItem::Call(BatchCall::new(lamp_name(l), "explode"))),
        Just(BatchItem::Call(BatchCall::new("ghost", "status"))),
        (0u8..2, any::<i64>()).prop_map(|(l, v)| BatchItem::Event {
            service: lamp_name(l).to_owned(),
            event: Value::Int(v),
        }),
    ]
}

/// A fleet run's complete observable state at a given worker thread
/// count: per-island chaos availability counts, every island-tagged
/// metrics snapshot, and every rendered trace. Any difference between
/// thread counts is a determinism bug in the parallel scheduler.
fn fleet_fingerprint(seed: u64, threads: usize) -> (Vec<(u32, u32)>, Vec<String>, String) {
    let fleet = HomeFleet::build_with(
        SmartHome::builder()
            .seed(seed)
            .threads(threads)
            .vsr_replicas(2),
        3,
        |island, b| b.vsr_sync_phase(SimDuration::from_millis(u64::from(island) * 17)),
    )
    .unwrap();
    for home in fleet.homes() {
        home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
            .unwrap();
    }
    fleet.set_tracing(true);

    let t0 = fleet.home(0).sim.now();
    let plan = FaultPlan::new().loss_spike(
        t0 + SimDuration::from_millis(100),
        t0 + SimDuration::from_millis(600),
        0.8,
    );
    fleet.set_fault_plan_jittered(&plan, seed, SimDuration::from_millis(250));

    let mut avail = Vec::new();
    for home in fleet.homes() {
        let (mut ok, mut err) = (0u32, 0u32);
        for i in 0..6u64 {
            let target = t0 + SimDuration::from_millis(i * 200);
            if home.sim.now() < target {
                home.sim.advance(target.since(home.sim.now()));
            }
            match home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[]) {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
        avail.push((ok, err));
    }
    // Drain periodic timers (anti-entropy, mux flushes) on the
    // parallel scheduler itself.
    fleet.run_for(SimDuration::from_secs(3));
    (
        avail,
        fleet
            .metrics_snapshots()
            .iter()
            .map(|s| s.to_json())
            .collect(),
        fleet.render_traces(),
    )
}

/// The chaos seed matrix CI replays (`CHAOS_SEED` narrows it to one):
/// 1-thread and 4-thread runs must be bit-for-bit identical.
#[test]
fn parallel_determinism_over_seed_matrix() {
    let seeds: Vec<u64> = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .map(|s| vec![s])
        .unwrap_or_else(|| vec![1, 7, 1234]);
    for seed in seeds {
        let sequential = fleet_fingerprint(seed, 1);
        let parallel = fleet_fingerprint(seed, 4);
        assert_eq!(
            sequential, parallel,
            "seed {seed}: worker thread count changed observable state"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservative parallel execution is invisible: for any seed, a
    /// 4-thread fleet run fingerprints identically to a 1-thread run.
    #[test]
    fn parallel_execution_is_invisible(seed in 0u64..1_000_000) {
        let sequential = fleet_fingerprint(seed, 1);
        let parallel = fleet_fingerprint(seed, 4);
        prop_assert_eq!(sequential, parallel);
    }

    /// Whatever sequence of cross-island switches happens, the physical
    /// module, the PCM's shadow, and every island's queried view agree.
    #[test]
    fn lamp_state_is_globally_consistent(ops in prop::collection::vec(arb_op(), 1..20)) {
        let home = SmartHome::builder().build().unwrap();
        let mut model: HashMap<&str, bool> =
            [("hall-lamp", false), ("desk-lamp", false)].into();

        for op in &ops {
            match op {
                LampOp::Switch { island: i, lamp, on } => {
                    home.invoke_from(island(*i), lamp_name(*lamp), "switch",
                                     &[("on".into(), Value::Bool(*on))])
                        .unwrap();
                    model.insert(lamp_name(*lamp), *on);
                }
                LampOp::Query { island: i, lamp } => {
                    let got = home
                        .invoke_from(island(*i), lamp_name(*lamp), "status", &[])
                        .unwrap();
                    prop_assert_eq!(got, Value::Bool(model[lamp_name(*lamp)]));
                }
            }
        }

        // Physical modules agree with the model.
        let x10 = home.x10.as_ref().unwrap();
        prop_assert_eq!(x10.hall_lamp.is_on(), model["hall-lamp"]);
        prop_assert_eq!(x10.desk_lamp.is_on(), model["desk-lamp"]);
    }

    /// The VSR behaves like a map under arbitrary publish/unpublish
    /// interleavings.
    #[test]
    fn vsr_is_a_map(ops in prop::collection::vec(
        (0u8..6, any::<bool>()), 1..25,
    )) {
        let home = SmartHome::builder().manual_import().jini(false).havi(false)
            .x10(true).mail(false).build().unwrap();
        let gw = home.x10.as_ref().unwrap().vsg.clone();
        let mut model: HashMap<String, ()> = HashMap::new();

        for (slot, publish) in &ops {
            let name = format!("svc-{slot}");
            if *publish {
                gw.export(
                    VirtualService::new(&name, metaware::catalog::lamp(), Middleware::X10, gw.name()),
                    |_: &simnet::Sim, _: &str, _: &[(String, Value)]| Ok(Value::Null),
                ).unwrap();
                model.insert(name, ());
            } else {
                gw.withdraw(&name).unwrap();
                model.remove(&name);
            }
            prop_assert_eq!(home.service_count(), model.len());
        }
        // Every modelled service resolves; no ghost services resolve.
        for slot in 0u8..6 {
            let name = format!("svc-{slot}");
            prop_assert_eq!(gw.vsr().resolve(&name).is_ok(), model.contains_key(&name));
        }
    }

    /// Cached resolution is indistinguishable from a live VSR lookup:
    /// whatever publish/withdraw interleaving precedes them, both paths
    /// return identical `ServiceRecord`s (or both fail) — for every
    /// service and from a cold or warm cache alike.
    #[test]
    fn cached_resolution_agrees_with_uncached(
        ops in prop::collection::vec((0u8..5, any::<bool>()), 1..20),
        warm_first in any::<bool>(),
    ) {
        let home = SmartHome::builder().manual_import().jini(false).havi(false)
            .x10(true).mail(false).build().unwrap();
        let gw = home.x10.as_ref().unwrap().vsg.clone();

        for (slot, publish) in &ops {
            let name = format!("svc-{slot}");
            if *publish {
                gw.export(
                    VirtualService::new(&name, metaware::catalog::lamp(), Middleware::X10, gw.name()),
                    |_: &simnet::Sim, _: &str, _: &[(String, Value)]| Ok(Value::Null),
                ).unwrap();
            } else {
                gw.withdraw(&name).unwrap();
            }
        }

        for slot in 0u8..5 {
            let name = format!("svc-{slot}");
            if warm_first {
                // Populate (or re-miss) the cache before comparing.
                let _ = gw.resolve_cached(&name);
            }
            let cached = gw.resolve_cached(&name);
            let live = gw.resolve(&name);
            match (cached, live) {
                (Ok(c), Ok(l)) => {
                    prop_assert_eq!(&c.name, &l.name);
                    prop_assert_eq!(c.middleware, l.middleware);
                    prop_assert_eq!(&c.gateway, &l.gateway);
                    prop_assert_eq!(&*c.interface, &*l.interface);
                    prop_assert_eq!(&c.contexts, &l.contexts);
                }
                (Err(_), Err(_)) => {}
                (c, l) => prop_assert!(false, "cache/live disagree for {}: {:?} vs {:?}", name, c, l),
            }
        }
    }

    /// The multiplexed wire is semantically invisible: for an arbitrary
    /// interleaving of calls, faults, unknown services, and events, the
    /// batched and unbatched paths return identical per-item results,
    /// surface the same application faults, deliver events in the same
    /// order, and leave the physical devices in the same state.
    #[test]
    fn batched_wire_is_equivalent_to_unbatched(
        items in prop::collection::vec(arb_batch_item(), 1..16),
    ) {
        let run = |batched: bool| {
            let policy = if batched {
                // A small frame bound so multi-chunk flushes happen.
                BatchPolicy { max_batch: 4, ..BatchPolicy::default() }
            } else {
                BatchPolicy::disabled()
            };
            let home = SmartHome::builder().batching(policy).build().unwrap();
            let caller = home.gateway(Middleware::Jini).unwrap().clone();
            let server = home.gateway(Middleware::X10).unwrap().clone();
            let seen: Arc<Mutex<Vec<(String, Value)>>> = Arc::new(Mutex::new(Vec::new()));
            let seen2 = seen.clone();
            server.set_event_sink(move |_, svc, e| seen2.lock().push((svc.to_owned(), e.clone())));
            let results = caller.invoke_batch(&home.sim, &items);
            let x10 = home.x10.as_ref().unwrap();
            let lamps = (x10.hall_lamp.is_on(), x10.desk_lamp.is_on());
            let events = seen.lock().clone();
            (results, events, lamps)
        };
        let (batched, batched_events, batched_lamps) = run(true);
        let (unbatched, unbatched_events, unbatched_lamps) = run(false);
        prop_assert_eq!(batched, unbatched);
        prop_assert_eq!(batched_events, unbatched_events);
        prop_assert_eq!(batched_lamps, unbatched_lamps);
    }

    /// A pipeline run by the composition engine is semantically
    /// equivalent to the client driving the same steps one by one from
    /// its own island: identical final value and identical physical
    /// device state — the engine only changes *where* the steps are
    /// driven from, never what they do.
    #[test]
    fn composite_engine_matches_client_driven_steps(
        steps in prop::collection::vec((0u8..2, 0u8..3, any::<bool>(), 1i64..5), 1..8),
    ) {
        let as_call = |&(lamp, op, on, dim): &(u8, u8, bool, i64)| {
            let (operation, args): (&str, Vec<(String, Value)>) = match op {
                0 => ("switch", vec![("on".into(), Value::Bool(on))]),
                1 => ("dim", vec![("steps".into(), Value::Int(dim))]),
                _ => ("status", vec![]),
            };
            (lamp_name(lamp), operation, args)
        };

        // X10 powerline steps are slow; give both runs one generous,
        // identical deadline so neither path times out first.
        let relaxed = ResiliencePolicy {
            deadline: SimDuration::from_secs(60),
            ..ResiliencePolicy::default()
        };

        // Run A: the steps as a composite, one client call from Jini.
        let engine_home = SmartHome::builder().build().unwrap();
        engine_home.set_resilience(relaxed.clone());
        let mut spec = CompositeSpec::new("pipe").budget(SimDuration::from_secs(60));
        for s in &steps {
            let (service, operation, args) = as_call(s);
            let mut step = StepSpec::new(service, operation);
            for (k, v) in args {
                step = step.arg(k, Binding::Literal(v));
            }
            spec = spec.step(step);
        }
        engine_home
            .gateway(Middleware::Havi)
            .unwrap()
            .register_composite(spec)
            .unwrap();
        let engine_result = engine_home
            .invoke_from(Middleware::Jini, "pipe", "run", &[])
            .map_err(|e| e.to_string());

        // Run B: a fresh, identically seeded home; the client drives
        // each step itself.
        let client_home = SmartHome::builder().build().unwrap();
        client_home.set_resilience(relaxed);
        let mut client_result = Ok(Value::Null);
        for s in &steps {
            let (service, operation, args) = as_call(s);
            client_result = client_home
                .invoke_from(Middleware::Jini, service, operation, &args)
                .map_err(|e| e.to_string());
            if client_result.is_err() {
                break;
            }
        }

        prop_assert_eq!(engine_result, client_result);
        let (ex, cx) = (
            engine_home.x10.as_ref().unwrap(),
            client_home.x10.as_ref().unwrap(),
        );
        prop_assert_eq!(ex.hall_lamp.state().level, cx.hall_lamp.state().level);
        prop_assert_eq!(ex.desk_lamp.state().level, cx.desk_lamp.state().level);
        prop_assert_eq!(ex.hall_lamp.is_on(), cx.hall_lamp.is_on());
        prop_assert_eq!(ex.desk_lamp.is_on(), cx.desk_lamp.is_on());
    }

    /// Dim sequences through the framework keep the physical level and
    /// the PCM's shadow identical (lossless powerline).
    #[test]
    fn dim_shadow_tracks_physics(steps in prop::collection::vec(1i64..8, 1..10)) {
        let home = SmartHome::builder().build().unwrap();
        home.invoke_from(Middleware::Jini, "hall-lamp", "switch",
                         &[("on".into(), Value::Bool(true))]).unwrap();
        for s in &steps {
            home.invoke_from(Middleware::Havi, "hall-lamp", "dim",
                             &[("steps".into(), Value::Int(*s))]).unwrap();
        }
        let x10 = home.x10.as_ref().unwrap();
        let physical = x10.hall_lamp.state().level;
        let shadow = x10.pcm
            .module_shadow(metaware::house('A'), metaware::unit(1))
            .unwrap()
            .level;
        prop_assert_eq!(physical, shadow);
    }
}

/// One step of the gateway-memo model: services `svc-0..4` on two host
/// gateways, which may restart on fresh nodes.
#[derive(Debug, Clone)]
enum RouteOp {
    /// Export the service on its host, or on `host` if it has none.
    Publish { slot: u8, host: u8 },
    /// Withdraw the service from its host.
    Withdraw { slot: u8 },
    /// Move the service to `host` (export it there if it has none).
    Move { slot: u8, host: u8 },
    /// `host`'s node goes down for good; a gateway of the same name
    /// starts on a fresh node and re-exports the host's services.
    Restart { host: u8 },
    /// Invoke the service, if it has a host.
    Invoke { slot: u8 },
}

fn arb_route_op() -> impl Strategy<Value = RouteOp> {
    prop_oneof![
        1 => (0u8..5, 0u8..2).prop_map(|(slot, host)| RouteOp::Publish { slot, host }),
        1 => (0u8..5).prop_map(|slot| RouteOp::Withdraw { slot }),
        1 => (0u8..5, 0u8..2).prop_map(|(slot, host)| RouteOp::Move { slot, host }),
        1 => (0u8..2).prop_map(|host| RouteOp::Restart { host }),
        3 => (0u8..5).prop_map(|slot| RouteOp::Invoke { slot }),
    ]
}

/// Exports `svc-<slot>`, answering its slot, on `gw`.
fn export_slot(gw: &Vsg, slot: u8) {
    gw.export(
        VirtualService::new(
            format!("svc-{slot}"),
            metaware::catalog::lamp(),
            Middleware::X10,
            gw.name(),
        ),
        move |_: &simnet::Sim, _: &str, _: &[(String, Value)]| Ok(Value::Int(i64::from(slot))),
    )
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A caller's cached routes and remembered gateway nodes never
    /// change an answer: over any interleaving of publishes, withdraws,
    /// moves and gateway restarts, every invoke from a third gateway
    /// returns what an invoke right after `clear_route_cache` returns,
    /// and an invoke of a published service never fails. Both callers
    /// keep the default resilience policy.
    #[test]
    fn remembered_routes_answer_as_a_cleared_cache_does(
        ops in prop::collection::vec(arb_route_op(), 1..40),
        soap in any::<bool>(),
    ) {
        let protocol: Arc<dyn VsgProtocol> = if soap {
            Arc::new(Soap11::new())
        } else {
            Arc::new(CompactBinary::new())
        };
        let home = SmartHome::builder().manual_import().jini(false).havi(false)
            .x10(false).mail(false).upnp(false).build().unwrap();
        let start = |name: &str| {
            Vsg::start(&home.backbone, name, protocol.clone(), home.vsr.node()).unwrap()
        };
        let mut hosts = [start("host-a"), start("host-b")];
        let (caller, oracle) = (start("caller-gw"), start("oracle-gw"));
        let mut owner: [Option<usize>; 5] = [None; 5];
        let mut dead = Vec::new();
        for op in &ops {
            match *op {
                RouteOp::Publish { slot, host } => {
                    let host = *owner[slot as usize].get_or_insert(host as usize);
                    export_slot(&hosts[host], slot);
                }
                RouteOp::Withdraw { slot } => {
                    if let Some(host) = owner[slot as usize].take() {
                        hosts[host].withdraw(&format!("svc-{slot}")).unwrap();
                    }
                }
                RouteOp::Move { slot, host } => {
                    if let Some(from) = owner[slot as usize].replace(host as usize) {
                        hosts[from].withdraw(&format!("svc-{slot}")).unwrap();
                    }
                    export_slot(&hosts[host as usize], slot);
                }
                RouteOp::Restart { host } => {
                    let host = host as usize;
                    dead.push(hosts[host].node());
                    let t = home.sim.now();
                    let forever = t + SimDuration::from_secs(1_000_000);
                    let plan = dead.iter().fold(FaultPlan::new(), |plan, &node| {
                        plan.node_down(node, t, forever)
                    });
                    home.backbone.set_fault_plan(plan);
                    hosts[host] = start(hosts[host].name());
                    for slot in (0..5u8).filter(|&s| owner[s as usize] == Some(host)) {
                        export_slot(&hosts[host], slot);
                    }
                }
                RouteOp::Invoke { slot } => {
                    if owner[slot as usize].is_none() {
                        continue;
                    }
                    let name = format!("svc-{slot}");
                    let got = caller.invoke(&home.sim, &name, "status", &[]);
                    oracle.clear_route_cache();
                    let want = oracle.invoke(&home.sim, &name, "status", &[]);
                    prop_assert_eq!(&got, &want, "{:?} after {:?}", op, ops);
                    prop_assert_eq!(got, Ok(Value::Int(i64::from(slot))));
                }
            }
        }
    }
}
