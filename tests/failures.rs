//! Failure injection: the home keeps its promises when networks blink,
//! leases lapse and the powerline eats frames.

use havi::bus_reset;
use metaware::{BreakerState, MetaError, Middleware, SmartHome};
use simnet::{FaultPlan, SimDuration};
use soap::Value;

#[test]
fn havi_bus_reset_blocks_then_recovers() {
    let home = SmartHome::builder().build().unwrap();
    let havi = home.havi.as_ref().unwrap();

    // During the reset window the bus is down: cross-island HAVi calls
    // fail with the middleware's own typed error, not a generic string.
    havi.bus.set_down(true);
    let err = home
        .invoke_from(Middleware::Jini, "dv-camera", "record", &[])
        .unwrap_err();
    assert!(
        matches!(&err, MetaError::Native { middleware, .. } if middleware == "havi"),
        "expected a HAVi-native error, got {err:?}"
    );
    assert_eq!(err.kind(), "native");

    // The bus recovers; no re-configuration needed for messaging.
    havi.bus.set_down(false);
    home.invoke_from(Middleware::Jini, "dv-camera", "record", &[])
        .unwrap();

    // A full reset helper drops and restores within the outage window.
    bus_reset(&home.sim, &havi.bus);
    home.invoke_from(Middleware::Jini, "dv-camera", "stop", &[])
        .unwrap();
}

#[test]
fn jini_lease_expiry_removes_dead_services_from_the_island() {
    let home = SmartHome::builder().build().unwrap();
    let jini = home.jini.as_ref().unwrap();
    // The built-in devices registered with 300 s leases and nobody
    // renews them: after expiry + sweep they vanish from the registrar.
    assert_eq!(jini.reggie.registered_count(), 3);
    home.sim.run_for(SimDuration::from_secs(400));
    assert_eq!(jini.reggie.registered_count(), 0, "leases lapsed");

    // The VSR still lists the stale import (the PCM has not re-scanned);
    // invoking now surfaces the failure honestly... actually the RMI
    // objects are still exported, so calls still work — Jini's *lookup*
    // died, not the service. This mirrors real Jini semantics.
    home.invoke_from(Middleware::Havi, "laserdisc", "status", &[])
        .unwrap();
}

#[test]
fn noisy_powerline_is_survivable_with_repeats() {
    // With a noisy powerline, individual commands may be lost; the PCM
    // repeats idempotent commands, and shadows stay self-consistent.
    let home = SmartHome::builder()
        .noisy_powerline()
        .seed(77)
        .build()
        .unwrap();
    let mut successes = 0;
    for i in 0..10 {
        let on = i % 2 == 0;
        if home
            .invoke_from(
                Middleware::Jini,
                "hall-lamp",
                "switch",
                &[("on".into(), Value::Bool(on))],
            )
            .is_ok()
        {
            successes += 1;
        }
    }
    // The serial leg is lossless and the PCM repeats over the powerline:
    // the framework call itself should essentially always succeed.
    assert!(successes >= 9, "only {successes}/10 commands accepted");
}

#[test]
fn x10_commands_may_still_miss_on_noise_and_shadow_tracks_belief() {
    let home = SmartHome::builder()
        .noisy_powerline()
        .seed(1234)
        .build()
        .unwrap();
    let x10 = home.x10.as_ref().unwrap();
    // Pound the lamp with ON commands; with 2% loss and 2 repeats the
    // physical lamp should end ON with overwhelming probability.
    for _ in 0..5 {
        let _ = home.invoke_from(
            Middleware::X10,
            "hall-lamp",
            "switch",
            &[("on".into(), Value::Bool(true))],
        );
    }
    assert!(x10.hall_lamp.is_on());
    // The PCM believes the same.
    let shadow = home
        .invoke_from(Middleware::X10, "hall-lamp", "status", &[])
        .unwrap();
    assert_eq!(shadow, Value::Bool(true));
}

#[test]
fn gateway_outage_yields_clean_errors_and_recovery() {
    let home = SmartHome::builder().build().unwrap();
    // Take the backbone down: all cross-island traffic fails with a
    // typed transport error that says the request never got out — the
    // resolution request to the VSR itself could not be delivered.
    home.backbone.set_down(true);
    let err = home
        .invoke_from(Middleware::Jini, "dv-camera", "status", &[])
        .unwrap_err();
    assert!(err.is_transport_failure(), "{err:?}");
    assert!(
        matches!(
            err,
            MetaError::Transport {
                not_executed: true,
                ..
            }
        ),
        "a dead backbone means guaranteed-not-executed: {err:?}"
    );
    home.backbone.set_down(false);
    home.invoke_from(Middleware::Jini, "dv-camera", "status", &[])
        .unwrap();
}

#[test]
fn backbone_partition_trips_the_breaker_then_a_probe_recloses_it() {
    let home = SmartHome::builder().build().unwrap();
    let jini_gw = home.jini.as_ref().unwrap().vsg.clone();
    let havi_gw = home.havi.as_ref().unwrap().vsg.clone();

    // Warm the route so the partitioned call takes the cached fast
    // path straight at havi-gw.
    home.invoke_from(Middleware::Jini, "dv-camera", "status", &[])
        .unwrap();

    // Partition the two gateways mid-run. Every attempt fails before
    // delivery; the resilience layer retries with backoff until the
    // virtual-time deadline binds, and the repeated failures trip the
    // per-gateway breaker.
    let t = home.sim.now();
    home.backbone.set_fault_plan(FaultPlan::new().partition(
        vec![jini_gw.node()],
        vec![havi_gw.node()],
        t,
        t + SimDuration::from_secs(30),
    ));
    let err = home
        .invoke_from(Middleware::Jini, "dv-camera", "status", &[])
        .unwrap_err();
    assert!(
        matches!(err, MetaError::DeadlineExceeded { .. }),
        "expected the deadline to bind: {err:?}"
    );
    assert_eq!(err.kind(), "deadline-exceeded");
    assert_eq!(jini_gw.breaker_state(havi_gw.node()), BreakerState::Open);
    assert!(
        jini_gw.metrics().snapshot().retries > 0,
        "retries were recorded"
    );

    // While the breaker is open, calls are rejected without touching
    // the wire at all.
    let err = home
        .invoke_from(Middleware::Jini, "dv-camera", "status", &[])
        .unwrap_err();
    assert!(
        matches!(&err, MetaError::CircuitOpen { gateway } if gateway == "havi-gw"),
        "{err:?}"
    );

    // The partition heals and the open window lapses: the next call is
    // admitted as a half-open probe, succeeds, and recloses the breaker.
    home.sim.advance(SimDuration::from_secs(40));
    home.backbone.clear_fault_plan();
    home.invoke_from(Middleware::Jini, "dv-camera", "status", &[])
        .unwrap();
    assert_eq!(jini_gw.breaker_state(havi_gw.node()), BreakerState::Closed);
}

#[test]
fn service_relocation_defeats_stale_routes() {
    // A service withdraws from one gateway and republishes at another;
    // cached routes must fail over (Vsg::invoke re-resolves).
    let home = SmartHome::builder().build().unwrap();
    let x10_gw = home.x10.as_ref().unwrap().vsg.clone();
    let havi_gw = home.havi.as_ref().unwrap().vsg.clone();

    // Warm the route cache.
    home.invoke_from(Middleware::Havi, "hall-lamp", "status", &[])
        .unwrap();

    // The lamp "moves": x10-gw withdraws, havi-gw exports an impostor.
    x10_gw.withdraw("hall-lamp").unwrap();
    havi_gw
        .export(
            metaware::VirtualService::new(
                "hall-lamp",
                metaware::catalog::lamp(),
                Middleware::Havi,
                havi_gw.name(),
            ),
            |_: &simnet::Sim, op: &str, _: &[(String, Value)]| match op {
                "status" => Ok(Value::Bool(true)),
                _ => Ok(Value::Null),
            },
        )
        .unwrap();

    let got = home
        .invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
        .unwrap();
    assert_eq!(got, Value::Bool(true), "re-resolved to the new host");
}

#[test]
fn motion_sensor_loss_is_an_absence_not_a_crash() {
    // On a noisy powerline a sensor's report can vanish entirely; the
    // polling path must simply see nothing.
    let home = SmartHome::builder()
        .noisy_powerline()
        .seed(9)
        .build()
        .unwrap();
    let x10 = home.x10.as_ref().unwrap();
    for _ in 0..3 {
        x10.motion.trigger();
    }
    // Regardless of what survived, the framework query works and the
    // event list parses.
    let events = home
        .invoke_from(Middleware::Havi, "hall-motion", "drain_events", &[])
        .unwrap();
    match events {
        Value::List(items) => assert!(items.len() <= 3),
        other => panic!("expected a list, got {other}"),
    }
}

/// The federated-VSR lease race: a shard primary crashes, the lease
/// expires, and a renewal races the reaper across replicas. Two laws:
///
/// 1. A renewal that *failed* (the record was already reaped on the
///    replica that took over) must not resurrect the record — not even
///    after the old primary heals and anti-entropy runs.
/// 2. A renewal that *succeeded* on the promoted backup must survive
///    the old primary's stale reaper: when the healed primary later
///    tombstones its (outdated) copy, the tombstone names the old
///    incarnation and bounces off the renewed record.
#[test]
fn vsr_lease_expiry_racing_renew_does_not_resurrect() {
    use metaware::{catalog, FederationConfig, Middleware, VirtualService, Vsr, VsrClient};
    use simnet::{Network, Sim};

    let sim = Sim::new(9);
    let net = Network::ethernet(&sim);
    let vsr = Vsr::start_federated(
        &net,
        &FederationConfig {
            shards: 1,
            replicas: 2,
            replication: 2,
            ..FederationConfig::default()
        },
    );
    vsr.set_lease_duration(Some(SimDuration::from_secs(60)));
    let client = VsrClient::new(&net, net.attach("pcm"), vsr.node());
    let lamp = VirtualService::new("hall-lamp", catalog::lamp(), Middleware::X10, "x10-gw");

    // ---- law 1: expired before the renew arrives -> stays dead ----------
    client.publish(&lamp).unwrap();
    let old_primary = vsr.primary_for("hall-lamp");
    let t0 = sim.now();
    net.set_fault_plan(FaultPlan::new().node_down(
        old_primary,
        t0,
        t0 + SimDuration::from_secs(120),
    ));
    // Past expiry while the primary is down: the renew fails over to
    // the backup, which reaps the lease first — nothing to renew.
    sim.advance(SimDuration::from_secs(90));
    assert!(
        !client.renew("hall-lamp").unwrap(),
        "reaped record must not renew"
    );
    assert_ne!(
        vsr.primary_for("hall-lamp"),
        old_primary,
        "the renew write promoted the backup"
    );
    assert!(client.resolve("hall-lamp").is_err(), "stays dead");

    // Heal and converge: the old primary still holds the record, but
    // the backup's expiry tombstone wins on sync (it reaped exactly
    // that incarnation). No resurrection.
    sim.advance(SimDuration::from_secs(60));
    net.clear_fault_plan();
    vsr.sync_now();
    assert!(
        client.resolve("hall-lamp").is_err(),
        "healed old primary must not resurrect the reaped record"
    );
    assert_eq!(vsr.service_count(), 0);

    // Republishing (the recovered gateway) brings it back everywhere.
    client.publish(&lamp).unwrap();
    assert!(client.resolve("hall-lamp").is_ok());
    vsr.sync_now();
    assert_eq!(vsr.replication_lag(), 0);

    // ---- law 2: renewed in time on the backup -> survives the stale
    // reaper on the healed primary -----------------------------------------
    let primary_now = vsr.primary_for("hall-lamp");
    let t1 = sim.now();
    net.set_fault_plan(FaultPlan::new().node_down(
        primary_now,
        t1,
        t1 + SimDuration::from_secs(65),
    ));
    // Renew mid-lease: fails over, promotes, restamps the lease (now
    // good until t1+90, while the crashed primary's stale copy still
    // says t1+60).
    sim.advance(SimDuration::from_secs(30));
    assert!(client.renew("hall-lamp").unwrap(), "mid-lease renew lands");

    // Heal after the *original* lease deadline has passed but within
    // the renewed one. The old primary's copy looks expired to it;
    // poke it directly (reads are served by any shard member, and
    // serving reaps due leases) so its stale reaper actually fires
    // before anti-entropy runs.
    sim.advance(SimDuration::from_secs(40));
    net.clear_fault_plan();
    let poker = soap::SoapClient::on_node(
        &net,
        net.attach("poker"),
        soap::CpuModel::default(),
        soap::TcpModel::default(),
    );
    let _ = poker.call(
        primary_now,
        &soap::RpcCall::new("urn:vsg:repository", "count").arg("shard", 0i64),
    );

    // Anti-entropy now reconciles a stale tombstone against the renewed
    // record: the tombstone names the pre-renewal incarnation, so the
    // renewal wins on every replica.
    vsr.sync_now();
    assert!(
        client.renew("hall-lamp").unwrap(),
        "renewed record survives the stale reaper"
    );
    assert!(client.resolve("hall-lamp").is_ok());
    assert_eq!(vsr.service_count(), 1);
}

/// The gateway memo — each gateway's remembered backbone node of every
/// gateway it has routed to — never strands a caller: a node proved
/// wrong is forgotten, and the call re-routes once, past both caches.
mod gateway_memo {
    use metaware::{
        catalog, BreakerState, HopKind, Middleware, ResiliencePolicy, SmartHome, VirtualService,
        Vsg,
    };
    use simnet::{FaultPlan, Sim, SimDuration};
    use soap::Value;

    /// The `gateway_node` lookups `gw` has sent since tracing was last
    /// drained.
    fn gateway_lookups(gw: &Vsg) -> usize {
        gw.tracer()
            .take_spans()
            .iter()
            .filter(|s| s.kind == HopKind::VsrLookup && s.name == "gateway_node")
            .count()
    }

    /// A null lamp behind gateway `gw`, answering `status` with `on`.
    fn export_lamp(gw: &Vsg, name: &str, on: bool) {
        gw.export(
            VirtualService::new(name, catalog::lamp(), Middleware::X10, gw.name()),
            move |_: &Sim, _: &str, _: &[(String, Value)]| Ok(Value::Bool(on)),
        )
        .unwrap();
    }

    #[test]
    fn a_gateway_restarted_on_a_fresh_node_strands_no_caller() {
        let home = SmartHome::builder().build().unwrap();
        let caller = home.gateway(Middleware::Jini).unwrap();
        let old = home.gateway(Middleware::X10).unwrap();
        assert_eq!(caller.resilience(), ResiliencePolicy::default());
        // The caller remembers x10-gw's node through the desk lamp, and
        // holds no route for the hall lamp.
        caller.clear_route_cache();
        caller
            .invoke(&home.sim, "desk-lamp", "status", &[])
            .unwrap();

        // x10-gw's node goes down for good, and a gateway of the same
        // name starts on a fresh node and re-exports the hall lamp.
        let t = home.sim.now();
        home.backbone.set_fault_plan(FaultPlan::new().node_down(
            old.node(),
            t,
            t + SimDuration::from_secs(3600),
        ));
        let fresh = Vsg::start(
            &home.backbone,
            "x10-gw",
            old.protocol().clone(),
            home.vsr.node(),
        )
        .unwrap();
        assert_ne!(fresh.node(), old.node());
        export_lamp(&fresh, "hall-lamp", true);

        // The hall lamp's record is fresh, but the remembered node is
        // the dead one: every attempt over it is lost before delivery,
        // the failures open its breaker, and the deadline ends the
        // retries. The VSR names another node for x10-gw, so every
        // route to the old node is dropped, and the re-route asks the
        // VSR for both.
        let failed_before = caller.metrics().snapshot().errors;
        caller.set_tracing(true);
        let answer = caller.invoke(&home.sim, "hall-lamp", "status", &[]);
        assert_eq!(answer, Ok(Value::Bool(true)));
        assert_eq!(caller.metrics().snapshot().errors, failed_before);
        assert_eq!(gateway_lookups(caller), 2, "the check, and the re-route's");
        assert_eq!(caller.breaker_state(old.node()), BreakerState::Open);
        // The fresh node is now the remembered one.
        export_lamp(&fresh, "porch-lamp", false);
        assert_eq!(
            caller.invoke(&home.sim, "porch-lamp", "status", &[]),
            Ok(Value::Bool(false))
        );
        assert_eq!(gateway_lookups(caller), 0);
        // The desk lamp's cached route named the dead node, whose open
        // breaker would refuse it; it was dropped with the node, so the
        // call resolves at once.
        export_lamp(&fresh, "desk-lamp", true);
        let before = home.sim.now();
        assert_eq!(
            caller.invoke(&home.sim, "desk-lamp", "status", &[]),
            Ok(Value::Bool(true))
        );
        assert!(home.sim.now() - before < SimDuration::from_millis(100));
        assert_eq!(caller.metrics().snapshot().errors, failed_before);
    }

    #[test]
    fn a_move_to_a_gateway_never_called_costs_one_lookup_then_none() {
        let home = SmartHome::builder().build().unwrap();
        let caller = home.gateway(Middleware::Jini).unwrap();
        let x10 = home.gateway(Middleware::X10).unwrap();
        let mail = home.gateway(Middleware::Mail).unwrap();
        caller.clear_route_cache();
        export_lamp(x10, "roaming-lamp", false);
        caller
            .invoke(&home.sim, "roaming-lamp", "status", &[])
            .unwrap();

        // The lamp moves to mail-gw, which this caller has never called.
        x10.withdraw("roaming-lamp").unwrap();
        export_lamp(mail, "roaming-lamp", true);
        caller.set_tracing(true);
        let answer = caller.invoke(&home.sim, "roaming-lamp", "status", &[]);
        assert_eq!(answer, Ok(Value::Bool(true)));
        assert_eq!(gateway_lookups(caller), 1, "mail-gw's node, once");

        // Later misses on mail-gw cost no lookup.
        for name in ["second-lamp", "third-lamp"] {
            export_lamp(mail, name, true);
            let answer = caller.invoke(&home.sim, name, "status", &[]);
            assert_eq!(answer, Ok(Value::Bool(true)), "{name}");
        }
        assert_eq!(gateway_lookups(caller), 0);
    }

    #[test]
    fn clearing_the_route_cache_drops_the_memo() {
        let home = SmartHome::builder().build().unwrap();
        let caller = home.gateway(Middleware::Jini).unwrap();
        caller
            .invoke(&home.sim, "hall-lamp", "status", &[])
            .unwrap();
        caller.set_tracing(true);
        for _ in 0..3 {
            caller.clear_route_cache();
            caller
                .invoke(&home.sim, "hall-lamp", "status", &[])
                .unwrap();
        }
        assert_eq!(gateway_lookups(caller), 3, "both round trips every call");
    }
}
