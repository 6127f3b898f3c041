//! E15: the federated VSR at scale (DESIGN.md §11).
//!
//! The paper's repository is one process; ours can be a sharded,
//! replicated federation. This bench measures what that buys and what
//! it costs:
//!
//!  * **repository throughput vs cluster shape** — publishes/sec and
//!    resolves/sec at (1 replica, 1 shard), (2, 4) and (4, 8).
//!    Replication taxes writes (eager push per backup); reads must
//!    stay a single round trip regardless of shape;
//!  * **availability under primary-crash chaos** — a gateway polling
//!    an invoke (route cache cleared per poll, degraded stale-serving
//!    off) while the service's shard primary crashes for two 10-second
//!    windows out of 60. Replication on must hold ≥ 99%; a single
//!    replica under the same schedule must not;
//!  * **what one anti-entropy pass sends** — backbone bytes of one
//!    3r/4s pass when the eager push already converged every backup
//!    (a fingerprint exchange per backup, nothing else), and after one
//!    lost push (one shard also swaps a digest and fetches one name).
//!    Both passes must leave lag 0;
//!  * **what the repository plane allocates** — heap allocations per
//!    warm `resolve`, per `gateway_node` and per `publish` (a service
//!    moving gateways) on a 3r/4s cluster, client and replicas
//!    together, counted by the bench's allocator the way E18 counts
//!    its codec rows. A warm resolve must stay at or under
//!    [`MAX_RESOLVE_ALLOCS`] and a gateway-moving publish at or under
//!    [`MAX_PUBLISH_ALLOCS`].
//!
//! The threshold assertions live inside the report functions so
//! `cargo bench --bench e15_vsr_scale` (run by `ci.sh --stage bench`)
//! exercises them.
//!
//! Emits `BENCH_vsr_scale.json`.

use bench::{cell, Report};
use metaware::{
    catalog, FederationConfig, Middleware, ResiliencePolicy, Soap11, VirtualService, Vsg,
    VsgProtocol, Vsr, VsrClient,
};
use simnet::{FaultPlan, Network, Sim, SimDuration};
use soap::Value;
use std::sync::Arc;

const SERVICES: usize = 48;
const RESOLVES: usize = 192;

/// The bar for a warm resolve's allocations: the unescaped WSDL text
/// (1), with the call and reply buffers the network's spares, the
/// reply's strings read in place, its names interned and its interface
/// the one the client already holds.
const MAX_RESOLVE_ALLOCS: f64 = 2.0;

/// The bar for a gateway-moving publish's allocations, client and
/// replicas together: the client writes its WSDL document straight from
/// the interface, and no UDDI key is formatted or cloned.
const MAX_PUBLISH_ALLOCS: f64 = 28.0;

/// Counts heap allocations for the repository-plane rows. Only the
/// bench harness pays this; the repository itself is unchanged.
#[global_allocator]
static A: bench::CountingAlloc = bench::CountingAlloc;

fn service(name: &str, gateway: &str) -> VirtualService {
    VirtualService::new(name, catalog::lamp(), Middleware::X10, gateway)
}

fn cluster(seed: u64, shards: u32, replicas: usize) -> (Sim, Network, Vsr, VsrClient) {
    let sim = Sim::new(seed);
    let net = Network::ethernet(&sim);
    let vsr = Vsr::start_federated(
        &net,
        &FederationConfig {
            shards,
            replicas,
            replication: 2,
            ..FederationConfig::default()
        },
    );
    let node = net.attach("pcm");
    let client = VsrClient::new(&net, node, vsr.node());
    (sim, net, vsr, client)
}

struct ShapeRun {
    publishes_per_sec: f64,
    resolves_per_sec: f64,
    lag_after_sync: u64,
}

/// Publishes `SERVICES` services then resolves round-robin, measuring
/// both against virtual time.
fn run_shape(shards: u32, replicas: usize) -> ShapeRun {
    let (sim, _net, vsr, client) = cluster(13, shards, replicas);
    let names: Vec<String> = (0..SERVICES).map(|i| format!("svc-{i:02}")).collect();

    let t0 = sim.now();
    for name in &names {
        client.publish(&service(name, "x10-gw")).unwrap();
    }
    let publish_dt = sim.now().since(t0);

    let t1 = sim.now();
    for i in 0..RESOLVES {
        client.resolve(&names[i % names.len()]).unwrap();
    }
    let resolve_dt = sim.now().since(t1);

    ShapeRun {
        publishes_per_sec: SERVICES as f64 / publish_dt.as_secs_f64(),
        resolves_per_sec: RESOLVES as f64 / resolve_dt.as_secs_f64(),
        lag_after_sync: {
            vsr.sync_now();
            vsr.replication_lag()
        },
    }
}

/// A gateway pair on a federated cluster, polling one invoke per 500ms
/// for 60s while the service's shard primary is crashed for two
/// 10-second windows. Degraded stale-route serving is disabled and the
/// route cache cleared per poll, so every poll needs a live resolve —
/// the measurement isolates what replication buys. Returns the success
/// ratio.
fn availability_under_primary_crash(replicas: usize) -> f64 {
    let (sim, net, vsr, _client) = cluster(42, 4, replicas);
    let protocol: Arc<dyn VsgProtocol> = Arc::new(Soap11::new());
    let server = Vsg::start(&net, "gw-server", protocol.clone(), vsr.node()).unwrap();
    let caller = Vsg::start(&net, "gw-caller", protocol, vsr.node()).unwrap();
    server
        .export(
            service("chaos-lamp", "gw-server"),
            |_: &Sim, op: &str, _: &[(String, Value)]| match op {
                "status" => Ok(Value::Bool(true)),
                _ => Ok(Value::Null),
            },
        )
        .unwrap();
    caller.set_resilience(ResiliencePolicy {
        degraded_reads: false,
        ..ResiliencePolicy::default()
    });

    let t0 = sim.now();
    let primary = vsr.primary_for("chaos-lamp");
    let at = |s: u64| t0 + SimDuration::from_secs(s);
    net.set_fault_plan(
        FaultPlan::new()
            .node_down(primary, at(10), at(20))
            .node_down(primary, at(30), at(40)),
    );
    let step = SimDuration::from_millis(500);
    let total_steps = 120u32; // 60 s
    let mut ok = 0u32;
    for _ in 0..total_steps {
        sim.advance(step);
        caller.clear_route_cache();
        if caller.invoke(&sim, "chaos-lamp", "status", &[]).is_ok() {
            ok += 1;
        }
    }
    net.clear_fault_plan();
    f64::from(ok) / f64::from(total_steps)
}

/// Backbone bytes of one anti-entropy pass over a 3r/4s cluster holding
/// `SERVICES` records: first converged, then after the eager push of
/// one republish was lost (its shard's backup was partitioned from the
/// primary for the write).
fn anti_entropy_pass_bytes() -> (u64, u64) {
    let (sim, net, vsr, client) = cluster(17, 4, 3);
    for i in 0..SERVICES {
        client
            .publish(&service(&format!("svc-{i:02}"), "x10-gw"))
            .unwrap();
    }
    let pass = || {
        let before = net.with_stats(|s| s.total().bytes);
        let lag = vsr.sync_now();
        assert_eq!(lag, 0, "one anti-entropy pass must converge");
        net.with_stats(|s| s.total().bytes) - before
    };
    let converged = pass();

    let map = vsr.shard_map();
    let shard = map.shard_of("svc-00");
    let (primary, backup) = (map.primary(shard), map.replicas_for(shard)[1]);
    let t0 = sim.now();
    net.set_fault_plan(FaultPlan::new().partition(
        vec![primary],
        vec![backup],
        t0,
        t0 + SimDuration::from_secs(1),
    ));
    client.publish(&service("svc-00", "x10-gw-2")).unwrap();
    net.clear_fault_plan();
    assert!(vsr.replication_lag() > 0, "the push must have been lost");
    (converged, pass())
}

/// Allocations per call of `op`, averaged over `n` calls.
fn allocs_per_call(n: usize, mut op: impl FnMut(usize)) -> f64 {
    let before = bench::allocs();
    for i in 0..n {
        op(i);
    }
    (bench::allocs() - before) as f64 / n as f64
}

/// Allocations per warm repository call on a 3r/4s cluster holding
/// `SERVICES` records: a `resolve` (one round trip to the owning
/// shard), a `gateway_node` lookup, and a `publish` that moves a
/// service to another gateway (replicated to its shard's backup).
/// Everything a call needs is built before counting starts.
fn repository_allocs() -> (f64, f64, f64) {
    let (_sim, net, _vsr, client) = cluster(19, 4, 3);
    let names: Vec<String> = (0..SERVICES).map(|i| format!("svc-{i:02}")).collect();
    for name in &names {
        client.publish(&service(name, "x10-gw")).unwrap();
    }
    client
        .register_gateway("x10-gw", net.attach("x10-gw"))
        .unwrap();
    for name in &names {
        client.resolve(name).unwrap();
    }
    client.gateway_node("x10-gw").unwrap();
    let moves: Vec<VirtualService> = names.iter().map(|n| service(n, "x10-gw-2")).collect();

    let resolve = allocs_per_call(RESOLVES, |i| {
        client.resolve(&names[i % names.len()]).unwrap();
    });
    let gateway_node = allocs_per_call(RESOLVES, |_| {
        client.gateway_node("x10-gw").unwrap();
    });
    let publish = allocs_per_call(SERVICES, |i| client.publish(&moves[i]).unwrap());
    (resolve, gateway_node, publish)
}

fn scale_report() {
    let mut report = Report::new(
        "E15",
        "federated VSR: throughput vs cluster shape, availability under primary crashes",
        &["workload", "cluster", "value", "unit"],
    );

    let mut base_resolves = 0.0;
    let mut wide_resolves = 0.0;
    for (replicas, shards) in [(1usize, 1u32), (2, 4), (4, 8)] {
        let run = run_shape(shards, replicas);
        let label = format!("{replicas}r/{shards}s");
        report.row(vec![
            "publish".into(),
            label.clone(),
            format!("{:.0}", run.publishes_per_sec),
            "publishes/sec".into(),
        ]);
        report.row(vec![
            "resolve".into(),
            label.clone(),
            format!("{:.0}", run.resolves_per_sec),
            "resolves/sec".into(),
        ]);
        report.row(vec![
            "replication lag after sync".into(),
            label,
            cell(run.lag_after_sync),
            "entries".into(),
        ]);
        assert_eq!(
            run.lag_after_sync, 0,
            "anti-entropy must converge a quiet cluster ({replicas}r/{shards}s)"
        );
        if replicas == 1 {
            base_resolves = run.resolves_per_sec;
        }
        if replicas == 4 {
            wide_resolves = run.resolves_per_sec;
        }
    }
    assert!(
        wide_resolves >= 0.5 * base_resolves,
        "sharding must not crater reads: {wide_resolves:.0}/sec vs {base_resolves:.0}/sec single-node"
    );

    let replicated = availability_under_primary_crash(3);
    let single = availability_under_primary_crash(1);
    report.row(vec![
        "invoke availability, primary crashed 20s/60s".into(),
        "3r/4s".into(),
        format!("{:.1}", replicated * 100.0),
        "%".into(),
    ]);
    report.row(vec![
        "invoke availability, primary crashed 20s/60s".into(),
        "1r/4s".into(),
        format!("{:.1}", single * 100.0),
        "%".into(),
    ]);
    assert!(
        replicated >= 0.99,
        "replication must hold >= 99% invoke availability through primary crashes, got {:.1}%",
        replicated * 100.0
    );
    assert!(
        single < 0.99,
        "a single replica must not mask its own crash windows, got {:.1}%",
        single * 100.0
    );
    assert!(
        replicated > single,
        "replication must strictly improve availability"
    );

    let (converged, missed_push) = anti_entropy_pass_bytes();
    report.row(vec![
        "anti-entropy pass, converged".into(),
        "3r/4s".into(),
        cell(converged),
        "backbone B".into(),
    ]);
    report.row(vec![
        "anti-entropy pass, one missed push".into(),
        "3r/4s".into(),
        cell(missed_push),
        "backbone B".into(),
    ]);
    assert!(
        converged < missed_push,
        "a converged pass must send less than a repairing one"
    );

    let (resolve, gateway_node, publish) = repository_allocs();
    assert!(
        resolve <= MAX_RESOLVE_ALLOCS,
        "a warm resolve must allocate at most {MAX_RESOLVE_ALLOCS}, got {resolve:.1}"
    );
    assert!(
        publish <= MAX_PUBLISH_ALLOCS,
        "a gateway-moving publish must allocate at most {MAX_PUBLISH_ALLOCS}, got {publish:.1}"
    );
    for (workload, allocs) in [
        ("allocs per warm resolve", resolve),
        ("allocs per gateway_node", gateway_node),
        ("allocs per publish (gateway move)", publish),
    ] {
        report.row(vec![
            workload.into(),
            "3r/4s".into(),
            format!("{allocs:.1}"),
            "allocs/op".into(),
        ]);
    }

    report.emit_as("BENCH_vsr_scale.json");
}

fn main() {
    scale_report();
}
