//! Outside-in wall probes: each layer is timed by calling its public
//! functions from here, on a twin home or a bare network, never by
//! instrumenting the layer itself.

use crate::alloc;
use crate::mix;
use crate::report::Outcome;
use crate::rng::Rng;
use crate::stats::median;
use crate::workload::{Scale, Workload};
use crate::world::{self, Op, World};
use metaware::protocol::binval;
use metaware::{
    BatchCall, BatchItem, BatchPolicy, MetaError, Middleware, VirtualService, Vsg, VsgProtocol,
    VsgRequest,
};
use simnet::{Network, NodeId, Sim, SimDuration, SimTime};
use soap::{HttpRequest, HttpRequestRef, Value, RPC_ROUTER_PATH};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Wall nanoseconds `f` takes.
fn time_ns<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_nanos() as f64
}

/// Median wall nanoseconds of `reps` runs of `f`.
fn median_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| time_ns(&mut f)).collect();
    median(&samples)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The workload's codec between two nodes of a bare network, the
/// server a null handler: the wire layer alone.
struct Bare {
    net: Network,
    codec: Arc<dyn VsgProtocol>,
    client: NodeId,
    server: NodeId,
}

impl Bare {
    fn new(workload: Workload) -> Bare {
        let net = Network::ethernet(&Sim::new(world::HOME_SEED));
        let codec = world::protocol(workload);
        let null = Arc::new(|_: &Sim, _: &VsgRequest| Ok(Value::Null));
        let server = codec.bind(&net, "probe-gw", null);
        let client = net.attach("probe-client");
        Bare {
            net,
            codec,
            client,
            server,
        }
    }

    fn call(&self, req: &VsgRequest) -> Result<Value, MetaError> {
        self.codec.call(&self.net, self.client, self.server, req)
    }
}

/// `protocol.call_allocs`, `.call_bytes`, `.encode_ns`, `.decode_ns`:
/// one fixed request through the bare wire, and through the codec's
/// encode and decode functions alone.
pub fn protocol(workload: Workload, scale: Scale, o: &mut Outcome) {
    let reps = scale.of(20_000, 200);
    let bare = Bare::new(workload);
    let req = VsgRequest::new("tv-tuner", "set_channel").arg("channel", 42);
    for _ in 0..reps / 10 {
        bare.call(&req).expect("null handler answers");
    }
    let (a0, _) = alloc::snapshot();
    let b0 = bare.net.with_stats(|s| s.total().bytes);
    for _ in 0..reps {
        bare.call(&req).expect("null handler answers");
    }
    let (a1, _) = alloc::snapshot();
    let b1 = bare.net.with_stats(|s| s.total().bytes);
    o.set("protocol.call_allocs", (a1 - a0) as f64 / reps as f64);
    o.set("protocol.call_bytes", (b1 - b0) as f64 / reps as f64);

    let service = Value::Str("tv-tuner".to_owned());
    let channel = Value::Int(42);
    let args = [("__service", &service), ("channel", &channel)];
    let (encode_ns, decode_ns) = if bare.codec.name() == "soap" {
        let encode = || {
            let body = soap::call_envelope("urn:vsg:gateway", "set_channel", args);
            HttpRequest::post(RPC_ROUTER_PATH, "text/xml; charset=utf-8", body).to_bytes()
        };
        let wire = encode();
        let decode = || {
            let req = HttpRequestRef::parse(&wire).expect("own request parses");
            let body = std::str::from_utf8(req.body).expect("utf-8 envelope");
            minixml::parse_ref(body).map(|e| e.elements().count())
        };
        (median_ns(reps, encode), median_ns(reps, decode))
    } else {
        let record = Value::Record(vec![
            ("s".to_owned(), service.clone()),
            ("o".to_owned(), Value::Str("set_channel".to_owned())),
            (
                "a".to_owned(),
                Value::Record(vec![("channel".to_owned(), channel.clone())]),
            ),
        ]);
        let encode = || {
            let mut out = Vec::new();
            binval::encode(&record, &mut out);
            out
        };
        let wire = encode();
        let decode = || binval::from_bytes_ref(&wire).map(|v| v.field("s").is_some());
        (median_ns(reps, encode), median_ns(reps, decode))
    };
    o.set("protocol.encode_ns", encode_ns);
    o.set("protocol.decode_ns", decode_ns);
}

/// The warm-call ledger and the repository/cache probes, on the twin
/// world, over call-type ops taken from the workload's own stream.
///
/// Each probed call is timed four ways: the warm remote call, its
/// route-cache hit, the same request over the bare wire, and the same
/// op on the gateway that serves it. What the remote call spends
/// beyond those three is the gateway's own (`vsg.self_ns`), so the
/// parts sum to `vsg.remote_ns` exactly.
pub fn ledger(world: &World, workload: Workload, ops: &[Op], scale: Scale, o: &mut Outcome) {
    const REPS: usize = 3;
    let caller = world.probe_caller();
    let sim = world.home.sim.clone();
    let bare = Bare::new(workload);
    let calls: Vec<(Middleware, Vsg, VsgRequest)> = ops
        .iter()
        .filter_map(|op| {
            let req = world.request(op)?;
            let (island, owner) = world.owner_of(op);
            Some((island, owner, req))
        })
        .take(scale.of(1024, 64))
        .collect();

    // In-stream resolution: a cold cache filled in the workload's order.
    caller.clear_route_cache();
    let resolves: Vec<f64> = calls
        .iter()
        .map(|(_, _, req)| time_ns(|| caller.resolve_cached(&req.service)))
        .collect();
    o.set("rescache.resolve_ns", mean(&resolves));
    let live: Vec<f64> = calls
        .iter()
        .map(|(_, _, req)| median_ns(REPS, || caller.vsr().resolve(&req.service)))
        .collect();
    o.set("vsr.resolve_ns", mean(&live));

    let (mut remote, mut hit, mut wire, mut selfs) = (vec![], vec![], vec![], vec![]);
    let mut local: [Vec<f64>; 4] = Default::default();
    for (island, owner, req) in &calls {
        let (service, operation, args) = (req.service.as_str(), &req.operation, &req.args);
        caller
            .invoke(&sim, service, operation, args)
            .expect("warm-up of a probed call");
        let r = median_ns(REPS, || caller.invoke(&sim, service, operation, args));
        let h = median_ns(REPS, || caller.resolve_cached(service));
        let w = median_ns(REPS, || bare.call(req));
        let l = median_ns(REPS, || owner.invoke(&sim, service, operation, args));
        let slot = mix::ISLANDS
            .iter()
            .position(|m| m == island)
            .expect("island");
        local[slot].push(l);
        remote.push(r);
        hit.push(h);
        wire.push(w);
        selfs.push(r - h - w - l);
    }
    o.set("vsg.remote_ns", mean(&remote));
    o.set("rescache.hit_ns", mean(&hit));
    o.set("protocol.call_ns", mean(&wire));
    for (slot, island) in mix::ISLANDS.iter().enumerate() {
        o.set(
            &format!("pcm.local_ns.{}", island.label()),
            mean(&local[slot]),
        );
    }
    let vsg_self = mean(&selfs);
    o.set("vsg.self_ns", vsg_self);
    // Timings of a debug build at smoke scale say nothing about costs.
    if scale == Scale::Full {
        o.check(vsg_self >= 0.0, || {
            format!("the gateway's own share of a remote call is negative: {vsg_self:.0} ns")
        });
    }
}

/// `vsr.move_ns`, `federation.sync_ns`, `compose.*` and
/// `batch.member_ns` on the twin world.
pub fn control_plane(world: &World, scale: Scale, o: &mut Outcome) {
    let reps = scale.of(400, 20);
    let home = &world.home;
    let sim = home.sim.clone();
    let gw = |mw| home.gateway(mw).cloned().expect("standard island");

    // A probe-only service hops between two gateways.
    let hosts = [gw(Middleware::Jini), gw(Middleware::X10)];
    let probe = |k: usize| {
        VirtualService::new(
            "hmbench-probe",
            metaware::catalog::lamp(),
            mix::ISLANDS[[0, 2][k]],
            hosts[k].name(),
        )
    };
    let invoker = |_: &Sim, _: &str, _: &[(String, Value)]| Ok(Value::Bool(true));
    hosts[0].export(probe(0), invoker).expect("probe export");
    let mut at = 0;
    let move_ns = median_ns(reps, || {
        hosts[at].withdraw("hmbench-probe").expect("probe withdraw");
        at = 1 - at;
        hosts[at].export(probe(at), invoker).expect("probe export");
    });
    o.set("vsr.move_ns", move_ns);
    o.set(
        "federation.sync_ns",
        median_ns(reps, || home.vsr.sync_now()),
    );

    // The composite from a gateway that hosts none of its steps,
    // against its steps invoked from the hosting gateway.
    let caller = world.probe_caller();
    let host = gw(mix::SCENE_HOST);
    if host.local_interface(mix::SCENE).is_none() {
        mix::register_scene(home).expect("scene registers");
    }
    caller
        .invoke(&sim, mix::SCENE, "run", &[])
        .expect("scene warm-up");
    let invoke_ns = median_ns(reps, || caller.invoke(&sim, mix::SCENE, "run", &[]));
    let steps_ns: f64 = mix::scene_spec()
        .steps
        .iter()
        .map(|step| {
            host.invoke(&sim, &step.service, &step.operation, &[])
                .expect("scene step warm-up");
            median_ns(reps, || {
                host.invoke(&sim, &step.service, &step.operation, &[])
            })
        })
        .sum();
    o.set("compose.invoke_ns", invoke_ns);
    o.set("compose.engine_self_ns", invoke_ns - steps_ns);

    // An 8-member batch train from the probe caller.
    const MEMBERS: usize = 8;
    caller.set_batching(BatchPolicy {
        max_batch: MEMBERS,
        ..BatchPolicy::default()
    });
    let items: Vec<BatchItem> = (0..MEMBERS)
        .map(|_| BatchItem::Call(BatchCall::new("hall-lamp", "status")))
        .collect();
    caller.invoke_batch(&sim, &items);
    let train_ns = median_ns(reps, || caller.invoke_batch(&sim, &items));
    o.set("batch.member_ns", train_ns / MEMBERS as f64);
}

/// `simnet.event_ns.d*`: one `schedule_in` plus the `step` that fires
/// it, on a bare `Sim` already holding 10²…10⁶ far-future events.
pub fn event_queue_sweep(seed: u64, scale: Scale, o: &mut Outcome) {
    let iters = scale.of(200_000, 2_000);
    for depth in [100usize, 1_000, 10_000, 100_000, 1_000_000] {
        let sim = Sim::new(seed);
        let mut rng = Rng::new(seed, depth as u64);
        let far = SimTime::from_micros(1 << 40);
        for _ in 0..depth {
            sim.schedule_at(far + SimDuration::from_micros(rng.below(1 << 30)), |_| {});
        }
        let tick = SimDuration::from_micros(1);
        for _ in 0..iters / 10 {
            sim.schedule_in(tick, |_| {});
            sim.step();
        }
        let t = Instant::now();
        for _ in 0..iters {
            sim.schedule_in(tick, |_| {});
            sim.step();
        }
        let ns = t.elapsed().as_nanos() as f64 / iters as f64;
        o.set(&format!("simnet.event_ns.d{depth}"), ns);
    }
}
