//! `obs::Scope` is the one instrumentation point: these tests pin the
//! rule that only child scopes of a layered kind feed a layer sketch
//! (exactly one sample, exemplar = the span's trace id), while root
//! scopes and `Tracer::note` instants feed none — plus the two call
//! sites that used to skip their sketch.

use metaware::obs::{bucket_of, Scope, LAYERS};
use metaware::pcm::x10::X10Pcm;
use metaware::{
    BatchCall, BatchItem, CompositeSpec, HopKind, Layer, MetaError, MetricsRegistry, Middleware,
    OpSig, ServiceInterface, Soap11, StepSpec, Tracer, TypeTag, VirtualService, Vsg, Vsr,
};
use simnet::{Network, Sim, SimDuration};
use soap::Value;
use std::sync::Arc;

const ALL_KINDS: [HopKind; 12] = [
    HopKind::ClientProxy,
    HopKind::PcmConvert,
    HopKind::VsrLookup,
    HopKind::CacheHit,
    HopKind::VsgWire,
    HopKind::ServerProxy,
    HopKind::App,
    HopKind::Event,
    HopKind::Resilience,
    HopKind::Federation,
    HopKind::Cloud,
    HopKind::Compose,
];

fn layer_counts(metrics: &MetricsRegistry) -> Vec<u64> {
    let snap = metrics.snapshot();
    LAYERS.iter().map(|l| snap.layer(*l).count).collect()
}

#[test]
fn child_scope_of_a_layered_kind_adds_one_sample_with_its_trace_as_exemplar() {
    let layered = [
        (HopKind::VsrLookup, Layer::Vsr),
        (HopKind::VsgWire, Layer::Wire),
        (HopKind::PcmConvert, Layer::Pcm),
        (HopKind::App, Layer::App),
        (HopKind::Compose, Layer::Compose),
    ];
    for kind in ALL_KINDS {
        assert_eq!(
            Layer::of(kind),
            layered.iter().find(|(k, _)| *k == kind).map(|(_, l)| *l),
            "{kind}"
        );
    }
    for (kind, layer) in layered {
        let sim = Sim::new(1);
        let tracer = Tracer::new("gw");
        tracer.set_enabled(true);
        let metrics = MetricsRegistry::new();
        let scope = Scope::child(&sim, &tracer, &metrics, kind, || "hop".into());
        let trace = scope.trace_id().expect("traced scope has a trace");
        sim.advance(SimDuration::from_micros(300));
        scope.finish(&Ok::<(), MetaError>(()));

        let snap = metrics.snapshot();
        for other in LAYERS {
            let want = u64::from(other == layer);
            assert_eq!(snap.layer(other).count, want, "{kind} fed {other:?}");
        }
        assert_eq!(snap.layer(layer).exemplar(bucket_of(300)), Some(trace));
        let spans = tracer.take_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].trace, spans[0].kind), (trace, kind));
        assert_eq!(spans[0].elapsed(), SimDuration::from_micros(300));
    }
}

#[test]
fn roots_notes_and_unlayered_children_feed_no_sketch() {
    for traced in [false, true] {
        let sim = Sim::new(1);
        let tracer = Tracer::new("gw");
        tracer.set_enabled(traced);
        let metrics = MetricsRegistry::new();
        for kind in ALL_KINDS {
            let root = Scope::root(&sim, &tracer, &metrics, kind, || "root".into());
            sim.advance(SimDuration::from_micros(50));
            root.finish(&Err::<(), _>("boom"));
            tracer.note(&sim, kind, || "note".into());
            if Layer::of(kind).is_none() {
                drop(Scope::child(&sim, &tracer, &metrics, kind, || {
                    "child".into()
                }));
            }
        }
        assert!(layer_counts(&metrics).iter().all(|&n| n == 0));
        let spans = tracer.take_spans();
        assert_eq!(spans.len(), if traced { 12 + 12 + 7 } else { 0 });
        if traced {
            let roots = spans.iter().filter(|s| s.name == "root");
            assert!(roots.clone().all(|s| s.parent.is_none()));
            assert!(roots.clone().all(|s| s.error.as_deref() == Some("boom")));
        }
    }
}

#[test]
fn byte_charge_is_read_only_while_traced() {
    for traced in [false, true] {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let (a, b) = (net.attach("a"), net.attach("b"));
        let tracer = Tracer::new("gw");
        tracer.set_enabled(traced);
        let metrics = MetricsRegistry::new();
        let scope = Scope::child(&sim, &tracer, &metrics, HopKind::VsgWire, || "wire".into())
            .bytes_from(&net);
        net.send(simnet::Frame::new(
            a,
            b,
            simnet::Protocol::Raw,
            vec![0u8; 120],
        ))
        .unwrap();
        drop(scope);
        let spans = tracer.take_spans();
        assert_eq!(
            spans.iter().map(|s| s.bytes).sum::<u64>(),
            if traced { 120 } else { 0 }
        );
        assert_eq!(metrics.snapshot().layer(Layer::Wire).count, 1);
    }
}

fn gateway() -> (Sim, Network, Vsr, Vsg) {
    let sim = Sim::new(1);
    let backbone = Network::ethernet(&sim);
    let vsr = Vsr::start(&backbone);
    let vsg = Vsg::start(&backbone, "gw", Arc::new(Soap11::new()), vsr.node()).unwrap();
    (sim, backbone, vsr, vsg)
}

#[test]
fn batch_members_are_notes_splitting_the_frame_bytes() {
    let (sim, backbone, vsr, server) = gateway();
    let caller = Vsg::start(&backbone, "caller", Arc::new(Soap11::new()), vsr.node()).unwrap();
    let lamp = ServiceInterface::new("Lamp").op(OpSig::new("status").returns(TypeTag::Bool));
    server
        .export(
            VirtualService::new("lamp", lamp, Middleware::X10, "gw"),
            |_: &Sim, _: &str, _: &[(String, Value)]| Ok(Value::Bool(true)),
        )
        .unwrap();
    caller.invoke(&sim, "lamp", "status", &[]).unwrap();
    caller.set_tracing(true);
    let wire_before = caller.metrics().snapshot().layer(Layer::Wire).count;
    let bytes_before = backbone.with_stats(|s| s.total().bytes);

    let items = vec![BatchItem::Call(BatchCall::new("lamp", "status")); 3];
    assert!(caller.invoke_batch(&sim, &items).iter().all(Result::is_ok));

    let moved = backbone.with_stats(|s| s.total().bytes) - bytes_before;
    // One frame, one wire sample: the member notes feed no sketch.
    let wire = caller.metrics().snapshot().layer(Layer::Wire).count;
    assert_eq!(wire, wire_before + 1);
    let spans = caller.tracer().take_spans();
    let frame = spans
        .iter()
        .find(|s| s.name.starts_with("batch of 3"))
        .expect("frame span");
    let members: Vec<_> = spans
        .iter()
        .filter(|s| s.parent == Some(frame.id))
        .collect();
    assert_eq!(members.len(), 3);
    assert_eq!(frame.bytes, 0);
    assert_eq!(members.iter().map(|s| s.bytes).sum::<u64>(), moved);
}

#[test]
fn x10_sensor_read_lands_in_the_pcm_sketch() {
    let (sim, _backbone, _vsr, vsg) = gateway();
    let serial = Network::serial(&sim);
    let powerline = Network::new(&sim, "powerline", simnet::netkind::powerline());
    let cm11a = x10::Cm11a::install(&serial, &powerline);
    let pcm = X10Pcm::start(
        &vsg,
        &sim,
        x10::Cm11aDriver::new(&serial, cm11a.serial_node()),
    );
    let house = x10::HouseCode::new('C').unwrap();
    pcm.import_sensor("hall-motion", house, x10::UnitCode::new(9).unwrap())
        .unwrap();

    vsg.invoke(&sim, "hall-motion", "state", &[]).unwrap();
    let snap = vsg.metrics().snapshot();
    assert_eq!(snap.layer(Layer::Pcm).count, 1);
    assert_eq!(snap.layer(Layer::App).count, 1);
}

#[test]
fn compensation_lands_in_the_compose_sketch() {
    let (sim, _backbone, _vsr, vsg) = gateway();
    let stage = ServiceInterface::new("Stage")
        .op(OpSig::new("fire").returns(TypeTag::Int))
        .op(OpSig::new("unfire"));
    vsg.export(
        VirtualService::new("stage", stage, Middleware::Jini, "gw"),
        |_: &Sim, _: &str, _: &[(String, Value)]| Ok(Value::Int(1)),
    )
    .unwrap();
    vsg.register_composite(
        CompositeSpec::new("fire-then-fail")
            .step(StepSpec::new("stage", "fire").compensate("unfire", vec![]))
            .step(StepSpec::new("stage", "explode")),
    )
    .unwrap();

    assert!(vsg.invoke(&sim, "fire-then-fail", "run", &[]).is_err());
    let snap = vsg.metrics().snapshot();
    assert_eq!(snap.compose_compensations, 1);
    // Two forward steps and one compensating undo: one sample each.
    assert_eq!(snap.layer(Layer::Compose).count, 3);
}
