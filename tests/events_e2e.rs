//! End-to-end event delivery across the full home (the §4.2 problem).

use metaware::{
    BatchPolicy, BridgeStats, Middleware, PollingBridge, SipLike, SipPublisher, SipSubscriber,
    SmartHome,
};
use parking_lot::Mutex;
use proptest::prelude::*;
use simnet::{netkind, LinkModel, Network, Protocol, Sim, SimDuration};
use soap::Value;
use std::sync::Arc;

#[test]
fn polling_bridge_moves_sensor_events_between_islands() {
    let home = SmartHome::builder().build().unwrap();
    let havi_gw = home.havi.as_ref().unwrap().vsg.clone();

    let seen: Arc<Mutex<Vec<Value>>> = Arc::new(Mutex::new(Vec::new()));
    let seen2 = seen.clone();
    let bridge = PollingBridge::start(
        &havi_gw,
        "hall-motion",
        SimDuration::from_secs(1),
        move |_, e| seen2.lock().push(e.clone()),
    );

    home.sim.run_for(SimDuration::from_secs(2));
    assert!(seen.lock().is_empty(), "no events yet");

    home.x10.as_ref().unwrap().motion.trigger();
    home.sim.run_for(SimDuration::from_secs(3));

    let seen = seen.lock();
    assert_eq!(seen.len(), 1);
    assert_eq!(seen[0].field("active"), Some(&Value::Bool(true)));
    let stats = bridge.stats();
    assert!(
        stats.carrier_messages >= 4,
        "idle polls happened: {stats:?}"
    );
    assert_eq!(stats.events_delivered, 1);
}

#[test]
fn push_beats_polling_on_latency_and_idle_cost() {
    // Identical scenario, both strategies, measured.
    let poll_latency_us;
    let poll_carriers;
    {
        let home = SmartHome::builder().build().unwrap();
        let havi_gw = home.havi.as_ref().unwrap().vsg.clone();
        let got: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
        let got2 = got.clone();
        let bridge = PollingBridge::start(
            &havi_gw,
            "hall-motion",
            SimDuration::from_secs(5),
            move |sim, _| {
                got2.lock().get_or_insert(sim.now().as_micros());
            },
        );
        home.sim.run_for(SimDuration::from_secs(12)); // idle polls
        let fired = home.sim.now();
        home.x10.as_ref().unwrap().motion.trigger();
        home.sim.run_for(SimDuration::from_secs(10));
        poll_latency_us = got.lock().unwrap() - fired.as_micros();
        poll_carriers = bridge.stats().carrier_messages;
        bridge.stop();
    }

    let push_latency_us;
    let push_carriers;
    {
        let home = SmartHome::builder().build().unwrap();
        let x10 = home.x10.as_ref().unwrap();
        let havi_gw = home.havi.as_ref().unwrap().vsg.clone();
        let publisher = SipPublisher::new(&home.backbone, x10.vsg.node());
        publisher.subscribe(havi_gw.node(), "%");
        let p2 = publisher.clone();
        x10.pcm.set_sensor_hook(move |_, svc, e| p2.publish(svc, e));
        let _pump = x10.pcm.start_polling(SimDuration::from_millis(100));

        let got: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
        let got2 = got.clone();
        let _sub = SipSubscriber::install(&home.backbone, havi_gw.node(), move |sim, _, _| {
            got2.lock().get_or_insert(sim.now().as_micros());
        });

        home.sim.run_for(SimDuration::from_secs(12)); // same idle stretch
        let fired = home.sim.now();
        x10.motion.trigger();
        home.sim.run_for(SimDuration::from_secs(10));
        push_latency_us = got.lock().unwrap() - fired.as_micros();
        push_carriers = publisher.stats().carrier_messages;
    }

    assert!(
        push_latency_us < poll_latency_us,
        "push {push_latency_us}us should beat polling {poll_latency_us}us"
    );
    assert!(
        push_carriers < poll_carriers,
        "push sent {push_carriers} messages, polling {poll_carriers}"
    );
}

#[test]
fn x10_remote_to_mail_alert_pipeline() {
    // Compose: powerline event -> route -> mailer (three middleware).
    let home = SmartHome::builder().build().unwrap();
    let x10 = home.x10.as_ref().unwrap();
    x10.pcm.add_route(metaware::pcm::x10::Route {
        house: metaware::house('A'),
        unit: metaware::unit(8),
        function: x10::Function::On,
        service: "mailer".into(),
        operation: "send".into(),
        args: vec![
            ("to".into(), Value::Str("owner@example.org".into())),
            ("subject".into(), Value::Str("Panic button".into())),
            ("body".into(), Value::Str("Unit A8 pressed".into())),
        ],
    });
    let _poll = x10.pcm.start_polling(SimDuration::from_millis(500));
    let mut remote = x10.remote();
    remote.press(x10::Button::On(8));
    home.sim.run_for(SimDuration::from_secs(2));
    assert_eq!(
        home.mail
            .as_ref()
            .unwrap()
            .server
            .mailbox_len("owner@example.org"),
        1
    );
}

#[test]
fn native_havi_events_still_flow_beside_the_framework() {
    // The framework must not break native event paths (§3's goal 1).
    let home = SmartHome::builder().build().unwrap();
    let havi = home.havi.as_ref().unwrap();
    let watcher = havi::MessagingSystem::attach(&havi.bus, "watcher");
    let seen = Arc::new(Mutex::new(0u32));
    let seen2 = seen.clone();
    let listener = watcher.register_element(move |_, msg| {
        if havi::decode_forwarded(msg).is_some() {
            *seen2.lock() += 1;
        }
        (havi::HaviStatus::Success, vec![])
    });
    havi::subscribe(
        &watcher,
        listener.handle,
        havi.events.seid(),
        havi::event_type::TRANSPORT_CHANGED,
    )
    .unwrap();

    // Drive the VCR *through the framework*; the native HAVi event still
    // reaches the native subscriber.
    home.invoke_from(Middleware::Jini, "living-room-vcr", "record", &[])
        .unwrap();
    assert_eq!(*seen.lock(), 1);
}

/// The events of a camera-sized burst: 200-byte strings, alternating
/// between two services so each NOTIFY batch frames several runs.
fn camera_burst(n: usize) -> Vec<(&'static str, Value)> {
    (0..n)
        .map(|i| {
            let service = if i % 2 == 0 { "cam" } else { "door" };
            (service, Value::Str(format!("{i:0>200}")))
        })
        .collect()
}

/// Publishes `events` from the X10 gateway through a batched publisher
/// (default policy) to subscribers on the HAVi and Jini gateways,
/// across the home's Ethernet backbone, and flushes. Returns what each
/// subscriber received, in order, the publisher's statistics and the
/// SIP frames the backbone delivered.
fn push_across_the_home(events: &[(&str, Value)]) -> ([Vec<(String, Value)>; 2], BridgeStats, u64) {
    let home = SmartHome::builder().build().unwrap();
    let x10 = home.x10.as_ref().unwrap();
    let publisher =
        SipPublisher::new(&home.backbone, x10.vsg.node()).with_batching(BatchPolicy::default());
    let sinks = [Middleware::Havi, Middleware::Jini].map(|mw| {
        let node = home.gateway(mw).unwrap().node();
        publisher.subscribe(node, "%");
        let got: Arc<Mutex<Vec<(String, Value)>>> = Arc::new(Mutex::new(Vec::new()));
        let got2 = got.clone();
        let sub = SipSubscriber::install(&home.backbone, node, move |_, svc, e| {
            got2.lock().push((svc.to_owned(), e.clone()));
        });
        (got, sub)
    });
    for (service, event) in events {
        publisher.publish(service, event);
    }
    publisher.flush();
    let frames = home
        .backbone
        .with_stats(|s| s.protocol(Protocol::Sip).frames);
    let got = sinks.map(|(got, _)| got.lock().clone());
    (got, publisher.stats(), frames)
}

fn owned(events: &[(&str, Value)]) -> Vec<(String, Value)> {
    events
        .iter()
        .map(|(s, e)| ((*s).to_owned(), e.clone()))
        .collect()
}

#[test]
fn batched_push_fans_a_burst_over_the_mtu_out_whole_to_every_gateway() {
    // The first event finds each peer idle and leaves alone; the next
    // sixteen queue ~3.4 KB per peer, over the backbone's 1 500-byte
    // MTU, and leave as frames that fit.
    let events = camera_burst(17);
    let (got, stats, frames) = push_across_the_home(&events);
    for sink in &got {
        assert_eq!(*sink, owned(&events), "every event, in publish order");
    }
    assert_eq!(stats.events_delivered, 34);
    assert_eq!(stats.events_dropped, 0);
    assert_eq!(
        stats.carrier_messages, 8,
        "per peer: a single, then 7, 7, 2"
    );
    assert_eq!(frames, stats.carrier_messages);
}

#[test]
fn batched_push_loses_only_the_event_too_large_for_a_frame() {
    let events = camera_burst(17);
    let mut with_giant = events.clone();
    with_giant.insert(9, ("cam", Value::Str("x".repeat(2_000))));
    let (got, stats, frames) = push_across_the_home(&with_giant);
    for sink in &got {
        assert_eq!(*sink, owned(&events), "the rest arrive, in order");
    }
    assert_eq!(stats.events_delivered, 34);
    assert_eq!(stats.events_dropped, 2, "the giant, once per peer");
    assert_eq!(frames, stats.carrier_messages - 2);
}

/// The size of the NOTIFY frame that carries `events` for `cam` as one
/// batch, measured on the wire of an MTU-free link.
fn batch_frame_len(events: &[&Value]) -> usize {
    let sim = Sim::new(1);
    let net = Network::new(&sim, "lan", LinkModel::ideal());
    let (src, inbox) = (net.attach("src"), net.attach("inbox"));
    let payloads: Vec<Vec<u8>> = events
        .iter()
        .map(|e| SipLike::encode_event_payload(e))
        .collect();
    let members: Vec<(&str, &[u8])> = payloads.iter().map(|p| ("cam", p.as_slice())).collect();
    assert!(SipLike::new().notify_batch(&net, src, inbox, &members));
    net.recv(inbox).unwrap().len()
}

/// A string event of `len` bytes.
fn blob(len: usize) -> Value {
    Value::Str("b".repeat(len))
}

#[test]
fn batched_push_fills_a_frame_to_exactly_the_mtu() {
    let mtu = netkind::ethernet().mtu;
    // A small lead event leaves alone; the events after it queue until
    // the flush.
    let push = |events: &[Value]| {
        let burst: Vec<(&str, Value)> = std::iter::once(Value::Int(0))
            .chain(events.iter().cloned())
            .map(|e| ("cam", e))
            .collect();
        let (got, stats) = push_over(netkind::ethernet(), BatchPolicy::default(), &burst);
        let got: Vec<Value> = got.into_iter().skip(1).map(|(_, e)| e).collect();
        (got, stats.carrier_messages - 1, stats.events_dropped)
    };

    // Two events whose shared frame is exactly the MTU go together; one
    // byte more and they go one frame each.
    let first = blob(600);
    let rest = mtu - batch_frame_len(&[&first, &blob(600)]) + 600;
    let pair = [first.clone(), blob(rest)];
    assert_eq!(batch_frame_len(&[&pair[0], &pair[1]]), mtu);
    assert_eq!(push(&pair), (pair.to_vec(), 1, 0));
    let pair = [first, blob(rest + 1)];
    assert_eq!(push(&pair), (pair.to_vec(), 2, 0));

    // An event whose lone frame is exactly the MTU arrives; one byte
    // more and it alone is lost.
    let whole = mtu - batch_frame_len(&[&blob(1_000)]) + 1_000;
    assert_eq!(batch_frame_len(&[&blob(whole)]), mtu);
    let (small, large) = (blob(10), blob(whole + 1));
    let burst = [small.clone(), blob(whole), large, small.clone()];
    assert_eq!(
        push(&burst),
        (vec![small.clone(), blob(whole), small], 4, 1)
    );
}

/// Publishes `events` through a publisher batching under `policy` to
/// one subscriber on a fresh network of `link`, and flushes. Returns
/// the events received, in order, and the publisher's statistics.
fn push_over(
    link: LinkModel,
    policy: BatchPolicy,
    events: &[(&str, Value)],
) -> (Vec<(String, Value)>, BridgeStats) {
    let sim = Sim::new(1);
    let net = Network::new(&sim, "lan", link);
    let (source, sink) = (net.attach("src-gw"), net.attach("sink-gw"));
    let publisher = SipPublisher::new(&net, source).with_batching(policy);
    publisher.subscribe(sink, "%");
    let got: Arc<Mutex<Vec<(String, Value)>>> = Arc::new(Mutex::new(Vec::new()));
    let got2 = got.clone();
    let _sub = SipSubscriber::install(&net, sink, move |_, svc, e| {
        got2.lock().push((svc.to_owned(), e.clone()));
    });
    for (service, event) in events {
        publisher.publish(service, event);
    }
    publisher.flush();
    let got = got.lock().clone();
    (got, publisher.stats())
}

#[test]
fn batched_push_splits_by_each_links_own_mtu() {
    // One burst over the RS-232 line (255 B), Ethernet (1 500 B) and
    // IEEE1394 (2 048 B): every event arrives each time, in frames as
    // few as each link's MTU allows. A frame takes ~0.1 s on the serial
    // line, so a peer counts as idle only after 10 s: the first event
    // leaves alone and the other sixteen queue on every link.
    let policy = BatchPolicy {
        idle_threshold: SimDuration::from_secs(10),
        ..BatchPolicy::default()
    };
    let events: Vec<(&str, Value)> = (0..17)
        .map(|i| ("cam", Value::Str(format!("{i:0>100}"))))
        .collect();
    let mut carriers = Vec::new();
    for link in [netkind::serial(), netkind::ethernet(), netkind::ieee1394()] {
        let mtu = link.mtu;
        let (got, stats) = push_over(link, policy.clone(), &events);
        assert_eq!(got, owned(&events), "MTU {mtu}");
        assert_eq!(stats.events_dropped, 0, "MTU {mtu}");
        carriers.push(stats.carrier_messages);
    }
    assert_eq!(carriers, [9, 3, 2], "serial, Ethernet, IEEE1394");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Over Ethernet, a batched burst of events either well under the
    /// MTU or well over it delivers every small one, in publish order,
    /// and loses only the large ones, in no more frames than events.
    #[test]
    fn batched_push_delivers_every_event_that_fits_a_frame(
        events in prop::collection::vec(
            (
                prop_oneof![Just("cam"), Just("door")],
                prop_oneof![0..1_200usize, 1_600..3_000usize],
            ),
            1..40,
        ),
    ) {
        let events: Vec<(&str, Value)> = events
            .into_iter()
            .map(|(service, len)| (service, Value::Str("e".repeat(len))))
            .collect();
        let fits = |e: &Value| matches!(e, Value::Str(s) if s.len() < 1_200);
        let small: Vec<(&str, Value)> =
            events.iter().filter(|(_, e)| fits(e)).cloned().collect();
        let large = (events.len() - small.len()) as u64;
        let (got, stats) = push_over(netkind::ethernet(), BatchPolicy::default(), &events);
        prop_assert_eq!(got, owned(&small));
        prop_assert_eq!(stats.events_delivered, small.len() as u64);
        prop_assert_eq!(stats.events_dropped, large);
        prop_assert!(stats.carrier_messages <= events.len() as u64);
    }
}
