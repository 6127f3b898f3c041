//! §2's service-integration pitch, made concrete.
//!
//! "The service integration of a VCR control service with a TV program
//! service on the Internet can provide an automatic video recording
//! service that records TV programs according to user profiles."
//!
//! A SOAP TV-guide web service lives across the WAN; the home's VCR is a
//! HAVi appliance; the notification goes out via the Internet mail
//! service. Three middleware, one small application.
//!
//! Run with: `cargo run --example auto_recording`

use havi::FcmKind;
use metaware::{catalog, Middleware, OpSig, ServiceInterface, SmartHome, TypeTag, VirtualService};
use simnet::{Network, Sim, SimDuration};
use soap::{Fault, RpcCall, SoapClient, SoapServer, Value};

/// The interface of the Internet TV-guide service.
fn guide_interface() -> ServiceInterface {
    ServiceInterface::new("TvGuide").op(OpSig::new("next_by_genre")
        .param("genre", TypeTag::Str)
        .returns(TypeTag::Any))
}

fn main() {
    let home = SmartHome::builder().build().expect("home assembles");
    let sim = home.sim.clone();

    // --- An independent TV-guide web service across the WAN ----------------
    let inet = Network::internet(&sim);
    let guide_server = SoapServer::bind(&inet, "tvguide.example.org");
    guide_server.mount("urn:tvguide", |_, call, reply| {
        let genre = call
            .get("genre")
            .and_then(|g| g.as_str())
            .unwrap_or_default();
        // The broadcaster's schedule (start times in virtual seconds).
        let listings = [
            ("news", 42, "Evening News", 30u64),
            ("drama", 7, "Harbour Lights", 90),
            ("sports", 3, "Midnight Football", 120),
        ];
        match listings.iter().find(|(g, ..)| *g == genre) {
            Some((_, channel, title, starts)) => reply.value(&Value::Record(vec![
                ("channel".into(), Value::Int(*channel)),
                ("title".into(), Value::Str((*title).into())),
                ("starts_in_s".into(), Value::Int(*starts as i64)),
            ])),
            None => reply.fault(&Fault::client(format!("no programme for genre '{genre}'"))),
        }
    });

    // --- Bridge the web service into the federation ------------------------
    // A web service needs no special PCM: its invoker is just a SOAP
    // client call — the framework's lingua franca *is* SOAP.
    let inet_gw = &home.mail.as_ref().unwrap().vsg;
    let guide_client = SoapClient::attach(&inet, "home-guide-client");
    let guide_node = guide_server.node();
    inet_gw
        .export(
            VirtualService::new(
                "tv-guide",
                guide_interface(),
                Middleware::Web,
                inet_gw.name(),
            ),
            move |_: &Sim, op: &str, args: &[(String, Value)]| {
                let mut call = RpcCall::new("urn:tvguide", op);
                for (k, v) in args {
                    call = call.arg(k.clone(), v.clone());
                }
                guide_client
                    .call(guide_node, &call)
                    .map_err(|e| metaware::MetaError::native("web", e))
            },
        )
        .unwrap();
    println!(
        "tv-guide web service federated; VSR now holds {} services\n",
        home.service_count()
    );

    // --- The auto-recorder: profile -> guide -> timer -> VCR -> mail -------
    let profile_genre = "news";
    println!("user profile: record genre '{profile_genre}'");

    let programme = home
        .invoke_from(
            Middleware::Havi,
            "tv-guide",
            "next_by_genre",
            &[("genre".into(), Value::Str(profile_genre.into()))],
        )
        .unwrap();
    let channel = programme.field("channel").and_then(Value::as_int).unwrap();
    let title = programme
        .field("title")
        .and_then(Value::as_str)
        .unwrap()
        .to_owned();
    let starts_in = programme
        .field("starts_in_s")
        .and_then(Value::as_int)
        .unwrap() as u64;
    println!("guide says: {title:?} on channel {channel}, starts in {starts_in}s");

    // Schedule: at start time, tune the TV, start the VCR, send mail.
    let home2 = std::sync::Arc::new(home);
    let home3 = home2.clone();
    let title2 = title.clone();
    sim.schedule_in(SimDuration::from_secs(starts_in), move |_| {
        println!("\n[timer fires at start time]");
        home3
            .invoke_from(
                Middleware::Havi,
                "tv-tuner",
                "set_channel",
                &[("channel".into(), Value::Int(channel))],
            )
            .unwrap();
        home3
            .invoke_from(Middleware::Havi, "living-room-vcr", "record", &[])
            .unwrap();
        home3
            .invoke_from(
                Middleware::Havi,
                "mailer",
                "send",
                &[
                    ("to".into(), Value::Str("owner@example.org".into())),
                    (
                        "subject".into(),
                        Value::Str(format!("Recording started: {title2}")),
                    ),
                    (
                        "body".into(),
                        Value::Str(format!("Channel {channel}, as per your profile.")),
                    ),
                ],
            )
            .unwrap();
    });

    sim.run_for(SimDuration::from_secs(starts_in + 5));

    let havi = home2.havi.as_ref().unwrap();
    println!(
        "VCR transport = {}, TV channel = {}",
        havi.vcr
            .fcm(FcmKind::Vcr)
            .unwrap()
            .state()
            .transport
            .label(),
        havi.tv.fcm(FcmKind::Tuner).unwrap().state().channel,
    );
    let mail = home2.mail.as_ref().unwrap();
    println!(
        "owner@example.org has {} notification(s): {:?}",
        mail.server.mailbox_len("owner@example.org"),
        mail.client
            .retr("owner@example.org", 0)
            .map(|m| m.subject)
            .unwrap_or_default(),
    );
    println!(
        "\n(The lamp interface was {:?} ops; this app touched none of the\n\
         middleware APIs directly — only canonical interfaces.)",
        catalog::lamp().operations.len()
    );
}
