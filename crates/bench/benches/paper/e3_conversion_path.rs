//! E3 (Fig. 4): the Jini ↔ X10 conversion transaction, decomposed.
//!
//! One `switch(on)` from an unmodified Jini client to a physical X10
//! lamp crosses: RMI marshal + Ethernet → Server Proxy → SOAP/HTTP over
//! the backbone → X10 PCM → CM11A serial handshakes → powerline frames.
//! Expected shape: the powerline dominates (hundreds of ms), SOAP is
//! milliseconds, RMI sub-millisecond — exactly why the paper's authors
//! could afford a "simple protocol" for the VSG.

use bench::{cell, fmt_us, Report};
use metaware::{Middleware, SmartHome};
use simnet::Protocol;
use soap::Value;

struct Stage {
    name: &'static str,
    virtual_us: u64,
    bytes: u64,
    frames: u64,
}

fn measure_stages() -> Vec<Stage> {
    let mut stages = Vec::new();

    // Stage A: the native RMI leg alone (Jini client -> laserdisc echo).
    {
        let home = SmartHome::builder().build().unwrap();
        let jini_net = &home.jini.as_ref().unwrap().net;
        let node = jini_net.attach("probe");
        let registrars = jini::discover(jini_net, node, "public");
        let client = jini::RegistrarClient::new(jini_net, node, registrars[0]);
        let item = client
            .lookup_one(&jini::ServiceTemplate::by_interface("LaserdiscPlayer"))
            .unwrap();
        let proxy = jini::RemoteProxy::new(jini_net, node, item.proxy);
        let t0 = home.sim.now();
        let b0 = jini_net.with_stats(|s| s.protocol(Protocol::Jini));
        proxy.invoke("status", &[]).unwrap();
        let b1 = jini_net.with_stats(|s| s.protocol(Protocol::Jini));
        stages.push(Stage {
            name: "RMI leg (Jini Ethernet)",
            virtual_us: (home.sim.now() - t0).as_micros(),
            bytes: b1.bytes - b0.bytes,
            frames: b1.frames - b0.frames,
        });
    }

    // Stage B: the SOAP gateway-to-gateway leg alone (warm route).
    {
        let home = SmartHome::builder().build().unwrap();
        home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
            .unwrap();
        let t0 = home.sim.now();
        let b0 = home.backbone.with_stats(|s| s.protocol(Protocol::Http));
        home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
            .unwrap();
        let b1 = home.backbone.with_stats(|s| s.protocol(Protocol::Http));
        stages.push(Stage {
            name: "SOAP leg (backbone HTTP)",
            virtual_us: (home.sim.now() - t0).as_micros(),
            bytes: b1.bytes - b0.bytes,
            frames: b1.frames - b0.frames,
        });
    }

    // Stage C: the CM11A + powerline leg alone.
    {
        let home = SmartHome::builder().build().unwrap();
        let x10 = home.x10.as_ref().unwrap();
        let t0 = home.sim.now();
        let s0 = x10.serial.with_stats(|s| s.protocol(Protocol::X10));
        let p0 = x10.powerline.with_stats(|s| s.protocol(Protocol::X10));
        // Drive the PCM's invoker directly through its own gateway
        // (local dispatch: no backbone traffic).
        x10.vsg
            .invoke(
                &home.sim,
                "hall-lamp",
                "switch",
                &[("on".into(), Value::Bool(true))],
            )
            .unwrap();
        let s1 = x10.serial.with_stats(|s| s.protocol(Protocol::X10));
        let p1 = x10.powerline.with_stats(|s| s.protocol(Protocol::X10));
        stages.push(Stage {
            name: "CM11A serial + powerline",
            virtual_us: (home.sim.now() - t0).as_micros(),
            bytes: (s1.bytes - s0.bytes) + (p1.bytes - p0.bytes),
            frames: (s1.frames - s0.frames) + (p1.frames - p0.frames),
        });
    }

    // Stage D: the full Fig. 4 path, end to end, from a real Jini client.
    {
        let home = SmartHome::builder().build().unwrap();
        let jini = home.jini.as_ref().unwrap();
        jini.pcm
            .export_remote(&jini.vsg.resolve("hall-lamp").unwrap())
            .unwrap();
        let jini_net = &jini.net;
        let node = jini_net.attach("fig4-client");
        let registrars = jini::discover(jini_net, node, "public");
        let client = jini::RegistrarClient::new(jini_net, node, registrars[0]);
        let item = client
            .lookup_one(&jini::ServiceTemplate::by_interface("Lamp"))
            .unwrap();
        let proxy = jini::RemoteProxy::new(jini_net, node, item.proxy);
        // Warm the gateway route, then measure.
        proxy.invoke("status", &[]).unwrap();
        let t0 = home.sim.now();
        proxy.invoke("switch", &[jini::JValue::Bool(true)]).unwrap();
        let total_us = (home.sim.now() - t0).as_micros();
        let x10 = home.x10.as_ref().unwrap();
        assert!(x10.hall_lamp.is_on(), "the physical lamp switched");
        stages.push(Stage {
            name: "FULL PATH (Fig. 4)",
            virtual_us: total_us,
            bytes: 0,
            frames: 0,
        });
    }
    stages
}

pub fn run() -> Vec<Report> {
    let stages = measure_stages();
    let full = stages.last().unwrap().virtual_us;
    let mut report = Report::new(
        "E3",
        "Fig. 4 Jini->X10 transaction breakdown (one switch command)",
        &["stage", "virtual time", "bytes", "frames", "% of full path"],
    );
    for s in &stages {
        report.row(vec![
            cell(s.name),
            fmt_us(s.virtual_us),
            cell(s.bytes),
            cell(s.frames),
            format!("{:.1}%", 100.0 * s.virtual_us as f64 / full as f64),
        ]);
    }
    report.print();
    vec![report]
}
