//! E1 (Fig. 1 / §3): transparent any-to-any access.
//!
//! For every client-island × service pair, the end-to-end invocation
//! latency (virtual time) and backbone bytes, with the native
//! same-island call as the baseline. Expected shape: every pair works;
//! crossing the VSG adds a SOAP round trip (~ms); X10-backed services
//! are dominated by the powerline regardless of caller.

use bench::{cell, fmt_us, Report};
use metaware::{Middleware, SmartHome};
use soap::Value;

type Probe = (&'static str, &'static str, Vec<(String, Value)>);

fn probes() -> Vec<Probe> {
    vec![
        ("laserdisc", "status", vec![]),
        ("dv-camera", "status", vec![]),
        ("hall-lamp", "status", vec![]),
        (
            "mailer",
            "unread",
            vec![("mailbox".into(), Value::Str("x@y".into()))],
        ),
    ]
}

pub fn run() -> Vec<Report> {
    let mut report = Report::new(
        "E1",
        "cross-middleware invocation latency (rows: client island; cols: target service)",
        &[
            "client",
            "laserdisc(jini)",
            "dv-camera(havi)",
            "hall-lamp(x10)",
            "mailer(inet)",
            "bytes/call",
        ],
    );
    for client in [
        Middleware::Jini,
        Middleware::Havi,
        Middleware::X10,
        Middleware::Mail,
    ] {
        let home = SmartHome::builder().build().unwrap();
        let mut cells = vec![cell(client)];
        let mut total_bytes = 0u64;
        for (service, op, args) in probes() {
            // Warm the route (VSR resolution is measured by E8, not here).
            home.invoke_from(client, service, op, &args).unwrap();
            let t0 = home.sim.now();
            let b0 = home.backbone.with_stats(|s| s.total().bytes);
            home.invoke_from(client, service, op, &args).unwrap();
            let dt = (home.sim.now() - t0).as_micros();
            total_bytes += home.backbone.with_stats(|s| s.total().bytes) - b0;
            cells.push(fmt_us(dt));
        }
        cells.push(cell(total_bytes / 4));
        report.row(cells);
    }

    // Baseline: native, no framework — a Jini client calling the
    // laserdisc over plain RMI on its own island.
    {
        let home = SmartHome::builder().build().unwrap();
        let jini_net = &home.jini.as_ref().unwrap().net;
        let node = jini_net.attach("native-client");
        let registrars = jini::discover(jini_net, node, "public");
        let client = jini::RegistrarClient::new(jini_net, node, registrars[0]);
        let item = client
            .lookup_one(&jini::ServiceTemplate::by_interface("LaserdiscPlayer"))
            .unwrap();
        let proxy = jini::RemoteProxy::new(jini_net, node, item.proxy);
        let t0 = home.sim.now();
        proxy.invoke("status", &[]).unwrap();
        let dt = (home.sim.now() - t0).as_micros();
        report.row(vec![
            cell("native-jini"),
            fmt_us(dt),
            cell("-"),
            cell("-"),
            cell("-"),
            cell(0),
        ]);
    }
    report.print();
    vec![report]
}
