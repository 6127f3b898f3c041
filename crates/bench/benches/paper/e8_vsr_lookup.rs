//! E8 (§3.3): Virtual Service Repository performance.
//!
//! Publish and inquiry costs as the federation grows. Expected shape:
//! publish and exact-resolve are flat (one SOAP round trip plus an
//! index probe); wildcard finds grow with the result set (bigger
//! replies). With the registry's name/category indexes, records
//! scanned tracks result sizes instead of growing with the registry —
//! the building-scale deployment the paper gestures at is now a lookup
//! away, not a linear scan (`BENCH_hotpath.json` has the ablation).

use bench::{cell, fmt_us, Report};
use metaware::{catalog, Middleware, VirtualService, Vsr, VsrClient};
use simnet::{Network, Sim};

fn populated(n: usize) -> (Sim, Network, Vsr, VsrClient) {
    let sim = Sim::new(1);
    let net = Network::ethernet(&sim);
    let vsr = Vsr::start(&net);
    let node = net.attach("pcm");
    let client = VsrClient::new(&net, node, vsr.node());
    for i in 0..n {
        client
            .publish(&VirtualService::new(
                format!("svc-{i:04}"),
                catalog::lamp(),
                Middleware::X10,
                "x10-gw",
            ))
            .unwrap();
    }
    (sim, net, vsr, client)
}

pub fn run() -> Vec<Report> {
    let mut report = Report::new(
        "E8",
        "VSR operations vs registry size (virtual time per op)",
        &[
            "services",
            "publish",
            "resolve",
            "find '%' (all)",
            "find 'svc-00%'",
            "records scanned",
        ],
    );
    for n in [1usize, 10, 50, 200, 500] {
        let (sim, _net, vsr, client) = populated(n);

        let t0 = sim.now();
        client
            .publish(&VirtualService::new(
                "probe",
                catalog::lamp(),
                Middleware::X10,
                "x10-gw",
            ))
            .unwrap();
        let publish_us = (sim.now() - t0).as_micros();

        let t0 = sim.now();
        client.resolve("svc-0000").unwrap();
        let resolve_us = (sim.now() - t0).as_micros();

        let t0 = sim.now();
        let all = client.find("%", None).unwrap();
        let find_all_us = (sim.now() - t0).as_micros();
        assert_eq!(all.len(), n + 1);

        let t0 = sim.now();
        client.find("svc-00%", None).unwrap();
        let find_some_us = (sim.now() - t0).as_micros();

        report.row(vec![
            cell(n),
            fmt_us(publish_us),
            fmt_us(resolve_us),
            fmt_us(find_all_us),
            fmt_us(find_some_us),
            cell(vsr.registry_stats().records_scanned),
        ]);
    }
    report.print();
    vec![report]
}
