//! E11: ablations of the framework's own design decisions (DESIGN.md §6).
//!
//! Not a paper figure — these isolate the costs of choices this
//! implementation makes so readers can separate "the paper's
//! architecture" from "this codebase's engineering":
//!
//!  * **route cache** — without it every remote call pays two extra SOAP
//!    round trips to the VSR (resolve + gateway_node);
//!  * **hot-path overhaul** (`BENCH_hotpath.json`) — the record-level
//!    resolution cache and the registry's name/category indexes, each
//!    against the pre-overhaul behaviour;
//!  * **the Java tax** — the prototype's 2002 JVM XML costs vs a free
//!    CPU model (isolates wire from CPU);
//!  * **X10 blind repeats** — the PCM's only reliability tool on an
//!    unacknowledged medium: delivery probability vs repeats vs noise.
//!
//! Every value cell of the side tables E11a–E11d is written to one gated
//! artefact, `BENCH_ablations.json` (see [`Report::flatten`]); the raw
//! per-gateway snapshots of E11d land, ungated, in
//! `e11_metrics_snapshot.json`.

use bench::{cell, fmt_us, Report};
use metaware::{
    catalog, Middleware, SmartHome, Soap11, VirtualService, Vsg, VsgProtocol, VsgRequest, Vsr,
};
use simnet::{LinkModel, Network, Sim};
use soap::{CpuModel, TcpModel, Value};
use std::sync::Arc;

fn route_cache_ablation() -> Report {
    let mut report = Report::new(
        "E11a",
        "route cache: one warm remote call vs re-resolving every call",
        &[
            "mode",
            "latency/call",
            "VSR inquiries/call",
            "backbone bytes/call",
        ],
    );
    for cached in [true, false] {
        let home = SmartHome::builder().build().unwrap();
        let gw = home.jini.as_ref().unwrap().vsg.clone();
        // Warm everything once.
        gw.invoke(&home.sim, "hall-lamp", "status", &[]).unwrap();
        let calls = 10u64;
        let t0 = home.sim.now();
        let inq0 = home.vsr.registry_stats().inquiries;
        let b0 = home.backbone.with_stats(|s| s.total().bytes);
        for _ in 0..calls {
            if !cached {
                gw.clear_route_cache();
            }
            gw.invoke(&home.sim, "hall-lamp", "status", &[]).unwrap();
        }
        let dt = (home.sim.now() - t0).as_micros() / calls;
        let inq = (home.vsr.registry_stats().inquiries - inq0) / calls;
        let bytes = (home.backbone.with_stats(|s| s.total().bytes) - b0) / calls;
        report.row(vec![
            cell(if cached {
                "cached route"
            } else {
                "resolve every call"
            }),
            fmt_us(dt),
            cell(inq),
            cell(bytes),
        ]);
    }
    report.print();
    report
}

/// The PR's before/after artefact: resolution-cache on/off over repeat
/// remote invocations, and indexed-vs-scan registry inquiry at 1000
/// services. "off"/"scan" rows reproduce the pre-overhaul hot path.
fn hotpath_ablation() {
    let mut report = Report::new(
        "BENCH_hotpath",
        "hot-path overhaul: resolution cache and registry indexes, before vs after",
        &[
            "ablation",
            "mode",
            "sim time/op",
            "VSR inquiries/op",
            "records scanned/op",
        ],
    );

    // (a) Record-level resolution cache: warm repeat invocations vs
    // clearing the cache before every call (the "before" behaviour of
    // a gateway that re-resolves each time).
    for cached in [false, true] {
        let home = SmartHome::builder().build().unwrap();
        let gw = home.jini.as_ref().unwrap().vsg.clone();
        gw.invoke(&home.sim, "hall-lamp", "status", &[]).unwrap();
        let calls = 20u64;
        let t0 = home.sim.now();
        let inq0 = home.vsr.registry_stats().inquiries;
        let scan0 = home.vsr.registry_stats().records_scanned;
        for _ in 0..calls {
            if !cached {
                gw.clear_route_cache();
            }
            gw.invoke(&home.sim, "hall-lamp", "status", &[]).unwrap();
        }
        let stats = home.vsr.registry_stats();
        report.row(vec![
            cell("resolution cache"),
            cell(if cached {
                "after (warm cache)"
            } else {
                "before (resolve every call)"
            }),
            fmt_us((home.sim.now() - t0).as_micros() / calls),
            cell((stats.inquiries - inq0) / calls),
            cell((stats.records_scanned - scan0) / calls),
        ]);
    }

    // (b) Index-backed registry inquiry at 1000 services: exact-name
    // resolves with the name/category indexes vs the full scan the
    // registry used to do. Indexes are maintained either way, so the
    // toggle compares lookup paths over identical state.
    let sim = Sim::new(1);
    let net = Network::ethernet(&sim);
    let vsr = Vsr::start(&net);
    let gw = Vsg::start(&net, "x10-gw", Arc::new(Soap11::new()), vsr.node()).unwrap();
    for i in 0..1000 {
        gw.export(
            VirtualService::new(
                format!("svc-{i:04}"),
                catalog::lamp(),
                Middleware::X10,
                "x10-gw",
            ),
            |_: &Sim, _: &str, _: &[(String, Value)]| Ok(Value::Null),
        )
        .unwrap();
    }
    for indexed in [false, true] {
        vsr.set_indexing(indexed);
        let resolves = 20u64;
        let t0 = sim.now();
        let inq0 = vsr.registry_stats().inquiries;
        let scan0 = vsr.registry_stats().records_scanned;
        for i in 0..resolves {
            // Distinct names so the gateway's cache plays no part.
            gw.resolve(&format!("svc-{:04}", i * 37)).unwrap();
        }
        let stats = vsr.registry_stats();
        report.row(vec![
            cell("registry @1000 svcs"),
            cell(if indexed {
                "after (indexed)"
            } else {
                "before (full scan)"
            }),
            fmt_us((sim.now() - t0).as_micros() / resolves),
            cell((stats.inquiries - inq0) / resolves),
            cell((stats.records_scanned - scan0) / resolves),
        ]);
    }

    report.emit_as("BENCH_hotpath.json");
}

fn java_tax_ablation() -> Report {
    let mut report = Report::new(
        "E11b",
        "the 2002 Java tax: SOAP call with JVM-era XML costs vs free CPU",
        &["cpu model", "latency/call", "of which wire (free-CPU)"],
    );
    let mut wire_only = 0;
    for (name, cpu) in [
        ("free", CpuModel::free()),
        ("jvm-2002", CpuModel::default()),
    ] {
        let protocol = Soap11::with_models(cpu, TcpModel::default());
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let server = VsgProtocol::bind(&protocol, &net, "gw", Arc::new(|_, _| Ok(Value::Null)));
        let client = net.attach("c");
        let req = VsgRequest::new("svc", "ping").arg("x", 1);
        let t0 = sim.now();
        VsgProtocol::call(&protocol, &net, client, server, &req).unwrap();
        let dt = (sim.now() - t0).as_micros();
        if name == "free" {
            wire_only = dt;
        }
        report.row(vec![
            cell(name),
            fmt_us(dt),
            format!("{:.0}%", 100.0 * wire_only as f64 / dt as f64),
        ]);
    }
    report.print();
    report
}

fn x10_repeat_ablation() -> Report {
    let mut report = Report::new(
        "E11c",
        "X10 blind repeats vs powerline noise: delivery rate over 200 commands",
        &[
            "loss prob",
            "1 repeat",
            "2 repeats",
            "3 repeats",
            "4 repeats",
        ],
    );
    for loss in [0.02f64, 0.05, 0.10, 0.20] {
        let mut cells = vec![format!("{:.0}%", loss * 100.0)];
        for repeats in 1u32..=4 {
            let sim = Sim::new(42 + repeats as u64);
            let link = LinkModel {
                loss_prob: loss,
                ..simnet::netkind::powerline()
            };
            let net = Network::new(&sim, "powerline", link);
            let tx = x10::Transmitter::attach(&net, "pcm");
            let _rx = net.attach("lamp");
            let h = metaware::house('A');
            let u = metaware::unit(1);
            let mut delivered = 0;
            let trials = 200;
            for _ in 0..trials {
                if x10::send_with_repeats(&tx, h, u, x10::Function::On, repeats) {
                    delivered += 1;
                }
            }
            cells.push(format!("{:.1}%", 100.0 * delivered as f64 / trials as f64));
        }
        report.row(cells);
    }
    report.print();
    report
}

/// The per-gateway observability snapshot (`Vsg::metrics_snapshot`):
/// counters + latency histogram + cache stats after a mixed workload.
/// The raw merged-JSON snapshots land in
/// `target/bench-results/e11_metrics_snapshot.json`.
fn metrics_snapshot_report() -> Report {
    let mut report = Report::new(
        "E11d",
        "per-gateway metrics registry after a mixed cross-island workload",
        &[
            "gateway",
            "invocations",
            "errors",
            "mean latency",
            "cache hit ratio",
        ],
    );
    let home = SmartHome::builder().build().unwrap();
    for _ in 0..5 {
        home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
            .unwrap();
        home.invoke_from(Middleware::Havi, "fridge", "temperature", &[])
            .unwrap();
        home.invoke_from(Middleware::X10, "living-room-vcr", "stop", &[])
            .unwrap();
    }
    // One deliberate failure so the error-kind counters show up.
    let _ = home.invoke_from(Middleware::Jini, "no-such-service", "ping", &[]);

    let snapshots = home.metrics_snapshots();
    for snap in &snapshots {
        report.row(vec![
            cell(&snap.gateway),
            cell(snap.registry.invocations),
            cell(snap.registry.errors.iter().map(|(_, n)| n).sum::<u64>()),
            fmt_us(snap.registry.latency.mean_us() as u64),
            format!("{:.0}%", 100.0 * snap.cache.hit_ratio()),
        ]);
    }
    report.print();

    let json = format!(
        "[\n{}\n]",
        snapshots
            .iter()
            .map(|s| s.to_json())
            .collect::<Vec<_>>()
            .join(",\n")
    );
    bench::write_result("e11_metrics_snapshot.json", &json);
    report
}

fn main() {
    let route_cache = route_cache_ablation();
    hotpath_ablation();
    let tables = [
        route_cache,
        java_tax_ablation(),
        x10_repeat_ablation(),
        metrics_snapshot_report(),
    ];
    let cells = Report::flatten(
        "ablations",
        "E11a–E11d: every value cell of the ablation side tables",
        &tables,
    );
    bench::write_result("BENCH_ablations.json", &cells.to_json());
}
