//! E7 (§4.2): "a TCP stack is large and complex. This can be an issue in
//! small devices or appliances with stringent memory and processing
//! requirements."
//!
//! Two tables: the footprint of each protocol stack, and which device
//! classes can host which stacks. Expected shape: the full SOAP stack
//! fits only set-top-box-class hardware; X10 modules can host nothing
//! but X10; SIP/UDP reaches one class further down than TCP/HTTP —
//! the quantified §5 argument.
//!
//! The third table adds a *dynamic* footprint: the per-command wire
//! bytes a device's network interface must buffer, measured from the
//! simulation.

use bench::{cell, Report};
use metaware::footprint::{DEVICE_CLASSES, STACKS};
use metaware::{Middleware, SmartHome};
use simnet::Protocol;
use soap::Value;

fn static_tables() -> Vec<Report> {
    let mut stacks = Report::new(
        "E7",
        "protocol stack footprints (2002-era figures)",
        &["stack", "code bytes", "RAM bytes"],
    );
    for s in STACKS {
        stacks.row(vec![cell(s.name), cell(s.code_bytes), cell(s.ram_bytes)]);
    }
    stacks.print();

    let mut headers = vec!["device class (code/RAM)"];
    headers.extend(STACKS.iter().map(|s| s.name));
    let mut report = Report::new("E7b", "which devices can host which stacks", &headers);
    for d in DEVICE_CLASSES {
        let mut cells = vec![format!("{} ({}/{})", d.name, d.code_budget, d.ram_budget)];
        for s in &STACKS {
            cells.push(if d.can_host(s) {
                "yes".into()
            } else {
                "-".into()
            });
        }
        report.row(cells);
    }
    report.print();
    vec![stacks, report]
}

fn dynamic_table() -> Report {
    // Wire bytes per logical command at each device's attachment point.
    let home = SmartHome::builder().build().unwrap();
    let x10 = home.x10.as_ref().unwrap();
    home.invoke_from(
        Middleware::Jini,
        "hall-lamp",
        "switch",
        &[("on".into(), Value::Bool(true))],
    )
    .unwrap();
    let b_http0 = home
        .backbone
        .with_stats(|s| s.protocol(Protocol::Http).bytes);
    let b_pl0 = x10
        .powerline
        .with_stats(|s| s.protocol(Protocol::X10).bytes);
    home.invoke_from(
        Middleware::Jini,
        "hall-lamp",
        "switch",
        &[("on".into(), Value::Bool(false))],
    )
    .unwrap();
    let soap_bytes = home
        .backbone
        .with_stats(|s| s.protocol(Protocol::Http).bytes)
        - b_http0;
    let x10_bytes = x10
        .powerline
        .with_stats(|s| s.protocol(Protocol::X10).bytes)
        - b_pl0;

    let mut report = Report::new(
        "E7c",
        "dynamic footprint: wire bytes one 'lamp off' must traverse",
        &["attachment point", "bytes/command", "vs X10"],
    );
    report.row(vec![
        "gateway (SOAP/HTTP)".into(),
        cell(soap_bytes),
        format!("{:.0}x", soap_bytes as f64 / x10_bytes.max(1) as f64),
    ]);
    report.row(vec![
        "lamp module (powerline)".into(),
        cell(x10_bytes),
        "1x".into(),
    ]);
    report.print();
    report
}

pub fn run() -> Vec<Report> {
    let mut tables = static_tables();
    tables.push(dynamic_table());
    tables
}
