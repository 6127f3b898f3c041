//! E2 (Fig. 2 / §4.1): automatic proxy generation.
//!
//! Generation cost scales with interface size (the Javassist load-time
//! cost), and the generated proxy's per-call dispatch overhead is
//! negligible next to any network hop. Expected shape: generation is
//! milliseconds per class and amortises after a handful of calls.

use bench::{cell, fmt_us, Report};
use metaware::{generate, OpSig, ProxyGenCost, ServiceInterface, TypeTag};
use simnet::Sim;
use soap::Value;
use std::sync::Arc;

fn iface_with(methods: usize, params_per_method: usize) -> ServiceInterface {
    let mut iface = ServiceInterface::new(format!("Synth{methods}x{params_per_method}"));
    for m in 0..methods {
        let mut op = OpSig::new(format!("op{m}"));
        for p in 0..params_per_method {
            op = op.param(format!("p{p}"), TypeTag::Int);
        }
        iface = iface.op(op.returns(TypeTag::Int));
    }
    iface
}

fn echo_target() -> metaware::ProxyTarget {
    Arc::new(|_, _, args| Ok(Value::Int(args.len() as i64)))
}

pub fn run() -> Vec<Report> {
    let mut report = Report::new(
        "E2",
        "proxy auto-generation cost vs interface size (virtual time)",
        &[
            "methods",
            "params/method",
            "generation",
            "per-call dispatch",
            "gen cost in SOAP-RTs",
        ],
    );
    for (methods, params) in [(1, 0), (4, 2), (8, 2), (16, 4), (32, 8)] {
        let sim = Sim::new(1);
        let iface = iface_with(methods, params);
        let t0 = sim.now();
        let proxy = generate(&sim, ProxyGenCost::default(), &iface, echo_target());
        let gen_cost = (sim.now() - t0).as_micros();

        let args: Vec<(String, Value)> = (0..params)
            .map(|p| (format!("p{p}"), Value::Int(1)))
            .collect();
        let t0 = sim.now();
        proxy.dispatch(&sim, "op0", &args).unwrap();
        let call_cost = (sim.now() - t0).as_micros().max(1);

        // Express the one-time generation cost in units of one warm SOAP
        // gateway round trip (~2.3 ms, from E1).
        let soap_rt = 2_336u64;
        report.row(vec![
            cell(methods),
            cell(params),
            fmt_us(gen_cost),
            fmt_us(call_cost),
            format!("{:.1}", gen_cost as f64 / soap_rt as f64),
        ]);
    }
    report.print();
    vec![report]
}
