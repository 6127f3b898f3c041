//! E5 (§1/§5): why 1:1 bridges don't scale.
//!
//! "It is not enough to develop a single bridge that connects two
//! specific middleware one to one." With pairwise bridges, connecting N
//! middleware costs N(N−1)/2 bridges (each with two converter halves);
//! with the framework it costs N PCMs. Expected shape: O(N²) vs O(N),
//! crossover immediately at N=3.
//!
//! The second table grounds the claim in this codebase: the *measured*
//! per-PCM component counts of the real four-island home.

use bench::{cell, Report};
use metaware::{ProtocolConversionManager, SmartHome};

pub fn run() -> Vec<Report> {
    let mut scaling = Report::new(
        "E5",
        "connecting N middleware: pairwise bridges vs one-PCM-per-middleware",
        &[
            "N",
            "pairwise bridges",
            "bridge converter halves",
            "framework PCMs",
            "PCM proxy modules",
            "saving",
        ],
    );
    for n in 2u64..=8 {
        let bridges = n * (n - 1) / 2;
        let bridge_halves = bridges * 2;
        let pcms = n;
        let pcm_modules = n * 2; // one SP + one CP each
        scaling.row(vec![
            cell(n),
            cell(bridges),
            cell(bridge_halves),
            cell(pcms),
            cell(pcm_modules),
            format!("{:.1}x", bridge_halves as f64 / pcm_modules as f64),
        ]);
    }
    scaling.print();

    // Ground truth from the built system: each island contributed
    // exactly one PCM, and every island reaches every other island.
    let home = SmartHome::builder().upnp(true).build().unwrap();
    let mut report = Report::new(
        "E5b",
        "the real five-island home: one PCM each, full connectivity",
        &[
            "island",
            "PCM",
            "services imported",
            "pairwise bridges this island would need",
        ],
    );
    let pcms: Vec<(&str, &dyn ProtocolConversionManager)> = vec![
        ("jini", &home.jini.as_ref().unwrap().pcm),
        ("havi", &home.havi.as_ref().unwrap().pcm),
        ("x10", &home.x10.as_ref().unwrap().pcm),
        ("mail", &home.mail.as_ref().unwrap().pcm),
        ("upnp", &home.upnp.as_ref().unwrap().pcm),
    ];
    let n = pcms.len();
    for (name, pcm) in &pcms {
        report.row(vec![
            cell(name),
            cell(pcm.middleware()),
            cell(pcm.imported().len()),
            cell(n - 1),
        ]);
    }
    report.print();
    vec![scaling, report]
}
