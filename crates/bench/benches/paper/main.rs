//! The paper's evaluation (§4, Figs. 1–5), reproduced as E1–E10.
//!
//! One module per experiment; each module's `run` prints its tables and
//! returns them. The experiments run in E1…E10 order, then every value
//! cell of their 13 tables is written to one gated artefact,
//! `BENCH_paper.json` (see [`Report::flatten`]). E3, E4, E8 and E9 also
//! assert their claims inline, so a broken claim fails the run.

mod e10_streams;
mod e1_cross_matrix;
mod e2_proxygen;
mod e3_conversion_path;
mod e4_vsg_protocols;
mod e5_bridge_scaling;
mod e6_event_delivery;
mod e7_stack_footprint;
mod e8_vsr_lookup;
mod e9_universal_remote;

use bench::Report;

fn main() {
    let tables: Vec<Report> = [
        e1_cross_matrix::run(),
        e2_proxygen::run(),
        e3_conversion_path::run(),
        e4_vsg_protocols::run(),
        e5_bridge_scaling::run(),
        e6_event_delivery::run(),
        e7_stack_footprint::run(),
        e8_vsr_lookup::run(),
        e9_universal_remote::run(),
        e10_streams::run(),
    ]
    .into_iter()
    .flatten()
    .collect();
    let cells = Report::flatten(
        "paper",
        "E1–E10: every value cell of the paper's reproduced tables",
        &tables,
    );
    bench::write_result("BENCH_paper.json", &cells.to_json());
}
