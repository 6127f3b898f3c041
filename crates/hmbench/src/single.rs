//! Runs the single-home workloads (`mix_soap`, `mix_binary`,
//! `vsr_churn`): one closed-loop client, timed block by block, and the
//! traced pass that itemises the cost per layer.

use crate::alloc;
use crate::ledger::{SelfTimes, HOP_KINDS};
use crate::mix;
use crate::probes;
use crate::report::{calibrate, hop_metric, peak_rss_mb, Measured, Outcome};
use crate::stats::percentile;
use crate::workload::{RunSpec, MIN_BLOCKS};
use crate::world::{Generator, World};
use std::time::Instant;

/// Failed checks quoted in the output, at most.
const QUOTED_FAILURES: usize = 8;

fn block_ops(spec: &RunSpec) -> usize {
    spec.scale.of(spec.workload.block_ops(), 320)
}

/// The untraced run: every end-to-end metric.
pub fn measure(spec: &RunSpec) -> Result<Outcome, String> {
    let mut o = Outcome {
        threads: 1,
        calib_ns: calibrate(),
        ..Outcome::default()
    };
    let mut m = Measured::default();
    let mut world = m.set_up(spec.workload.setup_builds(), || {
        World::build(spec.workload, spec.seed).map_err(|e| format!("set-up: {e}"))
    })?;
    let sim = world.home.sim.clone();
    let mut gen = Generator::new(spec.workload, spec.seed);
    let n = block_ops(spec);

    let mut wall_ns: Vec<u64> = Vec::with_capacity(n + mix::DECK_LEN);
    let started = Instant::now();
    loop {
        let ops = gen.block(n);
        let counted = m.blocks() < MIN_BLOCKS;
        wall_ns.clear();
        let (a0, b0) = alloc::snapshot();
        let (_, w0) = world.wire();
        let v0 = sim.now();
        let t0 = Instant::now();
        for op in &ops {
            let t = Instant::now();
            let got = world.run(op);
            wall_ns.push(t.elapsed().as_nanos() as u64);
            if !world.check(op, &got) {
                o.failed += 1;
                if o.failures.len() < QUOTED_FAILURES {
                    o.failures.push(format!("{op:?} returned {got:?}"));
                }
            }
            world.pump();
        }
        let wall = t0.elapsed().as_secs_f64();
        if counted {
            let (a1, b1) = alloc::snapshot();
            m.allocs += a1 - a0;
            m.alloc_bytes += b1 - b0;
            m.wire_bytes += world.wire().1 - w0;
            m.ops += ops.len() as u64;
            // Read after the counted blocks: a fixed amount of work.
            m.peak_rss_mb = peak_rss_mb();
        }
        o.attempted += ops.len() as u64;
        let virt = (sim.now() - v0).as_secs_f64();
        m.block(ops.len() as u64, wall, virt, &mut wall_ns);
        if m.blocks() >= MIN_BLOCKS && started.elapsed().as_secs_f64() + wall > spec.seconds {
            break;
        }
    }
    if let Some(ok) = world.all_reachable() {
        o.check(ok, || {
            "a moved service is unreachable after the run".to_owned()
        });
    }
    m.finish(&mut o);
    Ok(o)
}

/// The traced pass: a tenth of the ops, on a traced home and an
/// untraced twin fed the same ops; then the wall probes on the twin.
pub fn trace(spec: &RunSpec) -> Result<Outcome, String> {
    let mut o = Outcome {
        threads: 1,
        calib_ns: calibrate(),
        ..Outcome::default()
    };
    let build = || World::build(spec.workload, spec.seed).map_err(|e| format!("set-up: {e}"));
    let (mut traced, mut twin) = (build()?, build()?);
    let mut gen = Generator::new(spec.workload, spec.seed);
    let n = (block_ops(spec) / 10).max(320);

    traced.set_tracing(true);
    let (hits0, lookups0) = traced.cache_counts();
    let registry0 = twin.home.vsr.registry_stats();
    let (frames0, twin_bytes0) = twin.wire();
    let (_, traced_bytes0) = traced.wire();
    let (mut twin_wall, mut traced_wall, mut virt_total, mut ops_total) = (0.0, 0.0, 0u64, 0u64);
    let mut hops = SelfTimes::default();
    let mut intervals = Vec::with_capacity(n + mix::DECK_LEN);
    let mut lag = 0u64;
    let mut twin_ns = Vec::new();
    for _ in 0..MIN_BLOCKS {
        let ops = gen.block(n);
        let t = Instant::now();
        let untraced: Vec<_> = ops
            .iter()
            .map(|op| {
                let t = Instant::now();
                let got = twin.run(op);
                twin_ns.push(t.elapsed().as_nanos() as u64);
                twin.pump();
                got
            })
            .collect();
        twin_wall += t.elapsed().as_secs_f64();

        intervals.clear();
        let t = Instant::now();
        for (op, twin_got) in ops.iter().zip(&untraced) {
            let vs = traced.home.sim.now().as_micros();
            let got = traced.run(op);
            let ve = traced.home.sim.now().as_micros();
            intervals.push((vs, ve));
            virt_total += ve - vs;
            if !traced.check(op, &got) || got != *twin_got {
                o.failed += 1;
                if o.failures.len() < QUOTED_FAILURES {
                    o.failures
                        .push(format!("{op:?}: traced {got:?}, untraced {twin_got:?}"));
                }
            }
            traced.pump();
        }
        traced_wall += t.elapsed().as_secs_f64();
        for (op, got) in ops.iter().zip(&untraced) {
            o.check(twin.check(op, got), || {
                format!("twin: {op:?} returned {got:?}")
            });
        }
        hops.add(&traced.take_spans(), Some(&intervals));
        lag = lag.max(twin.home.vsr.replication_lag());
        ops_total += ops.len() as u64;
    }
    o.attempted = ops_total;
    o.set(
        "op_wall_us_p90",
        percentile(&mut twin_ns, 90.0) as f64 / 1e3,
    );

    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (hits1, lookups1) = traced.cache_counts();
    o.set(
        "rescache.hit_frac",
        frac((hits1 - hits0) as f64, (lookups1 - lookups0) as f64),
    );
    let registry1 = twin.home.vsr.registry_stats();
    o.set(
        "vsr.records_scanned_per_find",
        frac(
            (registry1.records_scanned - registry0.records_scanned) as f64,
            (registry1.inquiries - registry0.inquiries) as f64,
        ),
    );
    o.set("federation.replication_lag", lag as f64);
    let (frames1, twin_bytes1) = twin.wire();
    let per_op = |x: u64| x as f64 / ops_total as f64;
    o.set("simnet.frames_per_op", per_op(frames1 - frames0));
    o.set("trace.wall_overhead_frac", traced_wall / twin_wall - 1.0);
    let traced_bytes = traced.wire().1 - traced_bytes0;
    o.set(
        "trace.bytes_overhead_frac",
        traced_bytes as f64 / (twin_bytes1 - twin_bytes0) as f64 - 1.0,
    );
    let mean_virt = per_op(virt_total);
    o.set("trace.op_virt_us_mean", mean_virt);
    for (kind, self_us) in HOP_KINDS.iter().zip(hops.0) {
        o.set(&hop_metric(kind.label()), per_op(self_us));
    }
    let ledger_virt = per_op(hops.total());
    o.check((ledger_virt - mean_virt).abs() <= 0.01 * mean_virt, || {
        format!("hop self times sum to {ledger_virt:.1} us/op, traced ops took {mean_virt:.1}")
    });
    for name in [
        "cloud.notify_ns",
        "cloud.outbox_peak",
        "cloud.reconnects",
        "cloud.delivered_frac",
        "par.busy_frac",
        "par.barrier_wait_frac",
        "par.commit_ns",
    ] {
        o.set(name, 0.0);
    }

    probes::protocol(spec.workload, spec.scale, &mut o);
    let sample = gen.block(n);
    probes::ledger(&twin, spec.workload, &sample, spec.scale, &mut o);
    probes::control_plane(&twin, spec.scale, &mut o);
    probes::event_queue_sweep(spec.seed, spec.scale, &mut o);
    Ok(o)
}
