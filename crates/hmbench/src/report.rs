//! Metric names and units, run outcomes, provenance, and the printed
//! and written record.

use crate::json::{num, quote};
use crate::ledger::HOP_KINDS;
use crate::stats::{median, percentile_sorted};
use crate::workload::RunSpec;
use std::hint::black_box;
use std::time::Instant;

/// End-to-end metrics: `(name, unit)`. Bounds and directions live in
/// `BENCHMARK.json`; the smoke test checks the two lists agree.
///
/// The op wall-time p90 is not among them: on a shared host it moved
/// by up to a quarter between runs, so the traced pass reports it.
/// Nor is virtual latency: every deck holds the same calls, each kind
/// of call has a fixed modelled latency, so on `mix_binary` its p50,
/// p99 and mean read the same for every seed. The traced pass reports
/// it as `trace.op_virt_us_mean` and itemises it per hop.
pub const END_TO_END: [(&str, &str); 8] = [
    ("ops_per_s", "ops/s"),
    ("op_wall_us_p50", "us"),
    ("wire_bytes_per_op", "B"),
    ("allocs_per_op", "count"),
    ("alloc_bytes_per_op", "B"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_speed", "s/s"),
];

/// Per-layer metrics other than the `hop.*` ledger: `(name, unit)`.
const PER_LAYER: [(&str, &str); 39] = [
    ("op_wall_us_p90", "us"),
    ("rescache.resolve_ns", "ns"),
    ("rescache.hit_ns", "ns"),
    ("rescache.hit_frac", "frac"),
    ("vsr.resolve_ns", "ns"),
    ("vsr.move_ns", "ns"),
    ("vsr.records_scanned_per_find", "count"),
    ("federation.replication_lag", "count"),
    ("federation.sync_ns", "ns"),
    ("protocol.call_ns", "ns"),
    ("protocol.call_allocs", "count"),
    ("protocol.call_bytes", "B"),
    ("protocol.encode_ns", "ns"),
    ("protocol.decode_ns", "ns"),
    ("pcm.local_ns.jini", "ns"),
    ("pcm.local_ns.havi", "ns"),
    ("pcm.local_ns.x10", "ns"),
    ("pcm.local_ns.mail", "ns"),
    ("vsg.remote_ns", "ns"),
    ("vsg.self_ns", "ns"),
    ("compose.invoke_ns", "ns"),
    ("compose.engine_self_ns", "ns"),
    ("batch.member_ns", "ns"),
    ("cloud.notify_ns", "ns"),
    ("cloud.outbox_peak", "count"),
    ("cloud.reconnects", "count"),
    ("cloud.delivered_frac", "frac"),
    ("simnet.event_ns.d100", "ns"),
    ("simnet.event_ns.d1000", "ns"),
    ("simnet.event_ns.d10000", "ns"),
    ("simnet.event_ns.d100000", "ns"),
    ("simnet.event_ns.d1000000", "ns"),
    ("simnet.frames_per_op", "count"),
    ("par.busy_frac", "frac"),
    ("par.barrier_wait_frac", "frac"),
    ("par.commit_ns", "ns"),
    ("trace.wall_overhead_frac", "frac"),
    ("trace.bytes_overhead_frac", "frac"),
    ("trace.op_virt_us_mean", "us"),
];

/// The name of the ledger metric for one hop kind.
pub fn hop_metric(label: &str) -> String {
    format!("hop.{label}.self_virt_us")
}

/// Every per-layer metric, `(name, unit)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|(n, u)| ((*n).to_owned(), *u))
        .chain(HOP_KINDS.iter().map(|k| (hop_metric(k.label()), "us")))
        .collect()
}

/// What an untraced run collects: wall figures per block, and counts
/// over the fixed first [`crate::workload::MIN_BLOCKS`] blocks.
#[derive(Debug, Default)]
pub struct Measured {
    rates: Vec<f64>,
    p50_us: Vec<f64>,
    speeds: Vec<f64>,
    /// Set-up times (build and warm-up), seconds.
    pub setup_s: Vec<f64>,
    /// Ops in the counted blocks.
    pub ops: u64,
    /// Allocations in the counted blocks.
    pub allocs: u64,
    /// Bytes allocated in the counted blocks.
    pub alloc_bytes: u64,
    /// Backbone bytes in the counted blocks.
    pub wire_bytes: u64,
    /// Peak RSS right after the counted blocks.
    pub peak_rss_mb: f64,
}

impl Measured {
    /// Builds the workload with `build` `times` times, recording each
    /// set-up time, and returns the last build.
    pub fn set_up<T>(
        &mut self,
        times: usize,
        mut build: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..times {
            drop(last.take());
            let t = Instant::now();
            last = Some(build()?);
            self.setup_s.push(t.elapsed().as_secs_f64());
        }
        Ok(last.expect("at least one set-up"))
    }

    /// Measured blocks so far.
    pub fn blocks(&self) -> usize {
        self.rates.len()
    }

    /// Adds one block: `ops` done in `wall_s` seconds, advancing
    /// `virt_s` home-virtual seconds, with per-op wall latencies
    /// `wall_ns` (sorted in place).
    pub fn block(&mut self, ops: u64, wall_s: f64, virt_s: f64, wall_ns: &mut [u64]) {
        self.rates.push(ops as f64 / wall_s);
        self.speeds.push(virt_s / wall_s);
        wall_ns.sort_unstable();
        self.p50_us
            .push(percentile_sorted(wall_ns, 50.0) as f64 / 1e3);
    }

    /// Records every end-to-end metric in `o`.
    pub fn finish(self, o: &mut Outcome) {
        o.set("ops_per_s", median(&self.rates));
        o.set("op_wall_us_p50", median(&self.p50_us));
        let per_op = |x: u64| x as f64 / self.ops as f64;
        o.set("wire_bytes_per_op", per_op(self.wire_bytes));
        o.set("allocs_per_op", per_op(self.allocs));
        o.set("alloc_bytes_per_op", per_op(self.alloc_bytes));
        o.set("setup_s", median(&self.setup_s));
        o.set("peak_rss_mb", self.peak_rss_mb);
        o.set("sim_speed", median(&self.speeds));
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong value.
    pub failed: u64,
    /// Failed checks, one line each (empty when the run is correct).
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: Vec<(String, f64)>,
    /// Worker threads the workload ran on.
    pub threads: usize,
    /// The run's calibration loop speed, ns/iter.
    pub calib_ns: f64,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.push((name.to_owned(), value));
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// The peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds per iteration of a fixed integer-mixing loop: a
/// yardstick of how fast this host ran, stamped on every record.
pub fn calibrate() -> f64 {
    const ITERS: u64 = 4_000_000;
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..ITERS {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    black_box(x);
    t.elapsed().as_nanos() as f64 / ITERS as f64
}

/// The git revision of the working directory, read from `.git`
/// without running git; `"unknown"` outside a repository.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_owned))
            })
            .unwrap_or_else(|| "unknown".to_owned()),
    }
}

/// Prints `name workload value unit` lines and the provenance, writes
/// the full record to `out` when given, and returns the last stdout
/// line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn emit(spec: &RunSpec, o: &Outcome, out: Option<&str>) -> Result<String, String> {
    let correct = o.failures.is_empty() && o.failed == 0;
    let names = if spec.trace {
        per_layer()
    } else {
        END_TO_END.map(|(n, u)| (n.to_owned(), u)).to_vec()
    };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let value = o
            .value(&name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        println!("{name} {} {value} {unit}", spec.workload);
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(&name),
            num(value),
            quote(unit)
        ));
    }
    for failure in &o.failures {
        println!("check failed: {failure}");
    }
    let provenance = format!(
        "\"workload\": {}, \"seed\": {}, \"trace\": {}, \"scale\": {}, \"seconds\": {}, \
         \"threads\": {}, \"nproc\": {}, \"git_rev\": {}, \"calib_ns_per_iter\": {}",
        quote(spec.workload.name()),
        spec.seed,
        spec.trace,
        quote(&format!("{:?}", spec.scale).to_lowercase()),
        num(spec.seconds),
        o.threads,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        quote(&git_rev()),
        num(o.calib_ns),
    );
    println!("provenance {{{provenance}}}");
    let result = format!(
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
    if let Some(path) = out {
        std::fs::write(path, format!("{{{provenance}, {result}}}\n"))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(format!("{{{result}}}"))
}
