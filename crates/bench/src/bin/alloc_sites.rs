//! Where a single-home hmbench workload allocates.
//!
//! ```text
//! CARGO_PROFILE_RELEASE_DEBUG=true cargo run --release -p bench --bin alloc_sites -- \
//!     --workload vsr_churn [--seed 42] [--warm 16000] [--ops 2000] [--top 40]
//! ```
//!
//! Builds the workload's world with `hmbench::world`, runs `--warm`
//! ops from the benchmark's op stream, then `--ops` more while a global
//! allocator captures a backtrace for every allocation (reallocations
//! included, as hmbench counts them). Each op runs as hmbench's
//! measured loop runs it: `run`, `check`, `pump`. After each op the
//! captured backtraces are resolved and keyed by their first frame in
//! this workspace's `crates/`; the report gives allocations and bytes
//! per op by site and rolled up by role (the source file the site is
//! in), and the per-op total, which should read hmbench's
//! `allocs_per_op` for the same workload and seed to within about 1%.
//! Debug info gives the frames their file names; without it every
//! allocation is one unnamed site. `fleet_day` runs on its own driver
//! and is not covered.

use hmbench::workload::Workload;
use hmbench::world::{Generator, Op, World};
use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Captures a backtrace per allocation while [`RECORDING`] is set.
struct Sites;

static RECORDING: AtomicBool = AtomicBool::new(false);
static CAPTURED: Mutex<Vec<(Backtrace, usize)>> = Mutex::new(Vec::new());

thread_local! {
    /// Set while this thread captures or resolves: what the probe
    /// allocates for itself is neither captured nor counted.
    static BUSY: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with this thread's allocations hidden from the probe.
fn hidden<T>(f: impl FnOnce() -> T) -> T {
    let was = BUSY.with(|b| b.replace(true));
    let out = f();
    BUSY.with(|b| b.set(was));
    out
}

fn note(bytes: usize) {
    if !RECORDING.load(Ordering::Relaxed) {
        return;
    }
    let _ = BUSY.try_with(|busy| {
        if busy.replace(true) {
            return;
        }
        let trace = Backtrace::force_capture();
        CAPTURED
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((trace, bytes));
        busy.set(false);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`;
// `note` only touches a const-initialised thread-local `Cell` and a
// `Mutex` whose allocations happen with the thread's guard set, so the
// allocator never re-enters itself.
unsafe impl GlobalAlloc for Sites {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note(l.size());
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        note(n);
        System.realloc(p, l, n)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note(l.size());
        System.alloc_zeroed(l)
    }
}

#[global_allocator]
static ALLOC: Sites = Sites;

/// Allocations and bytes counted against one key.
#[derive(Default, Clone, Copy)]
struct Tally {
    allocs: u64,
    bytes: u64,
}

impl Tally {
    fn add(&mut self, bytes: usize) {
        self.allocs += 1;
        self.bytes += bytes as u64;
    }
}

/// The first frame of `trace` in this workspace's `crates/` (the
/// probe's own frames excluded): its symbol and `file:line`, and its
/// role, the source file under `crates/`.
fn site(trace: &Backtrace) -> (String, String) {
    let text = trace.to_string();
    let mut symbol = "";
    for line in text.lines() {
        let line = line.trim();
        if let Some(at) = line.strip_prefix("at ") {
            let Some(i) = at.find("crates/") else {
                continue;
            };
            let path = &at[i..];
            if path.starts_with("crates/bench/src/bin/") {
                continue;
            }
            let file = path.rsplitn(3, ':').last().unwrap_or(path);
            let role = file
                .trim_start_matches("crates/")
                .trim_end_matches(".rs")
                .replace("/src/", "/");
            return (format!("{symbol} ({path})"), role);
        } else if let Some((_, name)) = line.split_once(": ") {
            symbol = name;
        }
    }
    ("(no workspace frame)".to_owned(), "(none)".to_owned())
}

struct Options {
    workload: Workload,
    seed: u64,
    warm: usize,
    ops: usize,
    top: usize,
}

fn options() -> Result<Options, String> {
    let mut o = Options {
        workload: Workload::VsrChurn,
        seed: 42,
        warm: 16_000,
        ops: 2_000,
        top: 40,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse().map_err(|_| format!("bad {flag} '{value}'"));
        match flag.as_str() {
            "--workload" => {
                o.workload = Workload::parse(&value)
                    .filter(|&w| w != Workload::FleetDay)
                    .ok_or(format!("no single-home workload '{value}'"))?;
            }
            "--seed" => o.seed = number()?,
            "--warm" => o.warm = number()? as usize,
            "--ops" => o.ops = number()? as usize,
            "--top" => o.top = number()? as usize,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let o = match options() {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "alloc_sites: {e}\nusage: alloc_sites --workload <mix_soap|mix_binary|vsr_churn> \
                 [--seed N] [--warm N] [--ops N] [--top N]"
            );
            return ExitCode::from(2);
        }
    };
    let mut world = match World::build(o.workload, o.seed) {
        Ok(world) => world,
        Err(e) => {
            eprintln!("alloc_sites: set-up: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut gen = Generator::new(o.workload, o.seed);
    let mut failed = 0u64;
    let mut step = |world: &mut World, op: &Op| {
        let got = world.run(op);
        if !world.check(op, &got) {
            failed += 1;
        }
        world.pump();
    };
    for op in &gen.block(o.warm) {
        step(&mut world, op);
    }

    let ops = gen.block(o.ops);
    let (mut sites, mut roles) = (HashMap::new(), HashMap::new());
    let mut total = Tally::default();
    for op in &ops {
        RECORDING.store(true, Ordering::Relaxed);
        step(&mut world, op);
        RECORDING.store(false, Ordering::Relaxed);
        hidden(|| {
            let captured = std::mem::take(&mut *CAPTURED.lock().unwrap_or_else(|e| e.into_inner()));
            for (trace, bytes) in captured {
                let (site, role) = site(&trace);
                total.add(bytes);
                sites.entry(site).or_insert_with(Tally::default).add(bytes);
                roles.entry(role).or_insert_with(Tally::default).add(bytes);
            }
        });
    }

    let n = ops.len().max(1) as f64;
    let table = |title: &str, tallies: HashMap<String, Tally>, top: usize| {
        let mut rows: Vec<(String, Tally)> = tallies.into_iter().collect();
        rows.sort_by(|a, b| b.1.allocs.cmp(&a.1.allocs).then_with(|| a.0.cmp(&b.0)));
        println!("\n{title}   allocs/op   bytes/op");
        for (key, t) in rows.into_iter().take(top) {
            println!(
                "{:>10.2} {:>10.1}   {key}",
                t.allocs as f64 / n,
                t.bytes as f64 / n
            );
        }
    };
    println!(
        "alloc_sites {} seed {}: {} ops after {} warm-up ops, {failed} failed checks",
        o.workload,
        o.seed,
        ops.len(),
        o.warm
    );
    println!(
        "allocs_per_op {:.2}  alloc_bytes_per_op {:.1}",
        total.allocs as f64 / n,
        total.bytes as f64 / n
    );
    table("by role", roles, usize::MAX);
    table("by site", sites, o.top);
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
