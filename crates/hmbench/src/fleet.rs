//! `fleet_day`: SOAP homes with cloud bridges, one island each on the
//! parallel scheduler, through one virtual hour of WAN chaos.
//!
//! Every home runs a seeded caller (the device mix), an 8-member
//! batch train, and a cloud bridge fed a diurnal plan of state
//! notifications with a flash crowd. The WAN suffers a per-island
//! jittered loss spike and a partition, then quiets down before the
//! hour ends. The measured phase is the hour in ten equal slices.

use crate::alloc;
use crate::ledger::{SelfTimes, HOP_KINDS};
use crate::mix::{self, Call, Model};
use crate::probes;
use crate::report::{calibrate, hop_metric, peak_rss_mb, Measured, Outcome};
use crate::rng::Rng;
use crate::stats::{median, percentile};
use crate::workload::{RunSpec, Scale, Workload};
use crate::world::{self, Generator, World, HOME_SEED, WARM_UP_STREAM};
use metaware::home::names;
use metaware::{
    BatchCall, BatchItem, BatchPolicy, CloudConfig, CloudFleetSummary, HomeFleet, MetaError,
    Middleware, SmartHome, Vsg,
};
use simnet::{FaultPlan, SimDuration, SimTime};
use soap::Value;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Measured blocks per hour: six virtual minutes each.
const SLICES: usize = 10;
/// Worker threads (never more than the host has cores).
const THREADS: usize = 2;
/// Period of each home's caller.
const CALL_PERIOD: SimDuration = SimDuration::from_millis(250);
/// Period of each home's batch train.
const TRAIN_PERIOD: SimDuration = SimDuration::from_secs(2);
/// Members per batch train.
const TRAIN: usize = 8;
/// State notifications each home raises per hour, spread evenly.
const NOTIFIES: usize = 600;
/// Extra notifications each home raises in the flash crowd.
const FLASH: usize = 200;
/// Failed checks quoted in the output, at most.
const QUOTED_FAILURES: usize = 8;

/// The fleet's size and virtual length at a given scale.
#[derive(Debug, Clone, Copy)]
struct Shape {
    homes: usize,
    length: SimDuration,
    notifies: usize,
    flash: usize,
}

impl Shape {
    fn of(scale: Scale) -> Shape {
        let homes = match scale {
            Scale::Full => 32,
            Scale::Smoke => 8,
        };
        Shape {
            homes,
            length: SimDuration::from_secs(scale.of(3600, 36) as u64),
            notifies: scale.of(NOTIFIES, 1),
            flash: scale.of(FLASH, 1),
        }
    }

    /// `num/den` of the hour, as a duration.
    fn part(self, num: u64, den: u64) -> SimDuration {
        SimDuration::from_micros(self.length.as_micros() * num / den)
    }
}

/// One home's counters, fed by its timers on whichever worker thread
/// runs its island.
#[derive(Debug, Default)]
struct HomeStats {
    calls: u64,
    members: u64,
    notifies: u64,
    failed: u64,
    failures: Vec<String>,
    /// Wall time of each caller op in the current block.
    wall_ns: Vec<u64>,
    /// Set in the traced pass, which then keeps per caller op its
    /// virtual latency and a hash of its result, and per train and
    /// notification its wall time.
    counting: bool,
    virt_us: Vec<u64>,
    call_results: Vec<u64>,
    train_ns: Vec<u64>,
    notify_ns: Vec<u64>,
    outbox_peak: u64,
    /// Running hash of every result, for thread-count fingerprints.
    digest: u64,
}

impl HomeStats {
    fn ops(&self) -> u64 {
        self.calls + self.members + self.notifies
    }

    fn record(&mut self, ok: bool, what: impl FnOnce() -> String, got: &Result<Value, MetaError>) {
        self.digest = (self.digest ^ result_hash(got)).wrapping_mul(0x100_0000_01B3);
        if !ok {
            self.failed += 1;
            if self.failures.len() < QUOTED_FAILURES {
                self.failures.push(what());
            }
        }
    }
}

/// A hash of a result that allocates nothing.
fn result_hash(got: &Result<Value, MetaError>) -> u64 {
    let bytes_hash = |b: &[u8]| {
        b.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, x| {
            (h ^ u64::from(*x)).wrapping_mul(0x100_0000_01B3)
        })
    };
    match got {
        Ok(Value::Null) => 1,
        Ok(Value::Bool(b)) => 2 + u64::from(*b),
        Ok(Value::Int(i)) => 4 ^ (*i as u64),
        Ok(Value::Float(f)) => 5 ^ f.to_bits(),
        Ok(Value::Str(s)) => bytes_hash(s.as_bytes()),
        Ok(_) => 6,
        Err(e) => bytes_hash(e.kind().as_bytes()),
    }
}

/// A built fleet with its callers armed.
struct Fleet {
    fleet: HomeFleet,
    stats: Vec<Arc<Mutex<HomeStats>>>,
    start: SimTime,
    shape: Shape,
}

/// Deals calls from a home's own deck stream.
struct Dealer {
    rng: Rng,
    hand: Vec<Call>,
}

impl Dealer {
    fn next(&mut self) -> Call {
        if self.hand.is_empty() {
            self.hand = mix::deal(&mut self.rng, 1);
        }
        self.hand.pop().expect("a fresh deck is never empty")
    }
}

fn lock(stats: &Mutex<HomeStats>) -> std::sync::MutexGuard<'_, HomeStats> {
    stats
        .lock()
        .expect("a home's timer panicked while holding its stats")
}

impl Fleet {
    /// Builds `shape.homes` cloud homes on `threads` workers, warms
    /// them, and arms every caller, train, plan and fault for the hour.
    fn build(seed: u64, shape: Shape, threads: usize) -> Result<Fleet, MetaError> {
        let fleet = HomeFleet::build(
            SmartHome::builder()
                .seed(HOME_SEED)
                .protocol(world::protocol(Workload::FleetDay))
                .cloud(CloudConfig::default())
                .threads(threads),
            shape.homes,
        )?;
        let mut stats = Vec::with_capacity(shape.homes);
        for (i, home) in fleet.homes().iter().enumerate() {
            let island = i as u64;
            mix::register_scene(home)?;
            let mut model = Model::default();
            for call in mix::warm_up_calls(&mut Rng::new(seed ^ island, WARM_UP_STREAM)) {
                let got = call.invoke(home);
                if !model.check(&call, &got) {
                    return Err(MetaError::Protocol(format!(
                        "warm-up {call:?} returned {got:?}"
                    )));
                }
            }
            stats.push(Arc::new(Mutex::new(HomeStats::default())));
            arm(home, seed, island, Arc::new(Mutex::new(model)), &stats[i]);
        }
        let start = fleet
            .homes()
            .iter()
            .map(|h| h.sim.now())
            .max()
            .unwrap_or(SimTime::ZERO);
        for (i, home) in fleet.homes().iter().enumerate() {
            plan_notifies(home, seed, i as u64, shape, start, &stats[i]);
        }
        let cloud = &fleet.home(0).cloud.as_ref().expect("cloud attached").bridge;
        let at = |num, den| start + shape.part(num, den);
        let chaos = FaultPlan::new()
            .loss_spike(at(15, 100), at(25, 100), 0.3)
            .partition(
                vec![cloud.home_node()],
                vec![cloud.cloud_node()],
                at(40, 100),
                at(40, 100) + shape.part(10, 60),
            );
        fleet.set_wan_fault_plan_jittered(&chaos, seed, shape.part(1, 60));
        Ok(Fleet {
            fleet,
            stats,
            start,
            shape,
        })
    }

    /// Runs slice `block` (0-based, of `SLICES`) of the hour.
    fn run_block(&self, block: usize) {
        let until = self.start + self.shape.part(block as u64 + 1, SLICES as u64);
        self.fleet.run_until(until);
    }

    fn total(&self, f: impl Fn(&HomeStats) -> u64) -> u64 {
        self.stats.iter().map(|s| f(&lock(s))).sum()
    }

    fn backbone(&self) -> (u64, u64) {
        self.fleet.homes().iter().fold((0, 0), |(f, b), h| {
            let t = h.backbone.with_stats(|s| s.total());
            (f + t.frames, b + t.bytes)
        })
    }

    fn summary(&self) -> CloudFleetSummary {
        self.fleet.cloud_backbone().summary()
    }

    /// Everything a run computes, none of it wall clock: results,
    /// cloud outcomes, metrics snapshots and scheduler counts.
    fn fingerprint(&self) -> String {
        let digests: Vec<u64> = self.stats.iter().map(|s| lock(s).digest).collect();
        format!(
            "{:?}\n{digests:?}\n{}\n{}",
            self.summary(),
            self.fleet.fleet_snapshot().to_json(),
            self.fleet.profile_lines()
        )
    }

    /// Moves every home's failures into `o`.
    fn collect_failures(&self, o: &mut Outcome) {
        for s in &self.stats {
            let mut s = lock(s);
            o.failed += s.failed;
            o.failures.append(&mut s.failures);
            s.failed = 0;
        }
        let summary = self.summary();
        o.check(summary.duplicate_effects == 0, || {
            format!("{} duplicate cloud effects", summary.duplicate_effects)
        });
    }
}

/// Arms one home's caller and batch train.
fn arm(
    home: &SmartHome,
    seed: u64,
    island: u64,
    model: Arc<Mutex<Model>>,
    stats: &Arc<Mutex<HomeStats>>,
) {
    let gateways: Vec<(Middleware, Vsg)> = mix::ISLANDS
        .iter()
        .map(|&mw| (mw, home.gateway(mw).cloned().expect("standard island")))
        .collect();
    let mut dealer = Dealer {
        rng: Rng::new(seed ^ island, 0xCA11),
        hand: Vec::new(),
    };
    let (m, s) = (model.clone(), stats.clone());
    home.sim.every(CALL_PERIOD, move |sim| {
        let call = dealer.next();
        let gw = &gateways
            .iter()
            .find(|(mw, _)| *mw == call.from)
            .expect("island")
            .1;
        let v0 = sim.now();
        let t = Instant::now();
        let got = call.invoke_on(gw, sim);
        let wall = t.elapsed().as_nanos() as u64;
        let virt = (sim.now() - v0).as_micros();
        let ok = m.lock().expect("model lock").check(&call, &got);
        let mut s = lock(&s);
        s.calls += 1;
        s.wall_ns.push(wall);
        if s.counting {
            s.virt_us.push(virt);
            s.call_results.push(result_hash(&got));
        }
        s.record(ok, || format!("{call:?} returned {got:?}"), &got);
    });

    let jini = home
        .gateway(Middleware::Jini)
        .cloned()
        .expect("jini island");
    jini.set_batching(BatchPolicy {
        max_batch: TRAIN,
        ..BatchPolicy::default()
    });
    let items: Vec<BatchItem> = [
        ("hall-lamp", "status"),
        ("fridge", "temperature"),
        ("tv-tuner", "channel"),
        ("hall-lamp", "status"),
    ]
    .iter()
    .cycle()
    .take(TRAIN)
    .map(|(service, op)| BatchItem::Call(BatchCall::new(*service, *op)))
    .collect();
    let stats = stats.clone();
    home.sim.every(TRAIN_PERIOD, move |sim| {
        let t = Instant::now();
        let results = jini.invoke_batch(sim, &items);
        let wall = t.elapsed().as_nanos() as u64;
        let model = model.lock().expect("model lock");
        let mut s = lock(&stats);
        if s.counting {
            s.train_ns.push(wall);
        }
        for (item, got) in items.iter().zip(&results) {
            let BatchItem::Call(c) = item else { continue };
            let ok = match (c.service.as_str(), got) {
                ("hall-lamp", Ok(v)) => *v == Value::Bool(model.hall_on()),
                ("fridge", Ok(v)) => *v == Value::Float(4.0),
                ("tv-tuner", Ok(v)) => *v == Value::Int(model.channel()),
                _ => false,
            };
            s.members += 1;
            s.record(
                ok,
                || format!("train {}.{} returned {got:?}", c.service, c.operation),
                got,
            );
        }
    });
}

/// Schedules one home's diurnal notification plan and flash crowd.
fn plan_notifies(
    home: &SmartHome,
    seed: u64,
    island: u64,
    shape: Shape,
    start: SimTime,
    stats: &Arc<Mutex<HomeStats>>,
) {
    let bridge = home.cloud.as_ref().expect("cloud attached").bridge.clone();
    let devices: Vec<&'static str> = names::JINI
        .iter()
        .chain(&names::HAVI)
        .chain(&names::X10)
        .chain(&names::MAIL)
        .copied()
        .collect();
    let mut rng = Rng::new(seed ^ island, 0x9107);
    // The plan stops five minutes (of sixty) before the hour ends.
    let plan_us = shape.part(55, 60).as_micros();
    let (flash_from, flash_us) = (
        shape.part(45, 100).as_micros(),
        shape.part(10, 100).as_micros(),
    );
    for k in 0..shape.notifies + shape.flash {
        let offset = if k < shape.notifies {
            rng.below(plan_us)
        } else {
            flash_from + rng.below(flash_us)
        };
        let device = devices[rng.below(devices.len() as u64) as usize];
        let payload = format!("s{k}");
        let (bridge, stats) = (bridge.clone(), stats.clone());
        home.sim
            .schedule_at(start + SimDuration::from_micros(offset), move |_| {
                let t = Instant::now();
                let got = bridge.notify_state(device, &payload);
                let wall = t.elapsed().as_nanos() as u64;
                let mut s = lock(&stats);
                s.notifies += 1;
                if s.counting {
                    s.notify_ns.push(wall);
                }
                s.outbox_peak = s.outbox_peak.max(bridge.outbox_len() as u64);
                let got = got.map(|_| Value::Null);
                s.record(got.is_ok(), || format!("notify {device}: {got:?}"), &got);
            });
    }
}

fn threads() -> usize {
    THREADS.min(std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The untraced run: every end-to-end metric.
pub fn measure(spec: &RunSpec) -> Result<Outcome, String> {
    let threads = threads();
    let mut o = Outcome {
        threads,
        calib_ns: calibrate(),
        ..Outcome::default()
    };
    let mut m = Measured::default();
    let shape = Shape::of(spec.scale);
    let build = || Fleet::build(spec.seed, shape, threads).map_err(|e| format!("set-up: {e}"));
    let mut day = m.set_up(spec.workload.setup_builds(), build)?;

    let mut wall_ns = Vec::new();
    let slice_s = shape.part(1, SLICES as u64).as_secs_f64() * shape.homes as f64;
    let started = Instant::now();
    for round in 0.. {
        if round > 0 {
            day = build()?;
        }
        let round_started = Instant::now();
        let counted = round == 0;
        for block in 0..SLICES {
            for s in &day.stats {
                lock(s).wall_ns.clear();
            }
            let ops0 = day.total(HomeStats::ops);
            let (a0, b0) = alloc::snapshot();
            let (_, w0) = day.backbone();
            let t = Instant::now();
            day.run_block(block);
            let wall = t.elapsed().as_secs_f64();
            let ops = day.total(HomeStats::ops) - ops0;
            if counted {
                let (a1, b1) = alloc::snapshot();
                m.allocs += a1 - a0;
                m.alloc_bytes += b1 - b0;
                m.wire_bytes += day.backbone().1 - w0;
                m.ops += ops;
            }
            o.attempted += ops;
            wall_ns.clear();
            for s in &day.stats {
                wall_ns.extend_from_slice(&lock(s).wall_ns);
            }
            m.block(ops, wall, slice_s, &mut wall_ns);
        }
        if counted {
            m.peak_rss_mb = peak_rss_mb();
        }
        day.collect_failures(&mut o);
        let round_wall = round_started.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + round_wall > spec.seconds {
            break;
        }
    }
    drop(day);

    // Thread count must never change results.
    let smoke = Shape::of(Scale::Smoke);
    let run = |t| -> Result<String, String> {
        let d =
            Fleet::build(spec.seed, smoke, t).map_err(|e| format!("fingerprint set-up: {e}"))?;
        for block in 0..SLICES {
            d.run_block(block);
        }
        Ok(d.fingerprint())
    };
    let (one, two) = (run(1)?, run(2)?);
    o.check(one == two, || {
        "fleet_day fingerprints differ at 1 and 2 threads".to_owned()
    });
    m.finish(&mut o);
    Ok(o)
}

/// The traced pass: a traced fleet and an untraced twin fleet with an
/// eighth of the homes, then the wall probes on a twin home.
pub fn trace(spec: &RunSpec) -> Result<Outcome, String> {
    let threads = threads();
    let mut o = Outcome {
        threads,
        calib_ns: calibrate(),
        ..Outcome::default()
    };
    let full = Shape::of(spec.scale);
    let shape = Shape {
        homes: (full.homes / 8).max(2),
        ..full
    };
    let build = || Fleet::build(spec.seed, shape, threads).map_err(|e| format!("set-up: {e}"));
    let (traced, twin) = (build()?, build()?);
    traced.fleet.set_tracing(true);
    let cache = |day: &Fleet| {
        day.fleet
            .homes()
            .iter()
            .flat_map(|h| h.gateways())
            .map(|g| g.cache_stats())
            .fold((0, 0), |(h, n), s| {
                (h + s.hits, n + s.hits + s.negative_hits + s.misses)
            })
    };
    let registry = |day: &Fleet| {
        day.fleet
            .homes()
            .iter()
            .fold((0, 0), |(scanned, finds), h| {
                let r = h.vsr.registry_stats();
                (scanned + r.records_scanned, finds + r.inquiries)
            })
    };
    let (hits0, lookups0) = cache(&traced);
    let (scanned0, finds0) = registry(&twin);
    let (frames0, twin_bytes0) = twin.backbone();
    let (_, traced_bytes0) = traced.backbone();
    let (mut twin_wall, mut traced_wall) = (0.0, 0.0);
    let mut hops = SelfTimes::default();
    let mut lag = 0;
    for s in traced.stats.iter().chain(&twin.stats) {
        lock(s).counting = true;
    }
    for block in 0..SLICES {
        let t = Instant::now();
        twin.run_block(block);
        twin_wall += t.elapsed().as_secs_f64();
        let t = Instant::now();
        traced.run_block(block);
        traced_wall += t.elapsed().as_secs_f64();
        for home in traced.fleet.homes() {
            hops.add(&home.take_spans(), None);
        }
        lag = twin
            .fleet
            .homes()
            .iter()
            .map(|h| h.vsr.replication_lag())
            .fold(lag, u64::max);
    }
    // Tracing shifts virtual timing (trace headers ride the wire), so
    // the homes' timers interleave differently; each home's call
    // sequence, and so every result in it, must not change.
    for (i, (t, u)) in traced.stats.iter().zip(&twin.stats).enumerate() {
        let (t, u) = (lock(t), lock(u));
        let common = t.call_results.len().min(u.call_results.len());
        o.check(
            common > 0 && t.call_results[..common] == u.call_results[..common],
            || format!("home {i}: traced call results differ from the untraced twin's"),
        );
    }
    let ops = traced.total(HomeStats::ops);
    o.attempted = ops;
    let mut wall_ns: Vec<u64> = Vec::new();
    for s in &twin.stats {
        wall_ns.extend_from_slice(&lock(s).wall_ns);
    }
    o.set(
        "op_wall_us_p90",
        percentile(&mut wall_ns, 90.0) as f64 / 1e3,
    );
    traced.collect_failures(&mut o);
    twin.collect_failures(&mut o);

    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let per_op = |x: u64| x as f64 / ops as f64;
    let (hits1, lookups1) = cache(&traced);
    o.set(
        "rescache.hit_frac",
        frac((hits1 - hits0) as f64, (lookups1 - lookups0) as f64),
    );
    let (scanned1, finds1) = registry(&twin);
    o.set(
        "vsr.records_scanned_per_find",
        frac((scanned1 - scanned0) as f64, (finds1 - finds0) as f64),
    );
    o.set("federation.replication_lag", lag as f64);
    let (frames1, twin_bytes1) = twin.backbone();
    o.set(
        "simnet.frames_per_op",
        (frames1 - frames0) as f64 / twin.total(HomeStats::ops) as f64,
    );
    o.set("trace.wall_overhead_frac", traced_wall / twin_wall - 1.0);
    o.set(
        "trace.bytes_overhead_frac",
        (traced.backbone().1 - traced_bytes0) as f64 / (twin_bytes1 - twin_bytes0) as f64 - 1.0,
    );
    let mut virt: Vec<u64> = Vec::new();
    for s in &traced.stats {
        virt.append(&mut lock(s).virt_us);
    }
    o.set(
        "trace.op_virt_us_mean",
        frac(virt.iter().sum::<u64>() as f64, virt.len() as f64),
    );
    for (kind, self_us) in HOP_KINDS.iter().zip(hops.0) {
        o.set(&hop_metric(kind.label()), per_op(self_us));
    }

    let gather = |f: fn(&HomeStats) -> &Vec<u64>| -> Vec<f64> {
        twin.stats
            .iter()
            .flat_map(|s| f(&lock(s)).iter().map(|&x| x as f64).collect::<Vec<_>>())
            .collect()
    };
    let med = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
    o.set(
        "batch.member_ns",
        med(gather(|s| &s.train_ns)) / TRAIN as f64,
    );
    o.set("cloud.notify_ns", med(gather(|s| &s.notify_ns)));
    o.set(
        "cloud.outbox_peak",
        twin.stats
            .iter()
            .map(|s| lock(s).outbox_peak)
            .max()
            .unwrap_or(0) as f64,
    );
    let summary = twin.summary();
    o.set("cloud.reconnects", summary.reconnects as f64);
    o.set("cloud.delivered_frac", summary.delivered_ratio);
    let profiles = twin.fleet.par().profiles();
    let busy: u64 = profiles.iter().map(|p| p.busy_ns).sum();
    let wait: u64 = profiles.iter().map(|p| p.barrier_wait_ns).sum();
    o.set(
        "par.busy_frac",
        frac(busy as f64 / 1e9, twin_wall * threads as f64),
    );
    o.set(
        "par.barrier_wait_frac",
        frac(wait as f64, (busy + wait) as f64),
    );
    o.set("par.commit_ns", twin.fleet.par().commit_wall_ns() as f64);
    drop((traced, twin));

    // The layer probes, on a twin of one home fed the same call mix.
    probes::protocol(spec.workload, spec.scale, &mut o);
    let probe_home = World::build(spec.workload, spec.seed).map_err(|e| format!("set-up: {e}"))?;
    let sample = Generator::new(spec.workload, spec.seed).block(mix::DECK_LEN);
    probes::ledger(&probe_home, spec.workload, &sample, spec.scale, &mut o);
    probes::control_plane(&probe_home, spec.scale, &mut o);
    probes::event_queue_sweep(spec.seed, spec.scale, &mut o);
    Ok(o)
}
