//! Conservative parallel discrete-event execution over island worlds.
//!
//! A [`ParSim`] holds a set of *islands* — independent [`Sim`] worlds,
//! each with its own clock, event queue and RNG stream — plus the
//! declared *couplings* between them (the cross-island links, each with
//! a minimum latency). It executes them under the classic conservative
//! (Chandy–Misra style) discipline:
//!
//! 1. **Lookahead.** The minimum latency over all couplings is the
//!    lookahead `L`: a cross-island message sent at time `t` cannot be
//!    delivered before `t + L`.
//! 2. **Windows.** Each round picks `t_min`, the earliest pending event
//!    across all islands, and fires every event in the half-open window
//!    `[t_min, t_min + L)` — islands are mutually invisible inside a
//!    window, so every island whose next event falls inside it can run
//!    on a worker thread concurrently.
//! 3. **Deterministic merge.** Cross-island sends made during a window
//!    go to a shared outbox via a [`Courier`]; at the window barrier the
//!    outbox is sorted by `(deliver_time, source_island, sequence)` and
//!    committed to the destination queues in that order. The sort key is
//!    a pure function of simulation state, so `SIM_THREADS=1` and
//!    `SIM_THREADS=N` produce bit-for-bit identical traces, metrics and
//!    chaos outcomes.
//!
//! Islands with no coupling at all (the "fleet of independent homes"
//! shape) form singleton components; with no couplings the lookahead is
//! infinite and each round is one window to the deadline — maximum
//! parallelism with zero synchronisation beyond the final barrier.
//!
//! Components over the coupling graph are tracked incrementally with a
//! union-find as couplings are declared, so diagnostics (and the bench
//! metadata) can report how much parallel slack a topology actually
//! has.

use crate::sim::Sim;
use crate::time::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One buffered cross-island action awaiting its window barrier.
struct CrossSend {
    deliver_at: SimTime,
    src_island: u32,
    seq: u64,
    dst: usize,
    f: Box<dyn FnOnce(&Sim) + Send>,
}

/// State shared between the executor and its [`Courier`]s.
struct ParShared {
    outbox: Mutex<Vec<CrossSend>>,
    /// Minimum latency over all couplings; `None` while uncoupled
    /// (infinite lookahead).
    lookahead: Mutex<Option<SimDuration>>,
    cross_sends: AtomicU64,
}

/// Statistics for one [`ParSim::run_until`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParRunStats {
    /// Lookahead windows executed (barriers passed).
    pub windows: u64,
    /// Events fired across all islands.
    pub events: u64,
    /// Cross-island sends committed.
    pub cross_sends: u64,
}

/// Per-island execution profile, accumulated over the executor's
/// lifetime.
///
/// `windows`, `events` and `commits` are pure functions of simulation
/// state — identical for any thread count — and safe to print in
/// determinism-diffed output. `busy_ns` and `barrier_wait_ns` are
/// wall-clock attribution (how long the island's windows ran, and how
/// long it sat finished while the window barrier waited on slower
/// islands); they vary run to run and must stay out of diffed output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IslandProfile {
    /// Windows this island was runnable in.
    pub windows: u64,
    /// Events the island fired.
    pub events: u64,
    /// Cross-island sends committed *to* this island.
    pub commits: u64,
    /// Wall time spent executing the island's windows.
    pub busy_ns: u64,
    /// Wall time between finishing a window and the window's barrier
    /// releasing (zero when dispatched sequentially).
    pub barrier_wait_ns: u64,
}

impl IslandProfile {
    /// The deterministic fields as a stable one-line summary, safe for
    /// thread-count-diffed output.
    pub fn deterministic_line(&self, island: usize) -> String {
        format!(
            "island {island}: windows={} events={} commits={}",
            self.windows, self.events, self.commits
        )
    }
}

/// A conservative parallel executor over a set of island [`Sim`]s.
pub struct ParSim {
    islands: Vec<Sim>,
    /// Per-island sequence wells for outbox ordering.
    send_seq: Vec<Arc<AtomicU64>>,
    /// Union-find parent per island over the coupling graph.
    parent: Vec<usize>,
    shared: Arc<ParShared>,
    /// Per-island execution profiles (see [`IslandProfile`]).
    profiles: Arc<Mutex<Vec<IslandProfile>>>,
    /// Wall time spent sorting and committing the outbox at barriers.
    commit_ns: AtomicU64,
    threads: usize,
    #[cfg(feature = "parallel")]
    pool: Option<rayon::ThreadPool>,
}

impl ParSim {
    /// Creates an executor that dispatches runnable islands onto
    /// `threads` workers (1 = fully sequential, which is also the
    /// fallback when the `parallel` feature is disabled).
    pub fn new(threads: usize) -> ParSim {
        let threads = threads.max(1);
        ParSim {
            islands: Vec::new(),
            send_seq: Vec::new(),
            parent: Vec::new(),
            shared: Arc::new(ParShared {
                outbox: Mutex::new(Vec::new()),
                lookahead: Mutex::new(None),
                cross_sends: AtomicU64::new(0),
            }),
            profiles: Arc::new(Mutex::new(Vec::new())),
            commit_ns: AtomicU64::new(0),
            threads,
            #[cfg(feature = "parallel")]
            pool: if threads > 1 {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .ok()
            } else {
                None
            },
        }
    }

    /// Adds an island world, returning its index. Use
    /// [`Sim::with_island`] so each island draws a decorrelated RNG
    /// stream.
    pub fn add_island(&mut self, sim: Sim) -> usize {
        let index = self.islands.len();
        self.islands.push(sim);
        self.send_seq.push(Arc::new(AtomicU64::new(0)));
        self.parent.push(index);
        self.profiles.lock().push(IslandProfile::default());
        index
    }

    /// Declares a coupling (cross-island link) between islands `a` and
    /// `b` whose one-way latency is at least `latency`. Tightens the
    /// global lookahead and merges the two islands' components.
    pub fn couple(&mut self, a: usize, b: usize, latency: SimDuration) {
        assert!(a < self.islands.len() && b < self.islands.len());
        assert!(
            !latency.is_zero(),
            "cross-island links need positive latency (zero lookahead \
             would serialise every window)"
        );
        let mut lookahead = self.shared.lookahead.lock();
        *lookahead = Some(match *lookahead {
            Some(l) => l.min(latency),
            None => latency,
        });
        drop(lookahead);
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    /// The current global lookahead (`None` = no couplings, infinite).
    pub fn lookahead(&self) -> Option<SimDuration> {
        *self.shared.lookahead.lock()
    }

    /// The island worlds, in index order.
    pub fn islands(&self) -> &[Sim] {
        &self.islands
    }

    /// Worker threads this executor dispatches onto.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of connected components over the coupling graph — the
    /// upper bound on zero-synchronisation parallelism.
    #[cfg(test)]
    fn component_count(&mut self) -> usize {
        (0..self.islands.len())
            .filter(|&i| self.find(i) == i)
            .count()
    }

    /// Creates the cross-island send handle for island `src`.
    pub fn courier(&self, src: usize) -> Courier {
        assert!(src < self.islands.len());
        Courier {
            src: self.islands[src].clone(),
            src_island: src as u32,
            seq: self.send_seq[src].clone(),
            shared: self.shared.clone(),
        }
    }

    /// Commits buffered cross-island sends in `(deliver_time,
    /// source_island, sequence)` order — a total order that is a pure
    /// function of simulation state, independent of worker scheduling.
    fn commit_outbox(&self) -> u64 {
        let mut pending = {
            let mut outbox = self.shared.outbox.lock();
            std::mem::take(&mut *outbox)
        };
        if pending.is_empty() {
            return 0;
        }
        let started = std::time::Instant::now();
        let committed = pending.len() as u64;
        pending.sort_by_key(|c| (c.deliver_at, c.src_island, c.seq));
        {
            let mut profiles = self.profiles.lock();
            for send in &pending {
                profiles[send.dst].commits += 1;
            }
        }
        for send in pending {
            let f = send.f;
            self.islands[send.dst].schedule_at(send.deliver_at, move |sim| f(sim));
        }
        self.commit_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        committed
    }

    /// The earliest pending event time across all islands.
    fn next_event_at(&self) -> Option<SimTime> {
        self.islands.iter().filter_map(|s| s.next_timer_at()).min()
    }

    /// Runs every island up to and including `deadline`, firing events
    /// in lookahead windows and leaving all island clocks on
    /// `deadline`. Equivalent to calling `run_until(deadline)` on each
    /// island in turn when there are no couplings and one thread.
    pub fn run_until(&self, deadline: SimTime) -> ParRunStats {
        let mut stats = ParRunStats::default();
        let deadline_bound = SimTime::from_micros(deadline.as_micros().saturating_add(1));
        loop {
            stats.cross_sends += self.commit_outbox();
            let Some(t_min) = self.next_event_at() else {
                break;
            };
            if t_min > deadline {
                break;
            }
            let bound = match self.lookahead() {
                Some(l) => t_min
                    .checked_add(l)
                    .unwrap_or(SimTime::MAX)
                    .min(deadline_bound),
                None => deadline_bound,
            };
            let runnable: Vec<(usize, Sim)> = self
                .islands
                .iter()
                .enumerate()
                .filter(|(_, s)| s.next_timer_at().is_some_and(|t| t < bound))
                .map(|(i, s)| (i, s.clone()))
                .collect();
            stats.events += self.dispatch(runnable, bound);
            stats.windows += 1;
        }
        stats.cross_sends += self.commit_outbox();
        for island in &self.islands {
            island.run_until(deadline);
        }
        stats
    }

    /// Runs for `d` past the latest island clock.
    pub fn run_for(&self, d: SimDuration) -> ParRunStats {
        let now = self
            .islands
            .iter()
            .map(|s| s.now())
            .max()
            .unwrap_or(SimTime::ZERO);
        self.run_until(now + d)
    }

    /// Fires one window on every runnable island, in parallel when a
    /// pool is available. Within a window islands share no state except
    /// the outbox (merged deterministically afterwards), so dispatch
    /// order cannot influence results.
    fn dispatch(&self, runnable: Vec<(usize, Sim)>, bound: SimTime) -> u64 {
        #[cfg(feature = "parallel")]
        if runnable.len() > 1 {
            if let Some(pool) = &self.pool {
                let window_started = std::time::Instant::now();
                // (island, events fired, busy ns) per finished window;
                // the shim's spawn needs 'static, hence the Arc.
                let done: Arc<Mutex<Vec<(usize, u64, u64)>>> =
                    Arc::new(Mutex::new(Vec::with_capacity(runnable.len())));
                pool.scope(|s| {
                    for (idx, sim) in runnable {
                        let done = done.clone();
                        s.spawn(move || {
                            let started = std::time::Instant::now();
                            let fired = sim.run_window(bound) as u64;
                            let busy = started.elapsed().as_nanos() as u64;
                            done.lock().push((idx, fired, busy));
                        });
                    }
                });
                let window_ns = window_started.elapsed().as_nanos() as u64;
                let done = Arc::try_unwrap(done)
                    .map(Mutex::into_inner)
                    .unwrap_or_default();
                let mut total = 0;
                let mut profiles = self.profiles.lock();
                for (idx, fired, busy_ns) in done {
                    total += fired;
                    let p = &mut profiles[idx];
                    p.windows += 1;
                    p.events += fired;
                    p.busy_ns += busy_ns;
                    p.barrier_wait_ns += window_ns.saturating_sub(busy_ns);
                }
                return total;
            }
        }
        let mut total = 0;
        let mut profiles = self.profiles.lock();
        for (idx, sim) in &runnable {
            let started = std::time::Instant::now();
            let fired = sim.run_window(bound) as u64;
            total += fired;
            let p = &mut profiles[*idx];
            p.windows += 1;
            p.events += fired;
            p.busy_ns += started.elapsed().as_nanos() as u64;
        }
        total
    }

    /// Per-island execution profiles accumulated so far, in island
    /// order. The `windows`/`events`/`commits` fields are identical
    /// for any thread count; the `*_ns` fields are wall clock.
    pub fn profiles(&self) -> Vec<IslandProfile> {
        self.profiles.lock().clone()
    }

    /// Wall time spent sorting and committing the cross-island outbox
    /// at window barriers.
    pub fn commit_wall_ns(&self) -> u64 {
        self.commit_ns.load(Ordering::Relaxed)
    }

    /// Profiles as one JSON array, deterministic fields first. The
    /// wall-clock fields are included; callers diffing across thread
    /// counts should print [`IslandProfile::deterministic_line`]
    /// instead.
    pub fn profile_json(&self) -> String {
        let profiles = self.profiles.lock();
        let mut out = String::from("[");
        for (i, p) in profiles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"island\":{i},\"windows\":{},\"events\":{},\"commits\":{},\
                 \"busy_ns\":{},\"barrier_wait_ns\":{}}}",
                p.windows, p.events, p.commits, p.busy_ns, p.barrier_wait_ns
            ));
        }
        out.push(']');
        out
    }
}

impl std::fmt::Debug for ParSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParSim")
            .field("islands", &self.islands.len())
            .field("threads", &self.threads)
            .field("lookahead", &self.lookahead())
            .finish()
    }
}

/// The cross-island send handle for one source island.
///
/// Sends are buffered in the executor's outbox and committed at the
/// next window barrier; the delivery delay must be at least the global
/// lookahead, which the coupling latencies guarantee for any message
/// that actually traverses a declared link.
#[derive(Clone)]
pub struct Courier {
    src: Sim,
    src_island: u32,
    seq: Arc<AtomicU64>,
    shared: Arc<ParShared>,
}

impl Courier {
    /// Buffers `f` to run on island `dst` at `delay` past the source
    /// island's current time. Panics if `delay` undercuts the
    /// lookahead — that would let a message land in a window the
    /// destination may already have executed.
    pub fn send(&self, dst: usize, delay: SimDuration, f: impl FnOnce(&Sim) + Send + 'static) {
        if let Some(lookahead) = *self.shared.lookahead.lock() {
            assert!(
                delay >= lookahead,
                "cross-island delay {delay} undercuts lookahead {lookahead}"
            );
        }
        let deliver_at = self.src.now() + delay;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.shared.cross_sends.fetch_add(1, Ordering::Relaxed);
        self.shared.outbox.lock().push(CrossSend {
            deliver_at,
            src_island: self.src_island,
            seq,
            dst,
            f: Box::new(f),
        });
    }

    /// The source island's current virtual time.
    pub fn now(&self) -> SimTime {
        self.src.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn fleet(n: usize, threads: usize) -> ParSim {
        let mut par = ParSim::new(threads);
        for i in 0..n {
            par.add_island(Sim::with_island(42, i as u32));
        }
        par
    }

    #[test]
    fn uncoupled_islands_run_to_deadline_in_one_window() {
        let mut par = fleet(3, 1);
        let count = Arc::new(AtomicU64::new(0));
        for island in par.islands() {
            let count = count.clone();
            island.every(SimDuration::from_millis(10), move |_| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
        let stats = par.run_until(SimTime::from_micros(100_000));
        assert_eq!(count.load(Ordering::SeqCst), 30);
        assert_eq!(stats.windows, 1, "infinite lookahead = one window");
        assert_eq!(stats.events, 30);
        assert_eq!(par.component_count(), 3);
        for island in par.islands() {
            assert_eq!(island.now(), SimTime::from_micros(100_000));
        }
    }

    #[test]
    fn coupling_merges_components_and_sets_lookahead() {
        let mut par = fleet(4, 1);
        par.couple(0, 1, SimDuration::from_millis(5));
        par.couple(1, 2, SimDuration::from_millis(2));
        assert_eq!(par.component_count(), 2);
        assert_eq!(par.lookahead(), Some(SimDuration::from_millis(2)));
    }

    #[test]
    fn cross_island_sends_commit_in_deterministic_order() {
        let run = |threads: usize| -> Vec<(u64, String)> {
            let mut par = fleet(3, threads);
            par.couple(0, 2, SimDuration::from_millis(1));
            par.couple(1, 2, SimDuration::from_millis(1));
            let log = Arc::new(Mutex::new(Vec::new()));
            // Islands 0 and 1 both message island 2 with identical
            // delivery times; the merge must order them by island id.
            for src in [1usize, 0] {
                let courier = par.courier(src);
                let log = log.clone();
                par.islands()[src].schedule_in(SimDuration::from_millis(3), move |_| {
                    let log = log.clone();
                    let tag = format!("from-{src}");
                    courier.send(2, SimDuration::from_millis(1), move |sim| {
                        log.lock().push((sim.now().as_micros(), tag));
                    });
                });
            }
            let stats = par.run_until(SimTime::from_micros(10_000));
            assert_eq!(stats.cross_sends, 2);
            let out = log.lock().clone();
            out
        };
        let seq = run(1);
        assert_eq!(
            seq,
            vec![(4_000, "from-0".into()), (4_000, "from-1".into())]
        );
        assert_eq!(run(4), seq, "thread count must not reorder the merge");
    }

    #[test]
    fn windows_respect_lookahead() {
        let mut par = fleet(2, 1);
        par.couple(0, 1, SimDuration::from_millis(1));
        let courier = par.courier(0);
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        // A ping-pong chain: each delivery schedules the next.
        fn ping(courier: Courier, hits: Arc<AtomicU64>, n: u64) {
            if n == 0 {
                return;
            }
            courier.send(1, SimDuration::from_millis(1), move |_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        par.islands()[0].schedule_in(SimDuration::from_millis(1), move |_| {
            ping(courier, hits2, 1);
        });
        let stats = par.run_until(SimTime::from_micros(10_000));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(stats.windows >= 2, "coupled islands need multiple windows");
    }

    #[test]
    fn parallel_and_sequential_fire_identical_event_counts() {
        let run = |threads: usize| {
            let par = fleet(8, threads);
            let count = Arc::new(AtomicU64::new(0));
            for island in par.islands() {
                let count = count.clone();
                island.every(SimDuration::from_micros(700), move |sim| {
                    // Burn RNG so stream divergence would be visible.
                    let _ = sim.with_rng(|r| r.range(0, 1_000));
                    count.fetch_add(1, Ordering::SeqCst);
                });
            }
            let stats = par.run_until(SimTime::from_micros(70_000));
            (stats.events, count.load(Ordering::SeqCst))
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn profile_deterministic_fields_are_thread_invariant() {
        let run = |threads: usize| {
            let mut par = fleet(3, threads);
            par.couple(0, 2, SimDuration::from_millis(1));
            let courier = par.courier(0);
            for island in par.islands() {
                island.every(SimDuration::from_millis(10), |_| {});
            }
            par.islands()[0].schedule_in(SimDuration::from_millis(5), move |_| {
                courier.send(2, SimDuration::from_millis(1), |_| {});
            });
            par.run_until(SimTime::from_micros(100_000));
            par.profiles()
                .iter()
                .enumerate()
                .map(|(i, p)| p.deterministic_line(i))
                .collect::<Vec<_>>()
        };
        let seq = run(1);
        assert_eq!(seq.len(), 3);
        assert!(seq[2].ends_with("commits=1"), "{seq:?}");
        assert_eq!(run(4), seq, "profiler counts must not depend on threads");
    }

    #[test]
    fn profile_json_lists_every_island() {
        let par = fleet(2, 1);
        for island in par.islands() {
            island.every(SimDuration::from_millis(10), |_| {});
        }
        par.run_until(SimTime::from_micros(20_000));
        let json = par.profile_json();
        assert!(json.starts_with("[{\"island\":0,"), "{json}");
        assert!(json.contains("{\"island\":1,"), "{json}");
        assert!(json.contains("\"barrier_wait_ns\":"), "{json}");
    }

    #[test]
    #[should_panic(expected = "undercuts lookahead")]
    fn undercutting_lookahead_panics() {
        let mut par = fleet(2, 1);
        par.couple(0, 1, SimDuration::from_millis(5));
        let courier = par.courier(0);
        courier.send(1, SimDuration::from_millis(1), |_| {});
    }
}
