//! The resilience layer: deadlines, backoff, and circuit breakers.
//!
//! The paper's backbone (§3.1) rides a real home network — powerline
//! segments drop frames, gateways crash, the access network partitions.
//! This module holds the one mechanism every remote leg shares: how
//! long an invocation may take end to end ([`ResiliencePolicy::deadline`]),
//! how re-sends are paced ([`backoff`], used by the gateway wire and
//! the cloud bridge alike), and when a peer is declared unhealthy and
//! calls fail fast instead of burning the deadline ([`BreakerBank`],
//! one breaker per peer node, for gateway peers and VSR replicas
//! alike, with [`BreakerBank::record`] as the one rule for what counts
//! as a failure). The retry loop that consults them lives in the
//! gateway's wire path (`Vsg::invoke`).
//!
//! Everything is computed on virtual time and the simulation's seeded
//! RNG, so a chaos schedule replays identically run after run.

use crate::error::MetaError;
use parking_lot::Mutex;
use simnet::{NodeId, Sim, SimDuration, SimTime};
use std::collections::HashMap;
use std::fmt;

/// Per-gateway knobs for the resilient wire path.
///
/// The defaults suit the simulated home: the deadline is generous
/// enough to ride out a short loss spike (several backed-off retries)
/// but binds well before the retry budget on a hard partition, so a
/// partitioned call surfaces as [`crate::MetaError::DeadlineExceeded`]
/// rather than hanging through eight maximum backoffs.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePolicy {
    /// End-to-end virtual-time budget for one invocation, spanning all
    /// attempts and backoff waits.
    pub deadline: SimDuration,
    /// Re-send budget per invocation (first attempt not counted).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_backoff: SimDuration,
    /// Cap on any single backoff wait.
    pub max_backoff: SimDuration,
    /// Jitter each wait over `[wait/2, wait]`, drawn from the seeded
    /// simulation RNG (decorrelates replicas without losing replay).
    pub jitter: bool,
    /// Consecutive transport failures that open a remote gateway's
    /// breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects calls before admitting one
    /// half-open probe.
    pub breaker_open_window: SimDuration,
    /// Serve a stale (invalidated) cached route when the VSR itself is
    /// unreachable, instead of failing the invocation.
    pub degraded_reads: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            deadline: SimDuration::from_secs(2),
            max_retries: 8,
            base_backoff: SimDuration::from_millis(50),
            max_backoff: SimDuration::from_millis(800),
            jitter: true,
            breaker_threshold: 5,
            breaker_open_window: SimDuration::from_secs(5),
            degraded_reads: true,
        }
    }
}

impl ResiliencePolicy {
    /// The pre-resilience gateway as a policy value: a single attempt
    /// (so the deadline never binds), a breaker that never opens, no
    /// degraded serving. Used by ablation benches and available to any
    /// deployment that wants raw failures.
    pub fn disabled() -> ResiliencePolicy {
        ResiliencePolicy {
            max_retries: 0,
            degraded_reads: false,
            breaker_threshold: u32::MAX,
            ..ResiliencePolicy::default()
        }
    }

    /// The wait before retry number `attempt` (0-based): the shared
    /// [`backoff`] over [`Self::base_backoff`], [`Self::max_backoff`]
    /// and [`Self::jitter`].
    pub fn backoff(&self, attempt: u32, sim: &Sim) -> SimDuration {
        backoff(
            self.base_backoff,
            self.max_backoff,
            attempt,
            self.jitter,
            sim,
        )
    }
}

/// The wait before re-send number `attempt`: exponential from `base`
/// (doubling per attempt), capped at `cap` (or `base`, if larger), and
/// jittered over `[wait/2, wait]` when `jitter` is on. The draw comes
/// from the simulation's seeded RNG, so a given seed yields the same
/// pacing every run; a zero wait draws nothing.
pub fn backoff(
    base: SimDuration,
    cap: SimDuration,
    attempt: u32,
    jitter: bool,
    sim: &Sim,
) -> SimDuration {
    let base = base.as_micros();
    let cap = cap.as_micros().max(base);
    let wait = base.saturating_mul(1u64 << attempt.min(20)).min(cap);
    if wait == 0 {
        return SimDuration::ZERO;
    }
    let us = if jitter {
        sim.with_rng(|r| r.range(wait / 2, wait + 1))
    } else {
        wait
    };
    SimDuration::from_micros(us)
}

/// Where a peer's circuit breaker stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Healthy: calls flow, consecutive failures are counted.
    Closed,
    /// Tripped: calls fail fast with [`crate::MetaError::CircuitOpen`]
    /// until the open window elapses.
    Open,
    /// Probing: the open window elapsed and one call is admitted to
    /// test the remote; success closes, failure re-opens.
    HalfOpen,
}

impl BreakerState {
    /// Stable text label (`closed` / `open` / `half-open`), used for
    /// the metrics gauge and trace spans.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One peer's circuit breaker on virtual time. Callers hold breakers
/// through a [`BreakerBank`], which decides what counts as a failure.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    open_window: SimDuration,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimTime,
}

impl CircuitBreaker {
    /// Creates a closed breaker that opens after `threshold`
    /// consecutive transport failures and admits a probe once
    /// `open_window` has elapsed.
    pub fn new(threshold: u32, open_window: SimDuration) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            open_window,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
        }
    }

    /// Whether a call may proceed at `now`. An open breaker whose
    /// window has elapsed moves to half-open and admits the call as
    /// its probe.
    pub fn admit(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now.since(self.opened_at) >= self.open_window {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful (or liveness-proving) call: the breaker
    /// closes and the failure run resets.
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Records a transport failure at `now`. A half-open probe failure
    /// re-opens immediately; a closed breaker opens once the
    /// consecutive-failure run reaches the threshold.
    pub fn on_failure(&mut self, now: SimTime) {
        match self.state {
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opened_at = now;
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.threshold {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                }
            }
            // Gated calls shouldn't reach the wire, but a racing
            // failure while open just refreshes the window.
            BreakerState::Open => self.opened_at = now,
        }
    }

    /// The current state (no transition side effects).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The current consecutive-transport-failure run (closed state).
    pub fn failure_run(&self) -> u32 {
        self.consecutive_failures
    }
}

/// The circuit breakers of one caller, keyed by the peer's backbone
/// node: a gateway holds one bank with a breaker per remote gateway,
/// and the shard-aware [`crate::VsrClient`] one with a breaker per
/// replica — it skips a replica whose breaker is open without touching
/// the wire, so failover costs nothing once a crash has been observed a
/// few times.
///
/// Breakers are created closed on first use, with the bank's thresholds
/// at that moment. The bank is internally locked so one bank can be
/// shared by every clone of its owner. [`BreakerBank::admit`] and
/// [`BreakerBank::record`] return the state a breaker moved to, if it
/// moved, for owners that report transitions.
#[derive(Debug)]
pub struct BreakerBank {
    inner: Mutex<Bank>,
}

#[derive(Debug)]
struct Bank {
    /// The closed breaker every newly seen node starts as.
    fresh: CircuitBreaker,
    breakers: HashMap<NodeId, CircuitBreaker>,
}

impl BreakerBank {
    /// Creates an empty bank whose breakers open after `threshold`
    /// consecutive transport failures and admit a half-open probe once
    /// `open_window` has elapsed.
    pub fn new(threshold: u32, open_window: SimDuration) -> BreakerBank {
        BreakerBank {
            inner: Mutex::new(Bank {
                fresh: CircuitBreaker::new(threshold, open_window),
                breakers: HashMap::new(),
            }),
        }
    }

    /// Sets the thresholds of breakers created from now on; breakers
    /// that already exist keep the ones they were created with.
    pub fn set_thresholds(&self, threshold: u32, open_window: SimDuration) {
        self.inner.lock().fresh = CircuitBreaker::new(threshold, open_window);
    }

    /// Runs `f` on `node`'s breaker, returning its result and the state
    /// the breaker moved to, if it moved.
    fn with<T>(
        &self,
        node: NodeId,
        f: impl FnOnce(&mut CircuitBreaker) -> T,
    ) -> (T, Option<BreakerState>) {
        let mut bank = self.inner.lock();
        let Bank { fresh, breakers } = &mut *bank;
        let br = breakers.entry(node).or_insert_with(|| fresh.clone());
        let before = br.state();
        let out = f(br);
        let after = br.state();
        (out, (before != after).then_some(after))
    }

    /// Whether a call to `node` may proceed at `now` (an elapsed open
    /// window admits the call as its half-open probe), and the state
    /// the breaker moved to, if it moved.
    pub fn admit(&self, node: NodeId, now: SimTime) -> (bool, Option<BreakerState>) {
        self.with(node, |br| br.admit(now))
    }

    /// Feeds the outcome of one call to `node` back to its breaker, by
    /// the one outcome rule: a transport failure (see
    /// `MetaError::is_transport_failure`) counts against the breaker;
    /// any answer, even an error, proves the peer alive and counts as a
    /// success. Returns the state the breaker moved to, if it moved.
    pub fn record<T>(
        &self,
        node: NodeId,
        now: SimTime,
        result: &Result<T, MetaError>,
    ) -> Option<BreakerState> {
        match result {
            Err(e) if e.is_transport_failure() => self.with(node, |br| br.on_failure(now)).1,
            _ => self.with(node, CircuitBreaker::on_success).1,
        }
    }

    /// The breaker state held for `node` (closed if never touched).
    pub fn state(&self, node: NodeId) -> BreakerState {
        self.inner
            .lock()
            .breakers
            .get(&node)
            .map_or(BreakerState::Closed, CircuitBreaker::state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_let_the_deadline_bind_before_the_retry_budget() {
        let p = ResiliencePolicy::default();
        // Worst-case waits: 50+100+200+400+800*4 ms = 3.95 s > 2 s, so
        // a hard partition ends as DeadlineExceeded, not retries-spent.
        let worst: u64 = (0..p.max_retries)
            .map(|a| (p.base_backoff.as_micros() << a.min(20)).min(p.max_backoff.as_micros()))
            .sum();
        assert!(
            worst > p.deadline.as_micros(),
            "deadline must bind first: {worst} vs {}",
            p.deadline.as_micros()
        );
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let p = ResiliencePolicy {
            jitter: false,
            ..ResiliencePolicy::default()
        };
        let sim = Sim::new(7);
        assert_eq!(p.backoff(0, &sim), SimDuration::from_millis(50));
        assert_eq!(p.backoff(1, &sim), SimDuration::from_millis(100));
        assert_eq!(p.backoff(2, &sim), SimDuration::from_millis(200));
        assert_eq!(p.backoff(10, &sim), SimDuration::from_millis(800), "capped");

        let jittered = ResiliencePolicy::default();
        let a = Sim::new(42);
        let b = Sim::new(42);
        for attempt in 0..4 {
            let wa = jittered.backoff(attempt, &a);
            let wb = jittered.backoff(attempt, &b);
            assert_eq!(wa, wb, "same seed, same pacing");
            let full = p.backoff(attempt, &a).as_micros();
            assert!(wa.as_micros() >= full / 2 && wa.as_micros() <= full);
        }
    }

    #[test]
    fn breaker_opens_probes_and_recloses() {
        let window = SimDuration::from_secs(5);
        let mut br = CircuitBreaker::new(3, window);
        let sim = Sim::new(1);
        assert_eq!(br.state(), BreakerState::Closed);

        for _ in 0..2 {
            assert!(br.admit(sim.now()));
            br.on_failure(sim.now());
        }
        assert_eq!(br.state(), BreakerState::Closed, "below threshold");
        br.on_failure(sim.now());
        assert_eq!(br.state(), BreakerState::Open, "threshold reached");
        assert!(!br.admit(sim.now()), "open rejects immediately");

        sim.advance(SimDuration::from_secs(4));
        assert!(!br.admit(sim.now()), "window not yet elapsed");
        sim.advance(SimDuration::from_secs(1));
        assert!(br.admit(sim.now()), "window elapsed: probe admitted");
        assert_eq!(br.state(), BreakerState::HalfOpen);

        // Probe fails: straight back to open, window restarted.
        br.on_failure(sim.now());
        assert_eq!(br.state(), BreakerState::Open);
        sim.advance(window);
        assert!(br.admit(sim.now()));
        br.on_success();
        assert_eq!(br.state(), BreakerState::Closed);
        assert_eq!(br.failure_run(), 0);

        // A success resets the failure run entirely.
        br.on_failure(sim.now());
        br.on_failure(sim.now());
        br.on_success();
        br.on_failure(sim.now());
        assert_eq!(br.state(), BreakerState::Closed, "run was reset");
    }

    #[test]
    fn breaker_bank_tracks_replicas_independently() {
        let sim = Sim::new(1);
        let bank = BreakerBank::new(2, SimDuration::from_secs(5));
        let (a, b) = (NodeId(10), NodeId(11));
        let lost: Result<(), MetaError> = Err(MetaError::transport("lost", true));
        assert_eq!(bank.state(a), BreakerState::Closed, "untouched is closed");
        bank.record(a, sim.now(), &lost);
        bank.record(a, sim.now(), &lost);
        assert_eq!(bank.state(a), BreakerState::Open);
        assert!(!bank.admit(a, sim.now()).0, "a rejects");
        assert!(bank.admit(b, sim.now()).0, "b unaffected");
        sim.advance(SimDuration::from_secs(5));
        assert!(bank.admit(a, sim.now()).0, "probe after window");
        bank.record(a, sim.now(), &Ok(()));
        assert_eq!(bank.state(a), BreakerState::Closed);
    }

    #[test]
    fn breaker_bank_records_by_one_rule_and_returns_transitions() {
        let sim = Sim::new(1);
        let window = SimDuration::from_secs(5);
        let bank = BreakerBank::new(2, window);
        let (a, b) = (NodeId(1), NodeId(2));
        let lost: Result<u32, MetaError> = Err(MetaError::transport("lost", false));
        let fault: Result<u32, MetaError> = Err(MetaError::native("app", "boom"));

        // A transport failure counts against the breaker; an answer —
        // an Ok or an application error — resets the run.
        assert_eq!(bank.record(a, sim.now(), &lost), None, "run of 1");
        assert_eq!(bank.record(a, sim.now(), &fault), None, "fault proves life");
        assert_eq!(bank.record(a, sim.now(), &lost), None, "run restarted at 1");
        assert_eq!(bank.state(a), BreakerState::Closed);
        assert_eq!(
            bank.record(a, sim.now(), &lost),
            Some(BreakerState::Open),
            "threshold reached: the transition is returned"
        );
        assert_eq!(bank.admit(a, sim.now()), (false, None), "open rejects");
        sim.advance(window);
        assert_eq!(
            bank.admit(a, sim.now()),
            (true, Some(BreakerState::HalfOpen)),
            "probe admitted"
        );
        assert_eq!(
            bank.record(a, sim.now(), &Ok(7)),
            Some(BreakerState::Closed)
        );
        assert_eq!(
            bank.record(a, sim.now(), &Ok(7)),
            None,
            "no move, no transition"
        );

        // New thresholds apply only to breakers created afterwards: `a`
        // keeps opening at 2, the fresh `b` never opens.
        bank.set_thresholds(u32::MAX, window);
        bank.record(a, sim.now(), &lost);
        assert_eq!(bank.record(a, sim.now(), &lost), Some(BreakerState::Open));
        for _ in 0..10 {
            assert_eq!(bank.record(b, sim.now(), &lost), None);
        }
        assert_eq!(bank.state(b), BreakerState::Closed);
    }
}
