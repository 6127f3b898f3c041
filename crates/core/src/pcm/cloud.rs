//! The cloud bridge PCM: the mHouse "Home Server + Cloud
//! Communicators" shape over a hostile WAN.
//!
//! The paper's §3 framework treats any new middleware as "just another
//! PCM"; this module is the PCM for the *cloud* — device registrations
//! and state notifications flow upward to a simulated cloud backbone,
//! and downward RPCs flow back into the home. Unlike every LAN island,
//! the WAN hop is the flakiest link in the system, so the bridge is
//! built robustness-first:
//!
//! * **Durable store-and-forward outbox** — registrations and state
//!   notifications are enqueued with monotonic sequence numbers,
//!   coalesced per device (latest-state-wins for notifications, never
//!   for lifecycle events), bounded with typed
//!   [`MetaError::Overloaded`] shedding, and drained in order on each
//!   (re)connect.
//! * **Session epochs with fencing** — every (re)connect attempt bumps
//!   an epoch; the cloud rejects pushes stamped with a stale epoch, and
//!   the home rejects downward commands stamped with a stale epoch, so
//!   a healed ex-session can neither replay nor split-brain.
//! * **Exactly-once downward effect** — downward RPCs carry command
//!   ids; the home keeps a dedup window and replays the cached outcome
//!   for a retransmitted (or chaos-duplicated) command, so at-least-once
//!   WAN delivery yields exactly-once application.
//! * **Reconnect with capped exponential backoff + deterministic
//!   jitter**, and post-heal **delta reconciliation**: the `HELLO`
//!   handshake returns the cloud's applied-through digest and the home
//!   resends only the suffix the cloud missed.
//! * **Flash-crowd admission control** — the cloud edge meters each
//!   home with two token buckets (a per-home rate and a fair share of
//!   the global backbone budget) and answers `RETRY <µs>` pushback that
//!   feeds the home's backoff.
//!
//! ## Determinism note
//!
//! A literal global concurrency counter shared across fleet islands
//! would make admission outcomes depend on worker-thread interleaving,
//! breaking the repo's `SIM_THREADS=1 ≡ SIM_THREADS=N` guarantee. The
//! global budget is therefore realised as a *deterministic fair share*:
//! each home's cloud cell gets `global_rate / fleet_homes`, refilled on
//! virtual time. Admission outcomes are a pure function of the seed and
//! the schedule — never of the thread count. Every per-home WAN (home
//! node + cloud-edge node) lives on that home's own island `Sim`, so
//! fleet islands stay uncoupled and the parallel scheduler keeps its
//! unbounded lookahead.

use crate::error::MetaError;
use crate::intern::Name;
use crate::metrics::{CacheStats, MetricsRegistry, MetricsSnapshot};
use crate::obs::{HistSketch, Scope};
use crate::resilience::backoff;
use crate::trace::{HopKind, Span, Tracer};
use parking_lot::Mutex;
use simnet::{FaultPlan, Network, NodeId, Protocol, RepeatHandle, Sim, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// configuration
// ---------------------------------------------------------------------------

/// Knobs for one home's cloud bridge and its cloud-edge cell.
#[derive(Debug, Clone)]
pub struct CloudConfig {
    /// Outbox bound; notifications beyond it are shed with
    /// [`MetaError::Overloaded`]. Lifecycle events evict the oldest
    /// queued notification instead of being shed themselves.
    pub outbox_cap: usize,
    /// Max outbox entries per `PUSH` round.
    pub batch_max: usize,
    /// Period of the bridge pump (connect attempts + outbox drain).
    /// Fires when the event loop is pumped (`run_for`), like every
    /// other timer in the simulation.
    pub drain_period: SimDuration,
    /// Per-home admission rate at the cloud edge, requests per minute.
    pub home_rate_per_min: u32,
    /// Per-home admission burst, requests.
    pub home_burst: u32,
    /// Global backbone admission rate, requests per minute, divided
    /// fair-share across the fleet (see the module's determinism note).
    pub global_rate_per_min: u32,
    /// Global admission burst (also divided fair-share).
    pub global_burst: u32,
    /// Master switch for the outbox. When off (ablation), state
    /// notifications raised while disconnected are *dropped* instead
    /// of buffered — the bench's "measurably lower delivered ratio"
    /// baseline.
    pub store_and_forward: bool,
}

impl Default for CloudConfig {
    fn default() -> CloudConfig {
        CloudConfig {
            outbox_cap: 256,
            batch_max: 32,
            drain_period: SimDuration::from_millis(200),
            home_rate_per_min: 600,
            home_burst: 20,
            global_rate_per_min: 60_000,
            global_burst: 2_000,
            store_and_forward: true,
        }
    }
}

/// First reconnect backoff; doubles per failed attempt.
const BASE_BACKOFF: SimDuration = SimDuration::from_millis(500);
/// Cap on any reconnect backoff.
const MAX_BACKOFF: SimDuration = SimDuration::from_secs(30);
/// How many recent downward command outcomes the home remembers for
/// exactly-once replay.
const DEDUP_WINDOW: usize = 64;
/// Downward command re-sends after a transport failure.
const CMD_RETRIES: u32 = 4;
/// Backoff between downward command re-sends.
const CMD_BACKOFF: SimDuration = SimDuration::from_millis(300);

// ---------------------------------------------------------------------------
// admission control
// ---------------------------------------------------------------------------

/// A GCRA-style token bucket on virtual time, in integer microseconds:
/// one admitted request costs `interval_us`; up to `burst` requests may
/// arrive back-to-back. Rejections report how long until the next
/// token accrues — the typed retry-after pushback.
#[derive(Debug, Clone)]
struct Gcra {
    interval_us: u64,
    burst_us: u64,
    tat: SimTime,
}

impl Gcra {
    /// `rate_per_min` requests per minute with `burst` headroom. A zero
    /// rate disables metering (always admits).
    fn per_minute(rate_per_min: u32, burst: u32) -> Gcra {
        let interval_us = if rate_per_min == 0 {
            0
        } else {
            60_000_000 / u64::from(rate_per_min).max(1)
        };
        Gcra {
            interval_us,
            burst_us: interval_us.saturating_mul(u64::from(burst.max(1))),
            tat: SimTime::ZERO,
        }
    }

    /// Admits one request at `now`, or reports the wait until it would
    /// be admitted.
    fn admit(&mut self, now: SimTime) -> Result<(), SimDuration> {
        if self.interval_us == 0 {
            return Ok(());
        }
        let limit = now + SimDuration::from_micros(self.burst_us);
        if self.tat > limit {
            return Err(self.tat - limit);
        }
        self.tat = self.tat.max(now) + SimDuration::from_micros(self.interval_us);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// outbox
// ---------------------------------------------------------------------------

/// What one outbox entry carries upward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A device joined the home (lifecycle — never coalesced or shed).
    Register,
    /// A device left the home (lifecycle — never coalesced or shed).
    Unregister,
    /// A device state notification (latest-state-wins per device).
    Notify,
}

impl EntryKind {
    fn wire(self) -> &'static str {
        match self {
            EntryKind::Register => "reg",
            EntryKind::Unregister => "unreg",
            EntryKind::Notify => "state",
        }
    }

    fn from_wire(s: &str) -> Option<EntryKind> {
        match s {
            "reg" => Some(EntryKind::Register),
            "unreg" => Some(EntryKind::Unregister),
            "state" => Some(EntryKind::Notify),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
struct OutEntry {
    seq: u64,
    kind: EntryKind,
    created: SimTime,
    device: String,
    payload: String,
    /// Included in at least one `PUSH` frame. An attempted entry may
    /// have landed even though no reply came back (at-least-once), so
    /// it is no longer safe to coalesce into: the reconnect digest
    /// would then drop the newer payload under the already-applied
    /// sequence number.
    attempted: bool,
}

/// A downward RPC as the home-side applier sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CloudCommand {
    /// The cloud-assigned command id (the exactly-once key).
    pub id: u64,
    /// Target device.
    pub device: String,
    /// Operation name.
    pub op: String,
    /// Opaque payload.
    pub payload: String,
}

/// Applies a downward command inside the home. Pluggable so tests use
/// a counting applier while integrated homes route into a gateway.
type CommandApplier = Box<dyn FnMut(&Sim, &CloudCommand) -> Result<String, String> + Send>;

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

/// Typed counters on the home side of the bridge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CloudBridgeStats {
    /// State notifications accepted into the outbox.
    pub notify_enqueued: u64,
    /// Lifecycle events accepted into the outbox.
    pub lifecycle_enqueued: u64,
    /// Notifications replaced in place by a newer one for the same
    /// device (latest-state-wins; the superseded update is *delivered
    /// by proxy* through its successor).
    pub coalesced: u64,
    /// Notifications shed because the outbox was full.
    pub shed: u64,
    /// Notifications dropped while disconnected because
    /// store-and-forward is off (the ablation baseline).
    pub dropped_disconnected: u64,
    /// Entries acknowledged by the cloud.
    pub pushed: u64,
    /// Entries the `HELLO` digest proved the cloud already had (the
    /// delta-reconciliation savings: only the suffix is resent).
    pub reconciled: u64,
    /// Successful (re)connect handshakes.
    pub reconnects: u64,
    /// Failed connect attempts (transport or pushback).
    pub connect_failures: u64,
    /// Push rounds that failed in transit.
    pub push_failures: u64,
    /// `RETRY` pushbacks folded into the backoff.
    pub retry_after_waits: u64,
    /// Pushes the cloud fenced off with a stale epoch.
    pub stale_push_rejects: u64,
    /// Downward commands applied (first delivery of an id).
    pub commands_applied: u64,
    /// Downward deliveries answered from the dedup window.
    pub commands_deduped: u64,
    /// Downward commands fenced off for carrying a stale epoch.
    pub commands_stale_rejected: u64,
    /// Applier invocations for an id that had already been applied —
    /// the exactly-once violation counter. Must stay 0.
    pub duplicate_effects: u64,
}

/// Typed counters on the cloud-edge side.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CloudCellStats {
    /// Accepted `HELLO` handshakes.
    pub hellos: u64,
    /// Accepted push rounds.
    pub pushes_ok: u64,
    /// Push rounds fenced off with a stale epoch.
    pub pushes_stale: u64,
    /// Requests rejected with `RETRY` pushback (flash-crowd control).
    pub throttled: u64,
    /// Entries applied (first delivery of a seq).
    pub entries_applied: u64,
    /// Resent entries already covered by the applied-through digest.
    pub entries_deduped: u64,
    /// State notifications among the applied entries.
    pub notify_applied: u64,
    /// Lifecycle events among the applied entries.
    pub lifecycle_applied: u64,
    /// Downward commands sent.
    pub commands_sent: u64,
    /// Downward command re-sends after transport failures.
    pub command_retries: u64,
    /// Downward commands that ultimately failed.
    pub command_failures: u64,
}

// ---------------------------------------------------------------------------
// home side: CloudBridgePcm
// ---------------------------------------------------------------------------

struct BridgeState {
    connected: bool,
    epoch: u64,
    next_seq: u64,
    outbox: VecDeque<OutEntry>,
    backoff_attempt: u32,
    next_attempt_at: SimTime,
    throttled_until: SimTime,
    registered: BTreeSet<String>,
    dedup: VecDeque<(u64, String)>,
    applied_ids: HashSet<u64>,
    stats: CloudBridgeStats,
}

struct BridgeInner {
    sim: Sim,
    wan: Network,
    home_node: NodeId,
    cloud_node: NodeId,
    cfg: CloudConfig,
    state: Mutex<BridgeState>,
    applier: Mutex<CommandApplier>,
    tracer: Tracer,
    metrics: Arc<MetricsRegistry>,
}

/// The home side of the cloud bridge: outbox, epochs, reconnect,
/// downward-command dedup. Cheaply clonable (shared state).
#[derive(Clone)]
pub struct CloudBridgePcm {
    inner: Arc<BridgeInner>,
}

impl CloudBridgePcm {
    /// The WAN network between this home and its cloud edge — install
    /// chaos schedules here.
    fn wan(&self) -> &Network {
        &self.inner.wan
    }

    /// The home's WAN node id (one side of partitions).
    pub fn home_node(&self) -> NodeId {
        self.inner.home_node
    }

    /// The cloud edge's WAN node id (the other side of partitions).
    pub fn cloud_node(&self) -> NodeId {
        self.inner.cloud_node
    }

    /// Current session epoch (bumps on every connect attempt).
    pub fn epoch(&self) -> u64 {
        self.inner.state.lock().epoch
    }

    /// Whether the last handshake succeeded and no failure was seen
    /// since.
    pub fn is_connected(&self) -> bool {
        self.inner.state.lock().connected
    }

    /// Entries waiting in the outbox.
    pub fn outbox_len(&self) -> usize {
        self.inner.state.lock().outbox.len()
    }

    /// A copy of the home-side counters.
    pub fn stats(&self) -> CloudBridgeStats {
        self.inner.state.lock().stats.clone()
    }

    /// Replaces the downward-command applier (default: acknowledge and
    /// count).
    pub fn set_applier(
        &self,
        f: impl FnMut(&Sim, &CloudCommand) -> Result<String, String> + Send + 'static,
    ) {
        *self.inner.applier.lock() = Box::new(f);
    }

    /// Enqueues a device registration (lifecycle: never coalesced).
    pub fn register_device(&self, device: &str) -> Result<u64, MetaError> {
        self.inner.state.lock().registered.insert(device.to_owned());
        self.enqueue(EntryKind::Register, device, "joined")
    }

    /// Enqueues a device unregistration (lifecycle: never coalesced).
    pub fn unregister_device(&self, device: &str) -> Result<u64, MetaError> {
        self.inner.state.lock().registered.remove(device);
        self.enqueue(EntryKind::Unregister, device, "left")
    }

    /// Enqueues a state notification. Coalesces with a queued
    /// notification for the same device (latest-state-wins, the
    /// original sequence number is kept so drain order is preserved).
    pub fn notify_state(&self, device: &str, payload: &str) -> Result<u64, MetaError> {
        self.enqueue(EntryKind::Notify, device, payload)
    }

    fn enqueue(&self, kind: EntryKind, device: &str, payload: &str) -> Result<u64, MetaError> {
        debug_assert!(
            !device.contains(' ') && !device.contains('\n') && !payload.contains('\n'),
            "device names must be space-free and payloads newline-free"
        );
        let now = self.inner.sim.now();
        let mut st = self.inner.state.lock();
        if kind == EntryKind::Notify {
            if !self.inner.cfg.store_and_forward && !st.connected {
                // Ablation: no outbox while disconnected — the update
                // is lost, which is exactly what the bench measures.
                st.stats.dropped_disconnected += 1;
                return Err(MetaError::GatewayUnreachable("cloud".into()));
            }
            // Latest-state-wins: replace in place, keeping the seq —
            // but never touch an entry that has already been attempted
            // (its delivery is ambiguous; see `OutEntry::attempted`).
            if let Some(e) = st
                .outbox
                .iter_mut()
                .find(|e| e.kind == EntryKind::Notify && e.device == device && !e.attempted)
            {
                e.payload = payload.to_owned();
                e.created = now;
                let seq = e.seq;
                st.stats.coalesced += 1;
                return Ok(seq);
            }
        }
        if st.outbox.len() >= self.inner.cfg.outbox_cap {
            if kind == EntryKind::Notify {
                st.stats.shed += 1;
                let queued = st.outbox.len() as u64;
                return Err(MetaError::Overloaded {
                    gateway: "cloud".into(),
                    queued,
                });
            }
            // Lifecycle events are never shed: evict the oldest queued
            // notification to make room; only if none exists does the
            // hard bound win.
            if let Some(pos) = st.outbox.iter().position(|e| e.kind == EntryKind::Notify) {
                st.outbox.remove(pos);
                st.stats.shed += 1;
            } else {
                let queued = st.outbox.len() as u64;
                return Err(MetaError::Overloaded {
                    gateway: "cloud".into(),
                    queued,
                });
            }
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.outbox.push_back(OutEntry {
            seq,
            kind,
            created: now,
            device: device.to_owned(),
            payload: payload.to_owned(),
            attempted: false,
        });
        match kind {
            EntryKind::Notify => st.stats.notify_enqueued += 1,
            _ => st.stats.lifecycle_enqueued += 1,
        }
        Ok(seq)
    }

    /// One pump tick: attempt a (re)connect when due, then drain the
    /// outbox while connected and not throttled. Driven by the island's
    /// repeat timer; tests may call it directly.
    pub fn pump(&self) {
        let now = self.inner.sim.now();
        let due = {
            let st = self.inner.state.lock();
            if st.connected {
                now >= st.throttled_until
            } else {
                now >= st.next_attempt_at
            }
        };
        if !due {
            return;
        }
        if !self.is_connected() {
            self.try_connect();
        }
        if self.is_connected() {
            self.drain();
        }
    }

    /// The reconnect wait after `attempt` failed attempts: the shared
    /// jittered [`backoff`], drawn from the island's seeded RNG.
    fn backoff(&self, attempt: u32) -> SimDuration {
        backoff(BASE_BACKOFF, MAX_BACKOFF, attempt, true, &self.inner.sim)
    }

    fn try_connect(&self) {
        let sim = &self.inner.sim;
        let epoch = {
            let mut st = self.inner.state.lock();
            // Fencing: every attempt bumps the epoch, so anything the
            // previous session still has in flight is already stale.
            st.epoch += 1;
            st.epoch
        };
        let scope = self.root_scope(sim, || format!("cloud.hello e{epoch}"));
        let reply = self.wan_request(format!("HELLO {epoch}"));
        let mut st = self.inner.state.lock();
        let result = match reply.as_deref() {
            Ok(ok) if ok.starts_with("OK ") => {
                let applied_through: u64 = ok[3..].trim().parse().unwrap_or(0);
                // Delta reconciliation: the digest says the cloud
                // already holds everything through `applied_through`;
                // resend only the suffix.
                let before = st.outbox.len();
                st.outbox.retain(|e| e.seq > applied_through);
                st.stats.reconciled += (before - st.outbox.len()) as u64;
                st.connected = true;
                st.backoff_attempt = 0;
                st.throttled_until = SimTime::ZERO;
                st.stats.reconnects += 1;
                Ok(())
            }
            Ok(retry) if retry.starts_with("RETRY ") => {
                let after = SimDuration::from_micros(retry[6..].trim().parse().unwrap_or(0));
                let attempt = st.backoff_attempt;
                st.backoff_attempt += 1;
                st.stats.connect_failures += 1;
                st.stats.retry_after_waits += 1;
                drop(st);
                // Typed pushback feeds the backoff: wait at least what
                // the cloud asked for.
                let wait = self.backoff(attempt).max(after);
                self.inner.state.lock().next_attempt_at = sim.now() + wait;
                Err(MetaError::Overloaded {
                    gateway: "cloud".into(),
                    queued: 0,
                })
            }
            _ => {
                let attempt = st.backoff_attempt;
                st.backoff_attempt += 1;
                st.stats.connect_failures += 1;
                drop(st);
                let wait = self.backoff(attempt);
                self.inner.state.lock().next_attempt_at = sim.now() + wait;
                Err(MetaError::transport("cloud hello failed", true))
            }
        };
        scope.finish_invocation("cloud.hello", &result);
    }

    fn drain(&self) {
        let sim = &self.inner.sim;
        loop {
            let (epoch, batch) = {
                let mut st = self.inner.state.lock();
                if !st.connected || st.outbox.is_empty() || sim.now() < st.throttled_until {
                    return;
                }
                let batch_max = self.inner.cfg.batch_max;
                let batch: Vec<OutEntry> = st
                    .outbox
                    .iter_mut()
                    .take(batch_max)
                    .map(|e| {
                        e.attempted = true;
                        e.clone()
                    })
                    .collect();
                (st.epoch, batch)
            };
            let n = batch.len();
            let mut msg = format!("PUSH {epoch} {n}");
            for e in &batch {
                msg.push('\n');
                msg.push_str(&format!(
                    "{} {} {} {} {}",
                    e.seq,
                    e.kind.wire(),
                    e.created.as_micros(),
                    e.device,
                    e.payload
                ));
            }
            let scope = self.root_scope(sim, || format!("cloud.push x{n}"));
            let reply = self.wan_request(msg);
            let mut st = self.inner.state.lock();
            let result = match reply.as_deref() {
                Ok(ok) if ok.starts_with("OK ") => {
                    let applied_through: u64 = ok[3..].trim().parse().unwrap_or(0);
                    let before = st.outbox.len();
                    st.outbox.retain(|e| e.seq > applied_through);
                    st.stats.pushed += (before - st.outbox.len()) as u64;
                    Ok(())
                }
                Ok(retry) if retry.starts_with("RETRY ") => {
                    let after = SimDuration::from_micros(retry[6..].trim().parse().unwrap_or(0));
                    st.throttled_until = sim.now() + after;
                    st.stats.retry_after_waits += 1;
                    Err(MetaError::Overloaded {
                        gateway: "cloud".into(),
                        queued: st.outbox.len() as u64,
                    })
                }
                Ok(stale) if stale.starts_with("STALE ") => {
                    // Someone (or a duplicated HELLO of our own) moved
                    // the epoch past us: fence trips, reconnect fresh.
                    st.connected = false;
                    st.stats.stale_push_rejects += 1;
                    st.next_attempt_at = sim.now();
                    Err(MetaError::Protocol("stale epoch".into()))
                }
                _ => {
                    // Transport failure mid-session: the push may or
                    // may not have landed (at-least-once). Entries stay
                    // queued; the cloud's applied-through digest dedups
                    // the resend after reconnect.
                    st.connected = false;
                    st.stats.push_failures += 1;
                    let attempt = st.backoff_attempt;
                    st.backoff_attempt += 1;
                    drop(st);
                    let wait = self.backoff(attempt);
                    self.inner.state.lock().next_attempt_at = sim.now() + wait;
                    self.inner.metrics.record_retry();
                    Err(MetaError::transport("cloud push failed", false))
                }
            };
            scope.finish_invocation("cloud.push", &result);
            if result.is_err() {
                return;
            }
        }
    }

    /// Opens the root scope of one cloud-bridge action: each arrives
    /// from a timer or the WAN, outside any framework call.
    fn root_scope<'a>(&'a self, sim: &'a Sim, name: impl FnOnce() -> String) -> Scope<'a> {
        let inner = &self.inner;
        Scope::root(sim, &inner.tracer, &inner.metrics, HopKind::Cloud, name)
    }

    fn wan_request(&self, msg: String) -> Result<String, MetaError> {
        match self.inner.wan.request(
            self.inner.home_node,
            self.inner.cloud_node,
            Protocol::Http,
            msg.into_bytes(),
        ) {
            Ok(bytes) => Ok(String::from_utf8(bytes)
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())),
            Err(e) => Err(MetaError::from_wire_error(&e, self.inner.home_node)),
        }
    }

    /// Handles one downward `CMD` frame. Returns the wire reply.
    fn handle_command(&self, sim: &Sim, text: &str) -> Result<String, String> {
        let rest = text.strip_prefix("CMD ").ok_or("bad command frame")?;
        let mut parts = rest.splitn(5, ' ');
        let id: u64 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("bad command id")?;
        let epoch: u64 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("bad command epoch")?;
        let device = parts.next().ok_or("missing device")?.to_owned();
        let op = parts.next().ok_or("missing op")?.to_owned();
        let payload = parts.next().unwrap_or("").to_owned();
        {
            let mut st = self.inner.state.lock();
            // Epoch fence: a command stamped by an older session (the
            // cloud hasn't re-learned our epoch yet) must not execute.
            if epoch != st.epoch {
                st.stats.commands_stale_rejected += 1;
                return Ok(format!("STALE {}", st.epoch));
            }
            // Exactly-once: a retransmitted (or chaos-duplicated)
            // delivery replays the cached outcome without re-applying.
            if let Some(cached) = st
                .dedup
                .iter()
                .find(|(i, _)| *i == id)
                .map(|(_, c)| c.clone())
            {
                st.stats.commands_deduped += 1;
                return Ok(cached);
            }
        }
        let cmd = CloudCommand {
            id,
            device,
            op,
            payload,
        };
        let scope = self.root_scope(sim, || format!("cloud.cmd #{id} {}", cmd.op));
        let outcome = {
            let mut applier = self.inner.applier.lock();
            (applier)(sim, &cmd)
        };
        let reply = match &outcome {
            Ok(result) => format!("OK {result}"),
            Err(msg) => format!("ERR {msg}"),
        };
        let mut st = self.inner.state.lock();
        if !st.applied_ids.insert(id) {
            // An id re-applied past the dedup window: the exactly-once
            // contract broke. Counted, never silently ignored.
            st.stats.duplicate_effects += 1;
        }
        st.stats.commands_applied += 1;
        st.dedup.push_back((id, reply.clone()));
        while st.dedup.len() > DEDUP_WINDOW {
            st.dedup.pop_front();
        }
        drop(st);
        scope.finish_invocation(
            "cloud.cmd",
            &outcome.map_err(|e| MetaError::native("cloud", e)),
        );
        Ok(reply)
    }
}

impl crate::pcm::ProtocolConversionManager for CloudBridgePcm {
    fn middleware(&self) -> crate::service::Middleware {
        crate::service::Middleware::Cloud
    }

    /// Devices registered upward — the Client Proxy direction.
    fn imported(&self) -> Vec<String> {
        self.inner.state.lock().registered.iter().cloned().collect()
    }

    /// The cloud exports no services back into the home islands;
    /// downward RPCs address devices directly.
    fn exported(&self) -> Vec<Name> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// cloud side: CloudCell
// ---------------------------------------------------------------------------

struct CellState {
    epoch: u64,
    applied_through: u64,
    devices: BTreeMap<String, String>,
    registered: BTreeSet<String>,
    staleness: HistSketch,
    gcra_home: Gcra,
    gcra_share: Gcra,
    next_cmd_id: u64,
    stats: CloudCellStats,
}

struct CellInner {
    sim: Sim,
    wan: Network,
    home_node: NodeId,
    cloud_node: NodeId,
    state: Mutex<CellState>,
    tracer: Tracer,
    metrics: Arc<MetricsRegistry>,
}

/// One home's lane at the cloud edge: epoch fencing, the
/// applied-through digest, admission metering, and the downward
/// command sender. Lives on the home's own island (see the module's
/// determinism note). Cheaply clonable.
#[derive(Clone)]
pub struct CloudCell {
    inner: Arc<CellInner>,
}

impl CloudCell {
    /// Highest session epoch the cloud has accepted.
    pub fn epoch(&self) -> u64 {
        self.inner.state.lock().epoch
    }

    /// Highest contiguous outbox sequence applied (the reconciliation
    /// digest).
    pub fn applied_through(&self) -> u64 {
        self.inner.state.lock().applied_through
    }

    /// A copy of the cloud-side counters.
    pub fn stats(&self) -> CloudCellStats {
        self.inner.state.lock().stats.clone()
    }

    /// The cloud's view of a device's latest state.
    pub fn device_state(&self, device: &str) -> Option<String> {
        self.inner.state.lock().devices.get(device).cloned()
    }

    /// Devices currently registered, sorted.
    pub fn registered_devices(&self) -> Vec<String> {
        self.inner.state.lock().registered.iter().cloned().collect()
    }

    /// Merges this cell's staleness sketch into `into` (fleet rollups).
    fn merge_staleness_into(&self, into: &mut HistSketch) {
        into.merge(&self.inner.state.lock().staleness);
    }

    /// Sends a downward RPC with at-least-once delivery: transport
    /// failures re-send up to the configured retry budget (paced by
    /// the command backoff), relying on the home-side dedup window for
    /// exactly-once effect.
    pub fn send_command(&self, device: &str, op: &str, payload: &str) -> Result<String, MetaError> {
        let sim = &self.inner.sim;
        let (id, epoch) = {
            let mut st = self.inner.state.lock();
            st.next_cmd_id += 1;
            st.stats.commands_sent += 1;
            (st.next_cmd_id, st.epoch)
        };
        let msg = format!("CMD {id} {epoch} {device} {op} {payload}");
        let scope = Scope::root(
            sim,
            &self.inner.tracer,
            &self.inner.metrics,
            HopKind::Cloud,
            || format!("cloud.send #{id} {op}"),
        );
        let mut attempt = 0u32;
        let outcome = loop {
            match self.inner.wan.request(
                self.inner.cloud_node,
                self.inner.home_node,
                Protocol::Http,
                msg.clone().into_bytes(),
            ) {
                Ok(bytes) => {
                    let text = String::from_utf8_lossy(&bytes);
                    if let Some(result) = text.strip_prefix("OK ") {
                        break Ok(result.to_owned());
                    } else if let Some(e) = text.strip_prefix("STALE ") {
                        break Err(MetaError::native(
                            "cloud",
                            format!("command fenced by epoch {}", e.trim()),
                        ));
                    } else if let Some(msg) = text.strip_prefix("ERR ") {
                        break Err(MetaError::native("cloud", msg));
                    }
                    break Err(MetaError::Protocol(format!("bad command reply: {text}")));
                }
                Err(e) => {
                    if attempt >= CMD_RETRIES {
                        break Err(MetaError::from_wire_error(&e, self.inner.cloud_node));
                    }
                    attempt += 1;
                    self.inner.state.lock().stats.command_retries += 1;
                    self.inner.metrics.record_retry();
                    // Doubling per retry up to 2^10 times the base.
                    let cap = SimDuration::from_micros(CMD_BACKOFF.as_micros() << 10);
                    sim.advance(backoff(CMD_BACKOFF, cap, attempt, true, sim));
                }
            }
        };
        if outcome.is_err() {
            self.inner.state.lock().stats.command_failures += 1;
        }
        scope.finish_invocation("cloud.send", &outcome);
        outcome
    }

    /// Handles one upward frame (`HELLO` or `PUSH`). Returns the wire
    /// reply.
    fn handle_upward(&self, text: &str) -> Result<String, String> {
        let now = self.inner.sim.now();
        let mut st = self.inner.state.lock();
        // Flash-crowd admission: the per-home bucket and the fair
        // share of the global budget must both admit. Pushback names
        // the wait until the constraining bucket next accrues.
        let admitted = st
            .gcra_home
            .admit(now)
            .and_then(|()| st.gcra_share.admit(now));
        if let Err(retry_after) = admitted {
            st.stats.throttled += 1;
            return Ok(format!("RETRY {}", retry_after.as_micros().max(1)));
        }
        if let Some(epoch_s) = text.strip_prefix("HELLO ") {
            let epoch: u64 = epoch_s.trim().parse().map_err(|_| "bad hello epoch")?;
            if epoch <= st.epoch && st.epoch != 0 {
                // An older (or replayed) session knocking after a newer
                // epoch was seen: fence it off.
                return Ok(format!("STALE {}", st.epoch));
            }
            st.epoch = epoch;
            st.stats.hellos += 1;
            return Ok(format!("OK {}", st.applied_through));
        }
        if let Some(rest) = text.strip_prefix("PUSH ") {
            let mut lines = rest.lines();
            let header = lines.next().ok_or("empty push")?;
            let (epoch_s, _n) = header.split_once(' ').ok_or("bad push header")?;
            let epoch: u64 = epoch_s.parse().map_err(|_| "bad push epoch")?;
            if epoch != st.epoch {
                st.stats.pushes_stale += 1;
                return Ok(format!("STALE {}", st.epoch));
            }
            for line in lines {
                let mut parts = line.splitn(5, ' ');
                let seq: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad entry seq")?;
                let kind = parts
                    .next()
                    .and_then(EntryKind::from_wire)
                    .ok_or("bad entry kind")?;
                let created_us: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad entry time")?;
                let device = parts.next().ok_or("missing entry device")?;
                let payload = parts.next().unwrap_or("");
                if seq <= st.applied_through {
                    // At-least-once resend of an already-applied entry
                    // (ambiguous push outcome, or a chaos duplicate):
                    // the digest dedups it.
                    st.stats.entries_deduped += 1;
                    continue;
                }
                match kind {
                    EntryKind::Register => {
                        st.registered.insert(device.to_owned());
                        st.stats.lifecycle_applied += 1;
                    }
                    EntryKind::Unregister => {
                        st.registered.remove(device);
                        st.devices.remove(device);
                        st.stats.lifecycle_applied += 1;
                    }
                    EntryKind::Notify => {
                        st.devices.insert(device.to_owned(), payload.to_owned());
                        st.stats.notify_applied += 1;
                        let staleness = now.as_micros().saturating_sub(created_us);
                        st.staleness.record(staleness);
                    }
                }
                st.applied_through = seq;
                st.stats.entries_applied += 1;
            }
            st.stats.pushes_ok += 1;
            return Ok(format!("OK {}", st.applied_through));
        }
        Err(format!("unknown cloud frame: {text}"))
    }
}

// ---------------------------------------------------------------------------
// the island pair
// ---------------------------------------------------------------------------

/// One home's cloud attachment: the home-side bridge, its cloud-edge
/// cell, the WAN between them, and the pump timer.
pub struct CloudIsland {
    /// The home side (outbox, epochs, dedup).
    pub bridge: CloudBridgePcm,
    /// The cloud-edge side (fencing, digest, admission, downward RPC).
    pub cell: CloudCell,
    /// The pump timer (kept so it stays cancellable).
    pub pump_timer: RepeatHandle,
    tracer: Tracer,
    metrics: Arc<MetricsRegistry>,
}

impl CloudIsland {
    /// Builds the pair on `sim` with a fresh WAN. `fleet_homes` sizes
    /// the fair share of the global admission budget (pass the fleet
    /// size; 1 for a standalone home).
    pub fn build(sim: &Sim, home_id: &str, cfg: CloudConfig, fleet_homes: usize) -> CloudIsland {
        let wan = Network::internet(sim);
        let home_node = wan.attach(format!("{home_id}:bridge"));
        let cloud_node = wan.attach(format!("{home_id}:cloud-edge"));
        let tracer = Tracer::new("cloud-gw");
        let metrics = Arc::new(MetricsRegistry::new());
        let homes = u32::try_from(fleet_homes.max(1)).unwrap_or(u32::MAX);
        let bridge = CloudBridgePcm {
            inner: Arc::new(BridgeInner {
                sim: sim.clone(),
                wan: wan.clone(),
                home_node,
                cloud_node,
                cfg: cfg.clone(),
                state: Mutex::new(BridgeState {
                    connected: false,
                    epoch: 0,
                    next_seq: 1,
                    outbox: VecDeque::new(),
                    backoff_attempt: 0,
                    next_attempt_at: SimTime::ZERO,
                    throttled_until: SimTime::ZERO,
                    registered: BTreeSet::new(),
                    dedup: VecDeque::new(),
                    applied_ids: HashSet::new(),
                    stats: CloudBridgeStats::default(),
                }),
                applier: Mutex::new(Box::new(|_, cmd| {
                    Ok(format!("ack:{}:{}", cmd.op, cmd.device))
                })),
                tracer: tracer.clone(),
                metrics: metrics.clone(),
            }),
        };
        let cell = CloudCell {
            inner: Arc::new(CellInner {
                sim: sim.clone(),
                wan: wan.clone(),
                home_node,
                cloud_node,
                state: Mutex::new(CellState {
                    epoch: 0,
                    applied_through: 0,
                    devices: BTreeMap::new(),
                    registered: BTreeSet::new(),
                    staleness: HistSketch::new(),
                    gcra_home: Gcra::per_minute(cfg.home_rate_per_min, cfg.home_burst),
                    gcra_share: Gcra::per_minute(
                        cfg.global_rate_per_min / homes.max(1),
                        (cfg.global_burst / homes.max(1)).max(1),
                    ),
                    next_cmd_id: 0,
                    stats: CloudCellStats::default(),
                }),
                tracer: tracer.clone(),
                metrics: metrics.clone(),
            }),
        };
        let cell_for_upward = cell.clone();
        wan.set_request_handler(cloud_node, move |_, frame| {
            let text = String::from_utf8_lossy(&frame.payload);
            cell_for_upward.handle_upward(&text).map(String::into_bytes)
        })
        .expect("cloud node attached");
        let bridge_for_cmd = bridge.clone();
        wan.set_request_handler(home_node, move |sim, frame| {
            let text = String::from_utf8_lossy(&frame.payload);
            bridge_for_cmd
                .handle_command(sim, &text)
                .map(String::into_bytes)
        })
        .expect("home node attached");
        let bridge_for_pump = bridge.clone();
        let pump_timer = sim.every(cfg.drain_period, move |_| bridge_for_pump.pump());
        CloudIsland {
            bridge,
            cell,
            pump_timer,
            tracer,
            metrics,
        }
    }

    /// Installs a chaos plan on the WAN between the bridge and its
    /// cloud edge.
    pub fn set_wan_fault_plan(&self, plan: FaultPlan) {
        self.bridge.wan().set_fault_plan(plan);
    }

    /// Turns span recording on or off for both sides.
    pub fn set_tracing(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Drains the completed cloud spans.
    pub fn take_spans(&self) -> Vec<Span> {
        self.tracer.take_spans()
    }

    /// This island's cloud metrics as a standard snapshot (gateway
    /// `cloud-gw`), mergeable into home and fleet rollups.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            gateway: "cloud-gw".to_owned(),
            island: self.bridge.inner.sim.island(),
            registry: self.metrics.snapshot(),
            cache: CacheStats::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// fleet aggregation: CloudBackbone
// ---------------------------------------------------------------------------

/// Fleet-wide roll-up of the simulated cloud backbone: one
/// [`CloudCell`] per home, summed counters, a merged staleness sketch,
/// and the downward command fan-out. Handles are cheap clones; the
/// state stays on each home's island.
pub struct CloudBackbone {
    homes: Vec<(CloudBridgePcm, CloudCell)>,
}

/// The delivered/duplicate/staleness summary the e17 bench reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CloudFleetSummary {
    /// Notifications raised home-side (enqueued + coalesced + shed +
    /// dropped).
    pub notifications_raised: u64,
    /// Notification effects that reached the cloud: applied entries
    /// plus updates superseded in the outbox (latest-state-wins
    /// delivers them by proxy).
    pub notifications_delivered: u64,
    /// Notifications lost (shed under overload or dropped without
    /// store-and-forward).
    pub notifications_lost: u64,
    /// Delivered / raised (1.0 when nothing was raised).
    pub delivered_ratio: f64,
    /// Staleness p50 across the fleet, microseconds.
    pub staleness_p50_us: u64,
    /// Staleness p99 across the fleet, microseconds.
    pub staleness_p99_us: u64,
    /// Exactly-once violations (must be 0).
    pub duplicate_effects: u64,
    /// Downward commands applied fleet-wide.
    pub commands_applied: u64,
    /// Downward deliveries answered from dedup windows.
    pub commands_deduped: u64,
    /// Admission pushbacks issued by the cloud edge.
    pub throttled: u64,
    /// Successful reconnect handshakes.
    pub reconnects: u64,
}

impl CloudBackbone {
    /// Assembles the backbone from per-home bridge/cell pairs, in
    /// island order.
    pub fn new(homes: Vec<(CloudBridgePcm, CloudCell)>) -> CloudBackbone {
        CloudBackbone { homes }
    }

    /// Number of attached homes.
    pub fn len(&self) -> usize {
        self.homes.len()
    }

    /// True when no home is attached.
    pub fn is_empty(&self) -> bool {
        self.homes.is_empty()
    }

    /// One home's cloud-edge cell.
    pub fn cell(&self, island: usize) -> &CloudCell {
        &self.homes[island].1
    }

    /// One home's bridge.
    pub fn bridge(&self, island: usize) -> &CloudBridgePcm {
        &self.homes[island].0
    }

    /// Sends a downward RPC to one home (at-least-once delivery,
    /// exactly-once effect).
    pub fn send_command(
        &self,
        island: usize,
        device: &str,
        op: &str,
        payload: &str,
    ) -> Result<String, MetaError> {
        self.homes[island].1.send_command(device, op, payload)
    }

    /// The fleet-wide summary: delivered ratio, staleness quantiles,
    /// duplicate-effect count. Deterministic for any thread count.
    pub fn summary(&self) -> CloudFleetSummary {
        let mut s = CloudFleetSummary::default();
        let mut staleness = HistSketch::new();
        for (bridge, cell) in &self.homes {
            let b = bridge.stats();
            let c = cell.stats();
            s.notifications_raised +=
                b.notify_enqueued + b.coalesced + b.shed + b.dropped_disconnected;
            s.notifications_delivered += c.notify_applied + b.coalesced;
            s.notifications_lost += b.shed + b.dropped_disconnected;
            s.duplicate_effects += b.duplicate_effects;
            s.commands_applied += b.commands_applied;
            s.commands_deduped += b.commands_deduped;
            s.throttled += c.throttled;
            s.reconnects += b.reconnects;
            cell.merge_staleness_into(&mut staleness);
        }
        s.delivered_ratio = if s.notifications_raised == 0 {
            1.0
        } else {
            s.notifications_delivered as f64 / s.notifications_raised as f64
        };
        s.staleness_p50_us = staleness.quantile_us(0.50);
        s.staleness_p99_us = staleness.quantile_us(0.99);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> (Sim, CloudIsland) {
        let sim = Sim::new(11);
        let island = CloudIsland::build(&sim, "home-test", CloudConfig::default(), 1);
        (sim, island)
    }

    fn run_secs(sim: &Sim, s: u64) {
        sim.run_for(SimDuration::from_secs(s));
    }

    #[test]
    fn gcra_meters_and_reports_retry_after() {
        let mut g = Gcra::per_minute(60, 2); // 1/s, burst 2
        let t0 = SimTime::ZERO;
        assert!(g.admit(t0).is_ok());
        assert!(g.admit(t0).is_ok());
        assert!(g.admit(t0).is_ok(), "burst headroom");
        let ra = g.admit(t0).unwrap_err();
        assert_eq!(ra.as_micros(), 1_000_000, "wait one interval");
        let later = t0 + SimDuration::from_secs(1);
        assert!(g.admit(later).is_ok(), "token accrued");
        // Zero rate disables metering entirely.
        let mut open = Gcra::per_minute(0, 1);
        for _ in 0..100 {
            assert!(open.admit(t0).is_ok());
        }
    }

    #[test]
    fn outbox_coalesces_notifications_but_never_lifecycle() {
        let (_sim, island) = world();
        let b = &island.bridge;
        let s1 = b.notify_state("lamp", "on").unwrap();
        let s2 = b.notify_state("lamp", "off").unwrap();
        assert_eq!(s1, s2, "latest-state-wins keeps the original seq");
        assert_eq!(b.outbox_len(), 1);
        b.register_device("lamp").unwrap();
        b.register_device("lamp").unwrap();
        assert_eq!(b.outbox_len(), 3, "lifecycle entries never coalesce");
        let st = b.stats();
        assert_eq!(st.coalesced, 1);
        assert_eq!(st.notify_enqueued, 1);
        assert_eq!(st.lifecycle_enqueued, 2);
    }

    #[test]
    fn outbox_sheds_with_typed_overloaded_but_keeps_lifecycle() {
        let sim = Sim::new(11);
        let cfg = CloudConfig {
            outbox_cap: 3,
            ..CloudConfig::default()
        };
        let island = CloudIsland::build(&sim, "h", cfg, 1);
        let b = &island.bridge;
        b.notify_state("a", "1").unwrap();
        b.notify_state("b", "1").unwrap();
        b.notify_state("c", "1").unwrap();
        let err = b.notify_state("d", "1").unwrap_err();
        assert!(matches!(err, MetaError::Overloaded { .. }));
        // Lifecycle evicts the oldest notification instead of shedding.
        b.register_device("vcr").unwrap();
        assert_eq!(b.outbox_len(), 3);
        let st = b.stats();
        assert_eq!(st.shed, 2, "one typed shed + one eviction");
        assert_eq!(st.lifecycle_enqueued, 1);
    }

    #[test]
    fn connect_drains_in_order_and_reports_state() {
        let (sim, island) = world();
        let b = &island.bridge;
        b.register_device("lamp").unwrap();
        b.notify_state("lamp", "on").unwrap();
        b.notify_state("fan", "slow").unwrap();
        assert!(!b.is_connected());
        run_secs(&sim, 2);
        assert!(b.is_connected());
        assert_eq!(b.outbox_len(), 0);
        assert_eq!(b.epoch(), 1);
        let c = island.cell.stats();
        assert_eq!(c.entries_applied, 3);
        assert_eq!(c.lifecycle_applied, 1);
        assert_eq!(c.notify_applied, 2);
        assert_eq!(island.cell.device_state("lamp").as_deref(), Some("on"));
        assert_eq!(island.cell.device_state("fan").as_deref(), Some("slow"));
        assert_eq!(island.cell.registered_devices(), vec!["lamp".to_owned()]);
        assert_eq!(island.cell.applied_through(), 3);
    }

    #[test]
    fn partition_buffers_then_heals_with_delta_reconciliation() {
        use simnet::SimTime;
        let (sim, island) = world();
        let b = &island.bridge;
        // Connect cleanly first.
        b.notify_state("lamp", "s0").unwrap();
        run_secs(&sim, 2);
        assert!(b.is_connected());
        let applied_before = island.cell.applied_through();
        // Partition the WAN for 30s of virtual time.
        let from = sim.now() + SimDuration::from_secs(1);
        let until = from + SimDuration::from_secs(30);
        island.set_wan_fault_plan(FaultPlan::new().partition(
            vec![b.home_node()],
            vec![b.cloud_node()],
            from,
            until,
        ));
        sim.run_until(from + SimDuration::from_secs(2));
        // Updates during the outage buffer in the outbox.
        for i in 0..5 {
            b.notify_state(&format!("dev{i}"), "x").unwrap();
        }
        sim.run_until(from + SimDuration::from_secs(10));
        assert!(!b.is_connected(), "outage detected");
        assert!(b.outbox_len() > 0, "outbox buffers during the outage");
        // Heal and drain.
        sim.run_until(until + SimDuration::from_secs(120));
        assert!(b.is_connected(), "reconnected after heal");
        assert_eq!(b.outbox_len(), 0, "outbox drained after heal");
        let st = b.stats();
        assert!(st.reconnects >= 2, "initial connect + post-heal reconnect");
        assert!(st.connect_failures > 0, "backoff was exercised");
        assert!(island.cell.applied_through() > applied_before);
        assert_eq!(island.cell.device_state("dev4").as_deref(), Some("x"));
        // Epochs moved forward and the cell followed.
        assert!(b.epoch() > 1);
        assert_eq!(island.cell.epoch(), b.epoch());
        assert_eq!(SimTime::ZERO.as_micros(), 0);
    }

    #[test]
    fn stale_epoch_push_is_fenced() {
        let (sim, island) = world();
        island.bridge.notify_state("lamp", "on").unwrap();
        run_secs(&sim, 2);
        assert!(island.bridge.is_connected());
        // Forge a push from a stale session (epoch 0).
        let reply = island
            .bridge
            .wan()
            .request(
                island.bridge.home_node(),
                island.bridge.cloud_node(),
                Protocol::Http,
                b"PUSH 0 1\n99 state 0 ghost boo".to_vec(),
            )
            .unwrap();
        let text = String::from_utf8_lossy(&reply).into_owned();
        assert!(text.starts_with("STALE "), "got: {text}");
        assert_eq!(island.cell.device_state("ghost"), None);
        assert_eq!(island.cell.stats().pushes_stale, 1);
    }

    #[test]
    fn stale_hello_is_fenced() {
        let (sim, island) = world();
        run_secs(&sim, 2);
        let epoch = island.cell.epoch();
        assert!(epoch >= 1);
        let reply = island
            .bridge
            .wan()
            .request(
                island.bridge.home_node(),
                island.bridge.cloud_node(),
                Protocol::Http,
                format!("HELLO {}", epoch.saturating_sub(1)).into_bytes(),
            )
            .unwrap();
        let text = String::from_utf8_lossy(&reply).into_owned();
        assert!(text.starts_with("STALE "), "got: {text}");
    }

    #[test]
    fn duplicate_chaos_yields_exactly_once_command_effect() {
        use simnet::SimTime;
        let (sim, island) = world();
        run_secs(&sim, 2);
        assert!(island.bridge.is_connected());
        // Count real applier invocations per id.
        let hits = Arc::new(Mutex::new(Vec::new()));
        let hits2 = hits.clone();
        island.bridge.set_applier(move |_, cmd| {
            hits2.lock().push(cmd.id);
            Ok(format!("done:{}", cmd.op))
        });
        // Every request leg is duplicated from here on.
        island.set_wan_fault_plan(FaultPlan::new().duplicate_spike(
            SimTime::ZERO,
            SimTime::from_micros(u64::MAX / 2),
            1.0,
        ));
        let r = island.cell.send_command("lamp", "switch", "on").unwrap();
        assert_eq!(r, "done:switch");
        assert_eq!(hits.lock().len(), 1, "the duplicate hit the dedup window");
        let st = island.bridge.stats();
        assert_eq!(st.commands_applied, 1);
        assert!(st.commands_deduped >= 1);
        assert_eq!(st.duplicate_effects, 0);
    }

    #[test]
    fn stale_epoch_command_is_fenced() {
        let (sim, island) = world();
        run_secs(&sim, 2);
        assert!(island.bridge.is_connected());
        // Forge a command stamped with a long-gone epoch.
        let reply = island
            .bridge
            .wan()
            .request(
                island.bridge.cloud_node(),
                island.bridge.home_node(),
                Protocol::Http,
                b"CMD 7 0 lamp switch on".to_vec(),
            )
            .unwrap();
        let text = String::from_utf8_lossy(&reply).into_owned();
        assert!(text.starts_with("STALE "), "got: {text}");
        let st = island.bridge.stats();
        assert_eq!(st.commands_stale_rejected, 1);
        assert_eq!(st.commands_applied, 0);
    }

    #[test]
    fn admission_pushback_throttles_and_recovers() {
        let sim = Sim::new(11);
        let cfg = CloudConfig {
            // 6/min = one admitted request every 10s, tiny burst.
            home_rate_per_min: 6,
            home_burst: 2,
            drain_period: SimDuration::from_millis(100),
            batch_max: 1,
            ..CloudConfig::default()
        };
        let island = CloudIsland::build(&sim, "h", cfg, 1);
        for i in 0..10 {
            island.bridge.notify_state(&format!("d{i}"), "v").unwrap();
        }
        run_secs(&sim, 3);
        let c = island.cell.stats();
        assert!(c.throttled > 0, "tiny bucket must push back");
        let b = island.bridge.stats();
        assert!(b.retry_after_waits > 0, "pushback fed the backoff");
        // Given enough virtual time the bucket admits everything.
        run_secs(&sim, 200);
        assert_eq!(island.bridge.outbox_len(), 0);
        assert_eq!(island.cell.stats().notify_applied, 10);
    }

    #[test]
    fn store_and_forward_ablation_drops_disconnected_updates() {
        let sim = Sim::new(11);
        let cfg = CloudConfig {
            store_and_forward: false,
            ..CloudConfig::default()
        };
        let island = CloudIsland::build(&sim, "h", cfg, 1);
        // Disconnected: updates are dropped, not buffered.
        let err = island.bridge.notify_state("lamp", "on").unwrap_err();
        assert!(matches!(err, MetaError::GatewayUnreachable(_)));
        assert_eq!(island.bridge.outbox_len(), 0);
        assert_eq!(island.bridge.stats().dropped_disconnected, 1);
        run_secs(&sim, 2);
        // Connected: updates flow normally.
        island.bridge.notify_state("lamp", "off").unwrap();
        run_secs(&sim, 1);
        assert_eq!(island.cell.device_state("lamp").as_deref(), Some("off"));
    }

    #[test]
    fn backbone_summary_rolls_up_and_traces_record() {
        let sim = Sim::new(11);
        let island = CloudIsland::build(&sim, "h", CloudConfig::default(), 1);
        island.set_tracing(true);
        island.bridge.notify_state("lamp", "on").unwrap();
        run_secs(&sim, 2);
        island.cell.send_command("lamp", "switch", "off").unwrap();
        let backbone = CloudBackbone::new(vec![(island.bridge.clone(), island.cell.clone())]);
        let s = backbone.summary();
        assert_eq!(s.notifications_raised, 1);
        assert_eq!(s.notifications_delivered, 1);
        assert!((s.delivered_ratio - 1.0).abs() < 1e-12);
        assert_eq!(s.duplicate_effects, 0);
        assert_eq!(s.commands_applied, 1);
        assert_eq!(backbone.len(), 1);
        let spans = island.take_spans();
        assert!(spans.iter().any(|sp| sp.kind == HopKind::Cloud));
        let snap = island.metrics_snapshot();
        assert_eq!(snap.gateway, "cloud-gw");
        assert!(snap.to_json().contains("cloud.push"));
    }

    #[test]
    fn fair_share_divides_the_global_budget() {
        let sim = Sim::new(11);
        let cfg = CloudConfig {
            home_rate_per_min: 6_000, // per-home bucket wide open
            global_rate_per_min: 600, // 600/min across 100 homes = 6/min each
            global_burst: 100,
            drain_period: SimDuration::from_millis(100),
            batch_max: 1,
            ..CloudConfig::default()
        };
        let island = CloudIsland::build(&sim, "h", cfg, 100);
        for i in 0..10 {
            island.bridge.notify_state(&format!("d{i}"), "v").unwrap();
        }
        run_secs(&sim, 3);
        assert!(
            island.cell.stats().throttled > 0,
            "the fair share must bind when the per-home bucket does not"
        );
    }

    /// One valid frame of each kind the WAN carries, for a fresh island
    /// (both epochs 0, nothing applied yet).
    const GOLDEN_FRAMES: [&[u8]; 3] = [
        b"HELLO 1",
        b"PUSH 0 3\n1 reg 0 lamp\n2 state 0 lamp on\n3 unreg 0 lamp",
        b"CMD 1 0 lamp switch on",
    ];

    /// Sends `frame` to the cloud edge and to the home bridge of a fresh
    /// island. Each must answer with an `OK`, `STALE` or `RETRY` text or
    /// refuse it, and the cloud edge must still answer a valid `HELLO`
    /// afterwards.
    fn hostile_frame_is_answered(frame: &[u8]) -> Result<(), String> {
        let (_sim, island) = world();
        let bridge = &island.bridge;
        let (home, cloud) = (bridge.home_node(), bridge.cloud_node());
        let answered = |reply: &str, kinds: &[&str]| kinds.iter().any(|k| reply.starts_with(k));
        for (from, to) in [(home, cloud), (cloud, home)] {
            match bridge.wan().request(from, to, Protocol::Http, frame) {
                Ok(reply) => {
                    let reply = String::from_utf8_lossy(&reply);
                    if !answered(&reply, &["OK ", "STALE ", "RETRY "]) {
                        return Err(format!("reply {reply:?} to {frame:?}"));
                    }
                }
                Err(simnet::SimError::Refused(_)) => {}
                Err(e) => return Err(format!("{e} on {frame:?}")),
            }
        }
        let hello = format!("HELLO {}", island.cell.epoch().saturating_add(1));
        match bridge.wan().request(home, cloud, Protocol::Http, hello) {
            Ok(reply) if answered(&String::from_utf8_lossy(&reply), &["OK ", "STALE "]) => Ok(()),
            other => Err(format!("HELLO after {frame:?} got {other:?}")),
        }
    }

    #[test]
    fn golden_frames_are_applied() {
        for frame in GOLDEN_FRAMES {
            let (_sim, island) = world();
            let (home, cloud) = (island.bridge.home_node(), island.bridge.cloud_node());
            // A command travels down to the home; HELLO and PUSH go up.
            let (from, to) = if frame.starts_with(b"CMD") {
                (cloud, home)
            } else {
                (home, cloud)
            };
            let wan = island.bridge.wan();
            let reply = wan.request(from, to, Protocol::Http, frame).unwrap();
            assert!(
                reply.starts_with(b"OK "),
                "{}",
                String::from_utf8_lossy(&reply)
            );
        }
    }

    #[test]
    fn every_truncation_and_byte_edit_of_the_golden_frames_is_answered() {
        let mut cases = 0;
        for frame in GOLDEN_FRAMES {
            for cut in 0..frame.len() {
                hostile_frame_is_answered(&frame[..cut]).unwrap();
            }
            for at in 0..frame.len() {
                for mask in [1u8, 2, 4, 8, 16, 32, 64, 128, 0xFF] {
                    let mut edited = frame.to_vec();
                    edited[at] ^= mask;
                    hostile_frame_is_answered(&edited).unwrap();
                }
            }
            cases += frame.len() * 10;
        }
        assert!(cases >= 800, "{cases} cases");
    }

    mod never_panics {
        use super::*;
        use proptest::prelude::*;

        /// The head of each frame kind, so arbitrary bodies reach every
        /// parser behind the admission check.
        const HEADS: [&[u8]; 4] = [b"", b"HELLO ", b"PUSH ", b"CMD "];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(500))]

            #[test]
            fn arbitrary_bytes_behind_every_head_are_answered(
                head in 0..HEADS.len(),
                body in prop::collection::vec(any::<u8>(), 0..64),
            ) {
                let frame = [HEADS[head], body.as_slice()].concat();
                hostile_frame_is_answered(&frame).map_err(TestCaseError::fail)?;
            }

            #[test]
            fn frame_shaped_text_is_answered(
                text in "(HELLO|PUSH|CMD) [0-9a-z ]{0,12}(\n[0-9a-z ]{0,16}){0,3}",
            ) {
                hostile_frame_is_answered(text.as_bytes()).map_err(TestCaseError::fail)?;
            }

            #[test]
            fn golden_frames_with_invalid_utf8_are_answered(
                which in 0..GOLDEN_FRAMES.len(),
                at in any::<usize>(),
                junk in prop::collection::vec(0x80u8..=0xFF, 1..4),
            ) {
                let frame = GOLDEN_FRAMES[which];
                let at = at % (frame.len() + 1);
                let frame = [&frame[..at], junk.as_slice(), &frame[at..]].concat();
                hostile_frame_is_answered(&frame).map_err(TestCaseError::fail)?;
            }
        }
    }
}
