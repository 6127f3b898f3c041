//! Metrics registries and the device-footprint model.
//!
//! The [`footprint`] module models §4.2's closing observation:
//! "current HTTP must run over TCP, and a TCP stack is large and
//! complex. This can be an issue in small devices or appliances with
//! stringent memory and processing requirements" (experiment E7).

/// Hit/miss/eviction counters for the gateway resolution cache
/// (observable per gateway via `Vsg::cache_stats`, reported by the E11
/// hot-path ablations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a cached `ServiceRecord`.
    pub hits: u64,
    /// Lookups answered from a cached negative ("no such service")
    /// entry, sparing the VSR a round trip per repeated miss.
    pub negative_hits: u64,
    /// Lookups that fell through to VSR resolution.
    pub misses: u64,
    /// Entries displaced by the capacity bound (LRU order).
    pub evictions: u64,
    /// Entries dropped by explicit invalidation (withdraw/re-export or
    /// a stale route detected mid-invocation).
    pub invalidations: u64,
    /// Invalidated entries served anyway because the VSR was
    /// unreachable and the gateway preferred availability (degraded
    /// mode).
    pub stale_serves: u64,
}

impl CacheStats {
    /// Hit ratio over all lookups (0.0 when no lookups happened).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.negative_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.negative_hits) as f64 / total as f64
        }
    }
}

// ---- the per-gateway metrics registry --------------------------------------

use crate::obs::{HistSketch, Layer, LAYERS};
use crate::trace::TraceId;

#[derive(Debug, Default)]
struct MetricsState {
    invocations: u64,
    errors: std::collections::BTreeMap<&'static str, u64>,
    per_service: std::collections::BTreeMap<String, u64>,
    latency: HistSketch,
    queue_wait: HistSketch,
    layers: [HistSketch; LAYERS.len()],
    retries: u64,
    degraded_serves: u64,
    breaker_transitions: u64,
    breaker_state: std::collections::BTreeMap<String, &'static str>,
    shard_ops: std::collections::BTreeMap<u32, u64>,
    vsr_failovers: u64,
    shard_map_refreshes: u64,
    replication_lag: std::collections::BTreeMap<u32, u64>,
    compose_executions: u64,
    compose_steps: u64,
    compose_failures: u64,
    compose_compensations: u64,
    compose_compensation_failures: u64,
}

/// Per-gateway monotonic counters and latency histogram, fed by every
/// `Vsg::invoke`. Always on — unlike tracing, a handful of counter
/// bumps behind a mutex is cheap enough to not need a switch.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    state: parking_lot::Mutex<MetricsState>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Records one invocation of `service` that took `elapsed_us` of
    /// virtual time; `error_kind` is [`crate::MetaError::kind`] when it
    /// failed.
    pub(crate) fn record(&self, service: &str, elapsed_us: u64, error_kind: Option<&'static str>) {
        self.record_with_exemplar(service, elapsed_us, error_kind, None);
    }

    /// [`MetricsRegistry::record`] plus an exemplar: the trace id of
    /// the invocation (when tracing is on), stored on the latency
    /// bucket the sample lands in so a slow bucket in a fleet-merged
    /// snapshot points at one concrete kept trace.
    pub(crate) fn record_with_exemplar(
        &self,
        service: &str,
        elapsed_us: u64,
        error_kind: Option<&'static str>,
        exemplar: Option<TraceId>,
    ) {
        let mut st = self.state.lock();
        st.invocations += 1;
        if let Some(kind) = error_kind {
            *st.errors.entry(kind).or_insert(0) += 1;
        }
        if let Some(n) = st.per_service.get_mut(service) {
            *n += 1;
        } else {
            st.per_service.insert(service.to_owned(), 1);
        }
        st.latency.record_with_exemplar(elapsed_us, exemplar);
    }

    /// Records `elapsed_us` against one attribution layer, with a
    /// trace-id exemplar. Only [`crate::obs::Scope`] calls this, so
    /// every layer sample is one scope close.
    pub(crate) fn record_layer(&self, layer: Layer, elapsed_us: u64, exemplar: Option<TraceId>) {
        self.state.lock().layers[layer.index()].record_with_exemplar(elapsed_us, exemplar);
    }

    /// Records one wire-call retry (the resilience layer re-sending
    /// after a transport failure).
    pub fn record_retry(&self) {
        self.state.lock().retries += 1;
    }

    /// Records how long one batched call or event sat in its per-peer
    /// queue between enqueue and flush. Kept separate from the
    /// invocation latency histogram so coalescing delay is observable
    /// on its own rather than hidden inside end-to-end time.
    pub fn record_queue_wait(&self, us: u64) {
        self.state.lock().queue_wait.record(us);
    }

    /// Records one invocation answered from a stale route because the
    /// VSR was unreachable (degraded mode).
    pub fn record_degraded_serve(&self) {
        self.state.lock().degraded_serves += 1;
    }

    /// Records a circuit-breaker state transition for `gateway` and
    /// updates the per-gateway state gauge.
    pub fn record_breaker_transition(&self, gateway: &str, state: &'static str) {
        let mut st = self.state.lock();
        st.breaker_transitions += 1;
        st.breaker_state.insert(gateway.to_owned(), state);
    }

    /// Records one repository operation routed to `shard` of the
    /// federated VSR (per-shard load visibility).
    pub fn record_shard_op(&self, shard: u32) {
        *self.state.lock().shard_ops.entry(shard).or_insert(0) += 1;
    }

    /// Records one VSR replica failover: the shard's preferred replica
    /// could not be reached and the operation moved down the
    /// preference list.
    pub fn record_vsr_failover(&self) {
        self.state.lock().vsr_failovers += 1;
    }

    /// Records one client-side shard-map refresh (a fetch forced by a
    /// cold cache or a `moved-shard` redirect).
    pub fn record_shard_map_refresh(&self) {
        self.state.lock().shard_map_refreshes += 1;
    }

    /// Sets the replication-lag gauge for `shard`: how many records on
    /// the shard's primary its laggiest backup has not yet caught up
    /// on (0 when fully converged).
    pub fn set_replication_lag(&self, shard: u32, lag: u64) {
        self.state.lock().replication_lag.insert(shard, lag);
    }

    /// Records one composition-engine execution: how many steps
    /// completed, how its compensators fared, and whether the pipeline
    /// as a whole failed.
    pub fn record_compose(&self, outcome: &crate::compose::ComposeOutcome, failed: bool) {
        let mut st = self.state.lock();
        st.compose_executions += 1;
        st.compose_steps += outcome.steps_completed as u64;
        st.compose_compensations += outcome.compensations_run as u64;
        st.compose_compensation_failures += outcome.compensations_failed as u64;
        if failed {
            st.compose_failures += 1;
        }
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let st = self.state.lock();
        RegistrySnapshot {
            invocations: st.invocations,
            errors: st
                .errors
                .iter()
                .map(|(k, v)| ((*k).to_owned(), *v))
                .collect(),
            per_service: st
                .per_service
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            latency: st.latency,
            queue_wait: st.queue_wait,
            layers: st.layers,
            retries: st.retries,
            degraded_serves: st.degraded_serves,
            breaker_transitions: st.breaker_transitions,
            breakers: st
                .breaker_state
                .iter()
                .map(|(k, v)| (k.clone(), (*v).to_owned()))
                .collect(),
            shard_ops: st.shard_ops.iter().map(|(k, v)| (*k, *v)).collect(),
            vsr_failovers: st.vsr_failovers,
            shard_map_refreshes: st.shard_map_refreshes,
            replication_lag: st.replication_lag.iter().map(|(k, v)| (*k, *v)).collect(),
            compose_executions: st.compose_executions,
            compose_steps: st.compose_steps,
            compose_failures: st.compose_failures,
            compose_compensations: st.compose_compensations,
            compose_compensation_failures: st.compose_compensation_failures,
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`] (sorted by key).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Total invocations through the gateway.
    pub invocations: u64,
    /// Failures, counted by [`crate::MetaError::kind`].
    pub errors: Vec<(String, u64)>,
    /// Calls per target service.
    pub per_service: Vec<(String, u64)>,
    /// Virtual-time latency sketch of end-to-end invocations.
    pub latency: HistSketch,
    /// Time batched calls/events spent queued before their flush
    /// (empty unless batching is enabled).
    pub queue_wait: HistSketch,
    /// Per-layer latency sketches, indexed by [`Layer::index`].
    pub layers: [HistSketch; LAYERS.len()],
    /// Wire-call retries performed by the resilience layer.
    pub retries: u64,
    /// Invocations served from a stale route during a VSR outage.
    pub degraded_serves: u64,
    /// Circuit-breaker state transitions (open/half-open/closed).
    pub breaker_transitions: u64,
    /// Current breaker state per remote gateway (gauge).
    pub breakers: Vec<(String, String)>,
    /// Repository operations per shard of the federated VSR.
    pub shard_ops: Vec<(u32, u64)>,
    /// VSR replica failovers (preferred replica skipped or failed).
    pub vsr_failovers: u64,
    /// Client-side shard-map refreshes.
    pub shard_map_refreshes: u64,
    /// Replication-lag gauge per shard (records the laggiest backup is
    /// behind its primary by).
    pub replication_lag: Vec<(u32, u64)>,
    /// Composite pipelines executed by this gateway's composition
    /// engine (success or failure).
    pub compose_executions: u64,
    /// Pipeline steps completed across all composite executions.
    pub compose_steps: u64,
    /// Composite executions that failed (after compensation ran).
    pub compose_failures: u64,
    /// Compensating undos the engine invoked that succeeded.
    pub compose_compensations: u64,
    /// Compensating undos the engine invoked that themselves failed.
    pub compose_compensation_failures: u64,
}

/// Merges two sorted `(key, count)` vectors, summing on key collision.
fn merge_counts<K: Ord + Clone>(a: &mut Vec<(K, u64)>, b: &[(K, u64)]) {
    merge_sorted(a, b, |mine, theirs| *mine += theirs);
}

fn merge_sorted<K: Ord + Clone, V: Clone>(
    a: &mut Vec<(K, V)>,
    b: &[(K, V)],
    mut collide: impl FnMut(&mut V, &V),
) {
    let mut out: Vec<(K, V)> = Vec::with_capacity(a.len() + b.len());
    let mut i = 0;
    let mut j = 0;
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let mut entry = a[i].clone();
                collide(&mut entry.1, &b[j].1);
                out.push(entry);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    *a = out;
}

impl RegistrySnapshot {
    /// The latency sketch for one attribution layer.
    pub fn layer(&self, layer: Layer) -> &HistSketch {
        &self.layers[layer.index()]
    }

    /// Folds `other` into `self`: counters add, sketches bucket-merge,
    /// the replication-lag gauge keeps the worst (max) value per shard
    /// and breaker gauges collapse to `"mixed"` when homes disagree.
    /// Associative and commutative except for the `"mixed"` collapse,
    /// which is still order-independent in its final value.
    pub fn merge_from(&mut self, other: &RegistrySnapshot) {
        self.invocations += other.invocations;
        merge_counts(&mut self.errors, &other.errors);
        merge_counts(&mut self.per_service, &other.per_service);
        self.latency.merge(&other.latency);
        self.queue_wait.merge(&other.queue_wait);
        for (mine, theirs) in self.layers.iter_mut().zip(&other.layers) {
            mine.merge(theirs);
        }
        self.retries += other.retries;
        self.degraded_serves += other.degraded_serves;
        self.breaker_transitions += other.breaker_transitions;
        merge_sorted(&mut self.breakers, &other.breakers, |mine, theirs| {
            if *mine != *theirs {
                *mine = "mixed".to_owned();
            }
        });
        merge_counts(&mut self.shard_ops, &other.shard_ops);
        self.vsr_failovers += other.vsr_failovers;
        self.shard_map_refreshes += other.shard_map_refreshes;
        merge_sorted(
            &mut self.replication_lag,
            &other.replication_lag,
            |mine, theirs| *mine = (*mine).max(*theirs),
        );
        self.compose_executions += other.compose_executions;
        self.compose_steps += other.compose_steps;
        self.compose_failures += other.compose_failures;
        self.compose_compensations += other.compose_compensations;
        self.compose_compensation_failures += other.compose_compensation_failures;
    }
}

/// A gateway's full observable state — invocation counters merged with
/// its resolution-cache statistics — serializable to JSON for bench
/// artefacts (`Vsg::metrics_snapshot`).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// The gateway's name.
    pub gateway: String,
    /// The simulation island this gateway's home runs on (0 for
    /// standalone worlds). A pure function of the topology — never of
    /// the thread count — so snapshots stay byte-identical between
    /// `SIM_THREADS=1` and `SIM_THREADS=N` while making fleet
    /// comparisons apples-to-apples.
    pub island: u32,
    /// Invocation counters and latency histogram.
    pub registry: RegistrySnapshot,
    /// Resolution-cache counters.
    pub cache: CacheStats,
}

impl MetricsSnapshot {
    /// An empty snapshot to fold others into, labelled `gateway`.
    /// [`MetricsSnapshot::merge_from`] accumulates per-gateway
    /// snapshots in O(buckets) memory regardless of sample count.
    pub fn empty(gateway: &str, island: u32) -> MetricsSnapshot {
        MetricsSnapshot {
            gateway: gateway.to_owned(),
            island,
            registry: RegistrySnapshot::default(),
            cache: CacheStats::default(),
        }
    }

    /// Folds `other` into `self` (see [`RegistrySnapshot::merge_from`]
    /// for the per-field rules; cache counters add). The gateway label
    /// and island id of `self` are kept — a fleet rollup labels itself
    /// once and absorbs everything else.
    pub fn merge_from(&mut self, other: &MetricsSnapshot) {
        self.registry.merge_from(&other.registry);
        self.cache.hits += other.cache.hits;
        self.cache.negative_hits += other.cache.negative_hits;
        self.cache.misses += other.cache.misses;
        self.cache.evictions += other.cache.evictions;
        self.cache.invalidations += other.cache.invalidations;
        self.cache.stale_serves += other.cache.stale_serves;
    }

    /// Hand-rolled JSON (the workspace deliberately has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"gateway\":{},\"island\":{}",
            json_str(&self.gateway),
            self.island
        ));
        out.push_str(&format!(",\"invocations\":{}", self.registry.invocations));
        out.push_str(",\"errors\":{");
        for (i, (k, v)) in self.registry.errors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", json_str(k)));
        }
        out.push_str("},\"per_service\":{");
        for (i, (k, v)) in self.registry.per_service.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", json_str(k)));
        }
        out.push_str("},\"latency\":");
        out.push_str(&self.registry.latency.to_json());
        out.push_str(",\"queue_wait\":");
        out.push_str(&self.registry.queue_wait.to_json());
        out.push_str(",\"layers\":{");
        for (i, layer) in LAYERS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{}",
                layer.label(),
                self.registry.layer(*layer).to_json()
            ));
        }
        out.push('}');
        out.push_str(&format!(
            ",\"resilience\":{{\"retries\":{},\"degraded_serves\":{},\"breaker_transitions\":{},\"breakers\":{{",
            self.registry.retries, self.registry.degraded_serves, self.registry.breaker_transitions
        ));
        for (i, (gw, state)) in self.registry.breakers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_str(gw), json_str(state)));
        }
        out.push_str("}}");
        out.push_str(&format!(
            ",\"federation\":{{\"vsr_failovers\":{},\"shard_map_refreshes\":{},\"shard_ops\":{{",
            self.registry.vsr_failovers, self.registry.shard_map_refreshes
        ));
        for (i, (shard, n)) in self.registry.shard_ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{shard}\":{n}"));
        }
        out.push_str("},\"replication_lag\":{");
        for (i, (shard, lag)) in self.registry.replication_lag.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{shard}\":{lag}"));
        }
        out.push_str("}}");
        out.push_str(&format!(
            ",\"compose\":{{\"executions\":{},\"steps\":{},\"failures\":{},\"compensations\":{},\"compensation_failures\":{}}}",
            self.registry.compose_executions,
            self.registry.compose_steps,
            self.registry.compose_failures,
            self.registry.compose_compensations,
            self.registry.compose_compensation_failures
        ));
        out.push_str(&format!(
            ",\"cache\":{{\"hits\":{},\"negative_hits\":{},\"misses\":{},\"evictions\":{},\"invalidations\":{},\"stale_serves\":{}}}}}",
            self.cache.hits,
            self.cache.negative_hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.invalidations,
            self.cache.stale_serves
        ));
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The §4.2 footprint model: what each protocol stack costs on 2002-era
/// appliance hardware, and what each device class can afford.
pub mod footprint {
    /// A protocol stack's resource appetite (order-of-magnitude figures
    /// from 2002-era embedded-TCP and HAVi/X10 implementations).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct StackProfile {
        /// Display name.
        pub name: &'static str,
        /// Code (flash/ROM) bytes.
        pub code_bytes: u32,
        /// Working RAM bytes.
        pub ram_bytes: u32,
    }

    /// A class of appliance hardware.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct DeviceClass {
        /// Display name.
        pub name: &'static str,
        /// Available code space.
        pub code_budget: u32,
        /// Available RAM.
        pub ram_budget: u32,
    }

    /// An X10 module's microcontroller (PIC-class).
    pub(super) const X10_MODULE: DeviceClass = DeviceClass {
        name: "x10-module",
        code_budget: 2_048,
        ram_budget: 128,
    };
    /// A sensor node / small appliance MCU.
    pub(super) const SENSOR_NODE: DeviceClass = DeviceClass {
        name: "sensor-node",
        code_budget: 65_536,
        ram_budget: 16_384,
    };
    /// A digital AV appliance (HAVi-class, 32-bit with some RAM).
    pub(super) const AV_APPLIANCE: DeviceClass = DeviceClass {
        name: "av-appliance",
        code_budget: 2_097_152,
        ram_budget: 524_288,
    };
    /// A set-top box / residential gateway.
    pub(super) const SET_TOP_BOX: DeviceClass = DeviceClass {
        name: "set-top-box",
        code_budget: 8_388_608,
        ram_budget: 8_388_608,
    };
    /// A PC.
    pub const PC: DeviceClass = DeviceClass {
        name: "pc",
        code_budget: u32::MAX,
        ram_budget: u32::MAX,
    };

    /// All device classes, smallest first.
    pub const DEVICE_CLASSES: [DeviceClass; 5] =
        [X10_MODULE, SENSOR_NODE, AV_APPLIANCE, SET_TOP_BOX, PC];

    /// X10 receiver logic: a code wheel and a latch.
    pub(super) const X10_STACK: StackProfile = StackProfile {
        name: "x10",
        code_bytes: 512,
        ram_bytes: 16,
    };
    /// An IEEE1394 link + HAVi messaging subset.
    pub(super) const HAVI_STACK: StackProfile = StackProfile {
        name: "havi-1394",
        code_bytes: 262_144,
        ram_bytes: 65_536,
    };
    /// UDP/IP + a SIP-subset parser.
    pub(super) const SIP_UDP_STACK: StackProfile = StackProfile {
        name: "sip-udp",
        code_bytes: 24_576,
        ram_bytes: 8_192,
    };
    /// TCP/IP + HTTP/1.1.
    pub(super) const TCP_HTTP_STACK: StackProfile = StackProfile {
        name: "tcp-http",
        code_bytes: 49_152,
        ram_bytes: 32_768,
    };
    /// TCP/IP + HTTP + XML parser + SOAP runtime (the full VSG stack).
    pub(super) const SOAP_STACK: StackProfile = StackProfile {
        name: "tcp-http-soap",
        code_bytes: 262_144,
        ram_bytes: 131_072,
    };
    /// The JVM-hosted Jini stack.
    pub(super) const JINI_STACK: StackProfile = StackProfile {
        name: "jvm-jini",
        code_bytes: 8_388_608,
        ram_bytes: 4_194_304,
    };

    /// All stacks, lightest first.
    pub const STACKS: [StackProfile; 6] = [
        X10_STACK,
        SIP_UDP_STACK,
        TCP_HTTP_STACK,
        HAVI_STACK,
        SOAP_STACK,
        JINI_STACK,
    ];

    impl DeviceClass {
        /// True if this device can host the stack.
        pub fn can_host(&self, stack: &StackProfile) -> bool {
            stack.code_bytes <= self.code_budget && stack.ram_bytes <= self.ram_budget
        }
    }
}

#[cfg(test)]
mod tests {
    use super::footprint::*;
    use super::*;

    #[test]
    fn latency_sketch_records_and_means() {
        let mut h = HistSketch::default();
        h.record(50);
        h.record(100);
        h.record(700);
        h.record(2_000_000);
        assert_eq!(h.count, 4);
        assert!((h.mean_us() - 500_212.5).abs() < 0.01);
        assert_eq!(h.min_us(), 50);
        assert_eq!(h.max_us(), 2_000_000);
    }

    #[test]
    fn merged_snapshots_sum_counters_and_sketches() {
        let a = MetricsRegistry::new();
        a.record_with_exemplar("lamp", 300, None, Some(TraceId(9)));
        a.record("lamp", 90, Some("unknown-operation"));
        a.record_breaker_transition("havi-gw", "open");
        a.set_replication_lag(1, 3);
        let b = MetricsRegistry::new();
        b.record_with_exemplar("vcr", 310, None, Some(TraceId(4)));
        b.record_breaker_transition("havi-gw", "closed");
        b.set_replication_lag(1, 7);

        let mut reg_a = a.snapshot();
        reg_a.layers[Layer::Wire.index()].record(200);
        let mut reg_b = b.snapshot();
        reg_b.layers[Layer::Wire.index()].record(220);
        let snap_a = MetricsSnapshot {
            gateway: "a".into(),
            island: 0,
            registry: reg_a,
            cache: CacheStats {
                hits: 2,
                ..CacheStats::default()
            },
        };
        let snap_b = MetricsSnapshot {
            gateway: "b".into(),
            island: 1,
            registry: reg_b,
            cache: CacheStats {
                hits: 3,
                ..CacheStats::default()
            },
        };
        let mut fleet = MetricsSnapshot::empty("fleet", 0);
        fleet.merge_from(&snap_a);
        fleet.merge_from(&snap_b);
        assert_eq!(fleet.gateway, "fleet");
        assert_eq!(fleet.registry.invocations, 3);
        assert_eq!(
            fleet.registry.errors,
            vec![("unknown-operation".to_owned(), 1)]
        );
        assert_eq!(
            fleet.registry.per_service,
            vec![("lamp".to_owned(), 2), ("vcr".to_owned(), 1)]
        );
        assert_eq!(fleet.registry.latency.count, 3);
        assert_eq!(fleet.registry.layer(Layer::Wire).count, 2);
        // both 300 and 310 land in the same power-of-two bucket: the
        // exemplar min-merges to the smaller trace id
        assert_eq!(
            fleet.registry.latency.exemplar(crate::obs::bucket_of(300)),
            Some(TraceId(4))
        );
        // disagreeing breaker gauges collapse to "mixed"
        assert_eq!(
            fleet.registry.breakers,
            vec![("havi-gw".to_owned(), "mixed".to_owned())]
        );
        // replication lag keeps the worst shard value
        assert_eq!(fleet.registry.replication_lag, vec![(1, 7)]);
        assert_eq!(fleet.cache.hits, 5);
        // merge order does not matter
        let mut other = MetricsSnapshot::empty("fleet", 0);
        other.merge_from(&snap_b);
        other.merge_from(&snap_a);
        assert_eq!(fleet.to_json(), other.to_json());
    }

    #[test]
    fn registry_counts_invocations_errors_and_services() {
        let reg = MetricsRegistry::new();
        reg.record("lamp", 120, None);
        reg.record("lamp", 90, Some("unknown-operation"));
        reg.record("vcr", 4_000, Some("unknown-operation"));
        let snap = reg.snapshot();
        assert_eq!(snap.invocations, 3);
        assert_eq!(snap.errors, vec![("unknown-operation".to_owned(), 2)]);
        assert_eq!(
            snap.per_service,
            vec![("lamp".to_owned(), 2), ("vcr".to_owned(), 1)]
        );
        assert_eq!(snap.latency.count, 3);
    }

    #[test]
    fn queue_wait_is_tracked_separately_from_latency() {
        let reg = MetricsRegistry::new();
        reg.record("lamp", 120, None);
        reg.record_queue_wait(1_500);
        reg.record_queue_wait(40);
        let snap = reg.snapshot();
        assert_eq!(snap.latency.count, 1);
        assert_eq!(snap.queue_wait.count, 2);
        assert!((snap.queue_wait.mean_us() - 770.0).abs() < f64::EPSILON);
        let json = MetricsSnapshot {
            gateway: "gw".into(),
            island: 0,
            registry: snap,
            cache: CacheStats::default(),
        }
        .to_json();
        assert!(json.contains("\"queue_wait\":{"), "{json}");
        assert!(json.contains("\"mean_us\":770.0"), "{json}");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn registry_tracks_resilience_events() {
        let reg = MetricsRegistry::new();
        reg.record_retry();
        reg.record_retry();
        reg.record_degraded_serve();
        reg.record_breaker_transition("havi-gw", "open");
        reg.record_breaker_transition("havi-gw", "half-open");
        reg.record_breaker_transition("jini-gw", "open");
        let snap = reg.snapshot();
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.degraded_serves, 1);
        assert_eq!(snap.breaker_transitions, 3);
        assert_eq!(
            snap.breakers,
            vec![
                ("havi-gw".to_owned(), "half-open".to_owned()),
                ("jini-gw".to_owned(), "open".to_owned()),
            ]
        );
        let json = MetricsSnapshot {
            gateway: "soap-gw".into(),
            island: 0,
            registry: snap,
            cache: CacheStats::default(),
        }
        .to_json();
        for needle in [
            "\"retries\":2",
            "\"degraded_serves\":1",
            "\"breaker_transitions\":3",
            "\"havi-gw\":\"half-open\"",
            "\"stale_serves\":0",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn registry_tracks_federation_events() {
        let reg = MetricsRegistry::new();
        reg.record_shard_op(0);
        reg.record_shard_op(3);
        reg.record_shard_op(3);
        reg.record_vsr_failover();
        reg.record_shard_map_refresh();
        reg.record_shard_map_refresh();
        reg.set_replication_lag(3, 7);
        reg.set_replication_lag(3, 0); // gauge: latest value wins
        let snap = reg.snapshot();
        assert_eq!(snap.shard_ops, vec![(0, 1), (3, 2)]);
        assert_eq!(snap.vsr_failovers, 1);
        assert_eq!(snap.shard_map_refreshes, 2);
        assert_eq!(snap.replication_lag, vec![(3, 0)]);
        let json = MetricsSnapshot {
            gateway: "jini-gw".into(),
            island: 0,
            registry: snap,
            cache: CacheStats::default(),
        }
        .to_json();
        for needle in [
            "\"federation\":{",
            "\"vsr_failovers\":1",
            "\"shard_map_refreshes\":2",
            "\"shard_ops\":{\"0\":1,\"3\":2}",
            "\"replication_lag\":{\"3\":0}",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let reg = MetricsRegistry::new();
        reg.record("hall-lamp", 300, Some("type-mismatch"));
        let snap = MetricsSnapshot {
            gateway: "x10-gw".into(),
            island: 0,
            registry: reg.snapshot(),
            cache: CacheStats {
                hits: 5,
                ..CacheStats::default()
            },
        };
        let json = snap.to_json();
        for needle in [
            "\"gateway\":\"x10-gw\"",
            "\"invocations\":1",
            "\"type-mismatch\":1",
            "\"hall-lamp\":1",
            "\"latency\":{\"count\":1",
            "\"buckets\":{\"9\":1}",
            "\"layers\":{\"app\":",
            "\"hits\":5",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // Well-formed enough for a JSON parser: balanced braces.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn x10_module_cannot_host_tcp() {
        // The paper's core E7 claim, as data.
        assert!(X10_MODULE.can_host(&X10_STACK));
        assert!(!X10_MODULE.can_host(&TCP_HTTP_STACK));
        assert!(!X10_MODULE.can_host(&SIP_UDP_STACK));
        assert!(!SENSOR_NODE.can_host(&SOAP_STACK));
        assert!(
            SENSOR_NODE.can_host(&SIP_UDP_STACK),
            "SIP/UDP fits where SOAP cannot"
        );
        assert!(AV_APPLIANCE.can_host(&HAVI_STACK));
        assert!(
            !AV_APPLIANCE.can_host(&JINI_STACK),
            "no JVM on an AV appliance"
        );
        assert!(SET_TOP_BOX.can_host(&SOAP_STACK));
        assert!(PC.can_host(&JINI_STACK));
    }

    #[test]
    fn stack_ordering_is_monotone() {
        for w in STACKS.windows(2) {
            assert!(
                w[0].code_bytes <= w[1].code_bytes,
                "{} should be lighter than {}",
                w[0].name,
                w[1].name
            );
        }
    }
}
