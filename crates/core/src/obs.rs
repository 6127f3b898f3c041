//! Fleet-scale observability plane: the one instrumentation point
//! ([`Scope`]), mergeable latency sketches, deterministic trace
//! sampling with a bounded flight recorder, and text/JSONL exporters.
//!
//! PR-2 built per-gateway observability for *one* home: full
//! histograms, full span trees. At fleet scale (10k+ homes on
//! [`crate::fleet::HomeFleet`]) that is unusable — aggregation must
//! cost O(buckets), not O(samples), and trace volume must be bounded
//! without losing the traces that matter. Three rules govern
//! everything in this module:
//!
//! 1. **Mergeable, not raw.** [`HistSketch`] is a log-bucketed sketch
//!    with *fixed* power-of-two bucket boundaries, so merging two
//!    sketches is exact bucket-wise addition — associative,
//!    commutative, and O(buckets). Quantiles read off the bucket
//!    upper bound, so the reported value is never below the exact
//!    quantile and never more than one bucket (2×) above it.
//! 2. **Deterministic on virtual time.** Head sampling hashes the
//!    [`TraceId`] (itself a pure function of island event order), so
//!    the kept set is identical for `SIM_THREADS=1` and `N`. Exemplar
//!    trace ids merge by *minimum*, which is order-independent.
//! 3. **Never drop the interesting traces.** Tail-keep rules override
//!    head sampling: any trace containing an error span or a
//!    resilience decision (retry/breaker/deadline/degraded) is always
//!    kept, and the top-slow traces of each harvest are kept even
//!    when head-sampled out.

use crate::error::MetaError;
use crate::metrics::MetricsRegistry;
use crate::trace::{HopKind, Span, SpanHandle, TraceId, Tracer};
use simnet::{Network, Sim, SimTime};
use std::collections::VecDeque;
use std::fmt::{self, Write as _};

/// Number of log2 buckets in a [`HistSketch`]. Bucket `i` holds
/// samples whose microsecond value fits in `i` bits, i.e. the bucket
/// upper bound is `2^i - 1` µs; the last bucket is an overflow slot.
/// 32 buckets cover 0 µs … ~35 virtual minutes per sample, far beyond
/// any single invocation in the simulation.
const SKETCH_BUCKETS: usize = 32;

/// Sentinel meaning "no exemplar recorded for this bucket".
const NO_EXEMPLAR: u64 = u64::MAX;

/// A deterministic log-bucketed mergeable latency sketch.
///
/// Bucket boundaries are fixed powers of two (`bucket i` ⇔ values
/// `< 2^i` µs), so two sketches recorded on different homes merge by
/// bucket-wise addition with no approximation beyond the original
/// bucketing. Each bucket optionally carries an *exemplar*: the
/// smallest raw [`TraceId`] observed in that bucket, linking a slow
/// bucket in a fleet-merged snapshot back to one concrete kept trace.
/// Min-merge keeps exemplars associative and commutative too.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HistSketch {
    counts: [u64; SKETCH_BUCKETS],
    exemplars: [u64; SKETCH_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    total_us: u64,
    min_us: u64,
    max_us: u64,
}

impl Default for HistSketch {
    fn default() -> Self {
        HistSketch {
            counts: [0; SKETCH_BUCKETS],
            exemplars: [NO_EXEMPLAR; SKETCH_BUCKETS],
            count: 0,
            total_us: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }
}

/// The bucket index a microsecond value falls into: the number of
/// bits needed to write it, clamped to the overflow bucket.
pub fn bucket_of(us: u64) -> usize {
    ((64 - us.leading_zeros()) as usize).min(SKETCH_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` in microseconds.
fn bucket_bound_us(i: usize) -> u64 {
    if i >= SKETCH_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl HistSketch {
    /// An empty sketch.
    pub fn new() -> HistSketch {
        HistSketch::default()
    }

    /// Records one sample without an exemplar.
    pub fn record(&mut self, us: u64) {
        self.record_with_exemplar(us, None);
    }

    /// Records one sample, attaching `trace` as the bucket exemplar
    /// if it is the smallest trace id seen in that bucket so far.
    pub fn record_with_exemplar(&mut self, us: u64, trace: Option<TraceId>) {
        let b = bucket_of(us);
        self.counts[b] += 1;
        self.count += 1;
        self.total_us += us;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
        if let Some(t) = trace {
            if t.0 < self.exemplars[b] {
                self.exemplars[b] = t.0;
            }
        }
    }

    /// Exact merge: bucket-wise addition, min/max folds, min-merge of
    /// exemplars. Associative and commutative (see proptests).
    pub fn merge(&mut self, other: &HistSketch) {
        for i in 0..SKETCH_BUCKETS {
            self.counts[i] += other.counts[i];
            self.exemplars[i] = self.exemplars[i].min(other.exemplars[i]);
        }
        self.count += other.count;
        self.total_us += other.total_us;
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Mean in microseconds (0.0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min_us(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_us
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Quantile estimate: the upper bound of the bucket holding the
    /// nearest-rank sample. Never below the exact value, never more
    /// than one bucket (a factor of two) above it. `q` is clamped to
    /// `[0, 1]`; returns 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // nearest-rank: smallest rank ≥ q·count, at least 1
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // the true sample is ≤ the bucket bound and ≤ max
                return bucket_bound_us(i).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Exemplar trace id for bucket `i`, if one was recorded.
    pub fn exemplar(&self, i: usize) -> Option<TraceId> {
        if self.exemplars[i] == NO_EXEMPLAR {
            None
        } else {
            Some(TraceId(self.exemplars[i]))
        }
    }

    /// Non-empty buckets as `(index, count)`, ascending.
    fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Compact JSON object: sparse sorted buckets, exemplars as hex
    /// trace ids, count/mean/min/max. Bit-stable under merge order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"count\":");
        let _ = write!(out, "{}", self.count);
        let _ = write!(out, ",\"mean_us\":{:.1}", self.mean_us());
        let _ = write!(out, ",\"min_us\":{}", self.min_us());
        let _ = write!(out, ",\"max_us\":{}", self.max_us);
        out.push_str(",\"buckets\":{");
        for (n, (i, c)) in self.nonzero().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{i}\":{c}");
        }
        out.push_str("},\"exemplars\":{");
        let mut first = true;
        for i in 0..SKETCH_BUCKETS {
            if let Some(t) = self.exemplar(i) {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{i}\":\"{t}\"");
            }
        }
        out.push_str("}}");
        out
    }
}

/// Latency attribution layers, matching the paper's §3 architecture:
/// VSR lookup, VSG wire transfer, PCM conversion, the application
/// body, and composite pipeline steps. Fed only by child [`Scope`]s,
/// through [`Layer::of`]. Layers are *views* — PCM time is spent
/// inside the app body on the serving side, so layer sums may exceed
/// end-to-end latency.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// Virtual service repository lookups (directory round trips).
    Vsr,
    /// VSG↔VSG wire calls (marshalling + transport + demux).
    Wire,
    /// Protocol conversion inside a pseudo-communication module.
    Pcm,
    /// The application/service body on the serving gateway.
    App,
    /// One pipeline step run by the composition engine (forward or
    /// compensating) on the gateway hosting the composite.
    Compose,
}

/// All layers in canonical (emission) order.
pub const LAYERS: [Layer; 5] = [
    Layer::App,
    Layer::Pcm,
    Layer::Vsr,
    Layer::Wire,
    Layer::Compose,
];

impl Layer {
    /// Stable lowercase label used in JSON and exporter output.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Vsr => "vsr",
            Layer::Wire => "wire",
            Layer::Pcm => "pcm",
            Layer::App => "app",
            Layer::Compose => "compose",
        }
    }

    /// Dense index into per-layer arrays.
    pub fn index(self) -> usize {
        match self {
            Layer::App => 0,
            Layer::Pcm => 1,
            Layer::Vsr => 2,
            Layer::Wire => 3,
            Layer::Compose => 4,
        }
    }

    /// The sketch a child [`Scope`] of `kind` feeds: the one
    /// `HopKind → Layer` table. The other kinds cover whole calls,
    /// cache answers, inbound dispatch, events, and resilience,
    /// federation and cloud decisions; they record spans only.
    pub fn of(kind: HopKind) -> Option<Layer> {
        match kind {
            HopKind::VsrLookup => Some(Layer::Vsr),
            HopKind::VsgWire => Some(Layer::Wire),
            HopKind::PcmConvert => Some(Layer::Pcm),
            HopKind::App => Some(Layer::App),
            HopKind::Compose => Some(Layer::Compose),
            _ => None,
        }
    }
}

/// One instrumented hop of the §3 call path. Opening a scope opens the
/// hop's span; finishing it with the hop's result, or dropping it,
/// closes the span with the error and the bytes charged via
/// [`Scope::bytes_from`], and — for a child scope whose kind has a
/// [`Layer::of`] — records the hop's virtual time into that layer's
/// sketch with the trace id as exemplar.
///
/// Root scopes cover work arriving from outside the framework (bridge
/// calls, polls, cloud frames) and never feed a sketch; neither do
/// [`Tracer::note`] instants. While tracing is off a scope runs no
/// name closure, reads no byte counter and allocates nothing.
#[must_use = "a scope records its hop when finished or dropped"]
pub struct Scope<'a> {
    sim: &'a Sim,
    tracer: &'a Tracer,
    metrics: &'a MetricsRegistry,
    layer: Option<Layer>,
    span: SpanHandle,
    started: SimTime,
    charge: Option<(&'a Network, u64)>,
}

impl<'a> Scope<'a> {
    /// Opens a hop as a child of the innermost open span (a new trace
    /// if none is open). `name` runs only while tracing is on.
    pub fn child(
        sim: &'a Sim,
        tracer: &'a Tracer,
        metrics: &'a MetricsRegistry,
        kind: HopKind,
        name: impl FnOnce() -> String,
    ) -> Scope<'a> {
        let span = tracer.begin(sim, kind, name);
        Scope::open(sim, tracer, metrics, Layer::of(kind), span)
    }

    /// Opens a hop that starts a fresh trace even if a span is open:
    /// for work arriving from outside any in-flight framework call.
    pub fn root(
        sim: &'a Sim,
        tracer: &'a Tracer,
        metrics: &'a MetricsRegistry,
        kind: HopKind,
        name: impl FnOnce() -> String,
    ) -> Scope<'a> {
        let span = tracer.begin_root(sim, kind, name);
        Scope::open(sim, tracer, metrics, None, span)
    }

    fn open(
        sim: &'a Sim,
        tracer: &'a Tracer,
        metrics: &'a MetricsRegistry,
        layer: Option<Layer>,
        span: SpanHandle,
    ) -> Scope<'a> {
        Scope {
            sim,
            tracer,
            metrics,
            layer,
            span,
            started: sim.now(),
            charge: None,
        }
    }

    /// Charges the span with the bytes `net` delivers until the scope
    /// closes. The counter is read only while traced.
    pub fn bytes_from(mut self, net: &'a Network) -> Scope<'a> {
        if self.span.trace_id().is_some() {
            self.charge = Some((net, delivered_bytes(net)));
        }
        self
    }

    /// The trace this hop belongs to (`None` while tracing is off).
    pub fn trace_id(&self) -> Option<TraceId> {
        self.span.trace_id()
    }

    /// The bytes charged so far, after which the scope charges none:
    /// for a hop that hands its bytes on to [`Tracer::note`] instants.
    pub(crate) fn take_bytes(&mut self) -> u64 {
        self.charge.take().map_or(0, |(net, before)| {
            delivered_bytes(net).saturating_sub(before)
        })
    }

    /// Closes the hop with `result`'s error (formatted only while
    /// traced).
    pub fn finish<T, E: fmt::Display>(mut self, result: &Result<T, E>) {
        let error = match result {
            Err(e) if self.span.trace_id().is_some() => Some(e.to_string()),
            _ => None,
        };
        self.close(error);
    }

    /// [`Scope::finish`] for one invocation of `service`: also records
    /// the gateway's invocation counters and end-to-end latency sketch,
    /// with the trace id as exemplar.
    pub fn finish_invocation<T>(self, service: &str, result: &Result<T, MetaError>) {
        self.metrics.record_with_exemplar(
            service,
            (self.sim.now() - self.started).as_micros(),
            result.as_ref().err().map(MetaError::kind),
            self.trace_id(),
        );
        self.finish(result);
    }

    fn close(&mut self, error: Option<String>) {
        if let Some(layer) = self.layer.take() {
            let elapsed_us = (self.sim.now() - self.started).as_micros();
            self.metrics
                .record_layer(layer, elapsed_us, self.span.trace_id());
        }
        let bytes = self.take_bytes();
        let span = std::mem::replace(&mut self.span, SpanHandle::inert());
        self.tracer.end_with(self.sim, span, bytes, error);
    }
}

impl Drop for Scope<'_> {
    /// Closes a scope that was not finished, with no error.
    fn drop(&mut self) {
        self.close(None);
    }
}

fn delivered_bytes(net: &Network) -> u64 {
    net.with_stats(|s| s.total().bytes)
}

/// Sampling and retention policy for the [`FlightRecorder`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SamplePolicy {
    /// Head-sampling rate out of 10 000, decided by a deterministic
    /// hash of the trace id: 10 000 keeps every trace, 100 keeps ~1%.
    pub head_per_10k: u32,
    /// How many of the slowest traces each harvest keeps even when
    /// head sampling would drop them.
    pub top_slow: usize,
    /// Ring capacity: kept traces beyond this evict the oldest
    /// non-error trace first, then the oldest outright.
    pub capacity: usize,
}

impl Default for SamplePolicy {
    fn default() -> Self {
        SamplePolicy {
            head_per_10k: 10_000,
            top_slow: 4,
            capacity: 256,
        }
    }
}

impl SamplePolicy {
    /// Keep every trace (the default).
    #[cfg(test)]
    fn keep_all() -> SamplePolicy {
        SamplePolicy::default()
    }

    /// Head-sample at `per_10k` out of 10 000 with default tail rules.
    pub fn sampled(per_10k: u32) -> SamplePolicy {
        SamplePolicy {
            head_per_10k: per_10k,
            ..SamplePolicy::default()
        }
    }

    /// The deterministic head-sampling decision for a trace id: a
    /// SplitMix64 finalizer over the raw id, reduced mod 10 000. Pure
    /// function of the id, so identical across thread counts.
    fn head_keep(&self, trace: TraceId) -> bool {
        if self.head_per_10k >= 10_000 {
            return true;
        }
        let mut z = trace.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % 10_000) < u64::from(self.head_per_10k)
    }
}

/// Why a trace survived sampling, in priority order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum KeepReason {
    /// At least one span carried an error.
    Error,
    /// A resilience decision (retry/breaker/deadline/degraded) fired.
    Resilience,
    /// Among the slowest traces of its harvest.
    Slow,
    /// Head-sampled in by the trace-id hash.
    Head,
}

impl KeepReason {
    /// Stable lowercase label for exports.
    pub fn label(self) -> &'static str {
        match self {
            KeepReason::Error => "error",
            KeepReason::Resilience => "resilience",
            KeepReason::Slow => "slow",
            KeepReason::Head => "head",
        }
    }
}

/// One trace retained by the flight recorder: the full span set plus
/// the reason it was kept.
#[derive(Clone, Debug)]
pub struct KeptTrace {
    /// The trace id.
    pub trace: TraceId,
    /// Why it survived sampling.
    pub reason: KeepReason,
    /// Every span of the trace, in recording order.
    pub spans: Vec<Span>,
}

impl KeptTrace {
    /// End-to-end duration: latest span end minus earliest start.
    pub fn elapsed_us(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start.as_micros()).min();
        let end = self.spans.iter().map(|s| s.end.as_micros()).max();
        match (start, end) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        }
    }

    /// Name of the root span (first span with no parent, else the
    /// first span).
    pub fn root_name(&self) -> &str {
        self.spans
            .iter()
            .find(|s| s.parent.is_none())
            .or_else(|| self.spans.first())
            .map(|s| s.name.as_str())
            .unwrap_or("")
    }

    /// True when any span carries an error.
    pub fn has_error(&self) -> bool {
        self.spans.iter().any(|s| s.error.is_some())
    }
}

/// Counters describing what a [`FlightRecorder`] has done so far.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct RecorderStats {
    /// Traces offered to the recorder across all harvests.
    pub seen: u64,
    /// Traces retained (before any ring eviction).
    pub kept: u64,
    /// Traces dropped by head sampling (no tail rule fired).
    pub sampled_out: u64,
    /// Kept traces later evicted by ring overflow.
    pub evicted: u64,
}

/// A bounded ring buffer of sampled traces.
///
/// Spans are recorded normally by the per-gateway tracers; `harvest`
/// drains them, groups by trace, applies head sampling + tail-keep
/// rules, and retains survivors. Every decision is a pure function of
/// the (deterministic) span data, so the kept set is identical across
/// thread counts.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    policy: SamplePolicy,
    ring: VecDeque<KeptTrace>,
    stats: RecorderStats,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(SamplePolicy::default())
    }
}

impl FlightRecorder {
    /// A recorder with the given policy.
    pub fn new(policy: SamplePolicy) -> FlightRecorder {
        FlightRecorder {
            policy,
            ring: VecDeque::new(),
            stats: RecorderStats::default(),
        }
    }

    /// Replaces the sampling policy (existing kept traces stay).
    pub fn set_policy(&mut self, policy: SamplePolicy) {
        self.policy = policy;
    }

    /// The current policy.
    pub fn policy(&self) -> SamplePolicy {
        self.policy
    }

    /// Counters so far.
    pub fn stats(&self) -> RecorderStats {
        self.stats
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Groups `spans` by trace, applies sampling, retains survivors.
    ///
    /// Tail-keep overrides head sampling: error traces and
    /// resilience-decision traces are always kept, and the
    /// `top_slow` slowest traces of this harvest are kept (slowest
    /// first by duration, ties broken by smaller trace id).
    pub fn harvest(&mut self, spans: Vec<Span>) {
        // group by trace in first-appearance order (deterministic:
        // span order is island event order)
        let mut order: Vec<TraceId> = Vec::new();
        let mut groups: Vec<Vec<Span>> = Vec::new();
        for span in spans {
            match order.iter().position(|&t| t == span.trace) {
                Some(i) => groups[i].push(span),
                None => {
                    order.push(span.trace);
                    groups.push(vec![span]);
                }
            }
        }
        let mut candidates: Vec<KeptTrace> = order
            .into_iter()
            .zip(groups)
            .map(|(trace, spans)| KeptTrace {
                trace,
                reason: KeepReason::Head,
                spans,
            })
            .collect();
        self.stats.seen += candidates.len() as u64;

        // tail rules + head decision per trace
        let mut keep: Vec<bool> = Vec::with_capacity(candidates.len());
        for t in &mut candidates {
            if t.has_error() {
                t.reason = KeepReason::Error;
                keep.push(true);
            } else if t.spans.iter().any(|s| s.kind == HopKind::Resilience) {
                t.reason = KeepReason::Resilience;
                keep.push(true);
            } else if self.policy.head_keep(t.trace) {
                t.reason = KeepReason::Head;
                keep.push(true);
            } else {
                keep.push(false);
            }
        }
        // top-slow rescue among the head-dropped
        if self.policy.top_slow > 0 {
            let mut dropped: Vec<(u64, u64, usize)> = candidates
                .iter()
                .enumerate()
                .filter(|(i, _)| !keep[*i])
                .map(|(i, t)| (t.elapsed_us(), t.trace.0, i))
                .collect();
            dropped.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            for &(_, _, i) in dropped.iter().take(self.policy.top_slow) {
                candidates[i].reason = KeepReason::Slow;
                keep[i] = true;
            }
        }

        for (t, k) in candidates.into_iter().zip(keep) {
            if !k {
                self.stats.sampled_out += 1;
                continue;
            }
            self.stats.kept += 1;
            self.push(t);
        }
    }

    fn push(&mut self, t: KeptTrace) {
        while self.ring.len() >= self.policy.capacity.max(1) {
            // evict the oldest non-error trace first, else the oldest
            let victim = self
                .ring
                .iter()
                .position(|k| k.reason != KeepReason::Error)
                .unwrap_or(0);
            self.ring.remove(victim);
            self.stats.evicted += 1;
        }
        self.ring.push_back(t);
    }

    /// Removes and returns every kept trace, oldest first.
    pub fn drain(&mut self) -> Vec<KeptTrace> {
        self.ring.drain(..).collect()
    }

    /// The kept traces, oldest first, without draining.
    pub fn kept(&self) -> impl Iterator<Item = &KeptTrace> {
        self.ring.iter()
    }
}

fn esc(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders metrics snapshots as OpenMetrics-style text: one `# TYPE`
/// line per family, sorted label sets, terminated by `# EOF`.
/// Deterministic given the snapshot order (use island order).
pub fn openmetrics(snaps: &[crate::metrics::MetricsSnapshot]) -> String {
    let mut out = String::new();
    out.push_str("# TYPE meta_invocations_total counter\n");
    for s in snaps {
        let _ = writeln!(
            out,
            "meta_invocations_total{{gateway=\"{}\",island=\"{}\"}} {}",
            s.gateway, s.island, s.registry.invocations
        );
    }
    out.push_str("# TYPE meta_errors_total counter\n");
    for s in snaps {
        for (kind, n) in &s.registry.errors {
            let _ = writeln!(
                out,
                "meta_errors_total{{gateway=\"{}\",island=\"{}\",kind=\"{}\"}} {}",
                s.gateway, s.island, kind, n
            );
        }
    }
    out.push_str("# TYPE meta_latency_us gauge\n");
    for s in snaps {
        for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
            let _ = writeln!(
                out,
                "meta_latency_us{{gateway=\"{}\",island=\"{}\",quantile=\"{}\"}} {}",
                s.gateway,
                s.island,
                label,
                s.registry.latency.quantile_us(q)
            );
        }
    }
    out.push_str("# TYPE meta_layer_latency_us gauge\n");
    for s in snaps {
        for layer in LAYERS {
            let sk = s.registry.layer(layer);
            if sk.count == 0 {
                continue;
            }
            for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "meta_layer_latency_us{{gateway=\"{}\",island=\"{}\",layer=\"{}\",quantile=\"{}\"}} {}",
                    s.gateway,
                    s.island,
                    layer.label(),
                    label,
                    sk.quantile_us(q)
                );
            }
        }
    }
    out.push_str("# TYPE meta_cache_hits_total counter\n");
    for s in snaps {
        let _ = writeln!(
            out,
            "meta_cache_hits_total{{gateway=\"{}\",island=\"{}\"}} {}",
            s.gateway, s.island, s.cache.hits
        );
    }
    out.push_str("# TYPE meta_retries_total counter\n");
    for s in snaps {
        let _ = writeln!(
            out,
            "meta_retries_total{{gateway=\"{}\",island=\"{}\"}} {}",
            s.gateway, s.island, s.registry.retries
        );
    }
    out.push_str("# EOF\n");
    out
}

/// One JSON line per snapshot followed by one per kept trace — the
/// structured event log consumed by external pipelines. Deterministic
/// given snapshot and trace order (use island order).
pub fn events_jsonl(snaps: &[crate::metrics::MetricsSnapshot], kept: &[KeptTrace]) -> String {
    let mut out = String::new();
    for s in snaps {
        let _ = writeln!(out, "{{\"event\":\"snapshot\",\"data\":{}}}", s.to_json());
    }
    for t in kept {
        let _ = write!(
            out,
            "{{\"event\":\"trace\",\"trace\":\"{}\",\"reason\":\"{}\",\"elapsed_us\":{},\"root\":\"",
            t.trace,
            t.reason.label(),
            t.elapsed_us()
        );
        esc(t.root_name(), &mut out);
        out.push_str("\",\"spans\":[");
        for (i, s) in t.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"kind\":\"{:?}\",\"name\":\"", s.kind);
            esc(&s.name, &mut out);
            let _ = write!(
                out,
                "\",\"gateway\":\"{}\",\"start_us\":{},\"end_us\":{},\"bytes\":{}",
                s.gateway,
                s.start.as_micros(),
                s.end.as_micros(),
                s.bytes
            );
            if let Some(e) = &s.error {
                out.push_str(",\"error\":\"");
                esc(e, &mut out);
                out.push('"');
            }
            out.push('}');
        }
        out.push_str("]}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanId;
    use simnet::SimTime;

    fn span(trace: u64, id: u64, start: u64, end: u64, err: Option<&str>, kind: HopKind) -> Span {
        Span {
            trace: TraceId(trace),
            id: SpanId(id),
            parent: None,
            kind,
            name: format!("s{id}"),
            gateway: "gw".into(),
            start: SimTime::from_micros(start),
            end: SimTime::from_micros(end),
            bytes: 0,
            error: err.map(|e| e.to_string()),
        }
    }

    #[test]
    fn bucketing_is_monotone_and_bounded() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), SKETCH_BUCKETS - 1);
        for us in [0u64, 1, 7, 100, 4096, 1_000_000] {
            assert!(us <= bucket_bound_us(bucket_of(us)));
        }
    }

    #[test]
    fn quantile_within_one_bucket_of_exact() {
        let mut sk = HistSketch::new();
        let mut samples: Vec<u64> = (1..=100u64).map(|i| i * 37).collect();
        for &s in &samples {
            sk.record(s);
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
            let exact = samples[rank - 1];
            let est = sk.quantile_us(q);
            assert!(est >= exact, "q{q}: est {est} < exact {exact}");
            assert!(est <= exact * 2, "q{q}: est {est} > 2×exact {exact}");
        }
    }

    #[test]
    fn merge_adds_buckets_and_min_merges_exemplars() {
        let mut a = HistSketch::new();
        let mut b = HistSketch::new();
        a.record_with_exemplar(100, Some(TraceId(9)));
        b.record_with_exemplar(100, Some(TraceId(3)));
        b.record(5000);
        let mut ab = a;
        ab.merge(&b);
        assert_eq!(ab.count, 3);
        assert_eq!(ab.exemplar(bucket_of(100)), Some(TraceId(3)));
        assert_eq!(ab.min_us(), 100);
        assert_eq!(ab.max_us(), 5000);
        // commutes
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn empty_sketch_json_is_stable() {
        let sk = HistSketch::new();
        assert_eq!(
            sk.to_json(),
            "{\"count\":0,\"mean_us\":0.0,\"min_us\":0,\"max_us\":0,\"buckets\":{},\"exemplars\":{}}"
        );
    }

    #[test]
    fn head_sampling_is_a_pure_function_of_the_id() {
        let p = SamplePolicy::sampled(100);
        let kept: Vec<u64> = (0..10_000u64)
            .filter(|&i| p.head_keep(TraceId(i)))
            .collect();
        // ~1% pass rate, exactly reproducible
        assert!(kept.len() > 50 && kept.len() < 200, "kept {}", kept.len());
        let again: Vec<u64> = (0..10_000u64)
            .filter(|&i| p.head_keep(TraceId(i)))
            .collect();
        assert_eq!(kept, again);
        assert!(SamplePolicy::keep_all().head_keep(TraceId(42)));
    }

    #[test]
    fn tail_rules_override_head_sampling() {
        let p = SamplePolicy {
            head_per_10k: 0,
            top_slow: 1,
            capacity: 16,
        };
        let mut fr = FlightRecorder::new(p);
        fr.harvest(vec![
            span(1, 1, 0, 10, Some("boom"), HopKind::App),
            span(2, 2, 0, 99, None, HopKind::App),
            span(3, 3, 0, 5, None, HopKind::App),
            span(4, 4, 0, 7, None, HopKind::Resilience),
        ]);
        let kept = fr.drain();
        let ids: Vec<u64> = kept.iter().map(|k| k.trace.0).collect();
        assert_eq!(ids, vec![1, 2, 4]);
        assert_eq!(kept[0].reason, KeepReason::Error);
        assert_eq!(kept[1].reason, KeepReason::Slow);
        assert_eq!(kept[2].reason, KeepReason::Resilience);
        let st = fr.stats();
        assert_eq!(st.seen, 4);
        assert_eq!(st.kept, 3);
        assert_eq!(st.sampled_out, 1);
    }

    #[test]
    fn ring_overflow_evicts_oldest_non_error_first() {
        let p = SamplePolicy {
            head_per_10k: 10_000,
            top_slow: 0,
            capacity: 2,
        };
        let mut fr = FlightRecorder::new(p);
        fr.harvest(vec![
            span(1, 1, 0, 10, Some("err"), HopKind::App),
            span(2, 2, 0, 10, None, HopKind::App),
            span(3, 3, 0, 10, None, HopKind::App),
        ]);
        let kept = fr.drain();
        let ids: Vec<u64> = kept.iter().map(|k| k.trace.0).collect();
        // trace 2 (oldest non-error) evicted to admit 3
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(fr.stats().evicted, 1);
    }
}
