//! Deterministic fault injection over virtual time.
//!
//! A [`FaultPlan`] is a script of fault windows — loss spikes, latency
//! spikes, node crashes, partitions — each active over a half-open
//! virtual-time range `[from, until)`. Plans are pure data: the network
//! consults the plan at each send/request against the current virtual
//! clock, so the same seed and the same plan always produce the same
//! failure sequence, with no background machinery to pump. Attach a plan
//! with [`crate::Network::set_fault_plan`]; heal everything at once with
//! [`crate::Network::clear_fault_plan`] or just run past
//! [`FaultPlan::healed_by`].

use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// What one fault window does while it is active.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Extra frame-loss probability, compounded with the link's own
    /// loss rate.
    Loss {
        /// Probability in `[0, 1]` that any frame is dropped.
        prob: f64,
    },
    /// Extra one-way latency added to every transfer.
    Latency {
        /// The added delay per leg.
        extra: SimDuration,
    },
    /// One node has crashed: it can neither send nor be reached. The
    /// node "restarts" when the window closes.
    NodeDown {
        /// The crashed node.
        node: NodeId,
    },
    /// The medium is split: traffic between the `left` and `right`
    /// groups fails in both directions. Traffic within a group is
    /// unaffected.
    Partition {
        /// One side of the split.
        left: Vec<NodeId>,
        /// The other side.
        right: Vec<NodeId>,
    },
    /// At-least-once delivery: any delivered frame (or request) may be
    /// delivered *again*. Delivery-leg-aware like [`FaultKind::Loss`]:
    /// a duplicated request leg re-invokes the receiving handler, the
    /// WAN failure mode that makes idempotency mandatory.
    Duplicate {
        /// Probability in `[0, 1]` that a delivered frame arrives twice.
        prob: f64,
    },
    /// Out-of-order delivery: each delivery is delayed by an extra
    /// amount drawn uniformly from `[0, window)`, so frames sent close
    /// together may arrive transposed.
    Reorder {
        /// The maximum extra per-delivery delay.
        window: SimDuration,
    },
}

/// One scheduled fault: a [`FaultKind`] active over `[from, until)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindow {
    /// First instant the fault is active.
    pub from: SimTime,
    /// First instant the fault is healed again.
    pub until: SimTime,
    /// The fault itself.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Whether this window is active at `now`.
    fn active_at(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }
}

/// A seed-deterministic script of fault windows.
///
/// Windows may overlap freely; effects compose (latencies add, loss
/// probabilities compound, any matching crash or partition blocks).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds an arbitrary window (builder style).
    pub fn window(mut self, from: SimTime, until: SimTime, kind: FaultKind) -> FaultPlan {
        self.windows.push(FaultWindow { from, until, kind });
        self
    }

    /// Schedules a frame-loss spike of probability `prob` over
    /// `[from, until)`.
    pub fn loss_spike(self, from: SimTime, until: SimTime, prob: f64) -> FaultPlan {
        self.window(from, until, FaultKind::Loss { prob })
    }

    /// Schedules `extra` one-way latency on every transfer over
    /// `[from, until)`.
    pub fn latency_spike(self, from: SimTime, until: SimTime, extra: SimDuration) -> FaultPlan {
        self.window(from, until, FaultKind::Latency { extra })
    }

    /// Crashes `node` over `[from, until)`; it restarts at `until`.
    pub fn node_down(self, node: NodeId, from: SimTime, until: SimTime) -> FaultPlan {
        self.window(from, until, FaultKind::NodeDown { node })
    }

    /// Partitions the `left` group from the `right` group over
    /// `[from, until)`.
    pub fn partition(
        self,
        left: impl Into<Vec<NodeId>>,
        right: impl Into<Vec<NodeId>>,
        from: SimTime,
        until: SimTime,
    ) -> FaultPlan {
        self.window(
            from,
            until,
            FaultKind::Partition {
                left: left.into(),
                right: right.into(),
            },
        )
    }

    /// Schedules an at-least-once delivery window: any delivered frame
    /// is duplicated with probability `prob` over `[from, until)`.
    pub fn duplicate_spike(self, from: SimTime, until: SimTime, prob: f64) -> FaultPlan {
        self.window(from, until, FaultKind::Duplicate { prob })
    }

    /// Schedules an out-of-order delivery window: each delivery gains
    /// an extra delay drawn from `[0, window)` over `[from, until)`.
    pub fn reorder_spike(self, from: SimTime, until: SimTime, window: SimDuration) -> FaultPlan {
        self.window(from, until, FaultKind::Reorder { window })
    }

    /// Returns the plan with every window shifted `offset` later.
    /// Used to stagger one scripted fault schedule across a fleet of
    /// islands so they do not all fail in lockstep.
    fn shifted(mut self, offset: SimDuration) -> FaultPlan {
        for w in &mut self.windows {
            w.from += offset;
            w.until += offset;
        }
        self
    }

    /// Returns the plan staggered for island `island`: windows shift by
    /// a jitter in `[0, max_jitter)` that is a pure function of
    /// `(seed, island)`, so per-island chaos schedules replay
    /// bit-for-bit under any thread count. Island 0 is unshifted,
    /// keeping pre-fleet single-world runs byte-identical.
    pub fn jittered_for_island(self, seed: u64, island: u32, max_jitter: SimDuration) -> FaultPlan {
        if island == 0 || max_jitter.is_zero() {
            return self;
        }
        let span = max_jitter.as_micros();
        let jitter = crate::rng::SimRng::for_island(seed, island).range(0, span.max(1));
        self.shifted(SimDuration::from_micros(jitter))
    }

    /// Number of scheduled windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The scheduled windows.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// The first instant at which every window has closed (the plan is
    /// fully healed). [`SimTime::ZERO`] for an empty plan.
    pub fn healed_by(&self) -> SimTime {
        self.windows
            .iter()
            .map(|w| w.until)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Whether `node` is crashed at `now`.
    pub fn node_down_at(&self, now: SimTime, node: NodeId) -> bool {
        self.windows.iter().any(|w| {
            w.active_at(now) && matches!(&w.kind, FaultKind::NodeDown { node: n } if *n == node)
        })
    }

    /// Whether an active partition separates `a` from `b` at `now`
    /// (symmetric).
    pub fn partitioned_at(&self, now: SimTime, a: NodeId, b: NodeId) -> bool {
        self.windows.iter().any(|w| {
            w.active_at(now)
                && match &w.kind {
                    FaultKind::Partition { left, right } => {
                        (left.contains(&a) && right.contains(&b))
                            || (left.contains(&b) && right.contains(&a))
                    }
                    _ => false,
                }
        })
    }

    /// The combined extra loss probability at `now`: overlapping loss
    /// spikes compound as independent drop chances.
    pub fn extra_loss_at(&self, now: SimTime) -> f64 {
        let mut keep = 1.0;
        for w in &self.windows {
            if let FaultKind::Loss { prob } = w.kind {
                if w.active_at(now) {
                    keep *= 1.0 - prob.clamp(0.0, 1.0);
                }
            }
        }
        1.0 - keep
    }

    /// The summed extra one-way latency at `now`.
    pub fn extra_latency_at(&self, now: SimTime) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for w in &self.windows {
            if let FaultKind::Latency { extra } = w.kind {
                if w.active_at(now) {
                    total += extra;
                }
            }
        }
        total
    }

    /// The combined duplicate probability at `now`: overlapping
    /// duplicate windows compound as independent duplication chances,
    /// mirroring [`FaultPlan::extra_loss_at`].
    pub fn duplicate_prob_at(&self, now: SimTime) -> f64 {
        let mut keep = 1.0;
        for w in &self.windows {
            if let FaultKind::Duplicate { prob } = w.kind {
                if w.active_at(now) {
                    keep *= 1.0 - prob.clamp(0.0, 1.0);
                }
            }
        }
        1.0 - keep
    }

    /// The widest active reorder window at `now` ([`SimDuration::ZERO`]
    /// when none): overlapping windows don't add — the slowest path
    /// bounds how far a frame can slip.
    pub fn reorder_window_at(&self, now: SimTime) -> SimDuration {
        let mut widest = SimDuration::ZERO;
        for w in &self.windows {
            if let FaultKind::Reorder { window } = w.kind {
                if w.active_at(now) && window > widest {
                    widest = window;
                }
            }
        }
        widest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn windows_are_half_open() {
        let plan = FaultPlan::new().node_down(NodeId(3), t(100), t(200));
        assert!(!plan.node_down_at(t(99), NodeId(3)));
        assert!(plan.node_down_at(t(100), NodeId(3)));
        assert!(plan.node_down_at(t(199), NodeId(3)));
        assert!(!plan.node_down_at(t(200), NodeId(3)), "heals at `until`");
        assert!(!plan.node_down_at(t(150), NodeId(4)), "other nodes fine");
    }

    #[test]
    fn partitions_are_symmetric_and_group_scoped() {
        let plan =
            FaultPlan::new().partition(vec![NodeId(1), NodeId(2)], vec![NodeId(7)], t(0), t(1000));
        assert!(plan.partitioned_at(t(10), NodeId(1), NodeId(7)));
        assert!(plan.partitioned_at(t(10), NodeId(7), NodeId(2)));
        assert!(
            !plan.partitioned_at(t(10), NodeId(1), NodeId(2)),
            "same side"
        );
        assert!(
            !plan.partitioned_at(t(10), NodeId(1), NodeId(9)),
            "outsider"
        );
        assert!(
            !plan.partitioned_at(t(1000), NodeId(1), NodeId(7)),
            "healed"
        );
    }

    #[test]
    fn loss_spikes_compound_and_latency_sums() {
        let plan = FaultPlan::new()
            .loss_spike(t(0), t(100), 0.5)
            .loss_spike(t(50), t(100), 0.5)
            .latency_spike(t(0), t(100), SimDuration::from_micros(300))
            .latency_spike(t(50), t(100), SimDuration::from_micros(200));
        assert!((plan.extra_loss_at(t(10)) - 0.5).abs() < 1e-9);
        assert!((plan.extra_loss_at(t(60)) - 0.75).abs() < 1e-9);
        assert_eq!(plan.extra_loss_at(t(100)), 0.0);
        assert_eq!(plan.extra_latency_at(t(10)).as_micros(), 300);
        assert_eq!(plan.extra_latency_at(t(60)).as_micros(), 500);
        assert_eq!(plan.extra_latency_at(t(100)).as_micros(), 0);
    }

    #[test]
    fn shifted_moves_every_window() {
        let plan = FaultPlan::new()
            .node_down(NodeId(1), t(100), t(200))
            .loss_spike(t(300), t(400), 0.9)
            .shifted(SimDuration::from_micros(50));
        assert!(!plan.node_down_at(t(100), NodeId(1)));
        assert!(plan.node_down_at(t(150), NodeId(1)));
        assert_eq!(plan.healed_by(), t(450));
    }

    #[test]
    fn island_jitter_is_deterministic_and_island_zero_exact() {
        let base = || FaultPlan::new().loss_spike(t(100), t(200), 0.5);
        let j = SimDuration::from_micros(1_000);
        assert_eq!(base().jittered_for_island(7, 0, j), base());
        let a = base().jittered_for_island(7, 3, j);
        let b = base().jittered_for_island(7, 3, j);
        assert_eq!(a, b, "same (seed, island) => same schedule");
        let from = a.windows()[0].from;
        assert!(t(100) <= from && from < t(1_100), "jitter within bound");
    }

    #[test]
    fn duplicate_windows_compound_and_reorder_takes_the_widest() {
        let plan = FaultPlan::new()
            .duplicate_spike(t(0), t(100), 0.5)
            .duplicate_spike(t(50), t(100), 0.5)
            .reorder_spike(t(0), t(100), SimDuration::from_micros(300))
            .reorder_spike(t(50), t(100), SimDuration::from_micros(200));
        assert!((plan.duplicate_prob_at(t(10)) - 0.5).abs() < 1e-9);
        assert!((plan.duplicate_prob_at(t(60)) - 0.75).abs() < 1e-9);
        assert_eq!(plan.duplicate_prob_at(t(100)), 0.0, "half-open heal");
        assert_eq!(plan.reorder_window_at(t(10)).as_micros(), 300);
        assert_eq!(
            plan.reorder_window_at(t(60)).as_micros(),
            300,
            "widest window bounds the slip, windows do not add"
        );
        assert_eq!(plan.reorder_window_at(t(100)), SimDuration::ZERO);
    }

    #[test]
    fn healed_by_reports_the_schedule() {
        let plan = FaultPlan::new()
            .node_down(NodeId(1), t(100), t(200))
            .loss_spike(t(300), t(400), 0.9);
        assert_eq!(plan.healed_by(), t(400));
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(FaultPlan::new().healed_by(), SimTime::ZERO);
    }
}
