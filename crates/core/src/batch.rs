//! Batching policy and batch work items for the multiplexed VSG wire.
//!
//! The paper's §4.2 failure mode is per-interaction overhead: every
//! invocation and every event notification pays a full connection +
//! request/response round trip. This module holds the knobs for the
//! remedy — coalescing work bound for the same remote gateway into one
//! wire frame — shared by [`crate::Vsg::invoke_batch`] (invocations)
//! and the event fan-out in [`crate::events`] (notifications).

use simnet::SimDuration;
use soap::Value;

/// The reserved operation name that marks a batch member as an event
/// notification rather than an invocation. The serving gateway routes
/// it to its event sink instead of a service invoker.
pub(crate) const EVENT_OP: &str = "__event__";
/// The argument carrying an event member's payload.
pub(crate) const EVENT_ARG: &str = "event";

/// Knobs of the adaptive flush policy (Nagle-with-a-deadline) and the
/// per-peer backpressure bound.
///
/// The flush rule of the event fan-out: work for an *idle* peer (its
/// queue is empty) goes out immediately, so a lone event pays no
/// coalescing tax; under load, members coalesce until the batch reaches
/// [`BatchPolicy::max_batch`] members or the oldest queued member has
/// waited [`BatchPolicy::max_delay`], whichever comes first.
/// [`crate::Vsg::invoke_batch`] receives its members all at once, so it
/// reads no timer: it cuts each peer's queue into frames of at most
/// `max_batch` members. A queue that reaches [`BatchPolicy::max_queue`]
/// rejects further members with [`crate::MetaError::Overloaded`]
/// instead of growing without bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Master switch; `false` reproduces the unbatched wire exactly.
    pub enabled: bool,
    /// Most members one wire frame may carry.
    pub max_batch: usize,
    /// Longest a queued member may wait for company before its peer
    /// queue is flushed anyway (the Nagle deadline).
    pub max_delay: SimDuration,
    /// A peer counts as idle — flush immediately, no coalescing — when
    /// nothing was flushed to it for at least this long.
    pub idle_threshold: SimDuration,
    /// Bound on members queued per peer; beyond it callers get
    /// [`crate::MetaError::Overloaded`].
    pub max_queue: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            enabled: true,
            max_batch: 16,
            max_delay: SimDuration::from_millis(2),
            idle_threshold: SimDuration::from_millis(5),
            max_queue: 256,
        }
    }
}

impl BatchPolicy {
    /// The policy that disables coalescing entirely: every call and
    /// event is its own wire exchange, exactly as before batching
    /// existed. The baseline side of every batched-vs-unbatched
    /// comparison.
    pub fn disabled() -> BatchPolicy {
        BatchPolicy {
            enabled: false,
            ..BatchPolicy::default()
        }
    }
}

/// One invocation inside a batch: `operation` on `service` with named
/// arguments, exactly what [`crate::Vsg::invoke`] takes.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchCall {
    /// Target service name.
    pub service: String,
    /// Operation.
    pub operation: String,
    /// Named arguments.
    pub args: Vec<(String, Value)>,
}

impl BatchCall {
    /// Creates a call with no arguments.
    pub fn new(service: impl Into<String>, operation: impl Into<String>) -> BatchCall {
        BatchCall {
            service: service.into(),
            operation: operation.into(),
            args: Vec::new(),
        }
    }

    /// Adds an argument (builder style).
    pub fn arg(mut self, name: impl Into<String>, value: impl Into<Value>) -> BatchCall {
        self.args.push((name.into(), value.into()));
        self
    }
}

/// One unit of work submitted to [`crate::Vsg::invoke_batch`].
#[derive(Debug, Clone, PartialEq)]
pub enum BatchItem {
    /// An invocation; its per-member result is the operation's answer.
    Call(BatchCall),
    /// An event notification for subscribers behind `service`'s
    /// gateway; its per-member result is `Value::Null` on delivery.
    /// Events are treated as idempotent for re-send decisions — a
    /// duplicated notification is tolerable, a silently dropped batch
    /// is not.
    Event {
        /// The service the event concerns (routes the member to that
        /// service's gateway).
        service: String,
        /// The event payload.
        event: Value,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_enabled_and_bounded() {
        let p = BatchPolicy::default();
        assert!(p.enabled);
        assert!(p.max_batch > 1);
        assert!(p.max_queue >= p.max_batch);
        assert!(p.max_delay < p.idle_threshold);
        assert!(!BatchPolicy::disabled().enabled);
    }

    #[test]
    fn batch_call_builder() {
        let c = BatchCall::new("lamp", "switch").arg("on", true);
        assert_eq!(c.service, "lamp");
        assert_eq!(c.operation, "switch");
        assert_eq!(c.args, vec![("on".to_owned(), Value::Bool(true))]);
    }
}
