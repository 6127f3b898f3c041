//! Per-hop self time from recorded spans: a span's duration minus the
//! part of it its child spans cover.

use metaware::{HopKind, Span};
use std::cmp::Reverse;
use std::collections::HashMap;

/// Every hop kind, in ledger order.
pub const HOP_KINDS: [HopKind; 12] = [
    HopKind::ClientProxy,
    HopKind::PcmConvert,
    HopKind::VsrLookup,
    HopKind::CacheHit,
    HopKind::VsgWire,
    HopKind::ServerProxy,
    HopKind::App,
    HopKind::Event,
    HopKind::Resilience,
    HopKind::Federation,
    HopKind::Cloud,
    HopKind::Compose,
];

/// Virtual self time per hop kind, summed over spans, in
/// microseconds (indexed like [`HOP_KINDS`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTimes(pub [u64; HOP_KINDS.len()]);

impl SelfTimes {
    /// Adds the self time of one home's `spans`, drained whole.
    ///
    /// Some tracers (the federated repository's) open their spans as
    /// new roots. A home runs as one synchronous call stack on one
    /// virtual clock, so a root lying inside another span's interval
    /// was called from it: such roots are placed under the innermost
    /// span containing them. With `ops` (sorted, disjoint virtual-µs
    /// intervals of the measured operations) only trees whose root lies
    /// inside an operation count, leaving out timer work between ops.
    pub fn add(&mut self, spans: &[Span], ops: Option<&[(u64, u64)]>) {
        let n = spans.len();
        let start = |i: usize| spans[i].start.as_micros();
        let end = |i: usize| spans[i].end.as_micros();
        let index: HashMap<u64, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id.0, i)).collect();
        let mut parent: Vec<Option<usize>> = spans
            .iter()
            .map(|s| s.parent.and_then(|p| index.get(&p.0).copied()))
            .collect();
        let mut depth = vec![None; n];
        for i in 0..n {
            depth_of(i, &parent, &mut depth);
        }

        // Sweep by start (outer intervals first); the stack holds the
        // open spans, innermost on top.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (start(i), Reverse(end(i)), depth[i]));
        let mut stack: Vec<usize> = Vec::new();
        for &i in &order {
            while stack.last().is_some_and(|&top| end(top) < end(i)) {
                stack.pop();
            }
            if parent[i].is_none() {
                parent[i] = stack.last().copied();
            }
            stack.push(i);
        }

        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                children[p].push((start(i), end(i)));
            }
        }
        let in_an_op = |i: usize| {
            let Some(ops) = ops else { return true };
            let k = ops.partition_point(|&(t0, _)| t0 <= start(i));
            k > 0 && end(i) <= ops[k - 1].1
        };
        for i in 0..n {
            let mut root = i;
            while let Some(p) = parent[root] {
                root = p;
            }
            if !in_an_op(root) {
                continue;
            }
            let covered = union_within(&mut children[i], start(i), end(i));
            let kind = HOP_KINDS
                .iter()
                .position(|k| *k == spans[i].kind)
                .expect("every hop kind is listed");
            self.0[kind] += (end(i) - start(i)) - covered;
        }
    }

    /// Total self time over all kinds.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// Depth of span `i` along its recorded parent links (roots are 0).
fn depth_of(i: usize, parent: &[Option<usize>], depth: &mut [Option<usize>]) -> usize {
    let mut chain = Vec::new();
    let mut at = i;
    let base = loop {
        if let Some(d) = depth[at] {
            break d;
        }
        match parent[at] {
            Some(p) => {
                chain.push(at);
                at = p;
            }
            None => {
                depth[at] = Some(0);
                break 0;
            }
        }
    };
    for (k, &s) in chain.iter().rev().enumerate() {
        depth[s] = Some(base + k + 1);
    }
    depth[i].expect("depth assigned")
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaware::{SpanId, TraceId};
    use simnet::SimTime;

    fn span(id: u64, parent: Option<u64>, kind: HopKind, start: u64, end: u64) -> Span {
        Span {
            trace: TraceId(1),
            id: SpanId(id),
            parent: parent.map(SpanId),
            kind,
            name: String::new(),
            gateway: String::new(),
            start: SimTime::from_micros(start),
            end: SimTime::from_micros(end),
            bytes: 0,
            error: None,
        }
    }

    #[test]
    fn self_times_tile_a_nested_trace() {
        // root 0..100, wire 10..90 with server 20..80 and an
        // overlapping pair of app spans 30..50 and 40..60.
        let spans = [
            span(1, None, HopKind::ClientProxy, 0, 100),
            span(2, Some(1), HopKind::VsgWire, 10, 90),
            span(3, Some(2), HopKind::ServerProxy, 20, 80),
            span(4, Some(3), HopKind::App, 30, 50),
            span(5, Some(3), HopKind::App, 40, 60),
        ];
        let mut t = SelfTimes::default();
        t.add(&spans, None);
        assert_eq!(t.0[0], 20);
        assert_eq!(t.0[4], 20);
        assert_eq!(t.0[5], 30);
        assert_eq!(t.0[6], 40);
        assert_eq!(
            t.total(),
            110,
            "overlapping siblings each keep their own self time"
        );
    }

    #[test]
    fn unlinked_roots_nest_by_time_and_ops_filter_timer_work() {
        let spans = [
            // An op: a lookup with a federation push inside it that its
            // tracer recorded as a separate root.
            span(1, None, HopKind::VsrLookup, 0, 100),
            span(2, None, HopKind::Federation, 40, 70),
            // Timer work between ops.
            span(3, None, HopKind::Federation, 150, 180),
        ];
        let mut all = SelfTimes::default();
        all.add(&spans, None);
        assert_eq!(all.total(), 130);
        let mut ops_only = SelfTimes::default();
        ops_only.add(&spans, Some(&[(0, 100), (120, 140)]));
        assert_eq!(ops_only.0[2], 70);
        assert_eq!(ops_only.0[9], 30);
        assert_eq!(ops_only.total(), 100, "sums to the op's duration");
    }
}
