//! The untraced path of `obs::Scope` must stay allocation-free: with
//! the tracer off, opening and closing a scope of any kind (byte
//! charge, error result and invocation record included) never runs its
//! name closure and allocates nothing. A dedicated test binary, so the
//! counting global allocator sees no other test's work; counts are
//! per thread, so the harness's own threads cannot leak in either.

use metaware::obs::Scope;
use metaware::{HopKind, MetaError, MetricsRegistry, Tracer};
use simnet::{Network, Sim, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the thread-local
// counters are const-initialised `Cell`s, which need no allocation and
// have no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + new_size as u64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(allocations, bytes)` made on this thread while `f` ran.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        ALLOCS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

#[test]
fn disabled_tracer_scope_never_names_and_allocates_nothing() {
    let sim = Sim::new(1);
    let net = Network::ethernet(&sim);
    let tracer = Tracer::new("gw");
    let metrics = MetricsRegistry::new();
    let failed: Result<(), MetaError> = Err(MetaError::UnknownService("lamp".into()));
    let kinds = [
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
    let unnamed = || -> String { panic!("name closure ran with tracing off") };
    let run = || {
        for kind in kinds {
            let child = Scope::child(&sim, &tracer, &metrics, kind, unnamed).bytes_from(&net);
            sim.advance(SimDuration::from_micros(7));
            child.finish(&failed);
            let root = Scope::root(&sim, &tracer, &metrics, kind, unnamed);
            root.finish_invocation("lamp", &failed);
            drop(Scope::child(&sim, &tracer, &metrics, kind, unnamed));
            tracer.note(&sim, kind, unnamed);
        }
    };
    // The first pass inserts the registry's per-service and error-kind
    // keys; every later record on the same keys is a counter bump.
    run();
    assert_eq!(counted(run), (0, 0));
    assert!(tracer.spans().is_empty());
}
