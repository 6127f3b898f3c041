//! What a warm RMI call allocates: its two frames, and the values it
//! returns. The client writes its `RmiCall` straight into one exactly
//! sized buffer; the exporter reads it in place, so the method name
//! stays a slice of the frame, and writes its `RmiResult` the same way;
//! the client reads that in place and copies out only the returned
//! value. A dedicated test binary, so the counting global allocator
//! sees no other test's work; counts are per thread, so the harness's
//! own threads cannot leak in either (the exporter runs inline on the
//! caller's thread).

use jini::{JValue, RemoteProxy, RmiExporter};
use simnet::{Network, Sim};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the thread-local
// counter is a const-initialised `Cell`, which needs no allocation and
// has no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made on this thread while `f` ran, and what `f` returned
/// (dropped by the caller, outside the count).
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// A fridge and a laserdisc player's methods, exported from one node of
/// an Ethernet, and a proxy bound to them from another. Each method has
/// been called once, so the traffic statistics hold their entry and a
/// counted call allocates only what a warm one does.
fn warmed() -> RemoteProxy {
    let net = Network::ethernet(&Sim::new(1));
    let exporter = RmiExporter::attach(&net, "appliance");
    let stub = exporter.export("Appliance", |_, method, _| match method {
        "temperature" => Ok(JValue::Double(4.0)),
        "status" => Ok(JValue::Str("stopped".into())),
        other => Err(format!("no method {other}")),
    });
    let proxy = RemoteProxy::new(&net, net.attach("pc"), stub);
    for method in ["temperature", "status"] {
        proxy.invoke(method, &[]).expect("warm-up call");
    }
    proxy
}

#[test]
fn a_warm_call_returning_a_double_allocates_its_two_frames() {
    let proxy = warmed();
    let (allocs, got) = counted(|| proxy.invoke("temperature", &[]));
    assert_eq!(got, Ok(JValue::Double(4.0)));
    assert_eq!(allocs, 2, "the RmiCall frame and the RmiResult frame");
}

#[test]
fn a_warm_call_returning_a_string_allocates_four() {
    let proxy = warmed();
    let (allocs, got) = counted(|| proxy.invoke("status", &[]));
    assert_eq!(got, Ok(JValue::Str("stopped".into())));
    assert_eq!(
        allocs, 4,
        "the two frames, the object's String and the caller's copy of it"
    );
}
