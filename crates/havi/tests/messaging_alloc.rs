//! What a warm HAVi message allocates: the parameter lists either side
//! owns, and nothing for its two frames, which are written into buffers
//! the 1394 bus lends and takes back.
//! A dedicated test binary, so the counting global allocator sees no
//! other test's work; counts are per thread, so the harness's own
//! threads cannot leak in either (the receiving element runs inline on
//! the sender's thread).

use havi::{oper, Fcm, FcmKind, HValue, HaviError, HaviStatus, MessagingSystem, OpCode, Seid};
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

/// A VCR and a tuner FCM on one 1394 node and a controller element on
/// another, after two messages to each, so the bus's spare buffers have
/// grown to the larger frame (a message and its reply swap buffers from
/// message to message) and a counted message allocates only what a
/// warm one does.
fn warmed() -> (MessagingSystem, u32, Fcm, Fcm) {
    let net = Network::ieee1394(&Sim::new(1));
    let device = MessagingSystem::attach(&net, "av-device");
    let vcr = Fcm::install(&device, FcmKind::Vcr, "vcr", None);
    let tuner = Fcm::install(&device, FcmKind::Tuner, "tuner", None);
    let tv = MessagingSystem::attach(&net, "tv");
    let me = tv.register_element(|_, _| (HaviStatus::Success, vec![]));
    let ops = [(&vcr, oper::STATUS), (&tuner, oper::GET_CHANNEL)];
    for (fcm, op) in ops.into_iter().cycle().take(4) {
        send(&tv, me.handle, fcm.seid(), fcm.kind(), op).expect("warm-up message");
    }
    (tv, me.handle, vcr, tuner)
}

fn send(
    tv: &MessagingSystem,
    me: u32,
    fcm: Seid,
    kind: FcmKind,
    op: u16,
) -> Result<Vec<HValue>, HaviError> {
    tv.send_ok(me, fcm, OpCode::new(kind.api_code(), op), vec![])
}

#[test]
fn a_warm_status_message_allocates_its_parameters() {
    let (tv, me, vcr, _) = warmed();
    let (allocs, got) = counted(|| send(&tv, me, vcr.seid(), vcr.kind(), oper::STATUS));
    assert_eq!(got, Ok(vec![HValue::Str("stopped".into()), HValue::U32(0)]));
    assert_eq!(
        allocs, 4,
        "the reply's parameter list and string on either side"
    );
}

#[test]
fn a_warm_channel_query_allocates_two() {
    let (tv, me, _, tuner) = warmed();
    let (allocs, got) = counted(|| send(&tv, me, tuner.seid(), tuner.kind(), oper::GET_CHANNEL));
    assert_eq!(got, Ok(vec![HValue::U16(1)]));
    assert_eq!(allocs, 2, "the reply's parameter list on either side");
}
