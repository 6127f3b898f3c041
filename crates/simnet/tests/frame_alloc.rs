//! What a frame costs on its way through simnet: no copy. The buffer a
//! caller hands [`Network::request`] is the one its handler reads (and
//! may answer in), the buffer the handler returns is the one the caller
//! gets back, a unicast [`Network::send`] moves its buffer into the
//! receiver's inbox, and a broadcast to nodes with frame handlers
//! allocates nothing at all. Only a chaos duplicate copies a request.
//! A dedicated test binary, so the counting global allocator sees no
//! other test's work; counts are per thread, so the harness's own
//! threads cannot leak in either (handlers run inline on the caller's
//! thread).

use simnet::{Addr, Frame, Network, NodeId, Protocol, Sim};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Addresses of the last request payload the server's handler read
    /// and of the reply it built.
    static SEEN: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
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

/// `(allocations, bytes)` made on this thread while `f` ran, and what
/// `f` returned (dropped by the caller, outside the count).
fn counted<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let after = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    ((after.0 - before.0, after.1 - before.1), out)
}

const REQUEST_LEN: usize = 300;
const REPLY_LEN: usize = 120;

/// An Ethernet whose server answers every request with a fresh
/// `REPLY_LEN`-byte buffer, recording where the request it read and
/// the reply it built live. One exchange has run, so the traffic
/// statistics hold an entry for the protocol and a counted exchange
/// allocates only what a warm one does.
fn warmed() -> (Network, NodeId, NodeId) {
    let net = Network::ethernet(&Sim::new(1));
    let client = net.attach("client");
    let server = net.attach("server");
    net.set_request_handler(server, |_, frame| {
        let reply = vec![0xA5; REPLY_LEN];
        SEEN.with(|s| s.set((frame.payload.as_ptr() as usize, reply.as_ptr() as usize)));
        Ok(reply)
    })
    .expect("server attached");
    net.request(client, server, Protocol::Http, vec![1u8; REQUEST_LEN])
        .expect("warm-up exchange");
    (net, client, server)
}

#[test]
fn a_request_handler_reads_the_callers_buffer() {
    let (net, client, server) = warmed();
    let request = vec![7u8; REQUEST_LEN];
    let sent = request.as_ptr() as usize;
    net.request(client, server, Protocol::Http, request)
        .expect("exchange completes");
    assert_eq!(SEEN.with(Cell::get).0, sent, "the handler read a copy");
}

#[test]
fn the_caller_gets_the_handlers_buffer_back() {
    let (net, client, server) = warmed();
    let reply = net
        .request(client, server, Protocol::Http, vec![7u8; REQUEST_LEN])
        .expect("exchange completes");
    assert_eq!(reply.len(), REPLY_LEN);
    assert_eq!(
        reply.as_ptr() as usize,
        SEEN.with(Cell::get).1,
        "the caller got a copy of the reply"
    );
}

#[test]
fn an_exchange_allocates_only_the_handlers_reply() {
    let (net, client, server) = warmed();
    let request = vec![7u8; REQUEST_LEN];
    let (cost, reply) = counted(|| net.request(client, server, Protocol::Http, request));
    assert_eq!(reply.expect("exchange completes").len(), REPLY_LEN);
    assert_eq!(
        cost,
        (1, REPLY_LEN as u64),
        "(allocations, bytes) of one warm exchange: the reply buffer alone"
    );
}

#[test]
fn a_unicast_send_moves_its_buffer_into_the_inbox() {
    let (net, client, _) = warmed();
    let sink = net.attach("sink");
    let payload = vec![9u8; REQUEST_LEN];
    let sent = payload.as_ptr() as usize;
    net.send(Frame::new(client, sink, Protocol::Raw, payload))
        .expect("frame delivered");
    let got = net.recv(sink).expect("the frame waits in the inbox");
    assert_eq!(
        got.payload.as_ptr() as usize,
        sent,
        "the inbox holds a copy"
    );
}

#[test]
fn a_broadcast_to_handler_nodes_allocates_nothing() {
    const LISTENERS: u32 = 8;
    let net = Network::ethernet(&Sim::new(1));
    let sender = net.attach("sender");
    // Each listener records its id, so the order of delivery shows.
    let order = Arc::new(AtomicU32::new(0));
    for _ in 0..LISTENERS {
        let node = net.attach("listener");
        let order = order.clone();
        net.set_frame_handler(node, move |_, _| {
            order.store(
                order.load(Ordering::Relaxed) * 16 + node.0,
                Ordering::Relaxed,
            );
        })
        .expect("listener attached");
    }
    let broadcast = || Frame::new(sender, Addr::Broadcast, Protocol::Raw, vec![0x66, 0x0e]);
    net.send(broadcast()).expect("warm-up broadcast");
    order.store(0, Ordering::Relaxed);
    let frame = broadcast();
    let (cost, sent) = counted(|| net.send(frame));
    sent.expect("broadcast delivered");
    assert_eq!(cost, (0, 0), "(allocations, bytes) of one warm broadcast");
    assert_eq!(
        order.load(Ordering::Relaxed),
        0x1234_5678,
        "every listener, in ascending id order"
    );
}

#[test]
fn a_handler_that_answers_in_the_request_buffer_allocates_nothing() {
    let net = Network::ethernet(&Sim::new(1));
    let client = net.attach("client");
    let server = net.attach("server");
    net.set_request_handler(server, |_, frame| {
        let mut reply = std::mem::take(&mut frame.payload);
        reply.truncate(1);
        reply[0] ^= 0xff;
        Ok(reply)
    })
    .expect("server attached");
    net.request(client, server, Protocol::X10, vec![1u8, 2])
        .expect("warm-up exchange");
    let request = vec![7u8, 9];
    let sent = request.as_ptr() as usize;
    let (cost, reply) = counted(|| net.request(client, server, Protocol::X10, request));
    let reply = reply.expect("exchange completes");
    assert_eq!(reply, [0xf8]);
    assert_eq!(
        reply.as_ptr() as usize,
        sent,
        "the reply is the request's buffer"
    );
    assert_eq!(cost, (0, 0), "(allocations, bytes) of one warm exchange");
}

#[test]
fn a_duplicate_sees_the_request_a_payload_taking_handler_was_sent() {
    use simnet::{FaultPlan, SimTime};
    let net = Network::ethernet(&Sim::new(1));
    let client = net.attach("client");
    let server = net.attach("server");
    let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let seen2 = seen.clone();
    net.set_request_handler(server, move |_, frame| {
        let payload = std::mem::take(&mut frame.payload);
        seen2.lock().push(payload.clone());
        Ok(payload)
    })
    .expect("server attached");
    net.set_fault_plan(FaultPlan::new().duplicate_spike(
        SimTime::ZERO,
        SimTime::from_micros(u64::MAX / 2),
        1.0,
    ));
    let before = net.with_stats(|s| s.protocol(Protocol::Raw).bytes);
    let reply = net
        .request(client, server, Protocol::Raw, b"once".to_vec())
        .expect("exchange completes");
    assert_eq!(reply, b"once");
    assert_eq!(*seen.lock(), [b"once".to_vec(), b"once".to_vec()]);
    // Both deliveries of the request and the reply are counted at the
    // request's length.
    let after = net.with_stats(|s| s.protocol(Protocol::Raw).bytes);
    assert_eq!(after - before, 3 * 4);
}
