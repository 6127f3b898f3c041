//! What a frame costs on its way through simnet: no copy, and once
//! warm no allocation. The buffer a caller hands [`Network::request`]
//! is the one its handler reads, the buffer the network lends the
//! handler is the one the caller reads back, and both return to the
//! network's spare list, so a warm exchange allocates nothing. A
//! unicast [`Network::send`] moves its buffer into the receiver's
//! inbox, and a broadcast to nodes with frame handlers allocates
//! nothing at all. A dedicated test binary, so the counting global
//! allocator sees no other test's work; counts are per thread, so the
//! harness's own threads cannot leak in either (handlers run inline on
//! the caller's thread).

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

/// A `REQUEST_LEN`-byte request in a buffer from `net`'s spare list.
fn request_buffer(net: &Network) -> Vec<u8> {
    let mut request = net.buffer();
    request.resize(REQUEST_LEN, 7);
    request
}

/// An Ethernet whose server answers every request with `REPLY_LEN`
/// bytes written into the buffer it is lent, recording where the
/// request it read and the reply it wrote live. Two exchanges have run
/// on buffers from the network, so the traffic statistics hold an
/// entry for the protocol, each spare buffer has grown to the larger
/// message, and a counted exchange allocates only what a warm one does.
fn warmed() -> (Network, NodeId, NodeId) {
    let net = Network::ethernet(&Sim::new(1));
    let client = net.attach("client");
    let server = net.attach("server");
    net.set_request_handler(server, |_, frame, reply| {
        reply.resize(REPLY_LEN, 0xA5);
        SEEN.with(|s| s.set((frame.payload.as_ptr() as usize, reply.as_ptr() as usize)));
        Ok(())
    })
    .expect("server attached");
    for _ in 0..2 {
        net.request(client, server, Protocol::Http, request_buffer(&net))
            .expect("warm-up exchange");
    }
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
fn a_warm_exchange_allocates_nothing() {
    let (net, client, server) = warmed();
    let (cost, reply) = counted(|| {
        net.request(client, server, Protocol::Http, request_buffer(&net))
            .map(|reply| reply.len())
    });
    assert_eq!(reply, Ok(REPLY_LEN));
    assert_eq!(
        cost,
        (0, 0),
        "(allocations, bytes) of one warm exchange: both buffers are spares"
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
fn a_handler_writing_into_the_lent_buffer_allocates_nothing() {
    let net = Network::ethernet(&Sim::new(1));
    let client = net.attach("client");
    let server = net.attach("server");
    net.set_request_handler(server, |_, frame, reply| {
        reply.push(frame.payload[0] ^ 0xff);
        Ok(())
    })
    .expect("server attached");
    // Asks with `bytes` in a buffer from the network and reads the
    // reply's first byte in place.
    let ask = |bytes: &[u8]| {
        let mut request = net.buffer();
        request.extend_from_slice(bytes);
        net.request(client, server, Protocol::X10, request)
            .map(|reply| (reply.len(), reply[0]))
    };
    ask(&[1, 2]).expect("warm-up exchange");
    let (cost, reply) = counted(|| ask(&[7, 9]));
    assert_eq!(reply, Ok((1, 0xf8)));
    assert_eq!(cost, (0, 0), "(allocations, bytes) of one warm exchange");
}

#[test]
fn a_duplicate_reruns_the_handler_on_the_request_as_sent() {
    use simnet::{FaultPlan, SimTime};
    let net = Network::ethernet(&Sim::new(1));
    let client = net.attach("client");
    let server = net.attach("server");
    let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let seen2 = seen.clone();
    net.set_request_handler(server, move |_, frame, reply| {
        seen2.lock().push(frame.payload.clone());
        reply.extend_from_slice(&frame.payload);
        Ok(())
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
    assert_eq!(&reply[..], b"once");
    assert_eq!(*seen.lock(), [b"once".to_vec(), b"once".to_vec()]);
    // Both deliveries of the request and the reply are counted at the
    // request's length.
    let after = net.with_stats(|s| s.protocol(Protocol::Raw).bytes);
    assert_eq!(after - before, 3 * 4);
}
