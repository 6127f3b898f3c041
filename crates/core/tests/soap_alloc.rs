//! What a warm SOAP hop allocates: its two message buffers, and copies
//! of the arguments the serving side keeps. The client writes its POST
//! into one exactly sized buffer, with string arguments written from
//! borrows; the router reads the call in place through a checked view,
//! so namespace, method, argument names and string values stay slices
//! of the request; and the handler's answer is written straight into
//! the one response buffer, which the client reads in place. A
//! dedicated test binary, so the counting global allocator sees no
//! other test's work; counts are per thread, so the harness's own
//! threads cannot leak in either (the router runs inline on the
//! caller's thread).

use metaware::protocol::{Soap11, VsgProtocol, VsgRequest};
use simnet::{Network, Protocol, Sim};
use soap::{HttpRequest, HttpResponseRef, RpcCall, RpcResponse, SoapServer, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

#[test]
fn a_warm_gateway_call_naming_only_its_service_allocates_its_two_buffers() {
    let net = Network::ethernet(&Sim::new(1));
    let soap = Soap11::new();
    let gateway = soap.bind(&net, "gw", Arc::new(|_, _| Ok(Value::Null)));
    let caller = net.attach("caller");
    let req = VsgRequest::new("hall-lamp", "status");
    soap.call(&net, caller, gateway, &req)
        .expect("warm-up call");
    let (allocs, got) = counted(|| soap.call(&net, caller, gateway, &req));
    assert!(matches!(got, Ok(Value::Null)), "{got:?}");
    assert_eq!(
        allocs, 2,
        "the POST buffer and the response buffer; `__service` and the \
         operation are written from and interned as names"
    );
}

#[test]
fn a_warm_router_call_reading_string_arguments_allocates_its_response_buffer() {
    let net = Network::ethernet(&Sim::new(1));
    let router = SoapServer::bind(&net, "router");
    router.mount("urn:vsg:lights", |_, call, reply| {
        let name = call.get("name").and_then(|v| v.as_str());
        let room = call.get("room").and_then(|v| v.as_str());
        let known = name.as_deref() == Some("hall-lamp") && room.as_deref() == Some("hall");
        reply.value(&Value::Bool(known))
    });
    let caller = net.attach("caller");
    let envelope = RpcCall::new("urn:vsg:lights", "lookup")
        .arg("name", "hall-lamp")
        .arg("room", "hall")
        .to_envelope();
    let post =
        HttpRequest::post(soap::RPC_ROUTER_PATH, "text/xml; charset=utf-8", envelope).to_bytes();
    net.request(caller, router.node(), Protocol::Http, post.clone())
        .expect("warm-up call");
    let request = post.clone();
    let (allocs, reply) = counted(|| net.request(caller, router.node(), Protocol::Http, request));
    let reply = reply.expect("the router answers");
    let resp = HttpResponseRef::parse(&reply).expect("an HTTP response");
    assert_eq!(resp.status, 200);
    let body = std::str::from_utf8(resp.body).unwrap();
    assert_eq!(
        RpcResponse::from_envelope(body).unwrap().value,
        Value::Bool(true)
    );
    assert_eq!(allocs, 1, "the response buffer alone");
}
