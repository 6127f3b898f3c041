//! What a VSR write allocates on a warm three-replica, four-shard
//! cluster: a publish that moves a service to another gateway (the
//! primary's write, its UDDI mirror and the push to the shard's
//! backup), and a backup's apply of one pushed record. A dedicated
//! test binary, so the counting global allocator sees no other test's
//! work; counts are per thread, and every replica's router runs inline
//! on the caller's thread.

use metaware::{catalog, FederationConfig, Middleware, VirtualService, Vsr, VsrClient};
use simnet::{Network, NodeId, Protocol, Sim};
use soap::{HttpRequest, HttpResponseRef, RpcCall, RpcResponse, Value};
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

fn cluster() -> (Network, Vsr) {
    let net = Network::ethernet(&Sim::new(1));
    let vsr = Vsr::start_federated(
        &net,
        &FederationConfig {
            shards: 4,
            replicas: 3,
            replication: 2,
            ..FederationConfig::default()
        },
    );
    (net, vsr)
}

fn lamp(name: &str, gateway: &str) -> VirtualService {
    VirtualService::new(name, catalog::lamp(), Middleware::X10, gateway)
}

#[test]
fn a_warm_gateway_moving_publish_builds_no_value_on_the_write_path() {
    let (net, vsr) = cluster();
    let client = VsrClient::new(&net, net.attach("pcm"), vsr.node());
    let names: Vec<String> = (0..16).map(|i| format!("svc-{i:02}")).collect();
    for name in &names {
        client.publish(&lamp(name, "x10-gw")).unwrap();
    }
    client.publish(&lamp(&names[0], "x10-gw-2")).unwrap();
    let moved = lamp(&names[1], "x10-gw-2");
    let (allocs, got) = counted(|| client.publish(&moved));
    got.unwrap();
    assert_eq!(
        allocs, 94,
        "the client's WSDL document, call and reply; the primary's UDDI \
         mirror and its one push buffer; the backup's mirror: no `Value` \
         is built or decoded on the write path"
    );
}

/// The HTTP POST of a `replicate` call carrying one record entry, as a
/// primary pushes it.
fn push(name: &str, gateway: &str, seq: i64) -> Vec<u8> {
    let wsdl = lamp(name, gateway)
        .interface
        .to_wsdl(name, &format!("vsg://{gateway}/{name}"))
        .to_document();
    let entry = Value::Record(vec![
        ("name".into(), Value::from(name)),
        ("shard".into(), Value::Int(0)),
        (
            "version".into(),
            Value::List(vec![Value::Int(1_000), Value::Int(0), Value::Int(seq)]),
        ),
        ("kind".into(), Value::from("record")),
        ("middleware".into(), Value::from("x10")),
        ("gateway".into(), Value::from(gateway)),
        ("wsdl".into(), Value::Str(wsdl)),
        ("contexts".into(), Value::Record(Vec::new())),
        ("expires_at".into(), Value::Null),
    ]);
    let envelope = RpcCall::new("urn:vsg:repository", "replicate")
        .arg("entries", Value::List(vec![entry]))
        .to_envelope();
    HttpRequest::post(soap::RPC_ROUTER_PATH, "text/xml; charset=utf-8", envelope).to_bytes()
}

#[test]
fn a_backups_apply_of_one_pushed_record_decodes_no_value_tree() {
    let (net, vsr) = cluster();
    let backup: NodeId = vsr.nodes()[1];
    let caller = net.attach("primary");
    let applied = |reply: Vec<u8>| {
        let resp = HttpResponseRef::parse(&reply).expect("an HTTP response");
        let body = std::str::from_utf8(resp.body).unwrap();
        RpcResponse::from_envelope(body).unwrap().value
    };
    let first = push("hall-lamp", "x10-gw", 1);
    let reply = net.request(caller, backup, Protocol::Http, first).unwrap();
    assert_eq!(applied(reply), Value::Int(1));
    let moved = push("hall-lamp", "x10-gw-2", 2);
    let (allocs, reply) = counted(|| net.request(caller, backup, Protocol::Http, moved));
    assert_eq!(applied(reply.unwrap()), Value::Int(1));
    assert_eq!(
        allocs, 41,
        "the response buffer, the unescaped WSDL text (moved into its \
         tModel) and the UDDI mirror's saves: the entry is read in place"
    );
}
