//! What a UDDI registry allocates to delete a record by name and to
//! save one whose index buckets already exist. A dedicated test binary,
//! so the counting global allocator sees no other test's work; counts
//! are per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wsdl::{Key, KeyedReference, UddiRegistry};

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

/// The category bag a replica saves: middleware, then gateway.
fn categories(gateway: &str) -> Vec<KeyedReference> {
    vec![
        KeyedReference::new("uddi:middleware", "x10"),
        KeyedReference::new("uddi:gateway", gateway),
    ]
}

/// A replica's registry: 64 lamps on four gateways, each with a tModel,
/// every one saved twice, as a moved record is.
fn registry() -> (UddiRegistry, Key) {
    let mut reg = UddiRegistry::new();
    let biz = reg.save_business("smart-home", "");
    for round in 0..2 {
        for i in 0..64 {
            let name = format!("lamp-{i:02}");
            let gateway = format!("gw-{}", (i + round) % 4);
            let tmodel = reg.save_tmodel(format!("{name}-interface"), "<definitions/>");
            let endpoint = format!("vsg://{gateway}/{name}");
            reg.replace_service(&biz, &name, categories(&gateway), endpoint, Some(tmodel))
                .unwrap();
        }
    }
    (reg, biz)
}

#[test]
fn deleting_a_record_by_name_allocates_nothing() {
    let (mut reg, _) = registry();
    let (allocs, removed) = counted(|| reg.delete_services_by_name("lamp-42"));
    assert_eq!(removed.len(), 1);
    assert_eq!(
        allocs, 0,
        "the service, its index entries and its tModel are removed in \
         place: no key list, no list of removed records"
    );
    assert!(reg.find_service_exact("lamp-42").is_none());
    assert_eq!(reg.find_tmodel("lamp-42%").len(), 0);
}

#[test]
fn a_save_into_existing_buckets_allocates_only_the_records_own_strings_and_lists() {
    let (mut reg, biz) = registry();
    // The record's parts, as a replica hands them over.
    let tmodel_name = String::from("lamp-42-interface");
    let wsdl = String::from("<definitions/>");
    let categories = categories("gw-1");
    let endpoint = String::from("vsg://gw-1/lamp-42");
    let (allocs, key) = counted(|| {
        let tmodel = reg.save_tmodel(tmodel_name, wsdl);
        reg.replace_service(&biz, "lamp-42", categories, endpoint, Some(tmodel))
    });
    assert!(key.is_some());
    assert_eq!(
        allocs, 2,
        "the service's name and its binding list: the keys are copied \
         sequence numbers, the tModel name, document, categories and \
         endpoint are moved in, and the name, middleware and gateway \
         buckets are found, not made"
    );
    let found = reg.find_service("lamp-42", &[]);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].bindings[0].access_point, "vsg://gw-1/lamp-42");
}
