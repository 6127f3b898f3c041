//! What binval's decoder allocates: a validated view allocates nothing,
//! however it is read, and the owned decode allocates one block of
//! exactly the item count per list or record and one buffer per string,
//! key or byte run — nothing for spines it does not keep. A dedicated
//! test binary, so the counting global allocator sees no other test's
//! work; counts are per thread, so the harness's own threads cannot
//! leak in either.

use metaware::protocol::binval::{self, ValueRef};
use soap::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

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

/// `(allocations, bytes)` made on this thread while `f` ran, and what
/// `f` returned (dropped by the caller, outside the count).
fn counted<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let after = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    ((after.0 - before.0, after.1 - before.1), out)
}

fn frames() -> Vec<Value> {
    let member = |service: &str, args: Vec<(String, Value)>| {
        Value::Record(vec![
            ("s".into(), Value::Str(service.into())),
            ("o".into(), Value::Str("switch".into())),
            ("a".into(), Value::Record(args)),
        ])
    };
    vec![
        Value::Null,
        Value::Str(String::new()),
        Value::List(vec![]),
        member("hall-lamp", vec![]),
        member("hall-lamp", vec![("on".into(), Value::Bool(true))]),
        Value::List(vec![
            member("vcr", vec![("channel".into(), Value::Int(42))]),
            member(
                "tv",
                vec![
                    ("tape".into(), Value::Bytes(vec![0, 1, 254])),
                    ("gain".into(), Value::Float(1.5)),
                    (String::new(), Value::Bytes(vec![])),
                ],
            ),
        ]),
        Value::Record(vec![(
            "ok".into(),
            Value::List(vec![Value::List(vec![Value::Str("deep".into())])]),
        )]),
    ]
}

/// Reads every part of a view — each item, each key, each field by
/// name — and counts the scalars it met.
fn read_all(v: ValueRef<'_>) -> usize {
    match v {
        ValueRef::List(items) => items.iter().map(read_all).sum(),
        ValueRef::Record(fields) => fields
            .iter()
            .map(|(k, item)| usize::from(fields.field(k).is_some()) + read_all(item))
            .sum(),
        _ => 1,
    }
}

/// What the owned decode must allocate for `v`: one block of exactly
/// the item count per non-empty list or record, one buffer per
/// non-empty string, key or byte run.
fn owned_cost(v: &Value) -> (u64, u64) {
    let block = |n: usize, each: usize| {
        if n == 0 {
            (0, 0)
        } else {
            (1, (n * each) as u64)
        }
    };
    let add = |a: (u64, u64), b: (u64, u64)| (a.0 + b.0, a.1 + b.1);
    match v {
        Value::Str(s) => block(s.len(), 1),
        Value::Bytes(b) => block(b.len(), 1),
        Value::List(items) => items
            .iter()
            .fold(block(items.len(), size_of::<Value>()), |acc, item| {
                add(acc, owned_cost(item))
            }),
        Value::Record(fields) => fields.iter().fold(
            block(fields.len(), size_of::<(String, Value)>()),
            |acc, (k, item)| add(add(acc, block(k.len(), 1)), owned_cost(item)),
        ),
        _ => (0, 0),
    }
}

#[test]
fn views_allocate_nothing() {
    for v in frames() {
        let wire = binval::to_bytes(&v);
        let (cost, scalars) = counted(|| binval::from_bytes_ref(&wire).map(read_all));
        assert_eq!(cost, (0, 0), "reading {v:?}");
        assert!(scalars.is_some());
    }
}

#[test]
fn owned_decode_allocates_only_what_it_keeps() {
    for v in frames() {
        let wire = binval::to_bytes(&v);
        let (cost, decoded) = counted(|| binval::from_bytes(&wire));
        assert_eq!(decoded.as_ref(), Some(&v));
        assert_eq!(cost, owned_cost(&v), "decoding {v:?}");
    }
}
