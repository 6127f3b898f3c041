//! What the CM11A's serial protocol allocates once warm: nothing. The
//! driver writes each request into one spare buffer, the interface
//! answers in the request's own buffer, and the reply becomes the spare
//! for the next request, so an X10 command costs only the two frames it
//! puts on the powerline. A dedicated test binary, so the counting
//! global allocator sees no other test's work; counts are per thread,
//! so the harness's own threads cannot leak in either (the interface
//! runs inline on the caller's thread).

use simnet::{Network, Sim};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use x10::{Cm11a, Cm11aDriver, Function, HouseCode, UnitCode};

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

fn a1() -> (HouseCode, UnitCode) {
    (HouseCode::new('A').unwrap(), UnitCode::new(1).unwrap())
}

/// A CM11A on a lossless powerline and the PC's driver, after one
/// command and one poll, so the traffic statistics hold their entries
/// and the driver has its spare buffer.
fn warmed() -> (Cm11a, Cm11aDriver) {
    let sim = Sim::new(1);
    let serial = Network::serial(&sim);
    let mut link = simnet::netkind::powerline();
    link.loss_prob = 0.0;
    let powerline = Network::new(&sim, "powerline", link);
    let cm11a = Cm11a::install(&serial, &powerline);
    let driver = Cm11aDriver::new(&serial, cm11a.serial_node());
    let (house, unit) = a1();
    driver
        .send_command(house, unit, Function::On)
        .expect("warm-up command");
    driver.poll().expect("warm-up poll");
    (cm11a, driver)
}

#[test]
fn a_warm_command_allocates_its_two_powerline_frames() {
    let (_cm11a, driver) = warmed();
    let (house, unit) = a1();
    let (allocs, sent) = counted(|| driver.send_command(house, unit, Function::Off));
    assert_eq!(sent, Ok(()));
    assert_eq!(
        allocs, 2,
        "the address and function frames; the four serial exchanges allocate nothing"
    );
}

#[test]
fn a_warm_poll_of_an_empty_buffer_allocates_nothing() {
    let (cm11a, driver) = warmed();
    assert_eq!(cm11a.buffered(), 0);
    let (allocs, frames) = counted(|| driver.poll());
    assert_eq!(frames, Ok(Vec::new()));
    assert_eq!(allocs, 0);
}
