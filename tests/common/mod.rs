//! A counting global allocator, installed by `mod common;`. Its counters
//! are process-global, so a measuring test holds [`serial`] for its
//! whole body, or tests running in parallel pollute each other's counts.

#![allow(dead_code)] // each test binary uses its own subset

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

impl CountingAlloc {
    fn add(size: usize) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size, Ordering::Relaxed);
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn sub(size: usize) {
        LIVE.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: pure pass-through to the System allocator; the only added
// behavior is relaxed atomic counter updates, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to System.alloc under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::add(layout.size());
        }
        p
    }

    // SAFETY: delegates to System.dealloc under the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        Self::sub(layout.size());
    }

    // SAFETY: delegates to System.realloc under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            Self::sub(layout.size());
            Self::add(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

/// The lock every measuring test holds; a panicked holder does not
/// stop the others.
pub fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` and returns (result, peak heap growth above the entry level).
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed);
    (out, peak.saturating_sub(base))
}

/// `alloc` + `realloc` calls and the bytes they requested.
#[derive(Debug)]
pub struct Allocs {
    pub calls: usize,
    pub bytes: usize,
}

/// Runs `f` and returns (result, allocations made on any thread meanwhile).
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let out = f();
    let allocs = Allocs {
        calls: CALLS.load(Ordering::Relaxed) - calls,
        bytes: BYTES.load(Ordering::Relaxed) - bytes,
    };
    (out, allocs)
}
