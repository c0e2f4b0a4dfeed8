//! Allocation cost of the control tick's trace analysis.
//!
//! `per_service_stats` runs over the whole trace window every control
//! period. A counting global allocator (backed by `sim_core::allocmeter`,
//! whose counters are thread-local) checks that a window costs allocations
//! in the number of distinct path shapes and services, not in the number
//! of traces.

use sim_core::allocmeter::{self, Scope};
use sim_core::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use telemetry::{
    per_service_stats, ChildCall, ReplicaId, RequestId, RequestTypeId, ServiceId, Span, SpanId,
    Trace,
};

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; `note_alloc` only bumps thread-local
// counters and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocmeter::note_alloc(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        allocmeter::note_alloc(new_size.saturating_sub(layout.size()) as u64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const SERVICES: u32 = 6;

fn span(id: u64, parent: Option<u64>, service: u32, from_us: u64, to_us: u64) -> Span {
    Span {
        id: SpanId(id),
        request: RequestId(id),
        service: ServiceId(service),
        replica: ReplicaId(0),
        parent: parent.map(SpanId),
        arrival: SimTime::from_nanos(1_000 * from_us),
        service_start: SimTime::from_nanos(1_000 * from_us),
        departure: SimTime::from_nanos(1_000 * to_us),
        children: Vec::new(),
    }
}

fn call(service: u32, from_us: u64, to_us: u64) -> ChildCall {
    ChildCall {
        service: ServiceId(service),
        start: SimTime::from_nanos(1_000 * from_us),
        end: SimTime::from_nanos(1_000 * to_us),
    }
}

/// A front-end (0) fanning out to two branches, each calling a database:
/// 1 → 2 and 3 → 4 (or 3 → 5 on every third request). Which branch is
/// slower alternates, so the window holds three distinct path shapes.
fn trace(i: u64) -> Trace {
    let base = 10 * i;
    let slow = 200 + i % 97;
    let (left, right) = if i.is_multiple_of(2) {
        (slow, 150)
    } else {
        (150, slow)
    };
    let db = if i.is_multiple_of(3) { 5 } else { 4 };
    let mut root = span(base, None, 0, 0, 20 + left.max(right));
    root.children = vec![call(1, 5, 5 + left), call(3, 5, 5 + right)];
    let mut a = span(base + 1, Some(base), 1, 5, 5 + left);
    a.children = vec![call(2, 10, left)];
    let mut b = span(base + 3, Some(base), 3, 5, 5 + right);
    b.children = vec![call(db, 10, right)];
    Trace {
        request: RequestId(i),
        request_type: RequestTypeId(0),
        spans: vec![
            root,
            a,
            span(base + 2, Some(base + 1), 2, 10, left),
            b,
            span(base + 4, Some(base + 3), db, 10, right),
        ],
    }
}

/// Allocations made by one `per_service_stats` call over `window`.
fn analysis_allocs(window: &[Trace]) -> u64 {
    let scope = Scope::begin();
    let stats = per_service_stats(window);
    let count = scope.finish().count;
    assert_eq!(stats.trace_count(), window.len() as u64);
    count
}

#[test]
fn window_analysis_allocates_per_shape_and_service_not_per_trace() {
    let window: Vec<Trace> = (0..10_000).map(trace).collect();
    let half = analysis_allocs(&window[..5_000]);
    let full = analysis_allocs(&window);

    let stats = per_service_stats(&window[..5_000]);
    assert!(stats.dominant_path().is_some());
    let shapes = 3;
    let keys = (shapes + SERVICES) as u64;
    // Each sample vector and map grows by doubling, so a window of n
    // traces costs about log2(n) growth steps per service on top of one
    // key per shape and service. 5,000 traces measured 139 allocations;
    // the bound is about twice that.
    assert!(
        half <= 32 * keys,
        "5,000 traces cost {half} allocations (bound {})",
        32 * keys
    );
    // Doubling the window adds about one growth step per vector (12
    // measured), not another 5,000 traces' worth.
    assert!(
        full - half <= 3 * keys,
        "10,000 traces cost {full} allocations, 5,000 cost {half}"
    );
    // Sanity: the bound is far below one allocation per trace.
    assert!(half * 10 < 5_000);
}
