//! Steady-state allocation budget of the classic request lifecycle.
//!
//! A counting global allocator (backed by `sim_core::allocmeter`, whose
//! counters are thread-local, so other tests in this binary cannot bleed
//! in) measures a warmed world over a fixed window. The world uses client
//! timeouts (a share of requests is aborted mid-flight) and 1-in-16 trace
//! sampling, so every way a request ends is exercised: completed and
//! stored, completed and sampled out, and aborted.

use cluster::Millicores;
use microsim::{Behavior, Completion, DropReason, ServiceSpec, Stage, World, WorldConfig};
use sim_core::allocmeter::{self, Scope};
use sim_core::{Dist, SimDuration, SimRng, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use telemetry::{RequestId, RequestTypeId};

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

/// Requests injected per simulated second.
const RATE: u64 = 200;

/// A Sock-Shop-like call tree: the front-end fans out to cart and
/// catalogue in parallel; cart calls its database. Catalogue is the
/// bottleneck (one core, four threads, exponential demand), so its queue
/// pushes a share of requests past the client timeout.
fn world() -> (World, [RequestTypeId; 2]) {
    let config = WorldConfig {
        trace_sample_every: 16,
        trace_horizon: SimDuration::from_secs(5),
        metrics_horizon: SimDuration::from_secs(30),
        replica_startup: Dist::constant_us(0),
        ..WorldConfig::default()
    };
    let mut w = World::new(config, SimRng::seed_from(11));
    let browse = RequestTypeId(0);
    let buy = RequestTypeId(1);
    let cart_db = w.add_service(
        ServiceSpec::new("cart-db")
            .on(browse, Behavior::leaf(Dist::exponential_ms(1.0)))
            .on(buy, Behavior::leaf(Dist::exponential_ms(1.5))),
    );
    let cart = w.add_service(
        ServiceSpec::new("cart")
            .conns(cart_db, 8)
            .on(
                browse,
                Behavior::tier(Dist::constant_ms(1), cart_db, Dist::constant_ms(1)),
            )
            .on(
                buy,
                Behavior::tier(Dist::constant_ms(1), cart_db, Dist::constant_ms(1)),
            ),
    );
    let catalogue = w.add_service(
        ServiceSpec::new("catalogue")
            .cpu(Millicores::from_cores(1))
            .threads(4)
            .on(browse, Behavior::leaf(Dist::exponential_ms(5.0)))
            .on(buy, Behavior::leaf(Dist::exponential_ms(3.0))),
    );
    let front = || {
        Behavior::new(vec![
            Stage::compute_ms(1),
            Stage::fanout(vec![cart, catalogue]),
            Stage::compute_ms(1),
        ])
    };
    let front_end = w.add_service(
        ServiceSpec::new("front-end")
            .on(browse, front())
            .on(buy, front()),
    );
    let timeout = Some(SimDuration::from_millis(40));
    let types = [
        w.add_request_type_with_timeout("browse", front_end, timeout),
        w.add_request_type_with_timeout("buy", front_end, timeout),
    ];
    for svc in [cart_db, cart, catalogue, front_end] {
        let pod = w.add_replica(svc).unwrap();
        w.make_ready(pod);
    }
    (w, types)
}

/// Drives `secs` simulated seconds of open-loop load from `from`, reusing
/// the caller's buffers; returns how many requests ended by timeout.
fn drive(
    w: &mut World,
    types: [RequestTypeId; 2],
    from: u64,
    secs: u64,
    done: &mut Vec<Completion>,
    dropped: &mut Vec<(RequestId, DropReason)>,
) -> u64 {
    let mut timeouts = 0;
    for sec in from..from + secs {
        for i in 0..RATE {
            let at =
                SimTime::from_millis(sec * 1000) + SimDuration::from_micros(i * 1_000_000 / RATE);
            w.inject_at(at, types[(i % 3 == 0) as usize]);
        }
        w.run_until_into(SimTime::from_secs(sec + 1), done);
        done.clear();
        w.drain_dropped_into(dropped);
        timeouts += dropped
            .drain(..)
            .filter(|&(_, r)| r == DropReason::ClientTimeout)
            .count() as u64;
    }
    timeouts
}

#[test]
fn warmed_classic_world_allocates_little_per_request() {
    let (mut w, types) = world();
    let mut done = Vec::new();
    let mut dropped = Vec::new();
    // Warm-up: fill the slabs, the timer wheel's pools, the warehouse
    // horizon and the buffers.
    drive(&mut w, types, 0, 20, &mut done, &mut dropped);

    let window = 20;
    let injected_before = w.requests_injected();
    let scope = Scope::begin();
    let timeouts = drive(&mut w, types, 20, window, &mut done, &mut dropped);
    let stats = scope.finish();
    let requests = w.requests_injected() - injected_before;
    assert_eq!(requests, RATE * window);
    assert!(
        timeouts * 20 > requests,
        "the window must abort a real share of requests ({timeouts} of {requests})"
    );
    assert!(w.warehouse().len() > 20, "sampled traces are stored");

    let per_request = stats.count as f64 / requests as f64;
    // Measured 1.14 allocations per request, nearly all of them the
    // request's frame arena; the budget is about twice that. Cloning call
    // stages, fresh call vectors, or assembling traces that sampling
    // throws away cost about four more per request (5.1 measured).
    assert!(
        per_request <= 2.25,
        "{per_request:.2} allocations per request in steady state ({} over {requests})",
        stats.count
    );
}
