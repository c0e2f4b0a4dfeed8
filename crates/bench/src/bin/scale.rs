//! Scale — million-user worlds on the timing-wheel event engine.
//!
//! Drives the paper's 12-minute dual-phase trace against generated
//! Sock-Shop-shaped topologies at escalating user counts, once per event
//! engine ([`QueueBackend::TimingWheel`] vs the retained
//! [`QueueBackend::BinaryHeap`] baseline), and asserts the two engines
//! produce **identical** simulations while reporting their events/sec and
//! bytes/request. A hot-loop microbenchmark isolates the per-event cost at
//! each point's pending-event population: the new wheel + generational-slab
//! path against the seed's binary-heap + boxed-`HashMap` request store —
//! the ≥ 5× acceptance ratio of the scale work — plus a steady-state churn
//! phase asserting the wheel allocates nothing once warm.
//!
//! Flags: `--smoke` (one small audited point, canonical JSON on stdout for
//! determinism diffs), `--jobs N` (sweep parallelism; output is identical
//! for any value), `--hot-only` (just the hot-loop comparison, for quick
//! iteration). Results land in `results/BENCH_scale.json`.

use microsim::WorldConfig;
use serde::Serialize;
use sim_core::allocmeter::{self, Scope};
use sim_core::{Dist, QueueBackend, SimDuration, SimRng, SimTime, Slab, TimerWheel};
use sora_bench::{job, print_table, save_json_with_perf, Sweep, Table};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;
use telemetry::RequestId;
use topo::TopoParams;
use workload::{RateCurve, TraceShape, UserAction, UserPool};

// ---------------------------------------------------------------------
// Counting allocator, backed by `sim_core::allocmeter`: every thread owns
// lock-free thread-local counters, and each measurement opens a scope
// that worker threads (e.g. the sharded engine's window workers) adopt —
// so per-job numbers stay exact for any `--jobs` value AND any shard
// count, with the workers' allocations folded in at report time.
// ---------------------------------------------------------------------

struct CountingAlloc;

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

// ---------------------------------------------------------------------
// End-to-end points
// ---------------------------------------------------------------------

/// One escalation point of the sweep.
#[derive(Debug, Clone, Copy, Serialize)]
struct Point {
    users: u64,
    services: usize,
    /// Simulated trace length. The flagship point runs the paper's full
    /// 12 minutes; bigger populations compress the same dual-phase shape
    /// into a shorter window to keep the bench tractable.
    sim_secs: u64,
    think_ms: f64,
}

fn points(smoke: bool) -> Vec<Point> {
    if smoke {
        vec![Point {
            users: 50_000,
            services: 500,
            sim_secs: 10,
            think_ms: 10_000.0,
        }]
    } else {
        vec![
            Point {
                users: 10_000,
                services: 500,
                sim_secs: 720,
                think_ms: 10_000.0,
            },
            Point {
                users: 100_000,
                services: 2_000,
                sim_secs: 120,
                think_ms: 30_000.0,
            },
            Point {
                users: 1_000_000,
                services: 5_000,
                sim_secs: 30,
                think_ms: 60_000.0,
            },
        ]
    }
}

/// Deterministic per-run counters — byte-identical across engines and
/// `--jobs` settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
struct SimCounters {
    completed: u64,
    dropped: u64,
    events: u64,
    requests: u64,
    spans: u64,
    p99_ms_bits: u64,
}

/// One engine's run at one point.
#[derive(Debug, Clone, Copy, Serialize)]
struct EngineRun {
    counters: SimCounters,
    events_per_sec: f64,
    bytes_per_request: f64,
    allocs_per_request: f64,
    wall_secs: f64,
}

fn run_point(p: Point, backend: QueueBackend) -> EngineRun {
    let params = TopoParams {
        timeout: Some(SimDuration::from_secs(5)),
        ..TopoParams::sock_shop_like(p.services)
    };
    let config = WorldConfig {
        // Traces at this scale would dominate memory and ingest time;
        // sample hard, as production tracing does.
        trace_sample_every: 1024,
        replica_startup: Dist::constant_us(0),
        ..WorldConfig::default()
    };
    let mut t = topo::build(&params, config, SimRng::seed_from(p.users ^ 0xa11ce));
    t.world.set_queue_backend(backend);
    let curve = RateCurve::new(
        TraceShape::DualPhase,
        p.users as f64,
        SimDuration::from_secs(p.sim_secs),
    );
    let mut pool = UserPool::new(
        curve,
        Dist::exponential_ms(p.think_ms),
        SimRng::seed_from(p.users.rotate_left(17) ^ 0x9e37),
    );
    let mut mix_rng = SimRng::seed_from(p.users ^ 0x5ca1e);
    let mut user_of: HashMap<RequestId, u64> = HashMap::new();

    let scope = Scope::begin();
    let wall = Instant::now();
    let mut now = SimTime::ZERO;
    let mut done: Vec<microsim::Completion> = Vec::new();
    let mut dropped = Vec::new();
    loop {
        let action = pool.next_action(now);
        let run_to = match action {
            UserAction::Send { at, .. } => at,
            UserAction::Idle { until } => until,
            UserAction::Finished => break,
        };
        t.world.run_until_into(run_to, &mut done);
        for c in done.drain(..) {
            if let Some(u) = user_of.remove(&c.request) {
                pool.on_completion(c.completed, u);
            }
        }
        let drop_at = t.world.now();
        t.world.drain_dropped_into(&mut dropped);
        for (dropped, _reason) in dropped.drain(..) {
            if let Some(u) = user_of.remove(&dropped) {
                pool.on_drop(drop_at, u);
            }
        }
        if let UserAction::Send { at, user } = action {
            let rt = t.request_types[mix_rng.index(t.request_types.len())];
            let id = t.world.inject_at(at, rt);
            user_of.insert(id, user);
        }
        now = run_to;
    }
    // Drain in-flight work past the trace end.
    t.world
        .run_until_into(now + SimDuration::from_secs(30), &mut done);
    for c in done.drain(..) {
        if let Some(u) = user_of.remove(&c.request) {
            pool.on_completion(c.completed, u);
        }
    }
    let wall_secs = wall.elapsed().as_secs_f64();
    let stats = scope.finish();

    #[cfg(feature = "audit")]
    assert_eq!(
        t.world.audit().total(),
        0,
        "audit violations at scale: {}",
        t.world.audit().summary()
    );

    let client = t.world.client();
    let requests = t.world.requests_injected();
    let counters = SimCounters {
        completed: client.total(),
        dropped: t.world.dropped(),
        events: t.world.events_dispatched(),
        requests,
        spans: t.world.spans_created(),
        p99_ms_bits: client
            .percentile(99.0)
            .map_or(0.0, |d| d.as_millis_f64())
            .to_bits(),
    };
    EngineRun {
        counters,
        events_per_sec: counters.events as f64 / wall_secs.max(1e-9),
        bytes_per_request: stats.bytes as f64 / (requests as f64).max(1.0),
        allocs_per_request: stats.count as f64 / (requests as f64).max(1.0),
        wall_secs,
    }
}

// ---------------------------------------------------------------------
// Hot-loop microbenchmark: the per-event cost in isolation
// ---------------------------------------------------------------------

/// Stand-in for a request record (the seed boxed one of these per request
/// behind a `HashMap`; the slab stores them inline).
#[derive(Clone, Copy)]
struct Payload {
    id: u64,
    frames: [u64; 6],
}

impl Payload {
    fn new(id: u64) -> Payload {
        Payload {
            id,
            frames: [id; 6],
        }
    }
}

/// Stand-in for the simulator's `Event` enum (~40 bytes of call-frame
/// coordinates), stored inline in the queue on BOTH sides — exactly what
/// `EventQueue<Event>` does. The baseline's binary heap must sift these
/// fat elements across O(log n) cache-missing levels; the wheel moves
/// each one O(1) amortized times between buckets.
#[derive(Clone, Copy)]
struct EventBody {
    words: [u64; 5],
}

impl EventBody {
    fn new(seq: u64) -> EventBody {
        EventBody { words: [seq; 5] }
    }
}

/// The baseline's heap entry: `Scheduled<Event>` from the seed —
/// `(time, insertion seq)` ordering with the event body riding along.
#[derive(Clone, Copy)]
struct HeapEntry {
    at: u64,
    slot: u64,
    body: EventBody,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.slot) == (other.at, other.slot)
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap via reversal, matching `Reverse<(at, seq)>` in the seed.
        (other.at, other.slot).cmp(&(self.at, self.slot))
    }
}

/// One side's result; `checksum` must agree across sides (both process the
/// identical event sequence).
#[derive(Debug, Clone, Copy, Serialize)]
struct HotLoopSide {
    ops_per_sec: f64,
    wall_secs: f64,
    checksum: u64,
}

/// Stationary churn: pop the earliest event, retire its request, admit a
/// replacement one pseudo-random delta later.
///
/// The delta mix mirrors the simulator's event population at scale:
/// almost every *dispatched* event is microsecond-scale service activity
/// (CPU quanta, child arrivals/returns), while a thin stream of long
/// timers (client timeouts, user think times) dominates the *pending*
/// set — by waiting-time weighting, an entry pending for seconds is
/// queued ~10⁴× longer than one pending for microseconds, so nearly
/// every queued entry is a long timer even though nearly every popped
/// one is short. This is the regime both engines actually face at the
/// million-user point.
fn next_delta(lcg: &mut u64) -> u64 {
    *lcg = lcg
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let x = *lcg;
    1_000 + (x >> 40) % 1_000_000 // 1 µs .. 1 ms
}

/// Live request-state slots in the hot loop's store. The store models
/// *in-flight* requests, whose count is set by service times against
/// think times — not by the pending-timer population, which at the
/// million-user point is dominated by think timers and timeouts that own
/// no request state. 64 Ki in-flight requests is already generous for
/// every point in the sweep.
const STORE_SLOTS: u64 = 1 << 16;

/// Events are keyed by *slot*: each of the `pending` slots always owns
/// exactly one pending event, so the queue population is stationary by
/// construction. Each popped event looks up and mutates the request
/// state shared by its store slot (`slot & (STORE_SLOTS-1)`) — the
/// dominant access in the simulator, where a request lives across ~dozens
/// of events — and every 16th event retires that request and admits a
/// fresh one (the allocation/removal path). Both sides process the
/// identical `(time, slot)` sequence (same LCG) — checksums must agree.
fn hot_loop_wheel_slab(pending: usize, ops: usize) -> HotLoopSide {
    let mut queue: TimerWheel<EventBody> = TimerWheel::new();
    let mut store: Slab<Payload> = Slab::with_capacity(STORE_SLOTS as usize);
    let mut keys = Vec::with_capacity(STORE_SLOTS as usize);
    let mut lcg = 0x243f6a8885a308d3u64;
    let mut seq = 0u64;
    for s in 0..STORE_SLOTS {
        keys.push(store.insert(Payload::new(s)));
    }
    for slot in 0..pending as u64 {
        queue.schedule(
            SimTime::from_nanos(next_delta(&mut lcg)),
            slot,
            EventBody::new(seq),
        );
        seq += 1;
    }
    let mut checksum = 0u64;
    let wall = Instant::now();
    for _ in 0..ops {
        let (at, slot, body) = queue.pop().expect("stationary population");
        let s = (slot & (STORE_SLOTS - 1)) as usize;
        let req = store.get_mut(keys[s]).expect("live request");
        checksum = checksum
            .wrapping_add(at.as_nanos())
            .wrapping_add(body.words[(at.as_nanos() % 5) as usize])
            .wrapping_add(req.frames[(at.as_nanos() % 6) as usize]);
        req.id = seq;
        if slot & 0xF == 0 {
            let retired = store.remove(keys[s]).expect("live request");
            checksum = checksum.wrapping_add(retired.id);
            keys[s] = store.insert(Payload::new(seq));
        }
        queue.schedule(
            at + SimDuration::from_nanos(next_delta(&mut lcg)),
            slot,
            EventBody::new(seq),
        );
        seq += 1;
    }
    let wall_secs = wall.elapsed().as_secs_f64();
    HotLoopSide {
        ops_per_sec: ops as f64 / wall_secs.max(1e-9),
        wall_secs,
        checksum,
    }
}

fn hot_loop_heap_box(pending: usize, ops: usize) -> HotLoopSide {
    let mut queue: BinaryHeap<HeapEntry> = BinaryHeap::new();
    let mut store: HashMap<u64, Box<Payload>> = HashMap::new();
    let mut lcg = 0x243f6a8885a308d3u64;
    let mut seq = 0u64;
    for s in 0..STORE_SLOTS {
        store.insert(s, Box::new(Payload::new(s)));
    }
    for slot in 0..pending as u64 {
        queue.push(HeapEntry {
            at: next_delta(&mut lcg),
            slot,
            body: EventBody::new(seq),
        });
        seq += 1;
    }
    let mut checksum = 0u64;
    let wall = Instant::now();
    for _ in 0..ops {
        let HeapEntry { at, slot, body } = queue.pop().expect("stationary population");
        let s = slot & (STORE_SLOTS - 1);
        let req = store.get_mut(&s).expect("live request");
        checksum = checksum
            .wrapping_add(at)
            .wrapping_add(body.words[(at % 5) as usize])
            .wrapping_add(req.frames[(at % 6) as usize]);
        req.id = seq;
        if slot & 0xF == 0 {
            let retired = store.remove(&s).expect("live request");
            checksum = checksum.wrapping_add(retired.id);
            store.insert(s, Box::new(Payload::new(seq)));
        }
        queue.push(HeapEntry {
            at: at + next_delta(&mut lcg),
            slot,
            body: EventBody::new(seq),
        });
        seq += 1;
    }
    let wall_secs = wall.elapsed().as_secs_f64();
    HotLoopSide {
        ops_per_sec: ops as f64 / wall_secs.max(1e-9),
        wall_secs,
        checksum,
    }
}

// ---------------------------------------------------------------------
// Steady-state allocation audit of the wheel itself
// ---------------------------------------------------------------------

/// Warms a wheel, then asserts a churn window allocates nothing: slot
/// buffers, the ready heap, and the wheel's recycled-bucket pool are all
/// reused.
///
/// The churn is *exactly periodic by construction*: every entry starts at
/// a random residue inside one constant power-of-two reschedule delta, so
/// its timestamp's low bits — and therefore the tick slot it revisits —
/// repeat forever, and every per-tick occupancy maximum is hit within the
/// first 64 ticks. (Random deltas would instead grow slot high-water
/// marks forever, extreme-value style, making an exact-zero assert depend
/// on the warm-up length.) The measured window is then positioned right
/// after a level-1 slot boundary and kept shorter than a level-1 span, so
/// no coarse-slot crossing — the one event that draws a buffer from the
/// wheel's spare pool — can land inside it.
fn steady_state_allocs(churn_ops: u64) -> u64 {
    const POPULATION: u64 = 50_000;
    const DELTA: u64 = 1 << 12; // 4 ticks per reschedule
    const L1_SPAN: u64 = 1 << 16; // level-1 slot width in ns
    let mut queue: TimerWheel<()> = TimerWheel::new();
    let mut lcg = 0x13198a2e03707344u64;
    for key in 0..POPULATION {
        next_delta(&mut lcg);
        queue.schedule(SimTime::from_nanos(lcg % DELTA), key, ());
    }
    // Warm up (covering at least one level-1 crossing), then stop just
    // after a level-1 boundary.
    let mut warmed = 0u64;
    loop {
        let (at, key, ()) = queue.pop().expect("stationary");
        queue.schedule(at + SimDuration::from_nanos(DELTA), key, ());
        warmed += 1;
        if warmed >= 3 * POPULATION * L1_SPAN / DELTA && at.as_nanos() % L1_SPAN < DELTA {
            break;
        }
    }
    // The window (pops AND the +DELTA schedules they trigger) must stay
    // inside the current level-1 slot: ops advance sim time by
    // DELTA/POPULATION each, and we entered at most DELTA past the
    // boundary.
    let ops = churn_ops.min((L1_SPAN - 4 * DELTA) * POPULATION / DELTA);
    let scope = Scope::begin();
    for _ in 0..ops {
        let (at, key, ()) = queue.pop().expect("stationary");
        queue.schedule(at + SimDuration::from_nanos(DELTA), key, ());
    }
    scope.finish().count
}

// ---------------------------------------------------------------------

#[derive(Debug, Clone, Serialize)]
struct PointReport {
    point: Point,
    spans_per_request: u64,
    wheel: EngineRun,
    heap: EngineRun,
    engines_identical: bool,
    events_per_sec_speedup: f64,
    hot_loop_pending: usize,
    hot_loop_ops: usize,
    hot_loop_wheel_slab: HotLoopSide,
    hot_loop_heap_box: HotLoopSide,
    hot_loop_speedup: f64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let pts = points(smoke);

    // Developer fast path: run only the hot-loop comparison (no sweep, no
    // JSON) so queue-layout experiments iterate in seconds.
    if std::env::args().any(|a| a == "--hot-only") {
        for &p in &pts {
            let pending = p.users as usize;
            let ops = (pending * 3).clamp(300_000, 3_000_000);
            let ws = hot_loop_wheel_slab(pending, ops);
            let hb = hot_loop_heap_box(pending, ops);
            assert_eq!(ws.checksum, hb.checksum, "hot-loop checksum mismatch");
            println!(
                "pending {:>8}  wheel+slab {:>10.0} ops/s  heap+box {:>10.0} ops/s  speedup {:.2}x",
                pending,
                ws.ops_per_sec,
                hb.ops_per_sec,
                ws.ops_per_sec / hb.ops_per_sec
            );
        }
        return;
    }
    let spans_per_request = TopoParams::sock_shop_like(12).spans_per_request();

    // The wheel must be allocation-free at steady state — checked before
    // any measurement so a regression fails loudly, not as noise.
    let churn = if smoke { 200_000 } else { 1_000_000 };
    let steady = steady_state_allocs(churn);
    assert_eq!(
        steady, 0,
        "timing wheel allocated {steady} times during steady-state churn"
    );

    // Every (point × engine) is one sweep job; output is index-aligned,
    // so it is byte-identical for any --jobs value.
    let mut jobs = Vec::new();
    for &p in &pts {
        jobs.push(job(format!("wheel-{}u", p.users), move || {
            run_point(p, QueueBackend::TimingWheel)
        }));
        jobs.push(job(format!("heap-{}u", p.users), move || {
            run_point(p, QueueBackend::BinaryHeap)
        }));
    }
    let outcome = Sweep::from_env().run(jobs);

    // The hot loop is timing-sensitive: run it single-threaded, after the
    // sweep, so parallel jobs cannot skew the ratio.
    let mut reports = Vec::new();
    for (i, &p) in pts.iter().enumerate() {
        let wheel = outcome.results[2 * i];
        let heap = outcome.results[2 * i + 1];
        assert_eq!(
            wheel.counters, heap.counters,
            "engines diverged at {} users",
            p.users
        );
        let pending = p.users as usize;
        let ops = (pending * 3).clamp(300_000, 3_000_000);
        let ws = hot_loop_wheel_slab(pending, ops);
        let hb = hot_loop_heap_box(pending, ops);
        assert_eq!(
            ws.checksum, hb.checksum,
            "hot-loop sides processed different event sequences"
        );
        reports.push(PointReport {
            point: p,
            spans_per_request,
            wheel,
            heap,
            engines_identical: true,
            events_per_sec_speedup: wheel.events_per_sec / heap.events_per_sec.max(1e-9),
            hot_loop_pending: pending,
            hot_loop_ops: ops,
            hot_loop_wheel_slab: ws,
            hot_loop_heap_box: hb,
            hot_loop_speedup: ws.ops_per_sec / hb.ops_per_sec.max(1e-9),
        });
    }

    let mut table = Table::new(vec![
        "users",
        "services",
        "sim [s]",
        "events",
        "wheel [Mev/s]",
        "heap [Mev/s]",
        "e2e ×",
        "hot loop ×",
        "bytes/req",
    ]);
    for r in &reports {
        table.row(vec![
            format!("{}", r.point.users),
            format!("{}", r.point.services),
            format!("{}", r.point.sim_secs),
            format!("{}", r.wheel.counters.events),
            format!("{:.1}", r.wheel.events_per_sec / 1e6),
            format!("{:.1}", r.heap.events_per_sec / 1e6),
            format!("{:.2}", r.events_per_sec_speedup),
            format!("{:.1}", r.hot_loop_speedup),
            format!("{:.0}", r.wheel.bytes_per_request),
        ]);
    }
    if !smoke {
        // Smoke stdout is diffed across --jobs values and must stay free
        // of wall-clock-derived numbers; the table has rate columns.
        print_table("Scale — timing wheel vs heap baseline", &table);
    }

    let data = serde_json::json!({
        "trace": {
            "shape": "DualPhase",
            "minutes": 12,
            "note": "flagship point runs the full 12-minute trace; larger populations compress the same shape",
        },
        "smoke": smoke,
        "steady_state": { "churn_ops": churn, "allocs": steady },
        "points": reports,
    });
    if smoke {
        // The smoke gate diffs this stdout across --jobs values: print
        // only deterministic counters (no wall-clock-derived rates).
        let canonical: Vec<serde_json::Value> = reports
            .iter()
            .map(|r| {
                serde_json::json!({
                    "users": r.point.users,
                    "services": r.point.services,
                    "sim_secs": r.point.sim_secs,
                    "wheel": r.wheel.counters,
                    "heap": r.heap.counters,
                    "engines_identical": r.engines_identical,
                    "steady_state_allocs": steady,
                    "hot_loop_checksum": r.hot_loop_wheel_slab.checksum,
                })
            })
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&canonical).expect("serialize")
        );
    }
    save_json_with_perf("BENCH_scale", &data, &outcome.perf);
}
