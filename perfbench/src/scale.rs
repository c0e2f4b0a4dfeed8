//! `scale_1m`: the `scale` bench's million-user point — a generated
//! 5,000-service topology, 30 simulated seconds of the dual-phase trace,
//! 60 s think time, 1-in-1024 trace sampling and no controller, driven by
//! the benchmark's own `UserPool` / `run_until_into` loop.
//!
//! The seed plays the role the user count plays in the `scale` bench's
//! seed derivation, so the default seed reproduces its committed counters.

use crate::alloc::Metered;
use crate::common::{
    cache_hits, counters_text, cpu_times, repeat_setup, result_path, Digest, Fnv, Measured,
};
use crate::layers::Layers;
use crate::trace::{self, Layer};
use crate::Args;
use microsim::WorldConfig;
use serde_json::{json, Value};
use sim_core::{Dist, SimDuration, SimRng, SimTime};
use sora_server::content_hash;
use std::collections::HashMap;
use std::time::Instant;
use telemetry::RequestId;
use topo::{TopoParams, Topology};
use workload::{RateCurve, TraceShape, UserAction, UserPool};

pub const DEFAULT_SEED: u64 = 1_000_000;
const USERS: u64 = 1_000_000;
const SERVICES: usize = 5_000;
const SIM_SECS: u64 = 30;
const THINK_MS: f64 = 60_000.0;
const SAMPLE_EVERY: u64 = 1024;
/// Simulated time per `step_rtt` sample.
const STEP: SimDuration = SimDuration::from_secs(1);

struct Setup {
    t: Topology,
    pool: UserPool,
    mix_rng: SimRng,
}

fn setup(seed: u64) -> Setup {
    let params = TopoParams {
        timeout: Some(SimDuration::from_secs(5)),
        ..TopoParams::sock_shop_like(SERVICES)
    };
    let config = WorldConfig {
        trace_sample_every: SAMPLE_EVERY,
        replica_startup: Dist::constant_us(0),
        ..WorldConfig::default()
    };
    let p = trace::span(Layer::TopoBuild, "topo.build");
    let t = topo::build(&params, config, SimRng::seed_from(seed ^ 0xa11ce));
    trace::end(p);
    let curve = RateCurve::new(
        TraceShape::DualPhase,
        USERS as f64,
        SimDuration::from_secs(SIM_SECS),
    );
    let pool = UserPool::new(
        curve,
        Dist::exponential_ms(THINK_MS),
        SimRng::seed_from(seed.rotate_left(17) ^ 0x9e37),
    );
    Setup {
        t,
        pool,
        mix_rng: SimRng::seed_from(seed ^ 0x5ca1e),
    }
}

struct Run {
    digest: Digest,
    requests: u64,
    run_s: f64,
    step_ms: Vec<f64>,
    allocs: u64,
    alloc_bytes: u64,
    cpu_s: (f64, f64),
    actions: u64,
}

fn run(s: Setup) -> (Run, Topology) {
    let Setup {
        mut t,
        mut pool,
        mut mix_rng,
    } = s;
    let mut user_of: HashMap<RequestId, u64> = HashMap::new();
    let mut done: Vec<microsim::Completion> = Vec::new();
    let mut step_ms = Vec::with_capacity(SIM_SECS as usize + 1);
    let mut comp = Fnv::new();
    let mut actions = 0u64;
    let (user0, sys0) = cpu_times();
    let meter = Metered::begin();
    let start = Instant::now();
    let mut mark = Instant::now();
    let mut next_step = SimTime::ZERO + STEP;
    let mut now = SimTime::ZERO;
    let mut step = trace::phase("step");
    loop {
        let p = trace::begin(Layer::Workload);
        let action = pool.next_action(now);
        trace::end(p);
        actions += 1;
        let run_to = match action {
            UserAction::Send { at, .. } => at,
            UserAction::Idle { until } => until,
            UserAction::Finished => break,
        };
        let p = trace::begin(Layer::Microsim);
        t.world.run_until_into(run_to, &mut done);
        trace::end(p);
        for c in done.drain(..) {
            comp.write_u64(c.completed.as_nanos());
            comp.write_u64(c.response_time.as_nanos());
            if let Some(u) = user_of.remove(&c.request) {
                pool.on_completion(c.completed, u);
            }
        }
        let drop_at = t.world.now();
        for (dropped, _reason) in t.world.drain_dropped() {
            if let Some(u) = user_of.remove(&dropped) {
                pool.on_drop(drop_at, u);
            }
        }
        if let UserAction::Send { at, user } = action {
            let rt = t.request_types[mix_rng.index(t.request_types.len())];
            let p = trace::begin(Layer::Inject);
            let id = t.world.inject_at(at, rt);
            trace::end(p);
            user_of.insert(id, user);
        }
        now = run_to;
        while now >= next_step {
            trace::end_with(step, &[("sim_s", next_step.as_secs_f64())]);
            step = trace::phase("step");
            step_ms.push(mark.elapsed().as_secs_f64() * 1e3);
            mark = Instant::now();
            next_step += STEP;
        }
    }
    trace::end(step);
    // Drain in-flight work past the trace end.
    let p = trace::span(Layer::Microsim, "drain");
    t.world
        .run_until_into(now + SimDuration::from_secs(30), &mut done);
    trace::end(p);
    for c in done.drain(..) {
        comp.write_u64(c.completed.as_nanos());
        comp.write_u64(c.response_time.as_nanos());
        if let Some(u) = user_of.remove(&c.request) {
            pool.on_completion(c.completed, u);
        }
    }
    let run_s = start.elapsed().as_secs_f64();
    let metering = meter.finish();
    let (user1, sys1) = cpu_times();

    let client = t.world.client();
    let digest = Digest {
        completed: client.total(),
        dropped: t.world.dropped(),
        events: t.world.events_dispatched(),
        spans: t.world.spans_created(),
        p99_bits: client
            .percentile(99.0)
            .map_or(0.0, |d| d.as_millis_f64())
            .to_bits(),
        fnv: comp.0,
    };
    let r = Run {
        digest,
        requests: t.world.requests_injected(),
        run_s,
        step_ms,
        allocs: metering.total.count,
        alloc_bytes: metering.total.bytes,
        cpu_s: (user1 - user0, sys1 - sys0),
        actions,
    };
    (r, t)
}

pub fn key_of(seed: u64) -> String {
    content_hash(&format!(
        "scale_1m users={USERS} services={SERVICES} seed={seed}"
    ))
}

pub fn measure(args: &Args) -> Value {
    let seed = args.seed;
    let (setup_s, s) = repeat_setup(args.setups, || setup(seed));
    let (r, t) = run(s);
    drop(t);
    let text = counters_text("scale_1m", seed, &r.digest);
    std::fs::write(result_path(args), &text).expect("write result text");
    let conserved = r.digest.completed + r.digest.dropped == r.requests;
    Measured {
        setup_s,
        run_s: r.run_s,
        step_ms: r.step_ms,
        requests: r.requests,
        allocs: r.allocs,
        alloc_bytes: r.alloc_bytes,
        submit_ms: Vec::new(),
        digest: r.digest,
        ops: 1,
        failed: u64::from(!conserved),
    }
    .to_json()
}

pub fn traced(args: &Args) -> (Value, Layers) {
    let seed = args.seed;
    let root = trace::phase("scale_1m");
    let p = trace::phase("setup");
    let s = setup(seed);
    trace::end(p);
    let (r, t) = run(s);
    let text = counters_text("scale_1m", seed, &r.digest);
    let (_, wrong) = cache_hits(&args.out, &text, crate::cache_key_fn(args));
    trace::end(root);

    let tracer = trace::take().expect("tracing installed");
    let mut layers = Layers::new();
    let micro = tracer.layer(Layer::Microsim);
    let inject = tracer.layer(Layer::Inject);
    let work = tracer.layer(Layer::Workload);
    let requests = (r.requests as f64).max(1.0);
    let events = r.digest.events as f64;
    layers.set("microsim.busy_s", micro.secs);
    layers.set("microsim.events_per_busy_s", events / micro.secs.max(1e-9));
    layers.set("microsim.events", events);
    layers.set(
        "microsim.spans_per_request",
        r.digest.spans as f64 / requests,
    );
    layers.set("microsim.allocs", (micro.allocs + inject.allocs) as f64);
    layers.set(
        "microsim.allocs_per_request",
        micro.allocs as f64 / requests,
    );
    layers.set("microsim.inject_s", inject.secs);
    layers.set("workload.next_action_s", work.secs);
    layers.set("workload.actions", r.actions as f64);
    layers.set("workload.allocs", work.allocs as f64);
    let kept = t.world.warehouse().ingested().div_ceil(SAMPLE_EVERY);
    layers.set(
        "telemetry.trace_keep_ratio",
        kept as f64 / (r.digest.completed as f64).max(1.0),
    );
    layers.set("topo.build_s", tracer.layer(Layer::TopoBuild).secs);
    layers.set(
        "shard.critical_path_ratio",
        events / (t.world.critical_path_events() as f64).max(1.0),
    );
    layers.set("shard.sys_cpu_s", r.cpu_s.1);
    layers.set(
        "shard.cpu_per_wall",
        (r.cpu_s.0 + r.cpu_s.1) / r.run_s.max(1e-9),
    );
    crate::fill_cache_layers(&mut layers, &tracer);
    let total = r.allocs + tracer.worker_allocs();
    layers.set("alloc.total", total as f64);
    layers.set(
        "alloc.unattributed",
        total.saturating_sub(micro.allocs + inject.allocs + work.allocs) as f64,
    );
    let conserved = r.digest.completed + r.digest.dropped == r.requests;
    let out = json!({
        "run_s": r.run_s,
        "digest": r.digest.to_json(),
        "ops": 2 + crate::LOOKUPS as u64,
        "failed": wrong + u64::from(!conserved),
        "spans": crate::write_spans(args, &tracer),
    });
    (out, layers)
}
