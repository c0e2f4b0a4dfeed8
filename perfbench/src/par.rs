//! `par_scale_2shard`: the `par_scale` bench's 5,000-service open-loop
//! world (120k requests over 12 s) on the sharded engine at two shards,
//! partitioned by `topo`'s shard plan. The seed is the world seed
//! (`par_scale` commits 0x5048); the topology structure stays the preset's.

use crate::alloc::Metered;
use crate::common::{
    cache_hits, counters_text, cpu_times, repeat_setup, result_path, Digest, Fnv, Measured,
};
use crate::layers::Layers;
use crate::trace::{self, Layer};
use crate::Args;
use microsim::{World, WorldConfig};
use serde_json::{json, Value};
use sim_core::{Dist, SimDuration, SimRng, SimTime};
use sora_server::content_hash;
use std::time::Instant;
use topo::TopoParams;

pub const DEFAULT_SEED: u64 = 0x5048;
const SERVICES: usize = 5_000;
const REQUESTS: u64 = 120_000;
const SIM_SECS: u64 = 12;
const SAMPLE_EVERY: u64 = 1024;
pub const SHARDS: usize = 2;
/// Simulated time per `run_until_into` segment (one `step_rtt` sample).
const STEP_MS: u64 = 1_000;

/// Builds, partitions and loads the world: everything before the first
/// event.
fn setup(seed: u64, shards: usize) -> World {
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
    let mut t = topo::build(&params, config, SimRng::seed_from(seed));
    trace::end(p);
    let p = trace::phase("shard.plan");
    t.world
        .enable_sharding_with_plan(&t.shard_plan(shards))
        .expect("fresh world accepts sharding");
    trace::end(p);
    // Open-loop arrivals, evenly spaced, round-robin over request types:
    // the offered load never depends on the shard count.
    let p = trace::span(Layer::Inject, "microsim.inject");
    let span_nanos = SIM_SECS * 1_000_000_000;
    for i in 0..REQUESTS {
        let at = SimTime::from_nanos(span_nanos * i / REQUESTS);
        let rt = t.request_types[(i % t.request_types.len() as u64) as usize];
        t.world.inject_at(at, rt);
    }
    trace::end(p);
    t.world
}

struct Run {
    digest: Digest,
    requests: u64,
    critical_path_events: u64,
    ingested: u64,
    quiescent: bool,
    run_s: f64,
    step_ms: Vec<f64>,
    allocs: u64,
    alloc_bytes: u64,
    cpu_s: (f64, f64),
}

fn run(mut world: World) -> Run {
    let mut done = Vec::new();
    let steps = SIM_SECS * 1000 / STEP_MS;
    let mut step_ms = Vec::with_capacity(steps as usize);
    let (user0, sys0) = cpu_times();
    let meter = Metered::begin();
    let start = Instant::now();
    for k in 1..=steps {
        let t = Instant::now();
        let p = trace::span(Layer::Microsim, "step");
        let until = SimTime::from_millis(k * STEP_MS);
        world.run_until_into(until, &mut done);
        trace::end_with(p, &[("sim_s", until.as_secs_f64())]);
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let p = trace::span(Layer::Microsim, "drain");
    world.run_until_into(
        SimTime::from_secs(SIM_SECS) + SimDuration::from_secs(30),
        &mut done,
    );
    trace::end(p);
    let run_s = start.elapsed().as_secs_f64();
    let metering = meter.finish();
    let (user1, sys1) = cpu_times();

    let mut comp = Fnv::new();
    for c in &done {
        comp.write_u64(c.issued.as_nanos());
        comp.write_u64(c.completed.as_nanos());
        comp.write(format!("{:?}|{:?}", c.request, c.rtype).as_bytes());
    }
    for (req, reason) in world.drain_dropped() {
        comp.write(format!("{req:?}|{reason:?}").as_bytes());
    }
    let client = world.client();
    Run {
        digest: Digest {
            completed: client.total(),
            dropped: world.dropped(),
            events: world.events_dispatched(),
            spans: world.spans_created(),
            p99_bits: client
                .percentile(99.0)
                .map_or(0.0, |d| d.as_millis_f64())
                .to_bits(),
            fnv: comp.0,
        },
        requests: world.requests_injected(),
        critical_path_events: world.critical_path_events(),
        ingested: world.warehouse().ingested(),
        quiescent: world.is_quiescent(),
        run_s,
        step_ms,
        allocs: metering.total.count,
        alloc_bytes: metering.total.bytes,
        cpu_s: (user1 - user0, sys1 - sys0),
    }
}

pub fn key_of(seed: u64) -> String {
    content_hash(&format!(
        "par_scale services={SERVICES} requests={REQUESTS} seed={seed}"
    ))
}

fn sane(r: &Run) -> bool {
    r.quiescent && r.digest.completed + r.digest.dropped == r.requests && r.requests == REQUESTS
}

pub fn measure(args: &Args) -> Value {
    let seed = args.seed;
    let (setup_s, world) = repeat_setup(args.setups, || setup(seed, SHARDS));
    let r = run(world);
    let text = counters_text("par_scale_2shard", seed, &r.digest);
    std::fs::write(result_path(args), &text).expect("write result text");
    Measured {
        setup_s,
        run_s: r.run_s,
        step_ms: r.step_ms.clone(),
        requests: r.requests,
        allocs: r.allocs,
        alloc_bytes: r.alloc_bytes,
        submit_ms: Vec::new(),
        digest: r.digest,
        ops: 1,
        failed: u64::from(!sane(&r)),
    }
    .to_json()
}

/// The cross-path reference: the same world at one shard.
pub fn check(args: &Args) -> Value {
    let r = run(setup(args.seed, 1));
    json!({ "digest": r.digest.to_json(), "run_s": r.run_s, "failed": u64::from(!sane(&r)) })
}

pub fn traced(args: &Args) -> (Value, Layers) {
    let seed = args.seed;
    let root = trace::phase("par_scale_2shard");
    let world = setup(seed, SHARDS);
    let r = run(world);
    let text = counters_text("par_scale_2shard", seed, &r.digest);
    let (_, wrong) = cache_hits(&args.out, &text, crate::cache_key_fn(args));
    trace::end(root);
    let tracer = trace::take().expect("tracing installed");

    // The one-shard baseline for the wall-clock speedup, untraced.
    let base = run(setup(seed, 1));
    let same = base.digest == r.digest;

    let mut layers = Layers::new();
    let micro = tracer.layer(Layer::Microsim);
    let requests = (r.requests as f64).max(1.0);
    let events = r.digest.events as f64;
    layers.set("microsim.busy_s", micro.secs);
    layers.set("microsim.events_per_busy_s", events / micro.secs.max(1e-9));
    layers.set("microsim.events", events);
    layers.set(
        "microsim.spans_per_request",
        r.digest.spans as f64 / requests,
    );
    layers.set("microsim.allocs", micro.allocs as f64);
    layers.set(
        "microsim.allocs_per_request",
        micro.allocs as f64 / requests,
    );
    layers.set("microsim.inject_s", tracer.layer(Layer::Inject).secs);
    layers.set("topo.build_s", tracer.layer(Layer::TopoBuild).secs);
    layers.set(
        "telemetry.trace_keep_ratio",
        r.ingested.div_ceil(SAMPLE_EVERY) as f64 / (r.digest.completed as f64).max(1.0),
    );
    layers.set(
        "shard.critical_path_ratio",
        events / (r.critical_path_events as f64).max(1.0),
    );
    layers.set("shard.wall_speedup", base.run_s / r.run_s.max(1e-9));
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
        total.saturating_sub(micro.allocs) as f64,
    );
    let out = json!({
        "run_s": r.run_s,
        "digest": r.digest.to_json(),
        "shards1_digest": base.digest.to_json(),
        "ops": 3 + crate::LOOKUPS as u64,
        "failed": wrong + u64::from(!sane(&r)) + u64::from(!sane(&base)) + u64::from(!same),
        "spans": crate::write_spans(args, &tracer),
    });
    (out, layers)
}
