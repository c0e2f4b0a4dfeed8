//! `sockshop_sora`: the paper's flagship run (Sock Shop, SteepTriPhase,
//! 3,500 users, 720 simulated seconds, FIRM + Sora).

use crate::common::{cache_hits, repeat_setup, result_path, Measured};
use crate::layers::Layers;
use crate::scenario::{fill_stepped_layers, outcome_digest, spec_text, stepped_run};
use crate::trace::{self, Layer};
use crate::Args;
use serde_json::{json, Value};
use sora_bench::{scenario_result_text, ScenarioSpec};

/// A copy of `scenarios/fig10_sora.json`, so the workload stays fixed
/// whatever later changes make to the repository's scenario files.
pub const SPEC: &str = include_str!("../specs/sockshop_sora.json");
pub const DEFAULT_SEED: u64 = 42;

pub fn measure(args: &Args) -> Value {
    let text = spec_text(SPEC, args.seed);
    let (setup_s, (spec, built)) = repeat_setup(args.setups, || {
        let spec = ScenarioSpec::parse(&text).expect("spec validates");
        let built = spec.build();
        (spec, built)
    });
    let run = stepped_run(&spec, built);
    std::fs::write(result_path(args), &run.text).expect("write result text");
    Measured {
        setup_s,
        run_s: run.run_s,
        step_ms: run.step_ms.clone(),
        requests: run.outcome.world.requests_injected(),
        allocs: run.allocs,
        alloc_bytes: run.alloc_bytes,
        submit_ms: Vec::new(),
        digest: run.digest(),
        ops: 1,
        failed: 0,
    }
    .to_json()
}

/// The cross-path reference: one `ScenarioSpec::run`, which the stepped
/// run must equal byte for byte.
pub fn check(args: &Args) -> Value {
    let spec = ScenarioSpec::parse(&spec_text(SPEC, args.seed)).expect("spec validates");
    let outcome = spec.run();
    let text = scenario_result_text(&spec, &outcome);
    json!({ "digest": outcome_digest(&outcome, &text).to_json() })
}

pub fn traced(args: &Args) -> (Value, Layers) {
    let text = spec_text(SPEC, args.seed);
    let root = trace::phase("sockshop_sora");
    let p = trace::span(Layer::ConfigParse, "config.parse");
    let spec = ScenarioSpec::parse(&text).expect("spec validates");
    trace::end(p);
    let p = trace::span(Layer::ConfigBuild, "config.build");
    let built = spec.build();
    trace::end(p);
    let run = stepped_run(&spec, built);
    let (_, wrong) = cache_hits(&args.out, &run.text, crate::cache_key_fn(args));
    trace::end(root);

    let tracer = trace::take().expect("tracing installed");
    let mut layers = Layers::new();
    fill_stepped_layers(&mut layers, &run, &tracer);
    layers.set("config.parse_s", tracer.layer(Layer::ConfigParse).secs);
    layers.set("config.build_s", tracer.layer(Layer::ConfigBuild).secs);
    crate::fill_cache_layers(&mut layers, &tracer);
    let out = json!({
        "run_s": run.run_s,
        "digest": run.digest().to_json(),
        "ops": 1 + crate::LOOKUPS as u64,
        "failed": wrong,
        "spans": crate::write_spans(args, &tracer),
    });
    (out, layers)
}
