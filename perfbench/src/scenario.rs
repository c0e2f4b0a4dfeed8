//! Spec-driven runs: `ScenarioSpec::{parse, build}` plus a
//! `ScenarioStepper` advanced one simulated second at a time. Used by
//! `sockshop_sora` directly and by `wire_session_net` for its in-process
//! replay.
//!
//! Stepping is invisible to the simulation (the stepper pauses only
//! between whole workload actions), so a stepped run produces the bytes of
//! `ScenarioSpec::run`; the `check` mode runs the latter and compares.

use crate::alloc::Metered;
use crate::common::{cpu_times, fnv_str, Digest};
use crate::layers::Layers;
use crate::trace::{self, Layer, Tracer};
use microsim::World;
use scg::ScgModel;
use sim_core::{SimDuration, SimTime};
use sora_bench::config::App;
use sora_bench::{scenario_result_text, BuiltScenario, ScenarioOutcome, ScenarioSpec};
use sora_core::{ConcurrencyEstimator, Controller, ControllerStatus, EstimatorConfig};
use std::time::Instant;
use telemetry::{per_service_stats, ServiceId};

/// Parses `base` (a committed spec) and re-emits it with `seed`.
pub fn spec_text(base: &str, seed: u64) -> String {
    let mut spec = ScenarioSpec::parse(base).expect("embedded spec validates");
    spec.seed = seed;
    spec.emit()
}

/// The service the spec's controllers watch (Cart / Post Storage).
fn watched(spec: &ScenarioSpec) -> ServiceId {
    match spec.app {
        App::SocialNetwork => ServiceId(2),
        _ => ServiceId(1),
    }
}

/// Wraps the scenario's controller stack. With tracing off it only
/// forwards. With tracing on it times `control` and, before each tick,
/// runs two side observers that read `&World` only: the critical-path
/// pass over the warehouse window, and a benchmark-owned SCG estimator
/// for the watched service.
pub struct Watched {
    inner: Box<dyn Controller>,
    estimator: ConcurrencyEstimator,
    service: ServiceId,
    sla: SimDuration,
    window: SimDuration,
    pub ticks: u64,
    pub window_traces: u64,
}

impl Watched {
    pub fn new(inner: Box<dyn Controller>, spec: &ScenarioSpec) -> Watched {
        let config = EstimatorConfig::default();
        Watched {
            inner,
            estimator: ConcurrencyEstimator::new(config, ScgModel::default()),
            service: watched(spec),
            sla: SimDuration::from_millis(spec.sla_ms),
            window: config.window,
            ticks: 0,
            window_traces: 0,
        }
    }
}

impl Controller for Watched {
    fn control(&mut self, world: &mut World, now: SimTime) {
        if trace::enabled() {
            self.ticks += 1;
            let since = now.saturating_since(SimTime::ZERO);
            let from = if since > self.window {
                now - self.window
            } else {
                SimTime::ZERO
            };
            let p = trace::span(Layer::Observe, "telemetry.observe");
            let stats = per_service_stats(world.warehouse().iter_window(from, now));
            trace::end_with(p, &[("traces", stats.trace_count() as f64)]);
            self.window_traces += stats.trace_count();

            let p = trace::span(Layer::Estimate, "scg.estimate");
            let estimate = self.estimator.estimate(world, self.service, now, self.sla);
            trace::end_with(
                p,
                &[("optimal", estimate.map_or(-1.0, |e| e.optimal as f64))],
            );
        }
        let p = trace::span(Layer::Control, "core.control");
        self.inner.control(world, now);
        trace::end(p);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn status(&self) -> ControllerStatus {
        self.inner.status()
    }
}

/// A finished stepped run.
pub struct SteppedRun {
    pub outcome: ScenarioOutcome,
    pub text: String,
    pub run_s: f64,
    pub step_ms: Vec<f64>,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub cpu_s: (f64, f64),
    pub controller: Watched,
}

impl SteppedRun {
    pub fn digest(&self) -> Digest {
        outcome_digest(&self.outcome, &self.text)
    }
}

pub fn outcome_digest(outcome: &ScenarioOutcome, text: &str) -> Digest {
    Digest {
        completed: outcome.summary.completed,
        dropped: outcome.summary.dropped,
        events: outcome.world.events_dispatched(),
        spans: outcome.world.spans_created(),
        p99_bits: outcome.summary.p99_ms.to_bits(),
        fnv: fnv_str(text),
    }
}

/// Runs a built scenario to completion in one-simulated-second steps.
pub fn stepped_run(spec: &ScenarioSpec, built: BuiltScenario) -> SteppedRun {
    let BuiltScenario {
        mut world,
        scenario,
        controller,
    } = built;
    let mut controller = Watched::new(controller, spec);
    let mut stepper = scenario.into_stepper();
    let mut step_ms = Vec::with_capacity(spec.duration_secs as usize + 2);
    let (user0, sys0) = cpu_times();
    let meter = Metered::begin();
    let start = Instant::now();
    let mut k = 1;
    loop {
        let t = Instant::now();
        let p = trace::span(Layer::Step, "step");
        let done = stepper.step_until(&mut world, &mut controller, SimTime::from_secs(k));
        trace::end_with(p, &[("sim_s", k as f64)]);
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if done {
            break;
        }
        k += 1;
    }
    let p = trace::span(Layer::Step, "finish");
    let result = stepper.finish(&mut world, &mut controller);
    trace::end(p);
    let run_s = start.elapsed().as_secs_f64();
    let metering = meter.finish();
    let (user1, sys1) = cpu_times();
    let summary = result.summary;
    let outcome = ScenarioOutcome {
        result,
        summary,
        world,
    };
    let text = scenario_result_text(spec, &outcome);
    SteppedRun {
        outcome,
        text,
        run_s,
        step_ms,
        allocs: metering.total.count,
        alloc_bytes: metering.total.bytes,
        cpu_s: (user1 - user0, sys1 - sys0),
        controller,
    }
}

/// Fills the layers a traced stepped run measures. The stepper runs the
/// workload's `next_action` and the world's `run_until_into` inside one
/// `step_until` call, so `microsim.busy_s` is step time minus the
/// controller and observer time, with the user pool inside it.
pub fn fill_stepped_layers(layers: &mut Layers, run: &SteppedRun, tracer: &Tracer) {
    let world = &run.outcome.world;
    let step = tracer.layer(Layer::Step);
    let control = tracer.layer(Layer::Control);
    let observe = tracer.layer(Layer::Observe);
    let estimate = tracer.layer(Layer::Estimate);
    let busy = step.secs - control.secs - observe.secs - estimate.secs;
    let microsim_allocs = step
        .allocs
        .saturating_sub(control.allocs + observe.allocs + estimate.allocs);
    let requests = (world.requests_injected() as f64).max(1.0);
    let events = world.events_dispatched() as f64;
    layers.set("microsim.busy_s", busy);
    layers.set("microsim.events_per_busy_s", events / busy.max(1e-9));
    layers.set("microsim.events", events);
    layers.set(
        "microsim.spans_per_request",
        world.spans_created() as f64 / requests,
    );
    layers.set("microsim.allocs", microsim_allocs as f64);
    layers.set(
        "microsim.allocs_per_request",
        microsim_allocs as f64 / requests,
    );
    // Scenario worlds keep one trace in ten (`ScenarioSpec::build`).
    let kept = world.warehouse().ingested().div_ceil(10);
    layers.set(
        "telemetry.trace_keep_ratio",
        kept as f64 / (run.outcome.summary.completed as f64).max(1.0),
    );
    layers.set("telemetry.observe_s", observe.secs);
    layers.set("telemetry.observe_allocs", observe.allocs as f64);
    layers.set(
        "telemetry.window_traces",
        run.controller.window_traces as f64 / (run.controller.ticks as f64).max(1.0),
    );
    layers.set("core.control_s", control.secs);
    layers.set("core.control_allocs", control.allocs as f64);
    let status = run.controller.status();
    layers.set("core.actuations", status.actuations as f64);
    layers.set("core.frozen_periods", status.frozen_periods as f64);
    layers.set("scg.estimate_s", estimate.secs);
    layers.set("scg.estimate_allocs", estimate.allocs as f64);
    layers.set(
        "shard.critical_path_ratio",
        events / (world.critical_path_events() as f64).max(1.0),
    );
    layers.set("shard.sys_cpu_s", run.cpu_s.1);
    layers.set(
        "shard.cpu_per_wall",
        (run.cpu_s.0 + run.cpu_s.1) / run.run_s.max(1e-9),
    );
    if let Some(net) = world.network_stats() {
        layers.set("net.messages_per_request", net.messages as f64 / requests);
        layers.set("net.lost_total", net.lost_total() as f64);
        layers.set("net.call_retries", net.call_retries as f64);
    }
    let total = run.allocs + tracer.worker_allocs();
    layers.set("alloc.total", total as f64);
    layers.set(
        "alloc.unattributed",
        total.saturating_sub(step.allocs) as f64,
    );
}
