//! The traced run's recorder: layer accumulators plus an in-memory span
//! list, written as Chrome trace-event JSON when the run ends.
//!
//! Tracing is outside-in: the benchmark brackets its own calls into each
//! layer's public functions with [`begin`]/[`end`]. Hot per-action calls
//! (millions of them on `scale_1m`) only feed the per-layer accumulators;
//! coarse calls (set-up phases, simulated-second steps, control ticks,
//! wire requests) also record a span. When tracing is off, [`begin`]
//! returns `None` after one thread-local read and [`end`] does nothing.

use crate::alloc::{Metered, Metering};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// A layer the benchmark times from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One simulated-second step of a stepper-driven run (inclusive).
    Step,
    /// `World::run_until_into`.
    Microsim,
    /// `World::inject_at`.
    Inject,
    /// `UserPool::next_action`.
    Workload,
    /// `Controller::control` of the scenario's controller stack.
    Control,
    /// `per_service_stats` over the warehouse window.
    Observe,
    /// The benchmark's own `ConcurrencyEstimator::estimate`.
    Estimate,
    /// `topo::build`.
    TopoBuild,
    /// `ScenarioSpec::parse`.
    ConfigParse,
    /// `ScenarioSpec::build`.
    ConfigBuild,
    /// In-process `LiveSession::step_until`.
    Session,
    /// Client-side `read_frame` on buffered reply bytes.
    Decode,
    /// Cache-key derivation.
    CacheKey,
    /// `ResultCache::lookup`.
    CacheLookup,
}

const LAYERS: usize = 14;

/// Totals of one layer over the traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Wall seconds inside the layer's calls.
    pub secs: f64,
    /// Number of calls.
    pub calls: u64,
    /// Allocations made inside the calls (workers included).
    pub allocs: u64,
    /// Bytes allocated inside the calls (workers included).
    pub bytes: u64,
}

const MAX_ARGS: usize = 3;
/// Span records are preallocated so recording never allocates inside a
/// metered region; spans beyond this are counted but not kept.
const SPAN_CAP: usize = 1 << 15;

struct SpanRec {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<u32>,
    args: [(&'static str, f64); MAX_ARGS],
    nargs: usize,
}

/// The recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    run_id: u64,
    layers: [Acc; LAYERS],
    worker_allocs: u64,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
    spans_dropped: u64,
}

impl Tracer {
    /// Accumulated totals of `layer`.
    pub fn layer(&self, layer: Layer) -> Acc {
        self.layers[layer as usize]
    }

    /// Allocations that adopted workers folded into probe scopes rather
    /// than into the enclosing run scope.
    pub fn worker_allocs(&self) -> u64 {
        self.worker_allocs
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Renders the spans as Chrome trace-event JSON (`ph: "X"` complete
    /// events, microsecond timestamps); `args` carry the span id, parent
    /// and run id alongside the span's own values.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160 + 128);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"run_id\":{}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_us,
                (s.end_us - s.start_us).max(0.0),
                i,
                self.run_id
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, ",\"parent\":{p}");
                }
                None => out.push_str(",\"parent\":null"),
            }
            for &(k, v) in &s.args[..s.nargs] {
                let _ = write!(out, ",\"{k}\":{}", json_num(v));
            }
            out.push_str("}}");
        }
        let _ = write!(
            out,
            "],\"otherData\":{{\"run_id\":{},\"spans_dropped\":{}}}}}",
            self.run_id, self.spans_dropped
        );
        out
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Turns tracing on for the calling thread.
pub fn install(run_id: u64) {
    let tracer = Tracer {
        origin: Instant::now(),
        run_id,
        layers: [Acc::default(); LAYERS],
        worker_allocs: 0,
        spans: Vec::with_capacity(SPAN_CAP),
        open: Vec::with_capacity(64),
        spans_dropped: 0,
    };
    TRACER.with(|t| *t.borrow_mut() = Some(tracer));
}

/// Turns tracing off and returns what was recorded.
pub fn take() -> Option<Tracer> {
    TRACER.with(|t| t.borrow_mut().take())
}

/// Whether tracing is on for the calling thread.
pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

/// An open traced call.
pub struct Probe {
    layer: Option<Layer>,
    span: Option<u32>,
    meter: Metered,
    start: Instant,
}

fn open(layer: Option<Layer>, name: Option<&'static str>) -> Option<Probe> {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let tracer = guard.as_mut()?;
        let span = name.and_then(|name| {
            if tracer.spans.len() >= SPAN_CAP {
                tracer.spans_dropped += 1;
                return None;
            }
            let id = tracer.spans.len() as u32;
            tracer.spans.push(SpanRec {
                name,
                start_us: tracer.origin.elapsed().as_secs_f64() * 1e6,
                end_us: 0.0,
                parent: tracer.open.last().copied(),
                args: [("", 0.0); MAX_ARGS],
                nargs: 0,
            });
            tracer.open.push(id);
            Some(id)
        });
        Some(Probe {
            layer,
            span,
            meter: Metered::begin(),
            start: Instant::now(),
        })
    })
}

/// Starts a call into `layer` that only feeds the layer's totals.
#[inline]
pub fn begin(layer: Layer) -> Option<Probe> {
    open(Some(layer), None)
}

/// Starts a call into `layer` that also records a span named `name`.
pub fn span(layer: Layer, name: &'static str) -> Option<Probe> {
    open(Some(layer), Some(name))
}

/// Starts a span that belongs to no layer (run and phase brackets).
pub fn phase(name: &'static str) -> Option<Probe> {
    open(None, Some(name))
}

/// Ends a call; returns its wall seconds and allocations (zero when
/// tracing is off).
#[inline]
pub fn end(probe: Option<Probe>) -> (f64, Metering) {
    end_with(probe, &[])
}

/// Ends a call, attaching up to three numeric values to its span.
pub fn end_with(probe: Option<Probe>, args: &[(&'static str, f64)]) -> (f64, Metering) {
    let Some(p) = probe else {
        return (0.0, Metering::default());
    };
    let secs = p.start.elapsed().as_secs_f64();
    let metering = p.meter.finish();
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let Some(tracer) = guard.as_mut() else { return };
        tracer.worker_allocs += metering.workers.count;
        if let Some(layer) = p.layer {
            let acc = &mut tracer.layers[layer as usize];
            acc.secs += secs;
            acc.calls += 1;
            acc.allocs += metering.total.count;
            acc.bytes += metering.total.bytes;
        }
        if let Some(id) = p.span {
            let end_us = tracer.origin.elapsed().as_secs_f64() * 1e6;
            let rec = &mut tracer.spans[id as usize];
            rec.end_us = end_us;
            for (slot, &arg) in rec.args.iter_mut().zip(args.iter().take(MAX_ARGS)) {
                *slot = arg;
            }
            rec.nargs = args.len().min(MAX_ARGS);
            if tracer.open.last() == Some(&id) {
                tracer.open.pop();
            }
        }
    });
    (secs, metering)
}
