//! `wire_session_net`: an in-process `sora-server` on loopback, one
//! client and one connection in a closed loop. The client opens a live
//! session on a networked Social Network spec, subscribes to 1-s
//! telemetry, steps it one simulated second per `StepUntil`, and finishes
//! it, which fills the result cache. With `--submits N` it then submits the
//! same spec `N` times, every one a cache hit (the untraced run of a traced
//! benchmark run does 100).

use crate::alloc;
use crate::common::{cache_hits, fnv_str, percentile, Digest, Measured, TempDir};
use crate::layers::Layers;
use crate::scenario::{fill_stepped_layers, spec_text, stepped_run};
use crate::trace::{self, Layer};
use crate::Args;
use serde_json::{json, Value};
use sim_core::{SimDuration, SimTime};
use sora_bench::ScenarioSpec;
use sora_server::{
    read_frame, serve, stop_flag, write_frame, LiveSession, Reply, Request, ResultCache,
};
use std::io::{BufReader, BufWriter, Cursor, Read};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

pub const SPEC: &str = include_str!("../specs/wire_session_net.json");
pub const DEFAULT_SEED: u64 = 77;

/// A loopback server with a fresh result cache, stopped on drop.
struct Server {
    addr: std::net::SocketAddr,
    handle: Option<JoinHandle<std::io::Result<()>>>,
    _cache: TempDir,
}

impl Server {
    fn start(args: &Args) -> Server {
        let dir = TempDir::new(&args.out, "wire-cache");
        let cache = ResultCache::open(&dir.0).expect("cache directory");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local address");
        let handle = std::thread::spawn(move || serve(listener, Some(cache), stop_flag()));
        Server {
            addr,
            handle: Some(handle),
            _cache: dir,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        sora_server::request_stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The benchmark's wire client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    ops: u64,
    failed: u64,
    /// Reply bytes read (counted only with tracing on).
    reply_bytes: u64,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.addr).expect("connect loopback");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: BufWriter::new(stream),
            ops: 0,
            failed: 0,
            reply_bytes: 0,
        }
    }

    fn send(&mut self, request: &Request) {
        self.ops += 1;
        if write_frame(&mut self.writer, request).is_err() {
            self.failed += 1;
        }
    }

    /// Reads one reply. With tracing on, the frame's bytes are read first
    /// and `read_frame` is timed on the buffered copy, so decode time
    /// excludes waiting for the server.
    fn recv(&mut self) -> Option<Reply> {
        if !trace::enabled() {
            return read_frame(&mut self.reader).ok();
        }
        let mut prefix = [0u8; 4];
        self.reader.read_exact(&mut prefix).ok()?;
        let len = u32::from_be_bytes(prefix) as usize;
        let mut frame = Vec::with_capacity(len + 4);
        frame.extend_from_slice(&prefix);
        frame.resize(len + 4, 0);
        self.reader.read_exact(&mut frame[4..]).ok()?;
        let p = trace::begin(Layer::Decode);
        let reply = read_frame(&mut Cursor::new(&frame)).ok();
        trace::end(p);
        self.reply_bytes += frame.len() as u64;
        reply
    }

    fn fail(&mut self) {
        self.failed += 1;
    }
}

/// One full wire session.
struct Session {
    setup_s: Vec<f64>,
    run_s: f64,
    step_ms: Vec<f64>,
    allocs: alloc::Metering,
    text: String,
    submit_ms: Vec<f64>,
    digest: Digest,
    requests: u64,
    reply_bytes: u64,
    ops: u64,
    failed: u64,
}

fn session(args: &Args, scenario: &str, duration: u64) -> Session {
    let server = Server::start(args);
    let mut c = Client::connect(&server);

    // Set-up: the `Init` round trip (repeated; each replaces the session).
    let mut setup_s = Vec::new();
    for _ in 0..args.setups.max(1) {
        let start = Instant::now();
        let p = trace::phase("wire.init");
        c.send(&Request::Init {
            scenario: scenario.to_string(),
        });
        let ok = matches!(c.recv(), Some(Reply::Inited { .. }));
        trace::end(p);
        setup_s.push(start.elapsed().as_secs_f64());
        if !ok {
            c.fail();
        }
    }
    c.send(&Request::Subscribe { period_secs: 1.0 });
    if !matches!(c.recv(), Some(Reply::Subscribed)) {
        c.fail();
    }

    let base = alloc::process_totals();
    alloc::set_process_wide(true);
    let start = Instant::now();
    let mut step_ms = Vec::with_capacity(duration as usize);
    for k in 1..=duration {
        let t = Instant::now();
        let p = trace::phase("wire.step_until");
        c.send(&Request::StepUntil { t_secs: k as f64 });
        let mut frames = 0u64;
        let done = loop {
            match c.recv() {
                Some(Reply::Telemetry { .. }) => frames += 1,
                Some(Reply::Stepped { workload_done, .. }) => break workload_done,
                _ => {
                    c.fail();
                    break true;
                }
            }
        };
        trace::end_with(p, &[("sim_s", k as f64), ("frames", frames as f64)]);
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if done {
            break;
        }
    }
    let p = trace::phase("wire.finish");
    c.send(&Request::Finish);
    let text = match c.recv() {
        Some(Reply::Result { text, .. }) => text,
        _ => {
            c.fail();
            String::new()
        }
    };
    trace::end(p);
    let run_s = start.elapsed().as_secs_f64();
    alloc::set_process_wide(false);
    let after = alloc::process_totals();
    let allocs = alloc::Metering {
        total: sim_core::allocmeter::AllocStats {
            count: after.count - base.count,
            bytes: after.bytes - base.bytes,
        },
        ..Default::default()
    };

    let mut submit_ms = Vec::with_capacity(args.submits);
    for _ in 0..args.submits {
        let t = Instant::now();
        let p = trace::phase("wire.submit");
        c.send(&Request::Submit {
            scenario: scenario.to_string(),
        });
        let same = matches!(c.recv(), Some(Reply::Result { text: ref t, .. }) if *t == text);
        trace::end(p);
        submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !same {
            c.fail();
        }
    }
    c.send(&Request::Shutdown);
    if !matches!(c.recv(), Some(Reply::ShuttingDown)) {
        c.fail();
    }
    drop(server);

    let (digest, requests) = text_digest(&text);
    Session {
        setup_s,
        run_s,
        step_ms,
        allocs,
        text,
        submit_ms,
        digest,
        requests,
        reply_bytes: c.reply_bytes,
        ops: c.ops,
        failed: c.failed,
    }
}

/// The digest the wire can see: the result summary and the text's FNV.
/// Event and span counters stay in the server, so they read 0 here.
fn text_digest(text: &str) -> (Digest, u64) {
    let value = serde_json::parse(text).unwrap_or(Value::Null);
    let summary = value
        .as_object()
        .and_then(|o| o.get("summary"))
        .and_then(Value::as_object);
    let field = |name: &str| summary.and_then(|s| s.get(name));
    let completed = field("completed").and_then(Value::as_u64).unwrap_or(0);
    let dropped = field("dropped").and_then(Value::as_u64).unwrap_or(0);
    let p99 = field("p99_ms").and_then(Value::as_f64).unwrap_or(f64::NAN);
    let digest = Digest {
        completed,
        dropped,
        p99_bits: p99.to_bits(),
        fnv: fnv_str(text),
        ..Digest::default()
    };
    (digest, completed + dropped)
}

fn spec_and_text(args: &Args) -> (ScenarioSpec, String) {
    let text = spec_text(SPEC, args.seed);
    let spec = ScenarioSpec::parse(&text).expect("spec validates");
    (spec, text)
}

pub fn measure(args: &Args) -> Value {
    let (spec, text) = spec_and_text(args);
    let s = session(args, &text, spec.duration_secs);
    Measured {
        setup_s: s.setup_s,
        run_s: s.run_s,
        step_ms: s.step_ms,
        requests: s.requests,
        allocs: s.allocs.total.count,
        alloc_bytes: s.allocs.total.bytes,
        submit_ms: s.submit_ms,
        digest: s.digest,
        ops: s.ops,
        failed: s.failed,
    }
    .to_json()
}

/// The cross-path reference: the spec run in process.
pub fn check(args: &Args) -> Value {
    let (spec, _) = spec_and_text(args);
    let outcome = spec.run();
    let text = sora_bench::scenario_result_text(&spec, &outcome);
    json!({ "digest": text_digest(&text).0.to_json() })
}

pub fn traced(args: &Args) -> (Value, Layers) {
    let (spec, text) = spec_and_text(args);
    let root = trace::phase("wire_session_net");
    let s = session(args, &text, spec.duration_secs);

    // The server's own step path, in process: a LiveSession replay of the
    // same steps under the same subscription.
    let p = trace::phase("server.replay");
    let mut live = LiveSession::new(spec.clone());
    live.subscribe(SimDuration::from_secs(1));
    let mut session_ms = Vec::with_capacity(spec.duration_secs as usize);
    for k in 1..=spec.duration_secs {
        let t = Instant::now();
        let p = trace::span(Layer::Session, "server.session_step");
        let (_, done) = live.step_until(SimTime::from_secs(k), |_| {});
        trace::end(p);
        session_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if done {
            break;
        }
    }
    let (_, live_text) = live.finish();
    trace::end(p);

    // The controller and world layers: the stepper run with observers.
    let p = trace::span(Layer::ConfigParse, "config.parse");
    let spec2 = ScenarioSpec::parse(&text).expect("spec validates");
    trace::end(p);
    let p = trace::span(Layer::ConfigBuild, "config.build");
    let built = spec2.build();
    trace::end(p);
    let run = stepped_run(&spec2, built);
    let (_, wrong) = cache_hits(&args.out, &s.text, crate::cache_key_fn(args));
    trace::end(root);

    let tracer = trace::take().expect("tracing installed");
    let mut layers = Layers::new();
    fill_stepped_layers(&mut layers, &run, &tracer);
    layers.set("config.parse_s", tracer.layer(Layer::ConfigParse).secs);
    layers.set("config.build_s", tracer.layer(Layer::ConfigBuild).secs);
    layers.set("server.session_step_s", tracer.layer(Layer::Session).secs);
    layers.set("server.session_step_p50_ms", percentile(&session_ms, 50.0));
    layers.set("server.reply_bytes", s.reply_bytes as f64);
    layers.set("server.decode_s", tracer.layer(Layer::Decode).secs);
    crate::fill_cache_layers(&mut layers, &tracer);

    let mismatched = u64::from(live_text != s.text) + u64::from(run.text != s.text);
    let out = json!({
        "run_s": s.run_s,
        "digest": s.digest.to_json(),
        "ops": s.ops + 2 + crate::LOOKUPS as u64,
        "failed": s.failed + mismatched + wrong,
        "spans": crate::write_spans(args, &tracer),
    });
    (out, layers)
}
