//! The benchmark's worker binary: runs one workload once, in one process,
//! and prints one JSON line. `run.py` starts it once per measured run (so
//! each run has its own peak RSS) and aggregates.
//!
//! ```text
//! perfbench <workload> --mode measure|fetch|check|trace --seed N
//!           [--setups K] [--submits N] [--out DIR]
//! ```
//!
//! * `measure` — the untraced run: set-up repeated `K` times, one measured
//!   run, digest; the wire workload also times its cache-hit submits.
//! * `fetch` — in a fresh process, fetch the result a `measure` run left
//!   behind from a fresh result cache, `LOOKUPS` times (`submit_hit_*`).
//! * `check` — the cross-path reference run whose digest must equal the
//!   measured one (`ScenarioSpec::run`, one shard, or the in-process run).
//! * `trace` — the traced run: per-layer metrics and a Chrome trace-event
//!   span file under `--out`.

mod alloc;
mod common;
mod layers;
mod par;
mod scale;
mod scenario;
mod sockshop;
mod trace;
mod wire;

use layers::Layers;
use serde_json::{json, Value};
use sora_bench::ScenarioSpec;
use std::path::PathBuf;
use trace::{Layer, Tracer};

/// In-process cache fetches per run (the `submit_hit_*` samples).
pub const LOOKUPS: usize = 5_000;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub mode: String,
    pub seed: u64,
    pub setups: usize,
    pub submits: usize,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or("missing workload")?;
    let mut args = Args {
        seed: default_seed(&workload).ok_or(format!("unknown workload {workload}"))?,
        workload,
        mode: "measure".to_string(),
        setups: 3,
        submits: 0,
        out: PathBuf::from(".bench_out"),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--mode" => args.mode = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--setups" => args.setups = value.parse().map_err(bad)?,
            "--submits" => args.submits = value.parse().map_err(bad)?,
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn default_seed(workload: &str) -> Option<u64> {
    Some(match workload {
        "sockshop_sora" => sockshop::DEFAULT_SEED,
        "scale_1m" => scale::DEFAULT_SEED,
        "par_scale_2shard" => par::DEFAULT_SEED,
        "wire_session_net" => wire::DEFAULT_SEED,
        _ => return None,
    })
}

/// Writes the traced run's spans as Chrome trace-event JSON; returns the
/// file and span count for the report.
pub fn write_spans(args: &Args, tracer: &Tracer) -> Value {
    let path = args
        .out
        .join(format!("spans-{}-{}.json", args.workload, args.seed));
    let written = std::fs::write(&path, tracer.chrome_json()).is_ok();
    json!({
        "file": path.display().to_string(),
        "count": if written { tracer.span_count() } else { 0 },
    })
}

/// The key a workload's result is cached under: the spec's content key
/// for the spec workloads, a content hash of the workload's description
/// for the others.
pub fn cache_key_fn(args: &Args) -> Box<dyn Fn() -> String> {
    let seed = args.seed;
    match args.workload.as_str() {
        "scale_1m" => Box::new(move || scale::key_of(seed)),
        "par_scale_2shard" => Box::new(move || par::key_of(seed)),
        w => {
            let base = if w == "sockshop_sora" {
                sockshop::SPEC
            } else {
                wire::SPEC
            };
            let spec =
                ScenarioSpec::parse(&scenario::spec_text(base, seed)).expect("spec validates");
            Box::new(move || sora_server::cache_key(&spec))
        }
    }
}

/// The `fetch` mode: a fresh process serves the result a `measure` run
/// left behind from a fresh result cache, as the server does on a cache
/// hit, minus the socket.
fn fetch(args: &Args) -> Value {
    let text =
        std::fs::read_to_string(common::result_path(args)).expect("result of the measured run");
    let (ms, wrong) = common::cache_hits(&args.out, &text, cache_key_fn(args));
    json!({
        "submit_hit_p50_ms": common::percentile(&ms, 50.0),
        "submit_hit_p95_ms": common::percentile(&ms, 95.0),
        "submit_samples": ms.len(),
        "ops": ms.len(),
        "failed": wrong,
    })
}

/// The cache-hit probe's two layers, common to every workload.
pub fn fill_cache_layers(layers: &mut Layers, tracer: &Tracer) {
    layers.set("server.cache_key_s", tracer.layer(Layer::CacheKey).secs);
    layers.set(
        "server.cache_lookup_s",
        tracer.layer(Layer::CacheLookup).secs,
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let w = args.workload.as_str();
    let out = match args.mode.as_str() {
        "measure" => match w {
            "sockshop_sora" => sockshop::measure(&args),
            "scale_1m" => scale::measure(&args),
            "par_scale_2shard" => par::measure(&args),
            _ => wire::measure(&args),
        },
        "fetch" => fetch(&args),
        "check" => match w {
            "sockshop_sora" => sockshop::check(&args),
            "par_scale_2shard" => par::check(&args),
            "wire_session_net" => wire::check(&args),
            _ => {
                eprintln!("perfbench: {w} has no cross-path check");
                std::process::exit(2);
            }
        },
        "trace" => {
            trace::install(args.seed);
            let (mut out, layers) = match w {
                "sockshop_sora" => sockshop::traced(&args),
                "scale_1m" => scale::traced(&args),
                "par_scale_2shard" => par::traced(&args),
                _ => wire::traced(&args),
            };
            if let Value::Object(map) = &mut out {
                map.insert("layers".to_string(), layers.to_json());
            }
            out
        }
        other => {
            eprintln!("perfbench: unknown mode {other}");
            std::process::exit(2);
        }
    };
    println!("{}", serde_json::to_string(&out).expect("serialises"));
}
