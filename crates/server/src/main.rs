//! `sora-server`: the simulation-as-a-service CLI.
//!
//! One binary, several roles:
//!
//! * `serve`     — TCP control plane hosting submissions and live sessions
//! * `worker`    — stdio worker process for the sweep farm
//! * `sweep`     — farm coordinator: fan scenarios across workers, cached
//! * `submit`    — client: run one scenario on a server, print its result
//! * `run-local` — run one scenario in-process, print its result (the
//!   byte-diff baseline for everything above)
//! * `canon-key` — print a scenario's content-addressed cache key
//! * `ping`      — client liveness probe

use sora_server::{
    cache_key, read_frame, run_farm, serve, worker_loop, write_frame, EntryStatus, FarmConfig,
    Reply, Request, ResultCache, ScenarioSpec,
};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: sora-server <mode> [options]\n\
         \n\
         modes:\n\
         \x20 serve --addr HOST:PORT [--cache DIR]   run the TCP control plane\n\
         \x20 worker                                 stdio worker (spawned by sweep)\n\
         \x20 sweep --cache DIR [--workers N] FILE...\n\
         \x20                                        run scenarios on a worker farm\n\
         \x20 submit --addr HOST:PORT FILE           run one scenario on a server\n\
         \x20 run-local FILE                         run one scenario in-process\n\
         \x20 canon-key FILE                         print a scenario's cache key\n\
         \x20 ping --addr HOST:PORT                  liveness probe"
    );
    exit(2)
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("sora-server: {message}");
    exit(2)
}

/// Splits argv into `--flag value` pairs and positionals.
fn parse_args(args: &[String]) -> (Vec<(String, String)>, Vec<String>) {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let Some(value) = args.get(i + 1) else {
                fail(format!("--{name} needs a value"));
            };
            flags.push((name.to_string(), value.clone()));
            i += 2;
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    (flags, positional)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn read_scenario(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => fail(format!("reading {path}: {e}")),
    }
}

fn parse_scenario(path: &str) -> ScenarioSpec {
    match ScenarioSpec::parse(&read_scenario(path)) {
        Ok(spec) => spec,
        Err(e) => fail(format!("{path}: {e}")),
    }
}

fn print_result(text: &str) {
    let mut out = std::io::stdout();
    out.write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .unwrap_or_else(|e| fail(format!("writing result: {e}")));
}

fn mode_serve(flags: &[(String, String)]) {
    let addr = flag(flags, "addr").unwrap_or("127.0.0.1:7070");
    let cache = flag(flags, "cache").map(|dir| {
        ResultCache::open(dir).unwrap_or_else(|e| fail(format!("opening cache {dir}: {e}")))
    });
    let stop = sora_server::install_signal_handlers();
    let listener = TcpListener::bind(addr).unwrap_or_else(|e| fail(format!("binding {addr}: {e}")));
    let local = listener.local_addr().map(|a| a.to_string());
    eprintln!("[serve] listening on {}", local.as_deref().unwrap_or(addr));
    if let Err(e) = serve(listener, cache, stop) {
        fail(format!("serving: {e}"));
    }
}

fn mode_sweep(flags: &[(String, String)], files: &[String]) -> ! {
    if files.is_empty() {
        fail("sweep needs at least one scenario file");
    }
    let Some(cache_dir) = flag(flags, "cache") else {
        fail("sweep needs --cache DIR (the cache is also the resume state)");
    };
    let workers = match flag(flags, "workers") {
        None => 1,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| fail(format!("--workers {v} is not a number"))),
    };
    let cache = ResultCache::open(cache_dir)
        .unwrap_or_else(|e| fail(format!("opening cache {cache_dir}: {e}")));
    let me = std::env::current_exe()
        .unwrap_or_else(|e| fail(format!("locating own binary: {e}")))
        .to_string_lossy()
        .into_owned();
    let cfg = FarmConfig {
        workers,
        cache,
        worker_cmd: vec![me, "worker".to_string()],
    };
    let scenarios: Vec<(String, String)> = files
        .iter()
        .map(|path| (path.clone(), read_scenario(path)))
        .collect();
    let stop = sora_server::install_signal_handlers();
    let outcome = match run_farm(scenarios, &cfg, stop) {
        Ok(outcome) => outcome,
        Err(e) => fail(e),
    };
    let mut failed = false;
    for entry in &outcome.entries {
        println!(
            "{}  {:>8}  {}",
            entry.key,
            entry.status.as_str(),
            entry.label
        );
        if let EntryStatus::Failed(message) = &entry.status {
            eprintln!("[farm] {} failed: {message}", entry.label);
            failed = true;
        }
    }
    println!(
        "farm: total={} completed={} cache_hits={} interrupted={}",
        outcome.total, outcome.completed, outcome.cache_hits, outcome.interrupted
    );
    if outcome.interrupted {
        exit(130);
    }
    exit(if failed { 1 } else { 0 })
}

fn connect(flags: &[(String, String)]) -> TcpStream {
    let Some(addr) = flag(flags, "addr") else {
        fail("this mode needs --addr HOST:PORT");
    };
    let stream =
        TcpStream::connect(addr).unwrap_or_else(|e| fail(format!("connecting to {addr}: {e}")));
    sora_server::prepare_stream(&stream)
        .unwrap_or_else(|e| fail(format!("setting up the connection to {addr}: {e}")));
    stream
}

fn mode_submit(flags: &[(String, String)], files: &[String]) -> ! {
    let [path] = files else {
        fail("submit needs exactly one scenario file");
    };
    let scenario = read_scenario(path);
    let mut stream = connect(flags);
    write_frame(&mut stream, &Request::Submit { scenario })
        .unwrap_or_else(|e| fail(format!("sending submission: {e}")));
    match read_frame::<_, Reply>(&mut stream) {
        Ok(Reply::Result { text, .. }) => {
            print_result(&text);
            exit(0)
        }
        Ok(Reply::Error { error }) => fail(error),
        Ok(other) => fail(format!("unexpected reply: {other:?}")),
        Err(e) => fail(format!("reading reply: {e}")),
    }
}

fn mode_ping(flags: &[(String, String)]) -> ! {
    let mut stream = connect(flags);
    write_frame(&mut stream, &Request::Ping).unwrap_or_else(|e| fail(format!("pinging: {e}")));
    match read_frame::<_, Reply>(&mut stream) {
        Ok(Reply::Pong) => {
            println!("pong");
            exit(0)
        }
        Ok(other) => fail(format!("unexpected reply: {other:?}")),
        Err(e) => fail(format!("reading reply: {e}")),
    }
}

fn mode_run_local(files: &[String]) -> ! {
    let [path] = files else {
        fail("run-local needs exactly one scenario file");
    };
    let spec = parse_scenario(path);
    let outcome = spec.run();
    print_result(&sora_server::scenario_result_text(&spec, &outcome));
    exit(0)
}

fn mode_canon_key(files: &[String]) -> ! {
    let [path] = files else {
        fail("canon-key needs exactly one scenario file");
    };
    println!("{}", cache_key(&parse_scenario(path)));
    exit(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = args.split_first() else {
        usage();
    };
    let (flags, positional) = parse_args(rest);
    match mode.as_str() {
        "serve" => mode_serve(&flags),
        "worker" => worker_loop(),
        "sweep" => mode_sweep(&flags, &positional),
        "submit" => mode_submit(&flags, &positional),
        "run-local" => mode_run_local(&positional),
        "canon-key" => mode_canon_key(&positional),
        "ping" => mode_ping(&flags),
        _ => usage(),
    }
}
