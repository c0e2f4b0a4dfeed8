//! End-to-end service-plane tests: a real TCP server on loopback, real
//! worker processes under the farm, and the headline invariant throughout —
//! results over the wire are byte-identical to in-process runs.

use sora_server::{
    cache_key, read_frame, run_farm, scenario_result_text, serve, write_frame, EntryStatus,
    FarmConfig, Reply, Request, ResultCache, ScenarioError, ScenarioSpec, ServerError,
};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const TINY_A: &str = r#"{"app": "sock_shop", "trace": "Steady", "max_users": 100,
                         "duration_secs": 10, "sla_ms": 400, "seed": 21}"#;
const TINY_B: &str = r#"{"app": "sock_shop", "trace": "BigSpike", "max_users": 90,
                         "duration_secs": 10, "sla_ms": 400, "seed": 22}"#;
const TINY_C: &str = r#"{"app": "social_network", "trace": "Steady", "max_users": 80,
                         "duration_secs": 10, "sla_ms": 500, "seed": 23}"#;

fn in_process(text: &str) -> (String, String) {
    let spec = ScenarioSpec::parse(text).unwrap();
    let outcome = spec.run();
    (cache_key(&spec), scenario_result_text(&spec, &outcome))
}

/// Starts a server on an ephemeral loopback port with its own stop flag.
fn start_server(cache: Option<ResultCache>) -> (String, &'static AtomicBool) {
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || serve(listener, cache, stop).unwrap());
    (addr, stop)
}

struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        Client {
            stream: TcpStream::connect(addr).unwrap(),
        }
    }

    fn send(&mut self, request: &Request) {
        write_frame(&mut self.stream, request).unwrap();
    }

    fn recv(&mut self) -> Reply {
        read_frame(&mut self.stream).unwrap()
    }

    fn ask(&mut self, request: &Request) -> Reply {
        self.send(request);
        self.recv()
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sora-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn ping_pong() {
    let (addr, stop) = start_server(None);
    let mut client = Client::connect(&addr);
    assert_eq!(client.ask(&Request::Ping), Reply::Pong);
    stop.store(true, Ordering::SeqCst);
}

#[test]
fn submit_over_the_wire_is_byte_identical_to_in_process() {
    let (expected_key, expected_text) = in_process(TINY_A);
    let (addr, stop) = start_server(None);
    let mut client = Client::connect(&addr);
    match client.ask(&Request::Submit {
        scenario: TINY_A.to_string(),
    }) {
        Reply::Result { key, text } => {
            assert_eq!(key, expected_key);
            assert_eq!(text, expected_text, "wire bytes != in-process bytes");
        }
        other => panic!("expected a result, got {other:?}"),
    }
    stop.store(true, Ordering::SeqCst);
}

/// A fuzz-shaped extended spec: generated topology, retry policy, and a
/// fault schedule — the feature set the scenario fuzzer composes. The
/// service plane must treat it like any other scenario: wire bytes equal
/// in-process bytes, and the canon cache key is spelling-independent.
const FAULTED: &str = r#"{"app": "generated", "trace": "BigSpike", "max_users": 60,
                          "duration_secs": 8, "sla_ms": 400, "seed": 31,
                          "services": 16, "topo_seed": 9,
                          "retry": {"max_retries": 2, "base_backoff_ms": 40},
                          "faults": [
                            {"crash": {"service": 3, "at_ms": 2000, "restart_after_ms": 800}},
                            {"telemetry_blackout": {"at_ms": 4000, "duration_ms": 500, "lag": true}}
                          ]}"#;

#[test]
fn fault_bearing_spec_round_trips_the_wire_and_canon_paths() {
    let (expected_key, expected_text) = in_process(FAULTED);
    // Canon key is stable across respellings: the spec's own canonical
    // emission (key order normalised, defaults omitted) shares the key.
    let spec = ScenarioSpec::parse(FAULTED).unwrap();
    let respelled = ScenarioSpec::parse(&spec.emit()).unwrap();
    assert_eq!(respelled, spec, "parse(emit(spec)) drifted");
    assert_eq!(cache_key(&respelled), expected_key);

    let (addr, stop) = start_server(None);
    let mut client = Client::connect(&addr);
    match client.ask(&Request::Submit {
        scenario: FAULTED.to_string(),
    }) {
        Reply::Result { key, text } => {
            assert_eq!(key, expected_key);
            assert_eq!(text, expected_text, "wire bytes != in-process bytes");
        }
        other => panic!("expected a result, got {other:?}"),
    }
    // The fault schedule actually ran: the result text carries the fault
    // log with both injected events.
    assert!(
        expected_text.contains("crash") && expected_text.contains("blackout"),
        "fault log missing from result text"
    );
    stop.store(true, Ordering::SeqCst);
}

#[test]
fn cached_submissions_return_the_same_bytes() {
    let dir = tmp_dir("submit-cache");
    let cache = ResultCache::open(&dir).unwrap();
    let (addr, stop) = start_server(Some(cache.clone()));
    let (_, expected_text) = in_process(TINY_B);

    let mut first = Client::connect(&addr);
    let Reply::Result { key, text } = first.ask(&Request::Submit {
        scenario: TINY_B.to_string(),
    }) else {
        panic!("expected a result");
    };
    assert_eq!(text, expected_text);
    assert_eq!(cache.lookup(&key).as_deref(), Some(expected_text.as_str()));

    // Second submission (fresh connection) is served from the cache —
    // still the same bytes.
    let mut second = Client::connect(&addr);
    let Reply::Result { text: cached, .. } = second.ask(&Request::Submit {
        scenario: TINY_B.to_string(),
    }) else {
        panic!("expected a result");
    };
    assert_eq!(cached, expected_text);

    stop.store(true, Ordering::SeqCst);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_session_lifecycle_streams_telemetry_and_finishes_byte_identical() {
    let (expected_key, expected_text) = in_process(TINY_C);
    let (addr, stop) = start_server(None);
    let mut client = Client::connect(&addr);

    let Reply::Inited { key } = client.ask(&Request::Init {
        scenario: TINY_C.to_string(),
    }) else {
        panic!("expected inited");
    };
    assert_eq!(key, expected_key);

    assert_eq!(
        client.ask(&Request::Subscribe { period_secs: 2.0 }),
        Reply::Subscribed
    );

    // Step in two uneven increments, collecting streamed telemetry until
    // the Stepped reply arrives.
    let mut frames = Vec::new();
    for target in [3.7, 11.0] {
        client.send(&Request::StepUntil { t_secs: target });
        loop {
            match client.recv() {
                Reply::Telemetry { frame } => frames.push(frame),
                Reply::Stepped {
                    now_secs,
                    workload_done,
                } => {
                    // The trace can end (10 s) before the target (11 s).
                    assert!(now_secs >= target || workload_done);
                    break;
                }
                other => panic!("expected telemetry or stepped, got {other:?}"),
            }
        }
    }
    assert!(frames.len() >= 4, "2s cadence over 10s: {}", frames.len());
    for pair in frames.windows(2) {
        assert!(pair[1].now_secs >= pair[0].now_secs);
        assert!(pair[1].snapshot.completed >= pair[0].snapshot.completed);
    }

    let Reply::TimeIs { now_secs } = client.ask(&Request::Time) else {
        panic!("expected time");
    };
    assert!(now_secs >= 10.0);
    let Reply::StatusIs { status } = client.ask(&Request::Status) else {
        panic!("expected status");
    };
    assert_eq!(status.key, expected_key);
    assert!(status.snapshot.completed > 0);

    let Reply::Result { key, text } = client.ask(&Request::Finish) else {
        panic!("expected the final result");
    };
    assert_eq!(key, expected_key);
    assert_eq!(
        text, expected_text,
        "stepped wire bytes != in-process bytes"
    );

    stop.store(true, Ordering::SeqCst);
}

/// Regression guard for the Nagle plus delayed-ACK stall. Each subscribed
/// step streams a `Telemetry` frame and then a `Stepped` frame back to
/// back; with Nagle on at the server, the second frame waited for the
/// client's delayed ACK, about 40 ms per step. This client leaves Nagle
/// on, so a frame split over two writes would stall its requests too.
#[test]
fn subscribed_steps_do_not_stall_on_delayed_acks() {
    const STEPS: u32 = 200;
    const STEP_SECS: f64 = 0.1;
    const PERIOD_SECS: f64 = 0.05;
    // Below the 40 ms a stalled step costs, and many times what a step
    // costs without the stall.
    const BOUND: Duration = Duration::from_millis(STEPS as u64 * 25);
    let scenario = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/short.json"
    ))
    .unwrap();
    let (addr, stop) = start_server(None);
    let mut client = Client::connect(&addr);
    assert!(matches!(
        client.ask(&Request::Init { scenario }),
        Reply::Inited { .. }
    ));
    assert_eq!(
        client.ask(&Request::Subscribe {
            period_secs: PERIOD_SECS
        }),
        Reply::Subscribed
    );

    let start = Instant::now();
    let mut streamed_steps = 0;
    for k in 1..=STEPS {
        client.send(&Request::StepUntil {
            t_secs: f64::from(k) * STEP_SECS,
        });
        let mut frames = 0;
        loop {
            match client.recv() {
                Reply::Telemetry { .. } => frames += 1,
                Reply::Stepped { .. } => break,
                other => panic!("expected telemetry or stepped, got {other:?}"),
            }
        }
        streamed_steps += u32::from(frames > 0);
    }
    let elapsed = start.elapsed();
    eprintln!("{STEPS} subscribed steps took {elapsed:?}");
    assert_eq!(
        streamed_steps, STEPS,
        "every step should stream a frame before `Stepped`"
    );
    assert!(
        elapsed < BOUND,
        "{STEPS} subscribed steps took {elapsed:?} (bound {BOUND:?}): frames stall on delayed ACKs"
    );
    stop.store(true, Ordering::SeqCst);
}

#[test]
fn protocol_errors_are_typed_and_do_not_kill_the_connection() {
    let (addr, stop) = start_server(None);
    let mut client = Client::connect(&addr);

    // Scenario parse failures carry the typed scenario error.
    match client.ask(&Request::Submit {
        scenario: r#"{"app": "sock_shop", "max_user": 5}"#.to_string(),
    }) {
        Reply::Error {
            error: ServerError::Scenario { error },
        } => assert_eq!(
            error,
            ScenarioError::UnknownField {
                field: "max_user".to_string()
            }
        ),
        other => panic!("expected a typed scenario error, got {other:?}"),
    }

    // Session requests without a session are bad requests...
    for request in [
        Request::StepUntil { t_secs: 5.0 },
        Request::Time,
        Request::Status,
        Request::Finish,
        Request::Subscribe { period_secs: 1.0 },
    ] {
        match client.ask(&request) {
            Reply::Error {
                error: ServerError::BadRequest { .. },
            } => {}
            other => panic!("{request:?}: expected bad request, got {other:?}"),
        }
    }

    // ...and invalid arguments are rejected even with a session live.
    let Reply::Inited { .. } = client.ask(&Request::Init {
        scenario: TINY_A.to_string(),
    }) else {
        panic!("expected inited");
    };
    for request in [
        Request::Subscribe { period_secs: 0.0 },
        Request::StepUntil { t_secs: -1.0 },
        Request::StepUntil {
            t_secs: f64::INFINITY,
        },
    ] {
        match client.ask(&request) {
            Reply::Error {
                error: ServerError::BadRequest { .. },
            } => {}
            other => panic!("{request:?}: expected bad request, got {other:?}"),
        }
    }

    // The connection survived all of it.
    assert_eq!(client.ask(&Request::Ping), Reply::Pong);
    stop.store(true, Ordering::SeqCst);
}

fn farm_config(dir: &PathBuf, workers: usize) -> FarmConfig {
    FarmConfig {
        workers,
        cache: ResultCache::open(dir).unwrap(),
        worker_cmd: vec![
            env!("CARGO_BIN_EXE_sora-server").to_string(),
            "worker".to_string(),
        ],
    }
}

fn farm_scenarios() -> Vec<(String, String)> {
    vec![
        ("a".to_string(), TINY_A.to_string()),
        ("b".to_string(), TINY_B.to_string()),
        ("c".to_string(), TINY_C.to_string()),
    ]
}

#[test]
fn farm_computes_across_worker_processes_then_resumes_from_cache() {
    let dir = tmp_dir("farm");
    let stop = AtomicBool::new(false);

    // First sweep: everything is computed by spawned worker processes.
    let cfg = farm_config(&dir, 2);
    let first = run_farm(farm_scenarios(), &cfg, &stop).unwrap();
    assert_eq!(first.total, 3);
    assert_eq!(first.completed, 3);
    assert_eq!(first.cache_hits, 0);
    assert!(!first.interrupted);
    assert!(first
        .entries
        .iter()
        .all(|e| e.status == EntryStatus::Computed));

    // Worker-produced cache entries are byte-identical to in-process runs.
    for text in [TINY_A, TINY_B, TINY_C] {
        let (key, expected) = in_process(text);
        assert_eq!(
            cfg.cache.lookup(&key).as_deref(),
            Some(expected.as_str()),
            "farm bytes != in-process bytes for key {key}"
        );
    }

    // Second sweep over the same cache: pure hits, no workers spawned.
    let second = run_farm(farm_scenarios(), &cfg, &stop).unwrap();
    assert_eq!(second.completed, 3);
    assert_eq!(second.cache_hits, 3);
    assert!(second.entries.iter().all(|e| e.status == EntryStatus::Hit));
    assert!(!second.interrupted);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_farm_reports_skips_and_resumes_cleanly() {
    let dir = tmp_dir("farm-interrupt");

    // A stop flag raised before the sweep starts: nothing runs, everything
    // is skipped, and the outcome says so.
    let cfg = farm_config(&dir, 2);
    let stop = AtomicBool::new(true);
    let halted = run_farm(farm_scenarios(), &cfg, &stop).unwrap();
    assert_eq!(halted.completed, 0);
    assert!(halted.interrupted);
    assert!(halted
        .entries
        .iter()
        .all(|e| e.status == EntryStatus::Skipped));

    // Resume with the flag lowered: the same command completes the sweep.
    let stop = AtomicBool::new(false);
    let resumed = run_farm(farm_scenarios(), &cfg, &stop).unwrap();
    assert_eq!(resumed.completed, 3);
    assert!(!resumed.interrupted);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn farm_rejects_a_bad_scenario_before_running_anything() {
    let dir = tmp_dir("farm-badspec");
    let cfg = farm_config(&dir, 2);
    let stop = AtomicBool::new(false);
    let scenarios = vec![
        ("good".to_string(), TINY_A.to_string()),
        (
            "bad".to_string(),
            r#"{"app": "sock_shop", "trace": "Steady", "max_users": 10,
                "duration_secs": 30, "sla_ms": 400, "drift_at_secs": 30}"#
                .to_string(),
        ),
    ];
    let err = run_farm(scenarios, &cfg, &stop).unwrap_err();
    assert_eq!(
        err,
        ScenarioError::InvertedWindow {
            drift_at_secs: 30,
            duration_secs: 30
        }
    );
    // Nothing ran: the cache holds no results.
    assert_eq!(cfg.cache.stored(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
