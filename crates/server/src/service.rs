//! The request loop: the TCP control plane and the stdio worker loop.
//!
//! Both speak the same framed protocol; the TCP side additionally hosts
//! per-connection [`LiveSession`]s (a `World` is not `Send`, so a session
//! lives and dies on its connection's thread). Malformed traffic drops the
//! offending connection with a typed error reply where possible — the
//! process never panics on wire input.

use crate::cache::ResultCache;
use crate::canon::cache_key;
use crate::protocol::{read_frame, write_frame, FrameError, Reply, Request, ServerError};
use crate::session::LiveSession;
use crate::signals;
use sim_core::{SimDuration, SimTime};
use sora_bench::{scenario_result_text, ScenarioSpec};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Readies a TCP stream for the framed protocol: blocking, with Nagle's
/// algorithm off. A live step streams several frames back to back, and
/// with Nagle on each frame after the first waits for the peer's delayed
/// ACK (~40 ms). Every TCP stream this crate accepts or opens goes
/// through it.
pub fn prepare_stream(stream: &TcpStream) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)
}

/// Accepts connections until `stop` is raised, spawning one thread per
/// connection. `cache` (when present) memoises `Submit` results by their
/// content-addressed key.
pub fn serve(
    listener: TcpListener,
    cache: Option<ResultCache>,
    stop: &'static AtomicBool,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                prepare_stream(&stream)?;
                let cache = cache.clone();
                conns.push(std::thread::spawn(move || handle_conn(stream, cache)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        conns.retain(|h| !h.is_finished());
    }
    // Let in-flight connections wind down; they observe the stop flag only
    // through Shutdown requests, so just join what has already finished.
    for handle in conns {
        if handle.is_finished() {
            let _ = handle.join();
        }
    }
    Ok(())
}

/// Parses and runs one scenario, memoising through `cache` when present.
/// This is the single code path behind TCP `Submit`, session `Finish`
/// caching, and the stdio worker — which is what makes wire results
/// byte-identical to in-process runs.
fn run_submit(text: &str, cache: Option<&ResultCache>) -> Reply {
    let spec = match ScenarioSpec::parse(text) {
        Ok(spec) => spec,
        Err(error) => {
            return Reply::Error {
                error: ServerError::Scenario { error },
            }
        }
    };
    let key = cache_key(&spec);
    if let Some(cache) = cache {
        if let Some(text) = cache.lookup(&key) {
            return Reply::Result { key, text };
        }
    }
    let outcome = spec.run();
    let text = scenario_result_text(&spec, &outcome);
    if let Some(cache) = cache {
        if let Err(e) = cache.store(&key, &text) {
            eprintln!("[serve] could not cache {key}: {e}");
        }
    }
    Reply::Result { key, text }
}

fn bad_request(message: impl Into<String>) -> Reply {
    Reply::Error {
        error: ServerError::BadRequest {
            message: message.into(),
        },
    }
}

/// Serves one TCP connection to completion.
fn handle_conn(mut stream: TcpStream, cache: Option<ResultCache>) {
    let mut session: Option<LiveSession> = None;
    loop {
        let request = match read_frame::<_, Request>(&mut stream) {
            Ok(request) => request,
            Err(FrameError::Closed) => break,
            Err(e) => {
                // Tell the peer why (best effort), then drop the link: after
                // a framing error the stream position is unknowable.
                let _ = write_frame(&mut stream, &bad_request(e.to_string()));
                break;
            }
        };
        let reply = match request {
            Request::Ping => Reply::Pong,
            Request::Submit { scenario } => run_submit(&scenario, cache.as_ref()),
            Request::Init { scenario } => match ScenarioSpec::parse(&scenario) {
                Ok(spec) => {
                    let live = LiveSession::new(spec);
                    let key = live.key().to_string();
                    session = Some(live);
                    Reply::Inited { key }
                }
                Err(error) => Reply::Error {
                    error: ServerError::Scenario { error },
                },
            },
            Request::StepUntil { t_secs } => match session.as_mut() {
                None => bad_request("no live session: send `init` first"),
                Some(_) if !(t_secs.is_finite() && t_secs >= 0.0) => {
                    bad_request(format!("step target {t_secs} is not a valid time"))
                }
                Some(live) => {
                    let target = SimTime::from_secs_f64(t_secs);
                    let mut write_failed = false;
                    let (now, workload_done) = live.step_until(target, |frame| {
                        if !write_failed
                            && write_frame(&mut stream, &Reply::Telemetry { frame }).is_err()
                        {
                            write_failed = true;
                        }
                    });
                    if write_failed {
                        return;
                    }
                    Reply::Stepped {
                        now_secs: now.as_secs_f64(),
                        workload_done,
                    }
                }
            },
            Request::Time => match session.as_ref() {
                None => bad_request("no live session: send `init` first"),
                Some(live) => Reply::TimeIs {
                    now_secs: live.now().as_secs_f64(),
                },
            },
            Request::Status => match session.as_ref() {
                None => bad_request("no live session: send `init` first"),
                Some(live) => Reply::StatusIs {
                    status: live.status(),
                },
            },
            Request::Subscribe { period_secs } => match session.as_mut() {
                None => bad_request("no live session: send `init` first"),
                Some(_) if !(period_secs.is_finite() && period_secs > 0.0) => bad_request(format!(
                    "subscription period {period_secs} must be positive"
                )),
                Some(live) => {
                    live.subscribe(SimDuration::from_secs_f64(period_secs));
                    Reply::Subscribed
                }
            },
            Request::Finish => match session.take() {
                None => bad_request("no live session: send `init` first"),
                Some(live) => {
                    let (key, text) = live.finish();
                    if let Some(cache) = cache.as_ref() {
                        if let Err(e) = cache.store(&key, &text) {
                            eprintln!("[serve] could not cache {key}: {e}");
                        }
                    }
                    Reply::Result { key, text }
                }
            },
            Request::Halt => {
                session = None;
                Reply::Halted
            }
            Request::Shutdown => {
                let _ = write_frame(&mut stream, &Reply::ShuttingDown);
                signals::request_stop();
                return;
            }
        };
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
    }
}

/// The stdio worker loop: `Submit` frames in, `Result` frames out, until
/// stdin closes or a `Shutdown` frame arrives. Spawned by the farm
/// coordinator as `sora-server worker`; results are cached by the
/// coordinator, not here.
pub fn worker_loop() {
    let stdin = io::stdin();
    let stdout = io::stdout();
    worker_loop_on(&mut stdin.lock(), &mut stdout.lock());
}

/// The worker loop over arbitrary streams (testable without a process).
pub fn worker_loop_on<R: Read, W: Write>(input: &mut R, output: &mut W) {
    loop {
        let reply = match read_frame::<_, Request>(input) {
            Ok(Request::Submit { scenario }) => run_submit(&scenario, None),
            Ok(Request::Ping) => Reply::Pong,
            Ok(Request::Shutdown) | Err(FrameError::Closed) => {
                let _ = write_frame(output, &Reply::ShuttingDown);
                return;
            }
            Ok(other) => bad_request(format!("workers only run submissions, got {other:?}")),
            Err(e) => {
                let _ = write_frame(output, &bad_request(e.to_string()));
                return;
            }
        };
        if write_frame(output, &reply).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const TINY: &str = r#"{"app": "sock_shop", "trace": "Steady", "max_users": 80,
                           "duration_secs": 8, "sla_ms": 400, "seed": 3}"#;

    #[test]
    fn worker_loop_runs_a_submission_and_matches_in_process_bytes() {
        let mut input = Vec::new();
        write_frame(
            &mut input,
            &Request::Submit {
                scenario: TINY.to_string(),
            },
        )
        .unwrap();
        // EOF after one request: the worker answers, then acknowledges
        // shutdown on the closed stream.
        let mut output = Vec::new();
        worker_loop_on(&mut Cursor::new(input), &mut output);

        let mut read = Cursor::new(output);
        let reply: Reply = read_frame(&mut read).unwrap();
        let spec = ScenarioSpec::parse(TINY).unwrap();
        let expected = scenario_result_text(&spec, &spec.run());
        match reply {
            Reply::Result { key, text } => {
                assert_eq!(key, cache_key(&spec));
                assert_eq!(text, expected, "wire result must match in-process bytes");
            }
            other => panic!("expected a result, got {other:?}"),
        }
        let farewell: Reply = read_frame(&mut read).unwrap();
        assert_eq!(farewell, Reply::ShuttingDown);
    }

    #[test]
    fn prepared_loopback_pair_has_nodelay_on_both_ends() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        prepare_stream(&client).unwrap();
        prepare_stream(&server).unwrap();
        assert!(client.nodelay().unwrap(), "client end keeps Nagle on");
        assert!(server.nodelay().unwrap(), "server end keeps Nagle on");
    }

    #[test]
    fn worker_loop_rejects_bad_scenarios_with_typed_errors() {
        let mut input = Vec::new();
        write_frame(
            &mut input,
            &Request::Submit {
                scenario: r#"{"app": "sock_shop", "max_user": 5}"#.to_string(),
            },
        )
        .unwrap();
        let mut output = Vec::new();
        worker_loop_on(&mut Cursor::new(input), &mut output);
        let reply: Reply = read_frame(&mut Cursor::new(output)).unwrap();
        match reply {
            Reply::Error {
                error: ServerError::Scenario { error },
            } => assert_eq!(
                error,
                sora_bench::ScenarioError::UnknownField {
                    field: "max_user".to_string()
                }
            ),
            other => panic!("expected a typed scenario error, got {other:?}"),
        }
    }
}
