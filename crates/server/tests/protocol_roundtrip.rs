//! Wire-protocol conformance: every message round-trips, and no byte
//! stream — however truncated, corrupt or oversized — can panic the frame
//! reader. A satellite requirement of the service-plane issue.

use microsim::{DropBreakdown, TelemetrySnapshot};
use proptest::prelude::*;
use serde::Serialize;
use sora_core::ControllerStatus;
use sora_server::{
    read_frame, write_frame, FrameError, Reply, Request, ScenarioError, ServerError, SessionStatus,
    TelemetryFrame, MAX_FRAME_LEN,
};
use std::io::{Cursor, Write};

fn round_trip_request(request: Request) {
    let mut buf = Vec::new();
    write_frame(&mut buf, &request).unwrap();
    let back: Request = read_frame(&mut Cursor::new(&buf)).unwrap();
    assert_eq!(back, request);
}

fn round_trip_reply(reply: Reply) {
    let mut buf = Vec::new();
    write_frame(&mut buf, &reply).unwrap();
    let back: Reply = read_frame(&mut Cursor::new(&buf)).unwrap();
    assert_eq!(back, reply);
}

fn sample_snapshot() -> TelemetrySnapshot {
    TelemetrySnapshot {
        now_nanos: 12_500_000_000,
        completed: 420,
        dropped: 7,
        in_flight: 33,
        events_dispatched: 90_120,
        window_completed: 96,
        window_good: 88,
        drop_breakdown: DropBreakdown {
            refused: 3,
            replica_failed: 1,
            client_timeout: 2,
            retries_exhausted: 1,
            net_lost: 0,
            net_timed_out: 0,
        },
    }
}

fn sample_status() -> SessionStatus {
    SessionStatus {
        key: "00112233445566778899aabbccddeeff".to_string(),
        now_secs: 12.5,
        workload_done: false,
        samples: 125,
        controller: ControllerStatus::named("adaptive"),
        snapshot: sample_snapshot(),
    }
}

fn every_request() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Submit {
            scenario: "{\"app\": \"sock_shop\"}".to_string(),
        },
        Request::Init {
            scenario: "{}".to_string(),
        },
        Request::StepUntil { t_secs: 42.25 },
        Request::Time,
        Request::Status,
        Request::Subscribe { period_secs: 0.5 },
        Request::Finish,
        Request::Halt,
        Request::Shutdown,
    ]
}

/// Every reply variant, plus a large result frame of multi-byte text.
fn every_reply() -> Vec<Reply> {
    vec![
        Reply::Pong,
        Reply::Result {
            key: "abc123".to_string(),
            text: "{\n  \"summary\": {}\n}".to_string(),
        },
        Reply::Inited {
            key: "abc123".to_string(),
        },
        Reply::Stepped {
            now_secs: 30.0,
            workload_done: true,
        },
        Reply::Telemetry {
            frame: TelemetryFrame {
                now_secs: 12.5,
                snapshot: sample_snapshot(),
                controller: ControllerStatus::named("static"),
            },
        },
        Reply::TimeIs { now_secs: 0.0 },
        Reply::StatusIs {
            status: sample_status(),
        },
        Reply::Subscribed,
        Reply::Halted,
        Reply::ShuttingDown,
        Reply::Error {
            error: ServerError::Scenario {
                error: ScenarioError::UnknownField {
                    field: "max_user".to_string(),
                },
            },
        },
        Reply::Error {
            error: ServerError::Scenario {
                error: ScenarioError::InvertedWindow {
                    drift_at_secs: 30,
                    duration_secs: 30,
                },
            },
        },
        Reply::Error {
            error: ServerError::BadRequest {
                message: "no live session".to_string(),
            },
        },
        Reply::Error {
            error: ServerError::Worker {
                message: "worker died".to_string(),
            },
        },
        Reply::Result {
            key: "def456".to_string(),
            text: "{\"p99_ms\": 12.5, \"label\": \"é€😀\\n\"}\n".repeat(4096),
        },
    ]
}

#[test]
fn every_request_variant_round_trips() {
    for request in every_request() {
        round_trip_request(request);
    }
}

#[test]
fn every_reply_variant_round_trips() {
    for reply in every_reply() {
        round_trip_reply(reply);
    }
}

/// A `Write` that records each `write` call's bytes.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The wire format by definition: the payload length as 4 big-endian
/// bytes, then the compact JSON.
fn reference_frame<T: Serialize>(value: &T) -> Vec<u8> {
    let text = serde_json::to_string(value).unwrap();
    let mut bytes = (text.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(text.as_bytes());
    bytes
}

fn assert_one_write_of_reference_bytes<T: Serialize + std::fmt::Debug>(value: &T) {
    let mut w = CountingWriter::default();
    write_frame(&mut w, value).unwrap();
    assert_eq!(w.writes, 1, "{value:?} left in {} writes", w.writes);
    assert!(
        w.bytes == reference_frame(value),
        "{value:?}: wire bytes changed"
    );
}

/// Each frame is a single write (a split prefix and payload stalls on
/// Nagle plus delayed ACK), and its bytes are exactly the wire format.
#[test]
fn every_frame_is_one_write_of_the_reference_bytes() {
    for request in every_request() {
        assert_one_write_of_reference_bytes(&request);
    }
    for reply in every_reply() {
        assert_one_write_of_reference_bytes(&reply);
    }
}

#[test]
fn empty_stream_reads_as_clean_close() {
    let err = read_frame::<_, Request>(&mut Cursor::new(Vec::new())).unwrap_err();
    assert_eq!(err, FrameError::Closed);
}

#[test]
fn truncated_length_prefix_is_a_transport_error() {
    for cut in 1..4 {
        let err = read_frame::<_, Request>(&mut Cursor::new(vec![0u8; cut])).unwrap_err();
        assert!(
            matches!(err, FrameError::Io { .. }),
            "prefix cut at {cut}: {err:?}"
        );
    }
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    // Claims a 4 GiB frame; must fail fast with Oversized, not OOM.
    let mut bytes = (u32::MAX).to_be_bytes().to_vec();
    bytes.extend_from_slice(b"ignored");
    let err = read_frame::<_, Request>(&mut Cursor::new(bytes)).unwrap_err();
    assert_eq!(err, FrameError::Oversized { len: u32::MAX });
}

#[test]
fn truncated_payload_is_a_transport_error() {
    let mut buf = Vec::new();
    write_frame(&mut buf, &Request::Ping).unwrap();
    for cut in 5..buf.len() {
        let err = read_frame::<_, Request>(&mut Cursor::new(&buf[..cut])).unwrap_err();
        assert!(
            matches!(err, FrameError::Io { .. }),
            "payload cut at {cut}: {err:?}"
        );
    }
}

#[test]
fn garbage_payload_is_a_decode_error() {
    let payload = b"not json at all";
    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(payload);
    let err = read_frame::<_, Request>(&mut Cursor::new(bytes)).unwrap_err();
    assert!(matches!(err, FrameError::Json { .. }), "{err:?}");
}

#[test]
fn non_utf8_payload_is_a_decode_error() {
    let payload = [0xFFu8, 0xFE, 0x80, 0x80];
    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(&payload);
    let err = read_frame::<_, Request>(&mut Cursor::new(bytes)).unwrap_err();
    assert_eq!(
        err,
        FrameError::Json {
            message: "frame payload is not UTF-8".to_string()
        }
    );
}

#[test]
fn oversized_writes_are_refused() {
    let text = "x".repeat(MAX_FRAME_LEN as usize + 16);
    let err = write_frame(&mut Vec::new(), &Request::Submit { scenario: text }).unwrap_err();
    assert!(matches!(err, FrameError::Oversized { .. }), "{err:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup must produce `Ok` or a typed error — never a
    /// panic, never an attempt to allocate what a corrupt prefix claims.
    #[test]
    fn arbitrary_bytes_never_panic_the_reader(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        let _ = read_frame::<_, Request>(&mut Cursor::new(&bytes));
    }

    /// A valid frame truncated at any point yields a typed error (or, cut
    /// exactly at zero, a clean close) — and an intact frame still decodes.
    #[test]
    fn truncated_valid_frames_fail_typed(cut_fraction in 0.0f64..1.0, t in 0.0f64..1e6) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::StepUntil { t_secs: t }).unwrap();
        let cut = ((buf.len() as f64) * cut_fraction) as usize;
        match read_frame::<_, Request>(&mut Cursor::new(&buf[..cut])) {
            Ok(_) => prop_assert_eq!(cut, buf.len()),
            Err(FrameError::Closed) => prop_assert_eq!(cut, 0),
            Err(FrameError::Io { .. }) => prop_assert!(cut < buf.len()),
            Err(e) => prop_assert!(false, "unexpected error class: {e:?}"),
        }
        let back: Request = read_frame(&mut Cursor::new(&buf)).unwrap();
        prop_assert_eq!(back, Request::StepUntil { t_secs: t });
    }

    /// A valid frame with one corrupted payload byte either still decodes
    /// (the byte may be inside a string) or fails with a typed JSON error.
    #[test]
    fn corrupted_payload_bytes_never_panic(flip in 0usize..128, with in 0u8..=255) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Submit {
            scenario: "{\"app\": \"sock_shop\", \"seed\": 7}".to_string(),
        }).unwrap();
        let i = 4 + flip % (buf.len() - 4); // corrupt payload, not the prefix
        buf[i] = with;
        match read_frame::<_, Request>(&mut Cursor::new(&buf)) {
            Ok(_) => {}
            Err(FrameError::Json { .. }) => {}
            // Corrupting a closing quote/brace can leave the decoder
            // starved mid-token only via length mismatch, which the frame
            // layer reports as a decode error too — anything else is a bug.
            Err(e) => prop_assert!(false, "unexpected error class: {e:?}"),
        }
    }
}

/// Wire-level screening of the engine-options `shards` knob (DESIGN §14):
/// a submission with an out-of-range shard count must come back over the
/// frame protocol as the *typed* `invalid_value` scenario error — not a
/// panic, not a stringly bad-request — and the error must survive the
/// round trip intact.
#[test]
fn submitted_out_of_range_shards_is_rejected_over_the_wire() {
    use sora_server::worker_loop_on;

    for (shards, expect_invalid) in [("0", true), ("65", true), ("-3", false)] {
        let scenario = format!(
            r#"{{"app": "sock_shop", "trace": "Steady", "max_users": 80.0,
                "duration_secs": 8, "sla_ms": 400, "shards": {shards}}}"#
        );
        let mut input = Vec::new();
        write_frame(&mut input, &Request::Submit { scenario }).unwrap();
        write_frame(&mut input, &Request::Shutdown).unwrap();
        let mut output = Vec::new();
        worker_loop_on(&mut Cursor::new(&input), &mut output);

        let mut cursor = Cursor::new(&output);
        let reply: Reply = read_frame(&mut cursor).unwrap();
        match reply {
            Reply::Error {
                error: ServerError::Scenario { error },
            } => {
                if expect_invalid {
                    match error {
                        ScenarioError::InvalidValue { field, .. } => {
                            assert_eq!(field, "shards", "shards={shards}")
                        }
                        other => panic!("shards={shards}: expected InvalidValue, got {other:?}"),
                    }
                } else {
                    assert!(
                        matches!(error, ScenarioError::BadField { .. }),
                        "shards={shards}: negative counts fail at the deserializer"
                    );
                }
            }
            other => panic!("shards={shards}: expected scenario rejection, got {other:?}"),
        }
    }
}

/// A valid `shards` value travels the wire and runs: the worker returns a
/// result whose serialized spec echoes the knob.
#[test]
fn submitted_valid_shards_runs_over_the_wire() {
    use sora_server::worker_loop_on;

    let scenario = r#"{"app": "sock_shop", "trace": "Steady", "max_users": 80.0,
                       "duration_secs": 8, "sla_ms": 400, "seed": 3, "shards": 2}"#;
    let mut input = Vec::new();
    write_frame(
        &mut input,
        &Request::Submit {
            scenario: scenario.to_string(),
        },
    )
    .unwrap();
    write_frame(&mut input, &Request::Shutdown).unwrap();
    let mut output = Vec::new();
    worker_loop_on(&mut Cursor::new(&input), &mut output);

    let mut cursor = Cursor::new(&output);
    let reply: Reply = read_frame(&mut cursor).unwrap();
    match reply {
        Reply::Result { text, .. } => {
            assert!(text.contains("\"shards\": 2"), "result echoes the knob");
        }
        other => panic!("expected a result, got {other:?}"),
    }
}
