//! Shard-count equivalence oracle (DESIGN §14): for any generated
//! topology, shard plan and fault schedule, the sharded engine run at
//! `shards = 1` — the family's sequential oracle — must be byte-identical
//! to the same world run at `shards = N`: completion streams, drop logs
//! and breakdowns, span/event counters, fault logs and serialized traces.
//!
//! Conservative window execution guarantees this by construction: every
//! cross-shard interaction is a mailbox message applied at a deterministic
//! `(time, key)` barrier, so the partition is unobservable. Any divergence
//! found here is a real engine bug (a partition-dependent key, a missed
//! window, a merge-order slip), never tolerance noise.

use microsim::{BlackoutMode, Completion, DropReason, FaultSchedule, WorldConfig};
use proptest::prelude::*;
use sim_core::{Dist, SimDuration, SimRng, SimTime};
use telemetry::{RequestId, ServiceId};
use topo::{build, TopoParams};

use cluster::NodeId;

/// Everything observable from one run, in comparison-friendly form.
#[derive(Debug, PartialEq)]
struct Observed {
    completions: Vec<Completion>,
    dropped_log: Vec<(RequestId, DropReason)>,
    drop_breakdown: String,
    fault_log: Vec<(SimTime, String)>,
    spans: u64,
    events: u64,
    requests: u64,
    traces: String,
}

/// A generatable fault schedule: each component is optional so the space
/// covers fault-free runs, single faults and stacked windows.
#[derive(Debug, Clone, Copy)]
struct Faults {
    crash_service: Option<usize>,
    crash_at_ms: u64,
    restart_after_ms: Option<u64>,
    pressure: bool,
    blackout_lag: Option<bool>,
}

impl Faults {
    fn schedule(&self, services: usize) -> FaultSchedule {
        let mut s = FaultSchedule::new();
        if let Some(svc) = self.crash_service {
            s = s.crash(
                SimTime::from_millis(self.crash_at_ms),
                ServiceId((svc % services) as u32),
                self.restart_after_ms.map(SimDuration::from_millis),
            );
        }
        if self.pressure {
            s = s.cpu_pressure(
                SimTime::from_millis(self.crash_at_ms + 10),
                NodeId(0),
                0.5,
                SimDuration::from_millis(60),
            );
        }
        if let Some(lag) = self.blackout_lag {
            let mode = if lag {
                BlackoutMode::Lag
            } else {
                BlackoutMode::Drop
            };
            s = s.telemetry_blackout(
                SimTime::from_millis(self.crash_at_ms + 25),
                mode,
                SimDuration::from_millis(40),
            );
        }
        s
    }
}

/// Drives one sharded world to quiescence under a deterministic injection
/// schedule derived from `params.seed`.
fn run(params: &TopoParams, shards: usize, faults: Faults) -> Observed {
    let config = WorldConfig {
        replica_startup: Dist::constant_us(0),
        ..WorldConfig::default()
    };
    let mut t = build(params, config, SimRng::seed_from(params.seed ^ 0x54a2d));
    t.world
        .enable_sharding_with_plan(&t.shard_plan(shards))
        .expect("fresh world accepts sharding");
    t.world
        .install_faults(faults.schedule(params.services))
        .expect("generated schedule validates");
    let mut sched = SimRng::seed_from(params.seed).split("inject");
    let mut at = 0u64;
    for i in 0..60u64 {
        at += 1 + (sched.f64() * 6.0) as u64;
        let rt = t.request_types[(i % params.request_types as u64) as usize];
        t.world.inject_at(SimTime::from_millis(at), rt);
    }
    let done = t.world.run_until(SimTime::from_secs(120));
    assert!(t.world.is_quiescent(), "run must drain ({params:?})");
    let traces = serde_json::to_string(&t.world.warehouse().iter().collect::<Vec<_>>())
        .expect("traces serialize");
    let mut dropped_log = Vec::new();
    t.world.drain_dropped_into(&mut dropped_log);
    Observed {
        completions: done,
        dropped_log,
        drop_breakdown: format!("{:?}", t.world.drop_breakdown()),
        fault_log: t.world.fault_log().to_vec(),
        spans: t.world.spans_created(),
        events: t.world.events_dispatched(),
        requests: t.world.requests_injected(),
        traces,
    }
}

fn assert_equivalent(params: &TopoParams, shards: usize, faults: Faults) {
    let oracle = run(params, 1, faults);
    let sharded = run(params, shards, faults);
    assert!(
        oracle.completions.len() + oracle.dropped_log.len() > 0,
        "oracle run must observe something ({params:?})"
    );
    assert_eq!(oracle, sharded, "shards=1 vs shards={shards} ({params:?})");
}

#[test]
fn sock_shop_preset_is_shard_count_invariant() {
    let none = Faults {
        crash_service: None,
        crash_at_ms: 20,
        restart_after_ms: None,
        pressure: false,
        blackout_lag: None,
    };
    for shards in [2usize, 3, 4] {
        assert_equivalent(&TopoParams::sock_shop_like(30), shards, none);
    }
}

#[test]
fn crash_with_restart_is_shard_count_invariant() {
    let faults = Faults {
        crash_service: Some(2),
        crash_at_ms: 30,
        restart_after_ms: Some(50),
        pressure: true,
        blackout_lag: Some(true),
    };
    let params = TopoParams {
        timeout: Some(SimDuration::from_millis(60)),
        ..TopoParams::sock_shop_like(24)
    };
    assert_equivalent(&params, 4, faults);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any generated topology under any generated fault schedule is
    /// byte-identical between the sequential oracle and an arbitrary
    /// shard count.
    #[test]
    fn prop_sharded_run_matches_sequential_oracle(
        services in 8usize..24,
        depth in 2usize..5,
        fanout in 1usize..3,
        request_types in 1usize..4,
        seed in 0u64..1_000,
        shards in 2usize..6,
        timeout_pick in 0usize..3,
        crash_pick in 0usize..3,
        crash_at_ms in 5u64..80,
        restart_pick in 0usize..3,
        pressure_pick in 0usize..2,
        blackout_pick in 0usize..3,
    ) {
        let services = services.max(depth);
        let params = TopoParams {
            services,
            depth,
            fanout,
            request_types,
            timeout: [None, Some(SimDuration::from_millis(40)), Some(SimDuration::from_secs(2))][timeout_pick],
            seed,
        };
        let faults = Faults {
            crash_service: [None, Some(1), Some(7)][crash_pick],
            crash_at_ms,
            restart_after_ms: [None, Some(30), Some(200)][restart_pick],
            pressure: pressure_pick == 1,
            blackout_lag: [None, Some(true), Some(false)][blackout_pick],
        };
        assert_equivalent(&params, shards.min(services), faults);
    }
}
