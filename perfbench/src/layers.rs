//! The per-layer report of a traced run. Every workload reports every
//! name; a layer the workload bypasses reads 0.

use serde_json::{Map, Value};
use std::collections::BTreeMap;

/// Per-layer metrics the traced child computes. `trace_overhead` and
/// `server.wire_overhead_ms` need the untraced run too, so `run.py` adds
/// them.
pub const NAMES: [&str; 38] = [
    "microsim.busy_s",
    "microsim.events_per_busy_s",
    "microsim.events",
    "microsim.spans_per_request",
    "microsim.allocs_per_request",
    "microsim.inject_s",
    "microsim.allocs",
    "workload.next_action_s",
    "workload.actions",
    "workload.allocs",
    "telemetry.trace_keep_ratio",
    "telemetry.observe_s",
    "telemetry.window_traces",
    "telemetry.observe_allocs",
    "core.control_s",
    "core.control_allocs",
    "core.actuations",
    "core.frozen_periods",
    "scg.estimate_s",
    "scg.estimate_allocs",
    "topo.build_s",
    "config.parse_s",
    "config.build_s",
    "shard.critical_path_ratio",
    "shard.wall_speedup",
    "shard.sys_cpu_s",
    "shard.cpu_per_wall",
    "net.messages_per_request",
    "net.lost_total",
    "net.call_retries",
    "server.session_step_s",
    "server.session_step_p50_ms",
    "server.reply_bytes",
    "server.decode_s",
    "server.cache_key_s",
    "server.cache_lookup_s",
    "alloc.total",
    "alloc.unattributed",
];

/// Per-layer values, all names preset to 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(NAMES.iter().map(|&n| (n, 0.0)).collect())
    }

    /// Sets a value; panics on a name outside [`NAMES`], so the report
    /// cannot drift from the declared list.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared layer metric {name}"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    pub fn to_json(&self) -> Value {
        let mut map = Map::new();
        for (k, v) in &self.0 {
            map.insert((*k).to_string(), serde_json::to_value(v));
        }
        Value::Object(map)
    }
}
