//! Pieces shared by the workloads: digests, percentiles, process
//! counters, and the in-process cache-hit probe.

use crate::trace::{self, Layer};
use serde_json::{json, Value};
use sora_server::ResultCache;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// FNV-1a 64, order-sensitive.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// FNV-1a 64 of a string.
pub fn fnv_str(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.write(text.as_bytes());
    h.0
}

/// The simulation digest a run is checked by. Fields a path cannot observe
/// (spans over the wire) are zero there and compared only where known.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub completed: u64,
    pub dropped: u64,
    pub events: u64,
    pub spans: u64,
    pub p99_bits: u64,
    /// FNV of the result text, or of the completion/drop streams.
    pub fnv: u64,
}

impl Digest {
    pub fn to_json(self) -> Value {
        json!({
            "completed": self.completed,
            "dropped": self.dropped,
            "events": self.events,
            "spans": self.spans,
            "p99_bits": format!("{:016x}", self.p99_bits),
            "fnv": format!("{:016x}", self.fnv),
        })
    }
}

/// Linear-interpolated percentile of unsorted samples (`p` in 0..=100).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The process high-water RSS in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Process user and system CPU seconds from `/proc/self/stat` (clock
/// ticks at the Linux default of 100 Hz).
pub fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after ")".
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / 100.0
    };
    (tick(11), tick(12))
}

/// A fresh directory under the run's output directory, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(out: &Path, tag: &str) -> TempDir {
        let dir = out.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Cache-hit latencies of an in-process result fetch: the result text is
/// stored once in a fresh [`ResultCache`], then fetched
/// [`LOOKUPS`](crate::LOOKUPS) times the way the server answers a
/// cache-hit `Submit`, minus the socket: derive the key and look it up.
/// Returns the latencies in ms and how many fetches returned other bytes
/// than were stored.
pub fn cache_hits(out: &Path, text: &str, key_of: impl Fn() -> String) -> (Vec<f64>, u64) {
    let n = crate::LOOKUPS;
    let dir = TempDir::new(out, "cache");
    let cache = ResultCache::open(&dir.0).expect("result cache directory");
    let key = key_of();
    cache.store(&key, text).expect("store result");
    let mut lat = Vec::with_capacity(n);
    let mut wrong = 0;
    for _ in 0..n {
        let start = Instant::now();
        let p = trace::begin(Layer::CacheKey);
        let key = key_of();
        trace::end(p);
        let p = trace::begin(Layer::CacheLookup);
        let hit = cache.lookup(&key);
        trace::end(p);
        lat.push(start.elapsed().as_secs_f64() * 1e3);
        wrong += u64::from(hit.as_deref() != Some(text));
    }
    (lat, wrong)
}

/// The result text of a workload without a spec: its seed and digest.
pub fn counters_text(workload: &str, seed: u64, d: &Digest) -> String {
    serde_json::to_string_pretty(&json!({
        "workload": workload,
        "seed": seed,
        "digest": d.to_json(),
    }))
    .expect("serialises")
}

/// Where a measured run leaves its result text for the `fetch` run.
pub fn result_path(args: &crate::Args) -> PathBuf {
    args.out
        .join(format!("result-{}-{}.txt", args.workload, args.seed))
}

/// What one measured (untraced) run reports.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub run_s: f64,
    pub step_ms: Vec<f64>,
    pub requests: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub submit_ms: Vec<f64>,
    pub digest: Digest,
    pub ops: u64,
    pub failed: u64,
}

impl Measured {
    pub fn to_json(&self) -> Value {
        let req = (self.requests as f64).max(1.0);
        let mut out = json!({
            "setup_s": median(&self.setup_s),
            "setup_samples": self.setup_s.clone(),
            "run_s": self.run_s,
            "step_rtt_p50_ms": percentile(&self.step_ms, 50.0),
            "step_rtt_p95_ms": percentile(&self.step_ms, 95.0),
            "step_samples": self.step_ms.len(),
            "requests": self.requests,
            "allocs_per_request": self.allocs as f64 / req,
            "alloc_bytes_per_request": self.alloc_bytes as f64 / req,
            "peak_rss_mb": peak_rss_mb(),
            "digest": self.digest.to_json(),
            "ops": self.ops,
            "failed": self.failed,
        });
        // In-process workloads time their cache hits in `fetch` runs.
        if let (false, Value::Object(map)) = (self.submit_ms.is_empty(), &mut out) {
            let ms = &self.submit_ms;
            map.insert("submit_hit_p50_ms".to_string(), json!(percentile(ms, 50.0)));
            map.insert("submit_hit_p95_ms".to_string(), json!(percentile(ms, 95.0)));
            map.insert("submit_samples".to_string(), json!(ms.len()));
        }
        out
    }
}

/// Times `f` `k` times, keeping the last result.
pub fn repeat_setup<T>(k: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(k);
    let mut last = None;
    for _ in 0..k.max(1) {
        // Drop the previous world before building the next one, so
        // repeated set-ups do not stack up resident memory.
        drop(last.take());
        let start = Instant::now();
        let v = f();
        times.push(start.elapsed().as_secs_f64());
        last = Some(v);
    }
    (times, last.expect("at least one set-up"))
}
