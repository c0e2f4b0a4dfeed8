//! Critical-path extraction and the statistics behind critical-service
//! localisation (the first phase of the SCG workflow, §3.2).

use crate::{ReplicaId, ServiceId, SpanId, Trace};
use sim_core::stats::{pearson, OnlineStats};
use sim_core::SimDuration;
use std::cmp::Reverse;
use std::collections::HashMap;

/// One hop of a request's critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathHop {
    /// The service at this depth (depth 0 is the front-end).
    pub service: ServiceId,
    /// The replica that served it.
    pub replica: ReplicaId,
    /// The hop's *own* processing time (wall time minus downstream waits) —
    /// the paper's `PT_s`.
    pub self_time: SimDuration,
    /// The hop's total wall time including downstream waits — `RT_s`.
    pub response_time: SimDuration,
}

/// Extracts a trace's critical path: starting at the root span, repeatedly
/// descend into the direct child span with the largest wall time (the
/// *path of maximal duration* in the paper's definition, footnote 1). For
/// purely sequential call chains this visits every service on the chain;
/// for parallel fan-outs it follows the slowest branch — e.g. either
/// `front-end → Cart → Cart-db` or `front-end → Catalogue → Catalogue-db`
/// for the Catalogue request of Fig. 5, depending on runtime contention.
///
/// Returns the hops front-end-first. Never empty for a well-formed trace.
pub fn critical_path(trace: &Trace) -> Vec<PathHop> {
    let mut path = Vec::new();
    critical_path_into(trace, &mut Vec::new(), &mut path);
    path
}

/// [`critical_path`] into caller-owned buffers: `path` is cleared and
/// refilled, `by_parent` is scratch. Analysing a window with the same two
/// buffers allocates only when a trace outgrows them.
///
/// `by_parent` holds `(parent, span index)` for every span, sorted, so the
/// children of a span are one contiguous run found by binary search —
/// O(n log n) per trace, with no per-trace map and no quadratic child scan
/// on wide fan-outs.
fn critical_path_into(
    trace: &Trace,
    by_parent: &mut Vec<(Option<SpanId>, usize)>,
    path: &mut Vec<PathHop>,
) {
    path.clear();
    by_parent.clear();
    by_parent.extend(trace.spans.iter().enumerate().map(|(i, s)| (s.parent, i)));
    by_parent.sort_unstable();
    // The first root in span order; `None` sorts before every `Some`.
    let mut current = match by_parent.first() {
        Some(&(None, root)) => root,
        _ => return,
    };
    loop {
        let span = &trace.spans[current];
        path.push(PathHop {
            service: span.service,
            replica: span.replica,
            self_time: span.self_time(),
            response_time: span.response_time(),
        });
        let key = Some(span.id);
        let lo = by_parent.partition_point(|&(p, _)| p < key);
        let hi = lo + by_parent[lo..].partition_point(|&(p, _)| p == key);
        let next = by_parent[lo..hi]
            .iter()
            .map(|&(_, i)| i)
            .max_by_key(|&i| (trace.spans[i].response_time(), Reverse(i)));
        match next {
            Some(i) => current = i,
            None => break,
        }
    }
}

/// Aggregated critical-path statistics over a window of traces: dominant
/// path shape, per-service Pearson correlation between on-path processing
/// time and end-to-end response time (the localisation signal), and mean
/// upstream processing time (the deadline-propagation input).
#[derive(Debug, Clone, Default)]
pub struct CriticalPathStats {
    /// How often each path shape (sequence of services) occurred.
    path_counts: HashMap<Vec<ServiceId>, u64>,
    /// Per-service: paired `(PT_si, RT_cp)` samples across traces where the
    /// service was on the critical path.
    samples: HashMap<ServiceId, (Vec<f64>, Vec<f64>)>,
    /// Per-service: sum of self-times of hops strictly *before* the service
    /// on the path (upstream processing, `Σ PT_sk` of eq. 3).
    upstream: HashMap<ServiceId, OnlineStats>,
    traces: u64,
}

impl CriticalPathStats {
    /// Number of traces analysed.
    pub fn trace_count(&self) -> u64 {
        self.traces
    }

    /// The most frequent critical-path shape, if any traces were analysed.
    /// Equal counts go to the shorter shape, then to the lexicographically
    /// smallest one, so the answer never depends on map iteration order.
    pub fn dominant_path(&self) -> Option<&[ServiceId]> {
        self.path_counts
            .iter()
            .max_by_key(|&(path, &count)| (count, Reverse(path.len()), Reverse(path)))
            .map(|(path, _)| path.as_slice())
    }

    /// Pearson correlation between `service`'s on-path processing time and
    /// the end-to-end response time — the paper's `PCC(PT_si, RT_CP)`.
    pub fn pcc(&self, service: ServiceId) -> Option<f64> {
        let (pt, rt) = self.samples.get(&service)?;
        pearson(pt, rt)
    }

    /// The candidate critical service: largest PCC, ties broken toward the
    /// lower service id (deterministic).
    pub fn candidate_critical_service(&self) -> Option<ServiceId> {
        let mut best: Option<(f64, ServiceId)> = None;
        let mut ids: Vec<ServiceId> = self.samples.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            if let Some(r) = self.pcc(id) {
                match best {
                    Some((br, _)) if br >= r => {}
                    _ => best = Some((r, id)),
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// Mean upstream processing time observed before `service` on critical
    /// paths that include it — the `Σ_{k<i} PT_sk` of the RT-threshold
    /// propagation phase.
    pub fn mean_upstream_pt(&self, service: ServiceId) -> Option<SimDuration> {
        let stats = self.upstream.get(&service)?;
        if stats.is_empty() {
            return None;
        }
        Some(SimDuration::from_nanos(stats.mean().round() as u64))
    }

    /// How many traces had `service` on their critical path.
    pub fn on_path_count(&self, service: ServiceId) -> u64 {
        self.samples
            .get(&service)
            .map_or(0, |(pt, _)| pt.len() as u64)
    }
}

/// Analyses a window of traces into [`CriticalPathStats`].
///
/// The path, shape and child-index buffers are reused across the window,
/// and a shape key is allocated only the first time that shape is seen, so
/// a window costs allocations in the number of distinct shapes and
/// services, not in the number of traces.
pub fn per_service_stats<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> CriticalPathStats {
    let mut stats = CriticalPathStats::default();
    let mut by_parent = Vec::new();
    let mut path = Vec::new();
    let mut shape: Vec<ServiceId> = Vec::new();
    for trace in traces {
        critical_path_into(trace, &mut by_parent, &mut path);
        if path.is_empty() {
            continue;
        }
        stats.traces += 1;
        let rt = trace.response_time().as_nanos() as f64;
        shape.clear();
        shape.extend(path.iter().map(|h| h.service));
        match stats.path_counts.get_mut(shape.as_slice()) {
            Some(count) => *count += 1,
            None => {
                stats.path_counts.insert(shape.clone(), 1);
            }
        }
        let mut upstream = SimDuration::ZERO;
        for hop in &path {
            let entry = stats.samples.entry(hop.service).or_default();
            entry.0.push(hop.self_time.as_nanos() as f64);
            entry.1.push(rt);
            stats
                .upstream
                .entry(hop.service)
                .or_insert_with(OnlineStats::new)
                .push(upstream.as_nanos() as f64);
            upstream += hop.self_time;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChildCall, RequestId, RequestTypeId, Span, SpanId};
    use sim_core::SimTime;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// front-end(0) calls cart(1) and catalogue(2) in parallel; catalogue
    /// calls catalogue-db(3). Durations chosen so catalogue branch wins.
    fn fanout_trace(req: u64, cat_ms: u64) -> Trace {
        let fe = Span {
            id: SpanId(0),
            request: RequestId(req),
            service: ServiceId(0),
            replica: ReplicaId(0),
            parent: None,
            arrival: t(0),
            service_start: t(0),
            departure: t(cat_ms + 20),
            children: vec![
                ChildCall {
                    service: ServiceId(1),
                    start: t(5),
                    end: t(35),
                },
                ChildCall {
                    service: ServiceId(2),
                    start: t(5),
                    end: t(cat_ms + 10),
                },
            ],
        };
        let cart = Span {
            id: SpanId(1),
            parent: Some(SpanId(0)),
            service: ServiceId(1),
            arrival: t(5),
            service_start: t(5),
            departure: t(35),
            children: vec![],
            ..fe.clone()
        };
        let cat = Span {
            id: SpanId(2),
            parent: Some(SpanId(0)),
            service: ServiceId(2),
            arrival: t(5),
            service_start: t(5),
            departure: t(cat_ms + 10),
            children: vec![ChildCall {
                service: ServiceId(3),
                start: t(10),
                end: t(cat_ms),
            }],
            ..fe.clone()
        };
        let db = Span {
            id: SpanId(3),
            parent: Some(SpanId(2)),
            service: ServiceId(3),
            arrival: t(10),
            service_start: t(10),
            departure: t(cat_ms),
            children: vec![],
            ..fe.clone()
        };
        Trace {
            request: RequestId(req),
            request_type: RequestTypeId(0),
            spans: vec![fe, cart, cat, db],
        }
    }

    #[test]
    fn critical_path_follows_slowest_branch() {
        let trace = fanout_trace(1, 100);
        let path = critical_path(&trace);
        let services: Vec<u32> = path.iter().map(|h| h.service.get()).collect();
        assert_eq!(services, [0, 2, 3], "front-end → catalogue → catalogue-db");
    }

    #[test]
    fn critical_path_switches_when_branch_times_flip() {
        // Catalogue branch finishes at 30 ms — now the cart branch (35 ms)
        // dominates.
        let trace = fanout_trace(1, 20);
        let path = critical_path(&trace);
        let services: Vec<u32> = path.iter().map(|h| h.service.get()).collect();
        assert_eq!(services, [0, 1], "front-end → cart");
    }

    #[test]
    fn hop_self_times_subtract_child_waits() {
        let trace = fanout_trace(1, 100);
        let path = critical_path(&trace);
        // front-end span: 120 ms wall, children cover [5, 110] → 15 ms self.
        assert_eq!(path[0].self_time.as_millis(), 15);
        // catalogue: [5, 110] wall = 105, db call covers [10,100] → 15 ms.
        assert_eq!(path[1].self_time.as_millis(), 15);
        // db leaf: all self time.
        assert_eq!(path[2].self_time.as_millis(), 90);
    }

    #[test]
    fn stats_identify_variable_service() {
        // catalogue-db time varies; all others constant → highest PCC at
        // db (3) and catalogue (2); db self-time drives it.
        let traces: Vec<Trace> = (0..20).map(|i| fanout_trace(i, 60 + i * 10)).collect();
        let stats = per_service_stats(&traces);
        assert_eq!(stats.trace_count(), 20);
        assert_eq!(stats.dominant_path().unwrap().len(), 3);
        let db_pcc = stats.pcc(ServiceId(3)).unwrap();
        assert!(db_pcc > 0.99, "db self-time should track RT: {db_pcc}");
        let candidate = stats.candidate_critical_service().unwrap();
        assert_eq!(candidate, ServiceId(3));
        assert_eq!(stats.on_path_count(ServiceId(1)), 0);
    }

    #[test]
    fn upstream_pt_accumulates_along_path() {
        let traces: Vec<Trace> = (0..5).map(|i| fanout_trace(i, 100)).collect();
        let stats = per_service_stats(&traces);
        // Upstream of the front-end is zero.
        assert_eq!(
            stats.mean_upstream_pt(ServiceId(0)).unwrap(),
            SimDuration::ZERO
        );
        // Upstream of catalogue = front-end self time (15 ms).
        assert_eq!(
            stats.mean_upstream_pt(ServiceId(2)).unwrap().as_millis(),
            15
        );
        // Upstream of db = 15 + 15 = 30 ms.
        assert_eq!(
            stats.mean_upstream_pt(ServiceId(3)).unwrap().as_millis(),
            30
        );
        assert_eq!(stats.mean_upstream_pt(ServiceId(9)), None);
    }

    #[test]
    fn empty_trace_yields_empty_path() {
        let trace = Trace {
            request: RequestId(0),
            request_type: RequestTypeId(0),
            spans: vec![],
        };
        assert!(critical_path(&trace).is_empty());
    }

    #[test]
    fn dominant_path_breaks_full_ties_toward_the_smallest_shape() {
        // Two shapes, equal count and equal length: whatever order the map
        // iterates in, the lexicographically smaller shape wins. Each new
        // map draws fresh hash keys, so the rounds see different orders.
        for _ in 0..8 {
            let mut stats = CriticalPathStats::default();
            stats
                .path_counts
                .insert(vec![ServiceId(0), ServiceId(2), ServiceId(3)], 4);
            stats
                .path_counts
                .insert(vec![ServiceId(0), ServiceId(1), ServiceId(5)], 4);
            stats
                .path_counts
                .insert(vec![ServiceId(0), ServiceId(1)], 2);
            assert_eq!(
                stats.dominant_path().unwrap(),
                [ServiceId(0), ServiceId(1), ServiceId(5)]
            );
        }
    }

    #[test]
    fn dominant_path_prefers_count_then_shorter_shape() {
        let mut stats = CriticalPathStats::default();
        stats.path_counts.insert(vec![ServiceId(9)], 3);
        stats
            .path_counts
            .insert(vec![ServiceId(0), ServiceId(1)], 3);
        stats.path_counts.insert(vec![ServiceId(0)], 1);
        assert_eq!(stats.dominant_path().unwrap(), [ServiceId(9)]);
        stats
            .path_counts
            .insert(vec![ServiceId(0), ServiceId(1)], 5);
        assert_eq!(stats.dominant_path().unwrap(), [ServiceId(0), ServiceId(1)]);
    }

    /// The map-based analysis this module used before it moved to reusable
    /// scratch, kept as the equivalence oracle. Self-times go through the
    /// sorted interval merge.
    mod reference {
        use super::super::*;
        use crate::SpanId;

        pub fn critical_path(trace: &Trace) -> Vec<PathHop> {
            let mut children: HashMap<Option<SpanId>, Vec<usize>> = HashMap::new();
            for (i, s) in trace.spans.iter().enumerate() {
                children.entry(s.parent).or_default().push(i);
            }
            let mut path = Vec::new();
            let mut current = match children.get(&None).and_then(|roots| roots.first()) {
                Some(&root) => root,
                None => return path,
            };
            loop {
                let span = &trace.spans[current];
                let total = span.response_time();
                let waiting = span.child_wait_time_sorted();
                path.push(PathHop {
                    service: span.service,
                    replica: span.replica,
                    self_time: if waiting >= total {
                        SimDuration::ZERO
                    } else {
                        total - waiting
                    },
                    response_time: total,
                });
                let next = children.get(&Some(span.id)).and_then(|kids| {
                    kids.iter()
                        .copied()
                        .max_by_key(|&i| (trace.spans[i].response_time(), Reverse(i)))
                });
                match next {
                    Some(i) => current = i,
                    None => break,
                }
            }
            path
        }

        pub fn per_service_stats<'a>(
            traces: impl IntoIterator<Item = &'a Trace>,
        ) -> CriticalPathStats {
            let mut stats = CriticalPathStats::default();
            for trace in traces {
                let path = critical_path(trace);
                if path.is_empty() {
                    continue;
                }
                stats.traces += 1;
                let rt = trace.response_time().as_nanos() as f64;
                let shape: Vec<ServiceId> = path.iter().map(|h| h.service).collect();
                *stats.path_counts.entry(shape).or_insert(0) += 1;
                let mut upstream = SimDuration::ZERO;
                for hop in &path {
                    let entry = stats.samples.entry(hop.service).or_default();
                    entry.0.push(hop.self_time.as_nanos() as f64);
                    entry.1.push(rt);
                    stats
                        .upstream
                        .entry(hop.service)
                        .or_insert_with(OnlineStats::new)
                        .push(upstream.as_nanos() as f64);
                    upstream += hop.self_time;
                }
            }
            stats
        }
    }

    /// splitmix64 step, for building generated traces from one drawn seed.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = *state;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// A generated trace: up to `width` children per span, durations on a
    /// coarse 5 ms grid (so response-time ties are common), children both
    /// overlapping and out of start order, spans listed in shuffled order
    /// (so parents may come after children), and sometimes an orphan span
    /// whose parent id exists nowhere or a trace with no root at all.
    fn generated_trace(seed: u64, spans: usize, width: u64) -> Trace {
        let mut st = seed;
        let mut list: Vec<Span> = Vec::with_capacity(spans);
        for i in 0..spans {
            let parent = if i == 0 {
                None
            } else {
                Some(SpanId(mix(&mut st) % (i as u64).min(width * 4)))
            };
            let arrival = t(5 * (mix(&mut st) % 8));
            let departure = arrival + SimDuration::from_millis(5 * (1 + mix(&mut st) % 12));
            let kids = mix(&mut st) % (width + 1);
            let children = (0..kids)
                .map(|_| {
                    let start = t(5 * (mix(&mut st) % 20));
                    ChildCall {
                        service: ServiceId((mix(&mut st) % 6) as u32),
                        start,
                        end: start + SimDuration::from_millis(5 * (mix(&mut st) % 10)),
                    }
                })
                .collect();
            list.push(Span {
                id: SpanId(i as u64),
                request: RequestId(seed),
                service: ServiceId((mix(&mut st) % 6) as u32),
                replica: ReplicaId(mix(&mut st) % 3),
                parent,
                arrival,
                service_start: arrival,
                departure,
                children,
            });
        }
        match mix(&mut st) % 8 {
            // An orphan: its parent id names no span.
            0 if spans > 1 => list[spans - 1].parent = Some(SpanId(10_000)),
            // No root at all: the path is empty.
            1 if spans > 0 => list[0].parent = Some(SpanId(10_001)),
            _ => {}
        }
        for i in (1..list.len()).rev() {
            let j = (mix(&mut st) % (i as u64 + 1)) as usize;
            list.swap(i, j);
        }
        Trace {
            request: RequestId(seed),
            request_type: RequestTypeId(0),
            spans: list,
        }
    }

    fn assert_same_stats(new: &CriticalPathStats, old: &CriticalPathStats) {
        assert_eq!(new.traces, old.traces);
        assert_eq!(new.path_counts, old.path_counts);
        assert_eq!(new.samples, old.samples);
        assert_eq!(new.upstream, old.upstream);
        assert_eq!(new.dominant_path(), old.dominant_path());
    }

    proptest::proptest! {
        /// Scratch-based descent picks exactly the hops the map-based one
        /// does, ties and fan-outs included.
        #[test]
        fn critical_path_matches_reference(
            seed in 0u64..u64::MAX,
            spans in 0usize..24,
            width in 1u64..8,
        ) {
            let trace = generated_trace(seed, spans, width);
            proptest::prop_assert_eq!(critical_path(&trace), reference::critical_path(&trace));
        }

        /// A window analysed with reused buffers gives the same statistics
        /// as the per-trace-allocating reference.
        #[test]
        fn per_service_stats_matches_reference(
            seed in 0u64..u64::MAX,
            traces in 0usize..40,
            width in 1u64..6,
        ) {
            let window: Vec<Trace> = (0..traces)
                .map(|i| generated_trace(seed ^ (i as u64) << 20, 1 + i % 9, width))
                .collect();
            assert_same_stats(
                &per_service_stats(&window),
                &reference::per_service_stats(&window),
            );
        }
    }

    #[test]
    fn simulator_shaped_window_matches_reference() {
        let window: Vec<Trace> = (0..50)
            .map(|i| fanout_trace(i, 20 + (i % 7) * 15))
            .collect();
        assert_same_stats(
            &per_service_stats(&window),
            &reference::per_service_stats(&window),
        );
    }
}
