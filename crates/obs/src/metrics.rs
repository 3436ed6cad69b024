//! The collecting [`Observer`] implementation.

use flo_json::Json;

use crate::hist::Hist;
use crate::observer::{FaultEvent, KarmaRoute, Layer, Observer};

/// Counters for one cache (one node within a layer).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Block-level lookups.
    pub accesses: u64,
    /// Block-level hits.
    pub hits: u64,
    /// Element-weighted lookups (coalesced run lengths summed).
    pub weighted_accesses: u64,
    /// Element-weighted hits.
    pub weighted_hits: u64,
    /// Blocks evicted to admit others.
    pub evictions: u64,
}

impl NodeCounters {
    /// Block-level hit ratio (0 when unused).
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    fn to_json(&self, node: usize, demotions: Option<u64>) -> Json {
        let mut j = Json::obj()
            .set("node", node)
            .set("accesses", self.accesses)
            .set("hits", self.hits)
            .set("weighted_accesses", self.weighted_accesses)
            .set("weighted_hits", self.weighted_hits)
            .set("evictions", self.evictions);
        if let Some(d) = demotions {
            j = j.set("demotions", d);
        }
        j
    }
}

/// Counters for one disk (one storage node).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiskCounters {
    /// Reads served.
    pub reads: u64,
    /// Reads the elevator window classified as sequential.
    pub sequential: u64,
    /// Total modeled latency, in milliseconds.
    pub latency_ms: f64,
}

/// How many requests KARMA routed to each level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KarmaUtil {
    /// Routed to the I/O (upper) layer.
    pub upper: u64,
    /// Routed to the storage (lower) layer.
    pub lower: u64,
    /// Bypassed both caches.
    pub bypass: u64,
}

/// Tallies of the injected-fault events of a degraded-mode run (all zero
/// on healthy runs and when no fault plan is active).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultCounters {
    /// Node-outage windows entered.
    pub outages: u64,
    /// Requests re-striped away from a dark storage node.
    pub failovers: u64,
    /// Disk reads served by a degraded (straggler) disk.
    pub straggler_reads: u64,
    /// Extra straggler latency charged, in milliseconds.
    pub straggler_ms: f64,
    /// Transient I/O errors absorbed by the retry model.
    pub retries: u64,
    /// Retry backoff/timeout latency charged, in milliseconds.
    pub retry_ms: f64,
    /// Fault-injected cache flushes.
    pub cache_flushes: u64,
    /// Resident blocks lost to cache flushes.
    pub flushed_blocks: u64,
}

impl FaultCounters {
    /// Whether any fault event was recorded.
    pub fn any(&self) -> bool {
        self.outages > 0
            || self.failovers > 0
            || self.straggler_reads > 0
            || self.retries > 0
            || self.cache_flushes > 0
    }

    /// Accumulate another run's counters into this one (suite totals).
    pub fn merge(&mut self, other: &FaultCounters) {
        self.outages += other.outages;
        self.failovers += other.failovers;
        self.straggler_reads += other.straggler_reads;
        self.straggler_ms += other.straggler_ms;
        self.retries += other.retries;
        self.retry_ms += other.retry_ms;
        self.cache_flushes += other.cache_flushes;
        self.flushed_blocks += other.flushed_blocks;
    }

    /// JSON image, as embedded in the metrics artifact's `faults` key.
    pub fn to_json(self) -> Json {
        Json::obj()
            .set("outages", self.outages)
            .set("failovers", self.failovers)
            .set("straggler_reads", self.straggler_reads)
            .set("straggler_ms", self.straggler_ms)
            .set("retries", self.retries)
            .set("retry_ms", self.retry_ms)
            .set("cache_flushes", self.cache_flushes)
            .set("flushed_blocks", self.flushed_blocks)
    }
}

/// One end-of-run per-set occupancy snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OccupancySnapshot {
    /// Which layer the cache sits at.
    pub layer: Layer,
    /// Node index within the layer.
    pub node: usize,
    /// Resident blocks per set.
    pub per_set: Vec<u32>,
}

/// An [`Observer`] that accumulates everything the simulator reports:
/// per-layer per-node counters, disk seek/sequential breakdowns, KARMA
/// routing utilization, a stack-distance histogram and per-set occupancy
/// snapshots. [`MetricsObserver::to_json`] renders the lot as the
/// `layers` event of a metrics artifact.
#[derive(Clone, Debug, Default)]
pub struct MetricsObserver {
    /// I/O-layer caches, indexed by node (grown on demand).
    pub io: Vec<NodeCounters>,
    /// Storage-layer caches, indexed by node.
    pub storage: Vec<NodeCounters>,
    /// DEMOTE-LRU demotions out of each I/O node.
    pub demotions: Vec<u64>,
    /// Disks, indexed by storage node.
    pub disks: Vec<DiskCounters>,
    /// KARMA routing tallies.
    pub karma: KarmaUtil,
    /// Histogram of observed stack distances (warm accesses only).
    pub stack: Hist,
    /// Cold (first-touch) accesses seen by the sweep engine.
    pub cold: u64,
    /// End-of-run occupancy snapshots.
    pub occupancy: Vec<OccupancySnapshot>,
    /// Injected-fault tallies (degraded-mode runs).
    pub faults: FaultCounters,
}

fn at<T: Default + Clone>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize(i + 1, T::default());
    }
    &mut v[i]
}

impl MetricsObserver {
    /// A fresh, empty collector.
    pub fn new() -> MetricsObserver {
        MetricsObserver::default()
    }

    fn layer_mut(&mut self, layer: Layer) -> &mut Vec<NodeCounters> {
        match layer {
            Layer::Io => &mut self.io,
            Layer::Storage => &mut self.storage,
        }
    }

    /// Layer-wide totals: summed counters across a layer's nodes.
    pub fn layer_totals(&self, layer: Layer) -> NodeCounters {
        let nodes = match layer {
            Layer::Io => &self.io,
            Layer::Storage => &self.storage,
        };
        let mut total = NodeCounters::default();
        for n in nodes {
            total.accesses += n.accesses;
            total.hits += n.hits;
            total.weighted_accesses += n.weighted_accesses;
            total.weighted_hits += n.weighted_hits;
            total.evictions += n.evictions;
        }
        total
    }

    /// Total disk reads across all storage nodes.
    pub fn disk_reads(&self) -> u64 {
        self.disks.iter().map(|d| d.reads).sum()
    }

    /// The `layers` event payload: everything this observer collected.
    pub fn to_json(&self) -> Json {
        let io: Vec<Json> = self
            .io
            .iter()
            .enumerate()
            .map(|(n, c)| c.to_json(n, Some(self.demotions.get(n).copied().unwrap_or(0))))
            .collect();
        let storage: Vec<Json> = self
            .storage
            .iter()
            .enumerate()
            .map(|(n, c)| c.to_json(n, None))
            .collect();
        let disks: Vec<Json> = self
            .disks
            .iter()
            .enumerate()
            .map(|(n, d)| {
                Json::obj()
                    .set("node", n)
                    .set("reads", d.reads)
                    .set("sequential", d.sequential)
                    .set("latency_ms", d.latency_ms)
            })
            .collect();
        let occupancy: Vec<Json> = self
            .occupancy
            .iter()
            .map(|o| {
                Json::obj()
                    .set("layer", o.layer.name())
                    .set("node", o.node)
                    .set(
                        "sets",
                        o.per_set.iter().map(|&s| u64::from(s)).collect::<Vec<_>>(),
                    )
            })
            .collect();
        Json::obj()
            .set("io", Json::Arr(io))
            .set("storage", Json::Arr(storage))
            .set("disks", Json::Arr(disks))
            .set(
                "karma",
                Json::obj()
                    .set("upper", self.karma.upper)
                    .set("lower", self.karma.lower)
                    .set("bypass", self.karma.bypass),
            )
            .set(
                "stack_distance",
                self.stack.to_json().set("cold", self.cold),
            )
            .set("occupancy", Json::Arr(occupancy))
            .set("faults", self.faults.to_json())
    }
}

impl Observer for MetricsObserver {
    fn cache_access(&mut self, layer: Layer, node: usize, hit: bool, weight: u32) {
        let c = at(self.layer_mut(layer), node);
        c.accesses += 1;
        c.weighted_accesses += u64::from(weight);
        if hit {
            c.hits += 1;
            c.weighted_hits += u64::from(weight);
        }
    }

    fn eviction(&mut self, layer: Layer, node: usize) {
        at(self.layer_mut(layer), node).evictions += 1;
    }

    fn demotion(&mut self, node: usize) {
        *at(&mut self.demotions, node) += 1;
    }

    fn disk_read(&mut self, node: usize, sequential: bool, latency_ms: f64) {
        let d = at(&mut self.disks, node);
        d.reads += 1;
        if sequential {
            d.sequential += 1;
        }
        d.latency_ms += latency_ms;
    }

    fn karma_route(&mut self, route: KarmaRoute) {
        match route {
            KarmaRoute::Upper => self.karma.upper += 1,
            KarmaRoute::Lower => self.karma.lower += 1,
            KarmaRoute::Bypass => self.karma.bypass += 1,
        }
    }

    fn stack_distance(&mut self, dist: Option<u64>) {
        match dist {
            Some(d) => self.stack.record(d),
            None => self.cold += 1,
        }
    }

    fn occupancy(&mut self, layer: Layer, node: usize, per_set: &[u32]) {
        self.occupancy.push(OccupancySnapshot {
            layer,
            node,
            per_set: per_set.to_vec(),
        });
    }

    fn fault(&mut self, event: FaultEvent) {
        match event {
            FaultEvent::Outage { .. } => self.faults.outages += 1,
            FaultEvent::Failover { .. } => self.faults.failovers += 1,
            FaultEvent::StragglerRead { extra_ms, .. } => {
                self.faults.straggler_reads += 1;
                self.faults.straggler_ms += extra_ms;
            }
            FaultEvent::Retry { wait_ms, .. } => {
                self.faults.retries += 1;
                self.faults.retry_ms += wait_ms;
            }
            FaultEvent::CacheFlush { blocks, .. } => {
                self.faults.cache_flushes += 1;
                self.faults.flushed_blocks += blocks as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_all_event_kinds() {
        let mut m = MetricsObserver::new();
        m.cache_access(Layer::Io, 1, true, 4);
        m.cache_access(Layer::Io, 1, false, 2);
        m.cache_access(Layer::Storage, 0, false, 1);
        m.eviction(Layer::Storage, 0);
        m.demotion(1);
        m.disk_read(0, true, 3.5);
        m.disk_read(0, false, 9.0);
        m.karma_route(KarmaRoute::Upper);
        m.karma_route(KarmaRoute::Bypass);
        m.stack_distance(Some(5));
        m.stack_distance(None);
        m.occupancy(Layer::Io, 1, &[2, 0, 1]);
        m.fault(FaultEvent::Outage { node: 0 });
        m.fault(FaultEvent::Failover { from: 0, to: 1 });
        m.fault(FaultEvent::StragglerRead {
            node: 1,
            extra_ms: 4.5,
        });
        m.fault(FaultEvent::Retry {
            node: 1,
            attempt: 0,
            wait_ms: 2.0,
        });
        m.fault(FaultEvent::CacheFlush {
            layer: Layer::Io,
            node: 0,
            blocks: 7,
        });

        assert_eq!(m.io[1].accesses, 2);
        assert_eq!(m.io[1].hits, 1);
        assert_eq!(m.io[1].weighted_accesses, 6);
        assert_eq!(m.io[1].weighted_hits, 4);
        assert!((m.io[1].hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(m.io[0], NodeCounters::default(), "untouched node stays 0");
        assert_eq!(m.storage[0].evictions, 1);
        assert_eq!(m.demotions[1], 1);
        assert_eq!(m.disks[0].reads, 2);
        assert_eq!(m.disks[0].sequential, 1);
        assert!((m.disks[0].latency_ms - 12.5).abs() < 1e-12);
        assert_eq!(
            m.karma,
            KarmaUtil {
                upper: 1,
                lower: 0,
                bypass: 1
            }
        );
        assert_eq!(m.stack.count(), 1);
        assert_eq!(m.cold, 1);
        assert_eq!(m.occupancy[0].per_set, vec![2, 0, 1]);
        assert_eq!(m.disk_reads(), 2);
        assert_eq!(m.layer_totals(Layer::Io).accesses, 2);
        assert!(m.faults.any());
        assert_eq!(m.faults.outages, 1);
        assert_eq!(m.faults.failovers, 1);
        assert_eq!(m.faults.straggler_reads, 1);
        assert!((m.faults.straggler_ms - 4.5).abs() < 1e-12);
        assert_eq!(m.faults.retries, 1);
        assert!((m.faults.retry_ms - 2.0).abs() < 1e-12);
        assert_eq!(m.faults.cache_flushes, 1);
        assert_eq!(m.faults.flushed_blocks, 7);
    }

    #[test]
    fn json_payload_is_parseable() {
        let mut m = MetricsObserver::new();
        m.cache_access(Layer::Io, 0, true, 1);
        m.disk_read(0, false, 8.0);
        let j = m.to_json();
        assert!(flo_json::parse(&j.to_string()).is_ok());
        let io = j.get("io").and_then(Json::as_arr).unwrap();
        assert_eq!(io[0].get("hits").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            j.get("stack_distance")
                .and_then(|s| s.get("cold"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }
}
