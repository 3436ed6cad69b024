//! Simulation reports.

use crate::cache::CacheStats;
use flo_json::Json;

/// Per-layer cache statistics as reported in Tables 2 and 3.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerStats {
    /// I/O-node layer counters.
    pub io: CacheStats,
    /// Storage-node layer counters.
    pub storage: CacheStats,
}

/// The outcome of one simulated run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Per-layer cache counters.
    pub layers: LayerStats,
    /// Total disk reads.
    pub disk_reads: u64,
    /// Disk reads that were sequential.
    pub disk_sequential_reads: u64,
    /// DEMOTE transfers performed (0 for non-demoting policies).
    pub demotions: u64,
    /// Per-thread accumulated I/O latency in milliseconds.
    pub thread_latency_ms: Vec<f64>,
    /// Compute time charged to every thread, in milliseconds. Compute is
    /// layout-independent and uniform across threads (see
    /// [`crate::sim::RunConfig`]), so a single scalar replaces the
    /// constant-broadcast vector older revisions carried.
    pub compute_ms_per_thread: f64,
    /// Estimated execution time: `max_t(compute_t + latency_t)`.
    pub execution_time_ms: f64,
    /// Total block requests issued.
    pub total_requests: u64,
}

impl SimReport {
    /// Version of the report's JSON schema. Serialized reports carry it
    /// as `schema_version`; [`SimReport::from_json`] rejects mismatches so
    /// downstream readers (`flostat`) fail loudly on incompatible
    /// artifacts instead of misparsing them. Bump on any field change.
    pub const SCHEMA_VERSION: u32 = 1;

    /// I/O-layer miss rate in [0, 1].
    pub fn io_miss_rate(&self) -> f64 {
        self.layers.io.miss_rate()
    }

    /// Storage-layer miss rate in [0, 1].
    pub fn storage_miss_rate(&self) -> f64 {
        self.layers.storage.miss_rate()
    }

    /// Fraction of disk reads that were sequential.
    pub fn disk_sequential_fraction(&self) -> f64 {
        if self.disk_reads == 0 {
            0.0
        } else {
            self.disk_sequential_reads as f64 / self.disk_reads as f64
        }
    }

    /// Aggregate I/O stall time across threads.
    pub fn total_io_ms(&self) -> f64 {
        self.thread_latency_ms.iter().sum()
    }

    /// JSON rendering for experiment artifacts (versioned; see
    /// [`SimReport::SCHEMA_VERSION`]).
    pub fn to_json(&self) -> Json {
        let layer = |s: &CacheStats| Json::obj().set("accesses", s.accesses).set("hits", s.hits);
        Json::obj()
            .set("schema_version", u64::from(Self::SCHEMA_VERSION))
            .set(
                "layers",
                Json::obj()
                    .set("io", layer(&self.layers.io))
                    .set("storage", layer(&self.layers.storage)),
            )
            .set("disk_reads", self.disk_reads)
            .set("disk_sequential_reads", self.disk_sequential_reads)
            .set("demotions", self.demotions)
            .set("thread_latency_ms", self.thread_latency_ms.clone())
            .set("compute_ms_per_thread", self.compute_ms_per_thread)
            .set("execution_time_ms", self.execution_time_ms)
            .set("total_requests", self.total_requests)
    }

    /// Parse a report serialized by [`to_json`](Self::to_json), rejecting
    /// missing fields and incompatible schema versions.
    pub fn from_json(json: &Json) -> Result<SimReport, String> {
        let num = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("SimReport: missing numeric field `{key}`"))
        };
        let version = num(json, "schema_version")?;
        if version != f64::from(Self::SCHEMA_VERSION) {
            return Err(format!(
                "SimReport: schema_version {version} unsupported (this build reads {})",
                Self::SCHEMA_VERSION
            ));
        }
        let layers = json
            .get("layers")
            .ok_or("SimReport: missing `layers`".to_string())?;
        let layer = |key: &str| -> Result<CacheStats, String> {
            let l = layers
                .get(key)
                .ok_or_else(|| format!("SimReport: missing layer `{key}`"))?;
            Ok(CacheStats {
                accesses: num(l, "accesses")? as u64,
                hits: num(l, "hits")? as u64,
            })
        };
        let thread_latency_ms = json
            .get("thread_latency_ms")
            .and_then(Json::as_arr)
            .ok_or("SimReport: missing `thread_latency_ms`".to_string())?
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or("SimReport: non-numeric latency".to_string())
            })
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(SimReport {
            layers: LayerStats {
                io: layer("io")?,
                storage: layer("storage")?,
            },
            disk_reads: num(json, "disk_reads")? as u64,
            disk_sequential_reads: num(json, "disk_sequential_reads")? as u64,
            demotions: num(json, "demotions")? as u64,
            thread_latency_ms,
            compute_ms_per_thread: num(json, "compute_ms_per_thread")?,
            execution_time_ms: num(json, "execution_time_ms")?,
            total_requests: num(json, "total_requests")? as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let mut r = SimReport::default();
        r.layers.io.accesses = 10;
        r.layers.io.hits = 7;
        r.layers.storage.accesses = 3;
        r.layers.storage.hits = 1;
        r.disk_reads = 2;
        r.disk_sequential_reads = 1;
        assert!((r.io_miss_rate() - 0.3).abs() < 1e-12);
        assert!((r.storage_miss_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.disk_sequential_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_report_has_zero_rates() {
        let r = SimReport::default();
        assert_eq!(r.io_miss_rate(), 0.0);
        assert_eq!(r.disk_sequential_fraction(), 0.0);
        assert_eq!(r.total_io_ms(), 0.0);
    }

    #[test]
    fn serializes_to_json() {
        let r = SimReport {
            disk_reads: 5,
            execution_time_ms: 1.5,
            ..SimReport::default()
        };
        let json = r.to_json();
        assert_eq!(json.get("disk_reads").and_then(Json::as_f64), Some(5.0));
        assert_eq!(
            json.get("execution_time_ms").and_then(Json::as_f64),
            Some(1.5)
        );
        assert_eq!(
            json.get("schema_version").and_then(Json::as_f64),
            Some(f64::from(SimReport::SCHEMA_VERSION))
        );
        assert!(flo_json::parse(&json.pretty()).is_ok());
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let r = SimReport {
            layers: LayerStats {
                io: CacheStats {
                    accesses: 1234,
                    hits: 987,
                },
                storage: CacheStats {
                    accesses: 321,
                    hits: 45,
                },
            },
            disk_reads: 276,
            disk_sequential_reads: 100,
            demotions: 7,
            thread_latency_ms: vec![1.25, 0.5, 9.875],
            compute_ms_per_thread: 2.5,
            execution_time_ms: 12.375,
            total_requests: 555,
        };
        // Through text and back: parse(pretty(to_json)) → from_json.
        let text = r.to_json().pretty();
        let back = SimReport::from_json(&flo_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.layers.io, r.layers.io);
        assert_eq!(back.layers.storage, r.layers.storage);
        assert_eq!(back.disk_reads, r.disk_reads);
        assert_eq!(back.disk_sequential_reads, r.disk_sequential_reads);
        assert_eq!(back.demotions, r.demotions);
        assert_eq!(back.thread_latency_ms, r.thread_latency_ms);
        assert_eq!(
            back.compute_ms_per_thread.to_bits(),
            r.compute_ms_per_thread.to_bits()
        );
        assert_eq!(
            back.execution_time_ms.to_bits(),
            r.execution_time_ms.to_bits()
        );
        assert_eq!(back.total_requests, r.total_requests);
        // And the re-serialization is byte-identical.
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn from_json_rejects_incompatible_artifacts() {
        let good = SimReport::default().to_json();
        assert!(SimReport::from_json(&good).is_ok());
        // Wrong version.
        let bad = Json::obj().set("schema_version", 999u64);
        let err = SimReport::from_json(&bad).unwrap_err();
        assert!(err.contains("999"), "{err}");
        // Missing version entirely (pre-versioned artifact).
        let unversioned = Json::obj().set("disk_reads", 1u64);
        assert!(SimReport::from_json(&unversioned).is_err());
        // Truncated object.
        let partial = Json::obj().set("schema_version", u64::from(SimReport::SCHEMA_VERSION));
        assert!(SimReport::from_json(&partial).is_err());
    }
}
