//! Request execution over the shared cross-request cache.
//!
//! [`Service::execute`] is the *only* code path that turns a [`Request`]
//! into a result — the daemon's worker threads, `floq --direct`, and the
//! differential suite all call it (or the underlying harness functions it
//! delegates to). Bit-identical served responses are therefore a
//! construction property, not a testing aspiration: the server adds an
//! envelope around the very JSON an in-process caller would produce.
//!
//! Two things make that sound:
//!
//! * every computation behind a request is deterministic — trace
//!   generation, simulation, sweeps, and fault schedules are all pure
//!   functions of their inputs (see DESIGN.md §2.7–§2.9) — so cache
//!   hits, eviction-forced recomputation, and racing duplicate inserts
//!   all yield the same bytes;
//! * results carry no wall-clock values. The layout response reports the
//!   pass's `optimized_fraction` but deliberately omits `compile_ms`.

use crate::protocol::{scale_name, target_name, FaultSpec, Request, ServeError};
use flo_bench::harness::{prepare_run, sweep_outcomes, RunOverrides};
use flo_bench::{
    run_app_cached, run_app_faulted_cached, topology_for, Lru, RunCaches, Scheme, DEFAULT_CACHE_MB,
};
use flo_core::TargetLayers;
use flo_json::Json;
use flo_sim::{FaultPlan, PolicyKind, SweepPoint};
use flo_workloads::{by_name, Scale, Workload};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One in-flight computation of a work key: the leader thread computes
/// and publishes the result; followers block on the condvar and clone
/// it. Results are `Arc<Vec<u8>>`, so "clone" is a pointer bump — the
/// followers get the *same bytes* the leader produced, which is what
/// makes concurrent identical requests (several clients asking for one
/// key, a replay after a redial) free of duplicate compute on a node.
#[derive(Default)]
struct Flight {
    done: Mutex<Option<Result<Arc<Vec<u8>>, ServeError>>>,
    cv: Condvar,
}

impl Flight {
    fn finish(&self, r: Result<Arc<Vec<u8>>, ServeError>) {
        *self.done.lock().unwrap() = Some(r);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<Vec<u8>>, ServeError> {
        let mut g = self.done.lock().unwrap();
        while g.is_none() {
            g = self.cv.wait(g).unwrap();
        }
        g.clone().unwrap()
    }
}

/// The shared state behind every request: the run caches promoted from
/// per-binary locals into service scope, plus the serialized result of
/// every work request (the layout pass has no entry in [`RunCaches`];
/// its response bytes are its only memo).
pub struct Service {
    /// Trace / simulation / hint memoization shared by all requests.
    pub caches: RunCaches,
    /// Serialized result bytes keyed by the whole request (its canonical
    /// rendering, compared in full on every hit): a warm hit skips JSON
    /// re-serialization entirely (the daemon splices these bytes
    /// straight into the response frame). Safe for exactly the reason
    /// the other caches are — execution is deterministic, so the bytes
    /// are a pure function of the request.
    responses: Lru<Vec<u8>, String>,
    /// Single-flight table: work keys currently being computed. A
    /// duplicate arriving while the leader runs (another client's
    /// request for the key, a replay after a redial) waits for the
    /// leader's bytes instead of burning a worker on the same
    /// deterministic computation.
    inflight: Mutex<HashMap<String, Arc<Flight>>>,
    /// Work computations actually run (cache misses that executed).
    executions: AtomicU64,
    /// Duplicates absorbed by the single-flight table.
    dedups: AtomicU64,
}

impl Service {
    /// A service whose caches hold roughly `budget_bytes` in total:
    /// [`RunCaches::with_budget`] takes 15/16 of it and the response
    /// bytes the last 1/16. `0` disables retention entirely (every
    /// request recomputes — the cold baseline of `servebench`).
    pub fn with_budget(budget_bytes: usize) -> Service {
        Service {
            caches: RunCaches::with_budget(budget_bytes),
            responses: Lru::bounded(budget_bytes / 16),
            inflight: Mutex::new(HashMap::new()),
            executions: AtomicU64::new(0),
            dedups: AtomicU64::new(0),
        }
    }

    /// A service sized from `FLO_CACHE_MB` (default
    /// [`DEFAULT_CACHE_MB`]).
    pub fn from_env() -> Service {
        let mb = std::env::var("FLO_CACHE_MB")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_CACHE_MB);
        Service::with_budget(mb << 20)
    }

    /// Execute one request. Pure with respect to the request: the same
    /// request always returns the same result JSON, served or direct,
    /// cold or warm.
    pub fn execute(&self, req: &Request) -> Result<Json, ServeError> {
        match req {
            Request::Ping => Ok(Json::obj().set("pong", true)),
            Request::Stats => Ok(self.stats()),
            // The server intercepts telemetry and shutdown before
            // execution; answering here keeps `--direct` total (an
            // in-process caller has no daemon accumulator to report).
            Request::Telemetry => Ok(Json::obj()
                .set("v", flo_obs::TELEMETRY_VERSION)
                .set("enabled", false)),
            Request::Shutdown => Ok(Json::obj().set("draining", true)),
            Request::Layout { app, scale, target } => self.layout(app, *scale, *target),
            Request::Simulate {
                app,
                scale,
                scheme,
                policy,
                fault,
            } => self.simulate(app, *scale, *scheme, *policy, *fault),
            Request::Sweep {
                app,
                scale,
                scheme,
                policy,
                points,
            } => self.sweep(app, *scale, *scheme, *policy, points),
        }
    }

    /// Execute one request and return its serialized `result` bytes.
    /// Work request kinds (`layout` / `simulate` / `sweep`) are memoized
    /// by the whole request, so a warm hit skips both recomputation
    /// *and* JSON re-serialization — the daemon splices the bytes into
    /// the response frame unchanged. Always byte-identical to
    /// `execute(req)?.to_string()` (the differential suite asserts it).
    pub fn execute_bytes(&self, req: &Request) -> Result<Arc<Vec<u8>>, ServeError> {
        self.execute_bytes_probed(req).0
    }

    /// [`Service::execute_bytes`] that also reports where the bytes came
    /// from — the telemetry layer's cache-probe outcome: `"warm"` (the
    /// response cache had them), `"dedup"` (another thread was already
    /// computing this work key; we waited for its bytes), or `"miss"`
    /// (this call executed the work). Kept as the primitive so the probe
    /// costs nothing extra: the outcome falls out of lookups the
    /// execution already does.
    pub fn execute_bytes_probed(
        &self,
        req: &Request,
    ) -> (Result<Arc<Vec<u8>>, ServeError>, &'static str) {
        let key = match crate::protocol::work_key(req) {
            // Control requests: dynamic, never cached, never deduped.
            None => return (self.compute_bytes(req, None), "miss"),
            Some(key) => key,
        };
        if let Some(hit) = self.responses.get(&key) {
            return (Ok(hit), "warm");
        }
        self.single_flight(key.clone(), || self.compute_bytes(req, Some(key)))
    }

    /// Single-flight: exactly one thread computes a given work key at a
    /// time. Join an existing flight as a follower and wait for its
    /// bytes, or become the leader of a new one and run `compute`. A
    /// panic in `compute` answers `internal` like any other failure, so
    /// the leader, its followers and the key's next request all get an
    /// answer, and the worker thread lives on. No lock is held while
    /// `compute` runs.
    fn single_flight(
        &self,
        key: String,
        compute: impl FnOnce() -> Result<Arc<Vec<u8>>, ServeError>,
    ) -> (Result<Arc<Vec<u8>>, ServeError>, &'static str) {
        let (flight, leader) = {
            let mut map = self.inflight.lock().unwrap();
            match map.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight::default());
                    map.insert(key.clone(), Arc::clone(&f));
                    (f, true)
                }
            }
        };
        if !leader {
            self.dedups.fetch_add(1, Ordering::Relaxed);
            return (flight.wait(), "dedup");
        }
        let result = catch_unwind(AssertUnwindSafe(compute)).unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string payload");
            Err(ServeError::Internal(format!("request panicked: {msg}")))
        });
        // Retire the flight *before* publishing: a successful compute
        // already inserted the bytes into the response cache, so a
        // request arriving after removal takes the warm path, and one
        // that joined earlier gets the published result. Either way
        // nobody recomputes and nobody waits forever. An error is not
        // cached: the key's next request computes afresh.
        self.inflight.lock().unwrap().remove(&key);
        flight.finish(result.clone());
        (result, "miss")
    }

    /// Execute `req` and (for work requests, `key = Some`) retain the
    /// serialized bytes in the response cache.
    fn compute_bytes(
        &self,
        req: &Request,
        key: Option<String>,
    ) -> Result<Arc<Vec<u8>>, ServeError> {
        self.executions.fetch_add(1, Ordering::Relaxed);
        let bytes = Arc::new(self.execute(req)?.to_string().into_bytes());
        Ok(match key {
            Some(key) => {
                // The key is held twice: by its slot and in the LRU order.
                let cost = bytes.len() + 2 * key.len();
                self.responses.insert(key, bytes, cost)
            }
            None => bytes,
        })
    }

    /// Computations actually executed (as opposed to served warm or
    /// absorbed by single-flight). The chaos harness and the dedup test
    /// assert on this.
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::Relaxed)
    }

    /// Duplicate requests absorbed by the single-flight table.
    pub fn dedups(&self) -> u64 {
        self.dedups.load(Ordering::Relaxed)
    }

    /// The already-rendered response bytes for a work request, if
    /// resident. This is the event loop's inline fast path: a probe
    /// only, nothing executes, and a miss records no counter (the
    /// worker's [`Service::execute_bytes`] counts it when the job
    /// actually runs).
    pub fn cached_response_bytes(&self, req: &Request) -> Option<Arc<Vec<u8>>> {
        self.responses.peek(&crate::protocol::work_key(req)?)
    }

    /// Cache counters (the server's `stats` response adds queue state).
    pub fn stats(&self) -> Json {
        Json::obj()
            .set(
                "cache_hits",
                self.caches.total_hits() + self.responses.hits(),
            )
            .set(
                "cache_misses",
                self.caches.total_misses() + self.responses.misses(),
            )
            .set(
                "cache_evictions",
                self.caches.total_evictions() + self.responses.evictions(),
            )
            .set(
                "cache_used_bytes",
                self.caches.used_bytes() + self.responses.used_bytes(),
            )
            .set("singleflight_dedups", self.dedups())
    }

    fn workload(&self, app: &str, scale: Scale) -> Result<Workload, ServeError> {
        by_name(app, scale).ok_or_else(|| {
            let known: Vec<&str> = flo_workloads::all(scale).iter().map(|w| w.name).collect();
            ServeError::BadRequest(format!(
                "unknown application {app:?} (known: {})",
                known.join(", ")
            ))
        })
    }

    fn layout(&self, app: &str, scale: Scale, target: TargetLayers) -> Result<Json, ServeError> {
        let workload = self.workload(app, scale)?;
        let topo = topology_for(scale);
        let overrides = RunOverrides {
            mapping: None,
            target: Some(target),
        };
        let prepared = prepare_run(&workload, &topo, Scheme::Inter, &overrides)
            .map_err(|e| ServeError::Internal(e.to_string()))?;
        // No `compile_ms` here: results must be reproducible bytes, and
        // wall-clock compile time is not (see the module docs).
        Ok(Json::obj()
            .set("app", app)
            .set("scale", scale_name(scale))
            .set("target", target_name(target))
            .set("optimized_fraction", prepared.optimized_fraction)
            .set(
                "layouts",
                prepared
                    .layouts
                    .iter()
                    .map(flo_core::FileLayout::to_json)
                    .collect::<Vec<Json>>(),
            ))
    }

    fn simulate(
        &self,
        app: &str,
        scale: Scale,
        scheme: Scheme,
        policy: PolicyKind,
        fault: Option<FaultSpec>,
    ) -> Result<Json, ServeError> {
        let workload = self.workload(app, scale)?;
        let topo = topology_for(scale);
        let overrides = RunOverrides::default();
        let base = Json::obj()
            .set("app", app)
            .set("scale", scale_name(scale))
            .set("scheme", scheme.name())
            .set("policy", policy.name());
        match fault {
            None => {
                let out =
                    run_app_cached(&self.caches, &workload, &topo, policy, scheme, &overrides)
                        .map_err(|e| ServeError::Internal(e.to_string()))?;
                Ok(base
                    .set("optimized_fraction", out.optimized_fraction)
                    .set("report", out.report.to_json()))
            }
            Some(spec) => {
                let plan = FaultPlan::with_intensity(spec.seed, spec.intensity);
                plan.validate()
                    .map_err(|e| ServeError::BadRequest(format!("invalid fault plan: {e}")))?;
                let (out, counters) = run_app_faulted_cached(
                    &self.caches,
                    &workload,
                    &topo,
                    policy,
                    scheme,
                    &overrides,
                    &plan,
                )
                .map_err(|e| ServeError::Internal(e.to_string()))?;
                Ok(base
                    .set("optimized_fraction", out.optimized_fraction)
                    .set("report", out.report.to_json())
                    .set("faults", counters.to_json()))
            }
        }
    }

    fn sweep(
        &self,
        app: &str,
        scale: Scale,
        scheme: Scheme,
        policy: PolicyKind,
        points: &[SweepPoint],
    ) -> Result<Json, ServeError> {
        crate::protocol::check_sweep(scale, policy, points)?;
        let workload = self.workload(app, scale)?;
        let topo = topology_for(scale);
        let outs = sweep_outcomes(
            &self.caches,
            &workload,
            &topo,
            points,
            policy,
            scheme,
            &RunOverrides::default(),
        )
        .map_err(|e| ServeError::Internal(e.to_string()))?;
        Ok(Json::obj()
            .set("app", app)
            .set("scale", scale_name(scale))
            .set("scheme", scheme.name())
            .set("policy", policy.name())
            .set(
                "reports",
                points
                    .iter()
                    .zip(&outs)
                    .map(|(p, o)| {
                        Json::obj()
                            .set("io_cache_blocks", p.io_cache_blocks)
                            .set("storage_cache_blocks", p.storage_cache_blocks)
                            .set("report", o.report.to_json())
                    })
                    .collect::<Vec<Json>>(),
            ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};

    fn req_simulate(app: &str) -> Request {
        Request::Simulate {
            app: app.into(),
            scale: Scale::Small,
            scheme: Scheme::Inter,
            policy: PolicyKind::LruInclusive,
            fault: None,
        }
    }

    #[test]
    fn unknown_app_is_a_bad_request() {
        let svc = Service::with_budget(1 << 20);
        match svc.execute(&req_simulate("no-such-app")) {
            Err(ServeError::BadRequest(m)) => assert!(m.contains("no-such-app"), "{m}"),
            other => panic!("wanted bad-request, got {other:?}"),
        }
    }

    #[test]
    fn oversized_sweep_is_a_bad_request_not_an_abort() {
        // A 2^52-block I/O cache is 2^52 × 12 bytes per I/O node:
        // building it would abort the test binary, not fail the test.
        let svc = Service::with_budget(1 << 20);
        for policy in [PolicyKind::LruInclusive, PolicyKind::Karma] {
            let probe = Request::Sweep {
                app: "qio".into(),
                scale: Scale::Small,
                scheme: Scheme::Default,
                policy,
                points: vec![SweepPoint {
                    io_cache_blocks: 1 << 52,
                    storage_cache_blocks: 1,
                }],
            };
            match svc.execute(&probe) {
                Err(ServeError::BadRequest(m)) => assert!(m.contains("bound"), "{m}"),
                other => panic!("{}: wanted bad-request, got {other:?}", policy.name()),
            }
            assert!(matches!(
                svc.execute_bytes(&probe),
                Err(ServeError::BadRequest(_))
            ));
        }
        assert_eq!(svc.caches.total_misses(), 0, "nothing was computed");
    }

    #[test]
    fn repeated_requests_are_bit_identical_and_hit_the_cache() {
        let svc = Service::with_budget(64 << 20);
        let req = req_simulate("qio");
        let a = svc.execute(&req).unwrap().to_string();
        let misses = svc.caches.total_misses();
        let b = svc.execute(&req).unwrap().to_string();
        assert_eq!(a, b);
        assert_eq!(
            svc.caches.total_misses(),
            misses,
            "the replay must be served from the cache"
        );
    }

    #[test]
    fn zero_budget_recomputes_but_stays_identical() {
        let cold = Service::with_budget(0);
        let warm = Service::with_budget(64 << 20);
        let req = req_simulate("swim");
        let a = cold.execute(&req).unwrap().to_string();
        let b = cold.execute(&req).unwrap().to_string();
        let c = warm.execute(&req).unwrap().to_string();
        assert_eq!(a, b, "cold recomputation is deterministic");
        assert_eq!(a, c, "cold and warm answers agree");
    }

    #[test]
    fn layout_response_has_no_wall_clock_fields() {
        let svc = Service::with_budget(1 << 20);
        let req = Request::Layout {
            app: "qio".into(),
            scale: Scale::Small,
            target: TargetLayers::Both,
        };
        let a = svc.execute(&req).unwrap();
        let b = svc.execute(&req).unwrap();
        assert_eq!(a.to_string(), b.to_string());
        assert!(a.get("compile_ms").is_none());
        assert!(!a.get("layouts").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn execute_bytes_matches_reserialization_and_memoizes() {
        let svc = Service::with_budget(64 << 20);
        let layout = Request::Layout {
            app: "qio".into(),
            scale: Scale::Small,
            target: TargetLayers::Both,
        };
        for req in [req_simulate("qio"), layout] {
            let cold = svc.execute_bytes(&req).unwrap();
            assert_eq!(
                cold.as_slice(),
                svc.execute(&req).unwrap().to_string().as_bytes(),
                "cached bytes must equal the re-serialized path"
            );
            let (before, executions) = (svc.responses.hits(), svc.executions());
            let warm = svc.execute_bytes(&req).unwrap();
            assert!(Arc::ptr_eq(&cold, &warm), "warm hit skips serialization");
            assert_eq!(svc.responses.hits(), before + 1);
            assert_eq!(svc.executions(), executions, "{} ran again", req.kind());
        }
        // Control requests are never cached: stats is dynamic.
        let s1 = svc.execute_bytes(&Request::Stats).unwrap();
        let s2 = svc.execute_bytes(&Request::Stats).unwrap();
        assert!(!Arc::ptr_eq(&s1, &s2));
    }

    #[test]
    fn cache_budget_bounds_every_table_together() {
        let budget = 1 << 20;
        let svc = Service::with_budget(budget);
        let stat = |k| svc.stats().get(k).and_then(Json::as_u64).unwrap();
        for w in flo_workloads::all(Scale::Small) {
            for scheme in [Scheme::Default, Scheme::Inter] {
                let reqs = [
                    Request::Layout {
                        app: w.name.into(),
                        scale: Scale::Small,
                        target: TargetLayers::Both,
                    },
                    Request::Simulate {
                        app: w.name.into(),
                        scale: Scale::Small,
                        scheme,
                        policy: PolicyKind::Karma,
                        fault: None,
                    },
                    Request::Simulate {
                        app: w.name.into(),
                        scale: Scale::Small,
                        scheme,
                        policy: PolicyKind::LruInclusive,
                        fault: Some(FaultSpec {
                            seed: 7,
                            intensity: 1.0,
                        }),
                    },
                ];
                for req in &reqs {
                    svc.execute_bytes(req).unwrap();
                    let used = stat("cache_used_bytes");
                    assert!(
                        used <= budget as u64,
                        "{used} bytes resident against a budget of {budget}"
                    );
                }
            }
        }
        assert!(
            stat("cache_evictions") > 0,
            "the suite never filled a {budget}-byte service"
        );
    }

    #[test]
    fn concurrent_duplicates_single_flight_to_one_execution() {
        let svc = Arc::new(Service::with_budget(64 << 20));
        let req = req_simulate("qio");
        let n = 8;
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let results: Vec<Vec<u8>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let svc = Arc::clone(&svc);
                    let req = req.clone();
                    let barrier = Arc::clone(&barrier);
                    s.spawn(move || {
                        barrier.wait();
                        (*svc.execute_bytes(&req).unwrap()).clone()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results[1..] {
            assert_eq!(r, &results[0], "every duplicate sees identical bytes");
        }
        assert_eq!(
            svc.executions(),
            1,
            "one leader computes; {} duplicates wait ({} deduped, rest warm)",
            n - 1,
            svc.dedups()
        );
    }

    /// Two `simulate` requests whose canonical renderings differ only in
    /// the fault seed, yet share one 64-bit `FxHasher` digest.
    fn colliding_pair() -> (Request, Request) {
        let faulted = |seed| Request::Simulate {
            app: "hf".into(),
            scale: Scale::Small,
            scheme: Scheme::Inter,
            policy: PolicyKind::LruInclusive,
            fault: Some(FaultSpec {
                seed,
                intensity: 1.0,
            }),
        };
        let (a, b) = (faulted(1103119400311585), faulted(1103119400319885));
        let key = |r: &Request| crate::protocol::work_key(r).unwrap();
        let digest = |r: &Request| {
            let mut h = flo_sim::FxHasher::default();
            key(r).hash(&mut h);
            h.finish()
        };
        assert_ne!(key(&a), key(&b));
        assert_eq!(digest(&a), digest(&b), "the pair must collide");
        (a, b)
    }

    #[test]
    fn colliding_requests_each_execute_once_and_stay_warm() {
        let svc = Service::with_budget(64 << 20);
        let (a, b) = colliding_pair();
        let direct = |r: &Request| svc.execute(r).unwrap().to_string().into_bytes();
        let (want_a, want_b) = (direct(&a), direct(&b));
        assert_ne!(want_a, want_b, "distinct fault seeds, distinct answers");
        let base = svc.executions();
        let (got_a, how_a) = svc.execute_bytes_probed(&a);
        assert_eq!((got_a.unwrap().as_slice(), how_a), (&want_a[..], "miss"));
        assert!(
            svc.cached_response_bytes(&b).is_none(),
            "no hit on a's bytes"
        );
        let (got_b, how_b) = svc.execute_bytes_probed(&b);
        assert_eq!((got_b.unwrap().as_slice(), how_b), (&want_b[..], "miss"));
        assert_eq!(svc.executions(), base + 2);
        for _ in 0..2 {
            for (req, want) in [(&a, &want_a), (&b, &want_b)] {
                let (got, how) = svc.execute_bytes_probed(req);
                assert_eq!((got.unwrap().as_slice(), how), (&want[..], "warm"));
                assert_eq!(
                    svc.cached_response_bytes(req).unwrap().as_slice(),
                    &want[..]
                );
            }
        }
        assert_eq!(svc.executions(), base + 2, "both stay resident");
    }

    #[test]
    fn colliding_requests_in_flight_together_both_lead() {
        let svc = Service::with_budget(64 << 20);
        let (a, b) = colliding_pair();
        let barrier = std::sync::Barrier::new(2);
        let outcomes: Vec<(Vec<u8>, &str)> = std::thread::scope(|s| {
            let handles: Vec<_> = [&a, &b]
                .into_iter()
                .map(|req| {
                    let (svc, barrier) = (&svc, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        let (bytes, how) = svc.execute_bytes_probed(req);
                        ((*bytes.unwrap()).clone(), how)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for ((bytes, how), req) in outcomes.iter().zip([&a, &b]) {
            assert_eq!(
                *how, "miss",
                "a colliding key must not join the other's flight"
            );
            assert_eq!(bytes, &svc.execute(req).unwrap().to_string().into_bytes());
        }
        assert_eq!((svc.executions(), svc.dedups()), (2, 0));
    }

    #[test]
    fn panicking_leader_answers_internal_and_frees_its_key() {
        let svc = Arc::new(Service::with_budget(64 << 20));
        let req = req_simulate("qio");
        let key = crate::protocol::work_key(&req).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        // Plain threads, not a scope: a regression must fail the
        // `recv_timeout` below, not hang the join.
        let leader = {
            let (svc, key, tx) = (Arc::clone(&svc), key.clone(), tx.clone());
            std::thread::spawn(move || {
                let compute = || {
                    while svc.dedups() < 2 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    panic!("injected fault");
                };
                tx.send(svc.single_flight(key, compute)).unwrap();
            })
        };
        // The followers join once the leader's flight is registered.
        while !svc.inflight.lock().unwrap().contains_key(&key) {
            std::thread::yield_now();
        }
        let followers: Vec<_> = (0..2)
            .map(|_| {
                let (svc, req, tx) = (Arc::clone(&svc), req.clone(), tx.clone());
                std::thread::spawn(move || tx.send(svc.execute_bytes_probed(&req)).unwrap())
            })
            .collect();
        let mut outcomes: Vec<&str> = (0..3)
            .map(|_| {
                let (result, how) = rx
                    .recv_timeout(std::time::Duration::from_secs(30))
                    .expect("every caller of the panicked flight is answered");
                match result {
                    Err(ServeError::Internal(m)) => assert!(m.contains("injected fault"), "{m}"),
                    other => panic!("wanted internal, got {other:?}"),
                }
                how
            })
            .collect();
        outcomes.sort_unstable();
        assert_eq!(outcomes, ["dedup", "dedup", "miss"]);
        leader.join().expect("the leader thread survives its panic");
        for f in followers {
            f.join().unwrap();
        }
        assert!(svc.inflight.lock().unwrap().is_empty(), "the key is freed");

        // The key computes afresh, and other keys are unaffected.
        let (fresh, how) = svc.execute_bytes_probed(&req);
        assert_eq!(how, "miss");
        assert_eq!(
            fresh.unwrap().as_slice(),
            svc.execute(&req).unwrap().to_string().as_bytes()
        );
        assert!(svc.execute_bytes(&req_simulate("swim")).is_ok());
    }

    #[test]
    fn faulted_simulate_carries_counters() {
        let svc = Service::with_budget(64 << 20);
        let req = Request::Simulate {
            app: "qio".into(),
            scale: Scale::Small,
            scheme: Scheme::Default,
            policy: PolicyKind::LruInclusive,
            fault: Some(FaultSpec {
                seed: 7,
                intensity: 1.0,
            }),
        };
        let a = svc.execute(&req).unwrap();
        assert!(a.get("faults").is_some());
        let b = svc.execute(&req).unwrap();
        assert_eq!(a.to_string(), b.to_string());
    }
}
