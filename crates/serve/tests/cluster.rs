//! Cluster-mode integration suite: hash-ring stability properties and
//! multi-node serve-vs-direct differentials.
//!
//! The ring properties are what make static-membership sharding usable:
//! routing must be a pure function of (membership, key) — identical
//! across processes and rebuilds — and a single-member change must
//! remap only ~1/N of the key space, never shuffle survivors between
//! staying nodes.
//!
//! The in-process nodes here share one process-global shutdown flag
//! (that is what lets one SIGTERM drain a whole local cluster), so the
//! server-backed tests serialize on a lock and reset the flag, exactly
//! like the single-node differential suite.

use flo_core::TargetLayers;
use flo_serve::protocol::{Request, ServeError};
use flo_serve::resilience::{CircuitState, Resilience};
use flo_serve::{
    server, signal, HashRing, Listen, Member, Membership, ServerConfig, ServerControl, Service,
};
use flo_sim::PolicyKind;
use flo_workloads::Scale;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

static SERVER_LOCK: Mutex<()> = Mutex::new(());
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

fn unique_socket() -> Listen {
    Listen::Unix(std::env::temp_dir().join(format!(
        "flod-cluster-test-{}-{}.sock",
        std::process::id(),
        SOCKET_SEQ.fetch_add(1, Ordering::SeqCst)
    )))
}

fn membership_of(n: usize) -> Membership {
    Membership {
        members: (0..n)
            .map(|i| Member {
                id: format!("n{i}"),
                listen: unique_socket(),
            })
            .collect(),
    }
}

/// Sampled key space for the ring properties: enough keys that the
/// expected remap fraction concentrates, few enough to stay instant.
fn sample_keys() -> Vec<String> {
    (0..10_000).map(|i| format!("work-key-{i}")).collect()
}

#[test]
fn ring_routing_is_identical_across_rebuilds() {
    let membership = membership_of(5);
    let a = HashRing::build(&membership);
    let b = HashRing::build(&membership);
    for key in sample_keys() {
        assert_eq!(
            a.node_for_key(&key),
            b.node_for_key(&key),
            "routing must be a pure function of (membership, key): {key}"
        );
    }
}

#[test]
fn removing_one_member_remaps_only_its_own_keys() {
    let n = 5;
    let full = membership_of(n);
    let before = HashRing::build(&full);
    let keys = sample_keys();
    let removed = 2usize;
    let mut shrunk = full.clone();
    shrunk.members.remove(removed);
    let after = HashRing::build(&shrunk);
    let mut moved = 0usize;
    for key in &keys {
        let was = before.node_for_key(key);
        let now = &shrunk.members[after.node_for_key(key)].id;
        if was == removed {
            moved += 1;
        } else {
            // Survivors must not shuffle among themselves: every key the
            // removed node did not own keeps its exact owner.
            assert_eq!(
                &full.members[was].id, now,
                "key {key} moved between surviving nodes"
            );
        }
    }
    // The removed node owned ~1/N of the space; virtual nodes bound the
    // imbalance. ε covers the variance of 64 vnodes over 10k keys.
    let bound = 1.0 / n as f64 + 0.10;
    let fraction = moved as f64 / keys.len() as f64;
    assert!(
        fraction <= bound,
        "removal remapped {fraction:.3} of keys, bound {bound:.3}"
    );
    assert!(moved > 0, "the removed node must have owned some keys");
}

#[test]
fn adding_one_member_moves_keys_only_to_the_new_node() {
    let n = 4;
    let base = membership_of(n);
    let before = HashRing::build(&base);
    let mut grown = base.clone();
    grown.members.push(Member {
        id: "n-new".into(),
        listen: unique_socket(),
    });
    let after = HashRing::build(&grown);
    let keys = sample_keys();
    let mut moved = 0usize;
    for key in &keys {
        let was = &base.members[before.node_for_key(key)].id;
        let now = &grown.members[after.node_for_key(key)].id;
        if was != now {
            moved += 1;
            assert_eq!(
                now, "n-new",
                "key {key} moved to {now}, not to the added node"
            );
        }
    }
    let fraction = moved as f64 / keys.len() as f64;
    let bound = 1.0 / (n + 1) as f64 + 0.10;
    assert!(
        fraction <= bound,
        "addition remapped {fraction:.3} of keys, bound {bound:.3}"
    );
    assert!(moved > 0, "the added node must take over some keys");
}

/// A mixed work batch with keys spread over apps, kinds and targets so
/// a 2-node ring almost surely splits it (asserted, not assumed).
fn work_batch() -> Vec<Request> {
    let mut reqs = Vec::new();
    for app in ["qio", "swim", "s3asim", "mgrid", "bt", "applu"] {
        reqs.push(Request::Layout {
            app: app.into(),
            scale: Scale::Small,
            target: TargetLayers::Both,
        });
        reqs.push(Request::Simulate {
            app: app.into(),
            scale: Scale::Small,
            scheme: flo_bench::Scheme::Inter,
            policy: PolicyKind::LruInclusive,
            fault: None,
        });
    }
    reqs
}

/// Spawn one in-process flod per member; returns the join handles.
fn spawn_nodes(membership: &Membership) -> Vec<std::thread::JoinHandle<std::io::Result<()>>> {
    membership
        .members
        .iter()
        .map(|m| {
            let cfg = ServerConfig {
                listen: m.listen.clone(),
                workers: 2,
                queue_capacity: 64,
                node_id: m.id.clone(),
                run_name: format!("flod-cluster-test-{}", m.id),
                ..ServerConfig::default()
            };
            let service = Arc::new(Service::with_budget(64 << 20));
            std::thread::spawn(move || server::run(&cfg, service))
        })
        .collect()
}

fn wait_up(membership: &Membership) {
    for m in &membership.members {
        flo_serve::Client::connect_retry(&m.listen, Duration::from_secs(10))
            .expect("node did not come up");
    }
}

#[test]
fn two_node_cluster_matches_direct_bytes() {
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    signal::reset();
    let membership = membership_of(2);
    let handles = spawn_nodes(&membership);
    wait_up(&membership);
    let mut cc =
        flo_serve::ClusterClient::with_resilience(membership.clone(), 1, Resilience::default());
    let batch = work_batch();
    // The batch must actually exercise routing: both nodes own keys.
    let mut owners = [0usize; 2];
    for req in &batch {
        owners[cc.node_of(req).expect("work request")] += 1;
    }
    assert!(
        owners.iter().all(|&c| c > 0),
        "batch does not split across the ring: {owners:?}"
    );
    let direct = Service::with_budget(1 << 30);
    let expected: Vec<String> = batch
        .iter()
        .map(|r| direct.execute(r).expect("direct").to_string())
        .collect();
    // Pipelined and one-at-a-time paths must both match the oracle.
    let many = cc.call_many(&batch, None, 4);
    for ((req, got), want) in batch.iter().zip(many).zip(&expected) {
        let got = got.unwrap_or_else(|e| panic!("{} failed: {e}", req.kind()));
        assert_eq!(&got.to_string(), want, "pipelined {:?}", req.kind());
    }
    for (req, want) in batch.iter().zip(&expected) {
        let got = cc.call(req, None).expect("routed call");
        assert_eq!(&got.to_string(), want, "routed {:?}", req.kind());
    }
    // Control fan-out reaches every node.
    let pongs = cc.fan_out(&Request::Ping, None);
    assert_eq!(pongs.len(), 2);
    for (id, r) in &pongs {
        let j = r.as_ref().unwrap_or_else(|e| panic!("ping {id}: {e}"));
        assert_eq!(j.get("pong").and_then(flo_json::Json::as_bool), Some(true));
    }
    // One shutdown drains the whole in-process cluster (shared flag).
    signal::request_shutdown();
    for h in handles {
        h.join().expect("server thread").expect("graceful drain");
    }
}

#[test]
fn trace_ids_survive_cluster_restart_and_reconnect_failover() {
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    signal::reset();
    let membership = membership_of(2);
    let handles = spawn_nodes(&membership);
    wait_up(&membership);
    let mut cc =
        flo_serve::ClusterClient::with_resilience(membership.clone(), 1, Resilience::default());
    let req = Request::Simulate {
        app: "qio".into(),
        scale: Scale::Small,
        scheme: flo_bench::Scheme::Inter,
        policy: PolicyKind::LruInclusive,
        fault: None,
    };
    let node = cc.node_of(&req).expect("work request");
    let trace_before = 0x00AB_CD01u64;
    let first = cc
        .call_on_traced(node, &req, None, Some(trace_before))
        .expect("first routed call");
    // Restart the whole in-process cluster: the client's pooled
    // connections now point at dead sockets, exactly what a node crash
    // plus supervisor restart looks like from the router's side.
    signal::request_shutdown();
    for h in handles {
        h.join().expect("server thread").expect("graceful drain");
    }
    signal::reset();
    let handles = spawn_nodes(&membership);
    wait_up(&membership);
    // The pinned trace must ride through the reconnect-and-resend path
    // unchanged — one logical request, one trace id, even across the
    // transport failure.
    let trace_after = 0x00AB_CD02u64;
    let second = cc
        .call_on_traced(node, &req, None, Some(trace_after))
        .expect("reconnect failover must answer");
    assert_eq!(
        first.to_string(),
        second.to_string(),
        "restart must not change the bytes"
    );
    // The restarted node's telemetry ring proves the trace arrived: it
    // has served exactly one simulate, and it carries the pinned trace.
    let snap = cc
        .call_on_traced(node, &Request::Telemetry, None, None)
        .expect("telemetry from restarted node");
    let ring_traces: Vec<u64> = match snap.get("slowest") {
        Some(flo_json::Json::Arr(entries)) => entries
            .iter()
            .filter_map(|e| e.get("trace").and_then(flo_json::Json::as_u64))
            .collect(),
        other => panic!("snapshot lacks a slowest ring: {other:?}"),
    };
    assert!(
        ring_traces.contains(&trace_after),
        "pinned trace must survive the failover into the restarted \
         node's ring (ring {ring_traces:?})"
    );
    assert!(
        !ring_traces.contains(&trace_before),
        "the pre-restart trace belongs to the dead process, not the new \
         ring (ring {ring_traces:?})"
    );
    signal::request_shutdown();
    for h in handles {
        h.join().expect("server thread").expect("graceful drain");
    }
}

#[test]
fn keys_owned_by_a_dead_node_fail_typed_and_the_live_node_keeps_answering() {
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    signal::reset();
    // Two members in the ring, but only n0 is ever started: n1's socket
    // path is never bound, which is exactly what a crashed node looks
    // like to the router.
    let membership = membership_of(2);
    let live = Membership {
        members: vec![membership.members[0].clone()],
    };
    let handles = spawn_nodes(&live);
    wait_up(&live);
    // Failover pinned OFF: this test is about the *typed* node-down
    // contract the fallback layer is built on top of.
    let mut cc = flo_serve::ClusterClient::with_resilience(
        membership.clone(),
        1,
        Resilience {
            fallbacks: 0,
            ..Resilience::default()
        },
    );
    let batch = work_batch();
    let direct = Service::with_budget(1 << 30);
    let results = cc.call_many(&batch, None, 4);
    let (mut served, mut down) = (0usize, 0usize);
    for (req, result) in batch.iter().zip(results) {
        match (cc.node_of(req).expect("work request"), result) {
            (0, Ok(j)) => {
                served += 1;
                assert_eq!(
                    j.to_string(),
                    direct.execute(req).expect("direct").to_string(),
                    "live node must stay byte-identical while its peer is down"
                );
            }
            (0, Err(e)) => panic!("live-node key failed: {e}"),
            (1, Err(ServeError::NodeDown(m))) => {
                down += 1;
                assert!(m.contains("n1"), "node-down names the node: {m}");
            }
            (1, other) => panic!("dead-node key must be typed node-down, got {other:?}"),
            (n, _) => unreachable!("2-node ring routed to {n}"),
        }
    }
    assert!(served > 0, "no key routed to the live node");
    assert!(down > 0, "no key routed to the dead node");
    signal::request_shutdown();
    for h in handles {
        h.join().expect("server thread").expect("graceful drain");
    }
}

#[test]
fn dead_node_keys_fail_over_to_the_ring_successor_byte_identically() {
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    signal::reset();
    // Same crashed-peer setup as the typed-error test above, but with
    // the fallback chain enabled: the router must now answer *every*
    // key, including the dead node's, from the ring successor — and the
    // bytes must be indistinguishable from a healthy cluster's.
    let membership = membership_of(2);
    let live = Membership {
        members: vec![membership.members[0].clone()],
    };
    let handles = spawn_nodes(&live);
    wait_up(&live);
    let mut cc = flo_serve::ClusterClient::with_resilience(
        membership.clone(),
        1,
        Resilience {
            fallbacks: 1,
            ..Resilience::default()
        },
    );
    let batch = work_batch();
    let mut dead_owned = 0usize;
    for req in &batch {
        if cc.node_of(req) == Some(1) {
            dead_owned += 1;
        }
    }
    assert!(dead_owned > 0, "no key routed to the dead node");
    let direct = Service::with_budget(1 << 30);
    for (req, result) in batch.iter().zip(cc.call_many(&batch, None, 4)) {
        let got = result.unwrap_or_else(|e| panic!("{:?} must fail over, got {e}", req.kind()));
        assert_eq!(
            got.to_string(),
            direct.execute(req).expect("direct").to_string(),
            "failover answer for {:?} diverges from direct",
            req.kind()
        );
    }
    // Unpipelined path too, now against a tripped breaker (no more
    // connect-timeout discovery cost — the chain skips the open node).
    for req in &batch {
        let got = cc.call(req, None).expect("routed call must fail over");
        assert_eq!(
            got.to_string(),
            direct.execute(req).expect("direct").to_string()
        );
    }
    let dead = cc.node_health(1);
    assert_eq!(
        dead.breaker.state(),
        CircuitState::Open,
        "repeated transport failures must trip the dead node's breaker"
    );
    assert!(dead.failovers > 0, "failovers must be counted");
    signal::request_shutdown();
    for h in handles {
        h.join().expect("server thread").expect("graceful drain");
    }
}

#[test]
fn halt_mid_pipelined_inflight_resolves_every_frame_to_a_typed_error() {
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    signal::reset();
    // One armed node; the stall flag guarantees the whole pipelined
    // window is in flight (sent, unanswered) when the halt lands — the
    // worst case for a client: bytes on the wire, nothing coming back.
    let membership = membership_of(1);
    let m = &membership.members[0];
    let control = ServerControl::armed();
    let cfg = ServerConfig {
        listen: m.listen.clone(),
        workers: 2,
        queue_capacity: 64,
        node_id: m.id.clone(),
        run_name: "flod-cluster-test-halt".into(),
        control: control.clone(),
        ..ServerConfig::default()
    };
    let service = Arc::new(Service::with_budget(64 << 20));
    let handle = std::thread::spawn(move || server::run(&cfg, service));
    wait_up(&membership);
    // Failover off: a typed error, not a rerouted answer, is the
    // contract under test here.
    let mut cc = flo_serve::ClusterClient::with_resilience(
        membership.clone(),
        1,
        Resilience {
            fallbacks: 0,
            breaker_threshold: 1,
            ..Resilience::default()
        },
    );
    control.set_stall(true);
    let halter = {
        let control = control.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            control.halt();
        })
    };
    let batch = work_batch();
    let results = cc.call_many(&batch, None, batch.len());
    halter.join().expect("halter thread");
    handle
        .join()
        .expect("server thread")
        .expect("halted server");
    // Every frame must resolve — same count, same order, no hang — and
    // since the stalled node answered nothing before dying, every one
    // must be the typed node-down error, never a wrong-slot response.
    assert_eq!(results.len(), batch.len(), "every in-flight frame resolves");
    for (req, result) in batch.iter().zip(results) {
        match result {
            Err(ServeError::NodeDown(_)) | Err(ServeError::Protocol(_)) => {}
            other => panic!(
                "{:?} must resolve to a typed transport error, got {other:?}",
                req.kind()
            ),
        }
    }
    assert_eq!(
        cc.node_health(0).breaker.state(),
        CircuitState::Open,
        "the kill must trip the node's breaker"
    );
}

/// Spawn one in-process flod per member with an armed control (the
/// stall and halt switches); returns each node's control and handle.
fn spawn_armed_nodes(
    membership: &Membership,
) -> Vec<(ServerControl, std::thread::JoinHandle<std::io::Result<()>>)> {
    membership
        .members
        .iter()
        .map(|m| {
            let control = ServerControl::armed();
            let cfg = ServerConfig {
                listen: m.listen.clone(),
                workers: 2,
                queue_capacity: 64,
                node_id: m.id.clone(),
                run_name: format!("flod-cluster-test-{}", m.id),
                control: control.clone(),
                ..ServerConfig::default()
            };
            let service = Arc::new(Service::with_budget(64 << 20));
            (
                control,
                std::thread::spawn(move || server::run(&cfg, service)),
            )
        })
        .collect()
}

#[test]
fn a_stalled_owner_fails_over_within_the_read_deadline() {
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    signal::reset();
    let membership = membership_of(2);
    let nodes = spawn_armed_nodes(&membership);
    wait_up(&membership);
    let batch = work_batch();
    let direct = Service::with_budget(1 << 30);
    let expected: Vec<String> = batch
        .iter()
        .map(|r| direct.execute(r).expect("direct").to_string())
        .collect();
    // Once warmed and sent with `call`, once with `call_many` only: both
    // must arm the read deadline from their own latency samples.
    for via_call in [true, false] {
        let mut cc = flo_serve::ClusterClient::with_resilience(
            membership.clone(),
            1,
            Resilience {
                fallbacks: 1,
                ..Resilience::default()
            },
        );
        // Every key on both nodes, so the successor answers from its
        // cache and the timing below measures detection, not compute.
        for node in 0..2 {
            for req in &batch {
                cc.call_on(node, req, None).expect("pre-warm");
            }
        }
        // Two rounds of 6 layouts + 6 simulates: past the 8 samples per
        // kind that arm the deadline.
        for _ in 0..2 {
            if via_call {
                for req in &batch {
                    cc.call(req, None).expect("warm call");
                }
            } else {
                for r in cc.call_many(&batch, None, 4) {
                    r.expect("warm batch");
                }
            }
        }
        let stalled = cc.node_of(&batch[0]).expect("work request");
        let control = nodes[stalled].0.clone();
        control.set_stall(true);
        // The flag takes effect when the event loop leaves its current
        // 50 ms poll.
        std::thread::sleep(Duration::from_millis(250));
        // A client without a deadline would block until the node
        // resumes: resume it after 6 s at worst, or as soon as the
        // request returns.
        let (done, wait) = mpsc::channel::<()>();
        let resumer = {
            let control = control.clone();
            std::thread::spawn(move || {
                let _ = wait.recv_timeout(Duration::from_secs(6));
                control.set_stall(false);
            })
        };
        let t0 = Instant::now();
        let (sent, answers) = if via_call {
            (&batch[..1], vec![cc.call(&batch[0], None)])
        } else {
            (&batch[..], cc.call_many(&batch, None, 4))
        };
        let waited = t0.elapsed();
        drop(done);
        resumer.join().expect("resumer thread");
        for ((req, got), want) in sent.iter().zip(answers).zip(&expected) {
            let got = got.unwrap_or_else(|e| panic!("{:?} must fail over, got {e}", req.kind()));
            assert_eq!(&got.to_string(), want, "failover answer diverges");
        }
        assert!(
            waited < Duration::from_secs(3),
            "stalled owner held the request {waited:?} (via_call: {via_call})"
        );
        assert!(
            cc.node_health(stalled).failovers > 0,
            "the successor, not the resumed owner, must have answered"
        );
    }
    signal::request_shutdown();
    for (_, h) in nodes {
        h.join().expect("server thread").expect("graceful drain");
    }
}

#[test]
fn pooled_connections_redial_restarted_owners() {
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    signal::reset();
    let membership = membership_of(2);
    let handles = spawn_nodes(&membership);
    wait_up(&membership);
    // Failover off: only the redial can reach a restarted owner.
    let strict = Resilience {
        fallbacks: 0,
        ..Resilience::default()
    };
    let mut batcher = flo_serve::ClusterClient::with_resilience(membership.clone(), 1, strict);
    let mut caller = flo_serve::ClusterClient::with_resilience(membership.clone(), 2, strict);
    let batch = work_batch();
    let direct = Service::with_budget(1 << 30);
    let expected: Vec<String> = batch
        .iter()
        .map(|r| direct.execute(r).expect("direct").to_string())
        .collect();
    // Pool a connection to both nodes on each client.
    for r in batcher.call_many(&batch, None, 4) {
        r.expect("pooling batch");
    }
    for req in &batch {
        caller.call(req, None).expect("pooling call");
    }
    signal::request_shutdown();
    for h in handles {
        h.join().expect("server thread").expect("graceful drain");
    }
    signal::reset();
    let handles = spawn_nodes(&membership);
    wait_up(&membership);
    for ((req, got), want) in batch
        .iter()
        .zip(batcher.call_many(&batch, None, 4))
        .zip(&expected)
    {
        let got = got.unwrap_or_else(|e| panic!("{:?} after the restart: {e}", req.kind()));
        assert_eq!(&got.to_string(), want, "batch after restart");
    }
    for (req, want) in batch.iter().zip(&expected) {
        let got = caller.call(req, None).expect("call after the restart");
        assert_eq!(&got.to_string(), want, "call after restart");
    }
    signal::request_shutdown();
    for h in handles {
        h.join().expect("server thread").expect("graceful drain");
    }
}

#[test]
fn rerouted_requests_keep_their_trace() {
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    signal::reset();
    // n1 is never started, so its keys fail over to n0.
    let membership = membership_of(2);
    let live = Membership {
        members: vec![membership.members[0].clone()],
    };
    let handles = spawn_nodes(&live);
    wait_up(&live);
    let resilience = Resilience {
        fallbacks: 1,
        ..Resilience::default()
    };
    let mut cc = flo_serve::ClusterClient::with_resilience(membership.clone(), 7, resilience);
    let mut twin = flo_serve::ClusterClient::with_resilience(membership.clone(), 7, resilience);
    let batch = work_batch();
    assert!(
        batch.iter().any(|r| cc.node_of(r) == Some(1)),
        "no key routed to the dead node"
    );
    for (i, answer) in cc.call_many_raw(&batch, None, 4).into_iter().enumerate() {
        let bytes = answer.unwrap_or_else(|e| panic!("request {i}: {e}"));
        let envelope = flo_json::parse(std::str::from_utf8(&bytes).expect("UTF-8 envelope"))
            .expect("JSON envelope");
        assert_eq!(
            envelope.get("trace").and_then(flo_json::Json::as_u64),
            Some(twin.gen_trace()),
            "request {i} (owner n{}) must echo its position's trace",
            cc.node_of(&batch[i]).expect("work request")
        );
    }
    signal::request_shutdown();
    for h in handles {
        h.join().expect("server thread").expect("graceful drain");
    }
}

#[test]
fn a_response_for_no_request_in_flight_is_a_typed_error() {
    use flo_serve::protocol::{ok_response, read_frame, write_frame};
    // A fake node that answers every frame under a request id it was
    // never sent.
    let membership = membership_of(1);
    let Listen::Unix(path) = membership.members[0].listen.clone() else {
        unreachable!("test members listen on Unix sockets")
    };
    let listener = std::os::unix::net::UnixListener::bind(&path).expect("bind fake node");
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        while let Ok(frame) = read_frame(&mut stream, &|| false) {
            let id = frame
                .get("id")
                .and_then(flo_json::Json::as_u64)
                .unwrap_or(0);
            let wrong = ok_response(id + 1000, flo_json::Json::obj());
            if write_frame(&mut stream, &wrong).is_err() {
                break;
            }
        }
    });
    let mut cc = flo_serve::ClusterClient::with_resilience(
        membership.clone(),
        1,
        Resilience {
            fallbacks: 0,
            ..Resilience::default()
        },
    );
    let batch = work_batch();
    let results = cc.call_many_raw(&batch, None, 4);
    assert_eq!(results.len(), batch.len(), "every request resolves");
    for (req, result) in batch.iter().zip(results) {
        match result {
            Err(ServeError::NodeDown(m)) => assert!(m.contains("in flight"), "{m}"),
            other => panic!("{:?} must be a typed node-down, got {other:?}", req.kind()),
        }
    }
    // Dropping the client closes the connection and ends the fake.
    drop(cc);
    fake.join().expect("fake node thread");
    let _ = std::fs::remove_file(&path);
}
