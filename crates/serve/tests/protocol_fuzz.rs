//! Wire-protocol fuzzing: truncated frames, bit-flipped payloads,
//! hostile length headers, non-UTF-8 bodies, a million levels of nesting,
//! version skew and random garbage must all come back as *typed* protocol
//! errors (or a clean hangup) — never a panic, never a wedged worker.
//! Well-formed `layout`, `simulate` and `sweep` envelopes carrying
//! extreme values (capacities up to 2^53 − 1, extreme fault seeds and
//! intensities, unknown apps, and extreme or ill-typed deadlines, ids and
//! trace ids) must come back answered or typed too.
//!
//! The PRNG is a hand-rolled xorshift (the workspace is dependency-free)
//! with a fixed seed, so a failing case reproduces from its index.

use flo_bench::Scheme;
use flo_core::TargetLayers;
use flo_json::Json;
use flo_serve::protocol::{
    check_sweep, read_frame, FaultSpec, Request, ServeError, PROTOCOL_VERSION,
};
use flo_serve::{server, signal, Client, Listen, ServerConfig, Service};
use flo_sim::{PolicyKind, SweepPoint};
use flo_workloads::Scale;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static SERVER_LOCK: Mutex<()> = Mutex::new(());
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

fn unique_socket() -> Listen {
    Listen::Unix(std::env::temp_dir().join(format!(
        "flod-fuzz-{}-{}.sock",
        std::process::id(),
        SOCKET_SEQ.fetch_add(1, Ordering::SeqCst)
    )))
}

fn with_server<T>(f: impl FnOnce(&Listen) -> T) -> T {
    // Recover from poison so one failing test cannot cascade.
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    signal::reset();
    let listen = unique_socket();
    let cfg = ServerConfig {
        listen: listen.clone(),
        workers: 2,
        queue_capacity: 8,
        run_name: "flod-fuzz".to_string(),
        ..ServerConfig::default()
    };
    let service = Arc::new(Service::with_budget(16 << 20));
    let handle = {
        let cfg = cfg.clone();
        std::thread::spawn(move || server::run(&cfg, service))
    };
    Client::connect_retry(&listen, Duration::from_secs(10)).expect("server did not come up");
    let out = f(&listen);
    if let Ok(mut c) = Client::connect(&listen) {
        let _ = c.call(&Request::Shutdown, None);
    }
    signal::request_shutdown();
    handle
        .join()
        .expect("server thread")
        .expect("graceful drain after fuzzing");
    if let Listen::Unix(path) = &listen {
        assert!(!path.exists(), "socket must be unlinked after drain");
    }
    out
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn socket_path(listen: &Listen) -> &std::path::Path {
    match listen {
        Listen::Unix(p) => p,
        Listen::Tcp(_) => unreachable!("fuzz suite runs on unix sockets"),
    }
}

/// Fire raw bytes at the daemon. Returns the response frames the server
/// managed to send back before closing (or keeping) the connection.
fn fire(listen: &Listen, bytes: &[u8]) -> Vec<flo_json::Json> {
    let mut s = UnixStream::connect(socket_path(listen)).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let _ = s.write_all(bytes);
    // Half-close so a server waiting for the rest of a truncated frame
    // sees EOF instead of a stall.
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut responses = Vec::new();
    loop {
        match read_frame(&mut s, &|| false) {
            Ok(j) => responses.push(j),
            Err(_) => return responses,
        }
    }
}

/// The liveness probe run after every hostile case: the daemon must
/// still answer a well-formed request, with no worker leaked to a
/// poisoned job.
fn assert_alive(listen: &Listen) {
    let mut c = Client::connect(listen).expect("daemon vanished");
    let pong = c.call(&Request::Ping, None).expect("ping after fuzz case");
    assert_eq!(
        pong.get("pong").and_then(flo_json::Json::as_bool),
        Some(true)
    );
    let stats = c
        .call(&Request::Stats, None)
        .expect("stats after fuzz case");
    assert_eq!(
        stats.get("queue_depth").and_then(flo_json::Json::as_u64),
        Some(0),
        "no job may be stuck in the queue"
    );
    assert_eq!(
        stats.get("inflight").and_then(flo_json::Json::as_u64),
        Some(0),
        "no worker may be wedged on a fuzzed frame"
    );
}

fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

fn error_kind(resp: &flo_json::Json) -> Option<String> {
    assert_eq!(
        resp.get("ok").and_then(flo_json::Json::as_bool),
        Some(false),
        "hostile input must never produce an ok response: {resp}"
    );
    resp.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(flo_json::Json::as_str)
        .map(str::to_string)
}

#[test]
fn structured_hostile_frames_get_typed_errors() {
    with_server(|listen| {
        // Truncated header: connection closes, no response owed.
        fire(listen, &[0x01, 0x02]);
        assert_alive(listen);

        // Truncated body.
        fire(listen, &100u32.to_le_bytes());
        assert_alive(listen);
        let mut partial = frame(br#"{"v":1,"kind":"ping"}"#);
        partial.truncate(partial.len() - 4);
        fire(listen, &partial);
        assert_alive(listen);

        // Hostile length header (4 GiB): refused without allocating.
        let responses = fire(listen, &u32::MAX.to_le_bytes());
        for r in &responses {
            assert_eq!(error_kind(r).as_deref(), Some("protocol"));
        }
        assert_alive(listen);

        // Non-UTF-8 body.
        let responses = fire(listen, &frame(&[0xFF, 0xFE, 0x80, 0x80]));
        for r in &responses {
            assert_eq!(error_kind(r).as_deref(), Some("protocol"));
        }
        assert_alive(listen);

        // Valid frame, invalid JSON.
        let responses = fire(listen, &frame(b"{not json"));
        assert!(!responses.is_empty(), "parseable frame must be answered");
        assert_eq!(error_kind(&responses[0]).as_deref(), Some("protocol"));
        assert_alive(listen);

        // Valid JSON, wrong version.
        let responses = fire(listen, &frame(br#"{"v":99,"id":4,"kind":"ping"}"#));
        assert_eq!(error_kind(&responses[0]).as_deref(), Some("protocol"));
        assert_alive(listen);

        // Valid envelope, unknown kind / bad body: typed bad-request,
        // and the connection survives to serve the next frame. `store`
        // is a retired kind an older client may still send.
        let unknown: [&[u8]; 2] = [
            br#"{"v":1,"id":5,"kind":"conquer"}"#,
            br#"{"v":1,"id":7,"kind":"store","app":"qio","scale":"small","policy":"lru"}"#,
        ];
        for body in unknown {
            let mut two = frame(body);
            two.extend_from_slice(&frame(br#"{"v":1,"id":6,"kind":"ping"}"#));
            let responses = fire(listen, &two);
            assert_eq!(responses.len(), 2, "both frames answered: {responses:?}");
            assert_eq!(error_kind(&responses[0]).as_deref(), Some("bad-request"));
            assert_eq!(
                responses[1].get("ok").and_then(flo_json::Json::as_bool),
                Some(true)
            );
            assert_alive(listen);
        }

        // Oversized frame just past the cap.
        let oversize = ((flo_serve::protocol::MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        let responses = fire(listen, &oversize);
        for r in &responses {
            assert_eq!(error_kind(r).as_deref(), Some("protocol"));
        }
        assert_alive(listen);
    });
}

/// A frame nested a million levels deep is refused as any other garbage
/// body is. The node parses frames on its event-loop thread, so before
/// the parser bounded its depth this text overflowed that thread's stack
/// and aborted the whole process.
#[test]
fn deeply_nested_frames_get_typed_errors() {
    with_server(|listen| {
        for open in ["[", "{\"a\":"] {
            let body = open.repeat((1 << 20) / open.len());
            let responses = fire(listen, &frame(body.as_bytes()));
            assert_eq!(responses.len(), 1, "a {open} frame must be answered");
            assert_eq!(error_kind(&responses[0]).as_deref(), Some("protocol"));
            assert_alive(listen);
        }
    });
}

#[test]
fn bit_flipped_and_random_frames_never_panic_the_daemon() {
    with_server(|listen| {
        let mut rng = XorShift(0x5EED_F10D);
        let good = Request::Simulate {
            app: "qio".into(),
            scale: flo_workloads::Scale::Small,
            scheme: flo_bench::Scheme::Default,
            policy: flo_sim::PolicyKind::LruInclusive,
            fault: None,
        }
        .to_envelope(1, Some(30_000))
        .to_string()
        .into_bytes();

        for case in 0..60 {
            let bytes = match case % 3 {
                // Bit-flip a framed valid request (header or body).
                0 => {
                    let mut b = frame(&good);
                    let at = rng.below(b.len());
                    b[at] ^= 1 << rng.below(8);
                    b
                }
                // Random length header + random body bytes.
                1 => {
                    let len = rng.below(64);
                    let mut b = (len as u32).to_le_bytes().to_vec();
                    for _ in 0..rng.below(len + 32) {
                        b.push(rng.next() as u8);
                    }
                    b
                }
                // Pure garbage, no framing at all.
                _ => {
                    let mut b = Vec::new();
                    for _ in 0..rng.below(96) + 1 {
                        b.push(rng.next() as u8);
                    }
                    b
                }
            };
            let responses = fire(listen, &bytes);
            // Whatever came back is a well-formed envelope; flipped
            // requests may legitimately succeed (a bit-flip inside a
            // string value can leave the request valid — "qio" still
            // parses), but any failure must be typed.
            for r in &responses {
                match r.get("ok").and_then(flo_json::Json::as_bool) {
                    Some(true) => {}
                    Some(false) => {
                        let kind = r
                            .get("error")
                            .and_then(|e| e.get("kind"))
                            .and_then(flo_json::Json::as_str)
                            .unwrap_or("");
                        assert!(
                            matches!(kind, "protocol" | "bad-request" | "busy" | "deadline"),
                            "case {case}: untyped error kind {kind:?} in {r}"
                        );
                    }
                    None => panic!("case {case}: malformed response envelope {r}"),
                }
            }
            assert_alive(listen);
        }
    });
}

/// Pipelined requests chopped at hostile split points — inside length
/// prefixes, inside headers, inside bodies, one byte at a time — must
/// all reassemble: every request answered exactly once, ids intact,
/// daemon alive after every plan.
#[test]
fn pipelined_partial_frame_interleavings_answer_every_request() {
    with_server(|listen| {
        let simulate = |app: &str, id: u64| {
            frame(
                Request::Simulate {
                    app: app.into(),
                    scale: flo_workloads::Scale::Small,
                    scheme: flo_bench::Scheme::Default,
                    policy: flo_sim::PolicyKind::LruInclusive,
                    fault: None,
                }
                .to_envelope(id, Some(30_000))
                .to_string()
                .as_bytes(),
            )
        };
        let frames: Vec<Vec<u8>> = vec![
            frame(Request::Ping.to_envelope(1, None).to_string().as_bytes()),
            simulate("qio", 2),
            frame(Request::Stats.to_envelope(3, None).to_string().as_bytes()),
            simulate("swim", 4),
            frame(Request::Ping.to_envelope(5, None).to_string().as_bytes()),
        ];
        let stream: Vec<u8> = frames.concat();
        let want_ids: Vec<u64> = vec![1, 2, 3, 4, 5];

        // Split plans: each is the set of offsets where the byte stream
        // is cut into separate writes.
        let mut plans: Vec<Vec<usize>> = Vec::new();
        // Inside every length prefix (2 bytes into each frame's header)
        // and inside every body (middle of each frame).
        let mut offset = 0;
        let mut prefix_splits = Vec::new();
        let mut body_splits = Vec::new();
        for f in &frames {
            prefix_splits.push(offset + 2);
            body_splits.push(offset + 4 + (f.len() - 4) / 2);
            offset += f.len();
        }
        plans.push(prefix_splits);
        plans.push(body_splits);
        // One byte at a time — the cruelest fragmentation.
        plans.push((1..stream.len()).collect());
        // Random split sets, reproducible from the seed.
        let mut rng = XorShift(0x5EED_C0FFEE);
        for _ in 0..8 {
            let mut cuts: Vec<usize> = (0..rng.below(9) + 1)
                .map(|_| rng.below(stream.len() - 1) + 1)
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            plans.push(cuts);
        }

        for (plan_idx, plan) in plans.iter().enumerate() {
            let mut s = UnixStream::connect(socket_path(listen)).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut prev = 0;
            for &cut in plan {
                s.write_all(&stream[prev..cut]).expect("chunk write");
                s.flush().unwrap();
                // A short pause between chunks makes the server actually
                // observe the fragmentation instead of one coalesced
                // read (skipped for the byte-dribble plan: its coverage
                // is the reassembly arithmetic, not the event timing).
                if plan.len() <= 16 {
                    std::thread::sleep(Duration::from_millis(3));
                }
                prev = cut;
            }
            s.write_all(&stream[prev..]).expect("tail write");
            let _ = s.shutdown(std::net::Shutdown::Write);
            let mut got_ids = Vec::new();
            while let Ok(r) = read_frame(&mut s, &|| false) {
                assert_eq!(
                    r.get("ok").and_then(flo_json::Json::as_bool),
                    Some(true),
                    "plan {plan_idx}: pipelined request failed: {r}"
                );
                got_ids.push(r.get("id").and_then(flo_json::Json::as_u64).unwrap());
            }
            got_ids.sort_unstable();
            assert_eq!(
                got_ids,
                want_ids,
                "plan {plan_idx} ({} cuts): every request answered exactly once",
                plan.len()
            );
            assert_alive(listen);
        }
    });
}

/// The `telemetry` control frame through the same hostile gauntlet as
/// every other kind: valid frames answer with a versioned snapshot,
/// truncation hangs up cleanly, version skew and malformed trace ids
/// come back typed, bit-flips never panic — and the daemon answers a
/// liveness probe after every case.
#[test]
fn telemetry_frames_survive_truncation_bitflips_and_version_skew() {
    with_server(|listen| {
        // Valid frame: ok response carrying a versioned snapshot.
        let responses = fire(listen, &frame(br#"{"v":1,"id":7,"kind":"telemetry"}"#));
        assert_eq!(responses.len(), 1, "telemetry must be answered");
        assert_eq!(
            responses[0].get("ok").and_then(flo_json::Json::as_bool),
            Some(true)
        );
        let result = responses[0].get("result").expect("snapshot payload");
        assert_eq!(
            result.get("v").and_then(flo_json::Json::as_u64),
            Some(flo_obs::TELEMETRY_VERSION),
            "snapshot is schema-versioned: {result}"
        );
        assert_alive(listen);

        // A client-assigned trace id echoes in the response envelope.
        let responses = fire(
            listen,
            &frame(br#"{"v":1,"id":8,"trace":123456789,"kind":"telemetry"}"#),
        );
        assert_eq!(
            responses[0].get("trace").and_then(flo_json::Json::as_u64),
            Some(123456789),
            "trace id must echo: {:?}",
            responses[0]
        );
        assert_alive(listen);

        // Truncated mid-body: clean hangup, nothing wedged.
        let mut partial = frame(br#"{"v":1,"id":9,"kind":"telemetry"}"#);
        partial.truncate(partial.len() - 6);
        fire(listen, &partial);
        assert_alive(listen);

        // Version skew: typed protocol error, not a best-effort answer.
        let responses = fire(listen, &frame(br#"{"v":99,"id":10,"kind":"telemetry"}"#));
        assert_eq!(error_kind(&responses[0]).as_deref(), Some("protocol"));
        assert_alive(listen);

        // A non-integer trace is a typed bad-request.
        let responses = fire(
            listen,
            &frame(br#"{"v":1,"id":11,"trace":"abc","kind":"telemetry"}"#),
        );
        assert_eq!(error_kind(&responses[0]).as_deref(), Some("bad-request"));
        assert_alive(listen);

        // Bit-flipped telemetry frames: whatever comes back is a typed
        // envelope, and the daemon stays alive.
        let good = frame(br#"{"v":1,"id":12,"trace":42,"kind":"telemetry"}"#);
        let mut rng = XorShift(0x7E1E_3E7A);
        for case in 0..40 {
            let mut b = good.clone();
            let at = rng.below(b.len());
            b[at] ^= 1 << rng.below(8);
            for r in fire(listen, &b) {
                match r.get("ok").and_then(flo_json::Json::as_bool) {
                    Some(true) => {}
                    Some(false) => {
                        let kind = r
                            .get("error")
                            .and_then(|e| e.get("kind"))
                            .and_then(flo_json::Json::as_str)
                            .unwrap_or("");
                        assert!(
                            matches!(kind, "protocol" | "bad-request"),
                            "case {case}: untyped error kind {kind:?} in {r}"
                        );
                    }
                    None => panic!("case {case}: malformed response envelope {r}"),
                }
            }
            assert_alive(listen);
        }
    });
}

/// The largest integer a JSON number carries exactly, 2^53 − 1.
const MAX_EXACT: u64 = (1 << 53) - 1;

const SCHEMES: [Scheme; 4] = [
    Scheme::Default,
    Scheme::Inter,
    Scheme::CompMap,
    Scheme::Reindex,
];

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::LruInclusive,
    PolicyKind::DemoteLru,
    PolicyKind::Karma,
    PolicyKind::MqSecondLevel,
];

const UNKNOWN_APPS: [&str; 4] = ["", "no-such-app", "QIO", "qio\u{0}"];

/// Fault specs at the extremes of the wire's ranges, `None` included.
fn extreme_faults() -> Vec<Option<FaultSpec>> {
    let mut out = vec![None];
    for seed in [0, MAX_EXACT] {
        for intensity in [0.0, 1e-300, 1.0, 1000.0] {
            out.push(Some(FaultSpec { seed, intensity }));
        }
    }
    out
}

/// A sweep point of `io` I/O-cache and `storage` storage-cache blocks.
fn point(io: u64, storage: u64) -> SweepPoint {
    SweepPoint {
        io_cache_blocks: io as usize,
        storage_cache_blocks: storage as usize,
    }
}

/// Capacity lists at the extremes: 1, powers of two a node accepts and
/// powers up to 2^52 it refuses, 2^53 − 1, and more points than the
/// one-pass engine runs together.
fn extreme_points(rng: &mut XorShift) -> Vec<Vec<SweepPoint>> {
    let small = |rng: &mut XorShift| 1u64 << rng.below(13);
    let large = |rng: &mut XorShift| 1u64 << (30 + rng.below(23));
    vec![
        vec![point(1, 1)],
        vec![point(small(rng), small(rng))],
        vec![point(large(rng), 1)],
        vec![point(1, large(rng))],
        vec![point(MAX_EXACT, 1)],
        vec![point(1, MAX_EXACT)],
        vec![point(MAX_EXACT, MAX_EXACT)],
        (0..11).map(|k| point(1 << k, 1 << (10 - k))).collect(),
        (1..=65).map(|k| point(k, 1)).collect(),
    ]
}

/// The value-level cases: every scale, target, scheme and policy, each
/// fault and capacity extreme, and unknown apps, with the known apps
/// drawn by `rng`. Full-scale work stays cheap: layouts, and requests
/// that must be refused before they run.
fn value_cases(rng: &mut XorShift) -> Vec<Request> {
    let known: Vec<&str> = flo_workloads::all(Scale::Small)
        .iter()
        .map(|w| w.name)
        .collect();
    let app = |rng: &mut XorShift| known[rng.below(known.len())].to_string();
    let unknown = |rng: &mut XorShift| UNKNOWN_APPS[rng.below(UNKNOWN_APPS.len())].to_string();
    let mut cases = Vec::new();
    for scale in [Scale::Small, Scale::Full] {
        for target in TargetLayers::all() {
            for app in [app(rng), unknown(rng)] {
                cases.push(Request::Layout { app, scale, target });
            }
        }
    }
    let faults = extreme_faults();
    for (k, (&scheme, &policy)) in SCHEMES
        .iter()
        .flat_map(|s| POLICIES.iter().map(move |p| (s, p)))
        .enumerate()
    {
        let fault = faults[k % faults.len()];
        for (scale, app) in [(Scale::Small, app(rng)), (Scale::Full, unknown(rng))] {
            cases.push(Request::Simulate {
                app,
                scale,
                scheme,
                policy,
                fault,
            });
        }
    }
    for fault in faults {
        let (scheme, policy) = (SCHEMES[rng.below(4)], POLICIES[rng.below(4)]);
        cases.push(Request::Simulate {
            app: app(rng),
            scale: Scale::Small,
            scheme,
            policy,
            fault,
        });
    }
    for (k, points) in extreme_points(rng).into_iter().enumerate() {
        // Long lists run on the one-pass engine (LRU); other policies
        // simulate every point.
        let policy = if points.len() > 2 {
            PolicyKind::LruInclusive
        } else {
            POLICIES[k % POLICIES.len()]
        };
        let scheme = SCHEMES[rng.below(4)];
        cases.push(Request::Sweep {
            app: app(rng),
            scale: Scale::Small,
            scheme,
            policy,
            points: points.clone(),
        });
        cases.push(Request::Sweep {
            app: unknown(rng),
            scale: Scale::Full,
            scheme,
            policy,
            points,
        });
    }
    cases
}

/// Well-formed envelopes with extreme values: unknown apps and sweeps
/// over a node's cache-array bound get a typed `bad-request`, every other
/// case is answered, and none gets an `internal` error (a caught panic).
/// The daemon passes a liveness probe after every case.
#[test]
fn extreme_values_in_well_formed_envelopes_get_answers_or_typed_refusals() {
    with_server(|listen| {
        let cases = value_cases(&mut XorShift(0x5EED_0BAD));
        let (mut answered, mut refused) = (0, 0);
        for (case, req) in cases.iter().enumerate() {
            let refuse = UNKNOWN_APPS.contains(&req.app())
                || matches!(req, Request::Sweep { scale, policy, points, .. }
                    if check_sweep(*scale, *policy, points).is_err());
            let got = Client::connect(listen)
                .expect("daemon vanished")
                .call(req, None);
            match (got, refuse) {
                (Ok(_), false) => answered += 1,
                (Err(ServeError::BadRequest(_)), true) => refused += 1,
                (other, _) => panic!("case {case} {req:?}: {other:?}"),
            }
            assert_alive(listen);
        }
        assert!(
            answered > 0 && refused > 0,
            "{answered} answered, {refused} refused"
        );
        envelope_numbers_get_answers_or_typed_refusals(listen);
    });
}

/// The frame of `req`'s envelope with `field` written as the JSON text
/// `value`, in place of any value the envelope had for it.
fn envelope_with(req: &Request, field: &str, value: &str) -> Vec<u8> {
    let Json::Obj(mut fields) = req.to_envelope(1, None) else {
        unreachable!("an envelope is an object")
    };
    fields.retain(|(k, _)| k != field);
    let body = Json::Obj(fields).to_string();
    frame(format!("{},\"{field}\":{value}}}", &body[..body.len() - 1]).as_bytes())
}

/// The one response to `bytes`: `Ok` with its envelope, or the error kind.
fn sole_response(listen: &Listen, bytes: &[u8]) -> Result<Json, String> {
    let mut responses = fire(listen, bytes);
    assert_eq!(responses.len(), 1, "one frame, one answer: {responses:?}");
    let resp = responses.remove(0);
    match resp.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(resp),
        Some(false) => Err(error_kind(&resp).unwrap_or_default()),
        None => panic!("malformed response envelope {resp}"),
    }
}

/// The envelope's own numbers at the same extremes: `deadline_ms` of 0,
/// 1 and 2^53 − 1 are answered or refused as expired, and negative,
/// fractional, huge, string and null deadlines are a `bad-request`;
/// `trace` of 0 and 2^53 − 1 echo, and −1 and 1.5 are a `bad-request`;
/// `id` of 0 and 2^53 − 1 echo, and −1 and 1.5, no id a client can
/// match, are answered under id 0. Each deadline goes on a cached key
/// (answered inline) and on a fresh one (queued for a worker).
fn envelope_numbers_get_answers_or_typed_refusals(listen: &Listen) {
    let cached = Request::Layout {
        app: "qio".into(),
        scale: Scale::Small,
        target: TargetLayers::all()[0],
    };
    let fresh = |seed: u64| Request::Simulate {
        app: "qio".into(),
        scale: Scale::Small,
        scheme: Scheme::Default,
        policy: PolicyKind::LruInclusive,
        fault: Some(FaultSpec {
            seed: 0xDEAD_0000 + seed,
            intensity: 1.0,
        }),
    };
    let max = MAX_EXACT.to_string();
    let deadlines = ["0", "1", &max, "-1", "0.5", "1e300", "\"x\"", "null"];
    for (k, &value) in deadlines.iter().enumerate() {
        let valid = k < 3;
        for req in [cached.clone(), fresh(k as u64)] {
            match sole_response(listen, &envelope_with(&req, "deadline_ms", value)) {
                Ok(_) if valid => {}
                Err(kind) if valid && kind == "deadline" => {}
                Err(kind) if !valid && kind == "bad-request" => {}
                other => panic!("deadline_ms {value} on {req:?}: {other:?}"),
            }
            assert_alive(listen);
        }
    }
    for field in ["trace", "id"] {
        for (value, echo) in [
            ("0", Some(0)),
            (&max, Some(MAX_EXACT)),
            ("-1", None),
            ("1.5", None),
        ] {
            let got = sole_response(listen, &envelope_with(&cached, field, value));
            match (field, echo, got) {
                (_, Some(want), Ok(resp)) => {
                    assert_eq!(
                        resp.get(field).and_then(Json::as_u64),
                        Some(want),
                        "{field} {value}"
                    )
                }
                ("trace", None, Err(kind)) if kind == "bad-request" => {}
                ("id", None, Ok(resp)) => {
                    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(0), "id {value}")
                }
                (_, _, other) => panic!("{field} {value}: {other:?}"),
            }
            assert_alive(listen);
        }
    }
}

#[test]
fn version_constant_is_what_the_suite_fuzzes() {
    // The structured cases above hard-code v1 envelopes; fail loudly if
    // the protocol version moves without updating them.
    assert_eq!(PROTOCOL_VERSION, 1);
}
