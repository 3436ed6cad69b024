//! Client-side resilience primitives: per-node circuit breakers and the
//! settings of the failover chain.
//!
//! Wired into [`crate::client::ClusterClient`], these make node churn
//! transparent to routed work. Because every work result is a
//! deterministic pure function of the request (DESIGN.md §2.9), *any*
//! node can compute *any* key — failover needs no data migration, only a
//! decision about where to send the next attempt:
//!
//! * the **breaker** ([`Breaker`]) is a per-node closed/open/half-open
//!   state machine. While closed, traffic flows. Enough consecutive
//!   transport failures open it: an open breaker answers "route around
//!   me" instantly instead of paying a connect probe on every call.
//!   After a seeded, jittered delay the breaker goes half-open and
//!   admits **exactly one** probe; the probe's outcome closes it or
//!   re-opens it with a doubled delay.
//! * the **fallback count** ([`Resilience::fallbacks`]) bounds how far
//!   a request may fail over: it is sent to at most `1 + fallbacks`
//!   positions of its chain, owner first, so whatever the error rate,
//!   failover adds at most `fallbacks` attempts to any request (the one
//!   redial of a closed pooled connection aside).
//!
//! The probe delays are seeded off `FLO_SEED` through a xorshift64*
//! stream ([`probe_schedule`]), so a chaos run replays its probe
//! schedule bit-identically.

use std::time::{Duration, Instant};

/// Circuit-breaker states. See the module docs for the transitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CircuitState {
    /// Healthy: traffic flows, consecutive failures are counted.
    Closed,
    /// Tripped: all traffic is routed around the node until the probe
    /// delay elapses.
    Open,
    /// One probe is in flight; its outcome decides closed vs re-open.
    HalfOpen,
}

impl CircuitState {
    /// Stable label for telemetry and tables.
    pub fn name(self) -> &'static str {
        match self {
            CircuitState::Closed => "closed",
            CircuitState::Open => "open",
            CircuitState::HalfOpen => "half-open",
        }
    }
}

/// Base probe-delay ceilings: doubling from 100 ms, capped at 1.6 s —
/// long enough that a dead node costs almost nothing, short enough that
/// a restarted node is rediscovered within a couple of seconds.
pub fn probe_ceilings(steps: u32) -> Vec<Duration> {
    (0..steps)
        .map(|i| Duration::from_millis((100u64 << i.min(4)).min(1600)))
        .collect()
}

/// The seeded, jittered probe schedule: step `k`'s delay is drawn
/// uniformly from `[base/2, base]` of [`probe_ceilings`] step `k`, by
/// a seeded xorshift64* stream. Deterministic: the same
/// `(steps, seed)` always yields the same delays, so `FLO_SEED` replays
/// a chaos run's probe timing exactly, while distinct per-node seeds
/// keep a fleet's probes decorrelated.
pub fn probe_schedule(steps: u32, seed: u64) -> Vec<Duration> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    probe_ceilings(steps)
        .iter()
        .map(|d| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let draw = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let base = d.as_millis() as u64;
            Duration::from_millis(base / 2 + draw % (base / 2 + 1))
        })
        .collect()
}

/// Per-node circuit breaker. All transitions take an explicit `now` so
/// tests can drive the clock; the convenience wrappers pass
/// `Instant::now()`.
#[derive(Debug)]
pub struct Breaker {
    state: CircuitState,
    /// Consecutive failures while closed.
    failures: u32,
    /// Failures that trip the breaker.
    threshold: u32,
    /// When the breaker last opened.
    opened_at: Option<Instant>,
    /// Current probe delay (from [`probe_schedule`]).
    wait: Duration,
    /// Consecutive failed probes — the backoff exponent.
    probe_step: u32,
    seed: u64,
    /// Times the breaker has tripped (telemetry).
    pub opens: u64,
    /// Probes admitted while half-open (telemetry).
    pub probes: u64,
}

impl Breaker {
    /// A closed breaker that trips after `threshold` consecutive
    /// failures, with probe jitter drawn from `seed`.
    pub fn new(threshold: u32, seed: u64) -> Breaker {
        Breaker {
            state: CircuitState::Closed,
            failures: 0,
            threshold: threshold.max(1),
            opened_at: None,
            wait: Duration::ZERO,
            probe_step: 0,
            seed,
            opens: 0,
            probes: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> CircuitState {
        self.state
    }

    /// The delay the current open period waits before probing.
    pub fn current_wait(&self) -> Duration {
        self.wait
    }

    /// May a request flow to this node at `now`? `Closed` always says
    /// yes. `Open` says yes exactly once per open period — when the
    /// jittered delay has elapsed, the breaker moves to `HalfOpen` and
    /// admits that single probe. `HalfOpen` says no: the probe is
    /// already in flight, and piling more requests onto a node that may
    /// still be dead is what the breaker exists to prevent.
    pub fn allow_at(&mut self, now: Instant) -> bool {
        match self.state {
            CircuitState::Closed => true,
            CircuitState::Open => {
                let due = self
                    .opened_at
                    .map(|t| now.duration_since(t) >= self.wait)
                    .unwrap_or(true);
                if due {
                    self.state = CircuitState::HalfOpen;
                    self.probes += 1;
                    true
                } else {
                    false
                }
            }
            CircuitState::HalfOpen => false,
        }
    }

    /// [`Breaker::allow_at`] at the wall clock.
    pub fn allow(&mut self) -> bool {
        self.allow_at(Instant::now())
    }

    /// A request to this node succeeded: close and reset the backoff.
    pub fn on_success(&mut self) {
        self.state = CircuitState::Closed;
        self.failures = 0;
        self.probe_step = 0;
        self.opened_at = None;
    }

    /// A request to this node failed at the transport level.
    pub fn on_failure_at(&mut self, now: Instant) {
        match self.state {
            CircuitState::Closed => {
                self.failures += 1;
                if self.failures >= self.threshold {
                    self.trip(now);
                }
            }
            CircuitState::HalfOpen => {
                // The probe failed: re-open with a deeper backoff step.
                self.probe_step = (self.probe_step + 1).min(16);
                self.trip(now);
            }
            // A straggling failure report while already open (e.g. a
            // batch that was in flight when the breaker tripped) keeps
            // the current open period — restarting the timer on every
            // report could starve the probe forever.
            CircuitState::Open => {}
        }
    }

    /// [`Breaker::on_failure_at`] at the wall clock.
    pub fn on_failure(&mut self) {
        self.on_failure_at(Instant::now())
    }

    fn trip(&mut self, now: Instant) {
        self.state = CircuitState::Open;
        self.opens += 1;
        self.failures = 0;
        self.opened_at = Some(now);
        self.wait = probe_schedule(self.probe_step + 1, self.seed)[self.probe_step as usize];
    }
}

/// The knobs [`crate::client::ClusterClient`] reads, normally from the
/// environment. README.md documents each variable.
#[derive(Clone, Copy, Debug)]
pub struct Resilience {
    /// Ring-successor fallbacks tried after the owner (`FLO_FALLBACKS`,
    /// default 2; 0 restores strict single-owner routing and typed
    /// `node-down` errors).
    pub fallbacks: usize,
    /// TCP connect timeout (`FLO_CONNECT_TIMEOUT_MS`, default 1000).
    /// Unix-socket connects are refused immediately by a dead path, so
    /// the bound matters for black-holed TCP nodes.
    pub connect_timeout: Duration,
    /// Consecutive transport failures that trip a node's breaker
    /// (fixed default 2: one blip survives, a repeat routes around).
    pub breaker_threshold: u32,
}

impl Default for Resilience {
    fn default() -> Resilience {
        Resilience {
            fallbacks: 2,
            connect_timeout: Duration::from_millis(1000),
            breaker_threshold: 2,
        }
    }
}

impl Resilience {
    /// Read `FLO_FALLBACKS` / `FLO_CONNECT_TIMEOUT_MS` with the
    /// documented defaults.
    pub fn from_env() -> Resilience {
        let d = Resilience::default();
        let env_u64 = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|s| s.trim().parse::<u64>().ok())
        };
        Resilience {
            fallbacks: env_u64("FLO_FALLBACKS")
                .map(|v| v as usize)
                .unwrap_or(d.fallbacks),
            connect_timeout: env_u64("FLO_CONNECT_TIMEOUT_MS")
                .map(Duration::from_millis)
                .unwrap_or(d.connect_timeout),
            breaker_threshold: d.breaker_threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_schedule_is_seeded_and_bounded() {
        let a = probe_schedule(6, 9);
        let b = probe_schedule(6, 9);
        assert_eq!(a, b, "same seed, same probe delays");
        assert_ne!(a, probe_schedule(6, 10), "seeds decorrelate");
        for (jittered, base) in a.iter().zip(probe_ceilings(6)) {
            assert!(*jittered >= base / 2 && *jittered <= base);
        }
    }

    #[test]
    fn breaker_trips_after_threshold_and_admits_one_probe() {
        let t0 = Instant::now();
        let mut b = Breaker::new(2, 7);
        assert_eq!(b.state(), CircuitState::Closed);
        b.on_failure_at(t0);
        assert_eq!(b.state(), CircuitState::Closed, "one blip survives");
        b.on_failure_at(t0);
        assert_eq!(b.state(), CircuitState::Open);
        assert_eq!(b.opens, 1);
        // Before the delay: no traffic.
        assert!(!b.allow_at(t0));
        assert!(!b.allow_at(t0 + b.current_wait() / 2));
        // After the delay: exactly one probe.
        let due = t0 + b.current_wait();
        assert!(b.allow_at(due));
        assert_eq!(b.state(), CircuitState::HalfOpen);
        for _ in 0..10 {
            assert!(!b.allow_at(due), "half-open admits exactly one probe");
        }
        // Failed probe → deeper backoff; successful probe → closed.
        let w1 = b.current_wait();
        b.on_failure_at(due);
        assert_eq!(b.state(), CircuitState::Open);
        assert!(
            b.current_wait() > w1,
            "failed probe deepens the backoff: {:?} vs {w1:?}",
            b.current_wait()
        );
        let due2 = due + b.current_wait();
        assert!(b.allow_at(due2));
        b.on_success();
        assert_eq!(b.state(), CircuitState::Closed);
        assert!(b.allow_at(due2), "closed flows freely again");
    }

    #[test]
    fn breaker_delays_replay_under_a_fixed_seed() {
        let t0 = Instant::now();
        let mut a = Breaker::new(1, 42);
        let mut b = Breaker::new(1, 42);
        let mut waits_a = Vec::new();
        let mut waits_b = Vec::new();
        let mut now = t0;
        for _ in 0..4 {
            a.on_failure_at(now);
            b.on_failure_at(now);
            waits_a.push(a.current_wait());
            waits_b.push(b.current_wait());
            now += a.current_wait();
            assert!(a.allow_at(now) && b.allow_at(now));
            a.on_failure_at(now);
            b.on_failure_at(now);
        }
        assert_eq!(waits_a, waits_b, "same seed replays the same schedule");
    }
}
