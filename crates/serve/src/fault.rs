//! Fault model for the sharded server: the fault-tolerance knobs
//! ([`FaultConfig`]), deterministic fault injection ([`FaultPlan`]), the
//! per-shard circuit breaker ([`Breaker`]), and the counters surfaced in
//! `ServeStats` ([`FaultStats`]).
//!
//! The injection plan is the chaos harness's contract: every fault is a
//! pure function of `(request index, shard, replica)` (plus a seed), so a
//! soak run is reproducible — the same seed schedules the same panics,
//! latency spikes and corrupt swaps, and the test can assert exact
//! degradation semantics instead of "it survived".

use crate::gather::GatherCounters;
use crate::swap::ShardTag;
use pqsda_querylog::hash::{fnv1a_u64, FNV_OFFSET};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fault-tolerance knobs of the sharded server. The default disables
/// every feature, reproducing the plain serial fan-out (plus panic
/// isolation, which is always on).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Snapshot replicas per shard slot (≥ 1). Hedged requests and
    /// fail-over need at least 2.
    pub replicas: usize,
    /// Per-request deadline in milliseconds (0 = no deadline). Shards
    /// that miss it are dropped from the merge and the reply is marked
    /// degraded.
    pub budget_ms: u64,
    /// Floor of the hedge budget in milliseconds: a backup probe fires on
    /// the next replica once the primary has been silent this long
    /// (0 with `hedge_percentile` 0 = hedging off).
    pub hedge_ms: u64,
    /// When > 0, the hedge budget adapts to the shard's observed probe
    /// latency: `max(hedge_ms, percentile(p))` over a sliding window.
    pub hedge_percentile: f64,
    /// Consecutive faults that trip a shard's breaker open (0 = breaker
    /// disabled).
    pub breaker_threshold: u32,
    /// Requests skipped while open before a half-open probe is admitted.
    pub breaker_cooldown: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            replicas: 1,
            budget_ms: 0,
            hedge_ms: 0,
            hedge_percentile: 0.0,
            breaker_threshold: 0,
            breaker_cooldown: 4,
        }
    }
}

/// One injected fault, applied at the start of a shard probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Stall the probe this many milliseconds before computing (a slow
    /// replica; the probe still answers if anyone is left waiting).
    Latency(u64),
    /// Panic inside the probe (exercises `catch_unwind` isolation).
    Panic,
    /// Fail the probe with an error reply.
    Error,
}

/// Background fault rates of a seeded plan, in permille per probe.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChaosProfile {
    /// Probability (‰) a probe panics.
    pub panic_permille: u32,
    /// Probability (‰) a probe errors.
    pub error_permille: u32,
    /// Probability (‰) a probe is stalled by `latency_ms`.
    pub latency_permille: u32,
    /// Stall length for latency faults.
    pub latency_ms: u64,
}

/// splitmix64 finalizer (public-domain constants; same avalanche the
/// router uses) — FNV states of small integers need scattering before a
/// modulo draw.
#[inline]
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// A deterministic fault-injection schedule. Explicit per-probe faults
/// take precedence over blanket slow replicas, which take precedence
/// over the seeded background profile.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    profile: Option<ChaosProfile>,
    explicit: HashMap<(u64, u32, u32), FaultKind>,
    slow_replicas: HashMap<(u32, u32), u64>,
    corrupt_swaps: Vec<u64>,
}

impl FaultPlan {
    /// An empty plan (no faults until schedules are added).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// A plan whose background faults are drawn pseudo-randomly from
    /// `profile`, keyed by `(seed, request, shard, replica)`.
    pub fn seeded(seed: u64, profile: ChaosProfile) -> Self {
        FaultPlan {
            seed,
            profile: Some(profile),
            ..FaultPlan::default()
        }
    }

    /// Schedules `kind` for the probe of `(request, shard, replica)`.
    pub fn with_probe_fault(
        mut self,
        request: u64,
        shard: usize,
        replica: usize,
        kind: FaultKind,
    ) -> Self {
        self.explicit
            .insert((request, shard as u32, replica as u32), kind);
        self
    }

    /// Makes every probe of `(shard, replica)` stall `ms` milliseconds —
    /// the "one slow replica" scenario hedging exists for.
    pub fn with_slow_replica(mut self, shard: usize, replica: usize, ms: u64) -> Self {
        self.slow_replicas
            .insert((shard as u32, replica as u32), ms);
        self
    }

    /// Corrupts the stamped tag of the `attempt`-th snapshot publication
    /// (0-based, counted across all shards), forcing the pre-publish
    /// validation to roll the swap back.
    pub fn with_corrupt_swap(mut self, attempt: u64) -> Self {
        self.corrupt_swaps.push(attempt);
        self
    }

    /// The fault (if any) injected into this probe.
    pub fn probe_fault(&self, request: u64, shard: usize, replica: usize) -> Option<FaultKind> {
        if let Some(kind) = self.explicit.get(&(request, shard as u32, replica as u32)) {
            return Some(*kind);
        }
        if let Some(ms) = self.slow_replicas.get(&(shard as u32, replica as u32)) {
            return Some(FaultKind::Latency(*ms));
        }
        let p = self.profile.as_ref()?;
        let h = mix(fnv1a_u64(
            fnv1a_u64(fnv1a_u64(self.seed ^ FNV_OFFSET, request), shard as u64),
            replica as u64,
        ));
        let roll = (h % 1000) as u32;
        if roll < p.panic_permille {
            Some(FaultKind::Panic)
        } else if roll < p.panic_permille + p.error_permille {
            Some(FaultKind::Error)
        } else if roll < p.panic_permille + p.error_permille + p.latency_permille {
            Some(FaultKind::Latency(p.latency_ms))
        } else {
            None
        }
    }

    /// Whether this publication attempt's tag should be corrupted.
    pub fn corrupts_swap(&self, attempt: u64) -> bool {
        self.corrupt_swaps.contains(&attempt)
    }

    /// Corrupts a stamped tag in place (what a torn or buggy build would
    /// look like to the validation gate).
    pub fn corrupt_tag(tag: &mut ShardTag) {
        tag.graph_digest ^= 0xdead_beef_dead_beef;
    }
}

/// Circuit-breaker state of one shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every request is admitted.
    Closed,
    /// Tripped: requests are rejected (skipped from the fan-out) until
    /// the cooldown admits a probe.
    Open,
    /// One probe is in flight; its outcome closes or re-opens.
    HalfOpen,
}

/// What the breaker decided for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Normal admission (breaker closed or disabled).
    Allow,
    /// The half-open trial probe.
    Probe,
    /// Rejected: skip the shard, don't probe.
    Reject,
}

struct BreakerInner {
    state: BreakerState,
    consecutive_faults: u32,
    skipped: u32,
}

/// A per-shard circuit breaker: closed → open after `threshold`
/// consecutive faults → half-open probe after `cooldown` rejected
/// requests → closed on probe success (open again on probe fault).
/// Cooldown is counted in requests, not wall-clock, so tests are exact.
pub struct Breaker {
    threshold: u32,
    cooldown: u32,
    inner: parking_lot::Mutex<BreakerInner>,
    opens: AtomicU64,
}

impl Breaker {
    /// A breaker tripping after `threshold` consecutive faults (0
    /// disables it: everything is admitted) and probing after `cooldown`
    /// rejections.
    pub fn new(threshold: u32, cooldown: u32) -> Self {
        Breaker {
            threshold,
            cooldown: cooldown.max(1),
            inner: parking_lot::Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_faults: 0,
                skipped: 0,
            }),
            opens: AtomicU64::new(0),
        }
    }

    /// Admission decision for one request.
    pub fn admit(&self) -> Admission {
        if self.threshold == 0 {
            return Admission::Allow;
        }
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => Admission::Allow,
            BreakerState::Open => {
                inner.skipped += 1;
                if inner.skipped >= self.cooldown {
                    inner.state = BreakerState::HalfOpen;
                    Admission::Probe
                } else {
                    Admission::Reject
                }
            }
            // A trial probe is already in flight; stay out of its way.
            BreakerState::HalfOpen => Admission::Reject,
        }
    }

    /// Records the outcome of an admitted request. `Reject` admissions
    /// record nothing.
    pub fn record(&self, admission: Admission, ok: bool) {
        if self.threshold == 0 || admission == Admission::Reject {
            return;
        }
        let mut inner = self.inner.lock();
        if ok {
            // Any success is evidence of health, even one admitted before
            // a concurrent trip: close and reset.
            inner.state = BreakerState::Closed;
            inner.consecutive_faults = 0;
            inner.skipped = 0;
            return;
        }
        match admission {
            Admission::Probe => {
                inner.state = BreakerState::Open;
                inner.skipped = 0;
                self.opens.fetch_add(1, Ordering::Relaxed);
            }
            Admission::Allow => {
                inner.consecutive_faults += 1;
                if inner.consecutive_faults >= self.threshold && inner.state == BreakerState::Closed
                {
                    inner.state = BreakerState::Open;
                    inner.consecutive_faults = 0;
                    inner.skipped = 0;
                    self.opens.fetch_add(1, Ordering::Relaxed);
                }
            }
            Admission::Reject => unreachable!("rejections return early"),
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    /// How many times this breaker tripped open (including re-opens from
    /// a failed half-open probe).
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }
}

/// Monotone fault-tolerance counters of one server (atomics; snapshot
/// via [`FaultCounters::snapshot`]).
#[derive(Debug, Default)]
pub(crate) struct FaultCounters {
    pub gather: GatherCounters,
    pub panics: AtomicU64,
    pub errors: AtomicU64,
    pub degraded: AtomicU64,
    pub rollbacks: AtomicU64,
}

impl FaultCounters {
    pub fn snapshot(&self, breaker_opens: u64) -> FaultStats {
        let g = &self.gather;
        FaultStats {
            probes: g.probes.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            timeouts: g.timeouts.load(Ordering::Relaxed),
            hedges: g.hedges.load(Ordering::Relaxed),
            failovers: g.failovers.load(Ordering::Relaxed),
            hedge_wins: g.hedge_wins.load(Ordering::Relaxed),
            breaker_opens,
            breaker_skips: g.breaker_skips.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time fault-tolerance counters (part of `ServeStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Shard probes spawned (primaries, hedges and failovers).
    pub probes: u64,
    /// Probes that panicked (isolated by `catch_unwind`).
    pub panics: u64,
    /// Probes that returned an error.
    pub errors: u64,
    /// Shards dropped at the request deadline.
    pub timeouts: u64,
    /// Backup probes fired by the latency hedge.
    pub hedges: u64,
    /// Backup probes fired by immediate fail-over after a primary fault.
    pub failovers: u64,
    /// Requests where the backup probe answered.
    pub hedge_wins: u64,
    /// Times any shard breaker tripped open.
    pub breaker_opens: u64,
    /// Requests that skipped a shard because its breaker was open.
    pub breaker_skips: u64,
    /// Replies returned with partial coverage.
    pub degraded: u64,
    /// Snapshot swaps rolled back by the validation gate.
    pub rollbacks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_respects_precedence() {
        let plan = FaultPlan::seeded(
            9,
            ChaosProfile {
                panic_permille: 100,
                error_permille: 100,
                latency_permille: 100,
                latency_ms: 7,
            },
        )
        .with_probe_fault(3, 1, 0, FaultKind::Panic)
        .with_slow_replica(2, 1, 55);
        // Explicit beats everything.
        assert_eq!(plan.probe_fault(3, 1, 0), Some(FaultKind::Panic));
        // Slow replica beats the profile.
        assert_eq!(plan.probe_fault(0, 2, 1), Some(FaultKind::Latency(55)));
        // Seeded draws repeat exactly.
        for req in 0..200u64 {
            for shard in 0..4 {
                for replica in 0..2 {
                    assert_eq!(
                        plan.probe_fault(req, shard, replica),
                        plan.probe_fault(req, shard, replica)
                    );
                }
            }
        }
        // ~30% fault rate: over 1600 draws some of each kind must appear.
        let mut kinds = [0u32; 3];
        for req in 0..200u64 {
            for shard in 0..4 {
                match plan.probe_fault(req, shard, 1) {
                    Some(FaultKind::Panic) => kinds[0] += 1,
                    Some(FaultKind::Error) => kinds[1] += 1,
                    Some(FaultKind::Latency(_)) => kinds[2] += 1,
                    None => {}
                }
            }
        }
        assert!(kinds.iter().all(|&k| k > 0), "kinds drawn: {kinds:?}");
    }

    #[test]
    fn corrupt_tag_breaks_digests() {
        let mut tag = ShardTag {
            shard: 0,
            generation: 3,
            graph_digest: 42,
            profile_digest: 7,
        };
        let before = tag;
        FaultPlan::corrupt_tag(&mut tag);
        assert_ne!(tag.graph_digest, before.graph_digest);
        assert_eq!(tag.generation, before.generation);
    }

    #[test]
    fn breaker_disabled_admits_everything() {
        let b = Breaker::new(0, 4);
        for _ in 0..10 {
            assert_eq!(b.admit(), Admission::Allow);
            b.record(Admission::Allow, false);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.opens(), 0);
    }

    #[test]
    fn breaker_trips_probes_and_recovers() {
        let b = Breaker::new(2, 2);
        // Two consecutive faults trip it.
        b.record(b.admit(), false);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(b.admit(), false);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 1);
        // Cooldown: first rejection, then a half-open probe.
        assert_eq!(b.admit(), Admission::Reject);
        let probe = b.admit();
        assert_eq!(probe, Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // While the probe is out, others are rejected.
        assert_eq!(b.admit(), Admission::Reject);
        // Failed probe re-opens.
        b.record(probe, false);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 2);
        // Next probe succeeds and closes.
        assert_eq!(b.admit(), Admission::Reject);
        let probe = b.admit();
        assert_eq!(probe, Admission::Probe);
        b.record(probe, true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(), Admission::Allow);
    }

    #[test]
    fn success_interrupts_a_fault_streak() {
        let b = Breaker::new(3, 2);
        b.record(b.admit(), false);
        b.record(b.admit(), false);
        b.record(b.admit(), true); // streak reset
        b.record(b.admit(), false);
        b.record(b.admit(), false);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(b.admit(), false);
        assert_eq!(b.state(), BreakerState::Open);
    }
}
