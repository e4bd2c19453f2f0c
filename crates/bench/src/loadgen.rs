//! Deterministic open-loop load generation against [`ShardedPqsDa`]
//! (DESIGN §11).
//!
//! The closed-loop benches elsewhere in this crate send a request, wait
//! for the reply, send the next — a model that structurally cannot
//! observe queueing, because offered load collapses to match capacity
//! the moment the server slows down. An **open-loop** generator is the
//! opposite contract: arrivals follow a precomputed schedule (seeded
//! Poisson process at a configured offered rate) and are dispatched on
//! schedule *whether or not* earlier requests have completed. Latency is
//! measured from the **scheduled arrival**, so time spent queued behind
//! a backlog counts — which is exactly the coordinated-omission mistake
//! the closed loop makes.
//!
//! Determinism: the arrival schedule and the request mix are pure
//! functions of the seed (splitmix64 → exponential inter-arrival gaps),
//! so two runs at the same seed offer the identical workload. The
//! measured latencies are wall-clock and host-dependent, as latencies
//! must be.
//!
//! Dispatch runs on a small worker pool rather than one thread per
//! in-flight request; when every worker is busy the backlog shows up as
//! schedule lag, which the latency accounting above charges to the
//! requests — the load stays open-loop in the sense that matters.

use pqsda_baselines::SuggestRequest;
use pqsda_parallel::Deadline;
use pqsda_serve::{ServeOutcome, SuggestService};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One open-loop run's knobs.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopConfig {
    /// Seeds the arrival schedule and the request mix.
    pub seed: u64,
    /// Offered arrival rate, requests per second.
    pub offered_rps: f64,
    /// Total requests to schedule.
    pub requests: usize,
    /// Per-request deadline budget from the *scheduled* arrival
    /// (0 = no deadline: nothing is shed, nothing can be violated).
    pub deadline_ms: u64,
    /// Dispatch workers (0 = a small default pool).
    pub threads: usize,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            seed: 42,
            offered_rps: 100.0,
            requests: 256,
            deadline_ms: 0,
            threads: 0,
        }
    }
}

/// What one open-loop run observed.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpenLoopReport {
    /// The configured offered rate (req/s).
    pub offered_rps: f64,
    /// Requests scheduled.
    pub requests: usize,
    /// Requests served (possibly degraded, never silently dropped).
    pub completed: u64,
    /// Requests shed by admission control with an explicit rejection.
    pub rejected: u64,
    /// Served requests that finished after their deadline.
    pub deadline_violations: u64,
    /// Latency percentiles over served requests, measured from the
    /// scheduled arrival (µs). Zero when nothing was served.
    pub p50_us: u64,
    /// 99th percentile (µs).
    pub p99_us: u64,
    /// 99.9th percentile (µs).
    pub p999_us: u64,
    /// Mean served latency (µs).
    pub mean_us: f64,
    /// Deepest observed backlog (arrivals due by schedule − finished).
    pub max_queue_depth: u64,
    /// Mean backlog sampled at every dispatch.
    pub mean_queue_depth: f64,
    /// `rejected / requests`.
    pub drop_rate: f64,
    /// Wall-clock of the whole run (µs).
    pub wall_us: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from 53 random bits.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// The seeded Poisson arrival schedule: µs offsets from the run epoch,
/// exponential inter-arrival gaps at `rate_rps`. Pure in `(seed, rate,
/// n)` — the determinism the BENCH rows and the CI smoke rely on.
pub fn arrival_offsets_us(seed: u64, rate_rps: f64, n: usize) -> Vec<u64> {
    assert!(rate_rps > 0.0, "offered rate must be positive");
    let mut state = seed ^ 0xA881_07E5_0C3A_11E5;
    let mut t_us = 0.0f64;
    (0..n)
        .map(|_| {
            // Inverse-CDF sample of Exp(rate): −ln(1−u)/rate seconds.
            let gap_s = -(1.0 - unit(&mut state)).ln() / rate_rps;
            t_us += gap_s * 1e6;
            t_us as u64
        })
        .collect()
}

/// The seeded request mix: which request of `pool_len` the `i`-th
/// arrival issues. Skewed quadratically toward low indices so hot keys
/// exist and coalescing has duplicates to merge.
pub fn request_index(seed: u64, i: usize, pool_len: usize) -> usize {
    let mut state = seed ^ 0x9E3_7C0A1 ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
    let u = unit(&mut state);
    ((u * u * pool_len as f64) as usize).min(pool_len - 1)
}

/// Runs one open-loop schedule against any [`SuggestService`] — the
/// in-process [`pqsda_serve::ShardedPqsDa`] or the socket-backed
/// [`pqsda_net`] router measure under the identical workload. Requests
/// are drawn from `pool`; every scheduled request resolves explicitly:
/// served (counted with its latency) or shed (`ServeOutcome::Rejected`,
/// counted as a drop) — a silent disappearance is a panic.
pub fn run_open_loop<S: SuggestService + ?Sized>(
    server: &S,
    pool: &[SuggestRequest],
    cfg: &OpenLoopConfig,
) -> OpenLoopReport {
    assert!(!pool.is_empty(), "need at least one request to replay");
    assert!(cfg.requests > 0, "need a positive request count");
    let offsets = arrival_offsets_us(cfg.seed, cfg.offered_rps, cfg.requests);
    let workers = if cfg.threads == 0 {
        4
    } else {
        cfg.threads.max(1)
    };
    // A short grace so every worker is parked on the schedule before the
    // first arrival is due.
    let epoch = Instant::now() + Duration::from_millis(2);

    let next = AtomicUsize::new(0);
    let finished = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let violations = AtomicU64::new(0);
    let max_depth = AtomicU64::new(0);
    let depth_sum = AtomicU64::new(0);

    let mut per_worker: Vec<Vec<u64>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let finished = &finished;
                let rejected = &rejected;
                let violations = &violations;
                let max_depth = &max_depth;
                let depth_sum = &depth_sum;
                let offsets = &offsets;
                scope.spawn(move || {
                    let mut latencies = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cfg.requests {
                            break;
                        }
                        let at = epoch + Duration::from_micros(offsets[i]);
                        loop {
                            let now = Instant::now();
                            if now >= at {
                                break;
                            }
                            std::thread::sleep((at - now).min(Duration::from_millis(1)));
                        }
                        // Backlog at dispatch: arrivals already due by the
                        // schedule that have not finished — the open-loop
                        // queue, including arrivals no worker has picked
                        // up yet.
                        let now_us = Instant::now()
                            .saturating_duration_since(epoch)
                            .as_micros()
                            .min(u128::from(u64::MAX)) as u64;
                        let due = offsets.partition_point(|&o| o <= now_us) as u64;
                        let depth = due.saturating_sub(finished.load(Ordering::Relaxed));
                        max_depth.fetch_max(depth, Ordering::Relaxed);
                        depth_sum.fetch_add(depth, Ordering::Relaxed);
                        let req = &pool[request_index(cfg.seed, i, pool.len())];
                        let deadline = (cfg.deadline_ms > 0)
                            .then(|| Deadline::at(at + Duration::from_millis(cfg.deadline_ms)));
                        match server.suggest_with_deadline(req, deadline) {
                            ServeOutcome::Served(_) => {
                                let lat = at.elapsed();
                                if cfg.deadline_ms > 0
                                    && lat > Duration::from_millis(cfg.deadline_ms)
                                {
                                    violations.fetch_add(1, Ordering::Relaxed);
                                }
                                latencies.push(lat.as_micros().min(u128::from(u64::MAX)) as u64);
                            }
                            ServeOutcome::Rejected(_) => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                    }
                    latencies
                })
            })
            .collect();
        for h in handles {
            per_worker.push(h.join().expect("loadgen worker panicked"));
        }
    });
    let wall_us = epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;

    let mut latencies: Vec<u64> = per_worker.into_iter().flatten().collect();
    latencies.sort_unstable();
    let completed = latencies.len() as u64;
    let rejected = rejected.load(Ordering::Relaxed);
    assert_eq!(
        completed + rejected,
        cfg.requests as u64,
        "every scheduled request must resolve explicitly (served or rejected)"
    );
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let rank = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[rank]
    };
    OpenLoopReport {
        offered_rps: cfg.offered_rps,
        requests: cfg.requests,
        completed,
        rejected,
        deadline_violations: violations.load(Ordering::Relaxed),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        p999_us: pct(0.999),
        mean_us: if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
        },
        max_queue_depth: max_depth.load(Ordering::Relaxed),
        mean_queue_depth: depth_sum.load(Ordering::Relaxed) as f64 / cfg.requests as f64,
        drop_rate: rejected as f64 / cfg.requests as f64,
        wall_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_seeded_and_rate_shaped() {
        let a = arrival_offsets_us(7, 1000.0, 500);
        let b = arrival_offsets_us(7, 1000.0, 500);
        let c = arrival_offsets_us(8, 1000.0, 500);
        assert_eq!(a, b, "same seed ⇒ same schedule");
        assert_ne!(a, c, "different seed ⇒ different schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets are monotone");
        // 500 arrivals at 1000 req/s span ~500 ms; allow generous slack
        // for exponential variance.
        let span_ms = *a.last().unwrap() / 1_000;
        assert!((250..1_000).contains(&span_ms), "span {span_ms} ms");
    }

    #[test]
    fn request_mix_is_seeded_and_in_bounds() {
        let picks: Vec<usize> = (0..200).map(|i| request_index(3, i, 10)).collect();
        let again: Vec<usize> = (0..200).map(|i| request_index(3, i, 10)).collect();
        assert_eq!(picks, again);
        assert!(picks.iter().all(|&p| p < 10));
        // The quadratic skew makes low indices hot.
        let lows = picks.iter().filter(|&&p| p < 3).count();
        assert!(lows > 80, "skew missing: {lows}/200 low picks");
    }

    /// A saturating schedule against a slowed server sheds load, and every
    /// shed is an explicit rejection that the server's admission counter
    /// also records: nothing is dropped silently on either side.
    #[test]
    fn saturated_schedule_sheds_only_through_admission() {
        use pqsda_querylog::synth::{generate, SynthConfig};
        use pqsda_serve::{FaultPlan, PartitionKey, ServeConfig, ShardedPqsDa};

        let synth = generate(&SynthConfig::tiny(42));
        let pool: Vec<SuggestRequest> = synth
            .log
            .records()
            .iter()
            .step_by(7)
            .map(|r| SuggestRequest::simple(r.query, 8).for_user(r.user))
            .collect();
        let server = ShardedPqsDa::build(
            &synth.log.entries(),
            ServeConfig {
                shards: 2,
                key: PartitionKey::User,
                coalesce: true,
                ..ServeConfig::default()
            },
        );
        // Every primary replica stalls 20 ms per probe, so the 4 dispatch
        // workers serve at most ~200 req/s: 600 req/s is 3x capacity, and
        // two requests in flight already project past the 25 ms deadline.
        // (A 5 ms stall allows ~800 req/s, above the offered rate, and
        // sheds only by chance.)
        server.set_fault_plan(Some(
            FaultPlan::new()
                .with_slow_replica(0, 0, 20)
                .with_slow_replica(1, 0, 20),
        ));
        // Feed the admission gate past its minimum sample count.
        for req in pool.iter().take(12) {
            let _ = server.suggest(req);
        }
        let cfg = OpenLoopConfig {
            seed: 43,
            offered_rps: 600.0,
            requests: 150,
            deadline_ms: 25,
            threads: 0,
        };
        let report = run_open_loop(&server, &pool, &cfg);
        assert_eq!(report.completed + report.rejected, cfg.requests as u64);
        assert!(report.rejected > 0, "a saturating rate shed nothing");
        assert_eq!(
            server.stats().admission.shed,
            report.rejected,
            "the generator's rejections and the server's shed count disagree"
        );
    }
}
