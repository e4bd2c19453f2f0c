//! The fault-tolerant scatter-gather loop, shared by every transport.
//!
//! [`gather`] owns the slot state machine: breaker admission, a
//! round-robin primary, immediate failover when an attempt faults, a
//! hedge once `hedge_at` lapses, the deadline sweep, and assembly in
//! shard order. A transport supplies only a spawn closure (one attempt
//! against one replica) and a fault classifier (does this fault count
//! against the breaker?); the in-process server and the socket router
//! both drive this one loop.
//!
//! The caller blocks on a per-request [`Completion`] and wakes only when
//! an attempt faulted, when every shard it still waits on has a finished
//! attempt, or when its timer (the next pending `hedge_at`, else the
//! deadline) fires: one wake per healthy request. A success's latency is
//! measured to its attempt's own completion, not to when the caller woke.

use crate::fault::{Admission, Breaker, FaultConfig};
use crate::histogram::{hedge_delay, DecayedHistogram};
use crate::sharded::ServeReply;
use crate::swap::ShardTag;
use pqsda_parallel::{
    CancelToken, Completion, Deadline, SlotSeen, TaskHandle, TaskPanic, TaskPoll,
};
use pqsda_querylog::QueryId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a successful probe attempt answers: the tag of the snapshot that
/// served it and its candidates in global ids, rank order.
pub type Answer = (ShardTag, Vec<(QueryId, f64)>);

/// A shard's health as the gather loop reads and updates it.
pub struct ShardHealth {
    /// Admits or skips the shard, and records each slot's outcome.
    pub breaker: Breaker,
    /// Decayed histogram of successful primary latencies; sizes the
    /// hedge budget (DESIGN §11).
    pub latency: DecayedHistogram,
}

impl ShardHealth {
    /// A closed breaker and an empty histogram under `fault`'s knobs.
    pub fn new(fault: &FaultConfig) -> Self {
        ShardHealth {
            breaker: Breaker::new(fault.breaker_threshold, fault.breaker_cooldown),
            latency: DecayedHistogram::default(),
        }
    }
}

/// Monotone counters of the gather loop.
#[derive(Debug, Default)]
pub struct GatherCounters {
    /// Probe attempts spawned (primaries, hedges and failovers).
    pub probes: AtomicU64,
    /// Shard slots dropped at the request deadline.
    pub timeouts: AtomicU64,
    /// Backup attempts fired by the latency hedge.
    pub hedges: AtomicU64,
    /// Backup attempts fired by immediate failover after a fault.
    pub failovers: AtomicU64,
    /// Slots answered by the backup attempt.
    pub hedge_wins: AtomicU64,
    /// Shard slots skipped by an open breaker.
    pub breaker_skips: AtomicU64,
    /// Times a caller woke on its completion signal: each return from a
    /// wait, plus each wake-up that found nothing to do.
    pub wakes: AtomicU64,
}

/// One request's fan-out: what to probe and until when.
#[derive(Clone, Copy, Debug)]
pub struct Fanout<'a> {
    /// The request counter (keys round-robin primaries).
    pub request: u64,
    /// Shards to consult, in merge order.
    pub targets: &'a [usize],
    /// Suggestions to merge.
    pub k: usize,
    /// The fault-tolerance knobs (replicas come from the transport).
    pub fault: &'a FaultConfig,
    /// When the fan-out started (hedge budgets count from here).
    pub start: Instant,
    /// The tighter of the configured budget and the caller's deadline.
    pub deadline: Option<Instant>,
}

impl<'a> Fanout<'a> {
    /// A fan-out starting now, bounded by `fault.budget_ms` (when set)
    /// and the caller's own deadline.
    pub fn new(
        request: u64,
        targets: &'a [usize],
        k: usize,
        fault: &'a FaultConfig,
        deadline: Option<&Deadline>,
    ) -> Self {
        let start = Instant::now();
        let budget = (fault.budget_ms > 0).then(|| start + Duration::from_millis(fault.budget_ms));
        let deadline = match (budget, deadline.map(Deadline::instant)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Fanout {
            request,
            targets,
            k,
            fault,
            start,
            deadline,
        }
    }
}

/// An attempt's stored result: the answer with its completion instant,
/// or the transport's fault.
type Attempt<E> = Result<(Answer, Instant), E>;

/// One target's bookkeeping. It is waiting while its `SlotSeen` is open.
struct Slot<E> {
    shard: usize,
    admission: Admission,
    primary: Option<TaskHandle<Attempt<E>>>,
    backup: Option<TaskHandle<Attempt<E>>>,
    backup_spawned: bool,
    primary_replica: usize,
    hedge_at: Option<Instant>,
    /// An attempt faulted in a way the classifier counts against the
    /// breaker; only then does the slot's failure record a fault.
    real_fault: bool,
    answer: Option<Answer>,
}

impl<E> Slot<E> {
    fn cancel(&self) {
        for h in self.primary.iter().chain(&self.backup) {
            h.cancel();
        }
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Takes `handle`'s result if it finished. A success is returned; a fault
/// clears the handle and is classified.
fn take<E, C>(
    handle: &mut Option<TaskHandle<Attempt<E>>>,
    seen: &mut SlotSeen,
    real_fault: &mut bool,
    classify: &mut C,
) -> Option<(Answer, Instant)>
where
    C: FnMut(Result<E, TaskPanic>) -> bool,
{
    let TaskPoll::Ready(out) = handle.as_ref()?.try_take() else {
        return None;
    };
    seen.taken += 1;
    let fault = match out {
        Ok(Ok(done)) => return Some(done),
        Ok(Err(e)) => Ok(e),
        Err(panic) => Err(panic),
    };
    seen.faults += 1;
    *real_fault |= classify(fault);
    *handle = None;
    None
}

/// Runs one request's scatter-gather and merges what answered.
///
/// `shard(s)` gives shard `s`'s health and replica count. `spawn(s, r)`
/// returns the job probing replica `r` of shard `s`; it runs on a
/// cancellable task and returns the answer or a transport fault.
/// `classify` sees every faulted attempt (a panic or the job's `Err`) and
/// says whether it counts against the breaker.
///
/// Per target: admit through the breaker, probe the round-robin primary,
/// fail over to the backup immediately when the primary faults, hedge to
/// it once `hedge_at` lapses, and drop whatever is unresolved at the
/// deadline. The primary wins a tie. Answers merge in target order.
pub fn gather<'h, H, S, P, E, C>(
    fanout: Fanout<'_>,
    counters: &GatherCounters,
    shard: H,
    mut spawn: S,
    mut classify: C,
) -> ServeReply
where
    H: Fn(usize) -> (&'h ShardHealth, usize),
    S: FnMut(usize, usize) -> P,
    P: FnOnce(&CancelToken) -> Result<Answer, E> + Send + 'static,
    E: Send + 'static,
    C: FnMut(Result<E, TaskPanic>) -> bool,
{
    let signal = Arc::new(Completion::new(fanout.targets.len()));
    let mut launch = |slot: usize, s: usize, replica: usize| {
        bump(&counters.probes);
        let job = spawn(s, replica);
        signal.spawn(slot, move |token| {
            job(token).map(|answer| (answer, Instant::now()))
        })
    };
    let fault = fanout.fault;
    let hedging = !(fault.hedge_ms == 0 && fault.hedge_percentile <= 0.0);

    let mut seen = vec![SlotSeen::default(); fanout.targets.len()];
    let mut slots: Vec<Slot<E>> = Vec::with_capacity(fanout.targets.len());
    for (i, &s) in fanout.targets.iter().enumerate() {
        let (health, replicas) = shard(s);
        let admission = health.breaker.admit();
        let mut slot = Slot {
            shard: s,
            admission,
            primary: None,
            backup: None,
            backup_spawned: false,
            // The `ReplicaSet` round-robin: primary `request mod R`.
            primary_replica: (fanout.request % replicas as u64) as usize,
            hedge_at: None,
            real_fault: false,
            answer: None,
        };
        if admission == Admission::Reject {
            bump(&counters.breaker_skips);
        } else {
            slot.primary = Some(launch(i, s, slot.primary_replica));
            slot.hedge_at = (replicas > 1 && hedging).then(|| {
                fanout.start + hedge_delay(&health.latency, fault.hedge_ms, fault.hedge_percentile)
            });
            seen[i].open = true;
        }
        slots.push(slot);
    }

    loop {
        let mut waiting = false;
        let mut timer = fanout.deadline;
        for (i, slot) in slots.iter_mut().enumerate() {
            if !seen[i].open {
                continue;
            }
            let (health, replicas) = shard(slot.shard);
            // Primary outcome first, so on a tie the primary wins (both
            // replicas serve the same published snapshot).
            let mut take_from =
                |h: &mut Option<_>| take(h, &mut seen[i], &mut slot.real_fault, &mut classify);
            let won = match take_from(&mut slot.primary) {
                Some((answer, done_at)) => {
                    health
                        .latency
                        .record(done_at.saturating_duration_since(fanout.start));
                    Some(answer)
                }
                None => take_from(&mut slot.backup).map(|(answer, _)| {
                    bump(&counters.hedge_wins);
                    answer
                }),
            };
            if let Some(answer) = won {
                health.breaker.record(slot.admission, true);
                slot.cancel();
                slot.answer = Some(answer);
                seen[i].open = false;
                continue;
            }
            let backup = (slot.primary_replica + 1) % replicas;
            if slot.primary.is_none() && slot.backup.is_none() {
                if slot.backup_spawned || replicas < 2 {
                    // A slot whose every attempt faulted only in ways the
                    // classifier excuses records no breaker fault.
                    if slot.real_fault {
                        health.breaker.record(slot.admission, false);
                    }
                    seen[i].open = false;
                    continue;
                }
                // The primary faulted: fail over to the next replica
                // immediately instead of waiting for the hedge budget.
                slot.backup = Some(launch(i, slot.shard, backup));
                slot.backup_spawned = true;
                bump(&counters.failovers);
            } else if let (Some(at), false) = (slot.hedge_at, slot.backup_spawned) {
                if Instant::now() >= at {
                    // Primary still out past its latency budget: hedge.
                    slot.backup = Some(launch(i, slot.shard, backup));
                    slot.backup_spawned = true;
                    bump(&counters.hedges);
                } else {
                    timer = Some(timer.map_or(at, |t| t.min(at)));
                }
            }
            waiting = true;
        }
        if !waiting {
            break;
        }
        if fanout.deadline.is_some_and(|d| Instant::now() >= d) {
            for (slot, seen) in slots.iter().zip(&mut seen) {
                if seen.open {
                    bump(&counters.timeouts);
                    shard(slot.shard).0.breaker.record(slot.admission, false);
                    slot.cancel();
                    seen.open = false;
                }
            }
            break;
        }
        signal.wait(&seen, timer);
        bump(&counters.wakes);
    }

    let idle_wakes = u64::from(signal.idle_wakes());
    counters.wakes.fetch_add(idle_wakes, Ordering::Relaxed);
    let consulted = slots.len();
    let answers = slots.into_iter().filter_map(|s| s.answer).collect();
    ServeReply::merged(answers, consulted, fanout.k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::Coverage;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// One spawned fake attempt: its shard, its replica, and the gate the
    /// test releases it through (a dropped gate faults the attempt).
    type Spawned = (usize, usize, Sender<Result<Answer, &'static str>>);

    const PATIENCE: Duration = Duration::from_secs(10);

    /// Runs a fan-out over `shards` shards under `fault` on a second
    /// thread; its attempts block until `drive` releases them. `drive`
    /// gets every spawn and every `shard(s)` lookup (the loop makes one
    /// per target at admission, then one per waiting slot per pass).
    /// Returns the reply, the counters, the shards' health and how many
    /// faults were classified.
    fn run(
        shards: usize,
        fault: FaultConfig,
        drive: impl FnOnce(&Receiver<Spawned>, &Receiver<usize>),
    ) -> (ServeReply, GatherCounters, Vec<ShardHealth>, usize) {
        let health: Vec<_> = (0..shards).map(|_| ShardHealth::new(&fault)).collect();
        let counters = GatherCounters::default();
        let targets: Vec<usize> = (0..shards).collect();
        let (spawned_tx, spawned) = channel::<Spawned>();
        let (looked_tx, looked) = channel::<usize>();
        let mut faults = 0;
        let reply = std::thread::scope(|scope| {
            let gatherer = scope.spawn(|| {
                let shard = |s: usize| {
                    looked_tx.send(s).unwrap();
                    (&health[s], fault.replicas)
                };
                let spawn = |s: usize, r: usize| {
                    let (gate, released) = channel();
                    spawned_tx.send((s, r, gate)).unwrap();
                    move |_: &CancelToken| released.recv().unwrap_or(Err("abandoned"))
                };
                let classify = |_: Result<&str, TaskPanic>| {
                    faults += 1;
                    true
                };
                let fanout = Fanout::new(0, &targets, 10, &fault, None);
                gather(fanout, &counters, shard, spawn, classify)
            });
            drive(&spawned, &looked);
            gatherer.join().unwrap()
        });
        (reply, counters, health, faults)
    }

    fn next(spawned: &Receiver<Spawned>) -> Spawned {
        spawned.recv_timeout(PATIENCE).expect("no attempt spawned")
    }

    /// Releases an attempt with its answer; the tag's generation names the
    /// replica that gave it.
    fn answer((s, r, gate): Spawned) {
        let tag = ShardTag {
            shard: s,
            generation: r as u64,
            graph_digest: 0,
            profile_digest: 0,
        };
        gate.send(Ok((tag, vec![(QueryId(s as u32), 1.0)])))
            .unwrap();
    }

    fn config(replicas: usize, hedge_ms: u64, budget_ms: u64) -> FaultConfig {
        FaultConfig {
            replicas,
            hedge_ms,
            budget_ms,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn a_healthy_request_wakes_the_caller_once() {
        let (reply, c, _, faults) = run(2, config(1, 0, 0), |spawned, looked| {
            let (a, b) = (next(spawned), next(spawned));
            // Two admissions, then the first pass over both slots: from
            // here on the caller can take a result only by waking.
            for _ in 0..4 {
                looked.recv_timeout(PATIENCE).unwrap();
            }
            answer(a);
            // Shard 0 finishing well before shard 1 must not wake it. The
            // count below holds however the two interleave; the pause only
            // lets a wake-per-completion loop show its second wake.
            std::thread::sleep(Duration::from_millis(20));
            answer(b);
        });
        assert_eq!(reply.coverage, Coverage::full(2));
        assert_eq!(c.wakes.into_inner(), 1);
        assert_eq!((c.probes.into_inner(), faults), (2, 0));
    }

    #[test]
    fn a_faulting_primary_fails_over_before_the_other_shard_finishes() {
        let (reply, c, _, faults) = run(2, config(2, 0, 0), |spawned, _| {
            let (primary, other) = (next(spawned), next(spawned));
            assert_eq!((primary.0, primary.1, other.0, other.1), (0, 0, 1, 0));
            primary.2.send(Err("injected")).unwrap();
            // Shard 1 is still held: the failover must not wait for it.
            let backup = next(spawned);
            assert_eq!(
                (backup.0, backup.1),
                (0, 1),
                "fail over to the next replica"
            );
            answer(backup);
            answer(other);
        });
        assert_eq!(reply.coverage, Coverage::full(2));
        assert_eq!(reply.tags[0].generation, 1, "answered by the backup");
        assert_eq!(faults, 1);
        let counts = [c.failovers, c.hedge_wins, c.hedges].map(AtomicU64::into_inner);
        assert_eq!(counts, [1, 1, 0]);
    }

    #[test]
    fn a_hedge_fires_at_hedge_at_while_nothing_has_finished() {
        let start = Instant::now();
        let mut held = None;
        let (reply, c, _, faults) = run(1, config(2, 20, 0), |spawned, _| {
            let (primary, hedge) = (next(spawned), next(spawned));
            assert_eq!((hedge.0, hedge.1), (0, 1));
            assert!(start.elapsed() >= Duration::from_millis(20), "hedged early");
            answer(hedge);
            held = Some(primary);
        });
        drop(held);
        assert_eq!(reply.coverage, Coverage::full(1));
        assert_eq!(reply.tags[0].generation, 1, "the hedge answered");
        let counts = [c.hedges, c.hedge_wins, c.failovers].map(AtomicU64::into_inner);
        assert_eq!((counts, faults), ([1, 1, 0], 0));
    }

    #[test]
    fn a_probe_that_never_finishes_is_dropped_at_the_deadline() {
        let mut stuck = None;
        let (reply, c, _, faults) = run(2, config(1, 0, 50), |spawned, _| {
            answer(next(spawned));
            stuck = Some(next(spawned));
        });
        drop(stuck);
        let half = Coverage {
            answered: 1,
            consulted: 2,
        };
        assert_eq!((reply.coverage, reply.tags[0].shard), (half, 0));
        assert_eq!(c.timeouts.into_inner(), 1);
        assert_eq!(faults, 0, "the dropped probe was never taken");
    }

    #[test]
    fn latency_is_recorded_at_the_attempts_own_completion() {
        const SLOW: Duration = Duration::from_millis(200);
        let (reply, _, health, _) = run(2, config(1, 0, 0), |spawned, _| {
            answer(next(spawned));
            let slow = next(spawned);
            std::thread::sleep(SLOW);
            answer(slow);
        });
        assert_eq!(reply.coverage, Coverage::full(2));
        // The caller takes shard 0's answer only once shard 1 finishes,
        // yet shard 0 must be recorded at its own, earlier, completion.
        let mark = DecayedHistogram::default();
        mark.record(SLOW / 2);
        let bucket = |h: &DecayedHistogram| h.snapshot().buckets[0].0;
        assert!(bucket(&health[0].latency) < bucket(&mark));
        assert!(bucket(&health[1].latency) > bucket(&mark));
    }
}
