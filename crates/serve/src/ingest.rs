//! Asynchronous log ingestion: a bounded multi-producer queue feeding the
//! per-shard delta rebuilds.
//!
//! Producers call [`IngestQueue::offer`] from any thread; it never blocks.
//! When the queue is full the entry is *rejected* and counted — bounded
//! backpressure, so a slow rebuild loop can never let the queue grow
//! without limit. The (single) writer drains the queue, partitions the
//! deltas per shard and swaps rebuilt snapshots in.
//!
//! Built on `std::sync::mpsc::sync_channel`: the std bounded channel gives
//! the same non-blocking `try_send` contract a lock-free ring would.
//!
//! Deadline-aware producers use [`IngestQueue::offer_with_deadline`]: the
//! queue projects how long a new entry will wait (current depth × the
//! measured per-entry drain cost, fed back by `apply_deltas`) and sheds
//! the entry with an explicit [`IngestOffer::RejectedDeadline`] when the
//! projection exceeds the deadline's remaining budget. Every rejection —
//! capacity or deadline — records the projection it was based on in
//! [`IngestStats::last_projected_wait_us`], so shedding decisions are
//! auditable after the fact.

use pqsda_parallel::Deadline;
use pqsda_querylog::LogEntry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};

/// How one deadline-aware offer resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestOffer {
    /// The entry is queued.
    Accepted,
    /// The queue was at capacity (classic backpressure).
    RejectedFull,
    /// The projected wait exceeded the deadline's remaining budget.
    RejectedDeadline,
}

impl IngestOffer {
    /// Whether the entry was queued.
    pub fn is_accepted(&self) -> bool {
        matches!(self, IngestOffer::Accepted)
    }
}

/// Counters of one queue's lifetime (monotone; read them for stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Entries accepted into the queue.
    pub accepted: u64,
    /// Entries rejected because the queue was at capacity.
    pub rejected: u64,
    /// Entries rejected because their projected wait exceeded the offer's
    /// deadline.
    pub rejected_deadline: u64,
    /// Entries drained by the writer so far.
    pub drained: u64,
    /// The wait projection (µs) behind the most recent rejection of
    /// either kind — the audit trail for shedding decisions.
    pub last_projected_wait_us: u64,
    /// The per-entry drain-cost estimate (µs) admission projects with.
    pub service_estimate_us: u64,
}

impl IngestStats {
    /// Entries currently waiting (accepted − drained).
    pub fn depth(&self) -> u64 {
        self.accepted - self.drained
    }
}

/// The bounded ingestion queue.
pub struct IngestQueue {
    tx: SyncSender<LogEntry>,
    rx: parking_lot::Mutex<Receiver<LogEntry>>,
    accepted: AtomicU64,
    rejected: AtomicU64,
    rejected_deadline: AtomicU64,
    drained: AtomicU64,
    last_projected_wait_us: AtomicU64,
    service_estimate_us: AtomicU64,
    capacity: usize,
}

impl IngestQueue {
    /// A queue holding at most `capacity` undrained entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ingestion queue needs positive capacity");
        let (tx, rx) = sync_channel(capacity);
        IngestQueue {
            tx,
            rx: parking_lot::Mutex::new(rx),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            last_projected_wait_us: AtomicU64::new(0),
            service_estimate_us: AtomicU64::new(0),
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offers one entry; `false` means the queue was full and the entry
    /// was dropped (backpressure — the producer decides whether to retry).
    /// Never blocks.
    ///
    /// `accepted` is incremented *before* the send and compensated on
    /// rejection. The old order (send, then count) let a concurrent drain
    /// observe `drained > accepted`; this way the accepted counter is
    /// always ≥ the entries actually in flight, so `accepted − drained`
    /// can transiently over-count the depth but never go negative, and at
    /// quiescence `accepted + rejected` equals the entries offered.
    pub fn offer(&self, entry: LogEntry) -> bool {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        match self.tx.try_send(entry) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.accepted.fetch_sub(1, Ordering::Relaxed);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                // Audit even capacity rejections: the projection at the
                // decision says how far behind the drain loop was.
                self.last_projected_wait_us
                    .store(self.projected_wait_us(), Ordering::Relaxed);
                false
            }
        }
    }

    /// Deadline-aware offer: sheds the entry up front when its projected
    /// wait (depth × drain-cost estimate) exceeds the deadline's
    /// remaining budget, with an explicit [`IngestOffer::RejectedDeadline`]
    /// — never a silent drop. Without a deadline this is [`Self::offer`]
    /// with a richer return. Never blocks.
    pub fn offer_with_deadline(&self, entry: LogEntry, deadline: Option<&Deadline>) -> IngestOffer {
        if let Some(deadline) = deadline {
            let projected = self.projected_wait_us();
            if projected > deadline.remaining_us() {
                self.last_projected_wait_us
                    .store(projected, Ordering::Relaxed);
                self.rejected_deadline.fetch_add(1, Ordering::Relaxed);
                return IngestOffer::RejectedDeadline;
            }
        }
        if self.offer(entry) {
            IngestOffer::Accepted
        } else {
            IngestOffer::RejectedFull
        }
    }

    /// The wait a newly queued entry should expect (µs): current depth ×
    /// the measured per-entry drain cost. Zero until the writer has fed
    /// an estimate — a queue with an unmeasured drain never deadline-sheds.
    pub fn projected_wait_us(&self) -> u64 {
        self.stats()
            .depth()
            .saturating_mul(self.service_estimate_us.load(Ordering::Relaxed))
    }

    /// Feeds back the measured per-entry drain cost (µs). Called by the
    /// writer after each `apply_deltas` cycle so admission projects with
    /// the host's actual speed, not a config constant.
    pub fn set_service_estimate_us(&self, us: u64) {
        self.service_estimate_us.store(us, Ordering::Relaxed);
    }

    /// Drains everything currently queued, in arrival order. Called by the
    /// rebuild writer; concurrent producers keep offering while this runs
    /// (their entries land in this or the next drain).
    pub fn drain(&self) -> Vec<LogEntry> {
        self.drain_up_to(usize::MAX)
    }

    /// Drains at most `limit` entries, in arrival order — the rate-limited
    /// variant backing `ServeConfig::max_delta_entries`. Entries beyond
    /// the limit stay queued for the next cycle.
    pub fn drain_up_to(&self, limit: usize) -> Vec<LogEntry> {
        let rx = self.rx.lock();
        let mut out = Vec::new();
        while out.len() < limit {
            match rx.try_recv() {
                Ok(e) => out.push(e),
                Err(_) => break,
            }
        }
        self.drained.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// Drains one writer batch of at most `max` entries (0 = unlimited)
    /// and says how many stay queued behind the limit.
    pub fn drain_batch(&self, max: usize) -> (Vec<LogEntry>, usize) {
        let limit = if max == 0 { usize::MAX } else { max };
        let batch = self.drain_up_to(limit);
        let deferred = if batch.len() == limit {
            self.stats().depth() as usize
        } else {
            0
        };
        (batch, deferred)
    }

    /// Current counters.
    pub fn stats(&self) -> IngestStats {
        // Load drained before accepted: `offer` counts an entry accepted
        // before sending it, so accepted ≥ drained always holds and the
        // reported depth can only be conservative (never negative).
        let drained = self.drained.load(Ordering::Relaxed);
        let rejected = self.rejected.load(Ordering::Relaxed);
        let accepted = self.accepted.load(Ordering::Relaxed);
        IngestStats {
            accepted,
            rejected,
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            drained,
            last_projected_wait_us: self.last_projected_wait_us.load(Ordering::Relaxed),
            service_estimate_us: self.service_estimate_us.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqsda_querylog::UserId;
    use proptest::prelude::*;

    fn entry(i: u64) -> LogEntry {
        LogEntry::new(UserId(i as u32), format!("q{i}"), None, i)
    }

    #[test]
    fn accepts_until_capacity_then_rejects() {
        let q = IngestQueue::new(3);
        assert!(q.offer(entry(0)));
        assert!(q.offer(entry(1)));
        assert!(q.offer(entry(2)));
        assert!(!q.offer(entry(3)), "fourth offer must hit backpressure");
        let s = q.stats();
        assert_eq!((s.accepted, s.rejected, s.depth()), (3, 1, 3));
    }

    #[test]
    fn drain_returns_arrival_order_and_frees_capacity() {
        let q = IngestQueue::new(2);
        q.offer(entry(0));
        q.offer(entry(1));
        let drained = q.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].timestamp, 0);
        assert_eq!(drained[1].timestamp, 1);
        assert_eq!(q.stats().depth(), 0);
        assert!(q.offer(entry(2)), "drain must free capacity");
        assert_eq!(q.drain().len(), 1);
    }

    #[test]
    fn drain_up_to_respects_the_limit_and_keeps_the_rest() {
        let q = IngestQueue::new(8);
        for i in 0..6 {
            assert!(q.offer(entry(i)));
        }
        let first = q.drain_up_to(4);
        assert_eq!(first.len(), 4);
        assert_eq!(first[0].timestamp, 0);
        let s = q.stats();
        assert_eq!((s.drained, s.depth()), (4, 2));
        // The remainder arrives in order on the next cycle.
        let rest = q.drain_up_to(4);
        assert_eq!(rest.len(), 2);
        assert_eq!(rest[0].timestamp, 4);
        assert_eq!(q.stats().depth(), 0);
    }

    #[test]
    fn deadline_offer_sheds_explicitly_and_audits_the_projection() {
        let q = IngestQueue::new(16);
        // Unmeasured drain → projection 0 → deadline offers always pass.
        assert_eq!(
            q.offer_with_deadline(entry(0), Some(&Deadline::in_ms(0))),
            IngestOffer::Accepted
        );
        // Writer feeds back a 10 ms per-entry drain cost; with 4 queued
        // entries the projection is 40 ms.
        for i in 1..4 {
            assert!(q.offer(entry(i)));
        }
        q.set_service_estimate_us(10_000);
        assert_eq!(q.projected_wait_us(), 40_000);
        let shed = q.offer_with_deadline(entry(9), Some(&Deadline::in_ms(5)));
        assert_eq!(shed, IngestOffer::RejectedDeadline);
        assert!(!shed.is_accepted());
        let s = q.stats();
        assert_eq!(s.rejected_deadline, 1);
        assert_eq!(s.rejected, 0, "deadline sheds are counted apart");
        assert_eq!(s.last_projected_wait_us, 40_000);
        assert_eq!(s.service_estimate_us, 10_000);
        // A generous deadline is still admitted; no deadline always is.
        assert!(q
            .offer_with_deadline(entry(10), Some(&Deadline::in_ms(10_000)))
            .is_accepted());
        assert!(q.offer_with_deadline(entry(11), None).is_accepted());
        assert_eq!(q.stats().depth(), 6);
    }

    #[test]
    fn capacity_rejection_records_its_projection_too() {
        let q = IngestQueue::new(2);
        q.set_service_estimate_us(1_000);
        assert!(q.offer(entry(0)));
        assert!(q.offer(entry(1)));
        assert_eq!(
            q.offer_with_deadline(entry(2), None),
            IngestOffer::RejectedFull
        );
        let s = q.stats();
        assert_eq!(s.rejected, 1);
        assert_eq!(s.last_projected_wait_us, 2_000, "depth 2 × 1 ms estimate");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Under concurrent producers racing a concurrent drainer, the
        /// ledger must balance exactly: accepted + rejected = offered and
        /// (after a final drain) drained = accepted. The pre-fix ordering
        /// (send, then count) let a racing drain observe drained >
        /// accepted, which `stats` papered over with a `max`.
        #[test]
        fn counters_sum_to_offered_under_concurrency(
            capacity in 1usize..40,
            producers in 1u64..5,
            per_producer in 1u64..120,
        ) {
            let q = std::sync::Arc::new(IngestQueue::new(capacity));
            let offered = producers * per_producer;
            let mut produced_ok = 0u64;
            let mut drained_live = 0u64;
            std::thread::scope(|s| {
                let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
                let drainer = {
                    let q = std::sync::Arc::clone(&q);
                    let stop = std::sync::Arc::clone(&stop);
                    s.spawn(move || {
                        let mut got = 0u64;
                        while !stop.load(Ordering::Acquire) {
                            got += q.drain_up_to(3).len() as u64;
                            // Mid-drain stats may over-count depth but the
                            // ledger must never go negative or un-balance.
                            let st = q.stats();
                            assert!(st.accepted >= st.drained, "depth underflow: {st:?}");
                            std::thread::yield_now();
                        }
                        got
                    })
                };
                let handles: Vec<_> = (0..producers)
                    .map(|t| {
                        let q = std::sync::Arc::clone(&q);
                        s.spawn(move || {
                            let mut ok = 0u64;
                            for i in 0..per_producer {
                                if q.offer(entry(t * 10_000 + i)) {
                                    ok += 1;
                                }
                            }
                            ok
                        })
                    })
                    .collect();
                for h in handles {
                    produced_ok += h.join().unwrap();
                }
                stop.store(true, Ordering::Release);
                drained_live = drainer.join().unwrap();
            });
            let final_drain = q.drain().len() as u64;
            let s = q.stats();
            prop_assert_eq!(s.accepted, produced_ok);
            prop_assert_eq!(s.accepted + s.rejected, offered);
            prop_assert_eq!(s.drained, drained_live + final_drain);
            prop_assert_eq!(s.drained, s.accepted);
            prop_assert_eq!(s.depth(), 0);
        }
    }

    #[test]
    fn concurrent_producers_lose_nothing_accepted() {
        let q = std::sync::Arc::new(IngestQueue::new(64));
        let mut total_accepted = 0u64;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let q = std::sync::Arc::clone(&q);
                    s.spawn(move || {
                        let mut ok = 0u64;
                        for i in 0..100u64 {
                            if q.offer(entry(t * 1000 + i)) {
                                ok += 1;
                            }
                        }
                        ok
                    })
                })
                .collect();
            for h in handles {
                total_accepted += h.join().unwrap();
            }
        });
        let drained = q.drain().len() as u64;
        assert_eq!(drained, total_accepted, "every accepted entry is drained");
        let s = q.stats();
        assert_eq!(s.accepted, total_accepted);
        assert_eq!(s.accepted + s.rejected, 400);
    }
}
