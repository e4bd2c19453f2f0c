//! Cancellable, deadline-aware one-shot tasks.
//!
//! The [`WorkerPool`](crate::WorkerPool) is the wrong tool for serving
//! fan-outs that must honor a *deadline*: its dispatcher always waits for
//! every job, so one stalled shard probe would stall the whole request.
//! Tasks here invert that contract — the caller may stop waiting at any
//! instant ([`Completion::wait`] with a timeout) and walk away; the
//! abandoned task keeps running on its runner thread, sees its
//! [`CancelToken`] flip, and winds down on its own.
//!
//! Three properties the serving layer builds on:
//!
//! * **Panic isolation.** A panicking task never unwinds into the caller:
//!   the payload is caught on the runner and surfaced as a
//!   [`TaskPanic`] value from [`TaskHandle::try_take`].
//! * **Cooperative cancellation.** [`TaskHandle::cancel`] flips a shared
//!   flag; long waits inside a task should go through
//!   [`CancelToken::sleep`] (or poll [`CancelToken::is_cancelled`]) so an
//!   abandoned task releases its runner quickly instead of sleeping out a
//!   fault-injected latency.
//! * **Thread reuse without unbounded growth.** Finished runners park on
//!   an idle stack (up to a fixed cap) and are handed the next task by a
//!   condvar wakeup; past the cap a burst spawns plain threads that exit
//!   when done, so a latency spike can never accumulate parked threads.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::hardware_threads;

/// Shared cancellation flag between a task and whoever spawned it.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Cooperative: the task must check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Sleeps for `total`, waking early if cancelled. Returns `true` when
    /// the full duration elapsed, `false` on cancellation. Sleeps in short
    /// slices so a cancelled task frees its runner within milliseconds.
    pub fn sleep(&self, total: Duration) -> bool {
        const SLICE: Duration = Duration::from_millis(2);
        let end = Instant::now() + total;
        loop {
            if self.is_cancelled() {
                return false;
            }
            let now = Instant::now();
            if now >= end {
                return true;
            }
            std::thread::sleep(SLICE.min(end - now));
        }
    }
}

/// A request-scoped deadline: one absolute instant threaded from the
/// serving front door down through admission control, shard probes and
/// load generators, so every layer answers "how much budget is left?"
/// against the same clock instead of re-deriving it from durations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Deadline {
            at: Instant::now() + budget,
        }
    }

    /// A deadline `ms` milliseconds from now.
    pub fn in_ms(ms: u64) -> Self {
        Deadline::after(Duration::from_millis(ms))
    }

    /// A deadline at an explicit instant.
    pub fn at(at: Instant) -> Self {
        Deadline { at }
    }

    /// The absolute instant this deadline expires.
    pub fn instant(&self) -> Instant {
        self.at
    }

    /// Time left before expiry (zero once past it).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// Microseconds left before expiry (zero once past it).
    pub fn remaining_us(&self) -> u64 {
        self.remaining().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// The earlier of this deadline and `other`.
    pub fn min(self, other: Deadline) -> Deadline {
        Deadline {
            at: self.at.min(other.at),
        }
    }
}

/// A task panicked; the payload's message, when it carried one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanic {
    /// Human-readable panic message (`"<non-string panic>"` otherwise).
    pub message: String,
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_owned()
    }
}

/// Result of polling a task: its value (or caught panic), or not yet.
#[derive(Debug)]
pub enum TaskPoll<T> {
    /// The task finished; the result has been *taken* (later polls return
    /// [`TaskPoll::Pending`] — poll until you consume, then stop).
    Ready(Result<T, TaskPanic>),
    /// Still running (or already consumed).
    Pending,
}

type TaskCell<T> = Mutex<Option<Result<T, TaskPanic>>>;

/// Handle to one spawned task. Dropping it abandons the task (it still
/// runs to completion; cancel first to wind it down early).
pub struct TaskHandle<T> {
    cell: Arc<TaskCell<T>>,
    token: CancelToken,
}

impl<T> TaskHandle<T> {
    /// The task's cancellation token (shared with the running closure).
    pub fn token(&self) -> CancelToken {
        self.token.clone()
    }

    /// Requests cooperative cancellation.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Takes the result if the task has finished; never blocks. To block
    /// until tasks finish, spawn them on a [`Completion`].
    pub fn try_take(&self) -> TaskPoll<T> {
        match self.cell.lock().expect("task slot").take() {
            Some(result) => TaskPoll::Ready(result),
            None => TaskPoll::Pending,
        }
    }
}

/// The waiter's account of one [`Completion`] slot, published by
/// [`Completion::wait`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotSeen {
    /// Whether the waiter still waits on this slot.
    pub open: bool,
    /// Results of this slot's attempts the waiter has taken.
    pub taken: u32,
    /// How many of those taken results were faults.
    pub faults: u32,
}

struct Tally {
    /// Per slot: attempts finished, and how many of them faulted.
    finished: Vec<(u32, u32)>,
    /// The waiter's view, as of its latest `wait`.
    seen: Vec<SlotSeen>,
    /// The waiter is blocked in `wait`.
    parked: bool,
    /// Wake-ups of the waiter that found the rule unmet.
    idle_wakes: u32,
}

impl Tally {
    /// The wake rule: some open slot has an untaken fault, or every open
    /// slot has an untaken finished attempt.
    fn due(&self) -> bool {
        let mut all_finished = true;
        for (&(done, faulted), seen) in self.finished.iter().zip(&self.seen) {
            if seen.open {
                if faulted > seen.faults {
                    return true;
                }
                all_finished &= done > seen.taken;
            }
        }
        all_finished
    }
}

/// A completion signal shared by the attempts of one fan-out: a
/// mutex-guarded tally of finished attempts per slot plus a condvar the
/// waiter blocks on.
///
/// Every attempt spawned through [`Completion::spawn`] reports here once
/// its result is stored, success or fault. The waiter is woken only when
/// [`Completion::wait`]'s rule is met — an attempt faulted, or every slot
/// it still waits on has a finished attempt — so a healthy fan-out costs
/// the waiter one wake, however its attempts interleave. Counts are exact
/// (a result taken before its attempt reported balances out when the
/// report lands), so no wake is lost and none repeats.
pub struct Completion {
    tally: Mutex<Tally>,
    wake: Condvar,
}

impl Completion {
    /// A signal over `slots` slots, none finished.
    pub fn new(slots: usize) -> Self {
        Completion {
            tally: Mutex::new(Tally {
                finished: vec![(0, 0); slots],
                seen: vec![SlotSeen::default(); slots],
                parked: false,
                idle_wakes: 0,
            }),
            wake: Condvar::new(),
        }
    }

    /// Spawns `f` as a cancellable task (see [`spawn_cancellable`]) that
    /// reports to this signal under `slot` when it finishes. A panic or an
    /// `Err` value counts as a fault.
    pub fn spawn<A, E, F>(self: &Arc<Self>, slot: usize, f: F) -> TaskHandle<Result<A, E>>
    where
        A: Send + 'static,
        E: Send + 'static,
        F: FnOnce(&CancelToken) -> Result<A, E> + Send + 'static,
    {
        let signal = Arc::clone(self);
        spawn_reporting(f, move |result| {
            let fault = !matches!(result, Ok(Ok(_)));
            move || signal.finish(slot, fault)
        })
    }

    fn finish(&self, slot: usize, fault: bool) {
        let mut tally = self.tally.lock().expect("completion tally");
        let (done, faulted) = &mut tally.finished[slot];
        *done += 1;
        *faulted += u32::from(fault);
        // Only the attempt that meets the rule wakes the waiter; nobody
        // is notified while it is not parked.
        if tally.parked && tally.due() {
            tally.parked = false;
            self.wake.notify_one();
        }
    }

    /// Blocks until some open slot of `seen` has an untaken fault, every
    /// open slot has an untaken finished attempt, or `until` passes.
    /// Returns `false` on the timeout. `seen` has one entry per slot.
    pub fn wait(&self, seen: &[SlotSeen], until: Option<Instant>) -> bool {
        let mut tally = self.tally.lock().expect("completion tally");
        tally.seen.copy_from_slice(seen);
        let mut resumed = false;
        while !tally.due() {
            let now = Instant::now();
            if until.is_some_and(|at| now >= at) {
                tally.parked = false;
                return false;
            }
            tally.idle_wakes += u32::from(resumed);
            tally.parked = true;
            tally = match until {
                None => self.wake.wait(tally).expect("completion wait"),
                Some(at) => {
                    self.wake
                        .wait_timeout(tally, at - now)
                        .expect("completion wait")
                        .0
                }
            };
            resumed = true;
        }
        tally.parked = false;
        true
    }

    /// How often a waiter woke inside [`Completion::wait`] without the
    /// rule met or its timeout reached, and blocked again (spurious
    /// wake-ups only, since attempts notify only when the rule is met).
    pub fn idle_wakes(&self) -> u32 {
        self.tally.lock().expect("completion tally").idle_wakes
    }
}

type RunnerJob = Box<dyn FnOnce() + Send + 'static>;

struct RunnerSlot {
    job: Mutex<Option<RunnerJob>>,
    ready: Condvar,
}

struct RunnerPool {
    idle: Mutex<Vec<Arc<RunnerSlot>>>,
    parked_cap: usize,
}

fn runner_pool() -> &'static RunnerPool {
    static POOL: OnceLock<RunnerPool> = OnceLock::new();
    POOL.get_or_init(|| RunnerPool {
        idle: Mutex::new(Vec::new()),
        // Enough parked runners for a few concurrent hedged fan-outs; a
        // burst beyond this spawns ephemeral threads instead of parking.
        parked_cap: (hardware_threads() * 2).clamp(4, 32),
    })
}

impl RunnerPool {
    fn submit(&self, job: RunnerJob) {
        let reused = self.idle.lock().expect("runner idle stack").pop();
        match reused {
            Some(slot) => {
                *slot.job.lock().expect("runner job slot") = Some(job);
                slot.ready.notify_one();
            }
            None => {
                std::thread::Builder::new()
                    .name("pqsda-task".into())
                    .spawn(move || runner_main(runner_pool(), job))
                    .expect("spawn task runner");
            }
        }
    }
}

/// Runs the first job, then parks on the idle stack (while there is room)
/// serving handed-off jobs until the stack is full, at which point the
/// thread exits.
fn runner_main(pool: &'static RunnerPool, first: RunnerJob) {
    first();
    let slot = Arc::new(RunnerSlot {
        job: Mutex::new(None),
        ready: Condvar::new(),
    });
    loop {
        {
            let mut idle = pool.idle.lock().expect("runner idle stack");
            if idle.len() >= pool.parked_cap {
                return;
            }
            idle.push(Arc::clone(&slot));
        }
        let job = {
            let mut job = slot.job.lock().expect("runner job slot");
            loop {
                match job.take() {
                    Some(j) => break j,
                    None => job = slot.ready.wait(job).expect("runner wait"),
                }
            }
        };
        job();
    }
}

/// Spawns `f` as a cancellable background task and returns its handle.
/// The closure receives the task's [`CancelToken`] so it can observe
/// cancellation; a panic inside `f` is caught on the runner and returned
/// as [`TaskPanic`] from the handle.
pub fn spawn_cancellable<T, F>(f: F) -> TaskHandle<T>
where
    T: Send + 'static,
    F: FnOnce(&CancelToken) -> T + Send + 'static,
{
    spawn_reporting(f, |_| || ())
}

/// [`spawn_cancellable`], then `report(&result)` on the runner: it sees
/// the result before it is stored and returns what to run after.
fn spawn_reporting<T, F, R, D>(f: F, report: R) -> TaskHandle<T>
where
    T: Send + 'static,
    F: FnOnce(&CancelToken) -> T + Send + 'static,
    R: FnOnce(&Result<T, TaskPanic>) -> D + Send + 'static,
    D: FnOnce(),
{
    let token = CancelToken::new();
    let cell: Arc<TaskCell<T>> = Arc::new(Mutex::new(None));
    let job_token = token.clone();
    let job_cell = Arc::clone(&cell);
    runner_pool().submit(Box::new(move || {
        let result =
            catch_unwind(AssertUnwindSafe(|| f(&job_token))).map_err(|payload| TaskPanic {
                message: panic_message(payload.as_ref()),
            });
        let after = report(&result);
        *job_cell.lock().expect("task slot") = Some(result);
        after();
    }));
    TaskHandle { cell, token }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_budget_accounting() {
        let d = Deadline::in_ms(50);
        assert!(!d.expired());
        assert!(d.remaining() <= Duration::from_millis(50));
        assert!(d.remaining_us() > 0);
        let sooner = Deadline::in_ms(1);
        assert_eq!(d.min(sooner), sooner);
        std::thread::sleep(Duration::from_millis(3));
        assert!(sooner.expired());
        assert_eq!(sooner.remaining(), Duration::ZERO);
        assert_eq!(sooner.remaining_us(), 0);
    }

    /// One open slot per entry, nothing taken yet.
    fn open(slots: usize) -> Vec<SlotSeen> {
        vec![
            SlotSeen {
                open: true,
                ..SlotSeen::default()
            };
            slots
        ]
    }

    /// Takes a finished task's result, panicking if it is still running.
    fn take<T>(t: &TaskHandle<T>) -> Result<T, TaskPanic> {
        match t.try_take() {
            TaskPoll::Ready(result) => result,
            TaskPoll::Pending => panic!("task not finished"),
        }
    }

    #[test]
    fn wait_until_honors_the_deadline() {
        let signal = Arc::new(Completion::new(1));
        let t = signal.spawn(0, |token| {
            assert!(token.sleep(Duration::from_millis(60)));
            Ok::<_, ()>(7u32)
        });
        let until = Deadline::in_ms(5).instant();
        assert!(!signal.wait(&open(1), Some(until)), "wait must time out");
        assert!(signal.wait(&open(1), None));
        assert_eq!(take(&t).unwrap(), Ok(7));
    }

    #[test]
    fn deadline_expires_then_task_still_completes() {
        let signal = Arc::new(Completion::new(1));
        let t = signal.spawn(0, |token| {
            assert!(token.sleep(Duration::from_millis(60)));
            Ok::<_, ()>("late")
        });
        let early = Instant::now() + Duration::from_millis(5);
        assert!(!signal.wait(&open(1), Some(early)), "wait must time out");
        assert!(matches!(t.try_take(), TaskPoll::Pending));
        // The abandoned task finishes on its own; a later wait sees it.
        assert!(signal.wait(&open(1), None));
        assert_eq!(take(&t).unwrap(), Ok("late"));
    }

    #[test]
    fn task_returns_its_value() {
        let signal = Arc::new(Completion::new(1));
        let t = signal.spawn(0, |_| Ok::<_, ()>(6 * 7));
        assert!(signal.wait(&open(1), None));
        assert_eq!(take(&t).unwrap(), Ok(42));
        // A task spawned without a signal is polled.
        let plain = spawn_cancellable(|_| 6 * 7);
        let value = loop {
            if let TaskPoll::Ready(result) = plain.try_take() {
                break result;
            }
            std::thread::yield_now();
        };
        assert_eq!(value.unwrap(), 42);
    }

    #[test]
    fn panic_is_isolated_and_reported() {
        let signal = Arc::new(Completion::new(2));
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let slow = signal.spawn(0, move |_| {
            gate.recv().ok();
            Ok::<u32, ()>(1)
        });
        let t = signal.spawn(1, |_| -> Result<u32, ()> { panic!("boom 17") });
        // The fault wakes the waiter although slot 0 is still running.
        assert!(signal.wait(&open(2), None));
        let err = take(&t).unwrap_err();
        assert!(err.message.contains("boom 17"), "got {:?}", err.message);
        assert!(matches!(slow.try_take(), TaskPoll::Pending));
        release.send(()).unwrap();
    }

    #[test]
    fn an_err_value_is_a_fault_and_a_success_alone_does_not_wake() {
        let signal = Arc::new(Completion::new(2));
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let slow = signal.spawn(0, move |_| {
            gate.recv().ok();
            Ok::<u32, u32>(1)
        });
        let fast = signal.spawn(1, |_| Ok::<u32, u32>(2));
        // Slot 1 finishing while slot 0 runs does not meet the rule, and
        // does not wake the waiter either.
        let soon = Instant::now() + Duration::from_millis(30);
        assert!(!signal.wait(&open(2), Some(soon)));
        assert_eq!(signal.idle_wakes(), 0);
        assert_eq!(take(&fast).unwrap(), Ok(2));
        // Slot 1 taken and closed: the waiter now needs slot 0 only.
        let mut seen = open(2);
        seen[1] = SlotSeen {
            open: false,
            taken: 1,
            faults: 0,
        };
        release.send(()).unwrap();
        assert!(signal.wait(&seen, None));
        assert_eq!(take(&slow).unwrap(), Ok(1));
        // A typed error wakes on its own.
        let signal = Arc::new(Completion::new(2));
        let (_hold, gate) = std::sync::mpsc::channel::<()>();
        let _stuck = signal.spawn(0, move |_| {
            gate.recv().ok();
            Ok::<u32, u32>(1)
        });
        let bad = signal.spawn(1, |_| Err::<u32, u32>(9));
        assert!(signal.wait(&open(2), None));
        assert_eq!(take(&bad).unwrap(), Err(9));
    }

    #[test]
    fn cancel_cuts_a_sleep_short() {
        let signal = Arc::new(Completion::new(1));
        let t = signal.spawn(0, |token| Ok::<_, ()>(token.sleep(Duration::from_secs(30))));
        t.cancel();
        let start = Instant::now();
        assert!(signal.wait(&open(1), None));
        assert_eq!(
            take(&t).unwrap(),
            Ok(false),
            "sleep must report cancellation"
        );
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn ready_result_is_taken_once() {
        let signal = Arc::new(Completion::new(1));
        let t = signal.spawn(0, |_| Ok::<_, ()>(1u32));
        assert!(signal.wait(&open(1), None));
        assert_eq!(take(&t).unwrap(), Ok(1));
        assert!(matches!(t.try_take(), TaskPoll::Pending));
    }

    #[test]
    fn burst_of_tasks_all_complete() {
        let signal = Arc::new(Completion::new(64));
        let handles: Vec<_> = (0..64u64)
            .map(|i| signal.spawn(i as usize, move |_| Ok::<_, ()>(i * i)))
            .collect();
        assert!(signal.wait(&open(64), None));
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(take(h).unwrap(), Ok((i * i) as u64));
        }
        // Runner threads were reused/parked; another round still works.
        let signal = Arc::new(Completion::new(1));
        let t = signal.spawn(0, |_| Ok::<_, ()>("again"));
        assert!(signal.wait(&open(1), None));
        assert_eq!(take(&t).unwrap(), Ok("again"));
    }
}
