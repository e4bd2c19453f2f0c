//! Timing of one operation on a workload's basis.

use crate::cpu::process_cpu_ns;
use crate::kernel::{RefKernel, REF_NOMINAL_MS};
use crate::stats::median;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// How a workload's operations are timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Basis {
    /// Each operation is followed by the reference kernel and reported
    /// as `op_ms × REF_NOMINAL_MS / ref_ms`.
    HostNormalized,
    /// Plain wall clock.
    Wall,
}

impl Basis {
    /// The name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Basis::HostNormalized => "host-normalized",
            Basis::Wall => "wall",
        }
    }
}

/// One timed operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// Raw wall time (ms).
    pub wall_ms: f64,
    /// Raw process CPU time over all threads (ms).
    pub cpu_ms: f64,
    /// The reference reading taken right after the operation: its
    /// fan-out and index in that fan-out's readings (`None` on the wall
    /// basis).
    pub ref_index: Option<(Fanout, usize)>,
}

/// Reference readings on either side of an operation's own reading that
/// its yardstick takes the median of. One reading (≈0.6 ms) is itself
/// noisy — ≈10 % interquartile range within a run — while the drift it
/// corrects moves over seconds, so a median of 21 adjacent readings
/// tracks the drift without adding per-reading noise.
pub const REF_WINDOW: usize = 10;

/// A second thread running its own copy of the reference kernel on
/// request, so operations that fan out over two threads are measured
/// against a yardstick that also needs two CPUs: losing a vCPU to a
/// neighbour slows both alike, while a single-threaded kernel would
/// simply move to the free vCPU.
struct Helper {
    go: Sender<bool>,
    done: Receiver<f64>,
    thread: Option<JoinHandle<()>>,
}

impl Helper {
    fn spawn() -> Helper {
        let (go, go_rx) = channel::<bool>();
        let (done_tx, done) = channel();
        let thread = std::thread::spawn(move || {
            let mut kernel = RefKernel::new();
            while let Ok(true) = go_rx.recv() {
                if done_tx.send(kernel.measure_ms()).is_err() {
                    break;
                }
            }
        });
        Helper {
            go,
            done,
            thread: Some(thread),
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        let _ = self.go.send(false);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Which yardstick an operation is measured against: one copy of the
/// reference kernel, or two running concurrently on two threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Fanout {
    /// One thread (world generation, server builds, saves, restarts).
    #[default]
    Serial,
    /// Suggest requests, whose probes run on two threads, and swaps,
    /// whose medians spread less across seeds against this yardstick
    /// (3 % against 7 % on `ingest_pers_k10`).
    Parallel,
}

/// Times operations and keeps the reference-kernel readings.
pub struct Meter {
    basis: Basis,
    kernel: Option<RefKernel>,
    helper: Option<Helper>,
    /// Every single-kernel reference reading, in order.
    pub ref_ms: Vec<f64>,
    /// Every two-kernel reference reading, in order.
    pub ref2_ms: Vec<f64>,
}

impl Meter {
    /// A meter on `basis` (builds the reference kernel when normalizing).
    pub fn new(basis: Basis) -> Self {
        Meter {
            basis,
            kernel: (basis == Basis::HostNormalized).then(RefKernel::new),
            helper: (basis == Basis::HostNormalized).then(Helper::spawn),
            ref_ms: Vec::new(),
            ref2_ms: Vec::new(),
        }
    }

    /// The basis.
    pub fn basis(&self) -> Basis {
        self.basis
    }

    /// Runs `op` once: CPU is sampled just outside the timed window, and
    /// on the normalized basis the reference kernel runs afterwards, with
    /// nothing of the operation in flight.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, Sample) {
        self.time_on(Fanout::Serial, op)
    }

    /// [`Meter::time`] for an operation with the given fan-out: the
    /// reading is the slower of the concurrent kernel copies.
    pub fn time_on<T>(&mut self, fanout: Fanout, op: impl FnOnce() -> T) -> (T, Sample) {
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let out = op();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cpu1 = process_cpu_ns();
        let helper = self.helper.as_ref().filter(|_| fanout == Fanout::Parallel);
        let ref_index = self.kernel.as_mut().map(|k| {
            let started = helper.is_some_and(|h| h.go.send(true).is_ok());
            let mut r = k.measure_ms();
            if started {
                let other = helper.and_then(|h| h.done.recv().ok());
                r = r.max(other.expect("the reference helper thread answers"));
            }
            let readings = match fanout {
                Fanout::Serial => &mut self.ref_ms,
                Fanout::Parallel => &mut self.ref2_ms,
            };
            readings.push(r);
            (fanout, readings.len() - 1)
        });
        let sample = Sample {
            wall_ms,
            cpu_ms: cpu1.saturating_sub(cpu0) as f64 / 1e6,
            ref_index,
        };
        (out, sample)
    }

    /// Scale from raw to reported time for `s`: `REF_NOMINAL_MS` over the
    /// median reading of its [`REF_WINDOW`] neighbourhood among readings
    /// of the same fan-out (1 on the wall basis).
    pub fn factor(&self, s: &Sample) -> f64 {
        let Some((fanout, i)) = s.ref_index else {
            return 1.0;
        };
        let readings = match fanout {
            Fanout::Serial => &self.ref_ms,
            Fanout::Parallel => &self.ref2_ms,
        };
        let lo = i.saturating_sub(REF_WINDOW);
        let hi = (i + REF_WINDOW + 1).min(readings.len());
        REF_NOMINAL_MS / median(&readings[lo..hi])
    }

    /// Wall time of `s` on the workload's basis (ms).
    pub fn ms(&self, s: &Sample) -> f64 {
        s.wall_ms * self.factor(s)
    }

    /// CPU time of `s` on the workload's basis (ms).
    pub fn cpu(&self, s: &Sample) -> f64 {
        s.cpu_ms * self.factor(s)
    }
}
