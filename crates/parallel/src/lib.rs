//! Deterministic thread-parallel primitives for the PQS-DA kernels.
//!
//! Everything here is *row parallel*: work is split into disjoint index
//! ranges, each range is computed by exactly one executor, and the
//! per-index arithmetic is identical to the sequential code (same reduction
//! order within a row). That makes every parallel result bit-identical to
//! the serial result for any thread count — the scheduler only decides
//! *who* computes a row, never *how*.
//!
//! Execution runs on the persistent [`WorkerPool`] (see [`pool`]): workers
//! are spawned once per process and parked between regions, so a parallel
//! region costs condvar wakeups, not thread spawns. The pool never
//! oversubscribes the hardware — on a single-core host every region runs
//! inline at its serial cost.
//!
//! Thread-count resolution: kernels take `threads: usize` where `0` means
//! "auto" — the `PQSDA_THREADS` environment variable if set, otherwise
//! [`std::thread::available_parallelism`]. Small inputs are kept serial via
//! [`effective_threads`] work gates so dispatch overhead never dominates
//! tiny problems.

use std::sync::{Barrier, OnceLock};

mod pool;
mod task;

pub use pool::{hardware_threads, Job, WorkerPool};
pub use task::{
    spawn_cancellable, CancelToken, Completion, Deadline, SlotSeen, TaskHandle, TaskPanic, TaskPoll,
};

/// Resolves the process-wide "auto" thread count: `PQSDA_THREADS` if set to a
/// positive integer, else available parallelism, else 1. Cached after first
/// use (explicit `threads` arguments bypass this entirely).
pub fn max_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("PQSDA_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(hardware_threads)
    })
}

/// Clamps a requested thread count (`0` = auto) by the amount of work: never
/// more threads than `work / min_work_per_thread`, never fewer than 1. This
/// is the gate that keeps tiny inputs on the serial path.
pub fn effective_threads(requested: usize, work: usize, min_work_per_thread: usize) -> usize {
    let req = if requested == 0 {
        max_threads()
    } else {
        requested
    };
    let by_work = work.checked_div(min_work_per_thread).unwrap_or(req);
    req.min(by_work).max(1)
}

/// Splits `0..len` into `threads` contiguous ranges of near-equal size.
/// Public so callers can pre-compute work partitions that must align with
/// other structures (e.g. CSR row boundaries).
pub fn split_even(len: usize, threads: usize) -> Vec<(usize, usize)> {
    ranges(len, threads)
}

/// Splits `0..len` into `threads` contiguous ranges of near-equal size.
fn ranges(len: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = threads.min(len).max(1);
    (0..threads).map(|k| span(len, threads, k)).collect()
}

/// The `k`-th of `parts` contiguous near-equal ranges of `0..len`, the
/// first `len % parts` one longer than the rest (so the last ones are
/// empty when `len < parts`).
fn span(len: usize, parts: usize, k: usize) -> (usize, usize) {
    let (base, extra) = (len / parts, len % parts);
    let start = k * base + k.min(extra);
    (start, start + base + usize::from(k < extra))
}

/// Runs `f(offset, chunk)` over disjoint contiguous chunks of `data`, one
/// chunk per logical thread, on the global [`WorkerPool`]. `offset` is the
/// index of `chunk[0]` in `data`. With `threads <= 1` this degenerates to a
/// single call on the whole slice — same arithmetic, no dispatch.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    for_each_chunk_mut_on(WorkerPool::global(), data, threads, f);
}

/// [`for_each_chunk_mut`] on an explicit pool.
pub fn for_each_chunk_mut_on<T, F>(pool: &WorkerPool, data: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = data.len();
    let threads = threads.min(len).max(1);
    if threads <= 1 {
        f(0, data);
        return;
    }
    let spans = ranges(len, threads);
    let mut jobs: Vec<Job<'_>> = Vec::with_capacity(spans.len());
    let mut rest = data;
    let mut consumed = 0;
    let f = &f;
    for &(start, end) in &spans {
        let (chunk, tail) = rest.split_at_mut(end - consumed);
        rest = tail;
        consumed = end;
        debug_assert_eq!(start + chunk.len(), end);
        jobs.push(Box::new(move || f(start, chunk)));
    }
    pool.run(jobs);
}

/// Runs `f(part_index, part)` over the parts of `data` delimited by
/// `bounds` (ascending split points: `bounds[0] == 0`, last == `data.len()`),
/// one job per part. Used when parts must align with an external
/// structure, e.g. CSR value ranges cut at row boundaries.
///
/// # Panics
/// Panics if `bounds` is not an ascending cover of `data`.
pub fn for_each_part_mut<T, F>(data: &mut [T], bounds: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(
        bounds.first() == Some(&0) && bounds.last() == Some(&data.len()),
        "for_each_part_mut: bounds must cover the slice"
    );
    if bounds.len() == 2 {
        f(0, data);
        return;
    }
    let mut jobs: Vec<Job<'_>> = Vec::with_capacity(bounds.len() - 1);
    let mut rest = data;
    let mut consumed = 0;
    let f = &f;
    for (k, w) in bounds.windows(2).enumerate() {
        assert!(w[0] <= w[1], "for_each_part_mut: bounds must be ascending");
        let (part, tail) = rest.split_at_mut(w[1] - consumed);
        rest = tail;
        consumed = w[1];
        jobs.push(Box::new(move || f(k, part)));
    }
    WorkerPool::global().run(jobs);
}

/// Maps `0..len` through `f`, preserving index order in the output. Each
/// job fills a contiguous range, so the result is identical to
/// `(0..len).map(f).collect()` for any thread count.
pub fn map_indexed<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_indexed_on(WorkerPool::global(), len, threads, f)
}

/// [`map_indexed`] on an explicit pool.
pub fn map_indexed_on<T, F>(pool: &WorkerPool, len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.min(len).max(1);
    if threads <= 1 {
        return (0..len).map(f).collect();
    }
    let spans = ranges(len, threads);
    let mut parts: Vec<Vec<T>> = spans.iter().map(|_| Vec::new()).collect();
    {
        let f = &f;
        let jobs: Vec<Job<'_>> = parts
            .iter_mut()
            .zip(&spans)
            .map(|(slot, &(start, end))| {
                Box::new(move || *slot = (start..end).map(f).collect::<Vec<T>>()) as Job<'_>
            })
            .collect();
        pool.run(jobs);
    }
    let mut out = Vec::with_capacity(len);
    for part in parts.iter_mut() {
        out.append(part);
    }
    out
}

/// Raw-pointer wrapper so pool jobs can share buffers they write disjoint
/// ranges of. All aliasing discipline lives in [`sweep_region`].
#[derive(Clone, Copy)]
struct SharedBuf(*mut f64);
// SAFETY: the one field is a pointer into an `f64` buffer borrowed mutably
// for the whole region; `sweep_region` only dereferences it for disjoint
// writes or barrier-ordered reads, and `f64` itself is `Send + Sync`.
unsafe impl Send for SharedBuf {}
// SAFETY: as for `Send` above.
unsafe impl Sync for SharedBuf {}

/// Runs `iterations` Jacobi-style sweeps of `next[i] = f(i, &cur)` with
/// double buffering, leaving the final iterate in `cur` (as the serial
/// swap-per-sweep loop would). One parallel region spans all iterations:
/// the participants are pool executors separated per sweep by a [`Barrier`],
/// so per-sweep cost is a barrier wait rather than a thread spawn.
///
/// Each participant owns a fixed disjoint index range of the destination
/// buffer and only reads the (fully written, barrier-separated) source
/// buffer, so results are bit-identical to the serial loop for any thread
/// count.
pub fn sweep_iterate<F>(cur: &mut [f64], next: &mut [f64], iterations: usize, threads: usize, f: F)
where
    F: Fn(usize, &[f64]) -> f64 + Sync,
{
    sweep_iterate_on(WorkerPool::global(), cur, next, iterations, threads, f);
}

/// [`sweep_iterate`] on an explicit pool. The participant count is clamped
/// to the pool's [`WorkerPool::parallelism`] — a barrier region needs every
/// participant running concurrently, so it can never exceed the executors —
/// and falls back to the serial loop when the pool declines (busy/nested).
pub fn sweep_iterate_on<F>(
    pool: &WorkerPool,
    cur: &mut [f64],
    next: &mut [f64],
    iterations: usize,
    threads: usize,
    f: F,
) where
    F: Fn(usize, &[f64]) -> f64 + Sync,
{
    // No stage: the stage function is never called.
    sweep_region(
        pool,
        cur,
        next,
        &mut [],
        iterations,
        threads,
        |_, _, _| {},
        |i, src, _| f(i, src),
    );
}

/// Two-phase [`sweep_iterate`]: every sweep first fills the intermediate
/// buffer `stage` from `cur`, then `next[i] = f(i, &stage)` for all `i`.
/// Use it when a sweep's per-index work shares a subexpression across
/// indices — computing it once per sweep in `stage` instead of once per
/// reader. The stage is filled chunk by chunk: `g(offset, chunk, &cur)`
/// must write every `chunk[k]` as a function of `offset + k` and `cur`
/// alone, so that any split gives the same values; a chunk lets `g` work
/// on several indices at once. Both phases split their indices across the
/// same participants, with a barrier between the phases and after each
/// sweep, so results are bit-identical to the serial loop for any thread
/// count. `stage` holds the last sweep's intermediate values on return.
pub fn sweep_iterate_staged<G, F>(
    cur: &mut [f64],
    next: &mut [f64],
    stage: &mut [f64],
    iterations: usize,
    threads: usize,
    g: G,
    f: F,
) where
    G: Fn(usize, &mut [f64], &[f64]) + Sync,
    F: Fn(usize, &[f64]) -> f64 + Sync,
{
    sweep_region(
        WorkerPool::global(),
        cur,
        next,
        stage,
        iterations,
        threads,
        g,
        |i, _, stage| f(i, stage),
    );
}

/// The one barrier region behind [`sweep_iterate_on`] and
/// [`sweep_iterate_staged`]: per sweep, `g(offset, chunk, src)` over each
/// participant's chunk of `stage` (skipped, barrier included, when `stage`
/// is empty), then `dst[i] = f(i, src, stage)`.
#[allow(clippy::too_many_arguments)]
fn sweep_region<G, F>(
    pool: &WorkerPool,
    cur: &mut [f64],
    next: &mut [f64],
    stage: &mut [f64],
    iterations: usize,
    threads: usize,
    g: G,
    f: F,
) where
    G: Fn(usize, &mut [f64], &[f64]) + Sync,
    F: Fn(usize, &[f64], &[f64]) -> f64 + Sync,
{
    assert_eq!(cur.len(), next.len(), "sweep buffers must match");
    let len = cur.len();
    if iterations == 0 || len == 0 {
        return;
    }
    let participants = threads.min(pool.parallelism()).min(len).max(1);
    let serial = |cur: &mut [f64], next: &mut [f64], stage: &mut [f64]| {
        for _ in 0..iterations {
            if !stage.is_empty() {
                g(0, stage, cur);
            }
            for (i, slot) in next.iter_mut().enumerate() {
                *slot = f(i, cur, stage);
            }
            cur.swap_with_slice(next);
        }
    };
    if participants <= 1 {
        serial(cur, next, stage);
        return;
    }

    let a = SharedBuf(cur.as_mut_ptr());
    let b = SharedBuf(next.as_mut_ptr());
    let mid = SharedBuf(stage.as_mut_ptr());
    let mid_len = stage.len();
    let barrier = Barrier::new(participants);
    let jobs: Vec<Job<'_>> = (0..participants)
        .map(|k| {
            let (start, end) = span(len, participants, k);
            let (mid_start, mid_end) = span(mid_len, participants, k);
            let barrier = &barrier;
            let (g, f) = (&g, &f);
            Box::new(move || {
                let mid = mid; // capture the whole `Send` wrapper, not its field
                for sweep in 0..iterations {
                    let (src, dst) = if sweep % 2 == 0 { (a, b) } else { (b, a) };
                    // SAFETY: `src` was fully written by the previous sweep
                    // (or is the caller's initial buffer) and no participant
                    // writes it during this sweep. Each phase writes only
                    // this participant's own range of its output (`stage`,
                    // then `dst`), and every phase's output is read only
                    // after a barrier: the stage barrier orders the stage
                    // writes before any read of `stage`, and the sweep
                    // barrier keeps the next sweep's stage writes and
                    // `dst` reads from overlapping this sweep's. All
                    // participants run at once (`run_concurrent`).
                    unsafe {
                        let src = std::slice::from_raw_parts(src.0, len);
                        if mid_len > 0 {
                            let chunk = std::slice::from_raw_parts_mut(
                                mid.0.add(mid_start),
                                mid_end - mid_start,
                            );
                            g(mid_start, chunk, src);
                            barrier.wait();
                        }
                        let stage = std::slice::from_raw_parts(mid.0, mid_len);
                        for i in start..end {
                            *dst.0.add(i) = f(i, src, stage);
                        }
                    }
                    barrier.wait();
                }
            }) as Job<'_>
        })
        .collect();
    if !pool.run_concurrent(jobs) {
        serial(cur, next, stage);
        return;
    }
    if iterations % 2 == 1 {
        // Final iterate landed in `next`; mirror the serial loop's invariant
        // that `cur` holds the latest sweep.
        cur.swap_with_slice(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_exactly() {
        for len in [0usize, 1, 5, 16, 17, 1000] {
            for threads in [1usize, 2, 3, 8] {
                let spans = ranges(len, threads);
                let mut expect = 0;
                for &(s, e) in &spans {
                    assert_eq!(s, expect);
                    assert!(e >= s);
                    expect = e;
                }
                assert_eq!(expect, len);
            }
        }
    }

    #[test]
    fn effective_threads_gates_small_work() {
        assert_eq!(effective_threads(8, 100, 1000), 1);
        assert_eq!(effective_threads(8, 8000, 1000), 8);
        assert_eq!(effective_threads(8, 4000, 1000), 4);
        assert_eq!(effective_threads(1, usize::MAX, 1), 1);
        assert!(effective_threads(0, usize::MAX, 1) >= 1);
    }

    #[test]
    fn chunked_map_matches_serial() {
        let f = |i: usize| (i as f64).sqrt() * 3.0 + i as f64;
        for threads in [1usize, 2, 3, 8] {
            let par = map_indexed(103, threads, f);
            let ser: Vec<f64> = (0..103).map(f).collect();
            assert_eq!(par, ser, "threads={threads}");
        }
    }

    #[test]
    fn map_indexed_on_explicit_pool_matches_serial() {
        // A 3-worker pool exists regardless of host core count, so this
        // crosses real threads even on 1-core CI.
        let pool = WorkerPool::new(3);
        let f = |i: usize| (i as f64).sqrt() * 3.0 + i as f64;
        let ser: Vec<f64> = (0..103).map(f).collect();
        for threads in [1usize, 2, 3, 4, 9] {
            assert_eq!(
                map_indexed_on(&pool, 103, threads, f),
                ser,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn for_each_chunk_writes_all_offsets() {
        for threads in [1usize, 2, 4, 7] {
            let mut data = vec![0usize; 57];
            for_each_chunk_mut(&mut data, threads, |offset, chunk| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = offset + k;
                }
            });
            let expect: Vec<usize> = (0..57).collect();
            assert_eq!(data, expect, "threads={threads}");
        }
    }

    #[test]
    fn for_each_chunk_on_explicit_pool_crosses_threads() {
        // A 3-worker pool exists regardless of host core count, so this
        // exercises real cross-thread chunk execution even on 1-core CI.
        let pool = WorkerPool::new(3);
        for threads in [2usize, 3, 4, 9] {
            let mut data = vec![0usize; 41];
            for_each_chunk_mut_on(&pool, &mut data, threads, |offset, chunk| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = offset + k;
                }
            });
            let expect: Vec<usize> = (0..41).collect();
            assert_eq!(data, expect, "threads={threads}");
        }
    }

    #[test]
    fn sweep_iterate_bit_identical_across_thread_counts() {
        // next[i] = 0.5 * cur[(i+1) % n] + 1.0 — a toy contraction whose
        // fixed point all thread counts must hit with identical bits.
        let n = 129;
        let f = |i: usize, cur: &[f64]| 0.5 * cur[(i + 1) % n] + 1.0;
        for iterations in [0usize, 1, 2, 7, 20] {
            let mut reference: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let mut scratch = vec![0.0; n];
            sweep_iterate(&mut reference, &mut scratch, iterations, 1, f);
            for threads in [2usize, 3, 8] {
                let mut cur: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let mut next = vec![0.0; n];
                sweep_iterate(&mut cur, &mut next, iterations, threads, f);
                assert_eq!(cur, reference, "threads={threads} iters={iterations}");
            }
        }
    }

    #[test]
    fn spans_cover_lengths_shorter_than_parts() {
        for len in [0usize, 1, 3] {
            let spans: Vec<_> = (0..8).map(|k| span(len, 8, k)).collect();
            assert_eq!(spans[0].0, 0);
            assert_eq!(spans[7].1, len);
            assert!(spans.windows(2).all(|w| w[0].1 == w[1].0));
        }
    }

    /// Serial two-phase reference: `stage = g(cur)`, then `next = f(stage)`.
    fn staged_reference(
        init: &[f64],
        stage_len: usize,
        iterations: usize,
        g: impl Fn(usize, &[f64]) -> f64,
        f: impl Fn(usize, &[f64]) -> f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut cur = init.to_vec();
        let mut stage = vec![0.0; stage_len];
        for _ in 0..iterations {
            stage = (0..stage_len).map(|k| g(k, &cur)).collect();
            cur = (0..cur.len()).map(|i| f(i, &stage)).collect();
        }
        (cur, stage)
    }

    #[test]
    fn staged_sweep_bit_identical_across_thread_counts() {
        // Stage shorter and longer than the state vector, and shorter than
        // the participant count, so some participants own no stage rows.
        let n = 61;
        let init: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25).collect();
        let pool = WorkerPool::new(3);
        for stage_len in [2usize, 29, 3 * n] {
            let g = |k: usize, cur: &[f64]| 0.5 * cur[(k * 7) % n] + (k as f64).cos() * 1e-2;
            let f = |i: usize, st: &[f64]| 1.0 + 0.9 * st[(i + 1) % stage_len];
            let fill = |offset: usize, chunk: &mut [f64], cur: &[f64]| {
                for (k, slot) in (offset..).zip(chunk) {
                    *slot = g(k, cur);
                }
            };
            for iterations in [0usize, 1, 2, 5, 20] {
                let (want, want_stage) = staged_reference(&init, stage_len, iterations, g, f);
                for threads in [1usize, 2, 3, 4, 16] {
                    let mut cur = init.clone();
                    let mut next = vec![0.0; n];
                    let mut stage = vec![0.0; stage_len];
                    sweep_region(
                        &pool,
                        &mut cur,
                        &mut next,
                        &mut stage,
                        iterations,
                        threads,
                        fill,
                        |i, _, st| f(i, st),
                    );
                    let tag = format!("stage {stage_len} threads {threads} iters {iterations}");
                    assert_eq!(cur, want, "{tag}");
                    assert_eq!(stage, want_stage, "{tag}");
                    let mut cur = init.clone();
                    let mut next = vec![0.0; n];
                    let mut stage = vec![0.0; stage_len];
                    sweep_iterate_staged(
                        &mut cur, &mut next, &mut stage, iterations, threads, fill, f,
                    );
                    assert_eq!(cur, want, "global pool, {tag}");
                }
            }
        }
    }

    #[test]
    fn sweep_iterate_on_explicit_pool_matches_serial_bitwise() {
        let pool = WorkerPool::new(3);
        let n = 97;
        let f = |i: usize, cur: &[f64]| 0.25 * cur[(i + 3) % n] + (i as f64).sin() * 1e-3;
        for iterations in [1usize, 2, 5, 8] {
            let mut reference: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5).collect();
            let mut scratch = vec![0.0; n];
            sweep_iterate_on(&pool, &mut reference, &mut scratch, iterations, 1, f);
            for threads in [2usize, 3, 4, 16] {
                let mut cur: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5).collect();
                let mut next = vec![0.0; n];
                sweep_iterate_on(&pool, &mut cur, &mut next, iterations, threads, f);
                assert_eq!(cur, reference, "threads={threads} iters={iterations}");
            }
        }
    }
}
