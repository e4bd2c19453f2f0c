//! `BENCH_perf.json` emitter: times the four parallelized hot-path kernels
//! at 1 thread vs the machine's maximum and writes the comparison to the
//! repo root (or the path in `PQSDA_BENCH_OUT`).
//!
//! Kernels, at fixed sizes (Small world, seed 42):
//!
//! - `graphbuild` — the two-step transition `Pq = norm(B)·norm(Bᵀ)` over the
//!   full multi-bipartite click graph (row-normalization + SpGEMM).
//! - `hitting`    — the cross-bipartite hitting-time sweep of Eq. 17 at the
//!   serving shape (default 512-query expansion, 10 targets), with its
//!   `hitting_spmv_floor` row: `horizon` plain SpMVs over the same walk's
//!   layers, the sweep gated at ≤ 1.2× that floor (median of 101
//!   alternating pairs, the row's ratio).
//! - `miss_expand`, `miss_regularizer`, `miss_for_backend`, `miss_alg1` —
//!   the memo-miss stages at the same serving shape: compact expansion,
//!   the Eq. 15 assembly (`Regularizer::new`), the whole entry preparation
//!   (`Diversifier::for_backend`) and one k = 10 Algorithm 1 selection
//!   from a fresh `HittingTimeDiversify` (walk build plus 9 hitting-time
//!   rounds, ungated), as ratios of the assembly. The
//!   preparation is gated at ≤ 1.15× the assembly (median of 101
//!   alternating pairs, the `miss_for_backend` row's ratio): the
//!   Algorithm 1 walk is built on first use, not on the miss. The
//!   `miss_compact_products` row times the three compact `W Wᵀ` products
//!   the assembly gathers from each bipartite's Gram matrix instead, and
//!   gates the assembly at ≤ 1.4× them (same pair protocol, the row's
//!   ratio).
//! - `hit_selection` — a memo-hit `PqsDa::diversify_scored` at the same
//!   shape and k = 10, whose Algorithm 1 selection is resident in its
//!   entry, gated at ≤ 0.1× recomputing it with
//!   `Diversifier::select_global_scored` (median of 101 alternating
//!   pairs, the row's ratio).
//! - `solver`     — Jacobi on the Eq. 15 regularization system.
//! - `gibbs`      — one UPM training run (collapsed Gibbs sweeps).
//!
//! The gibbs kernel additionally reports a per-phase breakdown (session
//! resampling vs τ refits vs L-BFGS hyperparameter updates) from
//! [`Upm::train_with_stats`], so regressions can be attributed to a phase
//! rather than the whole training loop.
//!
//! Two freshness rows time the incremental-update pipeline: `delta_apply`
//! (a 1% chronological tail through `PqsDa::apply_delta`) against
//! `full_rebuild` (cold `build_from_entries` over the full log), with the
//! resulting graphs asserted digest-equal and the delta path gated at
//! ≥ 5× cheaper (median of 101 alternating pairs, the `delta_apply` row's
//! ratio).
//!
//! Two cold-start rows time the restart paths of the serving layer:
//! `cold_start_mmap` (a whole 2-shard server reassembled from a `PQSS`
//! snapshot directory through `load_server`) against `cold_start_rebuild`
//! (the same server cold-built from the log), replies asserted
//! bit-identical and the snapshot path gated at ≥ 10× cheaper (median of
//! 101 alternating pairs, the `cold_start_mmap` row's ratio).
//!
//! `gather_overhead` times a memo-hit k = 10 request through a 2-shard
//! server's deadline-bounded front door against probing the same shards
//! serially (`suggest_on`), replies asserted equal; the gather is gated
//! at ≤ 6× the serial probes (median of 101 alternating pairs, the row's
//! ratio): its caller blocks on a completion signal instead of polling.
//!
//! Every kernel is bit-identical across thread counts (asserted here, not
//! just in the test suite), so `speedup` is a pure wall-clock ratio.
//!
//! Usage: `cargo run --release -p pqsda-bench --bin perf [-- --smoke]`
//!
//! `--smoke` shrinks the time budget to the minimum and skips the JSON
//! write: it keeps every cross-thread bit-identity assertion (that is the
//! point of running it in CI) while finishing in seconds.

use pqsda::crosswalk::{CrossBipartiteWalk, HittingTimeScratch};
use pqsda::regularize::{RegularizationConfig, Regularizer};
use pqsda::{
    Diversifier, DiversifyBackend, DiversifyConfig, EngineBuildOptions, Eq15Relevance,
    HittingTimeDiversify, PqsDa, PqsDaConfig, RelevanceBackend, RelevanceKind,
};
use pqsda_baselines::SuggestRequest;
use pqsda_bench::scenario::{frontier, run_all, run_backends, ScenarioOptions};
use pqsda_bench::{ExperimentWorld, Scale};
use pqsda_graph::bipartite::{Bipartite, EntityKind};
use pqsda_graph::compact::{CompactConfig, CompactMulti};
use pqsda_graph::walk::two_step_transition_with_threads;
use pqsda_linalg::solver::Jacobi;
use pqsda_parallel::Deadline;
use pqsda_querylog::QueryId;
use pqsda_serve::store::{load_server, save_server};
use pqsda_serve::{PartitionKey, ServeConfig, ShardedPqsDa};
use pqsda_topics::{Corpus, TrainConfig, Upm, UpmConfig};
use std::time::Instant;

/// One measured configuration.
struct Row {
    bench: &'static str,
    threads: usize,
    ns_per_iter: f64,
    /// Wall-clock ratio vs this row's baseline (see `ratio_key`).
    ratio: f64,
    /// JSON key for `ratio`: `"speedup"` for the kernel rows (vs the same
    /// kernel at 1 thread), otherwise what the ratio is taken against
    /// (e.g. `"paired_over_serial"`).
    ratio_key: &'static str,
}

/// Mean ns/iter of `f`: one warmup call, then enough iterations to fill the
/// time budget (`PQSDA_BENCH_BUDGET_MS`, default 300 ms per configuration).
fn time_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    let budget_ms: u64 = std::env::var("PQSDA_BENCH_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    std::hint::black_box(f()); // warmup
    let probe = Instant::now();
    std::hint::black_box(f());
    let once_ns = probe.elapsed().as_nanos().max(1) as u64;
    let iters = (budget_ms * 1_000_000 / once_ns).clamp(1, 10_000);
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The statistic of every in-run ratio gate: `a` and `b` alternate call by
/// call, and the result is the median of the 101 adjacent-pair ratios
/// `a / b`, with that pair's two times in ns. A burst of host noise moves a
/// few pairs, not the verdict.
fn paired_median<A, B>(mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> (f64, f64, f64) {
    let mut pairs: Vec<(f64, f64, f64)> = (0..101)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(a());
            let a_ns = t.elapsed().as_nanos() as f64;
            let t = Instant::now();
            std::hint::black_box(b());
            let b_ns = t.elapsed().as_nanos().max(1) as f64;
            (a_ns / b_ns, a_ns, b_ns)
        })
        .collect();
    pairs.sort_by(|x, y| x.0.total_cmp(&y.0));
    pairs[pairs.len() / 2]
}

/// Times one kernel at each thread count; asserts outputs are identical.
fn measure<T: PartialEq>(
    bench: &'static str,
    thread_counts: &[usize],
    mut kernel: impl FnMut(usize) -> T,
) -> Vec<Row> {
    let reference = kernel(1);
    let mut rows = Vec::new();
    for &t in thread_counts {
        assert!(
            kernel(t) == reference,
            "{bench}: output at {t} threads differs from 1 thread"
        );
        let ns = time_ns(|| kernel(t));
        rows.push(Row {
            bench,
            threads: t,
            ns_per_iter: ns,
            ratio: 1.0,
            ratio_key: "speedup",
        });
        eprintln!("  {bench} @ {t} thread(s): {ns:.0} ns/iter");
    }
    let base = rows[0].ns_per_iter;
    for r in &mut rows {
        r.ratio = base / r.ns_per_iter;
    }
    rows
}

/// One gibbs-phase measurement (see `Upm::train_with_stats`).
struct PhaseRow {
    phase: &'static str,
    threads: usize,
    ns: u64,
    /// This phase's share of the training run's total wall-clock.
    share: f64,
}

/// Trains the UPM *with* hyperparameter learning at each thread count,
/// asserting the learned models are identical, and returns the per-phase
/// wall-clock split. Unlike the `gibbs` kernel rows (hyperlearning off, so
/// they time the pure sweep), this names where a full training run spends
/// its time.
fn gibbs_phase_breakdown(corpus: &Corpus, thread_counts: &[usize]) -> Vec<PhaseRow> {
    let cfg = |threads| UpmConfig {
        base: TrainConfig {
            num_topics: 5,
            iterations: 10,
            seed: 7,
            ..TrainConfig::default()
        },
        hyper_every: 5,
        hyper_iterations: 5,
        threads,
    };
    let mut rows = Vec::new();
    let mut reference: Option<Vec<Vec<f64>>> = None;
    for &t in thread_counts {
        let (upm, stats) = Upm::train_with_stats(corpus, &cfg(t));
        let betas: Vec<Vec<f64>> = (0..5).map(|k| upm.beta_k(k).to_vec()).collect();
        match &reference {
            None => reference = Some(betas),
            Some(r) => assert!(
                &betas == r,
                "gibbs phases: model at {t} threads differs from 1 thread"
            ),
        }
        let total = (stats.sample_ns + stats.tau_ns + stats.hyper_ns).max(1);
        for (phase, ns) in [
            ("sample", stats.sample_ns),
            ("tau_refit", stats.tau_ns),
            ("hyper_opt", stats.hyper_ns),
        ] {
            let share = ns as f64 / total as f64;
            eprintln!(
                "  gibbs phase {phase} @ {t} thread(s): {ns} ns ({:.1}%)",
                share * 100.0
            );
            rows.push(PhaseRow {
                phase,
                threads: t,
                ns,
                share,
            });
        }
    }
    rows
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke && std::env::var("PQSDA_BENCH_BUDGET_MS").is_err() {
        // Minimum budget: every configuration runs (and asserts
        // bit-identity) at least once, but nothing loops for wall-clock.
        std::env::set_var("PQSDA_BENCH_BUDGET_MS", "1");
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_threads = pqsda_parallel::max_threads().max(1);
    let thread_counts: Vec<usize> = if max_threads > 1 {
        vec![1, max_threads]
    } else {
        vec![1]
    };
    eprintln!("perf: {cores} core(s), measuring at threads = {thread_counts:?}");
    if cores == 1 {
        eprintln!(
            "perf: ================================================================\n\
             perf: WARNING: single-core host. Parallel regions run inline, so every\n\
             perf: speedup column will read ~1.0 — that is the host, not the code.\n\
             perf: The JSON records \"cores\": 1 so readers can discount the rows.\n\
             perf: Re-run on a multi-core machine to measure real parallel gains.\n\
             perf: ================================================================"
        );
    }

    let world = ExperimentWorld::build(Scale::Small, 42);
    let mut rows = Vec::new();

    // graphbuild: normalization + SpGEMM over the session bipartite (the
    // densest of the three), forced parallel-eligible via explicit threads.
    let session_graph = Bipartite::query_url(world.log());
    rows.extend(measure("graphbuild", &thread_counts, |t| {
        two_step_transition_with_threads(&session_graph, t)
    }));

    // hitting: Eq. 17 sweep at the serving shape — the default compact
    // expansion around one test query and an Algorithm 1 round's 10
    // targets.
    let input = world.sample_test_queries(1, 7)[0];
    let serving = CompactMulti::expand(&world.multi_weighted, &[input], &CompactConfig::default());
    let walk = CrossBipartiteWalk::uniform(&serving);
    let horizon = 20;
    let targets: Vec<usize> = (0..10).map(|k| k * serving.len() / 10).collect();
    rows.extend(measure("hitting", &thread_counts, |t| {
        walk.hitting_time_with_threads(&targets, horizon, t)
    }));
    // Ratio gate: the sweep against its floor, `horizon` plain SpMVs over
    // every layer of the same walk (one pass over each layer's nonzeros
    // per step). The sweep reads each layer once per step, carries one
    // state vector per distinct row of N (one here) and writes step 1 in
    // closed form: 1.02-1.12x on a shared 2-vCPU host. Carrying all three
    // start bipartites' vectors measured 1.33-1.37x, and re-reading every
    // layer once per start bipartite, as a per-state sweep does, ~4.2x.
    let x = vec![1.0; serving.len()];
    let mut scratch = HittingTimeScratch::default();
    let mut h = Vec::new();
    let (sweep_over_spmv, sweep_ns, spmv_ns) = paired_median(
        || walk.hitting_time_into(&targets, horizon, 1, &mut scratch, &mut h),
        || {
            for _ in 0..horizon {
                for kind in EntityKind::ALL {
                    std::hint::black_box(walk.layer(kind).mul_vec(&x));
                }
            }
        },
    );
    eprintln!(
        "  hitting vs {horizon} x 3 layer SpMVs (q {}, {} nnz): {sweep_over_spmv:.2}x",
        serving.len(),
        EntityKind::ALL
            .iter()
            .map(|&k| walk.layer(k).nnz())
            .sum::<usize>()
    );
    assert!(
        sweep_over_spmv <= 1.2,
        "hitting sweep must cost at most 1.2x its {horizon}-step SpMV floor, got \
         {sweep_over_spmv:.2}x ({sweep_ns:.0} vs {spmv_ns:.0} ns)"
    );
    rows.push(Row {
        bench: "hitting_spmv_floor",
        threads: 1,
        ns_per_iter: spmv_ns,
        ratio: sweep_over_spmv,
        ratio_key: "hitting_over_floor",
    });

    // Memo-miss attribution at the same serving shape: the expansion, the
    // Eq. 15 assembly, the whole miss-time preparation
    // (`Diversifier::for_backend`, which assembles Eq. 15 and defers the
    // Algorithm 1 walk to the first k >= 2 request), and that first k = 10
    // selection on a fresh backend (walk build plus 9 hitting-time rounds).
    // The expand and alg1 rows' ratios are their times over
    // `Regularizer::new`'s; the for_backend row carries the gated paired
    // ratio below.
    let reg_config = RegularizationConfig::default();
    let expand_ns = time_ns(|| {
        CompactMulti::expand(&world.multi_weighted, &[input], &CompactConfig::default())
    });
    let reg_ns = time_ns(|| Regularizer::new(&serving, reg_config));
    let prep_ns = time_ns(|| {
        Diversifier::for_backend(&serving, DiversifyConfig::default(), RelevanceKind::Eq15)
    });
    let input_local = serving.local(input).expect("input is a seed");
    let (first, f_star) = Eq15Relevance::new(Regularizer::new(&serving, reg_config))
        .relevance(input_local, &[])
        .expect("the serving compact carries relevance mass");
    let alg1_ns = time_ns(|| {
        let fresh = HittingTimeDiversify::new(&serving, DiversifyConfig::default());
        fresh.select(first, &f_star, input_local, &[], 10)
    });
    // Ratio gate: preparing a memo entry costs at most 1.15x its Eq. 15
    // assembly, i.e. nothing but the assembly is built eagerly. Building
    // the walk on every miss measured 1.3-1.55x.
    let (prep_over_reg, prep_pair_ns, reg_pair_ns) = paired_median(
        || Diversifier::for_backend(&serving, DiversifyConfig::default(), RelevanceKind::Eq15),
        || Regularizer::new(&serving, reg_config),
    );
    eprintln!(
        "  memo miss (q {}): expand {expand_ns:.0} ns, Regularizer::new {reg_ns:.0} ns, \
         for_backend {prep_ns:.0} ns, k 10 Algorithm 1 {alg1_ns:.0} ns; \
         for_backend / Regularizer::new {prep_over_reg:.2}x",
        serving.len()
    );
    assert!(
        prep_over_reg <= 1.15,
        "Diversifier::for_backend must cost at most 1.15x Regularizer::new, got \
         {prep_over_reg:.2}x ({prep_pair_ns:.0} vs {reg_pair_ns:.0} ns)"
    );
    // Ratio gate: the Eq. 15 assembly against the three compact products
    // S = W Wᵀ it no longer computes (it gathers them from each
    // bipartite's Gram matrix instead). Gathering measured 0.85-0.88x the
    // products on a shared 2-vCPU host; assembling through the products
    // (plus transposes, scaled copies and a merge chain) measured 2.11x.
    // Same alternating median-of-101-pairs protocol.
    let products = || {
        EntityKind::ALL.map(|kind| {
            let w = serving.matrix(kind);
            w.mul(&w.transpose())
        })
    };
    let products_ns = time_ns(products);
    let (reg_over_products, reg_pair_ns, products_pair_ns) =
        paired_median(|| Regularizer::new(&serving, reg_config), products);
    eprintln!(
        "  Eq. 15 assembly vs 3 compact W Wt products: {products_ns:.0} ns; \
         Regularizer::new / products {reg_over_products:.2}x"
    );
    assert!(
        reg_over_products <= 1.4,
        "Regularizer::new must cost at most 1.4x the three compact \
         W Wt products it gathers from the Gram index, got {reg_over_products:.2}x \
         ({reg_pair_ns:.0} vs {products_pair_ns:.0} ns)"
    );
    for (bench, ns, ratio, ratio_key) in [
        (
            "miss_expand",
            expand_ns,
            expand_ns / reg_ns,
            "rel_regularizer",
        ),
        ("miss_regularizer", reg_ns, 1.0, "rel_regularizer"),
        // The gated statistic: the paired median of the assembly over the
        // products.
        (
            "miss_compact_products",
            products_ns,
            reg_over_products,
            "paired_regularizer_over_products",
        ),
        // The gated statistic: the paired median, not a ratio of means.
        (
            "miss_for_backend",
            prep_ns,
            prep_over_reg,
            "paired_over_regularizer",
        ),
        ("miss_alg1", alg1_ns, alg1_ns / reg_ns, "rel_regularizer"),
    ] {
        rows.push(Row {
            bench,
            threads: 1,
            ns_per_iter: ns,
            ratio,
            ratio_key,
        });
    }

    // Memo hit at the same serving shape, k = 10: a repeated request whose
    // selection is resident in its entry, against Algorithm 1 recomputed
    // on a bit-identical entry (the same expansion and preparation, built
    // above). Ratio gate on the same median-of-101-pairs protocol: the hit
    // costs at most 0.1x the recompute (~1x if the memo were bypassed).
    let engine = PqsDa::new(
        world.log().clone(),
        world.multi_weighted.clone(),
        None,
        PqsDaConfig::default(),
    );
    let hit_req = SuggestRequest::simple(input, 10);
    let recompute =
        Diversifier::for_backend(&serving, DiversifyConfig::default(), RelevanceKind::Eq15);
    let score_bits = |list: Vec<(QueryId, f64)>| -> Vec<(QueryId, u64)> {
        list.into_iter().map(|(q, s)| (q, s.to_bits())).collect()
    };
    assert_eq!(
        score_bits(engine.diversify_scored(&hit_req)),
        score_bits(recompute.select_global_scored(&serving, input_local, &[], 10)),
        "hit_selection: the engine's selection differs from the recompute"
    );
    let hit_ns = time_ns(|| engine.diversify_scored(&hit_req));
    let (hit_over_full, hit_pair_ns, full_pair_ns) = paired_median(
        || engine.diversify_scored(&hit_req),
        || recompute.select_global_scored(&serving, input_local, &[], 10),
    );
    eprintln!(
        "  memo hit (q {}, k 10): diversify_scored {hit_ns:.0} ns; \
         hit / select_global_scored {hit_over_full:.4}x",
        serving.len()
    );
    assert!(
        hit_over_full <= 0.1,
        "a memo-hit diversify_scored must cost at most 0.1x recomputing Algorithm 1, got \
         {hit_over_full:.3}x ({hit_pair_ns:.0} vs {full_pair_ns:.0} ns)"
    );
    rows.push(Row {
        bench: "hit_selection",
        threads: 1,
        ns_per_iter: hit_ns,
        ratio: hit_over_full,
        ratio_key: "paired_over_recompute",
    });

    // solver: Jacobi on the Eq. 15 system of a 256-query expansion around
    // the same query.
    let compact = CompactMulti::expand(
        &world.multi_weighted,
        &[input],
        &CompactConfig {
            max_queries: 256,
            max_rounds: 3,
        },
    );
    let reg = Regularizer::new(&compact, RegularizationConfig::default());
    let a = reg.coefficient().clone();
    let f0 = {
        let mut v = vec![0.0; a.rows()];
        v[0] = 1.0;
        v
    };
    rows.extend(measure("solver", &thread_counts, |t| {
        let r = Jacobi::default().solve_with_threads(&a, &f0, t);
        assert!(r.converged);
        r.solution
    }));

    // gibbs: one UPM training run; thread count flows through UpmConfig.
    let corpus = Corpus::build(world.log(), world.sessions());
    rows.extend(measure("gibbs", &thread_counts, |t| {
        let upm = Upm::train(
            &corpus,
            &UpmConfig {
                base: TrainConfig {
                    num_topics: 5,
                    iterations: 10,
                    seed: 7,
                    ..TrainConfig::default()
                },
                hyper_every: 0,
                hyper_iterations: 0,
                threads: t,
            },
        );
        // Compare the learned topic-word distributions, not the struct.
        (0..5).map(|k| upm.beta_k(k).to_vec()).collect::<Vec<_>>()
    }));

    // gibbs phase breakdown: full training (hyperlearning on), split by
    // phase, cross-thread model equality asserted inside.
    let phases = gibbs_phase_breakdown(&corpus, &thread_counts);

    // The 2-shard server and request stream behind the gather gate; the
    // cold-start check below replays the same requests.
    let entries = world.log().entries();
    let build = EngineBuildOptions::default();
    let sharded = ShardedPqsDa::build(
        &entries,
        ServeConfig {
            shards: 2,
            build,
            ..ServeConfig::default()
        },
    );
    let reqs: Vec<SuggestRequest> = world
        .sample_test_queries(32, 7)
        .into_iter()
        .map(|q| SuggestRequest::simple(q, 10))
        .collect();

    // Gather overhead: a memo-hit k = 10 request through the deadline-
    // bounded front door (admission, probe tasks, the completion-signal
    // gather) against the same two shards probed serially in the caller
    // (`suggest_on`). Ratio gate on the median-of-101-pairs protocol:
    // at most 6x (15-16x when the gather slept 300 us between polls).
    let gather_req = &reqs[0];
    let gathered = || {
        let outcome = sharded.suggest_with_deadline(gather_req, Some(Deadline::in_ms(5_000)));
        outcome
            .reply()
            .expect("a 5 s deadline is never shed")
            .clone()
    };
    let serial = || sharded.suggest_on(gather_req, &[0, 1]);
    let (g, s) = (gathered(), serial());
    assert!(
        g.suggestions.len() == s.suggestions.len()
            && g.suggestions
                .iter()
                .zip(&s.suggestions)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
            && g.tags == s.tags
            && !g.coverage.is_degraded(),
        "gather_overhead: the gathered reply differs from the serial one"
    );
    let gather_ns = time_ns(gathered);
    let (gather_over_serial, gather_pair_ns, serial_pair_ns) = paired_median(gathered, serial);
    eprintln!(
        "  gather overhead (2 shards, k 10, memo hit): suggest_with_deadline {gather_ns:.0} ns; \
         gathered / serial {gather_over_serial:.2}x"
    );
    assert!(
        gather_over_serial <= 6.0,
        "a memo-hit gathered request must cost at most 6x probing the same shards serially, \
         got {gather_over_serial:.2}x ({gather_pair_ns:.0} vs {serial_pair_ns:.0} ns)"
    );
    rows.push(Row {
        bench: "gather_overhead",
        threads: 1,
        ns_per_iter: gather_ns,
        ratio: gather_over_serial,
        ratio_key: "paired_over_serial",
    });

    // incremental update: the freshness cost of the serving layer. A 1%
    // chronological tail is applied through `PqsDa::apply_delta` (log
    // append → scoped CF-IQF reweight → scoped cache invalidation) and
    // timed against a cold `build_from_entries` over the full log. The
    // digest equivalence against one cold full build is asserted once
    // up front; the timed kernels then measure the two pipelines alone,
    // without the digest's O(edges) hashing pass inflating both sides.
    let cut = entries.len() - (entries.len() / 100).max(1);
    let base_engine = PqsDa::build_from_entries(&entries[..cut], &build);
    {
        let cold_digest = PqsDa::build_from_entries(&entries, &build).multi().digest();
        let (engine, report) = base_engine
            .apply_delta(&entries[cut..], &build)
            .expect("tail of entries() is chronological");
        assert!(!report.full_reweight || report.new_records > 0);
        assert_eq!(
            engine.multi().digest(),
            cold_digest,
            "delta apply must equal cold rebuild"
        );
    }
    let rebuild = || {
        let engine = PqsDa::build_from_entries(&entries, &build);
        engine.log().records().len()
    };
    let delta = || {
        let (engine, _) = base_engine
            .apply_delta(&entries[cut..], &build)
            .expect("tail of entries() is chronological");
        engine.log().records().len()
    };
    let rebuild_rows = measure("full_rebuild", &[1], |_| rebuild());
    let mut delta_rows = measure("delta_apply", &[1], |_| delta());
    // Ratio gate on the median-of-101-pairs protocol: the delta path is at
    // least 5x cheaper than the cold rebuild.
    let (delta_speedup, rebuild_ns, delta_ns) = paired_median(rebuild, delta);
    delta_rows[0].ratio = delta_speedup;
    delta_rows[0].ratio_key = "paired_speedup_vs_rebuild";
    eprintln!(
        "  delta_apply vs full_rebuild (1% delta, {} of {} entries): {delta_speedup:.1}x",
        entries.len() - cut,
        entries.len()
    );
    assert!(
        delta_speedup >= 5.0,
        "delta_apply must be at least 5x cheaper than full_rebuild for a 1% \
         delta, got {delta_speedup:.1}x ({delta_ns:.0} vs {rebuild_ns:.0} ns)"
    );
    rows.extend(rebuild_rows);
    rows.extend(delta_rows);

    // cold start: restart cost of the whole serving layer. A snapshot
    // directory (router + per-shard PQSS + empty WAL) is written once,
    // then `load_server` through the mmap path is timed against a cold
    // `ShardedPqsDa::build` over the same log. Reply bit-identity between
    // the loaded server and the live one is asserted once up front (ids,
    // score bit patterns, and tags); the timed kernels then measure the
    // two restart paths alone. The gate pins the snapshot load at ≥ 10x
    // cheaper — the point of the on-disk format.
    let snap_dir = std::env::temp_dir().join(format!("pqsda-bench-snap-{}", std::process::id()));
    std::fs::remove_dir_all(&snap_dir).ok();
    let snap_config = || ServeConfig {
        shards: 2,
        key: PartitionKey::User,
        build,
        ..ServeConfig::default()
    };
    let snap_server = ShardedPqsDa::build(&entries, snap_config());
    let save_report = save_server(&snap_server, &snap_dir).expect("save snapshot");
    let (snap_loaded, snap_load_report) =
        load_server(&snap_dir, ServeConfig::default(), true).expect("load snapshot");
    for (got, want) in snap_loaded
        .suggest_many(&reqs)
        .iter()
        .zip(snap_server.suggest_many(&reqs))
    {
        assert_eq!(got.tags, want.tags, "cold start: shard tags diverged");
        assert_eq!(got.suggestions.len(), want.suggestions.len());
        for ((qa, sa), (qb, sb)) in got.suggestions.iter().zip(&want.suggestions) {
            assert!(
                qa == qb && sa.to_bits() == sb.to_bits(),
                "cold start: snapshot reply not bit-identical to the live server"
            );
        }
    }
    drop(snap_loaded);
    let snap_mapped = snap_load_report.shards.iter().filter(|i| i.mapped).count();
    let snap_zero_copy = snap_load_report
        .shards
        .iter()
        .filter(|i| i.zero_copy)
        .count();
    let cold_rebuild = || {
        let server = ShardedPqsDa::build(&entries, snap_config());
        server.router_log().records().len()
    };
    let cold_mmap = || {
        let (server, _) =
            load_server(&snap_dir, ServeConfig::default(), true).expect("timed snapshot load");
        server.router_log().records().len()
    };
    let cold_rebuild_rows = measure("cold_start_rebuild", &[1], |_| cold_rebuild());
    let mut cold_mmap_rows = measure("cold_start_mmap", &[1], |_| cold_mmap());
    // Ratio gate on the median-of-101-pairs protocol: the snapshot load is
    // at least 10x cheaper than the cold build.
    let (cold_speedup, cold_rebuild_ns, cold_mmap_ns) = paired_median(cold_rebuild, cold_mmap);
    cold_mmap_rows[0].ratio = cold_speedup;
    cold_mmap_rows[0].ratio_key = "paired_speedup_vs_rebuild";
    eprintln!(
        "  cold_start_mmap vs cold_start_rebuild ({} bytes on disk, {snap_mapped}/2 shard(s) \
         mmapped, {snap_zero_copy}/2 zero-copy): {cold_speedup:.1}x",
        save_report.total_bytes
    );
    assert!(
        cold_speedup >= 10.0,
        "cold_start_mmap must be at least 10x cheaper than cold_start_rebuild, \
         got {cold_speedup:.1}x ({cold_mmap_ns:.0} vs {cold_rebuild_ns:.0} ns)"
    );
    rows.extend(cold_rebuild_rows);
    rows.extend(cold_mmap_rows);
    std::fs::remove_dir_all(&snap_dir).ok();

    if smoke {
        eprintln!(
            "perf: smoke mode — all kernels bit-identical across threads = {thread_counts:?}; \
             no file written"
        );
        return;
    }

    // Scenario quality gates (DESIGN.md §13): the full A/B pack suite at
    // the pinned seed, one JSON row per gate, plus the backend
    // head-to-head packs (DESIGN.md §14). Skipped in smoke (ci.sh runs
    // `pqsda scenario --smoke` separately — here the verdicts are recorded
    // as benchmark provenance, not enforced). The non-smoke tier runs the
    // `full()` preset (more queries per pack than the pinned smoke size).
    eprintln!("perf: running scenario quality-gate packs");
    let scenario_opts = ScenarioOptions::full();
    let mut scenario_reports = run_all(&scenario_opts);
    scenario_reports.extend(run_backends(&scenario_opts));
    eprintln!("perf: sweeping the relevance_bias x pool_factor frontier");
    let frontier_points = frontier(&scenario_opts);

    let out_path = std::env::var("PQSDA_BENCH_OUT").unwrap_or_else(|_| "BENCH_perf.json".into());
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"generated_by\": \"cargo run --release -p pqsda-bench --bin perf\",\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!("  \"max_threads\": {max_threads},\n"));
    json.push_str(&format!(
        "  \"note\": \"speedup = wall-clock ratio vs 1 thread; outputs asserted \
         bit-identical across thread counts. Kernels run on the persistent \
         worker pool, which never oversubscribes the hardware. Measured on a \
         {cores}-core host{}.\",\n",
        if cores == 1 {
            " — speedup ~1.0 is expected there (parallel regions run inline); \
             re-run on a multi-core machine to see parallel gains"
        } else {
            ""
        }
    ));
    json.push_str("  \"scale\": \"small\",\n");
    json.push_str("  \"seed\": 42,\n");
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"bench\": \"{}\", \"threads\": {}, \"ns_per_iter\": {:.0}, \"{}\": {:.3}}}{comma}\n",
            r.bench, r.threads, r.ns_per_iter, r.ratio_key, r.ratio
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"gibbs_phases\": [\n");
    for (i, p) in phases.iter().enumerate() {
        let comma = if i + 1 < phases.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"phase\": \"{}\", \"threads\": {}, \"ns\": {}, \"share\": {:.3}}}{comma}\n",
            p.phase, p.threads, p.ns, p.share
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"cold_start_note\": \"2-shard snapshot directory, {} bytes on disk; load path \
         {} ({snap_mapped}/2 shard(s) mmapped, {snap_zero_copy}/2 zero-copy CSR views); \
         replies asserted bit-identical to the live server before timing. \
         paired_speedup_vs_rebuild (median of 101 alternating pairs) gated at >= 10x.\",\n",
        save_report.total_bytes,
        if snap_mapped > 0 {
            "mmap"
        } else {
            "aligned-read fallback"
        }
    ));
    json.push_str(&format!(
        "  \"scenario_note\": \"quality-gated A/B packs (seed {}): diversity on/off over \
         adversarial synthetic workloads, personalization on/off on the cold-start pack, \
         tau-conditioning on/off on the drift pack. Each row is one gate; delta is the mean \
         paired per-query difference (A - B) and p its two-sided paired-randomization \
         p-value. enforced=false rows are reported metrics, not pass criteria. The \
         backends-* packs run the ranking-backend head-to-heads (birank vs eq15 relevance, \
         intent-fused vs plain borda) with structural gates pinning the refactor contracts \
         (p = 1.0 rows: exact assertions counted over n checks). fingerprint \
         is the generated pack's FNV-1a content hash — same seed, same pack, any host. \
         Non-smoke tier: {} test queries per pack.\",\n",
        scenario_opts.seed, scenario_opts.queries
    ));
    json.push_str("  \"scenario\": [\n");
    let gate_count: usize = scenario_reports.iter().map(|r| r.gates.len()).sum();
    let mut written = 0usize;
    for r in &scenario_reports {
        for g in &r.gates {
            written += 1;
            let comma = if written < gate_count { "," } else { "" };
            json.push_str(&format!(
                "    {{\"pack\": \"{}\", \"seed\": {}, \"fingerprint\": \"{:016x}\", \
                 \"gate\": \"{}\", \"a\": {:.4}, \"b\": {:.4}, \"delta\": {:.4}, \
                 \"p\": {:.4}, \"n\": {}, \"pass\": {}, \"enforced\": {}}}{comma}\n",
                r.pack,
                r.seed,
                r.fingerprint,
                g.name,
                g.mean_a,
                g.mean_b,
                g.mean_delta,
                g.p_value,
                g.n,
                g.pass,
                g.enforced
            ));
        }
    }
    json.push_str("  ],\n");
    json.push_str(
        "  \"frontier_note\": \"relevance_bias x pool_factor sweep over the default pack \
         (Algorithm 1 operating points). Every point's nDCG divides by one shared ideal: the \
         candidate pool per query is the union over ALL 16 grid lists, so rows are directly \
         comparable. The calibrated operating point the packs run at is bias 2.0, pool 5.\",\n",
    );
    json.push_str("  \"frontier\": [\n");
    for (i, p) in frontier_points.iter().enumerate() {
        let comma = if i + 1 < frontier_points.len() {
            ","
        } else {
            ""
        };
        json.push_str(&format!(
            "    {{\"relevance_bias\": {}, \"pool_factor\": {}, \"unique\": {:.4}, \
             \"max_share\": {:.4}, \"alpha_ndcg\": {:.4}, \"ndcg\": {:.4}, \"p95_us\": {}}}{comma}\n",
            p.relevance_bias,
            p.pool_factor,
            p.unique,
            p.max_share,
            p.alpha_ndcg,
            p.ndcg,
            p.p95_us
                .map_or_else(|| "null".into(), |v| v.to_string())
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_perf.json");
    eprintln!("perf: wrote {out_path}");
}
