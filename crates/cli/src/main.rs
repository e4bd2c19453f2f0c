//! `pqsda` — command-line PQS-DA query suggestion over AOL-format logs.
//!
//! ```text
//! pqsda stats    <log.tsv>                       log statistics after cleaning
//! pqsda suggest  <log.tsv> --query "sun" [opts]  diversified/personalized suggestions
//! pqsda profiles <log.tsv> --out <file>  [opts]  train UPM profiles and save them
//! pqsda demo                                     synthetic end-to-end demo
//! ```
//!
//! Common options: `--k N` (suggestions, default 10), `--user ID`
//! (personalize for a user), `--profiles FILE` (load pretrained profiles),
//! `--topics K`, `--iters N`, `--raw` (disable cfiqf weighting),
//! `--threads N`.

use pqsda::{EngineBuildOptions, Personalizer, PqsDa, PqsDaConfig};
use pqsda_baselines::{Backend, SuggestRequest, Suggester};
use pqsda_bench::loadgen::{run_open_loop, OpenLoopConfig, OpenLoopReport};
use pqsda_bench::scenario::{print_report, run_backends, run_pack, Pack, ScenarioOptions};
use pqsda_graph::multi::MultiBipartite;
use pqsda_graph::weighting::WeightingScheme;
use pqsda_querylog::clean::{clean_entries, CleanConfig};
use pqsda_querylog::io::read_aol;
use pqsda_querylog::session::{segment_sessions, Session, SessionConfig};
use pqsda_querylog::{LogEntry, QueryLog, UserId};
use pqsda_serve::{FaultConfig, PartitionKey, ServeConfig, ShardedPqsDa};
use pqsda_topics::{Corpus, TrainConfig, Upm, UpmConfig};
use std::io::BufReader;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(&args[1..]),
        Some("suggest") => cmd_suggest(&args[1..]),
        Some("profiles") => cmd_profiles(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("shard-server") => cmd_shard_server(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("scenario") => cmd_scenario(&args[1..]),
        Some("demo") => cmd_demo(),
        Some("--help") | Some("-h") | None => {
            eprint!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
pqsda — Personalized Query Suggestion With Diversity Awareness (ICDE 2014)

USAGE:
  pqsda stats    <log.tsv>
  pqsda suggest  <log.tsv> --query \"sun\" [--k 10] [--user ID]
                 [--profiles FILE | --personalize] [--topics K] [--iters N]
                 [--raw] [--threads N] [--backend eq15|birank|intent]
  pqsda profiles <log.tsv> --out FILE [--topics K] [--iters N] [--threads N]
  pqsda serve    <log.tsv> --query \"sun\" [--shards N] [--key user|query]
                 [--k 10] [--threads N] [--replicas R] [--budget-ms MS]
                 [--hedge-ms MS] [--breaker K] [--backend eq15|birank|intent]
  pqsda serve    <log.tsv> --open-loop RPS [--requests N] [--deadline-ms MS]
                 [--seed S] [--shards N] [--k 10] [--backend eq15|birank|intent]
  pqsda serve    <log.tsv> --net [--query \"sun\" | --open-loop RPS] [--shards N]
                 [--key user|query] [--budget-ms MS] (spawns shard processes)
  pqsda serve    --net-smoke
  pqsda shard-server <shard.pqss> --shard N --listen uds:PATH|tcp:HOST:PORT
                 [--staging DIR]
  pqsda snapshot save <log.tsv> --dir DIR [--shards N] [--key user|query] [--raw]
  pqsda snapshot load --dir DIR [--query \"sun\"] [--k 10] [--user ID] [--no-mmap]
  pqsda scenario [--smoke] [--pack NAME] [--backends] [--seed S] [--k N] [--queries N]
  pqsda demo

Logs are AOL-format TSV: AnonID\\tQuery\\tQueryTime\\tItemRank\\tClickURL.
";

/// Minimal flag parser: positional paths plus `--flag value` / `--flag`.
struct Flags {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(name) = args[i].strip_prefix("--") {
                let value = match name {
                    // boolean flags
                    "raw" | "personalize" | "smoke" | "net-smoke" | "net" | "no-mmap"
                    | "backends" => None,
                    _ => {
                        i += 1;
                        Some(
                            args.get(i)
                                .ok_or_else(|| format!("--{name} needs a value"))?
                                .clone(),
                        )
                    }
                };
                flags.push((name.to_owned(), value));
            } else {
                positional.push(args[i].clone());
            }
            i += 1;
        }
        Ok(Flags { positional, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn get_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad number {v:?}")),
        }
    }
}

fn load_log(path: &str) -> Result<(QueryLog, Vec<Session>), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let entries = read_aol(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    let (cleaned, stats) = clean_entries(&entries, &CleanConfig::default());
    eprintln!(
        "loaded {path}: {} entries, {} kept after cleaning",
        stats.input, stats.kept
    );
    let mut log = QueryLog::from_entries(&cleaned);
    let sessions = segment_sessions(&mut log, &SessionConfig::default());
    Ok((log, sessions))
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let path = flags
        .positional
        .first()
        .ok_or("stats needs a log file path")?;
    let (log, sessions) = load_log(path)?;
    let clicks = log.records().iter().filter(|r| r.click.is_some()).count();
    let avg_session =
        sessions.iter().map(Session::len).sum::<usize>() as f64 / sessions.len().max(1) as f64;
    println!("records            {}", log.records().len());
    println!("distinct queries   {}", log.num_queries());
    println!("distinct urls      {}", log.num_urls());
    println!("distinct terms     {}", log.num_terms());
    println!("users              {}", log.num_users());
    println!("sessions           {}", sessions.len());
    println!("avg session length {avg_session:.2}");
    println!(
        "click-through rate {:.1}%",
        100.0 * clicks as f64 / log.records().len().max(1) as f64
    );
    Ok(())
}

fn train_upm(log: &QueryLog, sessions: &[Session], flags: &Flags) -> Result<(Upm, Corpus), String> {
    let corpus = Corpus::build(log, sessions);
    if corpus.num_docs() == 0 {
        return Err("no usable user documents in the log".into());
    }
    let topics = flags.get_num("topics", 10usize)?;
    let iters = flags.get_num("iters", 60usize)?;
    let threads = flags.get_num("threads", 1usize)?;
    eprintln!(
        "training UPM: {} docs, K = {topics}, {iters} sweeps, {threads} thread(s)",
        corpus.num_docs()
    );
    let upm = Upm::train(
        &corpus,
        &UpmConfig {
            base: TrainConfig {
                num_topics: topics,
                iterations: iters,
                seed: 42,
                ..TrainConfig::default()
            },
            hyper_every: 20,
            hyper_iterations: 10,
            threads,
        },
    );
    Ok((upm, corpus))
}

fn cmd_profiles(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let path = flags
        .positional
        .first()
        .ok_or("profiles needs a log file path")?;
    let out = flags.get("out").ok_or("profiles needs --out FILE")?;
    let (log, sessions) = load_log(path)?;
    let (upm, corpus) = train_upm(&log, &sessions, &flags)?;
    let n_docs = upm.num_docs();
    let personalizer = Personalizer::new(upm, &corpus, log.num_users());
    let mut buf = Vec::new();
    personalizer.write_to(&mut buf);
    std::fs::write(out, &buf).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {n_docs} profiles ({} bytes) to {out}", buf.len());
    Ok(())
}

fn cmd_suggest(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let path = flags
        .positional
        .first()
        .ok_or("suggest needs a log file path")?;
    let query_text = flags.get("query").ok_or("suggest needs --query \"...\"")?;
    let k = flags.get_num("k", 10usize)?;
    let scheme = if flags.has("raw") {
        WeightingScheme::Raw
    } else {
        WeightingScheme::CfIqf
    };

    let (log, sessions) = load_log(path)?;
    let query = log
        .find_query(query_text)
        .ok_or_else(|| format!("query {query_text:?} does not occur in the log"))?;

    // Personalization: pretrained profiles, or train now with --personalize.
    let personalizer = if let Some(pfile) = flags.get("profiles") {
        let data = std::fs::read(pfile).map_err(|e| format!("{pfile}: {e}"))?;
        // The profile file is self-contained (user mapping + UPM).
        Some(Personalizer::read_from(&data).map_err(|e| format!("{pfile}: {e}"))?)
    } else if flags.has("personalize") {
        let (upm, corpus) = train_upm(&log, &sessions, &flags)?;
        Some(Personalizer::new(upm, &corpus, log.num_users()))
    } else {
        None
    };

    let multi = MultiBipartite::build(&log, &sessions, scheme);
    let engine = PqsDa::new(log, multi, personalizer, PqsDaConfig::default());

    let mut req = SuggestRequest::simple(query, k).with_backend(parse_backend(&flags)?);
    if let Some(uid) = flags.get("user") {
        let uid: u32 = uid.parse().map_err(|_| "--user: bad id".to_owned())?;
        req = req.for_user(UserId(uid));
    }
    let suggestions = engine.suggest(&req);
    if suggestions.is_empty() {
        println!("(no suggestions — the query has no graph neighbourhood)");
    }
    for (i, q) in suggestions.iter().enumerate() {
        println!("{:>2}. {}", i + 1, engine.log().query_text(*q));
    }
    Ok(())
}

fn parse_backend(flags: &Flags) -> Result<Backend, String> {
    match flags.get("backend") {
        None => Ok(Backend::default()),
        Some(name) => Backend::parse(name).ok_or_else(|| {
            format!(
                "--backend: expected {}, got {name:?}",
                Backend::ALL.map(Backend::name).join("|")
            )
        }),
    }
}

fn parse_key(flags: &Flags) -> Result<PartitionKey, String> {
    match flags.get("key") {
        None | Some("user") => Ok(PartitionKey::User),
        Some("query") => Ok(PartitionKey::Query),
        Some(other) => Err(format!("--key: expected user|query, got {other:?}")),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    if flags.has("net-smoke") {
        return net_smoke();
    }
    let path = flags
        .positional
        .first()
        .ok_or("serve needs a log file path (or --net-smoke)")?;
    let open_loop: Option<f64> = match flags.get("open-loop") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--open-loop: bad rate {v:?}"))?,
        ),
    };
    let k = flags.get_num("k", 10usize)?;
    let shards = flags.get_num("shards", 2usize)?;
    let threads = flags.get_num("threads", 0usize)?;
    let key = parse_key(&flags)?;
    let backend = parse_backend(&flags)?;
    let fault = FaultConfig {
        replicas: flags.get_num("replicas", 1usize)?,
        budget_ms: flags.get_num("budget-ms", 0u64)?,
        hedge_ms: flags.get_num("hedge-ms", 0u64)?,
        breaker_threshold: flags.get_num("breaker", 0u32)?,
        ..FaultConfig::default()
    };

    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let raw = read_aol(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    let (entries, stats) = clean_entries(&raw, &CleanConfig::default());
    eprintln!(
        "loaded {path}: {} entries, {} kept after cleaning",
        stats.input, stats.kept
    );
    let build = EngineBuildOptions {
        scheme: if flags.has("raw") {
            WeightingScheme::Raw
        } else {
            WeightingScheme::CfIqf
        },
        ..EngineBuildOptions::default()
    };
    let server = ShardedPqsDa::build(
        &entries,
        ServeConfig {
            shards,
            key,
            build,
            fault,
            coalesce: open_loop.is_some(),
            ..ServeConfig::default()
        },
    );
    // --net: lift the freshly built server into separate shard-server
    // processes (per-shard snapshot files, spawned `pqsda shard-server`
    // children over UDS) and serve through the socket-backed router.
    let net_rig = if flags.has("net") {
        Some(NetRig::launch(&server, &entries, shards, key, fault)?)
    } else {
        None
    };
    if let Some(rps) = open_loop {
        let cfg = OpenLoopConfig {
            seed: flags.get_num("seed", 42u64)?,
            offered_rps: rps,
            requests: flags.get_num("requests", 256usize)?,
            deadline_ms: flags.get_num("deadline-ms", 0u64)?,
            threads,
        };
        let log = QueryLog::from_entries(&entries);
        let pool: Vec<SuggestRequest> = log
            .records()
            .iter()
            .step_by(7)
            .map(|r| {
                SuggestRequest::simple(r.query, k)
                    .for_user(r.user)
                    .with_backend(backend)
            })
            .collect();
        match &net_rig {
            Some(rig) => {
                let report = run_open_loop(&rig.router, &pool, &cfg);
                print_open_loop_report(&report, None);
                print_net_stats(&rig.router);
            }
            None => {
                let report = run_open_loop(&server, &pool, &cfg);
                print_open_loop_report(&report, Some(&server));
            }
        }
        return Ok(());
    }
    let query_text = flags.get("query").ok_or("serve needs --query \"...\"")?;
    let query = server
        .find_query(query_text)
        .ok_or_else(|| format!("query {query_text:?} does not occur in the log"))?;
    let mut req = SuggestRequest::simple(query, k).with_backend(backend);
    if let Some(uid) = flags.get("user") {
        let uid: u32 = uid.parse().map_err(|_| "--user: bad id".to_owned())?;
        req = req.for_user(UserId(uid));
    }
    let reply = match &net_rig {
        Some(rig) => rig
            .router
            .suggest(&req)
            .reply()
            .cloned()
            .ok_or("net serve: request rejected by admission control")?,
        None => server.suggest_many_with_threads(std::slice::from_ref(&req), threads)[0].clone(),
    };
    if reply.suggestions.is_empty() {
        println!("(no suggestions — the query has no graph neighbourhood)");
    }
    for (i, (q, score)) in reply.suggestions.iter().enumerate() {
        let text = server.query_text(*q).unwrap_or_default();
        println!("{:>2}. {text}  (F* {score:.4})", i + 1);
    }
    match &net_rig {
        Some(rig) => {
            eprintln!(
                "served over the wire by {}/{} shard process(es){}; generations {:?}",
                reply.coverage.answered,
                reply.coverage.consulted,
                if reply.coverage.is_degraded() {
                    " — DEGRADED"
                } else {
                    ""
                },
                rig.router.stats().generations,
            );
        }
        None => {
            let stats = server.stats();
            eprintln!(
                "served by {}/{} shard snapshot(s){}; generations {:?}; cache {}h/{}m; \
                 selections {}h/{}m",
                reply.coverage.answered,
                reply.coverage.consulted,
                if reply.coverage.is_degraded() {
                    " — DEGRADED"
                } else {
                    ""
                },
                stats.generations,
                stats.cache.hits,
                stats.cache.misses,
                stats.cache.selection_hits,
                stats.cache.selection_misses
            );
        }
    }
    Ok(())
}

/// `pqsda snapshot save|load` — persist a whole server into a snapshot
/// directory, or reassemble one from it (mmap + WAL replay).
fn cmd_snapshot(args: &[String]) -> Result<(), String> {
    use pqsda_serve::store::{load_server, save_server};

    let flags = Flags::parse(args)?;
    let action = flags
        .positional
        .first()
        .map(String::as_str)
        .ok_or("snapshot needs an action: save | load")?;
    let dir = std::path::PathBuf::from(flags.get("dir").ok_or("snapshot needs --dir DIR")?);
    match action {
        "save" => {
            let path = flags
                .positional
                .get(1)
                .ok_or("snapshot save needs a log file path")?;
            let shards = flags.get_num("shards", 2usize)?;
            let key = parse_key(&flags)?;
            let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
            let raw = read_aol(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
            let (entries, stats) = clean_entries(&raw, &CleanConfig::default());
            eprintln!(
                "loaded {path}: {} entries, {} kept after cleaning",
                stats.input, stats.kept
            );
            let build = EngineBuildOptions {
                scheme: if flags.has("raw") {
                    WeightingScheme::Raw
                } else {
                    WeightingScheme::CfIqf
                },
                ..EngineBuildOptions::default()
            };
            let server = ShardedPqsDa::build(
                &entries,
                ServeConfig {
                    shards,
                    key,
                    build,
                    ..ServeConfig::default()
                },
            );
            let report = save_server(&server, &dir).map_err(|e| format!("save: {e}"))?;
            println!(
                "saved {shards} shard(s) to {} — generations {:?}, {} bytes",
                dir.display(),
                report.generations,
                report.total_bytes
            );
            Ok(())
        }
        "load" => {
            let use_mmap = !flags.has("no-mmap");
            let (server, report) = load_server(&dir, ServeConfig::default(), use_mmap)
                .map_err(|e| format!("load: {e}"))?;
            let mapped = report.shards.iter().filter(|i| i.mapped).count();
            let zero_copy = report.shards.iter().filter(|i| i.zero_copy).count();
            let bytes: u64 =
                report.shards.iter().map(|i| i.file_len).sum::<u64>() + report.router.file_len;
            println!(
                "loaded {} shard(s) from {} — {mapped} mmapped / {zero_copy} zero-copy, \
                 {bytes} bytes; WAL replayed {} batch(es), {} entr(ies), {} torn byte(s) dropped",
                server.config().shards,
                dir.display(),
                report.wal_batches_replayed,
                report.wal_entries_replayed,
                report.wal_dropped_bytes
            );
            if let Some(query_text) = flags.get("query") {
                let k = flags.get_num("k", 10usize)?;
                let query = server.find_query(query_text).ok_or_else(|| {
                    format!("query {query_text:?} does not occur in the snapshot")
                })?;
                let mut req = SuggestRequest::simple(query, k);
                if let Some(uid) = flags.get("user") {
                    let uid: u32 = uid.parse().map_err(|_| "--user: bad id".to_owned())?;
                    req = req.for_user(UserId(uid));
                }
                let reply = server.suggest(&req);
                if reply.suggestions.is_empty() {
                    println!("(no suggestions — the query has no graph neighbourhood)");
                }
                for (i, (q, score)) in reply.suggestions.iter().enumerate() {
                    let text = server.query_text(*q).unwrap_or_default();
                    println!("{:>2}. {text}  (F* {score:.4})", i + 1);
                }
            }
            Ok(())
        }
        other => Err(format!(
            "unknown snapshot action {other:?} (want save | load)"
        )),
    }
}

fn print_open_loop_report(report: &OpenLoopReport, server: Option<&ShardedPqsDa>) {
    println!(
        "open-loop: offered {:.0} req/s, {} scheduled requests, wall {} ms",
        report.offered_rps,
        report.requests,
        report.wall_us / 1_000
    );
    println!(
        "  served {} / shed {} (drop rate {:.3}), deadline violations {}",
        report.completed, report.rejected, report.drop_rate, report.deadline_violations
    );
    println!(
        "  latency from scheduled arrival: p50 {} us, p99 {} us, p999 {} us, mean {:.0} us",
        report.p50_us, report.p99_us, report.p999_us, report.mean_us
    );
    println!(
        "  queue depth max {} / mean {:.1}",
        report.max_queue_depth, report.mean_queue_depth
    );
    if let Some(server) = server {
        let stats = server.stats();
        println!(
            "  admission: admitted {}, shed {} (last projection {} us); \
             coalesce: leaders {}, coalesced {}, fallbacks {}",
            stats.admission.admitted,
            stats.admission.shed,
            stats.admission.last_projected_wait_us,
            stats.coalesce.leaders,
            stats.coalesce.coalesced,
            stats.coalesce.fallbacks
        );
    }
}

/// The router-side audit trail for a networked run.
fn print_net_stats(router: &pqsda_net::NetRouter) {
    let stats = router.stats();
    println!(
        "  wire: {} probes, {} transport errors, {} remote errors, {} timeouts, \
         {} backoff skips, {} breaker skips, {} degraded replies",
        stats.probes,
        stats.errors,
        stats.remote_errors,
        stats.timeouts,
        stats.backoff_skips,
        stats.breaker_skips,
        stats.degraded
    );
}

fn cmd_demo() -> Result<(), String> {
    // The paper's Table I, inline, so the binary demos without any files.
    let entries = vec![
        LogEntry::new(UserId(1), "sun", Some("www.java.com"), 1_141_228_800),
        LogEntry::new(UserId(1), "sun java", Some("java.sun.com"), 1_141_228_830),
        LogEntry::new(UserId(1), "jvm download", None, 1_141_228_900),
        LogEntry::new(UserId(2), "sun", Some("www.suncellular.com"), 1_141_230_000),
        LogEntry::new(
            UserId(2),
            "solar cell",
            Some("en.wikipedia.org"),
            1_141_230_060,
        ),
        LogEntry::new(
            UserId(3),
            "sun oracle",
            Some("www.oracle.com"),
            1_141_231_000,
        ),
        LogEntry::new(UserId(3), "java", Some("www.java.com"), 1_141_231_050),
    ];
    let mut log = QueryLog::from_entries(&entries);
    let sessions = segment_sessions(&mut log, &SessionConfig::default());
    let multi = MultiBipartite::build(&log, &sessions, WeightingScheme::CfIqf);
    let engine = PqsDa::new(log, multi, None, PqsDaConfig::default());
    let sun = engine.log().find_query("sun").expect("demo query");
    println!("suggestions for \"sun\" over the paper's Table I:");
    for (i, q) in engine
        .suggest(&SuggestRequest::simple(sun, 5))
        .iter()
        .enumerate()
    {
        println!("{:>2}. {}", i + 1, engine.log().query_text(*q));
    }
    Ok(())
}

/// `pqsda scenario` — the quality-gated A/B harness over the adversarial
/// synthetic packs (DESIGN.md §13). Runs every pack (or one, with
/// `--pack`), prints each per-scenario metric table, and exits nonzero
/// if any enforced gate fails — which is how ci.sh turns a diversity or
/// personalization regression into a build failure. `--smoke` is the CI
/// spelling of the default full run; gates are calibrated at the pinned
/// default seed, so overriding `--seed` is for exploration, not gating.
fn cmd_scenario(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    // `--smoke` keeps the pinned CI size; the full tier runs more test
    // queries per pack so off-pin seeds clear the significance floor.
    let defaults = if flags.has("smoke") {
        ScenarioOptions::default()
    } else {
        ScenarioOptions::full()
    };
    let opts = ScenarioOptions {
        seed: flags.get_num("seed", defaults.seed)?,
        k: flags.get_num("k", defaults.k)?,
        queries: flags.get_num("queries", defaults.queries)?,
        ..defaults
    };
    let reports = if flags.has("backends") {
        // The ranking-backend head-to-heads instead of the A/B packs.
        run_backends(&opts)
    } else {
        let packs: Vec<Pack> = match flags.get("pack") {
            Some(name) => vec![Pack::parse(name).ok_or_else(|| {
                format!(
                    "unknown pack {name:?} (have: {})",
                    Pack::ALL.map(Pack::name).join(", ")
                )
            })?],
            None => Pack::ALL.to_vec(),
        };
        packs.into_iter().map(|p| run_pack(p, &opts)).collect()
    };
    let mut failed: Vec<&str> = Vec::new();
    for report in &reports {
        print_report(report);
        if !report.passed() {
            failed.push(report.pack);
        }
    }
    if failed.is_empty() {
        println!("\nscenario gates: all passed (seed {})", opts.seed);
        Ok(())
    } else {
        Err(format!("scenario gates failed: {}", failed.join(", ")))
    }
}

/// `pqsda shard-server <shard.pqss> --shard N --listen uds:PATH|tcp:..`
/// — one shard process: load the digest-verified snapshot, bind the
/// socket, and serve the wire protocol until killed (or a `Shutdown`
/// frame arrives).
fn cmd_shard_server(args: &[String]) -> Result<(), String> {
    use pqsda_net::{Listener, ShardServer, ShardServerConfig};

    let flags = Flags::parse(args)?;
    let path = flags
        .positional
        .first()
        .ok_or("shard-server needs a .pqss snapshot path")?;
    let shard = flags.get_num("shard", 0usize)?;
    let listen = parse_listen(
        flags
            .get("listen")
            .ok_or("shard-server needs --listen uds:PATH|tcp:HOST:PORT")?,
    )?;
    let staging = match flags.get("staging") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("pqsda-shard-{shard}-{}", std::process::id())),
    };
    let cfg = ShardServerConfig::new(shard, EngineBuildOptions::default(), staging);
    let server = ShardServer::from_snapshot_file(std::path::Path::new(path), cfg)
        .map_err(|e| format!("shard-server: {path}: {e}"))?;
    let (listener, bound) = Listener::bind(&listen).map_err(|e| format!("shard-server: {e}"))?;
    let tag = server.current_tag();
    eprintln!(
        "shard-server: shard {} generation {} listening on {bound}",
        tag.shard, tag.generation
    );
    server
        .serve(listener)
        .map_err(|e| format!("shard-server: serve: {e}"))
}

/// `uds:PATH` or `tcp:HOST:PORT` → [`pqsda_net::NetAddr`].
fn parse_listen(v: &str) -> Result<pqsda_net::NetAddr, String> {
    if let Some(p) = v.strip_prefix("uds:") {
        Ok(pqsda_net::NetAddr::Uds(p.into()))
    } else if let Some(a) = v.strip_prefix("tcp:") {
        Ok(pqsda_net::NetAddr::Tcp(a.to_owned()))
    } else {
        Err(format!(
            "--listen: expected uds:PATH or tcp:HOST:PORT, got {v:?}"
        ))
    }
}

/// A running multi-process deployment: per-shard snapshot files on disk,
/// one spawned `pqsda shard-server` child per shard (UDS), and the
/// socket-backed router connected to them. Children are shut down over
/// the wire on drop (killed if they ignore it).
struct NetRig {
    dir: std::path::PathBuf,
    children: Vec<Option<std::process::Child>>,
    addrs: Vec<Vec<pqsda_net::NetAddr>>,
    router: pqsda_net::NetRouter,
}

impl NetRig {
    fn launch(
        server: &ShardedPqsDa,
        entries: &[LogEntry],
        shards: usize,
        key: PartitionKey,
        fault: FaultConfig,
    ) -> Result<NetRig, String> {
        use pqsda_net::{ClientConfig, NetAddr, NetConfig, NetRouter, RemoteReplica};
        use pqsda_serve::store::save_server;
        use std::time::{Duration, Instant};

        let dir =
            std::env::temp_dir().join(format!("pqsda-net-serve-{}-{shards}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("net serve: scratch dir: {e}"))?;
        save_server(server, &dir).map_err(|e| format!("net serve: snapshot save: {e}"))?;
        let exe = std::env::current_exe().map_err(|e| format!("net serve: current_exe: {e}"))?;
        let mut children = Vec::new();
        let mut addrs = Vec::new();
        for s in 0..shards {
            let sock = dir.join(format!("s{s}.sock"));
            let child = std::process::Command::new(&exe)
                .arg("shard-server")
                .arg(dir.join(format!("shard-{s}.pqss")))
                .arg("--shard")
                .arg(s.to_string())
                .arg("--listen")
                .arg(format!("uds:{}", sock.display()))
                .arg("--staging")
                .arg(dir.join(format!("stage{s}")))
                .stdout(std::process::Stdio::null())
                .spawn()
                .map_err(|e| format!("net serve: spawn shard {s}: {e}"))?;
            children.push(Some(child));
            addrs.push(vec![NetAddr::Uds(sock)]);
        }
        // Readiness: ping each child until it answers (a fresh replica per
        // attempt, so no backoff window slows the poll down).
        let deadline = Instant::now() + Duration::from_secs(10);
        for (s, replica_addrs) in addrs.iter().enumerate() {
            loop {
                let probe = RemoteReplica::new(replica_addrs[0].clone(), ClientConfig::default());
                match probe.ping(None) {
                    Ok((shard, _gen)) if shard as usize == s => break,
                    Ok((shard, _)) => {
                        return Err(format!("net serve: shard {s} answered as shard {shard}"))
                    }
                    Err(_) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(e) => return Err(format!("net serve: shard {s} never came up: {e}")),
                }
            }
        }
        let router = NetRouter::connect(
            QueryLog::from_entries(entries),
            &addrs,
            NetConfig {
                key,
                fault,
                ..NetConfig::default()
            },
        );
        eprintln!(
            "net serve: {shards} shard process(es) up under {}",
            dir.display()
        );
        Ok(NetRig {
            dir,
            children,
            addrs,
            router,
        })
    }

    /// SIGKILLs shard `s`'s process — the chaos lever for the smoke.
    fn kill_shard(&mut self, s: usize) {
        if let Some(child) = &mut self.children[s] {
            let _ = child.kill();
            let _ = child.wait();
            self.children[s] = None;
        }
    }
}

impl Drop for NetRig {
    fn drop(&mut self) {
        use pqsda_net::{ClientConfig, RemoteReplica};
        use std::time::{Duration, Instant};

        for (s, child) in self.children.iter_mut().enumerate() {
            let Some(mut proc) = child.take() else {
                continue;
            };
            let replica = RemoteReplica::new(self.addrs[s][0].clone(), ClientConfig::default());
            let _ = replica.shutdown(None);
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match proc.try_wait() {
                    Ok(Some(_)) => break,
                    _ if Instant::now() >= deadline => {
                        let _ = proc.kill();
                        let _ = proc.wait();
                        break;
                    }
                    _ => std::thread::sleep(Duration::from_millis(25)),
                }
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The CI net gate: real shard-server processes over UDS. Full-coverage
/// replies must be bit-identical to the in-process server for shard
/// counts {1, 2, 4}; killing a shard process mid-load must degrade
/// honestly (replies bit-identical to the healthy merge over the
/// answering shards, never an error); and the whole gate is bounded in
/// wall-clock — a hang fails it.
fn net_smoke() -> Result<(), String> {
    use pqsda_querylog::synth::{generate, SynthConfig};
    use std::time::{Duration, Instant};

    let start = Instant::now();
    let synth = generate(&SynthConfig::tiny(42));
    let entries = synth.log.entries();
    let reqs: Vec<SuggestRequest> = synth
        .log
        .records()
        .iter()
        .step_by(5)
        .map(|r| SuggestRequest::simple(r.query, 8).for_user(r.user))
        .collect();

    // Bit-identity at full coverage, across process boundaries.
    for shards in [1usize, 2, 4] {
        let inproc = ShardedPqsDa::build(
            &entries,
            ServeConfig {
                shards,
                key: PartitionKey::User,
                ..ServeConfig::default()
            },
        );
        let rig = NetRig::launch(
            &inproc,
            &entries,
            shards,
            PartitionKey::User,
            FaultConfig::default(),
        )?;
        for (i, req) in reqs.iter().enumerate() {
            let outcome = rig.router.suggest(req);
            let Some(got) = outcome.reply() else {
                return Err(format!("net smoke: shards={shards} req {i} rejected"));
            };
            let want = inproc.suggest(req);
            if got.coverage != want.coverage || got.tags != want.tags {
                return Err(format!(
                    "net smoke: shards={shards} req {i}: coverage/tags diverged"
                ));
            }
            if got.suggestions.len() != want.suggestions.len()
                || got
                    .suggestions
                    .iter()
                    .zip(&want.suggestions)
                    .any(|((gq, gs), (wq, ws))| gq != wq || gs.to_bits() != ws.to_bits())
            {
                return Err(format!(
                    "net smoke: shards={shards} req {i}: replies not bit-identical"
                ));
            }
        }
        println!(
            "net smoke: {shards} process(es) — {} replies bit-identical over UDS",
            reqs.len()
        );
    }

    // Kill one shard process mid-load: honest degraded coverage, replies
    // bit-identical to the healthy merge over the answering shards.
    let inproc = ShardedPqsDa::build(
        &entries,
        ServeConfig {
            shards: 2,
            key: PartitionKey::User,
            fault: FaultConfig {
                budget_ms: 400,
                ..FaultConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    let mut rig = NetRig::launch(
        &inproc,
        &entries,
        2,
        PartitionKey::User,
        FaultConfig {
            budget_ms: 400,
            ..FaultConfig::default()
        },
    )?;
    let warm = rig.router.suggest(&reqs[0]);
    if warm.reply().map(|r| r.coverage.is_degraded()) != Some(false) {
        return Err("net smoke: warm request not served at full coverage".into());
    }
    rig.kill_shard(1);
    let mut degraded = 0u32;
    for (i, req) in reqs.iter().enumerate() {
        let outcome = rig.router.suggest(req);
        let Some(got) = outcome.reply() else {
            return Err(format!("net smoke: post-kill req {i} errored"));
        };
        if !got.coverage.is_degraded() {
            continue;
        }
        degraded += 1;
        let answered: Vec<usize> = got.tags.iter().map(|t| t.shard).collect();
        let want = inproc.suggest_on(req, &answered);
        if got.suggestions.len() != want.suggestions.len()
            || got
                .suggestions
                .iter()
                .zip(&want.suggestions)
                .any(|((gq, gs), (wq, ws))| gq != wq || gs.to_bits() != ws.to_bits())
        {
            return Err(format!(
                "net smoke: post-kill req {i}: degraded reply not honest"
            ));
        }
    }
    if degraded < reqs.len() as u32 - 1 {
        return Err(format!(
            "net smoke: killed shard went unnoticed ({degraded}/{} degraded)",
            reqs.len()
        ));
    }
    println!(
        "net smoke: shard process killed mid-load — {degraded}/{} replies degraded \
         honestly (bit-identical healthy-subset merges), 0 errors",
        reqs.len()
    );

    // The whole gate bounded: generous against slow CI hosts, fatal for
    // a hang (any stuck socket would blow way past this).
    if start.elapsed() > Duration::from_secs(120) {
        return Err(format!(
            "net smoke: took {:?} — serving stalled somewhere",
            start.elapsed()
        ));
    }
    println!("net smoke: done in {:?}", start.elapsed());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_positional_and_values() {
        let args: Vec<String> = ["log.tsv", "--query", "sun", "--k", "5", "--raw"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = Flags::parse(&args).unwrap();
        assert_eq!(f.positional, vec!["log.tsv"]);
        assert_eq!(f.get("query"), Some("sun"));
        assert_eq!(f.get_num("k", 10usize).unwrap(), 5);
        assert!(f.has("raw"));
        assert!(!f.has("personalize"));
    }

    #[test]
    fn flags_reject_missing_value() {
        let args: Vec<String> = vec!["--query".into()];
        assert!(Flags::parse(&args).is_err());
    }

    #[test]
    fn flags_reject_bad_number() {
        let args: Vec<String> = vec!["--k".into(), "many".into()];
        let f = Flags::parse(&args).unwrap();
        assert!(f.get_num("k", 10usize).is_err());
    }

    #[test]
    fn demo_runs() {
        cmd_demo().unwrap();
    }

    #[test]
    fn scenario_command_runs_single_pack_and_rejects_unknown() {
        let args: Vec<String> = vec!["--pack".into(), "default".into(), "--smoke".into()];
        cmd_scenario(&args).unwrap();
        let bad: Vec<String> = vec!["--pack".into(), "nope".into()];
        assert!(cmd_scenario(&bad).unwrap_err().contains("unknown pack"));
    }

    #[test]
    fn backend_flag_parses_and_rejects_unknown() {
        let ok = Flags::parse(&["--backend".into(), "birank".into()]).unwrap();
        assert_eq!(parse_backend(&ok).unwrap(), Backend::BiRank);
        let none = Flags::parse(&[]).unwrap();
        assert_eq!(parse_backend(&none).unwrap(), Backend::Eq15);
        let bad = Flags::parse(&["--backend".into(), "pagerank".into()]).unwrap();
        assert!(parse_backend(&bad).unwrap_err().contains("expected"));
    }
}
