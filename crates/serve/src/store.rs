//! Server-level persistence: snapshotting a whole [`ShardedPqsDa`] to a
//! directory and reassembling it on cold start (DESIGN.md §12).
//!
//! Layout of a snapshot directory:
//!
//! ```text
//! router.pqss     the global id-space log + serving topology
//! shard-N.pqss    one engine snapshot per shard (zero-copy loadable)
//! deltas.wal      post-snapshot delta batches (sidecar WAL)
//! ```
//!
//! Saving takes a **consistent cut** under the writer lock: no
//! `apply_deltas` can run between reading the router and the last
//! shard, so the files always describe one generation vector. Every
//! file is published by atomic rename, and a successful save resets the
//! WAL — the snapshot owns everything up to its cut, the WAL owns
//! everything after.
//!
//! Restart = [`load_server`] (mmap the shards, digest-verified) +
//! replay of the WAL batch-by-batch through the ordinary
//! ingest/`apply_deltas` pipeline. The result is the same engine state
//! a log-rebuild would produce — `tests/snapshot_roundtrip.rs` pins
//! reply bit-identity — at a fraction of the cold-start cost (the
//! `cold_start_mmap` vs `cold_start_rebuild` rows in `BENCH_perf.json`).

use crate::router::PartitionKey;
use crate::sharded::{ServeConfig, ShardedPqsDa, SwapReport};
use crate::swap::{ShardSnapshot, ShardTag};
use pqsda_store::snapshot::{load_engine, load_router, save_engine, save_router, LoadInfo};
use pqsda_store::wal::{WalReader, WalWriter};
use pqsda_store::SnapError;
use std::path::{Path, PathBuf};

/// File name of the router snapshot inside a snapshot directory.
pub const ROUTER_FILE: &str = "router.pqss";
/// File name of the delta WAL inside a snapshot directory.
pub const WAL_FILE: &str = "deltas.wal";

/// The shard file name for shard `s`.
pub fn shard_file(s: usize) -> String {
    format!("shard-{s}.pqss")
}

fn key_code(key: PartitionKey) -> u32 {
    match key {
        PartitionKey::User => 0,
        PartitionKey::Query => 1,
    }
}

fn key_from_code(code: u32) -> Result<PartitionKey, SnapError> {
    Ok(match code {
        0 => PartitionKey::User,
        1 => PartitionKey::Query,
        _ => return Err(SnapError::BadLayout("unknown partition key")),
    })
}

/// What one [`save_server`] wrote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SaveReport {
    /// The generation each shard was saved at, in shard order.
    pub generations: Vec<u64>,
    /// Total bytes across router + shard files.
    pub total_bytes: u64,
}

/// What one [`load_server`] reassembled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadReport {
    /// Per-shard load provenance (mmap vs fallback, zero-copy, size).
    pub shards: Vec<LoadInfo>,
    /// Router file provenance.
    pub router: LoadInfo,
    /// WAL batches replayed through `apply_deltas` after the load.
    pub wal_batches_replayed: usize,
    /// Entries those batches carried.
    pub wal_entries_replayed: usize,
    /// Torn-tail bytes the WAL replay discarded.
    pub wal_dropped_bytes: u64,
}

/// Saves the whole server into `dir` (created if missing): router file,
/// one `PQSS` file per shard, and a **reset** (empty) delta WAL. The cut
/// is consistent — taken under the writer lock, so it can never
/// interleave with an `apply_deltas`.
pub fn save_server(server: &ShardedPqsDa, dir: &Path) -> Result<SaveReport, SnapError> {
    std::fs::create_dir_all(dir)?;
    let _cut = server.writer_cut();
    let config = server.config();
    let router = server.router_log();
    save_router(
        &router,
        config.shards as u64,
        key_code(config.key),
        &dir.join(ROUTER_FILE),
    )?;
    let mut generations = Vec::with_capacity(config.shards);
    for s in 0..config.shards {
        let snap = server.shard_snapshot(s);
        let meta = save_engine(
            &snap.engine,
            s as u64,
            snap.tag.generation,
            &dir.join(shard_file(s)),
        )?;
        debug_assert_eq!(meta.graph_digest, snap.tag.graph_digest);
        debug_assert_eq!(meta.profile_digest, snap.tag.profile_digest);
        generations.push(snap.tag.generation);
    }
    // The snapshot now owns everything up to the cut: restart the WAL.
    WalWriter::create(&dir.join(WAL_FILE))?;
    let mut total_bytes = std::fs::metadata(dir.join(ROUTER_FILE))?.len();
    for s in 0..config.shards {
        total_bytes += std::fs::metadata(dir.join(shard_file(s)))?.len();
    }
    Ok(SaveReport {
        generations,
        total_bytes,
    })
}

/// Reassembles a server from `dir`: router + shard files (each digest-
/// verified, loaded through mmap when `use_mmap`), then WAL replay
/// batch-by-batch through the ordinary `apply_deltas` pipeline. Shard
/// count and partition key come from the router file — the `config`
/// argument supplies everything runtime-only (build recipe, fault
/// knobs, queue size, coalescing).
pub fn load_server(
    dir: &Path,
    mut config: ServeConfig,
    use_mmap: bool,
) -> Result<(ShardedPqsDa, LoadReport), SnapError> {
    let (router, shards, key, router_info) = load_router(&dir.join(ROUTER_FILE))?;
    config.shards =
        usize::try_from(shards).map_err(|_| SnapError::BadLayout("shard count exceeds usize"))?;
    if config.shards == 0 {
        return Err(SnapError::BadLayout("router file declares zero shards"));
    }
    config.key = key_from_code(key)?;

    let mut snapshots = Vec::with_capacity(config.shards);
    let mut infos = Vec::with_capacity(config.shards);
    for s in 0..config.shards {
        let (engine, meta, info) =
            load_engine(&dir.join(shard_file(s)), config.build.config, use_mmap)?;
        if meta.shard != s as u64 {
            return Err(SnapError::BadLayout(
                "shard file numbered for another shard",
            ));
        }
        snapshots.push(ShardSnapshot {
            engine,
            tag: ShardTag {
                shard: s,
                generation: meta.generation,
                graph_digest: meta.graph_digest,
                profile_digest: meta.profile_digest,
            },
        });
        infos.push(info);
    }
    let server = ShardedPqsDa::from_snapshots(router, snapshots, config);

    // Replay the post-snapshot suffix batch-by-batch, reproducing the
    // original drain boundaries (each WAL frame was one apply cycle).
    let replay = WalReader::replay(&dir.join(WAL_FILE))?;
    let mut entries_replayed = 0;
    for batch in &replay.batches {
        for e in batch {
            entries_replayed += 1;
            // The queue is freshly built with the configured capacity;
            // a WAL batch that was once accepted must be re-accepted.
            assert!(server.ingest(e.clone()), "WAL replay overran the queue");
        }
        server.apply_deltas();
    }
    Ok((
        server,
        LoadReport {
            shards: infos,
            router: router_info,
            wal_batches_replayed: replay.batches.len(),
            wal_entries_replayed: entries_replayed,
            wal_dropped_bytes: replay.dropped_bytes,
        },
    ))
}

/// What one [`Snapshotter::commit`] did beyond the swap itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitReport {
    /// The underlying `apply_deltas` report.
    pub swap: SwapReport,
    /// The WAL batch id the drained entries were logged as (`None` when
    /// nothing was drained).
    pub wal_batch: Option<u64>,
    /// Whether this commit crossed the policy threshold and wrote a
    /// fresh full snapshot (which also reset the WAL).
    pub saved_snapshot: bool,
}

/// The background snapshot policy: every delta batch is WAL-logged, and
/// every `every_entries` applied entries the whole server is re-saved
/// (atomic rename) and the WAL reset — bounding both restart replay
/// work and WAL growth.
pub struct Snapshotter {
    dir: PathBuf,
    every_entries: usize,
    wal: WalWriter,
    applied_since_save: usize,
}

impl Snapshotter {
    /// Saves an initial full snapshot of `server` into `dir` and returns
    /// a snapshotter whose WAL continues from that cut.
    pub fn create(
        server: &ShardedPqsDa,
        dir: &Path,
        every_entries: usize,
    ) -> Result<Self, SnapError> {
        save_server(server, dir)?;
        // `save_server` reset the WAL; reopen it as ours.
        let replay = WalReader::replay(&dir.join(WAL_FILE))?;
        let wal = WalWriter::resume(&dir.join(WAL_FILE), &replay)?;
        Ok(Snapshotter {
            dir: dir.to_path_buf(),
            every_entries: every_entries.max(1),
            wal,
            applied_since_save: 0,
        })
    }

    /// Resumes after [`load_server`]: reopens the WAL at its valid
    /// prefix (truncating any torn tail) so new batches append after the
    /// replayed ones.
    pub fn resume(dir: &Path, every_entries: usize) -> Result<Self, SnapError> {
        let replay = WalReader::replay(&dir.join(WAL_FILE))?;
        let applied = replay.batches.iter().map(Vec::len).sum();
        let wal = WalWriter::resume(&dir.join(WAL_FILE), &replay)?;
        Ok(Snapshotter {
            dir: dir.to_path_buf(),
            every_entries: every_entries.max(1),
            wal,
            applied_since_save: applied,
        })
    }

    /// One write cycle: drain + apply the queued deltas, append the
    /// drained batch to the WAL, and — once `every_entries` entries have
    /// accumulated since the last full save — write a fresh snapshot and
    /// reset the WAL.
    pub fn commit(&mut self, server: &ShardedPqsDa) -> Result<CommitReport, SnapError> {
        let swap = server.apply_deltas();
        let wal_batch = if swap.drained_entries.is_empty() {
            None
        } else {
            let id = self.wal.append(&swap.drained_entries)?;
            self.applied_since_save += swap.drained_entries.len();
            Some(id)
        };
        let saved_snapshot = self.applied_since_save >= self.every_entries;
        if saved_snapshot {
            save_server(server, &self.dir)?;
            let replay = WalReader::replay(&self.dir.join(WAL_FILE))?;
            self.wal = WalWriter::resume(&self.dir.join(WAL_FILE), &replay)?;
            self.applied_since_save = 0;
        }
        Ok(CommitReport {
            swap,
            wal_batch,
            saved_snapshot,
        })
    }

    /// Entries applied (and WAL-logged) since the last full save.
    pub fn applied_since_save(&self) -> usize {
        self.applied_since_save
    }

    /// The snapshot directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}
