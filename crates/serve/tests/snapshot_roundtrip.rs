//! Snapshot-store integration: a server saved to disk and reassembled
//! from it must be indistinguishable from the original — bit-identical
//! replies, same tags — across shard counts, with WAL replay covering
//! the post-snapshot suffix, and every corruption failing closed.

use pqsda_baselines::SuggestRequest;
use pqsda_querylog::synth::{generate, SynthConfig};
use pqsda_querylog::{LogEntry, UserId};
use pqsda_serve::store::{load_server, save_server, shard_file, Snapshotter, WAL_FILE};
use pqsda_serve::{ServeConfig, ServeReply, ShardedPqsDa};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pqsda-snap-rt-{}-{name}", std::process::id()))
}

fn build_server(seed: u64, shards: usize) -> (ShardedPqsDa, Vec<SuggestRequest>) {
    let synth = generate(&SynthConfig::tiny(seed));
    let entries = synth.log.entries();
    let server = ShardedPqsDa::build(
        &entries,
        ServeConfig {
            shards,
            ..ServeConfig::default()
        },
    );
    let reqs: Vec<SuggestRequest> = synth
        .log
        .records()
        .iter()
        .step_by(9)
        .map(|r| SuggestRequest::simple(r.query, 8).for_user(r.user))
        .collect();
    (server, reqs)
}

fn assert_replies_equal(a: &ServeReply, b: &ServeReply, what: &str) {
    assert_eq!(a.tags, b.tags, "{what}: tags");
    assert_eq!(a.coverage, b.coverage, "{what}: coverage");
    assert_eq!(
        a.suggestions.len(),
        b.suggestions.len(),
        "{what}: suggestion count"
    );
    for (i, ((qa, sa), (qb, sb))) in a.suggestions.iter().zip(&b.suggestions).enumerate() {
        assert_eq!(qa, qb, "{what}: suggestion {i}");
        assert_eq!(sa.to_bits(), sb.to_bits(), "{what}: score bits at {i}");
    }
}

fn fresh_deltas(server: &ShardedPqsDa, n: usize) -> Vec<LogEntry> {
    let t0 = 1 + server
        .router_log()
        .records()
        .iter()
        .map(|r| r.timestamp)
        .max()
        .unwrap_or(0);
    (0..n)
        .map(|i| {
            LogEntry::new(
                UserId(700 + i as u32),
                format!("snapshot delta {i}"),
                Some("snap.example"),
                t0 + i as u64,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Save → load → every reply bit-identical, across shard counts and
    /// both load paths (mmap and aligned-read fallback), including after
    /// an identical post-load delta batch on both sides.
    #[test]
    fn save_load_roundtrip_is_bit_identical(
        seed in 100u64..104,
        shards_idx in 0usize..3,
    ) {
        let shards = [1usize, 2, 4][shards_idx];
        let dir = tmp_dir(&format!("prop-{seed}-{shards}"));
        let (server, reqs) = build_server(seed, shards);
        let before: Vec<ServeReply> = reqs.iter().map(|r| server.suggest(r)).collect();
        save_server(&server, &dir).expect("save");

        for use_mmap in [true, false] {
            let (loaded, report) =
                load_server(&dir, ServeConfig::default(), use_mmap).expect("load");
            prop_assert_eq!(loaded.config().shards, shards);
            prop_assert_eq!(report.shards.len(), shards);
            prop_assert_eq!(report.wal_batches_replayed, 0);
            for info in &report.shards {
                prop_assert_eq!(info.mapped, use_mmap && cfg!(unix));
                prop_assert!(info.file_len > 0);
            }
            // Tags registered in the loaded server are exactly the live ones.
            prop_assert_eq!(loaded.shard_tags(), server.shard_tags());
            for (req, want) in reqs.iter().zip(&before) {
                assert_replies_equal(&loaded.suggest(req), want, "post-load");
            }
            // The same delta applied to both sides keeps them identical.
            for e in fresh_deltas(&server, 3) {
                prop_assert!(loaded.ingest(e));
            }
            loaded.apply_deltas();
            let twin = {
                let (twin, _) = load_server(&dir, ServeConfig::default(), use_mmap).unwrap();
                for e in fresh_deltas(&server, 3) {
                    prop_assert!(twin.ingest(e));
                }
                twin.apply_deltas();
                twin
            };
            for req in &reqs {
                assert_replies_equal(
                    &loaded.suggest(req),
                    &twin.suggest(req),
                    "post-load delta determinism",
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The snapshotter WAL-logs every applied batch; a restart that loads
/// snapshot + WAL lands exactly where the live server is, also when a
/// crash mid-append left a torn frame at the end of the WAL.
#[test]
fn wal_replay_reaches_the_live_state() {
    let dir = tmp_dir("wal-replay");
    let (server, reqs) = build_server(7, 2);
    // Threshold high enough that no intermediate full save triggers:
    // both batches live only in the WAL.
    let mut snapper = Snapshotter::create(&server, &dir, 1_000_000).expect("create");
    for (b, n) in [4usize, 2].into_iter().enumerate() {
        // fresh_deltas keys off the router's max timestamp, so batch 2
        // lands after batch 1 chronologically.
        for e in fresh_deltas(&server, n) {
            assert!(server.ingest(e));
        }
        let report = snapper.commit(&server).expect("commit");
        assert!(!report.saved_snapshot);
        assert_eq!(report.wal_batch, Some(b as u64));
    }
    assert_eq!(snapper.applied_since_save(), 6);

    let (loaded, report) = load_server(&dir, ServeConfig::default(), true).expect("load");
    assert_eq!(report.wal_batches_replayed, 2);
    assert_eq!(report.wal_entries_replayed, 6);
    assert_eq!(report.wal_dropped_bytes, 0);
    assert_eq!(loaded.shard_tags(), server.shard_tags());
    for req in &reqs {
        assert_replies_equal(&loaded.suggest(req), &server.suggest(req), "wal replay");
    }
    // The replayed deltas are queryable by text in both.
    let q = server
        .find_query("snapshot delta 0")
        .expect("delta interned");
    assert_eq!(loaded.find_query("snapshot delta 0"), Some(q));

    // A torn tail (a frame cut off after its magic) is dropped; the two
    // whole batches before it still replay to the live state.
    let wal_path = dir.join(WAL_FILE);
    let mut wal = std::fs::read(&wal_path).unwrap();
    wal.extend_from_slice(b"FRAMtorn");
    std::fs::write(&wal_path, &wal).unwrap();
    let (torn, report) = load_server(&dir, ServeConfig::default(), true).expect("torn-tail load");
    assert_eq!(report.wal_batches_replayed, 2);
    assert_eq!(report.wal_entries_replayed, 6);
    assert!(report.wal_dropped_bytes > 0, "torn tail not dropped");
    for req in &reqs {
        assert_replies_equal(&torn.suggest(req), &server.suggest(req), "torn tail");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Crossing the policy threshold writes a fresh snapshot and resets the
/// WAL, so the next restart replays nothing.
#[test]
fn snapshot_policy_resets_the_wal() {
    let dir = tmp_dir("policy");
    let (server, _) = build_server(8, 2);
    let mut snapper = Snapshotter::create(&server, &dir, 3).expect("create");
    for e in fresh_deltas(&server, 4) {
        assert!(server.ingest(e));
    }
    let report = snapper.commit(&server).expect("commit");
    assert!(report.saved_snapshot, "4 applied ≥ threshold 3");
    assert_eq!(snapper.applied_since_save(), 0);
    let (_, load_report) = load_server(&dir, ServeConfig::default(), true).expect("load");
    assert_eq!(load_report.wal_batches_replayed, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A flipped byte in any shard file refuses to load — the server never
/// comes up on corrupt state.
#[test]
fn corrupt_shard_file_fails_closed() {
    let dir = tmp_dir("corrupt");
    let (server, _) = build_server(9, 2);
    save_server(&server, &dir).expect("save");
    let path = dir.join(shard_file(0));
    let clean = std::fs::read(&path).unwrap();
    for frac in [3, 5, 7] {
        let at = clean.len() / frac;
        let mut corrupt = clean.clone();
        corrupt[at] ^= 0x10;
        if corrupt == clean {
            continue;
        }
        std::fs::write(&path, &corrupt).unwrap();
        assert!(
            load_server(&dir, ServeConfig::default(), true).is_err(),
            "flip at {at} loaded anyway"
        );
    }
    std::fs::remove_file(&path).unwrap();
    assert!(
        load_server(&dir, ServeConfig::default(), true).is_err(),
        "missing shard file must fail"
    );
    std::fs::remove_dir_all(&dir).ok();
}
