//! Shard routing: consistent hashing of users, queries and raw log
//! entries onto N independent shards via a virtual-node hash ring.
//!
//! Routing must be a pure function of the *content* being routed — never
//! of interning order, process state or `std::hash`'s per-process seed —
//! so the same user lands on the same shard across restarts and across
//! the router/shard rebuilds of the swap protocol. Users route by their
//! external id; queries route by their **normalized text** (the id a
//! query gets is an artifact of interning order and would differ between
//! the global log and a shard's partition log).
//!
//! ## Why a ring instead of `hash % N`
//!
//! Modulo routing reshuffles nearly every key when the shard count
//! changes: going from N to N+1 shards moves ~N/(N+1) of all users, which
//! means re-training almost every UPM profile document in a resize. The
//! [`HashRing`] places [`VNODES_PER_SHARD`] deterministic FNV-1a points
//! per shard on a `u64` circle and routes each key to the first point at
//! or after its hash; adding a shard only claims the arc segments its own
//! points cut out, so an N→N+1 resize moves ~1/(N+1) of the keys and
//! every other shard's partition (and engine state) carries over intact.
//! Rings are canonical per shard count — two processes, or two builds of
//! the same process, always agree.

use pqsda_querylog::hash::{fnv1a_bytes, fnv1a_u64, FNV_OFFSET};
use pqsda_querylog::{text, LogEntry, QueryId, QueryLog, UserId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Which field of a log entry determines its shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PartitionKey {
    /// Partition by user: each user's whole history (sessions, clicks and
    /// therefore their UPM profile document) lives in exactly one shard,
    /// so personalization stays intact. Popular queries appear in many
    /// shards and anonymous requests scatter-gather across all of them.
    #[default]
    User,
    /// Partition by query text: every record of a query lands in one home
    /// shard, so a request touches exactly one shard. Users spread across
    /// shards (a profile is trained from the user's in-shard records only).
    Query,
}

/// Virtual nodes per shard. More points smooth the load split (the
/// largest arc shrinks like `log(N·V)/(N·V)`) at the cost of a longer
/// sorted array; 64 keeps the max/min shard load ratio under ~1.3 for
/// small N while the whole ring stays a few KiB.
pub const VNODES_PER_SHARD: usize = 64;

/// Finalizer scattering FNV-1a states uniformly over the circle (the
/// splitmix64 avalanche step, public-domain constants). FNV alone is a
/// *keyed identity* on small inputs — `fnv1a_u64(OFFSET, u)` is
/// `(OFFSET ⊕ u) · p⁸ mod 2⁶⁴`, so consecutive ids form an arithmetic
/// progression that clumps onto a handful of arcs. Modulo routing never
/// noticed (the low bits still vary); circle *ordering* does, so every
/// hash crossing the ring boundary gets avalanched first.
#[inline]
fn scatter(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// A consistent-hash ring: `shards × VNODES_PER_SHARD` deterministic
/// points on the `u64` circle, each owned by one shard.
///
/// Point placement is pure FNV-1a over `(shard, vnode)` plus the
/// [`scatter`] finalizer — no RNG, no process state — so every process
/// builds the identical ring for a given shard count. Lookup scatters the
/// key's hash the same way, then binary-searches for the first point at
/// or after it, wrapping past the top of the circle.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// Sorted `(point, shard)` pairs; ties (astronomically unlikely with
    /// 64-bit points) order by shard, keeping the sort fully determined.
    points: Vec<(u64, u32)>,
    shards: usize,
}

impl HashRing {
    /// The ring for `shards` shards with `vnodes` points per shard.
    pub fn new(shards: usize, vnodes: usize) -> Self {
        assert!(shards > 0, "a ring needs at least one shard");
        assert!(vnodes > 0, "a ring needs at least one point per shard");
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards as u64 {
            let h = fnv1a_u64(FNV_OFFSET, shard);
            for vnode in 0..vnodes as u64 {
                points.push((scatter(fnv1a_u64(h, vnode)), shard as u32));
            }
        }
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// The canonical ring for `shards` shards ([`VNODES_PER_SHARD`] points
    /// each), memoized per shard count — every routing helper in this
    /// module resolves through it, so building one is a one-time cost.
    pub fn canonical(shards: usize) -> Arc<HashRing> {
        static RINGS: OnceLock<Mutex<HashMap<usize, Arc<HashRing>>>> = OnceLock::new();
        let rings = RINGS.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = rings.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(shards)
                .or_insert_with(|| Arc::new(HashRing::new(shards, VNODES_PER_SHARD))),
        )
    }

    /// The shard owning `hash` (a raw FNV-1a state): the first ring point
    /// at or after its scattered position, wrapping around the top of the
    /// circle.
    pub fn shard_of_hash(&self, hash: u64) -> usize {
        let key = scatter(hash);
        let i = self.points.partition_point(|&(p, _)| p < key);
        let (_, shard) = self.points[if i == self.points.len() { 0 } else { i }];
        shard as usize
    }

    /// Routes raw bytes (hashed with FNV-1a) to their shard.
    pub fn shard_of_bytes(&self, bytes: &[u8]) -> usize {
        self.shard_of_hash(fnv1a_bytes(bytes))
    }

    /// Number of shards the ring routes onto.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Total points on the circle (`shards × vnodes`).
    pub fn num_points(&self) -> usize {
        self.points.len()
    }
}

/// The home shard of a user. Pure in `(user, shards)`.
pub fn route_user(user: UserId, shards: usize) -> usize {
    assert!(shards > 0, "route_user needs at least one shard");
    HashRing::canonical(shards).shard_of_hash(fnv1a_u64(FNV_OFFSET, u64::from(user.0)))
}

/// The home shard of a *normalized* query text. Pure in `(text, shards)`.
pub fn route_query_text(normalized: &str, shards: usize) -> usize {
    assert!(shards > 0, "route_query_text needs at least one shard");
    HashRing::canonical(shards).shard_of_bytes(normalized.as_bytes())
}

/// The shards a request for `normalized` consults: its home shard under
/// the query key (which holds every record of it), every shard under the
/// user key (a query's evidence spreads across users' shards).
pub fn request_targets(key: PartitionKey, normalized: &str, shards: usize) -> Vec<usize> {
    match key {
        PartitionKey::Query => vec![route_query_text(normalized, shards)],
        PartitionKey::User => (0..shards).collect(),
    }
}

/// The home shard of an interned query: routes by its normalized text, so
/// the answer is independent of which log interned the id.
pub fn route_query(log: &QueryLog, query: QueryId, shards: usize) -> usize {
    route_query_text(log.query_text(query), shards)
}

/// Splits raw entries into per-shard partitions by the chosen key,
/// preserving relative order within each partition. Every entry lands in
/// exactly one partition.
pub fn partition_entries(
    entries: &[LogEntry],
    key: PartitionKey,
    shards: usize,
) -> Vec<Vec<LogEntry>> {
    assert!(shards > 0, "partition_entries needs at least one shard");
    let ring = HashRing::canonical(shards);
    let mut parts: Vec<Vec<LogEntry>> = (0..shards).map(|_| Vec::new()).collect();
    for e in entries {
        let s = match key {
            PartitionKey::User => ring.shard_of_hash(fnv1a_u64(FNV_OFFSET, u64::from(e.user.0))),
            PartitionKey::Query => ring.shard_of_bytes(text::normalize(&e.query).as_bytes()),
        };
        parts[s].push(e.clone());
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for raw in 0..200u32 {
                let s = route_user(UserId(raw), shards);
                assert!(s < shards);
                assert_eq!(s, route_user(UserId(raw), shards));
            }
            for t in ["sun", "sun java", "solar panels", ""] {
                let s = route_query_text(t, shards);
                assert!(s < shards);
                assert_eq!(s, route_query_text(t, shards));
            }
        }
    }

    #[test]
    fn one_shard_takes_everything() {
        for raw in 0..50u32 {
            assert_eq!(route_user(UserId(raw), 1), 0);
        }
        assert_eq!(route_query_text("anything", 1), 0);
    }

    #[test]
    fn routing_spreads_across_shards() {
        // Not a uniformity proof — just that the ring doesn't collapse
        // consecutive ids onto one shard.
        let shards = 4;
        let mut hit = vec![false; shards];
        for raw in 0..64u32 {
            hit[route_user(UserId(raw), shards)] = true;
        }
        assert!(hit.iter().all(|&h| h), "all shards should receive users");
    }

    #[test]
    fn ring_matches_helper_functions() {
        let ring = HashRing::canonical(4);
        assert_eq!(ring.shards(), 4);
        assert_eq!(ring.num_points(), 4 * VNODES_PER_SHARD);
        for raw in 0..100u32 {
            assert_eq!(
                ring.shard_of_hash(fnv1a_u64(FNV_OFFSET, u64::from(raw))),
                route_user(UserId(raw), 4)
            );
        }
        for t in ["sun", "jdk download", "solar cell"] {
            assert_eq!(ring.shard_of_bytes(t.as_bytes()), route_query_text(t, 4));
        }
    }

    #[test]
    fn ring_growth_only_steals_a_fraction_of_keys() {
        // The consistent-hashing payoff: going 4 → 5 shards must move
        // far fewer keys than the ~4/5 a modulo router reshuffles, and
        // every moved key must land on the *new* shard (existing shards
        // never trade keys with each other).
        let before = HashRing::canonical(4);
        let after = HashRing::canonical(5);
        let total = 4000u32;
        let mut moved = 0u32;
        for raw in 0..total {
            let h = fnv1a_u64(FNV_OFFSET, u64::from(raw));
            let (b, a) = (before.shard_of_hash(h), after.shard_of_hash(h));
            if b != a {
                moved += 1;
                assert_eq!(a, 4, "key moved between two pre-existing shards");
            }
        }
        // Expected share is 1/5 = 800; allow generous slack but stay far
        // below the modulo router's ~3200.
        assert!(
            (400..1600).contains(&moved),
            "moved {moved} of {total} keys — ring balance is off"
        );
    }

    #[test]
    fn partition_is_exhaustive_and_disjoint() {
        let entries: Vec<LogEntry> = (0..40)
            .map(|i| {
                LogEntry::new(
                    UserId(i % 7),
                    format!("query {}", i % 11),
                    Some("u.com"),
                    u64::from(i) * 10,
                )
            })
            .collect();
        for key in [PartitionKey::User, PartitionKey::Query] {
            for shards in [1usize, 2, 4] {
                let parts = partition_entries(&entries, key, shards);
                assert_eq!(parts.len(), shards);
                assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), entries.len());
                // Same-key entries stay together.
                for (s, part) in parts.iter().enumerate() {
                    for e in part {
                        let home = match key {
                            PartitionKey::User => route_user(e.user, shards),
                            PartitionKey::Query => {
                                route_query_text(&text::normalize(&e.query), shards)
                            }
                        };
                        assert_eq!(home, s);
                    }
                }
            }
        }
    }
}
