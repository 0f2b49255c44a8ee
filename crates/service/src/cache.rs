//! Sharded memoization cache for canonical schedules.
//!
//! Entries live in canonical coordinates (see [`crate::canon`]): the stored
//! order and assignment refer to canonical indices, so one entry serves
//! every block isomorphic to the one that populated it. Lookup cost is one
//! shard-mutex acquisition plus a `HashMap` probe — O(1) in the block size
//! — and hit translation back into tuple ids is O(n + edges), dominated by
//! the legality re-verification the engine performs anyway.
//!
//! Eviction is least-recently-used per shard, driven by a global monotonic
//! use-stamp; shards bound both memory and lock contention. An optional
//! on-disk layer persists entries as JSON (`pipesched-json`), relying on the
//! build-stable FNV hashing of the keys.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use pipesched_core::Backend;
use pipesched_json::Json;

use crate::canon::CanonKey;
use crate::engine::Tier;

/// A memoized schedule in canonical coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// Canonical indices in issue order.
    pub order_c: Vec<u32>,
    /// Pipeline index per canonical index (`u32::MAX` ⇒ no pipeline).
    pub assignment_c: Vec<u32>,
    /// η per position of `order_c`.
    pub etas: Vec<u32>,
    /// Total NOPs μ of the stored schedule.
    pub nops: u32,
    /// True when the stored schedule is provably optimal.
    pub optimal: bool,
    /// Node budget the producing search ran under; a non-optimal entry only
    /// satisfies requests whose budget is no larger.
    pub budget_nodes: u64,
    /// Which tier produced the entry.
    pub tier: Tier,
    /// Which solving backend produced the entry (B&B for the heuristic
    /// tiers; SAT when the portfolio answered). Hits inherit it.
    pub backend: Backend,
    /// Digest of the optimality certificate backing the entry, when the
    /// producing engine ran with proving enabled (see
    /// [`crate::engine::EngineConfig::prove`]).
    pub proof_digest: Option<u64>,
}

impl CacheEntry {
    /// True when this entry answers a request allowed `budget_nodes` search
    /// nodes: optimal entries answer everything; a truncated entry must
    /// have been given at least as much budget as the request offers,
    /// otherwise re-searching could return a better schedule.
    pub fn satisfies(&self, budget_nodes: u64) -> bool {
        self.optimal || self.budget_nodes >= budget_nodes
    }
}

struct Shard {
    map: HashMap<CanonKey, (CacheEntry, u64)>,
    capacity: usize,
}

impl Shard {
    fn evict_lru(&mut self) {
        if let Some(key) = self
            .map
            .iter()
            .min_by_key(|(_, (_, stamp))| *stamp)
            .map(|(k, _)| *k)
        {
            self.map.remove(&key);
        }
    }
}

/// Sharded LRU cache keyed by [`CanonKey`].
pub struct ScheduleCache {
    shards: Vec<Mutex<Shard>>,
    stamp: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ScheduleCache {
    /// A cache holding at most `capacity` entries across `shards` shards
    /// (both floored at 1; per-shard capacity is the ceiling division so
    /// the total is never below `capacity`).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.max(1).div_ceil(shards);
        ScheduleCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        capacity: per_shard,
                    })
                })
                .collect(),
            stamp: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &CanonKey) -> &Mutex<Shard> {
        // The key hash already mixes well; fold in n for degenerate cases.
        let i = (key.hash ^ u64::from(key.n)) as usize % self.shards.len();
        &self.shards[i]
    }

    /// Look up `key`, refreshing its LRU stamp on success. `budget_nodes`
    /// filters entries that cannot satisfy the request (see
    /// [`CacheEntry::satisfies`]).
    pub fn get(&self, key: &CanonKey, budget_nodes: u64) -> Option<CacheEntry> {
        let mut shard = self.shard_of(key).lock();
        match shard.map.get_mut(key) {
            Some((entry, stamp)) if entry.satisfies(budget_nodes) => {
                *stamp = self.stamp.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.clone())
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or replace) the entry for `key`, evicting the shard's LRU
    /// entry if it is full.
    pub fn insert(&self, key: CanonKey, entry: CacheEntry) {
        let mut shard = self.shard_of(&key).lock();
        let stamp = self.stamp.fetch_add(1, Ordering::Relaxed);
        if !shard.map.contains_key(&key) && shard.map.len() >= shard.capacity {
            shard.evict_lru();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shard.map.insert(key, (entry, stamp));
    }

    /// Drop the entry for `key` (used when a validated hit turns out to be
    /// a hash collision: the entry answers some *other* block).
    pub fn remove(&self, key: &CanonKey) {
        self.shard_of(key).lock().map.remove(key);
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Live entries per shard (for the stats exposition; shows skew).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lock().map.len()).collect()
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime eviction count.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Serialize every entry to the persisted-cache JSON document.
    pub fn to_json(&self) -> Json {
        let mut entries = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for (key, (entry, _)) in shard.map.iter() {
                let mut doc = pipesched_json::json_object![
                    ("hash", format!("{:016x}", key.hash)),
                    ("n", key.n),
                    ("machine_fp", format!("{:016x}", key.machine_fp)),
                    ("order", entry.order_c.clone()),
                    ("assignment", entry.assignment_c.clone()),
                    ("etas", entry.etas.clone()),
                    ("nops", entry.nops),
                    ("optimal", entry.optimal),
                    ("budget", format!("{:x}", entry.budget_nodes)),
                    ("tier", entry.tier.name()),
                    ("backend", entry.backend.name()),
                ];
                if let Some(digest) = entry.proof_digest {
                    if let Json::Object(pairs) = &mut doc {
                        pairs.push((
                            "proof_digest".to_string(),
                            Json::Str(format!("{digest:016x}")),
                        ));
                    }
                }
                entries.push(doc);
            }
        }
        pipesched_json::json_object![
            ("version", CACHE_VERSION),
            ("entries", Json::Array(entries)),
        ]
    }

    /// Load entries from a persisted-cache JSON document, merging into the
    /// current contents. Returns the number of entries loaded; malformed
    /// entries are skipped, any version but [`CACHE_VERSION`] is an error.
    pub fn load_json(&self, doc: &Json) -> Result<usize, String> {
        match doc.get("version").and_then(Json::as_i64) {
            Some(CACHE_VERSION) => {}
            other => return Err(format!("unsupported cache version {other:?}")),
        }
        let entries = doc
            .get("entries")
            .and_then(Json::as_array)
            .ok_or("cache document has no entries array")?;
        let mut loaded = 0usize;
        for e in entries {
            if let Some((key, entry)) = parse_entry(e) {
                self.insert(key, entry);
                loaded += 1;
            }
        }
        Ok(loaded)
    }

    /// Persist the cache to `path` (compact JSON).
    pub fn save_to_path(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.to_json().to_compact()).map_err(|e| format!("write {path}: {e}"))
    }

    /// Merge a persisted cache file into this cache. A missing file is not
    /// an error (first run); malformed JSON is.
    pub fn load_from_path(&self, path: &str) -> Result<usize, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(format!("read {path}: {e}")),
        };
        let doc = pipesched_json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
        self.load_json(&doc)
    }
}

/// The persisted-cache format. Version 2 keys hash a word at a time
/// (`canon`'s mixer); version 1 keys were FNV-1a, so its entries can never
/// match a key computed now, and a version-1 file is refused like any
/// other unknown version rather than loaded as dead weight.
pub const CACHE_VERSION: i64 = 2;

fn hex_u64(doc: &Json, key: &str) -> Option<u64> {
    u64::from_str_radix(doc.get(key)?.as_str()?, 16).ok()
}

fn u32_array(doc: &Json, key: &str) -> Option<Vec<u32>> {
    doc.get(key)?
        .as_array()?
        .iter()
        .map(|v| u32::try_from(v.as_i64()?).ok())
        .collect()
}

fn parse_entry(e: &Json) -> Option<(CanonKey, CacheEntry)> {
    let key = CanonKey {
        hash: hex_u64(e, "hash")?,
        n: u32::try_from(e.get("n")?.as_i64()?).ok()?,
        machine_fp: hex_u64(e, "machine_fp")?,
    };
    let order_c = u32_array(e, "order")?;
    let assignment_c = u32_array(e, "assignment")?;
    let etas = u32_array(e, "etas")?;
    if order_c.len() != key.n as usize
        || assignment_c.len() != key.n as usize
        || etas.len() != key.n as usize
    {
        return None;
    }
    let entry = CacheEntry {
        order_c,
        assignment_c,
        etas,
        nops: u32::try_from(e.get("nops")?.as_i64()?).ok()?,
        optimal: e.get("optimal")?.as_bool()?,
        budget_nodes: hex_u64(e, "budget")?,
        tier: Tier::from_name(e.get("tier")?.as_str()?)?,
        // Optional: caches persisted before the SAT portfolio existed
        // carry no backend field; everything back then was the B&B.
        backend: e
            .get("backend")
            .and_then(Json::as_str)
            .and_then(Backend::from_name)
            .unwrap_or(Backend::Bnb),
        // Optional: entries persisted by a non-proving engine have none.
        proof_digest: hex_u64(e, "proof_digest"),
    };
    Some((key, entry))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(hash: u64) -> CanonKey {
        CanonKey {
            hash,
            n: 3,
            machine_fp: 7,
        }
    }

    fn entry(nops: u32, optimal: bool) -> CacheEntry {
        CacheEntry {
            order_c: vec![0, 1, 2],
            assignment_c: vec![0, u32::MAX, 1],
            etas: vec![0, 1, 0],
            nops,
            optimal,
            budget_nodes: 100,
            tier: Tier::Bnb,
            backend: Backend::Bnb,
            proof_digest: None,
        }
    }

    #[test]
    fn get_after_insert_round_trips() {
        let cache = ScheduleCache::new(8, 2);
        cache.insert(key(1), entry(2, true));
        assert_eq!(cache.get(&key(1), u64::MAX), Some(entry(2, true)));
        assert_eq!(cache.get(&key(2), u64::MAX), None);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn budget_filter_rejects_underfunded_entries() {
        let cache = ScheduleCache::new(8, 1);
        cache.insert(key(1), entry(2, false)); // budget_nodes = 100
        assert!(cache.get(&key(1), 50).is_some(), "smaller budget: ok");
        assert!(cache.get(&key(1), 100).is_some(), "equal budget: ok");
        assert!(
            cache.get(&key(1), 1000).is_none(),
            "larger budget must re-search"
        );
        // An optimal entry satisfies any budget.
        cache.insert(key(1), entry(2, true));
        assert!(cache.get(&key(1), u64::MAX).is_some());
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let cache = ScheduleCache::new(2, 1);
        cache.insert(key(1), entry(1, true));
        cache.insert(key(2), entry(2, true));
        // Touch key 1 so key 2 is the LRU.
        assert!(cache.get(&key(1), u64::MAX).is_some());
        cache.insert(key(3), entry(3, true));
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&key(1), u64::MAX).is_some());
        assert!(cache.get(&key(2), u64::MAX).is_none(), "LRU was evicted");
        assert!(cache.get(&key(3), u64::MAX).is_some());
    }

    #[test]
    fn json_round_trip_preserves_backend_and_legacy_entries_default_to_bnb() {
        let cache = ScheduleCache::new(8, 1);
        let mut sat_entry = entry(2, true);
        sat_entry.backend = Backend::Sat;
        cache.insert(key(21), sat_entry.clone());
        let parsed = pipesched_json::parse(&cache.to_json().to_compact()).unwrap();
        let other = ScheduleCache::new(8, 1);
        assert_eq!(other.load_json(&parsed).unwrap(), 1);
        assert_eq!(other.get(&key(21), u64::MAX), Some(sat_entry));
        // A pre-portfolio document without the field loads as B&B.
        let legacy = r#"{"version": 2, "entries": [{
            "hash": "0000000000000015", "n": 3, "machine_fp": "0000000000000007",
            "order": [0, 1, 2], "assignment": [0, 4294967295, 1],
            "etas": [0, 1, 0], "nops": 2, "optimal": true,
            "budget": "64", "tier": "bnb"}]}"#;
        let third = ScheduleCache::new(8, 1);
        assert_eq!(
            third
                .load_json(&pipesched_json::parse(legacy).unwrap())
                .unwrap(),
            1
        );
        assert_eq!(
            third.get(&key(0x15), u64::MAX).unwrap().backend,
            Backend::Bnb
        );
    }

    #[test]
    fn json_round_trip_preserves_proof_digest() {
        let cache = ScheduleCache::new(8, 1);
        let mut with_proof = entry(2, true);
        with_proof.proof_digest = Some(0x0123_4567_89ab_cdef);
        cache.insert(key(11), with_proof.clone());
        let parsed = pipesched_json::parse(&cache.to_json().to_compact()).unwrap();
        let other = ScheduleCache::new(8, 1);
        assert_eq!(other.load_json(&parsed).unwrap(), 1);
        assert_eq!(other.get(&key(11), u64::MAX), Some(with_proof));
    }

    #[test]
    fn json_round_trip_preserves_entries() {
        let cache = ScheduleCache::new(8, 2);
        cache.insert(key(0xdead_beef), entry(2, true));
        cache.insert(key(0xfeed_f00d), entry(5, false));
        let doc = cache.to_json();
        let text = doc.to_compact();
        let parsed = pipesched_json::parse(&text).unwrap();
        let other = ScheduleCache::new(8, 3);
        assert_eq!(other.load_json(&parsed).unwrap(), 2);
        assert_eq!(other.get(&key(0xdead_beef), u64::MAX), Some(entry(2, true)));
        assert_eq!(other.get(&key(0xfeed_f00d), 100), Some(entry(5, false)));
    }

    #[test]
    fn load_rejects_unknown_version() {
        let cache = ScheduleCache::new(8, 1);
        let doc = pipesched_json::parse(r#"{"version": 99, "entries": []}"#).unwrap();
        assert!(cache.load_json(&doc).is_err());
    }

    #[test]
    fn a_version_1_file_is_refused_and_loads_nothing() {
        let cache = ScheduleCache::new(8, 1);
        assert_eq!(cache.to_json().get("version"), Some(&Json::Int(2)));
        let v1 = r#"{"version": 1, "entries": [{
            "hash": "0000000000000015", "n": 3, "machine_fp": "0000000000000007",
            "order": [0, 1, 2], "assignment": [0, 4294967295, 1],
            "etas": [0, 1, 0], "nops": 2, "optimal": true,
            "budget": "64", "tier": "bnb", "backend": "bnb"}]}"#;
        assert_eq!(
            cache.load_json(&pipesched_json::parse(v1).unwrap()),
            Err("unsupported cache version Some(1)".to_string())
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn remove_drops_the_entry() {
        let cache = ScheduleCache::new(8, 1);
        cache.insert(key(1), entry(1, true));
        cache.remove(&key(1));
        assert!(cache.get(&key(1), u64::MAX).is_none());
        assert!(cache.is_empty());
    }
}
