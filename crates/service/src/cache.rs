//! The result-cache memory tier: an LRU map from canonical content hash to
//! serialised response body with a raw-bytes alias index, and a sharded
//! wrapper that splits the key space across independently locked shards.
//!
//! Entries are complete response documents, so a hit is replayed
//! bit-identically (property-tested in `tests/cache_tiers.rs`). Recency is
//! an intrusive doubly-linked list threaded through the hash map, so every
//! operation — lookup, refresh, insert, evict — is O(1); the retained
//! scan-based implementation ([`reference::ScanLruCache`]) exists only as
//! the observation-equivalence oracle for the proptests.
//!
//! Two keys per entry:
//!
//! * the **canonical key** (hash of the canonicalised request) — computing
//!   it requires parsing the request, but it unifies every spelling of the
//!   same question;
//! * **alias keys** (hash of raw request bytes) — each spelling that has
//!   hit before maps straight to its canonical entry, so an exact
//!   duplicate document is answered *without parsing anything*. The alias
//!   stores the raw document and verifies it byte-for-byte on lookup:
//!   the body hash is unkeyed and collidable, so a hash match alone
//!   must never replay another request's answer. Aliases may dangle after
//!   an eviction; a dangling alias is dropped on lookup and the request
//!   simply takes the parse path. Documents larger than
//!   [`MAX_ALIAS_DOC_BYTES`] are not aliased (bounding the index's
//!   memory); they still dedup through the canonical key.
//!
//! [`ShardedCache`] routes each canonical key (and each alias key) to one
//! of N power-of-two shards by content-hash bits. An alias and the
//! canonical entry it points at may live in *different* shards, so the
//! fast path takes at most two shard locks in sequence — never nested —
//! and a dangling alias is cleaned up with a third short lock.

use std::collections::HashMap;
use std::sync::Mutex;

/// Alias slots per cache slot (several spellings can point at one entry).
const ALIAS_FACTOR: usize = 4;

/// Largest request document the alias index will store for byte-exact
/// verification. Bigger documents skip the fast path (they still dedup
/// through the canonical key after parsing).
pub const MAX_ALIAS_DOC_BYTES: usize = 128 * 1024;

/// A hash map whose entries are threaded on an intrusive recency list:
/// `head` is the most recently used key, `tail` the least. All operations
/// are O(1).
#[derive(Debug)]
struct LinkedMap<V> {
    map: HashMap<u64, Node<V>>,
    head: Option<u64>,
    tail: Option<u64>,
}

#[derive(Debug)]
struct Node<V> {
    value: V,
    prev: Option<u64>,
    next: Option<u64>,
}

impl<V> Default for LinkedMap<V> {
    fn default() -> Self {
        Self {
            map: HashMap::new(),
            head: None,
            tail: None,
        }
    }
}

impl<V> LinkedMap<V> {
    fn len(&self) -> usize {
        self.map.len()
    }

    fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn clear(&mut self) {
        self.map.clear();
        self.head = None;
        self.tail = None;
    }

    /// Detaches `key` from the recency list (the node stays in the map).
    fn unlink(&mut self, key: u64) {
        let (prev, next) = {
            let n = &self.map[&key];
            (n.prev, n.next)
        };
        match prev {
            // lint:allow(panic-path): intrusive-list invariant — neighbour keys are always
            // present; a miss means this shard's map is corrupt, and the panic poisons only
            // this shard, whose lock recovery clears it (degrade one shard, not the daemon).
            Some(p) => self.map.get_mut(&p).expect("linked prev").next = next,
            None => self.head = next,
        }
        match next {
            // lint:allow(panic-path): intrusive-list invariant — see unlink() above.
            Some(x) => self.map.get_mut(&x).expect("linked next").prev = prev,
            None => self.tail = prev,
        }
    }

    /// Pushes an already-detached `key` to the front (most recent).
    fn push_front(&mut self, key: u64) {
        let old_head = self.head;
        {
            // lint:allow(panic-path): push_front's contract is "key is in the map";
            // both callers insert or check first, so a miss means shard corruption —
            // panic, poison, and let lock recovery clear this one shard.
            let n = self.map.get_mut(&key).expect("pushed key present");
            n.prev = None;
            n.next = old_head;
        }
        if let Some(h) = old_head {
            // lint:allow(panic-path): intrusive-list invariant — see unlink().
            self.map.get_mut(&h).expect("old head").prev = Some(key);
        }
        self.head = Some(key);
        if self.tail.is_none() {
            self.tail = Some(key);
        }
    }

    /// Looks `key` up without touching its recency.
    fn peek(&self, key: u64) -> Option<&V> {
        self.map.get(&key).map(|n| &n.value)
    }

    /// Looks `key` up and moves it to the front of the recency list.
    fn get_refresh(&mut self, key: u64) -> Option<&mut V> {
        if !self.map.contains_key(&key) {
            return None;
        }
        self.unlink(key);
        self.push_front(key);
        // lint:allow(panic-path): contains_key was checked three lines up and the
        // relink cannot remove the entry; a miss here is shard corruption.
        Some(&mut self.map.get_mut(&key).expect("refreshed key").value)
    }

    /// Inserts (or replaces) `key`, making it the most recent.
    fn insert(&mut self, key: u64, value: V) {
        if let Some(n) = self.map.get_mut(&key) {
            n.value = value;
            self.unlink(key);
        } else {
            self.map.insert(
                key,
                Node {
                    value,
                    prev: None,
                    next: None,
                },
            );
        }
        self.push_front(key);
    }

    /// Removes `key` if present.
    fn remove(&mut self, key: u64) -> Option<V> {
        if !self.map.contains_key(&key) {
            return None;
        }
        self.unlink(key);
        self.map.remove(&key).map(|n| n.value)
    }

    /// Evicts and returns the least-recently-used entry.
    fn pop_lru(&mut self) -> Option<(u64, V)> {
        let key = self.tail?;
        self.unlink(key);
        self.map.remove(&key).map(|n| (key, n.value))
    }
}

#[derive(Debug)]
struct AliasVal {
    canonical: u64,
    /// The exact raw document bytes this alias stands for (JSON or binary
    /// wire format alike) — compared on lookup so a hash collision can
    /// never replay another request's answer.
    doc: Vec<u8>,
}

/// A least-recently-used map from content hash to response body, with O(1)
/// lookup, refresh and eviction.
#[derive(Debug, Default)]
pub struct LruCache {
    cap: usize,
    entries: LinkedMap<String>,
    /// raw-bytes hash → canonical key. Bounded at [`ALIAS_FACTOR`]× `cap`.
    aliases: LinkedMap<AliasVal>,
}

impl LruCache {
    /// A cache holding at most `cap` entries; `cap == 0` disables storage.
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            entries: LinkedMap::default(),
            aliases: LinkedMap::default(),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Live alias count.
    pub fn alias_count(&self) -> usize {
        self.aliases.len()
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<String> {
        self.entries.get_refresh(key).map(|b| b.clone())
    }

    /// Resolves the raw-document alias `raw` to its canonical key,
    /// refreshing the alias's recency when the stored document matches
    /// `doc` byte-for-byte. A hash collision (different bytes) is a miss —
    /// the alias is left untouched for its rightful owner.
    pub fn alias_lookup(&mut self, raw: u64, doc: &[u8]) -> Option<u64> {
        // Verify the document before refreshing: a colliding lookup must
        // not promote the rightful owner's alias (the scan-based oracle
        // leaves it cold, and so must we).
        match self.aliases.peek(raw) {
            Some(a) if a.doc == doc => {}
            _ => return None,
        }
        self.aliases.get_refresh(raw).map(|a| a.canonical)
    }

    /// Drops the alias `raw` (used when its canonical entry turned out to
    /// be evicted — the alias dangles and must not be consulted again).
    pub fn drop_alias(&mut self, raw: u64) {
        self.aliases.remove(raw);
    }

    /// The fast path: looks the raw document up through the alias index
    /// (keyed by `raw`, its body hash), refreshing recency on both
    /// levels. The stored document is compared byte-for-byte — a hash
    /// collision is a miss, never a wrong answer. A dangling alias (its
    /// entry was evicted) is dropped and reported as a miss.
    pub fn get_by_alias(&mut self, raw: u64, doc: &[u8]) -> Option<String> {
        let canonical = self.alias_lookup(raw, doc)?;
        match self.get(canonical) {
            Some(body) => Some(body),
            None => {
                self.drop_alias(raw);
                None
            }
        }
    }

    /// Records that the raw document `doc` (hashing to `raw`) spells the
    /// request cached under `canonical`, evicting the least-recently-used
    /// alias when the alias index is full. Documents larger than
    /// [`MAX_ALIAS_DOC_BYTES`] are not recorded.
    pub fn alias(&mut self, raw: u64, doc: &[u8], canonical: u64) {
        if self.cap == 0 || doc.len() > MAX_ALIAS_DOC_BYTES {
            return;
        }
        if self.aliases.peek(raw).is_none() && self.aliases.len() >= self.cap * ALIAS_FACTOR {
            self.aliases.pop_lru();
        }
        self.aliases.insert(
            raw,
            AliasVal {
                canonical,
                doc: doc.to_vec(),
            },
        );
    }

    /// Stores `body` under `key`, evicting the least-recently-used entry
    /// when full. Overwrites an existing entry for `key`.
    pub fn insert(&mut self, key: u64, body: String) {
        if self.cap == 0 {
            return;
        }
        if self.entries.peek(key).is_none() && self.entries.len() >= self.cap {
            self.entries.pop_lru();
        }
        self.entries.insert(key, body);
    }

    /// Drops every entry and alias (capacity is kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.aliases.clear();
    }
}

/// The memory tier at service scale: N independently locked [`LruCache`]
/// shards, routed by content-hash bits. Shards evict independently, so
/// under contention no single lock serialises every probe.
///
/// The alias index is sharded by the *raw* hash while entries are sharded
/// by the *canonical* hash; the two may differ, so the alias fast path
/// acquires at most two shard locks strictly in sequence (never nested).
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<LruCache>>,
    mask: u64,
}

impl ShardedCache {
    /// A cache of `shard_count` shards (rounded up to a power of two,
    /// minimum 1) holding at most ~`total_cap` entries in aggregate; each
    /// shard gets `ceil(total_cap / shards)` slots. `total_cap == 0`
    /// disables storage.
    pub fn new(total_cap: usize, shard_count: usize) -> Self {
        let shards = shard_count.max(1).next_power_of_two();
        let per_shard = if total_cap == 0 {
            0
        } else {
            total_cap.div_ceil(shards)
        };
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
            mask: (shards - 1) as u64,
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Locks one shard, recovering from poisoning: a panicking holder is
    /// caught at the solve boundary (PR 6), so a poisoned shard must
    /// degrade — its mid-mutation intrusive list is untrusted, so the
    /// shard is cleared once and serving continues — rather than wedge
    /// every later request that routes to it.
    fn locked(shard: &Mutex<LruCache>) -> std::sync::MutexGuard<'_, LruCache> {
        shard.lock().unwrap_or_else(|poisoned| {
            shard.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.clear();
            guard
        })
    }

    /// The shard `key` routes to: low content-hash bits folded with the
    /// high half so both ends of the hash participate; the mask
    /// keeps the index in range (shard count is a power of two).
    fn shard(&self, key: u64) -> &Mutex<LruCache> {
        &self.shards[((key ^ (key >> 32)) & self.mask) as usize]
    }

    /// Aggregate configured capacity (sum of shard capacities).
    pub fn capacity(&self) -> usize {
        self.shards.len()
            * self
                .shards
                .first()
                .map_or(0, |s| Self::locked(s).capacity())
    }

    /// Total live entries across shards.
    pub fn len(&self) -> usize {
        self.occupancy().iter().sum()
    }

    /// `true` when nothing is cached in any shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live aliases across shards.
    pub fn alias_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| Self::locked(s).alias_count())
            .sum()
    }

    /// Live entry count per shard, in shard order.
    pub fn occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| Self::locked(s).len()).collect()
    }

    /// Looks `key` up in its shard, refreshing recency on a hit.
    pub fn get(&self, key: u64) -> Option<String> {
        Self::locked(self.shard(key)).get(key)
    }

    /// The raw-bytes fast path across shards: resolve the alias in the
    /// raw-hash shard, then fetch the entry from the canonical-hash shard.
    /// The locks are taken one at a time; a dangling alias is removed with
    /// a third short re-lock of the alias shard.
    pub fn get_by_alias(&self, raw: u64, doc: &[u8]) -> Option<String> {
        let alias_shard = self.shard(raw);
        let canonical = Self::locked(alias_shard).alias_lookup(raw, doc)?;
        match self.get(canonical) {
            Some(body) => Some(body),
            None => {
                Self::locked(alias_shard).drop_alias(raw);
                None
            }
        }
    }

    /// Records the alias `raw` → `canonical` in the raw-hash shard.
    pub fn alias(&self, raw: u64, doc: &[u8], canonical: u64) {
        Self::locked(self.shard(raw)).alias(raw, doc, canonical);
    }

    /// Stores `body` under `key` in its shard.
    pub fn insert(&self, key: u64, body: String) {
        Self::locked(self.shard(key)).insert(key, body);
    }

    /// Drops every entry and alias in every shard.
    pub fn clear(&self) {
        for s in &self.shards {
            Self::locked(s).clear();
        }
    }
}

/// The retained scan-based LRU — the pre-sharding implementation with a
/// monotone recency tick and O(len) eviction scans. Kept solely as the
/// oracle for the observation-equivalence proptests in
/// `tests/cache_tiers.rs`; the service itself never uses it.
#[doc(hidden)]
pub mod reference {
    use super::{ALIAS_FACTOR, MAX_ALIAS_DOC_BYTES};
    use std::collections::HashMap;

    /// Scan-based LRU cache: recency is a monotone tick, eviction scans
    /// for the minimum.
    #[derive(Debug, Default)]
    pub struct ScanLruCache {
        cap: usize,
        tick: u64,
        map: HashMap<u64, Entry>,
        aliases: HashMap<u64, Alias>,
    }

    #[derive(Debug)]
    struct Entry {
        body: String,
        last_used: u64,
    }

    #[derive(Debug)]
    struct Alias {
        canonical: u64,
        doc: Vec<u8>,
        last_used: u64,
    }

    impl ScanLruCache {
        pub fn new(cap: usize) -> Self {
            Self {
                cap,
                tick: 0,
                map: HashMap::new(),
                aliases: HashMap::new(),
            }
        }

        pub fn len(&self) -> usize {
            self.map.len()
        }

        pub fn is_empty(&self) -> bool {
            self.map.is_empty()
        }

        pub fn get(&mut self, key: u64) -> Option<String> {
            self.tick += 1;
            let tick = self.tick;
            self.map.get_mut(&key).map(|e| {
                e.last_used = tick;
                e.body.clone()
            })
        }

        pub fn get_by_alias(&mut self, raw: u64, doc: &[u8]) -> Option<String> {
            let canonical = match self.aliases.get_mut(&raw) {
                None => return None,
                Some(a) if a.doc != doc => return None, // hash collision
                Some(a) => {
                    a.last_used = self.tick + 1;
                    a.canonical
                }
            };
            match self.get(canonical) {
                Some(body) => Some(body),
                None => {
                    self.aliases.remove(&raw);
                    None
                }
            }
        }

        pub fn alias(&mut self, raw: u64, doc: &[u8], canonical: u64) {
            if self.cap == 0 || doc.len() > MAX_ALIAS_DOC_BYTES {
                return;
            }
            self.tick += 1;
            if !self.aliases.contains_key(&raw) && self.aliases.len() >= self.cap * ALIAS_FACTOR {
                if let Some((&lru, _)) = self.aliases.iter().min_by_key(|(_, a)| a.last_used) {
                    self.aliases.remove(&lru);
                }
            }
            self.aliases.insert(
                raw,
                Alias {
                    canonical,
                    doc: doc.to_vec(),
                    last_used: self.tick,
                },
            );
        }

        pub fn insert(&mut self, key: u64, body: String) {
            if self.cap == 0 {
                return;
            }
            self.tick += 1;
            if !self.map.contains_key(&key) && self.map.len() >= self.cap {
                if let Some((&lru, _)) = self.map.iter().min_by_key(|(_, e)| e.last_used) {
                    self.map.remove(&lru);
                }
            }
            self.map.insert(
                key,
                Entry {
                    body,
                    last_used: self.tick,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_overwrite() {
        let mut c = LruCache::new(4);
        assert!(c.is_empty());
        assert_eq!(c.get(1), None);
        c.insert(1, "one".into());
        assert_eq!(c.get(1).as_deref(), Some("one"));
        c.insert(1, "uno".into());
        assert_eq!(c.get(1).as_deref(), Some("uno"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1, "1".into());
        c.insert(2, "2".into());
        assert_eq!(c.get(1).as_deref(), Some("1")); // 1 is now fresher than 2
        c.insert(3, "3".into());
        assert_eq!(c.get(2), None, "2 was LRU and must be gone");
        assert_eq!(c.get(1).as_deref(), Some("1"));
        assert_eq!(c.get(3).as_deref(), Some("3"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn alias_fast_path_and_dangling_cleanup() {
        let mut c = LruCache::new(2);
        c.insert(100, "body".into());
        assert_eq!(c.get_by_alias(7, b"docA"), None, "unknown alias misses");
        c.alias(7, b"docA", 100);
        c.alias(8, b"docB", 100);
        assert_eq!(c.get_by_alias(7, b"docA").as_deref(), Some("body"));
        assert_eq!(c.get_by_alias(8, b"docB").as_deref(), Some("body"));
        // A colliding hash with different bytes must MISS, not replay.
        assert_eq!(c.get_by_alias(7, b"docX"), None, "collision is a miss");
        // Evict the entry: aliases dangle, then self-clean on lookup.
        c.insert(200, "2".into());
        c.insert(300, "3".into());
        assert_eq!(c.get(100), None, "entry 100 evicted");
        assert_eq!(c.get_by_alias(7, b"docA"), None, "dangling alias misses");
        assert_eq!(c.get_by_alias(7, b"docA"), None, "and stays gone");
    }

    #[test]
    fn collision_lookup_does_not_refresh_the_alias() {
        let mut c = LruCache::new(1); // alias cap = 4
        c.insert(100, "b".into());
        for raw in 1..=4u64 {
            c.alias(raw, b"right", 100);
        }
        // A colliding probe must leave alias 1 cold for its owner…
        assert_eq!(c.get_by_alias(1, b"wrong"), None);
        // …so the next insertion into the full index still evicts it.
        c.alias(5, b"right", 100);
        assert_eq!(c.get_by_alias(1, b"right"), None, "alias 1 was LRU");
        assert_eq!(c.get_by_alias(2, b"right").as_deref(), Some("b"));
    }

    #[test]
    fn alias_index_is_bounded_and_caps_doc_size() {
        let mut c = LruCache::new(2); // alias cap = 8
        c.insert(1, "1".into());
        for raw in 10..30u64 {
            c.alias(raw, b"doc", 1);
        }
        // Oldest aliases evicted; the most recent still works.
        assert_eq!(c.get_by_alias(29, b"doc").as_deref(), Some("1"));
        assert_eq!(c.get_by_alias(10, b"doc"), None);
        // Oversized documents are never aliased.
        let huge = vec![b'x'; MAX_ALIAS_DOC_BYTES + 1];
        c.alias(99, &huge, 1);
        assert_eq!(c.get_by_alias(99, &huge), None);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c = LruCache::new(0);
        c.insert(1, "1".into());
        assert_eq!(c.get(1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut c = LruCache::new(3);
        c.insert(1, "1".into());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 3);
        c.insert(2, "2".into());
        assert_eq!(c.get(2).as_deref(), Some("2"));
    }

    #[test]
    fn eviction_order_follows_every_touch_kind() {
        // get, insert-overwrite and alias-hit all refresh recency.
        let mut c = LruCache::new(3);
        c.insert(1, "1".into());
        c.insert(2, "2".into());
        c.insert(3, "3".into());
        c.insert(2, "2b".into()); // overwrite refreshes 2
        assert_eq!(c.get(1).as_deref(), Some("1")); // get refreshes 1
        c.insert(4, "4".into()); // 3 is now LRU
        assert_eq!(c.get(3), None);
        assert_eq!(c.get(2).as_deref(), Some("2b"));
        assert_eq!(c.get(1).as_deref(), Some("1"));
        assert_eq!(c.get(4).as_deref(), Some("4"));
    }

    #[test]
    fn sharded_routes_and_counts() {
        let c = ShardedCache::new(64, 8);
        assert_eq!(c.shard_count(), 8);
        assert!(c.is_empty());
        for k in 0..32u64 {
            c.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), format!("v{k}"));
        }
        assert_eq!(c.len(), 32);
        assert_eq!(c.occupancy().len(), 8);
        assert!(c.occupancy().iter().all(|&n| n > 0), "{:?}", c.occupancy());
        let k = 5u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        assert_eq!(c.get(k).as_deref(), Some("v5"));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn sharded_alias_crosses_shards() {
        // Pick a raw/canonical pair that provably land in different shards.
        let c = ShardedCache::new(16, 4);
        let canonical = 0u64; // shard 0
        let raw = 1u64; // shard 1
        c.insert(canonical, "body".into());
        c.alias(raw, b"doc", canonical);
        assert_eq!(c.get_by_alias(raw, b"doc").as_deref(), Some("body"));
        assert_eq!(c.get_by_alias(raw, b"other"), None, "collision is a miss");
        // Evict the canonical entry directly; alias dangles, then cleans.
        c.shards[0].lock().unwrap().clear();
        assert_eq!(c.get_by_alias(raw, b"doc"), None, "dangling alias misses");
    }

    #[test]
    fn sharded_shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedCache::new(10, 3).shard_count(), 4);
        assert_eq!(ShardedCache::new(10, 1).shard_count(), 1);
        assert_eq!(ShardedCache::new(10, 0).shard_count(), 1);
        // Aggregate capacity covers the request even after rounding.
        assert!(ShardedCache::new(10, 3).capacity() >= 10);
        assert_eq!(ShardedCache::new(0, 4).capacity(), 0);
    }
}
