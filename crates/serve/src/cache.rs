//! The sharded, bounded-memory LRU result cache.
//!
//! Keys are content addresses — `(ddg-hash, machine, scheduler, strategy,
//! spill-policy, budget)` — and values are fully rendered response
//! payloads, so a hit
//! returns the *byte-identical* line a miss would have computed. Shard
//! choice is a stable FNV-1a hash of the key (not `std::hash`, whose
//! output is unspecified), so per-shard stats are reproducible across
//! runs and Rust versions.
//!
//! Each shard is an independent mutex around a classic intrusive-list LRU
//! (arena of nodes + `HashMap` index), bounded by approximate resident
//! bytes; inserting past the bound evicts from the least-recently-used
//! tail. Compiles never run under a shard lock — the server computes the
//! payload first and inserts afterwards — so lock hold times are a few
//! pointer swaps regardless of kernel size.
//!
//! Beside the cache sits the server's alias map, from a request's raw
//! `ddg` text (its FNV-1a hash and byte length) to the canonical
//! `ddg_hash`, so a hit on text the daemon has seen before skips the
//! `.ddg` parse and the content hash. It is sharded by the raw hash and
//! bounded by a fixed share of the cache budget; it changes how much work
//! a request costs, never its response.

use std::collections::HashMap;
use std::sync::Mutex;

use regpipe_ddg::fnv1a;

/// The content address of one compile request.
///
/// `machine` is the *canonical identity string* of the machine model (see
/// [`crate::machine_key`]), not the user's spelling, so `p2l4` and an
/// equivalent custom description share cache entries.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// Stable content hash of the canonical `.ddg` form
    /// ([`regpipe_ddg::content_hash`]).
    pub ddg_hash: u64,
    /// Canonical machine identity string.
    pub machine: String,
    /// Scheduler registry slug (`hrms`/`sms`/`asap`/`exact`).
    pub scheduler: String,
    /// Strategy slug (`best`/`spill`/`increase-ii`).
    pub strategy: String,
    /// Spill-policy registry slug (`paper`/`min-next-use`/…).
    pub spill_policy: String,
    /// Register budget.
    pub budget: u32,
}

impl CacheKey {
    /// Stable shard/index hash of the key (FNV-1a over its text form).
    pub fn stable_hash(&self) -> u64 {
        fnv1a(self.text().as_bytes())
    }

    /// The key's one text form, `%016x` ddg hash then the other fields,
    /// `|`-separated: what [`CacheKey::stable_hash`] hashes and what the
    /// persistent store writes ahead of each payload (`key-text` in
    /// [`crate::store`]).
    pub(crate) fn text(&self) -> String {
        format!(
            "{:016x}|{}|{}|{}|{}|{}",
            self.ddg_hash,
            self.machine,
            self.scheduler,
            self.strategy,
            self.spill_policy,
            self.budget
        )
    }

    /// Approximate resident bytes of the key itself.
    fn approx_bytes(&self) -> usize {
        self.machine.len()
            + self.scheduler.len()
            + self.strategy.len()
            + self.spill_policy.len()
            + 16
    }
}

/// Fixed per-entry overhead charged against the byte budget (node, map
/// entry, allocator slack — an estimate, deliberately on the high side).
const ENTRY_OVERHEAD: usize = 96;

/// Sentinel for "no node" in the intrusive list.
const NIL: usize = usize::MAX;

struct Node {
    key: CacheKey,
    payload: String,
    prev: usize,
    next: usize,
}

/// Counters and occupancy of one shard, as reported by `stats` requests.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookups answered from the shard.
    pub hits: u64,
    /// Lookups that fell through to the engine.
    pub misses: u64,
    /// Entries dropped to stay under the byte bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Approximate bytes currently resident.
    pub bytes: u64,
}

/// One LRU shard: an arena-backed doubly-linked recency list plus a key
/// index, bounded by approximate bytes.
struct Shard {
    map: HashMap<CacheKey, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Unlinks node `i` from the recency list (it stays in the arena).
    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    /// Links node `i` at the most-recently-used end.
    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn entry_cost(key: &CacheKey, payload: &str) -> usize {
        key.approx_bytes() + payload.len() + ENTRY_OVERHEAD
    }

    fn get(&mut self, key: &CacheKey) -> Option<String> {
        match self.map.get(key).copied() {
            Some(i) => {
                self.detach(i);
                self.push_front(i);
                self.hits += 1;
                Some(self.nodes[i].payload.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: CacheKey, payload: String) {
        let cost = Self::entry_cost(&key, &payload);
        if let Some(&i) = self.map.get(&key) {
            // Same key computed twice by racing workers: refresh recency,
            // keep the (identical) payload.
            self.detach(i);
            self.push_front(i);
            return;
        }
        let i = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = Node { key: key.clone(), payload, prev: NIL, next: NIL };
                slot
            }
            None => {
                self.nodes.push(Node { key: key.clone(), payload, prev: NIL, next: NIL });
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        self.bytes += cost;
        while self.bytes > self.capacity && self.tail != NIL {
            self.evict_tail();
        }
    }

    /// Drops the least-recently-used entry (possibly the one just
    /// inserted, when a single entry exceeds the whole shard budget).
    fn evict_tail(&mut self) {
        let i = self.tail;
        self.detach(i);
        let node = &mut self.nodes[i];
        let cost = Self::entry_cost(&node.key, &node.payload);
        node.payload = String::new(); // release the big allocation now
        let key = node.key.clone();
        self.map.remove(&key);
        self.free.push(i);
        self.bytes -= cost.min(self.bytes);
        self.evictions += 1;
    }

    /// Resident entries, least-recently-used first (tail to head), so a
    /// replay of the dump in order rebuilds the same recency.
    fn dump(&self, out: &mut Vec<(CacheKey, String)>) {
        let mut i = self.tail;
        while i != NIL {
            out.push((self.nodes[i].key.clone(), self.nodes[i].payload.clone()));
            i = self.nodes[i].prev;
        }
    }

    fn stats(&self) -> ShardStats {
        ShardStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len() as u64,
            bytes: self.bytes as u64,
        }
    }
}

/// A request's raw `ddg` text, named as the cache names a graph: 64-bit
/// FNV-1a of its bytes, plus their length.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct RawText {
    hash: u64,
    len: usize,
}

impl RawText {
    pub(crate) fn of(text: &str) -> RawText {
        RawText { hash: fnv1a(text.as_bytes()), len: text.len() }
    }
}

/// The alias map may hold about `1 / ALIAS_SHARE` of the cache's byte
/// budget, on top of it.
const ALIAS_SHARE: usize = 16;

/// Approximate resident bytes of one alias (key, value, table slack).
const ALIAS_ENTRY_BYTES: usize = 48;

/// Raw `ddg` text → canonical `ddg_hash` ([`regpipe_ddg::content_hash`]),
/// so a request whose exact text the daemon has parsed before builds its
/// [`CacheKey`] without parsing or hashing the graph again.
///
/// The server records an alias only after the text has parsed and
/// validated, so equivalent spellings each alias the one canonical hash
/// and share one cache entry. Shards are chosen by the raw hash, and each
/// clears itself when it reaches its share of the bound: a clear costs
/// re-parses, never a different response.
pub(crate) struct AliasMap {
    shards: Vec<Mutex<HashMap<RawText, u64>>>,
    per_shard: usize,
}

impl AliasMap {
    /// An empty map for a cache of `shards` shards and `capacity_bytes`.
    pub(crate) fn new(shards: usize, capacity_bytes: usize) -> AliasMap {
        AliasMap {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard: (capacity_bytes / ALIAS_SHARE / shards / ALIAS_ENTRY_BYTES).max(1),
        }
    }

    fn shard(&self, raw: RawText) -> &Mutex<HashMap<RawText, u64>> {
        &self.shards[(raw.hash as usize) % self.shards.len()]
    }

    /// The canonical hash recorded for `raw`, if any.
    pub(crate) fn get(&self, raw: RawText) -> Option<u64> {
        self.shard(raw).lock().expect("alias shard poisoned").get(&raw).copied()
    }

    /// Records that `raw` parses to a graph with hash `ddg_hash`.
    pub(crate) fn insert(&self, raw: RawText, ddg_hash: u64) {
        let mut map = self.shard(raw).lock().expect("alias shard poisoned");
        if map.len() >= self.per_shard {
            map.clear();
        }
        map.insert(raw, ddg_hash);
    }

    /// Aliases currently held, over all shards.
    pub(crate) fn len(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().expect("alias shard poisoned").len() as u64).sum()
    }
}

/// The sharded cache: `shards` independent LRUs splitting a total byte
/// budget evenly, with shard choice by [`CacheKey::stable_hash`].
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
}

impl ShardedCache {
    /// A cache of `shards` shards sharing `capacity_bytes` in total.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, capacity_bytes: usize) -> Self {
        assert!(shards > 0, "cache needs at least one shard");
        let per_shard = (capacity_bytes / shards).max(1);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new(per_shard))).collect(),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[(key.stable_hash() as usize) % self.shards.len()]
    }

    /// Looks up `key`, refreshing its recency; counts a hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<String> {
        self.shard(key).lock().expect("cache shard poisoned").get(key)
    }

    /// Inserts a computed payload, evicting from the LRU tail as needed.
    pub fn insert(&self, key: CacheKey, payload: String) {
        self.shard(&key).lock().expect("cache shard poisoned").insert(key, payload);
    }

    /// Per-shard counters, in shard-index order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").stats()).collect()
    }

    /// Sums of the per-shard counters.
    pub fn totals(&self) -> ShardStats {
        let mut t = ShardStats::default();
        for s in self.shard_stats() {
            t.hits += s.hits;
            t.misses += s.misses;
            t.evictions += s.evictions;
            t.entries += s.entries;
            t.bytes += s.bytes;
        }
        t
    }

    /// Snapshot of every resident entry for the persistent store's
    /// compaction: shard-index order, oldest-first within each shard, so
    /// replaying the dump in order rebuilds (approximately) the same
    /// recency on restart.
    pub fn dump(&self) -> Vec<(CacheKey, String)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").dump(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u32) -> CacheKey {
        CacheKey {
            ddg_hash: u64::from(n),
            machine: "M".into(),
            scheduler: "hrms".into(),
            strategy: "best".into(),
            spill_policy: "paper".into(),
            budget: 32,
        }
    }

    #[test]
    fn hit_after_insert_and_miss_before() {
        let c = ShardedCache::new(4, 1 << 20);
        assert_eq!(c.get(&key(1)), None);
        c.insert(key(1), "{\"ok\":true}".into());
        assert_eq!(c.get(&key(1)).as_deref(), Some("{\"ok\":true}"));
        let t = c.totals();
        assert_eq!((t.hits, t.misses, t.entries), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_oldest_first_under_byte_pressure() {
        // One shard so recency order is global; capacity fits ~3 entries.
        let payload = "x".repeat(200);
        let cost = 200 + 96 + (1 + 4 + 4 + 5 + 16); // payload + overhead + key
        let c = ShardedCache::new(1, 3 * cost);
        for n in 0..3 {
            c.insert(key(n), payload.clone());
        }
        assert_eq!(c.totals().evictions, 0);
        // Touch 0 so 1 becomes the LRU tail, then overflow.
        assert!(c.get(&key(0)).is_some());
        c.insert(key(3), payload.clone());
        assert_eq!(c.totals().evictions, 1);
        assert!(c.get(&key(1)).is_none(), "the untouched entry was evicted");
        assert!(c.get(&key(0)).is_some());
        assert!(c.get(&key(2)).is_some());
        assert!(c.get(&key(3)).is_some());
    }

    #[test]
    fn an_entry_larger_than_the_budget_does_not_stick() {
        let c = ShardedCache::new(1, 64);
        c.insert(key(1), "y".repeat(1000));
        assert_eq!(c.totals().entries, 0);
        assert_eq!(c.totals().evictions, 1);
        assert_eq!(c.totals().bytes, 0);
        // The cache still works afterwards.
        assert!(c.get(&key(1)).is_none());
    }

    #[test]
    fn reinserting_the_same_key_keeps_one_entry() {
        let c = ShardedCache::new(2, 1 << 20);
        c.insert(key(7), "{\"a\":1}".into());
        c.insert(key(7), "{\"a\":1}".into());
        assert_eq!(c.totals().entries, 1);
        assert_eq!(c.get(&key(7)).as_deref(), Some("{\"a\":1}"));
    }

    #[test]
    fn shard_choice_is_stable() {
        let k = key(42);
        assert_eq!(k.stable_hash(), k.clone().stable_hash());
        // Different budgets are different addresses.
        let mut k2 = key(42);
        k2.budget = 64;
        assert_ne!(k.stable_hash(), k2.stable_hash());
    }

    #[test]
    fn dump_lists_live_entries_oldest_first() {
        let c = ShardedCache::new(1, 1 << 20);
        for n in 0..3 {
            c.insert(key(n), format!("p{n}"));
        }
        assert!(c.get(&key(0)).is_some()); // 0 becomes most-recent
        let dump = c.dump();
        let order: Vec<u64> = dump.iter().map(|(k, _)| k.ddg_hash).collect();
        assert_eq!(order, vec![1, 2, 0], "LRU tail first, refreshed entry last");
        assert_eq!(dump[0].1, "p1");
    }

    #[test]
    fn eviction_slots_are_reused() {
        let payload = "z".repeat(200);
        let cost = 200 + 96 + (1 + 4 + 4 + 5 + 16);
        let c = ShardedCache::new(1, 2 * cost);
        for n in 0..50 {
            c.insert(key(n), payload.clone());
        }
        let t = c.totals();
        assert_eq!(t.entries, 2);
        assert_eq!(t.evictions, 48);
        assert!(t.bytes <= 2 * cost as u64);
    }
}
