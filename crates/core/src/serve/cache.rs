//! The epoch-keyed LRU result cache.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Bytes charged per cache entry beyond key and payload (map/LRU node
/// overhead, stamps). An estimate — the allocator-verified tests bound
/// the real footprint against the budget this accounting enforces.
pub(super) const ENTRY_OVERHEAD: usize = 96;

struct Entry {
    payload: Arc<str>,
    epoch: u64,
    bytes: usize,
    stamp: u64,
}

/// What became of a [`ResultCache::put`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PutOutcome {
    /// The entry was stored.
    pub inserted: bool,
    /// Entries evicted to make room.
    pub evicted: usize,
}

/// LRU result cache keyed by `(epoch, canonical query)` under an entry
/// cap and a byte budget.
///
/// Epoch handling: the cache tracks the newest epoch it has *observed*
/// (via `observe_epoch`, called by the engine with
/// every snapshot it serves). Observing a newer epoch drops exactly the
/// entries computed on older epochs; lookups and inserts for epochs older
/// than the observed newest are refused, so a raced request on a stale
/// snapshot can never poison the cache or be answered across epochs.
pub struct ResultCache {
    map: HashMap<String, Entry>,
    /// Recency index: access stamp → key. `BTreeMap::pop_first` is the
    /// LRU victim; stamps are unique by construction.
    lru: BTreeMap<u64, String>,
    tick: u64,
    bytes: usize,
    max_entries: usize,
    max_bytes: usize,
    latest_epoch: u64,
}

impl ResultCache {
    /// Empty cache holding at most `max_entries` entries and
    /// `max_bytes` accounted bytes.
    pub fn new(max_entries: usize, max_bytes: usize) -> ResultCache {
        ResultCache {
            map: HashMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
            bytes: 0,
            max_entries: max_entries.max(1),
            max_bytes,
            latest_epoch: 0,
        }
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Accounted bytes currently stored (keys + payloads + overhead).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Tell the cache a snapshot with this epoch is being served. A newer
    /// epoch invalidates (drops) every entry computed on an older one;
    /// returns how many were dropped.
    pub(crate) fn observe_epoch(&mut self, epoch: u64) -> usize {
        if epoch <= self.latest_epoch {
            return 0;
        }
        self.latest_epoch = epoch;
        let stale: Vec<u64> = self
            .map
            .iter()
            .filter(|(_, e)| e.epoch < epoch)
            .map(|(_, e)| e.stamp)
            .collect();
        for stamp in &stale {
            if let Some(key) = self.lru.remove(stamp) {
                if let Some(e) = self.map.remove(&key) {
                    self.bytes -= e.bytes;
                }
            }
        }
        stale.len()
    }

    /// Look up `key` as computed on exactly `epoch`; touches recency.
    pub fn get(&mut self, epoch: u64, key: &str) -> Option<Arc<str>> {
        let entry = self.map.get_mut(key)?;
        if entry.epoch != epoch {
            return None;
        }
        self.lru.remove(&entry.stamp);
        self.tick += 1;
        entry.stamp = self.tick;
        self.lru.insert(entry.stamp, key.to_string());
        Some(Arc::clone(&entry.payload))
    }

    /// Store a payload computed on `epoch`. Refused for epochs older than
    /// the newest observed (stale write after an invalidation) and for
    /// payloads that alone exceed the byte budget; evicts LRU entries
    /// until both limits hold.
    pub fn put(&mut self, epoch: u64, key: String, payload: Arc<str>) -> PutOutcome {
        let mut outcome = PutOutcome::default();
        self.observe_epoch(epoch);
        if epoch < self.latest_epoch {
            return outcome;
        }
        let cost = key.len() * 2 + payload.len() + ENTRY_OVERHEAD;
        if cost > self.max_bytes {
            return outcome;
        }
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.bytes;
            self.lru.remove(&old.stamp);
        }
        while self.map.len() >= self.max_entries || self.bytes + cost > self.max_bytes {
            let Some((_, victim)) = self.lru.pop_first() else {
                break;
            };
            if let Some(e) = self.map.remove(&victim) {
                self.bytes -= e.bytes;
                outcome.evicted += 1;
            }
        }
        self.tick += 1;
        self.lru.insert(self.tick, key.clone());
        self.map.insert(
            key,
            Entry {
                payload,
                epoch,
                bytes: cost,
                stamp: self.tick,
            },
        );
        self.bytes += cost;
        outcome.inserted = true;
        outcome
    }
}
