//! A bounded map that evicts its least-recently-used entry.

use std::collections::HashMap;

/// A string-keyed map holding at most `cap` entries. Caches keyed by
/// client-controlled text (SQL, predicate constants) must evict rather than
/// grow with the workload's value diversity. Every entry carries the clock
/// stamp of its last touch, and inserting a new key at the cap scans for the
/// smallest stamp; the caps are small enough that the O(cap) scan is noise
/// next to the work a hit saves.
#[derive(Debug)]
pub struct Lru<V> {
    cap: usize,
    clock: u64,
    entries: HashMap<String, (u64, V)>,
}

/// An unbounded map: it never evicts.
impl<V> Default for Lru<V> {
    fn default() -> Self {
        Self::new(usize::MAX)
    }
}

impl<V> Lru<V> {
    /// An empty map holding at most `cap` entries (at least one).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            clock: 0,
            entries: HashMap::new(),
        }
    }

    /// Looks `key` up and, on a hit, marks it most recently used.
    pub fn get(&mut self, key: &str) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(key).map(|(touched, value)| {
            *touched = clock;
            &*value
        })
    }

    /// Looks `key` up without changing its recency.
    pub fn peek(&self, key: &str) -> Option<&V> {
        self.entries.get(key).map(|(_, value)| value)
    }

    /// Inserts or replaces `key` and marks it most recently used. A new key
    /// at the cap first evicts the least-recently-used entry; replacing an
    /// existing key never evicts.
    pub fn insert(&mut self, key: String, value: V) {
        self.clock += 1;
        if !self.entries.contains_key(&key) {
            while self.entries.len() >= self.cap {
                let coldest = (self.entries.iter())
                    .min_by_key(|(_, (touched, _))| *touched)
                    .map(|(k, _)| k.clone())
                    .expect("map at cap is non-empty");
                self.entries.remove(&coldest);
            }
        }
        self.entries.insert(key, (self.clock, value));
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_bounds_entries_and_tracks_recency() {
        let mut lru = Lru::new(2);
        lru.insert("a".into(), 1);
        lru.insert("b".into(), 2);
        assert_eq!(lru.get("a"), Some(&1), "touch a so b is coldest");
        lru.insert("c".into(), 3);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get("b"), None, "coldest entry evicted");
        assert_eq!(lru.get("a"), Some(&1));
        assert_eq!(lru.get("c"), Some(&3));
        // Re-inserting an existing key refreshes instead of evicting.
        lru.insert("a".into(), 10);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get("a"), Some(&10));
    }

    #[test]
    fn peek_leaves_the_recency_alone() {
        let mut lru = Lru::new(2);
        lru.insert("a".into(), 1);
        lru.insert("b".into(), 2);
        assert_eq!(lru.peek("a"), Some(&1));
        lru.insert("c".into(), 3);
        assert_eq!(lru.peek("a"), None, "a stayed the coldest entry");
        assert_eq!(lru.peek("b"), Some(&2));
    }

    #[test]
    fn the_default_map_never_evicts() {
        let mut lru = Lru::default();
        assert!(lru.is_empty());
        for i in 0..1_000u32 {
            lru.insert(i.to_string(), i);
        }
        assert_eq!(lru.len(), 1_000);
        assert_eq!(lru.peek("0"), Some(&0));
    }

    #[test]
    fn a_zero_cap_still_holds_one_entry() {
        let mut lru = Lru::new(0);
        lru.insert("a".into(), 1);
        lru.insert("b".into(), 2);
        assert_eq!((lru.len(), lru.peek("b")), (1, Some(&2)));
    }
}
