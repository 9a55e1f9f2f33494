//! A byte-budgeted LRU store over [`CompileKey`]s.
//!
//! Index-based intrusive doubly-linked list (no `unsafe`, no pointer
//! juggling): a `HashMap` resolves keys to node indices in a `Vec`, the
//! nodes chain prev/next indices, and a free list recycles slots. Every
//! entry carries an estimated byte cost; inserts evict from the cold tail
//! until the new entry fits, so the resident total **never** exceeds the
//! budget — an entry whose own cost exceeds the whole budget is refused
//! outright rather than flushing the cache for one un-keepable value.

use std::collections::HashMap;

use crate::key::CompileKey;

const NIL: usize = usize::MAX;

struct Node<V> {
    key: CompileKey,
    value: V,
    cost: u64,
    prev: usize,
    next: usize,
}

pub(crate) struct Lru<V> {
    map: HashMap<CompileKey, usize>,
    nodes: Vec<Node<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    budget: u64,
    resident: u64,
    evictions: u64,
}

impl<V> Lru<V> {
    pub(crate) fn new(budget: u64) -> Self {
        Lru {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            budget,
            resident: 0,
            evictions: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn resident_bytes(&self) -> u64 {
        self.resident
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up `key` and, on a hit, marks the entry most-recently used.
    pub(crate) fn get(&mut self, key: &CompileKey) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(&self.nodes[idx].value)
    }

    /// Inserts (or replaces) an entry, evicting cold entries until it
    /// fits. Returns `false` — without touching the store — when `cost`
    /// alone exceeds the whole budget.
    pub(crate) fn insert(&mut self, key: CompileKey, value: V, cost: u64) -> bool {
        if cost > self.budget {
            return false;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.remove_index(idx, false);
        }
        while self.resident + cost > self.budget {
            let tail = self.tail;
            debug_assert_ne!(tail, NIL, "cost fits the budget, so evicting must converge");
            self.remove_index(tail, true);
        }
        let node = Node { key, value, cost, prev: NIL, next: NIL };
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        self.push_front(idx);
        self.map.insert(key, idx);
        self.resident += cost;
        true
    }

    fn remove_index(&mut self, idx: usize, count_eviction: bool) {
        self.unlink(idx);
        self.map.remove(&self.nodes[idx].key);
        self.resident -= self.nodes[idx].cost;
        self.free.push(idx);
        if count_eviction {
            self.evictions += 1;
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev == NIL {
            if self.head == idx {
                self.head = next;
            }
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            if self.tail == idx {
                self.tail = prev;
            }
        } else {
            self.nodes[next].prev = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CompileKey {
        // Distinct keys via the public derivation path would need full
        // circuits; transmuting through parts() is not possible, so build
        // keys from distinct single-byte streams.
        use ecmas_core::stable::{StableHasher, FNV_ALT_BASIS};
        let mut a = StableHasher::new();
        let mut b = StableHasher::with_basis(FNV_ALT_BASIS);
        a.write_u64(n);
        b.write_u64(n);
        crate::key::test_key(a.finish(), b.finish())
    }

    #[test]
    fn get_touches_recency() {
        let mut lru = Lru::new(30);
        assert!(lru.insert(key(1), "a", 10));
        assert!(lru.insert(key(2), "b", 10));
        assert!(lru.insert(key(3), "c", 10));
        // Touch 1 so 2 becomes the cold tail, then overflow.
        assert_eq!(lru.get(&key(1)), Some(&"a"));
        assert!(lru.insert(key(4), "d", 10));
        assert_eq!(lru.get(&key(2)), None, "2 was coldest");
        assert_eq!(lru.get(&key(1)), Some(&"a"));
        assert_eq!(lru.evictions(), 1);
    }

    #[test]
    fn resident_never_exceeds_budget() {
        let mut lru = Lru::new(100);
        for n in 0..1000 {
            let cost = 1 + n % 40;
            lru.insert(key(n), n, cost);
            assert!(lru.resident_bytes() <= 100, "budget violated at {n}");
        }
        assert!(lru.evictions() > 0);
        assert!(lru.len() > 0);
    }

    #[test]
    fn oversized_entry_is_refused_without_flushing() {
        let mut lru = Lru::new(100);
        assert!(lru.insert(key(1), "keep", 60));
        assert!(!lru.insert(key(2), "too big", 101));
        assert_eq!(lru.get(&key(1)), Some(&"keep"), "refusal must not evict");
        assert_eq!(lru.resident_bytes(), 60);
    }

    #[test]
    fn replace_updates_cost() {
        let mut lru = Lru::new(100);
        assert!(lru.insert(key(1), "v1", 80));
        assert!(lru.insert(key(1), "v2", 30));
        assert_eq!(lru.resident_bytes(), 30);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&key(1)), Some(&"v2"));
        assert_eq!(lru.evictions(), 0, "replacement is not an eviction");
    }

    #[test]
    fn slots_are_recycled() {
        let mut lru = Lru::new(20);
        for n in 0..100 {
            lru.insert(key(n), n, 10);
        }
        assert!(lru.nodes.len() <= 3, "free list must recycle node slots");
    }
}
