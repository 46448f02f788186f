//! The decoded-node pool: one bounded clock buffer of *decoded* nodes
//! above the crypto boundary, with a dirty bit per entry.
//!
//! The paper's cost model charges every node visit the decipherments the
//! scheme requires and every node mutation one re-encipherment; a real
//! engine does not have to pay either twice for the same page. The pool
//! keeps recently used nodes decoded so a repeated visit costs zero
//! physical cryptography, and lets a mutated node absorb further
//! mutations before its one physical seal — while the *logical* operation
//! counters keep reporting the paper's per-scheme cost (see
//! [`crate::NodeCodec::probe_cached`] and
//! [`crate::NodeCodec::encode_to_cache`]), so every comparative claim
//! stays measurable.
//!
//! Entries are keyed by node id. A *clean* entry decodes exactly the page
//! on the medium; a *dirty* entry is newer than it and is the node's only
//! authoritative copy until it is sealed (clock eviction over the dirty
//! cap, or a flush), after which it stays as a clean entry. Replacement
//! is second-chance clock, the classic buffer-pool policy.
//!
//! Security model: entries live in RAM only. Nothing here ever reaches
//! the medium (the stores below continue to hold only enciphered bytes),
//! and entry contents are zeroized when the last reference drops
//! (eviction, free, or pool drop), so later heap re-use cannot scrape
//! decoded keys out of dead memory.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use sks_storage::BlockId;

use crate::node::Node;

/// A decoded node plus the codec-specific sidecar needed to replay a
/// probe's logical cost from RAM (see [`crate::NodeCodec::probe_cached`]).
#[derive(Debug)]
pub struct CachedNode {
    /// The plaintext node.
    pub node: Node,
    /// Raw on-medium key-field values (e.g. disguised keys), for codecs
    /// whose probe path recovers or compares them per step. Empty for
    /// codecs that do not need them.
    pub raw_keys: Vec<u64>,
    /// Length in bytes of the page this node was decoded from (page-wide
    /// schemes charge decryptions proportional to it).
    pub page_len: usize,
}

fn zeroize_u64s(v: &mut [u64]) {
    for x in v.iter_mut() {
        // Volatile so the wipe of soon-to-be-freed memory is not elided.
        unsafe { std::ptr::write_volatile(x, 0) };
    }
}

impl Drop for CachedNode {
    fn drop(&mut self) {
        zeroize_u64s(&mut self.node.keys);
        for p in self.node.data_ptrs.iter_mut() {
            unsafe { std::ptr::write_volatile(&mut p.0, 0) };
        }
        for c in self.node.children.iter_mut() {
            unsafe { std::ptr::write_volatile(&mut c.0, 0) };
        }
        zeroize_u64s(&mut self.raw_keys);
    }
}

/// One clock slot of the pool.
#[derive(Debug)]
struct Slot {
    id: u32,
    /// `None` = vacant (forgotten or evicted, awaiting reuse).
    entry: Option<Arc<CachedNode>>,
    /// Second-chance bit: set by every hit and every re-dirtying, cleared
    /// by the sweep as the hand passes.
    referenced: bool,
    /// The page on the medium is stale: this entry owes one physical seal.
    dirty: bool,
}

#[derive(Debug, Default)]
struct Clock {
    /// Block id → slot in `slots`.
    map: HashMap<u32, usize>,
    slots: Vec<Slot>,
    /// Slots emptied by `forget`/eviction, reused before the ring grows.
    vacant: Vec<usize>,
    /// The next slot the sweep examines.
    hand: usize,
    /// Occupied slots with `dirty` set.
    dirty: usize,
}

impl Clock {
    /// The first occupied slot at the hand whose dirty bit equals
    /// `dirty` and whose referenced bit is clear. Matching slots passed
    /// on the way lose their bit, so two revolutions find a victim
    /// whenever any slot matches.
    fn sweep(&mut self, dirty: bool) -> Option<usize> {
        let n = self.slots.len();
        for _ in 0..2 * n {
            let idx = self.hand;
            self.hand = (idx + 1) % n;
            let slot = &mut self.slots[idx];
            if slot.entry.is_none() || slot.dirty != dirty {
                continue;
            }
            if slot.referenced {
                slot.referenced = false;
                continue;
            }
            return Some(idx);
        }
        None
    }

    fn insert(&mut self, id: u32, entry: Arc<CachedNode>, dirty: bool) {
        let slot = Slot {
            id,
            entry: Some(entry),
            referenced: dirty,
            dirty,
        };
        let idx = match self.vacant.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(id, idx);
        self.dirty += usize::from(dirty);
    }

    /// Empties slot `idx`; the plaintext is zeroized when the last
    /// outstanding reference drops.
    fn remove(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        slot.entry = None;
        self.dirty -= usize::from(slot.dirty);
        slot.dirty = false;
        self.map.remove(&slot.id);
        self.vacant.push(idx);
    }

    fn remove_id(&mut self, id: u32) {
        if let Some(&idx) = self.map.get(&id) {
            self.remove(idx);
        }
    }

    /// Evicts clean entries until at most `cap` remain; false when only
    /// dirty entries are left to evict.
    fn evict_clean_to(&mut self, cap: usize) -> bool {
        while self.map.len() > cap {
            match self.sweep(false) {
                Some(victim) => self.remove(victim),
                None => return false,
            }
        }
        true
    }
}

/// The bounded pool of decoded nodes. At most `capacity` entries are held
/// between calls, at most `dirty_cap` of them dirty.
///
/// Interior-mutable so read paths can fill it behind `&self`, but the
/// split of duties is strict: `&self` methods ([`NodePool::get`],
/// [`NodePool::fill`]) only ever add or evict *clean* entries, while
/// dirty entries are created, sealed and dropped only through `&mut self`
/// methods — the tree's write paths, the only ones that can write the
/// store.
#[derive(Debug)]
pub(crate) struct NodePool {
    clock: Mutex<Clock>,
    capacity: usize,
    dirty_cap: usize,
}

impl NodePool {
    /// A pool of at most `capacity` decoded nodes, at most
    /// `min(dirty_cap, capacity)` of them dirty. `(0, 0)` holds nothing:
    /// every write is sealed inside the mutation and every read decodes.
    pub fn new(capacity: usize, dirty_cap: usize) -> Self {
        NodePool {
            clock: Mutex::new(Clock::default()),
            capacity,
            dirty_cap: dirty_cap.min(capacity),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Clock> {
        self.clock.lock().expect("node pool lock poisoned")
    }

    fn clock_mut(&mut self) -> &mut Clock {
        self.clock.get_mut().expect("node pool lock poisoned")
    }

    /// The decoded node for `id`, clean or dirty, if present.
    pub fn get(&self, id: BlockId) -> Option<Arc<CachedNode>> {
        let mut clock = self.lock();
        let idx = *clock.map.get(&id.0)?;
        let slot = &mut clock.slots[idx];
        slot.referenced = true;
        slot.entry.as_ref().map(Arc::clone)
    }

    /// Read-path fill with a *clean* decoding of the page now on the
    /// medium. Never replaces a present entry (a dirty one is newer than
    /// the page) and evicts only a clean entry; with every entry dirty
    /// the fill is skipped.
    pub fn fill(&self, id: BlockId, entry: CachedNode) {
        if self.capacity == 0 {
            return;
        }
        let mut clock = self.lock();
        if !clock.map.contains_key(&id.0) && clock.evict_clean_to(self.capacity - 1) {
            clock.insert(id.0, Arc::new(entry), false);
        }
    }

    /// Parks `entry` as the dirty, authoritative copy of `id`, replacing
    /// any previous entry. The caller then seals every
    /// [`NodePool::dirty_victim`] and calls [`NodePool::shrink`].
    pub fn put_dirty(&mut self, id: BlockId, entry: CachedNode) {
        let clock = self.clock_mut();
        clock.remove_id(id.0);
        clock.insert(id.0, Arc::new(entry), true);
    }

    /// A cold dirty entry to seal while more than the dirty cap (or, with
    /// `all`, any) entries are dirty. It stays dirty until
    /// [`NodePool::mark_clean`], so a failed seal loses nothing.
    pub fn dirty_victim(&mut self, all: bool) -> Option<(BlockId, Arc<CachedNode>)> {
        let cap = if all { 0 } else { self.dirty_cap };
        let clock = self.clock_mut();
        if clock.dirty <= cap {
            return None;
        }
        let idx = clock.sweep(true)?;
        let slot = &clock.slots[idx];
        Some((BlockId(slot.id), Arc::clone(slot.entry.as_ref()?)))
    }

    /// Records that `id`'s entry was sealed: it stays as a clean decoded
    /// node.
    pub fn mark_clean(&mut self, id: BlockId) {
        let clock = self.clock_mut();
        if let Some(&idx) = clock.map.get(&id.0) {
            let slot = &mut clock.slots[idx];
            if slot.dirty {
                slot.dirty = false;
                clock.dirty -= 1;
            }
        }
    }

    /// Whether `id` is held dirty.
    pub fn is_dirty(&mut self, id: BlockId) -> bool {
        let clock = self.clock_mut();
        clock
            .map
            .get(&id.0)
            .is_some_and(|&idx| clock.slots[idx].dirty)
    }

    /// Evicts clean entries until at most `capacity` remain.
    pub fn shrink(&mut self) {
        let cap = self.capacity;
        self.clock_mut().evict_clean_to(cap);
    }

    /// Drops `id`'s entry, clean or dirty, without sealing (the node was
    /// freed).
    pub fn forget(&mut self, id: BlockId) {
        self.clock_mut().remove_id(id.0);
    }

    /// Decoded nodes held, clean and dirty.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Dirty nodes held (each owes the medium one physical seal).
    pub fn dirty_len(&self) -> usize {
        self.lock().dirty
    }

    /// Maximum nodes the pool holds between calls.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::RecordPtr;

    fn entry(id: u32, key: u64) -> CachedNode {
        CachedNode {
            node: Node {
                id: BlockId(id),
                keys: vec![key],
                data_ptrs: vec![RecordPtr(key * 10)],
                children: vec![],
            },
            raw_keys: vec![key ^ 0xAA],
            page_len: 256,
        }
    }

    #[test]
    fn fill_hit_and_forget() {
        let mut pool = NodePool::new(16, 4);
        assert!(pool.get(BlockId(3)).is_none());
        pool.fill(BlockId(3), entry(3, 7));
        assert_eq!(pool.get(BlockId(3)).unwrap().node.keys, vec![7]);
        pool.forget(BlockId(3));
        assert!(pool.get(BlockId(3)).is_none());
        assert_eq!(pool.len(), 0);
    }

    #[test]
    fn clean_capacity_is_bounded_and_second_chance() {
        let pool = NodePool::new(2, 0);
        pool.fill(BlockId(0), entry(0, 0));
        pool.fill(BlockId(1), entry(1, 1));
        let _ = pool.get(BlockId(0)); // referenced: survives one sweep
        pool.fill(BlockId(2), entry(2, 2));
        assert_eq!(pool.len(), 2);
        assert!(pool.get(BlockId(0)).is_some());
        assert!(pool.get(BlockId(1)).is_none(), "cold entry evicted");
    }

    #[test]
    fn fill_never_replaces_or_evicts_dirty() {
        let mut pool = NodePool::new(1, 1);
        pool.put_dirty(BlockId(4), entry(4, 2));
        pool.fill(BlockId(4), entry(4, 1));
        assert_eq!(pool.get(BlockId(4)).unwrap().node.keys, vec![2]);
        pool.fill(BlockId(5), entry(5, 5)); // only victim is dirty: skipped
        assert!(pool.get(BlockId(5)).is_none());
        assert_eq!((pool.len(), pool.dirty_len()), (1, 1));
    }

    #[test]
    fn dirty_cap_yields_victims_that_stay_clean_after_seal() {
        let mut pool = NodePool::new(4, 1);
        pool.put_dirty(BlockId(1), entry(1, 1));
        assert!(pool.dirty_victim(false).is_none(), "within the cap");
        pool.put_dirty(BlockId(2), entry(2, 2));
        let (id, _) = pool.dirty_victim(false).expect("over the cap");
        pool.mark_clean(id);
        assert!(pool.dirty_victim(false).is_none());
        assert!(pool.dirty_victim(true).is_some(), "a flush seals the rest");
        assert_eq!((pool.len(), pool.dirty_len()), (2, 1));
        assert!(pool.get(id).is_some(), "a sealed entry stays decoded");
    }

    #[test]
    fn zero_capacity_holds_nothing_after_shrink() {
        let mut pool = NodePool::new(0, 64);
        pool.put_dirty(BlockId(7), entry(7, 7));
        let (id, _) = pool.dirty_victim(false).expect("dirty cap is 0");
        pool.mark_clean(id);
        pool.shrink();
        assert_eq!(pool.len(), 0);
        pool.fill(BlockId(7), entry(7, 7));
        assert_eq!(pool.len(), 0);
    }

    #[test]
    fn redirtying_replaces_the_entry_and_counts_once() {
        let mut pool = NodePool::new(8, 8);
        pool.fill(BlockId(1), entry(1, 1));
        pool.put_dirty(BlockId(1), entry(1, 2));
        pool.put_dirty(BlockId(1), entry(1, 3));
        assert_eq!((pool.len(), pool.dirty_len()), (1, 1));
        assert_eq!(pool.get(BlockId(1)).unwrap().node.keys, vec![3]);
        assert!(pool.is_dirty(BlockId(1)));
        pool.forget(BlockId(1));
        assert_eq!((pool.len(), pool.dirty_len()), (0, 0));
    }

    #[test]
    fn entries_zeroize_on_drop() {
        // The Drop impl wipes in place; this exercises it directly (the
        // wipe also runs on every eviction above).
        let e = entry(1, 42);
        drop(e);
    }
}
