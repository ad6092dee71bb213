//! The CROW-table (paper §3.3): an *n*-way set-associative table in the
//! memory controller, one set per (bank, subarray group), one way per
//! copy row.

/// Which mechanism owns a CROW-table entry (stored in the `Special` field
/// of the paper's entry format; one bit suffices for cache-vs-ref, we use
/// a small enum to also accommodate the RowHammer mechanism of §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Owner {
    /// CROW-cache duplicate (evictable, LRU-managed).
    Cache,
    /// CROW-ref weak-row remap (pinned).
    Ref,
    /// RowHammer victim remap (pinned).
    Hammer,
}

/// One CROW-table entry: a valid mapping from a regular row to the copy
/// row this way represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The regular row (bank-relative row number) this copy row
    /// duplicates or replaces — the paper's `RegularRowID` field.
    pub row: u32,
    /// Owning mechanism — part of the paper's `Special` field.
    pub owner: Owner,
    /// The `isFullyRestored` bit (paper §4.1.4): `false` means the pair
    /// was precharged before full restoration and may only be activated
    /// with `ACT-t`.
    pub fully_restored: bool,
}

/// One set: `ways` optional entries with LRU ordering.
#[derive(Debug, Clone)]
struct Set {
    entries: Vec<Option<Entry>>,
    /// Larger = more recently used.
    stamp: Vec<u64>,
}

/// The CROW-table.
///
/// Indexed by `(bank, subarray / share_factor)`; `share_factor > 1`
/// implements the storage optimization of paper §6.1 where one entry set
/// serves several subarrays.
#[derive(Debug, Clone)]
pub struct CrowTable {
    sets: Vec<Set>,
    sets_per_bank: u32,
    subarrays_per_bank: u32,
    share_factor: u32,
    ways: u8,
    tick: u64,
}

impl CrowTable {
    /// Creates an empty table for `banks × subarrays_per_bank` subarrays
    /// with `ways` copy rows per subarray and an entry-sharing factor.
    ///
    /// # Panics
    ///
    /// Panics if `share_factor` is zero or does not divide
    /// `subarrays_per_bank`.
    pub fn new(banks: u32, subarrays_per_bank: u32, ways: u8, share_factor: u32) -> Self {
        assert!(share_factor > 0, "share_factor must be nonzero");
        assert_eq!(
            subarrays_per_bank % share_factor,
            0,
            "share_factor must divide subarrays_per_bank"
        );
        let sets_per_bank = subarrays_per_bank / share_factor;
        let count = (banks * sets_per_bank) as usize;
        Self {
            sets: (0..count)
                .map(|_| Set {
                    entries: vec![None; ways as usize],
                    stamp: vec![0; ways as usize],
                })
                .collect(),
            sets_per_bank,
            subarrays_per_bank,
            share_factor,
            ways,
            tick: 0,
        }
    }

    /// Number of ways (copy rows per subarray).
    pub fn ways(&self) -> u8 {
        self.ways
    }

    /// The entry-sharing factor (1 = dedicated sets, paper default).
    pub fn share_factor(&self) -> u32 {
        self.share_factor
    }

    #[inline]
    fn set_index(&self, bank: u32, subarray: u32) -> usize {
        debug_assert!(subarray < self.subarrays_per_bank);
        (bank * self.sets_per_bank + subarray / self.share_factor) as usize
    }

    /// Looks up the entry mapping regular row `row`, returning its way.
    #[inline]
    pub fn lookup(&self, bank: u32, subarray: u32, row: u32) -> Option<(u8, Entry)> {
        let set = &self.sets[self.set_index(bank, subarray)];
        set.entries
            .iter()
            .enumerate()
            .find_map(|(w, e)| e.filter(|e| e.row == row).map(|e| (w as u8, e)))
    }

    /// The entry stored at a specific way, if any.
    pub fn entry_at(&self, bank: u32, subarray: u32, way: u8) -> Option<Entry> {
        self.sets[self.set_index(bank, subarray)].entries[way as usize]
    }

    /// Marks a way as most-recently-used.
    pub fn touch(&mut self, bank: u32, subarray: u32, way: u8) {
        let idx = self.set_index(bank, subarray);
        self.tick += 1;
        self.sets[idx].stamp[way as usize] = self.tick;
    }

    /// Installs an entry into `way`, returning the displaced entry.
    pub fn install(&mut self, bank: u32, subarray: u32, way: u8, entry: Entry) -> Option<Entry> {
        let idx = self.set_index(bank, subarray);
        self.tick += 1;
        self.sets[idx].stamp[way as usize] = self.tick;
        self.sets[idx].entries[way as usize].replace(entry)
    }

    /// Invalidates `way`, returning the removed entry.
    pub fn remove(&mut self, bank: u32, subarray: u32, way: u8) -> Option<Entry> {
        let idx = self.set_index(bank, subarray);
        self.sets[idx].entries[way as usize].take()
    }

    /// Updates the `isFullyRestored` bit of the entry mapping `row`.
    pub fn set_restored(&mut self, bank: u32, subarray: u32, row: u32, restored: bool) {
        let idx = self.set_index(bank, subarray);
        for e in self.sets[idx].entries.iter_mut().flatten() {
            if e.row == row {
                e.fully_restored = restored;
            }
        }
    }

    /// The first unallocated way, if any.
    pub fn free_way(&self, bank: u32, subarray: u32) -> Option<u8> {
        let set = &self.sets[self.set_index(bank, subarray)];
        set.entries
            .iter()
            .position(|e| e.is_none())
            .map(|w| w as u8)
    }

    /// The least-recently-used way owned by CROW-cache (pinned ref/hammer
    /// entries are never eviction candidates).
    pub fn lru_cache_way(&self, bank: u32, subarray: u32) -> Option<(u8, Entry)> {
        let set = &self.sets[self.set_index(bank, subarray)];
        set.entries
            .iter()
            .enumerate()
            .filter_map(|(w, e)| {
                e.filter(|e| e.owner == Owner::Cache)
                    .map(|e| (w as u8, e, set.stamp[w]))
            })
            .min_by_key(|&(_, _, stamp)| stamp)
            .map(|(w, e, _)| (w, e))
    }

    /// Number of allocated entries in the set serving `(bank, subarray)`.
    pub fn occupancy(&self, bank: u32, subarray: u32) -> usize {
        self.sets[self.set_index(bank, subarray)]
            .entries
            .iter()
            .flatten()
            .count()
    }

    /// Total allocated entries across the table.
    pub fn total_occupancy(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.entries.iter().flatten().count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(row: u32) -> Entry {
        Entry {
            row,
            owner: Owner::Cache,
            fully_restored: true,
        }
    }

    #[test]
    fn install_and_lookup() {
        let mut t = CrowTable::new(2, 8, 4, 1);
        assert_eq!(t.lookup(0, 3, 42), None);
        let w = t.free_way(0, 3).unwrap();
        t.install(0, 3, w, entry(42));
        let (way, e) = t.lookup(0, 3, 42).unwrap();
        assert_eq!(way, w);
        assert_eq!(e.row, 42);
        // Other banks/subarrays unaffected.
        assert_eq!(t.lookup(1, 3, 42), None);
        assert_eq!(t.lookup(0, 4, 42), None);
        assert_eq!(t.total_occupancy(), 1);
    }

    #[test]
    fn lru_evicts_oldest_cache_entry() {
        let mut t = CrowTable::new(1, 1, 2, 1);
        t.install(0, 0, 0, entry(1));
        t.install(0, 0, 1, entry(2));
        t.touch(0, 0, 0); // row 1 becomes MRU
        let (way, e) = t.lru_cache_way(0, 0).unwrap();
        assert_eq!((way, e.row), (1, 2));
    }

    #[test]
    fn pinned_entries_not_eviction_candidates() {
        let mut t = CrowTable::new(1, 1, 2, 1);
        t.install(
            0,
            0,
            0,
            Entry {
                row: 9,
                owner: Owner::Ref,
                fully_restored: true,
            },
        );
        t.install(0, 0, 1, entry(2));
        // Even though way 0 is older, the ref entry is pinned.
        let (way, _) = t.lru_cache_way(0, 0).unwrap();
        assert_eq!(way, 1);
        t.remove(0, 0, 1);
        assert!(t.lru_cache_way(0, 0).is_none());
    }

    #[test]
    fn sharing_maps_neighbouring_subarrays_to_one_set() {
        let mut t = CrowTable::new(1, 8, 2, 4);
        t.install(0, 0, 0, entry(10));
        // Subarray 3 shares the set with subarray 0; the entry occupies
        // a way for both.
        assert_eq!(t.occupancy(0, 3), 1);
        assert_eq!(t.occupancy(0, 4), 0);
        // Lookups match on row id regardless of which subarray asks.
        assert!(t.lookup(0, 2, 10).is_some());
    }

    #[test]
    fn set_restored_updates_entry() {
        let mut t = CrowTable::new(1, 1, 1, 1);
        t.install(0, 0, 0, entry(5));
        t.set_restored(0, 0, 5, false);
        assert!(!t.lookup(0, 0, 5).unwrap().1.fully_restored);
        t.set_restored(0, 0, 5, true);
        assert!(t.lookup(0, 0, 5).unwrap().1.fully_restored);
    }

    #[test]
    #[should_panic(expected = "share_factor")]
    fn bad_share_factor_rejected() {
        let _ = CrowTable::new(1, 8, 2, 3);
    }

    #[test]
    fn install_returns_displaced_entry() {
        let mut t = CrowTable::new(1, 1, 1, 1);
        assert_eq!(t.install(0, 0, 0, entry(1)), None);
        let old = t.install(0, 0, 0, entry(2)).unwrap();
        assert_eq!(old.row, 1);
    }
}
