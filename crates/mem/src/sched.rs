//! Scheduler index structures and diagnostics.
//!
//! The controller's linear FR-FCFS scan visits every queued request on
//! every tick. The indexed implementation ([`crate::config::SchedImpl::
//! Indexed`]) keeps one [`BankBucket`] per (rank, bank) and queue: the
//! bucket's candidate list is maintained incrementally on enqueue and
//! dequeue, and its candidates' merge keys — row hits under the
//! discipline's rules first — are rebuilt lazily, only after a command
//! to that bank invalidated the classification. Candidate selection then
//! becomes a k-way merge over per-bank key lists in the *exact*
//! (priority, arrival, queue-position) order the linear scan produces,
//! so both implementations issue bit-identical command streams
//! (DESIGN.md §3.13 has the argument).
//!
//! On top of the buckets, the controller memoizes a per-bank readiness
//! bound (`bank_ready`): when a full scan issues nothing, each
//! participating bank records the earliest cycle any of its candidates
//! could issue, stamped with the scheduler epoch. While the epoch is
//! unchanged, later ticks skip those banks entirely, and the minimum
//! over all recorded bounds becomes the controller-level wake hint that
//! lets the event-driven engine skip dead cycles even under load.

use crow_dram::{Cycle, IssueError};

/// Scheduler work counters, observable per [`SimReport`] and in
/// campaign `.summary.json` output. Diagnostic: like the wall-clock
/// fields they are *not* part of the cross-engine equivalence contract
/// (engines and scheduler implementations legitimately differ here).
///
/// [`SimReport`]: ../../crow_sim/struct.SimReport.html
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Commands issued from the request queues (scheduler picks).
    pub picks: u64,
    /// Candidates examined across all scans (classification during
    /// bucket rebuilds plus merge attempts, or full linear-scan visits).
    pub scanned: u64,
    /// Banks skipped by the memoized readiness bound without touching
    /// any of their candidates.
    pub fastpath_skips: u64,
    /// Lazy hit/miss bucket rebuilds.
    pub rebuilds: u64,
    /// Memory cycles the event engine skipped while requests were
    /// queued (possible only through the indexed wake hint).
    pub wakeup_skips: u64,
}

impl SchedStats {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates another controller's counters.
    pub fn merge(&mut self, other: &SchedStats) {
        self.picks += other.picks;
        self.scanned += other.scanned;
        self.fastpath_skips += other.fastpath_skips;
        self.rebuilds += other.rebuilds;
        self.wakeup_skips += other.wakeup_skips;
    }

    /// Average candidates examined per issued command (0 when nothing
    /// was picked).
    pub fn scanned_per_pick(&self) -> f64 {
        if self.picks == 0 {
            0.0
        } else {
            self.scanned as f64 / self.picks as f64
        }
    }
}

/// Accumulates the earliest cycle at which any failed issue attempt of
/// the current tick could succeed. `Cycle::MAX` means no reached code
/// path imposed a time bound (state-dependent failures are covered by
/// the epoch invalidation instead).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wake {
    /// Minimum retry cycle noted so far.
    pub at: Cycle,
}

impl Wake {
    pub fn new() -> Self {
        Self { at: Cycle::MAX }
    }

    /// Notes that a failed attempt becomes retriable at `at`.
    pub fn note(&mut self, at: Cycle) {
        self.at = self.at.min(at);
    }

    /// Notes a timing failure; structural (`WrongState`/`BadAddress`)
    /// failures carry no bound — they can only flip through a command
    /// issue or an enqueue, both of which bump the scheduler epoch.
    pub fn note_err(&mut self, e: &IssueError) {
        if let IssueError::TooEarly { ready_at } = e {
            self.note(*ready_at);
        }
    }

    pub fn merge(&mut self, other: &Wake) {
        self.at = self.at.min(other.at);
    }
}

/// The merge order of a candidate, (priority, arrival, queue position)
/// compared lexicographically, packed into one integer so the selector
/// compares heads with a single branch-free comparison.
pub(crate) fn merge_key(prio: u8, arrival: Cycle, pos: u32) -> u128 {
    (u128::from(prio) << 96) | (u128::from(arrival) << 32) | u128::from(pos)
}

/// The queue position a [`merge_key`] carries.
pub(crate) fn key_pos(key: u128) -> u32 {
    key as u32
}

/// One merge cursor over a bucket's key list during indexed selection.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cursor {
    /// The next unconsumed [`merge_key`], cached so the selector does
    /// not re-read the bucket on every attempt.
    pub key: u128,
    /// Bucket slot (`rank * banks + bank`).
    pub slot: u32,
    /// Index of `key` in the bucket's [`BankBucket::order`].
    pub next: u32,
    /// Index of the slot's entry in the scan's readiness-bound list.
    pub bound: u32,
}

/// Per-(rank, bank) candidate bucket of one request queue.
#[derive(Debug, Clone, Default)]
pub(crate) struct BankBucket {
    /// Live queue positions of this bank's requests as
    /// (arrival, position) pairs, kept sorted — the linear scan's exact
    /// intra-priority tie-break.
    pub cands: Vec<(Cycle, u32)>,
    /// Whether `order` and `hit_subarrays` reflect the bank's current
    /// row state and FR-FCFS-Cap counts.
    pub fresh: bool,
    /// Every candidate's [`merge_key`], ascending.
    pub order: Vec<u128>,
    /// Subarrays whose open activation serves at least one candidate.
    pub hit_subarrays: Vec<u32>,
}

/// One request queue's bank index: a [`BankBucket`] per (rank, bank).
#[derive(Debug, Clone, Default)]
pub(crate) struct QueueIndex {
    buckets: Vec<BankBucket>,
}

impl QueueIndex {
    pub fn new(slots: usize) -> Self {
        Self {
            buckets: (0..slots).map(|_| BankBucket::default()).collect(),
        }
    }

    pub fn bucket(&self, slot: usize) -> &BankBucket {
        &self.buckets[slot]
    }

    pub fn bucket_mut(&mut self, slot: usize) -> &mut BankBucket {
        &mut self.buckets[slot]
    }

    /// Records a push to the back of the queue. Arrival stamps are
    /// non-decreasing and the position is the queue's maximum, so
    /// appending keeps the bucket sorted.
    pub fn on_push(&mut self, slot: usize, arrival: Cycle, pos: u32) {
        let b = &mut self.buckets[slot];
        debug_assert!(b.cands.last().is_none_or(|&last| last < (arrival, pos)));
        b.cands.push((arrival, pos));
        b.fresh = false;
    }

    /// Removes the entry `(arrival, pos)` from `slot`.
    pub fn remove(&mut self, slot: usize, arrival: Cycle, pos: u32) {
        let b = &mut self.buckets[slot];
        match b.cands.binary_search(&(arrival, pos)) {
            Ok(i) => {
                b.cands.remove(i);
            }
            Err(_) => debug_assert!(false, "bank index lost entry ({arrival}, {pos})"),
        }
        b.fresh = false;
    }

    /// Re-keys the entry a queue `swap_remove` moved from the back
    /// (`old_pos`) into the vacated position (`new_pos`).
    pub fn reposition(&mut self, slot: usize, arrival: Cycle, old_pos: u32, new_pos: u32) {
        let b = &mut self.buckets[slot];
        match b.cands.binary_search(&(arrival, old_pos)) {
            Ok(i) => {
                b.cands.remove(i);
            }
            Err(_) => debug_assert!(false, "bank index lost entry ({arrival}, {old_pos})"),
        }
        let at = match b.cands.binary_search(&(arrival, new_pos)) {
            Ok(i) | Err(i) => i,
        };
        b.cands.insert(at, (arrival, new_pos));
        b.fresh = false;
    }

    /// Marks one bucket's hit/miss split stale (bank state changed).
    pub fn mark_stale(&mut self, slot: usize) {
        self.buckets[slot].fresh = false;
    }

    /// Marks every bucket stale (global state change, e.g. a CROW-table
    /// mutation through external access).
    pub fn mark_all_stale(&mut self) {
        for b in &mut self.buckets {
            b.fresh = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_and_ratio() {
        let mut a = SchedStats {
            picks: 2,
            scanned: 10,
            ..SchedStats::new()
        };
        let b = SchedStats {
            picks: 3,
            scanned: 5,
            fastpath_skips: 7,
            rebuilds: 1,
            wakeup_skips: 9,
        };
        a.merge(&b);
        assert_eq!(a.picks, 5);
        assert_eq!(a.scanned, 15);
        assert_eq!(a.fastpath_skips, 7);
        assert_eq!(a.wakeup_skips, 9);
        assert!((a.scanned_per_pick() - 3.0).abs() < 1e-12);
        assert_eq!(SchedStats::new().scanned_per_pick(), 0.0);
    }

    #[test]
    fn merge_key_orders_like_the_tuple() {
        let keys = [
            (0u8, 5u64, 9u32),
            (0, 5, 10),
            (0, 6, 0),
            (0, u64::MAX, u32::MAX),
            (1, 0, 0),
            (1, 1 << 40, 3),
        ];
        for a in keys {
            let ka = merge_key(a.0, a.1, a.2);
            assert_eq!(key_pos(ka), a.2);
            for b in keys {
                assert_eq!(
                    ka.cmp(&merge_key(b.0, b.1, b.2)),
                    a.cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn wake_tracks_minimum_and_ignores_structural_errors() {
        let mut w = Wake::new();
        assert_eq!(w.at, Cycle::MAX);
        w.note_err(&IssueError::WrongState("no open row"));
        assert_eq!(w.at, Cycle::MAX);
        w.note_err(&IssueError::TooEarly { ready_at: 90 });
        w.note(120);
        assert_eq!(w.at, 90);
        let mut other = Wake::new();
        other.note(50);
        w.merge(&other);
        assert_eq!(w.at, 50);
    }

    #[test]
    fn index_maintains_sorted_candidates_across_swap_remove() {
        let mut ix = QueueIndex::new(2);
        // Queue: pos0(bank0,t5) pos1(bank1,t6) pos2(bank0,t7).
        ix.on_push(0, 5, 0);
        ix.on_push(1, 6, 1);
        ix.on_push(0, 7, 2);
        // swap_remove(0): pos2 moves to pos0.
        ix.remove(0, 5, 0);
        ix.reposition(0, 7, 2, 0);
        assert_eq!(ix.bucket(0).cands, vec![(7, 0)]);
        assert_eq!(ix.bucket(1).cands, vec![(6, 1)]);
        assert!(!ix.bucket(0).fresh);
    }
}
