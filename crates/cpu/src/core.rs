//! The per-core out-of-order window model.

use std::collections::VecDeque;

use crate::trace::{TraceError, TraceSource};

/// A point in time in CPU clock cycles.
pub type CpuCycle = u64;

const WAITING: CpuCycle = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Cycle at which the instruction may retire (`WAITING` for a load
    /// whose fill has not returned).
    ready_at: CpuCycle,
    /// Identifier used to mark waiting loads ready on completion.
    seq: u64,
}

/// A simple out-of-order core: instructions enter an in-order window and
/// retire in order, up to `ipc` per cycle; only loads can block
/// retirement (stores are posted, compute instructions are single-cycle).
///
/// This is the standard trace-driven model Ramulator uses for CPU traces
/// and is the core the paper simulates (4-wide, 128-entry window).
pub struct Core {
    /// The named window slots, in dispatch order, behind the ready head.
    /// Their seqs are consecutive, so a slot is found by its offset from
    /// the front seq.
    window: VecDeque<Slot>,
    /// Anonymous slots ahead of `window`, every one already retirable.
    /// A mechanical stretch leaves only such slots behind (see
    /// [`Core::advance_inert`]), and their `ready_at` and `seq` can never
    /// be observed again, so they are kept as a count.
    ready_head: usize,
    /// `WAITING` slots in `window`.
    waiting: usize,
    /// The largest finite `ready_at` ever stored in `window`.
    max_ready: CpuCycle,
    window_size: usize,
    ipc: u32,
    trace: Box<dyn TraceSource>,
    /// Bubbles left to dispatch from the current trace record.
    pending_bubbles: u32,
    /// The current record's memory access, if not yet dispatched.
    pending_access: Option<crate::trace::MemAccess>,
    next_seq: u64,
    retired: u64,
    target: u64,
    finish_cycle: Option<CpuCycle>,
    /// Set when the trace ran dry; the core is then *parked* (counts as
    /// finished so the simulation can terminate gracefully).
    trace_fault: Option<TraceError>,
    /// Demand LLC load misses (for MPKI reporting).
    pub(crate) demand_misses: u64,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("retired", &self.retired)
            .field("window", &self.window_len())
            .finish()
    }
}

impl Core {
    /// Creates a core over an endless trace.
    pub fn new(trace: Box<dyn TraceSource>, ipc: u32, window_size: usize, target: u64) -> Self {
        Self {
            window: VecDeque::with_capacity(window_size),
            ready_head: 0,
            waiting: 0,
            max_ready: 0,
            window_size,
            ipc,
            trace,
            pending_bubbles: 0,
            pending_access: None,
            next_seq: 0,
            retired: 0,
            target,
            finish_cycle: None,
            trace_fault: None,
            demand_misses: 0,
        }
    }

    /// Instructions retired (frozen at the target).
    pub fn retired(&self) -> u64 {
        self.retired.min(self.target)
    }

    /// The cycle the core hit its instruction target, if it has.
    pub fn finish_cycle(&self) -> Option<CpuCycle> {
        self.finish_cycle
    }

    /// Whether the core is done: either the instruction target was
    /// reached, or the trace ran dry and the core parked itself (see
    /// [`Core::trace_fault`]).
    pub fn finished(&self) -> bool {
        self.finish_cycle.is_some() || self.trace_fault.is_some()
    }

    /// The trace fault that parked this core, if any.
    pub fn trace_fault(&self) -> Option<TraceError> {
        self.trace_fault
    }

    /// IPC over the measured window (0 until finished if asked early).
    pub fn ipc_value(&self) -> f64 {
        match self.finish_cycle {
            Some(c) if c > 0 => self.target as f64 / c as f64,
            _ => 0.0,
        }
    }

    /// Demand misses per kilo-instruction so far.
    pub fn mpki(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.demand_misses as f64 * 1000.0 / self.retired.min(self.target) as f64
        }
    }

    /// Retires up to `ipc` ready instructions from the window head.
    pub fn retire(&mut self, now: CpuCycle) {
        for _ in 0..self.ipc {
            if self.ready_head > 0 {
                self.ready_head -= 1;
            } else {
                match self.window.front() {
                    Some(s) if s.ready_at <= now => {
                        self.window.pop_front();
                    }
                    _ => break,
                }
            }
            self.retired += 1;
            if self.retired == self.target && self.finish_cycle.is_none() {
                self.finish_cycle = Some(now.max(1));
            }
        }
    }

    /// In-flight instructions: the ready head plus the named slots.
    fn window_len(&self) -> usize {
        self.ready_head + self.window.len()
    }

    /// Whether the window has space for another instruction.
    pub fn window_has_space(&self) -> bool {
        self.window_len() < self.window_size
    }

    /// Pulls trace records until a dispatchable instruction is pending.
    /// If the trace runs dry the core records the fault and parks itself
    /// (no pending work, [`Core::finished`] turns true) instead of
    /// panicking mid-simulation; callers must check
    /// [`Core::trace_fault`] before dispatching.
    pub fn refill_pending(&mut self) {
        while self.pending_bubbles == 0 && self.pending_access.is_none() {
            if self.trace_fault.is_some() {
                return;
            }
            match self.trace.try_next_entry() {
                Ok(e) => {
                    self.pending_bubbles = e.bubbles;
                    self.pending_access = e.access;
                }
                Err(e) => {
                    self.trace_fault = Some(e);
                    return;
                }
            }
        }
    }

    /// The memory access waiting to dispatch, if the current record has
    /// drained its bubbles.
    pub fn pending_access(&self) -> Option<crate::trace::MemAccess> {
        if self.pending_bubbles == 0 {
            self.pending_access
        } else {
            None
        }
    }

    /// Dispatches one bubble (compute) instruction.
    pub fn dispatch_bubble(&mut self, now: CpuCycle) {
        debug_assert!(self.pending_bubbles > 0 && self.window_has_space());
        self.pending_bubbles -= 1;
        self.push_ready(now);
    }

    /// Dispatches the pending memory access as already-satisfied (store,
    /// or load hit ready at `ready_at`).
    pub fn dispatch_ready(&mut self, ready_at: CpuCycle) {
        debug_assert!(self.pending_access().is_some() && self.window_has_space());
        self.pending_access = None;
        self.push_ready(ready_at);
    }

    fn push_ready(&mut self, ready_at: CpuCycle) {
        let seq = self.alloc_seq();
        self.max_ready = self.max_ready.max(ready_at);
        self.window.push_back(Slot { ready_at, seq });
    }

    /// Dispatches the pending load as waiting on memory; returns the seq
    /// to mark ready later.
    pub fn dispatch_waiting(&mut self) -> u64 {
        debug_assert!(self.pending_access().is_some() && self.window_has_space());
        self.pending_access = None;
        let seq = self.alloc_seq();
        self.window.push_back(Slot {
            ready_at: WAITING,
            seq,
        });
        self.waiting += 1;
        seq
    }

    /// Marks a waiting load ready (fill returned). Waiting slots are
    /// always named, and named seqs are consecutive, so the slot sits at
    /// offset `seq - front.seq`.
    pub fn complete(&mut self, seq: u64, now: CpuCycle) {
        let front = self.window.front().map_or(seq, |s| s.seq);
        let Some(s) = self.window.get_mut(seq.wrapping_sub(front) as usize) else {
            debug_assert!(false, "completion for unknown seq {seq}");
            return;
        };
        debug_assert_eq!(s.seq, seq, "window seqs are not consecutive");
        debug_assert_eq!(s.ready_at, WAITING, "completing a non-waiting slot");
        s.ready_at = now;
        self.waiting -= 1;
        self.max_ready = self.max_ready.max(now);
    }

    fn alloc_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Consumes up to `max` of the pending record's bubbles without
    /// dispatching them, returning how many were taken. The functional
    /// warmup path batches a record's compute instructions in one step
    /// instead of cycling each through the instruction window — bubbles
    /// touch no architectural state the warmup preserves.
    pub fn skip_bubbles(&mut self, max: u64) -> u64 {
        let k = u64::from(self.pending_bubbles).min(max);
        self.pending_bubbles -= k as u32;
        k
    }

    /// Consumes the pending memory access without dispatching it
    /// (functional warmup path); `None` while bubbles still precede it.
    pub fn take_access(&mut self) -> Option<crate::trace::MemAccess> {
        if self.pending_bubbles == 0 {
            self.pending_access.take()
        } else {
            None
        }
    }

    /// Advances the dispatch sequence counter as if `n` instructions
    /// had been dispatched, keeping the batched functional warmup
    /// bit-identical to the historical one-instruction-at-a-time path.
    /// Only called on an empty window, so the named slots' seqs stay
    /// consecutive.
    pub fn bump_seq(&mut self, n: u64) {
        debug_assert!(self.window_empty(), "bump_seq on a busy window");
        self.next_seq += n;
    }

    /// How many cycles starting at `now` this core is provably *inert*:
    /// its per-cycle behaviour is either a full stall (window full, head
    /// not yet retirable — the cycle does nothing at all) or a purely
    /// mechanical bubble stretch (retire `ipc` ready slots, dispatch
    /// `ipc` bubbles — no trace refill, no memory access, no LLC touch).
    /// Such cycles can be replayed in closed form by
    /// [`Core::advance_inert`] with bit-identical results. Runs in O(1):
    /// it reads the ready head, the waiting count, the ready watermark
    /// and the front slot, never the whole window.
    ///
    /// Returns 0 if the next cycle must run normally; `u64::MAX` means
    /// inert until an external completion arrives.
    pub fn inert_cycles(&self, now: CpuCycle) -> u64 {
        if self.trace_fault.is_some() && self.window_empty() {
            // Parked with a drained window: no retire, no dispatch, no
            // refill can ever happen again — inert indefinitely.
            return u64::MAX;
        }
        if self.is_mechanical(now) {
            let n = u64::from(self.ipc);
            let mut k = u64::from(self.pending_bubbles) / n;
            if self.finish_cycle.is_none() {
                // Stop strictly before the retirement target so the
                // finishing cycle itself runs through the normal path and
                // records `finish_cycle` exactly as the naive stepper
                // would.
                k = k.min(self.target.saturating_sub(self.retired + 1) / n);
            }
            return k;
        }
        if !self.window_has_space() && self.ready_head == 0 {
            // Fully stalled: nothing can dispatch, and retirement resumes
            // only once the head slot becomes ready.
            return match self.window.front() {
                Some(s) if s.ready_at == WAITING => u64::MAX,
                Some(s) if s.ready_at > now => s.ready_at - now,
                _ => 0,
            };
        }
        0
    }

    /// Mechanical-stretch preconditions: enough queued bubbles that no
    /// trace refill or access dispatch happens, a window deep enough
    /// that exactly `ipc` slots retire per cycle, and every slot already
    /// retirable (so retirement never blocks mid-stretch). The window
    /// length is then invariant cycle over cycle: retire `ipc`, dispatch
    /// `ipc` bubbles.
    ///
    /// "Every slot retirable" is read off two counters, not the window:
    /// a slot with `ready_at > now` is either `WAITING` or finite and at
    /// most `max_ready`; and a slot with a finite `ready_at > now` cannot
    /// have retired yet, since retirement happened at cycles `<= now`.
    /// So some slot has `ready_at > now` exactly when
    /// `waiting > 0 || max_ready > now`.
    fn is_mechanical(&self, now: CpuCycle) -> bool {
        let n = u64::from(self.ipc);
        u64::from(self.pending_bubbles) >= n
            && self.window_len() as u64 >= n
            && self.waiting == 0
            && self.max_ready <= now
    }

    /// Replays `k` cycles agreed inert by [`Core::inert_cycles`] in
    /// O(1). For a stalled core this is a no-op; for a mechanical bubble
    /// stretch it applies the exact retire/dispatch effects of cycles
    /// `now .. now + k`: `ipc * k` retirements and as many bubble
    /// dispatches, with the window length unchanged.
    pub fn advance_inert(&mut self, now: CpuCycle, k: u64) {
        if k == 0 || !self.is_mechanical(now) {
            return;
        }
        let pushes = u64::from(self.ipc) * k;
        debug_assert!(u64::from(self.pending_bubbles) >= pushes);
        self.retired += pushes;
        self.pending_bubbles -= pushes as u32;
        self.next_seq += pushes;
        // Every slot left in the window — old ones that survived a short
        // stretch and bubbles dispatched in cycles `< now + k` — is
        // retirable from cycle `now + k` on and none is waiting. No later
        // call can observe their `ready_at` or `seq`, so the whole window
        // collapses into the ready head.
        self.ready_head = self.window_len();
        self.window.clear();
    }

    /// Zeroes retirement statistics (used after functional warmup so the
    /// measured window starts clean).
    pub fn reset_measurement(&mut self) {
        self.retired = 0;
        self.finish_cycle = None;
        self.demand_misses = 0;
    }

    /// Starts a new measured phase mid-run: zeroes the retirement
    /// statistics and arms a fresh instruction target. In-flight window
    /// slots are kept — instructions dispatched by the previous phase
    /// retire into this one, which is exactly what a mid-run measurement
    /// boundary wants (the pipeline stays full across the boundary).
    pub fn begin_phase(&mut self, target: u64) {
        self.reset_measurement();
        self.target = target;
    }

    /// Whether the in-order window holds no in-flight instructions.
    pub fn window_empty(&self) -> bool {
        self.window_len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{LoopedTrace, TraceEntry};

    fn core(entries: Vec<TraceEntry>, target: u64) -> Core {
        Core::new(Box::new(LoopedTrace::new(entries)), 4, 8, target)
    }

    #[test]
    fn bubbles_retire_at_ipc() {
        let mut c = core(vec![TraceEntry::bubbles(100)], 16);
        for now in 0..10 {
            c.retire(now);
            for _ in 0..4 {
                if !c.window_has_space() {
                    break;
                }
                c.refill_pending();
                if c.pending_access().is_none() {
                    c.dispatch_bubble(now);
                }
            }
        }
        // 4-wide: 16 instructions retire within a handful of cycles.
        assert!(c.finished());
        assert!(c.ipc_value() > 2.0, "ipc {}", c.ipc_value());
    }

    #[test]
    fn waiting_load_blocks_retirement() {
        let mut c = core(vec![TraceEntry::load(0, 0x40)], 8);
        c.refill_pending();
        assert!(c.pending_access().is_some());
        let seq = c.dispatch_waiting();
        // Dispatch more bubbles behind the load.
        for _ in 0..3 {
            c.refill_pending();
            let s2 = c.dispatch_waiting();
            c.complete(s2, 0); // later loads complete immediately
        }
        c.retire(5);
        assert_eq!(c.retired(), 0, "head load still waiting");
        c.complete(seq, 6);
        c.retire(6);
        assert_eq!(c.retired(), 4);
    }

    #[test]
    fn finish_freezes_ipc() {
        let mut c = core(vec![TraceEntry::bubbles(10)], 8);
        for now in 0..100 {
            c.retire(now);
            while c.window_has_space() {
                c.refill_pending();
                c.dispatch_bubble(now);
            }
        }
        assert!(c.finished());
        let ipc = c.ipc_value();
        assert!(ipc > 0.0);
        assert_eq!(c.retired(), 8);
    }

    #[test]
    fn exhausted_trace_parks_core_instead_of_panicking() {
        use crate::trace::IterTrace;
        let entries = vec![TraceEntry::bubbles(2), TraceEntry::load(0, 0x40)];
        let src = IterTrace::try_new(entries.into_iter()).unwrap();
        let mut c = Core::new(Box::new(src), 4, 8, 1000);
        // Drain the two records.
        for now in 0..4 {
            c.refill_pending();
            if c.trace_fault().is_some() {
                break;
            }
            if c.pending_access().is_some() {
                c.dispatch_ready(now);
            } else {
                c.dispatch_bubble(now);
            }
        }
        c.refill_pending(); // trace is dry now
        assert_eq!(c.trace_fault(), Some(TraceError::Exhausted { after: 2 }));
        assert!(c.finished(), "parked core counts as finished");
        assert!(c.pending_access().is_none());
        // Parking is stable: further refills stay parked.
        c.refill_pending();
        assert_eq!(c.trace_fault(), Some(TraceError::Exhausted { after: 2 }));
        // Retire what dispatched; the window drains and the core goes
        // permanently inert.
        c.retire(10);
        assert_eq!(c.inert_cycles(11), u64::MAX);
    }

    /// One naive cycle of a lone core: retire, then dispatch up to
    /// `ipc` instructions. Trace loads encode their own fate in the
    /// address: bit 0 clear is an LLC hit ready 3 cycles later, bit 0
    /// set waits on memory for `vaddr >> 6` cycles. Appends the
    /// `(due, seq)` of every load it sends to memory to `sent`.
    fn lockstep_cycle(c: &mut Core, now: CpuCycle, sent: &mut Vec<(CpuCycle, u64)>) {
        c.retire(now);
        for _ in 0..c.ipc {
            if !c.window_has_space() {
                break;
            }
            c.refill_pending();
            match c.pending_access() {
                None => c.dispatch_bubble(now),
                Some(a) if a.is_write => c.dispatch_ready(now),
                Some(a) if a.vaddr & 1 == 0 => c.dispatch_ready(now + 3),
                Some(a) => sent.push((now + (a.vaddr >> 6), c.dispatch_waiting())),
            }
        }
    }

    /// Delivers the completions due at `now`.
    fn deliver(c: &mut Core, now: CpuCycle, inflight: &mut Vec<(CpuCycle, u64)>) {
        inflight.retain(|&(due, seq)| {
            if due == now {
                c.complete(seq, now);
            }
            due != now
        });
    }

    #[test]
    fn inert_fast_forward_matches_cycle_stepping() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut mechanical_skips = 0;
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            let entries: Vec<TraceEntry> = (0..rng.gen_range(20..60usize))
                .map(|_| {
                    let n = rng.gen_range(0..48u32);
                    match rng.gen_range(0..4u32) {
                        0 => TraceEntry::bubbles(n),
                        1 => TraceEntry::store(n, 0x1000),
                        2 => TraceEntry::load(n, 0x2000),
                        _ => TraceEntry::load(n, (rng.gen_range(1..80u64) << 6) | 1),
                    }
                })
                .collect();
            let target = rng.gen_range(300..3000u64);
            let mk = || Core::new(Box::new(LoopedTrace::new(entries.clone())), 4, 12, target);
            let (mut slow, mut fast) = (mk(), mk());
            let (mut slow_mem, mut fast_mem) = (Vec::new(), Vec::new());
            // `fast` has simulated every cycle before `fast_at`.
            let mut fast_at = 0;
            for now in 0..20_000 {
                deliver(&mut slow, now, &mut slow_mem);
                lockstep_cycle(&mut slow, now, &mut slow_mem);
                if fast_at == now {
                    deliver(&mut fast, now, &mut fast_mem);
                    // Like the engine, never skip past a completion.
                    let next_due = fast_mem.iter().map(|&(d, _)| d).min().unwrap_or(u64::MAX);
                    let k = fast.inert_cycles(now).min(next_due - now);
                    if k > 0 && k != u64::MAX {
                        mechanical_skips += u64::from(fast.is_mechanical(now));
                        fast.advance_inert(now, k);
                        fast_at = now + k;
                    } else {
                        lockstep_cycle(&mut fast, now, &mut fast_mem);
                        fast_at = now + 1;
                    }
                }
                if fast_at != now + 1 {
                    continue;
                }
                let t = now + 1;
                let ctx = format!("seed {seed}, cycle {t}");
                assert_eq!(slow.retired(), fast.retired(), "{ctx}");
                assert_eq!(slow.finish_cycle(), fast.finish_cycle(), "{ctx}");
                assert_eq!(slow.window_has_space(), fast.window_has_space(), "{ctx}");
                assert_eq!(slow.window_empty(), fast.window_empty(), "{ctx}");
                assert_eq!(slow.inert_cycles(t), fast.inert_cycles(t), "{ctx}");
                assert_eq!(slow.next_seq, fast.next_seq, "{ctx}: next waiting seq");
                assert_eq!(slow_mem, fast_mem, "{ctx}: in-flight loads");
            }
            assert!(slow.finished(), "seed {seed} never reached its target");
        }
        assert!(mechanical_skips > 100, "only {mechanical_skips} stretches");
    }

    #[test]
    fn window_capacity_respected() {
        let mut c = core(vec![TraceEntry::bubbles(1000)], 1000);
        for _ in 0..20 {
            if !c.window_has_space() {
                break;
            }
            c.refill_pending();
            c.dispatch_bubble(0);
        }
        assert!(!c.window_has_space());
    }
}
