//! Memory-controller configuration.

/// Request scheduling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// First-come first-served (no row-hit prioritization).
    Fcfs,
    /// First-ready FCFS: row hits first, then oldest.
    FrFcfs,
    /// FR-FCFS with a cap on column commands served per activation
    /// (paper footnote 6; improves fairness and average performance).
    FrFcfsCap {
        /// Maximum column commands serviced per row activation before
        /// hits lose their priority.
        cap: u32,
    },
}

/// Candidate-selection implementation. Both produce bit-identical
/// command streams (the indexed path reproduces the linear scan's
/// (priority, arrival, queue-position) order exactly); they differ only
/// in work per tick and in how far the event-driven engine can skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedImpl {
    /// Per-(rank,bank) request buckets with row-hits-first key lists
    /// and a memoized per-bank readiness cache: O(banks) selection plus wake
    /// hints that let the engine skip dead cycles under load.
    Indexed,
    /// The reference O(queue) scan over the whole queue every tick.
    Linear,
}

/// In-controller RowHammer mitigation baselines (evaluated against the
/// CROW §4.3 remapping mechanism by the `hammer` figure family).
///
/// Both baselines issue *neighbor refreshes*: fully-restoring activations
/// of the rows physically adjacent to a suspected aggressor, scheduled as
/// maintenance work between demand requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mitigation {
    /// No in-controller mitigation.
    None,
    /// PARA (Kim et al., ISCA 2014): on every demand activation, with
    /// probability `1/hazard`, refresh one of the two adjacent rows
    /// (chosen uniformly). Stateless; protection is probabilistic.
    Para {
        /// Inverse per-activation refresh probability (e.g. 500 ⇒ p=0.002).
        hazard: u32,
    },
    /// A TRR-like sampler: a small per-bank counter table tracks the most
    /// frequently activated rows (evict-min when full, mirroring
    /// `crow_core::RowHammerGuard`); at each refresh command, rows whose
    /// count reached `threshold` get both neighbors refreshed and the
    /// bank's table is cleared.
    Trr {
        /// Counter-table entries per bank.
        entries: u32,
        /// Activation count at which a tracked row is treated as an
        /// aggressor on the next refresh.
        threshold: u32,
    },
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowPolicy {
    /// Close an open row after it has been idle for `cycles` with no
    /// queued requests to it (paper footnote 7: 75 ns).
    Timeout {
        /// Idle threshold in memory-clock cycles.
        cycles: u64,
    },
    /// Keep rows open until a conflict forces a precharge.
    OpenPage,
    /// Precharge as soon as no queued request targets the open row.
    ClosedPage,
}

/// Memory-controller configuration (paper Table 2 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McConfig {
    /// Read queue capacity.
    pub read_q: usize,
    /// Write queue capacity.
    pub write_q: usize,
    /// Scheduling discipline.
    pub sched: SchedKind,
    /// Candidate-selection implementation (identical command streams;
    /// see [`SchedImpl`]).
    pub sched_impl: SchedImpl,
    /// Row-buffer policy.
    pub policy: RowPolicy,
    /// Write-drain high watermark: entering drain mode.
    pub wr_high: usize,
    /// Write-drain low watermark: leaving drain mode.
    pub wr_low: usize,
    /// Issue refresh commands (disabled for the "no refresh" ideal of
    /// paper Fig. 14).
    pub refresh: bool,
    /// Use LPDDR4 per-bank refresh (`REFpb`) instead of all-bank `REF`:
    /// one bank refreshes every `tREFI/banks` while the others keep
    /// serving requests.
    pub per_bank_refresh: bool,
    /// JEDEC refresh flexibility: defer up to this many due refreshes
    /// while demand requests are queued, catching up when the queues
    /// drain (0 = refresh strictly on schedule). The standards allow up
    /// to 8.
    pub max_postponed_refreshes: u32,
    /// In-controller RowHammer mitigation baseline (PARA / TRR-like).
    pub mitigation: Mitigation,
}

impl McConfig {
    /// Paper Table 2: 64-entry queues, FR-FCFS-Cap, 75 ns timeout policy.
    pub fn paper_default() -> Self {
        Self {
            read_q: 64,
            write_q: 64,
            sched: SchedKind::FrFcfsCap { cap: 4 },
            sched_impl: SchedImpl::Indexed,
            // 75 ns at 0.625 ns/cycle = 120 cycles.
            policy: RowPolicy::Timeout { cycles: 120 },
            wr_high: 48,
            wr_low: 16,
            refresh: true,
            per_bank_refresh: false,
            max_postponed_refreshes: 0,
            mitigation: Mitigation::None,
        }
    }

    /// Returns a copy with a RowHammer mitigation baseline enabled.
    pub fn with_mitigation(mut self, mitigation: Mitigation) -> Self {
        self.mitigation = mitigation;
        self
    }

    /// Returns a copy using the open-page policy (SALP-`N`-O in §8.1.4).
    pub fn with_open_page(mut self) -> Self {
        self.policy = RowPolicy::OpenPage;
        self
    }

    /// Returns a copy with a different scheduler.
    pub fn with_sched(mut self, sched: SchedKind) -> Self {
        self.sched = sched;
        self
    }

    /// Returns a copy with a different candidate-selection
    /// implementation (equivalence testing / benchmarking).
    pub fn with_sched_impl(mut self, sched_impl: SchedImpl) -> Self {
        self.sched_impl = sched_impl;
        self
    }

    /// Validates watermark and capacity relations.
    ///
    /// # Errors
    ///
    /// Describes the violated relation.
    pub fn validate(&self) -> Result<(), String> {
        if self.read_q == 0 || self.write_q == 0 {
            return Err("queues must be nonempty".into());
        }
        if self.wr_low >= self.wr_high {
            return Err("wr_low must be below wr_high".into());
        }
        if self.wr_high > self.write_q {
            return Err("wr_high exceeds write queue capacity".into());
        }
        if let SchedKind::FrFcfsCap { cap } = self.sched {
            if cap == 0 {
                return Err("FR-FCFS cap must be nonzero".into());
            }
        }
        if self.max_postponed_refreshes > 8 {
            return Err("JEDEC allows postponing at most 8 refreshes".into());
        }
        match self.mitigation {
            Mitigation::None => {}
            Mitigation::Para { hazard } => {
                if hazard == 0 {
                    return Err("PARA hazard (inverse probability) must be nonzero".into());
                }
            }
            Mitigation::Trr { entries, threshold } => {
                if entries == 0 || threshold == 0 {
                    return Err("TRR entries and threshold must be nonzero".into());
                }
            }
        }
        Ok(())
    }
}

impl Default for McConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let c = McConfig::paper_default();
        c.validate().unwrap();
        assert_eq!(c.sched, SchedKind::FrFcfsCap { cap: 4 });
        assert_eq!(c.policy, RowPolicy::Timeout { cycles: 120 });
    }

    #[test]
    fn invalid_watermarks_rejected() {
        let mut c = McConfig::paper_default();
        c.wr_low = c.wr_high;
        assert!(c.validate().is_err());
        let mut c = McConfig::paper_default();
        c.wr_high = c.write_q + 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn mitigation_parameters_validated() {
        let c = McConfig::paper_default().with_mitigation(Mitigation::Para { hazard: 0 });
        assert!(c.validate().is_err());
        let c = McConfig::paper_default().with_mitigation(Mitigation::Trr {
            entries: 0,
            threshold: 4,
        });
        assert!(c.validate().is_err());
        let c = McConfig::paper_default().with_mitigation(Mitigation::Para { hazard: 500 });
        c.validate().unwrap();
    }

    #[test]
    fn builders_apply() {
        let c = McConfig::paper_default()
            .with_open_page()
            .with_sched(SchedKind::Fcfs);
        assert_eq!(c.policy, RowPolicy::OpenPage);
        assert_eq!(c.sched, SchedKind::Fcfs);
    }
}
