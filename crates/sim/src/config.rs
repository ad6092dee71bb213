//! System configuration and mechanism presets.

use crow_core::retention::RetentionProfile;
use crow_core::HammerConfig;
use crow_cpu::CpuConfig;
use crow_dram::{DramConfig, MapScheme, MraTimings};
use crow_mem::McConfig;

use crate::fault::FaultPlan;

/// Which memory-system mechanism the run evaluates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mechanism {
    /// Commodity LPDDR4 (paper baseline).
    Baseline,
    /// CROW-cache with `copy_rows` per subarray and a CROW-table entry
    /// sharing factor (§6.1; 1 = dedicated entries).
    CrowCache {
        /// Copy rows per subarray (CROW-1 / CROW-8 / CROW-255).
        copy_rows: u8,
        /// Entry sharing factor.
        share_factor: u32,
    },
    /// CROW-ref weak-row remapping (doubles the refresh interval).
    CrowRef {
        /// How weak rows are injected.
        profile: RetentionProfile,
    },
    /// CROW-cache + CROW-ref sharing the same copy rows (§8.3).
    CrowCombined {
        /// Copy rows per subarray.
        copy_rows: u8,
        /// Weak-row injection.
        profile: RetentionProfile,
    },
    /// Hypothetical 100%-hit-rate CROW-cache (paper's *Ideal
    /// CROW-cache*).
    IdealCache,
    /// Ideal CROW-cache plus no refresh at all (the Fig. 14 ideal).
    IdealCacheNoRefresh,
    /// Refresh disabled only (ablation).
    NoRefresh,
    /// TL-DRAM \[58\] with a near segment of `near_rows` per subarray.
    TlDram {
        /// Near-segment rows.
        near_rows: u8,
    },
    /// SALP-MASA \[53\] with `subarrays` subarrays per bank.
    Salp {
        /// Subarrays per bank (baseline organization has 128).
        subarrays: u32,
        /// Use the open-page policy (`SALP-N-O` in §8.1.4).
        open_page: bool,
    },
    /// CROW-based RowHammer mitigation (§4.3) on top of CROW-cache.
    RowHammer {
        /// Copy rows per subarray.
        copy_rows: u8,
        /// Detector configuration.
        hammer: HammerConfig,
    },
    /// PARA \[51\]: every demand activation refreshes one random
    /// neighbour with probability `1/hazard` (commodity-DRAM RowHammer
    /// baseline, no copy rows).
    Para {
        /// Inverse sampling probability.
        hazard: u32,
    },
    /// TRR-like sampler: bounded per-bank counter tables, flushed at
    /// every refresh, that queue neighbor refreshes for rows activated
    /// at least `threshold` times since the last flush.
    Trr {
        /// Counter-table entries per bank.
        entries: u32,
        /// Activations per refresh interval that trigger the
        /// neighbor refresh (the tables clear every tREFI, so useful
        /// values are tens, not thousands).
        threshold: u32,
    },
}

impl Mechanism {
    /// CROW-cache with dedicated table entries.
    pub fn crow_cache(copy_rows: u8) -> Self {
        Mechanism::CrowCache {
            copy_rows,
            share_factor: 1,
        }
    }

    /// CROW-ref with the paper's pessimistic three-weak-rows profile.
    pub fn crow_ref() -> Self {
        Mechanism::CrowRef {
            profile: RetentionProfile::paper_conservative(),
        }
    }

    /// The combined mechanism with the paper's defaults (CROW-8).
    pub fn crow_combined() -> Self {
        Mechanism::CrowCombined {
            copy_rows: 8,
            profile: RetentionProfile::paper_conservative(),
        }
    }

    /// The paper's §4.3 CROW-based RowHammer mitigation with a detector
    /// threshold well under the flip regime.
    pub fn crow_hammer() -> Self {
        Mechanism::RowHammer {
            copy_rows: 8,
            hammer: HammerConfig::paper_default(),
        }
    }

    /// PARA at the literature's conventional operating point
    /// (p ≈ 0.002).
    pub fn para() -> Self {
        Mechanism::Para { hazard: 512 }
    }

    /// A TRR-like sampler with a 16-entry table per bank and a
    /// 32-activations-per-tREFI trigger.
    pub fn trr() -> Self {
        Mechanism::Trr {
            entries: 16,
            threshold: 32,
        }
    }

    /// Parses the mechanism spellings the CLI and the batch server
    /// accept: `baseline`, `crow-N`, `crow-ref`, `crow-combined`,
    /// `crow-hammer`, `ideal`, `ideal-no-refresh`, `no-refresh`,
    /// `tldram-N`, `salp-N`, `salp-N-o`, `para`, `para-N` (hazard),
    /// `trr`, and `trr-N` (threshold), all case-insensitive. `None` for
    /// anything else — callers turn that into a structured error, never
    /// a default.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.to_ascii_lowercase();
        match s.as_str() {
            "baseline" => return Some(Mechanism::Baseline),
            "crow-ref" | "ref" => return Some(Mechanism::crow_ref()),
            "crow-combined" | "combined" => return Some(Mechanism::crow_combined()),
            "crow-hammer" => return Some(Mechanism::crow_hammer()),
            "ideal" => return Some(Mechanism::IdealCache),
            "ideal-no-refresh" => return Some(Mechanism::IdealCacheNoRefresh),
            "no-refresh" => return Some(Mechanism::NoRefresh),
            "para" => return Some(Mechanism::para()),
            "trr" => return Some(Mechanism::trr()),
            _ => {}
        }
        if let Some(n) = s.strip_prefix("para-") {
            if let Ok(hazard) = n.parse::<u32>() {
                if hazard > 0 {
                    return Some(Mechanism::Para { hazard });
                }
            }
        }
        if let Some(n) = s.strip_prefix("trr-") {
            if let Ok(threshold) = n.parse::<u32>() {
                if threshold > 0 {
                    return Some(Mechanism::Trr {
                        entries: 16,
                        threshold,
                    });
                }
            }
        }
        if let Some(n) = s.strip_prefix("crow-") {
            if let Ok(n) = n.parse::<u8>() {
                return Some(Mechanism::crow_cache(n));
            }
        }
        if let Some(n) = s.strip_prefix("tldram-") {
            if let Ok(n) = n.parse::<u8>() {
                return Some(Mechanism::TlDram { near_rows: n });
            }
        }
        if let Some(rest) = s.strip_prefix("salp-") {
            let (n, open_page) = match rest.strip_suffix("-o") {
                Some(core) => (core, true),
                None => (rest, false),
            };
            if let Ok(subarrays) = n.parse::<u32>() {
                if subarrays > 0 {
                    return Some(Mechanism::Salp {
                        subarrays,
                        open_page,
                    });
                }
            }
        }
        None
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            Mechanism::Baseline => "baseline".into(),
            Mechanism::CrowCache {
                copy_rows,
                share_factor: 1,
            } => format!("CROW-{copy_rows}"),
            Mechanism::CrowCache {
                copy_rows,
                share_factor,
            } => format!("CROW-{copy_rows}/share{share_factor}"),
            Mechanism::CrowRef { .. } => "CROW-ref".into(),
            Mechanism::CrowCombined { copy_rows, .. } => {
                format!("CROW-{copy_rows}+ref")
            }
            Mechanism::IdealCache => "Ideal CROW-cache".into(),
            Mechanism::IdealCacheNoRefresh => "Ideal (no refresh)".into(),
            Mechanism::NoRefresh => "no-refresh".into(),
            Mechanism::TlDram { near_rows } => format!("TL-DRAM-{near_rows}"),
            Mechanism::Salp {
                subarrays,
                open_page,
            } => format!("SALP-{subarrays}{}", if *open_page { "-O" } else { "" }),
            Mechanism::RowHammer { copy_rows, .. } => format!("CROW-{copy_rows}+hammer"),
            Mechanism::Para { hazard } => format!("PARA-1/{hazard}"),
            Mechanism::Trr { threshold, .. } => format!("TRR-{threshold}"),
        }
    }
}

/// Which stepping engine [`crate::System::run`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Step every CPU cycle through the full model (reference engine).
    Naive,
    /// Fast-forward provably inert spans (stalled or purely mechanical
    /// cores, idle controllers) in closed form. Produces bit-identical
    /// reports to [`Engine::Naive`]; only wall-clock time differs.
    EventDriven,
}

/// Full-system configuration (paper Table 2 defaults).
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of memory channels.
    pub channels: u32,
    /// Per-channel DRAM geometry/timings.
    pub dram: DramConfig,
    /// Memory-controller configuration.
    pub mc: McConfig,
    /// CPU/cache configuration.
    pub cpu: CpuConfig,
    /// Address-interleaving scheme.
    pub scheme: MapScheme,
    /// Mechanism under evaluation.
    pub mechanism: Mechanism,
    /// Master seed (traces, page tables, retention profiles).
    pub seed: u64,
    /// Attach the data-integrity oracle (slower; for tests).
    pub oracle: bool,
    /// Inject one variable-retention-time (VRT) weak-row discovery every
    /// this many CPU cycles (paper §4.2.3: newly-identified weak rows are
    /// remapped at runtime with `ACT-c`). `None` disables VRT events.
    pub vrt_interval_cycles: Option<u64>,
    /// Overrides the multiple-row-activation timing set (ablations, e.g.
    /// [`MraTimings::no_partial_restore`]); `None` uses the paper
    /// operating point.
    pub mra_override: Option<MraTimings>,
    /// Stepping engine (results are identical either way).
    pub engine: Engine,
    /// Seeded fault-injection schedule (VRT failures, RowHammer bursts,
    /// command-bus drops); `None` injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// An active RowHammer attack scenario: a seeded aggressor generator
    /// injects attack reads through the real controller and a flip model
    /// judges the outcome ([`crate::hammer`]). `None` runs no attack.
    pub hammer: Option<crate::hammer::HammerScenario>,
    /// Attach the shadow protocol validator to every channel (observes
    /// each issued command against an independent JEDEC state machine;
    /// violations are reported, not asserted). Presets default this from
    /// the `CROW_VALIDATE` environment variable so an entire test run
    /// can be validated with `CROW_VALIDATE=1`.
    pub validate_protocol: bool,
    /// Ignored by the simulator. It stays only because the benchmark
    /// still uses it, and goes with the next change to the benchmark.
    pub threads: u32,
    /// Interval-sampling schedule ([`crate::sampling`]): measured
    /// windows separated by functional fast-forward, with per-window
    /// confidence intervals in the report. `None` simulates every cycle
    /// in detail.
    pub sample: Option<crate::sampling::SamplePlan>,
}

/// Preset default for [`SystemConfig::validate_protocol`]: true iff the
/// `CROW_VALIDATE` environment variable is set to anything but `0`.
fn validate_from_env() -> bool {
    std::env::var("CROW_VALIDATE")
        .map(|v| v != "0")
        .unwrap_or(false)
}

impl SystemConfig {
    /// The paper's Table 2 system with the given mechanism.
    pub fn paper_default(mechanism: Mechanism) -> Self {
        Self {
            channels: 4,
            dram: DramConfig::lpddr4_default(),
            mc: McConfig::paper_default(),
            cpu: CpuConfig::paper_default(),
            scheme: MapScheme::RoBaRaCoCh,
            mechanism,
            seed: 0xC0DE,
            oracle: false,
            vrt_interval_cycles: None,
            mra_override: None,
            engine: Engine::EventDriven,
            fault_plan: None,
            hammer: None,
            validate_protocol: validate_from_env(),
            threads: 1,
            sample: None,
        }
    }

    /// A DDR4-2400 platform (16 banks in 4 bank groups, 2 ranks, 64 ms
    /// refresh): CROW is not LPDDR4-specific (§7), and bank-group timing
    /// changes the scheduling landscape.
    pub fn ddr4(mechanism: Mechanism) -> Self {
        Self {
            channels: 4,
            dram: DramConfig::ddr4_default(),
            mc: McConfig::paper_default(),
            cpu: CpuConfig::paper_default(),
            scheme: MapScheme::RoBaRaCoCh,
            mechanism,
            seed: 0xC0DE,
            oracle: false,
            vrt_interval_cycles: None,
            mra_override: None,
            engine: Engine::EventDriven,
            fault_plan: None,
            hammer: None,
            validate_protocol: validate_from_env(),
            threads: 1,
            sample: None,
        }
    }

    /// A scaled-down system for fast tests: one channel, smaller DRAM
    /// and LLC, short instruction targets.
    pub fn quick_test(mechanism: Mechanism) -> Self {
        let mut dram = DramConfig::lpddr4_default();
        dram.rows_per_bank = 16_384; // 32 subarrays of 512 rows per bank
        dram.rows_per_subarray = 512;
        let mut cpu = CpuConfig::paper_default();
        cpu.llc_bytes = 1 << 20;
        cpu.target_insts = 30_000;
        Self {
            channels: 1,
            dram,
            mc: McConfig::paper_default(),
            cpu,
            scheme: MapScheme::RoBaRaCoCh,
            mechanism,
            seed: 0xC0DE,
            oracle: false,
            vrt_interval_cycles: None,
            mra_override: None,
            engine: Engine::EventDriven,
            fault_plan: None,
            hammer: None,
            validate_protocol: validate_from_env(),
            threads: 1,
            sample: None,
        }
    }

    /// Returns a copy at a different chip density (Fig. 13).
    pub fn with_density(mut self, gbit: u32) -> Self {
        self.dram = self.dram.with_density(gbit);
        self
    }

    /// Returns a copy with a different LLC capacity (Fig. 14).
    pub fn with_llc_bytes(mut self, bytes: u64) -> Self {
        self.cpu = self.cpu.with_llc_bytes(bytes);
        self
    }

    /// Returns a copy with the stride prefetcher enabled (Fig. 12).
    pub fn with_prefetcher(mut self) -> Self {
        self.cpu = self.cpu.with_prefetcher();
        self
    }

    /// Returns a copy running the given RowHammer attack scenario.
    pub fn with_hammer(mut self, sc: crate::hammer::HammerScenario) -> Self {
        self.hammer = Some(sc);
        self
    }

    /// CPU cycles per memory-bus cycle numerator/denominator
    /// (4 GHz / 1.6 GHz = 5:2).
    pub const CLOCK_RATIO: (u64, u64) = (5, 2);

    /// Resolves the effective DRAM configuration for the mechanism
    /// (copy rows, subarray parallelism, MRA timing set).
    pub fn effective_dram(&self) -> DramConfig {
        let mut d = self.dram.clone();
        match self.mechanism {
            Mechanism::Baseline
            | Mechanism::NoRefresh
            | Mechanism::Para { .. }
            | Mechanism::Trr { .. }
            | Mechanism::IdealCache
            | Mechanism::IdealCacheNoRefresh => {
                d.copy_rows_per_subarray = if matches!(
                    self.mechanism,
                    Mechanism::IdealCache | Mechanism::IdealCacheNoRefresh
                ) {
                    1
                } else {
                    0
                };
            }
            Mechanism::CrowCache { copy_rows, .. }
            | Mechanism::CrowCombined { copy_rows, .. }
            | Mechanism::RowHammer { copy_rows, .. } => {
                d.copy_rows_per_subarray = copy_rows;
            }
            Mechanism::CrowRef { .. } => {
                d.copy_rows_per_subarray = 8;
            }
            Mechanism::TlDram { near_rows } => {
                d.copy_rows_per_subarray = near_rows;
            }
            Mechanism::Salp { subarrays, .. } => {
                d.copy_rows_per_subarray = 0;
                d.subarray_parallelism = true;
                assert!(
                    d.rows_per_bank.is_multiple_of(subarrays),
                    "subarray count must divide rows per bank"
                );
                d.rows_per_subarray = d.rows_per_bank / subarrays;
            }
        }
        d.mra = self
            .mra_override
            .unwrap_or_else(MraTimings::paper_operating_point);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_cli_spellings_and_rejects_garbage() {
        assert_eq!(Mechanism::parse("baseline"), Some(Mechanism::Baseline));
        assert_eq!(Mechanism::parse("CROW-8"), Some(Mechanism::crow_cache(8)));
        assert_eq!(
            Mechanism::parse("crow-combined").map(|m| m.label()),
            Some("CROW-8+ref".into())
        );
        assert_eq!(
            Mechanism::parse("salp-64-o"),
            Some(Mechanism::Salp {
                subarrays: 64,
                open_page: true
            })
        );
        assert_eq!(
            Mechanism::parse("tldram-4"),
            Some(Mechanism::TlDram { near_rows: 4 })
        );
        for bad in [
            "",
            "crow",
            "crow-",
            "crow-999",
            "salp-0",
            "salp-x",
            "warp-drive",
        ] {
            assert!(Mechanism::parse(bad).is_none(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Mechanism::crow_cache(8).label(), "CROW-8");
        assert_eq!(
            Mechanism::Salp {
                subarrays: 128,
                open_page: true
            }
            .label(),
            "SALP-128-O"
        );
        assert_eq!(Mechanism::TlDram { near_rows: 8 }.label(), "TL-DRAM-8");
        assert_eq!(Mechanism::crow_combined().label(), "CROW-8+ref");
    }

    #[test]
    fn effective_dram_per_mechanism() {
        let base = SystemConfig::paper_default(Mechanism::Baseline).effective_dram();
        assert_eq!(base.copy_rows_per_subarray, 0);
        let crow = SystemConfig::paper_default(Mechanism::crow_cache(8)).effective_dram();
        assert_eq!(crow.copy_rows_per_subarray, 8);
        let salp = SystemConfig::paper_default(Mechanism::Salp {
            subarrays: 256,
            open_page: false,
        })
        .effective_dram();
        assert!(salp.subarray_parallelism);
        assert_eq!(salp.rows_per_subarray, 256);
        salp.validate().unwrap();
    }

    #[test]
    fn quick_test_config_is_valid() {
        let c = SystemConfig::quick_test(Mechanism::crow_cache(8));
        c.effective_dram().validate().unwrap();
        c.cpu.validate().unwrap();
        c.mc.validate().unwrap();
    }
}
