//! A traced copy of `crow_sim::System`'s event-driven run loop.
//!
//! `System` keeps its components private, so the per-layer profile is
//! taken by rebuilding the same system from the layers' public
//! constructors and re-driving the loop here, timing every call into a
//! layer. The loop mirrors `System::step`, `idle_skip`, `apply_skip`,
//! `run_serial`, `sampling::drive` and `report` call for call, so a
//! [`Traced`] run must produce a report identical to `System::run`'s;
//! the benchmark checks that on every traced run (see
//! [`crate::digest`]). Configurations whose code paths are not mirrored
//! (other engines, fault plans, attack scenarios, VRT injection, the
//! sharded engine, the oracle and the validator) are refused.

use std::time::Instant;

use crow_core::{CrowConfig, CrowStats, CrowSubstrate};
use crow_cpu::{CpuCluster, CpuMemReq, MemPort};
use crow_dram::{AddrMapper, ChannelStats, DramConfig};
use crow_energy::EnergyCounter;
use crow_mem::{Completion, McStats, MemController, MemRequest, ReqKind, SchedStats};
use crow_sim::{
    Engine, FaultStats, HammerStats, Mechanism, MetricStats, SamplePlan, SampleStats, SimReport,
    SystemConfig,
};
use crow_workloads::AppProfile;

/// Host time and work counts of one traced run, split by layer.
///
/// Times are nanoseconds. The `*_ns` fields named *exclusive* below do
/// not overlap, so `run_ns` minus their sum is the loop's own time
/// ([`Profile::engine_self_ns`]). `drain_ns` and `detail_ns` are phase
/// spans of a sampled run and contain layer calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Profile {
    /// CPU cycles simulated one at a time.
    pub stepped_cycles: u64,
    /// CPU cycles fast-forwarded by the event engine's skips.
    pub skipped_cycles: u64,
    /// `CpuCluster::cycle` calls.
    pub cpu_cycle_calls: u64,
    /// Exclusive: `CpuCluster::cycle`, less the enqueues it makes.
    pub cpu_cycle_ns: u64,
    /// Exclusive: `CpuCluster::on_completion`.
    pub cpu_completion_ns: u64,
    /// Exclusive: `CpuCluster::inert_cycles` + `advance_inert`.
    pub cpu_skip_ns: u64,
    /// Requests the cluster offered to the controllers.
    pub send_attempts: u64,
    /// Offered requests a controller queue accepted.
    pub send_accepts: u64,
    /// `MemController::tick` calls.
    pub mem_tick_calls: u64,
    /// Exclusive: `MemController::tick`.
    pub mem_tick_ns: u64,
    /// Exclusive: `MemController::skip_idle`.
    pub mem_skip_idle_ns: u64,
    /// Exclusive: `MemController::min_wakeup`.
    pub mem_wakeup_ns: u64,
    /// Exclusive: `MemController::try_enqueue`.
    pub mem_enqueue_ns: u64,
    /// Measured windows of a sampled run.
    pub windows: u64,
    /// Phase span: drains before each fast-forward.
    pub drain_ns: u64,
    /// Exclusive: `CpuCluster::warm_with`, less its `warm_touch` calls.
    pub ff_ns: u64,
    /// `MemController::warm_touch` calls.
    pub warm_touch_calls: u64,
    /// Exclusive: `MemController::warm_touch`.
    pub warm_touch_ns: u64,
    /// Phase span: detailed warmups and measured windows.
    pub detail_ns: u64,
    /// Building the system.
    pub build_ns: u64,
    /// Functional warmup before the run.
    pub warm_ns: u64,
    /// Wall time of `run`.
    pub run_ns: u64,
}

impl Profile {
    /// Adds another profile's counts and times.
    pub fn merge(&mut self, o: &Profile) {
        self.stepped_cycles += o.stepped_cycles;
        self.skipped_cycles += o.skipped_cycles;
        self.cpu_cycle_calls += o.cpu_cycle_calls;
        self.cpu_cycle_ns += o.cpu_cycle_ns;
        self.cpu_completion_ns += o.cpu_completion_ns;
        self.cpu_skip_ns += o.cpu_skip_ns;
        self.send_attempts += o.send_attempts;
        self.send_accepts += o.send_accepts;
        self.mem_tick_calls += o.mem_tick_calls;
        self.mem_tick_ns += o.mem_tick_ns;
        self.mem_skip_idle_ns += o.mem_skip_idle_ns;
        self.mem_wakeup_ns += o.mem_wakeup_ns;
        self.mem_enqueue_ns += o.mem_enqueue_ns;
        self.windows += o.windows;
        self.drain_ns += o.drain_ns;
        self.ff_ns += o.ff_ns;
        self.warm_touch_calls += o.warm_touch_calls;
        self.warm_touch_ns += o.warm_touch_ns;
        self.detail_ns += o.detail_ns;
        self.build_ns += o.build_ns;
        self.warm_ns += o.warm_ns;
        self.run_ns += o.run_ns;
    }

    /// Sum of the exclusive layer times inside `run`.
    pub fn layer_ns(&self) -> u64 {
        self.cpu_cycle_ns
            + self.cpu_completion_ns
            + self.cpu_skip_ns
            + self.mem_tick_ns
            + self.mem_skip_idle_ns
            + self.mem_wakeup_ns
            + self.mem_enqueue_ns
            + self.ff_ns
            + self.warm_touch_ns
    }

    /// The loop's own time: `run` wall time outside every layer call.
    pub fn engine_self_ns(&self) -> u64 {
        self.run_ns.saturating_sub(self.layer_ns())
    }

    /// Scales the time fields by `factor` (ticks to nanoseconds).
    fn scale_times(&mut self, factor: f64) {
        for t in [
            &mut self.cpu_cycle_ns,
            &mut self.cpu_completion_ns,
            &mut self.cpu_skip_ns,
            &mut self.mem_tick_ns,
            &mut self.mem_skip_idle_ns,
            &mut self.mem_wakeup_ns,
            &mut self.mem_enqueue_ns,
            &mut self.drain_ns,
            &mut self.ff_ns,
            &mut self.warm_touch_ns,
            &mut self.detail_ns,
        ] {
            *t = (*t as f64 * factor) as u64;
        }
    }
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A span timestamp in ticks. On x86_64 this is the time-stamp counter,
/// which costs about a quarter of an `Instant::now` pair on the host this
/// was measured on (2-vCPU KVM guest, TSC clocksource); [`Traced::run`]
/// converts ticks to nanoseconds against the run's wall time.
#[cfg(target_arch = "x86_64")]
fn stamp() -> u64 {
    // SAFETY: RDTSC has no preconditions and exists on every x86_64 CPU.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn stamp() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ns_since(*EPOCH.get_or_init(Instant::now))
}

/// Routes cluster requests to the controllers, as `System`'s router
/// does, timing each enqueue.
struct Router<'a> {
    mcs: &'a mut [MemController],
    mapper: &'a AddrMapper,
    next_event: &'a mut [u64],
    spans: &'a mut Profile,
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
        self.spans.send_attempts += 1;
        let t = stamp();
        let ok = self.mcs[ch].try_enqueue(r).is_ok();
        self.spans.mem_enqueue_ns += stamp().wrapping_sub(t);
        if ok {
            self.next_event[ch] = 0;
            self.spans.send_accepts += 1;
        }
        ok
    }
}

/// The traced system: the same components `System` assembles.
pub struct Traced {
    cfg: SystemConfig,
    cluster: CpuCluster,
    mcs: Vec<MemController>,
    mapper: AddrMapper,
    cpu_cycle: u64,
    mem_cycle: u64,
    clock_accum: u64,
    completions: Vec<Completion>,
    next_event: Vec<u64>,
    /// The current run's counts, with times still in [`stamp`] ticks.
    spans: Profile,
    /// What this system's calls into each layer cost so far.
    pub prof: Profile,
}

impl Traced {
    /// Builds the system `System::try_new(cfg, apps)` would build.
    ///
    /// # Errors
    ///
    /// Returns a message when `cfg` uses a code path the mirror does
    /// not reproduce, or when a layer rejects the configuration.
    pub fn try_new(cfg: SystemConfig, apps: &[&AppProfile]) -> Result<Self, String> {
        let started = Instant::now();
        check_mirrored(&cfg)?;
        if apps.is_empty() {
            return Err("at least one application required".into());
        }
        let traces = apps
            .iter()
            .enumerate()
            .map(|(i, a)| a.trace(cfg.seed.wrapping_add(i as u64 * 0x5bd1e995)))
            .collect();
        let dram = cfg.effective_dram();
        dram.validate().map_err(|e| format!("DramConfig: {e}"))?;
        cfg.cpu.validate().map_err(|e| format!("CpuConfig: {e}"))?;
        let mapper = AddrMapper::new(cfg.scheme, cfg.channels, &dram);
        let mcs = (0..cfg.channels)
            .map(|ch| {
                let crow = build_crow(cfg.mechanism, &dram);
                let mut mc = MemController::try_new(cfg.mc, dram.clone(), crow)
                    .map_err(|e| e.to_string())?;
                mc.set_mitigation_seed(cfg.seed ^ 0x5041_5241 ^ (u64::from(ch) << 32));
                Ok(mc)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let cluster = CpuCluster::new(cfg.cpu, traces, mapper.capacity_bytes(), cfg.seed);
        let next_event = vec![0; mcs.len()];
        let prof = Profile {
            build_ns: ns_since(started),
            ..Profile::default()
        };
        Ok(Self {
            cfg,
            cluster,
            mcs,
            mapper,
            cpu_cycle: 0,
            mem_cycle: 0,
            clock_accum: 0,
            completions: Vec::with_capacity(64),
            next_event,
            spans: Profile::default(),
            prof,
        })
    }

    /// Functional warmup, as `System::warm`.
    pub fn warm(&mut self, instructions: u64) {
        let t = Instant::now();
        self.cluster.warm(instructions);
        self.prof.warm_ns += ns_since(t);
    }

    /// Runs like `System::run` and returns the same report.
    pub fn run(&mut self, max_cpu_cycles: u64) -> SimReport {
        let started = Instant::now();
        let start_stamp = stamp();
        let start_cycle = self.cpu_cycle;
        let sampled = self.cfg.sample.map(|plan| self.drive(plan, max_cpu_cycles));
        if sampled.is_none() {
            self.run_serial(max_cpu_cycles);
        }
        let mut r = self.report();
        if let Some(out) = sampled {
            r.ipc = out.ipc;
            r.mpki = out.mpki;
            r.finished = out.complete;
            r.samples = Some(out.stats);
        }
        r.wall_seconds = started.elapsed().as_secs_f64();
        if r.wall_seconds > 0.0 {
            r.sim_cycles_per_sec = (self.cpu_cycle - start_cycle) as f64 / r.wall_seconds;
        }
        let run_ns = ns_since(started);
        let ticks = stamp().wrapping_sub(start_stamp).max(1);
        let mut spans = std::mem::take(&mut self.spans);
        spans.scale_times(run_ns as f64 / ticks as f64);
        spans.run_ns = run_ns;
        self.prof.merge(&spans);
        r
    }

    /// One CPU cycle under the event engine (`System::step(true)`).
    fn step(&mut self) {
        self.spans.stepped_cycles += 1;
        let (num, den) = SystemConfig::CLOCK_RATIO;
        self.clock_accum += den;
        if self.clock_accum >= num {
            self.clock_accum -= num;
            // One stamp per boundary: each channel's span starts where
            // the previous one ended.
            let mut t = stamp();
            for (i, mc) in self.mcs.iter_mut().enumerate() {
                if self.mem_cycle < self.next_event[i] {
                    mc.skip_idle(1);
                    let t1 = stamp();
                    self.spans.mem_skip_idle_ns += t1.wrapping_sub(t);
                    t = t1;
                } else {
                    mc.tick(self.mem_cycle, &mut self.completions);
                    let t1 = stamp();
                    self.next_event[i] = mc.min_wakeup(self.mem_cycle);
                    let t2 = stamp();
                    self.spans.mem_tick_calls += 1;
                    self.spans.mem_tick_ns += t1.wrapping_sub(t);
                    self.spans.mem_wakeup_ns += t2.wrapping_sub(t1);
                    t = t2;
                }
            }
            self.mem_cycle += 1;
            if !self.completions.is_empty() {
                for c in self.completions.drain(..) {
                    self.cluster.on_completion(c.id, self.cpu_cycle);
                }
                self.spans.cpu_completion_ns += stamp().wrapping_sub(t);
            }
        }
        let enqueue_before = self.spans.mem_enqueue_ns;
        let t = stamp();
        let mut router = Router {
            mcs: &mut self.mcs,
            mapper: &self.mapper,
            next_event: &mut self.next_event,
            spans: &mut self.spans,
        };
        self.cluster.cycle(self.cpu_cycle, &mut router);
        let inside = stamp().wrapping_sub(t);
        let enqueued = self.spans.mem_enqueue_ns - enqueue_before;
        self.spans.cpu_cycle_calls += 1;
        self.spans.cpu_cycle_ns += inside.saturating_sub(enqueued);
        self.cpu_cycle += 1;
    }

    /// `System::idle_skip` without the fault, VRT and attack bounds,
    /// which [`check_mirrored`] rules out.
    fn idle_skip(&mut self, max_cpu_cycles: u64) -> u64 {
        let t = stamp();
        let inert = self.cluster.inert_cycles(self.cpu_cycle);
        self.spans.cpu_skip_ns += stamp().wrapping_sub(t);
        if inert == 0 {
            return 0;
        }
        let k = inert.min(max_cpu_cycles.saturating_sub(self.cpu_cycle));
        let (num, den) = SystemConfig::CLOCK_RATIO;
        let mem_next = self.next_event.iter().copied().min().unwrap_or(u64::MAX);
        let r = mem_next.saturating_sub(self.mem_cycle);
        let budget = num
            .saturating_mul(r.saturating_add(1))
            .saturating_sub(1 + self.clock_accum);
        k.min(budget / den)
    }

    /// `System::apply_skip`.
    fn apply_skip(&mut self, skip: u64) {
        self.spans.skipped_cycles += skip;
        let t = stamp();
        self.cluster.advance_inert(self.cpu_cycle, skip);
        self.spans.cpu_skip_ns += stamp().wrapping_sub(t);
        let (num, den) = SystemConfig::CLOCK_RATIO;
        let total = self.clock_accum + den * skip;
        let mem_ticks = total / num;
        self.clock_accum = total % num;
        if mem_ticks > 0 {
            let t = stamp();
            for mc in &mut self.mcs {
                mc.skip_idle(mem_ticks);
            }
            self.spans.mem_skip_idle_ns += stamp().wrapping_sub(t);
            self.mem_cycle += mem_ticks;
        }
        self.cpu_cycle += skip;
    }

    /// `System::run_serial` under the event engine.
    fn run_serial(&mut self, max_cpu_cycles: u64) {
        while !self.cluster.done() && self.cpu_cycle < max_cpu_cycles {
            let skip = self.idle_skip(max_cpu_cycles);
            if skip > 0 {
                self.apply_skip(skip);
            } else {
                self.step();
            }
        }
    }

    /// DRAM-side counters a window measures as deltas (`sampling::snapshot`).
    fn snapshot(&self) -> (f64, u64, u64) {
        let mut energy = 0.0;
        let mut hits = 0u64;
        let mut opens = 0u64;
        for mc in &self.mcs {
            energy += mc.energy().total_nj();
            let s = mc.stats();
            hits += s.row_hits;
            opens += s.row_hits + s.row_misses + s.row_conflicts;
        }
        (energy, hits, opens)
    }

    /// `crow_sim::sampling::drive`, with its phases timed.
    fn drive(&mut self, plan: SamplePlan, max_cpu_cycles: u64) -> SampleOutcome {
        let cores = self.cluster.num_cores() as u64;
        let windows = plan.windows_for(self.cfg.cpu.target_insts);
        let mut ipc_samples = Vec::with_capacity(windows as usize);
        let mut energy_samples = Vec::with_capacity(windows as usize);
        let mut rhr_samples = Vec::with_capacity(windows as usize);
        let mut core_ipc: Vec<Vec<f64>> = vec![Vec::new(); cores as usize];
        let mut core_mpki: Vec<Vec<f64>> = vec![Vec::new(); cores as usize];
        let mut drain_cycles = 0u64;
        let mut warmed = 0u64;
        let mut skipped = 0u64;
        let mut done_windows = 0u64;

        for w in 0..windows {
            if self.cpu_cycle >= max_cpu_cycles {
                break;
            }
            if w > 0 {
                let t = stamp();
                let drain_start = self.cpu_cycle;
                self.cluster.set_fetch_frozen(true);
                while !self.cluster.quiescent() && self.cpu_cycle < max_cpu_cycles {
                    self.step();
                }
                self.cluster.set_fetch_frozen(false);
                drain_cycles += self.cpu_cycle - drain_start;
                self.spans.drain_ns += stamp().wrapping_sub(t);
                if !self.cluster.quiescent() {
                    break;
                }
                let mem_now = self.mem_cycle;
                for mc in &mut self.mcs {
                    mc.quiesce_open_rows(mem_now);
                }
                let Self {
                    cluster,
                    mcs,
                    mapper,
                    spans,
                    ..
                } = self;
                let (mut touch_calls, mut touch_ticks) = (0u64, 0u64);
                let t = stamp();
                cluster.warm_with(plan.ff_insts, &mut |pa| {
                    let a = mapper.decode(pa);
                    let t = stamp();
                    mcs[a.channel as usize].warm_touch(a.rank, a.bank, a.row);
                    touch_ticks += stamp().wrapping_sub(t);
                    touch_calls += 1;
                });
                spans.ff_ns += stamp().wrapping_sub(t).saturating_sub(touch_ticks);
                spans.warm_touch_calls += touch_calls;
                spans.warm_touch_ns += touch_ticks;
                skipped += plan.ff_insts * cores;
            }
            let t = stamp();
            if plan.warmup_insts > 0 {
                self.cluster.begin_phase(plan.warmup_insts);
                self.run_serial(max_cpu_cycles);
                if !self.cluster.done() {
                    self.spans.detail_ns += stamp().wrapping_sub(t);
                    break;
                }
                warmed += plan.warmup_insts * cores;
            }
            let start = self.cpu_cycle;
            let (e0, hits0, opens0) = self.snapshot();
            self.cluster.begin_phase(plan.window_insts);
            self.run_serial(max_cpu_cycles);
            let finished = self.cluster.done();
            let (e1, hits1, opens1) = self.snapshot();
            self.spans.detail_ns += stamp().wrapping_sub(t);
            let mut ipc_sum = 0.0;
            for i in 0..cores as usize {
                let ipc = match self.cluster.finish_cycle(i) {
                    Some(fc) => plan.window_insts as f64 / fc.saturating_sub(start).max(1) as f64,
                    None => 0.0,
                };
                core_ipc[i].push(ipc);
                core_mpki[i].push(self.cluster.mpki(i));
                ipc_sum += ipc;
            }
            ipc_samples.push(ipc_sum);
            energy_samples.push(e1 - e0);
            rhr_samples.push(
                hits1.saturating_sub(hits0) as f64 / opens1.saturating_sub(opens0).max(1) as f64,
            );
            done_windows += 1;
            self.spans.windows += 1;
            if !finished {
                break;
            }
        }

        let mean = |s: &[f64]| {
            if s.is_empty() {
                0.0
            } else {
                s.iter().sum::<f64>() / s.len() as f64
            }
        };
        let complete = done_windows == windows && self.cluster.done();
        SampleOutcome {
            stats: SampleStats {
                plan,
                windows: done_windows,
                measured_insts: done_windows * plan.window_insts * cores,
                warmed_insts: warmed,
                skipped_insts: skipped,
                drain_cycles,
                ipc: MetricStats::from_samples(&ipc_samples),
                energy_nj: MetricStats::from_samples(&energy_samples),
                row_hit_rate: MetricStats::from_samples(&rhr_samples),
            },
            ipc: core_ipc.iter().map(|s| mean(s)).collect(),
            mpki: core_mpki.iter().map(|s| mean(s)).collect(),
            complete,
        }
    }

    /// `System::report` for the mirrored configurations.
    fn report(&self) -> SimReport {
        let n = self.cluster.num_cores();
        let mut mc = McStats::new();
        let mut commands = ChannelStats::new();
        let mut crow = CrowStats::new();
        let mut energy = EnergyCounter::new();
        let mut sched = SchedStats::new();
        let mut hammer = HammerStats::default();
        for c in &self.mcs {
            mc.merge(c.stats());
            commands.merge(c.channel().stats());
            energy.merge(&c.energy());
            sched.merge(c.sched_stats());
            if let Some(s) = c.crow() {
                crow.merge(s.stats());
                hammer.detections += s.hammer_detections();
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
            violations: 0,
            trace_faults: self.cluster.trace_faults().len() as u64,
            faults: FaultStats::default(),
            sched,
            hammer,
            samples: None,
            wall_seconds: 0.0,
            sim_cycles_per_sec: 0.0,
        }
    }
}

/// What `drive` hands back to `run` (`sampling::SampleOutcome`).
struct SampleOutcome {
    stats: SampleStats,
    ipc: Vec<f64>,
    mpki: Vec<f64>,
    complete: bool,
}

/// Refuses configurations whose code paths the mirror leaves out.
fn check_mirrored(cfg: &SystemConfig) -> Result<(), String> {
    let unsupported = if cfg.engine != Engine::EventDriven {
        Some("engines other than the event engine")
    } else if !matches!(
        cfg.mechanism,
        Mechanism::Baseline | Mechanism::CrowCache { .. } | Mechanism::IdealCache
    ) {
        Some("mechanisms other than Baseline, CROW-cache and Ideal CROW-cache")
    } else if cfg.threads > 1 && cfg.channels > 1 && cfg.sample.is_none() {
        Some("the sharded parallel engine")
    } else if cfg.oracle || cfg.validate_protocol {
        Some("the data-integrity oracle and the protocol validator")
    } else if cfg.vrt_interval_cycles.is_some() || cfg.fault_plan.is_some() || cfg.hammer.is_some()
    {
        Some("VRT injection, fault plans and attack scenarios")
    } else {
        None
    };
    match unsupported {
        Some(what) => Err(format!("the traced loop does not mirror {what}")),
        None => Ok(()),
    }
}

/// `System::build_crow` for the mirrored mechanisms.
fn build_crow(mechanism: Mechanism, dram: &DramConfig) -> Option<CrowSubstrate> {
    let mut c = CrowConfig {
        banks: dram.banks * dram.ranks,
        subarrays_per_bank: dram.subarrays_per_bank(),
        rows_per_subarray: dram.rows_per_subarray,
        copy_rows: dram.copy_rows_per_subarray,
        share_factor: 1,
        cache: true,
        hammer: None,
        ideal: false,
    };
    match mechanism {
        Mechanism::CrowCache { share_factor, .. } => c.share_factor = share_factor,
        Mechanism::IdealCache => c.ideal = true,
        _ => return None,
    }
    Some(CrowSubstrate::new(c))
}
