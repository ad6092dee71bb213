//! The benchmark's workloads and the code that runs them.

use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crow_sim::campaign::fnv1a64;
use crow_sim::{
    Campaign, CampaignPolicy, Mechanism, OutcomeKind, SamplePlan, Scale, SimReport, System,
    SystemConfig,
};
use crow_workloads::{mixes_for_group, AppProfile, MixGroup};

use crate::digest;
use crate::mirror::{Profile, Traced};

/// The seed whose simulated statistics `reference.json` stores.
pub const DEFAULT_SEED: u64 = 0;

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Four memory-intensive apps on CROW-8: controller, DRAM and
    /// CROW-table work dominate, and lbm's writes make write drains run.
    MixHigh,
    /// Four compute-bound apps on the baseline: the CPU cluster and the
    /// step/skip loop dominate, and no CROW table is attached.
    MixLow,
    /// The `MixHigh` system under interval sampling: functional
    /// fast-forward (`warm_with`/`warm_touch`) replaces most detail.
    MixHighSampled,
    /// The Fig. 8 + Fig. 9 job set through supervised campaigns: many
    /// short jobs, a journal fsync per job, a barrier per batch.
    PaperSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::MixHigh,
        Workload::MixLow,
        Workload::MixHighSampled,
        Workload::PaperSweep,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MixHigh => "mix-high",
            Workload::MixLow => "mix-low",
            Workload::MixHighSampled => "mix-high-sampled",
            Workload::PaperSweep => "paper-sweep",
        }
    }

    /// Parses [`Workload::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Run lengths: `Full` is what the benchmark measures, `Tiny` keeps the
/// same code paths at a size tests can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A smoke-test size.
    Tiny,
}

/// The simulator seed for a benchmark seed; the default seed maps to
/// the paper platform's own seed.
pub fn sim_seed(seed: u64) -> u64 {
    0xC0DE ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

const MAX_CYCLES: u64 = 2_000_000_000;

/// One simulation: configuration, applications and warmup.
#[derive(Debug, Clone)]
pub struct SingleRun {
    /// The system configuration (production defaults otherwise).
    pub cfg: SystemConfig,
    /// One application per core.
    pub apps: Vec<&'static AppProfile>,
    /// Functional warmup instructions per core.
    pub warmup: u64,
}

impl SingleRun {
    /// The simulation a single-run workload repeats; `None` for
    /// [`Workload::PaperSweep`].
    pub fn of(w: Workload, seed: u64, size: Size) -> Option<Self> {
        let tiny = size == Size::Tiny;
        let (names, mechanism, insts, warmup, sample) = match w {
            Workload::MixHigh => (
                ["mcf", "lbm", "milc", "soplex"],
                Mechanism::crow_cache(8),
                if tiny { 20_000 } else { 500_000 },
                if tiny { 20_000 } else { 1_000_000 },
                None,
            ),
            Workload::MixLow => (
                ["povray", "namd", "gamess", "calculix"],
                Mechanism::Baseline,
                if tiny { 100_000 } else { 10_000_000 },
                if tiny { 10_000 } else { 1_000_000 },
                None,
            ),
            Workload::MixHighSampled => (
                ["mcf", "lbm", "milc", "soplex"],
                Mechanism::crow_cache(8),
                if tiny { 100_000 } else { 2_000_000 },
                if tiny { 20_000 } else { 1_000_000 },
                Some(if tiny {
                    SamplePlan {
                        window_insts: 2_000,
                        warmup_insts: 1_000,
                        ff_insts: 17_000,
                    }
                } else {
                    SamplePlan::default_profile()
                }),
            ),
            Workload::PaperSweep => return None,
        };
        let mut cfg = SystemConfig::paper_default(mechanism);
        cfg.seed = sim_seed(seed);
        cfg.cpu.target_insts = insts;
        cfg.sample = sample;
        let apps = names
            .iter()
            .map(|n| AppProfile::by_name(n).expect("workload apps exist"))
            .collect();
        Some(Self { cfg, apps, warmup })
    }

    /// Instructions the run accounts for, summed over cores.
    pub fn insts(&self) -> u64 {
        self.cfg.cpu.target_insts * self.apps.len() as u64
    }

    /// A readable summary plus a hash of the full configuration.
    pub fn fingerprint(&self) -> String {
        let names: Vec<&str> = self.apps.iter().map(|a| a.name).collect();
        let sample = self
            .cfg
            .sample
            .map_or("full".to_string(), |p| p.fingerprint());
        format!(
            "{}|{}ch|{}|i{}|w{}|{}|cfg:{:016x}",
            self.cfg.mechanism.label(),
            self.cfg.channels,
            names.join("+"),
            self.cfg.cpu.target_insts,
            self.warmup,
            sample,
            fnv1a64(format!("{:?}", self.cfg).as_bytes())
        )
    }

    /// Builds, warms and runs through `System`; returns the report and
    /// the host seconds of each phase.
    ///
    /// # Errors
    ///
    /// Returns the message of a configuration `System` rejects.
    pub fn run(&self) -> Result<(SimReport, Phases), String> {
        let t0 = Instant::now();
        let mut sys = System::try_new(self.cfg.clone(), &self.apps).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        sys.warm(self.warmup);
        let t2 = Instant::now();
        let report = sys.run(MAX_CYCLES);
        let t3 = Instant::now();
        let phases = Phases {
            build_s: (t1 - t0).as_secs_f64(),
            warm_s: (t2 - t1).as_secs_f64(),
            run_s: (t3 - t2).as_secs_f64(),
        };
        Ok((report, phases))
    }

    /// The same simulation through the traced loop.
    ///
    /// # Errors
    ///
    /// Returns the message of a configuration the traced loop refuses.
    pub fn run_traced(&self) -> Result<(SimReport, Profile), String> {
        let mut sys = Traced::try_new(self.cfg.clone(), &self.apps)?;
        sys.warm(self.warmup);
        let report = sys.run(MAX_CYCLES);
        Ok((report, sys.prof))
    }
}

/// Host seconds of one simulation's phases.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phases {
    /// `System::try_new`.
    pub build_s: f64,
    /// `System::warm`.
    pub warm_s: f64,
    /// `System::run`.
    pub run_s: f64,
}

impl Phases {
    /// Set-up time: build plus warmup.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.warm_s
    }

    /// The whole job.
    pub fn total_s(&self) -> f64 {
        self.setup_s() + self.run_s
    }
}

/// One campaign job of the paper sweep: an app (or a four-app mix)
/// under a mechanism.
#[derive(Debug, Clone)]
pub struct SweepJob {
    apps: Vec<&'static AppProfile>,
    mechanism: Mechanism,
}

/// The Fig. 8 and Fig. 9 job set, in the batches `bench fig8`/`fig9`
/// submit: the Fig. 8 grid, then per mix group the alone-IPC runs of
/// apps not seen before and the mix × mechanism grid.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// `(campaign name, jobs)` per `Campaign::run` call, in order.
    batches: Vec<(&'static str, Vec<(String, SweepJob)>)>,
    /// The campaign scale (production defaults at [`Size::Full`]).
    scale: Scale,
    seed: u64,
}

impl Sweep {
    /// The sweep for `seed`. Seeds change the simulated traces and page
    /// tables; the mixes stay the figures' own, so every seed does
    /// comparable work.
    pub fn new(seed: u64, size: Size) -> Self {
        let scale = match size {
            // The production scale, with 4 mixes per group instead of 3:
            // at 3 the per-job median falls on the gap between one-core
            // and four-core jobs and `job_s_p50` jumps between runs.
            Size::Full => Scale {
                mixes_per_group: 4,
                ..Scale::from_lookup(|_| None).expect("the default scale is valid")
            },
            Size::Tiny => Scale::tiny(),
        };
        let mut mechs = vec![Mechanism::Baseline];
        mechs.extend(crow_bench::perf_figs::cache_configs());
        let mut apps = crow_bench::fig_apps();
        if size == Size::Tiny {
            apps.truncate(2);
        }
        let single = |app: &'static AppProfile, mechanism| SweepJob {
            apps: vec![app],
            mechanism,
        };
        let mut batches = Vec::new();
        let mut fig8 = Vec::new();
        for &app in &apps {
            for &m in &mechs {
                fig8.push((format!("{}/{}", app.name, m.label()), single(app, m)));
            }
        }
        batches.push(("fig8", fig8));
        let groups: &[MixGroup] = match size {
            Size::Full => &MixGroup::ALL,
            Size::Tiny => &MixGroup::ALL[..1],
        };
        let mut alone_done: Vec<&str> = Vec::new();
        for &group in groups {
            let mixes = mixes_for_group(group, scale.mixes_per_group, 77);
            let mut alone = Vec::new();
            for &app in mixes.iter().flatten() {
                if !alone_done.contains(&app.name) {
                    alone_done.push(app.name);
                    alone.push((
                        format!("alone/{}", app.name),
                        single(app, Mechanism::Baseline),
                    ));
                }
            }
            batches.push(("fig9", alone));
            let mut grid = Vec::new();
            for mix in &mixes {
                let id: Vec<&str> = mix.iter().map(|a| a.name).collect();
                for &m in &mechs {
                    grid.push((
                        format!("{}/{}", id.join("+"), m.label()),
                        SweepJob {
                            apps: mix.to_vec(),
                            mechanism: m,
                        },
                    ));
                }
            }
            batches.push(("fig9", grid));
        }
        Self {
            batches,
            scale,
            seed,
        }
    }

    /// Number of jobs over all batches.
    pub fn jobs(&self) -> usize {
        self.batches.iter().map(|(_, b)| b.len()).sum()
    }

    /// A readable summary plus a hash of every job id and the scale.
    pub fn fingerprint(&self) -> String {
        let ids: Vec<&str> = self
            .batches
            .iter()
            .flat_map(|(_, b)| b.iter().map(|(id, _)| id.as_str()))
            .collect();
        format!(
            "fig8+fig9|{}jobs|{}|seed:{:x}|jobs:{:016x}",
            self.jobs(),
            self.scale.fingerprint(),
            sim_seed(self.seed),
            fnv1a64(ids.join(",").as_bytes())
        )
    }

    /// Runs the sweep through journaled campaigns under `dir`, which
    /// must be fresh: resume stays off, so nothing is restored.
    /// `traced` runs every job through the traced loop.
    ///
    /// # Errors
    ///
    /// Returns a message when a campaign journal cannot be opened.
    pub fn run(&self, dir: &Path, traced: bool) -> Result<SweepRun, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let policy = CampaignPolicy::new(self.scale);
        let mut fig8 = Campaign::at_dir("fig8", policy, dir).map_err(|e| e.to_string())?;
        let mut fig9 = Campaign::at_dir("fig9", policy, dir).map_err(|e| e.to_string())?;
        let records: Arc<Mutex<Vec<JobRecord>>> = Arc::default();
        let mut digests = Vec::with_capacity(self.jobs());
        let mut failed = 0u64;
        let mut totals = ReportTotals::default();
        let started = Instant::now();
        for (name, batch) in &self.batches {
            let camp = if *name == "fig8" {
                &mut fig8
            } else {
                &mut fig9
            };
            let queued = Instant::now();
            let records = Arc::clone(&records);
            let seed = sim_seed(self.seed);
            let outcomes = camp.run(batch.clone(), move |job: &SweepJob, scale| {
                let began = Instant::now();
                let mut cfg = SystemConfig::paper_default(job.mechanism);
                cfg.seed = seed;
                cfg.cpu.target_insts = scale.insts;
                cfg.threads = scale.threads;
                cfg.sample = scale.sample;
                let (report, phases, prof) = if traced {
                    let mut sys = Traced::try_new(cfg, &job.apps).map_err(config_err)?;
                    sys.warm(scale.warmup);
                    let r = sys.run(scale.max_cycles);
                    let p = sys.prof;
                    let phases = Phases {
                        build_s: p.build_ns as f64 * 1e-9,
                        warm_s: p.warm_ns as f64 * 1e-9,
                        run_s: p.run_ns as f64 * 1e-9,
                    };
                    (r, phases, Some(p))
                } else {
                    let t0 = Instant::now();
                    let mut sys = System::try_new(cfg, &job.apps)?;
                    let t1 = Instant::now();
                    sys.warm(scale.warmup);
                    let t2 = Instant::now();
                    let r = sys.run(scale.max_cycles);
                    let phases = Phases {
                        build_s: (t1 - t0).as_secs_f64(),
                        warm_s: (t2 - t1).as_secs_f64(),
                        run_s: t2.elapsed().as_secs_f64(),
                    };
                    (r, phases, None)
                };
                records
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(JobRecord {
                        wait_s: (began - queued).as_secs_f64(),
                        phases,
                        prof,
                    });
                Ok(report)
            });
            for (o, (_, job)) in outcomes.into_iter().zip(batch) {
                match (o.kind, o.result) {
                    (OutcomeKind::Ok, Some(r)) if r.finished => {
                        digests.push(format!("{:016x}", digest(&r)));
                        totals.add(&r, self.scale.insts * job.apps.len() as u64);
                    }
                    _ => {
                        failed += 1;
                        digests.push(format!("failed:{}", o.fingerprint));
                    }
                }
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        let mut journal_bytes = 0;
        for camp in [&fig8, &fig9] {
            if let Some(p) = camp.journal_path() {
                journal_bytes += std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
            }
        }
        let jobs = std::mem::take(&mut *records.lock().unwrap_or_else(PoisonError::into_inner));
        Ok(SweepRun {
            digest: fnv1a64(digests.join(",").as_bytes()),
            wall_s,
            jobs,
            failed,
            totals,
            journal_bytes,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        })
    }
}

fn config_err(msg: String) -> crow_sim::CrowError {
    crow_sim::CrowError::Config(crow_dram::ConfigError::new("traced loop", msg))
}

/// Host timing of one campaign job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Seconds from its batch's submission to the job's start.
    pub wait_s: f64,
    /// Build, warmup and run seconds.
    pub phases: Phases,
    /// The job's layer profile, on a traced sweep.
    pub prof: Option<Profile>,
}

/// What one sweep produced.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Digest over every job's report digest, in job order.
    pub digest: u64,
    /// Host seconds from the first batch's submission to the last
    /// batch's end.
    pub wall_s: f64,
    /// Every job's timing, in completion order.
    pub jobs: Vec<JobRecord>,
    /// Jobs that did not end `ok` with a finished report.
    pub failed: u64,
    /// Counters summed over the jobs' reports.
    pub totals: ReportTotals,
    /// Bytes the campaigns journaled.
    pub journal_bytes: u64,
    /// Campaign worker slots (the default worker count).
    pub workers: usize,
}

/// Simulated counters summed over reports, for the per-layer ratios.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReportTotals {
    /// Instructions accounted for (target × cores).
    pub insts: u64,
    /// DRAM commands issued.
    pub commands: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer hits, misses and conflicts.
    pub row_accesses: u64,
    /// CROW-table lookups.
    pub crow_lookups: u64,
    /// CROW-table hits.
    pub crow_hits: u64,
    /// CROW-table installs (`ACT-c`).
    pub crow_installs: u64,
    /// Scheduler picks.
    pub sched_picks: u64,
    /// Scheduler candidates scanned.
    pub sched_scanned: u64,
}

impl ReportTotals {
    /// Adds the counters of one report that accounted for `insts`
    /// instructions.
    pub fn add(&mut self, r: &SimReport, insts: u64) {
        self.insts += insts;
        self.commands += r.commands.issued_total();
        self.row_hits += r.mc.row_hits;
        self.row_accesses += r.mc.row_hits + r.mc.row_misses + r.mc.row_conflicts;
        self.crow_lookups += r.crow.cache_lookups;
        self.crow_hits += r.crow.cache_hits;
        self.crow_installs += r.crow.cache_installs;
        self.sched_picks += r.sched.picks;
        self.sched_scanned += r.sched.scanned;
    }
}
