//! Simulator-speed benchmark for the CROW reproduction.
//!
//! Runs one workload ([`workload::Workload`]) through the public APIs of
//! `crow-sim`, `crow-cpu` and `crow-mem` with production defaults (event
//! engine, indexed scheduler, one simulation thread, checkpoints off),
//! checks every run's simulated statistics, and reports end-to-end
//! metrics or, on a traced run, per-layer metrics. `README.md` in this
//! directory lists the metrics, their units and directions, and which
//! end-to-end metric each layer metric should move.

pub mod heap;
pub mod mirror;
pub mod stats;
pub mod workload;

use std::path::Path;
use std::time::Instant;

use crow_sim::campaign::fnv1a64;
use crow_sim::{Journaled, Json, SimReport};

use mirror::Profile;
use stats::{median, percentile, tail_percentile};
use workload::{ReportTotals, SingleRun, Size, Sweep, Workload, DEFAULT_SEED};

/// Digest of a report's simulated statistics: the campaign-journal
/// encoding (IPC/MPKI per core, CPU and memory cycles, `McStats`,
/// `ChannelStats`, `CrowStats`, energy, `SchedStats`, `SampleStats`)
/// with the two host-time fields zeroed.
pub fn digest(r: &SimReport) -> u64 {
    let mut r = r.clone();
    r.wall_seconds = 0.0;
    r.sim_cycles_per_sec = 0.0;
    fnv1a64(r.encode().render().as_bytes())
}

/// Reference results at [`DEFAULT_SEED`], stored in `reference.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Report digest per workload name.
    pub digests: Vec<(String, u64)>,
    /// Full-detail IPC sum of the `mix-high-sampled` configuration,
    /// the baseline of `ipc_err_pct`.
    pub full_ipc_sum: f64,
}

impl Reference {
    /// The reference compiled into the benchmark.
    ///
    /// # Errors
    ///
    /// Returns a message when `reference.json` is malformed.
    pub fn stored() -> Result<Self, String> {
        Self::parse(include_str!("../reference.json"))
    }

    /// Parses the `reference.json` format.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed part.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| format!("reference.json: {e:?}"))?;
        let mut digests = Vec::new();
        for w in Workload::ALL {
            let hex = v
                .get("digests")
                .and_then(|d| d.get(w.name()))
                .and_then(Json::as_str)
                .ok_or_else(|| format!("reference.json: no digest for {}", w.name()))?;
            let d = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("reference.json: bad digest {hex:?}"))?;
            digests.push((w.name().to_string(), d));
        }
        let full_ipc_sum = v
            .get("mix_high_sampled_full_ipc_sum")
            .and_then(Json::as_f64)
            .ok_or("reference.json: no mix_high_sampled_full_ipc_sum")?;
        Ok(Self {
            digests,
            full_ipc_sum,
        })
    }

    /// Recomputes every reference value (about a minute on one core).
    ///
    /// # Errors
    ///
    /// Returns a message when a run fails or does not finish.
    pub fn compute(journal_dir: &Path) -> Result<Self, String> {
        let mut digests = Vec::new();
        for w in Workload::ALL {
            let d = match SingleRun::of(w, DEFAULT_SEED, Size::Full) {
                Some(run) => {
                    let (r, _) = run.run()?;
                    if !r.finished {
                        return Err(format!("{} did not finish", w.name()));
                    }
                    digest(&r)
                }
                None => {
                    let s = Sweep::new(DEFAULT_SEED, Size::Full).run(journal_dir, false)?;
                    if s.failed > 0 {
                        return Err(format!("{} jobs of the sweep failed", s.failed));
                    }
                    s.digest
                }
            };
            digests.push((w.name().to_string(), d));
        }
        Ok(Self {
            digests,
            full_ipc_sum: full_ipc_sum(Size::Full)?,
        })
    }

    /// The `reference.json` text.
    pub fn to_json(&self) -> String {
        let digests = self
            .digests
            .iter()
            .map(|(k, d)| (k.as_str(), Json::str(format!("{d:016x}"))))
            .collect();
        Json::obj(vec![
            ("seed", Json::u64(DEFAULT_SEED)),
            ("digests", Json::obj(digests)),
            (
                "mix_high_sampled_full_ipc_sum",
                Json::f64(self.full_ipc_sum),
            ),
        ])
        .pretty()
    }

    /// The stored digest for `w`.
    pub fn digest(&self, w: Workload) -> Option<u64> {
        self.digests
            .iter()
            .find(|(k, _)| k == w.name())
            .map(|&(_, d)| d)
    }
}

/// Full-detail IPC sum of the `mix-high-sampled` configuration at
/// [`DEFAULT_SEED`]: the same system with sampling off.
///
/// # Errors
///
/// Returns a message when the run fails or does not finish.
pub fn full_ipc_sum(size: Size) -> Result<f64, String> {
    let mut run =
        SingleRun::of(Workload::MixHighSampled, DEFAULT_SEED, size).expect("a single-run workload");
    run.cfg.sample = None;
    let (r, _) = run.run()?;
    if !r.finished {
        return Err("the full-detail reference run did not finish".into());
    }
    Ok(r.ipc_sum())
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one benchmark run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: simulations, campaign jobs, checks.
    pub attempted: u64,
    /// Operations that failed: did not finish, a job not `ok`, or
    /// simulated statistics that differ from the expected ones.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines: tail percentiles, sample counts, failures.
    pub notes: Vec<String>,
}

/// How to run one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Run lengths.
    pub size: Size,
    /// A fresh directory for campaign journals; removed afterwards.
    pub journal_dir: std::path::PathBuf,
}

/// Counts operations and compares their digests with the expected one:
/// the stored reference at the default seed, else the first run's.
struct Checker {
    expected: Option<u64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    fn new(expected: Option<u64>) -> Self {
        Self {
            expected,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Records one operation: `Ok(digest)` of a finished run, or why it
    /// failed.
    fn check(&mut self, what: &str, result: Result<u64, String>) {
        self.attempted += 1;
        let problem = match result {
            Err(e) => Some(e),
            Ok(d) => match self.expected {
                None => {
                    self.expected = Some(d);
                    None
                }
                Some(e) if e == d => None,
                Some(e) => Some(format!("digest {d:016x}, expected {e:016x}")),
            },
        };
        if let Some(p) = problem {
            self.failed += 1;
            self.notes.push(format!("FAILED {what}: {p}"));
        }
    }
}

fn finished_digest(r: &SimReport) -> Result<u64, String> {
    if r.finished {
        Ok(digest(r))
    } else {
        Err("did not finish".into())
    }
}

fn timing_note(name: &str, values: &[f64]) -> String {
    let tail = match tail_percentile(values.len()) {
        Some(p) => format!(", p{p} {:.6}", percentile(values, p)),
        None => String::new(),
    };
    format!(
        "{name}: median {:.6} s{tail} (n={})",
        median(values),
        values.len()
    )
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// Returns a message when the workload cannot run at all (an unusable
/// reference or journal directory); failed simulations are counted in
/// the [`Outcome`] instead.
pub fn measure(opts: &Options, reference: Option<&Reference>) -> Result<Outcome, String> {
    let expected = if opts.seed == DEFAULT_SEED && opts.size == Size::Full {
        let r = reference.ok_or("no stored reference")?;
        Some(r.digest(opts.workload).ok_or("no stored digest")?)
    } else {
        None
    };
    let mut checker = Checker::new(expected);
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut out = match SingleRun::of(opts.workload, opts.seed, opts.size) {
        Some(run) => measure_single(opts, &run, budget, &mut checker)?,
        None => measure_sweep(opts, budget, &mut checker)?,
    };
    if !opts.trace {
        let (err, ci) = accuracy_probe(opts.size, reference, &mut checker)?;
        out.metrics.extend(metrics(&[
            ("ipc_err_pct", err, "%"),
            ("ipc_ci95_pct", ci, "%"),
        ]));
    }
    out.attempted = checker.attempted;
    out.failed = checker.failed;
    out.notes.extend(checker.notes);
    out.notes.push(format!(
        "fail_frac: {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    Ok(out)
}

/// Sampler accuracy on the `mix-high-sampled` configuration at the
/// default seed: |sampled IPC sum − full-detail IPC sum| / full, and
/// the 95% CI half-width of the sampled IPC relative to its mean, both
/// in percent. Deterministic, so every workload reports it unchanged
/// unless the model changes.
fn accuracy_probe(
    size: Size,
    reference: Option<&Reference>,
    checker: &mut Checker,
) -> Result<(f64, f64), String> {
    let run =
        SingleRun::of(Workload::MixHighSampled, DEFAULT_SEED, size).expect("a single-run workload");
    let full = match size {
        Size::Full => reference.ok_or("no stored reference")?.full_ipc_sum,
        Size::Tiny => full_ipc_sum(size)?,
    };
    let mut probe = Checker::new(match size {
        Size::Full => reference.and_then(|r| r.digest(Workload::MixHighSampled)),
        Size::Tiny => None,
    });
    let (err, ci) = match run.run() {
        Ok((r, _)) => {
            probe.check("accuracy probe", finished_digest(&r));
            let s = r.samples.ok_or("the probe ran unsampled")?;
            (
                (r.ipc_sum() - full).abs() / full * 100.0,
                s.ipc.ci95 / s.ipc.mean * 100.0,
            )
        }
        Err(e) => {
            probe.check("accuracy probe", Err(e));
            (0.0, 0.0)
        }
    };
    checker.attempted += probe.attempted;
    checker.failed += probe.failed;
    checker.notes.extend(probe.notes);
    Ok((err, ci))
}

fn measure_single(
    opts: &Options,
    run: &SingleRun,
    budget: f64,
    checker: &mut Checker,
) -> Result<Outcome, String> {
    const MIN_REPEATS: usize = 3;
    let mut phases = Vec::new();
    heap::reset_peak();
    let started = Instant::now();
    while phases.len() < MIN_REPEATS || started.elapsed().as_secs_f64() < budget {
        match run.run() {
            Ok((r, ph)) => {
                checker.check("simulation", finished_digest(&r));
                phases.push(ph);
            }
            Err(e) => {
                checker.check("simulation", Err(e));
                break;
            }
        }
    }
    let heap_mib = heap::peak_mib();
    let run_s: Vec<f64> = phases.iter().map(|p| p.run_s).collect();
    let setup_s: Vec<f64> = phases.iter().map(|p| p.setup_s()).collect();
    let job_s: Vec<f64> = phases.iter().map(|p| p.total_s()).collect();
    let insts = run.insts() as f64;
    let mut out = Outcome {
        notes: vec![
            timing_note("wall_s", &run_s),
            timing_note("setup_s", &setup_s),
            timing_note("job_s", &job_s),
        ],
        ..Outcome::default()
    };
    if !opts.trace {
        let rate: Vec<f64> = run_s.iter().map(|s| insts / s).collect();
        out.metrics = end_to_end(median(&run_s), median(&rate), &setup_s, heap_mib, &job_s);
        return Ok(out);
    }
    let mut layer_sets = Vec::new();
    let mut traced_run_s = Vec::new();
    let started = Instant::now();
    while traced_run_s.is_empty() || started.elapsed().as_secs_f64() < budget {
        match run.run_traced() {
            Ok((r, prof)) => {
                checker.check("traced simulation", finished_digest(&r));
                let mut totals = ReportTotals::default();
                totals.add(&r, run.insts());
                traced_run_s.push(prof.run_ns as f64 * 1e-9);
                out.notes.push(accounting_note("run", &prof));
                layer_sets.push(layer_metrics(&prof, &totals, None));
            }
            Err(e) => {
                checker.check("traced simulation", Err(e));
                break;
            }
        }
    }
    out.metrics = median_metrics(&layer_sets);
    let overhead = median(&traced_run_s) / median(&run_s) - 1.0;
    out.metrics
        .extend(metrics(&[("trace.overhead_frac", overhead, "ratio")]));
    Ok(out)
}

fn end_to_end(
    wall_s: f64,
    insts_per_s: f64,
    setup_s: &[f64],
    heap_mib: f64,
    job_s: &[f64],
) -> Vec<Metric> {
    metrics(&[
        ("wall_s", wall_s, "s"),
        ("sim_insts_per_s", insts_per_s, "1/s"),
        ("setup_s", median(setup_s), "s"),
        ("peak_heap_mb", heap_mib, "MiB"),
        ("job_s_p50", percentile(job_s, 50.0), "s"),
        ("job_s_p90", percentile(job_s, 90.0), "s"),
    ])
}

fn measure_sweep(opts: &Options, budget: f64, checker: &mut Checker) -> Result<Outcome, String> {
    let sweep = Sweep::new(opts.seed, opts.size);
    let mut sweeps = Vec::new();
    heap::reset_peak();
    let started = Instant::now();
    let mut k = 0;
    let mut next_dir = || {
        k += 1;
        opts.journal_dir.join(format!("sweep-{k}"))
    };
    while sweeps.is_empty() || started.elapsed().as_secs_f64() < budget {
        let s = sweep.run(&next_dir(), false)?;
        check_sweep(checker, "sweep", sweep.jobs(), &s);
        sweeps.push(s);
    }
    let heap_mib = heap::peak_mib();
    let wall: Vec<f64> = sweeps.iter().map(|s| s.wall_s).collect();
    let jobs = sweeps.iter().flat_map(|s| &s.jobs);
    let setup_s: Vec<f64> = jobs.clone().map(|j| j.phases.setup_s()).collect();
    let job_s: Vec<f64> = jobs.map(|j| j.phases.total_s()).collect();
    let mut out = Outcome {
        notes: vec![
            timing_note("wall_s (sweep)", &wall),
            timing_note("setup_s (per job)", &setup_s),
            timing_note("job_s", &job_s),
        ],
        ..Outcome::default()
    };
    if !opts.trace {
        let rate: Vec<f64> = sweeps
            .iter()
            .map(|s| s.totals.insts as f64 / s.wall_s)
            .collect();
        out.metrics = end_to_end(median(&wall), median(&rate), &setup_s, heap_mib, &job_s);
        return Ok(out);
    }
    let mut layer_sets = Vec::new();
    let mut traced_wall = Vec::new();
    let started = Instant::now();
    while traced_wall.is_empty() || started.elapsed().as_secs_f64() < budget {
        let s = sweep.run(&next_dir(), true)?;
        check_sweep(checker, "traced sweep", sweep.jobs(), &s);
        let mut prof = Profile::default();
        for j in &s.jobs {
            prof.merge(j.prof.as_ref().expect("traced jobs carry a profile"));
        }
        let busy: f64 = s.jobs.iter().map(|j| j.phases.total_s()).sum();
        let waits: Vec<f64> = s.jobs.iter().map(|j| j.wait_s).collect();
        let campaign = CampaignMetrics {
            jobs: s.jobs.len() as f64,
            job_busy_s: busy,
            worker_idle_frac: 1.0 - busy / (s.wall_s * s.workers as f64),
            job_wait_s_p50: median(&waits),
            journal_bytes: s.journal_bytes as f64,
        };
        traced_wall.push(s.wall_s);
        out.notes.push(accounting_note("summed job runs", &prof));
        layer_sets.push(layer_metrics(&prof, &s.totals, Some(campaign)));
    }
    out.metrics = median_metrics(&layer_sets);
    let overhead = median(&traced_wall) / median(&wall) - 1.0;
    out.metrics
        .extend(metrics(&[("trace.overhead_frac", overhead, "ratio")]));
    Ok(out)
}

/// How the traced run time splits into layer calls and the loop's own
/// time.
fn accounting_note(what: &str, p: &Profile) -> String {
    format!(
        "traced {what}: layer calls {:.6} s + engine.self {:.6} s = {:.6} s",
        p.layer_ns() as f64 * 1e-9,
        p.engine_self_ns() as f64 * 1e-9,
        p.run_ns as f64 * 1e-9
    )
}

fn check_sweep(checker: &mut Checker, what: &str, jobs: usize, s: &workload::SweepRun) {
    checker.attempted += jobs as u64;
    checker.failed += s.failed;
    let result = if s.failed > 0 {
        Err(format!("{} jobs did not end ok", s.failed))
    } else {
        Ok(s.digest)
    };
    checker.check(what, result);
}

/// Campaign-layer values of one traced sweep.
struct CampaignMetrics {
    jobs: f64,
    job_busy_s: f64,
    worker_idle_frac: f64,
    job_wait_s_p50: f64,
    journal_bytes: f64,
}

fn layer_metrics(p: &Profile, t: &ReportTotals, campaign: Option<CampaignMetrics>) -> Vec<Metric> {
    let s = |ns: u64| ns as f64 * 1e-9;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let kinst = t.insts as f64 / 1000.0;
    let cycles = p.stepped_cycles + p.skipped_cycles;
    let c = campaign.unwrap_or(CampaignMetrics {
        jobs: 0.0,
        job_busy_s: 0.0,
        worker_idle_frac: 0.0,
        job_wait_s_p50: 0.0,
        journal_bytes: 0.0,
    });
    let rows = [
        ("engine.stepped_cycles", p.stepped_cycles as f64, "count"),
        ("engine.skipped_cycles", p.skipped_cycles as f64, "count"),
        (
            "engine.stepped_frac",
            ratio(p.stepped_cycles, cycles),
            "ratio",
        ),
        (
            "engine.sim_cycles_per_s",
            cycles as f64 / s(p.run_ns),
            "1/s",
        ),
        ("engine.self_s", s(p.engine_self_ns()), "s"),
        ("cpu.cycle_calls", p.cpu_cycle_calls as f64, "count"),
        ("cpu.cycle_s", s(p.cpu_cycle_ns), "s"),
        ("cpu.completion_s", s(p.cpu_completion_ns), "s"),
        ("cpu.skip_s", s(p.cpu_skip_ns), "s"),
        ("cpu.send_attempts", p.send_attempts as f64, "count"),
        (
            "cpu.send_accept_ratio",
            ratio(p.send_accepts, p.send_attempts),
            "ratio",
        ),
        ("mem.tick_calls", p.mem_tick_calls as f64, "count"),
        ("mem.tick_s", s(p.mem_tick_ns), "s"),
        (
            "mem.ticks_per_kinst",
            p.mem_tick_calls as f64 / kinst,
            "1/kinst",
        ),
        ("mem.skip_idle_s", s(p.mem_skip_idle_ns), "s"),
        ("mem.wakeup_s", s(p.mem_wakeup_ns), "s"),
        ("mem.enqueue_s", s(p.mem_enqueue_ns), "s"),
        (
            "mem.sched_scanned_per_pick",
            ratio(t.sched_scanned, t.sched_picks),
            "ratio",
        ),
        ("dram.cmds_per_kinst", t.commands as f64 / kinst, "1/kinst"),
        (
            "dram.row_hit_ratio",
            ratio(t.row_hits, t.row_accesses),
            "ratio",
        ),
        (
            "core.crow_hit_ratio",
            ratio(t.crow_hits, t.crow_lookups),
            "ratio",
        ),
        (
            "core.installs_per_kinst",
            t.crow_installs as f64 / kinst,
            "1/kinst",
        ),
        ("sampling.windows", p.windows as f64, "count"),
        ("sampling.drain_s", s(p.drain_ns), "s"),
        ("sampling.ff_s", s(p.ff_ns), "s"),
        (
            "sampling.warm_touch_calls",
            p.warm_touch_calls as f64,
            "count",
        ),
        ("sampling.warm_touch_s", s(p.warm_touch_ns), "s"),
        ("sampling.detail_s", s(p.detail_ns), "s"),
        ("setup.build_s", s(p.build_ns), "s"),
        ("setup.warm_s", s(p.warm_ns), "s"),
        ("campaign.jobs", c.jobs, "count"),
        ("campaign.job_busy_s", c.job_busy_s, "s"),
        ("campaign.worker_idle_frac", c.worker_idle_frac, "ratio"),
        ("campaign.job_wait_s_p50", c.job_wait_s_p50, "s"),
        ("campaign.journal_bytes", c.journal_bytes, "bytes"),
    ];
    metrics(&rows)
}

fn metrics(rows: &[(&'static str, f64, &'static str)]) -> Vec<Metric> {
    rows.iter()
        .map(|&(name, value, unit)| Metric { name, value, unit })
        .collect()
}

/// Per-metric median over repeated traced runs (every set lists the
/// same metrics in the same order).
fn median_metrics(sets: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = sets.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| Metric {
            name: m.name,
            value: median(&sets.iter().map(|s| s[i].value).collect::<Vec<_>>()),
            unit: m.unit,
        })
        .collect()
}
