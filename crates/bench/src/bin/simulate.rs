//! Command-line simulator front end: run any workload under any
//! mechanism with the full paper platform (or a customized one) and get
//! a detailed report.
//!
//! ```sh
//! cargo run -p crow-bench --release --bin simulate -- \
//!     --app mcf --app libq --mechanism crow-8 --insts 500000 \
//!     --density 64 --llc-mib 8 --prefetch
//!
//! # Replay recorded trace files (crow_cpu::trace format):
//! cargo run -p crow-bench --release --bin simulate -- \
//!     --trace core0.trace --trace core1.trace --mechanism crow-combined
//! ```

use crow_cpu::trace::{load_trace, LoopedTrace, TraceEntry};
use crow_cpu::TraceSource;
use crow_dram::Command;
use crow_sim::{
    AttackPattern, Campaign, CampaignPolicy, FaultPlan, FaultPolicy, HammerScenario, Mechanism,
    OutcomeKind, SamplePlan, Scale, SimReport, System, SystemConfig,
};
use crow_workloads::AppProfile;

struct Args {
    apps: Vec<String>,
    traces: Vec<String>,
    mechanism: String,
    insts: u64,
    warmup: u64,
    density: u32,
    llc_mib: u64,
    channels: u32,
    seed: u64,
    prefetch: bool,
    per_bank_refresh: bool,
    oracle: bool,
    ddr4: bool,
    validate: bool,
    faults: Option<String>,
    fault_policy: FaultPolicy,
    hammer: Option<String>,
    hammer_intensity: u64,
    timeout: Option<f64>,
    retries: Option<u32>,
    resume: bool,
    sample: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: simulate [--app NAME]... [--trace FILE]... [--mechanism M]\n\
         \x20        [--insts N] [--warmup N] [--density 8|16|32|64]\n\
         \x20        [--llc-mib N] [--channels N] [--seed N]\n\
         \x20        [--prefetch] [--per-bank-refresh] [--oracle] [--ddr4]\n\
         \x20        [--validate] [--faults SPEC] [--fault-policy P]\n\
         \x20        [--hammer PATTERN] [--hammer-intensity N]\n\
         \x20        [--timeout SECS] [--retries N] [--resume]\n\
         \x20        [--sample SPEC]\n\
         \n\
         mechanisms: baseline, crow-N (copy rows), crow-ref, crow-combined,\n\
         \x20           ideal, no-refresh, tldram-N, salp-N, salp-N-o\n\
         apps: see `crow_workloads::AppProfile` (mcf, libq, ... or\n\
         \x20      random/streaming); --trace replays a recorded file instead\n\
         \n\
         --validate attaches the shadow protocol validator to every channel\n\
         --faults SPEC enables fault injection: `stress` or a comma list of\n\
         \x20    vrt=N, hammer=N, burst=N, drop=N (intervals in CPU cycles)\n\
         --fault-policy P is abort, record (default) or degrade\n\
         --hammer PATTERN attaches a RowHammer attack scenario (single,\n\
         \x20    double, many-N, half-double); --hammer-intensity sets the\n\
         \x20    aggressor ACTs per refresh window (default 500000), and\n\
         \x20    CROW_HAMMER_* env overrides refine the scenario (strict\n\
         \x20    parse; see EXPERIMENTS.md)\n\
         \n\
         --timeout/--retries/--resume run the simulation as a supervised\n\
         \x20    campaign job (journaled under results/campaign/simulate.jsonl):\n\
         \x20    a panic, Abort-policy fault, or overrun deadline is retried at\n\
         \x20    a degraded instruction budget, and --resume restores a\n\
         \x20    previously journaled result instead of re-running\n\
         \n\
         --sample SPEC runs statistical interval sampling: alternating\n\
         \x20    functional fast-forward and detailed measured windows.\n\
         \x20    SPEC is `default` or `WINDOW:WARMUP:FF` (instructions per\n\
         \x20    core); per-metric means and 95% confidence intervals land\n\
         \x20    in the report. Overrides CROW_SAMPLE env"
    );
    std::process::exit(2);
}

fn parse_fault_policy(s: &str) -> FaultPolicy {
    match s.to_ascii_lowercase().as_str() {
        "abort" => FaultPolicy::Abort,
        "record" => FaultPolicy::Record,
        "degrade" => FaultPolicy::Degrade,
        other => {
            eprintln!("unknown fault policy {other}");
            usage();
        }
    }
}

fn parse_fault_plan(spec: &str, seed: u64, policy: FaultPolicy) -> FaultPlan {
    let mut p = if spec.eq_ignore_ascii_case("stress") {
        FaultPlan::stress(seed)
    } else {
        let mut p = FaultPlan::quiet(seed);
        for part in spec.split(',') {
            let Some((key, value)) = part.split_once('=') else {
                eprintln!("bad --faults item {part:?} (want key=value)");
                usage();
            };
            let n: u64 = value.parse().unwrap_or_else(|_| {
                eprintln!("bad --faults value in {part:?}");
                usage();
            });
            match key {
                "vrt" => p.vrt_interval = Some(n),
                "hammer" => p.hammer_interval = Some(n),
                "burst" => p.hammer_burst = n as u32,
                "drop" => p.drop_interval = Some(n),
                other => {
                    eprintln!("unknown --faults key {other}");
                    usage();
                }
            }
        }
        p
    };
    p.policy = policy;
    p
}

fn parse_args() -> Args {
    let mut a = Args {
        apps: Vec::new(),
        traces: Vec::new(),
        mechanism: "crow-8".into(),
        insts: 400_000,
        warmup: 50_000,
        density: 8,
        llc_mib: 8,
        channels: 4,
        seed: 0xC0DE,
        prefetch: false,
        per_bank_refresh: false,
        oracle: false,
        ddr4: false,
        validate: false,
        faults: None,
        fault_policy: FaultPolicy::Record,
        hammer: None,
        hammer_intensity: 500_000,
        timeout: None,
        retries: None,
        resume: false,
        sample: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--app" => a.apps.push(val("--app")),
            "--trace" => a.traces.push(val("--trace")),
            "--mechanism" | "-m" => a.mechanism = val("--mechanism"),
            "--insts" => a.insts = val("--insts").parse().unwrap_or_else(|_| usage()),
            "--warmup" => a.warmup = val("--warmup").parse().unwrap_or_else(|_| usage()),
            "--density" => a.density = val("--density").parse().unwrap_or_else(|_| usage()),
            "--llc-mib" => a.llc_mib = val("--llc-mib").parse().unwrap_or_else(|_| usage()),
            "--channels" => a.channels = val("--channels").parse().unwrap_or_else(|_| usage()),
            "--seed" => a.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--prefetch" => a.prefetch = true,
            "--ddr4" => a.ddr4 = true,
            "--per-bank-refresh" => a.per_bank_refresh = true,
            "--oracle" => a.oracle = true,
            "--validate" => a.validate = true,
            "--faults" => a.faults = Some(val("--faults")),
            "--fault-policy" => a.fault_policy = parse_fault_policy(&val("--fault-policy")),
            "--hammer" => a.hammer = Some(val("--hammer")),
            "--hammer-intensity" => {
                a.hammer_intensity = val("--hammer-intensity")
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--timeout" => a.timeout = Some(val("--timeout").parse().unwrap_or_else(|_| usage())),
            "--retries" => a.retries = Some(val("--retries").parse().unwrap_or_else(|_| usage())),
            "--resume" => a.resume = true,
            "--sample" => a.sample = Some(val("--sample")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    if a.apps.is_empty() && a.traces.is_empty() {
        a.apps.push("mcf".into());
    }
    a
}

fn parse_mechanism(s: &str) -> Mechanism {
    Mechanism::parse(s).unwrap_or_else(|| {
        eprintln!("unknown mechanism {s}");
        usage();
    })
}

/// Runs the configured simulation as a single supervised campaign job:
/// crash-isolated, deadline-enforced, retried at a degraded instruction
/// budget, and journaled under `results/campaign/simulate.jsonl` so
/// `--resume` restores the result instead of re-running. Returns the
/// report and whether it was restored from the journal.
fn run_supervised<F>(args: &Args, scale: Scale, cfg: SystemConfig, build: F) -> (SimReport, bool)
where
    F: Fn(SystemConfig) -> Result<System, crow_sim::CrowError> + Send + Sync + 'static,
{
    let mut policy = CampaignPolicy::new(scale);
    policy.timeout = args
        .timeout
        .filter(|&s| s > 0.0)
        .map(std::time::Duration::from_secs_f64);
    policy.max_retries = args.retries.unwrap_or(1);
    policy.resume = args.resume;
    let mut camp = Campaign::new("simulate", policy).unwrap_or_else(|e| {
        eprintln!("warning: {e}; running unjournaled");
        Campaign::ephemeral("simulate", policy)
    });
    if camp.quarantined() > 0 {
        eprintln!(
            "simulate: quarantined {} malformed journal record(s)",
            camp.quarantined()
        );
    }
    if camp.corrupt() > 0 {
        eprintln!(
            "simulate: set aside {} CRC-failing journal record(s) to the .corrupt sidecar",
            camp.corrupt()
        );
    }
    // Everything that changes the simulated outcome must be in the job
    // fingerprint (the instruction budget rides the scale fingerprint).
    // The hammer segment records the *resolved* scenario, so
    // CROW_HAMMER_* env overrides key distinct journal entries.
    let hammer_fp = match &cfg.hammer {
        Some(sc) => format!(
            "/hammer:{}x{}s{}t{}p{}",
            sc.pattern.label(),
            sc.intensity,
            sc.seed,
            sc.flip.base_threshold,
            sc.flip.flip_p_inv
        ),
        None => String::new(),
    };
    let job_fp = format!(
        "sim/{}/{}/d{}/llc{}/ch{}/s{}{}{}{}{}{}{}/{}/{:?}",
        args.mechanism,
        if args.traces.is_empty() {
            args.apps.join("+")
        } else {
            args.traces.join("+")
        },
        args.density,
        args.llc_mib,
        args.channels,
        args.seed,
        if args.prefetch { "/pref" } else { "" },
        if args.per_bank_refresh { "/pbref" } else { "" },
        if args.oracle { "/oracle" } else { "" },
        if args.ddr4 { "/ddr4" } else { "" },
        if args.validate { "/validate" } else { "" },
        hammer_fp,
        args.faults.as_deref().unwrap_or("-"),
        args.fault_policy,
    );
    let oracle = args.oracle;
    let outcomes = camp.run(vec![(job_fp, cfg)], move |cfg, scale| {
        let mut cfg = cfg.clone();
        cfg.cpu.target_insts = scale.insts;
        cfg.sample = scale.sample;
        let mut sys = build(cfg)?;
        if scale.warmup > 0 {
            sys.warm(scale.warmup);
        }
        let r = sys.run_checked(u64::MAX)?;
        if oracle {
            sys.assert_data_integrity();
        }
        Ok(r)
    });
    let o = outcomes.into_iter().next().expect("one job in, one out");
    eprintln!(
        "simulate campaign: {} after {} attempt(s)",
        match o.disposition() {
            OutcomeKind::Ok => "ok",
            OutcomeKind::Degraded => "completed at degraded scale",
            OutcomeKind::Panicked => "failed",
            OutcomeKind::TimedOut => "timed out",
            OutcomeKind::Skipped => "restored",
        },
        o.attempts.max(1)
    );
    match o.result {
        Some(r) => {
            if oracle && o.kind != OutcomeKind::Skipped {
                println!("data-integrity oracle: clean");
            }
            (r, o.kind == OutcomeKind::Skipped)
        }
        None => {
            eprintln!(
                "simulate: {}",
                o.error.as_deref().unwrap_or("job produced no result")
            );
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = parse_args();
    // Only the sampling plan rides the environment scale; the CLI flags
    // own the per-run knobs (insts, warmup). Malformed env is a
    // diagnostic exit, never a silent default.
    let env_scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    // The CLI flag wins over CROW_SAMPLE so a script can pin a plan for
    // one run without editing its environment.
    let sample = match &args.sample {
        Some(spec) => Some(SamplePlan::parse(spec).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })),
        None => env_scale.sample,
    };
    let scale = Scale {
        insts: args.insts,
        warmup: args.warmup,
        mixes_per_group: 1,
        max_cycles: u64::MAX,
        sample,
        ..env_scale
    };
    let mech = parse_mechanism(&args.mechanism);
    let base = if args.ddr4 {
        SystemConfig::ddr4(mech)
    } else {
        SystemConfig::paper_default(mech).with_density(args.density)
    };
    let mut cfg = base.with_llc_bytes(args.llc_mib << 20);
    cfg.channels = args.channels;
    cfg.seed = args.seed;
    cfg.cpu.target_insts = args.insts;
    cfg.sample = scale.sample;
    cfg.mc.per_bank_refresh = args.per_bank_refresh;
    cfg.oracle = args.oracle;
    if args.prefetch {
        cfg = cfg.with_prefetcher();
    }
    if args.validate {
        cfg.validate_protocol = true;
    }
    if let Some(spec) = &args.faults {
        cfg.fault_plan = Some(parse_fault_plan(spec, args.seed, args.fault_policy));
    }
    if args.hammer.is_none() && args.hammer_intensity != 500_000 {
        eprintln!("--hammer-intensity needs --hammer");
        usage();
    }
    if let Some(spec) = &args.hammer {
        let pattern = AttackPattern::parse(spec).unwrap_or_else(|| {
            eprintln!("unknown attack pattern {spec}");
            usage();
        });
        if args.hammer_intensity == 0 {
            eprintln!("--hammer-intensity must be positive");
            usage();
        }
        let mut sc = HammerScenario::new(pattern, args.hammer_intensity);
        if let Err(e) = sc.apply_env() {
            eprintln!("simulate: {e}");
            std::process::exit(2);
        }
        cfg = cfg.with_hammer(sc);
    }
    let hammering = cfg.hammer;
    let validating = cfg.validate_protocol;
    let injecting = cfg.fault_plan.is_some();

    // Resolve inputs once, up front (bad names/files fail fast in both
    // the direct and the supervised path).
    let mut names = Vec::new();
    let apps: Vec<&'static AppProfile> = if args.traces.is_empty() {
        args.apps
            .iter()
            .map(|n| {
                AppProfile::by_name(n).unwrap_or_else(|| {
                    eprintln!("unknown app {n}");
                    usage()
                })
            })
            .inspect(|a| names.push(a.name.to_string()))
            .collect()
    } else {
        Vec::new()
    };
    let trace_entries: Vec<Vec<TraceEntry>> = args
        .traces
        .iter()
        .map(|p| {
            let entries = load_trace(std::path::Path::new(p)).unwrap_or_else(|e| {
                eprintln!("cannot load {p}: {e}");
                std::process::exit(1);
            });
            names.push(p.clone());
            entries
        })
        .collect();

    let build = move |cfg: SystemConfig| -> Result<System, crow_sim::CrowError> {
        if trace_entries.is_empty() {
            System::try_new(cfg, &apps)
        } else {
            let traces: Vec<Box<dyn TraceSource>> = trace_entries
                .iter()
                .map(|entries| {
                    LoopedTrace::try_new(entries.clone())
                        .map(|t| Box::new(t) as Box<dyn TraceSource>)
                })
                .collect::<Result<_, _>>()?;
            System::try_with_traces(cfg, traces)
        }
    };

    let supervised = args.timeout.is_some() || args.retries.is_some() || args.resume;
    let start = std::time::Instant::now();
    let (r, restored) = if supervised {
        run_supervised(&args, scale, cfg, build)
    } else {
        let mut sys = build(cfg).unwrap_or_else(|e| {
            eprintln!("simulate: {e}");
            std::process::exit(1);
        });
        if args.warmup > 0 {
            sys.warm(args.warmup);
        }
        let r = sys.run_checked(u64::MAX).unwrap_or_else(|e| {
            eprintln!("simulate: {e}");
            std::process::exit(1);
        });
        if args.oracle {
            sys.assert_data_integrity();
            println!("data-integrity oracle: clean");
        }
        (r, false)
    };
    if restored {
        println!("[restored from campaign journal; wall-clock figures are from the original run]");
    }
    if validating {
        println!("shadow protocol validator: {} violation(s)", r.violations);
    }
    if injecting {
        let f = &r.faults;
        println!(
            "faults injected: vrt {} | hammer {} ({} victims) | drops {} | suppressed {}",
            f.vrt_injected, f.hammer_injected, f.hammer_victims, f.drops_injected, f.suppressed
        );
    }
    if r.trace_faults > 0 {
        println!(
            "trace faults: {} core(s) parked on a dry trace",
            r.trace_faults
        );
    }
    if let Some(sc) = &hammering {
        let h = &r.hammer;
        println!(
            "hammer ({} @ {} ACTs/tREFW): injected {} | live flips {} ({} rows) | \
             absorbed {} | detections {} | mitigation refreshes {}",
            sc.pattern.label(),
            sc.intensity,
            h.injected,
            h.flips,
            h.flipped_rows,
            h.absorbed,
            h.detections,
            h.mitigation_refreshes,
        );
    }

    println!(
        "== {} | {} | {} insts/core | {} Gbit | {} MiB LLC | {} ch{}{} ==",
        mech.label(),
        if args.ddr4 {
            "DDR4-2400"
        } else {
            "LPDDR4-3200"
        },
        args.insts,
        args.density,
        args.llc_mib,
        args.channels,
        if args.prefetch { " | prefetch" } else { "" },
        if args.per_bank_refresh {
            " | per-bank refresh"
        } else {
            ""
        },
    );
    for (i, name) in names.iter().enumerate() {
        println!(
            "core {i} ({name}): IPC {:.3}, MPKI {:.1}",
            r.ipc[i], r.mpki[i]
        );
    }
    if let Some(s) = &r.samples {
        println!(
            "sampling ({} windows of {} insts): IPC {:.3} +/- {:.3} | \
             energy {:.1} uJ +/- {:.1} | row-hit {:.3} +/- {:.3}",
            s.windows,
            s.plan.window_insts,
            s.ipc.mean,
            s.ipc.ci95,
            s.energy_nj.mean / 1e3,
            s.energy_nj.ci95 / 1e3,
            s.row_hit_rate.mean,
            s.row_hit_rate.ci95,
        );
        println!(
            "sampling budget: measured {} | warmed {} | fast-forwarded {} insts/core \
             ({} drain cycles)",
            s.measured_insts, s.warmed_insts, s.skipped_insts, s.drain_cycles,
        );
    }
    // Merge latency percentiles across channels.
    println!(
        "reads {} | writes {} | avg lat {:.0} | p50 <= {} | p99 <= {} | max {} (mem cycles)",
        r.mc.reads,
        r.mc.writes,
        r.mc.avg_read_latency(),
        r.mc.latency_percentile(0.5),
        r.mc.latency_percentile(0.99),
        r.mc.read_latency_max,
    );
    println!(
        "row buffer: hits {} misses {} conflicts {} ({:.1}% hit)",
        r.mc.row_hits,
        r.mc.row_misses,
        r.mc.row_conflicts,
        r.mc.row_hit_rate() * 100.0
    );
    println!(
        "commands: ACT {} ACT-c {} ACT-t {} PRE {} REF {} REFpb {}",
        r.commands.issued(Command::Act),
        r.commands.issued(Command::ActC),
        r.commands.issued(Command::ActT),
        r.commands.issued(Command::Pre),
        r.commands.issued(Command::Ref),
        r.commands.issued(Command::RefPb),
    );
    if r.crow.cache_lookups + r.crow.ref_redirects > 0 {
        println!(
            "CROW: hit rate {:.2} | installs {} | restore-evictions {} | ref redirects {} | hammer remaps {}",
            r.crow_hit_rate(),
            r.crow.cache_installs,
            r.crow.restore_evictions,
            r.crow.ref_redirects,
            r.crow.hammer_remaps,
        );
    }
    let e = &r.energy;
    println!(
        "energy: {:.3} mJ (act {:.0} uJ, rd {:.0} uJ, wr {:.0} uJ, ref {:.0} uJ, bg {:.0} uJ; refresh {:.1}%)",
        r.energy_mj(),
        e.act_nj / 1e3,
        e.rd_nj / 1e3,
        e.wr_nj / 1e3,
        e.ref_nj / 1e3,
        e.background_nj / 1e3,
        e.refresh_fraction() * 100.0,
    );
    println!(
        "simulated {} CPU cycles ({} mem) in {:.2?}{}",
        r.cpu_cycles,
        r.mem_cycles,
        start.elapsed(),
        if r.finished { "" } else { " [DID NOT FINISH]" },
    );
}
