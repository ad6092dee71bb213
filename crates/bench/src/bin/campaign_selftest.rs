//! End-to-end exerciser for the supervised campaign layer, used by the
//! kill-and-resume integration test and by `scripts/check.sh`.
//!
//! Runs two tiny campaigns against a journal directory:
//!
//! - `selftest-sim`: six deterministic compute jobs, one job that
//!   always panics, and one "flaky" job that panics at full scale but
//!   succeeds once the retry policy degrades it.
//! - `selftest-wedge`: one job that wedges (sleeps far past the
//!   deadline) under a short timeout, exercising the supervisor's
//!   deadline path.
//!
//! `--kill-after N` simulates a crash: a job inserted after the first
//! `N` compute jobs calls `exit(9)` mid-campaign, leaving a partial
//! journal behind. A follow-up run with `--resume` must restore the
//! journaled jobs, re-run only the missing ones, and produce a
//! byte-identical `selftest.json`.
//!
//! ```sh
//! campaign_selftest --dir /tmp/st                  # clean run
//! campaign_selftest --dir /tmp/st --kill-after 3   # crashes with exit 9
//! campaign_selftest --dir /tmp/st --resume --expect-restored 3 --expect-fresh 6
//! ```

use std::path::PathBuf;
use std::time::Duration;

use crow_sim::{Campaign, CampaignPolicy, CrowError, Json, Scale};

#[derive(Clone, Copy)]
enum Job {
    /// Pure arithmetic keyed by index and scale; succeeds first try.
    Compute(u64),
    /// Panics on every attempt.
    Panic,
    /// Panics at full scale, succeeds once degraded.
    Flaky,
    /// Simulated crash: kills the whole process mid-campaign.
    Kill,
    /// Sleeps far past any reasonable deadline.
    Wedge,
}

/// Deterministic stand-in for a simulation result.
fn compute(i: u64, insts: u64) -> f64 {
    let h = crow_sim::campaign::fnv1a64(format!("{i}:{insts}").as_bytes());
    (h % 1_000_000) as f64 / 1_000_000.0 + i as f64
}

fn usage() -> ! {
    eprintln!(
        "usage: campaign_selftest --dir DIR [--resume] [--kill-after N] \
         [--timeout-ms MS] [--expect-fresh N] [--expect-restored N]"
    );
    std::process::exit(2);
}

struct Args {
    dir: PathBuf,
    resume: bool,
    kill_after: Option<usize>,
    timeout_ms: u64,
    expect_fresh: Option<u64>,
    expect_restored: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        dir: PathBuf::new(),
        resume: false,
        kill_after: None,
        timeout_ms: 150,
        expect_fresh: None,
        expect_restored: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        let parse = |name: &str, v: String| -> u64 {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{name}: {v:?} is not an unsigned integer");
                usage()
            })
        };
        match flag.as_str() {
            "--dir" => args.dir = PathBuf::from(val("--dir")),
            "--resume" => args.resume = true,
            "--kill-after" => {
                args.kill_after = Some(parse("--kill-after", val("--kill-after")) as usize)
            }
            "--timeout-ms" => args.timeout_ms = parse("--timeout-ms", val("--timeout-ms")),
            "--expect-fresh" => {
                args.expect_fresh = Some(parse("--expect-fresh", val("--expect-fresh")))
            }
            "--expect-restored" => {
                args.expect_restored = Some(parse("--expect-restored", val("--expect-restored")));
            }
            _ => usage(),
        }
    }
    if args.dir.as_os_str().is_empty() {
        eprintln!("--dir is required");
        usage();
    }
    args
}

fn policy(scale: Scale, resume: bool) -> CampaignPolicy {
    let mut p = CampaignPolicy::new(scale);
    p.max_retries = 1;
    p.backoff = Duration::from_millis(10);
    p.threads = 1; // deterministic completion order for --kill-after
    p.resume = resume;
    p
}

fn open(name: &str, p: CampaignPolicy, dir: &std::path::Path) -> Campaign {
    Campaign::at_dir(name, p, dir).unwrap_or_else(|e| {
        eprintln!("campaign_selftest: cannot open journal: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let args = parse_args();
    // Injected panics are part of the exercise; keep them to one line
    // so check.sh output stays readable.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("[isolated worker panic: {info}]")
    }));
    // Large enough that one degrade step stays above the default
    // min_insts floor, so the flaky job really sees a smaller scale.
    let scale = Scale {
        insts: 40_000,
        warmup: 0,
        mixes_per_group: 1,
        max_cycles: u64::MAX,
        threads: 1,
        sample: None,
    };
    let full_insts = scale.insts;

    // Campaign 1: compute + panic + flaky (+ optional kill).
    let mut jobs: Vec<(String, Job)> = (0..6)
        .map(|i| (format!("sim/{i}"), Job::Compute(i)))
        .collect();
    if let Some(k) = args.kill_after {
        jobs.insert(k.min(jobs.len()), ("kill".to_string(), Job::Kill));
    }
    jobs.push(("panic".to_string(), Job::Panic));
    jobs.push(("flaky".to_string(), Job::Flaky));

    let mut sim = open("selftest-sim", policy(scale, args.resume), &args.dir);
    let outcomes = sim.run(
        jobs,
        move |job: &Job, scale: Scale| -> Result<f64, CrowError> {
            match *job {
                Job::Compute(i) => Ok(compute(i, scale.insts)),
                Job::Panic => panic!("injected panic"),
                Job::Flaky => {
                    assert!(scale.insts < full_insts, "flaky job needs a degraded retry");
                    Ok(compute(99, scale.insts))
                }
                Job::Kill => std::process::exit(9),
                Job::Wedge => unreachable!(),
            }
        },
    );

    // Campaign 2: one wedged job under a short deadline.
    let mut wp = policy(scale, args.resume);
    wp.timeout = Some(Duration::from_millis(args.timeout_ms));
    wp.max_retries = 0;
    let timeout_ms = args.timeout_ms;
    let mut wedge = open("selftest-wedge", wp, &args.dir);
    let wedge_outcomes = wedge.run(
        vec![("wedge".to_string(), Job::Wedge)],
        move |_job: &Job, _scale: Scale| -> Result<f64, CrowError> {
            std::thread::sleep(Duration::from_millis(timeout_ms * 50));
            Ok(0.0)
        },
    );

    // Figure-style JSON: per-job values plus final dispositions. A
    // resumed run must reproduce this byte-for-byte.
    let mut vals = Vec::new();
    for o in outcomes.iter().chain(&wedge_outcomes) {
        vals.push(Json::Obj(vec![
            ("fp".to_string(), Json::str(&o.fingerprint)),
            ("kind".to_string(), Json::str(o.disposition().as_str())),
            ("value".to_string(), o.result.map_or(Json::Null, Json::f64)),
        ]));
    }
    let mut disp = sim.dispositions();
    disp.merge(&wedge.dispositions());
    let doc = Json::Obj(vec![
        ("jobs".to_string(), Json::Arr(vals)),
        ("outcomes".to_string(), disp.to_json()),
    ]);
    let out_path = args.dir.join("selftest.json");
    if let Err(e) = std::fs::write(&out_path, doc.pretty()) {
        eprintln!(
            "campaign_selftest: cannot write {}: {e}",
            out_path.display()
        );
        std::process::exit(1);
    }

    // This-run accounting for the resume assertions.
    let mut this_run = sim.counts();
    this_run.merge(&wedge.counts());
    let restored = this_run.skipped;
    let fresh = this_run.total() - restored;
    println!(
        "selftest: {} jobs this run ({restored} restored, {fresh} fresh); dispositions: {disp}",
        this_run.total()
    );
    let mut failed = false;
    if let Some(want) = args.expect_restored {
        if restored != want {
            eprintln!("expected {want} restored jobs, got {restored}");
            failed = true;
        }
    }
    if let Some(want) = args.expect_fresh {
        if fresh != want {
            eprintln!("expected {want} fresh jobs, got {fresh}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
