//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//! runs one benchmark workload and prints, as its last stdout line,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics of a traced run.
//! `perfbench --regen-reference` recomputes `reference.json`.
//!
//! Run from the repository root (campaign journals go to a fresh
//! directory under `.bench_build/`, removed afterwards):
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload mix-high
//! ```

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use crow_perfbench::heap::CountingAlloc;
use crow_perfbench::workload::{SingleRun, Size, Sweep, Workload, DEFAULT_SEED};
use crow_perfbench::{measure, Options, Reference};
use crow_sim::Json;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: perfbench --workload mix-high|mix-low|mix-high-sampled|paper-sweep \
                     [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --regen-reference";

fn main() -> ExitCode {
    // Every CROW_* knob changes what the simulator does (sampling,
    // threads, validation, campaign resume); refuse rather than measure
    // something else.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("CROW_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset every CROW_* variable",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let journal_dir = PathBuf::from(".bench_build").join(format!(
        "perfbench-journal-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos())
    ));
    let result = if args == ["--regen-reference"] {
        regen(&journal_dir)
    } else {
        parse(&args, journal_dir.clone()).and_then(|opts| run(&opts))
    };
    // Best effort: a missing directory (nothing journaled) is fine.
    let _ = std::fs::remove_dir_all(&journal_dir);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String], journal_dir: PathBuf) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::MixHigh,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        journal_dir,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    opts.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(opts)
}

/// Output of `program args`, trimmed, or `unavailable`.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unavailable".to_string(), |s| s.trim().to_string())
}

fn manifest(opts: &Options) -> Json {
    let probe = SingleRun::of(Workload::MixHighSampled, DEFAULT_SEED, opts.size)
        .expect("a single-run workload")
        .fingerprint();
    let config = match SingleRun::of(opts.workload, opts.seed, opts.size) {
        Some(run) => run.fingerprint(),
        None => Sweep::new(opts.seed, opts.size).fingerprint(),
    };
    Json::obj(vec![
        (
            "git_rev",
            Json::str(command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_output("rustc", &["-V"]))),
        (
            "nproc",
            Json::u64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("workload", Json::str(opts.workload.name())),
        ("seed", Json::u64(opts.seed)),
        ("seconds", Json::f64(opts.seconds)),
        ("traced", Json::Bool(opts.trace)),
        ("config", Json::str(config)),
        ("accuracy_probe_config", Json::str(probe)),
    ])
}

fn run(opts: &Options) -> Result<(), String> {
    let reference = Reference::stored()?;
    println!("manifest {}", manifest(opts).render());
    let out = measure(opts, Some(&reference))?;
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            (
                m.name,
                Json::obj(vec![
                    ("value", Json::f64(m.value)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(out.failed == 0)),
            ("attempted", Json::u64(out.attempted)),
            ("failed", Json::u64(out.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    );
    Ok(())
}

fn regen(journal_dir: &std::path::Path) -> Result<(), String> {
    let reference = Reference::compute(journal_dir)?;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference.json");
    std::fs::write(&path, reference.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}
