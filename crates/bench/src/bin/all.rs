//! Regenerates every table and figure, printing and archiving the
//! results under `results/`. Simulation sections run as supervised
//! campaigns with durable journals under `results/campaign/`, so an
//! interrupted regeneration picks up where it left off:
//!
//! ```sh
//! cargo run -p crow-bench --release --bin all            # fresh run
//! cargo run -p crow-bench --release --bin all -- --resume
//! ```
//!
//! `--timeout SECS` and `--retries N` set the per-job deadline and
//! retry budget (equivalently `CROW_TIMEOUT_SECS` / `CROW_RETRIES`;
//! `--resume` is `CROW_RESUME=1`).
use crow_bench::util::scale_from_env_or_exit;
use std::time::Instant;

type Section = (&'static str, Box<dyn Fn() -> String>);

fn usage() -> ! {
    eprintln!(
        "usage: all [--resume] [--timeout SECS] [--retries N] [--only SECTION] [--sample SPEC]\n\
         \x20  --sample SPEC runs every simulation section under interval\n\
         \x20    sampling (SPEC is `default` or `WINDOW:WARMUP:FF`,\n\
         \x20    instructions per core; equivalently CROW_SAMPLE). Sampled\n\
         \x20    campaigns journal under distinct fingerprints, so full and\n\
         \x20    sampled figure sets never collide."
    );
    std::process::exit(2);
}

fn main() {
    let mut only: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        // The campaign knobs travel by environment so the figure
        // functions (and their FigCampaign constructors) see them.
        match flag.as_str() {
            "--resume" => std::env::set_var("CROW_RESUME", "1"),
            "--timeout" => std::env::set_var("CROW_TIMEOUT_SECS", val("--timeout")),
            "--retries" => std::env::set_var("CROW_RETRIES", val("--retries")),
            "--only" => only = Some(val("--only")),
            "--sample" => {
                let spec = val("--sample");
                // Validate eagerly: a malformed spec is a diagnostic
                // exit here, not a late failure inside every section.
                if let Err(e) = crow_sim::sampling::SamplePlan::parse(&spec) {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
                std::env::set_var("CROW_SAMPLE", spec);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    let scale = scale_from_env_or_exit();
    let sections: Vec<Section> = vec![
        ("table1", Box::new(crow_bench::circuit_figs::table1)),
        ("fig5", Box::new(crow_bench::circuit_figs::fig5)),
        ("fig6", Box::new(crow_bench::circuit_figs::fig6)),
        ("fig7", Box::new(crow_bench::circuit_figs::fig7)),
        ("overheads", Box::new(crow_bench::circuit_figs::overheads)),
        ("fig8", Box::new(move || crow_bench::perf_figs::fig8(scale))),
        ("fig9", Box::new(move || crow_bench::perf_figs::fig9(scale))),
        (
            "fig10",
            Box::new(move || crow_bench::perf_figs::fig10(scale)),
        ),
        (
            "fig11",
            Box::new(move || crow_bench::compare_figs::fig11(scale)),
        ),
        (
            "fig12",
            Box::new(move || crow_bench::compare_figs::fig12(scale)),
        ),
        (
            "fig13",
            Box::new(move || crow_bench::refresh_figs::fig13(scale)),
        ),
        (
            "fig14",
            Box::new(move || crow_bench::refresh_figs::fig14(scale)),
        ),
        (
            "hammer",
            Box::new(move || crow_bench::hammer_figs::hammer(scale)),
        ),
        (
            "ablation_partial_restore",
            Box::new(move || crow_bench::ablations::partial_restore(scale)),
        ),
        (
            "ablation_scheduler",
            Box::new(move || crow_bench::ablations::scheduler(scale)),
        ),
        (
            "ablation_row_policy",
            Box::new(move || crow_bench::ablations::row_policy(scale)),
        ),
        (
            "ablation_table_sharing",
            Box::new(move || crow_bench::ablations::table_sharing(scale)),
        ),
        (
            "ablation_refresh_granularity",
            Box::new(move || crow_bench::ablations::refresh_granularity(scale)),
        ),
        (
            "ablation_standards",
            Box::new(move || crow_bench::ablations::standards(scale)),
        ),
        (
            "ablation_mapping",
            Box::new(move || crow_bench::ablations::mapping(scale)),
        ),
    ];
    crow_sim::campaign::ensure_dir(std::path::Path::new("results")).ok();
    let mut combined = String::new();
    for (name, f) in sections {
        if only.as_deref().is_some_and(|o| o != name) {
            continue;
        }
        let t = Instant::now();
        let text = f();
        println!("{text}");
        eprintln!("[{name}: {:.1?}]", t.elapsed());
        std::fs::write(format!("results/{name}.txt"), &text).ok();
        combined.push_str(&text);
    }
    // A filtered run holds only some sections, so it must not replace
    // the full archive.
    if only.is_none() {
        std::fs::write("results/all.txt", combined).ok();
    }
}
