//! Every workload runs at a tiny size, checks out, and reports exactly
//! the metrics `BENCHMARK.json` names.

use std::path::PathBuf;

use crow_perfbench::workload::{Size, Workload};
use crow_perfbench::{measure, Options};
use crow_sim::Json;

fn declared(kind: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v = Json::parse(&text).expect("BENCHMARK.json parses");
    v.get(kind)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn smoke(w: Workload, trace: bool) {
    let opts = Options {
        workload: w,
        seed: 7,
        seconds: 0.01,
        trace,
        size: Size::Tiny,
        journal_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{trace}", w.name())),
    };
    let out = measure(&opts, None).expect("the workload runs");
    let _ = std::fs::remove_dir_all(&opts.journal_dir);
    assert_eq!(out.failed, 0, "{:?}", out.notes);
    assert!(
        out.attempted >= 2,
        "{} attempted {}",
        w.name(),
        out.attempted
    );
    let names: Vec<String> = out.metrics.iter().map(|m| m.name.to_string()).collect();
    let kind = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(names, declared(kind), "{} {kind}", w.name());
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{} {}: {}", w.name(), m.name, m.value);
    }
    if !trace {
        for m in &out.metrics {
            // The heap counter needs the benchmark binary's allocator.
            if m.name != "peak_heap_mb" {
                assert!(m.value > 0.0, "{} {} must not be 0", w.name(), m.name);
            }
        }
    }
}

#[test]
fn mix_high_runs() {
    smoke(Workload::MixHigh, false);
    smoke(Workload::MixHigh, true);
}

#[test]
fn mix_low_runs() {
    smoke(Workload::MixLow, false);
    smoke(Workload::MixLow, true);
}

#[test]
fn mix_high_sampled_runs() {
    smoke(Workload::MixHighSampled, false);
    smoke(Workload::MixHighSampled, true);
}

#[test]
fn paper_sweep_runs() {
    smoke(Workload::PaperSweep, false);
    smoke(Workload::PaperSweep, true);
}
