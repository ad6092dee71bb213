//! The traced loop must reproduce `System::run` exactly, or its
//! per-layer numbers would describe a different program.

use crow_perfbench::digest;
use crow_perfbench::mirror::Traced;
use crow_perfbench::workload::{SingleRun, Size, Workload};
use crow_sim::{Mechanism, SystemConfig};

fn assert_mirrors(run: &SingleRun) {
    let (full, _) = run.run().expect("System runs");
    let (traced, prof) = run.run_traced().expect("the traced loop runs");
    assert!(full.finished, "{}", run.fingerprint());
    assert_eq!(
        digest(&full),
        digest(&traced),
        "traced report differs for {}",
        run.fingerprint()
    );
    assert_eq!(full.ipc, traced.ipc);
    assert_eq!(full.cpu_cycles, traced.cpu_cycles);
    assert_eq!(full.samples, traced.samples);
    assert_eq!(prof.stepped_cycles + prof.skipped_cycles, traced.cpu_cycles);
    assert!(
        prof.layer_ns() <= prof.run_ns,
        "exclusive layer times fit in the run"
    );
}

#[test]
fn traced_loop_reproduces_baseline() {
    assert_mirrors(&SingleRun::of(Workload::MixLow, 3, Size::Tiny).unwrap());
}

#[test]
fn traced_loop_reproduces_crow8() {
    assert_mirrors(&SingleRun::of(Workload::MixHigh, 3, Size::Tiny).unwrap());
}

#[test]
fn traced_loop_reproduces_a_sampled_plan() {
    let run = SingleRun::of(Workload::MixHighSampled, 3, Size::Tiny).unwrap();
    let (_, prof) = run.run_traced().unwrap();
    assert!(prof.windows > 1 && prof.warm_touch_calls > 0, "{prof:?}");
    assert_mirrors(&run);
}

#[test]
fn traced_loop_reproduces_ideal_cache_and_crow1() {
    for mechanism in [Mechanism::IdealCache, Mechanism::crow_cache(1)] {
        let mut run = SingleRun::of(Workload::MixHigh, 5, Size::Tiny).unwrap();
        run.cfg.mechanism = mechanism;
        assert_mirrors(&run);
    }
}

#[test]
fn traced_loop_refuses_paths_it_does_not_mirror() {
    let apps = [crow_workloads::AppProfile::by_name("mcf").unwrap()];
    let mut cfg = SystemConfig::paper_default(Mechanism::crow_ref());
    assert!(Traced::try_new(cfg.clone(), &apps).is_err());
    cfg.mechanism = Mechanism::Baseline;
    cfg.oracle = true;
    assert!(Traced::try_new(cfg.clone(), &apps).is_err());
    cfg.oracle = false;
    cfg.vrt_interval_cycles = Some(1000);
    assert!(Traced::try_new(cfg, &apps).is_err());
}
