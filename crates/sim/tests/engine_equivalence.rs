//! The event-driven engine must be an *exact* optimization: for any
//! workload and mechanism, it produces a bit-identical [`SimReport`] to
//! the naive cycle-by-cycle stepper — only wall-clock fields (and the
//! scheduler diagnostics, which count implementation work rather than
//! architectural events) may differ.
//!
//! The same contract covers the indexed scheduler: every test runs the
//! full engine × scheduler-implementation matrix, so four configurations
//! must agree bit-for-bit, not two.

use crow_mem::SchedImpl;
use crow_sim::{Engine, FaultPlan, Mechanism, System, SystemConfig};
use crow_workloads::AppProfile;

/// The engine × scheduler-implementation matrix every equivalence test
/// sweeps. The first entry is the reference everything else is
/// compared against.
const MATRIX: [(Engine, SchedImpl); 4] = [
    (Engine::Naive, SchedImpl::Linear),
    (Engine::Naive, SchedImpl::Indexed),
    (Engine::EventDriven, SchedImpl::Linear),
    (Engine::EventDriven, SchedImpl::Indexed),
];

/// Zeroes the fields excluded from the equivalence contract: wall-clock
/// measurements and the scheduler work counters (the whole point of the
/// indexed path is that those differ).
fn normalize(r: &mut crow_sim::SimReport) {
    r.wall_seconds = 0.0;
    r.sim_cycles_per_sec = 0.0;
    r.sched = Default::default();
}

/// Runs one configuration under the full matrix and compares the
/// reports (normalized) against the naive/linear reference.
fn assert_equivalent(mechanism: Mechanism, app: &str, vrt: Option<u64>) {
    let profile = AppProfile::by_name(app).unwrap();
    let mut reports = Vec::new();
    for (engine, sched_impl) in MATRIX {
        let mut cfg = SystemConfig::quick_test(mechanism);
        cfg.engine = engine;
        cfg.mc.sched_impl = sched_impl;
        cfg.vrt_interval_cycles = vrt;
        let mut sys = System::new(cfg, &[profile]);
        let mut r = sys.run(2_000_000);
        normalize(&mut r);
        reports.push(r);
    }
    for (i, r) in reports.iter().enumerate().skip(1) {
        assert_eq!(
            format!("{:?}", reports[0]),
            format!("{r:?}"),
            "{:?} diverged from {:?} for {mechanism:?} on {app}",
            MATRIX[i],
            MATRIX[0],
        );
    }
}

#[test]
fn baseline_mcf_matches() {
    assert_equivalent(Mechanism::Baseline, "mcf", None);
}

#[test]
fn baseline_low_mpki_matches() {
    assert_equivalent(Mechanism::Baseline, "povray", None);
}

#[test]
fn crow_cache_mcf_matches() {
    assert_equivalent(Mechanism::crow_cache(8), "mcf", None);
}

#[test]
fn crow_cache_low_mpki_matches() {
    assert_equivalent(Mechanism::crow_cache(8), "povray", None);
}

#[test]
fn crow_combined_with_vrt_matches() {
    // VRT injections are scheduled by CPU-cycle count, so the skipper
    // must stop exactly at each injection boundary.
    assert_equivalent(Mechanism::crow_combined(), "libq", Some(100_000));
}

#[test]
fn fault_plan_under_both_engines_matches() {
    // Fault injections (VRT remaps, hammer bursts, bus drops) are
    // scheduled on CPU-cycle boundaries with a dedicated RNG, so all
    // four configurations must apply the exact same schedule —
    // including the validator's violation count and every fault
    // counter — and produce bit-identical reports.
    let profile = AppProfile::by_name("mcf").unwrap();
    let mut reports = Vec::new();
    for (engine, sched_impl) in MATRIX {
        let mut cfg = SystemConfig::quick_test(Mechanism::crow_cache(8));
        cfg.engine = engine;
        cfg.mc.sched_impl = sched_impl;
        cfg.validate_protocol = true;
        cfg.fault_plan = Some(FaultPlan::stress(0xFA17));
        let mut sys = System::new(cfg, &[profile]);
        let mut r = sys.run(2_000_000);
        normalize(&mut r);
        reports.push(r);
    }
    for (i, r) in reports.iter().enumerate().skip(1) {
        assert_eq!(
            format!("{:?}", reports[0]),
            format!("{r:?}"),
            "{:?} diverged under an active fault plan",
            MATRIX[i],
        );
    }
    assert!(
        reports[0].faults.total_injected() > 0,
        "the stress plan must actually inject: {:?}",
        reports[0].faults
    );
    assert!(reports[0].mc.bus_drops > 0, "drops must cost real slots");
    assert_eq!(reports[0].violations, 0, "faults must not break protocol");
}

#[test]
fn crow8_validated_run_is_violation_free_on_both_engines() {
    // Acceptance: a full CROW-8 run with the shadow validator attached
    // reports zero protocol violations on every engine × scheduler
    // combination.
    let profile = AppProfile::by_name("mcf").unwrap();
    for (engine, sched_impl) in MATRIX {
        let mut cfg = SystemConfig::quick_test(Mechanism::crow_cache(8));
        cfg.engine = engine;
        cfg.mc.sched_impl = sched_impl;
        cfg.validate_protocol = true;
        let mut sys = System::new(cfg, &[profile]);
        let r = sys
            .run_checked(30_000_000)
            .unwrap_or_else(|e| panic!("{engine:?}/{sched_impl:?}: {e}"));
        assert!(r.finished, "{engine:?}/{sched_impl:?} did not finish");
        assert_eq!(r.violations, 0);
        let observed: u64 = sys
            .controllers()
            .iter()
            .map(|mc| mc.channel().validator().expect("attached").observed())
            .sum();
        assert!(
            observed > 0,
            "{engine:?}/{sched_impl:?}: validator saw no commands"
        );
    }
}

#[test]
fn random_driver_four_channel_validated_runs_are_clean() {
    // The `random` microbenchmark is the adversarial input for the
    // controller: uniformly random lines keep every channel's queues
    // churning. Run CROW-8 on four channels with the shadow validator
    // attached across several seeds and demand a clean checked run.
    let profile = AppProfile::by_name("random").unwrap();
    for seed in [0xC401u64, 0xC402, 0xC403] {
        let mut cfg = SystemConfig::quick_test(Mechanism::crow_cache(8));
        cfg.channels = 4;
        cfg.seed = seed;
        cfg.validate_protocol = true;
        let mut sys = System::new(cfg, &[profile, profile]);
        // `run_checked` fails on any validator violation.
        sys.run_checked(2_000_000)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
    }
}

/// Runs a four-core mix under the full matrix on `channels` channels
/// and compares the reports (normalized) against the naive/linear
/// reference.
fn assert_mix_equivalent(mechanism: Mechanism, apps: [&str; 4], channels: u32, insts: u64) {
    let apps: Vec<&AppProfile> = apps
        .iter()
        .map(|n| AppProfile::by_name(n).unwrap())
        .collect();
    let mut reports = Vec::new();
    for (engine, sched_impl) in MATRIX {
        let mut cfg = SystemConfig::quick_test(mechanism);
        cfg.engine = engine;
        cfg.mc.sched_impl = sched_impl;
        cfg.channels = channels;
        cfg.cpu.target_insts = insts;
        let mut sys = System::new(cfg, &apps);
        let mut r = sys.run(2_000_000);
        normalize(&mut r);
        reports.push(r);
    }
    assert!(
        reports[0].finished,
        "{mechanism:?} on {apps:?} did not finish"
    );
    for (i, r) in reports.iter().enumerate().skip(1) {
        assert_eq!(
            format!("{:?}", reports[0]),
            format!("{r:?}"),
            "{:?} diverged for {mechanism:?} on {apps:?}",
            MATRIX[i],
        );
    }
}

#[test]
fn multicore_mix_matches() {
    assert_mix_equivalent(
        Mechanism::crow_cache(8),
        ["mcf", "povray", "libq", "gcc"],
        1,
        30_000,
    );
}

#[test]
fn all_low_mpki_mix_matches() {
    // Every core spends most cycles in mechanical bubble stretches, so
    // the event engine fast-forwards all four at once, many times over.
    for mechanism in [Mechanism::Baseline, Mechanism::crow_cache(8)] {
        assert_mix_equivalent(
            mechanism,
            ["povray", "namd", "gamess", "calculix"],
            4,
            300_000,
        );
    }
}
