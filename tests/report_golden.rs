//! Golden reports: the FNV-1a digest of `SimReport::encode()`, with the
//! two host-time fields zeroed, pinned for a handful of small systems.
//!
//! Every simulated statistic is in the encoding, `SchedStats` included,
//! so a speed change to the controller, the DRAM timing engine or the
//! CROW table that moves any command, counter or scheduler scan fails
//! here. A change that is *meant* to move a report updates the pin
//! together with `perfbench/reference.json`.

use crow::sim::campaign::fnv1a64;
use crow::sim::sampling::SamplePlan;
use crow::sim::{Journaled, Mechanism, SimReport, System, SystemConfig};
use crow::workloads::AppProfile;

const HHHH: [&str; 4] = ["mcf", "lbm", "milc", "soplex"];

fn digest(r: &SimReport) -> u64 {
    let mut r = r.clone();
    r.wall_seconds = 0.0;
    r.sim_cycles_per_sec = 0.0;
    fnv1a64(r.encode().render().as_bytes())
}

/// Runs the 4-channel paper platform on the HHHH mix at a size a debug
/// build finishes in seconds.
fn run(mechanism: Mechanism, sample: Option<SamplePlan>) -> SimReport {
    let mut cfg = SystemConfig::paper_default(mechanism);
    cfg.cpu.target_insts = if sample.is_some() { 400_000 } else { 300_000 };
    cfg.sample = sample;
    let apps: Vec<_> = HHHH
        .iter()
        .map(|n| AppProfile::by_name(n).expect("mix apps exist"))
        .collect();
    let mut sys = System::new(cfg, &apps);
    sys.warm(10_000);
    let r = sys.run(u64::MAX);
    assert!(r.finished, "{mechanism:?} did not finish");
    r
}

fn assert_pinned(label: &str, r: &SimReport, pin: u64) {
    let got = digest(r);
    assert_eq!(
        got, pin,
        "{label}: report digest {got:#018x}, pinned {pin:#018x}\n{r:?}"
    );
}

#[test]
fn crow8_mix_full_report_is_pinned() {
    let r = run(Mechanism::crow_cache(8), None);
    assert_pinned("CROW-8 HHHH full", &r, 0x3aa5_718a_39b6_4672);
}

/// Pins today's sampled behaviour, including the stale hit/miss split
/// `quiesce_open_rows` leaves behind (DESIGN.md §3.13); the pin moves
/// together with that fix.
#[test]
fn crow8_mix_sampled_report_is_pinned() {
    let plan = SamplePlan {
        window_insts: 2_000,
        warmup_insts: 1_000,
        ff_insts: 17_000,
    };
    let r = run(Mechanism::crow_cache(8), Some(plan));
    assert!(r.samples.as_ref().is_some_and(|s| s.windows >= 2));
    assert_pinned("CROW-8 HHHH sampled", &r, 0x0e7a_50be_8bcd_1313);
}

#[test]
fn baseline_mix_report_is_pinned() {
    let r = run(Mechanism::Baseline, None);
    assert_pinned("baseline HHHH", &r, 0x342e_d994_2781_4102);
}

#[test]
fn salp_mix_report_is_pinned() {
    let r = run(
        Mechanism::Salp {
            subarrays: 128,
            open_page: true,
        },
        None,
    );
    assert_pinned("SALP-128-O HHHH", &r, 0x013e_149d_fdc6_7211);
}

#[test]
fn crow8_shared_table_mix_report_is_pinned() {
    let r = run(
        Mechanism::CrowCache {
            copy_rows: 8,
            share_factor: 2,
        },
        None,
    );
    // Sharing puts restore-first victims in the other subarray of a set.
    assert!(r.mc.restore_activations > 0);
    assert_pinned("CROW-8/share2 HHHH", &r, 0x8379_d354_8138_ecb9);
}
