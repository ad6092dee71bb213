//! Ablation studies over the design choices the paper (and our
//! reproduction) bakes in:
//!
//! * **partial restoration** (paper §4.1.3) — CROW-cache with and
//!   without early restoration termination, isolating how much of the
//!   speedup comes from the relaxed `tRAS`;
//! * **scheduler** — FCFS vs FR-FCFS vs FR-FCFS-Cap (paper footnote 6
//!   claims Cap beats plain FR-FCFS on average);
//! * **row-buffer policy** — timeout (footnote 7) vs open-page vs
//!   closed-page;
//! * **CROW-table sharing factor** (paper §6.1: sharing 4 subarrays per
//!   entry set costs ~1% average speedup);
//! * **address interleaving** — channel-striped vs row-contiguous maps.

use crow_dram::MraTimings;
use crow_mem::{RowPolicy, SchedKind};
use crow_sim::metrics::geomean;
use crow_sim::{run_with_config, Mechanism, Scale, SystemConfig};

use crate::perf_figs::mix_id;
use crate::util::{fig_apps, heading, speedup1, FigCampaign, Table};

/// Partial-restoration ablation: CROW-8 with the paper operating point
/// vs CROW-8 restricted to full restoration.
pub fn partial_restore(scale: Scale) -> String {
    let apps = fig_apps();
    #[derive(Clone, Copy)]
    enum Variant {
        Baseline,
        Full,
        Partial,
    }
    let mut camp = FigCampaign::new("ablation_partial_restore", scale);
    let mut jobs = Vec::new();
    for &app in &apps {
        for (tag, v) in [
            ("base", Variant::Baseline),
            ("full", Variant::Full),
            ("partial", Variant::Partial),
        ] {
            jobs.push((format!("{}/{tag}", app.name), (app, v)));
        }
    }
    let reports = camp.run(jobs, |&(app, v), scale| {
        let mech = match v {
            Variant::Baseline => Mechanism::Baseline,
            _ => Mechanism::crow_cache(8),
        };
        let mut cfg = SystemConfig::paper_default(mech);
        if matches!(v, Variant::Full) {
            // Full-restoration-only MRA timings, and Table 1's full
            // tRCD reduction (-38%) since the trade-off is not taken.
            cfg.mra_override = Some(MraTimings::no_partial_restore());
        }
        Ok(run_with_config(cfg, &[app], scale))
    });
    let mut tab = Table::new(vec!["app", "full-restore only", "with partial restore"]);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 2];
    for (app, row) in apps.iter().zip(reports.chunks(3)) {
        let sp_full = speedup1(&row[1], &row[0]);
        let sp_part = speedup1(&row[2], &row[0]);
        cols[0].push(sp_full);
        cols[1].push(sp_part);
        tab.row(vec![
            app.name.to_string(),
            format!("{sp_full:.3}"),
            format!("{sp_part:.3}"),
        ]);
    }
    tab.row(vec![
        "geomean".to_string(),
        format!("{:.3}", geomean(&cols[0])),
        format!("{:.3}", geomean(&cols[1])),
    ]);
    let mut out = heading("Ablation: partial restoration (paper Sec. 4.1.3)");
    out.push_str(&tab.render());
    out.push_str("\n(partial restoration relaxes tRAS by 33% on ACT-t at a 17-point tRCD cost)\n");
    out.push_str(&camp.finish());
    out
}

/// Scheduler ablation under four-core contention (single-core queues are
/// too shallow for scheduling to matter).
pub fn scheduler(scale: Scale) -> String {
    use crow_workloads::{mixes_for_group, MixGroup};
    let mixes = mixes_for_group(MixGroup::Hhhh, scale.mixes_per_group.max(2), 81);
    let scheds = [
        ("FCFS", SchedKind::Fcfs),
        ("FR-FCFS", SchedKind::FrFcfs),
        ("FR-FCFS-Cap4", SchedKind::FrFcfsCap { cap: 4 }),
        ("FR-FCFS-Cap16", SchedKind::FrFcfsCap { cap: 16 }),
    ];
    let mut camp = FigCampaign::new("ablation_scheduler", scale);
    let mut jobs = Vec::new();
    for mix in &mixes {
        for &(name, s) in &scheds {
            jobs.push((format!("{}/{name}", mix_id(mix)), (mix.to_vec(), s)));
        }
    }
    let reports = camp.run(jobs, |(apps, sched), scale| {
        let mut cfg = SystemConfig::paper_default(Mechanism::Baseline);
        cfg.mc = cfg.mc.with_sched(*sched);
        Ok(run_with_config(cfg, apps, scale))
    });
    let mut tab = Table::new(vec![
        "scheduler",
        "throughput vs FCFS",
        "max read latency (rel)",
    ]);
    for (k, (name, _)) in scheds.iter().enumerate() {
        let ratios: Vec<f64> = reports
            .chunks(scheds.len())
            .map(|c| c[k].ipc_sum() / c[0].ipc_sum())
            .collect();
        let lat: Vec<f64> = reports
            .chunks(scheds.len())
            .map(|c| c[k].mc.read_latency_max as f64 / c[0].mc.read_latency_max.max(1) as f64)
            .collect();
        tab.row(vec![
            (*name).to_string(),
            format!("{:.3}", geomean(&ratios)),
            format!("{:.2}", lat.iter().sum::<f64>() / lat.len() as f64),
        ]);
    }
    let mut out = heading("Ablation: request scheduler (baseline DRAM, 4-core HHHH)");
    out.push_str(&tab.render());
    out.push_str(
        "\n(the Cap bounds how long a streaming row can starve others: it trades a\n\
         little throughput for tail latency, per the fairness argument of footnote 6)\n",
    );
    out.push_str(&camp.finish());
    out
}

/// Row-buffer-policy ablation on the baseline system.
pub fn row_policy(scale: Scale) -> String {
    let apps = fig_apps();
    let policies = [
        ("timeout-75ns", RowPolicy::Timeout { cycles: 120 }),
        ("open-page", RowPolicy::OpenPage),
        ("closed-page", RowPolicy::ClosedPage),
    ];
    let mut camp = FigCampaign::new("ablation_row_policy", scale);
    let mut jobs = Vec::new();
    for &app in &apps {
        for &(name, p) in &policies {
            jobs.push((format!("{}/{name}", app.name), (app, p)));
        }
    }
    let reports = camp.run(jobs, |&(app, policy), scale| {
        let mut cfg = SystemConfig::paper_default(Mechanism::Baseline);
        cfg.mc.policy = policy;
        Ok(run_with_config(cfg, &[app], scale))
    });
    let mut tab = Table::new(vec![
        "policy",
        "geomean IPC vs timeout",
        "avg energy vs timeout",
    ]);
    for (k, (name, _)) in policies.iter().enumerate() {
        let ratios: Vec<f64> = reports
            .chunks(policies.len())
            .map(|c| c[k].ipc[0] / c[0].ipc[0])
            .collect();
        let energy: Vec<f64> = reports
            .chunks(policies.len())
            .map(|c| c[k].energy.total_nj() / c[0].energy.total_nj())
            .collect();
        tab.row(vec![
            (*name).to_string(),
            format!("{:.3}", geomean(&ratios)),
            format!("{:.3}", energy.iter().sum::<f64>() / energy.len() as f64),
        ]);
    }
    let mut out = heading("Ablation: row-buffer policy (baseline DRAM)");
    out.push_str(&tab.render());
    out.push_str(&camp.finish());
    out
}

/// CROW-table sharing-factor sweep (paper §6.1).
pub fn table_sharing(scale: Scale) -> String {
    let apps = fig_apps();
    let factors = [1u32, 2, 4, 8];
    let mut camp = FigCampaign::new("ablation_table_sharing", scale);
    let mut jobs = Vec::new();
    for &app in &apps {
        jobs.push((format!("{}/base", app.name), (app, None)));
        for &f in &factors {
            jobs.push((format!("{}/share{f}", app.name), (app, Some(f))));
        }
    }
    let reports = camp.run(jobs, |&(app, factor), scale| {
        let mech = match factor {
            None => Mechanism::Baseline,
            Some(share_factor) => Mechanism::CrowCache {
                copy_rows: 8,
                share_factor,
            },
        };
        Ok(run_with_config(
            SystemConfig::paper_default(mech),
            &[app],
            scale,
        ))
    });
    let stride = factors.len() + 1;
    let mut tab = Table::new(vec![
        "sharing factor",
        "geomean speedup",
        "avg hit rate",
        "table KB",
    ]);
    for (k, &f) in factors.iter().enumerate() {
        let sp: Vec<f64> = reports
            .chunks(stride)
            .map(|c| speedup1(&c[k + 1], &c[0]))
            .collect();
        let hit: Vec<f64> = reports
            .chunks(stride)
            .map(|c| c[k + 1].crow_hit_rate())
            .collect();
        let storage = crow_core::overhead::crow_table_storage(512, 2, 8, 1024 / f);
        tab.row(vec![
            format!("{f}"),
            format!("{:.3}", geomean(&sp)),
            format!("{:.2}", hit.iter().sum::<f64>() / hit.len() as f64),
            format!("{:.1}", storage.total_bytes / 1000.0),
        ]);
    }
    let mut out = heading("Ablation: CROW-table entry sharing (paper Sec. 6.1)");
    out.push_str(&tab.render());
    out.push_str("\npaper: sharing across 4 subarrays drops average speedup 7.1% -> 6.1%\n");
    out.push_str(&camp.finish());
    out
}

/// Refresh-granularity ablation: all-bank `REF` vs LPDDR4 per-bank
/// `REFpb` (an extension beyond the paper's evaluation; per-bank refresh
/// hides refresh latency behind accesses to other banks, which matters
/// more at high densities where `tRFC` is long).
pub fn refresh_granularity(scale: Scale) -> String {
    use crow_workloads::{mixes_for_group, MixGroup};
    let mixes = mixes_for_group(MixGroup::Hhhh, scale.mixes_per_group.max(2), 82);
    let mut tab = Table::new(vec![
        "density",
        "per-bank speedup",
        "per-bank energy",
        "with CROW-ref: per-bank speedup",
    ]);
    let mut camp = FigCampaign::new("ablation_refresh_granularity", scale);
    for density in [8u32, 64] {
        let mut jobs = Vec::new();
        for mix in &mixes {
            for (mech, pb) in [
                (Mechanism::Baseline, false),
                (Mechanism::Baseline, true),
                (Mechanism::crow_ref(), false),
                (Mechanism::crow_ref(), true),
            ] {
                let id = format!(
                    "d{density}/{}/{}{}",
                    mix_id(mix),
                    mech.label(),
                    if pb { "+pb" } else { "" }
                );
                jobs.push((id, (mix.to_vec(), mech, pb)));
            }
        }
        let reports = camp.run(jobs, move |(apps, mech, pb), scale| {
            let mut cfg = SystemConfig::paper_default(*mech).with_density(density);
            cfg.mc.per_bank_refresh = *pb;
            Ok(run_with_config(cfg, apps, scale))
        });
        let mut sp = Vec::new();
        let mut en = Vec::new();
        let mut sp_ref = Vec::new();
        for c in reports.chunks(4) {
            sp.push(c[1].ipc_sum() / c[0].ipc_sum());
            en.push(c[1].energy.total_nj() / c[0].energy.total_nj());
            sp_ref.push(c[3].ipc_sum() / c[2].ipc_sum());
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        tab.row(vec![
            format!("{density} Gbit"),
            format!("{:.3}", avg(&sp)),
            format!("{:.3}", avg(&en)),
            format!("{:.3}", avg(&sp_ref)),
        ]);
    }
    let mut out = heading("Ablation: per-bank vs all-bank refresh (4-core HHHH)");
    out.push_str(&tab.render());
    out.push_str(
        "\n(per-bank refresh hides refresh latency behind accesses to other\n\
         banks, so its speedup grows with density as tRFC grows; at the\n\
         extrapolated 64 Gbit timings tRFCpb approaches the per-bank slot, so a\n\
         bank is almost always refreshing and the gain costs far more DRAM\n\
         energy -- another angle on the paper's point that refresh overhead\n\
         scales unfavourably with density, and on why CROW-ref's halved rate\n\
         matters)\n",
    );
    out.push_str(&camp.finish());
    out
}

/// DRAM-standard comparison (extension): the same CROW mechanisms on the
/// LPDDR4-3200 paper platform vs a DDR4-2400 platform with bank groups
/// and two ranks (the paper notes its mechanisms are not LPDDR4-specific).
pub fn standards(scale: Scale) -> String {
    let apps = fig_apps();
    #[derive(Clone, Copy)]
    enum Std {
        Lpddr4,
        Ddr4,
    }
    let mechs = [
        Mechanism::Baseline,
        Mechanism::crow_cache(8),
        Mechanism::crow_combined(),
    ];
    let mut camp = FigCampaign::new("ablation_standards", scale);
    let mut jobs = Vec::new();
    for &app in &apps {
        for (tag, std) in [("lpddr4", Std::Lpddr4), ("ddr4", Std::Ddr4)] {
            for &mech in &mechs {
                let id = format!("{}/{tag}/{}", app.name, mech.label());
                jobs.push((id, (app, std, mech)));
            }
        }
    }
    let reports = camp.run(jobs, |&(app, std, mech), scale| {
        let cfg = match std {
            Std::Lpddr4 => SystemConfig::paper_default(mech),
            Std::Ddr4 => SystemConfig::ddr4(mech),
        };
        Ok(run_with_config(cfg, &[app], scale))
    });
    let mut tab = Table::new(vec!["standard", "CROW-8 speedup", "CROW-8+ref speedup"]);
    for (k, name) in [(0usize, "LPDDR4-3200"), (1, "DDR4-2400")] {
        let base_idx = k * mechs.len();
        let sp_cache: Vec<f64> = reports
            .chunks(2 * mechs.len())
            .map(|c| speedup1(&c[base_idx + 1], &c[base_idx]))
            .collect();
        let sp_comb: Vec<f64> = reports
            .chunks(2 * mechs.len())
            .map(|c| speedup1(&c[base_idx + 2], &c[base_idx]))
            .collect();
        tab.row(vec![
            name.to_string(),
            format!("{:.3}", geomean(&sp_cache)),
            format!("{:.3}", geomean(&sp_comb)),
        ]);
    }
    let mut out = heading("Ablation: DRAM standard (CROW on LPDDR4 vs DDR4)");
    out.push_str(&tab.render());
    out.push_str(
        "\n(DDR4's shorter tRCD/tRAS and 64 ms refresh window shrink both of\n\
         CROW's targets, so gains are smaller but remain positive)\n",
    );
    out.push_str(&camp.finish());
    out
}

/// Address-interleaving ablation.
pub fn mapping(scale: Scale) -> String {
    use crow_dram::MapScheme;
    let apps = fig_apps();
    let schemes = [
        ("RoBaRaCoCh", MapScheme::RoBaRaCoCh),
        ("RoRaBaChCo", MapScheme::RoRaBaChCo),
    ];
    let mut camp = FigCampaign::new("ablation_mapping", scale);
    let mut jobs = Vec::new();
    for &app in &apps {
        for &(name, s) in &schemes {
            jobs.push((format!("{}/{name}", app.name), (app, s)));
        }
    }
    let reports = camp.run(jobs, |&(app, scheme), scale| {
        let mut cfg = SystemConfig::paper_default(Mechanism::Baseline);
        cfg.scheme = scheme;
        Ok(run_with_config(cfg, &[app], scale))
    });
    let mut tab = Table::new(vec!["scheme", "geomean IPC vs RoBaRaCoCh"]);
    for (k, (name, _)) in schemes.iter().enumerate() {
        let ratios: Vec<f64> = reports
            .chunks(schemes.len())
            .map(|c| c[k].ipc[0] / c[0].ipc[0])
            .collect();
        tab.row(vec![
            (*name).to_string(),
            format!("{:.3}", geomean(&ratios)),
        ]);
    }
    let mut out = heading("Ablation: address interleaving (baseline DRAM)");
    out.push_str(&tab.render());
    out.push_str(&camp.finish());
    out
}

#[cfg(test)]
mod tests {

    #[test]
    fn sharing_table_math_in_report() {
        // Static part of the sharing report: storage shrinks with factor.
        let a = crow_core::overhead::crow_table_storage(512, 2, 8, 1024);
        let b = crow_core::overhead::crow_table_storage(512, 2, 8, 256);
        assert!(b.total_bits * 4 == a.total_bits);
    }
}
