//! Canned experiment runners shared by the per-figure harness binaries.

use crow_workloads::AppProfile;

use crate::config::{Mechanism, SystemConfig};
use crate::error::CrowError;
use crate::report::SimReport;
use crate::system::System;

/// Simulation scale knobs, overridable from the environment:
///
/// * `CROW_INSTS` — instructions per core (default 400 000);
/// * `CROW_WARMUP` — functional warmup instructions (default 50 000);
/// * `CROW_MIXES` — mixes per four-core group (default 3, paper uses 20);
/// * `CROW_SAMPLE` (+ `CROW_SAMPLE_WINDOW`/`_WARMUP`/`_FF`) — interval
///   sampling with per-window confidence intervals (default off); see
///   [`crate::sampling::SamplePlan::from_env`].
///
/// The paper simulates 200 M instructions per app; the defaults keep a
/// full figure regeneration in the minutes range while preserving the
/// relative behaviour (see `EXPERIMENTS.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Instructions each core must retire.
    pub insts: u64,
    /// Functional warmup instructions per core.
    pub warmup: u64,
    /// Mixes per multi-core group.
    pub mixes_per_group: usize,
    /// Hard cap on simulated CPU cycles.
    pub max_cycles: u64,
    /// Ignored by the simulator. It stays only because the benchmark
    /// still uses it, and goes with the next change to the benchmark.
    pub threads: u32,
    /// Interval-sampling schedule (`None` = full detailed runs); see
    /// [`crate::sampling::SamplePlan`] and the `CROW_SAMPLE*` knobs.
    pub sample: Option<crate::sampling::SamplePlan>,
}

impl Scale {
    /// The default evaluation scale (env-overridable).
    ///
    /// A malformed override (`CROW_INSTS=4OO000`) is a configuration
    /// error, not a silent fallback to the default — quietly running a
    /// figure at the wrong scale is worse than refusing to start.
    pub fn from_env() -> Result<Self, CrowError> {
        Self::from_lookup(|k| std::env::var(k).ok())
    }

    /// [`Scale::from_env`] against an arbitrary variable lookup, so the
    /// parsing is testable without mutating process-global state.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, CrowError> {
        let get = |k: &str, d: u64| -> Result<u64, CrowError> {
            match lookup(k) {
                None => Ok(d),
                Some(v) => v.trim().parse().map_err(|_| {
                    CrowError::Config(crow_dram::ConfigError::new(
                        "Scale",
                        format!("{k}={v:?} is not an unsigned integer"),
                    ))
                }),
            }
        };
        let scale = Self {
            insts: get("CROW_INSTS", 400_000)?,
            warmup: get("CROW_WARMUP", 50_000)?,
            mixes_per_group: get("CROW_MIXES", 3)? as usize,
            max_cycles: get("CROW_MAX_CYCLES", 2_000_000_000)?,
            threads: 1,
            sample: crate::sampling::SamplePlan::from_lookup(&lookup)?,
        };
        // A zero count is as malformed as a non-number: zero mixes
        // would average an empty group into NaN speedups.
        for (k, v) in [
            ("CROW_INSTS", scale.insts),
            ("CROW_MIXES", scale.mixes_per_group as u64),
        ] {
            if v == 0 {
                return Err(CrowError::Config(crow_dram::ConfigError::new(
                    "Scale",
                    format!("{k} must be positive"),
                )));
            }
        }
        Ok(scale)
    }

    /// A tiny scale for integration tests.
    pub fn tiny() -> Self {
        Self {
            insts: 30_000,
            warmup: 5_000,
            mixes_per_group: 1,
            max_cycles: 50_000_000,
            threads: 1,
            sample: None,
        }
    }

    /// A stable text fingerprint of the scale, embedded in campaign
    /// journal fingerprints so changing the scale invalidates journaled
    /// results instead of silently reusing them. A sampling plan changes
    /// what a run reports, so it joins the fingerprint (and full runs
    /// keep their historical fingerprints).
    pub fn fingerprint(&self) -> String {
        let mut fp = format!(
            "i{}w{}m{}c{}",
            self.insts, self.warmup, self.mixes_per_group, self.max_cycles
        );
        if let Some(p) = &self.sample {
            fp.push_str("/s");
            fp.push_str(&p.fingerprint());
        }
        fp
    }
}

/// Runs one application alone on the paper platform under `mechanism`.
pub fn run_single(app: &AppProfile, mechanism: Mechanism, scale: Scale) -> SimReport {
    let cfg = SystemConfig::paper_default(mechanism);
    run_with_config(cfg, &[app], scale)
}

/// Runs a four-application mix on the paper platform.
pub fn run_mix(apps: &[&AppProfile], mechanism: Mechanism, scale: Scale) -> SimReport {
    let cfg = SystemConfig::paper_default(mechanism);
    run_with_config(cfg, apps, scale)
}

/// Runs an explicit configuration (density/LLC/prefetcher sweeps).
pub fn run_with_config(mut cfg: SystemConfig, apps: &[&AppProfile], scale: Scale) -> SimReport {
    cfg.cpu.target_insts = scale.insts;
    cfg.sample = scale.sample;
    let mut sys = System::new(cfg, apps);
    if scale.warmup > 0 {
        sys.warm(scale.warmup);
    }
    sys.run(scale.max_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_defaults() {
        let s = Scale::from_lookup(|_| None).unwrap();
        assert!(s.insts > 0 && s.warmup < s.insts * 10);
        assert_eq!(s.insts, 400_000);
    }

    #[test]
    fn scale_rejects_malformed_overrides() {
        // The motivating typo: O (letter) for 0 (digit).
        let err = Scale::from_lookup(|k| (k == "CROW_INSTS").then(|| "4OO000".into()))
            .unwrap_err()
            .to_string();
        assert!(err.contains("CROW_INSTS"), "names the variable: {err}");
        assert!(err.contains("4OO000"), "echoes the bad value: {err}");
        assert!(Scale::from_lookup(|k| (k == "CROW_MIXES").then(|| "-1".into())).is_err());
        assert!(Scale::from_lookup(|k| (k == "CROW_INSTS").then(|| "0".into())).is_err());
        let ok = Scale::from_lookup(|k| (k == "CROW_WARMUP").then(|| " 1000 ".into())).unwrap();
        assert_eq!(ok.warmup, 1000, "surrounding whitespace is tolerated");
    }

    #[test]
    fn scale_parses_count_knobs_strictly() {
        // Zero mixes would average an empty group into NaN speedups, so
        // it is a configuration error like any malformed value.
        let err = Scale::from_lookup(|k| (k == "CROW_MIXES").then(|| "0".into()))
            .expect_err("CROW_MIXES=0 must be rejected")
            .to_string();
        assert!(err.contains("CROW_MIXES"), "names the variable: {err}");
    }

    #[test]
    fn scale_fingerprint_is_stable_and_distinct() {
        let a = Scale::tiny();
        let mut b = a;
        b.insts += 1;
        assert_eq!(a.fingerprint(), Scale::tiny().fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn scale_sampling_knobs_parse_and_join_the_fingerprint() {
        let s = Scale::from_lookup(|_| None).unwrap();
        assert_eq!(s.sample, None, "sampling defaults off");
        let s =
            Scale::from_lookup(|k| (k == "CROW_SAMPLE").then(|| "5000:2500:42500".into())).unwrap();
        let p = s.sample.expect("plan parsed");
        assert_eq!(p.window_insts, 5000);
        // Sampled and full runs must never collide in a journal.
        let mut full = Scale::tiny();
        let mut sampled = Scale::tiny();
        sampled.sample = Some(p);
        assert_ne!(full.fingerprint(), sampled.fingerprint());
        assert!(sampled.fingerprint().ends_with("/sw5000h2500f42500"));
        // Full runs keep their historical fingerprints.
        full.sample = None;
        assert_eq!(full.fingerprint(), "i30000w5000m1c50000000");
        // Malformed sampling knobs are configuration errors here too.
        assert!(Scale::from_lookup(|k| (k == "CROW_SAMPLE").then(|| "nope".into())).is_err());
        assert!(Scale::from_lookup(|k| (k == "CROW_SAMPLE_WINDOW").then(|| "x".into())).is_err());
    }

    #[test]
    fn single_run_on_tiny_scale() {
        // Uses the full paper platform but a tiny instruction budget.
        let app = AppProfile::by_name("gcc").unwrap();
        let r = run_single(app, Mechanism::Baseline, Scale::tiny());
        assert!(r.finished);
        assert!(r.ipc[0] > 0.0);
    }
}
