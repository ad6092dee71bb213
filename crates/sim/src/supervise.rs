//! Process-isolated job execution for the simulation service: child
//! sandboxes, hard kills, circuit breakers, and crash-loop backoff.
//!
//! PR 6's `crow-serve` runs jobs as `catch_unwind` threads inside the
//! server process. That contains panics, but three failure classes leak
//! through a thread boundary by construction:
//!
//! * a **wedged** attempt is merely *abandoned* — its thread keeps
//!   burning a core until the process exits;
//! * a **runaway allocation** is shared-fate — the kernel OOM-kills the
//!   whole server, healthy jobs included;
//! * a **corrupting** job shares an address space with every other job.
//!
//! [`Supervisor`] restores real fault containment by re-exec'ing the
//! server binary as a sandboxed child per attempt (`crow-serve
//! --job-runner <parent-pid>`): the parent writes one job spec to the
//! child's stdin, the child runs it through the ordinary single-job
//! [`Campaign`] machinery and writes a result envelope to stdout, and
//! the parent polls `try_wait` while enforcing the job deadline and an
//! RSS cap read from `/proc/<pid>/statm` — breaching either gets the
//! child SIGKILLed and reaped, so wedged and memory-bomb jobs actually
//! *die*.
//!
//! On top of the process boundary sit two service-protection layers:
//!
//! * **per-fingerprint circuit breakers** ([`Breakers`]): K consecutive
//!   child crashes/kills for one fingerprint open the breaker; further
//!   duplicates are answered with a structured `quarantined` error for
//!   the cooldown, then a single half-open probe decides between
//!   closing the breaker and re-opening it. A poison job cannot occupy
//!   the worker pool in a crash loop.
//! * **exponential crash-loop backoff with jitter**: a worker slot that
//!   just reaped a crashed child waits `base * 2^crashes` (capped,
//!   jittered ±50%) before the retry attempt, so a crash storm cannot
//!   re-spawn children as fast as the kernel can reap them.
//!
//! The hosting binary must dispatch `--job-runner` to
//! [`job_runner_main`] before any other argument parsing (`crow-serve`
//! does); embedders that cannot rearrange their `main` point
//! [`SuperviseConfig::runner_exe`] at a binary that does.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng as _, SeedableRng as _};

use crate::campaign::{fnv1a64, Campaign, CampaignPolicy, Journaled as _, OutcomeKind};
use crate::error::CrowError;
use crate::experiments::Scale;
use crate::json::Json;
use crate::server::SimJob;

fn sup_err(reason: String) -> CrowError {
    CrowError::Config(crow_dram::ConfigError::new("SuperviseConfig", reason))
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// --- configuration ----------------------------------------------------

/// Where an accepted job executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationMode {
    /// In-process `catch_unwind` worker threads (PR 6 behavior, the
    /// default): cheapest, but wedged attempts linger and a runaway
    /// allocation is shared-fate.
    Thread,
    /// One sandboxed child process per attempt, hard-killed on deadline
    /// or RSS-cap breach, with circuit breakers and crash-loop backoff.
    Process,
}

impl IsolationMode {
    /// Stable wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            IsolationMode::Thread => "thread",
            IsolationMode::Process => "process",
        }
    }
}

/// Supervision knobs (env-overridable; see
/// [`SuperviseConfig::from_lookup`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SuperviseConfig {
    /// Job execution substrate (`CROW_SERVE_ISOLATION=process|thread`,
    /// default thread).
    pub isolation: IsolationMode,
    /// Child RSS cap in bytes; breach is a SIGKILL with a structured
    /// `resource-limit` error (`CROW_SERVE_RSS_MB`, default 4096 MiB;
    /// 0 disables the cap).
    pub rss_cap: Option<u64>,
    /// Consecutive child crashes/kills of one fingerprint that open its
    /// circuit breaker (`CROW_SERVE_BREAKER_K`, default 3; 0 disables
    /// the breaker).
    pub breaker_k: u32,
    /// How long an open breaker quarantines duplicates before allowing
    /// a half-open probe (`CROW_SERVE_BREAKER_COOLDOWN_SECS`, default
    /// 30 s).
    pub breaker_cooldown: Duration,
    /// Crash-loop backoff base: a retry after `n` consecutive child
    /// crashes waits `base * 2^(n-1)` (capped, jittered) before the
    /// slot refills.
    pub backoff_base: Duration,
    /// Ceiling of the exponential backoff.
    pub backoff_cap: Duration,
    /// The binary to re-exec as the job runner; `None` uses
    /// `current_exe()` (correct for `crow-serve`, which dispatches
    /// `--job-runner` before its own argument parsing).
    pub runner_exe: Option<PathBuf>,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        Self {
            isolation: IsolationMode::Thread,
            rss_cap: Some(4096 << 20),
            breaker_k: 3,
            breaker_cooldown: Duration::from_secs(30),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            runner_exe: None,
        }
    }
}

impl SuperviseConfig {
    /// Reads the knobs from the environment on top of the defaults.
    /// Malformed values are configuration errors, never silent defaults.
    pub fn from_env() -> Result<Self, CrowError> {
        Self::from_lookup(|k| std::env::var(k).ok())
    }

    /// [`SuperviseConfig::from_env`] against an arbitrary lookup
    /// (testable without mutating process-global state).
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, CrowError> {
        let mut c = Self::default();
        if let Some(v) = lookup("CROW_SERVE_ISOLATION") {
            c.isolation = match v.trim() {
                "process" => IsolationMode::Process,
                "thread" => IsolationMode::Thread,
                _ => {
                    return Err(sup_err(format!(
                        "CROW_SERVE_ISOLATION={v:?} must be \"process\" or \"thread\""
                    )))
                }
            };
        }
        let uint = |k: &str| -> Result<Option<u64>, CrowError> {
            match lookup(k) {
                None => Ok(None),
                Some(v) => v
                    .trim()
                    .parse()
                    .map(Some)
                    .map_err(|_| sup_err(format!("{k}={v:?} is not an unsigned integer"))),
            }
        };
        if let Some(mb) = uint("CROW_SERVE_RSS_MB")? {
            c.rss_cap = (mb > 0).then_some(mb << 20);
        }
        if let Some(k) = uint("CROW_SERVE_BREAKER_K")? {
            c.breaker_k = u32::try_from(k)
                .map_err(|_| sup_err("CROW_SERVE_BREAKER_K does not fit in 32 bits".into()))?;
        }
        if let Some(v) = lookup("CROW_SERVE_BREAKER_COOLDOWN_SECS") {
            let s: f64 = v.trim().parse().map_err(|_| {
                sup_err(format!(
                    "CROW_SERVE_BREAKER_COOLDOWN_SECS={v:?} is not a number of seconds"
                ))
            })?;
            if !(s >= 0.0 && s.is_finite()) {
                return Err(sup_err(format!(
                    "CROW_SERVE_BREAKER_COOLDOWN_SECS={v:?} must be a finite non-negative number"
                )));
            }
            c.breaker_cooldown = Duration::from_secs_f64(s);
        }
        Ok(c)
    }
}

// --- circuit breakers -------------------------------------------------

/// One breaker's position in the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Failures below K: requests run normally.
    Closed,
    /// K consecutive failures: duplicates quarantined until cooldown.
    Open,
    /// Cooldown elapsed: exactly one probe runs; its outcome decides.
    HalfOpen,
}

impl BreakerState {
    /// Stable wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

#[derive(Debug)]
struct BreakerEntry {
    state: BreakerState,
    consecutive: u32,
    open_until: Instant,
    probing: bool,
}

/// What [`Breakers::admit`] decided for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Breaker closed (or disabled): run normally.
    Run,
    /// Breaker half-open and this request won the probe slot: run, and
    /// the outcome moves the breaker. The caller must end the probe via
    /// `record_success`/`record_failure`/`release_probe`.
    Probe,
    /// Breaker open (or a probe is already in flight): answer with a
    /// structured `quarantined` error instead of running.
    Quarantined {
        /// Conservative wait before a retry can be admitted.
        retry_after: Duration,
    },
}

/// Per-fingerprint circuit breakers.
///
/// State machine per fingerprint: `Closed` --K consecutive child
/// crashes/kills--> `Open` --cooldown--> `HalfOpen` --probe success-->
/// `Closed` (entry dropped) / --probe failure--> `Open` again.
/// Structured job failures (the child ran fine and reported an error)
/// never count: the breaker protects against *process-level* poison,
/// not unsatisfiable requests.
#[derive(Debug)]
pub struct Breakers {
    k: u32,
    cooldown: Duration,
    entries: Mutex<HashMap<String, BreakerEntry>>,
}

/// One breaker's externally visible state (health reporting).
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerInfo {
    /// The fingerprint the breaker guards.
    pub fingerprint: String,
    /// Current state (open entries past cooldown report half-open).
    pub state: BreakerState,
    /// Consecutive countable failures recorded.
    pub consecutive: u32,
    /// Remaining quarantine, zero unless open.
    pub retry_after: Duration,
}

impl Breakers {
    /// Breakers opening after `k` consecutive failures (0 disables) and
    /// quarantining for `cooldown`.
    pub fn new(k: u32, cooldown: Duration) -> Self {
        Self {
            k,
            cooldown,
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// The configured failure threshold.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Gate one request for `fp`.
    pub fn admit(&self, fp: &str) -> Admit {
        if self.k == 0 {
            return Admit::Run;
        }
        let mut m = lock(&self.entries);
        let Some(e) = m.get_mut(fp) else {
            return Admit::Run;
        };
        match e.state {
            BreakerState::Closed => Admit::Run,
            BreakerState::Open => {
                let now = Instant::now();
                if now >= e.open_until {
                    e.state = BreakerState::HalfOpen;
                    e.probing = true;
                    Admit::Probe
                } else {
                    Admit::Quarantined {
                        retry_after: e.open_until - now,
                    }
                }
            }
            BreakerState::HalfOpen => {
                if e.probing {
                    Admit::Quarantined {
                        retry_after: self.cooldown,
                    }
                } else {
                    e.probing = true;
                    Admit::Probe
                }
            }
        }
    }

    /// Records one countable failure (child crash, deadline kill, RSS
    /// kill). Returns whether the breaker is open afterwards.
    pub fn record_failure(&self, fp: &str) -> bool {
        if self.k == 0 {
            return false;
        }
        let mut m = lock(&self.entries);
        let e = m.entry(fp.to_string()).or_insert(BreakerEntry {
            state: BreakerState::Closed,
            consecutive: 0,
            open_until: Instant::now(),
            probing: false,
        });
        e.consecutive += 1;
        match e.state {
            BreakerState::Closed if e.consecutive < self.k => false,
            // Threshold reached, probe failed, or already open: (re)open.
            _ => {
                e.state = BreakerState::Open;
                e.open_until = Instant::now() + self.cooldown;
                e.probing = false;
                true
            }
        }
    }

    /// Records a success: the breaker closes and its entry is dropped.
    pub fn record_success(&self, fp: &str) {
        lock(&self.entries).remove(fp);
    }

    /// Returns a held probe slot without deciding the breaker (the
    /// probe ended without process-level evidence: cache hit, spawn
    /// failure, or a structured job error).
    pub fn release_probe(&self, fp: &str) {
        if let Some(e) = lock(&self.entries).get_mut(fp) {
            if e.state == BreakerState::HalfOpen {
                e.probing = false;
            }
        }
    }

    /// All live breaker entries (health reporting).
    pub fn snapshot(&self) -> Vec<BreakerInfo> {
        let now = Instant::now();
        let mut out: Vec<BreakerInfo> = lock(&self.entries)
            .iter()
            .map(|(fp, e)| BreakerInfo {
                fingerprint: fp.clone(),
                state: e.state,
                consecutive: e.consecutive,
                retry_after: match e.state {
                    BreakerState::Open => e.open_until.saturating_duration_since(now),
                    _ => Duration::ZERO,
                },
            })
            .collect();
        out.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
        out
    }
}

// --- the supervisor ---------------------------------------------------

/// Cumulative child-process counters (monotonic over the server's
/// lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupCounters {
    /// Children spawned.
    pub spawned: u64,
    /// Children SIGKILLed at the job deadline.
    pub killed_deadline: u64,
    /// Children SIGKILLed over the RSS cap.
    pub killed_rss: u64,
    /// Children that exited abnormally (or produced garbage).
    pub crashes: u64,
    /// Retry attempts beyond the first, across all jobs.
    pub retries: u64,
}

/// One live child (health reporting).
#[derive(Debug, Clone, PartialEq)]
pub struct ChildSnapshot {
    /// OS process id.
    pub pid: u32,
    /// The fingerprint the child is executing.
    pub fingerprint: String,
    /// Time since spawn.
    pub elapsed: Duration,
}

#[derive(Debug)]
struct ChildInfo {
    fingerprint: String,
    started: Instant,
}

/// The terminal outcome of one supervised (multi-attempt) execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SupOutcome {
    /// How the job ended.
    pub kind: OutcomeKind,
    /// Attempts executed (spawned children).
    pub attempts: u32,
    /// The last failure message, for failed jobs.
    pub error: Option<String>,
    /// The child-produced report document, for successful jobs.
    pub report: Option<Json>,
}

/// How one child run ended, before retry policy is applied.
enum ChildEnd {
    /// Exit 0 with a well-formed result envelope.
    Output(Json),
    /// Abnormal exit, or exit 0 without a parseable envelope.
    Crash(String),
    /// SIGKILLed at the deadline.
    KilledDeadline(Duration),
    /// SIGKILLed over the RSS cap.
    KilledRss { rss_mib: u64, cap_mib: u64 },
    /// The child could not be spawned at all (not the job's fault).
    Spawn(String),
}

/// How often the parent polls a live child (exit, deadline, RSS).
const CHILD_POLL: Duration = Duration::from_millis(10);

/// Supervises sandboxed child processes for the serve worker pool (see
/// the module docs).
#[derive(Debug)]
pub struct Supervisor {
    cfg: SuperviseConfig,
    exe: PathBuf,
    /// The parent pid, passed as the child's second argument so leaked
    /// children are attributable to one server instance (`supervise_gate`
    /// scans `/proc/*/cmdline` for it).
    tag: String,
    children: Mutex<HashMap<u32, ChildInfo>>,
    breakers: Breakers,
    spawned: AtomicU64,
    killed_deadline: AtomicU64,
    killed_rss: AtomicU64,
    crashes: AtomicU64,
    retries: AtomicU64,
}

impl Supervisor {
    /// Builds a supervisor, resolving the runner executable.
    pub fn new(cfg: SuperviseConfig) -> Result<Self, CrowError> {
        let exe = match &cfg.runner_exe {
            Some(p) => p.clone(),
            None => std::env::current_exe()
                .map_err(|e| sup_err(format!("cannot resolve current_exe: {e}")))?,
        };
        Ok(Self {
            breakers: Breakers::new(cfg.breaker_k, cfg.breaker_cooldown),
            cfg,
            exe,
            tag: std::process::id().to_string(),
            children: Mutex::new(HashMap::new()),
            spawned: AtomicU64::new(0),
            killed_deadline: AtomicU64::new(0),
            killed_rss: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        })
    }

    /// The per-fingerprint circuit breakers.
    pub fn breakers(&self) -> &Breakers {
        &self.breakers
    }

    /// Cumulative counters.
    pub fn counters(&self) -> SupCounters {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        SupCounters {
            spawned: g(&self.spawned),
            killed_deadline: g(&self.killed_deadline),
            killed_rss: g(&self.killed_rss),
            crashes: g(&self.crashes),
            retries: g(&self.retries),
        }
    }

    /// Children alive right now.
    pub fn live_children(&self) -> Vec<ChildSnapshot> {
        let now = Instant::now();
        let mut out: Vec<ChildSnapshot> = lock(&self.children)
            .iter()
            .map(|(&pid, c)| ChildSnapshot {
                pid,
                fingerprint: c.fingerprint.clone(),
                elapsed: now.saturating_duration_since(c.started),
            })
            .collect();
        out.sort_by_key(|c| c.pid);
        out
    }

    /// Executes one job to a terminal outcome: spawn a child per
    /// attempt, enforce deadline and RSS cap with SIGKILL, apply the
    /// degrade-ladder retry policy with crash-loop backoff, and keep the
    /// fingerprint's circuit breaker posted. The caller has already
    /// passed [`Breakers::admit`]; this method ends any held probe.
    pub fn execute(&self, fp: &str, job: &SimJob, policy: &CampaignPolicy) -> SupOutcome {
        let mut attempt: u32 = 0;
        let mut crashes: u32 = 0;
        loop {
            let scale = policy.scale_for_attempt(attempt);
            let spec = runner_spec(job, scale, attempt);
            let end = self.run_child(fp, &spec, policy.timeout);
            let (kind, err, countable) = match end {
                ChildEnd::Output(env) => {
                    if env.get("ok").and_then(Json::as_bool) == Some(true) {
                        match env.get("report") {
                            Some(report) => {
                                self.breakers.record_success(fp);
                                let kind = if scale == policy.scale {
                                    OutcomeKind::Ok
                                } else {
                                    OutcomeKind::Degraded
                                };
                                return SupOutcome {
                                    kind,
                                    attempts: attempt + 1,
                                    error: None,
                                    report: Some(report.clone()),
                                };
                            }
                            None => {
                                self.crashes.fetch_add(1, Ordering::Relaxed);
                                (
                                    OutcomeKind::Panicked,
                                    "crash: child result envelope has no report".to_string(),
                                    true,
                                )
                            }
                        }
                    } else {
                        // A structured failure: the child process worked;
                        // the job itself errored. Retryable, but not
                        // breaker evidence.
                        let msg = env
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("child reported an unspecified error");
                        (OutcomeKind::Panicked, format!("error: {msg}"), false)
                    }
                }
                ChildEnd::Crash(detail) => {
                    self.crashes.fetch_add(1, Ordering::Relaxed);
                    (OutcomeKind::Panicked, format!("crash: {detail}"), true)
                }
                ChildEnd::KilledDeadline(d) => (
                    OutcomeKind::TimedOut,
                    format!("deadline: child exceeded {d:?} (SIGKILL)"),
                    true,
                ),
                ChildEnd::KilledRss { rss_mib, cap_mib } => (
                    OutcomeKind::Panicked,
                    CrowError::ResourceLimit { rss_mib, cap_mib }.to_string(),
                    true,
                ),
                ChildEnd::Spawn(e) => {
                    self.breakers.release_probe(fp);
                    return SupOutcome {
                        kind: OutcomeKind::Panicked,
                        attempts: attempt + 1,
                        error: Some(format!("spawn: {e}")),
                        report: None,
                    };
                }
            };
            let opened = if countable {
                crashes += 1;
                self.breakers.record_failure(fp)
            } else {
                false
            };
            if opened {
                // Stop retrying a poison fingerprint the moment its
                // breaker opens; duplicates are now quarantined at
                // admission.
                return SupOutcome {
                    kind,
                    attempts: attempt + 1,
                    error: Some(format!(
                        "{err}; circuit breaker opened after {} consecutive child failure(s)",
                        self.breakers.k()
                    )),
                    report: None,
                };
            }
            if attempt >= policy.max_retries {
                if !countable {
                    self.breakers.release_probe(fp);
                }
                return SupOutcome {
                    kind,
                    attempts: attempt + 1,
                    error: Some(err),
                    report: None,
                };
            }
            attempt += 1;
            self.retries.fetch_add(1, Ordering::Relaxed);
            self.backoff(fp, attempt, crashes);
        }
    }

    /// Crash-loop backoff before a retry: exponential in the number of
    /// consecutive child crashes, capped, and jittered to ±50% so a
    /// storm of identical poison jobs decorrelates.
    fn backoff(&self, fp: &str, attempt: u32, crashes: u32) {
        let exp = crashes.max(attempt).saturating_sub(1).min(10);
        let raw = self.cfg.backoff_base.saturating_mul(1 << exp);
        let capped = raw.min(self.cfg.backoff_cap);
        let seed = fnv1a64(
            format!(
                "{fp}/{attempt}/{}/{}",
                self.tag,
                self.spawned.load(Ordering::Relaxed)
            )
            .as_bytes(),
        );
        let jitter = StdRng::seed_from_u64(seed).gen_range(0.5..1.5);
        std::thread::sleep(capped.mul_f64(jitter));
    }

    /// Spawns, feeds, watches, and reaps one child.
    fn run_child(&self, fp: &str, spec: &str, deadline: Option<Duration>) -> ChildEnd {
        let mut cmd = Command::new(&self.exe);
        cmd.arg("--job-runner")
            .arg(&self.tag)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(e) => return ChildEnd::Spawn(e.to_string()),
        };
        self.spawned.fetch_add(1, Ordering::Relaxed);
        let pid = child.id();
        lock(&self.children).insert(
            pid,
            ChildInfo {
                fingerprint: fp.to_string(),
                started: Instant::now(),
            },
        );
        let end = self.watch(&mut child, spec, deadline);
        lock(&self.children).remove(&pid);
        end
    }

    /// The per-child supervision loop. On every return path the child
    /// has been reaped (`wait`), so no zombie survives.
    fn watch(&self, child: &mut Child, spec: &str, deadline: Option<Duration>) -> ChildEnd {
        // The stdout reader must exist before the child can fill the
        // pipe, or a chatty child deadlocks against our try_wait loop.
        let reader = child.stdout.take().map(|mut out| {
            std::thread::spawn(move || {
                let mut text = String::new();
                let _ = out.read_to_string(&mut text);
                text
            })
        });
        let drain = |r: Option<std::thread::JoinHandle<String>>| {
            r.and_then(|h| h.join().ok()).unwrap_or_default()
        };
        if let Some(mut stdin) = child.stdin.take() {
            // A write failure means the child died instantly; its exit
            // status tells that story better than the EPIPE would.
            let _ = stdin.write_all(spec.as_bytes());
            let _ = stdin.write_all(b"\n");
        }
        let started = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) => {}
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    drain(reader);
                    return ChildEnd::Crash(format!("wait failed: {e}"));
                }
            }
            if let Some(d) = deadline {
                if started.elapsed() >= d {
                    let _ = child.kill(); // SIGKILL on unix.
                    let _ = child.wait(); // Reap; no zombie.
                    drain(reader);
                    self.killed_deadline.fetch_add(1, Ordering::Relaxed);
                    return ChildEnd::KilledDeadline(d);
                }
            }
            if let Some(cap) = self.cfg.rss_cap {
                if let Some(rss) = rss_bytes(child.id()) {
                    if rss > cap {
                        let _ = child.kill();
                        let _ = child.wait();
                        drain(reader);
                        self.killed_rss.fetch_add(1, Ordering::Relaxed);
                        return ChildEnd::KilledRss {
                            rss_mib: rss >> 20,
                            cap_mib: cap >> 20,
                        };
                    }
                }
            }
            std::thread::sleep(CHILD_POLL);
        };
        let out = drain(reader);
        if !status.success() {
            return ChildEnd::Crash(format!("child exited abnormally ({status})"));
        }
        let envelope = out
            .lines()
            .find(|l| !l.trim().is_empty())
            .and_then(|l| Json::parse(l).ok());
        match envelope {
            Some(env) if env.get("v").and_then(Json::as_u64) == Some(1) => ChildEnd::Output(env),
            _ => ChildEnd::Crash("child exited 0 without a result envelope".into()),
        }
    }
}

/// Resident set size of `pid` in bytes, from `/proc/<pid>/statm`
/// (field 2 is resident pages; Linux pages are 4 KiB on every platform
/// this workspace targets). `None` on non-Linux hosts or a raced exit —
/// the cap is then simply not enforced for that poll tick.
fn rss_bytes(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/statm")).ok()?;
    let resident: u64 = text.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident * 4096)
}

/// The one-line job spec the parent writes to a child's stdin.
fn runner_spec(job: &SimJob, scale: Scale, attempt: u32) -> String {
    Json::obj(vec![
        ("v", Json::u64(1)),
        ("attempt", Json::u64(u64::from(attempt))),
        ("insts", Json::u64(scale.insts)),
        ("warmup", Json::u64(scale.warmup)),
        ("job", job.to_json()),
    ])
    .render()
}

// --- the child side ---------------------------------------------------

/// Entry point of the sandboxed job runner (`crow-serve --job-runner`):
/// reads one job spec line from stdin, runs it through a single-job
/// [`Campaign`], writes the result envelope to stdout, and exits.
/// Deadlines and resource caps are the *parent's* job (SIGKILL); the
/// child itself runs the attempt unbounded.
pub fn job_runner_main() -> ! {
    match run_spec_from_stdin() {
        Ok(envelope) => {
            println!("{envelope}");
            let _ = std::io::stdout().flush();
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("crow-serve --job-runner: {msg}");
            std::process::exit(3);
        }
    }
}

fn run_spec_from_stdin() -> Result<String, String> {
    let mut line = String::new();
    std::io::stdin()
        .read_line(&mut line)
        .map_err(|e| format!("stdin: {e}"))?;
    let spec = Json::parse(line.trim()).map_err(|e| format!("spec is not JSON: {e}"))?;
    if spec.get("v").and_then(Json::as_u64) != Some(1) {
        return Err("spec: unsupported version".into());
    }
    let field = |k: &str| -> Result<u64, String> {
        spec.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("spec: missing or non-integer {k:?}"))
    };
    let (attempt, insts, warmup) = (field("attempt")?, field("insts")?, field("warmup")?);
    let job = spec
        .get("job")
        .and_then(SimJob::from_json)
        .ok_or("spec: malformed job document")?;
    if let Some(chaos) = job.chaos.clone() {
        apply_chaos(&chaos, attempt);
    }
    let scale = Scale {
        insts,
        warmup,
        mixes_per_group: 1,
        max_cycles: u64::MAX,
        threads: 1,
        // The sampling plan rides the job document, not the envelope's
        // degrade ladder: a degraded attempt keeps the job's plan.
        sample: job.sample,
    };
    let mut policy = CampaignPolicy::new(scale);
    policy.max_retries = 0; // The parent owns the retry ladder.
    policy.timeout = None; // The parent owns the deadline (SIGKILL).
    policy.threads = 1;
    let mut camp = Campaign::ephemeral(&job.id, policy);
    let outcome = camp
        .run(vec![(job.fingerprint(), job)], |j: &SimJob, s| {
            crate::server::run_sim(j, s)
        })
        .into_iter()
        .next();
    let envelope = match outcome {
        Some(o) => match o.result {
            Some(r) => Json::obj(vec![
                ("v", Json::u64(1)),
                ("ok", Json::Bool(true)),
                ("report", r.encode()),
            ]),
            None => Json::obj(vec![
                ("v", Json::u64(1)),
                ("ok", Json::Bool(false)),
                (
                    "error",
                    Json::str(o.error.unwrap_or_else(|| "job produced no result".into())),
                ),
            ]),
        },
        None => Json::obj(vec![
            ("v", Json::u64(1)),
            ("ok", Json::Bool(false)),
            ("error", Json::str("campaign produced no outcome")),
        ]),
    };
    Ok(envelope.render())
}

/// Deliberate misbehavior for chaos testing, applied in the child only
/// (the server refuses chaos jobs unless `CROW_SERVE_CHAOS=1` *and*
/// isolation is `process`, so none of these can ever run in-process).
fn apply_chaos(kind: &str, attempt: u64) {
    match kind {
        "crash" => std::process::abort(),
        "crash-first" if attempt == 0 => std::process::abort(),
        "crash-first" => {}
        "wedge" => loop {
            std::thread::sleep(Duration::from_millis(50));
        },
        "bomb" => {
            let mut hoard: Vec<Vec<u8>> = Vec::new();
            loop {
                // Nonzero fill: zeroed allocations come from calloc'd
                // copy-on-write pages and would never grow the RSS.
                hoard.push(vec![0xA5u8; 8 << 20]);
                if hoard.len() >= 192 {
                    // 1.5 GiB absolute safety stop: if the parent's cap
                    // is somehow not enforced, wedge instead of taking
                    // the host down (the deadline still reaps us).
                    loop {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
                std::thread::sleep(Duration::from_millis(3));
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let b = Breakers::new(2, Duration::from_millis(50));
        assert_eq!(b.admit("fp"), Admit::Run);
        assert!(!b.record_failure("fp"), "below threshold stays closed");
        assert_eq!(b.admit("fp"), Admit::Run);
        assert!(b.record_failure("fp"), "K-th consecutive failure opens");
        match b.admit("fp") {
            Admit::Quarantined { retry_after } => {
                assert!(retry_after <= Duration::from_millis(50));
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(b.admit("fp"), Admit::Probe, "cooldown elapses to a probe");
        assert!(
            matches!(b.admit("fp"), Admit::Quarantined { .. }),
            "only one probe at a time"
        );
        assert!(b.record_failure("fp"), "failed probe re-opens");
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(b.admit("fp"), Admit::Probe);
        b.record_success("fp");
        assert_eq!(b.admit("fp"), Admit::Run, "success closes the breaker");
        assert!(b.snapshot().is_empty(), "closed entries are dropped");
    }

    #[test]
    fn breaker_released_probe_can_be_retaken() {
        let b = Breakers::new(1, Duration::from_millis(10));
        assert!(b.record_failure("fp"));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(b.admit("fp"), Admit::Probe);
        b.release_probe("fp");
        assert_eq!(b.admit("fp"), Admit::Probe, "released probe is retaken");
        let snap = b.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].state, BreakerState::HalfOpen);
    }

    #[test]
    fn breaker_is_per_fingerprint_and_disableable() {
        let b = Breakers::new(1, Duration::from_secs(60));
        assert!(b.record_failure("poison"));
        assert!(matches!(b.admit("poison"), Admit::Quarantined { .. }));
        assert_eq!(b.admit("healthy"), Admit::Run, "other fingerprints run");
        let off = Breakers::new(0, Duration::from_secs(60));
        for _ in 0..10 {
            assert!(!off.record_failure("fp"));
        }
        assert_eq!(off.admit("fp"), Admit::Run, "k=0 disables the breaker");
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let b = Breakers::new(3, Duration::from_secs(60));
        assert!(!b.record_failure("fp"));
        assert!(!b.record_failure("fp"));
        b.record_success("fp");
        assert!(!b.record_failure("fp"), "count restarted after success");
        assert!(!b.record_failure("fp"));
        assert!(b.record_failure("fp"));
    }

    #[test]
    fn supervise_config_lookup_is_strict() {
        let c = SuperviseConfig::from_lookup(|_| None).unwrap();
        assert_eq!(c.isolation, IsolationMode::Thread, "thread is the default");
        assert_eq!(c.rss_cap, Some(4096 << 20));
        assert_eq!(c.breaker_k, 3);
        let c = SuperviseConfig::from_lookup(|k| match k {
            "CROW_SERVE_ISOLATION" => Some("process".into()),
            "CROW_SERVE_RSS_MB" => Some("64".into()),
            "CROW_SERVE_BREAKER_K" => Some("5".into()),
            "CROW_SERVE_BREAKER_COOLDOWN_SECS" => Some("0.25".into()),
            _ => None,
        })
        .unwrap();
        assert_eq!(c.isolation, IsolationMode::Process);
        assert_eq!(c.rss_cap, Some(64 << 20));
        assert_eq!(c.breaker_k, 5);
        assert_eq!(c.breaker_cooldown, Duration::from_millis(250));
        // 0 disables the cap and the breaker.
        let c = SuperviseConfig::from_lookup(|k| match k {
            "CROW_SERVE_RSS_MB" => Some("0".into()),
            "CROW_SERVE_BREAKER_K" => Some("0".into()),
            _ => None,
        })
        .unwrap();
        assert_eq!(c.rss_cap, None);
        assert_eq!(c.breaker_k, 0);
        for (k, v) in [
            ("CROW_SERVE_ISOLATION", "container"),
            ("CROW_SERVE_ISOLATION", "Process"),
            ("CROW_SERVE_RSS_MB", "lots"),
            ("CROW_SERVE_RSS_MB", "-1"),
            ("CROW_SERVE_BREAKER_K", "3.5"),
            ("CROW_SERVE_BREAKER_K", "99999999999"),
            ("CROW_SERVE_BREAKER_COOLDOWN_SECS", "NaN"),
            ("CROW_SERVE_BREAKER_COOLDOWN_SECS", "-2"),
        ] {
            let err = SuperviseConfig::from_lookup(|q| (q == k).then(|| v.into()))
                .expect_err(&format!("{k}={v} must be rejected"))
                .to_string();
            assert!(err.contains(k), "names the variable: {err}");
        }
    }

    #[test]
    fn runner_spec_roundtrips_through_the_child_parser() {
        let job = SimJob {
            id: "j1".into(),
            apps: vec!["mcf".into(), "gcc".into()],
            mechanism: "crow-8".into(),
            insts: 50_000,
            warmup: 1_000,
            seed: 7,
            density: 16,
            llc_mib: 4,
            channels: 2,
            prefetch: true,
            ddr4: false,
            validate: false,
            hammer: Some(("double".into(), 1000)),
            chaos: None,
            sample: Some(crate::sampling::SamplePlan::default_profile()),
        };
        let spec = runner_spec(&job, job.scale(), 2);
        let doc = Json::parse(&spec).unwrap();
        assert_eq!(doc.get("v").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("attempt").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("insts").unwrap().as_u64(), Some(50_000));
        let back = SimJob::from_json(doc.get("job").unwrap()).unwrap();
        assert_eq!(back, job);
    }
}
