//! Deterministic failpoints: seeded per-site error/panic/delay/abort
//! injection for exercising the *harness's own* failure handling.
//!
//! [`crate::faults`] injects faults into the simulated device; this
//! module injects faults into the machinery that runs simulations — the
//! work-stealing scheduler, the on-disk result cache — so the retry,
//! quarantine and resume paths can be driven deterministically in tests
//! and CI without mocking the filesystem or killing processes by hand.
//!
//! The same discipline applies as in `faults`: an absent or empty plan
//! is a no-op (one relaxed atomic load per consultation), and a firing
//! decision is a **pure function** of `(plan seed, site name, caller
//! key)` — no sequential RNG stream — so the set of fired sites is
//! bit-identical no matter how many worker threads interleave or in
//! which order jobs are claimed. Two runs with the same plan quarantine
//! exactly the same cells.
//!
//! Sites are consulted by name. The ones wired today:
//!
//! * [`SITE_SCHED_JOB`] — before each scheduler job attempt, keyed by
//!   the job's batch index.
//! * [`SITE_CACHE_STORE`] — before each on-disk cache store, keyed by
//!   the entry's content key.
//! * [`SITE_CACHE_LOAD`] — before each on-disk cache load, keyed by the
//!   entry's content key.
//!
//! Plans are installed programmatically with [`configure`] or parsed
//! from the `RLPM_FAILPOINTS` environment variable (see
//! [`plan_from_env`]) with a spec like:
//!
//! ```text
//! seed=7,sched/job=0.25:panic,cache/store=1:error,sched/job=@5:abort
//! ```
//!
//! `site=RATE:action` fires with probability `RATE` per key;
//! `site=@KEY:action` fires exactly on that key. Actions are `error`,
//! `panic`, `abort` and `delay:MS`.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Scheduler job site: consulted once per job attempt, keyed by the
/// job's index within its batch.
pub const SITE_SCHED_JOB: &str = "sched/job";
/// On-disk cache store site, keyed by the entry's content key.
pub const SITE_CACHE_STORE: &str = "cache/store";
/// On-disk cache load site, keyed by the entry's content key.
pub const SITE_CACHE_LOAD: &str = "cache/load";

/// Exit code used by [`FailpointAction::Abort`]: distinctive enough
/// that a kill-resume test can tell an injected abort from a real
/// failure.
pub const ABORT_EXIT_CODE: i32 = 86;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailpointAction {
    /// The caller simulates a typed failure on its fallible path (the
    /// scheduler treats it like a caught job panic; the cache treats it
    /// like an I/O error).
    Error,
    /// The caller raises a panic carrying the site name and key.
    Panic,
    /// The caller sleeps this many milliseconds, then proceeds
    /// normally — for exercising timeout/backoff paths.
    Delay(u64),
    /// The process exits immediately with [`ABORT_EXIT_CODE`],
    /// simulating a mid-sweep kill for crash-safety tests.
    Abort,
}

impl fmt::Display for FailpointAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailpointAction::Error => write!(f, "error"),
            FailpointAction::Panic => write!(f, "panic"),
            FailpointAction::Delay(ms) => write!(f, "delay:{ms}"),
            FailpointAction::Abort => write!(f, "abort"),
        }
    }
}

/// When a [`FailpointRule`] fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailpointTrigger {
    /// Fire when the seeded `(site, key)` hash lands below this
    /// probability. `0.0` never fires and never perturbs anything.
    Rate(f64),
    /// Fire exactly when the caller's key equals this value.
    Key(u64),
}

/// One `site → action` rule of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FailpointRule {
    /// The consultation site, e.g. [`SITE_SCHED_JOB`].
    pub site: String,
    /// When the rule fires.
    pub trigger: FailpointTrigger,
    /// What happens when it does.
    pub action: FailpointAction,
}

/// A full failpoint plan: a seed plus an ordered rule list (first
/// matching rule per site wins).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FailpointPlan {
    /// Mixed into every rate decision; two plans with different seeds
    /// fire on different key sets.
    pub seed: u64,
    /// The site rules.
    pub rules: Vec<FailpointRule>,
}

/// A malformed failpoint spec (entry and reason).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailpointParseError {
    /// The offending spec entry.
    pub entry: String,
    /// Why it was rejected.
    pub reason: String,
}

impl fmt::Display for FailpointParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad failpoint spec {:?}: {}", self.entry, self.reason)
    }
}

impl std::error::Error for FailpointParseError {}

impl FailpointPlan {
    /// Parses a comma-separated spec: `seed=N` entries set the seed,
    /// `site=TRIGGER:action` entries append rules, where `TRIGGER` is a
    /// probability in `[0, 1]` or `@KEY` for an exact key match, and
    /// `action` is `error`, `panic`, `abort` or `delay:MS`.
    ///
    /// # Errors
    ///
    /// Returns [`FailpointParseError`] naming the first malformed entry.
    pub fn parse(spec: &str) -> Result<FailpointPlan, FailpointParseError> {
        let mut plan = FailpointPlan::default();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let bad = |reason: &str| FailpointParseError {
                entry: entry.to_owned(),
                reason: reason.to_owned(),
            };
            let Some((lhs, rhs)) = entry.split_once('=') else {
                return Err(bad("expected `seed=N` or `site=TRIGGER:action`"));
            };
            if lhs == "seed" {
                plan.seed = rhs.parse().map_err(|_| bad("seed must be a u64"))?;
                continue;
            }
            let Some((trigger_s, action_s)) = rhs.split_once(':') else {
                return Err(bad("expected `TRIGGER:action` after `=`"));
            };
            let trigger = match trigger_s.strip_prefix('@') {
                Some(key) => {
                    FailpointTrigger::Key(key.parse().map_err(|_| bad("`@KEY` must be a u64"))?)
                }
                None => {
                    let rate: f64 = trigger_s
                        .parse()
                        .map_err(|_| bad("rate must be a float in [0, 1]"))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(bad("rate must be a float in [0, 1]"));
                    }
                    FailpointTrigger::Rate(rate)
                }
            };
            let action = match action_s.split_once(':') {
                Some(("delay", ms)) => {
                    FailpointAction::Delay(ms.parse().map_err(|_| bad("`delay:MS` must be a u64"))?)
                }
                None if action_s == "error" => FailpointAction::Error,
                None if action_s == "panic" => FailpointAction::Panic,
                None if action_s == "abort" => FailpointAction::Abort,
                _ => return Err(bad("action must be error | panic | abort | delay:MS")),
            };
            plan.rules.push(FailpointRule {
                site: lhs.to_owned(),
                trigger,
                action,
            });
        }
        Ok(plan)
    }

    /// Whether a consultation at `(site, key)` fires, and with what
    /// action. Pure: depends only on the plan and the arguments, never
    /// on call order or thread interleaving.
    pub fn decide(&self, site: &str, key: u64) -> Option<FailpointAction> {
        for rule in &self.rules {
            if rule.site != site {
                continue;
            }
            let fired = match rule.trigger {
                FailpointTrigger::Key(k) => key == k,
                FailpointTrigger::Rate(rate) => {
                    rate > 0.0 && unit_hash(self.seed, site, key) < rate
                }
            };
            if fired {
                return Some(rule.action);
            }
        }
        None
    }
}

/// Fast-path latch: `true` iff a non-empty plan is installed. Checked
/// before touching the plan mutex so unconfigured consultations cost
/// one atomic load.
static ARMED: AtomicBool = AtomicBool::new(false);
/// The installed plan.
static PLAN: Mutex<Option<FailpointPlan>> = Mutex::new(None);

/// Installs (or, with `None`, clears) the process-wide failpoint plan.
pub fn configure(plan: Option<FailpointPlan>) {
    let armed = plan.as_ref().is_some_and(|p| !p.rules.is_empty());
    match PLAN.lock() {
        Ok(mut guard) => *guard = plan,
        Err(poisoned) => *poisoned.into_inner() = plan,
    }
    // xtask-atomics: fast-path hint only; the PLAN mutex orders the installed plan behind it
    ARMED.store(armed, Ordering::Relaxed);
}

/// Builds a plan from the `RLPM_FAILPOINTS` environment variable.
/// Unset or blank means no plan (`Ok(None)`).
///
/// # Errors
///
/// Returns [`FailpointParseError`] when the variable is set but
/// malformed — callers should surface this rather than silently running
/// without injection.
pub fn plan_from_env() -> Result<Option<FailpointPlan>, FailpointParseError> {
    match std::env::var("RLPM_FAILPOINTS") {
        Ok(spec) if !spec.trim().is_empty() => FailpointPlan::parse(&spec).map(Some),
        _ => Ok(None),
    }
}

/// Consults `site` with `key` against the installed plan. `None` (the
/// overwhelmingly common case) means proceed normally.
pub fn check(site: &str, key: u64) -> Option<FailpointAction> {
    // xtask-atomics: fast-path hint only; a stale read just consults the PLAN mutex, which orders the plan
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let guard = match PLAN.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    guard.as_ref().and_then(|plan| plan.decide(site, key))
}

/// Consults `site` and applies the fired action in place: sleeps on
/// [`FailpointAction::Delay`], exits the process on
/// [`FailpointAction::Abort`], and panics on `Panic`/`Error` (callers
/// with a typed error channel should use [`check`] instead and map
/// `Error` onto it). The scheduler calls this inside its per-job
/// supervisor, which catches the panic, retries and quarantines.
pub fn fire(site: &str, key: u64) {
    match check(site, key) {
        None => {}
        Some(FailpointAction::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
        Some(FailpointAction::Abort) => std::process::exit(ABORT_EXIT_CODE),
        Some(FailpointAction::Panic) | Some(FailpointAction::Error) => {
            // xtask-allow: no-panic-lib -- deliberate injected failure: fires only under an explicitly armed plan and is caught by the scheduler's per-job supervisor
            panic!("failpoint fired: {site}[{key}]");
        }
    }
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps `(seed, site, key)` to `[0, 1)`: FNV-1a over the site name,
/// folded with the seed and key through two SplitMix64 rounds, top 53
/// bits scaled. Stateless, so firing decisions are order-independent.
fn unit_hash(seed: u64, site: &str, key: u64) -> f64 {
    let h = crate::Fnv1a64::hash(site.as_bytes());
    let mixed = splitmix64(splitmix64(seed ^ h).wrapping_add(key));
    (mixed >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_of_every_form() {
        let plan =
            FailpointPlan::parse("seed=7, sched/job=0.25:panic ,cache/store=@3:error,x=1:delay:20")
                .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(
            plan.rules.first().map(|r| (r.trigger, r.action)),
            Some((FailpointTrigger::Rate(0.25), FailpointAction::Panic))
        );
        assert_eq!(
            plan.rules.get(1).map(|r| (r.trigger, r.action)),
            Some((FailpointTrigger::Key(3), FailpointAction::Error))
        );
        assert_eq!(
            plan.rules.get(2).map(|r| (r.trigger, r.action)),
            Some((FailpointTrigger::Rate(1.0), FailpointAction::Delay(20)))
        );
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for bad in [
            "sched/job",
            "sched/job=panic",
            "sched/job=2.0:panic",
            "sched/job=0.5:explode",
            "sched/job=@x:panic",
            "seed=no",
            "sched/job=0.5:delay:soon",
        ] {
            assert!(FailpointPlan::parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn zero_rate_never_fires() {
        let plan = FailpointPlan::parse("seed=1,sched/job=0:panic").unwrap();
        assert!((0..10_000).all(|k| plan.decide(SITE_SCHED_JOB, k).is_none()));
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = FailpointPlan::parse("seed=42,sched/job=0.2:panic").unwrap();
        let fired: Vec<u64> = (0..1000)
            .filter(|&k| plan.decide(SITE_SCHED_JOB, k).is_some())
            .collect();
        let again: Vec<u64> = (0..1000)
            .filter(|&k| plan.decide(SITE_SCHED_JOB, k).is_some())
            .collect();
        assert_eq!(fired, again, "same plan, same firing set");
        assert!(
            !fired.is_empty() && fired.len() < 1000,
            "a 20% rate fires on some but not all of 1000 keys (got {})",
            fired.len()
        );
        let reseeded = FailpointPlan::parse("seed=43,sched/job=0.2:panic").unwrap();
        let other: Vec<u64> = (0..1000)
            .filter(|&k| reseeded.decide(SITE_SCHED_JOB, k).is_some())
            .collect();
        assert_ne!(fired, other, "different seeds fire on different key sets");
    }

    #[test]
    fn key_trigger_fires_exactly_once() {
        let plan = FailpointPlan::parse("sched/job=@17:abort").unwrap();
        let fired: Vec<u64> = (0..100)
            .filter(|&k| plan.decide(SITE_SCHED_JOB, k).is_some())
            .collect();
        assert_eq!(fired, vec![17]);
        assert_eq!(
            plan.decide(SITE_SCHED_JOB, 17),
            Some(FailpointAction::Abort)
        );
        assert_eq!(plan.decide(SITE_CACHE_STORE, 17), None, "site-scoped");
    }

    #[test]
    fn global_latch_arms_and_clears() {
        // Single test owns the global plan; other tests use `decide`.
        assert_eq!(check(SITE_SCHED_JOB, 5), None, "unconfigured is silent");
        let plan = FailpointPlan::parse("sched/job=@5:error").unwrap();
        configure(Some(plan));
        assert_eq!(check(SITE_SCHED_JOB, 5), Some(FailpointAction::Error));
        assert_eq!(check(SITE_SCHED_JOB, 6), None);
        configure(None);
        assert_eq!(check(SITE_SCHED_JOB, 5), None, "cleared plan is silent");
    }
}
