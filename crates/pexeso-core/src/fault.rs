//! Deterministic fault injection for crash and failure testing.
//!
//! A process-global registry of **named fault points**. Production code
//! marks the boundaries where hardware and kernels actually betray you —
//! an fsync, a record write, a manifest rename, a socket read — with a
//! single call (`fault::check`, `fault::write_all`). Tests (and the
//! dev-only `pexeso serve --fault-profile` flag) *arm* rules against
//! those names: fail the Nth hit with an injected I/O error, tear a
//! write after K bytes, or delay an operation. Nothing is ever armed in
//! production, and the disarmed path is a single relaxed atomic load —
//! no lock, no allocation, no branch on per-point state — so the hooks
//! are free where they sit on hot paths.
//!
//! ## Determinism
//!
//! Rules trigger on exact hit ordinals (`after` = number of hits to let
//! pass first), so a crash test can enumerate every fault point an
//! operation crosses (trace mode), then replay the operation once per
//! (point, ordinal) pair with a crash armed exactly there. The registry
//! is process-global: tests that arm faults must serialize (the chaos
//! suites share a mutex) and disarm in all paths.
//!
//! ```
//! use pexeso_core::fault::{self, FaultAction, FaultRule};
//!
//! let _guard = fault::test_lock();
//! fault::arm("demo.op", FaultRule::nth(1, FaultAction::Error));
//! assert!(fault::check("demo.op").is_ok()); // first hit passes
//! assert!(fault::check("demo.op").is_err()); // second hit fails
//! assert!(fault::check("demo.op").is_ok()); // rule is one-shot
//! fault::disarm_all();
//! ```

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// What happens when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The operation fails with an injected [`io::Error`]
    /// (`ErrorKind::Other`, message tagged `fault-injected`).
    Error,
    /// A write persists only its first `keep` bytes, then fails — a torn
    /// write, as a power loss mid-`write(2)` would leave it. At
    /// non-write points this degrades to [`FaultAction::Error`].
    Tear { keep: usize },
    /// The operation is delayed by this many milliseconds, then
    /// proceeds normally. Arms a deterministic window for kill tests
    /// and models a wedged peer/black-holed socket (bounded by the
    /// caller's timeout).
    Delay { ms: u64 },
}

/// One armed rule: let `after` hits pass, then perform `action`.
#[derive(Debug, Clone, Copy)]
pub struct FaultRule {
    /// Hits to let through before firing (0 = fire on the first hit).
    pub after: u64,
    pub action: FaultAction,
    /// `true`: fire on exactly one hit, then lie dormant (crash tests).
    /// `false`: fire on every hit from `after` onward (wedged-disk /
    /// black-hole modelling).
    pub once: bool,
}

impl FaultRule {
    /// Fire exactly once, on the hit with ordinal `after` (0-based).
    pub fn nth(after: u64, action: FaultAction) -> Self {
        Self {
            after,
            action,
            once: true,
        }
    }

    /// Fire on every hit from ordinal `after` onward.
    pub(crate) fn from_nth(after: u64, action: FaultAction) -> Self {
        Self {
            after,
            action,
            once: false,
        }
    }
}

#[derive(Default)]
struct PointState {
    hits: u64,
    rule: Option<FaultRule>,
}

#[derive(Default)]
struct Registry {
    points: HashMap<String, PointState>,
    /// Count hits at every point even without a rule (trace mode).
    tracing: bool,
}

/// Fast-path gate: `false` in production, so every hook is one relaxed
/// load. Set whenever any rule is armed or tracing is on.
static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock_registry() -> MutexGuard<'static, Registry> {
    registry().lock().expect("fault registry poisoned")
}

/// Arm `rule` at `point`, resetting the point's hit counter.
pub fn arm(point: &str, rule: FaultRule) {
    let mut reg = lock_registry();
    reg.points.insert(
        point.to_string(),
        PointState {
            hits: 0,
            rule: Some(rule),
        },
    );
    ARMED.store(true, Ordering::SeqCst);
}

/// Count hits at every point without firing anything. Used by the chaos
/// sweep to enumerate the fault points an operation crosses.
pub fn begin_trace() {
    let mut reg = lock_registry();
    reg.points.clear();
    reg.tracing = true;
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarm every rule, stop tracing, and restore the zero-cost path.
pub fn disarm_all() {
    let mut reg = lock_registry();
    reg.points.clear();
    reg.tracing = false;
    ARMED.store(false, Ordering::SeqCst);
}

/// Hits recorded at `point` since it was armed / tracing began.
pub fn hits(point: &str) -> u64 {
    lock_registry().points.get(point).map_or(0, |s| s.hits)
}

/// Every traced point with its hit count, sorted by name — the
/// enumeration a crash sweep iterates.
pub fn traced_points() -> Vec<(String, u64)> {
    let reg = lock_registry();
    let mut v: Vec<(String, u64)> = reg
        .points
        .iter()
        .map(|(k, s)| (k.clone(), s.hits))
        .collect();
    v.sort();
    v
}

/// Whether any rule is armed (or tracing is on). The inline fast path
/// every hook takes first.
#[inline]
pub(crate) fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Record a hit at `point` and return the action to perform, if a rule
/// fires on this ordinal. Never allocates or locks when disarmed.
#[inline]
pub(crate) fn fire(point: &str) -> Option<FaultAction> {
    if !armed() {
        return None;
    }
    fire_slow(point)
}

#[cold]
fn fire_slow(point: &str) -> Option<FaultAction> {
    let mut reg = lock_registry();
    if !reg.tracing && !reg.points.contains_key(point) {
        return None;
    }
    let state = reg.points.entry(point.to_string()).or_default();
    let ordinal = state.hits;
    state.hits += 1;
    let rule = state.rule?;
    let fires = if rule.once {
        ordinal == rule.after
    } else {
        ordinal >= rule.after
    };
    fires.then_some(rule.action)
}

/// The injected error every firing `Error`/`Tear` rule produces;
/// recognisable by message so tests can distinguish injected failures
/// from real ones.
pub(crate) fn injected_error(point: &str) -> io::Error {
    io::Error::other(format!("fault-injected at {point}"))
}

/// Check a non-write fault point: `Error` (and `Tear`) fail the
/// operation, `Delay` sleeps then proceeds.
#[inline]
pub fn check(point: &str) -> io::Result<()> {
    match fire(point) {
        None => Ok(()),
        Some(FaultAction::Delay { ms }) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        Some(FaultAction::Error) | Some(FaultAction::Tear { .. }) => Err(injected_error(point)),
    }
}

/// `write_all` through a fault point. `Tear` persists the first `keep`
/// bytes (flushing so they actually reach the next layer) and then
/// fails — the torn-write shape crash-recovery code must tolerate.
#[inline]
pub fn write_all<W: Write>(w: &mut W, buf: &[u8], point: &str) -> io::Result<()> {
    match fire(point) {
        None => w.write_all(buf),
        Some(FaultAction::Delay { ms }) => {
            std::thread::sleep(Duration::from_millis(ms));
            w.write_all(buf)
        }
        Some(FaultAction::Error) => Err(injected_error(point)),
        Some(FaultAction::Tear { keep }) => {
            w.write_all(&buf[..keep.min(buf.len())])?;
            w.flush()?;
            Err(injected_error(point))
        }
    }
}

/// Parse a `--fault-profile` string: comma-separated rules, each
/// `point:after:action[:param]` with actions `error`, `tear:<keep>`,
/// `delay:<ms>`, `delay-from:<ms>` (recurring delay). Example:
/// `wal.append.fsync:0:error,serve.apply:0:delay:2000`.
pub(crate) fn parse_profile(profile: &str) -> Result<Vec<(String, FaultRule)>, String> {
    let mut rules = Vec::new();
    for spec in profile.split(',').filter(|s| !s.trim().is_empty()) {
        let parts: Vec<&str> = spec.trim().split(':').collect();
        if parts.len() < 3 {
            return Err(format!(
                "bad fault spec '{spec}': want point:after:action[:param]"
            ));
        }
        let point = parts[0].to_string();
        let after: u64 = parts[1]
            .parse()
            .map_err(|_| format!("bad fault spec '{spec}': '{}' is not a count", parts[1]))?;
        let param = |what: &str| -> Result<u64, String> {
            parts
                .get(3)
                .ok_or_else(|| format!("bad fault spec '{spec}': {what} needs a parameter"))?
                .parse()
                .map_err(|_| format!("bad fault spec '{spec}': bad {what} parameter"))
        };
        let rule = match parts[2] {
            "error" => FaultRule::nth(after, FaultAction::Error),
            "tear" => FaultRule::nth(
                after,
                FaultAction::Tear {
                    keep: param("tear")? as usize,
                },
            ),
            "delay" => FaultRule::nth(
                after,
                FaultAction::Delay {
                    ms: param("delay")?,
                },
            ),
            "delay-from" => FaultRule::from_nth(
                after,
                FaultAction::Delay {
                    ms: param("delay")?,
                },
            ),
            other => return Err(format!("bad fault spec '{spec}': unknown action '{other}'")),
        };
        rules.push((point, rule));
    }
    if rules.is_empty() {
        return Err("empty fault profile".into());
    }
    Ok(rules)
}

/// Arm every rule in a parsed profile (the `--fault-profile` entry
/// point).
pub fn arm_profile(profile: &str) -> Result<(), String> {
    for (point, rule) in parse_profile(profile)? {
        arm(&point, rule);
    }
    Ok(())
}

/// The mutex every fault-arming test must hold: the registry is
/// process-global, so concurrent armed tests would see each other's
/// rules. Disarmed code paths are unaffected (they never read the
/// registry), so ordinary tests need no lock.
pub fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A previous test panicking while armed must not poison every
    // later fault test; the registry itself is re-initialised by each.
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_is_inert() {
        let _guard = test_lock();
        disarm_all();
        assert!(!armed());
        assert_eq!(fire("any.point"), None);
        assert!(check("any.point").is_ok());
        let mut buf = Vec::new();
        fault_write_roundtrip(&mut buf);
        assert_eq!(buf, b"hello");
    }

    fn fault_write_roundtrip(buf: &mut Vec<u8>) {
        write_all(buf, b"hello", "any.point").unwrap();
    }

    #[test]
    fn nth_rule_fires_once_on_exact_ordinal() {
        let _guard = test_lock();
        disarm_all();
        arm("p", FaultRule::nth(2, FaultAction::Error));
        assert!(check("p").is_ok());
        assert!(check("p").is_ok());
        let err = check("p").unwrap_err();
        assert!(err.to_string().contains("fault-injected at p"));
        assert!(check("p").is_ok(), "one-shot rule must not re-fire");
        assert_eq!(hits("p"), 4);
        disarm_all();
    }

    #[test]
    fn recurring_rule_fires_from_ordinal() {
        let _guard = test_lock();
        disarm_all();
        arm("p", FaultRule::from_nth(1, FaultAction::Error));
        assert!(check("p").is_ok());
        assert!(check("p").is_err());
        assert!(check("p").is_err());
        disarm_all();
    }

    #[test]
    fn tear_persists_prefix_then_fails() {
        let _guard = test_lock();
        disarm_all();
        arm("w", FaultRule::nth(0, FaultAction::Tear { keep: 3 }));
        let mut buf = Vec::new();
        assert!(write_all(&mut buf, b"abcdef", "w").is_err());
        assert_eq!(buf, b"abc");
        // Rule spent: the next write goes through whole.
        write_all(&mut buf, b"gh", "w").unwrap();
        assert_eq!(buf, b"abcgh");
        disarm_all();
    }

    #[test]
    fn unrelated_points_are_untouched_while_armed() {
        let _guard = test_lock();
        disarm_all();
        arm("only.this", FaultRule::nth(0, FaultAction::Error));
        assert!(check("some.other").is_ok());
        assert!(check("only.this").is_err());
        disarm_all();
    }

    #[test]
    fn trace_mode_counts_without_firing() {
        let _guard = test_lock();
        disarm_all();
        begin_trace();
        assert!(check("a").is_ok());
        assert!(check("a").is_ok());
        assert!(check("b").is_ok());
        assert_eq!(
            traced_points(),
            vec![("a".to_string(), 2), ("b".to_string(), 1)]
        );
        disarm_all();
    }

    #[test]
    fn profile_parsing() {
        let rules = parse_profile("wal.append.fsync:0:error, serve.apply:2:delay:500").unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].0, "wal.append.fsync");
        assert_eq!(rules[0].1.after, 0);
        assert_eq!(rules[0].1.action, FaultAction::Error);
        assert_eq!(rules[1].0, "serve.apply");
        assert_eq!(rules[1].1.action, FaultAction::Delay { ms: 500 });
        assert!(rules[1].1.once);

        let tear = parse_profile("x:1:tear:7").unwrap();
        assert_eq!(tear[0].1.action, FaultAction::Tear { keep: 7 });
        let recur = parse_profile("x:0:delay-from:10").unwrap();
        assert!(!recur[0].1.once);

        assert!(parse_profile("").is_err());
        assert!(parse_profile("no-colons").is_err());
        assert!(parse_profile("p:zero:error").is_err());
        assert!(parse_profile("p:0:tear").is_err());
        assert!(parse_profile("p:0:explode").is_err());
    }
}
