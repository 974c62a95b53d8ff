//! Deterministic failpoint registry for chaos-testing qprog.
//!
//! A *failpoint* is a named site in production code — `exec/hash_build/insert`,
//! `monitor/accept` — where a test can inject a fault: a typed error, a panic,
//! a sleep, or a scheduler yield. Sites are declared with [`fail_point!`]:
//!
//! ```ignore
//! qprog_fault::fail_point!("exec/scan/next");
//! ```
//!
//! Without `--features failpoints` the whole machinery compiles out: every
//! site folds to `Ok(())` and costs nothing per tuple. With the feature on,
//! each evaluation consults a global registry configured either
//! programmatically ([`configure`]) or from the environment:
//!
//! - `QPROG_FAILPOINTS` — `site=spec;site=spec` pairs applied at first use,
//! - `QPROG_FAILPOINTS_SEED` — seed for the deterministic PRNG behind
//!   probabilistic specs.
//!
//! # Spec grammar
//!
//! ```text
//! spec   := "off" | [prob "%"] [count "*"] action ["(" arg ")"]
//! action := "error" | "panic" | "sleep" | "yield"
//! ```
//!
//! Examples: `error`, `error(disk full)`, `panic`, `sleep(25)` (milliseconds),
//! `yield(8)`, `50%error`, `3*error` (fire at most three times),
//! `25%2*sleep(10)`. Probability draws come from a seeded SplitMix64 stream,
//! so a given seed yields the same fault schedule on every run.
//!
//! Injected errors surface as
//! [`QError::Lifecycle`]`(`[`ExecError::Injected`](qprog_types::ExecError::Injected)`)`
//! so the lifecycle layer can distinguish them from organic failures.

use qprog_types::QResult;

/// Evaluate a failpoint site, propagating any injected error.
///
/// Expands to `$crate::eval(name)?` — use inside functions returning
/// [`QResult`]. For call sites that cannot propagate (e.g. the monitor
/// accept loop) call [`eval`] directly and handle the `Err`.
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        $crate::eval($name)?
    };
}

/// True when this build carries the failpoint machinery.
pub const fn active() -> bool {
    cfg!(feature = "failpoints")
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::*;
    use qprog_types::QError;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock, RwLock};

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Action {
        Off,
        Error(String),
        Panic(String),
        /// Sleep for the given number of milliseconds.
        Sleep(u64),
        /// Call `thread::yield_now()` the given number of times.
        Yield(u32),
    }

    #[derive(Debug)]
    struct Site {
        spec: String,
        /// Trigger probability in percent; `None` means always.
        prob_pct: Option<u32>,
        /// Remaining triggers for `cnt*` specs; `None` means unlimited.
        remaining: Option<AtomicU64>,
        action: Action,
        hits: AtomicU64,
    }

    struct Registry {
        sites: RwLock<HashMap<String, Site>>,
        rng: AtomicU64,
    }

    fn registry() -> &'static Registry {
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            let seed = std::env::var("QPROG_FAILPOINTS_SEED")
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0x9E37_79B9_7F4A_7C15);
            let reg = Registry {
                sites: RwLock::new(HashMap::new()),
                rng: AtomicU64::new(seed),
            };
            if let Ok(spec) = std::env::var("QPROG_FAILPOINTS") {
                // Bad env specs are reported once rather than silently eaten.
                if let Err(e) = apply_many(&reg, &spec) {
                    eprintln!("qprog-fault: ignoring invalid QPROG_FAILPOINTS: {e}");
                }
            }
            reg
        })
    }

    /// SplitMix64 step over a shared atomic state: deterministic for a given
    /// seed regardless of which thread draws (the *set* of outcomes is fixed;
    /// inter-thread interleaving only permutes who sees which draw).
    fn next_u64(state: &AtomicU64) -> u64 {
        let mut z = state
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn parse_spec(spec: &str) -> Result<(Option<u32>, Option<u64>, Action), String> {
        let mut rest = spec.trim();
        if rest == "off" {
            return Ok((None, None, Action::Off));
        }
        let mut prob = None;
        if let Some(i) = rest.find('%') {
            let head = &rest[..i];
            let p: u32 = head
                .parse()
                .map_err(|_| format!("bad probability `{head}` in `{spec}`"))?;
            if p > 100 {
                return Err(format!("probability {p}% > 100% in `{spec}`"));
            }
            prob = Some(p);
            rest = &rest[i + 1..];
        }
        let mut count = None;
        if let Some(i) = rest.find('*') {
            let head = &rest[..i];
            let c: u64 = head
                .parse()
                .map_err(|_| format!("bad count `{head}` in `{spec}`"))?;
            count = Some(c);
            rest = &rest[i + 1..];
        }
        let (name, arg) = match rest.find('(') {
            Some(i) => {
                let close = rest
                    .rfind(')')
                    .ok_or_else(|| format!("unclosed `(` in `{spec}`"))?;
                if close < i {
                    return Err(format!("mismatched parentheses in `{spec}`"));
                }
                (&rest[..i], Some(&rest[i + 1..close]))
            }
            None => (rest, None),
        };
        let action = match name {
            "off" => Action::Off,
            "error" => Action::Error(arg.unwrap_or("injected").to_string()),
            "panic" => Action::Panic(arg.unwrap_or("injected").to_string()),
            "sleep" => {
                let ms = arg
                    .ok_or_else(|| format!("sleep needs `(ms)` in `{spec}`"))?
                    .parse::<u64>()
                    .map_err(|_| format!("bad sleep millis in `{spec}`"))?;
                Action::Sleep(ms)
            }
            "yield" => {
                let n = match arg {
                    Some(a) => a
                        .parse::<u32>()
                        .map_err(|_| format!("bad yield count in `{spec}`"))?,
                    None => 1,
                };
                Action::Yield(n)
            }
            other => return Err(format!("unknown action `{other}` in `{spec}`")),
        };
        Ok((prob, count, action))
    }

    fn apply_many(reg: &Registry, specs: &str) -> Result<(), String> {
        for pair in specs.split(';').filter(|p| !p.trim().is_empty()) {
            let (site, spec) = pair
                .split_once('=')
                .ok_or_else(|| format!("expected `site=spec`, got `{pair}`"))?;
            apply_one(reg, site.trim(), spec.trim())?;
        }
        Ok(())
    }

    fn apply_one(reg: &Registry, site: &str, spec: &str) -> Result<(), String> {
        let (prob_pct, count, action) = parse_spec(spec)?;
        let entry = Site {
            spec: spec.to_string(),
            prob_pct,
            remaining: count.map(AtomicU64::new),
            action,
            hits: AtomicU64::new(0),
        };
        lock_write(reg).insert(site.to_string(), entry);
        Ok(())
    }

    fn lock_write(reg: &Registry) -> std::sync::RwLockWriteGuard<'_, HashMap<String, Site>> {
        reg.sites.write().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_read(reg: &Registry) -> std::sync::RwLockReadGuard<'_, HashMap<String, Site>> {
        reg.sites.read().unwrap_or_else(|p| p.into_inner())
    }

    /// Evaluate one site. See the crate docs for the spec grammar.
    pub fn eval(site: &str) -> QResult<()> {
        let reg = registry();
        let sites = lock_read(reg);
        let Some(s) = sites.get(site) else {
            return Ok(());
        };
        if matches!(s.action, Action::Off) {
            return Ok(());
        }
        if let Some(p) = s.prob_pct {
            if next_u64(&reg.rng) % 100 >= p as u64 {
                return Ok(());
            }
        }
        if let Some(rem) = &s.remaining {
            // Decrement-if-positive; once exhausted the site goes quiet.
            let mut cur = rem.load(Ordering::Relaxed);
            loop {
                if cur == 0 {
                    return Ok(());
                }
                match rem.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => break,
                    Err(now) => cur = now,
                }
            }
        }
        s.hits.fetch_add(1, Ordering::Relaxed);
        match &s.action {
            Action::Off => Ok(()),
            Action::Error(msg) => Err(QError::injected(format!("{site}: {msg}"))),
            Action::Panic(msg) => {
                let msg = format!("failpoint {site}: {msg}");
                drop(sites);
                panic!("{msg}");
            }
            Action::Sleep(ms) => {
                let ms = *ms;
                drop(sites);
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(())
            }
            Action::Yield(n) => {
                let n = *n;
                drop(sites);
                for _ in 0..n {
                    std::thread::yield_now();
                }
                Ok(())
            }
        }
    }

    /// Install (or replace) a spec for `site`.
    pub fn configure(site: &str, spec: &str) -> Result<(), String> {
        apply_one(registry(), site, spec)
    }

    /// Install `site=spec;site=spec` pairs, e.g. from a config string.
    pub fn configure_many(specs: &str) -> Result<(), String> {
        apply_many(registry(), specs)
    }

    /// Remove one site's configuration.
    pub fn remove(site: &str) {
        lock_write(registry()).remove(site);
    }

    /// Remove every configured site (leaves the PRNG state alone).
    pub fn teardown() {
        lock_write(registry()).clear();
    }

    /// Reseed the deterministic PRNG behind probabilistic specs.
    pub fn set_seed(seed: u64) {
        registry().rng.store(seed, Ordering::Relaxed);
    }

    /// How many times `site` has actually triggered (passed its
    /// probability and count gates).
    pub fn hits(site: &str) -> u64 {
        lock_read(registry())
            .get(site)
            .map(|s| s.hits.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// The configured `(site, spec)` pairs, sorted by site.
    pub fn list() -> Vec<(String, String)> {
        let mut v: Vec<_> = lock_read(registry())
            .iter()
            .map(|(k, s)| (k.clone(), s.spec.clone()))
            .collect();
        v.sort();
        v
    }

    static SCENARIO: Mutex<()> = Mutex::new(());

    /// RAII guard serialising failpoint tests against each other.
    ///
    /// The registry is process-global, so concurrent tests would otherwise
    /// see each other's specs. [`FailScenario::setup`] takes a global lock
    /// and clears the registry; dropping the guard clears it again.
    pub struct FailScenario {
        _guard: MutexGuard<'static, ()>,
    }

    impl FailScenario {
        pub fn setup() -> FailScenario {
            let guard = SCENARIO.lock().unwrap_or_else(|p| p.into_inner());
            teardown();
            FailScenario { _guard: guard }
        }
    }

    impl Drop for FailScenario {
        fn drop(&mut self) {
            teardown();
        }
    }
}

#[cfg(feature = "failpoints")]
pub use imp::{
    configure, configure_many, eval, hits, list, remove, set_seed, teardown, FailScenario,
};

#[cfg(not(feature = "failpoints"))]
mod noop {
    use super::*;

    /// No-op site evaluation: folds to `Ok(())` and vanishes after inlining.
    #[inline(always)]
    pub fn eval(_site: &str) -> QResult<()> {
        Ok(())
    }

    /// Accepted but ignored without `--features failpoints`.
    pub fn configure(_site: &str, _spec: &str) -> Result<(), String> {
        Ok(())
    }

    /// Accepted but ignored without `--features failpoints`.
    pub fn configure_many(_specs: &str) -> Result<(), String> {
        Ok(())
    }

    pub fn remove(_site: &str) {}

    pub fn teardown() {}

    pub fn set_seed(_seed: u64) {}

    pub fn hits(_site: &str) -> u64 {
        0
    }

    pub fn list() -> Vec<(String, String)> {
        Vec::new()
    }

    /// No-op scenario guard in non-failpoint builds.
    pub struct FailScenario {}

    impl FailScenario {
        pub fn setup() -> FailScenario {
            FailScenario {}
        }
    }
}

#[cfg(not(feature = "failpoints"))]
pub use noop::{
    configure, configure_many, eval, hits, list, remove, set_seed, teardown, FailScenario,
};

#[cfg(test)]
#[cfg(feature = "failpoints")]
mod tests {
    use super::*;
    use qprog_types::{ExecError, QError};

    fn run(site: &str) -> QResult<()> {
        fail_point!(site);
        Ok(())
    }

    #[test]
    fn unconfigured_site_is_ok() {
        let _s = FailScenario::setup();
        assert!(run("t/none").is_ok());
        assert_eq!(hits("t/none"), 0);
    }

    #[test]
    fn error_action_yields_injected() {
        let _s = FailScenario::setup();
        configure("t/err", "error(disk full)").unwrap();
        let e = run("t/err").unwrap_err();
        match e {
            QError::Lifecycle(ExecError::Injected(m)) => {
                assert!(m.contains("t/err"), "{m}");
                assert!(m.contains("disk full"), "{m}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(hits("t/err"), 1);
    }

    #[test]
    fn count_limits_triggers() {
        let _s = FailScenario::setup();
        configure("t/cnt", "2*error").unwrap();
        assert!(run("t/cnt").is_err());
        assert!(run("t/cnt").is_err());
        assert!(run("t/cnt").is_ok());
        assert_eq!(hits("t/cnt"), 2);
    }

    #[test]
    fn probability_is_deterministic_for_seed() {
        let _s = FailScenario::setup();
        configure("t/prob", "50%error").unwrap();
        set_seed(7);
        let a: Vec<bool> = (0..64).map(|_| run("t/prob").is_err()).collect();
        set_seed(7);
        let b: Vec<bool> = (0..64).map(|_| run("t/prob").is_err()).collect();
        assert_eq!(a, b);
        let fired = a.iter().filter(|x| **x).count();
        assert!(
            fired > 0 && fired < 64,
            "50% should be neither 0 nor all: {fired}"
        );
    }

    #[test]
    fn sleep_action_delays() {
        let _s = FailScenario::setup();
        configure("t/sleep", "sleep(30)").unwrap();
        let t0 = std::time::Instant::now();
        assert!(run("t/sleep").is_ok());
        assert!(t0.elapsed() >= std::time::Duration::from_millis(25));
    }

    #[test]
    #[should_panic(expected = "failpoint t/panic")]
    fn panic_action_panics() {
        let _s = FailScenario::setup();
        configure("t/panic", "panic(kaboom)").unwrap();
        let _ = run("t/panic");
    }

    #[test]
    fn off_and_remove_silence_a_site() {
        let _s = FailScenario::setup();
        configure("t/off", "error").unwrap();
        configure("t/off", "off").unwrap();
        assert!(run("t/off").is_ok());
        configure("t/off", "error").unwrap();
        remove("t/off");
        assert!(run("t/off").is_ok());
    }

    #[test]
    fn spec_parser_rejects_garbage() {
        let _s = FailScenario::setup();
        assert!(configure("t/bad", "explode").is_err());
        assert!(configure("t/bad", "150%error").is_err());
        assert!(configure("t/bad", "sleep").is_err());
        assert!(configure("t/bad", "sleep(abc)").is_err());
        assert!(configure_many("no-equals-sign").is_err());
        assert!(configure_many("a=error;b=3*sleep(5)").is_ok());
        assert_eq!(list().len(), 2);
    }

    #[test]
    fn yield_action_is_benign() {
        let _s = FailScenario::setup();
        configure("t/yield", "yield(4)").unwrap();
        assert!(run("t/yield").is_ok());
        assert_eq!(hits("t/yield"), 1);
    }
}
