//! The fault-injection plane: deterministic, in-process fault rules that
//! chaos tests and `loadgen --chaos` arm to drive the service's failure
//! paths on purpose instead of hoping production finds them first.
//!
//! The plane is compiled into every build but costs one atomic load per
//! probe site when disarmed (the default). A [`FaultPlane`] is a cheap
//! `Arc` clone shared by the disk tier and the worker pool; each
//! [`FaultRule`] selects a site, an eligibility window (`after`, `count`,
//! `every`) and an optional key/body substring predicate, so a test can
//! say "fail the 6th through 15th disk appends" or "panic the solver once
//! on the request containing `deadline\":75`" and get exactly that.
//!
//! Rules are also parseable from compact spec strings
//! (`site:after=A,count=C,every=E,ms=M,key=S`) so the same grammar serves
//! the `batsched serve --fault` flag and the test suite.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where a fault rule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// `DiskTier::get` — the read fails with an I/O error.
    DiskRead,
    /// `DiskTier::put` — the append fails with an I/O error.
    DiskAppend,
    /// `DiskTier::compact` (and the torn-tail repair) — the rewrite fails.
    DiskWrite,
    /// The solver worker panics instead of solving. Probed once per solve
    /// (a request the cache tiers answer never reaches it).
    SolverPanic,
    /// The solver worker sleeps before solving. Probed once per solve, so
    /// `every=20` delays every 20th solve, not every 20th request.
    SolverLatency,
    /// The HTTP frontend severs the connection mid-response body after
    /// answering — what a crashing upstream looks like to a router.
    ConnDrop,
    /// The HTTP frontend sleeps before writing the response — what a
    /// wedged upstream looks like to a router's read timeout.
    ConnStall,
}

impl FaultSite {
    /// The spec-string name of this site.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::DiskRead => "disk-read",
            FaultSite::DiskAppend => "disk-append",
            FaultSite::DiskWrite => "disk-write",
            FaultSite::SolverPanic => "solver-panic",
            FaultSite::SolverLatency => "solver-latency",
            FaultSite::ConnDrop => "conn-drop",
            FaultSite::ConnStall => "conn-stall",
        }
    }

    fn parse(name: &str) -> Option<FaultSite> {
        Some(match name {
            "disk-read" => FaultSite::DiskRead,
            "disk-append" => FaultSite::DiskAppend,
            "disk-write" => FaultSite::DiskWrite,
            "solver-panic" => FaultSite::SolverPanic,
            "solver-latency" => FaultSite::SolverLatency,
            "conn-drop" => FaultSite::ConnDrop,
            "conn-stall" => FaultSite::ConnStall,
            _ => return None,
        })
    }
}

/// One injection rule: *where* to inject plus *which* eligible operations
/// to hit. An operation is eligible when its site matches and `key`
/// (if set) is a substring of the operation's key/body. Among eligible
/// operations, the first `after` are skipped, then every `every`-th one
/// injects, at most `count` times total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// The probe site this rule arms.
    pub site: FaultSite,
    /// Eligible operations to skip before injecting at all.
    pub after: u64,
    /// Maximum number of injections (`u64::MAX` = unlimited).
    pub count: u64,
    /// Inject on every `every`-th eligible operation past `after` (1 =
    /// each one).
    pub every: u64,
    /// Sleep duration for [`FaultSite::SolverLatency`] rules.
    pub latency: Option<Duration>,
    /// Only operations whose key/body contains this substring are
    /// eligible.
    pub key_contains: Option<String>,
}

impl FaultRule {
    /// A rule for `site` that injects on every eligible operation.
    pub fn always(site: FaultSite) -> Self {
        Self {
            site,
            after: 0,
            count: u64::MAX,
            every: 1,
            latency: None,
            key_contains: None,
        }
    }

    /// Skip the first `n` eligible operations.
    #[must_use]
    pub fn after(mut self, n: u64) -> Self {
        self.after = n;
        self
    }

    /// Inject at most `n` times.
    #[must_use]
    pub fn count(mut self, n: u64) -> Self {
        self.count = n;
        self
    }

    /// Inject on every `n`-th eligible operation.
    #[must_use]
    pub fn every(mut self, n: u64) -> Self {
        self.every = n.max(1);
        self
    }

    /// Sleep this long (latency rules).
    #[must_use]
    pub fn latency(mut self, d: Duration) -> Self {
        self.latency = Some(d);
        self
    }

    /// Restrict eligibility to keys/bodies containing `s`.
    #[must_use]
    pub fn key_contains(mut self, s: impl Into<String>) -> Self {
        self.key_contains = Some(s.into());
        self
    }

    /// Parses a compact rule spec: `site[:k=v,...]` where `site` is one of
    /// `disk-read`, `disk-append`, `disk-write`, `solver-panic`,
    /// `solver-latency`, and the keys are `after`, `count`, `every`, `ms`
    /// (latency) and `key` (substring predicate). Examples:
    /// `solver-panic:after=3,count=1`, `disk-append:after=5,count=10`,
    /// `solver-latency:every=20,ms=500`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed spec.
    pub fn parse(spec: &str) -> Result<FaultRule, String> {
        let (site_name, params) = match spec.split_once(':') {
            Some((s, p)) => (s, p),
            None => (spec, ""),
        };
        let site = FaultSite::parse(site_name.trim())
            .ok_or_else(|| format!("unknown fault site '{}'", site_name.trim()))?;
        let mut rule = FaultRule::always(site);
        for pair in params.split(',').filter(|p| !p.trim().is_empty()) {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault parameter '{pair}' is not key=value"))?;
            let (k, v) = (k.trim(), v.trim());
            let num = || {
                v.parse::<u64>()
                    .map_err(|_| format!("fault parameter '{k}={v}' is not a number"))
            };
            match k {
                "after" => rule.after = num()?,
                "count" => rule.count = num()?,
                "every" => rule.every = num()?.max(1),
                "ms" => rule.latency = Some(Duration::from_millis(num()?)),
                "key" => rule.key_contains = Some(v.to_string()),
                _ => return Err(format!("unknown fault parameter '{k}'")),
            }
        }
        if matches!(site, FaultSite::SolverLatency | FaultSite::ConnStall) && rule.latency.is_none()
        {
            return Err(format!("{} rules need ms=<millis>", site.name()));
        }
        Ok(rule)
    }
}

/// Per-rule live state: the immutable rule plus its eligibility/injection
/// counters (atomics, so probing never takes a lock).
#[derive(Debug)]
struct RuleState {
    rule: FaultRule,
    seen: AtomicU64,
    injected: AtomicU64,
}

impl RuleState {
    /// Records one eligible operation and says whether it injects.
    fn fire(&self) -> bool {
        let seen = self.seen.fetch_add(1, Ordering::Relaxed) + 1;
        if seen <= self.rule.after {
            return false;
        }
        if !(seen - self.rule.after - 1).is_multiple_of(self.rule.every) {
            return false;
        }
        // Claim an injection slot; back off when the budget is spent.
        let mut injected = self.injected.load(Ordering::Relaxed);
        loop {
            if injected >= self.rule.count {
                return false;
            }
            match self.injected.compare_exchange_weak(
                injected,
                injected + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => injected = now,
            }
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    rules: Vec<RuleState>,
}

/// A shared set of armed fault rules. The default plane is disarmed and
/// every probe is a single cheap check; clones share rule counters.
#[derive(Debug, Clone, Default)]
pub struct FaultPlane {
    inner: Arc<Inner>,
}

impl FaultPlane {
    /// A disarmed plane: no rule ever fires.
    pub fn disarmed() -> Self {
        Self::default()
    }

    /// A plane armed with `rules`.
    pub fn armed(rules: impl IntoIterator<Item = FaultRule>) -> Self {
        let rules = rules
            .into_iter()
            .map(|rule| RuleState {
                rule,
                seen: AtomicU64::new(0),
                injected: AtomicU64::new(0),
            })
            .collect();
        Self {
            inner: Arc::new(Inner { rules }),
        }
    }

    /// `true` when at least one rule is armed.
    pub fn is_armed(&self) -> bool {
        !self.inner.rules.is_empty()
    }

    /// Total injections performed across every rule and site so far.
    pub fn injected_total(&self) -> u64 {
        self.inner
            .rules
            .iter()
            .map(|r| r.injected.load(Ordering::Relaxed))
            .sum()
    }

    /// Total injections performed at `site` so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.inner
            .rules
            .iter()
            .filter(|r| r.rule.site == site)
            .map(|r| r.injected.load(Ordering::Relaxed))
            .sum()
    }

    fn fire(&self, site: FaultSite, key: &str) -> Option<&RuleState> {
        self.inner
            .rules
            .iter()
            .filter(|r| {
                r.rule.site == site
                    && r.rule
                        .key_contains
                        .as_deref()
                        .is_none_or(|s| key.contains(s))
            })
            .find(|r| r.fire())
    }

    /// Disk-site probe: returns the injected I/O error when a rule fires.
    ///
    /// # Errors
    ///
    /// The injected fault, as `io::ErrorKind::Other`.
    pub fn disk_gate(&self, site: FaultSite, key: &str) -> io::Result<()> {
        if self.fire(site, key).is_some() {
            return Err(io::Error::other(format!("injected fault: {}", site.name())));
        }
        Ok(())
    }

    /// Solver-panic probe, once per solve: `true` when the worker should
    /// panic on this request body. The caller performs the actual `panic!`
    /// so the backtrace points at the worker.
    pub fn solver_panic(&self, body: &str) -> bool {
        self.fire(FaultSite::SolverPanic, body).is_some()
    }

    /// Solver-latency probe, once per solve: the sleep to apply before
    /// solving this request body, if a rule fires.
    pub fn solver_latency(&self, body: &str) -> Option<Duration> {
        self.fire(FaultSite::SolverLatency, body)
            .and_then(|r| r.rule.latency)
    }

    /// Connection-drop probe: `true` when the HTTP frontend should sever
    /// this connection mid-response after answering `body`.
    pub fn conn_drop(&self, body: &str) -> bool {
        self.fire(FaultSite::ConnDrop, body).is_some()
    }

    /// Connection-stall probe: the sleep to apply before writing the
    /// response to `body`, if a rule fires.
    pub fn conn_stall(&self, body: &str) -> Option<Duration> {
        self.fire(FaultSite::ConnStall, body)
            .and_then(|r| r.rule.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_plane_never_fires() {
        let plane = FaultPlane::disarmed();
        assert!(!plane.is_armed());
        for _ in 0..100 {
            assert!(plane.disk_gate(FaultSite::DiskRead, "k").is_ok());
            assert!(!plane.solver_panic("body"));
            assert!(plane.solver_latency("body").is_none());
        }
    }

    #[test]
    fn after_count_every_window() {
        let plane = FaultPlane::armed([FaultRule::always(FaultSite::DiskAppend)
            .after(2)
            .count(3)
            .every(2)]);
        // Eligible ops 1..=10; skip 2, then every 2nd of the rest: ops
        // 3, 5, 7 inject (count stops the 4th at op 9).
        let fired: Vec<bool> = (0..10)
            .map(|_| plane.disk_gate(FaultSite::DiskAppend, "k").is_err())
            .collect();
        assert_eq!(
            fired,
            [false, false, true, false, true, false, true, false, false, false]
        );
        assert_eq!(plane.injected(FaultSite::DiskAppend), 3);
    }

    #[test]
    fn sites_are_independent() {
        let plane = FaultPlane::armed([FaultRule::always(FaultSite::DiskRead).count(1)]);
        assert!(plane.disk_gate(FaultSite::DiskAppend, "k").is_ok());
        assert!(plane.disk_gate(FaultSite::DiskWrite, "k").is_ok());
        assert!(plane.disk_gate(FaultSite::DiskRead, "k").is_err());
        assert!(
            plane.disk_gate(FaultSite::DiskRead, "k").is_ok(),
            "budget spent"
        );
    }

    #[test]
    fn key_predicate_restricts_eligibility() {
        let plane =
            FaultPlane::armed([FaultRule::always(FaultSite::SolverPanic).key_contains("magic")]);
        assert!(!plane.solver_panic("ordinary request"));
        assert!(plane.solver_panic("the magic word"));
    }

    #[test]
    fn latency_rule_reports_duration() {
        let plane = FaultPlane::armed([FaultRule::always(FaultSite::SolverLatency)
            .every(2)
            .latency(Duration::from_millis(7))]);
        assert_eq!(
            plane.solver_latency("x"),
            Some(Duration::from_millis(7)),
            "first eligible op fires (every=2 hits ops 1, 3, 5…)"
        );
        assert_eq!(plane.solver_latency("x"), None);
        assert_eq!(plane.solver_latency("x"), Some(Duration::from_millis(7)));
    }

    #[test]
    fn spec_parsing_round_trips() {
        let r = FaultRule::parse("solver-panic:after=3,count=1").unwrap();
        assert_eq!(r.site, FaultSite::SolverPanic);
        assert_eq!((r.after, r.count, r.every), (3, 1, 1));
        let r = FaultRule::parse("disk-append:after=5,count=10").unwrap();
        assert_eq!(r.site, FaultSite::DiskAppend);
        let r = FaultRule::parse("solver-latency:every=20,ms=500,key=dl75").unwrap();
        assert_eq!(r.latency, Some(Duration::from_millis(500)));
        assert_eq!(r.key_contains.as_deref(), Some("dl75"));
        let r = FaultRule::parse("disk-read").unwrap();
        assert_eq!((r.after, r.count, r.every), (0, u64::MAX, 1));

        assert!(FaultRule::parse("bogus-site").is_err());
        assert!(FaultRule::parse("disk-read:nope=1").is_err());
        assert!(FaultRule::parse("disk-read:after=x").is_err());
        assert!(FaultRule::parse("disk-read:after").is_err());
        assert!(
            FaultRule::parse("solver-latency:every=2").is_err(),
            "needs ms"
        );

        let r = FaultRule::parse("conn-drop:count=1,key=dl75").unwrap();
        assert_eq!(r.site, FaultSite::ConnDrop);
        assert_eq!(r.key_contains.as_deref(), Some("dl75"));
        let r = FaultRule::parse("conn-stall:ms=250").unwrap();
        assert_eq!(r.site, FaultSite::ConnStall);
        assert_eq!(r.latency, Some(Duration::from_millis(250)));
        assert!(FaultRule::parse("conn-stall:count=1").is_err(), "needs ms");
    }

    #[test]
    fn conn_sites_probe_like_the_others() {
        let plane = FaultPlane::armed([
            FaultRule::always(FaultSite::ConnDrop).count(1),
            FaultRule::always(FaultSite::ConnStall).latency(Duration::from_millis(9)),
        ]);
        assert!(plane.conn_drop("x"));
        assert!(!plane.conn_drop("x"), "budget spent");
        assert_eq!(plane.conn_stall("x"), Some(Duration::from_millis(9)));
        assert_eq!(plane.injected(FaultSite::ConnDrop), 1);
    }

    #[test]
    fn concurrent_firing_respects_the_budget() {
        let plane = FaultPlane::armed([FaultRule::always(FaultSite::DiskRead).count(10)]);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let plane = plane.clone();
            handles.push(std::thread::spawn(move || {
                (0..50)
                    .filter(|_| plane.disk_gate(FaultSite::DiskRead, "k").is_err())
                    .count()
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 10);
    }
}
