//! Named fail-point sites with deterministic firing schedules.
//!
//! A *fail-point* is a named hook compiled into a host-side I/O or
//! concurrency edge (`rar_chaos::fire(sites::...)`). In production
//! builds (feature `enabled` off) every hook is an inlined `None`. In
//! chaos builds a [`ChaosPlan`] arms a subset of sites; each armed site
//! fires on the calls whose per-site sequence number `n` satisfies
//! `n % one_in == offset`, which makes injection schedules exactly
//! reproducible run-to-run. The plan seed only feeds the payload
//! [`ChaosHit::roll`] (used e.g. to pick a corruption point or a stall
//! duration), never *whether* a site fires.

use std::io;

/// Environment variable holding a chaos plan for cross-process runs
/// (e.g. a daemon restarted by the CI kill-then-restart smoke).
///
/// Format: `;`-separated entries, each either `seed=N` or
/// `SITE:ONE_IN[:OFFSET]`, e.g.
/// `seed=7;journal.torn:2;sim.cache.read.err:3:1`.
pub const ENV_VAR: &str = "RAR_CHAOS";

/// Whether the fail-point fabric is compiled into this build.
///
/// `false` in default builds: every [`fire`] call site is an inlined
/// `None`, and [`install`] / [`install_from_env`] are no-ops. Binaries
/// use this to warn when [`ENV_VAR`] is set but cannot take effect.
pub const COMPILED: bool = cfg!(feature = "enabled");

/// Catalog of registered fail-point sites.
///
/// Every site listed in [`sites::ALL`] is (a) threaded through the
/// corresponding host edge, (b) documented in DESIGN.md §17 and (c)
/// exercised by at least one test — xtask lint 9 enforces all three.
pub mod sites {
    /// Disk-cache probe returns an I/O error (`DiskCache::try_load`).
    pub const SIM_CACHE_READ_ERR: &str = "sim.cache.read.err";
    /// Disk-cache probe reads a corrupted entry: the on-disk text is
    /// truncated before decoding, so the strict decoder treats it as a
    /// miss and the cell is re-simulated.
    pub const SIM_CACHE_READ_CORRUPT: &str = "sim.cache.read.corrupt";
    /// Disk-cache store fails with an I/O error (`DiskCache::store`).
    pub const SIM_CACHE_WRITE_ERR: &str = "sim.cache.write.err";
    /// Disk-cache I/O completes but only after an injected latency stall.
    pub const SIM_CACHE_IO_SLOW: &str = "sim.cache.io.slow";
    /// Journal append is torn: a prefix of the line is written, then the
    /// write fails (`JournalWriter`, both JSONL journals). The writer must
    /// cut the prefix back off.
    pub const JOURNAL_TORN: &str = "journal.torn";
    /// Journal append is silently short: fewer bytes than requested land
    /// and the write reports success. Caught by the writer's length check
    /// and cut back off.
    pub const JOURNAL_SHORT: &str = "journal.short";
    /// Journal `sync_data` fails after fully written lines.
    pub const JOURNAL_FSYNC: &str = "journal.fsync";
    /// Worker thread panics right after claiming a job; the supervisor
    /// must requeue the claimed job and respawn the worker.
    pub const SERVE_WORKER_PANIC: &str = "serve.worker.panic";
    /// HTTP connection is dropped after the request is read, before any
    /// response bytes are written.
    pub const SERVE_HTTP_CONN_DROP: &str = "serve.http.conn.drop";
    /// HTTP response is stalled by an injected delay before the response
    /// is written (exercises client read timeouts).
    pub const SERVE_HTTP_CONN_STALL: &str = "serve.http.conn.stall";

    /// All registered fail-point site names.
    pub const ALL: [&str; 10] = [
        SIM_CACHE_READ_ERR,
        SIM_CACHE_READ_CORRUPT,
        SIM_CACHE_WRITE_ERR,
        SIM_CACHE_IO_SLOW,
        JOURNAL_TORN,
        JOURNAL_SHORT,
        JOURNAL_FSYNC,
        SERVE_WORKER_PANIC,
        SERVE_HTTP_CONN_DROP,
        SERVE_HTTP_CONN_STALL,
    ];
}

/// One armed site within a [`ChaosPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SitePlan {
    /// Site name; must be one of [`sites::ALL`].
    pub site: String,
    /// Fire on one call out of every `one_in` (must be ≥ 1; 1 = always).
    pub one_in: u64,
    /// Phase within the cycle: the site fires on calls with
    /// `n % one_in == offset` (reduced modulo `one_in`).
    pub offset: u64,
}

/// A deterministic fault-injection schedule over a set of sites.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed mixed into each hit's [`ChaosHit::roll`] payload.
    pub seed: u64,
    /// Armed sites; unlisted sites never fire.
    pub sites: Vec<SitePlan>,
}

impl ChaosPlan {
    /// Plan arming a single site.
    #[must_use]
    pub fn single(site: &str, one_in: u64, offset: u64) -> Self {
        Self {
            seed: 0,
            sites: Vec::new(),
        }
        .with_site(site, one_in, offset)
    }

    /// Set the payload seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Arm an additional site.
    #[must_use]
    pub fn with_site(mut self, site: &str, one_in: u64, offset: u64) -> Self {
        let one_in = one_in.max(1);
        self.sites.push(SitePlan {
            site: site.to_string(),
            one_in,
            offset: offset % one_in,
        });
        self
    }

    /// Parse the [`ENV_VAR`] spec format.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry or unknown
    /// site name.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            if let Some(seed) = entry.strip_prefix("seed=") {
                plan.seed = seed
                    .parse::<u64>()
                    .map_err(|e| format!("chaos spec: bad seed {seed:?}: {e}"))?;
                continue;
            }
            let mut parts = entry.split(':');
            let site = parts.next().unwrap_or_default();
            if !sites::ALL.contains(&site) {
                return Err(format!("chaos spec: unknown fail-point site {site:?}"));
            }
            let one_in = match parts.next() {
                Some(text) => text
                    .parse::<u64>()
                    .map_err(|e| format!("chaos spec: bad one_in in {entry:?}: {e}"))?,
                None => 1,
            };
            if one_in == 0 {
                return Err(format!("chaos spec: one_in must be >= 1 in {entry:?}"));
            }
            let offset = match parts.next() {
                Some(text) => text
                    .parse::<u64>()
                    .map_err(|e| format!("chaos spec: bad offset in {entry:?}: {e}"))?,
                None => 0,
            };
            if parts.next().is_some() {
                return Err(format!("chaos spec: too many fields in {entry:?}"));
            }
            plan = plan.with_site(site, one_in, offset);
        }
        Ok(plan)
    }
}

/// Payload returned when a fail-point fires.
#[derive(Debug, Clone, Copy)]
pub struct ChaosHit {
    /// Deterministic pseudo-random payload derived from `(seed, site,
    /// call index)`; used to vary the injected fault (corruption point,
    /// stall duration, torn-write length) without extra plan knobs.
    pub roll: u64,
}

#[cfg(feature = "enabled")]
mod armed {
    use super::{ChaosHit, ChaosPlan, ENV_VAR};
    use rar_isa::rng::{derive_seed, mix};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{OnceLock, RwLock};

    struct SiteState {
        site: String,
        one_in: u64,
        offset: u64,
        calls: AtomicU64,
        injected: AtomicU64,
    }

    struct PlanState {
        seed: u64,
        sites: Vec<SiteState>,
    }

    fn state() -> &'static RwLock<Option<PlanState>> {
        static STATE: OnceLock<RwLock<Option<PlanState>>> = OnceLock::new();
        STATE.get_or_init(|| RwLock::new(None))
    }

    pub fn install(plan: &ChaosPlan) {
        let sites = plan
            .sites
            .iter()
            .map(|s| SiteState {
                site: s.site.clone(),
                one_in: s.one_in.max(1),
                offset: s.offset % s.one_in.max(1),
                calls: AtomicU64::new(0),
                injected: AtomicU64::new(0),
            })
            .collect();
        let mut guard = state()
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *guard = Some(PlanState {
            seed: plan.seed,
            sites,
        });
    }

    pub fn clear() {
        let mut guard = state()
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *guard = None;
    }

    pub fn is_active() -> bool {
        let guard = state()
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.is_some()
    }

    pub fn fire(site: &str) -> Option<ChaosHit> {
        let guard = state()
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let plan = guard.as_ref()?;
        let armed = plan.sites.iter().find(|s| s.site == site)?;
        let n = armed.calls.fetch_add(1, Ordering::Relaxed);
        if n % armed.one_in != armed.offset {
            return None;
        }
        armed.injected.fetch_add(1, Ordering::Relaxed);
        // Seeding by site name gives each site an independent roll stream.
        let roll = mix(derive_seed(plan.seed, site) ^ mix(n));
        Some(ChaosHit { roll })
    }

    pub fn injected_counts() -> Vec<(String, u64)> {
        let guard = state()
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(plan) = guard.as_ref() else {
            return Vec::new();
        };
        let mut counts: Vec<(String, u64)> = plan
            .sites
            .iter()
            .map(|s| (s.site.clone(), s.injected.load(Ordering::Relaxed)))
            .collect();
        counts.sort();
        counts
    }

    pub fn install_from_env() -> Result<Option<ChaosPlan>, String> {
        match std::env::var(ENV_VAR) {
            Ok(spec) if !spec.trim().is_empty() => {
                let plan = ChaosPlan::parse(&spec)?;
                install(&plan);
                Ok(Some(plan))
            }
            _ => Ok(None),
        }
    }
}

// ---------------------------------------------------------------------------
// Public fabric API. With feature `enabled` these delegate to the armed
// implementation; without it they are inlined no-ops so call sites carry
// zero overhead and the chaos machinery is dead-code-eliminated.
// ---------------------------------------------------------------------------

/// Install a chaos plan process-wide, resetting all per-site counters.
///
/// No-op when the fabric is not compiled in ([`COMPILED`] is `false`).
pub fn install(plan: &ChaosPlan) {
    #[cfg(feature = "enabled")]
    armed::install(plan);
    #[cfg(not(feature = "enabled"))]
    let _ = plan;
}

/// Disarm all fail-points (tests call this between cases).
pub fn clear() {
    #[cfg(feature = "enabled")]
    armed::clear();
}

/// Whether a chaos plan is currently installed.
#[must_use]
pub fn is_active() -> bool {
    #[cfg(feature = "enabled")]
    {
        armed::is_active()
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// Check the named fail-point; returns a hit payload when it fires.
#[inline]
#[must_use]
pub fn fire(site: &str) -> Option<ChaosHit> {
    #[cfg(feature = "enabled")]
    {
        armed::fire(site)
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = site;
        None
    }
}

/// Per-site injected-fault counts for the installed plan, sorted by site.
///
/// Exported by the daemon's `/metrics` endpoint as
/// `rar_chaos_injections_total{site="..."}`.
#[must_use]
pub fn injected_counts() -> Vec<(String, u64)> {
    #[cfg(feature = "enabled")]
    {
        armed::injected_counts()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Vec::new()
    }
}

/// Install a plan from the [`ENV_VAR`] environment variable, if set.
///
/// Returns the installed plan for display, `Ok(None)` when the variable
/// is unset/empty or the fabric is not compiled in.
///
/// # Errors
///
/// Returns a parse error for a malformed spec (only when compiled in).
pub fn install_from_env() -> Result<Option<ChaosPlan>, String> {
    #[cfg(feature = "enabled")]
    {
        armed::install_from_env()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Ok(None)
    }
}

/// Fail with an injected I/O error when `site` fires.
///
/// # Errors
///
/// Returns an `io::Error` describing the injected fault when the
/// fail-point fires; otherwise `Ok(())`.
#[inline]
pub fn maybe_io_err(site: &str) -> io::Result<()> {
    match fire(site) {
        Some(_) => Err(io::Error::other(format!(
            "chaos: injected I/O error at fail-point `{site}`"
        ))),
        None => Ok(()),
    }
}

/// Panic with an injected fault when `site` fires.
#[inline]
pub fn maybe_panic(site: &str) {
    if fire(site).is_some() {
        panic!("chaos: injected panic at fail-point `{site}`");
    }
}

/// Sleep for a small deterministic-duration stall when `site` fires.
///
/// The stall is `1 + roll % cap_ms` milliseconds, so schedules stay
/// reproducible and tests stay fast.
#[inline]
pub fn maybe_sleep(site: &str, cap_ms: u64) {
    if let Some(hit) = fire(site) {
        let ms = 1 + hit.roll % cap_ms.max(1);
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parse_round_trip() {
        let plan = ChaosPlan::parse("seed=7; journal.torn:2 ;sim.cache.read.err:3:1").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.sites.len(), 2);
        assert_eq!(plan.sites[0].site, sites::JOURNAL_TORN);
        assert_eq!(plan.sites[0].one_in, 2);
        assert_eq!(plan.sites[0].offset, 0);
        assert_eq!(plan.sites[1].one_in, 3);
        assert_eq!(plan.sites[1].offset, 1);
    }

    #[test]
    fn plan_parse_rejects_unknown_site_and_bad_numbers() {
        assert!(ChaosPlan::parse("no.such.site:2").is_err());
        assert!(ChaosPlan::parse("sim.cache.read.err:0").is_err());
        assert!(ChaosPlan::parse("sim.cache.read.err:x").is_err());
        assert!(ChaosPlan::parse("seed=nope").is_err());
        assert!(ChaosPlan::parse("sim.cache.read.err:2:1:9").is_err());
    }

    #[test]
    fn offset_is_reduced_modulo_one_in() {
        let plan = ChaosPlan::single("sim.cache.read.err", 3, 7);
        assert_eq!(plan.sites[0].offset, 1);
    }

    /// The fabric is process-global; armed tests serialize on this lock.
    #[cfg(feature = "enabled")]
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn armed_site_fires_on_exact_schedule() {
        let _guard = test_lock();
        let plan = ChaosPlan::single(sites::SIM_CACHE_READ_ERR, 3, 1).with_seed(42);
        install(&plan);
        let fired: Vec<bool> = (0..9)
            .map(|_| fire(sites::SIM_CACHE_READ_ERR).is_some())
            .collect();
        assert_eq!(
            fired,
            [false, true, false, false, true, false, false, true, false]
        );
        // Unarmed sites never fire.
        assert!(fire(sites::SIM_CACHE_WRITE_ERR).is_none());
        let counts = injected_counts();
        assert_eq!(counts, vec![(sites::SIM_CACHE_READ_ERR.to_string(), 3)]);
        clear();
        assert!(fire(sites::SIM_CACHE_READ_ERR).is_none());
        assert!(!is_active());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn rolls_are_deterministic_for_a_seed() {
        let _guard = test_lock();
        let plan = ChaosPlan::single(sites::SIM_CACHE_IO_SLOW, 1, 0).with_seed(7);
        install(&plan);
        let a: Vec<u64> = (0..4)
            .map(|_| fire(sites::SIM_CACHE_IO_SLOW).unwrap().roll)
            .collect();
        install(&plan); // reinstall resets counters
        let b: Vec<u64> = (0..4)
            .map(|_| fire(sites::SIM_CACHE_IO_SLOW).unwrap().roll)
            .collect();
        assert_eq!(a, b);
        clear();
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_fabric_is_inert() {
        install(&ChaosPlan::single(sites::SIM_CACHE_READ_ERR, 1, 0));
        assert!(!is_active());
        assert!(fire(sites::SIM_CACHE_READ_ERR).is_none());
        assert!(maybe_io_err(sites::SIM_CACHE_READ_ERR).is_ok());
        maybe_panic(sites::SERVE_WORKER_PANIC);
        assert!(injected_counts().is_empty());
    }
}
