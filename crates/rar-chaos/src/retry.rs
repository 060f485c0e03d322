//! The one shared bounded-retry helper.
//!
//! Three host-side retry loops had grown independently — the sweep
//! engine's cache I/O (`1 << (2*attempt)` ms), the injection journal's
//! append retry (same shape, different cap) and the thin HTTP client's
//! reconnect loop. They are all expressed over [`retry_with_backoff`]
//! now: bounded attempts, decorrelated-jitter sleeps (deterministic for
//! a given seed, so chaos runs replay exactly), and an optional
//! per-call-site telemetry counter bumped once per failed attempt.

use rar_isa::rng::XorShift64Star;
use rar_telemetry::Counter;
use std::time::Duration;

/// Bounded-retry policy.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (first try included); clamped to ≥ 1.
    pub attempts: u32,
    /// Minimum sleep between attempts, milliseconds.
    pub base_ms: u64,
    /// Maximum sleep between attempts, milliseconds.
    pub cap_ms: u64,
}

impl RetryPolicy {
    /// New policy; `attempts` counts the first try.
    #[must_use]
    pub const fn new(attempts: u32, base_ms: u64, cap_ms: u64) -> Self {
        Self {
            attempts,
            base_ms,
            cap_ms,
        }
    }

    /// The historical cache-I/O shape: 3 attempts, 1–16 ms sleeps.
    #[must_use]
    pub const fn quick() -> Self {
        Self::new(3, 1, 16)
    }
}

/// Run `op` up to `policy.attempts` times with decorrelated-jitter
/// backoff between failures.
///
/// `op` receives the 0-based attempt index. Every *failed* attempt bumps
/// `counter` (when given) once — so a call site that exhausts an
/// `attempts = 3` policy adds 3 to its counter, matching the historical
/// per-error accounting of the loops this helper replaced. The jitter
/// sequence is a pure function of `seed`, keeping retry schedules
/// reproducible under the chaos fabric.
///
/// # Errors
///
/// Returns the error from the final attempt when all attempts fail.
pub fn retry_with_backoff<T, E>(
    policy: RetryPolicy,
    seed: u64,
    counter: Option<&Counter>,
    mut op: impl FnMut(u32) -> Result<T, E>,
) -> Result<T, E> {
    let attempts = policy.attempts.max(1);
    let base = policy.base_ms.max(1);
    let cap = policy.cap_ms.max(base);
    let mut rng = XorShift64Star::new(seed);
    let mut sleep_ms = base;
    let mut attempt = 0;
    loop {
        match op(attempt) {
            Ok(value) => return Ok(value),
            Err(err) => {
                if let Some(counter) = counter {
                    counter.inc();
                }
                attempt += 1;
                if attempt >= attempts {
                    return Err(err);
                }
                // Decorrelated jitter: sleep in [base, min(cap, 3*prev)].
                let hi = (sleep_ms.saturating_mul(3)).clamp(base, cap);
                sleep_ms = base + rng.below(hi - base + 1);
                std::thread::sleep(Duration::from_millis(sleep_ms));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_first_success_without_counting() {
        let counter = Counter::default();
        let result: Result<u32, ()> =
            retry_with_backoff(RetryPolicy::quick(), 7, Some(&counter), |_| Ok(42));
        assert_eq!(result, Ok(42));
        assert_eq!(counter.get(), 0);
    }

    #[test]
    fn counts_each_failed_attempt_and_returns_last_error() {
        let counter = Counter::default();
        let mut seen = Vec::new();
        let result: Result<(), u32> =
            retry_with_backoff(RetryPolicy::new(3, 1, 2), 7, Some(&counter), |attempt| {
                seen.push(attempt);
                Err(attempt)
            });
        assert_eq!(result, Err(2));
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(counter.get(), 3);
    }

    #[test]
    fn recovers_mid_sequence() {
        let counter = Counter::default();
        let result: Result<&str, &str> =
            retry_with_backoff(RetryPolicy::new(4, 1, 2), 9, Some(&counter), |attempt| {
                if attempt < 2 {
                    Err("transient")
                } else {
                    Ok("done")
                }
            });
        assert_eq!(result, Ok("done"));
        assert_eq!(counter.get(), 2);
    }

    #[test]
    fn zero_attempts_clamps_to_one() {
        let result: Result<(), &str> =
            retry_with_backoff(RetryPolicy::new(0, 1, 1), 1, None, |_| Err("nope"));
        assert_eq!(result, Err("nope"));
    }
}
