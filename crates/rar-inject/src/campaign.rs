//! The crash-tolerant, resumable campaign runner.
//!
//! A campaign executes `samples` independent injections, each planned by a
//! deterministic [`FaultInjector`] and classified by a caller-supplied
//! executor. The runner is built to survive the failure modes of long
//! unattended campaigns:
//!
//! - **Panics** inside the executor are caught per injection
//!   (`catch_unwind`) and classified [`Outcome::DuePanic`] — an invariant
//!   tripping under fault injection is itself a detected error, not a
//!   campaign abort.
//! - **Transient executor failures** (e.g. disk-cache I/O under the
//!   simulator) are retried with capped exponential backoff; runs that
//!   stay broken are excluded and reported, degrading the campaign's
//!   confidence intervals gracefully instead of killing it.
//! - **Process death** is covered by the JSONL journal: each completed
//!   injection is written to it at once (fsynced in batches), and a
//!   rerun with the same journal replays them and executes only the
//!   missing sample indices. Tallies are order-independent sums, so an
//!   interrupted-then-resumed campaign produces byte-identical tallies to
//!   an uninterrupted one.
//! - **Journal I/O failures** are cut back off and retried like the
//!   executor's; if a write stays broken the journal is dropped and the
//!   campaign continues in-memory (resume from that point is impossible,
//!   which the telemetry counter `rar_inject_journal_errors_total`
//!   records).
//!
//! Work is distributed over `threads` workers by an atomic next-`k`
//! counter. Because site planning is pure in `k` and tallies commute, the
//! thread count affects wall-clock time only — never the result.

use std::collections::HashSet;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rar_chaos::{retry_with_backoff, RetryPolicy};
use rar_core::{FaultInjector, PlannedFault};
use rar_telemetry::{names, CancelToken, Counter, FlightRecorder, MetricsRegistry};

use crate::journal::{JournalRecord, JournalWriter};
use crate::outcome::{Outcome, Tally};

/// Campaign shape and robustness knobs.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Total sample indices `0..samples` the campaign covers.
    pub samples: u64,
    /// Worker threads (clamped to at least 1).
    pub threads: usize,
    /// JSONL journal path; `None` disables crash tolerance and resume.
    pub journal: Option<PathBuf>,
    /// Journal records per fsync batch.
    pub fsync_every: usize,
    /// Attempts per transiently-failing operation (executor run or
    /// journal append) before giving up on it.
    pub max_attempts: u32,
    /// Stop after this many *new* injections (journal replays excluded).
    /// Used to simulate a mid-campaign kill in tests; `None` runs to
    /// completion.
    pub limit: Option<u64>,
    /// Cooperative cancellation: workers poll the token before claiming
    /// each sample index, so a canceled campaign finishes (and journals)
    /// the injections in flight and claims nothing more. Resuming from
    /// the same journal later continues exactly where cancellation
    /// stopped. `None` means the campaign can only be stopped by a kill.
    pub cancel: Option<CancelToken>,
    /// Flight recorder for post-mortem context: every DUE outcome
    /// (hang or panic) is noted with its sample index and target so a
    /// later dump shows what led up to the detected error. `None`
    /// records nothing.
    pub flight: Option<Arc<FlightRecorder>>,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            samples: 1000,
            threads: 1,
            journal: None,
            fsync_every: 64,
            max_attempts: 3,
            limit: None,
            cancel: None,
            flight: None,
        }
    }
}

/// What a campaign produced, including how complete it is.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Per-target outcome counts (replayed + freshly executed).
    pub tally: Tally,
    /// Sample indices the campaign was asked to cover.
    pub samples: u64,
    /// Injections classified (replayed + fresh).
    pub completed: u64,
    /// Injections replayed from the journal rather than executed.
    pub resumed: u64,
    /// Injections abandoned after exhausting transient-failure retries.
    pub failed: u64,
}

impl CampaignResult {
    /// Fraction of the requested samples that produced a classification.
    /// Confidence intervals in the report are computed from completed
    /// counts, so a partially-failed campaign degrades to wider intervals
    /// rather than wrong ones.
    #[must_use]
    pub fn completed_fraction(&self) -> f64 {
        if self.samples == 0 {
            return 1.0;
        }
        self.completed as f64 / self.samples as f64
    }
}

/// Telemetry handles for one campaign. Registered eagerly so every
/// `names::INJECT_ALL` metric exists (at zero) from the first snapshot.
struct Counters {
    runs: Counter,
    masked: Counter,
    sdc: Counter,
    due: Counter,
    resumed: Counter,
    retries: Counter,
    flushes: Counter,
    errors: Counter,
}

impl Counters {
    fn new(registry: Option<&MetricsRegistry>) -> Counters {
        match registry {
            Some(reg) => Counters {
                runs: reg.counter(names::INJECT_RUNS),
                masked: reg.counter(names::INJECT_MASKED),
                sdc: reg.counter(names::INJECT_SDC),
                due: reg.counter(names::INJECT_DUE),
                resumed: reg.counter(names::INJECT_RESUMED),
                retries: reg.counter(names::INJECT_RETRIES),
                flushes: reg.counter(names::INJECT_JOURNAL_FLUSHES),
                errors: reg.counter(names::INJECT_JOURNAL_ERRORS),
            },
            None => Counters {
                runs: Counter::default(),
                masked: Counter::default(),
                sdc: Counter::default(),
                due: Counter::default(),
                resumed: Counter::default(),
                retries: Counter::default(),
                flushes: Counter::default(),
                errors: Counter::default(),
            },
        }
    }

    fn record(&self, outcome: Outcome) {
        self.runs.inc();
        match outcome {
            Outcome::Vacant | Outcome::Masked => self.masked.inc(),
            Outcome::Sdc => self.sdc.inc(),
            Outcome::DueHang | Outcome::DuePanic => self.due.inc(),
        }
    }
}

/// Retry shape shared by the journal and executor paths: up to
/// `max_attempts` tries with jittered 1–64 ms sleeps (the magnitude of
/// the old capped-exponential loop, now expressed over the workspace's
/// one [`retry_with_backoff`] helper).
fn retry_policy(spec: &CampaignSpec) -> RetryPolicy {
    RetryPolicy::new(spec.max_attempts.max(1), 1, 64)
}

/// Appends with retry; on persistent failure drops the journal (the
/// campaign continues without crash tolerance) and counts the error.
fn journal_append(
    slot: &Mutex<Option<JournalWriter>>,
    rec: &JournalRecord,
    spec: &CampaignSpec,
    counters: &Counters,
) {
    // Jitter seed: sleeps never influence outcomes, they only need to be
    // reproducible for chaos-run replay.
    const JOURNAL_RETRY_SEED: u64 = 0x1a77_ba5e;
    let mut guard = slot.lock().expect("journal lock");
    let Some(writer) = guard.as_mut() else {
        return;
    };
    let line = rec.to_line();
    let appended = retry_with_backoff(
        retry_policy(spec),
        JOURNAL_RETRY_SEED,
        Some(&counters.retries),
        |_| writer.append(&line),
    );
    match appended {
        Ok(synced) => {
            if synced {
                counters.flushes.inc();
            }
        }
        Err(_) => {
            counters.errors.inc();
            *guard = None;
        }
    }
}

/// Runs (or resumes) a campaign.
///
/// The executor receives the sample index and its planned fault and
/// returns the classified outcome, or `Err` for a *transient* failure
/// worth retrying. It must be deterministic in `k` for resume and
/// thread-count independence to hold — the simulator harness satisfies
/// this by construction (seeded workloads, pure site planning).
///
/// # Errors
///
/// Only journal *loading* errors (unreadable or corrupt-before-the-tail
/// journal) abort the campaign; everything at execution time degrades
/// gracefully as described in the module docs.
pub fn run_campaign<I, F>(
    spec: &CampaignSpec,
    injector: &I,
    execute: F,
    registry: Option<&MetricsRegistry>,
) -> io::Result<CampaignResult>
where
    I: FaultInjector + Sync,
    F: Fn(u64, &PlannedFault) -> Result<Outcome, String> + Sync,
{
    let counters = Counters::new(registry);

    // Resume: replay completed sample indices from the journal, then
    // append after its durable prefix.
    let mut tally = Tally::new();
    let mut done: HashSet<u64> = HashSet::new();
    let writer = match &spec.journal {
        Some(path) => {
            let (records, writer) = JournalWriter::resume(
                path,
                "journal",
                JournalRecord::parse_line,
                spec.fsync_every,
            )?;
            for rec in records {
                if rec.k < spec.samples && done.insert(rec.k) {
                    tally.record(rec.fault.target, rec.outcome);
                }
            }
            Some(writer)
        }
        None => None,
    };
    let resumed = done.len() as u64;
    counters.resumed.add(resumed);
    counters.runs.add(resumed);

    let writer = Mutex::new(writer);

    let next_k = AtomicU64::new(0);
    let fresh_budget = AtomicU64::new(spec.limit.unwrap_or(u64::MAX));
    let shared_tally = Mutex::new(tally);
    let failed = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for _ in 0..spec.threads.max(1) {
            scope.spawn(|| loop {
                // Cancellation point: checked before claiming a sample,
                // so the injection in flight always finishes and lands in
                // the journal — resume picks up exactly here.
                if spec.cancel.as_ref().is_some_and(CancelToken::is_canceled) {
                    break;
                }
                let k = next_k.fetch_add(1, Ordering::Relaxed);
                if k >= spec.samples {
                    break;
                }
                if done.contains(&k) {
                    continue;
                }
                // Claim one unit of the fresh-injection budget (the
                // mid-campaign-kill simulation for resume tests).
                if fresh_budget
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                    .is_err()
                {
                    break;
                }
                let fault = injector.plan(k);
                // Transient executor failures retry under the shared
                // helper; panics are terminal (classified DuePanic), so
                // they map to an immediate Ok inside the retried closure.
                let ran: Result<Outcome, ()> =
                    retry_with_backoff(retry_policy(spec), k, Some(&counters.retries), |_| {
                        match catch_unwind(AssertUnwindSafe(|| execute(k, &fault))) {
                            Ok(Ok(o)) => Ok(o),
                            Err(_) => Ok(Outcome::DuePanic),
                            Ok(Err(_transient)) => Err(()),
                        }
                    });
                let Ok(outcome) = ran else {
                    failed.fetch_add(1, Ordering::Relaxed);
                    continue;
                };
                if matches!(outcome, Outcome::DueHang | Outcome::DuePanic) {
                    if let Some(flight) = &spec.flight {
                        flight.note(
                            "inject_due",
                            &format!(
                                "k={k} target={} outcome={}",
                                fault.target.name(),
                                outcome.name()
                            ),
                        );
                    }
                }
                counters.record(outcome);
                shared_tally
                    .lock()
                    .expect("tally lock")
                    .record(fault.target, outcome);
                journal_append(
                    &writer,
                    &JournalRecord { k, fault, outcome },
                    spec,
                    &counters,
                );
            });
        }
    });

    // Final durability point: sync the partial batch.
    if let Some(w) = writer.lock().expect("journal lock").as_mut() {
        if w.sync().is_ok() {
            counters.flushes.inc();
        } else {
            counters.errors.inc();
        }
    }

    let tally = shared_tally.into_inner().expect("tally lock");
    let completed = tally.total();
    Ok(CampaignResult {
        tally,
        samples: spec.samples,
        completed,
        resumed,
        failed: failed.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rar_core::FaultTarget;
    use std::path::PathBuf;

    /// A pure mock injector: site fields are simple functions of `k`.
    struct MockInjector;

    impl FaultInjector for MockInjector {
        fn plan(&self, k: u64) -> PlannedFault {
            PlannedFault {
                cycle: 100 + k,
                target: FaultTarget::ALL[(k % 10) as usize],
                entry: k % 7,
                bit: k % 5,
            }
        }
    }

    /// Deterministic-by-`k` outcome classification.
    fn classify(k: u64) -> Outcome {
        match k % 5 {
            0 => Outcome::Vacant,
            1 | 2 => Outcome::Masked,
            3 => Outcome::Sdc,
            _ => Outcome::DueHang,
        }
    }

    fn tmp_journal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "rar-inject-campaign-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn tallies_are_identical_across_thread_counts() {
        let mut results = Vec::new();
        for threads in [1usize, 2, 8] {
            let spec = CampaignSpec {
                samples: 500,
                threads,
                ..CampaignSpec::default()
            };
            let r = run_campaign(&spec, &MockInjector, |k, _f| Ok(classify(k)), None)
                .expect("campaign");
            assert_eq!(r.completed, 500);
            assert_eq!(r.failed, 0);
            results.push(r.tally);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn kill_then_resume_matches_uninterrupted() {
        let path = tmp_journal("resume");
        std::fs::remove_file(&path).ok();

        let uninterrupted = run_campaign(
            &CampaignSpec {
                samples: 200,
                threads: 4,
                ..CampaignSpec::default()
            },
            &MockInjector,
            |k, _f| Ok(classify(k)),
            None,
        )
        .expect("campaign");

        // Phase 1: "killed" after 80 fresh injections. fsync_every=1 makes
        // every completion durable, like a crash right after a batch sync.
        let phase1 = run_campaign(
            &CampaignSpec {
                samples: 200,
                threads: 4,
                journal: Some(path.clone()),
                fsync_every: 1,
                limit: Some(80),
                ..CampaignSpec::default()
            },
            &MockInjector,
            |k, _f| Ok(classify(k)),
            None,
        )
        .expect("phase1");
        assert_eq!(phase1.completed, 80);

        // A kill mid-append tears the last record at any byte, its newline
        // included. Resume once with a limit, then again to completion:
        // the first resume must not fuse its appends onto the torn line.
        let bytes = std::fs::read(&path).expect("phase-1 journal");
        let last = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |nl| nl + 1);
        let torn = tmp_journal("resume-torn");
        for cut in last..bytes.len() {
            std::fs::write(&torn, &bytes[..cut]).expect("write torn journal");
            for limit in [Some(10), None] {
                let resumed = run_campaign(
                    &CampaignSpec {
                        samples: 200,
                        threads: 4,
                        journal: Some(torn.clone()),
                        fsync_every: 1,
                        limit,
                        ..CampaignSpec::default()
                    },
                    &MockInjector,
                    |k, _f| Ok(classify(k)),
                    None,
                )
                .unwrap_or_else(|e| panic!("resume after a cut at byte {cut}: {e}"));
                if limit.is_none() {
                    assert_eq!(resumed.completed, 200, "cut at byte {cut}");
                    assert_eq!(resumed.tally, uninterrupted.tally, "cut at byte {cut}");
                }
            }
        }
        std::fs::remove_file(&torn).ok();

        // Phase 2: resume with the same journal, run to completion.
        let reg = MetricsRegistry::new();
        let phase2 = run_campaign(
            &CampaignSpec {
                samples: 200,
                threads: 4,
                journal: Some(path.clone()),
                fsync_every: 16,
                ..CampaignSpec::default()
            },
            &MockInjector,
            |k, _f| Ok(classify(k)),
            Some(&reg),
        )
        .expect("phase2");

        assert_eq!(phase2.resumed, 80);
        assert_eq!(phase2.completed, 200);
        assert_eq!(phase2.tally, uninterrupted.tally);
        assert_eq!(reg.counter(names::INJECT_RESUMED).get(), 80);
        // Resumed + fresh all counted as runs.
        assert_eq!(reg.counter(names::INJECT_RUNS).get(), 200);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn panics_become_due_panic_not_campaign_aborts() {
        let spec = CampaignSpec {
            samples: 50,
            threads: 2,
            ..CampaignSpec::default()
        };
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let r = run_campaign(
            &spec,
            &MockInjector,
            |k, _f| {
                assert!(k % 10 != 7, "injected invariant violation");
                Ok(Outcome::Masked)
            },
            None,
        )
        .expect("campaign");
        std::panic::set_hook(hook);
        assert_eq!(r.completed, 50);
        let panics: u64 = FaultTarget::ALL
            .into_iter()
            .map(|t| r.tally.get(t).due_panic)
            .sum();
        assert_eq!(panics, 5); // k = 7, 17, 27, 37, 47
    }

    #[test]
    fn flight_recorder_captures_due_outcomes() {
        let flight = Arc::new(FlightRecorder::new(64));
        let spec = CampaignSpec {
            samples: 20,
            threads: 1,
            flight: Some(Arc::clone(&flight)),
            ..CampaignSpec::default()
        };
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let r = run_campaign(
            &spec,
            &MockInjector,
            |k, _f| {
                assert!(k != 7, "injected invariant violation");
                Ok(if k == 3 {
                    Outcome::DueHang
                } else {
                    Outcome::Masked
                })
            },
            None,
        )
        .expect("campaign");
        std::panic::set_hook(hook);
        assert_eq!(r.completed, 20);
        let events = flight.snapshot();
        assert_eq!(events.len(), 2); // k=3 hang + k=7 panic
        assert!(events.iter().all(|e| e.kind == "inject_due"));
        assert!(events.iter().any(|e| e.detail.contains("outcome=due_hang")));
        assert!(events
            .iter()
            .any(|e| e.detail.contains("k=7") && e.detail.contains("outcome=due_panic")));
        let dump = flight.dump_json("inject_due");
        assert!(dump.contains("\"rar-flight-v1\""));
    }

    #[test]
    fn persistent_transient_failures_degrade_gracefully() {
        let reg = MetricsRegistry::new();
        let spec = CampaignSpec {
            samples: 40,
            threads: 1,
            max_attempts: 2,
            ..CampaignSpec::default()
        };
        let r = run_campaign(
            &spec,
            &MockInjector,
            |k, _f| {
                if k % 8 == 3 {
                    Err("simulated transient I/O failure".to_owned())
                } else {
                    Ok(classify(k))
                }
            },
            Some(&reg),
        )
        .expect("campaign");
        assert_eq!(r.failed, 5); // k = 3, 11, 19, 27, 35
        assert_eq!(r.completed, 35);
        assert!(r.completed_fraction() < 1.0);
        assert_eq!(reg.counter(names::INJECT_RETRIES).get(), 10); // 2 attempts each
    }

    #[test]
    fn cancel_then_resume_matches_uninterrupted() {
        let path = tmp_journal("cancel");
        std::fs::remove_file(&path).ok();

        let uninterrupted = run_campaign(
            &CampaignSpec {
                samples: 200,
                threads: 4,
                ..CampaignSpec::default()
            },
            &MockInjector,
            |k, _f| Ok(classify(k)),
            None,
        )
        .expect("campaign");

        // Phase 1: cancel mid-campaign once some injections have run.
        // Workers stop claiming, but everything claimed lands journaled.
        let reg = MetricsRegistry::new();
        let token = CancelToken::new();
        let runs = reg.counter(names::INJECT_RUNS);
        let phase1 = std::thread::scope(|s| {
            s.spawn(|| {
                while runs.get() < 10 {
                    std::thread::yield_now();
                }
                token.cancel();
            });
            run_campaign(
                &CampaignSpec {
                    samples: 200,
                    threads: 4,
                    journal: Some(path.clone()),
                    fsync_every: 1,
                    cancel: Some(token.clone()),
                    ..CampaignSpec::default()
                },
                &MockInjector,
                |k, _f| {
                    // Slow the executor so the cancel lands mid-campaign
                    // instead of after a microsecond blast through 200
                    // instant injections.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    Ok(classify(k))
                },
                Some(&reg),
            )
        })
        .expect("phase1");
        assert!(phase1.completed >= 10, "cancel fired after 10 runs");
        assert!(
            phase1.completed < 200,
            "cancellation actually cut the campaign short"
        );

        // Phase 2: resume with the same journal and no token; the result
        // is identical to a never-canceled campaign.
        let phase2 = run_campaign(
            &CampaignSpec {
                samples: 200,
                threads: 4,
                journal: Some(path.clone()),
                ..CampaignSpec::default()
            },
            &MockInjector,
            |k, _f| Ok(classify(k)),
            None,
        )
        .expect("phase2");
        assert_eq!(phase2.resumed, phase1.completed);
        assert_eq!(phase2.completed, 200);
        assert_eq!(phase2.tally, uninterrupted.tally);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pre_canceled_campaign_claims_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let r = run_campaign(
            &CampaignSpec {
                samples: 100,
                threads: 2,
                cancel: Some(token),
                ..CampaignSpec::default()
            },
            &MockInjector,
            |k, _f| Ok(classify(k)),
            None,
        )
        .expect("campaign");
        assert_eq!(r.completed, 0);
        assert_eq!(r.failed, 0);
    }

    #[test]
    fn every_campaign_metric_is_registered() {
        let reg = MetricsRegistry::new();
        let spec = CampaignSpec {
            samples: 10,
            ..CampaignSpec::default()
        };
        run_campaign(&spec, &MockInjector, |k, _f| Ok(classify(k)), Some(&reg)).expect("campaign");
        let snapshot = reg.snapshot();
        for name in names::INJECT_ALL {
            assert!(
                snapshot.iter().any(|(n, _)| n == name),
                "{name} not registered"
            );
        }
    }
}
