//! The persistent priority job queue.
//!
//! Jobs are ordered by priority (higher first; ties in submission
//! order) and journaled to disk through the campaign journal's writer,
//! [`rar_inject::JournalWriter`]: one `submitted` event carrying the
//! full spec inline, appended and synced at once, and one terminal event
//! (`completed`, `canceled`, `failed`) when the job stops mattering,
//! synced in batches. A restarted daemon replays the journal and
//! re-enqueues every job without a terminal event — which covers both
//! jobs that were still queued and jobs that were *running* when the
//! process died (their work-unit progress is recovered separately: sweep
//! cells from the result cache, injections from their per-job campaign
//! journals).
//!
//! Both journals replay through [`rar_inject::journal::replay`]: a
//! malformed *final* line is a crash artifact and is skipped (and cut off
//! by [`JournalWriter::resume`] before the next append); malformed lines
//! anywhere else are corruption and refuse to load. A failed append is
//! cut back off by the writer, so a retried append never leaves a
//! half-line mid-file.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::io;
use std::path::Path;
use std::sync::{Condvar, Mutex};

use rar_chaos::{retry_with_backoff, RetryPolicy};
use rar_inject::JournalWriter;
use rar_telemetry::Counter;

use rar_trace::jsonv;

use crate::jobs::{JobPhase, JobSpec};

/// One queued job: identity plus spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedJob {
    /// Daemon-assigned id, dense from 1, stable across restarts.
    pub id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
}

/// Heap entry: max-heap on priority, then FIFO on id.
#[derive(Debug)]
struct Entry {
    priority: i64,
    job: QueuedJob,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.job.id.cmp(&self.job.id))
    }
}

#[derive(Debug)]
struct Inner {
    heap: BinaryHeap<Entry>,
    log: Option<JournalWriter>,
    next_id: u64,
    closed: bool,
}

/// The shared, journaled priority queue.
#[derive(Debug)]
pub struct JobQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
    /// Transient journal-append failures absorbed by retry
    /// (`rar_serve_journal_retries_total` when the server wires it up).
    retries: Counter,
}

impl JobQueue {
    /// Opens a queue, replaying `journal` when given. Returns the queue
    /// plus the jobs re-enqueued from the journal (submitted but never
    /// terminal), in priority order, so the server can rebuild handles.
    ///
    /// # Errors
    ///
    /// Journal I/O failures, or corruption before the final line.
    pub fn open(
        journal: Option<&Path>,
        fsync_every: usize,
        retries: Counter,
    ) -> io::Result<(JobQueue, Vec<QueuedJob>)> {
        let mut resumed: Vec<QueuedJob> = Vec::new();
        let mut next_id = 1;
        let mut log = None;
        if let Some(path) = journal {
            let (events, writer) =
                JournalWriter::resume(path, "queue journal", parse_event, fsync_every)?;
            for event in events {
                match event {
                    QueueEvent::Submitted(job) => {
                        next_id = next_id.max(job.id + 1);
                        // Dedup by id (last wins): a crash between a
                        // durable append and the client seeing the ack can
                        // legitimately resubmit the same id after restart.
                        resumed.retain(|j| j.id != job.id);
                        resumed.push(job);
                    }
                    QueueEvent::Terminal(id) => resumed.retain(|j| j.id != id),
                }
            }
            log = Some(writer);
        }
        let mut heap = BinaryHeap::new();
        for job in &resumed {
            heap.push(Entry {
                priority: job.spec.priority,
                job: job.clone(),
            });
        }
        resumed.sort_by(|a, b| b.spec.priority.cmp(&a.spec.priority).then(a.id.cmp(&b.id)));
        Ok((
            JobQueue {
                inner: Mutex::new(Inner {
                    heap,
                    log,
                    next_id,
                    closed: false,
                }),
                ready: Condvar::new(),
                retries,
            },
            resumed,
        ))
    }

    /// Submits a job: assigns the next id, journals it durably, enqueues
    /// it, and wakes one waiting worker.
    ///
    /// # Errors
    ///
    /// Journal write failures after retries (the job is NOT enqueued on
    /// error — a job that can't be made durable must not half-exist).
    /// Transient failures — torn writes, short writes, fsync errors — are
    /// rolled back and retried under the shared backoff helper, each
    /// counted in the queue's retry counter.
    pub fn submit(&self, spec: JobSpec) -> io::Result<QueuedJob> {
        // Jitter seed: retry sleeps never influence queue contents.
        const SUBMIT_RETRY_SEED: u64 = 0x9_0b5_eed;
        let mut inner = self.inner.lock().expect("queue lock");
        let id = inner.next_id;
        let job = QueuedJob { id, spec };
        if let Some(log) = inner.log.as_mut() {
            let line = format!(
                "{{\"event\":\"submitted\",\"id\":{id},\"spec\":{}}}",
                job.spec.to_json()
            );
            retry_with_backoff(
                RetryPolicy::quick(),
                SUBMIT_RETRY_SEED,
                Some(&self.retries),
                |_| log.append_durable(&line),
            )?;
        }
        inner.next_id += 1;
        inner.heap.push(Entry {
            priority: job.spec.priority,
            job: job.clone(),
        });
        drop(inner);
        self.ready.notify_one();
        Ok(job)
    }

    /// Blocks until a job is available (returning it) or the queue is
    /// closed (returning `None` — even with jobs still queued, which is
    /// exactly what keeps them journal-resumable across a shutdown).
    pub fn claim(&self) -> Option<QueuedJob> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if inner.closed {
                return None;
            }
            if let Some(entry) = inner.heap.pop() {
                return Some(entry.job);
            }
            inner = self.ready.wait(inner).expect("queue lock");
        }
    }

    /// Non-blocking [`JobQueue::claim`].
    pub fn try_claim(&self) -> Option<QueuedJob> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return None;
        }
        inner.heap.pop().map(|e| e.job)
    }

    /// Re-enqueues a job a worker claimed but could not finish (its
    /// thread panicked before running it). No journal write: the job's
    /// `submitted` event is still the latest durable word on it, exactly
    /// as if it had never been claimed.
    pub fn requeue(&self, job: QueuedJob) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.heap.push(Entry {
            priority: job.spec.priority,
            job,
        });
        drop(inner);
        self.ready.notify_one();
    }

    /// Removes a still-queued job (cancellation before a worker claimed
    /// it). Returns whether it was found in the heap.
    pub fn remove(&self, id: u64) -> bool {
        let mut inner = self.inner.lock().expect("queue lock");
        let before = inner.heap.len();
        let entries: Vec<Entry> = inner.heap.drain().filter(|e| e.job.id != id).collect();
        let removed = entries.len() < before;
        inner.heap.extend(entries);
        removed
    }

    /// Journals a terminal event for `id`. Journal failures here are
    /// reported but do not disturb in-memory state — the worst case is a
    /// finished job being re-run after a restart, which the result cache
    /// and campaign journals make cheap and idempotent.
    pub fn record_terminal(&self, id: u64, phase: JobPhase) {
        // Jitter seed: retry sleeps never influence queue contents.
        const TERMINAL_RETRY_SEED: u64 = 0x07e5_10b5;
        debug_assert!(phase.is_terminal());
        let mut inner = self.inner.lock().expect("queue lock");
        if let Some(log) = inner.log.as_mut() {
            let line = format!("{{\"event\":\"{}\",\"id\":{id}}}", phase.name());
            let appended = retry_with_backoff(
                RetryPolicy::quick(),
                TERMINAL_RETRY_SEED,
                Some(&self.retries),
                |_| log.append(&line).map(drop),
            );
            if let Err(e) = appended {
                eprintln!("[rar-serve] queue journal append failed: {e}");
            }
        }
    }

    /// Jobs currently queued (not yet claimed).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").heap.len()
    }

    /// Whether nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: every blocked and future [`JobQueue::claim`]
    /// returns `None`. Queued jobs stay journaled as non-terminal.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }
}

enum QueueEvent {
    Submitted(QueuedJob),
    Terminal(u64),
}

fn parse_event(line: &str) -> Option<QueueEvent> {
    let doc = jsonv::parse(line).ok()?;
    let id = doc.get("id")?.as_u64()?;
    match doc.get("event")?.as_str()? {
        "submitted" => {
            let spec = JobSpec::from_value(doc.get("spec")?).ok()?;
            Some(QueueEvent::Submitted(QueuedJob { id, spec }))
        }
        "completed" | "canceled" | "failed" => Some(QueueEvent::Terminal(id)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{InjectJob, JobKind, SweepJob};
    use rar_core::Technique;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

    fn tmp_journal(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "rar-serve-queue-{tag}-{}-{}.jsonl",
            std::process::id(),
            SEQ.fetch_add(1, AtomicOrdering::Relaxed)
        ))
    }

    fn spec(priority: i64) -> JobSpec {
        JobSpec {
            priority,
            kind: JobKind::Sweep(SweepJob {
                workloads: vec!["mcf".to_owned()],
                techniques: vec![Technique::Rar],
                seeds: vec![1],
                instructions: 1_000,
                warmup: 100,
            }),
        }
    }

    #[test]
    fn claims_follow_priority_then_submission_order() {
        let (queue, resumed) = JobQueue::open(None, 1, Counter::default()).expect("open");
        assert!(resumed.is_empty());
        let low = queue.submit(spec(0)).expect("submit").id;
        let mid_a = queue.submit(spec(5)).expect("submit").id;
        let mid_b = queue.submit(spec(5)).expect("submit").id;
        let high = queue.submit(spec(9)).expect("submit").id;
        let order: Vec<u64> = std::iter::from_fn(|| queue.try_claim())
            .map(|j| j.id)
            .collect();
        assert_eq!(order, vec![high, mid_a, mid_b, low]);
    }

    #[test]
    fn restart_resumes_exactly_the_non_terminal_jobs() {
        let path = tmp_journal("resume");
        let ids: Vec<u64>;
        {
            let (queue, _) = JobQueue::open(Some(&path), 1, Counter::default()).expect("open");
            ids = (0..4)
                .map(|p| queue.submit(spec(p)).expect("submit").id)
                .collect();
            // One finished, one canceled; two still owed.
            queue.record_terminal(ids[0], JobPhase::Completed);
            queue.record_terminal(ids[2], JobPhase::Canceled);
        }
        let (queue, resumed) = JobQueue::open(Some(&path), 1, Counter::default()).expect("reopen");
        let resumed_ids: Vec<u64> = resumed.iter().map(|j| j.id).collect();
        assert_eq!(resumed_ids, vec![ids[3], ids[1]], "priority order");
        assert_eq!(resumed[0].spec, spec(3));
        // Ids keep growing past everything ever journaled.
        let next = queue.submit(spec(1)).expect("submit").id;
        assert_eq!(next, ids[3] + 1);
        assert_eq!(queue.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_skipped_but_corruption_refuses_to_load() {
        let path = tmp_journal("torn");
        {
            let (queue, _) = JobQueue::open(Some(&path), 1, Counter::default()).expect("open");
            queue.submit(spec(1)).expect("submit");
        }
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("{\"event\":\"submitted\",\"id\":2,\"spe");
        std::fs::write(&path, &text).expect("write");
        let (_, resumed) =
            JobQueue::open(Some(&path), 1, Counter::default()).expect("open with torn tail");
        assert_eq!(resumed.len(), 1);

        let corrupt = text.replace(
            "{\"event\":\"submitted\",\"id\":1",
            "{\"event\":\"garbage!!,\"id\":1",
        );
        std::fs::write(&path, corrupt).expect("write");
        let err =
            JobQueue::open(Some(&path), 1, Counter::default()).expect_err("must refuse corruption");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn remove_unqueues_and_close_releases_blocked_claims() {
        let (queue, _) = JobQueue::open(None, 1, Counter::default()).expect("open");
        let a = queue.submit(spec(1)).expect("submit").id;
        assert!(queue.remove(a));
        assert!(!queue.remove(a), "already gone");
        assert!(queue.is_empty());
        std::thread::scope(|s| {
            let waiter = s.spawn(|| queue.claim());
            queue.close();
            assert_eq!(waiter.join().expect("join"), None);
        });
        assert_eq!(queue.try_claim(), None, "closed queues claim nothing");
    }

    #[test]
    fn inject_specs_survive_the_journal_round_trip() {
        let path = tmp_journal("inject");
        let spec = JobSpec {
            priority: 2,
            kind: JobKind::Inject(InjectJob {
                workload: "milc".to_owned(),
                samples: 50,
                inject_seed: 7,
                instructions: 2_000,
                warmup: 300,
                threads: 2,
            }),
        };
        {
            let (queue, _) = JobQueue::open(Some(&path), 1, Counter::default()).expect("open");
            queue.submit(spec.clone()).expect("submit");
        }
        let (_, resumed) = JobQueue::open(Some(&path), 1, Counter::default()).expect("reopen");
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].spec, spec);
        std::fs::remove_file(&path).ok();
    }
}
