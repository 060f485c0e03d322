//! Job specifications: what a client may ask the daemon to run.
//!
//! Three request kinds map onto two internal shapes: a `sweep` (the cross
//! product of workloads × techniques × seeds), an `inject` campaign (the
//! same paired OoO/RAR cross-validation experiment the `inject` CLI
//! subcommand runs, so daemon output diffs byte-identically against CLI
//! goldens), and `single` — sugar for a one-cell sweep.
//!
//! A spec is one flat JSON object. Request bodies are read with the
//! workspace's JSON reader, [`rar_trace::jsonv`], so they may use any
//! valid JSON whitespace, key order and string escapes; unknown members
//! are ignored and a duplicate member is an error. Rendering and parsing
//! round-trip exactly — the queue journal persists specs through
//! [`JobSpec::to_json`], and a restarted daemon re-parses them with
//! [`JobSpec::parse`].

use std::borrow::Cow;

use rar_core::Technique;
use rar_sim::SimConfig;
use rar_trace::jsonv::{self, escape, Value};

/// Most campaign threads an inject job may ask for. A fixed number, not
/// the host's core count: journal replay parses specs with the same
/// function, so a spec accepted on one host must replay on any other.
pub const MAX_THREADS: u64 = 64;
/// Most injections per technique an inject job may ask for.
pub const MAX_SAMPLES: u64 = 1_000_000;
/// Most cells (workloads x techniques x max(seeds, 1)) a sweep may cover.
pub const MAX_SWEEP_CELLS: u64 = 4_096;
/// Most `warmup + instructions` one run may ask for. One (workload, seed)
/// key's trace prefix and refinement must fit the sweep session's 32 MiB
/// artifact store: at this budget the largest key over every workload at
/// seeds 1-3 (gcc, seed 2) takes 31.5 MiB, and the first budget that no
/// longer fits is 453,286.
pub const MAX_RUN_UOPS: u64 = 400_000;

/// A job's lifecycle phase, as reported by `GET /v1/jobs/{id}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Accepted, journaled, waiting for a worker.
    Queued,
    /// Claimed by a pool worker.
    Running,
    /// Every unit of work finished and its result is available.
    Completed,
    /// Cooperatively canceled; finished units keep their results.
    Canceled,
    /// Finished with at least one failed unit of work.
    Failed,
}

impl JobPhase {
    /// The wire name (`"queued"`, `"running"`, ...).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Completed => "completed",
            JobPhase::Canceled => "canceled",
            JobPhase::Failed => "failed",
        }
    }

    /// Whether the job can no longer change state.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobPhase::Completed | JobPhase::Canceled | JobPhase::Failed
        )
    }
}

/// A sweep job: the cross product of its axes, run cell by cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepJob {
    /// Workload names (validated per cell by [`SimConfig::validate`]).
    pub workloads: Vec<String>,
    /// Techniques to run each workload under.
    pub techniques: Vec<Technique>,
    /// Workload seeds; empty means the config-default seed.
    pub seeds: Vec<u64>,
    /// Instructions per run.
    pub instructions: u64,
    /// Warmup instructions per run.
    pub warmup: u64,
}

impl SweepJob {
    /// Expands the axes into one [`SimConfig`] per cell, in a stable
    /// workload-major order.
    #[must_use]
    pub fn configs(&self) -> Vec<SimConfig> {
        let mut out = Vec::new();
        let seeds: Vec<Option<u64>> = if self.seeds.is_empty() {
            vec![None]
        } else {
            self.seeds.iter().copied().map(Some).collect()
        };
        for w in &self.workloads {
            for &t in &self.techniques {
                for &seed in &seeds {
                    let mut b = SimConfig::builder();
                    b.workload(w)
                        .technique(t)
                        .instructions(self.instructions)
                        .warmup(self.warmup);
                    if let Some(s) = seed {
                        b.seed(s);
                    }
                    out.push(b.build());
                }
            }
        }
        out
    }
}

/// An injection-campaign job: `samples` injections under OoO and under
/// RAR, exactly like `rar-experiments inject`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectJob {
    /// Workload under injection.
    pub workload: String,
    /// Total sample indices per technique.
    pub samples: u64,
    /// Fault-site planning seed.
    pub inject_seed: u64,
    /// Instructions per run.
    pub instructions: u64,
    /// Warmup instructions per run.
    pub warmup: u64,
    /// Campaign worker threads (results are thread-count invariant).
    pub threads: usize,
}

/// What a job does, behind the shared priority/identity envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// A grid of simulations.
    Sweep(SweepJob),
    /// A paired fault-injection campaign.
    Inject(InjectJob),
}

/// One submitted job: scheduling priority plus the work itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Higher runs first; ties claim in submission order.
    pub priority: i64,
    /// The work.
    pub kind: JobKind,
}

impl JobSpec {
    /// Units of work the job covers (sweep cells, or injections across
    /// both techniques) — the denominator for progress reporting.
    #[must_use]
    pub fn total_units(&self) -> u64 {
        match &self.kind {
            JobKind::Sweep(s) => {
                let seeds = s.seeds.len().max(1);
                (s.workloads.len() * s.techniques.len() * seeds) as u64
            }
            JobKind::Inject(i) => i.samples * 2,
        }
    }

    /// Renders the spec as one flat JSON object (round-trips through
    /// [`JobSpec::parse`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        match &self.kind {
            JobKind::Sweep(s) => {
                let workloads: Vec<String> = s
                    .workloads
                    .iter()
                    .map(|w| format!("\"{}\"", escape(w)))
                    .collect();
                let techniques: Vec<String> = s
                    .techniques
                    .iter()
                    .map(|t| format!("\"{}\"", t.to_string().to_ascii_lowercase()))
                    .collect();
                let seeds: Vec<String> = s.seeds.iter().map(u64::to_string).collect();
                format!(
                    "{{\"kind\":\"sweep\",\"priority\":{},\"workloads\":[{}],\
                     \"techniques\":[{}],\"seeds\":[{}],\"instructions\":{},\"warmup\":{}}}",
                    self.priority,
                    workloads.join(","),
                    techniques.join(","),
                    seeds.join(","),
                    s.instructions,
                    s.warmup
                )
            }
            JobKind::Inject(i) => format!(
                "{{\"kind\":\"inject\",\"priority\":{},\"workload\":\"{}\",\
                 \"samples\":{},\"inject_seed\":{},\"instructions\":{},\"warmup\":{},\"threads\":{}}}",
                self.priority, escape(&i.workload), i.samples, i.inject_seed, i.instructions, i.warmup, i.threads
            ),
        }
    }

    /// Parses a spec from a request body or a journaled line.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found (not a
    /// JSON object, unknown kind, missing or mistyped field, empty axis,
    /// unknown technique, a value over its `MAX_*` limit).
    pub fn parse(text: &str) -> Result<JobSpec, String> {
        let doc = jsonv::parse(text).map_err(|e| format!("job spec must be a JSON object: {e}"))?;
        JobSpec::from_value(&doc)
    }

    /// Reads a spec from an already-parsed JSON value, such as the
    /// `"spec"` member of a queue-journal line.
    pub(crate) fn from_value(doc: &Value<'_>) -> Result<JobSpec, String> {
        if !matches!(doc, Value::Object(_)) {
            return Err("job spec must be a JSON object".to_owned());
        }
        let str_member = |key| member(doc, key, Value::as_str);
        let u64_member = |key| member(doc, key, Value::as_u64);
        let priority = member(doc, "priority", Value::as_i64)?.unwrap_or(0);
        let instructions = u64_member("instructions")?.unwrap_or(2_000);
        let warmup = u64_member("warmup")?.unwrap_or(300);
        let run_uops = warmup.saturating_add(instructions);
        at_most(run_uops, "\"warmup\" + \"instructions\"", MAX_RUN_UOPS)?;
        match str_member("kind")? {
            Some("sweep") => {
                let workloads = array_member(doc, "workloads", Value::as_str)?
                    .ok_or("sweep requires \"workloads\": [..]")?;
                let technique_names = array_member(doc, "techniques", Value::as_str)?
                    .ok_or("sweep requires \"techniques\": [..]")?;
                if workloads.is_empty() || technique_names.is_empty() {
                    return Err("sweep axes must be non-empty".to_owned());
                }
                let seeds = array_member(doc, "seeds", Value::as_u64)?.unwrap_or_default();
                let cells = [workloads.len(), technique_names.len(), seeds.len().max(1)]
                    .into_iter()
                    .fold(1u64, |n, axis| n.saturating_mul(axis as u64));
                let what = "sweep cells (\"workloads\" x \"techniques\" x \"seeds\")";
                at_most(cells, what, MAX_SWEEP_CELLS)?;
                Ok(JobSpec {
                    priority,
                    kind: JobKind::Sweep(SweepJob {
                        workloads: workloads.into_iter().map(str::to_owned).collect(),
                        techniques: parse_techniques(&technique_names)?,
                        seeds,
                        instructions,
                        warmup,
                    }),
                })
            }
            Some("single") => {
                let workload = str_member("workload")?.ok_or("single requires \"workload\"")?;
                let technique = str_member("technique")?.unwrap_or("rar");
                Ok(JobSpec {
                    priority,
                    kind: JobKind::Sweep(SweepJob {
                        workloads: vec![workload.to_owned()],
                        techniques: parse_techniques(&[technique])?,
                        seeds: u64_member("seed")?.into_iter().collect(),
                        instructions,
                        warmup,
                    }),
                })
            }
            Some("inject") => Ok(JobSpec {
                priority,
                kind: JobKind::Inject(InjectJob {
                    workload: str_member("workload")?
                        .ok_or("inject requires \"workload\"")?
                        .to_owned(),
                    samples: at_most(
                        u64_member("samples")?.unwrap_or(1_000),
                        "\"samples\"",
                        MAX_SAMPLES,
                    )?,
                    inject_seed: u64_member("inject_seed")?.unwrap_or(1),
                    instructions,
                    warmup,
                    threads: at_most(
                        u64_member("threads")?.unwrap_or(1),
                        "\"threads\"",
                        MAX_THREADS,
                    )?
                    .max(1) as usize,
                }),
            }),
            Some(other) => Err(format!("unknown job kind {other:?}")),
            None => Err("job spec requires \"kind\"".to_owned()),
        }
    }
}

/// `n`, or an error naming `what` when `n` exceeds `max`.
fn at_most(n: u64, what: &str, max: u64) -> Result<u64, String> {
    if n > max {
        return Err(format!("{what} must be at most {max}, got {n}"));
    }
    Ok(n)
}

fn parse_techniques(names: &[&str]) -> Result<Vec<Technique>, String> {
    names
        .iter()
        .map(|n| Technique::parse(n).ok_or_else(|| format!("unknown technique {n:?}")))
        .collect()
}

/// The member `key` of `doc` read by `read`: `Ok(None)` when absent, an
/// error when present with the wrong type.
fn member<'v, 'a, T>(
    doc: &'v Value<'a>,
    key: &str,
    read: impl Fn(&'v Value<'a>) -> Option<T>,
) -> Result<Option<T>, String> {
    doc.get(key)
        .map(|v| read(v).ok_or_else(|| format!("bad {key} {v:?}")))
        .transpose()
}

/// The array member `key` of `doc`, each element read by `read`.
fn array_member<'v, 'a, T>(
    doc: &'v Value<'a>,
    key: &str,
    read: impl Fn(&'v Value<'a>) -> Option<T>,
) -> Result<Option<Vec<T>>, String> {
    let Some(items) = member(doc, key, Value::as_array)? else {
        return Ok(None);
    };
    items
        .iter()
        .map(|v| read(v).ok_or_else(|| format!("bad {key} entry {v:?}")))
        .collect::<Result<Vec<T>, String>>()
        .map(Some)
}

/// The raw text of the top-level scalar member `key` of the JSON object
/// `text`: a string's contents, a number's token, or `true`, `false` or
/// `null`. `None` when `text` is not valid JSON, or the member is absent,
/// is an array or object, or is a string holding escape sequences (read
/// those with [`rar_trace::jsonv`]).
#[must_use]
pub fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    match jsonv::parse(text).ok()?.get(key)? {
        Value::String(Cow::Borrowed(s)) | Value::Number(s) => Some(s),
        Value::Bool(true) => Some("true"),
        Value::Bool(false) => Some("false"),
        Value::Null => Some("null"),
        _ => None,
    }
}

/// The top-level member `key` of the JSON object `text` as a `u64`;
/// distinguishes absent (`Ok(None)`, also when `text` is not valid JSON)
/// from malformed (`Err`).
///
/// # Errors
///
/// The key is present but its value is not a `u64` number.
pub fn u64_field(text: &str, key: &str) -> Result<Option<u64>, String> {
    match jsonv::parse(text) {
        Ok(doc) => member(&doc, key, Value::as_u64),
        Err(_) => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_spec() -> JobSpec {
        JobSpec {
            priority: 5,
            kind: JobKind::Sweep(SweepJob {
                workloads: vec!["mcf".to_owned(), "milc".to_owned()],
                techniques: vec![Technique::Ooo, Technique::Rar],
                seeds: vec![1, 2],
                instructions: 2_000,
                warmup: 300,
            }),
        }
    }

    #[test]
    fn specs_round_trip_through_json() {
        let inject = JobSpec {
            priority: -1,
            kind: JobKind::Inject(InjectJob {
                workload: "mcf".to_owned(),
                samples: 50,
                inject_seed: 7,
                instructions: 2_000,
                warmup: 300,
                threads: 2,
            }),
        };
        for spec in [sweep_spec(), inject] {
            let json = spec.to_json();
            assert_eq!(JobSpec::parse(&json), Ok(spec), "{json}");
        }

        // Bodies from other writers: Python `json.dumps` whitespace, a
        // nested member and a key name inside a string value ahead of the
        // real key, and `,`, `}` and `"` inside string values.
        let single = |workload: &str| JobSpec {
            priority: 0,
            kind: JobKind::Sweep(SweepJob {
                workloads: vec![workload.to_owned()],
                techniques: vec![Technique::Rar],
                seeds: Vec::new(),
                instructions: 2_000,
                warmup: 300,
            }),
        };
        let dumps = "{\"kind\": \"sweep\", \"priority\": 5, \"workloads\": [\"mcf\", \"milc\"], \
                     \"techniques\": [\"ooo\", \"rar\"], \"seeds\": [1, 2]}";
        assert_eq!(JobSpec::parse(dumps).map(|s| s.total_units()), Ok(8));
        for (body, spec) in [
            (dumps, sweep_spec()),
            (
                "{\"note\": \"\\\"workload\\\": \\\"lbm\\\"\", \"kind\": \"single\", \"workload\": \"mcf\"}",
                single("mcf"),
            ),
            (
                "{\"kind\":\"single\",\"meta\":{\"workload\":\"lbm\"},\"workload\":\"mcf\"}",
                single("mcf"),
            ),
            ("{\"kind\":\"single\",\"workload\":\"mcf, milc\"}", single("mcf, milc")),
            ("{\"kind\":\"single\",\"workload\":\"{mcf}\"}", single("{mcf}")),
            ("{\"kind\":\"single\",\"workload\":\"a\\\"b\"}", single("a\"b")),
        ] {
            assert_eq!(JobSpec::parse(body).as_ref(), Ok(&spec), "{body}");
            let json = spec.to_json();
            assert_eq!(JobSpec::parse(&json), Ok(spec), "{json}");
        }
    }

    #[test]
    fn sweep_configs_are_the_cross_product() {
        let spec = sweep_spec();
        assert_eq!(spec.total_units(), 8);
        let JobKind::Sweep(s) = &spec.kind else {
            unreachable!()
        };
        let configs = s.configs();
        assert_eq!(configs.len(), 8);
        assert!(configs.iter().all(|c| c.validate().is_ok()));
        // Stable order: workload-major, then technique, then seed.
        assert_eq!(configs[0].workload, "mcf");
        assert_eq!(configs[7].workload, "milc");
    }

    #[test]
    fn single_is_sugar_for_a_one_cell_sweep() {
        let spec =
            JobSpec::parse("{\"kind\":\"single\",\"workload\":\"mcf\",\"technique\":\"rar\"}")
                .expect("parse");
        assert_eq!(spec.total_units(), 1);
        let JobKind::Sweep(s) = &spec.kind else {
            panic!("single must become a sweep")
        };
        assert_eq!(s.configs()[0].technique, Technique::Rar);
    }

    #[test]
    fn malformed_specs_are_descriptive_errors() {
        for (body, needle) in [
            ("not json", "JSON object"),
            ("{\"kind\":\"dance\"}", "unknown job kind"),
            ("{\"priority\":0}", "requires \"kind\""),
            (
                "{\"kind\":\"sweep\",\"workloads\":[],\"techniques\":[]}",
                "non-empty",
            ),
            (
                "{\"kind\":\"sweep\",\"workloads\":[\"mcf\"],\"techniques\":[\"warp\"]}",
                "unknown technique",
            ),
            ("{\"kind\":\"inject\"}", "requires \"workload\""),
            (
                "{\"kind\":\"single\",\"kind\":\"inject\",\"workload\":\"mcf\"}",
                "duplicate",
            ),
            ("{\"kind\":\"single\",\"workload\":\"mcf\",}", "JSON object"),
            ("{\"kind\":\"single\",\"workload\":\"mcf\",\"seed\":\"7\"}", "bad seed"),
            (
                "{\"kind\": \"sweep\", \"workloads\": [\"mcf\"], \"techniques\": [\"rar\"], \"seeds\": [1, -2]}",
                "bad seeds entry",
            ),
        ] {
            let err = JobSpec::parse(body).expect_err(body);
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn phases_name_and_terminate_consistently() {
        for (phase, name, terminal) in [
            (JobPhase::Queued, "queued", false),
            (JobPhase::Running, "running", false),
            (JobPhase::Completed, "completed", true),
            (JobPhase::Canceled, "canceled", true),
            (JobPhase::Failed, "failed", true),
        ] {
            assert_eq!(phase.name(), name);
            assert_eq!(phase.is_terminal(), terminal);
        }
    }
}
