//! Regenerates the paper's tables and figures.
//!
//! ```text
//! rar-experiments <fig1|fig3|fig4|fig5|fig7|fig8|fig9|fig10|fig11|table4|mpki|protection|seeds|energy|extensions|structures|refinement|all>
//!                 [--instructions N] [--warmup N] [--seed N]
//!                 [--suite memory|compute|all] [--csv DIR] [--seeds N]
//!                 [--cache DIR] [--no-cache] [--manifest-out PATH] [--stalls]
//! rar-experiments trace --workload W --technique T
//!                 [--instructions N] [--warmup N] [--seed N]
//!                 [--out DIR] [--capacity N] [--sample N]
//! rar-experiments report [--dir DIR] [--out PATH] [--check]
//!                 [--manifest PATH] [--min-hit-rate F]
//! rar-experiments inject [--workload W] [--samples N] [--inject-seed N]
//!                 [--instructions N] [--warmup N] [--seed N]
//!                 [--threads N] [--journal PATH] [--tally-out PATH]
//!                 [--flight-out PATH] [--max N] [--validate-bitlive]
//! rar-experiments serve [--addr A] [--data-dir DIR] [--workers N]
//!                 [--conn-threads N] [--no-cache] [--fsync-every N]
//! rar-experiments submit --server ADDR (--spec JSON | --spec-file PATH)
//!                 [--wait] [--timeout SECS] [--out PATH] [--result N]
//! rar-experiments status|cancel|events --server ADDR --id N
//! rar-experiments metrics|shutdown --server ADDR
//! ```
//!
//! Each figure subcommand prints the paper-shaped table to stdout; `--csv
//! DIR` additionally writes `<name>.csv` files into `DIR`. Finished runs
//! are memoized on disk under `--cache` (default `results/cache`; disable
//! with `--no-cache`), so rerunning a figure — or another figure sharing
//! cells with it — replays cached results bit-identically instead of
//! resimulating. Each invocation also writes its run manifest to
//! `--manifest-out` (default `manifest.json`), the one record of the run:
//! cell counts, cache hit rate, throughput, and the telemetry registry,
//! including the host wall-clock time per phase (trace generation, core
//! simulation, liveness, cache probe/store, serialization). Profiling
//! never changes results. `--stalls` turns on the guest-side cycle-loop
//! stall profiler: every simulated cycle is attributed to one
//! stall-taxonomy bucket, and the manifest gains the per-bucket
//! `rar_stall_*_cycles_total` counters, the total and the quiescent-cycle
//! fraction. Results stay bit-identical, but stall-profiled sessions
//! bypass the disk cache so cached artifacts remain byte-stable.
//!
//! The `inject` subcommand runs a statistical fault-injection campaign
//! (baseline OoO and RAR back to back) and prints per-structure measured
//! vulnerability with 95% confidence intervals next to the ACE-estimated
//! AVF (unrefined and liveness-refined) from the same golden runs — the
//! cross-validation experiment. `--journal PATH` makes the campaign
//! crash-tolerant: progress is checkpointed per injection (one journal
//! per technique, suffixed `.ooo`/`.rar`) and an interrupted campaign
//! resumes exactly; `--max N` stops after N fresh injections (useful with
//! a journal to split a long campaign across invocations); `--tally-out`
//! writes the byte-stable integer tally JSON the CI smoke job diffs;
//! `--flight-out` records every DUE outcome (sample index, target, kind)
//! into a bounded flight ring and writes the `rar-flight-v1` post-mortem
//! dump there after the campaign.
//! `--validate-bitlive` switches to the bit-liveness soundness audit:
//! strikes restricted to the register files, every outcome stratified by
//! the static per-bit dead prediction, and a hard gate — the
//! predicted-dead stratum's measured vulnerability must be statistically
//! consistent with zero at 95% confidence or the command exits non-zero.
//! In this mode `--tally-out` writes the stratified
//! `rar-bitlive-validation-v1` JSON (the `bitlive_golden.json` CI diff).
//!
//! The `trace` subcommand runs one traced simulation and writes a Chrome
//! trace, a Konata log and CSV tables into `--out` (default
//! `results/traces`). The `report` subcommand renders the self-contained
//! HTML dashboard from the `manifest*.json` files under `--dir` plus the
//! gated manifest (`--manifest`, default `{dir}/manifest.json`), and with
//! `--check` exits non-zero when it found no manifest, when any of them
//! fails schema validation, or when the gated one misses the
//! `--min-hit-rate` floor: the CI cache gate.
//!
//! The `serve` subcommand runs the long-lived campaign daemon (see the
//! `rar-serve` crate): a persistent priority job queue, a shared worker
//! pool over one sweep session (so the result cache and single-flight
//! dedup span clients), and live telemetry endpoints. The remaining
//! subcommands are the thin client: `submit` posts a job spec (add
//! `--wait` to poll to completion and `--out` to save one raw result
//! document), `status`/`cancel`/`events` address a job by `--id`
//! (`events` tails the chunked progress stream to stdout), and
//! `metrics`/`shutdown` address the daemon itself.

use rar_serve::{CampaignServer, ServeClient, ServeOptions};
use rar_sim::dashboard::{check_manifests, render_dashboard};
use rar_sim::experiment::{self, ExperimentOptions, Suite};
use rar_sim::sweep::SweepSession;
use rar_sim::{SimConfig, Simulation, Table, TraceSettings};
use rar_telemetry::WallProfiler;
use rar_trace::TraceEvent;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: rar-experiments <fig1|fig3|fig4|fig5|fig7|fig8|fig9|fig10|fig11|table4|mpki|protection|seeds|energy|extensions|structures|refinement|all> \
         [--instructions N] [--warmup N] [--seed N] [--suite memory|compute|all] [--csv DIR] [--seeds N] \
         [--cache DIR] [--no-cache] [--manifest-out PATH] [--stalls]\n\
       rar-experiments trace --workload W --technique T [--instructions N] [--warmup N] [--seed N] \
         [--out DIR] [--capacity N] [--sample N]\n\
       rar-experiments report [--dir DIR] [--out PATH] [--check] [--manifest PATH] \
         [--min-hit-rate F]\n\
       rar-experiments inject [--workload W] [--samples N] [--inject-seed N] [--instructions N] \
         [--warmup N] [--seed N] [--threads N] [--journal PATH] [--tally-out PATH] [--max N] \
         [--flight-out PATH] [--validate-bitlive]\n\
       rar-experiments serve [--addr A] [--data-dir DIR] [--workers N] [--conn-threads N] \
                             [--max-queued N] [--request-timeout SECS] [--worker-restarts N] \
         [--no-cache] [--fsync-every N]\n\
       rar-experiments submit --server ADDR (--spec JSON | --spec-file PATH) [--wait] \
         [--timeout SECS] [--out PATH] [--result N]\n\
       rar-experiments status|cancel|events --server ADDR --id N [--timeout SECS]\n\
       rar-experiments metrics|shutdown --server ADDR [--drain]"
    );
    ExitCode::from(2)
}

/// Reads every `manifest*.json` under `dir` as `(file name, contents)`,
/// sorted by name so the dashboard is deterministic.
fn collect_manifests(dir: &str) -> Vec<(String, String)> {
    let mut manifests = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("[rar-sim] cannot read {dir}: {e}");
            return manifests;
        }
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("manifest") && name.ends_with(".json")) {
            continue;
        }
        match std::fs::read_to_string(entry.path()) {
            Ok(text) => manifests.push((name, text)),
            Err(e) => eprintln!("[rar-sim] skipping unreadable {name}: {e}"),
        }
    }
    manifests.sort();
    manifests
}

/// The `report` subcommand: dashboard rendering plus the CI gate.
fn report_cmd(args: &[String]) -> ExitCode {
    let mut dir = ".".to_owned();
    let mut out = "dashboard.html".to_owned();
    let mut check = false;
    let mut manifest_path: Option<String> = None;
    let mut min_hit_rate: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--check" {
            check = true;
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            eprintln!("missing value for {flag}");
            return usage();
        };
        match flag {
            "--dir" => dir = value.clone(),
            "--out" => out = value.clone(),
            "--manifest" => manifest_path = Some(value.clone()),
            "--min-hit-rate" => match value.parse() {
                Ok(f) => min_hit_rate = Some(f),
                Err(_) => return usage(),
            },
            _ => return usage(),
        }
        i += 2;
    }

    let mut manifests = collect_manifests(&dir);
    // The gated manifest: --manifest, or the conventional manifest.json.
    // One that is not among the directory's joins them under its path.
    let named = manifest_path.is_some();
    let gated_path = manifest_path.unwrap_or_else(|| format!("{dir}/manifest.json"));
    let gated = std::fs::read_to_string(&gated_path).map(|text| {
        manifests
            .iter()
            .position(|(_, t)| *t == text)
            .unwrap_or_else(|| {
                manifests.push((gated_path.clone(), text));
                manifests.len() - 1
            })
    });
    let html = render_dashboard(&manifests);
    if let Err(e) = std::fs::write(&out, html) {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out} ({} manifests)", manifests.len());
    if !check {
        return ExitCode::SUCCESS;
    }

    // The gated manifest must be readable when named or floored.
    if let Err(e) = &gated {
        if named || min_hit_rate.is_some() {
            eprintln!("[rar-sim] report check: cannot read gated manifest {gated_path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let problems = check_manifests(&manifests, gated.ok(), min_hit_rate);
    if problems.is_empty() {
        println!(
            "report check passed ({} manifests validated)",
            manifests.len()
        );
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("[rar-sim] report check: {p}");
        }
        ExitCode::FAILURE
    }
}

/// The `inject` subcommand: statistical fault-injection campaigns that
/// cross-validate the ACE-estimated AVF, baseline vs RAR.
fn inject_cmd(args: &[String]) -> ExitCode {
    use rar_core::{FaultTarget, Technique};
    use rar_inject::{CampaignSpec, Stratum};
    use rar_sim::inject::{paired, paired_journal, run_bitlive_validation, run_injection_campaign};

    let mut workload = "mcf".to_owned();
    let mut warmup: u64 = 300;
    let mut instructions: u64 = 2_000;
    let mut sim_seed: Option<u64> = None;
    let mut samples: u64 = 1_000;
    let mut inject_seed: u64 = 1;
    let mut threads = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let mut journal: Option<String> = None;
    let mut tally_out: Option<String> = None;
    let mut flight_out: Option<String> = None;
    let mut limit: Option<u64> = None;
    let mut validate_bitlive = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--validate-bitlive" {
            validate_bitlive = true;
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            eprintln!("missing value for {flag}");
            return usage();
        };
        match flag {
            "--workload" => workload = value.clone(),
            "--warmup" => match value.parse() {
                Ok(n) => warmup = n,
                Err(_) => return usage(),
            },
            "--instructions" => match value.parse() {
                Ok(n) => instructions = n,
                Err(_) => return usage(),
            },
            "--seed" => match value.parse() {
                Ok(n) => sim_seed = Some(n),
                Err(_) => return usage(),
            },
            "--samples" => match value.parse() {
                Ok(n) => samples = n,
                Err(_) => return usage(),
            },
            "--inject-seed" => match value.parse() {
                Ok(n) => inject_seed = n,
                Err(_) => return usage(),
            },
            "--threads" => match value.parse::<usize>() {
                Ok(n) => threads = n.max(1),
                Err(_) => return usage(),
            },
            "--journal" => journal = Some(value.clone()),
            "--tally-out" => tally_out = Some(value.clone()),
            "--flight-out" => flight_out = Some(value.clone()),
            "--max" => match value.parse() {
                Ok(n) => limit = Some(n),
                Err(_) => return usage(),
            },
            _ => return usage(),
        }
        i += 2;
    }

    if validate_bitlive && journal.is_some() {
        eprintln!(
            "inject: --journal is not supported with --validate-bitlive \
             (journal replay cannot restore prediction strata)"
        );
        return ExitCode::from(2);
    }
    // One journal per technique; fail up front with a typed diagnostic
    // (directory, unwritable parent, ...) instead of panicking
    // mid-campaign.
    let journal = journal.map(std::path::PathBuf::from);
    for technique in [Technique::Ooo, Technique::Rar] {
        if let Some(base) = &journal {
            if let Err(e) = rar_inject::validate_journal_path(&paired_journal(base, technique)) {
                eprintln!("inject: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let mut b = SimConfig::builder();
    b.workload(&workload)
        .warmup(warmup)
        .instructions(instructions);
    if let Some(s) = sim_seed {
        b.seed(s);
    }
    let harnesses = match paired(&b.build()) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };

    // The bit-liveness validation mode: strikes restricted to the
    // register files, outcomes stratified by the static per-bit dead
    // prediction, and a hard soundness gate — predicted-dead bits must
    // show vulnerability statistically consistent with zero at 95%
    // confidence, otherwise exit non-zero.
    if validate_bitlive {
        let mut validations = Vec::new();
        for harness in &harnesses {
            let technique = harness.config().technique;
            let spec = CampaignSpec {
                samples,
                threads,
                limit,
                ..CampaignSpec::default()
            };
            let v = match run_bitlive_validation(harness, &spec, inject_seed, None, None) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("inject: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "{workload}/{technique}: {}/{} register-file injections stratified by \
                 bit-liveness prediction",
                v.result.completed, samples
            );
            validations.push((technique, v));
        }

        let header = vec![
            "technique".to_owned(),
            "stratum".to_owned(),
            "n".to_owned(),
            "vacant".to_owned(),
            "masked".to_owned(),
            "sdc".to_owned(),
            "due".to_owned(),
            "vuln".to_owned(),
            "±95%".to_owned(),
        ];
        let mut table = Table::new(header);
        for (technique, v) in &validations {
            for s in Stratum::ALL {
                let tt = v.strata.get(s);
                table.row(vec![
                    technique.to_string(),
                    s.name().to_owned(),
                    tt.attempts().to_string(),
                    tt.vacant.to_string(),
                    tt.masked.to_string(),
                    tt.sdc.to_string(),
                    (tt.due_hang + tt.due_panic).to_string(),
                    format!("{:.4}", tt.vulnerability()),
                    format!("{:.4}", tt.ci95()),
                ]);
            }
        }
        println!("{}", table.render());

        if let Some(path) = tally_out {
            let json = format!(
                "{{\"schema\":\"rar-bitlive-validation-v1\",\"workload\":\"{workload}\",\
                 \"inject_seed\":{inject_seed},\"samples\":{samples},\"ooo\":{},\"rar\":{}}}\n",
                validations[0].1.strata.to_json(),
                validations[1].1.strata.to_json()
            );
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }

        let mut failed = false;
        for (technique, v) in &validations {
            let dead = v.strata.get(Stratum::PredictedDead);
            if v.gate_passes() {
                println!(
                    "{technique}: gate PASS — {} predicted-dead strikes, vulnerability \
                     {:.4} ± {:.4} consistent with zero",
                    dead.attempts(),
                    dead.vulnerability(),
                    dead.ci95()
                );
            } else {
                eprintln!(
                    "{technique}: gate FAIL — predicted-dead stratum {} (n={}, vulnerability \
                     {:.4} ± {:.4}) is not consistent with zero",
                    if dead.attempts() == 0 {
                        "is empty"
                    } else {
                        "shows unmasked outcomes"
                    },
                    dead.attempts(),
                    dead.vulnerability(),
                    dead.ci95()
                );
                failed = true;
            }
        }
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let flight = flight_out.as_ref().map(|_| {
        std::sync::Arc::new(rar_telemetry::FlightRecorder::new(
            rar_telemetry::DEFAULT_FLIGHT_CAPACITY,
        ))
    });
    let mut campaigns = Vec::new();
    for harness in harnesses {
        let technique = harness.config().technique;
        let spec = CampaignSpec {
            samples,
            threads,
            journal: journal.as_ref().map(|base| paired_journal(base, technique)),
            limit,
            flight: flight.clone(),
            ..CampaignSpec::default()
        };
        let result = match run_injection_campaign(&harness, &spec, inject_seed, None, None) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("inject: journal error: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "{workload}/{technique}: {}/{} injections ({} resumed, {} failed, {:.0}% complete)",
            result.completed,
            samples,
            result.resumed,
            result.failed,
            result.completed_fraction() * 100.0
        );
        if result.completed < samples {
            println!(
                "  partial campaign: confidence intervals below reflect the \
                 completed fraction only"
            );
        }
        campaigns.push((harness, result));
    }

    // The cross-validation table: measured vulnerability (with its 95% CI
    // half-width) next to the ACE-estimated AVF from the same golden run,
    // per structure, baseline vs RAR.
    let header = vec![
        "structure".to_owned(),
        "ooo vuln".to_owned(),
        "ooo ±95%".to_owned(),
        "ooo AVF".to_owned(),
        "ooo rAVF".to_owned(),
        "rar vuln".to_owned(),
        "rar ±95%".to_owned(),
        "rar AVF".to_owned(),
        "rar rAVF".to_owned(),
    ];
    let mut table = Table::new(header);
    for t in FaultTarget::ACE {
        let mut row = vec![t.name().to_owned()];
        for (harness, result) in &campaigns {
            let tt = result.tally.get(t);
            let (avf, ravf) = harness.ace_avf(t).unwrap_or((0.0, 0.0));
            row.push(format!("{:.4}", tt.vulnerability()));
            row.push(format!("{:.4}", tt.ci95()));
            row.push(format!("{avf:.4}"));
            row.push(format!("{ravf:.4}"));
        }
        table.row(row);
    }
    println!("{}", table.render());

    if let Some(path) = tally_out {
        let json = rar_inject::tally_document(
            &workload,
            inject_seed,
            &campaigns[0].1.tally,
            &campaigns[1].1.tally,
        );
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let (Some(path), Some(flight)) = (flight_out, flight) {
        let reason = if flight.is_empty() {
            "campaign_done"
        } else {
            "inject_due"
        };
        if let Err(e) = std::fs::write(&path, flight.dump_json(reason)) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path} ({} DUE events)", flight.len());
    }
    ExitCode::SUCCESS
}

/// Runs one traced simulation and exports every format.
fn trace_cmd(args: &[String]) -> ExitCode {
    let mut builder = SimConfig::builder();
    let mut trace = TraceSettings::default();
    let mut out_dir = "results/traces".to_owned();
    let mut technique = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let Some(value) = args.get(i + 1) else {
            eprintln!("missing value for {flag}");
            return usage();
        };
        match flag {
            "--workload" => {
                builder.workload(value);
            }
            "--technique" => match rar_core::Technique::parse(value) {
                Some(t) => technique = Some(t),
                None => {
                    eprintln!("unknown technique '{value}'");
                    return usage();
                }
            },
            "--instructions" => match value.parse() {
                Ok(n) => {
                    builder.instructions(n);
                }
                Err(_) => return usage(),
            },
            "--warmup" => match value.parse() {
                Ok(n) => {
                    builder.warmup(n);
                }
                Err(_) => return usage(),
            },
            "--seed" => match value.parse() {
                Ok(n) => {
                    builder.seed(n);
                }
                Err(_) => return usage(),
            },
            "--out" => out_dir = value.clone(),
            "--capacity" => match value.parse() {
                Ok(n) => trace.capacity = n,
                Err(_) => return usage(),
            },
            "--sample" => match value.parse() {
                Ok(n) => trace.sample_interval = n,
                Err(_) => return usage(),
            },
            _ => return usage(),
        }
        i += 2;
    }
    let Some(technique) = technique else {
        eprintln!("trace requires --technique");
        return usage();
    };
    builder.technique(technique).trace(trace);
    let cfg = builder.build();
    if let Err(e) = cfg.validate() {
        eprintln!("{e}");
        return usage();
    }

    let (result, sink) = Simulation::run_traced(&cfg);
    let events = sink.to_vec();

    let enters = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::RunaheadEnter { .. }))
        .count() as u64;
    let stalls = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::StallWindow { .. }))
        .count();
    println!(
        "{} / {}: {} cycles, IPC {:.3}, {} events captured ({} dropped)",
        cfg.workload,
        technique,
        result.stats.cycles,
        result.ipc(),
        sink.len(),
        sink.dropped()
    );
    println!(
        "runahead intervals: {} reported, {} enter events; {} stall windows",
        result.stats.runahead_intervals, enters, stalls
    );
    if sink.dropped() == 0 && enters != result.stats.runahead_intervals {
        eprintln!("warning: trace/statistics runahead mismatch");
    }

    let stem = format!(
        "{out_dir}/{}-{}",
        cfg.workload,
        technique.to_string().to_ascii_lowercase()
    );
    let names: Vec<String> = rar_ace::Structure::ALL
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    let structure_names: Vec<&str> = names.iter().map(String::as_str).collect();
    let outputs = [
        (
            format!("{stem}.trace.json"),
            rar_trace::chrome::to_chrome_json(&events),
        ),
        (
            format!("{stem}.kanata"),
            rar_trace::konata::to_konata(&events),
        ),
        (
            format!("{stem}.uops.csv"),
            rar_trace::csv::uops_to_csv(&events),
        ),
        (
            format!("{stem}.windows.csv"),
            rar_trace::csv::windows_to_csv(&events),
        ),
        (
            format!("{stem}.samples.csv"),
            rar_trace::csv::samples_to_csv(&events, &structure_names),
        ),
    ];
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("failed to create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    for (path, contents) in &outputs {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

/// Runs the figure command(s) through `session` and writes the run
/// manifest.
fn run_figures(
    cmd: &str,
    base: &ExperimentOptions,
    session: Arc<SweepSession<WallProfiler>>,
    csv_dir: Option<&String>,
    seeds: u64,
    manifest_out: &str,
) -> ExitCode {
    let opts = ExperimentOptions {
        instructions: base.instructions,
        warmup: base.warmup,
        seed: base.seed,
        suite: base.suite,
        session,
    };

    let emit = |name: &str, table: &Table| {
        println!("{}", table.render());
        if let Some(dir) = csv_dir {
            let path = format!("{dir}/{name}.csv");
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, table.to_csv()))
            {
                eprintln!("failed to write {path}: {e}");
            }
        }
    };

    // Runs one figure command; `false` when `cmd` names none.
    let run = |cmd: &str, opts: &ExperimentOptions<WallProfiler>| {
        match cmd {
            "fig1" => emit("fig1", &experiment::fig1(opts)),
            "fig3" => emit("fig3", &experiment::fig3(opts)),
            "fig4" => emit("fig4", &experiment::fig4(opts)),
            "fig5" => emit("fig5", &experiment::fig5(opts)),
            "fig7" | "fig8" => {
                let [mttf, abc, ipc, mlp] = experiment::fig7_fig8(opts);
                if cmd == "fig7" {
                    emit("fig7a_mttf", &mttf);
                    emit("fig7b_abc", &abc);
                } else {
                    emit("fig8a_ipc", &ipc);
                    emit("fig8b_mlp", &mlp);
                }
            }
            "fig9" => emit("fig9", &experiment::fig9(opts)),
            "fig10" => emit("fig10", &experiment::fig10(opts)),
            "fig11" => emit("fig11", &experiment::fig11(opts)),
            "table4" => emit("table4", &experiment::table4()),
            "protection" => emit(
                "protection",
                &rar_sim::protection::protection_comparison(opts),
            ),
            "seeds" => emit("seeds", &experiment::seed_sweep(opts, seeds)),
            "energy" => emit("energy", &experiment::energy(opts)),
            "extensions" => emit("extensions", &experiment::extensions(opts)),
            "structures" => emit("structures", &experiment::structures(opts)),
            "refinement" => emit("refinement", &experiment::refinement(opts)),
            "mpki" => emit("mpki", &experiment::mpki_check(opts)),
            _ => return false,
        }
        true
    };

    match cmd {
        "all" => {
            run("table4", &opts);
            run("mpki", &opts);
            run("fig3", &opts);
            run("fig4", &opts);
            run("fig5", &opts);
            run("fig1", &opts);
            // Figures 7/8 over both suites, as in the paper.
            let mut both = opts.clone();
            both.suite = Suite::All;
            let [mttf, abc, ipc, mlp] = experiment::fig7_fig8(&both);
            emit("fig7a_mttf", &mttf);
            emit("fig7b_abc", &abc);
            emit("fig8a_ipc", &ipc);
            emit("fig8b_mlp", &mlp);
            run("fig9", &opts);
            run("fig10", &opts);
            run("fig11", &opts);
            run("protection", &opts);
        }
        c => {
            if !run(c, &opts) {
                return usage();
            }
        }
    }

    let stats = opts.session.stats();
    eprintln!(
        "[rar-sim] sweep: {} cells ({} simulated, {} from cache, {:.0}% hit rate) \
         in {:.1}s ({:.1} runs/s, {} threads)",
        stats.completed(),
        stats.simulated,
        stats.cache_hits,
        stats.cache_hit_rate() * 100.0,
        stats.wall_seconds,
        stats.runs_per_second(),
        stats.threads,
    );
    let manifest = opts
        .session
        .manifest_json("rar-experiments", env!("CARGO_PKG_VERSION"));
    if let Err(e) = std::fs::write(manifest_out, manifest) {
        eprintln!("failed to write {manifest_out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {manifest_out}");
    if let Some(p) = opts.session.stall_profile() {
        // One guest-side cycle-accounting line per stall bucket, largest
        // first (the manifest carries the same numbers for machines).
        let mut buckets: Vec<_> = rar_core::StallBucket::ALL
            .iter()
            .map(|&b| (b.name(), p.count(b)))
            .collect();
        buckets.sort_by_key(|&(_, cycles)| std::cmp::Reverse(cycles));
        let total = p.total().max(1);
        for (name, cycles) in buckets {
            eprintln!(
                "[rar-sim] stalls: {name:<12} {cycles:>12} cycles ({:.1}%)",
                cycles as f64 / total as f64 * 100.0
            );
        }
        eprintln!(
            "[rar-sim] stalls: quiescent fraction {:.4} (event-skippable upper bound)",
            p.quiescent_fraction()
        );
    }
    ExitCode::SUCCESS
}

/// The `serve` subcommand: run the campaign daemon until shutdown.
fn serve_cmd(args: &[String]) -> ExitCode {
    let mut opts = ServeOptions {
        addr: "127.0.0.1:7878".to_owned(),
        ..ServeOptions::default()
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--no-cache" {
            opts.cache = false;
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            eprintln!("missing value for {flag}");
            return usage();
        };
        match flag {
            "--addr" => opts.addr = value.clone(),
            "--data-dir" => opts.data_dir = std::path::PathBuf::from(value),
            "--workers" => match value.parse::<usize>() {
                Ok(n) => opts.workers = n.max(1),
                Err(_) => return usage(),
            },
            "--conn-threads" => match value.parse::<usize>() {
                Ok(n) => opts.conn_threads = n.max(1),
                Err(_) => return usage(),
            },
            "--fsync-every" => match value.parse::<usize>() {
                Ok(n) => opts.fsync_every = n.max(1),
                Err(_) => return usage(),
            },
            "--max-queued" => match value.parse::<usize>() {
                Ok(n) => opts.max_queued = n.max(1),
                Err(_) => return usage(),
            },
            "--request-timeout" => match value.parse::<u64>() {
                Ok(n) => opts.request_timeout = std::time::Duration::from_secs(n.max(1)),
                Err(_) => return usage(),
            },
            "--worker-restarts" => match value.parse::<u32>() {
                Ok(n) => opts.worker_restarts = n,
                Err(_) => return usage(),
            },
            _ => return usage(),
        }
        i += 2;
    }
    // Chaos plans cross process boundaries through the environment (the
    // CI kill-then-restart smoke re-arms the restarted daemon this way).
    match rar_chaos::install_from_env() {
        Ok(Some(plan)) => println!(
            "[rar-serve] chaos plan installed: {} site(s), seed {}",
            plan.sites.len(),
            plan.seed
        ),
        Ok(None) => {
            let spec_set = std::env::var(rar_chaos::ENV_VAR).is_ok_and(|v| !v.trim().is_empty());
            if spec_set && !rar_chaos::COMPILED {
                eprintln!(
                    "[rar-serve] warning: {} is set but the chaos fabric is not compiled in \
                     (build with --features rar-serve/chaos)",
                    rar_chaos::ENV_VAR
                );
            }
        }
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    }
    let server = match CampaignServer::start(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The address line is machine-readable on purpose: the CI smoke job
    // (and any script) parses it to find the ephemeral port.
    println!("[rar-serve] listening on {}", server.addr());
    server.wait();
    println!("[rar-serve] shut down");
    ExitCode::SUCCESS
}

/// The thin-client subcommands (`submit`, `status`, `cancel`, `events`,
/// `metrics`, `shutdown`): one HTTP exchange each, plus optional
/// poll-to-completion for `submit --wait`.
fn client_cmd(cmd: &str, args: &[String]) -> ExitCode {
    let mut server: Option<String> = None;
    let mut id: Option<u64> = None;
    let mut spec: Option<String> = None;
    let mut wait = false;
    let mut drain = false;
    let mut timeout_secs: u64 = 600;
    let mut out: Option<String> = None;
    let mut result_index: usize = 0;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--wait" {
            wait = true;
            i += 1;
            continue;
        }
        if flag == "--drain" {
            drain = true;
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            eprintln!("missing value for {flag}");
            return usage();
        };
        match flag {
            "--server" => server = Some(value.clone()),
            "--id" => match value.parse() {
                Ok(n) => id = Some(n),
                Err(_) => return usage(),
            },
            "--spec" => spec = Some(value.clone()),
            "--spec-file" => match std::fs::read_to_string(value) {
                Ok(text) => spec = Some(text),
                Err(e) => {
                    eprintln!("cannot read {value}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            "--timeout" => match value.parse() {
                Ok(n) => timeout_secs = n,
                Err(_) => return usage(),
            },
            "--out" => out = Some(value.clone()),
            "--result" => match value.parse() {
                Ok(n) => result_index = n,
                Err(_) => return usage(),
            },
            _ => return usage(),
        }
        i += 2;
    }
    let Some(server) = server else {
        eprintln!("{cmd}: --server ADDR is required");
        return usage();
    };
    let client = ServeClient::new(server);
    let need_id = || {
        id.ok_or_else(|| {
            eprintln!("{cmd}: --id N is required");
        })
    };
    let outcome = match cmd {
        "submit" => {
            let Some(spec) = spec else {
                eprintln!("submit: --spec JSON or --spec-file PATH is required");
                return usage();
            };
            client.request("POST", "/v1/jobs", &spec).and_then(|resp| {
                print!("{}", resp.body);
                if !resp.ok() {
                    return Err(std::io::Error::other(format!("HTTP {}", resp.status)));
                }
                if !wait {
                    return Ok(resp);
                }
                let id = rar_serve::jobs::u64_field(&resp.body, "id")
                    .ok()
                    .flatten()
                    .ok_or_else(|| std::io::Error::other("submit response had no id"))?;
                let done = client.wait_for_job(id, std::time::Duration::from_secs(timeout_secs))?;
                print!("{}", done.body);
                if rar_serve::jobs::field(&done.body, "status") != Some("completed") {
                    return Err(std::io::Error::other("job did not complete"));
                }
                if let Some(path) = &out {
                    let doc = client.request(
                        "GET",
                        &format!("/v1/jobs/{id}/results/{result_index}"),
                        "",
                    )?;
                    if !doc.ok() {
                        return Err(std::io::Error::other(format!(
                            "result {result_index}: HTTP {}",
                            doc.status
                        )));
                    }
                    std::fs::write(path, &doc.body)?;
                    eprintln!("wrote {path}");
                }
                Ok(done)
            })
        }
        "status" => {
            let Ok(id) = need_id() else { return usage() };
            client
                .request("GET", &format!("/v1/jobs/{id}"), "")
                .inspect(|resp| {
                    // The queue-wait satellite line: human-readable next
                    // to the raw JSON (which stays on stdout untouched).
                    if let Some(field) = rar_serve::jobs::field(&resp.body, "queue_wait_seconds") {
                        eprintln!("queue wait: {field}s");
                    }
                })
        }
        "cancel" => {
            let Ok(id) = need_id() else { return usage() };
            client.request("DELETE", &format!("/v1/jobs/{id}"), "")
        }
        "events" => {
            let Ok(id) = need_id() else { return usage() };
            // follow_events reattaches when the stream is dropped (a
            // restarting or chaos-injected daemon) instead of hanging
            // or dying mid-tail.
            client
                .follow_events(
                    id,
                    std::time::Duration::from_secs(timeout_secs),
                    &mut |chunk| {
                        print!("{chunk}");
                    },
                )
                .inspect(|_| println!())
        }
        "metrics" => client.request("GET", "/metrics", ""),
        "shutdown" => {
            let body = if drain { "{\"mode\":\"drain\"}" } else { "" };
            client.request("POST", "/v1/shutdown", body)
        }
        _ => return usage(),
    };
    match outcome {
        Ok(resp) => {
            if !matches!(cmd, "submit" | "events") {
                print!("{}", resp.body);
            }
            if resp.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        return usage();
    };
    if cmd == "trace" {
        return trace_cmd(&args[1..]);
    }
    if cmd == "report" {
        return report_cmd(&args[1..]);
    }
    if cmd == "inject" {
        return inject_cmd(&args[1..]);
    }
    if cmd == "serve" {
        return serve_cmd(&args[1..]);
    }
    if matches!(
        cmd.as_str(),
        "submit" | "status" | "cancel" | "events" | "metrics" | "shutdown"
    ) {
        return client_cmd(&cmd, &args[1..]);
    }
    let mut opts = ExperimentOptions::default();
    let mut csv_dir: Option<String> = None;
    let mut seeds: u64 = 3;
    let mut cache_dir: Option<String> = Some("results/cache".to_owned());
    let mut manifest_out = "manifest.json".to_owned();
    let mut stalls = false;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--no-cache" {
            cache_dir = None;
            i += 1;
            continue;
        }
        if flag == "--stalls" {
            stalls = true;
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            eprintln!("missing value for {flag}");
            return usage();
        };
        match flag {
            "--instructions" => match value.parse() {
                Ok(n) => opts.instructions = n,
                Err(_) => return usage(),
            },
            "--warmup" => match value.parse() {
                Ok(n) => opts.warmup = n,
                Err(_) => return usage(),
            },
            "--seed" => match value.parse() {
                Ok(n) => opts.seed = n,
                Err(_) => return usage(),
            },
            "--suite" => {
                opts.suite = match value.as_str() {
                    "memory" => Suite::Memory,
                    "compute" => Suite::Compute,
                    "all" => Suite::All,
                    _ => return usage(),
                }
            }
            "--csv" => csv_dir = Some(value.clone()),
            "--seeds" => match value.parse() {
                Ok(n) => seeds = n,
                Err(_) => return usage(),
            },
            "--cache" => cache_dir = Some(value.clone()),
            "--manifest-out" => manifest_out = value.clone(),
            _ => return usage(),
        }
        i += 2;
    }
    let session = match &cache_dir {
        Some(dir) => SweepSession::with_profiler_and_disk_cache(dir, WallProfiler::new()),
        None => SweepSession::with_profiler(WallProfiler::new()),
    }
    .stall_profiling(stalls);
    run_figures(
        &cmd,
        &opts,
        Arc::new(session),
        csv_dir.as_ref(),
        seeds,
        &manifest_out,
    )
}
