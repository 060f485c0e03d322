//! Runs a single simulation and prints a detailed summary.
//!
//! ```text
//! rar-sim --workload mcf --technique rar [--instructions N] [--warmup N]
//!         [--seed N] [--core 1|2|3|4] [--prefetch none|l3|all] [--trace N]
//!         [--json PATH] [--manifest-out PATH] [--stalls]
//! ```
//!
//! `--trace N` prints a per-cycle pipeline view (occupancies, mode, head
//! state) for the first N cycles after warm-up, then the summary.
//! The run goes through a profiled sweep session (results are
//! bit-identical to a bare simulation); `--manifest-out PATH` writes its
//! run manifest (`rar-manifest-v1`, tool `rar-sim`), whose `telemetry`
//! member holds the guest counters and host phase timings.
//! `--stalls` enables the cycle-loop stall profiler: the summary gains a
//! per-bucket cycle-accounting table (buckets sum exactly to total
//! cycles) and `--json` exports gain a `stalls` section — the simulated
//! outcome itself stays bit-identical.

use rar_ace::Structure;
use rar_core::{CoreConfig, StallBucket, Technique};
use rar_mem::{MemConfig, PrefetchPlacement};
use rar_sim::{SimConfig, SweepSession};
use rar_telemetry::WallProfiler;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: rar-sim --workload NAME --technique TECH [--instructions N] [--warmup N] \
         [--seed N] [--core 1|2|3|4] [--prefetch none|l3|all] [--trace N] [--json PATH] \
         [--manifest-out PATH] [--stalls]"
    );
    ExitCode::from(2)
}

/// Prints a per-cycle pipeline view for the first `cycles` cycles after
/// warm-up.
fn trace(cfg: &SimConfig, cycles: u64) {
    let spec = rar_workloads::workload(&cfg.workload).expect("validated by caller");
    let mut core = rar_core::Core::new(
        cfg.core.clone(),
        cfg.mem.clone(),
        cfg.technique,
        rar_isa::TraceWindow::new(spec.trace(cfg.seed)),
    );
    core.run_until_committed(cfg.warmup);
    core.reset_measurement();
    println!(
        "{:>8} {:>4} {:>3} {:>3} {:>3}  mode  head",
        "cycle", "ROB", "IQ", "LQ", "SQ"
    );
    let mut last_printed = None;
    for _ in 0..cycles {
        core.cycle();
        let s = core.snapshot();
        // Compress runs of identical occupancy lines.
        let key = (
            s.rob_occupancy,
            s.iq_occupancy,
            s.in_runahead,
            s.head_seq,
            s.head_completed,
        );
        if last_printed == Some(key) {
            continue;
        }
        last_printed = Some(key);
        println!(
            "{:>8} {:>4} {:>3} {:>3} {:>3}  {}  {}",
            s.cycle,
            s.rob_occupancy,
            s.iq_occupancy,
            s.lq_occupancy,
            s.sq_occupancy,
            if s.in_runahead { "RA " } else { "   " },
            match (s.head_seq, s.head_pc) {
                (Some(seq), Some(pc)) => format!(
                    "#{seq} pc={pc:#x}{}",
                    if s.head_completed { " done" } else { "" }
                ),
                _ => "-".to_owned(),
            }
        );
    }
    println!();
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut b = SimConfig::builder();
    let mut trace_cycles: u64 = 0;
    let mut json_path: Option<String> = None;
    let mut manifest_path: Option<String> = None;
    let mut stalls = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--stalls" {
            stalls = true;
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            return usage();
        };
        match flag {
            "--workload" => {
                b.workload(value);
            }
            "--technique" => match Technique::parse(value) {
                Some(t) => {
                    b.technique(t);
                }
                None => {
                    eprintln!("unknown technique '{value}'");
                    return usage();
                }
            },
            "--instructions" => match value.parse() {
                Ok(n) => {
                    b.instructions(n);
                }
                Err(_) => return usage(),
            },
            "--warmup" => match value.parse() {
                Ok(n) => {
                    b.warmup(n);
                }
                Err(_) => return usage(),
            },
            "--seed" => match value.parse() {
                Ok(n) => {
                    b.seed(n);
                }
                Err(_) => return usage(),
            },
            "--core" => {
                let core = match value.as_str() {
                    "1" => CoreConfig::core1(),
                    "2" => CoreConfig::core2(),
                    "3" => CoreConfig::core3(),
                    "4" => CoreConfig::core4(),
                    _ => return usage(),
                };
                b.core(core);
            }
            "--trace" => match value.parse() {
                Ok(n) => trace_cycles = n,
                Err(_) => return usage(),
            },
            "--json" => json_path = Some(value.clone()),
            "--manifest-out" => manifest_path = Some(value.clone()),
            "--prefetch" => {
                let p = match value.as_str() {
                    "none" => PrefetchPlacement::None,
                    "l3" => PrefetchPlacement::L3,
                    "all" => PrefetchPlacement::All,
                    _ => return usage(),
                };
                b.mem(MemConfig::with_prefetch(p));
            }
            _ => return usage(),
        }
        i += 2;
    }
    let cfg = b.build();
    if let Err(e) = cfg.validate() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }

    if trace_cycles > 0 {
        trace(&cfg, trace_cycles);
    }
    // Every run goes through a profiled session: the result is the same
    // bit for bit, and the session attributes host time for the manifest.
    let session = SweepSession::with_profiler(WallProfiler::new()).stall_profiling(stalls);
    let r = match session.run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("workload      {}", r.workload);
    println!("technique     {}", r.technique);
    println!("fingerprint   {}", cfg.fingerprint());
    println!("instructions  {}", r.stats.committed);
    println!("cycles        {}", r.stats.cycles);
    println!("IPC           {:.3}", r.ipc());
    println!("MLP           {:.2}", r.mlp());
    println!("MPKI          {:.1}", r.mpki());
    println!("AVF           {:.4}", r.reliability.avf());
    println!("refined AVF   {:.4}", r.reliability.refined_avf());
    println!("bit-ref AVF   {:.4}", r.reliability.bit_refined_avf());
    println!("total ABC     {}", r.reliability.total_abc());
    for s in Structure::ALL {
        println!("  ABC {:8}  {}", s.to_string(), r.reliability.abc(s));
    }
    println!(
        "branch MPKI   {:.1}",
        r.predictor.mpki_of(r.stats.committed)
    );
    println!(
        "runahead      {} intervals, {} cycles, {} prefetches",
        r.stats.runahead_intervals, r.stats.runahead_cycles, r.stats.runahead_prefetches
    );
    println!(
        "flushes       {} ({} squashed uops)",
        r.stats.flushes, r.stats.squashed
    );
    if let Some(p) = &r.stalls {
        println!("stall breakdown ({} cycles attributed)", p.total());
        let total = p.total().max(1);
        for bucket in StallBucket::ALL {
            let cycles = p.count(bucket);
            println!(
                "  {:<10}  {:>10}  {:>5.1}%",
                bucket.name(),
                cycles,
                cycles as f64 / total as f64 * 100.0
            );
        }
        println!(
            "  quiescent fraction  {:.4} (event-skippable upper bound)",
            p.quiescent_fraction()
        );
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, rar_sim::json::to_json_for(&cfg, &r)) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote         {path}");
    }
    if let Some(path) = manifest_path {
        let manifest = session.manifest_json("rar-sim", env!("CARGO_PKG_VERSION"));
        if let Err(e) = std::fs::write(&path, manifest) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote         {path}");
    }
    ExitCode::SUCCESS
}
