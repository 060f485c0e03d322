//! The result document: the JSON export of one run, and its reader.
//!
//! The workspace deliberately avoids a JSON dependency; [`SimResult`]
//! contains only numbers, short identifiers, and fixed-shape arrays, so a
//! small hand-rolled writer suffices. Output is stable-keyed and suitable
//! for downstream analysis scripts (`jq`, pandas, ...).
//!
//! [`to_json_for`] writes the one document a run's result has: `rar-sim
//! --json`, the daemon's job results, `results/sim_golden.json` and the
//! disk cache's entries all hold it. [`from_json`] reads it back from its
//! integer counters alone: the derived floats (`ipc`, `mlp`, `mpki` and
//! the three AVF tiers) are recomputed from them by the code a live run
//! uses, so a read-back result is bit-identical to the one written.

use crate::config::SimConfig;
use crate::run::SimResult;
use rar_ace::{ReliabilityReport, Structure};
use rar_core::{CoreStats, StallBucket, Technique, OCC_BUCKETS, OCC_STRUCTURES};
use rar_frontend::PredictorStats;
use rar_mem::MemStats;
use rar_trace::jsonv::{escape, Value};
use std::fmt::Write as _;

/// Serializes a [`SimResult`] to a pretty-printed JSON object.
///
/// # Examples
///
/// ```
/// use rar_sim::{SimConfig, Simulation};
/// let r = Simulation::run(
///     &SimConfig::builder().workload("leela").instructions(1_000).warmup(200).build(),
/// );
/// let json = rar_sim::json::to_json(&r);
/// assert!(json.contains("\"workload\": \"leela\""));
/// assert!(json.trim_start().starts_with('{'));
/// ```
#[must_use]
pub fn to_json(r: &SimResult) -> String {
    render(r, None)
}

/// Like [`to_json`], with a provenance header: the originating
/// configuration's stable [`SimConfig::fingerprint`] — the same key the
/// on-disk result cache files this run under — so an export can be traced
/// back to the exact configuration (and cache entry) that produced it.
#[must_use]
pub fn to_json_for(cfg: &SimConfig, r: &SimResult) -> String {
    render(r, Some(cfg))
}

/// Reads a document written by [`to_json_for`] (parsed with
/// [`rar_trace::jsonv::parse`]) back into its configuration fingerprint
/// and result. Strict: every integer member must be present and exact,
/// or the answer is `None`. The derived floats are recomputed, not read,
/// and the `stalls` section is ignored, so the result's
/// [`SimResult::stalls`] is `None`.
#[must_use]
pub fn from_json<'v>(doc: &'v Value<'_>) -> Option<(&'v str, SimResult)> {
    let fingerprint = doc.get("config_fingerprint")?.as_str()?;
    let workload = doc.get("workload")?.as_str()?;
    let technique = Technique::parse(doc.get("technique")?.as_str()?)?;
    let performance = doc.get("performance")?;
    let pipeline = doc.get("pipeline")?;
    let reliability = doc.get("reliability")?;
    let memory = doc.get("memory")?;
    let branches = doc.get("branches")?;
    let runahead = doc.get("runahead")?;

    // Struct literals, so a counter added to any of these structs fails
    // to compile here until the reader reads it.
    let stats = CoreStats {
        cycles: u64_at(performance, "cycles")?,
        committed: u64_at(performance, "committed")?,
        branch_mispredicts: u64_at(pipeline, "branch_mispredicts")?,
        mlp_sum: u64_at(pipeline, "mlp_sum")?,
        mlp_cycles: u64_at(pipeline, "mlp_cycles")?,
        runahead_intervals: u64_at(runahead, "intervals")?,
        runahead_cycles: u64_at(runahead, "cycles")?,
        runahead_uops: u64_at(runahead, "uops")?,
        runahead_prefetches: u64_at(runahead, "prefetches")?,
        runahead_inv_loads: u64_at(runahead, "inv_loads")?,
        flushes: u64_at(runahead, "flushes")?,
        squashed: u64_at(runahead, "squashed")?,
        rob_full_cycles: u64_at(pipeline, "rob_full_cycles")?,
        iq_full_cycles: u64_at(pipeline, "iq_full_cycles")?,
        head_blocked_cycles: u64_at(pipeline, "head_blocked_cycles")?,
        dispatched: u64_at(pipeline, "dispatched")?,
        issued: u64_at(pipeline, "issued")?,
    };
    let mem = MemStats {
        l1d_hits: u64_at(memory, "l1d_hits")?,
        l2_hits: u64_at(memory, "l2_hits")?,
        l3_hits: u64_at(memory, "l3_hits")?,
        llc_misses: u64_at(memory, "llc_misses")?,
        l1i_hits: u64_at(memory, "l1i_hits")?,
        l1i_misses: u64_at(memory, "l1i_misses")?,
        mshr_merges: u64_at(memory, "mshr_merges")?,
        mshr_stalls: u64_at(memory, "mshr_stalls")?,
        prefetches_issued: u64_at(memory, "prefetches_issued")?,
        runahead_loads: u64_at(memory, "runahead_loads")?,
    };
    let predictor = PredictorStats {
        predictions: u64_at(branches, "predictions")?,
        mispredictions: u64_at(branches, "mispredictions")?,
        btb_misses: u64_at(branches, "btb_misses")?,
    };

    let by_structure = reliability.get("abc_by_structure")?;
    let mut abc_by_structure = [0u128; Structure::COUNT];
    for (abc, structure) in abc_by_structure.iter_mut().zip(Structure::ALL) {
        *abc = u128_at(by_structure, &structure.to_string())?;
    }
    // A run's report holds the same per-structure ABC and the same cycle
    // count as the result, so the document writes each once.
    let report = ReliabilityReport::from_parts(
        abc_by_structure,
        u128_at(reliability, "total_abc")?,
        u128_at(reliability, "refined_total_abc")?,
        u128_at(reliability, "bit_refined_total_abc")?,
        u64_at(reliability, "capacity_bits")?,
        stats.cycles,
    );
    let result = SimResult {
        workload: workload.to_owned(),
        technique,
        stats,
        reliability: report,
        mem,
        predictor,
        abc_by_structure,
        window_abc: [
            u128_at(reliability, "abc_in_full_rob_stall")?,
            u128_at(reliability, "abc_in_head_blocked")?,
        ],
        stalls: None,
    };
    Some((fingerprint, result))
}

fn u64_at(section: &Value<'_>, key: &str) -> Option<u64> {
    section.get(key)?.as_u64()
}

fn u128_at(section: &Value<'_>, key: &str) -> Option<u128> {
    section.get(key)?.as_u128()
}

fn render(r: &SimResult, cfg: Option<&SimConfig>) -> String {
    let s = &r.stats;
    let m = &r.mem;
    let mut out = String::with_capacity(2048);
    let _ = writeln!(out, "{{");
    if let Some(cfg) = cfg {
        let _ = writeln!(out, "  \"config_fingerprint\": \"{}\",", cfg.fingerprint());
    }
    let _ = writeln!(out, "  \"workload\": \"{}\",", escape(&r.workload));
    let _ = writeln!(out, "  \"technique\": \"{}\",", r.technique);
    let _ = writeln!(out, "  \"performance\": {{");
    let _ = writeln!(out, "    \"cycles\": {},", s.cycles);
    let _ = writeln!(out, "    \"committed\": {},", s.committed);
    let _ = writeln!(out, "    \"ipc\": {:.6},", r.ipc());
    let _ = writeln!(out, "    \"mlp\": {:.6},", r.mlp());
    let _ = writeln!(out, "    \"mpki\": {:.6}", r.mpki());
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"pipeline\": {{");
    let _ = writeln!(out, "    \"dispatched\": {},", s.dispatched);
    let _ = writeln!(out, "    \"issued\": {},", s.issued);
    let _ = writeln!(out, "    \"branch_mispredicts\": {},", s.branch_mispredicts);
    let _ = writeln!(out, "    \"mlp_sum\": {},", s.mlp_sum);
    let _ = writeln!(out, "    \"mlp_cycles\": {},", s.mlp_cycles);
    let _ = writeln!(out, "    \"rob_full_cycles\": {},", s.rob_full_cycles);
    let _ = writeln!(out, "    \"iq_full_cycles\": {},", s.iq_full_cycles);
    let _ = writeln!(
        out,
        "    \"head_blocked_cycles\": {}",
        s.head_blocked_cycles
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"reliability\": {{");
    let _ = writeln!(out, "    \"avf\": {:.8},", r.reliability.avf());
    let _ = writeln!(
        out,
        "    \"refined_avf\": {:.8},",
        r.reliability.refined_avf()
    );
    let _ = writeln!(
        out,
        "    \"bit_refined_avf\": {:.8},",
        r.reliability.bit_refined_avf()
    );
    let _ = writeln!(out, "    \"total_abc\": {},", r.reliability.total_abc());
    let _ = writeln!(
        out,
        "    \"refined_total_abc\": {},",
        r.reliability.refined_total_abc()
    );
    let _ = writeln!(
        out,
        "    \"bit_refined_total_abc\": {},",
        r.reliability.bit_refined_total_abc()
    );
    let _ = writeln!(
        out,
        "    \"capacity_bits\": {},",
        r.reliability.capacity_bits()
    );
    let _ = writeln!(out, "    \"abc_by_structure\": {{");
    for (i, st) in Structure::ALL.iter().enumerate() {
        let comma = if i + 1 < Structure::ALL.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(out, "      \"{}\": {}{}", st, r.abc_by_structure[i], comma);
    }
    let _ = writeln!(out, "    }},");
    let _ = writeln!(out, "    \"abc_in_full_rob_stall\": {},", r.window_abc[0]);
    let _ = writeln!(out, "    \"abc_in_head_blocked\": {}", r.window_abc[1]);
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"memory\": {{");
    let _ = writeln!(out, "    \"l1d_hits\": {},", m.l1d_hits);
    let _ = writeln!(out, "    \"l2_hits\": {},", m.l2_hits);
    let _ = writeln!(out, "    \"l3_hits\": {},", m.l3_hits);
    let _ = writeln!(out, "    \"llc_misses\": {},", m.llc_misses);
    let _ = writeln!(out, "    \"l1i_hits\": {},", m.l1i_hits);
    let _ = writeln!(out, "    \"l1i_misses\": {},", m.l1i_misses);
    let _ = writeln!(out, "    \"mshr_merges\": {},", m.mshr_merges);
    let _ = writeln!(out, "    \"mshr_stalls\": {},", m.mshr_stalls);
    let _ = writeln!(out, "    \"runahead_loads\": {},", m.runahead_loads);
    let _ = writeln!(out, "    \"prefetches_issued\": {}", m.prefetches_issued);
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"branches\": {{");
    let _ = writeln!(out, "    \"predictions\": {},", r.predictor.predictions);
    let _ = writeln!(
        out,
        "    \"mispredictions\": {},",
        r.predictor.mispredictions
    );
    let _ = writeln!(out, "    \"btb_misses\": {}", r.predictor.btb_misses);
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"runahead\": {{");
    let _ = writeln!(out, "    \"intervals\": {},", s.runahead_intervals);
    let _ = writeln!(out, "    \"cycles\": {},", s.runahead_cycles);
    let _ = writeln!(out, "    \"uops\": {},", s.runahead_uops);
    let _ = writeln!(out, "    \"prefetches\": {},", s.runahead_prefetches);
    let _ = writeln!(out, "    \"inv_loads\": {},", s.runahead_inv_loads);
    let _ = writeln!(out, "    \"flushes\": {},", s.flushes);
    let _ = writeln!(out, "    \"squashed\": {}", s.squashed);
    // Stall attribution is optional: present only for runs that enabled
    // the cycle-loop stall profiler, so plain exports stay byte-identical.
    if let Some(p) = &r.stalls {
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"stalls\": {{");
        // Exhaustive over StallBucket::ALL (checked by `cargo xtask lint`):
        // every taxonomy bucket reaches this exporter.
        for bucket in StallBucket::ALL {
            let _ = writeln!(out, "    \"{}\": {},", bucket.name(), p.count(bucket));
        }
        let _ = writeln!(
            out,
            "    \"quiescent_fraction\": {:.6},",
            p.quiescent_fraction()
        );
        let _ = writeln!(out, "    \"total_cycles\": {},", p.total());
        let _ = writeln!(out, "    \"occupancy\": {{");
        for (row, structure) in OCC_STRUCTURES.iter().enumerate() {
            let comma = if row + 1 < OCC_STRUCTURES.len() {
                ","
            } else {
                ""
            };
            let cells: Vec<String> = (0..OCC_BUCKETS)
                .map(|j| p.occupancy[row][j].to_string())
                .collect();
            let _ = writeln!(
                out,
                "      \"{}\": [{}]{}",
                structure,
                cells.join(", "),
                comma
            );
        }
        let _ = writeln!(out, "    }}");
        let _ = writeln!(out, "  }}");
    } else {
        let _ = writeln!(out, "  }}");
    }
    let _ = write!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::run::Simulation;
    use rar_trace::jsonv;

    fn sample() -> SimResult {
        Simulation::run(
            &SimConfig::builder()
                .workload("milc")
                .instructions(1_500)
                .warmup(300)
                .build(),
        )
    }

    #[test]
    fn json_is_structurally_balanced() {
        let json = to_json(&sample());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // No trailing commas before closers.
        assert!(!json.contains(",\n  }"));
        assert!(!json.contains(",\n}"));
    }

    #[test]
    fn json_contains_all_sections() {
        let json = to_json(&sample());
        for key in [
            "performance",
            "pipeline",
            "reliability",
            "memory",
            "branches",
            "runahead",
            "ROB",
            "avf",
            "refined_avf",
            "bit_refined_avf",
            "refined_total_abc",
            "bit_refined_total_abc",
            "dispatched",
            "issued",
            "l1i_hits",
            "mshr_merges",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }

    #[test]
    fn every_core_and_mem_stat_field_is_exported() {
        // Mirrors the `cargo xtask lint` stat-coverage check: a counter that
        // is tallied but never reported is a bug (it has happened before).
        let json = to_json(&sample());
        for field in [
            "cycles",
            "committed",
            "branch_mispredicts",
            "mlp_sum",
            "mlp_cycles",
            "intervals",
            "uops",
            "prefetches",
            "inv_loads",
            "flushes",
            "squashed",
            "rob_full_cycles",
            "iq_full_cycles",
            "head_blocked_cycles",
            "dispatched",
            "issued",
            "l1d_hits",
            "l2_hits",
            "l3_hits",
            "llc_misses",
            "l1i_hits",
            "l1i_misses",
            "mshr_merges",
            "mshr_stalls",
            "prefetches_issued",
            "runahead_loads",
        ] {
            assert!(json.contains(&format!("\"{field}\"")), "missing {field}");
        }
    }

    #[test]
    fn stalls_section_appears_only_for_profiled_runs_and_conserves() {
        let cfg = SimConfig::builder()
            .workload("milc")
            .instructions(1_500)
            .warmup(300)
            .build();
        let plain = to_json(&Simulation::run(&cfg));
        assert!(!plain.contains("\"stalls\""));
        let stalled = crate::SweepSession::new()
            .stall_profiling(true)
            .run(&cfg)
            .expect("valid config");
        let json = to_json(&stalled);
        assert!(json.contains("\"stalls\": {"));
        for bucket in StallBucket::ALL {
            assert!(json.contains(&format!("\"{}\":", bucket.name())), "{json}");
        }
        assert!(json.contains("\"quiescent_fraction\":"));
        for structure in OCC_STRUCTURES {
            assert!(json.contains(&format!("\"{structure}\": [")), "{json}");
        }
        assert!(json.contains(&format!("\"total_cycles\": {}", stalled.stats.cycles)));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n    }") && !json.contains(",\n  }"));
    }

    #[test]
    fn the_reader_needs_every_integer_member() {
        let cfg = SimConfig::builder()
            .workload("milc")
            .instructions(1_500)
            .warmup(300)
            .build();
        let r = Simulation::run(&cfg);
        let doc = to_json_for(&cfg, &r);
        let parsed = jsonv::parse(&doc).expect("the export is JSON");
        assert_eq!(
            from_json(&parsed),
            Some((cfg.fingerprint().as_str(), r.clone()))
        );
        // One member per line: drop each integer member in turn, moving a
        // last member's missing comma onto the line before it.
        let lines: Vec<&str> = doc.lines().collect();
        let mut removed = 0;
        for (i, line) in lines.iter().enumerate() {
            let Some((_, value)) = line.split_once("\": ") else {
                continue;
            };
            if value.trim_end_matches(',').parse::<u128>().is_err() {
                continue;
            }
            let mut kept: Vec<String> = lines.iter().map(|&l| l.to_owned()).collect();
            kept.remove(i);
            if !line.ends_with(',') {
                let before = &mut kept[i - 1];
                *before = before.trim_end_matches(',').to_owned();
            }
            let damaged = kept.join("\n");
            let parsed = jsonv::parse(&damaged).expect("still JSON");
            assert_eq!(from_json(&parsed), None, "read without {line}");
            removed += 1;
        }
        // 2 performance, 8 pipeline, 13 reliability, 10 memory, 3 branch
        // and 7 runahead counters.
        assert_eq!(removed, 43);
    }

    #[test]
    fn to_json_for_embeds_the_config_fingerprint() {
        let cfg = SimConfig::builder()
            .workload("milc")
            .instructions(1_500)
            .warmup(300)
            .build();
        let r = Simulation::run(&cfg);
        let json = to_json_for(&cfg, &r);
        assert!(json.contains(&format!(
            "\"config_fingerprint\": \"{}\"",
            cfg.fingerprint()
        )));
        // The plain export stays fingerprint-free (and otherwise equal).
        let plain = to_json(&r);
        assert!(!plain.contains("config_fingerprint"));
        assert_eq!(json.lines().count(), plain.lines().count() + 1);
    }
}
