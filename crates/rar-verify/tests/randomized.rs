//! Randomized property checks that run offline (no external crates): a
//! seeded xorshift64* stream (`rar_isa::rng`) produces uop streams and leak
//! scenarios, and each property is checked over many seeds. The
//! dead-value analysis is also checked against a definitional oracle on
//! real workload prefixes.

use rar_ace::{AceCounter, Structure};
use rar_isa::rng::XorShift64Star;
use rar_isa::{ArchReg, BranchClass, BranchInfo, RegClass, Uop, UopKind};
use rar_verify::{analyze, interpret, src_live_mask, AceClass, Sanitizer, ValueFlip, ADDR_MASK};
use rar_workloads::{all_benchmarks, extra_benchmarks, workload};

/// A random but well-formed uop stream mixing ALU ops, loads, stores and
/// branches over a small register pool (so overwrites actually happen).
fn random_stream(seed: u64, len: usize) -> Vec<Uop> {
    let mut rng = XorShift64Star::new(seed | 1);
    let mut uops = Vec::with_capacity(len);
    for i in 0..len {
        let pc = i as u64 * 4;
        let dest = ArchReg::int(1 + rng.below(6) as u8);
        let src = ArchReg::int(1 + rng.below(6) as u8);
        let uop = match rng.below(10) {
            0..=4 => Uop::alu(pc, UopKind::IntAlu).with_dest(dest).with_src(src),
            5 | 6 => Uop::load(pc, 0x1000 + rng.below(64) * 64, 8)
                .with_src(src)
                .with_dest(dest),
            7 | 8 => Uop::store(pc, 0x2000 + rng.below(64) * 64, 8).with_src(src),
            _ => Uop::branch(
                pc,
                BranchInfo {
                    taken: rng.below(2) == 0,
                    target: pc + 4 + rng.below(16) * 4,
                    class: BranchClass::Conditional,
                },
            )
            .with_src(src),
        };
        uops.push(uop);
    }
    uops
}

/// Like [`random_stream`] but exercising every uop kind, including the
/// multiply/divide and floating-point classes the bit-transfer table
/// distinguishes.
fn rich_random_stream(seed: u64, len: usize) -> Vec<Uop> {
    let mut rng = XorShift64Star::new(seed.wrapping_mul(0xA5A5_A5A5) | 1);
    let mut uops = Vec::with_capacity(len);
    for i in 0..len {
        let pc = i as u64 * 4;
        let d = 1 + rng.below(6) as u8;
        let s = 1 + rng.below(6) as u8;
        let uop = match rng.below(14) {
            0..=3 => Uop::alu(pc, UopKind::IntAlu)
                .with_dest(ArchReg::int(d))
                .with_src(ArchReg::int(s)),
            4 => Uop::alu(pc, UopKind::IntMul)
                .with_dest(ArchReg::int(d))
                .with_src(ArchReg::int(s))
                .with_src(ArchReg::int(1 + rng.below(6) as u8)),
            5 => Uop::alu(pc, UopKind::IntDiv)
                .with_dest(ArchReg::int(d))
                .with_src(ArchReg::int(s)),
            6 => Uop::alu(pc, UopKind::FpAdd)
                .with_dest(ArchReg::fp(d))
                .with_src(ArchReg::fp(s)),
            7 => Uop::alu(pc, UopKind::FpMul)
                .with_dest(ArchReg::fp(d))
                .with_src(ArchReg::fp(s)),
            8 => Uop::alu(pc, UopKind::FpDiv)
                .with_dest(ArchReg::fp(d))
                .with_src(ArchReg::fp(s)),
            9 => Uop::load(pc, 0x1000 + rng.below(64) * 64, 8)
                .with_src(ArchReg::int(s))
                .with_dest(ArchReg::int(d)),
            10 => Uop::load(pc, 0x1000 + rng.below(64) * 64, 8)
                .with_src(ArchReg::int(s))
                .with_dest(ArchReg::fp(d)),
            11 => {
                let addr = 0x2000 + rng.below(64) * 64;
                // A store has no destination, so `d`'s parity picks the
                // class of its data register instead.
                let data = 1 + rng.below(6) as u8;
                let data = if d.is_multiple_of(2) {
                    ArchReg::fp(data)
                } else {
                    ArchReg::int(data)
                };
                Uop::store(pc, addr, 8)
                    .with_src(ArchReg::int(s))
                    .with_src(data)
            }
            12 => Uop::nop(pc),
            _ => Uop::branch(
                pc,
                BranchInfo {
                    taken: rng.below(2) == 0,
                    target: pc + 8,
                    class: BranchClass::Conditional,
                },
            )
            .with_src(ArchReg::int(s)),
        };
        uops.push(uop);
    }
    uops
}

/// The verdict on every uop's destination value, written from the
/// definitions rather than from live sets: for each definition, scan
/// forward through its readers, up to and including the next definition
/// of the same register. Readers come later in the stream, so visiting
/// the definitions from last to first finds each reader's own verdict
/// already made. Returns each uop's class and the live bits of its
/// destination value (0 for a uop without one).
fn oracle(uops: &[Uop]) -> Vec<(AceClass, u64)> {
    let mut verdicts = vec![(AceClass::Live, 0u64); uops.len()];
    for (i, def) in uops.iter().enumerate().rev() {
        let Some(reg) = def.dest() else { continue };
        let mut redefined = false;
        let mut branch_between = false;
        let mut readers = 0u32;
        let mut live_readers = 0u32;
        let mut full_use = false;
        let mut live_bits = 0u64;
        for (j, uop) in uops.iter().enumerate().skip(i + 1) {
            if uop.srcs().any(|src| src == reg) {
                let (class, reader_live_bits) = verdicts[j];
                readers += 1;
                live_bits |= src_live_mask(uop.kind(), reader_live_bits);
                if !class.is_dead() {
                    live_readers += 1;
                    // A live load reads an integer register as its
                    // address; past a branch even that counts as a full
                    // use, because block boundaries are conservative.
                    full_use |= !uop.is_load() || reg.class() != RegClass::Int || branch_between;
                }
            }
            if uop.dest() == Some(reg) {
                redefined = true;
                break;
            }
            branch_between |= uop.is_branch();
        }
        let class = if !redefined || full_use {
            AceClass::Live
        } else if live_readers > 0 {
            AceClass::AddrOnly
        } else if readers == 0 {
            AceClass::Fdd
        } else {
            AceClass::Tdd
        };
        // Every bit of a value that reaches the horizon is live.
        verdicts[i] = (class, if redefined { live_bits } else { u64::MAX });
    }
    verdicts
}

/// Checks `analyze` against [`oracle`] on every uop of `uops` and tallies
/// the classes checked, indexed Live, AddrOnly, FDD, TDD.
fn check_against_oracle(uops: &[Uop], what: &str, tally: &mut [u64; 4]) {
    let r = analyze(uops);
    for (seq, (uop, &(class, live_bits))) in uops.iter().zip(oracle(uops).iter()).enumerate() {
        let class_mask = match class {
            AceClass::Live => 0,
            AceClass::AddrOnly => !ADDR_MASK,
            AceClass::Fdd | AceClass::Tdd => u64::MAX,
        };
        let mask = if uop.dest().is_some() {
            !live_bits | class_mask
        } else {
            0
        };
        let seq = seq as u64;
        assert_eq!(r.class(seq), class, "{what}: class of seq {seq} ({uop})");
        assert_eq!(
            r.dead_dest_mask(seq),
            mask,
            "{what}: dead-bit mask of seq {seq} ({uop})"
        );
        tally[class as usize] += 1;
    }
}

#[test]
fn analyze_matches_the_definitional_oracle_on_random_streams() {
    let mut tally = [0u64; 4];
    for len in 1..=200usize {
        for seed in 1..=5u64 {
            let seed = seed * 1_000 + len as u64;
            check_against_oracle(
                &random_stream(seed, len),
                &format!("plain {seed}/{len}"),
                &mut tally,
            );
            check_against_oracle(
                &rich_random_stream(seed, len),
                &format!("rich {seed}/{len}"),
                &mut tally,
            );
        }
    }
    let [_, addr_only, fdd, tdd] = tally;
    assert!(
        addr_only >= 2_000 && fdd >= 25_000 && tdd >= 8_000,
        "too few dead verdicts checked: {tally:?}"
    );
}

#[test]
fn analyze_matches_the_definitional_oracle_on_workload_prefixes() {
    // Real prefixes are mostly Live and FDD, which is why the random
    // streams above carry the AddrOnly and TDD coverage.
    let mut tally = [0u64; 4];
    for name in all_benchmarks()
        .into_iter()
        .chain(extra_benchmarks().iter().copied())
    {
        let spec = workload(name).expect("known workload");
        for seed in 1..=2u64 {
            let uops: Vec<Uop> = spec.trace(seed).take(2_000).collect();
            check_against_oracle(&uops, &format!("{name} seed {seed}"), &mut tally);
        }
    }
    let [live, _, fdd, _] = tally;
    assert!(
        live >= 50_000 && fdd >= 5_000,
        "too few verdicts checked: {tally:?}"
    );
}

#[test]
fn flipping_predicted_dead_bits_never_changes_observables() {
    // The transfer-function soundness twin: for every destination bit
    // the static analysis declares dead, flipping that bit in the
    // bit-exact interpreter must leave every observable output (stores,
    // branch conditions, final register file) untouched.
    let mut tested = 0u64;
    for seed in 1..=30u64 {
        let uops = rich_random_stream(seed, 150);
        let r = analyze(&uops);
        let base = interpret(&uops, seed, None);
        let mut rng = XorShift64Star::new(seed.wrapping_mul(0x0DD_B175) | 1);
        for seq in 0..uops.len() {
            if uops[seq].dest().is_none() {
                continue;
            }
            let mask = r.dead_dest_mask(seq as u64);
            if mask == 0 {
                continue;
            }
            for _ in 0..3 {
                let bit = rng.below(64) as u32;
                if mask & (1u64 << bit) == 0 {
                    continue;
                }
                let flipped = interpret(&uops, seed, Some(ValueFlip { seq, bit }));
                assert_eq!(
                    base, flipped,
                    "seed {seed}: flipping predicted-dead bit {bit} of seq {seq} was visible"
                );
                tested += 1;
            }
        }
    }
    assert!(tested > 500, "only {tested} dead-bit flips exercised");
}

#[test]
fn flipping_fully_live_low_bits_is_usually_visible() {
    // Sanity check that the twin has teeth: bit 0 of a value whose
    // dead mask is empty is live by construction, and flipping it
    // changes the observables for a healthy fraction of sites.
    let mut visible = 0u64;
    let mut tested = 0u64;
    for seed in 1..=10u64 {
        let uops = rich_random_stream(seed, 150);
        let r = analyze(&uops);
        let base = interpret(&uops, seed, None);
        for seq in 0..uops.len() {
            if uops[seq].dest().is_none() || r.dead_dest_mask(seq as u64) != 0 {
                continue;
            }
            let flipped = interpret(&uops, seed, Some(ValueFlip { seq, bit: 0 }));
            tested += 1;
            if flipped != base {
                visible += 1;
            }
        }
    }
    assert!(tested > 100, "too few live sites: {tested}");
    assert!(
        visible * 2 > tested,
        "live-bit flips visible in only {visible}/{tested} sites"
    );
}

#[test]
fn bit_refined_dead_bits_dominate_word_level_on_random_streams() {
    for seed in 1..=40u64 {
        let uops = rich_random_stream(seed, 200);
        let r = analyze(&uops);
        for seq in 0..r.horizon() {
            for width in [64u64, 128] {
                let word = r.dead_dest_bits(seq, width);
                let bit = r.bit_dead_dest_bits(seq, width);
                assert!(
                    word <= bit && bit <= width,
                    "seed {seed}, seq {seq}: word {word} bit {bit} width {width}"
                );
            }
        }
    }
}

#[test]
fn dead_bits_never_exceed_register_width_on_random_streams() {
    for seed in 1..=40u64 {
        let uops = random_stream(seed, 200);
        let r = analyze(&uops);
        for seq in 0..r.horizon() {
            for width in [1u64, 48, 64, 128] {
                assert!(
                    r.dead_dest_bits(seq, width) <= width,
                    "seed {seed}, seq {seq}: dead bits exceed width {width}"
                );
            }
        }
    }
}

#[test]
fn refined_abc_never_exceeds_unrefined_on_random_streams() {
    // Replay each analyzed stream into an ACE counter as if every uop's
    // destination value occupied a 64-bit register for a random interval;
    // the statically-dead bits subtract, so refined <= unrefined always.
    for seed in 1..=40u64 {
        let uops = random_stream(seed, 200);
        let r = analyze(&uops);
        let mut ace = AceCounter::new();
        let mut rng = XorShift64Star::new(seed.wrapping_mul(0x9E37_79B9));
        let mut t = 0u64;
        for seq in 0..r.horizon() {
            let len = 1 + rng.below(20);
            ace.record_committed(Structure::RfInt, 64, t, t + len);
            let dead = r.dead_dest_bits(seq, 64);
            if dead > 0 {
                ace.record_dead(Structure::RfInt, dead, t, t + len);
            }
            t += rng.below(4);
        }
        let unrefined = ace.abc(Structure::RfInt);
        let refined = ace.refined_abc(Structure::RfInt);
        assert!(
            refined <= unrefined,
            "seed {seed}: refined {refined} > unrefined {unrefined}"
        );
        assert_eq!(
            ace.total_refined_abc(),
            refined,
            "only RfInt was recorded, so totals agree"
        );
    }
}

#[test]
fn classification_totals_partition_the_horizon() {
    for seed in 1..=40u64 {
        let uops = random_stream(seed, 200);
        let s = analyze(&uops).summary();
        assert_eq!(
            s.live + s.addr_only + s.fdd + s.tdd,
            s.analyzed,
            "seed {seed}: classes must partition the stream"
        );
    }
}

#[test]
fn sanitizer_catches_randomly_seeded_uop_leaks() {
    for seed in 1..=40u64 {
        let mut rng = XorShift64Star::new(seed.wrapping_mul(0xDEAD_BEEF) | 1);
        let dispatched = 100 + rng.below(1_000);
        let committed = rng.below(dispatched);
        let squashed = rng.below(dispatched - committed + 1);
        let in_flight = dispatched - committed - squashed;

        // Balanced books pass...
        let mut ok = Sanitizer::new(2);
        ok.check_uop_conservation(7, dispatched, committed, squashed, in_flight);
        assert!(
            ok.first_violation().is_none(),
            "seed {seed}: false positive"
        );

        // ...and a leak of any nonzero size is caught.
        let leak = 1 + rng.below(50);
        let mut bad = Sanitizer::new(2);
        bad.check_uop_conservation(7, dispatched + leak, committed, squashed, in_flight);
        let v = bad
            .first_violation()
            .unwrap_or_else(|| panic!("seed {seed}: leak of {leak} uops missed"));
        assert_eq!(v.cycle, 7);
    }
}

#[test]
fn sanitizer_catches_randomly_seeded_mshr_imbalance() {
    for seed in 1..=40u64 {
        let mut rng = XorShift64Star::new(seed.wrapping_mul(0x5EED) | 1);
        let released = rng.below(500);
        let resident = rng.below(20) as usize;
        let allocations = released + resident as u64;

        let mut ok = Sanitizer::new(2);
        ok.check_mshr(3, allocations, released, resident, 20, resident);
        assert!(
            ok.first_violation().is_none(),
            "seed {seed}: false positive"
        );

        let leak = 1 + rng.below(10);
        let mut bad = Sanitizer::new(2);
        bad.check_mshr(3, allocations + leak, released, resident, 20, resident);
        assert!(
            bad.first_violation().is_some(),
            "seed {seed}: MSHR leak of {leak} missed"
        );
    }
}
