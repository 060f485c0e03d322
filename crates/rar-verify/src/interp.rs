//! A bit-exact reference interpreter for uop streams.
//!
//! The timing simulator carries no data values, so the bit-transfer
//! contract of [`crate::transfer`] cannot be checked against "the real
//! machine". This module supplies one: a tiny concrete machine whose
//! per-kind semantics are a *sound instance* of the transfer contract
//! (wrapping add for the carry-monotone class, bit-0 condition tests
//! for branches, 48-bit address formation for memory ops). Flipping a
//! statically dead destination bit in an interpreted stream must never
//! change the observable outputs — the property the randomized and
//! proptest twins drive.
//!
//! Observables are everything the analysis horizon treats as live:
//! every store's `(address, value)` pair, every branch's condition
//! bits, and the final architectural register file (the analysis seeds
//! the horizon fully live, so values surviving to the end are never
//! classified dead).

use crate::liveness::ADDR_BITS;
use rar_isa::{rng, ArchReg, RegClass, Uop, UopKind};
use std::collections::HashMap;

/// Deterministic register/memory initializer: one SplitMix64 step.
fn init(x: u64) -> u64 {
    rng::mix(x.wrapping_add(rng::GOLDEN_GAMMA))
}

/// The observable outputs of one interpreted stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// `(address, value)` of every executed store, in program order.
    pub stores: Vec<(u64, u64)>,
    /// Condition bit of every executed branch source, in program order.
    pub branch_bits: Vec<u64>,
    /// Final architectural register file (64 flat registers).
    pub final_regs: Vec<u64>,
}

/// A single-bit corruption applied to the destination value produced by
/// the uop at stream position `seq` (after it executes, before any
/// consumer reads it) — the interpreter analogue of a register-file
/// strike landing on that value.
#[derive(Debug, Clone, Copy)]
pub struct ValueFlip {
    /// Stream position of the producing uop.
    pub seq: usize,
    /// Bit index within the 64-bit value lane.
    pub bit: u32,
}

/// Interprets `uops` over a deterministic initial state derived from
/// `seed`, optionally flipping one produced destination bit.
#[must_use]
pub fn interpret(uops: &[Uop], seed: u64, flip: Option<ValueFlip>) -> Observation {
    let mut regs = vec![0u64; ArchReg::total_count()];
    for (i, r) in regs.iter_mut().enumerate() {
        *r = init(seed ^ (i as u64) << 8);
    }
    let mut memory: HashMap<u64, u64> = HashMap::new();
    let mut stores = Vec::new();
    let mut branch_bits = Vec::new();

    for (i, uop) in uops.iter().enumerate() {
        let src: Vec<u64> = uop.srcs().map(|r| regs[r.flat_index()]).collect();
        let s0 = src.first().copied().unwrap_or(0);
        let s1 = src.get(1).copied().unwrap_or(0);
        let addr_mask = (1u64 << ADDR_BITS) - 1;
        // Each arm is an instance of the per-kind bit-transfer contract
        // in `transfer.rs`; see the module docs there.
        let value = match uop.kind() {
            UopKind::IntAlu => Some(s0.wrapping_add(s1)),
            UopKind::IntMul => Some(s0.wrapping_mul(s1).wrapping_add(s0)),
            UopKind::IntDiv => Some(s0.wrapping_div(s1 | 1).rotate_left(13) ^ s1),
            UopKind::FpAdd => Some((f64::from_bits(s0) + f64::from_bits(s1)).to_bits()),
            UopKind::FpMul => Some((f64::from_bits(s0) * f64::from_bits(s1)).to_bits()),
            UopKind::FpDiv => Some((f64::from_bits(s0) / f64::from_bits(s1 | (1 << 52))).to_bits()),
            UopKind::Load => {
                let addr = s0.wrapping_add(s1) & addr_mask;
                Some(*memory.entry(addr).or_insert_with(|| init(addr)))
            }
            UopKind::Store => {
                let addr = s0.wrapping_add(s1) & addr_mask;
                let data = s0 ^ s1.rotate_left(17);
                memory.insert(addr, data);
                stores.push((addr, data));
                None
            }
            UopKind::Branch => {
                for s in &src {
                    branch_bits.push(s & 1);
                }
                None
            }
            UopKind::Nop => None,
        };
        if let (Some(dest), Some(mut v)) = (uop.dest(), value) {
            if let Some(f) = flip {
                if f.seq == i {
                    v ^= 1u64 << (f.bit % 64);
                }
            }
            // The FP bank is architecturally 128 bits wide; the
            // interpreter models the 64-bit value lane the masks cover.
            debug_assert!(matches!(dest.class(), RegClass::Int | RegClass::Fp));
            regs[dest.flat_index()] = v;
        }
    }

    Observation {
        stores,
        branch_bits,
        final_regs: regs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rar_isa::{BranchClass, BranchInfo};

    fn alu_rr(pc: u64, dest: u8, src: u8) -> Uop {
        Uop::alu(pc, UopKind::IntAlu)
            .with_dest(ArchReg::int(dest))
            .with_src(ArchReg::int(src))
    }

    #[test]
    fn interpretation_is_deterministic() {
        let uops = vec![
            alu_rr(0, 1, 2),
            Uop::store(4, 0, 8).with_src(ArchReg::int(1)),
        ];
        assert_eq!(interpret(&uops, 7, None), interpret(&uops, 7, None));
        assert_ne!(
            interpret(&uops, 7, None).stores,
            interpret(&uops, 8, None).stores,
            "different seeds produce different values"
        );
    }

    #[test]
    fn flipping_a_live_bit_changes_observables() {
        let uops = vec![
            alu_rr(0, 1, 2),
            Uop::store(4, 0, 8).with_src(ArchReg::int(1)),
        ];
        let base = interpret(&uops, 7, None);
        let hit = interpret(&uops, 7, Some(ValueFlip { seq: 0, bit: 33 }));
        assert_ne!(base.stores, hit.stores, "store data exposes every bit");
    }

    #[test]
    fn flipping_a_branch_only_high_bit_is_invisible() {
        // r1 feeds only a branch condition then is overwritten: bits
        // above bit 0 are dead, and the interpreter agrees.
        let uops = vec![
            alu_rr(0, 1, 2),
            Uop::branch(
                4,
                BranchInfo {
                    taken: true,
                    target: 8,
                    class: BranchClass::Conditional,
                },
            )
            .with_src(ArchReg::int(1)),
            alu_rr(8, 1, 3),
        ];
        let base = interpret(&uops, 7, None);
        let dead = interpret(&uops, 7, Some(ValueFlip { seq: 0, bit: 41 }));
        assert_eq!(base, dead);
        let live = interpret(&uops, 7, Some(ValueFlip { seq: 0, bit: 0 }));
        assert_ne!(base.branch_bits, live.branch_bits);
    }
}
