//! Per-kind bit-transfer functions: the modeled ISA's bit-level dataflow
//! contract.
//!
//! The word-level classes of [`crate::liveness`] decide *whether* a
//! destination value is live; this module decides *which bits* of each
//! source a uop can propagate into which bits of its destination. Both
//! the backward dead-bit masks of [`crate::analyze`] and the forward
//! per-bit poison propagation in the fault-injecting core apply the same
//! table, so every static "this bit is dead" claim is checked by the
//! dynamic model under single-bit strikes.
//!
//! ## The modeled bit-semantics contract
//!
//! The simulator is trace-driven and carries no data values, so bit
//! semantics are a contract on the modeled [`UopKind`] classes (stated
//! on the enum itself in `rar-isa`), not on concrete opcodes:
//!
//! - **`IntAlu` / `IntMul` are carry-monotone**: destination bit `d`
//!   depends only on source bits `<= d` (wrapping add/sub, bitwise
//!   logic, constant left shifts, multiply). Backward, a live
//!   destination mask therefore demands the sources only up to its most
//!   significant live bit ([`smear_down`]); forward, a flipped source
//!   bit can only disturb destination bits at or above it
//!   ([`smear_up`]).
//! - **`IntDiv` and the FP kinds are all-to-all**: a quotient, mantissa
//!   or exponent bit can depend on any source bit, so any live
//!   destination bit demands every source bit and any poisoned source
//!   bit poisons the whole destination.
//! - **`Load` sources form an address**: only the low
//!   [`ADDR_BITS`] bits of a source can change which
//!   line is accessed; the loaded data itself comes from memory, so no
//!   source bit flows *through* a load into its destination bits — an
//!   in-range address flip corrupts the whole loaded value instead.
//! - **`Store` sources are architectural roots**: address and data both
//!   reach memory, so every source bit is consumed.
//! - **`Branch` tests bit 0 of its condition sources** (the canonical
//!   output bit of a preceding compare, RISC-style): the condition
//!   collapses to one live bit per source.
//! - **`Nop` touches nothing.**
//!
//! The backward and forward directions are adjoint: if a poison mask is
//! disjoint from the backward-demanded source mask, the forward
//! propagation of that poison is disjoint from the destination's live
//! mask (checked exhaustively in the tests below). That adjunction is
//! what makes the injection campaign's predicted-dead stratum land
//! masked.
//!
//! `cargo xtask lint` enforces that every `UopKind` variant appears
//! explicitly in both transfer functions — no catch-all arms — so a new
//! uop kind cannot silently inherit another kind's bit behavior.

use crate::liveness::ADDR_BITS;
use rar_isa::UopKind;

/// Width of a value-lane bit mask. Wider registers (the 128-bit FP
/// registers) fold onto the mask modulo this width: mask bit `i` covers
/// register bits `i` and `i + 64`.
pub const MASK_BITS: u64 = 64;

/// The low [`ADDR_BITS`] bits: the portion of a register that can
/// influence address formation.
pub const ADDR_MASK: u64 = (1u64 << ADDR_BITS) - 1;

/// All bits at or below the most significant set bit of `mask`
/// (`0b0010_1000 -> 0b0011_1111`); zero stays zero. The backward image
/// of a live set under a carry-monotone operation.
#[must_use]
pub const fn smear_down(mask: u64) -> u64 {
    if mask == 0 {
        0
    } else {
        let msb = 63 - mask.leading_zeros();
        if msb >= 63 {
            u64::MAX
        } else {
            (1u64 << (msb + 1)) - 1
        }
    }
}

/// All bits at or above the least significant set bit of `mask`
/// (`0b0010_1000 -> 0xffff_..._f8`); zero stays zero. The forward image
/// of a poison set under a carry-monotone operation.
#[must_use]
pub const fn smear_up(mask: u64) -> u64 {
    if mask == 0 {
        0
    } else {
        u64::MAX << mask.trailing_zeros()
    }
}

/// The full mask if `mask` is nonempty, empty otherwise: the transfer of
/// an all-to-all operation in either direction.
#[must_use]
pub const fn all_if_any(mask: u64) -> u64 {
    if mask == 0 {
        0
    } else {
        u64::MAX
    }
}

/// Backward bit-transfer function: given the live mask of the uop's
/// destination value, the mask of source bits the uop demands.
///
/// Side-effecting kinds (`Store`, `Branch`) consume their sources
/// regardless of `dest_live`; pure value producers demand nothing when
/// no destination bit is live. Every variant has an explicit arm —
/// enforced by `cargo xtask lint` (bit-transfer-coverage).
#[must_use]
pub const fn src_live_mask(kind: UopKind, dest_live: u64) -> u64 {
    match kind {
        UopKind::IntAlu => smear_down(dest_live),
        UopKind::IntMul => smear_down(dest_live),
        UopKind::IntDiv => all_if_any(dest_live),
        UopKind::FpAdd => all_if_any(dest_live),
        UopKind::FpMul => all_if_any(dest_live),
        UopKind::FpDiv => all_if_any(dest_live),
        UopKind::Load => {
            if dest_live == 0 {
                0
            } else {
                ADDR_MASK
            }
        }
        UopKind::Store => u64::MAX,
        UopKind::Branch => 1,
        UopKind::Nop => 0,
    }
}

/// The source bits the uop reads at all, assuming every destination bit
/// matters: `src_live_mask(kind, full)`. A poisoned source bit outside
/// this mask cannot influence the uop's result or side effect.
#[must_use]
pub const fn consumed_src_mask(kind: UopKind) -> u64 {
    src_live_mask(kind, u64::MAX)
}

/// Forward bit-transfer function: given the consumed poisoned source
/// bits (already intersected with [`consumed_src_mask`]), the poison
/// mask of the destination value. Kinds without a destination
/// (`Store`, `Branch`, `Nop`) produce no poison — their consumption is
/// an architectural corruption, accounted where the poison is consumed.
/// Every variant has an explicit arm — enforced by `cargo xtask lint`.
#[must_use]
pub const fn dest_poison_mask(kind: UopKind, consumed_poison: u64) -> u64 {
    match kind {
        UopKind::IntAlu => smear_up(consumed_poison),
        UopKind::IntMul => smear_up(consumed_poison),
        UopKind::IntDiv => all_if_any(consumed_poison),
        UopKind::FpAdd => all_if_any(consumed_poison),
        UopKind::FpMul => all_if_any(consumed_poison),
        UopKind::FpDiv => all_if_any(consumed_poison),
        UopKind::Load => all_if_any(consumed_poison),
        UopKind::Store => 0,
        UopKind::Branch => 0,
        UopKind::Nop => 0,
    }
}

/// Every uop kind, for exhaustive iteration in tests and lints.
pub const ALL_KINDS: [UopKind; 10] = UopKind::ALL;

#[cfg(test)]
mod tests {
    use super::*;
    use rar_isa::rng::XorShift64Star;

    #[test]
    fn smear_down_covers_low_bits() {
        assert_eq!(smear_down(0), 0);
        assert_eq!(smear_down(1), 1);
        assert_eq!(smear_down(0b10100), 0b11111);
        assert_eq!(smear_down(1 << 63), u64::MAX);
    }

    #[test]
    fn smear_up_covers_high_bits() {
        assert_eq!(smear_up(0), 0);
        assert_eq!(smear_up(1), u64::MAX);
        assert_eq!(smear_up(0b1000), u64::MAX << 3);
        assert_eq!(smear_up(1 << 63), 1 << 63);
    }

    #[test]
    fn backward_is_monotone_in_dest_liveness() {
        // A smaller live set never demands more source bits.
        let probes = [0u64, 1, 0b10, 0xff00, 1 << 47, 1 << 63, u64::MAX];
        for kind in ALL_KINDS {
            for &a in &probes {
                for &b in &probes {
                    if a & b == a {
                        let la = src_live_mask(kind, a);
                        let lb = src_live_mask(kind, b);
                        assert_eq!(la & lb, la, "{kind}: {a:#x} subset {b:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn pure_producers_demand_nothing_for_a_dead_dest() {
        for kind in ALL_KINDS {
            let expected = match kind {
                UopKind::Store => u64::MAX,
                UopKind::Branch => 1,
                _ => 0,
            };
            assert_eq!(src_live_mask(kind, 0), expected, "{kind}");
        }
    }

    #[test]
    fn forward_and_backward_are_adjoint() {
        // If a poison mask avoids every backward-demanded source bit,
        // its forward propagation avoids every live destination bit —
        // the soundness condition the injection campaign validates
        // empirically.
        let mut rng = XorShift64Star::new(0x1234_5678_9abc_def1);
        for kind in ALL_KINDS {
            for _ in 0..2_000 {
                let live = rng.next_u64() & rng.next_u64(); // biased toward sparse masks
                let poison = rng.next_u64() & rng.next_u64();
                if poison & src_live_mask(kind, live) != 0 {
                    continue;
                }
                let consumed = poison & consumed_src_mask(kind);
                let out = dest_poison_mask(kind, consumed);
                assert_eq!(out & live, 0, "{kind}: live {live:#x} poison {poison:#x}");
            }
        }
    }

    #[test]
    fn load_severs_the_data_chain() {
        // No source bit flows through a load: demanded bits are address
        // bits only, and a clean address means a clean destination.
        assert_eq!(src_live_mask(UopKind::Load, u64::MAX), ADDR_MASK);
        assert_eq!(dest_poison_mask(UopKind::Load, 0), 0);
        assert_eq!(dest_poison_mask(UopKind::Load, 1 << 12), u64::MAX);
    }

    #[test]
    fn branch_collapses_to_one_bit() {
        assert_eq!(consumed_src_mask(UopKind::Branch), 1);
        assert_eq!(src_live_mask(UopKind::Branch, 0), 1);
    }
}
