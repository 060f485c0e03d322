//! Backward dead-value analysis: FDD/TDD classification and dead
//! destination bits.
//!
//! Mukherjee-style ACE accounting treats every committed instruction's
//! destination value as ACE. Two classes of committed values are in fact
//! architecturally dead and therefore un-ACE:
//!
//! - **FDD** (first-level dynamically dead): the destination register is
//!   overwritten before anything reads it.
//! - **TDD** (transitively dynamically dead): the destination *is* read,
//!   but only by uops whose own destinations are FDD or TDD — the whole
//!   chain feeds nothing architecturally visible.
//!
//! A third, bit-level class refines partially-dead values: a value
//! consumed **only as a load address** ([`AceClass::AddrOnly`]) exposes
//! only its [`ADDR_BITS`] low-order bits; the top `64 - ADDR_BITS` bits of
//! the register can flip without changing the access.
//!
//! For the bits of a value that is needed, the per-kind transfer
//! functions of [`crate::transfer`] say which ones: a branch demands one
//! condition bit of its sources, a load demands only address bits, and
//! carry-monotone ALU kinds demand bits only up to the most significant
//! live destination bit. The result is a per-uop dead-bit mask that
//! generalizes the all-or-nothing `dead_dest_bits` of the classes.
//!
//! The analysis is static over the (deterministic, trace-driven) uop
//! stream and exact for committed uops: the committed dynamic stream *is*
//! the static stream, so "next write of r" in the trace is the dynamic
//! overwrite. Squashed occupancy is already un-ACE by construction in the
//! counter and is unaffected here.
//!
//! Roots of liveness (never dead): stores (both address and data feed
//! memory), branches (control flow), and every register at the analysis
//! horizon (conservative live-out). Basic-block boundaries are
//! conservative too: a register live past a branch is fully live, even
//! if its only later reader uses it as a load address.
//!
//! The trace is a straight line and every reader of a value comes after
//! it, so one backward pass has already given each reader its final
//! verdict when it reaches the definition: the one pass computes the
//! fixpoint of the dataflow equations.

use crate::transfer::{src_live_mask, ADDR_MASK};
use rar_isa::{RegClass, Uop, UopKind};

/// Architecturally meaningful virtual-address bits. A value used only for
/// address formation exposes this many low-order bits; the rest are dead
/// (canonical sign bits on a 48-bit virtual address space).
pub const ADDR_BITS: u64 = 48;

/// Per-uop ACE classification of the destination value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AceClass {
    /// Destination (or the uop's side effect) is architecturally live;
    /// nothing is refined away. Uops without a destination are `Live`.
    #[default]
    Live,
    /// Destination is consumed only as a load address: bits above
    /// [`ADDR_BITS`] are dead.
    AddrOnly,
    /// First-level dynamically dead: overwritten before any read.
    Fdd,
    /// Transitively dynamically dead: read only by dead uops.
    Tdd,
}

impl AceClass {
    /// Dead bits of a destination value held in a register of
    /// `width_bits`. Always `<= width_bits`.
    #[must_use]
    pub fn dead_dest_bits(self, width_bits: u64) -> u64 {
        match self {
            AceClass::Live => 0,
            AceClass::AddrOnly => width_bits.saturating_sub(ADDR_BITS),
            AceClass::Fdd | AceClass::Tdd => width_bits,
        }
    }

    /// Whether the destination value is fully dead.
    #[must_use]
    pub fn is_dead(self) -> bool {
        matches!(self, AceClass::Fdd | AceClass::Tdd)
    }
}

/// Aggregate classification counts for one analyzed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefinementSummary {
    /// Uops analyzed (the horizon length).
    pub analyzed: u64,
    /// Fully live destinations (including uops without a destination).
    pub live: u64,
    /// Address-only destinations (partially dead).
    pub addr_only: u64,
    /// First-level dynamically dead destinations.
    pub fdd: u64,
    /// Transitively dynamically dead destinations.
    pub tdd: u64,
}

/// The product of the analysis: a per-sequence-number [`AceClass`] map the
/// ACE counter consults at commit time. Sequence numbers beyond the
/// analyzed horizon conservatively classify as [`AceClass::Live`].
///
/// The classification tables are reference-counted, so cloning a
/// refinement is O(1): a sweep engine can analyze a (workload, seed,
/// horizon) triple once and hand the same result to every simulation
/// cell that shares it (the analysis is a pure function of the static
/// instruction stream, so sharing is sound).
#[derive(Debug, Clone, Default)]
pub struct AceRefinement {
    classes: std::sync::Arc<[AceClass]>,
    /// Per-uop dead destination-bit masks from the per-kind transfer
    /// functions, already unioned with the word-level class mask so
    /// `bit_dead_dest_bits >= dead_dest_bits` holds by construction (the
    /// AVF ordering invariant).
    masks: std::sync::Arc<[u64]>,
}

impl AceRefinement {
    /// An empty refinement: everything classifies as live.
    #[must_use]
    pub fn none() -> Self {
        AceRefinement::default()
    }

    /// Classification of the uop with sequence number `seq`.
    #[must_use]
    pub fn class(&self, seq: u64) -> AceClass {
        usize::try_from(seq)
            .ok()
            .and_then(|i| self.classes.get(i).copied())
            .unwrap_or(AceClass::Live)
    }

    /// Dead bits of the destination value of uop `seq`, given the bit
    /// width of the physical register holding it.
    #[must_use]
    pub fn dead_dest_bits(&self, seq: u64, width_bits: u64) -> u64 {
        self.class(seq).dead_dest_bits(width_bits)
    }

    /// Dead destination-*bit* mask of uop `seq` over the 64-bit value
    /// lane (bit `i` of the mask covers register bits `i`, `i + 64`, …
    /// for registers wider than 64 bits). Empty beyond the horizon.
    #[must_use]
    pub fn dead_dest_mask(&self, seq: u64) -> u64 {
        usize::try_from(seq)
            .ok()
            .and_then(|i| self.masks.get(i).copied())
            .unwrap_or(0)
    }

    /// Bit-refined dead bits of the destination value of uop `seq` for a
    /// register of `width_bits`: the word-level [`Self::dead_dest_bits`]
    /// plus every additionally-dead bit the per-kind transfer functions
    /// prove. Always within `[dead_dest_bits, width_bits]`, which is the
    /// `bit_refined <= refined <= unrefined` AVF ordering at the
    /// per-value level.
    #[must_use]
    pub fn bit_dead_dest_bits(&self, seq: u64, width_bits: u64) -> u64 {
        let word = self.dead_dest_bits(seq, width_bits);
        let mask = self.dead_dest_mask(seq);
        // Mask bit i covers width_bits / 64 physical bits (e.g. two for
        // the 128-bit FP registers).
        let scaled = u64::from(mask.count_ones()) * width_bits / crate::transfer::MASK_BITS;
        scaled.max(word).min(width_bits)
    }

    /// Number of uops covered by the analysis.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.classes.len() as u64
    }

    /// Classification counts over the analyzed horizon.
    #[must_use]
    pub fn summary(&self) -> RefinementSummary {
        let mut s = RefinementSummary {
            analyzed: self.classes.len() as u64,
            ..RefinementSummary::default()
        };
        for c in self.classes.iter() {
            match c {
                AceClass::Live => s.live += 1,
                AceClass::AddrOnly => s.addr_only += 1,
                AceClass::Fdd => s.fdd += 1,
                AceClass::Tdd => s.tdd += 1,
            }
        }
        s
    }
}

/// Whether a dead destination still leaves the uop with an architectural
/// side effect that must be preserved (and hence keeps its sources live).
fn has_side_effect(uop: &Uop) -> bool {
    matches!(uop.kind(), UopKind::Store | UopKind::Branch)
}

/// Analyzes a finite uop stream and classifies every destination value.
///
/// One backward pass from the horizon. The horizon is conservative: every
/// register is treated as live-out at the end of the slice, so values
/// still in flight at the boundary are never classified dead.
#[must_use]
pub fn analyze(uops: &[Uop]) -> AceRefinement {
    let mut classes = vec![AceClass::Live; uops.len()];
    let mut masks = vec![0u64; uops.len()];
    // Register sets, one bit per `ArchReg::flat_index`. `full`: a live
    // reader needs the whole value. `addr`: a live reader in the current
    // basic block needs it only as a load address. `read`: some reader,
    // dead or not, comes before the next definition (FDD versus TDD).
    let mut full = u64::MAX;
    let mut addr = 0u64;
    let mut read = 0u64;
    // Live-bit mask per register.
    let mut bits = [u64::MAX; 64];
    let slots = uops.iter().zip(classes.iter_mut()).zip(masks.iter_mut());
    for ((uop, class_out), mask_out) in slots.rev() {
        if uop.is_branch() {
            // A branch closes its block, and whatever is live out of a
            // block is fully live.
            full |= addr;
            addr = 0;
        }
        let mut dest_live = 0;
        let mut dead = false;
        if let Some(dest) = uop.dest() {
            let r = 1u64 << dest.flat_index();
            let class = if full & r != 0 {
                AceClass::Live
            } else if addr & r != 0 {
                AceClass::AddrOnly
            } else if read & r == 0 {
                AceClass::Fdd
            } else {
                AceClass::Tdd
            };
            full &= !r;
            addr &= !r;
            read &= !r;
            dest_live = std::mem::take(&mut bits[dest.flat_index()]);
            // Unioned with the class mask, so the bit refinement can only
            // remove *more* ACE mass than the word refinement (the AVF
            // ordering invariant, structurally).
            *mask_out = !dest_live
                | match class {
                    AceClass::Live => 0,
                    AceClass::AddrOnly => !ADDR_MASK,
                    AceClass::Fdd | AceClass::Tdd => u64::MAX,
                };
            *class_out = class;
            dead = class.is_dead();
        }
        // A dead uop's reads keep nothing live — unless the uop has an
        // architectural side effect, which cannot be dead.
        let keeps_live = !dead || has_side_effect(uop);
        let demanded = src_live_mask(uop.kind(), dest_live);
        for src in uop.srcs() {
            let r = 1u64 << src.flat_index();
            read |= r;
            bits[src.flat_index()] |= demanded;
            if keeps_live {
                if uop.kind() == UopKind::Load && src.class() == RegClass::Int {
                    // Load sources feed address formation only.
                    addr |= r & !full;
                } else {
                    addr &= !r;
                    full |= r;
                }
            }
        }
    }
    AceRefinement {
        classes: classes.into(),
        masks: masks.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rar_isa::{ArchReg, BranchClass, BranchInfo};

    fn alu(pc: u64, dest: u8) -> Uop {
        Uop::alu(pc, UopKind::IntAlu).with_dest(ArchReg::int(dest))
    }

    fn alu_rr(pc: u64, dest: u8, src: u8) -> Uop {
        alu(pc, dest).with_src(ArchReg::int(src))
    }

    fn branch(pc: u64) -> Uop {
        Uop::branch(
            pc,
            BranchInfo {
                taken: false,
                target: pc + 4,
                class: BranchClass::Conditional,
            },
        )
    }

    fn branch_on(pc: u64, src: u8) -> Uop {
        branch(pc).with_src(ArchReg::int(src))
    }

    fn load(pc: u64, dest: u8, addr_src: u8) -> Uop {
        Uop::load(pc, 0x2000, 8)
            .with_src(ArchReg::int(addr_src))
            .with_dest(ArchReg::int(dest))
    }

    fn store(pc: u64, src: u8) -> Uop {
        Uop::store(pc, 0x3000, 8).with_src(ArchReg::int(src))
    }

    #[test]
    fn overwrite_without_read_is_fdd() {
        let uops = vec![alu(0, 1), alu(4, 1), alu_rr(8, 2, 1)];
        let r = analyze(&uops);
        assert_eq!(r.class(0), AceClass::Fdd);
        assert_eq!(r.class(1), AceClass::Live);
        assert_eq!(r.summary().fdd, 1);
    }

    #[test]
    fn read_by_dead_chain_is_tdd() {
        // u0 -> read by u1 -> read by u2; r3 then overwritten unread.
        // u2 is FDD, u1 becomes TDD, u0 becomes TDD transitively.
        let uops = vec![
            alu(0, 1),
            alu_rr(4, 2, 1),
            alu_rr(8, 3, 2),
            alu(12, 3),
            alu(16, 2),
            alu(20, 1),
            alu_rr(24, 4, 3).with_src(ArchReg::int(2)),
        ];
        let r = analyze(&uops);
        assert_eq!(r.class(2), AceClass::Fdd, "r3 overwritten unread");
        assert_eq!(r.class(1), AceClass::Tdd, "read only by dead u2");
        assert_eq!(r.class(0), AceClass::Tdd, "read only by dead u1");
    }

    #[test]
    fn store_and_branch_sources_are_roots() {
        let uops = vec![
            alu(0, 1),
            Uop::store(4, 0x1000, 8).with_src(ArchReg::int(1)),
            alu(8, 1),
            branch(12).with_src(ArchReg::int(1)),
            alu(16, 1),
        ];
        let r = analyze(&uops);
        assert_eq!(r.class(0), AceClass::Live, "feeds a store");
        assert_eq!(r.class(2), AceClass::Live, "feeds a branch");
        // The final write survives to the horizon: conservatively live.
        assert_eq!(r.class(4), AceClass::Live);
    }

    #[test]
    fn address_only_value_has_dead_top_bits() {
        let uops = vec![
            alu(0, 1),
            Uop::load(4, 0x2000, 8)
                .with_src(ArchReg::int(1))
                .with_dest(ArchReg::int(2)),
            Uop::store(8, 0x3000, 8).with_src(ArchReg::int(2)),
            alu(12, 1),
        ];
        let r = analyze(&uops);
        assert_eq!(r.class(0), AceClass::AddrOnly);
        assert_eq!(r.dead_dest_bits(0, 64), 64 - ADDR_BITS);
        assert_eq!(r.class(1), AceClass::Live, "loaded value feeds a store");
    }

    #[test]
    fn promotion_to_full_liveness_wins_over_addr_only() {
        // r1 feeds both a load address and an ALU op: fully live.
        let uops = vec![
            alu(0, 1),
            Uop::load(4, 0x2000, 8)
                .with_src(ArchReg::int(1))
                .with_dest(ArchReg::int(2)),
            alu_rr(8, 3, 1),
            Uop::store(12, 0x3000, 8)
                .with_src(ArchReg::int(2))
                .with_src(ArchReg::int(3)),
            alu(16, 1),
        ];
        let r = analyze(&uops);
        assert_eq!(r.class(0), AceClass::Live);
    }

    #[test]
    fn horizon_is_conservative() {
        let uops = vec![alu(0, 1), alu(4, 2)];
        let r = analyze(&uops);
        assert_eq!(r.class(0), AceClass::Live);
        assert_eq!(r.class(1), AceClass::Live);
        assert_eq!(r.class(99), AceClass::Live, "beyond horizon");
    }

    #[test]
    fn dead_bits_never_exceed_width() {
        for class in [
            AceClass::Live,
            AceClass::AddrOnly,
            AceClass::Fdd,
            AceClass::Tdd,
        ] {
            for width in [0u64, 1, 48, 64, 128] {
                assert!(class.dead_dest_bits(width) <= width);
            }
        }
    }

    #[test]
    fn dead_reader_across_a_branch_is_tdd() {
        // u2 reads r1 in the next block but is itself dead (r2 is
        // overwritten unread), so u0's value is transitively dead even
        // though its only reader lies past a branch.
        let uops = vec![
            alu(0, 1),
            branch(4),
            alu_rr(8, 2, 1),
            alu(12, 1),
            alu(16, 2),
        ];
        let r = analyze(&uops);
        assert_eq!(r.class(2), AceClass::Fdd);
        assert_eq!(r.class(0), AceClass::Tdd, "read only by a dead uop");
        assert_eq!(r.dead_dest_mask(0), u64::MAX);
    }

    #[test]
    fn load_address_after_a_branch_is_live() {
        // The same address-only use as `address_only_value_has_dead_top_bits`,
        // but in the next block: whatever is live out of a block is fully
        // live, so the word level keeps every bit.
        let uops = vec![
            alu(0, 1),
            branch(4),
            load(8, 2, 1),
            store(12, 2),
            alu(16, 1),
        ];
        let r = analyze(&uops);
        assert_eq!(r.class(0), AceClass::Live);
        assert_eq!(r.dead_dest_bits(0, 64), 0);
        // The bit level sees through the block boundary: the load still
        // demands only the address bits.
        assert_eq!(r.dead_dest_mask(0), !ADDR_MASK);
    }

    #[test]
    fn transfer_functions_shape_the_dead_bit_masks() {
        // (case, stream, expected dead-bit mask per sequence number)
        let cases = [
            (
                "a branch condition keeps one live bit",
                vec![alu(0, 1), branch_on(4, 1), alu(8, 1)],
                vec![(0, !1)],
            ),
            (
                "a load address keeps the low bits only; loaded data feeds a store",
                vec![alu(0, 1), load(4, 2, 1), store(8, 2), alu(12, 1)],
                vec![(0, !ADDR_MASK), (1, 0)],
            ),
            (
                "a carry-monotone chain narrows to the live prefix",
                vec![
                    alu(0, 1),
                    alu_rr(4, 2, 1),
                    branch_on(8, 2),
                    alu(12, 1),
                    alu(16, 2),
                ],
                vec![(1, !1), (0, !1)],
            ),
            (
                "store sources are fully live",
                vec![alu(0, 1), store(4, 1), alu(8, 1)],
                vec![(0, 0)],
            ),
            (
                "an unread overwritten value is fully dead",
                vec![alu(0, 1), alu(4, 1), store(8, 1)],
                vec![(0, u64::MAX), (1, 0)],
            ),
            (
                "every register is fully live at the horizon",
                vec![alu(0, 1)],
                vec![(0, 0)],
            ),
            (
                "a divide demands every source bit",
                vec![
                    alu(0, 1),
                    Uop::alu(4, UopKind::IntDiv)
                        .with_src(ArchReg::int(1))
                        .with_dest(ArchReg::int(2)),
                    branch_on(8, 2),
                    alu(12, 1),
                    alu(16, 2),
                ],
                vec![(1, !1), (0, 0)],
            ),
        ];
        for (case, uops, expected) in cases {
            let r = analyze(&uops);
            for (seq, mask) in expected {
                assert_eq!(r.dead_dest_mask(seq), mask, "{case}: seq {seq}");
            }
        }
    }

    #[test]
    fn bit_dead_bits_dominate_word_dead_bits() {
        // The bit mask is unioned with the class mask at construction,
        // so for every uop and width: word-level <= bit-level <= width.
        let uops = vec![
            alu(0, 1),
            Uop::load(4, 0x2000, 8)
                .with_src(ArchReg::int(1))
                .with_dest(ArchReg::int(2)),
            branch(8).with_src(ArchReg::int(2)),
            alu(12, 1),
            alu(16, 2),
            alu(20, 3),
            alu(24, 3),
            Uop::store(28, 0x100, 8).with_src(ArchReg::int(3)),
        ];
        let r = analyze(&uops);
        for seq in 0..r.horizon() {
            for width in [64u64, 128] {
                let word = r.dead_dest_bits(seq, width);
                let bit = r.bit_dead_dest_bits(seq, width);
                assert!(word <= bit && bit <= width, "seq {seq} width {width}");
            }
        }
        // And the bit level genuinely refines: r1 is a load address
        // (16 word-dead bits) whose loaded value feeds only a branch
        // condition, so the loaded value keeps just one live bit.
        assert_eq!(r.dead_dest_bits(1, 64), 0);
        assert_eq!(r.bit_dead_dest_bits(1, 64), 63);
    }

    #[test]
    fn word_dead_classes_imply_full_bit_masks() {
        let uops = vec![alu(0, 1), alu(4, 1), alu_rr(8, 2, 1)];
        let r = analyze(&uops);
        assert_eq!(r.class(0), AceClass::Fdd);
        assert_eq!(r.dead_dest_mask(0), u64::MAX);
        assert_eq!(r.bit_dead_dest_bits(0, 128), 128);
        assert_eq!(r.dead_dest_mask(99), 0, "beyond horizon");
    }

    #[test]
    fn fp_registers_classify_too() {
        let uops = vec![
            Uop::alu(0, UopKind::FpAdd).with_dest(ArchReg::fp(1)),
            Uop::alu(4, UopKind::FpAdd).with_dest(ArchReg::fp(1)),
            Uop::store(8, 0x100, 8).with_src(ArchReg::fp(1)),
        ];
        let r = analyze(&uops);
        assert_eq!(r.class(0), AceClass::Fdd);
        assert_eq!(r.dead_dest_bits(0, 128), 128);
    }
}
