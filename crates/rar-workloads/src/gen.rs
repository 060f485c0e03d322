//! The deterministic trace generator.
//!
//! [`TraceGenerator`] compiles a [`WorkloadParams`] into a static *program*
//! — a ring of loop segments whose slots have fixed program counters,
//! operand registers and behavioural roles — and then walks that program
//! dynamically, producing an infinite, seed-reproducible micro-op stream.
//!
//! Static structure matters: PRE's stalling-slice table is PC-indexed, the
//! branch predictor learns per-site behaviour, and the I-cache sees the
//! code footprint. A given static load is therefore *always* a chase load,
//! a stream load, or a hot (cache-resident) load; a given static branch is
//! always a loop-closer or a data-dependent conditional.

use crate::model::{AccessPattern, WorkloadClass, WorkloadParams};
use rar_isa::rng::{derive_seed, SplitMix64};
use rar_isa::{ArchReg, BranchClass, BranchInfo, Uop, UopKind};

/// Behavioural role of one static program slot.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Compute micro-op on a dependence chain. `dest` is `None` for
    /// compare/test-style operations that only feed flags — roughly a
    /// third of real integer compute, and what lets the ROB fill before
    /// the physical register file runs dry.
    Compute {
        kind: UopKind,
        dest: Option<ArchReg>,
        src_a: ArchReg,
        src_b: ArchReg,
    },
    /// Pointer-chase load: address depends on the previous step of `chain`.
    ChaseLoad { chain: usize, dest: ArchReg },
    /// Streaming load on `stream` (address from an index register).
    StreamLoad {
        stream: usize,
        dest: ArchReg,
        idx: ArchReg,
    },
    /// Cache-resident load (hot buffer).
    HotLoad { dest: ArchReg, idx: ArchReg },
    /// Store to a write stream.
    Store { src: ArchReg, idx: ArchReg },
    /// Data-dependent conditional branch; when taken, skips the next
    /// `skip` slots.
    HardBranch {
        bias: f64,
        skip: usize,
        src: ArchReg,
    },
}

#[derive(Debug, Clone)]
struct Segment {
    base_pc: u64,
    slots: Vec<Slot>,
    trip: u32,
    /// PC of the loop-closing branch.
    loop_pc: u64,
    /// PC of the trailing jump to the next segment.
    jump_pc: u64,
}

/// An infinite, deterministic micro-op stream for one workload.
///
/// Produced by [`crate::spec::WorkloadSpec::trace`]; consume through the
/// `Iterator` interface (typically wrapped in a
/// [`rar_isa::TraceWindow`]).
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    segments: Vec<Segment>,
    // --- dynamic state ---
    seg: usize,
    iter_left: u32,
    slot: usize,
    skip_left: usize,
    rng: SplitMix64,
    chain_pos: Vec<u64>,
    stream_pos: Vec<u64>,
    /// Ring of recently chased line addresses; re-touches of these model
    /// node-payload reuse and hit the L2/L3 depending on recency.
    recent_chase: std::collections::VecDeque<u64>,
    hot_pos: u64,
    store_pos: u64,
    /// Pending uops when a slot expands to more than one micro-op.
    pending: Vec<Uop>,
    // --- layout constants ---
    footprint_lines: u64,
    stream_stride: u64,
    store_lines: u64,
    emitted: u64,
}

const DATA_BASE: u64 = 0x1_0000_0000;
const HOT_BASE: u64 = 0x2000_0000;
const HOT_LINES: u64 = 16 * 1024 / 64; // 16 KB, L1-resident
/// Reuse window for L2-resident re-touches of recently streamed data.
const REUSE_L2_BYTES: u64 = 96 * 1024;
/// Reuse window for L3-resident re-touches.
const REUSE_L3_BYTES: u64 = 512 * 1024;
const STORE_BASE: u64 = 0x3000_0000;
/// Write-region size for memory-intensive workloads (misses in the LLC
/// while streaming, like lbm's grid updates).
const STORE_LINES_MEM: u64 = 4 * 1024 * 1024 / 64;
/// Write-region size for compute-intensive workloads (L1/L2-resident).
const STORE_LINES_CPU: u64 = 16 * 1024 / 64;
const CODE_BASE: u64 = 0x1000;

impl TraceGenerator {
    /// Compiles `params` into a static program and initializes the walk.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`WorkloadParams::validate`].
    #[must_use]
    pub fn new(params: &WorkloadParams, seed: u64) -> Self {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid workload {}: {e}", params.name));
        let mut build_rng = SplitMix64::new(derive_seed(seed, params.name));

        let (chains, streams, stride, chase_frac) = match params.pattern {
            AccessPattern::Streaming { streams, stride } => (0, streams, stride, 0.0),
            AccessPattern::PointerChase { chains } => (chains, 1, 8, 1.0),
            AccessPattern::Mixed {
                chase_frac,
                chains,
                streams,
                stride,
            } => (chains, streams, stride, chase_frac),
        };
        let chains = chains.clamp(0, 8);
        let streams = streams.clamp(1, 8);

        let mut segments = Vec::with_capacity(params.segments);
        let mut pc = CODE_BASE;
        for s in 0..params.segments {
            let mut slots = Vec::with_capacity(params.body_uops);
            let mut i = 0;
            while i < params.body_uops {
                let slot = Self::build_slot(
                    params,
                    &mut build_rng,
                    chains,
                    streams,
                    chase_frac,
                    params.body_uops - i,
                );
                // HardBranch skip must not run past the body.
                i += 1;
                slots.push(slot);
            }
            let trip = {
                let spread = (params.loop_trip / 2).max(1);
                (params.loop_trip - spread / 2 + (build_rng.below(u64::from(spread)) as u32)).max(2)
            };
            let base_pc = pc;
            let loop_pc = base_pc + 4 * slots.len() as u64;
            let jump_pc = loop_pc + 4;
            segments.push(Segment {
                base_pc,
                slots,
                trip,
                loop_pc,
                jump_pc,
            });
            // Sparse layout spreads segments across I-cache sets.
            pc = jump_pc + 4 + 60 * (s as u64 % 3);
        }

        let first_trip = segments[0].trip;
        TraceGenerator {
            segments,
            seg: 0,
            iter_left: first_trip,
            slot: 0,
            skip_left: 0,
            rng: SplitMix64::new(seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1)),
            chain_pos: (0..chains.max(1) as u64).map(|c| c * 977).collect(),
            stream_pos: (0..streams as u64).map(|s| s * 1_000_003).collect(),
            recent_chase: std::collections::VecDeque::new(),
            hot_pos: 0,
            store_pos: 0,
            pending: Vec::new(),
            footprint_lines: (params.footprint_bytes / 64).max(1),
            stream_stride: stride.max(1),
            store_lines: if params.class == WorkloadClass::MemoryIntensive {
                STORE_LINES_MEM
            } else {
                STORE_LINES_CPU
            },
            emitted: 0,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_slot(
        params: &WorkloadParams,
        rng: &mut SplitMix64,
        chains: usize,
        streams: usize,
        chase_frac: f64,
        remaining: usize,
    ) -> Slot {
        let r = rng.next_f64();
        let load_cut = params.load_frac;
        let store_cut = load_cut + params.store_frac;
        let branch_cut = store_cut + params.branch_frac;
        if r < load_cut {
            // A load: miss-producing or hot?
            if rng.next_f64() < params.miss_load_frac {
                if chains > 0 && rng.next_f64() < chase_frac {
                    let chain = rng.below(chains as u64) as usize;
                    Slot::ChaseLoad {
                        chain,
                        dest: ArchReg::int(chain as u8),
                    }
                } else {
                    let stream = rng.below(streams as u64) as usize;
                    Slot::StreamLoad {
                        stream,
                        dest: ArchReg::int(24 + rng.below(8) as u8),
                        idx: ArchReg::int(8 + stream as u8),
                    }
                }
            } else {
                Slot::HotLoad {
                    dest: ArchReg::int(24 + rng.below(8) as u8),
                    idx: ArchReg::int(16 + rng.below(4) as u8),
                }
            }
        } else if r < store_cut {
            let stream = rng.below(streams as u64) as usize;
            Slot::Store {
                src: ArchReg::int(24 + rng.below(8) as u8),
                idx: ArchReg::int(8 + stream as u8),
            }
        } else if r < branch_cut && rng.next_f64() < params.hard_branch_frac {
            Slot::HardBranch {
                bias: params.hard_branch_bias,
                skip: (1 + rng.below(3) as usize).min(remaining.saturating_sub(1)),
                src: ArchReg::int(24 + rng.below(8) as u8),
            }
        } else {
            // Compute op on a dependence chain.
            let fp = rng.next_f64() < params.fp_frac;
            let long = rng.next_f64() < params.longlat_frac;
            let kind = match (fp, long) {
                (false, false) => UopKind::IntAlu,
                (false, true) => {
                    if rng.next_f64() < 0.8 {
                        UopKind::IntMul
                    } else {
                        UopKind::IntDiv
                    }
                }
                (true, false) => {
                    if rng.next_f64() < 0.6 {
                        UopKind::FpAdd
                    } else {
                        UopKind::FpMul
                    }
                }
                (true, true) => {
                    if rng.next_f64() < 0.7 {
                        UopKind::FpMul
                    } else {
                        UopKind::FpDiv
                    }
                }
            };
            let chain = rng.below(params.ilp.min(8) as u64) as u8;
            let (dest, src_a) = if fp {
                (ArchReg::fp(chain), ArchReg::fp(chain))
            } else {
                (
                    ArchReg::int(16 + (chain % 8)),
                    ArchReg::int(16 + (chain % 8)),
                )
            };
            // Compares, tests, and flag-setting ops write no register.
            let dest = (rng.next_f64() >= 0.35).then_some(dest);
            // Second source: occasionally a load temp, creating
            // load-to-compute dependencies (and stalling slices).
            let src_b = if rng.next_f64() < 0.25 {
                ArchReg::int(24 + rng.below(8) as u8)
            } else if fp {
                ArchReg::fp((chain + 1) % 8)
            } else {
                ArchReg::int(16 + ((chain + 1) % 8))
            };
            Slot::Compute {
                kind,
                dest,
                src_a,
                src_b,
            }
        }
    }

    fn chase_addr(&mut self, chain: usize) -> u64 {
        // Deterministic permutation walk over the footprint: the next line
        // is a pseudo-random function of the current one, modelling a
        // pointer graph with no spatial locality.
        let pos = &mut self.chain_pos[chain];
        *pos = pos
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = DATA_BASE + (*pos % self.footprint_lines) * 64 + (chain as u64) * 8;
        if self.recent_chase.len() == 8192 {
            self.recent_chase.pop_front();
        }
        self.recent_chase.push_back(addr);
        addr
    }

    fn stream_addr(&mut self, stream: usize) -> u64 {
        self.stream_pos[stream] += self.stream_stride;
        let pos = self.stream_pos[stream];
        self.stream_addr_at(stream, pos)
    }

    /// Address of stream `stream` at absolute position `pos` (bytes).
    fn stream_addr_at(&self, stream: usize, pos: u64) -> u64 {
        let region = self.footprint_lines * 64 / 2;
        DATA_BASE
            + self.footprint_lines * 32
            + (stream as u64) * (region / 8)
            + (pos % (region / 8))
    }

    fn emit_slot(&mut self, slot: Slot, pc: u64) -> Uop {
        match slot {
            Slot::Compute {
                kind,
                dest,
                src_a,
                src_b,
            } => {
                let mut u = Uop::alu(pc, kind).with_src(src_a).with_src(src_b);
                if let Some(d) = dest {
                    u = u.with_dest(d);
                }
                u
            }
            Slot::ChaseLoad { chain, dest } => {
                let addr = self.chase_addr(chain);
                // The chase load consumes its own chain register: the
                // timing model serializes successive steps.
                Uop::load(pc, addr, 8).with_dest(dest).with_src(dest)
            }
            Slot::StreamLoad { stream, dest, idx } => {
                let addr = self.stream_addr(stream);
                self.pending.push(
                    // Index increment following the load (address
                    // arithmetic that PRE's slices must include).
                    Uop::alu(pc, UopKind::IntAlu).with_dest(idx).with_src(idx),
                );
                Uop::load(pc, addr, 8).with_dest(dest).with_src(idx)
            }
            Slot::HotLoad { dest, idx } => {
                // Cache-resident data is stratified like real working sets:
                // mostly L1 hits on a small hot buffer, plus re-touches of
                // recently streamed data whose temporal distance puts them
                // in the L2 or L3. These medium-latency hits expose
                // back-end state outside LLC-miss shadows — the ~30% of
                // ABC the paper observes outside blocked-head windows.
                let r = self.rng.next_f64();
                let s = if self.stream_pos.is_empty() {
                    0
                } else {
                    self.rng.below(self.stream_pos.len() as u64) as usize
                };
                let back = if r < 0.94 {
                    8 * 1024 + self.rng.below(REUSE_L2_BYTES)
                } else {
                    REUSE_L2_BYTES + self.rng.below(REUSE_L3_BYTES)
                };
                // Reuse is only meaningful once the stream has actually
                // streamed past the reuse distance; otherwise the address
                // would be untouched (cold) memory.
                let stream_progress = self.stream_pos.get(s).copied().unwrap_or(0);
                let initial = (s as u64) * 1_000_003;
                let addr = if r >= 0.70 && stream_progress >= initial + back + 8 * 1024 {
                    self.stream_addr_at(s, stream_progress - back)
                } else if r >= 0.70 && self.recent_chase.len() > 512 {
                    // Pointer-heavy code re-touches recently visited nodes:
                    // recent ones hit the L2, older ones the L3.
                    let len = self.recent_chase.len() as u64;
                    let range = if r < 0.94 { len.min(1024) } else { len };
                    let back_idx = 1 + self.rng.below(range - 1);
                    self.recent_chase[(len - 1 - back_idx) as usize]
                } else {
                    self.hot_pos = (self.hot_pos + 24) % (HOT_LINES * 64);
                    HOT_BASE + self.hot_pos
                };
                Uop::load(pc, addr, 8).with_dest(dest).with_src(idx)
            }
            Slot::Store { src, idx } => {
                self.store_pos = (self.store_pos + 8) % (self.store_lines * 64);
                Uop::store(pc, STORE_BASE + self.store_pos, 8)
                    .with_src(src)
                    .with_src(idx)
            }
            Slot::HardBranch { bias, skip, src } => {
                let taken = self.rng.next_f64() < bias;
                if taken {
                    self.skip_left = skip;
                }
                let target = pc + 4 * (skip as u64 + 1);
                Uop::branch(
                    pc,
                    BranchInfo {
                        taken,
                        target,
                        class: BranchClass::Conditional,
                    },
                )
                .with_src(src)
            }
        }
    }

    /// Total micro-ops emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Static code size in bytes (distance from first to last PC).
    #[must_use]
    pub fn code_bytes(&self) -> u64 {
        let last = self.segments.last().expect("at least one segment");
        last.jump_pc + 4 - CODE_BASE
    }

    /// Heap bytes the generator holds: the static program and every
    /// buffer, by capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        let slots: usize = self
            .segments
            .iter()
            .map(|s| s.slots.capacity() * size_of::<Slot>())
            .sum();
        self.segments.capacity() * size_of::<Segment>()
            + slots
            + (self.chain_pos.capacity()
                + self.stream_pos.capacity()
                + self.recent_chase.capacity())
                * size_of::<u64>()
            + self.pending.capacity() * size_of::<Uop>()
    }
}

impl Iterator for TraceGenerator {
    type Item = Uop;

    fn next(&mut self) -> Option<Uop> {
        self.emitted += 1;
        if let Some(u) = self.pending.pop() {
            return Some(u);
        }
        loop {
            let seg_len = self.segments[self.seg].slots.len();
            if self.slot < seg_len {
                let idx = self.slot;
                self.slot += 1;
                if self.skip_left > 0 {
                    self.skip_left -= 1;
                    continue;
                }
                let slot = self.segments[self.seg].slots[idx];
                let pc = self.segments[self.seg].base_pc + 4 * idx as u64;
                return Some(self.emit_slot(slot, pc));
            }
            // End of body: loop-closing branch.
            self.skip_left = 0;
            let seg = &self.segments[self.seg];
            let (loop_pc, base_pc, jump_pc) = (seg.loop_pc, seg.base_pc, seg.jump_pc);
            if self.iter_left > 1 {
                self.iter_left -= 1;
                self.slot = 0;
                return Some(Uop::branch(
                    loop_pc,
                    BranchInfo {
                        taken: true,
                        target: base_pc,
                        class: BranchClass::Loop,
                    },
                ));
            }
            // Loop exits; emit the not-taken closer then jump onward.
            let next_seg = (self.seg + 1) % self.segments.len();
            let next_base = self.segments[next_seg].base_pc;
            self.pending.push(Uop::branch(
                jump_pc,
                BranchInfo {
                    taken: true,
                    target: next_base,
                    class: BranchClass::Unconditional,
                },
            ));
            self.seg = next_seg;
            self.iter_left = self.segments[next_seg].trip;
            self.slot = 0;
            return Some(Uop::branch(
                loop_pc,
                BranchInfo {
                    taken: false,
                    target: base_pc,
                    class: BranchClass::Loop,
                },
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AccessPattern, WorkloadClass, WorkloadParams};
    use rar_isa::UopKind;
    use std::collections::HashMap;

    fn mem_params() -> WorkloadParams {
        WorkloadParams {
            class: WorkloadClass::MemoryIntensive,
            miss_load_frac: 0.5,
            pattern: AccessPattern::Mixed {
                chase_frac: 0.5,
                chains: 4,
                streams: 4,
                stride: 8,
            },
            ..WorkloadParams::base("test-mem")
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<_> = TraceGenerator::new(&mem_params(), 7).take(5_000).collect();
        let b: Vec<_> = TraceGenerator::new(&mem_params(), 7).take(5_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = TraceGenerator::new(&mem_params(), 1).take(5_000).collect();
        let b: Vec<_> = TraceGenerator::new(&mem_params(), 2).take(5_000).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn mix_roughly_matches_params() {
        // Use a large static program so per-slot sampling noise (and the
        // persistent bias from taken hard branches skipping specific
        // slots) averages out.
        let p = WorkloadParams {
            segments: 32,
            body_uops: 64,
            ..mem_params()
        };
        let n = 200_000;
        let mut counts: HashMap<UopKind, usize> = HashMap::new();
        for u in TraceGenerator::new(&p, 3).take(n) {
            *counts.entry(u.kind()).or_default() += 1;
        }
        let loads = counts.get(&UopKind::Load).copied().unwrap_or(0) as f64 / n as f64;
        let stores = counts.get(&UopKind::Store).copied().unwrap_or(0) as f64 / n as f64;
        let branches = counts.get(&UopKind::Branch).copied().unwrap_or(0) as f64 / n as f64;
        assert!((loads - p.load_frac).abs() < 0.08, "load fraction {loads}");
        assert!(
            (stores - p.store_frac).abs() < 0.05,
            "store fraction {stores}"
        );
        // Branches include loop closers and jumps, so >= the hard fraction.
        assert!(
            branches > 0.01 && branches < 0.35,
            "branch fraction {branches}"
        );
    }

    #[test]
    fn pcs_repeat_across_iterations() {
        // A static load PC must appear many times in the dynamic stream.
        let mut by_pc: HashMap<u64, usize> = HashMap::new();
        for u in TraceGenerator::new(&mem_params(), 3).take(50_000) {
            *by_pc.entry(u.pc()).or_default() += 1;
        }
        let max_reuse = by_pc.values().copied().max().unwrap();
        assert!(
            max_reuse > 100,
            "static code must be re-executed, max reuse {max_reuse}"
        );
        assert!(
            by_pc.len() < 2_000,
            "static footprint bounded, {} pcs",
            by_pc.len()
        );
    }

    #[test]
    fn chase_loads_self_depend() {
        let p = WorkloadParams {
            miss_load_frac: 1.0,
            pattern: AccessPattern::PointerChase { chains: 2 },
            ..WorkloadParams::base("chase")
        };
        let mut found = 0;
        for u in TraceGenerator::new(&p, 3).take(10_000) {
            if u.kind() == UopKind::Load {
                if let Some(dest) = u.dest() {
                    if u.srcs().any(|s| s == dest) && dest.index() < 8 {
                        found += 1;
                    }
                }
            }
        }
        assert!(found > 100, "chase loads present: {found}");
    }

    #[test]
    fn chase_addresses_jump_across_lines() {
        let p = WorkloadParams {
            miss_load_frac: 1.0,
            pattern: AccessPattern::PointerChase { chains: 1 },
            ..WorkloadParams::base("chase2")
        };
        let mut lines = Vec::new();
        for u in TraceGenerator::new(&p, 3).take(20_000) {
            if u.kind() == UopKind::Load {
                if let Some(m) = u.mem() {
                    if m.addr >= DATA_BASE {
                        lines.push(rar_isa::cache_line(m.addr));
                    }
                }
            }
        }
        lines.dedup();
        assert!(lines.len() > 500, "chase should touch many distinct lines");
    }

    #[test]
    fn stream_addresses_advance_sequentially() {
        let p = WorkloadParams {
            miss_load_frac: 1.0,
            pattern: AccessPattern::Streaming {
                streams: 1,
                stride: 8,
            },
            ..WorkloadParams::base("stream")
        };
        let mut addrs = Vec::new();
        for u in TraceGenerator::new(&p, 3).take(5_000) {
            if u.kind() == UopKind::Load {
                if let Some(m) = u.mem() {
                    if m.addr >= DATA_BASE + 1024 * 1024 {
                        addrs.push(m.addr);
                    }
                }
            }
        }
        assert!(addrs.len() > 100);
        let increasing = addrs.windows(2).filter(|w| w[1] == w[0] + 8).count();
        assert!(
            increasing as f64 / (addrs.len() - 1) as f64 > 0.95,
            "stream should advance by the stride"
        );
    }

    #[test]
    fn loop_branches_have_loop_class() {
        let mut loops = 0;
        let mut conds = 0;
        for u in TraceGenerator::new(&mem_params(), 3).take(50_000) {
            if let Some(b) = u.branch_info() {
                match b.class {
                    BranchClass::Loop => loops += 1,
                    BranchClass::Conditional => conds += 1,
                    BranchClass::Unconditional => {}
                }
            }
        }
        assert!(loops > 500, "loop closers present: {loops}");
        assert!(conds > 0, "hard branches present: {conds}");
    }

    #[test]
    fn hard_branch_skips_are_honored() {
        // When a hard branch is taken, the next uop's PC is its target.
        let p = WorkloadParams {
            branch_frac: 0.3,
            hard_branch_frac: 1.0,
            hard_branch_bias: 0.5,
            ..WorkloadParams::base("branchy")
        };
        let uops: Vec<_> = TraceGenerator::new(&p, 3).take(20_000).collect();
        let mut checked = 0;
        for w in uops.windows(2) {
            if let Some(b) = w[0].branch_info() {
                if b.class == BranchClass::Conditional && b.taken {
                    assert_eq!(w[1].pc(), b.target, "taken branch must skip to target");
                    checked += 1;
                }
            }
        }
        assert!(checked > 100, "verified {checked} taken hard branches");
    }

    #[test]
    fn code_footprint_reported() {
        let gen = TraceGenerator::new(&mem_params(), 3);
        assert!(gen.code_bytes() > 256);
    }

    #[test]
    #[should_panic(expected = "invalid workload")]
    fn invalid_params_panic() {
        let mut p = WorkloadParams::base("bad");
        p.load_frac = 2.0;
        let _ = TraceGenerator::new(&p, 0);
    }
}
