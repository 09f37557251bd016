//! Bundled op accounting: charge a loop body per iteration, not per op.
//!
//! Metering every ALU op, loop increment, and memory word with one
//! [`Device::consume`](crate::Device::consume) call makes the *simulator*
//! the bottleneck long before the simulated MSP430 is: a SONIC inference
//! is a few hundred thousand `consume` calls, each a cost lookup, a power
//! branch, and a trace update. An [`OpBundle`] precomputes the ordered op
//! sequence of one inner-loop iteration so the device can charge whole
//! iterations with one arithmetic step
//! ([`Device::consume_bundle`](crate::Device::consume_bundle)) while
//! staying **cycle- and energy-exact**, brown-out op included:
//!
//! - The number of *complete* iterations the remaining buffer funds is
//!   `charge / iter_energy` — exactly the number the scalar path would
//!   have completed, because per-op energies are non-negative integers
//!   (if the remaining charge covers a whole iteration it covers every
//!   prefix of it).
//! - The first unfunded iteration is then replayed op by op through the
//!   original scalar code, so the brown-out lands on *exactly* the same
//!   op, with exactly the same partial memory effects, as an all-scalar
//!   execution.
//!
//! Trace cells are plain accumulators, so charging `n` iterations of each
//! `(phase, op)` entry in bulk produces bit-identical totals to `n`
//! interleaved scalar charges. The root `bundles` test suite pins this
//! equivalence against digests recorded from the scalar implementation.
//!
//! For loop bodies whose op sequence is data-dependent but which have
//! **no durable side effects** until a later commit (the Alpaca redo-log
//! bodies), the same type doubles as an *op tape*: the body tallies every
//! op it would have consumed while executing host-side, then settles the
//! tape in one step ([`Device::consume_bundle`](crate::Device::consume_bundle)).
//! Tapes are **count-first** ([`OpBundle::counting`]): they keep only the
//! aggregate `(phase, op)` counts, which is all a funded settle needs.
//! The ordered sequence matters only when the settle falls short, and
//! then the body is re-run against the same inputs with a sequenced tape
//! ([`OpBundle::new`]) that [`Device::consume_tape`](crate::Device::consume_tape)
//! replays op by op to the exact brown-out op. Most bodies settle in
//! full, so most never pay for recording the sequence.

use crate::spec::{CostTable, Op};
use crate::trace::Phase;

/// One run-length-encoded entry of a bundle's ordered op sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BundleOp {
    /// The operation class.
    pub op: Op,
    /// The accounting phase the op is charged to.
    pub phase: Phase,
    /// How many consecutive ops of this class (≥ 1).
    pub count: u64,
}

/// The precomputed op sequence of one inner-loop iteration (or a recorded
/// op tape). See the [module docs](self).
///
/// The bundle always maintains per-`(phase, op)` aggregate counts, so
/// bulk charging and cost totals are O(op classes) regardless of how long
/// a recorded tape grows. A *sequenced* bundle additionally keeps the
/// ordered sequence, needed only for the exact scalar replay on a
/// brown-out; a *counting* bundle keeps the counts alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpBundle {
    seq: Vec<BundleOp>,
    counts: [[u64; Op::COUNT]; 2],
    sequenced: bool,
}

impl Default for OpBundle {
    fn default() -> Self {
        Self::new()
    }
}

impl OpBundle {
    /// An empty bundle that records the ordered op sequence.
    pub const fn new() -> Self {
        OpBundle {
            seq: Vec::new(),
            counts: [[0; Op::COUNT]; 2],
            sequenced: true,
        }
    }

    /// An empty bundle that records only the aggregate `(phase, op)`
    /// counts: it charges exactly like a sequenced bundle with the same
    /// ops, but cannot be replayed op by op.
    pub const fn counting() -> Self {
        OpBundle {
            seq: Vec::new(),
            counts: [[0; Op::COUNT]; 2],
            sequenced: false,
        }
    }

    /// `true` when the bundle records the ordered op sequence.
    pub fn is_sequenced(&self) -> bool {
        self.sequenced
    }

    /// Empties the bundle and switches it between sequenced and counting
    /// recording, keeping its capacity (tape reuse).
    pub fn reset(&mut self, sequenced: bool) {
        self.clear();
        self.sequenced = sequenced;
    }

    /// Appends one op to the sequence.
    #[inline]
    pub fn push(&mut self, op: Op, phase: Phase) {
        self.push_n(op, phase, 1);
    }

    /// Appends `count` consecutive ops of one class (merged with the tail
    /// entry when it matches, keeping tapes compact).
    #[inline]
    pub fn push_n(&mut self, op: Op, phase: Phase, count: u64) {
        if count == 0 {
            return;
        }
        self.counts[phase.index()][op.index()] += count;
        if !self.sequenced {
            return;
        }
        if let Some(last) = self.seq.last_mut() {
            if last.op == op && last.phase == phase {
                last.count += count;
                return;
            }
        }
        self.seq.push(BundleOp { op, phase, count });
    }

    /// The ordered (run-length-encoded) op sequence; empty for a
    /// counting bundle.
    pub fn ops(&self) -> &[BundleOp] {
        &self.seq
    }

    /// Aggregate count of one `(phase, op)` cell.
    #[inline]
    pub fn count(&self, phase: Phase, op: Op) -> u64 {
        self.counts[phase.index()][op.index()]
    }

    /// `true` when the bundle holds no ops (sequenced or counted).
    pub fn is_empty(&self) -> bool {
        self.counts.iter().flatten().all(|&n| n == 0)
    }

    /// Total ops in one iteration.
    pub fn len(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Empties the bundle, keeping its capacity and recording mode.
    pub fn clear(&mut self) {
        self.seq.clear();
        self.counts = [[0; Op::COUNT]; 2];
    }

    /// Total `(cycles, energy_pj)` of one iteration under `costs`.
    pub fn iter_cost(&self, costs: &CostTable) -> (u64, u64) {
        let mut cycles = 0u64;
        let mut energy = 0u64;
        for op in Op::ALL {
            let n: u64 = self.counts.iter().map(|p| p[op.index()]).sum();
            if n > 0 {
                let c = costs.cost(op);
                cycles += n * c.cycles as u64;
                energy += n * c.energy_pj;
            }
        }
        (cycles, energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_merges_consecutive_runs() {
        let mut b = OpBundle::new();
        b.push(Op::Alu, Phase::Kernel);
        b.push(Op::Alu, Phase::Kernel);
        b.push_n(Op::Alu, Phase::Kernel, 3);
        b.push(Op::Alu, Phase::Control); // phase differs: new entry
        b.push(Op::FramRead, Phase::Control);
        b.push_n(Op::Nop, Phase::Kernel, 0); // no-op
        assert_eq!(b.ops().len(), 3);
        assert_eq!(b.ops()[0].count, 5);
        assert_eq!(b.len(), 7);
    }

    #[test]
    fn iter_cost_sums_the_cost_table() {
        let costs = CostTable::msp430fr5994();
        let mut b = OpBundle::new();
        b.push_n(Op::FramRead, Phase::Kernel, 2);
        b.push(Op::FramWrite, Phase::Control);
        let (cycles, energy) = b.iter_cost(&costs);
        let r = costs.cost(Op::FramRead);
        let w = costs.cost(Op::FramWrite);
        assert_eq!(cycles, 2 * r.cycles as u64 + w.cycles as u64);
        assert_eq!(energy, 2 * r.energy_pj + w.energy_pj);
    }

    #[test]
    fn counting_bundle_tallies_without_a_sequence() {
        let mut b = OpBundle::counting();
        assert!(b.is_empty());
        b.push(Op::Alu, Phase::Kernel);
        b.push_n(Op::FramWrite, Phase::Control, 3);
        assert!(b.ops().is_empty(), "no sequence recorded");
        assert!(!b.is_empty(), "counts alone make it non-empty");
        assert_eq!(b.len(), 4);
        assert_eq!(b.count(Phase::Control, Op::FramWrite), 3);
        b.reset(true);
        assert!(b.is_sequenced() && b.is_empty());
    }

    /// A long tape (more entries than the short-bundle walk takes) plus
    /// a one-iteration body, each recorded both ways.
    fn tape_pair(long: bool) -> (OpBundle, OpBundle) {
        let (mut seq, mut cnt) = (OpBundle::new(), OpBundle::counting());
        let reps = if long { 40 } else { 1 };
        for b in [&mut seq, &mut cnt] {
            for i in 0..reps {
                b.push_n(Op::FramRead, Phase::Kernel, 3);
                b.push(Op::FxpMul, Phase::Kernel);
                b.push_n(Op::FramWrite, Phase::Control, 1 + i % 2);
                b.push(Op::Incr, Phase::Control);
            }
        }
        (seq, cnt)
    }

    #[test]
    fn counting_and_sequenced_bundles_charge_identically() {
        use crate::{Device, DeviceSpec, PowerSystem};
        for long in [false, true] {
            let (seq, cnt) = tape_pair(long);
            assert_eq!(
                seq.iter_cost(&CostTable::msp430fr5994()),
                cnt.iter_cost(&CostTable::msp430fr5994())
            );
            // Harvested, asked for more iterations than the buffer funds.
            let mut a = Device::new(DeviceSpec::msp430fr5994(), PowerSystem::cap_100uf());
            let mut b = a.clone();
            let fa = a.consume_bundle(&seq, u64::MAX / 1024).unwrap();
            let fb = b.consume_bundle(&cnt, u64::MAX / 1024).unwrap();
            assert!(fa > 0 && fa < u64::MAX / 1024);
            assert_eq!(fa, fb);
            assert_eq!(a.charge_pj(), b.charge_pj());
            assert_eq!(a.ops_consumed(), b.ops_consumed());
            assert_eq!(a.trace().report(), b.trace().report());
            // A funded single settle of the tape, continuous power.
            let mut a = Device::new(DeviceSpec::msp430fr5994(), PowerSystem::continuous());
            let mut b = a.clone();
            a.consume_tape(&seq).unwrap();
            b.consume_tape(&cnt).unwrap();
            assert_eq!(a.ops_consumed(), b.ops_consumed());
            assert_eq!(a.trace().report(), b.trace().report());
        }
    }

    #[test]
    #[should_panic(expected = "counting tape fell short")]
    fn a_counting_tape_cannot_replay_a_shortfall() {
        use crate::{Device, DeviceSpec, PowerSystem};
        let (_, cnt) = tape_pair(true);
        let mut d = Device::new(DeviceSpec::msp430fr5994(), PowerSystem::cap_100uf());
        while d.consume_bundle(&cnt, 1).unwrap() == 1 {}
        let _ = d.consume_tape(&cnt);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut b = OpBundle::new();
        b.push_n(Op::Alu, Phase::Kernel, 4);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.iter_cost(&CostTable::msp430fr5994()), (0, 0));
    }
}
