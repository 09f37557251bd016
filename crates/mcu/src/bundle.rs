//! Bundled op accounting: charge a loop body per iteration, not per op.
//!
//! Metering every ALU op, loop increment, and memory word with one
//! [`Device::consume`] call makes the *simulator* the bottleneck long
//! before the simulated MSP430 is: a SONIC inference is a few hundred
//! thousand `consume` calls, each a cost lookup, a power branch, and a
//! trace update. An [`OpBundle`] holds the ordered op sequence of one
//! inner-loop iteration so the device can charge whole iterations with
//! one arithmetic step ([`Device::consume_bundle`]) while staying
//! **cycle- and energy-exact**, brown-out op included:
//!
//! - The number of *complete* iterations the remaining buffer funds is
//!   `charge / iter_energy` — exactly the number the scalar path would
//!   have completed, because per-op energies are non-negative integers
//!   (if the remaining charge covers a whole iteration it covers every
//!   prefix of it).
//! - The first unfunded iteration then runs op by op, so the brown-out
//!   lands on *exactly* the same op, with exactly the same partial memory
//!   effects, as an all-scalar execution.
//!
//! Trace cells are plain accumulators, so charging `n` iterations of each
//! `(phase, op)` entry in bulk produces bit-identical totals to `n`
//! interleaved scalar charges. The root `bundles` test suite pins this
//! equivalence against digests recorded from the scalar implementation.
//!
//! # One body, three meters
//!
//! A metered loop writes its iteration once, as a [`LoopBody`] whose
//! [`step`](LoopBody::step) charges every op through a [`Meter`]:
//!
//! - [`Tally`] records each `(op, phase)` the body charges. It never
//!   touches a device and never fails; [`OpBundle::tally`] builds a loop's
//!   bundle this way, once, when the runtime is built.
//! - The funded meter (inside [`run_loop`]) moves data through the
//!   device's `prepaid_*` accessors and treats every op as already paid.
//!   It writes the loop-continuation word and the progress marks once per
//!   funded batch rather than once per iteration.
//! - The [`Device`] itself is the scalar meter: one [`Device::consume`]
//!   per op, in the body's order, with the same context switches and the
//!   per-iteration continuation write and progress mark.
//!
//! [`run_loop`] drives them: it funds a batch with
//! [`Device::consume_bundle`], runs those iterations under the funded
//! meter, and the first unfunded one on the device itself. The bundle
//! is the body's own op sequence by construction, so bulk and scalar
//! charging cannot drift apart.
//!
//! # Op tapes
//!
//! For loop bodies whose op sequence is data-dependent but which have
//! **no durable side effects** until a later commit (the Alpaca redo-log
//! bodies), the same type doubles as an *op tape*: the body tallies every
//! op it would have consumed while executing host-side, then settles the
//! tape in one step ([`Device::consume_bundle`]).
//! Tapes are **count-first** ([`OpBundle::counting`]): they keep only the
//! aggregate `(phase, op)` counts, which is all a funded settle needs.
//! The ordered sequence matters only when the settle falls short, and
//! then the body is re-run against the same inputs with a sequenced tape
//! ([`OpBundle::new`]) that [`Device::consume_tape`] replays op by op to
//! the exact brown-out op. Most bodies settle in full, so most never pay
//! for recording the sequence.

use crate::device::{Device, FramBuf, FramWord, PowerFailure, SramBuf};
use crate::spec::{CostTable, Op};
use crate::trace::Phase;
use crate::trace::RegionId;
use fxp::Q15;

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

    /// Tallies one iteration of `body` (on a copy, so cursors stay put),
    /// starting in `phase`: the loop's bundle, as the body itself charges
    /// it.
    pub fn tally<B: LoopBody + Clone>(body: &B, phase: Phase) -> OpBundle {
        let mut t = Tally {
            bundle: OpBundle::new(),
            phase,
        };
        body.clone().step(&mut t, 0).expect("a tally never fails");
        t.bundle
    }

    /// Appends `n` copies of `other`'s op sequence (a multi-iteration
    /// body built from a one-iteration one).
    pub fn append_n(&mut self, other: &OpBundle, n: u32) {
        for _ in 0..n {
            for e in other.ops() {
                self.push_n(e.op, e.phase, e.count);
            }
        }
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

// ----- one body, three meters -----------------------------------------

/// What a metered loop body charges its ops through: a recorder
/// ([`Tally`]), pre-paid data movement (funded iterations), or the
/// [`Device`] itself, one [`Device::consume`] per op (the first unfunded
/// iteration, and any code outside a funded loop). A body is
/// written once against this trait; see the [module docs](self).
///
/// Every op is charged at the meter's current phase, except the
/// loop-continuation write of [`Meter::store_ctl`].
pub trait Meter {
    /// Charges one op with no memory effect (ALU, multiply, branch, …).
    fn op(&mut self, op: Op) -> Result<(), PowerFailure>;
    /// Reads one FRAM word ([`Op::FramRead`]).
    fn read(&mut self, buf: FramBuf, i: u32) -> Result<Q15, PowerFailure>;
    /// Writes one FRAM word ([`Op::FramWrite`]).
    fn write(&mut self, buf: FramBuf, i: u32, v: Q15) -> Result<(), PowerFailure>;
    /// Reads one SRAM word ([`Op::SramRead`]).
    fn sram_read(&mut self, buf: SramBuf, i: u32) -> Result<Q15, PowerFailure>;
    /// Writes one SRAM word ([`Op::SramWrite`]).
    fn sram_write(&mut self, buf: SramBuf, i: u32, v: Q15) -> Result<(), PowerFailure>;
    /// Writes a FRAM counter word as data, at the current phase (an undo
    /// slot, say).
    fn store_word(&mut self, w: FramWord, v: u16) -> Result<(), PowerFailure>;
    /// The loop-continuation write: a control-phase store of `v` to `w`,
    /// after which the body continues in the kernel phase.
    fn store_ctl(&mut self, w: FramWord, v: u16) -> Result<(), PowerFailure>;
    /// Marks one iteration's forward progress ([`Device::mark_progress`]).
    fn progress(&mut self);
    /// Detected data corruption the body cannot repair: spends the
    /// region's retry budget ([`Device::note_corruption`]) and fails.
    fn abort_corrupted(&mut self, region: RegionId) -> Result<(), PowerFailure>;
}

/// One iteration of a metered loop, written once against a [`Meter`].
///
/// The op sequence of a step must not depend on data values: the
/// [`Tally`] of one step is the bundle that funds every step. Bodies may
/// keep incremental cursors; [`run_loop`] calls `step` with consecutive
/// indices, whichever meter runs them.
pub trait LoopBody {
    /// Runs iteration `t`.
    fn step<M: Meter>(&mut self, m: &mut M, t: u32) -> Result<(), PowerFailure>;

    /// `true` once the loop should stop early (a scan found its hit).
    /// Iterations already funded in the batch stay charged.
    #[inline]
    fn done(&self) -> bool {
        false
    }
}

/// Records the ops a body charges. Never touches a device, never fails:
/// reads return zero and corruption checks pass.
#[derive(Debug)]
pub struct Tally {
    bundle: OpBundle,
    phase: Phase,
}

impl Meter for Tally {
    fn op(&mut self, op: Op) -> Result<(), PowerFailure> {
        self.bundle.push(op, self.phase);
        Ok(())
    }
    fn read(&mut self, _: FramBuf, _: u32) -> Result<Q15, PowerFailure> {
        self.op(Op::FramRead).map(|()| Q15::ZERO)
    }
    fn write(&mut self, _: FramBuf, _: u32, _: Q15) -> Result<(), PowerFailure> {
        self.op(Op::FramWrite)
    }
    fn sram_read(&mut self, _: SramBuf, _: u32) -> Result<Q15, PowerFailure> {
        self.op(Op::SramRead).map(|()| Q15::ZERO)
    }
    fn sram_write(&mut self, _: SramBuf, _: u32, _: Q15) -> Result<(), PowerFailure> {
        self.op(Op::SramWrite)
    }
    fn store_word(&mut self, _: FramWord, _: u16) -> Result<(), PowerFailure> {
        self.op(Op::FramWrite)
    }
    fn store_ctl(&mut self, _: FramWord, _: u16) -> Result<(), PowerFailure> {
        self.bundle.push(Op::FramWrite, Phase::Control);
        self.phase = Phase::Kernel;
        Ok(())
    }
    fn progress(&mut self) {}
    fn abort_corrupted(&mut self, _: RegionId) -> Result<(), PowerFailure> {
        Ok(())
    }
}

/// Funded iterations: the bundle already paid for every op, so data
/// moves through the `prepaid_*` accessors. The continuation word and
/// the progress marks are settled once per batch ([`Funded::settle`]).
struct Funded<'a> {
    dev: &'a mut Device,
    ctl: Option<(FramWord, u16)>,
    progress: u64,
}

impl Funded<'_> {
    /// Only the batch's last continuation write is observable after an
    /// uninterrupted run of iterations.
    #[inline(always)]
    fn settle(self) {
        if let Some((w, v)) = self.ctl {
            self.dev.prepaid_store_word(w, v);
        }
        if self.progress > 0 {
            self.dev.mark_progress_n(self.progress);
        }
    }
}

impl Meter for Funded<'_> {
    #[inline(always)]
    fn op(&mut self, _: Op) -> Result<(), PowerFailure> {
        Ok(())
    }
    #[inline(always)]
    fn read(&mut self, buf: FramBuf, i: u32) -> Result<Q15, PowerFailure> {
        Ok(self.dev.prepaid_read(buf, i))
    }
    #[inline(always)]
    fn write(&mut self, buf: FramBuf, i: u32, v: Q15) -> Result<(), PowerFailure> {
        self.dev.prepaid_write(buf, i, v);
        Ok(())
    }
    #[inline(always)]
    fn sram_read(&mut self, buf: SramBuf, i: u32) -> Result<Q15, PowerFailure> {
        Ok(self.dev.prepaid_sram_read(buf, i))
    }
    #[inline(always)]
    fn sram_write(&mut self, buf: SramBuf, i: u32, v: Q15) -> Result<(), PowerFailure> {
        self.dev.prepaid_sram_write(buf, i, v);
        Ok(())
    }
    #[inline(always)]
    fn store_word(&mut self, w: FramWord, v: u16) -> Result<(), PowerFailure> {
        self.dev.prepaid_store_word(w, v);
        Ok(())
    }
    #[inline(always)]
    fn store_ctl(&mut self, w: FramWord, v: u16) -> Result<(), PowerFailure> {
        self.ctl = Some((w, v));
        Ok(())
    }
    #[inline(always)]
    fn progress(&mut self) {
        self.progress += 1;
    }
    fn abort_corrupted(&mut self, region: RegionId) -> Result<(), PowerFailure> {
        abort_corrupted(self.dev, region)
    }
}

/// The device itself is the scalar meter: one [`Device::consume`] per op,
/// so the first unfunded iteration browns out on exactly the op an
/// all-scalar execution dies on.
impl Meter for Device {
    fn op(&mut self, op: Op) -> Result<(), PowerFailure> {
        self.consume(op)
    }
    fn read(&mut self, buf: FramBuf, i: u32) -> Result<Q15, PowerFailure> {
        Device::read(self, buf, i)
    }
    fn write(&mut self, buf: FramBuf, i: u32, v: Q15) -> Result<(), PowerFailure> {
        Device::write(self, buf, i, v)
    }
    fn sram_read(&mut self, buf: SramBuf, i: u32) -> Result<Q15, PowerFailure> {
        Device::sram_read(self, buf, i)
    }
    fn sram_write(&mut self, buf: SramBuf, i: u32, v: Q15) -> Result<(), PowerFailure> {
        Device::sram_write(self, buf, i, v)
    }
    fn store_word(&mut self, w: FramWord, v: u16) -> Result<(), PowerFailure> {
        Device::store_word(self, w, v)
    }
    fn store_ctl(&mut self, w: FramWord, v: u16) -> Result<(), PowerFailure> {
        let region = self.context().0;
        self.set_context(region, Phase::Control);
        Device::store_word(self, w, v)?;
        self.set_context(region, Phase::Kernel);
        Ok(())
    }
    fn progress(&mut self) {
        self.mark_progress();
    }
    fn abort_corrupted(&mut self, region: RegionId) -> Result<(), PowerFailure> {
        abort_corrupted(self, region)
    }
}

fn abort_corrupted(dev: &mut Device, region: RegionId) -> Result<(), PowerFailure> {
    while dev.note_corruption(region) {}
    Err(PowerFailure)
}

/// Runs iterations `from..end` of `body`, whose one-iteration op
/// sequence is `bundle` (its [`OpBundle::tally`]): each batch the buffer
/// funds runs under the funded meter, then the first unfunded iteration
/// runs op by op with the device itself as the meter. Stops early once
/// [`LoopBody::done`].
///
/// # Errors
///
/// Returns [`PowerFailure`] on the brown-out, or when the body fails.
#[inline]
pub fn run_loop<B: LoopBody + Clone>(
    dev: &mut Device,
    bundle: &OpBundle,
    body: &mut B,
    from: u32,
    end: u32,
) -> Result<(), PowerFailure> {
    let mut i = from;
    while i < end {
        let funded = dev.consume_bundle(bundle, (end - i) as u64)? as u32;
        let mut f = Funded {
            dev: &mut *dev,
            ctl: None,
            progress: 0,
        };
        // A local copy lets the compiler keep the body's cursors and
        // accumulators in registers: through `&mut B` it must store them
        // back every iteration, in case the iteration panics.
        let mut local = body.clone();
        let r = run_funded(&mut f, &mut local, i, i + funded);
        *body = local;
        f.settle();
        r?;
        i += funded;
        if body.done() {
            return Ok(());
        }
        if i < end {
            body.step(dev, i)?;
            i += 1;
            if body.done() {
                return Ok(());
            }
        }
    }
    Ok(())
}

#[inline(always)]
fn run_funded<B: LoopBody>(
    f: &mut Funded<'_>,
    body: &mut B,
    from: u32,
    end: u32,
) -> Result<(), PowerFailure> {
    for t in from..end {
        body.step(f, t)?;
        if body.done() {
            break;
        }
    }
    Ok(())
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
