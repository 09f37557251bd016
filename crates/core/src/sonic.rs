//! SONIC: software-only neural intermittent computing (paper §6).
//!
//! SONIC "breaks the rules" of task-based intermittent systems: loop
//! indices and loop data are written *directly* to non-volatile memory,
//! with no redo log and no privatization. Three mechanisms make that safe:
//!
//! - **Loop continuation** (§6.2.1): each layer task loads its loop
//!   indices from FRAM on entry and stores the inner index after every
//!   iteration. After a power failure the task resumes *from the last
//!   attempted iteration* — no wasted work, no tiling, no non-termination.
//! - **Loop-ordered buffering** (§6.2.2): convolutions and dense
//!   fully-connected layers are computed filter-element by filter-element
//!   ("tap by tap"), ping-ponging partial sums between two scratch planes.
//!   An iteration reads only the *previous* plane and the inputs, and
//!   writes only the *current* plane, so no location is read and then
//!   written within an iteration — every iteration is idempotent, with no
//!   commits at all. (On a cache-based machine this loop order would be a
//!   locality disaster; the MSP430 has no cache, which SONIC exploits.)
//! - **Sparse undo-logging** (§6.2.2): sparse fully-connected layers
//!   update output activations in place (work proportional to the
//!   nonzeros, not the buffer size). A two-word undo slot (saved value +
//!   iteration tag) written *before* each in-place update makes the
//!   read-modify-write idempotent: on restart, a matching tag means the
//!   update may have landed, so the saved value is restored and the
//!   iteration redone.
//!
//! The non-idempotent hazard in sparse layers is *partial accumulation
//! state*, so the (stage, iteration) pair is packed into a single 16-bit
//! word — FRAM's word-write atomicity then makes every state transition
//! atomic. All other layer-level restarts are idempotent because a layer
//! is a deterministic function of its (unmodified) input buffer.
//!
//! # Bundled accounting
//!
//! Every inner loop is written once, as an [`mcu::LoopBody`] whose step
//! charges each op through an [`mcu::Meter`]; [`mcu::run_loop`] funds
//! whole iterations with the body's tallied bundle, runs them through
//! pre-charged accessors, and runs the first unfunded iteration op by op
//! so a brown-out lands on exactly the same op with exactly the same
//! partial memory effects. Pooling and ReLU share the baseline's bodies
//! ([`crate::baseline`]) with a loop-continuation tail. The root
//! `bundles` test suite pins bit-identical traces and outputs against
//! digests recorded from the scalar implementation.

use crate::baseline::{charge_finish, layer_bundle, unpack_tap, Act, PoolBody, ReluBody};
use crate::deploy::{DeployedKind, DeployedLayer, DeployedModel, UNDO_EMPTY};
use dnn::quant::finish_acc;
use fxp::{Accum, Q15};
use intermittent::task::{TaskGraph, Transition};
use mcu::{run_loop, Device, FramBuf, LoopBody, Meter, Op, OpBundle, Phase, PowerFailure};

/// Reads a control word under the ECC integrity guard, charging exactly
/// like a plain [`Device::load_word`] when the check bits pass. A read
/// that flags corruption is scrubbed back to its last durable (checked)
/// value and the caller resumes from that checkpoint; corruption that
/// keeps re-flagging (a stuck control cell) exhausts the device's
/// bounded retry budget, after which the run aborts as unrecoverable.
/// Does not touch the accounting context — callers charge the read
/// under whatever (region, phase) is current.
pub(crate) fn load_guarded(
    dev: &mut Device,
    w: mcu::FramWord,
    region: mcu::RegionId,
) -> Result<u16, PowerFailure> {
    let v = dev.load_word(w)?;
    if dev.verify_word(w) {
        return Ok(v);
    }
    if !dev.note_corruption(region) {
        return Err(PowerFailure);
    }
    let fixed = dev
        .guarded_intended(w.addr())
        .expect("a flagged word is guarded");
    // The scrub write is real (metered) work: ECC correction writes the
    // repaired word back through the FRAM controller.
    dev.store_word(w, fixed)?;
    Ok(fixed)
}

/// Reads a control word (loop continuation state) with control-phase
/// accounting, under the ECC integrity guard (see [`load_guarded`]).
pub(crate) fn load_ctl(
    dev: &mut Device,
    w: mcu::FramWord,
    region: mcu::RegionId,
) -> Result<u16, PowerFailure> {
    dev.set_context(region, Phase::Control);
    load_guarded(dev, w, region)
}

/// Writes a control word with control-phase accounting (the FRAM writes
/// to loop indices called out in §9.4 / Fig. 12).
fn store_ctl(
    dev: &mut Device,
    w: mcu::FramWord,
    v: u16,
    region: mcu::RegionId,
) -> Result<(), PowerFailure> {
    dev.set_context(region, Phase::Control);
    dev.store_word(w, v)
}

/// SONIC's element loops: plain activations, and a loop-continuation
/// write of `base + next` to `ctl` ending every iteration.
#[derive(Clone, Copy)]
pub(crate) struct Continued {
    ctl: mcu::FramWord,
    base: u32,
}

impl Continued {
    pub(crate) fn at(ctl: mcu::FramWord) -> Self {
        Continued { ctl, base: 0 }
    }
}

impl Act for Continued {
    /// The index write that checkpoints progress, then increment and
    /// back-branch.
    #[inline(always)]
    fn end<M: Meter>(self, m: &mut M, next: u32) -> Result<(), PowerFailure> {
        m.store_ctl(self.ctl, (self.base + next) as u16)?;
        m.op(Op::Incr)?;
        m.op(Op::Branch)?;
        m.progress();
        Ok(())
    }
}

// ----- iteration bodies ---------------------------------------------
//
// Bundles depend only on layer geometry and loop variant, so they are
// tallied once at graph-build time and captured by the task closures —
// task entries (SONIC enters a task once per filter element) reuse them.

/// One loop-ordered MAC iteration (a conv tap pass and a dense input
/// pass share it): address ALU, operand read, multiply, previous-partial
/// add+read on non-first passes, partial write, loop continuation.
///
/// The operand index advances incrementally (no per-element div/mod):
/// `row + col`, with `col` wrapping at `width` and `row` then stepping
/// by `stride`. A conv tap reads its input window this way; a dense pass
/// reads one weight column (`width = 1`, `stride = in_n`).
#[derive(Clone)]
struct MacPass {
    operand: FramBuf,
    scale: Q15,
    first: bool,
    dest: FramBuf,
    inter: FramBuf,
    row: u32,
    col: u32,
    width: u32,
    stride: u32,
    cont: Continued,
}

impl MacPass {
    /// The pass of loop position `pos` from its first iteration: writes
    /// plane `pos % 2` and, after the first pass, reads the other one.
    /// Callers position the operand cursor.
    fn new(m: &DeployedModel, l: &DeployedLayer, pos: u32, operand: FramBuf, scale: Q15) -> Self {
        let (dest, inter) = if pos.is_multiple_of(2) {
            (m.plane_a, m.plane_b)
        } else {
            (m.plane_b, m.plane_a)
        };
        MacPass {
            operand,
            scale,
            first: pos == 0,
            dest,
            inter,
            row: 0,
            col: 0,
            width: 1,
            stride: 0,
            cont: Continued::at(l.idx),
        }
    }

    fn bundles(m: &DeployedModel, l: &DeployedLayer) -> [OpBundle; 2] {
        [0, 1].map(|pos| {
            OpBundle::tally(
                &MacPass::new(m, l, pos, m.plane_a, Q15::ZERO),
                Phase::Kernel,
            )
        })
    }
}

impl LoopBody for MacPass {
    #[inline(always)]
    fn step<M: Meter>(&mut self, m: &mut M, t: u32) -> Result<(), PowerFailure> {
        m.op(Op::Alu)?;
        let x = m.read(self.operand, self.row + self.col)?;
        m.op(Op::FxpMul)?;
        let prod = x * self.scale;
        let v = if self.first {
            prod
        } else {
            m.op(Op::FxpAdd)?;
            m.read(self.inter, t)? + prod
        };
        m.write(self.dest, t, v)?;
        self.col += 1;
        if self.col == self.width {
            self.col = 0;
            self.row += self.stride;
        }
        self.cont.end(m, t + 1)
    }
}

/// A finishing pass's bias: one word per output, or one per filter.
#[derive(Clone, Copy)]
pub(crate) enum Bias {
    PerElement(FramBuf),
    Const(Q15),
}

/// One finishing-pass iteration: optional partial read, bias read or
/// constant, shift+bias arithmetic, output write, loop continuation.
/// `partial: None` means a zero partial (fully pruned filter).
#[derive(Clone)]
pub(crate) struct Finish {
    partial: Option<FramBuf>,
    bias: Bias,
    shift: i32,
    dst: FramBuf,
    dst_base: u32,
    cont: Continued,
}

impl Finish {
    pub(crate) fn new(
        m: &DeployedModel,
        l: &DeployedLayer,
        partial: Option<FramBuf>,
        bias: Bias,
        dst_base: u32,
    ) -> Self {
        let (DeployedKind::Conv { shift, .. } | DeployedKind::Dense { shift, .. }) = l.kind else {
            unreachable!("finishing pass on a layer without weights")
        };
        Finish {
            partial,
            bias,
            shift,
            dst: m.buf(l.dst),
            dst_base,
            cont: Continued::at(l.idx),
        }
    }

    /// Continuation words count from `base` (a packed stage word).
    fn ctl_base(mut self, base: u32) -> Self {
        self.cont.base = base;
        self
    }

    pub(crate) fn bundle(&self) -> OpBundle {
        OpBundle::tally(self, Phase::Kernel)
    }
}

impl LoopBody for Finish {
    #[inline(always)]
    fn step<M: Meter>(&mut self, m: &mut M, t: u32) -> Result<(), PowerFailure> {
        let partial = match self.partial {
            Some(p) => Accum::from_q15(m.read(p, t)?),
            None => Accum::ZERO,
        };
        let b = match self.bias {
            Bias::PerElement(bb) => m.read(bb, t)?,
            Bias::Const(b) => b,
        };
        charge_finish(m)?;
        m.write(
            self.dst,
            self.dst_base + t,
            finish_acc(partial, self.shift, b),
        )?;
        self.cont.end(m, t + 1)
    }
}

/// The partial plane a finishing pass reads after `passes` loop-ordered
/// passes (`None` after none: a fully pruned filter).
fn final_plane(m: &DeployedModel, passes: u32) -> Option<FramBuf> {
    match passes {
        0 => None,
        n if (n - 1) % 2 == 0 => Some(m.plane_a),
        _ => Some(m.plane_b),
    }
}

/// Conv-layer task bundles: tap passes (first, later), finishing passes
/// (with a partial plane, fully pruned).
#[derive(Clone)]
struct ConvBundles {
    tap: [OpBundle; 2],
    finish: [OpBundle; 2],
}

impl ConvBundles {
    fn new(m: &DeployedModel, l: &DeployedLayer) -> Self {
        let finish = |p| Finish::new(m, l, p, Bias::Const(Q15::ZERO), 0).bundle();
        ConvBundles {
            tap: MacPass::bundles(m, l),
            finish: [finish(Some(m.plane_a)), finish(None)],
        }
    }
}

/// Dense-layer task bundles: input passes (first, later) and the finish.
#[derive(Clone)]
struct DenseBundles {
    pass: [OpBundle; 2],
    finish: OpBundle,
}

impl DenseBundles {
    fn new(m: &DeployedModel, l: &DeployedLayer) -> Self {
        DenseBundles {
            pass: MacPass::bundles(m, l),
            finish: dense_finish(m, l, 1).bundle(),
        }
    }
}

/// The finishing pass of a dense layer after `passes` passes: per-output
/// biases.
fn dense_finish(m: &DeployedModel, l: &DeployedLayer, passes: u32) -> Finish {
    let DeployedKind::Dense { bias, .. } = l.kind else {
        unreachable!("dense finish on non-dense")
    };
    Finish::new(m, l, final_plane(m, passes), Bias::PerElement(bias), 0)
}

/// Sparse-FC (undo-logging) task bundles.
#[derive(Clone)]
pub(crate) struct SparseBundles {
    zero: OpBundle,
    accum: OpBundle,
    finish: OpBundle,
}

impl SparseBundles {
    pub(crate) fn new(m: &DeployedModel, l: &DeployedLayer) -> Self {
        let st = SparseState::of(l);
        SparseBundles {
            zero: OpBundle::tally(&ZeroPass::new(m, l), Phase::Kernel),
            accum: OpBundle::tally(&Scatter::new(m, l, st, 0, Q15::ZERO), Phase::Kernel),
            finish: dense_finish(m, l, 1).bundle(),
        }
    }
}

/// Loop-ordered sparse ablation bundles: pass-through rows for
/// `[first pass][entries remain]`, plus the finish.
#[derive(Clone)]
struct LoopOrderedBundles {
    pass: [[OpBundle; 2]; 2],
    finish: OpBundle,
}

impl LoopOrderedBundles {
    fn new(m: &DeployedModel, l: &DeployedLayer) -> Self {
        let pass = |j: u32| {
            [0, 1].map(|pending| {
                OpBundle::tally(
                    &PassThrough::new(m, l, j, Q15::ZERO, 0, pending),
                    Phase::Kernel,
                )
            })
        };
        LoopOrderedBundles {
            pass: [pass(0), pass(1)],
            finish: dense_finish(m, l, 1).bundle(),
        }
    }
}

/// Tap metadata resolved once per task entry (held in registers).
struct Tap {
    w: Q15,
    c: u32,
    ky: u32,
    kx: u32,
}

fn read_conv_tap(
    dev: &mut Device,
    weights: FramBuf,
    sparse: &Option<(FramBuf, FramBuf)>,
    dims: [u32; 4],
    f: u32,
    pos: u32,
) -> Result<Tap, PowerFailure> {
    let [_, nc, kh, kw] = dims;
    match sparse {
        Some((row_ptr, taps)) => {
            let start = dev.read(*row_ptr, f)?.raw() as u16 as u32;
            let off = dev.read(*taps, 2 * (start + pos))?.raw() as u16;
            dev.consume(Op::Alu)?;
            let (c, ky, kx) = unpack_tap(off, kh, kw);
            let w = dev.read(*taps, 2 * (start + pos) + 1)?;
            Ok(Tap { w, c, ky, kx })
        }
        None => {
            let (c, ky, kx) = unpack_tap(pos as u16, kh, kw);
            dev.consume(Op::Alu)?;
            let w = dev.read(weights, f * (nc * kh * kw) + pos)?;
            Ok(Tap { w, c, ky, kx })
        }
    }
}

fn conv_ntaps(
    dev: &mut Device,
    sparse: &Option<(FramBuf, FramBuf)>,
    dims: [u32; 4],
    f: u32,
) -> Result<u32, PowerFailure> {
    match sparse {
        Some((row_ptr, _)) => {
            let start = dev.read(*row_ptr, f)?.raw() as u16 as u32;
            let end = dev.read(*row_ptr, f + 1)?.raw() as u16 as u32;
            Ok(end - start)
        }
        None => Ok(dims[1] * dims[2] * dims[3]),
    }
}

/// The shift+bias finishing loop shared (modulo sources) by conv, dense,
/// and sparse-dense layers — SONIC's and TAILS's alike: reads the
/// partial, applies shift+bias, writes the output, checkpoints the index.
/// `iter` is `body`'s bundle.
pub(crate) fn finish_pass(
    dev: &mut Device,
    l: &DeployedLayer,
    iter: &OpBundle,
    mut body: Finish,
    total: u32,
    from: u32,
) -> Result<(), PowerFailure> {
    dev.set_context(l.region, Phase::Kernel);
    run_loop(dev, iter, &mut body, from, total)
}

/// The convolution layer task (Listing 1's `Task_Convolve` +
/// `Task_Next_Filter` + the per-filter finishing pass, fused into one
/// self-transitioning task).
fn conv_task(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    bundles: &ConvBundles,
    self_id: usize,
    next: Transition,
) -> Result<Transition, PowerFailure> {
    let DeployedKind::Conv {
        dims,
        weights,
        sparse,
        bias,
        ..
    } = &l.kind
    else {
        unreachable!("conv_task on non-conv")
    };
    let [nf, _, _, _] = *dims;
    let [_, h, w_in] = l.in_shape;
    let [_, oh, ow] = l.out_shape;
    let plane = oh * ow;
    let src = m.buf(l.src);

    let f = load_ctl(dev, l.filt, l.region)? as u32;
    dev.consume(Op::Branch)?;
    if f >= nf {
        // Layer complete: reset for the next inference and move on.
        store_ctl(dev, l.filt, 0, l.region)?;
        return Ok(next);
    }

    let pos = load_ctl(dev, l.pos, l.region)? as u32;
    dev.set_context(l.region, Phase::Control);
    let ntaps = conv_ntaps(dev, sparse, *dims, f)?;
    dev.consume(Op::Branch)?;

    if pos >= ntaps {
        // Finishing pass for filter f: shift + bias from the final
        // partial plane into the output buffer. Read and write sets are
        // disjoint, so resuming (or re-running) is idempotent.
        let b = dev.read(*bias, f)?;
        let partial = final_plane(m, ntaps);
        let j = load_ctl(dev, l.idx, l.region)? as u32;
        let body = Finish::new(m, l, partial, Bias::Const(b), f * plane);
        finish_pass(
            dev,
            l,
            &bundles.finish[partial.is_none() as usize],
            body,
            plane,
            j,
        )?;
        // Advance: idx, pos reset before filt increments; a crash between
        // these re-runs the (idempotent) finishing pass.
        store_ctl(dev, l.idx, 0, l.region)?;
        store_ctl(dev, l.pos, 0, l.region)?;
        store_ctl(dev, l.filt, (f + 1) as u16, l.region)?;
        return Ok(Transition::To(self_id));
    }

    // Apply filter element `pos` across the whole plane (loop-ordered
    // buffering): dest[i] = inter[i] + src[window(i)] * tap, with dest and
    // inter alternating between the scratch planes.
    dev.set_context(l.region, Phase::Control);
    let tap = read_conv_tap(dev, *weights, sparse, *dims, f, pos)?;
    let i = load_ctl(dev, l.idx, l.region)? as u32;
    let mut body = MacPass {
        row: (tap.c * h + i / ow + tap.ky) * w_in + tap.kx,
        col: i % ow,
        width: ow,
        stride: w_in,
        ..MacPass::new(m, l, pos, src, tap.w)
    };
    dev.set_context(l.region, Phase::Kernel);
    run_loop(dev, &bundles.tap[usize::from(pos > 0)], &mut body, i, plane)?;
    // Next filter element; crash between these stores re-runs this tap,
    // which is idempotent.
    store_ctl(dev, l.idx, 0, l.region)?;
    store_ctl(dev, l.pos, (pos + 1) as u16, l.region)?;
    Ok(Transition::To(self_id))
}

/// Dense fully-connected layers use the same loop-ordered buffering with
/// the input elements as "filter elements".
fn dense_task(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    bundles: &DenseBundles,
    self_id: usize,
    next: Transition,
) -> Result<Transition, PowerFailure> {
    let DeployedKind::Dense { dims, weights, .. } = &l.kind else {
        unreachable!("dense_task on non-dense")
    };
    let [out_n, in_n] = *dims;
    let src = m.buf(l.src);

    let j = load_ctl(dev, l.pos, l.region)? as u32;
    dev.consume(Op::Branch)?;
    if j >= in_n {
        // Finishing pass: shift + per-output bias into the output buffer.
        let o = load_ctl(dev, l.idx, l.region)? as u32;
        finish_pass(dev, l, &bundles.finish, dense_finish(m, l, in_n), out_n, o)?;
        store_ctl(dev, l.idx, 0, l.region)?;
        store_ctl(dev, l.pos, 0, l.region)?;
        return Ok(next);
    }

    // Apply input element j to every output partial: weight column j.
    dev.set_context(l.region, Phase::Control);
    let x = dev.read(src, j)?;
    let o = load_ctl(dev, l.idx, l.region)? as u32;
    let mut body = MacPass {
        row: o * in_n + j,
        stride: in_n,
        ..MacPass::new(m, l, j, *weights, x)
    };
    dev.set_context(l.region, Phase::Kernel);
    run_loop(dev, &bundles.pass[usize::from(j > 0)], &mut body, o, out_n)?;
    store_ctl(dev, l.idx, 0, l.region)?;
    store_ctl(dev, l.pos, (j + 1) as u16, l.region)?;
    Ok(Transition::To(self_id))
}

const STAGE_ZERO: u16 = 0;
const STAGE_ACCUM: u16 = 1;
const STAGE_FINISH: u16 = 2;

/// Sparse-FC state machine packed into ONE 16-bit word so every stage
/// transition is a single (atomic) FRAM word write. Range encoding keeps
/// the full u16 range available:
///
/// - `[0, out_n)`               → ZERO pass at index `state`
/// - `[out_n, out_n + nnz]`     → ACCUM at `k = state - out_n`
///   (the `+ nnz` endpoint means "accumulation finished")
/// - `(out_n + nnz, …]`         → FINISH at `state - out_n - nnz - 1`
#[derive(Clone, Copy)]
struct SparseState {
    out_n: u32,
    nnz: u32,
}

impl SparseState {
    fn of(l: &DeployedLayer) -> Self {
        let DeployedKind::Dense {
            dims,
            sparse: Some((_, entries)),
            ..
        } = l.kind
        else {
            unreachable!("sparse state on a non-sparse layer")
        };
        SparseState {
            out_n: dims[0],
            nnz: entries.len() / 2,
        }
    }

    fn unpack(self, state: u16) -> (u16, u32) {
        let s = state as u32;
        if s < self.out_n {
            (STAGE_ZERO, s)
        } else if s <= self.out_n + self.nnz {
            (STAGE_ACCUM, s - self.out_n)
        } else {
            (STAGE_FINISH, s - self.out_n - self.nnz - 1)
        }
    }

    fn pack(self, stage: u16, idx: u32) -> u16 {
        let v = match stage {
            STAGE_ZERO => idx,
            STAGE_ACCUM => self.out_n + idx,
            _ => self.out_n + self.nnz + 1 + idx,
        };
        debug_assert!(v <= u16::MAX as u32);
        v as u16
    }
}

/// One zeroing iteration of the accumulation plane (idempotent writes of
/// zero). The continuation index is clamped so the zero pass cannot roll
/// into ACCUM before the column cache (`pos`) is reset; re-zeroing the
/// last element on resume is idempotent.
#[derive(Clone)]
struct ZeroPass {
    plane: FramBuf,
    ctl: mcu::FramWord,
    st: SparseState,
}

impl ZeroPass {
    fn new(m: &DeployedModel, l: &DeployedLayer) -> Self {
        ZeroPass {
            plane: m.plane_a,
            ctl: l.idx,
            st: SparseState::of(l),
        }
    }
}

impl LoopBody for ZeroPass {
    #[inline(always)]
    fn step<M: Meter>(&mut self, m: &mut M, t: u32) -> Result<(), PowerFailure> {
        m.write(self.plane, t, Q15::ZERO)?;
        let next = (t + 1).min(self.st.out_n - 1);
        m.store_ctl(self.ctl, self.st.pack(STAGE_ZERO, next))?;
        m.op(Op::Incr)?;
        m.op(Op::Branch)?;
        m.progress();
        Ok(())
    }
}

/// One in-column scatter iteration: loop branch, the (failing) column
/// check read, then [`Scatter::update`].
#[derive(Clone)]
struct Scatter {
    col_ptr: FramBuf,
    entries: FramBuf,
    plane: FramBuf,
    undo_val: mcu::FramWord,
    undo_tag: mcu::FramWord,
    /// The current input column and its activation.
    j: u32,
    x: Q15,
    cont: Continued,
}

impl Scatter {
    fn new(m: &DeployedModel, l: &DeployedLayer, st: SparseState, j: u32, x: Q15) -> Self {
        let DeployedKind::Dense {
            sparse: Some((col_ptr, entries)),
            ..
        } = l.kind
        else {
            unreachable!("scatter on a non-sparse layer")
        };
        Scatter {
            col_ptr,
            entries,
            plane: m.plane_a,
            undo_val: l.undo_val,
            undo_tag: l.undo_tag,
            j,
            x,
            cont: Continued {
                ctl: l.idx,
                base: st.pack(STAGE_ACCUM, 0) as u32,
            },
        }
    }

    /// Entry (row, weight) reads, partial read, the two-phase undo log
    /// (save value, then tag — word-atomic), the MAC, the in-place
    /// write, loop continuation. The undo writes are data buffering, not
    /// loop control: they stay in the kernel phase (the paper's Fig. 10
    /// counts Alpaca's analogous dynamic buffering as kernel time).
    #[inline(always)]
    fn update<M: Meter>(&mut self, m: &mut M, k: u32) -> Result<(), PowerFailure> {
        let o = m.read(self.entries, 2 * k)?.raw() as u16 as u32;
        let wq = m.read(self.entries, 2 * k + 1)?;
        let val = m.read(self.plane, o)?;
        m.store_word(self.undo_val, val.raw() as u16)?;
        m.store_word(self.undo_tag, k as u16)?;
        m.op(Op::FxpMul)?;
        m.op(Op::FxpAdd)?;
        m.write(self.plane, o, val + self.x * wq)?;
        self.cont.end(m, k + 1)
    }
}

impl LoopBody for Scatter {
    #[inline(always)]
    fn step<M: Meter>(&mut self, m: &mut M, k: u32) -> Result<(), PowerFailure> {
        m.op(Op::Branch)?;
        m.read(self.col_ptr, self.j + 1)?; // k is still in column j
        self.update(m, k)
    }
}

/// Sparse fully-connected layers: in-place scatter accumulation protected
/// by sparse undo-logging (§6.2.2).
pub(crate) fn sparse_dense_task(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    bundles: &SparseBundles,
    self_id: usize,
    next: Transition,
) -> Result<Transition, PowerFailure> {
    let DeployedKind::Dense {
        dims,
        sparse: Some((col_ptr, entries)),
        bias,
        ..
    } = l.kind
    else {
        unreachable!("sparse_dense_task on a non-sparse layer")
    };
    let [out_n, in_n] = dims;
    let st = SparseState::of(l);
    let nnz = st.nnz;
    assert!(
        nnz + 2 * out_n + 2 <= u16::MAX as u32,
        "sparse layer exceeds the one-word state range"
    );
    let src = m.buf(l.src);

    let state = load_ctl(dev, l.idx, l.region)?;
    let (stage, idx) = st.unpack(state);
    dev.consume(Op::Branch)?;

    match stage {
        STAGE_ZERO => {
            dev.set_context(l.region, Phase::Kernel);
            run_loop(dev, &bundles.zero, &mut ZeroPass::new(m, l), idx, out_n)?;
            // Reset the column cache BEFORE the atomic stage transition:
            // ACCUM must never start with a stale (too-advanced) cache.
            store_ctl(dev, l.pos, 0, l.region)?;
            store_ctl(dev, l.idx, st.pack(STAGE_ACCUM, 0), l.region)?;
            Ok(Transition::To(self_id))
        }
        STAGE_ACCUM => {
            let mut k = idx;
            // Undo check: if the saved tag matches the current iteration,
            // the in-place update may have landed — restore and redo.
            let tag = load_ctl(dev, l.undo_tag, l.region)?;
            dev.consume(Op::Branch)?;
            if tag as u32 == k && k < nnz {
                let saved = load_ctl(dev, l.undo_val, l.region)?;
                let o = dev.read(entries, 2 * k)?.raw() as u16 as u32;
                dev.write(m.plane_a, o, Q15::from_raw(saved as i16))?;
            }
            // Recover the cached column; `pos` may lag (it is only a
            // cache), so advance it until it covers k.
            let mut j = load_ctl(dev, l.pos, l.region)? as u32;
            dev.set_context(l.region, Phase::Control);
            while j < in_n && (dev.read(col_ptr, j + 1)?.raw() as u16 as u32) <= k {
                dev.consume(Op::Incr)?;
                j += 1;
            }
            let x = if j < in_n {
                dev.read(src, j)?
            } else {
                Q15::ZERO
            };
            let mut body = Scatter::new(m, l, st, j, x);
            dev.set_context(l.region, Phase::Kernel);
            while k < nnz {
                // Iterations stay in column j until k reaches col_ptr[j+1]
                // (the column-advance loop body never runs for them).
                let col_end = (dev.prepaid_read(col_ptr, body.j + 1).raw() as u16 as u32).min(nnz);
                if col_end > k {
                    run_loop(dev, &bundles.accum, &mut body, k, col_end)?;
                    k = col_end;
                } else {
                    // Column advance (amortized: once per input element):
                    // the loop branch plus the check-read/advance sequence
                    // until the check fails, then the update.
                    dev.consume(Op::Branch)?;
                    while (dev.read(col_ptr, body.j + 1)?.raw() as u16 as u32) <= k {
                        body.j += 1;
                        store_ctl(dev, l.pos, body.j as u16, l.region)?;
                        body.x = dev.read(src, body.j)?;
                        dev.set_context(l.region, Phase::Kernel);
                    }
                    body.update(dev, k)?;
                    k += 1;
                }
            }
            store_ctl(dev, l.idx, st.pack(STAGE_FINISH, 0), l.region)?;
            store_ctl(dev, l.undo_tag, UNDO_EMPTY, l.region)?;
            Ok(Transition::To(self_id))
        }
        _ => {
            // Finish: shift + bias from the accumulation plane into the
            // output buffer (disjoint read/write sets: idempotent).
            let body = Finish::new(m, l, Some(m.plane_a), Bias::PerElement(bias), 0)
                .ctl_base(st.pack(STAGE_FINISH, 0) as u32);
            finish_pass(dev, l, &bundles.finish, body, out_n, idx)?;
            store_ctl(dev, l.idx, st.pack(STAGE_ZERO, 0), l.region)?;
            store_ctl(dev, l.pos, 0, l.region)?;
            Ok(next)
        }
    }
}

/// One row of a loop-ordered sparse column pass: dest[o] = inter[o],
/// plus the column entry when it hits row o. While entries remain, each
/// row reads the next entry's row for the hit check; after the last
/// entry, it does not. Only a hit (run op by op, outside the funded
/// pass-through runs) reads the weight and multiplies.
#[derive(Clone)]
struct PassThrough {
    entries: FramBuf,
    dest: FramBuf,
    inter: FramBuf,
    first: bool,
    x: Q15,
    /// The entry cursor over the column's `[k, end)`.
    k: u32,
    end: u32,
    hit: bool,
    cont: Continued,
}

impl PassThrough {
    fn new(m: &DeployedModel, l: &DeployedLayer, j: u32, x: Q15, k: u32, end: u32) -> Self {
        let DeployedKind::Dense {
            sparse: Some((_, entries)),
            ..
        } = l.kind
        else {
            unreachable!("pass-through on a non-sparse layer")
        };
        let (dest, inter) = if j.is_multiple_of(2) {
            (m.plane_a, m.plane_b)
        } else {
            (m.plane_b, m.plane_a)
        };
        PassThrough {
            entries,
            dest,
            inter,
            first: j == 0,
            x,
            k,
            end,
            hit: false,
            cont: Continued::at(l.idx),
        }
    }
}

impl LoopBody for PassThrough {
    #[inline(always)]
    fn step<M: Meter>(&mut self, m: &mut M, o: u32) -> Result<(), PowerFailure> {
        let mut v = if self.first {
            Q15::ZERO
        } else {
            m.read(self.inter, o)?
        };
        m.op(Op::Branch)?;
        if self.k < self.end {
            let row = m.read(self.entries, 2 * self.k)?.raw() as u16 as u32;
            if self.hit && row == o {
                let wq = m.read(self.entries, 2 * self.k + 1)?;
                m.op(Op::FxpMul)?;
                m.op(Op::FxpAdd)?;
                v += self.x * wq;
                self.k += 1;
            }
        }
        m.write(self.dest, o, v)?;
        self.cont.end(m, o + 1)
    }
}

/// The §6.2.2 counterfactual: a sparse FC computed with plain
/// loop-ordered buffering instead of sparse undo-logging. Each input
/// column pass copies the *entire* partial output plane between the
/// scratch buffers — "most of its time and energy copying unmodified
/// activations between buffers" — which is exactly the waste sparse
/// undo-logging exists to eliminate. Kept as an ablation.
fn sparse_dense_loop_ordered_task(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    bundles: &LoopOrderedBundles,
    self_id: usize,
    next: Transition,
) -> Result<Transition, PowerFailure> {
    let DeployedKind::Dense {
        dims,
        sparse: Some((col_ptr, entries)),
        ..
    } = l.kind
    else {
        unreachable!("sparse_dense_loop_ordered_task on a non-sparse layer")
    };
    let [out_n, in_n] = dims;
    let src = m.buf(l.src);

    let j = load_ctl(dev, l.pos, l.region)? as u32;
    dev.consume(Op::Branch)?;
    if j >= in_n {
        // Finishing pass, identical to the dense layer's.
        let o = load_ctl(dev, l.idx, l.region)? as u32;
        finish_pass(dev, l, &bundles.finish, dense_finish(m, l, in_n), out_n, o)?;
        store_ctl(dev, l.idx, 0, l.region)?;
        store_ctl(dev, l.pos, 0, l.region)?;
        return Ok(next);
    }

    // Pass for input column j: dest[o] = inter[o] (+ column entries that
    // hit o). Column entries are sorted by output row, so a volatile
    // cursor recovered on task entry merges them in one sweep.
    dev.set_context(l.region, Phase::Control);
    let x = dev.read(src, j)?;
    let (start, end) = (
        dev.read(col_ptr, j)?.raw() as u16 as u32,
        dev.read(col_ptr, j + 1)?.raw() as u16 as u32,
    );
    let mut o = load_ctl(dev, l.idx, l.region)? as u32;
    // Recover the entry cursor: count entries with row < o.
    let mut k = start;
    while k < end {
        dev.consume(Op::Branch)?;
        if (dev.read(entries, 2 * k)?.raw() as u16 as u32) >= o {
            break;
        }
        k += 1;
    }
    let mut body = PassThrough::new(m, l, j, x, k, end);
    let pass = &bundles.pass[usize::from(j > 0)];

    dev.set_context(l.region, Phase::Kernel);
    while o < out_n {
        // Rows up to the next entry hit (or the end) are uniform.
        let run_end = if body.k < body.end {
            (dev.prepaid_read(entries, 2 * body.k).raw() as u16 as u32).min(out_n)
        } else {
            out_n
        };
        if run_end > o {
            let iter = &pass[usize::from(body.k < body.end)];
            run_loop(dev, iter, &mut body, o, run_end)?;
            o = run_end;
        } else {
            // Entry hit: the full iteration including the MAC.
            body.hit = true;
            body.step(dev, o)?;
            body.hit = false;
            o += 1;
        }
    }
    store_ctl(dev, l.idx, 0, l.region)?;
    store_ctl(dev, l.pos, (j + 1) as u16, l.region)?;
    Ok(Transition::To(self_id))
}

/// Pool layer with loop continuation (write-only destination).
pub(crate) fn pool_task(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    iter: &OpBundle,
    next: Transition,
) -> Result<Transition, PowerFailure> {
    let from = load_ctl(dev, l.idx, l.region)? as u32;
    dev.set_context(l.region, Phase::Kernel);
    let mut body = PoolBody::new(m, l, Continued::at(l.idx));
    run_loop(dev, iter, &mut body, from, l.out_shape.iter().product())?;
    store_ctl(dev, l.idx, 0, l.region)?;
    Ok(next)
}

/// ReLU with loop continuation; in-place is safe because ReLU is
/// idempotent.
pub(crate) fn relu_task(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    iter: &OpBundle,
    next: Transition,
) -> Result<Transition, PowerFailure> {
    let from = load_ctl(dev, l.idx, l.region)? as u32;
    dev.set_context(l.region, Phase::Kernel);
    let mut body = ReluBody::new(m, l, Continued::at(l.idx));
    run_loop(dev, iter, &mut body, from, l.in_shape.iter().product())?;
    store_ctl(dev, l.idx, 0, l.region)?;
    Ok(next)
}

/// SONIC build options (ablations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SonicOptions {
    /// Use sparse undo-logging for sparse FC layers (the paper's design);
    /// `false` falls back to plain loop-ordered buffering, which wastes
    /// energy copying unmodified activations (§6.2.2's argument).
    pub sparse_undo_logging: bool,
}

impl Default for SonicOptions {
    fn default() -> Self {
        SonicOptions {
            sparse_undo_logging: true,
        }
    }
}

/// Builds the SONIC task graph: one self-transitioning task per layer.
pub fn build(m: &DeployedModel) -> TaskGraph<()> {
    build_opts(m, SonicOptions::default())
}

/// Builds the SONIC task graph with explicit options.
pub fn build_opts(m: &DeployedModel, opts: SonicOptions) -> TaskGraph<()> {
    let mut g: TaskGraph<()> = TaskGraph::new();
    let n = m.layers.len();
    for (li, l) in m.layers.iter().enumerate() {
        let self_id = li;
        let next = if li + 1 < n {
            Transition::To(li + 1)
        } else {
            Transition::Done
        };
        let name = format!("sonic-{}", layer_name(l));
        // Iteration bundles are precomputed here and captured: every task
        // entry reuses them instead of rebuilding.
        match &l.kind {
            DeployedKind::Conv { .. } => {
                let m = m.clone();
                let bundles = ConvBundles::new(&m, l);
                g.add(&name, move |dev, _| {
                    conv_task(dev, &m, &m.layers[li], &bundles, self_id, next)
                });
            }
            DeployedKind::Dense { sparse, .. } if sparse.is_some() => {
                let m = m.clone();
                if opts.sparse_undo_logging {
                    let bundles = SparseBundles::new(&m, l);
                    g.add(&name, move |dev, _| {
                        sparse_dense_task(dev, &m, &m.layers[li], &bundles, self_id, next)
                    });
                } else {
                    let bundles = LoopOrderedBundles::new(&m, l);
                    g.add(&name, move |dev, _| {
                        sparse_dense_loop_ordered_task(
                            dev,
                            &m,
                            &m.layers[li],
                            &bundles,
                            self_id,
                            next,
                        )
                    });
                }
            }
            DeployedKind::Dense { .. } => {
                let m = m.clone();
                let bundles = DenseBundles::new(&m, l);
                g.add(&name, move |dev, _| {
                    dense_task(dev, &m, &m.layers[li], &bundles, self_id, next)
                });
            }
            DeployedKind::Pool { .. } => {
                let iter = layer_bundle(m, l, Continued::at(l.idx));
                let m = m.clone();
                g.add(&name, move |dev, _| {
                    pool_task(dev, &m, &m.layers[li], &iter, next)
                });
            }
            DeployedKind::Relu => {
                let iter = layer_bundle(m, l, Continued::at(l.idx));
                let m = m.clone();
                g.add(&name, move |dev, _| {
                    relu_task(dev, &m, &m.layers[li], &iter, next)
                });
            }
            DeployedKind::Flatten => {
                g.add(&name, move |_, _| Ok(next));
            }
        }
    }
    if n == 0 {
        g.add("sonic-empty", |_, _| Ok(Transition::Done));
    }
    g
}

fn layer_name(l: &DeployedLayer) -> &'static str {
    match l.kind {
        DeployedKind::Conv { .. } => "conv",
        DeployedKind::Dense { .. } => "dense",
        DeployedKind::Pool { .. } => "pool",
        DeployedKind::Relu => "relu",
        DeployedKind::Flatten => "flatten",
    }
}
