//! TAILS: tile-accelerated intermittent LEA support (paper §7).
//!
//! TAILS keeps all of SONIC's intermittence machinery and swaps the
//! compute kernels for hardware-accelerated ones:
//!
//! - **One-time calibration** (§7.1): before the first inference a
//!   recursive calibration task finds the largest tile that survives a
//!   DMA-in → LEA FIR → DMA-out round trip on the device's energy buffer,
//!   halving the candidate on every power failure. The result is stored in
//!   FRAM and reused forever after.
//! - **Convolutions** (§7.2): decomposed into 1-D FIR discrete-time
//!   convolutions over rows. Each (filter, channel, kernel-row) group DMAs
//!   the padded-dense tap row and input row segments into the 4 KB SRAM,
//!   bit-shifts the activations *in software* (LEA has no vector
//!   left-shift), runs FIR on LEA, accumulates against the previous
//!   partial plane, and DMAs the result to the inactive scratch plane —
//!   loop-ordered buffering, so everything stays idempotent.
//! - **Dense fully-connected layers**: LEA vector-MAC over
//!   calibration-sized chunks of each weight row.
//! - **Sparse filters** are padded with zeros (reading the dense weight
//!   array), which wastes LEA work exactly as the paper observes; sparse
//!   fully-connected layers fall back to SONIC's software path (§7.2).
//!
//! The `use_lea` / `use_dma` switches reproduce the paper's ablation
//! ("LEA consistently improved performance by 1.4×, while DMA improved it
//! by 14%").
//!
//! # Bundled accounting
//!
//! DMA transfers and LEA commands are span-charged. The software word
//! loops (CPU staging, the left-shift pass, the software FIR/dot
//! ablations, partial-plane accumulation) and the finishing passes are
//! [`mcu::LoopBody`]s run by [`mcu::run_loop`], like `sonic`'s. A
//! convolution output row charges as one bundle built from DMA/LEA spans
//! and the word bodies' tallies; its first unfunded row replays through
//! the primitives — bit-identical traces, brown-out op included (pinned
//! by the root `bundles` tests).

use crate::baseline::layer_bundle;
use crate::deploy::{DeployedKind, DeployedLayer, DeployedModel};
use crate::sonic::{self, Bias};
use fxp::{Accum, Q15};
use intermittent::task::{TaskGraph, Transition};
use mcu::{run_loop, Device, FramBuf, LoopBody, Meter, Op, OpBundle, Phase, PowerFailure, SramBuf};

/// Hardware usage switches (both `true` for real TAILS; ablations flip
/// them to software emulations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TailsConfig {
    /// Use the LEA vector unit (otherwise software loops over SRAM).
    pub use_lea: bool,
    /// Use DMA block transfer (otherwise CPU word-copy loops).
    pub use_dma: bool,
}

impl Default for TailsConfig {
    fn default() -> Self {
        TailsConfig {
            use_lea: true,
            use_dma: true,
        }
    }
}

/// Initial calibration candidate (words); also the tile cap.
pub const CALIB_INITIAL: u16 = 512;
/// Smallest tile calibration will accept.
pub const CALIB_MIN: u16 = 8;

/// SRAM working set used by the TAILS kernels.
#[derive(Clone, Copy, Debug)]
struct SramBufs {
    src: SramBuf,
    taps: SramBuf,
    out: SramBuf,
    inter: SramBuf,
}

fn try_alloc_sram(dev: &mut Device) -> Result<SramBufs, mcu::AllocError> {
    let cap = CALIB_INITIAL as u32;
    Ok(SramBufs {
        src: dev.sram_alloc(cap + 64)?,
        taps: dev.sram_alloc(64)?,
        out: dev.sram_alloc(cap)?,
        inter: dev.sram_alloc(cap)?,
    })
}

fn alloc_sram(dev: &mut Device) -> SramBufs {
    // 512*3 + 64 words = ~3.2 KB of the 4 KB SRAM; allocation is
    // link-time and panics only on a mis-sized device spec (which
    // [`crate::exec::preflight_runtime`] lets callers probe fallibly).
    try_alloc_sram(dev).expect("SRAM staging buffers")
}

/// Checks that the TAILS SRAM staging buffers fit `dev`, releasing the
/// probe allocations again.
pub(crate) fn preflight_sram(dev: &mut Device) -> Result<(), mcu::AllocError> {
    let marks = dev.alloc_watermarks();
    let r = try_alloc_sram(dev).map(|_| ());
    dev.rewind_allocs(marks);
    r
}

/// Copies FRAM → SRAM by DMA or CPU loop depending on config.
fn stage_in(
    dev: &mut Device,
    cfg: TailsConfig,
    src: FramBuf,
    dst: SramBuf,
) -> Result<(), PowerFailure> {
    if cfg.use_dma {
        dev.dma_fram_to_sram(src, dst)
    } else {
        word_loop(dev, StageIn { src, dst }, src.len()).map(drop)
    }
}

/// Copies SRAM → FRAM by DMA or CPU loop depending on config.
fn stage_out(
    dev: &mut Device,
    cfg: TailsConfig,
    src: SramBuf,
    dst: FramBuf,
) -> Result<(), PowerFailure> {
    if cfg.use_dma {
        dev.dma_sram_to_fram(src, dst)
    } else {
        word_loop(dev, StageOut { src, dst }, src.len()).map(drop)
    }
}

// ----- software word loops -------------------------------------------
//
// Each software primitive's per-word (or per-output) iteration is one
// body, used BOTH by the primitive's own loop and, through its tally, by
// the whole-row bundle builders below — editing a primitive's cost
// cannot desynchronize the row bundles.

/// Runs a software word loop over `0..n` at the current phase, tallying
/// its bundle on entry (these loops run only in the LEA/DMA ablations).
fn word_loop<B: LoopBody + Clone>(
    dev: &mut Device,
    mut body: B,
    n: u32,
) -> Result<B, PowerFailure> {
    let iter = OpBundle::tally(&body, dev.context().1);
    run_loop(dev, &iter, &mut body, 0, n)?;
    Ok(body)
}

/// One word of CPU staging FRAM → SRAM (the `use_dma = false` ablation).
#[derive(Clone)]
struct StageIn {
    src: FramBuf,
    dst: SramBuf,
}

impl LoopBody for StageIn {
    fn step<M: Meter>(&mut self, m: &mut M, t: u32) -> Result<(), PowerFailure> {
        let v = m.read(self.src, t)?;
        m.sram_write(self.dst, t, v)?;
        m.op(Op::Incr)?;
        m.op(Op::Branch)
    }
}

/// One word of CPU staging SRAM → FRAM.
#[derive(Clone)]
struct StageOut {
    src: SramBuf,
    dst: FramBuf,
}

impl LoopBody for StageOut {
    fn step<M: Meter>(&mut self, m: &mut M, t: u32) -> Result<(), PowerFailure> {
        let v = m.sram_read(self.src, t)?;
        m.write(self.dst, t, v)?;
        m.op(Op::Incr)?;
        m.op(Op::Branch)
    }
}

/// One word of the software left-shift pass (read, shift ALU, write).
/// Values are pre-scaled at quantization, so the shift writes them back
/// unchanged.
#[derive(Clone)]
struct Shift(SramBuf);

impl LoopBody for Shift {
    fn step<M: Meter>(&mut self, m: &mut M, t: u32) -> Result<(), PowerFailure> {
        let v = m.sram_read(self.0, t)?;
        m.op(Op::Alu)?;
        m.sram_write(self.0, t, v)
    }
}

/// One output of the software FIR (`use_lea = false`): the tap-window
/// MACs plus the result write.
#[derive(Clone)]
struct FirOut<'a> {
    src: SramBuf,
    taps: &'a [Q15],
    out: SramBuf,
}

impl LoopBody for FirOut<'_> {
    fn step<M: Meter>(&mut self, m: &mut M, i: u32) -> Result<(), PowerFailure> {
        let mut acc = Accum::ZERO;
        for (j, tq) in self.taps.iter().enumerate() {
            let s = m.sram_read(self.src, i + j as u32)?;
            m.op(Op::FxpMul)?;
            m.op(Op::FxpAdd)?;
            acc.mac(s, *tq);
        }
        m.sram_write(self.out, i, acc.to_q15())
    }
}

/// One word of the software vector dot.
#[derive(Clone)]
struct DotStep {
    a: SramBuf,
    b: SramBuf,
    acc: Accum,
}

impl LoopBody for DotStep {
    fn step<M: Meter>(&mut self, m: &mut M, t: u32) -> Result<(), PowerFailure> {
        let x = m.sram_read(self.a, t)?;
        let y = m.sram_read(self.b, t)?;
        m.op(Op::FxpMul)?;
        m.op(Op::FxpAdd)?;
        self.acc.mac(x, y);
        Ok(())
    }
}

/// One word of the software element-wise add (`dst += src`).
#[derive(Clone)]
struct VecAdd {
    dst: SramBuf,
    src: SramBuf,
}

impl LoopBody for VecAdd {
    fn step<M: Meter>(&mut self, m: &mut M, t: u32) -> Result<(), PowerFailure> {
        let a = m.sram_read(self.dst, t)?;
        let b = m.sram_read(self.src, t)?;
        m.op(Op::FxpAdd)?;
        m.sram_write(self.dst, t, a + b)
    }
}

// ----- whole-row bundles ---------------------------------------------
//
// The TAILS convolution's inner loop body is one output *row* (DMA in,
// software shift, FIR, optional partial-row accumulate, DMA out, loop
// continuation). Its op sequence is fixed by layer geometry and the
// LEA/DMA config, so whole rows charge as one bundle; the first unfunded
// row replays through the scalar primitives above, landing the brown-out
// on the exact op. DMA and LEA spans are pushed here; software words
// repeat their primitive's tally.

/// The software primitives' one-word bundles, tallied from their bodies
/// (kernel phase, the shift in the control phase).
struct WordBundles {
    stage_in: OpBundle,
    stage_out: OpBundle,
    shift: OpBundle,
    fir_out: OpBundle,
    vec_add: OpBundle,
}

impl WordBundles {
    fn new(m: &DeployedModel, sram: SramBufs, kw: u32) -> Self {
        let (f, s, k) = (m.plane_a, sram.src, Phase::Kernel);
        let taps = vec![Q15::ZERO; kw as usize];
        WordBundles {
            stage_in: OpBundle::tally(&StageIn { src: f, dst: s }, k),
            stage_out: OpBundle::tally(&StageOut { src: s, dst: f }, k),
            shift: OpBundle::tally(&Shift(s), Phase::Control),
            fir_out: OpBundle::tally(
                &FirOut {
                    src: s,
                    taps: &taps,
                    out: s,
                },
                k,
            ),
            vec_add: OpBundle::tally(&VecAdd { dst: s, src: s }, k),
        }
    }

    /// Ops of [`stage_in`] / [`stage_out`] (`word`) for an `n`-word span.
    fn push_stage(b: &mut OpBundle, cfg: TailsConfig, word: &OpBundle, n: u32) {
        if cfg.use_dma {
            b.push(Op::DmaSetup, Phase::Kernel);
            b.push_n(Op::DmaWord, Phase::Kernel, n as u64);
        } else {
            b.append_n(word, n);
        }
    }

    /// One full convolution output row.
    fn conv_row(
        &self,
        cfg: TailsConfig,
        w_in: u32,
        ow: u32,
        kw: u32,
        with_inter: bool,
    ) -> OpBundle {
        let k = Phase::Kernel;
        let mut b = OpBundle::new();
        Self::push_stage(&mut b, cfg, &self.stage_in, w_in);
        b.append_n(&self.shift, w_in);
        // FIR over w_in inputs with kw taps.
        let n_out = w_in - kw + 1;
        if cfg.use_lea {
            b.push(Op::LeaSetup, k);
            b.push_n(Op::LeaMac, k, n_out as u64 * kw as u64);
        } else {
            b.push_n(Op::SramRead, k, kw as u64); // taps pre-read
            b.append_n(&self.fir_out, n_out);
        }
        if with_inter {
            Self::push_stage(&mut b, cfg, &self.stage_in, ow);
            if cfg.use_lea {
                b.push_n(Op::LeaMac, k, ow as u64);
                b.push_n(Op::SramWrite, k, ow as u64);
            } else {
                b.append_n(&self.vec_add, ow);
            }
        }
        Self::push_stage(&mut b, cfg, &self.stage_out, ow);
        push_row_trailer(&mut b);
        b
    }

    /// One pass-through row of a fully pruned (all-zero) tap group.
    fn zero_row(&self, cfg: TailsConfig, ow: u32, with_inter: bool) -> OpBundle {
        let mut b = OpBundle::new();
        if with_inter {
            Self::push_stage(&mut b, cfg, &self.stage_in, ow);
        } else {
            b.push_n(Op::SramWrite, Phase::Kernel, ow as u64);
        }
        Self::push_stage(&mut b, cfg, &self.stage_out, ow);
        push_row_trailer(&mut b);
        b
    }
}

/// The per-row loop-continuation trailer (control-phase index write,
/// increment, branch).
fn push_row_trailer(b: &mut OpBundle) {
    b.push(Op::FramWrite, Phase::Control);
    b.push(Op::Incr, Phase::Kernel);
    b.push(Op::Branch, Phase::Kernel);
}

/// The software left-shift pass LEA cannot do (charged to the control
/// phase: "these shifts account for most of the control time", §9.2).
/// `iter` is the [`Shift`] word's bundle.
fn software_shift(
    dev: &mut Device,
    buf: SramBuf,
    n: u32,
    region: mcu::RegionId,
    iter: &OpBundle,
) -> Result<(), PowerFailure> {
    dev.set_context(region, Phase::Control);
    run_loop(dev, iter, &mut Shift(buf), 0, n)
}

/// FIR over SRAM: LEA or the software emulation.
fn fir(
    dev: &mut Device,
    cfg: TailsConfig,
    src: SramBuf,
    taps: SramBuf,
    out: SramBuf,
) -> Result<(), PowerFailure> {
    if cfg.use_lea {
        dev.lea_fir(src, taps, out)
    } else {
        let n = src.len() - taps.len() + 1;
        let mut t = vec![Q15::ZERO; taps.len() as usize];
        dev.sram_read_block(taps, 0, &mut t)?;
        word_loop(dev, FirOut { src, taps: &t, out }, n).map(drop)
    }
}

/// Vector dot over SRAM: LEA or the software emulation.
fn dot(dev: &mut Device, cfg: TailsConfig, a: SramBuf, b: SramBuf) -> Result<Accum, PowerFailure> {
    if cfg.use_lea {
        dev.lea_dot(a, b)
    } else {
        let body = DotStep {
            a,
            b,
            acc: Accum::ZERO,
        };
        word_loop(dev, body, a.len()).map(|d| d.acc)
    }
}

/// Element-wise SRAM add (partial-plane accumulation), charged as LEA MACs
/// when the accelerator is on.
fn vec_add(
    dev: &mut Device,
    cfg: TailsConfig,
    dst: SramBuf,
    src: SramBuf,
    n: u32,
) -> Result<(), PowerFailure> {
    if cfg.use_lea {
        // Chained onto the preceding FIR command: no fresh setup.
        dev.consume_n(Op::LeaMac, n as u64)?;
        // Both operands are staged in SRAM; LEA reads them internally
        // (charged above), so the arithmetic uses the host view. The
        // result writes charge as one span, exactly like the historical
        // per-word loop.
        let vals: Vec<Q15> = (0..n)
            .map(|i| dev.prepaid_sram_read(dst, i) + dev.prepaid_sram_read(src, i))
            .collect();
        dev.sram_write_block(dst, 0, &vals)
    } else {
        word_loop(dev, VecAdd { dst, src }, n).map(drop)
    }
}

/// The one-time calibration task (§7.1).
fn calibrate_task(
    dev: &mut Device,
    m: &DeployedModel,
    sram: SramBufs,
    cfg: TailsConfig,
    next: Transition,
) -> Result<Transition, PowerFailure> {
    dev.set_context(m.other_region, Phase::Control);
    let done = sonic::load_guarded(dev, m.calib, m.other_region)?;
    dev.consume(Op::Branch)?;
    if done != 0 {
        return Ok(next);
    }
    // Halve the candidate on every re-entry (a re-entry with calib still
    // unset means the previous attempt browned out).
    let prev = sonic::load_guarded(dev, m.calib_cand, m.other_region)?;
    let cand = if prev == 0 {
        CALIB_INITIAL
    } else {
        (prev / 2).max(CALIB_MIN)
    };
    dev.store_word(m.calib_cand, cand)?;

    // Probe: one full DMA-in → FIR → DMA-out round trip at `cand` words.
    let n = cand as u32;
    let probe_src = m.plane_a.slice(0, n.min(m.plane_a.len()));
    let probe_n = probe_src.len();
    stage_in(dev, cfg, probe_src, sram.src.slice(0, probe_n))?;
    for i in 0..8u32 {
        dev.sram_write(sram.taps, i, Q15::HALF)?;
    }
    fir(
        dev,
        cfg,
        sram.src.slice(0, probe_n),
        sram.taps.slice(0, 8.min(probe_n)),
        sram.out.slice(0, probe_n - 8.min(probe_n) + 1),
    )?;
    stage_out(
        dev,
        cfg,
        sram.out.slice(0, probe_n - 8.min(probe_n) + 1),
        m.plane_b.slice(0, probe_n - 8.min(probe_n) + 1),
    )?;

    dev.store_word(m.calib, cand)?;
    Ok(next)
}

/// TAILS convolution: per (filter, channel, kernel-row) FIR groups with
/// loop continuation over output rows.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn conv_task(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    sram: SramBufs,
    cfg: TailsConfig,
    bundles: &TailsConvBundles,
    self_id: usize,
    next: Transition,
) -> Result<Transition, PowerFailure> {
    let DeployedKind::Conv {
        dims,
        weights,
        bias,
        ..
    } = &l.kind
    else {
        unreachable!("conv_task on non-conv")
    };
    let [nf, nc, kh, kw] = *dims;
    let [_, h, w_in] = l.in_shape;
    let [_, oh, ow] = l.out_shape;
    let plane = oh * ow;
    let src = m.buf(l.src);
    let groups = nc * kh; // one FIR tap-row per (channel, kernel-row)

    dev.set_context(l.region, Phase::Control);
    let f = sonic::load_guarded(dev, l.filt, l.region)? as u32;
    dev.consume(Op::Branch)?;
    if f >= nf {
        dev.store_word(l.filt, 0)?;
        return Ok(next);
    }
    let g = sonic::load_guarded(dev, l.pos, l.region)? as u32;
    dev.consume(Op::Branch)?;

    if g >= groups {
        // Finishing pass for filter f (software, like SONIC).
        let b = dev.read(*bias, f)?;
        let from_plane = if (groups - 1) % 2 == 0 {
            m.plane_a
        } else {
            m.plane_b
        };
        let j = sonic::load_guarded(dev, l.idx, l.region)? as u32;
        let body = sonic::Finish::new(m, l, Some(from_plane), Bias::Const(b), f * plane);
        sonic::finish_pass(dev, l, &bundles.finish, body, plane, j)?;
        dev.set_context(l.region, Phase::Control);
        dev.store_word(l.idx, 0)?;
        dev.store_word(l.pos, 0)?;
        dev.store_word(l.filt, (f + 1) as u16)?;
        return Ok(Transition::To(self_id));
    }

    // Group g = (channel c, kernel row ky): stage the padded-dense tap
    // row (zero-padding sparse filters costs dense reads, §7.2).
    let c = g / kh;
    let ky = g % kh;
    let (dest, inter) = if g.is_multiple_of(2) {
        (m.plane_a, m.plane_b)
    } else {
        (m.plane_b, m.plane_a)
    };
    stage_in(
        dev,
        cfg,
        weights.slice(((f * nc + c) * kh + ky) * kw, kw),
        sram.taps.slice(0, kw),
    )?;
    // Zero-padded sparse rows: when every tap in this row is zero (the
    // common case in pruned filters), the FIR would contribute nothing.
    // Pass the partials through with a plain copy instead — parity still
    // advances, so loop-ordered buffering stays intact.
    let all_zero = dev
        .sram_peek(sram.taps.slice(0, kw))
        .iter()
        .all(|q| q.is_zero());
    dev.consume(Op::Branch)?;
    if all_zero {
        let mut oy = sonic::load_guarded(dev, l.idx, l.region)? as u32;
        dev.set_context(l.region, Phase::Kernel);
        let row_iter = &bundles.zero_row[usize::from(g > 0)];
        while oy < oh {
            let want = oh - oy;
            let funded = dev.consume_bundle(row_iter, want as u64)? as u32;
            for r in oy..oy + funded {
                if g > 0 {
                    for t in 0..ow {
                        let v = dev.prepaid_read(inter, r * ow + t);
                        dev.prepaid_sram_write(sram.out, t, v);
                    }
                } else {
                    for t in 0..ow {
                        dev.prepaid_sram_write(sram.out, t, Q15::ZERO);
                    }
                }
                for t in 0..ow {
                    let v = dev.prepaid_sram_read(sram.out, t);
                    dev.prepaid_write(dest, r * ow + t, v);
                }
            }
            oy += funded;
            if funded > 0 {
                dev.prepaid_store_word(l.idx, oy as u16);
                dev.mark_progress_n(funded as u64);
            }
            if oy < oh {
                // Scalar replay of the unfunded row.
                if g > 0 {
                    stage_in(dev, cfg, inter.slice(oy * ow, ow), sram.out.slice(0, ow))?;
                } else {
                    let zeros = vec![Q15::ZERO; ow as usize];
                    dev.sram_write_block(sram.out, 0, &zeros)?;
                }
                stage_out(dev, cfg, sram.out.slice(0, ow), dest.slice(oy * ow, ow))?;
                oy += 1;
                dev.set_context(l.region, Phase::Control);
                dev.store_word(l.idx, oy as u16)?;
                dev.set_context(l.region, Phase::Kernel);
                dev.consume(Op::Incr)?;
                dev.consume(Op::Branch)?;
                dev.mark_progress();
            }
        }
        dev.set_context(l.region, Phase::Control);
        dev.store_word(l.idx, 0)?;
        dev.store_word(l.pos, (g + 1) as u16)?;
        return Ok(Transition::To(self_id));
    }
    // LEA cannot left-shift: pre-shift taps in software.
    software_shift(dev, sram.taps.slice(0, kw), kw, l.region, &bundles.shift)?;

    let mut oy = sonic::load_guarded(dev, l.idx, l.region)? as u32;
    dev.set_context(l.region, Phase::Kernel);
    let row_iter = &bundles.row[usize::from(g > 0)];
    while oy < oh {
        let want = oh - oy;
        let funded = dev.consume_bundle(row_iter, want as u64)? as u32;
        for r in oy..oy + funded {
            // Host-side row effects for the funded rows: stage the input
            // row, FIR against the (pre-shifted) taps, accumulate the
            // previous partial row, write the new partial row. The
            // software shift writes values back unchanged, so staging
            // alone reproduces the SRAM state.
            let src_base = (c * h + r + ky) * w_in;
            for t in 0..w_in {
                let v = dev.prepaid_read(src, src_base + t);
                dev.prepaid_sram_write(sram.src, t, v);
            }
            for o in 0..ow {
                let mut a = Accum::ZERO;
                for j in 0..kw {
                    a.mac(
                        dev.prepaid_sram_read(sram.src, o + j),
                        dev.prepaid_sram_read(sram.taps, j),
                    );
                }
                dev.prepaid_sram_write(sram.out, o, a.to_q15());
            }
            if g > 0 {
                for t in 0..ow {
                    let v = dev.prepaid_read(inter, r * ow + t);
                    dev.prepaid_sram_write(sram.inter, t, v);
                }
                for t in 0..ow {
                    let v =
                        dev.prepaid_sram_read(sram.out, t) + dev.prepaid_sram_read(sram.inter, t);
                    dev.prepaid_sram_write(sram.out, t, v);
                }
            }
            for t in 0..ow {
                let v = dev.prepaid_sram_read(sram.out, t);
                dev.prepaid_write(dest, r * ow + t, v);
            }
        }
        oy += funded;
        if funded > 0 {
            dev.prepaid_store_word(l.idx, oy as u16);
            dev.mark_progress_n(funded as u64);
        }
        if oy < oh {
            // Scalar replay of the unfunded row: the brown-out lands on
            // exactly the same op as the all-scalar path.
            let src_row = src.slice((c * h + oy + ky) * w_in, w_in);
            stage_in(dev, cfg, src_row, sram.src.slice(0, w_in))?;
            software_shift(dev, sram.src.slice(0, w_in), w_in, l.region, &bundles.shift)?;
            dev.set_context(l.region, Phase::Kernel);
            fir(
                dev,
                cfg,
                sram.src.slice(0, w_in),
                sram.taps.slice(0, kw),
                sram.out.slice(0, ow),
            )?;
            if g > 0 {
                stage_in(dev, cfg, inter.slice(oy * ow, ow), sram.inter.slice(0, ow))?;
                vec_add(dev, cfg, sram.out.slice(0, ow), sram.inter.slice(0, ow), ow)?;
            }
            // Write the new partial row to the inactive plane (idempotent).
            stage_out(dev, cfg, sram.out.slice(0, ow), dest.slice(oy * ow, ow))?;
            oy += 1;
            dev.set_context(l.region, Phase::Control);
            dev.store_word(l.idx, oy as u16)?;
            dev.set_context(l.region, Phase::Kernel);
            dev.consume(Op::Incr)?;
            dev.consume(Op::Branch)?;
            dev.mark_progress();
        }
    }
    dev.set_context(l.region, Phase::Control);
    dev.store_word(l.idx, 0)?;
    dev.store_word(l.pos, (g + 1) as u16)?;
    Ok(Transition::To(self_id))
}

/// TAILS dense fully-connected layer: LEA vector MAC over
/// calibration-sized chunks, loop-ordered across chunks.
#[allow(clippy::too_many_arguments)]
fn dense_task(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    sram: SramBufs,
    cfg: TailsConfig,
    bundles: &TailsDenseBundles,
    self_id: usize,
    next: Transition,
) -> Result<Transition, PowerFailure> {
    let DeployedKind::Dense {
        dims,
        weights,
        bias,
        ..
    } = &l.kind
    else {
        unreachable!("dense_task on non-dense")
    };
    let [out_n, in_n] = *dims;
    let src = m.buf(l.src);

    dev.set_context(l.region, Phase::Control);
    // Calibration-word range check, promoted from the spec harness's
    // post-hoc invariant to a runtime guard: by the time a dense task
    // runs, calibration has completed, so the word must be in
    // [CALIB_MIN, CALIB_INITIAL]. An out-of-range value would silently
    // change the chunking — and thus the layer's fixed-point rounding —
    // so it is treated as corruption, not clamped: restore the guard's
    // intended value when it has a valid one, else abort the run as
    // unrecoverable.
    let raw = sonic::load_guarded(dev, m.calib, l.region)?;
    let calib_ok = |v: u16| (CALIB_MIN..=CALIB_INITIAL).contains(&v);
    let tile = if calib_ok(raw) {
        raw as u32
    } else {
        let intended = dev
            .guarded_intended(m.calib.addr())
            .filter(|&v| calib_ok(v));
        match intended {
            Some(v) if dev.note_corruption(l.region) => {
                dev.store_word(m.calib, v)?;
                v as u32
            }
            _ => {
                // No trustworthy value to restore: spend the remaining
                // retry budget so the abort is classified as corruption
                // rather than non-termination, and fail the task.
                while dev.note_corruption(l.region) {}
                return Err(PowerFailure);
            }
        }
    };
    let nchunks = in_n.div_ceil(tile);
    let ci = sonic::load_guarded(dev, l.pos, l.region)? as u32;
    dev.consume(Op::Branch)?;

    if ci >= nchunks {
        // Finishing pass.
        let from = if (nchunks - 1) % 2 == 0 {
            m.plane_a
        } else {
            m.plane_b
        };
        let o = sonic::load_guarded(dev, l.idx, l.region)? as u32;
        let body = sonic::Finish::new(m, l, Some(from), Bias::PerElement(*bias), 0);
        sonic::finish_pass(dev, l, &bundles.finish, body, out_n, o)?;
        dev.set_context(l.region, Phase::Control);
        dev.store_word(l.idx, 0)?;
        dev.store_word(l.pos, 0)?;
        return Ok(next);
    }

    // Chunk ci of the inputs, applied to every output's partial.
    let base = ci * tile;
    let n = tile.min(in_n - base);
    stage_in(dev, cfg, src.slice(base, n), sram.src.slice(0, n))?;
    software_shift(dev, sram.src.slice(0, n), n, l.region, &bundles.shift)?;
    let (dest, inter) = if ci.is_multiple_of(2) {
        (m.plane_a, m.plane_b)
    } else {
        (m.plane_b, m.plane_a)
    };
    let mut o = sonic::load_guarded(dev, l.idx, l.region)? as u32;
    dev.set_context(l.region, Phase::Kernel);
    while o < out_n {
        // The weight-row chunk stages into the (tile-sized) inter buffer.
        stage_in(
            dev,
            cfg,
            weights.slice(o * in_n + base, n),
            sram.inter.slice(0, n),
        )?;
        let acc = dot(dev, cfg, sram.src.slice(0, n), sram.inter.slice(0, n))?;
        let prod = acc.to_q15();
        let v = if ci == 0 {
            prod
        } else {
            dev.consume(Op::FxpAdd)?;
            dev.read(inter, o)? + prod
        };
        dev.write(dest, o, v)?;
        o += 1;
        dev.set_context(l.region, Phase::Control);
        dev.store_word(l.idx, o as u16)?;
        dev.set_context(l.region, Phase::Kernel);
        dev.consume(Op::Incr)?;
        dev.consume(Op::Branch)?;
        dev.mark_progress();
    }
    dev.set_context(l.region, Phase::Control);
    dev.store_word(l.idx, 0)?;
    dev.store_word(l.pos, (ci + 1) as u16)?;
    Ok(Transition::To(self_id))
}

/// Precomputed conv-task bundles (graph-build time, geometry-specific,
/// reused by every task entry).
#[derive(Clone)]
struct TailsConvBundles {
    shift: OpBundle,
    finish: OpBundle,
    /// Full output rows: first tap group (no partial accumulate), later
    /// groups.
    row: [OpBundle; 2],
    /// All-zero tap group pass-through rows, likewise.
    zero_row: [OpBundle; 2],
}

impl TailsConvBundles {
    fn new(m: &DeployedModel, l: &DeployedLayer, sram: SramBufs, cfg: TailsConfig) -> Self {
        let DeployedKind::Conv { dims, .. } = l.kind else {
            unreachable!("conv bundles on non-conv")
        };
        let (w_in, ow, kw) = (l.in_shape[2], l.out_shape[2], dims[3]);
        let words = WordBundles::new(m, sram, kw);
        TailsConvBundles {
            finish: sonic::Finish::new(m, l, Some(m.plane_a), Bias::Const(Q15::ZERO), 0).bundle(),
            row: [false, true].map(|inter| words.conv_row(cfg, w_in, ow, kw, inter)),
            zero_row: [false, true].map(|inter| words.zero_row(cfg, ow, inter)),
            shift: words.shift,
        }
    }
}

/// Precomputed dense-task bundles.
#[derive(Clone)]
struct TailsDenseBundles {
    shift: OpBundle,
    finish: OpBundle,
}

impl TailsDenseBundles {
    fn new(m: &DeployedModel, l: &DeployedLayer, sram: SramBufs) -> Self {
        let DeployedKind::Dense { bias, .. } = l.kind else {
            unreachable!("dense bundles on non-dense")
        };
        TailsDenseBundles {
            shift: OpBundle::tally(&Shift(sram.src), Phase::Control),
            finish: sonic::Finish::new(m, l, Some(m.plane_a), Bias::PerElement(bias), 0).bundle(),
        }
    }
}

/// Builds the TAILS task graph: calibration first, then one task per
/// layer; sparse FC, pooling, and ReLU reuse SONIC's software tasks.
pub fn build(m: &DeployedModel, cfg: TailsConfig, dev: &mut Device) -> TaskGraph<()> {
    let sram = alloc_sram(dev);
    let mut g: TaskGraph<()> = TaskGraph::new();
    let n = m.layers.len();
    // Task 0: calibration.
    {
        let m = m.clone();
        let next = if n > 0 {
            Transition::To(1)
        } else {
            Transition::Done
        };
        g.add("tails-calibrate", move |dev, _| {
            calibrate_task(dev, &m, sram, cfg, next)
        });
    }
    for (li, l) in m.layers.iter().enumerate() {
        let self_id = li + 1;
        let next = if li + 1 < n {
            Transition::To(self_id + 1)
        } else {
            Transition::Done
        };
        let name = format!("tails-layer{li}");
        match &l.kind {
            DeployedKind::Conv { .. } => {
                let bundles = TailsConvBundles::new(m, l, sram, cfg);
                let m = m.clone();
                g.add(&name, move |dev, _| {
                    conv_task(dev, &m, &m.layers[li], sram, cfg, &bundles, self_id, next)
                });
            }
            DeployedKind::Dense { sparse, .. } if sparse.is_some() => {
                // §7.2: sparse FC stays in software, exactly like SONIC.
                let bundles = sonic::SparseBundles::new(m, l);
                let m = m.clone();
                g.add(&name, move |dev, _| {
                    sonic::sparse_dense_task(dev, &m, &m.layers[li], &bundles, self_id, next)
                });
            }
            DeployedKind::Dense { .. } => {
                let bundles = TailsDenseBundles::new(m, l, sram);
                let m = m.clone();
                g.add(&name, move |dev, _| {
                    dense_task(dev, &m, &m.layers[li], sram, cfg, &bundles, self_id, next)
                });
            }
            DeployedKind::Pool { .. } => {
                let iter = layer_bundle(m, l, sonic::Continued::at(l.idx));
                let m = m.clone();
                g.add(&name, move |dev, _| {
                    sonic::pool_task(dev, &m, &m.layers[li], &iter, next)
                });
            }
            DeployedKind::Relu => {
                let iter = layer_bundle(m, l, sonic::Continued::at(l.idx));
                let m = m.clone();
                g.add(&name, move |dev, _| {
                    sonic::relu_task(dev, &m, &m.layers[li], &iter, next)
                });
            }
            DeployedKind::Flatten => {
                g.add(&name, move |_, _| Ok(next));
            }
        }
    }
    g
}
