//! The stateful progress-embedding backend (fifth backend).
//!
//! Reproduces the Stateful-NN idea from DynBal ("Stateful Neural Networks
//! for Intermittent Systems"; see also "Accelerate Intermittent Deep
//! Inference"): inference progress is embedded *in the NVM output buffers
//! themselves* instead of SONIC's loop-index control words or Alpaca's
//! redo log. Every activation word a layer writes carries an in-band
//! progress tag; on reboot a progress seeker probes the activation
//! buffers and binary-searches the deepest tagged prefix to find the
//! resume point. There are no continuity control words and no undo log —
//! the written data *is* the checkpoint.
//!
//! # Word layout
//!
//! Activations are stored as 16-bit words packing value, parity, and tag:
//!
//! ```text
//! bit 15..5   value  — top 11 bits of the Q15 activation
//! bit 4       parity — makes the total popcount of the word odd
//! bit 3..0    tag    — which write pass produced this word (0..=6)
//! ```
//!
//! A word is *valid* iff its popcount is odd. Erased words are flashed to
//! the clear pattern [`CLEAR_WORD`] (`0x000F`: tag 15, even popcount —
//! invalid). Write passes are assigned tags `0..=6` per buffer (at most
//! [`MAX_PASSES_PER_BUF`] passes per activation buffer, checked by
//! [`preflight`]), which yields the single-flip safety theorem the
//! corruption sweep pins:
//!
//! - flipping any bit of a *valid* word makes it invalid (parity), and
//! - every valid single-flip neighbour of the clear pattern carries a tag
//!   ≥ 7 — outside the assigned range — so a flip can never forge
//!   progress the seeker would trust.
//!
//! Hence any single bit flip in an activation word is either detected by
//! the per-read tag/parity verify (bounded retries exhausted →
//! `RunError::Corrupted`, the *Aborted* verdict), repaired by the final
//! audit recompute (*Recovered*), or never observed (*Masked*) — never
//! silently wrong. The documented limitation is multi-bit faults: a
//! double flip confined to value bits preserves parity and is accepted;
//! the corruption bench's teeth control demonstrates exactly that.
//!
//! # Recovery
//!
//! On every (re-)entry the task runs the progress seeker: probe word 0 of
//! each write pass's region, deepest pass first; the first pass whose
//! word 0 carries its tag is the resume pass, and a binary search over
//! that pass's region finds the frontier (writes are in-order, so tagged
//! words form a prefix — the monotonicity [`crate::spec::StatefulAbs`]
//! checks at every crash boundary). Execution resumes at the frontier;
//! each element write atomically advances it. A final audit rescans the
//! last pass and recomputes from the first invalid word, so a flip
//! landing *after* an element was written is still caught before the
//! output is consumed.
//!
//! # Conventions
//!
//! [`prepare_run`] is host-side (free, like `DeployedModel::load_input`):
//! it flashes the clear pattern over both activation buffers and re-flashes
//! the staged input in embedded form. Outputs are read back through
//! [`cleared_output`], which strips tags/parity; the backend's arithmetic
//! is self-consistently 11-bit (inputs and activations alike are read
//! through the mask), so its fault-free reference — like every backend's —
//! is its own continuous-power run.

use crate::baseline::{charge_finish, layer_bundle, Act, Mac, PoolBody, ReluBody};
use crate::deploy::{DeployedKind, DeployedLayer, DeployedModel, IoBuf};
use dnn::quant::finish_acc;
use fxp::Q15;
use intermittent::task::{TaskGraph, Transition};
use mcu::{
    run_loop, AllocError, Device, FramBuf, LoopBody, Meter, Op, OpBundle, Phase, PowerFailure,
    RegionId,
};

/// Bits of an embedded word holding the (truncated) activation value.
pub const VALUE_MASK: u16 = 0xFFE0;
/// The parity bit: set so the total popcount of the word is odd.
pub const PARITY_BIT: u16 = 0x0010;
/// Bits holding the write-pass tag.
pub const TAG_MASK: u16 = 0x000F;
/// The erased-cell pattern flashed by [`prepare_run`]: tag field 15,
/// popcount even — invalid, and every valid single-flip neighbour of it
/// carries a tag ≥ 7 (outside the assigned `0..=6` range).
pub const CLEAR_WORD: u16 = 0x000F;
/// Maximum write passes per activation buffer: tags `0..=6`. Tags 7..=15
/// are reserved as the clear pattern's flip-neighbourhood (see module
/// docs); [`preflight`] rejects models that would need more.
pub const MAX_PASSES_PER_BUF: u32 = 7;

/// Packs a Q15 value and a pass tag into a valid embedded word.
#[inline]
pub fn embed(v: Q15, tag: u16) -> Q15 {
    let w = (v.raw() as u16 & VALUE_MASK) | (tag & TAG_MASK);
    let parity = (w.count_ones() as u16 ^ 1) & 1;
    Q15::from_raw((w | (parity * PARITY_BIT)) as i16)
}

/// Strips tag and parity, recovering the (truncated) activation value.
#[inline]
pub fn value_of(w: Q15) -> Q15 {
    Q15::from_raw((w.raw() as u16 & VALUE_MASK) as i16)
}

/// The pass tag carried by an embedded word.
#[inline]
pub fn tag_of(w: Q15) -> u16 {
    w.raw() as u16 & TAG_MASK
}

/// Whether the word's popcount parity marks it as a completed write.
#[inline]
pub fn is_valid(w: Q15) -> bool {
    (w.raw() as u16).count_ones() & 1 == 1
}

/// Valid *and* carrying exactly this pass tag.
#[inline]
pub fn valid_with(w: Q15, tag: u16) -> bool {
    is_valid(w) && tag_of(w) == tag
}

/// One write pass over an activation buffer.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Index into `DeployedModel::layers`; `None` for the virtual input
    /// pass (pass 0, embedded by the host in [`prepare_run`]).
    pub layer: Option<usize>,
    /// Which activation buffer this pass writes.
    pub buf: IoBuf,
    /// Number of words the pass writes (its region is `[0, len)`).
    pub len: u32,
    /// Per-buffer tag this pass stamps into every word it writes.
    pub tag: u16,
    /// Tag the pass expects on the activations it *reads*. In-place
    /// passes (ReLU) additionally accept their own `tag` on re-reads.
    pub in_tag: u16,
}

/// The static write-pass plan for a deployed model: the state assigner.
#[derive(Clone, Debug)]
pub struct StatefulPlan {
    /// Passes in execution order. Pass 0 is the embedded input.
    pub passes: Vec<Pass>,
    /// Write passes assigned per buffer (`[A, B]`), including the input
    /// pass — must each stay ≤ [`MAX_PASSES_PER_BUF`].
    pub tags_used: [u32; 2],
}

fn elems(shape: [u32; 3]) -> u32 {
    shape[0] * shape[1] * shape[2]
}

/// Assigns a tag to every write pass of the model. Flatten writes
/// nothing; ReLU is an in-place pass over its source buffer.
pub fn plan(m: &DeployedModel) -> StatefulPlan {
    let mut passes = Vec::new();
    // Per-buffer next tag and last-written tag. The input arrives in
    // buffer A as pass 0.
    let mut next = [0u32; 2];
    let mut last = [0u16; 2];
    let bi = |b: IoBuf| match b {
        IoBuf::A => 0usize,
        IoBuf::B => 1usize,
    };
    let ib = bi(m.input);
    passes.push(Pass {
        layer: None,
        buf: m.input,
        len: m.input_len,
        tag: 0,
        in_tag: 0,
    });
    next[ib] = 1;
    for (i, l) in m.layers.iter().enumerate() {
        let (buf, len) = match l.kind {
            DeployedKind::Flatten => continue,
            DeployedKind::Relu => (l.src, elems(l.in_shape)),
            _ => (l.dst, elems(l.out_shape)),
        };
        let in_tag = last[bi(l.src)];
        let tag = next[bi(buf)] as u16;
        next[bi(buf)] += 1;
        last[bi(buf)] = tag;
        passes.push(Pass {
            layer: Some(i),
            buf,
            len,
            tag,
            in_tag,
        });
    }
    StatefulPlan {
        passes,
        tags_used: next,
    }
}

/// Checks the model fits the tag space: at most [`MAX_PASSES_PER_BUF`]
/// write passes per activation buffer.
pub fn preflight(m: &DeployedModel) -> Result<(), AllocError> {
    let p = plan(m);
    for used in p.tags_used {
        if used > MAX_PASSES_PER_BUF {
            return Err(AllocError {
                requested: used,
                available: MAX_PASSES_PER_BUF,
                fram: true,
            });
        }
    }
    Ok(())
}

/// Host-side run preparation (free, like `DeployedModel::load_input`):
/// the state clearer. Flashes [`CLEAR_WORD`] over both activation
/// buffers, then re-flashes the staged input in embedded form (tag 0).
pub fn prepare_run(dev: &mut Device, m: &DeployedModel) {
    let input = dev.peek(m.buf(m.input).slice(0, m.input_len));
    let clear = Q15::from_raw(CLEAR_WORD as i16);
    dev.flash(m.act_a, &vec![clear; m.act_a.len() as usize]);
    dev.flash(m.act_b, &vec![clear; m.act_b.len() as usize]);
    let embedded: Vec<Q15> = input.iter().map(|&v| embed(v, 0)).collect();
    dev.flash(m.buf(m.input).slice(0, m.input_len), &embedded);
}

/// Reads the final output, stripping tags and parity.
pub fn cleared_output(dev: &Device, m: &DeployedModel) -> Vec<Q15> {
    m.read_output(dev).into_iter().map(value_of).collect()
}

/// Stateful's activations: every read is verified against the accepted
/// pass tags (a failed verify is unrecoverable data loss: the retry
/// budget is spent so the scheduler surfaces `RunError::Corrupted`
/// instead of rebooting into the same corrupted state forever), every
/// write embeds the pass tag, and every element marks progress.
#[derive(Clone, Copy)]
struct Tagged {
    /// Accepted input tags (in-place passes accept their own tag too).
    tags: [u16; 2],
    out: u16,
    region: RegionId,
}

impl Tagged {
    /// Pass `pass` of a layer in `region`. In-place (ReLU) passes accept
    /// their own tag on re-reads too: elements before the resume point
    /// already carry it, and relu is idempotent on its output.
    fn of(pass: &Pass, region: RegionId, in_place: bool) -> Self {
        Tagged {
            tags: [pass.in_tag, if in_place { pass.tag } else { pass.in_tag }],
            out: pass.tag,
            region,
        }
    }
}

impl Act for Tagged {
    #[inline(always)]
    fn read<M: Meter>(self, m: &mut M, buf: FramBuf, i: u32) -> Result<Q15, PowerFailure> {
        let w = m.read(buf, i)?;
        m.op(Op::Alu)?; // tag/parity verify
        if !(is_valid(w) && self.tags.contains(&tag_of(w))) {
            m.abort_corrupted(self.region)?;
        }
        Ok(value_of(w))
    }
    #[inline(always)]
    fn write<M: Meter>(self, m: &mut M, buf: FramBuf, i: u32, v: Q15) -> Result<(), PowerFailure> {
        m.op(Op::Alu)?; // embed pack
        m.write(buf, i, embed(v, self.out))
    }
    #[inline(always)]
    fn end<M: Meter>(self, m: &mut M, _: u32) -> Result<(), PowerFailure> {
        m.op(Op::Incr)?;
        m.op(Op::Branch)?;
        m.progress();
        Ok(())
    }
}

/// One seek/audit probe: address ALU, read, tag check, branch. A scan
/// stops at the first word not carrying `tag`.
#[derive(Clone)]
struct Probe {
    buf: FramBuf,
    tag: u16,
    bad: Option<u32>,
}

impl Probe {
    fn new(buf: FramBuf, tag: u16) -> Self {
        Probe {
            buf,
            tag,
            bad: None,
        }
    }
}

impl LoopBody for Probe {
    fn step<M: Meter>(&mut self, m: &mut M, t: u32) -> Result<(), PowerFailure> {
        m.op(Op::Alu)?;
        let w = m.read(self.buf, t)?;
        m.op(Op::Alu)?;
        m.op(Op::Branch)?;
        if !valid_with(w, self.tag) {
            self.bad = Some(t);
        }
        Ok(())
    }

    fn done(&self) -> bool {
        self.bad.is_some()
    }
}

/// The graph's bundles, tallied once at build: each layer's loop (under
/// [`Tagged`]) and the probe.
struct Bundles {
    layers: Vec<OpBundle>,
    probe: OpBundle,
}

/// Charges and performs one probe of `buf[i]` against `tag`.
fn probe(
    dev: &mut Device,
    b: &Bundles,
    buf: FramBuf,
    i: u32,
    tag: u16,
) -> Result<bool, PowerFailure> {
    let mut p = Probe::new(buf, tag);
    run_loop(dev, &b.probe, &mut p, i, i + 1)?;
    Ok(p.bad.is_none())
}

/// The progress seeker: finds `(pass, frontier)` to resume from.
///
/// Probes word 0 of each pass's region, deepest pass first — a pass's tag
/// appears at word 0 iff the pass has started, and a started pass implies
/// every earlier pass completed (writes are in execution order). Then
/// binary-searches the frontier of the resume pass: its tagged words form
/// a prefix `[0, f)`, so `valid_with` at an index is monotone.
fn seek(
    dev: &mut Device,
    m: &DeployedModel,
    p: &StatefulPlan,
    b: &Bundles,
) -> Result<(usize, u32), PowerFailure> {
    dev.set_context(m.other_region, Phase::Control);
    for pi in (1..p.passes.len()).rev() {
        let pass = &p.passes[pi];
        let buf = m.buf(pass.buf);
        if probe(dev, b, buf, 0, pass.tag)? {
            let (mut lo, mut hi) = (1u32, pass.len);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if probe(dev, b, buf, mid, pass.tag)? {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            return Ok((pi, lo));
        }
    }
    Ok((1, 0))
}

/// One conv or dense output element `o`: the MAC loop over verified
/// inputs, the bias, the embedded write. A dense layer's `[n, 1, 1]`
/// output shape makes `o` its own filter index.
fn element(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    mac: &mut Mac<Tagged>,
    iter: &OpBundle,
    o: u32,
    act: Tagged,
) -> Result<(), PowerFailure> {
    let (DeployedKind::Conv { bias, shift, .. } | DeployedKind::Dense { bias, shift, .. }) = l.kind
    else {
        unreachable!("element on a layer without weights")
    };
    let [_, oh, ow] = l.out_shape;
    let f = o / (oh * ow);
    let acc = mac.run(dev, iter, [f, (o / ow) % oh, o % ow])?;
    let b = dev.read(bias, f)?;
    charge_finish(dev)?;
    act.write(dev, m.buf(l.dst), o, finish_acc(acc, shift, b))
}

/// Runs pass `pi` from element `from` to completion, embedding its tag
/// into every word written. Each element write atomically advances the
/// progress frontier the seeker recovers.
fn run_pass(
    dev: &mut Device,
    m: &DeployedModel,
    p: &StatefulPlan,
    b: &Bundles,
    pi: usize,
    from: u32,
) -> Result<(), PowerFailure> {
    let pass = &p.passes[pi];
    let li = pass.layer.expect("pass 0 is never executed");
    let (l, iter) = (&m.layers[li], &b.layers[li]);
    let act = Tagged::of(pass, l.region, matches!(l.kind, DeployedKind::Relu));
    dev.set_context(l.region, Phase::Kernel);
    match &l.kind {
        DeployedKind::Conv { .. } | DeployedKind::Dense { .. } => {
            let mut mac = Mac::new(m, l, act);
            for o in from..pass.len {
                element(dev, m, l, &mut mac, iter, o, act)?;
                dev.mark_progress();
            }
            Ok(())
        }
        DeployedKind::Pool { .. } => {
            run_loop(dev, iter, &mut PoolBody::new(m, l, act), from, pass.len)
        }
        DeployedKind::Relu => run_loop(dev, iter, &mut ReluBody::new(m, l, act), from, pass.len),
        DeployedKind::Flatten => unreachable!("flatten never gets a pass"),
    }
}

/// The final audit: a charged rescan of the last pass's region. A word
/// invalidated *after* it was written (and so past every verified read)
/// is caught here and recomputed from the layer's intact inputs; the
/// rescan repeats until clean. Detection is noted against the layer's
/// corruption budget, so a repaired run reports `corruption_detected`.
fn audit(
    dev: &mut Device,
    m: &DeployedModel,
    p: &StatefulPlan,
    b: &Bundles,
) -> Result<(), PowerFailure> {
    let pi = p.passes.len() - 1;
    let pass = &p.passes[pi];
    let Some(li) = pass.layer else {
        return Ok(()); // degenerate model: output is the embedded input
    };
    let region = m.layers[li].region;
    loop {
        dev.set_context(region, Phase::Control);
        let mut scan = Probe::new(m.buf(pass.buf), pass.tag);
        run_loop(dev, &b.probe, &mut scan, 0, pass.len)?;
        match scan.bad {
            None => return Ok(()),
            Some(k) => {
                if !dev.note_corruption(region) {
                    return Err(PowerFailure);
                }
                run_pass(dev, m, p, b, pi, k)?;
            }
        }
    }
}

/// Builds the stateful inference graph: a single task that seeks, then
/// executes from the recovered frontier, then audits the output.
pub fn build(m: &DeployedModel) -> TaskGraph<()> {
    let m = m.clone();
    let p = plan(&m);
    debug_assert!(
        p.tags_used.iter().all(|&u| u <= MAX_PASSES_PER_BUF),
        "stateful::preflight must gate deployment"
    );
    let template = Tagged::of(&p.passes[0], m.other_region, false);
    let b = Bundles {
        layers: m
            .layers
            .iter()
            .map(|l| layer_bundle(&m, l, template))
            .collect(),
        probe: OpBundle::tally(&Probe::new(m.act_a, 0), Phase::Control),
    };
    let mut g = TaskGraph::new();
    g.add("stateful-inference", move |dev, _| {
        if p.passes.len() > 1 {
            let (sp, frontier) = seek(dev, &m, &p, &b)?;
            for pi in sp..p.passes.len() {
                let from = if pi == sp { frontier } else { 0 };
                run_pass(dev, &m, &p, &b, pi, from)?;
            }
            audit(dev, &m, &p, &b)?;
        }
        Ok(Transition::Done)
    });
    g
}
