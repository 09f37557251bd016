//! The naïve baseline: fast, register-accumulating, intermittence-unsafe.
//!
//! This is the "standard, baseline implementation that does not tolerate
//! intermittent operation" of §8: each output element's dot product
//! accumulates in a (volatile) register and is written to FRAM once. All
//! loop state is volatile, so a power failure restarts the *whole
//! inference* (the scheduler's `FromEntry` policy); if total inference
//! energy exceeds the device's buffer it never terminates.
//!
//! # Shared element loops
//!
//! Every inner loop is one [`mcu::LoopBody`], charged per iteration by
//! [`mcu::run_loop`] (see `mcu::bundle`). The MAC, pooling and ReLU
//! bodies here are generic over an `Act`: how a backend reads and
//! writes activations and ends an iteration. The baseline uses `Plain`;
//! SONIC adds a loop-continuation write ([`crate::sonic`]), and Stateful
//! verifies and tags every activation word ([`crate::stateful`]). The
//! root `bundles` test suite pins bit-identical traces against the scalar
//! implementation.

use crate::deploy::{DeployedKind, DeployedLayer, DeployedModel};
use dnn::quant::finish_acc;
use fxp::{Accum, Q15};
use intermittent::task::{TaskGraph, Transition};
use mcu::{run_loop, Device, FramBuf, LoopBody, Meter, Op, OpBundle, Phase, PowerFailure};

/// Unpacks a flattened kernel offset into (c, ky, kx).
#[inline]
pub(crate) fn unpack_tap(off: u16, kh: u32, kw: u32) -> (u32, u32, u32) {
    let off = off as u32;
    let c = off / (kh * kw);
    let rem = off % (kh * kw);
    (c, rem / kw, rem % kw)
}

/// Charges the shift/bias finishing arithmetic (shared semantics with
/// [`dnn::quant::finish_acc`]).
#[inline]
pub(crate) fn charge_finish<M: Meter>(m: &mut M) -> Result<(), PowerFailure> {
    m.op(Op::Alu)?; // shift
    m.op(Op::FxpAdd) // bias add
}

/// How a backend moves activations through the shared element loops.
/// Activations are plain words unless a backend says otherwise.
pub(crate) trait Act: Copy {
    /// Reads one input activation.
    #[inline(always)]
    fn read<M: Meter>(self, m: &mut M, buf: FramBuf, i: u32) -> Result<Q15, PowerFailure> {
        m.read(buf, i)
    }
    /// Writes one output activation.
    #[inline(always)]
    fn write<M: Meter>(self, m: &mut M, buf: FramBuf, i: u32, v: Q15) -> Result<(), PowerFailure> {
        m.write(buf, i, v)
    }
    /// Ends an element-loop iteration; `next` is the following index.
    fn end<M: Meter>(self, m: &mut M, next: u32) -> Result<(), PowerFailure>;
}

/// The baseline's activations: plain words, volatile loop state.
#[derive(Clone, Copy)]
pub(crate) struct Plain;

impl Act for Plain {
    #[inline(always)]
    fn end<M: Meter>(self, m: &mut M, _: u32) -> Result<(), PowerFailure> {
        m.op(Op::Incr)?;
        m.op(Op::Branch)
    }
}

/// A dense MAC over one kernel window: weight read, address ALU, input
/// read, multiply, add, incr, branch. The input index advances
/// incrementally through the window (c, ky, kx) — the positions
/// [`unpack_tap`] decodes, without the per-tap divisions. A
/// fully-connected row is one window row spanning a `[1, n]` input.
#[derive(Clone)]
pub(crate) struct DenseMac<A> {
    weights: FramBuf,
    src: FramBuf,
    /// Weights per output: the loop's trip count.
    row_len: u32,
    w_base: u32,
    /// Kernel `[kh, kw]`, input width, and the index skips at a
    /// kernel-row and a channel wrap.
    kh: u32,
    kw: u32,
    w: u32,
    row_skip: u32,
    chan_skip: u32,
    x: u32,
    ky: u32,
    kx: u32,
    acc: Accum,
    act: A,
}

impl<A: Act> LoopBody for DenseMac<A> {
    #[inline(always)]
    fn step<M: Meter>(&mut self, m: &mut M, t: u32) -> Result<(), PowerFailure> {
        let wq = m.read(self.weights, self.w_base + t)?;
        m.op(Op::Alu)?; // address
        let xq = self.act.read(m, self.src, self.x)?;
        m.op(Op::FxpMul)?;
        m.op(Op::FxpAdd)?;
        self.acc.mac(xq, wq);
        m.op(Op::Incr)?;
        m.op(Op::Branch)?;
        self.x += 1;
        self.kx += 1;
        if self.kx == self.kw {
            self.kx = 0;
            self.x += self.row_skip;
            self.ky += 1;
            if self.ky == self.kh {
                self.ky = 0;
                self.x += self.chan_skip;
            }
        }
        Ok(())
    }
}

/// A sparse conv tap: packed-offset read and unpack ALU, weight read,
/// address ALU, input read, multiply, add, incr, branch.
#[derive(Clone)]
pub(crate) struct SparseTapMac<A> {
    rows: FramBuf,
    taps: FramBuf,
    src: FramBuf,
    /// Input `[h, w]`, kernel `[kh, kw]`, output position `(oy, ox)`.
    geom: [u32; 6],
    acc: Accum,
    act: A,
}

impl<A: Act> LoopBody for SparseTapMac<A> {
    #[inline(always)]
    fn step<M: Meter>(&mut self, m: &mut M, t: u32) -> Result<(), PowerFailure> {
        let [h, w, kh, kw, oy, ox] = self.geom;
        let off = m.read(self.taps, 2 * t)?.raw() as u16;
        m.op(Op::Alu)?; // unpack
        let (c, ky, kx) = unpack_tap(off, kh, kw);
        let wq = m.read(self.taps, 2 * t + 1)?;
        m.op(Op::Alu)?; // address
        let xq = self
            .act
            .read(m, self.src, (c * h + oy + ky) * w + ox + kx)?;
        m.op(Op::FxpMul)?;
        m.op(Op::FxpAdd)?;
        self.acc.mac(xq, wq);
        m.op(Op::Incr)?;
        m.op(Op::Branch)
    }
}

/// A sparse-FC (row-gather) entry: column read, weight read, address
/// ALU, input read, multiply, add, incr, branch.
#[derive(Clone)]
pub(crate) struct SparseRowMac<A> {
    rows: FramBuf,
    entries: FramBuf,
    src: FramBuf,
    acc: Accum,
    act: A,
}

impl<A: Act> LoopBody for SparseRowMac<A> {
    #[inline(always)]
    fn step<M: Meter>(&mut self, m: &mut M, t: u32) -> Result<(), PowerFailure> {
        let col = m.read(self.entries, 2 * t)?.raw() as u16 as u32;
        let wq = m.read(self.entries, 2 * t + 1)?;
        m.op(Op::Alu)?; // address
        let xq = self.act.read(m, self.src, col)?;
        m.op(Op::FxpMul)?;
        m.op(Op::FxpAdd)?;
        self.acc.mac(xq, wq);
        m.op(Op::Incr)?;
        m.op(Op::Branch)
    }
}

/// One max-pool output: the window scan, the result write, the
/// iteration's end.
#[derive(Clone)]
pub(crate) struct PoolBody<A> {
    src: FramBuf,
    dst: FramBuf,
    /// Input `[h, w]`, window `[kh, kw]`, output `[oh, ow]`.
    geom: [u32; 6],
    act: A,
}

impl<A: Act> PoolBody<A> {
    pub(crate) fn new(m: &DeployedModel, l: &DeployedLayer, act: A) -> Self {
        let DeployedKind::Pool { kh, kw } = l.kind else {
            unreachable!("pool body on non-pool")
        };
        let [_, h, w] = l.in_shape;
        let [_, oh, ow] = l.out_shape;
        PoolBody {
            src: m.buf(l.src),
            dst: m.buf(l.dst),
            geom: [h, w, kh, kw, oh, ow],
            act,
        }
    }
}

impl<A: Act> LoopBody for PoolBody<A> {
    #[inline(always)]
    fn step<M: Meter>(&mut self, m: &mut M, t: u32) -> Result<(), PowerFailure> {
        let [h, w, kh, kw, oh, ow] = self.geom;
        let ch = t / (oh * ow);
        let oy = (t / ow) % oh;
        let ox = t % ow;
        let mut best = Q15::MIN;
        for py in 0..kh {
            for px in 0..kw {
                m.op(Op::Alu)?;
                let v = self
                    .act
                    .read(m, self.src, (ch * h + oy * kh + py) * w + ox * kw + px)?;
                m.op(Op::Branch)?;
                if v > best {
                    best = v;
                }
            }
        }
        self.act.write(m, self.dst, t, best)?;
        self.act.end(m, t + 1)
    }
}

/// One in-place ReLU element (idempotent: relu(relu(x)) == relu(x)).
#[derive(Clone)]
pub(crate) struct ReluBody<A> {
    buf: FramBuf,
    act: A,
}

impl<A: Act> ReluBody<A> {
    pub(crate) fn new(m: &DeployedModel, l: &DeployedLayer, act: A) -> Self {
        ReluBody {
            buf: m.buf(l.src),
            act,
        }
    }
}

impl<A: Act> LoopBody for ReluBody<A> {
    #[inline(always)]
    fn step<M: Meter>(&mut self, m: &mut M, t: u32) -> Result<(), PowerFailure> {
        let v = self.act.read(m, self.buf, t)?;
        m.op(Op::Branch)?;
        self.act.write(m, self.buf, t, v.relu())?;
        self.act.end(m, t + 1)
    }
}

/// The MAC loop of a conv or dense layer, in its weight format: built
/// once per layer, run once per output.
#[derive(Clone)]
pub(crate) enum Mac<A> {
    Dense(DenseMac<A>),
    SparseTap(SparseTapMac<A>),
    SparseRow(SparseRowMac<A>),
}

impl<A: Act> Mac<A> {
    pub(crate) fn new(m: &DeployedModel, l: &DeployedLayer, act: A) -> Self {
        let src = m.buf(l.src);
        let [_, h, w] = l.in_shape;
        let acc = Accum::ZERO;
        // Input `[h, w]`, kernel `[kh, kw]`.
        let dense = |weights, row_len, [h, w, kh, kw]: [u32; 4]| {
            Mac::Dense(DenseMac {
                weights,
                src,
                row_len,
                w_base: 0,
                kh,
                kw,
                w,
                row_skip: w - kw,
                chan_skip: (h - kh) * w,
                x: 0,
                ky: 0,
                kx: 0,
                acc,
                act,
            })
        };
        match l.kind {
            DeployedKind::Conv {
                dims: [_, nc, kh, kw],
                weights,
                sparse,
                ..
            } => match sparse {
                Some((rows, taps)) => Mac::SparseTap(SparseTapMac {
                    rows,
                    taps,
                    src,
                    geom: [h, w, kh, kw, 0, 0],
                    acc,
                    act,
                }),
                None => dense(weights, nc * kh * kw, [h, w, kh, kw]),
            },
            DeployedKind::Dense {
                dims: [_, in_n],
                weights,
                sparse_rows,
                ..
            } => match sparse_rows {
                Some((rows, entries)) => Mac::SparseRow(SparseRowMac {
                    rows,
                    entries,
                    src,
                    acc,
                    act,
                }),
                None => dense(weights, in_n, [1, in_n, 1, in_n]),
            },
            _ => unreachable!("MAC loop on a layer without weights"),
        }
    }

    /// Runs the loop of conv output (f, oy, ox), or of dense output `f`
    /// with `oy = ox = 0`, and returns its register accumulator: the
    /// sparse form's row bounds, then the MACs. `iter` is the layer's
    /// [`layer_bundle`] under the same `act`.
    pub(crate) fn run(
        &mut self,
        dev: &mut Device,
        iter: &OpBundle,
        [f, oy, ox]: [u32; 3],
    ) -> Result<Accum, PowerFailure> {
        let bounds = |dev: &mut Device, rows| -> Result<(u32, u32), PowerFailure> {
            let start = dev.read(rows, f)?.raw() as u16 as u32;
            Ok((start, dev.read(rows, f + 1)?.raw() as u16 as u32))
        };
        match self {
            Mac::Dense(b) => {
                let n = b.row_len;
                (b.w_base, b.x, b.ky, b.kx, b.acc) = (f * n, oy * b.w + ox, 0, 0, Accum::ZERO);
                run_loop(dev, iter, b, 0, n)?;
                Ok(b.acc)
            }
            Mac::SparseTap(b) => {
                let (start, end) = bounds(dev, b.rows)?;
                (b.geom[4], b.geom[5], b.acc) = (oy, ox, Accum::ZERO);
                run_loop(dev, iter, b, start, end)?;
                Ok(b.acc)
            }
            Mac::SparseRow(b) => {
                let (start, end) = bounds(dev, b.rows)?;
                b.acc = Accum::ZERO;
                run_loop(dev, iter, b, start, end)?;
                Ok(b.acc)
            }
        }
    }
}

/// Dispatch for the layer's tally; [`Mac::run`] runs each body directly.
impl<A: Act> LoopBody for Mac<A> {
    fn step<M: Meter>(&mut self, m: &mut M, t: u32) -> Result<(), PowerFailure> {
        match self {
            Mac::Dense(b) => b.step(m, t),
            Mac::SparseTap(b) => b.step(m, t),
            Mac::SparseRow(b) => b.step(m, t),
        }
    }
}

/// The one-iteration bundle of layer `l`'s metered loop under `act`
/// (empty for flatten): its MAC body for conv/dense layers, its element
/// body for pool/ReLU. Tallied once, when the graph is built.
pub(crate) fn layer_bundle<A: Act>(m: &DeployedModel, l: &DeployedLayer, act: A) -> OpBundle {
    match l.kind {
        DeployedKind::Conv { .. } | DeployedKind::Dense { .. } => {
            OpBundle::tally(&Mac::new(m, l, act), Phase::Kernel)
        }
        DeployedKind::Pool { .. } => OpBundle::tally(&PoolBody::new(m, l, act), Phase::Kernel),
        DeployedKind::Relu => OpBundle::tally(&ReluBody::new(m, l, act), Phase::Kernel),
        DeployedKind::Flatten => OpBundle::new(),
    }
}

fn conv_layer(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    iter: &OpBundle,
) -> Result<(), PowerFailure> {
    let DeployedKind::Conv {
        dims, bias, shift, ..
    } = &l.kind
    else {
        unreachable!("conv_layer on non-conv")
    };
    let [_, oh, ow] = l.out_shape;
    let dst = m.buf(l.dst);
    let mut mac = Mac::new(m, l, Plain);
    for f in 0..dims[0] {
        let b = dev.read(*bias, f)?;
        for oy in 0..oh {
            for ox in 0..ow {
                let acc = mac.run(dev, iter, [f, oy, ox])?;
                charge_finish(dev)?;
                dev.write(dst, (f * oh + oy) * ow + ox, finish_acc(acc, *shift, b))?;
            }
        }
    }
    Ok(())
}

fn dense_layer(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    iter: &OpBundle,
) -> Result<(), PowerFailure> {
    let DeployedKind::Dense {
        dims, bias, shift, ..
    } = &l.kind
    else {
        unreachable!("dense_layer on non-dense")
    };
    let dst = m.buf(l.dst);
    let mut mac = Mac::new(m, l, Plain);
    for o in 0..dims[0] {
        let acc = mac.run(dev, iter, [o, 0, 0])?;
        let b = dev.read(*bias, o)?;
        charge_finish(dev)?;
        dev.write(dst, o, finish_acc(acc, *shift, b))?;
    }
    Ok(())
}

/// Runs one layer with baseline semantics; `iter` is its
/// [`layer_bundle`] under [`Plain`].
fn run_layer(
    dev: &mut Device,
    m: &DeployedModel,
    l: &DeployedLayer,
    iter: &OpBundle,
) -> Result<(), PowerFailure> {
    dev.set_context(l.region, Phase::Kernel);
    let [out, input] = [l.out_shape, l.in_shape].map(|s| s.iter().product());
    match &l.kind {
        DeployedKind::Conv { .. } => conv_layer(dev, m, l, iter),
        DeployedKind::Dense { .. } => dense_layer(dev, m, l, iter),
        DeployedKind::Pool { .. } => run_loop(dev, iter, &mut PoolBody::new(m, l, Plain), 0, out),
        DeployedKind::Relu => run_loop(dev, iter, &mut ReluBody::new(m, l, Plain), 0, input),
        DeployedKind::Flatten => Ok(()),
    }
}

/// Builds the baseline inference graph: a single unprotected task.
pub fn build(m: &DeployedModel) -> TaskGraph<()> {
    let m = m.clone();
    let bundles: Vec<OpBundle> = m
        .layers
        .iter()
        .map(|l| layer_bundle(&m, l, Plain))
        .collect();
    let mut g = TaskGraph::new();
    g.add("baseline-inference", move |dev, _| {
        for (l, iter) in m.layers.iter().zip(&bundles) {
            run_layer(dev, &m, l, iter)?;
        }
        Ok(Transition::Done)
    });
    g
}
