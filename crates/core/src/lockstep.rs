//! Lockstep batching: amortizing the energy-metered simulator across
//! same-plan inference runs.
//!
//! A fleet cell runs the *same deployed model* on the *same power system*
//! over many inputs. On continuous, fault-free power every run charges the
//! identical op sequence — the per-run [`TraceReport`] is input-invariant
//! — so metering each run individually repeats the same accounting
//! arithmetic N times. This module exploits that:
//!
//! 1. **Leader runs** execute on the real [`Device`], fully metered.
//!    Consecutive completed runs whose trace reports compare equal prove
//!    the deployment has reached its *steady trace* (TAILS needs one
//!    extra run for LEA/DMA calibration). At that fixed point the runner
//!    picks the backend's [`RoundingOrder`]; the only device state it
//!    reads is TAILS's calibrated tile word.
//! 2. **Twin runs** are then one call to that order's
//!    [`HostReference`] in `dnn::quant` — the same Q1.15 rounding and
//!    saturation as the backend, so the logits are bit-identical — and
//!    inherit the leader's trace and verdict (its scheduler stats)
//!    verbatim.
//! 3. Every `lanes`-th run re-meters on the real device and re-checks the
//!    trace fixed point; any divergence (or any non-completed run) drops
//!    back to scalar metering until the fixed point is re-established.
//!
//! Harvested power, armed fault plans, the stateful backend, and
//! `lanes < 2` never enter the twin path: those runs drain through the
//! untouched scalar simulator, so brown-out tails, fault injection, and
//! corruption semantics are byte-for-byte what they always were.

use crate::deploy::{deploy, DeployedModel};
use crate::exec::{run_deployed, Backend, InferenceOutcome};
use dnn::quant::{HostReference, HostScratch, QModel, RoundingOrder};
use fxp::Q15;
use mcu::{Device, DeviceSpec, PowerSystem, TraceReport};
use std::num::NonZeroUsize;

/// Lane width used when the caller does not pick one explicitly: the
/// `BATCH_LANES` environment variable when set (clamped to at least 1),
/// otherwise 8 with the `batch` feature enabled and 1 (pure scalar
/// metering) without it.
pub fn default_lanes() -> usize {
    std::env::var("BATCH_LANES")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map_or_else(|| if cfg!(feature = "batch") { 8 } else { 1 }, |n| n.max(1))
}

/// The rounding order whose host reference reproduces `backend`'s logits
/// on `dm`, read once the trace is steady: TAILS's order depends on the
/// LEA/DMA tile its calibration left in FRAM. `None` means the backend
/// never twins — stateful runs carry NVM-visible tags the references do
/// not model — or that calibration has not settled.
fn rounding_order(backend: &Backend, dev: &Device, dm: &DeployedModel) -> Option<RoundingOrder> {
    match backend {
        Backend::Baseline => Some(RoundingOrder::Exact),
        Backend::Tiled(_) | Backend::Sonic | Backend::SonicNoUndo => {
            Some(RoundingOrder::LoopOrdered)
        }
        Backend::Tails(_) => {
            NonZeroUsize::new(dev.peek_word(dm.calib).into()).map(RoundingOrder::LeaChunked)
        }
        Backend::Stateful => None,
    }
}

/// Drives a sequence of same-deployment runs through the steady-trace
/// batching policy: metered leader runs on the real device, twin runs on
/// the backend's host reference once the per-run trace has reached its
/// fixed point.
pub(crate) struct BatchRunner<'m> {
    model: &'m QModel,
    lanes: usize,
    enabled: bool,
    backend: Backend,
    idx: usize,
    steady: bool,
    prev: Option<TraceReport>,
    leader: Option<InferenceOutcome>,
    /// Built at the first fixed point and kept for the deployment's
    /// lifetime; rebuilt only if a later fixed point reads another order.
    reference: Option<HostReference<'m>>,
    scratch: HostScratch,
    twin_runs: u64,
}

impl<'m> BatchRunner<'m> {
    /// Twin runs only ever engage on continuous power with `lanes >= 2`;
    /// any other configuration meters every run (the scalar drain).
    /// `model` must be the model the runs' deployment was built from.
    pub(crate) fn new(
        model: &'m QModel,
        backend: &Backend,
        power: &PowerSystem,
        lanes: usize,
    ) -> BatchRunner<'m> {
        BatchRunner {
            model,
            lanes: lanes.max(1),
            enabled: lanes >= 2
                && matches!(power, PowerSystem::Continuous)
                && !matches!(backend, Backend::Stateful),
            backend: *backend,
            idx: 0,
            steady: false,
            prev: None,
            leader: None,
            reference: None,
            scratch: HostScratch::default(),
            twin_runs: 0,
        }
    }

    pub(crate) fn twin_runs(&self) -> u64 {
        self.twin_runs
    }

    /// Runs one inference, choosing the metered or twin path. The caller
    /// must not arm fault plans on `dev` while using a runner with
    /// `lanes >= 2` — faulted jobs take the scalar path upstream.
    pub(crate) fn run(
        &mut self,
        dev: &mut Device,
        dm: &DeployedModel,
        input: &[Q15],
    ) -> InferenceOutcome {
        let i = self.idx;
        self.idx += 1;
        if self.enabled && self.steady && !i.is_multiple_of(self.lanes) {
            if let Some(out) = self.twin(input) {
                self.twin_runs += 1;
                return out;
            }
        }
        if self.enabled {
            debug_assert_eq!(dev.pending_faults(), 0, "BatchRunner on a faulted device");
        }
        dm.load_input(dev, input);
        let out = run_deployed(dev, dm, &self.backend);
        self.observe(dev, dm, &out);
        out
    }

    fn twin(&mut self, input: &[Q15]) -> Option<InferenceOutcome> {
        let reference = self.reference.as_ref()?;
        let leader = self.leader.as_ref()?;
        let output = reference.forward_with(input, &mut self.scratch);
        let class = fxp::vecops::argmax(&output);
        let mut out = leader.clone();
        out.output = output;
        out.class = class;
        Some(out)
    }

    fn observe(&mut self, dev: &Device, dm: &DeployedModel, out: &InferenceOutcome) {
        if !self.enabled {
            return;
        }
        if !out.completed || out.corruption_detected != 0 {
            self.steady = false;
            self.prev = None;
            self.leader = None;
            return;
        }
        self.steady = self.prev.as_ref() == Some(&out.trace);
        if self.steady {
            let order = rounding_order(&self.backend, dev, dm);
            if self.reference.as_ref().map(HostReference::order) != order {
                self.reference = order.map(|o| HostReference::new(self.model, o));
            }
        }
        self.prev = Some(out.trace.clone());
        self.leader = Some(out.clone());
    }
}

/// Deploys `qm` once and runs every input through the lockstep batch
/// runner: metered leader runs plus bit-identical host twins with lane
/// width `lanes` (see the [module docs](self)). `lanes = 1` is exactly
/// the scalar sequence of [`run_deployed`] calls on one deployment;
/// harvested power and `lanes < 2` always meter every run.
///
/// # Panics
///
/// Panics if the model does not fit in FRAM (see
/// [`crate::run_inference`]).
pub fn run_inference_batch(
    qm: &QModel,
    inputs: &[Vec<Q15>],
    spec: &DeviceSpec,
    power: PowerSystem,
    backend: &Backend,
    lanes: usize,
) -> Vec<InferenceOutcome> {
    run_inference_batch_counted(qm, inputs, spec, power, backend, lanes).0
}

/// [`run_inference_batch`] plus the number of runs the twin path served
/// (diagnostics for tests and benches).
pub(crate) fn run_inference_batch_counted(
    qm: &QModel,
    inputs: &[Vec<Q15>],
    spec: &DeviceSpec,
    power: PowerSystem,
    backend: &Backend,
    lanes: usize,
) -> (Vec<InferenceOutcome>, u64) {
    let mut dev = Device::new(spec.clone(), power);
    let dm = deploy(&mut dev, qm).expect("model must fit in FRAM");
    let mut runner = BatchRunner::new(qm, backend, dev.power(), lanes);
    let outs = inputs
        .iter()
        .map(|x| runner.run(&mut dev, &dm, x))
        .collect();
    (outs, runner.twin_runs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::TailsConfig;
    use dnn::layers::Layer;
    use dnn::model::Model;
    use dnn::quant::{csr_from_weights, quantize, sparse_taps_from_weights, QLayer};
    use dnn::tensor::Tensor;
    use rand::SeedableRng;

    /// Keeps the weights of layer `i` whose flat index passes `keep` (a
    /// GENESIS-style prune, deep enough that the layer deploys sparse).
    fn prune(model: &mut Model, i: usize, keep: impl Fn(usize) -> bool) {
        let shape = match &model.layers()[i] {
            Layer::Dense(d) => d.w.shape().to_vec(),
            Layer::Conv2d(c) => c.filters.shape().to_vec(),
            _ => unreachable!("prune on a parameterless layer"),
        };
        let mut mask = Tensor::zeros(shape);
        for (j, m) in mask.data_mut().iter_mut().enumerate() {
            if keep(j) {
                *m = 1.0;
            }
        }
        model.layers_mut()[i].set_mask(mask);
    }

    /// Drives a layer's nonzero weights to ±full scale, so partial sums
    /// saturate and a wrong accumulation order shows in the logits
    /// (without saturation, a chain of rounded products is order-free).
    fn full_scale(layer: &mut QLayer) {
        let saturate = |ws: &mut Vec<Q15>| {
            for w in ws.iter_mut().filter(|w| !w.is_zero()) {
                *w = if w.raw() > 0 { Q15::MAX } else { Q15::MIN };
            }
        };
        match layer {
            QLayer::Conv(c) => {
                saturate(&mut c.weights);
                if c.sparse.is_some() {
                    c.sparse = Some(sparse_taps_from_weights(c.dims, &c.weights));
                }
            }
            QLayer::Dense(d) => {
                saturate(&mut d.weights);
                if d.sparse.is_some() {
                    d.sparse = Some(csr_from_weights(d.dims, &d.weights));
                }
            }
            _ => unreachable!("full_scale on a parameterless layer"),
        }
    }

    /// Small CNN exercising every reference kernel — dense 3×3 conv,
    /// pruned (sparse) 3×3 conv, dense 1×5 conv (the generic-width FIR),
    /// relu, pool, sparse FC, dense FC — plus `n` distinct quantized
    /// inputs.
    fn fixture(n: usize) -> (QModel, Vec<Vec<Q15>>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        let mut model = Model::new(vec![
            Layer::conv2d(4, 1, 3, 3, &mut rng),
            Layer::relu(),
            Layer::conv2d(4, 4, 3, 3, &mut rng),
            Layer::relu(),
            Layer::conv2d(3, 4, 1, 5, &mut rng),
            Layer::relu(),
            Layer::maxpool(2),
            Layer::flatten(),
            Layer::dense(3 * 6 * 4, 12, &mut rng),
            Layer::relu(),
            Layer::dense(12, 4, &mut rng),
        ]);
        // Each 3×3 kernel keeps only its first row: TAILS's padded FIR
        // sums three products there before rounding, and skips the two
        // all-zero rows.
        prune(&mut model, 2, |j| j % 9 < 3);
        prune(&mut model, 8, |j| j % 7 == 0);
        let shape = [1usize, 16, 16];
        let calib: Vec<Tensor> = (0..3)
            .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
            .collect();
        let mut qm = quantize(&mut model, &shape, &calib);
        assert!(qm.layers[2].is_sparse() && qm.layers[8].is_sparse());
        assert!(!qm.layers[4].is_sparse());
        for i in [0, 2, 4, 8] {
            full_scale(&mut qm.layers[i]);
        }
        let inputs = (0..n)
            .map(|_| qm.quantize_input(&Tensor::uniform(shape.to_vec(), 0.9, &mut rng)))
            .collect();
        (qm, inputs)
    }

    fn spec() -> DeviceSpec {
        DeviceSpec::msp430fr5994()
    }

    fn backends() -> Vec<Backend> {
        vec![
            Backend::Baseline,
            Backend::Tiled(32),
            Backend::Sonic,
            Backend::SonicNoUndo,
            Backend::Tails(TailsConfig::default()),
        ]
    }

    #[test]
    fn batched_outcomes_are_bit_identical_to_scalar() {
        let (qm, inputs) = fixture(12);
        for b in backends() {
            let (scalar, t_scalar) = run_inference_batch_counted(
                &qm,
                &inputs,
                &spec(),
                PowerSystem::continuous(),
                &b,
                1,
            );
            assert_eq!(t_scalar, 0, "{b}: lanes=1 must never twin");
            let (batched, t_batch) = run_inference_batch_counted(
                &qm,
                &inputs,
                &spec(),
                PowerSystem::continuous(),
                &b,
                4,
            );
            assert!(
                t_batch >= 4,
                "{b}: twins never engaged ({t_batch} twin runs)"
            );
            for (i, (s, x)) in scalar.iter().zip(&batched).enumerate() {
                assert!(s.completed && x.completed, "{b}: run {i} not completed");
                assert_eq!(s.output, x.output, "{b}: run {i} output diverges");
                assert_eq!(s.class, x.class, "{b}: run {i} class diverges");
                assert_eq!(s.trace, x.trace, "{b}: run {i} trace diverges");
                assert_eq!(s.verdict, x.verdict, "{b}: run {i} verdict diverges");
                assert_eq!(s.corruption_detected, x.corruption_detected);
            }
        }
    }

    #[test]
    fn stateful_never_twins_and_stays_bit_identical() {
        // The stateful backend is excluded from twinning outright: its
        // embedded progress tags are per-run NVM state the host
        // references do not model. Every lane width must drain through the meter
        // with bit-identical outcomes.
        let (qm, inputs) = fixture(8);
        let b = Backend::Stateful;
        let (scalar, t1) =
            run_inference_batch_counted(&qm, &inputs, &spec(), PowerSystem::continuous(), &b, 1);
        assert_eq!(t1, 0);
        for lanes in [2, 4, 8] {
            let (batched, twins) = run_inference_batch_counted(
                &qm,
                &inputs,
                &spec(),
                PowerSystem::continuous(),
                &b,
                lanes,
            );
            assert_eq!(twins, 0, "lanes={lanes}: stateful runs must never twin");
            for (i, (s, x)) in scalar.iter().zip(&batched).enumerate() {
                assert!(s.completed && x.completed, "run {i} not completed");
                assert_eq!(s.output, x.output, "run {i} output diverges");
                assert_eq!(s.trace, x.trace, "run {i} trace diverges");
            }
        }
    }

    #[test]
    fn harvested_power_always_meters() {
        let (qm, inputs) = fixture(4);
        let power = || PowerSystem::harvested(100e-6);
        let (scalar, _) =
            run_inference_batch_counted(&qm, &inputs, &spec(), power(), &Backend::Sonic, 1);
        let (batched, twins) =
            run_inference_batch_counted(&qm, &inputs, &spec(), power(), &Backend::Sonic, 8);
        assert_eq!(twins, 0, "harvested runs must drain through the meter");
        for (s, x) in scalar.iter().zip(&batched) {
            assert_eq!(s.output, x.output);
            assert_eq!(s.trace, x.trace);
        }
    }

    #[test]
    fn lane_width_does_not_change_results() {
        let (qm, inputs) = fixture(10);
        let base = run_inference_batch(
            &qm,
            &inputs,
            &spec(),
            PowerSystem::continuous(),
            &Backend::Sonic,
            1,
        );
        for lanes in [2, 4, 8] {
            let got = run_inference_batch(
                &qm,
                &inputs,
                &spec(),
                PowerSystem::continuous(),
                &Backend::Sonic,
                lanes,
            );
            for (s, x) in base.iter().zip(&got) {
                assert_eq!(s.output, x.output, "lanes={lanes}");
                assert_eq!(s.trace, x.trace, "lanes={lanes}");
            }
        }
    }
}
