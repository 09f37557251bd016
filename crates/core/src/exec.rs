//! One entry point to run any implementation on any power system.

use crate::deploy::{deploy, DeployedModel};
use crate::{baseline, sonic, stateful, tails, tiled};
use dnn::quant::QModel;
use fxp::Q15;
use intermittent::alpaca::AlpacaRt;
use intermittent::sched::{run, RunError, RunStats, SchedulerConfig};
use mcu::{Device, DeviceSpec, FaultPlan, PowerSystem, TraceReport};

pub use crate::tails::TailsConfig;

/// Which inference implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Naïve baseline (no intermittence support; restarts from scratch).
    Baseline,
    /// Alpaca-style task tiling with `N` iterations per task.
    Tiled(u32),
    /// SONIC (software only).
    Sonic,
    /// SONIC with sparse undo-logging disabled (loop-ordered buffering on
    /// sparse FC layers) — the §6.2.2 design-choice ablation.
    SonicNoUndo,
    /// TAILS (LEA + DMA per the config).
    Tails(TailsConfig),
    /// DynBal-style stateful progress embedding: activation words carry
    /// an in-band tag/parity, and a reboot binary-searches the output
    /// buffer for the resume point — no control words, no redo log (see
    /// [`crate::stateful`]).
    Stateful,
}

impl Backend {
    /// The six implementations evaluated in the paper's Fig. 9.
    pub fn paper_suite() -> Vec<Backend> {
        vec![
            Backend::Baseline,
            Backend::Tiled(8),
            Backend::Tiled(32),
            Backend::Tiled(128),
            Backend::Sonic,
            Backend::Tails(TailsConfig::default()),
        ]
    }

    /// Display label matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            Backend::Baseline => "Base".to_string(),
            Backend::Tiled(n) => format!("Tile-{n}"),
            Backend::Sonic => "SONIC".to_string(),
            Backend::SonicNoUndo => "SONIC-no-undo".to_string(),
            Backend::Tails(cfg) if *cfg == TailsConfig::default() => "TAILS".to_string(),
            Backend::Tails(cfg) => {
                format!("TAILS(lea={},dma={})", cfg.use_lea as u8, cfg.use_dma as u8)
            }
            Backend::Stateful => "Stateful".to_string(),
        }
    }
}

impl core::fmt::Display for Backend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.label())
    }
}

/// The exact op the final brown-out of a failed run landed on, resolved
/// to human-readable accounting names (see [`mcu::BrownoutInfo`] for the
/// raw device-side record).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BrownoutRecord {
    /// Index of the failed op in the device's charged-op stream.
    pub op_index: u64,
    /// The op class that failed to complete.
    pub op: mcu::Op,
    /// The accounting phase the failed op was charged under.
    pub phase: mcu::Phase,
    /// Name of the accounting region (layer/task) the op belonged to.
    pub region: String,
    /// `true` for a [`FaultPlan`]-injected failure, `false` for a buffer
    /// that genuinely ran dry.
    pub injected: bool,
}

impl core::fmt::Display for BrownoutRecord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} op#{} ({:?}/{:?}) in {}",
            if self.injected { "injected" } else { "natural" },
            self.op_index,
            self.op,
            self.phase,
            self.region
        )
    }
}

/// The result of one inference run on the device.
#[derive(Clone, Debug)]
pub struct InferenceOutcome {
    /// `true` when inference finished ("completes" in Fig. 9's terms);
    /// always `== verdict.is_ok()`. Kept as a plain field for readers
    /// that only need the flag.
    pub completed: bool,
    /// The output logits (empty when not completed).
    pub output: Vec<Q15>,
    /// Predicted class (argmax), when completed.
    pub class: Option<usize>,
    /// The full energy/time trace (valid either way — for non-terminating
    /// runs it covers the attempts made before giving up).
    pub trace: TraceReport,
    /// Corruption detections the integrity guards noted during the run
    /// (each either recovered or escalated). Zero on fault-free runs.
    pub corruption_detected: u64,
    /// The run's one verdict: the scheduler statistics of a completed
    /// run, or why and where it failed.
    pub verdict: Result<RunStats, Failure>,
}

/// Why and where a run did not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// The scheduler's verdict. [`RunError::Corrupted`] is the
    /// *corrupted* outcome (detected corruption that could not be
    /// recovered), distinct from merely not completing;
    /// [`RunError::NonTermination`] names the task that kept draining
    /// full buffers without progress.
    pub error: RunError,
    /// The accounting region (layer/task) that was executing when the
    /// run gave up — the layer the device *starved* in.
    /// [`crate::fleet::CellSummary::starved`] aggregates these into a
    /// starvation histogram; the per-region reboot counts behind it are
    /// in [`mcu::trace::RegionReport::reboots`].
    pub region: String,
    /// The exact op the *final* brown-out landed on (op index, op class,
    /// phase, region, and whether it was injected), when there was one.
    pub brownout: Option<BrownoutRecord>,
}

impl Failure {
    /// Captures where `dev` gave up after `error`: the region it is
    /// parked in and its most recent brown-out.
    pub(crate) fn on(dev: &Device, error: RunError) -> Failure {
        Failure {
            error,
            region: starved_region_name(dev),
            brownout: dev.last_brownout().map(|b| BrownoutRecord {
                op_index: b.op_index,
                op: b.op,
                phase: b.phase,
                region: region_name(dev, b.region.index()),
                injected: b.injected,
            }),
        }
    }
}

impl InferenceOutcome {
    /// A run that did not complete: no output, the verdict `failure`.
    pub(crate) fn failed(trace: TraceReport, corruption_detected: u64, failure: Failure) -> Self {
        InferenceOutcome {
            completed: false,
            output: Vec::new(),
            class: None,
            trace,
            corruption_detected,
            verdict: Err(failure),
        }
    }

    /// Live execution time in seconds (at the device clock).
    pub fn live_secs(&self, spec: &DeviceSpec) -> f64 {
        spec.cycles_to_secs(self.trace.live_cycles)
    }

    /// Total wall-clock time in seconds: live + recharging.
    pub fn total_secs(&self, spec: &DeviceSpec) -> f64 {
        self.live_secs(spec) + self.trace.dead_secs
    }

    /// Total energy in millijoules.
    pub fn energy_mj(&self) -> f64 {
        self.trace.total_energy_pj as f64 * 1e-9
    }
}

/// Deploys `qm` and runs one inference on a fresh device.
///
/// # Panics
///
/// Panics if the model does not fit in FRAM (use
/// [`dnn::quant::QModel::fram_words`] to check feasibility first — that is
/// GENESIS's job).
pub fn run_inference(
    qm: &QModel,
    input: &[Q15],
    spec: &DeviceSpec,
    power: PowerSystem,
    backend: &Backend,
) -> InferenceOutcome {
    let mut dev = Device::new(spec.clone(), power);
    let dm = deploy(&mut dev, qm).expect("model must fit in FRAM");
    dm.load_input(&mut dev, input);
    run_deployed(&mut dev, &dm, backend)
}

/// Like [`run_inference`], but arms a deterministic [`FaultPlan`] before
/// the run: each target fires at that charged-op index — a brown-out, a
/// torn store, a bit flip, or a stuck-at cell ([`mcu::FaultKind`]) —
/// *relative to the start of inference* (deployment ops are excluded, so
/// the same plan means the same boundary across power systems). Injection
/// works on continuous power too — the recovery paths execute without any
/// recharge dead time, which is how the crash-consistency suite gets
/// exhaustive schedules cheaply.
///
/// # Panics
///
/// Panics if the model does not fit in FRAM (see [`run_inference`]).
pub fn run_inference_faulted(
    qm: &QModel,
    input: &[Q15],
    spec: &DeviceSpec,
    power: PowerSystem,
    backend: &Backend,
    plan: &FaultPlan,
) -> InferenceOutcome {
    let mut dev = Device::new(spec.clone(), power);
    let dm = deploy(&mut dev, qm).expect("model must fit in FRAM");
    dm.load_input(&mut dev, input);
    let base = dev.ops_consumed();
    dev.arm_faults(&plan.shifted(base));
    run_deployed(&mut dev, &dm, backend)
}

/// Runs one inference over an already-deployed model (the input must be
/// loaded). Useful for repeated inferences on one device.
///
/// The returned [`InferenceOutcome::trace`] is a **per-run** report: a
/// trace epoch begins when this function is entered, so back-to-back runs
/// on one deployment report their own energy, live cycles, dead time, and
/// reboots instead of device-lifetime cumulative totals (which silently
/// double-counted for every run after the first).
pub fn run_deployed(dev: &mut Device, dm: &DeployedModel, backend: &Backend) -> InferenceOutcome {
    dev.begin_epoch();
    dev.reset_corruption_stats();
    // Runtime construction allocates per-run working state (TAILS SRAM
    // staging buffers, the Alpaca commit log); rewind it afterwards so a
    // reused deployment links every run against the identical layout
    // instead of leaking the arenas.
    let alloc_marks = dev.alloc_watermarks();
    let result: Result<RunStats, RunError> = match backend {
        Backend::Baseline => {
            let mut g = baseline::build(dm);
            run(&mut g, &mut (), dev, 0, &SchedulerConfig::from_entry())
        }
        Backend::Tiled(n) => {
            let mut rt = AlpacaRt::new(dev).expect("FRAM for commit flag");
            let mut g = tiled::build(dm, *n);
            run(&mut g, &mut rt, dev, 0, &SchedulerConfig::task_based())
        }
        Backend::Sonic => {
            let mut g = sonic::build(dm);
            run(&mut g, &mut (), dev, 0, &SchedulerConfig::task_based())
        }
        Backend::SonicNoUndo => {
            let mut g = sonic::build_opts(
                dm,
                sonic::SonicOptions {
                    sparse_undo_logging: false,
                },
            );
            run(&mut g, &mut (), dev, 0, &SchedulerConfig::task_based())
        }
        Backend::Tails(cfg) => {
            let mut g = tails::build(dm, *cfg, dev);
            run(&mut g, &mut (), dev, 0, &SchedulerConfig::task_based())
        }
        Backend::Stateful => {
            stateful::prepare_run(dev, dm);
            let mut g = stateful::build(dm);
            run(&mut g, &mut (), dev, 0, &SchedulerConfig::task_based())
        }
    };
    let trace = dev.epoch_report();
    dev.rewind_allocs(alloc_marks);
    let corruption_detected = dev.corruption_detected();
    match result {
        Ok(stats) => {
            let output = match backend {
                // Stateful activations carry in-band tags; strip them.
                Backend::Stateful => stateful::cleared_output(dev, dm),
                _ => dm.read_output(dev),
            };
            InferenceOutcome {
                completed: true,
                class: fxp::vecops::argmax(&output),
                output,
                trace,
                corruption_detected,
                verdict: Ok(stats),
            }
        }
        Err(e) => InferenceOutcome::failed(trace, corruption_detected, Failure::on(dev, e)),
    }
}

/// Verifies that `backend`'s per-run runtime working state can be
/// allocated on `dev` — the TAILS SRAM staging buffers, the Alpaca
/// commit flag, the stateful backend's per-buffer tag budget against
/// the deployed model `dm` — releasing the probe allocations again.
///
/// [`deploy`](crate::deploy()) checks the *model's* footprint; this
/// checks the rest: [`run_deployed`] builds the runtime with
/// `expect` (a mis-sized device spec is normally a programming error,
/// not a runtime condition), so search loops that machine-generate
/// configurations ([`genesis`-style fleet scoring]) should pre-flight
/// with this instead of panicking mid-fleet.
///
/// [`genesis`-style fleet scoring]: crate::fleet
///
/// # Errors
///
/// Returns the [`mcu::AllocError`] the runtime build would have
/// panicked on.
pub fn preflight_runtime(
    dev: &mut Device,
    dm: &DeployedModel,
    backend: &Backend,
) -> Result<(), mcu::AllocError> {
    match backend {
        Backend::Baseline | Backend::Sonic | Backend::SonicNoUndo => Ok(()),
        Backend::Tiled(_) => {
            let marks = dev.alloc_watermarks();
            let r = AlpacaRt::new(dev).map(|_| ());
            dev.rewind_allocs(marks);
            r
        }
        Backend::Tails(_) => tails::preflight_sram(dev),
        // The stateful backend needs no runtime arenas, but the model
        // must fit the in-band tag space: ≤ 7 write passes per buffer.
        Backend::Stateful => stateful::preflight(dm),
    }
}

/// The name of the region the device was executing when it gave up: the
/// accounting context survives the failure (tasks set it on entry and
/// nothing resets it on a brown-out), so after an aborted run it still
/// names the starving layer/task.
pub(crate) fn starved_region_name(dev: &Device) -> String {
    region_name(dev, dev.context().0.index())
}

fn region_name(dev: &Device, index: usize) -> String {
    dev.trace()
        .region_names()
        .get(index)
        .cloned()
        .unwrap_or_else(|| "other".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::layers::Layer;
    use dnn::model::Model;
    use dnn::quant::{quantize, HostReference, RoundingOrder};
    use dnn::tensor::Tensor;
    use rand::SeedableRng;
    use std::num::NonZeroUsize;

    /// A small CNN with a pruned (sparse) FC layer, exercising every
    /// kernel kind: conv, relu, pool, sparse dense, dense.
    fn tiny_qmodel() -> (QModel, Vec<Q15>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        let mut model = Model::new(vec![
            Layer::conv2d(4, 1, 3, 3, &mut rng),
            Layer::relu(),
            Layer::maxpool(2),
            Layer::flatten(),
            Layer::dense(4 * 7 * 7, 12, &mut rng),
            Layer::relu(),
            Layer::dense(12, 4, &mut rng),
        ]);
        genesis_like_prune(&mut model);
        let shape = [1usize, 16, 16];
        let calib: Vec<Tensor> = (0..3)
            .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
            .collect();
        let qm = quantize(&mut model, &shape, &calib);
        let x = Tensor::uniform(shape.to_vec(), 0.9, &mut rng);
        let input = qm.quantize_input(&x);
        (qm, input)
    }

    /// Prunes the big FC layer so a sparse-deployed layer exists.
    fn genesis_like_prune(model: &mut Model) {
        let l = &mut model.layers_mut()[4];
        if let Layer::Dense(d) = l {
            let mut mask = Tensor::zeros(d.w.shape().to_vec());
            for (i, m) in mask.data_mut().iter_mut().enumerate() {
                if i % 7 == 0 {
                    *m = 1.0;
                }
            }
            l.set_mask(mask);
        }
    }

    fn spec() -> DeviceSpec {
        DeviceSpec::msp430fr5994()
    }

    #[test]
    fn all_backends_complete_on_continuous_power() {
        let (qm, input) = tiny_qmodel();
        let host_class = fxp::vecops::argmax(&qm.forward_host(&input));
        for b in Backend::paper_suite() {
            let mut dev = Device::new(spec(), PowerSystem::continuous());
            let dm = deploy(&mut dev, &qm).expect("fits");
            dm.load_input(&mut dev, &input);
            let out = run_deployed(&mut dev, &dm, &b);
            assert!(out.completed, "{b} must complete on continuous power");
            // All implementations compute the same network; each matches
            // the host reference of its own rounding order bit for bit.
            let reference = |order| HostReference::new(&qm, order).forward(&input);
            let want = match b {
                Backend::Baseline => qm.forward_host(&input),
                Backend::Tiled(_) | Backend::Sonic => reference(RoundingOrder::LoopOrdered),
                Backend::Tails(_) => {
                    let tile = NonZeroUsize::new(dev.peek_word(dm.calib).into())
                        .expect("TAILS calibrated its tile");
                    reference(RoundingOrder::LeaChunked(tile))
                }
                _ => unreachable!("{b} is not in the paper suite"),
            };
            assert_eq!(out.output, want, "{b}: output differs from its reference");
            assert_eq!(out.class, host_class, "{b}: classification changed");
        }
    }

    #[test]
    fn baseline_matches_host_reference_bit_exactly() {
        let (qm, input) = tiny_qmodel();
        let host = qm.forward_host(&input);
        let out = run_inference(
            &qm,
            &input,
            &spec(),
            PowerSystem::continuous(),
            &Backend::Baseline,
        );
        assert_eq!(out.output, host, "baseline shares the host semantics");
    }

    #[test]
    fn intermittent_sonic_matches_continuous_bit_exactly() {
        let (qm, input) = tiny_qmodel();
        let cont = run_inference(
            &qm,
            &input,
            &spec(),
            PowerSystem::continuous(),
            &Backend::Sonic,
        );
        let inter = run_inference(
            &qm,
            &input,
            &spec(),
            PowerSystem::cap_100uf(),
            &Backend::Sonic,
        );
        assert!(inter.completed, "SONIC must complete on 100 µF");
        assert!(inter.trace.reboots > 0, "test needs real power failures");
        assert_eq!(inter.output, cont.output, "intermittent == continuous");
    }

    #[test]
    fn intermittent_tails_matches_continuous_bit_exactly() {
        let (qm, input) = tiny_qmodel();
        let b = Backend::Tails(TailsConfig::default());
        let cont = run_inference(&qm, &input, &spec(), PowerSystem::continuous(), &b);
        // TAILS is efficient enough that 100 µF never browns out on this
        // tiny model; use a smaller buffer to force failures.
        let inter = run_inference(&qm, &input, &spec(), PowerSystem::harvested(10e-6), &b);
        assert!(inter.completed, "TAILS must complete on 10 µF");
        assert!(inter.trace.reboots > 0, "test needs real power failures");
        assert_eq!(inter.output, cont.output, "intermittent == continuous");
    }

    #[test]
    fn intermittent_tile8_matches_continuous_bit_exactly() {
        let (qm, input) = tiny_qmodel();
        let b = Backend::Tiled(8);
        let cont = run_inference(&qm, &input, &spec(), PowerSystem::continuous(), &b);
        let inter = run_inference(&qm, &input, &spec(), PowerSystem::cap_100uf(), &b);
        assert!(inter.completed, "Tile-8 must complete on 100 µF");
        assert!(inter.trace.reboots > 0, "test needs real power failures");
        assert_eq!(inter.output, cont.output, "intermittent == continuous");
    }

    #[test]
    fn intermittent_stateful_matches_continuous_bit_exactly() {
        let (qm, input) = tiny_qmodel();
        let b = Backend::Stateful;
        let host = qm.forward_host(&input);
        let cont = run_inference(&qm, &input, &spec(), PowerSystem::continuous(), &b);
        assert!(cont.completed, "Stateful must complete on continuous power");
        // The tag/parity fields cost the low 5 bits of every activation,
        // so the output is near the host reference, not bit-equal to it.
        let worst = cont
            .output
            .iter()
            .zip(&host)
            .map(|(a, b)| (a.to_f32() - b.to_f32()).abs())
            .fold(0.0f32, f32::max);
        assert!(worst < 0.05, "embedding cost too much precision: {worst}");
        let inter = run_inference(&qm, &input, &spec(), PowerSystem::cap_100uf(), &b);
        assert!(inter.completed, "Stateful must complete on 100 µF");
        assert!(inter.trace.reboots > 0, "test needs real power failures");
        assert_eq!(inter.output, cont.output, "intermittent == continuous");
    }

    #[test]
    fn stateful_preflight_rejects_models_beyond_the_tag_space() {
        // Seven dense+relu pairs put 8 write passes on one activation
        // buffer — one more than the 7-tag budget.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut layers = Vec::new();
        for _ in 0..7 {
            layers.push(Layer::dense(6, 6, &mut rng));
            layers.push(Layer::relu());
        }
        let mut model = Model::new(layers);
        let shape = [6usize];
        let calib: Vec<Tensor> = (0..2)
            .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
            .collect();
        let qm = quantize(&mut model, &shape, &calib);
        let mut dev = Device::new(spec(), PowerSystem::continuous());
        let dm = deploy(&mut dev, &qm).unwrap();
        let e = preflight_runtime(&mut dev, &dm, &Backend::Stateful)
            .expect_err("8 passes on one buffer must be rejected");
        assert_eq!(e.available, crate::stateful::MAX_PASSES_PER_BUF);
        // The paper-suite backends are unaffected by the pass budget.
        preflight_runtime(&mut dev, &dm, &Backend::Sonic).unwrap();
    }

    #[test]
    fn sonic_is_slower_than_baseline_but_much_faster_than_tiles() {
        let (qm, input) = tiny_qmodel();
        let s = spec();
        let base = run_inference(
            &qm,
            &input,
            &s,
            PowerSystem::continuous(),
            &Backend::Baseline,
        );
        let son = run_inference(&qm, &input, &s, PowerSystem::continuous(), &Backend::Sonic);
        let t8 = run_inference(
            &qm,
            &input,
            &s,
            PowerSystem::continuous(),
            &Backend::Tiled(8),
        );
        let (eb, es, et) = (base.energy_mj(), son.energy_mj(), t8.energy_mj());
        assert!(es > eb, "SONIC adds overhead over base");
        assert!(et > es * 2.0, "tiling should cost much more than SONIC");
    }

    #[test]
    fn tails_calibration_shrinks_on_small_buffers() {
        let (qm, input) = tiny_qmodel();
        let s = spec();
        // Continuous: first candidate survives.
        let mut dev = Device::new(s.clone(), PowerSystem::continuous());
        let dm = deploy(&mut dev, &qm).unwrap();
        dm.load_input(&mut dev, &input);
        let out = run_deployed(&mut dev, &dm, &Backend::Tails(TailsConfig::default()));
        assert!(out.completed);
        let calibrated = dev.peek_word(dm.calib);
        assert_eq!(calibrated, crate::tails::CALIB_INITIAL);
    }

    #[test]
    fn outcome_reports_time_and_energy() {
        let (qm, input) = tiny_qmodel();
        let s = spec();
        let out = run_inference(&qm, &input, &s, PowerSystem::cap_1mf(), &Backend::Sonic);
        assert!(out.completed);
        assert!(out.live_secs(&s) > 0.0);
        assert!(out.total_secs(&s) >= out.live_secs(&s));
        assert!(out.energy_mj() > 0.0);
        assert_eq!(out.verdict.map(|s| s.reboots), Ok(out.trace.reboots));
    }

    #[test]
    fn backend_labels_match_paper() {
        let labels: Vec<String> = Backend::paper_suite().iter().map(|b| b.label()).collect();
        assert_eq!(
            labels,
            vec!["Base", "Tile-8", "Tile-32", "Tile-128", "SONIC", "TAILS"]
        );
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use crate::exec::tests_support::tiny_pruned_qmodel;

    #[test]
    fn sonic_no_undo_matches_sonic_outputs_but_costs_more() {
        let (qm, input) = tiny_pruned_qmodel();
        let spec = DeviceSpec::msp430fr5994();
        let a = run_inference(
            &qm,
            &input,
            &spec,
            PowerSystem::continuous(),
            &Backend::Sonic,
        );
        let b = run_inference(
            &qm,
            &input,
            &spec,
            PowerSystem::continuous(),
            &Backend::SonicNoUndo,
        );
        assert!(a.completed && b.completed);
        assert_eq!(a.output, b.output, "both variants compute the same layer");
        assert!(
            b.trace.live_cycles > a.trace.live_cycles,
            "loop-ordered buffering must waste work on sparse FC: {} vs {}",
            b.trace.live_cycles,
            a.trace.live_cycles
        );
    }

    #[test]
    fn sonic_no_undo_intermittent_matches_continuous() {
        let (qm, input) = tiny_pruned_qmodel();
        let spec = DeviceSpec::msp430fr5994();
        let b = Backend::SonicNoUndo;
        let cont = run_inference(&qm, &input, &spec, PowerSystem::continuous(), &b);
        let inter = run_inference(&qm, &input, &spec, PowerSystem::harvested(8e-6), &b);
        assert!(inter.completed);
        assert!(inter.trace.reboots > 0, "needs real power failures");
        assert_eq!(inter.output, cont.output);
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use dnn::layers::Layer;
    use dnn::model::Model;
    use dnn::quant::quantize;
    use dnn::tensor::Tensor;
    use rand::SeedableRng;

    /// A model whose dominant layer is a heavily pruned (sparse) FC.
    pub(crate) fn tiny_pruned_qmodel() -> (QModel, Vec<Q15>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut model = Model::new(vec![
            Layer::dense(40, 64, &mut rng),
            Layer::relu(),
            Layer::dense(64, 5, &mut rng),
        ]);
        let l = &mut model.layers_mut()[0];
        if let Layer::Dense(d) = l {
            let mut mask = Tensor::zeros(d.w.shape().to_vec());
            for (i, m) in mask.data_mut().iter_mut().enumerate() {
                if i % 9 == 0 {
                    *m = 1.0;
                }
            }
            l.set_mask(mask);
        }
        let shape = [40usize];
        let calib: Vec<Tensor> = (0..3)
            .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
            .collect();
        let qm = quantize(&mut model, &shape, &calib);
        let x = Tensor::uniform(shape.to_vec(), 0.9, &mut rng);
        let input = qm.quantize_input(&x);
        (qm, input)
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use dnn::layers::Layer;
    use dnn::model::Model;
    use dnn::quant::quantize;
    use dnn::tensor::Tensor;
    use rand::SeedableRng;

    /// A conv layer where one filter is pruned to ZERO taps: the SONIC
    /// finishing pass must still write that filter's plane (bias only),
    /// and intermittent execution must stay bit-exact.
    #[test]
    fn fully_pruned_filter_still_produces_its_plane() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let mut model = Model::new(vec![
            Layer::conv2d(3, 1, 3, 3, &mut rng),
            Layer::flatten(),
            Layer::dense(3 * 6 * 6, 4, &mut rng),
        ]);
        // Zero out filter 1 entirely; keep the layer sparse.
        let l = &mut model.layers_mut()[0];
        if let Layer::Conv2d(c) = l {
            let mut mask = Tensor::zeros(c.filters.shape().to_vec());
            for (i, m) in mask.data_mut().iter_mut().enumerate() {
                // filter index = i / 9; keep filters 0 and 2 sparse-ish.
                let f = i / 9;
                if f != 1 && i % 3 == 0 {
                    *m = 1.0;
                }
            }
            l.set_mask(mask);
        }
        let shape = [1usize, 8, 8];
        let calib: Vec<Tensor> = (0..2)
            .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
            .collect();
        let qm = quantize(&mut model, &shape, &calib);
        assert!(qm.layers[0].is_sparse(), "conv should deploy sparse");
        let x = Tensor::uniform(shape.to_vec(), 0.9, &mut rng);
        let input = qm.quantize_input(&x);
        let spec = DeviceSpec::msp430fr5994();
        let host = qm.forward_host(&input);
        for b in [Backend::Sonic, Backend::Tiled(16)] {
            let cont = run_inference(&qm, &input, &spec, PowerSystem::continuous(), &b);
            assert!(cont.completed, "{b}");
            // Same classification as the host reference.
            assert_eq!(cont.class, fxp::vecops::argmax(&host), "{b}");
            let inter = run_inference(&qm, &input, &spec, PowerSystem::harvested(6e-6), &b);
            assert!(inter.completed, "{b} intermittent");
            assert_eq!(inter.output, cont.output, "{b} bit-exactness");
        }
    }

    /// Repeated inferences on one deployed model: control words must
    /// self-reset so back-to-back runs agree.
    #[test]
    fn repeated_inferences_on_one_deployment_agree() {
        let (qm, input) = crate::exec::tests_support::tiny_pruned_qmodel();
        let spec = DeviceSpec::msp430fr5994();
        let mut dev = Device::new(spec, PowerSystem::continuous());
        let dm = crate::deploy::deploy(&mut dev, &qm).unwrap();
        // The activation buffers ping-pong, so the (consumed) input is
        // clobbered by later layers: each inference starts by loading its
        // reading, exactly as a sensor pipeline would.
        dm.load_input(&mut dev, &input);
        let first = run_deployed(&mut dev, &dm, &Backend::Sonic);
        dm.load_input(&mut dev, &input);
        let second = run_deployed(&mut dev, &dm, &Backend::Sonic);
        assert!(first.completed && second.completed);
        assert_eq!(first.output, second.output, "state must self-reset");
    }

    /// Regression test for the cumulative-trace bug: `run_deployed` used
    /// to report the device-lifetime trace, so the second of two
    /// identical runs reported double the energy and live time.
    #[test]
    fn back_to_back_runs_report_per_run_traces_not_cumulative() {
        let (qm, input) = crate::exec::tests_support::tiny_pruned_qmodel();
        let spec = DeviceSpec::msp430fr5994();

        // Continuous power: the second run must report the same (not
        // doubled) energy and live cycles, and zero dead time/reboots.
        let mut dev = Device::new(spec.clone(), PowerSystem::continuous());
        let dm = crate::deploy::deploy(&mut dev, &qm).unwrap();
        dm.load_input(&mut dev, &input);
        let first = run_deployed(&mut dev, &dm, &Backend::Sonic);
        dm.load_input(&mut dev, &input);
        let second = run_deployed(&mut dev, &dm, &Backend::Sonic);
        assert!(first.completed && second.completed);
        assert!(first.trace.total_energy_pj > 0);
        assert_eq!(first.trace.total_energy_pj, second.trace.total_energy_pj);
        assert_eq!(first.trace.live_cycles, second.trace.live_cycles);
        assert_eq!(first.trace.dead_secs, second.trace.dead_secs);
        assert_eq!(first.trace.reboots, second.trace.reboots);

        // Harvested power with real reboots: drain and reboot before each
        // run (outside any epoch) so both runs start from the identical
        // post-boot charge — identical physics, so *all four* per-run
        // quantities must match exactly, including dead seconds and
        // reboots.
        let mut dev = Device::new(spec, PowerSystem::harvested(8e-6));
        let dm = crate::deploy::deploy(&mut dev, &qm).unwrap();
        while dev.consume(mcu::Op::Nop).is_ok() {}
        dev.reboot().unwrap();
        dm.load_input(&mut dev, &input);
        let first = run_deployed(&mut dev, &dm, &Backend::Sonic);
        assert!(first.completed);
        assert!(first.trace.reboots > 0, "test needs real power failures");
        while dev.consume(mcu::Op::Nop).is_ok() {}
        dev.reboot().unwrap();
        dm.load_input(&mut dev, &input);
        let second = run_deployed(&mut dev, &dm, &Backend::Sonic);
        assert!(second.completed);
        assert_eq!(first.trace.total_energy_pj, second.trace.total_energy_pj);
        assert_eq!(first.trace.live_cycles, second.trace.live_cycles);
        assert_eq!(first.trace.reboots, second.trace.reboots);
        assert_eq!(first.trace.dead_secs, second.trace.dead_secs);
    }
}
