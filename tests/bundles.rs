//! Bundle/scalar equivalence: golden digests recorded from the original
//! scalar (one-`consume`-per-op) accounting path, pinned against the
//! bundled fast path.
//!
//! Every scenario digest covers the complete observable result of a run:
//! the output logits, completion/error state, reboot count, live cycles,
//! dead seconds (bit pattern), total energy, and the full per-region
//! trace breakdown (kernel/control cycles and energy, index-write energy,
//! and the per-op energy table). If bundled accounting ever charges a
//! different op count, lands a brown-out on a different op, or perturbs a
//! single Q15 output anywhere, the digest moves.
//!
//! Regenerate (after an *intentional* accounting change) with:
//! `GOLDEN_PRINT=1 cargo test --test bundles -- --nocapture`

use rand::SeedableRng;
use sonic_tails::dnn::layers::Layer;
use sonic_tails::dnn::model::Model;
use sonic_tails::dnn::quant::{quantize, QModel};
use sonic_tails::dnn::tensor::Tensor;
use sonic_tails::fxp::Q15;
use sonic_tails::intermittent::{AlpacaRt, RuntimeCtx, TaskGraph, TaskId, Transition};
use sonic_tails::mcu::{Device, DeviceSpec, HarvestProfile, Op, PowerSystem, TraceReport};
use sonic_tails::sonic::exec::{run_inference, Backend, InferenceOutcome, TailsConfig};
use sonic_tails::sonic::{deploy, tiled};

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x1000_0000_01b3);
    }
}

/// FNV-1a over every bit-relevant field of an inference outcome,
/// including the full per-region trace attribution.
fn outcome_digest(o: &InferenceOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, o.completed as u64);
    fnv(&mut h, o.output.len() as u64);
    for q in &o.output {
        fnv(&mut h, q.raw() as u16 as u64);
    }
    fnv(&mut h, o.class.map(|c| c as u64 + 1).unwrap_or(0));
    fnv_trace(&mut h, &o.trace);
    match &o.verdict {
        Ok(s) => {
            fnv(&mut h, s.transitions);
            fnv(&mut h, s.body_attempts);
            fnv(&mut h, s.reboots);
        }
        Err(f) => {
            for b in f.error.to_string().bytes() {
                fnv(&mut h, b as u64);
            }
        }
    }
    h
}

/// Folds a trace report into `h`: totals plus the full per-region
/// breakdown.
fn fnv_trace(h: &mut u64, t: &TraceReport) {
    fnv(h, t.live_cycles);
    fnv(h, t.dead_secs.to_bits());
    fnv(h, t.reboots);
    fnv(h, t.total_energy_pj);
    for r in &t.regions {
        for b in r.name.as_bytes() {
            fnv(h, *b as u64);
        }
        fnv(h, r.kernel_cycles);
        fnv(h, r.control_cycles);
        fnv(h, r.kernel_energy_pj);
        fnv(h, r.control_energy_pj);
        fnv(h, r.index_write_energy_pj);
        for (op, e) in &r.energy_by_op {
            fnv(h, op.index() as u64);
            fnv(h, *e);
        }
    }
}

/// CNN with dense conv, relu, pool, a pruned (sparse) FC, and a dense FC:
/// every SONIC/TAILS kernel kind in one network.
fn model_cnn() -> (QModel, Vec<Q15>) {
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
    if let Layer::Dense(d) = &mut model.layers_mut()[4] {
        let mut mask = Tensor::zeros(d.w.shape().to_vec());
        for (i, m) in mask.data_mut().iter_mut().enumerate() {
            if i % 7 == 0 {
                *m = 1.0;
            }
        }
        model.layers_mut()[4].set_mask(mask);
    }
    let shape = [1usize, 16, 16];
    let calib: Vec<Tensor> = (0..3)
        .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
        .collect();
    let qm = quantize(&mut model, &shape, &calib);
    let x = Tensor::uniform(shape.to_vec(), 0.9, &mut rng);
    let input = qm.quantize_input(&x);
    (qm, input)
}

/// Sparse conv (one filter pruned to zero taps) + dense FC.
fn model_sparse_conv() -> (QModel, Vec<Q15>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let mut model = Model::new(vec![
        Layer::conv2d(3, 1, 3, 3, &mut rng),
        Layer::flatten(),
        Layer::dense(3 * 6 * 6, 4, &mut rng),
    ]);
    if let Layer::Conv2d(c) = &mut model.layers_mut()[0] {
        let mut mask = Tensor::zeros(c.filters.shape().to_vec());
        for (i, m) in mask.data_mut().iter_mut().enumerate() {
            let f = i / 9;
            if f != 1 && i % 3 == 0 {
                *m = 1.0;
            }
        }
        model.layers_mut()[0].set_mask(mask);
    }
    let shape = [1usize, 8, 8];
    let calib: Vec<Tensor> = (0..2)
        .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
        .collect();
    let qm = quantize(&mut model, &shape, &calib);
    let x = Tensor::uniform(shape.to_vec(), 0.9, &mut rng);
    let input = qm.quantize_input(&x);
    (qm, input)
}

/// Heavily pruned FC-only model (the sparse undo-logging hot case).
fn model_sparse_fc() -> (QModel, Vec<Q15>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let mut model = Model::new(vec![
        Layer::dense(40, 64, &mut rng),
        Layer::relu(),
        Layer::dense(64, 5, &mut rng),
    ]);
    if let Layer::Dense(d) = &mut model.layers_mut()[0] {
        let mut mask = Tensor::zeros(d.w.shape().to_vec());
        for (i, m) in mask.data_mut().iter_mut().enumerate() {
            if i % 9 == 0 {
                *m = 1.0;
            }
        }
        model.layers_mut()[0].set_mask(mask);
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

fn backends() -> Vec<Backend> {
    vec![
        Backend::Baseline,
        Backend::Tiled(8),
        Backend::Tiled(32),
        Backend::Sonic,
        Backend::SonicNoUndo,
        Backend::Tails(TailsConfig::default()),
        Backend::Tails(TailsConfig {
            use_lea: false,
            use_dma: true,
        }),
        Backend::Tails(TailsConfig {
            use_lea: true,
            use_dma: false,
        }),
        // All-software TAILS: the only configuration where every
        // software staging/FIR/add sequence in the row bundles is active
        // at once (the paper's LEA/DMA ablation baseline). Pinned after
        // the refactor — each flag's software path is covered
        // scalar-vs-bundled by the two configs above; this guards the
        // combination against future drift.
        Backend::Tails(TailsConfig {
            use_lea: false,
            use_dma: false,
        }),
    ]
}

fn powers() -> Vec<PowerSystem> {
    vec![
        // Continuous: the pure-throughput path, no brown-outs.
        PowerSystem::continuous(),
        // Small buffer: thousands of brown-outs, most landing mid-loop
        // (mid-bundle in the bundled implementation).
        PowerSystem::harvested(8e-6),
        // Time-varying occlusion: recharge times depend on the absolute
        // failure time, so op-exact execution is required for dead_secs
        // to reproduce bit-for-bit.
        PowerSystem::harvested_with(
            6e-6,
            HarvestProfile::Square {
                high_w: 150e-6,
                low_w: 0.0,
                period_s: 0.02,
                duty: 0.5,
            },
        ),
    ]
}

/// Golden digests recorded from the scalar accounting path (one
/// `Device::consume` per op), scenario order: model-major, then power,
/// then backend (see `scenarios`).
const GOLDEN: &[u64] = &[
    0x49201878fa46a2a1, // cnn/Cont/Base
    0xc1d5dad1a65b14e1, // cnn/Cont/Tile-8
    0x0e9d260ffd271ff9, // cnn/Cont/Tile-32
    0x38ab1e21b0ee93af, // cnn/Cont/SONIC
    0xc36584804f3ec3d2, // cnn/Cont/SONIC-no-undo
    0x721b0379e77227a8, // cnn/Cont/TAILS
    0x9e0e8531c155dff7, // cnn/Cont/TAILS(lea=0,dma=1)
    0x9f2c5b4dd5e10f16, // cnn/Cont/TAILS(lea=1,dma=0)
    0x6afdb38e0bba16ed, // cnn/Cont/TAILS(lea=0,dma=0)
    0x2f6e77961bccc126, // cnn/8uF/Base
    0xd19818b81c285c23, // cnn/8uF/Tile-8
    0x3f3eb375986af337, // cnn/8uF/Tile-32
    0x7638934f4cfd8bc4, // cnn/8uF/SONIC
    0x60822d02514112a0, // cnn/8uF/SONIC-no-undo
    0x194c9e6a4d6d0c45, // cnn/8uF/TAILS
    0xfa44dd6f8bb172c9, // cnn/8uF/TAILS(lea=0,dma=1)
    0x99d70168ef2c919b, // cnn/8uF/TAILS(lea=1,dma=0)
    0x7bcdec82ea84bea6, // cnn/8uF/TAILS(lea=0,dma=0)
    0x31452d84cbf48b40, // cnn/6uF~sq/Base
    0x50d2dcd241abe5b0, // cnn/6uF~sq/Tile-8
    0x276725121a1f978c, // cnn/6uF~sq/Tile-32
    0x8427fba274570817, // cnn/6uF~sq/SONIC
    0xfa4872390aa0177a, // cnn/6uF~sq/SONIC-no-undo
    0x5771a4147621fe62, // cnn/6uF~sq/TAILS
    0x8a384b845ec1c682, // cnn/6uF~sq/TAILS(lea=0,dma=1)
    0x10377013c35490ab, // cnn/6uF~sq/TAILS(lea=1,dma=0)
    0x56cc7664af43b51f, // cnn/6uF~sq/TAILS(lea=0,dma=0)
    0x03cb865eb89d782e, // sparse-conv/Cont/Base
    0x649cbf1464e52879, // sparse-conv/Cont/Tile-8
    0x563cf1ff6eb2914e, // sparse-conv/Cont/Tile-32
    0xe530aab1ec1b5b0e, // sparse-conv/Cont/SONIC
    0xe530aab1ec1b5b0e, // sparse-conv/Cont/SONIC-no-undo
    0xad601305ed1bd9dd, // sparse-conv/Cont/TAILS
    0x409265ff3a07d21e, // sparse-conv/Cont/TAILS(lea=0,dma=1)
    0xc5703ad2d34ba356, // sparse-conv/Cont/TAILS(lea=1,dma=0)
    0x72cf6f92b4124b78, // sparse-conv/Cont/TAILS(lea=0,dma=0)
    0x545f0bbb0a57c686, // sparse-conv/8uF/Base
    0x0dab50afbe6f9c1b, // sparse-conv/8uF/Tile-8
    0x73459be8bfffbde4, // sparse-conv/8uF/Tile-32
    0x6835043151073419, // sparse-conv/8uF/SONIC
    0x6835043151073419, // sparse-conv/8uF/SONIC-no-undo
    0xc66059e833db89ff, // sparse-conv/8uF/TAILS
    0x22b500601504b903, // sparse-conv/8uF/TAILS(lea=0,dma=1)
    0x1ea0c2e68370084c, // sparse-conv/8uF/TAILS(lea=1,dma=0)
    0x100aa3a57141bd4c, // sparse-conv/8uF/TAILS(lea=0,dma=0)
    0x3eae309f6c603f77, // sparse-conv/6uF~sq/Base
    0xbffd56153f94467b, // sparse-conv/6uF~sq/Tile-8
    0xbd6eafda31f336e5, // sparse-conv/6uF~sq/Tile-32
    0x336deccb88763980, // sparse-conv/6uF~sq/SONIC
    0x336deccb88763980, // sparse-conv/6uF~sq/SONIC-no-undo
    0xa93137c9bf764275, // sparse-conv/6uF~sq/TAILS
    0xba67db7096195c59, // sparse-conv/6uF~sq/TAILS(lea=0,dma=1)
    0x249e18df977dfbde, // sparse-conv/6uF~sq/TAILS(lea=1,dma=0)
    0x07996ba165839999, // sparse-conv/6uF~sq/TAILS(lea=0,dma=0)
    0xf3be95f59c376a1b, // sparse-fc/Cont/Base
    0xe1e274eeb94e38ec, // sparse-fc/Cont/Tile-8
    0x7bdc1d0fe92587f2, // sparse-fc/Cont/Tile-32
    0x40ca77be1c8cb940, // sparse-fc/Cont/SONIC
    0xea88cede8e39a1e3, // sparse-fc/Cont/SONIC-no-undo
    0x2a54694d58861c08, // sparse-fc/Cont/TAILS
    0xe7a99b697fa90127, // sparse-fc/Cont/TAILS(lea=0,dma=1)
    0x7003f81db71b624d, // sparse-fc/Cont/TAILS(lea=1,dma=0)
    0xafced23a8247676f, // sparse-fc/Cont/TAILS(lea=0,dma=0)
    0x8247a89b9794f36f, // sparse-fc/8uF/Base
    0xf21e33586b7973cf, // sparse-fc/8uF/Tile-8
    0x900f8b3ce4a750f9, // sparse-fc/8uF/Tile-32
    0x2b8c4762b8a5abe4, // sparse-fc/8uF/SONIC
    0xf83bc5e88cb6b110, // sparse-fc/8uF/SONIC-no-undo
    0xc3169210a81ae4d5, // sparse-fc/8uF/TAILS
    0xe6779d201c54144e, // sparse-fc/8uF/TAILS(lea=0,dma=1)
    0x60744a3af301ece7, // sparse-fc/8uF/TAILS(lea=1,dma=0)
    0xb3a64999039f7827, // sparse-fc/8uF/TAILS(lea=0,dma=0)
    0xa154b16617118e1e, // sparse-fc/6uF~sq/Base
    0xbe3a63e5e75f6437, // sparse-fc/6uF~sq/Tile-8
    0x2cd34f1bc4d5c2fb, // sparse-fc/6uF~sq/Tile-32
    0x71fafbbf7b97cd23, // sparse-fc/6uF~sq/SONIC
    0x278a58d81697b773, // sparse-fc/6uF~sq/SONIC-no-undo
    0x17cd80dea55e21f5, // sparse-fc/6uF~sq/TAILS
    0xd16b29079c533be7, // sparse-fc/6uF~sq/TAILS(lea=0,dma=1)
    0xc28bbb3ed519e631, // sparse-fc/6uF~sq/TAILS(lea=1,dma=0)
    0x099d899b14b1b04b, // sparse-fc/6uF~sq/TAILS(lea=0,dma=0)
];

/// Golden digests for the stateful progress-embedding backend, recorded
/// from its scalar accounting path the same way (kept out of [`GOLDEN`]
/// so the historical 81-scenario table stays byte-identical). Scenario
/// order: model-major, then power.
const GOLDEN_STATEFUL: &[u64] = &[
    0xd82b5456914b5bc3, // cnn/Cont/Stateful
    0xbfc78c6343e1d092, // cnn/8uF/Stateful
    0xfec453cc0240a9f1, // cnn/6uF~sq/Stateful
    0xa1f0332a8dfd638e, // sparse-conv/Cont/Stateful
    0xa6331233dfbf68b2, // sparse-conv/8uF/Stateful
    0x58a193445644f13c, // sparse-conv/6uF~sq/Stateful
    0x9134aa103c529c28, // sparse-fc/Cont/Stateful
    0x6ef181710f6ce8df, // sparse-fc/8uF/Stateful
    0x59fd8f2bf1146609, // sparse-fc/6uF~sq/Stateful
];

fn scenario_digests(backends: &[Backend]) -> Vec<(String, u64)> {
    let spec = DeviceSpec::msp430fr5994();
    let mut out = Vec::new();
    for (mname, (qm, input)) in [
        ("cnn", model_cnn()),
        ("sparse-conv", model_sparse_conv()),
        ("sparse-fc", model_sparse_fc()),
    ] {
        for power in powers() {
            for b in backends {
                let o = run_inference(&qm, &input, &spec, power.clone(), b);
                out.push((
                    format!("{mname}/{}/{}", power.label(), b.label()),
                    outcome_digest(&o),
                ));
            }
        }
    }
    out
}

fn scenarios() -> Vec<(String, u64)> {
    scenario_digests(&backends())
}

fn check_golden(got: &[(String, u64)], golden: &[u64]) {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (name, d) in got {
            println!("    {d:#018x}, // {name}");
        }
        return;
    }
    assert_eq!(got.len(), golden.len(), "scenario list changed");
    for ((name, d), g) in got.iter().zip(golden) {
        assert_eq!(
            d, g,
            "{name}: trace/output digest diverged from the scalar path"
        );
    }
}

#[test]
fn backend_traces_match_scalar_golden_digests() {
    check_golden(&scenarios(), GOLDEN);
}

#[test]
fn stateful_traces_match_scalar_golden_digests() {
    check_golden(&scenario_digests(&[Backend::Stateful]), GOLDEN_STATEFUL);
}

// ----- Alpaca body settle shortfall ----------------------------------
//
// A Tile-N body runs host-side and settles its op tape at the end; when
// the buffer cannot cover the tape the settle must brown out on exactly
// the op a one-consume-per-op execution dies on. The sweep below lands
// that shortfall on every op of one mid-layer body, and pins what each
// crash leaves behind against values recorded from the
// record-the-whole-sequence implementation.

/// Drives `steps` bodies of `g` to a committed transition (rebooting
/// through any brown-out, as the scheduler would) and returns the task
/// the next body belongs to.
fn drive_bodies(
    g: &mut TaskGraph<AlpacaRt>,
    rt: &mut AlpacaRt,
    dev: &mut Device,
    steps: usize,
) -> TaskId {
    let mut cur = 0;
    for _ in 0..steps {
        let t = loop {
            match g.run_body(cur, dev, rt) {
                Ok(t) => break t,
                Err(_) => {
                    rt.on_power_failure(dev, false);
                    dev.reboot().expect("harvester refills");
                }
            }
        };
        while rt
            .commit(dev)
            .and_then(|_| dev.consume(Op::TaskTransition))
            .is_err()
        {
            rt.on_power_failure(dev, true);
            dev.reboot().expect("harvester refills");
        }
        rt.after_commit(dev);
        match t {
            Transition::To(next) => cur = next,
            Transition::Done => panic!("model finished before the swept body"),
        }
    }
    cur
}

/// Sweeps the starting charge of one Tile-`tile` body on a 100 uF device
/// in `Nop`-sized steps, from enough to settle the whole tape down to
/// nothing. Every op the body charges costs at least one `Nop`, so the
/// sweep browns out at every op of the body. Returns the digest over all
/// trials (completion, `ops_consumed`, the brown-out's op index relative
/// to the body, the epoch report and the FRAM image), the body's op
/// count, and the number of distinct body ops a brown-out landed on.
fn shortfall_sweep(tile: u32) -> (u64, u64, u64) {
    let (qm, input) = model_cnn();
    let mut dev = Device::new(DeviceSpec::msp430fr5994(), PowerSystem::cap_100uf());
    let dm = deploy(&mut dev, &qm).expect("model fits");
    dm.load_input(&mut dev, &input);
    let mut rt = AlpacaRt::new(&mut dev).expect("FRAM for commit flag");
    let mut g = tiled::build(&dm, tile);
    let id = drive_bodies(&mut g, &mut rt, &mut dev, 30);
    let nop_pj = dev.spec().costs.cost(Op::Nop).energy_pj;

    // The whole body's energy and op count, from a run that settles.
    let (body_pj, body_ops) = {
        let (mut d, mut r) = (dev.clone(), rt.clone());
        let (c0, o0) = (d.charge_pj(), d.ops_consumed());
        g.run_body(id, &mut d, &mut r)
            .expect("a full buffer settles");
        (c0 - d.charge_pj(), d.ops_consumed() - o0)
    };
    let first = (dev.charge_pj() - body_pj).saturating_sub(nop_pj) / nop_pj;
    let last = dev.charge_pj() / nop_pj;

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut hit = std::collections::BTreeSet::new();
    for k in first..=last {
        let (mut d, mut r) = (dev.clone(), rt.clone());
        d.begin_epoch();
        d.consume_n(Op::Nop, k)
            .expect("drain stays within the buffer");
        let start = d.ops_consumed();
        let ok = g.run_body(id, &mut d, &mut r).is_ok();
        fnv(&mut h, ok as u64);
        fnv(&mut h, d.ops_consumed() - start);
        if !ok {
            let b = d.last_brownout().expect("a failed settle browns out");
            assert!(!b.injected, "no fault plan is armed");
            fnv(&mut h, b.op_index - start);
            fnv(&mut h, b.op.index() as u64);
            hit.insert(b.op_index - start);
        }
        fnv_trace(&mut h, &d.epoch_report());
        for w in d.fram_image() {
            fnv(&mut h, *w as u16 as u64);
        }
    }
    (h, body_ops, hit.len() as u64)
}

/// Golden `(tile, sweep digest, body ops)` recorded from the
/// implementation that taped every body's full op sequence.
const GOLDEN_SHORTFALL: &[(u32, u64, u64)] =
    &[(8, 0x955049eaba82981c, 337), (32, 0xdc8385d86ca8a08f, 1244)];

#[test]
fn tiled_settle_shortfall_browns_out_on_the_scalar_op() {
    for &(tile, golden, golden_ops) in GOLDEN_SHORTFALL {
        let (digest, body_ops, hit) = shortfall_sweep(tile);
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("    ({tile}, {digest:#018x}, {body_ops}),");
            continue;
        }
        assert_eq!(body_ops, golden_ops, "Tile-{tile}: body op count moved");
        assert_eq!(
            hit, body_ops,
            "Tile-{tile}: sweep must brown out at every body op"
        );
        assert_eq!(
            digest, golden,
            "Tile-{tile}: a shortfall crash state diverged"
        );
    }
}
