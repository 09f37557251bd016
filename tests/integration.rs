//! Cross-crate integration tests: the full pipeline from training through
//! GENESIS compression to intermittent on-device inference.

use rand::SeedableRng;
use sonic_tails::dnn::layers::Layer;
use sonic_tails::dnn::model::Model;
use sonic_tails::dnn::quant::{quantize, HostReference, RoundingOrder};
use sonic_tails::dnn::tensor::Tensor;
use sonic_tails::dnn::train::{toy_blobs, train, TrainConfig};
use sonic_tails::genesis::imp::WILDLIFE;
use sonic_tails::genesis::search::{apply_knobs, PlanKnobs};
use sonic_tails::mcu::{Device, DeviceSpec, PowerSystem};
use sonic_tails::sonic::deploy;
use sonic_tails::sonic::exec::{run_deployed, run_inference, Backend, TailsConfig};
use std::num::NonZeroUsize;

/// A trained, pruned, quantized model plus one test input.
fn pipeline_model() -> (sonic_tails::dnn::quant::QModel, Vec<fxp::Q15>, usize) {
    let data = toy_blobs(40, 3, 27, 7);
    let (train_set, test_set) = data.split(0.8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let base = Model::new(vec![
        Layer::conv2d(3, 3, 1, 3, &mut rng), // treat the 27-dim input as [3,1,9]
        Layer::relu(),
        Layer::flatten(),
        Layer::dense(3 * 7, 16, &mut rng),
        Layer::relu(),
        Layer::dense(16, 3, &mut rng),
    ]);
    let knobs = PlanKnobs {
        conv_sep: None,
        conv_density: 1.0,
        fc_rank: None,
        fc_density: 0.3, // force a sparse FC layer into the pipeline
    };
    let mut compressed = apply_knobs(&base, &knobs);
    // Re-train on reshaped data.
    let reshaped = reshape_dataset(&train_set);
    train(
        &mut compressed,
        &reshaped,
        &TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        },
    );
    let calib: Vec<Tensor> = (0..4).map(|i| reshaped.input(i)).collect();
    let qm = quantize(&mut compressed, &[3, 1, 9], &calib);
    let test_reshaped = reshape_dataset(&test_set);
    let input = qm.quantize_input(&test_reshaped.input(0));
    (qm, input, test_reshaped.label(0))
}

fn reshape_dataset(d: &sonic_tails::dnn::data::Dataset) -> sonic_tails::dnn::data::Dataset {
    let inputs: Vec<Vec<f32>> = (0..d.len()).map(|i| d.input(i).into_vec()).collect();
    let labels: Vec<usize> = (0..d.len()).map(|i| d.label(i)).collect();
    sonic_tails::dnn::data::Dataset::new(vec![3, 1, 9], inputs, labels, d.num_classes())
}

#[test]
fn full_pipeline_all_backends_agree_on_continuous_power() {
    let (qm, input, _) = pipeline_model();
    let spec = DeviceSpec::msp430fr5994();
    let host_class = fxp::vecops::argmax(&qm.forward_host(&input));
    for b in Backend::paper_suite() {
        let mut dev = Device::new(spec.clone(), PowerSystem::continuous());
        let dm = deploy(&mut dev, &qm).expect("fits");
        dm.load_input(&mut dev, &input);
        let out = run_deployed(&mut dev, &dm, &b);
        assert!(out.completed, "{b} failed");
        // Each backend's logits equal its rounding order's host reference.
        let order = match b {
            Backend::Baseline => RoundingOrder::Exact,
            Backend::Tiled(_) | Backend::Sonic => RoundingOrder::LoopOrdered,
            Backend::Tails(_) => RoundingOrder::LeaChunked(
                NonZeroUsize::new(dev.peek_word(dm.calib).into()).expect("TAILS calibrated"),
            ),
            _ => unreachable!("{b} is not in the paper suite"),
        };
        let want = HostReference::new(&qm, order).forward(&input);
        assert_eq!(out.output, want, "{b} output differs from its reference");
        assert_eq!(out.class, host_class, "{b} classification mismatch");
    }
}

#[test]
fn full_pipeline_intermittent_equals_continuous_for_protected_backends() {
    let (qm, input, _) = pipeline_model();
    let spec = DeviceSpec::msp430fr5994();
    for b in [
        Backend::Sonic,
        Backend::Tiled(8),
        Backend::Tiled(32),
        Backend::Tails(TailsConfig::default()),
    ] {
        let cont = run_inference(&qm, &input, &spec, PowerSystem::continuous(), &b);
        // Sweep several buffer sizes: different failure points every time.
        for cap in [4e-6, 10e-6, 60e-6] {
            let inter = run_inference(&qm, &input, &spec, PowerSystem::harvested(cap), &b);
            assert!(inter.completed, "{b} @ {cap}F must complete");
            assert_eq!(
                inter.output, cont.output,
                "{b} @ {cap}F: intermittent result differs from continuous"
            );
        }
    }
}

#[test]
fn imp_model_prefers_efficient_inference() {
    // The analytical model and the measured energies compose: cheaper
    // inference yields strictly better IMpJ at equal accuracy.
    let a = WILDLIFE.inference_impj(26.0, 0.95, 0.95);
    let b = WILDLIFE.inference_impj(198.0, 0.95, 0.95);
    assert!(a > b);
}

#[test]
fn energy_ordering_matches_paper_shape() {
    let (qm, input, _) = pipeline_model();
    let spec = DeviceSpec::msp430fr5994();
    let energy =
        |b: &Backend| run_inference(&qm, &input, &spec, PowerSystem::continuous(), b).energy_mj();
    let base = energy(&Backend::Baseline);
    let sonic = energy(&Backend::Sonic);
    let tile8 = energy(&Backend::Tiled(8));
    let tile128 = energy(&Backend::Tiled(128));
    assert!(sonic > base, "SONIC pays an intermittence tax over base");
    // On this tiny model the planes are smaller than the large tile, so
    // Tile-8 vs Tile-128 ordering is not meaningful here (the full-size
    // ordering is exercised by the fig09 bench); both must cost well more
    // than SONIC, which is the paper's structural claim.
    assert!(
        tile8 > sonic && tile128 > sonic,
        "tiling must cost more than SONIC"
    );
}
