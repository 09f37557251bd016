//! Simulator-throughput smoke: µs per simulated inference per backend.
//!
//! Measures end-to-end `run_inference` (deploy + schedule + metered
//! execution) on the energy-metered device model for the four headline
//! backends — the denominator of every fleet-scale experiment. The
//! workload matches the `kernels` bench's backend section, so results are
//! directly comparable with `BENCH_01.json`'s `simulator_backends_us`
//! (scalar accounting) and `BENCH_03.json` (bundled accounting).
//!
//! The lockstep section sweeps the batching lane width (1/4/8) over a
//! 32-input batch per backend via [`sonic::run_inference_batch`]: lane
//! width 1 is all metered runs, width L serves `(L-1)/L` of the runs as
//! bit-exact host-reference twins once the trace fixed point settles (see
//! `sonic::lockstep`). Same outcomes at every width; only the µs per
//! simulated inference moves.
//!
//! `CRITERION_QUICK=1` shrinks the measurement budget for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use dnn::layers::Layer;
use dnn::model::Model;
use dnn::quant::quantize;
use dnn::tensor::Tensor;
use mcu::{DeviceSpec, PowerSystem};
use rand::SeedableRng;
use sonic::exec::{run_inference, Backend, TailsConfig};
use sonic::run_inference_batch;

fn tiny() -> (dnn::quant::QModel, Vec<fxp::Q15>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut m = Model::new(vec![
        Layer::conv2d(4, 1, 3, 3, &mut rng),
        Layer::relu(),
        Layer::flatten(),
        Layer::dense(4 * 10 * 10, 6, &mut rng),
    ]);
    let shape = [1usize, 12, 12];
    let calib: Vec<Tensor> = (0..2)
        .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
        .collect();
    let qm = quantize(&mut m, &shape, &calib);
    let x = Tensor::uniform(shape.to_vec(), 0.9, &mut rng);
    let input = qm.quantize_input(&x);
    (qm, input)
}

fn bench_sim(c: &mut Criterion) {
    println!("== simulator throughput: µs per simulated inference ==");
    let (qm, input) = tiny();
    let spec = DeviceSpec::msp430fr5994();
    for b in [
        Backend::Baseline,
        Backend::Sonic,
        Backend::Tiled(32),
        Backend::Tails(TailsConfig::default()),
    ] {
        let id = format!("sim-{}", b.label());
        c.bench_function(&id, |bench| {
            bench.iter(|| {
                std::hint::black_box(run_inference(
                    &qm,
                    &input,
                    &spec,
                    PowerSystem::continuous(),
                    &b,
                ))
            })
        });
        if let Some(ns) = c.median_ns(&id) {
            println!("    {}: {:.2} us/inference", b.label(), ns / 1e3);
        }
    }
}

fn bench_sim_batched(c: &mut Criterion) {
    const BATCH: usize = 32;
    println!("== lockstep batching: µs per simulated inference over a {BATCH}-input batch ==");
    let (qm, _) = tiny();
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let inputs: Vec<Vec<fxp::Q15>> = (0..BATCH)
        .map(|_| qm.quantize_input(&Tensor::uniform(vec![1, 12, 12], 0.9, &mut rng)))
        .collect();
    let spec = DeviceSpec::msp430fr5994();
    let mut geomean_log = 0.0f64;
    let mut geomean_n = 0u32;
    for b in [
        Backend::Baseline,
        Backend::Sonic,
        Backend::Tiled(32),
        Backend::Tails(TailsConfig::default()),
    ] {
        let mut per_lane: Vec<(usize, f64)> = Vec::new();
        for lanes in [1usize, 4, 8] {
            let id = format!("sim-batch-{}-l{lanes}", b.label());
            c.bench_function(&id, |bench| {
                bench.iter(|| {
                    std::hint::black_box(run_inference_batch(
                        &qm,
                        &inputs,
                        &spec,
                        PowerSystem::continuous(),
                        &b,
                        lanes,
                    ))
                })
            });
            if let Some(ns) = c.median_ns(&id) {
                let us = ns / 1e3 / BATCH as f64;
                println!("    {} lanes={}: {:.2} us/inference", b.label(), lanes, us);
                per_lane.push((lanes, us));
            }
        }
        if let (Some((_, scalar)), Some((l, wide))) = (per_lane.first(), per_lane.last()) {
            if *l > 1 && *wide > 0.0 {
                let speedup = scalar / wide;
                println!("    {}: lanes={} speedup {:.2}x", b.label(), l, speedup);
                geomean_log += speedup.ln();
                geomean_n += 1;
            }
        }
    }
    if geomean_n > 0 {
        println!(
            "    geomean lockstep speedup (lanes=8 vs 1): {:.2}x",
            (geomean_log / geomean_n as f64).exp()
        );
    }
}

criterion_group!(benches, bench_sim, bench_sim_batched);
criterion_main!(benches);
