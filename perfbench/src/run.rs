//! Executing a workload through the experiment service and checking what
//! it produced.

use crate::stats::{combine_digests, CellVerdict};
use crate::workload::{NetJob, LANES};
use sonic::experiment::{run_experiment, ExperimentConfig, ExperimentError, ExperimentOutcome};
use sonic::fleet::FleetJob;
use sonic::lockstep::run_inference_batch;
use sonic::Backend;
use std::path::Path;
use std::time::Instant;

/// One execution of a workload: each network's job through
/// `run_experiment`, in network order.
pub struct Execution {
    /// Host seconds for all networks.
    pub wall_s: f64,
    /// Per network: its label and the experiment's outcome.
    pub nets: Vec<(&'static str, Result<ExperimentOutcome, ExperimentError>)>,
}

impl Execution {
    /// Runs every network's job as a fresh experiment under `root`.
    pub fn run(jobs: &[NetJob<'_>], root: &Path, tag: &str) -> Execution {
        let t = Instant::now();
        let nets = jobs
            .iter()
            .map(|nj| {
                (
                    nj.label,
                    run_experiment(&nj.job, &config(root, tag, nj.label, false)),
                )
            })
            .collect();
        Execution {
            wall_s: t.elapsed().as_secs_f64(),
            nets,
        }
    }

    /// The workload digest, combined over networks like the fleet bench;
    /// `None` if any network's experiment failed.
    pub fn digest(&self) -> Option<u64> {
        let per_net: Option<Vec<(&str, u64)>> = self
            .nets
            .iter()
            .map(|(l, r)| r.as_ref().ok().map(|o| (*l, o.digest)))
            .collect();
        per_net.map(combine_digests)
    }

    /// Per-cell digests in network-major, cell order (`None` for every
    /// cell of a failed or incomplete experiment).
    pub fn cell_digests(&self, jobs: &[NetJob<'_>]) -> Vec<Option<u64>> {
        self.nets
            .iter()
            .zip(jobs)
            .flat_map(|((_, r), nj)| {
                let n = nj.job.powers.len() * nj.job.backends.len();
                match r {
                    Ok(o) if o.complete => o.cells.iter().map(|c| Some(c.digest)).collect(),
                    _ => vec![None; n],
                }
            })
            .collect()
    }

    /// Prints every experiment that failed or did not finish.
    pub fn report_errors(&self) {
        for (label, r) in &self.nets {
            match r {
                Err(e) => println!("# ERROR: {label} experiment failed: {e}"),
                Ok(o) if !o.complete => println!("# ERROR: {label} experiment incomplete"),
                Ok(_) => {}
            }
        }
    }
}

/// An experiment configuration under the benchmark's own root.
pub fn config(root: &Path, tag: &str, label: &str, resume: bool) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(&format!("{tag}-{}", label.to_lowercase()));
    cfg.root = root.to_path_buf();
    cfg.resume = resume;
    cfg
}

/// Verdicts for one execution: each cell checked against `reference`
/// cell digests (an equal-length list; `None` entries are treated as
/// matching) and charged `bad_runs[c]` failed runs; every cell fails
/// when `whole_ok` is false.
pub fn verdicts(
    jobs: &[NetJob<'_>],
    got: &[Option<u64>],
    reference: &[Option<u64>],
    bad_runs: &[u64],
    whole_ok: bool,
) -> Vec<CellVerdict> {
    let runs = jobs.iter().flat_map(|nj| {
        let per_cell = nj.job.inputs.len() as u64;
        std::iter::repeat_n(per_cell, nj.job.powers.len() * nj.job.backends.len())
    });
    runs.zip(got)
        .zip(reference)
        .zip(bad_runs)
        .map(|(((runs, g), r), &bad)| CellVerdict {
            runs,
            digest_ok: whole_ok && (r.is_none() || g == r),
            errored: g.is_none(),
            bad_runs: bad,
        })
        .collect()
}

/// Checks every completed run's output against its backend's fully
/// metered continuous-power output on the same input — the paper's
/// correctness criterion, intermittent equals continuous — and the
/// baseline's continuous output against the host reference
/// (`QModel::forward_host`), which it shares bit for bit. Returns the
/// failing runs per cell, network-major.
pub fn check_outputs(jobs: &[NetJob<'_>], exec: &Execution) -> Vec<u64> {
    let mut bad = Vec::new();
    for (nj, (_, r)) in jobs.iter().zip(&exec.nets) {
        let cells = nj.job.powers.len() * nj.job.backends.len();
        let Ok(outcome) = r else {
            bad.extend(std::iter::repeat_n(0, cells));
            continue;
        };
        let refs = continuous_references(&nj.job);
        for cell in &outcome.cells {
            let refs = &refs[cell.backend_index];
            let n = cell
                .records
                .iter()
                .filter(|rec| rec.completed)
                .filter(|rec| refs[rec.input_index].as_deref() != Some(rec.output.as_slice()))
                .count();
            bad.push(n as u64);
        }
    }
    bad
}

/// Per backend of `job`, per input: the raw output of a fully metered
/// (lanes 1) continuous-power run, or `None` if it did not complete or —
/// for the baseline — differed from the host reference. Backends run on
/// scoped threads.
fn continuous_references(job: &FleetJob<'_>) -> Vec<Vec<Option<Vec<i16>>>> {
    let inputs: Vec<Vec<fxp::Q15>> = job.inputs.iter().map(|i| i.input.clone()).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = job
            .backends
            .iter()
            .map(|b| {
                let inputs = &inputs;
                s.spawn(move || {
                    let outs = run_inference_batch(
                        job.qmodel,
                        inputs,
                        &job.spec,
                        mcu::PowerSystem::continuous(),
                        b,
                        1,
                    );
                    outs.into_iter()
                        .zip(inputs)
                        .map(|(o, x)| {
                            let ok = o.completed
                                && (*b != Backend::Baseline
                                    || o.output == job.qmodel.forward_host(x));
                            ok.then(|| o.output.iter().map(|q| q.raw()).collect())
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Simulated, deterministic results of one execution, over every run of
/// every network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimResults {
    /// Inferences attempted.
    pub attempted: u64,
    /// Inferences completed.
    pub completed: u64,
    /// Completed inferences classified correctly.
    pub correct: u64,
    /// Mean energy per completed inference (mJ).
    pub energy_mj_mean: f64,
    /// Mean simulated time per completed inference, recharge included (s).
    pub time_s_mean: f64,
}

/// Folds the records of an execution (its experiments must have
/// succeeded).
pub fn sim_results(jobs: &[NetJob<'_>], exec: &Execution) -> Option<SimResults> {
    let (mut attempted, mut completed, mut correct) = (0u64, 0u64, 0u64);
    let (mut energy_mj, mut time_s) = (0.0f64, 0.0f64);
    for (nj, (_, r)) in jobs.iter().zip(&exec.nets) {
        let outcome = r.as_ref().ok()?;
        for rec in outcome.cells.iter().flat_map(|c| &c.records) {
            attempted += 1;
            if rec.completed {
                completed += 1;
                correct += (rec.correct == Some(true)) as u64;
                energy_mj += rec.total_energy_pj as f64 * 1e-9;
                time_s += nj.job.spec.cycles_to_secs(rec.live_cycles) + rec.dead_secs;
            }
        }
    }
    (completed > 0).then(|| SimResults {
        attempted,
        completed,
        correct,
        energy_mj_mean: energy_mj / completed as f64,
        time_s_mean: time_s / completed as f64,
    })
}

/// The lane width the experiment service resolves (it reads
/// `BATCH_LANES` through `lockstep::default_lanes`); the benchmark pins
/// it to [`LANES`] before any thread starts.
pub fn pin_lanes() {
    std::env::set_var("BATCH_LANES", LANES.to_string());
    assert_eq!(
        sonic::lockstep::default_lanes(),
        LANES,
        "the experiment service must resolve the pinned lane width"
    );
}
