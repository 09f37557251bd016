//! The traced pass: per-layer numbers, measured by timing calls into each
//! module's public functions from outside the program.
//!
//! | metric | module | should move |
//! |---|---|---|
//! | `models.load_s` | `models::trained` | `setup_s`, every workload |
//! | `deploy.*` | `sonic::deploy` | `inferences_per_s` on `paper-fleet` |
//! | `exec.<backend>.*` | `sonic::exec::run_deployed` | `inferences_per_s` on `harvest-intermittent` |
//! | `mcu.*`, `reboot.*` | `mcu::Device` metering, reboot and recovery | `inferences_per_s` on `harvest-intermittent`; simulated counts the `sim_*` metrics |
//! | `lockstep.*` | `sonic::lockstep::run_inference_batch` | `inferences_per_s` on `continuous-population` |
//! | `dnn.forward_host_us` | `dnn::quant::QModel::forward_host` | `inferences_per_s` on `continuous-population` |
//! | `fleet.*` | `sonic::fleet::run_shard_with_lanes` | `inferences_per_s` on `paper-fleet` |
//! | `experiment.*` | `sonic::experiment::run_experiment` | `inferences_per_s` on `continuous-population` |

use crate::run::config;
use crate::stats::{combine_digests, median, overhead_line, CellVerdict, Metric, Timing};
use crate::workload::{all_backends, NetJob, LANES};
use mcu::{Device, PowerSystem};
use sonic::deploy::reset_control_words;
use sonic::exec::run_deployed;
use sonic::experiment::run_experiment;
use sonic::fleet::{
    assemble_cells, plan_shards, run_fleet_with_lanes, run_shard_with_lanes, FleetCell, ShardSpec,
};
use sonic::lockstep::run_inference_batch;
use sonic::{deploy, Backend};
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Inputs per cell of the reboot probe run when a workload never reboots.
const PROBE_INPUTS: usize = 8;

/// Ordered parallel map over `available_parallelism()` threads: the
/// fleet's own fan-out (LIFO work queue, indexed collect). Returns the
/// results and the thread count used.
fn par_map<T: Send, U: Send>(items: Vec<T>, f: &(dyn Fn(T) -> U + Sync)) -> (Vec<U>, usize) {
    let n = items.len();
    let threads = crate::nproc().min(n).max(1);
    let queue = Mutex::new(items.into_iter().enumerate().collect::<Vec<_>>());
    let results = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let next = queue.lock().expect("queue poisoned").pop();
                let Some((i, item)) = next else { break };
                let r = f(item);
                results.lock().expect("results poisoned").push((i, r));
            });
        }
    });
    let mut out = results.into_inner().expect("results poisoned");
    out.sort_by_key(|&(i, _)| i);
    (out.into_iter().map(|(_, r)| r).collect(), threads)
}

/// One metered `run_deployed` call.
#[derive(Clone, Copy)]
struct RunSample {
    host_s: f64,
    ops: u64,
    live_cycles: u64,
    control_cycles: u64,
    kernel_cycles: u64,
    reboots: u64,
    dead_s: f64,
}

/// Which part of the traced pass an exec cell serves.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A cell of the workload's job.
    Job,
    /// A backend the job lacks, on the job's power systems.
    OtherBackend,
    /// Continuous-power reference for the reboot cost.
    Reference,
    /// Harvested probe for a workload that never reboots.
    Probe,
}

struct ExecCell {
    net: usize,
    backend: usize,
    power: PowerSystem,
    inputs: usize,
    role: Role,
}

struct ExecResult {
    deploy_s: f64,
    runs: Vec<RunSample>,
}

/// Replays one shard the way the fleet does at lanes 1 — fresh device,
/// one deployment, inputs in order, reboot and control-word reset after a
/// run that did not complete — timing `deploy` and each `run_deployed`.
fn exec_cell(nj: &NetJob<'_>, backend: &Backend, power: &PowerSystem, inputs: usize) -> ExecResult {
    let job = &nj.job;
    let mut dev = Device::new(job.spec.clone(), power.clone());
    let t = Instant::now();
    let dm = deploy(&mut dev, job.qmodel).expect("model must fit in FRAM");
    let deploy_s = t.elapsed().as_secs_f64();
    let mut runs = Vec::with_capacity(inputs);
    for inp in job.inputs.iter().take(inputs) {
        if !dev.is_on() {
            dev.reboot()
                .expect("workloads are chosen so the supply never dies");
        }
        dm.load_input(&mut dev, &inp.input);
        let ops0 = dev.ops_consumed();
        let t = Instant::now();
        let out = black_box(run_deployed(&mut dev, &dm, backend));
        let host_s = t.elapsed().as_secs_f64();
        if !out.completed {
            reset_control_words(&mut dev, &dm);
        }
        let regions = &out.trace.regions;
        runs.push(RunSample {
            host_s,
            ops: dev.ops_consumed() - ops0,
            live_cycles: out.trace.live_cycles,
            control_cycles: regions.iter().map(|r| r.control_cycles).sum(),
            kernel_cycles: regions.iter().map(|r| r.kernel_cycles).sum(),
            reboots: out.trace.reboots,
            dead_s: out.trace.dead_secs,
        });
    }
    ExecResult { deploy_s, runs }
}

/// The fleet's shard plan run with each `run_shard_with_lanes` call
/// timed: wall seconds, per-shard seconds, threads, and the assembled
/// cells.
fn timed_fleet(nj: &NetJob<'_>) -> (f64, Vec<f64>, usize, Vec<FleetCell>) {
    let job = &nj.job;
    let plan = plan_shards(job);
    let t = Instant::now();
    let (results, threads) = par_map(plan.clone(), &|s: ShardSpec| {
        let t = Instant::now();
        let runs = run_shard_with_lanes(job, &s, LANES, &mut |_| {});
        (t.elapsed().as_secs_f64(), runs)
    });
    let wall = t.elapsed().as_secs_f64();
    let (shard_s, runs): (Vec<f64>, Vec<_>) = results.into_iter().unzip();
    (wall, shard_s, threads, assemble_cells(job, &plan, runs))
}

fn digests(cells: &[FleetCell]) -> Vec<u64> {
    cells.iter().map(FleetCell::digest).collect()
}

/// Everything the traced pass produced.
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Cell verdicts: lanes 1, the experiment's records, its resume and
    /// the traced fleet, each against the in-RAM fleet at [`LANES`].
    pub verdicts: Vec<CellVerdict>,
    /// The experiment digest, combined over networks.
    pub digest: Option<u64>,
}

/// Repetitions of the experiment, fleet and traced-fleet timings; each
/// reports the mean, so the two fleet timings see the same conditions.
const REPS: usize = 2;

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Runs the traced pass over `jobs`. `load_s` holds the set-up's
/// `models::trained` timings.
pub fn traced(jobs: &[NetJob<'_>], load_s: &[f64], root: &Path) -> Traced {
    let mut verdicts = Vec::new();
    let mut per_net_digests = Vec::new();
    let (mut fleet_untraced_s, mut fleet_traced_s, mut fleet_l1_s) = (0.0, 0.0, 0.0);
    let (mut io_s, mut resume_s) = (0.0, 0.0);
    let (mut shard_s, mut busy_capacity_s) = (Vec::new(), 0.0);

    for nj in jobs {
        let job = &nj.job;
        // Each repetition runs the experiment (the same fleet plus record
        // I/O) and then both fleets, alternating which goes first: the
        // step right after the experiment pays for its file writeback, so
        // each fleet timing takes that place once.
        let (mut untraced_s, mut exp_s, mut traced_s) = (Vec::new(), Vec::new(), Vec::new());
        let (mut reference, mut fresh, mut cells_traced) = (Vec::new(), None, Vec::new());
        for rep in 0..REPS {
            let t = Instant::now();
            fresh = Some(run_experiment(
                job,
                &config(root, "traced", nj.label, false),
            ));
            exp_s.push(t.elapsed().as_secs_f64());
            for step in 0..2 {
                if (rep + step) % 2 == 0 {
                    let t = Instant::now();
                    reference = digests(&run_fleet_with_lanes(job, LANES));
                    untraced_s.push(t.elapsed().as_secs_f64());
                } else {
                    let (wall, shards, threads, cells) = timed_fleet(nj);
                    traced_s.push(wall);
                    busy_capacity_s += threads as f64 * wall;
                    shard_s.extend(shards);
                    cells_traced = digests(&cells);
                }
            }
        }
        fleet_untraced_s += mean(&untraced_s);
        fleet_traced_s += mean(&traced_s);
        io_s += mean(&exp_s) - mean(&untraced_s);

        let t = Instant::now();
        let resumed = run_experiment(job, &config(root, "traced", nj.label, true));
        resume_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let cells_1 = digests(&run_fleet_with_lanes(job, 1));
        fleet_l1_s += t.elapsed().as_secs_f64();

        let fresh = fresh.expect("at least one repetition");
        let exp_digests = |r: &Result<sonic::ExperimentOutcome, _>, resume: bool| match r {
            Ok(o) if o.complete && (!resume || o.executed_shards == 0) => {
                o.cells.iter().map(|c| Some(c.digest)).collect()
            }
            Ok(_) => vec![None; reference.len()],
            Err(e) => {
                println!("# ERROR: {} experiment failed: {e}", nj.label);
                vec![None; reference.len()]
            }
        };
        per_net_digests.push(fresh.as_ref().ok().map(|o| (nj.label, o.digest)));
        let checks: [(&str, Vec<Option<u64>>); 4] = [
            ("lanes 1", cells_1.into_iter().map(Some).collect()),
            ("experiment records", exp_digests(&fresh, false)),
            ("experiment resume", exp_digests(&resumed, true)),
            ("traced fleet", cells_traced.into_iter().map(Some).collect()),
        ];
        for (what, got) in &checks {
            let bad = got
                .iter()
                .zip(&reference)
                .filter(|(g, r)| **g != Some(**r))
                .count();
            if bad > 0 {
                println!(
                    "# ERROR: {}: {bad} cells of {what} differ from lanes {LANES}",
                    nj.label
                );
            }
            verdicts.extend(got.iter().zip(&reference).map(|(g, r)| CellVerdict {
                runs: job.inputs.len() as u64,
                digest_ok: *g == Some(*r),
                errored: g.is_none(),
                bad_runs: 0,
            }));
        }
    }
    println!("# {}", overhead_line(fleet_traced_s, fleet_untraced_s));
    println!(
        "# fleet wall: lanes {LANES} {fleet_untraced_s:.4} s, lanes 1 {fleet_l1_s:.4} s ({:.2}x)",
        fleet_l1_s / fleet_untraced_s
    );

    let mut metrics = vec![Metric::new("models.load_s", median(load_s), "s")];
    metrics.extend(exec_metrics(jobs));
    metrics.extend(lockstep_metrics(jobs));
    metrics.push(Metric::new(
        "dnn.forward_host_us",
        forward_host_us(jobs),
        "us",
    ));

    let shard = Timing::of(&shard_s);
    println!("# fleet shard time: {}", shard.describe(1.0, " s"));
    metrics.extend([
        Metric::new("fleet.shards", (shard_s.len() / REPS) as f64, "count"),
        Metric::new("fleet.shard_s_p50", shard.p50, "s"),
        Metric::new("fleet.shard_s_max", shard.max, "s"),
        Metric::new(
            "fleet.busy_share",
            shard_s.iter().sum::<f64>() / busy_capacity_s,
            "share",
        ),
        Metric::new("experiment.io_s", io_s, "s"),
        Metric::new("experiment.resume_s", resume_s, "s"),
    ]);
    Traced {
        metrics,
        verdicts,
        digest: per_net_digests
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .map(combine_digests),
    }
}

/// Deploy, per-backend exec, metering and reboot metrics from one pass
/// of exec cells.
fn exec_metrics(jobs: &[NetJob<'_>]) -> Vec<Metric> {
    let backends = all_backends();
    let mut cells = Vec::new();
    for (net, nj) in jobs.iter().enumerate() {
        let job = &nj.job;
        let n = job.inputs.len();
        for (b, backend) in backends.iter().enumerate() {
            let role = if job.backends.contains(backend) {
                Role::Job
            } else {
                Role::OtherBackend
            };
            for power in &job.powers {
                cells.push(ExecCell {
                    net,
                    backend: b,
                    power: power.clone(),
                    inputs: n,
                    role,
                });
            }
            let has_continuous = job.powers.contains(&PowerSystem::continuous());
            let has_harvested = job.powers.iter().any(|p| p.profile().is_some());
            if role == Role::Job && !has_continuous {
                cells.push(ExecCell {
                    net,
                    backend: b,
                    power: PowerSystem::continuous(),
                    inputs: n,
                    role: Role::Reference,
                });
            }
            if role == Role::Job && !has_harvested {
                cells.push(ExecCell {
                    net,
                    backend: b,
                    power: PowerSystem::cap_100uf(),
                    inputs: PROBE_INPUTS.min(n),
                    role: Role::Probe,
                });
            }
        }
    }
    let (results, _) = par_map(cells.iter().collect(), &|c: &ExecCell| {
        exec_cell(&jobs[c.net], &backends[c.backend], &c.power, c.inputs)
    });

    let mut metrics = Vec::new();
    // sonic::deploy: one fresh device and deployment per job shard.
    let deploy_s: Vec<f64> = cells
        .iter()
        .zip(&results)
        .filter(|(c, _)| c.role == Role::Job)
        .map(|(_, r)| r.deploy_s)
        .collect();
    let deploy = Timing::of(&deploy_s);
    println!("# deploy: {}", deploy.describe(1e3, " ms"));
    metrics.push(Metric::new("deploy.calls", deploy_s.len() as f64, "count"));
    metrics.push(Metric::new("deploy.ms_p50", deploy.p50 * 1e3, "ms"));

    // sonic::exec: every backend on the workload's own power systems.
    for (b, backend) in backends.iter().enumerate() {
        let us: Vec<f64> = cells
            .iter()
            .zip(&results)
            .filter(|(c, _)| c.backend == b && matches!(c.role, Role::Job | Role::OtherBackend))
            .flat_map(|(_, r)| r.runs.iter().map(|s| s.host_s * 1e6))
            .collect();
        let t = Timing::of(&us);
        println!("# exec {}: {}", backend.label(), t.describe(1.0, " us"));
        metrics.push(Metric::new(
            format!("exec.{}.us_per_run_p50", backend.label()),
            t.p50,
            "us",
        ));
        metrics.push(Metric::new(
            format!("exec.{}.us_per_run_p90", backend.label()),
            t.p90,
            "us",
        ));
    }

    // mcu: the job's metered runs.
    let job_runs: Vec<RunSample> = cells
        .iter()
        .zip(&results)
        .filter(|(c, _)| c.role == Role::Job)
        .flat_map(|(_, r)| r.runs.iter().copied())
        .collect();
    let sum = |f: &dyn Fn(&RunSample) -> f64| job_runs.iter().map(f).sum::<f64>();
    let (host_s, ops) = (sum(&|s| s.host_s), sum(&|s| s.ops as f64));
    let control = sum(&|s| s.control_cycles as f64);
    let harvested: Vec<&RunSample> = cells
        .iter()
        .zip(&results)
        .filter(|(c, _)| c.role == Role::Job && c.power.profile().is_some())
        .flat_map(|(_, r)| &r.runs)
        .collect();
    println!(
        "# harvested job runs: {}, with zero reboots: {}, fewest reboots: {}",
        harvested.len(),
        harvested.iter().filter(|s| s.reboots == 0).count(),
        harvested.iter().map(|s| s.reboots).min().unwrap_or(0)
    );
    metrics.extend([
        Metric::new("mcu.ops_per_run", ops / job_runs.len() as f64, "count"),
        Metric::new("mcu.ns_per_op", host_s * 1e9 / ops, "ns"),
        Metric::new(
            "mcu.sim_mcycles_per_s",
            sum(&|s| s.live_cycles as f64) / host_s / 1e6,
            "Mcycles/s",
        ),
        Metric::new("mcu.reboots", sum(&|s| s.reboots as f64), "count"),
        Metric::new("mcu.dead_s", sum(&|s| s.dead_s), "sim_s"),
        Metric::new(
            "mcu.control_cycle_share",
            control / (control + sum(&|s| s.kernel_cycles as f64)),
            "share",
        ),
    ]);

    // Reboot and recovery: harvested host time beyond the continuous
    // per-op cost of the same backend and network, per reboot.
    let ns_per_op_continuous = |net: usize, b: usize| {
        let (ns, ops) = cells
            .iter()
            .zip(&results)
            .filter(|(c, _)| c.net == net && c.backend == b && c.power.profile().is_none())
            .flat_map(|(_, r)| &r.runs)
            .fold((0.0, 0.0), |(ns, ops), s| {
                (ns + s.host_s * 1e9, ops + s.ops as f64)
            });
        ns / ops
    };
    let rebooting = |role: Role| {
        cells
            .iter()
            .zip(&results)
            .filter(move |(c, _)| c.role == role && c.power.profile().is_some())
            .flat_map(|(c, r)| r.runs.iter().map(move |s| (c, s)))
            .filter(|(_, s)| s.reboots > 0)
    };
    let role = if rebooting(Role::Job).next().is_some() {
        Role::Job
    } else {
        println!("# reboot cost from the 100 uF probe: the workload never reboots");
        Role::Probe
    };
    let (excess_ns, reboots) = rebooting(role).fold((0.0, 0.0), |(ns, n), (c, s)| {
        let expected = s.ops as f64 * ns_per_op_continuous(c.net, c.backend);
        (ns + s.host_s * 1e9 - expected, n + s.reboots as f64)
    });
    metrics.push(Metric::new(
        "reboot.us_per_reboot",
        excess_ns / reboots / 1e3,
        "us",
    ));
    metrics
}

/// `run_inference_batch` per job cell at lanes 1 and at [`LANES`], both
/// timed in the same task.
fn lockstep_metrics(jobs: &[NetJob<'_>]) -> Vec<Metric> {
    let mut cells = Vec::new();
    for nj in jobs {
        for p in &nj.job.powers {
            for b in &nj.job.backends {
                cells.push((nj, p, b));
            }
        }
    }
    let (times, _) = par_map(cells, &|(nj, p, b)| {
        let job = &nj.job;
        let inputs: Vec<Vec<fxp::Q15>> = job.inputs.iter().map(|i| i.input.clone()).collect();
        let time = |lanes| {
            let t = Instant::now();
            black_box(run_inference_batch(
                job.qmodel,
                &inputs,
                &job.spec,
                p.clone(),
                b,
                lanes,
            ));
            t.elapsed().as_secs_f64()
        };
        (time(1), time(LANES), inputs.len())
    });
    let runs = times.iter().map(|t| t.2).sum::<usize>() as f64;
    let l1 = times.iter().map(|t| t.0).sum::<f64>() * 1e6 / runs;
    let ln = times.iter().map(|t| t.1).sum::<f64>() * 1e6 / runs;
    println!("# lockstep: lanes 1 {l1:.2} us/run, lanes {LANES} {ln:.2} us/run");
    vec![
        Metric::new("lockstep.us_per_run_l1", l1, "us"),
        Metric::new("lockstep.us_per_run_lN", ln, "us"),
        Metric::new("lockstep.speedup", l1 / ln, "x"),
    ]
}

/// Median host microseconds of one `QModel::forward_host` call over the
/// job inputs (three rounds).
fn forward_host_us(jobs: &[NetJob<'_>]) -> f64 {
    let mut us = Vec::new();
    for _ in 0..3 {
        for nj in jobs {
            for inp in &nj.job.inputs {
                let t = Instant::now();
                black_box(nj.job.qmodel.forward_host(black_box(&inp.input)));
                us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    let t = Timing::of(&us);
    println!("# forward_host: {}", t.describe(1.0, " us"));
    t.p50
}
