//! The three named workloads and the jobs they hand the experiment
//! service. Every count is explicit: nothing here reads `FLEET_INPUTS`,
//! `FLEET_REPLICAS` or the lane width from the environment.

use mcu::{DeviceSpec, PowerSystem};
use models::TrainedNetwork;
use sonic::fleet::FleetJob;
use sonic::Backend;
use std::time::Instant;

/// Lockstep lane width every timed run uses (the `batch` feature's
/// default, pinned so the environment cannot change it).
pub const LANES: usize = 8;

/// Default input seed: the fleet bench's own.
pub const DEFAULT_SEED: u64 = bench::experiments::FLEET_SEED;

/// Every backend the workloads run, in report order. The traced pass
/// times each of them on every workload's cells so the per-backend rows
/// exist for all three.
pub fn all_backends() -> Vec<Backend> {
    let mut all = Backend::paper_suite();
    all.push(Backend::Stateful);
    all
}

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The fleet bench's default job: 3 networks x `fleet_powers()` x the
    /// six paper backends x 8 inputs x 1 replica.
    PaperFleet,
    /// Continuous power only, 64 inputs per cell: lockstep twins and the
    /// host data plane do most of the work.
    ContinuousPopulation,
    /// Five harvested power systems x the four intermittence-safe
    /// backends: every run browns out, nothing twins.
    HarvestIntermittent,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFleet,
        Workload::ContinuousPopulation,
        Workload::HarvestIntermittent,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFleet => "paper-fleet",
            Workload::ContinuousPopulation => "continuous-population",
            Workload::HarvestIntermittent => "harvest-intermittent",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Inputs per cell.
    pub fn inputs(self) -> usize {
        match self {
            Workload::PaperFleet => 8,
            Workload::HarvestIntermittent => 32,
            Workload::ContinuousPopulation => 64,
        }
    }

    /// The power systems of every cell row.
    pub fn powers(self) -> Vec<PowerSystem> {
        match self {
            Workload::PaperFleet => bench::experiments::fleet_powers(),
            Workload::ContinuousPopulation => vec![PowerSystem::continuous()],
            Workload::HarvestIntermittent => {
                // 1 mF, 100 uF, and the fleet's two occluded 1 mF profiles.
                let mut p = bench::experiments::fleet_powers().split_off(2);
                p.push(bench::experiments::flicker_power());
                p
            }
        }
    }

    /// The backends of every cell column.
    pub fn backends(self) -> Vec<Backend> {
        match self {
            Workload::PaperFleet | Workload::ContinuousPopulation => Backend::paper_suite(),
            Workload::HarvestIntermittent => vec![
                Backend::Tiled(32),
                Backend::Sonic,
                Backend::Tails(sonic::TailsConfig::default()),
                Backend::Stateful,
            ],
        }
    }

    /// The seed the workload's inputs are drawn from. `paper-fleet` is
    /// the fleet bench's default job exactly, so its inputs are always
    /// those of [`DEFAULT_SEED`]; the other workloads draw from `seed`.
    pub fn input_seed(self, seed: u64) -> u64 {
        match self {
            Workload::PaperFleet => DEFAULT_SEED,
            _ => seed,
        }
    }

    /// The workload digest at [`DEFAULT_SEED`], combined over networks
    /// as the fleet bench combines it. `paper-fleet`'s is the fleet
    /// bench's pinned digest.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::PaperFleet => 0x7c7e_39f2_a890_5223,
            Workload::ContinuousPopulation => 0xd4e5_87b6_e351_aa77,
            Workload::HarvestIntermittent => 0xf9c3_9389_2a6f_db03,
        }
    }

    /// Inferences one execution of the workload attempts.
    pub fn inferences(self) -> usize {
        3 * self.powers().len() * self.backends().len() * self.inputs()
    }
}

/// One network's job, labelled with the network.
pub struct NetJob<'a> {
    /// Network label (`MNIST`, `HAR`, `OkG`).
    pub label: &'static str,
    /// The job the experiment service runs.
    pub job: FleetJob<'a>,
}

/// Builds the per-network jobs of `w` with inputs drawn from `seed`.
pub fn jobs(w: Workload, nets: &[TrainedNetwork], seed: u64) -> Vec<NetJob<'_>> {
    nets.iter()
        .map(|tn| NetJob {
            label: tn.network.label(),
            job: FleetJob {
                qmodel: &tn.qmodel,
                spec: DeviceSpec::msp430fr5994(),
                inputs: bench::experiments::fleet_inputs(tn, w.inputs(), seed),
                backends: w.backends(),
                powers: w.powers(),
                replicas: 1,
                faults: None,
            },
        })
        .collect()
}

/// Set-up timings: loading the three cached networks, and loading plus
/// building the workload's jobs.
pub struct Setup {
    /// The loaded networks (from the last repetition).
    pub nets: Vec<TrainedNetwork>,
    /// Seconds per repetition spent in `models::trained`.
    pub load_s: Vec<f64>,
    /// Seconds per repetition for load plus job construction.
    pub setup_s: Vec<f64>,
}

/// Loads the networks and builds the jobs `reps` times.
pub fn setup(w: Workload, seed: u64, reps: usize) -> Setup {
    let mut load_s = Vec::with_capacity(reps);
    let mut setup_s = Vec::with_capacity(reps);
    let mut nets = Vec::new();
    for _ in 0..reps {
        drop(std::mem::take(&mut nets));
        let t = Instant::now();
        nets = bench::experiments::paper_networks();
        let loaded = t.elapsed().as_secs_f64();
        let built = jobs(w, &nets, seed);
        std::hint::black_box(&built);
        setup_s.push(t.elapsed().as_secs_f64());
        load_s.push(loaded);
    }
    Setup {
        nets,
        load_s,
        setup_s,
    }
}
