//! The fleet evaluation: the paper suite (3 networks × 4 power systems ×
//! 6 backends) plus two time-varying harvest scenarios, with `FLEET_INPUTS`
//! (default 8) seeded test inputs per cell — run through the experiment
//! service, so per-run records stream to `target/experiments/fleet-<net>/`
//! and a killed run resumes instead of starting over.
//!
//! Environment knobs:
//! - `FLEET_INPUTS=n` — inputs per cell (default 8).
//! - `FLEET_NETS=MNIST,HAR` — comma-separated network filter (default all).
//! - `FLEET_SCENARIO=flicker,burst,fading,solar` — comma-separated extra named
//!   power scenarios (bundled adversarial presets and parameterized
//!   generators) appended to the power suite; unset leaves the default
//!   run — and its digest — unchanged.
//! - `FLEET_REPLICAS=r` — replica devices per cell (default 1, the
//!   pinned historical trajectory; replica count is job semantics, so
//!   changing it legitimately changes harvested-cell digests).
//! - `FLEET_RESUME=1` — load sealed shards from a previous (killed) run
//!   of the same job instead of starting fresh.
//! - `FLEET_MAX_SHARDS=k` — stop after `k` shards this invocation (the
//!   resume smoke's deterministic "kill").
//! - `BATCH_LANES=l` — lockstep batching lane width (default 8 with the
//!   `batch` feature; `1` forces scalar metering). Results and the fleet
//!   digest are bit-identical at every width — continuous fault-free
//!   cells just run `(l-1)/l` of their inferences as host-reference twins
//!   (see `sonic::lockstep`).
//! - `FLEET_STATEFUL=1` — append the stateful progress-embedding backend
//!   (`sonic::stateful`) as a seventh column. Off by default: the extra
//!   cells legitimately change the fleet digest, so the pinned historical
//!   trajectory stays the 6-backend paper suite.
use bench::report::{save_csv, FleetReport};
use mcu::DeviceSpec;
use sonic::experiment::{run_experiment, ExperimentConfig};
use sonic::fleet::FleetJob;

fn main() {
    let filter: Option<Vec<String>> = std::env::var("FLEET_NETS")
        .ok()
        .map(|v| v.split(',').map(|s| s.trim().to_uppercase()).collect());
    let nets: Vec<_> = bench::experiments::paper_networks()
        .into_iter()
        .filter(|tn| {
            filter
                .as_ref()
                .map(|f| f.iter().any(|n| n == &tn.network.label().to_uppercase()))
                .unwrap_or(true)
        })
        .collect();
    let mut powers = bench::experiments::fleet_powers();
    if let Ok(names) = std::env::var("FLEET_SCENARIO") {
        for name in names.split(',').filter(|s| !s.trim().is_empty()) {
            powers.push(
                bench::experiments::named_scenario(name)
                    .unwrap_or_else(|| panic!("unknown FLEET_SCENARIO `{name}`")),
            );
        }
    }
    let mut backends = bench::experiments::fig9_backends();
    if std::env::var("FLEET_STATEFUL").is_ok_and(|v| v == "1") {
        backends.push(sonic::Backend::Stateful);
    }
    let inputs = bench::experiments::fleet_inputs_count();
    let replicas = bench::experiments::fleet_replicas();
    let resume = std::env::var("FLEET_RESUME").is_ok_and(|v| v == "1");
    let max_shards: Option<usize> = std::env::var("FLEET_MAX_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok());
    let spec = DeviceSpec::msp430fr5994();

    println!(
        "== fleet: {} networks x {} power systems x {} backends x {} inputs x {} replicas \
         (lockstep lanes: {}) ==",
        nets.len(),
        powers.len(),
        backends.len(),
        inputs,
        replicas,
        sonic::lockstep::default_lanes()
    );
    let mut report = FleetReport::default();
    let mut digest = 0u64;
    let mut complete = true;
    for tn in &nets {
        let job = FleetJob {
            qmodel: &tn.qmodel,
            spec: spec.clone(),
            inputs: bench::experiments::fleet_inputs(tn, inputs, bench::experiments::FLEET_SEED),
            backends: backends.clone(),
            powers: powers.clone(),
            replicas,
            faults: None,
        };
        let mut cfg =
            ExperimentConfig::new(&format!("fleet-{}", tn.network.label().to_lowercase()));
        cfg.root = bench::report::experiments_dir();
        cfg.resume = resume;
        cfg.shard_budget = max_shards;
        let outcome = run_experiment(&job, &cfg)
            .unwrap_or_else(|e| panic!("fleet experiment {}: {e}", tn.network.label()));
        println!(
            "{}: {} shards run, {} loaded, {} pending -> {}",
            tn.network.label(),
            outcome.executed_shards,
            outcome.loaded_shards,
            outcome.pending_shards,
            outcome.dir.display()
        );
        complete &= outcome.complete;
        digest ^= outcome.digest.rotate_left(tn.network.label().len() as u32);
        for cell in outcome.cells {
            report
                .rows
                .push((tn.network.label().to_string(), cell.summary));
        }
    }
    let t = report.table();
    println!("{}", t.render());
    save_csv("fleet", &t);
    if complete {
        println!(
            "fleet digest: {digest:#018x} (bit-identical across runs, with the \
             `parallel` feature on or off, and across kill/resume)"
        );
    } else {
        println!(
            "fleet run partial (FLEET_MAX_SHARDS): re-run with FLEET_RESUME=1 \
             to finish from the sealed shards"
        );
    }
}
