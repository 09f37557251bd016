//! SONIC & TAILS: intermittence-safe DNN inference runtimes.
//!
//! This crate is the paper's primary contribution, reimplemented on the
//! simulated MSP430 device:
//!
//! - [`mod@deploy`]: lowers a quantized model ([`dnn::quant::QModel`]) onto
//!   the device — weights flashed to FRAM (sparse layers in compressed
//!   form), activation ping-pong buffers, per-layer scratch planes for
//!   loop-ordered buffering, and the non-volatile control words SONIC's
//!   loop continuation lives in.
//! - [`baseline`]: the standard implementation that "accumulates values in
//!   registers and avoids memory writes (but does not tolerate
//!   intermittence)" (Fig. 10). It restarts from scratch on power failure
//!   and never finishes once inference energy exceeds the buffer.
//! - [`tiled`]: the prior state of the art — the loops restructured into
//!   Alpaca tasks of `N` iterations (`Tile-8/32/128`), with every written
//!   value redo-logged and committed at each transition (§6.2, Fig. 6).
//! - [`sonic`]: SONIC. Loop continuation stores loop indices directly in
//!   FRAM and resumes mid-loop after power failures; loop-ordered
//!   buffering makes convolution/dense iterations idempotent via
//!   write-only output planes; sparse undo-logging protects in-place
//!   accumulation in sparse fully-connected layers (§6).
//! - [`tails`]: TAILS. One-time calibration finds the largest LEA/DMA
//!   tile that completes within the energy buffer, then convolutions run
//!   on the LEA FIR unit with DMA staging through the 4 KB SRAM, software
//!   bit-shifts (LEA has no vector left-shift), zero-padded sparse
//!   filters, and a software fallback for sparse fully-connected layers
//!   (§7).
//! - [`exec`]: one entry point that runs any implementation on any power
//!   system and returns the result plus the per-run energy/time trace.
//! - [`lockstep`]: lockstep batching — once a deployment's per-run trace
//!   reaches its fixed point on continuous fault-free power, further runs
//!   execute as bit-exact twins — one call to the backend's host
//!   reference in `dnn::quant` (periodically re-validated by metered
//!   leader runs) — which is what
//!   makes population-scale fleets cheap to simulate.
//! - [`fleet`]: the population-scale harness — many test-set inputs ×
//!   backends × power systems over reusable deployments, fanned across
//!   threads with deterministic, bit-identical results, summarized as
//!   accuracy / completion-rate / latency percentiles per cell, plus a
//!   per-layer DNC starvation histogram attributing every
//!   non-completing run to the layer the device starved in.
//! - [`mod@spec`]: the executable crash-consistency spec — abstract state
//!   machines for SONIC/TAILS loop continuity and Alpaca two-phase
//!   commit, abstraction functions from concrete device state, and a
//!   differential harness that injects a brown-out at *every* op boundary
//!   of a small network and checks refinement plus bit-equal output.
//!
//! All implementations compute the same quantized network; each one's
//! intermittent execution is bit-identical to its own continuous-power
//! execution (the paper's correctness criterion), which the test suite
//! checks under randomized power-failure schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod deploy;
pub mod exec;
pub mod experiment;
pub mod fleet;
pub mod lockstep;
pub mod sonic;
pub mod spec;
pub mod stateful;
pub mod tails;
pub mod tiled;

pub use deploy::{deploy, DeployedModel};
pub use exec::{
    run_inference, run_inference_faulted, Backend, BrownoutRecord, InferenceOutcome, TailsConfig,
};
pub use experiment::{
    run_experiment, run_experiment_observed, CellReport, ExperimentConfig, ExperimentError,
    ExperimentOutcome, RunRecord,
};
pub use fleet::{
    run_fleet, run_fleet_with_lanes, CellSummary, FleetCell, FleetInput, FleetJob, FleetRun,
    ShardSpec,
};
pub use lockstep::run_inference_batch;
