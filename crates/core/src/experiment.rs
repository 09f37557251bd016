//! The experiment service: streamed, resumable fleet evaluations.
//!
//! The paper's headline claims (Fig. 9, Table 2) are population
//! statements, and the city-scale deployment study on the roadmap is
//! millions of simulated inferences — far past the point where "hold
//! every run in RAM and hope the process lives" is acceptable. This
//! module wraps the shard engine in [`crate::fleet`] with a persistence
//! layer:
//!
//! - **Streamed run records.** Each shard appends one compact text
//!   record per run ([`RunRecord`]) to `<root>/<name>/shards/` *as it
//!   executes*; a shard file is sealed with a `done <count> <digest>`
//!   line whose digest is FNV-1a over the bytes of every line before it
//!   (after the header), so every sealed byte is checked on load. A
//!   process killed mid-shard leaves an unsealed file, and a garbled one
//!   fails its seal; either is simply re-run on the next invocation.
//! - **A manifest.** `manifest.txt` records an FNV-1a hash of the whole
//!   job ([`job_hash`]: device spec and cost table, quantized weights,
//!   inputs and labels, backend and power-system parameters, replica
//!   count), so a resume against a directory recorded for a different
//!   job is rejected instead of silently merging incompatible records.
//! - **Resumable checkpoints + incremental aggregation.** On restart
//!   with the same manifest hash ([`ExperimentConfig::resume`]), sealed
//!   shards are loaded instead of re-run, and cell summaries are rebuilt
//!   by merging per-shard record buffers in plan order. Because every
//!   shard is a pure function of `(job, cell, input span)` — the shard
//!   purity rule of [`crate::fleet`] — a killed-and-resumed experiment's
//!   report and digest are bit-identical to an uninterrupted run's, and
//!   to the in-RAM [`crate::fleet::run_fleet`] path.
//!
//! Merged aggregation is *bit*-exact, not just approximately right: the
//! per-shard buffers hold raw per-run records ("percentile-ready" rather
//! than pre-reduced), cells concatenate them in shard (= input) order,
//! and [`crate::fleet::FleetCell::summarize`] and
//! [`crate::fleet::FleetCell::digest`] are the same record fold and
//! digest applied to an in-RAM cell's runs.

use crate::fleet::{
    cell_order, plan_cell_shards, plan_shards, run_shard_with, stats, CellSummary, FleetJob,
    FleetRun, Fnv, ShardSpec,
};
use dnn::quant::QLayer;
use fxp::Q15;
use intermittent::sched::RunError;
use mcu::{DeviceSpec, FaultKind, HarvestProfile, Op, PowerSystem};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// How an experiment runs and where its records live.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Experiment name — the directory under `root` holding the
    /// manifest and shard records.
    pub name: String,
    /// Root directory for experiments (conventionally
    /// `target/experiments`).
    pub root: PathBuf,
    /// When set, sealed shards already on disk are loaded instead of
    /// re-run (after the manifest hash check); when clear, any existing
    /// directory for `name` is wiped and the experiment starts fresh.
    pub resume: bool,
    /// Run at most this many pending shards in this invocation (`None`
    /// = all). The resume tests and the CI smoke use it to kill an
    /// experiment mid-flight at a deterministic point; an interactive
    /// user can use it to slice a multi-hour study into sessions.
    pub shard_budget: Option<usize>,
}

impl ExperimentConfig {
    /// A fresh (non-resuming, unbudgeted) experiment under
    /// `target/experiments`.
    pub fn new(name: &str) -> Self {
        ExperimentConfig {
            name: name.to_string(),
            root: PathBuf::from("target/experiments"),
            resume: false,
            shard_budget: None,
        }
    }
}

/// Why an experiment invocation failed.
#[derive(Debug)]
pub enum ExperimentError {
    /// A filesystem operation under the experiment directory failed.
    Io(String),
    /// A manifest or record file exists but cannot be parsed.
    Malformed(String),
    /// `resume` was requested against a directory whose manifest records
    /// a different job: the on-disk records would not merge with this
    /// job's runs.
    ManifestMismatch {
        /// The offending manifest.
        path: PathBuf,
        /// This job's hash.
        expected: u64,
        /// The hash recorded on disk.
        found: u64,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Io(msg) => write!(f, "experiment I/O error: {msg}"),
            ExperimentError::Malformed(msg) => write!(f, "malformed experiment file: {msg}"),
            ExperimentError::ManifestMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "manifest {} records job {found:#018x} but this job hashes to \
                 {expected:#018x}: refusing to merge records from a different job \
                 (run without --resume to start over)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// One streamed per-run record — the on-disk unit of experiment state.
/// Carries every field that feeds the cell digest and the population
/// summary, plus the brown-out forensics an analyst greps for.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Index into the job's inputs.
    pub input_index: usize,
    /// Whether the inference completed; always `== failure.is_none()`.
    pub completed: bool,
    /// Predicted class, when the run completed.
    pub class: Option<usize>,
    /// `Some(predicted == label)` for labeled inputs (DNC = wrong).
    pub correct: Option<bool>,
    /// Raw Q15 output activations.
    pub output: Vec<i16>,
    /// Live CPU cycles of the run's epoch.
    pub live_cycles: u64,
    /// Dead (recharging) seconds of the run's epoch; persisted as exact
    /// bits, so replayed digests match.
    pub dead_secs: f64,
    /// Charged energy of the run's epoch, in picojoules.
    pub total_energy_pj: u64,
    /// Reboots during the run's epoch.
    pub reboots: u64,
    /// Silent-data-corruption verdict for fault-injected runs
    /// ([`FleetRun::sdc`]); `None` for fault-free jobs and DNC runs.
    pub sdc: Option<bool>,
    /// Corruption detections the integrity guards raised during the run.
    pub corruption_detected: u64,
    /// Why the run did not complete, as persisted text; `None` exactly
    /// when it completed.
    pub failure: Option<RecordFailure>,
}

/// The persisted text of a [`crate::exec::Failure`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordFailure {
    /// Region (layer/task) the device starved in.
    pub region: String,
    /// Brown-out forensics ([`crate::exec::BrownoutRecord`]'s display
    /// form: the exact charged op the supply died on).
    pub brownout: Option<String>,
    /// The scheduler error's display form.
    pub error: String,
    /// Which failures the population summary counts on their own.
    pub kind: FailureKind,
}

/// The failure classes a [`crate::fleet::CellSummary`] counts apart from
/// generic "does not complete".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// `RunError::NonTermination`, with the offending task's name.
    NonTermination(String),
    /// `RunError::Corrupted`, with the region recovery was abandoned in.
    Corrupted(String),
    /// Any other failure.
    Other,
}

impl RunRecord {
    /// Captures a fleet run as a persistable record — the one place a
    /// run's typed [`crate::exec::Failure`] becomes text.
    pub fn from_run(r: &FleetRun) -> Self {
        let o = &r.outcome;
        let failure = o.verdict.as_ref().err().map(|f| RecordFailure {
            region: f.region.clone(),
            brownout: f.brownout.as_ref().map(|b| b.to_string()),
            error: f.error.to_string(),
            kind: match &f.error {
                RunError::NonTermination { task, .. } => FailureKind::NonTermination(task.clone()),
                RunError::Corrupted { region, .. } => FailureKind::Corrupted(region.clone()),
                _ => FailureKind::Other,
            },
        });
        RunRecord {
            input_index: r.input_index,
            completed: failure.is_none(),
            class: o.class,
            correct: r.correct,
            output: o.output.iter().map(|q| q.raw()).collect(),
            live_cycles: o.trace.live_cycles,
            dead_secs: o.trace.dead_secs,
            total_energy_pj: o.trace.total_energy_pj,
            reboots: o.trace.reboots,
            sdc: r.sdc,
            corruption_detected: o.corruption_detected,
            failure,
        }
    }

    /// Feeds the record's bit-relevant fields into `h` — the single
    /// definition of the per-run digest layout behind every cell digest.
    fn put_digest(&self, h: &mut Fnv) {
        h.put(self.input_index as u64);
        h.put(self.completed as u64);
        h.put(self.class.map(|c| c as u64 + 1).unwrap_or(0));
        for &q in &self.output {
            h.put(q as u16 as u64);
        }
        h.put(self.live_cycles);
        h.put(self.dead_secs.to_bits());
        h.put(self.total_energy_pj);
        h.put(self.reboots);
    }

    fn kind(&self) -> Option<&FailureKind> {
        self.failure.as_ref().map(|f| &f.kind)
    }

    /// Whether the record carries any fault forensics. Fault-free
    /// records have none and encode to the legacy 13-token line, so
    /// fault-free shard files stay byte-identical to pre-fault-layer
    /// builds.
    fn has_forensics(&self) -> bool {
        self.sdc.is_some()
            || self.corruption_detected > 0
            || !matches!(self.kind(), None | Some(FailureKind::Other))
    }

    /// The record's one-line on-disk form (space-separated tokens; `-`
    /// for an absent value; strings percent-encoded behind `=` so they
    /// never contain separators).
    fn encode_line(&self) -> String {
        let f = self.failure.as_ref();
        let out = if self.output.is_empty() {
            "-".to_string()
        } else {
            let vals: Vec<String> = self.output.iter().map(|x| x.to_string()).collect();
            format!("={}", vals.join(","))
        };
        let mut line = format!(
            "run {} {} {} {} {} {:016x} {} {} {} {} {} {}",
            self.input_index,
            self.completed as u8,
            opt_tok(self.class),
            opt_tok(self.correct.map(u8::from)),
            self.live_cycles,
            self.dead_secs.to_bits(),
            self.total_energy_pj,
            self.reboots,
            out,
            str_tok(f.map(|f| f.region.as_str())),
            str_tok(f.and_then(|f| f.brownout.as_deref())),
            str_tok(f.map(|f| f.error.as_str())),
        );
        if self.has_forensics() {
            let (corrupted, task) = match self.kind() {
                Some(FailureKind::Corrupted(region)) => (Some(region.as_str()), None),
                Some(FailureKind::NonTermination(task)) => (None, Some(task.as_str())),
                _ => (None, None),
            };
            line.push_str(&format!(
                " {} {} {} {}",
                opt_tok(self.sdc.map(u8::from)),
                self.corruption_detected,
                str_tok(corrupted),
                str_tok(task),
            ));
        }
        line
    }

    /// Parses one `run` line back into a record. Accepts exactly the
    /// lines [`RunRecord::encode_line`] writes for a run the runtime can
    /// produce: tokens in canonical form, and a verdict that does not
    /// contradict itself (a completed run carries no failure token; a
    /// failed one carries its region and error but no class, output,
    /// correct prediction or SDC verdict; at most one of a
    /// non-termination task and a corrupted region).
    fn decode_line(line: &str) -> Option<Self> {
        let t: Vec<&str> = line.split(' ').collect();
        // 13 tokens = fault-free record; 17 = with the trailing
        // fault-forensics block.
        if !(t.len() == 13 || t.len() == 17) || t[0] != "run" {
            return None;
        }
        let flag = |s: &str| match s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        };
        let text = |s: &str| opt_field(s, |s| dec(s.strip_prefix('=')?));
        let output = match t[9] {
            "-" => Vec::new(),
            s => s
                .strip_prefix('=')?
                .split(',')
                .map(|x| x.parse().ok())
                .collect::<Option<Vec<i16>>>()?,
        };
        let (sdc, corruption_detected, corrupted, task) = if t.len() == 17 {
            (
                opt_field(t[13], flag)?,
                t[14].parse().ok()?,
                text(t[15])?,
                text(t[16])?,
            )
        } else {
            (None, 0, None, None)
        };
        let kind = match (task, corrupted) {
            (None, None) => FailureKind::Other,
            (Some(task), None) => FailureKind::NonTermination(task),
            (None, Some(region)) => FailureKind::Corrupted(region),
            (Some(_), Some(_)) => return None,
        };
        let completed = flag(t[2])?;
        let class = opt_field(t[3], |s| s.parse().ok())?;
        let correct = opt_field(t[4], flag)?;
        let (region, brownout, error) = (text(t[10])?, text(t[11])?, text(t[12])?);
        let failure = match (completed, region, error) {
            (true, None, None) if brownout.is_none() && kind == FailureKind::Other => None,
            (false, Some(region), Some(error))
                if class.is_none()
                    && output.is_empty()
                    && correct != Some(true)
                    && sdc.is_none() =>
            {
                Some(RecordFailure {
                    region,
                    brownout,
                    error,
                    kind,
                })
            }
            _ => return None,
        };
        let rec = RunRecord {
            input_index: t[1].parse().ok()?,
            completed,
            class,
            correct,
            output,
            live_cycles: t[5].parse().ok()?,
            dead_secs: f64::from_bits(u64::from_str_radix(t[6], 16).ok()?),
            total_energy_pj: t[7].parse().ok()?,
            reboots: t[8].parse().ok()?,
            sdc,
            corruption_detected,
            failure,
        };
        // Canonical form only: no leading zeros or `+` signs, no
        // redundant escapes, no empty forensics block.
        (rec.encode_line() == line).then_some(rec)
    }
}

/// A value token: `-` for `None`.
fn opt_tok(v: Option<impl fmt::Display>) -> String {
    v.map_or_else(|| "-".to_string(), |x| x.to_string())
}

/// A string token: `-` for `None`, otherwise `=` and the percent-encoded
/// string (so `Some("")` stays distinct from `None`).
fn str_tok(v: Option<&str>) -> String {
    v.map_or_else(|| "-".to_string(), |s| format!("={}", enc(s)))
}

/// Parses an optional token: `Some(None)` for `-`, `None` when `parse`
/// rejects the token.
fn opt_field<T>(s: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<Option<T>> {
    if s == "-" {
        Some(None)
    } else {
        parse(s).map(Some)
    }
}

/// One cell of an experiment's report, rebuilt from records.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Index into the job's power systems.
    pub power_index: usize,
    /// Index into the job's backends.
    pub backend_index: usize,
    /// Backend label.
    pub backend: String,
    /// Power-system label.
    pub power: String,
    /// Whether every one of the cell's shards is sealed on disk. A
    /// partial cell still summarizes (over the records it has) so an
    /// analyst can render an in-flight report.
    pub complete: bool,
    /// Population summary over the available records; bit-equal to
    /// [`crate::fleet::FleetCell::summarize`] when the cell is complete.
    pub summary: CellSummary,
    /// Cell digest over the available records; equals
    /// [`crate::fleet::FleetCell::digest`] when the cell is complete.
    pub digest: u64,
    /// The available records, in shard (= input) order.
    pub records: Vec<RunRecord>,
}

/// The result of one experiment invocation.
#[derive(Clone, Debug)]
pub struct ExperimentOutcome {
    /// The experiment's directory (`root/name`).
    pub dir: PathBuf,
    /// The job's manifest hash.
    pub job_hash: u64,
    /// Whether every planned shard is sealed on disk.
    pub complete: bool,
    /// Fleet digest over all cells; when `complete`, bit-equal to
    /// [`crate::fleet::fleet_digest`] of [`crate::fleet::run_fleet`] on
    /// the same job.
    pub digest: u64,
    /// Shards executed by this invocation.
    pub executed_shards: usize,
    /// Sealed shards loaded from disk instead of re-run.
    pub loaded_shards: usize,
    /// Shards still pending (non-zero only under a shard budget).
    pub pending_shards: usize,
    /// Per-cell reports in `(power, backend)` submission order.
    pub cells: Vec<CellReport>,
}

/// Runs (or resumes) an experiment: plans shards, loads sealed ones,
/// executes the rest with the fleet engine's deterministic fan-out,
/// streams records to disk as shards run, and rebuilds the report by
/// merging per-shard buffers.
pub fn run_experiment(
    job: &FleetJob<'_>,
    cfg: &ExperimentConfig,
) -> Result<ExperimentOutcome, ExperimentError> {
    run_experiment_observed(job, cfg, &|_, _| {})
}

/// [`run_experiment`] with a per-run observer, invoked from worker
/// threads as runs finish (callers needing raw
/// [`crate::exec::InferenceOutcome`]s — e.g. the Fig. 10–12 pipelines —
/// collect them here instead of re-running cells).
pub fn run_experiment_observed(
    job: &FleetJob<'_>,
    cfg: &ExperimentConfig,
    on_run: &(dyn Fn(&ShardSpec, &FleetRun) + Sync),
) -> Result<ExperimentOutcome, ExperimentError> {
    let dir = cfg.root.join(&cfg.name);
    let hash = job_hash(job);
    let plan = plan_shards(job);
    let manifest_path = dir.join("manifest.txt");

    if cfg.resume && manifest_path.exists() {
        let found = read_manifest_hash(&manifest_path)?;
        if found != hash {
            return Err(ExperimentError::ManifestMismatch {
                path: manifest_path,
                expected: hash,
                found,
            });
        }
    } else if dir.exists() {
        fs::remove_dir_all(&dir).map_err(|e| io_at(&dir, &e))?;
    }
    let shard_dir = dir.join("shards");
    fs::create_dir_all(&shard_dir).map_err(|e| io_at(&shard_dir, &e))?;
    write_manifest(&dir, job, &cfg.name, hash, plan.len())?;

    // Checkpoint recovery: a sealed shard on disk is trusted (its `done`
    // digest re-verified) and loaded; anything unsealed or malformed is
    // re-run.
    let mut slots: Vec<Option<ShardData>> = Vec::with_capacity(plan.len());
    let mut loaded = 0;
    for shard in &plan {
        let data = if cfg.resume {
            load_shard(&shard_dir.join(shard_file_name(shard)), shard, hash)
        } else {
            None
        };
        loaded += data.is_some() as usize;
        slots.push(data);
    }

    let mut pending: Vec<(usize, ShardSpec)> = plan
        .iter()
        .copied()
        .enumerate()
        .filter(|&(i, _)| slots[i].is_none())
        .collect();
    if let Some(budget) = cfg.shard_budget {
        pending.truncate(budget);
    }
    let executed = pending.len();
    let results = crate::fleet::par_map(pending, &|(i, shard): (usize, ShardSpec)| {
        (i, execute_shard(job, &shard, &shard_dir, hash, on_run))
    });
    for (i, res) in results {
        slots[i] = Some(res?);
    }

    // Incremental aggregation: concatenate each cell's per-shard record
    // buffers in plan order and summarize the concatenation — the merge
    // that is bit-equal to the in-RAM path.
    let per_cell = plan_cell_shards(job.inputs.len(), job.replicas).len();
    let mut cells = Vec::new();
    let mut fleet = Fnv::new();
    let mut all_complete = true;
    for (ci, (pi, bi)) in cell_order(job).into_iter().enumerate() {
        let slot = &slots[ci * per_cell..(ci + 1) * per_cell];
        let complete = slot.iter().all(|s| s.is_some());
        let mut records: Vec<RunRecord> = Vec::new();
        let mut regions: Option<Vec<String>> = None;
        for s in slot.iter().flatten() {
            if regions.is_none() && !s.records.is_empty() {
                regions = Some(s.regions.clone());
            }
            records.extend(s.records.iter().cloned());
        }
        let backend = job.backends[bi].label();
        let power = job.powers[pi].label();
        let summary = summarize_records(
            &job.spec,
            &backend,
            &power,
            &records,
            regions.as_deref().unwrap_or(&[]),
        );
        let digest = cell_digest(bi, pi, &records);
        fleet.put(digest);
        all_complete &= complete;
        cells.push(CellReport {
            power_index: pi,
            backend_index: bi,
            backend,
            power,
            complete,
            summary,
            digest,
            records,
        });
    }

    Ok(ExperimentOutcome {
        dir,
        job_hash: hash,
        complete: all_complete,
        digest: fleet.finish(),
        executed_shards: executed,
        loaded_shards: loaded,
        pending_shards: plan.len() - loaded - executed,
        cells,
    })
}

/// FNV-1a hash over everything that determines a job's bit-exact
/// results: device spec and cost table, quantized model (dense and
/// sparse storage), inputs and labels, backend labels (which encode
/// their configuration), power-system parameters down to profile
/// segment bits, and the replica count. Equal hashes mean the identical
/// physics, so this hash gates resume.
pub fn job_hash(job: &FleetJob<'_>) -> u64 {
    let mut h = Fnv::new();
    h.put(job.spec.clock_hz);
    h.put(job.spec.sram_words as u64);
    h.put(job.spec.fram_words as u64);
    for op in Op::ALL {
        let c = job.spec.costs.cost(op);
        h.put(c.cycles as u64);
        h.put(c.energy_pj);
    }
    h.put(job.qmodel.input_shape.len() as u64);
    for &d in &job.qmodel.input_shape {
        h.put(d as u64);
    }
    h.put(job.qmodel.layers.len() as u64);
    for layer in &job.qmodel.layers {
        hash_layer(&mut h, layer);
    }
    h.put(job.inputs.len() as u64);
    for inp in &job.inputs {
        hash_q15s(&mut h, &inp.input);
        h.put(inp.label.map(|l| l as u64 + 1).unwrap_or(0));
    }
    h.put(job.backends.len() as u64);
    for b in &job.backends {
        hash_str(&mut h, &b.label());
    }
    h.put(job.powers.len() as u64);
    for p in &job.powers {
        hash_power(&mut h, p);
    }
    h.put(job.replicas as u64);
    // Fault plans change every run's physics, so they gate resume too.
    // Fault-free jobs (`None`) hash exactly as before the fault layer
    // existed, keeping old experiment directories resumable.
    if let Some(plan) = &job.faults {
        h.put(0xfa17);
        h.put(plan.targets().len() as u64);
        for &(t, kind) in plan.targets() {
            h.put(t);
            match kind {
                FaultKind::BitFlip { addr, bit } => {
                    h.put(1);
                    h.put(addr.index() as u64);
                    h.put(bit as u64);
                }
                FaultKind::StuckAt { addr, bit, high } => {
                    h.put(2);
                    h.put(addr.index() as u64);
                    h.put(bit as u64);
                    h.put(high as u64);
                }
                FaultKind::Brownout => h.put(3),
                FaultKind::TornWrite => h.put(4),
            }
        }
    }
    h.finish()
}

fn hash_str(h: &mut Fnv, s: &str) {
    h.put(s.len() as u64);
    for b in s.bytes() {
        h.put(b as u64);
    }
}

fn hash_q15s(h: &mut Fnv, qs: &[Q15]) {
    h.put(qs.len() as u64);
    for q in qs {
        h.put(q.raw() as u16 as u64);
    }
}

fn hash_layer(h: &mut Fnv, layer: &QLayer) {
    match layer {
        QLayer::Conv(c) => {
            h.put(1);
            for &d in &c.dims {
                h.put(d as u64);
            }
            hash_q15s(h, &c.weights);
            hash_q15s(h, &c.bias);
            h.put(c.shift as i64 as u64);
            match &c.sparse {
                None => h.put(0),
                Some(sc) => {
                    h.put(1);
                    h.put(sc.taps.len() as u64);
                    for taps in &sc.taps {
                        h.put(taps.len() as u64);
                        for t in taps {
                            h.put(t.c as u64);
                            h.put(t.ky as u64);
                            h.put(t.kx as u64);
                            h.put(t.w.raw() as u16 as u64);
                        }
                    }
                }
            }
        }
        QLayer::Dense(d) => {
            h.put(2);
            for &x in &d.dims {
                h.put(x as u64);
            }
            hash_q15s(h, &d.weights);
            hash_q15s(h, &d.bias);
            h.put(d.shift as i64 as u64);
            match &d.sparse {
                None => h.put(0),
                Some(csr) => {
                    h.put(1);
                    h.put(csr.row_ptr.len() as u64);
                    for &x in &csr.row_ptr {
                        h.put(x as u64);
                    }
                    h.put(csr.col.len() as u64);
                    for &x in &csr.col {
                        h.put(x as u64);
                    }
                    hash_q15s(h, &csr.val);
                }
            }
        }
        QLayer::Pool(p) => {
            h.put(3);
            h.put(p.kh as u64);
            h.put(p.kw as u64);
        }
        QLayer::Relu => h.put(4),
        QLayer::Flatten => h.put(5),
    }
}

fn hash_power(h: &mut Fnv, p: &PowerSystem) {
    match p {
        PowerSystem::Continuous => h.put(0),
        PowerSystem::Harvested(hv) => {
            h.put(1);
            h.put(hv.capacitance_f.to_bits());
            h.put(hv.v_on.to_bits());
            h.put(hv.v_off.to_bits());
            match &hv.profile {
                HarvestProfile::Constant(w) => {
                    h.put(10);
                    h.put(w.to_bits());
                }
                HarvestProfile::Square {
                    high_w,
                    low_w,
                    period_s,
                    duty,
                } => {
                    h.put(11);
                    h.put(high_w.to_bits());
                    h.put(low_w.to_bits());
                    h.put(period_s.to_bits());
                    h.put(duty.to_bits());
                }
                HarvestProfile::Piecewise(segs) => {
                    h.put(12);
                    h.put(segs.len() as u64);
                    for &(d, w) in segs {
                        h.put(d.to_bits());
                        h.put(w.to_bits());
                    }
                }
            }
        }
    }
}

/// A loaded or freshly-executed shard: its record buffer plus the
/// deployment's region-name order (seeded from the shard's first run,
/// for rebuilding the starvation histogram without traces).
struct ShardData {
    records: Vec<RunRecord>,
    regions: Vec<String>,
}

fn shard_file_name(s: &ShardSpec) -> String {
    format!(
        "p{:03}-b{:03}-s{:04}.runs",
        s.power_index, s.backend_index, s.shard_index
    )
}

fn header_line(s: &ShardSpec, job_hash: u64) -> String {
    format!(
        "shard v1 {} {} {} {} {} {job_hash:016x}",
        s.power_index, s.backend_index, s.shard_index, s.start, s.len
    )
}

/// The cell digest over `records` in input order — the one definition
/// behind [`CellReport::digest`] and [`crate::fleet::FleetCell::digest`].
pub(crate) fn cell_digest(backend_index: usize, power_index: usize, records: &[RunRecord]) -> u64 {
    let mut h = Fnv::new();
    h.put(backend_index as u64);
    h.put(power_index as u64);
    for r in records {
        r.put_digest(&mut h);
    }
    h.finish()
}

/// The deployment's region names in registration (layer) order, as the
/// run's trace lists them.
pub(crate) fn region_names(run: &FleetRun) -> Vec<String> {
    run.outcome
        .trace
        .regions
        .iter()
        .map(|x| x.name.clone())
        .collect()
}

fn io_at(path: &Path, e: &std::io::Error) -> ExperimentError {
    ExperimentError::Io(format!("{}: {e}", path.display()))
}

/// Executes one shard, streaming each record to the shard file as the
/// run finishes and sealing the file with a `done <count> <digest>`
/// line, where the digest is FNV-1a over the bytes of every line between
/// the header and the seal (newlines included): every record and region
/// byte is sealed, so a garbled field cannot load.
fn execute_shard(
    job: &FleetJob<'_>,
    shard: &ShardSpec,
    shard_dir: &Path,
    job_hash: u64,
    on_run: &(dyn Fn(&ShardSpec, &FleetRun) + Sync),
) -> Result<ShardData, ExperimentError> {
    let path = shard_dir.join(shard_file_name(shard));
    let file = fs::File::create(&path).map_err(|e| io_at(&path, &e))?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(w, "{}", header_line(shard, job_hash)).map_err(|e| io_at(&path, &e))?;

    let mut seal = Fnv::new();
    let mut sealed_line = |w: &mut std::io::BufWriter<fs::File>, line: &str| {
        seal.write(line.as_bytes());
        seal.write(b"\n");
        writeln!(w, "{line}")
    };
    let mut regions: Option<Vec<String>> = None;
    let mut records: Vec<RunRecord> = Vec::new();
    let mut write_err: Option<std::io::Error> = None;
    run_shard_with(job, shard, &mut |run| {
        regions.get_or_insert_with(|| region_names(run));
        let rec = RunRecord::from_run(run);
        if write_err.is_none() {
            // Stream (line-buffered): an analyst can tail the file, and
            // a kill loses at most the unsealed shard.
            let r = sealed_line(&mut w, &rec.encode_line()).and_then(|()| w.flush());
            if let Err(e) = r {
                write_err = Some(e);
            }
        }
        on_run(shard, run);
        records.push(rec);
    });
    if let Some(e) = write_err {
        return Err(io_at(&path, &e));
    }

    let regions = regions.unwrap_or_default();
    let mut regions_line = String::from("regions");
    for r in &regions {
        regions_line.push_str(" =");
        regions_line.push_str(&enc(r));
    }
    sealed_line(&mut w, &regions_line).map_err(|e| io_at(&path, &e))?;
    writeln!(w, "done {} {:016x}", records.len(), seal.finish()).map_err(|e| io_at(&path, &e))?;
    w.flush().map_err(|e| io_at(&path, &e))?;
    Ok(ShardData { records, regions })
}

/// Loads a sealed shard file, returning `None` (re-run it) unless the
/// file is exactly what [`execute_shard`] writes for `shard`: the header,
/// one record per input of the span in order, the regions line, and a
/// seal whose count and digest match.
fn load_shard(path: &Path, shard: &ShardSpec, job_hash: u64) -> Option<ShardData> {
    let text = fs::read_to_string(path).ok()?;
    let body = text
        .strip_prefix(header_line(shard, job_hash).as_str())?
        .strip_prefix('\n')?;
    let (sealed, seal) = body.strip_suffix('\n')?.rsplit_once('\n')?;
    let mut h = Fnv::new();
    h.write(sealed.as_bytes());
    h.write(b"\n");
    if seal != format!("done {} {:016x}", shard.len, h.finish()) {
        return None;
    }
    let mut lines: Vec<&str> = sealed.split('\n').collect();
    let mut names = lines.pop()?.split(' ');
    if names.next()? != "regions" {
        return None;
    }
    let regions = names
        .map(|tok| dec(tok.strip_prefix('=')?))
        .collect::<Option<Vec<String>>>()?;
    let records = lines
        .into_iter()
        .map(RunRecord::decode_line)
        .collect::<Option<Vec<RunRecord>>>()?;
    let in_order = records.len() == shard.len
        && records
            .iter()
            .enumerate()
            .all(|(k, r)| r.input_index == shard.start + k);
    in_order.then_some(ShardData { records, regions })
}

fn write_manifest(
    dir: &Path,
    job: &FleetJob<'_>,
    name: &str,
    hash: u64,
    shards: usize,
) -> Result<(), ExperimentError> {
    let path = dir.join("manifest.txt");
    let mut s = String::from("sonic-experiment v1\n");
    s.push_str(&format!("name ={}\n", enc(name)));
    s.push_str(&format!("job {hash:016x}\n"));
    s.push_str(&format!(
        "grid powers={} backends={} inputs={} replicas={} shards={}\n",
        job.powers.len(),
        job.backends.len(),
        job.inputs.len(),
        job.replicas,
        shards
    ));
    for (i, p) in job.powers.iter().enumerate() {
        s.push_str(&format!("power {i} ={}\n", enc(&p.label())));
    }
    for (i, b) in job.backends.iter().enumerate() {
        s.push_str(&format!("backend {i} ={}\n", enc(&b.label())));
    }
    fs::write(&path, s).map_err(|e| io_at(&path, &e))
}

fn read_manifest_hash(path: &Path) -> Result<u64, ExperimentError> {
    let text = fs::read_to_string(path).map_err(|e| io_at(path, &e))?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("job ") {
            return u64::from_str_radix(rest.trim(), 16).map_err(|_| {
                ExperimentError::Malformed(format!("{}: bad job hash {rest:?}", path.display()))
            });
        }
    }
    Err(ExperimentError::Malformed(format!(
        "{}: no job line",
        path.display()
    )))
}

/// The population summary of one cell's records, in input order — the
/// one fold behind [`CellReport::summary`] and
/// [`crate::fleet::FleetCell::summarize`]. `region_order` is the
/// deployment's region list, which orders the starvation histogram.
pub(crate) fn summarize_records(
    spec: &DeviceSpec,
    backend: &str,
    power: &str,
    records: &[RunRecord],
    region_order: &[String],
) -> CellSummary {
    let completed: Vec<&RunRecord> = records.iter().filter(|r| r.completed).collect();
    let labeled = records.iter().filter(|r| r.correct.is_some()).count();
    let right = records
        .iter()
        .filter(|r| r.correct == Some(true) && r.completed)
        .count();
    let metric =
        |f: &dyn Fn(&RunRecord) -> f64| -> Vec<f64> { completed.iter().map(|r| f(r)).collect() };
    let failures = || records.iter().filter_map(|r| r.failure.as_ref());
    // One count per failed run against the region it starved in, in
    // region order; regions that starved nothing are dropped.
    let mut starved: Vec<(String, u64)> = region_order.iter().map(|n| (n.clone(), 0)).collect();
    for f in failures() {
        match starved.iter_mut().find(|(n, _)| *n == f.region) {
            Some((_, c)) => *c += 1,
            None => starved.push((f.region.clone(), 1)),
        }
    }
    starved.retain(|&(_, c)| c > 0);
    let stuck_tasks = || {
        failures().filter_map(|f| match &f.kind {
            FailureKind::NonTermination(task) => Some(task),
            _ => None,
        })
    };
    CellSummary {
        backend: backend.to_string(),
        power: power.to_string(),
        runs: records.len(),
        completed: completed.len(),
        completion_rate: if records.is_empty() {
            0.0
        } else {
            completed.len() as f64 / records.len() as f64
        },
        accuracy: (labeled > 0).then(|| right as f64 / labeled as f64),
        total_secs: stats(&metric(&|r| {
            spec.cycles_to_secs(r.live_cycles) + r.dead_secs
        })),
        energy_mj: stats(&metric(&|r| r.total_energy_pj as f64 * 1e-9)),
        reboots: stats(&metric(&|r| r.reboots as f64)),
        starved,
        sdc: records.iter().filter(|r| r.sdc == Some(true)).count(),
        corruption_detected: records.iter().map(|r| r.corruption_detected).sum(),
        corrupted_runs: failures()
            .filter(|f| matches!(f.kind, FailureKind::Corrupted(_)))
            .count(),
        non_termination: stuck_tasks().count(),
        non_termination_task: stuck_tasks().next().cloned(),
    }
}

/// Percent-encodes bytes outside a conservative whitelist so encoded
/// strings are single space-free tokens.
fn enc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        let plain = b.is_ascii_alphanumeric()
            || matches!(
                b,
                b'_' | b'.'
                    | b':'
                    | b'#'
                    | b'('
                    | b')'
                    | b'/'
                    | b','
                    | b'+'
                    | b'~'
                    | b'\''
                    | b'*'
                    | b'-'
            );
        if plain {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02x}"));
        }
    }
    out
}

fn dec(s: &str) -> Option<String> {
    let raw = s.as_bytes();
    let mut bytes = Vec::with_capacity(raw.len());
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == b'%' {
            let hex = std::str::from_utf8(raw.get(i + 1..i + 3)?).ok()?;
            bytes.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            bytes.push(raw[i]);
            i += 1;
        }
    }
    String::from_utf8(bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests_support::tiny_pruned_qmodel;
    use crate::exec::{Backend, TailsConfig};
    use crate::fleet::{fleet_digest, run_fleet, FleetInput};
    use dnn::quant::QModel;
    use proptest::prelude::*;

    fn test_root(name: &str) -> PathBuf {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/exp-unit-tests")
            .join(name);
        let _ = fs::remove_dir_all(&root);
        root
    }

    fn tiny_job<'a>(
        qm: &'a QModel,
        input: &[Q15],
        n_inputs: usize,
        replicas: usize,
    ) -> FleetJob<'a> {
        FleetJob {
            qmodel: qm,
            spec: DeviceSpec::msp430fr5994(),
            inputs: (0..n_inputs)
                .map(|i| FleetInput {
                    input: input.to_vec(),
                    label: Some(i % 2),
                })
                .collect(),
            backends: vec![
                Backend::Sonic,
                Backend::Tails(TailsConfig::default()),
                Backend::Tiled(8),
            ],
            powers: vec![PowerSystem::continuous(), PowerSystem::cap_100uf()],
            replicas,
            faults: None,
        }
    }

    /// A failed run's record whose strings carry every codec hazard:
    /// spaces, `%`, `=`, `-`, newlines and non-ASCII.
    fn failed_record() -> RunRecord {
        RunRecord {
            input_index: 42,
            completed: false,
            class: None,
            correct: Some(false),
            output: vec![],
            live_cycles: 123_456_789,
            dead_secs: 0.1 + 0.2, // a value with messy bits
            total_energy_pj: 987_654_321,
            reboots: 7,
            sdc: None,
            corruption_detected: 0,
            failure: Some(RecordFailure {
                region: "fc".into(),
                brownout: Some("natural op#91 (FramWrite/Kernel) in fc — 100% á".into()),
                error: "supply dead: buffer 8e-6 F never recharges\nline2 =%-".into(),
                kind: FailureKind::Other,
            }),
        }
    }

    fn completed_record() -> RunRecord {
        RunRecord {
            input_index: 0,
            completed: true,
            class: Some(3),
            correct: None,
            output: vec![-32768, -1, 0, 17, 32767],
            live_cycles: 1,
            dead_secs: 0.0,
            total_energy_pj: 2,
            reboots: 0,
            sdc: None,
            corruption_detected: 0,
            failure: None,
        }
    }

    fn round_trip(rec: &RunRecord) -> Option<RunRecord> {
        let line = rec.encode_line();
        assert!(!line.contains('\n'), "records are single lines: {line:?}");
        RunRecord::decode_line(&line)
    }

    #[test]
    fn run_record_round_trips_through_the_line_codec() {
        let failed = failed_record();
        assert_eq!(round_trip(&failed), Some(failed.clone()));
        // An empty error string survives, distinct from a missing one.
        let mut empty_error = failed.clone();
        empty_error.failure.as_mut().unwrap().error = String::new();
        assert_eq!(round_trip(&empty_error), Some(empty_error));
        let done = completed_record();
        assert_eq!(round_trip(&done), Some(done.clone()));
        // The forensics block: non-termination and corruption verdicts.
        for kind in [
            FailureKind::NonTermination("tile128 layer0".into()),
            FailureKind::Corrupted("conv=1".into()),
        ] {
            let mut rec = failed.clone();
            rec.failure.as_mut().unwrap().kind = kind;
            rec.corruption_detected = 3;
            assert_eq!(round_trip(&rec), Some(rec.clone()));
        }
    }

    #[test]
    fn record_decoder_rejects_lines_the_runtime_cannot_write() {
        // Replaces token `i` of `rec`'s line (or appends `tail`).
        let edit = |rec: &RunRecord, i: usize, tok: &str| {
            let line = rec.encode_line();
            let mut t: Vec<&str> = line.split(' ').collect();
            t[i] = tok;
            t.join(" ")
        };
        let (done, failed) = (completed_record(), failed_record());
        let rejected = [
            // A completed run with a failure token.
            edit(&done, 10, "=fc"),
            edit(&done, 11, "=natural"),
            edit(&done, 12, "="),
            format!("{} - 0 - =stuck", done.encode_line()),
            // A failed run with a class, an output or a right answer.
            edit(&failed, 3, "3"),
            edit(&failed, 9, "=1,2"),
            edit(&failed, 4, "1"),
            format!("{} 1 0 - -", failed.encode_line()),
            // A failed run without its region or error.
            edit(&failed, 10, "-"),
            edit(&failed, 12, "-"),
            // Both a non-termination task and a corrupted region.
            format!("{} - 0 =fc =stuck", failed.encode_line()),
            // Non-canonical tokens.
            edit(&done, 1, "00"),
            edit(&done, 1, "+0"),
            edit(&done, 2, "-"),
            edit(&failed, 10, "=%66c"),
            format!("{} - 0 - -", failed.encode_line()),
            // Garbage.
            String::new(),
            "run".into(),
            format!("{} ", done.encode_line()),
        ];
        for line in &rejected {
            assert_eq!(RunRecord::decode_line(line), None, "accepted {line:?}");
        }
    }

    /// Any text the codec must carry: separators, escapes, newlines and
    /// multi-byte characters.
    fn text() -> impl Strategy<Value = String> {
        let chars = vec![
            'a', 'Z', '7', ' ', '%', '=', '-', ',', '#', '\n', '\0', 'é', '—', '😀',
        ];
        prop::collection::vec(prop::sample::select(chars), 0..10)
            .prop_map(|cs| cs.into_iter().collect::<String>())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every record the runtime can write round-trips exactly.
        #[test]
        fn consistent_records_round_trip_through_the_line_codec(
            numbers in (any::<usize>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            output in prop::collection::vec(any::<i16>(), 0..12),
            texts in (text(), text(), text(), text()),
            shape in (any::<bool>(), 0u8..3, 0u8..3, 0usize..8, any::<bool>()),
            corruption_detected in prop_oneof![Just(0u64), any::<u64>()],
        ) {
            let (input_index, dead_bits, live_cycles, total_energy_pj, reboots) = numbers;
            let (completed, kind, flag, class, brownout) = shape;
            let flag = [None, Some(false), Some(true)][flag as usize];
            let (region, brownout_text, error, detail) = texts;
            let rec = RunRecord {
                input_index,
                completed,
                class: (completed && class > 0).then_some(class),
                correct: if completed { flag } else { flag.map(|_| false) },
                output: if completed { output } else { Vec::new() },
                live_cycles,
                dead_secs: f64::from_bits(dead_bits),
                total_energy_pj,
                reboots,
                sdc: flag.filter(|_| completed),
                corruption_detected,
                failure: (!completed).then(|| RecordFailure {
                    region,
                    brownout: brownout.then_some(brownout_text),
                    error,
                    kind: match kind {
                        0 => FailureKind::Other,
                        1 => FailureKind::NonTermination(detail),
                        _ => FailureKind::Corrupted(detail),
                    },
                }),
            };
            let back = round_trip(&rec).expect("a consistent record decodes");
            // Compared by bits: NaN payloads are valid `dead_secs` bits.
            prop_assert_eq!(back.dead_secs.to_bits(), dead_bits);
            let (back, rec) = (RunRecord { dead_secs: 0.0, ..back }, RunRecord { dead_secs: 0.0, ..rec });
            prop_assert_eq!(back, rec);
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_sealed_shard_is_rejected_or_harmless() {
        // One cell that completes and one that starves (Tile-128's tasks
        // outgrow 8 µF), so both record shapes are sealed.
        let (qm, input) = tiny_pruned_qmodel();
        let mut job = tiny_job(&qm, &input, 2, 1);
        job.backends = vec![Backend::Sonic, Backend::Tiled(128)];
        job.powers = vec![PowerSystem::harvested(8e-6)];
        let mut cfg = ExperimentConfig::new("bit-flips");
        cfg.root = test_root("bit-flips");
        let out = run_experiment(&job, &cfg).expect("experiment runs");
        assert!(out.cells[0].records.iter().all(|r| r.completed));
        assert!(out.cells[1].records.iter().all(|r| !r.completed));
        let hash = job_hash(&job);
        let scratch = cfg.root.join("flipped.runs");
        for shard in plan_shards(&job) {
            let path = out.dir.join("shards").join(shard_file_name(&shard));
            let clean = load_shard(&path, &shard, hash).expect("a sealed shard loads");
            assert_eq!(clean.records, out.cells[shard.backend_index].records);
            let bytes = fs::read(&path).unwrap();
            for bit in 0..bytes.len() * 8 {
                let mut garbled = bytes.clone();
                garbled[bit / 8] ^= 1 << (bit % 8);
                fs::write(&scratch, &garbled).unwrap();
                if let Some(got) = load_shard(&scratch, &shard, hash) {
                    assert_eq!(got.records, clean.records, "bit {bit} mis-parsed");
                    assert_eq!(got.regions, clean.regions, "bit {bit} mis-parsed");
                }
            }
        }
    }

    #[test]
    fn experiment_matches_the_in_ram_fleet_bit_for_bit() {
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 3, 2);
        let mut cfg = ExperimentConfig::new("in-ram-equivalence");
        cfg.root = test_root("in-ram-equivalence");
        let out = run_experiment(&job, &cfg).expect("experiment runs");
        assert!(out.complete);
        assert_eq!(out.pending_shards, 0);

        let cells = run_fleet(&job);
        assert_eq!(out.digest, fleet_digest(&cells));
        let spec = DeviceSpec::msp430fr5994();
        for (report, cell) in out.cells.iter().zip(&cells) {
            assert!(report.complete);
            assert_eq!(report.digest, cell.digest());
            assert_eq!(report.summary, cell.summarize(&spec), "summaries bit-equal");
            assert_eq!(report.records.len(), cell.runs.len());
        }
    }

    #[test]
    fn killed_experiment_resumes_bit_equal_to_an_uninterrupted_run() {
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 4, 2);
        let root = test_root("kill-resume");

        let mut clean = ExperimentConfig::new("clean");
        clean.root = root.clone();
        let clean_out = run_experiment(&job, &clean).expect("clean run");
        assert!(clean_out.complete);

        // "Kill after k shards": the runner stops after 3 of 12.
        let mut killed = ExperimentConfig::new("killed");
        killed.root = root.clone();
        killed.shard_budget = Some(3);
        let partial = run_experiment(&job, &killed).expect("budgeted run");
        assert!(!partial.complete);
        assert_eq!(partial.executed_shards, 3);
        assert_eq!(partial.pending_shards, 9);
        // A partial report still renders: the first cell's shards ran
        // first in plan order, so it has records already.
        assert!(partial.cells[0].summary.runs > 0);

        // Resume: sealed shards load, the rest run, digest is bit-equal.
        let mut resume = killed.clone();
        resume.resume = true;
        resume.shard_budget = None;
        let resumed = run_experiment(&job, &resume).expect("resumed run");
        assert!(resumed.complete);
        assert_eq!(resumed.loaded_shards, 3);
        assert_eq!(resumed.executed_shards, 9);
        assert_eq!(resumed.digest, clean_out.digest);
        for (a, b) in resumed.cells.iter().zip(&clean_out.cells) {
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.summary, b.summary);
        }
    }

    #[test]
    fn a_shard_killed_mid_write_is_rerun_on_resume() {
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 4, 2);
        let root = test_root("mid-shard-kill");

        let mut cfg = ExperimentConfig::new("exp");
        cfg.root = root.clone();
        let clean = run_experiment(&job, &cfg).expect("clean run");

        // Simulate a kill mid-shard: chop a sealed shard file short so
        // it has records but no `done` seal.
        let shard_dir = root.join("exp").join("shards");
        let victim = shard_dir.join("p000-b000-s0000.runs");
        let text = fs::read_to_string(&victim).unwrap();
        let truncated: Vec<&str> = text.lines().take(2).collect();
        fs::write(&victim, truncated.join("\n")).unwrap();

        let mut resume = cfg.clone();
        resume.resume = true;
        let resumed = run_experiment(&job, &resume).expect("resumed run");
        assert!(resumed.complete);
        assert_eq!(resumed.executed_shards, 1, "only the torn shard re-runs");
        assert_eq!(resumed.digest, clean.digest);
    }

    #[test]
    fn resume_rejects_a_different_job() {
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 2, 1);
        let root = test_root("mismatch");
        let mut cfg = ExperimentConfig::new("exp");
        cfg.root = root.clone();
        run_experiment(&job, &cfg).expect("first run");

        let other = tiny_job(&qm, &input, 3, 1); // different input count
        let mut resume = cfg.clone();
        resume.resume = true;
        match run_experiment(&other, &resume) {
            Err(ExperimentError::ManifestMismatch {
                expected, found, ..
            }) => {
                assert_ne!(expected, found);
            }
            other => panic!("expected manifest mismatch, got {other:?}"),
        }
        // Replica count is job semantics, so it also gates resume.
        let mut r4 = tiny_job(&qm, &input, 2, 1);
        r4.replicas = 4;
        assert!(matches!(
            run_experiment(&r4, &resume),
            Err(ExperimentError::ManifestMismatch { .. })
        ));
    }

    #[test]
    fn fresh_run_wipes_stale_records() {
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 2, 2);
        let root = test_root("fresh-wipe");
        let mut cfg = ExperimentConfig::new("exp");
        cfg.root = root;
        let first = run_experiment(&job, &cfg).expect("first run");
        assert_eq!(first.loaded_shards, 0);
        // Without --resume the directory is wiped: nothing is loaded.
        let second = run_experiment(&job, &cfg).expect("second run");
        assert_eq!(second.loaded_shards, 0);
        assert_eq!(second.executed_shards, first.executed_shards);
        assert_eq!(second.digest, first.digest);
    }

    #[test]
    fn observer_sees_every_run_with_its_shard() {
        use std::sync::Mutex;
        let (qm, input) = tiny_pruned_qmodel();
        let job = tiny_job(&qm, &input, 3, 2);
        let mut cfg = ExperimentConfig::new("observer");
        cfg.root = test_root("observer");
        let seen: Mutex<Vec<(usize, usize, usize)>> = Mutex::new(Vec::new());
        run_experiment_observed(&job, &cfg, &|shard, run| {
            seen.lock()
                .unwrap()
                .push((shard.power_index, shard.backend_index, run.input_index));
        })
        .expect("experiment runs");
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        let mut expect = Vec::new();
        for pi in 0..job.powers.len() {
            for bi in 0..job.backends.len() {
                for i in 0..job.inputs.len() {
                    expect.push((pi, bi, i));
                }
            }
        }
        assert_eq!(seen, expect);
    }
}
