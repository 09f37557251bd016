//! Fleet-simulation benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-fleet|continuous-population|harvest-intermittent> \
//!     [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Run from the repository root. With `--trace 0` the workload's jobs run
//! through the experiment service (`sonic::experiment::run_experiment`)
//! for `--seconds`, and the end-to-end metrics are printed. With
//! `--trace 1` one traced pass times each module's public functions from
//! outside and prints the per-layer metrics. Either way every output is
//! checked and the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A failed check exits with code 1.

mod run;
mod stats;
mod traced;
mod workload;

use run::{check_outputs, sim_results, verdicts, Execution};
use stats::{failed_share, median, result_json, tally, CellVerdict, Metric};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{jobs, setup, NetJob, Workload, DEFAULT_SEED, LANES};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Fewest timed executions per run, however long each takes.
const MIN_REPS: usize = 3;

/// Threads the fleet fans out over.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The commit the working tree is at, read from `.git` without leaving
/// the current directory.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(name)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({name})"))
}

/// Loads every network once in a child process, so a cold model cache
/// trains there: its time never lands in `setup_s` and its memory never
/// in `peak_rss_mb`. Returns the child's wall time.
fn warm_model_cache() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let t = Instant::now();
    let status = std::process::Command::new(exe)
        .arg("--warm-model-cache")
        .status()
        .map_err(|e| format!("spawning the cache warm-up: {e}"))?;
    if !status.success() {
        return Err(format!("model cache warm-up failed: {status}"));
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's experiment root: under `target/`, owned by this
/// workload, wiped at the start and end of every run.
fn work_root(w: Workload) -> PathBuf {
    PathBuf::from("target/perfbench").join(w.name())
}

fn wipe(root: &Path) {
    if root.exists() {
        std::fs::remove_dir_all(root).expect("wiping the benchmark's experiment root");
    }
}

/// Compares a workload digest with its pinned value (when the inputs
/// come from [`DEFAULT_SEED`]), prints the comparison, and returns
/// whether it held.
fn check_pinned(w: Workload, digest: Option<u64>, pinned: bool) -> bool {
    let shown = digest.map_or("none".into(), |d| format!("{d:#018x}"));
    if !pinned {
        println!(
            "# {} digest: {shown} (non-default seed: no pinned value)",
            w.name()
        );
        return digest.is_some();
    }
    let ok = digest == Some(w.pinned_digest());
    println!(
        "# {} digest: {shown} (pinned {:#018x}) {}",
        w.name(),
        w.pinned_digest(),
        if ok { "OK" } else { "MISMATCH" }
    );
    ok
}

/// Timed executions for `seconds` (at least [`MIN_REPS`]), then the
/// output checks. Returns the end-to-end metrics other than set-up and
/// memory, and the cell verdicts.
fn untraced(
    a: &Args,
    jobs: &[NetJob<'_>],
    root: &Path,
    pinned: bool,
) -> (Vec<Metric>, Vec<CellVerdict>) {
    let w = a.workload;
    let budget = Duration::from_secs_f64(a.seconds);
    let start = Instant::now();
    // Only the first execution is kept whole (its records feed the output
    // checks and the simulated metrics); later ones are reduced to their
    // digests at once, so peak memory does not grow with the run length.
    let first = Execution::run(jobs, root, "timed");
    let mut walls = vec![first.wall_s];
    let mut later = Vec::new();
    while walls.len() < MIN_REPS || start.elapsed() < budget {
        let e = Execution::run(jobs, root, "timed");
        e.report_errors();
        walls.push(e.wall_s);
        later.push((e.digest(), e.cell_digests(jobs)));
    }

    first.report_errors();
    let reference = first.cell_digests(jobs);
    let bad = check_outputs(jobs, &first);
    let bad_cells = bad.iter().filter(|&&b| b > 0).count();
    if bad_cells > 0 {
        println!(
            "# ERROR: {bad_cells} cells have runs that differ from their continuous reference"
        );
    }
    let first_ok = check_pinned(w, first.digest(), pinned);
    let mut all = verdicts(jobs, &reference, &reference, &bad, first_ok);
    for (digest, cells) in &later {
        let whole_ok = !pinned || *digest == Some(w.pinned_digest());
        all.extend(verdicts(jobs, cells, &reference, &bad, whole_ok));
    }

    let rates: Vec<f64> = walls.iter().map(|s| w.inferences() as f64 / s).collect();
    println!(
        "# {} timed executions of {} inferences: {}",
        walls.len(),
        w.inferences(),
        stats::Timing::of(&walls).describe(1.0, " s")
    );
    let listed: Vec<String> = walls.iter().map(|s| format!("{s:.3}")).collect();
    println!("# execution walls (s, in order): {}", listed.join(" "));
    let mut metrics = vec![Metric::new("inferences_per_s", median(&rates), "1/s")];
    if let Some(sim) = sim_results(jobs, &first) {
        println!(
            "# simulated: {} of {} completed, {} correct",
            sim.completed, sim.attempted, sim.correct
        );
        metrics.extend([
            Metric::new("sim_energy_mj_mean", sim.energy_mj_mean, "mJ"),
            Metric::new("sim_time_s_mean", sim.time_s_mean, "sim_s"),
            Metric::new(
                "completion_rate",
                sim.completed as f64 / sim.attempted as f64,
                "share",
            ),
            Metric::new(
                "accuracy",
                sim.correct as f64 / sim.completed as f64,
                "share",
            ),
        ]);
    }
    (metrics, all)
}

fn warm_child() -> ExitCode {
    for n in models::Network::ALL {
        std::hint::black_box(models::trained(n));
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--warm-model-cache") {
        return warm_child();
    }
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    run::pin_lanes();
    let w = a.workload;
    let seed = w.input_seed(a.seed);
    println!(
        "# workload {} seed {} (inputs from seed {seed}) trace {} | rev {} | nproc {} | \
         fleet threads {} | lanes {LANES}",
        w.name(),
        a.seed,
        a.trace as u8,
        git_rev(),
        nproc(),
        nproc().min(w.powers().len() * w.backends().len()),
    );
    match warm_model_cache() {
        Ok(s) => {
            println!("# model cache warm-up (cold training if any, apart from setup): {s:.3} s")
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    let root = work_root(w);
    wipe(&root);

    let pinned = seed == DEFAULT_SEED;
    let s = setup(w, seed, SETUP_REPS);
    println!(
        "# setup: {}",
        stats::Timing::of(&s.setup_s).describe(1.0, " s")
    );
    let jobs = jobs(w, &s.nets, seed);

    let (metrics, cells) = if a.trace {
        let mut t = traced::traced(&jobs, &s.load_s, &root);
        if !check_pinned(w, t.digest, pinned) {
            t.verdicts.iter_mut().for_each(|v| v.digest_ok = false);
        }
        (t.metrics, t.verdicts)
    } else {
        let (mut m, v) = untraced(&a, &jobs, &root, pinned);
        m.push(Metric::new("setup_s", median(&s.setup_s), "s"));
        m.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
        (m, v)
    };
    wipe(&root);

    let (failed, attempted) = tally(&cells);
    let correct = failed == 0 && attempted > 0;
    println!(
        "# failed_share {} ({failed} of {attempted} inferences)",
        failed_share(failed, attempted)
    );
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
