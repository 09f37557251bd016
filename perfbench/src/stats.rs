//! The benchmark's arithmetic: percentiles by the reporting rule, digest
//! combination, failure counting, the tracing-overhead line, and the
//! result line. Kept free of simulation so it can be unit-tested.

use sonic::fleet::percentile;

/// Percentiles a timing may be reported at, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples strictly above the nearest-rank `p`-th percentile of `n`
/// samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// The highest percentile with at least ten samples beyond it, or
/// `None` when even the median has fewer than ten above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// A timing sample reduced to its median and the tail percentile the
/// reporting rule allows, with the sample count.
#[derive(Clone, Debug, PartialEq)]
pub struct Timing {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Largest sample.
    pub max: f64,
    /// `(percentile, value)` chosen by [`tail_percentile`].
    pub tail: Option<(f64, f64)>,
}

impl Timing {
    /// Reduces `samples` (any order). Panics on an empty sample: every
    /// timed layer runs at least once.
    pub fn of(samples: &[f64]) -> Timing {
        assert!(!samples.is_empty(), "a timing needs at least one sample");
        let at = |p| percentile(samples, p).expect("non-empty");
        Timing {
            n: samples.len(),
            p50: at(50.0),
            p90: at(90.0),
            max: samples.iter().copied().fold(f64::MIN, f64::max),
            tail: tail_percentile(samples.len()).map(|p| (p, at(p))),
        }
    }

    /// `p50 <x>, p<q> <y> (n=<n>)`, values scaled by `scale` and suffixed
    /// with `unit`; the tail is left out when no percentile above the
    /// median has ten samples beyond it.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) if p > 50.0 => format!(", p{p} {:.3}{unit}", v * scale),
            _ => String::new(),
        };
        format!("p50 {:.3}{unit}{tail} (n={})", self.p50 * scale, self.n)
    }
}

/// Nearest-rank median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).expect("median of an empty sample")
}

/// Combines per-network experiment digests into one workload digest,
/// exactly as the fleet bench does: each network's digest rotated left
/// by the length of its label, XOR-folded in network order.
pub fn combine_digests<'a>(per_network: impl IntoIterator<Item = (&'a str, u64)>) -> u64 {
    per_network
        .into_iter()
        .fold(0, |acc, (label, d)| acc ^ d.rotate_left(label.len() as u32))
}

/// What the harness learned about one cell of one job execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellVerdict {
    /// Inferences the cell attempted.
    pub runs: u64,
    /// The cell's digest matched its reference.
    pub digest_ok: bool,
    /// The cell's shard (or the whole experiment) returned an error.
    pub errored: bool,
    /// Completed runs whose output broke a per-run check.
    pub bad_runs: u64,
}

impl CellVerdict {
    /// Inferences of this cell that count as failed: all of them when
    /// its digest mismatched or its shard errored, otherwise the runs
    /// that broke a per-run check.
    pub fn failed(&self) -> u64 {
        if self.errored || !self.digest_ok {
            self.runs
        } else {
            self.bad_runs.min(self.runs)
        }
    }
}

/// Failed and attempted inferences over a set of cell verdicts.
pub fn tally(cells: &[CellVerdict]) -> (u64, u64) {
    cells
        .iter()
        .fold((0, 0), |(f, a), c| (f + c.failed(), a + c.runs))
}

/// `failed / attempted`; zero when nothing was attempted.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Relative cost of timing from outside: the traced pass's wall clock
/// over the untraced one, minus one.
pub fn overhead_share(traced_s: f64, untraced_s: f64) -> f64 {
    traced_s / untraced_s - 1.0
}

/// The line that reports tracing overhead.
pub fn overhead_line(traced_s: f64, untraced_s: f64) -> String {
    format!(
        "tracing overhead: traced fleet {traced_s:.4} s vs untraced {untraced_s:.4} s \
         ({:+.1}%)",
        100.0 * overhead_share(traced_s, untraced_s)
    )
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric with its unit. Values print with all their
/// digits (Rust's shortest round-trip form).
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(runs: u64) -> CellVerdict {
        CellVerdict {
            runs,
            digest_ok: true,
            errored: false,
            bad_runs: 0,
        }
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(samples_beyond(20, 50.0), 10);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(20_000), Some(99.9));
    }

    #[test]
    fn timing_reports_rule_percentile_and_count() {
        let samples: Vec<f64> = (1..=120).rev().map(f64::from).collect();
        let t = Timing::of(&samples);
        assert_eq!(t.n, 120);
        assert_eq!(t.p50, 60.0);
        assert_eq!(t.p90, 108.0);
        assert_eq!(t.max, 120.0);
        assert_eq!(t.tail, Some((90.0, 108.0)));
        assert_eq!(
            t.describe(1.0, " us"),
            "p50 60.000 us, p90 108.000 us (n=120)"
        );
        let few = Timing::of(&[3.0, 1.0, 2.0]);
        assert_eq!(few.tail, None);
        assert_eq!(few.describe(1.0, " s"), "p50 2.000 s (n=3)");
    }

    #[test]
    fn digests_combine_like_the_fleet_bench() {
        let d = [
            ("MNIST", 0x1u64),
            ("HAR", 0x8000_0000_0000_0000),
            ("OkG", 0xff),
        ];
        let want = 0x1u64.rotate_left(5)
            ^ 0x8000_0000_0000_0000u64.rotate_left(3)
            ^ 0xffu64.rotate_left(3);
        assert_eq!(combine_digests(d), want);
        assert_eq!(combine_digests([]), 0);
        // Order-independent (XOR) but label-length-sensitive.
        assert_eq!(combine_digests([d[2], d[0], d[1]]), want);
        assert_ne!(
            combine_digests([("MNISTX", 0x1)]),
            combine_digests([("MNIST", 0x1)])
        );
    }

    #[test]
    fn failed_share_counts_whole_cells_on_mismatch_or_error() {
        let cells = [
            ok(8),
            CellVerdict {
                digest_ok: false,
                ..ok(8)
            },
            CellVerdict {
                errored: true,
                ..ok(16)
            },
            CellVerdict {
                bad_runs: 3,
                ..ok(8)
            },
            CellVerdict {
                digest_ok: false,
                bad_runs: 3,
                ..ok(8)
            },
        ];
        let (failed, attempted) = tally(&cells);
        assert_eq!(attempted, 48);
        assert_eq!(failed, 8 + 16 + 3 + 8);
        assert_eq!(failed_share(failed, attempted), 35.0 / 48.0);
        assert_eq!(tally(&[ok(864)]), (0, 864));
        assert_eq!(failed_share(0, 0), 0.0);
    }

    #[test]
    fn overhead_line_reports_relative_cost() {
        assert!((overhead_share(2.2, 2.0) - 0.1).abs() < 1e-12);
        assert_eq!(
            overhead_line(2.2, 2.0),
            "tracing overhead: traced fleet 2.2000 s vs untraced 2.0000 s (+10.0%)"
        );
        assert_eq!(
            overhead_line(1.9, 2.0),
            "tracing overhead: traced fleet 1.9000 s vs untraced 2.0000 s (-5.0%)"
        );
    }

    #[test]
    fn result_json_prints_every_digit() {
        let line = result_json(
            true,
            864,
            0,
            &[
                Metric::new("latency_ms", 1.2034567891234, "ms"),
                Metric::new("n", 3.0, "count"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 864, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567891234, \"unit\": \"ms\"}, \
             \"n\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
