//! Power systems: continuous bench power or capacitor-buffered harvesting.
//!
//! An energy-harvesting device accumulates energy in a capacitor bank and
//! operates in bursts: it boots when the capacitor reaches `V_on`, runs
//! until the regulator browns out at `V_off`, then sits dead while the
//! harvester refills the buffer. The usable energy per burst is
//!
//! ```text
//! E_buf = ½ · C · (V_on² − V_off²)
//! ```
//!
//! and the recharge (dead) time for a drained buffer is the time needed for
//! the harvester's *input power profile* to deliver `E_buf`. The classic
//! setup is a constant profile (the paper's Powercast RF harvester, 150 µW
//! at 1 m from a 3 W transmitter), but real deployments see time-varying
//! input — a person walking between the antenna and the device, clouds over
//! a solar cell — which [`HarvestProfile`] models as a deterministic
//! function of time. Recharge time then *integrates* the profile from the
//! moment the device dies, so two power failures at different times can
//! see very different dead times.
//!
//! The paper evaluates three capacitor sizes (100 µF, 1 mF, 50 mF). The
//! preset constructors here use an operating window calibrated so that the
//! qualitative results of the paper hold (see DESIGN.md §4); the window is
//! narrow because the boost regulator on such boards restarts the MCU well
//! before the storage capacitor is empty.

use core::fmt;

/// Why a recorded harvest trace was rejected by
/// [`HarvestProfile::piecewise_from_csv`].
#[derive(Debug)]
pub enum TraceCsvError {
    /// Line `line` (1-based) is not a usable `duration_s,power_w` record.
    Line {
        /// The 1-based line number in the trace text.
        line: usize,
        /// What is wrong with it.
        reason: TraceLineError,
    },
    /// No segments remain once comments and the header are skipped.
    Empty,
    /// The trace file could not be read.
    Io(std::io::Error),
}

/// What is wrong with one rejected trace line.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceLineError {
    /// The line does not hold exactly two comma-separated fields.
    NotARecord(String),
    /// The duration field is not a number.
    BadDuration(String),
    /// The power field is not a number.
    BadPower(String),
    /// The duration is negative or non-finite.
    InvalidDuration(f64),
    /// The power is negative or non-finite.
    InvalidPower(f64),
}

impl fmt::Display for TraceCsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceCsvError::Line { line, reason } => write!(f, "line {line}: {reason}"),
            TraceCsvError::Empty => write!(f, "no segments in trace"),
            TraceCsvError::Io(e) => write!(f, "reading trace: {e}"),
        }
    }
}

impl fmt::Display for TraceLineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceLineError::NotARecord(l) => write!(f, "expected `duration_s,power_w`, got `{l}`"),
            TraceLineError::BadDuration(d) => write!(f, "bad duration `{d}`"),
            TraceLineError::BadPower(p) => write!(f, "bad power `{p}`"),
            TraceLineError::InvalidDuration(d) => write!(f, "invalid duration {d}"),
            TraceLineError::InvalidPower(p) => write!(f, "invalid power {p}"),
        }
    }
}

impl std::error::Error for TraceCsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceCsvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Voltage at which the device turns on, in volts (calibrated; see module
/// docs).
pub const V_ON: f64 = 2.10;
/// Brown-out voltage at which the device dies, in volts.
pub const V_OFF: f64 = 2.04;

/// Harvested input power in microwatts for the paper's RF setup
/// (Powercast P2110B at 1 m from a 3 W transmitter).
pub const RF_HARVEST_UW: f64 = 150.0;

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Harvested input power as a deterministic function of time.
///
/// All variants are pure functions of the simulation clock, so runs are
/// reproducible: the same workload on the same profile always observes the
/// same dead times, regardless of host threading.
#[derive(Clone, Debug, PartialEq)]
pub enum HarvestProfile {
    /// Fixed input power in watts — the original model. Recharge math for
    /// this variant is the exact expression used before profiles existed
    /// (`energy / power`), so constant-profile runs reproduce historical
    /// numbers bit for bit.
    Constant(f64),
    /// Square-wave occlusion: `high_w` watts for `duty · period_s`
    /// seconds, then `low_w` for the rest of the period, repeating.
    /// Models a transmitter that is periodically blocked (a person, a
    /// rotating machine part).
    Square {
        /// Input power while unobstructed, in watts.
        high_w: f64,
        /// Input power while occluded, in watts (may be 0).
        low_w: f64,
        /// Full occlusion cycle length in seconds.
        period_s: f64,
        /// Fraction of the period spent at `high_w`, in `(0, 1]`.
        duty: f64,
    },
    /// A piecewise-constant trace of `(duration_s, power_w)` segments,
    /// repeated cyclically — the import format for recorded solar or RF
    /// power traces.
    Piecewise(Vec<(f64, f64)>),
}

impl HarvestProfile {
    /// The paper's RF harvest setup: a constant 150 µW.
    pub fn rf_paper() -> Self {
        HarvestProfile::Constant(RF_HARVEST_UW * 1e-6)
    }

    /// A burst-duty-cycle harvest: full `high_w` power for `duty ·
    /// period_s` seconds, then nothing for the rest of the period —
    /// the parameterized generator behind duty-cycled transmitters
    /// (RFID readers polling on a schedule, a beacon that sleeps
    /// between bursts). A convenience constructor over
    /// [`HarvestProfile::Square`] with a fully-dark off phase.
    ///
    /// # Panics
    ///
    /// Panics if `period_s` is not positive or `duty` is outside
    /// `(0, 1]`.
    pub fn burst_duty(high_w: f64, period_s: f64, duty: f64) -> Self {
        assert!(period_s > 0.0, "burst_duty: non-positive period");
        assert!(
            duty > 0.0 && duty <= 1.0,
            "burst_duty: duty must be in (0, 1], got {duty}"
        );
        HarvestProfile::Square {
            high_w,
            low_w: 0.0,
            period_s,
            duty,
        }
    }

    /// A fading-RF harvest: the harvester walks away from the
    /// transmitter and back, so received power follows the inverse
    /// square of distance. One period sweeps distance linearly from
    /// 1 m out to `max_distance_m` and back (a triangular sweep),
    /// sampled at `segments` piecewise-constant steps of
    /// `period_s / segments` seconds each; the received power of a
    /// step is `peak_w / d²` at the step's midpoint distance.
    /// Deterministic — the same parameters always produce the same
    /// trace.
    ///
    /// # Panics
    ///
    /// Panics if `segments < 2`, `period_s` is not positive, or
    /// `max_distance_m < 1`.
    pub fn fading_rf(peak_w: f64, max_distance_m: f64, period_s: f64, segments: usize) -> Self {
        assert!(segments >= 2, "fading_rf: need at least 2 segments");
        assert!(period_s > 0.0, "fading_rf: non-positive period");
        assert!(
            max_distance_m >= 1.0,
            "fading_rf: max distance below the 1 m reference"
        );
        let dur = period_s / segments as f64;
        let segs = (0..segments)
            .map(|i| {
                // Triangular sweep over the unit interval, sampled at
                // segment midpoints: 0 → 1 over the first half of the
                // period, 1 → 0 over the second.
                let t = (i as f64 + 0.5) / segments as f64;
                let sweep = 1.0 - (2.0 * t - 1.0).abs();
                let d = 1.0 + (max_distance_m - 1.0) * sweep;
                (dur, peak_w / (d * d))
            })
            .collect();
        HarvestProfile::Piecewise(segs)
    }

    /// A deterministic pseudo-random occlusion trace derived from `seed`.
    ///
    /// Generates `segments` spans covering roughly `period_s` seconds in
    /// total; each span's duration varies around `period_s / segments` and
    /// its power is `base_w` attenuated by a seeded factor (about a
    /// quarter of the spans are fully occluded). The same seed always
    /// yields the same trace.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero or `period_s` is not positive.
    pub fn seeded_occlusion(base_w: f64, period_s: f64, segments: usize, seed: u64) -> Self {
        assert!(segments > 0, "seeded_occlusion: zero segments");
        assert!(period_s > 0.0, "seeded_occlusion: non-positive period");
        let mut state = seed ^ 0xA076_1D64_78BD_642F;
        let unit = |s: &mut u64| (splitmix64(s) >> 11) as f64 / (1u64 << 53) as f64;
        let mut segs = Vec::with_capacity(segments);
        for _ in 0..segments {
            let dur = period_s / segments as f64 * (0.5 + unit(&mut state));
            let r = unit(&mut state);
            // A quarter of the spans are fully occluded; the rest pass a
            // uniform fraction of the base power.
            let att = if r < 0.25 { 0.0 } else { (r - 0.25) / 0.75 };
            segs.push((dur, base_w * att));
        }
        HarvestProfile::Piecewise(segs)
    }

    /// Parses a recorded harvest trace from CSV text into a cyclic
    /// [`HarvestProfile::Piecewise`] profile.
    ///
    /// The import format for recorded solar/RF power traces: one
    /// `duration_s,power_w` pair per line. Blank lines and `#` comments
    /// (full-line or trailing) are ignored; an optional header line (any
    /// line whose first field is not a number) is skipped, wherever the
    /// leading comments put it. Durations are seconds, powers watts — a
    /// 150 µW RF harvest is `0.5,150e-6`. The parsed segments repeat
    /// cyclically forever, so a 60 s recording powers a week-long
    /// simulated deployment.
    ///
    /// ```
    /// use mcu::{HarvestProfile, PowerSystem};
    ///
    /// let trace = "\
    /// ## office corridor, 1 m from the transmitter
    /// duration_s,power_w
    /// 4.0,150e-6
    /// 1.5,0.0      # someone walks through the beam
    /// 2.5,80e-6
    /// ";
    /// let profile = HarvestProfile::piecewise_from_csv(trace).unwrap();
    /// assert!(profile.avg_power_w() > 0.0);
    /// // Ready to power a capacitor-buffered device:
    /// let supply = PowerSystem::harvested_with(100e-6, profile);
    /// assert_eq!(supply.label(), "100uF~tr");
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`TraceCsvError::Line`] with the 1-based line number when a
    /// line is not a two-field numeric record, a duration is
    /// negative/non-finite, or a power is negative/non-finite, and
    /// [`TraceCsvError::Empty`] when no segments remain.
    pub fn piecewise_from_csv(text: &str) -> Result<Self, TraceCsvError> {
        let mut segs = Vec::new();
        let mut header_skipped = false;
        for (idx, line) in text.lines().enumerate() {
            let reject = |reason| TraceCsvError::Line {
                line: idx + 1,
                reason,
            };
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split(',').map(str::trim);
            let (Some(d), Some(p), None) = (fields.next(), fields.next(), fields.next()) else {
                return Err(reject(TraceLineError::NotARecord(line.to_string())));
            };
            let Ok(dur) = d.parse::<f64>() else {
                // The first non-numeric record (before any data) is the
                // optional header, wherever comments put it.
                if segs.is_empty() && !header_skipped {
                    header_skipped = true;
                    continue;
                }
                return Err(reject(TraceLineError::BadDuration(d.to_string())));
            };
            let power: f64 = p
                .parse()
                .map_err(|_| reject(TraceLineError::BadPower(p.to_string())))?;
            if !dur.is_finite() || dur < 0.0 {
                return Err(reject(TraceLineError::InvalidDuration(dur)));
            }
            if !power.is_finite() || power < 0.0 {
                return Err(reject(TraceLineError::InvalidPower(power)));
            }
            segs.push((dur, power));
        }
        if segs.is_empty() {
            return Err(TraceCsvError::Empty);
        }
        Ok(HarvestProfile::Piecewise(segs))
    }

    /// Loads a recorded harvest trace from a CSV file; see
    /// [`HarvestProfile::piecewise_from_csv`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceCsvError::Io`] when the file cannot be read, and
    /// the parse errors of [`HarvestProfile::piecewise_from_csv`].
    pub fn piecewise_from_csv_file(
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, TraceCsvError> {
        let text = std::fs::read_to_string(path).map_err(TraceCsvError::Io)?;
        Self::piecewise_from_csv(&text)
    }

    /// Validates the profile's parameters, panicking on a
    /// misconfiguration (non-finite or negative powers, `duty` outside
    /// `(0, 1]`, non-positive period, negative segment durations).
    /// Called by [`crate::PowerSystem::harvested_with`] and the recharge
    /// integrator, so a bad profile fails loudly instead of silently
    /// corrupting dead-time accounting.
    pub fn validate(&self) {
        let ok_power = |p: f64| p.is_finite() && p >= 0.0;
        match self {
            HarvestProfile::Constant(p) => assert!(ok_power(*p), "invalid constant power {p}"),
            HarvestProfile::Square {
                high_w,
                low_w,
                period_s,
                duty,
            } => {
                assert!(
                    ok_power(*high_w) && ok_power(*low_w),
                    "invalid square power"
                );
                assert!(
                    period_s.is_finite() && *period_s > 0.0,
                    "invalid square period {period_s}"
                );
                assert!(
                    *duty > 0.0 && *duty <= 1.0,
                    "square duty {duty} outside (0, 1]"
                );
            }
            HarvestProfile::Piecewise(segs) => {
                assert!(!segs.is_empty(), "empty piecewise trace");
                for &(d, p) in segs {
                    assert!(d.is_finite() && d >= 0.0, "invalid segment duration {d}");
                    assert!(ok_power(p), "invalid segment power {p}");
                }
            }
        }
    }

    /// Input power at absolute time `t` seconds, in watts.
    pub fn power_at(&self, t: f64) -> f64 {
        match self {
            HarvestProfile::Constant(p) => *p,
            HarvestProfile::Square {
                high_w,
                low_w,
                period_s,
                duty,
            } => {
                let phase = t.rem_euclid(*period_s);
                if phase < duty * period_s {
                    *high_w
                } else {
                    *low_w
                }
            }
            HarvestProfile::Piecewise(segs) => {
                let period: f64 = segs.iter().map(|(d, _)| d).sum();
                if period <= 0.0 {
                    return 0.0;
                }
                let mut phase = t.rem_euclid(period);
                for &(d, p) in segs {
                    if phase < d {
                        return p;
                    }
                    phase -= d;
                }
                segs.last().map(|&(_, p)| p).unwrap_or(0.0)
            }
        }
    }

    /// Mean input power over one period, in watts.
    pub fn avg_power_w(&self) -> f64 {
        match self {
            HarvestProfile::Constant(p) => *p,
            HarvestProfile::Square {
                high_w,
                low_w,
                duty,
                ..
            } => high_w * duty + low_w * (1.0 - duty),
            HarvestProfile::Piecewise(segs) => {
                let period: f64 = segs.iter().map(|(d, _)| d).sum();
                if period <= 0.0 {
                    return 0.0;
                }
                segs.iter().map(|(d, p)| d * p).sum::<f64>() / period
            }
        }
    }

    /// The repeating cycle as `(period_secs, segments)`, or `None` for a
    /// constant profile.
    fn cycle(&self) -> Option<(f64, Vec<(f64, f64)>)> {
        self.validate();
        match self {
            HarvestProfile::Constant(_) => None,
            HarvestProfile::Square {
                high_w,
                low_w,
                period_s,
                duty,
            } => {
                let on = period_s * duty;
                Some((*period_s, vec![(on, *high_w), (period_s - on, *low_w)]))
            }
            HarvestProfile::Piecewise(segs) => {
                let period: f64 = segs.iter().map(|(d, _)| d).sum();
                Some((period, segs.clone()))
            }
        }
    }

    /// Seconds needed, starting at absolute time `t0`, for the profile to
    /// deliver `energy_j` joules. Returns `None` when the profile can
    /// never deliver it (zero average power — e.g. a fully occluded
    /// trace): the device is permanently dead, which callers must report
    /// rather than accrue as infinite dead time.
    pub fn time_to_harvest(&self, t0: f64, energy_j: f64) -> Option<f64> {
        if energy_j <= 0.0 {
            return Some(0.0);
        }
        match self {
            // Exact historical expression: do not route through the
            // generic integrator, so constant profiles stay bit-identical
            // with pre-profile releases.
            HarvestProfile::Constant(p) => {
                if *p > 0.0 {
                    Some(energy_j / p)
                } else {
                    None
                }
            }
            _ => {
                let (period, segs) = self.cycle().expect("non-constant profile has a cycle");
                let e_period: f64 = segs.iter().map(|(d, p)| d * p).sum();
                let usable = period.is_finite() && period > 0.0 && e_period > 0.0;
                if !usable {
                    return None;
                }
                let mut remaining = energy_j;
                let mut elapsed = 0.0f64;
                // Finish the partial period containing `t0`.
                let phase = t0.rem_euclid(period);
                let mut pos = 0.0f64;
                for &(d, p) in &segs {
                    let seg_end = pos + d;
                    if seg_end > phase {
                        let start = pos.max(phase);
                        let span = seg_end - start;
                        if p > 0.0 && p * span >= remaining {
                            return Some(elapsed + remaining / p);
                        }
                        remaining -= p * span;
                        elapsed += span;
                    }
                    pos = seg_end;
                }
                // Skip whole periods in O(1).
                let full = (remaining / e_period).floor();
                if full >= 1.0 {
                    remaining -= full * e_period;
                    elapsed += full * period;
                }
                // At most two more period walks absorb any floating-point
                // residue.
                for _ in 0..2 {
                    for &(d, p) in &segs {
                        if remaining <= 0.0 {
                            return Some(elapsed);
                        }
                        if p > 0.0 && p * d >= remaining {
                            return Some(elapsed + remaining / p);
                        }
                        remaining -= p * d;
                        elapsed += d;
                    }
                }
                Some(elapsed)
            }
        }
    }

    /// A short label suffix distinguishing non-constant profiles in
    /// tables ("" / "~sq" / "~tr").
    pub fn label_suffix(&self) -> &'static str {
        match self {
            HarvestProfile::Constant(_) => "",
            HarvestProfile::Square { .. } => "~sq",
            HarvestProfile::Piecewise(_) => "~tr",
        }
    }
}

/// A harvesting front-end: capacitor bank plus input power profile.
#[derive(Clone, Debug, PartialEq)]
pub struct Harvester {
    /// Capacitance in farads.
    pub capacitance_f: f64,
    /// Turn-on voltage in volts.
    pub v_on: f64,
    /// Brown-out voltage in volts.
    pub v_off: f64,
    /// Harvested input power as a function of time.
    pub profile: HarvestProfile,
}

impl Harvester {
    /// A harvester with the calibrated operating window and a constant
    /// input power in watts.
    pub fn constant(capacitance_f: f64, harvest_w: f64) -> Self {
        Harvester {
            capacitance_f,
            v_on: V_ON,
            v_off: V_OFF,
            profile: HarvestProfile::Constant(harvest_w),
        }
    }

    /// Usable energy per charge burst, in picojoules.
    pub fn buffer_energy_pj(&self) -> u64 {
        let joules = 0.5 * self.capacitance_f * (self.v_on * self.v_on - self.v_off * self.v_off);
        (joules * 1e12) as u64
    }

    /// Seconds needed to harvest `energy_pj` picojoules starting from
    /// time zero.
    ///
    /// Returns `None` when the profile can **never** deliver the energy
    /// (zero average input power — a constant-0 supply or a fully
    /// occluded trace). Callers must treat `None` as "the device stays
    /// dead" and report it (the scheduler surfaces it as
    /// `RunError::SupplyDead`); it is not an infinitely long recharge,
    /// and no dead time should be accrued for it.
    ///
    /// ```
    /// use mcu::Harvester;
    ///
    /// // The paper's supply: 1 mF harvesting a constant 150 µW.
    /// let h = Harvester::constant(1e-3, 150e-6);
    /// let refill = h.recharge_secs(h.buffer_energy_pj()).unwrap();
    /// assert!(refill > 0.0 && refill.is_finite());
    ///
    /// // A fully occluded profile never refills the buffer: `None`,
    /// // not infinity.
    /// let dark = Harvester::constant(1e-3, 0.0);
    /// assert_eq!(dark.recharge_secs(1), None);
    /// // Zero energy is always instantly available, even in the dark.
    /// assert_eq!(dark.recharge_secs(0), Some(0.0));
    /// ```
    pub fn recharge_secs(&self, energy_pj: u64) -> Option<f64> {
        self.recharge_secs_at(0.0, energy_pj)
    }

    /// Seconds needed to harvest `energy_pj` picojoules starting at
    /// absolute device time `t0`, or `None` when the profile never
    /// delivers it.
    pub fn recharge_secs_at(&self, t0: f64, energy_pj: u64) -> Option<f64> {
        self.profile.time_to_harvest(t0, energy_pj as f64 * 1e-12)
    }
}

/// The power system a [`crate::Device`] runs on.
#[derive(Clone, Debug, PartialEq)]
pub enum PowerSystem {
    /// Continuous bench power: operations never fail.
    Continuous,
    /// Intermittent harvested power with a finite energy buffer.
    Harvested(Harvester),
}

impl PowerSystem {
    /// Continuous bench power.
    pub fn continuous() -> Self {
        PowerSystem::Continuous
    }

    /// A capacitor-buffered RF-harvesting supply with the calibrated
    /// operating window and the paper's constant harvest power.
    pub fn harvested(capacitance_f: f64) -> Self {
        PowerSystem::Harvested(Harvester::constant(capacitance_f, RF_HARVEST_UW * 1e-6))
    }

    /// A capacitor-buffered supply with an arbitrary harvest profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile is malformed (see
    /// [`HarvestProfile::validate`]).
    pub fn harvested_with(capacitance_f: f64, profile: HarvestProfile) -> Self {
        profile.validate();
        PowerSystem::Harvested(Harvester {
            capacitance_f,
            v_on: V_ON,
            v_off: V_OFF,
            profile,
        })
    }

    /// The paper's smallest buffer: 100 µF.
    pub fn cap_100uf() -> Self {
        Self::harvested(100e-6)
    }

    /// The paper's middle buffer: 1 mF.
    pub fn cap_1mf() -> Self {
        Self::harvested(1e-3)
    }

    /// The paper's largest buffer: 50 mF.
    pub fn cap_50mf() -> Self {
        Self::harvested(50e-3)
    }

    /// The four power systems evaluated in the paper's Fig. 9c, largest
    /// buffer first (Continuous, 50 mF, 1 mF, 100 µF).
    pub fn paper_suite() -> [PowerSystem; 4] {
        [
            Self::continuous(),
            Self::cap_50mf(),
            Self::cap_1mf(),
            Self::cap_100uf(),
        ]
    }

    /// Usable buffer energy per burst in picojoules, or `None` when power
    /// is continuous.
    pub fn buffer_energy_pj(&self) -> Option<u64> {
        match self {
            PowerSystem::Continuous => None,
            PowerSystem::Harvested(h) => Some(h.buffer_energy_pj()),
        }
    }

    /// The harvest profile, or `None` when power is continuous.
    pub fn profile(&self) -> Option<&HarvestProfile> {
        match self {
            PowerSystem::Continuous => None,
            PowerSystem::Harvested(h) => Some(&h.profile),
        }
    }

    /// `true` when this is an intermittent (harvested) supply.
    pub fn is_intermittent(&self) -> bool {
        matches!(self, PowerSystem::Harvested(_))
    }

    /// A short label for tables ("Cont", "100uF", "1mF", "50mF"; a
    /// non-constant profile appends "~sq" / "~tr").
    pub fn label(&self) -> String {
        match self {
            PowerSystem::Continuous => "Cont".to_string(),
            PowerSystem::Harvested(h) => {
                let c = h.capacitance_f;
                let base = if c >= 1e-3 {
                    format!("{:.0}mF", c * 1e3)
                } else {
                    format!("{:.0}uF", c * 1e6)
                };
                format!("{base}{}", h.profile.label_suffix())
            }
        }
    }
}

impl fmt::Display for PowerSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_energy_scales_linearly_with_capacitance() {
        let e100 = PowerSystem::cap_100uf().buffer_energy_pj().unwrap();
        let e1m = PowerSystem::cap_1mf().buffer_energy_pj().unwrap();
        let e50m = PowerSystem::cap_50mf().buffer_energy_pj().unwrap();
        let ratio1 = e1m as f64 / e100 as f64;
        let ratio2 = e50m as f64 / e1m as f64;
        assert!((ratio1 - 10.0).abs() < 0.1, "1mF/100uF = {ratio1}");
        assert!((ratio2 - 50.0).abs() < 0.5, "50mF/1mF = {ratio2}");
    }

    #[test]
    fn buffer_formula_matches_hand_computation() {
        let h = Harvester::constant(100e-6, 150e-6);
        let expected = 0.5 * 100e-6 * (V_ON * V_ON - V_OFF * V_OFF) * 1e12;
        let got = h.buffer_energy_pj() as f64;
        assert!((got - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn recharge_time_is_energy_over_power_for_constant_profiles() {
        let h = Harvester::constant(1e-3, 150e-6);
        let e = h.buffer_energy_pj();
        let t = h.recharge_secs(e).unwrap();
        // Bit-identical to the historical expression — this is what keeps
        // constant-profile runs reproducing pre-profile numbers exactly.
        assert_eq!(t, e as f64 * 1e-12 / 150e-6);
        // A 1 mF buffer at 150 µW should take on the order of seconds.
        assert!(t > 0.01 && t < 100.0, "recharge {t} s");
        // And it is time-invariant: starting later changes nothing.
        assert_eq!(h.recharge_secs_at(123.456, e).unwrap(), t);
    }

    #[test]
    fn zero_power_profile_reports_never_instead_of_inf() {
        let h = Harvester::constant(1e-3, 0.0);
        assert_eq!(h.recharge_secs(1000), None);
        let occluded = Harvester {
            capacitance_f: 1e-3,
            v_on: V_ON,
            v_off: V_OFF,
            profile: HarvestProfile::Piecewise(vec![(1.0, 0.0), (2.0, 0.0)]),
        };
        assert_eq!(occluded.recharge_secs(1), None);
        assert_eq!(occluded.recharge_secs_at(17.0, 1), None);
        // Zero energy is always instantly available, even from a dead
        // profile.
        assert_eq!(h.recharge_secs(0), Some(0.0));
    }

    #[test]
    fn square_wave_integrates_by_hand() {
        // 100 µW for 2 s, 0 for 2 s, repeating.
        let p = HarvestProfile::Square {
            high_w: 100e-6,
            low_w: 0.0,
            period_s: 4.0,
            duty: 0.5,
        };
        assert_eq!(p.power_at(0.5), 100e-6);
        assert_eq!(p.power_at(3.0), 0.0);
        assert_eq!(p.power_at(4.5), 100e-6);
        assert!((p.avg_power_w() - 50e-6).abs() < 1e-12);
        // 100 µJ needs exactly 1 s of high power, starting at t=0.
        let t = p.time_to_harvest(0.0, 100e-6).unwrap();
        assert!((t - 1.0).abs() < 1e-9, "t = {t}");
        // Starting mid-occlusion (t=2): wait 2 s dead, then 1 s charging.
        let t = p.time_to_harvest(2.0, 100e-6).unwrap();
        assert!((t - 3.0).abs() < 1e-9, "t = {t}");
        // 300 µJ from t=0: 2 s high (200 µJ), 2 s off, 1 s high.
        let t = p.time_to_harvest(0.0, 300e-6).unwrap();
        assert!((t - 5.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn piecewise_trace_integrates_across_many_periods() {
        let p = HarvestProfile::Piecewise(vec![(1.0, 10e-6), (1.0, 30e-6)]);
        assert!((p.avg_power_w() - 20e-6).abs() < 1e-12);
        // 10 full periods (40 µJ each) plus half of the first segment.
        let t = p.time_to_harvest(0.0, 405e-6).unwrap();
        assert!((t - 20.5).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn csv_trace_parses_segments_comments_and_header() {
        let p = HarvestProfile::piecewise_from_csv(
            "duration_s,power_w\n# a comment\n1.0,150e-6\n\n2.0, 0.0 # trailing comment\n0.5,75e-6\n",
        )
        .unwrap();
        let HarvestProfile::Piecewise(segs) = &p else {
            panic!("expected piecewise");
        };
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0], (1.0, 150e-6));
        assert_eq!(segs[1], (2.0, 0.0));
        let expect = (1.0 * 150e-6 + 0.5 * 75e-6) / 3.5;
        assert!((p.avg_power_w() - expect).abs() < 1e-18);
        // The parsed trace drives the recharge integrator like any other
        // piecewise profile.
        p.validate();
        assert!(p.time_to_harvest(0.0, 1e-6).is_some());
    }

    #[test]
    fn csv_trace_rejects_malformed_lines() {
        use TraceLineError::*;
        let line = |line: usize, reason: TraceLineError| Some((line, reason));
        for (text, want) in [
            ("", None),
            ("# only comments\n", None),
            ("1.0\n", line(1, NotARecord("1.0".into()))),
            ("1.0,2.0,3.0\n", line(1, NotARecord("1.0,2.0,3.0".into()))),
            (
                "1.0,150e-6\nnope,1.0\n",
                line(2, BadDuration("nope".into())),
            ),
            ("a,b\nc,d\n", line(2, BadDuration("c".into()))), // one header only
            ("1.0,watts\n", line(1, BadPower("watts".into()))),
            ("-1.0,150e-6\n", line(1, InvalidDuration(-1.0))),
            ("1.0,-150e-6\n", line(1, InvalidPower(-150e-6))),
            ("inf,1e-6\n", line(1, InvalidDuration(f64::INFINITY))),
        ] {
            let err = HarvestProfile::piecewise_from_csv(text).unwrap_err();
            match (&err, want) {
                (TraceCsvError::Empty, None) => {}
                (TraceCsvError::Line { line, reason }, Some((l, r))) => {
                    assert_eq!((*line, reason), (l, &r), "{text:?}: {err}");
                }
                (_, want) => panic!("{text:?}: got {err:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn csv_trace_header_after_leading_comments_is_skipped() {
        let p = HarvestProfile::piecewise_from_csv(
            "# my recorded trace\n# captured 2026-07\nduration_s,power_w\n1.0,150e-6\n",
        )
        .unwrap();
        let HarvestProfile::Piecewise(segs) = &p else {
            panic!("expected piecewise");
        };
        assert_eq!(segs.as_slice(), &[(1.0, 150e-6)]);
    }

    #[test]
    fn bundled_example_trace_loads_and_powers_a_device() {
        // The repo ships a recorded-trace example; keep it loadable.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../data/harvest/office_rf_walkby.csv"
        );
        let p = HarvestProfile::piecewise_from_csv_file(path).unwrap();
        assert!(p.avg_power_w() > 50e-6 && p.avg_power_w() < 150e-6);
        let ps = PowerSystem::harvested_with(100e-6, p);
        assert_eq!(ps.label(), "100uF~tr");
        assert!(matches!(
            HarvestProfile::piecewise_from_csv_file("/nonexistent.csv"),
            Err(TraceCsvError::Io(_))
        ));
    }

    #[test]
    fn seeded_occlusion_is_deterministic_per_seed() {
        let a = HarvestProfile::seeded_occlusion(150e-6, 10.0, 8, 42);
        let b = HarvestProfile::seeded_occlusion(150e-6, 10.0, 8, 42);
        let c = HarvestProfile::seeded_occlusion(150e-6, 10.0, 8, 43);
        assert_eq!(a, b, "same seed must reproduce the trace");
        assert_ne!(a, c, "different seeds should differ");
        // The trace's mean power never exceeds the unoccluded base.
        assert!(a.avg_power_w() <= 150e-6);
    }

    #[test]
    fn burst_duty_is_a_dark_off_phase_square() {
        let p = HarvestProfile::burst_duty(150e-6, 2.0, 0.25);
        p.validate();
        assert_eq!(
            p,
            HarvestProfile::Square {
                high_w: 150e-6,
                low_w: 0.0,
                period_s: 2.0,
                duty: 0.25,
            }
        );
        // Mean power is exactly the duty-scaled burst power.
        assert!((p.avg_power_w() - 150e-6 * 0.25).abs() < 1e-18);
        // Mid-burst delivers full power; mid-gap delivers none.
        assert_eq!(p.power_at(0.1), 150e-6);
        assert_eq!(p.power_at(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "duty")]
    fn burst_duty_rejects_zero_duty() {
        let _ = HarvestProfile::burst_duty(150e-6, 2.0, 0.0);
    }

    #[test]
    fn fading_rf_follows_the_inverse_square_walk() {
        let peak = 600e-6;
        let p = HarvestProfile::fading_rf(peak, 3.0, 8.0, 16);
        p.validate();
        let q = HarvestProfile::fading_rf(peak, 3.0, 8.0, 16);
        assert_eq!(p, q, "the sweep is deterministic");
        let HarvestProfile::Piecewise(segs) = &p else {
            panic!("fading_rf is piecewise");
        };
        assert_eq!(segs.len(), 16);
        // Every step's power lies within the inverse-square envelope,
        // and the sweep is symmetric: out and back see the same fades.
        for &(dur, w) in segs {
            assert!((dur - 0.5).abs() < 1e-12);
            assert!(w <= peak && w >= peak / 9.0, "power {w} outside envelope");
        }
        for i in 0..8 {
            assert_eq!(segs[i].1, segs[15 - i].1, "triangular sweep symmetry");
        }
        // Near the transmitter the fade is mild; at the far point it is
        // the full inverse-square loss.
        assert!(segs[0].1 > segs[7].1);
        let d_far = 1.0 + 2.0 * (1.0 - (2.0_f64 * (7.5 / 16.0) - 1.0).abs());
        assert!((segs[7].1 - peak / (d_far * d_far)).abs() < 1e-18);
        assert!(p.avg_power_w() < peak);
    }

    #[test]
    #[should_panic(expected = "segments")]
    fn fading_rf_rejects_a_single_segment() {
        let _ = HarvestProfile::fading_rf(150e-6, 3.0, 8.0, 1);
    }

    #[test]
    #[should_panic(expected = "duty")]
    fn square_duty_above_one_is_rejected() {
        let _ = PowerSystem::harvested_with(
            1e-3,
            HarvestProfile::Square {
                high_w: 150e-6,
                low_w: 0.0,
                period_s: 2.0,
                duty: 1.5,
            },
        );
    }

    #[test]
    #[should_panic(expected = "segment duration")]
    fn negative_piecewise_duration_is_rejected() {
        HarvestProfile::Piecewise(vec![(1.0, 10e-6), (-0.5, 0.0)]).validate();
    }

    #[test]
    fn continuous_has_no_buffer() {
        assert_eq!(PowerSystem::continuous().buffer_energy_pj(), None);
        assert!(!PowerSystem::continuous().is_intermittent());
        assert!(PowerSystem::cap_100uf().is_intermittent());
        assert!(PowerSystem::continuous().profile().is_none());
        assert!(PowerSystem::cap_100uf().profile().is_some());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PowerSystem::continuous().label(), "Cont");
        assert_eq!(PowerSystem::cap_100uf().label(), "100uF");
        assert_eq!(PowerSystem::cap_1mf().label(), "1mF");
        assert_eq!(PowerSystem::cap_50mf().label(), "50mF");
        let sq = PowerSystem::harvested_with(
            1e-3,
            HarvestProfile::Square {
                high_w: 150e-6,
                low_w: 0.0,
                period_s: 2.0,
                duty: 0.5,
            },
        );
        assert_eq!(sq.label(), "1mF~sq");
        let tr =
            PowerSystem::harvested_with(1e-3, HarvestProfile::seeded_occlusion(1e-6, 1.0, 4, 1));
        assert_eq!(tr.label(), "1mF~tr");
    }

    #[test]
    fn paper_suite_has_four_systems() {
        let suite = PowerSystem::paper_suite();
        assert_eq!(suite.len(), 4);
        assert_eq!(suite.iter().filter(|p| p.is_intermittent()).count(), 3);
    }
}
