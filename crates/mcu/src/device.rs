//! The device itself: metered memories, power state, LEA, and DMA.
//!
//! # Execution and failure model
//!
//! Every operation a program performs goes through [`Device::consume`] (or
//! the typed memory/peripheral methods that call it). On harvested power
//! each operation drains the capacitor; when the buffer cannot cover an
//! operation the device *browns out*: the operation does not take effect,
//! [`PowerFailure`] is returned, and the device is off until
//! [`Device::reboot`] is called (by the scheduler, after simulating the
//! recharge time). A reboot clears SRAM to a garbage pattern — volatile
//! state is gone — while FRAM contents persist, including any partial
//! writes an interrupted task performed. This is exactly the hazard that
//! SONIC's idempotence machinery exists to make safe.
//!
//! # Write atomicity
//!
//! Energy is consumed *before* a word is written, so individual 16-bit
//! writes are atomic (they either happen or they don't), matching FRAM's
//! word-level write atomicity on real hardware. There is no atomicity
//! across words: multi-word structures can be torn by a power failure.
//! The one deliberate exception is an injected [`FaultKind::TornWrite`]:
//! its brown-out catches the in-flight FRAM store mid-word, landing the
//! intended value's low byte over the old high byte — the sub-word
//! tearing real controllers can exhibit when the write pulse is cut.
//!
//! # Memory faults and integrity guards
//!
//! Beyond clean brown-outs, a [`FaultPlan`] can arm deterministic NVM
//! data faults ([`FaultKind`]): single-bit flips, torn stores, and
//! stuck-at cells, all addressed on the same charged-op index axis so
//! schedules stay reproducible. The defense is ECC-style guarding
//! ([`Device::guard_span`]): legitimate writes transparently refresh a
//! shadow of each guarded word's intended value, injected faults bypass
//! it, and [`Device::verify_word`] compares the two on read. Guard
//! membership is one bit per FRAM word, so stores and verifies of
//! unguarded words (all bulk data) decide in O(1). Detection,
//! bounded-retry recovery accounting, and the unrecoverable verdict live
//! on the device ([`Device::note_corruption`]); the runtimes decide what
//! to scrub and when to give up.

use crate::bundle::OpBundle;
use crate::power::PowerSystem;
use crate::spec::{DeviceSpec, Op};
use crate::trace::{Phase, RegionId, Trace, TraceReport};
use core::fmt;
use fxp::{Accum, Q15};

/// The device browned out: the capacitor cannot cover the next operation.
///
/// Propagate this out of the current task with `?`; all volatile state
/// (Rust locals) is dropped on the way out, exactly like losing SRAM and
/// registers on real hardware.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PowerFailure;

impl fmt::Display for PowerFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("power failure: energy buffer exhausted")
    }
}

impl std::error::Error for PowerFailure {}

/// The harvest profile can never refill the buffer (zero average input
/// power — e.g. a fully occluded trace): the device is permanently dead.
///
/// Returned by [`Device::reboot`] instead of silently accruing infinite
/// dead time; schedulers report it as non-termination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SupplyDead;

impl fmt::Display for SupplyDead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("supply dead: harvest profile never recharges the buffer")
    }
}

impl std::error::Error for SupplyDead {}

/// Memory allocation failed: the arena is out of words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocError {
    /// Words requested.
    pub requested: u32,
    /// Words still available.
    pub available: u32,
    /// `true` for FRAM, `false` for SRAM.
    pub fram: bool,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} exhausted: requested {} words, {} available",
            if self.fram { "FRAM" } else { "SRAM" },
            self.requested,
            self.available
        )
    }
}

impl std::error::Error for AllocError {}

/// The pattern uninitialized/cleared SRAM reads as after a reboot.
///
/// Real SRAM powers up with unpredictable contents; a fixed, obviously
/// wrong pattern keeps the simulation deterministic while still making
/// code that relies on volatile state across failures visibly incorrect.
pub const SRAM_GARBAGE: i16 = 0x5A5Au16 as i16;

/// Handle to an array of Q1.15 words in FRAM (non-volatile).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FramBuf {
    base: u32,
    len: u32,
}

/// Handle to an array of Q1.15 words in SRAM (volatile).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SramBuf {
    base: u32,
    len: u32,
}

/// Handle to a single 16-bit counter/flag word in FRAM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FramWord {
    addr: u32,
}

/// A raw non-volatile word address.
///
/// Runtime systems (like the Alpaca-style redo log) operate on addresses
/// rather than typed handles: a log entry records *which word* to patch at
/// commit time. Obtain addresses from [`FramBuf::addr`] or
/// [`FramWord::addr`] and dereference them with [`Device::read_at`] /
/// [`Device::write_at`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NvAddr(u32);

impl NvAddr {
    /// The raw word index inside FRAM (for diagnostics).
    pub fn index(self) -> u32 {
        self.0
    }

    /// An address from a raw FRAM word index — for fault-injection
    /// specs (e.g. a command-line `flip:WORD:BIT@OP`) that name cells
    /// numerically rather than through typed handles.
    pub fn word(index: u32) -> NvAddr {
        NvAddr(index)
    }
}

impl FramWord {
    /// The raw non-volatile address of this word.
    pub fn addr(self) -> NvAddr {
        NvAddr(self.addr)
    }
}

/// Handle to a single 16-bit counter/flag word in SRAM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SramWord {
    addr: u32,
}

macro_rules! impl_buf {
    ($name:ident) => {
        impl $name {
            /// Number of 16-bit words in the buffer.
            #[inline]
            pub fn len(self) -> u32 {
                self.len
            }

            /// `true` when the buffer holds zero words.
            #[inline]
            pub fn is_empty(self) -> bool {
                self.len == 0
            }

            /// A sub-range of this buffer.
            ///
            /// # Panics
            ///
            /// Panics if `offset + len` exceeds the buffer.
            #[inline]
            pub fn slice(self, offset: u32, len: u32) -> $name {
                assert!(
                    offset.checked_add(len).is_some_and(|end| end <= self.len),
                    "slice out of range: {}+{} > {}",
                    offset,
                    len,
                    self.len
                );
                $name {
                    base: self.base + offset,
                    len,
                }
            }
        }
    };
}

impl_buf!(FramBuf);
impl_buf!(SramBuf);

impl FramBuf {
    /// The raw non-volatile address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn addr(self, i: u32) -> NvAddr {
        assert!(i < self.len, "addr out of bounds: {i} >= {}", self.len);
        NvAddr(self.base + i)
    }
}

/// The kind of fault a [`FaultPlan`] target injects when the charged-op
/// stream reaches its index.
///
/// Memory faults ([`FaultKind::BitFlip`], [`FaultKind::StuckAt`]) mutate
/// FRAM *without* interrupting execution: the device keeps running on the
/// corrupted state, which is exactly the silent-data-corruption hazard
/// the runtime integrity guards exist to catch. Brown-out-class faults
/// ([`FaultKind::Brownout`], [`FaultKind::TornWrite`]) cut power at the
/// target boundary like a natural energy failure.
///
/// The derived ordering sorts memory faults before brown-out faults at
/// the same op index, so a flip armed at the same boundary as a
/// brown-out lands before the power is cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Flip one bit of the FRAM word at `addr`. Execution continues; the
    /// guard shadow is *not* updated, so a later ECC read check can see
    /// the divergence.
    BitFlip {
        /// The corrupted word's non-volatile address.
        addr: NvAddr,
        /// Bit position in `[0, 16)` (masked).
        bit: u8,
    },
    /// From this op index on, one bit of the word at `addr` is stuck:
    /// the current value and every subsequent write have the bit forced
    /// to `high`. Models a worn-out FRAM cell; never heals.
    StuckAt {
        /// The stuck word's non-volatile address.
        addr: NvAddr,
        /// Bit position in `[0, 16)` (masked).
        bit: u8,
        /// The level the cell is stuck at.
        high: bool,
    },
    /// A clean brown-out: energy gone, no memory effect (the historical
    /// fault model).
    Brownout,
    /// A brown-out that tears the in-flight FRAM store: the failing
    /// word's *low byte* of the new value lands while the high byte
    /// keeps its old contents — sub-word atomicity violated, exactly
    /// what the word-atomic FRAM model otherwise rules out. If the
    /// interrupted op is not an FRAM store, it degrades to a clean
    /// brown-out.
    TornWrite,
}

impl FaultKind {
    /// `true` when this fault cuts power at its target boundary.
    pub fn browns_out(self) -> bool {
        matches!(self, FaultKind::Brownout | FaultKind::TornWrite)
    }
}

/// A deterministic fault-injection plan: a set of charged-op indices at
/// which a fault fires — a forced brown-out, a torn store, a bit flip,
/// or a stuck-at cell — regardless of remaining charge (injection works
/// on continuous power too, which is how the crash-consistency harness
/// gets exhaustive, recharge-free schedules).
///
/// Op indices count every charged operation on the device
/// ([`Device::ops_consumed`]): scalar consumes, span charges (DMA words,
/// LEA MACs, block accessors), bundled iterations, and boot charges all
/// advance the same counter, so an index identifies one exact op
/// boundary. A brown-out target at index `k` means: the first `k`
/// charged ops execute, and the op that would have been charged `k`-th
/// fails exactly like a natural brown-out. A memory-fault target at `k`
/// mutates FRAM at that boundary and lets the `k`-th op proceed. Each
/// target fires once; boot charges themselves are not interruptible (a
/// reboot always completes).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Pending targets, ascending by op index (memory faults before
    /// brown-outs at equal indices).
    targets: Vec<(u64, FaultKind)>,
}

impl FaultPlan {
    /// A plan with a single brown-out at charged-op index `op_index`.
    pub fn at(op_index: u64) -> Self {
        FaultPlan {
            targets: vec![(op_index, FaultKind::Brownout)],
        }
    }

    /// A plan with a brown-out at each of the given charged-op indices
    /// (sorted and deduplicated).
    pub fn at_each(targets: impl IntoIterator<Item = u64>) -> Self {
        Self::faults(targets.into_iter().map(|t| (t, FaultKind::Brownout)))
    }

    /// A plan with an arbitrary mix of fault kinds (sorted by op index,
    /// exact duplicates removed).
    pub fn faults(targets: impl IntoIterator<Item = (u64, FaultKind)>) -> Self {
        let mut targets: Vec<(u64, FaultKind)> = targets.into_iter().collect();
        targets.sort_unstable();
        targets.dedup();
        FaultPlan { targets }
    }

    /// The same plan with every op index shifted by `base` — rebasing an
    /// inference-relative schedule onto a device's absolute op counter
    /// while preserving each target's fault kind.
    pub fn shifted(&self, base: u64) -> Self {
        FaultPlan {
            targets: self.targets.iter().map(|&(t, k)| (t + base, k)).collect(),
        }
    }

    /// The pending targets, ascending by op index.
    pub fn targets(&self) -> &[(u64, FaultKind)] {
        &self.targets
    }

    /// The pending target op indices, ascending.
    pub fn indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.targets.iter().map(|&(t, _)| t)
    }

    /// `true` when the plan has no pending targets.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }
}

/// Bounded-retry budget for corruption recovery: how many detected
/// corruptions a single device will attempt to recover from before
/// declaring the state unrecoverable (a stuck-at cell in a control word
/// re-corrupts on every scrub and must eventually surface as an error
/// rather than spin forever).
pub const CORRUPTION_RETRY_LIMIT: u32 = 32;

/// The exact op a brown-out (natural or injected) landed on: the op
/// class and accounting context of the first operation that did *not*
/// complete, plus its index in the device's charged-op stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BrownoutInfo {
    /// Index of the failed op in the charged-op stream (equals
    /// [`Device::ops_consumed`] at the moment of failure: all ops before
    /// it completed, this one did not).
    pub op_index: u64,
    /// The op class that failed to complete.
    pub op: Op,
    /// The accounting phase the failed op was charged under.
    pub phase: Phase,
    /// The accounting region (layer/task) active at the failure.
    pub region: RegionId,
    /// `true` when the brown-out was forced by a [`FaultPlan`] target,
    /// `false` when the energy buffer genuinely ran dry.
    pub injected: bool,
}

/// The simulated MCU.
///
/// See the [module docs](self) for the execution and failure model.
#[derive(Clone, Debug)]
pub struct Device {
    spec: DeviceSpec,
    power: PowerSystem,
    charge_pj: u64,
    on: bool,
    fram: Vec<i16>,
    fram_brk: u32,
    sram: Vec<i16>,
    sram_brk: u32,
    trace: Trace,
    region: RegionId,
    phase: Phase,
    /// Total charged operations over the device's lifetime (the op-index
    /// axis [`FaultPlan`] targets live on).
    ops_consumed: u64,
    /// Pending injected-fault targets, *descending* by op index (pop()
    /// yields the next target). Empty unless a [`FaultPlan`] is armed.
    fault_queue: Vec<(u64, FaultKind)>,
    /// The most recent brown-out, natural or injected.
    last_brownout: Option<BrownoutInfo>,
    /// A fired [`FaultKind::TornWrite`] waiting for its victim: the next
    /// FRAM store interrupted by the brown-out lands torn. Cleared on
    /// reboot if no store was in flight.
    torn_pending: bool,
    /// Stuck-at cells armed so far: `(addr, bit, high)`. Applied to every
    /// subsequent write of the matching word.
    stuck: Vec<(u32, u8, bool)>,
    /// ECC-style guard shadows, sorted by address: `(addr, intended)`.
    /// Legitimate writes update the shadow with the value software meant
    /// to store; injected faults bypass it, so a read-time compare
    /// detects corruption. Empty (zero overhead) unless guards are
    /// registered.
    guard_shadow: Vec<(u32, i16)>,
    /// Guard membership, one bit per FRAM word (bit `a % 64` of word
    /// `a / 64`), sized to the highest guarded word. Every store tests
    /// it in O(1) before touching `guard_shadow`, so unguarded stores
    /// (all activation and partial-sum traffic) never search.
    guard_bits: Vec<u64>,
    /// `true` once any [`FaultPlan`] has been armed: from then on FRAM
    /// may diverge from the guard shadow, and a body re-run could observe
    /// (and repair) different state than the first run did.
    faults_ever_armed: bool,
    /// Memory faults injected so far (bit flips + stuck-at armings).
    mem_faults_injected: u64,
    /// Corruption detections reported via [`Device::note_corruption`].
    corruption_detected: u64,
    /// Remaining recovery attempts before corruption is declared
    /// unrecoverable.
    corruption_budget: u32,
    /// Region of the first unrecoverable corruption, if any.
    unrecoverable: Option<RegionId>,
}

impl Device {
    /// Creates a device, fully charged (the first charge's dead time is not
    /// counted, matching how the paper's measurements start).
    pub fn new(spec: DeviceSpec, power: PowerSystem) -> Self {
        let charge = power.buffer_energy_pj().unwrap_or(0);
        let fram = vec![0i16; spec.fram_words as usize];
        let sram = vec![SRAM_GARBAGE; spec.sram_words as usize];
        Device {
            spec,
            power,
            charge_pj: charge,
            on: true,
            fram,
            fram_brk: 0,
            sram,
            sram_brk: 0,
            trace: Trace::new(),
            region: RegionId::OTHER,
            phase: Phase::Kernel,
            ops_consumed: 0,
            fault_queue: Vec::new(),
            last_brownout: None,
            torn_pending: false,
            stuck: Vec::new(),
            guard_shadow: Vec::new(),
            guard_bits: Vec::new(),
            faults_ever_armed: false,
            mem_faults_injected: 0,
            corruption_detected: 0,
            corruption_budget: CORRUPTION_RETRY_LIMIT,
            unrecoverable: None,
        }
    }

    /// Total operations charged over the device's lifetime: the op-index
    /// axis that [`FaultPlan`] targets address. Every metered path —
    /// scalar consumes, span charges, bundled iterations, boot charges —
    /// advances this counter by the ops it charged.
    pub fn ops_consumed(&self) -> u64 {
        self.ops_consumed
    }

    /// Arms a fault-injection plan, replacing any pending targets. Each
    /// target fires once at its exact charged-op index (see
    /// [`FaultPlan`] and [`FaultKind`]); an unarmed device behaves
    /// bit-identically to one that never heard of fault injection.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        self.faults_ever_armed = true;
        self.fault_queue = plan.targets.clone();
        // Descending, so pop() yields the next (smallest) target.
        self.fault_queue.reverse();
    }

    /// `true` once [`Device::arm_faults`] has ever been called on this
    /// device (or the device it was cloned from). Until then no injected
    /// fault can have touched FRAM, so every guarded word verifies and a
    /// host-side body re-executes identically; see
    /// [`OpBundle::counting`].
    pub fn faults_ever_armed(&self) -> bool {
        self.faults_ever_armed
    }

    /// Number of armed fault targets that have not fired yet.
    pub fn pending_faults(&self) -> usize {
        self.fault_queue.len()
    }

    /// The most recent brown-out (natural or injected): the exact op it
    /// landed on. `None` until the first power failure.
    pub fn last_brownout(&self) -> Option<BrownoutInfo> {
        self.last_brownout
    }

    /// The device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The power system the device runs on.
    pub fn power(&self) -> &PowerSystem {
        &self.power
    }

    /// Remaining buffer charge in picojoules (meaningless on continuous
    /// power).
    pub fn charge_pj(&self) -> u64 {
        self.charge_pj
    }

    /// `true` while the device has power.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The execution trace accumulated so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Total wall-clock seconds the device has existed: live execution at
    /// the device clock plus dead (recharging) time. This is the absolute
    /// time axis that time-varying harvest profiles are sampled on.
    pub fn elapsed_secs(&self) -> f64 {
        self.spec.cycles_to_secs(self.trace.live_cycles()) + self.trace.dead_secs()
    }

    /// Starts a new trace epoch: [`Device::epoch_report`] will cover only
    /// work done after this call. Use one epoch per inference to get
    /// per-run numbers from a long-lived deployment instead of
    /// device-lifetime accumulation.
    pub fn begin_epoch(&mut self) {
        self.trace.begin_epoch();
    }

    /// Summary of the current trace epoch (delta since the last
    /// [`Device::begin_epoch`]; the full lifetime when no epoch was
    /// started).
    pub fn epoch_report(&self) -> TraceReport {
        self.trace.epoch_report()
    }

    /// Registers an accounting region (e.g. a layer name).
    pub fn register_region(&mut self, name: &str) -> RegionId {
        self.trace.register_region(name)
    }

    /// Sets the accounting context for subsequent operations.
    pub fn set_context(&mut self, region: RegionId, phase: Phase) {
        self.region = region;
        self.phase = phase;
    }

    /// Current accounting context.
    pub fn context(&self) -> (RegionId, Phase) {
        (self.region, self.phase)
    }

    /// Signals that forward progress was durably committed (e.g. a loop
    /// iteration's results reached FRAM). The scheduler uses this to
    /// distinguish "slow but progressing" from "non-terminating".
    pub fn mark_progress(&mut self) {
        self.trace.mark_progress();
    }

    /// Consumes one operation's cycles and energy.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] when the buffer cannot cover the operation
    /// (the operation does not take effect) or when the device is already
    /// off.
    #[inline]
    pub fn consume(&mut self, op: Op) -> Result<(), PowerFailure> {
        self.consume_n(op, 1)
    }

    /// Consumes `n` operations of the same class, stopping at the first one
    /// the buffer cannot cover.
    ///
    /// A zero-energy operation can never brown the device out: all `n`
    /// execute "for free" regardless of remaining charge. That is only a
    /// sound spec when the operation also costs zero cycles (otherwise a
    /// finite buffer would fund unbounded live time), which a debug
    /// assertion enforces.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] if fewer than `n` operations fit in the
    /// remaining charge; the ones that fit are still charged (they executed
    /// before the failure).
    pub fn consume_n(&mut self, op: Op, n: u64) -> Result<(), PowerFailure> {
        let phase = self.phase;
        self.consume_upto_at(op, phase, n).1
    }

    /// Like [`Device::consume_n`] but at an explicit accounting phase,
    /// reporting how many of the `n` operations were charged before any
    /// failure. The backbone of every span-charged accessor.
    fn consume_upto_at(&mut self, op: Op, phase: Phase, n: u64) -> (u64, Result<(), PowerFailure>) {
        if !self.on {
            return (0, Err(PowerFailure));
        }
        let mut done = 0u64;
        loop {
            // Memory faults (bit flips, stuck-at armings) scheduled at or
            // before the current boundary fire here; execution continues
            // on the corrupted state. Only brown-out-class faults below
            // interrupt the charged stream.
            while let Some(&(t, kind)) = self.fault_queue.last() {
                if t <= self.ops_consumed && !kind.browns_out() {
                    self.fault_queue.pop();
                    self.apply_memory_fault(kind);
                } else {
                    break;
                }
            }
            let want = n - done;
            // Injected faults: when the next armed target falls inside
            // this span, only the ops before it may execute — reaching
            // the target fires it exactly there (continuous power
            // included).
            let n_allowed = match self.fault_queue.last() {
                Some(&(t, _)) => t.saturating_sub(self.ops_consumed).min(want),
                None => want,
            };
            let cost = self.spec.costs.cost(op);
            let (fit, starved) = match &self.power {
                PowerSystem::Continuous => {
                    self.trace.charge(self.region, phase, op, n_allowed, cost);
                    (n_allowed, false)
                }
                PowerSystem::Harvested(_) => {
                    let per = cost.energy_pj;
                    debug_assert!(
                        per > 0 || cost.cycles == 0,
                        "op {op:?} costs {} cycles but zero energy: a zero-energy op \
                         executes for free on harvested power, so it must also be \
                         zero-cycle (fix the cost table)",
                        cost.cycles
                    );
                    // `checked_div` returns `None` exactly when `per == 0`:
                    // the documented free-execution path.
                    let fit = self
                        .charge_pj
                        .checked_div(per)
                        .map_or(n_allowed, |q| q.min(n_allowed));
                    if fit > 0 {
                        self.trace.charge(self.region, phase, op, fit, cost);
                        self.charge_pj -= fit * per;
                    }
                    (fit, fit < n_allowed)
                }
            };
            self.ops_consumed += fit;
            done += fit;
            if starved {
                // Natural brown-out before the span (or any armed target)
                // was reached. The interrupted operation's residual
                // charge is wasted in the brown-out. An armed target
                // beyond this point stays pending: it only fires if
                // execution reaches it.
                self.force_brownout(op, phase, false);
                return (done, Err(PowerFailure));
            }
            if done < n {
                // The span reached an armed target.
                let &(_, kind) = self
                    .fault_queue
                    .last()
                    .expect("a pending target bounded the span");
                if kind.browns_out() {
                    self.fault_queue.pop();
                    if kind == FaultKind::TornWrite {
                        self.torn_pending = true;
                    }
                    self.force_brownout(op, phase, true);
                    return (done, Err(PowerFailure));
                }
                // Memory fault: applied at the top of the next turn, then
                // charging resumes within the same span.
                continue;
            }
            return (done, Ok(()));
        }
    }

    /// Applies a non-brown-out fault effect to FRAM. Injected mutations
    /// deliberately bypass the guard shadow: that divergence is what the
    /// ECC read check detects.
    fn apply_memory_fault(&mut self, kind: FaultKind) {
        self.mem_faults_injected += 1;
        match kind {
            FaultKind::BitFlip { addr, bit } => {
                let a = addr.0 as usize;
                if a < self.fram.len() {
                    self.fram[a] ^= 1i16 << (bit & 15);
                }
            }
            FaultKind::StuckAt { addr, bit, high } => {
                if (addr.0 as usize) < self.fram.len() {
                    self.stuck.push((addr.0, bit & 15, high));
                    self.fram[addr.0 as usize] =
                        Self::force_bit(self.fram[addr.0 as usize], bit & 15, high);
                }
            }
            FaultKind::Brownout | FaultKind::TornWrite => {
                unreachable!("brown-out faults fire through force_brownout")
            }
        }
    }

    /// Forces one bit of a raw FRAM word to a level.
    fn force_bit(v: i16, bit: u8, high: bool) -> i16 {
        let mask = 1i16 << bit;
        if high {
            v | mask
        } else {
            v & !mask
        }
    }

    /// Cuts power at the current op boundary, recording exactly which op
    /// failed: op number [`Device::ops_consumed`] (everything before it
    /// completed, it did not).
    fn force_brownout(&mut self, op: Op, phase: Phase, injected: bool) {
        self.charge_pj = 0;
        self.on = false;
        self.last_brownout = Some(BrownoutInfo {
            op_index: self.ops_consumed,
            op,
            phase,
            region: self.region,
            injected,
        });
    }

    /// Span variant of [`Device::consume_n`] at the current phase.
    fn consume_upto(&mut self, op: Op, n: u64) -> (u64, Result<(), PowerFailure>) {
        let phase = self.phase;
        self.consume_upto_at(op, phase, n)
    }

    // ----- bundled op accounting (see [`crate::bundle`]) ---------------

    /// Charges up to `n_iters` whole iterations of `bundle` in one
    /// arithmetic step, returning how many complete iterations the
    /// remaining buffer funded (always `n_iters` on continuous power).
    ///
    /// The funded count is exactly the number of complete iterations the
    /// scalar path (one [`Device::consume`] per op) would have executed:
    /// per-op energies are non-negative, so a buffer that covers an
    /// iteration's total covers every prefix of it. When the return value
    /// is less than `n_iters` the device is still **on**, with less than
    /// one iteration's energy remaining — the caller must replay the next
    /// iteration through its scalar code path, which browns out on
    /// exactly the same op, with exactly the same partial memory effects,
    /// as an all-scalar execution. The `prepaid_*` accessors perform the
    /// memory effects of the iterations charged here. [`crate::run_loop`]
    /// does both from one loop body.
    ///
    /// Ops are charged to the device's current region at each entry's own
    /// phase; trace cells are order-independent accumulators, so bulk
    /// totals are bit-identical to interleaved scalar charges.
    ///
    /// ```
    /// use mcu::{Device, DeviceSpec, Op, OpBundle, Phase, PowerSystem};
    ///
    /// // The op sequence of one inner-loop iteration: read a weight and
    /// // an activation, multiply-accumulate, bump the loop index.
    /// let mut body = OpBundle::new();
    /// body.push_n(Op::FramRead, Phase::Kernel, 2);
    /// body.push(Op::FxpMul, Phase::Kernel);
    /// body.push(Op::Incr, Phase::Control);
    ///
    /// let mut dev = Device::new(DeviceSpec::msp430fr5994(), PowerSystem::cap_100uf());
    /// let funded = dev.consume_bundle(&body, 1000).unwrap();
    /// // The buffer funded some whole iterations; their memory effects
    /// // happen through the `prepaid_*` accessors. If `funded < 1000`
    /// // the device is still ON and the caller replays the next
    /// // iteration through its scalar path, so the brown-out lands on
    /// // exactly the op a one-consume-per-op execution would die on.
    /// assert!(funded <= 1000 && dev.is_on());
    /// assert_eq!(dev.trace().op_count(Op::FxpMul), funded);
    /// assert_eq!(dev.trace().op_count(Op::FramRead), 2 * funded);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] only when the device is already off.
    pub fn consume_bundle(&mut self, bundle: &OpBundle, n_iters: u64) -> Result<u64, PowerFailure> {
        if !self.on {
            return Err(PowerFailure);
        }
        if n_iters == 0 || bundle.is_empty() {
            return Ok(n_iters);
        }
        // Injected faults: never fund an iteration that straddles an armed
        // target — cap at the whole iterations that fit strictly before it,
        // so the caller's scalar replay of the next iteration browns out on
        // exactly the targeted op. May return less than `n_iters` even on
        // continuous power.
        let ops_per_iter = bundle.len();
        let iter_cap = match self.fault_queue.last() {
            Some(&(t, _)) => t.saturating_sub(self.ops_consumed) / ops_per_iter,
            None => u64::MAX,
        };
        let n_capped = n_iters.min(iter_cap);
        let fit = match &self.power {
            PowerSystem::Continuous => n_capped,
            PowerSystem::Harvested(_) => {
                let (_, per_iter) = bundle.iter_cost(&self.spec.costs);
                #[cfg(debug_assertions)]
                for op in Op::ALL {
                    let c = self.spec.costs.cost(op);
                    debug_assert!(
                        Phase::ALL.iter().all(|&p| bundle.count(p, op) == 0)
                            || c.energy_pj > 0
                            || c.cycles == 0,
                        "bundled op {op:?} costs {} cycles but zero energy (fix the \
                         cost table)",
                        c.cycles
                    );
                }
                // `checked_div` is `None` exactly when the whole iteration
                // is free: zero-energy ops execute without limit.
                let fit = self
                    .charge_pj
                    .checked_div(per_iter)
                    .map_or(n_capped, |q| q.min(n_capped));
                self.charge_pj -= fit * per_iter;
                fit
            }
        };
        self.ops_consumed += fit * ops_per_iter;
        self.charge_bundle_trace(bundle, fit);
        Ok(fit)
    }

    /// Settles `fit` funded iterations of `bundle` into the trace.
    fn charge_bundle_trace(&mut self, bundle: &OpBundle, fit: u64) {
        if fit == 0 {
            return;
        }
        // Trace cells are plain accumulators, so charging the ordered
        // sequence and charging aggregate counts are bit-identical.
        // Small sequenced bundles (a loop iteration) walk their few
        // entries; counting tapes and long sequenced ones charge per
        // (phase, op) cell so settling stays O(op classes) regardless of
        // tape length.
        let seq = bundle.ops();
        if !seq.is_empty() && seq.len() <= 2 * Op::COUNT {
            for e in seq {
                let cost = self.spec.costs.cost(e.op);
                self.trace
                    .charge(self.region, e.phase, e.op, e.count * fit, cost);
            }
        } else {
            for phase in Phase::ALL {
                for op in Op::ALL {
                    let n = bundle.count(phase, op);
                    if n > 0 {
                        let cost = self.spec.costs.cost(op);
                        self.trace.charge(self.region, phase, op, n * fit, cost);
                    }
                }
            }
        }
    }

    /// Settles a recorded op tape: one bulk charge when the buffer covers
    /// it, otherwise an op-by-op replay of the ordered sequence so the
    /// brown-out lands on exactly the op the scalar execution would have
    /// died on.
    ///
    /// For loop bodies whose op sequence is data-dependent but which have
    /// no durable side effects before a later commit (the Alpaca redo-log
    /// bodies): the body executes host-side while recording every op it
    /// would have consumed, then settles the tape once. A counting tape
    /// ([`OpBundle::counting`]) settles here only when funded; to find
    /// the brown-out op, settle it with [`Device::consume_bundle`] first
    /// and, on a shortfall, re-record the body into a sequenced tape.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] when the tape does not fit the remaining
    /// charge (the portion that fits is charged, exactly as the scalar
    /// execution would have before dying) or the device is off.
    ///
    /// # Panics
    ///
    /// Panics when a counting tape falls short: it has no sequence to
    /// replay.
    pub fn consume_tape(&mut self, tape: &OpBundle) -> Result<(), PowerFailure> {
        if self.consume_bundle(tape, 1)? == 1 {
            return Ok(());
        }
        assert!(
            tape.is_sequenced(),
            "a counting tape fell short: re-record it sequenced to replay"
        );
        // Shortfall: the replay below must brown out before completing,
        // charging exactly the scalar prefix.
        for e in tape.ops() {
            self.consume_upto_at(e.op, e.phase, e.count).1?;
        }
        Ok(())
    }

    /// Adds `n` forward-progress beacons at once (the bundled counterpart
    /// of calling [`Device::mark_progress`] per loop iteration).
    pub fn mark_progress_n(&mut self, n: u64) {
        self.trace.mark_progress_n(n);
    }

    /// Recharges the buffer and reboots the device after a power failure:
    /// dead time accrues while the harvest profile — integrated from the
    /// device's current absolute time — refills the deficit, SRAM is
    /// cleared to [`SRAM_GARBAGE`], FRAM persists, and the boot overhead
    /// is charged.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyDead`] when the harvest profile can never refill
    /// the buffer (zero average input power); the device stays off and no
    /// dead time is accrued.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is too small to even cover the boot sequence
    /// (a misconfigured power system, not a runtime condition).
    pub fn reboot(&mut self) -> Result<(), SupplyDead> {
        if let PowerSystem::Harvested(h) = &self.power {
            let buffer = h.buffer_energy_pj();
            let deficit = buffer - self.charge_pj;
            let t0 = self.elapsed_secs();
            let Some(dead) = h.recharge_secs_at(t0, deficit) else {
                return Err(SupplyDead);
            };
            self.trace.add_dead_time(dead);
            self.charge_pj = buffer;
        }
        self.on = true;
        // A torn-write fault whose brown-out caught no FRAM store in
        // flight degrades to a clean brown-out.
        self.torn_pending = false;
        // Attribute the power failure to the region that was executing
        // when the buffer emptied: the raw signal behind per-layer DNC
        // (starvation) attribution.
        self.trace.add_reboot(self.region);
        for w in &mut self.sram {
            *w = SRAM_GARBAGE;
        }
        // The boot sequence is not an injectable boundary: an armed fault
        // target landing inside it would re-kill the device before any
        // program op ran. Boot ops still advance the op counter, but the
        // queue is parked while they charge.
        let queue = std::mem::take(&mut self.fault_queue);
        self.consume(Op::Boot)
            .expect("power buffer smaller than boot overhead");
        self.fault_queue = queue;
        Ok(())
    }

    // ----- allocation ------------------------------------------------

    /// Allocates a FRAM array (a link-time concept; costs no energy).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when FRAM is exhausted.
    pub fn fram_alloc(&mut self, len: u32) -> Result<FramBuf, AllocError> {
        let available = self.spec.fram_words - self.fram_brk;
        if len > available {
            return Err(AllocError {
                requested: len,
                available,
                fram: true,
            });
        }
        let buf = FramBuf {
            base: self.fram_brk,
            len,
        };
        self.fram_brk += len;
        Ok(buf)
    }

    /// Allocates a single FRAM counter word.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when FRAM is exhausted.
    pub fn fram_alloc_word(&mut self) -> Result<FramWord, AllocError> {
        let buf = self.fram_alloc(1)?;
        Ok(FramWord { addr: buf.base })
    }

    /// Allocates an SRAM array.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when SRAM is exhausted (it is only 4 KB).
    pub fn sram_alloc(&mut self, len: u32) -> Result<SramBuf, AllocError> {
        let available = self.spec.sram_words - self.sram_brk;
        if len > available {
            return Err(AllocError {
                requested: len,
                available,
                fram: false,
            });
        }
        let buf = SramBuf {
            base: self.sram_brk,
            len,
        };
        self.sram_brk += len;
        Ok(buf)
    }

    /// Allocates a single SRAM word.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when SRAM is exhausted.
    pub fn sram_alloc_word(&mut self) -> Result<SramWord, AllocError> {
        let buf = self.sram_alloc(1)?;
        Ok(SramWord { addr: buf.base })
    }

    /// The current (FRAM, SRAM) allocation watermarks — a link-time
    /// concept, like recording the data-segment break.
    pub fn alloc_watermarks(&self) -> (u32, u32) {
        (self.fram_brk, self.sram_brk)
    }

    /// Rewinds both allocators to watermarks previously returned by
    /// [`Device::alloc_watermarks`], releasing everything allocated since.
    ///
    /// Runtimes allocate per-run working state (TAILS's SRAM staging
    /// buffers, the Alpaca redo log) when they are built; on a long-lived
    /// deployment each inference rebuilds its runtime, so the harness
    /// rewinds between runs — every run then links against the identical
    /// layout instead of leaking the arena.
    ///
    /// # Panics
    ///
    /// Panics if a watermark lies beyond the current break.
    pub fn rewind_allocs(&mut self, marks: (u32, u32)) {
        let (fram, sram) = marks;
        assert!(fram <= self.fram_brk, "FRAM watermark in the future");
        assert!(sram <= self.sram_brk, "SRAM watermark in the future");
        self.fram_brk = fram;
        self.sram_brk = sram;
    }

    /// Words of SRAM still unallocated.
    pub fn sram_available(&self) -> u32 {
        self.spec.sram_words - self.sram_brk
    }

    /// Words of FRAM still unallocated.
    pub fn fram_available(&self) -> u32 {
        self.spec.fram_words - self.fram_brk
    }

    // ----- NVM write chokepoint ----------------------------------------
    //
    // Every *legitimate* FRAM mutation funnels through `nv_store`: it
    // refreshes the ECC-style guard shadow with the value software
    // intended to store, then lands the value through any stuck-at
    // cells. Injected faults mutate `fram` directly (bypassing the
    // shadow), which is exactly the divergence read-time verification
    // detects. An unguarded store costs one membership-bit test and no
    // shadow search; with no stuck cells it is then a plain array store.

    /// Stores `v` at raw FRAM index `addr` as a legitimate write.
    #[inline]
    fn nv_store(&mut self, addr: u32, v: i16) {
        if self.is_guarded(addr) {
            let k = self
                .guard_shadow
                .binary_search_by_key(&addr, |e| e.0)
                .expect("a guarded word has a shadow");
            self.guard_shadow[k].1 = v;
        }
        let v = if self.stuck.is_empty() {
            v
        } else {
            self.stuck_adjust(addr, v)
        };
        self.fram[addr as usize] = v;
    }

    /// Stores `data` at consecutive FRAM words from `base` as legitimate
    /// writes: one block copy when the span holds no guarded word and no
    /// stuck cell (a bulk weight flash), word by word otherwise.
    fn nv_store_block(&mut self, base: u32, data: &[Q15]) {
        if self.span_is_plain(base, data.len() as u32) {
            let dst = &mut self.fram[base as usize..base as usize + data.len()];
            for (d, q) in dst.iter_mut().zip(data) {
                *d = q.raw();
            }
        } else {
            for (i, q) in data.iter().enumerate() {
                self.nv_store(base + i as u32, q.raw());
            }
        }
    }

    /// Forces every stuck bit registered for `addr` in a value about to
    /// land there.
    fn stuck_adjust(&self, addr: u32, mut v: i16) -> i16 {
        for &(a, bit, high) in &self.stuck {
            if a == addr {
                v = Self::force_bit(v, bit, high);
            }
        }
        v
    }

    /// Applies a pending [`FaultKind::TornWrite`] to the FRAM store the
    /// brown-out interrupted: the intended value's low byte lands, the
    /// high byte keeps its old contents. An injected effect, so the
    /// guard shadow is *not* updated.
    #[inline]
    fn maybe_tear(&mut self, addr: u32, intended: i16) {
        if self.torn_pending {
            self.torn_pending = false;
            let old = self.fram[addr as usize];
            let torn = (old & !0xFF) | (intended & 0xFF);
            let torn = if self.stuck.is_empty() {
                torn
            } else {
                self.stuck_adjust(addr, torn)
            };
            self.fram[addr as usize] = torn;
        }
    }

    // ----- metered memory access --------------------------------------

    /// Reads one Q1.15 word from FRAM.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds for `buf`.
    #[inline]
    pub fn read(&mut self, buf: FramBuf, i: u32) -> Result<Q15, PowerFailure> {
        assert!(i < buf.len, "FRAM read out of bounds: {i} >= {}", buf.len);
        self.consume(Op::FramRead)?;
        Ok(Q15::from_raw(self.fram[(buf.base + i) as usize]))
    }

    /// Writes one Q1.15 word to FRAM (atomic at word granularity).
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out; the word is unmodified —
    /// unless the brown-out was a [`FaultKind::TornWrite`], which lands
    /// a half-written word.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds for `buf`.
    #[inline]
    pub fn write(&mut self, buf: FramBuf, i: u32, v: Q15) -> Result<(), PowerFailure> {
        assert!(i < buf.len, "FRAM write out of bounds: {i} >= {}", buf.len);
        if let Err(e) = self.consume(Op::FramWrite) {
            self.maybe_tear(buf.base + i, v.raw());
            return Err(e);
        }
        self.nv_store(buf.base + i, v.raw());
        Ok(())
    }

    /// Reads one Q1.15 word from SRAM.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds for `buf`.
    #[inline]
    pub fn sram_read(&mut self, buf: SramBuf, i: u32) -> Result<Q15, PowerFailure> {
        assert!(i < buf.len, "SRAM read out of bounds: {i} >= {}", buf.len);
        self.consume(Op::SramRead)?;
        Ok(Q15::from_raw(self.sram[(buf.base + i) as usize]))
    }

    /// Writes one Q1.15 word to SRAM.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out; the word is unmodified.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds for `buf`.
    #[inline]
    pub fn sram_write(&mut self, buf: SramBuf, i: u32, v: Q15) -> Result<(), PowerFailure> {
        assert!(i < buf.len, "SRAM write out of bounds: {i} >= {}", buf.len);
        self.consume(Op::SramWrite)?;
        self.sram[(buf.base + i) as usize] = v.raw();
        Ok(())
    }

    /// Reads a 16-bit counter from FRAM.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    #[inline]
    pub fn load_word(&mut self, w: FramWord) -> Result<u16, PowerFailure> {
        self.consume(Op::FramRead)?;
        Ok(self.fram[w.addr as usize] as u16)
    }

    /// Writes a 16-bit counter to FRAM (atomic).
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out; the word is unmodified —
    /// unless the brown-out was a [`FaultKind::TornWrite`], which lands
    /// a half-written word.
    #[inline]
    pub fn store_word(&mut self, w: FramWord, v: u16) -> Result<(), PowerFailure> {
        if let Err(e) = self.consume(Op::FramWrite) {
            self.maybe_tear(w.addr, v as i16);
            return Err(e);
        }
        self.nv_store(w.addr, v as i16);
        Ok(())
    }

    /// Reads a 16-bit counter from SRAM.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    #[inline]
    pub fn sram_load_word(&mut self, w: SramWord) -> Result<u16, PowerFailure> {
        self.consume(Op::SramRead)?;
        Ok(self.sram[w.addr as usize] as u16)
    }

    /// Writes a 16-bit counter to SRAM.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out; the word is unmodified.
    #[inline]
    pub fn sram_store_word(&mut self, w: SramWord, v: u16) -> Result<(), PowerFailure> {
        self.consume(Op::SramWrite)?;
        self.sram[w.addr as usize] = v as i16;
        Ok(())
    }

    /// Reads the FRAM word at a raw address (metered as a FRAM read).
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    #[inline]
    pub fn read_at(&mut self, addr: NvAddr) -> Result<Q15, PowerFailure> {
        self.consume(Op::FramRead)?;
        Ok(Q15::from_raw(self.fram[addr.0 as usize]))
    }

    /// Writes the FRAM word at a raw address (metered, atomic).
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out; the word is unmodified —
    /// unless the brown-out was a [`FaultKind::TornWrite`], which lands
    /// a half-written word.
    #[inline]
    pub fn write_at(&mut self, addr: NvAddr, v: Q15) -> Result<(), PowerFailure> {
        if let Err(e) = self.consume(Op::FramWrite) {
            self.maybe_tear(addr.0, v.raw());
            return Err(e);
        }
        self.nv_store(addr.0, v.raw());
        Ok(())
    }

    /// Host-side read of a raw FRAM address (no energy).
    pub fn peek_at(&self, addr: NvAddr) -> Q15 {
        Q15::from_raw(self.fram[addr.0 as usize])
    }

    // ----- pre-charged access (bundled accounting) ---------------------
    //
    // Companions to [`Device::consume_bundle`]: the bundle charged the
    // memory ops of `fit` whole iterations in bulk, so the iterations'
    // data movement happens through these unmetered accessors. Using them
    // without a matching bundle charge breaks the energy model — the
    // differential `bundles` test suite exists to catch exactly that.

    /// Pre-charged FRAM read (energy already charged via a bundle).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds for `buf`.
    #[inline]
    pub fn prepaid_read(&self, buf: FramBuf, i: u32) -> Q15 {
        assert!(i < buf.len, "FRAM read out of bounds: {i} >= {}", buf.len);
        Q15::from_raw(self.fram[(buf.base + i) as usize])
    }

    /// Pre-charged FRAM write (energy already charged via a bundle).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds for `buf`.
    #[inline]
    pub fn prepaid_write(&mut self, buf: FramBuf, i: u32, v: Q15) {
        assert!(i < buf.len, "FRAM write out of bounds: {i} >= {}", buf.len);
        self.nv_store(buf.base + i, v.raw());
    }

    /// Pre-charged SRAM read.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds for `buf`.
    #[inline]
    pub fn prepaid_sram_read(&self, buf: SramBuf, i: u32) -> Q15 {
        assert!(i < buf.len, "SRAM read out of bounds: {i} >= {}", buf.len);
        Q15::from_raw(self.sram[(buf.base + i) as usize])
    }

    /// Pre-charged SRAM write.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds for `buf`.
    #[inline]
    pub fn prepaid_sram_write(&mut self, buf: SramBuf, i: u32, v: Q15) {
        assert!(i < buf.len, "SRAM write out of bounds: {i} >= {}", buf.len);
        self.sram[(buf.base + i) as usize] = v.raw();
    }

    /// Pre-charged read of a FRAM counter word.
    #[inline]
    pub fn prepaid_load_word(&self, w: FramWord) -> u16 {
        self.fram[w.addr as usize] as u16
    }

    /// Pre-charged write of a FRAM counter word.
    #[inline]
    pub fn prepaid_store_word(&mut self, w: FramWord, v: u16) {
        self.nv_store(w.addr, v as i16);
    }

    /// Pre-charged write of a raw FRAM address.
    #[inline]
    pub fn prepaid_write_at(&mut self, addr: NvAddr, v: Q15) {
        self.nv_store(addr.0, v.raw());
    }

    // ----- span-charged block access -----------------------------------

    /// Reads `out.len()` consecutive FRAM words starting at
    /// `buf[offset]`, charging the whole span with one arithmetic step.
    ///
    /// Bit-identical to a read-one-word-at-a-time loop: on a brown-out
    /// the reads that fit were charged (and delivered — though the `?` on
    /// the error usually drops them, matching volatile loss).
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] when the span does not fit the remaining
    /// charge.
    ///
    /// # Panics
    ///
    /// Panics if `offset + out.len()` exceeds the buffer.
    pub fn fram_read_block(
        &mut self,
        buf: FramBuf,
        offset: u32,
        out: &mut [Q15],
    ) -> Result<(), PowerFailure> {
        let len = out.len() as u32;
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= buf.len),
            "FRAM block read out of bounds: {offset}+{len} > {}",
            buf.len
        );
        let (fit, r) = self.consume_upto(Op::FramRead, len as u64);
        let base = (buf.base + offset) as usize;
        for (i, slot) in out.iter_mut().take(fit as usize).enumerate() {
            *slot = Q15::from_raw(self.fram[base + i]);
        }
        r
    }

    /// Writes `data` to consecutive FRAM words starting at `buf[offset]`,
    /// charging the whole span with one arithmetic step. On a brown-out
    /// exactly the words that fit are written (word-granular atomicity,
    /// like the scalar loop).
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] when the span does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `offset + data.len()` exceeds the buffer.
    pub fn fram_write_block(
        &mut self,
        buf: FramBuf,
        offset: u32,
        data: &[Q15],
    ) -> Result<(), PowerFailure> {
        let len = data.len() as u32;
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= buf.len),
            "FRAM block write out of bounds: {offset}+{len} > {}",
            buf.len
        );
        let (fit, r) = self.consume_upto(Op::FramWrite, len as u64);
        let base = buf.base + offset;
        self.nv_store_block(base, &data[..fit as usize]);
        if r.is_err() && (fit as u32) < len {
            // A torn-write brown-out tears the first word that did NOT
            // fit: the store the failure interrupted.
            self.maybe_tear(base + fit as u32, data[fit as usize].raw());
        }
        r
    }

    /// Block SRAM read; see [`Device::fram_read_block`].
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] when the span does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `offset + out.len()` exceeds the buffer.
    pub fn sram_read_block(
        &mut self,
        buf: SramBuf,
        offset: u32,
        out: &mut [Q15],
    ) -> Result<(), PowerFailure> {
        let len = out.len() as u32;
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= buf.len),
            "SRAM block read out of bounds: {offset}+{len} > {}",
            buf.len
        );
        let (fit, r) = self.consume_upto(Op::SramRead, len as u64);
        let base = (buf.base + offset) as usize;
        for (i, slot) in out.iter_mut().take(fit as usize).enumerate() {
            *slot = Q15::from_raw(self.sram[base + i]);
        }
        r
    }

    /// Block SRAM write; see [`Device::fram_write_block`].
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] when the span does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `offset + data.len()` exceeds the buffer.
    pub fn sram_write_block(
        &mut self,
        buf: SramBuf,
        offset: u32,
        data: &[Q15],
    ) -> Result<(), PowerFailure> {
        let len = data.len() as u32;
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= buf.len),
            "SRAM block write out of bounds: {offset}+{len} > {}",
            buf.len
        );
        let (fit, r) = self.consume_upto(Op::SramWrite, len as u64);
        let base = (buf.base + offset) as usize;
        for (i, q) in data.iter().take(fit as usize).enumerate() {
            self.sram[base + i] = q.raw();
        }
        r
    }

    // ----- unmetered host ports (the "measurement MCU") ----------------

    /// Installs data into FRAM without consuming energy, like flashing the
    /// binary image before deployment. Shorter data leaves the tail intact.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than `buf`.
    pub fn flash(&mut self, buf: FramBuf, data: &[Q15]) {
        assert!(data.len() <= buf.len as usize, "flash overflows buffer");
        self.nv_store_block(buf.base, data);
    }

    /// Installs a single counter word without consuming energy (flash-time
    /// initialization of runtime control words).
    pub fn flash_word(&mut self, w: FramWord, v: u16) {
        self.nv_store(w.addr, v as i16);
    }

    /// Host-side snapshot of a FRAM buffer (no energy): the debug port the
    /// measurement MCU uses to extract results.
    pub fn peek(&self, buf: FramBuf) -> Vec<Q15> {
        self.fram[buf.base as usize..(buf.base + buf.len) as usize]
            .iter()
            .map(|&w| Q15::from_raw(w))
            .collect()
    }

    /// Host-side read of a FRAM counter word (no energy).
    pub fn peek_word(&self, w: FramWord) -> u16 {
        self.fram[w.addr as usize] as u16
    }

    /// Host-side view of the allocated FRAM image (no energy): every word
    /// the allocator has handed out so far, in address order, so raw
    /// indices into the slice coincide with [`NvAddr`] word indices.
    ///
    /// Tests hash or compare whole images through it to pin down that
    /// two executions left identical non-volatile state.
    pub fn fram_image(&self) -> &[i16] {
        &self.fram[..self.fram_brk as usize]
    }

    /// Host-side snapshot of an SRAM buffer (no energy), for tests.
    pub fn sram_peek(&self, buf: SramBuf) -> Vec<Q15> {
        self.sram[buf.base as usize..(buf.base + buf.len) as usize]
            .iter()
            .map(|&w| Q15::from_raw(w))
            .collect()
    }

    // ----- DMA ---------------------------------------------------------

    /// DMA block copy FRAM → SRAM. Words are moved one at a time, so a
    /// brown-out mid-transfer leaves a partial (volatile) copy.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    ///
    /// # Panics
    ///
    /// Panics if the buffers have different lengths.
    pub fn dma_fram_to_sram(&mut self, src: FramBuf, dst: SramBuf) -> Result<(), PowerFailure> {
        assert_eq!(src.len, dst.len, "dma: length mismatch");
        self.consume(Op::DmaSetup)?;
        // Span-charged: one arithmetic step funds the transfer, and on a
        // brown-out exactly the words that fit have moved — identical to
        // the historical consume-per-word loop.
        let (fit, r) = self.consume_upto(Op::DmaWord, src.len as u64);
        let (s, d, n) = (src.base as usize, dst.base as usize, fit as usize);
        self.sram[d..d + n].copy_from_slice(&self.fram[s..s + n]);
        r
    }

    /// DMA block copy SRAM → FRAM. A brown-out mid-transfer leaves a
    /// partial *non-volatile* copy — callers must make this safe (TAILS
    /// writes only to the inactive half of a double buffer).
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    ///
    /// # Panics
    ///
    /// Panics if the buffers have different lengths.
    pub fn dma_sram_to_fram(&mut self, src: SramBuf, dst: FramBuf) -> Result<(), PowerFailure> {
        assert_eq!(src.len, dst.len, "dma: length mismatch");
        self.consume(Op::DmaSetup)?;
        let (fit, r) = self.consume_upto(Op::DmaWord, src.len as u64);
        let (s, d, n) = (src.base as usize, dst.base as usize, fit as usize);
        if self.span_is_plain(dst.base, fit as u32) {
            self.fram[d..d + n].copy_from_slice(&self.sram[s..s + n]);
        } else {
            for i in 0..n {
                let v = self.sram[s + i];
                self.nv_store(dst.base + i as u32, v);
            }
        }
        if r.is_err() && (fit as u32) < dst.len {
            let v = self.sram[s + n];
            self.maybe_tear(dst.base + fit as u32, v);
        }
        r
    }

    // ----- LEA ----------------------------------------------------------

    /// LEA FIR discrete-time convolution over SRAM buffers:
    /// `out[i] = Σ_j src[i+j]·taps[j]` (valid correlation).
    ///
    /// LEA can only address SRAM, which the signature enforces with
    /// [`SramBuf`] operands. Charges one setup plus one MAC per
    /// tap-multiply; results land in SRAM (volatile, safe to lose).
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty, longer than `src`, or `out` is not
    /// exactly `src.len() - taps.len() + 1` words.
    pub fn lea_fir(
        &mut self,
        src: SramBuf,
        taps: SramBuf,
        out: SramBuf,
    ) -> Result<(), PowerFailure> {
        assert!(!taps.is_empty(), "lea_fir: empty taps");
        assert!(taps.len <= src.len, "lea_fir: taps longer than input");
        let n = src.len - taps.len + 1;
        assert_eq!(out.len, n, "lea_fir: bad output length");
        self.consume(Op::LeaSetup)?;
        self.consume_n(Op::LeaMac, n as u64 * taps.len as u64)?;
        for i in 0..n {
            let mut acc = Accum::ZERO;
            for j in 0..taps.len {
                let s = Q15::from_raw(self.sram[(src.base + i + j) as usize]);
                let t = Q15::from_raw(self.sram[(taps.base + j) as usize]);
                acc.mac(s, t);
            }
            self.sram[(out.base + i) as usize] = acc.to_q15().raw();
        }
        Ok(())
    }

    /// LEA vector multiply-accumulate (dot product) over SRAM buffers.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    ///
    /// # Panics
    ///
    /// Panics if the buffers have different lengths.
    pub fn lea_dot(&mut self, a: SramBuf, b: SramBuf) -> Result<Accum, PowerFailure> {
        assert_eq!(a.len, b.len, "lea_dot: length mismatch");
        self.consume(Op::LeaSetup)?;
        self.consume_n(Op::LeaMac, a.len as u64)?;
        let mut acc = Accum::ZERO;
        for i in 0..a.len {
            acc.mac(
                Q15::from_raw(self.sram[(a.base + i) as usize]),
                Q15::from_raw(self.sram[(b.base + i) as usize]),
            );
        }
        Ok(acc)
    }

    // ----- integrity guards (FRAM-controller ECC model) -----------------
    //
    // The MSP430's FRAM controller keeps ECC bits beside every word and
    // corrects/flags on read. The simulator models the check bits as a
    // host-side shadow of each guarded word's *intended* value: every
    // legitimate write path refreshes the shadow transparently and for
    // free (the controller computes ECC inside the write it already
    // charged), while injected faults (bit flips, stuck cells, torn
    // stores) mutate the array behind the shadow's back. Runtimes call
    // [`Device::verify_word`] at control-read chokepoints to surface the
    // divergence. Membership is one bit per FRAM word (`guard_bits`), so
    // every store and every verify of an *unguarded* word decides in
    // O(1) without searching the shadow; only guarded control words pay
    // the shadow lookup. A device with no registered guards has
    // bit-identical behavior.

    /// O(1) guard membership test of raw FRAM index `addr`.
    #[inline]
    fn is_guarded(&self, addr: u32) -> bool {
        self.guard_bits
            .get((addr / 64) as usize)
            .is_some_and(|w| w >> (addr % 64) & 1 != 0)
    }

    /// `true` when no word of the `len`-word span at `base` is guarded or
    /// holds a stuck cell, so a store there may bypass [`Device::nv_store`].
    fn span_is_plain(&self, base: u32, len: u32) -> bool {
        let end = base + len;
        let guarded = len > 0
            && (base / 64..=(end - 1) / 64).any(|word| {
                // The bits of this bitmap word that fall inside the span.
                let lo = base.max(word * 64) - word * 64;
                let hi = end.min(word * 64 + 64) - word * 64;
                let mask = (u64::MAX >> (64 - (hi - lo))) << lo;
                self.guard_bits
                    .get(word as usize)
                    .is_some_and(|w| w & mask != 0)
            });
        !guarded && self.stuck.iter().all(|&(a, _, _)| a < base || a >= end)
    }

    /// Registers `len` consecutive FRAM words starting at `addr` under
    /// ECC guarding, snapshotting their current contents as the intended
    /// values. Re-registering a guarded word refreshes its snapshot.
    pub fn guard_span(&mut self, addr: NvAddr, len: u32) {
        for a in addr.0..addr.0 + len {
            let word = (a / 64) as usize;
            if word >= self.guard_bits.len() {
                self.guard_bits.resize(word + 1, 0);
            }
            self.guard_bits[word] |= 1 << (a % 64);
            let v = self.fram[a as usize];
            match self.guard_shadow.binary_search_by_key(&a, |e| e.0) {
                Ok(k) => self.guard_shadow[k].1 = v,
                Err(k) => self.guard_shadow.insert(k, (a, v)),
            }
        }
    }

    /// Registers a single counter word under ECC guarding.
    pub fn guard_word(&mut self, w: FramWord) {
        self.guard_span(NvAddr(w.addr), 1);
    }

    /// ECC read check: `true` when the word at `addr` matches its guard
    /// shadow, or is not guarded at all. No energy: the controller
    /// verifies check bits inside the read that was already charged.
    pub fn verify_at(&self, addr: NvAddr) -> bool {
        self.guarded_intended(addr)
            .is_none_or(|v| v as i16 == self.fram[addr.0 as usize])
    }

    /// ECC read check of a counter word; see [`Device::verify_at`].
    pub fn verify_word(&self, w: FramWord) -> bool {
        self.verify_at(NvAddr(w.addr))
    }

    /// The guard shadow's intended value for `addr`, if the word is
    /// guarded — what ECC correction would reconstruct.
    pub fn guarded_intended(&self, addr: NvAddr) -> Option<u16> {
        if !self.is_guarded(addr.0) {
            return None;
        }
        self.guard_shadow
            .binary_search_by_key(&addr.0, |e| e.0)
            .ok()
            .map(|k| self.guard_shadow[k].1 as u16)
    }

    /// Memory faults injected so far (bit flips fired + stuck-at cells
    /// armed); brown-outs are counted separately via the trace.
    pub fn mem_faults_injected(&self) -> u64 {
        self.mem_faults_injected
    }

    /// Notes a detected corruption in `region` and spends one recovery
    /// attempt. Returns `true` while recovery may proceed; returns
    /// `false` once the bounded-retry budget
    /// ([`CORRUPTION_RETRY_LIMIT`]) is exhausted, at which point the
    /// corruption is recorded as unrecoverable and the caller must abort
    /// rather than retry (a stuck control cell re-corrupts every scrub).
    pub fn note_corruption(&mut self, region: RegionId) -> bool {
        self.corruption_detected += 1;
        if self.corruption_budget == 0 {
            if self.unrecoverable.is_none() {
                self.unrecoverable = Some(region);
            }
            return false;
        }
        self.corruption_budget -= 1;
        true
    }

    /// Corruption detections noted since the last
    /// [`Device::reset_corruption_stats`].
    pub fn corruption_detected(&self) -> u64 {
        self.corruption_detected
    }

    /// The region of the first unrecoverable corruption, if recovery has
    /// been abandoned.
    pub fn corruption_unrecoverable(&self) -> Option<RegionId> {
        self.unrecoverable
    }

    /// Resets the per-run corruption accounting (detection count, retry
    /// budget, unrecoverable flag). Injected state — stuck cells, armed
    /// faults — is untouched.
    pub fn reset_corruption_stats(&mut self) {
        self.corruption_detected = 0;
        self.corruption_budget = CORRUPTION_RETRY_LIMIT;
        self.unrecoverable = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{run_loop, LoopBody, Meter};
    use crate::spec::CostTable;

    fn continuous() -> Device {
        Device::new(DeviceSpec::tiny(), PowerSystem::continuous())
    }

    #[test]
    fn fram_roundtrip_and_energy() {
        let mut d = continuous();
        let buf = d.fram_alloc(8).unwrap();
        d.write(buf, 3, Q15::HALF).unwrap();
        assert_eq!(d.read(buf, 3).unwrap(), Q15::HALF);
        let t = CostTable::msp430fr5994();
        let expect = t.cost(Op::FramWrite).energy_pj + t.cost(Op::FramRead).energy_pj;
        assert_eq!(d.trace().total_energy_pj(), expect);
    }

    #[test]
    fn sram_cleared_on_reboot_fram_persists() {
        let mut d = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let f = d.fram_alloc(1).unwrap();
        let s = d.sram_alloc(1).unwrap();
        d.write(f, 0, Q15::HALF).unwrap();
        d.sram_write(s, 0, Q15::HALF).unwrap();
        // Drain the buffer.
        while d.consume(Op::FxpMul).is_ok() {}
        assert!(!d.is_on());
        d.reboot().unwrap();
        assert!(d.is_on());
        assert_eq!(d.peek(f)[0], Q15::HALF, "FRAM must persist");
        assert_eq!(
            d.sram_peek(s)[0].raw(),
            SRAM_GARBAGE,
            "SRAM must be cleared"
        );
        assert_eq!(d.trace().reboots(), 1);
        assert!(d.trace().dead_secs() > 0.0);
    }

    #[test]
    fn failing_write_has_no_effect() {
        let mut d = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let f = d.fram_alloc(1).unwrap();
        d.write(f, 0, Q15::HALF).unwrap();
        while d.consume(Op::Nop).is_ok() {}
        assert_eq!(d.write(f, 0, Q15::ZERO), Err(PowerFailure));
        assert_eq!(d.peek(f)[0], Q15::HALF, "interrupted write must not land");
    }

    #[test]
    fn consume_n_partial_charge_then_failure() {
        let mut d = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let before = d.charge_pj();
        let per = d.spec().costs.cost(Op::FxpMul).energy_pj;
        let fits = before / per;
        // Ask for more than fits: should charge exactly `fits` and fail.
        assert_eq!(d.consume_n(Op::FxpMul, fits + 10), Err(PowerFailure));
        assert_eq!(d.trace().op_count(Op::FxpMul), fits);
        assert_eq!(d.charge_pj(), 0);
    }

    #[test]
    fn continuous_power_never_fails() {
        let mut d = continuous();
        for _ in 0..100_000 {
            d.consume(Op::FramWrite).unwrap();
        }
        assert!(d.is_on());
        assert!(d.trace().total_energy_pj() > 0);
    }

    #[test]
    fn operations_fail_while_off() {
        let mut d = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        while d.consume(Op::Nop).is_ok() {}
        assert_eq!(d.consume(Op::Alu), Err(PowerFailure));
        let f = d.fram_alloc(1).unwrap();
        assert_eq!(d.read(f, 0), Err(PowerFailure));
    }

    #[test]
    fn alloc_errors_when_exhausted() {
        let mut d = continuous();
        let sram_words = d.spec().sram_words;
        assert!(d.sram_alloc(sram_words).is_ok());
        let err = d.sram_alloc(1).unwrap_err();
        assert!(!err.fram);
        assert_eq!(err.available, 0);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn fram_alloc_respects_capacity() {
        let mut d = continuous();
        let cap = d.fram_available();
        assert!(d.fram_alloc(cap + 1).is_err());
        assert!(d.fram_alloc(cap).is_ok());
        assert_eq!(d.fram_available(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_out_of_bounds_panics() {
        let mut d = continuous();
        let buf = d.fram_alloc(4).unwrap();
        let _ = d.read(buf, 4);
    }

    #[test]
    fn slice_narrows_handle() {
        let mut d = continuous();
        let buf = d.fram_alloc(10).unwrap();
        d.flash(buf, &fxp::vecops::quantize(&[0.1; 10]));
        let sub = buf.slice(4, 3);
        assert_eq!(sub.len(), 3);
        d.write(sub, 0, Q15::HALF).unwrap();
        assert_eq!(d.peek(buf)[4], Q15::HALF);
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn slice_out_of_range_panics() {
        let mut d = continuous();
        let buf = d.fram_alloc(10).unwrap();
        let _ = buf.slice(8, 3);
    }

    #[test]
    fn raw_addresses_alias_typed_handles() {
        let mut d = continuous();
        let buf = d.fram_alloc(4).unwrap();
        let a = buf.addr(2);
        d.write_at(a, Q15::HALF).unwrap();
        assert_eq!(d.read(buf, 2).unwrap(), Q15::HALF);
        assert_eq!(d.read_at(a).unwrap(), Q15::HALF);
        assert_eq!(d.peek_at(a), Q15::HALF);
        let w = d.fram_alloc_word().unwrap();
        d.store_word(w, 9).unwrap();
        assert_eq!(d.peek_at(w.addr()).raw() as u16, 9);
    }

    #[test]
    #[should_panic(expected = "addr out of bounds")]
    fn addr_out_of_bounds_panics() {
        let mut d = continuous();
        let buf = d.fram_alloc(4).unwrap();
        let _ = buf.addr(4);
    }

    #[test]
    fn word_counters_roundtrip() {
        let mut d = continuous();
        let w = d.fram_alloc_word().unwrap();
        d.store_word(w, 12345).unwrap();
        assert_eq!(d.load_word(w).unwrap(), 12345);
        assert_eq!(d.peek_word(w), 12345);
        let sw = d.sram_alloc_word().unwrap();
        d.sram_store_word(sw, 777).unwrap();
        assert_eq!(d.sram_load_word(sw).unwrap(), 777);
    }

    #[test]
    fn dma_roundtrip_matches_flash() {
        let mut d = continuous();
        let f = d.fram_alloc(16).unwrap();
        let s = d.sram_alloc(16).unwrap();
        let data = fxp::vecops::quantize(&[0.25; 16]);
        d.flash(f, &data);
        d.dma_fram_to_sram(f, s).unwrap();
        assert_eq!(d.sram_peek(s), data);
        let f2 = d.fram_alloc(16).unwrap();
        d.dma_sram_to_fram(s, f2).unwrap();
        assert_eq!(d.peek(f2), data);
        assert_eq!(d.trace().op_count(Op::DmaWord), 32);
        assert_eq!(d.trace().op_count(Op::DmaSetup), 2);
    }

    #[test]
    fn dma_partial_on_power_failure() {
        let mut d = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let f = d.fram_alloc(16).unwrap();
        d.flash(f, &fxp::vecops::quantize(&[0.5; 16]));
        let s = d.sram_alloc(16).unwrap();
        // Drain almost all energy so the DMA dies partway.
        let per_word = d.spec().costs.cost(Op::DmaWord).energy_pj;
        while d.charge_pj() > 8 * per_word {
            if d.consume(Op::Nop).is_err() {
                break;
            }
        }
        let r = d.dma_fram_to_sram(f, s);
        assert_eq!(r, Err(PowerFailure));
        // Some words may have moved; the transfer charged what it did.
        assert!(d.trace().op_count(Op::DmaWord) < 16);
    }

    #[test]
    fn lea_fir_matches_software_reference() {
        let mut d = continuous();
        let vals = [0.1f32, -0.2, 0.3, 0.05, -0.4, 0.2, 0.15, -0.1];
        let taps_f = [0.5f32, -0.25, 0.125];
        let src = d.sram_alloc(8).unwrap();
        let taps = d.sram_alloc(3).unwrap();
        let out = d.sram_alloc(6).unwrap();
        let qv = fxp::vecops::quantize(&vals);
        let qt = fxp::vecops::quantize(&taps_f);
        for (i, q) in qv.iter().enumerate() {
            d.sram_write(src, i as u32, *q).unwrap();
        }
        for (i, q) in qt.iter().enumerate() {
            d.sram_write(taps, i as u32, *q).unwrap();
        }
        d.lea_fir(src, taps, out).unwrap();
        assert_eq!(d.sram_peek(out), fxp::vecops::fir(&qv, &qt));
        assert_eq!(d.trace().op_count(Op::LeaMac), 18);
        assert_eq!(d.trace().op_count(Op::LeaSetup), 1);
    }

    #[test]
    fn lea_dot_matches_software_reference() {
        let mut d = continuous();
        let a = d.sram_alloc(4).unwrap();
        let b = d.sram_alloc(4).unwrap();
        let qa = fxp::vecops::quantize(&[0.1, 0.2, 0.3, 0.4]);
        let qb = fxp::vecops::quantize(&[0.4, 0.3, 0.2, 0.1]);
        for i in 0..4u32 {
            d.sram_write(a, i, qa[i as usize]).unwrap();
            d.sram_write(b, i, qb[i as usize]).unwrap();
        }
        let acc = d.lea_dot(a, b).unwrap();
        assert_eq!(acc, fxp::vecops::dot(&qa, &qb));
    }

    #[test]
    fn context_routes_charges_to_region() {
        let mut d = continuous();
        let conv = d.register_region("conv1");
        d.set_context(conv, Phase::Control);
        d.consume(Op::TaskTransition).unwrap();
        assert!(d.trace().region_phase_energy_pj(conv, Phase::Control) > 0);
        assert_eq!(d.trace().region_phase_energy_pj(conv, Phase::Kernel), 0);
        assert_eq!(d.context(), (conv, Phase::Control));
    }

    #[test]
    fn progress_marks_visible_in_trace() {
        let mut d = continuous();
        d.mark_progress();
        assert_eq!(d.trace().progress_marks(), 1);
    }

    #[test]
    fn zero_energy_zero_cycle_ops_execute_for_free_on_harvested_power() {
        // Pins the documented semantics of the `per == 0` path: a
        // zero-energy (and zero-cycle) op never browns the device out and
        // consumes no charge, however many are batched.
        let mut spec = DeviceSpec::tiny();
        spec.costs.set_cost(Op::Nop, crate::spec::Cost::new(0, 0));
        let mut d = Device::new(spec, PowerSystem::cap_100uf());
        let before = d.charge_pj();
        d.consume_n(Op::Nop, 1_000_000).unwrap();
        assert_eq!(d.charge_pj(), before, "free ops must not drain charge");
        assert_eq!(d.trace().op_count(Op::Nop), 1_000_000);
        assert_eq!(d.trace().live_cycles(), 0);
        assert!(d.is_on());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "zero-energy op")]
    fn zero_energy_op_with_cycles_is_a_spec_bug() {
        let mut spec = DeviceSpec::tiny();
        spec.costs.set_cost(Op::Nop, crate::spec::Cost::new(3, 0));
        let mut d = Device::new(spec, PowerSystem::cap_100uf());
        let _ = d.consume(Op::Nop);
    }

    #[test]
    fn reboot_on_dead_supply_reports_instead_of_infinite_dead_time() {
        let mut d = Device::new(
            DeviceSpec::tiny(),
            PowerSystem::harvested_with(100e-6, crate::power::HarvestProfile::Constant(0.0)),
        );
        // The first charge is free (device starts full), so it runs...
        while d.consume(Op::FxpMul).is_ok() {}
        assert!(!d.is_on());
        // ...but can never recharge: reboot reports it, no inf anywhere.
        assert_eq!(d.reboot(), Err(crate::device::SupplyDead));
        assert!(!d.is_on(), "a failed reboot leaves the device off");
        assert!(d.trace().dead_secs().is_finite());
        assert_eq!(d.trace().reboots(), 0);
    }

    #[test]
    fn recharge_integrates_time_varying_profile_from_current_time() {
        // A trace that is occluded for its first 100 s, then delivers the
        // paper's 150 µW for 10 s, repeating. The constant-profile
        // recharge of a full 100 µF buffer at 150 µW takes well under a
        // second, so the windows dwarf it.
        let profile = crate::power::HarvestProfile::Piecewise(vec![(100.0, 0.0), (10.0, 150e-6)]);
        let constant = crate::power::Harvester::constant(100e-6, 150e-6);
        let full = constant.recharge_secs(constant.buffer_energy_pj()).unwrap();
        assert!(full < 1.0);
        // The constant-profile device still reproduces exactly that (the
        // back-compat guarantee).
        let mut c = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        while c.consume(Op::FxpMul).is_ok() {}
        c.reboot().unwrap();
        assert_eq!(c.trace().dead_secs(), full);

        // First failure happens at t ≈ 0, mid-occlusion: the recharge must
        // wait out the rest of the dark window before charging.
        let mut d = Device::new(
            DeviceSpec::tiny(),
            PowerSystem::harvested_with(100e-6, profile),
        );
        while d.consume(Op::FxpMul).is_ok() {}
        d.reboot().unwrap();
        let first_dead = d.trace().dead_secs();
        assert!(
            first_dead > 99.0 && first_dead < 100.0 + full + 1e-6,
            "mid-occlusion recharge must wait for light: {first_dead} s"
        );
        // The device is now just inside the lit window. A second failure
        // recharges at full input power — same energy, far less dead time:
        // the profile is integrated from the *current* time, not t=0.
        while d.consume(Op::FxpMul).is_ok() {}
        let before = d.trace().dead_secs();
        d.reboot().unwrap();
        let second_dead = d.trace().dead_secs() - before;
        assert!(
            (second_dead - full).abs() < 1e-6,
            "lit-window recharge matches constant power: {second_dead} vs {full}"
        );
    }

    /// The canonical SONIC-ish loop iteration used by the differential
    /// bundle tests: mixed phases, mixed op classes.
    fn test_iteration() -> Vec<(Op, Phase)> {
        vec![
            (Op::Alu, Phase::Kernel),
            (Op::FramRead, Phase::Kernel),
            (Op::FxpMul, Phase::Kernel),
            (Op::FramWrite, Phase::Kernel),
            (Op::FramWrite, Phase::Control),
            (Op::Incr, Phase::Kernel),
            (Op::Branch, Phase::Kernel),
        ]
    }

    /// Runs `iters` iterations of the scalar path, one consume per op,
    /// stopping at the brown-out. Returns the consumed-op count at death.
    fn run_scalar(dev: &mut Device, seq: &[(Op, Phase)], iters: u64) -> Result<(), PowerFailure> {
        let region = dev.context().0;
        for _ in 0..iters {
            for &(op, phase) in seq {
                dev.set_context(region, phase);
                dev.consume(op)?;
            }
        }
        Ok(())
    }

    /// Runs the same workload through consume_bundle plus the documented
    /// scalar replay of the final partial iteration.
    fn run_bundled(dev: &mut Device, seq: &[(Op, Phase)], iters: u64) -> Result<(), PowerFailure> {
        let mut bundle = OpBundle::new();
        for &(op, phase) in seq {
            bundle.push(op, phase);
        }
        let mut done = 0;
        while done < iters {
            let funded = dev.consume_bundle(&bundle, iters - done)?;
            done += funded;
            if done < iters {
                // Partial iteration: scalar replay, browns out mid-way.
                run_scalar(dev, seq, 1)?;
                done += 1; // unreachable (the replay must fail)
            }
        }
        Ok(())
    }

    /// The same iteration written once as a [`LoopBody`], with real
    /// memory effects for its reads and writes.
    #[derive(Clone)]
    struct SeqBody {
        seq: Vec<(Op, Phase)>,
        buf: FramBuf,
        ctl: FramWord,
    }

    impl LoopBody for SeqBody {
        fn step<M: Meter>(&mut self, m: &mut M, t: u32) -> Result<(), PowerFailure> {
            for &(op, phase) in &self.seq {
                match (op, phase) {
                    (Op::FramRead, Phase::Kernel) => m.read(self.buf, 0).map(drop)?,
                    (Op::FramWrite, Phase::Kernel) => {
                        m.write(self.buf, 0, Q15::from_raw(t as i16))?;
                    }
                    (Op::FramWrite, Phase::Control) => m.store_ctl(self.ctl, t as u16)?,
                    _ => m.op(op)?,
                }
            }
            Ok(())
        }
    }

    /// Allocates the body's memory on `dev` (before it is cloned, so
    /// every copy addresses the same words).
    fn seq_body(dev: &mut Device, seq: &[(Op, Phase)]) -> SeqBody {
        SeqBody {
            seq: seq.to_vec(),
            buf: dev.fram_alloc(1).unwrap(),
            ctl: dev.fram_alloc_word().unwrap(),
        }
    }

    /// Runs the workload through the meter driver: the body's tally
    /// funds the batches, the body itself runs every iteration.
    fn run_metered(dev: &mut Device, body: &SeqBody, iters: u64) -> Result<(), PowerFailure> {
        let bundle = OpBundle::tally(body, Phase::Kernel);
        run_loop(dev, &bundle, &mut body.clone(), 0, iters as u32)
    }

    fn assert_traces_identical(a: &Device, b: &Device) {
        assert_eq!(a.charge_pj(), b.charge_pj());
        assert_eq!(a.is_on(), b.is_on());
        assert_eq!(a.trace().live_cycles(), b.trace().live_cycles());
        assert_eq!(a.trace().total_energy_pj(), b.trace().total_energy_pj());
        for op in Op::ALL {
            assert_eq!(a.trace().op_count(op), b.trace().op_count(op), "{op:?}");
            for phase in Phase::ALL {
                let sa = a.trace().stat(RegionId::OTHER, phase, op);
                let sb = b.trace().stat(RegionId::OTHER, phase, op);
                assert_eq!(sa, sb, "{op:?}/{phase:?}");
            }
        }
    }

    use crate::trace::RegionId;

    #[test]
    fn bundle_matches_scalar_on_continuous_power() {
        let seq = test_iteration();
        let mut a = continuous();
        let mut b = continuous();
        run_scalar(&mut a, &seq, 1000).unwrap();
        run_bundled(&mut b, &seq, 1000).unwrap();
        assert_traces_identical(&a, &b);
    }

    #[test]
    fn bundle_brownout_lands_on_the_same_op_as_scalar() {
        let seq = test_iteration();
        // Enough work to kill the buffer several times over; compare the
        // full trace at every brown-out across repeated recharge cycles.
        for _ in 0..4 {
            let mut a = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
            let body = seq_body(&mut a, &seq);
            let mut b = a.clone();
            let mut c = a.clone();
            let mut iters = 10_000u64;
            loop {
                let ra = run_scalar(&mut a, &seq, iters);
                let rb = run_bundled(&mut b, &seq, iters);
                let rc = run_metered(&mut c, &body, iters);
                assert_eq!(ra.is_err(), rb.is_err());
                assert_eq!(ra.is_err(), rc.is_err());
                assert_traces_identical(&a, &b);
                assert_traces_identical(&a, &c);
                assert_eq!(a.last_brownout(), c.last_brownout());
                if ra.is_ok() {
                    break;
                }
                a.reboot().unwrap();
                b.reboot().unwrap();
                c.reboot().unwrap();
                assert_traces_identical(&a, &b);
                assert_traces_identical(&a, &c);
                // Remaining work is unknown after a failure mid-iteration;
                // keep hammering the same count to cross several reboots.
                iters /= 2;
                if iters == 0 {
                    break;
                }
            }
        }
    }

    #[test]
    fn consume_bundle_reports_fundable_iterations_without_browning_out() {
        let seq = test_iteration();
        let mut bundle = OpBundle::new();
        for &(op, phase) in &seq {
            bundle.push(op, phase);
        }
        let mut d = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let (_, per_iter) = bundle.iter_cost(&d.spec().costs);
        let expect = d.charge_pj() / per_iter;
        let funded = d.consume_bundle(&bundle, u64::MAX).unwrap();
        assert_eq!(funded, expect);
        assert!(d.is_on(), "a shortfall must not brown the device out");
        assert!(d.charge_pj() < per_iter);
        // The scalar replay of the next iteration then browns out.
        assert!(run_scalar(&mut d, &seq, 1).is_err());
        assert!(!d.is_on());
        assert_eq!(d.charge_pj(), 0);
    }

    #[test]
    fn consume_tape_matches_scalar_sequence() {
        // A data-dependent op stream (varying run lengths), settled as a
        // tape vs consumed scalar-wise, across several brown-outs.
        let mut a = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let mut b = a.clone();
        for round in 0..12u64 {
            let mut tape = OpBundle::new();
            let mut program: Vec<(Op, u64)> = Vec::new();
            for k in 0..200 {
                let op = match (round + k) % 4 {
                    0 => Op::FramRead,
                    1 => Op::Alu,
                    2 => Op::FramWrite,
                    _ => Op::FxpMul,
                };
                let n = 1 + (k % 3);
                program.push((op, n));
                tape.push_n(op, Phase::Kernel, n);
            }
            let ra = (|| -> Result<(), PowerFailure> {
                for &(op, n) in &program {
                    a.consume_n(op, n)?;
                }
                Ok(())
            })();
            let rb = b.consume_tape(&tape);
            assert_eq!(ra.is_err(), rb.is_err(), "round {round}");
            assert_traces_identical(&a, &b);
            if ra.is_err() {
                a.reboot().unwrap();
                b.reboot().unwrap();
            }
        }
    }

    #[test]
    fn block_accessors_match_scalar_word_loops() {
        // Partial block write on a draining buffer: the words that fit
        // must land, the rest must not, exactly like the scalar loop.
        let mut a = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let mut b = a.clone();
        let fa = a.fram_alloc(64).unwrap();
        let fb = b.fram_alloc(64).unwrap();
        let data: Vec<Q15> = (0..64).map(|i| Q15::from_raw(i as i16 + 1)).collect();
        loop {
            let ra = (|| -> Result<(), PowerFailure> {
                for (i, q) in data.iter().enumerate() {
                    a.write(fa, i as u32, *q)?;
                }
                Ok(())
            })();
            let rb = b.fram_write_block(fb, 0, &data);
            assert_eq!(ra.is_err(), rb.is_err());
            assert_eq!(a.peek(fa), b.peek(fb), "partial writes must agree");
            assert_traces_identical(&a, &b);
            if ra.is_ok() {
                break;
            }
            a.reboot().unwrap();
            b.reboot().unwrap();
        }
        // Block read round-trip.
        let mut out = vec![Q15::ZERO; 64];
        let mut c = continuous();
        let fc = c.fram_alloc(64).unwrap();
        c.flash(fc, &data);
        c.fram_read_block(fc, 0, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(c.trace().op_count(Op::FramRead), 64);
        // SRAM variants.
        let sc = c.sram_alloc(8).unwrap();
        c.sram_write_block(sc, 0, &data[..8]).unwrap();
        let mut sout = vec![Q15::ZERO; 8];
        c.sram_read_block(sc, 0, &mut sout).unwrap();
        assert_eq!(sout, &data[..8]);
        assert_eq!(c.sram_peek(sc), &data[..8]);
    }

    #[test]
    fn prepaid_accessors_move_data_without_energy() {
        let mut d = continuous();
        let f = d.fram_alloc(4).unwrap();
        let s = d.sram_alloc(4).unwrap();
        let w = d.fram_alloc_word().unwrap();
        let before = d.trace().total_energy_pj();
        d.prepaid_write(f, 2, Q15::HALF);
        assert_eq!(d.prepaid_read(f, 2), Q15::HALF);
        d.prepaid_sram_write(s, 1, Q15::MAX);
        assert_eq!(d.prepaid_sram_read(s, 1), Q15::MAX);
        d.prepaid_store_word(w, 99);
        assert_eq!(d.prepaid_load_word(w), 99);
        d.prepaid_write_at(f.addr(0), Q15::HALF);
        assert_eq!(d.peek_at(f.addr(0)), Q15::HALF);
        assert_eq!(
            d.trace().total_energy_pj(),
            before,
            "prepaid access must not double-charge"
        );
    }

    #[test]
    fn free_bundles_never_brown_out() {
        let mut spec = DeviceSpec::tiny();
        spec.costs.set_cost(Op::Nop, crate::spec::Cost::new(0, 0));
        let mut d = Device::new(spec, PowerSystem::cap_100uf());
        let mut bundle = OpBundle::new();
        bundle.push(Op::Nop, Phase::Kernel);
        let before = d.charge_pj();
        assert_eq!(d.consume_bundle(&bundle, 1_000_000).unwrap(), 1_000_000);
        assert_eq!(d.charge_pj(), before);
        assert_eq!(d.trace().op_count(Op::Nop), 1_000_000);
    }

    #[test]
    fn consume_bundle_while_off_fails() {
        let mut d = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        while d.consume(Op::Nop).is_ok() {}
        let mut bundle = OpBundle::new();
        bundle.push(Op::Alu, Phase::Kernel);
        assert_eq!(d.consume_bundle(&bundle, 5), Err(PowerFailure));
        assert_eq!(d.consume_tape(&bundle), Err(PowerFailure));
    }

    #[test]
    fn device_epochs_isolate_back_to_back_work() {
        let mut d = continuous();
        let buf = d.fram_alloc(4).unwrap();
        d.write(buf, 0, Q15::HALF).unwrap();
        d.begin_epoch();
        d.write(buf, 1, Q15::HALF).unwrap();
        let e = d.epoch_report();
        let w = d.spec().costs.cost(Op::FramWrite);
        assert_eq!(e.total_energy_pj, w.energy_pj);
        assert_eq!(e.live_cycles, w.cycles as u64);
        assert_eq!(d.trace().report().total_energy_pj, 2 * w.energy_pj);
    }

    // ----- fault injection -------------------------------------------

    #[test]
    fn injected_fault_fires_at_the_exact_op_index_on_continuous_power() {
        let seq = test_iteration();
        for target in [0u64, 1, 7, 8, 23] {
            let mut d = continuous();
            d.arm_faults(&FaultPlan::at(target));
            let r = run_scalar(&mut d, &seq, 100);
            assert!(r.is_err(), "target {target} must brown the device out");
            assert!(!d.is_on());
            assert_eq!(d.ops_consumed(), target, "ops before the target ran");
            let b = d.last_brownout().expect("brown-out recorded");
            assert_eq!(b.op_index, target);
            assert!(b.injected);
            // The op that failed is the one the scalar sequence charges at
            // position `target` (mod the iteration length).
            let (op, phase) = seq[(target as usize) % seq.len()];
            assert_eq!(b.op, op);
            assert_eq!(b.phase, phase);
            assert_eq!(d.pending_faults(), 0, "the target fired and disarmed");
            // After a reboot the device runs fault-free to completion.
            d.reboot().unwrap();
            run_scalar(&mut d, &seq, 100).unwrap();
        }
    }

    #[test]
    fn bundled_path_hits_the_same_injected_boundary_as_scalar() {
        let seq = test_iteration();
        let iter_len = seq.len() as u64;
        // Targets inside the first iteration, at an iteration boundary,
        // and deep into the run (forcing the bundle cap to matter).
        for target in [3u64, iter_len, 5 * iter_len + 2, 40 * iter_len - 1] {
            let mut a = continuous();
            let body = seq_body(&mut a, &seq);
            a.arm_faults(&FaultPlan::at(target));
            let mut b = a.clone();
            let mut c = a.clone();
            let ra = run_scalar(&mut a, &seq, 100);
            let rb = run_bundled(&mut b, &seq, 100);
            let rc = run_metered(&mut c, &body, 100);
            for (d, r) in [(&b, rb), (&c, rc)] {
                assert_eq!(ra.is_err(), r.is_err(), "target {target}");
                assert_eq!(a.ops_consumed(), d.ops_consumed(), "target {target}");
                assert_eq!(a.last_brownout(), d.last_brownout(), "target {target}");
                assert_traces_identical(&a, d);
            }
            // The metered run's memory holds what the scalar stream
            // stored before the target: the last data write (op 3 of an
            // iteration) and the last continuation write (op 4).
            let last = |pos: u64| (0..100).rfind(|t| t * iter_len + pos < target).unwrap_or(0);
            assert_eq!(c.peek(body.buf)[0].raw(), last(3) as i16, "target {target}");
            assert_eq!(c.peek_word(body.ctl), last(4) as u16, "target {target}");
        }
    }

    #[test]
    fn injected_fault_lands_inside_a_span_charge() {
        // A DMA transfer is charged as one span of per-word ops; a target
        // inside the span must move exactly the words before it.
        let mut d = continuous();
        let f = d.fram_alloc(16).unwrap();
        let s = d.sram_alloc(16).unwrap();
        let data: Vec<Q15> = (0..16).map(|i| Q15::from_raw(i as i16 + 1)).collect();
        d.flash(f, &data);
        let start = d.ops_consumed();
        // DmaSetup is charged first, then one DmaWord per word: aim at the
        // 5th word (start + 1 setup + 4 words).
        d.arm_faults(&FaultPlan::at(start + 5));
        let r = d.dma_fram_to_sram(f, s);
        assert!(r.is_err());
        let b = d.last_brownout().unwrap();
        assert!(b.injected);
        assert_eq!(b.op, Op::DmaWord);
        assert_eq!(b.op_index, start + 5);
        // Exactly 4 words landed before the failure.
        d.reboot().unwrap();
        // SRAM was wiped by the reboot, but the trace pins the charge:
        assert_eq!(d.trace().op_count(Op::DmaWord), 4);
    }

    #[test]
    fn multi_fault_plan_fires_across_reboots_in_order() {
        let seq = test_iteration();
        let mut d = continuous();
        d.arm_faults(&FaultPlan::at_each([5u64, 5, 17, 30]));
        assert_eq!(d.pending_faults(), 3, "duplicates collapse");
        let mut fired = Vec::new();
        loop {
            match run_scalar(&mut d, &seq, 10) {
                Ok(()) => break,
                Err(PowerFailure) => {
                    fired.push(d.last_brownout().unwrap().op_index);
                    d.reboot().unwrap();
                }
            }
        }
        // Boot charges advance the op counter, so later targets that a
        // reboot overtakes fire on the first op after it; order holds.
        assert_eq!(fired.len(), 3);
        assert!(fired.windows(2).all(|w| w[0] < w[1]), "{fired:?}");
        assert_eq!(fired[0], 5);
        assert_eq!(d.pending_faults(), 0);
    }

    #[test]
    fn unarmed_device_is_bit_identical_to_one_that_never_heard_of_faults() {
        let seq = test_iteration();
        let mut a = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let mut b = a.clone();
        b.arm_faults(&FaultPlan::default());
        loop {
            let ra = run_scalar(&mut a, &seq, 500);
            let rb = run_bundled(&mut b, &seq, 500);
            assert_eq!(ra.is_err(), rb.is_err());
            assert_traces_identical(&a, &b);
            assert_eq!(a.ops_consumed(), b.ops_consumed());
            if ra.is_ok() {
                break;
            }
            a.reboot().unwrap();
            b.reboot().unwrap();
        }
    }

    #[test]
    fn natural_brownout_records_op_and_leaves_later_targets_armed() {
        let seq = test_iteration();
        let mut d = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        d.arm_faults(&FaultPlan::at(u64::MAX));
        assert!(run_scalar(&mut d, &seq, u64::MAX / 8).is_err());
        let b = d.last_brownout().expect("natural brown-out recorded");
        assert!(!b.injected, "buffer genuinely ran dry");
        assert_eq!(b.op_index, d.ops_consumed());
        assert_eq!(d.pending_faults(), 1, "unreached target stays armed");
    }

    #[test]
    fn fault_target_on_boot_defers_to_the_first_program_op() {
        // A target at or before the boot charge's own op index must not
        // kill the reboot (whose consume would panic on failure); it
        // fires on the first program op after the boot instead.
        let seq = test_iteration();
        let mut d = continuous();
        d.arm_faults(&FaultPlan::at(4));
        assert!(run_scalar(&mut d, &seq, 10).is_err());
        // Re-arm a stale target below the current op index: the reboot's
        // parked queue must let the Boot charge through.
        d.arm_faults(&FaultPlan::at(2));
        d.reboot().unwrap();
        assert!(d.is_on(), "boot is not an injectable boundary");
        let boot_end = d.ops_consumed();
        // The stale target fires immediately on the next charged op.
        assert!(run_scalar(&mut d, &seq, 10).is_err());
        let b = d.last_brownout().unwrap();
        assert!(b.injected);
        assert_eq!(b.op_index, boot_end, "fires at the first op boundary");
        d.reboot().unwrap();
        run_scalar(&mut d, &seq, 10).unwrap();
    }

    #[test]
    fn bit_flip_fires_at_its_index_without_interrupting_execution() {
        let mut d = continuous();
        let buf = d.fram_alloc(4).unwrap();
        d.write(buf, 2, Q15::HALF).unwrap();
        let ops = d.ops_consumed();
        // Arm a flip of bit 0 at the very next op boundary.
        d.arm_faults(&FaultPlan::faults([(
            ops,
            FaultKind::BitFlip {
                addr: buf.addr(2),
                bit: 0,
            },
        )]));
        // The next op both fires the flip and completes normally.
        d.consume(Op::Alu).unwrap();
        assert!(d.is_on(), "memory faults never cut power");
        assert_eq!(d.pending_faults(), 0);
        assert_eq!(d.mem_faults_injected(), 1);
        assert_eq!(d.peek(buf)[2].raw(), Q15::HALF.raw() ^ 1);
        assert_eq!(d.ops_consumed(), ops + 1, "the op itself was charged");
    }

    #[test]
    fn bit_flip_inside_a_span_charge_lands_mid_span() {
        let mut d = continuous();
        let buf = d.fram_alloc(8).unwrap();
        let start = d.ops_consumed();
        d.arm_faults(&FaultPlan::faults([(
            start + 3,
            FaultKind::BitFlip {
                addr: buf.addr(0),
                bit: 15,
            },
        )]));
        // An 8-op span: the flip fires after 3 charged ops, then the
        // remaining 5 charge on — no failure, full span completes.
        assert!(d.consume_n(Op::FramRead, 8).is_ok());
        assert_eq!(d.ops_consumed(), start + 8);
        assert_eq!(d.pending_faults(), 0);
        assert_eq!(d.peek(buf)[0].raw(), 1i16 << 15);
    }

    #[test]
    fn stuck_at_cell_forces_the_bit_on_every_subsequent_write() {
        let mut d = continuous();
        let buf = d.fram_alloc(2).unwrap();
        let ops = d.ops_consumed();
        d.arm_faults(&FaultPlan::faults([(
            ops,
            FaultKind::StuckAt {
                addr: buf.addr(1),
                bit: 3,
                high: true,
            },
        )]));
        d.consume(Op::Alu).unwrap();
        // Armed: the current value has the bit forced immediately...
        assert_eq!(d.peek(buf)[1].raw(), 1i16 << 3);
        // ...and every later write re-forces it, forever.
        d.write(buf, 1, Q15::ZERO).unwrap();
        assert_eq!(d.peek(buf)[1].raw(), 1i16 << 3, "cell never heals");
        d.write(buf, 0, Q15::ZERO).unwrap();
        assert_eq!(d.peek(buf)[0].raw(), 0, "neighbor words unaffected");
    }

    #[test]
    fn torn_write_lands_a_half_written_word_at_the_brownout() {
        let mut d = continuous();
        let buf = d.fram_alloc(1).unwrap();
        d.write(buf, 0, Q15::from_raw(0x1234)).unwrap();
        let ops = d.ops_consumed();
        d.arm_faults(&FaultPlan::faults([(ops, FaultKind::TornWrite)]));
        // The interrupted store: low byte of the new value lands, high
        // byte keeps the old contents.
        assert_eq!(d.write(buf, 0, Q15::from_raw(0x56AB)), Err(PowerFailure));
        assert!(!d.is_on(), "torn write is a brown-out class fault");
        assert_eq!(d.peek(buf)[0].raw(), 0x12AB);
        let b = d.last_brownout().unwrap();
        assert!(b.injected);
        // The tear is one-shot: after reboot, writes are clean again.
        d.reboot().unwrap();
        d.write(buf, 0, Q15::from_raw(0x7FFF)).unwrap();
        assert_eq!(d.peek(buf)[0].raw(), 0x7FFF);
    }

    #[test]
    fn torn_write_on_a_non_store_op_degrades_to_a_clean_brownout() {
        let mut d = continuous();
        let buf = d.fram_alloc(1).unwrap();
        d.write(buf, 0, Q15::HALF).unwrap();
        let ops = d.ops_consumed();
        d.arm_faults(&FaultPlan::faults([(ops, FaultKind::TornWrite)]));
        assert_eq!(d.consume(Op::Alu), Err(PowerFailure));
        d.reboot().unwrap();
        // No store was in flight: the pending tear must not leak into
        // the first write after reboot.
        d.write(buf, 0, Q15::from_raw(0x0100)).unwrap();
        assert_eq!(d.peek(buf)[0].raw(), 0x0100);
    }

    #[test]
    fn torn_write_tears_the_first_unfunded_word_of_a_dma_store() {
        let mut d = continuous();
        let f = d.fram_alloc(4).unwrap();
        let s = d.sram_alloc(4).unwrap();
        for i in 0..4 {
            d.write(f, i, Q15::from_raw(0x1100)).unwrap();
            d.sram_write(s, i, Q15::from_raw(0x22FF)).unwrap();
        }
        // Fault after DmaSetup + 2 DmaWords: words 0-1 land whole, word
        // 2 lands torn, word 3 is untouched.
        let ops = d.ops_consumed();
        d.arm_faults(&FaultPlan::faults([(ops + 3, FaultKind::TornWrite)]));
        assert_eq!(d.dma_sram_to_fram(s, f), Err(PowerFailure));
        let out = d.peek(f);
        assert_eq!(out[0].raw(), 0x22FF);
        assert_eq!(out[1].raw(), 0x22FF);
        assert_eq!(out[2].raw(), 0x11FF, "prefix landed, victim torn");
        assert_eq!(out[3].raw(), 0x1100);
    }

    #[test]
    fn guards_detect_injected_faults_but_pass_legitimate_writes() {
        let mut d = continuous();
        let w = d.fram_alloc_word().unwrap();
        d.flash_word(w, 7);
        d.guard_word(w);
        assert!(d.verify_word(w));
        // Legitimate writes — metered, prepaid, flash — track the shadow.
        d.store_word(w, 19).unwrap();
        assert!(d.verify_word(w));
        d.prepaid_store_word(w, 23);
        assert!(d.verify_word(w));
        d.flash_word(w, 42);
        assert!(d.verify_word(w));
        // An injected flip bypasses the shadow and is detected; the
        // shadow still knows the intended value.
        let ops = d.ops_consumed();
        d.arm_faults(&FaultPlan::faults([(
            ops,
            FaultKind::BitFlip {
                addr: w.addr(),
                bit: 4,
            },
        )]));
        d.consume(Op::Alu).unwrap();
        assert!(!d.verify_word(w), "ECC check sees the divergence");
        assert_eq!(d.guarded_intended(w.addr()), Some(42));
        // Scrubbing with the intended value restores a clean state.
        d.store_word(w, 42).unwrap();
        assert!(d.verify_word(w));
    }

    #[test]
    fn dma_store_over_a_guarded_word_refreshes_its_shadow() {
        let mut d = continuous();
        // The destination straddles a 64-word membership block.
        d.fram_alloc(50).unwrap();
        let f = d.fram_alloc(40).unwrap();
        let s = d.sram_alloc(40).unwrap();
        d.guard_span(f.addr(20), 1);
        assert!(!d.span_is_plain(f.base, f.len));
        assert!(
            d.span_is_plain(f.base, 20),
            "span ends just before the guard"
        );
        assert!(
            d.span_is_plain(f.base + 21, 19),
            "span starts just after it"
        );
        let data: Vec<Q15> = (0..40).map(|i| Q15::from_raw(100 + i)).collect();
        d.sram_write_block(s, 0, &data).unwrap();
        d.dma_sram_to_fram(s, f).unwrap();
        assert_eq!(d.peek(f), data);
        assert!(
            d.verify_at(f.addr(20)),
            "the DMA store refreshed the shadow"
        );
        assert_eq!(d.guarded_intended(f.addr(20)), Some(120));
    }

    #[test]
    fn block_stores_over_a_guarded_word_refresh_its_shadow() {
        let mut d = continuous();
        let f = d.fram_alloc(8).unwrap();
        d.guard_span(f.addr(3), 1);
        let data: Vec<Q15> = (0..8).map(|i| Q15::from_raw(10 + i)).collect();
        d.flash(f, &data);
        assert_eq!(d.peek(f), data);
        assert_eq!(d.guarded_intended(f.addr(3)), Some(13));
        d.fram_write_block(f, 2, &data[..4]).unwrap();
        assert_eq!(d.guarded_intended(f.addr(3)), Some(11));
        assert!(d.verify_at(f.addr(3)));
    }

    #[test]
    fn dma_store_over_an_unguarded_span_leaves_guards_alone() {
        let mut d = continuous();
        let w = d.fram_alloc_word().unwrap();
        d.flash_word(w, 9);
        d.guard_word(w);
        let f = d.fram_alloc(16).unwrap();
        let s = d.sram_alloc(16).unwrap();
        assert!(d.span_is_plain(f.base, f.len));
        let data = fxp::vecops::quantize(&[0.5; 16]);
        d.sram_write_block(s, 0, &data).unwrap();
        d.dma_sram_to_fram(s, f).unwrap();
        assert_eq!(d.peek(f), data);
        assert_eq!(d.peek_word(w), 9);
        assert!(d.verify_word(w));
        assert_eq!(d.guarded_intended(f.addr(0)), None);
        assert!(d.verify_at(f.addr(0)), "unguarded words always verify");
    }

    #[test]
    fn dma_store_over_a_stuck_cell_takes_the_per_word_path() {
        let mut d = continuous();
        let f = d.fram_alloc(8).unwrap();
        let s = d.sram_alloc(8).unwrap();
        let ops = d.ops_consumed();
        d.arm_faults(&FaultPlan::faults([(
            ops,
            FaultKind::StuckAt {
                addr: f.addr(5),
                bit: 0,
                high: true,
            },
        )]));
        d.consume(Op::Alu).unwrap();
        assert!(!d.span_is_plain(f.base, f.len));
        d.dma_sram_to_fram(s, f).unwrap();
        let out = d.peek(f);
        assert_eq!(out[4].raw(), SRAM_GARBAGE);
        assert_eq!(out[5].raw(), SRAM_GARBAGE | 1, "stuck bit forced");
    }

    #[test]
    fn corruption_retry_budget_is_bounded() {
        let mut d = continuous();
        let region = d.register_region("layer0");
        for _ in 0..CORRUPTION_RETRY_LIMIT {
            assert!(d.note_corruption(region), "within budget: may recover");
        }
        assert!(!d.note_corruption(region), "budget exhausted");
        assert_eq!(d.corruption_unrecoverable(), Some(region));
        assert_eq!(d.corruption_detected(), CORRUPTION_RETRY_LIMIT as u64 + 1);
        d.reset_corruption_stats();
        assert_eq!(d.corruption_detected(), 0);
        assert_eq!(d.corruption_unrecoverable(), None);
    }

    #[test]
    fn memory_fault_at_the_same_index_as_a_brownout_fires_first() {
        let mut d = continuous();
        let buf = d.fram_alloc(1).unwrap();
        let ops = d.ops_consumed();
        d.arm_faults(&FaultPlan::faults([
            (ops + 1, FaultKind::Brownout),
            (
                ops + 1,
                FaultKind::BitFlip {
                    addr: buf.addr(0),
                    bit: 2,
                },
            ),
        ]));
        d.consume(Op::Alu).unwrap();
        assert_eq!(d.consume(Op::Alu), Err(PowerFailure));
        assert_eq!(
            d.peek(buf)[0].raw(),
            1i16 << 2,
            "flip landed before the cut"
        );
        assert_eq!(d.pending_faults(), 0);
    }

    #[test]
    fn shifted_plan_rebases_indices_and_preserves_kinds() {
        let flip = FaultKind::BitFlip {
            addr: NvAddr(3),
            bit: 1,
        };
        let plan = FaultPlan::faults([(2, flip), (7, FaultKind::Brownout)]);
        let shifted = plan.shifted(100);
        assert_eq!(
            shifted.targets(),
            &[(102, flip), (107, FaultKind::Brownout)]
        );
        assert_eq!(shifted.indices().collect::<Vec<_>>(), vec![102, 107]);
    }
}
