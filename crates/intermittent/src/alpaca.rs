//! An Alpaca-style runtime: dynamic redo logging with two-phase commit.
//!
//! Alpaca \[Maeng et al., OOPSLA'17\] keeps *task-shared* data consistent
//! across power failures by privatizing writes into a redo log and
//! committing the log to the home locations atomically at task transition.
//! A task that is interrupted re-executes from its entry against the
//! unmodified home values, so write-after-read (WAR) dependences cannot
//! expose partial execution.
//!
//! The costs modelled here (and charged to the [`mcu::Device`]) follow the
//! structure of Alpaca's implementation:
//!
//! - **Reads** of task-shared data first check the log (a metadata read
//!   plus address comparisons); a hit pays an extra log-entry read.
//! - **Writes** append an entry to the non-volatile log — address word,
//!   value word, and list link — on first write, and update the entry on
//!   subsequent writes.
//! - **Commit** walks the log, reading each entry and writing its home
//!   location, guarded by a non-volatile commit flag so an interrupted
//!   commit replays idempotently after reboot.
//!
//! This is the per-access overhead that SONIC's loop continuation exists
//! to eliminate (paper §2, §6).

use crate::task::{RuntimeCtx, TaskGraph, TaskId, Transition};
use fxp::Q15;
use mcu::{AllocError, Device, FramWord, NvAddr, Op, OpBundle, Phase, PowerFailure};

/// A redo-log entry: the privatized value plus a per-entry checksum.
/// The checksum is computed when the entry is appended or updated and
/// validated by the commit walk: commit must not redo an entry whose
/// non-volatile cells decayed or were corrupted, because home locations
/// may already be partially updated and a bogus redo is a silent wrong
/// write. Computing it rides in the ALU ops the append already charges.
#[derive(Debug, Clone, Copy)]
struct LogEntry {
    v: Q15,
    ck: u16,
}

/// The per-entry checksum: an address/value mix, one word like Alpaca's
/// log metadata.
fn log_ck(addr: NvAddr, v: Q15) -> u16 {
    (addr.index() as u16).wrapping_mul(0x9E37) ^ (v.raw() as u16) ^ 0x5A5A
}

/// FRAM words per page of the log's address → slot table.
const SLOT_PAGE: usize = 512;

/// The redo log: entries in append (commit-walk) order, plus a
/// direct-indexed address → slot table. `slots` holds `k + 1` for an
/// address privatized by `entries[k]` and 0 for an unlogged one, so a
/// lookup is a table load and the commit walk a linear scan, with no
/// hashing anywhere.
///
/// The table is paged: a run maps only the pages its logged addresses
/// fall in (the activation and partial-sum planes plus a few control
/// words), instead of a zero-filled slot for every FRAM word. Clearing
/// resets just the slots the entries used, so the pages stay mapped and
/// all-empty for the next body.
#[derive(Clone, Debug, Default)]
struct RedoLog {
    entries: Vec<(NvAddr, LogEntry)>,
    slots: Vec<Option<Box<[u32; SLOT_PAGE]>>>,
}

impl RedoLog {
    /// The slot-table entry for `addr` (0 when unlogged).
    #[inline]
    fn slot(&self, addr: NvAddr) -> u32 {
        let i = addr.index() as usize;
        match self.slots.get(i / SLOT_PAGE) {
            Some(Some(page)) => page[i % SLOT_PAGE],
            _ => 0,
        }
    }

    #[inline]
    fn get(&self, addr: NvAddr) -> Option<&LogEntry> {
        match self.slot(addr) {
            0 => None,
            k => Some(&self.entries[k as usize - 1].1),
        }
    }

    #[inline]
    fn contains(&self, addr: NvAddr) -> bool {
        self.slot(addr) != 0
    }

    /// Updates the entry for `addr` in place, or appends one. Returns
    /// `true` when the entry was appended.
    #[inline]
    fn upsert(&mut self, addr: NvAddr, e: LogEntry) -> bool {
        match self.slot(addr) {
            0 => {
                self.entries.push((addr, e));
                let i = addr.index() as usize;
                if i / SLOT_PAGE >= self.slots.len() {
                    self.slots.resize_with(i / SLOT_PAGE + 1, || None);
                }
                let page =
                    self.slots[i / SLOT_PAGE].get_or_insert_with(|| Box::new([0; SLOT_PAGE]));
                page[i % SLOT_PAGE] = self.entries.len() as u32;
                true
            }
            k => {
                self.entries[k as usize - 1].1 = e;
                false
            }
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every entry, resetting only the slots they occupied.
    fn clear(&mut self) {
        for (addr, _) in self.entries.drain(..) {
            let i = addr.index() as usize;
            if let Some(Some(page)) = self.slots.get_mut(i / SLOT_PAGE) {
                page[i % SLOT_PAGE] = 0;
            }
        }
    }
}

/// FRAM words written when a log entry is created (20-bit address pair,
/// value, bucket link, dirty-list link, size tag, canonical pointer).
/// Calibrated against Alpaca's measured overhead (DESIGN.md §4).
pub const LOG_ENTRY_WORDS: u64 = 7;

/// FRAM reads per log-presence check (bucket head + probe).
pub const LOOKUP_READS: u64 = 2;
/// ALU ops per log-presence check (hashing + compares).
pub const LOOKUP_ALU: u64 = 4;

/// Per-task commit bookkeeping: Alpaca privatizes task-local scalars at
/// entry, walks its swap/dirty lists, and performs a two-phase update of
/// the NV task pointer at every transition. These constants are the
/// calibration knob that reproduces the paper's measured tiled-Alpaca
/// overhead (Tile-8 ≈ 13.4× the naïve baseline); see EXPERIMENTS.md.
pub const COMMIT_FIXED_ALU: u64 = 1500;
/// Fixed FRAM writes per commit (scalar privatization + list resets).
pub const COMMIT_FIXED_WRITES: u64 = 40;
/// Fixed FRAM reads per commit.
pub const COMMIT_FIXED_READS: u64 = 30;

/// The Alpaca-style runtime context: redo log plus commit protocol.
///
/// The log's *contents* are non-volatile (they survive power failures, as
/// they must for commit replay); whether they are *valid* is governed by
/// the commit flag, exactly as in Alpaca's two-phase commit.
#[derive(Clone, Debug)]
pub struct AlpacaRt {
    log: RedoLog,
    commit_flag: FramWord,
    committing: bool,
    /// `true` when the most recent `after_commit` flag-lower store was
    /// swallowed by a brown-out, leaving the flag stale-high. Real
    /// Alpaca charges the lower on the next task's budget; this records
    /// the window so the crash-consistency spec can tell the benign
    /// stale flag from a genuinely unsafe raised-while-idle flag.
    flag_lower_pending: bool,
    /// Scratch op tape reused across task bodies (capacity persists).
    tape: OpBundle,
    /// Per-log-entry commit-walk bundles, one per accounting phase the
    /// commit may run under (built once; commits happen every task
    /// transition).
    commit_entry: [OpBundle; 2],
}

/// The op sequence of committing one log entry: entry read (address +
/// value), home write, list-cursor updates.
fn commit_entry_bundle(phase: Phase) -> OpBundle {
    let mut b = OpBundle::new();
    b.push_n(Op::FramRead, phase, 2);
    b.push(Op::FramWrite, phase);
    b.push_n(Op::Incr, phase, 2);
    b
}

impl AlpacaRt {
    /// Creates the runtime, allocating its commit flag in FRAM.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if FRAM is exhausted.
    pub fn new(dev: &mut Device) -> Result<Self, AllocError> {
        let commit_flag = dev.fram_alloc_word()?;
        // The flag gates commit replay across reboots; register it under
        // the ECC guard so a decayed/flipped flag is detected at the next
        // commit rather than trusted.
        dev.guard_word(commit_flag);
        Ok(AlpacaRt {
            log: RedoLog::default(),
            commit_flag,
            committing: false,
            flag_lower_pending: false,
            tape: OpBundle::counting(),
            commit_entry: [
                commit_entry_bundle(Phase::Kernel),
                commit_entry_bundle(Phase::Control),
            ],
        })
    }

    /// Number of live log entries (distinct privatized words).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    // ----- crash-consistency spec probes -------------------------------
    //
    // Read-only views of the two-phase-commit machinery, for the
    // crash-consistency harness's abstraction function (`core::spec`):
    // the abstract Alpaca machine is (phase, pending log), and these
    // expose exactly the concrete state it is abstracted from.

    /// The non-volatile commit flag's word: `1` while a commit walk may
    /// have partially updated home locations (the log must be preserved
    /// and replayed), `0` otherwise.
    pub fn commit_flag_word(&self) -> FramWord {
        self.commit_flag
    }

    /// `true` between the first commit attempt of a transition and its
    /// `after_commit` — the window where a power failure must preserve
    /// the redo log for replay.
    pub fn is_committing(&self) -> bool {
        self.committing
    }

    /// `true` while the commit flag is stale-high: the last transition's
    /// flag-lower store was swallowed by a brown-out after every home
    /// location was already written. The flag stays raised until the
    /// next successful lower, and any log entries accumulated meanwhile
    /// belong to an uncommitted body that a reboot discards.
    pub fn flag_lower_pending(&self) -> bool {
        self.flag_lower_pending
    }

    /// The pending redo-log entries in append (commit-walk) order.
    pub fn log_entries(&self) -> impl Iterator<Item = (NvAddr, Q15)> + '_ {
        self.log.entries.iter().map(|(a, e)| (*a, e.v))
    }

    /// Fault-injection hook: corrupts the stored checksum of the `k`-th
    /// (append-order) log entry, as a decayed non-volatile log cell
    /// would. Returns `false` if the log has no such entry.
    pub fn poison_log_entry(&mut self, k: usize) -> bool {
        match self.log.entries.get_mut(k) {
            Some((_, e)) => {
                e.ck ^= 1;
                true
            }
            None => false,
        }
    }

    /// A commit-walk checksum mismatch: the redo log itself is corrupt.
    /// There is no durable value to fall back on — home locations may
    /// already be partially updated — so spend the remaining retry
    /// budget and fail, surfacing as unrecoverable corruption instead
    /// of replaying a poisoned commit forever.
    fn log_corrupt(dev: &mut Device) -> Result<(), PowerFailure> {
        let region = dev.context().0;
        while dev.note_corruption(region) {}
        Err(PowerFailure)
    }

    // ----- taped access (bundled accounting) ---------------------------
    //
    // An Alpaca task body has NO durable side effects before commit: its
    // writes privatize into the (host-side) redo log, which a body-time
    // power failure discards anyway. That makes the body eligible for op
    // *taping*: it executes host-side, tallying the ops it would have
    // consumed, and settles the tape in one arithmetic step at the end
    // (see [`AlpacaRt::run_taped`]) — re-running with the ordered
    // sequence recorded, for an op-by-op replay, only when the buffer
    // cannot cover it, so a brown-out charges exactly the scalar prefix.
    // Taped methods record at the kernel phase, matching the tiled
    // kernels that use them.

    fn tape_lookup(tape: &mut OpBundle) {
        tape.push_n(Op::FramRead, Phase::Kernel, LOOKUP_READS);
        tape.push_n(Op::Alu, Phase::Kernel, LOOKUP_ALU);
    }

    /// Taped [`AlpacaRt::ts_read`]: records the ops, returns the value.
    pub fn ts_read_taped(&mut self, dev: &Device, tape: &mut OpBundle, addr: NvAddr) -> Q15 {
        Self::tape_lookup(tape);
        // Hit pays a log-entry read, miss the home read: one FramRead
        // either way.
        tape.push(Op::FramRead, Phase::Kernel);
        match self.log.get(addr) {
            Some(e) => e.v,
            None => dev.peek_at(addr),
        }
    }

    /// Taped [`AlpacaRt::ts_write`]: records the ops, privatizes eagerly
    /// (a failed settle discards the log on restart, like the scalar
    /// path).
    pub fn ts_write_taped(&mut self, tape: &mut OpBundle, addr: NvAddr, v: Q15) {
        Self::tape_lookup(tape);
        let le = LogEntry {
            v,
            ck: log_ck(addr, v),
        };
        if self.log.upsert(addr, le) {
            tape.push_n(Op::FramWrite, Phase::Kernel, LOG_ENTRY_WORDS);
            tape.push_n(Op::Alu, Phase::Kernel, LOOKUP_ALU);
        } else {
            tape.push_n(Op::FramWrite, Phase::Kernel, 2); // value + dirty flag
            tape.push(Op::Alu, Phase::Kernel);
        }
    }

    /// Taped [`AlpacaRt::ts_load_word`], with the ECC read check the
    /// scalar path performs in [`AlpacaRt::ts_read`]: control words
    /// (loop indices, stage tags) load through here, and a corrupted
    /// home word must be caught before its value steers a task. The
    /// check itself is free — the controller verifies check bits inside
    /// the read already on the tape — while a scrub write is real,
    /// metered work (recorded on the tape, landed eagerly like the
    /// log: it restores the last durable value, so a failed settle
    /// re-executes the body against an identical home).
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] when corruption is detected and the
    /// device's retry budget is exhausted.
    pub fn ts_load_word_taped(
        &mut self,
        dev: &mut Device,
        tape: &mut OpBundle,
        addr: NvAddr,
    ) -> Result<u16, PowerFailure> {
        Self::tape_lookup(tape);
        tape.push(Op::FramRead, Phase::Kernel);
        if let Some(e) = self.log.get(addr) {
            return Ok(e.v.raw() as u16);
        }
        let v = dev.peek_at(addr);
        if dev.verify_at(addr) {
            return Ok(v.raw() as u16);
        }
        // Only injected faults diverge a word from its guard, and a
        // device that has seen a fault plan tapes sequenced from the
        // start: the scrub below is never re-run by `run_taped`.
        debug_assert!(tape.is_sequenced(), "scrub on a counting tape");
        let region = dev.context().0;
        if !dev.note_corruption(region) {
            return Err(PowerFailure);
        }
        let fixed = dev
            .guarded_intended(addr)
            .expect("a flagged word is guarded");
        tape.push(Op::FramWrite, Phase::Kernel);
        dev.prepaid_write_at(addr, Q15::from_raw(fixed as i16));
        Ok(fixed)
    }

    /// Taped [`AlpacaRt::ts_store_word`].
    pub fn ts_store_word_taped(&mut self, tape: &mut OpBundle, addr: NvAddr, v: u16) {
        self.ts_write_taped(tape, addr, Q15::from_raw(v as i16));
    }

    /// Runs a task body that records its ops with the `*_taped`
    /// accessors, then settles the tape, returning the body's result.
    ///
    /// Count-first: the body first runs against a counting tape
    /// ([`OpBundle::counting`]), and a funded settle charges the
    /// aggregate counts in one step. Only when the settle falls short is
    /// the ordered sequence needed: the body's log entries are dropped
    /// and the body re-runs against the identical home values with a
    /// sequenced tape, which [`Device::consume_tape`] replays op by op so
    /// the brown-out lands on exactly the op the scalar path dies on.
    ///
    /// The body is sequenced from the start when the log was not empty
    /// on entry (dropping it would not restore that state), or when the
    /// device has ever had a fault plan armed: a guard scrub is a device
    /// side effect a re-run would not repeat.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] when the settle browns out, or the body's
    /// own failure.
    pub fn run_taped<T>(
        &mut self,
        dev: &mut Device,
        mut body: impl FnMut(&mut Device, &mut Self, &mut OpBundle) -> Result<T, PowerFailure>,
    ) -> Result<T, PowerFailure> {
        let mut tape = std::mem::take(&mut self.tape);
        tape.reset(dev.faults_ever_armed() || !self.log.is_empty());
        let mut out = body(dev, self, &mut tape);
        let settled = if tape.is_sequenced() {
            dev.consume_tape(&tape)
        } else {
            match dev.consume_bundle(&tape, 1) {
                Ok(0) => {
                    self.log.clear();
                    tape.reset(true);
                    out = body(dev, self, &mut tape);
                    dev.consume_tape(&tape)
                }
                r => r.map(|_| ()),
            }
        };
        self.tape = tape;
        settled?;
        out
    }

    fn charge_lookup(&self, dev: &mut Device) -> Result<(), PowerFailure> {
        // Log-presence check: bucket reads plus hashing/compares.
        dev.consume_n(Op::FramRead, LOOKUP_READS)?;
        dev.consume_n(Op::Alu, LOOKUP_ALU)
    }

    /// Reads a task-shared word: log hit returns the privatized value,
    /// miss falls through to the home location. A home read of a
    /// guarded word is ECC-checked: divergence is scrubbed back to the
    /// intended value (a metered write) under the device's bounded
    /// corruption-retry budget.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out, or when corruption is
    /// detected and the retry budget is exhausted.
    pub fn ts_read(&mut self, dev: &mut Device, addr: NvAddr) -> Result<Q15, PowerFailure> {
        self.charge_lookup(dev)?;
        if let Some(&e) = self.log.get(addr) {
            dev.consume(Op::FramRead)?; // the log entry itself
            return Ok(e.v);
        }
        let v = dev.read_at(addr)?;
        if dev.verify_at(addr) {
            return Ok(v);
        }
        let region = dev.context().0;
        if !dev.note_corruption(region) {
            return Err(PowerFailure);
        }
        let fixed = Q15::from_raw(
            dev.guarded_intended(addr)
                .expect("a flagged word is guarded") as i16,
        );
        dev.write_at(addr, fixed)?;
        Ok(fixed)
    }

    /// Writes a task-shared word into the redo log (privatization). The
    /// home location is untouched until commit.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out; on failure partway through
    /// the append the entry is not recorded (the log is discarded on
    /// restart anyway).
    pub fn ts_write(&mut self, dev: &mut Device, addr: NvAddr, v: Q15) -> Result<(), PowerFailure> {
        self.charge_lookup(dev)?;
        if self.log.contains(addr) {
            dev.consume_n(Op::FramWrite, 2)?; // value + dirty flag
            dev.consume(Op::Alu)?;
        } else {
            dev.consume_n(Op::FramWrite, LOG_ENTRY_WORDS)?;
            dev.consume_n(Op::Alu, LOOKUP_ALU)?;
        }
        self.log.upsert(
            addr,
            LogEntry {
                v,
                ck: log_ck(addr, v),
            },
        );
        Ok(())
    }

    /// Reads a task-shared 16-bit counter.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    pub fn ts_load_word(&mut self, dev: &mut Device, addr: NvAddr) -> Result<u16, PowerFailure> {
        Ok(self.ts_read(dev, addr)?.raw() as u16)
    }

    /// Writes a task-shared 16-bit counter into the redo log.
    ///
    /// # Errors
    ///
    /// Returns [`PowerFailure`] on brown-out.
    pub fn ts_store_word(
        &mut self,
        dev: &mut Device,
        addr: NvAddr,
        v: u16,
    ) -> Result<(), PowerFailure> {
        self.ts_write(dev, addr, Q15::from_raw(v as i16))
    }
}

impl RuntimeCtx for AlpacaRt {
    fn commit(&mut self, dev: &mut Device) -> Result<(), PowerFailure> {
        if self.log.is_empty() {
            return Ok(());
        }
        if !self.committing {
            self.committing = true;
        }
        // ECC check of the commit flag before reuse: a flipped flag is
        // detected here (free — rides in the raise that follows, which
        // also scrubs it) and counted against the retry budget.
        if !dev.verify_word(self.commit_flag) && !dev.note_corruption(dev.context().0) {
            return Err(PowerFailure);
        }
        // Commit-flag raise (idempotent on replay: same write again).
        dev.store_word(self.commit_flag, 1)?;
        // Fixed task-epilogue bookkeeping (see the constants above).
        dev.consume_n(Op::Alu, COMMIT_FIXED_ALU)?;
        dev.consume_n(Op::FramWrite, COMMIT_FIXED_WRITES)?;
        dev.consume_n(Op::FramRead, COMMIT_FIXED_READS)?;
        // Walk the log in append order; replay after a failure re-walks the
        // whole list, which is idempotent because entries hold absolute
        // values. The walk is uniform per entry — entry read (address +
        // value), home write, cursor updates — so it charges per entry
        // via a bundle; the first unfunded entry replays scalar-wise so a
        // mid-commit brown-out leaves exactly the scalar path's partial
        // home writes.
        let entry = match dev.context().1 {
            Phase::Kernel => &self.commit_entry[0],
            Phase::Control => &self.commit_entry[1],
        };
        let total = self.log.len();
        let mut i = 0usize;
        while i < total {
            let funded = dev.consume_bundle(entry, (total - i) as u64)? as usize;
            for &(addr, e) in &self.log.entries[i..i + funded] {
                // Checksum validation rides in the entry read the
                // bundle charged; a mismatch means the log cells
                // decayed and the redo value cannot be trusted.
                if e.ck != log_ck(addr, e.v) {
                    return Self::log_corrupt(dev);
                }
                dev.prepaid_write_at(addr, e.v);
            }
            i += funded;
            if i < total {
                let (addr, e) = self.log.entries[i];
                dev.consume_n(Op::FramRead, 2)?; // read entry (address + value)
                if e.ck != log_ck(addr, e.v) {
                    return Self::log_corrupt(dev);
                }
                dev.write_at(addr, e.v)?; // write home location
                dev.consume_n(Op::Incr, 2)?; // list cursor + canonical update
                i += 1;
            }
        }
        Ok(())
    }

    fn after_commit(&mut self, dev: &mut Device) {
        // Lower the commit flag; the log becomes dead storage. The flag
        // write is charged on the next task's budget in real Alpaca; here
        // it is charged immediately, and a brown-out that swallows it
        // leaves the flag stale-high (every home is already written, so
        // recovery is unaffected) — recorded so the crash-consistency
        // spec can scope its raised-while-idle exception to exactly this
        // window.
        // The flag is high entering this call iff a non-empty commit
        // just raised it (`committing`) or it is stale-high from an
        // earlier swallowed lower; a failed store on an already-low flag
        // (empty commit) leaves nothing pending.
        let was_high = self.committing || self.flag_lower_pending;
        self.flag_lower_pending = dev.store_word(self.commit_flag, 0).is_err() && was_high;
        self.log.clear();
        self.committing = false;
    }

    fn on_power_failure(&mut self, _dev: &mut Device, mid_commit: bool) {
        if mid_commit {
            // Keep the log: the scheduler will replay commit.
            debug_assert!(self.committing);
        } else {
            // Discard privatized state; the task body re-executes against
            // the home values.
            self.log.clear();
            self.committing = false;
        }
    }
}

/// Builds a task-tiled loop in the style of the paper's `Tile-N`
/// implementations (Fig. 6): each task execution runs up to `tile`
/// iterations, keeps the loop index as WAR-protected task-shared state,
/// and self-transitions until `total` iterations have run, then resets the
/// index and takes `next`.
///
/// Returns the id of the loop task.
///
/// # Panics
///
/// Panics if `total` exceeds `u16::MAX` (the index is one FRAM word; the
/// DNN kernels nest loops so each level stays within this) or `tile` is 0.
pub fn add_tiled_loop<F>(
    graph: &mut TaskGraph<AlpacaRt>,
    name: &str,
    index: NvAddr,
    total: u32,
    tile: u32,
    next: Transition,
    mut body: F,
) -> TaskId
where
    F: FnMut(&mut Device, &mut AlpacaRt, u32) -> Result<(), PowerFailure> + 'static,
{
    assert!(
        total <= u16::MAX as u32,
        "tiled loop too long for u16 index"
    );
    assert!(tile > 0, "tile must be positive");
    let self_id = graph.next_id();
    graph.add(name, move |dev, rt| {
        let base = rt.ts_load_word(dev, index)? as u32;
        dev.consume(Op::Branch)?;
        if base >= total {
            // Reset for the next invocation of the whole loop.
            rt.ts_store_word(dev, index, 0)?;
            return Ok(next);
        }
        let end = (base + tile).min(total);
        for i in base..end {
            body(dev, rt, i)?;
            dev.consume(Op::Incr)?;
            dev.consume(Op::Branch)?;
        }
        rt.ts_store_word(dev, index, end as u16)?;
        Ok(Transition::To(self_id))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{run, run_observed, SchedulerConfig};
    use mcu::{DeviceSpec, PowerSystem};

    fn continuous_dev() -> Device {
        Device::new(DeviceSpec::tiny(), PowerSystem::continuous())
    }

    #[test]
    fn reads_fall_through_to_home() {
        let mut dev = continuous_dev();
        let w = dev.fram_alloc_word().unwrap();
        dev.store_word(w, 42).unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        assert_eq!(rt.ts_load_word(&mut dev, w.addr()).unwrap(), 42);
    }

    #[test]
    fn writes_are_privatized_until_commit() {
        let mut dev = continuous_dev();
        let w = dev.fram_alloc_word().unwrap();
        dev.store_word(w, 1).unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        rt.ts_store_word(&mut dev, w.addr(), 99).unwrap();
        // Home unchanged; read-own-write sees the new value.
        assert_eq!(dev.peek_word(w), 1);
        assert_eq!(rt.ts_load_word(&mut dev, w.addr()).unwrap(), 99);
        assert_eq!(rt.log_len(), 1);
        // Commit lands it.
        rt.commit(&mut dev).unwrap();
        rt.after_commit(&mut dev);
        assert_eq!(dev.peek_word(w), 99);
        assert_eq!(rt.log_len(), 0);
    }

    #[test]
    fn commit_is_idempotent() {
        let mut dev = continuous_dev();
        let w = dev.fram_alloc_word().unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        rt.ts_store_word(&mut dev, w.addr(), 7).unwrap();
        rt.commit(&mut dev).unwrap();
        rt.commit(&mut dev).unwrap(); // replay, as after a mid-commit failure
        rt.after_commit(&mut dev);
        assert_eq!(dev.peek_word(w), 7);
    }

    #[test]
    fn power_failure_discards_uncommitted_writes() {
        let mut dev = continuous_dev();
        let w = dev.fram_alloc_word().unwrap();
        dev.store_word(w, 5).unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        rt.ts_store_word(&mut dev, w.addr(), 50).unwrap();
        rt.on_power_failure(&mut dev, false);
        assert_eq!(rt.log_len(), 0);
        // Re-executed read sees the home value again.
        assert_eq!(rt.ts_load_word(&mut dev, w.addr()).unwrap(), 5);
        rt.commit(&mut dev).unwrap();
        assert_eq!(dev.peek_word(w), 5);
    }

    #[test]
    fn first_write_costs_a_full_log_entry() {
        let mut dev = continuous_dev();
        let w = dev.fram_alloc_word().unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        let before = dev.trace().op_count(Op::FramWrite);
        rt.ts_store_word(&mut dev, w.addr(), 1).unwrap();
        let first = dev.trace().op_count(Op::FramWrite) - before;
        assert_eq!(first, LOG_ENTRY_WORDS);
        let before = dev.trace().op_count(Op::FramWrite);
        rt.ts_store_word(&mut dev, w.addr(), 2).unwrap();
        let second = dev.trace().op_count(Op::FramWrite) - before;
        assert_eq!(second, 2, "updates touch the value and dirty words");
    }

    #[test]
    fn upserts_keep_append_order() {
        let mut dev = continuous_dev();
        let words = dev.fram_alloc(3).unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        for (k, v) in [(2u32, 20u16), (0, 1), (1, 10), (0, 2)] {
            rt.ts_store_word(&mut dev, words.addr(k), v).unwrap();
        }
        let raw = |v: i16| Q15::from_raw(v);
        assert_eq!(rt.log_len(), 3, "a rewrite updates its entry in place");
        assert_eq!(
            rt.log_entries().collect::<Vec<_>>(),
            vec![
                (words.addr(2), raw(20)),
                (words.addr(0), raw(2)),
                (words.addr(1), raw(10)),
            ]
        );
    }

    #[test]
    fn cleared_log_leaves_no_stale_slot() {
        // Addresses on different slot-table pages.
        let mut dev = continuous_dev();
        let lo = dev.fram_alloc_word().unwrap();
        dev.fram_alloc(2 * SLOT_PAGE as u32).unwrap();
        let hi = dev.fram_alloc_word().unwrap();
        dev.store_word(hi, 5).unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        rt.ts_store_word(&mut dev, lo.addr(), 1).unwrap();
        rt.ts_store_word(&mut dev, hi.addr(), 50).unwrap();
        // The body dies: its entries go, and the next body must see the
        // home values and pay full appends again.
        rt.on_power_failure(&mut dev, false);
        assert_eq!(rt.log_len(), 0);
        assert_eq!(rt.ts_load_word(&mut dev, hi.addr()).unwrap(), 5);
        let before = dev.trace().op_count(Op::FramWrite);
        rt.ts_store_word(&mut dev, hi.addr(), 51).unwrap();
        assert_eq!(
            dev.trace().op_count(Op::FramWrite) - before,
            LOG_ENTRY_WORDS,
            "a first write after clearing appends a fresh entry"
        );
        assert_eq!(
            rt.log_entries().collect::<Vec<_>>(),
            vec![(hi.addr(), Q15::from_raw(51))]
        );
        // A commit clears the log the same way.
        rt.commit(&mut dev).unwrap();
        rt.after_commit(&mut dev);
        assert_eq!(rt.log_len(), 0);
        rt.ts_store_word(&mut dev, lo.addr(), 7).unwrap();
        assert_eq!(
            rt.log_entries().collect::<Vec<_>>(),
            vec![(lo.addr(), Q15::from_raw(7))]
        );
    }

    #[test]
    fn poison_addresses_the_kth_appended_entry() {
        let mut dev = continuous_dev();
        let words = dev.fram_alloc(3).unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        // Append order 2, 0, 1 (address order differs).
        for k in [2u32, 0, 1] {
            rt.ts_store_word(&mut dev, words.addr(k), 100 + k as u16)
                .unwrap();
        }
        assert!(!rt.poison_log_entry(3), "no fourth entry");
        assert!(rt.poison_log_entry(1));
        assert!(rt.commit(&mut dev).is_err());
        // The walk redid entry 0 (word 2), then stopped at entry 1
        // (word 0) before its home write.
        assert_eq!(dev.peek_at(words.addr(2)).raw(), 102);
        assert_eq!(dev.peek_at(words.addr(0)).raw(), 0);
        assert_eq!(dev.peek_at(words.addr(1)).raw(), 0);
    }

    #[test]
    fn tiled_loop_runs_all_iterations_in_order() {
        let mut dev = continuous_dev();
        let idx = dev.fram_alloc_word().unwrap();
        let hits = dev.fram_alloc(23).unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        let mut g = TaskGraph::new();
        add_tiled_loop(
            &mut g,
            "loop",
            idx.addr(),
            23,
            5,
            Transition::Done,
            move |dev, rt, i| rt.ts_write(dev, hits.addr(i), Q15::HALF),
        );
        let stats = run(&mut g, &mut rt, &mut dev, 0, &SchedulerConfig::task_based()).unwrap();
        assert_eq!(dev.peek(hits), vec![Q15::HALF; 23]);
        assert_eq!(dev.peek_word(idx), 0, "index reset for next invocation");
        // ceil(23/5) = 5 working tasks + 1 exit task.
        assert_eq!(stats.transitions, 6);
    }

    #[test]
    fn tiled_loop_survives_intermittent_power() {
        let mut dev = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let idx = dev.fram_alloc_word().unwrap();
        let acc = dev.fram_alloc_word().unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        let mut g = TaskGraph::new();
        // Each iteration burns ~1.6 µJ (vs a ~12 µJ buffer) and increments
        // a WAR-protected accumulator: the classic intermittence test.
        add_tiled_loop(
            &mut g,
            "war-loop",
            idx.addr(),
            50,
            5,
            Transition::Done,
            move |dev, rt, _i| {
                let v = rt.ts_load_word(dev, acc.addr())?;
                dev.consume_n(Op::FxpMul, 600)?;
                rt.ts_store_word(dev, acc.addr(), v + 1)
            },
        );
        let stats = run(&mut g, &mut rt, &mut dev, 0, &SchedulerConfig::task_based()).unwrap();
        assert!(stats.reboots > 0, "test requires actual power failures");
        assert_eq!(
            dev.peek_word(acc),
            50,
            "WAR protection must yield exactly-once"
        );
        assert_eq!(dev.peek_word(idx), 0);
    }

    #[test]
    fn commit_walk_survives_a_brownout_between_any_two_home_writes() {
        // Exhaustive mid-commit-walk injection: a task privatizes several
        // words, then a fault is forced at every op boundary of the
        // commit + transition sequence in turn — including between
        // log-entry home writes. After recovery the homes must hold
        // exactly the logged values (redo idempotence) and the commit
        // flag must be lowered. The fault-free run bounds the boundary
        // range to sweep.
        let run_once = |fault: Option<u64>| -> (Device, Vec<u16>, u16, bool) {
            let mut dev = continuous_dev();
            let words = dev.fram_alloc(6).unwrap();
            let mut rt = AlpacaRt::new(&mut dev).unwrap();
            let mut g = TaskGraph::new();
            g.add("privatize", move |dev, rt: &mut AlpacaRt| {
                for k in 0..6u32 {
                    rt.ts_store_word(dev, words.addr(k), 100 + k as u16)?;
                }
                Ok(Transition::Done)
            });
            if let Some(f) = fault {
                dev.arm_faults(&mcu::FaultPlan::at(f));
            }
            let mut saw_mid_commit_flag_up = false;
            run_observed(
                &mut g,
                &mut rt,
                &mut dev,
                0,
                &SchedulerConfig::task_based(),
                |dev, rt: &AlpacaRt, ev| {
                    if ev.mid_commit {
                        assert!(rt.is_committing(), "log must be kept for replay");
                        if dev.peek_word(rt.commit_flag_word()) == 1 {
                            saw_mid_commit_flag_up = true;
                        }
                    }
                },
            )
            .unwrap();
            let flag = dev.peek_word(rt.commit_flag_word());
            let homes: Vec<u16> = (0..6).map(|k| dev.peek(words)[k].raw() as u16).collect();
            (dev, homes, flag, saw_mid_commit_flag_up)
        };

        let (clean_dev, clean_homes, clean_flag, _) = run_once(None);
        assert_eq!(clean_homes, vec![100, 101, 102, 103, 104, 105]);
        assert_eq!(clean_flag, 0);

        let mut mid_commit_crashes = 0u64;
        for boundary in 0..clean_dev.ops_consumed() {
            let (dev, homes, flag, mid_flag_up) = run_once(Some(boundary));
            assert_eq!(
                homes, clean_homes,
                "boundary {boundary}: recovery must redo every home write"
            );
            // The very last charged op of the run is `after_commit`'s
            // flag-lowering write, whose failure the model deliberately
            // swallows (see `after_commit`): a fault there leaves the
            // flag raised — harmless, since the walk already landed every
            // home value — and every earlier boundary must lower it.
            if flag != 0 {
                assert!(
                    boundary == clean_dev.ops_consumed() - 1 && !dev.is_on(),
                    "boundary {boundary}: commit flag raised outside the \
                     final swallowed flag-lower write"
                );
            }
            assert_eq!(dev.pending_faults(), 0, "boundary {boundary}: fired");
            if mid_flag_up {
                mid_commit_crashes += 1;
            }
        }
        assert!(
            mid_commit_crashes > LOG_ENTRY_WORDS,
            "the sweep must have crashed inside the raised-flag commit \
             window many times (got {mid_commit_crashes})"
        );
    }

    #[test]
    fn poisoned_log_entry_fails_commit_as_unrecoverable() {
        // A decayed log cell must not be redone into a home location:
        // the walk detects the checksum mismatch, burns the bounded
        // retry budget, and fails — never a silent wrong home write.
        let mut dev = continuous_dev();
        let words = dev.fram_alloc(3).unwrap();
        dev.write_at(words.addr(1), Q15::from_raw(7)).unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        for k in 0..3u32 {
            rt.ts_store_word(&mut dev, words.addr(k), 200 + k as u16)
                .unwrap();
        }
        assert!(rt.poison_log_entry(1));
        assert!(rt.commit(&mut dev).is_err());
        assert!(
            dev.corruption_unrecoverable().is_some(),
            "log corruption has no durable fallback"
        );
        assert!(dev.corruption_detected() >= 1);
        assert_ne!(
            dev.peek_at(words.addr(1)).raw(),
            201,
            "the poisoned entry's redo must not land"
        );
    }

    #[test]
    fn flipped_commit_flag_is_detected_and_scrubbed() {
        let mut dev = continuous_dev();
        let w = dev.fram_alloc_word().unwrap();
        let mut rt = AlpacaRt::new(&mut dev).unwrap();
        // Flip the idle (low) flag high at the next op boundary — the
        // raised-while-idle state the crash-consistency spec forbids.
        let flag = rt.commit_flag_word();
        dev.arm_faults(&mcu::FaultPlan::faults([(
            dev.ops_consumed(),
            mcu::FaultKind::BitFlip {
                addr: flag.addr(),
                bit: 0,
            },
        )]));
        rt.ts_store_word(&mut dev, w.addr(), 9).unwrap();
        assert_eq!(dev.peek_word(flag), 1, "fault must have fired");
        rt.commit(&mut dev).unwrap();
        rt.after_commit(&mut dev);
        assert_eq!(dev.corruption_detected(), 1, "flip seen at commit");
        assert!(dev.corruption_unrecoverable().is_none());
        assert_eq!(dev.peek_word(flag), 0, "flag lowered after commit");
        assert_eq!(dev.peek_word(w), 9);
    }

    #[test]
    fn unprotected_war_loop_is_incorrect_under_intermittence() {
        // The same loop with DIRECT non-volatile writes (no redo log): a
        // power failure between the accumulator update and the index update
        // replays iterations, double-counting work. This is "the WAR
        // problem" the paper describes in §2.
        let mut dev = Device::new(DeviceSpec::tiny(), PowerSystem::cap_100uf());
        let idx = dev.fram_alloc_word().unwrap();
        let acc = dev.fram_alloc_word().unwrap();
        let mut g: TaskGraph<()> = TaskGraph::new();
        let self_id = g.next_id();
        g.add("unsafe-loop", move |dev, _| {
            let i = dev.load_word(idx)?;
            dev.consume(Op::Branch)?;
            if i >= 50 {
                return Ok(Transition::Done);
            }
            let v = dev.load_word(acc)?;
            dev.store_word(acc, v + 1)?; // effect lands...
            dev.consume_n(Op::FxpMul, 600)?; // ...then a long window...
            dev.store_word(idx, i + 1)?; // ...before progress is recorded
            dev.mark_progress();
            Ok(Transition::To(self_id))
        });
        let stats = run(&mut g, &mut (), &mut dev, 0, &SchedulerConfig::task_based()).unwrap();
        assert!(stats.reboots > 0, "test requires actual power failures");
        assert!(
            dev.peek_word(acc) > 50,
            "unprotected WAR state must double-count; got {}",
            dev.peek_word(acc)
        );
    }
}
