//! Hashed timer wheel for freshness-point expirations.
//!
//! Every NFD-E instance needs a timer at its next freshness point `τᵢ`
//! (§6.3): if no fresh heartbeat arrives by then, the peer must be
//! suspected. One timer thread per peer is O(N) threads; a timer wheel
//! makes it O(1): deadlines are bucketed into `slots` coarse buckets of
//! `tick` seconds each (hashing the deadline's tick number modulo the
//! slot count), and a single ticker sweeps the buckets in time order.
//!
//! The wheel does **lazy cancellation**: entries are never removed when a
//! peer's deadline moves or the peer leaves — instead each entry carries
//! the peer's registration `gen`eration, and the caller discards expired
//! entries whose generation no longer matches the registry. This keeps
//! `schedule` O(1) with no search.
//!
//! Granularity: an entry fires at the first sweep whose `now` reaches its
//! `due`, so expiry detection lags a true deadline by at most one `tick`
//! plus the ticker's scheduling jitter — the wheel's contribution to the
//! detection-time bound `T_D`.

use crate::PeerId;

/// A scheduled freshness-point expiration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimerEntry {
    /// Absolute due time, seconds on the cluster clock.
    pub due: f64,
    /// The peer whose freshness point this is.
    pub peer: PeerId,
    /// Registration generation at scheduling time; stale generations are
    /// discarded by the caller (lazy cancellation).
    pub gen: u64,
}

/// A hashed timer wheel: `slots` buckets of `tick` seconds each.
#[derive(Debug)]
pub struct TimerWheel {
    slots: Vec<Vec<TimerEntry>>,
    tick: f64,
    /// Absolute tick number the wheel has swept through (inclusive).
    cursor_tick: u64,
    len: usize,
}

impl TimerWheel {
    /// Creates a wheel with `slots` buckets of `tick` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` or `tick` is not finite and positive.
    pub fn new(slots: usize, tick: f64) -> Self {
        assert!(slots > 0, "wheel needs at least one slot");
        assert!(
            tick.is_finite() && tick > 0.0,
            "tick must be finite and positive, got {tick}"
        );
        Self {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            tick,
            cursor_tick: 0,
            len: 0,
        }
    }

    /// Bucket resolution, seconds.
    pub fn tick(&self) -> f64 {
        self.tick
    }

    /// Entries currently scheduled (including lazily-cancelled ones that
    /// have not yet been swept).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn tick_no(&self, t: f64) -> u64 {
        (t.max(0.0) / self.tick) as u64
    }

    /// Schedules an expiration at absolute time `due`. A `due` already in
    /// the past is clamped to the current cursor so it fires on the next
    /// sweep rather than waiting a full rotation.
    pub fn schedule(&mut self, due: f64, peer: PeerId, gen: u64) {
        let tn = self.tick_no(due).max(self.cursor_tick);
        let idx = (tn % self.slots.len() as u64) as usize;
        self.slots[idx].push(TimerEntry { due, peer, gen });
        self.len += 1;
    }

    /// Sweeps the wheel up to `now`, moving every entry with `due ≤ now`
    /// into `expired` (in no particular order). Work is bounded by one
    /// full rotation: a `now` that jumps many rotations ahead visits each
    /// bucket once, not once per skipped rotation. `now` earlier than the
    /// previous sweep is a no-op (local time is monotone).
    pub fn advance(&mut self, now: f64, expired: &mut Vec<TimerEntry>) {
        let target = self.tick_no(now);
        if target < self.cursor_tick {
            return;
        }
        let n = self.slots.len() as u64;
        // Visit buckets cursor..=target, capped at one full rotation: past
        // that, every bucket has been seen and rescanning finds nothing new.
        let steps = (target - self.cursor_tick).min(n);
        for i in 0..=steps {
            let slot = &mut self.slots[((self.cursor_tick + i) % n) as usize];
            let mut j = 0;
            while j < slot.len() {
                if slot[j].due <= now {
                    expired.push(slot.swap_remove(j));
                    self.len -= 1;
                } else {
                    j += 1;
                }
            }
        }
        self.cursor_tick = target;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel, now: f64) -> Vec<TimerEntry> {
        let mut out = Vec::new();
        w.advance(now, &mut out);
        out
    }

    #[test]
    fn fires_in_time_order_across_sweeps() {
        let mut w = TimerWheel::new(8, 0.01);
        w.schedule(0.035, 1, 0);
        w.schedule(0.015, 2, 0);
        w.schedule(0.095, 3, 0);
        assert_eq!(w.len(), 3);

        let fired = drain(&mut w, 0.02);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].peer, 2);

        let fired = drain(&mut w, 0.04);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].peer, 1);

        // 0.095 shares a bucket rotation with earlier ticks but must not
        // fire early.
        assert!(drain(&mut w, 0.08).is_empty());
        let fired = drain(&mut w, 0.1);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].peer, 3);
        assert!(w.is_empty());
    }

    #[test]
    fn past_due_fires_on_next_sweep() {
        let mut w = TimerWheel::new(16, 0.01);
        assert!(drain(&mut w, 1.0).is_empty());
        // Deadline already in the past: clamps to the cursor, fires at the
        // very next sweep instead of waiting a rotation.
        w.schedule(0.5, 7, 3);
        let fired = drain(&mut w, 1.0);
        assert_eq!(fired, vec![TimerEntry { due: 0.5, peer: 7, gen: 3 }]);
    }

    #[test]
    fn future_rotation_entries_survive_a_sweep_of_their_bucket() {
        let mut w = TimerWheel::new(4, 0.01);
        // Same bucket (tick 1 and tick 5 mod 4), one rotation apart.
        w.schedule(0.015, 1, 0);
        w.schedule(0.055, 2, 0);
        let fired = drain(&mut w, 0.02);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].peer, 1);
        assert_eq!(w.len(), 1);
        let fired = drain(&mut w, 0.06);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].peer, 2);
    }

    #[test]
    fn clock_jump_collects_everything_in_one_bounded_sweep() {
        let mut w = TimerWheel::new(8, 0.001);
        for p in 0..100u64 {
            w.schedule(0.001 * p as f64, p, 0);
        }
        // Jump thousands of rotations ahead: every entry fires, exactly once.
        let mut fired = drain(&mut w, 1e6);
        fired.sort_by_key(|e| e.peer);
        assert_eq!(fired.len(), 100);
        assert!(fired.iter().enumerate().all(|(i, e)| e.peer == i as u64));
        assert!(w.is_empty());
        assert!(drain(&mut w, 1e6 + 1.0).is_empty());
    }

    #[test]
    fn time_going_backward_is_a_no_op() {
        let mut w = TimerWheel::new(8, 0.01);
        w.schedule(0.5, 1, 0);
        assert!(drain(&mut w, 0.4).is_empty());
        assert!(drain(&mut w, 0.1).is_empty());
        assert_eq!(w.len(), 1);
        assert_eq!(drain(&mut w, 0.5).len(), 1);
    }

    #[test]
    fn generation_values_around_wraparound_stay_distinct() {
        // The wheel itself is generation-agnostic — it must carry the
        // exact gen through, including the extremes a wrapping counter
        // produces, so the caller's gen-mismatch cancellation works on
        // both sides of u64 wraparound.
        let mut w = TimerWheel::new(8, 0.01);
        w.schedule(0.015, 1, u64::MAX - 1);
        w.schedule(0.015, 1, u64::MAX);
        w.schedule(0.015, 1, 0); // post-wrap generation for the same peer
        let mut fired = drain(&mut w, 0.02);
        fired.sort_by_key(|e| e.gen);
        let gens: Vec<u64> = fired.iter().map(|e| e.gen).collect();
        assert_eq!(gens, vec![0, u64::MAX - 1, u64::MAX]);
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn rejects_zero_slots() {
        TimerWheel::new(0, 0.01);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_bad_tick() {
        TimerWheel::new(8, 0.0);
    }
}
