//! Seeded inputs and open-loop pacing. The program under test only ever
//! sees what is generated here from `--seed`.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// SplitMix64: small, seedable, and its streams depend on nothing but
/// the seed.
#[derive(Debug, Clone)]
pub struct Rng64(u64);

impl Rng64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// An independent stream for sub-task `k`.
    pub fn fork(&self, k: u64) -> Self {
        let mut r = Self(self.0 ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }
}

/// The heartbeat and crash schedule of a live workload, in whole slices
/// so that the same seed gives the same schedule bit for bit.
///
/// Peer `p` sends in slot `p % eta_slices`: its heartbeats are due at
/// slices `slot + k·eta_slices`. Every `crash_every` slices between
/// `first_crash` and `last_crash` one victim stops; `down_slices` later
/// it returns at the next incarnation with sequence numbers from 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    pub peers: u64,
    /// Slice length, seconds.
    pub slice: f64,
    /// Heartbeat period `η` in slices.
    pub eta_slices: u64,
    pub first_crash: u64,
    pub last_crash: u64,
    pub crash_every: u64,
    pub down_slices: u64,
    /// A victim has sent at least this many heartbeats in its current
    /// life, so its NFD-E estimator window is full.
    pub min_life_hb: u64,
    /// Every this-many-th victim is the peer whose current life is the
    /// oldest — the one a stability-ranked elector has as leader. 0 for
    /// never.
    pub oldest_every: u64,
}

/// One crash and return of one peer, in slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    pub peer: u64,
    /// Heartbeats due at or after this slice are not sent.
    pub crash: u64,
    /// Due slice of the last heartbeat of the old life.
    pub last_due: u64,
    /// Due slice of the first heartbeat of the new life.
    pub first_due: u64,
    /// Incarnation of the new life.
    pub incarnation: u64,
}

impl Schedule {
    pub fn secs(&self, slices: u64) -> f64 {
        slices as f64 * self.slice
    }

    pub fn slot_of(&self, peer: u64) -> u64 {
        peer % self.eta_slices
    }

    /// Peers whose heartbeats are due in slice `s`.
    pub fn due_in(&self, s: u64) -> impl Iterator<Item = u64> {
        let (slot, step, n) = (s % self.eta_slices, self.eta_slices, self.peers);
        (0..)
            .map(move |k| slot + k * step)
            .take_while(move |&p| p < n)
    }

    /// The outages of the run, ordered by crash slice.
    pub fn outages(&self, seed: u64) -> Vec<Outage> {
        let mut rng = Rng64::new(seed).fork(1);
        // Per peer: due slice of the first heartbeat of its current life,
        // and its incarnation.
        let mut life_start: Vec<u64> = (0..self.peers).map(|p| self.slot_of(p)).collect();
        let mut incarnation = vec![0u64; self.peers as usize];
        let mut by_age: BTreeSet<(u64, u64)> = (0..self.peers)
            .map(|p| (life_start[p as usize], p))
            .collect();
        let sent_before = |start: u64, crash: u64| {
            if crash > start {
                (crash - 1 - start) / self.eta_slices + 1
            } else {
                0
            }
        };
        let mut out = Vec::new();
        let mut crash = self.first_crash;
        while crash <= self.last_crash && self.crash_every > 0 {
            let eligible = |p: u64| sent_before(life_start[p as usize], crash) >= self.min_life_hb;
            let oldest =
                self.oldest_every > 0 && (out.len() as u64 + 1).is_multiple_of(self.oldest_every);
            let victim = if oldest {
                by_age.first().map(|&(_, p)| p).filter(|&p| eligible(p))
            } else {
                (0..64)
                    .map(|_| rng.below(self.peers))
                    .find(|&p| eligible(p))
            };
            if let Some(peer) = victim {
                let i = peer as usize;
                let sent = sent_before(life_start[i], crash);
                let last_due = life_start[i] + (sent - 1) * self.eta_slices;
                let back = crash + self.down_slices;
                let slot = self.slot_of(peer);
                let first_due =
                    back + (slot + self.eta_slices - back % self.eta_slices) % self.eta_slices;
                by_age.remove(&(life_start[i], peer));
                life_start[i] = first_due;
                by_age.insert((first_due, peer));
                incarnation[i] += 1;
                out.push(Outage {
                    peer,
                    crash,
                    last_due,
                    first_due,
                    incarnation: incarnation[i],
                });
            }
            crash += self.crash_every;
        }
        out
    }
}

/// Seeded-random peers for a consumer's `status()` reads.
pub fn read_targets(seed: u64, peers: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng64::new(seed).fork(2);
    (0..n).map(|_| rng.below(peers)).collect()
}

/// Open-loop pacing against one origin. The generator spins until each
/// due instant and never sleeps.
///
/// With a generator that sleeps between slices the scheduler sometimes
/// runs the stack's busiest thread (the receive pump, or `consumer_mix`'s
/// reader) on the generator's core and sometimes on the other, for
/// minutes at a time. Sharing a core with the generator, the pump finds
/// each slice's 100 datagrams queued and takes them 32 per `recvmmsg`;
/// apart, it is woken per datagram. The same commit then reads 3.4 or
/// 5.2 µs of CPU per heartbeat on `steady_detect`, and 9.8 M or 14 M
/// `status()` reads per second on `consumer_mix`. A generator that keeps
/// its core busy leaves the stack's threads the other one, as senders
/// on other machines would.
#[derive(Debug)]
pub struct Pacer {
    origin: Instant,
    /// Time spent spinning; it is generator cost, not the stack's, and
    /// is taken out of the CPU time charged per heartbeat.
    pub spun: Duration,
}

impl Pacer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spun: Duration::ZERO,
        }
    }

    /// Spins until `due` seconds after the origin and returns how late,
    /// in seconds, the caller resumes (0 or more).
    pub fn wait_until(&mut self, due: f64) -> f64 {
        let due = Duration::from_secs_f64(due.max(0.0));
        let spin_from = self.origin.elapsed();
        let mut now = spin_from;
        while now < due {
            std::hint::spin_loop();
            now = self.origin.elapsed();
        }
        self.spun += now - spin_from;
        (now - due).as_secs_f64()
    }
}

/// Offset between a monitor's cluster clock and seconds since `origin`,
/// read once: `cluster_time − offset` is a bench time. Takes the
/// tightest of a few bracketed reads.
pub fn cluster_clock_offset(now: impl Fn() -> f64, origin: Instant) -> f64 {
    (0..9)
        .map(|_| {
            let a = origin.elapsed().as_secs_f64();
            let c = now();
            let b = origin.elapsed().as_secs_f64();
            (b - a, c - 0.5 * (a + b))
        })
        .min_by(|x, y| x.0.total_cmp(&y.0))
        .map_or(0.0, |(_, off)| off)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule() -> Schedule {
        Schedule {
            peers: 2_000,
            slice: 0.001,
            eta_slices: 200,
            first_crash: 7_000,
            last_crash: 11_000,
            crash_every: 3,
            down_slices: 1_000,
            min_life_hb: 33,
            oldest_every: 0,
        }
    }

    #[test]
    fn same_seed_same_victims_crash_instants_and_read_targets() {
        let s = schedule();
        assert_eq!(s.outages(42), s.outages(42));
        assert_ne!(s.outages(42), s.outages(43));
        assert_eq!(
            read_targets(42, 10_000, 1_000),
            read_targets(42, 10_000, 1_000)
        );
        assert_ne!(
            read_targets(42, 10_000, 1_000),
            read_targets(43, 10_000, 1_000)
        );
    }

    #[test]
    fn outages_respect_the_schedule() {
        let s = schedule();
        let plan = s.outages(7);
        assert!(
            plan.len() > 1_000,
            "most crash slots find a victim, got {}",
            plan.len()
        );
        let mut down_until = std::collections::HashMap::new();
        for o in &plan {
            assert_eq!((o.crash - s.first_crash) % s.crash_every, 0);
            assert!(o.last_due < o.crash && o.crash - o.last_due <= s.eta_slices);
            assert_eq!(o.last_due % s.eta_slices, s.slot_of(o.peer));
            assert_eq!(o.first_due % s.eta_slices, s.slot_of(o.peer));
            assert!(o.first_due >= o.crash + s.down_slices);
            assert!(o.first_due < o.crash + s.down_slices + s.eta_slices);
            // Not crashed again before a full estimator window of the new life.
            if let Some(&until) = down_until.get(&o.peer) {
                assert!(o.crash > until + (s.min_life_hb - 1) * s.eta_slices);
            }
            down_until.insert(o.peer, o.first_due);
        }
    }

    #[test]
    fn oldest_victims_are_the_longest_lived() {
        let s = Schedule {
            oldest_every: 5,
            ..schedule()
        };
        let plan = s.outages(1);
        // The fifth victim is the first "oldest": nobody has restarted
        // except four peers, so it is the lowest id of slot 0 still in
        // its first life.
        let fifth = plan[4];
        assert_eq!(s.slot_of(fifth.peer), 0);
        assert!(plan[..4].iter().all(|o| o.peer != fifth.peer));
    }

    #[test]
    fn due_in_lists_each_peer_once_per_period() {
        let s = schedule();
        let mut seen = vec![0u32; s.peers as usize];
        for slice in 0..s.eta_slices {
            for p in s.due_in(slice) {
                seen[p as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1));
    }

    #[test]
    fn pacer_never_returns_early() {
        let origin = Instant::now();
        let mut p = Pacer::new(origin);
        for k in 1..=5 {
            let due = k as f64 * 0.002;
            let late = p.wait_until(due);
            assert!(late >= 0.0);
            assert!(origin.elapsed().as_secs_f64() >= due);
        }
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng64::new(9);
        assert!((0..10_000).all(|_| r.below(7) < 7));
    }
}
